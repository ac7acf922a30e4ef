//! Tunable options shared by all schedulers.

/// Options controlling the modulo schedulers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedulerOptions {
    /// Cache-miss threshold (Section 4.3): a load is scheduled with the
    /// cache-miss latency when its estimated miss ratio in its cluster is at
    /// least this value and no recurrence through it would push the II up.
    ///
    /// * `1.0` (default) — the traditional scheme: loads always use the hit
    ///   latency.
    /// * `0.0` — every load that can absorb the miss latency without raising
    ///   the II is scheduled with it (the scheme of the authors' earlier
    ///   cache-sensitive modulo scheduling paper).
    pub miss_threshold: f64,
    /// How many extra candidate IIs beyond the minimum II are tried before
    /// giving up.
    pub max_ii_slack: u32,
}

impl SchedulerOptions {
    /// Paper-default options: threshold 1.0 (hit latencies) and a generous
    /// II search range.
    #[must_use]
    pub fn new() -> Self {
        Self {
            miss_threshold: 1.0,
            max_ii_slack: 64,
        }
    }

    /// Returns a copy with the given cache-miss threshold (clamped to
    /// `0.0..=1.0`).
    #[must_use]
    pub fn with_threshold(mut self, threshold: f64) -> Self {
        self.miss_threshold = threshold.clamp(0.0, 1.0);
        self
    }

    /// Whether a load with the given estimated miss ratio should be scheduled
    /// with the cache-miss latency under this threshold (ignoring the
    /// recurrence-slack condition, which the scheduler checks separately).
    #[must_use]
    pub fn wants_miss_latency(&self, miss_ratio: f64) -> bool {
        if self.miss_threshold >= 1.0 {
            return false;
        }
        miss_ratio >= self.miss_threshold
    }
}

impl Default for SchedulerOptions {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_traditional_scheme() {
        let o = SchedulerOptions::default();
        assert_eq!(o.miss_threshold, 1.0);
        assert!(!o.wants_miss_latency(1.0));
        assert!(!o.wants_miss_latency(0.0));
    }

    #[test]
    fn threshold_zero_schedules_everything_with_miss_latency() {
        let o = SchedulerOptions::new().with_threshold(0.0);
        assert!(o.wants_miss_latency(0.0));
        assert!(o.wants_miss_latency(0.7));
    }

    #[test]
    fn intermediate_thresholds_compare_against_the_ratio() {
        let o = SchedulerOptions::new().with_threshold(0.25);
        assert!(!o.wants_miss_latency(0.1));
        assert!(o.wants_miss_latency(0.25));
        assert!(o.wants_miss_latency(0.9));
    }

    #[test]
    fn builder_clamps_the_threshold() {
        let o = SchedulerOptions::new().with_threshold(2.5);
        assert_eq!(o.miss_threshold, 1.0);
        let o2 = SchedulerOptions::new().with_threshold(-1.0);
        assert_eq!(o2.miss_threshold, 0.0);
    }
}
