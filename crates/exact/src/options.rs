//! Tunables of the exact search.

use mvp_core::SchedulerOptions;

/// Options controlling the branch-and-bound search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExactOptions {
    /// How many candidate IIs above the minimum II the outer search probes
    /// before giving up (mirrors [`SchedulerOptions::max_ii_slack`]).
    pub max_ii_slack: u32,
    /// Search-node budget shared by the whole II search: every
    /// (operation, cluster, cycle) placement attempt and every register-bus
    /// reservation attempt consumes one node. When the budget runs out the
    /// outer search stops and reports the certified lower bound accumulated
    /// so far instead of an answer for the undecided IIs.
    pub node_budget: u64,
    /// Search horizon in pipeline stages: operations may start no later than
    /// `max(ASAP) + horizon_stages · II`. The search is exhaustive over
    /// schedules within this span — a hypothetical legal schedule stretched
    /// over more stages than this is outside the model, so "infeasible"
    /// verdicts are relative to the horizon. The default of 8 stages is far
    /// beyond anything the heuristic schedulers produce on the paper's loops
    /// or the fuzz corpus (stage counts there stay in the low single digits).
    pub horizon_stages: u32,
    /// Whether the MaxLive register-pressure rule is enforced (matching the
    /// validator's `RegisterFileOverflow` rule). Disabling it searches a
    /// relaxation whose II is still a valid lower bound for the constrained
    /// problem.
    pub enforce_register_pressure: bool,
    /// Whether the SAT backend keeps one incremental solver alive across the
    /// whole II search (assumption-guarded per-II layers, clause and
    /// learnt-state retention) instead of re-encoding from scratch per
    /// probe. On by default; [`ExactOptions::with_sat_incremental`]
    /// switches it off, which the differential suites use to compare the
    /// two modes.
    pub sat_incremental: bool,
}

impl ExactOptions {
    /// Default options: 32 IIs of slack, a 1M-node budget (the Figure-3
    /// motivating loop on its Section-3 machine — the hardest pinned case —
    /// needs just under half of it), an 8-stage horizon and register
    /// pressure enforced.
    #[must_use]
    pub fn new() -> Self {
        Self {
            max_ii_slack: 32,
            node_budget: 1_000_000,
            horizon_stages: 8,
            enforce_register_pressure: true,
            sat_incremental: true,
        }
    }

    /// Returns a copy with the given II search slack.
    #[must_use]
    pub fn with_max_ii_slack(mut self, slack: u32) -> Self {
        self.max_ii_slack = slack;
        self
    }

    /// Returns a copy with the given node budget (at least 1).
    #[must_use]
    pub fn with_node_budget(mut self, budget: u64) -> Self {
        self.node_budget = budget.max(1);
        self
    }

    /// Returns a copy with the given horizon, in pipeline stages (at least 1).
    #[must_use]
    pub fn with_horizon_stages(mut self, stages: u32) -> Self {
        self.horizon_stages = stages.max(1);
        self
    }

    /// Returns a copy with register-pressure enforcement switched on or off.
    #[must_use]
    pub fn with_register_pressure(mut self, enforce: bool) -> Self {
        self.enforce_register_pressure = enforce;
        self
    }

    /// Returns a copy with incremental SAT solving switched on or off.
    #[must_use]
    pub fn with_sat_incremental(mut self, incremental: bool) -> Self {
        self.sat_incremental = incremental;
        self
    }

    /// Returns `self` unchanged: this builder sets nothing. It exists only
    /// because the benchmark package (`perfbench/src/exact.rs`) still calls
    /// `.with_ladder_width(1)`, and it is deleted right after the benchmark
    /// drops that call.
    #[doc(hidden)]
    #[must_use]
    pub fn with_ladder_width(self, _width: u32) -> Self {
        self
    }

    /// Derives exact-search options from the shared [`SchedulerOptions`]
    /// (used when the exact scheduler runs as a [`SchedulerChoice`] inside
    /// the pipeline): the II slack and register-pressure switch carry over,
    /// the budget and horizon keep their defaults. The miss-latency options
    /// are ignored — the exact scheduler always assumes hit latencies.
    ///
    /// [`SchedulerChoice`]: https://docs.rs/multivliw/latest/multivliw/pipeline/enum.SchedulerChoice.html
    #[must_use]
    pub fn from_scheduler_options(options: &SchedulerOptions) -> Self {
        Self::new()
            .with_max_ii_slack(options.max_ii_slack)
            .with_register_pressure(options.enforce_register_pressure)
    }
}

impl Default for ExactOptions {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_clamp_and_override() {
        let o = ExactOptions::new()
            .with_max_ii_slack(4)
            .with_node_budget(0)
            .with_horizon_stages(0)
            .with_register_pressure(false)
            .with_sat_incremental(false);
        assert_eq!(o.max_ii_slack, 4);
        assert_eq!(o.node_budget, 1);
        assert_eq!(o.horizon_stages, 1);
        assert!(!o.enforce_register_pressure);
        assert!(!o.sat_incremental);
        assert_eq!(o.with_ladder_width(4), o, "the shim sets nothing");
    }

    #[test]
    fn scheduler_options_carry_over() {
        let s = SchedulerOptions::new()
            .with_max_ii_slack(7)
            .with_register_pressure(false);
        let o = ExactOptions::from_scheduler_options(&s);
        assert_eq!(o.max_ii_slack, 7);
        assert!(!o.enforce_register_pressure);
        assert_eq!(o.node_budget, ExactOptions::new().node_budget);
    }
}
