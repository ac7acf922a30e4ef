//! Simulation statistics.

use crate::memory_system::MemoryCounters;
use std::fmt;

/// Result of simulating one schedule on one machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimStats {
    /// `NCYCLE_compute`: cycles the processor spends executing scheduled work
    /// for the simulated iterations.
    pub compute_cycles: u64,
    /// `NCYCLE_stall`: cycles the (lockstep) processor is stalled waiting for
    /// memory values the compiler scheduled optimistically.
    pub stall_cycles: u64,
    /// Number of innermost-loop iterations simulated.
    pub iterations: u64,
    /// Number of times the innermost loop was entered.
    pub executions: u64,
    /// Initiation interval of the simulated schedule.
    pub ii: u32,
    /// Stage count of the simulated schedule.
    pub stage_count: u32,
    /// Memory-system counters.
    pub memory: MemoryCounters,
}

impl SimStats {
    /// `NCYCLE_total = NCYCLE_compute + NCYCLE_stall`.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.compute_cycles + self.stall_cycles
    }

    /// Fraction of the total cycles spent stalled.
    #[must_use]
    pub fn stall_fraction(&self) -> f64 {
        let total = self.total_cycles();
        if total == 0 {
            0.0
        } else {
            self.stall_cycles as f64 / total as f64
        }
    }

    /// Total cycles normalised against a reference run (e.g. the Unified
    /// configuration), the y-axis of Figures 5 and 6.
    #[must_use]
    pub fn normalized_to(&self, reference: &SimStats) -> f64 {
        if reference.total_cycles() == 0 {
            0.0
        } else {
            self.total_cycles() as f64 / reference.total_cycles() as f64
        }
    }
}

impl fmt::Display for SimStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "total={} (compute={} + stall={}), {} iterations, II={}, SC={}, misses={}, local hits={}",
            self.total_cycles(),
            self.compute_cycles,
            self.stall_cycles,
            self.iterations,
            self.ii,
            self.stage_count,
            self.memory.misses(),
            self.memory.local_hits
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(compute: u64, stall: u64) -> SimStats {
        SimStats {
            compute_cycles: compute,
            stall_cycles: stall,
            iterations: 100,
            executions: 1,
            ii: 3,
            stage_count: 4,
            memory: MemoryCounters::default(),
        }
    }

    #[test]
    fn totals_and_fractions() {
        let s = stats(300, 100);
        assert_eq!(s.total_cycles(), 400);
        assert!((s.stall_fraction() - 0.25).abs() < 1e-12);
        assert_eq!(s.total_cycles(), 4 * s.iterations);
    }

    #[test]
    fn normalisation_against_a_reference() {
        let clustered = stats(300, 100);
        let unified = stats(320, 0);
        assert!((clustered.normalized_to(&unified) - 1.25).abs() < 1e-12);
        let zero = stats(0, 0);
        assert_eq!(clustered.normalized_to(&zero), 0.0);
        assert_eq!(zero.stall_fraction(), 0.0);
    }

    #[test]
    fn display_mentions_the_breakdown() {
        let s = stats(300, 100);
        let text = s.to_string();
        assert!(text.contains("compute=300"));
        assert!(text.contains("stall=100"));
    }
}
