//! Tunables of the exact search.

/// Options controlling the exact search.
///
/// The MaxLive register-pressure rule (the validator's
/// `RegisterFileOverflow`) is always part of the model, as it is for every
/// scheduler of the workspace; no option drops it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExactOptions {
    /// How many candidate IIs above the minimum II the outer search probes
    /// before giving up (mirrors `mvp_core::SchedulerOptions::max_ii_slack`).
    pub max_ii_slack: u32,
    /// Search-node budget shared by the whole II search: every
    /// (operation, cluster, cycle) placement attempt and every register-bus
    /// reservation attempt consumes one node. When the budget runs out the
    /// outer search stops and reports the certified lower bound accumulated
    /// so far instead of an answer for the undecided IIs.
    pub node_budget: u64,
    /// Refutation horizon in pipeline stages: every "infeasible" verdict is
    /// exhaustive over the schedules whose operations start no later than
    /// `max(ASAP) + horizon_stages · II`. A hypothetical legal schedule
    /// stretched over more stages than this is outside the model, so
    /// refutations are relative to the horizon. Schedules found need not
    /// span it: the SAT engine searches two stages first and encodes the
    /// full horizon only to refute an II (see its module docs), while the
    /// branch-and-bound searches the full horizon throughout. The default
    /// of 8 stages is far beyond anything the heuristic schedulers produce
    /// on the paper's loops or the fuzz corpus (stage counts there stay in
    /// the low single digits).
    pub horizon_stages: u32,
}

impl ExactOptions {
    /// Default options: 32 IIs of slack, a 1M-node budget (the Figure-3
    /// motivating loop on its Section-3 machine — the hardest pinned case —
    /// needs just under half of it) and an 8-stage horizon.
    #[must_use]
    pub fn new() -> Self {
        Self {
            max_ii_slack: 32,
            node_budget: 1_000_000,
            horizon_stages: 8,
        }
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

    /// Returns `self` unchanged: this builder sets nothing. It exists only
    /// because the benchmark package (`perfbench/src/exact.rs`) still calls
    /// `.with_ladder_width(1)`, and it is deleted right after the benchmark
    /// drops that call.
    #[doc(hidden)]
    #[must_use]
    pub fn with_ladder_width(self, _width: u32) -> Self {
        self
    }

    /// Returns `self` unchanged: this builder sets nothing. It exists only
    /// because the benchmark package (`perfbench/src/exact.rs`) still calls
    /// `.with_sat_incremental(true)`, and it is deleted right after the
    /// benchmark drops that call.
    #[doc(hidden)]
    #[must_use]
    pub fn with_sat_incremental(self, _incremental: bool) -> Self {
        self
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
            .with_node_budget(0)
            .with_horizon_stages(0);
        assert_eq!(o.max_ii_slack, 32);
        assert_eq!(o.node_budget, 1);
        assert_eq!(o.horizon_stages, 1);
        assert_eq!(o.with_ladder_width(4), o, "the shim sets nothing");
    }
}
