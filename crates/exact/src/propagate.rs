//! Constraint propagation: static start-cycle windows per operation.
//!
//! For a fixed II the dependence edges form a system of difference
//! constraints `t_dst − t_src ≥ w(e)` with `w(e) = delay − II·distance`
//! (the bus-free relaxation of the validator's `DependenceViolated` rule).
//! [`mvp_ir::recurrence::longest_paths`], the pass that also gives `RecMII`,
//! yields each operation's earliest (ASAP) start cycle forwards and, against
//! the search horizon, its latest (ALAP) start cycle backwards. Two outcomes
//! matter beyond the windows themselves:
//!
//! * a **positive cycle** in the constraint graph proves the II infeasible
//!   outright — this is the `RecMII` certificate, independent of any search
//!   horizon;
//! * tight windows shrink the branching factor of the search and order the
//!   operations most-constrained-first.

use mvp_ir::recurrence::longest_paths;
use mvp_resmodel::ResModel;

/// Static per-operation start-cycle windows for one candidate II.
#[derive(Debug, Clone)]
pub struct Windows {
    /// Earliest start cycle per operation (longest path from cycle 0).
    pub earliest: Vec<i64>,
    /// Latest start cycle per operation (longest path to the horizon).
    pub latest: Vec<i64>,
    /// The horizon the latest cycles were computed against.
    pub horizon: i64,
}

impl Windows {
    /// Window width (`latest − earliest + 1`) per operation.
    #[must_use]
    pub fn widths(&self) -> Vec<i64> {
        self.earliest
            .iter()
            .zip(&self.latest)
            .map(|(e, l)| l - e + 1)
            .collect()
    }
}

/// Computes the static windows for `ii` at the hit latencies, or `None`
/// when the difference constraints contain a positive cycle (the II is
/// certified infeasible, no horizon involved).
///
/// The horizon is the latest ASAP cycle plus `horizon_stages` (at least 1)
/// pipeline stages: see [`crate::ExactOptions::horizon_stages`] for the
/// completeness caveat this bound carries.
#[must_use]
pub fn windows(model: &ResModel<'_, '_>, ii: u32, horizon_stages: u32) -> Option<Windows> {
    let n = model.num_ops();
    // ASAP: every op may start at cycle 0, then longest paths forwards.
    let mut asap = vec![Some(0); n];
    if !longest_paths(model.l, ii, &model.latency, false, &mut asap) {
        return None; // positive cycle: II < RecMII
    }
    let earliest: Vec<i64> = asap.into_iter().flatten().collect();
    let asap_max = earliest.iter().copied().max().unwrap_or(0);
    let horizon = asap_max + i64::from(horizon_stages.max(1)) * i64::from(ii);

    // ALAP: the longest path from each op to any op, taken off the horizon.
    // Every such path ends at or before `asap_max`, so earliest ≤ latest.
    let mut tail = vec![Some(0); n];
    longest_paths(model.l, ii, &model.latency, true, &mut tail);
    let latest = tail.into_iter().flatten().map(|t| horizon - t).collect();
    Some(Windows {
        earliest,
        latest,
        horizon,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::ExactOptions;
    use mvp_ir::Loop;
    use mvp_machine::presets;

    fn stages() -> u32 {
        ExactOptions::new().horizon_stages
    }

    #[test]
    fn chain_windows_follow_latencies() {
        let mut b = Loop::builder("chain");
        let x = b.fp_op("X");
        let y = b.fp_op("Y");
        b.data_edge(x, y, 0);
        let l = b.build().unwrap();
        let machine = presets::two_cluster();
        let m = ResModel::new(&l, &machine).unwrap();
        let w = windows(&m, 1, stages()).unwrap();
        assert_eq!(w.earliest, vec![0, 2]);
        assert_eq!(w.latest[0], w.latest[1] - 2);
        assert_eq!(w.horizon, 2 + i64::from(stages()));
        assert!(w.widths().iter().all(|&x| x >= 1));
    }

    #[test]
    fn positive_cycles_certify_infeasibility() {
        // fp X -> Y -> X (distance 1): circuit latency 4, so II < 4 has a
        // positive cycle and II = 4 does not.
        let mut b = Loop::builder("rec");
        let x = b.fp_op("X");
        let y = b.fp_op("Y");
        b.data_edge(x, y, 0);
        b.data_edge(y, x, 1);
        let l = b.build().unwrap();
        let machine = presets::unified();
        let m = ResModel::new(&l, &machine).unwrap();
        for ii in 1..4 {
            assert!(windows(&m, ii, stages()).is_none(), "II={ii}");
        }
        assert!(windows(&m, 4, stages()).is_some());
    }

    #[test]
    fn carried_edges_relax_with_larger_ii() {
        let mut b = Loop::builder("carried");
        let x = b.fp_op("X");
        let y = b.fp_op("Y");
        b.data_edge(x, y, 2);
        let l = b.build().unwrap();
        let machine = presets::unified();
        let m = ResModel::new(&l, &machine).unwrap();
        // At II=1 the carried edge still forces Y no earlier than cycle 0.
        let w = windows(&m, 1, stages()).unwrap();
        assert_eq!(w.earliest, vec![0, 0]);
        // At II=2 the edge weight is negative; both ops are unconstrained.
        let w = windows(&m, 2, stages()).unwrap();
        assert_eq!(w.earliest, vec![0, 0]);
    }
}
