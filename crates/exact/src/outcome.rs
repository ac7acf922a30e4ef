//! Results of the exact II search: schedules, certified bounds, probe logs.

use crate::scheduler::ExactBackend;
use mvp_core::{Schedule, ScheduleError};
use std::fmt;

/// Verdict of one fixed-II probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IiVerdict {
    /// A legal schedule exists at this II.
    Feasible,
    /// No legal schedule exists at this II (certified by a dependence
    /// positive cycle, a resource count, or an exhausted search within the
    /// horizon).
    Infeasible,
    /// The node budget ran out before the probe was decided.
    Unknown,
}

impl fmt::Display for IiVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IiVerdict::Feasible => f.write_str("feasible"),
            IiVerdict::Infeasible => f.write_str("infeasible"),
            IiVerdict::Unknown => f.write_str("unknown"),
        }
    }
}

/// Log entry of one fixed-II probe of the outer search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IiProbe {
    /// The probed initiation interval.
    pub ii: u32,
    /// How the probe ended.
    pub verdict: IiVerdict,
    /// Branch-and-bound search nodes the probe consumed (in a portfolio
    /// probe, every dovetail instalment's, whichever engine decided).
    pub nodes: u64,
    /// SAT solver steps (decisions + conflicts) the probe consumed (in a
    /// portfolio probe, every dovetail instalment's).
    pub conflicts: u64,
    /// The engine whose certificate decided the probe: never
    /// [`ExactBackend::Portfolio`] once decided. For an undecided probe
    /// (budget), the backend that was asked.
    pub solver: ExactBackend,
    /// Register-pressure refinement (CEGAR) rounds the probe's SAT engine
    /// ran: models re-priced as overflowing and answered with explanation
    /// lemmas. Zero for pure branch-and-bound probes. The process-wide
    /// `exact.sat.cegar_rounds` counter only sums these over committed
    /// probes.
    pub cegar_rounds: u64,
    /// Pipeline stages of the SAT encoding that decided the probe: the
    /// short first encoding's, or [`crate::ExactOptions::horizon_stages`]
    /// when that one was refuted and the probe re-encoded. `None` when no
    /// SAT encoding decided it: a branch-and-bound verdict, a certificate
    /// that refuted the II before any encoding, or an exhausted budget.
    pub sat_stages: Option<u32>,
}

/// Outcome of the exact II search for one loop on one machine.
///
/// The invariants every consumer can rely on:
///
/// * every II below [`lower_bound`](Self::lower_bound) is **certified
///   illegal** — no schedule the validator accepts exists there (within the
///   documented search horizon), so no heuristic may ever report a smaller
///   II;
/// * when [`schedule`](Self::schedule) is present it is a legal schedule
///   (it passes `validate_schedule` with zero violations) and its II is the
///   smallest the search could *find*;
/// * [`proved_optimal`](Self::proved_optimal) holds exactly when the found
///   schedule's II equals the lower bound — the schedule is optimal, with
///   the probe log as the certificate trail.
#[derive(Debug, Clone)]
pub struct ExactOutcome {
    /// The machine-independent-rules minimum II the search started from
    /// (`max(ResMII, RecMII)`).
    pub min_ii: u32,
    /// Best (smallest-II) legal schedule found, if any II in the search
    /// range was both feasible and within budget.
    pub schedule: Option<Schedule>,
    /// Smallest II **not** certified infeasible: a certified lower bound on
    /// the II of any legal schedule.
    pub lower_bound: u32,
    /// Whether `schedule` is proven optimal (`schedule.ii() == lower_bound`).
    pub proved_optimal: bool,
    /// Total branch-and-bound search nodes consumed across all probes.
    pub nodes: u64,
    /// Total SAT solver steps (decisions + conflicts) across all probes.
    pub conflicts: u64,
    /// The backend the search ran with.
    pub backend: ExactBackend,
    /// Per-II probe log, in probing order.
    pub probes: Vec<IiProbe>,
}

impl ExactOutcome {
    /// II of the found schedule, if any.
    #[must_use]
    pub fn schedule_ii(&self) -> Option<u32> {
        self.schedule.as_ref().map(Schedule::ii)
    }

    /// The exact optimal II when proven, `None` while only bounded.
    #[must_use]
    pub fn exact_ii(&self) -> Option<u32> {
        if self.proved_optimal {
            self.schedule_ii()
        } else {
            None
        }
    }

    /// Relative optimality gap of a heuristic schedule with initiation
    /// interval `heuristic_ii` against the certified lower bound:
    /// `(heuristic − bound) / bound`. Zero means the heuristic is provably
    /// optimal (or matches the best known bound); the value is conservative
    /// — the true gap can only be smaller than or equal to this.
    #[must_use]
    pub fn optimality_gap_of(&self, heuristic_ii: u32) -> f64 {
        let bound = self.lower_bound.max(1);
        (f64::from(heuristic_ii) - f64::from(bound)) / f64::from(bound)
    }

    /// The found schedule, or [`ScheduleError::NoFeasibleIi`] spanning
    /// `min_ii` to the last II the search probed: the end of the search
    /// range when every II in it was refuted, or the II where the budget ran
    /// out.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::NoFeasibleIi`] when no schedule was found.
    pub fn into_schedule(self) -> Result<Schedule, ScheduleError> {
        let max_ii = self.probes.last().map_or(self.min_ii, |p| p.ii);
        self.schedule.ok_or(ScheduleError::NoFeasibleIi {
            min_ii: self.min_ii,
            max_ii,
        })
    }

    /// Total search steps across engines: branch-and-bound nodes plus SAT
    /// decisions/conflicts. The portfolio's "strictly fewer total steps"
    /// claims are measured in this unit.
    #[must_use]
    pub fn search_steps(&self) -> u64 {
        self.nodes + self.conflicts
    }
}

impl fmt::Display for ExactOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (&self.schedule, self.proved_optimal) {
            (Some(s), true) => write!(f, "optimal II={} ({} nodes)", s.ii(), self.nodes),
            (Some(s), false) => write!(
                f,
                "II={} (lower bound {}, {} nodes)",
                s.ii(),
                self.lower_bound,
                self.nodes
            ),
            (None, _) => write!(
                f,
                "no schedule found; II >= {} ({} nodes)",
                self.lower_bound, self.nodes
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gap_is_relative_to_the_lower_bound() {
        let outcome = ExactOutcome {
            min_ii: 3,
            schedule: None,
            lower_bound: 4,
            proved_optimal: false,
            nodes: 10,
            conflicts: 7,
            backend: ExactBackend::Portfolio,
            probes: vec![IiProbe {
                ii: 3,
                verdict: IiVerdict::Infeasible,
                nodes: 10,
                conflicts: 7,
                solver: ExactBackend::Sat,
                cegar_rounds: 0,
                sat_stages: Some(8),
            }],
        };
        assert!((outcome.optimality_gap_of(4)).abs() < 1e-12);
        assert!((outcome.optimality_gap_of(6) - 0.5).abs() < 1e-12);
        assert_eq!(outcome.exact_ii(), None);
        assert_eq!(outcome.search_steps(), 17);
        assert!(outcome.to_string().contains("II >= 4"));
        assert_eq!(IiVerdict::Unknown.to_string(), "unknown");
    }
}
