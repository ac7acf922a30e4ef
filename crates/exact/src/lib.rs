//! `mvp-exact` — a branch-and-bound **exact modulo scheduler**: the
//! optimality oracle for the heuristic schedulers of `mvp-core`.
//!
//! The paper evaluates its cluster-assignment heuristics only against each
//! other; this crate answers the stronger question *how far from optimal*
//! they land, following the exact-scheduling line of work (Roorda's
//! SMT-based optimal software pipelining; Tirelli et al.'s SAT-MapIt). For a
//! candidate initiation interval the clustered placement + time-slot
//! assignment problem is solved exhaustively by branch-and-bound over a
//! constraint model; an outer search probes IIs upwards from
//! `max(ResMII, RecMII)` and yields either a **provably optimal schedule**
//! or a **certified lower bound** when the node budget trips
//! ([`ExactOutcome`]).
//!
//! A second, fully independent engine lowers the same rule set to CNF and
//! hands it to the in-workspace CDCL solver of `mvp-sat`
//! ([`ExactBackend::Sat`]); [`ExactBackend::Portfolio`] dovetails both
//! engines per probe in escalating step quanta until one decides. Every
//! backend runs the same sequential upward II loop, one probe at a time.
//!
//! # The constraint model is the validator's rule set
//!
//! The model is the constraint kernel's [`mvp_resmodel::ResModel`], which
//! every engine takes as is. It deliberately reuses the vocabulary of the
//! independent legality oracle [`mvp_core::validate::validate_schedule`]
//! rather than any scheduler's internals — each search constraint maps
//! one-to-one onto the violation it rules out. The dependence delay is the
//! one rule of [`mvp_ir::DepEdge::delay`] that the heuristics, the kernel and
//! the `RecMII` the II search starts from all use, so the search never
//! starts above an II the validator accepts:
//!
//! | search constraint | validator counterpart |
//! |---|---|
//! | at most `fu_count` operations per (cluster, unit kind, `cycle % II`) | `Violation::FuOversubscribed` |
//! | `cycle(dst) + II·distance ≥ cycle(src) + delay (+ bus latency when clusters differ)` per edge, with [`mvp_ir::DepEdge::delay`] | `Violation::DependenceViolated` |
//! | one transfer per cross-cluster data-edge pair, recorded with the real clusters | `Violation::MissingCommunication`, `Violation::SpuriousCommunication` |
//! | transfer starts inside `[producer completion, consumer start − bus latency]` (intersected over parallel edges) | `Violation::CommunicationOutsideWindow` |
//! | on finite bus sets: one transfer per (bus, modulo row), each occupying `bus latency` rows; transfers longer than the II are rejected outright | `Violation::BusOverlap`, `Violation::BusOutOfRange` |
//! | MaxLive per cluster (recomputed with [`mvp_core::lifetime::register_pressure`]) fits the register file | `Violation::RegisterFileOverflow`, `Violation::RegisterPressureMismatch` |
//! | placements carry the hit latency and `miss_scheduled = false` | `Violation::LatencyMismatch`, `Violation::MissScheduledNonLoad` |
//!
//! Consequently every schedule this crate emits passes the validator with
//! zero violations (debug builds assert it), and an "infeasible" verdict
//! means *no schedule the validator would accept exists at that II* — with
//! two documented model caveats:
//!
//! * every refutation is exhaustive over schedules spanning at most
//!   [`ExactOptions::horizon_stages`] pipeline stages beyond the ASAP bound
//!   (default 8, far beyond anything the heuristics produce; the SAT
//!   engine looks for schedules within two stages first);
//! * parallel data edges between the same (producer, consumer) pair share
//!   one transfer whose start window is *intersected* over the edges — the
//!   one-copy-per-iteration reading, under which the value reaches the
//!   consumer before its earliest use across distances. The validator is
//!   laxer (a transfer may serve any one parallel edge), so on loops with
//!   same-pair edges of *different* distances the certificate is relative
//!   to the stricter model. The loop generator cannot produce such pairs
//!   (forward edges and recurrence edges point in opposite id directions),
//!   and no paper loop has them.
//!
//! # Certificates
//!
//! Infeasibility of an II is certified three ways, strongest first:
//!
//! 1. **resource counts** — some unit kind must issue more operations per II
//!    than the machine provides slots (`ops > units × II`), the counting
//!    argument behind `ResMII`;
//! 2. **positive dependence cycles** — the longest-path pass over the
//!    difference constraints `t_dst − t_src ≥ delay − II·distance`
//!    ([`mvp_ir::recurrence::longest_paths`], the one pass behind
//!    `mvp_ir`'s `RecMII`) diverges;
//! 3. **exhausted search** — the branch-and-bound explored every placement
//!    within the horizon (with conflict-driven backjumping and
//!    cluster/bus-symmetry breaking; see the `search` module's docs).
//!
//! # Example
//!
//! ```
//! use mvp_exact::{solve, ExactOptions};
//! use mvp_core::{ModuloScheduler, RmcaScheduler};
//! use mvp_ir::Loop;
//! use mvp_machine::presets;
//!
//! # fn main() -> Result<(), mvp_core::ScheduleError> {
//! let mut b = Loop::builder("demo");
//! let i = b.dimension("I", 64);
//! let a = b.auto_array("A", 4096);
//! let ld = b.load("LD", b.array_ref(a).stride(i, 8).build());
//! let f = b.fp_op("F");
//! let st = b.store("ST", b.array_ref(a).stride(i, 8).build());
//! b.data_edge(ld, f, 0);
//! b.data_edge(f, st, 0);
//! let l = b.build().expect("valid loop");
//!
//! let machine = presets::two_cluster();
//! let outcome = solve(&l, &machine, &ExactOptions::new())?;
//! let heuristic = RmcaScheduler::new().schedule(&l, &machine)?;
//! assert!(heuristic.ii() >= outcome.lower_bound);
//! println!(
//!     "heuristic II = {}, exact: {} (gap {:.0}%)",
//!     heuristic.ii(),
//!     outcome,
//!     100.0 * outcome.optimality_gap_of(heuristic.ii())
//! );
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod options;
pub mod outcome;
pub mod propagate;
mod sat_backend;
pub mod scheduler;
mod search;

pub use options::ExactOptions;
pub use outcome::{ExactOutcome, IiProbe, IiVerdict};
pub use scheduler::{solve, solve_with, ExactBackend, ExactScheduler};

#[cfg(test)]
mod tests {
    use super::*;
    use mvp_core::{ModuloScheduler, RmcaScheduler};
    use mvp_machine::presets;

    #[test]
    fn the_oracle_never_exceeds_a_heuristic() {
        let mut b = mvp_ir::Loop::builder("tiny");
        let x = b.fp_op("X");
        let y = b.fp_op("Y");
        b.data_edge(x, y, 0);
        let l = b.build().unwrap();
        let machine = presets::two_cluster();
        let outcome = solve(&l, &machine, &ExactOptions::new()).unwrap();
        let heuristic = RmcaScheduler::new().schedule(&l, &machine).unwrap();
        assert!(heuristic.ii() >= outcome.lower_bound);
        assert!(outcome.proved_optimal);
    }
}
