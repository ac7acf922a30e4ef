//! The branch-and-bound search for one fixed initiation interval.
//!
//! A fixed-II probe is a *satisfaction* problem: find, for every operation, a
//! (cluster, start cycle) pair — plus a (start cycle, bus) pair for every
//! cross-cluster register transfer — such that every rule of the legality
//! oracle holds. The search branches over operations in a
//! most-constrained-first order and prunes with:
//!
//! * **static windows** from [`crate::propagate::windows`] (constraint
//!   propagation over the dependence difference constraints),
//! * **dynamic windows** tightened by already-placed neighbours (including
//!   the register-bus latency once both clusters are known),
//! * **modulo resource tables** for functional units and register buses,
//! * a monotone **register-pressure lower bound** over the placed prefix,
//! * **conflict-driven backjumping**: every dead end records the deepest
//!   decision level implicated (binding window bounds, functional-unit or
//!   bus occupants); when a subtree's failure provably does not involve the
//!   current level's choice, the search jumps straight back to the deepest
//!   implicated level instead of re-enumerating unrelated siblings. Failures
//!   whose causes cannot be fully attributed (register pressure, options
//!   pruned by symmetry breaking) fall back to chronological backtracking,
//!   which keeps the jump always sound,
//! * **symmetry breaking** over interchangeable clusters and buses (a
//!   placement may only open cluster `max-used + 1`; likewise for buses),
//! * a **time-shift dominance rule** (the ROADMAP's "normalize the minimum
//!   start cycle into `[0, II)`", strengthened to an exact anchor): shifting
//!   *every* start cycle of a legal schedule down by the same amount
//!   rotates all modulo rows in lockstep — row *differences*, and therefore
//!   every functional-unit conflict, bus overlap, dependence distance and
//!   register lifetime, are preserved — so any legal schedule can be
//!   shifted until its minimum start cycle is exactly 0. The search only
//!   enumerates such *normalized* schedules: once the last operation whose
//!   static window still reaches cycle 0 is about to be placed with no
//!   cycle-0 anchor committed yet, its candidate range is capped to the
//!   anchor cycle itself. Every schedule shape explored at an un-anchored
//!   offset would be a shifted duplicate of one explored at offset 0.
//!
//! # What one node costs
//!
//! A node is charged for every placement attempt (one candidate start cycle
//! of one operation in one cluster) and for every transfer start cycle
//! tried (all buses of that start are one node). A visit to a decision
//! level whose window is empty in every cluster is not charged. The budget
//! counts search effort, not time, so the same nodes and the same verdicts
//! follow from a kernel that makes each node cheaper. Per visit, one walk
//! over the operation's edges gives its window in every open cluster; per
//! placement, the kernel's reservation, its pressure delta and the implied
//! transfers (into a buffer kept per decision level) each cost O(degree);
//! the symmetry caps read use counts, O(clusters) and O(buses).
//!
//! Exceeding the shared node budget aborts the probe with
//! [`FixedIiOutcome::Budget`] (an *unknown*, never an infeasibility claim).

use crate::options::ExactOptions;
use crate::propagate::{windows, Windows};
use mvp_core::lifetime;
use mvp_core::schedule::{Communication, PlacedOp};
use mvp_ir::OpId;
use mvp_resmodel::{NeighbourBounds, PartialSchedule, PlaceError, ResModel, Token, TransferPair};

/// Result of one fixed-II probe.
#[derive(Debug)]
pub(crate) enum FixedIiOutcome {
    /// A legal schedule exists; the placements and transfers are returned
    /// for [`crate::scheduler`] to assemble into a `Schedule`.
    Feasible {
        /// Per-operation placements, in operation-id order.
        ops: Vec<PlacedOp>,
        /// Register-bus transfers.
        comms: Vec<Communication>,
    },
    /// No legal schedule exists at this II (within the search horizon).
    Infeasible,
    /// The node budget ran out before the probe was decided.
    Budget,
}

/// Result of the subtree rooted at one decision level.
///
/// `Fail(t)` carries the backjump contract: *every* choice at this level
/// fails, and the conflict responsible involves only decision levels `≤ t`
/// (`t < level`; `-1` means the failure is independent of all decisions, so
/// the whole probe is infeasible).
enum Step {
    Solved,
    Budget,
    Fail(i64),
}

/// Result of the transfer enumeration belonging to one candidate placement.
enum TransferStep {
    Solved,
    Budget,
    /// This candidate placement fails; the conflict involves the current
    /// level's choice plus levels `≤ t`.
    CandidateFail(i64),
    /// A deeper subtree failed with a conflict that provably does not
    /// involve the current level (`t < level`): propagate immediately.
    DeepFail(i64),
}

/// A complete solution: per-operation placements plus the transfer records.
type RawSolution = (Vec<PlacedOp>, Vec<Communication>);

/// Operation order the search branches in: tightest static window first
/// (fail-first), breaking ties towards higher-degree and lower-id
/// operations. The order is fixed per probe — conflict-driven backjumping
/// relies on stable decision levels.
fn branch_order(p: &ResModel<'_, '_>, window_width: &[i64]) -> Vec<OpId> {
    let mut degree = vec![0usize; p.num_ops()];
    for e in p.l.edges() {
        degree[e.src.index()] += 1;
        degree[e.dst.index()] += 1;
    }
    let mut order: Vec<OpId> = p.l.op_ids().collect();
    order.sort_by_key(|op| {
        (
            window_width[op.index()],
            -(degree[op.index()] as i64),
            op.index(),
        )
    });
    order
}

struct Searcher<'p, 'l, 'm> {
    p: &'p ResModel<'l, 'm>,
    ii: u32,
    win: &'p Windows,
    /// Operations in branch order; position = decision level.
    order: Vec<OpId>,
    /// The shared incremental constraint kernel: placements, functional-unit
    /// and bus occupancy, the transfer stack and the monotone MaxLive lower
    /// bound all live here. Occupant tokens are decision levels, so every
    /// conflict the kernel reports names the deepest implicated level for
    /// backjumping.
    ps: PartialSchedule<'p, 'l, 'm>,
    /// Per decision level, the dependence window of its operation in each
    /// cluster (`num_clusters` entries per level), filled by one edge walk
    /// when the level is visited.
    bounds: Vec<NeighbourBounds>,
    /// Per decision level, the transfers its current candidate implies; the
    /// buffers keep their capacity, so placements allocate nothing once warm.
    pairs: Vec<Vec<TransferPair>>,
    /// Placed operations anchored at start cycle 0. The time-shift
    /// dominance rule keeps this above zero in every complete assignment.
    stage0_placed: usize,
    /// Unplaced operations whose *static* window still admits cycle 0
    /// (`earliest == 0`). Dynamic windows only tighten, so this is a sound
    /// over-approximation of the ops that could still anchor the schedule.
    stage0_capable_unplaced: usize,
    nodes: u64,
    /// Conflict-driven backjumps taken (a `DeepFail` propagated past a
    /// whole decision level).
    backjumps: u64,
    /// Levels whose candidate range was capped by the time-shift dominance
    /// anchor.
    dominance_cuts: u64,
    budget: u64,
    solution: Option<RawSolution>,
}

impl<'p, 'l, 'm> Searcher<'p, 'l, 'm> {
    fn new(p: &'p ResModel<'l, 'm>, ii: u32, win: &'p Windows, options: &ExactOptions) -> Self {
        let order = branch_order(p, &win.widths());
        Self {
            p,
            ii,
            win,
            order,
            ps: PartialSchedule::new(p, ii),
            bounds: vec![NeighbourBounds::default(); p.num_ops() * p.machine.num_clusters()],
            pairs: vec![Vec::new(); p.num_ops()],
            stage0_placed: 0,
            stage0_capable_unplaced: win.earliest.iter().filter(|&&e| e == 0).count(),
            nodes: 0,
            backjumps: 0,
            dominance_cuts: 0,
            budget: options.node_budget,
            solution: None,
        }
    }

    fn charge_node(&mut self) -> bool {
        self.nodes += 1;
        self.nodes <= self.budget
    }

    /// Enumerates (start cycle, bus) choices for `pairs[idx..]`, recursing
    /// into the next decision level once every transfer is reserved.
    /// `level` is the decision level the transfers belong to.
    fn place_transfers(
        &mut self,
        level: usize,
        pairs: &[TransferPair],
        idx: usize,
    ) -> TransferStep {
        if idx == pairs.len() {
            return match self.dfs(level + 1) {
                Step::Solved => TransferStep::Solved,
                Step::Budget => TransferStep::Budget,
                Step::Fail(t) if t < level as i64 => TransferStep::DeepFail(t),
                Step::Fail(_) => TransferStep::CandidateFail(level as i64 - 1),
            };
        }
        let pair = pairs[idx];
        let ii = i64::from(self.ii);

        let Some(num_buses) = self.p.num_buses else {
            // Unbounded bus set: no rule constrains the transfer, so one
            // canonical choice (earliest start, bus 0) is complete.
            let id = self
                .ps
                .reserve_transfer_at(
                    pair.src,
                    pair.dst,
                    pair.from,
                    pair.to,
                    pair.lo,
                    0,
                    level as Token,
                )
                .expect("unbounded bus sets always admit a transfer");
            let step = self.place_transfers(level, pairs, idx + 1);
            self.ps.release_transfer(id);
            return step;
        };

        if i64::from(self.p.bus_latency) > ii {
            // A transfer longer than the II overlaps its own next-iteration
            // instance on any finite bus (the validator's unconditional
            // `BusOverlap`); only co-locating the endpoints — a different
            // cluster choice here or at the neighbour — avoids the transfer.
            return TransferStep::CandidateFail(i64::from(pair.neighbour_token));
        }

        let mut fail_target = i64::from(pair.neighbour_token);
        let hi = pair.hi.min(pair.lo + ii - 1); // only II distinct start rows exist

        // Bus symmetry breaking: a transfer may open at most bus
        // `max-used + 1`. Every reservation below is released before the
        // next start is tried, so the cap is the same for every start.
        let allowed = self.ps.max_used_bus().map_or(1, |b| b + 2).min(num_buses);
        let conservative = allowed < num_buses && pair.lo <= hi;
        for start in pair.lo..=hi {
            if !self.charge_node() {
                return TransferStep::Budget;
            }
            for bus in 0..allowed {
                let id = match self.ps.reserve_transfer_at(
                    pair.src,
                    pair.dst,
                    pair.from,
                    pair.to,
                    start,
                    bus,
                    level as Token,
                ) {
                    Err(in_way) => {
                        if let Some(level_in_way) = in_way {
                            fail_target = fail_target.max(i64::from(level_in_way));
                        }
                        continue;
                    }
                    Ok(id) => id,
                };
                let step = self.place_transfers(level, pairs, idx + 1);
                self.ps.release_transfer(id);
                match step {
                    TransferStep::Solved => return TransferStep::Solved,
                    TransferStep::Budget => return TransferStep::Budget,
                    TransferStep::DeepFail(t) => return TransferStep::DeepFail(t),
                    TransferStep::CandidateFail(m) => fail_target = fail_target.max(m),
                }
            }
        }
        if conservative {
            fail_target = fail_target.max(level as i64 - 1);
        }
        TransferStep::CandidateFail(fail_target.min(level as i64 - 1))
    }

    fn dfs(&mut self, level: usize) -> Step {
        if level == self.p.num_ops() {
            // Complete assignment: apply the final MaxLive register-pressure
            // rule exactly as the validator recomputes it.
            debug_assert!(
                self.stage0_placed > 0,
                "the time-shift dominance rule admits only normalized schedules"
            );
            let ops = self.ps.placed_ops();
            let pressure =
                lifetime::register_pressure(self.p.l, &ops, self.ii, self.p.machine.num_clusters());
            if pressure
                .iter()
                .zip(&self.p.register_file)
                .any(|(&used, &cap)| used > cap)
            {
                return Step::Fail(level as i64 - 1);
            }
            self.solution = Some((ops, self.ps.communications()));
            return Step::Solved;
        }

        let op = self.order[level];
        let assumed_lat = self.p.latency[op.index()];
        let num_clusters = self.p.machine.num_clusters();
        let mut fail_target = -1i64;
        let mut conservative = false;

        // Time-shift dominance: when no operation is anchored at cycle 0
        // yet and no *other* unplaced operation's window reaches it, this
        // operation is the schedule's last possible anchor — candidates
        // above cycle 0 would only enumerate shifted copies of schedules
        // explored with the anchor committed, so they are pruned
        // (conservatively attributed, like the cluster/bus symmetry
        // breaking).
        let capable = self.win.earliest[op.index()] == 0;
        let must_take_stage0 =
            self.stage0_placed == 0 && self.stage0_capable_unplaced - usize::from(capable) == 0;
        if must_take_stage0 {
            conservative = true;
            self.dominance_cuts += 1;
        }

        let cluster_cap = if self.p.homogeneous {
            (self.ps.max_used_cluster().map_or(0, |c| c + 1) + 1).min(num_clusters)
        } else {
            num_clusters
        };
        if cluster_cap < num_clusters {
            conservative = true; // symmetry breaking pruned cluster labels
        }

        // Dynamic bounds: the static window tightened by already-placed
        // neighbours with the exact (bus-aware) edge weights, for every
        // open cluster in one walk over the operation's edges. Every
        // candidate below is released before the next cluster is tried, so
        // the windows stay valid for the whole loop.
        let level_bounds = level * num_clusters;
        self.ps.neighbour_bounds_per_cluster(
            op,
            assumed_lat,
            Some(self.win.earliest[op.index()]),
            Some(self.win.latest[op.index()]),
            &mut self.bounds[level_bounds..level_bounds + cluster_cap],
        );

        for cluster in 0..cluster_cap {
            let kind = self.p.fu_kind[op.index()].index();
            if self.p.fu_count[cluster][kind] == 0 {
                continue; // no unit of this kind: independent of any decision
            }
            // The neighbours that tightened the window are implicated even
            // when it stays non-empty: the candidates they pruned were never
            // tried, so any exhaustion below must not backjump past them.
            // (The culprit is `None` when only the static window applies.)
            let bounds = self.bounds[level_bounds + cluster];
            let lo = bounds.lo.expect("initial window bounds are Some");
            let mut hi = bounds.hi.expect("initial window bounds are Some");
            fail_target = fail_target.max(bounds.culprit.map_or(-1, i64::from));
            if must_take_stage0 {
                hi = hi.min(0);
            }
            if lo > hi {
                continue;
            }
            for t in lo..=hi {
                if !self.charge_node() {
                    return Step::Budget;
                }
                match self
                    .ps
                    .try_reserve_op(op, cluster, t, assumed_lat, false, level as Token)
                {
                    Err(PlaceError::FuBusy { conflict }) => {
                        if let Some(level_in_way) = conflict {
                            fail_target = fail_target.max(i64::from(level_in_way));
                        }
                        continue;
                    }
                    Err(e) => unreachable!("hit-latency placements cannot fail with {e:?}"),
                    Ok(()) => {}
                }
                self.stage0_capable_unplaced -= usize::from(capable);
                let takes_stage0 = t == 0;
                self.stage0_placed += usize::from(takes_stage0);

                let step = if self.ps.pressure_exceeded() {
                    // Global constraint: the culprit set is unknowable, so
                    // fall back to chronological attribution.
                    TransferStep::CandidateFail(level as i64 - 1)
                } else {
                    let mut pairs = std::mem::take(&mut self.pairs[level]);
                    self.ps.transfer_pairs(op, &mut pairs);
                    let step = self.place_transfers(level, &pairs, 0);
                    self.pairs[level] = pairs;
                    step
                };

                self.stage0_placed -= usize::from(takes_stage0);
                self.stage0_capable_unplaced += usize::from(capable);
                self.ps.release_op(op);

                match step {
                    TransferStep::Solved => return Step::Solved,
                    TransferStep::Budget => return Step::Budget,
                    // The conflict provably excludes this level: no other
                    // candidate here can fix it either — backjump.
                    TransferStep::DeepFail(t) => {
                        self.backjumps += 1;
                        return Step::Fail(t);
                    }
                    TransferStep::CandidateFail(m) => fail_target = fail_target.max(m),
                }
            }
        }

        if conservative {
            fail_target = fail_target.max(level as i64 - 1);
        }
        Step::Fail(fail_target.min(level as i64 - 1))
    }
}

/// Runs one fixed-II probe: certificates first (resource counts, positive
/// dependence cycles), then the exhaustive search. `nodes_used` is
/// incremented by the nodes this probe consumed.
pub(crate) fn solve_fixed_ii(
    p: &ResModel<'_, '_>,
    ii: u32,
    options: &ExactOptions,
    nodes_used: &mut u64,
) -> FixedIiOutcome {
    if ii == 0 || p.resource_infeasible(ii) {
        return FixedIiOutcome::Infeasible;
    }
    let Some(win) = windows(p, ii, options.horizon_stages) else {
        return FixedIiOutcome::Infeasible;
    };
    let mut searcher = Searcher::new(p, ii, &win, options);
    let step = searcher.dfs(0);
    *nodes_used += searcher.nodes;
    // One registry flush per probe; the search loop itself touches no
    // atomics.
    mvp_trace::counter_handle!("exact.bnb.nodes").add(searcher.nodes);
    mvp_trace::counter_handle!("exact.bnb.backjumps").add(searcher.backjumps);
    mvp_trace::counter_handle!("exact.bnb.dominance_cuts").add(searcher.dominance_cuts);
    match step {
        Step::Solved => {
            let (ops, comms) = searcher
                .solution
                .expect("solved searches record a solution");
            FixedIiOutcome::Feasible { ops, comms }
        }
        Step::Budget => FixedIiOutcome::Budget,
        Step::Fail(_) => FixedIiOutcome::Infeasible,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvp_ir::Loop;
    use mvp_machine::presets;

    fn probe(l: &Loop, machine: &mvp_machine::MachineConfig, ii: u32) -> FixedIiOutcome {
        let p = ResModel::new(l, machine).unwrap();
        let mut nodes = 0;
        solve_fixed_ii(&p, ii, &ExactOptions::new(), &mut nodes)
    }

    fn chain() -> Loop {
        let mut b = Loop::builder("chain");
        let i = b.dimension("I", 64);
        let a = b.auto_array("A", 4096);
        let ld = b.load("LD", b.array_ref(a).stride(i, 8).build());
        let f = b.fp_op("F");
        let st = b.store("ST", b.array_ref(a).stride(i, 8).build());
        b.data_edge(ld, f, 0);
        b.data_edge(f, st, 0);
        b.build().unwrap()
    }

    #[test]
    fn feasible_probes_return_placements_for_every_op() {
        let l = chain();
        let machine = presets::two_cluster();
        match probe(&l, &machine, 1) {
            FixedIiOutcome::Feasible { ops, .. } => {
                assert_eq!(ops.len(), 3);
                assert!(ops.iter().all(|p| p.cluster < 2));
                assert!(ops.iter().all(|p| p.row == 0 && !p.miss_scheduled));
            }
            other => panic!("expected feasible at II=1, got {other:?}"),
        }
    }

    #[test]
    fn recurrence_bound_is_certified_infeasible() {
        let mut b = Loop::builder("rec");
        let x = b.fp_op("X");
        let y = b.fp_op("Y");
        b.data_edge(x, y, 0);
        b.data_edge(y, x, 1);
        let l = b.build().unwrap();
        let machine = presets::unified();
        assert!(matches!(probe(&l, &machine, 3), FixedIiOutcome::Infeasible));
        assert!(matches!(
            probe(&l, &machine, 4),
            FixedIiOutcome::Feasible { .. }
        ));
    }

    #[test]
    fn resource_bound_is_certified_infeasible() {
        // 5 fp ops on the 4-cluster machine (4 fp units in total): II=1 is
        // certified infeasible by counting, II=2 is feasible.
        let mut b = Loop::builder("wide");
        for k in 0..5 {
            b.fp_op(format!("F{k}"));
        }
        let l = b.build().unwrap();
        let machine = presets::four_cluster();
        assert!(matches!(probe(&l, &machine, 1), FixedIiOutcome::Infeasible));
        assert!(matches!(
            probe(&l, &machine, 2),
            FixedIiOutcome::Feasible { .. }
        ));
    }

    #[test]
    fn tiny_budget_reports_budget_not_infeasible() {
        let l = chain();
        let machine = presets::two_cluster();
        let p = ResModel::new(&l, &machine).unwrap();
        let mut nodes = 0;
        let out = solve_fixed_ii(&p, 1, &ExactOptions::new().with_node_budget(1), &mut nodes);
        assert!(matches!(out, FixedIiOutcome::Budget), "{out:?}");
        assert!(nodes >= 1);
    }

    #[test]
    fn feasible_probes_are_anchored_at_cycle_zero() {
        // The time-shift dominance rule admits only normalized schedules:
        // some operation starts at cycle 0 in every solution, at every II
        // (shifted copies are pruned, and with them the bulk of the search
        // space of multi-stage probes).
        let l = chain();
        for machine in [
            presets::unified(),
            presets::two_cluster(),
            presets::motivating_example_machine(),
        ] {
            for ii in 1..=4 {
                if let FixedIiOutcome::Feasible { ops, .. } = probe(&l, &machine, ii) {
                    let min_cycle = ops.iter().map(|p| p.cycle).min().unwrap();
                    assert_eq!(min_cycle, 0, "{} at II={ii}", machine.name);
                }
            }
        }
    }

    #[test]
    fn cross_cluster_recurrences_account_for_the_bus_latency() {
        // Two fp chains too wide for one cluster of the motivating machine
        // (1 fp unit per cluster, 1 register bus of latency 2): a recurrence
        // X -> Y -> X (distance 1) with both ops forced into different
        // clusters by a third fp op pays 2 bus hops. At II=4 the recurrence
        // fits co-located (2+2), and the search must find that placement
        // rather than a split one.
        let mut b = Loop::builder("bus-rec");
        let x = b.fp_op("X");
        let y = b.fp_op("Y");
        b.data_edge(x, y, 0);
        b.data_edge(y, x, 1);
        let l = b.build().unwrap();
        let machine = presets::motivating_example_machine();
        assert!(matches!(probe(&l, &machine, 3), FixedIiOutcome::Infeasible));
        match probe(&l, &machine, 4) {
            FixedIiOutcome::Feasible { ops, comms } => {
                // The only way to meet the 4-cycle budget is co-location.
                assert_eq!(ops[0].cluster, ops[1].cluster);
                assert!(comms.is_empty());
            }
            other => panic!("expected feasible at II=4, got {other:?}"),
        }
    }
}
