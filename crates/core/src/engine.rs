//! The unified assign-and-schedule engine shared by all schedulers.
//!
//! Both the baseline scheduler of \[22\] and the RMCA scheduler of the paper
//! follow the same skeleton (Figure 4): sort the nodes, then for each node in
//! order pick a cluster *and* a cycle in a single step, inserting the
//! register-bus transfers that the chosen cluster implies. When a node cannot
//! be placed (no issue slot, saturated buses, not enough registers) the whole
//! attempt is abandoned and the initiation interval is increased by one. The
//! two schedulers differ only in the [`ClusterPolicy`] used to pick among the
//! feasible clusters and are thin wrappers around [`schedule_with_policy`].
//!
//! Placement uses the swing-modulo-scheduling discipline: a node whose
//! already-placed neighbours are all predecessors is scheduled as early as
//! possible; a node whose placed neighbours are all successors is scheduled
//! as late as possible; a node squeezed between both gets the intersection
//! window. Cycles are therefore computed as signed offsets and the whole
//! schedule is shifted by a multiple of the II at the end so that the final
//! cycles are non-negative (which keeps every modulo-reservation row intact).
//!
//! All placement *legality* — functional-unit rows, dependence windows,
//! register-bus booking, the final MaxLive export — flows through the shared
//! incremental constraint kernel ([`mvp_resmodel::PartialSchedule`]); this
//! module owns only the search strategy (node order, cluster policy, the
//! candidate-cycle preference and the II escalation loop). Candidate
//! feasibility probes are `place`/`unplace` round trips on the kernel, so
//! the engine carries no reservation tables of its own.

use crate::error::ScheduleError;
use crate::options::SchedulerOptions;
use crate::schedule::Schedule;
use mvp_cache::LocalityAnalysis;
use mvp_ir::{mii, ordering, recurrence, EdgeKind, Loop, OpId};
use mvp_machine::{ClusterId, MachineConfig};
use mvp_resmodel::{PartialSchedule, PlaceHandle, ResModel};

/// Everything a [`ClusterPolicy`] may consult when choosing a cluster.
#[derive(Debug)]
pub struct SelectionContext<'l, 'a> {
    /// The loop being scheduled.
    pub l: &'l Loop,
    /// The target machine.
    pub machine: &'a MachineConfig,
    /// The initiation interval currently being attempted.
    pub ii: u32,
    /// Operations already assigned to each cluster.
    pub cluster_ops: &'a [Vec<OpId>],
    /// Memory operations already assigned to each cluster.
    pub cluster_mem_ops: &'a [Vec<OpId>],
    /// The locality analysis of the loop (CME-style miss estimation).
    pub analysis: &'a LocalityAnalysis<'l>,
}

/// How a scheduler chooses the cluster of an operation among the clusters in
/// which the operation can currently be placed.
pub trait ClusterPolicy {
    /// Name recorded in the resulting [`Schedule`].
    fn name(&self) -> &'static str;

    /// Chooses one of `feasible` (never empty) for `op`.
    fn choose_cluster(
        &self,
        ctx: &SelectionContext<'_, '_>,
        op: OpId,
        feasible: &[ClusterId],
    ) -> ClusterId;
}

/// Number of register-value edges with exactly one endpoint inside
/// `assigned ∪ {extra}` — the "output edges" of the cluster's dependence
/// subgraph used by the baseline heuristic of \[22\].
#[must_use]
pub fn cut_edges(l: &Loop, assigned: &[OpId], extra: Option<OpId>) -> i64 {
    let in_set = |x: OpId| assigned.contains(&x) || extra == Some(x);
    let mut cut = 0i64;
    for e in l.edges() {
        if e.kind != EdgeKind::Data {
            continue;
        }
        if in_set(e.src) != in_set(e.dst) {
            cut += 1;
        }
    }
    cut
}

/// Profit (reduction in cut edges) of adding `op` to `cluster`'s assigned
/// set: `cut(before) − cut(after)`. Larger is better.
#[must_use]
pub fn register_edge_profit(ctx: &SelectionContext<'_, '_>, op: OpId, cluster: ClusterId) -> i64 {
    let assigned = &ctx.cluster_ops[cluster];
    cut_edges(ctx.l, assigned, None) - cut_edges(ctx.l, assigned, Some(op))
}

/// Tie-break key used after the primary heuristic: prefer the less-loaded
/// cluster, then the lower cluster index (deterministic).
#[must_use]
pub fn balance_key(ctx: &SelectionContext<'_, '_>, cluster: ClusterId) -> (i64, i64) {
    (-(ctx.cluster_ops[cluster].len() as i64), -(cluster as i64))
}

/// Runs the assign-and-schedule driver with the given policy, searching the
/// initiation interval upwards from the minimum II.
///
/// # Errors
///
/// Returns [`ScheduleError::MissingResources`] when the loop uses a
/// functional-unit kind the machine lacks, [`ScheduleError::Machine`] when
/// the machine is invalid and [`ScheduleError::NoFeasibleIi`] when no II in
/// the search range admits a schedule.
pub fn schedule_with_policy<P: ClusterPolicy>(
    l: &Loop,
    machine: &MachineConfig,
    options: &SchedulerOptions,
    policy: &P,
) -> Result<Schedule, ScheduleError> {
    let model = ResModel::new(l, machine)?;
    let min_ii = mii::minimum_ii(l, machine);
    if min_ii == u32::MAX {
        return Err(ScheduleError::MissingResources {
            reason: "the loop needs a functional-unit kind the machine does not provide".into(),
        });
    }
    let analysis = LocalityAnalysis::new(l);
    let base_order =
        ordering::schedule_order(l, |op| l.op(op).kind.hit_latency(&machine.latencies));
    let max_ii = min_ii.saturating_add(options.max_ii_slack);

    // First pass: exactly the paper's driver — keep the node ordering fixed
    // and increase the II on any placement failure.
    for ii in min_ii..=max_ii {
        if let Ok(schedule) = try_ii(&model, options, policy, &analysis, &base_order, ii) {
            return Ok(schedule);
        }
    }

    // Rescue pass: a node whose window is pinched between two already-placed
    // distance-0 neighbours stays infeasible no matter how large the II
    // grows, so a few re-ordering attempts (moving the blocked node before
    // its placed neighbours) are tried per II before giving up. Ordinary
    // loops never reach this pass.
    for ii in min_ii..=max_ii {
        let mut order = base_order.clone();
        for attempt in 0..4 {
            match try_ii(&model, options, policy, &analysis, &order, ii) {
                Ok(schedule) => return Ok(schedule),
                Err(Some(blocked)) if attempt < 3 => {
                    if !move_before_neighbours(l, &mut order, blocked) {
                        break;
                    }
                }
                Err(_) => break,
            }
        }
    }
    Err(ScheduleError::NoFeasibleIi { min_ii, max_ii })
}

/// Moves `op` in `order` to just before its earliest-ordered graph neighbour.
/// Returns false when `op` is already before all of its neighbours (nothing
/// to improve).
fn move_before_neighbours(l: &Loop, order: &mut Vec<OpId>, op: OpId) -> bool {
    let pos = order
        .iter()
        .position(|&o| o == op)
        .expect("blocked op is part of the order");
    let mut earliest_neighbour = None;
    for e in l.preds(op).chain(l.succs(op)) {
        for n in [e.src, e.dst] {
            if n == op {
                continue;
            }
            if let Some(p) = order.iter().position(|&o| o == n) {
                if p < pos {
                    earliest_neighbour =
                        Some(earliest_neighbour.map_or(p, |cur: usize| cur.min(p)));
                }
            }
        }
    }
    match earliest_neighbour {
        Some(target) if target < pos => {
            order.remove(pos);
            order.insert(target, op);
            true
        }
        _ => false,
    }
}

/// Attempts to schedule the whole loop at a fixed `ii`. On failure returns
/// `Err(Some(op))` naming the operation that could not be placed, or
/// `Err(None)` when the register-pressure check failed.
fn try_ii<P: ClusterPolicy>(
    model: &ResModel<'_, '_>,
    options: &SchedulerOptions,
    policy: &P,
    analysis: &LocalityAnalysis<'_>,
    order: &[OpId],
    ii: u32,
) -> Result<Schedule, Option<OpId>> {
    let l = model.l;
    let machine = model.machine;
    let mut ps = PartialSchedule::new(model, ii);
    let mut cluster_ops: Vec<Vec<OpId>> = vec![Vec::new(); machine.num_clusters()];
    let mut cluster_mem_ops: Vec<Vec<OpId>> = vec![Vec::new(); machine.num_clusters()];
    let miss_latency = machine.load_miss_latency();

    for &op in order {
        let hit_lat = l.op(op).kind.hit_latency(&machine.latencies);

        // Step 1: find the clusters in which the operation can be placed at
        // all (using the optimistic hit latency) — a place/unplace round
        // trip on the kernel per candidate cluster.
        let mut feasible: Vec<ClusterId> = Vec::new();
        for c in machine.cluster_ids() {
            if let Some(handle) = try_place(&mut ps, op, c, hit_lat, false) {
                ps.unplace(handle);
                feasible.push(c);
            }
        }
        if feasible.is_empty() {
            return Err(Some(op));
        }

        // Step 2: pick the cluster.
        let cluster = if feasible.len() == 1 {
            feasible[0]
        } else {
            let ctx = SelectionContext {
                l,
                machine,
                ii,
                cluster_ops: &cluster_ops,
                cluster_mem_ops: &cluster_mem_ops,
                analysis,
            };
            policy.choose_cluster(&ctx, op, &feasible)
        };

        // Step 3: decide whether to schedule a load with the cache-miss
        // latency (binding prefetching), Section 4.3.
        let mut assumed_lat = hit_lat;
        let mut miss_scheduled = false;
        if l.op(op).is_load() && options.miss_threshold < 1.0 {
            let geometry = machine.cluster(cluster).cache;
            let ratio = analysis.miss_ratio(geometry, op, &cluster_mem_ops[cluster]);
            if options.wants_miss_latency(ratio) {
                let extra = miss_latency.saturating_sub(hit_lat);
                let slack = recurrence::latency_slack(l, op, ii, |o| {
                    ps.placement(o)
                        .map(|p| p.latency)
                        .unwrap_or_else(|| l.op(o).kind.hit_latency(&machine.latencies))
                });
                if extra <= slack {
                    assumed_lat = miss_latency;
                    miss_scheduled = true;
                }
            }
        }

        // Step 4: place for real, falling back to the hit latency if the
        // miss latency does not fit in this cluster. The handle is dropped:
        // this placement is committed, never undone.
        let _committed = try_place(&mut ps, op, cluster, assumed_lat, miss_scheduled)
            .or_else(|| {
                if miss_scheduled {
                    try_place(&mut ps, op, cluster, hit_lat, false)
                } else {
                    None
                }
            })
            .ok_or(Some(op))?;

        cluster_ops[cluster].push(op);
        if l.op(op).is_memory() {
            cluster_mem_ops[cluster].push(op);
        }
    }

    // The kernel exporter shifts cycles to be non-negative (by a multiple of
    // the II, so rows are preserved) and recomputes the MaxLive pressure.
    let schedule = ps.freeze(policy.name());
    for (c, &p) in schedule.register_pressure().iter().enumerate() {
        if p > machine.cluster(c).register_file_size as u32 {
            return Err(None);
        }
    }
    Ok(schedule)
}

/// Tries to place `op` in `cluster` with the given assumed latency: computes
/// the dependence window from already-placed neighbours, enumerates the
/// candidate cycles in swing-modulo-scheduling preference order, and asks
/// the kernel to commit the first candidate whose functional-unit slot and
/// register-bus transfers all fit. Returns the kernel handle on success
/// (pass it to `unplace` to undo a probe); on failure the kernel is left
/// unchanged.
fn try_place(
    ps: &mut PartialSchedule<'_, '_, '_>,
    op: OpId,
    cluster: ClusterId,
    assumed_lat: u32,
    miss_scheduled: bool,
) -> Option<PlaceHandle> {
    let ii_i = i64::from(ps.ii());
    let bounds = ps.neighbour_bounds(op, cluster, assumed_lat, None, None);

    // Candidate cycles, in preference order (swing-modulo-scheduling style).
    let candidates: Vec<i64> = match (bounds.lo, bounds.hi) {
        (Some(e), Some(lt)) => {
            if lt < e {
                return None;
            }
            (e..=lt.min(e + ii_i - 1)).collect()
        }
        (Some(e), None) => (e..=e + ii_i - 1).collect(),
        (None, Some(lt)) => (lt - ii_i + 1..=lt).rev().collect(),
        (None, None) => (0..=ii_i - 1).collect(),
    };

    // The window is the same for every candidate cycle (no neighbour moves
    // between probes), so it is computed once above and carried into each
    // attempt instead of letting `place` re-derive it per candidate.
    for t in candidates {
        if let Ok(handle) = ps.place_in_window(
            op,
            cluster,
            t,
            assumed_lat,
            miss_scheduled,
            op.raw(),
            &bounds,
        ) {
            return Some(handle);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvp_machine::presets;

    /// A policy that always picks the first feasible cluster; used to test the
    /// engine machinery independently of the heuristics.
    struct FirstFit;

    impl ClusterPolicy for FirstFit {
        fn name(&self) -> &'static str {
            "first-fit"
        }
        fn choose_cluster(
            &self,
            _ctx: &SelectionContext<'_, '_>,
            _op: OpId,
            feasible: &[ClusterId],
        ) -> ClusterId {
            feasible[0]
        }
    }

    fn simple_chain() -> Loop {
        let mut b = Loop::builder("chain");
        let i = b.dimension("I", 64);
        let a = b.auto_array("A", 4096);
        let c = b.auto_array("C", 4096);
        let ld = b.load("LD", b.array_ref(a).stride(i, 8).build());
        let f1 = b.fp_op("F1");
        let f2 = b.fp_op("F2");
        let st = b.store("ST", b.array_ref(c).stride(i, 8).build());
        b.data_edge(ld, f1, 0);
        b.data_edge(f1, f2, 0);
        b.data_edge(f2, st, 0);
        b.build().unwrap()
    }

    /// Checks every dependence of the loop against the flat schedule,
    /// including the bus latency for cross-cluster register values.
    fn assert_dependences_respected(l: &Loop, s: &Schedule, machine: &MachineConfig) {
        let ii = i64::from(s.ii());
        for e in l.edges() {
            let p = s.placement(e.src);
            let d = s.placement(e.dst);
            let lat = i64::from(e.delay(p.assumed_latency));
            let comm = if e.kind == EdgeKind::Data && p.cluster != d.cluster {
                i64::from(machine.register_buses.latency)
            } else {
                0
            };
            assert!(
                i64::from(d.cycle) + ii * i64::from(e.distance) >= i64::from(p.cycle) + lat + comm,
                "dependence {e} violated: src cycle {}, dst cycle {}",
                p.cycle,
                d.cycle
            );
        }
    }

    #[test]
    fn schedules_a_chain_on_the_unified_machine_at_mii() {
        let l = simple_chain();
        let machine = presets::unified();
        let s = schedule_with_policy(&l, &machine, &SchedulerOptions::new(), &FirstFit).unwrap();
        assert_eq!(s.ii(), mii::minimum_ii(&l, &machine));
        assert_eq!(s.num_communications(), 0);
        assert_dependences_respected(&l, &s, &machine);
    }

    #[test]
    fn cross_cluster_edges_get_bus_transfers() {
        let l = simple_chain();
        let machine = presets::two_cluster();
        let s = schedule_with_policy(&l, &machine, &SchedulerOptions::new(), &FirstFit).unwrap();
        let cross = l
            .edges()
            .iter()
            .filter(|e| {
                e.kind == EdgeKind::Data && s.placement(e.src).cluster != s.placement(e.dst).cluster
            })
            .count();
        assert_eq!(s.num_communications(), cross);
        assert_dependences_respected(&l, &s, &machine);
        // Every communication starts after the producer finishes and ends
        // (modulo loop-carried distances) before the consumer starts.
        for c in s.communications() {
            let p = s.placement(c.src);
            assert!(c.start_cycle >= p.cycle + p.assumed_latency);
        }
    }

    #[test]
    fn four_cluster_machine_also_schedules_the_chain() {
        let l = simple_chain();
        let machine = presets::four_cluster();
        let s = schedule_with_policy(&l, &machine, &SchedulerOptions::new(), &FirstFit).unwrap();
        assert_dependences_respected(&l, &s, &machine);
        assert_eq!(s.ops().len(), 4);
    }

    #[test]
    fn recurrences_are_respected() {
        let mut b = Loop::builder("recurrence");
        let i = b.dimension("I", 64);
        let arr = b.auto_array("A", 4096);
        let ld = b.load("LD", b.array_ref(arr).stride(i, 8).build());
        let acc = b.fp_op("ACC");
        b.data_edge(ld, acc, 0);
        b.data_edge(acc, acc, 1); // accumulator recurrence
        let l = b.build().unwrap();
        let machine = presets::two_cluster();
        let s = schedule_with_policy(&l, &machine, &SchedulerOptions::new(), &FirstFit).unwrap();
        // II must cover the 2-cycle accumulator recurrence.
        assert!(s.ii() >= 2);
        assert_dependences_respected(&l, &s, &machine);
    }

    #[test]
    fn infeasible_machines_report_missing_resources() {
        use mvp_machine::{BusConfig, CacheGeometry, ClusterConfig, MachineConfig};
        let machine = MachineConfig::builder("no-mem")
            .homogeneous_clusters(
                1,
                ClusterConfig::new(1, 1, 0, 8, CacheGeometry::direct_mapped(1024)),
            )
            .register_buses(BusConfig::finite(1, 1))
            .memory_buses(BusConfig::finite(1, 1))
            .build()
            .unwrap();
        let l = simple_chain();
        let err =
            schedule_with_policy(&l, &machine, &SchedulerOptions::new(), &FirstFit).unwrap_err();
        assert!(matches!(err, ScheduleError::MissingResources { .. }));
    }

    #[test]
    fn register_pressure_failure_raises_the_ii_or_fails() {
        use mvp_machine::{BusConfig, CacheGeometry, ClusterConfig, MachineConfig};
        let machine = MachineConfig::builder("tiny-regs")
            .homogeneous_clusters(
                2,
                ClusterConfig::new(1, 1, 1, 1, CacheGeometry::direct_mapped(1024)),
            )
            .register_buses(BusConfig::finite(1, 1))
            .memory_buses(BusConfig::finite(1, 1))
            .build()
            .unwrap();
        let l = simple_chain();
        match schedule_with_policy(&l, &machine, &SchedulerOptions::new(), &FirstFit) {
            Ok(s) => {
                for (c, &p) in s.register_pressure().iter().enumerate() {
                    assert!(p <= machine.cluster(c).register_file_size as u32);
                }
            }
            Err(e) => assert!(matches!(e, ScheduleError::NoFeasibleIi { .. })),
        }
    }

    #[test]
    fn cut_edges_counts_only_data_edges_crossing_the_set() {
        let l = simple_chain();
        let ld = OpId::from_index(0);
        let f1 = OpId::from_index(1);
        let f2 = OpId::from_index(2);
        assert_eq!(cut_edges(&l, &[], None), 0);
        assert_eq!(cut_edges(&l, &[ld], None), 1);
        assert_eq!(cut_edges(&l, &[ld], Some(f1)), 1);
        assert_eq!(cut_edges(&l, &[ld, f1], Some(f2)), 1);
        assert_eq!(cut_edges(&l, &[f1], None), 2);
    }

    #[test]
    fn wide_independent_loops_fill_all_clusters() {
        // 8 independent load->fp chains on the 4-cluster machine: the
        // first-fit policy still schedules everything and the engine inserts
        // no communications because every chain stays in one cluster only if
        // the policy keeps it there -- with first-fit some chains split, but
        // all dependences must still hold.
        let mut b = Loop::builder("wide");
        let i = b.dimension("I", 64);
        for k in 0..8 {
            let arr = b.auto_array(format!("A{k}"), 4096);
            let ld = b.load(format!("LD{k}"), b.array_ref(arr).stride(i, 8).build());
            let f = b.fp_op(format!("F{k}"));
            b.data_edge(ld, f, 0);
        }
        let l = b.build().unwrap();
        let machine = presets::four_cluster();
        let s = schedule_with_policy(&l, &machine, &SchedulerOptions::new(), &FirstFit).unwrap();
        assert_dependences_respected(&l, &s, &machine);
        // ResMII: 8 loads / 4 memory units = 2.
        assert!(s.ii() >= 2);
    }
}
