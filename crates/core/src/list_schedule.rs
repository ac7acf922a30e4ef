//! Non-pipelined list scheduling and the modulo→list fallback.
//!
//! The modulo schedulers give up with [`ScheduleError::NoFeasibleIi`] when no
//! initiation interval in the search range admits a schedule — which is
//! correct for an evaluation, but terrible for randomized testing: a loop
//! generator seed that happens to exhaust the II search makes an end-to-end
//! run impossible. A production compiler falls back to plain (non-pipelined)
//! list scheduling in that situation, and so does this module:
//!
//! * [`ListScheduler`] — an acyclic list scheduler that places one iteration
//!   of the loop in absolute cycles and then publishes the result as a
//!   degenerate modulo schedule whose II equals the schedule length (so the
//!   stage count is 1 and no resource ever wraps around the modulo table).
//!   It **always succeeds** on any loop/machine pair whose operation kinds
//!   the machine provides, by construction: absolute time is unbounded, so a
//!   free functional-unit slot and a free bus window always exist.
//! * [`FallbackScheduler`] — wraps any primary [`ModuloScheduler`] and
//!   reruns the loop through a [`ListScheduler`] if (and only if) the
//!   primary fails with `NoFeasibleIi`. Errors that list scheduling cannot
//!   fix (invalid machine, missing functional-unit kinds) are passed
//!   through.
//!
//! The resulting schedules pass the exact same legality oracle
//! ([`crate::validate::validate_schedule`]) as the pipelined ones: the II is
//! chosen large enough that every loop-carried dependence and every
//! register-bus transfer is satisfied even across iterations.

use crate::error::ScheduleError;
use crate::lifetime;
use crate::options::SchedulerOptions;
use crate::schedule::{Communication, PlacedOp, Schedule};
use crate::ModuloScheduler;
use mvp_cache::LocalityAnalysis;
use mvp_ir::{EdgeKind, Loop, OpId};
use mvp_machine::{ClusterId, MachineConfig};
use mvp_resmodel::{AcyclicBusTable, AcyclicFuTable, ResModel};

fn ceil_div_nonneg(numerator: i64, denominator: i64) -> i64 {
    if numerator <= 0 {
        0
    } else {
        (numerator + denominator - 1) / denominator
    }
}

/// The always-succeeding non-pipelined list scheduler.
///
/// Operations are visited in a topological order of the intra-iteration
/// dependence graph; each picks the cluster that lets it start earliest
/// (ties: the less-loaded cluster, then the lower index), reserving
/// register-bus transfers for cross-cluster values on the way. Loop-carried
/// dependences and their transfers are accounted afterwards by raising the
/// published II high enough that each of them is satisfied, so the result is
/// a *legal modulo schedule* with stage count 1 — one iteration in flight at
/// a time, exactly what "not software-pipelined" means in the cycle model
/// (`compute_cycles = ntimes · niter · II`).
///
/// The threshold-driven cache-miss-latency scheme of Section 4.3 is
/// honoured exactly as the pipelined schedulers honour it: a load whose
/// estimated miss ratio in its chosen cluster reaches
/// [`SchedulerOptions::miss_threshold`] is scheduled with the miss latency
/// (binding prefetching), so threshold-sweep figures can use the fallback
/// path as a comparable non-pipelined bar instead of a
/// hit-latency-only outlier. Unlike the pipelined case there is no
/// recurrence-slack guard — the published II is derived *after* placement
/// and simply grows to cover the longer latency, trading compute cycles
/// for stall cycles just as the paper's scheme intends.
///
/// # Example
///
/// ```
/// use mvp_core::{ListScheduler, ModuloScheduler};
/// use mvp_ir::Loop;
/// use mvp_machine::presets;
///
/// # fn main() -> Result<(), mvp_core::ScheduleError> {
/// let mut b = Loop::builder("demo");
/// let x = b.fp_op("X");
/// let y = b.fp_op("Y");
/// b.data_edge(x, y, 0);
/// let l = b.build().expect("valid loop");
/// let s = ListScheduler::new().schedule(&l, &presets::two_cluster())?;
/// assert_eq!(s.stage_count(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct ListScheduler {
    options: SchedulerOptions,
}

impl ListScheduler {
    /// Creates a list scheduler with default options.
    #[must_use]
    pub fn new() -> Self {
        Self {
            options: SchedulerOptions::new(),
        }
    }

    /// Creates a list scheduler with the given options (only
    /// `miss_threshold` is consulted; the II search slack is meaningless
    /// without pipelining).
    #[must_use]
    pub fn with_options(options: SchedulerOptions) -> Self {
        Self { options }
    }
}

impl ModuloScheduler for ListScheduler {
    fn name(&self) -> &'static str {
        "list"
    }

    fn schedule(&self, l: &Loop, machine: &MachineConfig) -> Result<Schedule, ScheduleError> {
        // The shared constraint model validates the machine and rejects
        // loops whose unit kinds the machine lacks.
        let model = ResModel::new(l, machine)?;

        let bus_latency = machine.register_buses.latency;
        let miss_latency = machine.load_miss_latency();
        // The locality analysis is only needed when the threshold scheme is
        // active (threshold 1.0 — the default — never miss-schedules).
        let analysis = (self.options.miss_threshold < 1.0).then(|| LocalityAnalysis::new(l));
        let mut fu = AcyclicFuTable::new(&model);
        let mut bus = AcyclicBusTable::new(&model);
        let mut cluster_load = vec![0usize; machine.num_clusters()];
        let mut cluster_mem_ops: Vec<Vec<OpId>> = vec![Vec::new(); machine.num_clusters()];
        let mut placements: Vec<Option<(ClusterId, u32, u32)>> = vec![None; l.num_ops()];
        let mut miss_scheduled = vec![false; l.num_ops()];
        let mut comms: Vec<Communication> = Vec::new();

        for &op in l.zero_distance_order() {
            let kind = l.op(op).kind.fu_kind();
            let hit_lat = l.op(op).kind.hit_latency(&machine.latencies);

            // Evaluate every cluster that can execute the operation; book the
            // incoming transfers each candidate needs directly on the
            // kernel's acyclic bus table and roll the trail back after each
            // probe (the FU table is only read during the probe), keeping
            // the cheapest candidate's recorded transfers for replay.
            let mut best: Option<(u32, usize, ClusterId, Vec<Communication>)> = None;
            for c in machine.cluster_ids() {
                if model.fu_count[c][kind.index()] == 0 {
                    continue;
                }
                let mark = bus.checkpoint();
                let mut candidate_comms = Vec::new();
                let mut ready = 0u32;
                for e in l.preds(op) {
                    if e.distance != 0 {
                        continue; // covered by the final II adjustment
                    }
                    let (p_cluster, p_cycle, p_lat) =
                        placements[e.src.index()].expect("topological order places preds first");
                    let arrival = if e.kind == EdgeKind::Data && p_cluster != c {
                        let (bus_idx, start) = bus.reserve_earliest(p_cycle + p_lat);
                        candidate_comms.push(Communication {
                            src: e.src,
                            dst: op,
                            from_cluster: p_cluster,
                            to_cluster: c,
                            start_cycle: start,
                            bus: bus_idx,
                        });
                        start + bus_latency
                    } else {
                        p_cycle + e.delay(p_lat)
                    };
                    ready = ready.max(arrival);
                }
                let t = fu.first_free(c, kind, ready);
                // Undo the probe: every candidate starts from the same base
                // state, exactly as the old clone-per-candidate design did.
                bus.rollback(mark);
                let better = match &best {
                    None => true,
                    Some((bt, bload, bc, _)) => (t, cluster_load[c], c) < (*bt, *bload, *bc),
                };
                if better {
                    best = Some((t, cluster_load[c], c, candidate_comms));
                }
            }
            let (t, _, c, chosen_comms) = best.expect("some cluster provides the unit kind");
            // Commit the winner's probed transfers at their recorded
            // windows (free again after the rollback, by construction).
            for comm in &chosen_comms {
                bus.reserve_at(comm.bus, comm.start_cycle);
            }

            // Section 4.3: once the cluster is known, a load whose estimated
            // miss ratio there reaches the threshold is scheduled with the
            // miss latency. Absolute time is unbounded, so no feasibility
            // fallback is needed — only the published II grows.
            let mut assumed_lat = hit_lat;
            if let Some(analysis) = analysis.as_ref().filter(|_| l.op(op).is_load()) {
                let geometry = machine.cluster(c).cache;
                let ratio = analysis.miss_ratio(geometry, op, &cluster_mem_ops[c]);
                if self.options.wants_miss_latency(ratio) {
                    assumed_lat = miss_latency;
                    miss_scheduled[op.index()] = true;
                }
            }

            comms.extend(chosen_comms);
            fu.reserve(c, kind, t);
            cluster_load[c] += 1;
            if l.op(op).is_memory() {
                cluster_mem_ops[c].push(op);
            }
            placements[op.index()] = Some((c, t, assumed_lat));
        }

        let placements: Vec<(ClusterId, u32, u32)> =
            placements.into_iter().map(|p| p.expect("placed")).collect();
        let max_cycle = placements.iter().map(|p| p.1).max().unwrap_or(0);
        let mut min_ii = i64::from(max_cycle) + 1;

        // Loop-carried dependences: book the transfers their cross-cluster
        // values need and raise the II until every carried edge (and the
        // completion of every transfer) fits inside one kernel iteration.
        for e in l.edges() {
            if e.distance == 0 {
                continue;
            }
            let (src_cluster, src_cycle, src_lat) = placements[e.src.index()];
            let (dst_cluster, dst_cycle, _) = placements[e.dst.index()];
            let d = i64::from(e.distance);
            if e.kind == EdgeKind::Data && src_cluster != dst_cluster {
                let (bus_idx, start) = bus.reserve_earliest(src_cycle + src_lat);
                comms.push(Communication {
                    src: e.src,
                    dst: e.dst,
                    from_cluster: src_cluster,
                    to_cluster: dst_cluster,
                    start_cycle: start,
                    bus: bus_idx,
                });
                let arrival = i64::from(start) + i64::from(bus_latency);
                min_ii = min_ii.max(ceil_div_nonneg(arrival - i64::from(dst_cycle), d));
            } else {
                min_ii = min_ii.max(ceil_div_nonneg(
                    i64::from(src_cycle) + i64::from(e.delay(src_lat)) - i64::from(dst_cycle),
                    d,
                ));
            }
        }
        // No transfer may wrap around the modulo table.
        for c in &comms {
            min_ii = min_ii.max(i64::from(c.start_cycle) + i64::from(bus_latency));
        }
        let ii = u32::try_from(min_ii).expect("list-schedule II fits in u32");

        let ops: Vec<PlacedOp> = placements
            .iter()
            .enumerate()
            .map(|(i, &(cluster, cycle, lat))| PlacedOp {
                op: OpId::from_index(i),
                cluster,
                cycle,
                stage: cycle / ii,
                row: cycle % ii,
                assumed_latency: lat,
                miss_scheduled: miss_scheduled[i],
            })
            .collect();

        let pressure = lifetime::register_pressure(l, &ops, ii, machine.num_clusters());
        for (cluster, &p) in pressure.iter().enumerate() {
            let capacity = machine.cluster(cluster).register_file_size;
            if p > capacity as u32 {
                return Err(ScheduleError::MissingResources {
                    reason: format!(
                        "non-pipelined schedule needs {p} registers in cluster {cluster} \
                         but the file holds {capacity}"
                    ),
                });
            }
        }

        Ok(Schedule::new(
            machine.name.clone(),
            self.name(),
            ii,
            ops,
            comms,
            pressure,
        ))
    }
}

/// A modulo scheduler with a list-scheduling safety net.
///
/// Runs the primary scheduler first; if — and only if — the primary exhausts
/// its II search ([`ScheduleError::NoFeasibleIi`]), the loop is list-scheduled
/// instead, so every well-formed loop the machine can execute at all gets
/// *some* legal schedule. The [`Schedule::scheduler_name`] of the result
/// tells which path produced it (`"list"` for the fallback).
///
/// # Example
///
/// ```
/// use mvp_core::{FallbackScheduler, ModuloScheduler, RmcaScheduler};
/// use mvp_ir::Loop;
/// use mvp_machine::presets;
///
/// # fn main() -> Result<(), mvp_core::ScheduleError> {
/// let mut b = Loop::builder("demo");
/// let x = b.fp_op("X");
/// let y = b.fp_op("Y");
/// b.data_edge(x, y, 0);
/// let l = b.build().expect("valid loop");
/// let scheduler = FallbackScheduler::new(RmcaScheduler::new());
/// let s = scheduler.schedule(&l, &presets::two_cluster())?;
/// assert_eq!(s.scheduler_name, "rmca"); // the primary succeeded
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct FallbackScheduler<P> {
    primary: P,
    fallback: ListScheduler,
}

impl<P: ModuloScheduler> FallbackScheduler<P> {
    /// Wraps `primary` with a default-option list-scheduling fallback.
    #[must_use]
    pub fn new(primary: P) -> Self {
        Self {
            primary,
            fallback: ListScheduler::new(),
        }
    }

    /// Wraps `primary` with a fallback running under the given options.
    #[must_use]
    pub fn with_options(primary: P, options: SchedulerOptions) -> Self {
        Self {
            primary,
            fallback: ListScheduler::with_options(options),
        }
    }

    /// The wrapped primary scheduler.
    #[must_use]
    pub fn primary(&self) -> &P {
        &self.primary
    }
}

impl<P: ModuloScheduler> ModuloScheduler for FallbackScheduler<P> {
    fn name(&self) -> &'static str {
        "list-fallback"
    }

    fn schedule(&self, l: &Loop, machine: &MachineConfig) -> Result<Schedule, ScheduleError> {
        match self.primary.schedule(l, machine) {
            Ok(schedule) => Ok(schedule),
            Err(ScheduleError::NoFeasibleIi { .. }) => self.fallback.schedule(l, machine),
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate_schedule;
    use crate::{BaselineScheduler, RmcaScheduler};
    use mvp_machine::presets;

    fn chain() -> Loop {
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

    #[test]
    fn list_schedules_are_single_stage_and_legal() {
        let l = chain();
        for machine in [
            presets::unified(),
            presets::two_cluster(),
            presets::four_cluster(),
            presets::motivating_example_machine(),
        ] {
            let s = ListScheduler::new().schedule(&l, &machine).unwrap();
            assert_eq!(s.stage_count(), 1, "{}", machine.name);
            let v = validate_schedule(&l, &machine, &s);
            assert!(v.is_empty(), "{}: {v:?}", machine.name);
        }
    }

    #[test]
    fn list_schedule_is_never_faster_than_the_modulo_schedule() {
        let l = chain();
        let machine = presets::two_cluster();
        let list = ListScheduler::new().schedule(&l, &machine).unwrap();
        let modulo = RmcaScheduler::new().schedule(&l, &machine).unwrap();
        assert!(modulo.compute_cycles_of(&l) <= list.compute_cycles_of(&l));
    }

    #[test]
    fn recurrences_raise_the_published_ii() {
        // X -> X with distance 1 and a 2-cycle fp latency: one iteration per
        // 2 cycles at best, so the degenerate II must be >= 2 even though the
        // flat schedule is a single cycle long.
        let mut b = Loop::builder("acc");
        let x = b.fp_op("X");
        b.data_edge(x, x, 1);
        let l = b.build().unwrap();
        let machine = presets::unified();
        let s = ListScheduler::new().schedule(&l, &machine).unwrap();
        assert!(s.ii() >= 2, "II {} does not cover the recurrence", s.ii());
        assert!(validate_schedule(&l, &machine, &s).is_empty());
    }

    #[test]
    fn carried_cross_cluster_values_get_transfers() {
        // Force both clusters into play: 8 parallel fp chains on the
        // 2-cluster machine (4 fp units total) with a carried edge between
        // the chains' heads.
        let mut b = Loop::builder("wide");
        let mut heads = Vec::new();
        for k in 0..8 {
            let x = b.fp_op(format!("X{k}"));
            let y = b.fp_op(format!("Y{k}"));
            b.data_edge(x, y, 0);
            heads.push(x);
        }
        b.data_edge(heads[7], heads[0], 1);
        let l = b.build().unwrap();
        let machine = presets::two_cluster();
        let s = ListScheduler::new().schedule(&l, &machine).unwrap();
        let v = validate_schedule(&l, &machine, &s);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn threshold_zero_miss_schedules_every_load() {
        let l = chain();
        let machine = presets::two_cluster();
        let hit = ListScheduler::new().schedule(&l, &machine).unwrap();
        assert_eq!(hit.miss_scheduled_loads().count(), 0);

        let miss = ListScheduler::with_options(SchedulerOptions::new().with_threshold(0.0))
            .schedule(&l, &machine)
            .unwrap();
        // The chain has exactly one load; at threshold 0.0 it must carry the
        // miss latency, and the schedule must still validate (the validator
        // checks the assumed latency of miss-scheduled loads against the
        // machine's miss latency).
        assert_eq!(miss.miss_scheduled_loads().count(), 1);
        let load = miss.miss_scheduled_loads().next().unwrap();
        assert_eq!(
            miss.placement(load).assumed_latency,
            machine.load_miss_latency()
        );
        let v = validate_schedule(&l, &machine, &miss);
        assert!(v.is_empty(), "{v:?}");
        // Stretching the load can only lengthen the (single-stage) kernel.
        assert!(miss.ii() >= hit.ii());
        assert_eq!(miss.stage_count(), 1);
    }

    #[test]
    fn intermediate_thresholds_respect_the_estimated_ratio() {
        // A tiny strided load over a large array misses on (almost) every
        // access in a small direct-mapped cache, so a 0.5 threshold still
        // miss-schedules it — while a threshold of 1.0 never does.
        let mut b = Loop::builder("stream");
        let i = b.dimension("I", 512);
        let a = b.auto_array("A", 1 << 20);
        let ld = b.load("LD", b.array_ref(a).stride(i, 64).build());
        let f = b.fp_op("F");
        b.data_edge(ld, f, 0);
        let l = b.build().unwrap();
        let machine = presets::two_cluster();
        let swept = ListScheduler::with_options(SchedulerOptions::new().with_threshold(0.5))
            .schedule(&l, &machine)
            .unwrap();
        assert_eq!(swept.miss_scheduled_loads().count(), 1);
        assert!(validate_schedule(&l, &machine, &swept).is_empty());
        let default = ListScheduler::new().schedule(&l, &machine).unwrap();
        assert_eq!(default.miss_scheduled_loads().count(), 0);
    }

    #[test]
    fn missing_unit_kinds_are_not_masked() {
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
        let l = chain();
        for scheduler in [
            Box::new(ListScheduler::new()) as Box<dyn ModuloScheduler>,
            Box::new(FallbackScheduler::new(RmcaScheduler::new())),
        ] {
            let err = scheduler.schedule(&l, &machine).unwrap_err();
            assert!(matches!(err, ScheduleError::MissingResources { .. }));
        }
    }

    #[test]
    fn fallback_defers_to_the_primary_when_it_succeeds() {
        let l = chain();
        let machine = presets::two_cluster();
        let s = FallbackScheduler::new(BaselineScheduler::new())
            .schedule(&l, &machine)
            .unwrap();
        assert_eq!(s.scheduler_name, "baseline");
        let direct = BaselineScheduler::new().schedule(&l, &machine).unwrap();
        assert_eq!(s.ii(), direct.ii());
    }

    #[test]
    fn fallback_rescues_exhausted_ii_searches() {
        // A primary that always reports an exhausted II search.
        struct AlwaysExhausted;
        impl ModuloScheduler for AlwaysExhausted {
            fn name(&self) -> &'static str {
                "exhausted"
            }
            fn schedule(&self, _: &Loop, _: &MachineConfig) -> Result<Schedule, ScheduleError> {
                Err(ScheduleError::NoFeasibleIi {
                    min_ii: 1,
                    max_ii: 65,
                })
            }
        }
        let l = chain();
        let machine = presets::two_cluster();
        let scheduler = FallbackScheduler::new(AlwaysExhausted);
        assert_eq!(scheduler.name(), "list-fallback");
        assert_eq!(scheduler.primary().name(), "exhausted");
        let s = scheduler.schedule(&l, &machine).unwrap();
        assert_eq!(s.scheduler_name, "list");
        assert!(validate_schedule(&l, &machine, &s).is_empty());
    }
}
