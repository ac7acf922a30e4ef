//! The lockstep execution engine.
//!
//! The engine walks the iteration space of the loop nest, issuing every
//! operation of the modulo schedule at its scheduled cycle and accounting the
//! stalls that arise when a load takes longer than the latency the scheduler
//! assumed. Because all clusters run in lockstep, any such stall delays the
//! whole machine; the engine models this with a single global stall counter
//! that shifts every subsequent issue time.
//!
//! # What one iteration costs
//!
//! Everything an issue needs that does not change from one iteration to the
//! next is read from the loop and the schedule once, before the first
//! iteration, into one table in issue order: each operation's cycle,
//! cluster and access kind, and the `(producer, distance)` pairs of its
//! load predecessors (the only operands that can arrive late). A memory
//! operation's address is affine in the iteration vector, so it is
//! computed once per execution of the loop (the outer iteration vector is
//! fixed) and then stepped by the innermost stride. Load completion times
//! sit in one flat `operations × ring` buffer. An iteration therefore
//! walks the table, adds one stride per memory operation, reads one ring
//! slot per load predecessor and calls the memory system once per access;
//! it allocates nothing.

use crate::memory_system::MemorySystem;
use crate::options::SimOptions;
use crate::stats::SimStats;
use mvp_core::Schedule;
use mvp_ir::{ArrayRef, EdgeKind, Loop, OpId, OpKind};
use mvp_machine::{ClusterId, MachineConfig};
use std::ops::Range;

/// One operation of the kernel, as the engine issues it.
struct Issue<'l> {
    /// Scheduled cycle within an iteration.
    cycle: u64,
    cluster: ClusterId,
    /// First entry of the operation's row in the `ready` buffer.
    row: usize,
    /// The operation's load predecessors, in [`Tables::load_preds`].
    preds: Range<usize>,
    /// The memory access, for loads and stores.
    access: Option<Access<'l>>,
}

/// The affine address stream of one memory operation.
struct Access<'l> {
    is_load: bool,
    reference: &'l ArrayRef,
    array_base: i64,
    /// Byte stride along the innermost dimension.
    inner_stride: i64,
    /// Unclamped address of the next iteration of the current execution.
    next: i64,
}

impl Access<'_> {
    /// Points the stream at iteration 0 of the execution whose outer
    /// iteration vector is `outer` (dimensions past it count as 0, like
    /// [`ArrayRef::address`]).
    fn start(&mut self, outer: &[u64]) {
        self.next = self.array_base + self.reference.offset;
        for (stride, &i) in self.reference.strides.iter().zip(outer) {
            self.next += stride * i as i64;
        }
    }

    /// The address of this iteration; advances to the next one.
    fn step(&mut self) -> u64 {
        let address = self.next.max(0) as u64;
        self.next += self.inner_stride;
        address
    }
}

/// The per-operation tables built once per simulation.
struct Tables<'l> {
    /// Every operation, in issue order.
    issues: Vec<Issue<'l>>,
    /// `(producer row, distance)` of every load predecessor, grouped by
    /// consumer.
    load_preds: Vec<(usize, usize)>,
    /// Slots per operation in the `ready` buffer: the largest dependence
    /// distance plus one.
    ring: usize,
}

impl<'l> Tables<'l> {
    fn new(l: &'l Loop, schedule: &Schedule) -> Self {
        let max_distance = l.edges().iter().map(|e| e.distance).max().unwrap_or(0) as usize;
        let ring = max_distance + 1;
        let mut order: Vec<OpId> = l.op_ids().collect();
        order.sort_by_key(|&op| (schedule.placement(op).cycle, op.index()));
        let mut load_preds = Vec::new();
        let issues = order
            .into_iter()
            .map(|op| {
                let first = load_preds.len();
                load_preds.extend(
                    l.preds(op)
                        .filter(|e| e.kind == EdgeKind::Data && l.op(e.src).kind == OpKind::Load)
                        .map(|e| (e.src.index() * ring, e.distance as usize)),
                );
                let access = l.op(op).is_memory().then(|| {
                    let reference = l
                        .memory_ref_of(op)
                        .expect("memory operations always have an address");
                    Access {
                        is_load: l.op(op).is_load(),
                        reference,
                        array_base: l.array(reference.array).base_address as i64,
                        inner_stride: reference.inner_stride(l.nest()),
                        next: 0,
                    }
                });
                let place = schedule.placement(op);
                Issue {
                    cycle: u64::from(place.cycle),
                    cluster: place.cluster,
                    row: op.index() * ring,
                    preds: first..load_preds.len(),
                    access,
                }
            })
            .collect();
        Self {
            issues,
            load_preds,
            ring,
        }
    }
}

/// Simulates `schedule` (produced for `machine`) executing `l`, and returns
/// the cycle breakdown.
///
/// # Panics
///
/// Panics if the schedule does not cover every operation of the loop (it was
/// produced for a different loop).
#[must_use]
pub fn simulate(
    l: &Loop,
    schedule: &Schedule,
    machine: &MachineConfig,
    options: &SimOptions,
) -> SimStats {
    assert_eq!(
        schedule.ops().len(),
        l.num_ops(),
        "schedule does not match the loop"
    );

    let ii = u64::from(schedule.ii());
    let sc = u64::from(schedule.stage_count());
    let niter = l.iterations();

    let Tables {
        mut issues,
        load_preds,
        ring,
    } = Tables::new(l, schedule);
    // Load completion times: row `op × ring`, slot `iteration % ring`.
    let mut ready = vec![0u64; l.num_ops() * ring];

    let mut memory = MemorySystem::new(machine);
    let mut stall_cycles: u64 = 0;
    let mut compute_cycles: u64 = 0;
    let mut iterations_done: u64 = 0;
    let mut executions: u64 = 0;

    // Outer iteration vectors (everything but the innermost dimension); a
    // single empty one when there is no outer dimension.
    let outer_dims = l.nest().num_dims().saturating_sub(1);
    let mut outer_nest = mvp_ir::LoopNest::new();
    for d in &l.nest().dims()[..outer_dims] {
        outer_nest.push_dimension(d.name.clone(), d.trip_count);
    }

    'outer: for outer in outer_nest.iteration_vectors() {
        if iterations_done >= options.max_inner_iterations {
            break;
        }
        if options.flush_between_executions && executions > 0 {
            memory.flush_caches();
        }
        executions += 1;
        let exec_base = compute_cycles + stall_cycles;
        let stalls_at_exec_start = stall_cycles;
        let mut iters_this_exec: u64 = 0;
        // Loop-carried values do not survive a fresh execution of the loop.
        ready.fill(0);
        for access in issues.iter_mut().filter_map(|i| i.access.as_mut()) {
            access.start(&outer);
        }

        for k in 0..niter.max(1) {
            if iterations_done >= options.max_inner_iterations {
                compute_cycles += (iters_this_exec + sc - 1) * ii;
                continue 'outer;
            }
            let base = exec_base + k * ii;
            // Every access from here on is issued at or after `base`.
            memory.forget_before(base);
            let slot = (k % ring as u64) as usize;

            for op in &mut issues {
                // Issue time: the static position of the operation plus every
                // stall the lockstep machine has suffered since this
                // execution of the loop started.
                let mut issue = base + op.cycle + (stall_cycles - stalls_at_exec_start);

                // Wait for operands produced by loads that are still in
                // flight (the scheduler assumed a shorter latency).
                for &(producer, d) in &load_preds[op.preds.clone()] {
                    if d as u64 > k {
                        continue; // value comes from the prologue: assume ready
                    }
                    // `d < ring`, so this is `(k - d) % ring`.
                    let producer_slot = if slot >= d { slot - d } else { slot + ring - d };
                    let available = ready[producer + producer_slot];
                    if available > issue {
                        let stall = available - issue;
                        stall_cycles += stall;
                        issue += stall;
                    }
                }

                // Perform the memory access, if any.
                if let Some(access) = &mut op.access {
                    let address = access.step();
                    let latency = memory.access(op.cluster, address, !access.is_load, issue);
                    if access.is_load {
                        ready[op.row + slot] = issue + latency;
                    }
                }
            }

            iterations_done += 1;
            iters_this_exec += 1;
        }
        compute_cycles += (iters_this_exec + sc - 1) * ii;
    }

    SimStats {
        compute_cycles,
        stall_cycles,
        iterations: iterations_done,
        executions,
        ii: schedule.ii(),
        stage_count: schedule.stage_count(),
        memory: memory.counters(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvp_core::{BaselineScheduler, ModuloScheduler, RmcaScheduler, SchedulerOptions};
    use mvp_machine::presets;

    /// A streaming loop whose loads always have consumers two cycles later:
    /// with hit-latency scheduling every cold/capacity miss stalls the
    /// machine, with miss-latency scheduling (threshold 0.0) the stalls
    /// disappear.
    fn streaming_loop(trip: u64) -> Loop {
        let mut b = Loop::builder("stream");
        let i = b.dimension("I", trip);
        // The two arrays are offset by half a cache so they do not conflict
        // in the 4 KB per-cluster caches of the 2-cluster preset.
        let a = b.array("A", 0, 64 * 1024);
        let c = b.array("C", 128 * 1024 + 2048, 64 * 1024);
        let ld = b.load("LD", b.array_ref(a).stride(i, 8).build());
        let f = b.fp_op("F");
        let st = b.store("ST", b.array_ref(c).stride(i, 8).build());
        b.data_edge(ld, f, 0);
        b.data_edge(f, st, 0);
        b.build().unwrap()
    }

    #[test]
    fn totals_are_compute_plus_stall() {
        let l = streaming_loop(200);
        let machine = presets::two_cluster();
        let s = BaselineScheduler::new().schedule(&l, &machine).unwrap();
        let stats = simulate(&l, &s, &machine, &SimOptions::new());
        assert_eq!(
            stats.total_cycles(),
            stats.compute_cycles + stats.stall_cycles
        );
        assert_eq!(stats.iterations, 200);
        assert_eq!(stats.executions, 1);
        assert_eq!(stats.compute_cycles, s.compute_cycles(1, 200));
        assert!(stats.memory.accesses >= 400);
    }

    #[test]
    fn hit_latency_scheduling_stalls_and_miss_latency_scheduling_does_not() {
        let l = streaming_loop(512);
        let machine = presets::two_cluster();

        let hit = BaselineScheduler::new().schedule(&l, &machine).unwrap();
        let hit_stats = simulate(&l, &hit, &machine, &SimOptions::new());
        // Every 4th iteration brings a new block from memory: stalls happen.
        assert!(hit_stats.stall_cycles > 0, "{hit_stats}");

        let opts = SchedulerOptions::new().with_threshold(0.0);
        let miss = BaselineScheduler::with_options(opts)
            .schedule(&l, &machine)
            .unwrap();
        let miss_stats = simulate(&l, &miss, &machine, &SimOptions::new());
        // Binding prefetching hides (almost) the whole miss latency.
        assert!(
            miss_stats.stall_cycles * 10 < hit_stats.stall_cycles,
            "miss-scheduled stalls {} should be far below hit-scheduled stalls {}",
            miss_stats.stall_cycles,
            hit_stats.stall_cycles
        );
        // The compute part grows (longer schedule, possibly larger SC).
        assert!(miss_stats.compute_cycles >= hit_stats.compute_cycles);
    }

    #[test]
    fn iteration_cap_limits_the_simulation() {
        let l = streaming_loop(1000);
        let machine = presets::unified();
        let s = RmcaScheduler::new().schedule(&l, &machine).unwrap();
        let stats = simulate(
            &l,
            &s,
            &machine,
            &SimOptions::new().with_max_inner_iterations(64),
        );
        assert_eq!(stats.iterations, 64);
        assert_eq!(stats.compute_cycles, s.compute_cycles(1, 64));
    }

    #[test]
    fn unified_machine_has_no_remote_fills() {
        let l = streaming_loop(256);
        let machine = presets::unified();
        let s = BaselineScheduler::new().schedule(&l, &machine).unwrap();
        let stats = simulate(&l, &s, &machine, &SimOptions::new());
        assert_eq!(stats.memory.remote_fills, 0);
        assert_eq!(stats.memory.invalidations, 0);
    }

    #[test]
    fn nested_loops_re_enter_the_kernel() {
        let mut b = Loop::builder("nested");
        let j = b.dimension("J", 3);
        let i = b.dimension("I", 50);
        let a = b.auto_array("A", 64 * 1024);
        let ld = b.load("LD", b.array_ref(a).stride(j, 4096).stride(i, 8).build());
        let f = b.fp_op("F");
        b.data_edge(ld, f, 0);
        let l = b.build().unwrap();
        let machine = presets::two_cluster();
        let s = BaselineScheduler::new().schedule(&l, &machine).unwrap();
        let stats = simulate(&l, &s, &machine, &SimOptions::new());
        assert_eq!(stats.executions, 3);
        assert_eq!(stats.iterations, 150);
        assert_eq!(stats.compute_cycles, s.compute_cycles(3, 50));
        // Flushing between executions can only increase misses.
        let cold = simulate(
            &l,
            &s,
            &machine,
            &SimOptions::new().with_flush_between_executions(true),
        );
        assert!(cold.memory.misses() >= stats.memory.misses());
    }
}
