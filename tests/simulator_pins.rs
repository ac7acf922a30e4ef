//! Pins every field of `SimStats`, the ten memory counters included, for a
//! corpus that reaches every path of the cycle-level simulator.
//!
//! The corpus crosses
//!
//! * the eight suite kernels at their default size (the loops the Figure 5
//!   and 6 sweeps simulate) and four seeded `LoopGenerator` loops,
//! * fourteen machines: the unified machine; 2 and 4 clusters with
//!   unbounded memory buses and with NMB ∈ {1,2} × LMB ∈ {1,4}; and three
//!   built ones that the paper's direct-mapped presets never exercise — 2-way
//!   and 4-way set-associative caches (LRU replacement) and a single MSHR
//!   entry behind one slow bus (MSHR-full waits),
//! * Baseline and RMCA at thresholds 1.0 and 0.0,
//!
//! and simulates each schedule under one of three `SimOptions` (default,
//! flushed caches between executions, an iteration cap), rotated so that
//! every option meets every loop and every machine.
//!
//! The expected values live in `tests/data/simulator_pins.txt`, one line
//! per case. On a mismatch the test writes what it computed next to the
//! build's other test scratch files and names the path, so the two files
//! can be diffed.

use multivliw::core::{BaselineScheduler, ModuloScheduler, RmcaScheduler, SchedulerOptions};
use multivliw::exec::Executor;
use multivliw::ir::Loop;
use multivliw::machine::{
    presets, BusConfig, CacheGeometry, ClusterConfig, MachineConfig, OperationLatencies,
};
use multivliw::sim::{simulate, SimOptions, SimStats};
use multivliw::workloads::suite::{suite, SuiteParams};
use multivliw::workloads::{GeneratorConfig, GeneratorMode, LoopGenerator};
use std::fmt::Write as _;

const EXPECTED: &str = include_str!("data/simulator_pins.txt");

fn loops() -> Vec<Loop> {
    let mut loops: Vec<Loop> = suite(&SuiteParams::default())
        .into_iter()
        .flat_map(|w| w.loops)
        .collect();
    let config = GeneratorConfig::default().with_mode(GeneratorMode::Schedulable);
    for seed in [3, 17, 101, 4242] {
        loops.push(LoopGenerator::new(config, seed).generate());
    }
    loops
}

fn built(name: &str, clusters: usize, cache: CacheGeometry, buses: BusConfig) -> MachineConfig {
    MachineConfig::builder(name)
        .homogeneous_clusters(clusters, ClusterConfig::new(2, 2, 2, 32, cache))
        .register_buses(BusConfig::finite(2, 1))
        .memory_buses(buses)
        .latencies(OperationLatencies::paper_defaults())
        .build()
        .expect("the pinned machines are valid")
}

/// The fourteen machines, grouped by what the schedulers see: they do not
/// read the memory buses, so one schedule serves every bus variant of a
/// group (as in the Figure 5 and 6 sweeps).
fn machine_groups() -> Vec<Vec<MachineConfig>> {
    let mut groups = vec![vec![presets::unified()]];
    for clusters in [2, 4] {
        let base = presets::by_cluster_count(clusters);
        let mut group = vec![base
            .with_memory_buses(BusConfig::unbounded(2))
            .with_name(format!("{clusters}c-unbounded"))];
        for nmb in [1, 2] {
            for lmb in [1, 4] {
                group.push(
                    base.with_memory_buses(BusConfig::finite(nmb, lmb))
                        .with_name(format!("{clusters}c-nmb{nmb}-lmb{lmb}")),
                );
            }
        }
        groups.push(group);
    }
    let ways = |capacity_bytes, associativity| CacheGeometry {
        capacity_bytes,
        block_bytes: 32,
        associativity,
        mshr_entries: 10,
    };
    groups.push(vec![built(
        "2c-2way",
        2,
        ways(2048, 2),
        BusConfig::finite(1, 1),
    )]);
    groups.push(vec![built(
        "4c-4way",
        4,
        ways(1024, 4),
        BusConfig::finite(2, 4),
    )]);
    groups.push(vec![built(
        "2c-mshr1",
        2,
        CacheGeometry {
            mshr_entries: 1,
            ..CacheGeometry::direct_mapped(4096)
        },
        BusConfig::finite(1, 4),
    )]);
    groups
}

fn options() -> [(&'static str, SimOptions); 3] {
    [
        ("default", SimOptions::new()),
        (
            "flush",
            SimOptions::new().with_flush_between_executions(true),
        ),
        ("cap300", SimOptions::new().with_max_inner_iterations(300)),
    ]
}

fn counters(stats: &SimStats) -> [u64; 10] {
    let m = stats.memory;
    [
        m.accesses,
        m.local_hits,
        m.merges,
        m.upgrades,
        m.remote_fills,
        m.memory_fills,
        m.invalidations,
        m.bus_wait_cycles,
        m.mshr_wait_cycles,
        m.bus_transactions,
    ]
}

fn line(stats: &SimStats) -> String {
    let SimStats {
        compute_cycles,
        stall_cycles,
        iterations,
        executions,
        ii,
        stage_count,
        memory: _,
    } = *stats;
    let [acc, hit, merge, upg, remote, mem, inv, buswait, mshrwait, bustx] = counters(stats);
    format!(
        "compute={compute_cycles} stall={stall_cycles} iters={iterations} execs={executions} \
         ii={ii} sc={stage_count} | acc={acc} hit={hit} merge={merge} upg={upg} \
         remote={remote} mem={mem} inv={inv} buswait={buswait} mshrwait={mshrwait} bustx={bustx}"
    )
}

/// Schedules one loop on one machine group with one scheduler and
/// simulates the schedule on every machine of the group. Returns the pin
/// lines and the summed memory counters.
fn run_job(
    l: &Loop,
    group: &[MachineConfig],
    sched: &str,
    threshold: f64,
    first: usize,
) -> (String, [u64; 10]) {
    let options = options();
    let sched_opts = SchedulerOptions::new().with_threshold(threshold);
    let schedule = if sched == "base" {
        BaselineScheduler::with_options(sched_opts).schedule(l, &group[0])
    } else {
        RmcaScheduler::with_options(sched_opts).schedule(l, &group[0])
    };
    let mut out = String::new();
    let mut reached = [0u64; 10];
    for (i, machine) in group.iter().enumerate() {
        let (opt_name, opts) = options[(first + i) % options.len()];
        let _ = write!(
            out,
            "{} {} {sched}@{threshold:.1} {opt_name}: ",
            l.name(),
            machine.name
        );
        let Ok(schedule) = &schedule else {
            out.push_str("unschedulable\n");
            continue;
        };
        let stats = simulate(l, schedule, machine, &opts);
        out.push_str(&line(&stats));
        out.push('\n');
        for (sum, value) in reached.iter_mut().zip(counters(&stats)) {
            *sum += value;
        }
    }
    (out, reached)
}

/// Simulates the whole corpus and returns the pin text plus the summed
/// memory counters (to check that the corpus reaches every path).
fn run_corpus() -> (String, [u64; 10]) {
    let loops = loops();
    let groups = machine_groups();
    // One job per (loop, machine group, scheduler); `first` is the index of
    // the group's first machine plus the loop's index, which rotates the
    // options over loops and machines.
    let mut jobs = Vec::new();
    for (li, l) in loops.iter().enumerate() {
        let mut first = li;
        for group in &groups {
            for (sched, threshold) in [("base", 1.0), ("base", 0.0), ("rmca", 1.0), ("rmca", 0.0)] {
                jobs.push((l, group.as_slice(), sched, threshold, first));
            }
            first += group.len();
        }
    }
    let results = Executor::global().map(&jobs, |&(l, group, sched, threshold, first)| {
        run_job(l, group, sched, threshold, first)
    });
    let mut out = String::new();
    let mut reached = [0u64; 10];
    for (text, sums) in results {
        out.push_str(&text);
        for (sum, value) in reached.iter_mut().zip(sums) {
            *sum += value;
        }
    }
    (out, reached)
}

#[test]
fn every_sim_stats_field_is_pinned_across_the_corpus() {
    let (actual, reached) = run_corpus();
    // Every memory counter is non-zero somewhere, so the pins cover the
    // merge, upgrade, remote-fill, invalidation, bus-wait and MSHR-wait
    // paths and not just hits and memory fills.
    assert!(
        reached.iter().all(|&sum| sum > 0),
        "a memory counter is zero over the whole corpus: {reached:?}"
    );
    if actual == EXPECTED {
        return;
    }
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("simulator_pins.txt");
    std::fs::write(&path, &actual).expect("the test scratch directory is writable");
    let differing = actual
        .lines()
        .zip(EXPECTED.lines())
        .filter(|(a, e)| a != e)
        .count();
    let first = actual
        .lines()
        .zip(EXPECTED.lines())
        .find(|(a, e)| a != e)
        .map_or_else(
            || "(one file is a prefix of the other)".to_string(),
            |(a, e)| format!("expected {e}\n  actual {a}"),
        );
    panic!(
        "{differing} of {} pinned cases differ ({} computed); first difference:\n  {first}\n\
         the computed pins are in {}",
        EXPECTED.lines().count(),
        actual.lines().count(),
        path.display()
    );
}
