//! Schedule-cache correctness: replayed reports must be indistinguishable
//! from solved ones, and the content-addressed key must identify exactly
//! the (loop structure, machine, scheduler, options) tuples it claims to.
//!
//! Two families of checks:
//!
//! * **Differential** — over a fuzz corpus, a cache-hit report must deeply
//!   equal the report a cache-less pipeline produces for the same loop
//!   (`LoopReport` derives `PartialEq` over every field: placements,
//!   communications, register pressure, sim stats, gaps).
//! * **Canonicalization** — relabeled isomorphic loops hash to the same
//!   key and legally share a cache entry, while differing machines,
//!   schedulers or options never collide anywhere in the suite.

use multivliw::core::validate_schedule;
use multivliw::exact::ExactOptions;
use multivliw::machine::presets;
use multivliw::pipeline::{Pipeline, PipelineBuilder, PipelineScheduleCache, SchedulerChoice};
use multivliw::schedcache::CacheKey;
use multivliw::workloads::generator::LoopGenerator;
use multivliw::workloads::motivating::{motivating_loop, MotivatingParams};
use multivliw::workloads::rng::SplitMix64;
use multivliw::workloads::suite::{suite, SuiteParams};
use std::sync::Arc;

fn cached_builder(choice: SchedulerChoice, cache: &Arc<PipelineScheduleCache>) -> PipelineBuilder {
    Pipeline::builder()
        .scheduler(choice)
        .schedule_cache(Arc::clone(cache))
}

#[test]
fn cache_hits_equal_cold_solves_across_the_fuzz_corpus() {
    let mut meta = SplitMix64::seed_from_u64(0x5EED_CAFE);
    let seeds: Vec<u64> = (0..16).map(|_| meta.next_u64()).collect();
    let cache = Arc::new(PipelineScheduleCache::with_capacity_and_shards(1024, 4));
    let cached = cached_builder(SchedulerChoice::ListFallback, &cache)
        .build()
        .unwrap();
    let uncached = Pipeline::builder()
        .scheduler(SchedulerChoice::ListFallback)
        .build()
        .unwrap();
    for seed in seeds {
        let l = LoopGenerator::with_seed(seed).generate();
        let reference = uncached.run(&l).expect("the fallback never fails");
        let cold = cached.run(&l).expect("the fallback never fails");
        let warm = cached.run(&l).expect("a hit cannot fail");
        assert_eq!(cold, reference, "seed {seed:#x}: caching changed a miss");
        assert_eq!(warm, reference, "seed {seed:#x}: a hit diverged");
    }
    let stats = cache.stats();
    assert_eq!(stats.misses, 16, "one miss per distinct seed");
    assert_eq!(stats.hits, 16, "one hit per replay");
}

#[test]
fn suite_replays_hit_and_match_with_the_gap_oracle_on() {
    // The served schedulers share one cache, as in a long-lived service:
    // a cold pass populates it, then every warm replay must hit on every
    // lookup and reproduce the cold reports exactly. The gap oracle's
    // result rides in the cached report too; a small budget keeps its
    // bounds cheap on the suite's bigger bodies.
    let workloads = suite(&SuiteParams::small());
    let cache = Arc::new(PipelineScheduleCache::default());
    for choice in [
        SchedulerChoice::Baseline,
        SchedulerChoice::Rmca,
        SchedulerChoice::ListFallback,
    ] {
        let p = cached_builder(choice, &cache)
            .optimality_gap(true)
            .exact_options(ExactOptions::new().with_node_budget(4096))
            .build()
            .unwrap();
        let before = cache.stats();
        let cold = p.run_workloads(&workloads).unwrap();
        let after_cold = cache.stats();
        assert_eq!(after_cold.hits, before.hits, "{choice}: a cold pass hit");
        assert_eq!(
            (after_cold.misses - before.misses) as usize,
            cold.runs.len(),
            "{choice}: one miss per loop"
        );
        assert!(cold.optimality_gap.is_some(), "{choice}: gaps measured");
        for replay in 1..=2 {
            let start = cache.stats();
            let warm = p.run_workloads(&workloads).unwrap();
            let end = cache.stats();
            assert_eq!(warm, cold, "{choice} replay {replay} diverged");
            assert_eq!(end.misses, start.misses, "{choice} replay {replay} missed");
            assert_eq!(
                (end.hits - start.hits) as usize,
                warm.runs.len(),
                "{choice} replay {replay}: every lookup hits"
            );
        }
    }
}

/// The motivating loop rebuilt with its operations inserted in reverse and
/// fresh names: a relabeled isomorph of `motivating_loop`.
fn relabeled_motivating() -> multivliw::ir::Loop {
    let (original, _) = motivating_loop(&MotivatingParams::default());
    let n = original.num_ops();
    let num_dims = original.nest().num_dims();
    let mut b = multivliw::ir::Loop::builder("relabeled");
    for (i, d) in original.nest().dims().iter().enumerate() {
        let new = b.dimension(format!("d{i}"), d.trip_count);
        assert_eq!(new.index(), i);
    }
    for arr in original.arrays() {
        let new = b.array(
            format!("a{}", arr.id.index()),
            arr.base_address,
            arr.size_bytes,
        );
        assert_eq!(new.index(), arr.id.index());
    }
    // Insert ops in reverse original order under fresh names; `ids[i]` is
    // the new id of original op i.
    let mut ids = vec![None; n];
    for i in (0..n).rev() {
        let op = multivliw::ir::OpId::from_index(i);
        let kind = original.op(op).kind;
        let name = format!("op{i}");
        let new = match original.memory_ref_of(op) {
            Some(mref) => {
                let mut r = b.array_ref(mref.array).element_bytes(mref.element_bytes);
                if mref.offset != 0 {
                    r = r.offset(mref.offset);
                }
                for j in 0..num_dims {
                    let dim = multivliw::ir::DimId::from_index(j);
                    let stride = mref.stride(dim);
                    if stride != 0 {
                        r = r.stride(dim, stride);
                    }
                }
                let r = r.build();
                if original.op(op).is_load() {
                    b.load(name, r)
                } else {
                    b.store(name, r)
                }
            }
            None => match kind {
                multivliw::ir::OpKind::IntOp => b.int_op(name),
                multivliw::ir::OpKind::FpOp => b.fp_op(name),
                _ => unreachable!("memory ops carry a memory ref"),
            },
        };
        ids[i] = Some(new);
    }
    for e in original.edges() {
        let src = ids[e.src.index()].unwrap();
        let dst = ids[e.dst.index()].unwrap();
        match e.kind {
            multivliw::ir::EdgeKind::Data => b.data_edge(src, dst, e.distance),
            multivliw::ir::EdgeKind::Memory => b.memory_edge(src, dst, e.distance),
        };
    }
    b.build().expect("the relabeling preserves validity")
}

#[test]
fn relabeled_isomorphic_loops_share_a_cache_entry_legally() {
    let (original, _) = motivating_loop(&MotivatingParams::default());
    let relabeled = relabeled_motivating();
    let machine = presets::motivating_example_machine();
    let cache = Arc::new(PipelineScheduleCache::with_capacity_and_shards(64, 1));
    let p = cached_builder(SchedulerChoice::Rmca, &cache)
        .machine(machine.clone())
        .build()
        .unwrap();

    assert_eq!(
        p.cache_key(&original),
        p.cache_key(&relabeled),
        "isomorphic relabelings must hash to the same key"
    );

    let cold = p.run(&original).unwrap();
    let replayed = p.run(&relabeled).unwrap();
    assert_eq!(cache.stats().hits, 1, "the isomorph hit the first entry");

    // The replayed artifact is a *translation*, not the original bytes:
    // it names the relabeled loop, keeps every op-id-free metric, and is
    // legal for the relabeled loop under the independent oracle.
    assert_eq!(replayed.loop_name, relabeled.name());
    assert_eq!(replayed.ii, cold.ii);
    assert_eq!(replayed.stage_count, cold.stage_count);
    assert_eq!(replayed.communications, cold.communications);
    assert_eq!(replayed.stats, cold.stats);
    assert_eq!(
        replayed.schedule.register_pressure(),
        cold.schedule.register_pressure()
    );
    let violations = validate_schedule(&relabeled, &machine, &replayed.schedule);
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn distinct_configurations_never_collide_in_the_suite() {
    // Every (loop, machine, scheduler, option-variant) pair in the suite
    // feeds a distinct key: a collision would silently replay the wrong
    // artifact, so this enumerates the realistic configuration space. Each
    // exact option gets a variant of its own, so a key that drops any one
    // of them collides here.
    let workloads = suite(&SuiteParams::small());
    let machines = [
        presets::unified(),
        presets::two_cluster(),
        presets::four_cluster(),
    ];
    let exact_variants = [
        ("default", ExactOptions::new()),
        (
            "slack16",
            ExactOptions {
                max_ii_slack: 16,
                ..ExactOptions::new()
            },
        ),
        ("budget4096", ExactOptions::new().with_node_budget(4096)),
        ("horizon2", ExactOptions::new().with_horizon_stages(2)),
    ];
    let mut keys: std::collections::HashMap<CacheKey, String> = std::collections::HashMap::new();
    let mut count = 0usize;
    for machine in &machines {
        for choice in [
            SchedulerChoice::Baseline,
            SchedulerChoice::Rmca,
            SchedulerChoice::ExactSat,
        ] {
            for threshold in [1.0, 0.3] {
                for gap in [false, true] {
                    for (variant, exact) in exact_variants {
                        let p = Pipeline::builder()
                            .scheduler(choice)
                            .machine(machine.clone())
                            .threshold(threshold)
                            .optimality_gap(gap)
                            .exact_options(exact)
                            .build()
                            .unwrap();
                        for w in &workloads {
                            for l in &w.loops {
                                count += 1;
                                let label = format!(
                                    "{}/{}/{}/t{}/g{}/{}",
                                    l.name(),
                                    machine.name,
                                    choice,
                                    threshold,
                                    gap,
                                    variant
                                );
                                if let Some(prev) = keys.insert(p.cache_key(l), label.clone()) {
                                    panic!("key collision: {prev} vs {label}");
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    assert_eq!(keys.len(), count);
    assert!(
        count >= 3 * 3 * 2 * 2 * 4 * 8,
        "the space actually enumerated"
    );
}
