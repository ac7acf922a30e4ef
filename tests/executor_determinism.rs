//! Executor determinism: running a batch in parallel must be invisible in
//! every result.
//!
//! The contract pinned here is the acceptance bar of the `mvp-exec`
//! migration: for *any* thread count (`MVP_THREADS=1` vs `MVP_THREADS=8`
//! — modelled with explicit `Executor::new(n)` handles, which is exactly
//! what the environment variable configures), the pipeline's per-loop
//! outcomes for every scheduler choice, the fuzz-style per-seed outcomes
//! and the bench artifacts' CSV bytes are identical; and a panicking job
//! propagates its panic to the caller instead of deadlocking, poisoning,
//! or silently dropping results.

use multivliw::core::validate_schedule;
use multivliw::exact::ExactOptions;
use multivliw::exec::Executor;
use multivliw::pipeline::{Pipeline, SchedulerChoice};
use multivliw::workloads::generator::LoopGenerator;
use multivliw::workloads::rng::SplitMix64;
use multivliw::workloads::suite::{suite, SuiteParams};
use multivliw::LoopReport;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Every suite loop run through `choice`'s pipeline as one job on a
/// `threads`-wide executor, `Ok` or `Err`.
fn suite_outcomes(choice: SchedulerChoice, threads: usize) -> Vec<multivliw::Result<LoopReport>> {
    let workloads = suite(&SuiteParams::small());
    let loops: Vec<&multivliw::ir::Loop> = workloads.iter().flat_map(|w| w.loops.iter()).collect();
    let executor = Arc::new(Executor::new(threads));
    let pipeline = Pipeline::builder()
        .scheduler(choice)
        .executor(Arc::clone(&executor))
        // Gap oracle on (its per-loop solves are part of the parallel
        // stage under test), with a small budget so the certified bounds
        // stay cheap on the suite's bigger bodies.
        .optimality_gap_options(ExactOptions::new().with_node_budget(4096))
        // The exact scheduler may exhaust this budget on the big bodies;
        // those loops fail, and their errors must match too.
        .exact_node_budget(1 << 12)
        .build()
        .expect("default-machine pipelines are valid");
    executor.map(&loops, |l| pipeline.run(l))
}

#[test]
fn pipeline_reports_are_identical_for_1_and_8_threads() {
    // `LoopReport` and `Error` derive `PartialEq` over every field —
    // schedules, placements, communications, sim stats, optimality gaps —
    // so this is a deep equality, not a summary check.
    for choice in SchedulerChoice::EVERY {
        let sequential = suite_outcomes(choice, 1);
        let parallel = suite_outcomes(choice, 8);
        assert_eq!(sequential, parallel, "{choice}");
        // And re-running parallel is stable too (no hidden global state).
        assert_eq!(parallel, suite_outcomes(choice, 8), "{choice} rerun");
        // Only the exact scheduler may give up on a loop (budget
        // exhaustion); every other choice schedules the whole suite.
        if choice != SchedulerChoice::Exact {
            for outcome in &sequential {
                assert!(outcome.is_ok(), "{choice}: {outcome:?}");
            }
        }
    }
}

#[test]
fn fuzz_style_outcomes_are_identical_for_1_and_8_threads() {
    // The same shape as tests/differential_fuzz.rs: seeds drawn up front,
    // one job per seed, outcome summaries collected in order. The whole
    // outcome vector must match between a sequential and a parallel sweep.
    let mut meta = SplitMix64::seed_from_u64(0xD1FF_5EED);
    let seeds: Vec<u64> = (0..24).map(|_| meta.next_u64()).collect();
    let pipeline = Pipeline::builder()
        .scheduler(SchedulerChoice::ListFallback)
        .build()
        .unwrap();

    let sweep = |threads: usize| -> Vec<(String, u32, u32, u64)> {
        Executor::new(threads).map(&seeds, |&seed| {
            let l = LoopGenerator::with_seed(seed).generate();
            let report = pipeline.run(&l).expect("the fallback never fails");
            let violations = validate_schedule(&l, pipeline.machine(), &report.schedule);
            assert!(violations.is_empty(), "seed {seed:#x}: {violations:?}");
            (
                report.schedule.scheduler_name.to_string(),
                report.ii,
                report.stage_count,
                report.total_cycles(),
            )
        })
    };
    assert_eq!(sweep(1), sweep(8));
}

// (The bench-artifact side of the contract — identical gap-table CSV
// bytes and figure sweeps across thread counts — is pinned in
// `crates/bench/tests/determinism.rs`, next to the code that emits them.)

#[test]
fn panics_in_jobs_propagate_to_the_caller() {
    let workloads = suite(&SuiteParams::small());
    let loops: Vec<&multivliw::ir::Loop> = workloads.iter().flat_map(|w| w.loops.iter()).collect();
    let executor = Executor::new(4);
    let result = catch_unwind(AssertUnwindSafe(|| {
        executor.map_indexed(&loops, |i, l| {
            if i == 2 {
                panic!("poisoned job for {}", l.name());
            }
            l.num_ops()
        })
    }));
    let payload = result.expect_err("the batch must re-raise the job panic");
    let message = payload
        .downcast_ref::<String>()
        .expect("panic payload is the job's message");
    assert_eq!(message, &format!("poisoned job for {}", loops[2].name()));
    // The executor is reusable after a panicking batch (nothing poisoned).
    assert_eq!(executor.map(&[1u32, 2, 3], |&x| x * 2), vec![2, 4, 6]);
}

#[test]
fn batches_after_idle_gaps_stay_ordered_and_complete() {
    // Nothing runs between batches; a batch arriving after a long idle gap
    // must still produce ordered, complete results.
    let executor = Executor::new(4);
    let items: Vec<u32> = (0..32).collect();
    for pause_ms in [0, 20, 50] {
        std::thread::sleep(std::time::Duration::from_millis(pause_ms));
        let doubled = executor.map(&items, |&x| x * 2);
        assert_eq!(doubled, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
    }
    // The same holds around real scheduling jobs, not just arithmetic:
    // a pipeline re-run after an idle gap reproduces its first run.
    let workloads = suite(&SuiteParams::small());
    let p = Pipeline::builder()
        .scheduler(SchedulerChoice::Rmca)
        .executor(Arc::new(Executor::new(4)))
        .build()
        .unwrap();
    let first = p.run_workloads(&workloads).unwrap();
    std::thread::sleep(std::time::Duration::from_millis(30));
    let second = p.run_workloads(&workloads).unwrap();
    assert_eq!(first, second);
}

#[test]
fn a_panicking_batch_leaves_the_executor_usable() {
    // Sharper than `panics_in_jobs_propagate_to_the_caller`: several
    // panicking rounds in a row, each followed by a normal batch, and the
    // caller must leave every panicking batch as a non-participant (nested
    // maps it issues afterwards would otherwise run inline).
    let executor = Executor::new(4);
    let items: Vec<u32> = (0..32).collect();
    assert_eq!(executor.map(&items, |&x| x + 1).len(), 32);

    for round in 0..3 {
        let result = catch_unwind(AssertUnwindSafe(|| {
            executor.map(&items, |&x| {
                if x == 7 {
                    panic!("round {round}");
                }
                x
            })
        }));
        assert!(result.is_err(), "round {round}: the panic must propagate");
        assert!(!Executor::is_worker_thread(), "round {round}");
        let recovered = executor.map(&items, |&x| x * 3);
        assert_eq!(recovered, items.iter().map(|&x| x * 3).collect::<Vec<_>>());
    }
}
