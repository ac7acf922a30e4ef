//! Bench-artifact determinism: CSV and table bytes are identical for any
//! executor thread count (the `MVP_THREADS=1` vs `MVP_THREADS=8` halves of
//! the executor acceptance bar that belong to `mvp-bench`; the pipeline
//! and fuzz halves live in the workspace-root `executor_determinism`
//! test).

use mvp_bench::fig5::{self, Figure};
use mvp_bench::gap::{self, GapParams};
use mvp_exec::Executor;

fn params() -> GapParams {
    GapParams {
        generated_loops: 3,
        max_ops: 8,
        ..GapParams::default()
    }
}

#[test]
fn gap_artifacts_are_byte_identical_for_1_and_8_threads() {
    // The trailing `schedule_ms`/`oracle_ms` columns are wall-clock and
    // legitimately vary run to run; everything else — every result column,
    // in every artifact — must be byte-identical across thread counts, so
    // the comparison strips the timing columns first.
    let strip = |rows: &[gap::GapRow]| -> Vec<gap::GapRow> {
        rows.iter().map(gap::GapRow::without_timing).collect()
    };
    let sequential = strip(&gap::run(&params(), &Executor::new(1)));
    let parallel = strip(&gap::run(&params(), &Executor::new(8)));
    assert!(!sequential.is_empty());
    assert_eq!(sequential, parallel);
    assert_eq!(
        gap::table(&sequential).to_csv(),
        gap::table(&parallel).to_csv()
    );
    assert_eq!(gap::render(&sequential), gap::render(&parallel));
}

#[test]
fn figure_sweeps_are_identical_for_1_and_8_threads() {
    // Grid jobs are collected in presentation order, so the sweep output —
    // `SweepOutput` derives `PartialEq` over every normalised bar — must be
    // identical whether the grid ran on 1 worker or 8.
    let suite = mvp_workloads::suite::SuiteParams::small();
    for (figure, clusters) in [(Figure::Unbounded, 2), (Figure::Realistic, 4)] {
        let sweep = |threads| fig5::run(figure, clusters, &suite, true, &Executor::new(threads));
        let sequential = sweep(1).unwrap();
        let parallel = sweep(8).unwrap();
        assert_eq!(sequential, parallel);
    }
}
