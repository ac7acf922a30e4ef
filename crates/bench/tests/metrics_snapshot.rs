//! Snapshot determinism: the counter metrics artifact is byte-identical at
//! any executor width.
//!
//! This is the metrics half of the observability acceptance bar (the
//! event half lives in `trace_export.rs`). The deterministic pass of the
//! trace showcase runs the corpus through the RMCA-plus-gap-oracle and
//! SAT-exact pipelines; every counter it ticks — solver decisions and
//! conflicts, search nodes, encoded CNF sizes, pipeline run counts — is a
//! pure function of the work performed, so `MVP_THREADS=1` and
//! `MVP_THREADS=8` must produce the same `counter,value` bytes.
//!
//! The trace registry is process-global, so both widths run inside one
//! test function (integration tests get their own process; in-process
//! parallelism is what this file must avoid).

use mvp_bench::trace::{deterministic_pass, TraceParams};
use mvp_exec::Executor;
use std::sync::Arc;

fn snapshot_at(threads: usize, params: &TraceParams) -> String {
    mvp_trace::set_enabled(false);
    mvp_trace::reset();
    let executor = Arc::new(Executor::new(threads));
    deterministic_pass(params, &executor);
    mvp_trace::snapshot_csv()
}

#[test]
fn counter_snapshot_is_byte_identical_for_1_and_8_threads() {
    let params = TraceParams::default();
    let sequential = snapshot_at(1, &params);
    let parallel = snapshot_at(8, &params);
    // Byte-for-byte: same counters, same order, same values.
    assert_eq!(sequential, parallel);
    // The artifact carries no timestamps: every line is exactly
    // `name,value`, over exactly the registry's counter roster.
    let mut lines = sequential.lines();
    assert_eq!(lines.next(), Some("counter,value"));
    let mut names = Vec::new();
    for line in lines {
        let (name, value) = line.split_once(',').expect("two columns");
        let _: u64 = value.parse().expect("integer value");
        names.push(name);
    }
    assert_eq!(
        names,
        [
            "exact.bnb.backjumps",
            "exact.bnb.dominance_cuts",
            "exact.bnb.nodes",
            "exact.sat.cegar_rounds",
            "exact.sat.encoded_clauses",
            "exact.sat.encoded_vars",
            "pipeline.gap_oracle.runs",
            "pipeline.runs",
            "sat.atmostk.aux_vars",
            "sat.conflicts",
            "sat.decisions",
            "sat.learned_clauses",
            "sat.restarts",
        ]
    );
}
