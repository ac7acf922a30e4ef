//! Observability showcase: run the instrumented pipeline stack, export a
//! chrome://tracing JSON trace and the deterministic metrics snapshot.
//!
//! Usage: `trace [--loops N] [--max-ops N] [--budget N] [--threads T]`
//!
//! The run makes two passes (see [`mvp_bench::trace`]): a deterministic
//! pass whose counter snapshot is byte-identical at any `MVP_THREADS`,
//! then a traced showcase pass over the SAT-exact pipeline with a shared
//! schedule cache, whose hits, misses and evictions the summary prints.
//! With `MVP_TRACE_JSON=<path>` the drained events are written in the
//! chrome trace event format (open in `chrome://tracing` or Perfetto);
//! with `MVP_METRICS_CSV=<path>` the deterministic snapshot is written as
//! `counter,value` CSV.
//!
//! The binary exits non-zero when the event stream fails to cover every
//! instrumented layer — the CI trace-smoke job runs it exactly for that
//! guarantee.

use mvp_bench::report::{arg, write_env_artifact};
use mvp_bench::trace::{
    chrome_trace_json, render, run, TraceParams, METRICS_CSV_ENV_VAR, TRACE_JSON_ENV_VAR,
};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut params = TraceParams::default();
    if let Some(loops) = arg(&args, "--loops") {
        params.generated_loops = loops;
    }
    if let Some(max_ops) = arg(&args, "--max-ops") {
        params.max_ops = max_ops;
    }
    if let Some(budget) = arg(&args, "--budget") {
        params.node_budget = budget;
    }
    if let Some(threads) = arg::<usize>(&args, "--threads") {
        if threads == 0 {
            eprintln!("invalid value for --threads: 0 (must be positive)");
            std::process::exit(2);
        }
        params.threads = Some(threads);
    }

    let outcome = run(&params);
    print!("{}", render(&outcome));

    write_env_artifact(
        TRACE_JSON_ENV_VAR,
        &format!("{} trace events", outcome.events.len()),
        || format!("{}\n", chrome_trace_json(&outcome.events)),
    );
    write_env_artifact(METRICS_CSV_ENV_VAR, "metrics snapshot", || {
        outcome.snapshot_csv.clone()
    });

    let missing = outcome.missing_layers();
    if !missing.is_empty() {
        eprintln!("trace is missing instrumented layers: {missing:?}");
        std::process::exit(1);
    }
}
