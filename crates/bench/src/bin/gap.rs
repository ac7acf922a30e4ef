//! Optimality-gap table: heuristic II vs the exact scheduler's certified
//! bound on every machine preset.
//!
//! Usage: `gap [--loops N] [--max-ops N] [--seed S] [--budget NODES]
//! [--solver bnb|sat]`
//!
//! The exact engine pricing the rows defaults to branch-and-bound; pass
//! `--solver sat` to price with the CDCL SAT backend instead.
//!
//! Every (loop, machine) point of the table is one job on the shared
//! batch executor (`MVP_THREADS` to override the width); rows are
//! collected in grid order, so the table and artifacts are identical for
//! any thread count except for the two wall-clock columns, `schedule_ms`
//! and `oracle_ms`, which the stdout table shares with the CSV.
//!
//! With `MVP_GAP_CSV=<path>` the rows are additionally written as CSV (the
//! CI bench job uploads this as the `optimality-gap` artifact).

use mvp_bench::gap::{render, run, table, GapParams};
use mvp_bench::report::{arg, write_env_artifact};
use mvp_exact::ExactBackend;
use mvp_exec::Executor;

fn parse_solver(value: &str) -> ExactBackend {
    match value {
        "bnb" => ExactBackend::BranchAndBound,
        "sat" => ExactBackend::Sat,
        other => {
            eprintln!("invalid solver {other:?}: expected bnb or sat");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut params = GapParams::default();
    if let Some(n) = arg(&args, "--loops") {
        params.generated_loops = n;
    }
    if let Some(n) = arg(&args, "--max-ops") {
        params.max_ops = n;
    }
    if let Some(s) = arg(&args, "--seed") {
        params.seed = s;
    }
    if let Some(b) = arg(&args, "--budget") {
        params.node_budget = b;
    }
    if let Some(solver) = arg::<String>(&args, "--solver") {
        params.solver = parse_solver(&solver);
    }

    let rows = run(&params, &Executor::global());
    print!("{}", render(&rows));

    write_env_artifact("MVP_GAP_CSV", &format!("{} rows", rows.len()), || {
        table(&rows).to_csv()
    });
}
