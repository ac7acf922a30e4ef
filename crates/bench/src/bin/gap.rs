//! Optimality-gap table: heuristic II vs the exact scheduler's certified
//! bound on every machine preset.
//!
//! Usage: `gap [--loops N] [--max-ops N] [--seed S] [--budget NODES]
//! [--solver bnb|sat|portfolio]`
//!
//! The exact engine pricing the rows defaults to branch-and-bound; pass
//! `--solver` (or set `MVP_GAP_SOLVER`) to price with the CDCL SAT backend
//! or the dovetailed portfolio instead.
//!
//! Every (loop, machine) point of the table is one job on the shared
//! batch executor (`MVP_THREADS` to override the width); rows are
//! collected in grid order, so the table and artifacts are identical for
//! any thread count.
//!
//! With `MVP_GAP_CSV=<path>` the rows are additionally written as CSV (the
//! CI bench job uploads this as the `optimality-gap` artifact).

use mvp_bench::gap::{render, run, to_csv, GapParams};
use mvp_bench::report::write_env_artifact;
use mvp_exact::SolverKind;

fn parse_solver(value: &str) -> SolverKind {
    match value {
        "bnb" => SolverKind::BranchAndBound,
        "sat" => SolverKind::Sat,
        "portfolio" => SolverKind::Portfolio,
        other => {
            eprintln!("invalid solver {other:?}: expected bnb, sat or portfolio");
            std::process::exit(2);
        }
    }
}

fn arg<T: std::str::FromStr>(args: &[String], name: &str) -> Option<T> {
    let pos = args.iter().position(|a| a == name)?;
    let Some(value) = args.get(pos + 1) else {
        eprintln!("missing value for {name}");
        std::process::exit(2);
    };
    match value.parse() {
        Ok(v) => Some(v),
        Err(_) => {
            eprintln!("invalid value for {name}: {value}");
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
    if let Ok(solver) = std::env::var("MVP_GAP_SOLVER") {
        params.solver = parse_solver(&solver);
    }
    if let Some(solver) = arg::<String>(&args, "--solver") {
        params.solver = parse_solver(&solver);
    }

    let rows = run(&params);
    print!("{}", render(&rows));

    write_env_artifact("MVP_GAP_CSV", &format!("{} rows", rows.len()), || {
        to_csv(&rows)
    });
}
