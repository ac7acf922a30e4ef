//! Nightly SAT-vs-branch-and-bound differential over the gap corpus.
//!
//! Usage: `portfolio [--loops N] [--max-ops N] [--seed S] [--budget STEPS]`
//!
//! Every (loop, machine) point is solved by pure branch-and-bound, pure
//! CDCL SAT and the dovetailed portfolio; any certificate disagreement or
//! validator violation panics, so CI turns soundness bugs into red builds.
//! With `MVP_PORTFOLIO_CSV=<path>` the per-row portfolio results (winner,
//! branch-and-bound nodes, SAT conflicts, inclusive portfolio steps) are
//! written as the `portfolio-solvers.csv` artifact.
//!
//! The same run also drives the incremental-vs-scratch SAT differential:
//! each point is solved twice by the SAT backend (persistent session vs
//! per-probe re-encoding), pinned to identical verdicts, and the per-loop
//! step/wallclock/retention comparison is written as the
//! `sat-incremental.csv` artifact (`MVP_SAT_INCR_CSV=<path>`). The process
//! exits non-zero when the incremental mode spends more total SAT steps on
//! the corpus than the from-scratch mode — clause retention must pay for
//! itself in aggregate.

use mvp_bench::gap::GapParams;
use mvp_bench::portfolio::{
    incremental_to_csv, incremental_totals, render, render_incremental, run, run_incremental,
    to_csv,
};
use mvp_bench::report::write_env_artifact;

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

    let rows = run(&params);
    print!("{}", render(&rows));

    write_env_artifact("MVP_PORTFOLIO_CSV", &format!("{} rows", rows.len()), || {
        to_csv(&rows)
    });

    let incr_rows = run_incremental(&params);
    print!("{}", render_incremental(&incr_rows));

    write_env_artifact(
        "MVP_SAT_INCR_CSV",
        &format!("{} rows", incr_rows.len()),
        || incremental_to_csv(&incr_rows),
    );

    let (incremental, scratch) = incremental_totals(&incr_rows);
    if incremental > scratch {
        eprintln!(
            "incremental SAT spent {incremental} steps on the corpus, \
             more than the {scratch} from-scratch steps"
        );
        std::process::exit(1);
    }
}
