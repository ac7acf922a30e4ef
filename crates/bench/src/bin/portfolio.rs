//! SAT-vs-branch-and-bound differential over the gap corpus.
//!
//! Usage: `portfolio [--loops N] [--max-ops N] [--seed S] [--budget STEPS]`
//!
//! Every (loop, machine) point is solved by pure branch-and-bound, pure
//! CDCL SAT and the dovetailed portfolio; any certificate disagreement or
//! validator violation panics, so CI turns soundness bugs into red builds.
//! With `MVP_PORTFOLIO_CSV=<path>` the per-row portfolio results (winner,
//! branch-and-bound nodes, SAT conflicts, inclusive portfolio steps) are
//! written as the `portfolio-solvers.csv` artifact.

use mvp_bench::gap::GapParams;
use mvp_bench::portfolio::{render, run, table};
use mvp_bench::report::{arg, write_env_artifact};
use mvp_exec::Executor;

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

    let rows = run(&params, &Executor::global());
    print!("{}", render(&rows));

    write_env_artifact("MVP_PORTFOLIO_CSV", &format!("{} rows", rows.len()), || {
        table(&rows).to_csv()
    });
}
