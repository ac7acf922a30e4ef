//! Experiment drivers that regenerate every table and figure of the paper.
//!
//! The binaries in `src/bin/` print the same rows/series the paper reports:
//!
//! * `table1` — the machine configurations (Table 1),
//! * `fig3`  — the motivating example of Section 3 (Figure 3),
//! * `fig5`  — the unbounded-bus sweep (Figure 5a/5b),
//! * `fig6`  — the realistic-bus sweep (Figure 6a/6b),
//! * `gap`   — heuristic II vs the exact scheduler's certified bound
//!   (optimality-gap tables, `MVP_GAP_CSV` for the CI artifact;
//!   `--solver`/`MVP_GAP_SOLVER` picks the exact engine),
//! * `portfolio` — nightly SAT-vs-branch-and-bound differential over the
//!   gap corpus with a dovetailed portfolio per probe (`MVP_PORTFOLIO_CSV` for
//!   the `portfolio-solvers.csv` artifact),
//! * `trace` — observability showcase: a chrome://tracing JSON export
//!   covering every instrumented layer plus the deterministic
//!   stable-counter snapshot (`MVP_TRACE_JSON` / `MVP_METRICS_CSV` for the
//!   CI artifacts).
//!
//! Timing lives in one place, the `perfbench` package at the repository
//! root: its `sweep`, `exact` and `serve` workloads time the figure grids,
//! the exact engines and the cached pipeline, end to end and per layer.
//! This crate reports results, not timings.
//!
//! The library part of the crate contains the reusable machinery: running
//! one (loop, machine, scheduler, threshold) point, aggregating a whole
//! workload suite, formatting result tables, and the dependency-free JSON
//! model behind the chrome-trace export. Every heavy driver — the
//! fig5/fig6 grid sweeps and the gap tables — fans its work out as jobs on
//! the shared batch executor of `mvp-exec`, with byte-identical
//! output for any thread count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod fig3;
pub mod fig5;
pub mod fig6;
pub mod gap;
pub mod json;
pub mod portfolio;
pub mod report;
pub mod runner;
pub mod table1;
pub mod trace;

pub use runner::{run_loop, run_suite, RunConfig, RunResult, SchedulerKind, SuiteResult};
