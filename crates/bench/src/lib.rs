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
//! * `wallclock` — suite wall-clock per executor thread count
//!   (`MVP_WALLCLOCK_CSV` for the CI artifact),
//! * `serve` — batch service replay: cold pass vs warm cache-hit replays
//!   of the suite stream, sustained loops/sec (`MVP_SERVE_CSV` for the CI
//!   artifact),
//! * `trace` — observability showcase: a chrome://tracing JSON export
//!   covering every instrumented layer plus the deterministic
//!   stable-counter snapshot (`MVP_TRACE_JSON` / `MVP_METRICS_CSV` for the
//!   CI artifacts),
//!
//! and the Criterion benches in `benches/` measure scheduler / simulator
//! throughput plus the ablations called out in `DESIGN.md`.
//!
//! The library part of the crate contains the reusable machinery: running
//! one (loop, machine, scheduler, threshold) point, aggregating a whole
//! workload suite, formatting result tables, and dependency-free JSON
//! report emission (`MVP_REPORT_JSON`). Every heavy driver — the fig5/fig6
//! grid sweeps, the gap tables and the wall-clock runner — fans its work
//! out as jobs on the shared work-stealing executor of `mvp-exec`, with
//! byte-identical output for any thread count.

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
pub mod serve;
pub mod table1;
pub mod trace;
pub mod wallclock;

pub use runner::{run_loop, run_suite, RunConfig, RunResult, SchedulerKind, SuiteResult};
