//! Experiment drivers that regenerate every table and figure of the paper.
//!
//! The binaries in `src/bin/` print the same rows/series the paper reports:
//!
//! * `table1` — the machine configurations (Table 1),
//! * `fig3`  — the motivating example of Section 3 (Figure 3),
//! * `fig5`  — the unbounded-bus sweep (Figure 5a/5b),
//! * `fig6`  — the realistic-bus sweep (Figure 6a/6b); both figures are
//!   one driver, [`fig5::run`] over a [`fig5::Figure`],
//! * `gap`   — heuristic II vs the exact scheduler's certified bound
//!   (optimality-gap tables, `MVP_GAP_CSV` for the CI artifact;
//!   `--solver` picks the exact engine, and the `solver` column names
//!   it),
//! * `trace` — observability showcase: a chrome://tracing JSON export
//!   covering every instrumented layer plus the deterministic
//!   counter snapshot (`MVP_TRACE_JSON` / `MVP_METRICS_CSV` for the
//!   CI artifacts).
//!
//! Timing lives in one place, the `perfbench` package at the repository
//! root: its `sweep`, `exact` and `serve` workloads time the figure grids,
//! the exact engines and the cached pipeline, end to end and per layer.
//! This crate reports results; the only timings it prints are the gap
//! table's per-point `schedule_ms`/`oracle_ms` wall-clock columns.
//!
//! The library part of the crate holds one module per report — [`fig3`],
//! [`fig5`], [`gap`], [`table1`] and [`trace`] — plus
//! [`report`], the one [`report::Table`] every report builds and prints
//! as text or CSV, and [`json`], the dependency-free JSON model behind the
//! chrome-trace export. The drivers call [`multivliw::pipeline::Pipeline`]
//! directly. The figure sweeps and the gap-corpus grids take the executor
//! they fan their work out on, with byte-identical results for any thread
//! count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod fig3;
pub mod fig5;
pub mod gap;
pub mod json;
pub mod report;
pub mod table1;
pub mod trace;

pub use multivliw::pipeline::{LoopReport, PipelineReport, SchedulerChoice};
