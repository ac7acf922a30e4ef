//! `multivliw` — a reproduction of *"Modulo Scheduling for a
//! Fully-Distributed Clustered VLIW Architecture"* (Sánchez & González,
//! MICRO-33, 2000) as a Rust workspace.
//!
//! This facade crate re-exports the workspace crates so applications can
//! depend on a single crate:
//!
//! * [`machine`] — the multiVLIWprocessor machine model (clusters, buses,
//!   Table-1 presets),
//! * [`ir`] — the loop IR and data-dependence graphs,
//! * [`resmodel`] — the shared incremental modulo-constraint kernel every
//!   scheduler reserves through (placements, bus transfers, MaxLive),
//! * [`cache`] — the CME-style data-locality analysis,
//! * [`core`] — the modulo schedulers (Baseline and RMCA, the paper's
//!   contribution),
//! * [`exact`] — the branch-and-bound exact scheduler: an optimality oracle
//!   that proves how far the heuristics land from the best possible II,
//! * [`exec`] — the scoped-thread batch executor every heavy path
//!   (per-loop pipeline runs, gap-oracle calls, bench sweeps, fuzz cases)
//!   runs on,
//! * [`schedcache`] — the sharded, content-addressed schedule cache the
//!   service runtime replays repeated loops from,
//! * [`sim`] — the cycle-level simulator with distributed coherent caches,
//! * [`workloads`] — the synthetic SPECfp95-modelled kernels and the
//!   Figure-3 motivating example.
//!
//! On top of the re-exports, the facade adds the two pieces that tie the
//! crates together:
//!
//! * [`pipeline`] — the builder-style [`Pipeline`], the single place the
//!   schedule → simulate → report sequence lives,
//! * [`error`] — the unified [`enum@Error`] every layer's failure converts
//!   into.
//!
//! # Quickstart
//!
//! ```
//! use multivliw::machine::presets;
//! use multivliw::pipeline::{Pipeline, SchedulerChoice};
//! use multivliw::workloads::motivating::{motivating_loop, MotivatingParams};
//!
//! # fn main() -> multivliw::Result<()> {
//! let (l, _) = motivating_loop(&MotivatingParams::default());
//! let pipeline = Pipeline::builder()
//!     .scheduler(SchedulerChoice::Rmca)
//!     .machine(presets::two_cluster())
//!     .build()?;
//! let report = pipeline.run(&l)?;
//! println!("II = {}, total cycles = {}", report.ii, report.total_cycles());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod pipeline;

pub use error::{Error, Result};
pub use pipeline::{
    CachedLoopReport, LoopReport, Pipeline, PipelineBuilder, PipelineReport, PipelineScheduleCache,
    SchedulerChoice,
};

pub use mvp_cache as cache;
pub use mvp_core as core;
pub use mvp_exact as exact;
pub use mvp_exec as exec;
pub use mvp_ir as ir;
pub use mvp_machine as machine;
pub use mvp_resmodel as resmodel;
pub use mvp_schedcache as schedcache;
pub use mvp_sim as sim;
pub use mvp_workloads as workloads;
