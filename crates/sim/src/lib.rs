//! Cycle-level simulator of the multiVLIWprocessor.
//!
//! The simulator executes a modulo [`Schedule`](mvp_core::Schedule) of a
//! [`Loop`](mvp_ir::Loop) on a [`MachineConfig`](mvp_machine::MachineConfig)
//! and reports the cycle breakdown the paper's evaluation uses:
//!
//! ```text
//! NCYCLE_total = NCYCLE_compute + NCYCLE_stall
//! ```
//!
//! `NCYCLE_compute` is the static part (`NTIMES * (NITER + SC − 1) * II`);
//! `NCYCLE_stall` is accumulated dynamically from the events the compiler
//! could not know about (Section 2.2):
//!
//! * the level that actually serves each memory access — local cache, a
//!   remote cluster's cache (through the snoopy MSI protocol) or main
//!   memory,
//! * waiting for a free MSHR entry in the non-blocking local cache,
//! * waiting for a free memory bus (also used by coherence traffic),
//! * and the fact that consumers were scheduled assuming the optimistic
//!   latency of their producer loads.
//!
//! # Example
//!
//! ```
//! use mvp_core::{ModuloScheduler, RmcaScheduler};
//! use mvp_ir::Loop;
//! use mvp_machine::presets;
//! use mvp_sim::{simulate, SimOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = Loop::builder("stream");
//! let i = b.dimension("I", 128);
//! let a = b.auto_array("A", 8192);
//! let ld = b.load("LD", b.array_ref(a).stride(i, 8).build());
//! let f = b.fp_op("F");
//! b.data_edge(ld, f, 0);
//! let l = b.build()?;
//!
//! let machine = presets::two_cluster();
//! let schedule = RmcaScheduler::new().schedule(&l, &machine)?;
//! let stats = simulate(&l, &schedule, &machine, &SimOptions::new());
//! assert_eq!(stats.total_cycles(), stats.compute_cycles + stats.stall_cycles);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bus;
pub mod engine;
pub mod memory_system;
pub mod mshr;
pub mod msi;
pub mod options;
pub mod stats;

pub use engine::simulate;
pub use memory_system::{AccessOutcome, MemorySystem, ServiceLevel};
pub use msi::{CoherentCache, HitKind, MsiState};
pub use options::SimOptions;
pub use stats::SimStats;
