//! `mvp-resmodel` — the shared **incremental modulo-constraint kernel** of
//! the multiVLIW reproduction.
//!
//! Every scheduler in this workspace enforces the same rule set — modulo
//! functional-unit reservation, bus-aware dependence distances,
//! communication windows, finite-bus occupancy, MaxLive register pressure —
//! and before this crate each of them carried a private implementation of
//! those rules. Following the single-constraint-model discipline of the
//! exact-scheduling literature (Tirelli et al.'s SAT-based exact modulo
//! scheduling, Roorda's SMT-based optimal software pipelining), this crate
//! centralises the rules behind one incremental kernel that heuristic and
//! exact engines both consume:
//!
//! * [`ResModel`] — the static constraint model of one (loop, machine)
//!   pair: latencies, unit kinds and counts, bus configuration, register
//!   files, counting certificates.
//! * [`PartialSchedule`] — the dynamic kernel: `place` / `unplace` with
//!   O(delta) feasibility deltas and LIFO (trail-style) undo, per-rule
//!   query APIs (functional-unit slot occupancy, dependence windows
//!   including the bus latency, communication windows, bus capacity,
//!   incremental MaxLive), and a [`freeze`](PartialSchedule::freeze)
//!   exporter producing a [`Schedule`].
//! * [`AcyclicFuTable`] / [`AcyclicBusTable`] — the absolute-cycle
//!   (non-modulo) counterparts the list scheduler builds on.
//! * [`schedule`] / [`lifetime`] — the schedule artifact
//!   ([`Schedule`], [`PlacedOp`], [`Communication`]) and the MaxLive
//!   register-pressure model, re-exported by `mvp-core`.
//!
//! The independent legality oracle (`mvp_core::validate`) deliberately does
//! **not** build on this crate: it re-derives every rule from the finished
//! schedule alone, so randomized differential testing can hold the kernel
//! and the oracle against each other. The [`partial`] module documentation
//! maps every kernel rule to its `Violation` counterpart and to the paper's
//! Section-4 constraints.
//!
//! # Example
//!
//! ```
//! use mvp_resmodel::{PartialSchedule, ResModel};
//! use mvp_ir::Loop;
//! use mvp_machine::presets;
//!
//! let mut b = Loop::builder("demo");
//! let x = b.fp_op("X");
//! let y = b.fp_op("Y");
//! b.data_edge(x, y, 0);
//! let l = b.build().expect("valid loop");
//! let machine = presets::two_cluster();
//!
//! let model = ResModel::new(&l, &machine).expect("valid model");
//! let mut ps = PartialSchedule::new(&model, 1);
//! let first = ps.place(x, 0, 0, 2, false, 0).expect("cycle 0 is free");
//! let _second = ps.place(y, 0, 2, 2, false, 1).expect("after the latency");
//! let schedule = ps.freeze("demo");
//! assert_eq!(schedule.ii(), 1);
//! assert_eq!(first.num_transfers(), 0); // co-located: no bus transfer
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod acyclic;
pub mod error;
pub mod lifetime;
pub mod model;
pub mod partial;
pub mod schedule;

pub use acyclic::{AcyclicBusTable, AcyclicFuTable, BusCheckpoint};
pub use error::ModelError;
pub use model::ResModel;
pub use partial::{
    NeighbourBounds, PartialSchedule, PlaceError, PlaceHandle, Placed, Token, TransferId,
    TransferPair,
};
pub use schedule::{Communication, PlacedOp, Schedule};
