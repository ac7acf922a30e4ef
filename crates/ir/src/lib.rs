//! Loop intermediate representation for modulo scheduling on the
//! multiVLIWprocessor.
//!
//! The crate models exactly what the RMCA scheduler of Sánchez & González
//! (MICRO 2000) consumes:
//!
//! * [`Operation`]s of the three classes the machine executes (integer,
//!   floating point, memory), with memory operations carrying an affine
//!   [`ArrayRef`] into a declared [`Array`],
//! * a [`LoopNest`] describing the iteration space (the innermost dimension
//!   is the one that is software-pipelined),
//! * a data-dependence graph ([`Loop`]) whose edges carry an iteration
//!   [`distance`](DepEdge::distance) for loop-carried dependences,
//! * the lower bounds on the initiation interval ([`mii`]), the recurrence
//!   analysis ([`recurrence`]) and the node [`ordering`] used by the
//!   schedulers.
//!
//! # Example
//!
//! ```
//! use mvp_ir::{Loop, OpKind};
//! use mvp_machine::presets;
//!
//! // DO I = 1, N:  A(I) = A(I) + s
//! let mut b = Loop::builder("axpy-like");
//! let i = b.dimension("I", 128);
//! let a = b.array("A", 0x1000, 1024);
//! let ld = b.load("LD", b.array_ref(a).stride(i, 8).build());
//! let add = b.fp_op("ADD");
//! let st = b.store("ST", b.array_ref(a).stride(i, 8).build());
//! b.data_edge(ld, add, 0);
//! b.data_edge(add, st, 0);
//! let l = b.build().unwrap();
//!
//! assert_eq!(l.num_ops(), 3);
//! assert_eq!(l.op(add).kind, OpKind::FpOp);
//! let machine = presets::two_cluster();
//! assert!(mvp_ir::mii::minimum_ii(&l, &machine) >= 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod array;
pub mod dot;
pub mod edge;
pub mod graph;
pub mod loop_nest;
pub mod mii;
pub mod op;
pub mod ordering;
pub mod recurrence;

pub use array::{Array, ArrayId, ArrayRef, ArrayRefBuilder};
pub use edge::{DepEdge, EdgeKind};
pub use graph::{IrError, Loop, LoopBuilder};
pub use loop_nest::{DimId, LoopDim, LoopNest};
pub use op::{OpId, OpKind, Operation};
