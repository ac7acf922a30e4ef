//! Workloads for the multiVLIWprocessor evaluation.
//!
//! The paper evaluates its schedulers on the modulo-scheduled innermost loops
//! of eight SPECfp95 programs (tomcatv, swim, su2cor, hydro2d, mgrid, applu,
//! turb3d and apsi) compiled with the ICTINEO compiler. Neither the benchmark
//! sources nor that compiler are available here, so this crate provides
//! *synthetic* kernels expressed directly in the `mvp-ir` loop IR, modelled on
//! the dominant innermost loops of each program: the operation mix
//! (loads/stores/FP/integer), the dependence structure (including the
//! recurrences of the solvers), the affine access patterns (unit-stride
//! streams, 2D/3D stencils, large power-of-two strides) and array layouts
//! that exercise the same cache behaviours (group reuse across unrolled
//! references, cross-array conflict misses in small direct-mapped caches).
//! *Notes* in the repository README records this substitution.
//!
//! Also provided:
//!
//! * [`motivating`] — the exact loop of the paper's Figure 3,
//! * [`generator`] — a seeded random-loop generator used by property tests,
//! * [`suite`](mod@suite) — the eight named kernels packaged for the benchmark harness.
//!
//! # Example
//!
//! ```
//! use mvp_workloads::suite::{suite, SuiteParams};
//!
//! let workloads = suite(&SuiteParams::default());
//! assert_eq!(workloads.len(), 8);
//! for w in &workloads {
//!     assert!(!w.loops.is_empty());
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod generator;
pub use mvp_testutil::rng;
pub mod kernels;
pub mod motivating;
pub mod suite;

pub use generator::{is_modulo_schedulable, GeneratorConfig, GeneratorMode, LoopGenerator};
pub use motivating::{motivating_loop, MotivatingParams};
pub use suite::{suite, SuiteParams, Workload};

/// Number of operations of each kind, `(int, fp, load, store)`, for the
/// kernels' operation-mix tests.
#[cfg(test)]
fn op_counts(l: &mvp_ir::Loop) -> (usize, usize, usize, usize) {
    let count = |kind| l.ops().iter().filter(|op| op.kind == kind).count();
    (
        count(mvp_ir::OpKind::IntOp),
        count(mvp_ir::OpKind::FpOp),
        count(mvp_ir::OpKind::Load),
        count(mvp_ir::OpKind::Store),
    )
}
