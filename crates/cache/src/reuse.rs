//! Closed-form self-reuse classification of an affine reference, in the
//! reuse-vector terminology of the CME literature:
//!
//! * **self-temporal** reuse: the reference touches the same address on
//!   consecutive innermost iterations (inner stride 0),
//! * **self-spatial** reuse: consecutive innermost iterations stay within the
//!   same cache block often enough to matter (0 < |stride| < block size).
//!
//! Reuse *between* references (group reuse, conflicts) is what the CME
//! estimator in [`crate::cme`] counts directly.

use mvp_ir::{Loop, OpId};
use mvp_machine::CacheGeometry;
use std::fmt;

/// Kind of self-reuse a reference exhibits along the innermost loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReuseKind {
    /// Same address every iteration.
    SelfTemporal,
    /// Nearby addresses: several consecutive iterations share a block.
    SelfSpatial,
    /// Each iteration touches a different block.
    None,
}

impl fmt::Display for ReuseKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ReuseKind::SelfTemporal => "self-temporal",
            ReuseKind::SelfSpatial => "self-spatial",
            ReuseKind::None => "none",
        };
        f.write_str(s)
    }
}

/// Classifies the self-reuse of memory operation `op` along the innermost
/// loop of `l` for a cache with the given block size.
///
/// Returns [`ReuseKind::None`] for non-memory operations.
#[must_use]
pub fn self_reuse(l: &Loop, op: OpId, geometry: CacheGeometry) -> ReuseKind {
    let Some(r) = l.memory_ref_of(op) else {
        return ReuseKind::None;
    };
    let stride = r.inner_stride(l.nest());
    if stride == 0 {
        ReuseKind::SelfTemporal
    } else if stride.unsigned_abs() < geometry.block_bytes {
        ReuseKind::SelfSpatial
    } else {
        ReuseKind::None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvp_ir::Loop;

    fn geometry() -> CacheGeometry {
        CacheGeometry::direct_mapped(1024)
    }

    /// Loads with unit stride, large stride and zero stride.
    fn sample_loop() -> (Loop, OpId, OpId, OpId) {
        let mut b = Loop::builder("reuse");
        let j = b.dimension("J", 4);
        let i = b.dimension("I", 64);
        let a = b.auto_array("A", 8192);
        let c = b.auto_array("C", 8192);
        let unit = b.load("UNIT", b.array_ref(a).stride(i, 8).build());
        let wide = b.load("WIDE", b.array_ref(a).stride(i, 128).build());
        let scalar = b.load("SCALAR", b.array_ref(c).stride(j, 8).build());
        let l = b.build().unwrap();
        (l, unit, wide, scalar)
    }

    #[test]
    fn self_reuse_classification() {
        let (l, unit, wide, scalar) = sample_loop();
        assert_eq!(self_reuse(&l, unit, geometry()), ReuseKind::SelfSpatial);
        assert_eq!(self_reuse(&l, wide, geometry()), ReuseKind::None);
        assert_eq!(self_reuse(&l, scalar, geometry()), ReuseKind::SelfTemporal);
    }

    #[test]
    fn non_memory_ops_have_no_reuse() {
        let mut b = Loop::builder("arith");
        let x = b.fp_op("X");
        let l = b.build().unwrap();
        assert_eq!(self_reuse(&l, x, geometry()), ReuseKind::None);
    }

    #[test]
    fn display_of_reuse_kind() {
        assert_eq!(ReuseKind::SelfTemporal.to_string(), "self-temporal");
        assert_eq!(ReuseKind::SelfSpatial.to_string(), "self-spatial");
        assert_eq!(ReuseKind::None.to_string(), "none");
    }
}
