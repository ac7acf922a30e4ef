//! Arrays and affine array references.
//!
//! A reference is *affine* when the accessed element is a linear function of
//! the loop induction variables — the common case in the numeric codes the
//! paper evaluates and the prerequisite for the Cache Miss Equations
//! analysis. A reference computes a byte address
//!
//! ```text
//! addr(iv) = base(array) + offset + Σ_d stride_d * iv_d
//! ```
//!
//! where strides and the offset are expressed in bytes.

use crate::loop_nest::{DimId, LoopNest};
use std::fmt;

/// Identifier of an [`Array`] within a [`crate::Loop`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ArrayId(pub(crate) u32);

impl ArrayId {
    /// Index of the array in [`crate::Loop::arrays`] order.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an identifier from a raw index.
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        Self(index as u32)
    }
}

impl fmt::Display for ArrayId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "array{}", self.0)
    }
}

/// A declared array (or scalar region) with a base address in the simulated
/// address space.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Array {
    /// Identifier of the array.
    pub id: ArrayId,
    /// Name of the array (e.g. `"B"`).
    pub name: String,
    /// Base byte address of the array in the simulated address space. Base
    /// addresses matter: the Figure-3 ping-pong interference appears exactly
    /// when two arrays are a multiple of the cache capacity apart.
    pub base_address: u64,
    /// Size of the array in bytes (used for placing arrays without
    /// overlap).
    pub size_bytes: u64,
}

/// An affine reference into an array, attached to a load or store operation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ArrayRef {
    /// The referenced array.
    pub array: ArrayId,
    /// Constant byte offset from the array base.
    pub offset: i64,
    /// Byte stride per loop dimension, indexed by [`DimId::index`]. Missing
    /// entries (shorter vector) behave as stride 0.
    pub strides: Vec<i64>,
    /// Size in bytes of the accessed element (8 for double precision).
    pub element_bytes: u32,
}

impl ArrayRef {
    /// Starts building a reference to `array`.
    #[must_use]
    pub fn builder(array: ArrayId) -> ArrayRefBuilder {
        ArrayRefBuilder {
            array,
            offset: 0,
            strides: Vec::new(),
            element_bytes: 8,
        }
    }

    /// Byte stride of the reference along dimension `dim` (0 when the
    /// reference does not depend on that dimension).
    #[must_use]
    pub fn stride(&self, dim: DimId) -> i64 {
        self.strides.get(dim.index()).copied().unwrap_or(0)
    }

    /// Byte stride along the innermost dimension of `nest`.
    #[must_use]
    pub fn inner_stride(&self, nest: &LoopNest) -> i64 {
        nest.innermost().map_or(0, |d| self.stride(d))
    }

    /// Byte address accessed at iteration vector `iv`, given the base address
    /// of the referenced array.
    ///
    /// `iv` entries beyond the stride vector are ignored; missing entries
    /// behave as 0.
    #[must_use]
    pub fn address(&self, array_base: u64, iv: &[u64]) -> u64 {
        let mut addr = array_base as i64 + self.offset;
        for (d, stride) in self.strides.iter().enumerate() {
            let i = iv.get(d).copied().unwrap_or(0) as i64;
            addr += stride * i;
        }
        debug_assert!(addr >= 0, "affine reference computed a negative address");
        addr.max(0) as u64
    }
}

impl fmt::Display for ArrayRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{:+}", self.array, self.offset)?;
        for (d, s) in self.strides.iter().enumerate() {
            if *s != 0 {
                write!(f, " {:+}*i{}", s, d)?;
            }
        }
        write!(f, "]")
    }
}

/// Builder for [`ArrayRef`] (obtained from [`ArrayRef::builder`] or
/// [`crate::LoopBuilder::array_ref`]).
#[derive(Debug, Clone)]
pub struct ArrayRefBuilder {
    array: ArrayId,
    offset: i64,
    strides: Vec<i64>,
    element_bytes: u32,
}

impl ArrayRefBuilder {
    /// Sets the constant byte offset from the array base.
    #[must_use]
    pub fn offset(mut self, offset_bytes: i64) -> Self {
        self.offset = offset_bytes;
        self
    }

    /// Sets the byte stride along dimension `dim`.
    #[must_use]
    pub fn stride(mut self, dim: DimId, stride_bytes: i64) -> Self {
        if self.strides.len() <= dim.index() {
            self.strides.resize(dim.index() + 1, 0);
        }
        self.strides[dim.index()] = stride_bytes;
        self
    }

    /// Sets the element size in bytes (defaults to 8, double precision).
    #[must_use]
    pub fn element_bytes(mut self, bytes: u32) -> Self {
        self.element_bytes = bytes;
        self
    }

    /// Finishes building the reference.
    #[must_use]
    pub fn build(self) -> ArrayRef {
        ArrayRef {
            array: self.array,
            offset: self.offset,
            strides: self.strides,
            element_bytes: self.element_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loop_nest::LoopNest;

    fn nest_2d() -> (LoopNest, DimId, DimId) {
        let mut nest = LoopNest::new();
        let j = nest.push_dimension("J", 4);
        let i = nest.push_dimension("I", 8);
        (nest, j, i)
    }

    #[test]
    fn builder_sets_fields() {
        let (_, j, i) = nest_2d();
        let r = ArrayRef::builder(ArrayId::from_index(2))
            .offset(16)
            .stride(i, 8)
            .stride(j, 256)
            .element_bytes(4)
            .build();
        assert_eq!(r.array.index(), 2);
        assert_eq!(r.offset, 16);
        assert_eq!(r.stride(i), 8);
        assert_eq!(r.stride(j), 256);
        assert_eq!(r.element_bytes, 4);
        // A dimension never set has stride 0.
        assert_eq!(r.stride(DimId::from_index(7)), 0);
    }

    #[test]
    fn address_is_affine_in_the_iteration_vector() {
        let (_, j, i) = nest_2d();
        let r = ArrayRef::builder(ArrayId::from_index(0))
            .offset(8)
            .stride(i, 8)
            .stride(j, 64)
            .build();
        let base = 0x1000;
        assert_eq!(r.address(base, &[0, 0]), 0x1008);
        assert_eq!(r.address(base, &[0, 3]), 0x1008 + 24);
        assert_eq!(r.address(base, &[2, 3]), 0x1008 + 128 + 24);
        // Shorter iteration vectors treat missing dims as zero.
        assert_eq!(r.address(base, &[2]), 0x1008 + 128);
        assert_eq!(r.address(base, &[]), 0x1008);
    }

    #[test]
    fn negative_offsets_are_supported() {
        let (_, _, i) = nest_2d();
        let r = ArrayRef::builder(ArrayId::from_index(0))
            .offset(-8)
            .stride(i, 8)
            .build();
        assert_eq!(r.address(0x1000, &[0, 1]), 0x1000);
        assert_eq!(r.address(0x1000, &[0, 0]), 0x1000 - 8);
    }

    #[test]
    fn inner_stride_is_the_innermost_dimension_stride() {
        let (nest, j, i) = nest_2d();
        let varies = ArrayRef::builder(ArrayId::from_index(0))
            .stride(i, 8)
            .build();
        let constant = ArrayRef::builder(ArrayId::from_index(0))
            .stride(j, 8)
            .build();
        assert_eq!(varies.inner_stride(&nest), 8);
        assert_eq!(constant.inner_stride(&nest), 0);
    }

    #[test]
    fn display_mentions_nonzero_strides_only() {
        let (_, j, i) = nest_2d();
        let r = ArrayRef::builder(ArrayId::from_index(1))
            .offset(8)
            .stride(i, 8)
            .stride(j, 0)
            .build();
        let s = r.to_string();
        assert!(s.contains("array1"));
        assert!(s.contains("+8*i1"));
        assert!(!s.contains("i0"));
    }
}
