//! Functional-unit kinds of the multiVLIWprocessor.
//!
//! The paper assumes three kinds of functional units per cluster: integer
//! arithmetic, floating-point arithmetic and memory ports (Section 2.1).

use std::fmt;

/// Kind of a functional unit (and, by extension, of the operation classes it
/// can execute).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FuKind {
    /// Integer arithmetic / logic unit.
    Integer,
    /// Floating-point arithmetic unit.
    Float,
    /// Memory port (executes loads and stores against the local L1 cache).
    Memory,
}

impl FuKind {
    /// All functional-unit kinds, in a fixed canonical order.
    pub const ALL: [FuKind; 3] = [FuKind::Integer, FuKind::Float, FuKind::Memory];

    /// Canonical index of this kind (0, 1 or 2), usable to index per-kind
    /// arrays.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            FuKind::Integer => 0,
            FuKind::Float => 1,
            FuKind::Memory => 2,
        }
    }

    /// Inverse of [`FuKind::index`]. Returns `None` for indices `>= 3`.
    #[must_use]
    pub fn from_index(index: usize) -> Option<Self> {
        match index {
            0 => Some(FuKind::Integer),
            1 => Some(FuKind::Float),
            2 => Some(FuKind::Memory),
            _ => None,
        }
    }
}

impl fmt::Display for FuKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            FuKind::Integer => "integer",
            FuKind::Float => "float",
            FuKind::Memory => "memory",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_roundtrip() {
        for kind in FuKind::ALL {
            assert_eq!(FuKind::from_index(kind.index()), Some(kind));
        }
        assert_eq!(FuKind::from_index(3), None);
        assert_eq!(FuKind::from_index(usize::MAX), None);
    }

    #[test]
    fn all_kinds_are_distinct() {
        let mut indices: Vec<usize> = FuKind::ALL.iter().map(|k| k.index()).collect();
        indices.sort_unstable();
        indices.dedup();
        assert_eq!(indices.len(), 3);
    }

    #[test]
    fn display_names() {
        assert_eq!(FuKind::Integer.to_string(), "integer");
        assert_eq!(FuKind::Float.to_string(), "float");
        assert_eq!(FuKind::Memory.to_string(), "memory");
    }

    #[test]
    fn ordering_follows_canonical_index() {
        assert!(FuKind::Integer < FuKind::Float);
        assert!(FuKind::Float < FuKind::Memory);
    }
}
