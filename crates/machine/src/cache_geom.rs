//! Geometry of a local L1 data cache.

use crate::error::MachineError;

/// Geometry of a (set-associative) data cache.
///
/// The paper's local caches are direct-mapped, non-blocking and hold an equal
/// share of an 8 KB total L1 capacity; the geometry is nevertheless kept
/// general so that associativity and capacity studies are possible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Cache block (line) size in bytes.
    pub block_bytes: u64,
    /// Associativity (1 = direct-mapped).
    pub associativity: u64,
    /// Number of MSHR entries of the non-blocking cache (Table 1 uses 10).
    pub mshr_entries: usize,
}

impl CacheGeometry {
    /// Creates a direct-mapped geometry with the paper's default 32-byte
    /// blocks and 10 MSHR entries.
    #[must_use]
    pub fn direct_mapped(capacity_bytes: u64) -> Self {
        Self {
            capacity_bytes,
            block_bytes: 32,
            associativity: 1,
            mshr_entries: 10,
        }
    }

    /// Number of cache sets.
    #[must_use]
    pub fn num_sets(&self) -> u64 {
        self.capacity_bytes / (self.block_bytes * self.associativity)
    }

    /// Cache set index of a byte address.
    #[must_use]
    pub fn set_of(&self, address: u64) -> u64 {
        (address / self.block_bytes) % self.num_sets()
    }

    /// Block-aligned tag of a byte address (block number).
    #[must_use]
    pub fn block_of(&self, address: u64) -> u64 {
        address / self.block_bytes
    }

    /// Validates the geometry.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::InvalidCacheGeometry`] when the capacity or
    /// block size is zero, the block size is not a power of two, the capacity
    /// is not a multiple of `block_bytes * associativity`, or the MSHR has no
    /// entries.
    pub fn validate(&self) -> Result<(), MachineError> {
        let err = |reason: &str| MachineError::InvalidCacheGeometry {
            reason: reason.to_string(),
        };
        if self.capacity_bytes == 0 {
            return Err(err("capacity is zero"));
        }
        if self.block_bytes == 0 {
            return Err(err("block size is zero"));
        }
        if !self.block_bytes.is_power_of_two() {
            return Err(err("block size is not a power of two"));
        }
        if self.associativity == 0 {
            return Err(err("associativity is zero"));
        }
        if !self
            .capacity_bytes
            .is_multiple_of(self.block_bytes * self.associativity)
        {
            return Err(err(
                "capacity is not a multiple of block size times associativity",
            ));
        }
        if self.capacity_bytes < self.block_bytes {
            return Err(err("capacity is smaller than one block"));
        }
        if self.mshr_entries == 0 {
            return Err(err("MSHR has no entries"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_mapped_defaults() {
        let g = CacheGeometry::direct_mapped(4096);
        assert_eq!(g.associativity, 1);
        assert_eq!(g.block_bytes, 32);
        assert_eq!(g.num_sets(), 128);
        assert_eq!(g.mshr_entries, 10);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn set_mapping_wraps_modulo_sets() {
        let g = CacheGeometry::direct_mapped(1024); // 32 sets
        assert_eq!(g.num_sets(), 32);
        assert_eq!(g.set_of(0), 0);
        assert_eq!(g.set_of(31), 0);
        assert_eq!(g.set_of(32), 1);
        // Addresses one cache-capacity apart map to the same set: ping-pong.
        assert_eq!(g.set_of(40), g.set_of(40 + 1024));
        assert_eq!(g.set_of(40), g.set_of(40 + 3 * 1024));
    }

    #[test]
    fn block_of_is_address_over_block_size() {
        let g = CacheGeometry::direct_mapped(4096);
        assert_eq!(g.block_of(0), 0);
        assert_eq!(g.block_of(31), 0);
        assert_eq!(g.block_of(32), 1);
        assert_eq!(g.block_of(64), 2);
    }

    #[test]
    fn invalid_geometries_are_rejected() {
        let mut g = CacheGeometry::direct_mapped(4096);
        g.capacity_bytes = 0;
        assert!(g.validate().is_err());

        let mut g = CacheGeometry::direct_mapped(4096);
        g.block_bytes = 48; // not a power of two
        assert!(g.validate().is_err());

        let mut g = CacheGeometry::direct_mapped(4096);
        g.block_bytes = 0;
        assert!(g.validate().is_err());

        let mut g = CacheGeometry::direct_mapped(4096);
        g.associativity = 0;
        assert!(g.validate().is_err());

        let mut g = CacheGeometry::direct_mapped(4096);
        g.mshr_entries = 0;
        assert!(g.validate().is_err());

        let mut g = CacheGeometry::direct_mapped(4096);
        g.capacity_bytes = 100; // not a multiple of the block size
        assert!(g.validate().is_err());
    }

    #[test]
    fn two_way_geometry_halves_sets() {
        let g = CacheGeometry {
            capacity_bytes: 4096,
            block_bytes: 32,
            associativity: 2,
            mshr_entries: 10,
        };
        assert!(g.validate().is_ok());
        assert_eq!(g.num_sets(), 64);
    }
}
