//! Per-cluster configuration: functional units, register file and local cache.

use crate::cache_geom::CacheGeometry;
use crate::error::MachineError;
use crate::fu::FuKind;

/// Configuration of one cluster of the multiVLIWprocessor.
///
/// Every cluster owns its functional units, a local register file and a local
/// slice of the L1 data cache (plus a local instruction cache which is not
/// modelled further since instruction fetch never stalls in the paper's
/// experiments).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ClusterConfig {
    /// Number of functional units of each kind, indexed by [`FuKind::index`].
    fu_counts: [usize; 3],
    /// Number of general-purpose registers in the local register file.
    pub register_file_size: usize,
    /// Geometry of the local L1 data cache.
    pub cache: CacheGeometry,
}

impl ClusterConfig {
    /// Creates a cluster with `int`/`float`/`memory` functional units, a
    /// register file of `registers` entries and the given local cache.
    #[must_use]
    pub fn new(
        int: usize,
        float: usize,
        memory: usize,
        registers: usize,
        cache: CacheGeometry,
    ) -> Self {
        Self {
            fu_counts: [int, float, memory],
            register_file_size: registers,
            cache,
        }
    }

    /// Number of functional units of the given kind.
    #[must_use]
    pub fn fu_count(&self, kind: FuKind) -> usize {
        self.fu_counts[kind.index()]
    }

    /// Total number of functional units (the cluster's issue width).
    #[must_use]
    pub fn issue_width(&self) -> usize {
        self.fu_counts.iter().sum()
    }

    /// Validates the cluster: it must contain at least one functional unit, a
    /// non-empty register file and a valid cache geometry.
    ///
    /// # Errors
    ///
    /// Returns the first violation found as a [`MachineError`]; the `cluster`
    /// index recorded in the error is the one supplied by the caller.
    pub fn validate(&self, cluster_index: usize) -> Result<(), MachineError> {
        if self.issue_width() == 0 {
            return Err(MachineError::EmptyCluster {
                cluster: cluster_index,
            });
        }
        if self.register_file_size == 0 {
            return Err(MachineError::InvalidCacheGeometry {
                reason: format!("cluster {cluster_index} has an empty register file"),
            });
        }
        self.cache.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache() -> CacheGeometry {
        CacheGeometry::direct_mapped(4096)
    }

    #[test]
    fn fu_counts_and_issue_width() {
        let c = ClusterConfig::new(2, 2, 2, 32, cache());
        assert_eq!(c.fu_count(FuKind::Integer), 2);
        assert_eq!(c.fu_count(FuKind::Float), 2);
        assert_eq!(c.fu_count(FuKind::Memory), 2);
        assert_eq!(c.issue_width(), 6);
        assert!(c.validate(0).is_ok());
    }

    #[test]
    fn empty_cluster_is_rejected() {
        let c = ClusterConfig::new(0, 0, 0, 32, cache());
        assert_eq!(
            c.validate(5),
            Err(MachineError::EmptyCluster { cluster: 5 })
        );
    }

    #[test]
    fn empty_register_file_is_rejected() {
        let c = ClusterConfig::new(1, 1, 1, 0, cache());
        assert!(c.validate(0).is_err());
    }

    #[test]
    fn invalid_cache_is_rejected() {
        let mut bad = cache();
        bad.block_bytes = 3;
        let c = ClusterConfig::new(1, 1, 1, 32, bad);
        assert!(c.validate(0).is_err());
    }
}
