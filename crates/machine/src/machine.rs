//! Whole-machine configuration and builder.

use crate::bus::BusConfig;
use crate::cache_geom::CacheGeometry;
use crate::cluster::ClusterConfig;
use crate::error::MachineError;
use crate::fu::FuKind;
use crate::latency::OperationLatencies;
use std::fmt;

/// Identifier of a cluster within a [`MachineConfig`].
pub type ClusterId = usize;

/// Complete description of a multiVLIWprocessor configuration.
///
/// A machine is a set of clusters (usually homogeneous), a set of register
/// buses, a set of memory buses and the operation latencies of Table 1. The
/// *Unified* configuration of the paper is simply a machine with a single
/// cluster holding all resources.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineConfig {
    /// Human-readable name (used in result tables, e.g. `"2-cluster"`).
    pub name: String,
    clusters: Vec<ClusterConfig>,
    /// Register-bus configuration (inter-cluster register communication).
    pub register_buses: BusConfig,
    /// Memory-bus configuration (miss and coherence traffic).
    pub memory_buses: BusConfig,
    /// Operation latencies.
    pub latencies: OperationLatencies,
}

impl MachineConfig {
    /// Starts building a machine with the given name.
    #[must_use]
    pub fn builder(name: impl Into<String>) -> MachineBuilder {
        MachineBuilder::new(name)
    }

    /// Number of clusters.
    #[must_use]
    pub fn num_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// The configuration of cluster `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range; use [`MachineConfig::try_cluster`] for
    /// a fallible accessor.
    #[must_use]
    pub fn cluster(&self, id: ClusterId) -> &ClusterConfig {
        &self.clusters[id]
    }

    /// Fallible accessor for the configuration of cluster `id`.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::InvalidCluster`] when `id` is out of range.
    pub fn try_cluster(&self, id: ClusterId) -> Result<&ClusterConfig, MachineError> {
        self.clusters.get(id).ok_or(MachineError::InvalidCluster {
            cluster: id,
            num_clusters: self.clusters.len(),
        })
    }

    /// Iterator over `(ClusterId, &ClusterConfig)`.
    pub fn clusters(&self) -> impl Iterator<Item = (ClusterId, &ClusterConfig)> {
        self.clusters.iter().enumerate()
    }

    /// Iterator over all cluster identifiers.
    pub fn cluster_ids(&self) -> impl Iterator<Item = ClusterId> {
        0..self.clusters.len()
    }

    /// Total number of functional units of `kind` across all clusters.
    #[must_use]
    pub fn total_fu_count(&self, kind: FuKind) -> usize {
        self.clusters.iter().map(|c| c.fu_count(kind)).sum()
    }

    /// Total issue width (sum of the issue widths of all clusters).
    #[must_use]
    pub fn issue_width(&self) -> usize {
        self.clusters.iter().map(ClusterConfig::issue_width).sum()
    }

    /// Total number of architectural registers across all clusters.
    #[must_use]
    pub fn total_registers(&self) -> usize {
        self.clusters.iter().map(|c| c.register_file_size).sum()
    }

    /// Total L1 data-cache capacity across all clusters, in bytes.
    #[must_use]
    pub fn total_cache_bytes(&self) -> u64 {
        self.clusters.iter().map(|c| c.cache.capacity_bytes).sum()
    }

    /// Latency assumed by the scheduler for a load scheduled with the
    /// cache-miss latency on this machine (see
    /// [`OperationLatencies::load_miss`]).
    #[must_use]
    pub fn load_miss_latency(&self) -> u32 {
        self.latencies.load_miss(self.memory_buses.latency)
    }

    /// Validates the whole configuration.
    ///
    /// # Errors
    ///
    /// Returns the first violation found: no clusters, an invalid cluster,
    /// invalid bus configurations, or invalid latencies. A multi-cluster
    /// machine additionally requires at least one register bus and one memory
    /// bus (finite zero counts are already rejected by
    /// [`BusConfig::validate`]).
    pub fn validate(&self) -> Result<(), MachineError> {
        if self.clusters.is_empty() {
            return Err(MachineError::NoClusters);
        }
        for (i, cluster) in self.clusters.iter().enumerate() {
            cluster.validate(i)?;
        }
        self.register_buses.validate()?;
        self.memory_buses.validate()?;
        self.latencies.validate()?;
        Ok(())
    }

    /// Returns a copy of this machine with a different register-bus
    /// configuration (convenient for bus sweeps).
    #[must_use]
    pub fn with_register_buses(&self, buses: BusConfig) -> Self {
        let mut m = self.clone();
        m.register_buses = buses;
        m
    }

    /// Returns a copy of this machine with a different memory-bus
    /// configuration (convenient for bus sweeps).
    #[must_use]
    pub fn with_memory_buses(&self, buses: BusConfig) -> Self {
        let mut m = self.clone();
        m.memory_buses = buses;
        m
    }

    /// Returns a copy of this machine with a different name.
    #[must_use]
    pub fn with_name(&self, name: impl Into<String>) -> Self {
        let mut m = self.clone();
        m.name = name.into();
        m
    }
}

impl fmt::Display for MachineConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} cluster(s), {}-issue, {} regs, {} B L1, register buses: {}, memory buses: {}",
            self.name,
            self.num_clusters(),
            self.issue_width(),
            self.total_registers(),
            self.total_cache_bytes(),
            self.register_buses,
            self.memory_buses
        )
    }
}

/// Builder for [`MachineConfig`] (see `C-BUILDER`).
///
/// # Example
///
/// ```
/// use mvp_machine::{BusConfig, CacheGeometry, ClusterConfig, MachineConfig, OperationLatencies};
///
/// # fn main() -> Result<(), mvp_machine::MachineError> {
/// let cache = CacheGeometry::direct_mapped(4096);
/// let machine = MachineConfig::builder("custom")
///     .homogeneous_clusters(2, ClusterConfig::new(2, 2, 2, 32, cache))
///     .register_buses(BusConfig::finite(2, 1))
///     .memory_buses(BusConfig::finite(1, 4))
///     .latencies(OperationLatencies::paper_defaults())
///     .build()?;
/// assert_eq!(machine.num_clusters(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MachineBuilder {
    name: String,
    clusters: Vec<ClusterConfig>,
    register_buses: BusConfig,
    memory_buses: BusConfig,
    latencies: OperationLatencies,
}

impl MachineBuilder {
    /// Creates a builder with paper-default buses (1 register bus of latency
    /// 1, 1 memory bus of latency 1) and paper-default latencies.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            clusters: Vec::new(),
            register_buses: BusConfig::finite(1, 1),
            memory_buses: BusConfig::finite(1, 1),
            latencies: OperationLatencies::paper_defaults(),
        }
    }

    /// Adds one cluster.
    #[must_use]
    pub fn cluster(mut self, cluster: ClusterConfig) -> Self {
        self.clusters.push(cluster);
        self
    }

    /// Adds `count` identical clusters.
    #[must_use]
    pub fn homogeneous_clusters(mut self, count: usize, cluster: ClusterConfig) -> Self {
        for _ in 0..count {
            self.clusters.push(cluster.clone());
        }
        self
    }

    /// Sets the register-bus configuration.
    #[must_use]
    pub fn register_buses(mut self, buses: BusConfig) -> Self {
        self.register_buses = buses;
        self
    }

    /// Sets the memory-bus configuration.
    #[must_use]
    pub fn memory_buses(mut self, buses: BusConfig) -> Self {
        self.memory_buses = buses;
        self
    }

    /// Sets the operation latencies.
    #[must_use]
    pub fn latencies(mut self, latencies: OperationLatencies) -> Self {
        self.latencies = latencies;
        self
    }

    /// Builds and validates the machine.
    ///
    /// # Errors
    ///
    /// Propagates any validation error from [`MachineConfig::validate`].
    pub fn build(self) -> Result<MachineConfig, MachineError> {
        let machine = MachineConfig {
            name: self.name,
            clusters: self.clusters,
            register_buses: self.register_buses,
            memory_buses: self.memory_buses,
            latencies: self.latencies,
        };
        machine.validate()?;
        Ok(machine)
    }
}

/// Splits a total cache capacity evenly among `num_clusters` clusters,
/// preserving block size, associativity and MSHR configuration.
#[must_use]
pub fn split_cache(total: CacheGeometry, num_clusters: usize) -> CacheGeometry {
    let clusters = num_clusters.max(1) as u64;
    CacheGeometry {
        capacity_bytes: total.capacity_bytes / clusters,
        ..total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(regs: usize) -> ClusterConfig {
        ClusterConfig::new(1, 1, 1, regs, CacheGeometry::direct_mapped(2048))
    }

    #[test]
    fn builder_builds_valid_machine() {
        let m = MachineConfig::builder("test")
            .homogeneous_clusters(4, cluster(16))
            .register_buses(BusConfig::finite(2, 1))
            .memory_buses(BusConfig::finite(1, 4))
            .build()
            .unwrap();
        assert_eq!(m.num_clusters(), 4);
        assert_eq!(m.issue_width(), 12);
        assert_eq!(m.total_registers(), 64);
        assert_eq!(m.total_cache_bytes(), 8192);
        assert_eq!(m.total_fu_count(FuKind::Memory), 4);
    }

    #[test]
    fn empty_machine_is_rejected() {
        let err = MachineConfig::builder("empty").build().unwrap_err();
        assert_eq!(err, MachineError::NoClusters);
    }

    #[test]
    fn invalid_cluster_propagates() {
        let bad = ClusterConfig::new(0, 0, 0, 16, CacheGeometry::direct_mapped(2048));
        let err = MachineConfig::builder("bad")
            .cluster(bad)
            .build()
            .unwrap_err();
        assert_eq!(err, MachineError::EmptyCluster { cluster: 0 });
    }

    #[test]
    fn try_cluster_bounds_check() {
        let m = MachineConfig::builder("test")
            .homogeneous_clusters(2, cluster(32))
            .build()
            .unwrap();
        assert!(m.try_cluster(1).is_ok());
        assert_eq!(
            m.try_cluster(2),
            Err(MachineError::InvalidCluster {
                cluster: 2,
                num_clusters: 2
            })
        );
    }

    #[test]
    fn with_buses_overrides() {
        let m = MachineConfig::builder("test")
            .homogeneous_clusters(2, cluster(32))
            .build()
            .unwrap();
        let m2 = m.with_memory_buses(BusConfig::unbounded(4));
        assert_eq!(m2.memory_buses.count.finite(), None);
        assert_eq!(m2.memory_buses.latency, 4);
        let m3 = m.with_register_buses(BusConfig::finite(3, 2));
        assert_eq!(m3.register_buses.count.finite(), Some(3));
        let m4 = m.with_name("renamed");
        assert_eq!(m4.name, "renamed");
    }

    #[test]
    fn split_cache_divides_capacity() {
        let total = CacheGeometry::direct_mapped(8192);
        let per_cluster = split_cache(total, 4);
        assert_eq!(per_cluster.capacity_bytes, 2048);
        assert_eq!(per_cluster.block_bytes, total.block_bytes);
        let unified = split_cache(total, 1);
        assert_eq!(unified.capacity_bytes, 8192);
        // Degenerate zero-cluster input behaves as one cluster.
        assert_eq!(split_cache(total, 0).capacity_bytes, 8192);
    }

    #[test]
    fn display_contains_name_and_cluster_count() {
        let m = MachineConfig::builder("demo")
            .homogeneous_clusters(2, cluster(32))
            .build()
            .unwrap();
        let s = m.to_string();
        assert!(s.contains("demo"));
        assert!(s.contains("2 cluster"));
    }
}
