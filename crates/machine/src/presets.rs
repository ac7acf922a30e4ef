//! The machine configurations of Table 1 of the paper.
//!
//! All three configurations are 12-issue machines with an 8 KB total L1 data
//! cache split evenly among the clusters (direct-mapped, non-blocking with 10
//! MSHR entries, 2-cycle local hit, 10-cycle main memory):
//!
//! | configuration | clusters | FUs per cluster (int/fp/mem) | registers per cluster |
//! |---------------|----------|------------------------------|-----------------------|
//! | `unified`     | 1        | 4 / 4 / 4                    | 64                    |
//! | `two_cluster` | 2        | 2 / 2 / 2                    | 32                    |
//! | `four_cluster`| 4        | 1 / 1 / 1                    | 16                    |
//!
//! Bus configurations are left at the "realistic" defaults used in Section
//! 5.3 (2 register buses of latency 1, 1 memory bus of latency 1); the bus
//! sweeps of Figures 5 and 6 override them with
//! [`MachineConfig::with_register_buses`] / [`MachineConfig::with_memory_buses`].

use crate::bus::BusConfig;
use crate::cache_geom::CacheGeometry;
use crate::cluster::ClusterConfig;
use crate::latency::OperationLatencies;
use crate::machine::{split_cache, MachineConfig};

/// Total L1 data cache capacity shared by every Table-1 configuration (8 KB).
pub const TOTAL_L1_BYTES: u64 = 8 * 1024;

/// Total issue width of every Table-1 configuration.
pub const TOTAL_ISSUE_WIDTH: usize = 12;

/// Total number of architectural registers of every Table-1 configuration.
pub const TOTAL_REGISTERS: usize = 64;

fn preset(
    name: &str,
    num_clusters: usize,
    fus_per_kind: usize,
    regs_per_cluster: usize,
) -> MachineConfig {
    let cache = split_cache(CacheGeometry::direct_mapped(TOTAL_L1_BYTES), num_clusters);
    MachineConfig::builder(name)
        .homogeneous_clusters(
            num_clusters,
            ClusterConfig::new(
                fus_per_kind,
                fus_per_kind,
                fus_per_kind,
                regs_per_cluster,
                cache,
            ),
        )
        .register_buses(BusConfig::finite(2, 1))
        .memory_buses(BusConfig::finite(1, 1))
        .latencies(OperationLatencies::paper_defaults())
        .build()
        .expect("table-1 presets are valid by construction")
}

/// The *Unified* baseline: a single cluster with 4 functional units of each
/// kind and a 64-entry register file.
#[must_use]
pub fn unified() -> MachineConfig {
    preset("unified", 1, 4, 64)
}

/// The 2-cluster configuration: 2 functional units of each kind and 32
/// registers per cluster.
#[must_use]
pub fn two_cluster() -> MachineConfig {
    preset("2-cluster", 2, 2, 32)
}

/// The 4-cluster configuration: 1 functional unit of each kind and 16
/// registers per cluster.
#[must_use]
pub fn four_cluster() -> MachineConfig {
    preset("4-cluster", 4, 1, 16)
}

/// The clustered configuration with `clusters` clusters (2 or 4), or the
/// unified machine for `clusters == 1`.
///
/// # Panics
///
/// Panics for cluster counts other than 1, 2 or 4, which are the only
/// configurations evaluated by the paper.
#[must_use]
pub fn by_cluster_count(clusters: usize) -> MachineConfig {
    match clusters {
        1 => unified(),
        2 => two_cluster(),
        4 => four_cluster(),
        other => panic!("the paper evaluates 1, 2 or 4 clusters, not {other}"),
    }
}

/// The 2-cluster machine used by the Section 3 motivating example: each
/// cluster has 1 arithmetic (floating-point) unit and 1 memory unit, a
/// direct-mapped local cache, one register bus with 2-cycle latency, 2-cycle
/// local cache hits, 2-cycle bus transactions and 10-cycle main memory.
#[must_use]
pub fn motivating_example_machine() -> MachineConfig {
    let cache = CacheGeometry::direct_mapped(1024);
    MachineConfig::builder("motivating-2-cluster")
        .homogeneous_clusters(2, ClusterConfig::new(1, 1, 1, 32, cache))
        .register_buses(BusConfig::finite(1, 2))
        .memory_buses(BusConfig::unbounded(2))
        .latencies(OperationLatencies {
            int_op: 1,
            fp_op: 2,
            load_hit: 2,
            store: 1,
            main_memory: 10,
        })
        .build()
        .expect("motivating example machine is valid by construction")
}

/// All three Table-1 configurations in presentation order.
#[must_use]
pub fn table1() -> Vec<MachineConfig> {
    vec![unified(), two_cluster(), four_cluster()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fu::FuKind;

    #[test]
    fn all_presets_are_12_issue_64_regs_8kb() {
        for m in table1() {
            assert_eq!(m.issue_width(), TOTAL_ISSUE_WIDTH, "{}", m.name);
            assert_eq!(m.total_registers(), TOTAL_REGISTERS, "{}", m.name);
            assert_eq!(m.total_cache_bytes(), TOTAL_L1_BYTES, "{}", m.name);
            assert!(m.validate().is_ok());
        }
    }

    #[test]
    fn unified_has_one_cluster_with_four_of_each() {
        let m = unified();
        assert_eq!(m.num_clusters(), 1);
        for kind in FuKind::ALL {
            assert_eq!(m.cluster(0).fu_count(kind), 4);
        }
        assert_eq!(m.cluster(0).register_file_size, 64);
        assert_eq!(m.cluster(0).cache.capacity_bytes, 8192);
    }

    #[test]
    fn two_cluster_splits_resources_in_half() {
        let m = two_cluster();
        assert_eq!(m.num_clusters(), 2);
        for (_, c) in m.clusters() {
            for kind in FuKind::ALL {
                assert_eq!(c.fu_count(kind), 2);
            }
            assert_eq!(c.register_file_size, 32);
            assert_eq!(c.cache.capacity_bytes, 4096);
        }
    }

    #[test]
    fn four_cluster_splits_resources_in_four() {
        let m = four_cluster();
        assert_eq!(m.num_clusters(), 4);
        for (_, c) in m.clusters() {
            for kind in FuKind::ALL {
                assert_eq!(c.fu_count(kind), 1);
            }
            assert_eq!(c.register_file_size, 16);
            assert_eq!(c.cache.capacity_bytes, 2048);
        }
    }

    #[test]
    fn by_cluster_count_dispatches() {
        assert_eq!(by_cluster_count(1).num_clusters(), 1);
        assert_eq!(by_cluster_count(2).num_clusters(), 2);
        assert_eq!(by_cluster_count(4).num_clusters(), 4);
    }

    #[test]
    #[should_panic(expected = "1, 2 or 4 clusters")]
    fn by_cluster_count_rejects_other_counts() {
        let _ = by_cluster_count(3);
    }

    #[test]
    fn motivating_machine_matches_section3() {
        let m = motivating_example_machine();
        assert_eq!(m.num_clusters(), 2);
        assert_eq!(m.register_buses.latency, 2);
        assert_eq!(m.register_buses.count.finite(), Some(1));
        assert_eq!(m.latencies.load_hit, 2);
        assert_eq!(m.latencies.main_memory, 10);
        // Miss latency of the example: 2 + 2 + 10 = 14.
        assert_eq!(m.load_miss_latency(), 14);
    }
}
