//! Machine model for the *multiVLIWprocessor* — the fully-distributed
//! clustered VLIW architecture proposed by Sánchez & González (MICRO 2000).
//!
//! The crate describes the hardware that the modulo schedulers in
//! [`mvp-core`](https://docs.rs/mvp-core) target and that the cycle-level
//! simulator in [`mvp-sim`](https://docs.rs/mvp-sim) models:
//!
//! * [`ClusterConfig`] — a cluster with its own functional units, register
//!   file and local data cache,
//! * [`BusConfig`] — the shared register buses and memory buses that connect
//!   clusters (and main memory),
//! * [`MachineConfig`] — a full machine built from homogeneous clusters,
//!   with the Table-1 presets of the paper available from [`presets`].
//!
//! Modulo reservation bookkeeping (functional-unit issue slots, bus
//! transfer slots) lives in the shared constraint kernel `mvp-resmodel`,
//! which every scheduler reserves through.
//!
//! # Example
//!
//! ```
//! use mvp_machine::{presets, FuKind};
//!
//! let machine = presets::two_cluster();
//! assert_eq!(machine.num_clusters(), 2);
//! assert_eq!(machine.issue_width(), 12);
//! assert_eq!(machine.cluster(0).fu_count(FuKind::Memory), 2);
//! // The 8KB L1 is split evenly among the clusters.
//! assert_eq!(machine.cluster(0).cache.capacity_bytes, 4096);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bus;
pub mod cache_geom;
pub mod cluster;
pub mod error;
pub mod fu;
pub mod latency;
pub mod machine;
pub mod presets;

pub use bus::{BusConfig, BusCount, BusKind};
pub use cache_geom::CacheGeometry;
pub use cluster::ClusterConfig;
pub use error::MachineError;
pub use fu::FuKind;
pub use latency::OperationLatencies;
pub use machine::{ClusterId, MachineBuilder, MachineConfig};
