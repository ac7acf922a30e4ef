//! Error type for machine-model construction and resource allocation.

use std::error::Error;
use std::fmt;

/// Errors raised while building a [`crate::MachineConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MachineError {
    /// The machine was configured with no clusters.
    NoClusters,
    /// A cluster was configured with no functional units at all.
    EmptyCluster {
        /// Index of the offending cluster.
        cluster: usize,
    },
    /// A cache geometry was invalid (zero capacity, non-power-of-two block
    /// size, block larger than capacity, ...).
    InvalidCacheGeometry {
        /// Human-readable description of the violation.
        reason: String,
    },
    /// A bus configuration was invalid (e.g. zero latency).
    InvalidBus {
        /// Human-readable description of the violation.
        reason: String,
    },
    /// A modulo table (one row per cycle of the initiation interval) was
    /// requested for a zero initiation interval.
    ZeroInitiationInterval,
    /// An operation latency was configured as zero where a positive value is
    /// required.
    InvalidLatency {
        /// Name of the latency field.
        which: &'static str,
    },
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::NoClusters => write!(f, "machine has no clusters"),
            MachineError::EmptyCluster { cluster } => {
                write!(f, "cluster {cluster} has no functional units")
            }
            MachineError::InvalidCacheGeometry { reason } => {
                write!(f, "invalid cache geometry: {reason}")
            }
            MachineError::InvalidBus { reason } => write!(f, "invalid bus configuration: {reason}"),
            MachineError::ZeroInitiationInterval => {
                write!(f, "initiation interval must be at least 1")
            }
            MachineError::InvalidLatency { which } => {
                write!(f, "latency `{which}` must be at least 1")
            }
        }
    }
}

impl Error for MachineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase_start() {
        let errs = [
            MachineError::NoClusters,
            MachineError::EmptyCluster { cluster: 3 },
            MachineError::InvalidCacheGeometry {
                reason: "capacity is zero".into(),
            },
            MachineError::InvalidBus {
                reason: "latency is zero".into(),
            },
            MachineError::ZeroInitiationInterval,
            MachineError::InvalidLatency { which: "load_hit" },
        ];
        for e in errs {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MachineError>();
    }
}
