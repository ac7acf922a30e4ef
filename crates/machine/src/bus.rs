//! Inter-cluster buses: register buses and memory buses.
//!
//! Register buses carry register values between clusters under compiler
//! control (the `IN BUS` / `OUT BUS` instruction fields); memory buses carry
//! cache-miss traffic and coherence transactions under hardware control.

use crate::error::MachineError;
use std::fmt;

/// Which set of buses a configuration refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BusKind {
    /// Compiler-managed register buses.
    Register,
    /// Hardware-managed memory buses (miss requests, fills, coherence).
    Memory,
}

impl fmt::Display for BusKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BusKind::Register => f.write_str("register"),
            BusKind::Memory => f.write_str("memory"),
        }
    }
}

/// Number of buses in a bus set.
///
/// The paper evaluates both realistic bus counts and an *unbounded* number of
/// buses (Section 5.2) to isolate the effect of bus bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BusCount {
    /// A fixed number of buses shared by all clusters.
    Finite(usize),
    /// An unlimited number of buses (a transfer never waits for a free bus).
    Unbounded,
}

impl BusCount {
    /// Returns the finite count, or `None` when unbounded.
    #[must_use]
    pub fn finite(self) -> Option<usize> {
        match self {
            BusCount::Finite(n) => Some(n),
            BusCount::Unbounded => None,
        }
    }
}

impl fmt::Display for BusCount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BusCount::Finite(n) => write!(f, "{n}"),
            BusCount::Unbounded => f.write_str("unbounded"),
        }
    }
}

/// Configuration of one set of buses (register or memory).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BusConfig {
    /// How many buses are available.
    pub count: BusCount,
    /// Latency, in cycles, of one transfer over a bus. A bus stays busy for
    /// the entire latency of a transfer (Section 2.1).
    pub latency: u32,
}

impl BusConfig {
    /// A finite set of `count` buses with the given per-transfer latency.
    #[must_use]
    pub fn finite(count: usize, latency: u32) -> Self {
        Self {
            count: BusCount::Finite(count),
            latency,
        }
    }

    /// An unbounded set of buses with the given per-transfer latency.
    #[must_use]
    pub fn unbounded(latency: u32) -> Self {
        Self {
            count: BusCount::Unbounded,
            latency,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::InvalidBus`] when the latency is zero or a
    /// finite count is zero (a machine with more than one cluster needs at
    /// least one bus of each kind; that cross-check is done by
    /// [`crate::MachineConfig::validate`]).
    pub fn validate(&self) -> Result<(), MachineError> {
        if self.latency == 0 {
            return Err(MachineError::InvalidBus {
                reason: "bus latency must be at least 1 cycle".into(),
            });
        }
        if let BusCount::Finite(0) = self.count {
            return Err(MachineError::InvalidBus {
                reason: "finite bus count must be at least 1".into(),
            });
        }
        Ok(())
    }
}

impl fmt::Display for BusConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} bus(es), latency {}", self.count, self.latency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finite_and_unbounded_constructors() {
        let b = BusConfig::finite(2, 1);
        assert_eq!(b.count.finite(), Some(2));
        assert!(b.validate().is_ok());

        let u = BusConfig::unbounded(4);
        assert_eq!(u.count.finite(), None);
        assert!(u.validate().is_ok());
    }

    #[test]
    fn zero_latency_or_zero_count_rejected() {
        assert!(BusConfig::finite(1, 0).validate().is_err());
        assert!(BusConfig::finite(0, 1).validate().is_err());
        assert!(BusConfig::unbounded(0).validate().is_err());
    }

    #[test]
    fn display_formats() {
        assert_eq!(BusConfig::finite(2, 1).to_string(), "2 bus(es), latency 1");
        assert_eq!(
            BusConfig::unbounded(4).to_string(),
            "unbounded bus(es), latency 4"
        );
        assert_eq!(BusKind::Register.to_string(), "register");
        assert_eq!(BusKind::Memory.to_string(), "memory");
    }
}
