//! Dependency-free test utilities.
//!
//! The workspace builds without any external crates, so the pieces that
//! would normally come from `rand` and `proptest` live here:
//!
//! * [`rng`] — a seeded SplitMix64 generator used by the random-loop
//!   generator and the property-style tests.
//!
//! Timing is not a test utility: the `perfbench` package at the repository
//! root is the workspace's one benchmark harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod rng;

pub use rng::SplitMix64;
