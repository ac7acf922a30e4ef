//! Data-locality analysis for the RMCA modulo scheduler.
//!
//! The paper drives the cluster assignment of memory operations with the
//! Cache Miss Equations (CME) framework of Ghosh, Martonosi & Malik, sped up
//! with the solver of Bermudo et al. and the sampling scheme of Vera et al.
//! The scheduler only ever asks two questions of that framework:
//!
//! 1. *how many misses* does a given **set** of memory references produce in
//!    a cache of a given geometry (the local cache of one cluster), and
//! 2. what is the *miss ratio* of one particular reference within that set.
//!
//! This crate answers exactly those questions. Instead of counting integer
//! points in the CME polyhedra it counts misses exactly over a bounded
//! (optionally sampled) window of the iteration space — the same quantity the
//! CME solver estimates, produced by direct evaluation of the affine
//! references. The substitution (see *Notes* in the repository README)
//! preserves the ranking of candidate clusters, which is all the scheduler
//! consumes.
//!
//! The crate also provides a closed-form [`reuse`] classification
//! (self-temporal, self-spatial, group reuse) used for reporting and for
//! fast pre-filtering, and a simple functional [`sim_cache`] used by both the
//! estimator here and the cycle-level simulator.
//!
//! # Example
//!
//! ```
//! use mvp_cache::LocalityAnalysis;
//! use mvp_ir::Loop;
//! use mvp_machine::CacheGeometry;
//!
//! // DO I: load B(I), load C(I) with B and C mapping to the same sets.
//! let mut b = Loop::builder("pingpong");
//! let i = b.dimension("I", 512);
//! let cache = CacheGeometry::direct_mapped(1024);
//! let arr_b = b.array("B", 0, 4096);
//! let arr_c = b.array("C", 1024, 4096); // one cache-capacity away: conflicts
//! let ld1 = b.load("LD1", b.array_ref(arr_b).stride(i, 8).build());
//! let ld2 = b.load("LD2", b.array_ref(arr_c).stride(i, 8).build());
//! let l = b.build().unwrap();
//!
//! let analysis = LocalityAnalysis::new(&l);
//! // Together the two loads ping-pong: every access misses.
//! let together = analysis.miss_count(cache, &[ld1, ld2]);
//! // Alone, each load enjoys spatial reuse (1 miss per 4 elements).
//! let alone = analysis.miss_count(cache, &[ld1]) + analysis.miss_count(cache, &[ld2]);
//! assert!(together > 2 * alone);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cme;
pub mod footprint;
pub mod reuse;
pub mod sim_cache;

pub use cme::{LocalityAnalysis, MissProfile, OpMissStats};
pub use reuse::{group_reuse, self_reuse, ReuseKind};
pub use sim_cache::CacheSim;
