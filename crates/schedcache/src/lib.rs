//! Sharded, content-addressed schedule cache for the persistent scheduling
//! service.
//!
//! The ROADMAP's service runtime serves the *same* loops over and over: a
//! stream of scheduling requests repeats (DDG, machine, scheduler, options)
//! tuples far more often than it introduces new ones, and every repeat today
//! pays a full modulo-scheduling solve plus a cycle-level simulation. This
//! crate turns those repeats into O(1) lookups:
//!
//! * [`fx`] — a dependency-free FxHash-style hasher ([`FxHasher`] /
//!   [`FxBuildHasher`], the multiply-xor mixer rustc uses) plus a 128-bit
//!   [`KeyHasher`] that accumulates the cache key.
//! * [`canon`] — **canonical DDG hashing**: [`canonicalize`] runs
//!   Weisfeiler–Leman colour refinement over a loop's dependence graph so
//!   the key is invariant under operation renaming and re-numbering, and
//!   returns the canonical permutation with which cached artifacts can be
//!   translated between isomorphic loops.
//! * [`cache`] — the [`ScheduleCache`] itself: power-of-two **shards** each
//!   behind its own mutex (sized to the worker pool so concurrent batch
//!   jobs rarely contend), bounded capacity with least-recently-used
//!   eviction, and lifetime hit/miss/eviction counters ([`CacheStats`]).
//!
//! The cache is generic over the stored artifact `V` — the `multivliw`
//! pipeline stores its (canonicalized) `LoopReport`s, but the crate itself
//! only depends on the IR and machine model.
//!
//! # Key anatomy
//!
//! A cache key is the 128-bit [`CacheKey`] produced by feeding one
//! [`KeyHasher`] with, in order:
//!
//! 1. the loop's **canonical structural description** (from
//!    [`canonicalize`]): op count, nest trip counts, array bases/sizes,
//!    per-op kind + memory-reference signature in canonical order, and the
//!    sorted canonical edge list — op/array/dimension *names* are excluded,
//!    so renamed or re-numbered isomorphic loops hash equal;
//! 2. the **machine configuration** (via [`hash_machine`]): per-cluster FU
//!    counts, register files, cache geometry, both bus sets, all
//!    latencies — distinct machines never share keys in practice;
//! 3. the **scheduler choice and options** (fed by the caller), so the same
//!    loop scheduled by different schedulers or thresholds occupies
//!    distinct entries.
//!
//! # Example
//!
//! ```
//! use mvp_schedcache::{canonicalize, ScheduleCache};
//!
//! let mut b = mvp_ir::Loop::builder("dot");
//! let mul = b.fp_op("MUL");
//! let add = b.fp_op("ADD");
//! b.data_edge(mul, add, 0);
//! let l = b.build().unwrap();
//!
//! let cache: ScheduleCache<String> = ScheduleCache::with_capacity(128);
//! let key = canonicalize(&l).key_hasher().finish();
//! assert!(cache.get(&key).is_none()); // cold
//! cache.insert(key, "schedule artifact".to_string());
//! assert_eq!(cache.get(&key).as_deref(), Some("schedule artifact"));
//! assert_eq!(cache.stats().hits, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod canon;
pub mod fx;

pub use cache::{CacheStats, ScheduleCache};
pub use canon::{canonicalize, hash_machine, CanonicalLoop};
pub use fx::{CacheKey, FxBuildHasher, FxHasher, KeyHasher};
