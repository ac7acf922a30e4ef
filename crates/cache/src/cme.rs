//! Cache-Miss-Equations-style miss estimation.
//!
//! [`LocalityAnalysis`] answers the two questions the RMCA scheduler asks of
//! the CME framework (Section 4.2 of the paper):
//!
//! * the number of misses incurred by a *set* of memory references for a
//!   particular cache configuration, and
//! * the miss ratio of a particular memory instruction within that set.
//!
//! Misses are counted exactly over a bounded window of the iteration space by
//! evaluating the affine references and replaying them through a functional
//! cache model ([`crate::CacheSim`]). This replaces the polyhedra counting of
//! the original CME solver: the scheduler only compares candidate clusters
//! by miss count, and exact counting over the window preserves that
//! ranking. The window bound plays the role of the sampling scheme of Vera
//! et al.: it keeps the analysis cost at a small fraction of total
//! compilation time.

use crate::sim_cache::CacheSim;
use mvp_ir::{Loop, OpId};
use mvp_machine::CacheGeometry;

/// Default number of iteration points evaluated per query.
pub const DEFAULT_WINDOW: usize = 1024;

/// Per-operation miss statistics within a profiled reference set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpMissStats {
    /// The memory operation.
    pub op: OpId,
    /// Number of accesses evaluated.
    pub accesses: u64,
    /// Number of misses observed.
    pub misses: u64,
}

impl OpMissStats {
    /// Miss ratio of the operation (0.0 when it was never accessed).
    #[must_use]
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// Result of profiling a set of references against one cache geometry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MissProfile {
    /// Total accesses evaluated across the whole set.
    pub total_accesses: u64,
    /// Total misses across the whole set.
    pub total_misses: u64,
    /// Per-operation breakdown, in the order the references were supplied.
    pub per_op: Vec<OpMissStats>,
}

impl MissProfile {
    /// Overall miss ratio of the set (0.0 when no accesses were evaluated).
    #[must_use]
    pub fn miss_ratio(&self) -> f64 {
        if self.total_accesses == 0 {
            0.0
        } else {
            self.total_misses as f64 / self.total_accesses as f64
        }
    }

    /// Miss statistics of a particular operation, if it was part of the set.
    #[must_use]
    pub fn stats_of(&self, op: OpId) -> Option<OpMissStats> {
        self.per_op.iter().copied().find(|s| s.op == op)
    }
}

/// The locality analysis of one loop: estimates misses of reference subsets
/// for arbitrary cache geometries.
#[derive(Debug, Clone)]
pub struct LocalityAnalysis<'l> {
    l: &'l Loop,
    window: usize,
}

impl<'l> LocalityAnalysis<'l> {
    /// Creates an analysis with the default evaluation window
    /// ([`DEFAULT_WINDOW`] iteration points).
    #[must_use]
    pub fn new(l: &'l Loop) -> Self {
        Self {
            l,
            window: DEFAULT_WINDOW,
        }
    }

    /// Creates an analysis evaluating at most `window` iteration points per
    /// query. Larger windows are more precise and slower; `window` is clamped
    /// to at least 1.
    #[must_use]
    pub fn with_window(l: &'l Loop, window: usize) -> Self {
        Self {
            l,
            window: window.max(1),
        }
    }

    /// The evaluation window (iteration points per query).
    #[must_use]
    pub fn window(&self) -> usize {
        self.window
    }

    /// Profiles the given memory operations against a cache of geometry
    /// `geometry`, as if they were the only references mapped to that cache.
    ///
    /// Non-memory operations in `refs` are ignored. References are replayed
    /// in program (operation-id) order within each iteration, which matches
    /// the in-order issue of the multiVLIWprocessor closely enough for miss
    /// ranking purposes.
    #[must_use]
    pub fn profile(&self, geometry: CacheGeometry, refs: &[OpId]) -> MissProfile {
        let mut ops: Vec<OpId> = refs
            .iter()
            .copied()
            .filter(|&op| self.l.op(op).is_memory())
            .collect();
        ops.sort_unstable();
        ops.dedup();

        let mut per_op: Vec<OpMissStats> = ops
            .iter()
            .map(|&op| OpMissStats {
                op,
                accesses: 0,
                misses: 0,
            })
            .collect();

        if ops.is_empty() {
            return MissProfile {
                total_accesses: 0,
                total_misses: 0,
                per_op,
            };
        }

        let mut cache = CacheSim::new(geometry);
        for iv in self.l.nest().iteration_vectors().take(self.window) {
            for (slot, &op) in ops.iter().enumerate() {
                let addr = self
                    .l
                    .address_of(op, &iv)
                    .expect("memory operations always have an address");
                let hit = cache.access(addr);
                per_op[slot].accesses += 1;
                if !hit {
                    per_op[slot].misses += 1;
                }
            }
        }

        MissProfile {
            total_accesses: cache.accesses(),
            total_misses: cache.misses(),
            per_op,
        }
    }

    /// Number of misses incurred by the set `refs` in a cache of geometry
    /// `geometry` (the first CME statistic of Section 4.2).
    #[must_use]
    pub fn miss_count(&self, geometry: CacheGeometry, refs: &[OpId]) -> u64 {
        self.profile(geometry, refs).total_misses
    }

    /// Miss ratio of `op` when it shares the cache with `companions` (the
    /// second CME statistic of Section 4.2). `op` is added to the set if not
    /// already present; returns 0.0 for non-memory operations.
    #[must_use]
    pub fn miss_ratio(&self, geometry: CacheGeometry, op: OpId, companions: &[OpId]) -> f64 {
        if !self.l.op(op).is_memory() {
            return 0.0;
        }
        let mut set: Vec<OpId> = companions.to_vec();
        if !set.contains(&op) {
            set.push(op);
        }
        self.profile(geometry, &set)
            .stats_of(op)
            .map_or(0.0, |s| s.miss_ratio())
    }

    /// Extra misses caused by adding `op` to the set `companions`:
    /// `misses(companions ∪ {op}) − misses(companions)`. This is the
    /// quantity the RMCA cluster-selection heuristic minimises.
    #[must_use]
    pub fn added_misses(&self, geometry: CacheGeometry, op: OpId, companions: &[OpId]) -> u64 {
        if !self.l.op(op).is_memory() {
            return 0;
        }
        let before = self.miss_count(geometry, companions);
        let mut set: Vec<OpId> = companions.to_vec();
        if !set.contains(&op) {
            set.push(op);
        }
        let after = self.miss_count(geometry, &set);
        after.saturating_sub(before)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvp_ir::Loop;

    fn geometry_1k() -> CacheGeometry {
        CacheGeometry::direct_mapped(1024)
    }

    /// The memory side of the Figure-3 loop: B and C placed a multiple of the
    /// cache capacity apart so B(i) and C(i) conflict, with the unrolled
    /// pairs LD1/LD3 (B) and LD2/LD4 (C) exhibiting group reuse.
    fn fig3_memory_loop() -> (Loop, [OpId; 4]) {
        let mut b = Loop::builder("fig3-mem");
        let i = b.dimension("I", 256);
        let cache_size = 1024u64;
        let arr_b = b.array("B", 0, 4096);
        let arr_c = b.array("C", 4 * cache_size, 4096);
        // The loop is unrolled by 2: each iteration touches B(2i), B(2i+1),
        // C(2i), C(2i+1) through four distinct load instructions.
        let ld1 = b.load("LD1", b.array_ref(arr_b).stride(i, 16).build());
        let ld2 = b.load("LD2", b.array_ref(arr_c).stride(i, 16).build());
        let ld3 = b.load("LD3", b.array_ref(arr_b).offset(8).stride(i, 16).build());
        let ld4 = b.load("LD4", b.array_ref(arr_c).offset(8).stride(i, 16).build());
        let l = b.build().unwrap();
        (l, [ld1, ld2, ld3, ld4])
    }

    #[test]
    fn single_unit_stride_load_misses_once_per_block() {
        let mut b = Loop::builder("stream");
        let i = b.dimension("I", 256);
        let a = b.auto_array("A", 4096);
        let ld = b.load("LD", b.array_ref(a).stride(i, 8).build());
        let l = b.build().unwrap();
        let analysis = LocalityAnalysis::with_window(&l, 256);
        let profile = analysis.profile(geometry_1k(), &[ld]);
        assert_eq!(profile.total_accesses, 256);
        // 8-byte elements in 32-byte blocks: 25% miss ratio.
        assert_eq!(profile.total_misses, 64);
        assert!((analysis.miss_ratio(geometry_1k(), ld, &[]) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn conflicting_loads_pingpong_when_placed_together() {
        let (l, [ld1, ld2, ld3, ld4]) = fig3_memory_loop();
        let analysis = LocalityAnalysis::with_window(&l, 128);
        let g = geometry_1k();

        // Register-oriented partition (Figure 3a): {LD1, LD2} share a cache.
        // B(2i) and C(2i) map to the same set: every access misses.
        let together = analysis.profile(g, &[ld1, ld2]);
        assert_eq!(together.total_misses, together.total_accesses);

        // Locality-oriented partition (Figure 3b): {LD1, LD3} share a cache.
        // Group + spatial reuse: 1 miss per 32-byte block, i.e. 25% of the
        // 2-element (16-byte) accesses per instruction pair.
        let locality = analysis.profile(g, &[ld1, ld3]);
        assert!(locality.total_misses * 3 < locality.total_accesses);
        // Same for the other pair.
        let locality2 = analysis.profile(g, &[ld2, ld4]);
        assert_eq!(locality.total_misses, locality2.total_misses);

        // The misses of the locality-aware split are far fewer than the
        // register-oriented split, which is the whole point of RMCA.
        assert!(locality.total_misses * 2 < together.total_misses);
    }

    #[test]
    fn miss_ratio_of_trailing_group_reuse_load_is_low() {
        let (l, [ld1, _, ld3, _]) = fig3_memory_loop();
        let analysis = LocalityAnalysis::with_window(&l, 128);
        let g = geometry_1k();
        // LD3 reuses the block brought in by LD1 in the same iteration.
        let r3 = analysis.miss_ratio(g, ld3, &[ld1]);
        assert!(r3 < 0.05, "LD3 miss ratio {r3} should be ~0");
        // LD1 pays the block fetches: about one miss every two iterations
        // (16-byte stride in 32-byte blocks -> 50%).
        let r1 = analysis.miss_ratio(g, ld1, &[ld3]);
        assert!((r1 - 0.5).abs() < 0.1, "LD1 miss ratio {r1} should be ~0.5");
    }

    #[test]
    fn added_misses_prefers_the_group_reuse_cluster() {
        let (l, [ld1, ld2, ld3, _]) = fig3_memory_loop();
        let analysis = LocalityAnalysis::with_window(&l, 128);
        let g = geometry_1k();
        // Adding LD3 to a cluster that already holds LD1 is nearly free;
        // adding it to the cluster holding LD2 costs many conflict misses.
        let with_partner = analysis.added_misses(g, ld3, &[ld1]);
        let with_conflict = analysis.added_misses(g, ld3, &[ld2]);
        assert!(with_partner < with_conflict);
    }

    #[test]
    fn non_memory_ops_and_empty_sets_are_harmless() {
        let mut b = Loop::builder("mixed");
        let i = b.dimension("I", 16);
        let a = b.auto_array("A", 256);
        let ld = b.load("LD", b.array_ref(a).stride(i, 8).build());
        let f = b.fp_op("F");
        b.data_edge(ld, f, 0);
        let l = b.build().unwrap();
        let analysis = LocalityAnalysis::new(&l);
        let g = geometry_1k();
        assert_eq!(analysis.miss_count(g, &[]), 0);
        assert_eq!(analysis.miss_count(g, &[f]), 0);
        assert_eq!(analysis.miss_ratio(g, f, &[ld]), 0.0);
        assert_eq!(analysis.added_misses(g, f, &[ld]), 0);
        let profile = analysis.profile(g, &[f]);
        assert_eq!(profile.total_accesses, 0);
        assert_eq!(profile.miss_ratio(), 0.0);
    }

    #[test]
    fn duplicate_refs_are_counted_once() {
        let (l, [ld1, _, _, _]) = fig3_memory_loop();
        let analysis = LocalityAnalysis::with_window(&l, 64);
        let g = geometry_1k();
        let once = analysis.profile(g, &[ld1]);
        let twice = analysis.profile(g, &[ld1, ld1]);
        assert_eq!(once.total_accesses, twice.total_accesses);
        assert_eq!(once.total_misses, twice.total_misses);
    }

    #[test]
    fn window_limits_the_number_of_points_evaluated() {
        let (l, [ld1, _, _, _]) = fig3_memory_loop();
        let small = LocalityAnalysis::with_window(&l, 16);
        let profile = small.profile(geometry_1k(), &[ld1]);
        assert_eq!(profile.total_accesses, 16);
        assert_eq!(small.window(), 16);
        // Window is clamped to at least one point.
        assert_eq!(LocalityAnalysis::with_window(&l, 0).window(), 1);
    }
}
