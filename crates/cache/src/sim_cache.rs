//! A small functional cache model (tag store only).
//!
//! Used by the locality estimator in [`crate::cme`]. It models hits and
//! misses of a set-associative cache with LRU replacement; it does not
//! model timing, coherence or data — the cycle-level simulator in
//! `mvp-sim` has its own caches for those.

use mvp_machine::CacheGeometry;

/// Functional model of one cache: per-set LRU tag store.
#[derive(Debug, Clone)]
pub struct CacheSim {
    geometry: CacheGeometry,
    /// `sets[set]` holds the resident block numbers, most recently used last.
    sets: Vec<Vec<u64>>,
    accesses: u64,
    misses: u64,
}

impl CacheSim {
    /// Creates an empty (cold) cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid; validate geometries at
    /// configuration time with [`CacheGeometry::validate`].
    #[must_use]
    pub fn new(geometry: CacheGeometry) -> Self {
        geometry
            .validate()
            .expect("cache geometry must be validated before simulation");
        let sets =
            vec![Vec::with_capacity(geometry.associativity as usize); geometry.num_sets() as usize];
        Self {
            geometry,
            sets,
            accesses: 0,
            misses: 0,
        }
    }

    /// The geometry this cache was built with.
    #[must_use]
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geometry
    }

    /// Whether the block containing `address` is currently resident (does not
    /// update LRU state or counters).
    #[must_use]
    pub fn contains(&self, address: u64) -> bool {
        let set = self.geometry.set_of(address) as usize;
        let block = self.geometry.block_of(address);
        self.sets[set].contains(&block)
    }

    /// Accesses `address`; returns `true` on a hit. Misses allocate the block
    /// (evicting the LRU block of the set if needed).
    pub fn access(&mut self, address: u64) -> bool {
        self.accesses += 1;
        let set = self.geometry.set_of(address) as usize;
        let block = self.geometry.block_of(address);
        let ways = &mut self.sets[set];
        if let Some(pos) = ways.iter().position(|&b| b == block) {
            // Move to MRU position.
            let b = ways.remove(pos);
            ways.push(b);
            true
        } else {
            self.misses += 1;
            if ways.len() == self.geometry.associativity as usize {
                ways.remove(0);
            }
            ways.push(block);
            false
        }
    }

    /// Invalidates the block containing `address`, if resident. Returns
    /// whether a block was removed.
    pub fn invalidate(&mut self, address: u64) -> bool {
        let set = self.geometry.set_of(address) as usize;
        let block = self.geometry.block_of(address);
        let ways = &mut self.sets[set];
        if let Some(pos) = ways.iter().position(|&b| b == block) {
            ways.remove(pos);
            true
        } else {
            false
        }
    }

    /// Number of accesses performed so far.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Number of misses observed so far.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Miss ratio observed so far (0.0 when no access has been made).
    #[must_use]
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Forgets all resident blocks and resets the counters.
    pub fn reset(&mut self) {
        for set in &mut self.sets {
            set.clear();
        }
        self.accesses = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dm_1k() -> CacheSim {
        CacheSim::new(CacheGeometry::direct_mapped(1024))
    }

    #[test]
    fn sequential_accesses_miss_once_per_block() {
        let mut c = dm_1k();
        // 32-byte blocks, 8-byte elements: 1 miss then 3 hits, repeated.
        for e in 0..64u64 {
            c.access(e * 8);
        }
        assert_eq!(c.accesses(), 64);
        assert_eq!(c.misses(), 16);
        assert!((c.miss_ratio() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn ping_pong_between_conflicting_addresses_always_misses() {
        let mut c = dm_1k();
        // Two addresses exactly one cache-capacity apart share a set in a
        // direct-mapped cache and evict each other.
        for _ in 0..10 {
            assert!(!c.access(64));
            assert!(!c.access(64 + 1024));
        }
        assert_eq!(c.misses(), 20);
    }

    #[test]
    fn two_way_associativity_removes_the_ping_pong() {
        let geometry = CacheGeometry {
            capacity_bytes: 1024,
            block_bytes: 32,
            associativity: 2,
            mshr_entries: 10,
        };
        let mut c = CacheSim::new(geometry);
        c.access(64);
        c.access(64 + 512); // same set in a 2-way 1KB cache, different way
        for _ in 0..10 {
            assert!(c.access(64));
            assert!(c.access(64 + 512));
        }
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn lru_evicts_the_least_recently_used_way() {
        let geometry = CacheGeometry {
            capacity_bytes: 128,
            block_bytes: 32,
            associativity: 2,
            mshr_entries: 10,
        };
        // 2 sets of 2 ways. Set 0 holds blocks with (addr/32) even.
        let mut c = CacheSim::new(geometry);
        c.access(0); // block 0 -> set 0
        c.access(64); // block 2 -> set 0
        assert!(c.access(0)); // touch block 0: block 2 is now LRU
        c.access(128); // block 4 -> set 0, evicts block 2
        assert!(c.contains(0));
        assert!(!c.contains(64));
        assert!(c.contains(128));
    }

    #[test]
    fn invalidate_removes_blocks() {
        let mut c = dm_1k();
        c.access(200);
        assert!(c.contains(200));
        assert!(c.invalidate(200));
        assert!(!c.contains(200));
        assert!(!c.invalidate(200));
        // A later access misses again.
        assert!(!c.access(200));
    }

    #[test]
    fn reset_clears_contents_and_counters() {
        let mut c = dm_1k();
        c.access(0);
        c.access(32);
        c.reset();
        assert_eq!(c.accesses(), 0);
        assert_eq!(c.misses(), 0);
        assert_eq!(c.miss_ratio(), 0.0);
        assert!(!c.contains(0));
    }
}
