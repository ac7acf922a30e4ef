//! Per-cluster coherent L1 data caches with a snoopy MSI protocol.
//!
//! Each cluster owns a set-associative (direct-mapped in the paper's
//! configurations) cache whose lines carry an MSI state. The protocol is
//! managed entirely by the hardware: the scheduler never sees it, only the
//! latency consequences.

use mvp_machine::CacheGeometry;
use std::ops::Range;

/// MSI coherence state of a cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum MsiState {
    /// The line is valid and possibly dirty; no other cache holds it.
    Modified,
    /// The line is valid and clean; other caches may hold it too.
    Shared,
    /// The line is not present.
    Invalid,
}

/// Where a local cache lookup was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum HitKind {
    /// Present locally with a state sufficient for the request.
    Hit,
    /// Present locally but only Shared while the request was a store: an
    /// upgrade (invalidation of remote copies) is required.
    UpgradeMiss,
    /// Not present locally.
    Miss,
}

#[derive(Debug, Clone, Copy)]
struct Line {
    block: u64,
    /// [`MsiState::Invalid`] marks an empty way.
    state: MsiState,
    /// LRU timestamp: larger = more recently used. Every touch and every
    /// allocation takes a fresh tick, so no two lines of a cache share one.
    last_use: u64,
}

const EMPTY: Line = Line {
    block: 0,
    state: MsiState::Invalid,
    last_use: 0,
};

/// One cluster's coherent L1 data cache (tag + state store).
///
/// The lines live in one flat `num_sets × ways` array: set `s` owns
/// `lines[s * ways..(s + 1) * ways]`, and an empty way holds an
/// [`MsiState::Invalid`] line.
#[derive(Debug, Clone)]
pub(crate) struct CoherentCache {
    num_sets: u64,
    ways: usize,
    lines: Vec<Line>,
    tick: u64,
}

impl CoherentCache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid.
    pub(crate) fn new(geometry: CacheGeometry) -> Self {
        geometry
            .validate()
            .expect("cache geometry must be validated before simulation");
        let num_sets = geometry.num_sets();
        let ways = geometry.associativity as usize;
        Self {
            num_sets,
            ways,
            lines: vec![EMPTY; num_sets as usize * ways],
            tick: 0,
        }
    }

    /// Empties every way (cold cache).
    pub(crate) fn clear(&mut self) {
        self.lines.fill(EMPTY);
        self.tick = 0;
    }

    /// Indices in `lines` of the ways of the set `block` maps to.
    fn set_of(&self, block: u64) -> Range<usize> {
        let first = (block % self.num_sets) as usize * self.ways;
        first..first + self.ways
    }

    /// The valid line holding `block`, if any.
    fn line_mut(&mut self, block: u64) -> Option<&mut Line> {
        let set = self.set_of(block);
        self.lines[set]
            .iter_mut()
            .find(|l| l.block == block && l.state != MsiState::Invalid)
    }

    /// State of the line holding `block`, or [`MsiState::Invalid`] if absent.
    pub(crate) fn state_of(&self, block: u64) -> MsiState {
        self.lines[self.set_of(block)]
            .iter()
            .find(|l| l.block == block && l.state != MsiState::Invalid)
            .map_or(MsiState::Invalid, |l| l.state)
    }

    /// Whether the cache currently holds `block` in any valid state.
    pub(crate) fn contains(&self, block: u64) -> bool {
        self.state_of(block) != MsiState::Invalid
    }

    /// Looks up `block` for a load (`is_store == false`) or store
    /// (`is_store == true`) **without** allocating. Returns how the local
    /// lookup fared.
    pub(crate) fn lookup(&self, block: u64, is_store: bool) -> HitKind {
        match self.state_of(block) {
            MsiState::Invalid => HitKind::Miss,
            MsiState::Modified => HitKind::Hit,
            MsiState::Shared => {
                if is_store {
                    HitKind::UpgradeMiss
                } else {
                    HitKind::Hit
                }
            }
        }
    }

    /// Marks `block` as used (LRU update) and, for stores, upgrades its state
    /// to Modified. Call after a [`HitKind::Hit`] or once an upgrade
    /// completes.
    pub(crate) fn touch(&mut self, block: u64, is_store: bool) {
        self.tick += 1;
        let tick = self.tick;
        if let Some(line) = self.line_mut(block) {
            line.last_use = tick;
            if is_store {
                line.state = MsiState::Modified;
            }
        }
    }

    /// Allocates `block` in the given state, evicting the least recently
    /// used line of the set if no way is empty. Returns the evicted block,
    /// if any.
    pub(crate) fn allocate(&mut self, block: u64, state: MsiState) -> Option<u64> {
        self.tick += 1;
        let tick = self.tick;
        if let Some(line) = self.line_mut(block) {
            line.state = state;
            line.last_use = tick;
            return None;
        }
        // An empty way is free; otherwise the ticks are unique, so the
        // least recently used line is the one with the smallest tick.
        let set = self.set_of(block);
        let victim = self.lines[set]
            .iter_mut()
            .min_by_key(|l| (l.state != MsiState::Invalid, l.last_use))
            .expect("a set has at least one way");
        let evicted = (victim.state != MsiState::Invalid).then_some(victim.block);
        *victim = Line {
            block,
            state,
            last_use: tick,
        };
        evicted
    }

    /// Invalidates `block` (snoop-induced). Returns whether a valid copy was
    /// removed.
    pub(crate) fn invalidate(&mut self, block: u64) -> bool {
        match self.line_mut(block) {
            Some(line) => {
                line.state = MsiState::Invalid;
                true
            }
            None => false,
        }
    }

    /// Downgrades `block` to Shared (a remote reader snooped it). Returns
    /// whether the block was present in Modified state.
    pub(crate) fn downgrade(&mut self, block: u64) -> bool {
        match self.line_mut(block) {
            Some(line) => {
                let was_modified = line.state == MsiState::Modified;
                line.state = MsiState::Shared;
                was_modified
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache() -> CoherentCache {
        CoherentCache::new(CacheGeometry::direct_mapped(1024))
    }

    #[test]
    fn empty_cache_misses_everything() {
        let c = cache();
        assert_eq!(c.lookup(0, false), HitKind::Miss);
        assert_eq!(c.state_of(0), MsiState::Invalid);
        assert!(!c.contains(0));
        // No block of two cache-fulls is resident.
        assert!((0..64).all(|block| !c.contains(block)));
    }

    #[test]
    fn allocate_then_hit_and_upgrade() {
        let mut c = cache();
        assert_eq!(c.allocate(5, MsiState::Shared), None);
        assert_eq!(c.lookup(5, false), HitKind::Hit);
        assert_eq!(c.lookup(5, true), HitKind::UpgradeMiss);
        c.touch(5, true);
        assert_eq!(c.state_of(5), MsiState::Modified);
        assert_eq!(c.lookup(5, true), HitKind::Hit);
    }

    #[test]
    fn direct_mapped_conflict_evicts_previous_block() {
        let mut c = cache(); // 32 sets
        c.allocate(3, MsiState::Shared);
        // Block 3 + 32 maps to the same set.
        let evicted = c.allocate(3 + 32, MsiState::Shared);
        assert_eq!(evicted, Some(3));
        assert!(!c.contains(3));
        assert!(c.contains(35));
    }

    #[test]
    fn invalidate_and_downgrade() {
        let mut c = cache();
        c.allocate(7, MsiState::Modified);
        assert!(c.downgrade(7));
        assert_eq!(c.state_of(7), MsiState::Shared);
        assert!(!c.downgrade(7)); // already shared
        assert!(c.invalidate(7));
        assert!(!c.invalidate(7));
        assert_eq!(c.state_of(7), MsiState::Invalid);
    }

    #[test]
    fn lru_is_respected_with_associativity() {
        let geometry = CacheGeometry {
            capacity_bytes: 128,
            block_bytes: 32,
            associativity: 2,
            mshr_entries: 10,
        };
        let mut c = CoherentCache::new(geometry);
        // Set 0 holds even block numbers for this 2-set cache.
        c.allocate(0, MsiState::Shared);
        c.allocate(2, MsiState::Shared);
        c.touch(0, false); // block 2 becomes LRU
        let evicted = c.allocate(4, MsiState::Shared);
        assert_eq!(evicted, Some(2));
        assert!(c.contains(0));
    }

    #[test]
    fn reallocating_a_resident_block_updates_state_without_eviction() {
        let mut c = cache();
        c.allocate(9, MsiState::Shared);
        let evicted = c.allocate(9, MsiState::Modified);
        assert_eq!(evicted, None);
        assert_eq!(c.state_of(9), MsiState::Modified);
        // Block 9 still holds a single way: in a 2-way cache, one more
        // block of its set fits without an eviction.
        let mut c = CoherentCache::new(CacheGeometry {
            associativity: 2,
            ..CacheGeometry::direct_mapped(1024)
        });
        c.allocate(9, MsiState::Shared);
        c.allocate(9, MsiState::Modified);
        assert_eq!(c.allocate(9 + 16, MsiState::Shared), None);
        assert!(c.contains(9) && c.contains(9 + 16));
    }
}
