//! The sharded, bounded, content-addressed cache itself.
//!
//! [`ScheduleCache`] maps 128-bit [`CacheKey`]s to cached artifacts of a
//! caller-chosen type `V` (the pipeline stores canonicalized loop
//! reports). The design targets the persistent service runtime:
//!
//! * **Sharding.** Entries are spread over `shards` independent
//!   `Mutex<HashMap>`s selected by the key's low bits; size the shard
//!   count to the worker pool ([`ScheduleCache::with_capacity_and_shards`])
//!   and concurrent batch jobs practically never contend on one lock.
//! * **Bounded capacity + LRU eviction.** Every shard holds at most
//!   `capacity / shards` entries; inserting into a full shard evicts its
//!   least-recently-touched entry. Recency stamps come from a *per-shard*
//!   clock advanced inside the shard's critical section: stamp order is
//!   exactly lock-acquisition order in the only scope eviction ever
//!   compares stamps in, and concurrent shards never contend on a shared
//!   cache line. A busy service therefore holds its hot set and sheds the
//!   tail instead of growing without bound.
//! * **Counters.** Lifetime hits, misses and evictions are kept in atomics
//!   and reported by [`ScheduleCache::stats`]; perfbench's `serve`
//!   workload reads its per-pass cache traffic from exactly these numbers.
//! * **Tracing.** Every lookup and eviction also reports through
//!   [`mvp_trace`]: `schedcache.hit` / `schedcache.miss` /
//!   `schedcache.evict` instant events carrying the shard index, plus the
//!   runtime counters `schedcache.hits`, `schedcache.misses` and
//!   `schedcache.evictions`.

use crate::fx::{CacheKey, FxBuildHasher};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Default total capacity (entries) of [`ScheduleCache::default`].
pub const DEFAULT_CAPACITY: usize = 4096;

/// Lifetime counters and occupancy of a [`ScheduleCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Entries currently stored (across all shards).
    pub entries: usize,
    /// Maximum entries the cache will hold (across all shards).
    pub capacity: usize,
    /// Number of independently locked shards.
    pub shards: usize,
}

impl CacheStats {
    /// Hits over lookups, in `[0, 1]` (`0` when nothing was looked up).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }
}

struct Entry<V> {
    value: V,
    /// Last-touched stamp from the owning shard's clock (bigger = more
    /// recent); the eviction victim is the shard minimum.
    stamp: u64,
}

/// The lock-protected state of one shard: its slice of the key space plus
/// its own recency clock. Keeping the clock *inside* the mutex (rather
/// than a process-wide atomic ticked before the lock) makes stamp order
/// identical to lock-acquisition order — a hit that reaches the lock after
/// a racing insert can never stamp its entry as older than that insert —
/// and removes the one cache line every shard used to contend on.
struct ShardState<V> {
    map: HashMap<CacheKey, Entry<V>, FxBuildHasher>,
    clock: u64,
}

impl<V> ShardState<V> {
    fn tick(&mut self) -> u64 {
        let stamp = self.clock;
        self.clock += 1;
        stamp
    }
}

/// One independently-locked slice of the key space.
type Shard<V> = Mutex<ShardState<V>>;

/// A sharded, bounded, content-addressed map from [`CacheKey`] to cached
/// artifacts (see the [module docs](self)).
pub struct ScheduleCache<V> {
    shards: Box<[Shard<V>]>,
    per_shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<V> ScheduleCache<V> {
    /// A cache holding at most `capacity` entries, sharded for `threads`
    /// concurrent participants. The shard count is always rounded up to a
    /// power of two (at least `4 * threads`, so pool-wide batch jobs
    /// rarely meet on a lock) — the shard selector masks the key's low
    /// bits and would silently skew toward low shards otherwise.
    ///
    /// # Panics
    ///
    /// Panics on `capacity == 0`: a cache that can hold nothing would turn
    /// every insert into an immediate eviction, which no caller ever
    /// wants — misconfiguration should fail loudly, not thrash silently.
    #[must_use]
    pub fn with_capacity_and_shards(capacity: usize, threads: usize) -> Self {
        assert!(
            capacity > 0,
            "a ScheduleCache needs a nonzero capacity (got 0)"
        );
        let shards = (4 * threads.max(1)).next_power_of_two();
        assert!(shards.is_power_of_two(), "shard selector masks low bits");
        let per_shard_capacity = capacity.div_ceil(shards).max(1);
        Self {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(ShardState {
                        map: HashMap::with_hasher(FxBuildHasher),
                        clock: 0,
                    })
                })
                .collect(),
            per_shard_capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// A cache holding at most `capacity` entries, sharded for the
    /// machine's available parallelism.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        Self::with_capacity_and_shards(capacity, threads)
    }

    fn shard_index(&self, key: &CacheKey) -> usize {
        // Shard count is a power of two; the key's low bits select.
        (key.lo as usize) & (self.shards.len() - 1)
    }

    /// Looks `key` up, refreshing its recency on a hit. Counts one hit or
    /// one miss.
    #[must_use]
    pub fn get(&self, key: &CacheKey) -> Option<V>
    where
        V: Clone,
    {
        let index = self.shard_index(key);
        let mut shard = self.shards[index].lock().expect("cache shard lock");
        let stamp = shard.tick();
        match shard.map.get_mut(key) {
            Some(entry) => {
                entry.stamp = stamp;
                self.hits.fetch_add(1, Ordering::Relaxed);
                mvp_trace::counter_handle!("schedcache.hits", Runtime).incr();
                mvp_trace::instant!("schedcache.hit", shard = index);
                Some(entry.value.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                mvp_trace::counter_handle!("schedcache.misses", Runtime).incr();
                mvp_trace::instant!("schedcache.miss", shard = index);
                None
            }
        }
    }

    /// Stores `value` under `key`, replacing any existing entry; evicts the
    /// shard's least-recently-touched entry when the shard is full.
    pub fn insert(&self, key: CacheKey, value: V) {
        let index = self.shard_index(&key);
        let mut shard = self.shards[index].lock().expect("cache shard lock");
        let stamp = shard.tick();
        if let Some(entry) = shard.map.get_mut(&key) {
            entry.value = value;
            entry.stamp = stamp;
            return;
        }
        if shard.map.len() >= self.per_shard_capacity {
            if let Some(victim) = shard
                .map
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| *k)
            {
                shard.map.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                mvp_trace::counter_handle!("schedcache.evictions", Runtime).incr();
                mvp_trace::instant!("schedcache.evict", shard = index);
            }
        }
        shard.map.insert(key, Entry { value, stamp });
    }

    /// Number of entries currently stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard lock").map.len())
            .sum()
    }

    /// Whether the cache currently stores nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry (counters keep their lifetime values).
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            shard.lock().expect("cache shard lock").map.clear();
        }
    }

    /// Lifetime counters and occupancy.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.len(),
            capacity: self.per_shard_capacity * self.shards.len(),
            shards: self.shards.len(),
        }
    }
}

impl<V> Default for ScheduleCache<V> {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }
}

impl<V> fmt::Debug for ScheduleCache<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ScheduleCache")
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u64) -> CacheKey {
        CacheKey {
            lo: i,
            hi: i.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        }
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let cache: ScheduleCache<u32> = ScheduleCache::with_capacity_and_shards(64, 2);
        assert!(cache.get(&key(1)).is_none());
        cache.insert(key(1), 10);
        assert_eq!(cache.get(&key(1)), Some(10));
        assert_eq!(cache.get(&key(1)), Some(10));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (2, 1, 0));
        assert!((stats.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(stats.entries, 1);
        assert!(!cache.is_empty());
    }

    #[test]
    fn inserting_an_existing_key_replaces_without_evicting() {
        let cache: ScheduleCache<u32> = ScheduleCache::with_capacity_and_shards(8, 1);
        cache.insert(key(1), 10);
        cache.insert(key(1), 20);
        assert_eq!(cache.get(&key(1)), Some(20));
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn full_shards_evict_the_least_recently_touched_entry() {
        // 1 thread -> 4 shards; capacity 4 -> 1 entry per shard. Keys with
        // equal low bits land in the same shard.
        let cache: ScheduleCache<u32> = ScheduleCache::with_capacity_and_shards(4, 1);
        assert_eq!(cache.stats().shards, 4);
        let a = CacheKey { lo: 0, hi: 1 };
        let b = CacheKey { lo: 4, hi: 2 }; // same shard as `a` (lo & 3 == 0)
        cache.insert(a, 1);
        cache.insert(b, 2);
        assert_eq!(cache.stats().evictions, 1, "shard held only one entry");
        assert!(cache.get(&a).is_none(), "oldest entry was evicted");
        assert_eq!(cache.get(&b), Some(2));

        // Touching an entry protects it: insert a, touch a, insert b again.
        let cache: ScheduleCache<u32> = ScheduleCache::with_capacity_and_shards(8, 1);
        assert_eq!(cache.stats().shards, 4);
        let c = CacheKey { lo: 8, hi: 3 }; // same shard again, capacity 2
        cache.insert(a, 1);
        cache.insert(b, 2);
        assert_eq!(cache.get(&a), Some(1)); // refresh a; b is now LRU
        cache.insert(c, 3);
        assert_eq!(cache.get(&a), Some(1));
        assert!(cache.get(&b).is_none(), "LRU entry b was the victim");
        assert_eq!(cache.get(&c), Some(3));
    }

    #[test]
    #[should_panic(expected = "nonzero capacity")]
    fn zero_capacity_is_rejected() {
        let _: ScheduleCache<u32> = ScheduleCache::with_capacity_and_shards(0, 1);
    }

    #[test]
    fn shard_counts_are_always_powers_of_two() {
        // The shard selector masks the key's low bits, so a non-power-of-two
        // count would leave high shards unreachable and skew the rest.
        for threads in [1, 2, 3, 5, 7, 12, 100] {
            let cache: ScheduleCache<u32> = ScheduleCache::with_capacity_and_shards(64, threads);
            let stats = cache.stats();
            assert!(stats.shards.is_power_of_two(), "threads={threads}");
            assert!(stats.shards >= 4 * threads, "threads={threads}");
            assert!(stats.capacity >= 64, "threads={threads}");
        }
    }

    #[test]
    fn contended_evictions_stay_bounded_and_accounted() {
        // Hammer ONE shard from 8 threads with far more distinct keys than
        // it can hold, interleaving hits on a shared hot key. Whatever the
        // interleaving: the shard never exceeds its capacity, and every
        // new-key insert into the full shard evicts exactly one entry, so
        // the lifetime ledger `inserted = evicted + resident` must balance.
        // (This is the regression test for the per-shard LRU clock: stamps
        // are taken inside the shard's critical section, so concurrent
        // threads can no longer interleave stale stamps past each other.)
        let cache: std::sync::Arc<ScheduleCache<u64>> =
            std::sync::Arc::new(ScheduleCache::with_capacity_and_shards(16, 1));
        let shards = cache.stats().shards as u64;
        let per_shard = 16 / shards as usize;
        let hot = CacheKey { lo: 0, hi: 0 };
        cache.insert(hot, u64::MAX);
        const KEYS_PER_THREAD: u64 = 200;
        std::thread::scope(|scope| {
            for t in 1..=8u64 {
                let cache = std::sync::Arc::clone(&cache);
                scope.spawn(move || {
                    for i in 0..KEYS_PER_THREAD {
                        // lo multiples of the shard count all select shard 0.
                        let k = CacheKey {
                            lo: (t * KEYS_PER_THREAD + i) * shards,
                            hi: t,
                        };
                        cache.insert(k, i);
                        let _ = cache.get(&hot);
                        let _ = cache.get(&k);
                    }
                });
            }
        });
        let stats = cache.stats();
        assert!(
            stats.entries <= per_shard,
            "shard 0 holds {} > {per_shard} entries",
            stats.entries
        );
        let inserted = 1 + 8 * KEYS_PER_THREAD; // hot + every thread's keys, all distinct
        assert_eq!(stats.evictions, inserted - stats.entries as u64);
        assert_eq!(stats.hits + stats.misses, 2 * 8 * KEYS_PER_THREAD);
    }

    #[test]
    fn keys_route_by_low_bits_and_evict_only_within_their_shard() {
        // 1 thread -> 4 shards, 1 entry each; keys with lo & 3 == 0 all
        // land in shard 0, so the second insert there evicts the first,
        // while lo 1 lands in shard 1 and evicts nothing.
        let cache: ScheduleCache<u32> = ScheduleCache::with_capacity_and_shards(4, 1);
        cache.insert(CacheKey { lo: 0, hi: 1 }, 1);
        cache.insert(CacheKey { lo: 4, hi: 2 }, 2);
        cache.insert(CacheKey { lo: 1, hi: 3 }, 3);
        assert!(cache.get(&CacheKey { lo: 0, hi: 1 }).is_none());
        assert_eq!(cache.get(&CacheKey { lo: 1, hi: 3 }), Some(3));
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn clear_keeps_lifetime_counters() {
        let cache: ScheduleCache<u32> = ScheduleCache::with_capacity(16);
        cache.insert(key(1), 1);
        assert_eq!(cache.get(&key(1)), Some(1));
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn concurrent_use_is_safe_and_counts_add_up() {
        let cache: std::sync::Arc<ScheduleCache<u64>> =
            std::sync::Arc::new(ScheduleCache::with_capacity_and_shards(1024, 8));
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let cache = std::sync::Arc::clone(&cache);
                scope.spawn(move || {
                    for i in 0..100 {
                        let k = key(t * 1000 + i);
                        assert!(cache.get(&k).is_none());
                        cache.insert(k, i);
                        assert_eq!(cache.get(&k), Some(i));
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.hits, 800);
        assert_eq!(stats.misses, 800);
        assert_eq!(stats.entries, 800);
    }
}
