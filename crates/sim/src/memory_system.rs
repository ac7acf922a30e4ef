//! The distributed memory system: per-cluster coherent caches, MSHRs, memory
//! buses and main memory.
//!
//! A memory access issued by a cluster follows the paper's latency model
//! (Section 2.2):
//!
//! ```text
//! LAT = LAT_cache
//!     + MISS_LC * ( NC_WaitingEntry + NC_WaitingBus + LAT_MemoryBus
//!                   + if hit in a remote cache { LAT_cache } else { LAT_MainMemory } )
//! ```
//!
//! Coherence (snoopy MSI) transactions also occupy a memory bus, and
//! secondary misses to a line already being fetched merge with the pending
//! MSHR entry.

use crate::bus::MemoryBuses;
use crate::mshr::Mshr;
use crate::msi::{CoherentCache, HitKind, MsiState};
use mvp_machine::{ClusterId, MachineConfig};

/// Aggregate counters of the memory system.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryCounters {
    /// Total accesses.
    pub accesses: u64,
    /// Local cache hits.
    pub local_hits: u64,
    /// Accesses merged with an in-flight miss.
    pub merges: u64,
    /// Store upgrades (Shared → Modified).
    pub upgrades: u64,
    /// Misses served by a remote cluster's cache.
    pub remote_fills: u64,
    /// Misses served by main memory.
    pub memory_fills: u64,
    /// Invalidation messages sent to remote caches.
    pub invalidations: u64,
    /// Cycles spent waiting for a free memory bus.
    pub bus_wait_cycles: u64,
    /// Cycles spent waiting for a free MSHR entry.
    pub mshr_wait_cycles: u64,
    /// Memory-bus transactions (fills, upgrades, coherence).
    pub bus_transactions: u64,
}

impl MemoryCounters {
    /// Total misses (remote fills + memory fills).
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.remote_fills + self.memory_fills
    }

    /// Adds every counter of `other` into `self` (used to aggregate the
    /// per-loop counters of a batch run).
    pub fn accumulate(&mut self, other: &MemoryCounters) {
        // Exhaustive destructuring: adding a counter field without
        // aggregating it here becomes a compile error.
        let MemoryCounters {
            accesses,
            local_hits,
            merges,
            upgrades,
            remote_fills,
            memory_fills,
            invalidations,
            bus_wait_cycles,
            mshr_wait_cycles,
            bus_transactions,
        } = *other;
        self.accesses += accesses;
        self.local_hits += local_hits;
        self.merges += merges;
        self.upgrades += upgrades;
        self.remote_fills += remote_fills;
        self.memory_fills += memory_fills;
        self.invalidations += invalidations;
        self.bus_wait_cycles += bus_wait_cycles;
        self.mshr_wait_cycles += mshr_wait_cycles;
        self.bus_transactions += bus_transactions;
    }

    /// Local miss ratio (misses plus merges and upgrades over accesses).
    #[must_use]
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            (self.misses() + self.merges + self.upgrades) as f64 / self.accesses as f64
        }
    }
}

/// The whole distributed memory system of one multiVLIWprocessor.
#[derive(Debug, Clone)]
pub(crate) struct MemorySystem {
    caches: Vec<CoherentCache>,
    mshrs: Vec<Mshr>,
    buses: MemoryBuses,
    lat_cache: u64,
    lat_memory: u64,
    counters: MemoryCounters,
    /// `log2` of the block size (a power of two by validation).
    block_shift: u32,
}

impl MemorySystem {
    /// Builds the memory system of `machine` (one cache + MSHR per cluster,
    /// the shared memory buses and main memory).
    pub(crate) fn new(machine: &MachineConfig) -> Self {
        let caches: Vec<CoherentCache> = machine
            .clusters()
            .map(|(_, c)| CoherentCache::new(c.cache))
            .collect();
        let mshrs = machine
            .clusters()
            .map(|(_, c)| Mshr::new(c.cache.mshr_entries))
            .collect();
        let block_bytes = machine.cluster(0).cache.block_bytes;
        Self {
            caches,
            mshrs,
            buses: MemoryBuses::new(machine.memory_buses),
            lat_cache: u64::from(machine.latencies.load_hit),
            lat_memory: u64::from(machine.latencies.main_memory),
            counters: MemoryCounters::default(),
            block_shift: block_bytes.trailing_zeros(),
        }
    }

    /// Aggregate counters observed so far.
    pub(crate) fn counters(&self) -> MemoryCounters {
        let mut c = self.counters;
        c.bus_wait_cycles = self.buses.wait_cycles();
        c.bus_transactions = self.buses.transactions();
        c.mshr_wait_cycles = self.mshrs.iter().map(Mshr::wait_cycles).sum();
        c
    }

    /// Performs a memory access from `cluster` to `address` at time `now`
    /// and returns its latency as seen by the issuing cluster.
    pub(crate) fn access(
        &mut self,
        cluster: ClusterId,
        address: u64,
        is_store: bool,
        now: u64,
    ) -> u64 {
        self.counters.accesses += 1;
        let block = address >> self.block_shift;

        match self.caches[cluster].lookup(block, is_store) {
            HitKind::Hit => {
                // The line may still be in flight from an earlier miss.
                if let Some(done) = self.mshrs[cluster].pending_completion(block, now) {
                    self.counters.merges += 1;
                    self.caches[cluster].touch(block, is_store);
                    return self.lat_cache.max(done.saturating_sub(now));
                }
                self.counters.local_hits += 1;
                self.caches[cluster].touch(block, is_store);
                self.lat_cache
            }
            HitKind::UpgradeMiss => {
                // Store to a Shared line: invalidate every other copy over a
                // memory bus, then write locally.
                self.counters.upgrades += 1;
                let (bus_wait, _grant) = self.buses.request(now);
                self.invalidate_others(cluster, block);
                self.caches[cluster].touch(block, true);
                self.lat_cache + bus_wait + self.buses.latency()
            }
            HitKind::Miss => self.handle_miss(cluster, block, is_store, now),
        }
    }

    fn handle_miss(&mut self, cluster: ClusterId, block: u64, is_store: bool, now: u64) -> u64 {
        let state = if is_store {
            MsiState::Modified
        } else {
            MsiState::Shared
        };
        // Secondary miss to a line already being fetched: merge.
        if let Some(done) = self.mshrs[cluster].pending_completion(block, now) {
            self.counters.merges += 1;
            // Make sure the line is (or will be) resident.
            self.caches[cluster].allocate(block, state);
            return self.lat_cache.max(done.saturating_sub(now));
        }

        // Primary miss: wait for an MSHR entry, then for a bus, then fetch
        // from a remote cache or main memory.
        let mshr_wait = self.mshrs[cluster].entry_wait(now);
        let after_entry = now + mshr_wait;
        let (bus_wait, _grant) = self.buses.request(after_entry);

        let remote = self
            .caches
            .iter()
            .enumerate()
            .any(|(c, cache)| c != cluster && cache.contains(block));
        let fill_latency = if remote {
            self.counters.remote_fills += 1;
            self.lat_cache
        } else {
            self.counters.memory_fills += 1;
            self.lat_memory
        };

        // Coherence actions at the remote copies.
        if remote {
            if is_store {
                self.invalidate_others(cluster, block);
            } else {
                for (c, cache) in self.caches.iter_mut().enumerate() {
                    if c != cluster {
                        cache.downgrade(block);
                    }
                }
            }
        }

        let latency = self.lat_cache + mshr_wait + bus_wait + self.buses.latency() + fill_latency;
        self.mshrs[cluster].insert(block, now + latency, mshr_wait);
        self.caches[cluster].allocate(block, state);
        latency
    }

    /// Empties every cluster's cache and MSHR (cold caches) while keeping the
    /// accumulated counters and bus state. Used to model loops whose data is
    /// not resident when the loop is re-entered.
    pub(crate) fn flush_caches(&mut self) {
        self.caches.iter_mut().for_each(CoherentCache::clear);
        self.mshrs.iter_mut().for_each(Mshr::clear);
    }

    /// Drops bus state no request at or after `time` can reach (see
    /// [`MemoryBuses::forget_before`]).
    pub(crate) fn forget_before(&mut self, time: u64) {
        self.buses.forget_before(time);
    }

    fn invalidate_others(&mut self, cluster: ClusterId, block: u64) {
        for (c, cache) in self.caches.iter_mut().enumerate() {
            if c != cluster && cache.invalidate(block) {
                self.counters.invalidations += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvp_machine::presets;

    fn system() -> MemorySystem {
        MemorySystem::new(&presets::two_cluster())
    }

    #[test]
    fn cold_miss_goes_to_main_memory_then_hits_locally() {
        let mut m = system();
        // 2 (cache) + 1 (bus) + 10 (memory) with the realistic preset buses.
        assert_eq!(m.access(0, 0x1000, false, 0), 13);
        assert_eq!(m.counters().memory_fills, 1);
        assert_eq!(m.access(0, 0x1008, false, 100), 2);
        let c = m.counters();
        assert_eq!(c.accesses, 2);
        assert_eq!(c.memory_fills, 1);
        assert_eq!(c.local_hits, 1);
    }

    #[test]
    fn remote_cache_serves_misses_from_other_clusters() {
        let mut m = system();
        m.access(0, 0x2000, false, 0);
        // 2 (local) + 1 (bus) + 2 (remote cache).
        assert_eq!(m.access(1, 0x2000, false, 100), 5);
        assert_eq!(m.counters().remote_fills, 1);
        // Both caches now share the line: both hit locally.
        m.access(0, 0x2000, false, 200);
        m.access(1, 0x2000, false, 200);
        let c = m.counters();
        assert_eq!(c.local_hits, 2);
        assert_eq!((c.memory_fills, c.remote_fills), (1, 1));
    }

    #[test]
    fn stores_invalidate_remote_copies() {
        let mut m = system();
        m.access(0, 0x3000, false, 0);
        m.access(1, 0x3000, false, 50); // now shared in both
        m.access(0, 0x3000, true, 100); // store hits Shared: upgrade
        assert_eq!(m.counters().upgrades, 1);
        assert_eq!(m.counters().invalidations, 1);
        // A later load from cluster 1 misses again (coherence miss) and is
        // served by cluster 0's modified copy.
        m.access(1, 0x3000, false, 200);
        let c = m.counters();
        assert_eq!(c.remote_fills, 2);
        assert_eq!(c.local_hits, 0);
    }

    #[test]
    fn secondary_miss_merges_with_the_in_flight_fill() {
        let mut m = system();
        let first = m.access(0, 0x4000, false, 0);
        assert_eq!(m.counters().memory_fills, 1);
        // Same block, 3 cycles later: merge, latency is the remaining time.
        let second = m.access(0, 0x4008, false, 3);
        assert_eq!(second, first - 3);
        assert_eq!(m.counters().merges, 1);
        assert_eq!(m.counters().memory_fills, 1);
    }

    #[test]
    fn bus_contention_adds_wait_cycles() {
        // Single memory bus with 4-cycle latency.
        let machine =
            presets::two_cluster().with_memory_buses(mvp_machine::BusConfig::finite(1, 4));
        let mut m = MemorySystem::new(&machine);
        m.access(0, 0x5000, false, 0);
        assert_eq!(m.counters().bus_wait_cycles, 0);
        m.access(1, 0x9000, false, 1);
        assert_eq!(m.counters().bus_wait_cycles, 3);
        assert_eq!(m.counters().bus_transactions, 2);
    }

    #[test]
    fn miss_ratio_reflects_conflicting_streams() {
        let mut m = system();
        // Two addresses one cache-capacity (4 KB) apart ping-pong in the
        // 4 KB direct-mapped local cache of cluster 0.
        for t in 0..20 {
            m.access(0, 0x0, false, t * 50);
            m.access(0, 0x1000, false, t * 50 + 25);
        }
        let c = m.counters();
        assert_eq!(c.local_hits, 0);
        assert!(c.miss_ratio() > 0.99);
    }
}
