//! Miss-status handling registers (MSHR) of a non-blocking cache.
//!
//! Each local cache can track a bounded number of outstanding misses. A new
//! miss that finds the MSHR full waits for an entry (`NC_WaitingEntry`).
//! Secondary misses to a block that is already in flight merge with the
//! pending entry and simply wait for its completion — the effect the paper
//! notes when "an earlier miss has already started loading the relevant
//! cache line".

/// MSHR model of one cluster's non-blocking cache.
#[derive(Debug, Clone)]
pub(crate) struct Mshr {
    entries: usize,
    /// In-flight misses as `(block, completion time)`. There are at most a
    /// few (Table 1 has 10 entries), so a linear scan beats hashing.
    in_flight: Vec<(u64, u64)>,
    wait_cycles: u64,
}

impl Mshr {
    /// Creates an MSHR with the given number of entries.
    pub(crate) fn new(entries: usize) -> Self {
        Self {
            entries: entries.max(1),
            in_flight: Vec::new(),
            wait_cycles: 0,
        }
    }

    /// Drops entries that completed at or before `now`.
    fn expire(&mut self, now: u64) {
        if !self.in_flight.is_empty() {
            self.in_flight.retain(|&(_, done)| done > now);
        }
    }

    /// Completion time of an in-flight fetch of `block`, if any (a secondary
    /// miss can merge with it instead of allocating a new entry).
    pub(crate) fn pending_completion(&mut self, block: u64, now: u64) -> Option<u64> {
        self.expire(now);
        self.in_flight
            .iter()
            .find(|&&(b, _)| b == block)
            .map(|&(_, done)| done)
    }

    /// Cycles a new miss arriving at `now` must wait before an MSHR entry is
    /// available (0 when the MSHR has a free entry). Does not allocate.
    pub(crate) fn entry_wait(&mut self, now: u64) -> u64 {
        self.expire(now);
        if self.in_flight.len() < self.entries {
            return 0;
        }
        let earliest = self
            .in_flight
            .iter()
            .map(|&(_, done)| done)
            .min()
            .expect("MSHR is full, so it is non-empty");
        earliest.saturating_sub(now)
    }

    /// Records an in-flight miss of `block` completing at `completion`,
    /// accounting `waited` cycles of entry wait.
    pub(crate) fn insert(&mut self, block: u64, completion: u64, waited: u64) {
        self.wait_cycles += waited;
        match self.in_flight.iter_mut().find(|(b, _)| *b == block) {
            Some(entry) => entry.1 = completion,
            None => self.in_flight.push((block, completion)),
        }
    }

    /// Forgets every in-flight miss (cold caches); the wait total stays.
    pub(crate) fn clear(&mut self) {
        self.in_flight.clear();
    }

    /// Total cycles spent waiting for a free entry.
    pub(crate) fn wait_cycles(&self) -> u64 {
        self.wait_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_without_pressure_is_free() {
        let mut mshr = Mshr::new(4);
        assert_eq!(mshr.entry_wait(100), 0);
        mshr.insert(10, 112, 0);
        // Outstanding at 100, gone at its completion time 112.
        assert_eq!(mshr.pending_completion(10, 100), Some(112));
        assert_eq!(mshr.pending_completion(10, 112), None);
        assert_eq!(mshr.wait_cycles(), 0);
    }

    #[test]
    fn full_mshr_waits_for_the_earliest_completion() {
        let mut mshr = Mshr::new(2);
        mshr.insert(1, 10, 0);
        mshr.insert(2, 20, 0);
        let wait = mshr.entry_wait(5);
        assert_eq!(wait, 5); // waits until time 10
        mshr.insert(3, 5 + wait + 10, wait);
        assert_eq!(mshr.pending_completion(3, 5), Some(20));
        assert_eq!(mshr.wait_cycles(), 5);
    }

    #[test]
    fn secondary_miss_merges_with_in_flight_entry() {
        let mut mshr = Mshr::new(4);
        mshr.insert(7, 14, 0);
        assert_eq!(mshr.pending_completion(7, 3), Some(14));
        // After completion the entry disappears.
        assert_eq!(mshr.pending_completion(7, 14), None);
    }

    #[test]
    fn zero_entry_request_is_clamped_to_one() {
        let mut mshr = Mshr::new(0);
        assert_eq!(mshr.entry_wait(0), 0);
        mshr.insert(1, 5, 0);
        // The single entry is now busy; a second miss waits.
        assert_eq!(mshr.entry_wait(1), 4);
    }
}
