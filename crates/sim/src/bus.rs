//! Memory-bus arbitration model.
//!
//! The clusters' local caches and main memory are connected by one or more
//! memory buses. A transaction (miss request + fill, or a coherence
//! invalidation) occupies a bus for the bus latency; when every bus is busy
//! the requester waits (`NC_WaitingBus` in the paper's latency model).
//!
//! The model is slot based: time is divided into windows of one bus latency,
//! and each window can start at most as many transactions as there are
//! buses. This makes the model insensitive to the order in which requests
//! are presented (the execution engine walks the iteration space iteration by
//! iteration, so overlapping iterations can present their requests slightly
//! out of time order) while still capturing both occasional contention and
//! sustained saturation.
//!
//! # Window storage
//!
//! The booked windows are dense counts from the oldest window still
//! reachable. The engine calls [`MemoryBuses::forget_before`] with each
//! iteration's issue base: every later request is issued at or after it, so
//! the windows before it can never be booked again and are dropped. What
//! remains reaches from that base to the latest grant: the schedule's span
//! (the iterations still in flight) plus the bus waits. The storage is thus
//! bounded by the schedule, not by the length of the run, unless the buses
//! are so oversubscribed that the waits themselves grow without bound.

use mvp_machine::{BusConfig, BusCount};
use std::collections::VecDeque;

/// Arbitrated set of memory buses.
#[derive(Debug, Clone)]
pub(crate) struct MemoryBuses {
    latency: u64,
    /// Transactions each window may start; `None` = unbounded buses.
    capacity: Option<usize>,
    /// Transactions booked per window, starting at window `first`.
    windows: VecDeque<usize>,
    first: u64,
    transactions: u64,
    wait_cycles: u64,
}

impl MemoryBuses {
    /// Creates the bus model from a machine's memory-bus configuration.
    pub(crate) fn new(config: BusConfig) -> Self {
        let capacity = match config.count {
            BusCount::Finite(n) => Some(n.max(1)),
            BusCount::Unbounded => None,
        };
        Self {
            latency: u64::from(config.latency.max(1)),
            capacity,
            windows: VecDeque::new(),
            first: 0,
            transactions: 0,
            wait_cycles: 0,
        }
    }

    /// Latency of one bus transaction.
    pub(crate) fn latency(&self) -> u64 {
        self.latency
    }

    /// Requests a bus at time `now`. Returns `(wait, grant_time)`: the cycles
    /// spent waiting for a free bus and the time at which the transaction
    /// starts.
    pub(crate) fn request(&mut self, now: u64) -> (u64, u64) {
        self.transactions += 1;
        let Some(capacity) = self.capacity else {
            return (0, now);
        };
        let mut window = now / self.latency;
        if self.windows.is_empty() {
            self.first = window;
        } else if window < self.first {
            // Earlier than every booked window (overlapping iterations
            // present requests slightly out of time order): those windows
            // are still empty.
            for _ in window..self.first {
                self.windows.push_front(0);
            }
            self.first = window;
        }
        let mut slot = (window - self.first) as usize;
        loop {
            if slot >= self.windows.len() {
                self.windows.resize(slot + 1, 0);
            }
            let used = &mut self.windows[slot];
            if *used < capacity {
                *used += 1;
                let grant = now.max(window * self.latency);
                let wait = grant - now;
                self.wait_cycles += wait;
                return (wait, grant);
            }
            window += 1;
            slot += 1;
        }
    }

    /// Drops the windows that end before `time`. No request may be made
    /// before `time` afterwards.
    pub(crate) fn forget_before(&mut self, time: u64) {
        let window = time / self.latency;
        if window <= self.first {
            return;
        }
        let drop = ((window - self.first) as usize).min(self.windows.len());
        self.windows.drain(..drop);
        self.first = window;
    }

    /// Total transactions issued so far.
    pub(crate) fn transactions(&self) -> u64 {
        self.transactions
    }

    /// Total cycles spent waiting for a free bus.
    pub(crate) fn wait_cycles(&self) -> u64 {
        self.wait_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvp_machine::BusConfig;

    #[test]
    fn unbounded_buses_never_wait() {
        let mut buses = MemoryBuses::new(BusConfig::unbounded(4));
        for t in 0..10 {
            let (wait, grant) = buses.request(t);
            assert_eq!(wait, 0);
            assert_eq!(grant, t);
        }
        assert_eq!(buses.transactions(), 10);
        assert_eq!(buses.wait_cycles(), 0);
    }

    #[test]
    fn single_bus_serialises_back_to_back_requests() {
        let mut buses = MemoryBuses::new(BusConfig::finite(1, 4));
        let (w1, g1) = buses.request(0);
        assert_eq!((w1, g1), (0, 0));
        // Second request at time 1 falls in the same 4-cycle window, which is
        // already full: it waits for the next window.
        let (w2, g2) = buses.request(1);
        assert_eq!((w2, g2), (3, 4));
        // Third at time 10: a fresh window, no wait.
        let (w3, g3) = buses.request(10);
        assert_eq!((w3, g3), (0, 10));
        assert_eq!(buses.wait_cycles(), 3);
    }

    #[test]
    fn two_buses_overlap_two_requests() {
        let mut buses = MemoryBuses::new(BusConfig::finite(2, 4));
        assert_eq!(buses.request(0), (0, 0));
        assert_eq!(buses.request(0), (0, 0));
        // The third request waits for the next window.
        assert_eq!(buses.request(0), (4, 4));
        assert_eq!(buses.latency(), 4);
    }

    #[test]
    fn out_of_order_requests_do_not_penalise_earlier_times() {
        let mut buses = MemoryBuses::new(BusConfig::finite(1, 1));
        // A request far in the future...
        assert_eq!(buses.request(100), (0, 100));
        // ...must not delay a request that happens earlier in simulated time.
        assert_eq!(buses.request(5), (0, 5));
        assert_eq!(buses.wait_cycles(), 0);
    }

    #[test]
    fn forgetting_past_windows_changes_no_grant_and_bounds_storage() {
        // Out-of-order requests per "iteration", each at or after the
        // iteration's base, as the engine presents them: 4 requests every 10
        // cycles on 2 buses of latency 4 wait at times but do not back up.
        let mut kept = MemoryBuses::new(BusConfig::finite(2, 4));
        let mut pruned = MemoryBuses::new(BusConfig::finite(2, 4));
        for iteration in 0..500u64 {
            let base = iteration * 10;
            pruned.forget_before(base);
            for offset in [7, 0, 1, 12] {
                let now = base + offset;
                assert_eq!(kept.request(now), pruned.request(now), "request at {now}");
            }
            assert!(
                pruned.windows.len() <= 8,
                "{} windows",
                pruned.windows.len()
            );
        }
        assert_eq!(kept.wait_cycles(), pruned.wait_cycles());
        assert!(kept.wait_cycles() > 0);
        assert!(kept.windows.len() > 1000);
    }

    #[test]
    fn sustained_overload_accumulates_wait() {
        // One bus, latency 2: capacity is one transaction per 2 cycles, but
        // we submit one per cycle — waits must grow.
        let mut buses = MemoryBuses::new(BusConfig::finite(1, 2));
        let mut total_wait = 0;
        for t in 0..20 {
            let (wait, _) = buses.request(t);
            total_wait += wait;
        }
        assert!(total_wait > 0);
        assert_eq!(buses.wait_cycles(), total_wait);
    }
}
