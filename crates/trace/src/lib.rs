//! Unified tracing and metrics for the scheduling service.
//!
//! Every layer of the workspace — the pipeline, the batch executor,
//! the schedule cache, the branch-and-bound search and the SAT solver —
//! reports through this one crate instead of ad-hoc stat structs. Two facilities share it:
//!
//! * **Events and spans** ([`span()`], [`instant()`]): timestamped records with
//!   a `&'static str` name, a stable per-thread logical id and up to
//!   [`MAX_ARGS`] integer arguments. Each thread buffers its events in a
//!   thread-local ring flushed to a central sink ([`flush_thread`],
//!   [`drain`]); `mvp-bench` exports the drained events as a
//!   chrome://tracing JSON trace.
//! * **Counters** ([`counter`], [`Counter`]): named monotone `u64` values in
//!   one global metrics-registry table. Every counter is a pure function of
//!   the work performed, byte-identical at any `MVP_THREADS`, so
//!   [`snapshot_csv`] — all counters, sorted by name, timestamp-free — is a
//!   deterministic artifact. Numbers that depend on scheduling (cache
//!   traffic, elapsed time) travel in the results that describe them, not
//!   here.
//!
//! # Cost model
//!
//! Tracing is off by default and switched by [`set_enabled`]. With it off,
//! every span and instant is one relaxed atomic load and an early return:
//! no clock read, no allocation, no lock. With it on, spans and instants
//! record events into the thread-local buffers. Counters tick whether
//! tracing is on or off.
//!
//! # Naming convention
//!
//! Span, event and counter names are dotted lowercase paths rooted at the
//! emitting layer: `layer.noun[.detail]`.
//!
//! * spans/events: `pipeline.cache.probe`, `pipeline.schedule`,
//!   `pipeline.sim`, `pipeline.gap_oracle`, `exec.batch`,
//!   `exec.worker.batch`, `exec.job`, `schedcache.hit`, `schedcache.miss`,
//!   `schedcache.evict`, `exact.search`, `exact.probe`, `exact.sat.probe`,
//!   `exact.sat.cegar_round`, `sat.solve`.
//! * counters: `sat.decisions`, `sat.conflicts`, `sat.restarts`,
//!   `sat.learned_clauses`, `sat.atmostk.aux_vars`, `exact.sat.cegar_rounds`,
//!   `exact.sat.encoded_vars`, `exact.sat.encoded_clauses`,
//!   `exact.bnb.nodes`, `exact.bnb.backjumps`, `exact.bnb.dominance_cuts`,
//!   `pipeline.runs`, `pipeline.gap_oracle.runs`.
//!
//! Integer arguments carry the payload (`ii`, `shard`, `jobs`); there are
//! deliberately no string or float payloads, which keeps events `Copy` and
//! the disabled path allocation-free.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Maximum number of `(name, value)` arguments an event carries. Extra
/// arguments passed to [`span_with`]/[`instant_with`] are dropped.
pub const MAX_ARGS: usize = 2;

/// Capacity of each thread-local event buffer; a full buffer is flushed to
/// the central sink.
const BUFFER_CAPACITY: usize = 4096;

// ---------------------------------------------------------------------------
// On/off switch
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Switches event recording on or off process-wide (typically once, around
/// the run a bench driver wants traced).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether event recording is on. The hot-path check is this one relaxed
/// load.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Clock and thread ids
// ---------------------------------------------------------------------------

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process-wide trace epoch (lazily pinned on first
/// use). Monotonic within a process; only meaningful relative to other
/// values from the same process.
#[must_use]
pub fn now_ns() -> u64 {
    u64::try_from(EPOCH.get_or_init(Instant::now).elapsed().as_nanos()).unwrap_or(u64::MAX)
}

static NEXT_TID: AtomicU32 = AtomicU32::new(1);

thread_local! {
    static TID: u32 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// The calling thread's stable logical trace id (small integers assigned in
/// first-use order; the chrome-trace `tid` field). The executor spawns
/// fresh helper threads for every batch, so each batch's helpers get fresh
/// ids.
#[must_use]
pub fn thread_id() -> u32 {
    TID.with(|t| *t)
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// What an [`Event`] marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened (chrome-trace phase `B`).
    Begin,
    /// A span closed (chrome-trace phase `E`).
    End,
    /// A point event (chrome-trace phase `i`).
    Instant,
}

/// One trace record: a static name, a kind, a timestamp, the recording
/// thread and up to [`MAX_ARGS`] integer arguments. `Copy`, so buffering
/// never allocates per event.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// Dotted-path event name (see the crate-level naming convention).
    pub name: &'static str,
    /// Begin / end / instant.
    pub kind: EventKind,
    /// Nanoseconds since the trace epoch.
    pub ts_ns: u64,
    /// Logical id of the recording thread.
    pub tid: u32,
    arg_buf: [(&'static str, i64); MAX_ARGS],
    num_args: u8,
}

impl Event {
    /// The event's `(name, value)` arguments.
    #[must_use]
    pub fn args(&self) -> &[(&'static str, i64)] {
        &self.arg_buf[..self.num_args as usize]
    }
}

fn pack_args(args: &[(&'static str, i64)]) -> ([(&'static str, i64); MAX_ARGS], u8) {
    let mut buf = [("", 0i64); MAX_ARGS];
    let n = args.len().min(MAX_ARGS);
    buf[..n].copy_from_slice(&args[..n]);
    (buf, n as u8)
}

thread_local! {
    static BUFFER: RefCell<Vec<Event>> = const { RefCell::new(Vec::new()) };
}

static SINK: Mutex<Vec<Event>> = Mutex::new(Vec::new());

/// The sink and registry locks guard plain data with no invariants that a
/// panicked holder could have broken mid-update, so poisoning is ignored.
fn lock_ignoring_poison<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn record(event: Event) {
    BUFFER.with(|cell| {
        let mut buf = cell.borrow_mut();
        if buf.capacity() == 0 {
            buf.reserve_exact(BUFFER_CAPACITY);
        }
        buf.push(event);
        if buf.len() >= BUFFER_CAPACITY {
            lock_ignoring_poison(&SINK).append(&mut buf);
        }
    });
}

fn record_now(name: &'static str, kind: EventKind, args: &[(&'static str, i64)]) {
    let (arg_buf, num_args) = pack_args(args);
    record(Event {
        name,
        kind,
        ts_ns: now_ns(),
        tid: thread_id(),
        arg_buf,
        num_args,
    });
}

/// Flushes the calling thread's event buffer into the central sink. The
/// executor calls this at batch boundaries, and each helper thread before
/// it exits, so a finished batch never holds events back; call it before
/// [`drain`] on any other thread that recorded events.
pub fn flush_thread() {
    BUFFER.with(|cell| {
        let mut buf = cell.borrow_mut();
        if !buf.is_empty() {
            lock_ignoring_poison(&SINK).append(&mut buf);
        }
    });
}

/// Flushes the calling thread and takes every event accumulated in the
/// central sink. Events from a given thread appear in recording order;
/// events from different threads interleave arbitrarily.
#[must_use]
pub fn drain() -> Vec<Event> {
    flush_thread();
    std::mem::take(&mut *lock_ignoring_poison(&SINK))
}

/// Records a point event with no arguments (only while [`enabled`]).
#[inline]
pub fn instant(name: &'static str) {
    if enabled() {
        record_now(name, EventKind::Instant, &[]);
    }
}

/// Records a point event with integer arguments (only while [`enabled`]).
#[inline]
pub fn instant_with(name: &'static str, args: &[(&'static str, i64)]) {
    if enabled() {
        record_now(name, EventKind::Instant, args);
    }
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// RAII guard for one span: records the `End` event when dropped. Whether
/// it does is fixed when the span opens — a span opened while tracing is
/// off never records its `End`, and one opened while it is on always does,
/// so per-thread begin/end stacks stay balanced across a toggle.
#[must_use = "a span guard measures until it is dropped"]
#[derive(Debug)]
pub struct SpanGuard {
    name: &'static str,
    armed: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.armed {
            record_now(self.name, EventKind::End, &[]);
        }
    }
}

/// Opens a span with no arguments. While tracing is [`enabled`] a `Begin`
/// event is recorded now and the matching `End` when the guard drops;
/// otherwise the guard is unarmed.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    span_with(name, &[])
}

/// Opens a span whose `Begin` event carries integer arguments.
#[inline]
pub fn span_with(name: &'static str, args: &[(&'static str, i64)]) -> SpanGuard {
    let armed = enabled();
    if armed {
        record_now(name, EventKind::Begin, args);
    }
    SpanGuard { name, armed }
}

/// Runs `f`, returning its result and the elapsed wall-clock nanoseconds.
/// Unlike a span this *always* reads the clock — it is for callers that
/// need the measurement itself (per-row bench columns), not for hot-path
/// instrumentation. While tracing is [`enabled`] it also brackets `f` with
/// begin/end events.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
    let _span = span(name);
    let start = Instant::now();
    let out = f();
    let elapsed = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    (out, elapsed)
}

/// Opens a span with optional `key = integer` arguments:
/// `span!("exec.batch")` or `span!("exec.batch", jobs = n)`.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
    ($name:expr, $($k:ident = $v:expr),+ $(,)?) => {
        $crate::span_with($name, &[$((stringify!($k), $v as i64)),+])
    };
}

/// Records a point event with optional `key = integer` arguments:
/// `instant!("schedcache.hit", shard = s)`.
#[macro_export]
macro_rules! instant {
    ($name:expr) => {
        $crate::instant($name)
    };
    ($name:expr, $($k:ident = $v:expr),+ $(,)?) => {
        $crate::instant_with($name, &[$((stringify!($k), $v as i64)),+])
    };
}

/// Expands to a `&'static Counter` cached in a per-call-site `OnceLock`, so
/// hot paths pay one atomic load instead of a registry lock:
/// `counter_handle!("pipeline.runs").incr()`.
#[macro_export]
macro_rules! counter_handle {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::Counter> =
            ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::counter($name))
    }};
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

/// A named monotone `u64` metric. Handles are `&'static` — obtain one with
/// [`counter`] and cache it in a `OnceLock` at the call site.
#[derive(Debug)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one to the counter.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn zero(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

static REGISTRY: Mutex<BTreeMap<&'static str, &'static Counter>> = Mutex::new(BTreeMap::new());

/// Returns the registered counter named `name`, creating it on first use.
/// Registration takes the registry lock — cache the returned handle in a
/// `static OnceLock` at hot call sites ([`counter_handle!`]).
pub fn counter(name: &'static str) -> &'static Counter {
    lock_ignoring_poison(&REGISTRY)
        .entry(name)
        .or_insert_with(|| {
            Box::leak(Box::new(Counter {
                value: AtomicU64::new(0),
            }))
        })
}

/// One row of a registry snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Counter name.
    pub name: &'static str,
    /// Value at snapshot time.
    pub value: u64,
}

/// Snapshots every registered counter, sorted by name.
#[must_use]
pub fn snapshot() -> Vec<CounterSnapshot> {
    lock_ignoring_poison(&REGISTRY)
        .iter()
        .map(|(&name, c)| CounterSnapshot {
            name,
            value: c.get(),
        })
        .collect()
}

/// The deterministic metrics artifact: `counter,value` rows over every
/// registered counter, sorted by name, timestamp-free. Byte-identical at
/// any `MVP_THREADS` for the same work.
#[must_use]
pub fn snapshot_csv() -> String {
    let mut out = String::from("counter,value\n");
    for row in snapshot() {
        out.push_str(&format!("{},{}\n", row.name, row.value));
    }
    out
}

/// Zeroes every registered counter (registrations persist). For tests and
/// multi-pass bench drivers.
pub fn reset_counters() {
    for c in lock_ignoring_poison(&REGISTRY).values() {
        c.zero();
    }
}

/// Resets counters and discards buffered events: the calling thread's
/// buffer and the central sink. Other threads' unflushed buffers are not
/// reachable from here — have them hit a flush point (an executor batch
/// boundary) first.
pub fn reset() {
    reset_counters();
    BUFFER.with(|cell| cell.borrow_mut().clear());
    lock_ignoring_poison(&SINK).clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The global switch/registry/sink are process-wide; every test that
    /// touches them serialises on this lock.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _g = locked();
        set_enabled(false);
        reset();
        {
            let _s = span!("test.off", k = 3);
            instant!("test.off.instant");
        }
        assert!(drain().is_empty());
    }

    #[test]
    fn full_mode_produces_balanced_spans_with_args() {
        let _g = locked();
        set_enabled(true);
        reset();
        {
            let _outer = span!("test.outer", jobs = 2);
            let _inner = span!("test.inner");
            instant!("test.mark", shard = 5);
        }
        set_enabled(false);
        let events = drain();
        let begins = events.iter().filter(|e| e.kind == EventKind::Begin).count();
        let ends = events.iter().filter(|e| e.kind == EventKind::End).count();
        assert_eq!(begins, 2);
        assert_eq!(ends, 2);
        let mark = events
            .iter()
            .find(|e| e.name == "test.mark")
            .expect("instant recorded");
        assert_eq!(mark.kind, EventKind::Instant);
        assert_eq!(mark.args(), &[("shard", 5)]);
        // Timestamps are monotone in recording order on one thread.
        let tid = events[0].tid;
        assert!(events.iter().all(|e| e.tid == tid));
        assert!(events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
    }

    #[test]
    fn a_span_opened_while_disabled_stays_silent_after_enabling() {
        let _g = locked();
        set_enabled(false);
        reset();
        let span = span!("test.toggle.on");
        set_enabled(true);
        drop(span);
        set_enabled(false);
        assert!(drain().is_empty(), "no End without its Begin");
    }

    #[test]
    fn a_span_opened_while_enabled_still_ends_after_disabling() {
        let _g = locked();
        set_enabled(true);
        reset();
        let span = span!("test.toggle.off");
        set_enabled(false);
        drop(span);
        let kinds: Vec<EventKind> = drain().iter().map(|e| e.kind).collect();
        assert_eq!(kinds, [EventKind::Begin, EventKind::End]);
    }

    #[test]
    fn timed_measures_with_tracing_off() {
        let _g = locked();
        set_enabled(false);
        reset();
        let ((), slept) = timed("test.timed.sleep", || {
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        assert!(slept >= 1_000_000);
        assert!(drain().is_empty(), "timed records no events while off");
    }

    #[test]
    fn counters_register_once_and_snapshot_sorted() {
        let _g = locked();
        reset_counters();
        let a = counter("test.z.counter");
        let b = counter("test.a.counter");
        a.add(2);
        b.incr();
        assert!(std::ptr::eq(a, counter("test.z.counter")));
        let csv = snapshot_csv();
        let a_pos = csv.find("test.z.counter,2").expect("counter present");
        let b_pos = csv.find("test.a.counter,1").expect("counter present");
        assert!(b_pos < a_pos, "snapshot is sorted by name");
        reset_counters();
        assert_eq!(a.get(), 0);
    }

    #[test]
    fn excess_args_are_truncated() {
        let _g = locked();
        set_enabled(true);
        reset();
        instant_with("test.many", &[("a", 1), ("b", 2), ("c", 3)]);
        set_enabled(false);
        let events = drain();
        assert_eq!(events[0].args(), &[("a", 1), ("b", 2)]);
    }

    #[test]
    fn cross_thread_events_flush_at_thread_boundaries() {
        let _g = locked();
        set_enabled(true);
        reset();
        let handle = std::thread::spawn(|| {
            instant!("test.worker.mark");
            flush_thread();
        });
        handle.join().unwrap();
        instant!("test.main.mark");
        set_enabled(false);
        let events = drain();
        let tids: std::collections::BTreeSet<u32> = events.iter().map(|e| e.tid).collect();
        assert_eq!(events.len(), 2);
        assert_eq!(tids.len(), 2, "two distinct logical thread ids");
    }
}
