//! Unified tracing and metrics for the scheduling service.
//!
//! Every layer of the workspace — the pipeline, the work-stealing executor,
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
//!   one global metrics-registry table. A counter is either
//!   [`CounterClass::Stable`] — its value is a pure function of the work
//!   performed, byte-identical at any `MVP_THREADS` — or
//!   [`CounterClass::Runtime`] — scheduling-dependent (steals, parks, cache
//!   hits, elapsed-time accumulators). [`snapshot_csv`] serialises only the
//!   stable counters, sorted by name and timestamp-free, so the snapshot is
//!   a deterministic artifact.
//!
//! # Cost model
//!
//! Tracing is off by default. The disabled path of every span/instant/timed
//! helper is one relaxed atomic load and an early return: no clock read, no
//! allocation, no lock. [`TraceMode::Timing`] additionally reads the
//! monotonic clock around [`timed_span`] scopes and accumulates elapsed
//! nanoseconds into runtime counters (still no events, no allocation beyond
//! the one-time counter registration); [`TraceMode::Full`] records events
//! into the thread-local buffers as well.
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
//! * stable counters: `sat.decisions`, `sat.conflicts`, `sat.restarts`,
//!   `sat.learned_clauses`, `sat.atmostk.aux_vars`, `sat.assumption_probes`,
//!   `sat.kept_learned`, `sat.reencoded_clauses`, `exact.sat.cegar_rounds`,
//!   `exact.bnb.nodes`, `exact.bnb.backjumps`, `exact.bnb.dominance_cuts`,
//!   `pipeline.runs`, `pipeline.gap_oracle.runs`.
//! * runtime counters: `exec.steals`, `exec.parks`, `exec.wakes`,
//!   `exec.batches`, `schedcache.hits`, `schedcache.misses`,
//!   `schedcache.evictions`, and every `*.ns` elapsed-time accumulator
//!   (`pipeline.schedule.ns`, `pipeline.sim.ns`, `pipeline.gap_oracle.ns`,
//!   `pipeline.cache.probe.ns`).
//!
//! Integer arguments carry the payload (`ii`, `shard`, `jobs`); there are
//! deliberately no string or float payloads, which keeps events `Copy` and
//! the disabled path allocation-free.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Maximum number of `(name, value)` arguments an event carries. Extra
/// arguments passed to [`span_with`]/[`instant_with`] are dropped.
pub const MAX_ARGS: usize = 2;

/// Capacity of each thread-local event buffer; a full buffer is flushed to
/// the central sink.
const BUFFER_CAPACITY: usize = 4096;

// ---------------------------------------------------------------------------
// Mode switch
// ---------------------------------------------------------------------------

/// Global tracing mode. The hot-path check is a single relaxed load of this
/// byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum TraceMode {
    /// No clocks, no events, no timing accumulation (the default).
    Off = 0,
    /// [`timed_span`] scopes read the clock and accumulate elapsed
    /// nanoseconds into their runtime counters; no events are recorded.
    Timing = 1,
    /// Timing plus begin/end/instant events in the thread-local buffers.
    Full = 2,
}

static MODE: AtomicU8 = AtomicU8::new(TraceMode::Off as u8);

/// Sets the global tracing mode (typically once, at process start or at the
/// top of a bench driver).
pub fn set_mode(mode: TraceMode) {
    MODE.store(mode as u8, Ordering::Relaxed);
}

/// The current global tracing mode.
#[must_use]
pub fn mode() -> TraceMode {
    match MODE.load(Ordering::Relaxed) {
        0 => TraceMode::Off,
        1 => TraceMode::Timing,
        _ => TraceMode::Full,
    }
}

/// Whether timing accumulation is on (`Timing` or `Full`).
#[inline]
#[must_use]
pub fn timing_enabled() -> bool {
    MODE.load(Ordering::Relaxed) != TraceMode::Off as u8
}

/// Whether event recording is on (`Full`).
#[inline]
#[must_use]
pub fn events_enabled() -> bool {
    MODE.load(Ordering::Relaxed) == TraceMode::Full as u8
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
/// first-use order; the chrome-trace `tid` field).
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
/// executor calls this at batch boundaries so parked workers never hold
/// events hostage; call it before [`drain`] on any other thread that
/// recorded events.
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

/// Records a point event with no arguments (only in [`TraceMode::Full`]).
#[inline]
pub fn instant(name: &'static str) {
    if events_enabled() {
        record_now(name, EventKind::Instant, &[]);
    }
}

/// Records a point event with integer arguments (only in
/// [`TraceMode::Full`]).
#[inline]
pub fn instant_with(name: &'static str, args: &[(&'static str, i64)]) {
    if events_enabled() {
        record_now(name, EventKind::Instant, args);
    }
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// RAII guard for one span: records the `End` event and/or accumulates the
/// elapsed nanoseconds when dropped. When tracing was off at construction
/// the guard is unarmed and `Drop` is a no-op.
#[must_use = "a span guard measures until it is dropped"]
#[derive(Debug)]
pub struct SpanGuard {
    name: &'static str,
    start: Option<Instant>,
    emit: bool,
    acc: Option<&'static Counter>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else {
            return;
        };
        if let Some(acc) = self.acc {
            acc.add(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
        if self.emit {
            record_now(self.name, EventKind::End, &[]);
        }
    }
}

/// An inert guard whose `Drop` does nothing: what every span constructor
/// returns when tracing is off, and what callers with their own gating
/// (e.g. a per-pipeline trace flag) use for the muted branch.
pub const fn unarmed(name: &'static str) -> SpanGuard {
    SpanGuard {
        name,
        start: None,
        emit: false,
        acc: None,
    }
}

/// Opens a span with no arguments. In [`TraceMode::Full`] a `Begin` event is
/// recorded now and the matching `End` when the guard drops; otherwise the
/// guard is unarmed.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    span_with(name, &[])
}

/// Opens a span whose `Begin` event carries integer arguments.
#[inline]
pub fn span_with(name: &'static str, args: &[(&'static str, i64)]) -> SpanGuard {
    if !events_enabled() {
        return unarmed(name);
    }
    record_now(name, EventKind::Begin, args);
    SpanGuard {
        name,
        start: Some(Instant::now()),
        emit: true,
        acc: None,
    }
}

/// Opens a span that also accumulates its elapsed nanoseconds into `acc`
/// (a [`CounterClass::Runtime`] counter, conventionally named `*.ns`). In
/// [`TraceMode::Timing`] only the accumulation happens; in
/// [`TraceMode::Full`] begin/end events are recorded as well.
#[inline]
pub fn timed_span(name: &'static str, acc: &'static Counter) -> SpanGuard {
    timed_span_with(name, acc, &[])
}

/// [`timed_span`] with `Begin`-event arguments.
#[inline]
pub fn timed_span_with(
    name: &'static str,
    acc: &'static Counter,
    args: &[(&'static str, i64)],
) -> SpanGuard {
    match mode() {
        TraceMode::Off => unarmed(name),
        TraceMode::Timing => SpanGuard {
            name,
            start: Some(Instant::now()),
            emit: false,
            acc: Some(acc),
        },
        TraceMode::Full => {
            record_now(name, EventKind::Begin, args);
            SpanGuard {
                name,
                start: Some(Instant::now()),
                emit: true,
                acc: Some(acc),
            }
        }
    }
}

/// Runs `f`, returning its result and the elapsed wall-clock nanoseconds.
/// Unlike [`timed_span`] this *always* reads the clock — it is for callers
/// that need the measurement itself (per-row bench columns), not for
/// hot-path instrumentation. In [`TraceMode::Full`] it also brackets `f`
/// with begin/end events.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
    let emit = events_enabled();
    if emit {
        record_now(name, EventKind::Begin, &[]);
    }
    let start = Instant::now();
    let out = f();
    let elapsed = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    if emit {
        record_now(name, EventKind::End, &[]);
    }
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
/// `counter_handle!("exec.steals", Runtime).incr()`.
#[macro_export]
macro_rules! counter_handle {
    ($name:expr, $class:ident) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::Counter> =
            ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::counter($name, $crate::CounterClass::$class))
    }};
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

/// Determinism class of a counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterClass {
    /// A pure function of the work performed: byte-identical at any
    /// executor width. Only stable counters enter the deterministic
    /// [`snapshot_csv`] artifact.
    Stable,
    /// Scheduling-dependent (steals, parks, cache traffic, elapsed-time
    /// accumulators): excluded from the deterministic snapshot.
    Runtime,
}

impl CounterClass {
    /// Stable CSV label: `stable` or `runtime`.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            CounterClass::Stable => "stable",
            CounterClass::Runtime => "runtime",
        }
    }
}

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

type Registry = BTreeMap<&'static str, (CounterClass, &'static Counter)>;

static REGISTRY: Mutex<Registry> = Mutex::new(BTreeMap::new());

/// Returns the registered counter named `name`, creating it with the given
/// class on first use. Registration takes the registry lock — cache the
/// returned handle in a `static OnceLock` at hot call sites.
///
/// # Panics
///
/// Panics if `name` was previously registered with a different class (a
/// counter's determinism class is part of its identity).
pub fn counter(name: &'static str, class: CounterClass) -> &'static Counter {
    let mut reg = lock_ignoring_poison(&REGISTRY);
    if let Some(&(existing, c)) = reg.get(name) {
        assert!(
            existing == class,
            "counter {name} registered as {} and re-requested as {}",
            existing.label(),
            class.label(),
        );
        return c;
    }
    let c: &'static Counter = Box::leak(Box::new(Counter {
        value: AtomicU64::new(0),
    }));
    reg.insert(name, (class, c));
    c
}

/// One row of a registry snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Counter name.
    pub name: &'static str,
    /// Determinism class.
    pub class: CounterClass,
    /// Value at snapshot time.
    pub value: u64,
}

/// Snapshots every registered counter, sorted by name.
#[must_use]
pub fn snapshot() -> Vec<CounterSnapshot> {
    lock_ignoring_poison(&REGISTRY)
        .iter()
        .map(|(&name, &(class, c))| CounterSnapshot {
            name,
            class,
            value: c.get(),
        })
        .collect()
}

/// The deterministic metrics artifact: `counter,value` rows over the
/// [`CounterClass::Stable`] counters only, sorted by name, timestamp-free.
/// Byte-identical at any `MVP_THREADS` for the same work.
#[must_use]
pub fn snapshot_csv() -> String {
    let mut out = String::from("counter,value\n");
    for row in snapshot() {
        if row.class == CounterClass::Stable {
            out.push_str(&format!("{},{}\n", row.name, row.value));
        }
    }
    out
}

/// Every counter with its class: `counter,class,value` rows sorted by name.
/// Runtime rows vary run to run; use [`snapshot_csv`] for the deterministic
/// artifact.
#[must_use]
pub fn snapshot_csv_full() -> String {
    let mut out = String::from("counter,class,value\n");
    for row in snapshot() {
        out.push_str(&format!(
            "{},{},{}\n",
            row.name,
            row.class.label(),
            row.value
        ));
    }
    out
}

/// Zeroes every registered counter (registrations persist). For tests and
/// multi-pass bench drivers.
pub fn reset_counters() {
    for (_, c) in lock_ignoring_poison(&REGISTRY).values() {
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

    /// The global mode/registry/sink are process-wide; every test that
    /// touches them serialises on this lock.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _g = locked();
        set_mode(TraceMode::Off);
        reset();
        {
            let _s = span!("test.off", k = 3);
            instant!("test.off.instant");
            let _t = timed_span("test.off.timed", counter("test.ns", CounterClass::Runtime));
        }
        assert!(drain().is_empty());
        assert_eq!(counter("test.ns", CounterClass::Runtime).get(), 0);
    }

    #[test]
    fn full_mode_produces_balanced_spans_with_args() {
        let _g = locked();
        set_mode(TraceMode::Full);
        reset();
        {
            let _outer = span!("test.outer", jobs = 2);
            let _inner = span!("test.inner");
            instant!("test.mark", shard = 5);
        }
        set_mode(TraceMode::Off);
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
    fn timing_mode_accumulates_without_events() {
        let _g = locked();
        set_mode(TraceMode::Timing);
        reset();
        let acc = counter("test.timing.ns", CounterClass::Runtime);
        {
            let _t = timed_span("test.timing", acc);
            std::hint::black_box(0u64);
        }
        set_mode(TraceMode::Off);
        assert!(drain().is_empty(), "Timing mode records no events");
        // The scope may be faster than the clock granularity, but the timed
        // helper below is guaranteed to measure something on a sleep.
        let ((), slept) = timed("test.timing.sleep", || {
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        assert!(slept >= 1_000_000);
    }

    #[test]
    fn counters_register_once_and_snapshot_sorted() {
        let _g = locked();
        reset_counters();
        let a = counter("test.z.stable", CounterClass::Stable);
        let b = counter("test.a.stable", CounterClass::Stable);
        let r = counter("test.m.runtime", CounterClass::Runtime);
        a.add(2);
        b.incr();
        r.add(7);
        assert!(std::ptr::eq(
            a,
            counter("test.z.stable", CounterClass::Stable)
        ));
        let csv = snapshot_csv();
        let a_pos = csv.find("test.z.stable,2").expect("stable counter present");
        let b_pos = csv.find("test.a.stable,1").expect("stable counter present");
        assert!(b_pos < a_pos, "snapshot is sorted by name");
        assert!(!csv.contains("test.m.runtime"), "runtime excluded");
        assert!(snapshot_csv_full().contains("test.m.runtime,runtime,7"));
        reset_counters();
        assert_eq!(a.get(), 0);
    }

    #[test]
    #[should_panic(expected = "registered as stable")]
    fn class_mismatch_panics() {
        let _ = counter("test.mismatch", CounterClass::Stable);
        let _ = counter("test.mismatch", CounterClass::Runtime);
    }

    #[test]
    fn excess_args_are_truncated() {
        let _g = locked();
        set_mode(TraceMode::Full);
        reset();
        instant_with("test.many", &[("a", 1), ("b", 2), ("c", 3)]);
        set_mode(TraceMode::Off);
        let events = drain();
        assert_eq!(events[0].args(), &[("a", 1), ("b", 2)]);
    }

    #[test]
    fn cross_thread_events_flush_at_thread_boundaries() {
        let _g = locked();
        set_mode(TraceMode::Full);
        reset();
        let handle = std::thread::spawn(|| {
            instant!("test.worker.mark");
            flush_thread();
        });
        handle.join().unwrap();
        instant!("test.main.mark");
        set_mode(TraceMode::Off);
        let events = drain();
        let tids: std::collections::BTreeSet<u32> = events.iter().map(|e| e.tid).collect();
        assert_eq!(events.len(), 2);
        assert_eq!(tids.len(), 2, "two distinct logical thread ids");
    }
}
