//! The batch executor shared by every heavy path of the workspace.
//!
//! All the batch-shaped work in this repository — per-loop pipeline runs,
//! optimality-gap oracle calls, figure grid sweeps, seeded fuzz cases — is
//! embarrassingly parallel but badly balanced: a tomcatv kernel or a
//! million-node exact probe can take orders of magnitude longer than its
//! batch neighbours. [`Executor::map`] runs such a batch on a team of
//! threads that **claim jobs one index at a time** from a shared atomic
//! cursor, so a straggler occupies one participant while the others drain
//! the rest of the batch instead of waiting behind it.
//!
//! # One scope per batch
//!
//! A parallel batch runs inside one [`std::thread::scope`]: the scope spawns
//! `min(threads - 1, jobs - 1)` helper threads named `mvp-exec-{i}`, the
//! calling thread joins in as participant 0, and the scope joins every
//! helper before `map` returns, which is what lets the jobs borrow the
//! caller's items and result slots directly. If the operating
//! system refuses to spawn a helper, the batch is left to the participants
//! that did start; the caller alone can drain it.
//!
//! # Determinism
//!
//! The collect side is **ordered**: every job writes its result under its
//! original index, and `map` returns `Vec<R>` in input order no matter how
//! the jobs interleaved across threads. A batch of *pure* jobs therefore
//! produces bit-identical output for any thread count — `MVP_THREADS=1` and
//! `MVP_THREADS=8` runs of the pipeline, the bench drivers and the fuzz
//! harness emit byte-identical reports and CSVs (this is pinned by
//! `tests/executor_determinism.rs` at the workspace root).
//!
//! # Panic propagation
//!
//! A panicking job never deadlocks or poisons the batch: the batch runs to
//! completion regardless, and the panic payload of the smallest-indexed
//! panicking job — a property of the batch, not of the scheduling — is
//! re-raised on the caller's thread once every helper has been joined.
//! Compared to a sequential `for` loop the only difference is that the jobs
//! after the failing one have also run. The executor keeps nothing between
//! batches, so the next batch runs normally.
//!
//! # Nesting
//!
//! `map` called from *inside* a batch participant runs inline on that
//! thread (sequentially): a figure sweep parallelised over grid points
//! would otherwise multiply its thread count by every suite run it
//! contains. Balance still comes from the outermost batch, which is always
//! the widest.
//!
//! # Sizing
//!
//! [`Executor::from_env`] honours the `MVP_THREADS` environment variable
//! (clamped to at least 1) and falls back to
//! [`std::thread::available_parallelism`]. [`Executor::global`] builds one
//! such executor per process, lazily, and is what the pipeline uses unless
//! an explicit executor is configured. An executor of `n` threads runs each
//! batch on at most `n` participants: the calling thread plus up to `n - 1`
//! helpers, never more than the batch has jobs.
//!
//! # Observability
//!
//! Batches report through [`mvp_trace`]: an `exec.batch` span on the
//! caller, an `exec.worker.batch` span per helper, an `exec.job` span per
//! job (its `deque` argument is the participant index, `-1` for inline
//! jobs). Every helper flushes its thread-local event buffer before it
//! exits, so [`mvp_trace::drain`] sees the whole batch once `map` returns.
//! Helpers are fresh threads per batch, so each batch's helpers appear
//! under fresh `tid`s in a chrome trace.
//!
//! # Example
//!
//! ```
//! use mvp_exec::Executor;
//!
//! let exec = Executor::new(4);
//! let squares = exec.map(&[1u64, 2, 3, 4, 5], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]); // input order, always
//! assert!(!Executor::is_worker_thread()); // the batch is over
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Environment variable overriding the worker count of
/// [`Executor::from_env`] (and therefore of [`Executor::global`]).
pub const THREADS_ENV_VAR: &str = "MVP_THREADS";

thread_local! {
    /// Whether the current thread is participating in a batch (a helper,
    /// or the caller while it drains its own batch; see the module docs on
    /// nesting).
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// A fixed-width batch executor with an ordered-collect API.
///
/// See the [module documentation](self) for the design; the behavioural
/// contract in one line: [`map`](Executor::map) over pure jobs is
/// observationally identical to `items.iter().map(f).collect()` — same
/// order, same panics — only faster.
#[derive(Debug, Clone)]
pub struct Executor {
    threads: usize,
}

impl Executor {
    /// Creates an executor that runs batches on `threads` participants
    /// (clamped to at least 1; 1 means strictly sequential, in-place
    /// execution).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// Creates an executor sized from the environment: the `MVP_THREADS`
    /// variable when set to a positive integer, the machine's available
    /// parallelism otherwise.
    #[must_use]
    pub fn from_env() -> Self {
        let configured = std::env::var(THREADS_ENV_VAR).ok();
        Self::new(Self::parse_threads(configured.as_deref()))
    }

    /// The worker count `from_env` derives from an `MVP_THREADS` value
    /// (`None` = variable unset). Non-numeric values fall back to the
    /// available parallelism, like an unset variable. `0` parses but names
    /// no usable width — a zero-thread executor cannot run anything — so it
    /// falls back too, with a warning on stderr: silently treating an
    /// explicit `MVP_THREADS=0` as "all cores" is the exact opposite of
    /// what a user throttling a shared box asked for.
    #[must_use]
    pub fn parse_threads(env_value: Option<&str>) -> usize {
        let fallback =
            || std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        match env_value.map(|v| v.trim().parse::<usize>()) {
            Some(Ok(0)) => {
                let threads = fallback();
                eprintln!(
                    "warning: {THREADS_ENV_VAR}=0 names no usable width; \
                     falling back to the available parallelism ({threads})"
                );
                threads
            }
            Some(Ok(n)) => n,
            Some(Err(_)) | None => fallback(),
        }
    }

    /// The process-wide shared executor (sized by [`Executor::from_env`]
    /// once, on first use). This is what [`multivliw`'s
    /// `Pipeline`](https://docs.rs/multivliw) and the bench drivers run on
    /// unless given an explicit executor.
    #[must_use]
    pub fn global() -> Arc<Executor> {
        static GLOBAL: OnceLock<Arc<Executor>> = OnceLock::new();
        Arc::clone(GLOBAL.get_or_init(|| Arc::new(Executor::from_env())))
    }

    /// Number of participants batches run on (the calling thread plus up
    /// to `threads() - 1` helpers).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether the calling thread is itself a batch participant (in which
    /// case any nested `map` runs inline; see the module docs).
    #[must_use]
    pub fn is_worker_thread() -> bool {
        IN_WORKER.with(std::cell::Cell::get)
    }

    /// Runs `f` over every item and returns the results **in input order**,
    /// regardless of how the jobs were interleaved across threads.
    ///
    /// # Panics
    ///
    /// Re-raises the panic of the smallest-indexed panicking job after the
    /// whole batch has run (deterministic for a deterministic batch; see
    /// the module docs). The executor stays usable afterwards.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.map_indexed(items, |_, item| f(item))
    }

    /// Like [`map`](Executor::map), but the job also receives its input
    /// index (useful for seeding and labelling).
    pub fn map_indexed<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        // Sequential paths: a 1-thread executor, a trivial batch, or a
        // nested call from inside a batch participant (see the module docs).
        // These still trace `exec.job` spans (deque -1: no participant
        // index) so a 1-thread trace shows the same per-job structure a
        // parallel one does; they are not counted as batches.
        if self.threads == 1 || items.len() <= 1 || Self::is_worker_thread() {
            return items
                .iter()
                .enumerate()
                .map(|(i, x)| {
                    let _job = mvp_trace::span!("exec.job", job = i, deque = -1);
                    f(i, x)
                })
                .collect();
        }

        let next = AtomicUsize::new(0);
        let results: Vec<Mutex<Option<R>>> = (0..items.len()).map(|_| Mutex::new(None)).collect();
        let panicked: Mutex<Option<(usize, Box<dyn std::any::Any + Send>)>> = Mutex::new(None);

        // The batch always runs to completion, panic or not: draining every
        // job is what makes the re-raised panic *deterministic* (the
        // smallest-indexed panicking job of the whole batch, not of a
        // scheduling-dependent prefix). Jobs here are loop-sized, so
        // finishing a batch that is about to panic costs little.
        let runner = |participant: usize| loop {
            // Relaxed: the cursor only hands out indices; results travel
            // through their slot mutexes and the scope's join.
            let idx = next.fetch_add(1, Ordering::Relaxed);
            if idx >= items.len() {
                break;
            }
            let _job = mvp_trace::span!("exec.job", job = idx, deque = participant);
            match catch_unwind(AssertUnwindSafe(|| f(idx, &items[idx]))) {
                Ok(r) => *results[idx].lock().expect("result slot lock") = Some(r),
                Err(payload) => {
                    let mut first = panicked.lock().expect("panic slot lock");
                    match &*first {
                        Some((prev, _)) if *prev <= idx => {}
                        _ => *first = Some((idx, payload)),
                    }
                }
            }
        };
        {
            let _batch = mvp_trace::span!("exec.batch", jobs = items.len(), threads = self.threads);
            let helpers = (self.threads - 1).min(items.len() - 1);
            std::thread::scope(|scope| {
                let runner = &runner;
                for worker in 0..helpers {
                    // A failed spawn leaves its share to the participants
                    // that did start; the caller alone drains the batch.
                    let _ = std::thread::Builder::new()
                        .name(format!("mvp-exec-{worker}"))
                        .spawn_scoped(scope, move || {
                            IN_WORKER.with(|w| w.set(true));
                            {
                                let _span = mvp_trace::span!("exec.worker.batch", worker = worker);
                                runner(worker + 1);
                            }
                            mvp_trace::flush_thread();
                        });
                }
                // The caller is participant 0; nested maps issued by its
                // jobs run inline, like on any helper. `runner` catches
                // every job panic, so the reset below always runs.
                IN_WORKER.with(|w| w.set(true));
                runner(0);
                IN_WORKER.with(|w| w.set(false));
            });
        }
        // The caller participated in the batch; hand its buffered events to
        // the central sink at the batch boundary (helpers flushed on exit).
        mvp_trace::flush_thread();

        if let Some((_, payload)) = panicked.into_inner().expect("panic slot lock") {
            resume_unwind(payload);
        }
        results
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot lock")
                    .expect("every job of a non-panicking batch ran")
            })
            .collect()
    }
}

impl Default for Executor {
    fn default() -> Self {
        Self::from_env()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_input_order_for_any_thread_count() {
        let items: Vec<u64> = (0..257).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for threads in [1, 2, 3, 8, 64] {
            let exec = Executor::new(threads);
            assert_eq!(exec.threads(), threads);
            assert_eq!(exec.map(&items, |&x| x * 3 + 1), expected, "{threads}");
        }
    }

    #[test]
    fn map_indexed_passes_the_input_index() {
        let items = ["a", "b", "c"];
        let out = Executor::new(2).map_indexed(&items, |i, s| format!("{i}:{s}"));
        assert_eq!(out, vec!["0:a", "1:b", "2:c"]);
    }

    #[test]
    fn empty_and_singleton_batches_run_inline() {
        let exec = Executor::new(8);
        let empty: Vec<u32> = Vec::new();
        assert!(exec.map(&empty, |&x| x).is_empty());
        // A one-job batch spawns nothing: the job runs on the caller.
        let caller = std::thread::current().id();
        let ran_on = exec.map(&[7u32], |_| std::thread::current().id());
        assert_eq!(ran_on, vec![caller]);
    }

    #[test]
    fn a_straggler_does_not_serialise_the_batch() {
        // One straggler at index 0 that cannot finish until the other 63
        // jobs have. Whoever claims job 0 is blocked in it, so the batch
        // completes only if the other participants claim the rest. A
        // serialising executor trips the bound instead of hanging.
        let ran = AtomicUsize::new(0);
        let finished = AtomicUsize::new(0);
        let threads_seen: Mutex<std::collections::HashSet<std::thread::ThreadId>> =
            Mutex::new(std::collections::HashSet::new());
        let items: Vec<u64> = (0..64).collect();
        let out = Executor::new(4).map(&items, |&x| {
            ran.fetch_add(1, Ordering::Relaxed);
            threads_seen
                .lock()
                .unwrap()
                .insert(std::thread::current().id());
            if x == 0 {
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
                while finished.load(Ordering::Acquire) < items.len() - 1 {
                    assert!(
                        std::time::Instant::now() < deadline,
                        "only {} of the other jobs finished while job 0 waited",
                        finished.load(Ordering::Acquire)
                    );
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            } else {
                finished.fetch_add(1, Ordering::Release);
            }
            x
        });
        assert_eq!(out, items);
        assert_eq!(ran.load(Ordering::Relaxed), 64);
        assert!(threads_seen.lock().unwrap().len() > 1);
    }

    #[test]
    fn small_batches_spawn_no_more_threads_than_jobs() {
        let exec = Executor::new(64);
        let ids = exec.map(&[1u8, 2, 3], |_| std::thread::current().id());
        let distinct: std::collections::HashSet<_> = ids.into_iter().collect();
        assert!(
            distinct.len() <= 3,
            "a 3-job batch ran on {} threads",
            distinct.len()
        );
    }

    #[test]
    fn panics_propagate_with_the_smallest_index_winning() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            Executor::new(4).map_indexed(&[0u8; 32], |i, _| {
                if i % 2 == 1 {
                    panic!("job {i} failed");
                }
                i
            });
        }));
        let payload = result.expect_err("batch must panic");
        let message = payload
            .downcast_ref::<String>()
            .expect("panic payload is the job's format string");
        assert_eq!(message, "job 1 failed");
    }

    #[test]
    fn nested_maps_run_inline_on_the_worker() {
        let exec = Executor::new(4);
        assert!(!Executor::is_worker_thread());
        let out = exec.map(&[10u64, 20, 30, 40], |&x| {
            assert!(Executor::is_worker_thread());
            // The nested batch must not spawn further workers.
            exec.map(&[1u64, 2, 3], |&y| {
                assert!(Executor::is_worker_thread());
                x + y
            })
        });
        assert_eq!(
            out,
            vec![
                vec![11, 12, 13],
                vec![21, 22, 23],
                vec![31, 32, 33],
                vec![41, 42, 43]
            ]
        );
        assert!(!Executor::is_worker_thread());
    }

    #[test]
    fn parse_threads_honours_positive_integers_only() {
        assert_eq!(Executor::parse_threads(Some("3")), 3);
        assert_eq!(Executor::parse_threads(Some(" 12 ")), 12);
        let fallback = Executor::parse_threads(None);
        assert!(fallback >= 1);
        // An explicit 0 is rejected (with a stderr warning), like junk.
        assert_eq!(Executor::parse_threads(Some("0")), fallback);
        assert_eq!(Executor::parse_threads(Some(" 0 ")), fallback);
        assert_eq!(Executor::parse_threads(Some("many")), fallback);
        assert_eq!(Executor::parse_threads(Some("")), fallback);
        // Values usize::parse rejects outright: signs, decimals, overflow.
        assert_eq!(Executor::parse_threads(Some("-4")), fallback);
        assert_eq!(Executor::parse_threads(Some("+4")), 4, "parse accepts +");
        assert_eq!(Executor::parse_threads(Some("3.5")), fallback);
        assert_eq!(Executor::parse_threads(Some("0x8")), fallback);
        assert_eq!(
            Executor::parse_threads(Some("99999999999999999999999999")),
            fallback
        );
        assert_eq!(Executor::new(0).threads(), 1);
    }

    #[test]
    fn global_executor_is_shared() {
        let a = Executor::global();
        let b = Executor::global();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(a.threads() >= 1);
        assert_eq!(
            Executor::default().threads(),
            Executor::from_env().threads()
        );
    }
}
