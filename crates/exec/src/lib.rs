//! The persistent work-stealing execution core shared by every heavy path
//! of the workspace.
//!
//! All the batch-shaped work in this repository — per-loop pipeline runs,
//! optimality-gap oracle calls, figure grid sweeps, seeded fuzz cases — is
//! embarrassingly parallel but badly balanced: a tomcatv kernel or a
//! million-node exact probe can take orders of magnitude longer than its
//! batch neighbours. [`Executor::map`] runs such a batch on a pool of worker
//! threads with **per-worker deques and work stealing**: each participant
//! starts with a contiguous block of job indices, pops jobs from the front
//! of its own deque, and when it runs dry steals from the *back* of the
//! fullest victim, so stragglers are split instead of serialising the run.
//!
//! # The persistent pool
//!
//! Workers are spawned **once per executor** (lazily, on the first parallel
//! batch) and live for the executor's lifetime: between batches they park
//! (`std::thread::park`) instead of exiting, so a service-style caller that
//! issues thousands of `map`s — repeated [`Pipeline::run_batch`] calls, gap
//! tables, fuzz sweeps, the `serve` bin's warm passes — pays the thread
//! spawn cost exactly once. Job injection is **per-worker and lock-free**:
//! every worker owns a single-slot CAS inbox (an [`AtomicPtr`] to the
//! caller-stack batch descriptor); the calling thread publishes the batch
//! with one compare-exchange per idle worker, wakes it with `unpark`, and
//! then *participates in the batch itself* (it owns deque 0), so a batch
//! never waits on a wake-up to make progress. On completion the caller
//! retracts the inboxes no worker claimed and waits for the claimed ones to
//! detach, which is what makes lending the caller's stack to `'static`
//! worker threads sound. Dropping the last handle to the pool shuts the
//! workers down and joins them.
//!
//! [`Pipeline::run_batch`]: https://docs.rs/multivliw
//!
//! # Determinism
//!
//! The collect side is **ordered**: every job writes its result under its
//! original index, and `map` returns `Vec<R>` in input order no matter how
//! the jobs interleaved across workers. A batch of *pure* jobs therefore
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
//! re-raised on the caller's thread once every claimed worker has detached.
//! Compared to a sequential `for` loop the only difference is that the jobs
//! after the failing one have also run. The pool itself is unaffected: the
//! workers return to their park loop and the next batch runs normally.
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
//! an explicit executor is configured. An executor of `n` threads spawns
//! `n - 1` persistent workers; the calling thread is the `n`-th
//! participant.
//!
//! # Observability
//!
//! Batches report through [`mvp_trace`]: an `exec.batch` span on the
//! caller, an `exec.worker.batch` span per participating worker, an
//! `exec.job` span per job, and the runtime counters `exec.batches`,
//! `exec.steals`, `exec.parks` and `exec.wakes`. Workers flush their
//! thread-local event buffers at every batch boundary, so a parked pool
//! never holds events back from [`mvp_trace::drain`].
//!
//! # Example
//!
//! ```
//! use mvp_exec::Executor;
//!
//! let exec = Executor::new(4);
//! let squares = exec.map(&[1u64, 2, 3, 4, 5], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]); // input order, always
//! assert_eq!(exec.spawned_workers(), 3); // spawned once, parked between maps
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;

/// Environment variable overriding the worker count of
/// [`Executor::from_env`] (and therefore of [`Executor::global`]).
pub const THREADS_ENV_VAR: &str = "MVP_THREADS";

thread_local! {
    /// Whether the current thread is participating in a batch (a pool
    /// worker, or the caller while it drains its own batch; see the module
    /// docs on nesting).
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// A persistent work-stealing thread pool with an ordered-collect API.
///
/// See the [module documentation](self) for the design; the behavioural
/// contract in one line: [`map`](Executor::map) over pure jobs is
/// observationally identical to `items.iter().map(f).collect()` — same
/// order, same panics — only faster, and the worker threads it runs on are
/// spawned once and reused across every batch. Cloning an `Executor`
/// shares its pool.
#[derive(Debug, Clone)]
pub struct Executor {
    threads: usize,
    pool: Arc<Pool>,
}

impl Executor {
    /// Creates an executor that runs batches on `threads` participants
    /// (clamped to at least 1; 1 means strictly sequential, in-place
    /// execution). The `threads - 1` persistent workers are spawned lazily
    /// on the first parallel batch.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        Self {
            threads,
            pool: Arc::new(Pool::new(threads)),
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
    /// unless given an explicit executor — and because the pool is
    /// persistent, every batch in the process after the first reuses the
    /// same parked workers.
    #[must_use]
    pub fn global() -> Arc<Executor> {
        static GLOBAL: OnceLock<Arc<Executor>> = OnceLock::new();
        Arc::clone(GLOBAL.get_or_init(|| Arc::new(Executor::from_env())))
    }

    /// Number of participants batches run on (the calling thread plus
    /// [`spawned_workers`](Executor::spawned_workers) pool workers).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of persistent worker threads the pool has spawned so far:
    /// `0` before the first parallel batch, `threads() - 1` afterwards
    /// (the calling thread is always the remaining participant).
    #[must_use]
    pub fn spawned_workers(&self) -> usize {
        self.pool.workers.get().map_or(0, Vec::len)
    }

    /// Number of parallel batches injected into the pool over its lifetime
    /// (sequential fast-path calls — 1-thread executors, trivial batches,
    /// nested maps — are not counted).
    #[must_use]
    pub fn batches_run(&self) -> u64 {
        self.pool.batches.load(Ordering::Relaxed)
    }

    /// Whether the calling thread is itself a batch participant (in which
    /// case any nested `map` runs inline; see the module docs).
    #[must_use]
    pub fn is_worker_thread() -> bool {
        IN_WORKER.with(std::cell::Cell::get)
    }

    /// Runs `f` over every item and returns the results **in input order**,
    /// regardless of how the jobs were interleaved across workers.
    ///
    /// # Panics
    ///
    /// Re-raises the panic of the smallest-indexed panicking job after the
    /// whole batch has run (deterministic for a deterministic batch; see
    /// the module docs). The pool stays usable afterwards.
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
        // These still trace `exec.job` spans (deque -1: no deque was
        // involved) so a 1-thread trace shows the same per-job structure a
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

        let queue = DequePool::new(items.len(), self.threads);
        let results: Vec<Mutex<Option<R>>> = (0..items.len()).map(|_| Mutex::new(None)).collect();
        let panicked: Mutex<Option<(usize, Box<dyn std::any::Any + Send>)>> = Mutex::new(None);

        // The batch always runs to completion, panic or not: draining every
        // job is what makes the re-raised panic *deterministic* (the
        // smallest-indexed panicking job of the whole batch, not of a
        // scheduling-dependent prefix). Jobs here are loop-sized, so
        // finishing a batch that is about to panic costs little.
        let runner = |deque: usize| {
            while let Some(idx) = queue.next_job(deque) {
                let _job = mvp_trace::span!("exec.job", job = idx, deque = deque);
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
            }
        };
        {
            let _batch = mvp_trace::span!("exec.batch", jobs = items.len(), threads = self.threads);
            self.pool.run_batch(&runner);
        }
        // The caller participated in the batch; hand its buffered events to
        // the central sink at the batch boundary (workers flush themselves).
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

/// A batch descriptor, allocated on the **calling thread's stack** for the
/// duration of one `run_batch` and published to workers through their CAS
/// inboxes.
///
/// The runner closure it points at borrows the caller's stack (items,
/// result slots, the job deques), so its lifetime is erased through a thin
/// context pointer plus a monomorphised trampoline rather than a trait
/// object. Soundness comes from the batch protocol: before `run_batch`
/// returns, the caller retracts every inbox no worker claimed and waits for
/// `detached` to reach the number of claimed inboxes, so no worker can
/// touch the descriptor (or anything it borrows) afterwards.
struct Batch {
    /// Type-erased pointer to the caller-stack runner closure.
    ctx: *const (),
    /// Monomorphised trampoline invoking the runner with a deque index.
    run: unsafe fn(*const (), usize),
    /// Number of workers that claimed this batch from their inbox and have
    /// since returned from it.
    detached: AtomicUsize,
    /// The calling thread, unparked by each detaching worker.
    caller: std::thread::Thread,
}

/// Invokes the runner closure behind `ctx`.
///
/// # Safety
///
/// `ctx` must point at a live `F` (guaranteed by the batch protocol: the
/// caller keeps the closure alive until every claimed worker detached).
unsafe fn run_trampoline<F: Fn(usize) + Sync>(ctx: *const (), deque: usize) {
    unsafe { (*ctx.cast::<F>())(deque) }
}

/// State shared between the pool handle and its `'static` worker threads.
#[derive(Debug)]
struct PoolShared {
    /// Set by `Pool::drop`; parked workers re-check it on every wake.
    shutdown: AtomicBool,
}

/// One persistent worker: its single-slot batch inbox and its join handle.
#[derive(Debug)]
struct Worker {
    /// Single-slot lock-free inbox: null when idle, otherwise a borrowed
    /// pointer to the injecting caller's stack [`Batch`].
    inbox: Arc<AtomicPtr<Batch>>,
    join: JoinHandle<()>,
}

/// The persistent parked-worker pool behind an [`Executor`] (shared by its
/// clones via `Arc`).
#[derive(Debug)]
struct Pool {
    threads: usize,
    shared: Arc<PoolShared>,
    /// Spawned lazily by the first parallel batch; `threads - 1` entries.
    workers: OnceLock<Vec<Worker>>,
    /// Lifetime count of parallel batches (introspection only).
    batches: AtomicU64,
}

impl Pool {
    fn new(threads: usize) -> Self {
        Self {
            threads,
            shared: Arc::new(PoolShared {
                shutdown: AtomicBool::new(false),
            }),
            workers: OnceLock::new(),
            batches: AtomicU64::new(0),
        }
    }

    /// The persistent workers, spawned on first use.
    fn spawned(&self) -> &[Worker] {
        self.workers.get_or_init(|| {
            (0..self.threads - 1)
                .map(|index| {
                    let inbox: Arc<AtomicPtr<Batch>> = Arc::new(AtomicPtr::new(ptr::null_mut()));
                    let worker_inbox = Arc::clone(&inbox);
                    let shared = Arc::clone(&self.shared);
                    let join = std::thread::Builder::new()
                        .name(format!("mvp-exec-{index}"))
                        .spawn(move || worker_main(index, &worker_inbox, &shared))
                        .expect("spawn executor worker thread");
                    Worker { inbox, join }
                })
                .collect()
        })
    }

    /// Runs one batch: publishes it to every idle worker's inbox (one CAS +
    /// `unpark` each), participates in the drain on deque 0, then retracts
    /// the inboxes no worker claimed and waits for the claimed workers to
    /// detach. On return no thread other than the caller references the
    /// batch, which is what lets `map_indexed` lend its stack frame to the
    /// `'static` workers.
    fn run_batch<F: Fn(usize) + Sync>(&self, runner: &F) {
        let workers = self.spawned();
        let batch = Batch {
            ctx: (runner as *const F).cast(),
            run: run_trampoline::<F>,
            detached: AtomicUsize::new(0),
            caller: std::thread::current(),
        };
        let batch_ptr: *mut Batch = (&batch as *const Batch).cast_mut();

        // Inject into every idle worker. A worker still draining an earlier
        // batch (a concurrent `map` on a clone of this executor) keeps its
        // old pointer and is skipped; the caller's own participation below
        // guarantees the batch drains regardless of how many workers join.
        let mut injected: Vec<&Worker> = Vec::with_capacity(workers.len());
        for worker in workers {
            let won = worker
                .inbox
                .compare_exchange(
                    ptr::null_mut(),
                    batch_ptr,
                    Ordering::Release,
                    Ordering::Relaxed,
                )
                .is_ok();
            if won {
                injected.push(worker);
                worker.join.thread().unpark();
                mvp_trace::counter_handle!("exec.wakes", Runtime).incr();
            }
        }
        self.batches.fetch_add(1, Ordering::Relaxed);
        mvp_trace::counter_handle!("exec.batches", Runtime).incr();

        // The caller is the batch's first participant (deque 0); nested
        // maps issued by its jobs run inline, like on any worker.
        IN_WORKER.with(|w| w.set(true));
        runner(0);
        IN_WORKER.with(|w| w.set(false));

        // Retract every inbox that still holds this batch; a failed CAS
        // means the worker swapped the pointer out and *will* bump
        // `detached` once it returns from the (already drained) batch.
        let mut claimed = 0usize;
        for worker in injected {
            let retracted = worker
                .inbox
                .compare_exchange(
                    batch_ptr,
                    ptr::null_mut(),
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                )
                .is_ok();
            if !retracted {
                claimed += 1;
            }
        }
        while batch.detached.load(Ordering::Acquire) < claimed {
            // Claimed workers are at worst finishing their last job; each
            // one unparks us right after detaching.
            std::thread::park();
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        if let Some(workers) = self.workers.take() {
            for worker in &workers {
                worker.join.thread().unpark();
            }
            for worker in workers {
                let _ = worker.join.join();
            }
        }
    }
}

/// The persistent worker loop: claim whatever batch is in the inbox, drain
/// it, detach; park when idle; exit on shutdown.
fn worker_main(index: usize, inbox: &AtomicPtr<Batch>, shared: &PoolShared) {
    IN_WORKER.with(|w| w.set(true));
    loop {
        let batch_ptr = inbox.swap(ptr::null_mut(), Ordering::Acquire);
        if !batch_ptr.is_null() {
            // SAFETY: the injecting caller keeps the batch (and everything
            // the runner borrows) alive until this worker's `detached`
            // increment below — it cannot retract a pointer we already
            // swapped out, so it waits for us instead.
            let batch = unsafe { &*batch_ptr };
            {
                let _span = mvp_trace::span!("exec.worker.batch", worker = index);
                // SAFETY: `ctx` points at the caller's live runner closure
                // (see above); worker `index` owns deque `index + 1` (the
                // caller owns deque 0).
                unsafe { (batch.run)(batch.ctx, index + 1) };
            }
            // Flush this worker's buffered events before it parks again —
            // a parked worker's thread-local buffer is unreachable from
            // `mvp_trace::drain`.
            mvp_trace::flush_thread();
            let caller = batch.caller.clone();
            batch.detached.fetch_add(1, Ordering::Release);
            // After the increment the batch may be gone; wake the caller
            // through the cloned handle only.
            caller.unpark();
            continue;
        }
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        mvp_trace::counter_handle!("exec.parks", Runtime).incr();
        std::thread::park();
    }
}

/// One deque of pending job indices per batch participant.
///
/// Participants pop their own deque from the *front* (preserving the
/// roughly input-ordered walk that keeps related jobs together) and steal
/// from the *back* of the fullest victim; halving the victim's remaining
/// work would be fancier but single-index steals are plenty at this job
/// granularity — every job here schedules or simulates a whole loop.
#[derive(Debug)]
struct DequePool {
    deques: Vec<Mutex<VecDeque<usize>>>,
}

impl DequePool {
    /// Distributes `jobs` indices over `workers` deques in contiguous
    /// blocks (block `w` starts at `w * jobs / workers`).
    fn new(jobs: usize, workers: usize) -> Self {
        let deques = (0..workers)
            .map(|w| {
                let start = w * jobs / workers;
                let end = (w + 1) * jobs / workers;
                Mutex::new((start..end).collect())
            })
            .collect();
        Self { deques }
    }

    /// Next job for `worker`: its own front, else stolen from the back of
    /// the victim with the most pending jobs. `None` when every deque is
    /// empty (the batch is drained; workers then detach and re-park).
    fn next_job(&self, worker: usize) -> Option<usize> {
        if let Some(idx) = self.deques[worker].lock().expect("deque lock").pop_front() {
            return Some(idx);
        }
        loop {
            let victim = self
                .deques
                .iter()
                .enumerate()
                .filter(|(v, _)| *v != worker)
                .map(|(v, d)| (d.lock().expect("deque lock").len(), v))
                .max()?;
            match victim {
                (0, _) => return None,
                (_, v) => {
                    // The victim may have drained between the census and the
                    // steal; retry the census rather than giving up.
                    if let Some(idx) = self.deques[v].lock().expect("deque lock").pop_back() {
                        mvp_trace::counter_handle!("exec.steals", Runtime).incr();
                        return Some(idx);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

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
        assert_eq!(exec.map(&[7u32], |&x| x + 1), vec![8]);
        // Inline batches never touch the pool: no workers, no batch count.
        assert_eq!(exec.spawned_workers(), 0);
        assert_eq!(exec.batches_run(), 0);
    }

    #[test]
    fn uneven_jobs_are_stolen_not_serialised() {
        // One straggler at index 0 that cannot finish until the other 63
        // jobs have. The caller owns deque 0 and pops job 0 first, so the
        // rest of deque 0 completes only if other workers steal it. A
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
    fn workers_spawn_once_and_persist_across_batches() {
        let exec = Executor::new(4);
        assert_eq!(exec.spawned_workers(), 0, "spawn is lazy");

        let batch_threads = |batch: u64| -> std::collections::HashSet<std::thread::ThreadId> {
            let seen = Mutex::new(std::collections::HashSet::new());
            let items: Vec<u64> = (0..128).collect();
            exec.map(&items, |&x| {
                seen.lock().unwrap().insert(std::thread::current().id());
                x + batch
            });
            seen.into_inner().unwrap()
        };

        let first = batch_threads(0);
        assert_eq!(exec.spawned_workers(), 3, "threads - 1 persistent workers");
        assert_eq!(exec.batches_run(), 1);

        // Every later batch draws from the same parked pool: the union of
        // participant thread ids never grows past threads().
        let mut all = first;
        for batch in 1..6 {
            all.extend(batch_threads(batch));
        }
        assert_eq!(exec.spawned_workers(), 3, "no re-spawn on later batches");
        assert_eq!(exec.batches_run(), 6);
        assert!(
            all.len() <= exec.threads(),
            "batches reuse the same workers: saw {} distinct threads",
            all.len()
        );
    }

    #[test]
    fn clones_share_the_pool() {
        let exec = Executor::new(3);
        let clone = exec.clone();
        let items: Vec<u32> = (0..32).collect();
        assert_eq!(clone.map(&items, |&x| x + 1).len(), 32);
        // The clone's batch ran on the original's pool.
        assert_eq!(exec.batches_run(), 1);
        assert_eq!(exec.spawned_workers(), clone.spawned_workers());
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

    #[test]
    fn deque_pool_hands_out_every_index_once() {
        let pool = DequePool::new(10, 3);
        let mut seen: Vec<usize> = Vec::new();
        // Worker 2 drains everything: its own block first, then steals.
        while let Some(idx) = pool.next_job(2) {
            seen.push(idx);
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
        assert_eq!(pool.next_job(0), None);
    }
}
