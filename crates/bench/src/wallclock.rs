//! Suite wall-clock measurement: how long the `EVERY`-scheduler suite run
//! (optimality-gap oracle included) takes per executor thread count.
//!
//! This is the pinned measurement behind the work-stealing refactor: every
//! loop of the benchmark suite is one executor job (schedule → simulate →
//! gap-oracle solve), so a multi-threaded run must beat the 1-thread run
//! on the same corpus while producing the *identical* reports. The driver
//! runs the same batch once per requested thread count and records the
//! wall-clock next to thread-count-independent result columns
//! (`scheduled`, `total_cycles`, `mean_gap`) — any divergence in those
//! columns between thread counts is a determinism bug, and the
//! `wallclock` binary fails hard on it.
//!
//! Unlike [`Pipeline::run_workloads`], the per-loop jobs here tolerate
//! individual scheduling failures: the exact scheduler legitimately
//! exhausts its node budget on the suite's biggest bodies, and the point
//! of this driver is timing the whole batch, not certifying it.

use crate::json::Json;
use crate::runner::SchedulerKind;
use multivliw::pipeline::Pipeline;
use mvp_exact::ExactOptions;
use mvp_exec::Executor;
use mvp_ir::Loop;
use mvp_workloads::suite::{suite, SuiteParams};
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Environment variable naming the CSV artifact the `wallclock` binary
/// writes (the CI job uploads it as `suite-wallclock`).
pub const WALLCLOCK_CSV_ENV_VAR: &str = "MVP_WALLCLOCK_CSV";

/// Parameters of the wall-clock measurement.
#[derive(Debug, Clone)]
pub struct WallclockParams {
    /// Suite sizing.
    pub suite: SuiteParams,
    /// Thread counts to measure, in order. Duplicates are meaningful
    /// (e.g. `[1, 8, 1]` brackets a warm-cache comparison).
    pub threads: Vec<usize>,
    /// Node budget of the per-loop gap-oracle solve. The default
    /// (64k nodes) keeps the big suite bodies from burning the full
    /// 1M-node default per loop while still certifying useful bounds on
    /// the small ones.
    pub gap_node_budget: u64,
}

impl Default for WallclockParams {
    fn default() -> Self {
        Self {
            suite: SuiteParams::default(),
            threads: default_thread_counts(),
            gap_node_budget: 1 << 16,
        }
    }
}

/// The default measurement bracket: single-threaded, then the environment
/// default (`MVP_THREADS` or the available parallelism) when it differs.
#[must_use]
pub fn default_thread_counts() -> Vec<usize> {
    let env_threads = Executor::from_env().threads();
    if env_threads > 1 {
        vec![1, env_threads]
    } else {
        vec![1]
    }
}

/// One (scheduler, thread count) measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct WallclockRow {
    /// Scheduler configuration measured.
    pub scheduler: SchedulerKind,
    /// Executor thread count of this run.
    pub threads: usize,
    /// Loops in the batch.
    pub loops: usize,
    /// Loops that produced a schedule (the exact scheduler may exhaust its
    /// budget on the biggest bodies; every other configuration schedules
    /// the full suite).
    pub scheduled: usize,
    /// Wall-clock of the whole batch, in milliseconds.
    pub wall_ms: f64,
    /// Total simulated cycles over the scheduled loops
    /// (thread-count-independent).
    pub total_cycles: u64,
    /// Mean optimality gap over the loops that measured one
    /// (thread-count-independent).
    pub mean_gap: Option<f64>,
    /// CPU time the batch spent in the schedule phase, in milliseconds,
    /// from the `pipeline.schedule.ns` trace accumulator. Summed across
    /// worker threads: the three phase columns can exceed `wall_ms` on a
    /// multi-threaded run.
    pub schedule_ms: f64,
    /// CPU time in the simulate phase (`pipeline.sim.ns`), in milliseconds.
    pub sim_ms: f64,
    /// CPU time in the gap-oracle phase (`pipeline.gap_oracle.ns`), in
    /// milliseconds. Exact-scheduler rows report 0: their fused solve is
    /// charged to the schedule phase.
    pub oracle_ms: f64,
}

impl WallclockRow {
    /// The thread-count-independent part of the row: two rows measuring
    /// the same scheduler must agree on this, or the executor broke its
    /// determinism contract.
    #[must_use]
    pub fn outcome(&self) -> (SchedulerKind, usize, usize, u64, Option<f64>) {
        (
            self.scheduler,
            self.loops,
            self.scheduled,
            self.total_cycles,
            self.mean_gap,
        )
    }
}

/// Runs the measurement: for every requested thread count, every
/// [`SchedulerKind::EVERY`] configuration runs the whole suite as per-loop
/// executor jobs with the gap oracle on.
#[must_use]
pub fn run(params: &WallclockParams) -> Vec<WallclockRow> {
    let workloads = suite(&params.suite);
    let loops: Vec<&Loop> = workloads.iter().flat_map(|w| w.loops.iter()).collect();
    let gap_options = ExactOptions::new().with_node_budget(params.gap_node_budget);

    // The phase-breakdown columns read the `pipeline.*.ns` accumulators,
    // which only tick in `Timing` (or `Full`) mode: raise the global mode
    // for the measurement and restore the caller's afterwards.
    let prior_mode = mvp_trace::mode();
    if prior_mode == mvp_trace::TraceMode::Off {
        mvp_trace::set_mode(mvp_trace::TraceMode::Timing);
    }
    let phase_counters = [
        mvp_trace::counter_handle!("pipeline.schedule.ns", Runtime),
        mvp_trace::counter_handle!("pipeline.sim.ns", Runtime),
        mvp_trace::counter_handle!("pipeline.gap_oracle.ns", Runtime),
    ];

    let mut rows = Vec::new();
    for &threads in &params.threads {
        let executor = Arc::new(Executor::new(threads));
        for scheduler in SchedulerKind::EVERY {
            // The gap budget bounds both the oracle solves and — through
            // `exact_node_budget` — the exact scheduler's own search, so the
            // exact rows of a suite-scale run no longer burn the 1M-node
            // default per loop.
            let pipeline = Pipeline::builder()
                .scheduler(scheduler)
                .executor(Arc::clone(&executor))
                .optimality_gap_options(gap_options)
                .exact_node_budget(params.gap_node_budget)
                .build()
                .expect("default-machine pipelines are valid");
            let phases_before = phase_counters.map(mvp_trace::Counter::get);
            let start = Instant::now();
            let reports = executor.map(&loops, |l| pipeline.run(l).ok());
            let wall_ms = start.elapsed().as_secs_f64() * 1e3;
            let [schedule_ms, sim_ms, oracle_ms] =
                std::array::from_fn(|i| (phase_counters[i].get() - phases_before[i]) as f64 / 1e6);

            let scheduled = reports.iter().flatten().count();
            let total_cycles = reports.iter().flatten().map(|r| r.total_cycles()).sum();
            let gaps: Vec<f64> = reports
                .iter()
                .flatten()
                .filter_map(|r| r.optimality_gap)
                .collect();
            let mean_gap = (!gaps.is_empty()).then(|| gaps.iter().sum::<f64>() / gaps.len() as f64);
            rows.push(WallclockRow {
                scheduler,
                threads,
                loops: loops.len(),
                scheduled,
                wall_ms,
                total_cycles,
                mean_gap,
                schedule_ms,
                sim_ms,
                oracle_ms,
            });
        }
    }
    mvp_trace::set_mode(prior_mode);
    rows
}

/// Checks the executor's determinism contract over the measured rows:
/// every pair of rows for the same scheduler must agree on everything but
/// the wall-clock. Returns the offending pair description, if any.
#[must_use]
pub fn determinism_violation(rows: &[WallclockRow]) -> Option<String> {
    for (i, a) in rows.iter().enumerate() {
        for b in &rows[i + 1..] {
            if a.scheduler == b.scheduler && a.outcome() != b.outcome() {
                return Some(format!(
                    "{} diverges between {} and {} threads: {:?} vs {:?}",
                    a.scheduler,
                    a.threads,
                    b.threads,
                    a.outcome(),
                    b.outcome()
                ));
            }
        }
    }
    None
}

/// Aggregate speedup of the fastest multi-threaded pass over the 1-thread
/// pass (total wall-clock over all schedulers); `None` without both.
#[must_use]
pub fn overall_speedup(rows: &[WallclockRow]) -> Option<f64> {
    // Per-*pass* total at width t: a bracket with duplicate widths
    // ([1, 8, 1]) contributes several passes at the same width, whose
    // totals are averaged — summing them would inflate the baseline and
    // roughly double the reported speedup.
    let mean_total_at = |t: usize| -> Option<f64> {
        let of_t: Vec<&WallclockRow> = rows.iter().filter(|r| r.threads == t).collect();
        if of_t.is_empty() {
            return None;
        }
        let schedulers: std::collections::BTreeSet<&str> =
            of_t.iter().map(|r| r.scheduler.name()).collect();
        let passes = (of_t.len() / schedulers.len()).max(1);
        Some(of_t.iter().map(|r| r.wall_ms).sum::<f64>() / passes as f64)
    };
    let sequential = mean_total_at(1)?;
    // "Fastest" literally: the multi-threaded width with the smallest
    // total, not the widest (an oversubscribed pass can be slower).
    let widths: std::collections::BTreeSet<usize> = rows
        .iter()
        .filter(|r| r.threads > 1)
        .map(|r| r.threads)
        .collect();
    let best_parallel = widths
        .into_iter()
        .filter_map(mean_total_at)
        .min_by(f64::total_cmp)?;
    (best_parallel > 0.0).then(|| sequential / best_parallel)
}

/// Renders the rows as a text table.
#[must_use]
pub fn render(rows: &[WallclockRow]) -> String {
    let mut t = crate::report::Table::new(vec![
        "scheduler",
        "threads",
        "loops",
        "scheduled",
        "wall_ms",
        "cycles",
        "mean-gap",
    ]);
    for r in rows {
        t.row(vec![
            r.scheduler.name().to_string(),
            r.threads.to_string(),
            r.loops.to_string(),
            r.scheduled.to_string(),
            format!("{:.1}", r.wall_ms),
            r.total_cycles.to_string(),
            r.mean_gap
                .map_or_else(|| "-".into(), |g| format!("{:.0}%", 100.0 * g)),
        ]);
    }
    let speedup = overall_speedup(rows).map_or_else(String::new, |s| {
        format!("\noverall speedup vs 1 thread: {s:.2}x")
    });
    format!(
        "Suite wall-clock — EVERY scheduler x thread count (gap oracle on)\n{}{}\n",
        t.render(),
        speedup
    )
}

/// Serialises the rows as CSV (header + one line per row).
#[must_use]
pub fn to_csv(rows: &[WallclockRow]) -> String {
    let mut out = String::from(
        "scheduler,threads,loops,scheduled,wall_ms,total_cycles,mean_gap,\
         schedule_ms,sim_ms,oracle_ms\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{},{},{},{},{:.3},{},{},{:.3},{:.3},{:.3}\n",
            r.scheduler,
            r.threads,
            r.loops,
            r.scheduled,
            r.wall_ms,
            r.total_cycles,
            r.mean_gap.map_or_else(String::new, |g| format!("{g:.4}")),
            r.schedule_ms,
            r.sim_ms,
            r.oracle_ms,
        ));
    }
    out
}

/// Writes the CSV to `path`.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_csv(rows: &[WallclockRow], path: &Path) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(to_csv(rows).as_bytes())
}

/// The rows as a JSON report (for `MVP_REPORT_JSON`).
#[must_use]
pub fn to_json(rows: &[WallclockRow]) -> Json {
    Json::object([
        ("report", Json::from("suite-wallclock")),
        ("speedup", Json::option(overall_speedup(rows))),
        (
            "rows",
            Json::array(rows.iter().map(|r| {
                Json::object([
                    ("scheduler", Json::from(r.scheduler.name())),
                    ("threads", Json::from(r.threads)),
                    ("loops", Json::from(r.loops)),
                    ("scheduled", Json::from(r.scheduled)),
                    ("wall_ms", Json::from(r.wall_ms)),
                    ("total_cycles", Json::from(r.total_cycles)),
                    ("mean_gap", Json::option(r.mean_gap)),
                    ("schedule_ms", Json::from(r.schedule_ms)),
                    ("sim_ms", Json::from(r.sim_ms)),
                    ("oracle_ms", Json::from(r.oracle_ms)),
                ])
            })),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialises the tests that call [`run`]: the phase-breakdown columns
    /// are deltas of process-global trace counters, so two concurrent
    /// measurements would leak time into each other's windows.
    static RUN_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn measured(params: &WallclockParams) -> Vec<WallclockRow> {
        let _guard = RUN_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        run(params)
    }

    fn quick_params(threads: Vec<usize>) -> WallclockParams {
        WallclockParams {
            suite: SuiteParams::small(),
            threads,
            // A small budget keeps the oracle honest but fast in tests.
            gap_node_budget: 1 << 10,
        }
    }

    #[test]
    fn rows_are_deterministic_across_thread_counts() {
        let rows = measured(&quick_params(vec![1, 4]));
        assert_eq!(rows.len(), 2 * SchedulerKind::EVERY.len());
        assert_eq!(determinism_violation(&rows), None);
        for r in &rows {
            assert!(r.scheduled <= r.loops);
            assert!(r.wall_ms >= 0.0);
            // The phase breakdown ticked: a suite pass spends measurable
            // time scheduling and simulating.
            assert!(r.schedule_ms > 0.0, "{}", r.scheduler);
            assert!(r.sim_ms > 0.0, "{}", r.scheduler);
            // The fused exact solve is charged to the schedule phase.
            if r.scheduler == SchedulerKind::Exact {
                assert_eq!(r.oracle_ms, 0.0);
            } else {
                assert!(r.oracle_ms > 0.0, "{}", r.scheduler);
            }
            // Only the exact scheduler may drop loops on budget exhaustion.
            if r.scheduler != SchedulerKind::Exact {
                assert_eq!(r.scheduled, r.loops, "{}", r.scheduler);
            }
        }
        assert!(overall_speedup(&rows).is_some());
        let text = render(&rows);
        assert!(text.contains("Suite wall-clock"));
        assert!(text.contains("overall speedup"));
    }

    #[test]
    fn divergent_outcomes_are_reported() {
        let rows = measured(&quick_params(vec![1]));
        assert_eq!(determinism_violation(&rows), None);
        assert_eq!(overall_speedup(&rows), None); // no multi-threaded pass
        let mut broken = rows.clone();
        broken.push(WallclockRow {
            threads: 8,
            total_cycles: broken[0].total_cycles + 1,
            ..broken[0].clone()
        });
        assert!(determinism_violation(&broken)
            .expect("divergence detected")
            .contains("diverges"));
    }

    #[test]
    fn speedup_averages_duplicate_passes_and_picks_the_fastest_width() {
        let row = |scheduler, threads, wall_ms| WallclockRow {
            scheduler,
            threads,
            loops: 8,
            scheduled: 8,
            wall_ms,
            total_cycles: 1000,
            mean_gap: None,
            schedule_ms: 0.0,
            sim_ms: 0.0,
            oracle_ms: 0.0,
        };
        // A [1, 8, 32, 1] bracket: the two 1-thread passes (100 + 120 each
        // split over two schedulers) average to 110; the 8-thread pass
        // totals 40 and the oversubscribed 32-thread pass totals 60 —
        // "fastest" must pick 8 threads, giving 110/40.
        let rows = vec![
            row(SchedulerKind::Baseline, 1, 60.0),
            row(SchedulerKind::Rmca, 1, 40.0),
            row(SchedulerKind::Baseline, 8, 25.0),
            row(SchedulerKind::Rmca, 8, 15.0),
            row(SchedulerKind::Baseline, 32, 35.0),
            row(SchedulerKind::Rmca, 32, 25.0),
            row(SchedulerKind::Baseline, 1, 70.0),
            row(SchedulerKind::Rmca, 1, 50.0),
        ];
        let speedup = overall_speedup(&rows).unwrap();
        assert!((speedup - 110.0 / 40.0).abs() < 1e-12, "{speedup}");
    }

    #[test]
    fn csv_and_json_cover_every_row() {
        let rows = measured(&quick_params(vec![1]));
        let csv = to_csv(&rows);
        assert_eq!(csv.lines().count(), rows.len() + 1);
        assert!(csv.starts_with("scheduler,threads,"));
        let json = to_json(&rows).to_string();
        assert!(json.starts_with(r#"{"report":"suite-wallclock""#));
        assert_eq!(json.matches("\"scheduler\":").count(), rows.len());
        let dir = std::env::temp_dir().join(format!("mvp-wallclock-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("suite-wallclock.csv");
        write_csv(&rows, &path).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), csv);
        std::fs::remove_dir_all(&dir).ok();
    }
}
