//! The end-to-end schedule → simulate → report pipeline.
//!
//! Every experiment in this workspace runs the same sequence: pick a
//! scheduler, pick a machine, modulo-schedule one or more loops, simulate
//! each schedule on the cycle-level simulator, and collect the II / SC /
//! miss-rate / cycle metrics. [`Pipeline`] is the single place that
//! sequence lives; the integration tests, the examples and the `mvp-bench`
//! experiment drivers all go through it.
//!
//! # Example
//!
//! ```
//! use multivliw::pipeline::{Pipeline, SchedulerChoice};
//! use multivliw::workloads::motivating::{motivating_loop, MotivatingParams};
//!
//! # fn main() -> multivliw::Result<()> {
//! let (l, _) = motivating_loop(&MotivatingParams::default());
//! let report = Pipeline::builder()
//!     .scheduler(SchedulerChoice::Rmca)
//!     .build()?
//!     .run(&l)?;
//! println!("II = {}, total cycles = {}", report.ii, report.total_cycles());
//! # Ok(())
//! # }
//! ```

use crate::error::{Error, Result};
use mvp_core::{
    BaselineScheduler, Communication, FallbackScheduler, ModuloScheduler, PlacedOp, RmcaScheduler,
    Schedule, SchedulerOptions,
};
use mvp_exact::{ExactBackend, ExactOptions, ExactScheduler};
use mvp_exec::Executor;
use mvp_ir::{Loop, OpId};
use mvp_machine::{presets, MachineConfig};
use mvp_schedcache::{canonicalize, hash_machine, CacheKey, CanonicalLoop, ScheduleCache};
use mvp_sim::memory_system::MemoryCounters;
use mvp_sim::{simulate, SimOptions, SimStats};
use mvp_workloads::Workload;
use std::fmt;
use std::sync::Arc;

/// Which scheduler configuration a [`Pipeline`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerChoice {
    /// The register-communication-aware baseline of the authors' earlier
    /// work \[22\].
    Baseline,
    /// The paper's Register and Memory Communication-Aware scheduler.
    Rmca,
    /// The paper's *Unified* reference: the baseline scheduler on a
    /// single-cluster (non-distributed) machine.
    Unified,
    /// The RMCA scheduler with a non-pipelined list-scheduling safety net:
    /// loops whose II search exhausts still get a legal (stage-count-1)
    /// schedule instead of an error. This is what makes arbitrary
    /// [`LoopGenerator`](mvp_workloads::LoopGenerator) seeds runnable end to
    /// end.
    ListFallback,
    /// The branch-and-bound exact scheduler of [`mvp_exact`]: schedules at
    /// the smallest II the search can find and certify, or fails with an
    /// exhausted II search when the node budget trips first. Intended as an
    /// optimality oracle on small loops, not as a production scheduler.
    Exact,
    /// The exact scheduler on its CDCL SAT backend: the same certified
    /// search, but every probe is decided by CNF refutation / model
    /// decoding instead of branch-and-bound.
    ExactSat,
    /// The exact scheduler dovetailing the SAT and branch-and-bound engines
    /// per probe in escalating step quanta until one decides.
    Portfolio,
}

impl SchedulerChoice {
    /// The two schedulers the paper's figures compare bar-by-bar
    /// ([`Unified`](SchedulerChoice::Unified) is the normalisation
    /// reference, not a bar).
    pub const ALL: [SchedulerChoice; 2] = [SchedulerChoice::Baseline, SchedulerChoice::Rmca];

    /// Every scheduler configuration, as exercised by the differential fuzz
    /// harness (the exact scheduler only on loops small enough for its node
    /// budget; see `tests/differential_fuzz.rs`).
    pub const EVERY: [SchedulerChoice; 5] = [
        SchedulerChoice::Baseline,
        SchedulerChoice::Rmca,
        SchedulerChoice::Unified,
        SchedulerChoice::ListFallback,
        SchedulerChoice::Exact,
    ];

    /// Short display name (used in result tables).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SchedulerChoice::Baseline => "baseline",
            SchedulerChoice::Rmca => "rmca",
            SchedulerChoice::Unified => "unified",
            SchedulerChoice::ListFallback => "list-fallback",
            SchedulerChoice::Exact => "exact",
            SchedulerChoice::ExactSat => "exact-sat",
            SchedulerChoice::Portfolio => "portfolio",
        }
    }

    /// The probe backend of the exact-family choices ([`Exact`],
    /// [`ExactSat`], [`Portfolio`]); `None` for the heuristics.
    ///
    /// [`Exact`]: SchedulerChoice::Exact
    /// [`ExactSat`]: SchedulerChoice::ExactSat
    /// [`Portfolio`]: SchedulerChoice::Portfolio
    #[must_use]
    pub fn exact_backend(self) -> Option<ExactBackend> {
        match self {
            SchedulerChoice::Exact => Some(ExactBackend::BranchAndBound),
            SchedulerChoice::ExactSat => Some(ExactBackend::Sat),
            SchedulerChoice::Portfolio => Some(ExactBackend::Portfolio),
            _ => None,
        }
    }

    /// Builds the scheduler implementation with the given options.
    #[must_use]
    pub fn build(self, options: SchedulerOptions) -> Box<dyn ModuloScheduler + Send + Sync> {
        match self {
            SchedulerChoice::Baseline | SchedulerChoice::Unified => {
                Box::new(BaselineScheduler::with_options(options))
            }
            SchedulerChoice::Rmca => Box::new(RmcaScheduler::with_options(options)),
            SchedulerChoice::ListFallback => Box::new(FallbackScheduler::with_options(
                RmcaScheduler::with_options(options),
                options,
            )),
            SchedulerChoice::Exact | SchedulerChoice::ExactSat | SchedulerChoice::Portfolio => {
                let backend = self.exact_backend().expect("exact-family choice");
                Box::new(ExactScheduler::from_scheduler_options(&options).with_backend(backend))
            }
        }
    }

    /// The machine preset this choice runs on when none is given
    /// explicitly.
    #[must_use]
    pub fn default_machine(self) -> MachineConfig {
        match self {
            SchedulerChoice::Unified => presets::unified(),
            _ => presets::two_cluster(),
        }
    }
}

impl fmt::Display for SchedulerChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The concrete [`ScheduleCache`] instantiation the pipeline shares:
/// canonicalized loop reports keyed by content hash. Build one, wrap it in
/// an [`Arc`], and hand it to every pipeline of a service via
/// [`PipelineBuilder::schedule_cache`].
pub type PipelineScheduleCache = ScheduleCache<CachedLoopReport>;

/// Builder for a [`Pipeline`].
#[derive(Debug, Clone)]
pub struct PipelineBuilder {
    scheduler: SchedulerChoice,
    machine: Option<Arc<MachineConfig>>,
    scheduler_options: SchedulerOptions,
    sim_options: SimOptions,
    gap_oracle: Option<ExactOptions>,
    exact_node_budget: Option<u64>,
    executor: Option<Arc<Executor>>,
    schedule_cache: Option<Arc<PipelineScheduleCache>>,
    trace: bool,
}

impl Default for PipelineBuilder {
    fn default() -> Self {
        Self {
            scheduler: SchedulerChoice::Rmca,
            machine: None,
            scheduler_options: SchedulerOptions::new(),
            sim_options: SimOptions::new(),
            gap_oracle: None,
            exact_node_budget: None,
            executor: None,
            schedule_cache: None,
            trace: true,
        }
    }
}

impl PipelineBuilder {
    /// Picks the scheduler (default: [`SchedulerChoice::Rmca`]).
    #[must_use]
    pub fn scheduler(mut self, scheduler: SchedulerChoice) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Picks the machine configuration. Defaults to the Table-1 2-cluster
    /// preset (or the unified preset for [`SchedulerChoice::Unified`]).
    ///
    /// Accepts either an owned [`MachineConfig`] or an
    /// [`Arc<MachineConfig>`]: experiment grids that build many pipelines
    /// for the same machine (the Figure-5/6 sweeps) share one `Arc` instead
    /// of cloning the whole configuration per pipeline.
    #[must_use]
    pub fn machine(mut self, machine: impl Into<Arc<MachineConfig>>) -> Self {
        self.machine = Some(machine.into());
        self
    }

    /// Replaces all scheduler options at once.
    #[must_use]
    pub fn scheduler_options(mut self, options: SchedulerOptions) -> Self {
        self.scheduler_options = options;
        self
    }

    /// Sets the cache-miss threshold (shortcut for the most commonly swept
    /// scheduler option).
    #[must_use]
    pub fn threshold(mut self, threshold: f64) -> Self {
        self.scheduler_options = self.scheduler_options.with_threshold(threshold);
        self
    }

    /// Replaces the simulation options.
    #[must_use]
    pub fn sim_options(mut self, options: SimOptions) -> Self {
        self.sim_options = options;
        self
    }

    /// Switches the optimality-gap oracle on or off (off by default).
    ///
    /// When on, every [`Pipeline::run`] additionally runs the exact
    /// scheduler of [`mvp_exact`] on the loop and reports the relative gap
    /// between the heuristic II and the certified lower bound in
    /// [`LoopReport::optimality_gap`]. This is meant for small loops — the
    /// exact search carries a node budget and degrades to a weaker (but
    /// still certified) bound on large ones.
    ///
    /// For [`SchedulerChoice::Exact`] pipelines the oracle shares the
    /// scheduler's own search (one solve yields both the schedule and the
    /// bound), so the oracle's own options — including any set with
    /// [`optimality_gap_options`](Self::optimality_gap_options) — are not
    /// consulted and the schedule is identical with the flag on or off.
    #[must_use]
    pub fn optimality_gap(mut self, enabled: bool) -> Self {
        self.gap_oracle = enabled.then(ExactOptions::new);
        self
    }

    /// Switches the optimality-gap oracle on with explicit search options.
    #[must_use]
    pub fn optimality_gap_options(mut self, options: ExactOptions) -> Self {
        self.gap_oracle = Some(options);
        self
    }

    /// Caps the search-step budget of the exact *scheduler* configurations
    /// ([`SchedulerChoice::Exact`], [`SchedulerChoice::ExactSat`],
    /// [`SchedulerChoice::Portfolio`]). Without this, exact
    /// pipelines always solve under the 1M-step default of
    /// [`ExactOptions`] — far more than a suite-scale `EVERY` run wants to
    /// spend per loop. A loop whose probe exhausts the budget fails with an
    /// exhausted II search instead of an answer, exactly as an
    /// under-budgeted [`mvp_exact::solve`] would.
    ///
    /// Only consulted by the exact-family choices; the heuristic
    /// configurations have no node budget, and the *gap oracle's* budget is
    /// configured separately via
    /// [`optimality_gap_options`](Self::optimality_gap_options) (except for
    /// exact pipelines, whose single shared solve uses this budget).
    #[must_use]
    pub fn exact_node_budget(mut self, budget: u64) -> Self {
        self.exact_node_budget = Some(budget);
        self
    }

    /// Picks the executor batch runs ([`Pipeline::run_batch`],
    /// [`Pipeline::run_workloads`]) are parallelised on. Defaults to the
    /// process-wide [`Executor::global`] (sized by `MVP_THREADS` or the
    /// machine's available parallelism). Pass `Executor::new(1)` for a
    /// strictly sequential pipeline — the reports are identical either way,
    /// per the executor's ordered-collect guarantee.
    #[must_use]
    pub fn executor(mut self, executor: Arc<Executor>) -> Self {
        self.executor = Some(executor);
        self
    }

    /// Attaches a content-addressed schedule cache (off by default).
    ///
    /// With a cache attached, [`Pipeline::run`] first canonicalizes the
    /// loop, derives a [`CacheKey`] from the loop's structure plus the
    /// machine configuration and every option that can influence the
    /// report, and looks the key up; a hit skips scheduling, the gap
    /// oracle *and* simulation entirely, replaying the stored
    /// [`LoopReport`] translated back into the query loop's operation ids.
    /// A miss solves as usual and stores the result.
    ///
    /// Share one `Arc` across all pipelines of a service (the cache is
    /// sharded internally and safe for concurrent batch jobs). Results are
    /// bit-identical with and without the cache: the key covers everything
    /// the report depends on, and the canonicalizer only ever identifies
    /// loops whose canonical descriptions are equal word for word.
    #[must_use]
    pub fn schedule_cache(mut self, cache: Arc<PipelineScheduleCache>) -> Self {
        self.schedule_cache = Some(cache);
        self
    }

    /// Switches per-phase [`mvp_trace`] instrumentation on or off for this
    /// pipeline (on by default).
    ///
    /// With the flag on, every run opens `pipeline.cache.probe`,
    /// `pipeline.schedule`, `pipeline.sim` and `pipeline.gap_oracle` spans
    /// and accumulates their elapsed time into the matching `pipeline.*.ns`
    /// runtime counters — subject to the *global* [`mvp_trace::TraceMode`],
    /// so a pipeline with tracing on still pays only one relaxed atomic
    /// load per phase while the process-wide mode is
    /// [`Off`](mvp_trace::TraceMode::Off). Turning the flag off mutes this
    /// pipeline even when the global mode is on, which lets a bench harness
    /// trace one pipeline of interest without noise from warm-up or
    /// reference pipelines.
    #[must_use]
    pub fn trace(mut self, enabled: bool) -> Self {
        self.trace = enabled;
        self
    }

    /// Validates the configuration and builds the [`Pipeline`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Machine`] when the machine configuration is
    /// invalid, and [`Error::Config`] when the Unified reference scheduler
    /// is paired with a clustered machine.
    pub fn build(self) -> Result<Pipeline> {
        let machine = self
            .machine
            .unwrap_or_else(|| Arc::new(self.scheduler.default_machine()));
        machine.validate()?;
        if self.scheduler == SchedulerChoice::Unified && machine.num_clusters() != 1 {
            return Err(Error::Config(format!(
                "the Unified reference runs on a single-cluster machine, got {} clusters",
                machine.num_clusters()
            )));
        }
        let executor = self.executor.unwrap_or_else(Executor::global);
        let scheduler = if let Some(backend) = self.scheduler.exact_backend() {
            let mut options = ExactOptions::from_scheduler_options(&self.scheduler_options);
            if let Some(budget) = self.exact_node_budget {
                options = options.with_node_budget(budget);
            }
            Box::new(ExactScheduler::with_options(options).with_backend(backend))
                as Box<dyn ModuloScheduler + Send + Sync>
        } else {
            self.scheduler.build(self.scheduler_options)
        };
        Ok(Pipeline {
            choice: self.scheduler,
            scheduler,
            scheduler_options: self.scheduler_options,
            machine,
            sim_options: self.sim_options,
            gap_oracle: self.gap_oracle,
            exact_node_budget: self.exact_node_budget,
            executor,
            schedule_cache: self.schedule_cache,
            trace: self.trace,
        })
    }
}

/// The end-to-end schedule → simulate → report driver.
///
/// Build one with [`Pipeline::builder`], then [`run`](Pipeline::run) a
/// single loop, or [`run_batch`](Pipeline::run_batch) /
/// [`run_workloads`](Pipeline::run_workloads) many loops at once — both
/// fan the loops out as individual jobs on the pipeline's
/// [`Executor`] (schedule, simulate *and* the optimality-gap oracle when
/// enabled all run inside the per-loop job, so independent gap-oracle
/// solves proceed concurrently, each under its own node budget).
pub struct Pipeline {
    choice: SchedulerChoice,
    scheduler: Box<dyn ModuloScheduler + Send + Sync>,
    scheduler_options: SchedulerOptions,
    machine: Arc<MachineConfig>,
    sim_options: SimOptions,
    gap_oracle: Option<ExactOptions>,
    exact_node_budget: Option<u64>,
    executor: Arc<Executor>,
    schedule_cache: Option<Arc<PipelineScheduleCache>>,
    trace: bool,
}

impl fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Pipeline")
            .field("scheduler", &self.choice)
            .field("machine", &self.machine.name)
            .finish_non_exhaustive()
    }
}

impl Pipeline {
    /// Starts building a pipeline.
    #[must_use]
    pub fn builder() -> PipelineBuilder {
        PipelineBuilder::default()
    }

    /// The scheduler configuration this pipeline runs.
    #[must_use]
    pub fn scheduler(&self) -> SchedulerChoice {
        self.choice
    }

    /// The machine this pipeline schedules for and simulates on.
    #[must_use]
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// The machine as a shareable handle (cheap to clone into further
    /// pipelines or worker threads).
    #[must_use]
    pub fn shared_machine(&self) -> Arc<MachineConfig> {
        Arc::clone(&self.machine)
    }

    /// The executor batch runs are parallelised on.
    #[must_use]
    pub fn executor(&self) -> &Arc<Executor> {
        &self.executor
    }

    /// The schedule cache attached via
    /// [`PipelineBuilder::schedule_cache`], if any.
    #[must_use]
    pub fn schedule_cache(&self) -> Option<&Arc<PipelineScheduleCache>> {
        self.schedule_cache.as_ref()
    }

    /// The content-addressed cache key [`run`](Pipeline::run) would look
    /// `l` up under: the loop's canonical structure, the machine
    /// configuration, and every pipeline option that can influence the
    /// report. Exposed so service front ends can log and correlate keys.
    #[must_use]
    pub fn cache_key(&self, l: &Loop) -> CacheKey {
        self.cache_key_of(&canonicalize(l))
    }

    fn cache_key_of(&self, canon: &CanonicalLoop) -> CacheKey {
        let mut k = canon.key_hasher();
        hash_machine(&mut k, &self.machine);
        k.str(self.choice.name());
        k.f64_bits(self.scheduler_options.miss_threshold);
        k.u32(self.scheduler_options.max_ii_slack);
        k.usize(self.scheduler_options.locality_window);
        k.bool(self.scheduler_options.enforce_register_pressure);
        k.u64(self.sim_options.max_inner_iterations);
        k.bool(self.sim_options.flush_between_executions);
        k.bool(self.gap_oracle.is_some());
        if let Some(oracle) = &self.gap_oracle {
            k.u32(oracle.max_ii_slack);
            k.u64(oracle.node_budget);
            k.u32(oracle.horizon_stages);
            k.bool(oracle.enforce_register_pressure);
        }
        k.bool(self.exact_node_budget.is_some());
        if let Some(budget) = self.exact_node_budget {
            k.u64(budget);
        }
        k.finish()
    }

    /// Schedules and simulates one loop.
    ///
    /// With a [schedule cache](PipelineBuilder::schedule_cache) attached,
    /// consults it first and replays the stored report on a hit; the
    /// reported artifact is identical either way.
    ///
    /// # Errors
    ///
    /// Propagates scheduling failures as [`Error::Schedule`] (or
    /// [`Error::Machine`] when the root cause is the machine model).
    /// Failures are not cached: a loop that failed once is re-attempted on
    /// every run.
    pub fn run(&self, l: &Loop) -> Result<LoopReport> {
        if self.trace {
            mvp_trace::counter_handle!("pipeline.runs", Stable).incr();
        }
        let Some(cache) = &self.schedule_cache else {
            return self.solve(l);
        };
        let probe = self.phase_span(
            "pipeline.cache.probe",
            mvp_trace::counter_handle!("pipeline.cache.probe.ns", Runtime),
        );
        let canon = canonicalize(l);
        let key = self.cache_key_of(&canon);
        let hit = cache.get(&key);
        drop(probe);
        if let Some(cached) = hit {
            let report = cached.into_report(l, &canon);
            // A replayed schedule went through the debug validator when it
            // was first produced, but a hit may translate it onto a loop
            // that is merely isomorphic to the original — re-validate the
            // translated artifact in debug builds.
            #[cfg(debug_assertions)]
            {
                let violations = mvp_core::validate_schedule(l, &self.machine, &report.schedule);
                debug_assert!(
                    violations.is_empty(),
                    "cache hit replayed an illegal schedule for {} on {}: {violations:?}",
                    l.name(),
                    self.machine.name,
                );
            }
            return Ok(report);
        }
        let report = self.solve(l)?;
        cache.insert(key, CachedLoopReport::from_report(&report, &canon));
        Ok(report)
    }

    /// Opens a [`mvp_trace::timed_span`] for one pipeline phase, or an
    /// unarmed guard when this pipeline's tracing is off.
    fn phase_span(
        &self,
        name: &'static str,
        acc: &'static mvp_trace::Counter,
    ) -> mvp_trace::SpanGuard {
        if self.trace {
            mvp_trace::timed_span(name, acc)
        } else {
            mvp_trace::unarmed(name)
        }
    }

    /// The uncached schedule → (gap oracle) → simulate path.
    fn solve(&self, l: &Loop) -> Result<LoopReport> {
        // When the pipeline's own scheduler *is* the exact search (any
        // backend) and the gap oracle is on, one solve provides both the
        // schedule and the bound — running `ExactScheduler::schedule` and
        // then the oracle would repeat the identical search. The solve uses
        // the options the scheduler itself was built with (not the oracle's),
        // so toggling the gap flag never changes the schedule produced.
        if let (Some(backend), Some(_)) = (self.choice.exact_backend(), &self.gap_oracle) {
            let mut options = ExactOptions::from_scheduler_options(&self.scheduler_options);
            if let Some(budget) = self.exact_node_budget {
                options = options.with_node_budget(budget);
            }
            // The fused exact solve is both the scheduler and the oracle:
            // its whole cost is charged to the schedule phase, and the
            // oracle-run counter still ticks because a gap was produced.
            if self.trace {
                mvp_trace::counter_handle!("pipeline.gap_oracle.runs", Stable).incr();
            }
            let span = self.phase_span(
                "pipeline.schedule",
                mvp_trace::counter_handle!("pipeline.schedule.ns", Runtime),
            );
            let outcome = mvp_exact::solve_with(l, &self.machine, &options, &backend);
            drop(span);
            let outcome = outcome?;
            let max_ii = outcome.min_ii.saturating_add(options.max_ii_slack);
            let gap = outcome
                .schedule_ii()
                .map(|ii| outcome.optimality_gap_of(ii));
            let schedule =
                outcome
                    .schedule
                    .ok_or(Error::Schedule(mvp_core::ScheduleError::NoFeasibleIi {
                        min_ii: outcome.min_ii,
                        max_ii,
                    }))?;
            return self.finish_run(l, schedule, gap);
        }
        let span = self.phase_span(
            "pipeline.schedule",
            mvp_trace::counter_handle!("pipeline.schedule.ns", Runtime),
        );
        let schedule = self.scheduler.schedule(l, &self.machine);
        drop(span);
        let schedule = schedule?;
        let optimality_gap = self
            .gap_oracle
            .as_ref()
            .map(|options| {
                if self.trace {
                    mvp_trace::counter_handle!("pipeline.gap_oracle.runs", Stable).incr();
                }
                let _span = self.phase_span(
                    "pipeline.gap_oracle",
                    mvp_trace::counter_handle!("pipeline.gap_oracle.ns", Runtime),
                );
                mvp_exact::solve(l, &self.machine, options)
            })
            .transpose()?
            .map(|outcome| outcome.optimality_gap_of(schedule.ii()));
        self.finish_run(l, schedule, optimality_gap)
    }

    /// Validates (debug builds), simulates and reports one schedule.
    fn finish_run(
        &self,
        l: &Loop,
        schedule: Schedule,
        optimality_gap: Option<f64>,
    ) -> Result<LoopReport> {
        // Re-check the finished schedule against the independent legality
        // oracle in debug builds: every example, bench and test run then
        // dogfoods the validator, not only the fuzz harness.
        #[cfg(debug_assertions)]
        {
            let violations = mvp_core::validate_schedule(l, &self.machine, &schedule);
            debug_assert!(
                violations.is_empty(),
                "{} produced an illegal schedule for {} on {}: {violations:?}",
                self.choice,
                l.name(),
                self.machine.name,
            );
        }
        let span = self.phase_span(
            "pipeline.sim",
            mvp_trace::counter_handle!("pipeline.sim.ns", Runtime),
        );
        let stats = simulate(l, &schedule, &self.machine, &self.sim_options);
        drop(span);
        Ok(LoopReport {
            loop_name: l.name().to_string(),
            scheduler: self.choice,
            ii: schedule.ii(),
            stage_count: schedule.stage_count(),
            communications: schedule.num_communications(),
            miss_scheduled_loads: schedule.miss_scheduled_loads().count(),
            optimality_gap,
            schedule,
            stats,
        })
    }

    /// Schedules and simulates a batch of loops, one executor job per loop.
    ///
    /// The report is identical for every thread count: results are
    /// collected in input order and the first per-loop error *by batch
    /// position* wins, exactly as a sequential loop would behave.
    ///
    /// # Errors
    ///
    /// Returns the first per-loop error, or [`Error::Config`] for an empty
    /// batch.
    pub fn run_batch<'a, I>(&self, loops: I) -> Result<PipelineReport>
    where
        I: IntoIterator<Item = &'a Loop>,
    {
        let loops: Vec<&Loop> = loops.into_iter().collect();
        let runs: Vec<LoopReport> = self
            .executor
            .map(&loops, |l| self.run(l))
            .into_iter()
            .collect::<Result<_>>()?;
        PipelineReport::from_runs(self.choice, runs)
    }

    /// Schedules and simulates every loop of every workload, in parallel
    /// across the *loops* of the whole suite (not merely across
    /// workloads): the *n*-th loop of tomcatv and the first loop of apsi
    /// are independent executor jobs, so one long workload no longer
    /// serialises a worker while the small kernels finish early.
    ///
    /// # Errors
    ///
    /// Returns the first per-loop error (in suite order, independent of
    /// the thread count), or [`Error::Config`] when the suite contains no
    /// loops at all.
    pub fn run_workloads(&self, workloads: &[Workload]) -> Result<PipelineReport> {
        self.run_batch(workloads.iter().flat_map(|w| w.loops.iter()))
    }
}

/// Report of running one loop through the pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopReport {
    /// Name of the loop.
    pub loop_name: String,
    /// Which scheduler produced the schedule.
    pub scheduler: SchedulerChoice,
    /// Initiation interval of the schedule.
    pub ii: u32,
    /// Stage count of the schedule.
    pub stage_count: u32,
    /// Inter-cluster register communications per iteration.
    pub communications: usize,
    /// Loads scheduled with the miss latency.
    pub miss_scheduled_loads: usize,
    /// Relative gap between this schedule's II and the certified lower
    /// bound of the exact scheduler (`(II − bound) / bound`; 0.0 = provably
    /// optimal). `None` unless the pipeline was built with
    /// [`PipelineBuilder::optimality_gap`].
    pub optimality_gap: Option<f64>,
    /// The schedule itself (placements, communications).
    pub schedule: Schedule,
    /// Simulated cycle breakdown and memory counters.
    pub stats: SimStats,
}

impl LoopReport {
    /// Total simulated cycles.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.stats.total_cycles()
    }

    /// Simulated local miss ratio of the memory system.
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        self.stats.memory.miss_ratio()
    }
}

impl fmt::Display for LoopReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}]: II={}, SC={}, comms/iter={}, miss-rate={:.1}%, cycles={} (compute={} + stall={})",
            self.loop_name,
            self.scheduler,
            self.ii,
            self.stage_count,
            self.communications,
            100.0 * self.miss_rate(),
            self.total_cycles(),
            self.stats.compute_cycles,
            self.stats.stall_cycles,
        )?;
        if let Some(gap) = self.optimality_gap {
            write!(f, ", gap={:.0}%", 100.0 * gap)?;
        }
        Ok(())
    }
}

/// A [`LoopReport`] as stored in the [`PipelineScheduleCache`]: the same
/// payload, but with every operation id translated into the loop's
/// *canonical* numbering (the relabeling-invariant order computed by
/// [`canonicalize`]). Storing in canonical space is what lets a hit replay
/// onto any loop with the same canonical form — including relabeled
/// isomorphs of the loop that populated the entry — by translating ids
/// back through the query loop's own canonical maps.
#[derive(Debug, Clone)]
pub struct CachedLoopReport {
    scheduler: SchedulerChoice,
    ii: u32,
    communications: usize,
    miss_scheduled_loads: usize,
    optimality_gap: Option<f64>,
    machine_name: String,
    scheduler_name: String,
    /// Placements with canonical op ids, sorted by canonical id.
    ops: Vec<PlacedOp>,
    /// Communications with canonical op ids, in booking order.
    comms: Vec<Communication>,
    register_pressure: Vec<u32>,
    stats: SimStats,
}

impl CachedLoopReport {
    /// Translates a freshly solved report into canonical op-id space.
    fn from_report(report: &LoopReport, canon: &CanonicalLoop) -> Self {
        let mut ops: Vec<PlacedOp> = report
            .schedule
            .ops()
            .iter()
            .map(|p| PlacedOp {
                op: OpId::from_index(canon.to_canon[p.op.index()]),
                ..*p
            })
            .collect();
        ops.sort_by_key(|p| p.op.index());
        let comms = report
            .schedule
            .communications()
            .iter()
            .map(|c| Communication {
                src: OpId::from_index(canon.to_canon[c.src.index()]),
                dst: OpId::from_index(canon.to_canon[c.dst.index()]),
                ..*c
            })
            .collect();
        Self {
            scheduler: report.scheduler,
            ii: report.ii,
            communications: report.communications,
            miss_scheduled_loads: report.miss_scheduled_loads,
            optimality_gap: report.optimality_gap,
            machine_name: report.schedule.machine_name.clone(),
            scheduler_name: report.schedule.scheduler_name.clone(),
            ops,
            comms,
            register_pressure: report.schedule.register_pressure().to_vec(),
            stats: report.stats,
        }
    }

    /// Replays the cached artifact onto `l`, translating canonical op ids
    /// back into `l`'s own numbering.
    ///
    /// For the very loop that populated the entry this round-trips
    /// byte-identically: `from_canon ∘ to_canon` is the identity, both
    /// schedulers emit placements in op-id order (restored here by the
    /// sort), and communications keep their booking order throughout.
    fn into_report(self, l: &Loop, canon: &CanonicalLoop) -> LoopReport {
        let mut ops: Vec<PlacedOp> = self
            .ops
            .iter()
            .map(|p| PlacedOp {
                op: OpId::from_index(canon.from_canon[p.op.index()]),
                ..*p
            })
            .collect();
        ops.sort_by_key(|p| p.op.index());
        let comms = self
            .comms
            .iter()
            .map(|c| Communication {
                src: OpId::from_index(canon.from_canon[c.src.index()]),
                dst: OpId::from_index(canon.from_canon[c.dst.index()]),
                ..*c
            })
            .collect();
        let schedule = Schedule::new(
            self.machine_name,
            self.scheduler_name,
            self.ii,
            ops,
            comms,
            self.register_pressure,
        );
        LoopReport {
            loop_name: l.name().to_string(),
            scheduler: self.scheduler,
            ii: self.ii,
            stage_count: schedule.stage_count(),
            communications: self.communications,
            miss_scheduled_loads: self.miss_scheduled_loads,
            optimality_gap: self.optimality_gap,
            schedule,
            stats: self.stats,
        }
    }
}

/// Aggregated report of running a batch of loops through the pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineReport {
    /// Which scheduler produced every run.
    pub scheduler: SchedulerChoice,
    /// Per-loop reports.
    pub runs: Vec<LoopReport>,
    /// Sum of compute cycles across the batch.
    pub compute_cycles: u64,
    /// Sum of stall cycles across the batch.
    pub stall_cycles: u64,
    /// Memory-system counters summed across the batch.
    pub memory: MemoryCounters,
    /// Mean per-loop optimality gap over the runs that measured one
    /// (`None` when no run did; see [`LoopReport::optimality_gap`]).
    pub optimality_gap: Option<f64>,
}

impl PipelineReport {
    /// Aggregates per-loop reports into a batch report.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] when `runs` is empty: every figure of the
    /// paper normalises against these totals, and a silently-zero total
    /// would poison the ratios downstream.
    pub fn from_runs(scheduler: SchedulerChoice, runs: Vec<LoopReport>) -> Result<Self> {
        if runs.is_empty() {
            return Err(Error::Config("pipeline batch contains no loops".into()));
        }
        let compute_cycles = runs.iter().map(|r| r.stats.compute_cycles).sum();
        let stall_cycles = runs.iter().map(|r| r.stats.stall_cycles).sum();
        let mut memory = MemoryCounters::default();
        for r in &runs {
            memory.accumulate(&r.stats.memory);
        }
        let gaps: Vec<f64> = runs.iter().filter_map(|r| r.optimality_gap).collect();
        let optimality_gap = if gaps.is_empty() {
            None
        } else {
            Some(gaps.iter().sum::<f64>() / gaps.len() as f64)
        };
        Ok(Self {
            scheduler,
            runs,
            compute_cycles,
            stall_cycles,
            memory,
            optimality_gap,
        })
    }

    /// Total cycles across the batch.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.compute_cycles + self.stall_cycles
    }

    /// Aggregate local miss ratio across the batch.
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        self.memory.miss_ratio()
    }

    /// Total cycles normalised against a reference run (e.g. the Unified
    /// configuration), the y-axis of Figures 5 and 6.
    #[must_use]
    pub fn normalized_to(&self, reference: &PipelineReport) -> f64 {
        if reference.total_cycles() == 0 {
            0.0
        } else {
            self.total_cycles() as f64 / reference.total_cycles() as f64
        }
    }

    /// Compute cycles normalised against a reference run's total.
    #[must_use]
    pub fn normalized_compute(&self, reference: &PipelineReport) -> f64 {
        if reference.total_cycles() == 0 {
            0.0
        } else {
            self.compute_cycles as f64 / reference.total_cycles() as f64
        }
    }

    /// Stall cycles normalised against a reference run's total.
    #[must_use]
    pub fn normalized_stall(&self, reference: &PipelineReport) -> f64 {
        if reference.total_cycles() == 0 {
            0.0
        } else {
            self.stall_cycles as f64 / reference.total_cycles() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvp_workloads::motivating::{motivating_loop, MotivatingParams};
    use mvp_workloads::suite::{suite, SuiteParams};

    #[test]
    fn run_reports_the_figure3_loop() {
        let (l, _) = motivating_loop(&MotivatingParams::default());
        let machine = presets::motivating_example_machine();
        let report = Pipeline::builder()
            .scheduler(SchedulerChoice::Rmca)
            .machine(machine)
            .build()
            .unwrap()
            .run(&l)
            .unwrap();
        assert_eq!(report.loop_name, l.name());
        assert!(report.ii >= 1);
        assert_eq!(report.schedule.ii(), report.ii);
        assert_eq!(
            report.total_cycles(),
            report.stats.compute_cycles + report.stats.stall_cycles
        );
        assert!(report.to_string().contains("II="));
    }

    #[test]
    fn unified_rejects_clustered_machines() {
        let err = Pipeline::builder()
            .scheduler(SchedulerChoice::Unified)
            .machine(presets::two_cluster())
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::Config(_)));
        // ...and defaults to the unified preset when no machine is given.
        let p = Pipeline::builder()
            .scheduler(SchedulerChoice::Unified)
            .build()
            .unwrap();
        assert_eq!(p.machine().num_clusters(), 1);
    }

    #[test]
    fn list_fallback_runs_and_machines_are_shared() {
        let machine = std::sync::Arc::new(presets::two_cluster());
        let p = Pipeline::builder()
            .scheduler(SchedulerChoice::ListFallback)
            .machine(std::sync::Arc::clone(&machine))
            .build()
            .unwrap();
        // The builder keeps the caller's Arc instead of cloning the config.
        assert!(std::sync::Arc::ptr_eq(&p.shared_machine(), &machine));
        let (l, _) = motivating_loop(&MotivatingParams::default());
        let report = p.run(&l).unwrap();
        assert_eq!(report.scheduler, SchedulerChoice::ListFallback);
        // The primary (RMCA) handles the motivating loop; the fallback only
        // engages on exhausted II searches.
        assert_eq!(report.schedule.scheduler_name, "rmca");
        assert_eq!(SchedulerChoice::EVERY.len(), 5);
        assert_eq!(SchedulerChoice::ListFallback.name(), "list-fallback");
        assert_eq!(
            SchedulerChoice::ListFallback.default_machine().name,
            "2-cluster"
        );
    }

    #[test]
    fn exact_choice_runs_and_measures_a_zero_gap_against_itself() {
        let (l, _) = motivating_loop(&MotivatingParams::default());
        let machine = presets::motivating_example_machine();
        let report = Pipeline::builder()
            .scheduler(SchedulerChoice::Exact)
            .machine(machine)
            .optimality_gap(true)
            .build()
            .unwrap()
            .run(&l)
            .unwrap();
        assert_eq!(report.schedule.scheduler_name, "exact");
        // Figure-3 pinned: the exact scheduler achieves the unified mII of 3
        // on the distributed machine, so its own gap is exactly zero.
        assert_eq!(report.ii, 3);
        assert_eq!(report.optimality_gap, Some(0.0));
        assert!(report.to_string().contains("gap=0%"));
        assert_eq!(SchedulerChoice::Exact.name(), "exact");
        assert_eq!(SchedulerChoice::Exact.default_machine().name, "2-cluster");
    }

    #[test]
    fn sat_pipeline_matches_the_exact_figure3_pin() {
        let (l, _) = motivating_loop(&MotivatingParams::default());
        let report = Pipeline::builder()
            .scheduler(SchedulerChoice::ExactSat)
            .machine(presets::motivating_example_machine())
            .optimality_gap(true)
            .build()
            .unwrap()
            .run(&l)
            .unwrap();
        assert_eq!(report.schedule.scheduler_name, "exact-sat");
        assert_eq!(report.ii, 3);
        assert_eq!(report.optimality_gap, Some(0.0));
        assert_eq!(SchedulerChoice::ExactSat.name(), "exact-sat");
        assert_eq!(
            SchedulerChoice::ExactSat.default_machine().name,
            "2-cluster"
        );
    }

    #[test]
    fn portfolio_retires_the_figure3_node_count() {
        // Branch-and-bound alone needs 490,291 nodes to prove II=3 on the
        // figure-3 loop; the portfolio must beat that on the *inclusive*
        // total (its SAT steps plus every dovetailed branch-and-bound
        // instalment).
        let (l, _) = motivating_loop(&MotivatingParams::default());
        let machine = presets::motivating_example_machine();
        let outcome =
            mvp_exact::solve_with(&l, &machine, &ExactOptions::new(), &ExactBackend::Portfolio)
                .unwrap();
        assert_eq!(outcome.schedule_ii(), Some(3));
        assert!(outcome.proved_optimal);
        assert!(
            outcome.search_steps() < 490_291,
            "portfolio took {} steps",
            outcome.search_steps()
        );

        // The same search through the pipeline front end.
        let report = Pipeline::builder()
            .scheduler(SchedulerChoice::Portfolio)
            .machine(machine)
            .executor(Arc::new(Executor::new(1)))
            .optimality_gap(true)
            .build()
            .unwrap()
            .run(&l)
            .unwrap();
        assert_eq!(report.schedule.scheduler_name, "exact-portfolio");
        assert_eq!(report.ii, 3);
        assert_eq!(report.optimality_gap, Some(0.0));
        assert_eq!(SchedulerChoice::Portfolio.name(), "portfolio");
    }

    #[test]
    fn heuristic_gap_on_the_motivating_loop_is_one_third() {
        let (l, _) = motivating_loop(&MotivatingParams::default());
        let machine = presets::motivating_example_machine();
        let report = Pipeline::builder()
            .scheduler(SchedulerChoice::Rmca)
            .machine(machine)
            .optimality_gap(true)
            .build()
            .unwrap()
            .run(&l)
            .unwrap();
        // RMCA lands at II=4 against the proven optimum of 3.
        assert_eq!(report.ii, 4);
        let gap = report.optimality_gap.expect("gap oracle enabled");
        assert!((gap - 1.0 / 3.0).abs() < 1e-12, "{gap}");
        // The batch aggregate carries the mean of the measured gaps.
        let batch = PipelineReport::from_runs(SchedulerChoice::Rmca, vec![report]).unwrap();
        assert!((batch.optimality_gap.unwrap() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn exact_node_budget_caps_the_scheduler_search() {
        let (l, _) = motivating_loop(&MotivatingParams::default());
        let machine = Arc::new(presets::motivating_example_machine());
        // A one-node budget exhausts immediately: the exact pipeline fails
        // with an exhausted II search instead of burning the 1M default.
        let starved = Pipeline::builder()
            .scheduler(SchedulerChoice::Exact)
            .machine(Arc::clone(&machine))
            .exact_node_budget(1)
            .build()
            .unwrap();
        let err = starved.run(&l).unwrap_err();
        assert!(matches!(
            err,
            Error::Schedule(mvp_core::ScheduleError::NoFeasibleIi { .. })
        ));
        // The same cap flows into the shared solve of the Exact + gap-oracle
        // fast path.
        let starved_gap = Pipeline::builder()
            .scheduler(SchedulerChoice::Exact)
            .machine(Arc::clone(&machine))
            .exact_node_budget(1)
            .optimality_gap(true)
            .build()
            .unwrap();
        assert!(starved_gap.run(&l).is_err());
        // A generous budget changes nothing relative to the default.
        let roomy = Pipeline::builder()
            .scheduler(SchedulerChoice::Exact)
            .machine(Arc::clone(&machine))
            .exact_node_budget(mvp_exact::ExactOptions::new().node_budget)
            .build()
            .unwrap();
        let default = Pipeline::builder()
            .scheduler(SchedulerChoice::Exact)
            .machine(machine)
            .build()
            .unwrap();
        assert_eq!(
            roomy.run(&l).unwrap().schedule,
            default.run(&l).unwrap().schedule
        );
        // Heuristic pipelines ignore the budget entirely.
        let rmca = Pipeline::builder()
            .scheduler(SchedulerChoice::Rmca)
            .exact_node_budget(1)
            .build()
            .unwrap();
        assert!(rmca.run(&l).is_ok());
    }

    #[test]
    fn portfolio_pipelines_do_not_depend_on_the_executor_width() {
        // The portfolio searches one II at a time whatever executor the
        // pipeline runs on, so the width changes neither the cache key nor
        // the report, down to the schedule itself.
        let (l, _) = motivating_loop(&MotivatingParams::default());
        let machine = Arc::new(presets::motivating_example_machine());
        let build = |threads| {
            Pipeline::builder()
                .scheduler(SchedulerChoice::Portfolio)
                .machine(Arc::clone(&machine))
                .executor(Arc::new(Executor::new(threads)))
                .optimality_gap(true)
                .build()
                .unwrap()
        };
        let narrow = build(1);
        let wide = build(4);
        assert_eq!(narrow.cache_key(&l), wide.cache_key(&l));
        let report = narrow.run(&l).unwrap();
        assert_eq!(report, wide.run(&l).unwrap());
        assert_eq!(report.ii, 3);
        assert_eq!(report.optimality_gap, Some(0.0));
    }

    #[test]
    fn gap_is_absent_unless_requested() {
        let (l, _) = motivating_loop(&MotivatingParams::default());
        let report = Pipeline::builder().build().unwrap().run(&l).unwrap();
        assert_eq!(report.optimality_gap, None);
        let batch = PipelineReport::from_runs(SchedulerChoice::Rmca, vec![report]).unwrap();
        assert_eq!(batch.optimality_gap, None);
    }

    #[test]
    fn empty_batches_are_config_errors() {
        let p = Pipeline::builder().build().unwrap();
        assert!(matches!(p.run_batch([]), Err(Error::Config(_))));
        assert!(matches!(p.run_workloads(&[]), Err(Error::Config(_))));
    }

    #[test]
    fn explicit_executors_change_nothing_but_the_thread_count() {
        let workloads = suite(&SuiteParams::small());
        let build = |threads| {
            Pipeline::builder()
                .scheduler(SchedulerChoice::Rmca)
                .executor(Arc::new(Executor::new(threads)))
                .build()
                .unwrap()
        };
        let sequential = build(1);
        let parallel = build(4);
        assert_eq!(sequential.executor().threads(), 1);
        assert_eq!(parallel.executor().threads(), 4);
        assert_eq!(
            sequential.run_workloads(&workloads).unwrap(),
            parallel.run_workloads(&workloads).unwrap()
        );
    }

    #[test]
    fn schedule_cache_hits_replay_identical_reports() {
        let (l, _) = motivating_loop(&MotivatingParams::default());
        let cache = Arc::new(PipelineScheduleCache::with_capacity_and_shards(64, 2));
        let p = Pipeline::builder()
            .scheduler(SchedulerChoice::Rmca)
            .machine(presets::motivating_example_machine())
            .schedule_cache(Arc::clone(&cache))
            .build()
            .unwrap();
        let cold = p.run(&l).unwrap();
        let warm = p.run(&l).unwrap();
        assert_eq!(cold, warm, "a hit replays the cold report exactly");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        // The key is observable and stable.
        assert_eq!(p.cache_key(&l), p.cache_key(&l));

        // A pipeline differing in any keyed option misses.
        let other = Pipeline::builder()
            .scheduler(SchedulerChoice::Baseline)
            .machine(presets::motivating_example_machine())
            .schedule_cache(Arc::clone(&cache))
            .build()
            .unwrap();
        assert_ne!(other.cache_key(&l), p.cache_key(&l));
        other.run(&l).unwrap();
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().entries, 2);

        // An uncached pipeline reports the same artifact.
        let uncached = Pipeline::builder()
            .scheduler(SchedulerChoice::Rmca)
            .machine(presets::motivating_example_machine())
            .build()
            .unwrap();
        assert!(uncached.schedule_cache().is_none());
        assert_eq!(uncached.run(&l).unwrap(), cold);
    }

    #[test]
    fn workload_suites_aggregate_consistently() {
        let workloads = suite(&SuiteParams::small());
        let p = Pipeline::builder()
            .scheduler(SchedulerChoice::Baseline)
            .build()
            .unwrap();
        let report = p.run_workloads(&workloads).unwrap();
        let loops: usize = workloads.iter().map(|w| w.loops.len()).sum();
        assert_eq!(report.runs.len(), loops);
        assert_eq!(
            report.total_cycles(),
            report.compute_cycles + report.stall_cycles
        );
        let per_loop_total: u64 = report.runs.iter().map(|r| r.total_cycles()).sum();
        assert_eq!(report.total_cycles(), per_loop_total);
        assert!((report.normalized_to(&report) - 1.0).abs() < 1e-12);
        let parts = report.normalized_compute(&report) + report.normalized_stall(&report);
        assert!((parts - 1.0).abs() < 1e-12);
        assert!((0.0..=1.0).contains(&report.miss_rate()));
    }
}
