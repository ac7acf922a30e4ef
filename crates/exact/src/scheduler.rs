//! The outer II search and the [`ModuloScheduler`] front-end.
//!
//! [`solve`] probes candidate initiation intervals upwards from
//! `max(ResMII, RecMII)`. Each probe ends in one of three ways
//! ([`IiVerdict`]): *feasible* (a legal schedule is assembled and the search
//! stops), *infeasible* (the lower bound advances past this II — but only
//! while the chain of certificates from the minimum II is unbroken), or
//! *unknown* (the budget ran out; the search stops and reports the bound
//! certified so far). The result is either a provably optimal schedule, a
//! schedule plus a smaller certified lower bound, or a lower bound alone.
//!
//! # One commit loop
//!
//! The probes run in rounds of `width` consecutive IIs (the *ladder*, see
//! [`ExactOptions::ladder_width`]) and are committed strictly in II order.
//! Width 1 is the sequential search: one probe per round, run inline on the
//! caller's thread through one SAT session that spans the whole search.
//! Wider rounds probe speculatively on an [`Executor`], each rung on a fresh
//! SAT session seeded with the learnt clauses earlier rounds exported.
//!
//! # Backends
//!
//! The probe engine is pluggable ([`ExactBackend`]): the branch-and-bound
//! search of the `search` module, the CDCL SAT encoder of the `sat_backend`
//! module, or a **portfolio** that dovetails both engines per probe in
//! geometrically escalating step quanta until one of them decides. All
//! engines draw from one shared budget pool measured in *search steps*
//! (branch-and-bound nodes plus SAT decisions/conflicts).

use crate::model::Problem;
use crate::options::ExactOptions;
use crate::outcome::{ExactOutcome, IiProbe, IiVerdict, SolverKind, SpeculationStats};
use crate::sat_backend::{SatProbeSession, SatProbeStats};
use crate::search::{solve_fixed_ii, FixedIiOutcome};
use mvp_core::error::ScheduleError;
use mvp_core::{lifetime, Communication, ModuloScheduler, Schedule, SchedulerOptions};
use mvp_exec::Executor;
use mvp_ir::{mii, Loop};
use mvp_machine::MachineConfig;
use mvp_sat::Lit;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// The engine (or engine combination) driving the fixed-II probes.
#[derive(Clone, Default)]
pub enum ExactBackend {
    /// The branch-and-bound search (the default; every certificate is an
    /// exhausted search tree).
    #[default]
    BranchAndBound,
    /// The CDCL SAT encoder (every certificate is a CNF refutation; every
    /// schedule is decoded back through the constraint kernel and
    /// re-validated by the independent oracle).
    Sat,
    /// Both engines dovetailed per probe: SAT and branch-and-bound take
    /// turns in escalating step quanta until one decides. The verdict and
    /// the step counts are deterministic. The executor sizes the automatic
    /// ladder width and runs its speculative rounds.
    Portfolio(Arc<Executor>),
}

impl ExactBackend {
    /// A portfolio backend whose ladder rounds run on the given executor.
    #[must_use]
    pub fn portfolio(executor: Arc<Executor>) -> Self {
        ExactBackend::Portfolio(executor)
    }

    /// The outcome-level tag for this backend.
    #[must_use]
    pub fn kind(&self) -> SolverKind {
        match self {
            ExactBackend::BranchAndBound => SolverKind::BranchAndBound,
            ExactBackend::Sat => SolverKind::Sat,
            ExactBackend::Portfolio(_) => SolverKind::Portfolio,
        }
    }

    /// The scheduler name stamped on emitted schedules.
    #[must_use]
    pub fn scheduler_name(&self) -> &'static str {
        match self {
            ExactBackend::BranchAndBound => "exact",
            ExactBackend::Sat => "exact-sat",
            ExactBackend::Portfolio(_) => "exact-portfolio",
        }
    }
}

impl fmt::Debug for ExactBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExactBackend::BranchAndBound => f.write_str("BranchAndBound"),
            ExactBackend::Sat => f.write_str("Sat"),
            ExactBackend::Portfolio(e) => write!(f, "Portfolio({} threads)", e.threads()),
        }
    }
}

/// Runs the exact II search for `l` on `machine` with the default
/// branch-and-bound backend (see [`solve_with`]).
///
/// # Errors
///
/// Returns [`ScheduleError::Machine`] for an invalid machine and
/// [`ScheduleError::MissingResources`] when the loop uses a functional-unit
/// kind the machine lacks. An exhausted search range or budget is *not* an
/// error — the [`ExactOutcome`] reports it as a missing schedule with a
/// certified lower bound.
pub fn solve(
    l: &Loop,
    machine: &MachineConfig,
    options: &ExactOptions,
) -> Result<ExactOutcome, ScheduleError> {
    solve_with(l, machine, options, &ExactBackend::BranchAndBound)
}

/// Runs the exact II search with an explicit probe [`ExactBackend`].
///
/// # Errors
///
/// Same contract as [`solve`].
pub fn solve_with(
    l: &Loop,
    machine: &MachineConfig,
    options: &ExactOptions,
    backend: &ExactBackend,
) -> Result<ExactOutcome, ScheduleError> {
    let p = Problem::new(l, machine)?;
    let min_ii = mii::minimum_ii(l, machine);
    if min_ii == u32::MAX {
        return Err(ScheduleError::MissingResources {
            reason: "the loop needs a functional-unit kind the machine does not provide".into(),
        });
    }
    let max_ii = min_ii.saturating_add(options.max_ii_slack);
    Ok(ladder_search(&p, min_ii, max_ii, options, backend))
}

/// Longest learnt clause worth exporting from a retired ladder rung: short
/// clauses propagate the most per byte, and the global prefix filter makes
/// long ones mostly layer-local anyway.
const LADDER_EXPORT_MAX_LEN: usize = 4;
/// At most this many clauses travel out of one rung, keeping the shared
/// pool (and every later rung's import cost) bounded.
const LADDER_EXPORT_CAP: usize = 256;

/// The ladder width of this search. An explicit
/// [`ExactOptions::ladder_width`] wins; *auto* (`0`) sizes the portfolio
/// by its executor and keeps the single-engine backends at width 1,
/// because they are what the differential suites treat as the reference.
fn ladder_width(options: &ExactOptions, backend: &ExactBackend) -> u32 {
    match (options.ladder_width, backend) {
        (0, ExactBackend::Portfolio(e)) => u32::try_from(e.threads()).unwrap_or(u32::MAX),
        (0, _) => 1,
        (w, _) => w,
    }
}

/// The executor a widened search rounds on: the portfolio's own, the
/// process-global one for the single-engine backends.
fn ladder_executor(backend: &ExactBackend) -> Arc<Executor> {
    match backend {
        ExactBackend::Portfolio(e) => Arc::clone(e),
        _ => Executor::global(),
    }
}

/// What one rung brings back to the commit loop.
struct RungResult {
    outcome: FixedIiOutcome,
    solver: SolverKind,
    stats: SatProbeStats,
    /// Branch-and-bound steps this rung consumed.
    nodes: u64,
    /// SAT steps this rung consumed.
    conflicts: u64,
    /// Register-pressure refinement rounds of this rung's SAT probe.
    cegar_rounds: u64,
    /// Global-prefix learnt clauses exported for later rounds (only from a
    /// decided speculative rung).
    exports: Vec<Vec<Lit>>,
    /// Clauses this rung imported from the shared pool.
    imported: u64,
}

impl RungResult {
    /// A rung that observed its cancellation flag before starting.
    fn skipped(backend: &ExactBackend) -> Self {
        Self::of(FixedIiOutcome::Cancelled, backend.kind())
    }

    /// A rung result with no steps, statistics or clause traffic yet.
    fn of(outcome: FixedIiOutcome, solver: SolverKind) -> Self {
        Self {
            outcome,
            solver,
            stats: SatProbeStats::default(),
            nodes: 0,
            conflicts: 0,
            cegar_rounds: 0,
            exports: Vec::new(),
            imported: 0,
        }
    }
}

/// First instalment of a dovetailed portfolio rung, in steps. Small
/// enough that easy rungs (the common case) decide in their first SAT
/// call exactly as a plain SAT rung would.
const DOVETAIL_QUANTUM: u64 = 1 << 12;

/// Quantum multiplier between dovetail cycles. Geometric escalation
/// bounds the stateless branch-and-bound restarts (and the losing
/// engine's spend) by a constant factor of the deciding attempt.
const DOVETAIL_ESCALATION: u64 = 4;

/// One portfolio rung, dovetailed: SAT and branch-and-bound alternate in
/// geometrically escalating step quanta until one of them decides. The
/// SAT session persists across instalments (its learnt clauses carry
/// over, so split budgets cost what one continuous solve would), while
/// the stateless branch-and-bound restarts from scratch each cycle. The
/// quantum schedule is fixed, so the rung's verdict *and* its step counts
/// are a pure function of the problem, the II, the budget and the session
/// state, and the rung's total cost is bounded by a constant factor of the
/// *cheaper* engine's solo cost, so one engine's pathological II (say, a
/// refutation SAT grinds on but branch-and-bound dispatches) cannot sink
/// the search.
fn dovetail_rung(
    p: &Problem<'_, '_>,
    ii: u32,
    options: &ExactOptions,
    session: &mut SatProbeSession<'_, '_, '_>,
    pool: &[Vec<Lit>],
    cancel: Option<&AtomicBool>,
) -> RungResult {
    let mut r = RungResult::of(FixedIiOutcome::Budget, SolverKind::Portfolio);
    let mut quantum = DOVETAIL_QUANTUM;
    let mut first = true;
    loop {
        let remaining = options.node_budget.saturating_sub(r.conflicts + r.nodes);
        if remaining == 0 {
            return r;
        }
        let sat_options = options.with_node_budget(quantum.min(remaining));
        let outcome = if first {
            first = false;
            let (outcome, stats, imported) =
                session.probe_seeded(ii, &sat_options, &mut r.conflicts, cancel, pool);
            r.stats = stats;
            r.imported = imported;
            outcome
        } else {
            session.resume(ii, &sat_options, &mut r.conflicts, cancel)
        };
        if !matches!(outcome, FixedIiOutcome::Budget) {
            r.outcome = outcome;
            r.solver = SolverKind::Sat;
            return r;
        }
        let remaining = options.node_budget.saturating_sub(r.conflicts + r.nodes);
        if remaining == 0 {
            return r;
        }
        let bnb_options = options.with_node_budget(quantum.min(remaining));
        let outcome = solve_fixed_ii(p, ii, &bnb_options, &mut r.nodes, cancel);
        if !matches!(outcome, FixedIiOutcome::Budget) {
            r.outcome = outcome;
            r.solver = SolverKind::BranchAndBound;
            return r;
        }
        quantum = quantum.saturating_mul(DOVETAIL_ESCALATION);
    }
}

/// Runs one rung of the ladder on `backend`, probing SAT through
/// `session` (seeded from `pool` if the session is still fresh) and
/// polling `cancel` when the rung is speculative.
fn run_rung(
    p: &Problem<'_, '_>,
    ii: u32,
    options: &ExactOptions,
    backend: &ExactBackend,
    session: &mut SatProbeSession<'_, '_, '_>,
    pool: &[Vec<Lit>],
    cancel: Option<&AtomicBool>,
) -> RungResult {
    let _span = mvp_trace::span!("exact.probe", ii = ii);
    match backend {
        ExactBackend::BranchAndBound => {
            let mut nodes = 0u64;
            let outcome = solve_fixed_ii(p, ii, options, &mut nodes, cancel);
            RungResult {
                nodes,
                ..RungResult::of(outcome, SolverKind::BranchAndBound)
            }
        }
        ExactBackend::Sat => {
            let mut conflicts = 0u64;
            let (outcome, stats, imported) =
                session.probe_seeded(ii, options, &mut conflicts, cancel, pool);
            RungResult {
                stats,
                conflicts,
                cegar_rounds: session.cegar_rounds(),
                imported,
                ..RungResult::of(outcome, SolverKind::Sat)
            }
        }
        ExactBackend::Portfolio(_) => {
            let r = dovetail_rung(p, ii, options, session, pool, cancel);
            RungResult {
                cegar_rounds: session.cegar_rounds(),
                ..r
            }
        }
    }
}

/// One speculative round: the rungs `iis` probed concurrently on
/// `executor`, each on a private SAT session seeded from `pool`.
///
/// Rungs are cancelled *logically*: a terminal verdict at one rung flags
/// every higher rung of the round, because the commit loop stops at that
/// II. A decided rung exports its short global-prefix learnt clauses for
/// later rounds. Its SAT engine ran to a verdict, or was cut at the
/// dovetail's fixed quantum boundaries, so its learnt set is deterministic
/// even when branch-and-bound decided. A cancelled rung stopped wherever
/// the flag caught it and exports nothing.
fn speculative_round(
    p: &Problem<'_, '_>,
    iis: &[u32],
    options: &ExactOptions,
    backend: &ExactBackend,
    pool: &[Vec<Lit>],
    executor: &Executor,
) -> Vec<RungResult> {
    let _round = mvp_trace::span!("exact.ladder.round", ii = iis[0], rungs = iis.len());
    let cancels: Vec<AtomicBool> = iis.iter().map(|_| AtomicBool::new(false)).collect();
    executor.map_indexed(iis, |idx, &ii| {
        if cancels[idx].load(Ordering::Relaxed) {
            return RungResult::skipped(backend);
        }
        let mut session = SatProbeSession::new(p, options.sat_incremental);
        let mut result = run_rung(
            p,
            ii,
            options,
            backend,
            &mut session,
            pool,
            Some(&cancels[idx]),
        );
        if decided(&result.outcome) {
            result.exports = session.export_shared(LADDER_EXPORT_MAX_LEN, LADDER_EXPORT_CAP);
        }
        if matches!(
            result.outcome,
            FixedIiOutcome::Feasible { .. } | FixedIiOutcome::Budget
        ) {
            for flag in &cancels[idx + 1..] {
                flag.store(true, Ordering::Relaxed);
            }
        }
        result
    })
}

/// The II search: rounds of `width` consecutive candidate IIs (see
/// [`ladder_width`]), committed strictly in II order so the search ends
/// exactly where the invariant says — a contiguous certified-infeasible
/// prefix, then the first feasible II.
///
/// Width 1 probes inline on the caller's thread through one SAT session
/// that spans the whole search: its solver carries clauses and learnt
/// state from probe to probe. Wider rounds run [`speculative_round`].
///
/// Determinism: the committed outcome is a pure function of the problem,
/// the options and the ladder width. A committed rung is never a cancelled
/// one — every rung below the round's first terminal verdict ran to its
/// own verdict with a deterministic budget — so thread count and
/// scheduling only affect how much speculative work was wasted, never what
/// is committed.
///
/// Budget semantics: every rung of a round gets the round-start remainder
/// of the shared step budget. A *decided* rung always commits its verdict
/// — a certificate is sound regardless of what it cost, so speculation
/// never loses an answer (under a binding budget it may even decide an II
/// the sequential search had to give up on, since per-rung sessions pay
/// fresh-encoding costs the sequential search's retained clauses avoid,
/// and vice versa; that is the one place ladder widths may differ, and the
/// verdict contract is scoped to non-binding budgets accordingly). An
/// exhausted rung commits [`IiVerdict::Unknown`] and ends the search, and
/// a rung the budget ran dry before is not logged at all. A rung launched
/// with more than its sequential remainder is charged at most that
/// remainder; the speculative excess lands in
/// [`SpeculationStats::wasted_steps`] instead of silently vanishing.
fn ladder_search(
    p: &Problem<'_, '_>,
    min_ii: u32,
    max_ii: u32,
    options: &ExactOptions,
    backend: &ExactBackend,
) -> ExactOutcome {
    let width = ladder_width(options, backend);
    let executor = (width > 1).then(|| ladder_executor(backend));
    let _span = mvp_trace::span!("exact.ladder.search", min_ii = min_ii, width = width);
    let mut session = SatProbeSession::new(p, options.sat_incremental);
    let mut nodes = 0u64;
    let mut conflicts = 0u64;
    let mut probes: Vec<IiProbe> = Vec::new();
    let mut lower_bound = min_ii;
    let mut chain_unbroken = true;
    let mut schedule = None;
    // Global-prefix learnt clauses exported by committed rungs, seeding
    // every rung of the following rounds.
    let mut pool: Vec<Vec<Lit>> = Vec::new();
    let mut speculation = SpeculationStats::default();
    let mut launched = 0u64;
    let mut next_ii = min_ii;
    let mut ended = false;

    while !ended && next_ii <= max_ii {
        let round_budget = options.node_budget.saturating_sub(nodes + conflicts);
        if round_budget == 0 {
            break;
        }
        let round_hi = next_ii.saturating_add(width - 1).min(max_ii);
        let iis: Vec<u32> = (next_ii..=round_hi).collect();
        // Every rung gets the round-start remainder (not its own
        // sequential remainder, which depends on the still-unknown lower
        // rungs): deterministic, and reconciled at commit time below.
        let probe_options = options.with_node_budget(round_budget);
        let results = match &executor {
            Some(executor) => speculative_round(p, &iis, &probe_options, backend, &pool, executor),
            None => vec![run_rung(
                p,
                next_ii,
                &probe_options,
                backend,
                &mut session,
                &[],
                None,
            )],
        };
        launched += iis.len() as u64;
        speculation.speculative_probes += iis.len() as u64 - 1;

        for (ii, r) in iis.into_iter().zip(results) {
            if ended {
                speculation.wasted_steps += r.nodes + r.conflicts;
                continue;
            }
            let remaining = options.node_budget.saturating_sub(nodes + conflicts);
            if remaining == 0 {
                // The budget ran dry before this II's sequential turn, so
                // the search ends without logging it.
                ended = true;
                speculation.wasted_steps += r.nodes + r.conflicts;
                continue;
            }
            debug_assert!(
                !matches!(r.outcome, FixedIiOutcome::Cancelled),
                "a committed rung is below every cancellation source"
            );
            // A rung launched with more than its sequential remainder is
            // charged at most that remainder, the excess being speculative
            // waste. Any other rung (every rung at width 1) is charged what
            // the sequential search would charge.
            let (nodes_charged, conflicts_charged) = if remaining < round_budget {
                let conflicts_charged = r.conflicts.min(remaining);
                (
                    r.nodes.min(remaining - conflicts_charged),
                    conflicts_charged,
                )
            } else {
                (r.nodes, r.conflicts)
            };
            speculation.wasted_steps += r.nodes + r.conflicts - nodes_charged - conflicts_charged;
            speculation.imported_clauses += r.imported;
            nodes += nodes_charged;
            conflicts += conflicts_charged;
            let verdict = match r.outcome {
                FixedIiOutcome::Feasible { ops, comms } => {
                    schedule = Some(assemble(p, ii, ops, comms, backend.scheduler_name()));
                    IiVerdict::Feasible
                }
                FixedIiOutcome::Infeasible => IiVerdict::Infeasible,
                FixedIiOutcome::Budget | FixedIiOutcome::Cancelled => IiVerdict::Unknown,
            };
            probes.push(IiProbe {
                ii,
                verdict,
                nodes: nodes_charged,
                conflicts: conflicts_charged,
                solver: r.solver,
                reused_clauses: r.stats.reused_clauses,
                kept_learned: r.stats.kept_learned,
                cegar_rounds: r.cegar_rounds,
            });
            mvp_trace::counter_handle!("exact.sat.cegar_rounds", Stable).add(r.cegar_rounds);
            match verdict {
                IiVerdict::Feasible => ended = true,
                IiVerdict::Infeasible => {
                    if chain_unbroken {
                        lower_bound = ii + 1;
                    }
                    pool.extend(r.exports);
                }
                IiVerdict::Unknown => {
                    // Budget exhausted: further probes would get no budget
                    // either; keep the bound certified so far.
                    chain_unbroken = false;
                    ended = true;
                }
            }
        }
        next_ii = round_hi + 1;
    }

    speculation.cancelled_probes = launched - probes.len() as u64;
    mvp_trace::counter_handle!("exact.ladder.speculative_probes", Stable)
        .add(speculation.speculative_probes);
    mvp_trace::counter_handle!("exact.ladder.cancelled_probes", Stable)
        .add(speculation.cancelled_probes);
    mvp_trace::counter_handle!("exact.ladder.imported_clauses", Stable)
        .add(speculation.imported_clauses);
    mvp_trace::counter_handle!("exact.ladder.wasted_steps", Runtime).add(speculation.wasted_steps);
    mvp_trace::instant!("exact.ladder.done", ii = next_ii, width = width);

    let proved_optimal = schedule
        .as_ref()
        .is_some_and(|s: &Schedule| s.ii() == lower_bound && chain_unbroken);
    ExactOutcome {
        min_ii,
        schedule,
        lower_bound,
        proved_optimal,
        nodes,
        conflicts,
        backend: backend.kind(),
        probes,
        speculation,
    }
}

/// Whether a probe outcome is a certificate (rather than an exhausted budget
/// or a cancellation).
fn decided(outcome: &FixedIiOutcome) -> bool {
    matches!(
        outcome,
        FixedIiOutcome::Feasible { .. } | FixedIiOutcome::Infeasible
    )
}

/// Assembles the search solution into a public [`Schedule`], computing the
/// same MaxLive register pressure the validator recomputes.
fn assemble(
    p: &Problem<'_, '_>,
    ii: u32,
    ops: Vec<mvp_core::PlacedOp>,
    comms: Vec<Communication>,
    scheduler_name: &str,
) -> Schedule {
    let pressure = lifetime::register_pressure(p.l, &ops, ii, p.machine.num_clusters());
    let schedule = Schedule::new(
        p.machine.name.clone(),
        scheduler_name,
        ii,
        ops,
        comms,
        pressure,
    );
    debug_assert!(
        mvp_core::validate_schedule(p.l, p.machine, &schedule).is_empty(),
        "the exact scheduler produced an illegal schedule for {}: {:?}",
        p.l.name(),
        mvp_core::validate_schedule(p.l, p.machine, &schedule)
    );
    schedule
}

/// The exact scheduler as a drop-in [`ModuloScheduler`]: schedules with the
/// smallest II its backend can find and certify.
///
/// Unlike [`solve_with`] — which exposes bounds and probe logs — this
/// front-end fits the common pipeline interface: a loop either gets a legal
/// schedule or a [`ScheduleError::NoFeasibleIi`] when the search range or
/// budget is exhausted without finding one.
///
/// # Example
///
/// ```
/// use mvp_exact::ExactScheduler;
/// use mvp_core::ModuloScheduler;
/// use mvp_ir::Loop;
/// use mvp_machine::presets;
///
/// # fn main() -> Result<(), mvp_core::ScheduleError> {
/// let mut b = Loop::builder("demo");
/// let x = b.fp_op("X");
/// let y = b.fp_op("Y");
/// b.data_edge(x, y, 0);
/// let l = b.build().expect("valid loop");
/// let s = ExactScheduler::new().schedule(&l, &presets::two_cluster())?;
/// assert_eq!(s.scheduler_name, "exact");
/// assert_eq!(s.ii(), 1); // one fp op per cluster per cycle: optimal II = 1
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct ExactScheduler {
    options: ExactOptions,
    backend: ExactBackend,
}

impl ExactScheduler {
    /// Creates an exact scheduler with default options and the
    /// branch-and-bound backend.
    #[must_use]
    pub fn new() -> Self {
        Self {
            options: ExactOptions::new(),
            backend: ExactBackend::BranchAndBound,
        }
    }

    /// Creates an exact scheduler with the given options.
    #[must_use]
    pub fn with_options(options: ExactOptions) -> Self {
        Self {
            options,
            backend: ExactBackend::BranchAndBound,
        }
    }

    /// Returns a copy using the given probe backend.
    #[must_use]
    pub fn with_backend(mut self, backend: ExactBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Creates an exact scheduler configured from the shared
    /// [`SchedulerOptions`] (see [`ExactOptions::from_scheduler_options`]).
    #[must_use]
    pub fn from_scheduler_options(options: &SchedulerOptions) -> Self {
        Self {
            options: ExactOptions::from_scheduler_options(options),
            backend: ExactBackend::BranchAndBound,
        }
    }

    /// The search options in use.
    #[must_use]
    pub fn options(&self) -> &ExactOptions {
        &self.options
    }

    /// The probe backend in use.
    #[must_use]
    pub fn backend(&self) -> &ExactBackend {
        &self.backend
    }

    /// Full search outcome (schedule, certified lower bound, probe log).
    ///
    /// # Errors
    ///
    /// Same contract as [`solve`].
    pub fn solve(&self, l: &Loop, machine: &MachineConfig) -> Result<ExactOutcome, ScheduleError> {
        solve_with(l, machine, &self.options, &self.backend)
    }
}

impl ModuloScheduler for ExactScheduler {
    fn name(&self) -> &'static str {
        self.backend.scheduler_name()
    }

    fn schedule(&self, l: &Loop, machine: &MachineConfig) -> Result<Schedule, ScheduleError> {
        let outcome = self.solve(l, machine)?;
        let max_ii = outcome.min_ii.saturating_add(self.options.max_ii_slack);
        outcome.schedule.ok_or(ScheduleError::NoFeasibleIi {
            min_ii: outcome.min_ii,
            max_ii,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvp_core::validate_schedule;
    use mvp_machine::presets;

    fn chain() -> Loop {
        let mut b = Loop::builder("chain");
        let i = b.dimension("I", 64);
        let a = b.auto_array("A", 4096);
        let ld = b.load("LD", b.array_ref(a).stride(i, 8).build());
        let f = b.fp_op("F");
        let st = b.store("ST", b.array_ref(a).stride(i, 8).build());
        b.data_edge(ld, f, 0);
        b.data_edge(f, st, 0);
        b.build().unwrap()
    }

    /// fp X → Y (distance 0), Y → X (distance 2): `min_ii = RecMII = 2`,
    /// but II=2 is only refutable by *search* (window propagation and
    /// resource counts both pass), making it the canonical
    /// budget-exhausts-at-an-intermediate-II fixture. II=3 is feasible.
    fn search_refuted_recurrence() -> Loop {
        let mut b = Loop::builder("slack-rec");
        let x = b.fp_op("X");
        let y = b.fp_op("Y");
        b.data_edge(x, y, 0);
        b.data_edge(y, x, 2);
        b.build().unwrap()
    }

    #[test]
    fn chains_are_proved_optimal_at_the_minimum_ii() {
        let l = chain();
        for machine in [
            presets::unified(),
            presets::two_cluster(),
            presets::four_cluster(),
        ] {
            let outcome = solve(&l, &machine, &ExactOptions::new()).unwrap();
            let s = outcome.schedule.as_ref().expect("feasible");
            assert!(outcome.proved_optimal, "{}", machine.name);
            assert_eq!(s.ii(), mii::minimum_ii(&l, &machine), "{}", machine.name);
            assert_eq!(outcome.lower_bound, s.ii());
            assert_eq!(outcome.exact_ii(), Some(s.ii()));
            assert!(validate_schedule(&l, &machine, s).is_empty());
            assert_eq!(outcome.probes.len(), 1);
            assert_eq!(outcome.backend, SolverKind::BranchAndBound);
            assert_eq!(outcome.conflicts, 0);
        }
    }

    #[test]
    fn budget_exhaustion_returns_a_lower_bound_not_a_panic() {
        let l = chain();
        let machine = presets::two_cluster();
        let outcome = solve(&l, &machine, &ExactOptions::new().with_node_budget(1)).unwrap();
        assert!(outcome.schedule.is_none());
        assert!(!outcome.proved_optimal);
        assert_eq!(outcome.lower_bound, mii::minimum_ii(&l, &machine));
        assert_eq!(outcome.probes.last().unwrap().verdict, IiVerdict::Unknown);
        // ...and the ModuloScheduler front-end turns it into NoFeasibleIi.
        let err = ExactScheduler::with_options(ExactOptions::new().with_node_budget(1))
            .schedule(&l, &machine)
            .unwrap_err();
        assert!(matches!(err, ScheduleError::NoFeasibleIi { .. }));
    }

    #[test]
    fn recurrences_raise_the_certified_bound() {
        // fp X -> Y -> X (distance 1): RecMII = 4; the probes at II 1..3 are
        // skipped entirely because minimum_ii already starts at 4.
        let mut b = Loop::builder("rec");
        let x = b.fp_op("X");
        let y = b.fp_op("Y");
        b.data_edge(x, y, 0);
        b.data_edge(y, x, 1);
        let l = b.build().unwrap();
        let machine = presets::unified();
        let outcome = solve(&l, &machine, &ExactOptions::new()).unwrap();
        assert_eq!(outcome.min_ii, 4);
        assert!(outcome.proved_optimal);
        assert_eq!(outcome.schedule_ii(), Some(4));
    }

    #[test]
    fn scheduler_front_end_matches_solve() {
        let l = chain();
        let machine = presets::two_cluster();
        let scheduler = ExactScheduler::new();
        assert_eq!(scheduler.name(), "exact");
        assert_eq!(scheduler.options(), &ExactOptions::new());
        assert!(matches!(scheduler.backend(), ExactBackend::BranchAndBound));
        let s = scheduler.schedule(&l, &machine).unwrap();
        let outcome = scheduler.solve(&l, &machine).unwrap();
        assert_eq!(Some(s.ii()), outcome.schedule_ii());
        assert_eq!(s.scheduler_name, "exact");
        assert_eq!(s.machine_name, machine.name);
    }

    #[test]
    fn the_sat_backend_agrees_with_branch_and_bound() {
        let loops = [chain(), search_refuted_recurrence()];
        for l in &loops {
            for machine in [
                presets::unified(),
                presets::two_cluster(),
                presets::motivating_example_machine(),
            ] {
                let bnb = solve(l, &machine, &ExactOptions::new()).unwrap();
                let sat =
                    solve_with(l, &machine, &ExactOptions::new(), &ExactBackend::Sat).unwrap();
                assert_eq!(
                    sat.lower_bound,
                    bnb.lower_bound,
                    "{} on {}",
                    l.name(),
                    machine.name
                );
                assert_eq!(
                    sat.proved_optimal,
                    bnb.proved_optimal,
                    "{} on {}",
                    l.name(),
                    machine.name
                );
                assert_eq!(sat.schedule_ii(), bnb.schedule_ii());
                assert_eq!(sat.backend, SolverKind::Sat);
                assert_eq!(sat.nodes, 0, "the SAT backend charges steps, not nodes");
                let s = sat.schedule.as_ref().expect("feasible");
                assert_eq!(s.scheduler_name, "exact-sat");
                assert!(validate_schedule(l, &machine, s).is_empty());
            }
        }
    }

    #[test]
    fn the_portfolio_matches_both_engines_and_records_the_winner() {
        let l = search_refuted_recurrence();
        let machine = presets::motivating_example_machine();
        let backend = ExactBackend::portfolio(Arc::new(Executor::new(2)));
        let outcome = solve_with(&l, &machine, &ExactOptions::new(), &backend).unwrap();
        assert_eq!(outcome.min_ii, 2);
        assert_eq!(outcome.schedule_ii(), Some(3));
        assert!(outcome.proved_optimal);
        assert_eq!(outcome.backend, SolverKind::Portfolio);
        for probe in &outcome.probes {
            assert_ne!(
                probe.solver,
                SolverKind::Portfolio,
                "decided probes name the winning engine"
            );
        }
        let s = outcome.schedule.as_ref().unwrap();
        assert_eq!(s.scheduler_name, "exact-portfolio");
        assert!(validate_schedule(&l, &machine, s).is_empty());
    }

    #[test]
    fn a_single_threaded_portfolio_is_deterministic_and_sat_wins() {
        let l = chain();
        let machine = presets::two_cluster();
        let backend = ExactBackend::portfolio(Arc::new(Executor::new(1)));
        let a = solve_with(&l, &machine, &ExactOptions::new(), &backend).unwrap();
        let b = solve_with(&l, &machine, &ExactOptions::new(), &backend).unwrap();
        assert_eq!(a.nodes, b.nodes);
        assert_eq!(a.conflicts, b.conflicts);
        assert_eq!(a.schedule, b.schedule);
        // SAT takes the first dovetail quantum and decides the probe, so
        // branch-and-bound never gets a turn.
        assert_eq!(a.probes.last().unwrap().solver, SolverKind::Sat);
        assert_eq!(a.nodes, 0);
        let scheduler = ExactScheduler::new().with_backend(backend);
        assert_eq!(scheduler.name(), "exact-portfolio");
        assert_eq!(
            scheduler.schedule(&l, &machine).unwrap().scheduler_name,
            "exact-portfolio"
        );
    }

    #[test]
    fn intermediate_ii_budget_exhaustion_keeps_the_bound_on_every_backend() {
        // The II=2 probe is refuted by search alone; give each backend just
        // enough budget to certify it but not to finish II=3. The outcome
        // must report lower_bound = 3 with no optimum claim, and the gap
        // helper must price a heuristic II=3 schedule at gap 0.
        let l = search_refuted_recurrence();
        let machine = presets::motivating_example_machine();
        for backend in [ExactBackend::BranchAndBound, ExactBackend::Sat] {
            let full = solve_with(&l, &machine, &ExactOptions::new(), &backend).unwrap();
            assert_eq!(full.schedule_ii(), Some(3), "{backend:?}");
            assert!(full.proved_optimal);
            assert_eq!(full.probes[0].verdict, IiVerdict::Infeasible);
            let refute_cost = full.probes[0].nodes + full.probes[0].conflicts;
            assert!(refute_cost > 0, "{backend:?} refuted II=2 by search");

            let starved = solve_with(
                &l,
                &machine,
                &ExactOptions::new().with_node_budget(refute_cost + 1),
                &backend,
            )
            .unwrap();
            assert_eq!(starved.lower_bound, 3, "{backend:?}");
            assert!(starved.schedule.is_none(), "{backend:?}");
            assert!(!starved.proved_optimal, "{backend:?}");
            assert_eq!(starved.probes.last().unwrap().verdict, IiVerdict::Unknown);
            assert_eq!(starved.probes.last().unwrap().ii, 3);
            // The certified bound prices heuristics even without an optimum.
            assert!((starved.optimality_gap_of(3)).abs() < 1e-12);
            assert!((starved.optimality_gap_of(6) - 1.0).abs() < 1e-12);
        }
    }

    /// The committed outcome fields the ladder's verdict contract pins:
    /// everything except step/wallclock provenance.
    fn fingerprint(o: &ExactOutcome) -> (u32, u32, Option<u32>, bool, Vec<(u32, IiVerdict)>) {
        (
            o.min_ii,
            o.lower_bound,
            o.schedule_ii(),
            o.proved_optimal,
            o.probes.iter().map(|p| (p.ii, p.verdict)).collect(),
        )
    }

    #[test]
    fn ladder_widths_follow_the_width_and_backend_rules() {
        let opts = |w| ExactOptions::new().with_ladder_width(w);
        let pool = Arc::new(Executor::new(4));
        let portfolio = ExactBackend::portfolio(Arc::clone(&pool));
        // Auto widens only a multi-thread portfolio, sized by its pool.
        assert_eq!(ladder_width(&opts(0), &ExactBackend::BranchAndBound), 1);
        assert_eq!(ladder_width(&opts(0), &ExactBackend::Sat), 1);
        assert_eq!(ladder_width(&opts(0), &portfolio), 4);
        let solo = ExactBackend::portfolio(Arc::new(Executor::new(1)));
        assert_eq!(ladder_width(&opts(0), &solo), 1);
        // An explicit width wins on every backend.
        assert_eq!(ladder_width(&opts(1), &portfolio), 1);
        assert_eq!(ladder_width(&opts(3), &portfolio), 3);
        assert_eq!(ladder_width(&opts(3), &ExactBackend::Sat), 3);
        // The portfolio rounds on its own pool, the single-engine backends
        // on the process-global executor.
        assert!(Arc::ptr_eq(&ladder_executor(&portfolio), &pool));
        assert!(Arc::ptr_eq(
            &ladder_executor(&ExactBackend::Sat),
            &Executor::global()
        ));
    }

    #[test]
    fn the_ladder_commits_the_sequential_outcome_on_every_backend() {
        let loops = [chain(), search_refuted_recurrence()];
        let machine = presets::motivating_example_machine();
        for l in &loops {
            for backend in [
                ExactBackend::BranchAndBound,
                ExactBackend::Sat,
                ExactBackend::portfolio(Arc::new(Executor::new(2))),
            ] {
                let sequential = solve_with(
                    l,
                    &machine,
                    &ExactOptions::new().with_ladder_width(1),
                    &backend,
                )
                .unwrap();
                for width in [2, 4] {
                    let ladder = solve_with(
                        l,
                        &machine,
                        &ExactOptions::new().with_ladder_width(width),
                        &backend,
                    )
                    .unwrap();
                    assert_eq!(
                        fingerprint(&ladder),
                        fingerprint(&sequential),
                        "{} width {width} on {backend:?}",
                        l.name()
                    );
                    let s = ladder.schedule.as_ref().expect("both fixtures schedule");
                    assert!(validate_schedule(l, &machine, s).is_empty());
                    assert_eq!(s.scheduler_name, backend.scheduler_name());
                }
            }
        }
    }

    #[test]
    fn the_ladder_is_deterministic_across_thread_counts_at_a_fixed_width() {
        let l = search_refuted_recurrence();
        let machine = presets::motivating_example_machine();
        let narrow = ExactBackend::portfolio(Arc::new(Executor::new(1)));
        let wide = ExactBackend::portfolio(Arc::new(Executor::new(4)));
        for width in [1, 2, 4] {
            let options = ExactOptions::new().with_ladder_width(width);
            let a = solve_with(&l, &machine, &options, &narrow).unwrap();
            let b = solve_with(&l, &machine, &options, &wide).unwrap();
            assert_eq!(fingerprint(&a), fingerprint(&b), "width {width}");
            // Committed rungs charge deterministic step counts, so even the
            // provenance matches across thread counts at a fixed width.
            assert_eq!(a.nodes, b.nodes, "width {width}");
            assert_eq!(a.conflicts, b.conflicts, "width {width}");
            assert_eq!(a.probes, b.probes, "width {width}");
        }
    }

    #[test]
    fn ladder_budget_exhaustion_stays_sound_and_within_the_budget() {
        let l = search_refuted_recurrence();
        let machine = presets::motivating_example_machine();
        for backend in [ExactBackend::BranchAndBound, ExactBackend::Sat] {
            // A one-step budget exhausts the first rung: the ladder ends at
            // II=2 with an Unknown, exactly like the sequential search.
            let starved_options = ExactOptions::new().with_node_budget(1).with_ladder_width(4);
            let starved = solve_with(&l, &machine, &starved_options, &backend).unwrap();
            assert_eq!(starved.lower_bound, 2, "{backend:?}");
            assert!(starved.schedule.is_none(), "{backend:?}");
            let last = starved.probes.last().unwrap();
            assert_eq!(last.verdict, IiVerdict::Unknown, "{backend:?}");
            assert_eq!(last.ii, 2, "{backend:?}");

            // Enough budget to refute II=2 but (sequentially) not to finish
            // II=3: the speculative II=3 rung ran with the round budget and
            // may commit a *real* certificate the sequential search had to
            // give up on — never an unsound one — while the charged steps
            // stay clamped to the shared budget either way.
            let full = solve_with(
                &l,
                &machine,
                &ExactOptions::new().with_ladder_width(1),
                &backend,
            )
            .unwrap();
            let refute_cost = full.probes[0].nodes + full.probes[0].conflicts;
            let tight_options = ExactOptions::new()
                .with_node_budget(refute_cost + 1)
                .with_ladder_width(4);
            let tight = solve_with(&l, &machine, &tight_options, &backend).unwrap();
            assert_eq!(tight.lower_bound, 3, "{backend:?}");
            assert_eq!(tight.probes[0].verdict, IiVerdict::Infeasible);
            let last = tight.probes.last().unwrap();
            assert_eq!(last.ii, 3, "{backend:?}");
            match last.verdict {
                IiVerdict::Feasible => {
                    let s = tight.schedule.as_ref().expect("feasible probes schedule");
                    assert_eq!(s.ii(), 3);
                    assert!(validate_schedule(&l, &machine, s).is_empty());
                    assert!(tight.proved_optimal, "{backend:?}");
                }
                IiVerdict::Unknown => {
                    assert!(tight.schedule.is_none(), "{backend:?}");
                    assert!(!tight.proved_optimal, "{backend:?}");
                }
                IiVerdict::Infeasible => panic!("II=3 is feasible on {backend:?}"),
            }
            assert!(
                tight.nodes + tight.conflicts <= refute_cost + 1,
                "{backend:?} charged past the shared budget"
            );
        }
    }
}
