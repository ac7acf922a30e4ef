//! The outer II search and the [`ModuloScheduler`] front-end.
//!
//! [`solve`] probes candidate initiation intervals upwards from
//! `max(ResMII, RecMII)`. Each probe ends in one of three ways
//! ([`IiVerdict`]): *feasible* (a legal schedule is assembled and the search
//! stops), *infeasible* (the lower bound advances past this II), or
//! *unknown* (the budget ran out; the search stops and reports the bound
//! certified so far). The result is either a provably optimal schedule, a
//! schedule plus a smaller certified lower bound, or a lower bound alone.
//!
//! # One commit loop
//!
//! The probes run one at a time, strictly in II order, on the caller's
//! thread. Each SAT probe encodes its own formula and drops it once the
//! probe is decided; nothing carries over from one II to the next.
//!
//! # Backends
//!
//! The probe engine is pluggable ([`ExactBackend`]): the branch-and-bound
//! search of the `search` module, the CDCL SAT encoder of the `sat_backend`
//! module, or a **portfolio** that dovetails both engines per probe in
//! geometrically escalating step quanta until one of them decides. All
//! engines draw from one shared budget pool measured in *search steps*
//! (branch-and-bound nodes plus SAT decisions/conflicts).

use crate::options::ExactOptions;
use crate::outcome::{ExactOutcome, IiProbe, IiVerdict};
use crate::sat_backend::SatProbeSession;
use crate::search::{solve_fixed_ii, FixedIiOutcome};
use mvp_core::error::ScheduleError;
use mvp_core::{lifetime, Communication, ModuloScheduler, Schedule};
use mvp_ir::{mii, Loop};
use mvp_machine::MachineConfig;
use mvp_resmodel::ResModel;
use std::fmt;

/// The engine (or engine combination) driving the fixed-II probes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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
    /// the step counts are deterministic.
    Portfolio,
}

impl ExactBackend {
    /// The scheduler name stamped on emitted schedules.
    #[must_use]
    pub fn scheduler_name(self) -> &'static str {
        match self {
            ExactBackend::BranchAndBound => "exact",
            ExactBackend::Sat => "exact-sat",
            ExactBackend::Portfolio => "exact-portfolio",
        }
    }
}

/// The short stable label of CSV columns: `bnb`, `sat` or `portfolio`.
impl fmt::Display for ExactBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ExactBackend::BranchAndBound => "bnb",
            ExactBackend::Sat => "sat",
            ExactBackend::Portfolio => "portfolio",
        })
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
    let p = ResModel::new(l, machine)?;
    let min_ii = mii::minimum_ii(l, machine);
    if min_ii == u32::MAX {
        return Err(ScheduleError::MissingResources {
            reason: "the loop needs a functional-unit kind the machine does not provide".into(),
        });
    }
    let max_ii = min_ii.saturating_add(options.max_ii_slack);
    Ok(ii_search(&p, min_ii, max_ii, options, *backend))
}

/// What one probe brings back to the commit loop.
struct ProbeResult {
    outcome: FixedIiOutcome,
    solver: ExactBackend,
    /// Branch-and-bound steps this probe consumed.
    nodes: u64,
    /// SAT steps this probe consumed.
    conflicts: u64,
    /// Register-pressure refinement rounds of this probe's SAT engine.
    cegar_rounds: u64,
}

impl ProbeResult {
    /// A probe result with no steps or statistics yet.
    fn of(outcome: FixedIiOutcome, solver: ExactBackend) -> Self {
        Self {
            outcome,
            solver,
            nodes: 0,
            conflicts: 0,
            cegar_rounds: 0,
        }
    }
}

/// First instalment of a dovetailed portfolio probe, in steps. Small
/// enough that easy probes (the common case) decide in their first SAT
/// call exactly as a plain SAT probe would.
const DOVETAIL_QUANTUM: u64 = 1 << 12;

/// Quantum multiplier between dovetail cycles. Geometric escalation
/// bounds the stateless branch-and-bound restarts (and the losing
/// engine's spend) by a constant factor of the deciding attempt.
const DOVETAIL_ESCALATION: u64 = 4;

/// One portfolio probe, dovetailed: SAT and branch-and-bound alternate in
/// geometrically escalating step quanta until one of them decides. The
/// SAT session persists across instalments (its learnt clauses carry
/// over, so split budgets cost what one continuous solve would), while
/// the stateless branch-and-bound restarts from scratch each cycle. The
/// quantum schedule is fixed, so the probe's verdict *and* its step counts
/// are a pure function of the problem, the II and the budget, and the
/// probe's total cost is bounded by a constant factor of the
/// *cheaper* engine's solo cost, so one engine's pathological II (say, a
/// refutation SAT grinds on but branch-and-bound dispatches) cannot sink
/// the search.
fn dovetail_probe(
    p: &ResModel<'_, '_>,
    ii: u32,
    options: &ExactOptions,
    session: &mut SatProbeSession<'_, '_, '_>,
) -> ProbeResult {
    let mut r = ProbeResult::of(FixedIiOutcome::Budget, ExactBackend::Portfolio);
    let mut quantum = DOVETAIL_QUANTUM;
    loop {
        let remaining = options.node_budget.saturating_sub(r.conflicts + r.nodes);
        if remaining == 0 {
            return r;
        }
        let sat_options = options.with_node_budget(quantum.min(remaining));
        let outcome = session.solve(&sat_options, &mut r.conflicts);
        if !matches!(outcome, FixedIiOutcome::Budget) {
            r.outcome = outcome;
            r.solver = ExactBackend::Sat;
            return r;
        }
        let remaining = options.node_budget.saturating_sub(r.conflicts + r.nodes);
        if remaining == 0 {
            return r;
        }
        let bnb_options = options.with_node_budget(quantum.min(remaining));
        let outcome = solve_fixed_ii(p, ii, &bnb_options, &mut r.nodes);
        if !matches!(outcome, FixedIiOutcome::Budget) {
            r.outcome = outcome;
            r.solver = ExactBackend::BranchAndBound;
            return r;
        }
        quantum = quantum.saturating_mul(DOVETAIL_ESCALATION);
    }
}

/// Runs one probe on `backend`. A SAT or portfolio probe encodes its own
/// formula in a fresh session, dropped when the probe returns.
fn run_probe(
    p: &ResModel<'_, '_>,
    ii: u32,
    options: &ExactOptions,
    backend: ExactBackend,
) -> ProbeResult {
    let _span = mvp_trace::span!("exact.probe", ii = ii);
    match backend {
        ExactBackend::BranchAndBound => {
            let mut nodes = 0u64;
            let outcome = solve_fixed_ii(p, ii, options, &mut nodes);
            ProbeResult {
                nodes,
                ..ProbeResult::of(outcome, ExactBackend::BranchAndBound)
            }
        }
        ExactBackend::Sat => {
            let Some(mut session) = SatProbeSession::new(p, ii, options) else {
                return ProbeResult::of(FixedIiOutcome::Infeasible, ExactBackend::Sat);
            };
            let mut conflicts = 0u64;
            let outcome = session.solve(options, &mut conflicts);
            ProbeResult {
                conflicts,
                cegar_rounds: session.cegar_rounds(),
                ..ProbeResult::of(outcome, ExactBackend::Sat)
            }
        }
        ExactBackend::Portfolio => {
            // A certificate that refutes the II decides the probe before
            // either engine runs; it is the SAT side's certificate check.
            let Some(mut session) = SatProbeSession::new(p, ii, options) else {
                return ProbeResult::of(FixedIiOutcome::Infeasible, ExactBackend::Sat);
            };
            let r = dovetail_probe(p, ii, options, &mut session);
            ProbeResult {
                cegar_rounds: session.cegar_rounds(),
                ..r
            }
        }
    }
}

/// The II search: one probe per candidate II, upwards from `min_ii`, so
/// the search ends exactly where the invariant says — a contiguous
/// certified-infeasible prefix, then the first feasible II.
///
/// Every probe gets what is left of the shared step budget. An exhausted
/// probe commits [`IiVerdict::Unknown`] and ends the search; once the
/// budget is spent no further II is probed or logged.
fn ii_search(
    p: &ResModel<'_, '_>,
    min_ii: u32,
    max_ii: u32,
    options: &ExactOptions,
    backend: ExactBackend,
) -> ExactOutcome {
    let _span = mvp_trace::span!("exact.search", min_ii = min_ii);
    let mut nodes = 0u64;
    let mut conflicts = 0u64;
    let mut probes: Vec<IiProbe> = Vec::new();
    let mut lower_bound = min_ii;
    let mut schedule = None;

    for ii in min_ii..=max_ii {
        let remaining = options.node_budget.saturating_sub(nodes + conflicts);
        if remaining == 0 {
            break;
        }
        let r = run_probe(p, ii, &options.with_node_budget(remaining), backend);
        nodes += r.nodes;
        conflicts += r.conflicts;
        let verdict = match r.outcome {
            FixedIiOutcome::Feasible { ops, comms } => {
                schedule = Some(assemble(p, ii, ops, comms, backend.scheduler_name()));
                IiVerdict::Feasible
            }
            FixedIiOutcome::Infeasible => IiVerdict::Infeasible,
            FixedIiOutcome::Budget => IiVerdict::Unknown,
        };
        probes.push(IiProbe {
            ii,
            verdict,
            nodes: r.nodes,
            conflicts: r.conflicts,
            solver: r.solver,
            cegar_rounds: r.cegar_rounds,
        });
        mvp_trace::counter_handle!("exact.sat.cegar_rounds").add(r.cegar_rounds);
        match verdict {
            IiVerdict::Infeasible => lower_bound = ii + 1,
            // A schedule ends the search; so does an exhausted budget,
            // which keeps the bound certified so far.
            IiVerdict::Feasible | IiVerdict::Unknown => break,
        }
    }

    // Every II below the schedule's was refuted, so a schedule is optimal.
    let proved_optimal = schedule
        .as_ref()
        .is_some_and(|s: &Schedule| s.ii() == lower_bound);
    ExactOutcome {
        min_ii,
        schedule,
        lower_bound,
        proved_optimal,
        nodes,
        conflicts,
        backend,
        probes,
    }
}

/// Assembles the search solution into a public [`Schedule`], computing the
/// same MaxLive register pressure the validator recomputes.
fn assemble(
    p: &ResModel<'_, '_>,
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
/// smallest II its backend can find and certify, under the default
/// [`ExactOptions`].
///
/// Unlike [`solve_with`] — which takes options and exposes bounds and probe
/// logs — this front-end fits the common pipeline interface: a loop either
/// gets a legal schedule or a [`ScheduleError::NoFeasibleIi`] when the
/// search range or budget is exhausted without finding one.
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
    backend: ExactBackend,
}

impl ExactScheduler {
    /// Creates an exact scheduler with the branch-and-bound backend.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a copy using the given probe backend.
    #[must_use]
    pub fn with_backend(mut self, backend: ExactBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Full search outcome (schedule, certified lower bound, probe log).
    ///
    /// # Errors
    ///
    /// Same contract as [`solve`].
    pub fn solve(&self, l: &Loop, machine: &MachineConfig) -> Result<ExactOutcome, ScheduleError> {
        solve_with(l, machine, &ExactOptions::new(), &self.backend)
    }
}

impl ModuloScheduler for ExactScheduler {
    fn name(&self) -> &'static str {
        self.backend.scheduler_name()
    }

    fn schedule(&self, l: &Loop, machine: &MachineConfig) -> Result<Schedule, ScheduleError> {
        self.solve(l, machine)?.into_schedule()
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
            assert_eq!(outcome.backend, ExactBackend::BranchAndBound);
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
        // ...and the schedule conversion turns it into NoFeasibleIi.
        let err = solve(&l, &machine, &ExactOptions::new().with_node_budget(1))
            .unwrap()
            .into_schedule()
            .unwrap_err();
        assert!(matches!(err, ScheduleError::NoFeasibleIi { .. }));
    }

    #[test]
    fn an_exhausted_budget_reports_the_last_probed_ii() {
        // The budget runs out in the first probe, so the largest II the
        // search attempted is the minimum II, not the end of the range.
        let (l, _) = mvp_workloads::motivating_loop(&mvp_workloads::MotivatingParams::default());
        let machine = presets::motivating_example_machine();
        let min_ii = mii::minimum_ii(&l, &machine);
        for backend in [
            ExactBackend::BranchAndBound,
            ExactBackend::Sat,
            ExactBackend::Portfolio,
        ] {
            let err = solve_with(
                &l,
                &machine,
                &ExactOptions::new().with_node_budget(1),
                &backend,
            )
            .unwrap()
            .into_schedule()
            .unwrap_err();
            assert_eq!(
                err,
                ScheduleError::NoFeasibleIi {
                    min_ii,
                    max_ii: min_ii
                },
                "{backend:?}"
            );
        }
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
    fn backends_print_their_labels() {
        assert_eq!(ExactBackend::BranchAndBound.to_string(), "bnb");
        assert_eq!(ExactBackend::Sat.to_string(), "sat");
        assert_eq!(ExactBackend::Portfolio.to_string(), "portfolio");
    }

    #[test]
    fn scheduler_front_end_matches_solve() {
        let l = chain();
        let machine = presets::two_cluster();
        let scheduler = ExactScheduler::new();
        assert_eq!(scheduler.name(), "exact");
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
                assert_eq!(sat.backend, ExactBackend::Sat);
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
        let outcome =
            solve_with(&l, &machine, &ExactOptions::new(), &ExactBackend::Portfolio).unwrap();
        assert_eq!(outcome.min_ii, 2);
        assert_eq!(outcome.schedule_ii(), Some(3));
        assert!(outcome.proved_optimal);
        assert_eq!(outcome.backend, ExactBackend::Portfolio);
        for probe in &outcome.probes {
            assert_ne!(
                probe.solver,
                ExactBackend::Portfolio,
                "decided probes name the winning engine"
            );
        }
        let s = outcome.schedule.as_ref().unwrap();
        assert_eq!(s.scheduler_name, "exact-portfolio");
        assert!(validate_schedule(&l, &machine, s).is_empty());
    }

    #[test]
    fn the_portfolio_is_deterministic_and_sat_wins() {
        let l = chain();
        let machine = presets::two_cluster();
        let backend = ExactBackend::Portfolio;
        let a = solve_with(&l, &machine, &ExactOptions::new(), &backend).unwrap();
        let b = solve_with(&l, &machine, &ExactOptions::new(), &backend).unwrap();
        assert_eq!(a.nodes, b.nodes);
        assert_eq!(a.conflicts, b.conflicts);
        assert_eq!(a.schedule, b.schedule);
        // SAT takes the first dovetail quantum and decides the probe, so
        // branch-and-bound never gets a turn.
        assert_eq!(a.probes.last().unwrap().solver, ExactBackend::Sat);
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
        for backend in [
            ExactBackend::BranchAndBound,
            ExactBackend::Sat,
            ExactBackend::Portfolio,
        ] {
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
}
