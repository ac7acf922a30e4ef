//! SAT-vs-branch-and-bound differential over the gap corpus, plus the
//! dovetailed portfolio that combines both.
//!
//! Every (loop, machine) point of the [`crate::gap`] corpus is solved three
//! times — pure branch-and-bound, pure CDCL SAT, and the portfolio — and
//! the three outcomes are cross-checked:
//!
//! * two proved optima must be **equal** (the engines implement the same
//!   validator rule set; disagreeing certificates mean one is unsound);
//! * a proved optimum must never undercut the other engine's certified
//!   lower bound, and a certified bound must never exceed an II the other
//!   engine scheduled;
//! * every schedule must pass the independent validator with zero
//!   violations.
//!
//! A violated check panics — the nightly CI job running the `portfolio` bin
//! turns that into a red build rather than shipping a silently-inverted
//! table. The per-row artifact (`portfolio-solvers.csv`) records which
//! engine decided each portfolio's last probe and what each engine paid
//! (branch-and-bound nodes, SAT conflicts, inclusive portfolio steps).

use crate::gap::{backend_of, corpus, machines, GapParams};
use crate::report::Table;
use mvp_exact::{solve_with, ExactOptions, ExactOutcome, IiVerdict, SolverKind};
use mvp_exec::Executor;
use mvp_ir::Loop;
use mvp_machine::MachineConfig;
use std::io::Write as _;
use std::path::Path;

/// One (loop, machine) row of the differential.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortfolioRow {
    /// Machine preset name.
    pub machine: String,
    /// Loop name.
    pub loop_name: String,
    /// The agreed exact II (from the branch-and-bound run; asserted equal
    /// to the SAT run's whenever both proved optimality).
    pub exact_ii: Option<u32>,
    /// Whether *both* standalone engines proved optimality.
    pub both_proved: bool,
    /// The engine whose certificate decided the portfolio's last probe.
    pub winner: SolverKind,
    /// Nodes of the standalone branch-and-bound run.
    pub bnb_nodes: u64,
    /// SAT steps (decisions + conflicts) of the standalone SAT run.
    pub sat_conflicts: u64,
    /// Inclusive step total of the portfolio (both engines' work).
    pub portfolio_steps: u64,
    /// Clauses the standalone SAT run's incremental session reused across
    /// its probes (summed).
    pub sat_reused_clauses: u64,
    /// Learnt clauses the standalone SAT run retained across its probes
    /// (summed).
    pub sat_kept_learned: u64,
}

/// Checks one pair of outcomes for certificate consistency; `label`
/// identifies the second engine in panic messages.
fn cross_check(point: &str, bnb: &ExactOutcome, other: &ExactOutcome, label: &str) {
    if bnb.proved_optimal && other.proved_optimal {
        assert_eq!(
            bnb.schedule_ii(),
            other.schedule_ii(),
            "proved optima disagree on {point}: bnb={:?}, {label}={:?}",
            bnb.schedule_ii(),
            other.schedule_ii()
        );
    }
    for (a, b, a_name, b_name) in [(bnb, other, "bnb", label), (other, bnb, label, "bnb")] {
        if let Some(ii) = a.schedule_ii() {
            assert!(
                ii >= b.lower_bound,
                "{a_name} scheduled II={ii} below {b_name}'s certified bound {} on {point}",
                b.lower_bound
            );
        }
        if a.proved_optimal {
            let optimum = a.schedule_ii().expect("proved outcomes carry a schedule");
            assert!(
                b.lower_bound <= optimum,
                "{b_name} certified bound {} above {a_name}'s proved optimum {optimum} on {point}",
                b.lower_bound
            );
        }
    }
}

/// Runs the three-way differential over `corpus(params)` × `machines()` on
/// the process-wide executor. Panics on any cross-check failure.
#[must_use]
pub fn run(params: &GapParams) -> Vec<PortfolioRow> {
    run_on(params, &Executor::global())
}

/// Runs the differential on an explicit executor (each grid point is one
/// job; a widened portfolio's ladder rounds then run inline on that job's
/// thread).
#[must_use]
pub fn run_on(params: &GapParams, executor: &Executor) -> Vec<PortfolioRow> {
    let options = ExactOptions::new().with_node_budget(params.node_budget);
    let loops = corpus(params);
    let machines = machines();
    let grid: Vec<(&MachineConfig, &Loop)> = machines
        .iter()
        .flat_map(|machine| loops.iter().map(move |l| (machine, l)))
        .collect();
    let rows = executor.map(&grid, |&(machine, l)| {
        let point = format!("{} / {}", l.name(), machine.name);
        let solve = |kind| solve_with(l, machine, &options, &backend_of(kind)).ok();
        let bnb = solve(SolverKind::BranchAndBound)?;
        let sat = solve(SolverKind::Sat).expect("engines agree on solvability");
        let portfolio = solve(SolverKind::Portfolio).expect("engines agree on solvability");
        cross_check(&point, &bnb, &sat, "sat");
        cross_check(&point, &bnb, &portfolio, "portfolio");
        cross_check(&point, &sat, &portfolio, "portfolio");
        for outcome in [&bnb, &sat, &portfolio] {
            if let Some(s) = &outcome.schedule {
                let violations = mvp_core::validate_schedule(l, machine, s);
                assert!(
                    violations.is_empty(),
                    "{} emitted an illegal schedule on {point}: {violations:?}",
                    outcome.backend
                );
            }
        }
        Some(PortfolioRow {
            machine: machine.name.clone(),
            loop_name: l.name().to_string(),
            exact_ii: bnb.schedule_ii(),
            both_proved: bnb.proved_optimal && sat.proved_optimal,
            winner: portfolio
                .probes
                .last()
                .map_or(SolverKind::Portfolio, |p| p.solver),
            bnb_nodes: bnb.nodes,
            sat_conflicts: sat.conflicts,
            portfolio_steps: portfolio.search_steps(),
            sat_reused_clauses: sat.probes.iter().map(|p| p.reused_clauses).sum(),
            sat_kept_learned: sat.probes.iter().map(|p| p.kept_learned).sum(),
        })
    });
    rows.into_iter().flatten().collect()
}

/// Renders the differential as a text table plus a winner tally.
#[must_use]
pub fn render(rows: &[PortfolioRow]) -> String {
    let mut t = Table::new(vec![
        "machine",
        "loop",
        "exact",
        "both-proved",
        "winner",
        "bnb-nodes",
        "sat-steps",
        "portfolio-steps",
    ]);
    for r in rows {
        t.row(vec![
            r.machine.clone(),
            r.loop_name.clone(),
            r.exact_ii.map_or_else(|| "-".into(), |x| x.to_string()),
            if r.both_proved { "yes" } else { "no" }.to_string(),
            r.winner.to_string(),
            r.bnb_nodes.to_string(),
            r.sat_conflicts.to_string(),
            r.portfolio_steps.to_string(),
        ]);
    }
    let sat_wins = rows.iter().filter(|r| r.winner == SolverKind::Sat).count();
    let proved = rows.iter().filter(|r| r.both_proved).count();
    format!(
        "SAT vs branch-and-bound differential (dovetailed portfolio per probe)\n{}\n\
         {} / {} points proved optimal by both engines; SAT won {} of {} points\n",
        t.render(),
        proved,
        rows.len(),
        sat_wins,
        rows.len()
    )
}

/// Serialises the rows as CSV (the `portfolio-solvers.csv` CI artifact).
#[must_use]
pub fn to_csv(rows: &[PortfolioRow]) -> String {
    // The incremental-SAT provenance columns trail the original eight so
    // positional consumers of the artifact keep working.
    let mut out = String::from(
        "machine,loop,exact_ii,both_proved,winner,bnb_nodes,sat_conflicts,portfolio_steps,sat_reused_clauses,sat_kept_learned\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{}\n",
            r.machine,
            r.loop_name,
            r.exact_ii.map_or_else(String::new, |x| x.to_string()),
            r.both_proved,
            r.winner,
            r.bnb_nodes,
            r.sat_conflicts,
            r.portfolio_steps,
            r.sat_reused_clauses,
            r.sat_kept_learned,
        ));
    }
    out
}

/// Writes the CSV to `path`.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_csv(rows: &[PortfolioRow], path: &Path) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(to_csv(rows).as_bytes())
}

/// One (loop, machine) row of the incremental-vs-scratch SAT differential
/// (the `sat-incremental.csv` nightly artifact).
#[derive(Debug, Clone, PartialEq)]
pub struct IncrementalRow {
    /// Machine preset name.
    pub machine: String,
    /// Loop name.
    pub loop_name: String,
    /// The agreed exact II (asserted identical between the two modes).
    pub exact_ii: Option<u32>,
    /// Whether both modes proved optimality (asserted identical).
    pub proved_optimal: bool,
    /// SAT steps (decisions + conflicts) of the incremental run.
    pub incremental_steps: u64,
    /// SAT steps of the from-scratch run.
    pub scratch_steps: u64,
    /// Clauses the incremental session reused across probes (summed).
    pub reused_clauses: u64,
    /// Learnt clauses the incremental session retained across probes
    /// (summed).
    pub kept_learned: u64,
    /// Wall-clock of the incremental solve, in milliseconds.
    pub incremental_ms: f64,
    /// Wall-clock of the from-scratch solve, in milliseconds.
    pub scratch_ms: f64,
}

/// Runs the incremental-vs-scratch SAT differential over the gap corpus on
/// the process-wide executor (see [`run_incremental_on`]).
#[must_use]
pub fn run_incremental(params: &GapParams) -> Vec<IncrementalRow> {
    run_incremental_on(params, &Executor::global())
}

/// Runs the incremental-vs-scratch SAT differential on an explicit
/// executor: every (loop, machine) point of `corpus(params)` × `machines()`
/// is solved twice by `ExactBackend::Sat` — once with the persistent
/// incremental session (the default), once with the
/// `sat_incremental = false` escape hatch that re-encodes per probe — and
/// the two outcomes are pinned consistent. Where both searches fully
/// decide (no probe ran out of budget) everything must be identical:
/// certified bound, schedule II, optimality claim and the per-II verdict
/// sequence. Where the finite step budget cut one search short the probe
/// *sequences* may differ, but no contradiction is tolerated: the two
/// modes must never certify opposite verdicts for the same II, and both
/// schedules must pass the independent validator. Any violation panics (a
/// red nightly build), because the incremental layering is only sound if
/// it proves exactly what a fresh encoding proves.
#[must_use]
pub fn run_incremental_on(params: &GapParams, executor: &Executor) -> Vec<IncrementalRow> {
    let options = ExactOptions::new().with_node_budget(params.node_budget);
    let loops = corpus(params);
    let machines = machines();
    let grid: Vec<(&MachineConfig, &Loop)> = machines
        .iter()
        .flat_map(|machine| loops.iter().map(move |l| (machine, l)))
        .collect();
    let rows = executor.map(&grid, |&(machine, l)| {
        let point = format!("{} / {}", l.name(), machine.name);
        let backend = backend_of(SolverKind::Sat);
        let (incremental, incr_ns) = mvp_trace::timed("sat_incr.incremental", || {
            solve_with(l, machine, &options.with_sat_incremental(true), &backend).ok()
        });
        let (scratch, scr_ns) = mvp_trace::timed("sat_incr.scratch", || {
            solve_with(l, machine, &options.with_sat_incremental(false), &backend).ok()
        });
        let (incremental, scratch) = match (incremental, scratch) {
            (Some(i), Some(s)) => (i, s),
            (None, None) => return None, // loop uses a unit kind the machine lacks
            _ => panic!("incremental and scratch disagree on solvability for {point}"),
        };
        let verdicts = |o: &ExactOutcome| -> Vec<(u32, IiVerdict)> {
            o.probes.iter().map(|p| (p.ii, p.verdict)).collect()
        };
        let decided = |o: &ExactOutcome| o.probes.iter().all(|p| p.verdict != IiVerdict::Unknown);
        if decided(&incremental) && decided(&scratch) {
            // Neither search hit the step budget: the incremental session
            // must be observationally invisible, probe for probe.
            assert_eq!(
                incremental.lower_bound, scratch.lower_bound,
                "certified bounds diverge on {point}"
            );
            assert_eq!(
                incremental.schedule_ii(),
                scratch.schedule_ii(),
                "schedule IIs diverge on {point}"
            );
            assert_eq!(
                incremental.proved_optimal, scratch.proved_optimal,
                "optimality claims diverge on {point}"
            );
            assert_eq!(
                verdicts(&incremental),
                verdicts(&scratch),
                "per-II verdict sequences diverge on {point}"
            );
        } else {
            // The budget cut at least one search short, so the probe
            // sequences may differ — but certificates must never clash.
            for &(ii, vi) in &verdicts(&incremental) {
                for &(sii, vs) in &verdicts(&scratch) {
                    let contradiction = ii == sii
                        && ((vi == IiVerdict::Feasible && vs == IiVerdict::Infeasible)
                            || (vi == IiVerdict::Infeasible && vs == IiVerdict::Feasible));
                    assert!(
                        !contradiction,
                        "opposite certificates at II={ii} on {point}: \
                         incremental={vi}, scratch={vs}"
                    );
                }
            }
        }
        for outcome in [&incremental, &scratch] {
            if let Some(s) = &outcome.schedule {
                let violations = mvp_core::validate_schedule(l, machine, s);
                assert!(
                    violations.is_empty(),
                    "an illegal schedule on {point}: {violations:?}"
                );
            }
        }
        Some(IncrementalRow {
            machine: machine.name.clone(),
            loop_name: l.name().to_string(),
            exact_ii: incremental.schedule_ii(),
            proved_optimal: incremental.proved_optimal,
            incremental_steps: incremental.conflicts,
            scratch_steps: scratch.conflicts,
            reused_clauses: incremental.probes.iter().map(|p| p.reused_clauses).sum(),
            kept_learned: incremental.probes.iter().map(|p| p.kept_learned).sum(),
            incremental_ms: incr_ns as f64 / 1e6,
            scratch_ms: scr_ns as f64 / 1e6,
        })
    });
    rows.into_iter().flatten().collect()
}

/// Corpus-aggregate SAT step totals, `(incremental, scratch)`. The nightly
/// gate requires the first to stay at or below the second — clause and
/// learnt-state retention must never make the whole corpus *more*
/// expensive than re-encoding every probe from scratch.
#[must_use]
pub fn incremental_totals(rows: &[IncrementalRow]) -> (u64, u64) {
    (
        rows.iter().map(|r| r.incremental_steps).sum(),
        rows.iter().map(|r| r.scratch_steps).sum(),
    )
}

/// Renders the incremental differential as a text table plus the aggregate
/// step comparison.
#[must_use]
pub fn render_incremental(rows: &[IncrementalRow]) -> String {
    let mut t = Table::new(vec![
        "machine",
        "loop",
        "exact",
        "incr-steps",
        "scratch-steps",
        "reused",
        "kept-learned",
    ]);
    for r in rows {
        t.row(vec![
            r.machine.clone(),
            r.loop_name.clone(),
            r.exact_ii.map_or_else(|| "-".into(), |x| x.to_string()),
            r.incremental_steps.to_string(),
            r.scratch_steps.to_string(),
            r.reused_clauses.to_string(),
            r.kept_learned.to_string(),
        ]);
    }
    let (incr, scratch) = incremental_totals(rows);
    format!(
        "Incremental vs from-scratch SAT over the gap corpus\n{}\n\
         corpus totals: incremental {incr} steps vs scratch {scratch} steps ({})\n",
        t.render(),
        crate::report::pct_faster(scratch, incr.max(1)),
    )
}

/// Serialises the incremental rows as CSV (the `sat-incremental.csv` CI
/// artifact).
#[must_use]
pub fn incremental_to_csv(rows: &[IncrementalRow]) -> String {
    let mut out = String::from(
        "machine,loop,exact_ii,proved_optimal,incremental_steps,scratch_steps,reused_clauses,kept_learned,incremental_ms,scratch_ms\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{:.3},{:.3}\n",
            r.machine,
            r.loop_name,
            r.exact_ii.map_or_else(String::new, |x| x.to_string()),
            r.proved_optimal,
            r.incremental_steps,
            r.scratch_steps,
            r.reused_clauses,
            r.kept_learned,
            r.incremental_ms,
            r.scratch_ms,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_differential_agrees_on_a_small_corpus() {
        let params = GapParams {
            generated_loops: 2,
            max_ops: 6,
            ..GapParams::default()
        };
        let rows = run(&params);
        assert!(!rows.is_empty());
        // Small loops under the default budget: both engines prove every
        // point, so the cross-checks inside run() were all exercised for
        // real, and every portfolio probe was decided by a named engine.
        for r in &rows {
            assert!(r.both_proved, "{} / {}", r.loop_name, r.machine);
            assert_ne!(r.winner, SolverKind::Portfolio);
        }
        let fig3 = rows
            .iter()
            .find(|r| r.loop_name == "motivating" && r.machine == "motivating-2-cluster")
            .expect("fig3 row present");
        assert_eq!(fig3.exact_ii, Some(3));
        assert!(
            fig3.portfolio_steps < fig3.bnb_nodes,
            "the portfolio ({} steps) must retire the {}-node branch-and-bound probe",
            fig3.portfolio_steps,
            fig3.bnb_nodes
        );
        let csv = to_csv(&rows);
        assert_eq!(csv.lines().count(), rows.len() + 1);
        assert!(render(&rows).contains("SAT won"));
    }
}
