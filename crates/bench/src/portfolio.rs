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
//! A violated check panics — the per-push CI step running the `portfolio` bin
//! turns that into a red build rather than shipping a silently-inverted
//! table. The per-row artifact (`portfolio-solvers.csv`) records which
//! engine decided each portfolio's last probe and what each engine paid
//! (branch-and-bound nodes, SAT conflicts, inclusive portfolio steps).

use crate::gap::{map_points, GapParams};
use crate::report::{opt_cell, Table};
use mvp_exact::{solve_with, ExactBackend, ExactOptions, ExactOutcome, SolverKind};
use mvp_exec::Executor;

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

/// Runs the three-way differential over `corpus(params)` × `machines()`,
/// one executor job per grid point. Panics on any cross-check failure.
#[must_use]
pub fn run(params: &GapParams, executor: &Executor) -> Vec<PortfolioRow> {
    let options = ExactOptions::new().with_node_budget(params.node_budget);
    map_points(params, executor, |machine, l| {
        let point = format!("{} / {}", l.name(), machine.name);
        let solve = |backend| solve_with(l, machine, &options, &backend).ok();
        let bnb = solve(ExactBackend::BranchAndBound)?;
        let sat = solve(ExactBackend::Sat).expect("engines agree on solvability");
        let portfolio = solve(ExactBackend::Portfolio).expect("engines agree on solvability");
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
        })
    })
}

/// The rows as the `portfolio-solvers.csv` table.
#[must_use]
pub fn table(rows: &[PortfolioRow]) -> Table {
    let mut t = Table::new(vec![
        "machine",
        "loop",
        "exact_ii",
        "both_proved",
        "winner",
        "bnb_nodes",
        "sat_conflicts",
        "portfolio_steps",
    ]);
    for r in rows {
        t.row(vec![
            r.machine.clone(),
            r.loop_name.clone(),
            opt_cell(r.exact_ii),
            r.both_proved.to_string(),
            r.winner.to_string(),
            r.bnb_nodes.to_string(),
            r.sat_conflicts.to_string(),
            r.portfolio_steps.to_string(),
        ]);
    }
    t
}

/// Renders the differential as a text table plus a winner tally.
#[must_use]
pub fn render(rows: &[PortfolioRow]) -> String {
    let sat_wins = rows.iter().filter(|r| r.winner == SolverKind::Sat).count();
    let proved = rows.iter().filter(|r| r.both_proved).count();
    format!(
        "SAT vs branch-and-bound differential (dovetailed portfolio per probe)\n{}\n\
         {} / {} points proved optimal by both engines; SAT won {} of {} points\n",
        table(rows).render(),
        proved,
        rows.len(),
        sat_wins,
        rows.len()
    )
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
        let rows = run(&params, &Executor::global());
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
        let csv = table(&rows).to_csv();
        assert_eq!(csv.lines().count(), rows.len() + 1);
        assert_eq!(
            csv.lines().next().unwrap(),
            "machine,loop,exact_ii,both_proved,winner,bnb_nodes,sat_conflicts,\
             portfolio_steps"
        );
        assert!(render(&rows).contains("SAT won"));
    }
}
