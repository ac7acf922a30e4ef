//! Optimality-gap tables: heuristic II vs the exact scheduler's certified
//! bound, per machine preset.
//!
//! The paper compares its schedulers only against each other; this driver
//! adds the third axis the exact-scheduling literature asks for: *how far
//! from optimal* does each heuristic land? For every (loop, machine) pair
//! the exact branch-and-bound scheduler of `mvp-exact` contributes either a
//! proven-optimal II or a certified lower bound, and the heuristic IIs are
//! reported relative to it. The corpus is the Figure-3 motivating loop plus
//! a batch of small seeded generator loops (small enough that the exact
//! search usually proves optimality within its node budget).

use crate::report::Table;
use mvp_core::{BaselineScheduler, ModuloScheduler, RmcaScheduler};
use mvp_exact::{solve_with, ExactBackend, ExactOptions, SolverKind};
use mvp_exec::Executor;
use mvp_ir::Loop;
use mvp_machine::{presets, MachineConfig};
use mvp_workloads::generator::{GeneratorConfig, LoopGenerator};
use mvp_workloads::motivating::{motivating_loop, MotivatingParams};
use mvp_workloads::rng::SplitMix64;
use std::io::Write as _;
use std::path::Path;

/// Parameters of the gap experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GapParams {
    /// Base seed of the generated part of the corpus.
    pub seed: u64,
    /// Number of generated loops.
    pub generated_loops: usize,
    /// Operation-count cap of the generated loops (kept small so the exact
    /// search can usually prove optimality).
    pub max_ops: usize,
    /// Node budget of the exact search, per loop.
    pub node_budget: u64,
    /// The exact engine pricing the rows (default: branch-and-bound, which
    /// keeps the historical tables and the Figure-3 node-count pins
    /// byte-identical). [`SolverKind::Portfolio`] dovetails both engines,
    /// its ladder sized by the process-wide executor.
    pub solver: SolverKind,
}

impl Default for GapParams {
    fn default() -> Self {
        Self {
            seed: 0x6A9_0BEE,
            generated_loops: 8,
            // Raised from 10 once the exact search gained its time-shift
            // dominance rule (anchor cycle normalized to 0), which makes
            // the per-probe node cost of the larger bodies affordable.
            max_ops: 12,
            node_budget: ExactOptions::new().node_budget,
            solver: SolverKind::BranchAndBound,
        }
    }
}

/// The [`ExactBackend`] a [`SolverKind`] selection names. The portfolio's
/// automatic ladder width is the process-wide executor's thread count.
#[must_use]
pub fn backend_of(solver: SolverKind) -> ExactBackend {
    match solver {
        SolverKind::BranchAndBound => ExactBackend::BranchAndBound,
        SolverKind::Sat => ExactBackend::Sat,
        SolverKind::Portfolio => ExactBackend::portfolio(Executor::global()),
    }
}

/// One (loop, machine) row of the gap table.
#[derive(Debug, Clone, PartialEq)]
pub struct GapRow {
    /// Machine preset name.
    pub machine: String,
    /// Loop name.
    pub loop_name: String,
    /// Operations in the loop.
    pub num_ops: usize,
    /// `max(ResMII, RecMII)` — the classical lower bound.
    pub min_ii: u32,
    /// The exact search's certified lower bound (≥ `min_ii`).
    pub lower_bound: u32,
    /// II of the exact schedule when one was found.
    pub exact_ii: Option<u32>,
    /// Whether the exact schedule is proven optimal.
    pub proved_optimal: bool,
    /// Branch-and-bound search nodes the exact probes consumed.
    pub nodes: u64,
    /// SAT steps (decisions + conflicts) the exact probes consumed.
    pub conflicts: u64,
    /// The exact engine that priced the row.
    pub solver: SolverKind,
    /// Baseline scheduler II (`None` = II search exhausted).
    pub baseline_ii: Option<u32>,
    /// RMCA scheduler II (`None` = II search exhausted).
    pub rmca_ii: Option<u32>,
    /// Wall-clock of the two heuristic schedules, in milliseconds. Timing
    /// columns are the only thread-count-dependent part of a row; compare
    /// rows through [`GapRow::without_timing`] when checking determinism.
    pub schedule_ms: f64,
    /// Wall-clock of the exact solve pricing the row, in milliseconds.
    pub oracle_ms: f64,
    /// Clauses the incremental SAT session reused across the row's probes
    /// (summed over probes; 0 for pure branch-and-bound rows).
    pub sat_reused_clauses: u64,
    /// Learnt clauses the incremental SAT session retained across the
    /// row's probes (summed over probes; 0 for pure branch-and-bound rows).
    pub sat_kept_learned: u64,
}

impl GapRow {
    /// Relative gap of a heuristic II against the certified bound (the same
    /// formula as `ExactOutcome::optimality_gap_of`, so the bench artifact
    /// and the pipeline's `LoopReport::optimality_gap` can never diverge).
    #[must_use]
    pub fn gap_of(&self, heuristic_ii: Option<u32>) -> Option<f64> {
        let bound = self.lower_bound.max(1);
        heuristic_ii.map(|ii| (f64::from(ii) - f64::from(bound)) / f64::from(bound))
    }

    /// Gap of the baseline scheduler.
    #[must_use]
    pub fn baseline_gap(&self) -> Option<f64> {
        self.gap_of(self.baseline_ii)
    }

    /// Gap of the RMCA scheduler.
    #[must_use]
    pub fn rmca_gap(&self) -> Option<f64> {
        self.gap_of(self.rmca_ii)
    }

    /// The row with its wall-clock columns zeroed: everything left is a
    /// pure function of (loop, machine, solver) and must be byte-identical
    /// at any executor width.
    #[must_use]
    pub fn without_timing(&self) -> GapRow {
        GapRow {
            schedule_ms: 0.0,
            oracle_ms: 0.0,
            ..self.clone()
        }
    }
}

/// The gap corpus: the Figure-3 motivating loop, the SPECfp-flavoured
/// small-loop subset (tomcatv-style residual/relaxation, swim's flux
/// stencil, mgrid's reduction — real loop shapes the oracle can decide
/// quickly), plus small generated loops.
#[must_use]
pub fn corpus(params: &GapParams) -> Vec<Loop> {
    let mut loops = vec![motivating_loop(&MotivatingParams::default()).0];
    loops.extend(mvp_workloads::kernels::specfp_small::gap_subset());
    let cfg = GeneratorConfig {
        min_ops: 3,
        max_ops: params.max_ops.max(3),
        ..GeneratorConfig::default()
    };
    // One generator for the whole batch: loops get distinct names
    // (`random_1` …) and the sequence stays deterministic per seed.
    let mut g = LoopGenerator::new(cfg, SplitMix64::seed_from_u64(params.seed).next_u64());
    for _ in 0..params.generated_loops {
        loops.push(g.generate());
    }
    loops
}

/// The machine presets the gap table sweeps: the three Table-1
/// configurations plus the Section-3 motivating-example machine.
#[must_use]
pub fn machines() -> Vec<MachineConfig> {
    vec![
        presets::unified(),
        presets::two_cluster(),
        presets::four_cluster(),
        presets::motivating_example_machine(),
    ]
}

/// Runs the gap experiment over `corpus(params)` × `machines()` on the
/// process-wide [`Executor`].
#[must_use]
pub fn run(params: &GapParams) -> Vec<GapRow> {
    run_on(params, &Executor::global())
}

/// Runs the gap experiment on an explicit executor.
///
/// Every (loop, machine) point is one executor job carrying its own
/// exact-search invocation under its own node budget — suite-scale gap
/// tables are batches of independent solver calls, exactly as the
/// SMT/SAT-based exact-scheduling literature treats them. The row order
/// (and therefore the rendered table and the CSV, byte for byte) is
/// independent of the executor's thread count.
#[must_use]
pub fn run_on(params: &GapParams, executor: &Executor) -> Vec<GapRow> {
    let options = ExactOptions::new().with_node_budget(params.node_budget);
    let backend = backend_of(params.solver);
    let loops = corpus(params);
    let machines = machines();
    let grid: Vec<(&MachineConfig, &Loop)> = machines
        .iter()
        .flat_map(|machine| loops.iter().map(move |l| (machine, l)))
        .collect();
    let rows = executor.map(&grid, |&(machine, l)| {
        let (outcome, oracle_ns) =
            mvp_trace::timed("gap.oracle", || solve_with(l, machine, &options, &backend));
        let Ok(outcome) = outcome else {
            return None; // loop uses a unit kind the machine lacks
        };
        let heuristic_ii = |s: Result<mvp_core::Schedule, _>| s.ok().map(|s| s.ii());
        let (heuristics, schedule_ns) = mvp_trace::timed("gap.schedule", || {
            (
                heuristic_ii(BaselineScheduler::new().schedule(l, machine)),
                heuristic_ii(RmcaScheduler::new().schedule(l, machine)),
            )
        });
        let row = GapRow {
            machine: machine.name.clone(),
            loop_name: l.name().to_string(),
            num_ops: l.num_ops(),
            min_ii: outcome.min_ii,
            lower_bound: outcome.lower_bound,
            exact_ii: outcome.schedule_ii(),
            proved_optimal: outcome.proved_optimal,
            nodes: outcome.nodes,
            conflicts: outcome.conflicts,
            solver: params.solver,
            baseline_ii: heuristics.0,
            rmca_ii: heuristics.1,
            schedule_ms: schedule_ns as f64 / 1e6,
            oracle_ms: oracle_ns as f64 / 1e6,
            sat_reused_clauses: outcome.probes.iter().map(|p| p.reused_clauses).sum(),
            sat_kept_learned: outcome.probes.iter().map(|p| p.kept_learned).sum(),
        };
        // A hard assert, not a debug_assert: the gap bin runs in release
        // mode in CI, and a heuristic beating a "certified" bound means
        // an unsound exact search — the artifact must fail, not ship
        // inverted gaps. (The executor re-raises the panic on the caller.)
        assert!(
            row.baseline_ii.unwrap_or(u32::MAX) >= row.lower_bound
                && row.rmca_ii.unwrap_or(u32::MAX) >= row.lower_bound,
            "a heuristic beat the certified bound on {} / {}",
            row.loop_name,
            row.machine
        );
        Some(row)
    });
    rows.into_iter().flatten().collect()
}

fn fmt_ii(ii: Option<u32>) -> String {
    ii.map_or_else(|| "-".into(), |x| x.to_string())
}

fn fmt_gap(gap: Option<f64>) -> String {
    gap.map_or_else(|| "-".into(), |g| format!("{:.0}%", 100.0 * g))
}

/// Renders the gap rows as a text table, one block for all machines.
#[must_use]
pub fn render(rows: &[GapRow]) -> String {
    let mut t = Table::new(vec![
        "machine", "loop", "ops", "mII", "bound", "exact", "proved", "baseline", "rmca",
        "base-gap", "rmca-gap", "solver",
    ]);
    for r in rows {
        t.row(vec![
            r.machine.clone(),
            r.loop_name.clone(),
            r.num_ops.to_string(),
            r.min_ii.to_string(),
            r.lower_bound.to_string(),
            fmt_ii(r.exact_ii),
            if r.proved_optimal { "yes" } else { "no" }.to_string(),
            fmt_ii(r.baseline_ii),
            fmt_ii(r.rmca_ii),
            fmt_gap(r.baseline_gap()),
            fmt_gap(r.rmca_gap()),
            r.solver.to_string(),
        ]);
    }
    let proved = rows.iter().filter(|r| r.proved_optimal).count();
    format!(
        "Optimality gap — heuristic II vs exact/certified lower bound\n{}\n\
         {} / {} (loop, machine) points proved optimal\n",
        t.render(),
        proved,
        rows.len()
    )
}

/// Serialises the rows as CSV (header + one line per row).
#[must_use]
pub fn to_csv(rows: &[GapRow]) -> String {
    // New columns only ever append at the end so positional consumers (the
    // CI summary cuts fields 1-3 and 8) keep working: first the
    // solver/conflicts pair, then the incremental-SAT provenance pair.
    let mut out = String::from(
        "machine,loop,ops,min_ii,lower_bound,exact_ii,proved_optimal,nodes,baseline_ii,rmca_ii,baseline_gap,rmca_gap,solver,conflicts,schedule_ms,oracle_ms,sat_reused_clauses,sat_kept_learned\n",
    );
    for r in rows {
        let gap_csv = |g: Option<f64>| g.map_or_else(String::new, |g| format!("{g:.4}"));
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{:.3},{:.3},{},{}\n",
            r.machine,
            r.loop_name,
            r.num_ops,
            r.min_ii,
            r.lower_bound,
            r.exact_ii.map_or_else(String::new, |x| x.to_string()),
            r.proved_optimal,
            r.nodes,
            r.baseline_ii.map_or_else(String::new, |x| x.to_string()),
            r.rmca_ii.map_or_else(String::new, |x| x.to_string()),
            gap_csv(r.baseline_gap()),
            gap_csv(r.rmca_gap()),
            r.solver,
            r.conflicts,
            r.schedule_ms,
            r.oracle_ms,
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
pub fn write_csv(rows: &[GapRow], path: &Path) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(to_csv(rows).as_bytes())
}

/// The rows as a JSON report (for `MVP_REPORT_JSON`), carrying the same
/// columns as the CSV plus the derived gaps.
#[must_use]
pub fn to_json(rows: &[GapRow]) -> crate::json::Json {
    use crate::json::Json;
    Json::object([
        ("report", Json::from("optimality-gap")),
        (
            "proved_optimal",
            Json::from(rows.iter().filter(|r| r.proved_optimal).count()),
        ),
        (
            "rows",
            Json::array(rows.iter().map(|r| {
                Json::object([
                    ("machine", Json::from(r.machine.as_str())),
                    ("loop", Json::from(r.loop_name.as_str())),
                    ("ops", Json::from(r.num_ops)),
                    ("min_ii", Json::from(r.min_ii)),
                    ("lower_bound", Json::from(r.lower_bound)),
                    ("exact_ii", Json::option(r.exact_ii)),
                    ("proved_optimal", Json::from(r.proved_optimal)),
                    ("nodes", Json::from(r.nodes)),
                    ("conflicts", Json::from(r.conflicts)),
                    ("sat_reused_clauses", Json::from(r.sat_reused_clauses)),
                    ("sat_kept_learned", Json::from(r.sat_kept_learned)),
                    ("solver", Json::from(r.solver.label())),
                    ("baseline_ii", Json::option(r.baseline_ii)),
                    ("rmca_ii", Json::option(r.rmca_ii)),
                    ("baseline_gap", Json::option(r.baseline_gap())),
                    ("rmca_gap", Json::option(r.rmca_gap())),
                    ("schedule_ms", Json::from(r.schedule_ms)),
                    ("oracle_ms", Json::from(r.oracle_ms)),
                ])
            })),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> GapParams {
        GapParams {
            generated_loops: 2,
            max_ops: 6,
            ..GapParams::default()
        }
    }

    #[test]
    fn rows_respect_the_certified_bound() {
        let rows = run(&small());
        assert!(!rows.is_empty());
        for r in &rows {
            assert!(r.lower_bound >= r.min_ii, "{}/{}", r.loop_name, r.machine);
            assert!(r.lower_bound >= 1);
            if let (Some(e), true) = (r.exact_ii, r.proved_optimal) {
                assert_eq!(e, r.lower_bound, "{}/{}", r.loop_name, r.machine);
            }
            for ii in [r.baseline_ii, r.rmca_ii].into_iter().flatten() {
                assert!(ii >= r.lower_bound, "{}/{}", r.loop_name, r.machine);
            }
            for gap in [r.baseline_gap(), r.rmca_gap()].into_iter().flatten() {
                assert!(gap >= 0.0);
            }
        }
        // The motivating loop on the motivating machine shows the Figure-3
        // story: proven optimum 3, heuristics at 4.
        let fig3 = rows
            .iter()
            .find(|r| r.loop_name == "motivating" && r.machine == "motivating-2-cluster")
            .expect("fig3 row present");
        assert_eq!(fig3.exact_ii, Some(3));
        assert_eq!(fig3.baseline_ii, Some(4));
    }

    #[test]
    fn the_sat_engine_prices_the_same_figure3_row() {
        let params = GapParams {
            solver: SolverKind::Sat,
            ..small()
        };
        let rows = run(&params);
        let fig3 = rows
            .iter()
            .find(|r| r.loop_name == "motivating" && r.machine == "motivating-2-cluster")
            .expect("fig3 row present");
        assert_eq!(fig3.exact_ii, Some(3));
        assert!(fig3.proved_optimal);
        assert_eq!(fig3.solver, SolverKind::Sat);
        assert_eq!(fig3.nodes, 0, "the SAT engine charges conflicts, not nodes");
        assert!(fig3.conflicts > 0);
        let csv = to_csv(&rows);
        assert!(csv.lines().next().unwrap().ends_with(
            "solver,conflicts,schedule_ms,oracle_ms,sat_reused_clauses,sat_kept_learned"
        ));
        assert!(csv.contains(",sat,"));
        // Fig3's MII already equals the optimum, so its search is a single
        // probe with nothing to carry over; rows whose first probe is
        // refuted by search must show the session reusing clauses.
        assert_eq!(fig3.sat_reused_clauses, 0);
        assert!(
            rows.iter().any(|r| r.sat_reused_clauses > 0),
            "some multi-probe row reuses clauses across II probes"
        );
    }

    #[test]
    fn render_and_csv_cover_every_row() {
        let rows = run(&small());
        let text = render(&rows);
        assert!(text.contains("Optimality gap"));
        assert!(text.contains("proved optimal"));
        let csv = to_csv(&rows);
        assert_eq!(csv.lines().count(), rows.len() + 1);
        assert!(csv.starts_with("machine,loop,"));
        let dir = std::env::temp_dir().join("mvp-gap-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("optimality-gap.csv");
        write_csv(&rows, &path).unwrap();
        let written = std::fs::read_to_string(&path).unwrap();
        assert_eq!(written, csv);
        std::fs::remove_dir_all(&dir).ok();
    }
}
