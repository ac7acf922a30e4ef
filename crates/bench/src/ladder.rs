//! Exact-search ladder bracket: sequential vs speculative-parallel II
//! search over the gap corpus.
//!
//! Every (loop, machine) point of the [`crate::gap`] corpus is solved
//! twice by the portfolio backend — once strictly sequentially (ladder
//! width 1 on a 1-thread executor) and once with the speculative II ladder
//! on a multi-thread executor — and the bracket records per-point
//! wall-clock, charged steps, and the ladder's speculation accounting
//! (wasted steps, speculative/cancelled rungs, imported clauses). The
//! committed outcomes are cross-checked point by point: the ladder's
//! verdict contract says they must be identical whenever the step budget
//! does not bind, and the `exact_ladder` binary exits non-zero on any
//! mismatch — the nightly CI job turns a contract break into a red build.
//!
//! Unlike the suite-wallclock bracket (which pins ladder width 1 and
//! measures *batch* scaling), this bracket measures *intra-search*
//! scaling: one exact solve at a time, rungs fanned out on the executor.

use crate::gap::{corpus, machines, GapParams};
use crate::json::Json;
use crate::report::Table;
use mvp_exact::{solve_with, ExactBackend, ExactOptions, ExactOutcome, IiVerdict};
use mvp_exec::Executor;
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Environment variable naming the CSV artifact the `exact_ladder` binary
/// writes (the CI job uploads it as `exact-ladder`).
pub const LADDER_CSV_ENV_VAR: &str = "MVP_LADDER_CSV";

/// Parameters of the ladder bracket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LadderParams {
    /// Corpus sizing and node budget (the solver column is ignored — the
    /// bracket always measures the portfolio backend, the one the ladder
    /// auto-enables on).
    pub gap: GapParams,
    /// Executor threads of the ladder pass.
    pub threads: usize,
    /// Ladder width of the ladder pass (`0` = auto: the executor's thread
    /// count).
    pub width: u32,
}

impl Default for LadderParams {
    fn default() -> Self {
        Self {
            gap: GapParams::default(),
            threads: Executor::from_env().threads(),
            width: 0,
        }
    }
}

/// One (loop, machine) measurement of the bracket.
#[derive(Debug, Clone, PartialEq)]
pub struct LadderRow {
    /// Machine preset name.
    pub machine: String,
    /// Loop name.
    pub loop_name: String,
    /// Operations in the loop.
    pub num_ops: usize,
    /// Certified lower bound of the sequential reference.
    pub lower_bound: u32,
    /// II of the reference schedule, when one was found.
    pub exact_ii: Option<u32>,
    /// Whether the reference proved optimality.
    pub proved_optimal: bool,
    /// Wall-clock of the sequential solve, in milliseconds.
    pub sequential_ms: f64,
    /// Wall-clock of the ladder solve, in milliseconds.
    pub ladder_ms: f64,
    /// Steps (nodes + conflicts) the sequential solve charged.
    pub sequential_steps: u64,
    /// Steps the ladder solve charged against the shared budget.
    pub ladder_steps: u64,
    /// Speculative steps the ladder spent beyond what it charged
    /// (cancelled or over-budget rungs).
    pub wasted_steps: u64,
    /// Rungs launched beyond the first of each round.
    pub speculative_probes: u64,
    /// Launched rungs that never committed (cancelled or skipped).
    pub cancelled_probes: u64,
    /// Learnt clauses rungs imported from the shared export pool.
    pub imported_clauses: u64,
    /// Whether the two committed outcomes are identical (bound, schedule
    /// II, optimality claim and per-II verdict sequence).
    pub verdicts_match: bool,
}

/// The outcome fields the ladder's verdict contract pins.
fn fingerprint(o: &ExactOutcome) -> (u32, u32, Option<u32>, bool, Vec<(u32, IiVerdict)>) {
    (
        o.min_ii,
        o.lower_bound,
        o.schedule_ii(),
        o.proved_optimal,
        o.probes.iter().map(|p| (p.ii, p.verdict)).collect(),
    )
}

/// Runs the bracket. Points run serially on the caller's thread — each
/// ladder solve parallelises internally on its own executor — and the
/// per-point speculation columns come from each ladder outcome's own
/// [`SpeculationStats`](mvp_exact::SpeculationStats).
#[must_use]
pub fn run(params: &LadderParams) -> Vec<LadderRow> {
    let options = ExactOptions::new().with_node_budget(params.gap.node_budget);
    let loops = corpus(&params.gap);
    let machines = machines();
    let sequential_backend = ExactBackend::portfolio(Arc::new(Executor::new(1)));
    let ladder_backend = ExactBackend::portfolio(Arc::new(Executor::new(params.threads)));
    let ladder_width = if params.width == 0 {
        u32::try_from(params.threads).unwrap_or(u32::MAX)
    } else {
        params.width
    };

    let mut rows = Vec::new();
    for machine in &machines {
        for l in &loops {
            let start = Instant::now();
            let sequential = solve_with(
                l,
                machine,
                &options.with_ladder_width(1),
                &sequential_backend,
            );
            let sequential_ms = start.elapsed().as_secs_f64() * 1e3;
            let Ok(sequential) = sequential else {
                continue; // loop uses a unit kind the machine lacks
            };

            let start = Instant::now();
            let ladder = solve_with(
                l,
                machine,
                &options.with_ladder_width(ladder_width),
                &ladder_backend,
            )
            .expect("solvability is width-independent");
            let ladder_ms = start.elapsed().as_secs_f64() * 1e3;

            rows.push(LadderRow {
                machine: machine.name.clone(),
                loop_name: l.name().to_string(),
                num_ops: l.num_ops(),
                lower_bound: sequential.lower_bound,
                exact_ii: sequential.schedule_ii(),
                proved_optimal: sequential.proved_optimal,
                sequential_ms,
                ladder_ms,
                sequential_steps: sequential.nodes + sequential.conflicts,
                ladder_steps: ladder.nodes + ladder.conflicts,
                wasted_steps: ladder.speculation.wasted_steps,
                speculative_probes: ladder.speculation.speculative_probes,
                cancelled_probes: ladder.speculation.cancelled_probes,
                imported_clauses: ladder.speculation.imported_clauses,
                verdicts_match: fingerprint(&ladder) == fingerprint(&sequential),
            });
        }
    }
    rows
}

/// Total sequential wall-clock over total ladder wall-clock; `None` on an
/// empty bracket or a zero ladder total.
#[must_use]
pub fn speedup(rows: &[LadderRow]) -> Option<f64> {
    let sequential: f64 = rows.iter().map(|r| r.sequential_ms).sum();
    let ladder: f64 = rows.iter().map(|r| r.ladder_ms).sum();
    (ladder > 0.0).then(|| sequential / ladder)
}

/// The rows whose committed outcomes differ from the sequential reference.
#[must_use]
pub fn verdict_mismatches(rows: &[LadderRow]) -> Vec<String> {
    rows.iter()
        .filter(|r| !r.verdicts_match)
        .map(|r| format!("{} / {}", r.loop_name, r.machine))
        .collect()
}

/// Renders the rows as a text table.
#[must_use]
pub fn render(rows: &[LadderRow]) -> String {
    let mut t = Table::new(vec![
        "machine",
        "loop",
        "ops",
        "bound",
        "exact",
        "seq_ms",
        "ladder_ms",
        "wasted",
        "match",
    ]);
    for r in rows {
        t.row(vec![
            r.machine.clone(),
            r.loop_name.clone(),
            r.num_ops.to_string(),
            r.lower_bound.to_string(),
            r.exact_ii.map_or_else(|| "-".into(), |x| x.to_string()),
            format!("{:.1}", r.sequential_ms),
            format!("{:.1}", r.ladder_ms),
            r.wasted_steps.to_string(),
            if r.verdicts_match { "yes" } else { "NO" }.to_string(),
        ]);
    }
    let speedup_line = speedup(rows).map_or_else(String::new, |s| {
        format!("\ncorpus wall-clock: ladder vs sequential {s:.2}x")
    });
    format!(
        "Exact-search ladder bracket — sequential vs speculative II ladder\n{}{}\n",
        t.render(),
        speedup_line
    )
}

/// Serialises the rows as CSV (header + one line per row).
#[must_use]
pub fn to_csv(rows: &[LadderRow]) -> String {
    let mut out = String::from(
        "machine,loop,ops,lower_bound,exact_ii,proved_optimal,sequential_ms,ladder_ms,\
         sequential_steps,ladder_steps,wasted_steps,speculative_probes,cancelled_probes,\
         imported_clauses,verdicts_match\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{},{},{},{},{},{},{:.3},{:.3},{},{},{},{},{},{},{}\n",
            r.machine,
            r.loop_name,
            r.num_ops,
            r.lower_bound,
            r.exact_ii.map_or_else(String::new, |x| x.to_string()),
            r.proved_optimal,
            r.sequential_ms,
            r.ladder_ms,
            r.sequential_steps,
            r.ladder_steps,
            r.wasted_steps,
            r.speculative_probes,
            r.cancelled_probes,
            r.imported_clauses,
            r.verdicts_match,
        ));
    }
    out
}

/// Writes the CSV to `path`.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_csv(rows: &[LadderRow], path: &Path) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(to_csv(rows).as_bytes())
}

/// The rows as a JSON report (for `MVP_REPORT_JSON`).
#[must_use]
pub fn to_json(rows: &[LadderRow]) -> Json {
    Json::object([
        ("report", Json::from("exact-ladder")),
        ("speedup", Json::option(speedup(rows))),
        (
            "verdict_mismatches",
            Json::from(verdict_mismatches(rows).len()),
        ),
        (
            "rows",
            Json::array(rows.iter().map(|r| {
                Json::object([
                    ("machine", Json::from(r.machine.as_str())),
                    ("loop", Json::from(r.loop_name.as_str())),
                    ("ops", Json::from(r.num_ops)),
                    ("lower_bound", Json::from(r.lower_bound)),
                    ("exact_ii", Json::option(r.exact_ii)),
                    ("proved_optimal", Json::from(r.proved_optimal)),
                    ("sequential_ms", Json::from(r.sequential_ms)),
                    ("ladder_ms", Json::from(r.ladder_ms)),
                    ("sequential_steps", Json::from(r.sequential_steps)),
                    ("ladder_steps", Json::from(r.ladder_steps)),
                    ("wasted_steps", Json::from(r.wasted_steps)),
                    ("speculative_probes", Json::from(r.speculative_probes)),
                    ("cancelled_probes", Json::from(r.cancelled_probes)),
                    ("imported_clauses", Json::from(r.imported_clauses)),
                    ("verdicts_match", Json::from(r.verdicts_match)),
                ])
            })),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> LadderParams {
        LadderParams {
            gap: GapParams {
                generated_loops: 2,
                max_ops: 6,
                ..GapParams::default()
            },
            threads: 2,
            width: 2,
        }
    }

    #[test]
    fn the_bracket_commits_identical_outcomes_and_accounts_for_speculation() {
        let rows = run(&small());
        assert!(!rows.is_empty());
        assert_eq!(verdict_mismatches(&rows), Vec::<String>::new());
        for r in &rows {
            assert!(r.verdicts_match, "{} / {}", r.loop_name, r.machine);
            assert!(r.lower_bound >= 1);
            assert!(r.sequential_ms >= 0.0 && r.ladder_ms >= 0.0);
            assert!(
                r.cancelled_probes <= r.speculative_probes,
                "only speculative rungs can be cancelled on {} / {}",
                r.loop_name,
                r.machine
            );
        }
        // Multi-probe searches speculate; the fig3 motivating loop resolves
        // on its first probe and must not.
        assert!(rows.iter().any(|r| r.speculative_probes > 0));
        assert!(speedup(&rows).is_some());
    }

    #[test]
    fn render_and_csv_cover_every_row() {
        let rows = run(&small());
        let text = render(&rows);
        assert!(text.contains("ladder bracket"));
        assert!(text.contains("corpus wall-clock"));
        let csv = to_csv(&rows);
        assert_eq!(csv.lines().count(), rows.len() + 1);
        assert!(csv.starts_with("machine,loop,"));
        assert!(csv.lines().skip(1).all(|l| l.ends_with("true")));
        let json = to_json(&rows).to_string();
        assert!(json.starts_with(r#"{"report":"exact-ladder""#));
        assert_eq!(json.matches("\"verdicts_match\":").count(), rows.len());
        let dir = std::env::temp_dir().join(format!("mvp-ladder-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("exact-ladder.csv");
        write_csv(&rows, &path).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), csv);
        std::fs::remove_dir_all(&dir).ok();
    }
}
