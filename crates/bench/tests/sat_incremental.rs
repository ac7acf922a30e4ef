//! Differential suite for the incremental SAT session (tier-1).
//!
//! The persistent assumption-based session must prove exactly what a
//! from-scratch per-probe encoding proves. [`run_incremental`] pins
//! that point by point over the full gap corpus — identical certified
//! bounds, schedule IIs, optimality claims and per-II verdict sequences
//! whenever both searches fully decide, no contradictory certificates
//! when the step budget cuts one short, and validator-clean schedules
//! from both — and this suite adds the aggregate retention gate plus a
//! randomized sweep on top.
//!
//! The fuzz case count scales with `MVP_SAT_INCR_FUZZ_CASES` (default 8)
//! so a longer run can widen the sweep without a code change.

use mvp_bench::gap::GapParams;
use mvp_bench::portfolio::{incremental_totals, run_incremental};
use mvp_exact::{solve_with, ExactBackend, ExactOptions, IiVerdict};
use mvp_exec::Executor;
use mvp_machine::presets;
use mvp_workloads::generator::{GeneratorConfig, GeneratorMode, LoopGenerator};

/// The full 52-point differential: every (loop, machine) pair of the gap
/// corpus solved by both modes, with all agreement assertions inside
/// [`run_incremental`]. The aggregate gate mirrors the `portfolio` binary:
/// clause retention must not cost steps corpus-wide.
#[test]
fn incremental_and_scratch_agree_across_the_gap_corpus() {
    // A tighter budget than the `portfolio` binary's keeps the debug-build
    // suite fast; the consistency pin is budget-aware, so this still exercises
    // every corpus point.
    let params = GapParams {
        node_budget: 50_000,
        ..GapParams::default()
    };
    let rows = run_incremental(&params, &Executor::global());
    assert!(rows.len() >= 50, "the corpus differential covers the grid");
    assert!(
        rows.iter().any(|r| r.reused_clauses > 0),
        "multi-probe sessions reuse clauses"
    );
    let (incremental, scratch) = incremental_totals(&rows);
    assert!(
        incremental <= scratch,
        "clause retention must pay for itself: \
         incremental {incremental} steps vs from-scratch {scratch}"
    );
}

/// Randomized loops beyond the fixed corpus: both modes must stay
/// consistent on machine shapes that stress clustering and transfers.
#[test]
fn incremental_and_scratch_agree_on_fuzzed_loops() {
    let cases: usize = std::env::var("MVP_SAT_INCR_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8);
    let cfg = GeneratorConfig {
        min_ops: 4,
        max_ops: 10,
        ..GeneratorConfig::default()
    }
    .with_mode(GeneratorMode::Schedulable);
    let mut gen = LoopGenerator::new(cfg, 0xD1F_F5A7);
    let machines = [presets::two_cluster(), presets::four_cluster()];
    let options = ExactOptions::new().with_node_budget(50_000);
    for _ in 0..cases {
        let l = gen.generate();
        for machine in &machines {
            let point = format!("{} / {}", l.name(), machine.name);
            let incr = solve_with(
                &l,
                machine,
                &options.with_sat_incremental(true),
                &ExactBackend::Sat,
            );
            let scratch = solve_with(
                &l,
                machine,
                &options.with_sat_incremental(false),
                &ExactBackend::Sat,
            );
            let (incr, scratch) = match (incr, scratch) {
                (Ok(i), Ok(s)) => (i, s),
                (Err(_), Err(_)) => continue,
                _ => panic!("solvability diverges on {point}"),
            };
            let decided = |o: &mvp_exact::ExactOutcome| {
                o.probes.iter().all(|p| p.verdict != IiVerdict::Unknown)
            };
            if decided(&incr) && decided(&scratch) {
                assert_eq!(incr.lower_bound, scratch.lower_bound, "bounds on {point}");
                assert_eq!(
                    incr.schedule_ii(),
                    scratch.schedule_ii(),
                    "schedule IIs on {point}"
                );
                assert_eq!(
                    incr.proved_optimal, scratch.proved_optimal,
                    "optimality on {point}"
                );
            } else {
                for pi in &incr.probes {
                    for ps in &scratch.probes {
                        assert!(
                            !(pi.ii == ps.ii
                                && ((pi.verdict == IiVerdict::Feasible
                                    && ps.verdict == IiVerdict::Infeasible)
                                    || (pi.verdict == IiVerdict::Infeasible
                                        && ps.verdict == IiVerdict::Feasible))),
                            "opposite certificates at II={} on {point}",
                            pi.ii
                        );
                    }
                }
            }
            for outcome in [&incr, &scratch] {
                if let Some(s) = &outcome.schedule {
                    let violations = mvp_core::validate_schedule(&l, machine, s);
                    assert!(violations.is_empty(), "illegal schedule on {point}");
                }
            }
        }
    }
}
