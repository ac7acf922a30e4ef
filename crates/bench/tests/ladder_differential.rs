//! Differential suite for the speculative parallel II ladder (tier-1).
//!
//! The ladder's verdict contract: the committed [`ExactOutcome`] — certified
//! bound, schedule II, optimality claim and per-II verdict sequence — is a
//! pure function of the problem, the options and the ladder width. Neither
//! the executor's thread count nor the scheduling of speculative rungs may
//! change what is committed; only step/wallclock provenance varies. This
//! suite pins that point by point over the full gap corpus (sequential
//! reference vs ladder widths 1/2/4 on 1- and 8-thread executors), and a
//! randomized sweep checks that every speculative schedule stays
//! validator-clean on fuzzed loops beyond the corpus.
//!
//! The fuzz case count scales with `MVP_LADDER_FUZZ_CASES` (default 8) so a
//! nightly run can widen the sweep without a code change.

use mvp_bench::gap::{corpus, machines, GapParams};
use mvp_exact::{solve_with, ExactBackend, ExactOptions, ExactOutcome, IiVerdict};
use mvp_exec::Executor;
use mvp_machine::presets;
use mvp_workloads::generator::{GeneratorConfig, GeneratorMode, LoopGenerator};
use std::sync::Arc;

/// The outcome fields the verdict contract pins (everything but the
/// step/wallclock provenance and the concrete schedule bits).
fn fingerprint(o: &ExactOutcome) -> (u32, u32, Option<u32>, bool, Vec<(u32, IiVerdict)>) {
    (
        o.min_ii,
        o.lower_bound,
        o.schedule_ii(),
        o.proved_optimal,
        o.probes.iter().map(|p| (p.ii, p.verdict)).collect(),
    )
}

/// Every (loop, machine) point of the gap corpus: the sequential portfolio
/// search is the reference, and the ladder must commit the identical
/// outcome at widths 1, 2 and 4 on both a 1-thread and an 8-thread
/// executor.
#[test]
fn the_ladder_commits_sequential_outcomes_across_the_gap_corpus() {
    let params = GapParams::default();
    let loops = corpus(&params);
    let machines = machines();
    let options = ExactOptions::new().with_node_budget(params.node_budget);
    let narrow = Arc::new(Executor::new(1));
    let wide = Arc::new(Executor::new(8));
    let mut points = 0;
    for machine in &machines {
        for l in &loops {
            let point = format!("{} / {}", l.name(), machine.name);
            let reference = solve_with(
                l,
                machine,
                &options.with_ladder_width(1),
                &ExactBackend::portfolio(Arc::clone(&narrow)),
            );
            let Ok(reference) = reference else {
                continue; // loop uses a unit kind the machine lacks
            };
            points += 1;
            for width in [1, 2, 4] {
                for executor in [&narrow, &wide] {
                    let ladder = solve_with(
                        l,
                        machine,
                        &options.with_ladder_width(width),
                        &ExactBackend::portfolio(Arc::clone(executor)),
                    )
                    .expect("solvability is width-independent");
                    assert_eq!(
                        fingerprint(&ladder),
                        fingerprint(&reference),
                        "width {width} x {} threads on {point}",
                        executor.threads()
                    );
                    if width == 1 {
                        // Width 1 probes inline, so even the per-probe
                        // step provenance is thread-count independent.
                        assert_eq!(
                            ladder.probes,
                            reference.probes,
                            "width 1 x {} threads on {point}",
                            executor.threads()
                        );
                    }
                    if let Some(s) = &ladder.schedule {
                        let violations = mvp_core::validate_schedule(l, machine, s);
                        assert!(violations.is_empty(), "illegal schedule on {point}");
                    }
                }
            }
        }
    }
    assert!(points >= 50, "the corpus differential covers the grid");
}

/// Randomized loops beyond the fixed corpus: speculative rungs decided
/// under cancellation pressure must still commit sequential outcomes, and
/// every emitted schedule must survive the independent validator.
#[test]
fn fuzzed_ladders_stay_validator_clean() {
    let cases: usize = std::env::var("MVP_LADDER_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8);
    let cfg = GeneratorConfig {
        min_ops: 4,
        max_ops: 10,
        ..GeneratorConfig::default()
    }
    .with_mode(GeneratorMode::Schedulable);
    let mut gen = LoopGenerator::new(cfg, 0x01AD_DE12);
    let machines = [
        presets::two_cluster(),
        presets::motivating_example_machine(),
    ];
    let executor = Arc::new(Executor::new(4));
    let options = ExactOptions::new().with_node_budget(200_000);
    for _ in 0..cases {
        let l = gen.generate();
        for machine in &machines {
            let point = format!("{} / {}", l.name(), machine.name);
            let sequential = solve_with(
                &l,
                machine,
                &options.with_ladder_width(1),
                &ExactBackend::portfolio(Arc::clone(&executor)),
            );
            let ladder = solve_with(
                &l,
                machine,
                &options.with_ladder_width(3),
                &ExactBackend::portfolio(Arc::clone(&executor)),
            );
            let (sequential, ladder) = match (sequential, ladder) {
                (Ok(s), Ok(p)) => (s, p),
                (Err(_), Err(_)) => continue,
                _ => panic!("solvability diverges on {point}"),
            };
            let fully_decided =
                |o: &ExactOutcome| o.probes.iter().all(|p| p.verdict != IiVerdict::Unknown);
            if fully_decided(&sequential) {
                // The budget did not bind: the contract demands identity.
                assert_eq!(
                    fingerprint(&ladder),
                    fingerprint(&sequential),
                    "outcomes on {point}"
                );
            } else {
                // Budget-bound searches may stop at different points, but
                // certificates must never contradict.
                for pl in &ladder.probes {
                    for ps in &sequential.probes {
                        assert!(
                            !(pl.ii == ps.ii
                                && pl.verdict != IiVerdict::Unknown
                                && ps.verdict != IiVerdict::Unknown
                                && pl.verdict != ps.verdict),
                            "opposite certificates at II={} on {point}",
                            pl.ii
                        );
                    }
                }
            }
            for outcome in [&sequential, &ladder] {
                if let Some(s) = &outcome.schedule {
                    let violations = mvp_core::validate_schedule(&l, machine, s);
                    assert!(violations.is_empty(), "illegal schedule on {point}");
                }
            }
        }
    }
}
