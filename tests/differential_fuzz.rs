//! Differential fuzzing of all scheduler configurations against the
//! schedule-legality oracle and the exact-scheduling lower bound.
//!
//! Every seeded random loop is pushed through all five
//! [`SchedulerChoice`]s — Baseline, RMCA, Unified, the list-scheduling
//! fallback and (on small enough loops) the exact branch-and-bound
//! scheduler — on their default machines, and every schedule any of them
//! produces must pass `mvp_core::validate::validate_schedule` with **zero**
//! violations. On top of the shared legality oracle, the harness
//! cross-checks the configurations against each other:
//!
//! * the list-fallback configuration must succeed on *every* seed (that is
//!   its contract — it is what makes arbitrary generator seeds usable end to
//!   end),
//! * a pipelined kernel's steady-state cost stays within 1.5x of the
//!   non-pipelined list schedule of the same loop on the same machine
//!   (`II·iters ≤ 1.5·niter·II_list`; the slack absorbs the heuristics'
//!   deliberate II-for-locality trades, the bound still catches an II
//!   search degenerating to its escape hatch),
//! * no schedule beats the machine-independent minimum II,
//! * the pipelined schedulers may only fail by exhausting their II search
//!   (`NoFeasibleIi`) — any other error on a well-formed loop is a bug,
//! * on the small-loop corpus, no heuristic II ever beats the exact
//!   scheduler's certified lower bound, and every exact schedule is legal
//!   (`exact_scheduler_bounds_every_heuristic_on_small_loops`),
//! * `SimStats` invariants agree across scheduler choices on the same
//!   machine: identical memory-access counts, iteration counts, and a
//!   compute-cycle floor of `II × iterations`
//!   (`simulation_invariants_agree_across_schedulers`),
//! * on small loops given a memory-ordering recurrence (the generator emits
//!   no memory edges), the list schedule never beats the minimum II and no
//!   exact engine certifies a bound above it
//!   (`memory_recurrences_never_lift_a_bound_above_a_legal_schedule`).
//!
//! The seeded case loops run as jobs on the shared batch executor
//! of [`multivliw::exec`]: per-case generator seeds are drawn up front from
//! the sequential meta-RNG, each case is an independent job, and the
//! counters are folded in case order — so outcomes (including any panic:
//! the smallest failing case wins) are identical for every `MVP_THREADS`
//! setting, while nightly 512-seed runs use all cores.
//!
//! Runtime knobs (for the nightly CI job and local deep runs):
//!
//! * `MVP_FUZZ_CASES` — number of seeded loops (default 64),
//! * `MVP_FUZZ_SEED` — base seed of the meta-RNG (default `0xD1FF5EED`;
//!   the nightly job rotates it by date and echoes the value for replay),
//! * `MVP_EXACT_FUZZ_CASES` — loops of the exact-oracle subset (default 24),
//! * `MVP_THREADS` — executor width (defaults to the available
//!   parallelism; results are identical regardless).

use multivliw::core::{validate_schedule, ListScheduler, ModuloScheduler, ScheduleError};
use multivliw::exact::{solve, solve_with, ExactBackend, ExactOptions};
use multivliw::exec::Executor;
use multivliw::ir::mii;
use multivliw::machine::presets;
use multivliw::pipeline::{LoopReport, Pipeline, SchedulerChoice};
use multivliw::workloads::generator::{GeneratorConfig, LoopGenerator};
use multivliw::workloads::rng::SplitMix64;
use multivliw::Error;

#[path = "support/memory_recurrence.rs"]
mod memory_recurrence;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn fuzz_cases() -> usize {
    env_u64("MVP_FUZZ_CASES", 64) as usize
}

fn fuzz_seed() -> u64 {
    env_u64("MVP_FUZZ_SEED", 0xD1FF_5EED)
}

fn exact_fuzz_cases() -> usize {
    env_u64("MVP_EXACT_FUZZ_CASES", 24) as usize
}

/// Loops larger than this skip the exact pipeline in the all-scheduler
/// sweep: the branch-and-bound search is an oracle for small loops, and its
/// node budget would dominate the harness runtime on 20+-op bodies.
const EXACT_MAX_OPS: usize = 12;

/// Holds one pipeline run against the legality oracle and the minimum-II
/// lower bound.
fn check_report(l: &multivliw::ir::Loop, pipeline: &Pipeline, report: &LoopReport) {
    let machine = pipeline.machine();
    let violations = validate_schedule(l, machine, &report.schedule);
    assert!(
        violations.is_empty(),
        "{} produced an illegal schedule for {} on {}: {:?}",
        pipeline.scheduler(),
        l.name(),
        machine.name,
        violations
    );
    assert!(
        report.schedule.ii() >= mii::minimum_ii(l, machine),
        "{} beat the minimum II on {}",
        pipeline.scheduler(),
        l.name()
    );
}

#[test]
fn all_schedulers_agree_with_the_legality_oracle() {
    let cases = fuzz_cases();
    let base_seed = fuzz_seed();
    assert!(cases >= 1, "MVP_FUZZ_CASES must be at least 1");

    let pipelines: Vec<Pipeline> = SchedulerChoice::EVERY
        .iter()
        .map(|&choice| {
            Pipeline::builder()
                .scheduler(choice)
                .build()
                .expect("default pipelines are valid")
        })
        .collect();
    let list_reference = ListScheduler::new();

    // Per-case seeds come from the sequential meta-RNG *before* the fan-out,
    // so the corpus is identical for every executor width.
    let mut meta = SplitMix64::seed_from_u64(base_seed);
    let seeds: Vec<u64> = (0..cases).map(|_| meta.next_u64()).collect();

    /// Per-case counters, folded in case order after the parallel sweep.
    #[derive(Default)]
    struct CaseStats {
        schedules: usize,
        skips: usize,
        fallbacks: usize,
    }

    let per_case = Executor::global().map_indexed(&seeds, |case, &seed| {
        let mut stats = CaseStats::default();
        let mut generator = LoopGenerator::with_seed(seed);
        let l = generator.generate();

        // The non-pipelined reference: legal on the clustered default
        // machine for every well-formed loop, by construction.
        let clustered = pipelines
            .iter()
            .find(|p| p.scheduler() == SchedulerChoice::ListFallback)
            .expect("EVERY contains the fallback");
        let list_schedule = list_reference
            .schedule(&l, clustered.machine())
            .expect("list scheduling always succeeds on the Table-1 machines");
        let list_violations = validate_schedule(&l, clustered.machine(), &list_schedule);
        assert!(
            list_violations.is_empty(),
            "list schedule illegal for {} (seed {seed:#x}): {list_violations:?}",
            l.name()
        );
        let list_cycles = list_schedule.compute_cycles_of(&l);

        for pipeline in &pipelines {
            if pipeline.scheduler() == SchedulerChoice::Exact && l.num_ops() > EXACT_MAX_OPS {
                continue;
            }
            match pipeline.run(&l) {
                Ok(report) => {
                    stats.schedules += 1;
                    check_report(&l, pipeline, &report);
                    // Cycle-count sanity: a pipelined kernel's steady-state
                    // cost (II·iters, without the prologue/epilogue ramp)
                    // stays in the same ballpark as the non-pipelined list
                    // schedule of the same loop on the same machine. The
                    // heuristic cluster assignment may trade a little II for
                    // locality or communication, so this is a 1.5x bound,
                    // not strict dominance — what it catches is an II search
                    // degenerating towards its `min_ii + 64` escape hatch
                    // while list scheduling does the loop in a fraction of
                    // that.
                    if pipeline.machine().name == clustered.machine().name {
                        let steady_state =
                            u64::from(report.schedule.ii()) * l.iterations() * l.times_executed();
                        assert!(
                            2 * steady_state <= 3 * list_cycles,
                            "{} initiates at II {} on {} where list scheduling \
                             needs {list_cycles} cycles for {} iterations \
                             (case {case}, seed {seed:#x})",
                            pipeline.scheduler(),
                            report.schedule.ii(),
                            l.name(),
                            l.iterations()
                        );
                    }
                    if pipeline.scheduler() == SchedulerChoice::ListFallback
                        && report.schedule.scheduler_name == "list"
                    {
                        stats.fallbacks += 1;
                    }
                }
                Err(Error::Schedule(ScheduleError::NoFeasibleIi { .. })) => {
                    assert_ne!(
                        pipeline.scheduler(),
                        SchedulerChoice::ListFallback,
                        "the list fallback must rescue every exhausted II search \
                         (case {case}, seed {seed:#x}, loop {})",
                        l.name()
                    );
                    stats.skips += 1;
                }
                Err(e) => panic!(
                    "{} failed on well-formed loop {} (case {case}, seed {seed:#x}) \
                     with a non-II error: {e}",
                    pipeline.scheduler(),
                    l.name()
                ),
            }
        }
        stats
    });
    let (schedules, skips, fallbacks) = per_case.iter().fold((0, 0, 0), |(s, k, f), c| {
        (s + c.schedules, k + c.skips, f + c.fallbacks)
    });

    // The fallback is a safety net, not the common path: if a sizable share
    // of random loops stops being modulo-schedulable, a scheduler regressed.
    // The `max(16)` floor keeps single-seed reproductions
    // (`MVP_FUZZ_CASES=1 MVP_FUZZ_SEED=<seed>`) from tripping the rate gate
    // on a seed that legitimately needs the fallback.
    assert!(
        fallbacks <= cases.max(16) / 4,
        "{fallbacks}/{cases} loops fell back to list scheduling"
    );
    println!(
        "differential fuzz: {cases} loops x {} schedulers -> {schedules} legal schedules, \
         {skips} exhausted II searches, {fallbacks} list fallbacks (base seed {base_seed:#x})",
        SchedulerChoice::EVERY.len()
    );
}

#[test]
fn fallback_and_primary_agree_when_the_primary_succeeds() {
    // On seeds where RMCA succeeds, the fallback wrapper must return the
    // identical schedule (same II, same placements) — the wrapper may never
    // perturb the primary's result.
    let rmca = Pipeline::builder()
        .scheduler(SchedulerChoice::Rmca)
        .build()
        .unwrap();
    let fallback = Pipeline::builder()
        .scheduler(SchedulerChoice::ListFallback)
        .build()
        .unwrap();
    let mut meta = SplitMix64::seed_from_u64(fuzz_seed() ^ 0xA5A5_A5A5);
    let mut compared = 0usize;
    for _ in 0..16 {
        let mut generator = LoopGenerator::with_seed(meta.next_u64());
        let l = generator.generate();
        let Ok(direct) = rmca.run(&l) else {
            continue;
        };
        let wrapped = fallback.run(&l).expect("fallback never fails");
        assert_eq!(wrapped.schedule.scheduler_name, "rmca");
        assert_eq!(wrapped.schedule.ii(), direct.schedule.ii());
        assert_eq!(wrapped.schedule.ops(), direct.schedule.ops());
        compared += 1;
    }
    assert!(compared > 0, "no seed produced a pipelined schedule");
}

#[test]
fn exact_scheduler_bounds_every_heuristic_on_small_loops() {
    // The exact-oracle subset: small generated loops (the branch-and-bound
    // search proves optimality on most of them within its budget), each
    // checked three ways:
    //
    // 1. every exact schedule passes the validator with zero violations,
    // 2. the certified lower bound never drops below the classical MII and
    //    the found schedule never drops below the bound,
    // 3. no heuristic scheduler reports an II below the certified bound —
    //    the acceptance bar for the whole oracle: a violation means either
    //    an unsound pruning rule in the exact search or an illegal schedule
    //    from a heuristic.
    let cases = exact_fuzz_cases();
    let base_seed = fuzz_seed() ^ 0x000E_8AC7;
    let machine = SchedulerChoice::Rmca.default_machine();
    let heuristics: Vec<Pipeline> = [
        SchedulerChoice::Baseline,
        SchedulerChoice::Rmca,
        SchedulerChoice::ListFallback,
    ]
    .iter()
    .map(|&choice| {
        Pipeline::builder()
            .scheduler(choice)
            .machine(machine.clone())
            .build()
            .expect("clustered pipelines are valid")
    })
    .collect();

    let cfg = GeneratorConfig {
        min_ops: 3,
        max_ops: 10,
        ..GeneratorConfig::default()
    };
    let mut meta = SplitMix64::seed_from_u64(base_seed);
    let seeds: Vec<u64> = (0..cases).map(|_| meta.next_u64()).collect();
    // One executor job per seeded loop: each runs its own exact-oracle
    // solve (under its own node budget) plus the heuristic cross-checks.
    let outcomes = Executor::global().map_indexed(&seeds, |case, &seed| {
        let mut generator = LoopGenerator::new(cfg, seed);
        let l = generator.generate();

        let outcome = solve(&l, &machine, &ExactOptions::new())
            .expect("well-formed loops build a valid exact model");
        assert!(
            outcome.lower_bound >= mii::minimum_ii(&l, &machine),
            "case {case} seed {seed:#x}: certified bound below the classical MII"
        );
        let mut proved = false;
        let mut bounded = false;
        match &outcome.schedule {
            Some(s) => {
                let violations = validate_schedule(&l, &machine, s);
                assert!(
                    violations.is_empty(),
                    "case {case} seed {seed:#x}: exact schedule illegal: {violations:?}"
                );
                assert!(s.ii() >= outcome.lower_bound);
                if outcome.proved_optimal {
                    assert_eq!(s.ii(), outcome.lower_bound);
                    proved = true;
                }
            }
            // Budget exhausted: the outcome still certifies a lower bound.
            None => bounded = true,
        }

        for pipeline in &heuristics {
            match pipeline.run(&l) {
                Ok(report) => assert!(
                    report.schedule.ii() >= outcome.lower_bound,
                    "case {case} seed {seed:#x}: {} II {} beats the certified bound {}",
                    pipeline.scheduler(),
                    report.schedule.ii(),
                    outcome.lower_bound
                ),
                Err(Error::Schedule(ScheduleError::NoFeasibleIi { .. })) => {}
                Err(e) => panic!("case {case} seed {seed:#x}: unexpected error {e}"),
            }
        }
        (proved, bounded)
    });
    let proved = outcomes.iter().filter(|&&(p, _)| p).count();
    let bounded = outcomes.iter().filter(|&&(_, b)| b).count();
    println!(
        "exact fuzz: {cases} small loops -> {proved} proved optimal, \
         {bounded} lower-bounded under budget (base seed {base_seed:#x})"
    );
}

#[test]
fn simulation_invariants_agree_across_schedulers() {
    // Differential *simulation*: the same loop on the same machine must
    // produce consistent `SimStats` across scheduler choices. The schedule
    // determines the cycle shape, but not the work: every scheduler issues
    // the same memory operations the same number of times, so the access
    // counts must be identical; and a kernel initiating every II cycles can
    // never finish its iterations in fewer than II × iterations compute
    // cycles.
    let cases = (fuzz_cases() / 4).max(8);
    let base_seed = fuzz_seed() ^ 0x51_AB5;
    let machine = SchedulerChoice::Rmca.default_machine();
    let pipelines: Vec<Pipeline> = [
        SchedulerChoice::Baseline,
        SchedulerChoice::Rmca,
        SchedulerChoice::ListFallback,
    ]
    .iter()
    .map(|&choice| {
        Pipeline::builder()
            .scheduler(choice)
            .machine(machine.clone())
            .build()
            .expect("clustered pipelines are valid")
    })
    .collect();

    let mut meta = SplitMix64::seed_from_u64(base_seed);
    let seeds: Vec<u64> = (0..cases).map(|_| meta.next_u64()).collect();
    let compared_per_case = Executor::global().map_indexed(&seeds, |case, &seed| {
        let mut generator = LoopGenerator::with_seed(seed);
        let l = generator.generate();
        let reports: Vec<LoopReport> = pipelines.iter().filter_map(|p| p.run(&l).ok()).collect();
        if reports.len() < 2 {
            return false; // nothing to differentiate on this seed
        }
        let reference = &reports[0];
        for report in &reports {
            let stats = &report.stats;
            assert_eq!(
                stats.memory.accesses, reference.stats.memory.accesses,
                "case {case} seed {seed:#x}: {} simulates a different number \
                 of memory accesses than {}",
                report.scheduler, reference.scheduler
            );
            assert_eq!(
                stats.iterations, reference.stats.iterations,
                "case {case} seed {seed:#x}: iteration counts diverge"
            );
            assert_eq!(
                stats.executions, reference.stats.executions,
                "case {case} seed {seed:#x}: execution counts diverge"
            );
            assert!(
                stats.compute_cycles >= u64::from(report.schedule.ii()) * stats.iterations,
                "case {case} seed {seed:#x}: {} computes {} cycles for II {} x {} iterations",
                report.scheduler,
                stats.compute_cycles,
                report.schedule.ii(),
                stats.iterations
            );
            assert_eq!(
                stats.total_cycles(),
                stats.compute_cycles + stats.stall_cycles
            );
        }
        true
    });
    let compared = compared_per_case.iter().filter(|&&c| c).count();
    assert!(
        compared > 0,
        "no seed produced two schedulable configurations"
    );
    println!(
        "simulation differential: {compared}/{cases} loops compared (base seed {base_seed:#x})"
    );
}

#[test]
fn memory_recurrences_never_lift_a_bound_above_a_legal_schedule() {
    // Small generated loops, each given a memory recurrence: a distance-0
    // chain of memory edges from a load to a later store, closed by a
    // store→load edge at distance ≥ 1. Memory edges cost 1 cycle in the
    // validator, so the list scheduler's validator-clean II is a witness:
    // the minimum II must not exceed it, and neither may any engine's
    // certified lower bound.
    let cases = fuzz_cases();
    let base_seed = fuzz_seed() ^ 0x3E3_0C1E;
    // Memory-heavy bodies, so that most loops have a store after a load.
    let cfg = GeneratorConfig {
        min_ops: 3,
        max_ops: 10,
        memory_fraction: 0.6,
        store_fraction: 0.5,
        ..GeneratorConfig::default()
    };
    let machines = [presets::unified(), presets::two_cluster()];
    let list = ListScheduler::new();
    let mut meta = SplitMix64::seed_from_u64(base_seed);
    let seeds: Vec<u64> = (0..cases).map(|_| meta.next_u64()).collect();
    let checked = Executor::global().map_indexed(&seeds, |case, &seed| {
        let plain = LoopGenerator::new(cfg, seed).generate();
        let Some(l) = memory_recurrence::with_memory_recurrence(&plain, seed) else {
            return false;
        };
        for machine in &machines {
            let s = list
                .schedule(&l, machine)
                .expect("list scheduling always succeeds on the Table-1 machines");
            let violations = validate_schedule(&l, machine, &s);
            assert!(
                violations.is_empty(),
                "case {case} seed {seed:#x}: list schedule illegal on {}: {violations:?}",
                machine.name
            );
            assert!(
                s.ii() >= mii::minimum_ii(&l, machine),
                "case {case} seed {seed:#x}: legal list II {} below the minimum II {} on {}",
                s.ii(),
                mii::minimum_ii(&l, machine),
                machine.name
            );
            for backend in [ExactBackend::BranchAndBound, ExactBackend::Sat] {
                let outcome = solve_with(&l, machine, &ExactOptions::new(), &backend)
                    .expect("well-formed loops build a valid exact model");
                assert!(
                    outcome.lower_bound <= s.ii(),
                    "case {case} seed {seed:#x}: {backend} certifies {} above the legal \
                     list II {} on {}",
                    outcome.lower_bound,
                    s.ii(),
                    machine.name
                );
            }
        }
        true
    });
    let checked = checked.iter().filter(|&&c| c).count();
    assert!(checked > 0, "no generated loop had a store after a load");
    println!(
        "memory recurrences: {checked}/{cases} loops checked on {} machines (base seed {base_seed:#x})",
        machines.len()
    );
}
