//! The exact engines on the gap corpora, pinned and cross-checked.
//!
//! Branch-and-bound, SAT and the portfolio solve every point of the
//! 52-point and the 116-point corpora, and no engine's certificate may
//! contradict another's: the engines implement one validator rule set, so
//! a disagreement means one of them is unsound. Neither may a heuristic
//! (Baseline or RMCA) schedule below any engine's certified bound. SAT and
//! the portfolio prove every point of both corpora. On the default corpus
//! the branch-and-bound search's node counts and the SAT engine's steps
//! are pinned point by point, so a kernel or solver change that claims to
//! search the same nodes or steps does, and one that does not shows where.

use mvp_bench::gap::{map_points, GapParams};
use mvp_core::{validate_schedule, BaselineScheduler, ModuloScheduler, RmcaScheduler};
use mvp_exact::{solve_with, ExactBackend, ExactOptions, ExactOutcome, IiVerdict};
use mvp_exec::Executor;

/// Branch-and-bound nodes per point of the default 52-point corpus:
/// (machine, loop, nodes), in the corpus's machine-major order.
const BNB_NODES: [(&str, &str, u64); 52] = [
    ("unified", "motivating", 9),
    ("unified", "tomcatv_xx_small", 5),
    ("unified", "tomcatv_relax_small", 5),
    ("unified", "swim_flux_small", 6),
    ("unified", "mgrid_dot_small", 5),
    ("unified", "random_1", 5),
    ("unified", "random_2", 3),
    ("unified", "random_3", 12),
    ("unified", "random_4", 5),
    ("unified", "random_5", 8),
    ("unified", "random_6", 14),
    ("unified", "random_7", 14),
    ("unified", "random_8", 3),
    ("2-cluster", "motivating", 450),
    ("2-cluster", "tomcatv_xx_small", 15),
    ("2-cluster", "tomcatv_relax_small", 6),
    ("2-cluster", "swim_flux_small", 20),
    ("2-cluster", "mgrid_dot_small", 6),
    ("2-cluster", "random_1", 1_503),
    ("2-cluster", "random_2", 3),
    ("2-cluster", "random_3", 14),
    ("2-cluster", "random_4", 5),
    ("2-cluster", "random_5", 12),
    ("2-cluster", "random_6", 309_832),
    ("2-cluster", "random_7", 86),
    ("2-cluster", "random_8", 3),
    ("4-cluster", "motivating", 7_916),
    ("4-cluster", "tomcatv_xx_small", 92),
    ("4-cluster", "tomcatv_relax_small", 12),
    ("4-cluster", "swim_flux_small", 55_055),
    ("4-cluster", "mgrid_dot_small", 34),
    ("4-cluster", "random_1", 1_272),
    ("4-cluster", "random_2", 14),
    ("4-cluster", "random_3", 108),
    ("4-cluster", "random_4", 26),
    ("4-cluster", "random_5", 1_000_001),
    ("4-cluster", "random_6", 1_000_001),
    ("4-cluster", "random_7", 1_000_001),
    ("4-cluster", "random_8", 13),
    ("motivating-2-cluster", "motivating", 490_291),
    ("motivating-2-cluster", "tomcatv_xx_small", 159),
    ("motivating-2-cluster", "tomcatv_relax_small", 12),
    ("motivating-2-cluster", "swim_flux_small", 4_468),
    ("motivating-2-cluster", "mgrid_dot_small", 30),
    ("motivating-2-cluster", "random_1", 9_224),
    ("motivating-2-cluster", "random_2", 94),
    ("motivating-2-cluster", "random_3", 1_000_001),
    ("motivating-2-cluster", "random_4", 97),
    ("motivating-2-cluster", "random_5", 1_000_001),
    ("motivating-2-cluster", "random_6", 1_000_001),
    ("motivating-2-cluster", "random_7", 1_000_001),
    ("motivating-2-cluster", "random_8", 21),
];

/// SAT steps (decisions + conflicts) per point of the default 52-point
/// corpus, as `gap --solver sat` prints them in its `conflicts` column:
/// (machine, loop, steps), in the corpus's machine-major order.
const SAT_STEPS: [(&str, &str, u64); 52] = [
    ("unified", "motivating", 25),
    ("unified", "tomcatv_xx_small", 2),
    ("unified", "tomcatv_relax_small", 4),
    ("unified", "swim_flux_small", 4),
    ("unified", "mgrid_dot_small", 4),
    ("unified", "random_1", 4),
    ("unified", "random_2", 2),
    ("unified", "random_3", 65),
    ("unified", "random_4", 5),
    ("unified", "random_5", 30),
    ("unified", "random_6", 106),
    ("unified", "random_7", 21),
    ("unified", "random_8", 4),
    ("2-cluster", "motivating", 101),
    ("2-cluster", "tomcatv_xx_small", 13),
    ("2-cluster", "tomcatv_relax_small", 25),
    ("2-cluster", "swim_flux_small", 10),
    ("2-cluster", "mgrid_dot_small", 25),
    ("2-cluster", "random_1", 18),
    ("2-cluster", "random_2", 9),
    ("2-cluster", "random_3", 270),
    ("2-cluster", "random_4", 15),
    ("2-cluster", "random_5", 102),
    ("2-cluster", "random_6", 408),
    ("2-cluster", "random_7", 108),
    ("2-cluster", "random_8", 9),
    ("4-cluster", "motivating", 121),
    ("4-cluster", "tomcatv_xx_small", 30),
    ("4-cluster", "tomcatv_relax_small", 64),
    ("4-cluster", "swim_flux_small", 225),
    ("4-cluster", "mgrid_dot_small", 64),
    ("4-cluster", "random_1", 218),
    ("4-cluster", "random_2", 16),
    ("4-cluster", "random_3", 386),
    ("4-cluster", "random_4", 70),
    ("4-cluster", "random_5", 230),
    ("4-cluster", "random_6", 1_231),
    ("4-cluster", "random_7", 990),
    ("4-cluster", "random_8", 22),
    ("motivating-2-cluster", "motivating", 69),
    ("motivating-2-cluster", "tomcatv_xx_small", 20),
    ("motivating-2-cluster", "tomcatv_relax_small", 20),
    ("motivating-2-cluster", "swim_flux_small", 39),
    ("motivating-2-cluster", "mgrid_dot_small", 20),
    ("motivating-2-cluster", "random_1", 88),
    ("motivating-2-cluster", "random_2", 35),
    ("motivating-2-cluster", "random_3", 336),
    ("motivating-2-cluster", "random_4", 73),
    ("motivating-2-cluster", "random_5", 472),
    ("motivating-2-cluster", "random_6", 1_301),
    ("motivating-2-cluster", "random_7", 473),
    ("motivating-2-cluster", "random_8", 45),
];

/// The engines in the order [`Point::outcomes`] holds their outcomes.
const ENGINES: [ExactBackend; 3] = [
    ExactBackend::BranchAndBound,
    ExactBackend::Sat,
    ExactBackend::Portfolio,
];

/// One (machine, loop) point of a corpus as [`three_way`] solved it.
struct Point {
    machine: String,
    loop_name: String,
    /// One outcome per engine of [`ENGINES`], in that order.
    outcomes: [ExactOutcome; 3],
}

/// Solves every point of `params`' corpus with each of [`ENGINES`] and
/// cross-checks the three outcomes: proved optima are equal, no engine or
/// heuristic schedules below an engine's certified bound (so no bound lies
/// above another engine's proved optimum either), every exact schedule
/// passes the validator, and every decided portfolio probe names the
/// engine that decided it. Returns the points in the corpus's
/// machine-major order.
fn three_way(params: &GapParams) -> Vec<Point> {
    let options = ExactOptions::new().with_node_budget(params.node_budget);
    map_points(params, &Executor::global(), |machine, l| {
        let point = format!("{} on {}", l.name(), machine.name);
        let solved = ENGINES.map(|backend| solve_with(l, machine, &options, &backend).ok());
        let [Some(bnb), Some(sat), Some(portfolio)] = solved else {
            assert!(solved.iter().all(Option::is_none), "{point}");
            return None;
        };
        let outcomes = [bnb, sat, portfolio];
        let heuristics = [
            ("baseline", BaselineScheduler::new().schedule(l, machine)),
            ("rmca", RmcaScheduler::new().schedule(l, machine)),
        ];
        for a in &outcomes {
            for b in &outcomes {
                if a.proved_optimal && b.proved_optimal {
                    assert_eq!(a.schedule_ii(), b.schedule_ii(), "{point}");
                }
                assert!(
                    a.schedule_ii().is_none_or(|ii| ii >= b.lower_bound),
                    "{point}: {} scheduled II={:?} below the {} bound {}",
                    a.backend,
                    a.schedule_ii(),
                    b.backend,
                    b.lower_bound
                );
            }
            for (name, schedule) in &heuristics {
                let ii = schedule.as_ref().ok().map(mvp_core::Schedule::ii);
                assert!(
                    ii.is_none_or(|ii| ii >= a.lower_bound),
                    "{point}: {name} scheduled II={ii:?} below the {} bound {}",
                    a.backend,
                    a.lower_bound
                );
            }
            if let Some(s) = &a.schedule {
                let violations = validate_schedule(l, machine, s);
                assert!(
                    violations.is_empty(),
                    "{point}: {} {violations:?}",
                    a.backend
                );
            }
        }
        for probe in &outcomes[2].probes {
            assert!(
                probe.verdict == IiVerdict::Unknown || probe.solver != ExactBackend::Portfolio,
                "{point}: II={} decided by no engine",
                probe.ii
            );
        }
        Some(Point {
            machine: machine.name.clone(),
            loop_name: l.name().to_string(),
            outcomes,
        })
    })
}

/// How many points each of [`ENGINES`] proved optimal.
fn proved(points: &[Point]) -> [usize; 3] {
    [0, 1, 2].map(|i| {
        points
            .iter()
            .filter(|p| p.outcomes[i].proved_optimal)
            .count()
    })
}

/// `count` of engine `engine`'s outcome at every point, keyed by machine
/// and loop name.
fn per_point(
    points: &[Point],
    engine: usize,
    count: fn(&ExactOutcome) -> u64,
) -> Vec<(&str, &str, u64)> {
    points
        .iter()
        .map(|p| {
            let n = count(&p.outcomes[engine]);
            (p.machine.as_str(), p.loop_name.as_str(), n)
        })
        .collect()
}

#[test]
fn the_three_engines_agree_and_keep_their_pins_on_the_default_corpus() {
    let points = three_way(&GapParams::default());
    assert_eq!(points.len(), 52);
    assert_eq!(proved(&points), [45, 52, 52]);
    let nodes = per_point(&points, 0, |o| o.nodes);
    assert_eq!(nodes, BNB_NODES);
    assert_eq!(nodes.iter().map(|p| p.2).sum::<u64>(), 7_880_994);
    let steps = per_point(&points, 1, |o| o.conflicts);
    assert_eq!(steps, SAT_STEPS);
    assert_eq!(steps.iter().map(|p| p.2).sum::<u64>(), 8_047);
}

#[test]
fn the_three_engines_agree_on_the_116_point_corpus() {
    // The larger corpus `gap --loops 24 --max-ops 20 --seed 7` prints.
    let points = three_way(&GapParams {
        generated_loops: 24,
        max_ops: 20,
        seed: 7,
        ..GapParams::default()
    });
    assert_eq!(points.len(), 116);
    assert_eq!(proved(&points), [99, 116, 116]);
    let sat_steps: u64 = points.iter().map(|p| p.outcomes[1].conflicts).sum();
    assert_eq!(sat_steps, 40_721);
}
