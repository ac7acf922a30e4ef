//! The exact engines on the gap corpora, pinned.
//!
//! The SAT encoding's counting constraints (cluster and bus capacity) are
//! implied by its other clauses, so they may change how fast SAT decides,
//! never what it decides: on the 116-point corpus it proves every point
//! and never contradicts branch-and-bound. The branch-and-bound search's
//! node counts and the SAT engine's steps are pinned point by point, so a
//! kernel or solver change that claims to search the same nodes or steps
//! does, and one that does not shows where.

use mvp_bench::gap::{run, GapParams, GapRow};
use mvp_exact::ExactBackend;
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
    ("unified", "motivating", 55),
    ("unified", "tomcatv_xx_small", 8),
    ("unified", "tomcatv_relax_small", 16),
    ("unified", "swim_flux_small", 16),
    ("unified", "mgrid_dot_small", 16),
    ("unified", "random_1", 10),
    ("unified", "random_2", 8),
    ("unified", "random_3", 101),
    ("unified", "random_4", 17),
    ("unified", "random_5", 78),
    ("unified", "random_6", 148),
    ("unified", "random_7", 45),
    ("unified", "random_8", 16),
    ("2-cluster", "motivating", 173),
    ("2-cluster", "tomcatv_xx_small", 19),
    ("2-cluster", "tomcatv_relax_small", 37),
    ("2-cluster", "swim_flux_small", 28),
    ("2-cluster", "mgrid_dot_small", 37),
    ("2-cluster", "random_1", 24),
    ("2-cluster", "random_2", 15),
    ("2-cluster", "random_3", 306),
    ("2-cluster", "random_4", 27),
    ("2-cluster", "random_5", 150),
    ("2-cluster", "random_6", 510),
    ("2-cluster", "random_7", 168),
    ("2-cluster", "random_8", 21),
    ("4-cluster", "motivating", 217),
    ("4-cluster", "tomcatv_xx_small", 42),
    ("4-cluster", "tomcatv_relax_small", 76),
    ("4-cluster", "swim_flux_small", 218),
    ("4-cluster", "mgrid_dot_small", 76),
    ("4-cluster", "random_1", 174),
    ("4-cluster", "random_2", 22),
    ("4-cluster", "random_3", 422),
    ("4-cluster", "random_4", 118),
    ("4-cluster", "random_5", 1_757),
    ("4-cluster", "random_6", 1_174),
    ("4-cluster", "random_7", 3_638),
    ("4-cluster", "random_8", 34),
    ("motivating-2-cluster", "motivating", 141),
    ("motivating-2-cluster", "tomcatv_xx_small", 32),
    ("motivating-2-cluster", "tomcatv_relax_small", 32),
    ("motivating-2-cluster", "swim_flux_small", 70),
    ("motivating-2-cluster", "mgrid_dot_small", 32),
    ("motivating-2-cluster", "random_1", 90),
    ("motivating-2-cluster", "random_2", 42),
    ("motivating-2-cluster", "random_3", 321),
    ("motivating-2-cluster", "random_4", 89),
    ("motivating-2-cluster", "random_5", 505),
    ("motivating-2-cluster", "random_6", 1_058),
    ("motivating-2-cluster", "random_7", 512),
    ("motivating-2-cluster", "random_8", 62),
];

#[test]
fn branch_and_bound_node_counts_are_pinned_per_point() {
    let rows = run(&GapParams::default(), &Executor::global());
    let got: Vec<(&str, &str, u64)> = rows
        .iter()
        .map(|r| (r.machine.as_str(), r.loop_name.as_str(), r.nodes))
        .collect();
    assert_eq!(got, BNB_NODES);
    assert_eq!(rows.iter().map(|r| r.nodes).sum::<u64>(), 7_880_994);
    assert_eq!(rows.iter().filter(|r| r.proved_optimal).count(), 45);
}

#[test]
fn sat_steps_are_pinned_per_point() {
    let params = GapParams {
        solver: ExactBackend::Sat,
        ..GapParams::default()
    };
    let rows = run(&params, &Executor::global());
    let got: Vec<(&str, &str, u64)> = rows
        .iter()
        .map(|r| (r.machine.as_str(), r.loop_name.as_str(), r.conflicts))
        .collect();
    assert_eq!(got, SAT_STEPS);
    assert_eq!(rows.iter().map(|r| r.conflicts).sum::<u64>(), 13_003);
    assert_eq!(rows.iter().filter(|r| r.proved_optimal).count(), 52);
}

/// The larger corpus the gap binary prints with
/// `--loops 24 --max-ops 20 --seed 7`.
fn wide(solver: ExactBackend) -> Vec<GapRow> {
    let params = GapParams {
        generated_loops: 24,
        max_ops: 20,
        seed: 7,
        solver,
        ..GapParams::default()
    };
    run(&params, &Executor::global())
}

#[test]
fn sat_and_branch_and_bound_agree_on_the_116_point_corpus() {
    let sat = wide(ExactBackend::Sat);
    let bnb = wide(ExactBackend::BranchAndBound);
    assert_eq!(sat.len(), 116);
    assert_eq!(bnb.len(), 116);
    let proved = |rows: &[GapRow]| rows.iter().filter(|r| r.proved_optimal).count();
    assert_eq!(proved(&sat), 116);
    assert_eq!(proved(&bnb), 99);
    assert_eq!(sat.iter().map(|r| r.conflicts).sum::<u64>(), 316_357);
    for (s, b) in sat.iter().zip(&bnb) {
        let point = format!("{} on {}", s.loop_name, s.machine);
        assert_eq!((&s.machine, &s.loop_name), (&b.machine, &b.loop_name));
        // Each engine's schedule respects the other's certified bound, and
        // two proofs name the same II.
        for (x, y) in [(s, b), (b, s)] {
            assert!(
                x.exact_ii.is_none_or(|ii| ii >= y.lower_bound),
                "{point}: {:?} found under {:?}'s bound {}",
                x.solver,
                y.solver,
                y.lower_bound
            );
        }
        if s.proved_optimal && b.proved_optimal {
            assert_eq!(s.exact_ii, b.exact_ii, "{point}");
        }
    }
}
