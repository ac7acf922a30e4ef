//! The SAT engine's register-pressure refinement on the gap corpora.
//!
//! Each overflowing model is answered with one explanation lemma per
//! overflowing cluster, which removes every model sharing the overlap.
//! A refinement that excluded one model at a time would exhaust the step
//! budget on the pinned point below.

use mvp_bench::gap::{corpus, machines, GapParams};
use mvp_exact::{solve_with, ExactBackend, ExactOptions};

/// The 116-point corpus `gap --loops 24 --max-ops 20 --seed 7` prints.
/// With two-stage first encodings, none of the 52 default points refines.
fn larger_corpus() -> GapParams {
    GapParams {
        generated_loops: 24,
        max_ops: 20,
        seed: 7,
        ..GapParams::default()
    }
}

/// `random_14` of the larger corpus on four clusters overflows a register
/// file in a two-stage model at II=7; one lemma proves II=7 optimal.
#[test]
fn random_14_on_four_clusters_is_proved_in_few_refinement_rounds() {
    let loops = corpus(&larger_corpus());
    let l = loops
        .iter()
        .find(|l| l.name() == "random_14")
        .expect("the corpus generates random_14");
    let machine = machines()
        .into_iter()
        .find(|m| m.name == "4-cluster")
        .expect("the corpus sweeps the 4-cluster preset");
    let o = solve_with(l, &machine, &ExactOptions::new(), &ExactBackend::Sat).unwrap();
    assert!(o.proved_optimal, "{o}");
    assert_eq!(o.schedule_ii(), Some(7));
    let rounds: u64 = o.probes.iter().map(|p| p.cegar_rounds).sum();
    assert!(
        (1..100).contains(&rounds),
        "{rounds} refinement rounds (expected a few, and at least one)"
    );
    // The dovetailed portfolio's SAT half refines too, and its probes
    // report the rounds of every instalment.
    let o = solve_with(l, &machine, &ExactOptions::new(), &ExactBackend::Portfolio).unwrap();
    assert!(o.proved_optimal, "{o}");
    assert!(
        o.probes.iter().any(|p| p.cegar_rounds > 0),
        "{:?}",
        o.probes
    );
}

/// SAT alone proves every point of the larger corpus optimal.
#[test]
fn sat_proves_the_whole_larger_gap_corpus() {
    let loops = corpus(&larger_corpus());
    let mut refined = 0;
    for machine in machines() {
        for l in &loops {
            let o = solve_with(l, &machine, &ExactOptions::new(), &ExactBackend::Sat).unwrap();
            assert!(o.proved_optimal, "{} on {}: {o}", l.name(), machine.name);
            refined += usize::from(o.probes.iter().any(|p| p.cegar_rounds > 0));
        }
    }
    assert!(
        refined > 0,
        "some corpus point must refine register pressure"
    );
}
