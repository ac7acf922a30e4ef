//! The SAT engine's register-pressure refinement on the gap corpus.
//!
//! Each overflowing model is answered with one explanation lemma per
//! overflowing cluster, which removes every model sharing the overlap.
//! A refinement that excluded one model at a time would exhaust the step
//! budget on the pinned point below.

use mvp_bench::gap::{corpus, machines, GapParams};
use mvp_exact::{solve_with, ExactBackend, ExactOptions};

/// `random_7` on four clusters overflows a register file in many models
/// at II=3; the lemmas prove II=3 optimal in 13 rounds.
#[test]
fn random_7_on_four_clusters_is_proved_in_few_refinement_rounds() {
    let loops = corpus(&GapParams::default());
    let l = loops
        .iter()
        .find(|l| l.name() == "random_7")
        .expect("the corpus generates random_7");
    let machine = machines()
        .into_iter()
        .find(|m| m.name == "4-cluster")
        .expect("the corpus sweeps the 4-cluster preset");
    let o = solve_with(l, &machine, &ExactOptions::new(), &ExactBackend::Sat).unwrap();
    assert!(o.proved_optimal, "{o}");
    assert_eq!(o.schedule_ii(), Some(3));
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

/// SAT alone proves every point of the corpus optimal.
#[test]
fn sat_proves_the_whole_gap_corpus() {
    let loops = corpus(&GapParams::default());
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
