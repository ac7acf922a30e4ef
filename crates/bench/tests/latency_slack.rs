//! The definition oracle of `mvp_ir::recurrence::latency_slack`.
//!
//! RMCA gives a load the miss latency only when the extra cycles fit in the
//! slack of every recurrence through it (Section 4.3). The slack is defined
//! by what it protects: at any II ≥ RecMII, raising the load's latency by
//! the slack `k` keeps `rec_mii` ≤ II, and raising it by `k + 1` does not;
//! `u32::MAX` means no raise ever breaks the II. This holds on the suite,
//! both gap corpora and generated loops, each plain and with a
//! memory-ordering recurrence through a load and a store.

use multivliw::ir::{recurrence, Loop, OpId};
use multivliw::machine::presets;
use multivliw::workloads::generator::LoopGenerator;
use multivliw::workloads::rng::SplitMix64;
use multivliw::workloads::{suite, SuiteParams};
use mvp_bench::gap::{corpus, GapParams};

#[path = "../../../tests/support/memory_recurrence.rs"]
mod memory_recurrence;

/// A raise that stands for "any": larger than every cycle of these loops.
const HUGE_RAISE: u32 = 100_000;

/// Checks the definition for every load of `l` at the first few IIs from
/// its RecMII up, returning the number of (load, II) pairs checked.
fn check(l: &Loop) -> usize {
    let latencies = presets::two_cluster().latencies;
    let hit = |op: OpId| l.op(op).kind.hit_latency(&latencies);
    let rec = recurrence::rec_mii(l, hit);
    let mut checked = 0;
    for load in l.loads() {
        let raised =
            |extra: u32| recurrence::rec_mii(l, |op| hit(op) + if op == load { extra } else { 0 });
        for ii in rec..rec + 4 {
            let k = recurrence::latency_slack(l, load, ii, hit);
            let name = format!("{} load {} at II {ii} (slack {k})", l.name(), load);
            if k == u32::MAX {
                assert!(raised(HUGE_RAISE) <= ii, "{name}: a raise breaks the II");
            } else {
                assert!(raised(k) <= ii, "{name}: the slack itself breaks the II");
                assert!(raised(k + 1) > ii, "{name}: one more cycle still fits");
            }
            checked += 1;
        }
    }
    checked
}

#[test]
fn latency_slack_is_the_largest_raise_that_keeps_the_ii() {
    let mut loops: Vec<Loop> = suite(&SuiteParams::default())
        .into_iter()
        .flat_map(|w| w.loops)
        .collect();
    loops.extend(corpus(&GapParams::default()));
    loops.extend(corpus(&GapParams {
        generated_loops: 24,
        max_ops: 20,
        seed: 7,
        ..GapParams::default()
    }));
    let mut meta = SplitMix64::seed_from_u64(0x51AC_0C1E);
    loops.extend((0..64).map(|_| LoopGenerator::with_seed(meta.next_u64()).generate()));
    let with_memory: Vec<Loop> = loops
        .iter()
        .enumerate()
        .filter_map(|(k, l)| memory_recurrence::with_memory_recurrence(l, k as u64))
        .collect();
    assert!(!with_memory.is_empty());

    let checked: usize = loops.iter().chain(&with_memory).map(check).sum();
    assert!(checked > 0);
    println!(
        "latency slack: {checked} (load, II) pairs on {} plain and {} memory-recurrence loops",
        loops.len(),
        with_memory.len()
    );
}
