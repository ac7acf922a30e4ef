//! Property-style tests of the incremental constraint kernel, driven by a
//! seeded RNG sweep (the workspace builds without `proptest`).
//!
//! The round-trip properties here took over from the retired
//! `mvp-machine` modulo-reservation-table tests: capacity rules are now
//! enforced by [`PartialSchedule`], so that is where the properties live.

use mvp_ir::{Loop, OpId};
use mvp_machine::{presets, MachineConfig};
use mvp_resmodel::{NeighbourBounds, PartialSchedule, PlaceError, ResModel};
use mvp_testutil::SplitMix64;

/// A loop of `n` independent loads (no edges): every placement decision is
/// purely a functional-unit capacity question.
fn independent_loads(n: usize) -> Loop {
    let mut b = Loop::builder("loads");
    let i = b.dimension("I", 64);
    for k in 0..n {
        let a = b.auto_array(format!("A{k}"), 4096);
        b.load(format!("LD{k}"), b.array_ref(a).stride(i, 8).build());
    }
    b.build().unwrap()
}

/// A functional-unit row never accepts more reservations than the cluster
/// has units of that kind, the conflict always names the maximum occupant
/// token, and releasing restores the capacity.
#[test]
fn fu_row_capacity_is_respected() {
    let mut rng = SplitMix64::seed_from_u64(0xE55E);
    let machine = presets::two_cluster(); // 2 memory units per cluster
    let l = independent_loads(8);
    let model = ResModel::new(&l, &machine).unwrap();
    for _ in 0..128 {
        let ii = rng.gen_range_inclusive(1, 11) as u32;
        let cycle = rng.gen_index(200) as i64;
        let extra = rng.gen_range_inclusive(1, 3) as i64;

        let mut ps = PartialSchedule::new(&model, ii);
        let capacity = 2usize;
        // Fill the row completely (same row, different absolute cycles).
        for k in 0..capacity {
            ps.try_reserve_op(
                OpId::from_index(k),
                0,
                cycle + k as i64 * i64::from(ii),
                2,
                false,
                k as u32,
            )
            .unwrap();
        }
        // Any cycle mapping to the same row is full, and the conflict
        // carries the deepest (maximum) occupant token.
        let err = ps
            .try_reserve_op(
                OpId::from_index(capacity),
                0,
                cycle + extra * i64::from(ii),
                2,
                false,
                9,
            )
            .unwrap_err();
        assert_eq!(
            err,
            PlaceError::FuBusy {
                conflict: Some(capacity as u32 - 1)
            }
        );
        // The other cluster is unaffected; releasing frees the row again.
        ps.try_reserve_op(OpId::from_index(capacity), 1, cycle, 2, false, 9)
            .unwrap();
        ps.release_op(OpId::from_index(capacity));
        ps.release_op(OpId::from_index(capacity - 1));
        ps.try_reserve_op(OpId::from_index(capacity - 1), 0, cycle, 2, false, 5)
            .unwrap();
    }
}

/// Register-bus transfers never overlap on the same bus, the table holds
/// exactly `buses × II` latency-1 transfers, and LIFO release restores full
/// capacity.
#[test]
fn register_bus_reservations_round_trip() {
    let mut rng = SplitMix64::seed_from_u64(0xF66F);
    let machine = presets::two_cluster(); // 2 buses, latency 1
    let l = independent_loads(2);
    let model = ResModel::new(&l, &machine).unwrap();
    let (src, dst) = (OpId::from_index(0), OpId::from_index(1));
    for _ in 0..128 {
        let ii = rng.gen_range_inclusive(2, 9) as u32;
        let start = rng.gen_index(40) as i64;

        let mut ps = PartialSchedule::new(&model, ii);
        let mut reserved = Vec::new();
        let mut cycle = start;
        while let Some(id) = ps.reserve_transfer_earliest(src, dst, 0, 1, cycle, cycle, 7) {
            reserved.push(id);
            cycle += 1;
            assert!(reserved.len() <= 2 * ii as usize);
        }
        // With 2 buses of latency 1 the table holds exactly 2 * II transfers.
        assert_eq!(reserved.len(), 2 * ii as usize);
        for id in reserved.into_iter().rev() {
            ps.release_transfer(id);
        }
        assert_eq!(ps.num_transfers(), 0);
        assert!(ps
            .reserve_transfer_earliest(src, dst, 0, 1, start, start, 7)
            .is_some());
    }
}

/// A random loop with forward data edges for the round-trip property below.
fn random_loop(rng: &mut SplitMix64, n: usize) -> Loop {
    let mut b = Loop::builder("random");
    let i = b.dimension("I", 64);
    let mut ops = Vec::new();
    for k in 0..n {
        if rng.gen_index(3) == 0 {
            let a = b.auto_array(format!("A{k}"), 4096);
            ops.push(b.load(format!("LD{k}"), b.array_ref(a).stride(i, 8).build()));
        } else {
            ops.push(b.fp_op(format!("F{k}")));
        }
    }
    for dst in 1..n {
        if rng.gen_index(2) == 0 {
            let src = rng.gen_index(dst);
            b.data_edge(ops[src], ops[dst], 0);
        }
    }
    b.build().unwrap()
}

/// The kernel's use counts and its all-cluster window against what they
/// replace: `max_used_cluster`/`max_used_bus` equal a scan of the placements
/// and transfers, and for every unplaced op the one-walk window in each
/// cluster equals the single-cluster `neighbour_bounds`.
fn check_counts_and_windows(
    ps: &PartialSchedule<'_, '_, '_>,
    model: &ResModel<'_, '_>,
    init: (Option<i64>, Option<i64>),
) {
    let ops = || (0..model.num_ops()).map(OpId::from_index);
    let placed_max = ops()
        .filter_map(|op| ps.placement(op))
        .map(|p| p.cluster)
        .max();
    assert_eq!(ps.max_used_cluster(), placed_max);
    let bus_max = ps.communications().iter().map(|c| c.bus).max();
    assert_eq!(
        ps.max_used_bus(),
        bus_max.filter(|_| model.num_buses.is_some())
    );

    let mut all = vec![NeighbourBounds::default(); model.machine.num_clusters()];
    for op in ops().filter(|&op| ps.placement(op).is_none()) {
        let lat = model.latency[op.index()];
        ps.neighbour_bounds_per_cluster(op, lat, init.0, init.1, &mut all);
        for (c, window) in all.iter().enumerate() {
            assert_eq!(
                *window,
                ps.neighbour_bounds(op, c, lat, init.0, init.1),
                "{op} in cluster {c}"
            );
        }
    }
}

/// `place` + `unplace` is the identity on every observable of the kernel:
/// pressure, placements, occupancy maxima and the transfer stack. On the
/// 4-cluster machine and on the motivating machine (one register bus of
/// latency 2, whose transfers wrap around the modulo table) as well as the
/// 2-cluster one, the use counts and the all-cluster window agree with the
/// scans they replace at every snapshot.
#[test]
fn place_unplace_round_trips_observable_state() {
    let mut rng = SplitMix64::seed_from_u64(0xD00D);
    let machines: [MachineConfig; 3] = [
        presets::two_cluster(),
        presets::four_cluster(),
        presets::motivating_example_machine(),
    ];
    for round in 0..192 {
        let machine = &machines[round % machines.len()];
        let n = rng.gen_range_inclusive(3, 9);
        let l = random_loop(&mut rng, n);
        let model = ResModel::new(&l, machine).unwrap();
        let ii = rng.gen_range_inclusive(1, 4) as u32;
        let mut ps = PartialSchedule::new(&model, ii);
        let lo = rng.gen_index(3) as i64 - 1;
        let init = if rng.gen_index(2) == 0 {
            (None, None)
        } else {
            (Some(lo), Some(lo + rng.gen_index(8) as i64))
        };

        // Greedily place a prefix of the operations (first fitting cluster
        // and cycle inside a bounded scan).
        let mut handles = Vec::new();
        'ops: for k in 0..n {
            let op = OpId::from_index(k);
            let lat = model.latency[k];
            for cluster in 0..machine.num_clusters() {
                for t in 0..i64::from(4 * ii) {
                    if let Ok(h) = ps.place(op, cluster, t, lat, false, k as u32) {
                        handles.push(h);
                        check_counts_and_windows(&ps, &model, init);
                        continue 'ops;
                    }
                }
            }
            break; // this op does not fit in the scan window: stop the prefix
        }

        let snapshot = (
            ps.num_placed(),
            ps.num_transfers(),
            ps.pressure_lower_bound().to_vec(),
            ps.max_used_cluster(),
            ps.max_used_bus(),
        );
        // The incremental pressure agrees with the batch recomputation.
        assert_eq!(
            ps.pressure_lower_bound(),
            ps.recomputed_pressure_lower_bound().as_slice()
        );

        // Probe every remaining unplaced op everywhere; each probe must
        // leave the kernel exactly where it was.
        for k in 0..n {
            let op = OpId::from_index(k);
            if ps.placement(op).is_some() {
                continue;
            }
            for cluster in 0..machine.num_clusters() {
                for t in 0..i64::from(2 * ii) {
                    if let Ok(h) = ps.place(op, cluster, t, model.latency[k], false, 77) {
                        check_counts_and_windows(&ps, &model, init);
                        ps.unplace(h);
                    }
                }
            }
            let now = (
                ps.num_placed(),
                ps.num_transfers(),
                ps.pressure_lower_bound().to_vec(),
                ps.max_used_cluster(),
                ps.max_used_bus(),
            );
            assert_eq!(now, snapshot, "probing {op} perturbed the kernel");
            check_counts_and_windows(&ps, &model, init);
        }

        // Unwinding the whole prefix restores the empty kernel.
        for h in handles.into_iter().rev() {
            ps.unplace(h);
            check_counts_and_windows(&ps, &model, init);
        }
        assert_eq!(ps.num_placed(), 0);
        assert_eq!(ps.num_transfers(), 0);
        assert!(ps.pressure_lower_bound().iter().all(|&p| p == 0));
    }
}
