//! Recurrence analysis of the dependence graph: one longest-path pass.
//!
//! At a candidate initiation interval `II`, every dependence edge `e` is a
//! difference constraint `t_dst − t_src ≥ w(e)` with
//! `w(e) = delay(e) − II·distance(e)`, where [`DepEdge::delay`] is the one
//! delay rule (the source latency on data edges, 1 cycle on memory edges),
//! the same rule the legality oracle applies. A cycle of positive weight
//! means the loop-carried dependences cannot fit in `II` cycles.
//! [`longest_paths`] is the one Bellman–Ford pass over these weights, and
//! everything else here is built on it:
//!
//! * [`rec_mii`], the *recurrence-constrained minimum II*: the smallest II
//!   without a positive cycle;
//! * [`latency_slack`], how many cycles a load's latency can grow before a
//!   recurrence through it forces the II up (Section 4.3: a load is only
//!   scheduled with the miss latency "provided that this latency does not
//!   increase the II if the operation is in a recurrence");
//! * [`ops_in_recurrences`], the operations that lie on some cycle.
//!
//! The exact schedulers' static windows (`mvp_exact::propagate`) are the
//! same pass run forwards and backwards from every operation.

use crate::edge::{DepEdge, EdgeKind};
use crate::graph::Loop;
use crate::op::OpId;

/// Weight of `e` at `ii`: `t_dst − t_src ≥ weight`.
fn weight(e: &DepEdge, latency: &[u32], ii: u32) -> i64 {
    i64::from(e.delay(latency[e.src.index()])) - i64::from(ii) * i64::from(e.distance)
}

/// Longest paths over the dependence graph at initiation interval `ii`,
/// with edge weights `delay − ii·distance` and per-operation `latency`.
///
/// `dist` holds the start values: `Some(x)` for an operation the paths may
/// start from at `x`, `None` for one not reached yet. On return, `dist[v]`
/// is the longest path from a start to `v`, or, with `reverse` set, the
/// longest path from `v` to a start (edges are followed backwards).
///
/// Returns `false` when a positive cycle is reachable: relaxation still
/// changes something after `n` rounds, and `dist` is then meaningless.
pub fn longest_paths(
    l: &Loop,
    ii: u32,
    latency: &[u32],
    reverse: bool,
    dist: &mut [Option<i64>],
) -> bool {
    for _ in 0..l.num_ops() {
        let mut changed = false;
        for e in l.edges() {
            let (from, to) = if reverse {
                (e.dst.index(), e.src.index())
            } else {
                (e.src.index(), e.dst.index())
            };
            let Some(d) = dist[from] else {
                continue;
            };
            let cand = d + weight(e, latency, ii);
            if dist[to].is_none_or(|x| cand > x) {
                dist[to] = Some(cand);
                changed = true;
            }
        }
        if !changed {
            return true;
        }
    }
    false
}

/// Recurrence-constrained minimum initiation interval: the smallest II at
/// which no dependence cycle has positive weight, found by binary search
/// over [`longest_paths`]. Returns 1 for acyclic graphs.
pub fn rec_mii(l: &Loop, latency_of: impl FnMut(OpId) -> u32) -> u32 {
    let latency: Vec<u32> = l.op_ids().map(latency_of).collect();
    // Every cycle has distance ≥ 1, so the sum of all delays is feasible.
    let upper: u64 = l
        .edges()
        .iter()
        .map(|e| u64::from(e.delay(latency[e.src.index()])))
        .sum::<u64>()
        .clamp(1, u64::from(u32::MAX));
    let (mut lo, mut hi) = (1, upper as u32);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        // Paths from every op at once: any positive cycle is reachable.
        if longest_paths(l, mid, &latency, false, &mut vec![Some(0); l.num_ops()]) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// How many extra cycles of latency `op` can absorb before some recurrence
/// through it would force the initiation interval above `ii`.
///
/// A latency only enters the delay of the op's outgoing *data* edges, so
/// the slack is `−W` for the heaviest cycle `W` that leaves `op` through a
/// data edge: one backward [`longest_paths`] pass from `op` gives every
/// such cycle. Returns `u32::MAX` when no such cycle exists (the latency
/// can grow freely; only the stage count grows) and 0 when a positive
/// cycle leads into `op` (`ii` is then below the RecMII of these
/// latencies).
pub fn latency_slack(l: &Loop, op: OpId, ii: u32, latency_of: impl FnMut(OpId) -> u32) -> u32 {
    let latency: Vec<u32> = l.op_ids().map(latency_of).collect();
    let mut to_op = vec![None; l.num_ops()];
    to_op[op.index()] = Some(0);
    if !longest_paths(l, ii, &latency, true, &mut to_op) {
        return 0;
    }
    l.succs(op)
        .filter(|e| e.kind == EdgeKind::Data)
        .filter_map(|e| Some(to_op[e.dst.index()]? + weight(e, &latency, ii)))
        .max()
        .map_or(u32::MAX, |heaviest| {
            (-heaviest).clamp(0, i64::from(u32::MAX)) as u32
        })
}

/// Per operation, whether it lies on some dependence cycle.
///
/// Op `v` is on a cycle when a predecessor of `v` is reachable from `v`.
/// Reachability is one forward [`longest_paths`] pass from `v`, run with
/// unit latencies at `II = n`, where no cycle can be positive.
#[must_use]
pub fn ops_in_recurrences(l: &Loop) -> Vec<bool> {
    let n = l.num_ops();
    let unit = vec![1; n];
    l.op_ids()
        .map(|v| {
            let mut from_v = vec![None; n];
            from_v[v.index()] = Some(0);
            longest_paths(l, n as u32, &unit, false, &mut from_v);
            l.preds(v).any(|e| from_v[e.src.index()].is_some())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Loop;
    use mvp_machine::OperationLatencies;

    fn hit(l: &Loop) -> impl FnMut(OpId) -> u32 + '_ {
        let lat = OperationLatencies::paper_defaults();
        move |op| l.op(op).kind.hit_latency(&lat)
    }

    /// x -> y -> x with distance 1 on the back edge; both fp (latency 2).
    fn simple_recurrence() -> Loop {
        let mut b = Loop::builder("rec");
        let x = b.fp_op("X");
        let y = b.fp_op("Y");
        b.data_edge(x, y, 0);
        b.data_edge(y, x, 1);
        b.build().unwrap()
    }

    #[test]
    fn acyclic_graph_has_rec_mii_one_and_no_recurrences() {
        let mut b = Loop::builder("chain");
        let x = b.fp_op("X");
        let y = b.fp_op("Y");
        let z = b.fp_op("Z");
        b.data_edge(x, y, 0);
        b.data_edge(y, z, 0);
        let l = b.build().unwrap();
        assert_eq!(ops_in_recurrences(&l), vec![false; 3]);
        assert_eq!(rec_mii(&l, hit(&l)), 1);
        assert_eq!(latency_slack(&l, x, 3, hit(&l)), u32::MAX);
    }

    #[test]
    fn two_node_recurrence_has_rec_mii_four() {
        let l = simple_recurrence();
        assert_eq!(rec_mii(&l, hit(&l)), 4);
        assert_eq!(ops_in_recurrences(&l), vec![true, true]);
    }

    #[test]
    fn distance_two_recurrence_halves_rec_mii() {
        let mut b = Loop::builder("rec2");
        let x = b.fp_op("X");
        let y = b.fp_op("Y");
        b.data_edge(x, y, 0);
        b.data_edge(y, x, 2);
        let l = b.build().unwrap();
        assert_eq!(rec_mii(&l, hit(&l)), 2);
    }

    #[test]
    fn self_loop_is_a_recurrence() {
        let mut b = Loop::builder("self");
        let x = b.fp_op("X");
        let y = b.fp_op("Y");
        b.data_edge(x, x, 1);
        b.data_edge(x, y, 0);
        let l = b.build().unwrap();
        assert_eq!(ops_in_recurrences(&l), vec![true, false]);
        assert_eq!(rec_mii(&l, hit(&l)), 2);
    }

    #[test]
    fn latency_slack_reflects_ii_headroom() {
        let l = simple_recurrence();
        let x = OpId::from_index(0);
        // With II = 4 the circuit latency (4) exactly meets the budget: no slack.
        assert_eq!(latency_slack(&l, x, 4, hit(&l)), 0);
        // With II = 6 there are 2 spare cycles.
        assert_eq!(latency_slack(&l, x, 6, hit(&l)), 2);
        // With II = 10 there are 6 spare cycles.
        assert_eq!(latency_slack(&l, x, 10, hit(&l)), 6);
        // Below the RecMII there is none.
        assert_eq!(latency_slack(&l, x, 3, hit(&l)), 0);
    }

    #[test]
    fn two_disjoint_circuits_take_the_max() {
        let mut b = Loop::builder("two-circuits");
        let a = b.fp_op("A");
        let c = b.fp_op("C");
        let d = b.fp_op("D");
        b.data_edge(a, a, 1); // circuit of latency 2, distance 1 -> II 2
        b.data_edge(c, d, 0);
        b.data_edge(d, c, 1); // circuit of latency 4, distance 1 -> II 4
        let l = b.build().unwrap();
        assert_eq!(rec_mii(&l, hit(&l)), 4);
        // Each op's slack is set by its own circuit only.
        assert_eq!(latency_slack(&l, a, 4, hit(&l)), 2);
        assert_eq!(latency_slack(&l, c, 4, hit(&l)), 0);
    }

    #[test]
    fn memory_edges_cost_one_cycle_on_a_recurrence() {
        // LD -> ST (memory, distance 0), ST -> LD (memory, distance 1): the
        // cycle costs 1 + 1 cycles whatever the load latency, so RecMII = 2,
        // and the load has no data edge on the cycle to raise.
        let mut b = Loop::builder("memory-recurrence");
        let i = b.dimension("I", 16);
        let a = b.auto_array("A", 1024);
        let ld = b.load("LD", b.array_ref(a).stride(i, 8).build());
        let st = b.store("ST", b.array_ref(a).stride(i, 8).build());
        b.memory_edge(ld, st, 0);
        b.memory_edge(st, ld, 1);
        let l = b.build().unwrap();
        assert_eq!(rec_mii(&l, hit(&l)), 2);
        assert_eq!(ops_in_recurrences(&l), vec![true, true]);
        assert_eq!(latency_slack(&l, ld, 2, hit(&l)), u32::MAX);
    }

    #[test]
    fn rings_bound_the_ii_by_latency_over_distance() {
        for &(dist, n_ops) in &[(1u32, 3usize), (2, 4), (3, 5)] {
            let mut b = Loop::builder("ring");
            let ops: Vec<_> = (0..n_ops).map(|i| b.fp_op(format!("F{i}"))).collect();
            for w in 0..n_ops - 1 {
                b.data_edge(ops[w], ops[w + 1], 0);
            }
            b.data_edge(ops[n_ops - 1], ops[0], dist);
            let l = b.build().unwrap();
            let latency = 2 * n_ops as u32;
            assert_eq!(rec_mii(&l, hit(&l)), latency.div_ceil(dist));
        }
    }
}
