//! Node ordering for the unified assign-and-schedule pass.
//!
//! The paper reuses the ordering of its baseline scheduler \[22\]: nodes are
//! sorted so that, as far as possible, when a node is scheduled it has *only
//! predecessors or only successors* among the already-scheduled nodes — never
//! both — because a node squeezed between two already-placed neighbours has
//! the smallest scheduling window. Recurrence nodes come first (they are the
//! most constrained), ordered by the criticality of their recurrence.
//!
//! The implementation here is a faithful-in-spirit greedy version of that
//! ordering (the original is the swing-modulo-scheduling ordering): it starts
//! from the most critical node, then repeatedly extends the order with a
//! neighbour of the ordered set, preferring neighbours that do not yet have
//! both predecessors and successors ordered, breaking ties by height (for
//! successors-first growth) and by depth (for predecessors-first growth).

use crate::graph::Loop;
use crate::op::OpId;
use crate::recurrence;
use std::collections::HashSet;

/// Per-node priority information used by the ordering and by schedulers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodePriorities {
    /// Longest latency-weighted path from any graph source to the node
    /// (intra-iteration edges only).
    pub depth: Vec<u64>,
    /// Longest latency-weighted path from the node to any graph sink
    /// (intra-iteration edges only).
    pub height: Vec<u64>,
    /// Whether the node belongs to at least one recurrence.
    pub in_recurrence: Vec<bool>,
}

impl NodePriorities {
    /// Computes depth/height/recurrence membership for every node of `l`,
    /// using `latency_of` as the operation latency.
    pub fn compute(l: &Loop, mut latency_of: impl FnMut(OpId) -> u32) -> Self {
        let n = l.num_ops();
        let latencies: Vec<u64> = l.op_ids().map(|op| u64::from(latency_of(op))).collect();
        let order = l.zero_distance_order();

        let mut depth = vec![0u64; n];
        for &node in order {
            for edge in l.preds(node) {
                if edge.distance != 0 {
                    continue;
                }
                let cand = depth[edge.src.index()] + latencies[edge.src.index()];
                if cand > depth[node.index()] {
                    depth[node.index()] = cand;
                }
            }
        }
        let mut height = vec![0u64; n];
        for &node in order.iter().rev() {
            let i = node.index();
            height[i] = latencies[i];
            for edge in l.succs(node) {
                if edge.distance != 0 {
                    continue;
                }
                let cand = latencies[i] + height[edge.dst.index()];
                if cand > height[i] {
                    height[i] = cand;
                }
            }
        }

        Self {
            depth,
            height,
            in_recurrence: recurrence::ops_in_recurrences(l),
        }
    }
}

/// Computes the scheduling order of the loop's operations.
///
/// The returned permutation contains every operation exactly once.
pub fn schedule_order(l: &Loop, latency_of: impl FnMut(OpId) -> u32) -> Vec<OpId> {
    let n = l.num_ops();
    let prio = NodePriorities::compute(l, latency_of);
    let mut ordered: Vec<OpId> = Vec::with_capacity(n);
    let mut placed: HashSet<OpId> = HashSet::with_capacity(n);

    // Key for choosing the *seed* node of a new region: recurrence nodes
    // first, then the largest height (most critical), then smallest id for
    // determinism.
    let seed_key = |op: OpId| {
        (
            u64::from(prio.in_recurrence[op.index()]),
            prio.height[op.index()],
            u64::MAX - op.raw() as u64,
        )
    };

    while ordered.len() < n {
        // Candidate neighbours of the ordered set.
        let mut candidates: Vec<OpId> = Vec::new();
        for &done in &ordered {
            for edge in l.succs(done).chain(l.preds(done)) {
                for node in [edge.src, edge.dst] {
                    if !placed.contains(&node) && !candidates.contains(&node) {
                        candidates.push(node);
                    }
                }
            }
        }

        let next = if candidates.is_empty() {
            // Start a new connected region from the most critical node.
            l.op_ids()
                .filter(|op| !placed.contains(op))
                .max_by_key(|&op| seed_key(op))
                .expect("there are unordered nodes left")
        } else {
            // Prefer candidates that do not yet have both a predecessor and a
            // successor in the ordered set (the objective stated in [22]).
            let has_pred = |op: OpId| l.preds(op).any(|e| placed.contains(&e.src));
            let has_succ = |op: OpId| l.succs(op).any(|e| placed.contains(&e.dst));
            let key = |op: OpId| {
                let both = has_pred(op) && has_succ(op);
                let direction_priority = if has_pred(op) {
                    // Growing downwards: deeper (more critical from the top).
                    prio.height[op.index()]
                } else {
                    // Growing upwards: higher depth first.
                    prio.depth[op.index()]
                };
                (
                    u64::from(!both),
                    u64::from(prio.in_recurrence[op.index()]),
                    direction_priority,
                    u64::MAX - op.raw() as u64,
                )
            };
            candidates
                .into_iter()
                .max_by_key(|&op| key(op))
                .expect("candidate set is non-empty")
        };

        placed.insert(next);
        ordered.push(next);
    }
    ordered
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvp_machine::OperationLatencies;

    fn hit(l: &Loop) -> impl FnMut(OpId) -> u32 + '_ {
        let lat = OperationLatencies::paper_defaults();
        move |op| l.op(op).kind.hit_latency(&lat)
    }

    fn chain(n: usize) -> Loop {
        let mut b = Loop::builder("chain");
        let ops: Vec<_> = (0..n).map(|i| b.fp_op(format!("F{i}"))).collect();
        for w in 0..n - 1 {
            b.data_edge(ops[w], ops[w + 1], 0);
        }
        b.build().unwrap()
    }

    #[test]
    fn order_is_a_permutation() {
        let l = chain(6);
        let order = schedule_order(&l, hit(&l));
        assert_eq!(order.len(), 6);
        let mut sorted: Vec<usize> = order.iter().map(|o| o.index()).collect();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn priorities_on_a_chain_decrease_with_position() {
        let l = chain(4);
        let prio = NodePriorities::compute(&l, hit(&l));
        // depth grows along the chain, height shrinks.
        assert!(prio.depth[0] < prio.depth[3]);
        assert!(prio.height[0] > prio.height[3]);
        assert_eq!(prio.depth[0], 0);
        assert_eq!(prio.height[3], 2);
        assert!(!prio.in_recurrence.iter().any(|&x| x));
    }

    #[test]
    fn recurrence_nodes_are_ordered_first() {
        let mut b = Loop::builder("mixed");
        // A 2-node recurrence plus an independent chain.
        let r1 = b.fp_op("R1");
        let r2 = b.fp_op("R2");
        b.data_edge(r1, r2, 0);
        b.data_edge(r2, r1, 1);
        let c1 = b.fp_op("C1");
        let c2 = b.fp_op("C2");
        b.data_edge(c1, c2, 0);
        let l = b.build().unwrap();
        let order = schedule_order(&l, hit(&l));
        let pos = |op: OpId| order.iter().position(|&o| o == op).unwrap();
        assert!(pos(r1).max(pos(r2)) < pos(c1).min(pos(c2)));
    }

    #[test]
    fn ordering_avoids_sandwiched_nodes_on_a_diamond() {
        // ld -> f1 -> st and ld -> f2 -> st: a good order never places both
        // ld and st before f1 (or f2).
        let mut b = Loop::builder("diamond");
        let ld = b.fp_op("LD");
        let f1 = b.fp_op("F1");
        let f2 = b.fp_op("F2");
        let st = b.fp_op("ST");
        b.data_edge(ld, f1, 0);
        b.data_edge(ld, f2, 0);
        b.data_edge(f1, st, 0);
        b.data_edge(f2, st, 0);
        let l = b.build().unwrap();
        let order = schedule_order(&l, hit(&l));
        let pos = |op: OpId| order.iter().position(|&o| o == op).unwrap();
        // Count nodes that, at ordering time, already had both a pred and a
        // succ ordered. For this diamond a good order has at most one.
        let mut sandwiched = 0;
        for (idx, &op) in order.iter().enumerate() {
            let before: HashSet<OpId> = order[..idx].iter().copied().collect();
            let has_pred = l.preds(op).any(|e| before.contains(&e.src));
            let has_succ = l.succs(op).any(|e| before.contains(&e.dst));
            if has_pred && has_succ {
                sandwiched += 1;
            }
        }
        assert!(
            sandwiched <= 1,
            "order {order:?} sandwiches {sandwiched} nodes"
        );
        // Sanity: the permutation covers every node.
        assert_eq!(pos(ld) + pos(f1) + pos(f2) + pos(st), 1 + 2 + 3);
    }

    #[test]
    fn disconnected_components_are_all_ordered() {
        let mut b = Loop::builder("disconnected");
        for i in 0..5 {
            b.fp_op(format!("F{i}"));
        }
        let l = b.build().unwrap();
        let order = schedule_order(&l, hit(&l));
        assert_eq!(order.len(), 5);
    }
}
