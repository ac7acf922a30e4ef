//! Memory-ordering recurrences on top of an existing loop, for tests whose
//! corpora (the loop generator, the suite) emit none.
//!
//! The copy chains memory ops with memory edges at distance 0, from a load
//! through every memory op between them to a later store, and closes the
//! chain with a store→load memory edge at distance ≥ 1: the shape of a read
//! of `A(I)` ahead of writes that the next iteration reads again. Each
//! memory edge costs 1 cycle whatever the load latency, so the cycle of `k`
//! memory ops bounds the II by `k / distance` (rounded up).

use multivliw::ir::{Loop, OpId, OpKind};

/// A copy of `l` with one memory recurrence from the load that `pick`
/// selects to the last store after it, or `None` when `l` has no such
/// load and store or the chain would close a distance-0 cycle.
pub fn with_memory_recurrence(l: &Loop, pick: u64) -> Option<Loop> {
    let loads: Vec<OpId> = l.loads().collect();
    let load = *loads.get(pick as usize % loads.len().max(1))?;
    let store = l
        .memory_ops()
        .filter(|&op| l.op(op).kind == OpKind::Store && op > load)
        .last()?;
    let chain: Vec<OpId> = l
        .memory_ops()
        .filter(|&op| op >= load && op <= store)
        .collect();
    let back_distance = 1 + (pick / 7 % 2) as u32;

    let mut b = Loop::builder(format!("{}+memrec", l.name()));
    for d in l.nest().dims() {
        b.dimension(d.name.clone(), d.trip_count);
    }
    for a in l.arrays() {
        b.array(a.name.clone(), a.base_address, a.size_bytes);
    }
    for op in l.ops() {
        let name = op.name.clone();
        match (op.kind, l.memory_ref_of(op.id).cloned()) {
            (OpKind::Load, Some(r)) => b.load(name, r),
            (OpKind::Store, Some(r)) => b.store(name, r),
            (OpKind::IntOp, _) => b.int_op(name),
            (OpKind::FpOp, _) => b.fp_op(name),
            _ => unreachable!("memory operations carry a reference"),
        };
    }
    for e in l.edges() {
        b.edge(*e);
    }
    for pair in chain.windows(2) {
        b.memory_edge(pair[0], pair[1], 0);
    }
    b.memory_edge(store, load, back_distance);
    b.build().ok()
}
