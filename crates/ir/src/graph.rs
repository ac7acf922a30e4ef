//! The loop body: operations + dependence edges + iteration space + arrays.

use crate::array::{Array, ArrayId, ArrayRef, ArrayRefBuilder};
use crate::edge::DepEdge;
use crate::loop_nest::{DimId, LoopNest};
use crate::op::{OpId, OpKind, Operation};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::error::Error;
use std::fmt;

/// Errors raised while building or validating a [`Loop`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum IrError {
    /// An edge refers to an operation that does not exist.
    UnknownOp {
        /// The offending identifier.
        op: OpId,
    },
    /// A memory reference points to an array that does not exist.
    UnknownArray {
        /// The offending identifier.
        array: ArrayId,
    },
    /// A memory reference uses a loop dimension outside the loop nest.
    StrideOutsideNest {
        /// Operation carrying the reference.
        op: OpId,
        /// Number of dimensions in the nest.
        nest_dims: usize,
        /// Number of stride entries in the reference.
        ref_dims: usize,
    },
    /// The intra-iteration (distance-0) dependence subgraph has a cycle, so no
    /// schedule exists.
    ZeroDistanceCycle {
        /// One operation on the cycle.
        op: OpId,
    },
    /// The loop has no operations.
    EmptyLoop,
}

impl fmt::Display for IrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrError::UnknownOp { op } => write!(f, "edge refers to unknown operation {op}"),
            IrError::UnknownArray { array } => {
                write!(f, "memory reference refers to unknown array {array}")
            }
            IrError::StrideOutsideNest {
                op,
                nest_dims,
                ref_dims,
            } => write!(
                f,
                "memory reference of {op} uses {ref_dims} dimensions but the loop nest has {nest_dims}"
            ),
            IrError::ZeroDistanceCycle { op } => write!(
                f,
                "intra-iteration dependence cycle through {op}; the loop body is unschedulable"
            ),
            IrError::EmptyLoop => write!(f, "loop has no operations"),
        }
    }
}

impl Error for IrError {}

/// A loop body ready for modulo scheduling: the data-dependence graph, the
/// loop nest it belongs to, and the arrays its memory operations reference.
#[derive(Debug, Clone, PartialEq)]
pub struct Loop {
    name: String,
    ops: Vec<Operation>,
    edges: Vec<DepEdge>,
    preds: Vec<Vec<usize>>,
    succs: Vec<Vec<usize>>,
    zero_distance_order: Vec<OpId>,
    nest: LoopNest,
    arrays: Vec<Array>,
    memory_refs: Vec<ArrayRef>,
}

impl Loop {
    /// Starts building a loop with the given name.
    #[must_use]
    pub fn builder(name: impl Into<String>) -> LoopBuilder {
        LoopBuilder::new(name)
    }

    /// Name of the loop (e.g. `"tomcatv_l1"`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of operations in the loop body.
    #[must_use]
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// All operations, in identifier order.
    #[must_use]
    pub fn ops(&self) -> &[Operation] {
        &self.ops
    }

    /// Identifiers of all operations, in order.
    pub fn op_ids(&self) -> impl Iterator<Item = OpId> + '_ {
        (0..self.ops.len()).map(OpId::from_index)
    }

    /// The operation with identifier `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this loop.
    #[must_use]
    pub fn op(&self, id: OpId) -> &Operation {
        &self.ops[id.index()]
    }

    /// All dependence edges.
    #[must_use]
    pub fn edges(&self) -> &[DepEdge] {
        &self.edges
    }

    /// Edges whose destination is `id` (dependences `pred → id`).
    pub fn preds(&self, id: OpId) -> impl Iterator<Item = &DepEdge> + '_ {
        self.preds[id.index()].iter().map(move |&e| &self.edges[e])
    }

    /// Edges whose source is `id` (dependences `id → succ`).
    pub fn succs(&self, id: OpId) -> impl Iterator<Item = &DepEdge> + '_ {
        self.succs[id.index()].iter().map(move |&e| &self.edges[e])
    }

    /// Every operation in a topological order of the distance-0 dependence
    /// subgraph: Kahn's algorithm, smallest ready id first. It always exists,
    /// because [`LoopBuilder::build`] rejects distance-0 cycles.
    #[must_use]
    pub fn zero_distance_order(&self) -> &[OpId] {
        &self.zero_distance_order
    }

    /// The loop nest the body belongs to.
    #[must_use]
    pub fn nest(&self) -> &LoopNest {
        &self.nest
    }

    /// All declared arrays.
    #[must_use]
    pub fn arrays(&self) -> &[Array] {
        &self.arrays
    }

    /// The array with identifier `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this loop.
    #[must_use]
    pub fn array(&self, id: ArrayId) -> &Array {
        &self.arrays[id.index()]
    }

    /// All memory references, indexed by [`Operation::mem_ref`].
    #[must_use]
    pub fn memory_refs(&self) -> &[ArrayRef] {
        &self.memory_refs
    }

    /// The memory reference of operation `id`, if it is a load or store.
    #[must_use]
    pub fn memory_ref_of(&self, id: OpId) -> Option<&ArrayRef> {
        self.op(id).mem_ref.map(|i| &self.memory_refs[i])
    }

    /// Byte address accessed by memory operation `id` at iteration vector
    /// `iv`, or `None` for non-memory operations.
    #[must_use]
    pub fn address_of(&self, id: OpId, iv: &[u64]) -> Option<u64> {
        let r = self.memory_ref_of(id)?;
        Some(r.address(self.array(r.array).base_address, iv))
    }

    /// Identifiers of all memory operations (loads and stores), in order.
    pub fn memory_ops(&self) -> impl Iterator<Item = OpId> + '_ {
        self.ops.iter().filter(|o| o.is_memory()).map(|o| o.id)
    }

    /// Identifiers of all load operations, in order.
    pub fn loads(&self) -> impl Iterator<Item = OpId> + '_ {
        self.ops.iter().filter(|o| o.is_load()).map(|o| o.id)
    }

    /// `NITER`: trip count of the pipelined (innermost) loop.
    #[must_use]
    pub fn iterations(&self) -> u64 {
        self.nest.inner_trip_count()
    }

    /// `NTIMES`: how many times the innermost loop is entered (product of the
    /// outer trip counts).
    #[must_use]
    pub fn times_executed(&self) -> u64 {
        self.nest.outer_trip_count()
    }

    /// Checks the loop; `in_degree` is what [`Loop::kahn_order`] left.
    fn validate(&self, in_degree: &[usize]) -> Result<(), IrError> {
        if self.ops.is_empty() {
            return Err(IrError::EmptyLoop);
        }
        for op in &self.ops {
            if let Some(r) = op.mem_ref.map(|i| &self.memory_refs[i]) {
                if r.array.index() >= self.arrays.len() {
                    return Err(IrError::UnknownArray { array: r.array });
                }
                if r.strides.len() > self.nest.num_dims() {
                    return Err(IrError::StrideOutsideNest {
                        op: op.id,
                        nest_dims: self.nest.num_dims(),
                        ref_dims: r.strides.len(),
                    });
                }
            }
        }
        match (0..self.ops.len()).find(|&i| in_degree[i] > 0) {
            Some(left_out) => Err(IrError::ZeroDistanceCycle {
                op: self.walk_back_onto_cycle(OpId::from_index(left_out), in_degree),
            }),
            None => Ok(()),
        }
    }

    /// Kahn's algorithm over the distance-0 edges, smallest ready id first.
    /// Leaves out exactly the operations on or after a distance-0 cycle;
    /// `in_degree` ends positive on those.
    fn kahn_order(&self, in_degree: &mut [usize]) -> Vec<OpId> {
        for e in self.edges.iter().filter(|e| e.distance == 0) {
            in_degree[e.dst.index()] += 1;
        }
        let mut ready: BinaryHeap<Reverse<usize>> = (0..self.ops.len())
            .filter(|&i| in_degree[i] == 0)
            .map(Reverse)
            .collect();
        let mut order = Vec::with_capacity(self.ops.len());
        while let Some(Reverse(i)) = ready.pop() {
            order.push(OpId::from_index(i));
            for e in self.succs(OpId::from_index(i)).filter(|e| e.distance == 0) {
                in_degree[e.dst.index()] -= 1;
                if in_degree[e.dst.index()] == 0 {
                    ready.push(Reverse(e.dst.index()));
                }
            }
        }
        order
    }

    /// An operation on a distance-0 cycle, from `op`, one the Kahn order
    /// left out. Each left-out op has a left-out distance-0 predecessor, so
    /// walking back `n` such steps ends on a cycle.
    fn walk_back_onto_cycle(&self, mut op: OpId, in_degree: &[usize]) -> OpId {
        for _ in 0..self.ops.len() {
            op = self
                .preds(op)
                .find(|e| e.distance == 0 && in_degree[e.src.index()] > 0)
                .map_or(op, |e| e.src);
        }
        op
    }
}

impl fmt::Display for Loop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} ops, {} edges, nest {}",
            self.name,
            self.ops.len(),
            self.edges.len(),
            self.nest
        )
    }
}

/// Builder for [`Loop`] (see the crate-level example).
#[derive(Debug, Clone)]
pub struct LoopBuilder {
    name: String,
    ops: Vec<Operation>,
    edges: Vec<DepEdge>,
    nest: LoopNest,
    arrays: Vec<Array>,
    memory_refs: Vec<ArrayRef>,
    next_array_base: u64,
}

impl LoopBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            ops: Vec::new(),
            edges: Vec::new(),
            nest: LoopNest::new(),
            arrays: Vec::new(),
            memory_refs: Vec::new(),
            next_array_base: 0x10_0000,
        }
    }

    /// Adds a loop dimension inside the current innermost one.
    pub fn dimension(&mut self, name: impl Into<String>, trip_count: u64) -> DimId {
        self.nest.push_dimension(name, trip_count)
    }

    /// Declares an array at an explicit base address.
    pub fn array(
        &mut self,
        name: impl Into<String>,
        base_address: u64,
        size_bytes: u64,
    ) -> ArrayId {
        let id = ArrayId::from_index(self.arrays.len());
        self.arrays.push(Array {
            id,
            name: name.into(),
            base_address,
            size_bytes,
        });
        id
    }

    /// Declares an array placed automatically after all previously declared
    /// arrays, aligned to 64 bytes. Use [`LoopBuilder::array`] to control the
    /// base address precisely (e.g. to force the Figure-3 conflict alignment).
    pub fn auto_array(&mut self, name: impl Into<String>, size_bytes: u64) -> ArrayId {
        let base = self.next_array_base;
        self.next_array_base = (self.next_array_base + size_bytes + 63) & !63;
        self.array(name, base, size_bytes)
    }

    /// Starts an [`ArrayRef`] builder for `array`.
    #[must_use]
    pub fn array_ref(&self, array: ArrayId) -> ArrayRefBuilder {
        ArrayRef::builder(array)
    }

    fn push_op(&mut self, kind: OpKind, name: impl Into<String>, mem_ref: Option<usize>) -> OpId {
        let id = OpId::from_index(self.ops.len());
        self.ops.push(Operation {
            id,
            kind,
            name: name.into(),
            mem_ref,
        });
        id
    }

    /// Adds an integer operation.
    pub fn int_op(&mut self, name: impl Into<String>) -> OpId {
        self.push_op(OpKind::IntOp, name, None)
    }

    /// Adds a floating-point operation.
    pub fn fp_op(&mut self, name: impl Into<String>) -> OpId {
        self.push_op(OpKind::FpOp, name, None)
    }

    /// Adds a load of the given affine reference.
    pub fn load(&mut self, name: impl Into<String>, array_ref: ArrayRef) -> OpId {
        let idx = self.memory_refs.len();
        self.memory_refs.push(array_ref);
        self.push_op(OpKind::Load, name, Some(idx))
    }

    /// Adds a store of the given affine reference.
    pub fn store(&mut self, name: impl Into<String>, array_ref: ArrayRef) -> OpId {
        let idx = self.memory_refs.len();
        self.memory_refs.push(array_ref);
        self.push_op(OpKind::Store, name, Some(idx))
    }

    /// Adds a register-value dependence `src → dst` with the given iteration
    /// distance.
    pub fn data_edge(&mut self, src: OpId, dst: OpId, distance: u32) -> &mut Self {
        self.edges.push(DepEdge::data(src, dst, distance));
        self
    }

    /// Adds a memory-ordering dependence `src → dst` with the given iteration
    /// distance.
    pub fn memory_edge(&mut self, src: OpId, dst: OpId, distance: u32) -> &mut Self {
        self.edges.push(DepEdge::memory(src, dst, distance));
        self
    }

    /// Adds an explicit [`DepEdge`].
    pub fn edge(&mut self, edge: DepEdge) -> &mut Self {
        self.edges.push(edge);
        self
    }

    /// Number of operations added so far.
    #[must_use]
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Builds and validates the loop.
    ///
    /// # Errors
    ///
    /// Returns an [`IrError`] when the loop is empty, an edge or reference
    /// points outside the loop, or the distance-0 subgraph contains a cycle.
    pub fn build(self) -> Result<Loop, IrError> {
        let n = self.ops.len();
        let mut preds = vec![Vec::new(); n];
        let mut succs = vec![Vec::new(); n];
        for (i, edge) in self.edges.iter().enumerate() {
            if edge.src.index() >= n {
                return Err(IrError::UnknownOp { op: edge.src });
            }
            if edge.dst.index() >= n {
                return Err(IrError::UnknownOp { op: edge.dst });
            }
            succs[edge.src.index()].push(i);
            preds[edge.dst.index()].push(i);
        }
        let mut l = Loop {
            name: self.name,
            ops: self.ops,
            edges: self.edges,
            preds,
            succs,
            zero_distance_order: Vec::new(),
            nest: self.nest,
            arrays: self.arrays,
            memory_refs: self.memory_refs,
        };
        let mut in_degree = vec![0; n];
        l.zero_distance_order = l.kahn_order(&mut in_degree);
        l.validate(&in_degree)?;
        Ok(l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small diamond with one loop-carried back edge.
    fn diamond() -> Loop {
        let mut b = Loop::builder("diamond");
        let i = b.dimension("I", 16);
        let a = b.auto_array("A", 1024);
        let ld = b.load("LD", b.array_ref(a).stride(i, 8).build());
        let f1 = b.fp_op("F1");
        let f2 = b.fp_op("F2");
        let st = b.store("ST", b.array_ref(a).stride(i, 8).build());
        b.data_edge(ld, f1, 0);
        b.data_edge(ld, f2, 0);
        b.data_edge(f1, st, 0);
        b.data_edge(f2, st, 0);
        b.data_edge(st, ld, 1); // loop-carried
        b.build().unwrap()
    }

    #[test]
    fn builder_produces_consistent_graph() {
        let l = diamond();
        assert_eq!(l.num_ops(), 4);
        assert_eq!(l.edges().len(), 5);
        let kinds: Vec<OpKind> = l.ops().iter().map(|op| op.kind).collect();
        assert_eq!(
            kinds,
            [OpKind::Load, OpKind::FpOp, OpKind::FpOp, OpKind::Store]
        );
        let ld = OpId::from_index(0);
        let st = OpId::from_index(3);
        assert_eq!(l.succs(ld).count(), 2);
        assert_eq!(l.preds(st).count(), 2);
        assert_eq!(l.preds(ld).count(), 1);
        assert_eq!(l.preds(ld).next().unwrap().distance, 1);
        assert_eq!(l.memory_ops().count(), 2);
        assert_eq!(l.loads().count(), 1);
        assert_eq!(l.iterations(), 16);
        assert_eq!(l.times_executed(), 1);
        assert!(l.to_string().contains("diamond"));
    }

    #[test]
    fn addresses_follow_the_affine_reference() {
        let l = diamond();
        let ld = OpId::from_index(0);
        let base = l.array(ArrayId::from_index(0)).base_address;
        assert_eq!(l.address_of(ld, &[0]), Some(base));
        assert_eq!(l.address_of(ld, &[5]), Some(base + 40));
        // Non-memory ops have no address.
        assert_eq!(l.address_of(OpId::from_index(1), &[0]), None);
    }

    #[test]
    fn empty_loop_is_rejected() {
        let b = Loop::builder("empty");
        assert_eq!(b.build().unwrap_err(), IrError::EmptyLoop);
    }

    #[test]
    fn unknown_op_in_edge_is_rejected() {
        let unknown = OpId::from_index(9);
        for outgoing in [true, false] {
            let mut b = Loop::builder("bad");
            let x = b.int_op("X");
            if outgoing {
                b.data_edge(x, unknown, 0);
            } else {
                b.data_edge(unknown, x, 1);
            }
            assert_eq!(b.build().unwrap_err(), IrError::UnknownOp { op: unknown });
        }
    }

    #[test]
    fn zero_distance_cycle_is_rejected_naming_an_op_on_it() {
        // W -> X -> Y -> X, with Y also feeding Z: only X and Y are on it.
        let mut b = Loop::builder("cycle");
        let w = b.int_op("W");
        let x = b.int_op("X");
        let y = b.int_op("Y");
        let z = b.int_op("Z");
        b.data_edge(w, x, 0);
        b.data_edge(x, y, 0);
        b.data_edge(y, x, 0);
        b.data_edge(y, z, 0);
        let IrError::ZeroDistanceCycle { op } = b.build().unwrap_err() else {
            panic!("expected a distance-0 cycle");
        };
        assert!(op == x || op == y, "{op} is not on the cycle");
    }

    #[test]
    fn zero_distance_order_takes_the_smallest_ready_id_first() {
        // 3 -> 0 and 2 -> 1 at distance 0, 0 -> 3 loop-carried.
        let mut b = Loop::builder("kahn");
        let ops: Vec<OpId> = (0..4).map(|k| b.fp_op(format!("F{k}"))).collect();
        b.data_edge(ops[3], ops[0], 0);
        b.data_edge(ops[2], ops[1], 0);
        b.data_edge(ops[0], ops[3], 1);
        let l = b.build().unwrap();
        let order: Vec<usize> = l.zero_distance_order().iter().map(|o| o.index()).collect();
        assert_eq!(order, vec![2, 1, 3, 0]);
    }

    #[test]
    fn loop_carried_cycle_is_accepted() {
        let mut b = Loop::builder("recurrence");
        let x = b.fp_op("X");
        let y = b.fp_op("Y");
        b.data_edge(x, y, 0);
        b.data_edge(y, x, 1);
        assert!(b.build().is_ok());
    }

    #[test]
    fn stride_outside_nest_is_rejected() {
        let mut b = Loop::builder("bad-ref");
        let _i = b.dimension("I", 4);
        let a = b.auto_array("A", 64);
        // Reference uses dimension 3 but the nest has only 1 dimension.
        let r = b.array_ref(a).stride(DimId::from_index(3), 8).build();
        b.load("LD", r);
        assert!(matches!(
            b.build().unwrap_err(),
            IrError::StrideOutsideNest { .. }
        ));
    }

    #[test]
    fn auto_array_places_arrays_without_overlap() {
        let mut b = Loop::builder("alloc");
        let a = b.auto_array("A", 100);
        let c = b.auto_array("C", 100);
        let (a_base, a_size) = {
            let arr = &b.arrays[a.index()];
            (arr.base_address, arr.size_bytes)
        };
        let c_base = b.arrays[c.index()].base_address;
        assert!(c_base >= a_base + a_size);
        assert_eq!(c_base % 64, 0);
    }

    #[test]
    fn error_display_is_nonempty() {
        let errs = [
            IrError::EmptyLoop,
            IrError::UnknownOp {
                op: OpId::from_index(1),
            },
            IrError::UnknownArray {
                array: ArrayId::from_index(0),
            },
            IrError::ZeroDistanceCycle {
                op: OpId::from_index(2),
            },
            IrError::StrideOutsideNest {
                op: OpId::from_index(0),
                nest_dims: 1,
                ref_dims: 2,
            },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
