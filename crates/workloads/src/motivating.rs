//! The motivating example of Section 3 (Figure 3).
//!
//! ```fortran
//! DO I = 1, N, 2
//!   A(I) = B(I)*C(I) + B(I+1)*C(I+1)
//! ENDDO
//! ```
//!
//! The loop is unrolled by two, so each iteration of the pipelined loop
//! issues four loads (`LD1 = B(I)`, `LD2 = C(I)`, `LD3 = B(I+1)`,
//! `LD4 = C(I+1)`), two multiplications, one addition and one store. The
//! arrays `B` and `C` are laid out at a distance that is a multiple of the
//! local cache capacity, which creates the ping-pong conflicts the paper uses
//! to motivate memory-aware cluster selection: `LD1`/`LD3` and `LD2`/`LD4`
//! enjoy group and spatial reuse, but mixing a `B` reference with a `C`
//! reference in the same local cache makes every access miss.

use mvp_ir::{Loop, OpId};

/// Parameters of the motivating loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MotivatingParams {
    /// Trip count of the pipelined loop (the paper's `N/2`, since the source
    /// loop steps by 2).
    pub iterations: u64,
    /// Capacity of one local (per-cluster) data cache in bytes. `B` and `C`
    /// are placed an exact multiple of this apart so that `B(I)` and `C(I)`
    /// map to the same cache set.
    pub local_cache_bytes: u64,
}

impl Default for MotivatingParams {
    fn default() -> Self {
        Self {
            iterations: 256,
            local_cache_bytes: 1024,
        }
    }
}

/// Named handles to the operations of the motivating loop, for tests and for
/// the Figure-3 harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MotivatingOps {
    /// `B(I)`
    pub ld1: OpId,
    /// `C(I)`
    pub ld2: OpId,
    /// `B(I+1)`
    pub ld3: OpId,
    /// `C(I+1)`
    pub ld4: OpId,
    /// `B(I)*C(I)`
    pub mul1: OpId,
    /// `B(I+1)*C(I+1)`
    pub mul2: OpId,
    /// the sum of the two products
    pub add: OpId,
    /// `A(I) = ...`
    pub store: OpId,
}

/// Builds the Figure-3 loop. Returns the loop plus named operation handles.
#[must_use]
pub fn motivating_loop(params: &MotivatingParams) -> (Loop, MotivatingOps) {
    let elem = 8i64; // double precision
    let cache = params.local_cache_bytes;
    // Each pipelined iteration advances I by 2 elements.
    let iter_stride = 2 * elem;
    let array_bytes = (params.iterations + 2) * 2 * elem as u64;

    let mut b = Loop::builder("motivating");
    let i = b.dimension("I", params.iterations);
    // B and C are a multiple of the local cache capacity apart (ping-pong);
    // A lives far away and is only stored to.
    let arr_b = b.array("B", 0, array_bytes);
    let arr_c = b.array("C", 8 * cache, array_bytes);
    let arr_a = b.array("A", 16 * cache + cache / 2, array_bytes);

    let ld1 = b.load("LD1", b.array_ref(arr_b).stride(i, iter_stride).build());
    let ld2 = b.load("LD2", b.array_ref(arr_c).stride(i, iter_stride).build());
    let ld3 = b.load(
        "LD3",
        b.array_ref(arr_b)
            .offset(elem)
            .stride(i, iter_stride)
            .build(),
    );
    let ld4 = b.load(
        "LD4",
        b.array_ref(arr_c)
            .offset(elem)
            .stride(i, iter_stride)
            .build(),
    );
    let mul1 = b.fp_op("MUL1");
    let mul2 = b.fp_op("MUL2");
    let add = b.fp_op("ADD");
    let store = b.store("ST", b.array_ref(arr_a).stride(i, iter_stride).build());

    b.data_edge(ld1, mul1, 0);
    b.data_edge(ld2, mul1, 0);
    b.data_edge(ld3, mul2, 0);
    b.data_edge(ld4, mul2, 0);
    b.data_edge(mul1, add, 0);
    b.data_edge(mul2, add, 0);
    b.data_edge(add, store, 0);

    let l = b
        .build()
        .expect("the motivating loop is valid by construction");
    (
        l,
        MotivatingOps {
            ld1,
            ld2,
            ld3,
            ld4,
            mul1,
            mul2,
            add,
            store,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvp_ir::mii;
    use mvp_machine::presets;

    #[test]
    fn structure_matches_figure_3() {
        let (l, ops) = motivating_loop(&MotivatingParams::default());
        assert_eq!(l.num_ops(), 8);
        let (int, fp, loads, stores) = crate::op_counts(&l);
        assert_eq!((int, fp, loads, stores), (0, 3, 4, 1));
        assert_eq!(l.edges().len(), 7);
        assert_eq!(l.preds(ops.add).count(), 2);
        assert_eq!(l.succs(ops.ld1).count(), 1);
        assert_eq!(l.iterations(), 256);
    }

    #[test]
    fn mii_is_three_on_the_motivating_machine() {
        // Section 3: "the minimum initiation interval (mII) for an equivalent
        // unified architecture with the same resources is 3 cycles".
        let (l, _) = motivating_loop(&MotivatingParams::default());
        let machine = presets::motivating_example_machine();
        assert_eq!(mii::minimum_ii(&l, &machine), 3);
    }

    #[test]
    fn b_and_c_conflict_in_the_local_cache() {
        let params = MotivatingParams::default();
        let (l, ops) = motivating_loop(&params);
        let geometry = mvp_machine::CacheGeometry::direct_mapped(params.local_cache_bytes);
        let addr_b = l.address_of(ops.ld1, &[5]).unwrap();
        let addr_c = l.address_of(ops.ld2, &[5]).unwrap();
        assert_ne!(addr_b, addr_c);
        assert_eq!(geometry.set_of(addr_b), geometry.set_of(addr_c));
        // LD1 and LD3 touch consecutive elements (group reuse).
        let a1 = l.address_of(ops.ld1, &[7]).unwrap();
        let a3 = l.address_of(ops.ld3, &[7]).unwrap();
        assert_eq!(a3 - a1, 8);
    }

    #[test]
    fn parameters_scale_the_loop() {
        let params = MotivatingParams {
            iterations: 32,
            local_cache_bytes: 4096,
        };
        let (l, _) = motivating_loop(&params);
        assert_eq!(l.iterations(), 32);
        let geometry = mvp_machine::CacheGeometry::direct_mapped(4096);
        let (l2, ops) = motivating_loop(&params);
        let addr_b = l2.address_of(ops.ld1, &[0]).unwrap();
        let addr_c = l2.address_of(ops.ld2, &[0]).unwrap();
        assert_eq!(geometry.set_of(addr_b), geometry.set_of(addr_c));
        drop(l);
    }
}
