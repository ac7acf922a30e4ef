//! `applu` — SSOR solver for coupled partial differential equations.
//!
//! The lower-triangular sweep (`BLTS`) updates each point using the value
//! just produced for its predecessor along the sweep direction, which creates
//! a genuine loop-carried recurrence through memory *and* registers: the
//! update of `V(I)` needs `V(I-1)` of the same sweep. The recurrence, not the
//! resources, limits the II of this kernel.

use super::KernelParams;
use mvp_ir::Loop;

/// Builds the representative innermost loops of `applu`.
#[must_use]
pub fn loops(params: &KernelParams) -> Vec<Loop> {
    let elem = 8i64;
    let row = params.row_bytes();
    let plane = params.plane_bytes();

    let mut b = Loop::builder("applu_blts");
    let j = b.dimension("J", params.outer_trip);
    let i = b.dimension("I", params.inner_trip);

    let v = b.array("V", 4 * 4096, plane);
    let a = b.array("A", 28 * 4096, plane); // coefficient plane, conflicts with V
    let rsd = b.array("RSD", 44 * 4096 + 1024, plane);

    let coeff = b.load("A_i", b.array_ref(a).stride(i, elem).stride(j, row).build());
    let residual = b.load(
        "RSD_i",
        b.array_ref(rsd).stride(i, elem).stride(j, row).build(),
    );
    // V(I-1): produced by the previous iteration's store.
    let v_prev = b.load(
        "V_im1",
        b.array_ref(v)
            .offset(-elem)
            .stride(i, elem)
            .stride(j, row)
            .build(),
    );

    let contrib = b.fp_op("CONTRIB");
    let relaxed = b.fp_op("RELAXED");
    let update = b.fp_op("UPDATE");

    let st_v = b.store(
        "ST_V",
        b.array_ref(v).stride(i, elem).stride(j, row).build(),
    );

    b.data_edge(coeff, contrib, 0);
    b.data_edge(v_prev, contrib, 0);
    b.data_edge(residual, relaxed, 0);
    b.data_edge(contrib, relaxed, 0);
    b.data_edge(relaxed, update, 0);
    b.data_edge(update, st_v, 0);
    // The store of iteration i produces the value the load of iteration i+1
    // reads: a loop-carried memory dependence closing the SSOR recurrence.
    b.memory_edge(st_v, v_prev, 1);

    vec![b.build().expect("applu kernel is valid by construction")]
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvp_ir::{mii, recurrence};
    use mvp_machine::presets;

    #[test]
    fn operation_mix_matches_blts() {
        let l = &loops(&KernelParams::default())[0];
        let (int, fp, loads, stores) = crate::op_counts(l);
        assert_eq!((int, fp, loads, stores), (0, 3, 3, 1));
    }

    #[test]
    fn the_sweep_recurrence_bounds_the_ii() {
        let l = &loops(&KernelParams::default())[0];
        // Exactly the SSOR recurrence: the circuit spans
        // v_prev -> contrib -> relaxed -> update -> st_v -> v_prev, and the
        // coefficient and residual loads only feed it.
        let in_recurrence = recurrence::ops_in_recurrences(l);
        let on_cycle: Vec<&str> = l
            .ops()
            .iter()
            .filter(|o| in_recurrence[o.id.index()])
            .map(|o| o.name.as_str())
            .collect();
        assert_eq!(on_cycle, ["V_im1", "CONTRIB", "RELAXED", "UPDATE", "ST_V"]);
        // load (2) + 3 fp (2+2+2) + the store-to-load memory edge (1), over
        // distance 1: the II is bounded well above the resource minimum.
        assert_eq!(mii::rec_mii(l, &presets::unified()), 9);
        assert!(mii::res_mii(l, &presets::unified()) <= 2);
    }
}
