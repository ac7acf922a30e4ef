//! `apsi` — mesoscale pollutant transport (weather code).
//!
//! The vertical-diffusion loops mix column updates (unit stride) with
//! look-ups of per-level coefficients, a couple of integer index
//! computations and a short floating-point chain ending in one store, with a
//! smoothed value carried to the next iteration (a short recurrence).

use super::KernelParams;
use mvp_ir::Loop;

/// Builds the representative innermost loops of `apsi`.
#[must_use]
pub fn loops(params: &KernelParams) -> Vec<Loop> {
    let elem = 8i64;
    let row = params.row_bytes();
    let plane = params.plane_bytes();

    let mut b = Loop::builder("apsi_vdiff");
    let j = b.dimension("J", params.outer_trip);
    let i = b.dimension("I", params.inner_trip);

    let t = b.array("T", 0, plane);
    let q = b.array("Q", 8 * 4096, plane); // conflicts with T
    let coef = b.array("COEF", 18 * 4096 + 512, 64 * 1024);
    let out = b.array("OUT", 30 * 4096 + 1024, plane);

    let idx = b.int_op("IDX");
    let level = b.int_op("LEVEL");

    let t_i = b.load("T_i", b.array_ref(t).stride(i, elem).stride(j, row).build());
    let t_up = b.load(
        "T_up",
        b.array_ref(t)
            .offset(elem)
            .stride(i, elem)
            .stride(j, row)
            .build(),
    );
    let q_i = b.load("Q_i", b.array_ref(q).stride(i, elem).stride(j, row).build());
    let c_i = b.load("C_i", b.array_ref(coef).stride(i, elem).build());

    let grad = b.fp_op("GRAD");
    let flux = b.fp_op("FLUX");
    let mixed = b.fp_op("MIXED");
    let smooth = b.fp_op("SMOOTH");
    let result = b.fp_op("RESULT");

    let st_out = b.store(
        "ST_OUT",
        b.array_ref(out).stride(i, elem).stride(j, row).build(),
    );

    b.data_edge(idx, c_i, 0);
    b.data_edge(level, t_up, 0);
    b.data_edge(t_i, grad, 0);
    b.data_edge(t_up, grad, 0);
    b.data_edge(grad, flux, 0);
    b.data_edge(c_i, flux, 0);
    b.data_edge(q_i, mixed, 0);
    b.data_edge(flux, mixed, 0);
    b.data_edge(mixed, smooth, 0);
    b.data_edge(smooth, smooth, 1); // exponential smoothing recurrence
    b.data_edge(smooth, result, 0);
    b.data_edge(result, st_out, 0);

    vec![b.build().expect("apsi kernel is valid by construction")]
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvp_ir::{mii, recurrence};
    use mvp_machine::presets;

    #[test]
    fn operation_mix_matches_the_diffusion_loop() {
        let l = &loops(&KernelParams::default())[0];
        let (int, fp, loads, stores) = crate::op_counts(l);
        assert_eq!((int, fp, loads, stores), (2, 5, 4, 1));
    }

    #[test]
    fn the_smoothing_recurrence_is_short() {
        let l = &loops(&KernelParams::default())[0];
        let in_recurrence = recurrence::ops_in_recurrences(l);
        let on_cycle: Vec<&str> = l
            .ops()
            .iter()
            .filter(|o| in_recurrence[o.id.index()])
            .map(|o| o.name.as_str())
            .collect();
        assert_eq!(on_cycle, ["SMOOTH"]);
        // A 2-cycle FP self-recurrence: RecMII = 2.
        assert_eq!(mii::rec_mii(l, &presets::unified()), 2);
    }
}
