//! `su2cor` — quantum chromodynamics (SU(2) gauge field correlations).
//!
//! The hot loops perform complex matrix-vector products followed by a global
//! accumulation. The model multiplies a complex operand pair per iteration
//! (four loads, complex multiply = 4 multiplications + 2 additions) and folds
//! the result into two accumulators carried across iterations — the
//! loop-carried recurrence that constrains the II of this benchmark.

use super::KernelParams;
use mvp_ir::Loop;

/// Builds the representative innermost loops of `su2cor`.
#[must_use]
pub fn loops(params: &KernelParams) -> Vec<Loop> {
    let elem = 8i64;
    let plane = params.plane_bytes();

    let mut b = Loop::builder("su2cor_dot");
    let k = b.dimension("K", params.outer_trip);
    let i = b.dimension("I", params.inner_trip);

    // Interleaved complex arrays: (re, im) pairs, 16 bytes per element.
    let a = b.array("GA", 0, 2 * plane);
    let w = b.array("W", 12 * 4096 + 1024, 2 * plane);

    let a_re = b.load(
        "A_re",
        b.array_ref(a).stride(i, 2 * elem).stride(k, 256).build(),
    );
    let a_im = b.load(
        "A_im",
        b.array_ref(a)
            .offset(elem)
            .stride(i, 2 * elem)
            .stride(k, 256)
            .build(),
    );
    let w_re = b.load(
        "W_re",
        b.array_ref(w).stride(i, 2 * elem).stride(k, 256).build(),
    );
    let w_im = b.load(
        "W_im",
        b.array_ref(w)
            .offset(elem)
            .stride(i, 2 * elem)
            .stride(k, 256)
            .build(),
    );

    let m_rr = b.fp_op("M_rr");
    let m_ii = b.fp_op("M_ii");
    let m_ri = b.fp_op("M_ri");
    let m_ir = b.fp_op("M_ir");
    let prod_re = b.fp_op("PROD_re");
    let prod_im = b.fp_op("PROD_im");
    let acc_re = b.fp_op("ACC_re");
    let acc_im = b.fp_op("ACC_im");

    b.data_edge(a_re, m_rr, 0);
    b.data_edge(w_re, m_rr, 0);
    b.data_edge(a_im, m_ii, 0);
    b.data_edge(w_im, m_ii, 0);
    b.data_edge(a_re, m_ri, 0);
    b.data_edge(w_im, m_ri, 0);
    b.data_edge(a_im, m_ir, 0);
    b.data_edge(w_re, m_ir, 0);
    b.data_edge(m_rr, prod_re, 0);
    b.data_edge(m_ii, prod_re, 0);
    b.data_edge(m_ri, prod_im, 0);
    b.data_edge(m_ir, prod_im, 0);
    // Accumulator recurrences.
    b.data_edge(prod_re, acc_re, 0);
    b.data_edge(acc_re, acc_re, 1);
    b.data_edge(prod_im, acc_im, 0);
    b.data_edge(acc_im, acc_im, 1);

    vec![b.build().expect("su2cor kernel is valid by construction")]
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvp_ir::{mii, recurrence};
    use mvp_machine::presets;

    #[test]
    fn operation_mix_is_a_complex_dot_product() {
        let l = &loops(&KernelParams::default())[0];
        let (int, fp, loads, stores) = crate::op_counts(l);
        assert_eq!((int, fp, loads, stores), (0, 8, 4, 0));
    }

    #[test]
    fn the_accumulators_form_recurrences() {
        let l = &loops(&KernelParams::default())[0];
        let in_recurrence = recurrence::ops_in_recurrences(l);
        let on_cycle: Vec<&str> = l
            .ops()
            .iter()
            .filter(|o| in_recurrence[o.id.index()])
            .map(|o| o.name.as_str())
            .collect();
        assert_eq!(on_cycle, ["ACC_re", "ACC_im"]);
        // The 2-cycle FP accumulator bounds the II at 2 even on the widest
        // machine.
        assert_eq!(mii::rec_mii(l, &presets::unified()), 2);
        assert!(mii::minimum_ii(l, &presets::unified()) >= 2);
    }
}
