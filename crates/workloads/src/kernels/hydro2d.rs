//! `hydro2d` — astrophysical Navier-Stokes (Godunov-type scheme).
//!
//! The flux-computation loops read the conserved quantities of a cell and
//! its west neighbour, compute interface fluxes through a chain of
//! floating-point operations (differences, averages, products) and update
//! two output planes. Address computation contributes a couple of integer
//! operations per iteration. The density and momentum planes are conflict
//! aligned, the outputs are not.

use super::KernelParams;
use mvp_ir::Loop;

/// Builds the representative innermost loops of `hydro2d`.
#[must_use]
pub fn loops(params: &KernelParams) -> Vec<Loop> {
    let elem = 8i64;
    let row = params.row_bytes();
    let plane = params.plane_bytes();

    let mut b = Loop::builder("hydro2d_flux");
    let j = b.dimension("J", params.outer_trip);
    let i = b.dimension("I", params.inner_trip);

    let ro = b.array("RO", 4 * 4096, plane);
    let mu = b.array("MU", 20 * 4096, plane); // conflicts with RO
    let en = b.array("EN", 36 * 4096 + 1536, plane);
    let fro = b.array("FRO", 52 * 4096 + 512, plane);
    let fmu = b.array("FMU", 68 * 4096 + 2560, plane);

    let addr1 = b.int_op("ADDR1");
    let addr2 = b.int_op("ADDR2");

    let ro_i = b.load(
        "RO_i",
        b.array_ref(ro).stride(i, elem).stride(j, row).build(),
    );
    let ro_w = b.load(
        "RO_w",
        b.array_ref(ro)
            .offset(-elem)
            .stride(i, elem)
            .stride(j, row)
            .build(),
    );
    let mu_i = b.load(
        "MU_i",
        b.array_ref(mu).stride(i, elem).stride(j, row).build(),
    );
    let mu_w = b.load(
        "MU_w",
        b.array_ref(mu)
            .offset(-elem)
            .stride(i, elem)
            .stride(j, row)
            .build(),
    );
    let en_i = b.load(
        "EN_i",
        b.array_ref(en).stride(i, elem).stride(j, row).build(),
    );

    let d_ro = b.fp_op("D_RO");
    let d_mu = b.fp_op("D_MU");
    let avg_ro = b.fp_op("AVG_RO");
    let vel = b.fp_op("VEL");
    let flux_ro = b.fp_op("FLUX_RO");
    let flux_mu = b.fp_op("FLUX_MU");
    let energy = b.fp_op("ENERGY");

    let st_fro = b.store(
        "ST_FRO",
        b.array_ref(fro).stride(i, elem).stride(j, row).build(),
    );
    let st_fmu = b.store(
        "ST_FMU",
        b.array_ref(fmu).stride(i, elem).stride(j, row).build(),
    );

    // Address computations feed the first loads of each plane.
    b.data_edge(addr1, ro_i, 0);
    b.data_edge(addr2, mu_i, 0);

    b.data_edge(ro_i, d_ro, 0);
    b.data_edge(ro_w, d_ro, 0);
    b.data_edge(mu_i, d_mu, 0);
    b.data_edge(mu_w, d_mu, 0);
    b.data_edge(ro_i, avg_ro, 0);
    b.data_edge(ro_w, avg_ro, 0);
    b.data_edge(mu_i, vel, 0);
    b.data_edge(avg_ro, vel, 0);
    b.data_edge(d_ro, flux_ro, 0);
    b.data_edge(vel, flux_ro, 0);
    b.data_edge(d_mu, flux_mu, 0);
    b.data_edge(vel, flux_mu, 0);
    b.data_edge(en_i, energy, 0);
    b.data_edge(flux_mu, energy, 0);
    b.data_edge(flux_ro, st_fro, 0);
    b.data_edge(energy, st_fmu, 0);

    vec![b.build().expect("hydro2d kernel is valid by construction")]
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvp_ir::mii;
    use mvp_machine::presets;

    #[test]
    fn operation_mix_matches_the_flux_loop() {
        let l = &loops(&KernelParams::default())[0];
        let (int, fp, loads, stores) = crate::op_counts(l);
        assert_eq!((int, fp, loads, stores), (2, 7, 5, 2));
    }

    #[test]
    fn resource_bound_dominates_on_the_narrow_machine() {
        let l = &loops(&KernelParams::default())[0];
        // 7 memory operations on 4 memory units: ResMII >= 2.
        assert!(mii::res_mii(l, &presets::four_cluster()) >= 2);
        assert_eq!(mii::rec_mii(l, &presets::four_cluster()), 1);
    }
}
