//! `mgrid` — 3D multigrid solver.
//!
//! The smoother (`RESID`/`PSINV`) applies a 27-point stencil on a 3D grid;
//! the innermost loop reads the centre line and the six face neighbours of
//! each point and accumulates them through an addition tree before writing
//! the result. The 3D strides (element, row, plane) give strong spatial reuse
//! along `I`, while the `J`/`K` neighbours touch lines far apart — exactly
//! the behaviour that makes the per-cluster cache slice precious.

use super::KernelParams;
use mvp_ir::Loop;

/// Builds the representative innermost loops of `mgrid`.
#[must_use]
pub fn loops(params: &KernelParams) -> Vec<Loop> {
    let elem = 8i64;
    let row = params.row_bytes();
    let plane_stride = row * (params.outer_trip as i64 + 2);
    let volume = (params.plane_bytes()) * (params.outer_trip + 2);

    let mut b = Loop::builder("mgrid_resid");
    let j = b.dimension("J", params.outer_trip);
    let i = b.dimension("I", params.inner_trip);

    let u = b.array("U", 16 * 4096, volume);
    let v = b.array("V", 64 * 4096, volume); // conflicts with U
    let r = b.array("R", 128 * 4096 + 1024, volume);

    let centre = b.load("U_c", b.array_ref(u).stride(i, elem).stride(j, row).build());
    let west = b.load(
        "U_w",
        b.array_ref(u)
            .offset(-elem)
            .stride(i, elem)
            .stride(j, row)
            .build(),
    );
    let east = b.load(
        "U_e",
        b.array_ref(u)
            .offset(elem)
            .stride(i, elem)
            .stride(j, row)
            .build(),
    );
    let north = b.load(
        "U_n",
        b.array_ref(u)
            .offset(row)
            .stride(i, elem)
            .stride(j, row)
            .build(),
    );
    let south = b.load(
        "U_s",
        b.array_ref(u)
            .offset(-row)
            .stride(i, elem)
            .stride(j, row)
            .build(),
    );
    let up = b.load(
        "U_up",
        b.array_ref(u)
            .offset(plane_stride)
            .stride(i, elem)
            .stride(j, row)
            .build(),
    );
    let down = b.load(
        "U_dn",
        b.array_ref(u)
            .offset(-plane_stride)
            .stride(i, elem)
            .stride(j, row)
            .build(),
    );
    let rhs = b.load("V_c", b.array_ref(v).stride(i, elem).stride(j, row).build());

    let s_we = b.fp_op("S_WE");
    let s_ns = b.fp_op("S_NS");
    let s_ud = b.fp_op("S_UD");
    let s_faces = b.fp_op("S_FACES");
    let s_all = b.fp_op("S_ALL");
    let scaled = b.fp_op("SCALED");
    let resid = b.fp_op("RESID");

    let st_r = b.store(
        "ST_R",
        b.array_ref(r).stride(i, elem).stride(j, row).build(),
    );

    b.data_edge(west, s_we, 0);
    b.data_edge(east, s_we, 0);
    b.data_edge(north, s_ns, 0);
    b.data_edge(south, s_ns, 0);
    b.data_edge(up, s_ud, 0);
    b.data_edge(down, s_ud, 0);
    b.data_edge(s_we, s_faces, 0);
    b.data_edge(s_ns, s_faces, 0);
    b.data_edge(s_ud, s_all, 0);
    b.data_edge(s_faces, s_all, 0);
    b.data_edge(centre, scaled, 0);
    b.data_edge(s_all, scaled, 0);
    b.data_edge(rhs, resid, 0);
    b.data_edge(scaled, resid, 0);
    b.data_edge(resid, st_r, 0);

    vec![b.build().expect("mgrid kernel is valid by construction")]
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvp_machine::CacheGeometry;

    #[test]
    fn operation_mix_matches_the_stencil() {
        let l = &loops(&KernelParams::default())[0];
        let (int, fp, loads, stores) = crate::op_counts(l);
        assert_eq!((int, fp, loads, stores), (0, 7, 8, 1));
        // 9 memory operations means ResMII of at least 3 on the 2-cluster
        // machine's 4 memory units.
        assert!(mvp_ir::mii::res_mii(l, &mvp_machine::presets::two_cluster()) >= 3);
    }

    #[test]
    fn all_loads_have_unit_stride_spatial_reuse() {
        let l = &loops(&KernelParams::default())[0];
        let block = CacheGeometry::direct_mapped(2048).block_bytes;
        for op in l.loads() {
            let stride = l.memory_ref_of(op).unwrap().inner_stride(l.nest());
            assert!((1..block).contains(&stride.unsigned_abs()), "{stride}");
        }
    }
}
