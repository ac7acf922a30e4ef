//! `tomcatv` — vectorised mesh generation.
//!
//! The dominant loop sweeps a 2D mesh and computes residuals from the
//! coordinates of the four neighbours of every point:
//!
//! ```fortran
//! DO J = 2, N-1
//!   DO I = 2, N-1
//!     XX = X(I+1,J) - X(I-1,J)
//!     YX = Y(I+1,J) - Y(I-1,J)
//!     XY = X(I,J+1) - X(I,J-1)
//!     YY = Y(I,J+1) - Y(I,J-1)
//!     RX(I,J) = a*XX + b*XY
//!     RY(I,J) = a*YX + b*YY
//!   ENDDO
//! ENDDO
//! ```
//!
//! Eight neighbour loads on two arrays with strong spatial and group reuse
//! along `I`, a small tree of floating-point operations and two stores. The
//! `X` and `Y` planes are laid out a multiple of 4 KB apart so that mixing
//! `X` and `Y` references in the same small local cache causes conflict
//! misses, while keeping each array's references together preserves reuse.

use super::KernelParams;
use mvp_ir::Loop;

/// Builds the representative innermost loops of `tomcatv`.
#[must_use]
pub fn loops(params: &KernelParams) -> Vec<Loop> {
    let elem = 8i64;
    let row = params.row_bytes();
    let plane = params.plane_bytes();

    let mut b = Loop::builder("tomcatv_residual");
    let j = b.dimension("J", params.outer_trip);
    let i = b.dimension("I", params.inner_trip);

    // X and Y conflict-aligned (multiple of 4 KB apart); RX/RY further away.
    let x = b.array("X", 4 * 4096, plane);
    let y = b.array("Y", 16 * 4096, plane);
    let rx = b.array("RX", 32 * 4096 + 1024, plane);
    let ry = b.array("RY", 48 * 4096 + 2048, plane);

    let x_ip1 = b.load(
        "X_ip1",
        b.array_ref(x)
            .offset(elem)
            .stride(i, elem)
            .stride(j, row)
            .build(),
    );
    let x_im1 = b.load(
        "X_im1",
        b.array_ref(x)
            .offset(-elem)
            .stride(i, elem)
            .stride(j, row)
            .build(),
    );
    let x_jp1 = b.load(
        "X_jp1",
        b.array_ref(x)
            .offset(row)
            .stride(i, elem)
            .stride(j, row)
            .build(),
    );
    let x_jm1 = b.load(
        "X_jm1",
        b.array_ref(x)
            .offset(-row)
            .stride(i, elem)
            .stride(j, row)
            .build(),
    );
    let y_ip1 = b.load(
        "Y_ip1",
        b.array_ref(y)
            .offset(elem)
            .stride(i, elem)
            .stride(j, row)
            .build(),
    );
    let y_im1 = b.load(
        "Y_im1",
        b.array_ref(y)
            .offset(-elem)
            .stride(i, elem)
            .stride(j, row)
            .build(),
    );
    let y_jp1 = b.load(
        "Y_jp1",
        b.array_ref(y)
            .offset(row)
            .stride(i, elem)
            .stride(j, row)
            .build(),
    );
    let y_jm1 = b.load(
        "Y_jm1",
        b.array_ref(y)
            .offset(-row)
            .stride(i, elem)
            .stride(j, row)
            .build(),
    );

    let xx = b.fp_op("XX");
    let xy = b.fp_op("XY");
    let yx = b.fp_op("YX");
    let yy = b.fp_op("YY");
    let rx_a = b.fp_op("RX_a");
    let rx_sum = b.fp_op("RX_sum");
    let ry_a = b.fp_op("RY_a");
    let ry_sum = b.fp_op("RY_sum");

    let st_rx = b.store(
        "ST_RX",
        b.array_ref(rx).stride(i, elem).stride(j, row).build(),
    );
    let st_ry = b.store(
        "ST_RY",
        b.array_ref(ry).stride(i, elem).stride(j, row).build(),
    );

    b.data_edge(x_ip1, xx, 0);
    b.data_edge(x_im1, xx, 0);
    b.data_edge(x_jp1, xy, 0);
    b.data_edge(x_jm1, xy, 0);
    b.data_edge(y_ip1, yx, 0);
    b.data_edge(y_im1, yx, 0);
    b.data_edge(y_jp1, yy, 0);
    b.data_edge(y_jm1, yy, 0);
    b.data_edge(xx, rx_a, 0);
    b.data_edge(xy, rx_sum, 0);
    b.data_edge(rx_a, rx_sum, 0);
    b.data_edge(yx, ry_a, 0);
    b.data_edge(yy, ry_sum, 0);
    b.data_edge(ry_a, ry_sum, 0);
    b.data_edge(rx_sum, st_rx, 0);
    b.data_edge(ry_sum, st_ry, 0);

    vec![b.build().expect("tomcatv kernel is valid by construction")]
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvp_cache::LocalityAnalysis;
    use mvp_machine::CacheGeometry;

    #[test]
    fn operation_mix_matches_the_residual_loop() {
        let l = &loops(&KernelParams::default())[0];
        let (int, fp, loads, stores) = crate::op_counts(l);
        assert_eq!((int, fp, loads, stores), (0, 8, 8, 2));
        assert_eq!(l.edges().len(), 16);
    }

    #[test]
    fn same_array_neighbours_show_group_reuse_and_cross_array_conflicts() {
        let params = KernelParams::default();
        let l = &loops(&params)[0];
        let geometry = CacheGeometry::direct_mapped(4096);
        let analysis = LocalityAnalysis::with_window(l, 128);
        let ids: Vec<_> = l.loads().collect();
        let (x_ip1, x_im1, y_ip1) = (ids[0], ids[1], ids[4]);
        // Keeping the two X neighbours together is much cheaper than mixing
        // an X and a Y reference in the same local cache.
        let x_together = analysis.miss_count(geometry, &[x_ip1, x_im1]);
        let x_with_y = analysis.miss_count(geometry, &[x_ip1, y_ip1]);
        assert!(x_together < x_with_y);
    }
}
