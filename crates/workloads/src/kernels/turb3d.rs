//! `turb3d` — isotropic turbulence (3D FFT based).
//!
//! The FFT butterfly passes access pairs of elements separated by large
//! power-of-two strides, so consecutive iterations of the innermost loop
//! touch different cache lines (no spatial reuse) and pairs of arrays map on
//! top of each other in a small direct-mapped cache. Each iteration loads
//! the two complex halves of a butterfly, combines them (add/sub scaled by a
//! twiddle factor) and stores both results back.

use super::KernelParams;
use mvp_ir::Loop;

/// Builds the representative innermost loops of `turb3d`.
#[must_use]
pub fn loops(params: &KernelParams) -> Vec<Loop> {
    let elem = 8i64;
    // Butterfly distance: a large power of two (in bytes).
    let half = 256 * elem;
    let volume = (params.inner_trip + 2) * 2048 * 8;

    let mut b = Loop::builder("turb3d_butterfly");
    let k = b.dimension("K", params.outer_trip);
    let i = b.dimension("I", params.inner_trip);

    let x = b.array("X", 0, volume);
    let y = b.array("Y", 96 * 4096, volume);
    let tw = b.array("TW", 160 * 4096 + 2048, 64 * 1024);

    // Stride of two cache blocks per iteration: no spatial reuse.
    let stride = 8 * elem;
    let x_lo = b.load(
        "X_lo",
        b.array_ref(x).stride(i, stride).stride(k, 64).build(),
    );
    let x_hi = b.load(
        "X_hi",
        b.array_ref(x)
            .offset(half)
            .stride(i, stride)
            .stride(k, 64)
            .build(),
    );
    let y_lo = b.load(
        "Y_lo",
        b.array_ref(y).stride(i, stride).stride(k, 64).build(),
    );
    let twiddle = b.load("TW_i", b.array_ref(tw).stride(i, elem).build());

    let scaled = b.fp_op("SCALED");
    let sum = b.fp_op("SUM");
    let diff = b.fp_op("DIFF");
    let out_hi = b.fp_op("OUT_HI");

    let st_lo = b.store(
        "ST_lo",
        b.array_ref(x).stride(i, stride).stride(k, 64).build(),
    );
    let st_hi = b.store(
        "ST_hi",
        b.array_ref(x)
            .offset(half)
            .stride(i, stride)
            .stride(k, 64)
            .build(),
    );

    b.data_edge(x_hi, scaled, 0);
    b.data_edge(twiddle, scaled, 0);
    b.data_edge(x_lo, sum, 0);
    b.data_edge(scaled, sum, 0);
    b.data_edge(x_lo, diff, 0);
    b.data_edge(scaled, diff, 0);
    b.data_edge(y_lo, out_hi, 0);
    b.data_edge(diff, out_hi, 0);
    b.data_edge(sum, st_lo, 0);
    b.data_edge(out_hi, st_hi, 0);
    // Anti-dependences between the loads and the stores of the same array.
    b.memory_edge(x_lo, st_lo, 0);
    b.memory_edge(x_hi, st_hi, 0);

    vec![b.build().expect("turb3d kernel is valid by construction")]
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvp_machine::CacheGeometry;

    #[test]
    fn operation_mix_matches_a_butterfly() {
        let l = &loops(&KernelParams::default())[0];
        let (int, fp, loads, stores) = crate::op_counts(l);
        assert_eq!((int, fp, loads, stores), (0, 4, 4, 2));
    }

    #[test]
    fn butterfly_strides_defeat_spatial_reuse_except_for_twiddles() {
        let l = &loops(&KernelParams::default())[0];
        let block = CacheGeometry::direct_mapped(2048).block_bytes;
        let strides: Vec<u64> = l
            .loads()
            .map(|op| {
                l.memory_ref_of(op)
                    .unwrap()
                    .inner_stride(l.nest())
                    .unsigned_abs()
            })
            .collect();
        // X_lo, X_hi, Y_lo stride a full block or more: no reuse.
        for &stride in &strides[..3] {
            assert!(stride >= block, "{stride}");
        }
        // The twiddle table streams with unit stride: self-spatial reuse.
        assert!((1..block).contains(&strides[3]), "{}", strides[3]);
    }
}
