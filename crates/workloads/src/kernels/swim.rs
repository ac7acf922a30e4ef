//! `swim` — shallow-water equations on a 2D grid.
//!
//! The `CALC1`/`CALC2` loops read the velocity and pressure planes at a
//! point and its east/north neighbours and write three new planes:
//!
//! ```fortran
//! DO J = 1, N
//!   DO I = 1, M
//!     CU(I+1,J)  = .5*(P(I+1,J)+P(I,J))*U(I+1,J)
//!     CV(I,J+1)  = .5*(P(I,J+1)+P(I,J))*V(I,J+1)
//!     Z(I+1,J+1) = (FSDX*(V(I+1,J+1)-V(I,J+1)) - FSDY*(U(I+1,J+1)-U(I+1,J)))
//!                  / (P(I,J)+P(I+1,J)+P(I+1,J+1)+P(I,J+1))
//!   ENDDO
//! ENDDO
//! ```
//!
//! The model keeps the three input planes (`U`, `V`, `P`), eight loads with
//! unit-stride spatial reuse, a floating-point reduction tree and three
//! stores. `U` and `P` are conflict-aligned.

use super::KernelParams;
use mvp_ir::Loop;

/// Builds the representative innermost loops of `swim`.
#[must_use]
pub fn loops(params: &KernelParams) -> Vec<Loop> {
    let elem = 8i64;
    let row = params.row_bytes();
    let plane = params.plane_bytes();

    let mut b = Loop::builder("swim_calc1");
    let j = b.dimension("J", params.outer_trip);
    let i = b.dimension("I", params.inner_trip);

    let u = b.array("U", 0, plane);
    let v = b.array("V", 8 * 4096 + 2048, plane);
    let p = b.array("P", 24 * 4096, plane); // conflicts with U in small caches
    let cu = b.array("CU", 40 * 4096 + 1024, plane);
    let cv = b.array("CV", 56 * 4096 + 3072, plane);
    let z = b.array("Z", 72 * 4096 + 512, plane);

    let p_ij = b.load(
        "P_ij",
        b.array_ref(p).stride(i, elem).stride(j, row).build(),
    );
    let p_ip1 = b.load(
        "P_ip1",
        b.array_ref(p)
            .offset(elem)
            .stride(i, elem)
            .stride(j, row)
            .build(),
    );
    let p_jp1 = b.load(
        "P_jp1",
        b.array_ref(p)
            .offset(row)
            .stride(i, elem)
            .stride(j, row)
            .build(),
    );
    let u_ip1 = b.load(
        "U_ip1",
        b.array_ref(u)
            .offset(elem)
            .stride(i, elem)
            .stride(j, row)
            .build(),
    );
    let u_jp1 = b.load(
        "U_jp1",
        b.array_ref(u)
            .offset(row)
            .stride(i, elem)
            .stride(j, row)
            .build(),
    );
    let v_jp1 = b.load(
        "V_jp1",
        b.array_ref(v)
            .offset(row)
            .stride(i, elem)
            .stride(j, row)
            .build(),
    );
    let v_ip1 = b.load(
        "V_ip1",
        b.array_ref(v)
            .offset(elem)
            .stride(i, elem)
            .stride(j, row)
            .build(),
    );

    let psum1 = b.fp_op("PSUM1");
    let cu_val = b.fp_op("CU_val");
    let psum2 = b.fp_op("PSUM2");
    let cv_val = b.fp_op("CV_val");
    let dv = b.fp_op("DV");
    let du = b.fp_op("DU");
    let znum = b.fp_op("ZNUM");
    let pden = b.fp_op("PDEN");
    let z_val = b.fp_op("Z_val");

    let st_cu = b.store(
        "ST_CU",
        b.array_ref(cu)
            .offset(elem)
            .stride(i, elem)
            .stride(j, row)
            .build(),
    );
    let st_cv = b.store(
        "ST_CV",
        b.array_ref(cv)
            .offset(row)
            .stride(i, elem)
            .stride(j, row)
            .build(),
    );
    let st_z = b.store(
        "ST_Z",
        b.array_ref(z)
            .offset(elem + row)
            .stride(i, elem)
            .stride(j, row)
            .build(),
    );

    b.data_edge(p_ij, psum1, 0);
    b.data_edge(p_ip1, psum1, 0);
    b.data_edge(psum1, cu_val, 0);
    b.data_edge(u_ip1, cu_val, 0);
    b.data_edge(cu_val, st_cu, 0);

    b.data_edge(p_ij, psum2, 0);
    b.data_edge(p_jp1, psum2, 0);
    b.data_edge(psum2, cv_val, 0);
    b.data_edge(v_jp1, cv_val, 0);
    b.data_edge(cv_val, st_cv, 0);

    b.data_edge(v_ip1, dv, 0);
    b.data_edge(v_jp1, dv, 0);
    b.data_edge(u_ip1, du, 0);
    b.data_edge(u_jp1, du, 0);
    b.data_edge(dv, znum, 0);
    b.data_edge(du, znum, 0);
    b.data_edge(psum1, pden, 0);
    b.data_edge(psum2, pden, 0);
    b.data_edge(znum, z_val, 0);
    b.data_edge(pden, z_val, 0);
    b.data_edge(z_val, st_z, 0);

    vec![b.build().expect("swim kernel is valid by construction")]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operation_mix_matches_calc1() {
        let l = &loops(&KernelParams::default())[0];
        let (int, fp, loads, stores) = crate::op_counts(l);
        assert_eq!((int, fp, loads, stores), (0, 9, 7, 3));
        // All loads feed at least one consumer.
        for op in l.loads() {
            assert!(l.succs(op).count() >= 1);
        }
    }

    #[test]
    fn every_store_depends_on_a_reduction() {
        let l = &loops(&KernelParams::default())[0];
        for op in l.memory_ops() {
            if l.op(op).kind == mvp_ir::OpKind::Store {
                assert_eq!(l.preds(op).count(), 1);
            }
        }
    }
}
