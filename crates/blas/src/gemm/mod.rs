//! General matrix-matrix multiplication, structured as in Section III of
//! the paper.
//!
//! The public entry point [`gemm_with`] computes `C := alpha * A * B + beta * C`
//! for row-major operands by decomposing the product into a sequence of
//! **rank-k outer products** `C = alpha * Σ_i A_i B_i + beta * C`, packing
//! each `A_i` into `MR × k` column-major tiles and each `B_i` into `k × NR`
//! row-major tiles (the *Knights Corner-friendly* format of Fig. 3), and
//! driving a register-blocked `micro` kernel over the tile grid.
//!
//! The tile shape is configurable through [`BlockSizes`]; the paper's
//! native configuration (`MR = 30`, `NR = 8`, `k = 300`) is available as
//! [`BlockSizes::knc`], and a host-friendly shape as the default. The same
//! code instantiates DGEMM (`f64`) and SGEMM (`f32`).

mod blocked;
mod micro;
mod naive;
mod pack;

pub use blocked::{gemm_with, BlockSizes};
pub use micro::{micro_kernel_into, MicroKernelKind};
pub use naive::gemm_naive;
pub use pack::{pack_a, pack_b};

#[cfg(test)]
mod tests {
    use super::*;
    use phi_matrix::{MatGen, Matrix};

    /// Runs both paths on a random problem and compares elementwise.
    fn check(m: usize, n: usize, k: usize, alpha: f64, beta: f64, bs: &BlockSizes) {
        let a = MatGen::new(1).matrix::<f64>(m, k);
        let b = MatGen::new(2).matrix::<f64>(k, n);
        let mut c = MatGen::new(3).matrix::<f64>(m, n);
        let mut c_ref = c.clone();

        gemm_with(alpha, &a.view(), &b.view(), beta, &mut c.view_mut(), bs);
        gemm_naive(alpha, &a.view(), &b.view(), beta, &mut c_ref.view_mut());

        let diff = c.max_abs_diff(&c_ref);
        let tol = 1e-12 * (k as f64).max(1.0);
        assert!(
            diff <= tol,
            "gemm mismatch m={m} n={n} k={k} alpha={alpha} beta={beta}: {diff}"
        );
    }

    #[test]
    fn matches_naive_on_square() {
        check(32, 32, 32, 1.0, 0.0, &BlockSizes::default());
    }

    #[test]
    fn matches_naive_with_alpha_beta() {
        check(24, 17, 33, -0.5, 2.0, &BlockSizes::default());
    }

    #[test]
    fn matches_naive_knc_tile_shape() {
        // MR = 30, NR = 8 — the paper's native shape; sizes chosen to hit
        // full and partial tiles in both dimensions.
        check(61, 19, 37, 1.0, 1.0, &BlockSizes::knc());
    }

    #[test]
    fn matches_naive_when_blocks_smaller_than_problem() {
        let bs = BlockSizes {
            mc: 16,
            kc: 8,
            nc: 16,
            ..BlockSizes::default()
        };
        check(40, 40, 40, 1.0, 1.0, &bs);
        check(40, 40, 40, 2.0, 0.0, &bs);
    }

    #[test]
    fn degenerate_shapes() {
        check(0, 5, 5, 1.0, 1.0, &BlockSizes::default());
        check(5, 0, 5, 1.0, 1.0, &BlockSizes::default());
        // k = 0 must reduce to C := beta * C.
        let a = Matrix::<f64>::zeros(4, 0);
        let b = Matrix::<f64>::zeros(0, 4);
        let mut c = MatGen::new(9).matrix::<f64>(4, 4);
        let expect = Matrix::from_fn(4, 4, |i, j| 3.0 * c[(i, j)]);
        let bs = BlockSizes::default();
        gemm_with(1.0, &a.view(), &b.view(), 3.0, &mut c.view_mut(), &bs);
        assert!(c.approx_eq(&expect, 0.0));
    }

    #[test]
    fn sgemm_instantiation_matches_naive() {
        let a = MatGen::new(4).matrix::<f32>(20, 14);
        let b = MatGen::new(5).matrix::<f32>(14, 11);
        let mut c = MatGen::new(6).matrix::<f32>(20, 11);
        let mut c_ref = c.clone();
        let bs = BlockSizes::default();
        gemm_with(1.5, &a.view(), &b.view(), -1.0, &mut c.view_mut(), &bs);
        gemm_naive(1.5, &a.view(), &b.view(), -1.0, &mut c_ref.view_mut());
        assert!(c.max_abs_diff(&c_ref) < 1e-4);
    }

    #[test]
    fn kernel1_and_kernel2_agree() {
        let a = MatGen::new(7).matrix::<f64>(45, 23);
        let b = MatGen::new(8).matrix::<f64>(23, 18);
        let mut c1 = Matrix::<f64>::zeros(45, 18);
        let mut c2 = Matrix::<f64>::zeros(45, 18);
        let mut bs = BlockSizes::knc();
        bs.kernel = MicroKernelKind::Kernel1;
        gemm_with(1.0, &a.view(), &b.view(), 0.0, &mut c1.view_mut(), &bs);
        bs.kernel = MicroKernelKind::Kernel2;
        gemm_with(1.0, &a.view(), &b.view(), 0.0, &mut c2.view_mut(), &bs);
        assert!(c1.approx_eq(&c2, 0.0), "kernels must be bit-identical");
    }
}
