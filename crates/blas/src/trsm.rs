//! Triangular solves with multiple right-hand sides (`xTRSM`).
//!
//! HPL needs two of the eight TRSM cases:
//!
//! * **Left / Lower / Unit** — after panel factorization, the row panel
//!   `U_i` is obtained with a forward solve against the unit-lower factor
//!   of the panel ("a portion of row panel of U is updated using a forward
//!   solver", Section IV). This is the DTRSM the hybrid schemes keep on the
//!   host and pipeline with the `U` broadcast (Fig. 8c).
//! * **Left / Upper / Non-unit** — blocked back-substitution after the
//!   factorization completes.

use phi_matrix::{MatrixView, MatrixViewMut, Scalar};

/// Solves `L X = B` in place (`B := L⁻¹ B`), `L` unit lower triangular.
///
/// # Panics
/// Panics unless `L` is square with `L.rows() == B.rows()`.
pub fn trsm_left_lower_unit<T: Scalar>(l: &MatrixView<'_, T>, b: &mut MatrixViewMut<'_, T>) {
    let m = l.rows();
    assert_eq!(l.cols(), m, "trsm: L must be square");
    assert_eq!(b.rows(), m, "trsm: B rows");
    for i in 1..m {
        for p in 0..i {
            let lip = l.at(i, p);
            if lip == T::ZERO {
                continue;
            }
            // b[i, :] -= l[i, p] * b[p, :], split to satisfy the borrow
            // checker: rows p and i are disjoint.
            let (top, mut bottom) = b.reborrow().split_rows_mut(i);
            let src = top.row(p);
            let dst = bottom.row_mut(0);
            for (d, &s) in dst.iter_mut().zip(src) {
                *d = s.mul_add(-lip, *d);
            }
        }
    }
}

/// Solves `U X = B` in place (`B := U⁻¹ B`), `U` upper triangular with
/// explicit diagonal.
///
/// # Panics
/// Panics unless `U` is square with `U.rows() == B.rows()`, or when a
/// diagonal entry is exactly zero.
pub fn trsm_left_upper<T: Scalar>(u: &MatrixView<'_, T>, b: &mut MatrixViewMut<'_, T>) {
    let m = u.rows();
    assert_eq!(u.cols(), m, "trsm: U must be square");
    assert_eq!(b.rows(), m, "trsm: B rows");
    for i in (0..m).rev() {
        for p in i + 1..m {
            let uip = u.at(i, p);
            if uip == T::ZERO {
                continue;
            }
            let (mut top, bottom) = b.reborrow().split_rows_mut(p);
            let src = bottom.row(0);
            let dst = top.row_mut(i);
            for (d, &s) in dst.iter_mut().zip(src) {
                *d = s.mul_add(-uip, *d);
            }
        }
        let diag = u.at(i, i);
        assert!(diag != T::ZERO, "trsm: zero diagonal at {i}");
        let inv = T::ONE / diag;
        for v in b.row_mut(i) {
            *v *= inv;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::gemm_naive;
    use phi_matrix::{MatGen, Matrix};

    /// Builds a well-conditioned unit-lower matrix.
    fn unit_lower(n: usize, seed: u64) -> Matrix<f64> {
        let mut l = MatGen::new(seed).matrix::<f64>(n, n);
        for i in 0..n {
            for j in 0..n {
                if j > i {
                    l[(i, j)] = 0.0;
                } else if j == i {
                    l[(i, j)] = 1.0;
                } else {
                    l[(i, j)] *= 0.5; // keep growth modest
                }
            }
        }
        l
    }

    /// Builds a well-conditioned upper-triangular matrix.
    fn upper(n: usize, seed: u64) -> Matrix<f64> {
        let mut u = MatGen::new(seed).matrix::<f64>(n, n);
        for i in 0..n {
            for j in 0..n {
                if j < i {
                    u[(i, j)] = 0.0;
                } else if j == i {
                    u[(i, j)] = 2.0 + u[(i, j)].abs();
                }
            }
        }
        u
    }

    #[test]
    fn left_lower_unit_reconstructs() {
        let l = unit_lower(12, 1);
        let x_true = MatGen::new(2).matrix::<f64>(12, 5);
        // B = L * X
        let mut b = Matrix::<f64>::zeros(12, 5);
        gemm_naive(1.0, &l.view(), &x_true.view(), 0.0, &mut b.view_mut());
        trsm_left_lower_unit(&l.view(), &mut b.view_mut());
        assert!(b.approx_eq(&x_true, 1e-10));
    }

    #[test]
    fn left_upper_reconstructs() {
        let u = upper(10, 3);
        let x_true = MatGen::new(4).matrix::<f64>(10, 4);
        let mut b = Matrix::<f64>::zeros(10, 4);
        gemm_naive(1.0, &u.view(), &x_true.view(), 0.0, &mut b.view_mut());
        trsm_left_upper(&u.view(), &mut b.view_mut());
        assert!(b.approx_eq(&x_true, 1e-9));
    }

    #[test]
    fn one_by_one_cases() {
        let l = Matrix::<f64>::identity(1);
        let mut b = Matrix::<f64>::from_rows(&[&[5.0, 6.0]]);
        trsm_left_lower_unit(&l.view(), &mut b.view_mut());
        assert_eq!(b.row(0), &[5.0, 6.0]);

        let u = Matrix::<f64>::from_rows(&[&[2.0]]);
        let mut b2 = Matrix::<f64>::from_rows(&[&[4.0]]);
        trsm_left_upper(&u.view(), &mut b2.view_mut());
        assert_eq!(b2[(0, 0)], 2.0);
    }
}
