//! Level-2 BLAS: matrix-vector operations.
//!
//! `ger` is the workhorse of unblocked panel factorization: each
//! elimination step applies a rank-1 update to the remaining panel.

use phi_matrix::{MatrixViewMut, Scalar};

/// Rank-1 update `A := A + alpha * x yᵀ` (BLAS `xGER`).
///
/// # Panics
/// Panics when `x.len() != A.rows()` or `y.len() != A.cols()`.
pub(crate) fn ger<T: Scalar>(alpha: T, x: &[T], y: &[T], a: &mut MatrixViewMut<'_, T>) {
    assert_eq!(x.len(), a.rows(), "ger: x length");
    assert_eq!(y.len(), a.cols(), "ger: y length");
    for (i, &xi) in x.iter().enumerate() {
        let coeff = alpha * xi;
        let row = a.row_mut(i);
        for (aij, &yj) in row.iter_mut().zip(y) {
            *aij = yj.mul_add(coeff, *aij);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phi_matrix::Matrix;

    #[test]
    fn ger_rank1() {
        let mut a = Matrix::<f64>::zeros(2, 3);
        ger(2.0, &[1.0, 2.0], &[3.0, 4.0, 5.0], &mut a.view_mut());
        assert_eq!(a.row(0), &[6.0, 8.0, 10.0]);
        assert_eq!(a.row(1), &[12.0, 16.0, 20.0]);
    }
}
