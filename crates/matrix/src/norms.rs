//! Vector and matrix norms.
//!
//! Accumulation happens in `f64` regardless of the element type so the
//! residual test in [`crate::residual`] is meaningful for `f32` problems
//! too.

use crate::scalar::Scalar;
use crate::view::MatrixView;

/// ∞-norm of a vector: max |x_i|.
pub(crate) fn vec_norm_inf<T: Scalar>(x: &[T]) -> f64 {
    x.iter().map(|v| v.to_f64().abs()).fold(0.0, f64::max)
}

/// ∞-norm of a matrix: max row sum of |a_ij| (the norm HPL's residual
/// formula uses).
pub(crate) fn mat_norm_inf<T: Scalar>(a: &MatrixView<'_, T>) -> f64 {
    (0..a.rows())
        .map(|i| a.row(i).iter().map(|v| v.to_f64().abs()).sum::<f64>())
        .fold(0.0, f64::max)
}

/// 1-norm of a matrix: max column sum of |a_ij| — the tests' oracle for
/// [`mat_norm_inf`] on the transpose.
#[cfg(test)]
fn mat_norm_one<T: Scalar>(a: &MatrixView<'_, T>) -> f64 {
    let mut sums = vec![0.0f64; a.cols()];
    for i in 0..a.rows() {
        for (j, v) in a.row(i).iter().enumerate() {
            sums[j] += v.to_f64().abs();
        }
    }
    sums.into_iter().fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;

    #[test]
    fn vector_norms() {
        let x = [3.0f64, -4.0, 1.0];
        assert_eq!(vec_norm_inf(&x), 4.0);
    }

    #[test]
    fn matrix_norms_small_example() {
        // [[1, -2], [-3, 4]]
        let m = Matrix::<f64>::from_rows(&[&[1.0, -2.0], &[-3.0, 4.0]]);
        assert_eq!(mat_norm_inf(&m.view()), 7.0); // row 1: 3+4
    }

    #[test]
    fn inf_norm_of_transpose_is_one_norm() {
        let m = crate::MatGen::new(1).matrix::<f64>(9, 9);
        let t = m.transposed();
        assert!((mat_norm_inf(&m.view()) - mat_norm_one(&t.view())).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs_give_zero() {
        let m = Matrix::<f64>::zeros(0, 0);
        assert_eq!(mat_norm_inf(&m.view()), 0.0);
        assert_eq!(vec_norm_inf::<f64>(&[]), 0.0);
    }
}
