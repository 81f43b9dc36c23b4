//! `DLASWP` — row interchanges from a pivot vector.
//!
//! LU factorization with partial pivoting records, for each elimination
//! step `i`, the row `ipiv[i]` that was swapped with row `i`. HPL applies
//! those swaps across the trailing matrix (and, in the hybrid flavours,
//! pipelines them in column strips — Section V-A). The forward order
//! reproduces the factorization's permutation; the inverse order undoes it.

use phi_matrix::{MatrixViewMut, Scalar};

/// Applies swaps `row i <-> row ipiv[i]` for `i = 0..ipiv.len()` in
/// ascending order (LAPACK `DLASWP` with increment +1).
///
/// # Panics
/// Panics when any pivot index is out of bounds.
pub fn laswp_forward<T: Scalar>(a: &mut MatrixViewMut<'_, T>, ipiv: &[usize]) {
    for (i, &p) in ipiv.iter().enumerate() {
        assert!(p < a.rows(), "pivot {p} out of bounds ({} rows)", a.rows());
        a.swap_rows(i, p);
    }
}

/// Applies the same swaps in descending order, undoing
/// [`laswp_forward`].
pub fn laswp_inverse<T: Scalar>(a: &mut MatrixViewMut<'_, T>, ipiv: &[usize]) {
    for (i, &p) in ipiv.iter().enumerate().rev() {
        assert!(p < a.rows(), "pivot {p} out of bounds ({} rows)", a.rows());
        a.swap_rows(i, p);
    }
}

/// Applies `laswp_forward` to a vector (the right-hand side `b`).
pub(crate) fn laswp_vec<T: Scalar>(x: &mut [T], ipiv: &[usize]) {
    for (i, &p) in ipiv.iter().enumerate() {
        assert!(p < x.len(), "pivot {p} out of bounds ({} rows)", x.len());
        x.swap(i, p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phi_matrix::{MatGen, Matrix};

    #[test]
    fn forward_then_inverse_is_identity() {
        let orig = MatGen::new(3).matrix::<f64>(8, 5);
        let mut m = orig.clone();
        let ipiv = vec![3, 1, 7, 3, 4, 6];
        laswp_forward(&mut m.view_mut(), &ipiv);
        assert!(m.max_abs_diff(&orig) > 0.0, "swaps changed something");
        laswp_inverse(&mut m.view_mut(), &ipiv);
        assert!(m.approx_eq(&orig, 0.0));
    }

    #[test]
    fn single_swap() {
        let mut m = Matrix::<f64>::from_fn(3, 2, |i, _| i as f64);
        laswp_forward(&mut m.view_mut(), &[2]);
        assert_eq!(m.row(0), &[2.0, 2.0]);
        assert_eq!(m.row(2), &[0.0, 0.0]);
    }

    #[test]
    fn vector_variant_matches_matrix_variant() {
        let ipiv = vec![1, 3, 2, 3];
        let mut m = Matrix::<f64>::from_fn(5, 1, |i, _| i as f64);
        let mut v: Vec<f64> = (0..5).map(|i| i as f64).collect();
        laswp_forward(&mut m.view_mut(), &ipiv);
        laswp_vec(&mut v, &ipiv);
        for i in 0..5 {
            assert_eq!(m[(i, 0)], v[i]);
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_pivot_panics() {
        let mut m = Matrix::<f64>::zeros(3, 3);
        laswp_forward(&mut m.view_mut(), &[5]);
    }
}
