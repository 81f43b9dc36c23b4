//! Level-1 BLAS: vector-vector operations.
//!
//! The one primitive unblocked panel factorization (`getf2`) takes from
//! here is the pivot search (`idamax`); its scaling and row exchange are
//! slice operations and its rank-1 update is `level2::ger`.

use phi_matrix::Scalar;

/// Index of the element with the largest absolute value (BLAS `IxAMAX`).
/// Returns `None` for an empty slice. Ties resolve to the lowest index, as
/// in the reference BLAS.
pub(crate) fn iamax<T: Scalar>(x: &[T]) -> Option<usize> {
    if x.is_empty() {
        return None;
    }
    let mut best = 0usize;
    let mut best_val = x[0].abs();
    for (i, v) in x.iter().enumerate().skip(1) {
        let a = v.abs();
        if a > best_val {
            best = i;
            best_val = a;
        }
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iamax_finds_largest_magnitude() {
        assert_eq!(iamax(&[1.0f64, -5.0, 3.0]), Some(1));
        assert_eq!(iamax(&[-2.0f64, 2.0]), Some(0), "tie keeps lowest index");
        assert_eq!(iamax::<f64>(&[]), None);
    }
}
