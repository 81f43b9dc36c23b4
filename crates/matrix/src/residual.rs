//! The HPL solution-acceptance test.
//!
//! After solving `Ax = b`, HPL accepts the run when the scaled residual
//!
//! ```text
//! ||Ax - b||_inf / (eps * (||A||_inf * ||x||_inf + ||b||_inf) * N) < threshold
//! ```
//!
//! with `threshold = 16`. Every Linpack flavour in this workspace — native,
//! hybrid, multi-node — funnels its numeric-backend solution through this
//! check, exactly as the benchmark rules require.

use crate::norms::{mat_norm_inf, vec_norm_inf};
use crate::scalar::Scalar;
use crate::view::MatrixView;

/// HPL's acceptance threshold for the scaled residual.
pub const HPL_THRESHOLD: f64 = 16.0;

/// Outcome of the residual check.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ResidualReport {
    /// `||Ax - b||_inf`
    pub raw_residual: f64,
    /// The scaled residual tested against [`HPL_THRESHOLD`].
    pub scaled_residual: f64,
    /// Whether the run passes HPL's criterion.
    pub passed: bool,
}

/// Computes `y = A x` without depending on `phi-blas` (which sits above
/// this crate).
fn matvec<T: Scalar>(a: &MatrixView<'_, T>, x: &[T]) -> Vec<f64> {
    assert_eq!(a.cols(), x.len());
    (0..a.rows())
        .map(|i| {
            a.row(i)
                .iter()
                .zip(x)
                .map(|(aij, xj)| aij.to_f64() * xj.to_f64())
                .sum()
        })
        .collect()
}

/// Evaluates the HPL scaled residual for a computed solution `x` of
/// `A x = b`, where `a` is the **original** (unfactored) matrix. A
/// non-finite value anywhere in `x`, in `A x − b` or in a norm fails the
/// run with an infinite residual.
///
/// # Panics
/// Panics on shape mismatch.
pub fn hpl_residual<T: Scalar>(a: &MatrixView<'_, T>, x: &[T], b: &[T]) -> ResidualReport {
    assert_eq!(a.rows(), a.cols(), "residual requires a square system");
    assert_eq!(a.rows(), b.len());
    let n = a.rows();
    if n == 0 {
        return ResidualReport {
            raw_residual: 0.0,
            scaled_residual: 0.0,
            passed: true,
        };
    }
    let ax = matvec(a, x);
    // `f64::max` drops NaNs and `∞ · 0` is NaN, so a garbage solution
    // can fold to a clean-looking residual: finiteness is checked on
    // the entries themselves, not on the folded norms.
    let mut finite = x.iter().all(|xi| xi.to_f64().is_finite());
    let mut raw = 0.0f64;
    for (axi, bi) in ax.iter().zip(b) {
        let r = (axi - bi.to_f64()).abs();
        finite &= r.is_finite();
        raw = raw.max(r);
    }
    let denom =
        T::EPSILON.to_f64() * (mat_norm_inf(a) * vec_norm_inf(x) + vec_norm_inf(b)) * n as f64;
    if !(finite && denom.is_finite()) {
        return ResidualReport {
            raw_residual: f64::INFINITY,
            scaled_residual: f64::INFINITY,
            passed: false,
        };
    }
    let scaled = if denom == 0.0 {
        if raw == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        raw / denom
    };
    ResidualReport {
        raw_residual: raw,
        scaled_residual: scaled,
        passed: scaled < HPL_THRESHOLD,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MatGen, Matrix};

    #[test]
    fn exact_solution_passes_with_zero_residual() {
        let a = Matrix::<f64>::identity(8);
        let b: Vec<f64> = (0..8).map(|i| i as f64).collect();
        let report = hpl_residual(&a.view(), &b, &b);
        assert_eq!(report.raw_residual, 0.0);
        assert!(report.passed);
    }

    #[test]
    fn garbage_solution_fails() {
        let a = MatGen::new(1).matrix_dd::<f64>(16);
        let b = MatGen::new(2).rhs::<f64>(16);
        let x = vec![1.0e6; 16];
        let report = hpl_residual(&a.view(), &x, &b);
        assert!(!report.passed);
        assert!(report.scaled_residual > HPL_THRESHOLD);
    }

    /// One poisoned solution per way a non-finite value used to slip
    /// through: NaNs vanish in `fold(0.0, f64::max)`, and `±∞` entries
    /// make `‖x‖∞ = ∞` so the scaled residual collapses to zero.
    fn poisoned_solutions<T: Scalar>(x: &[T], nan: T, inf: T, neg_inf: T) -> Vec<Vec<T>> {
        let with = |edits: &[(usize, T)]| {
            let mut v = x.to_vec();
            for &(i, e) in edits {
                v[i] = e;
            }
            v
        };
        vec![
            with(&[(3, nan)]),
            vec![nan; x.len()],
            with(&[(5, inf)]),
            with(&[(2, inf), (9, neg_inf)]),
        ]
    }

    fn assert_all_rejected<T: Scalar>(a: &Matrix<T>, b: &[T], poisoned: Vec<Vec<T>>) {
        for x in poisoned {
            let report = hpl_residual(&a.view(), &x, b);
            assert!(!report.passed, "accepted a non-finite solution");
            assert_eq!(report.scaled_residual, f64::INFINITY);
        }
    }

    #[test]
    fn non_finite_solutions_fail_f64() {
        let a = MatGen::new(1).matrix_dd::<f64>(16);
        let b = MatGen::new(2).rhs::<f64>(16);
        let poisoned = poisoned_solutions(&b, f64::NAN, f64::INFINITY, f64::NEG_INFINITY);
        assert_all_rejected(&a, &b, poisoned);
        // A non-finite right-hand side or matrix is no better.
        let mut bad_b = b.clone();
        bad_b[0] = f64::NAN;
        assert!(!hpl_residual(&a.view(), &b, &bad_b).passed);
    }

    #[test]
    fn non_finite_solutions_fail_f32() {
        let a = MatGen::new(1).matrix_dd::<f32>(16);
        let b = MatGen::new(2).rhs::<f32>(16);
        let poisoned = poisoned_solutions(&b, f32::NAN, f32::INFINITY, f32::NEG_INFINITY);
        assert_all_rejected(&a, &b, poisoned);
    }

    #[test]
    fn small_perturbation_still_passes() {
        // x solves I x = b exactly; perturb by a few ulps.
        let a = Matrix::<f64>::identity(32);
        let b: Vec<f64> = (0..32).map(|i| 1.0 + i as f64 / 7.0).collect();
        let x: Vec<f64> = b.iter().map(|v| v * (1.0 + 4.0 * f64::EPSILON)).collect();
        let report = hpl_residual(&a.view(), &x, &b);
        assert!(report.passed, "scaled = {}", report.scaled_residual);
    }

    #[test]
    fn zero_sized_system_passes() {
        let a = Matrix::<f64>::zeros(0, 0);
        let report = hpl_residual(&a.view(), &[], &[]);
        assert!(report.passed);
    }
}
