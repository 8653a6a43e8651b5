//! One-norm estimation without explicit inverses (Hager–Higham LACON).
//!
//! The FSI cluster size is stability-limited: each cluster chain
//! multiplies `c` blocks, and the usable `c` depends on how fast the
//! chain's conditioning grows (paper §II-C, citing the analysis of
//! Bai–Chen–Scalettar–Yamazaki). Deciding `c` therefore needs cheap
//! condition estimates — `O(N²)` per estimate via a few solves against an
//! existing LU factorization, instead of the `O(N³)` explicit inverse the
//! validation harnesses use.
//!
//! [`norm1_inv_estimate`] implements the classic Hager power iteration on
//! the dual norm: repeatedly solve `A·x = e` and `Aᵀ·z = sign(x)` and
//! climb the one-norm; 2–5 iterations typical, never more than
//! [`MAX_ITERS`].

use crate::lu::LuFactor;
use crate::matrix::Matrix;

/// Iteration cap of the Hager estimator (convergence is almost always in
/// ≤ 5 steps; the cap guards pathological cycling).
pub(crate) const MAX_ITERS: usize = 8;

/// Outcome of one Hager estimation run: the estimate plus convergence
/// diagnostics, so callers (the health layer in particular) can distrust
/// a value produced by hitting the iteration cap instead of the
/// sign-vector fixed point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Norm1Estimate {
    /// The `‖A⁻¹‖₁` lower-bound estimate.
    pub est: f64,
    /// Power-iteration steps actually performed.
    pub iterations: usize,
    /// Whether the iteration reached its fixed point (`false` means the
    /// iteration cap fired and the estimate may be loose).
    pub converged: bool,
}

/// Estimates `‖A⁻¹‖₁` from an LU factorization, without forming the
/// inverse. The estimate is a lower bound that in practice lands within
/// a small factor of the truth.
///
/// Convenience wrapper over [`norm1_inv_estimate_detailed`] that keeps
/// the historical `f64` signature (capped runs still return the best
/// estimate seen).
pub(crate) fn norm1_inv_estimate(f: &LuFactor) -> f64 {
    norm1_inv_estimate_detailed(f).est
}

/// [`norm1_inv_estimate`] with convergence diagnostics: reports how many
/// power-iteration steps ran and whether the sign-vector fixed point was
/// reached before the [`MAX_ITERS`] cap.
pub(crate) fn norm1_inv_estimate_detailed(f: &LuFactor) -> Norm1Estimate {
    let n = f.n();
    if n == 0 {
        return Norm1Estimate {
            est: 0.0,
            iterations: 0,
            converged: true,
        };
    }
    // Start from the uniform vector.
    let mut x = Matrix::from_fn(n, 1, |_, _| 1.0 / n as f64);
    let mut best = 0.0f64;
    let mut last_sign: Vec<f64> = Vec::new();
    let mut iterations = 0usize;
    let mut converged = false;
    for _ in 0..MAX_ITERS {
        iterations += 1;
        // y = A⁻¹ x.
        f.solve_in_place(x.as_mut());
        let est: f64 = x.as_slice().iter().map(|v| v.abs()).sum();
        best = best.max(est);
        // ξ = sign(y).
        let sign: Vec<f64> = x
            .as_slice()
            .iter()
            .map(|&v| if v >= 0.0 { 1.0 } else { -1.0 })
            .collect();
        if sign == last_sign {
            converged = true;
            break;
        }
        last_sign = sign.clone();
        // z = A⁻ᵀ ξ.
        let mut z = Matrix::from_col_major(n, 1, sign);
        f.solve_transpose_in_place(z.as_mut());
        // Next x: e_j at the index maximizing |z|.
        let j = crate::blas::iamax(z.as_slice());
        if z.as_slice()[j].abs() <= z.as_slice().iter().map(|v| v.abs()).sum::<f64>() / n as f64 {
            // Flat dual vector → converged.
            converged = true;
            break;
        }
        x = Matrix::zeros(n, 1);
        x[(j, 0)] = 1.0;
    }
    Norm1Estimate {
        est: best,
        iterations,
        converged,
    }
}

/// Estimated one-norm condition number `κ₁(A) ≈ ‖A‖₁·est(‖A⁻¹‖₁)` from a
/// matrix and its factorization.
pub fn cond1_estimate(a: &Matrix, f: &LuFactor) -> f64 {
    crate::norms::norm1(a) * norm1_inv_estimate(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::test_matrix;
    use crate::lu::getrf;
    use crate::norms::{cond1, norm1};

    #[test]
    fn estimate_is_exact_for_diagonal_matrices() {
        let d = Matrix::diag(&[4.0, -0.5, 2.0, 1.0]);
        let f = getrf(d.clone()).unwrap();
        let est = norm1_inv_estimate(&f);
        // ‖D⁻¹‖₁ = 1/0.5 = 2.
        assert!((est - 2.0).abs() < 1e-12, "est {est}");
        let kappa = cond1_estimate(&d, &f);
        assert!((kappa - 8.0).abs() < 1e-12);
    }

    #[test]
    fn estimate_tracks_true_condition_number() {
        for n in [5usize, 20, 50] {
            let mut a = test_matrix(n, n, n as u64);
            a.add_diag(2.0);
            let f = getrf(a.clone()).unwrap();
            let est = cond1_estimate(&a, &f);
            let truth = cond1(&a).unwrap();
            // Hager is a lower bound, typically within a small factor.
            assert!(
                est <= truth * (1.0 + 1e-10),
                "n={n}: est {est} > true {truth}"
            );
            assert!(est >= truth / 10.0, "n={n}: est {est} ≪ true {truth}");
        }
    }

    #[test]
    fn estimate_detects_near_singularity() {
        // Graded diagonal: condition 1e8.
        let d = Matrix::diag(&[1.0, 1e-4, 1e-8]);
        let f = getrf(d.clone()).unwrap();
        let est = cond1_estimate(&d, &f);
        assert!(est > 1e7, "should flag the 1e8 condition: {est}");
    }

    #[test]
    fn detailed_estimate_reports_convergence() {
        let mut a = test_matrix(16, 16, 3);
        a.add_diag(2.0);
        let f = getrf(a).unwrap();
        let d = norm1_inv_estimate_detailed(&f);
        assert!(d.converged, "benign matrix converges");
        assert!(d.iterations >= 1 && d.iterations <= MAX_ITERS);
        assert_eq!(
            d.est,
            norm1_inv_estimate(&f),
            "wrapper forwards the estimate"
        );
    }

    #[test]
    fn identity_has_condition_one() {
        let i = Matrix::identity(12);
        let f = getrf(i.clone()).unwrap();
        assert!((cond1_estimate(&i, &f) - 1.0).abs() < 1e-12);
        assert!((norm1(&i) - 1.0).abs() < 1e-15);
    }
}
