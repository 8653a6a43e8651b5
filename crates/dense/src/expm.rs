//! Matrix exponential via Padé-13 scaling and squaring (Higham 2005).
//!
//! The Hubbard-matrix blocks are `B_ℓ = e^{tΔτK}·e^{σν V_ℓ(h)}`: the second
//! factor is a diagonal exponential, but the first requires a genuine dense
//! `e^{A}` of the (scaled) lattice adjacency matrix. QUEST gets this from
//! LAPACK-backed kernels; we implement the standard scaling-and-squaring
//! algorithm with the degree-13 Padé approximant, the same method
//! `scipy.linalg.expm`/Expokit use in the well-scaled regime.
//!
//! The hopping matrices in DQMC have modest norms (`‖tΔτK‖₁ ≤ 4tΔτ ≲ 1` for
//! square lattices at the temperatures of interest), so the approximant is
//! operating far inside its accuracy envelope; scaling only engages for
//! stress-test inputs.

use crate::error::Result;
use crate::gemm::mul;
use crate::lu::getrf;
use crate::matrix::Matrix;
use crate::norms::norm1;

/// Padé-13 numerator coefficients (Higham 2005, Table 2.3).
const B13: [f64; 14] = [
    64764752532480000.0,
    32382376266240000.0,
    7771770303897600.0,
    1187353796428800.0,
    129060195264000.0,
    10559470521600.0,
    670442572800.0,
    33522128640.0,
    1323241920.0,
    40840800.0,
    960960.0,
    16380.0,
    182.0,
    1.0,
];

/// One-norm threshold below which the unscaled degree-13 approximant meets
/// double-precision accuracy.
const THETA13: f64 = 5.371920351148152;

/// Computes `e^A` for square `A`.
///
/// Returns [`crate::error::DenseError::Singular`] only in the pathological
/// case where the Padé denominator is numerically singular (it is provably
/// nonsingular for `‖A/2^s‖₁ ≤ θ₁₃`, so this indicates NaN/Inf input).
pub fn expm(a: &Matrix) -> Result<Matrix> {
    assert!(a.is_square(), "expm requires a square matrix");
    let n = a.rows();
    if n == 0 {
        return Ok(Matrix::zeros(0, 0));
    }
    let nrm = norm1(a);
    let s = if nrm > THETA13 {
        (nrm / THETA13).log2().ceil() as u32
    } else {
        0
    };
    let mut a_scaled = a.clone();
    if s > 0 {
        a_scaled.scale(0.5f64.powi(s as i32));
    }

    let a2 = mul(&a_scaled, &a_scaled);
    let a4 = mul(&a2, &a2);
    let a6 = mul(&a2, &a4);

    // U = A·(A6·(b13 A6 + b11 A4 + b9 A2) + b7 A6 + b5 A4 + b3 A2 + b1 I)
    let mut inner = lincomb(n, &[(B13[13], &a6), (B13[11], &a4), (B13[9], &a2)]);
    let mut u_poly = mul(&a6, &inner);
    accumulate(&mut u_poly, &[(B13[7], &a6), (B13[5], &a4), (B13[3], &a2)]);
    u_poly.add_diag(B13[1]);
    let u = mul(&a_scaled, &u_poly);

    // V = A6·(b12 A6 + b10 A4 + b8 A2) + b6 A6 + b4 A4 + b2 A2 + b0 I
    inner = lincomb(n, &[(B13[12], &a6), (B13[10], &a4), (B13[8], &a2)]);
    let mut v = mul(&a6, &inner);
    accumulate(&mut v, &[(B13[6], &a6), (B13[4], &a4), (B13[2], &a2)]);
    v.add_diag(B13[0]);

    // Solve (V − U)·X = (V + U).
    let mut vm = v.clone();
    vm.sub_assign(&u);
    let mut vp = v;
    vp.add_assign(&u);
    let f = getrf(vm)?;
    let mut x = f.solve(&vp);

    // Undo the scaling by repeated squaring.
    for _ in 0..s {
        x = mul(&x, &x);
    }
    Ok(x)
}

/// Builds `Σ cᵢ·Mᵢ` into a fresh matrix.
fn lincomb(n: usize, terms: &[(f64, &Matrix)]) -> Matrix {
    let mut out = Matrix::zeros(n, n);
    accumulate(&mut out, terms);
    out
}

/// `out += Σ cᵢ·Mᵢ`.
fn accumulate(out: &mut Matrix, terms: &[(f64, &Matrix)]) {
    for (c, m) in terms {
        let out_slice = out.as_mut_slice();
        for (o, x) in out_slice.iter_mut().zip(m.as_slice()) {
            *o += c * x;
        }
    }
}

/// Scales the columns of `A` in place by `e^{αdⱼ}` — i.e. `A := A·e^{αD}` —
/// avoiding the diagonal GEMM when building Hubbard blocks. Each `exp()` is
/// evaluated once per column (`n` transcendental calls total, not `n²`).
pub fn scale_cols_exp(a: &mut Matrix, alpha: f64, d: &[f64]) {
    assert_eq!(a.cols(), d.len(), "scale_cols_exp dimension mismatch");
    for (j, &dj) in d.iter().enumerate() {
        let f = (alpha * dj).exp();
        let mut col = a.view_mut(0, j, a.rows(), 1);
        col.scale(f);
    }
}

/// Scales the rows of `A` in place by `e^{αdᵢ}` — i.e. `A := e^{αD}·A`.
///
/// The `n` scale factors are precomputed once, so the cost is `n`
/// transcendental calls plus one multiply per element (the column-major
/// sweep keeps the inner loop contiguous).
pub fn scale_rows_exp(a: &mut Matrix, alpha: f64, d: &[f64]) {
    let rows = a.rows();
    assert_eq!(rows, d.len(), "scale_rows_exp dimension mismatch");
    let factors: Vec<f64> = d.iter().map(|&x| (alpha * x).exp()).collect();
    for col in a.as_mut_slice().chunks_exact_mut(rows) {
        for (x, f) in col.iter_mut().zip(&factors) {
            *x *= f;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{mul, test_matrix};

    #[test]
    fn expm_of_zero_is_identity() {
        let e = expm(&Matrix::zeros(7, 7)).unwrap();
        let mut d = e;
        d.add_diag(-1.0);
        assert!(d.max_abs() < 1e-15);
    }

    #[test]
    fn expm_of_diagonal_matches_scalar_exp() {
        let d = Matrix::diag(&[0.5, -1.0, 2.0]);
        let e = expm(&d).unwrap();
        for (i, want) in [0.5f64, -1.0, 2.0].iter().map(|x| x.exp()).enumerate() {
            assert!((e[(i, i)] - want).abs() < 1e-13 * want.abs());
        }
        assert!(e[(0, 1)].abs() < 1e-14);
    }

    #[test]
    fn expm_matches_taylor_for_small_norm() {
        let mut a = test_matrix(10, 10, 3);
        a.scale(0.01);
        let e = expm(&a).unwrap();
        // High-order Taylor reference.
        let mut taylor = Matrix::identity(10);
        let mut term = Matrix::identity(10);
        for k in 1..=20 {
            term = mul(&term, &a);
            term.scale(1.0 / k as f64);
            taylor.add_assign(&term);
        }
        let err = crate::norms::rel_error(&e, &taylor);
        assert!(err < 1e-14, "taylor mismatch: {err}");
    }

    #[test]
    fn expm_inverse_property() {
        let mut a = test_matrix(12, 12, 4);
        a.scale(0.3);
        let e = expm(&a).unwrap();
        let mut neg = a.clone();
        neg.scale(-1.0);
        let einv = expm(&neg).unwrap();
        let mut prod = mul(&e, &einv);
        prod.add_diag(-1.0);
        assert!(prod.max_abs() < 1e-12, "e^A e^-A ≉ I: {}", prod.max_abs());
    }

    #[test]
    fn scaling_branch_engages_for_large_norms() {
        let mut a = test_matrix(8, 8, 5);
        a.scale(4.0); // ‖A‖₁ well above θ₁₃
        assert!(norm1(&a) > THETA13);
        let e = expm(&a).unwrap();
        let mut neg = a.clone();
        neg.scale(-1.0);
        let einv = expm(&neg).unwrap();
        let mut prod = mul(&e, &einv);
        prod.add_diag(-1.0);
        // Condition grows with the norm; allow a generous but finite bound.
        assert!(
            prod.max_abs() < 1e-8,
            "scaled e^A e^-A ≉ I: {}",
            prod.max_abs()
        );
    }

    #[test]
    fn expm_commutes_with_similarity_for_symmetric_input() {
        // e^{A} for symmetric A must be symmetric.
        let r = test_matrix(9, 9, 6);
        let a = Matrix::from_fn(9, 9, |i, j| 0.2 * (r[(i, j)] + r[(j, i)]));
        let e = expm(&a).unwrap();
        let et = e.transpose();
        assert!(crate::norms::rel_error(&e, &et) < 1e-13);
    }

    #[test]
    fn diag_exponential_helpers() {
        let d = [1.0, -1.0, 0.0];
        let e = Matrix::diag(&d.map(|x: f64| (0.5 * x).exp()));
        assert!((e[(0, 0)] - 0.5f64.exp()).abs() < 1e-15);
        assert!((e[(2, 2)] - 1.0).abs() < 1e-15);
        // scale_cols_exp equals a right-multiply by the diagonal exp.
        let a = test_matrix(3, 3, 7);
        let mut scaled = a.clone();
        scale_cols_exp(&mut scaled, 0.5, &d);
        let want = mul(&a, &e);
        assert!(crate::norms::rel_error(&scaled, &want) < 1e-15);
        // scale_rows_exp equals a left-multiply by the diagonal exp.
        let a = test_matrix(3, 4, 8);
        let mut scaled = a.clone();
        scale_rows_exp(&mut scaled, 0.5, &d);
        let want = mul(&e, &a);
        assert!(crate::norms::rel_error(&scaled, &want) < 1e-15);
    }

    #[test]
    fn empty_matrix_is_ok() {
        let e = expm(&Matrix::zeros(0, 0)).unwrap();
        assert_eq!(e.rows(), 0);
    }
}
