//! Level-1 and level-2 BLAS kernels on slices and views.
//!
//! These are the scalar building blocks of the factorization kernels
//! (Householder generation and application, pivot search, panel updates).
//! The loops are written so LLVM auto-vectorizes them; there is no explicit
//! SIMD, keeping the crate portable.

use crate::matrix::{MatMut, MatRef};

/// Dot product `xᵀy`, accumulated in eight independent lanes (element `i`
/// into lane `i mod 8`, lanes summed pairwise at the end): a single running
/// sum is one dependent add per element, which neither vectorizes nor
/// pipelines, and the Householder panel kernels of [`crate::qr`] are made of
/// these.
///
/// # Panics
/// Panics on length mismatch.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot length mismatch");
    let mut lanes = [0.0f64; 8];
    let (xc, yc) = (x.chunks_exact(8), y.chunks_exact(8));
    let mut tail = 0.0;
    for (a, b) in xc.remainder().iter().zip(yc.remainder()) {
        tail += a * b;
    }
    for (a, b) in xc.zip(yc) {
        for l in 0..8 {
            lanes[l] += a[l] * b[l];
        }
    }
    ((lanes[0] + lanes[4]) + (lanes[1] + lanes[5]))
        + ((lanes[2] + lanes[6]) + (lanes[3] + lanes[7]))
        + tail
}

/// `y += alpha·x`.
///
/// # Panics
/// Panics on length mismatch.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    if alpha == 0.0 {
        return;
    }
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `x *= alpha`.
#[inline]
pub fn scal(alpha: f64, x: &mut [f64]) {
    for xi in x {
        *xi *= alpha;
    }
}

/// Euclidean norm, safe against overflow and underflow of the squares.
/// When the plain sum of squares lands far from both ends of the exponent
/// range (always, for the matrices FSI factors) no square was lost and the
/// one vectorized pass is the answer; a sum that is zero, non-finite or
/// near a limit is redone by DNRM2's scaled recurrence, which also carries
/// NaN and infinity through to the result.
pub fn nrm2(x: &[f64]) -> f64 {
    let ssq = dot(x, x);
    if (1e-280..1e280).contains(&ssq) {
        return ssq.sqrt();
    }
    let (mut scale, mut ssq) = (0.0f64, 1.0f64);
    for a in x.iter().map(|xi| xi.abs()).filter(|&a| a != 0.0) {
        if scale < a {
            ssq = 1.0 + ssq * (scale / a).powi(2);
            scale = a;
        } else {
            ssq += (a / scale).powi(2);
        }
    }
    scale * ssq.sqrt()
}

/// Index of the element with maximum absolute value (0 for empty input).
#[inline]
pub fn iamax(x: &[f64]) -> usize {
    let mut best = 0;
    let mut bv = 0.0f64;
    for (i, &xi) in x.iter().enumerate() {
        let a = xi.abs();
        if a > bv {
            bv = a;
            best = i;
        }
    }
    best
}

/// Matrix-vector product `y := alpha·A·x + beta·y`.
///
/// # Panics
/// Panics on dimension mismatch.
pub fn gemv(alpha: f64, a: MatRef<'_>, x: &[f64], beta: f64, y: &mut [f64]) {
    assert_eq!(a.cols(), x.len(), "gemv: A.cols != x.len");
    assert_eq!(a.rows(), y.len(), "gemv: A.rows != y.len");
    if beta == 0.0 {
        y.fill(0.0);
    } else if beta != 1.0 {
        scal(beta, y);
    }
    // Column-major: accumulate alpha·x_j times column j (axpy per column).
    for j in 0..a.cols() {
        axpy(alpha * x[j], a.col(j), y);
    }
    fsi_runtime::flops::add_flops(2 * a.rows() as u64 * a.cols() as u64);
}

/// Transposed matrix-vector product `y := alpha·Aᵀ·x + beta·y`.
///
/// # Panics
/// Panics on dimension mismatch.
pub fn gemv_t(alpha: f64, a: MatRef<'_>, x: &[f64], beta: f64, y: &mut [f64]) {
    gemv_t_uncounted(alpha, a, x, beta, y);
    fsi_runtime::flops::add_flops(2 * a.rows() as u64 * a.cols() as u64);
}

/// [`gemv_t`] without the flop charge — for use inside kernels (GEQRF)
/// that already charged their analytic total; charging the panel
/// products again would double-count.
pub(crate) fn gemv_t_uncounted(alpha: f64, a: MatRef<'_>, x: &[f64], beta: f64, y: &mut [f64]) {
    assert_eq!(a.rows(), x.len(), "gemv_t: A.rows != x.len");
    assert_eq!(a.cols(), y.len(), "gemv_t: A.cols != y.len");
    for j in 0..a.cols() {
        let d = dot(a.col(j), x);
        y[j] = alpha * d + if beta == 0.0 { 0.0 } else { beta * y[j] };
    }
}

/// Rank-1 update `A += alpha·x·yᵀ`.
///
/// # Panics
/// Panics on dimension mismatch.
pub fn ger(alpha: f64, x: &[f64], y: &[f64], a: MatMut<'_>) {
    let flops = 2 * x.len() as u64 * y.len() as u64;
    ger_uncounted(alpha, x, y, a);
    fsi_runtime::flops::add_flops(flops);
}

/// [`ger`] without the flop charge (see [`gemv_t_uncounted`]).
pub(crate) fn ger_uncounted(alpha: f64, x: &[f64], y: &[f64], mut a: MatMut<'_>) {
    assert_eq!(a.rows(), x.len(), "ger: A.rows != x.len");
    assert_eq!(a.cols(), y.len(), "ger: A.cols != y.len");
    for j in 0..a.cols() {
        axpy(alpha * y[j], x, a.col_mut(j));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;

    #[test]
    fn dot_axpy_scal() {
        let x = [1.0, 2.0, 3.0];
        let mut y = [4.0, 5.0, 6.0];
        assert_eq!(dot(&x, &y), 32.0);
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [6.0, 9.0, 12.0]);
        axpy(0.0, &x, &mut y);
        assert_eq!(y, [6.0, 9.0, 12.0]);
        scal(0.5, &mut y);
        assert_eq!(y, [3.0, 4.5, 6.0]);
    }

    #[test]
    fn nrm2_is_robust_to_extremes() {
        assert_eq!(nrm2(&[3.0, 4.0]), 5.0);
        assert_eq!(nrm2(&[]), 0.0);
        assert_eq!(nrm2(&[0.0, 0.0]), 0.0);
        // Would overflow with naive sum of squares.
        let big = 1e200;
        let n = nrm2(&[big, big]);
        assert!((n - big * std::f64::consts::SQRT_2).abs() / n < 1e-15);
        // Would underflow with naive sum of squares.
        let tiny = 1e-200;
        let n = nrm2(&[tiny, tiny]);
        assert!((n - tiny * std::f64::consts::SQRT_2).abs() / n < 1e-15);
        // Non-finite entries reach the result, alone or in company.
        let (nan, inf) = (f64::NAN, f64::INFINITY);
        for x in [
            &[nan, nan][..],
            &[0.0, nan],
            &[nan, 1.0],
            &[big, nan],
            &[inf, nan],
        ] {
            assert!(nrm2(x).is_nan(), "{x:?}");
        }
        assert_eq!(nrm2(&[inf, 1.0]), inf);
        assert_eq!(nrm2(&[0.0, -inf]), inf);
    }

    #[test]
    fn iamax_finds_peak() {
        assert_eq!(iamax(&[1.0, -5.0, 3.0]), 1);
        assert_eq!(iamax(&[]), 0);
        assert_eq!(iamax(&[0.0, 0.0]), 0);
    }

    #[test]
    fn gemv_matches_manual() {
        let a = Matrix::from_fn(2, 3, |i, j| (i * 3 + j + 1) as f64); // [[1,2,3],[4,5,6]]
        let x = [1.0, 0.0, -1.0];
        let mut y = [10.0, 20.0];
        gemv(1.0, a.as_ref(), &x, 0.0, &mut y);
        assert_eq!(y, [-2.0, -2.0]);
        gemv(2.0, a.as_ref(), &x, 1.0, &mut y);
        assert_eq!(y, [-6.0, -6.0]);
    }

    #[test]
    fn gemv_t_matches_transpose() {
        let a = Matrix::from_fn(3, 2, |i, j| (i + 2 * j) as f64);
        let x = [1.0, 2.0, 3.0];
        let mut y1 = [0.0, 0.0];
        gemv_t(1.0, a.as_ref(), &x, 0.0, &mut y1);
        let at = a.transpose();
        let mut y2 = [0.0, 0.0];
        gemv(1.0, at.as_ref(), &x, 0.0, &mut y2);
        assert_eq!(y1, y2);
    }

    #[test]
    fn ger_rank1() {
        let mut a = Matrix::zeros(2, 3);
        ger(2.0, &[1.0, 2.0], &[3.0, 4.0, 5.0], a.as_mut());
        assert_eq!(a[(0, 0)], 6.0);
        assert_eq!(a[(1, 2)], 20.0);
    }
}
