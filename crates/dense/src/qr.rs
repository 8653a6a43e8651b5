//! Householder QR factorization (GEQRF) that hands back its orthogonal
//! factor in compact-WY form, and the application of that factor (ORMQR) as
//! three full-width GEMMs.
//!
//! BSOFI — stage 2 of the FSI algorithm — factors a sequence of `2N × N`
//! panels, left-applies each `Qᵀ` to two block columns as the chain
//! advances, and then applies the accumulated `Qᵀ` to the structured
//! `R⁻¹`. Those applications are the largest flop block of BSOFI, so they
//! must run at GEMM speed. Every factorization therefore carries **one**
//! compact-WY pair for the whole panel, `Q = I − V·T·Vᵀ`: the explicit
//! unit lower trapezoid `V` (`m × n`, zeros stored above the diagonal) and
//! the full-width upper-triangular `T` (`n × n`, zeros stored below), both
//! dense so that plain GEMM can consume them. They are built once, inside
//! [`geqrf`], by the recursive panel of Elmroth and Gustavson (LAPACK's
//! DGEQRT3): split the columns in two, factor the left half, update the
//! right half with the left half's `(V₁, T₁₁)`, factor the right half, and
//! merge `T₁₂ = −T₁₁·(V₁ᵀ·V₂)·T₂₂` — all GEMMs; only blocks of at most
//! `BASE` columns are factored by the level-2 kernel. `T` never passes
//! through `1/τ`: a reflector with `τ_j = 0` (a column already zero below
//! its diagonal) is a zero row and column of `T`.
//!
//! [`QrFactor::apply_qt_left`] and its three siblings are then
//! `W = Vᵀ·C`, `W = op(T)·W`, `C −= V·W` — no loop over reflector blocks,
//! nothing rebuilt per call. Callers that know `Vᵀ·C` without computing it
//! (BSOFI's right-hand sides are identity blocks) read `V` and `T` through
//! [`QrFactor::v`] / [`QrFactor::t`] and skip the first product.
//!
//! Conventions follow LAPACK: `Q = H_0·H_1⋯H_{n−1}`,
//! `H_j = I − τ_j·v_j·v_jᵀ`, `v_j` unit-diagonal. Storage does not: the
//! factorization turns `A` into `V` in place and moves `R` out to an
//! `n × n` matrix of its own as each column is finished, so a factor holds
//! the reflectors once.

use crate::blas::{gemv_t_uncounted, ger_uncounted, nrm2, scal};
use crate::gemm::{gemm_op_uncounted, Op};
use crate::matrix::{MatMut, MatRef, Matrix};
use fsi_runtime::{flops, trace, workspace, Par};

/// Column count at which the recursive panel stops splitting and factors
/// with the level-2 kernel.
const BASE: usize = 12;

/// A Householder QR factorization of an `m × n` matrix with `m ≥ n`.
pub struct QrFactor {
    /// The reflectors as an explicit `m × n` unit lower trapezoid; while
    /// [`geqrf`] runs, the columns not yet factored still hold `A`.
    v: Matrix,
    /// The `n × n` upper-triangular `R`, zero below.
    r: Matrix,
    /// The `n × n` upper-triangular compact-WY factor, zero below.
    t: Matrix,
    /// Reflector scalars `τ_j` (the diagonal of `T`).
    tau: Vec<f64>,
}

/// Factors `A = Q·R`, consuming `A`, and builds the compact-WY pair
/// `(V, T)` of `Q` on the way (see the module docs).
///
/// # Panics
/// Panics unless `A.rows() >= A.cols()`.
pub fn geqrf(a: Matrix) -> QrFactor {
    let (m, n) = (a.rows(), a.cols());
    assert!(m >= n, "geqrf requires m >= n (got {m} x {n})");
    let _kernel = fsi_runtime::trace::kernel_span("geqrf");
    trace::charge_flops(flops::counts::geqrf(m, n) + flops::counts::larft(m, n));
    let mut f = QrFactor {
        v: a,
        r: Matrix::zeros(n, n),
        t: Matrix::zeros(n, n),
        tau: vec![0.0; n],
    };
    f.factor_columns(0, n);
    f
}

/// Generates the Householder reflector annihilating `x[1..]`: leaves
/// `v[1..]` there and a unit `v[0]`, and returns `(β, τ)`.
fn house_generate(x: &mut [f64]) -> (f64, f64) {
    let alpha = std::mem::replace(&mut x[0], 1.0);
    let xnorm = nrm2(&x[1..]);
    if xnorm == 0.0 {
        return (alpha, 0.0); // H = I
    }
    let beta = -alpha.signum() * (alpha * alpha + xnorm * xnorm).sqrt();
    scal(1.0 / (alpha - beta), &mut x[1..]);
    (beta, (beta - alpha) / beta)
}

/// Which side of `C` the orthogonal factor is applied to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Side {
    /// `C := op(Q)·C`
    Left,
    /// `C := C·op(Q)`
    Right,
}

impl QrFactor {
    /// Row count of the factored matrix.
    pub fn m(&self) -> usize {
        self.v.rows()
    }

    /// Column count (= number of reflectors).
    pub fn n(&self) -> usize {
        self.v.cols()
    }

    /// The reflector scalars.
    pub fn taus(&self) -> &[f64] {
        &self.tau
    }

    /// The reflectors as an explicit `m × n` unit lower trapezoid (zeros
    /// above the diagonal): `Q = I − V·T·Vᵀ`.
    pub fn v(&self) -> &Matrix {
        &self.v
    }

    /// The `n × n` upper-triangular compact-WY factor `T` (zeros below the
    /// diagonal).
    pub fn t(&self) -> &Matrix {
        &self.t
    }

    /// The `n × n` upper-triangular `R` (zeros below the diagonal).
    pub fn r(&self) -> &Matrix {
        &self.r
    }

    /// `C := Qᵀ·C`. `C` must have `m` rows.
    pub fn apply_qt_left(&self, par: Par<'_>, c: MatMut<'_>) {
        self.apply(par, Side::Left, true, c)
    }

    /// `C := Q·C`. `C` must have `m` rows.
    pub fn apply_q_left(&self, par: Par<'_>, c: MatMut<'_>) {
        self.apply(par, Side::Left, false, c)
    }

    /// `C := C·Qᵀ`. `C` must have `m` columns.
    pub fn apply_qt_right(&self, par: Par<'_>, c: MatMut<'_>) {
        self.apply(par, Side::Right, true, c)
    }

    /// `C := C·Q`. `C` must have `m` columns.
    pub fn apply_q_right(&self, par: Par<'_>, c: MatMut<'_>) {
        self.apply(par, Side::Right, false, c)
    }

    /// Compact-WY application of `op(Q)`: three GEMMs over the whole panel.
    fn apply(&self, par: Par<'_>, side: Side, trans: bool, c: MatMut<'_>) {
        let m = self.m();
        let other_dim = match side {
            Side::Left => {
                assert_eq!(c.rows(), m, "apply: C row count mismatch");
                c.cols()
            }
            Side::Right => {
                assert_eq!(c.cols(), m, "apply: C column count mismatch");
                c.rows()
            }
        };
        let _kernel = fsi_runtime::trace::kernel_span("ormqr");
        trace::charge_flops(flops::counts::ormqr(m, self.n(), other_dim));
        apply_wy(par, self.v.as_ref(), self.t.as_ref(), side, trans, c);
    }

    /// Explicit `m × m` orthogonal factor (tests and small problems only).
    pub fn q(&self) -> Matrix {
        let mut q = Matrix::identity(self.m());
        self.apply_q_left(Par::Seq, q.as_mut());
        q
    }

    /// Factors columns `[j0, j0 + w)` — which still hold `A`, already
    /// updated by every reflector left of `j0` — into the matching columns
    /// of `V` and `R` and the diagonal block `T[j0.., j0..]`.
    fn factor_columns(&mut self, j0: usize, w: usize) {
        if w <= BASE {
            return self.factor_base(j0, w);
        }
        let (w1, w2) = (w / 2, w - w / 2);
        let j1 = j0 + w1;
        let m = self.m();
        self.factor_columns(j0, w1);
        // A₂ := (I − V₁·T₁₁ᵀ·V₁ᵀ)·A₂ on rows j0.. of the right half.
        let (v1, a2) = self.v.view_mut(j0, j0, m - j0, w).split_at_col(w1);
        let t11 = self.t.view(j0, j0, w1, w1);
        apply_wy(Par::Seq, v1.as_ref(), t11, Side::Left, true, a2);
        self.factor_columns(j1, w2);
        // T₁₂ = −T₁₁·(V₁ᵀ·V₂)·T₂₂; V₂ is zero above row j1.
        let v1 = self.v.view(j1, j0, m - j1, w1);
        let v2 = self.v.view(j1, j1, m - j1, w2);
        let (left, right) = self.t.view_mut(j0, j0, w, w).split_at_col(w1);
        let t11 = left.as_ref().submatrix(0, 0, w1, w1);
        let (t12, t22) = right.split_at_row(w1);
        workspace::with_scratch2(w1 * w2, w1 * w2, |xbuf, ybuf| {
            let mut x = MatMut::from_slice(xbuf, w1, w2, w1);
            let mut y = MatMut::from_slice(ybuf, w1, w2, w1);
            let (nt, tr) = (Op::NoTrans, Op::Trans);
            gemm_op_uncounted(Par::Seq, 1.0, tr, v1, nt, v2, 0.0, x.rb_mut());
            gemm_op_uncounted(Par::Seq, 1.0, nt, t11, nt, x.as_ref(), 0.0, y.rb_mut());
            gemm_op_uncounted(Par::Seq, -1.0, nt, y.as_ref(), nt, t22.as_ref(), 0.0, t12);
        });
    }

    /// Level-2 factorization of the `w ≤ BASE` columns from `j0`
    /// (DGEQR2), with their block of `T` by the forward columnwise
    /// recurrence (DLARFT):
    /// `T[j0..j, j] = −τ_j·T[j0..j, j0..j]·(V[:, j0..j]ᵀ·v_j)`, `T[j,j] = τ_j`.
    fn factor_base(&mut self, j0: usize, w: usize) {
        let m = self.m();
        let end = j0 + w;
        for j in j0..end {
            // Rows above the diagonal of column j are final: they are R's.
            let mut v = self.v.as_mut();
            let col = v.col_mut(j);
            self.r.as_mut().col_mut(j)[..j].copy_from_slice(&col[..j]);
            col[..j].fill(0.0);
            let (beta, tau) = house_generate(&mut col[j..]);
            self.r[(j, j)] = beta;
            self.tau[j] = tau;
            self.t[(j, j)] = tau;
            if tau == 0.0 {
                continue; // H_j = I: column j of T stays zero
            }
            // Rows j.. of the block: reflectors j0..=j, then what is left of A.
            let (done, mut trail) = self.v.view_mut(j, j0, m - j, w).split_at_col(j + 1 - j0);
            let done = done.as_ref();
            let vj = done.col(j - j0);
            let mut wbuf = [0.0; BASE];
            // Uncounted: GEQRF charged its analytic total up front.
            if j + 1 < end {
                // H_j on the block's remaining columns:
                // w = A[j.., j+1..end)ᵀ·v_j ; A[j.., j+1..end) −= τ·v_j·wᵀ
                let wv = &mut wbuf[..end - j - 1];
                gemv_t_uncounted(1.0, trail.as_ref(), vj, 0.0, wv);
                ger_uncounted(-tau, vj, wv, trail.rb_mut());
            }
            if j > j0 {
                let k = j - j0;
                let wv = &mut wbuf[..k];
                // Rows above j of v_j are zero.
                gemv_t_uncounted(-tau, done.submatrix(0, 0, m - j, k), vj, 0.0, wv);
                for i in 0..k {
                    let s = (i..k).fold(0.0, |s, p| s + self.t[(j0 + i, j0 + p)] * wv[p]);
                    self.t[(j0 + i, j)] = s;
                }
            }
        }
    }
}

/// `C := op(I − V·T·Vᵀ)·C` (left) or `C := C·op(I − V·T·Vᵀ)` (right) with
/// `op` the transpose iff `trans`: three GEMMs, the two `n`-deep
/// intermediates borrowed from the thread-local scratch pool. The caller
/// has already charged the flops.
fn apply_wy(
    par: Par<'_>,
    v: MatRef<'_>,
    t: MatRef<'_>,
    side: Side,
    trans: bool,
    mut c: MatMut<'_>,
) {
    let n = v.cols();
    let (nt, tr) = (Op::NoTrans, Op::Trans);
    let opt = if trans { tr } else { nt };
    match side {
        Side::Left => {
            let k = c.cols();
            workspace::with_scratch2(n * k, n * k, |wbuf, twbuf| {
                let mut w = MatMut::from_slice(wbuf, n, k, n.max(1));
                let mut tw = MatMut::from_slice(twbuf, n, k, n.max(1));
                gemm_op_uncounted(par, 1.0, tr, v, nt, c.as_ref(), 0.0, w.rb_mut());
                gemm_op_uncounted(par, 1.0, opt, t, nt, w.as_ref(), 0.0, tw.rb_mut());
                gemm_op_uncounted(par, -1.0, nt, v, nt, tw.as_ref(), 1.0, c.rb_mut());
            });
        }
        Side::Right => {
            let k = c.rows();
            workspace::with_scratch2(k * n, k * n, |wbuf, wtbuf| {
                let mut w = MatMut::from_slice(wbuf, k, n, k.max(1));
                let mut wt = MatMut::from_slice(wtbuf, k, n, k.max(1));
                gemm_op_uncounted(par, 1.0, nt, c.as_ref(), nt, v, 0.0, w.rb_mut());
                gemm_op_uncounted(par, 1.0, nt, w.as_ref(), opt, t, 0.0, wt.rb_mut());
                gemm_op_uncounted(par, -1.0, nt, wt.as_ref(), tr, v, 1.0, c.rb_mut());
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{gemm_op, mul, test_matrix};

    fn assert_small(m: &Matrix, tol: f64, what: &str) {
        assert!(m.max_abs() < tol, "{what}: {} >= {tol}", m.max_abs());
    }

    #[test]
    fn qr_reconstructs_a() {
        for &(m, n) in &[
            (1, 1),
            (5, 3),
            (8, 8),
            (40, 40),
            (64, 32),
            (70, 70),
            (37, 36),
        ] {
            let a = test_matrix(m, n, (m * n) as u64);
            let f = geqrf(a.clone());
            let q = f.q();
            let mut r_full = Matrix::zeros(m, n);
            r_full.set_block(0, 0, f.r().as_ref());
            let mut resid = mul(&q, &r_full);
            resid.sub_assign(&a);
            assert_small(&resid, 1e-12 * (m as f64), &format!("QR−A for {m}x{n}"));
        }
    }

    #[test]
    fn q_is_orthogonal() {
        let (orth, _) = orthogonality_and_residual(&test_matrix(50, 50, 77));
        assert!(orth < 1e-12, "QᵀQ − I = {orth}");
    }

    #[test]
    fn tall_panel_qr_like_bsofi() {
        // The exact shape BSOFI uses: 2N × N panels.
        let n = 24;
        let a = test_matrix(2 * n, n, 5);
        let (_, resid) = orthogonality_and_residual(&a);
        assert!(resid < 1e-12, "2NxN panel: QR − A = {resid}");
        assert_eq!(geqrf(a).r().rows(), n);
    }

    #[test]
    fn apply_roundtrip_q_qt_is_identity() {
        let m = 33;
        let a = test_matrix(m, 20, 12);
        let f = geqrf(a);
        let c0 = test_matrix(m, 6, 13);
        let mut c = c0.clone();
        f.apply_qt_left(Par::Seq, c.as_mut());
        f.apply_q_left(Par::Seq, c.as_mut());
        c.sub_assign(&c0);
        assert_small(&c, 1e-12, "Q Qᵀ C − C");
    }

    #[test]
    fn q_thin_has_orthonormal_columns() {
        let a = test_matrix(30, 12, 16);
        let f = geqrf(a);
        let qt = f.q().block(0, 0, 30, 12);
        assert_eq!((qt.rows(), qt.cols()), (30, 12));
        let mut g = Matrix::zeros(12, 12);
        gemm_op(
            Par::Seq,
            1.0,
            Op::Trans,
            qt.as_ref(),
            Op::NoTrans,
            qt.as_ref(),
            0.0,
            g.as_mut(),
        );
        g.add_diag(-1.0);
        assert_small(&g, 1e-12, "thin Q orthonormality");
    }

    /// `‖QᵀQ − I‖_max` and `‖Q·[R; 0] − A‖_max` of a factorization of `a`.
    fn orthogonality_and_residual(a: &Matrix) -> (f64, f64) {
        let (m, n) = (a.rows(), a.cols());
        let f = geqrf(a.clone());
        let q = f.q();
        let mut qtq = Matrix::zeros(m, m);
        let (nt, tr) = (Op::NoTrans, Op::Trans);
        gemm_op(
            Par::Seq,
            1.0,
            tr,
            q.as_ref(),
            nt,
            q.as_ref(),
            0.0,
            qtq.as_mut(),
        );
        qtq.add_diag(-1.0);
        let mut r_full = Matrix::zeros(m, n);
        r_full.set_block(0, 0, f.r().as_ref());
        let mut resid = mul(&q, &r_full);
        resid.sub_assign(a);
        (qtq.max_abs(), resid.max_abs())
    }

    #[test]
    fn compact_wy_pair_has_its_documented_shape() {
        // Sizes on both sides of BASE, and ones that split unevenly.
        for &(m, n) in &[(5, 3), (12, 8), (20, 9), (45, 37), (128, 64), (288, 144)] {
            let f = geqrf(test_matrix(m, n, (3 * m + n) as u64));
            let (v, r, t) = (f.v(), f.r(), f.t());
            assert_eq!((v.rows(), v.cols()), (m, n));
            assert_eq!((r.rows(), r.cols(), t.rows(), t.cols()), (n, n, n, n));
            for j in 0..n {
                for i in 0..j {
                    assert_eq!(v[(i, j)], 0.0, "{m}x{n} V({i},{j}) above the diagonal");
                }
                assert_eq!(v[(j, j)], 1.0, "{m}x{n} V diagonal {j}");
                assert_eq!(t[(j, j)], f.taus()[j], "{m}x{n} T diagonal {j}");
                for i in j + 1..n {
                    assert_eq!(t[(i, j)], 0.0, "{m}x{n} T({i},{j}) below the diagonal");
                    assert_eq!(r[(i, j)], 0.0, "{m}x{n} R({i},{j}) below the diagonal");
                }
            }
        }
    }

    #[test]
    fn nan_below_the_diagonal_reaches_r_and_tau() {
        // The R-diagonal health probe of BSOFI relies on this.
        let mut a = test_matrix(6, 3, 21);
        for i in 1..6 {
            a[(i, 0)] = f64::NAN;
        }
        let f = geqrf(a);
        assert!(f.taus()[0].is_nan(), "tau_0 = {}", f.taus()[0]);
        assert!((0..3).all(|j| !f.r()[(j, j)].is_finite()), "R diagonal");
    }

    #[test]
    fn degenerate_panels_give_finite_t_with_zero_rows_and_columns() {
        let n = 20;
        // BSOFI's panel 0 is [I; −b̄₁]; a zero block makes it [I; 0].
        let mut stacked_identity = Matrix::zeros(2 * n, n);
        stacked_identity.set_block(0, 0, Matrix::identity(n).as_ref());
        // Columns in the middle that are already upper triangular when
        // their turn comes: the leading 11 columns live in the top 11 rows
        // (so do their reflectors, and the last of them has nothing left to
        // annihilate), and column 11 is zero below its diagonal.
        let mut done_in_the_middle = test_matrix(2 * n, n, 41);
        for j in 0..12 {
            for i in 11.max(j + 1)..2 * n {
                done_in_the_middle[(i, j)] = 0.0;
            }
        }
        for (name, a, zero_taus) in [
            ("zero", Matrix::zeros(2 * n, n), (0..n).collect::<Vec<_>>()),
            ("[I; 0]", stacked_identity, (0..n).collect()),
            ("triangular columns", done_in_the_middle, vec![10, 11]),
        ] {
            let f = geqrf(a.clone());
            assert!(f.t().as_slice().iter().all(|x| x.is_finite()), "{name}: T");
            for &j in &zero_taus {
                assert_eq!(f.taus()[j], 0.0, "{name}: tau {j}");
                for p in 0..n {
                    assert_eq!(f.t()[(j, p)], 0.0, "{name}: T row {j}");
                    assert_eq!(f.t()[(p, j)], 0.0, "{name}: T column {j}");
                }
            }
            let (orth, resid) = orthogonality_and_residual(&a);
            assert!(orth < 1e-13, "{name}: QᵀQ − I = {orth}");
            assert!(resid < 1e-13, "{name}: QR − A = {resid}");
        }
    }

    #[test]
    fn zero_matrix_gives_identity_reflectors() {
        let a = Matrix::zeros(6, 4);
        let f = geqrf(a);
        assert!(f.taus().iter().all(|&t| t == 0.0));
        let q = f.q();
        let mut d = q.clone();
        d.add_diag(-1.0);
        assert_eq!(d.max_abs(), 0.0, "Q of zero matrix is exactly I");
    }
}
