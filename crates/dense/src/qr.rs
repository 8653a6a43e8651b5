//! Householder QR factorization (GEQRF) and blocked application of the
//! orthogonal factor (ORMQR, compact-WY form).
//!
//! BSOFI — stage 2 of the FSI algorithm — factors a sequence of `2N × N`
//! panels and then right-applies the accumulated `Qᵀ` to the `bN`-wide
//! structured `R⁻¹`. That application is the largest flop block of BSOFI,
//! so it must run at level-3 speed: reflectors are applied in blocks of
//! `IB` through the compact-WY identity `Q = I − V·T·Vᵀ` (LARFT/LARFB),
//! turning the whole operation into three GEMMs per block.
//!
//! Conventions follow LAPACK: `Q = H_0·H_1⋯H_{k−1}`,
//! `H_j = I − τ_j·v_j·v_jᵀ`, `v_j` unit-diagonal and stored below the
//! diagonal of the factored matrix, `R` in the upper triangle.

use crate::blas::{axpy, gemv_t_uncounted, ger_uncounted, nrm2};
use crate::gemm::{gemm_op_uncounted, Op};
use crate::matrix::{MatMut, Matrix};
use fsi_runtime::{flops, workspace, Par};

/// Reflector block size for compact-WY application.
const IB: usize = 32;

/// A Householder QR factorization of an `m × n` matrix with `m ≥ n`.
pub struct QrFactor {
    /// Packed factors: `R` upper, reflector vectors below the diagonal.
    qr: Matrix,
    /// Reflector scalars `τ_j`.
    tau: Vec<f64>,
}

/// Factors `A = Q·R`, consuming `A`.
///
/// Blocked algorithm: factor an `IB`-column panel with the unblocked
/// kernel, form its compact-WY `T`, and apply `(I − V·Tᵀ·Vᵀ)` to the
/// trailing columns with the level-3 LARFB kernel — so the bulk of the
/// factorization flops are GEMMs, as in LAPACK's DGEQRF.
///
/// # Panics
/// Panics unless `A.rows() >= A.cols()`.
pub fn geqrf(a: Matrix) -> QrFactor {
    let (m, n) = (a.rows(), a.cols());
    assert!(m >= n, "geqrf requires m >= n (got {m} x {n})");
    let _kernel = fsi_runtime::trace::kernel_span("geqrf");
    static METER: fsi_runtime::metrics::Meter = fsi_runtime::metrics::Meter::new("dense.geqrf");
    let _meter = METER.start(flops::counts::geqrf(m, n));
    flops::add_flops(flops::counts::geqrf(m, n));
    let mut qr = a;
    let mut tau = vec![0.0; n];
    let mut j0 = 0;
    while j0 < n {
        let kb = IB.min(n - j0);
        // Unblocked factorization of the panel columns [j0, j0+kb),
        // applying reflectors only within the panel.
        for j in j0..j0 + kb {
            tau[j] = house_generate(&mut qr, j);
            if tau[j] != 0.0 && j + 1 < j0 + kb {
                house_apply_trailing(&mut qr, j, tau[j], j0 + kb);
            }
        }
        // Level-3 trailing update of columns [j0+kb, n).
        if j0 + kb < n {
            let (v, t) = build_vt(&qr, &tau, j0, kb);
            let trailing = qr.view_mut(j0, j0 + kb, m - j0, n - j0 - kb);
            larfb_left(Par::Seq, &v, &t, true, trailing);
        }
        j0 += kb;
    }
    QrFactor { qr, tau }
}

/// Generates the Householder reflector annihilating `A[j+1.., j]`;
/// stores `β` at `(j, j)`, `v[1..]` below, and returns `τ`.
fn house_generate(a: &mut Matrix, j: usize) -> f64 {
    let m = a.rows();
    let alpha = a[(j, j)];
    // Norm of the subdiagonal part, taken in place.
    let xnorm = nrm2(&a.as_ref().col(j)[j + 1..]);
    if xnorm == 0.0 {
        return 0.0; // H = I
    }
    let beta = -alpha.signum() * (alpha * alpha + xnorm * xnorm).sqrt();
    let tau = (beta - alpha) / beta;
    let scale = 1.0 / (alpha - beta);
    for i in j + 1..m {
        a[(i, j)] *= scale;
    }
    a[(j, j)] = beta;
    tau
}

/// Applies `H_j = I − τ·v·vᵀ` to the columns `A[j.., j+1..end)` of the
/// current panel (`end − j − 1 < IB` of them).
fn house_apply_trailing(a: &mut Matrix, j: usize, tau: f64, end: usize) {
    let m = a.rows();
    let width = end - j - 1;
    // v = [1; A[j+1.., j]]: the implicit unit entry sits on the diagonal
    // for the duration of the update (as in LAPACK's DGEQR2), so v is read
    // where it is stored.
    let beta = std::mem::replace(&mut a[(j, j)], 1.0);
    {
        let (left, right) = a.as_mut().split_at_col(j + 1);
        let v = &left.as_ref().col(j)[j..];
        let trail = right.submatrix(j, 0, m - j, width);
        // w = A[j.., j+1..end)ᵀ v ; A[j.., j+1..end) −= τ v wᵀ
        // Uncounted: the enclosing GEQRF already charged its analytic total.
        let mut w = [0.0; IB];
        let w = &mut w[..width];
        gemv_t_uncounted(1.0, trail.as_ref(), v, 0.0, w);
        ger_uncounted(-tau, v, w, trail);
    }
    a[(j, j)] = beta;
}

/// Which side of `C` the orthogonal factor is applied to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    /// `C := op(Q)·C`
    Left,
    /// `C := C·op(Q)`
    Right,
}

impl QrFactor {
    /// Row count of the factored matrix.
    pub fn m(&self) -> usize {
        self.qr.rows()
    }

    /// Column count (= number of reflectors).
    pub fn n(&self) -> usize {
        self.qr.cols()
    }

    /// The packed factor matrix (for inspection).
    pub fn packed(&self) -> &Matrix {
        &self.qr
    }

    /// The reflector scalars.
    pub fn taus(&self) -> &[f64] {
        &self.tau
    }

    /// Extracts the `n × n` upper-triangular `R`.
    pub fn r(&self) -> Matrix {
        let n = self.n();
        let mut out = Matrix::zeros(n, n);
        self.write_r(out.as_mut());
        out
    }

    /// Writes the `n × n` upper-triangular factor `R` into `out` without
    /// allocating — the panel API callers use to cache `R` diagonals
    /// instead of materializing a fresh matrix per access.
    ///
    /// # Panics
    /// Panics unless `out` is `n × n`.
    pub fn write_r(&self, mut out: MatMut<'_>) {
        let n = self.n();
        assert_eq!((out.rows(), out.cols()), (n, n), "write_r shape mismatch");
        for j in 0..n {
            let col = out.col_mut(j);
            for (i, slot) in col.iter_mut().enumerate() {
                *slot = if i <= j { self.qr[(i, j)] } else { 0.0 };
            }
        }
    }

    /// `C := Qᵀ·C` (blocked). `C` must have `m` rows.
    pub fn apply_qt_left(&self, par: Par<'_>, c: MatMut<'_>) {
        self.apply(par, Side::Left, true, c)
    }

    /// `C := Q·C` (blocked). `C` must have `m` rows.
    pub fn apply_q_left(&self, par: Par<'_>, c: MatMut<'_>) {
        self.apply(par, Side::Left, false, c)
    }

    /// `C := C·Qᵀ` (blocked). `C` must have `m` columns.
    pub fn apply_qt_right(&self, par: Par<'_>, c: MatMut<'_>) {
        self.apply(par, Side::Right, true, c)
    }

    /// `C := C·Q` (blocked). `C` must have `m` columns.
    pub fn apply_q_right(&self, par: Par<'_>, c: MatMut<'_>) {
        self.apply(par, Side::Right, false, c)
    }

    /// Blocked compact-WY application of `op(Q)`.
    fn apply(&self, par: Par<'_>, side: Side, trans: bool, mut c: MatMut<'_>) {
        let m = self.m();
        match side {
            Side::Left => assert_eq!(c.rows(), m, "apply: C row count mismatch"),
            Side::Right => assert_eq!(c.cols(), m, "apply: C column count mismatch"),
        }
        let k = self.n();
        let other_dim = match side {
            Side::Left => c.cols(),
            Side::Right => c.rows(),
        };
        let _kernel = fsi_runtime::trace::kernel_span("ormqr");
        flops::add_flops(flops::counts::ormqr(m, k, other_dim));
        // Block order: LARFB applies H_{i0}⋯H_{i0+kb−1} together.
        //   left  & trans  (QᵀC): forward          (H_0 first)
        //   left  & !trans (QC) : backward
        //   right & !trans (CQ) : forward
        //   right & trans  (CQᵀ): backward
        let forward = trans == (side == Side::Left);
        let blocks = k.div_ceil(IB);
        for step in 0..blocks {
            let i0 = IB * if forward { step } else { blocks - 1 - step };
            let kb = IB.min(k - i0);
            let (v, t) = self.block_vt(i0, kb);
            let rows_below = m - i0;
            match side {
                Side::Left => {
                    let sub = c.rb_mut().submatrix(i0, 0, rows_below, other_dim);
                    larfb_left(par, &v, &t, trans, sub);
                }
                Side::Right => {
                    let sub = c.rb_mut().submatrix(0, i0, other_dim, rows_below);
                    larfb_right(par, &v, &t, trans, sub);
                }
            }
        }
    }

    /// Materializes the reflector block `V` and its triangular factor `T`
    /// (see [`build_vt`]).
    fn block_vt(&self, i0: usize, kb: usize) -> (Matrix, Matrix) {
        build_vt(&self.qr, &self.tau, i0, kb)
    }

    /// Explicit `m × m` orthogonal factor (tests and small problems only).
    pub fn q(&self) -> Matrix {
        let mut q = Matrix::identity(self.m());
        self.apply_q_left(Par::Seq, q.as_mut());
        q
    }

    /// Thin `m × n` orthogonal factor.
    pub fn q_thin(&self) -> Matrix {
        let q = self.q();
        q.block(0, 0, self.m(), self.n())
    }
}

/// Materializes the reflector block `V` (unit lower trapezoid,
/// `(m−i0) × kb`) of the packed factor and its triangular factor `T`
/// (LARFT, forward columnwise): `H_{i0}⋯H_{i0+kb−1} = I − V·T·Vᵀ`.
fn build_vt(qr: &Matrix, tau: &[f64], i0: usize, kb: usize) -> (Matrix, Matrix) {
    assert!(kb <= IB, "reflector block wider than IB");
    let m = qr.rows();
    let rows = m - i0;
    let mut v = Matrix::zeros(rows, kb);
    for jj in 0..kb {
        let col = i0 + jj;
        v[(jj, jj)] = 1.0;
        for i in col + 1..m {
            v[(i - i0, jj)] = qr[(i, col)];
        }
    }
    // T[0..j, j] = −τ_j · T[0..j, 0..j] · (V[:, 0..j]ᵀ v_j); T[j,j] = τ_j.
    let mut t = Matrix::zeros(kb, kb);
    for j in 0..kb {
        let tj = tau[i0 + j];
        t[(j, j)] = tj;
        if j == 0 || tj == 0.0 {
            continue;
        }
        // w = V[:, 0..j]ᵀ · v_j  (only rows j.. of v_j are nonzero).
        // Uncounted: LARFT overhead is inside GEQRF/ORMQR's analytic total.
        let mut w = [0.0; IB];
        let w = &mut w[..j];
        let vj = &v.as_ref().col(j)[j..];
        gemv_t_uncounted(-tj, v.view(j, 0, rows - j, j), vj, 0.0, w);
        // w := T[0..j, 0..j] · w  (upper-triangular matvec).
        for i in 0..j {
            let mut s = 0.0;
            for p in i..j {
                s += t[(i, p)] * w[p];
            }
            t[(i, j)] = s;
        }
    }
    (v, t)
}

/// `C := (I − V·op(T)·Vᵀ)·C` — LARFB, left side. The `kb × n` reflector
/// workspace is borrowed from the thread-local pool, so repeated block
/// applications (BSOFI right-applies Qᵀ per factored panel) allocate
/// nothing in steady state.
fn larfb_left(par: Par<'_>, v: &Matrix, t: &Matrix, trans: bool, mut c: MatMut<'_>) {
    let kb = v.cols();
    let n = c.cols();
    // The enclosing GEQRF/ORMQR already charged its analytic flop total,
    // so these internal products must not charge again (uncounted).
    workspace::with_scratch(kb * n, |wbuf| {
        let mut w = MatMut::from_slice(wbuf, kb, n, kb.max(1));
        // W := Vᵀ·C  (kb × n)
        gemm_op_uncounted(
            par,
            1.0,
            Op::Trans,
            v.as_ref(),
            Op::NoTrans,
            c.as_ref(),
            0.0,
            w.rb_mut(),
        );
        // W := op(T)·W  (small triangular multiply, in place).
        trmm_upper(t, trans, w.rb_mut());
        // C := C − V·W
        gemm_op_uncounted(
            par,
            -1.0,
            Op::NoTrans,
            v.as_ref(),
            Op::NoTrans,
            w.as_ref(),
            1.0,
            c.rb_mut(),
        );
    });
}

/// `C := C·(I − V·op(T)·Vᵀ)` — LARFB, right side. Workspace borrowed from
/// the thread-local pool, as in [`larfb_left`].
fn larfb_right(par: Par<'_>, v: &Matrix, t: &Matrix, trans: bool, mut c: MatMut<'_>) {
    let kb = v.cols();
    let rows = c.rows();
    workspace::with_scratch(rows * kb, |wbuf| {
        let mut w = MatMut::from_slice(wbuf, rows, kb, rows.max(1));
        // W := C·V  (rows × kb)
        gemm_op_uncounted(
            par,
            1.0,
            Op::NoTrans,
            c.as_ref(),
            Op::NoTrans,
            v.as_ref(),
            0.0,
            w.rb_mut(),
        );
        // W := W·op(T): equivalently Wᵀ := op(T)ᵀ·Wᵀ; apply on the
        // transposed triangle orientation.
        trmm_upper_right(t, trans, w.rb_mut());
        // C := C − W·Vᵀ
        gemm_op_uncounted(
            par,
            -1.0,
            Op::NoTrans,
            w.as_ref(),
            Op::Trans,
            v.as_ref(),
            1.0,
            c.rb_mut(),
        );
    });
}

/// `W := op(T)·W` with `T` small upper triangular, `W` a column-major
/// view (columns processed as contiguous slices).
fn trmm_upper(t: &Matrix, trans: bool, mut w: MatMut<'_>) {
    let kb = t.rows();
    for c in 0..w.cols() {
        let col = w.col_mut(c);
        if !trans {
            // Top-down: w[i] = Σ_{p≥i} T[i,p]·w[p].
            for i in 0..kb {
                let mut s = 0.0;
                for (p, &wp) in col.iter().enumerate().take(kb).skip(i) {
                    s += t[(i, p)] * wp;
                }
                col[i] = s;
            }
        } else {
            // Tᵀ is lower triangular: bottom-up.
            for i in (0..kb).rev() {
                let mut s = 0.0;
                for (p, &wp) in col.iter().enumerate().take(i + 1) {
                    s += t[(p, i)] * wp;
                }
                col[i] = s;
            }
        }
    }
}

/// `W := W·op(T)` with `T` small upper triangular: column axpy streams
/// (each result column is a combination of source columns, updated in an
/// order that never reads an already-overwritten column).
fn trmm_upper_right(t: &Matrix, trans: bool, mut w: MatMut<'_>) {
    let kb = t.rows();
    let rows = w.rows();
    if !trans {
        // W[:, j] := Σ_{p≤j} W[:, p]·T[p, j], right-to-left.
        for j in (0..kb).rev() {
            let tjj = t[(j, j)];
            for x in w.col_mut(j) {
                *x *= tjj;
            }
            for p in 0..j {
                let tpj = t[(p, j)];
                if tpj != 0.0 {
                    let (left, mut right) = w.rb_mut().split_at_col(j);
                    axpy(tpj, left.as_ref().col(p), right.col_mut(0));
                }
            }
        }
    } else {
        // W[:, j] := Σ_{p≥j} W[:, p]·T[j, p], left-to-right.
        for j in 0..kb {
            let tjj = t[(j, j)];
            for x in w.col_mut(j) {
                *x *= tjj;
            }
            for p in j + 1..kb {
                let tjp = t[(j, p)];
                if tjp != 0.0 {
                    let (mut left, right) = w.rb_mut().split_at_col(p);
                    let mut target = left.rb_mut().submatrix(0, j, rows, 1);
                    axpy(tjp, right.as_ref().col(0), target.col_mut(0));
                }
            }
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
            let r_full =
                Matrix::from_fn(m, n, |i, j| if i <= j { f.packed()[(i, j)] } else { 0.0 });
            let mut resid = mul(&q, &r_full);
            resid.sub_assign(&a);
            assert_small(&resid, 1e-12 * (m as f64), &format!("QR−A for {m}x{n}"));
        }
    }

    #[test]
    fn q_is_orthogonal() {
        let a = test_matrix(50, 50, 77);
        let f = geqrf(a);
        let q = f.q();
        let mut qtq = Matrix::zeros(50, 50);
        gemm_op(
            Par::Seq,
            1.0,
            Op::Trans,
            q.as_ref(),
            Op::NoTrans,
            q.as_ref(),
            0.0,
            qtq.as_mut(),
        );
        qtq.add_diag(-1.0);
        assert_small(&qtq, 1e-12, "QᵀQ − I");
    }

    #[test]
    fn tall_panel_qr_like_bsofi() {
        // The exact shape BSOFI uses: 2N × N panels.
        let n = 24;
        let a = test_matrix(2 * n, n, 5);
        let f = geqrf(a.clone());
        let q = f.q();
        let mut r_full = Matrix::zeros(2 * n, n);
        for i in 0..n {
            for j in i..n {
                r_full[(i, j)] = f.packed()[(i, j)];
            }
        }
        let mut resid = mul(&q, &r_full);
        resid.sub_assign(&a);
        assert_small(&resid, 1e-12, "2NxN panel");
        assert_eq!(f.r().rows(), n);
    }

    #[test]
    fn all_four_applications_match_explicit_q() {
        let m = 45; // not a multiple of IB, exercises remainder blocks
        let a = test_matrix(m, m, 9);
        let f = geqrf(a);
        let q = f.q();
        let c0 = test_matrix(m, 17, 10);
        // Left, trans.
        let mut c = c0.clone();
        f.apply_qt_left(Par::Seq, c.as_mut());
        let mut want = Matrix::zeros(m, 17);
        gemm_op(
            Par::Seq,
            1.0,
            Op::Trans,
            q.as_ref(),
            Op::NoTrans,
            c0.as_ref(),
            0.0,
            want.as_mut(),
        );
        let mut d = c.clone();
        d.sub_assign(&want);
        assert_small(&d, 1e-12, "QᵀC");
        // Left, no-trans.
        let mut c = c0.clone();
        f.apply_q_left(Par::Seq, c.as_mut());
        let want = mul(&q, &c0);
        let mut d = c.clone();
        d.sub_assign(&want);
        assert_small(&d, 1e-12, "QC");
        // Right side uses a 17 × m C.
        let c0r = test_matrix(17, m, 11);
        let mut c = c0r.clone();
        f.apply_q_right(Par::Seq, c.as_mut());
        let want = mul(&c0r, &q);
        let mut d = c.clone();
        d.sub_assign(&want);
        assert_small(&d, 1e-12, "CQ");
        let mut c = c0r.clone();
        f.apply_qt_right(Par::Seq, c.as_mut());
        let mut want = Matrix::zeros(17, m);
        gemm_op(
            Par::Seq,
            1.0,
            Op::NoTrans,
            c0r.as_ref(),
            Op::Trans,
            q.as_ref(),
            0.0,
            want.as_mut(),
        );
        let mut d = c.clone();
        d.sub_assign(&want);
        assert_small(&d, 1e-12, "CQᵀ");
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
    fn parallel_application_matches_sequential() {
        let pool = fsi_runtime::ThreadPool::new(4);
        let m = 90;
        let a = test_matrix(m, m, 14);
        let f = geqrf(a);
        let c0 = test_matrix(m, 120, 15);
        let mut c_seq = c0.clone();
        f.apply_qt_left(Par::Seq, c_seq.as_mut());
        let mut c_par = c0.clone();
        f.apply_qt_left(Par::Pool(&pool), c_par.as_mut());
        c_par.sub_assign(&c_seq);
        assert_small(&c_par, 1e-13, "par vs seq");
    }

    #[test]
    fn q_thin_has_orthonormal_columns() {
        let a = test_matrix(30, 12, 16);
        let f = geqrf(a);
        let qt = f.q_thin();
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

    /// The factorization as it was before the unblocked kernels stopped
    /// allocating: a fresh `Vec` for every column norm, reflector, `w` and
    /// `v_j`. Same arithmetic in the same order, so [`geqrf`] and
    /// [`build_vt`] must reproduce it bit for bit.
    mod reference {
        use super::super::*;

        fn house_generate(a: &mut Matrix, j: usize) -> f64 {
            let m = a.rows();
            let alpha = a[(j, j)];
            let col: Vec<f64> = (j + 1..m).map(|i| a[(i, j)]).collect();
            let xnorm = nrm2(&col);
            if xnorm == 0.0 {
                return 0.0;
            }
            let beta = -alpha.signum() * (alpha * alpha + xnorm * xnorm).sqrt();
            let tau = (beta - alpha) / beta;
            let scale = 1.0 / (alpha - beta);
            for i in j + 1..m {
                a[(i, j)] *= scale;
            }
            a[(j, j)] = beta;
            tau
        }

        fn house_apply_trailing(a: &mut Matrix, j: usize, tau: f64, end: usize) {
            let m = a.rows();
            let width = end - j - 1;
            let mut v = vec![1.0];
            v.extend((j + 1..m).map(|i| a[(i, j)]));
            let mut w = vec![0.0; width];
            gemv_t_uncounted(1.0, a.view(j, j + 1, m - j, width), &v, 0.0, &mut w);
            ger_uncounted(-tau, &v, &w, a.view_mut(j, j + 1, m - j, width));
        }

        pub fn build_vt(qr: &Matrix, tau: &[f64], i0: usize, kb: usize) -> (Matrix, Matrix) {
            let m = qr.rows();
            let rows = m - i0;
            let mut v = Matrix::zeros(rows, kb);
            for jj in 0..kb {
                v[(jj, jj)] = 1.0;
                for i in i0 + jj + 1..m {
                    v[(i - i0, jj)] = qr[(i, i0 + jj)];
                }
            }
            let mut t = Matrix::zeros(kb, kb);
            for j in 0..kb {
                let tj = tau[i0 + j];
                t[(j, j)] = tj;
                if j == 0 || tj == 0.0 {
                    continue;
                }
                let mut w = vec![0.0; j];
                let vj = v.as_ref().col(j).to_vec();
                gemv_t_uncounted(-tj, v.view(j, 0, rows - j, j), &vj[j..], 0.0, &mut w);
                for i in 0..j {
                    t[(i, j)] = (i..j).fold(0.0, |s, p| s + t[(i, p)] * w[p]);
                }
            }
            (v, t)
        }

        pub fn geqrf(mut qr: Matrix) -> (Matrix, Vec<f64>) {
            let (m, n) = (qr.rows(), qr.cols());
            let mut tau = vec![0.0; n];
            for j0 in (0..n).step_by(IB) {
                let kb = IB.min(n - j0);
                for j in j0..j0 + kb {
                    tau[j] = house_generate(&mut qr, j);
                    if tau[j] != 0.0 && j + 1 < j0 + kb {
                        house_apply_trailing(&mut qr, j, tau[j], j0 + kb);
                    }
                }
                if j0 + kb < n {
                    let (v, t) = build_vt(&qr, &tau, j0, kb);
                    let trailing = qr.view_mut(j0, j0 + kb, m - j0, n - j0 - kb);
                    larfb_left(Par::Seq, &v, &t, true, trailing);
                }
            }
            (qr, tau)
        }
    }

    #[test]
    fn factors_are_bitwise_those_of_the_allocating_kernels() {
        // BSOFI's 2N × N panels at the benchmark's block sizes, plus a
        // shape whose last reflector block is partial.
        for &(m, n) in &[(128, 64), (288, 144), (45, 37)] {
            let a = test_matrix(m, n, (m + n) as u64);
            let (want_qr, want_tau) = reference::geqrf(a.clone());
            let f = geqrf(a);
            assert_eq!(f.packed().as_slice(), want_qr.as_slice(), "{m}x{n} R and V");
            assert_eq!(f.taus(), &want_tau[..], "{m}x{n} tau");
            for i0 in (0..n).step_by(IB) {
                let kb = IB.min(n - i0);
                let (v, t) = f.block_vt(i0, kb);
                let (want_v, want_t) = reference::build_vt(&want_qr, &want_tau, i0, kb);
                assert_eq!(v.as_slice(), want_v.as_slice(), "{m}x{n} V at {i0}");
                assert_eq!(t.as_slice(), want_t.as_slice(), "{m}x{n} T at {i0}");
            }
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
