//! BSOFI — block structured orthogonal factorization inversion
//! (Gogolenko, Bai, Scalettar, Euro-Par 2014; stage 2 of FSI).
//!
//! Computes the inverse `Ḡ = M̄⁻¹` of a (reduced) block p-cyclic matrix
//! with `b` block rows of size `N`, in `O(b²N³)` flops instead of the
//! `O(b³N³)` of a dense factorization, by exploiting the p-cyclic
//! sparsity:
//!
//! **Stage A — structured QR.** Eliminate the subdiagonal blocks with a
//! chain of `b−1` Householder QRs of `2N × N` panels
//! `[D_i; −b̄_{i+1}]`, each orthogonal transform touching only block rows
//! `(i, i+1)`. The corner block `b̄_0` smears down the last block column as
//! the chain advances; the resulting `R` is block *upper bidiagonal plus a
//! dense last block column*:
//!
//! ```text
//!     | R00 E0          C0  |
//!     |     R11 E1      C1  |
//! R = |         R22 ... ... |        Q = Q̃0·Q̃1⋯Q̃_{b−1}
//!     |             ... E_  |
//!     |                 R__ |
//! ```
//!
//! Every panel carries its transform in compact-WY form,
//! `Q̃ᵢ = I − V·T·Vᵀ` with `V` (`2N × N`) and `T` (`N × N`) built once by
//! [`fsi_dense::geqrf`], so applying `Q̃ᵢᵀ` is three GEMMs — and the
//! right-hand sides stage A meets are so sparse that the first of the
//! three costs nothing. Panel `i` must update block column `i+1`, which
//! holds `[0; I]` in its two block rows, and the last block column, which
//! holds `[corner; 0]`:
//!
//! ```text
//! | E_i      C_i     |   | 0  corner |
//! |                  | = |           | − V·Tᵀ·[ V₂ᵀ | V₁ᵀ·corner ]     V = [V₁; V₂]
//! | D_{i+1}  corner' |   | I  0      |
//! ```
//!
//! `Vᵀ·[0; I]` is the lower half of `V` read off, not computed; both
//! updates go out as one `2N × 2N × N` product, the best GEMM shape the
//! stage has.
//!
//! **Stage B — structured `R⁻¹`.** Because `R⁻¹`'s last block row is zero
//! left of the diagonal, the back-substitution recurrences collapse to
//! short products: `X_ij = −R_ii⁻¹(E_i X_{i+1,j} + C_i X_{b−1,j})` with the
//! `C` term active only in the last column. Block columns (or rows — see
//! below) are independent → parallel.
//!
//! **Stage C — `Ḡ = X·Qᵀ`.** Right-apply the stored panel transforms in
//! reverse; each `Q̃_iᵀ` touches a `2N`-wide column slab, three GEMMs
//! over the slab per panel.
//!
//! Two assembly paths share the factorization:
//!
//! * [`bsofi`] materializes the full dense `bN × bN` inverse — what the
//!   S3/S4 (rows/columns) wraps need, since every block of `Ḡ` seeds a
//!   walk.
//! * [`bsofi_selected`] assembles only the blocks a [`SelectedPattern`]
//!   requests (PSelInv-style: restrict the inversion to the sparsity
//!   pattern of the request). Row `k` of `X = R⁻¹` is the chain
//!   `X_kk = R_kk⁻¹`, `X_kj = X_{k,j−1}·W_j` with the shared couplings
//!   `W_j = −E_{j−1}·R_jj⁻¹`, plus the shared last column. A diagonal
//!   request never forms those rows: with the transforms applied
//!   right-to-left, the one column block of `X·Qᵀ` still live at transform
//!   `i` is, for every row `k ≤ i`, `X(k,i)·S_i + X(k,b−1)·T_i` — true at
//!   `i = b−1` with `S = 0`, `T = Q̃_{b−1}ᵀ`, and carried down one level by
//!   `X(k,i+1) = X(k,i)·W_{i+1}` — so two `N × N` carriers `S_i`, `T_i`
//!   that belong to no row stand in for the rows (see
//!   [`StructuredQr::selected`]). Stage B+C of the S1/S2 diagonal patterns
//!   is then, per level, the columns of `Q̃ᵢᵀ` (`12N³`), six `N×N×N` GEMMs
//!   (`12N³`), `W_j` and a step of the last column (`8N³`): `≈ 33bN³`,
//!   linear in `b`, with nothing larger than `2N × 2N` allocated.

use fsi_dense::blas::axpy;
use fsi_dense::tri::invert_upper;
use fsi_dense::{gemm, gemm_op, geqrf, MatMut, MatRef, Matrix, Op, QrFactor};
use fsi_pcyclic::BlockPCyclic;
use fsi_runtime::health::{self, FsiResult, HealthEvent, Stage};
use fsi_runtime::{trace, Par, Schedule};

use crate::patterns::{SelectedInverse, SelectedPattern};

/// Computes the dense inverse `Ḡ = M̄⁻¹` (a `bN × bN` matrix).
///
/// `par_cols` parallelizes the independent block columns of stage B and
/// the row bands of stage C (FSI's OpenMP mode); `par_gemm` parallelizes
/// inside the dense kernels of all three stages (the "MKL-style" mode).
/// The FSI drivers pass a pool to exactly one of the two.
///
/// ```
/// use fsi_runtime::Par;
/// let m = fsi_pcyclic::random_pcyclic(3, 4, 7);
/// let g = fsi_selinv::bsofi(Par::Seq, Par::Seq, &m);
/// // Ḡ really is the inverse of the assembled matrix.
/// let mut prod = fsi_dense::mul(&m.assemble_dense(), &g);
/// prod.add_diag(-1.0);
/// assert!(prod.max_abs() < 1e-10);
/// ```
pub fn bsofi(par_cols: Par<'_>, par_gemm: Par<'_>, pc: &BlockPCyclic) -> Matrix {
    let b = pc.l();
    if b == 1 {
        return single_block_inverse(par_gemm, pc, |_| Ok(())).expect("nothing probed");
    }

    let factor = StructuredQr::factor_lookahead(par_cols, par_gemm, pc);
    factor.inverse(par_cols, par_gemm)
}

/// Computes only the blocks of `Ḡ = M̄⁻¹` a [`SelectedPattern`] requests,
/// skipping the dense materialization (and, for sparse patterns, most of
/// the stage B/C flops) of [`bsofi`].
///
/// The result is exact — the same factorization and the same kernel
/// family as the dense path, merely restricted to the requested rows —
/// and agrees with the dense inverse to rounding (property-tested at
/// 1e-13). Work is traced under the `bsofi.selected` span with the
/// factorization nested under `bsofi.lookahead`; the measured flops equal
/// [`crate::flops::bsofi_selected_flops`] exactly.
///
/// Data-dependent failure is fallible, not fatal: a zero or wildly graded
/// `R` diagonal ([`StructuredQr::check_health`]) and any non-finite or
/// overflow-bound assembled block surface as an `Err` before the bad
/// numbers can escape into a caller's Green's function.
///
/// ```
/// use fsi_runtime::Par;
/// use fsi_selinv::{bsofi, bsofi_selected, SelectedPattern};
/// let m = fsi_pcyclic::random_pcyclic(2, 3, 5);
/// let sel = bsofi_selected(Par::Seq, Par::Seq, &m, &SelectedPattern::Diagonals)
///     .expect("well-conditioned test matrix");
/// let dense = bsofi(Par::Seq, Par::Seq, &m);
/// for k in 0..3 {
///     let got = sel.get(k, k).expect("diagonal block");
///     let want = m.dense_block(&dense, k, k);
///     assert!(fsi_dense::rel_error(got, &want) < 1e-13);
/// }
/// ```
pub fn bsofi_selected(
    par_cols: Par<'_>,
    par_gemm: Par<'_>,
    pc: &BlockPCyclic,
    pattern: &SelectedPattern,
) -> FsiResult<SelectedInverse> {
    let _span = trace::span("bsofi.selected");
    static METER: fsi_runtime::metrics::Meter =
        fsi_runtime::metrics::Meter::new("selinv.bsofi.selected");
    let _meter = METER.start(crate::flops::bsofi_selected_flops(pc.n(), pc.l(), pattern));
    let b = pc.l();
    if b == 1 {
        let _ = pattern.rows(1); // bounds-check DiagonalBlock requests
        let x = single_block_inverse(par_gemm, pc, |r| {
            let diag: Vec<f64> = (0..r.rows()).map(|i| r[(i, i)]).collect();
            health::check_pivots(Stage::Bsofi, 0, &diag)
        })?;
        let mut out = SelectedInverse::new();
        out.insert(0, 0, x);
        scan_selected(&mut out)?;
        return Ok(out);
    }
    let factor = StructuredQr::factor_lookahead(par_cols, par_gemm, pc);
    factor.check_health()?;
    let mut out = factor.selected(par_cols, par_gemm, pattern);
    scan_selected(&mut out)?;
    Ok(out)
}

/// The degenerate single-block matrix `M̄ = I + b̄₀`, inverted as `R⁻¹·Qᵀ`
/// to stay in the BSOFI (orthogonal) family. `probe` sees `R` before the
/// triangular inversion divides by its diagonal.
fn single_block_inverse(
    par_gemm: Par<'_>,
    pc: &BlockPCyclic,
    probe: impl FnOnce(&Matrix) -> Result<(), HealthEvent>,
) -> Result<Matrix, HealthEvent> {
    let mut m = pc.block(0).clone();
    m.add_diag(1.0);
    let f = geqrf(m);
    let mut x = f.r().clone();
    probe(&x)?;
    invert_upper(x.as_mut());
    zero_strict_lower(&mut x);
    f.apply_qt_right(par_gemm, x.as_mut());
    Ok(x)
}

/// Output-boundary probe of an assembled selection: visits blocks in
/// coordinate order (deterministic over the hash map), runs the injection
/// hook, and scans for non-finite / overflow-bound entries.
fn scan_selected(sel: &mut SelectedInverse) -> Result<(), HealthEvent> {
    for (k, l) in sel.sorted_coordinates() {
        let blk = sel.get_mut(k, l).expect("coordinate just listed");
        #[cfg(feature = "fault-inject")]
        health::inject::poison(Stage::Bsofi, k, blk.as_mut_slice());
        health::check_block(Stage::Bsofi, k, blk.as_slice())?;
    }
    Ok(())
}

/// The structured QR factorization of a block p-cyclic matrix
/// (stage A output, reusable for tests and for solving).
pub struct StructuredQr {
    /// Panel factorizations: `qrs[i]` for `i < b−1` factors the `2N × N`
    /// panel at block rows `(i, i+1)`; `qrs[b−1]` factors the final
    /// `N × N` diagonal block.
    qrs: Vec<QrFactor>,
    /// Superdiagonal fill `E_i = R(i, i+1)` for `i = 0..b−1`;
    /// `e[b−2]` is the merged last-column entry `R(b−2, b−1)`.
    e: Vec<Matrix>,
    /// Last-column fill `C_i = R(i, b−1)` for `i = 0..b−3` (empty if
    /// `b < 3`).
    c: Vec<Matrix>,
    n: usize,
    b: usize,
}

impl StructuredQr {
    /// Runs stage A on the p-cyclic matrix.
    ///
    /// # Panics
    /// Panics if `b < 2` (use [`bsofi`] which handles `b = 1`).
    pub fn factor(par_gemm: Par<'_>, pc: &BlockPCyclic) -> Self {
        let n = pc.n();
        let b = pc.l();
        assert!(b >= 2, "StructuredQr requires at least two block rows");
        static METER: fsi_runtime::metrics::Meter =
            fsi_runtime::metrics::Meter::new("selinv.bsofi.factor");
        let _meter = METER.start(crate::flops::structured_qr_flops(n, b));
        let mut qrs = Vec::with_capacity(b);
        let mut e: Vec<Matrix> = Vec::with_capacity(b - 1);
        let mut c: Vec<Matrix> = Vec::with_capacity(b - 2);
        // Current diagonal block D_i (starts as the identity at row 0) and
        // the corner fill propagating down the last column.
        let mut d_cur = Matrix::identity(n);
        let mut corner = pc.block(0).clone();
        for i in 0..b - 1 {
            let f = geqrf(panel(&d_cur, pc.block(i + 1)));
            // Panel b−2: column b−1 IS the last column, so the
            // superdiagonal and corner fills merge.
            let merged = i == b - 2;
            let updated = qt_stage_a_columns(par_gemm, &f, &corner, merged);
            e.push(updated.block(0, 0, n, n));
            d_cur = updated.block(n, 0, n, n);
            if !merged {
                c.push(updated.block(0, n, n, n));
                corner = updated.block(n, n, n, n);
            }
            qrs.push(f);
        }
        // Final N × N diagonal block.
        qrs.push(geqrf(d_cur));
        StructuredQr { qrs, e, c, n, b }
    }

    /// [`Self::factor`] under the `bsofi.lookahead` trace span. Stage A has
    /// no look-ahead schedule to run — its two column updates are one
    /// product — so `par_pipeline` is not used; the name and the argument
    /// stay because the layered benchmark (`benchmark/`) compiles against
    /// them.
    ///
    /// # Panics
    /// Panics if `b < 2`.
    pub fn factor_lookahead(_par_pipeline: Par<'_>, par_gemm: Par<'_>, pc: &BlockPCyclic) -> Self {
        let _span = trace::span("bsofi.lookahead");
        Self::factor(par_gemm, pc)
    }

    /// Block size `N`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Block row count `b`.
    pub fn b(&self) -> usize {
        self.b
    }

    /// The upper-triangular `N × N` diagonal factor `R_jj` (borrowed from
    /// panel `j`'s factorization — no per-call allocation).
    pub fn r_diag(&self, j: usize) -> &Matrix {
        self.qrs[j].r()
    }

    /// Stage-boundary health probe on the factorization: checks the
    /// stacked `R_jj` diagonals (the pivots every stage B/C division goes
    /// through) for zeros, non-finite values, and a magnitude spread past
    /// [`fsi_runtime::health::KAPPA_MAX`]. Essentially free — the scan is
    /// `O(bN)`.
    ///
    /// Reported column indices are global (block `j` contributes columns
    /// `jN..(j+1)N`).
    pub fn check_health(&self) -> Result<(), HealthEvent> {
        if !health::probes_enabled() {
            return Ok(());
        }
        let mut diag = Vec::with_capacity(self.b * self.n);
        for j in 0..self.b {
            let r = self.r_diag(j);
            for i in 0..self.n {
                diag.push(r[(i, i)]);
            }
        }
        health::check_pivots(Stage::Bsofi, 0, &diag)
    }

    /// Superdiagonal fill `E_j` (`j = b−2` is the merged last-column
    /// entry).
    pub fn e_block(&self, j: usize) -> &Matrix {
        &self.e[j]
    }

    /// Last-column fill `C_j` for `j ≤ b−3`.
    pub fn c_block(&self, j: usize) -> &Matrix {
        &self.c[j]
    }

    /// Assembles the dense `R` factor (tests / inspection; O((bN)²)).
    pub fn assemble_r(&self) -> Matrix {
        let (n, b) = (self.n, self.b);
        let mut r = Matrix::zeros(b * n, b * n);
        for j in 0..b {
            r.set_block(j * n, j * n, self.r_diag(j).as_ref());
        }
        for (i, e) in self.e.iter().enumerate() {
            r.set_block(i * n, (i + 1) * n, e.as_ref());
        }
        for (i, cblk) in self.c.iter().enumerate() {
            r.set_block(i * n, (b - 1) * n, cblk.as_ref());
        }
        r
    }

    /// Applies the accumulated `Qᵀ` from the right to a dense `? × bN`
    /// matrix (stage C primitive): `X := X·Qᵀ`.
    pub fn apply_qt_right(&self, par_gemm: Par<'_>, x: &mut Matrix) {
        let (n, b) = (self.n, self.b);
        assert_eq!(x.cols(), b * n, "apply_qt_right width mismatch");
        let rows = x.rows();
        // Qᵀ = Q̃_{b−1}ᵀ·Q̃_{b−2}ᵀ⋯Q̃_0ᵀ; right-multiplication applies the
        // leftmost factor first.
        for i in (0..b).rev() {
            let width = if i == b - 1 { n } else { 2 * n };
            let slab = x.view_mut(0, i * n, rows, width);
            self.qrs[i].apply_qt_right(par_gemm, slab);
        }
    }

    /// Applies `Qᵀ` from the left to a dense `bN × ?` matrix:
    /// `X := Qᵀ·X` (used to verify `QᵀM̄ = R` and to solve systems).
    pub fn apply_qt_left(&self, par_gemm: Par<'_>, x: &mut Matrix) {
        let (n, b) = (self.n, self.b);
        assert_eq!(x.rows(), b * n, "apply_qt_left height mismatch");
        let cols = x.cols();
        // Qᵀ·X applies Q̃_0ᵀ first.
        for i in 0..b {
            let height = if i == b - 1 { n } else { 2 * n };
            let slab = x.view_mut(i * n, 0, height, cols);
            self.qrs[i].apply_qt_left(par_gemm, slab);
        }
    }

    /// Stage B + C: the dense inverse `Ḡ = R⁻¹·Qᵀ`.
    pub fn inverse(&self, par_cols: Par<'_>, par_gemm: Par<'_>) -> Matrix {
        let (n, b) = (self.n, self.b);
        let dim = b * n;
        let rinv = self.rinv_diagonals(0);
        let mut g = Matrix::pooled(dim, dim);
        // Stage B: build X = R⁻¹ column by column (independent columns →
        // parallel_map), then write the blocks into the dense output:
        // the computed blocks on and above the diagonal, zeros below.
        let columns: Vec<Vec<Matrix>> =
            fsi_runtime::parallel_map(par_cols, b, Schedule::Dynamic(1), |j| {
                self.rinv_column(par_gemm, &rinv, j, 0)
            });
        for (j, col) in columns.into_iter().enumerate() {
            for (i, blk) in col.iter().enumerate() {
                g.set_block(i * n, j * n, blk.as_ref());
            }
            let below = (j + 1) * n;
            g.view_mut(below, j * n, dim - below, n).fill(0.0);
        }
        // Stage C: Ḡ = X·Qᵀ.
        self.apply_qt_right_cols(par_cols, par_gemm, &mut g);
        g
    }

    /// Pattern-restricted stage B + C: assembles only the requested
    /// blocks of `Ḡ` (see [`bsofi_selected`]). `par_rows` parallelizes
    /// the stage C row bands of dense ([`SelectedPattern::Full`])
    /// requests; `par_gemm` parallelizes inside the kernels.
    ///
    /// Diagonal requests ([`SelectedPattern::Diagonals`],
    /// [`SelectedPattern::DiagonalBlock`]) run one recursion over two
    /// row-independent `N × N` carriers. With the panel transforms applied
    /// right-to-left, column `i+1` of `Ḡ` is final after transform `i`, and
    /// the column block still live at transform `i` is, for every row
    /// `k ≤ i`, `live_k(i) = X(k,i)·S_i + X(k,b−1)·T_i`: at `i = b−1` it is
    /// `X(k,b−1)·Q̃_{b−1}ᵀ`, and transform `i` maps `live_k(i+1)` to
    /// `X(k,i)·Z'_top + live_k(i+1)·Z'_bot` with `Z' = Q̃ᵢᵀ·[I; 0]`, where
    /// `X(k,i+1) = X(k,i)·W_{i+1}` folds the first carrier into `S_i`:
    ///
    /// ```text
    /// S_{b−1} = 0,  T_{b−1} = Q̃_{b−1}ᵀ
    /// for i = b−2, …:
    ///   Ḡ(i+1, i+1) = (R_{i+1}⁻¹·S_{i+1} + X(i+1, b−1)·T_{i+1})·Z_bot
    ///                                                    Z = Q̃ᵢᵀ·[0; I]
    ///   S_i = Z'_top + W_{i+1}·(S_{i+1}·Z'_bot),  T_i = T_{i+1}·Z'_bot
    /// Ḡ(0, 0) = R_00⁻¹·S_0 + X(0, b−1)·T_0
    /// ```
    ///
    /// (row `i+1` has `X(i+1, i) = 0`, so its diagonal reads only the live
    /// block). A level costs the columns of `Q̃ᵢᵀ` it reads (two GEMMs)
    /// and at most six `N × N × N` GEMMs, whatever the number of requested
    /// rows; no row of `X` beyond the shared last column is formed.
    pub fn selected(
        &self,
        par_rows: Par<'_>,
        par_gemm: Par<'_>,
        pattern: &SelectedPattern,
    ) -> SelectedInverse {
        let (n, b) = (self.n, self.b);
        let rows = pattern.rows(b);
        let kmin = rows[0];
        // No requested row is above kmin, so no R_jj⁻¹ with j < kmin is read.
        let rinv = self.rinv_diagonals(kmin);
        // Shared interior couplings W_j = −E_{j−1}·R_jj⁻¹: every row whose
        // recurrence passes column j multiplies by the same W_j.
        let mut w: Vec<Option<Matrix>> = (0..b).map(|_| None).collect();
        for (j, slot) in w.iter_mut().enumerate().take(b - 1).skip(kmin + 1) {
            let mut wj = Matrix::pooled(n, n);
            gemm(
                par_gemm,
                -1.0,
                self.e[j - 1].as_ref(),
                rinv[j - kmin].as_ref(),
                0.0,
                wj.as_mut(),
            );
            *slot = Some(wj);
        }
        // Shared last block column X_{i,b−1} for i ≥ kmin (the only column
        // whose recurrence needs the C fills).
        let x_last = self.rinv_column(par_gemm, &rinv, b - 1, kmin);
        if !matches!(pattern, SelectedPattern::Full) {
            return self.diagonal_recursion(par_gemm, &rows, &rinv, &w, &x_last);
        }
        // Dense request: every row of X = R⁻¹, stacked, then the full
        // stage C right-apply, which reads every band whole — X is zero
        // left of its diagonal, where the pooled buffer holds stale values.
        let mut buf = Matrix::pooled(b * n, b * n);
        self.fill_x_rows(par_gemm, &rinv, &w, &x_last, &mut buf);
        for k in 0..b {
            buf.view_mut(k * n, 0, n, k * n).fill(0.0);
        }
        self.apply_qt_right_cols(par_rows, par_gemm, &mut buf);
        let mut out = SelectedInverse::new();
        for k in 0..b {
            for l in 0..b {
                out.insert(k, l, buf.block(k * n, l * n, n, n));
            }
        }
        out
    }

    /// Writes every row of `X = R⁻¹` into `buf` (band `k` ↔ block row `k`)
    /// on and right of its diagonal block: the diagonal blocks
    /// `X_kk = R_kk⁻¹` and the shared last column first, then the chain
    /// columns `X_kj = X_{k,j−1}·W_j` — batched per column, since every
    /// row `k < j` advances with the *same* `W_j`, into one tall
    /// `(j·N) × N × N` GEMM. Same flops as per-row chains, far better
    /// kernel shapes.
    fn fill_x_rows(
        &self,
        par_gemm: Par<'_>,
        rinv: &[Matrix],
        w: &[Option<Matrix>],
        x_last: &[Matrix],
        buf: &mut Matrix,
    ) {
        let (n, b) = (self.n, self.b);
        for k in 0..b {
            if k < b - 1 {
                buf.set_block(k * n, k * n, rinv[k].as_ref());
            }
            buf.set_block(k * n, (b - 1) * n, x_last[k].as_ref());
        }
        for (j, w_j) in w.iter().enumerate().take(b - 1).skip(1) {
            // Column j−1 of every chain row is complete (previous sweep
            // step, or the diagonal block for row j−1 itself).
            let (src, dst) = buf.view_mut(0, (j - 1) * n, j * n, 2 * n).split_at_col(n);
            gemm(
                par_gemm,
                1.0,
                src.as_ref(),
                w_j.as_ref().expect("W_j computed for j ≥ 1").as_ref(),
                0.0,
                dst,
            );
        }
    }

    /// The diagonal blocks `Ḡ(k, k)`, `k ∈ rows`, by the `(S, T)`
    /// recursion of [`Self::selected`]. `rinv[j − kmin]` is `R_jj⁻¹`,
    /// `x_last[i − kmin]` is `X(i, b−1)` and `w[j]` is `W_j`, for
    /// `j, i ≥ kmin = rows[0]`.
    fn diagonal_recursion(
        &self,
        par_gemm: Par<'_>,
        rows: &[usize],
        rinv: &[Matrix],
        w: &[Option<Matrix>],
        x_last: &[Matrix],
    ) -> SelectedInverse {
        let (n, b) = (self.n, self.b);
        let kmin = rows[0];
        let mut out = SelectedInverse::with_capacity(rows.len());
        // T = T_{b−1} = Q̃_{b−1}ᵀ (the final panel is N-wide); S_{b−1} = 0
        // is never formed: the products with S start at level b−3.
        let mut t = Matrix::pooled(n, n);
        qt_columns(par_gemm, &self.qrs[b - 1], 0, n, t.as_mut());
        let mut s = Matrix::pooled(n, n);
        let mut next = Matrix::pooled(n, n);
        let mut tmp = Matrix::pooled(n, n);
        let mut z = Matrix::pooled(2 * n, 2 * n);
        for i in (kmin.saturating_sub(1)..b - 1).rev() {
            // (s, t) hold (S_{i+1}, T_{i+1}); S_{i+1} is zero at i = b−2.
            let s_live = i + 2 < b;
            let advance = i >= kmin;
            let emit = rows.binary_search(&(i + 1)).is_ok();
            // Materialize only the column halves of Q̃ᵢᵀ this level reads
            // (Z' = columns 0..N advance the carriers, Z = columns N..2N
            // finish the diagonal); one call covers both, at a cost linear
            // in the width either way.
            let lo = if advance { 0 } else { n };
            let hi = if emit { 2 * n } else { n };
            qt_columns(
                par_gemm,
                &self.qrs[i],
                lo,
                hi,
                z.view_mut(0, 0, 2 * n, hi - lo),
            );
            if emit {
                let r = i + 1 - kmin;
                live_block(
                    par_gemm,
                    &rinv[r],
                    &x_last[r],
                    s_live.then_some(&s),
                    &t,
                    &mut tmp,
                );
                let mut g = Matrix::pooled(n, n);
                gemm(
                    par_gemm,
                    1.0,
                    tmp.as_ref(),
                    z.view(n, n - lo, n, n),
                    0.0,
                    g.as_mut(),
                );
                out.insert(i + 1, i + 1, g);
            }
            if advance {
                let (z_top, z_bot) = (z.view(0, 0, n, n), z.view(n, 0, n, n));
                // S_i = Z'_top + W_{i+1}·(S_{i+1}·Z'_bot).
                next.as_mut().copy_from(z_top);
                if s_live {
                    gemm(par_gemm, 1.0, s.as_ref(), z_bot, 0.0, tmp.as_mut());
                    let w_next = w[i + 1].as_ref().expect("W_j computed for kmin < j < b−1");
                    gemm(
                        par_gemm,
                        1.0,
                        w_next.as_ref(),
                        tmp.as_ref(),
                        1.0,
                        next.as_mut(),
                    );
                }
                std::mem::swap(&mut s, &mut next);
                // T_i = T_{i+1}·Z'_bot.
                gemm(par_gemm, 1.0, t.as_ref(), z_bot, 0.0, next.as_mut());
                std::mem::swap(&mut t, &mut next);
            }
        }
        if kmin == 0 {
            // Ḡ(0, 0) is the live block at level 0 itself.
            let mut g = Matrix::pooled(n, n);
            live_block(par_gemm, &rinv[0], &x_last[0], Some(&s), &t, &mut g);
            out.insert(0, 0, g);
        }
        out
    }

    /// The diagonal inverses `R_jj⁻¹` for `j ≥ from`, at index `j − from`
    /// (independent; cheap: triangles of size `N`).
    fn rinv_diagonals(&self, from: usize) -> Vec<Matrix> {
        (from..self.b)
            .map(|j| {
                let mut r = self.r_diag(j).clone();
                invert_upper(r.as_mut());
                zero_strict_lower(&mut r);
                r
            })
            .collect()
    }

    /// Stage C with row-band parallelism: each pool worker owns a disjoint
    /// horizontal band of `X` and applies the panel chain to it (the panel
    /// transforms act on columns, so row bands are independent).
    fn apply_qt_right_cols(&self, par_rows: Par<'_>, par_gemm: Par<'_>, x: &mut Matrix) {
        let rows = x.rows();
        let threads = par_rows.threads().min(rows).max(1);
        if threads <= 1 {
            self.apply_qt_right(par_gemm, x);
            return;
        }
        let pool = par_rows.pool().expect("threads > 1 implies pool");
        let chunk = rows.div_ceil(threads);
        // Split into disjoint row bands.
        let mut bands = Vec::new();
        let mut rest = x.as_mut();
        while rest.rows() > chunk {
            let (head, tail) = rest.split_at_row(chunk);
            bands.push(head);
            rest = tail;
        }
        bands.push(rest);
        pool.scope(|s| {
            for band in bands {
                let mut band = band;
                s.spawn(move || {
                    let (n, b) = (self.n, self.b);
                    for i in (0..b).rev() {
                        let width = if i == b - 1 { n } else { 2 * n };
                        let rows_band = band.rows();
                        let slab = band.rb_mut().submatrix(0, i * n, rows_band, width);
                        self.qrs[i].apply_qt_right(Par::Seq, slab);
                    }
                });
            }
        });
    }

    /// The blocks `X_ij`, `stop ≤ i ≤ j`, of block column `j` of `X = R⁻¹`
    /// (entry `i` lands at index `i − stop`; `rinv[i − stop]` is `R_ii⁻¹`),
    /// walking upward from the diagonal:
    /// `X_ij = −R_ii⁻¹·(E_i·X_{i+1,j} [+ C_i·X_{b−1,j}])`, the `C` term only
    /// in the last column.
    fn rinv_column(
        &self,
        par_gemm: Par<'_>,
        rinv: &[Matrix],
        j: usize,
        stop: usize,
    ) -> Vec<Matrix> {
        let n = self.n;
        let mut out = vec![Matrix::zeros(0, 0); j + 1 - stop];
        out[j - stop] = rinv[j - stop].clone();
        let mut t = Matrix::pooled(n, n);
        for i in (stop..j).rev() {
            gemm(
                par_gemm,
                -1.0,
                self.e[i].as_ref(),
                out[i + 1 - stop].as_ref(),
                0.0,
                t.as_mut(),
            );
            if j == self.b - 1 && i < self.c.len() {
                gemm(
                    par_gemm,
                    -1.0,
                    self.c[i].as_ref(),
                    out[j - stop].as_ref(),
                    1.0,
                    t.as_mut(),
                );
            }
            let mut xi = Matrix::pooled(n, n);
            gemm(
                par_gemm,
                1.0,
                rinv[i - stop].as_ref(),
                t.as_ref(),
                0.0,
                xi.as_mut(),
            );
            out[i - stop] = xi;
        }
        out
    }
}

/// The live block of row `k` at its own level,
/// `out = R_kk⁻¹·S_k + X(k, b−1)·T_k` (`s = None` stands for `S_k = 0`).
fn live_block(
    par_gemm: Par<'_>,
    rinv_k: &Matrix,
    x_last_k: &Matrix,
    s: Option<&Matrix>,
    t: &Matrix,
    out: &mut Matrix,
) {
    gemm(
        par_gemm,
        1.0,
        x_last_k.as_ref(),
        t.as_ref(),
        0.0,
        out.as_mut(),
    );
    if let Some(s) = s {
        gemm(
            par_gemm,
            1.0,
            rinv_k.as_ref(),
            s.as_ref(),
            1.0,
            out.as_mut(),
        );
    }
}

/// The `2N × N` panel `[D; −B]` that stage A factors.
fn panel(d: &Matrix, b: &Matrix) -> Matrix {
    let n = d.rows();
    let mut panel = Matrix::pooled(2 * n, n);
    panel.set_block(0, 0, d.as_ref());
    let mut bottom = panel.view_mut(n, 0, n, n);
    bottom.copy_from(b.as_ref());
    bottom.scale(-1.0);
    panel
}

/// What panel `f`'s transform does to the two block columns stage A still
/// has to update, `Q̃ᵀ·rhs` with
///
/// ```text
/// rhs = | 0  corner |  (block column i+1, last block column)    or, merged,   | corner |
///       | I  0      |                                                         | I      |
/// ```
///
/// without a product against the identity: `rhsᵀ·V` is `[V₂; cornerᵀ·V₁]`
/// (merged: `V₂ + cornerᵀ·V₁`), one `N × N × N` GEMM and a copy.
fn qt_stage_a_columns(par_gemm: Par<'_>, f: &QrFactor, corner: &Matrix, merged: bool) -> Matrix {
    let n = f.n();
    let v = f.v();
    let (w, beta, corner_at) = if merged { (n, 1.0, 0) } else { (2 * n, 0.0, n) };
    let mut rhs_t_v = Matrix::pooled(w, n);
    rhs_t_v.view_mut(0, 0, n, n).copy_from(v.view(n, 0, n, n));
    gemm_op(
        par_gemm,
        1.0,
        Op::Trans,
        corner.as_ref(),
        Op::NoTrans,
        v.view(0, 0, n, n),
        beta,
        rhs_t_v.view_mut(corner_at, 0, n, n),
    );
    let mut out = Matrix::pooled(2 * n, w);
    qt_correction(par_gemm, f, rhs_t_v.as_ref(), out.as_mut());
    // … + rhs.
    let mut o = out.as_mut();
    for j in 0..n {
        *o.at_mut(n + j, j) += 1.0;
        axpy(
            1.0,
            corner.as_ref().col(j),
            &mut o.col_mut(corner_at + j)[..n],
        );
    }
    out
}

/// `C := −V·Tᵀ·(Vᵀ·rhs)` for a right-hand side whose product with `Vᵀ` the
/// caller already has, transposed: `rhs_t_v = rhsᵀ·V` (`w × N`). Adding
/// `rhs` to `C` completes `Q̃ᵀ·rhs = rhs − V·Tᵀ·Vᵀ·rhs`. Two GEMMs,
/// `(rhsᵀ·V)·T` and `V·(…)ᵀ`, where the general apply runs three.
fn qt_correction(par_gemm: Par<'_>, f: &QrFactor, rhs_t_v: MatRef<'_>, c: MatMut<'_>) {
    let mut s = Matrix::pooled(rhs_t_v.rows(), f.n());
    gemm(par_gemm, 1.0, rhs_t_v, f.t().as_ref(), 0.0, s.as_mut());
    let (nt, tr) = (Op::NoTrans, Op::Trans);
    gemm_op(par_gemm, -1.0, nt, f.v().as_ref(), tr, s.as_ref(), 0.0, c);
}

/// Columns `lo..hi` of `Q̃ᵀ = I − V·Tᵀ·Vᵀ` into `z`: the right-hand side is
/// a slice of the identity, so `rhsᵀ·V` is rows `lo..hi` of `V` as they
/// stand.
fn qt_columns(par_gemm: Par<'_>, f: &QrFactor, lo: usize, hi: usize, mut z: MatMut<'_>) {
    let v_rows = f.v().view(lo, 0, hi - lo, f.n());
    qt_correction(par_gemm, f, v_rows, z.rb_mut());
    for j in 0..hi - lo {
        *z.at_mut(lo + j, j) += 1.0;
    }
}

/// Zeroes the strict lower triangle (invert_upper leaves the reflector
/// storage there untouched).
fn zero_strict_lower(m: &mut Matrix) {
    let n = m.rows();
    for j in 0..n {
        for i in j + 1..n {
            m[(i, j)] = 0.0;
        }
    }
}

/// Closed-form flop count of full BSOFI (paper §II-C): `≈ 7b²N³`. The
/// exact kernel-by-kernel counts (including the selected-assembly paths)
/// live in [`crate::flops::bsofi_selected_flops`].
pub fn bsofi_flops(n: usize, b: usize) -> u64 {
    7 * (b as u64).pow(2) * (n as u64).pow(3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsi_dense::{mul, rel_error};
    use fsi_pcyclic::random_pcyclic;
    use fsi_runtime::ThreadPool;

    #[test]
    fn qt_m_equals_r() {
        let pc = random_pcyclic(4, 5, 1);
        let f = StructuredQr::factor(Par::Seq, &pc);
        let mut m = pc.assemble_dense();
        f.apply_qt_left(Par::Seq, &mut m);
        let r = f.assemble_r();
        assert!(rel_error(&m, &r) < 1e-12, "QᵀM ≠ R: {}", rel_error(&m, &r));
        // R's unstored positions really are zero: check one below-diagonal
        // and one interior block of QᵀM against zero.
        let below = pc.dense_block(&m, 3, 1);
        assert!(below.max_abs() < 1e-12);
    }

    #[test]
    fn bsofi_matches_dense_inverse_various_sizes() {
        for &(n, b) in &[(2usize, 2usize), (3, 3), (4, 4), (3, 6), (5, 2), (2, 8)] {
            let pc = random_pcyclic(n, b, (n * 31 + b) as u64);
            let got = bsofi(Par::Seq, Par::Seq, &pc);
            let want = pc.reference_green(Par::Seq);
            assert!(
                rel_error(&got, &want) < 1e-9,
                "(n={n}, b={b}): rel err {}",
                rel_error(&got, &want)
            );
        }
    }

    #[test]
    fn bsofi_single_block() {
        let pc = random_pcyclic(5, 1, 9);
        let got = bsofi(Par::Seq, Par::Seq, &pc);
        let want = pc.reference_green(Par::Seq);
        assert!(rel_error(&got, &want) < 1e-10);
    }

    #[test]
    fn bsofi_inverse_residual() {
        // MḠ = I directly, independent of the LU reference.
        let pc = random_pcyclic(6, 4, 10);
        let g = bsofi(Par::Seq, Par::Seq, &pc);
        let m = pc.assemble_dense();
        let mut prod = mul(&m, &g);
        prod.add_diag(-1.0);
        assert!(prod.max_abs() < 1e-10, "MḠ − I: {}", prod.max_abs());
    }

    #[test]
    fn parallel_modes_match_sequential() {
        let pool = ThreadPool::new(4);
        let pc = random_pcyclic(5, 6, 11);
        let seq = bsofi(Par::Seq, Par::Seq, &pc);
        let cols_par = bsofi(Par::Pool(&pool), Par::Seq, &pc);
        let gemm_par = bsofi(Par::Seq, Par::Pool(&pool), &pc);
        assert!(rel_error(&cols_par, &seq) < 1e-12);
        assert!(rel_error(&gemm_par, &seq) < 1e-12);
    }

    #[test]
    fn lookahead_factor_is_bitwise_identical_to_serial() {
        // `factor_lookahead` is `factor` under a span; a pool in either
        // argument must not change a bit.
        let pool = ThreadPool::new(3);
        for &(n, b) in &[(3usize, 2usize), (2, 3), (4, 5), (3, 8), (20, 4)] {
            let pc = random_pcyclic(n, b, (17 * n + b) as u64);
            let serial = StructuredQr::factor(Par::Seq, &pc);
            let gs = serial.inverse(Par::Seq, Par::Seq);
            for (par_pipeline, par_gemm) in
                [(Par::Pool(&pool), Par::Seq), (Par::Seq, Par::Pool(&pool))]
            {
                let look = StructuredQr::factor_lookahead(par_pipeline, par_gemm, &pc);
                assert_eq!(
                    serial.assemble_r().as_slice(),
                    look.assemble_r().as_slice(),
                    "(n={n}, b={b}) R factors differ"
                );
                let gl = look.inverse(Par::Seq, Par::Seq);
                assert_eq!(
                    gs.as_slice(),
                    gl.as_slice(),
                    "(n={n}, b={b}) inverses differ"
                );
            }
        }
    }

    /// `‖a − b‖_max`.
    fn max_diff(a: &Matrix, b: &Matrix) -> f64 {
        let mut d = a.clone();
        d.sub_assign(b);
        d.max_abs()
    }

    #[test]
    fn stage_a_shortcut_equals_the_general_apply() {
        // Rectangular and remainder-heavy sizes on both sides of the QR's
        // recursion base.
        for n in [3usize, 9, 20, 33] {
            let f = geqrf(fsi_dense::test_matrix(2 * n, n, n as u64));
            let corner = fsi_dense::test_matrix(n, n, 50 + n as u64);
            // Interior panel: [0 corner; I 0], i.e. [0; I] and [corner; 0].
            let mut want = Matrix::zeros(2 * n, 2 * n);
            want.set_block(n, 0, Matrix::identity(n).as_ref());
            want.set_block(0, n, corner.as_ref());
            f.apply_qt_left(Par::Seq, want.as_mut());
            let got = qt_stage_a_columns(Par::Seq, &f, &corner, false);
            assert!(max_diff(&got, &want) < 1e-14, "n={n} interior");
            // Panel b−2: [corner; I].
            let mut want = Matrix::zeros(2 * n, n);
            want.set_block(0, 0, corner.as_ref());
            want.set_block(n, 0, Matrix::identity(n).as_ref());
            f.apply_qt_left(Par::Seq, want.as_mut());
            let got = qt_stage_a_columns(Par::Seq, &f, &corner, true);
            assert!(max_diff(&got, &want) < 1e-14, "n={n} merged");
        }
    }

    #[test]
    fn qt_columns_equals_the_general_apply_on_a_shifted_identity() {
        for n in [3usize, 9, 20, 33] {
            let f = geqrf(fsi_dense::test_matrix(2 * n, n, 7 + n as u64));
            // Every (lo, hi) the diagonal recursion asks of a 2N × N panel…
            let mut cases = vec![(&f, 0, n), (&f, n, 2 * n), (&f, 0, 2 * n)];
            // …and the one it asks of the final N × N panel.
            let last = geqrf(fsi_dense::test_matrix(n, n, 70 + n as u64));
            cases.push((&last, 0, n));
            for (f, lo, hi) in cases {
                let mut want = Matrix::zeros(f.m(), hi - lo);
                for j in 0..hi - lo {
                    want[(lo + j, j)] = 1.0;
                }
                f.apply_qt_left(Par::Seq, want.as_mut());
                let mut got = Matrix::pooled(f.m(), hi - lo);
                qt_columns(Par::Seq, f, lo, hi, got.as_mut());
                assert!(
                    max_diff(&got, &want) < 1e-14,
                    "n={n} m={} {lo}..{hi}",
                    f.m()
                );
            }
        }
    }

    #[test]
    fn selected_patterns_match_dense_inverse() {
        for &(n, b) in &[(2usize, 2usize), (3, 4), (2, 6), (4, 3)] {
            let pc = random_pcyclic(n, b, (n * 13 + b * 7) as u64);
            let dense = bsofi(Par::Seq, Par::Seq, &pc);
            let mut patterns = vec![SelectedPattern::Diagonals, SelectedPattern::Full];
            patterns.extend((0..b).map(SelectedPattern::DiagonalBlock));
            for pattern in patterns {
                let sel = bsofi_selected(Par::Seq, Par::Seq, &pc, &pattern).expect("healthy");
                let coords = pattern.coordinates(b);
                assert_eq!(sel.len(), coords.len(), "{pattern:?} block count");
                for (k, l) in coords {
                    let got = sel.get(k, l).expect("requested block");
                    let want = pc.dense_block(&dense, k, l);
                    let err = rel_error(got, &want);
                    assert!(err < 1e-13, "(n={n}, b={b}) {pattern:?} ({k},{l}): {err}");
                }
            }
        }
    }

    #[test]
    fn selected_single_block_matrix() {
        let pc = random_pcyclic(4, 1, 19);
        let want = pc.reference_green(Par::Seq);
        for pattern in [
            SelectedPattern::Diagonals,
            SelectedPattern::DiagonalBlock(0),
            SelectedPattern::Full,
        ] {
            let sel = bsofi_selected(Par::Seq, Par::Seq, &pc, &pattern).expect("healthy");
            assert_eq!(sel.len(), 1);
            let got = sel.get(0, 0).expect("single block");
            assert!(rel_error(got, &want) < 1e-10, "{pattern:?}");
        }
    }

    #[test]
    fn selected_parallel_modes_match_sequential() {
        let pool = ThreadPool::new(4);
        let pc = random_pcyclic(5, 6, 23);
        for pattern in [
            SelectedPattern::Diagonals,
            SelectedPattern::DiagonalBlock(3),
            SelectedPattern::Full,
        ] {
            let seq = bsofi_selected(Par::Seq, Par::Seq, &pc, &pattern).expect("healthy");
            let rows_par =
                bsofi_selected(Par::Pool(&pool), Par::Seq, &pc, &pattern).expect("healthy");
            let gemm_par =
                bsofi_selected(Par::Seq, Par::Pool(&pool), &pc, &pattern).expect("healthy");
            for (coord, blk) in seq.iter() {
                let r = rows_par.get(coord.0, coord.1).expect("rows-par block");
                let g = gemm_par.get(coord.0, coord.1).expect("gemm-par block");
                assert_eq!(
                    blk.as_slice(),
                    r.as_slice(),
                    "{pattern:?} rows-par {coord:?}"
                );
                assert_eq!(
                    blk.as_slice(),
                    g.as_slice(),
                    "{pattern:?} gemm-par {coord:?}"
                );
            }
        }
    }

    #[test]
    fn hubbard_reduced_matrix_inverts() {
        use fsi_pcyclic::{hubbard_pcyclic, BlockBuilder, HsField, HubbardParams, SquareLattice};
        use rand::SeedableRng;
        let builder =
            BlockBuilder::new(SquareLattice::square(2), HubbardParams::paper_validation(8));
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        let field = HsField::random(8, 4, &mut rng);
        let pc = hubbard_pcyclic(&builder, &field, fsi_pcyclic::Spin::Up);
        let cl = crate::cls::cls(Par::Seq, Par::Seq, &pc, 4, 1);
        let got = bsofi(Par::Seq, Par::Seq, &cl.reduced);
        let want = cl.reduced.reference_green(Par::Seq);
        assert!(rel_error(&got, &want) < 1e-9);
    }

    #[test]
    fn r_has_documented_sparsity() {
        let pc = random_pcyclic(3, 5, 12);
        let f = StructuredQr::factor(Par::Seq, &pc);
        let r = f.assemble_r();
        // Interior blocks (i, j) with i+1 < j < b−1 are zero.
        let blk = pc.dense_block(&r, 0, 2);
        assert_eq!(blk.max_abs(), 0.0);
        let blk = pc.dense_block(&r, 1, 3);
        assert_eq!(blk.max_abs(), 0.0);
        // Diagonal factors are upper triangular.
        for j in 0..5 {
            let d = f.r_diag(j);
            for col in 0..3 {
                for row in col + 1..3 {
                    assert_eq!(d[(row, col)], 0.0);
                }
            }
        }
    }

    #[test]
    fn r_diag_is_borrowed_and_stable() {
        let pc = random_pcyclic(3, 4, 14);
        let f = StructuredQr::factor(Par::Seq, &pc);
        // Two calls return the same storage, not fresh copies.
        let a: *const Matrix = f.r_diag(2);
        let b: *const Matrix = f.r_diag(2);
        assert_eq!(a, b);
    }

    #[test]
    fn flop_formula_matches_paper() {
        assert_eq!(bsofi_flops(100, 10), 7 * 100 * 1_000_000);
    }
}
