//! Level-3 BLAS: general matrix-matrix multiply as a packed,
//! register-blocked micro-kernel engine.
//!
//! `GEMM` dominates the FSI algorithm — the clustering stage is a chain of
//! `B` products, the wrapping stage multiplies each produced block by a `B`
//! factor, and BSOFI's `R⁻¹` and `X·Qᵀ` phases are block products. The paper
//! highlights that FSI performance tracks DGEMM throughput, so this kernel
//! is the crate's hot spot.
//!
//! # Architecture
//!
//! The engine uses the Goto/BLIS decomposition (the structure of faer-rs,
//! OpenBLAS, and the MKL the paper's Edison runs link against):
//!
//! ```text
//! for jc in steps of NC           │ columns of C and B
//!   for pc in steps of KC         │ depth — pack B̃ (KC×NC, NR-strided)
//!     for ic in steps of MC       │ rows of C and A — pack Ã (MC×KC, MR-strided)
//!       for jr in steps of NR     │ macro-kernel over the packed panels
//!         for ir in steps of MR   │
//!           C[ir…, jr…] += alpha · Ã·B̃   (MR×NR register tile)
//! ```
//!
//! **Packing.** Each `MC × KC` block of `op(A)` is copied into row panels
//! laid out MR-strided (`panel[p·MR + r] = op(A)[r, p]`) and each
//! `KC × NC` block of `op(B)` into NR-strided column panels, with partial
//! panels zero-padded to full width. Packing reads operands through their
//! *logical* indices, so all four `Op` combinations (`NN`/`TN`/`NT`/`TT`)
//! canonicalize to the same layout and route through the same micro-kernel
//! — there are no separate transposed code paths, and a `Trans` product
//! runs at the `NoTrans` rate. The pack buffers are borrowed from the
//! thread-local pool in [`fsi_runtime::workspace`], so steady-state calls
//! perform no allocation.
//!
//! **Micro-kernel.** The innermost kernel accumulates an `MR × NR` tile
//! of C held entirely in vector registers. The kernel implementations and
//! the runtime tier dispatch (AVX-512 16×4, AVX2 8×4, portable scalar
//! 8×4) live in [`crate::kernel`]; every tier keeps `NR = 4`, so the B
//! panel layout is tier-independent and the macro loop only adapts its
//! row-tile stride to the active tier's `MR`.
//!
//! **Blocking parameters.** `MC = 96` (Ã ≈ 192 KiB, L2-resident, a
//! multiple of both 8 and 16 so either tile height divides it),
//! `KC = 256`, `NC = 1024` (B̃ ≈ 2 MiB, L3-resident).
//!
//! **Batched small products.** For the paper's hot shape — many
//! independent N≤64 products in the CLS stage — this per-call engine
//! leaves half the throughput in packing and fill passes. The
//! [`crate::batch`] module provides [`crate::batch::gemm_batched`], which
//! streams a uniform-shape batch through the micro-kernel with shared
//! operands packed once and a no-pack direct path for `NoTrans` small
//! shapes; [`chain_mul`] routes eligible chains through it automatically.
//!
//! **Parallelism.** C is tiled over an M×N *thread grid* chosen by
//! `thread_grid` to use every pool thread while keeping tiles near
//! square — so BSOFI's tall-skinny `2N × N` panels split over rows instead
//! of starving on `min(threads, n)` column splits. Tiles are disjoint
//! `MatMut`s; each task runs the full sequential packed engine on its
//! tile, with identical per-element accumulation order to a sequential
//! run, so parallel results are bitwise equal to sequential ones.

use crate::matrix::{MatMut, MatRef, Matrix};
use fsi_runtime::{flops, trace};
use fsi_runtime::{workspace, Par};

/// Transposition selector for [`gemm_op`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Use the operand as stored.
    NoTrans,
    /// Use the transpose of the operand.
    Trans,
}

impl Op {
    /// Logical row count of `op(A)`.
    pub(crate) fn rows(self, a: MatRef<'_>) -> usize {
        match self {
            Op::NoTrans => a.rows(),
            Op::Trans => a.cols(),
        }
    }
    /// Logical column count of `op(A)`.
    pub(crate) fn cols(self, a: MatRef<'_>) -> usize {
        match self {
            Op::NoTrans => a.cols(),
            Op::Trans => a.rows(),
        }
    }
}

/// Base register-tile height (the 8×4 tiers; AVX-512 doubles this to 16).
/// Used by shape heuristics and tests; the packed engine itself reads the
/// active tier's `mr`.
const MR: usize = 8;
/// Register tile width: columns of C per micro-kernel call. Identical
/// across every kernel tier, so packed B panels are tier-independent.
const NR: usize = 4;
/// Cache block: rows of A per packed panel (multiple of every tier `MR`).
pub(crate) const MC: usize = 96;
/// Cache block: depth per packed panel.
pub(crate) const KC: usize = 256;
/// Cache block: columns of B per packed panel (multiple of `NR`).
const NC: usize = 1024;

/// `C := alpha·A·B + beta·C` (both operands as stored).
///
/// # Panics
/// Panics on dimension mismatch.
pub fn gemm(par: Par<'_>, alpha: f64, a: MatRef<'_>, b: MatRef<'_>, beta: f64, c: MatMut<'_>) {
    gemm_op(par, alpha, Op::NoTrans, a, Op::NoTrans, b, beta, c)
}

/// `C := alpha·op(A)·op(B) + beta·C`.
///
/// # Panics
/// Panics on dimension mismatch.
#[allow(clippy::too_many_arguments)] // mirrors BLAS dgemm's argument list
pub fn gemm_op(
    par: Par<'_>,
    alpha: f64,
    opa: Op,
    a: MatRef<'_>,
    opb: Op,
    b: MatRef<'_>,
    beta: f64,
    c: MatMut<'_>,
) {
    gemm_op_impl(true, par, alpha, opa, a, opb, b, beta, c)
}

/// [`gemm_op`] without flop accounting or a kernel span: for kernels (QR's
/// compact-WY products, the blocked TRTRI) that already charged their own analytic total
/// and use gemm as an internal detail — charging here too would
/// double-count.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_op_uncounted(
    par: Par<'_>,
    alpha: f64,
    opa: Op,
    a: MatRef<'_>,
    opb: Op,
    b: MatRef<'_>,
    beta: f64,
    c: MatMut<'_>,
) {
    gemm_op_impl(false, par, alpha, opa, a, opb, b, beta, c)
}

#[allow(clippy::too_many_arguments)]
fn gemm_op_impl(
    count: bool,
    par: Par<'_>,
    alpha: f64,
    opa: Op,
    a: MatRef<'_>,
    opb: Op,
    b: MatRef<'_>,
    beta: f64,
    mut c: MatMut<'_>,
) {
    let m = opa.rows(a);
    let k = opa.cols(a);
    let n = opb.cols(b);
    assert_eq!(opb.rows(b), k, "gemm: inner dimensions disagree");
    assert_eq!(c.rows(), m, "gemm: C row count mismatch");
    assert_eq!(c.cols(), n, "gemm: C column count mismatch");
    if m == 0 || n == 0 {
        return;
    }

    // Scale C by beta up front so the accumulation engine only adds.
    if beta == 0.0 {
        c.fill(0.0);
    } else if beta != 1.0 {
        c.scale(beta);
    }
    if k == 0 || alpha == 0.0 {
        return;
    }

    let _count = count.then(|| gemm_count(m, n, k));

    let (tm, tn) = thread_grid(par.threads().max(1), m, n);
    if tm * tn <= 1 {
        gemm_packed(alpha, opa, a, opb, b, c);
        return;
    }
    let pool = par.pool().expect("threads > 1 implies pool");
    let row_chunk = m.div_ceil(tm);
    let col_chunk = n.div_ceil(tn);
    let col_panels = c.split_cols_chunks(col_chunk);
    pool.scope(|s| {
        for (tj, cc) in col_panels.into_iter().enumerate() {
            let j0 = tj * col_chunk;
            let bs = match opb {
                Op::NoTrans => b.submatrix(0, j0, k, cc.cols()),
                Op::Trans => b.submatrix(j0, 0, cc.cols(), k),
            };
            for (ti, ct) in cc.split_rows_chunks(row_chunk).into_iter().enumerate() {
                let i0 = ti * row_chunk;
                let at = match opa {
                    Op::NoTrans => a.submatrix(i0, 0, ct.rows(), k),
                    Op::Trans => a.submatrix(0, i0, k, ct.rows()),
                };
                s.spawn(move || gemm_packed(alpha, opa, at, opb, bs, ct));
            }
        }
    });
}

/// Opens the accounting for one `m × n × k` gemm: a `gemm` kernel span
/// charged with the analytic flop and byte counts. Dropping the returned
/// guard closes the span. The chain fast path in [`crate::batch`]
/// charges per product through this same helper, so flop attribution is
/// identical on every route.
pub(crate) fn gemm_count(m: usize, n: usize, k: usize) -> fsi_runtime::trace::SpanGuard {
    // Open before charging so the flops land on this kernel's span (the
    // guard is a no-op below FSI_TRACE=2).
    let kernel = fsi_runtime::trace::kernel_span("gemm");
    trace::charge_flops(flops::counts::gemm(m, n, k));
    fsi_runtime::trace::charge_bytes(8 * (m * k + k * n + 2 * m * n) as u64);
    kernel
}

/// Chooses a `tm × tn` thread grid for an `m × n` output: among the splits
/// that use the most threads, the one whose tiles are closest to square
/// (minimal `|ln aspect|`). A 512×8 output on 4 threads gets `(4, 1)`
/// (row split — the BSOFI tall-skinny case), 100×100 gets `(2, 2)`.
fn thread_grid(threads: usize, m: usize, n: usize) -> (usize, usize) {
    // Never split below one register tile per task.
    let max_tm = m.div_ceil(MR).max(1);
    let max_tn = n.div_ceil(NR).max(1);
    if threads <= 1 || max_tm * max_tn == 1 {
        return (1, 1);
    }
    let mut best = (1, 1);
    let mut best_used = 0usize;
    let mut best_aspect = f64::INFINITY;
    for tm in 1..=threads.min(max_tm) {
        let tn = (threads / tm).min(max_tn).max(1);
        let used = tm * tn;
        let aspect = ((m as f64 / tm as f64) / (n as f64 / tn as f64)).ln().abs();
        if used > best_used || (used == best_used && aspect < best_aspect) {
            best = (tm, tn);
            best_used = used;
            best_aspect = aspect;
        }
    }
    best
}

/// The sequential packed engine: `C += alpha·op(A)·op(B)` through the full
/// NC/KC/MC loop nest, pack buffers borrowed from the thread-local
/// workspace pool. Offsets into `a`/`b` are logical `op(·)` coordinates,
/// so every transposition combination shares this one path.
fn gemm_packed(alpha: f64, opa: Op, a: MatRef<'_>, opb: Op, b: MatRef<'_>, mut c: MatMut<'_>) {
    let m = c.rows();
    let n = c.cols();
    let k = opa.cols(a);
    let kt = crate::kernel::active();
    let (tile_m, tile_n) = (kt.mr, kt.nr);
    let micro = kt.micro;
    let ldc = c.ld();
    let cptr = c.as_mut_ptr();
    let a_len = MC.min(m).div_ceil(tile_m) * tile_m * KC.min(k);
    let b_len = NC.min(n).div_ceil(tile_n) * tile_n * KC.min(k);
    workspace::with_scratch2(a_len, b_len, |apack, bpack| {
        let mut jc = 0;
        while jc < n {
            let ncb = NC.min(n - jc);
            let mut pc = 0;
            while pc < k {
                let kc = KC.min(k - pc);
                pack_b(opb, b, pc, jc, kc, ncb, tile_n, bpack);
                let mut ic = 0;
                while ic < m {
                    let mc = MC.min(m - ic);
                    pack_a(opa, a, ic, pc, mc, kc, tile_m, apack);
                    // Macro-kernel: sweep the packed panels tile by tile.
                    let mut jr = 0;
                    while jr < ncb {
                        let nr = tile_n.min(ncb - jr);
                        let bpanel = bpack[(jr / tile_n) * (kc * tile_n)..].as_ptr();
                        let mut ir = 0;
                        while ir < mc {
                            let mr = tile_m.min(mc - ir);
                            let apanel = apack[(ir / tile_m) * (kc * tile_m)..].as_ptr();
                            // SAFETY: the panels hold kc·MR / kc·NR packed
                            // values by construction; the C tile at
                            // (ic+ir, jc+jr) has mr×nr live elements inside
                            // this exclusive view, and the kernel writes
                            // only that corner.
                            unsafe {
                                let ctile = cptr.add((ic + ir) + (jc + jr) * ldc);
                                micro(kc, alpha, apanel, bpanel, ctile, ldc, mr, nr, false);
                            }
                            ir += tile_m;
                        }
                        jr += tile_n;
                    }
                    ic += mc;
                }
                pc += kc;
            }
            jc += ncb;
        }
    });
}

/// Packs the `mc × kc` block of `op(A)` at logical offset `(ic, pc)` into
/// `tile_m`-strided row panels: panel `ip` stores `op(A)[ip·MR + r, p]` at
/// `panel[p·MR + r]` (`MR = tile_m`, the active tier's tile height),
/// zero-padded to a full `MR` so the micro-kernel never branches on tile
/// height.
#[allow(clippy::too_many_arguments)]
pub(crate) fn pack_a(
    opa: Op,
    a: MatRef<'_>,
    ic: usize,
    pc: usize,
    mc: usize,
    kc: usize,
    tile_m: usize,
    dst: &mut [f64],
) {
    for ip in 0..mc.div_ceil(tile_m) {
        let i0 = ip * tile_m;
        let mr = tile_m.min(mc - i0);
        let panel = &mut dst[ip * tile_m * kc..(ip + 1) * tile_m * kc];
        match opa {
            // op(A)[i, p] = A[ic+i, pc+p]: fixed p is a contiguous column
            // segment of height mr.
            Op::NoTrans => {
                for p in 0..kc {
                    let src = &a.col(pc + p)[ic + i0..ic + i0 + mr];
                    let d = &mut panel[p * tile_m..(p + 1) * tile_m];
                    d[..mr].copy_from_slice(src);
                    d[mr..].fill(0.0);
                }
            }
            // op(A)[i, p] = A[pc+p, ic+i]: fixed i is a contiguous column
            // segment of depth kc, scattered into stride-MR slots.
            Op::Trans => {
                for r in 0..tile_m {
                    if r < mr {
                        let src = &a.col(ic + i0 + r)[pc..pc + kc];
                        for (p, &v) in src.iter().enumerate() {
                            panel[p * tile_m + r] = v;
                        }
                    } else {
                        for p in 0..kc {
                            panel[p * tile_m + r] = 0.0;
                        }
                    }
                }
            }
        }
    }
}

/// Packs the `kc × nc` block of `op(B)` at logical offset `(pc, jc)` into
/// `tile_n`-strided column panels: panel `jp` stores `op(B)[p, jp·NR + j]`
/// at `panel[p·NR + j]` (`NR = tile_n`), zero-padded to a full `NR`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn pack_b(
    opb: Op,
    b: MatRef<'_>,
    pc: usize,
    jc: usize,
    kc: usize,
    nc: usize,
    tile_n: usize,
    dst: &mut [f64],
) {
    for jp in 0..nc.div_ceil(tile_n) {
        let j0 = jp * tile_n;
        let nr = tile_n.min(nc - j0);
        let panel = &mut dst[jp * tile_n * kc..(jp + 1) * tile_n * kc];
        match opb {
            // op(B)[p, j] = B[pc+p, jc+j]: fixed j is a contiguous column
            // segment of depth kc, scattered into stride-NR slots.
            Op::NoTrans => {
                for j in 0..tile_n {
                    if j < nr {
                        let src = &b.col(jc + j0 + j)[pc..pc + kc];
                        for (p, &v) in src.iter().enumerate() {
                            panel[p * tile_n + j] = v;
                        }
                    } else {
                        for p in 0..kc {
                            panel[p * tile_n + j] = 0.0;
                        }
                    }
                }
            }
            // op(B)[p, j] = B[jc+j, pc+p]: fixed p is a contiguous column
            // segment of width nr.
            Op::Trans => {
                for p in 0..kc {
                    let src = &b.col(pc + p)[jc + j0..jc + j0 + nr];
                    let d = &mut panel[p * tile_n..(p + 1) * tile_n];
                    d[..nr].copy_from_slice(src);
                    d[nr..].fill(0.0);
                }
            }
        }
    }
}

/// Convenience: allocates and returns `A·B` (sequential).
pub fn mul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    gemm(Par::Seq, 1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut());
    c
}

/// Convenience: allocates and returns `A·B` using the given parallelism.
pub fn mul_par(par: Par<'_>, a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    gemm(par, 1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut());
    c
}

/// Multiplies a chain `M_1 · M_2 · ⋯ · M_p` left to right, optionally
/// parallelizing each product. Used by the clustering stage and by the
/// explicit-inversion baseline's matrix chains.
///
/// The running product ping-pongs between two buffers: the previous
/// accumulator is recycled as the next output whenever the shape allows,
/// so a `c`-factor cluster chain allocates at most two matrices instead of
/// one per factor.
///
/// Small sequential chains (every shape within the small-N fast-path
/// bounds) route through the batched engine's no-pack direct kernel, which
/// skips per-product packing, C fill passes, and workspace borrows —
/// bitwise identical to the general path (the micro-kernels share one
/// accumulation order), with identical per-product flop attribution.
///
/// # Panics
/// Panics if the chain is empty or shapes are incompatible.
pub fn chain_mul(par: Par<'_>, factors: &[&Matrix]) -> Matrix {
    if factors.len() > 1 && par.threads() <= 1 && crate::batch::chain_is_small(factors) {
        return crate::batch::chain_mul_small(factors);
    }
    let (first, rest) = factors.split_first().expect("chain_mul needs a factor");
    let mut acc = (*first).clone();
    let mut spare: Option<Matrix> = None;
    for f in rest {
        let (rows, cols) = (acc.rows(), f.cols());
        let mut out = match spare.take() {
            // Stale contents are fine: beta = 0 overwrites every element.
            Some(s) if s.rows() == rows && s.cols() == cols => s,
            _ => Matrix::zeros(rows, cols),
        };
        gemm(par, 1.0, acc.as_ref(), f.as_ref(), 0.0, out.as_mut());
        spare = Some(std::mem::replace(&mut acc, out));
    }
    acc
}

/// A deterministic splitmix64-based pseudo-random matrix for tests and
/// benches, without requiring a rand dependency in this crate.
pub fn test_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z = z ^ (z >> 31);
        // Map to (-1, 1).
        (z >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    };
    Matrix::from_fn(rows, cols, |_, _| next())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsi_runtime::ThreadPool;

    fn naive(opa: Op, a: &Matrix, opb: Op, b: &Matrix) -> Matrix {
        let at = match opa {
            Op::NoTrans => a.clone(),
            Op::Trans => a.transpose(),
        };
        let bt = match opb {
            Op::NoTrans => b.clone(),
            Op::Trans => b.transpose(),
        };
        let mut c = Matrix::zeros(at.rows(), bt.cols());
        for i in 0..at.rows() {
            for j in 0..bt.cols() {
                let mut s = 0.0;
                for p in 0..at.cols() {
                    s += at[(i, p)] * bt[(p, j)];
                }
                c[(i, j)] = s;
            }
        }
        c
    }

    fn assert_close(a: &Matrix, b: &Matrix, tol: f64) {
        assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()));
        let mut d = a.clone();
        d.sub_assign(b);
        let scale = b.max_abs().max(1.0);
        assert!(
            d.max_abs() <= tol * scale,
            "matrices differ: |diff|={} scale={}",
            d.max_abs(),
            scale
        );
    }

    /// Operands shaped so `op(A)` is `m × k` and `op(B)` is `k × n`.
    fn operands(m: usize, k: usize, n: usize, opa: Op, opb: Op, seed: u64) -> (Matrix, Matrix) {
        let a = match opa {
            Op::NoTrans => test_matrix(m, k, seed),
            Op::Trans => test_matrix(k, m, seed),
        };
        let b = match opb {
            Op::NoTrans => test_matrix(k, n, seed + 1),
            Op::Trans => test_matrix(n, k, seed + 1),
        };
        (a, b)
    }

    const ALL_OPS: [(Op, Op); 4] = [
        (Op::NoTrans, Op::NoTrans),
        (Op::Trans, Op::NoTrans),
        (Op::NoTrans, Op::Trans),
        (Op::Trans, Op::Trans),
    ];

    #[test]
    fn nn_matches_naive_on_odd_shapes() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 7),
            (17, 13, 9),
            (130, 200, 65),
            (64, 64, 64),
        ] {
            let a = test_matrix(m, k, 1);
            let b = test_matrix(k, n, 2);
            let c = mul(&a, &b);
            assert_close(&c, &naive(Op::NoTrans, &a, Op::NoTrans, &b), 1e-13);
        }
    }

    #[test]
    fn all_op_combos_match_naive_on_odd_shapes() {
        // Odd and prime shapes straddling the MC/KC/NC block boundaries:
        // every Op combination routes through the same packed micro-kernel.
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 7),
            (17, 13, 9),
            (23, 29, 31),
            (97, 101, 89),
            (130, 259, 65),
        ] {
            for (opa, opb) in ALL_OPS {
                let (a, b) = operands(m, k, n, opa, opb, 7);
                let mut c = Matrix::zeros(m, n);
                gemm_op(
                    Par::Seq,
                    1.0,
                    opa,
                    a.as_ref(),
                    opb,
                    b.as_ref(),
                    0.0,
                    c.as_mut(),
                );
                assert_close(&c, &naive(opa, &a, opb, &b), 1e-13);
            }
        }
    }

    #[test]
    fn remainder_edges_cover_partial_tiles() {
        // Every combination of full / partial MR row tiles and NR column
        // tiles, plus depths straddling the KC boundary.
        let ms = [1, MR - 1, MR, MR + 1, 2 * MR + 3];
        let ns = [1, NR - 1, NR, NR + 1, 2 * NR + 3];
        let ks = [1, 7, KC, KC + 1];
        for &m in &ms {
            for &n in &ns {
                for &k in &ks {
                    for (opa, opb) in ALL_OPS {
                        let (a, b) = operands(m, k, n, opa, opb, (m + 3 * n + 17 * k) as u64);
                        let mut c = Matrix::zeros(m, n);
                        gemm_op(
                            Par::Seq,
                            1.0,
                            opa,
                            a.as_ref(),
                            opb,
                            b.as_ref(),
                            0.0,
                            c.as_mut(),
                        );
                        assert_close(&c, &naive(opa, &a, opb, &b), 1e-13);
                    }
                }
            }
        }
    }

    #[test]
    fn alpha_beta_combinations() {
        let a = test_matrix(8, 6, 3);
        let b = test_matrix(6, 10, 4);
        let c0 = test_matrix(8, 10, 5);
        for &(alpha, beta) in &[(1.0, 0.0), (2.0, 1.0), (-0.5, 0.25), (0.0, 2.0), (1.0, 1.0)] {
            let mut c = c0.clone();
            gemm(Par::Seq, alpha, a.as_ref(), b.as_ref(), beta, c.as_mut());
            let mut want = naive(Op::NoTrans, &a, Op::NoTrans, &b);
            want.scale(alpha);
            let mut scaled_c0 = c0.clone();
            scaled_c0.scale(beta);
            want.add_assign(&scaled_c0);
            assert_close(&c, &want, 1e-13);
        }
    }

    #[test]
    fn transposed_paths_match_naive() {
        let cases = [
            (Op::Trans, Op::NoTrans),
            (Op::NoTrans, Op::Trans),
            (Op::Trans, Op::Trans),
        ];
        for (opa, opb) in cases {
            let (m, k, n) = (9, 7, 11);
            let (a, b) = operands(m, k, n, opa, opb, 10);
            let mut c = Matrix::zeros(m, n);
            gemm_op(
                Par::Seq,
                1.0,
                opa,
                a.as_ref(),
                opb,
                b.as_ref(),
                0.0,
                c.as_mut(),
            );
            assert_close(&c, &naive(opa, &a, opb, &b), 1e-13);
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let pool = ThreadPool::new(4);
        let a = test_matrix(150, 90, 20);
        let b = test_matrix(90, 170, 21);
        let seq = mul(&a, &b);
        let par = mul_par(Par::Pool(&pool), &a, &b);
        assert_close(&par, &seq, 1e-14);
        // Also with transposes.
        let mut c1 = Matrix::zeros(90, 170);
        let mut c2 = Matrix::zeros(90, 170);
        gemm_op(
            Par::Seq,
            1.0,
            Op::Trans,
            a.as_ref(),
            Op::NoTrans,
            seq.as_ref(),
            0.0,
            c1.as_mut(),
        );
        gemm_op(
            Par::Pool(&pool),
            1.0,
            Op::Trans,
            a.as_ref(),
            Op::NoTrans,
            seq.as_ref(),
            0.0,
            c2.as_mut(),
        );
        assert_close(&c1, &c2, 1e-14);
    }

    #[test]
    fn parallel_tall_skinny_splits_rows() {
        // BSOFI's 2N×N panel shape: narrower than the thread count is
        // no longer a serialization point because the grid splits rows.
        assert_eq!(thread_grid(4, 512, 8), (4, 1));
        assert_eq!(thread_grid(4, 100, 100), (2, 2));
        assert_eq!(thread_grid(1, 100, 100), (1, 1));
        let pool = ThreadPool::new(4);
        let a = test_matrix(256, 64, 22);
        let b = test_matrix(64, 3, 23);
        let seq = mul(&a, &b);
        let par = mul_par(Par::Pool(&pool), &a, &b);
        assert_close(&par, &seq, 1e-14);
    }

    #[test]
    fn gemm_on_submatrix_views() {
        let a = test_matrix(12, 12, 30);
        let b = test_matrix(12, 12, 31);
        let mut c = Matrix::zeros(12, 12);
        // Multiply the centre 6×6 blocks only.
        gemm(
            Par::Seq,
            1.0,
            a.view(3, 3, 6, 6),
            b.view(3, 3, 6, 6),
            0.0,
            c.view_mut(3, 3, 6, 6),
        );
        let ab = mul(&a.block(3, 3, 6, 6), &b.block(3, 3, 6, 6));
        assert_close(&c.block(3, 3, 6, 6), &ab, 1e-13);
        assert_eq!(c[(0, 0)], 0.0, "outside the target block untouched");
    }

    #[test]
    fn transposed_gemm_on_strided_views() {
        // All four Op combos on interior views (ld > rows): the packing
        // routines must honour the leading dimension.
        let pa = test_matrix(25, 25, 33);
        let pb = test_matrix(25, 25, 34);
        let (m, k, n) = (9, 11, 6);
        for (opa, opb) in ALL_OPS {
            let av = match opa {
                Op::NoTrans => pa.view(2, 3, m, k),
                Op::Trans => pa.view(2, 3, k, m),
            };
            let bv = match opb {
                Op::NoTrans => pb.view(4, 1, k, n),
                Op::Trans => pb.view(4, 1, n, k),
            };
            let mut c = Matrix::zeros(20, 20);
            gemm_op(Par::Seq, 1.0, opa, av, opb, bv, 0.0, c.view_mut(5, 7, m, n));
            let want = naive(opa, &av.to_owned(), opb, &bv.to_owned());
            assert_close(&c.block(5, 7, m, n), &want, 1e-13);
            assert_eq!(c[(0, 0)], 0.0, "outside the target view untouched");
        }
    }

    #[test]
    fn empty_k_only_applies_beta() {
        let a = Matrix::zeros(3, 0);
        let b = Matrix::zeros(0, 3);
        let mut c = Matrix::from_fn(3, 3, |_, _| 2.0);
        gemm(Par::Seq, 1.0, a.as_ref(), b.as_ref(), 0.5, c.as_mut());
        assert_eq!(c[(1, 1)], 1.0);
    }

    #[test]
    fn chain_mul_left_to_right() {
        let a = test_matrix(4, 4, 40);
        let b = test_matrix(4, 4, 41);
        let c = test_matrix(4, 4, 42);
        let abc = chain_mul(Par::Seq, &[&a, &b, &c]);
        assert_close(&abc, &mul(&mul(&a, &b), &c), 1e-13);
        let single = chain_mul(Par::Seq, &[&a]);
        assert_close(&single, &a, 0.0);
    }

    #[test]
    fn chain_mul_with_rectangular_factors() {
        // Shape changes along the chain force the ping-pong to fall back
        // to fresh allocations without corrupting the running product.
        let a = test_matrix(5, 7, 43);
        let b = test_matrix(7, 3, 44);
        let c = test_matrix(3, 6, 45);
        let d = test_matrix(6, 6, 46);
        let abcd = chain_mul(Par::Seq, &[&a, &b, &c, &d]);
        assert_close(&abcd, &mul(&mul(&mul(&a, &b), &c), &d), 1e-13);
    }

    #[test]
    fn flops_are_counted() {
        use fsi_runtime::trace;
        let _lock = trace::test_lock();
        trace::set_level(fsi_runtime::TraceLevel::Kernels);
        // Every Op pair charges the analytic count to the enclosing span,
        // partial MR/NR tiles included (odd, remainder-heavy shapes).
        for ((m, k, n), (opa, opb)) in [(10, 20, 30), (37, 29, 41)]
            .into_iter()
            .flat_map(|mkn| ALL_OPS.map(|ops| (mkn, ops)))
        {
            let (a, b) = operands(m, k, n, opa, opb, 50);
            let mut c = Matrix::zeros(m, n);
            let span = trace::span("gemm-test");
            gemm_op(
                Par::Seq,
                1.0,
                opa,
                a.as_ref(),
                opb,
                b.as_ref(),
                0.0,
                c.as_mut(),
            );
            let stats = span.finish();
            assert_eq!(
                stats.flops,
                flops::counts::gemm(m, n, k),
                "{m}x{k}x{n} {opa:?}{opb:?}"
            );
        }
        // A batch is charged once, for all of its products.
        let n = 64;
        let a: Vec<Matrix> = (0..3u64).map(|i| test_matrix(n, n, 60 + i)).collect();
        let ar: Vec<_> = a.iter().map(Matrix::as_ref).collect();
        let b = test_matrix(n, n, 59);
        let mut out: Vec<Matrix> = (0..3).map(|_| Matrix::zeros(n, n)).collect();
        let mut c: Vec<_> = out.iter_mut().map(Matrix::as_mut).collect();
        let span = trace::span("gemm-batched-test");
        crate::gemm_batched(
            Par::Seq,
            1.0,
            Op::NoTrans,
            crate::BatchOperand::Each(&ar),
            Op::NoTrans,
            crate::BatchOperand::Shared(b.as_ref()),
            0.0,
            &mut c,
        );
        let stats = span.finish();
        trace::set_level(fsi_runtime::TraceLevel::Off);
        trace::clear();
        assert_eq!(stats.flops, 3 * flops::counts::gemm(n, n, n));
    }

    #[test]
    fn test_matrix_is_deterministic_and_bounded() {
        let a = test_matrix(5, 5, 7);
        let b = test_matrix(5, 5, 7);
        assert_eq!(a, b);
        assert!(a.max_abs() <= 1.0);
        let c = test_matrix(5, 5, 8);
        assert_ne!(a, c);
    }
}
