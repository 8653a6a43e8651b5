//! Batched small-matrix GEMM: many uniform-shape products through one
//! engine invocation.
//!
//! The FSI paper's clustering stage (Alg. 1) and the hybrid multi-matrix
//! driver (Alg. 3) spend their time on *many small* `N × N` products —
//! `B·c` independent factor multiplies per refresh at `N ≤ 64`. Routed
//! through the general engine one call at a time, over half the runtime
//! goes to per-call overhead: packing both operands, the `beta = 0` fill
//! pass over C, workspace borrows, and accounting. [`gemm_batched`]
//! amortizes all four across a batch:
//!
//! * **shared operands pack once** — a [`BatchOperand::Shared`] factor is
//!   packed a single time per worker chunk and reused for every product
//!   in the batch;
//! * **small-N fast path** — when the shape fits one cache block
//!   (`m, n ≤ MC`, `k ≤ KC`), the MC/KC/NC loop nest collapses to a bare
//!   macro loop; `NoTrans`·`NoTrans` products skip packing entirely and
//!   run the in-place [`crate::kernel`] direct kernels (masked
//!   loads/stores on partial tiles);
//! * **store-mode writeback** — `beta = 0` skips the C fill pass: the
//!   kernel writes `0.0 + alpha·acc`, bitwise what fill-then-accumulate
//!   would produce;
//! * **one dispatch, one accounting block** — the batch is split over the
//!   thread pool once (each worker streams a contiguous chunk), and
//!   flops/bytes/meters are charged once for the whole batch under the
//!   `gemm_batched` kernel span.
//!
//! Results are **bitwise identical** to calling [`crate::gemm()`] in a loop
//! with the same `Par`-sequential kernels: at small-path shapes the
//! general engine performs exactly one pack + macro sweep with the same
//! micro-kernel accumulation order, and the direct kernels share that
//! order (see the contract in [`crate::kernel`]). The proptests in
//! `tests/prop_batch.rs` pin this down per Op combination, remainder
//! shape, and batch size.

use crate::gemm::{gemm_count, gemm_op_uncounted, pack_a, pack_b, Op, KC, MC};
use crate::kernel::{self, KernelTier};
use crate::matrix::{MatMut, MatRef, Matrix};
use fsi_runtime::{flops, workspace, Par};

/// One side of a batched product: either a single factor shared by every
/// product in the batch, or a per-product slice of factors.
#[derive(Clone, Copy)]
pub enum BatchOperand<'a> {
    /// The same matrix multiplies every batch item (packed once per
    /// worker chunk on the packed small path).
    Shared(MatRef<'a>),
    /// Batch item `i` uses `factors[i]`; the slice length must equal the
    /// batch size.
    Each(&'a [MatRef<'a>]),
}

impl<'a> BatchOperand<'a> {
    /// The factor for batch item `i`.
    fn get(&self, i: usize) -> MatRef<'a> {
        match self {
            BatchOperand::Shared(m) => *m,
            BatchOperand::Each(ms) => ms[i],
        }
    }

    fn is_shared(&self) -> bool {
        matches!(self, BatchOperand::Shared(_))
    }
}

/// `C_i := alpha·op(A_i)·op(B_i) + beta·C_i` for every item of a
/// uniform-shape batch.
///
/// All products must share one `(m, k, n)` shape (leading dimensions may
/// differ per item). See the module docs for the overheads this amortizes
/// versus a loop of [`crate::gemm_op`] calls; results are bitwise equal
/// to that loop.
///
/// ```
/// use fsi_dense::{gemm_batched, mul, test_matrix, BatchOperand, Matrix, Op};
/// use fsi_runtime::Par;
///
/// // Ten independent 32×32 products sharing one right-hand factor.
/// let b = test_matrix(32, 32, 99);
/// let a: Vec<Matrix> = (0..10u64).map(|i| test_matrix(32, 32, i)).collect();
/// let a_refs: Vec<_> = a.iter().map(|m| m.as_ref()).collect();
/// let mut out: Vec<Matrix> = (0..10).map(|_| Matrix::zeros(32, 32)).collect();
/// let mut c: Vec<_> = out.iter_mut().map(|m| m.as_mut()).collect();
///
/// gemm_batched(
///     Par::Seq,
///     1.0,
///     Op::NoTrans,
///     BatchOperand::Each(&a_refs),
///     Op::NoTrans,
///     BatchOperand::Shared(b.as_ref()),
///     0.0,
///     &mut c,
/// );
///
/// drop(c);
/// for (ai, ci) in a.iter().zip(&out) {
///     assert_eq!(ci, &mul(ai, &b)); // bitwise equal to the looped path
/// }
/// ```
///
/// # Panics
/// Panics on shape disagreement within the batch or an
/// [`BatchOperand::Each`] slice whose length differs from `c.len()`.
#[allow(clippy::too_many_arguments)] // mirrors dgemm_batch's argument list
pub fn gemm_batched(
    par: Par<'_>,
    alpha: f64,
    opa: Op,
    a: BatchOperand<'_>,
    opb: Op,
    b: BatchOperand<'_>,
    beta: f64,
    c: &mut [MatMut<'_>],
) {
    let batch = c.len();
    if batch == 0 {
        return;
    }
    if let BatchOperand::Each(ms) = a {
        assert_eq!(ms.len(), batch, "gemm_batched: A slice length != batch");
    }
    if let BatchOperand::Each(ms) = b {
        assert_eq!(ms.len(), batch, "gemm_batched: B slice length != batch");
    }
    let m = opa.rows(a.get(0));
    let k = opa.cols(a.get(0));
    let n = opb.cols(b.get(0));
    for (i, ci) in c.iter().enumerate() {
        assert_eq!(opa.rows(a.get(i)), m, "gemm_batched: A shape varies");
        assert_eq!(opa.cols(a.get(i)), k, "gemm_batched: A shape varies");
        assert_eq!(opb.rows(b.get(i)), k, "gemm_batched: inner dims disagree");
        assert_eq!(opb.cols(b.get(i)), n, "gemm_batched: B shape varies");
        assert_eq!(ci.rows(), m, "gemm_batched: C row count mismatch");
        assert_eq!(ci.cols(), n, "gemm_batched: C column count mismatch");
    }
    if m == 0 || n == 0 {
        return;
    }

    // beta pre-pass, mirroring `gemm_op`: beta = 0 becomes store-mode
    // writeback (no fill pass), other betas scale in place up front.
    let store = beta == 0.0;
    if !store && beta != 1.0 {
        for ci in c.iter_mut() {
            ci.rb_mut().scale(beta);
        }
    }
    if k == 0 || alpha == 0.0 {
        if store {
            for ci in c.iter_mut() {
                ci.rb_mut().fill(0.0);
            }
        }
        return;
    }

    // One accounting block for the whole batch: the per-item route would
    // pay a span + meter + two clock reads per product, which at N ≤ 64
    // rivals the product itself.
    static BATCH_METER: fsi_runtime::metrics::Meter =
        fsi_runtime::metrics::Meter::new("dense.gemm_batched");
    static BATCH_HIST: fsi_runtime::metrics::LazyHistogram =
        fsi_runtime::metrics::LazyHistogram::new("dense.gemm_batched.batch");
    let _kernel = fsi_runtime::trace::kernel_span("gemm_batched");
    let total = flops::counts::gemm(m, n, k) * batch as u64;
    flops::add_flops(total);
    fsi_runtime::trace::charge_bytes(8 * ((m * k + k * n + 2 * m * n) * batch) as u64);
    BATCH_HIST.record(batch as u64);
    let _meter = if total >= crate::gemm::TIMED_METER_MIN {
        Some(BATCH_METER.start(total))
    } else {
        BATCH_METER.observe(total);
        None
    };

    // Resolve the kernel tier once on the calling thread so a
    // `with_tier` override covers pool workers too.
    let kt = kernel::active();
    let small = m <= MC && n <= MC && k <= KC;
    let threads = par.threads().max(1).min(batch);
    if threads <= 1 {
        run_chunk(kt, alpha, opa, a, opb, b, c, 0, store, small, (m, n, k));
        return;
    }
    let pool = par.pool().expect("threads > 1 implies pool");
    let chunk = batch.div_ceil(threads);
    pool.scope(|s| {
        for (t, cc) in c.chunks_mut(chunk).enumerate() {
            let off = t * chunk;
            s.spawn(move || run_chunk(kt, alpha, opa, a, opb, b, cc, off, store, small, (m, n, k)));
        }
    });
}

/// Streams one contiguous chunk of the batch through the chosen path:
/// general engine (large shapes), direct no-pack kernels (`NN` small
/// shapes), or pack-once macro loop (transposed small shapes).
#[allow(clippy::too_many_arguments)]
fn run_chunk(
    kt: &KernelTier,
    alpha: f64,
    opa: Op,
    a: BatchOperand<'_>,
    opb: Op,
    b: BatchOperand<'_>,
    c: &mut [MatMut<'_>],
    off: usize,
    store: bool,
    small: bool,
    (m, n, k): (usize, usize, usize),
) {
    if !small {
        // Large shapes: the blocked engine's cache hierarchy wins; run it
        // per item (accounting already charged at batch level). beta was
        // pre-applied, so the residual is 0 (store) or 1.
        let beta = if store { 0.0 } else { 1.0 };
        for (i, ci) in c.iter_mut().enumerate() {
            gemm_op_uncounted(
                Par::Seq,
                alpha,
                opa,
                a.get(off + i),
                opb,
                b.get(off + i),
                beta,
                ci.rb_mut(),
            );
        }
        return;
    }
    if opa == Op::NoTrans && opb == Op::NoTrans {
        // The hot shape: read both operands in place, no packing, no
        // workspace borrow, store-mode writeback.
        for (i, ci) in c.iter_mut().enumerate() {
            small_nn(kt, k, alpha, a.get(off + i), b.get(off + i), ci, store);
        }
        return;
    }
    // Transposed small shapes: pack through the workspace pool (one borrow
    // per chunk, not per product) and reuse a shared operand's panels
    // across the whole chunk.
    let a_len = m.div_ceil(kt.mr) * kt.mr * k;
    let b_len = n.div_ceil(kt.nr) * kt.nr * k;
    workspace::with_scratch2(a_len, b_len, |apack, bpack| {
        let mut a_ready = false;
        let mut b_ready = false;
        for (i, ci) in c.iter_mut().enumerate() {
            if !a_ready {
                pack_a(opa, a.get(off + i), 0, 0, m, k, kt.mr, apack);
                a_ready = a.is_shared();
            }
            if !b_ready {
                pack_b(opb, b.get(off + i), 0, 0, k, n, kt.nr, bpack);
                b_ready = b.is_shared();
            }
            small_packed(kt, (m, n, k), alpha, apack, bpack, ci, store);
        }
    });
}

/// One small `NoTrans·NoTrans` product through the tier's direct
/// (no-pack) driver, which walks register tiles straight over the
/// column-major operands.
fn small_nn(
    kt: &KernelTier,
    k: usize,
    alpha: f64,
    a: MatRef<'_>,
    b: MatRef<'_>,
    c: &mut MatMut<'_>,
    store: bool,
) {
    let m = c.rows();
    let n = c.cols();
    let (lda, ldb, ldc) = (a.ld(), b.ld(), c.ld());
    // SAFETY: A is m×k at stride lda, B is k×n at stride ldb (NoTrans by
    // this path's eligibility), and C is an exclusive m×n view at stride
    // ldc — exactly the driver's contract. The driver masks dead lanes of
    // partial tiles.
    unsafe {
        (kt.driver)(
            m,
            n,
            k,
            alpha,
            a.as_ptr(),
            lda,
            b.as_ptr(),
            ldb,
            c.as_mut_ptr(),
            ldc,
            store,
        );
    }
}

/// `C := alpha·A·B` (`accumulate = false`) or `C += alpha·A·B`, without
/// flop accounting or a kernel span — for kernels (GETRI's triangular
/// phases) that charged their own analytic total and recurse down to
/// products far smaller than a pack is worth: shapes inside one cache
/// block take the direct no-pack driver, larger ones the packed engine.
pub(crate) fn gemm_nn_uncounted(
    alpha: f64,
    a: MatRef<'_>,
    b: MatRef<'_>,
    accumulate: bool,
    mut c: MatMut<'_>,
) {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    assert_eq!(b.rows(), k, "gemm: inner dimensions disagree");
    assert_eq!((c.rows(), c.cols()), (m, n), "gemm: C shape mismatch");
    if m == 0 || n == 0 {
        return;
    }
    if k > 0 && m <= MC && n <= MC && k <= KC {
        small_nn(kernel::active(), k, alpha, a, b, &mut c, !accumulate);
    } else {
        let beta = if accumulate { 1.0 } else { 0.0 };
        gemm_op_uncounted(Par::Seq, alpha, Op::NoTrans, a, Op::NoTrans, b, beta, c);
    }
}

/// One small product over pre-packed panels: the bare macro loop of the
/// general engine, without its MC/KC/NC blocking (the whole problem is
/// one block by the small-path bound).
fn small_packed(
    kt: &KernelTier,
    (m, n, k): (usize, usize, usize),
    alpha: f64,
    apack: &[f64],
    bpack: &[f64],
    c: &mut MatMut<'_>,
    store: bool,
) {
    let ldc = c.ld();
    let cp = c.as_mut_ptr();
    let micro = kt.micro;
    let mut jr = 0;
    while jr < n {
        let n_eff = kt.nr.min(n - jr);
        let bpanel = bpack[(jr / kt.nr) * (k * kt.nr)..].as_ptr();
        let mut ir = 0;
        while ir < m {
            let m_eff = kt.mr.min(m - ir);
            let apanel = apack[(ir / kt.mr) * (k * kt.mr)..].as_ptr();
            // SAFETY: panels hold k·mr / k·nr packed values by
            // construction; the C corner is inside this exclusive view.
            unsafe {
                micro(
                    k,
                    alpha,
                    apanel,
                    bpanel,
                    cp.add(ir + jr * ldc),
                    ldc,
                    m_eff,
                    n_eff,
                    store,
                );
            }
            ir += kt.mr;
        }
        jr += kt.nr;
    }
}

/// Whether every product in a left-to-right chain fits the small fast
/// path: the running product keeps `factors[0].rows()` rows, so the chain
/// is small iff that height and every later factor's shape are within the
/// single-block bounds.
pub(crate) fn chain_is_small(factors: &[&Matrix]) -> bool {
    let m = factors[0].rows();
    m <= MC
        && factors[1..]
            .iter()
            .all(|f| f.rows() <= KC && f.cols() <= MC)
}

/// [`crate::chain_mul`]'s small-chain fast path: the same ping-pong
/// product sequence, but each product runs the direct no-pack kernel in
/// store mode — zero workspace borrows and no C fill passes across the
/// whole chain — with per-product flop attribution identical to the
/// general path (each product charges through [`gemm_count`]).
pub(crate) fn chain_mul_small(factors: &[&Matrix]) -> Matrix {
    let kt = kernel::active();
    let (first, rest) = factors.split_first().expect("chain_mul needs a factor");
    let mut acc = (*first).clone();
    let mut spare: Option<Matrix> = None;
    for f in rest {
        let (m, k, n) = (acc.rows(), f.rows(), f.cols());
        assert_eq!(acc.cols(), k, "chain_mul: inner dimensions disagree");
        let mut out = match spare.take() {
            // Stale contents are fine: store mode overwrites every element.
            Some(s) if s.rows() == m && s.cols() == n => s,
            _ => Matrix::zeros(m, n),
        };
        if m > 0 && n > 0 {
            if k > 0 {
                let _count = gemm_count(m, n, k);
                small_nn(
                    kt,
                    k,
                    1.0,
                    acc.as_ref(),
                    f.as_ref(),
                    &mut out.as_mut(),
                    true,
                );
            } else {
                out.as_mut().fill(0.0);
            }
        }
        spare = Some(std::mem::replace(&mut acc, out));
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{chain_mul, mul, test_matrix};

    #[test]
    fn shared_matches_each_bitwise() {
        let b = test_matrix(13, 13, 3);
        let a: Vec<Matrix> = (0..5u64).map(|i| test_matrix(13, 13, 10 + i)).collect();
        let ar: Vec<_> = a.iter().map(|m| m.as_ref()).collect();
        let br: Vec<_> = (0..5).map(|_| b.as_ref()).collect();
        let mut out1: Vec<Matrix> = (0..5).map(|_| Matrix::zeros(13, 13)).collect();
        let mut out2 = out1.clone();
        let mut c1: Vec<_> = out1.iter_mut().map(|m| m.as_mut()).collect();
        gemm_batched(
            Par::Seq,
            1.0,
            Op::NoTrans,
            BatchOperand::Each(&ar),
            Op::NoTrans,
            BatchOperand::Shared(b.as_ref()),
            0.0,
            &mut c1,
        );
        let mut c2: Vec<_> = out2.iter_mut().map(|m| m.as_mut()).collect();
        gemm_batched(
            Par::Seq,
            1.0,
            Op::NoTrans,
            BatchOperand::Each(&ar),
            Op::NoTrans,
            BatchOperand::Each(&br),
            0.0,
            &mut c2,
        );
        drop((c1, c2));
        assert_eq!(out1, out2);
        for (ai, ci) in a.iter().zip(&out1) {
            assert_eq!(ci, &mul(ai, &b));
        }
    }

    #[test]
    fn empty_batch_and_zero_dims_are_noops() {
        let mut none: Vec<MatMut<'_>> = Vec::new();
        gemm_batched(
            Par::Seq,
            1.0,
            Op::NoTrans,
            BatchOperand::Each(&[]),
            Op::NoTrans,
            BatchOperand::Each(&[]),
            0.0,
            &mut none,
        );
        // k == 0, beta == 0: outputs must be zero-filled like gemm's.
        let a = Matrix::zeros(3, 0);
        let b = Matrix::zeros(0, 3);
        let mut out = Matrix::from_fn(3, 3, |_, _| 2.0);
        let mut c = vec![out.as_mut()];
        gemm_batched(
            Par::Seq,
            1.0,
            Op::NoTrans,
            BatchOperand::Shared(a.as_ref()),
            Op::NoTrans,
            BatchOperand::Shared(b.as_ref()),
            0.0,
            &mut c,
        );
        drop(c);
        assert_eq!(out[(1, 1)], 0.0);
    }

    #[test]
    #[should_panic(expected = "A slice length")]
    fn wrong_each_length_panics() {
        let a = test_matrix(4, 4, 1);
        let mut out1 = Matrix::zeros(4, 4);
        let mut out2 = Matrix::zeros(4, 4);
        let mut c = vec![out1.as_mut(), out2.as_mut()];
        // One A for a two-item batch.
        let ar = [a.as_ref()];
        gemm_batched(
            Par::Seq,
            1.0,
            Op::NoTrans,
            BatchOperand::Each(&ar),
            Op::NoTrans,
            BatchOperand::Shared(a.as_ref()),
            0.0,
            &mut c,
        );
    }

    #[test]
    fn chain_fast_path_matches_general() {
        // Small square chain: eligible for the fast path.
        let fs: Vec<Matrix> = (0..4u64).map(|i| test_matrix(24, 24, 60 + i)).collect();
        let refs: Vec<&Matrix> = fs.iter().collect();
        assert!(chain_is_small(&refs));
        let fast = chain_mul(Par::Seq, &refs);
        let slow = mul(&mul(&mul(&fs[0], &fs[1]), &fs[2]), &fs[3]);
        assert_eq!(fast, slow, "fast chain path must stay bitwise identical");
        // A chain with a large factor is not eligible.
        let big = test_matrix(24, 2 * MC, 99);
        let tail = test_matrix(2 * MC, 24, 98);
        assert!(!chain_is_small(&[&fs[0], &big, &tail]));
    }
}
