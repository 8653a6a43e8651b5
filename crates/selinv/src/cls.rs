//! CLS — the clustering stage of FSI (block cyclic reduction).
//!
//! A factor-of-`c` block cyclic reduction collapses the `L`-block p-cyclic
//! matrix `M` into a `b = L/c`-block p-cyclic matrix `M̄` whose blocks are
//! descending products of `c` consecutive original blocks (paper Alg. 1,
//! `CLS(M, c, q)`):
//!
//! ```text
//! b̄[m] = b[c·m + o] · b[c·m + o − 1] ⋯ b[c·m + o − c + 1]   (indices mod L)
//! o = c − 1 − q
//! ```
//!
//! The crucial structural fact (paper Eq. (8)) is that `M̄`'s Green's
//! function is an exact subsample of the original:
//! `Ḡ(k₀, ℓ₀) = G(c·k₀ + o, c·ℓ₀ + o)` — clustering loses no information
//! about the selected rows, it only changes which blocks are *directly*
//! available. Cost `2b(c−1)N³`; the `b` cluster products are independent
//! ("embarrassingly parallel"). In the sequential-GEMM modes they advance
//! in lockstep through [`fsi_dense::gemm_batched`] — one batched engine
//! dispatch per chain position instead of `b·(c−1)` small GEMM calls —
//! while the MKL-style mode (pool inside each GEMM) keeps per-cluster
//! chains under `parallel_map`.
//!
//! The cluster size trades reduction against round-off: each product chain
//! multiplies `c` matrices whose singular values spread multiplicatively,
//! so large `c` loses precision (paper cites the stability analysis of
//! Bai–Chen–Scalettar–Yamazaki and recommends `c ≈ √L`). The
//! `ablation_cluster_size` bench sweeps this trade-off.

use fsi_dense::{chain_mul, gemm_batched, BatchOperand, MatMut, MatRef, Matrix, Op};
use fsi_pcyclic::BlockPCyclic;
use fsi_runtime::{parallel_map, Par, Schedule};

/// The output of the clustering stage.
#[derive(Clone, Debug)]
pub struct Clustered {
    /// The reduced `b`-block p-cyclic matrix `M̄`.
    pub reduced: BlockPCyclic,
    /// Cluster size.
    pub c: usize,
    /// Random shift `q ∈ 0..c`.
    pub q: usize,
    /// Original block count `L`.
    pub l_original: usize,
}

impl Clustered {
    /// The 0-based offset `o = c − 1 − q`: original row `o + m·c` is the
    /// reduced row `m`.
    pub(crate) fn offset(&self) -> usize {
        self.c - 1 - self.q
    }

    /// Maps a reduced block row `k₀` to its original block row
    /// `c·k₀ + o`.
    pub fn to_original(&self, k0: usize) -> usize {
        self.c * k0 + self.offset()
    }

    /// Maps an original block row to its reduced row if it is a seed row.
    pub fn to_reduced(&self, k: usize) -> Option<usize> {
        let o = self.offset();
        (k % self.c == o % self.c && k >= o % self.c).then(|| (k - o) / self.c)
    }

    /// Number of reduced block rows `b = L/c`.
    pub fn b(&self) -> usize {
        self.reduced.l()
    }
}

/// Runs the clustering stage.
///
/// `par_clusters` parallelizes *across* the `b` independent cluster chains
/// (the paper's OpenMP loop); `par_gemm` parallelizes *inside* each chain's
/// products (the "MKL-style" mode). Passing a pool to both would
/// oversubscribe — the FSI drivers pass a pool to exactly one.
///
/// # Panics
/// Panics unless `c` divides `L` and `q < c`.
pub fn cls(
    par_clusters: Par<'_>,
    par_gemm: Par<'_>,
    pc: &BlockPCyclic,
    c: usize,
    q: usize,
) -> Clustered {
    let l = pc.l();
    assert!(
        c > 0 && l.is_multiple_of(c),
        "cluster size c={c} must divide L={l}"
    );
    assert!(q < c, "shift q={q} must be < c={c}");
    let b = l / c;
    let o = c - 1 - q;
    // The batched lockstep path streams all `b` chains through
    // `gemm_batched` step by step (one engine dispatch per chain
    // position). It is bitwise identical to the per-cluster path — each
    // chain performs the same product sequence through the same small-GEMM
    // kernels — but amortizes dispatch and accounting across the batch.
    // The MKL-style mode (`par_gemm` holding the pool) keeps the
    // per-cluster path so each product parallelizes internally.
    let blocks = if par_gemm.threads() <= 1 {
        cluster_products_batched(par_clusters, pc.blocks(), c, o)
    } else {
        parallel_map(par_clusters, b, Schedule::Static, |m| {
            cluster_product(par_gemm, pc.blocks(), c * m + o, c)
        })
    };
    Clustered {
        reduced: BlockPCyclic::new(blocks),
        c,
        q,
        l_original: l,
    }
}

/// All `b` cluster chains advanced in lockstep: chain step `s` is one
/// [`gemm_batched`] call multiplying every cluster's running product by
/// its next (descending) factor with `beta = 0` store-mode writeback.
/// Two `Vec<Matrix>` ping-pong as accumulator and output, so the whole
/// refresh allocates `2b` matrices once and reuses them across steps.
fn cluster_products_batched(par: Par<'_>, blocks: &[Matrix], c: usize, o: usize) -> Vec<Matrix> {
    let l = blocks.len();
    let b = l / c;
    let n = blocks[0].rows();
    static BATCH_HIST: fsi_runtime::metrics::LazyHistogram =
        fsi_runtime::metrics::LazyHistogram::new("selinv.cls.batch.clusters");
    BATCH_HIST.record(b as u64);
    // Chain start: b̄[m] ← b[c·m + o].
    let mut acc: Vec<Matrix> = (0..b).map(|m| blocks[(c * m + o) % l].clone()).collect();
    if c == 1 {
        return acc;
    }
    let mut out: Vec<Matrix> = (0..b).map(|_| Matrix::zeros(n, n)).collect();
    for s in 1..c {
        // Step s multiplies every running product by b[c·m + o − s].
        let accr: Vec<MatRef<'_>> = acc.iter().map(|m| m.as_ref()).collect();
        let factors: Vec<MatRef<'_>> = (0..b)
            .map(|m| blocks[(c * m + o + l - s) % l].as_ref())
            .collect();
        let mut outs: Vec<MatMut<'_>> = out.iter_mut().map(|m| m.as_mut()).collect();
        gemm_batched(
            par,
            1.0,
            Op::NoTrans,
            BatchOperand::Each(&accr),
            Op::NoTrans,
            BatchOperand::Each(&factors),
            0.0,
            &mut outs,
        );
        drop(outs);
        std::mem::swap(&mut acc, &mut out);
    }
    acc
}

/// Descending cyclic product of `count` blocks starting at `from`:
/// `b[from]·b[from−1]⋯` (left-to-right accumulation, matching the paper's
/// chain order). Delegates to [`chain_mul`], whose ping-pong buffers keep
/// a `c`-factor chain at two allocations instead of one per factor.
///
/// Takes a raw block slice rather than a [`BlockPCyclic`] so the
/// incremental [`crate::cache::ClusterCache`] performs the *identical*
/// product sequence a cold [`cls`] would. The bitwise-equality contract
/// between warm and cold refreshes rests on every route — this per-cluster
/// chain and the batched lockstep path of `cluster_products_batched` —
/// executing the same descending factor products through the same
/// small-GEMM kernels in the same accumulation order.
pub(crate) fn cluster_product(
    par: Par<'_>,
    blocks: &[Matrix],
    from: usize,
    count: usize,
) -> Matrix {
    let l = blocks.len();
    let mut idx = from % l;
    let mut factors = Vec::with_capacity(count);
    factors.push(&blocks[idx]);
    for _ in 1..count {
        idx = (idx + l - 1) % l;
        factors.push(&blocks[idx]);
    }
    chain_mul(par, &factors)
}

/// Closed-form flop count of the clustering stage (paper §II-C):
/// `2b(c−1)N³`.
pub fn cls_flops(n: usize, l: usize, c: usize) -> u64 {
    let b = (l / c) as u64;
    2 * b * (c as u64 - 1) * (n as u64).pow(3)
}

/// Flop count of an incremental clustering pass that recomputed only
/// `rebuilt` of the `b` cluster products: `2·rebuilt·(c−1)·N³`.
pub fn cls_incremental_flops(n: usize, c: usize, rebuilt: usize) -> u64 {
    2 * rebuilt as u64 * (c as u64 - 1) * (n as u64).pow(3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsi_dense::rel_error;
    use fsi_pcyclic::random_pcyclic;
    use fsi_runtime::ThreadPool;

    #[test]
    fn cluster_blocks_are_the_right_products() {
        let pc = random_pcyclic(3, 12, 1);
        let cl = cls(Par::Seq, Par::Seq, &pc, 4, 2);
        assert_eq!(cl.b(), 3);
        assert_eq!(cl.offset(), 1);
        // b̄[0] = b[1]·b[0]·b[11]·b[10].
        let want = fsi_dense::chain_mul(
            Par::Seq,
            &[pc.block(1), pc.block(0), pc.block(11), pc.block(10)],
        );
        assert!(rel_error(cl.reduced.block(0), &want) < 1e-13);
        // b̄[2] = b[9]·b[8]·b[7]·b[6].
        let want = fsi_dense::chain_mul(
            Par::Seq,
            &[pc.block(9), pc.block(8), pc.block(7), pc.block(6)],
        );
        assert!(rel_error(cl.reduced.block(2), &want) < 1e-13);
    }

    #[test]
    fn seed_identity_reduced_green_subsamples_original() {
        // Paper Eq. (8): Ḡ(k₀, ℓ₀) = G(c·k₀ + o, c·ℓ₀ + o), for every
        // (c, q) combination.
        let pc = random_pcyclic(2, 8, 2);
        let g_ref = pc.reference_green();
        for c in [2usize, 4] {
            for q in 0..c {
                let cl = cls(Par::Seq, Par::Seq, &pc, c, q);
                let g_red = cl.reduced.reference_green();
                let b = cl.b();
                for k0 in 0..b {
                    for l0 in 0..b {
                        let got = cl.reduced.dense_block(&g_red, k0, l0);
                        let want = pc.dense_block(&g_ref, cl.to_original(k0), cl.to_original(l0));
                        assert!(
                            rel_error(&got, &want) < 1e-8,
                            "c={c} q={q} ({k0},{l0}): {}",
                            rel_error(&got, &want)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn index_mapping_roundtrip() {
        let pc = random_pcyclic(2, 20, 3);
        let cl = cls(Par::Seq, Par::Seq, &pc, 5, 3);
        for k0 in 0..cl.b() {
            let orig = cl.to_original(k0);
            assert_eq!(cl.to_reduced(orig), Some(k0));
        }
        // Non-seed rows map to None.
        assert_eq!(cl.to_reduced(cl.offset() + 1), None);
    }

    #[test]
    fn batched_cls_matches_per_cluster_chains_bitwise() {
        // The lockstep batched path must reproduce the per-cluster chain
        // products bit for bit — the warm/cold cache contract and the
        // stabilization tests rest on this.
        let pc = random_pcyclic(5, 12, 9);
        let (c, q) = (4, 1);
        let cl = cls(Par::Seq, Par::Seq, &pc, c, q);
        let o = cl.offset();
        for m in 0..cl.b() {
            let want = cluster_product(Par::Seq, pc.blocks(), c * m + o, c);
            assert_eq!(cl.reduced.block(m), &want, "cluster {m} differs");
        }
    }

    #[test]
    fn parallel_cls_matches_sequential() {
        let pool = ThreadPool::new(4);
        let pc = random_pcyclic(6, 12, 4);
        let seq = cls(Par::Seq, Par::Seq, &pc, 3, 1);
        let par = cls(Par::Pool(&pool), Par::Seq, &pc, 3, 1);
        for m in 0..seq.b() {
            assert!(rel_error(par.reduced.block(m), seq.reduced.block(m)) < 1e-15);
        }
        // And the MKL-style parallelization (inside the gemms).
        let mkl = cls(Par::Seq, Par::Pool(&pool), &pc, 3, 1);
        for m in 0..seq.b() {
            assert!(rel_error(mkl.reduced.block(m), seq.reduced.block(m)) < 1e-14);
        }
    }

    #[test]
    fn c_equal_one_is_identity_reduction() {
        let pc = random_pcyclic(3, 5, 5);
        let cl = cls(Par::Seq, Par::Seq, &pc, 1, 0);
        assert_eq!(cl.b(), 5);
        for m in 0..5 {
            assert!(rel_error(cl.reduced.block(m), pc.block(m)) < 1e-15);
        }
    }

    #[test]
    fn c_equal_l_reduces_to_single_block() {
        let pc = random_pcyclic(2, 6, 6);
        let cl = cls(Par::Seq, Par::Seq, &pc, 6, 0);
        assert_eq!(cl.b(), 1);
        // The single block is the full cyclic product P(L−1).
        let want = fsi_pcyclic::cyclic_product_full(&pc, 5);
        assert!(rel_error(cl.reduced.block(0), &want) < 1e-12);
    }

    #[test]
    fn flop_formula_matches_paper() {
        // 2b(c−1)N³ for (N, L, c) = (100, 100, 10): b = 10.
        assert_eq!(cls_flops(100, 100, 10), 2 * 10 * 9 * 1_000_000);
    }
}
