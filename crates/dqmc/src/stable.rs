//! Stabilized equal-time Green's function computation.
//!
//! The sweep needs `Ĝ_σ(ℓ) = (I + B_{ℓ−1}⋯B_{ℓ})⁻¹` recomputed from
//! scratch periodically: the Sherman–Morrison updates and the similarity
//! wraps accumulate round-off, and at low temperature the raw product
//! `P(ℓ)` has singular values spreading like `e^{±βW}` so naively forming
//! `I + P` loses everything.
//!
//! The stable route is exactly the paper's observation that Hirsch's
//! stable low-temperature algorithm *is* block cyclic reduction: cluster
//! the chain into `c`-fold products (CLS), then invert the reduced
//! p-cyclic matrix with orthogonal transforms (BSOFI). No explicit
//! `I + P` is ever formed; conditioning is confined to `c`-long products.
//!
//! Both the stable and the naive computation are exposed so the
//! stabilization ablation can measure the difference.

use fsi_dense::Matrix;
use fsi_pcyclic::BlockPCyclic;
use fsi_runtime::health::{self, FsiResult, Stage};
use fsi_runtime::Par;
use fsi_selinv::{bsofi_selected, cls, ClusterCache, SelectedPattern};

/// Stable `G(k, k)` via clustering + BSOFI (Hirsch/BCR route), on the
/// calling thread.
///
/// The shift `q` is chosen so that row `k` is a seed row of the reduction
/// (`k ≡ c−1−q (mod c)`), making the requested block directly available
/// in the reduced inverse.
///
/// # Errors
/// Surfaces the [`fsi_runtime::health`] probe events of every stage it
/// drives: bad cluster products ([`Stage::Cls`]), a singular/graded `R`
/// diagonal ([`Stage::Bsofi`]), and a non-finite assembled Green's
/// function ([`Stage::Green`]).
///
/// # Panics
/// Panics unless `c` divides `L` (a dimension contract, not data).
pub fn equal_time_green_stable(pc: &BlockPCyclic, k: usize, c: usize) -> FsiResult<Matrix> {
    let l = pc.l();
    assert!(l.is_multiple_of(c), "cluster size must divide L");
    assert!(k < l, "slice index out of range");
    let o = k % c;
    let q = c - 1 - o;
    let clustered = cls(Par::Seq, Par::Seq, pc, c, q);
    for m in 0..clustered.b() {
        health::check_block(Stage::Cls, m, clustered.reduced.block(m).as_slice())?;
    }
    let k0 = clustered
        .to_reduced(k)
        .expect("k is a seed row by construction");
    // Only Ḡ(k₀,k₀) is needed — request exactly that block instead of
    // materializing the dense reduced inverse.
    let mut sel = bsofi_selected(
        Par::Seq,
        Par::Seq,
        &clustered.reduced,
        &SelectedPattern::DiagonalBlock(k0),
    )?;
    let g = sel.remove(k0, k0).expect("requested block assembled");
    scan_green(k, g)
}

/// [`equal_time_green_stable`] with incremental clustering: the CLS stage
/// goes through `cache`, recomputing only the cluster products with a
/// dirty constituent slice (see [`fsi_selinv::ClusterCache`]). BSOFI and
/// the block extraction are unchanged — they depend on every cluster, so
/// there is nothing to reuse there.
///
/// Cache hits require the anchor residue `k mod c` to repeat across calls
/// (DQMC: `c | stabilize_every`); a changed residue re-keys the cache and
/// this call degenerates to a cold [`equal_time_green_stable`], bitwise.
///
/// # Errors
/// As [`equal_time_green_stable`], plus
/// [`fsi_runtime::health::HealthEvent::CacheInconsistent`] when a reused
/// cluster product fails its checksum. On any error the cache has already
/// been invalidated (see [`fsi_selinv::ClusterCache::cls`]), so a retry
/// is a clean cold build.
///
/// # Panics
/// Panics unless `c` divides `L`, `k < L`, and
/// `dirty.len() == blocks.len()` (dimension contracts, not data).
pub fn equal_time_green_cached(
    par_outer: Par<'_>,
    par_inner: Par<'_>,
    blocks: &[Matrix],
    dirty: &[bool],
    cache: &mut ClusterCache,
    k: usize,
    c: usize,
) -> FsiResult<Matrix> {
    let l = blocks.len();
    assert!(l.is_multiple_of(c), "cluster size must divide L");
    assert!(k < l, "slice index out of range");
    let o = k % c;
    let q = c - 1 - o;
    let (clustered, _rebuilt) = cache.cls(par_outer, par_inner, blocks, dirty, c, q)?;
    let k0 = clustered
        .to_reduced(k)
        .expect("k is a seed row by construction");
    let mut sel = bsofi_selected(
        par_outer,
        par_inner,
        &clustered.reduced,
        &SelectedPattern::DiagonalBlock(k0),
    )?;
    let g = sel.remove(k0, k0).expect("requested block assembled");
    scan_green(k, g)
}

/// Final output probe (plus injection hook) of an assembled equal-time
/// Green's function: the last gate before the block reaches the sweep.
fn scan_green(k: usize, mut g: Matrix) -> FsiResult<Matrix> {
    health::inject::poison(Stage::Green, k, g.as_mut_slice());
    health::check_block(Stage::Green, k, g.as_slice())?;
    Ok(g)
}

/// Naive `G(k, k) = (I + P(k))⁻¹` via the explicit product — loses
/// accuracy once the product's condition number exhausts double
/// precision. The reference the stabilization tests compare against.
#[cfg(test)]
fn equal_time_green_naive(pc: &BlockPCyclic, k: usize) -> Matrix {
    fsi_pcyclic::equal_time_green_explicit(pc, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsi_dense::rel_error;
    use fsi_pcyclic::{
        hubbard_pcyclic, random_pcyclic, BlockBuilder, HsField, HubbardParams, Spin, SquareLattice,
    };
    use rand::SeedableRng;

    #[test]
    fn stable_matches_reference_for_every_slice() {
        let pc = random_pcyclic(3, 8, 50);
        let g_ref = pc.reference_green();
        for k in 0..8 {
            let got = equal_time_green_stable(&pc, k, 4).expect("healthy");
            let want = pc.dense_block(&g_ref, k, k);
            assert!(rel_error(&got, &want) < 1e-9, "k={k}");
        }
    }

    #[test]
    fn stable_matches_naive_when_well_conditioned() {
        let builder =
            BlockBuilder::new(SquareLattice::square(2), HubbardParams::paper_validation(8));
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(4);
        let field = HsField::random(8, 4, &mut rng);
        let pc = hubbard_pcyclic(&builder, &field, Spin::Up);
        for k in [0usize, 3, 7] {
            let stable = equal_time_green_stable(&pc, k, 4).expect("healthy");
            let naive = equal_time_green_naive(&pc, k);
            assert!(rel_error(&stable, &naive) < 1e-9, "k={k}");
        }
    }

    #[test]
    fn cached_green_matches_uncached_bitwise() {
        let builder =
            BlockBuilder::new(SquareLattice::square(2), HubbardParams::paper_validation(8));
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(6);
        let mut field = HsField::random(8, 4, &mut rng);
        let mut cache = fsi_selinv::ClusterCache::new();
        // Cold call, then a warm call after flipping a couple of slices —
        // both must equal the uncached computation bitwise.
        for (round, flips) in [vec![], vec![(2usize, 1usize), (3, 0)]]
            .into_iter()
            .enumerate()
        {
            let mut dirty = [false; 8];
            for (sl, site) in flips {
                field.flip(sl, site);
                dirty[sl] = true;
            }
            let pc = hubbard_pcyclic(&builder, &field, Spin::Up);
            let k = 3; // fixed residue so the warm call can reuse products
            let got =
                equal_time_green_cached(Par::Seq, Par::Seq, pc.blocks(), &dirty, &mut cache, k, 4)
                    .expect("healthy");
            let want = equal_time_green_stable(&pc, k, 4).expect("healthy");
            assert_eq!(got.as_slice(), want.as_slice(), "round {round} not bitwise");
        }
        assert!(cache.hits() > 0, "warm round must reuse clusters");
    }

    #[test]
    fn stable_beats_naive_at_low_temperature() {
        // β large → long ill-conditioned chains. Compare both against the
        // dense LU reference, which at this small size is itself reliable.
        let params = HubbardParams {
            t: 1.0,
            u: 4.0,
            beta: 12.0,
            l: 48,
        };
        let builder = BlockBuilder::new(SquareLattice::new(2, 1), params);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        let field = HsField::random(48, 2, &mut rng);
        let pc = hubbard_pcyclic(&builder, &field, Spin::Up);
        let g_ref = pc.reference_green();
        let want = pc.dense_block(&g_ref, 0, 0);
        let stable = equal_time_green_stable(&pc, 0, 6).expect("healthy");
        let naive = equal_time_green_naive(&pc, 0);
        let err_stable = rel_error(&stable, &want);
        let err_naive = rel_error(&naive, &want);
        assert!(
            err_stable <= err_naive * 1.5 + 1e-12,
            "stable {err_stable} vs naive {err_naive}"
        );
        assert!(
            err_stable < 1e-6,
            "stable route stays accurate: {err_stable}"
        );
    }
}
