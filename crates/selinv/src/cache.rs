//! Incremental clustering — reuse of CLS cluster products across refreshes.
//!
//! A DQMC stabilization re-runs CLS over all `b = L/c` cluster products,
//! but between two stabilizations the sweep touches at most
//! `stabilize_every` consecutive slices: every cluster whose `c`
//! constituent slices are all clean is *identical* to last time. The
//! [`ClusterCache`] keeps the previous products and recomputes only the
//! stale ones — a `stabilize_every`-slice window intersects
//! `O(window/c + 1)` of the `b` clusters, so the clustering stage drops
//! from `2b(c−1)N³` flops to `2·rebuilt·(c−1)·N³`
//! ([`crate::cls::cls_incremental_flops`]).
//!
//! Reuse is keyed on `(N, L, c, o)`: the offset `o = c−1−q` decides which
//! slices seed the chains, so a refresh anchored at a different
//! `k mod c` shares *no* products with the cache and triggers a full
//! rebuild. DQMC drivers that want hits must stabilize on a fixed residue —
//! `c | stabilize_every` (the default configuration satisfies this).
//!
//! Correctness is bitwise, not approximate: stale products rebuild through
//! the per-cluster `cluster_product` chain, which performs the identical
//! descending product sequence — through the same small-GEMM kernels with
//! deterministic writeback — as a cold [`crate::cls()`] run's batched
//! lockstep path, and clean products are reused verbatim. (Warm rebuilds
//! stay per-cluster so each `cls.cache_miss` span carries exactly one
//! chain's flops.) Each reused product opens a zero-flop
//! `cls.cache_hit` span and each recomputation a `cls.cache_miss` span
//! (whose inclusive flops are the chain's GEMM count), so `RunReport`
//! exposes hit/miss counters without a side channel.

use fsi_dense::Matrix;
use fsi_pcyclic::BlockPCyclic;
use fsi_runtime::health::{self, FsiResult, HealthEvent, Stage};
use fsi_runtime::{parallel_map, trace, Par, Schedule};

use crate::cls::{cluster_product, Clustered};

/// Shape-and-anchor key: `(N, L, c, o)`.
type CacheKey = (usize, usize, usize, usize);

/// Dirty-slice-tracking cache of the `b` CLS cluster products.
///
/// Each stored product carries an FNV checksum recorded at computation
/// time; a reuse re-verifies the checksum and surfaces corruption as
/// [`HealthEvent::CacheInconsistent`] instead of silently feeding a
/// damaged product into BSOFI. Every error path [`Self::invalidate`]s
/// first, so a failed call never leaves poisoned entries behind — the
/// next call is a clean cold build.
///
/// ```
/// use fsi_runtime::Par;
/// use fsi_selinv::ClusterCache;
/// let pc = fsi_pcyclic::random_pcyclic(4, 8, 3);
/// let blocks: Vec<_> = (0..pc.l()).map(|k| pc.block(k).clone()).collect();
/// let mut cache = ClusterCache::new();
/// // Cold build: all b = L/c = 2 cluster products are computed.
/// let clean = vec![false; blocks.len()];
/// let (_, rebuilt) = cache
///     .cls(Par::Seq, Par::Seq, &blocks, &clean, 4, 2)
///     .expect("healthy");
/// assert_eq!(rebuilt, 2);
/// // One dirty slice: only the cluster containing it is recomputed.
/// let mut dirty = clean.clone();
/// dirty[0] = true;
/// let (clustered, rebuilt) = cache
///     .cls(Par::Seq, Par::Seq, &blocks, &dirty, 4, 2)
///     .expect("healthy");
/// assert_eq!(rebuilt, 1);
/// assert_eq!((cache.hits(), cache.misses()), (1, 3));
/// assert_eq!(clustered.b(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct ClusterCache {
    key: Option<CacheKey>,
    products: Vec<Matrix>,
    sums: Vec<u64>,
    hits: u64,
    misses: u64,
}

impl ClusterCache {
    /// An empty cache; the first [`Self::cls`] is a full (cold) build.
    pub fn new() -> Self {
        ClusterCache::default()
    }

    /// Cluster products reused verbatim since construction.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cluster products recomputed since construction.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Drops the cached products; the next [`Self::cls`] is cold.
    pub fn invalidate(&mut self) {
        self.key = None;
        self.products.clear();
        self.sums.clear();
    }

    /// Incremental [`crate::cls()`]: recomputes only the cluster products
    /// with a dirty constituent slice (all of them on a cold or re-keyed
    /// cache) and reuses the rest. Returns the clustered matrix plus the
    /// number of products rebuilt.
    ///
    /// `dirty[k]` marks original slice `k` as changed since the previous
    /// call. The caller clears the mask; this method only reads it.
    ///
    /// # Errors
    /// [`HealthEvent::CacheInconsistent`] when a reused product fails its
    /// stored checksum, [`HealthEvent::NonFinite`] /
    /// [`HealthEvent::IllConditioned`] (at [`Stage::Cls`]) when a
    /// recomputed product fails the output scan. The cache is invalidated
    /// before any error is returned.
    ///
    /// # Panics
    /// Panics unless `c` divides `blocks.len()`, `q < c`, and
    /// `dirty.len() == blocks.len()` (dimension contracts, not data).
    pub fn cls(
        &mut self,
        par_clusters: Par<'_>,
        par_gemm: Par<'_>,
        blocks: &[Matrix],
        dirty: &[bool],
        c: usize,
        q: usize,
    ) -> FsiResult<(Clustered, usize)> {
        let l = blocks.len();
        assert!(
            c > 0 && l.is_multiple_of(c),
            "cluster size c={c} must divide L={l}"
        );
        assert!(q < c, "shift q={q} must be < c={c}");
        assert_eq!(dirty.len(), l, "dirty mask length mismatch");
        let n = blocks.first().map(|b| b.rows()).unwrap_or(0);
        let b = l / c;
        let o = c - 1 - q;

        let key = (n, l, c, o);
        let cold = self.key != Some(key) || self.products.len() != b;
        let stale: Vec<usize> = (0..b)
            .filter(|&m| cold || (0..c).any(|j| dirty[(c * m + o + l - j) % l]))
            .collect();

        // Verify the reused products before spending flops on the rebuild:
        // a corrupted entry invalidates everything and aborts the call.
        let mut stale_iter = stale.iter().copied().peekable();
        for m in 0..b {
            if stale_iter.peek() == Some(&m) {
                stale_iter.next();
                continue;
            }
            health::inject::poison(Stage::Cache, m, self.products[m].as_mut_slice());
            if health::checksum(self.products[m].as_slice()) != self.sums[m] {
                let event = HealthEvent::CacheInconsistent {
                    stage: Stage::Cache,
                    block: m,
                };
                event.record();
                self.invalidate();
                return Err(event);
            }
            trace::span("cls.cache_hit").finish();
        }
        let mut recomputed = parallel_map(par_clusters, stale.len(), Schedule::Static, |i| {
            let _s = trace::span("cls.cache_miss");
            cluster_product(par_gemm, blocks, c * stale[i] + o, c)
        });
        for (i, &m) in stale.iter().enumerate() {
            health::inject::poison(Stage::Cls, m, recomputed[i].as_mut_slice());
            if let Err(event) = health::check_block(Stage::Cls, m, recomputed[i].as_slice()) {
                self.invalidate();
                return Err(event);
            }
        }

        if cold {
            self.products = vec![Matrix::zeros(0, 0); b];
            self.sums = vec![0; b];
        }
        for (m, prod) in stale.iter().zip(recomputed) {
            self.sums[*m] = health::checksum(prod.as_slice());
            self.products[*m] = prod;
        }
        self.key = Some(key);
        self.hits += (b - stale.len()) as u64;
        self.misses += stale.len() as u64;
        static HITS: fsi_runtime::metrics::LazyCounter =
            fsi_runtime::metrics::LazyCounter::new("selinv.cluster_cache.hits");
        static MISSES: fsi_runtime::metrics::LazyCounter =
            fsi_runtime::metrics::LazyCounter::new("selinv.cluster_cache.misses");
        HITS.add((b - stale.len()) as u64);
        MISSES.add(stale.len() as u64);

        let clustered = Clustered {
            reduced: BlockPCyclic::new(self.products.clone()),
            c,
            q,
            l_original: l,
        };
        Ok((clustered, stale.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cls::cls;
    use fsi_pcyclic::random_pcyclic;

    fn assert_bitwise(a: &Clustered, b: &Clustered) {
        assert_eq!(a.b(), b.b());
        for m in 0..a.b() {
            assert_eq!(
                a.reduced.block(m).as_slice(),
                b.reduced.block(m).as_slice(),
                "cluster {m} not bitwise equal"
            );
        }
    }

    #[test]
    fn cold_cache_matches_plain_cls_bitwise() {
        let pc = random_pcyclic(4, 12, 31);
        let mut cache = ClusterCache::new();
        let (warm, rebuilt) = cache
            .cls(Par::Seq, Par::Seq, pc.blocks(), &[false; 12], 4, 1)
            .expect("healthy");
        assert_eq!(rebuilt, 3, "cold build recomputes every cluster");
        let cold = cls(Par::Seq, Par::Seq, &pc, 4, 1);
        assert_bitwise(&warm, &cold);
        assert_eq!(cache.misses(), 3);
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn dirty_slices_invalidate_exactly_their_clusters() {
        let mut pc = random_pcyclic(3, 12, 32);
        let mut cache = ClusterCache::new();
        let (_, _) = cache
            .cls(Par::Seq, Par::Seq, pc.blocks(), &[false; 12], 4, 2)
            .expect("healthy");
        // o = 1: cluster 0 covers slices {1, 0, 11, 10}, cluster 1 covers
        // {5, 4, 3, 2}, cluster 2 covers {9, 8, 7, 6}. Perturb slice 3.
        let mut blocks = pc.blocks().to_vec();
        blocks[3] = random_pcyclic(3, 1, 99).block(0).clone();
        pc = BlockPCyclic::new(blocks);
        let mut dirty = [false; 12];
        dirty[3] = true;
        let (warm, rebuilt) = cache
            .cls(Par::Seq, Par::Seq, pc.blocks(), &dirty, 4, 2)
            .expect("healthy");
        assert_eq!(rebuilt, 1, "one dirty slice → one stale cluster");
        assert_eq!(cache.hits(), 2);
        let cold = cls(Par::Seq, Par::Seq, &pc, 4, 2);
        assert_bitwise(&warm, &cold);
    }

    #[test]
    fn wraparound_cluster_sees_dirty_tail_slice() {
        let pc = random_pcyclic(2, 8, 33);
        let mut cache = ClusterCache::new();
        cache
            .cls(Par::Seq, Par::Seq, pc.blocks(), &[false; 8], 4, 0)
            .expect("healthy");
        // o = 3: cluster 0 covers slices {3, 2, 1, 0} and cluster 1 covers
        // {7, 6, 5, 4}. Dirty slice 7 must invalidate cluster 1 only.
        let mut dirty = [false; 8];
        dirty[7] = true;
        let (_, rebuilt) = cache
            .cls(Par::Seq, Par::Seq, pc.blocks(), &dirty, 4, 0)
            .expect("healthy");
        assert_eq!(rebuilt, 1);
        // o = 1 (q = 2): cluster 0 covers {1, 0, 7, 6} — wraps past L.
        let mut cache = ClusterCache::new();
        cache
            .cls(Par::Seq, Par::Seq, pc.blocks(), &[false; 8], 4, 2)
            .expect("healthy");
        let (_, rebuilt) = cache
            .cls(Par::Seq, Par::Seq, pc.blocks(), &dirty, 4, 2)
            .expect("healthy");
        assert_eq!(rebuilt, 1, "wraparound constituent must go stale");
    }

    #[test]
    fn changing_anchor_or_shape_forces_full_rebuild() {
        let pc = random_pcyclic(2, 12, 34);
        let mut cache = ClusterCache::new();
        cache
            .cls(Par::Seq, Par::Seq, pc.blocks(), &[false; 12], 4, 1)
            .expect("healthy");
        // Different q → different offset → no reusable products.
        let (_, rebuilt) = cache
            .cls(Par::Seq, Par::Seq, pc.blocks(), &[false; 12], 4, 2)
            .expect("healthy");
        assert_eq!(rebuilt, 3);
        // Different c likewise.
        let (_, rebuilt) = cache
            .cls(Par::Seq, Par::Seq, pc.blocks(), &[false; 12], 3, 0)
            .expect("healthy");
        assert_eq!(rebuilt, 4);
        // Same key again with a clean mask → all hits.
        let (_, rebuilt) = cache
            .cls(Par::Seq, Par::Seq, pc.blocks(), &[false; 12], 3, 0)
            .expect("healthy");
        assert_eq!(rebuilt, 0);
    }

    #[test]
    fn randomized_dirty_patterns_match_cold_rebuild_bitwise() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(77);
        let mut pc = random_pcyclic(3, 16, 35);
        let mut cache = ClusterCache::new();
        cache
            .cls(Par::Seq, Par::Seq, pc.blocks(), &[false; 16], 4, 3)
            .expect("healthy");
        for round in 0..10 {
            let mut dirty = [false; 16];
            let mut blocks = pc.blocks().to_vec();
            for k in 0..16 {
                if rng.gen::<f64>() < 0.2 {
                    dirty[k] = true;
                    blocks[k] = random_pcyclic(3, 1, (1000 + round * 16 + k) as u64)
                        .block(0)
                        .clone();
                }
            }
            pc = BlockPCyclic::new(blocks);
            let (warm, _) = cache
                .cls(Par::Seq, Par::Seq, pc.blocks(), &dirty, 4, 3)
                .expect("healthy");
            let cold = cls(Par::Seq, Par::Seq, &pc, 4, 3);
            assert_bitwise(&warm, &cold);
        }
    }

    #[test]
    fn invalidate_resets_to_cold() {
        let pc = random_pcyclic(2, 8, 36);
        let mut cache = ClusterCache::new();
        cache
            .cls(Par::Seq, Par::Seq, pc.blocks(), &[false; 8], 2, 0)
            .expect("healthy");
        cache.invalidate();
        let (_, rebuilt) = cache
            .cls(Par::Seq, Par::Seq, pc.blocks(), &[false; 8], 2, 0)
            .expect("healthy");
        assert_eq!(rebuilt, 4);
    }
}
