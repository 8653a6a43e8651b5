//! Property-based tests of the structure-exploiting sweep hot path: the
//! factored similarity wrap agrees with the dense-GEMM
//! baseline for arbitrary fields and Green's functions, the incremental
//! cluster cache is bitwise-invisible under random flip trajectories, and
//! a sweep over a pool is deterministic against its serial baseline.

use fsi::dense::{rel_error, test_matrix};
use fsi::dqmc::{
    equal_time_green_cached, equal_time_green_stable, wrap_dense, wrap_factored, SweepConfig,
    Sweeper,
};
use fsi::pcyclic::{hubbard_pcyclic, BlockBuilder, HsField, HubbardParams, Spin, SquareLattice};
use fsi::runtime::{Par, ThreadPool};
use fsi::selinv::{ClusterCache, Parallelism};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Valid sweep shapes: nx×nx lattice, l slices, slice index, spin, seed.
fn wrap_config() -> impl Strategy<Value = (usize, usize, usize, Spin, u64)> {
    (2usize..4, 2usize..7, any::<u64>(), any::<bool>()).prop_flat_map(|(nx, l, seed, up)| {
        (
            Just(nx),
            Just(l),
            0..l,
            Just(if up { Spin::Up } else { Spin::Down }),
            Just(seed),
        )
    })
}

fn builder(nx: usize, l: usize) -> BlockBuilder {
    BlockBuilder::new(
        SquareLattice::square(nx),
        HubbardParams {
            t: 1.0,
            u: 4.0,
            beta: 2.0,
            l,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `wrap_factored` is the same linear map as `wrap_dense` — for any
    /// matrix, not just Green's functions — to well below 1e-12.
    #[test]
    fn factored_wrap_matches_dense_for_any_matrix(
        (nx, l, slice, spin, seed) in wrap_config(),
    ) {
        let builder = builder(nx, l);
        let n = nx * nx;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let field = HsField::random(l, n, &mut rng);
        let g0 = test_matrix(n, n, seed.wrapping_add(1));
        let mut dense = g0.clone();
        wrap_dense(Par::Seq, &builder, &field, slice, spin, &mut dense);
        let mut factored = g0;
        wrap_factored(Par::Seq, &builder, &field, slice, spin, &mut factored);
        let err = rel_error(&factored, &dense);
        prop_assert!(err < 1e-12, "(nx={nx}, l={l}, slice={slice}, {spin:?}): {err}");
    }

    /// The cluster cache is bitwise-invisible: under an arbitrary sequence
    /// of flip rounds, the cached Green's function equals the cold
    /// recomputation exactly (same `cluster_product` path, reused products
    /// verbatim).
    #[test]
    fn cluster_cache_is_bitwise_under_random_flips(
        nx in 2usize..4,
        rounds in prop::collection::vec(
            prop::collection::vec((0usize..8, 0usize..4), 0..4), 1..5),
        seed in any::<u64>(),
    ) {
        let l = 8;
        let c = 4;
        let builder = builder(nx, l);
        let n = nx * nx;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut field = HsField::random(l, n, &mut rng);
        let mut cache = ClusterCache::new();
        for flips in rounds {
            let mut dirty = vec![false; l];
            for (sl, site) in flips {
                field.flip(sl, site % n);
                dirty[sl] = true;
            }
            let pc = hubbard_pcyclic(&builder, &field, Spin::Up);
            let k = 3; // fixed residue mod c: the cacheable regime
            let got = equal_time_green_cached(
                Par::Seq, Par::Seq, pc.blocks(), &dirty, &mut cache, k, c)
                .expect("healthy");
            let want = equal_time_green_stable(&pc, k, c)
                .expect("healthy");
            prop_assert_eq!(got.as_slice(), want.as_slice());
        }
    }

    /// Sweeps over a pool reproduce the serial trajectory bit-for-bit
    /// under a fixed RNG seed: identical acceptance counts, field, and
    /// Green's functions of both spins.
    #[test]
    fn spin_parallel_sweep_is_deterministic(seed in any::<u64>()) {
        let l = 8;
        let builder = builder(2, l);
        let field = {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            HsField::random(l, 4, &mut rng)
        };
        let run = |par: Parallelism<'_>| {
            let mut s = Sweeper::new(&builder, field.clone(), SweepConfig::default()).expect("healthy");
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xD5);
            let stats = s.sweep(&mut rng, par).expect("healthy");
            (stats.accepted, s.field().to_flat(),
             s.green(Spin::Up), s.green(Spin::Down))
        };
        let (acc_s, field_s, gu_s, gd_s) = run(Parallelism::Serial);
        let pool = ThreadPool::new(3);
        let (acc_p, field_p, gu_p, gd_p) = run(Parallelism::OpenMp(&pool));
        prop_assert_eq!(acc_s, acc_p);
        prop_assert_eq!(field_s, field_p);
        prop_assert_eq!(gu_s.as_slice(), gu_p.as_slice());
        prop_assert_eq!(gd_s.as_slice(), gd_p.as_slice());
    }
}
