//! Property-based integration tests: FSI agrees with the dense reference
//! for arbitrary valid configurations, and the structural identities the
//! algorithm rests on hold for random p-cyclic matrices.

use fsi::dqmc::spxx;
use fsi::pcyclic::{
    hubbard_pcyclic, random_pcyclic, temporal_distance, BlockBuilder, HsField, HubbardParams, Spin,
    SquareLattice,
};
use fsi::runtime::Par;
use fsi::selinv::baselines::{full_inverse_selected, max_block_error};
use fsi::selinv::fsi::fsi_measurement_set;
use fsi::selinv::{bsofi, cls, fsi_with_q, Parallelism, Pattern, Selection};
use proptest::prelude::*;

/// Valid (n, l, c, q, pattern, seed) configurations: c divides l, q < c.
fn fsi_config() -> impl Strategy<Value = (usize, usize, usize, usize, Pattern, u64)> {
    (2usize..5, 1usize..5, any::<u64>(), 0usize..4)
        .prop_flat_map(|(n, b, seed, pat_idx)| {
            // l = b * c with c in 1..=4.
            (Just(n), 1usize..5, Just(b), Just(seed), Just(pat_idx))
        })
        .prop_flat_map(|(n, c, b, seed, pat_idx)| {
            let l = b * c;
            (Just(n), Just(l), Just(c), 0..c, Just(pat_idx), Just(seed))
        })
        .prop_map(|(n, l, c, q, pat_idx, seed)| (n, l, c, q, Pattern::ALL[pat_idx], seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline property: FSI equals the dense LU baseline on every
    /// selected block, for arbitrary valid configurations.
    #[test]
    fn fsi_matches_dense_reference((n, l, c, q, pattern, seed) in fsi_config()) {
        let pc = random_pcyclic(n, l, seed);
        let sel = Selection::new(pattern, c, q);
        let out = fsi_with_q(Parallelism::Serial, &pc, &sel).expect("healthy");
        let reference = full_inverse_selected(Par::Seq, &pc, &sel);
        let err = max_block_error(&out.selected, &reference);
        prop_assert!(err < 1e-8, "(n={n}, l={l}, c={c}, q={q}, {pattern:?}): {err}");
        // Exactly the right set of blocks was produced.
        prop_assert_eq!(out.selected.len(), sel.coordinates(l).len());
    }

    /// BSOFI inverts arbitrary random p-cyclic matrices.
    #[test]
    fn bsofi_inverts_random_pcyclic(n in 2usize..5, b in 1usize..7, seed in any::<u64>()) {
        let pc = random_pcyclic(n, b, seed);
        let g = bsofi(Par::Seq, Par::Seq, &pc);
        let m = pc.assemble_dense();
        let mut prod = fsi::dense::mul(&m, &g);
        prod.add_diag(-1.0);
        prop_assert!(prod.max_abs() < 1e-8, "|MG - I| = {}", prod.max_abs());
    }

    /// The seed identity Ḡ(k₀,ℓ₀) = G(ck₀+o, cℓ₀+o) holds for every
    /// clustering of every random matrix.
    #[test]
    fn clustering_preserves_seed_blocks(
        n in 2usize..4,
        b in 1usize..4,
        c in 1usize..4,
        seed in any::<u64>(),
    ) {
        let l = b * c;
        let q = seed as usize % c;
        let pc = random_pcyclic(n, l, seed);
        let clustered = cls(Par::Seq, Par::Seq, &pc, c, q);
        let g_red = clustered.reduced.reference_green(Par::Seq);
        let g_full = pc.reference_green(Par::Seq);
        for k0 in 0..b {
            for l0 in 0..b {
                let got = clustered.reduced.dense_block(&g_red, k0, l0);
                let want = pc.dense_block(
                    &g_full,
                    clustered.to_original(k0),
                    clustered.to_original(l0),
                );
                prop_assert!(
                    fsi::dense::rel_error(&got, &want) < 1e-7,
                    "seed ({k0},{l0})"
                );
            }
        }
    }

    /// All four adjacency relations hold at every block position of
    /// random matrices (exercises every torus boundary case).
    #[test]
    fn adjacency_relations_hold(n in 2usize..4, l in 2usize..7, seed in any::<u64>()) {
        let pc = random_pcyclic(n, l, seed);
        let g = pc.reference_green(Par::Seq);
        let worst = fsi::selinv::wrap::max_relation_error(&pc, &g);
        prop_assert!(worst < 1e-7, "worst relation error {worst}");
    }

    /// Selected inversions store exactly the predicted number of bytes.
    #[test]
    fn selection_memory_matches_formula(
        n in 2usize..5,
        b in 1usize..4,
        c in 1usize..4,
        pat_idx in 0usize..4,
    ) {
        let l = b * c;
        let pattern = Pattern::ALL[pat_idx];
        let pc = random_pcyclic(n, l, 7);
        let sel = Selection::new(pattern, c, 0);
        let out = fsi_with_q(Parallelism::Serial, &pc, &sel).expect("healthy");
        prop_assert_eq!(out.selected.bytes(), pattern.n_blocks(l, c) * n * n * 8);
    }
}

/// SPXX end to end at 8×8, L = 16 on the §V-C selection of a Hubbard
/// matrix, against the definition in `fsi::dqmc::meas`'s docs written out
/// element by element: entry `(τ, d)` sums, over the ordered block pairs
/// `(k, ℓ)` at `T(k,ℓ) = τ` with all four blocks present and the site
/// pairs of class `d`, `−G↑(ℓ,k)(j,i)·G↓(k,ℓ)(i,j) + (↑↔↓)` (at `τ = 0`
/// with `δᵢⱼ − G` in place of `−G`), divided by `2·C(τ)·|class d|`.
#[test]
fn spxx_agrees_with_its_definition() {
    use rand::SeedableRng;
    let (l, c, q) = (16, 4, 1);
    let lattice = SquareLattice::square(8);
    let n = lattice.n_sites();
    let builder = BlockBuilder::new(lattice.clone(), HubbardParams::paper_validation(l));
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(16);
    let field = HsField::random(l, n, &mut rng);
    let [up, dn] = Spin::BOTH.map(|spin| {
        let pc = hubbard_pcyclic(&builder, &field, spin);
        fsi_measurement_set(Parallelism::Serial, &pc, c, q)
            .expect("healthy")
            .0
    });

    let dmax = lattice.n_dist_classes();
    let mut want = vec![vec![0.0f64; dmax]; l];
    let mut pairs = vec![0usize; l];
    for k in 0..l {
        for ell in 0..l {
            let blocks = [
                up.get(k, ell),
                up.get(ell, k),
                dn.get(k, ell),
                dn.get(ell, k),
            ];
            let [Some(up_kl), Some(up_lk), Some(dn_kl), Some(dn_lk)] = blocks else {
                continue;
            };
            let tau = temporal_distance(k, ell, l);
            pairs[tau] += 1;
            for i in 0..n {
                for j in 0..n {
                    let delta = if tau == 0 && i == j { 1.0 } else { 0.0 };
                    want[tau][lattice.dist_class(i, j)] += (delta - up_lk[(j, i)]) * dn_kl[(i, j)]
                        + (delta - dn_lk[(j, i)]) * up_kl[(i, j)];
                }
            }
        }
    }
    let class_sizes = lattice.dist_class_counts();
    for (row, &c) in want.iter_mut().zip(&pairs) {
        for (x, &size) in row.iter_mut().zip(&class_sizes) {
            *x /= 2.0 * c as f64 * size as f64;
        }
    }
    let scale = want.iter().flatten().fold(0.0f64, |m, x| m.max(x.abs()));

    let pool = fsi::runtime::ThreadPool::new(2);
    for par in [Par::Seq, Par::Pool(&pool)] {
        let table = spxx(par, &lattice, l, &up, &dn);
        for tau in 0..l {
            // b rows + b columns reach every τ, at least b times.
            assert!(pairs[tau] >= l / c, "τ={tau}: {} pairs", pairs[tau]);
            assert_eq!(table.count(tau), pairs[tau], "C({tau})");
            for d in 0..dmax {
                let (got, want) = (table.at(tau, d), want[tau][d]);
                assert!(
                    (got - want).abs() <= 1e-13 * scale,
                    "({tau}, {d}): {got} vs {want}"
                );
            }
        }
    }
}
