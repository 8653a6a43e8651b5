//! Property-based integration tests: FSI agrees with the dense reference
//! for arbitrary valid configurations, and the structural identities the
//! algorithm rests on hold for random p-cyclic matrices.

use fsi::dqmc::{equal_time_green_stable, spxx, SweepConfig, Sweeper};
use fsi::pcyclic::{
    hubbard_pcyclic, random_pcyclic, temporal_distance, BlockBuilder, HsField, HubbardParams, Spin,
    SquareLattice,
};
use fsi::runtime::Par;
use fsi::selinv::baselines::{full_inverse_selected, max_block_error};
use fsi::selinv::fsi::fsi_measurement_set;
use fsi::selinv::{bsofi, cls, fsi_with_q, Parallelism, Pattern, SelectedInverse, Selection};
use proptest::prelude::*;
use rand::SeedableRng;

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

/// The particle–hole map of the half-filled Hubbard model: on a bipartite
/// lattice with sublattice signs `Π = diag((−1)^{x+y})`, `Π·K·Π = −K`, so a
/// symmetric kinetic propagator with `Π·e^{tΔτK}·Π = e^{−tΔτK}` gives
/// `B↓ = Π·B↑⁻ᵀ·Π` slice by slice, and with it
///
/// ```text
/// G↓(k, ℓ) = Π·(δ_kℓ·I − G↑(ℓ, k))ᵀ·Π.
/// ```
///
/// Returns the largest relative Frobenius error (the §V-A validation
/// metric) of `G↓(k, ℓ)` against `Π·(δ_kℓ·I − G↑(ℓ, k))ᵀ·Π` over every
/// block `(k, ℓ)` of `dn`. Panics if `up` lacks a partner `(ℓ, k)`.
fn particle_hole_error(lattice: &SquareLattice, up: &SelectedInverse, dn: &SelectedInverse) -> f64 {
    let n = lattice.n_sites();
    let sign: Vec<f64> = (0..n)
        .map(|i| {
            let (x, y) = lattice.coords(i);
            if (x + y) % 2 == 0 {
                1.0
            } else {
                -1.0
            }
        })
        .collect();
    let mut worst = 0.0f64;
    for (&(k, ell), g_dn) in dn.iter() {
        let g_up = up.get(ell, k).expect("spin-up partner block (ℓ, k)");
        let mut want = fsi::dense::Matrix::zeros(n, n);
        for j in 0..n {
            for i in 0..n {
                let delta = if k == ell && i == j { 1.0 } else { 0.0 };
                want[(i, j)] = sign[i] * (delta - g_up[(j, i)]) * sign[j];
            }
        }
        worst = worst.max(fsi::dense::rel_error(g_dn, &want));
    }
    worst
}

/// Both spins' Hubbard matrices, `[↑, ↓]`, for one random field.
fn hubbard_spins(builder: &BlockBuilder, seed: u64) -> [fsi::pcyclic::BlockPCyclic; 2] {
    let params = builder.params();
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let field = HsField::random(params.l, builder.lattice().n_sites(), &mut rng);
    Spin::BOTH.map(|spin| hubbard_pcyclic(builder, &field, spin))
}

/// Every block of the dense reference inverse of `pc`.
fn dense_blocks(pc: &fsi::pcyclic::BlockPCyclic) -> SelectedInverse {
    let g = pc.reference_green();
    let mut out = SelectedInverse::new();
    for k in 0..pc.l() {
        for ell in 0..pc.l() {
            out.insert(k, ell, pc.dense_block(&g, k, ell));
        }
    }
    out
}

/// The spin-up selection that holds the partner `(ℓ, k)` of every block
/// `(k, ℓ)` a spin-down `pattern` selects at the same `(c, q)`: S2's
/// `(k, k+1)`, `k ∈ I`, pairs with column `k` of S3.
fn particle_hole_partner(pattern: Pattern) -> Pattern {
    match pattern {
        Pattern::Diagonal => Pattern::Diagonal,
        Pattern::SubDiagonal | Pattern::Rows => Pattern::Columns,
        Pattern::Columns => Pattern::Rows,
    }
}

/// Runs FSI on both spins for every pattern (spin down against the spin-up
/// partner selection) and for the §V-C measurement set, and returns the
/// largest particle–hole error.
fn fsi_particle_hole_error(builder: &BlockBuilder, seed: u64, c: usize, q: usize) -> f64 {
    let [up, dn] = hubbard_spins(builder, seed);
    let run = |pc, pattern| {
        fsi_with_q(Parallelism::Serial, pc, &Selection::new(pattern, c, q))
            .expect("healthy")
            .selected
    };
    let lattice = builder.lattice();
    let mut worst = 0.0f64;
    for pattern in Pattern::ALL {
        let sel_dn = run(&dn, pattern);
        let sel_up = run(&up, particle_hole_partner(pattern));
        worst = worst.max(particle_hole_error(lattice, &sel_up, &sel_dn));
    }
    let [set_up, set_dn] = [&up, &dn].map(|pc| {
        fsi_measurement_set(Parallelism::Serial, pc, c, q)
            .expect("healthy")
            .0
    });
    worst.max(particle_hole_error(lattice, &set_up, &set_dn))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The particle–hole identity relates FSI's two spins — different
    /// matrices through the same diagonal, wrap and dense paths — on every
    /// pattern and on the measurement set, without a second implementation.
    #[test]
    fn fsi_spins_obey_particle_hole_symmetry(
        seed in any::<u64>(),
        (c, q) in (1usize..=4).prop_flat_map(|c| (Just(c), 0..c)),
    ) {
        let params = HubbardParams { t: 1.0, u: 4.0, beta: 2.0, l: 12 };
        let builder = BlockBuilder::new(SquareLattice::square(4), params);
        let err = fsi_particle_hole_error(&builder, seed, c, q);
        prop_assert!(err < 1e-12, "(c={c}, q={q}): {err:e}");
    }

    /// The headline property: FSI equals the dense LU baseline on every
    /// selected block, for arbitrary valid configurations.
    #[test]
    fn fsi_matches_dense_reference((n, l, c, q, pattern, seed) in fsi_config()) {
        let pc = random_pcyclic(n, l, seed);
        let sel = Selection::new(pattern, c, q);
        let out = fsi_with_q(Parallelism::Serial, &pc, &sel).expect("healthy");
        let reference = full_inverse_selected(&pc, &sel);
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
        let g_red = clustered.reduced.reference_green();
        let g_full = pc.reference_green();
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
        let g = pc.reference_green();
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

/// The particle–hole identity, signs and transposes pinned at N = 4 against
/// the dense reference inverse on every block, holds on even extents and
/// fails on odd ones, exactly where `BlockBuilder::particle_hole_symmetric`
/// says.
#[test]
fn particle_hole_identity_pinned_against_the_dense_oracle() {
    let params = HubbardParams {
        t: 1.0,
        u: 4.0,
        beta: 2.0,
        l: 8,
    };
    let cases = [
        (SquareLattice::square(2), true),
        (SquareLattice::new(4, 2), true),
        (SquareLattice::square(3), false),
        (SquareLattice::new(3, 4), false),
    ];
    for (lattice, holds) in cases {
        let (nx, ny) = (lattice.nx(), lattice.ny());
        let builder = BlockBuilder::new(lattice.clone(), params.clone());
        assert_eq!(builder.particle_hole_symmetric(), holds, "{nx}×{ny}");
        let [up, dn] = hubbard_spins(&builder, 4);
        let err = particle_hole_error(&lattice, &dense_blocks(&up), &dense_blocks(&dn));
        let label = format!("{nx}×{ny}: {err:e}");
        if holds {
            assert!(err < 1e-12, "identity broken on {label}");
        } else {
            assert!(err > 1e-2, "identity should fail on {label}");
        }
    }
}

/// The particle–hole identity on FSI's output at β = 8 (L = 64, c = 8): the
/// four patterns and the measurement set, 4×4 sites, U = 4, within the
/// paper's §V-A bound. The measurement set's wrapped diagonals set the
/// worst case (≈ 1.4e-11, their own error against the dense oracle).
#[test]
fn fsi_particle_hole_symmetry_at_beta_8() {
    let params = HubbardParams {
        t: 1.0,
        u: 4.0,
        beta: 8.0,
        l: 64,
    };
    let builder = BlockBuilder::new(SquareLattice::square(4), params);
    let err = fsi_particle_hole_error(&builder, 8, 8, 5);
    assert!(err < 1e-10, "{err:e}");
}

/// The sweep's derived spin. On a particle–hole symmetric lattice the
/// sweeper keeps `Ĝ↑` alone and returns `Ĝ↓ = Π(I − Ĝ↑)ᵀΠ`. At β = 8
/// (4×4, U = 4, L = 64, c = 8), after each of three sweeps the sign is +1
/// and `green(Spin::Down)` at three refresh slices matches `G↓(k, k)`
/// computed independently from the spin-down matrix: the largest entry
/// difference reads 5.6e-13. The 3×3 lattice keeps
/// both spins and passes the same check; it reads 0, since its spin-down
/// channel runs the same cached CLS + BSOFI route.
#[test]
fn sweeper_derived_spin_down_matches_the_stable_green() {
    let params = HubbardParams {
        t: 1.0,
        u: 4.0,
        beta: 8.0,
        l: 64,
    };
    let cfg = SweepConfig {
        c: 8,
        stabilize_every: 8,
        delay: 1,
    };
    for lattice in [SquareLattice::square(4), SquareLattice::square(3)] {
        let label = format!("{}×{}", lattice.nx(), lattice.ny());
        let n = lattice.n_sites();
        let builder = BlockBuilder::new(lattice, params.clone());
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(38);
        let field = HsField::random(params.l, n, &mut rng);
        let mut s = Sweeper::new(&builder, field, cfg).expect("healthy");
        for sweep in 0..3 {
            s.sweep(&mut rng, Parallelism::Serial).expect("healthy");
            if builder.particle_hole_symmetric() {
                assert_eq!(s.sign(), 1.0, "{label}, sweep {sweep}");
            }
            for slice in [0, 21, 47] {
                s.refresh(slice, Parallelism::Serial).expect("healthy");
                let k = (slice + params.l - 1) % params.l;
                let pc = hubbard_pcyclic(&builder, s.field(), Spin::Down);
                let want = equal_time_green_stable(&pc, k, cfg.c).expect("healthy");
                let mut diff = s.green(Spin::Down);
                diff.sub_assign(&want);
                let err = diff.max_abs();
                assert!(
                    err < 1e-10,
                    "{label}, sweep {sweep}, slice {slice}: {err:e}"
                );
            }
        }
    }
}
