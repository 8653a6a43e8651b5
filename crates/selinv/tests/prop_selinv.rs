//! Property-based tests of the selected-inversion layer: BSOFI's factor
//! structure and the stability policy.

use fsi_pcyclic::BlockPCyclic;
use fsi_runtime::{Par, ThreadPool};
use fsi_selinv::{bsofi, bsofi_selected, max_stable_cluster, SelectedPattern, StructuredQr};
use proptest::prelude::*;

/// Every diagonal request at `b` block rows: all diagonals, and each single
/// diagonal block.
fn diagonal_requests(b: usize) -> Vec<SelectedPattern> {
    let mut patterns = vec![SelectedPattern::Diagonals];
    patterns.extend((0..b).map(SelectedPattern::DiagonalBlock));
    patterns
}

/// The largest relative error of a diagonal request's blocks against the
/// dense BSOFI inverse `dense` of `pc`, after checking that exactly the
/// requested blocks came back.
fn diagonal_request_error(
    pc: &BlockPCyclic,
    dense: &fsi_dense::Matrix,
    pattern: &SelectedPattern,
    sel: &fsi_selinv::SelectedInverse,
) -> f64 {
    let coords = pattern.coordinates(pc.l());
    assert_eq!(sel.len(), coords.len(), "{pattern:?} block count");
    coords
        .into_iter()
        .map(|(k, l)| {
            let got = sel.get(k, l).expect("requested block");
            fsi_dense::rel_error(got, &pc.dense_block(dense, k, l))
        })
        .fold(0.0, f64::max)
}

/// A graded Hubbard case: 4×4 sites, β = 24, U = 6, L = 192 slices
/// clustered by c = 8 into b = 24 reduced block rows, whose `R` pivots
/// spread over more than four orders of magnitude. Every diagonal request
/// agrees with the dense BSOFI inverse of the same reduced matrix to 1e-12.
#[test]
fn graded_hubbard_diagonal_requests_match_dense() {
    use fsi_pcyclic::{hubbard_pcyclic, BlockBuilder, HsField, HubbardParams, Spin, SquareLattice};
    use rand::SeedableRng;
    let (l, c) = (192, 8);
    let params = HubbardParams {
        t: 1.0,
        u: 6.0,
        beta: 24.0,
        l,
    };
    let builder = BlockBuilder::new(SquareLattice::square(4), params);
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(24);
    let field = HsField::random(l, 16, &mut rng);
    let pc = hubbard_pcyclic(&builder, &field, Spin::Up);
    let reduced = fsi_selinv::cls(Par::Seq, Par::Seq, &pc, c, 3).reduced;
    assert_eq!(reduced.l(), 24);
    let f = StructuredQr::factor(Par::Seq, &reduced);
    let pivots: Vec<f64> = (0..24)
        .flat_map(|j| (0..16).map(move |i| (j, i)))
        .map(|(j, i)| f.r_diag(j)[(i, i)].abs())
        .collect();
    let spread = pivots.iter().fold(0.0f64, |m, &x| m.max(x))
        / pivots.iter().fold(f64::INFINITY, |m, &x| m.min(x));
    assert!(spread > 1e4, "R pivots spread only {spread:e}");
    let dense = bsofi(Par::Seq, Par::Seq, &reduced);
    for pattern in diagonal_requests(reduced.l()) {
        let sel = bsofi_selected(Par::Seq, Par::Seq, &reduced, &pattern).expect("healthy");
        let err = diagonal_request_error(&reduced, &dense, &pattern, &sel);
        assert!(err <= 1e-12, "{pattern:?}: {err:e}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// BSOFI's structured QR really produces Qᵀ·M = R with the documented
    /// sparsity for arbitrary p-cyclic matrices.
    #[test]
    fn structured_qr_factors_arbitrary_pcyclic(n in 2usize..4, b in 2usize..6, seed in any::<u64>()) {
        let pc = fsi_pcyclic::random_pcyclic(n, b, seed);
        let f = StructuredQr::factor(Par::Seq, &pc);
        let mut m = pc.assemble_dense();
        f.apply_qt_left(Par::Seq, &mut m);
        let r = f.assemble_r();
        prop_assert!(fsi_dense::rel_error(&m, &r) < 1e-9);
        // Zero pattern: strictly-below-diagonal blocks vanish.
        for i in 1..b {
            for j in 0..i {
                let blk = pc.dense_block(&m, i, j);
                prop_assert!(blk.max_abs() < 1e-10, "({i},{j}) not eliminated");
            }
        }
    }

    /// Selected assembly equals the dense inverse restricted to the
    /// pattern, for every pattern shape and arbitrary p-cyclic matrices.
    #[test]
    fn bsofi_selected_matches_dense_restricted(
        n in 2usize..4,
        b in 1usize..6,
        seed in any::<u64>(),
    ) {
        let pc = fsi_pcyclic::random_pcyclic(n, b, seed);
        let dense = bsofi(Par::Seq, Par::Seq, &pc);
        let mut patterns = vec![SelectedPattern::Diagonals, SelectedPattern::Full];
        patterns.push(SelectedPattern::DiagonalBlock(seed as usize % b));
        for pattern in patterns {
            let sel = bsofi_selected(Par::Seq, Par::Seq, &pc, &pattern).expect("healthy");
            let coords = pattern.coordinates(b);
            prop_assert_eq!(sel.len(), coords.len());
            for (k, l) in coords {
                let got = sel.get(k, l).expect("requested block");
                let want = pc.dense_block(&dense, k, l);
                let err = fsi_dense::rel_error(got, &want);
                prop_assert!(err < 1e-13, "(n={n}, b={b}) {pattern:?} ({k},{l}): {err}");
            }
        }
    }

    /// Every diagonal request agrees with the dense BSOFI inverse for
    /// blocks from 1×1 up and b from 2 (merged last panel, no coupling `W`)
    /// and 3 (first `C` fill) to 10, and a pool in either argument changes
    /// no bit of the serial result.
    #[test]
    fn diagonal_requests_match_dense_and_pool_is_bitwise(
        n in 1usize..=6,
        b in 2usize..=10,
        seed in any::<u64>(),
    ) {
        let pool = ThreadPool::new(3);
        let pc = fsi_pcyclic::random_pcyclic(n, b, seed);
        let dense = bsofi(Par::Seq, Par::Seq, &pc);
        for pattern in diagonal_requests(b) {
            let serial = bsofi_selected(Par::Seq, Par::Seq, &pc, &pattern).expect("healthy");
            let err = diagonal_request_error(&pc, &dense, &pattern, &serial);
            prop_assert!(err < 1e-13, "(n={n}, b={b}) {pattern:?}: {err:e}");
            for (par_rows, par_gemm) in [(Par::Pool(&pool), Par::Seq), (Par::Seq, Par::Pool(&pool))] {
                let pooled = bsofi_selected(par_rows, par_gemm, &pc, &pattern).expect("healthy");
                for ((k, l), blk) in serial.iter() {
                    let got = pooled.get(*k, *l).expect("same coordinates");
                    prop_assert_eq!(blk.as_slice(), got.as_slice(), "{:?} ({},{})", pattern, k, l);
                }
            }
        }
    }

    /// Stage A on a pool — the parallelism is inside its GEMMs — is bitwise
    /// identical to the sequential factor, whichever entry point runs it.
    #[test]
    fn pooled_factor_bitwise_equals_serial(
        n in 2usize..12,
        b in 2usize..6,
        seed in any::<u64>(),
    ) {
        let pool = ThreadPool::new(3);
        let pc = fsi_pcyclic::random_pcyclic(n, b, seed);
        let serial = StructuredQr::factor(Par::Seq, &pc);
        let pooled = StructuredQr::factor_lookahead(Par::Seq, Par::Pool(&pool), &pc);
        prop_assert_eq!(serial.assemble_r().as_slice(), pooled.assemble_r().as_slice());
        let gs = serial.inverse(Par::Seq, Par::Seq);
        let gp = pooled.inverse(Par::Seq, Par::Seq);
        prop_assert_eq!(gs.as_slice(), gp.as_slice());
    }

    /// The stability cap is monotone: tighter tolerance or a worse growth
    /// rate can only shrink the admissible cluster size.
    #[test]
    fn stability_cap_is_monotone(l in 1usize..64, rate in 1.0f64..100.0, tol_exp in 1usize..12) {
        let tol = 10f64.powi(-(tol_exp as i32));
        let c = max_stable_cluster(l, rate, tol);
        prop_assert!(c >= 1 && c <= l);
        prop_assert!(l % c == 0);
        let c_tighter = max_stable_cluster(l, rate, tol / 100.0);
        prop_assert!(c_tighter <= c, "tighter tolerance grew the cap");
        let c_worse = max_stable_cluster(l, rate * 10.0, tol);
        prop_assert!(c_worse <= c, "worse rate grew the cap");
    }

    /// The measurement set always covers every τ row of an SPXX-style
    /// pairing: for each τ there is a pair (k, ℓ) with both (k,ℓ) and
    /// (ℓ,k) present.
    #[test]
    fn measurement_set_covers_all_temporal_distances(
        b in 1usize..4,
        c in 1usize..4,
        seed in any::<u64>(),
    ) {
        let l = b * c;
        let pc = fsi_pcyclic::random_pcyclic(2, l, seed);
        let q = seed as usize % c;
        let (merged, _) =
            fsi_selinv::fsi::fsi_measurement_set(fsi_selinv::Parallelism::Serial, &pc, c, q)
                .expect("healthy");
        for tau in 0..l {
            let covered = (0..l).any(|k| {
                let ell = (k + l - tau) % l;
                merged.contains(k, ell) && merged.contains(ell, k)
            });
            prop_assert!(covered, "τ={tau} uncovered for (l={l}, c={c}, q={q})");
        }
    }
}
