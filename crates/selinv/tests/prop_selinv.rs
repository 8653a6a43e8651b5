//! Property-based tests of the selected-inversion layer: BSOFI's factor
//! structure and the stability policy.

use fsi_runtime::{Par, ThreadPool};
use fsi_selinv::{bsofi, bsofi_selected, max_stable_cluster, SelectedPattern, StructuredQr};
use proptest::prelude::*;

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
