//! Property-based tests of the p-cyclic/Hubbard layer: Green's-function
//! identities and Hubbard block structure on arbitrary inputs.

use fsi_pcyclic::{
    cyclic_product_full, equal_time_green_explicit, green_block_explicit, hubbard_pcyclic,
    random_pcyclic, w_matrix, BlockBuilder, HsField, HubbardParams, Spin, SquareLattice,
};
use proptest::prelude::*;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// G(k,ℓ) from the explicit expression equals the dense inverse block.
    #[test]
    fn explicit_blocks_equal_dense_inverse(
        n in 2usize..4,
        l in 1usize..6,
        seed in any::<u64>(),
    ) {
        let pc = random_pcyclic(n, l, seed);
        let g_ref = pc.reference_green();
        let k = (seed as usize) % l;
        let j = (seed as usize / 7) % l;
        let blk = green_block_explicit(&pc, k, j);
        let want = pc.dense_block(&g_ref, k, j);
        prop_assert!(fsi_dense::rel_error(&blk, &want) < 1e-8);
    }

    /// The cyclic products P(k) are similar for all k: equal traces.
    #[test]
    fn cyclic_products_share_invariants(n in 2usize..4, l in 2usize..6, seed in any::<u64>()) {
        let pc = random_pcyclic(n, l, seed);
        let trace = |m: &fsi_dense::Matrix| (0..n).map(|i| m[(i, i)]).sum::<f64>();
        let t0 = trace(&cyclic_product_full(&pc, 0));
        for k in 1..l {
            let tk = trace(&cyclic_product_full(&pc, k));
            prop_assert!((t0 - tk).abs() < 1e-8 * t0.abs().max(1.0));
        }
    }

    /// det W(k) is k-independent (Sylvester): the Metropolis ratio is
    /// frame-independent.
    #[test]
    fn det_w_is_frame_independent(n in 2usize..4, l in 2usize..5, seed in any::<u64>()) {
        let pc = random_pcyclic(n, l, seed);
        let d0 = fsi_dense::getrf(w_matrix(&pc, 0)).unwrap().det();
        for k in 1..l {
            let dk = fsi_dense::getrf(w_matrix(&pc, k)).unwrap().det();
            prop_assert!((d0 - dk).abs() < 1e-8 * d0.abs().max(1.0), "k={k}: {d0} vs {dk}");
        }
    }

    /// Hubbard B blocks always invert exactly via the analytic form.
    #[test]
    fn hubbard_blocks_have_analytic_inverses(
        l in 2usize..6,
        u in 0.0f64..8.0,
        beta in 0.25f64..4.0,
        seed in any::<u64>(),
    ) {
        let lattice = SquareLattice::square(2);
        let params = HubbardParams { t: 1.0, u, beta, l };
        let builder = BlockBuilder::new(lattice, params);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let field = HsField::random(l, 4, &mut rng);
        for spin in Spin::BOTH {
            let b = builder.block(&field, 0, spin);
            let binv = builder.block_inverse(&field, 0, spin);
            let mut p = fsi_dense::mul(&b, &binv);
            p.add_diag(-1.0);
            prop_assert!(p.max_abs() < 1e-10, "{spin:?}: {}", p.max_abs());
        }
    }

    /// Equal-time Green's functions have eigen-range consistent with
    /// fermion occupation: diagonal entries of G lie in a physical band.
    #[test]
    fn equal_time_green_is_physically_bounded(l in 2usize..6, seed in any::<u64>()) {
        let lattice = SquareLattice::square(2);
        let builder = BlockBuilder::new(lattice, HubbardParams::paper_validation(l));
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let field = HsField::random(l, 4, &mut rng);
        let pc = hubbard_pcyclic(&builder, &field, Spin::Up);
        let g = equal_time_green_explicit(&pc, 0);
        // G = (I + P)⁻¹ with P positive-ish for these parameters: the
        // diagonal stays within a loose physical window.
        for i in 0..4 {
            prop_assert!(g[(i, i)] > -0.5 && g[(i, i)] < 1.5, "G[{i},{i}] = {}", g[(i, i)]);
        }
    }

    /// Torus index helpers are mutually inverse.
    #[test]
    fn torus_navigation_roundtrips(l in 1usize..9, k in 0usize..9) {
        let pc = random_pcyclic(2, l, 3);
        let k = k % l;
        prop_assert_eq!(pc.up(pc.down(k)), k);
        prop_assert_eq!(pc.down(pc.up(k)), k);
    }
}
