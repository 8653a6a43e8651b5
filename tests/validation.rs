//! Integration test: the paper's §V-A correctness validation, across all
//! selection patterns, both spins, and several (c, q) choices — FSI vs
//! the dense LU reference on genuine Hubbard matrices.

use fsi::pcyclic::{hubbard_pcyclic, BlockBuilder, HsField, HubbardParams, Spin, SquareLattice};
use fsi::selinv::baselines::{full_inverse_selected, max_block_error, mean_block_error};
use fsi::selinv::{fsi_with_q, Parallelism, Pattern, Selection};
use rand::SeedableRng;

fn validation_matrix(l: usize, spin: Spin, seed: u64) -> fsi::pcyclic::BlockPCyclic {
    // (t, β, U) = (1, 1, 2) as in the paper's validation.
    let lattice = SquareLattice::square(3);
    let builder = BlockBuilder::new(lattice, HubbardParams::paper_validation(l));
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let field = HsField::random(l, 9, &mut rng);
    hubbard_pcyclic(&builder, &field, spin)
}

#[test]
fn paper_validation_shape_mean_error_below_1e10() {
    // The exact §V-A criterion (mean relative block error < 1e-10) on a
    // scaled-down matrix of the same family.
    let pc = validation_matrix(16, Spin::Up, 1);
    let sel = Selection::new(Pattern::Columns, 4, 2);
    let out = fsi_with_q(Parallelism::Serial, &pc, &sel).expect("healthy");
    let reference = full_inverse_selected(&pc, &sel);
    let mean = mean_block_error(&out.selected, &reference);
    assert!(mean < 1e-10, "mean relative error {mean} >= 1e-10");
}

#[test]
fn all_patterns_validate_for_both_spins() {
    for spin in Spin::BOTH {
        let pc = validation_matrix(12, spin, 2);
        for pattern in Pattern::ALL {
            let sel = Selection::new(pattern, 4, 1);
            let out = fsi_with_q(Parallelism::Serial, &pc, &sel).expect("healthy");
            let reference = full_inverse_selected(&pc, &sel);
            let err = max_block_error(&out.selected, &reference);
            assert!(err < 1e-10, "{spin:?} {pattern:?}: {err}");
        }
    }
}

#[test]
fn every_shift_q_validates() {
    let pc = validation_matrix(12, Spin::Down, 3);
    for q in 0..4 {
        let sel = Selection::new(Pattern::Columns, 4, q);
        let out = fsi_with_q(Parallelism::Serial, &pc, &sel).expect("healthy");
        let reference = full_inverse_selected(&pc, &sel);
        let err = max_block_error(&out.selected, &reference);
        assert!(err < 1e-10, "q={q}: {err}");
    }
}

#[test]
fn extreme_cluster_sizes_validate() {
    let pc = validation_matrix(12, Spin::Up, 4);
    // c = 1 (no reduction) and c = L (single cluster) are the boundary
    // cases of the algorithm.
    for c in [1usize, 2, 3, 6, 12] {
        let sel = Selection::new(Pattern::Columns, c, c - 1);
        let out = fsi_with_q(Parallelism::Serial, &pc, &sel).expect("healthy");
        let reference = full_inverse_selected(&pc, &sel);
        let err = max_block_error(&out.selected, &reference);
        assert!(err < 1e-9, "c={c}: {err}");
    }
}

#[test]
fn condition_number_of_validation_family_is_moderate() {
    // The paper quotes κ(M) ≈ 1e5 for its 6400-dim validation matrix;
    // our scaled matrix should be comfortably conditioned, which is what
    // makes the 1e-10 threshold meaningful.
    let pc = validation_matrix(8, Spin::Up, 5);
    let kappa = fsi::dense::cond1(&pc.assemble_dense()).expect("nonsingular");
    assert!(kappa > 1.0 && kappa < 1e7, "κ = {kappa}");
}
