//! # fsi-pcyclic — block p-cyclic matrices and Hubbard-model generation
//!
//! Bridges the physics and the linear algebra of the FSI paper:
//!
//! * [`SquareLattice`] — periodic rectangular lattices (QUEST's default
//!   geometry): adjacency matrix `K`, spatial displacement classes
//!   `D(i, j)`, and the temporal distance map [`temporal_distance`];
//! * [`HubbardParams`], [`HsField`] and [`BlockBuilder`] — Hubbard
//!   parameters, the HS coupling `ν = cosh⁻¹ e^{ΔτU/2}`,
//!   Hubbard–Stratonovich field configurations, and the builder assembling
//!   `B_ℓ^σ = e^{tΔτK}·e^{σνV_ℓ(h)}` (with exact analytic inverses);
//! * [`BlockPCyclic`] — the normal-form matrix `M` of Eq. (1), its dense
//!   assembly, and the LU reference inverse;
//! * [`green_block_explicit`] and its helpers — the explicit
//!   Green's-function expression of Eq. (3) (the baseline FSI is compared
//!   against, and the test oracle for all structured algorithms);
//! * [`BlockCache`] — dirty-slice-tracking reuse of dense `B_ℓ` blocks
//!   across DQMC stabilizations.
//!
//! The modules are private: the re-exports below are the crate's one
//! public path to each name.

#![warn(missing_docs)]
#![warn(unreachable_pub)]
// index loops mirror the lattice/slice indexing of the paper.
#![allow(clippy::needless_range_loop)]

mod block_cache;
mod green;
mod hubbard;
mod lattice;
mod pcyclic;

pub use block_cache::BlockCache;
pub use green::{
    cyclic_product_full, equal_time_green_explicit, green_block_explicit, w_matrix, z_matrix,
};
pub use hubbard::{BlockBuilder, HsField, HubbardParams, Spin};
pub use lattice::{temporal_distance, SquareLattice};
pub use pcyclic::{random_pcyclic, BlockPCyclic};

/// Builds the spin-σ Hubbard matrix `M^σ(h)` for a field configuration —
/// the top-level constructor used throughout the examples and benches.
pub fn hubbard_pcyclic(builder: &BlockBuilder, field: &HsField, spin: Spin) -> BlockPCyclic {
    BlockPCyclic::new(builder.all_blocks(field, spin))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// End-to-end: a small Hubbard matrix has a well-conditioned dense form
    /// whose inverse the explicit expression reproduces.
    #[test]
    fn hubbard_matrix_green_function_consistency() {
        let lat = SquareLattice::square(2);
        let params = HubbardParams::paper_validation(6);
        let builder = BlockBuilder::new(lat, params);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
        let field = HsField::random(6, 4, &mut rng);
        for spin in Spin::BOTH {
            let pc = hubbard_pcyclic(&builder, &field, spin);
            assert_eq!(pc.l(), 6);
            assert_eq!(pc.n(), 4);
            let g_ref = pc.reference_green();
            for k in [0usize, 3, 5] {
                let blk = green::green_block_explicit(&pc, k, 2);
                let want = pc.dense_block(&g_ref, k, 2);
                assert!(
                    fsi_dense::rel_error(&blk, &want) < 1e-9,
                    "({spin:?}, k={k})"
                );
            }
        }
    }
}
