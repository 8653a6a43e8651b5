//! Stability analysis of the clustering size (paper §II-C, referencing
//! the numerical analysis of Bai–Chen–Scalettar–Yamazaki).
//!
//! "A larger c leads to a greater reduction. However, the size of c is
//! limited by numerical stability. A large c results in the loss of
//! precision due to round-off errors. Usually c ≈ √L."
//!
//! The mechanism: a cluster chain multiplies `c` blocks whose singular
//! values compound, so the chain's condition number grows like
//! `κ(B)^c` (worst case). Once `κ_chain · ε_machine` approaches the
//! accuracy target, longer chains destroy the selected inversion. This
//! module quantifies that:
//!
//! * [`growth_rate`] — estimated per-block condition contribution
//!   `max_k κ₁(B_k)`, via the O(N²) Hager estimator on each block;
//! * [`max_stable_cluster`] — the largest `c` dividing `L` with
//!   `rate^c · ε ≤ tol`;
//! * [`auto_cluster_size`] — the paper's policy: the stability-capped
//!   `c` closest to `√L` (the flop sweet spot).
//!
//! The `ablation_cluster_size` harness shows the predicted loss matching
//! the measured error growth.

use fsi_dense::{cond1_estimate, getrf};
use fsi_pcyclic::BlockPCyclic;

/// Estimated per-block growth rate of a cluster chain: the largest
/// one-norm condition estimate over the matrix's blocks.
///
/// A singular block (infinite condition number) yields an infinite rate:
/// [`max_stable_cluster`] then caps at `c = 1`, so [`auto_cluster_size`]
/// degrades to no clustering instead of aborting. Hubbard blocks are
/// never singular, but a recovery path re-estimating `c` on suspect data
/// must not panic on the one matrix it is trying to defend against.
fn growth_rate(pc: &BlockPCyclic) -> f64 {
    let mut worst = 1.0f64;
    for k in 0..pc.l() {
        let b = pc.block(k);
        match getrf(b.clone()) {
            Ok(f) => worst = worst.max(cond1_estimate(b, &f)),
            Err(_) => return f64::INFINITY,
        }
    }
    worst
}

/// The largest cluster size `c` (dividing `L`) whose worst-case chain
/// conditioning keeps `rate^c · ε_machine` below `tol`.
///
/// Always returns at least 1 (clustering can be disabled entirely).
pub fn max_stable_cluster(l: usize, rate: f64, tol: f64) -> usize {
    let eps = f64::EPSILON;
    let mut best = 1;
    for c in 1..=l {
        if !l.is_multiple_of(c) {
            continue;
        }
        // log-space to avoid overflow for large rates/chains.
        let loss = c as f64 * rate.max(1.0).ln() + eps.ln();
        if loss <= tol.ln() {
            best = c;
        }
    }
    best
}

/// The paper's cluster-size policy: `c ≈ √L`, capped by the stability
/// limit of [`max_stable_cluster`] for the given matrix and target
/// accuracy.
pub fn auto_cluster_size(pc: &BlockPCyclic, tol: f64) -> usize {
    let l = pc.l();
    let cap = max_stable_cluster(l, growth_rate(pc), tol);
    // Divisors of L that respect the cap, pick the one closest to √L.
    let sqrt_l = (l as f64).sqrt();
    let mut best = 1usize;
    let mut best_dist = f64::INFINITY;
    for c in 1..=cap {
        if !l.is_multiple_of(c) {
            continue;
        }
        let dist = (c as f64 - sqrt_l).abs();
        if dist < best_dist {
            best_dist = dist;
            best = c;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsi_pcyclic::{hubbard_pcyclic, BlockBuilder, HsField, HubbardParams, Spin, SquareLattice};
    use rand::SeedableRng;

    fn hubbard(beta: f64, l: usize) -> BlockPCyclic {
        let lattice = SquareLattice::square(2);
        let builder = BlockBuilder::new(
            lattice,
            HubbardParams {
                t: 1.0,
                u: 4.0,
                beta,
                l,
            },
        );
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let field = HsField::random(l, 4, &mut rng);
        hubbard_pcyclic(&builder, &field, Spin::Up)
    }

    #[test]
    fn singular_block_degrades_to_no_clustering() {
        use fsi_dense::Matrix;
        // One exactly singular block: infinite rate, never a panic.
        let blocks = vec![
            Matrix::identity(3),
            Matrix::zeros(3, 3),
            Matrix::identity(3),
            Matrix::identity(3),
        ];
        let pc = BlockPCyclic::new(blocks);
        let rate = growth_rate(&pc);
        assert!(rate.is_infinite());
        assert_eq!(max_stable_cluster(4, rate, 1e-8), 1);
        assert_eq!(auto_cluster_size(&pc, 1e-8), 1);
    }

    #[test]
    fn growth_rate_increases_with_coupling() {
        // Larger Δτ (fixed L, larger β) → worse-conditioned blocks.
        let mild = growth_rate(&hubbard(1.0, 16));
        let harsh = growth_rate(&hubbard(16.0, 16));
        assert!(mild >= 1.0);
        assert!(harsh > mild * 2.0, "mild {mild} vs harsh {harsh}");
    }

    #[test]
    fn stable_cluster_cap_shrinks_with_rate() {
        let l = 48;
        let c_benign = max_stable_cluster(l, 1.5, 1e-8);
        let c_harsh = max_stable_cluster(l, 40.0, 1e-8);
        assert!(c_benign > c_harsh, "benign {c_benign} vs harsh {c_harsh}");
        assert!(c_harsh >= 1);
        // rate = 1 (orthogonal blocks): everything is stable.
        assert_eq!(max_stable_cluster(l, 1.0, 1e-8), l);
    }

    #[test]
    fn auto_size_tracks_sqrt_l_when_stable() {
        // Well-conditioned high-temperature matrix: pick ≈ √L.
        let pc = hubbard(0.5, 36);
        let c = auto_cluster_size(&pc, 1e-8);
        assert!((4..=9).contains(&c), "c = {c} should be near √36 = 6");
        assert_eq!(36 % c, 0);
    }

    #[test]
    fn auto_size_backs_off_at_low_temperature() {
        let hot = auto_cluster_size(&hubbard(0.5, 48), 1e-8);
        let cold = auto_cluster_size(&hubbard(24.0, 48), 1e-8);
        assert!(cold <= hot, "cold {cold} should not exceed hot {hot}");
        assert!(cold >= 1);
    }

    #[test]
    fn auto_size_keeps_fsi_accurate() {
        // End-to-end: the auto-chosen c passes the validation threshold.
        use crate::baselines::{full_inverse_selected, max_block_error};
        use crate::{fsi_with_q, Parallelism, Pattern, Selection};
        let pc = hubbard(8.0, 16);
        let c = auto_cluster_size(&pc, 1e-9);
        let sel = Selection::new(Pattern::Columns, c, c / 2);
        let out = fsi_with_q(Parallelism::Serial, &pc, &sel).expect("healthy");
        let reference = full_inverse_selected(&pc, &sel);
        let err = max_block_error(&out.selected, &reference);
        assert!(err < 1e-7, "auto c = {c} gave error {err}");
    }
}
