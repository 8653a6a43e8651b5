//! The explicit Green's-function expression (paper Eq. (3)) and cyclic
//! block products.
//!
//! With 0-based block indices (`b[k]` = paper `B_{k+1}`) the paper's
//! case-split formula collapses to a single cyclic form:
//!
//! ```text
//! G(k, ℓ) = W(k)⁻¹ · Z(k, ℓ)
//! W(k)    = I + P(k),   P(k) = b[k]·b[k−1]⋯  (all L factors, descending
//!                                              cyclically from k)
//! Z(k, ℓ) = I                                          if k = ℓ
//!         = ±  b[k]·b[k−1] ⋯ b[ℓ+1]  (cyclic descent)  otherwise,
//!           with sign −1 exactly when k < ℓ
//! ```
//!
//! This module is both the *reference implementation* the structured
//! algorithms are tested against (without paying the O((NL)³) dense
//! inversion) and the "explicit form" baseline of the paper's complexity
//! table (§II-C): computing b block columns this way costs `bL²N³` flops,
//! the factor-of-L overhead FSI eliminates.

use fsi_dense::{chain_mul, getrf, Matrix};
use fsi_runtime::Par;

use crate::pcyclic::BlockPCyclic;

/// Product of `count` blocks descending cyclically from index `from`:
/// `b[from]·b[from−1]⋯` (`count = 0` gives the identity).
fn cyclic_product_desc(pc: &BlockPCyclic, from: usize, count: usize) -> Matrix {
    assert!(count <= pc.l(), "at most L factors in a cyclic product");
    if count == 0 {
        return Matrix::identity(pc.n());
    }
    let mut idx = from % pc.l();
    let mut factors = Vec::with_capacity(count);
    for _ in 0..count {
        factors.push(pc.block(idx));
        idx = pc.up(idx);
    }
    // chain_mul's ping-pong buffers bound the allocation count at two, no
    // matter how long the descent is (this runs L times per W matrix).
    // Sequential small-N descents (the reference-Green workload at the
    // paper's N ≤ 64 shapes) additionally ride chain_mul's no-pack direct
    // kernel fast path — no per-product workspace borrows or fill passes.
    chain_mul(Par::Seq, &factors)
}

/// The full cyclic product `P(k) = b[k]·b[k−1]⋯b[k−L+1]` (all `L` factors).
pub fn cyclic_product_full(pc: &BlockPCyclic, k: usize) -> Matrix {
    cyclic_product_desc(pc, k, pc.l())
}

/// `W(k) = I + P(k)` — the matrix whose inverse is the equal-time Green's
/// function block `G(k, k)`.
pub fn w_matrix(pc: &BlockPCyclic, k: usize) -> Matrix {
    let mut w = cyclic_product_full(pc, k);
    w.add_diag(1.0);
    w
}

/// `Z(k, ℓ)` of Eq. (3) in the uniform cyclic form.
pub fn z_matrix(pc: &BlockPCyclic, k: usize, l: usize) -> Matrix {
    let ll = pc.l();
    assert!(k < ll && l < ll, "block indices out of range");
    if k == l {
        return Matrix::identity(pc.n());
    }
    let count = (k + ll - l - 1) % ll + 1;
    let mut z = cyclic_product_desc(pc, k, count);
    if k < l {
        z.scale(-1.0);
    }
    z
}

/// One Green's-function block `G(k, ℓ) = W(k)⁻¹·Z(k, ℓ)` by the explicit
/// expression — O(L·N³) per block.
pub fn green_block_explicit(pc: &BlockPCyclic, k: usize, l: usize) -> Matrix {
    let w = w_matrix(pc, k);
    let z = z_matrix(pc, k, l);
    getrf(w)
        .expect("W(k) nonsingular for valid Hubbard matrices")
        .solve(&z)
}

/// The equal-time Green's function `G(k, k) = W(k)⁻¹` by the explicit
/// expression.
pub fn equal_time_green_explicit(pc: &BlockPCyclic, k: usize) -> Matrix {
    let w = w_matrix(pc, k);
    getrf(w)
        .expect("W(k) nonsingular for valid Hubbard matrices")
        .inverse()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pcyclic::random_pcyclic;
    use fsi_dense::{mul, rel_error};

    #[test]
    fn cyclic_product_wraps_correctly() {
        let pc = random_pcyclic(3, 4, 1);
        // Descending from 1, three factors: b1·b0·b3.
        let got = cyclic_product_desc(&pc, 1, 3);
        let want = mul(&mul(pc.block(1), pc.block(0)), pc.block(3));
        assert!(rel_error(&got, &want) < 1e-14);
        // Zero factors → identity.
        let id = cyclic_product_desc(&pc, 2, 0);
        assert!(rel_error(&id, &Matrix::identity(3)) < 1e-15);
    }

    #[test]
    fn full_product_is_similar_across_starting_points() {
        // P(k+1) = b[k+1]·P(k)·b[k+1]⁻¹ — all cyclic products share a
        // spectrum; verify via trace equality.
        let pc = random_pcyclic(4, 5, 2);
        let trace = |m: &Matrix| (0..4).map(|i| m[(i, i)]).sum::<f64>();
        let t0 = trace(&cyclic_product_full(&pc, 0));
        for k in 1..5 {
            let tk = trace(&cyclic_product_full(&pc, k));
            assert!((t0 - tk).abs() < 1e-10 * t0.abs().max(1.0), "k={k}");
        }
    }

    #[test]
    fn explicit_blocks_match_dense_inverse() {
        let pc = random_pcyclic(3, 5, 3);
        let g_ref = pc.reference_green();
        for k in 0..5 {
            for l in 0..5 {
                let blk = green_block_explicit(&pc, k, l);
                let want = pc.dense_block(&g_ref, k, l);
                assert!(
                    rel_error(&blk, &want) < 1e-9,
                    "block ({k},{l}) mismatch: {}",
                    rel_error(&blk, &want)
                );
            }
        }
    }

    #[test]
    fn equal_time_matches_diagonal_blocks() {
        let pc = random_pcyclic(4, 6, 4);
        let g_ref = pc.reference_green();
        for k in 0..6 {
            let g = equal_time_green_explicit(&pc, k);
            let want = pc.dense_block(&g_ref, k, k);
            assert!(rel_error(&g, &want) < 1e-9, "k={k}");
        }
    }

    #[test]
    fn z_signs_flip_across_the_diagonal() {
        let pc = random_pcyclic(2, 4, 5);
        // k > ℓ: positive product of (k−ℓ) factors.
        let z = z_matrix(&pc, 3, 1);
        let want = mul(pc.block(3), pc.block(2));
        assert!(rel_error(&z, &want) < 1e-14);
        // k < ℓ: negative cyclic product of L−(ℓ−k) factors.
        let z = z_matrix(&pc, 1, 2);
        let mut want = mul(&mul(pc.block(1), pc.block(0)), pc.block(3));
        want.scale(-1.0);
        assert!(rel_error(&z, &want) < 1e-14);
    }

    #[test]
    fn single_slice_green() {
        // L = 1: G = (I + B_1)⁻¹.
        let pc = random_pcyclic(4, 1, 6);
        let g = equal_time_green_explicit(&pc, 0);
        let want = pc.dense_block(&pc.reference_green(), 0, 0);
        assert!(rel_error(&g, &want) < 1e-10);
    }
}
