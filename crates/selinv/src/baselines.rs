//! Baseline selected-inversion algorithms the paper compares FSI against.
//!
//! * [`full_inverse_selected`] — assemble the dense `NL × NL` matrix, run
//!   LU inversion (the "MKL DGETRF + DGETRI" path of §V-A), extract the
//!   selected blocks. Cost `2(NL)³` flops and `(NL)²` memory — the memory
//!   wall is the paper's main argument against it at scale.
//! * [`explicit_selected`] — evaluate the explicit expression Eq. (3)
//!   block by block: `G(k,ℓ) = W(k)⁻¹ Z(k,ℓ)` with fresh matrix chains.
//!   `W(k)` factorizations are memoized per block row, but each `Z`
//!   requires an `O(L)` chain, so `b` block columns cost `O(bL²N³)` —
//!   the factor-of-`L` overhead FSI's wrapping eliminates.

use std::collections::HashMap;

use fsi_dense::{getrf, inverse, LuFactor};
use fsi_pcyclic::{w_matrix, z_matrix, BlockPCyclic};
use fsi_runtime::Par;

use crate::patterns::{SelectedInverse, Selection};

/// Selected blocks via full dense inversion (GETRF/GETRI baseline).
pub fn full_inverse_selected(pc: &BlockPCyclic, selection: &Selection) -> SelectedInverse {
    let g = inverse(&pc.assemble_dense()).expect("valid p-cyclic matrices are nonsingular");
    let mut out = SelectedInverse::new();
    for (k, l) in selection.coordinates(pc.l()) {
        out.insert(k, l, pc.dense_block(&g, k, l));
    }
    out
}

/// Selected blocks via the explicit expression (3), memoizing the `W(k)`
/// factorization per block row.
///
/// The expression runs sequentially and `_par` is unused. It stays in the
/// signature because the layered benchmark (`benchmark/src/workloads/fsi.rs`)
/// calls this function with it.
pub fn explicit_selected(
    _par: Par<'_>,
    pc: &BlockPCyclic,
    selection: &Selection,
) -> SelectedInverse {
    let mut w_factors: HashMap<usize, LuFactor> = HashMap::new();
    let mut out = SelectedInverse::new();
    for (k, l) in selection.coordinates(pc.l()) {
        let f = w_factors
            .entry(k)
            .or_insert_with(|| getrf(w_matrix(pc, k)).expect("W(k) nonsingular"));
        let z = z_matrix(pc, k, l);
        out.insert(k, l, f.solve(&z));
    }
    out
}

/// Maximum relative Frobenius error between two selected inversions over
/// their common coordinates — the paper's §V-A validation metric
/// (`max‖S_ij − G_ij‖_F / ‖G_ij‖_F`).
pub fn max_block_error(a: &SelectedInverse, b: &SelectedInverse) -> f64 {
    let mut worst = 0.0f64;
    let mut compared = 0usize;
    for (coord, blk) in a.iter() {
        if let Some(other) = b.get(coord.0, coord.1) {
            worst = worst.max(fsi_dense::rel_error(blk, other));
            compared += 1;
        }
    }
    assert!(compared > 0, "selections share no coordinates");
    worst
}

/// Mean relative Frobenius error over common coordinates (the exact
/// quantity the paper's §V-A inequality bounds by 1e-10).
/// Summed in sorted coordinate order, so the same selections give the
/// same bits on every run.
pub fn mean_block_error(a: &SelectedInverse, b: &SelectedInverse) -> f64 {
    let mut total = 0.0f64;
    let mut compared = 0usize;
    for (k, l) in a.sorted_coordinates() {
        if let (Some(blk), Some(other)) = (a.get(k, l), b.get(k, l)) {
            total += fsi_dense::rel_error(blk, other);
            compared += 1;
        }
    }
    assert!(compared > 0, "selections share no coordinates");
    total / compared as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fsi::{fsi_with_q, Parallelism};
    use crate::patterns::Pattern;
    use fsi_dense::Matrix;
    use fsi_pcyclic::random_pcyclic;

    #[test]
    fn baselines_agree_with_each_other() {
        let pc = random_pcyclic(3, 8, 90);
        let sel = Selection::new(Pattern::Columns, 4, 1);
        let full = full_inverse_selected(&pc, &sel);
        let expl = explicit_selected(Par::Seq, &pc, &sel);
        assert_eq!(full.len(), expl.len());
        assert!(max_block_error(&full, &expl) < 1e-9);
    }

    #[test]
    fn fsi_matches_full_inverse_baseline() {
        // The §V-A validation shape, scaled down.
        let pc = random_pcyclic(4, 12, 91);
        for pattern in Pattern::ALL {
            let sel = Selection::new(pattern, 4, 2);
            let fsi_out = fsi_with_q(Parallelism::Serial, &pc, &sel).expect("healthy");
            let full = full_inverse_selected(&pc, &sel);
            let err = max_block_error(&fsi_out.selected, &full);
            assert!(err < 1e-8, "{pattern:?}: {err}");
            let mean = mean_block_error(&fsi_out.selected, &full);
            assert!(mean <= err);
        }
    }

    #[test]
    fn explicit_memoizes_w_per_row() {
        // Rows pattern touches b distinct k's only — smoke test that it
        // completes quickly and correctly.
        let pc = random_pcyclic(2, 10, 92);
        let sel = Selection::new(Pattern::Rows, 5, 0);
        let expl = explicit_selected(Par::Seq, &pc, &sel);
        let full = full_inverse_selected(&pc, &sel);
        assert!(max_block_error(&expl, &full) < 1e-9);
    }

    #[test]
    fn mean_block_error_sums_in_sorted_coordinate_order() {
        // Errors ten orders of magnitude apart, inserted out of order, so
        // the order of the sum shows in its last bits.
        let inserted = [
            (3, 1),
            (0, 2),
            (2, 2),
            (1, 0),
            (0, 0),
            (2, 3),
            (1, 1),
            (3, 3),
        ];
        let (mut a, mut b) = (SelectedInverse::new(), SelectedInverse::new());
        for (i, &(k, l)) in inserted.iter().enumerate() {
            let eps = 1.234_567 * 10f64.powi(-(i as i32) - 3 * (i as i32 % 3));
            a.insert(
                k,
                l,
                Matrix::from_fn(2, 2, |r, c| (r == c) as u8 as f64 + eps),
            );
            b.insert(k, l, Matrix::identity(2));
        }
        let err = |k, l| fsi_dense::rel_error(a.get(k, l).unwrap(), b.get(k, l).unwrap());
        let sorted = [
            (0, 0),
            (0, 2),
            (1, 0),
            (1, 1),
            (2, 2),
            (2, 3),
            (3, 1),
            (3, 3),
        ];
        let mut total = 0.0f64;
        for (k, l) in sorted {
            total += err(k, l);
        }
        let want = total / sorted.len() as f64;
        assert_eq!(mean_block_error(&a, &b).to_bits(), want.to_bits());
    }

    #[test]
    #[should_panic(expected = "share no coordinates")]
    fn disjoint_selections_panic() {
        let mut a = SelectedInverse::new();
        a.insert(0, 0, Matrix::identity(2));
        let mut b = SelectedInverse::new();
        b.insert(1, 1, Matrix::identity(2));
        let _ = max_block_error(&a, &b);
    }
}
