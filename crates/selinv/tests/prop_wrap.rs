//! Equivalence properties of the lockstep wrap engine: it computes, bit
//! for bit, what walking every seed alone with the single-block steps
//! computes — whatever the pattern, shift, cluster size, block size,
//! schedule or seed representation — and its kernel tiers agree.

use fsi_dense::{test_matrix, Matrix};
use fsi_pcyclic::{random_pcyclic, BlockPCyclic};
use fsi_runtime::{Par, ThreadPool};
use fsi_selinv::wrap::{step_down, step_left, step_right, step_up};
use fsi_selinv::{
    wrap, wrap_all_diagonals, wrap_all_diagonals_selected, wrap_selected, BlockFactors, Clustered,
    Pattern, SelectedInverse, Selection,
};
use proptest::prelude::*;

/// Cluster sizes: 1 and 2 have walks of zero steps in one or both
/// directions.
const CLUSTER_SIZES: [usize; 5] = [1, 2, 3, 4, 8];
/// Block sizes: below, across and at a multiple of the register tiles.
const BLOCK_SIZES: [usize; 4] = [3, 5, 17, 64];

/// A wrap input with arbitrary seed blocks. The recurrences are linear
/// maps of whatever seeds they are given, so equivalence needs no real
/// clustering or BSOFI behind them.
struct Input {
    pc: BlockPCyclic,
    clustered: Clustered,
    g_reduced: Matrix,
}

fn input(n: usize, b: usize, c: usize, q: usize, seed: u64) -> Input {
    let l = b * c;
    Input {
        pc: random_pcyclic(n, l, seed),
        clustered: Clustered {
            reduced: random_pcyclic(n, b, seed ^ 1),
            c,
            q,
            l_original: l,
        },
        g_reduced: test_matrix(b * n, b * n, seed ^ 2),
    }
}

/// The seed blocks of `g_reduced` as a sparse assembly: all of them, or
/// the diagonal ones.
fn sparse_seeds(inp: &Input, diagonal_only: bool) -> SelectedInverse {
    let b = inp.clustered.b();
    let mut seeds = SelectedInverse::new();
    for k0 in 0..b {
        for l0 in 0..b {
            if k0 == l0 || !diagonal_only {
                let blk = inp.clustered.reduced.dense_block(&inp.g_reduced, k0, l0);
                seeds.insert(k0, l0, blk);
            }
        }
    }
    seeds
}

/// Alg. 2 one seed at a time: every block from the single-block steps.
fn per_seed_wrap(inp: &Input, pattern: Pattern) -> SelectedInverse {
    let Input {
        pc,
        clustered,
        g_reduced,
    } = inp;
    let (b, c) = (clustered.b(), clustered.c);
    let factors = BlockFactors::new(pc);
    let seed = |k0: usize, l0: usize| clustered.reduced.dense_block(g_reduced, k0, l0);
    let mut out = SelectedInverse::new();
    for k0 in 0..b {
        let k = clustered.to_original(k0);
        match pattern {
            Pattern::Diagonal => out.insert(k, k, seed(k0, k0)),
            Pattern::SubDiagonal => {
                let next = step_right(pc, &factors, &seed(k0, k0), k, k).expect("invertible");
                out.insert(k, pc.down(k), next);
            }
            Pattern::Columns | Pattern::Rows => {
                let before = c / 2;
                let after = c - 1 - before;
                for l0 in 0..b {
                    let l = clustered.to_original(l0);
                    let g = seed(k0, l0);
                    let (mut cur, mut at) = (g.clone(), (k, l));
                    for _ in 0..before {
                        if pattern == Pattern::Columns {
                            cur = step_up(pc, &factors, &cur, at.0, at.1).expect("invertible");
                            at.0 = pc.up(at.0);
                        } else {
                            cur = step_left(pc, &cur, at.0, at.1);
                            at.1 = pc.up(at.1);
                        }
                        out.insert(at.0, at.1, cur.clone());
                    }
                    let (mut cur, mut at) = (g.clone(), (k, l));
                    for _ in 0..after {
                        if pattern == Pattern::Columns {
                            cur = step_down(pc, &cur, at.0, at.1);
                            at.0 = pc.down(at.0);
                        } else {
                            cur = step_right(pc, &factors, &cur, at.0, at.1).expect("invertible");
                            at.1 = pc.down(at.1);
                        }
                        out.insert(at.0, at.1, cur.clone());
                    }
                    out.insert(k, l, g);
                }
            }
        }
    }
    out
}

/// Every diagonal block from its seed by a down step then a right step.
fn per_seed_diagonals(inp: &Input) -> SelectedInverse {
    let Input {
        pc,
        clustered,
        g_reduced,
    } = inp;
    let factors = BlockFactors::new(pc);
    let mut out = SelectedInverse::new();
    for k0 in 0..clustered.b() {
        let mut row = clustered.to_original(k0);
        let mut cur = clustered.reduced.dense_block(g_reduced, k0, k0);
        out.insert(row, row, cur.clone());
        for _ in 1..clustered.c {
            let below = step_down(pc, &cur, row, row);
            cur = step_right(pc, &factors, &below, pc.down(row), row).expect("invertible");
            row = pc.down(row);
            out.insert(row, row, cur.clone());
        }
    }
    out
}

/// Same coordinates, bitwise equal blocks (`Matrix: PartialEq` compares
/// shape and every value; the kernels normalise zeros to `+0.0`).
fn assert_same(a: &SelectedInverse, b: &SelectedInverse, what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: block count");
    for (&(k, l), blk) in a.iter() {
        let other = b
            .get(k, l)
            .unwrap_or_else(|| panic!("{what}: ({k},{l}) missing"));
        assert!(blk == other, "{what}: block ({k},{l}) differs");
    }
}

/// Worst relative block difference between two selections.
fn worst_rel_diff(a: &SelectedInverse, b: &SelectedInverse) -> f64 {
    a.iter()
        .map(|(&(k, l), blk)| fsi_dense::rel_error(blk, b.get(k, l).expect("same coordinates")))
        .fold(0.0, f64::max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The lockstep engine against the per-seed walk, for every pattern
    /// and every shift of the drawn shape. Varying `q` moves the seed rows
    /// across the torus seam in both walk directions; the diagonal seeds
    /// of every line cross the block diagonal on their first inverse step;
    /// `b = 1` is the single-cluster torus.
    #[test]
    fn lockstep_equals_per_seed_walk(
        ni in 0usize..4,
        ci in 0usize..5,
        b in 1usize..4,
        seed in any::<u64>(),
    ) {
        let (n, c) = (BLOCK_SIZES[ni], CLUSTER_SIZES[ci]);
        // The largest blocks with the longest lines cost the most; one
        // cluster fewer keeps the case count affordable unoptimised.
        let b = if n == 64 { b.min(2) } else { b };
        for q in 0..c {
            let inp = input(n, b, c, q, seed);
            for pattern in Pattern::ALL {
                let sel = Selection::new(pattern, c, q);
                let got = wrap(Par::Seq, &inp.pc, &inp.clustered, &inp.g_reduced, &sel)
                    .expect("healthy");
                prop_assert_eq!(got.len(), pattern.n_blocks(b * c, c));
                let what = format!("{pattern:?} n={n} b={b} c={c} q={q}");
                assert_same(&got, &per_seed_wrap(&inp, pattern), &what);
            }
            let got = wrap_all_diagonals(Par::Seq, &inp.pc, &inp.clustered, &inp.g_reduced)
                .expect("healthy");
            let what = format!("all diagonals n={n} b={b} c={c} q={q}");
            assert_same(&got, &per_seed_diagonals(&inp), &what);
        }
    }

    /// Results do not depend on the schedule: sequential, and pools of one
    /// to four threads, agree bit for bit.
    #[test]
    fn schedule_does_not_change_a_bit(
        ni in 0usize..3,
        ci in 1usize..5,
        b in 1usize..4,
        threads in 1usize..5,
        seed in any::<u64>(),
    ) {
        let (n, c) = (BLOCK_SIZES[ni], CLUSTER_SIZES[ci]);
        let q = seed as usize % c;
        let inp = input(n, b, c, q, seed);
        let pool = ThreadPool::new(threads);
        for pattern in Pattern::ALL {
            let sel = Selection::new(pattern, c, q);
            let seq = wrap(Par::Seq, &inp.pc, &inp.clustered, &inp.g_reduced, &sel)
                .expect("healthy");
            let par = wrap(Par::Pool(&pool), &inp.pc, &inp.clustered, &inp.g_reduced, &sel)
                .expect("healthy");
            assert_same(&seq, &par, &format!("{pattern:?} on {threads} threads"));
        }
        let seq = wrap_all_diagonals(Par::Seq, &inp.pc, &inp.clustered, &inp.g_reduced)
            .expect("healthy");
        let par = wrap_all_diagonals(Par::Pool(&pool), &inp.pc, &inp.clustered, &inp.g_reduced)
            .expect("healthy");
        assert_same(&seq, &par, &format!("all diagonals on {threads} threads"));
    }

    /// Sparse seeds holding the same blocks as the dense reduced inverse
    /// wrap to the same bits (S1/S2 take this route in `fsi_with_q`; the
    /// engine does not care which pattern it is).
    #[test]
    fn sparse_and_dense_seeds_wrap_alike(
        ni in 0usize..3,
        ci in 0usize..5,
        b in 1usize..4,
        seed in any::<u64>(),
    ) {
        let (n, c) = (BLOCK_SIZES[ni], CLUSTER_SIZES[ci]);
        let q = seed as usize % c;
        let inp = input(n, b, c, q, seed);
        for pattern in Pattern::ALL {
            let diagonal_only = matches!(pattern, Pattern::Diagonal | Pattern::SubDiagonal);
            let seeds = sparse_seeds(&inp, diagonal_only);
            let sel = Selection::new(pattern, c, q);
            let dense = wrap(Par::Seq, &inp.pc, &inp.clustered, &inp.g_reduced, &sel)
                .expect("healthy");
            let sparse = wrap_selected(Par::Seq, &inp.pc, &inp.clustered, &seeds, &sel)
                .expect("healthy");
            assert_same(&dense, &sparse, &format!("{pattern:?}"));
        }
        let dense = wrap_all_diagonals(Par::Seq, &inp.pc, &inp.clustered, &inp.g_reduced)
            .expect("healthy");
        let sparse = wrap_all_diagonals_selected(
            Par::Seq,
            &inp.pc,
            &inp.clustered,
            &sparse_seeds(&inp, true),
        )
        .expect("healthy");
        assert_same(&dense, &sparse, "all diagonals");
    }

    /// The kernel tiers the CPU offers agree to rounding on every block
    /// (the override is per thread, so the wraps run sequentially).
    #[test]
    fn kernel_tiers_agree(ni in 0usize..4, ci in 1usize..5, seed in any::<u64>()) {
        let (n, c) = (BLOCK_SIZES[ni], CLUSTER_SIZES[ci]);
        let q = seed as usize % c;
        let inp = input(n, 2, c, q, seed);
        let run = |tier| {
            fsi_dense::with_tier(tier, || {
                let mut all = wrap_all_diagonals(Par::Seq, &inp.pc, &inp.clustered, &inp.g_reduced)
                    .expect("healthy");
                for pattern in [Pattern::Columns, Pattern::Rows] {
                    let sel = Selection::new(pattern, c, q);
                    all.merge(
                        wrap(Par::Seq, &inp.pc, &inp.clustered, &inp.g_reduced, &sel)
                            .expect("healthy"),
                    );
                }
                all
            })
        };
        let tiers = fsi_dense::available_tiers();
        let reference = run(tiers[0]);
        for &tier in &tiers[1..] {
            let diff = worst_rel_diff(&reference, &run(tier));
            prop_assert!(diff < 1e-13, "{} vs {}: {diff:e}", tiers[0].name(), tier.name());
        }
    }
}
