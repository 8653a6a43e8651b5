//! Accuracy guard for wrapping with explicit inverses: on Hubbard blocks
//! across the (U, β) plane the wrapped blocks are as close to the dense
//! reference as the LU-solve walk this engine replaced left them, `M·G = I`
//! holds over the selected columns, and a block too ill-conditioned to
//! invert is an event, not an answer.

use fsi_dense::Matrix;
use fsi_pcyclic::{
    hubbard_pcyclic, BlockBuilder, BlockPCyclic, HsField, HubbardParams, Spin, SquareLattice,
};
use fsi_runtime::health::{HealthEvent, Stage, KAPPA_MAX};
use fsi_runtime::Par;
use fsi_selinv::{
    bsofi, cls, wrap, wrap_all_diagonals, BlockFactors, Pattern, SelectedInverse, Selection,
};
use rand::SeedableRng;

/// One point of the guard: model parameters, lattice side (chosen so the
/// dense reference stays affordable unoptimised), and what the per-seed
/// LU-solve walk gave on this input (seed 2016, spin up, `q = c/2`)
/// before the engine was rebuilt: the worst relative block errors against
/// `reference_green`, and the `M·G = I` residual over the selected
/// columns. The seeds' own error dominates all of them — the residual is
/// below 1e-12 only where clustering and BSOFI leave the seeds that good.
struct Point {
    u: f64,
    beta: f64,
    l: usize,
    c: usize,
    side: usize,
    lu_walk_columns: f64,
    lu_walk_diagonals: f64,
    lu_walk_residual: f64,
}

const POINTS: [Point; 3] = [
    Point {
        u: 4.0,
        beta: 8.0,
        l: 64,
        c: 8,
        side: 3,
        lu_walk_columns: 6.185e-13,
        lu_walk_diagonals: 1.148e-12,
        lu_walk_residual: 1.193e-13,
    },
    Point {
        u: 8.0,
        beta: 10.0,
        l: 80,
        c: 10,
        side: 3,
        lu_walk_columns: 5.863e-10,
        lu_walk_diagonals: 3.812e-9,
        lu_walk_residual: 2.797e-11,
    },
    Point {
        u: 8.0,
        beta: 16.0,
        l: 128,
        c: 16,
        side: 2,
        lu_walk_columns: 1.062e-8,
        lu_walk_diagonals: 4.258e-6,
        lu_walk_residual: 1.232e-11,
    },
];

fn hubbard(p: &Point) -> BlockPCyclic {
    let lattice = SquareLattice::square(p.side);
    let n = lattice.n_sites();
    let params = HubbardParams {
        t: 1.0,
        u: p.u,
        beta: p.beta,
        l: p.l,
    };
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2016);
    let field = HsField::random(p.l, n, &mut rng);
    hubbard_pcyclic(&BlockBuilder::new(lattice, params), &field, Spin::Up)
}

fn worst_error(pc: &BlockPCyclic, g_ref: &Matrix, got: &SelectedInverse) -> f64 {
    got.iter()
        .map(|(&(k, l), blk)| fsi_dense::rel_error(blk, &pc.dense_block(g_ref, k, l)))
        .fold(0.0, f64::max)
}

/// Relative residual of `M·G = I` over full block columns `cols`:
/// `G(k,ℓ) − s_k·B_k·G(k−1,ℓ) = δ_{kℓ}·I` with `s_0 = −1`; per column the
/// Frobenius norm of the residual over that of the column, maximised.
fn columns_residual(pc: &BlockPCyclic, g: &SelectedInverse, cols: &[usize]) -> f64 {
    let sq = |m: &Matrix| m.as_slice().iter().map(|x| x * x).sum::<f64>();
    let mut worst = 0.0f64;
    for &col in cols {
        let (mut res2, mut col2) = (0.0, 0.0);
        for k in 0..pc.l() {
            let gk = g.get(k, col).expect("full column");
            let mut r = fsi_dense::mul(pc.block(k), g.get(pc.up(k), col).expect("full column"));
            r.scale(if k == 0 { 1.0 } else { -1.0 });
            r.add_assign(gk);
            if k == col {
                r.add_diag(-1.0);
            }
            res2 += sq(&r);
            col2 += sq(gk);
        }
        worst = worst.max((res2 / col2).sqrt());
    }
    worst
}

#[test]
fn explicit_inverse_wraps_are_as_accurate_as_lu_solves_were() {
    for p in &POINTS {
        let pc = hubbard(p);
        let q = p.c / 2;
        let clustered = cls(Par::Seq, Par::Seq, &pc, p.c, q);
        let g_red = bsofi(Par::Seq, Par::Seq, &clustered.reduced);
        let g_ref = pc.reference_green(Par::Seq);
        let sel = Selection::new(Pattern::Columns, p.c, q);
        let cols = wrap(Par::Seq, &pc, &clustered, &g_red, &sel).expect("healthy");
        let diags = wrap_all_diagonals(Par::Seq, &pc, &clustered, &g_red).expect("healthy");
        let label = format!("U={} beta={} L={} c={}", p.u, p.beta, p.l, p.c);

        let (e_cols, e_diags) = (
            worst_error(&pc, &g_ref, &cols),
            worst_error(&pc, &g_ref, &diags),
        );
        assert!(
            e_cols <= 4.0 * p.lu_walk_columns,
            "{label}: columns {e_cols:e} against {:e} before",
            p.lu_walk_columns
        );
        assert!(
            e_diags <= 4.0 * p.lu_walk_diagonals,
            "{label}: diagonals {e_diags:e} against {:e} before",
            p.lu_walk_diagonals
        );
        let residual = columns_residual(&pc, &cols, &sel.index_set(p.l));
        assert!(
            residual <= 4.0 * p.lu_walk_residual,
            "{label}: M·G = I residual {residual:e} against {:e} before",
            p.lu_walk_residual
        );
    }
}

/// Six identity blocks of side 4, except that block `bad` is a graded
/// diagonal: κ = 1e16 > `KAPPA_MAX`, every pivot nonzero.
fn graded_pcyclic(bad: usize) -> BlockPCyclic {
    let n = 4;
    let mut blocks: Vec<Matrix> = (0..6).map(|_| Matrix::identity(n)).collect();
    let graded: Vec<f64> = (0..n).map(|i| 10f64.powi(-(16 * i as i32) / 3)).collect();
    assert!(graded[0] / graded[n - 1] > KAPPA_MAX);
    blocks[bad] = Matrix::diag(&graded);
    BlockPCyclic::new(blocks)
}

#[test]
fn ill_conditioned_block_is_refused_not_inverted() {
    let is_ill_conditioned = |err: &fsi_runtime::health::FsiError| {
        matches!(
            err.health_event(),
            Some(HealthEvent::IllConditioned { stage: Stage::Wrap, kappa }) if *kappa > KAPPA_MAX
        )
    };
    let pc = graded_pcyclic(4);
    let factors = BlockFactors::new(&pc);
    assert!(factors.inverse(3).is_ok());
    let err = factors.inverse(4).unwrap_err();
    assert!(is_ill_conditioned(&err), "{err:?}");

    // c = 3, q = 0 seeds rows and columns 2 and 5. Columns walks one step
    // up through B_2⁻¹ and B_5⁻¹, rows one step right through B_3⁻¹ and
    // B_0⁻¹, the diagonals through every block that is not a seed row.
    let seeds = fsi_dense::test_matrix(8, 8, 1);
    let wrap_pattern = |bad: usize, pattern: Pattern| {
        let pc = graded_pcyclic(bad);
        let clustered = cls(Par::Seq, Par::Seq, &pc, 3, 0);
        wrap(
            Par::Seq,
            &pc,
            &clustered,
            &seeds,
            &Selection::new(pattern, 3, 0),
        )
    };
    assert!(is_ill_conditioned(
        &wrap_pattern(5, Pattern::Columns).unwrap_err()
    ));
    assert!(is_ill_conditioned(
        &wrap_pattern(3, Pattern::Rows).unwrap_err()
    ));
    let clustered = cls(Par::Seq, Par::Seq, &pc, 3, 0);
    let err = wrap_all_diagonals(Par::Seq, &pc, &clustered, &seeds).unwrap_err();
    assert!(is_ill_conditioned(&err), "{err:?}");
    // A graded block that is only ever multiplied by is no obstacle.
    assert!(wrap_pattern(3, Pattern::Columns).is_ok());
}
