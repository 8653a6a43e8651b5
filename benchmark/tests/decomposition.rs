//! The traced runs time a composition of public stage calls; these tests
//! pin that composition to the real entry points, bit for bit.

use std::time::Instant;

use fsi_benchmark::stages::{
    bitwise_equal, columns_residual, staged_fsi, staged_measurement_set, StageAllocs, BSOFI, CLS,
    WRAP,
};
use fsi_benchmark::trace::Tracer;
use fsi_benchmark::workloads::dqmc;
use fsi_pcyclic::{hubbard_pcyclic, BlockBuilder, HsField, HubbardParams, Spin, SquareLattice};
use fsi_runtime::ThreadPool;
use fsi_selinv::fsi::fsi_measurement_set;
use fsi_selinv::{fsi_with_q, Parallelism, Pattern, Selection};
use rand::SeedableRng;

/// A 3×3-site Hubbard matrix with L=12 slices.
fn small_matrix() -> fsi_pcyclic::BlockPCyclic {
    let builder = BlockBuilder::new(
        SquareLattice::square(3),
        HubbardParams::paper_validation(12),
    );
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2016);
    let field = HsField::random(12, 9, &mut rng);
    hubbard_pcyclic(&builder, &field, Spin::Up)
}

#[test]
fn staged_fsi_equals_fsi_with_q_for_every_pattern() {
    let pc = small_matrix();
    let pool = ThreadPool::new(2);
    // c = 12 leaves a single cluster: the degenerate BSOFI paths.
    for (c, q) in [(4, 1), (12, 5)] {
        for pattern in Pattern::ALL {
            for par in [Parallelism::Serial, Parallelism::OpenMp(&pool)] {
                let selection = Selection::new(pattern, c, q);
                let whole = fsi_with_q(par, &pc, &selection).expect("healthy matrix");
                let mut tr = Tracer::new(Instant::now());
                let mut allocs = StageAllocs::default();
                let staged =
                    staged_fsi(par, &pc, &selection, &mut tr, &mut allocs).expect("healthy matrix");
                assert!(
                    bitwise_equal(&staged.selected, &whole.selected),
                    "{pattern:?} c={c}"
                );
                assert_eq!(staged.selected.len(), pattern.n_blocks(12, c));
                // One span per stage, all closed, and every stage allocated.
                for name in [CLS, BSOFI, WRAP] {
                    assert_eq!(tr.per_op(name).len(), 1, "{name}");
                }
                assert!(allocs.cls.calls > 0 && allocs.bsofi.calls > 0 && allocs.wrap.calls > 0);
            }
        }
    }
}

#[test]
fn staged_measurement_set_equals_the_real_one() {
    let pc = small_matrix();
    let (merged, diags) = fsi_measurement_set(Parallelism::Serial, &pc, 4, 2).expect("healthy");
    let mut tr = Tracer::new(Instant::now());
    let mut allocs = StageAllocs::default();
    let (staged_merged, staged_diags) =
        staged_measurement_set(Parallelism::Serial, &pc, 4, 2, &mut tr, &mut allocs)
            .expect("healthy");
    assert!(bitwise_equal(&staged_merged, &merged));
    assert!(bitwise_equal(&staged_diags, &diags));
    assert_eq!(diags.len(), 12);
}

#[test]
fn columns_residual_accepts_the_answer_and_rejects_damage() {
    let pc = small_matrix();
    let selection = Selection::new(Pattern::Columns, 4, 1);
    let mut out = fsi_with_q(Parallelism::Serial, &pc, &selection)
        .expect("healthy")
        .selected;
    let cols = selection.index_set(12);
    assert!(columns_residual(&pc, &out, &cols) < 1e-12);
    // The corner row k = 0 carries the opposite sign; a wrong sign there
    // or a damaged block anywhere must show.
    out.get_mut(0, cols[0]).expect("block")[(0, 0)] += 1e-6;
    assert!(columns_residual(&pc, &out, &cols) > 1e-8);
}

#[test]
fn the_step_loop_is_fsi_dqmc_run() {
    let cfg = fsi_dqmc::DqmcConfig {
        nx: 4,
        ny: 4,
        beta: 2.0,
        l: 16,
        c: 4,
        measurements: 3,
        stabilize_every: 4,
        ..dqmc::config(7)
    };
    let pool = ThreadPool::new(2);
    for par in [Parallelism::Serial, Parallelism::OpenMp(&pool)] {
        let ours = dqmc::run_loop(&cfg, par).expect("healthy run");
        let theirs = fsi_dqmc::run(&cfg, par).expect("healthy run");
        assert!(dqmc::observables_equal(&ours, &theirs));
        assert_eq!(ours.density.count(), 3);
        assert!((ours.density.mean() - 1.0).abs() < 1e-8);
    }
    // The comparison can tell runs apart.
    let other = dqmc::run_loop(
        &fsi_dqmc::DqmcConfig { seed: 8, ..cfg },
        Parallelism::Serial,
    )
    .expect("healthy run");
    let ours = dqmc::run_loop(&cfg, Parallelism::Serial).expect("healthy run");
    assert!(!dqmc::observables_equal(&ours, &other));
}
