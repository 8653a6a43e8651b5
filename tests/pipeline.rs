//! Cross-crate integration: the full stack from lattice to DQMC results,
//! the hybrid multi-matrix driver, and the interplay of parallel modes.

use fsi::dqmc::{run, DqmcConfig};
use fsi::pcyclic::{BlockBuilder, HubbardParams, SquareLattice};
use fsi::runtime::ThreadPool;
use fsi::selinv::multi::{trace_measure, MultiConfig};
use fsi::selinv::{run_multi, MemoryModel, Parallelism, Pattern};

#[test]
fn dqmc_runs_identically_under_all_parallel_modes() {
    let cfg = DqmcConfig {
        nx: 2,
        ny: 2,
        t: 1.0,
        u: 4.0,
        beta: 2.0,
        l: 8,
        c: 4,
        warmup: 1,
        measurements: 3,
        stabilize_every: 4,
        delay: 1,
        seed: 77,
    };
    let serial = run(&cfg, Parallelism::Serial).expect("healthy");
    let pool = ThreadPool::new(3);
    let omp = run(&cfg, Parallelism::OpenMp(&pool)).expect("healthy");
    let mkl = run(&cfg, Parallelism::MklStyle(&pool)).expect("healthy");
    for other in [&omp, &mkl] {
        assert!((serial.density.mean() - other.density.mean()).abs() < 1e-9);
        assert!((serial.moment.mean() - other.moment.mean()).abs() < 1e-9);
        assert!((serial.kinetic.mean() - other.kinetic.mean()).abs() < 1e-9);
    }
    // The SPXX table does not depend on the parallel mode at all: the
    // field trajectories and Green's functions are the same bits, and each
    // row of the table is summed in one fixed order.
    let a = serial.spxx.as_ref().expect("spxx");
    for other in [&omp, &mkl] {
        let b = other.spxx.as_ref().expect("spxx");
        for tau in 0..cfg.l {
            assert_eq!(a.count(tau), b.count(tau), "C({tau})");
            for d in 0..a.dmax() {
                assert_eq!(
                    a.at(tau, d).to_bits(),
                    b.at(tau, d).to_bits(),
                    "SPXX({tau}, {d})"
                );
            }
        }
    }
}

#[test]
fn multi_matrix_reduction_is_invariant_to_topology() {
    let builder = BlockBuilder::new(SquareLattice::square(2), HubbardParams::paper_validation(8));
    let base = MultiConfig {
        ranks: 1,
        threads_per_rank: 1,
        matrices: 6,
        c: 4,
        pattern: Pattern::Rows,
        seed: 31,
    };
    let reference = run_multi(&builder, &base, &trace_measure).expect("healthy");
    for (ranks, threads) in [(2usize, 1usize), (3, 2), (6, 1), (1, 4)] {
        let cfg = MultiConfig {
            ranks,
            threads_per_rank: threads,
            ..base.clone()
        };
        let r = run_multi(&builder, &cfg, &trace_measure).expect("healthy");
        for (a, b) in reference
            .global_measurements
            .iter()
            .zip(&r.global_measurements)
        {
            assert!(
                (a - b).abs() < 1e-6 * a.abs().max(1.0),
                "{ranks}x{threads}: {a} vs {b}"
            );
        }
    }
}

#[test]
fn memory_model_feasibility_is_monotone() {
    let model = MemoryModel::edison();
    // More ranks per node can never turn an infeasible config feasible.
    for n in [400usize, 576, 784, 1024] {
        let bytes = fsi::selinv::multi::per_rank_bytes(n, 100, 10, Pattern::Columns);
        let mut prev = true;
        for ranks in [1usize, 2, 4, 8, 12, 24] {
            let f = model.feasible(ranks, bytes);
            assert!(
                prev || !f,
                "feasibility not monotone at N={n}, ranks={ranks}"
            );
            prev = f;
        }
    }
    // Per-rank bytes grow with N and with the selection size.
    let diag = fsi::selinv::multi::per_rank_bytes(400, 100, 10, Pattern::Diagonal);
    let cols = fsi::selinv::multi::per_rank_bytes(400, 100, 10, Pattern::Columns);
    assert!(cols > diag);
}

#[test]
fn flop_accounting_spans_the_whole_pipeline() {
    // A full FSI run must register flops from all three stages.
    use fsi::pcyclic::{hubbard_pcyclic, HsField, Spin};
    use fsi::selinv::{fsi_with_q, Selection};
    use rand::SeedableRng;
    let builder = BlockBuilder::new(SquareLattice::square(2), HubbardParams::paper_validation(8));
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9);
    let field = HsField::random(8, 4, &mut rng);
    let pc = hubbard_pcyclic(&builder, &field, Spin::Up);
    let _lock = fsi::runtime::trace::test_lock();
    fsi::runtime::trace::set_level(fsi::runtime::TraceLevel::Stages);
    let span = fsi::runtime::trace::span("pipeline");
    let _ = fsi_with_q(
        Parallelism::Serial,
        &pc,
        &Selection::new(Pattern::Columns, 4, 1),
    )
    .expect("healthy");
    let counted = span.finish().flops;
    fsi::runtime::trace::set_level(fsi::runtime::TraceLevel::Off);
    fsi::runtime::trace::clear();
    // Rough analytic budget: should be within an order of magnitude of
    // the closed form.
    let predicted = fsi::selinv::flops::fsi_flops_exact(Pattern::Columns, 4, 8, 4);
    assert!(
        counted > predicted / 4,
        "counted {counted} vs predicted {predicted}"
    );
    assert!(
        counted < predicted * 10,
        "counted {counted} vs predicted {predicted}"
    );
}

#[test]
fn umbrella_reexports_are_wired() {
    // Compile-time check that the umbrella crate exposes all five layers.
    let _ = fsi::runtime::hardware_threads();
    let m = fsi::dense::Matrix::identity(2);
    assert_eq!(m.rows(), 2);
    let lat = fsi::pcyclic::SquareLattice::square(2);
    assert_eq!(lat.n_sites(), 4);
    assert_eq!(fsi::selinv::Pattern::ALL.len(), 4);
    let cfg = fsi::dqmc::DqmcConfig::small();
    assert!(cfg.l.is_multiple_of(cfg.c));
}
