//! Service-tier properties: work-stealing execution is bitwise-equal to
//! a serial `MatrixTask` loop, saturated-queue admission rejects
//! with a reason instead of deadlocking, and (under `fault-inject`) a
//! fault-injected job degrades alone while its neighbors' outputs stay
//! bitwise-identical.

use fsi::pcyclic::{BlockBuilder, HubbardParams, SquareLattice};
use fsi::selinv::{
    generate_fields, run_multi, trace_measure, MatrixTask, MultiConfig, Parallelism, Pattern,
};
use fsi::service::{AdmitError, JobSpec, Service, ServiceConfig};
use proptest::prelude::*;

const SIDE: usize = 2;
const L: usize = 8;
const C: usize = 4;

fn spec(tenant: &str, sweeps: usize, seed: u64) -> JobSpec {
    JobSpec::new(tenant, SIDE, L, C, sweeps, seed)
}

/// The clean per-sweep reference: the same `(seed, sweep)`-deterministic
/// task pipeline the service runs, executed directly.
fn reference_bins(spec: &JobSpec) -> Vec<Vec<f64>> {
    let builder = BlockBuilder::new(
        SquareLattice::square(spec.side),
        HubbardParams::paper_validation(spec.l),
    );
    generate_fields(spec.l, spec.n_sites(), spec.sweeps, spec.seed)
        .into_iter()
        .enumerate()
        .map(|(sweep, field)| {
            let mut task = MatrixTask::new(sweep, field, spec.c, spec.pattern, spec.seed);
            task.run(Parallelism::Serial, &builder, &trace_measure)
                .expect("clean reference run");
            task.into_quantities().1
        })
        .collect()
}

#[test]
fn service_bins_match_static_scatter_bitwise() {
    let job_spec = spec("bitwise", 6, 4242);
    let reference = reference_bins(&job_spec);

    // The service (work-stealing, any worker count) must reproduce the
    // reference bins bit for bit.
    for workers in [1usize, 2, 3] {
        let service = Service::start(ServiceConfig::small(workers));
        let outcome = service
            .handle()
            .submit(job_spec.clone())
            .expect("admitted")
            .wait();
        service.shutdown();
        assert!(!outcome.summary.failed);
        assert_eq!(outcome.bins.len(), job_spec.sweeps);
        for (sweep, quantities) in &outcome.bins {
            assert_eq!(
                quantities, &reference[*sweep],
                "workers={workers} sweep={sweep}: stealing must match the static reference bitwise"
            );
        }
    }

    // And the paper-literal Alg. 3 driver agrees on the ordered sum.
    let builder = BlockBuilder::new(
        SquareLattice::square(SIDE),
        HubbardParams::paper_validation(L),
    );
    let cfg = MultiConfig {
        ranks: 2,
        threads_per_rank: 1,
        matrices: job_spec.sweeps,
        c: C,
        pattern: Pattern::Diagonal,
        seed: job_spec.seed,
    };
    let multi = run_multi(&builder, &cfg, &trace_measure).expect("healthy");
    let mut summed = vec![0.0; multi.global_measurements.len()];
    for bin in &reference {
        for (a, v) in summed.iter_mut().zip(bin) {
            *a += v;
        }
    }
    assert_eq!(summed, multi.global_measurements);
}

#[test]
fn saturated_queue_rejects_instead_of_deadlocking() {
    // A single slow worker: the measure hook parks each sweep long
    // enough that queued work cannot drain under the test's feet.
    let mut cfg = ServiceConfig::small(1);
    cfg.queue_capacity = 4;
    let service = Service::start_with(cfg, |s| {
        std::thread::sleep(std::time::Duration::from_millis(30));
        trace_measure(s)
    });
    let handle = service.handle();

    // A job bigger than the queue can never be admitted.
    let oversized = spec("big", 5, 1);
    assert!(matches!(
        handle.submit(oversized),
        Err(AdmitError::QueueFull { capacity: 4, .. })
    ));

    // Fill the queue, then a non-blocking submit must return Err (not
    // hang): the worker is asleep inside sweep 1 of 4.
    let first = handle.submit(spec("filler", 4, 2)).expect("fits");
    let err = handle
        .submit(spec("late", 1, 3))
        .expect_err("queue is full");
    assert!(matches!(err, AdmitError::QueueFull { .. }));

    // The blocking flavor applies backpressure and eventually lands.
    let second = handle
        .submit_blocking(spec("late", 1, 3))
        .expect("admitted");
    let first = first.wait();
    let second = second.wait();
    assert!(!first.summary.failed && !second.summary.failed);
    assert_eq!(first.bins.len(), 4);
    assert_eq!(second.bins.len(), 1);
    service.shutdown();
}

#[test]
fn memory_budget_rejects_oversized_shapes() {
    // Edison model, 24 workers: the paper's N = 576 pure-MPI OOM case
    // must be refused at the door.
    let mut cfg = ServiceConfig::small(24);
    cfg.memory = fsi::selinv::MemoryModel::edison();
    let service = Service::start(cfg);
    let mut big = JobSpec::new("oom", 24, 100, 10, 1, 0); // N = 576
    big.pattern = Pattern::Columns;
    let err = service.handle().submit(big).expect_err("must not fit");
    assert!(matches!(err, AdmitError::MemoryBudget { .. }));
    service.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Structural validation is total: `validate()` accepts exactly the
    /// specs whose dimensions are positive and whose `c` divides `L`.
    #[test]
    fn spec_validation_matches_constraints(
        side in 0usize..4,
        l in 0usize..12,
        c in 0usize..12,
        sweeps in 0usize..4,
    ) {
        let spec = JobSpec::new("prop", side, l, c, sweeps, 0);
        let structurally_ok = side > 0
            && l > 0
            && c > 0
            && sweeps > 0
            && c <= l
            && l.is_multiple_of(c);
        prop_assert_eq!(spec.validate().is_ok(), structurally_ok);
    }
}

/// Fault-injected degradation stays scoped to the sick job.
#[cfg(feature = "fault-inject")]
mod fault_isolation {
    use super::*;
    use fsi::runtime::health::inject::{self, FaultKind, Site, ANY_BLOCK};
    use fsi::runtime::health::Stage;

    #[test]
    fn faulted_job_degrades_alone_neighbors_bitwise_clean() {
        let _guard = inject::test_lock();
        let specs: Vec<JobSpec> = (0..4)
            .map(|i| spec(&format!("tenant-{i}"), 4, 1000 + i as u64))
            .collect();
        let references: Vec<Vec<Vec<f64>>> = specs.iter().map(reference_bins).collect();

        // One NaN, once, at the wrap output boundary of whichever sweep
        // reaches it first.
        inject::arm_times(
            Site {
                stage: Stage::Wrap,
                block: ANY_BLOCK,
                kind: FaultKind::Nan,
            },
            1,
        );
        let service = Service::start(ServiceConfig::small(2));
        let handle = service.handle();
        let handles: Vec<_> = specs
            .iter()
            .map(|s| handle.submit(s.clone()).expect("admitted"))
            .collect();
        let outcomes: Vec<_> = handles.into_iter().map(|h| h.wait()).collect();
        service.shutdown();
        assert_eq!(inject::disarm(), 1, "the fault fired exactly once");

        // Exactly one job descended one ladder rung; every job finished.
        let degraded: Vec<usize> = outcomes
            .iter()
            .enumerate()
            .filter(|(_, o)| o.summary.degradations > 0)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(degraded.len(), 1, "one fault ⇒ one degraded job");
        let sick = degraded[0];
        assert_eq!(outcomes[sick].summary.degradations, 1);
        assert_eq!(outcomes[sick].summary.c_final, C / 2);
        for (i, outcome) in outcomes.iter().enumerate() {
            assert!(!outcome.summary.failed, "job {i} must recover, not fail");
            assert_eq!(outcome.bins.len(), specs[i].sweeps, "job {i} lost bins");
        }

        // Neighbors are bitwise-identical to the clean reference.
        for (i, outcome) in outcomes.iter().enumerate() {
            if i == sick {
                continue;
            }
            for (sweep, quantities) in &outcome.bins {
                assert_eq!(
                    quantities, &references[i][*sweep],
                    "job {i} sweep {sweep}: neighbor of a faulted job must be unperturbed"
                );
            }
        }
    }
}
