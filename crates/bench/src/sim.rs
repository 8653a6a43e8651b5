//! Scheduling simulator for thread-scaling experiments on constrained hosts.
//!
//! The paper's scaling figures (Fig. 8 bottom, Fig. 11) were measured on a
//! 12-core Ivy Bridge socket. When the reproduction host exposes fewer
//! cores (CI containers are often single-core), wall-clock speedups cannot
//! be observed directly even though the parallel code paths run and are
//! verified for correctness. The figure harnesses therefore *also* report a
//! simulated makespan: each parallel region's independent task durations are
//! measured sequentially, then replayed through a greedy list scheduler with
//! `T` virtual workers. This reproduces the *shape* of the scaling curves —
//! near-ideal for FSI's flat task loops (b clusters, b² seeds), Amdahl-bound
//! for the "MKL-style" mode whose parallelism lives inside individual dense
//! calls — which is exactly the contrast the paper plots. The substitution
//! is documented in DESIGN.md and flagged in EXPERIMENTS.md output.

/// Greedy list-scheduling makespan: assigns each task (in the given order)
/// to the least-loaded of `workers` virtual workers and returns the final
/// maximum load. With tasks sorted longest-first this is the classic LPT
/// 4/3-approximation; in FSI's loops task order is the loop order, matching
/// the dynamic `parallel_for` schedule.
pub(crate) fn makespan(task_seconds: &[f64], workers: usize) -> f64 {
    assert!(workers > 0, "need at least one worker");
    if task_seconds.is_empty() {
        return 0.0;
    }
    let mut load = vec![0.0f64; workers.min(task_seconds.len())];
    for &t in task_seconds {
        // Index of the least-loaded worker.
        let (idx, _) = load
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("loads are finite"))
            .expect("at least one worker");
        load[idx] += t;
    }
    load.into_iter().fold(0.0, f64::max)
}

/// Amdahl-style model of a kernel whose internal parallel fraction is `f`
/// and whose parallelizable part splits into at most `max_chunks` pieces
/// (granularity limit — a GEMM over `n` columns cannot use more than
/// `n / chunk` threads).
///
/// Returns the modelled time on `workers` threads for a kernel measured at
/// `seq_seconds` on one thread.
pub(crate) fn amdahl(seq_seconds: f64, f: f64, workers: usize, max_chunks: usize) -> f64 {
    assert!((0.0..=1.0).contains(&f), "parallel fraction in [0,1]");
    let effective = workers.min(max_chunks.max(1)) as f64;
    seq_seconds * ((1.0 - f) + f / effective)
}

/// A recorded parallel region: the independent task durations of one
/// `parallel_for` loop, plus any serial time around it.
#[derive(Debug, Clone, Default)]
pub(crate) struct RegionTrace {
    /// Durations of the region's independent tasks, in seconds.
    pub tasks: Vec<f64>,
    /// Serial work attached to the region (runs on one thread regardless).
    pub serial: f64,
}

impl RegionTrace {
    /// Simulated execution time of this region on `workers` threads.
    pub(crate) fn simulated(&self, workers: usize) -> f64 {
        self.serial + makespan(&self.tasks, workers)
    }

    /// Total sequential time (1 worker).
    pub(crate) fn sequential(&self) -> f64 {
        self.serial + self.tasks.iter().sum::<f64>()
    }
}

/// A whole algorithm trace: regions execute one after another (each region
/// is a fork/join barrier, like an OpenMP parallel-do).
#[derive(Debug, Clone, Default)]
pub(crate) struct AlgorithmTrace {
    /// The fork/join regions in execution order.
    pub regions: Vec<RegionTrace>,
}

impl AlgorithmTrace {
    /// Adds a region from raw task durations.
    pub(crate) fn push_region(&mut self, tasks: Vec<f64>, serial: f64) {
        self.regions.push(RegionTrace { tasks, serial });
    }

    /// Simulated time on `workers` threads.
    pub(crate) fn simulated(&self, workers: usize) -> f64 {
        self.regions.iter().map(|r| r.simulated(workers)).sum()
    }

    /// Sequential time.
    pub(crate) fn sequential(&self) -> f64 {
        self.regions.iter().map(|r| r.sequential()).sum()
    }

    /// Speedup at `workers` threads relative to sequential execution.
    pub(crate) fn speedup(&self, workers: usize) -> f64 {
        let s = self.simulated(workers);
        if s <= 0.0 {
            return 1.0;
        }
        self.sequential() / s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn makespan_single_worker_is_sum() {
        let t = [1.0, 2.0, 3.0];
        assert!((makespan(&t, 1) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn makespan_uniform_tasks_scale_ideally() {
        let t = vec![1.0; 12];
        assert!((makespan(&t, 12) - 1.0).abs() < 1e-12);
        assert!((makespan(&t, 6) - 2.0).abs() < 1e-12);
        assert!((makespan(&t, 4) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn makespan_is_bounded_by_longest_task() {
        let t = [5.0, 0.1, 0.1, 0.1];
        assert!(makespan(&t, 8) >= 5.0);
        // And never better than sum/workers.
        assert!(makespan(&t, 2) >= 5.3 / 2.0);
    }

    #[test]
    fn makespan_empty_is_zero() {
        assert_eq!(makespan(&[], 4), 0.0);
    }

    #[test]
    fn makespan_monotone_in_workers() {
        let t: Vec<f64> = (1..20).map(|i| (i % 5 + 1) as f64).collect();
        let mut prev = f64::INFINITY;
        for w in 1..16 {
            let m = makespan(&t, w);
            assert!(m <= prev + 1e-12, "not monotone at {w}");
            prev = m;
        }
    }

    #[test]
    fn amdahl_limits() {
        // Fully parallel, no granularity limit: ideal scaling.
        assert!((amdahl(12.0, 1.0, 12, usize::MAX) - 1.0).abs() < 1e-12);
        // Fully serial: no scaling.
        assert!((amdahl(10.0, 0.0, 12, usize::MAX) - 10.0).abs() < 1e-12);
        // Granularity cap: 12 workers but only 3 chunks.
        assert!((amdahl(9.0, 1.0, 12, 3) - 3.0).abs() < 1e-12);
        // Classic Amdahl: f = 0.5, many workers → half the time remains.
        let t = amdahl(8.0, 0.5, 1000, usize::MAX);
        assert!((t - 4.004).abs() < 0.01);
    }

    #[test]
    fn trace_speedup_contrast_fsi_vs_mkl_style() {
        // FSI-like: 100 equal independent tasks → near-ideal speedup.
        let mut fsi = AlgorithmTrace::default();
        fsi.push_region(vec![0.01; 100], 0.0);
        let s12 = fsi.speedup(12);
        assert!(s12 > 10.0, "flat task loop should scale: {s12}");
        // MKL-style: a serial chain with a small parallelizable tail
        // behaves like Amdahl with small f.
        let mut mkl = AlgorithmTrace::default();
        for _ in 0..20 {
            mkl.push_region(vec![0.004; 2], 0.04);
        }
        let s12 = mkl.speedup(12);
        assert!(s12 < 1.5, "serial-dominated trace must not scale: {s12}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Makespan respects the two classical lower bounds and the
        /// one-worker upper bound.
        #[test]
        fn makespan_bounds(tasks in prop::collection::vec(0.001f64..1.0, 0..40), workers in 1usize..16) {
            let total: f64 = tasks.iter().sum();
            let longest = tasks.iter().cloned().fold(0.0, f64::max);
            let m = makespan(&tasks, workers);
            prop_assert!(m >= longest - 1e-12, "below longest task");
            prop_assert!(m >= total / workers as f64 - 1e-9, "below mean load");
            prop_assert!(m <= total + 1e-12, "above serial time");
            // Greedy list scheduling is a 2-approximation of the optimum,
            // which is itself ≥ max(longest, total/workers).
            let lower = longest.max(total / workers as f64);
            prop_assert!(m <= 2.0 * lower + 1e-9, "worse than 2x optimum bound");
        }
    }
}
