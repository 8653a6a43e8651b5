//! Property-based tests of the runtime substrate: scheduling equivalence
//! and simulator bounds on arbitrary inputs.

use fsi_runtime::sim::makespan;
use fsi_runtime::{parallel_map, Par, Schedule, ThreadPool};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// parallel_map equals sequential map for any size/schedule/threads.
    #[test]
    fn parallel_map_equals_sequential(
        n in 0usize..200,
        threads in 1usize..6,
        chunk in 1usize..8,
        dynamic in any::<bool>(),
    ) {
        let pool = ThreadPool::new(threads);
        let schedule = if dynamic { Schedule::Dynamic(chunk) } else { Schedule::Static };
        let seq: Vec<u64> = (0..n).map(|i| (i as u64).wrapping_mul(0x9E37)).collect();
        let par = parallel_map(Par::Pool(&pool), n, schedule, |i| {
            (i as u64).wrapping_mul(0x9E37)
        });
        prop_assert_eq!(seq, par);
    }

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
