//! Property-based tests of the runtime substrate: scheduling equivalence
//! on arbitrary inputs.

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
}
