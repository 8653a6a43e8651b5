//! Data-parallel loops over index ranges — the `!$omp parallel do` analog.
//!
//! The FSI algorithm's parallel structure is two flat loops: the clustering
//! stage iterates over `b` independent clusters and the wrapping stage over
//! `b²` independent seeds (paper §III-B). Both map directly onto
//! [`parallel_for`] / [`parallel_map`] with either static (contiguous chunk
//! per thread, OpenMP `schedule(static)`) or dynamic (atomic work counter,
//! OpenMP `schedule(dynamic,chunk)`) scheduling.
//!
//! These loops are the whole surface; there is no two-way fork. The DQMC
//! sweep, the one phase that once forked its two spin channels, keeps a
//! single channel at half filling and runs two one after the other
//! otherwise, each channel using the loops above.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::pool::Par;

/// Loop-scheduling policy, mirroring OpenMP's `schedule` clause.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Schedule {
    /// Split the iteration space into one contiguous chunk per thread.
    /// Lowest overhead; best when iterations are uniform (CLS clusters).
    Static,
    /// Threads pull chunks of the given size off an atomic counter.
    /// Best when iteration cost varies (wrapping seeds near boundaries).
    Dynamic(usize),
}

impl Schedule {
    /// A dynamic schedule with chunk size 1.
    pub const fn dynamic() -> Self {
        Schedule::Dynamic(1)
    }
}

/// Runs `f(i)` for every `i in 0..n` using the parallelism selector `par`.
///
/// `f` only receives the index; any output must go through interior
/// mutability or per-index disjoint data the caller arranges. For producing
/// one value per index, prefer [`parallel_map`].
pub fn parallel_for<F>(par: Par<'_>, n: usize, schedule: Schedule, f: F)
where
    F: Fn(usize) + Sync,
{
    let Some(pool) = par.pool() else {
        for i in 0..n {
            f(i);
        }
        return;
    };
    let threads = pool.size().min(n.max(1));
    if threads <= 1 || n <= 1 {
        for i in 0..n {
            f(i);
        }
        return;
    }
    let f = &f;
    match schedule {
        Schedule::Static => {
            // ceil-divided contiguous ranges, one per participating thread.
            let chunk = n.div_ceil(threads);
            pool.scope(|s| {
                for t in 0..threads {
                    let lo = t * chunk;
                    let hi = ((t + 1) * chunk).min(n);
                    if lo >= hi {
                        break;
                    }
                    s.spawn(move || {
                        for i in lo..hi {
                            f(i);
                        }
                    });
                }
            });
        }
        Schedule::Dynamic(chunk) => {
            let chunk = chunk.max(1);
            let next = AtomicUsize::new(0);
            let next = &next;
            pool.scope(|s| {
                for _ in 0..threads {
                    s.spawn(move || loop {
                        let lo = next.fetch_add(chunk, Ordering::Relaxed);
                        if lo >= n {
                            break;
                        }
                        let hi = (lo + chunk).min(n);
                        for i in lo..hi {
                            f(i);
                        }
                    });
                }
            });
        }
    }
}

/// Computes `f(i)` for every `i in 0..n` and collects the results in index
/// order.
///
/// Results are written into pre-sized slots guarded by a mutex-free protocol:
/// each index is produced exactly once, so a `Mutex<Vec<Option<T>>>` would be
/// uncontended; we use one anyway for simplicity since locking happens once
/// per O(N³)-flop work item.
pub fn parallel_map<T, F>(par: Par<'_>, n: usize, schedule: Schedule, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if par.pool().is_none() || n <= 1 {
        return (0..n).map(f).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    parallel_for(par, n, schedule, |i| {
        let v = f(i);
        *slots[i].lock().expect("parallel_map slot poisoned") = Some(v);
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("parallel_map slot poisoned")
                .expect("parallel_map produced no value for an index")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::ThreadPool;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn sequential_for_covers_range() {
        let hits = AtomicU64::new(0);
        parallel_for(Par::Seq, 100, Schedule::Static, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn static_schedule_covers_every_index_once() {
        let pool = ThreadPool::new(4);
        let flags: Vec<AtomicU64> = (0..97).map(|_| AtomicU64::new(0)).collect();
        parallel_for(Par::Pool(&pool), 97, Schedule::Static, |i| {
            flags[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, f) in flags.iter().enumerate() {
            assert_eq!(f.load(Ordering::Relaxed), 1, "index {i}");
        }
    }

    #[test]
    fn dynamic_schedule_covers_every_index_once() {
        let pool = ThreadPool::new(4);
        let flags: Vec<AtomicU64> = (0..101).map(|_| AtomicU64::new(0)).collect();
        parallel_for(Par::Pool(&pool), 101, Schedule::Dynamic(3), |i| {
            flags[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, f) in flags.iter().enumerate() {
            assert_eq!(f.load(Ordering::Relaxed), 1, "index {i}");
        }
    }

    #[test]
    fn map_preserves_index_order() {
        let pool = ThreadPool::new(4);
        let v = parallel_map(Par::Pool(&pool), 64, Schedule::dynamic(), |i| i * i);
        assert_eq!(v.len(), 64);
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, i * i);
        }
    }

    #[test]
    fn map_sequential_matches_parallel() {
        let pool = ThreadPool::new(3);
        let seq = parallel_map(Par::Seq, 33, Schedule::Static, |i| 3 * i + 1);
        let par = parallel_map(Par::Pool(&pool), 33, Schedule::Static, |i| 3 * i + 1);
        assert_eq!(seq, par);
    }

    #[test]
    fn empty_and_singleton_ranges() {
        let pool = ThreadPool::new(2);
        let v: Vec<usize> = parallel_map(Par::Pool(&pool), 0, Schedule::Static, |i| i);
        assert!(v.is_empty());
        let v = parallel_map(Par::Pool(&pool), 1, Schedule::Static, |i| i + 7);
        assert_eq!(v, vec![7]);
    }

    #[test]
    fn more_threads_than_items() {
        let pool = ThreadPool::new(8);
        let v = parallel_map(Par::Pool(&pool), 3, Schedule::Static, |i| i);
        assert_eq!(v, vec![0, 1, 2]);
    }
}
