//! Persistent thread pool with scoped execution — the OpenMP analog.
//!
//! The pool owns `size - 1` background workers plus the calling thread,
//! mirroring OpenMP's fork/join model where the master thread participates in
//! the parallel region. Work is submitted through [`ThreadPool::scope`]:
//! jobs spawned inside a scope may borrow from the enclosing stack frame, and
//! the scope does not return until every job has finished (a completion latch
//! guarantees this, which is what makes the lifetime erasure inside sound).
//!
//! While a scope waits for its jobs it *helps*: it pops pending jobs off the
//! shared queue and runs them. This makes nested scopes (a parallel loop
//! whose body calls a parallel dense kernel) deadlock-free, at the cost of a
//! busy-ish wait bounded by job granularity. FSI jobs are O(N³) block
//! operations, so the helping loop overhead is negligible.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam_channel::{unbounded, Receiver, Sender};

type Job = Box<dyn FnOnce() + Send>;

/// Parallelism selector threaded through the dense kernels.
///
/// The paper evaluates two execution styles on a single socket:
/// "FSI + OpenMP" (coarse loops parallel, dense kernels sequential) and
/// "pure MKL" (coarse loops sequential, dense kernels multi-threaded).
/// `Par` lets callers pick per call site which style a kernel runs under.
#[derive(Clone, Copy)]
pub enum Par<'p> {
    /// Run sequentially on the calling thread.
    Seq,
    /// Run on the given pool (the calling thread participates).
    Pool(&'p ThreadPool),
}

impl<'p> Par<'p> {
    /// Number of threads this selector will use (1 for [`Par::Seq`]).
    pub fn threads(&self) -> usize {
        match self {
            Par::Seq => 1,
            Par::Pool(p) => p.size(),
        }
    }

    /// Returns the pool if parallel.
    pub fn pool(&self) -> Option<&'p ThreadPool> {
        match self {
            Par::Seq => None,
            Par::Pool(p) => Some(p),
        }
    }
}

/// Live utilization counters for one background worker.
struct WorkerStat {
    busy_ns: AtomicU64,
    idle_ns: AtomicU64,
    jobs: AtomicU64,
}

/// Snapshot of one background worker's utilization (see
/// [`ThreadPool::stats`]).
#[derive(Clone, Debug)]
pub(crate) struct WorkerStats {
    /// Time spent executing jobs.
    pub busy: Duration,
    /// Time spent waiting for jobs.
    pub idle: Duration,
    /// Jobs executed.
    pub jobs: u64,
}

/// Utilization snapshot of a whole pool (see [`ThreadPool::stats`]).
///
/// Covers the `size - 1` background workers; the scope-calling thread's
/// time shows up in trace spans instead. `queue_depth` is the number of
/// jobs queued but not yet picked up at snapshot time.
#[derive(Clone, Debug)]
pub(crate) struct PoolStats {
    /// One entry per background worker, in spawn order.
    pub workers: Vec<WorkerStats>,
    /// Jobs waiting in the shared queue right now.
    pub queue_depth: usize,
    /// Total pool size including the scope-calling thread.
    pub threads: usize,
}

struct PoolShared {
    tx: Sender<Job>,
    rx: Receiver<Job>,
    /// Set when the pool is dropped so workers exit.
    shutdown: AtomicBool,
    /// Utilization counters, one per background worker.
    stats: Vec<WorkerStat>,
}

/// A fixed-size persistent worker pool.
///
/// ```
/// use fsi_runtime::ThreadPool;
/// let pool = ThreadPool::new(4);
/// let mut out = vec![0usize; 16];
/// pool.scope(|s| {
///     for (i, slot) in out.iter_mut().enumerate() {
///         s.spawn(move || *slot = i * i);
///     }
/// });
/// assert_eq!(out[5], 25);
/// ```
pub struct ThreadPool {
    shared: Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    size: usize,
}

impl ThreadPool {
    /// Creates a pool that runs jobs on `size` threads total: `size - 1`
    /// background workers plus the thread that calls [`ThreadPool::scope`].
    ///
    /// `size == 1` yields a pool with no background workers; scopes then
    /// execute every job inline, which makes single-thread baselines exact.
    ///
    /// # Panics
    /// Panics if `size == 0`.
    pub fn new(size: usize) -> Self {
        assert!(size > 0, "thread pool must have at least one thread");
        let (tx, rx) = unbounded::<Job>();
        let shared = Arc::new(PoolShared {
            tx,
            rx,
            shutdown: AtomicBool::new(false),
            stats: (1..size)
                .map(|_| WorkerStat {
                    busy_ns: AtomicU64::new(0),
                    idle_ns: AtomicU64::new(0),
                    jobs: AtomicU64::new(0),
                })
                .collect(),
        });
        let workers = (1..size)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("fsi-pool-{w}"))
                    .spawn(move || worker_loop(&shared, w - 1))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        ThreadPool {
            shared,
            workers,
            size,
        }
    }

    /// Total thread count including the scope-calling thread.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Snapshots worker utilization (busy vs. idle time, jobs executed)
    /// and the current queue depth. Counters accumulate over the pool's
    /// lifetime; diff two snapshots to measure a region.
    pub(crate) fn stats(&self) -> PoolStats {
        let stats = PoolStats {
            workers: self
                .shared
                .stats
                .iter()
                .map(|s| WorkerStats {
                    busy: Duration::from_nanos(s.busy_ns.load(Ordering::Relaxed)),
                    idle: Duration::from_nanos(s.idle_ns.load(Ordering::Relaxed)),
                    jobs: s.jobs.load(Ordering::Relaxed),
                })
                .collect(),
            queue_depth: self.shared.rx.len(),
            threads: self.size,
        };
        // Publish the aggregate view to the always-on metrics registry so
        // a service snapshot sees pool health without holding a pool ref.
        let (busy, idle) = stats.workers.iter().fold((0.0f64, 0.0f64), |(b, i), w| {
            (b + w.busy.as_secs_f64(), i + w.idle.as_secs_f64())
        });
        static UTILIZATION: crate::metrics::LazyGauge =
            crate::metrics::LazyGauge::new("runtime.pool.utilization");
        static QUEUE_DEPTH: crate::metrics::LazyGauge =
            crate::metrics::LazyGauge::new("runtime.pool.queue_depth");
        if busy + idle > 0.0 {
            UTILIZATION.set(busy / (busy + idle));
        }
        QUEUE_DEPTH.set(stats.queue_depth as f64);
        stats
    }

    /// Runs `f` with a [`ScopeHandle`] on which jobs borrowing from the
    /// current stack frame may be spawned; returns only after all spawned
    /// jobs have completed.
    ///
    /// If any job panics, the panic is re-raised on the calling thread after
    /// all other jobs have drained (so borrowed data is never accessed after
    /// the scope unwinds).
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: FnOnce(&ScopeHandle<'_, 'env>) -> R,
    {
        let latch = Arc::new(ScopeLatch {
            pending: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
        });
        let handle = ScopeHandle {
            pool: self,
            latch: Arc::clone(&latch),
            _env: std::marker::PhantomData,
        };
        let result = f(&handle);
        // Help-while-waiting: execute queued jobs (possibly from unrelated
        // scopes — jobs are self-contained, so this is safe) until our latch
        // clears.
        while latch.pending.load(Ordering::Acquire) != 0 {
            match self.shared.rx.try_recv() {
                Ok(job) => job(),
                Err(_) => std::thread::yield_now(),
            }
        }
        if latch.panicked.load(Ordering::Acquire) {
            panic!("a job spawned in a ThreadPool scope panicked");
        }
        result
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // Wake the workers with no-op jobs so they observe the flag.
        for _ in 0..self.workers.len() {
            let _ = self.shared.tx.send(Box::new(|| {}));
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &PoolShared, index: usize) {
    let stat = &shared.stats[index];
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let wait = Instant::now();
        let received = shared.rx.recv_timeout(Duration::from_millis(50));
        stat.idle_ns
            .fetch_add(wait.elapsed().as_nanos() as u64, Ordering::Relaxed);
        match received {
            Ok(job) => {
                let run = Instant::now();
                job();
                stat.busy_ns
                    .fetch_add(run.elapsed().as_nanos() as u64, Ordering::Relaxed);
                stat.jobs.fetch_add(1, Ordering::Relaxed);
                static POOL_JOBS: crate::metrics::LazyCounter =
                    crate::metrics::LazyCounter::new("runtime.pool.jobs");
                POOL_JOBS.inc();
            }
            Err(crossbeam_channel::RecvTimeoutError::Timeout) => {}
            Err(crossbeam_channel::RecvTimeoutError::Disconnected) => return,
        }
    }
}

struct ScopeLatch {
    pending: AtomicUsize,
    panicked: AtomicBool,
}

/// Handle for spawning borrowed jobs inside a [`ThreadPool::scope`].
///
/// `'scope` is the lifetime of the scope body; `'env` is the enclosing
/// environment jobs are allowed to borrow from.
pub struct ScopeHandle<'scope, 'env: 'scope> {
    pool: &'scope ThreadPool,
    latch: Arc<ScopeLatch>,
    _env: std::marker::PhantomData<&'scope mut &'env ()>,
}

impl<'scope, 'env> ScopeHandle<'scope, 'env> {
    /// Spawns `f` on the pool. `f` may borrow from the environment of the
    /// enclosing [`ThreadPool::scope`] call.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        self.latch.pending.fetch_add(1, Ordering::AcqRel);
        let latch = Arc::clone(&self.latch);
        // Capture the spawning thread's span context so flops the job
        // charges are attributed to the stage that launched it (None when
        // tracing is off — then with_context is a plain call).
        let ctx = crate::trace::current_context();
        let job: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            let body = || crate::trace::with_context(ctx, f);
            if catch_unwind(AssertUnwindSafe(body)).is_err() {
                latch.panicked.store(true, Ordering::Release);
            }
            latch.pending.fetch_sub(1, Ordering::AcqRel);
        });
        // SAFETY (lifetime erasure): the job may borrow data with lifetime
        // 'env. `ThreadPool::scope` does not return until `latch.pending`
        // drops to zero, i.e. until this job has fully executed, so the
        // borrow cannot outlive the data. Panics are captured and re-raised
        // by the scope, preserving the same guarantee on unwind.
        let job: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(job) };
        if self.pool.size == 1 {
            // No background workers: run inline to avoid queue round-trips.
            job();
        } else {
            self.pool
                .shared
                .tx
                .send(job)
                .expect("thread pool queue closed");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn scope_runs_all_jobs() {
        let pool = ThreadPool::new(4);
        let counter = AtomicU64::new(0);
        pool.scope(|s| {
            for _ in 0..1000 {
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn scope_allows_disjoint_mutable_borrows() {
        let pool = ThreadPool::new(3);
        let mut data = vec![0u64; 64];
        pool.scope(|s| {
            for (i, chunk) in data.chunks_mut(8).enumerate() {
                s.spawn(move || {
                    for x in chunk.iter_mut() {
                        *x = i as u64;
                    }
                });
            }
        });
        assert_eq!(data[0], 0);
        assert_eq!(data[63], 7);
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = ThreadPool::new(1);
        let mut hit = false;
        pool.scope(|s| {
            s.spawn(|| hit = true);
        });
        assert!(hit);
    }

    #[test]
    fn nested_scopes_do_not_deadlock() {
        let pool = ThreadPool::new(2);
        let total = AtomicU64::new(0);
        pool.scope(|s| {
            for _ in 0..8 {
                let total = &total;
                let pool_ref = &pool;
                s.spawn(move || {
                    pool_ref.scope(|inner| {
                        for _ in 0..8 {
                            inner.spawn(|| {
                                total.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 64);
    }

    #[test]
    #[should_panic(expected = "a job spawned in a ThreadPool scope panicked")]
    fn job_panic_propagates() {
        let pool = ThreadPool::new(2);
        pool.scope(|s| {
            s.spawn(|| panic!("boom"));
        });
    }

    #[test]
    fn scope_returns_closure_value() {
        let pool = ThreadPool::new(2);
        let v = pool.scope(|_| 42);
        assert_eq!(v, 42);
    }

    #[test]
    fn par_threads_reports_size() {
        let pool = ThreadPool::new(5);
        assert_eq!(Par::Pool(&pool).threads(), 5);
        assert_eq!(Par::Seq.threads(), 1);
        assert!(Par::Seq.pool().is_none());
        assert!(Par::Pool(&pool).pool().is_some());
    }

    #[test]
    fn sequential_scopes_reuse_workers() {
        let pool = ThreadPool::new(4);
        for round in 0..10 {
            let counter = AtomicU64::new(0);
            pool.scope(|s| {
                for _ in 0..32 {
                    s.spawn(|| {
                        counter.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
            assert_eq!(counter.load(Ordering::Relaxed), 32, "round {round}");
        }
    }
}
