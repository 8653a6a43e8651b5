//! # fsi-runtime — HPC runtime substrate for the FSI workspace
//!
//! The FSI paper (Jiang, Bai, Scalettar, IPDPS 2016) parallelizes the
//! selected-inversion kernel with a *hybrid MPI/OpenMP* model: MPI ranks own
//! independent Hubbard matrices (coarse grain) while OpenMP threads
//! parallelize the clustering and wrapping loops inside one matrix (fine
//! grain). This crate provides Rust-native equivalents of both layers so the
//! rest of the workspace can reproduce the paper's parallel experiments on a
//! single machine:
//!
//! * [`ThreadPool`] — a persistent worker pool with scoped execution,
//!   [`ThreadPool::scope`], and data-parallel loops ([`parallel_for`],
//!   [`parallel_map`]) with static or dynamic scheduling. This is the
//!   OpenMP analog: pools of an exact size are created for the thread-count
//!   sweeps of Fig. 8 (bottom) and Fig. 11.
//! * [`steal`] — per-worker task deques with Cilk-style steal-half load
//!   balancing. This is the MPI analog: the multi-matrix driver (Alg. 3,
//!   the Fig. 9 hybrid sweep) seeds one deque per rank with the paper's
//!   block distribution, and the service tier schedules tenant jobs through
//!   the same [`StealQueues`], so mixed-shape jobs cannot strand a rank
//!   idle.
//! * [`flops`] — analytic floating-point-operation accounting. The paper
//!   reports Gflop/s rates for each FSI stage; our dense kernels charge
//!   their textbook flop counts to the open trace span so harnesses can
//!   report the same rates without hardware performance counters.
//! * [`timing`] — stopwatches and named-section profiles used by the
//!   figure-regeneration harnesses.
//! * [`workspace`] — thread-local reusable scratch buffers: the packed
//!   GEMM engine and the blocked QR application borrow their pack/reflector
//!   workspaces from a per-thread pool instead of allocating per call.
//! * [`trace`] — structured tracing: hierarchical spans with span-scoped
//!   flop/byte counters, log-bucket latency histograms, pool utilization,
//!   and NDJSON / Chrome `trace_event` exporters. Enabled with `FSI_TRACE`
//!   (`1`/`stages` or `2`/`kernels`); off by default at near-zero cost.
//! * [`metrics`] — always-on process metrics: a named registry of
//!   lock-free sharded counters, gauges, and histograms with
//!   snapshot/delta semantics and a Prometheus exporter, plus the
//!   health **flight recorder** — a ring of recent span closures, health
//!   events, and recovery rungs dumped automatically on incidents. Stage
//!   and kernel time is read off trace spans only.
//!
//! The crate is dependency-free apart from the vendored channel used by
//! the pool and has no knowledge of linear algebra; it sits at the bottom
//! of the workspace dependency graph.

#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod ckpt;
pub mod flops;
pub mod health;
pub mod metrics;
pub mod parallel;
pub mod pool;
pub mod steal;
pub mod timing;
pub mod trace;
pub mod workspace;

pub use health::{FsiResult, HealthEvent, Stage};
pub use metrics::MetricsSnapshot;
pub use parallel::{parallel_for, parallel_map, Schedule};
pub use pool::{Par, ScopeHandle, ThreadPool};
pub use steal::StealQueues;
pub use timing::{Profile, Stopwatch};
pub use trace::{RunReport, SpanGuard, SpanStats, TraceLevel};

/// Returns the number of hardware threads available to this process.
///
/// Used as the default pool size when the `FSI_NUM_THREADS` environment
/// variable is not set.
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Returns the default thread count: `FSI_NUM_THREADS` if set and valid,
/// otherwise [`hardware_threads`].
pub fn default_threads() -> usize {
    std::env::var("FSI_NUM_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(hardware_threads)
}
