//! # fsi-service — Green's-function-as-a-service
//!
//! The paper's Alg. 3 runs one *batch* of independent selected inversions
//! and exits. This crate promotes that driver to a long-running,
//! multi-tenant **simulation service**: callers submit [`JobSpec`]s —
//! `(N, L, c, pattern, sweeps, seed)` — to a bounded queue, a
//! work-stealing scheduler ([`fsi_runtime::StealQueues`]) spreads the
//! per-sweep selected inversions over a pool of workers, and measurement
//! bins stream back to the submitter over a channel as they complete.
//!
//! Three service-tier concerns sit on top of the numerical pipeline:
//!
//! * **Admission control** ([`AdmitError`]): a submission is rejected
//!   with a reason — never silently dropped — when the queue is full,
//!   when the job's per-worker footprint would blow the
//!   [`fsi_selinv::MemoryModel`] budget (the paper's Fig. 9 OOM
//!   analysis, applied at admission time), or when the spec is
//!   malformed. [`ServiceHandle::submit_blocking`] converts queue-full
//!   into backpressure instead.
//! * **Per-tenant metering**: every job carries a tenant tag; completed
//!   bins, estimated flops, and job latency/queue-wait histograms are
//!   recorded both under the global `service.job.*` names and under
//!   `service.tenant.<tenant>.*`, riding the always-on metrics registry.
//! * **Per-job degradation**: a job that trips the health layer shrinks
//!   its *own* cluster size `c` via the §II-C recovery ladder
//!   ([`fsi_selinv::MatrixTask::degrade`]) and retries — the pool is
//!   never poisoned, and neighbor jobs' outputs are bitwise unaffected.
//! * **Durability** (when a state directory is configured, typically
//!   from `$FSI_STATE_DIR`): every admission is journaled write-ahead
//!   and every job checkpoints its completed bins periodically, so
//!   [`Service::recover`] can replay a crashed instance's journal,
//!   re-admit the surviving jobs, and resume each from its last good
//!   checkpoint — with bins bitwise-identical to an uninterrupted run.
//! * **Supervision**: per-job deadlines and [`ServiceHandle::cancel`], a
//!   watchdog that requeues sweeps whose in-flight heartbeat goes stale,
//!   bounded retry-with-backoff after the recovery ladder is exhausted,
//!   and a graceful [`Service::drain`] that checkpoints in-flight work
//!   for a later restart.
//!
//! Results are deterministic: each sweep's field and shift depend only
//! on `(seed, sweep)`, so a job returns bitwise-identical bins no matter
//! how many workers run it, how the stealer migrates its sweeps, or what
//! other tenants share the pool.
//!
//! ```
//! use fsi_service::{JobSpec, Service, ServiceConfig};
//!
//! let service = Service::start(ServiceConfig::small(2));
//! let handle = service.handle();
//! let job = handle
//!     .submit(JobSpec::new("demo", 2, 8, 4, 2, 7))
//!     .expect("admitted");
//! let outcome = job.wait();
//! assert_eq!(outcome.bins.len(), 2);
//! assert!(!outcome.summary.failed);
//! service.shutdown();
//! ```

#![deny(missing_docs)]

mod admission;
mod durability;
mod job;
pub mod killpoint;
mod server;

pub use admission::AdmitError;
pub use job::{JobEvent, JobHandle, JobOutcome, JobSpec, JobSummary};
pub use server::{Service, ServiceConfig, ServiceHandle};
