//! Structured tracing and metrics for FSI stages, dense kernels, and DQMC
//! sweeps.
//!
//! The paper's figures are all statements about *where time and flops go*:
//! Fig. 8 splits FSI wall time into CLS / BSOFI / WRP, Fig. 9 reports
//! aggregate Tflop/s across hybrid ranks, Fig. 10 splits a DQMC sweep into
//! Green's-function vs. measurement time. This module is the single
//! instrumentation substrate behind all of those reports:
//!
//! * [`span`] / [`kernel_span`] — hierarchical RAII spans
//!   (`span("fsi")` > `span("cls")` > `kernel_span("gemm")`) with
//!   per-span flop and byte counters. Flops charged via
//!   [`charge_flops`] land on the innermost span of the current
//!   thread, and [`crate::ThreadPool`] propagates span context to worker
//!   threads, so parallel kernels attribute to the stage that launched
//!   them.
//! * [`Histogram`] — fixed log₂-bucket latency histograms, mergeable
//!   across threads and runs.
//! * [`RunReport`] — drains the collector into a serializable snapshot
//!   with two exporters: NDJSON (one record per span; schema in
//!   `results/schema.md`) and Chrome `trace_event` JSON.
//! * `ThreadPool::stats` — busy/idle time per worker and queue depth,
//!   attached to reports via [`RunReport::with_pool`].
//!
//! Tracing is off by default and costs one relaxed atomic load per
//! potential span or charge. The `FSI_TRACE` environment variable (or
//! [`set_level`]) turns it on: `1`/`stages` records stage spans,
//! `2`/`kernels` additionally records every dense-kernel invocation.

mod histogram;
mod json;
mod report;
mod span;

pub use histogram::Histogram;
pub(crate) use histogram::BUCKETS;
pub use json::{Json, JsonError};
pub use report::{RunReport, SpanRow, StageTotal, WorkerRow};
pub use span::{
    charge_bytes, charge_flops, clear, current_context, drain, enabled, kernel_span, level,
    set_level, span, with_context, SpanContext, SpanGuard, SpanRecord, SpanStats, TraceData,
    TraceLevel,
};

#[doc(hidden)]
pub use span::test_lock;

pub(crate) use span::{mark, now_ns, thread_index};

/// Opens a stage span: `let _s = span!("cls");`. Sugar for
/// [`trace::span`](span()).
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::trace::span($name)
    };
}

/// Opens a kernel span: `let _s = kernel_span!("gemm");`. Sugar for
/// [`trace::kernel_span`](kernel_span()).
#[macro_export]
macro_rules! kernel_span {
    ($name:expr) => {
        $crate::trace::kernel_span($name)
    };
}
