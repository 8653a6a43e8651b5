//! Hierarchical spans with span-scoped counters and a thread-safe
//! collector.
//!
//! A span brackets one stage or kernel invocation. Guards nest through a
//! thread-local stack, so `span("fsi")` followed by `span("cls")` records
//! `cls` as a child of `fsi` without any plumbing through call signatures.
//! Each span owns atomic flop/byte counters; [`charge_flops`] adds to the
//! *innermost* span of the current thread, and worker threads inherit the
//! spawning span through [`current_context`] / [`with_context`] (the
//! [`crate::ThreadPool`] does this automatically), so parallel kernels
//! attribute their flops to the stage that launched them. When a guard
//! drops, its totals roll up into the parent, making every recorded flop
//! count *inclusive* of children — matching how the paper reports
//! per-stage Gflop/s.
//!
//! Finished spans are appended to a process-global collector drained by
//! [`drain`] (typically via `RunReport::capture`). Collection is O(1)
//! amortized per span: one mutex push plus a histogram update.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use super::histogram::Histogram;

/// How much of the span hierarchy is recorded.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum TraceLevel {
    /// No spans are recorded; [`span`] and [`kernel_span`] are no-ops.
    Off = 0,
    /// Stage-granularity spans only ([`span`]); kernel spans are no-ops.
    Stages = 1,
    /// Everything, including per-kernel-invocation spans
    /// ([`kernel_span`]).
    Kernels = 2,
}

const LEVEL_UNINIT: u8 = u8::MAX;

/// Current level; lazily initialized from `FSI_TRACE` on first read.
static LEVEL: AtomicU8 = AtomicU8::new(LEVEL_UNINIT);

/// Monotonic time origin for `start_ns` timestamps.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Next span id (ids are unique per process, never reused).
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Next small per-thread index handed out by [`thread_index`].
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

/// Spans kept verbatim before the collector starts counting drops (the
/// per-name histograms and parent rollups still see every span).
const MAX_RECORDS: usize = 1 << 20;

fn parse_env_level() -> u8 {
    match std::env::var("FSI_TRACE") {
        Err(_) => TraceLevel::Off as u8,
        Ok(v) => match v.trim().to_ascii_lowercase().as_str() {
            "" | "0" | "off" | "false" | "no" => TraceLevel::Off as u8,
            "2" | "kernels" | "full" | "all" => TraceLevel::Kernels as u8,
            _ => TraceLevel::Stages as u8,
        },
    }
}

/// Returns the active trace level (reading `FSI_TRACE` on first call:
/// unset/`0`/`off` → [`TraceLevel::Off`], `2`/`kernels`/`full` →
/// [`TraceLevel::Kernels`], anything else → [`TraceLevel::Stages`]).
#[inline]
pub fn level() -> TraceLevel {
    let v = LEVEL.load(Ordering::Relaxed);
    let v = if v == LEVEL_UNINIT {
        let parsed = parse_env_level();
        // Racing initializers compute the same value, so a plain store
        // after re-check is fine; set_level wins if it ran in between.
        let _ = LEVEL.compare_exchange(LEVEL_UNINIT, parsed, Ordering::Relaxed, Ordering::Relaxed);
        LEVEL.load(Ordering::Relaxed)
    } else {
        v
    };
    match v {
        2 => TraceLevel::Kernels,
        1 => TraceLevel::Stages,
        _ => TraceLevel::Off,
    }
}

/// Overrides the trace level for the whole process (harnesses call this so
/// stage flops are attributed even when `FSI_TRACE` is unset).
pub fn set_level(l: TraceLevel) {
    LEVEL.store(l as u8, Ordering::Relaxed);
}

/// True when stage spans are being recorded.
#[inline]
pub fn enabled() -> bool {
    level() >= TraceLevel::Stages
}

/// True when kernel-granularity spans are being recorded.
#[inline]
pub(crate) fn kernels_enabled() -> bool {
    level() >= TraceLevel::Kernels
}

/// Shared per-span state: identity plus live counters that children and
/// worker threads add to concurrently.
struct SpanCtx {
    id: u64,
    name: &'static str,
    parent: Option<u64>,
    flops: AtomicU64,
    bytes: AtomicU64,
}

thread_local! {
    /// Innermost open span of this thread (the charge target).
    static CURRENT: RefCell<Option<Arc<SpanCtx>>> = const { RefCell::new(None) };
    /// Cached small thread index for span records.
    static THREAD_INDEX: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn thread_index() -> u64 {
    THREAD_INDEX.with(|&i| i)
}

pub(crate) fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One finished span as stored by the collector.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique id within this process.
    pub id: u64,
    /// Id of the enclosing span, if any.
    pub parent: Option<u64>,
    /// Static span name (stage or kernel label).
    pub name: &'static str,
    /// Small index of the thread that opened the span.
    pub thread: u64,
    /// Start time in nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub dur_ns: u64,
    /// Flops charged to this span, inclusive of children.
    pub flops: u64,
    /// Bytes charged to this span, inclusive of children.
    pub bytes: u64,
}

/// Everything drained from the collector by [`drain`].
#[derive(Debug, Default)]
pub struct TraceData {
    /// Finished spans in completion order.
    pub records: Vec<SpanRecord>,
    /// Per-name latency histograms (merged across threads).
    pub histograms: BTreeMap<&'static str, Histogram>,
    /// Spans not kept verbatim because `MAX_RECORDS` (2²⁰) was reached; their
    /// durations and flops still appear in histograms and parent rollups.
    pub dropped: u64,
}

#[derive(Default)]
struct Collector {
    records: Vec<SpanRecord>,
    histograms: BTreeMap<&'static str, Histogram>,
    dropped: u64,
}

static COLLECTOR: Mutex<Option<Collector>> = Mutex::new(None);

fn collector() -> MutexGuard<'static, Option<Collector>> {
    // A panic inside a traced region can poison the lock; the data is a
    // plain append log, so recovering it is always safe.
    COLLECTOR.lock().unwrap_or_else(|e| e.into_inner())
}

/// Drains all finished spans and histograms collected so far.
pub fn drain() -> TraceData {
    let mut guard = collector();
    match guard.take() {
        Some(c) => TraceData {
            records: c.records,
            histograms: c.histograms,
            dropped: c.dropped,
        },
        None => TraceData::default(),
    }
}

/// Discards all collected spans and histograms.
pub fn clear() {
    *collector() = None;
}

/// Summary handed back by [`SpanGuard::finish`].
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanStats {
    /// Wall time between open and finish.
    pub wall: Duration,
    /// Flops charged to the span, inclusive of children.
    pub flops: u64,
    /// Bytes charged to the span, inclusive of children.
    pub bytes: u64,
}

impl SpanStats {
    /// Attained rate in Gflop/s (0 for a zero-duration span).
    pub fn gflops(&self) -> f64 {
        let s = self.wall.as_secs_f64();
        if s <= 0.0 {
            0.0
        } else {
            self.flops as f64 / s / 1e9
        }
    }
}

struct GuardInner {
    ctx: Arc<SpanCtx>,
    /// The span this one replaced as the thread's innermost (also the
    /// rollup target).
    prev: Option<Arc<SpanCtx>>,
    start: Instant,
    start_ns: u64,
}

/// RAII guard for an open span; the span is finalized (counters rolled up
/// into the parent, record pushed to the collector) when the guard drops.
///
/// Guards are thread-bound: they must be dropped on the thread that opened
/// them (the type is `!Send`, so the compiler enforces this).
pub struct SpanGuard {
    inner: Option<GuardInner>,
    /// Spans maintain a per-thread stack; keep the guard on its thread.
    _not_send: std::marker::PhantomData<*const ()>,
}

impl SpanGuard {
    fn inactive() -> Self {
        SpanGuard {
            inner: None,
            _not_send: std::marker::PhantomData,
        }
    }

    fn open(name: &'static str) -> Self {
        let parent = CURRENT.with(|c| c.borrow().clone());
        let ctx = Arc::new(SpanCtx {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            name,
            parent: parent.as_ref().map(|p| p.id),
            flops: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        });
        CURRENT.with(|c| *c.borrow_mut() = Some(Arc::clone(&ctx)));
        let start_ns = now_ns();
        SpanGuard {
            inner: Some(GuardInner {
                ctx,
                prev: parent,
                start: Instant::now(),
                start_ns,
            }),
            _not_send: std::marker::PhantomData,
        }
    }

    /// Closes the span now and returns its measured stats (zeroes when the
    /// guard was inactive). Harnesses use this to print per-stage rates
    /// without re-deriving them from the collector.
    pub fn finish(mut self) -> SpanStats {
        self.close().unwrap_or_default()
    }

    fn close(&mut self) -> Option<SpanStats> {
        let inner = self.inner.take()?;
        let wall = inner.start.elapsed();
        let dur_ns = wall.as_nanos() as u64;
        // Pop the thread-local stack before touching shared state.
        CURRENT.with(|c| *c.borrow_mut() = inner.prev.clone());
        let flops = inner.ctx.flops.load(Ordering::Relaxed);
        let bytes = inner.ctx.bytes.load(Ordering::Relaxed);
        // Inclusive rollup: children close before their parent, so by the
        // time the parent reads its own counters they contain the whole
        // subtree.
        if let Some(parent) = &inner.prev {
            parent.flops.fetch_add(flops, Ordering::Relaxed);
            parent.bytes.fetch_add(bytes, Ordering::Relaxed);
        }
        let record = SpanRecord {
            id: inner.ctx.id,
            parent: inner.ctx.parent,
            name: inner.ctx.name,
            thread: thread_index(),
            start_ns: inner.start_ns,
            dur_ns,
            flops,
            bytes,
        };
        // Feed the flight recorder before taking the collector lock so an
        // incident dump triggered between the two still sees this span.
        crate::metrics::flight::record_span(
            record.name,
            record.start_ns,
            record.thread,
            dur_ns,
            flops,
        );
        collect(record);
        Some(SpanStats { wall, flops, bytes })
    }
}

/// Appends a finished span to the collector and its name's histogram.
fn collect(record: SpanRecord) {
    let mut guard = collector();
    let c = guard.get_or_insert_with(Collector::default);
    c.histograms
        .entry(record.name)
        .or_default()
        .record(record.dur_ns);
    if c.records.len() < MAX_RECORDS {
        c.records.push(record);
    } else {
        c.dropped += 1;
    }
}

/// Records a zero-length span `name` under the innermost open span (a
/// no-op when tracing is off). Unlike a closing guard it pushes no
/// flight-ring entry: the incident that calls it has pushed its own.
pub(crate) fn mark(name: &'static str) {
    if !enabled() {
        return;
    }
    collect(SpanRecord {
        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        parent: CURRENT.with(|c| c.borrow().as_ref().map(|p| p.id)),
        name,
        thread: thread_index(),
        start_ns: now_ns(),
        dur_ns: 0,
        flops: 0,
        bytes: 0,
    });
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.close();
    }
}

/// Opens a stage-granularity span (`fsi`, `cls`, `sweep`, …). Returns an
/// inactive guard when tracing is [`TraceLevel::Off`].
pub fn span(name: &'static str) -> SpanGuard {
    if enabled() {
        SpanGuard::open(name)
    } else {
        SpanGuard::inactive()
    }
}

/// Opens a kernel-granularity span (`gemm`, `geqrf`, …). Active only at
/// [`TraceLevel::Kernels`] — per-invocation spans are too hot for the
/// default stage level.
pub fn kernel_span(name: &'static str) -> SpanGuard {
    if kernels_enabled() {
        SpanGuard::open(name)
    } else {
        SpanGuard::inactive()
    }
}

/// Adds `n` flops to the innermost open span of the current thread (no-op
/// when tracing is off or no span is open). The dense kernels charge their
/// analytic counts here, so they need no other instrumentation for
/// attribution.
#[inline]
pub fn charge_flops(n: u64) {
    if level() == TraceLevel::Off {
        return;
    }
    CURRENT.with(|c| {
        if let Some(ctx) = c.borrow().as_ref() {
            ctx.flops.fetch_add(n, Ordering::Relaxed);
        }
    });
}

/// Adds `n` bytes of memory traffic to the innermost open span of the
/// current thread.
#[inline]
pub fn charge_bytes(n: u64) {
    if level() == TraceLevel::Off {
        return;
    }
    CURRENT.with(|c| {
        if let Some(ctx) = c.borrow().as_ref() {
            ctx.bytes.fetch_add(n, Ordering::Relaxed);
        }
    });
}

/// A cloneable handle to an open span, used to carry span identity across
/// threads (see [`with_context`]).
#[derive(Clone)]
pub struct SpanContext(Arc<SpanCtx>);

/// Returns a handle to the innermost open span of the current thread, if
/// tracing is on and a span is open. [`crate::ThreadPool`] captures this at
/// spawn time so jobs charge the span that launched them.
pub fn current_context() -> Option<SpanContext> {
    if level() == TraceLevel::Off {
        return None;
    }
    CURRENT.with(|c| c.borrow().clone()).map(SpanContext)
}

/// Runs `f` with `ctx` installed as the current span of this thread,
/// restoring the previous context afterwards (also on unwind). With `None`
/// this is just `f()`.
pub fn with_context<R>(ctx: Option<SpanContext>, f: impl FnOnce() -> R) -> R {
    let Some(SpanContext(target)) = ctx else {
        return f();
    };
    struct Restore(Option<Arc<SpanCtx>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0.take();
            CURRENT.with(|c| *c.borrow_mut() = prev);
        }
    }
    let prev = CURRENT.with(|c| c.borrow_mut().replace(target));
    let _restore = Restore(prev);
    f()
}

/// Serializes tests that toggle the global trace level or drain the global
/// collector; the test harness runs tests concurrently in one process, so
/// such tests must hold this lock for their whole body.
#[doc(hidden)]
pub fn test_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reset() {
        clear();
        set_level(TraceLevel::Stages);
    }

    #[test]
    fn nested_spans_record_parent_links_and_rollup() {
        let _guard = test_lock();
        reset();
        {
            let outer = span("fsi");
            {
                let _inner = span("cls");
                charge_flops(100);
            }
            {
                let _inner = span("bsofi");
                charge_flops(40);
            }
            charge_flops(2);
            let stats = outer.finish();
            assert_eq!(stats.flops, 142, "parent is inclusive of children");
        }
        let data = drain();
        set_level(TraceLevel::Off);
        assert_eq!(data.records.len(), 3);
        let cls = data.records.iter().find(|r| r.name == "cls").unwrap();
        let fsi = data.records.iter().find(|r| r.name == "fsi").unwrap();
        assert_eq!(cls.parent, Some(fsi.id));
        assert_eq!(cls.flops, 100);
        assert_eq!(fsi.flops, 142);
        assert!(fsi.parent.is_none());
        // Children complete (and are recorded) before the parent.
        assert!(
            data.records.iter().position(|r| r.name == "cls").unwrap()
                < data.records.iter().position(|r| r.name == "fsi").unwrap()
        );
        assert_eq!(data.histograms["fsi"].count(), 1);
    }

    #[test]
    fn off_level_records_nothing() {
        let _guard = test_lock();
        clear();
        set_level(TraceLevel::Off);
        let g = span("ghost");
        assert!(g.inner.is_none());
        charge_flops(5);
        drop(g);
        assert!(drain().records.is_empty());
    }

    #[test]
    fn kernel_spans_gated_by_level() {
        let _guard = test_lock();
        reset();
        assert!(kernel_span("gemm").inner.is_none());
        set_level(TraceLevel::Kernels);
        assert!(kernel_span("gemm").inner.is_some());
        set_level(TraceLevel::Off);
        clear();
    }

    #[test]
    fn context_propagates_across_threads() {
        let _guard = test_lock();
        reset();
        {
            let outer = span("stage");
            let ctx = current_context();
            assert!(ctx.is_some());
            std::thread::scope(|s| {
                for _ in 0..4 {
                    let ctx = ctx.clone();
                    s.spawn(move || {
                        with_context(ctx, || charge_flops(10));
                    });
                }
            });
            assert_eq!(outer.finish().flops, 40);
        }
        let data = drain();
        set_level(TraceLevel::Off);
        assert_eq!(data.records.len(), 1);
        assert_eq!(data.records[0].flops, 40);
    }

    #[test]
    fn finish_returns_wall_time() {
        let _guard = test_lock();
        reset();
        let g = span("timed");
        std::thread::sleep(Duration::from_millis(2));
        let stats = g.finish();
        assert!(stats.wall >= Duration::from_millis(1));
        assert!(stats.gflops() >= 0.0);
        set_level(TraceLevel::Off);
        clear();
    }
}
