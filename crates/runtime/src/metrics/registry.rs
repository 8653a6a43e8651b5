//! Metric primitives (sharded counters, gauges, histograms) and the
//! process-wide registry that names them.
//!
//! Everything here is built for an *always-on* hot path: an increment is
//! one relaxed `fetch_add` on a cache-line-padded shard picked by a
//! thread-local index, so concurrent writers on different cores do not
//! bounce a line between them. Reads (snapshots) sum the shards; they are
//! rare and may run concurrently with writers — a snapshot is a moment's
//! view, never a torn count (each shard is read atomically, and counts
//! are only ever added, so a snapshot is a lower bound that some later
//! snapshot will include exactly).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

use crate::trace::Histogram;

/// Number of per-thread shards in a [`Counter`] / [`HistogramMetric`].
/// Threads hash onto shards by a process-assigned index, so up to
/// `SHARDS` concurrent writers proceed with zero line sharing.
pub(crate) const SHARDS: usize = 16;

/// One cache line per shard so neighboring shards never false-share.
#[repr(align(64))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

/// Next metrics shard index handed to a new thread.
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's shard slot, assigned round-robin at first use.
    static SHARD: usize = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS;
}

#[inline]
fn shard_index() -> usize {
    SHARD.with(|&s| s)
}

/// A monotonically increasing event/quantity counter, sharded across
/// `SHARDS` cache lines.
#[derive(Default)]
pub struct Counter {
    shards: [PaddedU64; SHARDS],
}

impl Counter {
    /// Creates a detached counter (not in the registry); registry users
    /// go through [`counter`].
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to the counter (relaxed).
    #[inline]
    pub fn add(&self, n: u64) {
        self.shards[shard_index()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Sums the shards: the counter's current value.
    pub fn value(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// A last-value-wins `f64` gauge (stored as bits in one atomic).
#[derive(Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Creates a detached gauge holding `0.0`.
    pub(crate) fn new() -> Self {
        Gauge {
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Sets the gauge.
    #[inline]
    pub(crate) fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Reads the gauge.
    pub(crate) fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A shard of atomic histogram buckets (one cache-line-aligned block).
#[repr(align(64))]
struct HistShard {
    counts: [AtomicU64; crate::trace::BUCKETS],
    sum: AtomicU64,
}

impl Default for HistShard {
    fn default() -> Self {
        HistShard {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

/// Histograms are bulkier than counters (65 words per shard), so they use
/// fewer shards; recording is still a pair of relaxed adds.
const HIST_SHARDS: usize = 4;

/// A lock-free latency/size histogram with the same 64 power-of-two
/// buckets as [`crate::trace::Histogram`]; shards merge into a plain
/// `Histogram` at snapshot time.
#[derive(Default)]
pub struct HistogramMetric {
    shards: [HistShard; HIST_SHARDS],
}

impl HistogramMetric {
    /// Creates a detached histogram metric.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation (relaxed).
    #[inline]
    pub fn record(&self, value: u64) {
        let shard = &self.shards[shard_index() % HIST_SHARDS];
        shard.counts[Histogram::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        shard.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Merges the shards into an owned [`Histogram`] snapshot.
    pub fn snapshot(&self) -> Histogram {
        let mut h = Histogram::new();
        let mut sum = 0u64;
        for shard in &self.shards {
            for (i, c) in shard.counts.iter().enumerate() {
                let c = c.load(Ordering::Relaxed);
                if c > 0 {
                    h.record_bucket(i, c);
                }
            }
            sum = sum.saturating_add(shard.sum.load(Ordering::Relaxed));
        }
        h.set_sum(sum);
        h
    }
}

/// A registered metric handle.
enum Slot {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static HistogramMetric),
}

impl Slot {
    fn kind(&self) -> &'static str {
        match self {
            Slot::Counter(_) => "counter",
            Slot::Gauge(_) => "gauge",
            Slot::Histogram(_) => "histogram",
        }
    }
}

static REGISTRY: OnceLock<Mutex<BTreeMap<String, Slot>>> = OnceLock::new();

fn registry() -> MutexGuard<'static, BTreeMap<String, Slot>> {
    REGISTRY
        .get_or_init(|| Mutex::new(BTreeMap::new()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Returns the registered counter named `name`, creating it on first use.
/// Handles are `&'static` (metrics live for the process) so hot sites
/// resolve the name once and increment forever after with no lock.
///
/// # Panics
/// Panics if `name` is already registered as a different metric kind.
pub fn counter(name: &str) -> &'static Counter {
    let mut reg = registry();
    match reg
        .entry(name.to_string())
        .or_insert_with(|| Slot::Counter(Box::leak(Box::new(Counter::new()))))
    {
        Slot::Counter(c) => c,
        other => panic!("metric {name:?} is a {}, not a counter", other.kind()),
    }
}

/// Returns the registered gauge named `name`, creating it on first use.
///
/// # Panics
/// Panics if `name` is already registered as a different metric kind.
pub fn gauge(name: &str) -> &'static Gauge {
    let mut reg = registry();
    match reg
        .entry(name.to_string())
        .or_insert_with(|| Slot::Gauge(Box::leak(Box::new(Gauge::new()))))
    {
        Slot::Gauge(g) => g,
        other => panic!("metric {name:?} is a {}, not a gauge", other.kind()),
    }
}

/// Returns the registered histogram named `name`, creating it on first
/// use.
///
/// # Panics
/// Panics if `name` is already registered as a different metric kind.
pub fn histogram(name: &str) -> &'static HistogramMetric {
    let mut reg = registry();
    match reg
        .entry(name.to_string())
        .or_insert_with(|| Slot::Histogram(Box::leak(Box::new(HistogramMetric::new()))))
    {
        Slot::Histogram(h) => h,
        other => panic!("metric {name:?} is a {}, not a histogram", other.kind()),
    }
}

/// A counter handle resolvable in a `static`: the registry lookup runs
/// once on first use, increments after that are lock-free.
///
/// ```
/// use fsi_runtime::metrics::LazyCounter;
/// static CALLS: LazyCounter = LazyCounter::new("example.calls");
/// CALLS.inc();
/// ```
pub struct LazyCounter {
    name: &'static str,
    cell: OnceLock<&'static Counter>,
}

impl LazyCounter {
    /// Declares a counter named `name` without touching the registry.
    pub const fn new(name: &'static str) -> Self {
        LazyCounter {
            name,
            cell: OnceLock::new(),
        }
    }

    /// The underlying registered counter.
    #[inline]
    pub(crate) fn get(&self) -> &'static Counter {
        self.cell.get_or_init(|| counter(self.name))
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.get().add(n);
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.get().inc();
    }
}

/// A gauge handle resolvable in a `static` (see [`LazyCounter`]).
pub struct LazyGauge {
    name: &'static str,
    cell: OnceLock<&'static Gauge>,
}

impl LazyGauge {
    /// Declares a gauge named `name` without touching the registry.
    pub const fn new(name: &'static str) -> Self {
        LazyGauge {
            name,
            cell: OnceLock::new(),
        }
    }

    /// The underlying registered gauge.
    #[inline]
    pub(crate) fn get(&self) -> &'static Gauge {
        self.cell.get_or_init(|| gauge(self.name))
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.get().set(v);
    }
}

/// A histogram handle resolvable in a `static` (see [`LazyCounter`]).
pub struct LazyHistogram {
    name: &'static str,
    cell: OnceLock<&'static HistogramMetric>,
}

impl LazyHistogram {
    /// Declares a histogram named `name` without touching the registry.
    pub const fn new(name: &'static str) -> Self {
        LazyHistogram {
            name,
            cell: OnceLock::new(),
        }
    }

    /// The underlying registered histogram.
    #[inline]
    pub(crate) fn get(&self) -> &'static HistogramMetric {
        self.cell.get_or_init(|| histogram(self.name))
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        self.get().record(value);
    }
}

/// One consistent view of every registered metric.
pub(super) struct RegistryView {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, f64>,
    pub histograms: BTreeMap<String, Histogram>,
}

/// Reads every registered metric under the registry lock (values are
/// each read atomically; see the module docs for the consistency model).
pub(super) fn read_all() -> RegistryView {
    let reg = registry();
    let mut view = RegistryView {
        counters: BTreeMap::new(),
        gauges: BTreeMap::new(),
        histograms: BTreeMap::new(),
    };
    for (name, slot) in reg.iter() {
        match slot {
            Slot::Counter(c) => {
                view.counters.insert(name.clone(), c.value());
            }
            Slot::Gauge(g) => {
                view.gauges.insert(name.clone(), g.get());
            }
            Slot::Histogram(h) => {
                view.histograms.insert(name.clone(), h.snapshot());
            }
        }
    }
    view
}
