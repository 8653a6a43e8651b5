//! Always-on process metrics: a named registry of lock-free counters,
//! gauges, and log-bucket histograms, plus the health flight recorder.
//!
//! The trace layer ([`crate::trace`]) answers "where did *this run's*
//! time and flops go" — opt-in, post-hoc, file-oriented — and is the
//! only stage and kernel timer. This module is the complementary
//! *service* view of counts, levels and sizes the ROADMAP's
//! Green's-function-as-a-service tier needs: cheap enough to leave on in
//! release builds (a counter increment is one relaxed `fetch_add` on a
//! thread-sharded cache line), queryable at any moment via
//! [`snapshot`], and exportable to Prometheus text exposition
//! ([`MetricsSnapshot::to_prometheus`]).
//!
//! ## Naming
//!
//! Metric names are dotted paths, `<crate>.<subsystem>.<what>`:
//! `dense.gemm_batched.batch`, `selinv.cluster_cache.hits`,
//! `dqmc.recovery.invalidate_caches`, `runtime.pool.utilization`. The
//! Prometheus exporter maps dots to underscores and prefixes `fsi_`.
//!
//! ## Snapshot / delta
//!
//! [`snapshot`] reads every registered metric into a
//! [`MetricsSnapshot`]; [`MetricsSnapshot::delta_since`] subtracts an
//! earlier snapshot so a driver can attribute counts to one sweep, one
//! job, or one tenant without resetting anything (counters are
//! monotonic and never reset).
//!
//! ## Flight recorder
//!
//! [`flight`] keeps a fixed ring of recent span closures, health
//! events, and recovery rungs, and dumps it (NDJSON) whenever a
//! [`crate::HealthEvent`] fires or the recovery ladder escalates — see
//! the module docs. An incident is one [`flight::record`] call under
//! one name: the counter, the ring entry and (tracing on) the collector
//! span all carry it.

pub mod flight;
mod registry;

pub use registry::{
    counter, gauge, histogram, Counter, Gauge, HistogramMetric, LazyCounter, LazyGauge,
    LazyHistogram,
};

use std::collections::BTreeMap;

use crate::trace::Histogram;

/// A point-in-time view of every registered metric.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram contents by name.
    pub histograms: BTreeMap<String, Histogram>,
}

/// Captures the current value of every registered metric.
pub fn snapshot() -> MetricsSnapshot {
    let view = registry::read_all();
    MetricsSnapshot {
        counters: view.counters,
        gauges: view.gauges,
        histograms: view.histograms,
    }
}

impl MetricsSnapshot {
    /// Counter value by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value by name (`None` when absent).
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// The change since `earlier`: counters and histograms are
    /// subtracted (saturating — a metric born after `earlier` reports
    /// its full value), gauges keep their current reading (a gauge is a
    /// level, not a flow).
    pub fn delta_since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let mut out = self.clone();
        for (name, v) in out.counters.iter_mut() {
            *v = v.saturating_sub(earlier.counter(name));
        }
        for (name, h) in out.histograms.iter_mut() {
            if let Some(base) = earlier.histograms.get(name) {
                h.subtract(base);
            }
        }
        out
    }

    /// Renders the snapshot in the Prometheus text exposition format.
    /// Dotted names become underscored and gain an `fsi_` prefix;
    /// histograms render as cumulative `_bucket{le="..."}` series with
    /// `_sum` / `_count`, using each bucket's upper bound in nanoseconds
    /// as its `le` label.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let n = prom_name(name);
            out.push_str(&format!("# TYPE {n} counter\n{n} {v}\n"));
        }
        for (name, v) in &self.gauges {
            let n = prom_name(name);
            out.push_str(&format!("# TYPE {n} gauge\n{n} {}\n", fmt_f64(*v)));
        }
        for (name, h) in &self.histograms {
            let n = prom_name(name);
            out.push_str(&format!("# TYPE {n} histogram\n"));
            let mut cum = 0u64;
            for (i, c) in h.nonzero_buckets() {
                cum += c;
                let (_, hi) = Histogram::bucket_bounds(i);
                out.push_str(&format!("{n}_bucket{{le=\"{hi}\"}} {cum}\n"));
            }
            out.push_str(&format!("{n}_bucket{{le=\"+Inf\"}} {cum}\n"));
            out.push_str(&format!("{n}_sum {}\n", h.sum()));
            out.push_str(&format!("{n}_count {}\n", h.count()));
        }
        out
    }
}

/// Maps a dotted metric name onto the Prometheus grammar:
/// `dense.gemm.flops` → `fsi_dense_gemm_flops`.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    out.push_str("fsi_");
    for c in name.chars() {
        out.push(if c.is_ascii_alphanumeric() { c } else { '_' });
    }
    out
}

/// `f64` formatting without ever producing `NaN`-adjacent surprises in
/// the exposition (`inf`/`NaN` render as Prometheus' `+Inf`/`NaN`).
fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".into()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.into()
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_register_and_accumulate() {
        let c = counter("test.mod.counter_a");
        c.add(3);
        c.inc();
        assert!(counter("test.mod.counter_a").value() >= 4);
        // Same name returns the same handle.
        assert!(std::ptr::eq(c, counter("test.mod.counter_a")));
    }

    #[test]
    fn gauges_last_write_and_high_water() {
        let g = gauge("test.mod.gauge_a");
        g.set(2.5);
        assert_eq!(g.get(), 2.5);
        g.set(1.0);
        assert_eq!(g.get(), 1.0, "the last write wins");
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_mismatch_panics() {
        counter("test.mod.kind_clash");
        gauge("test.mod.kind_clash");
    }

    #[test]
    fn histogram_metric_snapshots_to_plain_histogram() {
        let h = histogram("test.mod.hist_a");
        h.record(100);
        h.record(100_000);
        let snap = h.snapshot();
        assert_eq!(snap.count(), 2);
        assert_eq!(snap.sum(), 100_100);
    }

    #[test]
    fn snapshot_delta_subtracts_counters_and_histograms() {
        let c = counter("test.mod.delta_c");
        let h = histogram("test.mod.delta_h");
        c.add(5);
        h.record(64);
        let before = snapshot();
        c.add(7);
        h.record(64);
        h.record(1024);
        let delta = snapshot().delta_since(&before);
        assert_eq!(delta.counter("test.mod.delta_c"), 7);
        let dh = &delta.histograms["test.mod.delta_h"];
        assert_eq!(dh.count(), 2);
        assert_eq!(dh.sum(), 64 + 1024);
    }

    #[test]
    fn prometheus_exposition_shape() {
        counter("test.mod.prom_c").add(2);
        gauge("test.mod.prom_g").set(1.5);
        histogram("test.mod.prom_h").record(100);
        let text = snapshot().to_prometheus();
        assert!(text.contains("# TYPE fsi_test_mod_prom_c counter"));
        assert!(text.contains("fsi_test_mod_prom_g 1.5"));
        assert!(text.contains("fsi_test_mod_prom_h_bucket{le=\"+Inf\"}"));
        assert!(text.contains("fsi_test_mod_prom_h_count"));
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert_eq!(line.split_whitespace().count(), 2, "line {line:?}");
        }
    }
}
