//! Golden tests of the two public exporters: a `RunReport` parsed from a
//! fixed NDJSON text must write back the same NDJSON and a fixed Chrome
//! `trace_event` document, and a hand-built `MetricsSnapshot` must render
//! a fixed Prometheus exposition, byte for byte. Any change to a record
//! shape, a key order or a number format shows up here as a diff.

use std::path::PathBuf;

use fsi_runtime::metrics::MetricsSnapshot;
use fsi_runtime::trace::Histogram;
use fsi_runtime::RunReport;

/// A small run: a root span, a child, a grandchild on a second thread, a
/// zero-length marker, a span whose name needs escaping, two histograms
/// and two pool workers.
const NDJSON: &str = concat!(
    r#"{"kind":"meta","schema":1,"command":"golden","threads":2,"unix_ms":1700000000000,"queue_depth":3,"dropped":1}"#,
    "\n",
    r#"{"kind":"span","id":2,"parent":1,"name":"cls","thread":0,"start_ns":10,"dur_ns":60000,"flops":200,"bytes":32}"#,
    "\n",
    r#"{"kind":"span","id":3,"parent":2,"name":"gemm","thread":1,"start_ns":1500,"dur_ns":999,"flops":128,"bytes":0}"#,
    "\n",
    r#"{"kind":"span","id":4,"parent":1,"name":"health.non_finite","thread":0,"start_ns":70001,"dur_ns":0,"flops":0,"bytes":0}"#,
    "\n",
    r#"{"kind":"span","id":5,"parent":null,"name":"odd \"name\"\\x","thread":0,"start_ns":123456789,"dur_ns":7,"flops":0,"bytes":8}"#,
    "\n",
    r#"{"kind":"span","id":1,"parent":null,"name":"fsi","thread":0,"start_ns":0,"dur_ns":100000,"flops":300,"bytes":64}"#,
    "\n",
    r#"{"kind":"hist","name":"cls","sum_ns":60000,"buckets":[[15,1]]}"#,
    "\n",
    r#"{"kind":"hist","name":"fsi","sum_ns":101500,"buckets":[[10,1],[16,1]]}"#,
    "\n",
    r#"{"kind":"worker","worker":1,"busy_ns":75,"idle_ns":25,"jobs":3}"#,
    "\n",
    r#"{"kind":"worker","worker":2,"busy_ns":0,"idle_ns":100,"jobs":0}"#,
    "\n",
);

const CHROME: &str = concat!(
    r#"{"traceEvents":["#,
    r#"{"name":"cls","cat":"fsi","ph":"X","ts":0.01,"dur":60,"pid":1,"tid":0,"args":{"flops":200,"bytes":32}},"#,
    r#"{"name":"gemm","cat":"fsi","ph":"X","ts":1.5,"dur":0.999,"pid":1,"tid":1,"args":{"flops":128,"bytes":0}},"#,
    r#"{"name":"health.non_finite","cat":"fsi","ph":"X","ts":70.001,"dur":0,"pid":1,"tid":0,"args":{"flops":0,"bytes":0}},"#,
    r#"{"name":"odd \"name\"\\x","cat":"fsi","ph":"X","ts":123456.789,"dur":0.007,"pid":1,"tid":0,"args":{"flops":0,"bytes":8}},"#,
    r#"{"name":"fsi","cat":"fsi","ph":"X","ts":0,"dur":100,"pid":1,"tid":0,"args":{"flops":300,"bytes":64}},"#,
    r#"{"name":"worker-1","cat":"pool","ph":"M","pid":1,"tid":1,"args":{"busy_ns":75,"idle_ns":25,"jobs":3}},"#,
    r#"{"name":"worker-2","cat":"pool","ph":"M","pid":1,"tid":2,"args":{"busy_ns":0,"idle_ns":100,"jobs":0}}"#,
    r#"],"displayTimeUnit":"ms"}"#,
);

const PROMETHEUS: &str = "\
# TYPE fsi_dqmc_recovery_invalidate_caches counter
fsi_dqmc_recovery_invalidate_caches 3
# TYPE fsi_service_jobs_completed counter
fsi_service_jobs_completed 0
# TYPE fsi_tenant_a_b_jobs counter
fsi_tenant_a_b_jobs 18446744073709551615
# TYPE fsi_runtime_pool_utilization gauge
fsi_runtime_pool_utilization 0.625
# TYPE fsi_service_queue_depth gauge
fsi_service_queue_depth 12
# TYPE fsi_test_gauge_inf gauge
fsi_test_gauge_inf +Inf
# TYPE fsi_test_gauge_nan gauge
fsi_test_gauge_nan NaN
# TYPE fsi_test_gauge_neg_inf gauge
fsi_test_gauge_neg_inf -Inf
# TYPE fsi_service_job_latency_ns histogram
fsi_service_job_latency_ns_bucket{le=\"2\"} 2
fsi_service_job_latency_ns_bucket{le=\"2048\"} 3
fsi_service_job_latency_ns_bucket{le=\"1048576\"} 5
fsi_service_job_latency_ns_bucket{le=\"+Inf\"} 5
fsi_service_job_latency_ns_sum 2001501
fsi_service_job_latency_ns_count 5
# TYPE fsi_test_empty histogram
fsi_test_empty_bucket{le=\"+Inf\"} 0
fsi_test_empty_sum 0
fsi_test_empty_count 0
";

fn scratch_file(name: &str) -> PathBuf {
    std::env::temp_dir()
        .join(format!("fsi-golden-exporters-{}", std::process::id()))
        .join(name)
}

#[test]
fn run_report_ndjson_and_chrome_trace_are_pinned() {
    let report = RunReport::parse_ndjson(NDJSON).expect("the fixed text parses");
    let ndjson = scratch_file("golden.trace.ndjson");
    let chrome = scratch_file("golden.trace.json");
    report.write_ndjson(&ndjson).expect("write ndjson");
    report
        .write_chrome_trace(&chrome)
        .expect("write chrome trace");
    let ndjson_text = std::fs::read_to_string(&ndjson).expect("read ndjson");
    let chrome_text = std::fs::read_to_string(&chrome).expect("read chrome trace");
    let _ = std::fs::remove_dir_all(ndjson.parent().expect("scratch dir"));
    assert_eq!(ndjson_text, NDJSON);
    assert_eq!(chrome_text, CHROME);
}

#[test]
fn prometheus_exposition_is_pinned() {
    let mut snap = MetricsSnapshot::default();
    snap.counters.insert("service.jobs.completed".into(), 0);
    snap.counters
        .insert("dqmc.recovery.invalidate_caches".into(), 3);
    snap.counters.insert("tenant.a-b.jobs".into(), u64::MAX);
    snap.gauges.insert("runtime.pool.utilization".into(), 0.625);
    snap.gauges.insert("service.queue.depth".into(), 12.0);
    snap.gauges.insert("test.gauge.nan".into(), f64::NAN);
    snap.gauges.insert("test.gauge.inf".into(), f64::INFINITY);
    snap.gauges
        .insert("test.gauge.neg_inf".into(), f64::NEG_INFINITY);
    let mut latency = Histogram::new();
    for ns in [0, 1, 1_500, 1_000_000, 1_000_000] {
        latency.record(ns);
    }
    snap.histograms
        .insert("service.job.latency_ns".into(), latency);
    snap.histograms
        .insert("test.empty".into(), Histogram::new());
    assert_eq!(snap.to_prometheus(), PROMETHEUS);
}
