//! Run reports: the NDJSON and Chrome `trace_event` exporters.
//!
//! A [`RunReport`] is the serializable snapshot of one traced run: every
//! finished span, the per-name latency histograms, worker utilization from
//! the thread pool, and a small meta header. The NDJSON form (one JSON
//! object per line, see `results/schema.md` at the workspace root) is the
//! stable machine-readable format; the Chrome form is a convenience view
//! loadable in `chrome://tracing` / Perfetto. Both are hand-rolled on the
//! tiny [`super::json`] model so the workspace stays dependency-free.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::time::{SystemTime, UNIX_EPOCH};

use super::histogram::Histogram;
use super::json::Json;
use super::span;
use crate::pool::ThreadPool;

/// NDJSON schema version; bump when a record shape changes.
pub(crate) const SCHEMA_VERSION: u32 = 1;

/// One finished span as exported (owned strings so parsed reports and
/// captured reports are the same type).
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRow {
    /// Unique span id within the run.
    pub id: u64,
    /// Id of the enclosing span, if any.
    pub parent: Option<u64>,
    /// Stage or kernel label.
    pub name: String,
    /// Small index of the thread that ran the span.
    pub thread: u64,
    /// Start time in nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub dur_ns: u64,
    /// Flops charged to the span, inclusive of children.
    pub flops: u64,
    /// Bytes charged to the span, inclusive of children.
    pub bytes: u64,
}

impl SpanRow {
    /// Duration in seconds.
    pub(crate) fn seconds(&self) -> f64 {
        self.dur_ns as f64 / 1e9
    }
}

/// Per-worker utilization as exported.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkerRow {
    /// Worker index (1-based; worker 0 is the scope-calling thread, which
    /// is not tracked here).
    pub worker: u64,
    /// Nanoseconds spent executing jobs.
    pub busy_ns: u64,
    /// Nanoseconds spent waiting for jobs.
    pub idle_ns: u64,
    /// Number of jobs executed.
    pub jobs: u64,
}

/// Aggregate over all spans sharing a name.
#[derive(Clone, Debug, PartialEq)]
pub struct StageTotal {
    /// Span name.
    pub name: String,
    /// Total wall seconds across invocations.
    pub seconds: f64,
    /// Total flops (inclusive of children).
    pub flops: u64,
    /// Total bytes (inclusive of children).
    pub bytes: u64,
    /// Invocation count.
    pub count: u64,
}

impl StageTotal {
    /// Attained rate in Gflop/s.
    pub(crate) fn gflops(&self) -> f64 {
        if self.seconds <= 0.0 {
            0.0
        } else {
            self.flops as f64 / self.seconds / 1e9
        }
    }
}

/// The full serializable snapshot of one traced run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunReport {
    /// Schema version of the NDJSON format.
    pub schema: u32,
    /// Name of the producing harness (e.g. `fig8_top`).
    pub command: String,
    /// Thread count the run was configured with.
    pub threads: u64,
    /// Capture time, milliseconds since the Unix epoch.
    pub unix_ms: u64,
    /// Every finished span, in completion order.
    pub spans: Vec<SpanRow>,
    /// Per-name latency histograms.
    pub histograms: Vec<(String, Histogram)>,
    /// Thread-pool worker utilization (empty if no pool was attached).
    pub workers: Vec<WorkerRow>,
    /// Pending jobs in the pool queue at capture time.
    pub queue_depth: u64,
    /// Spans not exported because the collector cap was reached.
    pub dropped: u64,
}

impl RunReport {
    /// Drains the global span collector into a report. `command` names the
    /// producing harness; `threads` defaults to [`crate::default_threads`]
    /// until [`RunReport::with_pool`] overrides it.
    pub fn capture(command: &str) -> RunReport {
        let data = span::drain();
        RunReport {
            schema: SCHEMA_VERSION,
            command: command.to_string(),
            threads: crate::default_threads() as u64,
            unix_ms: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_millis() as u64)
                .unwrap_or(0),
            spans: data
                .records
                .into_iter()
                .map(|r| SpanRow {
                    id: r.id,
                    parent: r.parent,
                    name: r.name.to_string(),
                    thread: r.thread,
                    start_ns: r.start_ns,
                    dur_ns: r.dur_ns,
                    flops: r.flops,
                    bytes: r.bytes,
                })
                .collect(),
            histograms: data
                .histograms
                .into_iter()
                .map(|(name, h)| (name.to_string(), h))
                .collect(),
            workers: Vec::new(),
            queue_depth: 0,
            dropped: data.dropped,
        }
    }

    /// Attaches worker utilization and queue depth from a pool.
    pub fn with_pool(mut self, pool: &ThreadPool) -> Self {
        let stats = pool.stats();
        self.threads = stats.threads as u64;
        self.queue_depth = stats.queue_depth as u64;
        self.workers = stats
            .workers
            .iter()
            .enumerate()
            .map(|(i, w)| WorkerRow {
                worker: i as u64 + 1,
                busy_ns: w.busy.as_nanos() as u64,
                idle_ns: w.idle.as_nanos() as u64,
                jobs: w.jobs,
            })
            .collect();
        self
    }

    /// Aggregates spans by name, in name order.
    pub(crate) fn stage_totals(&self) -> Vec<StageTotal> {
        let mut by_name: BTreeMap<&str, StageTotal> = BTreeMap::new();
        for row in &self.spans {
            let t = by_name.entry(&row.name).or_insert_with(|| StageTotal {
                name: row.name.clone(),
                seconds: 0.0,
                flops: 0,
                bytes: 0,
                count: 0,
            });
            t.seconds += row.seconds();
            t.flops += row.flops;
            t.bytes += row.bytes;
            t.count += 1;
        }
        by_name.into_values().collect()
    }

    /// Total wall seconds over spans named `name`.
    pub fn seconds_of(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|r| r.name == name)
            .map(SpanRow::seconds)
            .sum()
    }

    /// Total flops (inclusive) over spans named `name`.
    pub fn flops_of(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|r| r.name == name)
            .map(|r| r.flops)
            .sum()
    }

    /// Number of spans named `name` — the span-as-counter idiom the cluster
    /// cache uses (`cls.cache_hit` / `cls.cache_miss` occurrences).
    pub fn count_of(&self, name: &str) -> usize {
        self.spans.iter().filter(|r| r.name == name).count()
    }

    /// Structural signature of the span tree, one entry per span in
    /// completion order: `path flops=F bytes=B`, where `path` is the
    /// slash-joined ancestor chain. Ids, timestamps, and thread indices
    /// are excluded, so two identical serial runs produce identical
    /// signatures (the determinism contract tested in
    /// `tests/observability.rs`).
    pub fn tree_signature(&self) -> Vec<String> {
        let names: BTreeMap<u64, (&str, Option<u64>)> = self
            .spans
            .iter()
            .map(|r| (r.id, (r.name.as_str(), r.parent)))
            .collect();
        self.spans
            .iter()
            .map(|r| {
                let mut path = vec![r.name.as_str()];
                let mut cur = r.parent;
                while let Some(id) = cur {
                    match names.get(&id) {
                        Some((name, parent)) => {
                            path.push(name);
                            cur = *parent;
                        }
                        None => break, // parent fell outside the capture
                    }
                }
                path.reverse();
                format!("{} flops={} bytes={}", path.join("/"), r.flops, r.bytes)
            })
            .collect()
    }

    /// Renders the per-stage table harnesses print (name, calls, wall
    /// seconds, Gflop/s, p50/p99 latency from the histograms).
    pub fn stage_table(&self) -> String {
        let hists: BTreeMap<&str, &Histogram> = self
            .histograms
            .iter()
            .map(|(n, h)| (n.as_str(), h))
            .collect();
        let mut out = String::new();
        out.push_str(&format!(
            "{:<14} {:>8} {:>12} {:>10} {:>11} {:>11}\n",
            "span", "calls", "wall (s)", "Gflop/s", "p50", "p99"
        ));
        for t in self.stage_totals() {
            let (p50, p99) = hists
                .get(t.name.as_str())
                .map(|h| (h.quantile(0.5), h.quantile(0.99)))
                .unwrap_or((0, 0));
            out.push_str(&format!(
                "{:<14} {:>8} {:>12.6} {:>10.3} {:>11} {:>11}\n",
                t.name,
                t.count,
                t.seconds,
                t.gflops(),
                format_ns(p50),
                format_ns(p99),
            ));
        }
        out
    }

    /// Serializes to NDJSON (see `results/schema.md`).
    pub(crate) fn to_ndjson(&self) -> String {
        let mut out = String::new();
        Json::Obj(vec![
            ("kind".into(), Json::Str("meta".into())),
            ("schema".into(), Json::Int(self.schema as u64)),
            ("command".into(), Json::Str(self.command.clone())),
            ("threads".into(), Json::Int(self.threads)),
            ("unix_ms".into(), Json::Int(self.unix_ms)),
            ("queue_depth".into(), Json::Int(self.queue_depth)),
            ("dropped".into(), Json::Int(self.dropped)),
        ])
        .write(&mut out);
        out.push('\n');
        for s in &self.spans {
            Json::Obj(vec![
                ("kind".into(), Json::Str("span".into())),
                ("id".into(), Json::Int(s.id)),
                (
                    "parent".into(),
                    s.parent.map(Json::Int).unwrap_or(Json::Null),
                ),
                ("name".into(), Json::Str(s.name.clone())),
                ("thread".into(), Json::Int(s.thread)),
                ("start_ns".into(), Json::Int(s.start_ns)),
                ("dur_ns".into(), Json::Int(s.dur_ns)),
                ("flops".into(), Json::Int(s.flops)),
                ("bytes".into(), Json::Int(s.bytes)),
            ])
            .write(&mut out);
            out.push('\n');
        }
        for (name, h) in &self.histograms {
            let buckets = h
                .nonzero_buckets()
                .map(|(i, c)| Json::Arr(vec![Json::Int(i as u64), Json::Int(c)]))
                .collect();
            Json::Obj(vec![
                ("kind".into(), Json::Str("hist".into())),
                ("name".into(), Json::Str(name.clone())),
                ("sum_ns".into(), Json::Int(h.sum())),
                ("buckets".into(), Json::Arr(buckets)),
            ])
            .write(&mut out);
            out.push('\n');
        }
        for w in &self.workers {
            Json::Obj(vec![
                ("kind".into(), Json::Str("worker".into())),
                ("worker".into(), Json::Int(w.worker)),
                ("busy_ns".into(), Json::Int(w.busy_ns)),
                ("idle_ns".into(), Json::Int(w.idle_ns)),
                ("jobs".into(), Json::Int(w.jobs)),
            ])
            .write(&mut out);
            out.push('\n');
        }
        out
    }

    /// Parses the NDJSON form back into a report (exact inverse of
    /// `to_ndjson`).
    pub fn parse_ndjson(text: &str) -> Result<RunReport, String> {
        let mut report = RunReport::default();
        let mut saw_meta = false;
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let v = Json::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
            let bad = |what: &str| format!("line {}: missing/invalid {what}", lineno + 1);
            let u = |key: &str| v.get(key).and_then(Json::as_u64).ok_or_else(|| bad(key));
            match v.get("kind").and_then(Json::as_str) {
                Some("meta") => {
                    saw_meta = true;
                    report.schema = u("schema")? as u32;
                    report.command = v
                        .get("command")
                        .and_then(Json::as_str)
                        .ok_or_else(|| bad("command"))?
                        .to_string();
                    report.threads = u("threads")?;
                    report.unix_ms = u("unix_ms")?;
                    report.queue_depth = u("queue_depth")?;
                    report.dropped = u("dropped")?;
                }
                Some("span") => report.spans.push(SpanRow {
                    id: u("id")?,
                    parent: match v.get("parent") {
                        Some(Json::Null) | None => None,
                        Some(p) => Some(p.as_u64().ok_or_else(|| bad("parent"))?),
                    },
                    name: v
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or_else(|| bad("name"))?
                        .to_string(),
                    thread: u("thread")?,
                    start_ns: u("start_ns")?,
                    dur_ns: u("dur_ns")?,
                    flops: u("flops")?,
                    bytes: u("bytes")?,
                }),
                Some("hist") => {
                    let name = v
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or_else(|| bad("name"))?
                        .to_string();
                    let mut h = Histogram::new();
                    for pair in v
                        .get("buckets")
                        .and_then(Json::as_array)
                        .ok_or_else(|| bad("buckets"))?
                    {
                        let pair = pair.as_array().ok_or_else(|| bad("buckets"))?;
                        let (Some(i), Some(c)) = (
                            pair.first().and_then(Json::as_u64),
                            pair.get(1).and_then(Json::as_u64),
                        ) else {
                            return Err(bad("buckets"));
                        };
                        h.record_bucket(i as usize, c);
                    }
                    h.set_sum(u("sum_ns")?);
                    report.histograms.push((name, h));
                }
                Some("worker") => report.workers.push(WorkerRow {
                    worker: u("worker")?,
                    busy_ns: u("busy_ns")?,
                    idle_ns: u("idle_ns")?,
                    jobs: u("jobs")?,
                }),
                Some(other) => return Err(format!("line {}: unknown kind {other:?}", lineno + 1)),
                None => return Err(bad("kind")),
            }
        }
        if !saw_meta {
            return Err("no meta record".to_string());
        }
        Ok(report)
    }

    /// Serializes to Chrome `trace_event` JSON (open in `chrome://tracing`
    /// or Perfetto). Span rows become complete (`"ph":"X"`) events; worker
    /// rows become metadata counters in `args`.
    pub(crate) fn to_chrome_trace(&self) -> String {
        let mut events: Vec<Json> = self
            .spans
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(s.name.clone())),
                    ("cat".into(), Json::Str("fsi".into())),
                    ("ph".into(), Json::Str("X".into())),
                    ("ts".into(), Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur".into(), Json::Num(s.dur_ns as f64 / 1e3)),
                    ("pid".into(), Json::Int(1)),
                    ("tid".into(), Json::Int(s.thread)),
                    (
                        "args".into(),
                        Json::Obj(vec![
                            ("flops".into(), Json::Int(s.flops)),
                            ("bytes".into(), Json::Int(s.bytes)),
                        ]),
                    ),
                ])
            })
            .collect();
        for w in &self.workers {
            events.push(Json::Obj(vec![
                ("name".into(), Json::Str(format!("worker-{}", w.worker))),
                ("cat".into(), Json::Str("pool".into())),
                ("ph".into(), Json::Str("M".into())),
                ("pid".into(), Json::Int(1)),
                ("tid".into(), Json::Int(w.worker)),
                (
                    "args".into(),
                    Json::Obj(vec![
                        ("busy_ns".into(), Json::Int(w.busy_ns)),
                        ("idle_ns".into(), Json::Int(w.idle_ns)),
                        ("jobs".into(), Json::Int(w.jobs)),
                    ]),
                ),
            ]));
        }
        Json::Obj(vec![
            ("traceEvents".into(), Json::Arr(events)),
            ("displayTimeUnit".into(), Json::Str("ms".into())),
        ])
        .to_string()
    }

    /// Writes the NDJSON form to `path`, creating parent directories.
    pub fn write_ndjson(&self, path: &Path) -> io::Result<()> {
        write_creating_dirs(path, &self.to_ndjson())
    }

    /// Writes the Chrome trace form to `path`, creating parent
    /// directories.
    pub fn write_chrome_trace(&self, path: &Path) -> io::Result<()> {
        write_creating_dirs(path, &self.to_chrome_trace())
    }
}

fn write_creating_dirs(path: &Path, contents: &str) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    std::fs::write(path, contents)
}

fn format_ns(ns: u64) -> String {
    if ns == 0 {
        "-".to_string()
    } else if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> RunReport {
        let mut h = Histogram::new();
        h.record(1_500);
        h.record(90_000);
        RunReport {
            schema: SCHEMA_VERSION,
            command: "test".into(),
            threads: 4,
            unix_ms: 1_700_000_000_000,
            spans: vec![
                SpanRow {
                    id: 1,
                    parent: None,
                    name: "fsi".into(),
                    thread: 0,
                    start_ns: 0,
                    dur_ns: 100_000,
                    flops: 300,
                    bytes: 64,
                },
                SpanRow {
                    id: 2,
                    parent: Some(1),
                    name: "cls".into(),
                    thread: 0,
                    start_ns: 10,
                    dur_ns: 60_000,
                    flops: 200,
                    bytes: 32,
                },
            ],
            histograms: vec![("fsi".into(), h)],
            workers: vec![WorkerRow {
                worker: 1,
                busy_ns: 75,
                idle_ns: 25,
                jobs: 3,
            }],
            queue_depth: 0,
            dropped: 0,
        }
    }

    #[test]
    fn ndjson_round_trips_exactly() {
        let report = sample_report();
        let text = report.to_ndjson();
        let parsed = RunReport::parse_ndjson(&text).unwrap();
        assert_eq!(parsed, report);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(RunReport::parse_ndjson("").is_err());
        assert!(RunReport::parse_ndjson("{\"kind\":\"span\"}").is_err());
        assert!(RunReport::parse_ndjson("not json").is_err());
    }

    #[test]
    fn stage_totals_aggregate_by_name() {
        let mut report = sample_report();
        report.spans.push(SpanRow {
            id: 3,
            parent: Some(1),
            name: "cls".into(),
            thread: 1,
            start_ns: 70_000,
            dur_ns: 40_000,
            flops: 100,
            bytes: 0,
        });
        let totals = report.stage_totals();
        let cls = totals.iter().find(|t| t.name == "cls").unwrap();
        assert_eq!(cls.count, 2);
        assert_eq!(cls.flops, 300);
        assert!((cls.seconds - 1e-4).abs() < 1e-12);
        assert!(cls.gflops() > 0.0);
        assert_eq!(report.flops_of("cls"), 300);
        assert!(report.seconds_of("fsi") > 0.0);
    }

    #[test]
    fn tree_signature_ignores_ids_and_threads() {
        let a = sample_report();
        let mut b = sample_report();
        for s in &mut b.spans {
            s.id += 100;
            s.parent = s.parent.map(|p| p + 100);
            s.thread += 7;
            s.start_ns += 999;
        }
        assert_eq!(a.tree_signature(), b.tree_signature());
        assert_eq!(a.tree_signature()[1], "fsi/cls flops=200 bytes=32");
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let text = sample_report().to_chrome_trace();
        let v = Json::parse(&text).unwrap();
        let events = v.get("traceEvents").and_then(Json::as_array).unwrap();
        assert_eq!(events.len(), 3); // 2 spans + 1 worker
        assert_eq!(events[0].get("ph").unwrap().as_str(), Some("X"));
    }

    #[test]
    fn stage_table_lists_all_stages() {
        let table = sample_report().stage_table();
        assert!(table.contains("cls"));
        assert!(table.contains("fsi"));
        assert!(table.contains("Gflop/s"));
    }
}
