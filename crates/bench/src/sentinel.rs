//! The perf-regression sentinel: noise-aware comparison of fresh
//! `BENCH_*` runs against checked-in baselines.
//!
//! The workspace accumulates benchmark artifacts (`results/BENCH_*.json`,
//! `results/validate.json`) but until PR 6 nothing *noticed* when a
//! number got worse. This module is the comparison engine behind
//! `bench_report`: it flattens each benchmark family into named metric
//! samples, attaches a per-family [`Policy`] (relative tolerance for
//! timing-derived rates, exact equality for deterministic counters and
//! model flop counts, absolute ceilings for error/overhead bounds),
//! optionally medians several fresh samples (median-of-k beats the noise
//! floor without tightening tolerances), and produces [`Comparison`]
//! verdicts plus a `BENCH_history.jsonl` trajectory row.
//!
//! Policy calibration: single best-of timings on a shared CI box jitter
//! 10–20%, so timing-derived metrics use 30–35% relative tolerance —
//! wide enough that back-to-back runs agree, tight enough that a real
//! 2× regression (a lost parallelization, an accidental O(N⁴)) always
//! trips. Deterministic metrics (cache hit counts, analytic flops,
//! drill pass rates) use exact equality: any drift there is a logic
//! change, not noise.

use fsi_runtime::trace::Json;

/// How a metric is judged against its baseline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Policy {
    /// Timing-derived rate/speedup: regression when
    /// `fresh < baseline · (1 − rel_tol)`.
    HigherBetter {
        /// Allowed relative shortfall before flagging.
        rel_tol: f64,
    },
    /// Cost-like value: regression when
    /// `fresh > baseline · (1 + rel_tol)`.
    LowerBetter {
        /// Allowed relative excess before flagging.
        rel_tol: f64,
    },
    /// Deterministic value: regression on any difference (to 1e-12).
    Exact,
    /// Bounded value: regression when `fresh > max`, regardless of the
    /// baseline (used for error norms and overhead percentages).
    CeilingAbs {
        /// The inclusive ceiling.
        max: f64,
    },
}

/// One named measurement extracted from a benchmark artifact.
#[derive(Clone, Debug)]
pub struct MetricSample {
    /// Dotted metric name, unique within its family.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// How to judge it.
    pub policy: Policy,
}

fn sample(name: impl Into<String>, value: f64, policy: Policy) -> MetricSample {
    MetricSample {
        name: name.into(),
        value,
        policy,
    }
}

/// The benchmark families the sentinel knows how to read.
pub const FAMILIES: [&str; 7] = [
    "kernels",
    "sweep",
    "bsofi",
    "fault_drill",
    "validate",
    "service",
    "recovery",
];

/// The artifact filename of a family (under `results/` or a baseline
/// dir).
pub fn family_file(family: &str) -> &'static str {
    match family {
        "kernels" => "BENCH_kernels.json",
        "sweep" => "BENCH_sweep.json",
        "bsofi" => "BENCH_bsofi.json",
        "fault_drill" => "BENCH_fault_drill.json",
        "validate" => "validate.json",
        "service" => "BENCH_service.json",
        "recovery" => "BENCH_recovery.json",
        other => panic!("unknown benchmark family {other:?}"),
    }
}

/// Returns the newest run in a document: trajectory files
/// (`{"runs": [...]}`) yield their last element, flat single-run files
/// yield themselves.
pub fn latest_run(doc: &Json) -> &Json {
    match doc.get("runs").and_then(Json::as_array) {
        Some(runs) if !runs.is_empty() => &runs[runs.len() - 1],
        _ => doc,
    }
}

fn num(j: &Json, key: &str) -> Option<f64> {
    j.get(key).and_then(Json::as_f64)
}

/// Relative tolerance for single-shot timing-derived metrics (see the
/// module docs for the calibration argument).
pub const TIMING_REL_TOL: f64 = 0.35;

/// Flattens one family document into judged metric samples.
///
/// # Errors
/// Returns a description when the document lacks the family's expected
/// structure (wrong file, schema drift).
pub fn extract(family: &str, doc: &Json) -> Result<Vec<MetricSample>, String> {
    let run = latest_run(doc);
    let mut out = Vec::new();
    match family {
        "kernels" => {
            let records = run
                .get("records")
                .and_then(Json::as_array)
                .ok_or("kernels: no records[]")?;
            for r in records {
                let name = r.get("name").and_then(Json::as_str).ok_or("record.name")?;
                let size = r.get("size").and_then(Json::as_u64).unwrap_or(0);
                let gf = num(r, "gflops").ok_or("record.gflops")?;
                out.push(sample(
                    format!("{name}_{size}.gflops"),
                    gf,
                    Policy::HigherBetter {
                        rel_tol: TIMING_REL_TOL,
                    },
                ));
            }
            // The batched[] section is optional (absent from pre-PR-7
            // artifacts) so an old baseline still parses; once both sides
            // carry it, the batched rates and speedups are gated like any
            // other timing metric.
            if let Some(batched) = run.get("batched").and_then(Json::as_array) {
                for r in batched {
                    let name = r.get("name").and_then(Json::as_str).ok_or("batched.name")?;
                    let n = r.get("n").and_then(Json::as_u64).unwrap_or(0);
                    let bsz = r.get("batch").and_then(Json::as_u64).unwrap_or(0);
                    let gf = num(r, "gflops").ok_or("batched.gflops")?;
                    out.push(sample(
                        format!("batched.{name}_{n}x{bsz}.gflops"),
                        gf,
                        Policy::HigherBetter {
                            rel_tol: TIMING_REL_TOL,
                        },
                    ));
                    if let Some(sp) = num(r, "speedup") {
                        out.push(sample(
                            format!("batched.{name}_{n}x{bsz}.speedup"),
                            sp,
                            Policy::HigherBetter {
                                rel_tol: TIMING_REL_TOL,
                            },
                        ));
                    }
                }
            }
        }
        "sweep" => {
            let summary = run.get("summary").ok_or("sweep: no summary")?;
            let Json::Obj(fields) = summary else {
                return Err("sweep: summary is not an object".into());
            };
            for (key, value) in fields {
                let Some(v) = value.as_f64() else { continue };
                // steady_* counters accumulate over however many timing
                // reps the best-of budget allowed — machine-speed
                // dependent, so they are informational, not judged.
                if key.starts_with("steady_") {
                    continue;
                }
                let policy = if key.starts_with("cache_") {
                    Policy::Exact
                } else if key.ends_with("_overhead_pct") {
                    Policy::CeilingAbs { max: 2.0 }
                } else {
                    // wraps_per_s_* and *_speedup are timing-derived.
                    Policy::HigherBetter {
                        rel_tol: TIMING_REL_TOL,
                    }
                };
                out.push(sample(format!("summary.{key}"), v, policy));
            }
        }
        "bsofi" => {
            let summary = run.get("summary").ok_or("bsofi: no summary")?;
            let Json::Obj(fields) = summary else {
                return Err("bsofi: summary is not an object".into());
            };
            for (key, value) in fields {
                let Some(v) = value.as_f64() else { continue };
                let policy = if key.starts_with("model_flops") {
                    Policy::Exact
                } else {
                    Policy::HigherBetter {
                        rel_tol: TIMING_REL_TOL,
                    }
                };
                out.push(sample(format!("summary.{key}"), v, policy));
            }
        }
        "fault_drill" => {
            let sites = num(run, "sites").ok_or("fault_drill: sites")?;
            let passed = num(run, "passed").ok_or("fault_drill: passed")?;
            out.push(sample(
                "detect_rate",
                if sites > 0.0 { passed / sites } else { 0.0 },
                Policy::Exact,
            ));
            // probe_overhead_pct is NOT judged: the drill's smoke lane
            // spends only ~0.3 s on that estimate and its noise floor is
            // several percent (schema.md marks it informational only).
            // The gated overhead bound is the sweep's metrics probe.
            if let Some(pct) = num(run, "metrics_overhead_pct") {
                out.push(sample(
                    "metrics_overhead_pct",
                    pct,
                    Policy::CeilingAbs { max: 2.0 },
                ));
            }
            if let Some(rungs) = run.get("sticky_ladder_rungs").and_then(Json::as_array) {
                let total: f64 = rungs.iter().filter_map(Json::as_f64).sum();
                out.push(sample("sticky_ladder_rungs", total, Policy::Exact));
            }
        }
        "validate" => {
            let summary = run.get("summary").ok_or("validate: no summary")?;
            out.push(sample(
                "mean_error",
                num(summary, "mean_error").ok_or("validate: mean_error")?,
                Policy::CeilingAbs { max: 1e-8 },
            ));
            out.push(sample(
                "max_error",
                num(summary, "max_error").ok_or("validate: max_error")?,
                Policy::CeilingAbs { max: 1e-6 },
            ));
            if let Some(p) = summary.get("passed").and_then(Json::as_bool) {
                out.push(sample("passed", p as u64 as f64, Policy::Exact));
            }
            if let Some(stages) = run.get("stages").and_then(Json::as_array) {
                for s in stages {
                    let name = s.get("name").and_then(Json::as_str).ok_or("stage.name")?;
                    if let Some(gf) = num(s, "gflops") {
                        out.push(sample(
                            format!("stage.{name}.gflops"),
                            gf,
                            Policy::HigherBetter {
                                rel_tol: TIMING_REL_TOL,
                            },
                        ));
                    }
                }
            }
        }
        "service" => {
            let summary = run.get("summary").ok_or("service: no summary")?;
            let Json::Obj(fields) = summary else {
                return Err("service: summary is not an object".into());
            };
            for (key, value) in fields {
                let Some(v) = value.as_f64() else { continue };
                let policy = match key.as_str() {
                    // Deterministic accounting: job/bin/degradation
                    // counts and the fault-isolation verdict must not
                    // drift.
                    "jobs" | "bins" | "completed" | "failed_jobs" | "degraded_jobs"
                    | "fault_isolated" => Policy::Exact,
                    // Throughput is timing-derived.
                    "jobs_per_s" => Policy::HigherBetter {
                        rel_tol: TIMING_REL_TOL,
                    },
                    // Latency percentiles are queue-dominated (sweeps
                    // ride a contended deque), so they get a wider
                    // lower-is-better band than kernel timings.
                    k if k.ends_with("_latency_ms") || k.ends_with("_queue_wait_ms") => {
                        Policy::LowerBetter { rel_tol: 0.5 }
                    }
                    // steals / rejected vary with scheduling luck:
                    // informational only.
                    _ => continue,
                };
                out.push(sample(format!("summary.{key}"), v, policy));
            }
        }
        "recovery" => {
            // The crash drill is fully deterministic: every kill site
            // must detect its crash and resume bitwise, every run. Any
            // drop in the detect rate is a durability logic change.
            let sites = num(run, "sites").ok_or("recovery: sites")?;
            let passed = num(run, "passed").ok_or("recovery: passed")?;
            out.push(sample(
                "detect_rate",
                if sites > 0.0 { passed / sites } else { 0.0 },
                Policy::Exact,
            ));
            out.push(sample("sites", sites, Policy::Exact));
        }
        other => return Err(format!("unknown family {other:?}")),
    }
    if out.is_empty() {
        return Err(format!("{family}: no metrics extracted"));
    }
    Ok(out)
}

/// Element-wise median across `k` fresh sample sets of the same family
/// (metrics are matched by name; a metric must appear in every set to
/// survive). With `k = 1` this is the identity.
pub fn median_of_k(mut sets: Vec<Vec<MetricSample>>) -> Vec<MetricSample> {
    if sets.len() <= 1 {
        return sets.pop().unwrap_or_default();
    }
    let first = sets[0].clone();
    first
        .into_iter()
        .filter_map(|m| {
            let mut values: Vec<f64> = sets
                .iter()
                .filter_map(|s| s.iter().find(|x| x.name == m.name).map(|x| x.value))
                .collect();
            if values.len() != sets.len() {
                return None;
            }
            values.sort_by(|a, b| a.total_cmp(b));
            let mid = values.len() / 2;
            let value = if values.len() % 2 == 1 {
                values[mid]
            } else {
                0.5 * (values[mid - 1] + values[mid])
            };
            Some(MetricSample { value, ..m })
        })
        .collect()
}

/// Verdict on one metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within tolerance of the baseline (or under its ceiling).
    Ok,
    /// Better than the baseline by more than the tolerance.
    Improved,
    /// Worse than permitted — the gating condition.
    Regressed,
    /// Present in the fresh run but absent from the baseline.
    New,
}

/// One judged metric.
#[derive(Clone, Debug)]
pub struct Comparison {
    /// Metric name.
    pub name: String,
    /// Baseline value, when one existed.
    pub baseline: Option<f64>,
    /// Fresh (possibly medianed) value.
    pub fresh: f64,
    /// The policy that judged it.
    pub policy: Policy,
    /// The verdict.
    pub verdict: Verdict,
}

fn judge(policy: Policy, baseline: Option<f64>, fresh: f64) -> Verdict {
    const EPS: f64 = 1e-12;
    match policy {
        Policy::CeilingAbs { max } => {
            if fresh > max {
                Verdict::Regressed
            } else {
                Verdict::Ok
            }
        }
        _ => {
            let Some(base) = baseline else {
                return Verdict::New;
            };
            match policy {
                Policy::HigherBetter { rel_tol } => {
                    if fresh < base * (1.0 - rel_tol) {
                        Verdict::Regressed
                    } else if fresh > base * (1.0 + rel_tol) {
                        Verdict::Improved
                    } else {
                        Verdict::Ok
                    }
                }
                Policy::LowerBetter { rel_tol } => {
                    if fresh > base * (1.0 + rel_tol) {
                        Verdict::Regressed
                    } else if fresh < base * (1.0 - rel_tol) {
                        Verdict::Improved
                    } else {
                        Verdict::Ok
                    }
                }
                Policy::Exact => {
                    let scale = base.abs().max(fresh.abs()).max(1.0);
                    if (fresh - base).abs() <= EPS * scale {
                        Verdict::Ok
                    } else {
                        Verdict::Regressed
                    }
                }
                Policy::CeilingAbs { .. } => unreachable!(),
            }
        }
    }
}

/// Judges a fresh sample set against a baseline set (metrics matched by
/// name; the fresh set drives — baseline-only metrics are reported as
/// regressions of kind "missing" by the caller checking names).
pub fn compare(baseline: &[MetricSample], fresh: &[MetricSample]) -> Vec<Comparison> {
    fresh
        .iter()
        .map(|f| {
            let base = baseline.iter().find(|b| b.name == f.name).map(|b| b.value);
            Comparison {
                name: f.name.clone(),
                baseline: base,
                fresh: f.value,
                policy: f.policy,
                verdict: judge(f.policy, base, f.value),
            }
        })
        .collect()
}

/// Summary of one family's comparison, as carried into the history row.
#[derive(Clone, Debug)]
pub struct FamilyReport {
    /// Family key (`kernels`, `sweep`, …).
    pub family: String,
    /// `"compared"`, `"seeded"`, or `"skipped"`.
    pub status: String,
    /// All metric verdicts (empty unless compared).
    pub comparisons: Vec<Comparison>,
}

impl FamilyReport {
    /// Names of regressed metrics.
    pub fn regressions(&self) -> Vec<&str> {
        self.comparisons
            .iter()
            .filter(|c| c.verdict == Verdict::Regressed)
            .map(|c| c.name.as_str())
            .collect()
    }
}

/// Builds one `BENCH_history.jsonl` row (see `results/schema.md`).
pub fn history_row(label: &str, unix_ms: u64, families: &[FamilyReport]) -> Json {
    let any_regression = families.iter().any(|f| !f.regressions().is_empty());
    let fam_json = families
        .iter()
        .map(|f| {
            let regressed = f
                .regressions()
                .into_iter()
                .map(|n| Json::Str(n.to_string()))
                .collect();
            let improved = f
                .comparisons
                .iter()
                .filter(|c| c.verdict == Verdict::Improved)
                .map(|c| Json::Str(c.name.clone()))
                .collect();
            let metrics = f
                .comparisons
                .iter()
                .map(|c| (c.name.clone(), Json::Num(c.fresh)))
                .collect();
            Json::Obj(vec![
                ("family".into(), Json::Str(f.family.clone())),
                ("status".into(), Json::Str(f.status.clone())),
                ("metrics".into(), Json::Obj(metrics)),
                ("regressed".into(), Json::Arr(regressed)),
                ("improved".into(), Json::Arr(improved)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("kind".into(), Json::Str("bench_history".into())),
        ("schema".into(), Json::Int(1)),
        ("unix_ms".into(), Json::Int(unix_ms)),
        ("label".into(), Json::Str(label.to_string())),
        (
            "status".into(),
            Json::Str(if any_regression { "regressed" } else { "ok" }.into()),
        ),
        ("families".into(), Json::Arr(fam_json)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Json {
        Json::parse(s).expect("test JSON parses")
    }

    #[test]
    fn latest_run_handles_both_shapes() {
        let flat = parse(r#"{"label":"x","summary":{}}"#);
        assert!(latest_run(&flat).get("label").is_some());
        let traj = parse(r#"{"runs":[{"label":"a"},{"label":"b"}]}"#);
        assert_eq!(
            latest_run(&traj).get("label").and_then(Json::as_str),
            Some("b")
        );
    }

    #[test]
    fn kernels_extraction_names_and_policies() {
        let doc = parse(
            r#"{"runs":[{"records":[
                {"name":"gemm_nn","size":64,"gflops":11.5},
                {"name":"fsi","size":36,"gflops":3.2}]}]}"#,
        );
        let m = extract("kernels", &doc).unwrap();
        assert_eq!(m.len(), 2);
        assert_eq!(m[0].name, "gemm_nn_64.gflops");
        assert!(matches!(m[0].policy, Policy::HigherBetter { .. }));
    }

    #[test]
    fn kernels_batched_section_is_extracted_when_present() {
        let doc = parse(
            r#"{"records":[{"name":"gemm_nn","size":64,"gflops":11.5}],
                "batched":[{"name":"gemm_batched","n":32,"batch":8,
                            "gflops":40.0,"looped_gflops":15.0,"speedup":2.6}]}"#,
        );
        let m = extract("kernels", &doc).unwrap();
        let gf = m
            .iter()
            .find(|s| s.name == "batched.gemm_batched_32x8.gflops")
            .expect("batched gflops metric");
        assert_eq!(gf.value, 40.0);
        assert!(matches!(gf.policy, Policy::HigherBetter { .. }));
        let sp = m
            .iter()
            .find(|s| s.name == "batched.gemm_batched_32x8.speedup")
            .expect("batched speedup metric");
        assert_eq!(sp.value, 2.6);
        // Pre-PR-7 artifacts without the section still extract.
        let old = parse(r#"{"records":[{"name":"gemm_nn","size":64,"gflops":11.5}]}"#);
        assert_eq!(extract("kernels", &old).unwrap().len(), 1);
    }

    #[test]
    fn sweep_counters_are_exact_and_rates_are_relative() {
        let doc = parse(
            r#"{"summary":{"wraps_per_s_dense":100.0,"cache_warm_hits":114,
                "factored_wrap_speedup":1.1,"metrics_overhead_pct":0.5}}"#,
        );
        let m = extract("sweep", &doc).unwrap();
        let by = |n: &str| m.iter().find(|s| s.name == format!("summary.{n}")).unwrap();
        assert!(matches!(
            by("wraps_per_s_dense").policy,
            Policy::HigherBetter { .. }
        ));
        assert_eq!(by("cache_warm_hits").policy, Policy::Exact);
        assert_eq!(
            by("metrics_overhead_pct").policy,
            Policy::CeilingAbs { max: 2.0 }
        );
    }

    #[test]
    fn fault_drill_detect_rate_and_ceilings() {
        let doc = parse(
            r#"{"sites":21,"passed":21,"probe_overhead_pct":-0.1,
                "sticky_ladder_rungs":[1,1,1]}"#,
        );
        let m = extract("fault_drill", &doc).unwrap();
        let rate = m.iter().find(|s| s.name == "detect_rate").unwrap();
        assert_eq!(rate.value, 1.0);
        assert_eq!(rate.policy, Policy::Exact);
        let rungs = m.iter().find(|s| s.name == "sticky_ladder_rungs").unwrap();
        assert_eq!(rungs.value, 3.0);
        // The noisy probe estimate must stay informational (not judged).
        assert!(!m.iter().any(|s| s.name == "probe_overhead_pct"));
    }

    #[test]
    fn service_counts_are_exact_latencies_are_banded() {
        let doc = parse(
            r#"{"summary":{"jobs":1200,"completed":1200,"failed_jobs":0,
                "degraded_jobs":1,"fault_isolated":1,"jobs_per_s":800.0,
                "p50_latency_ms":4.0,"p99_latency_ms":22.0,
                "p99_queue_wait_ms":18.0,"steals":37,"rejected":12}}"#,
        );
        let m = extract("service", &doc).unwrap();
        let by = |n: &str| m.iter().find(|s| s.name == format!("summary.{n}"));
        assert_eq!(by("jobs").unwrap().policy, Policy::Exact);
        assert_eq!(by("fault_isolated").unwrap().policy, Policy::Exact);
        assert!(matches!(
            by("jobs_per_s").unwrap().policy,
            Policy::HigherBetter { .. }
        ));
        assert!(matches!(
            by("p99_latency_ms").unwrap().policy,
            Policy::LowerBetter { .. }
        ));
        assert!(matches!(
            by("p99_queue_wait_ms").unwrap().policy,
            Policy::LowerBetter { .. }
        ));
        // Scheduling-luck counters stay informational.
        assert!(by("steals").is_none());
        assert!(by("rejected").is_none());
    }

    #[test]
    fn recovery_drill_is_judged_exactly() {
        let doc = parse(r#"{"sites":6,"passed":6,"site_results":[]}"#);
        let m = extract("recovery", &doc).unwrap();
        let rate = m.iter().find(|s| s.name == "detect_rate").unwrap();
        assert_eq!(rate.value, 1.0);
        assert_eq!(rate.policy, Policy::Exact);
        let sites = m.iter().find(|s| s.name == "sites").unwrap();
        assert_eq!(sites.value, 6.0);
        assert_eq!(sites.policy, Policy::Exact);
        // One failed site must trip the gate against a clean baseline.
        let bad = parse(r#"{"sites":6,"passed":5}"#);
        let cmp = compare(&m, &extract("recovery", &bad).unwrap());
        assert!(cmp
            .iter()
            .any(|c| c.name == "detect_rate" && c.verdict == Verdict::Regressed));
    }

    #[test]
    fn judge_covers_the_verdict_space() {
        let hb = Policy::HigherBetter { rel_tol: 0.25 };
        assert_eq!(judge(hb, Some(100.0), 80.0), Verdict::Ok);
        assert_eq!(judge(hb, Some(100.0), 74.0), Verdict::Regressed);
        assert_eq!(judge(hb, Some(100.0), 130.0), Verdict::Improved);
        assert_eq!(judge(hb, None, 10.0), Verdict::New);
        assert_eq!(judge(Policy::Exact, Some(114.0), 114.0), Verdict::Ok);
        assert_eq!(judge(Policy::Exact, Some(114.0), 113.0), Verdict::Regressed);
        let ceil = Policy::CeilingAbs { max: 2.0 };
        assert_eq!(judge(ceil, None, 1.9), Verdict::Ok);
        assert_eq!(judge(ceil, Some(0.1), 2.1), Verdict::Regressed);
    }

    #[test]
    fn identical_runs_report_zero_regressions() {
        let doc = parse(
            r#"{"summary":{"wraps_per_s_dense":27351.5,"cache_warm_hits":114,
                "factored_wrap_speedup":1.09}}"#,
        );
        let base = extract("sweep", &doc).unwrap();
        let fresh = extract("sweep", &doc).unwrap();
        let cmp = compare(&base, &fresh);
        assert!(cmp.iter().all(|c| c.verdict == Verdict::Ok));
    }

    #[test]
    fn perturbed_baseline_trips_the_gate() {
        let base_doc = parse(r#"{"summary":{"wraps_per_s_dense":100000.0,"cache_warm_hits":114}}"#);
        let fresh_doc = parse(r#"{"summary":{"wraps_per_s_dense":27351.5,"cache_warm_hits":114}}"#);
        let cmp = compare(
            &extract("sweep", &base_doc).unwrap(),
            &extract("sweep", &fresh_doc).unwrap(),
        );
        assert!(cmp
            .iter()
            .any(|c| c.name == "summary.wraps_per_s_dense" && c.verdict == Verdict::Regressed));
    }

    #[test]
    fn median_of_k_suppresses_one_outlier() {
        let mk = |v: f64| {
            vec![MetricSample {
                name: "m".into(),
                value: v,
                policy: Policy::HigherBetter { rel_tol: 0.25 },
            }]
        };
        let merged = median_of_k(vec![mk(100.0), mk(3.0), mk(98.0)]);
        assert_eq!(merged[0].value, 98.0);
        let merged = median_of_k(vec![mk(10.0), mk(20.0)]);
        assert_eq!(merged[0].value, 15.0);
        assert_eq!(median_of_k(vec![mk(7.0)])[0].value, 7.0);
    }

    #[test]
    fn history_row_shape() {
        let fam = FamilyReport {
            family: "sweep".into(),
            status: "compared".into(),
            comparisons: vec![Comparison {
                name: "summary.x".into(),
                baseline: Some(1.0),
                fresh: 0.2,
                policy: Policy::HigherBetter { rel_tol: 0.25 },
                verdict: Verdict::Regressed,
            }],
        };
        let row = history_row("test", 123, &[fam]);
        assert_eq!(row.get("status").and_then(Json::as_str), Some("regressed"));
        let text = row.to_string();
        assert!(!text.contains('\n'), "one JSONL row must be one line");
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(
            parsed.get("kind").and_then(Json::as_str),
            Some("bench_history")
        );
    }
}
