//! The result of one run and the two ways it is printed: a table for
//! people (stderr) and the one-line JSON object the driver reads (last
//! line of stdout).

use std::collections::BTreeMap;

use fsi_runtime::trace::Json;

use crate::spec::{metrics_for, Metric};

/// Values gathered by one run, keyed by metric name.
#[derive(Clone, Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `name = value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// The recorded value, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// What one `--workload` invocation measured.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Every output check passed and no operation failed.
    pub correct: bool,
    /// Operations attempted in the timed region.
    pub attempted: u64,
    /// Operations that returned an error, were refused, ended failed or
    /// cancelled, or whose checked output missed its tolerance.
    pub failed: u64,
    /// `(metric, value)` for every metric of the run's mode, in catalogue
    /// order.
    pub metrics: Vec<(Metric, f64)>,
    /// Timed samples behind the percentiles.
    pub samples: usize,
}

impl RunResult {
    /// Orders `values` by the catalogue of the run's mode. A per-layer
    /// metric the workload never set reports 0 (layer not entered); a
    /// missing end-to-end metric, an unknown name or a non-finite value
    /// is a bug and fails the run.
    pub fn finish(
        traced: bool,
        mut correct: bool,
        attempted: u64,
        failed: u64,
        samples: usize,
        values: &Values,
    ) -> RunResult {
        let catalogue = metrics_for(traced);
        for name in values.0.keys() {
            if !catalogue.iter().any(|m| m.name == *name) {
                eprintln!("BUG: metric {name} is not in the catalogue for this mode");
                correct = false;
            }
        }
        let metrics = catalogue
            .iter()
            .map(|m| {
                let v = match values.get(m.name) {
                    Some(v) if v.is_finite() => v,
                    Some(v) => {
                        eprintln!("BUG: metric {} is {v}", m.name);
                        correct = false;
                        0.0
                    }
                    None if traced => 0.0,
                    None => {
                        eprintln!("BUG: end-to-end metric {} was not measured", m.name);
                        correct = false;
                        0.0
                    }
                };
                (*m, v)
            })
            .collect();
        RunResult {
            correct: correct && failed == 0,
            attempted,
            failed,
            metrics,
            samples,
        }
    }

    /// The driver's line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(m, v)| {
                (
                    m.name.to_string(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(*v)),
                        ("unit".into(), Json::Str(m.unit.into())),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct)),
            ("attempted".into(), Json::Int(self.attempted)),
            ("failed".into(), Json::Int(self.failed)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    }

    /// Prints every metric by name with its unit to stderr.
    pub fn print_table(&self, workload: &str, traced: bool) {
        eprintln!(
            "== {workload} ({}) attempted={} failed={} fail_frac={} samples={} correct={}",
            if traced { "traced" } else { "untraced" },
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64,
            self.samples,
            self.correct,
        );
        for (m, v) in &self.metrics {
            eprintln!("{:<32} {:>16.6} {}", m.name, v, m.unit);
        }
    }
}

/// Reads a driver line back (the orchestrating modes parse their
/// children's output with this).
///
/// # Errors
/// A description of what is missing or malformed.
pub fn parse_line(line: &str) -> Result<(bool, u64, u64, BTreeMap<String, f64>), String> {
    let doc = Json::parse(line).map_err(|e| e.to_string())?;
    let field = |k: &str| doc.get(k).ok_or_else(|| format!("missing key {k}"));
    let correct = field("correct")?.as_bool().ok_or("correct is not a bool")?;
    let attempted = field("attempted")?
        .as_u64()
        .ok_or("attempted is not an integer")?;
    let failed = field("failed")?
        .as_u64()
        .ok_or("failed is not an integer")?;
    let Json::Obj(entries) = field("metrics")? else {
        return Err("metrics is not an object".into());
    };
    let mut metrics = BTreeMap::new();
    for (name, entry) in entries {
        let v = entry
            .get("value")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("metric {name} has no numeric value"))?;
        metrics.insert(name.clone(), v);
    }
    Ok((correct, attempted, failed, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{END_TO_END, PER_LAYER};

    #[test]
    fn line_round_trips_with_exactly_the_contract_keys() {
        let mut values = Values::new();
        for (i, m) in END_TO_END.iter().enumerate() {
            values.set(m.name, 1.5 + i as f64);
        }
        let r = RunResult::finish(false, true, 10, 0, 10, &values);
        assert!(r.correct);
        let line = r.to_json().to_string();
        assert!(!line.contains('\n'));
        let Json::Obj(keys) = Json::parse(&line).unwrap() else {
            panic!("object expected")
        };
        let names: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, ["correct", "attempted", "failed", "metrics"]);
        let (correct, attempted, failed, metrics) = parse_line(&line).unwrap();
        assert!(correct);
        assert_eq!((attempted, failed), (10, 0));
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(metrics["setup_s"], 1.5);
    }

    #[test]
    fn traced_runs_emit_every_per_layer_metric() {
        let mut values = Values::new();
        values.set("selinv.cls_s", 0.25);
        let r = RunResult::finish(true, true, 4, 0, 4, &values);
        assert!(r.correct);
        assert_eq!(r.metrics.len(), PER_LAYER.len());
        let (_, _, _, metrics) = parse_line(&r.to_json().to_string()).unwrap();
        assert_eq!(metrics["selinv.cls_s"], 0.25);
        assert_eq!(metrics["service.steals"], 0.0);
    }

    #[test]
    fn bugs_and_failures_clear_correct() {
        let mut values = Values::new();
        values.set("selinv.cls_s", f64::NAN);
        assert!(!RunResult::finish(true, true, 1, 0, 1, &values).correct);
        let mut values = Values::new();
        values.set("no.such_metric", 1.0);
        assert!(!RunResult::finish(true, true, 1, 0, 1, &values).correct);
        // An unmeasured end-to-end metric is a bug; a failed op is a failure.
        assert!(!RunResult::finish(false, true, 1, 0, 1, &Values::new()).correct);
        assert!(!RunResult::finish(true, true, 2, 1, 2, &Values::new()).correct);
    }
}
