//! The two modes that run workloads as child processes of this binary —
//! one process per run, so `peak_rss_mb` belongs to one workload:
//!
//! * [`full`]: every workload untraced, then traced; prints every metric
//!   and can record the lot as one JSON document;
//! * [`repeat`]: the untraced run of every workload `k` times in
//!   alternating order; prints each end-to-end metric's median,
//!   quartiles and spread, and fails when a spread exceeds the metric's
//!   bound.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

use fsi_runtime::trace::Json;

use crate::report::parse_line;
use crate::spec::{metrics_for, WORKLOADS};
use crate::stats::{median, quartiles, spread};

/// One child run's outcome.
struct Child {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
    wall_s: f64,
}

/// Runs `--workload name` in a child process and parses its last line.
fn run_child(name: &str, seed: u64, seconds: f64, traced: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let t = Instant::now();
    let out = Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {name}: {e}"))?;
    let wall_s = t.elapsed().as_secs_f64();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{name}: no output"))?;
    let (correct, attempted, failed, metrics) =
        parse_line(line).map_err(|e| format!("{name}: {e}"))?;
    Ok(Child {
        correct: correct && out.status.success(),
        attempted,
        failed,
        metrics,
        wall_s,
    })
}

fn child_json(c: &Child) -> Json {
    Json::Obj(vec![
        ("correct".into(), Json::Bool(c.correct)),
        ("attempted".into(), Json::Int(c.attempted)),
        ("failed".into(), Json::Int(c.failed)),
        ("wall_s".into(), Json::Num(c.wall_s)),
        (
            "metrics".into(),
            Json::Obj(
                c.metrics
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Num(*v)))
                    .collect(),
            ),
        ),
    ])
}

fn host_json(seed: u64, seconds: f64) -> Vec<(String, Json)> {
    vec![
        ("nproc".into(), Json::Int(crate::nproc() as u64)),
        ("T".into(), Json::Int(crate::threads() as u64)),
        (
            "kernel_tier".into(),
            Json::Str(fsi_dense::active_tier().name().into()),
        ),
        ("seed".into(), Json::Int(seed)),
        ("run_seconds".into(), Json::Num(seconds)),
    ]
}

/// Every workload untraced then traced. Returns whether all were
/// correct; writes the combined document to `out` (tmp + rename) if
/// given.
///
/// # Errors
/// A child that could not be run or parsed, or a failed write.
pub fn full(seed: u64, seconds: f64, out: Option<&Path>) -> Result<bool, String> {
    let started = Instant::now();
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for w in &WORKLOADS {
        let mut modes = Vec::new();
        for traced in [false, true] {
            let child = run_child(w.name, seed, seconds, traced)?;
            all_correct &= child.correct;
            modes.push((
                if traced { "traced" } else { "untraced" }.to_string(),
                child_json(&child),
            ));
        }
        workloads.push((w.name.to_string(), Json::Obj(modes)));
    }
    let total = started.elapsed().as_secs_f64();
    eprintln!("full run: {total:.1} s wall, all correct: {all_correct}");
    if let Some(path) = out {
        let mut doc = host_json(seed, seconds);
        doc.push(("total_wall_s".into(), Json::Num(total)));
        doc.push(("workloads".into(), Json::Obj(workloads)));
        fsi_runtime::ckpt::write_atomic(path, Json::Obj(doc).to_string().as_bytes())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("wrote {}", path.display());
    }
    Ok(all_correct)
}

/// `k` untraced runs of every workload (or of `only`), rounds alternating
/// the workload order; with `vary_seed` round `r` uses `seed + r`. Returns
/// whether every run was correct and every spread within its bound
/// (`setup_s` is reported but, as in the acceptance rule, not judged on
/// spread). The bounds are the catalogue's, which a test keeps equal to
/// `BENCHMARK.json`.
///
/// # Errors
/// A child that could not be run or parsed, or an unknown `only`.
pub fn repeat(
    seed: u64,
    seconds: f64,
    k: usize,
    vary_seed: bool,
    only: Option<&str>,
) -> Result<bool, String> {
    let chosen: Vec<&str> = WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|name| only.is_none_or(|o| o == *name))
        .collect();
    if chosen.is_empty() {
        return Err(format!("unknown workload {only:?}"));
    }
    let mut samples: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    let mut ok = true;
    for round in 0..k {
        let mut order = chosen.clone();
        if round % 2 == 1 {
            order.reverse();
        }
        let seed = if vary_seed { seed + round as u64 } else { seed };
        for name in order {
            let child = run_child(name, seed, seconds, false)?;
            if !child.correct {
                eprintln!("{name} (round {round}, seed {seed}): NOT correct");
                ok = false;
            }
            for m in metrics_for(false) {
                let v = child
                    .metrics
                    .get(m.name)
                    .ok_or_else(|| format!("{name}: no {}", m.name))?;
                samples.entry((name, m.name)).or_default().push(*v);
            }
        }
    }
    println!(
        "{:<16} {:<12} {:>12} {:>12} {:>12} {:>8} {:>6}  verdict",
        "workload", "metric", "median", "q1", "q3", "spread", "bound"
    );
    for name in chosen {
        for m in metrics_for(false) {
            let xs = &samples[&(name, m.name)];
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let ([q1, _, q3], s) = if xs.len() >= 2 {
                (quartiles(xs), spread(xs))
            } else {
                ([xs[0]; 3], 0.0)
            };
            let verdict = if m.name == "setup_s" {
                "not judged"
            } else if s <= bound {
                "ok"
            } else {
                ok = false;
                "SPREAD EXCEEDS BOUND"
            };
            println!(
                "{:<16} {:<12} {:>12.6} {:>12.6} {:>12.6} {:>7.2}% {:>5.0}%  {verdict} ({} better, {} runs)",
                name,
                m.name,
                median(xs),
                q1,
                q3,
                s * 100.0,
                bound * 100.0,
                m.better.word(),
                xs.len(),
            );
        }
    }
    Ok(ok)
}
