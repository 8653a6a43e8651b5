//! The benchmark's contract in one place: workload names, metric names,
//! units, directions and regression bounds. `BENCHMARK.json` at the
//! repository root lists the same things; a test keeps the two equal.

use fsi_runtime::trace::Json;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit of the printed value.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

/// One workload: its name and why it exists.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// One line on what it stresses.
    pub why: &'static str,
}

/// Seconds one run measures for (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 25;

/// The four workloads, in the order a full run executes them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "fsi_cols_n64",
        why: "fsi_with_q Serial, Columns, N=64 L=128 c=16: WRP is ~86% of the call and allocates 3x the output, so wrap and allocation changes must show here",
    },
    Workload {
        name: "fsi_diag_n144",
        why: "fsi_with_q Serial, Diagonal, N=144 L=64 c=4: BSOFI is ~92%, WRP is bypassed and blocks are 5x larger; a WRP change must show no change here",
    },
    Workload {
        name: "dqmc_step_n64",
        why: "One DQMC measurement step (sweep, Green's functions of both spins, measurements), 8x8 L=64 c=8 on OpenMp(T): the only user of warm ClusterCache refreshes and the pool paths",
    },
    Workload {
        name: "service_mix_n64",
        why: "Jobs through the durable Service, T workers, 2T closed-loop clients, 3:1 short diagonal to long column jobs: queueing, stealing, journal and checkpoints at a paper shape",
    },
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Metrics a user of the library sees; printed by `--trace 0`.
///
/// One bound serves all four workloads, so each is at least three times
/// the widest spread (interquartile distance over median, ten seeds) any
/// workload showed on the 2-core reference host: 2.2 % for `op_p50_s` and
/// 2.7 % for `ops_per_s` (`dqmc_step_n64`, pool threads sharing two
/// cores), 3.2 % for `op_p90_s`, 6.8 % for `peak_rss_mb`
/// (`service_mix_n64`, whether two column sweeps peak together). The
/// serial workloads repeat within about 1 %.
pub const END_TO_END: [Metric; 5] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("op_p50_s", "s", Lower, 0.12),
    e2e("op_p90_s", "s", Lower, 0.15),
    e2e("ops_per_s", "1/s", Higher, 0.12),
    e2e("peak_rss_mb", "MiB", Lower, 0.25),
];

/// Metrics of single layers (the crates); printed by `--trace 1`. A
/// workload that never enters a layer reports 0 for that layer's metrics.
pub const PER_LAYER: [Metric; 64] = [
    layer("dense.gemm_gflops", "Gflop/s", Higher),
    layer("dense.gemm_batched_gflops", "Gflop/s", Higher),
    layer("dense.getrf_gflops", "Gflop/s", Higher),
    layer("dense.lu_solve_gflops", "Gflop/s", Higher),
    layer("dense.geqrf_gflops", "Gflop/s", Higher),
    layer("pcyclic.build_s", "s", Lower),
    layer("pcyclic.build_alloc_bytes", "B", Lower),
    layer("selinv.cls_s", "s", Lower),
    layer("selinv.bsofi_s", "s", Lower),
    layer("selinv.bsofi_factor_s", "s", Lower),
    layer("selinv.bsofi_assemble_s", "s", Lower),
    layer("selinv.wrap_s", "s", Lower),
    layer("selinv.stage_sum_ratio", "ratio", Lower),
    layer("selinv.cls_gflops", "Gflop/s", Higher),
    layer("selinv.bsofi_gflops", "Gflop/s", Higher),
    layer("selinv.wrap_gflops", "Gflop/s", Higher),
    layer("selinv.fsi_gflops", "Gflop/s", Higher),
    layer("selinv.cls_eff", "ratio", Higher),
    layer("selinv.bsofi_eff", "ratio", Higher),
    layer("selinv.wrap_eff", "ratio", Higher),
    layer("selinv.fsi_eff", "ratio", Higher),
    layer("selinv.cls_allocs", "count", Lower),
    layer("selinv.cls_alloc_bytes", "B", Lower),
    layer("selinv.bsofi_allocs", "count", Lower),
    layer("selinv.bsofi_alloc_bytes", "B", Lower),
    layer("selinv.wrap_allocs", "count", Lower),
    layer("selinv.wrap_alloc_bytes", "B", Lower),
    layer("selinv.blocks_out", "count", Higher),
    layer("selinv.model_flops", "flop", Lower),
    layer("selinv.par_speedup", "ratio", Higher),
    layer("selinv.max_rel_err", "ratio", Lower),
    layer("selinv.cache_hit_frac", "ratio", Higher),
    layer("dqmc.sweep_s", "s", Lower),
    layer("dqmc.green_s", "s", Lower),
    layer("dqmc.build_s", "s", Lower),
    layer("dqmc.measure_s", "s", Lower),
    layer("dqmc.refresh_s", "s", Lower),
    layer("dqmc.wrap_s", "s", Lower),
    layer("dqmc.step_allocs", "count", Lower),
    layer("dqmc.step_alloc_bytes", "B", Lower),
    layer("dqmc.acceptance", "ratio", Higher),
    layer("dqmc.recovery_escalations", "count", Lower),
    layer("dqmc.ckpt_save_s", "s", Lower),
    layer("dqmc.ckpt_bytes", "B", Lower),
    layer("service.submit_p50_s", "s", Lower),
    layer("service.queue_wait_p50_s", "s", Lower),
    layer("service.queue_wait_p90_s", "s", Lower),
    layer("service.run_p50_s", "s", Lower),
    layer("service.lat_p50_s.diag", "s", Lower),
    layer("service.lat_p50_s.cols", "s", Lower),
    layer("service.task_s.diag", "s", Lower),
    layer("service.task_s.cols", "s", Lower),
    layer("service.overhead_frac", "ratio", Lower),
    layer("service.worker_busy_frac", "ratio", Higher),
    layer("service.steals", "count", Lower),
    layer("service.steal_tasks_moved", "count", Lower),
    layer("service.rejected", "count", Lower),
    layer("service.degraded_jobs", "count", Lower),
    layer("service.retries", "count", Lower),
    layer("service.state_bytes", "B", Lower),
    layer("service.ckpt_writes", "count", Lower),
    layer("runtime.pool_dispatch_s", "s", Lower),
    layer("runtime.ckpt_store_s", "s", Lower),
    layer("runtime.trace_overhead_frac", "ratio", Lower),
];

/// The metrics `--trace <traced>` prints.
pub fn metrics_for(traced: bool) -> &'static [Metric] {
    if traced {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// Whether `name` is a legal workload or metric name: starts with a
/// letter or digit, at most 64 of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// Whether `unit` is a legal unit: 1 to 16 of letters, digits, `_`, `/`,
/// `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok_char)
}

fn metric_json(m: &Metric) -> Json {
    let mut fields = vec![
        ("name".to_string(), Json::Str(m.name.into())),
        ("unit".to_string(), Json::Str(m.unit.into())),
        ("better".to_string(), Json::Str(m.better.word().into())),
    ];
    if let Some(b) = m.bound {
        fields.push(("bound".to_string(), Json::Num(b)));
    }
    Json::Obj(fields)
}

/// The document `BENCHMARK.json` must equal (`--spec` prints it).
pub fn benchmark_json() -> Json {
    let strs = |xs: &[&str]| Json::Arr(xs.iter().map(|s| Json::Str((*s).into())).collect());
    Json::Obj(vec![
        (
            "command".into(),
            strs(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
            ]),
        ),
        ("paths".into(), strs(&["benchmark"])),
        ("run_seconds".into(), Json::Int(RUN_SECONDS)),
        (
            "workloads".into(),
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::Obj(vec![
                            ("name".into(), Json::Str(w.name.into())),
                            ("why".into(), Json::Str(w.why.into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end".into(),
            Json::Arr(END_TO_END.iter().map(metric_json).collect()),
        ),
        (
            "per_layer".into(),
            Json::Arr(PER_LAYER.iter().map(metric_json).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn every_name_and_unit_is_legal_and_unique() {
        let mut seen = BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name))
        {
            assert!(valid_name(name), "illegal name {name:?}");
            assert!(seen.insert(name), "name {name:?} used twice");
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_unit(m.unit), "illegal unit {:?}", m.unit);
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(!valid_unit("Gflop per s"));
    }

    #[test]
    fn bounds_obey_the_contract() {
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        let largest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        for m in &END_TO_END {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{}: bound {b}", m.name);
            if m.name == "setup_s" {
                assert_eq!(b, largest, "setup_s takes the largest bound");
            }
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    /// `BENCHMARK.json` lists exactly what the binary can emit.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let on_disk = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(on_disk, benchmark_json());
        assert!(text.len() <= 64 * 1024);
    }
}
