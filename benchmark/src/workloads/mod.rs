//! The four workloads. Each has an untraced run (whole operations timed,
//! end-to-end metrics) and a traced run (spans around the calls into each
//! layer, per-layer metrics), chosen by [`RunArgs::traced`].

pub mod dqmc;
pub mod fsi;
pub mod service;

use std::time::Instant;

use fsi_runtime::ThreadPool;
use fsi_selinv::Parallelism;

use crate::report::{RunResult, Values};
use crate::stages::{ModelFlops, StageAllocs, BSOFI, BSOFI_ASSEMBLE, BSOFI_FACTOR, CLS, WRAP};
use crate::stats::{median, percentile, percentile_guarded};
use crate::trace::Tracer;
use crate::RunArgs;

/// Span covering one whole traced operation.
pub const OP: &str = "op";
/// Serial/pooled pairs behind `selinv.par_speedup`.
const SPEEDUP_PAIRS: usize = 10;
/// Fewest whole/traced pairs a traced run takes, however short.
const MIN_PAIRS: usize = 8;

/// Runs the workload called `name`.
///
/// # Errors
/// An unknown name, or an environment failure (filesystem, `/proc`) that
/// prevents measuring at all. Failed operations and failed output checks
/// are not errors: they come back in the [`RunResult`].
pub fn run(name: &str, args: &RunArgs) -> Result<RunResult, String> {
    match name {
        "fsi_cols_n64" => fsi::run(&fsi::COLS_N64, args),
        "fsi_diag_n144" => fsi::run(&fsi::DIAG_N144, args),
        "dqmc_step_n64" => dqmc::run(args),
        "service_mix_n64" => service::run(args),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// The end-to-end metrics every untraced run reports, from its op times
/// (seconds), the timed wall and the median set-up time.
fn end_to_end(
    workload: &str,
    op_seconds: &[f64],
    wall: f64,
    setup_s: f64,
) -> Result<Values, String> {
    let mut v = Values::new();
    v.set("setup_s", setup_s);
    if op_seconds.is_empty() {
        return Ok(v); // nothing succeeded: the run fails on the missing metrics
    }
    v.set("op_p50_s", median(op_seconds));
    if let Err(e) = percentile_guarded(op_seconds, 0.9) {
        eprintln!(
            "note: {workload}: op_p90_s rests on {} samples beyond it ({} wanted) out of {}",
            e.beyond,
            e.needed,
            op_seconds.len()
        );
    }
    v.set("op_p90_s", percentile(op_seconds, 0.9));
    v.set("ops_per_s", op_seconds.len() as f64 / wall);
    v.set("peak_rss_mb", crate::peak_rss_mib()?);
    Ok(v)
}

fn rate_gflops(flops: u64, seconds: f64) -> f64 {
    if seconds > 0.0 {
        flops as f64 / seconds * 1e-9
    } else {
        0.0
    }
}

/// The `selinv.*` stage metrics of a traced run: median stage seconds per
/// op from the spans, rates from the closed-form `model` of one op,
/// efficiencies against the batched-GEMM `ceiling` (Gflop/s) measured in
/// the same run, and median allocations per op (`allocs` holds one entry
/// per traced op).
fn selinv_stage_metrics(
    tr: &Tracer,
    allocs: &[StageAllocs],
    model: &ModelFlops,
    ceiling: f64,
    v: &mut Values,
) {
    let cls_s = median(&tr.per_op(CLS));
    let bsofi_s = median(&tr.per_op(BSOFI));
    let wrap_s = median(&tr.per_op(WRAP));
    v.set("selinv.cls_s", cls_s);
    v.set("selinv.bsofi_s", bsofi_s);
    v.set("selinv.bsofi_factor_s", median(&tr.per_op(BSOFI_FACTOR)));
    v.set(
        "selinv.bsofi_assemble_s",
        median(&tr.per_op(BSOFI_ASSEMBLE)),
    );
    v.set("selinv.wrap_s", wrap_s);
    let rates = [
        ("selinv.cls_gflops", "selinv.cls_eff", model.cls, cls_s),
        (
            "selinv.bsofi_gflops",
            "selinv.bsofi_eff",
            model.bsofi,
            bsofi_s,
        ),
        ("selinv.wrap_gflops", "selinv.wrap_eff", model.wrap, wrap_s),
        (
            "selinv.fsi_gflops",
            "selinv.fsi_eff",
            model.total(),
            cls_s + bsofi_s + wrap_s,
        ),
    ];
    for (gflops_name, eff_name, flops, seconds) in rates {
        let g = rate_gflops(flops, seconds);
        v.set(gflops_name, g);
        v.set(eff_name, if ceiling > 0.0 { g / ceiling } else { 0.0 });
    }
    let per_op = |pick: fn(&StageAllocs) -> u64| {
        median(&allocs.iter().map(|a| pick(a) as f64).collect::<Vec<_>>())
    };
    v.set("selinv.cls_allocs", per_op(|a| a.cls.calls));
    v.set("selinv.cls_alloc_bytes", per_op(|a| a.cls.bytes));
    v.set("selinv.bsofi_allocs", per_op(|a| a.bsofi.calls));
    v.set("selinv.bsofi_alloc_bytes", per_op(|a| a.bsofi.bytes));
    v.set("selinv.wrap_allocs", per_op(|a| a.wrap.calls));
    v.set("selinv.wrap_alloc_bytes", per_op(|a| a.wrap.bytes));
    v.set("selinv.model_flops", model.total() as f64);
}

/// Median serial-over-pooled time ratio of `call` over [`SPEEDUP_PAIRS`]
/// pairs, alternating which side runs first.
fn par_speedup(pool: &ThreadPool, call: impl Fn(Parallelism<'_>)) -> f64 {
    let time = |par: Parallelism<'_>| {
        let t = Instant::now();
        call(par);
        t.elapsed().as_secs_f64()
    };
    let ratios: Vec<f64> = (0..SPEEDUP_PAIRS)
        .map(|i| {
            let (serial, pooled);
            if i % 2 == 0 {
                serial = time(Parallelism::Serial);
                pooled = time(Parallelism::OpenMp(pool));
            } else {
                pooled = time(Parallelism::OpenMp(pool));
                serial = time(Parallelism::Serial);
            }
            serial / pooled
        })
        .collect();
    median(&ratios)
}

/// Writes the run's spans to `benchmark/results/trace_<workload>.json`.
fn write_trace(tr: &Tracer, workload: &str) -> Result<(), String> {
    let path = crate::package_dir()
        .join("results")
        .join(format!("trace_{workload}.json"));
    tr.write(workload, &path)
        .map_err(|e| format!("writing {}: {e}", path.display()))
}
