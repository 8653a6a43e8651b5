//! §V-A correctness validation.
//!
//! The paper forms a 6400×6400 Hubbard matrix `(N, L) = (100, 64)` with
//! `(t, β, σ, U) = (1, 1, 1, 2)`, computes `b` selected block columns
//! with FSI, and checks the mean relative block error against MKL
//! DGETRF/DGETRI stays below 1e-10.
//!
//! Besides the error check, the figure cross-validates the *flop
//! accounting*: the span collector's measured per-stage flops must equal
//! the kernel-exact models — `cls_flops` (the stage is literally `b`
//! chains of `c−1` N×N GEMMs), `bsofi_inverse_flops` (the structured QR
//! and the dense `Ḡ` the columns pattern seeds) and `wrap_kernel_flops`. A silently unaccounted or double-charged kernel
//! fails the run. The paper's §II-C closed forms (`7b²N³` for BSOFI,
//! `3(bL − b²)N³` for WRP) are printed next to them as an informational
//! ratio only: the kernels run dense GEMMs over triangular operands and
//! invert each `B_k` once, which the closed forms do not count. (The
//! per-call GEMM attribution these counts rest on is `fsi-dense`'s tier-1
//! `gemm::tests::flops_are_counted`.)
//! The run also writes `results/validate.json` (schema in
//! `results/schema.md`).
//!
//! Smoke shape `(N, L, c) = (36, 32, 8)`; the paper shape is `N = 100`
//! (10×10 lattice), `L = 64`, `c = 8`, where the dense reference
//! inversion of the 6400² matrix is the slow part.

use fsi_pcyclic::Spin;
use fsi_runtime::trace::Json;
use fsi_runtime::Stopwatch;
use fsi_selinv::baselines::{full_inverse_selected, max_block_error, mean_block_error};
use fsi_selinv::wrap::{wrap_flops, wrap_kernel_flops};
use fsi_selinv::{bsofi_flops, cls_flops};
use fsi_selinv::{bsofi_inverse_flops, fsi_with_q, Parallelism, Pattern, Selection};

use crate::{gflops, hubbard_matrix, Scale, Shape, Trace, Verdict};

/// The paper's error threshold.
const MAX_MEAN_ERROR: f64 = 1e-10;
/// The wrap shift of the selection.
const Q: usize = 5;

/// One stage's measured flops against its kernel-exact model.
pub struct FlopCheck {
    /// Span name: `cls`, `bsofi` or `wrap`.
    pub stage: &'static str,
    /// Flops the stage's span was charged.
    pub measured: u64,
    /// The kernel-exact model the measured count must equal.
    pub exact: u64,
}

impl FlopCheck {
    /// Whether the measured count equals the model.
    pub(crate) fn ok(&self) -> bool {
        self.measured == self.exact
    }
}

/// The validation run: the mean relative block error against the dense
/// reference, and the flop accounting of the `cls`, `bsofi` and `wrap`
/// stages.
pub struct Table {
    pub mean_error: f64,
    pub flops: [FlopCheck; 3],
}

/// Runs FSI on the validation matrix, checks it against the dense
/// inverse and writes `results/validate.json`.
pub(crate) fn run(scale: Scale) -> Table {
    let tracer = Trace::start("validate");
    let shape = scale.shape([36, 32, 8], [100, 64, 8]);
    let Shape { n, l, c } = shape;
    let pc = hubbard_matrix(shape.side(), l, 2016, Spin::Up);
    let sel = Selection::new(Pattern::Columns, c, Q);
    let sw = Stopwatch::start();
    let out = fsi_with_q(Parallelism::Serial, &pc, &sel).expect("healthy");
    let fsi_seconds = sw.seconds();
    let sw = Stopwatch::start();
    let reference = full_inverse_selected(&pc, &sel);
    let reference_seconds = sw.seconds();
    let mean = mean_block_error(&out.selected, &reference);
    let max = max_block_error(&out.selected, &reference);
    let report = tracer.finish(None);

    let params = format!("dim {}, (t, beta, U) = (1, 1, 2), c = {c}, q = {Q}", n * l);
    println!("Hubbard matrix: (N, L) = ({n}, {l}), {params}");
    println!("FSI: {} blocks in {fsi_seconds:.3}s", out.selected.len());
    println!("dense LU reference (DGETRF+DGETRI equivalent): {reference_seconds:.3}s");
    println!("\nmean relative block error : {mean:.3e}   (paper threshold: < 1e-10)");
    println!("max  relative block error : {max:.3e}");
    println!(
        "\nper-stage rates (span collector):\n{}",
        report.stage_table()
    );
    println!("flop accounting vs the kernel-exact models (paper closed form for reference):");
    let b = l / c;
    let models = [
        ("cls", cls_flops(n, l, c), cls_flops(n, l, c)),
        ("bsofi", bsofi_inverse_flops(n, b), bsofi_flops(n, b)),
        (
            "wrap",
            wrap_kernel_flops(Pattern::Columns, n, l, c),
            wrap_flops(n, l, c),
        ),
    ];
    let flops = models.map(|(stage, exact, closed)| {
        let measured = report.flops_of(stage);
        let check = FlopCheck {
            stage,
            measured,
            exact,
        };
        let verdict = if check.ok() { "exact" } else { "MISMATCH" };
        let ratio = measured as f64 / closed as f64;
        println!(
            "  {stage:<6} measured {measured:>14}  model {exact:>14}  {verdict:<8}  \
             closed form {closed:>14} (x{ratio:.2})"
        );
        check
    });
    let table = Table {
        mean_error: mean,
        flops,
    };
    let passed = verdict(&table).is_ok();
    println!("\nvalidation: {}", if passed { "PASSED" } else { "FAILED" });

    // results/validate.json, schema 1 (results/schema.md).
    let obj = |fields: Vec<(&str, Json)>| {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    };
    let stages = table.flops.iter().map(|f| {
        let seconds = report.seconds_of(f.stage);
        obj(vec![
            ("name", Json::Str(f.stage.into())),
            ("seconds", Json::Num(seconds)),
            ("gflops", Json::Num(gflops(f.measured, seconds))),
            ("flops", Json::Int(f.measured)),
        ])
    });
    let since_epoch = std::time::UNIX_EPOCH
        .elapsed()
        .map(|d| d.as_millis() as u64);
    let shape = [("N", n), ("L", l), ("c", c), ("q", Q)].map(|(k, v)| (k, Json::Int(v as u64)));
    let summary = vec![
        ("mean_error", Json::Num(mean)),
        ("max_error", Json::Num(max)),
        ("passed", Json::Bool(passed)),
        ("cls_flops_exact", Json::Bool(table.flops[0].ok())),
    ];
    let json = obj(vec![
        ("kind", Json::Str("validate".into())),
        ("schema", Json::Int(1)),
        ("label", Json::Str("current".into())),
        ("unix_ms", Json::Int(since_epoch.unwrap_or(0))),
        ("shape", obj(shape.into())),
        ("summary", obj(summary)),
        ("stages", Json::Arr(stages.collect())),
    ]);
    let path = std::path::Path::new("results/validate.json");
    fsi_runtime::ckpt::write_atomic(path, json.to_string().as_bytes())
        .expect("write results/validate.json");
    println!("wrote results/validate.json");
    table
}

/// §V-A: the mean error is below the paper's threshold, and every stage's
/// measured flops equal its kernel-exact model.
pub fn verdict(t: &Table) -> Verdict {
    let mean = t.mean_error;
    if mean.is_nan() || mean >= MAX_MEAN_ERROR {
        return Err(format!(
            "mean relative block error {mean:.3e} is not below 1e-10"
        ));
    }
    match t.flops.iter().find(|f| !f.ok()) {
        Some(f) => Err(format!(
            "{} measured {} flops, the exact model {}",
            f.stage, f.measured, f.exact
        )),
        None => Ok(()),
    }
}
