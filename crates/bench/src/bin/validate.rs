//! §V-A correctness validation.
//!
//! The paper forms a 6400×6400 Hubbard matrix `(N, L) = (100, 64)` with
//! `(t, β, σ, U) = (1, 1, 1, 2)`, computes `b` selected block columns
//! with FSI, and checks the mean relative block error against MKL
//! DGETRF/DGETRI stays below 1e-10.
//!
//! Besides the error check, the harness cross-validates the *flop
//! accounting*: the span collector's measured per-stage flops are
//! compared against the analytic models in `fsi_selinv::flops` —
//! CLS must match `cls_flops` exactly (the stage is literally `b` chains
//! of `c−1` N×N GEMMs), while BSOFI and WRP are asserted within a
//! bookkeeping tolerance of their (approximate) closed forms. A silently
//! unaccounted kernel would push a measured count below the analytic
//! lower bound and fail the run.
//!
//! Default: `(N, L, c) = (36, 32, 8)` — finishes in seconds; the full
//! paper shape runs with `--paper-scale` (`N = 100` → 10×10 lattice,
//! `L = 64`, `c = 8`; the dense reference inversion of the 6400² matrix
//! is the slow part).

use fsi_bench::{banner, hubbard_matrix, init_trace, lattice_side_for, Args};
use fsi_pcyclic::Spin;
use fsi_runtime::{trace, Par, Stopwatch};
use fsi_selinv::baselines::{full_inverse_selected, max_block_error, mean_block_error};
use fsi_selinv::{fsi_with_q, Parallelism, Pattern, Selection};

/// Asserts `measured` is within `lo..=hi` of `analytic` (as a ratio).
fn check_ratio(stage: &str, measured: u64, analytic: u64, lo: f64, hi: f64) -> bool {
    let ratio = measured as f64 / analytic as f64;
    let ok = (lo..=hi).contains(&ratio);
    println!(
        "  {stage:<6} measured {measured:>14}  analytic {analytic:>14}  ratio {ratio:.4}  {}",
        if ok { "ok" } else { "OUT OF TOLERANCE" }
    );
    ok
}

/// Startup self-check of the packed GEMM engine's flop attribution: the
/// span-measured count of a single `gemm_op` call must equal the analytic
/// `flops::counts::gemm` model *exactly* (not within tolerance) — the
/// packing/micro-kernel restructure charges once per logical product, and
/// every stage ratio below rests on that contract. Odd, remainder-heavy
/// dimensions so partial MR/NR tiles are exercised.
fn assert_gemm_attribution_exact() {
    use fsi_dense::{gemm_op, test_matrix, Matrix, Op};
    let (m, k, n) = (37, 29, 41);
    let a = test_matrix(m, k, 7);
    let b = test_matrix(k, n, 8);
    let mut c = Matrix::zeros(m, n);
    // Remember the FSI_TRACE-derived level so the temporary Kernels
    // override here doesn't mask the user's setting for the real run.
    let prior = trace::level();
    trace::set_level(fsi_runtime::TraceLevel::Kernels);
    trace::clear();
    let span = trace::span("gemm-selfcheck");
    gemm_op(
        Par::Seq,
        1.0,
        Op::NoTrans,
        a.as_ref(),
        Op::NoTrans,
        b.as_ref(),
        0.0,
        c.as_mut(),
    );
    let stats = span.finish();
    trace::set_level(prior);
    trace::clear();
    let analytic = fsi_runtime::flops::counts::gemm(m, n, k);
    assert_eq!(
        stats.flops, analytic,
        "packed GEMM span flops {} != analytic counts::gemm({m},{n},{k}) = {analytic}",
        stats.flops
    );
    println!("gemm flop attribution self-check: measured == analytic ({analytic}) ok");
}

fn main() {
    let args = Args::parse();
    assert_gemm_attribution_exact();
    let export = init_trace("validate", &args);
    let paper = args.paper_scale();
    let n = args.get_usize("N", if paper { 100 } else { 36 });
    let l = args.get_usize("L", if paper { 64 } else { 32 });
    let c = args.get_usize("c", 8);
    let q = args.get_usize("q", 5);
    banner("Correctness validation (paper Sec. V-A)", paper);
    let nx = lattice_side_for(n);
    let n = nx * nx;
    println!(
        "Hubbard matrix: (N, L) = ({n}, {l}), dim {}, (t, beta, U) = (1, 1, 2), c = {c}, q = {q}",
        n * l
    );

    let pc = hubbard_matrix(nx, l, 2016, Spin::Up);
    let sel = Selection::new(Pattern::Columns, c, q);

    let sw = Stopwatch::start();
    let out = fsi_with_q(Parallelism::Serial, &pc, &sel).expect("healthy");
    println!("FSI: {} blocks in {:.3}s", out.selected.len(), sw.seconds());

    let sw = Stopwatch::start();
    let reference = full_inverse_selected(Par::Seq, &pc, &sel);
    println!(
        "dense LU reference (DGETRF+DGETRI equivalent): {:.3}s",
        sw.seconds()
    );

    let mean = mean_block_error(&out.selected, &reference);
    let max = max_block_error(&out.selected, &reference);
    println!("\nmean relative block error : {mean:.3e}   (paper threshold: < 1e-10)");
    println!("max  relative block error : {max:.3e}");

    // Per-stage rates from the span collector, and the flop-model
    // cross-check (satellite of the observability layer).
    let report = export.finish(None);
    println!("\nper-stage rates (span collector):");
    print!("{}", report.stage_table());

    println!("\nflop accounting vs analytic model (fsi_selinv::flops):");
    let cls_measured = report.flops_of("cls");
    let cls_analytic = fsi_selinv::cls::cls_flops(n, l, c);
    // CLS is exact by construction: b chains of (c−1) N×N GEMMs.
    let cls_ok = cls_measured == cls_analytic;
    println!(
        "  cls    measured {cls_measured:>14}  analytic {cls_analytic:>14}  {}",
        if cls_ok { "exact" } else { "MISMATCH" }
    );
    // BSOFI's closed form 7b²N³ is the paper's leading-order estimate:
    // at the default b = L/c = 4 the QR and TRTRI lower-order terms are
    // not negligible and the measured kernel sum runs ~1.5–1.6× the
    // formula. Allow that slack but keep a lower bound so a silently
    // unaccounted kernel (ratio collapsing toward 0) is still caught.
    let b = l / c;
    let bsofi_ok = check_ratio(
        "bsofi",
        report.flops_of("bsofi"),
        fsi_selinv::bsofi::bsofi_flops(n, b),
        0.3,
        2.0,
    );
    let wrap_ok = check_ratio(
        "wrap",
        report.flops_of("wrap"),
        fsi_selinv::wrap::wrap_flops(n, l, c),
        0.5,
        1.5,
    );

    let pass = mean < 1e-10 && cls_ok && bsofi_ok && wrap_ok;
    println!("\nvalidation: {}", if pass { "PASSED" } else { "FAILED" });

    // Machine-readable artifact (schema in
    // results/schema.md, "validate.json").
    let out_path = args.flag_value("out").unwrap_or("results/validate.json");
    let stages = ["cls", "bsofi", "wrap"]
        .iter()
        .map(|stage| {
            let secs = report.seconds_of(stage);
            let flops = report.flops_of(stage);
            trace::Json::Obj(vec![
                ("name".into(), trace::Json::Str(stage.to_string())),
                ("seconds".into(), trace::Json::Num(secs)),
                (
                    "gflops".into(),
                    trace::Json::Num(if secs > 0.0 {
                        flops as f64 / secs / 1e9
                    } else {
                        0.0
                    }),
                ),
                ("flops".into(), trace::Json::Int(flops)),
            ])
        })
        .collect();
    let json = trace::Json::Obj(vec![
        ("kind".into(), trace::Json::Str("validate".into())),
        ("schema".into(), trace::Json::Int(1)),
        (
            "label".into(),
            trace::Json::Str(args.flag_value("label").unwrap_or("current").into()),
        ),
        (
            "unix_ms".into(),
            trace::Json::Int(
                std::time::SystemTime::now()
                    .duration_since(std::time::SystemTime::UNIX_EPOCH)
                    .map(|d| d.as_millis() as u64)
                    .unwrap_or(0),
            ),
        ),
        (
            "shape".into(),
            trace::Json::Obj(vec![
                ("N".into(), trace::Json::Int(n as u64)),
                ("L".into(), trace::Json::Int(l as u64)),
                ("c".into(), trace::Json::Int(c as u64)),
                ("q".into(), trace::Json::Int(q as u64)),
            ]),
        ),
        (
            "summary".into(),
            trace::Json::Obj(vec![
                ("mean_error".into(), trace::Json::Num(mean)),
                ("max_error".into(), trace::Json::Num(max)),
                ("passed".into(), trace::Json::Bool(pass)),
                ("cls_flops_exact".into(), trace::Json::Bool(cls_ok)),
            ]),
        ),
        ("stages".into(), trace::Json::Arr(stages)),
    ]);
    if let Some(dir) = std::path::Path::new(out_path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
    }
    fsi_bench::write_artifact(out_path, &json.to_string()).expect("write validate json");
    println!("wrote {out_path}");
    if !pass {
        std::process::exit(1);
    }
}
