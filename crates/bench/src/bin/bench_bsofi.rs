//! BSOFI-stage performance run: times the dense reduced inverse
//! (`bsofi`) against the pattern-aware selected assembly
//! (`bsofi_selected`) and the serial structured-QR factor against its
//! look-ahead pipelined schedule. Writes `results/BENCH_bsofi.json` so
//! the BSOFI hot-path trajectory is recorded PR over PR, next to the
//! kernel and sweep artifacts.
//!
//! Three properties are *asserted*, not just reported, because they are
//! the acceptance criteria of the selected-assembly work:
//!
//! * at the paper-scale shape (N = 64, L = 128, c = 8 → b = 16) the
//!   diagonal selected assembly beats the dense `bsofi` wall time by
//!   ≥ 1.5×;
//! * the look-ahead factor is bitwise identical to the serial factor;
//! * the traced flops of the selected path equal the kernel-exact model
//!   `bsofi_selected_flops` (and the factor equals
//!   `structured_qr_flops`) to the flop.
//!
//! Usage: `bench_bsofi [--label=NAME] [--out=PATH] [N=64] [L=128] [c=8]
//! [threads=3]`

use std::time::SystemTime;

use fsi_bench::Args;
use fsi_runtime::trace::{self, Json};
use fsi_runtime::{Par, Stopwatch, ThreadPool};
use fsi_selinv::{
    bsofi, bsofi_selected, bsofi_selected_flops, cls, structured_qr_flops, SelectedPattern,
    StructuredQr,
};

/// One measured BSOFI-stage operation.
struct Record {
    name: String,
    seconds: f64,
    gflops: f64,
    /// Flops measured by the span collector for one traced call.
    measured_flops: u64,
}

/// Best-of repeated timing (same estimator as `bench_smoke`).
fn time_best(mut f: impl FnMut()) -> f64 {
    f(); // warm-up
    let budget = Stopwatch::start();
    let mut best = f64::INFINITY;
    let mut reps = 0u32;
    while budget.seconds() < 0.25 || reps < 3 {
        let sw = Stopwatch::start();
        f();
        best = best.min(sw.seconds());
        reps += 1;
    }
    best
}

/// Interleaved best-of timing of two competing operations. Alternating
/// single shots under one shared budget exposes both sides to the same
/// machine noise and frequency drift, so their *ratio* is far more stable
/// than two independently-timed bests.
fn time_best_pair(mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    a(); // warm-up both
    b();
    let budget = Stopwatch::start();
    let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
    let mut reps = 0u32;
    while budget.seconds() < 2.0 || reps < 5 {
        let sw = Stopwatch::start();
        a();
        best_a = best_a.min(sw.seconds());
        let sw = Stopwatch::start();
        b();
        best_b = best_b.min(sw.seconds());
        reps += 1;
    }
    (best_a, best_b)
}

/// Measures one call's span-collected flops (Kernels level so
/// GEQRF/ORMQR/GEMM charges are captured inclusively).
fn measure_flops(mut f: impl FnMut()) -> u64 {
    trace::set_level(fsi_runtime::TraceLevel::Kernels);
    trace::clear();
    let span = trace::span("bench-bsofi-op");
    f();
    let stats = span.finish();
    trace::set_level(fsi_runtime::TraceLevel::Off);
    trace::clear();
    stats.flops
}

/// Packages a timed + flop-measured operation.
fn record(name: &str, seconds: f64, mut f: impl FnMut()) -> Record {
    let measured_flops = measure_flops(&mut f);
    Record {
        name: name.to_string(),
        seconds,
        gflops: if seconds > 0.0 {
            measured_flops as f64 / seconds / 1e9
        } else {
            0.0
        },
        measured_flops,
    }
}

fn print_record(r: &Record) {
    println!(
        "{:<26} {:>12.6} {:>10.3} {:>14}",
        r.name, r.seconds, r.gflops, r.measured_flops
    );
}

fn main() {
    let args = Args::parse();
    let kernel = fsi_dense::active_tier();
    println!("kernel tier: {}", kernel.name());
    let label = args.flag_value("label").unwrap_or("current").to_string();
    let out = args
        .flag_value("out")
        .unwrap_or("results/BENCH_bsofi.json")
        .to_string();
    let n = args.get_usize("N", 64);
    let l = args.get_usize("L", 128);
    let c = args.get_usize("c", 8);
    let threads = args.get_usize("threads", 3);
    assert!(l.is_multiple_of(c), "cluster size must divide L");
    let b = l / c;

    // The honest pipeline: cluster a random L-slice chain down to the
    // b-block reduced matrix, then time only the BSOFI stage on it.
    let pc = fsi_pcyclic::random_pcyclic(n, l, 2016);
    let clustered = cls(Par::Seq, Par::Seq, &pc, c, c / 2);
    let reduced = &clustered.reduced;
    let pool = ThreadPool::new(threads.max(2));

    println!(
        "{:<26} {:>12} {:>10} {:>14}",
        "bench", "best (s)", "Gflop/s", "flops"
    );

    // --- Dense inverse vs. pattern-aware selected assembly, timed
    // interleaved so the speedup ratio is noise-robust.
    let diags = SelectedPattern::Diagonals;
    let (t_full, t_diags) = time_best_pair(
        || {
            let _ = bsofi(Par::Seq, Par::Seq, reduced);
        },
        || {
            let _ = bsofi_selected(Par::Seq, Par::Seq, reduced, &diags).expect("healthy");
        },
    );
    let r_full = record("bsofi_full", t_full, || {
        let _ = bsofi(Par::Seq, Par::Seq, reduced);
    });
    let r_diags = record("bsofi_selected_diagonals", t_diags, || {
        let _ = bsofi_selected(Par::Seq, Par::Seq, reduced, &diags).expect("healthy");
    });
    let block = SelectedPattern::DiagonalBlock(b / 2);
    let t_block = time_best(|| {
        let _ = bsofi_selected(Par::Seq, Par::Seq, reduced, &block).expect("healthy");
    });
    let r_block = record("bsofi_selected_block", t_block, || {
        let _ = bsofi_selected(Par::Seq, Par::Seq, reduced, &block).expect("healthy");
    });
    for r in [&r_full, &r_diags, &r_block] {
        print_record(r);
    }
    let selected_speedup = r_full.seconds / r_diags.seconds;
    let block_speedup = r_full.seconds / r_block.seconds;
    assert!(
        selected_speedup >= 1.5,
        "diagonal selected assembly must beat dense bsofi by >= 1.5x \
         (got {selected_speedup:.2}x: dense {:.2e} s, selected {:.2e} s)",
        r_full.seconds,
        r_diags.seconds
    );

    // --- Flop attribution is exact: the traced charge of one selected
    // call equals the kernel-exact closed form to the flop.
    assert_eq!(
        r_diags.measured_flops,
        bsofi_selected_flops(n, b, &diags),
        "selected-diagonals flops drifted from the model"
    );
    assert_eq!(
        r_block.measured_flops,
        bsofi_selected_flops(n, b, &block),
        "selected-block flops drifted from the model"
    );

    // --- Serial vs. look-ahead pipelined factor. Same kernel calls on
    // the same inputs, so the results must be bitwise identical and the
    // ratio is a pure pipelining measurement.
    let (t_serial, t_look) = time_best_pair(
        || {
            let _ = StructuredQr::factor(Par::Seq, reduced);
        },
        || {
            let _ = StructuredQr::factor_lookahead(Par::Pool(&pool), Par::Seq, reduced);
        },
    );
    let r_serial = record("factor_serial", t_serial, || {
        let _ = StructuredQr::factor(Par::Seq, reduced);
    });
    let r_look = record("factor_lookahead", t_look, || {
        let _ = StructuredQr::factor_lookahead(Par::Pool(&pool), Par::Seq, reduced);
    });
    print_record(&r_serial);
    print_record(&r_look);
    let lookahead_speedup = r_serial.seconds / r_look.seconds;
    let fs = StructuredQr::factor(Par::Seq, reduced);
    let fl = StructuredQr::factor_lookahead(Par::Pool(&pool), Par::Seq, reduced);
    assert_eq!(
        fs.assemble_r().as_slice(),
        fl.assemble_r().as_slice(),
        "look-ahead factor must be bitwise identical to serial"
    );
    assert_eq!(
        r_serial.measured_flops,
        structured_qr_flops(n, b),
        "factor flops drifted from the model"
    );

    println!(
        "\nselected vs dense: diagonals {selected_speedup:.2}x, single block {block_speedup:.2}x"
    );
    println!("look-ahead factor speedup: {lookahead_speedup:.2}x");

    let records = [r_full, r_diags, r_block, r_serial, r_look];
    let json = Json::Obj(vec![
        ("label".into(), Json::Str(label)),
        (
            "unix_ms".into(),
            Json::Int(
                SystemTime::now()
                    .duration_since(SystemTime::UNIX_EPOCH)
                    .map(|d| d.as_millis() as u64)
                    .unwrap_or(0),
            ),
        ),
        (
            "shape".into(),
            Json::Obj(vec![
                ("N".into(), Json::Int(n as u64)),
                ("L".into(), Json::Int(l as u64)),
                ("c".into(), Json::Int(c as u64)),
                ("b".into(), Json::Int(b as u64)),
                ("threads".into(), Json::Int(threads as u64)),
            ]),
        ),
        (
            "summary".into(),
            Json::Obj(vec![
                ("selected_speedup".into(), Json::Num(selected_speedup)),
                ("block_speedup".into(), Json::Num(block_speedup)),
                ("lookahead_speedup".into(), Json::Num(lookahead_speedup)),
                (
                    "model_flops_full".into(),
                    Json::Int(fsi_selinv::bsofi::bsofi_flops(n, b)),
                ),
                (
                    "model_flops_diagonals".into(),
                    Json::Int(bsofi_selected_flops(n, b, &diags)),
                ),
                (
                    "model_flops_block".into(),
                    Json::Int(bsofi_selected_flops(n, b, &block)),
                ),
                (
                    "model_flops_factor".into(),
                    Json::Int(structured_qr_flops(n, b)),
                ),
            ]),
        ),
        (
            "records".into(),
            Json::Arr(
                records
                    .iter()
                    .map(|r| {
                        Json::Obj(vec![
                            ("name".into(), Json::Str(r.name.clone())),
                            ("seconds".into(), Json::Num(r.seconds)),
                            ("gflops".into(), Json::Num(r.gflops)),
                            ("flops".into(), Json::Int(r.measured_flops)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    if let Some(dir) = std::path::Path::new(&out).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
    }
    fsi_bench::write_artifact(&out, &json.to_string()).expect("write bench json");
    println!("wrote {out}");
}
