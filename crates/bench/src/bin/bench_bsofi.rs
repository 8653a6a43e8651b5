//! BSOFI-stage performance run: times the dense reduced inverse
//! (`bsofi`) against the pattern-aware selected assembly
//! (`bsofi_selected`), and the structured-QR factor on its own. Writes
//! `results/BENCH_bsofi.json` so the BSOFI hot-path trajectory is recorded
//! PR over PR, next to the kernel and sweep artifacts.
//!
//! Two properties are *asserted*, not just reported, because they are the
//! acceptance criteria of the selected-assembly work:
//!
//! * at the paper-scale shape (N = 64, L = 128, c = 8 → b = 16) the
//!   diagonal selected assembly beats the dense `bsofi` wall time by
//!   ≥ 1.5×;
//! * the traced flops of the selected path equal the kernel-exact model
//!   `bsofi_selected_flops` (and the factor equals
//!   `structured_qr_flops`) to the flop.
//!
//! The same operations are then timed (recorded, not judged) at the BSOFI
//! shapes of the layered benchmark's workloads — N = 64, b = 8
//! (`fsi_cols_n64`, dense) and N = 144, b = 16 (`fsi_diag_n144`,
//! diagonals) — under `benchmark_shapes`.
//!
//! Usage: `bench_bsofi [--label=NAME] [--out=PATH] [N=64] [L=128] [c=8]`

use std::time::SystemTime;

use fsi_bench::Args;
use fsi_runtime::trace::{self, Json};
use fsi_runtime::{Par, Stopwatch};
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

/// The BSOFI-stage operations at one `(N, L, c)`.
struct ShapeRun {
    n: usize,
    l: usize,
    c: usize,
    /// `bsofi_full`, `bsofi_selected_diagonals`, `bsofi_selected_block`,
    /// `factor`, in that order.
    records: [Record; 4],
    /// Dense wall / diagonal selected wall.
    selected_speedup: f64,
    /// Dense wall / single-block selected wall.
    block_speedup: f64,
}

impl ShapeRun {
    fn b(&self) -> usize {
        self.l / self.c
    }

    fn shape_json(&self) -> Json {
        Json::Obj(vec![
            ("N".into(), Json::Int(self.n as u64)),
            ("L".into(), Json::Int(self.l as u64)),
            ("c".into(), Json::Int(self.c as u64)),
            ("b".into(), Json::Int(self.b() as u64)),
        ])
    }

    fn records_json(&self) -> Json {
        Json::Arr(
            self.records
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
        )
    }
}

/// Times and flop-checks the BSOFI stage at one shape: clusters a random
/// L-slice chain down to the b-block reduced matrix (the honest pipeline),
/// then measures only BSOFI on it. The traced charge of the selected and
/// factor calls must equal the kernel-exact closed forms to the flop.
fn bench_shape(n: usize, l: usize, c: usize) -> ShapeRun {
    assert!(l.is_multiple_of(c), "cluster size must divide L");
    let b = l / c;
    let pc = fsi_pcyclic::random_pcyclic(n, l, 2016);
    let clustered = cls(Par::Seq, Par::Seq, &pc, c, c / 2);
    let reduced = &clustered.reduced;
    println!("\nN = {n}, L = {l}, c = {c} (b = {b})");
    println!(
        "{:<26} {:>12} {:>10} {:>14}",
        "bench", "best (s)", "Gflop/s", "flops"
    );

    // Dense inverse vs. pattern-aware selected assembly, timed interleaved
    // so the speedup ratio is noise-robust.
    let diags = SelectedPattern::Diagonals;
    let block = SelectedPattern::DiagonalBlock(b / 2);
    let full = || {
        let _ = bsofi(Par::Seq, Par::Seq, reduced);
    };
    let selected = |pattern: &SelectedPattern| {
        let _ = bsofi_selected(Par::Seq, Par::Seq, reduced, pattern).expect("healthy");
    };
    let factor = || {
        let _ = StructuredQr::factor(Par::Seq, reduced);
    };
    let (t_full, t_diags) = time_best_pair(full, || selected(&diags));
    let records = [
        record("bsofi_full", t_full, full),
        record("bsofi_selected_diagonals", t_diags, || selected(&diags)),
        record(
            "bsofi_selected_block",
            time_best(|| selected(&block)),
            || selected(&block),
        ),
        record("factor", time_best(factor), factor),
    ];
    records.iter().for_each(print_record);
    for (r, want, what) in [
        (&records[1], bsofi_selected_flops(n, b, &diags), "diagonals"),
        (&records[2], bsofi_selected_flops(n, b, &block), "block"),
        (&records[3], structured_qr_flops(n, b), "factor"),
    ] {
        assert_eq!(
            r.measured_flops, want,
            "{what} flops drifted from the model"
        );
    }
    let selected_speedup = records[0].seconds / records[1].seconds;
    let block_speedup = records[0].seconds / records[2].seconds;
    println!(
        "selected vs dense: diagonals {selected_speedup:.2}x, single block {block_speedup:.2}x"
    );
    ShapeRun {
        n,
        l,
        c,
        records,
        selected_speedup,
        block_speedup,
    }
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

    let run = bench_shape(
        args.get_usize("N", 64),
        args.get_usize("L", 128),
        args.get_usize("c", 8),
    );
    assert!(
        run.selected_speedup >= 1.5,
        "diagonal selected assembly must beat dense bsofi by >= 1.5x \
         (got {:.2}x: dense {:.2e} s, selected {:.2e} s)",
        run.selected_speedup,
        run.records[0].seconds,
        run.records[1].seconds
    );
    // The BSOFI shapes inside the layered benchmark's workloads.
    let benchmark_shapes = [
        ("fsi_cols_n64", bench_shape(64, 128, 16)),
        ("fsi_diag_n144", bench_shape(144, 64, 4)),
    ];

    let (n, b) = (run.n, run.b());
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
            "host".into(),
            Json::Obj(vec![
                (
                    "nproc".into(),
                    Json::Int(fsi_runtime::hardware_threads() as u64),
                ),
                // Every operation here runs on the calling thread.
                ("threads".into(), Json::Int(1)),
                ("kernel".into(), Json::Str(kernel.name().to_string())),
            ]),
        ),
        ("shape".into(), run.shape_json()),
        (
            "summary".into(),
            Json::Obj(vec![
                ("selected_speedup".into(), Json::Num(run.selected_speedup)),
                ("block_speedup".into(), Json::Num(run.block_speedup)),
                (
                    "model_flops_full".into(),
                    Json::Int(fsi_selinv::bsofi::bsofi_flops(n, b)),
                ),
                // Measured = model, asserted in `bench_shape`.
                (
                    "model_flops_diagonals".into(),
                    Json::Int(run.records[1].measured_flops),
                ),
                (
                    "model_flops_block".into(),
                    Json::Int(run.records[2].measured_flops),
                ),
                (
                    "model_flops_factor".into(),
                    Json::Int(run.records[3].measured_flops),
                ),
            ]),
        ),
        ("records".into(), run.records_json()),
        (
            "benchmark_shapes".into(),
            Json::Arr(
                benchmark_shapes
                    .iter()
                    .map(|(workload, r)| {
                        Json::Obj(vec![
                            ("workload".into(), Json::Str(workload.to_string())),
                            ("shape".into(), r.shape_json()),
                            ("selected_speedup".into(), Json::Num(r.selected_speedup)),
                            ("records".into(), r.records_json()),
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
