//! Kernel-performance smoke run: times the GEMM engine (all four `Op`
//! paths) and the three FSI stages at small sizes, cross-checks the
//! trace-measured flops against the analytic models, and writes the
//! results to a JSON file (`results/BENCH_kernels.json` by default) so the
//! perf trajectory of the dense substrate is recorded PR over PR.
//!
//! Unlike the criterion benches this finishes in a few seconds and emits a
//! machine-readable artifact; `ci/bench_smoke.sh` runs it as a non-gating
//! CI step.
//!
//! Usage: `bench_smoke [--label=NAME] [--out=PATH] [sizes=64,128,256]
//! [N=36] [L=32] [c=8]`
//!
//! Alongside the blocked-GEMM `records`, a `batched` section times the
//! [`fsi_dense::gemm_batched`] engine against a loop of plain `gemm_op`
//! calls at the CLS hot shapes (small uniform `n × n × n` batches) and
//! records the speedup; `FSI_KERNEL=avx512|avx2|scalar` pins the
//! micro-kernel tier so runs on different hosts stay comparable.

use std::time::SystemTime;

use fsi_bench::{hubbard_matrix, lattice_side_for, Args};
use fsi_dense::{gemm_batched, gemm_op, test_matrix, BatchOperand, Matrix, Op};
use fsi_pcyclic::Spin;
use fsi_runtime::flops::counts;
use fsi_runtime::trace::{self, Json};
use fsi_runtime::Stopwatch;
use fsi_selinv::{fsi_with_q, Parallelism, Pattern, Selection};

/// One measured kernel or stage.
struct Record {
    name: String,
    size: usize,
    seconds: f64,
    gflops: f64,
    /// Flops measured by the span collector (0 when not traced).
    measured_flops: u64,
}

/// Best-of repeated timing: runs `f` until ~0.25 s is spent (at least 3
/// times) and returns the minimum per-call seconds — the standard
/// low-noise estimator for micro-benchmarks.
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

/// Interleaved best-of timing for an A/B comparison: alternates single
/// calls of `a` and `b` inside one rep loop (~0.4 s budget, at least 5
/// reps each) and returns both minima. Interleaving exposes the pair to
/// the same drift in clocks and cache state, so the *ratio* is far less
/// noisy than two independent `time_best` runs — essential at the small-N
/// shapes where one call is microseconds (same estimator as
/// `bench_bsofi`).
fn time_best_pair(mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    a(); // warm-up both
    b();
    let budget = Stopwatch::start();
    let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
    let mut reps = 0u32;
    while budget.seconds() < 0.4 || reps < 5 {
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

/// Times BSOFI's two QR kernels at block size `n`: `geqrf` of a `2n × n`
/// panel (the factorization and its compact-WY `T`; the clone of the input
/// is inside the timed call) and `apply_qt_right` on an `8n × 2n` slab
/// (stage C of a `b = 8` dense inverse). Rates use the kernels' own charges.
fn bench_qr(n: usize) -> [Record; 2] {
    let a = test_matrix(2 * n, n, 3);
    let f = fsi_dense::geqrf(a.clone());
    let mut slab = test_matrix(8 * n, 2 * n, 4);
    let t_qr = time_best(|| {
        std::hint::black_box(fsi_dense::geqrf(a.clone()));
    });
    let t_apply = time_best(|| f.apply_qt_right(fsi_runtime::Par::Seq, slab.as_mut()));
    [
        (
            "geqrf",
            t_qr,
            counts::geqrf(2 * n, n) + counts::larft(2 * n, n),
        ),
        ("apply_qt_right", t_apply, counts::ormqr(2 * n, n, 8 * n)),
    ]
    .map(|(name, seconds, flops)| Record {
        name: name.to_string(),
        size: n,
        seconds,
        gflops: flops as f64 / seconds / 1e9,
        measured_flops: flops,
    })
}

/// One measured (n, batch) pair of the batched-vs-looped comparison.
struct BatchedRecord {
    n: usize,
    batch: usize,
    seconds: f64,
    gflops: f64,
    looped_seconds: f64,
    looped_gflops: f64,
    looped_tier: fsi_dense::Tier,
    speedup: f64,
}

/// Times `batch` independent `n × n × n` NN products (the CLS lockstep
/// shape) through `gemm_batched` and through a loop of plain blocked
/// `gemm_op` calls, interleaved.
///
/// The looped loop is pinned (via [`fsi_dense::with_tier`]) to the AVX2
/// tier — bit-for-bit the engine as it existed before the batched path
/// and the AVX-512 tier landed — so the `speedup` column answers "what
/// does routing this shape through the batched engine buy over the
/// previous release", not "batched vs blocked on the same new kernel".
/// Both raw rates and the baseline's tier are recorded, so either
/// comparison can be reconstructed from the artifact.
fn bench_batched(n: usize, batch: usize) -> BatchedRecord {
    let looped_tier = if fsi_dense::Tier::Avx2.is_available() {
        fsi_dense::Tier::Avx2
    } else {
        fsi_dense::Tier::Scalar
    };
    let a: Vec<Matrix> = (0..batch)
        .map(|i| test_matrix(n, n, 10 + i as u64))
        .collect();
    let b: Vec<Matrix> = (0..batch)
        .map(|i| test_matrix(n, n, 100 + i as u64))
        .collect();
    let a_refs: Vec<_> = a.iter().map(|m| m.as_ref()).collect();
    let b_refs: Vec<_> = b.iter().map(|m| m.as_ref()).collect();
    let mut c_batched: Vec<Matrix> = (0..batch).map(|_| Matrix::zeros(n, n)).collect();
    let mut c_looped: Vec<Matrix> = (0..batch).map(|_| Matrix::zeros(n, n)).collect();
    let (seconds, looped_seconds) = time_best_pair(
        || {
            let mut outs: Vec<_> = c_batched.iter_mut().map(|m| m.as_mut()).collect();
            gemm_batched(
                fsi_runtime::Par::Seq,
                1.0,
                Op::NoTrans,
                BatchOperand::Each(&a_refs),
                Op::NoTrans,
                BatchOperand::Each(&b_refs),
                0.0,
                &mut outs,
            );
        },
        || {
            fsi_dense::with_tier(looped_tier, || {
                for i in 0..batch {
                    gemm_op(
                        fsi_runtime::Par::Seq,
                        1.0,
                        Op::NoTrans,
                        a_refs[i],
                        Op::NoTrans,
                        b_refs[i],
                        0.0,
                        c_looped[i].as_mut(),
                    );
                }
            });
        },
    );
    // The vector tiers share one bitwise contract (and scalar agrees to
    // rounding); spot-check here so a future regression can't silently
    // publish a speedup over wrong answers.
    let exact = fsi_dense::active_tier() != fsi_dense::Tier::Scalar
        && looped_tier != fsi_dense::Tier::Scalar;
    for (cb, cl) in c_batched.iter().zip(&c_looped) {
        if exact {
            assert_eq!(cb.as_slice(), cl.as_slice(), "batched != looped at n={n}");
        } else {
            assert!(
                fsi_dense::rel_error(cb, cl) < 1e-12,
                "batched != looped at n={n}"
            );
        }
    }
    let flops = batch as u64 * counts::gemm(n, n, n);
    BatchedRecord {
        n,
        batch,
        seconds,
        gflops: flops as f64 / seconds / 1e9,
        looped_seconds,
        looped_gflops: flops as f64 / looped_seconds / 1e9,
        looped_tier,
        speedup: looped_seconds / seconds,
    }
}

/// Times `C := op(A)·op(B)` at `n × n × n` and returns the record plus the
/// span-measured flops of a single traced call.
fn bench_gemm(name: &str, n: usize, opa: Op, opb: Op) -> Record {
    let a = test_matrix(n, n, 1);
    let b = test_matrix(n, n, 2);
    let mut c = Matrix::zeros(n, n);
    let run = |c: &mut Matrix| {
        gemm_op(
            fsi_runtime::Par::Seq,
            1.0,
            opa,
            a.as_ref(),
            opb,
            b.as_ref(),
            0.0,
            c.as_mut(),
        );
    };
    let secs = time_best(|| run(&mut c));
    // One traced call: the span-scoped count must equal the analytic model
    // exactly (the observability layer's attribution contract).
    trace::set_level(fsi_runtime::TraceLevel::Kernels);
    let span = trace::span("bench-gemm");
    run(&mut c);
    let stats = span.finish();
    trace::set_level(fsi_runtime::TraceLevel::Off);
    trace::clear();
    let analytic = counts::gemm(n, n, n);
    assert_eq!(
        stats.flops, analytic,
        "{name}/{n}: traced flops {} != analytic {analytic}",
        stats.flops
    );
    Record {
        name: name.to_string(),
        size: n,
        seconds: secs,
        gflops: analytic as f64 / secs / 1e9,
        measured_flops: stats.flops,
    }
}

fn main() {
    let args = Args::parse();
    let kernel = fsi_dense::active_tier();
    println!("kernel tier: {}", kernel.name());
    let label = args.flag_value("label").unwrap_or("current").to_string();
    let out = args
        .flag_value("out")
        .unwrap_or("results/BENCH_kernels.json")
        .to_string();
    let sizes = args.get_list("sizes", &[64, 128, 256]);

    let mut records = Vec::new();
    println!(
        "{:<12} {:>6} {:>12} {:>10}",
        "bench", "size", "best (s)", "Gflop/s"
    );
    for &n in &sizes {
        let r = bench_gemm("gemm_nn", n, Op::NoTrans, Op::NoTrans);
        println!(
            "{:<12} {:>6} {:>12.6} {:>10.3}",
            r.name, r.size, r.seconds, r.gflops
        );
        records.push(r);
    }
    // Transposed paths at the middle size: the packed engine routes all
    // four through the same micro-kernel, so these should sit within 1.5×
    // of the NN rate.
    let nt = sizes.get(1).copied().unwrap_or(128);
    for (name, opa, opb) in [
        ("gemm_tn", Op::Trans, Op::NoTrans),
        ("gemm_nt", Op::NoTrans, Op::Trans),
        ("gemm_tt", Op::Trans, Op::Trans),
    ] {
        let r = bench_gemm(name, nt, opa, opb);
        println!(
            "{:<12} {:>6} {:>12.6} {:>10.3}",
            r.name, r.size, r.seconds, r.gflops
        );
        records.push(r);
    }

    // BSOFI's QR kernels at the two block sizes the layered benchmark runs.
    for n in [64, 144] {
        for r in bench_qr(n) {
            println!(
                "{:<14} {:>4} {:>12.6} {:>10.3}",
                r.name, r.size, r.seconds, r.gflops
            );
            records.push(r);
        }
    }

    // Batched engine vs looped gemm at the CLS hot shapes. The (N, batch)
    // grid covers the acceptance sizes (32, 64) plus a mid-size with the
    // default traced shape's cluster count.
    let mut batched = Vec::new();
    println!(
        "\n{:<12} {:>6} {:>6} {:>10} {:>10} {:>8}",
        "batched", "n", "batch", "Gflop/s", "looped", "speedup"
    );
    for (n, bsz) in [(32, 8), (48, 4), (64, 8)] {
        let r = bench_batched(n, bsz);
        println!(
            "{:<12} {:>6} {:>6} {:>10.3} {:>10.3} {:>8.2}",
            "gemm_batched", r.n, r.batch, r.gflops, r.looped_gflops, r.speedup
        );
        assert!(
            r.speedup > 1.0,
            "batched engine slower than the pre-PR looped baseline at n={}",
            r.n
        );
        batched.push(r);
    }

    // One traced FSI run at a small shape: per-stage seconds, flops, and
    // rates from the span collector.
    let n = args.get_usize("N", 36);
    let l = args.get_usize("L", 32);
    let c = args.get_usize("c", 8);
    let nx = lattice_side_for(n);
    let n = nx * nx;
    let pc = hubbard_matrix(nx, l, 2016, Spin::Up);
    let sel = Selection::new(Pattern::Columns, c, 5.min(c - 1));
    trace::set_level(fsi_runtime::TraceLevel::Stages);
    trace::clear();
    let _ = fsi_with_q(Parallelism::Serial, &pc, &sel).expect("healthy");
    let report = trace::RunReport::capture("bench_smoke");
    trace::set_level(fsi_runtime::TraceLevel::Off);
    trace::clear();
    for stage in ["cls", "bsofi", "wrap"] {
        let secs = report.seconds_of(stage);
        let flops = report.flops_of(stage);
        let r = Record {
            name: format!("stage_{stage}"),
            size: n,
            seconds: secs,
            gflops: if secs > 0.0 {
                flops as f64 / secs / 1e9
            } else {
                0.0
            },
            measured_flops: flops,
        };
        println!(
            "{:<12} {:>6} {:>12.6} {:>10.3}",
            r.name, r.size, r.seconds, r.gflops
        );
        records.push(r);
    }

    let json = Json::Obj(vec![
        ("label".into(), Json::Str(label)),
        ("kernel".into(), Json::Str(kernel.name().to_string())),
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
                            ("size".into(), Json::Int(r.size as u64)),
                            ("seconds".into(), Json::Num(r.seconds)),
                            ("gflops".into(), Json::Num(r.gflops)),
                            ("flops".into(), Json::Int(r.measured_flops)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "batched".into(),
            Json::Arr(
                batched
                    .iter()
                    .map(|r| {
                        Json::Obj(vec![
                            ("name".into(), Json::Str("gemm_batched".into())),
                            ("n".into(), Json::Int(r.n as u64)),
                            ("batch".into(), Json::Int(r.batch as u64)),
                            ("seconds".into(), Json::Num(r.seconds)),
                            ("gflops".into(), Json::Num(r.gflops)),
                            ("looped_seconds".into(), Json::Num(r.looped_seconds)),
                            ("looped_gflops".into(), Json::Num(r.looped_gflops)),
                            (
                                "looped_tier".into(),
                                Json::Str(r.looped_tier.name().to_string()),
                            ),
                            ("speedup".into(), Json::Num(r.speedup)),
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
    println!("\nwrote {out}");
}
