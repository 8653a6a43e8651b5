//! Sweep-phase performance smoke run: times the three similarity-wrap
//! implementations (dense GEMM baseline, factored diag+kinetic, factored
//! with checkerboard bond sweeps), the full vs. warm incremental
//! stabilization refresh, and the spin-joined sweep against its serial
//! baseline. Writes `results/BENCH_sweep.json` so the sweep hot-path
//! trajectory is recorded PR over PR, next to the kernel artifact.
//!
//! Two properties are *asserted*, not just reported, because they are the
//! acceptance criteria of the structure-exploiting sweep work:
//!
//! * the checkerboard factored wrap sustains ≥ 2× the wraps/s of the
//!   dense-GEMM wrap at N = 64;
//! * a warm refresh recomputes strictly fewer cluster products than a
//!   cold one (`cls.cache_hit` fires; misses per refresh drop below the
//!   full rebuild count).
//!
//! Usage: `bench_sweep [--label=NAME] [--out=PATH] [N=64] [L=64] [c=8]
//! [threads=2]`

use std::time::SystemTime;

use fsi_bench::{lattice_side_for, Args};
use fsi_dqmc::{equal_time_green_stable, wrap_dense, wrap_factored, SweepConfig, Sweeper};
use fsi_pcyclic::{hubbard_pcyclic, BlockBuilder, HsField, HubbardParams, Spin, SquareLattice};
use fsi_runtime::trace::{self, Json};
use fsi_runtime::{Stopwatch, ThreadPool};
use fsi_selinv::Parallelism;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// One measured sweep-phase operation.
struct Record {
    name: String,
    size: usize,
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

/// Times one call and measures its span-collected flops (Kernels level so
/// GEMM/bond-sweep charges are captured inclusively).
fn record(name: &str, size: usize, mut f: impl FnMut()) -> Record {
    let seconds = time_best(&mut f);
    trace::set_level(fsi_runtime::TraceLevel::Kernels);
    trace::clear();
    let span = trace::span("bench-sweep-op");
    f();
    let stats = span.finish();
    trace::set_level(fsi_runtime::TraceLevel::Off);
    trace::clear();
    Record {
        name: name.to_string(),
        size,
        seconds,
        gflops: if seconds > 0.0 {
            stats.flops as f64 / seconds / 1e9
        } else {
            0.0
        },
        measured_flops: stats.flops,
    }
}

fn print_record(r: &Record) {
    println!(
        "{:<20} {:>6} {:>12.6} {:>10.3}",
        r.name, r.size, r.seconds, r.gflops
    );
}

fn main() {
    let args = Args::parse();
    let kernel = fsi_dense::active_tier();
    println!("kernel tier: {}", kernel.name());
    let label = args.flag_value("label").unwrap_or("current").to_string();
    let out = args
        .flag_value("out")
        .unwrap_or("results/BENCH_sweep.json")
        .to_string();
    let nx = lattice_side_for(args.get_usize("N", 64));
    let n = nx * nx;
    let l = args.get_usize("L", 64);
    let c = args.get_usize("c", 8);
    let threads = args.get_usize("threads", 2);
    let params = HubbardParams {
        t: 1.0,
        u: 4.0,
        beta: 8.0,
        l,
    };
    let dense_builder = BlockBuilder::new(SquareLattice::square(nx), params.clone());
    let cb_builder = BlockBuilder::with_checkerboard(SquareLattice::square(nx), params);
    let mut rng = ChaCha8Rng::seed_from_u64(2016);
    let field = HsField::random(l, n, &mut rng);
    let cfg = SweepConfig {
        c,
        stabilize_every: c,
        ..SweepConfig::default()
    };

    let mut records = Vec::new();
    println!(
        "{:<20} {:>6} {:>12} {:>10}",
        "bench", "size", "best (s)", "Gflop/s"
    );

    // --- Wrap strategies: one spin-channel similarity wrap at slice 0.
    // The wrapped matrix keeps getting re-wrapped between reps; the cost
    // per wrap does not depend on its values.
    let sweeper = Sweeper::new(&dense_builder, field.clone(), cfg).expect("healthy");
    let mut g = sweeper.green(Spin::Up).clone();
    let r_dense = record("wrap_dense", n, || {
        wrap_dense(
            fsi_runtime::Par::Seq,
            &dense_builder,
            &field,
            0,
            Spin::Up,
            &mut g,
        );
    });
    let mut g = sweeper.green(Spin::Up).clone();
    let r_fact = record("wrap_factored", n, || {
        wrap_factored(
            fsi_runtime::Par::Seq,
            &dense_builder,
            &field,
            0,
            Spin::Up,
            &mut g,
        );
    });
    let cb_sweeper = Sweeper::new(&cb_builder, field.clone(), cfg).expect("healthy");
    let mut g = cb_sweeper.green(Spin::Up).clone();
    let r_cb = record("wrap_factored_cb", n, || {
        wrap_factored(
            fsi_runtime::Par::Seq,
            &cb_builder,
            &field,
            0,
            Spin::Up,
            &mut g,
        );
    });
    drop(sweeper);
    drop(cb_sweeper);
    for r in [&r_dense, &r_fact, &r_cb] {
        print_record(r);
    }
    let factored_speedup = r_dense.seconds / r_fact.seconds;
    let cb_speedup = r_dense.seconds / r_cb.seconds;
    assert!(
        cb_speedup >= 2.0,
        "checkerboard factored wrap must sustain >= 2x the dense wraps/s \
         (got {cb_speedup:.2}x: dense {:.2e} s, cb {:.2e} s)",
        r_dense.seconds,
        r_cb.seconds
    );

    // --- Stabilization refresh: full rebuild (build every block, then
    // CLS + BSOFI, per spin) vs. warm incremental. The warm path
    // re-anchors on the same residue with no dirty slices — the
    // steady-state cost of a refresh inside a low-acceptance sweep.
    let r_full = record("refresh_full", n, || {
        for spin in Spin::BOTH {
            let pc = hubbard_pcyclic(&dense_builder, &field, spin);
            let seq = fsi_runtime::Par::Seq;
            equal_time_green_stable(seq, seq, &pc, l - 1, c).expect("healthy");
        }
    });
    let mut warm = Sweeper::new(&dense_builder, field.clone(), cfg).expect("healthy");
    let r_warm = record("refresh_warm", n, || {
        warm.refresh(0, Parallelism::Serial).expect("healthy");
    });
    let (warm_hits, warm_misses) = warm.cluster_cache_stats();
    drop(warm);
    print_record(&r_full);
    print_record(&r_warm);

    // --- Cache effectiveness across a real sweep: hits must fire and warm
    // refreshes must rebuild strictly fewer than the b = L/c products per
    // spin a cold build pays.
    let mut s = Sweeper::new(&dense_builder, field.clone(), cfg).expect("healthy");
    let (h0, m0) = s.cluster_cache_stats();
    let cold_products = 2 * (l / c) as u64; // both spins
    assert_eq!(m0, cold_products, "cold build rebuilds every product");
    let mut sweep_rng = ChaCha8Rng::seed_from_u64(7);
    s.sweep(&mut sweep_rng, Parallelism::Serial)
        .expect("healthy");
    let (h1, m1) = s.cluster_cache_stats();
    let refreshes = (m1 + h1 - m0 - h0) / cold_products;
    assert!(
        h1 > h0,
        "warm refreshes must score cls.cache_hit (hits {h0} -> {h1})"
    );
    assert!(
        m1 - m0 < refreshes * cold_products,
        "warm refreshes must rebuild strictly fewer products than cold \
         ({} misses over {refreshes} refreshes of {cold_products})",
        m1 - m0
    );
    println!(
        "cache: {} hits / {} misses over {refreshes} warm refreshes (cold = {cold_products})",
        h1 - h0,
        m1 - m0
    );

    // --- Full sweep: serial vs. spin-joined over a pool. Identical
    // trajectories (order-preserving join + deterministic kernels), so the
    // ratio is a pure parallelization measurement.
    let sweep_once = |par: Parallelism<'_>| {
        let mut s = Sweeper::new(&dense_builder, field.clone(), cfg).expect("healthy");
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        s.sweep(&mut rng, par).expect("healthy");
    };
    let r_serial = record("sweep_serial", n, || sweep_once(Parallelism::Serial));
    let pool = ThreadPool::new(threads.max(2));
    let r_par = record("sweep_spin_par", n, || {
        sweep_once(Parallelism::OpenMp(&pool))
    });
    print_record(&r_serial);
    print_record(&r_par);
    let spin_par_speedup = r_serial.seconds / r_par.seconds;

    // --- Always-on metrics cost: the same serial sweep with the metrics
    // registry enabled vs. globally disabled. Paired-ratio estimator (the
    // method the fault drill uses for health probes): each sample is an
    // on-run and an off-run back to back in alternating order, so clock
    // and thermal drift hit both sides of a pair almost equally and
    // cancel in the ratio; the median discards pairs a scheduling spike
    // split. The <2% bound is the PR-6 acceptance criterion for leaving
    // the registry on in release builds.
    let metrics_overhead_pct = {
        let batch = |on: bool| {
            fsi_runtime::metrics::set_enabled(on);
            let sw = Stopwatch::start();
            sweep_once(Parallelism::Serial);
            let s = sw.seconds();
            fsi_runtime::metrics::set_enabled(true);
            s
        };
        batch(true);
        batch(false); // warm-up: one of each configuration
        let mut ratios = Vec::new();
        let mut flip = false;
        while ratios.len() < 9 {
            let (on, off) = if flip {
                let off = batch(false);
                (batch(true), off)
            } else {
                (batch(true), batch(false))
            };
            ratios.push((on - off) / off * 100.0);
            flip = !flip;
        }
        ratios.sort_by(f64::total_cmp);
        ratios[ratios.len() / 2]
    };
    println!("metrics overhead (paired-ratio, serial sweep): {metrics_overhead_pct:+.2}%");
    assert!(
        metrics_overhead_pct < 2.0,
        "always-on metrics must cost < 2% on the sweep hot path \
         (measured {metrics_overhead_pct:+.2}%)"
    );

    println!(
        "\nwrap speedups vs dense: factored {factored_speedup:.2}x, checkerboard {cb_speedup:.2}x"
    );
    println!(
        "refresh warm/full: {:.2}x; spin-par sweep speedup: {spin_par_speedup:.2}x",
        r_full.seconds / r_warm.seconds
    );

    records.extend([r_dense, r_fact, r_cb, r_full, r_warm, r_serial, r_par]);
    let wraps_per_s = |r: &Record| 1.0 / r.seconds;
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
                ("threads".into(), Json::Int(threads as u64)),
            ]),
        ),
        (
            "summary".into(),
            Json::Obj(vec![
                (
                    "wraps_per_s_dense".into(),
                    Json::Num(wraps_per_s(&records[0])),
                ),
                (
                    "wraps_per_s_factored".into(),
                    Json::Num(wraps_per_s(&records[1])),
                ),
                (
                    "wraps_per_s_factored_cb".into(),
                    Json::Num(wraps_per_s(&records[2])),
                ),
                ("factored_wrap_speedup".into(), Json::Num(factored_speedup)),
                ("checkerboard_wrap_speedup".into(), Json::Num(cb_speedup)),
                (
                    "refresh_warm_speedup".into(),
                    Json::Num(records[3].seconds / records[4].seconds),
                ),
                ("spin_par_sweep_speedup".into(), Json::Num(spin_par_speedup)),
                (
                    "metrics_overhead_pct".into(),
                    Json::Num(metrics_overhead_pct),
                ),
                ("cache_warm_hits".into(), Json::Int(h1 - h0)),
                ("cache_warm_misses".into(), Json::Int(m1 - m0)),
                ("cache_cold_misses".into(), Json::Int(cold_products)),
                ("steady_warm_hits".into(), Json::Int(warm_hits)),
                ("steady_warm_misses".into(), Json::Int(warm_misses)),
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
    ]);
    if let Some(dir) = std::path::Path::new(&out).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
    }
    fsi_bench::write_artifact(&out, &json.to_string()).expect("write bench json");
    println!("wrote {out}");
}
