//! End-to-end tests of the structured tracing layer: span-tree
//! determinism, wall-time accounting of the FSI stages, exact per-stage
//! flop attribution, NDJSON file round-tripping, and the health/recovery
//! trail (exporter spans and the flight recorder's incident dump) of an
//! injected fault.
//!
//! The trace collector and level are process-global, so every test here
//! holds `trace::test_lock()` while tracing is enabled and restores the
//! `Off` level before releasing it. The fault is armed only under that
//! lock, so no other test here runs the pipeline while it is armed.

use fsi::dqmc::{SweepConfig, Sweeper};
use fsi::pcyclic::{
    random_pcyclic, BlockBuilder, BlockPCyclic, HsField, HubbardParams, SquareLattice,
};
use fsi::runtime::flops::counts;
use fsi::runtime::health::inject::{self, FaultKind, Site, ANY_BLOCK};
use fsi::runtime::health::Stage;
use fsi::runtime::metrics::{self, flight};
use fsi::runtime::trace;
use fsi::runtime::{RunReport, TraceLevel};
use fsi::selinv::{fsi_with_q, Parallelism, Pattern, Selection};
use rand::SeedableRng;

fn test_matrix() -> BlockPCyclic {
    random_pcyclic(16, 24, 42)
}

fn traced_fsi_run(pc: &BlockPCyclic, c: usize) -> RunReport {
    trace::clear();
    let sel = Selection::new(Pattern::Columns, c, c / 2);
    let _ = fsi_with_q(Parallelism::Serial, pc, &sel);
    RunReport::capture("observability-test")
}

#[test]
fn span_tree_is_deterministic_across_identical_runs() {
    let _lock = trace::test_lock();
    trace::set_level(TraceLevel::Kernels);
    let pc = test_matrix();
    let a = traced_fsi_run(&pc, 6);
    let b = traced_fsi_run(&pc, 6);
    trace::set_level(TraceLevel::Off);
    trace::clear();
    // The signature covers span paths (name + ancestry), flop and byte
    // counts — everything except ids, threads, and timestamps — so two
    // identical serial runs must agree exactly.
    assert_eq!(a.tree_signature(), b.tree_signature());
    assert!(
        a.tree_signature().len() > 10,
        "kernel-level run should record many spans, got {}",
        a.tree_signature().len()
    );
}

#[test]
fn stage_walls_sum_to_driver_and_stage_flops_match_model() {
    let _lock = trace::test_lock();
    trace::set_level(TraceLevel::Stages);
    let (n, l, c) = (16usize, 24usize, 6usize);
    let pc = test_matrix();
    let report = traced_fsi_run(&pc, c);
    trace::set_level(TraceLevel::Off);
    trace::clear();

    // Wall-time accounting: the three stages partition the driver span up
    // to loop glue, so their sum must land within 5% of the "fsi" total.
    let stages = report.seconds_of("cls") + report.seconds_of("bsofi") + report.seconds_of("wrap");
    let total = report.seconds_of("fsi");
    assert!(total > 0.0, "driver span missing");
    let ratio = stages / total;
    assert!(
        (0.95..=1.0).contains(&ratio),
        "stage walls {stages:.6}s vs driver {total:.6}s (ratio {ratio:.4})"
    );

    // Flop accounting: CLS is exactly b chains of (c-1) NxN GEMMs, so the
    // measured span count must equal the analytic model to the flop.
    assert_eq!(report.flops_of("cls"), fsi::selinv::cls_flops(n, l, c));
    // The driver span's inclusive count is exactly the sum of its stages
    // (nothing else in the driver charges flops).
    assert_eq!(
        report.flops_of("fsi"),
        report.flops_of("cls") + report.flops_of("bsofi") + report.flops_of("wrap")
    );
    // BSOFI's closed form 7b²N³ is the paper's leading-order count with
    // triangles multiplied as triangles; the kernels charge the dense GEMMs
    // they run (V and T keep their zero halves — ≈ 12b²N³ + O(bN³), see
    // DESIGN.md). The dense inverse's kernel model is exact to the flop.
    assert_eq!(
        report.flops_of("bsofi"),
        fsi::selinv::bsofi_inverse_flops(n, l / c)
    );
    // WRP is one product per produced block and one GETRF + GETRI per
    // inverted B_k, each charged exactly once: equal to the flop.
    assert_eq!(
        report.flops_of("wrap"),
        fsi::selinv::wrap::wrap_kernel_flops(Pattern::Columns, n, l, c)
    );
}

#[test]
fn selected_bsofi_span_flops_match_the_exact_model() {
    let _lock = trace::test_lock();
    trace::set_level(TraceLevel::Stages);
    let (n, l, c) = (16usize, 24usize, 6usize);
    let b = l / c;
    let pc = test_matrix();
    trace::clear();
    // A diagonal selection routes BSOFI through the selected-assembly path.
    let sel = Selection::new(Pattern::Diagonal, c, c / 2);
    let _ = fsi_with_q(Parallelism::Serial, &pc, &sel);
    let report = RunReport::capture("selected-bsofi-observability");
    trace::set_level(TraceLevel::Off);
    trace::clear();

    // The selected span's inclusive flops equal the kernel-exact model to
    // the flop, and the factor sub-span equals the structured-QR model.
    let pattern = fsi::selinv::SelectedPattern::Diagonals;
    assert_eq!(
        report.flops_of("bsofi.selected"),
        fsi::selinv::bsofi_selected_flops(n, b, &pattern)
    );
    assert_eq!(
        report.flops_of("bsofi.lookahead"),
        fsi::selinv::structured_qr_flops(n, b)
    );
    // Everything the bsofi stage charges flows through the selected span.
    assert_eq!(report.flops_of("bsofi"), report.flops_of("bsofi.selected"));
    // S1 wraps are free (the seeds ARE the selection) — the saving that
    // motivates the pattern-aware path.
    assert_eq!(report.flops_of("wrap"), 0);
}

#[test]
fn sweep_spans_fire_and_cache_flops_match_the_incremental_model() {
    let _lock = trace::test_lock();
    let (n, l, c) = (4usize, 8usize, 4usize);
    let builder = BlockBuilder::new(
        SquareLattice::square(2),
        HubbardParams {
            t: 1.0,
            u: 4.0,
            beta: 2.0,
            l,
        },
    );
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(21);
    let field = HsField::random(l, n, &mut rng);
    trace::set_level(TraceLevel::Stages);
    trace::clear();
    // Cold build (traced) + one sweep whose start-of-sweep refresh is warm.
    // stabilize_every = 4 < L: one mid-sweep refresh replaces a wrap.
    let cfg = SweepConfig {
        stabilize_every: 4,
        ..SweepConfig::default()
    };
    let mut s = Sweeper::new(&builder, field, cfg).expect("healthy");
    let mut sweep_rng = rand_chacha::ChaCha8Rng::seed_from_u64(22);
    s.sweep(&mut sweep_rng, Parallelism::Serial)
        .expect("healthy");
    let report = RunReport::capture("sweep-observability");
    trace::set_level(TraceLevel::Off);
    trace::clear();

    // The hot-path spans all fire: factored wraps and the per-cluster
    // cache verdict counters.
    // Each of the L − 1 slice moves is a wrap, except the one in every
    // `stabilize_every` that a refresh replaces.
    assert_eq!(
        report.count_of("wrap.factored"),
        (l - 1) - (l - 1) / cfg.stabilize_every
    );
    let hits = report.count_of("cls.cache_hit");
    let misses = report.count_of("cls.cache_miss");
    assert!(hits > 0, "warm refresh scored no cache hits");
    // 2×2 is particle–hole symmetric, so the sweeper keeps spin up alone.
    let channels = if builder.particle_hole_symmetric() {
        1
    } else {
        2
    };
    assert_eq!(channels, 1);
    // Every refresh touches b products per channel; strictly fewer than
    // that many misses per refresh means the warm pass reused clusters.
    let per_refresh = (l / c) * channels;
    let refreshes = (hits + misses) / per_refresh;
    assert_eq!(hits + misses, refreshes * per_refresh, "partial refresh?");
    assert!(
        misses < refreshes * per_refresh,
        "warm refreshes must rebuild strictly fewer products than cold"
    );
    // Each refresh assembles its diagonal block once per channel.
    assert_eq!(report.count_of("bsofi.selected"), refreshes * channels);

    // Flop attribution: each cache miss recomputes one (c-1)-GEMM cluster
    // chain, so the cache_miss spans' inclusive flops must equal the
    // incremental CLS model exactly.
    assert_eq!(
        report.flops_of("cls.cache_miss"),
        fsi::selinv::cls_incremental_flops(n, c, misses)
    );
    // And each factored wrap is the 2N² diagonal similarity plus two
    // kinetic GEMMs (dense-exp builder).
    let per_wrap = 2 * (n * n) as u64 + 2 * counts::gemm(n, n, n);
    assert_eq!(
        report.flops_of("wrap.factored"),
        report.count_of("wrap.factored") as u64 * per_wrap
    );
}

#[test]
fn ndjson_report_round_trips_through_a_file() {
    let report = {
        let _lock = trace::test_lock();
        trace::set_level(TraceLevel::Stages);
        let pc = test_matrix();
        let report = traced_fsi_run(&pc, 4);
        trace::set_level(TraceLevel::Off);
        trace::clear();
        report
    };
    let dir = std::env::temp_dir().join("fsi-observability-test");
    let path = dir.join("roundtrip.trace.ndjson");
    report.write_ndjson(&path).expect("write ndjson");
    let text = std::fs::read_to_string(&path).expect("read back");
    let parsed = RunReport::parse_ndjson(&text).expect("parse ndjson");
    assert_eq!(parsed, report);
    // Chrome view is valid JSON with one event per span.
    let chrome = path.with_extension("json");
    report.write_chrome_trace(&chrome).expect("write chrome");
    let chrome_text = std::fs::read_to_string(&chrome).expect("read chrome");
    let json = fsi::runtime::trace::Json::parse(&chrome_text).expect("chrome JSON parses");
    let events = json
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents array");
    let span_events = events
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
        .count();
    assert_eq!(span_events, report.spans.len());
    let _ = std::fs::remove_dir_all(&dir);
}

/// An injected fault shows up in the exporter: the probe's `health.*`
/// marker and every ladder rung's `dqmc.recovery.*` span survive the NDJSON
/// round trip, so a trace of a degraded run shows exactly what recovered.
/// The flight recorder's incident dump carries the same story: the most
/// recent spans (a preceding clean traced run fills the process-wide
/// ring), the health event at the faulted stage, and that stage's spans.
#[test]
fn health_and_recovery_spans_reach_the_ndjson_exporter() {
    let _inject_lock = inject::test_lock();
    let (report, dump) = {
        let _lock = trace::test_lock();
        let builder = BlockBuilder::new(
            SquareLattice::square(2),
            HubbardParams {
                t: 1.0,
                u: 4.0,
                beta: 2.0,
                l: 8,
            },
        );
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(33);
        let field = HsField::random(8, 4, &mut rng);
        trace::set_level(TraceLevel::Stages);
        flight::clear();
        // Three sweeps: with spin up as the only channel (2×2 is
        // particle–hole symmetric) one sweep leaves fewer than 32 spans.
        let mut clean = Sweeper::new(&builder, field.clone(), SweepConfig::default())
            .expect("clean traced run is healthy");
        for _ in 0..3 {
            clean
                .sweep(&mut rng, Parallelism::Serial)
                .expect("clean traced run is healthy");
        }
        trace::clear();
        inject::arm(Site {
            stage: Stage::Cls,
            block: ANY_BLOCK,
            kind: FaultKind::Nan,
        });
        let s = Sweeper::new(&builder, field, SweepConfig::default());
        let fired = inject::disarm();
        let report = RunReport::capture("recovery-observability");
        let dump = flight::last_dump();
        trace::set_level(TraceLevel::Off);
        trace::clear();
        s.expect("rung 1 absorbs a one-shot fault");
        assert!(fired > 0, "fault never fired");
        (
            report,
            dump.expect("a health event must trigger an incident dump"),
        )
    };
    assert!(
        report.count_of("health.non_finite") > 0,
        "probe marker missing from trace"
    );
    assert!(
        report.count_of("dqmc.recovery.invalidate_caches") > 0,
        "recovery rung span missing from trace"
    );

    let dir = std::env::temp_dir().join("fsi-recovery-observability-test");
    let path = dir.join("recovery.trace.ndjson");
    report.write_ndjson(&path).expect("write ndjson");
    let text = std::fs::read_to_string(&path).expect("read back");
    let parsed = RunReport::parse_ndjson(&text).expect("parse ndjson");
    assert!(parsed.count_of("health.non_finite") > 0);
    assert!(parsed.count_of("dqmc.recovery.invalidate_caches") > 0);
    let _ = std::fs::remove_dir_all(&dir);

    let spans = dump
        .lines()
        .filter(|l| l.contains("\"type\":\"span\""))
        .count();
    assert!(spans >= 32, "incident dump holds {spans} spans, want >= 32");
    assert!(
        dump.lines().any(
            |l| l.contains("\"name\":\"health.non_finite\"") && l.contains("\"stage\":\"cls\"")
        ),
        "incident dump must name the faulted stage's health event"
    );
    assert!(
        dump.lines()
            .any(|l| l.contains("\"type\":\"span\"") && l.contains("\"name\":\"cls")),
        "incident dump must include spans of the faulted stage"
    );
}

/// One feed per fact: with tracing on, the injected health event and the
/// sweep rung it triggers are each one increment of their counter, one
/// flight-ring entry and one collector span, all under the same name.
#[test]
fn each_incident_is_one_counter_one_ring_entry_and_one_span_under_one_name() {
    let _inject_lock = inject::test_lock();
    let _lock = trace::test_lock();
    let builder = BlockBuilder::new(
        SquareLattice::square(2),
        HubbardParams {
            t: 1.0,
            u: 4.0,
            beta: 2.0,
            l: 8,
        },
    );
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(34);
    let field = HsField::random(8, 4, &mut rng);
    trace::set_level(TraceLevel::Stages);
    trace::clear();
    flight::clear();
    let before = metrics::snapshot();
    inject::arm(Site {
        stage: Stage::Cls,
        block: ANY_BLOCK,
        kind: FaultKind::Nan,
    });
    let s = Sweeper::new(&builder, field, SweepConfig::default());
    let fired = inject::disarm();
    let report = RunReport::capture("single-feed");
    let ring = flight::events();
    let delta = metrics::snapshot().delta_since(&before);
    trace::set_level(TraceLevel::Off);
    trace::clear();
    let s = s.expect("rung 1 absorbs a one-shot fault");
    assert_eq!(fired, 1);
    assert_eq!(s.recovery_stats().cache_invalidations, 1);
    for (name, kind) in [
        ("health.non_finite", flight::FlightKind::Health),
        (
            "dqmc.recovery.invalidate_caches",
            flight::FlightKind::Recovery,
        ),
    ] {
        assert_eq!(delta.counter(name), 1, "{name}: counter increments");
        let entries: Vec<_> = ring.iter().filter(|e| e.name == name).collect();
        assert_eq!(entries.len(), 1, "{name}: flight-ring entries");
        assert_eq!((entries[0].kind, entries[0].stage), (kind, "cls"), "{name}");
        assert_eq!(report.count_of(name), 1, "{name}: collector records");
    }
}

/// The stage and kernel meters are gone for good: no source file of the
/// workspace declares, opens or names one.
#[test]
fn no_meter_is_left_in_the_workspace() {
    fn rust_files(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        for entry in std::fs::read_dir(dir).expect("read dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() && !path.ends_with("target") {
                rust_files(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        rust_files(&root.join(dir), &mut files);
    }
    assert!(files.len() > 50, "walked {} files", files.len());
    // Spelled in pieces so this file does not match itself.
    let meter = ["Me", "ter"].concat();
    let guard = format!("{meter}Guard");
    let new = format!("{meter}::new");
    let path = format!("metrics::{meter}");
    let mut hits = Vec::new();
    for file in files {
        let text = std::fs::read_to_string(&file).expect("read source");
        for (i, line) in text.lines().enumerate() {
            let named = line.match_indices(&path).any(|(at, m)| {
                !line[at + m.len()..].starts_with(|c: char| c.is_alphanumeric() || c == '_')
            });
            if line.contains(&guard) || line.contains(&new) || named {
                hits.push(format!("{}:{}: {line}", file.display(), i + 1));
            }
        }
    }
    assert!(hits.is_empty(), "{}", hits.join("\n"));
}
