//! Crash-recovery drill: kills the durable sweep engine and the
//! simulation service at every protocol boundary and asserts 100%
//! detect-and-resume with **bitwise-identical** fields, signs, Green's
//! functions, and measurement bins, recording the verdicts to
//! `results/BENCH_recovery.json` (schema in `results/schema.md`).
//!
//! Two tiers of kill sites:
//!
//! 1. **DQMC checkpoints** (always compiled) — a [`fsi_dqmc::DurableSweeper`]
//!    trajectory is checkpointed at a sweep boundary, resumed, and
//!    compared bit-for-bit against the uninterrupted reference
//!    (`dqmc.resume_boundary`, at *every* boundary); a torn current
//!    generation must fall back to the previous one and still resume
//!    bitwise (`dqmc.torn_fallback`).
//! 2. **Service durability** (`--features fault-inject`) — the
//!    `fsi_service::killpoint` plan simulates a `SIGKILL` at each
//!    durability boundary: right after the write-ahead journal append
//!    (`service.kill_after_journal`), mid-checkpoint leaving a torn
//!    envelope (`service.kill_mid_checkpoint`), parked between
//!    checkpoints (`service.kill_between_checkpoints`), plus a wedged
//!    worker the watchdog must requeue around without any restart
//!    (`service.watchdog_stall`). Every recovered job's bins must match
//!    a clean serial reference bitwise.
//!
//! Usage: `bench_recovery [--smoke] [--label=NAME] [--out=PATH]`
//!
//! `ci/check.sh` runs `--smoke` in a `fault-inject` build as a **gating**
//! step: the run aborts unless exactly the six sites above were drilled
//! and every one detected its crash and resumed bitwise.

use std::path::{Path, PathBuf};
use std::time::SystemTime;

use fsi_bench::Args;
use fsi_dqmc::{DurableSweeper, SweepCheckpoint, SweepConfig};
use fsi_pcyclic::{BlockBuilder, HubbardParams, Spin, SquareLattice};
use fsi_runtime::ckpt::Generation;
use fsi_runtime::trace::Json;
use fsi_selinv::Parallelism;
#[cfg(feature = "fault-inject")]
use fsi_selinv::{generate_fields, trace_measure, MatrixTask};
#[cfg(feature = "fault-inject")]
use fsi_service::{JobSpec, Service, ServiceConfig};

/// One kill site's verdict.
struct SiteResult {
    name: &'static str,
    /// The crash (or stall) was observed where it was armed.
    detected: bool,
    /// Post-recovery state matched the uninterrupted reference bitwise.
    bitwise: bool,
    detail: String,
}

impl SiteResult {
    fn passed(&self) -> bool {
        self.detected && self.bitwise
    }
}

fn drill_builder() -> BlockBuilder {
    BlockBuilder::new(SquareLattice::square(2), HubbardParams::paper_validation(8))
}

fn drill_cfg() -> SweepConfig {
    SweepConfig {
        c: 4,
        stabilize_every: 4,
        ..SweepConfig::default()
    }
}

/// A scratch checkpoint path under the OS temp dir, unique per process
/// so parallel CI lanes cannot collide.
fn scratch_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("fsi-recovery-{tag}-{}.ckpt", std::process::id()))
}

fn cleanup(path: &Path) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(fsi_runtime::ckpt::prev_path(path));
}

/// Bitwise comparison of two bin sets (exact `f64` bit patterns, not
/// tolerance): the whole point of the drill.
fn bins_equal(a: &[(u64, Vec<f64>)], b: &[(u64, Vec<f64>)]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|((sa, qa), (sb, qb))| {
            sa == sb
                && qa.len() == qb.len()
                && qa.iter().zip(qb).all(|(x, y)| x.to_bits() == y.to_bits())
        })
}

/// Full bitwise state comparison of two sweepers at the same boundary:
/// field, sign, and both spins' Green's functions.
fn sweepers_equal(a: &DurableSweeper<'_>, b: &DurableSweeper<'_>) -> bool {
    if a.sweeper().field() != b.sweeper().field() {
        return false;
    }
    if a.sweeper().sign().to_bits() != b.sweeper().sign().to_bits() {
        return false;
    }
    Spin::BOTH.into_iter().all(|spin| {
        let (ga, gb) = (a.sweeper().green(spin), b.sweeper().green(spin));
        ga.as_slice()
            .iter()
            .zip(gb.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
    })
}

/// Site 1: checkpoint/resume at **every** sweep boundary of a
/// trajectory must reproduce the uninterrupted run bit-for-bit.
fn dqmc_resume_site(total: u64) -> SiteResult {
    let builder = drill_builder();
    let cfg = drill_cfg();
    let seed = 41;
    let mut reference = DurableSweeper::new(&builder, cfg, seed).expect("reference init");
    reference
        .run_to(total, Parallelism::Serial, None, 1)
        .expect("reference run");

    let path = scratch_path("resume");
    let mut boundaries = 0u64;
    let mut mismatches = Vec::new();
    for stop in 1..total {
        cleanup(&path);
        let mut first = DurableSweeper::new(&builder, cfg, seed).expect("first leg init");
        first
            .run_to(stop, Parallelism::Serial, Some(&path), 1)
            .expect("first leg");
        drop(first); // the "crash": only the checkpoint file survives
        let (ckpt, generation) =
            SweepCheckpoint::load(&path).expect("checkpoint written every sweep");
        if generation != Generation::Current || ckpt.sweep != stop {
            mismatches.push(format!("stop {stop}: wrong generation/sweep"));
            continue;
        }
        let mut resumed = DurableSweeper::resume(&builder, ckpt, seed).expect("resume");
        resumed
            .run_to(total, Parallelism::Serial, None, 1)
            .expect("second leg");
        boundaries += 1;
        if !bins_equal(resumed.bins(), reference.bins()) || !sweepers_equal(&resumed, &reference) {
            mismatches.push(format!("stop {stop}: bitwise mismatch"));
        }
    }
    cleanup(&path);
    SiteResult {
        name: "dqmc.resume_boundary",
        detected: boundaries == total - 1,
        bitwise: mismatches.is_empty(),
        detail: if mismatches.is_empty() {
            format!("{boundaries} boundaries bitwise-equal over {total} sweeps")
        } else {
            mismatches.join("; ")
        },
    }
}

/// Site 2: a torn current checkpoint generation must be detected, fall
/// back to the previous generation, and still resume bitwise.
fn dqmc_torn_site(total: u64) -> SiteResult {
    let builder = drill_builder();
    let cfg = drill_cfg();
    let seed = 43;
    let mut reference = DurableSweeper::new(&builder, cfg, seed).expect("reference init");
    reference
        .run_to(total, Parallelism::Serial, None, 1)
        .expect("reference run");

    let path = scratch_path("torn");
    cleanup(&path);
    let mut first = DurableSweeper::new(&builder, cfg, seed).expect("first leg init");
    // Two checkpoints: sweep 1 rotates to `.prev` when sweep 2 lands.
    first
        .run_to(2, Parallelism::Serial, Some(&path), 1)
        .expect("first leg");
    drop(first);
    // Tear the current generation mid-write (half the envelope).
    let sealed = std::fs::read(&path).expect("read current generation");
    std::fs::write(&path, &sealed[..sealed.len() / 2]).expect("tear current generation");

    let loaded = SweepCheckpoint::load(&path);
    let (detected, bitwise, detail) = match loaded {
        Ok((ckpt, Generation::Previous)) if ckpt.sweep == 1 => {
            let mut resumed = DurableSweeper::resume(&builder, ckpt, seed).expect("resume");
            resumed
                .run_to(total, Parallelism::Serial, None, 1)
                .expect("second leg");
            let ok = bins_equal(resumed.bins(), reference.bins())
                && sweepers_equal(&resumed, &reference);
            (
                true,
                ok,
                if ok {
                    "fell back to previous generation, resumed bitwise".to_string()
                } else {
                    "fallback resumed but diverged".to_string()
                },
            )
        }
        Ok((ckpt, generation)) => (
            false,
            false,
            format!(
                "torn current not detected: got {generation:?} at sweep {}",
                ckpt.sweep
            ),
        ),
        Err(e) => (false, false, format!("no fallback generation: {e}")),
    };
    cleanup(&path);
    SiteResult {
        name: "dqmc.torn_fallback",
        detected,
        bitwise,
        detail,
    }
}

#[cfg(feature = "fault-inject")]
mod service_drills {
    use super::*;
    use fsi_runtime::metrics;
    use fsi_service::killpoint::{self, KillSite};

    const SWEEPS: usize = 4;

    pub fn drill_spec(seed: u64) -> JobSpec {
        JobSpec::new("drill", 2, 8, 4, SWEEPS, seed)
    }

    /// A fresh, empty state directory for one drill site.
    fn state_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fsi-recovery-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn service_cfg(workers: usize, dir: &Path) -> ServiceConfig {
        let mut cfg = ServiceConfig::small(workers);
        cfg.state_dir = Some(dir.to_path_buf());
        cfg.checkpoint_every = 1;
        // Keep the watchdog out of the crash drills (the stall site
        // overrides this to invite it in).
        cfg.stall_timeout_ms = 60_000;
        cfg
    }

    /// Clean per-sweep reference bins: the same deterministic serial
    /// pipeline the service workers run.
    pub fn reference_bins(spec: &JobSpec) -> Vec<Vec<f64>> {
        let builder = BlockBuilder::new(
            SquareLattice::square(spec.side),
            HubbardParams::paper_validation(spec.l),
        );
        generate_fields(spec.l, spec.n_sites(), spec.sweeps, spec.seed)
            .into_iter()
            .enumerate()
            .map(|(sweep, field)| {
                let mut task = MatrixTask::new(sweep, field, spec.c, spec.pattern, spec.seed);
                task.run(Parallelism::Serial, &builder, &trace_measure)
                    .expect("clean reference run");
                task.into_quantities().1
            })
            .collect()
    }

    fn outcome_matches(outcome: &fsi_service::JobOutcome, reference: &[Vec<f64>]) -> bool {
        !outcome.summary.failed
            && outcome.bins.len() == reference.len()
            && outcome.bins.iter().all(|(sweep, q)| {
                q.len() == reference[*sweep].len()
                    && q.iter()
                        .zip(&reference[*sweep])
                        .all(|(x, y)| x.to_bits() == y.to_bits())
            })
    }

    /// Crash immediately after the journal append: no checkpoint exists,
    /// recovery must replay the journal and rerun the job from scratch.
    pub fn kill_after_journal() -> SiteResult {
        let _guard = killpoint::test_lock();
        let dir = state_dir("journal");
        let spec = drill_spec(5001);
        let reference = reference_bins(&spec);
        killpoint::arm(KillSite::AfterJournalAppend);
        let service = Service::start(service_cfg(2, &dir));
        let handle = service
            .handle()
            .submit(spec)
            .expect("admitted before the crash");
        // The in-memory job still completes; only durable state froze.
        let _ = handle.wait();
        let fired = killpoint::disarm();
        service.kill();

        let (recovered, handles) =
            Service::recover(service_cfg(2, &dir)).expect("recover from state dir");
        let survivors = handles.len();
        let outcome = handles.into_iter().map(|h| h.wait()).next();
        recovered.shutdown();
        let bitwise = outcome
            .as_ref()
            .is_some_and(|o| outcome_matches(o, &reference));
        let _ = std::fs::remove_dir_all(&dir);
        SiteResult {
            name: "service.kill_after_journal",
            detected: fired == 1 && survivors == 1,
            bitwise,
            detail: format!("fired={fired}, {survivors} job(s) replayed from the journal"),
        }
    }

    /// Crash mid-checkpoint: the second checkpoint write is torn in
    /// place, so recovery must fall back to the previous generation
    /// (one completed bin) and rerun only the rest.
    pub fn kill_mid_checkpoint() -> SiteResult {
        let _guard = killpoint::test_lock();
        let dir = state_dir("midckpt");
        let spec = drill_spec(5002);
        let reference = reference_bins(&spec);
        // Let the first per-bin checkpoint land intact; tear the second.
        killpoint::arm_skip(KillSite::MidCheckpoint, 1, 1);
        let service = Service::start(service_cfg(1, &dir));
        let handle = service
            .handle()
            .submit(spec)
            .expect("admitted before the crash");
        let _ = handle.wait();
        let fired = killpoint::disarm();
        service.kill();

        let before = metrics::snapshot();
        let (recovered, handles) =
            Service::recover(service_cfg(1, &dir)).expect("recover from state dir");
        let survivors = handles.len();
        let outcome = handles.into_iter().map(|h| h.wait()).next();
        let fallbacks = metrics::snapshot()
            .delta_since(&before)
            .counters
            .get("runtime.ckpt.fallbacks")
            .copied()
            .unwrap_or(0);
        recovered.shutdown();
        let bitwise = outcome
            .as_ref()
            .is_some_and(|o| outcome_matches(o, &reference));
        let _ = std::fs::remove_dir_all(&dir);
        SiteResult {
            name: "service.kill_mid_checkpoint",
            detected: fired == 1 && survivors == 1 && fallbacks >= 1,
            bitwise,
            detail: format!("fired={fired}, {fallbacks} torn-generation fallback(s) on recovery"),
        }
    }

    /// Crash between checkpoints: the worker is parked two bins in, the
    /// service is killed, and recovery resumes from the last intact
    /// checkpoint instead of rerunning from scratch.
    pub fn kill_between_checkpoints() -> SiteResult {
        let _guard = killpoint::test_lock();
        let dir = state_dir("between");
        let spec = drill_spec(5003);
        let reference = reference_bins(&spec);
        // Sweeps 0 and 1 pass the stall gate; the worker parks entering
        // sweep 2, after the sweep-1 checkpoint landed.
        killpoint::arm_skip(KillSite::WorkerStall, 2, 1);
        let service = Service::start(service_cfg(1, &dir));
        let handle = service
            .handle()
            .submit(spec)
            .expect("admitted before the crash");
        let mut bins_seen = 0usize;
        while bins_seen < 2 {
            match handle.events().recv() {
                Ok(fsi_service::JobEvent::Bin { .. }) => bins_seen += 1,
                Ok(_) => {}
                Err(_) => break,
            }
        }
        // Give the worker time to park on the stall gate so the durable
        // state is frozen at exactly two checkpointed bins.
        std::thread::sleep(std::time::Duration::from_millis(100));
        // kill() freezes durable state first, then joins the workers —
        // the parked one must be released for the join to complete.
        let killer = std::thread::spawn(move || service.kill());
        while !killer.is_finished() {
            killpoint::release_stall();
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        killer.join().expect("kill thread");
        let fired = killpoint::disarm();

        let (recovered, handles) =
            Service::recover(service_cfg(1, &dir)).expect("recover from state dir");
        let survivors = handles.len();
        let outcome = handles.into_iter().map(|h| h.wait()).next();
        recovered.shutdown();
        let resumed_bins = outcome.as_ref().map(|o| o.bins.len()).unwrap_or(0);
        let bitwise = outcome
            .as_ref()
            .is_some_and(|o| outcome_matches(o, &reference));
        let _ = std::fs::remove_dir_all(&dir);
        SiteResult {
            name: "service.kill_between_checkpoints",
            detected: fired == 1 && survivors == 1,
            bitwise,
            detail: format!(
                "fired={fired}, parked at sweep 2, resumed to {resumed_bins}/{SWEEPS} bins"
            ),
        }
    }

    /// No restart at all: one worker wedges mid-sweep and the watchdog
    /// must requeue its sweep to the healthy worker, with the job's bins
    /// still bitwise-identical.
    pub fn watchdog_stall() -> SiteResult {
        let _guard = killpoint::test_lock();
        let spec = drill_spec(5004);
        let reference = reference_bins(&spec);
        let mut cfg = ServiceConfig::small(2);
        cfg.state_dir = None; // supervision drill, no durability needed
        cfg.stall_timeout_ms = 150;
        cfg.watchdog_poll_ms = 25;
        killpoint::arm(KillSite::WorkerStall);
        let before = metrics::snapshot();
        let service = Service::start(cfg);
        let handle = service.handle().submit(spec).expect("admitted");
        let outcome = handle.wait();
        let stalls = metrics::snapshot()
            .delta_since(&before)
            .counters
            .get("service.watchdog.stalls")
            .copied()
            .unwrap_or(0);
        killpoint::release_stall();
        service.shutdown();
        let fired = killpoint::disarm();
        let bitwise = outcome_matches(&outcome, &reference);
        SiteResult {
            name: "service.watchdog_stall",
            detected: fired == 1 && stalls >= 1,
            bitwise,
            detail: format!("fired={fired}, watchdog requeued {stalls} stalled sweep(s)"),
        }
    }
}

fn main() {
    let args = Args::parse();
    fsi_bench::init_trace("bench_recovery", &args);
    let smoke = args.flag("smoke");
    let label = args
        .flag_value("label")
        .unwrap_or(if smoke { "smoke" } else { "full" })
        .to_string();
    let out = args
        .flag_value("out")
        .unwrap_or("results/BENCH_recovery.json")
        .to_string();
    let total_sweeps: u64 = if smoke { 4 } else { 8 };

    println!("bench_recovery: crash drill over DQMC + service kill sites (label={label})");
    #[cfg_attr(not(feature = "fault-inject"), allow(unused_mut))]
    let mut sites = vec![dqmc_resume_site(total_sweeps), dqmc_torn_site(total_sweeps)];
    #[cfg(feature = "fault-inject")]
    {
        sites.push(service_drills::kill_after_journal());
        sites.push(service_drills::kill_mid_checkpoint());
        sites.push(service_drills::kill_between_checkpoints());
        sites.push(service_drills::watchdog_stall());
    }
    #[cfg(not(feature = "fault-inject"))]
    println!("  (service kill sites need --features fault-inject; running DQMC tier only)");

    for site in &sites {
        println!(
            "  [{}] {} — detected={} bitwise={} ({})",
            if site.passed() { "PASS" } else { "FAIL" },
            site.name,
            site.detected,
            site.bitwise,
            site.detail
        );
    }
    let passed = sites.iter().filter(|s| s.passed()).count();
    // A site that silently drops out of the list must fail the drill,
    // not shrink it.
    let documented = if cfg!(feature = "fault-inject") { 6 } else { 2 };

    let unix_ms = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    let site_json = sites
        .iter()
        .map(|s| {
            Json::Obj(vec![
                ("name".into(), Json::Str(s.name.into())),
                ("detected".into(), Json::Bool(s.detected)),
                ("bitwise".into(), Json::Bool(s.bitwise)),
                ("passed".into(), Json::Bool(s.passed())),
                ("detail".into(), Json::Str(s.detail.clone())),
            ])
        })
        .collect();
    let json = Json::Obj(vec![
        ("kind".into(), Json::Str("bench_recovery".into())),
        ("schema".into(), Json::Int(1)),
        ("label".into(), Json::Str(label)),
        ("unix_ms".into(), Json::Int(unix_ms)),
        ("smoke".into(), Json::Bool(smoke)),
        ("sites".into(), Json::Int(sites.len() as u64)),
        ("passed".into(), Json::Int(passed as u64)),
        ("site_results".into(), Json::Arr(site_json)),
    ]);
    if let Some(dir) = std::path::Path::new(&out).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
    }
    fsi_bench::write_artifact(&out, &json.to_string()).expect("write bench json");
    println!("wrote {out} ({passed}/{} sites passed)", sites.len());
    assert_eq!(
        sites.len(),
        documented,
        "crash drill must run every documented kill site"
    );
    assert_eq!(
        passed,
        sites.len(),
        "crash drill must detect and bitwise-resume at every kill site"
    );
}
