//! Durability properties: checkpoint envelopes round-trip bitwise,
//! every single-byte corruption of a sealed envelope is rejected, a
//! torn current generation falls back to the previous one, a DQMC run's
//! observables resume bitwise from every sweep boundary, and a service
//! that is drained, crash-killed at each durability boundary, or wedged
//! under its watchdog still delivers bins bitwise-identical to an
//! uninterrupted run.
//!
//! The kill-point plan is process-wide: every test here that starts a
//! service holds `killpoint::test_lock()`, so no submit or worker takes
//! a kill armed by a neighbouring test.

use std::path::Path;
use std::time::Duration;

use fsi::dqmc::{
    run, Accumulator, DqmcConfig, DqmcResults, Simulation, SpxxTable, SweepCheckpoint, SweepConfig,
};
use fsi::pcyclic::{BlockBuilder, SquareLattice};
use fsi::runtime::ckpt::{self, Generation};
use fsi::runtime::metrics;
use fsi::selinv::Parallelism;
use fsi::service::killpoint::{self, KillSite};
use fsi::service::{JobEvent, JobOutcome, JobSpec, Service, ServiceConfig};
use proptest::prelude::*;

/// A process-unique scratch path under the OS temp dir.
fn scratch(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "fsi-prop-recovery-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ))
}

/// A structurally valid checkpoint from proptest-driven raw parts
/// (`c` divides `L`, field entries are ±1).
fn arb_checkpoint() -> impl Strategy<Value = SweepCheckpoint> {
    (1usize..5, 1usize..5, 1usize..4).prop_flat_map(|(l_units, n, c)| {
        let l = c * l_units;
        (
            any::<u64>(),
            any::<u64>(),
            prop::collection::vec((0u32..2).prop_map(|b| if b == 0 { -1i8 } else { 1i8 }), {
                let spins = l * n;
                spins..spins + 1
            }),
            prop::collection::vec((0u64..64, prop::collection::vec(-1e3f64..1e3, 0..4)), 0..4),
            -1e6f64..1e6,
        )
            .prop_map(
                move |(sweep, rng_word_pos, field, bins, sign)| SweepCheckpoint {
                    sweep,
                    l,
                    n,
                    field,
                    rng_word_pos,
                    sign,
                    cfg: SweepConfig {
                        c,
                        stabilize_every: c,
                        delay: 1,
                    },
                    bins,
                },
            )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `encode ∘ decode` is the identity on valid checkpoints — the
    /// field, RNG position, sign bits, config, and every bin survive.
    #[test]
    fn checkpoint_round_trips_bitwise(ckpt in arb_checkpoint()) {
        let decoded = SweepCheckpoint::decode(&ckpt.encode()).expect("valid checkpoint decodes");
        prop_assert_eq!(&decoded, &ckpt);
        prop_assert_eq!(decoded.sign.to_bits(), ckpt.sign.to_bits());
    }

    /// Flipping any single byte of a sealed envelope — header or
    /// payload — is always detected: FNV-1a's byte step is invertible,
    /// so no single-byte corruption can collide, and the header fields
    /// are each independently checked.
    #[test]
    fn any_single_corrupted_byte_is_rejected(
        payload in prop::collection::vec((0u32..256).prop_map(|b| b as u8), 0..64),
        corrupt_at in any::<usize>(),
        flip in 1u32..256,
    ) {
        let sealed = ckpt::seal(7, &payload);
        let mut torn = sealed.clone();
        let at = corrupt_at % torn.len();
        let flip = flip as u8;
        torn[at] ^= flip;
        prop_assert!(
            ckpt::open(&torn, 7).is_err(),
            "byte {at} xor {flip:#04x} slipped past the envelope checks"
        );
        // And the uncorrupted envelope still opens, to rule out a
        // vacuous pass.
        prop_assert_eq!(ckpt::open(&sealed, 7).expect("clean envelope"), &payload[..]);
    }

    /// Two-generation rotation: after a second `store`, tearing the
    /// current file at any truncation point still recovers the previous
    /// generation's payload.
    #[test]
    fn torn_current_generation_falls_back(cut in 0usize..20) {
        let path = scratch("rotate");
        ckpt::store(&path, 3, b"generation-zero").expect("store gen 0");
        ckpt::store(&path, 3, b"generation-one").expect("store gen 1");
        let sealed = std::fs::read(&path).expect("read current");
        std::fs::write(&path, &sealed[..cut.min(sealed.len() - 1)]).expect("tear current");
        let (payload, generation) = ckpt::load(&path, 3).expect("previous generation survives");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(ckpt::prev_path(&path));
        prop_assert_eq!(generation, Generation::Previous);
        prop_assert_eq!(&payload[..], b"generation-zero");
    }
}

/// The drills' run: 2×2, L=8, two warm-up sweeps, three measurement
/// steps — six sweep boundaries after the initial one.
fn dqmc_config(seed: u64) -> DqmcConfig {
    DqmcConfig {
        measurements: 3,
        seed,
        ..DqmcConfig::small()
    }
}

fn dqmc_builder(cfg: &DqmcConfig) -> BlockBuilder {
    BlockBuilder::new(SquareLattice::new(cfg.nx, cfg.ny), cfg.params())
}

fn remove_checkpoint(path: &Path) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(ckpt::prev_path(path));
}

/// Bit patterns, so `-0.0 ≠ 0.0` and NaN payloads count.
fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// `cfg`'s run stopped at sweep boundary `stop`, warm-up and measurement
/// alike. A warm-up boundary is reached with `warmup` cut to `stop`: the
/// initial field depends on the seed and the shape only, so that is the
/// same trajectory.
fn first_leg<'a>(cfg: &DqmcConfig, builder: &'a BlockBuilder, stop: usize) -> Simulation<'a> {
    let warmup = stop.min(cfg.warmup);
    let leg_cfg = DqmcConfig {
        warmup,
        ..cfg.clone()
    };
    let mut sim = Simulation::new(&leg_cfg, builder).expect("first leg");
    sim.warmup(Parallelism::Serial).expect("first leg warm-up");
    for _ in warmup..stop {
        sim.step(Parallelism::Serial).expect("first leg step");
    }
    sim
}

/// Resumes `saved` under `cfg` and runs it to the end.
fn second_leg(cfg: &DqmcConfig, builder: &BlockBuilder, saved: SweepCheckpoint) -> DqmcResults {
    let steps_done = (saved.sweep as usize).saturating_sub(cfg.warmup);
    let mut sim = Simulation::resume(cfg, builder, saved).expect("resume");
    sim.warmup(Parallelism::Serial).expect("second leg warm-up");
    for _ in steps_done..cfg.measurements {
        sim.step(Parallelism::Serial).expect("second leg step");
    }
    sim.finish()
}

/// The accumulators of a run's observables, by name.
fn accumulators(r: &DqmcResults) -> [(&'static str, &Accumulator); 8] {
    [
        ("density", &r.density),
        ("double occupancy", &r.double_occupancy),
        ("moment", &r.moment),
        ("kinetic", &r.kinetic),
        ("sign", &r.avg_sign),
        ("acceptance", &r.acceptance),
        ("structure factor", &r.structure_factor),
        ("susceptibility", &r.susceptibility),
    ]
}

/// Same observables, bit for bit: every accumulator's count, mean and
/// standard error, and every SPXX entry and count.
fn assert_same_results(resumed: &DqmcResults, reference: &DqmcResults, at: &str) {
    for ((name, a), (_, b)) in accumulators(resumed)
        .into_iter()
        .zip(accumulators(reference))
    {
        assert_eq!(a.count(), b.count(), "{at}: {name} count");
        assert_eq!(a.mean().to_bits(), b.mean().to_bits(), "{at}: {name} mean");
        assert_eq!(
            a.stderr().to_bits(),
            b.stderr().to_bits(),
            "{at}: {name} stderr"
        );
    }
    let (a, b) = (
        resumed.spxx.as_ref().expect("resumed SPXX"),
        reference.spxx.as_ref().expect("reference SPXX"),
    );
    assert_eq!((a.l(), a.dmax()), (b.l(), b.dmax()), "{at}: SPXX shape");
    for tau in 0..a.l() {
        assert_eq!(a.count(tau), b.count(tau), "{at}: SPXX count τ={tau}");
        let row = |t: &SpxxTable| (0..t.dmax()).map(|d| t.at(tau, d)).collect::<Vec<_>>();
        assert_eq!(bits(&row(a)), bits(&row(b)), "{at}: SPXX row τ={tau}");
    }
}

/// A checkpoint written at any sweep boundary of a run, warm-up and
/// measurement alike, resumes bitwise: the second leg finishes with
/// exactly the observables of `run`, which never stops.
#[test]
fn dqmc_resume_is_bitwise_equal_to_uninterrupted() {
    let cfg = dqmc_config(97);
    let builder = dqmc_builder(&cfg);
    let reference = run(&cfg, Parallelism::Serial).expect("reference run");

    let path = scratch("dqmc");
    for stop in 0..=cfg.warmup + cfg.measurements {
        remove_checkpoint(&path);
        let first = first_leg(&cfg, &builder, stop);
        first.checkpoint().save(&path).expect("checkpoint write");
        drop(first); // the "crash": only the checkpoint file survives
        let (saved, generation) = SweepCheckpoint::load(&path).expect("checkpoint on disk");
        assert_eq!(generation, Generation::Current, "stop {stop}");
        assert_eq!(saved.sweep, stop as u64, "stop {stop}: checkpointed sweep");
        let resumed = second_leg(&cfg, &builder, saved);
        assert_same_results(&resumed, &reference, &format!("stop {stop}"));
    }
    remove_checkpoint(&path);
}

/// A torn current `SweepCheckpoint` is rejected, the previous generation
/// is served instead, and the run resumed from it still finishes with
/// bitwise the uninterrupted run's observables.
#[test]
fn torn_sweep_checkpoint_resumes_bitwise_from_the_previous_generation() {
    let cfg = dqmc_config(43);
    let builder = dqmc_builder(&cfg);
    let reference = run(&cfg, Parallelism::Serial).expect("reference run");

    let path = scratch("torn-sweep");
    remove_checkpoint(&path);
    // Two checkpoints: the one after the first step rotates to the
    // previous generation when the one after the second step lands.
    let mut first = first_leg(&cfg, &builder, cfg.warmup + 1);
    first.checkpoint().save(&path).expect("checkpoint write");
    first.step(Parallelism::Serial).expect("first leg step");
    first.checkpoint().save(&path).expect("checkpoint write");
    drop(first);
    let sealed = std::fs::read(&path).expect("read current generation");
    std::fs::write(&path, &sealed[..sealed.len() / 2]).expect("tear current generation");

    let (saved, generation) = SweepCheckpoint::load(&path).expect("previous generation survives");
    remove_checkpoint(&path);
    assert_eq!(generation, Generation::Previous);
    assert_eq!(saved.sweep, cfg.warmup as u64 + 1);
    let resumed = second_leg(&cfg, &builder, saved);
    assert_same_results(&resumed, &reference, "previous generation");
}

/// Bins of an uninterrupted run on a durability-free service.
fn clean_outcome(spec: &JobSpec, workers: usize) -> JobOutcome {
    let mut cfg = ServiceConfig::small(workers);
    cfg.state_dir = None;
    let clean = Service::start(cfg);
    let outcome = clean
        .handle()
        .submit(spec.clone())
        .expect("admitted")
        .wait();
    clean.shutdown();
    assert!(!outcome.summary.failed);
    outcome
}

fn assert_bins_bitwise(outcome: &JobOutcome, reference: &JobOutcome) {
    assert!(!outcome.summary.failed);
    assert_eq!(outcome.bins.len(), reference.bins.len());
    for ((sweep_a, bin_a), (sweep_b, bin_b)) in outcome.bins.iter().zip(&reference.bins) {
        assert_eq!(sweep_a, sweep_b);
        assert_eq!(
            bits(bin_a),
            bits(bin_b),
            "sweep {sweep_a}: resume must be bitwise"
        );
    }
}

/// A durable configuration checkpointing after every bin, with the
/// watchdog kept out of the way.
fn durable_cfg(workers: usize, dir: &Path) -> ServiceConfig {
    let mut c = ServiceConfig::small(workers);
    c.state_dir = Some(dir.to_path_buf());
    c.checkpoint_every = 1;
    c.stall_timeout_ms = 60_000;
    c
}

/// Recovers the state directory, expects exactly one re-admitted job and
/// returns its outcome.
fn recover_one(cfg: ServiceConfig) -> JobOutcome {
    let (recovered, handles) = Service::recover(cfg).expect("recover");
    assert_eq!(
        handles.len(),
        1,
        "the interrupted job must survive the restart"
    );
    let outcome = handles.into_iter().next().unwrap().wait();
    recovered.shutdown();
    outcome
}

/// Service-tier resume: `drain()` checkpoints in-flight jobs, and a
/// `recover()` on the same state directory completes them with bins
/// bitwise-identical to an uninterrupted run. No fault injection
/// needed — drain/recover is the graceful-restart path.
#[test]
fn drained_service_recovers_bitwise() {
    let _guard = killpoint::test_lock();
    let dir = scratch("drain");
    let spec = JobSpec::new("drainee", 2, 8, 4, 16, 314);
    let reference = clean_outcome(&spec, 1);

    // Interrupted arm: drain as soon as the first bin lands, so later
    // sweeps are discarded unclaimed and must rerun after recovery. If
    // the worker outruns us and retires the whole job before the drain
    // takes effect (a legal race — the journal's finished record then
    // correctly leaves nothing to re-admit), start over; with 16
    // sweeps that window is vanishingly small.
    let mut attempt = 0;
    let (recovered, handles) = loop {
        attempt += 1;
        let _ = std::fs::remove_dir_all(&dir);
        let service = Service::start(durable_cfg(1, &dir));
        let handle = service.handle().submit(spec.clone()).expect("admitted");
        loop {
            match handle.events().recv() {
                Ok(JobEvent::Bin { .. }) => break,
                Ok(_) => {}
                Err(_) => panic!("service closed before the first bin"),
            }
        }
        service.drain();

        let (recovered, handles) = Service::recover(durable_cfg(1, &dir)).expect("recover");
        if !handles.is_empty() {
            break (recovered, handles);
        }
        recovered.shutdown();
        assert!(
            attempt < 8,
            "job kept finishing before drain interrupted it"
        );
    };
    assert_eq!(handles.len(), 1, "the drained job must survive the restart");
    let outcome = handles.into_iter().next().unwrap().wait();
    recovered.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    assert_bins_bitwise(&outcome, &reference);
}

/// Hard-crash resume: a kill right after the journal append leaves only
/// the write-ahead record; recovery reruns the job from scratch and
/// still matches bitwise.
#[test]
fn killed_service_recovers_bitwise() {
    let _guard = killpoint::test_lock();
    let dir = scratch("kill");
    let _ = std::fs::remove_dir_all(&dir);
    let spec = JobSpec::new("victim", 2, 8, 4, 3, 2718);
    let reference = clean_outcome(&spec, 2);

    killpoint::arm(KillSite::AfterJournalAppend);
    let service = Service::start(durable_cfg(2, &dir));
    let handle = service.handle().submit(spec).expect("admitted");
    let _ = handle.wait(); // in-memory completion; durable state froze
    assert_eq!(killpoint::disarm(), 1, "the kill point must fire");
    service.kill();

    let outcome = recover_one(durable_cfg(2, &dir));
    let _ = std::fs::remove_dir_all(&dir);
    assert_bins_bitwise(&outcome, &reference);
}

/// Crash mid-checkpoint: the second checkpoint write is torn in place,
/// so recovery must fall back to the previous generation (one completed
/// bin) and rerun only the rest — still bitwise.
#[test]
fn kill_mid_checkpoint_falls_back_and_recovers_bitwise() {
    let _guard = killpoint::test_lock();
    let dir = scratch("midckpt");
    let _ = std::fs::remove_dir_all(&dir);
    let spec = JobSpec::new("torn", 2, 8, 4, 4, 5002);
    let reference = clean_outcome(&spec, 1);

    // Let the first per-bin checkpoint land intact; tear the second.
    killpoint::arm_skip(KillSite::MidCheckpoint, 1, 1);
    let service = Service::start(durable_cfg(1, &dir));
    let handle = service.handle().submit(spec).expect("admitted");
    let _ = handle.wait();
    assert_eq!(killpoint::disarm(), 1, "the kill point must fire");
    service.kill();

    let before = metrics::snapshot();
    let outcome = recover_one(durable_cfg(1, &dir));
    let fallbacks = metrics::snapshot()
        .delta_since(&before)
        .counters
        .get("runtime.ckpt.fallbacks")
        .copied()
        .unwrap_or(0);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        fallbacks >= 1,
        "recovery must fall back past the torn generation"
    );
    assert_bins_bitwise(&outcome, &reference);
}

/// Crash between checkpoints: the worker parks entering sweep 2 (after
/// the sweep-1 checkpoint landed), the service is killed, and recovery
/// resumes from the last intact checkpoint — bitwise.
#[test]
fn kill_between_checkpoints_recovers_bitwise() {
    let _guard = killpoint::test_lock();
    let dir = scratch("between");
    let _ = std::fs::remove_dir_all(&dir);
    let spec = JobSpec::new("parked", 2, 8, 4, 4, 5003);
    let reference = clean_outcome(&spec, 1);

    // Sweeps 0 and 1 pass the stall gate; the worker parks entering
    // sweep 2.
    killpoint::arm_skip(KillSite::WorkerStall, 2, 1);
    let service = Service::start(durable_cfg(1, &dir));
    let handle = service.handle().submit(spec).expect("admitted");
    let mut bins_seen = 0;
    while bins_seen < 2 {
        match handle.events().recv() {
            Ok(JobEvent::Bin { .. }) => bins_seen += 1,
            Ok(_) => {}
            Err(_) => panic!("service closed before two bins"),
        }
    }
    // Give the worker time to park on the stall gate so the durable
    // state is frozen at exactly two checkpointed bins.
    std::thread::sleep(Duration::from_millis(100));
    // kill() freezes durable state first, then joins the workers — the
    // parked one must be released for the join to complete.
    let killer = std::thread::spawn(move || service.kill());
    while !killer.is_finished() {
        killpoint::release_stall();
        std::thread::sleep(Duration::from_millis(10));
    }
    killer.join().expect("kill thread");
    assert_eq!(killpoint::disarm(), 1, "the stall must fire");

    let outcome = recover_one(durable_cfg(1, &dir));
    let _ = std::fs::remove_dir_all(&dir);
    assert_bins_bitwise(&outcome, &reference);
}

/// No restart at all: one worker wedges mid-sweep and the watchdog
/// requeues its sweep to the healthy worker; the job's bins stay
/// bitwise-identical.
#[test]
fn watchdog_requeues_a_stalled_sweep_bitwise() {
    let _guard = killpoint::test_lock();
    let spec = JobSpec::new("wedged", 2, 8, 4, 4, 5004);
    let reference = clean_outcome(&spec, 2);

    let mut cfg = ServiceConfig::small(2);
    cfg.state_dir = None;
    cfg.stall_timeout_ms = 150;
    cfg.watchdog_poll_ms = 25;
    killpoint::arm(KillSite::WorkerStall);
    let before = metrics::snapshot();
    let service = Service::start(cfg);
    let outcome = service.handle().submit(spec).expect("admitted").wait();
    let stalls = metrics::snapshot()
        .delta_since(&before)
        .counters
        .get("service.watchdog.stalls")
        .copied()
        .unwrap_or(0);
    killpoint::release_stall();
    service.shutdown();
    assert_eq!(killpoint::disarm(), 1, "the stall must fire");
    assert!(stalls >= 1, "the watchdog must requeue the stalled sweep");
    assert_bins_bitwise(&outcome, &reference);
}
