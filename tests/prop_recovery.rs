//! Durability properties: checkpoint envelopes round-trip bitwise,
//! every single-byte corruption of a sealed envelope is rejected, a
//! torn current generation falls back to the previous one, and a
//! drained (or, under `fault-inject`, crash-killed) service resumes
//! with bins bitwise-identical to an uninterrupted run.

use fsi::dqmc::{DurableSweeper, SweepCheckpoint, SweepConfig};
use fsi::pcyclic::{BlockBuilder, HubbardParams, SquareLattice};
use fsi::runtime::ckpt::{self, Generation};
use fsi::selinv::Parallelism;
use fsi::service::{JobSpec, Service, ServiceConfig};
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

/// A checkpoint written mid-trajectory resumes bitwise: same bins, same
/// field, same sign bits, same Green's functions as never stopping.
#[test]
fn dqmc_resume_is_bitwise_equal_to_uninterrupted() {
    let builder = BlockBuilder::new(SquareLattice::square(2), HubbardParams::paper_validation(8));
    let cfg = SweepConfig {
        c: 4,
        stabilize_every: 4,
        ..SweepConfig::default()
    };
    let seed = 97;
    let total = 5;
    let mut reference = DurableSweeper::new(&builder, cfg, seed).expect("reference");
    reference
        .run_to(total, Parallelism::Serial, None, 1)
        .expect("reference run");

    let path = scratch("dqmc");
    let mut first = DurableSweeper::new(&builder, cfg, seed).expect("first leg");
    first
        .run_to(3, Parallelism::Serial, Some(&path), 1)
        .expect("first leg run");
    drop(first);
    let (saved, generation) = SweepCheckpoint::load(&path).expect("checkpoint on disk");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(ckpt::prev_path(&path));
    assert_eq!(generation, Generation::Current);
    let mut resumed = DurableSweeper::resume(&builder, saved, seed).expect("resume");
    resumed
        .run_to(total, Parallelism::Serial, None, 1)
        .expect("second leg");

    assert_eq!(resumed.bins(), reference.bins());
    assert_eq!(resumed.sweeper().field(), reference.sweeper().field());
    assert_eq!(
        resumed.sweeper().sign().to_bits(),
        reference.sweeper().sign().to_bits()
    );
    for spin in fsi::pcyclic::Spin::BOTH {
        assert_eq!(
            resumed.sweeper().green(spin).as_slice(),
            reference.sweeper().green(spin).as_slice()
        );
    }
}

/// Service-tier resume: `drain()` checkpoints in-flight jobs, and a
/// `recover()` on the same state directory completes them with bins
/// bitwise-identical to an uninterrupted run. No fault injection
/// needed — drain/recover is the graceful-restart path.
#[test]
fn drained_service_recovers_bitwise() {
    let dir = scratch("drain");
    let _ = std::fs::remove_dir_all(&dir);
    let spec = JobSpec::new("drainee", 2, 8, 4, 16, 314);

    // Uninterrupted reference on an identical (durability-free) service.
    let clean = Service::start({
        let mut c = ServiceConfig::small(1);
        c.state_dir = None;
        c
    });
    let reference = clean
        .handle()
        .submit(spec.clone())
        .expect("admitted")
        .wait();
    clean.shutdown();
    assert!(!reference.summary.failed);

    let cfg = || {
        let mut c = ServiceConfig::small(1);
        c.state_dir = Some(dir.clone());
        c.checkpoint_every = 1;
        c
    };
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
        let service = Service::start(cfg());
        let handle = service.handle().submit(spec.clone()).expect("admitted");
        loop {
            match handle.events().recv() {
                Ok(fsi::service::JobEvent::Bin { .. }) => break,
                Ok(_) => {}
                Err(_) => panic!("service closed before the first bin"),
            }
        }
        service.drain();

        let (recovered, handles) = Service::recover(cfg()).expect("recover");
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

    assert!(!outcome.summary.failed);
    assert_eq!(outcome.bins.len(), reference.bins.len());
    for ((sweep_a, bin_a), (sweep_b, bin_b)) in outcome.bins.iter().zip(&reference.bins) {
        assert_eq!(sweep_a, sweep_b);
        assert_eq!(bin_a, bin_b, "sweep {sweep_a}: resume must be bitwise");
    }
}

/// Hard-crash resume: a kill right after the journal append leaves only
/// the write-ahead record; recovery reruns the job from scratch and
/// still matches bitwise.
#[cfg(feature = "fault-inject")]
#[test]
fn killed_service_recovers_bitwise() {
    use fsi::service::killpoint::{self, KillSite};

    let _guard = killpoint::test_lock();
    let dir = scratch("kill");
    let _ = std::fs::remove_dir_all(&dir);
    let spec = JobSpec::new("victim", 2, 8, 4, 3, 2718);

    let clean = Service::start({
        let mut c = ServiceConfig::small(2);
        c.state_dir = None;
        c
    });
    let reference = clean
        .handle()
        .submit(spec.clone())
        .expect("admitted")
        .wait();
    clean.shutdown();

    let cfg = || {
        let mut c = ServiceConfig::small(2);
        c.state_dir = Some(dir.clone());
        c
    };
    killpoint::arm(KillSite::AfterJournalAppend);
    let service = Service::start(cfg());
    let handle = service.handle().submit(spec).expect("admitted");
    let _ = handle.wait(); // in-memory completion; durable state froze
    assert_eq!(killpoint::disarm(), 1, "the kill point must fire");
    service.kill();

    let (recovered, handles) = Service::recover(cfg()).expect("recover");
    assert_eq!(handles.len(), 1, "journal replay must re-admit the job");
    let outcome = handles.into_iter().next().unwrap().wait();
    recovered.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    assert!(!outcome.summary.failed);
    assert_eq!(outcome.bins.len(), reference.bins.len());
    for ((sweep_a, bin_a), (sweep_b, bin_b)) in outcome.bins.iter().zip(&reference.bins) {
        assert_eq!(sweep_a, sweep_b);
        assert_eq!(bin_a, bin_b, "sweep {sweep_a}: rerun must be bitwise");
    }
}
