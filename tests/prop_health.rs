//! Property-based tests of the numerical health guardrails: for arbitrary
//! injected faults the stage-boundary probes detect the corruption at the
//! faulted stage, the recovery ladder heals the run to the clean
//! trajectory, escalation is deterministic, and error paths never leave a
//! poisoned cache behind.
//!
//! (a) and (b) drill every site of `sites()`, the full 21-site
//! stage × fault grid. Every test holds `inject::test_lock()`, since the
//! plan is process-wide.

use std::sync::OnceLock;

use fsi::dqmc::{equal_time_green_stable, SweepConfig, Sweeper};
use fsi::pcyclic::{hubbard_pcyclic, BlockBuilder, HsField, HubbardParams, Spin, SquareLattice};
use fsi::runtime::health::inject::{self, FaultKind, Site, ANY_BLOCK};
use fsi::runtime::health::{FsiResult, Stage};
use fsi::selinv::Parallelism;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A cacheable-regime shape: `stabilize_every = c` anchors refreshes at a
/// fixed slice residue, so the cluster cache scores reuse and
/// `Stage::Cache` sites can fire.
const L: usize = 16;
const C: usize = 4;
const SEED: u64 = 97;

fn builder() -> BlockBuilder {
    builder_on(SquareLattice::square(2))
}

fn builder_on(lattice: SquareLattice) -> BlockBuilder {
    BlockBuilder::new(lattice, HubbardParams::paper_validation(L))
}

/// Spin channels the sweeper keeps: spin down is derived from spin up on a
/// particle–hole symmetric model, so a refresh attempt runs once per channel.
fn channels(builder: &BlockBuilder) -> u32 {
    if builder.particle_hole_symmetric() {
        1
    } else {
        2
    }
}

fn sweep_config() -> SweepConfig {
    SweepConfig {
        c: C,
        stabilize_every: C,
        ..SweepConfig::default()
    }
}

/// One sweep of the fixed workload; returns the sweeper for inspection.
fn run_workload(builder: &BlockBuilder) -> FsiResult<Sweeper<'_>> {
    let mut rng = ChaCha8Rng::seed_from_u64(SEED);
    let field = HsField::random(L, builder.lattice().n_sites(), &mut rng);
    let mut s = Sweeper::new(builder, field, sweep_config())?;
    s.sweep(&mut rng, Parallelism::Serial)?;
    Ok(s)
}

/// Field-derived observable recomputed fresh from the final field, so
/// equal trajectories give bitwise-equal values.
fn field_observable(field: &HsField) -> f64 {
    let builder = builder();
    let mut obs = 0.0;
    for spin in Spin::BOTH {
        let pc = hubbard_pcyclic(&builder, field, spin);
        let g = equal_time_green_stable(&pc, 0, C).expect("observable on a healthy field");
        let n = g.rows();
        obs += (0..n).map(|i| g[(i, i)]).sum::<f64>() / n as f64;
    }
    obs
}

/// Clean-run fingerprint, computed once (under the injection test lock).
fn clean_outcome() -> &'static (Vec<i8>, f64) {
    static CLEAN: OnceLock<(Vec<i8>, f64)> = OnceLock::new();
    CLEAN.get_or_init(|| {
        inject::disarm();
        let builder = builder();
        let s = run_workload(&builder).expect("clean run is healthy");
        assert!(
            !s.recovery_stats().any(),
            "clean run must not trigger recovery"
        );
        (s.field().to_flat(), field_observable(s.field()))
    })
}

/// Every injection site the pipeline's probes guard. `BitFlip` is a quiet
/// finite corruption only the cache checksum sees, so it is drilled at
/// `Stage::Cache` alone.
fn sites() -> Vec<Site> {
    let mut sites = Vec::new();
    for stage in [Stage::Cls, Stage::Bsofi, Stage::Green, Stage::Wrap] {
        for kind in [
            FaultKind::Nan,
            FaultKind::Inf,
            FaultKind::Huge,
            FaultKind::Scale,
        ] {
            sites.push(Site {
                stage,
                block: ANY_BLOCK,
                kind,
            });
        }
    }
    for kind in [
        FaultKind::Nan,
        FaultKind::Inf,
        FaultKind::Huge,
        FaultKind::Scale,
        FaultKind::BitFlip,
    ] {
        sites.push(Site {
            stage: Stage::Cache,
            block: ANY_BLOCK,
            kind,
        });
    }
    sites
}

fn site_strategy() -> impl Strategy<Value = Site> {
    let all = sites();
    (0..all.len()).prop_map(move |i| all[i])
}

/// (a) An armed fault is detected at the very stage boundary it
/// corrupts, at every site: the run still succeeds, the fault
/// demonstrably fired, and the first recorded health event is attributed
/// to the armed stage.
#[test]
fn fault_is_detected_within_one_stage_boundary() {
    let _lock = inject::test_lock();
    let builder = builder();
    for site in sites() {
        inject::arm(site);
        let s = run_workload(&builder);
        let fired = inject::disarm();
        let s = s.unwrap_or_else(|e| panic!("recovery must absorb {site:?}: {e}"));
        assert!(fired > 0, "site never fired: {site:?}");
        let events = &s.recovery_stats().events;
        assert!(
            !events.is_empty(),
            "fault slipped through unprobed: {site:?}"
        );
        assert_eq!(
            events[0].stage(),
            site.stage,
            "detected at the wrong boundary: {:?}",
            events[0]
        );
    }
}

/// (b) Post-recovery trajectory and observables match the clean run at
/// every site: the field bitwise, the field-derived observable to 1e-10.
#[test]
fn recovered_run_matches_clean_observables() {
    let _lock = inject::test_lock();
    let (clean_field, clean_obs) = clean_outcome().clone();
    let builder = builder();
    for site in sites() {
        inject::arm(site);
        let s = run_workload(&builder);
        let fired = inject::disarm();
        let s = s.unwrap_or_else(|e| panic!("recovery must absorb {site:?}: {e}"));
        assert!(fired > 0, "site never fired: {site:?}");
        assert_eq!(
            s.field().to_flat(),
            clean_field,
            "trajectory diverged: {site:?}"
        );
        let delta = (field_observable(s.field()) - clean_obs).abs();
        assert!(
            delta <= 1e-10,
            "observable drifted by {delta:e} for {site:?}"
        );
    }
}

/// A sticky NaN at CLS with a budget of 3 attempts × channels re-poisons
/// every retry (each attempt consumes one fire per channel), so the ladder
/// climbs past cache invalidation and cluster shrinking to the
/// from-scratch rung, and runs each rung exactly once: 3 fires on 2×2
/// (spin up alone), 6 on 3×2 (both spins).
#[test]
fn sticky_cls_fault_runs_each_ladder_rung_once() {
    let _lock = inject::test_lock();
    let site = Site {
        stage: Stage::Cls,
        block: ANY_BLOCK,
        kind: FaultKind::Nan,
    };
    for (lattice, fires) in [(SquareLattice::square(2), 3), (SquareLattice::new(3, 2), 6)] {
        let builder = builder_on(lattice);
        assert_eq!(fires, 3 * channels(&builder));
        inject::arm_times(site, fires);
        let s = run_workload(&builder);
        let fired = inject::disarm();
        let s = s.expect("the from-scratch rung absorbs the sticky fault");
        assert_eq!(fired, u64::from(fires));
        let st = s.recovery_stats();
        assert_eq!(
            [st.cache_invalidations, st.cluster_shrinks, st.from_scratch],
            [1, 1, 1],
            "budget {fires}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// (c) The escalation ladder is deterministic: re-running the same
    /// sticky fault under the same seed replays the exact rung sequence
    /// and event log.
    #[test]
    fn recovery_ladder_is_deterministic(fires in 1u32..=3 * channels(&builder())) {
        let _lock = inject::test_lock();
        // A sticky NaN at CLS re-poisons retries; each retry consumes one
        // fire per channel, so a budget of 3 × channels reaches the
        // from-scratch rung.
        let site = Site { stage: Stage::Cls, block: ANY_BLOCK, kind: FaultKind::Nan };
        let run_once = || {
            inject::arm_times(site, fires);
            let builder = builder();
            let s = run_workload(&builder);
            let fired = inject::disarm();
            let s = s.expect("ladder absorbs a bounded sticky fault");
            let st = s.recovery_stats();
            let rungs = [st.cache_invalidations, st.cluster_shrinks, st.from_scratch];
            let stages: Vec<Stage> = st.events.iter().map(|e| e.stage()).collect();
            (fired, rungs, stages, s.field().to_flat())
        };
        let a = run_once();
        let b = run_once();
        prop_assert_eq!(a, b, "ladder not deterministic at budget {}", fires);
    }

    /// (d) A wrap fault is always healed at rung 1: the retried refresh
    /// replaces the wrapped `Ĝ`, so however often a sticky NaN poisons the
    /// wraps, the ladder never shrinks `c` or starts from scratch.
    #[test]
    fn sticky_wrap_fault_is_healed_at_rung_one(fires in 1u32..=8) {
        let _lock = inject::test_lock();
        let site = Site { stage: Stage::Wrap, block: ANY_BLOCK, kind: FaultKind::Nan };
        inject::arm_times(site, fires);
        let builder = builder();
        let s = run_workload(&builder);
        let fired = inject::disarm();
        let s = s.expect("rung 1 absorbs every wrap fault");
        let st = s.recovery_stats();
        prop_assert_eq!(fired, u64::from(fires));
        prop_assert_eq!(st.cache_invalidations, u64::from(fires));
        prop_assert_eq!((st.cluster_shrinks, st.from_scratch), (0, 0));
        prop_assert!(st.events.iter().all(|e| e.stage() == Stage::Wrap));
    }

    /// (e) Error paths never leave a poisoned cache behind: after an
    /// inject + recover cycle, a warm-cache refresh is bitwise identical
    /// to a cold sweeper refreshed at the same slice from the same field.
    #[test]
    fn recovery_never_leaves_a_poisoned_cache(site in site_strategy()) {
        let _lock = inject::test_lock();
        inject::arm(site);
        let builder = builder();
        let s = run_workload(&builder);
        let fired = inject::disarm();
        let mut warm = s.expect("recovery absorbs the fault");
        prop_assert!(fired > 0, "site never fired: {site:?}");
        // Cold sweeper: same builder/config, the recovered field, no
        // history. Refresh both at the warm sweeper's anchor slice.
        let mut cold = Sweeper::new(&builder, warm.field().clone(), *warm.config())
            .expect("healthy");
        let anchor = L - 1;
        warm.refresh(anchor, Parallelism::Serial).expect("healthy");
        cold.refresh(anchor, Parallelism::Serial).expect("healthy");
        for spin in Spin::BOTH {
            let (gw, gc) = (warm.green(spin), cold.green(spin));
            prop_assert!(
                gw.as_slice() == gc.as_slice(),
                "warm refresh differs from cold after {site:?}"
            );
        }
    }
}
