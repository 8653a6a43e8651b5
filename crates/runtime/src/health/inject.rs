//! Deterministic fault injection for drilling the health probes.
//!
//! Compiled always and disarmed by default: a disarmed hook costs one
//! atomic load. A *plan* is armed globally — one [`Site`] (stage, block
//! and fault kind) with a fire budget — and the pipeline's injection
//! hooks call [`poison`] at each stage boundary; when the site matches
//! and the budget is not exhausted, the buffer is poisoned in place.
//! Multi-fire plans keep poisoning retries, which is how the tests push
//! the recovery ladder past its first rung. Arming is API-only: no option
//! or environment variable reaches it.
//!
//! The plan is mutex-protected (read only while armed) and seed-free: a
//! given (plan, workload) pair fires at exactly the same program points
//! every run, so recovery trajectories are reproducible and the
//! proptests can assert determinism.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

use super::Stage;

/// Matches any block index at the armed stage.
pub const ANY_BLOCK: usize = usize::MAX;

/// The kind of corruption written into a matched buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Writes a NaN into the middle of the buffer.
    Nan,
    /// Writes +Inf into the first entry.
    Inf,
    /// Writes a huge-but-finite value (1e300) — corruption that survives
    /// `is_finite` checks and must be caught by the magnitude probe.
    Huge,
    /// Rescales the whole buffer by 1e200, modeling the `κ(B)^c`
    /// conditioning blowup of an over-long cluster chain (paper §II-C).
    /// (Scaling *down* instead would yield a healthy-looking but wrong
    /// matrix that no cheap probe can distinguish — see the drill notes.)
    Scale,
    /// Flips one low mantissa bit of the middle entry — a quiet finite
    /// corruption only the cache checksum can see.
    BitFlip,
}

/// An injection site: which stage/block to poison and how.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Site {
    /// Stage whose boundary hook should fire.
    pub stage: Stage,
    /// Block index to match, or [`ANY_BLOCK`].
    pub block: usize,
    /// Corruption to apply.
    pub kind: FaultKind,
}

struct Plan {
    site: Site,
    fires_left: u32,
    fired: u64,
}

static PLAN: Mutex<Option<Plan>> = Mutex::new(None);
/// Whether a plan is armed: the one load a disarmed hook pays. Relaxed
/// is enough because it publishes nothing: the plan is read under its
/// mutex, and the hooks run on the arming thread or on threads it hands
/// work to afterwards (spawn, channel, pool), which orders the store
/// before their loads.
static ARMED: AtomicBool = AtomicBool::new(false);

fn plan() -> MutexGuard<'static, Option<Plan>> {
    PLAN.lock().unwrap_or_else(|e| e.into_inner())
}

/// Arms a single-fire fault at `site` (replacing any previous plan).
pub fn arm(site: Site) {
    arm_times(site, 1);
}

/// Arms a fault that fires on the first `fires` matching boundaries —
/// sticky faults re-poison recovery retries and push the ladder deeper.
pub fn arm_times(site: Site, fires: u32) {
    *plan() = Some(Plan {
        site,
        fires_left: fires,
        fired: 0,
    });
    ARMED.store(true, Ordering::Relaxed);
}

/// Disarms the current plan and returns how many times it fired.
pub fn disarm() -> u64 {
    ARMED.store(false, Ordering::Relaxed);
    plan().take().map(|p| p.fired).unwrap_or(0)
}

/// Injection hook: called by the pipeline at each stage boundary with
/// the buffer that stage just produced (or is about to reuse). Poisons
/// it in place when the armed site matches.
pub fn poison(stage: Stage, block: usize, data: &mut [f64]) {
    if !ARMED.load(Ordering::Relaxed) {
        return;
    }
    let mut guard = plan();
    let Some(p) = guard.as_mut() else { return };
    if p.fires_left == 0 || p.site.stage != stage {
        return;
    }
    if p.site.block != ANY_BLOCK && p.site.block != block {
        return;
    }
    if data.is_empty() {
        return;
    }
    apply(p.site.kind, data);
    p.fires_left -= 1;
    p.fired += 1;
}

fn apply(kind: FaultKind, data: &mut [f64]) {
    let mid = data.len() / 2;
    match kind {
        FaultKind::Nan => data[mid] = f64::NAN,
        FaultKind::Inf => data[0] = f64::INFINITY,
        FaultKind::Huge => data[mid] = 1e300,
        FaultKind::Scale => data.iter_mut().for_each(|x| *x *= 1e200),
        FaultKind::BitFlip => data[mid] = f64::from_bits(data[mid].to_bits() ^ 0x4),
    }
}

/// Serializes tests that arm the global plan. A test that runs the
/// pipeline in the same binary as an arming test must hold it too, or it
/// can take the armed fault.
pub fn test_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_match_stage_block_and_budget() {
        let _l = test_lock();
        arm_times(
            Site {
                stage: Stage::Cls,
                block: 1,
                kind: FaultKind::Nan,
            },
            2,
        );
        let mut buf = vec![1.0; 8];
        poison(Stage::Bsofi, 1, &mut buf);
        poison(Stage::Cls, 0, &mut buf);
        assert!(buf.iter().all(|x| x.is_finite()), "no match, no poison");
        poison(Stage::Cls, 1, &mut buf);
        assert!(buf[4].is_nan(), "matched site poisons the midpoint");
        buf[4] = 1.0;
        poison(Stage::Cls, 1, &mut buf);
        poison(Stage::Cls, 1, &mut buf);
        assert_eq!(disarm(), 2, "budget caps the fires");
    }

    #[test]
    fn any_block_and_kinds() {
        let _l = test_lock();
        for (kind, check) in [
            (
                FaultKind::Inf,
                &(|b: &[f64]| b[0].is_infinite()) as &dyn Fn(&[f64]) -> bool,
            ),
            (FaultKind::Huge, &|b: &[f64]| b[2] == 1e300),
            (FaultKind::Scale, &|b: &[f64]| b[0] == 1e200),
            (FaultKind::BitFlip, &|b: &[f64]| {
                b[2] != 1.0 && b[2].is_finite()
            }),
        ] {
            arm(Site {
                stage: Stage::Wrap,
                block: ANY_BLOCK,
                kind,
            });
            let mut buf = vec![1.0; 5];
            poison(Stage::Wrap, 17, &mut buf);
            assert!(check(&buf), "{kind:?}");
            disarm();
        }
    }
}
