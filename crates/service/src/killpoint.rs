//! Deterministic crash injection at the service's durability boundaries.
//!
//! Compiled always and disarmed by default: a disarmed hook costs one
//! atomic load. Arming is API-only. The model mirrors
//! `fsi_runtime::health::inject`: one global *plan* names a
//! [`KillSite`] with a fire budget, and the durability layer calls
//! `fire` at each boundary; when the site matches, the "crash" takes
//! effect. The plan mutex is touched only while a plan is armed.
//!
//! A crash here is simulated, not literal: the process stays alive (so
//! the test can assert on it), but the service's **durable state is
//! frozen at the kill instant** — every journal append and checkpoint
//! write after a kill point fires becomes a no-op, exactly the on-disk
//! state a real `SIGKILL` at that instant would leave. The test then
//! discards the doomed service and recovers a fresh one from the state
//! directory.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

/// Where in the durability protocol the simulated crash lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillSite {
    /// Immediately after the job's write-ahead journal record is
    /// appended, before any checkpoint exists: recovery must replay the
    /// journal and rerun the job from scratch.
    AfterJournalAppend,
    /// In the middle of a per-job checkpoint write: the current
    /// generation is left **torn** (a truncated envelope written in
    /// place, past the tmp+rename protection), so recovery must detect
    /// the corruption and fall back to the previous generation.
    MidCheckpoint,
    /// Not a crash: parks the worker that picks up the next sweep until
    /// [`release_stall`], simulating a wedged thread for the watchdog to
    /// detect and requeue around.
    WorkerStall,
}

struct Plan {
    site: KillSite,
    skip_left: u32,
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

/// Arms a single-fire kill at `site` (replacing any previous plan).
pub fn arm(site: KillSite) {
    arm_times(site, 1);
}

/// Arms a kill that fires on the first `fires` matching boundaries.
pub fn arm_times(site: KillSite, fires: u32) {
    arm_skip(site, 0, fires);
}

/// Arms a kill that lets the first `skip` matching boundaries pass
/// untouched, then fires on the next `fires` — how a drill crashes at
/// the *k*-th checkpoint rather than the first.
pub fn arm_skip(site: KillSite, skip: u32, fires: u32) {
    *plan() = Some(Plan {
        site,
        skip_left: skip,
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

/// How many times the current plan has fired so far.
pub fn fired() -> u64 {
    plan().as_ref().map(|p| p.fired).unwrap_or(0)
}

/// Boundary hook: returns `true` when the armed plan matches `site` and
/// has budget left (consuming one fire). The caller applies the crash
/// effect — freezing durable state, tearing the in-flight write.
pub(crate) fn fire(site: KillSite) -> bool {
    if !ARMED.load(Ordering::Relaxed) {
        return false;
    }
    let mut guard = plan();
    let Some(p) = guard.as_mut() else {
        return false;
    };
    if p.fires_left == 0 || p.site != site {
        return false;
    }
    if p.skip_left > 0 {
        p.skip_left -= 1;
        return false;
    }
    p.fires_left -= 1;
    p.fired += 1;
    true
}

/// The stall gate: `true` while a stalled worker must stay parked.
static STALL: Mutex<bool> = Mutex::new(false);
static STALL_CV: Condvar = Condvar::new();

/// Worker-side hook: when a [`KillSite::WorkerStall`] plan fires, parks
/// the calling thread until [`release_stall`].
pub(crate) fn maybe_stall() {
    if !fire(KillSite::WorkerStall) {
        return;
    }
    let mut parked = STALL.lock().unwrap_or_else(|e| e.into_inner());
    *parked = true;
    while *parked {
        parked = STALL_CV.wait(parked).unwrap_or_else(|e| e.into_inner());
    }
}

/// Releases every worker parked by a [`KillSite::WorkerStall`] fire.
pub fn release_stall() {
    let mut parked = STALL.lock().unwrap_or_else(|e| e.into_inner());
    *parked = false;
    STALL_CV.notify_all();
}

/// Serializes tests that arm the global plan. A test that starts a
/// service in the same binary as an arming test must hold it too, or its
/// submit can take the armed kill (or its worker park on an armed stall).
pub fn test_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fire_matches_site_and_budget() {
        let _l = test_lock();
        arm_times(KillSite::MidCheckpoint, 2);
        assert!(!fire(KillSite::AfterJournalAppend), "site must match");
        assert!(fire(KillSite::MidCheckpoint));
        assert!(fire(KillSite::MidCheckpoint));
        assert!(!fire(KillSite::MidCheckpoint), "budget caps the fires");
        assert_eq!(disarm(), 2);
        assert!(!fire(KillSite::MidCheckpoint), "disarmed plans never fire");
    }

    #[test]
    fn skip_lets_early_boundaries_pass() {
        let _l = test_lock();
        arm_skip(KillSite::AfterJournalAppend, 2, 1);
        assert!(!fire(KillSite::AfterJournalAppend));
        assert!(!fire(KillSite::AfterJournalAppend));
        assert!(fire(KillSite::AfterJournalAppend), "fires after the skips");
        assert!(!fire(KillSite::AfterJournalAppend));
        assert_eq!(disarm(), 1);
    }
}
