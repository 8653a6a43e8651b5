//! # fsi-benchmark — the repository's one layered benchmark
//!
//! Four workloads at paper-relevant shapes, five end-to-end metrics with
//! fixed regression bounds, and per-layer numbers (stage times, kernel
//! rates, allocation counts) taken from outside the crates: every span
//! and count here wraps a call into a layer's *public* API. See
//! `benchmark/README.md` for the workloads, metric definitions and the
//! table of which layer metric should move which end-to-end metric.

#![warn(missing_docs)]

pub mod alloc;
pub mod orchestrate;
pub mod probes;
pub mod report;
pub mod spec;
pub mod stages;
pub mod stats;
pub mod trace;
pub mod workloads;

use std::path::PathBuf;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Samples of the set-up time taken per run; the median is `setup_s`.
pub const SETUP_REPS: usize = 3;

/// Logical CPUs the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// `T = min(nproc, 4)`: the size of every pool, the service's worker
/// count, and half its in-flight window. One process generates all load,
/// so `T` never exceeds the host, and 4 caps it so that hosts with more
/// cores still run the same benchmark.
pub fn threads() -> usize {
    nproc().min(4)
}

/// What one `--workload` run was asked to do.
#[derive(Clone, Debug)]
pub struct RunArgs {
    /// Seed the inputs derive from.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Record spans and per-layer numbers instead of end-to-end ones.
    pub traced: bool,
}

/// `benchmark/` as compiled: the benchmark is built inside the checkout
/// it runs in, and everything it writes goes under this directory.
pub fn package_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// A scratch directory private to this process, under `benchmark/.work/`
/// (ignored by git), removed when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates `benchmark/.work/<pid>/`.
    ///
    /// # Errors
    /// Filesystem errors.
    pub fn create() -> std::io::Result<Self> {
        let dir = package_dir()
            .join(".work")
            .join(std::process::id().to_string());
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Succeeds only when no other run is using `.work/`.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
///
/// # Errors
/// When `/proc/self/status` is unreadable or has no `VmHWM` line.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM in /proc/self/status")?;
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or("VmHWM is not a number")?;
    Ok(kib / 1024.0)
}

/// Runs `setup` [`SETUP_REPS`] times, keeps the last state, and returns
/// it with the median set-up time in seconds. `teardown` disposes of the
/// states that are not kept, outside the timing.
pub fn repeat_setup<S>(mut setup: impl FnMut() -> S, mut teardown: impl FnMut(S)) -> (S, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = kept.take() {
            teardown(old);
        }
        let t = std::time::Instant::now();
        kept = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (kept.expect("SETUP_REPS > 0"), stats::median(&times))
}
