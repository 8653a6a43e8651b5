//! Job specifications, streamed events, and completion reports.

use crossbeam_channel::Receiver;
use fsi_runtime::health::HealthEvent;
use fsi_selinv::{per_rank_bytes, Pattern};

/// A tenant's request for one simulation job: `sweeps` independent
/// Hubbard Green's functions of shape `(N = side², L)`, each selected
/// and inverted with cluster size `c`, seeded by `(seed, sweep)`.
///
/// The spec is the unit of admission: its memory footprint
/// ([`JobSpec::per_worker_bytes`]) is checked against the service's
/// memory model *before* any matrix is built, and its analytic flop
/// cost ([`JobSpec::flop_estimate`]) is what the tenant's meters are
/// charged per completed sweep.
///
/// ```
/// use fsi_service::JobSpec;
///
/// // 4-site lattice, L = 8 imaginary-time slices, clusters of 4,
/// // 16 sweeps, seed 42.
/// let spec = JobSpec::new("tenant-a", 2, 8, 4, 16, 42);
/// assert_eq!(spec.n_sites(), 4);
/// assert!(spec.validate().is_ok());
/// // c must divide L:
/// assert!(JobSpec::new("tenant-a", 2, 10, 4, 1, 0).validate().is_err());
/// ```
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Billing/metering tag; metrics appear under
    /// `service.tenant.<tenant>.*`.
    pub tenant: String,
    /// Square-lattice side; the matrix block dimension is `N = side²`.
    pub side: usize,
    /// Number of imaginary-time slices `L` (block count of the p-cyclic
    /// matrix).
    pub l: usize,
    /// Cluster size `c` (must divide `L`); shrinks per job under the
    /// recovery ladder.
    pub c: usize,
    /// Selection pattern computed for every sweep.
    pub pattern: Pattern,
    /// Number of independent Green's functions to invert and measure.
    pub sweeps: usize,
    /// Base RNG seed; sweep `s` draws its field and shift from
    /// `(seed, s)` only, so results are scheduling-independent.
    pub seed: u64,
    /// Wall-clock budget from admission to completion, in milliseconds.
    /// The supervisor's watchdog cancels the job when it expires;
    /// `None` (the default) means no deadline.
    pub deadline_ms: Option<u64>,
}

impl JobSpec {
    /// A diagonal-pattern spec; set [`JobSpec::pattern`] afterwards for
    /// other selections.
    pub fn new(
        tenant: impl Into<String>,
        side: usize,
        l: usize,
        c: usize,
        sweeps: usize,
        seed: u64,
    ) -> Self {
        JobSpec {
            tenant: tenant.into(),
            side,
            l,
            c,
            pattern: Pattern::Diagonal,
            sweeps,
            seed,
            deadline_ms: None,
        }
    }

    /// The lattice site count `N = side²` (the block dimension).
    pub fn n_sites(&self) -> usize {
        self.side * self.side
    }

    /// Checks the structural constraints the pipeline assumes.
    ///
    /// # Errors
    /// A description of the first violated constraint: zero dimensions,
    /// an empty tenant tag, `c > L`, or `c ∤ L`.
    pub fn validate(&self) -> Result<(), String> {
        if self.tenant.is_empty() {
            return Err("tenant tag must be non-empty".into());
        }
        if self.side == 0 || self.l == 0 || self.c == 0 || self.sweeps == 0 {
            return Err(format!(
                "dimensions must be positive: side={} l={} c={} sweeps={}",
                self.side, self.l, self.c, self.sweeps
            ));
        }
        if self.c > self.l {
            return Err(format!("cluster size c={} exceeds L={}", self.c, self.l));
        }
        if !self.l.is_multiple_of(self.c) {
            return Err(format!("c={} must divide L={}", self.c, self.l));
        }
        Ok(())
    }

    /// Analytic flop cost of **one sweep** (build + CLS + BSOFI + wrap),
    /// from the paper's §IV operation counts: CLS multiplies `c−1`
    /// block pairs per cluster, BSOFI inverts the `b×b` reduced chain,
    /// wrapping back-substitutes across all `L` slices. Used to charge
    /// tenant meters without hardware counters.
    pub fn flop_estimate(&self) -> u64 {
        let n = self.n_sites() as u64;
        let l = self.l as u64;
        let c = self.c as u64;
        let b = l / c;
        let n3 = n * n * n;
        let cls = 4 * (c.saturating_sub(1)) * b * n3;
        let bsofi = 14 * b * b * b * n3 / 3;
        let wrap = 4 * l * n3;
        cls + bsofi + wrap
    }

    /// Bytes one worker needs to hold this job's per-sweep working set
    /// (input blocks, reduced inverse, selected blocks, scratch) — the
    /// quantity admission control weighs against the memory model.
    pub fn per_worker_bytes(&self) -> u64 {
        per_rank_bytes(self.n_sites(), self.l, self.c, self.pattern)
    }
}

/// One streamed update from a running job.
#[derive(Clone, Debug)]
pub enum JobEvent {
    /// Sweep `sweep` completed; `quantities` is the measurement vector.
    Bin {
        /// The sweep index within the job, `0..sweeps`.
        sweep: usize,
        /// The measurement quantities of this sweep.
        quantities: Vec<f64>,
    },
    /// The job tripped a health probe and shrank its cluster size.
    Degraded {
        /// The sweep that tripped the probe.
        sweep: usize,
        /// The cluster size the job runs with from now on.
        c: usize,
        /// How many times this job has degraded so far.
        rung: u32,
    },
    /// A sweep exhausted the job's recovery ladder; the job is failed
    /// and its remaining sweeps are drained unprocessed.
    Failed {
        /// The sweep whose inversion could not be recovered.
        sweep: usize,
        /// The unrecovered health-probe failure.
        error: HealthEvent,
    },
    /// The job was cancelled — by [`crate::ServiceHandle::cancel`] or by
    /// the watchdog (deadline expiry) — and its remaining sweeps are
    /// being drained unprocessed.
    Cancelled {
        /// Why: `"cancel"` for explicit cancellation, `"deadline"` for
        /// watchdog deadline expiry.
        reason: String,
    },
    /// The job finished (all sweeps completed, or failed/cancelled and
    /// drained); always the final event on the channel.
    Finished(JobSummary),
}

/// The terminal accounting record of a job.
#[derive(Clone, Debug)]
pub struct JobSummary {
    /// Service-assigned job id (monotonic per service).
    pub job_id: u64,
    /// The tenant tag from the spec.
    pub tenant: String,
    /// Sweeps requested.
    pub sweeps: usize,
    /// Sweeps that produced a measurement bin.
    pub completed_bins: usize,
    /// Recovery-ladder rungs this job descended.
    pub degradations: u32,
    /// The cluster size the job ended with.
    pub c_final: usize,
    /// Whether the job failed (ladder exhausted on some sweep).
    pub failed: bool,
    /// Whether the job was cancelled (explicitly or by deadline).
    pub cancelled: bool,
    /// Full-task retry attempts the job consumed (after ladder
    /// exhaustion, before failing).
    pub retries: u32,
    /// Nanoseconds from submission to the first sweep starting.
    pub queue_wait_ns: u64,
    /// Nanoseconds from submission to completion.
    pub latency_ns: u64,
}

/// The assembled result [`JobHandle::wait`] returns: the terminal
/// summary plus every streamed bin, sorted by sweep index.
#[derive(Clone, Debug)]
pub struct JobOutcome {
    /// Terminal accounting record.
    pub summary: JobSummary,
    /// `(sweep, quantities)` pairs in ascending sweep order.
    pub bins: Vec<(usize, Vec<f64>)>,
    /// The failure that ended the job, if any.
    pub error: Option<HealthEvent>,
    /// The cancellation reason, if the job was cancelled.
    pub cancelled: Option<String>,
}

/// The submitter's side of an admitted job: a receiver of streamed
/// [`JobEvent`]s plus the job id.
pub struct JobHandle {
    pub(crate) id: u64,
    pub(crate) rx: Receiver<JobEvent>,
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle").field("id", &self.id).finish()
    }
}

impl JobHandle {
    /// The service-assigned job id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The raw event stream, for callers that want bins as they land
    /// (e.g. on-line error bars) rather than the final report.
    pub fn events(&self) -> &Receiver<JobEvent> {
        &self.rx
    }

    /// Blocks until the job finishes and assembles the full
    /// [`JobOutcome`] from the event stream.
    pub fn wait(self) -> JobOutcome {
        let mut bins: Vec<(usize, Vec<f64>)> = Vec::new();
        let mut error = None;
        let mut cancelled = None;
        let mut summary = None;
        while let Ok(event) = self.rx.recv() {
            match event {
                JobEvent::Bin { sweep, quantities } => bins.push((sweep, quantities)),
                JobEvent::Degraded { .. } => {}
                JobEvent::Failed { error: e, .. } => error = Some(e),
                JobEvent::Cancelled { reason } => cancelled = Some(reason),
                JobEvent::Finished(s) => {
                    summary = Some(s);
                    break;
                }
            }
        }
        bins.sort_by_key(|(s, _)| *s);
        // A dropped service closes the channel without a Finished event;
        // synthesize a failed summary so callers always get a report.
        let summary = summary.unwrap_or(JobSummary {
            job_id: self.id,
            tenant: String::new(),
            sweeps: 0,
            completed_bins: bins.len(),
            degradations: 0,
            c_final: 0,
            failed: true,
            cancelled: false,
            retries: 0,
            queue_wait_ns: 0,
            latency_ns: 0,
        });
        JobOutcome {
            summary,
            bins,
            error,
            cancelled,
        }
    }
}
