//! The service core: bounded admission, work-stealing execution, tenant
//! metering, the per-job degradation ladder, and the supervised job
//! lifecycle — durable checkpoints, deadlines, cancellation, a stall
//! watchdog, and bounded retry.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam_channel::{unbounded, Sender};
use fsi_pcyclic::{BlockBuilder, HsField, HubbardParams, SquareLattice};
use fsi_runtime::metrics::{
    counter, flight, histogram, Counter, HistogramMetric, LazyCounter, LazyGauge, LazyHistogram,
};
use fsi_runtime::{StealQueues, ThreadPool};
use fsi_selinv::{
    generate_fields, trace_measure, MatrixTask, MemoryModel, Parallelism, SelectedInverse,
};

use crate::admission::AdmitError;
use crate::durability::{Durability, JobCheckpoint};
use crate::job::{JobEvent, JobHandle, JobSpec, JobSummary};

static SUBMITTED: LazyCounter = LazyCounter::new("service.jobs.submitted");
static REJECTED: LazyCounter = LazyCounter::new("service.jobs.rejected");
static COMPLETED: LazyCounter = LazyCounter::new("service.jobs.completed");
static FAILED: LazyCounter = LazyCounter::new("service.jobs.failed");
static CANCELLED: LazyCounter = LazyCounter::new("service.jobs.cancelled");
static RECOVERED: LazyCounter = LazyCounter::new("service.jobs.recovered");
static DEGRADED: LazyCounter = LazyCounter::new("service.jobs.degraded");
static RETRIES: LazyCounter = LazyCounter::new("service.job.retries");
static STALLS: LazyCounter = LazyCounter::new("service.watchdog.stalls");
static SWEEPS_DONE: LazyCounter = LazyCounter::new("service.sweeps.completed");
static QUEUE_DEPTH: LazyGauge = LazyGauge::new("service.queue.depth");
static LATENCY: LazyHistogram = LazyHistogram::new("service.job.latency_ns");
static QUEUE_WAIT: LazyHistogram = LazyHistogram::new("service.job.queue_wait_ns");
static JOB_FLOPS: LazyHistogram = LazyHistogram::new("service.job.flops");

/// Sizing and policy of a [`Service`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads (the "rank" level of the hybrid model); each owns
    /// one steal deque.
    pub workers: usize,
    /// Threads inside each worker's [`ThreadPool`] (the "OpenMP" level).
    pub threads_per_worker: usize,
    /// Queue capacity in *sweeps*: the bound admission control enforces
    /// over queued-plus-running work.
    pub queue_capacity: usize,
    /// Node memory model consulted at admission (Fig. 9 analysis).
    pub memory: MemoryModel,
    /// How many recovery-ladder rungs a single job may descend before
    /// its retry budget is consulted.
    pub max_degradations: u32,
    /// Durable-state directory (write-ahead journal + per-job
    /// checkpoints). Defaults to `$FSI_STATE_DIR` when that is set;
    /// `None` disables durability.
    pub state_dir: Option<PathBuf>,
    /// Write a job's checkpoint every this-many completed bins (and once
    /// more at [`Service::drain`]). Ignored without a state dir.
    pub checkpoint_every: usize,
    /// Fresh full-task attempts granted after the recovery ladder is
    /// exhausted, before the job is failed.
    pub max_retries: u32,
    /// Base backoff between those attempts; attempt `k` sleeps
    /// `k × retry_backoff_ms`.
    pub retry_backoff_ms: u64,
    /// A sweep in flight longer than this is presumed stalled: the
    /// watchdog requeues it for another worker (completion claims are
    /// idempotent, so a slow-but-alive worker's late result is simply
    /// discarded).
    pub stall_timeout_ms: u64,
    /// Watchdog scan interval (deadlines + stall detection).
    pub watchdog_poll_ms: u64,
}

impl ServiceConfig {
    /// A sane single-host configuration with `workers` workers, one
    /// thread each, a 4096-sweep queue, the Edison memory model, a
    /// ladder depth of 8, and durability under `$FSI_STATE_DIR` when
    /// that is set.
    pub fn small(workers: usize) -> Self {
        ServiceConfig {
            workers: workers.max(1),
            threads_per_worker: 1,
            queue_capacity: 4096,
            memory: MemoryModel::edison(),
            max_degradations: 8,
            state_dir: std::env::var_os("FSI_STATE_DIR").map(PathBuf::from),
            checkpoint_every: 8,
            max_retries: 2,
            retry_backoff_ms: 10,
            stall_timeout_ms: 5_000,
            watchdog_poll_ms: 50,
        }
    }
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig::small(fsi_runtime::default_threads().clamp(1, 8))
    }
}

/// Per-tenant metric handles, resolved once per tenant tag and cached.
#[derive(Clone, Copy)]
struct TenantMeters {
    jobs: &'static Counter,
    bins: &'static Counter,
    flops: &'static Counter,
    latency: &'static HistogramMetric,
    queue_wait: &'static HistogramMetric,
}

impl TenantMeters {
    fn resolve(tenant: &str) -> Self {
        let name = |leaf: &str| format!("service.tenant.{tenant}.{leaf}");
        TenantMeters {
            jobs: counter(&name("jobs")),
            bins: counter(&name("bins")),
            flops: counter(&name("flops")),
            latency: histogram(&name("latency_ns")),
            queue_wait: histogram(&name("queue_wait_ns")),
        }
    }
}

/// The lifecycle of one sweep within its job. Claims transition
/// `Open → {Done, Closed}` exactly once, which is what makes watchdog
/// requeues safe: the second execution of a duplicated sweep finds the
/// slot taken and does no accounting.
enum Slot {
    /// Not yet finished by anyone.
    Open,
    /// Completed with a measurement bin (kept for checkpointing).
    Done(Vec<f64>),
    /// Claimed without a bin: failed, cancelled, or drained.
    Closed,
}

/// The shared state of one running job.
struct JobState {
    id: u64,
    spec: JobSpec,
    builder: BlockBuilder,
    /// Per-sweep HS fields, deterministic from `(seed, sweep)`; kept for
    /// the whole job so watchdog requeues can re-run any sweep.
    fields: Vec<HsField>,
    /// One claim slot per sweep (see [`Slot`]).
    slots: Mutex<Vec<Slot>>,
    /// Sweeps currently being executed: `sweep → start time`, the
    /// heartbeat the stall watchdog reads.
    inflight: Mutex<HashMap<usize, Instant>>,
    /// The cluster size the job currently runs with; only ever shrinks
    /// (per-job rung of the recovery ladder).
    c_now: AtomicUsize,
    degradations: AtomicU32,
    /// Full-task retry attempts consumed (after ladder exhaustion).
    retries: AtomicU32,
    /// Sweeps not yet claimed (completed, failed, or cancelled).
    remaining: AtomicUsize,
    completed_bins: AtomicUsize,
    failed: AtomicBool,
    cancelled: AtomicBool,
    /// Wall-clock instant the watchdog cancels the job at, from
    /// [`JobSpec::deadline_ms`] (re-anchored at recovery).
    deadline: Option<Instant>,
    submitted: Instant,
    first_start: Mutex<Option<Instant>>,
    tx: Sender<JobEvent>,
}

/// The boxed per-sweep measurement hook shared by all workers.
type BoxedMeasure = Box<dyn Fn(&SelectedInverse) -> Vec<f64> + Send + Sync>;

/// One schedulable unit: a single sweep of a job (the field lives in the
/// job so the watchdog can reissue the task).
struct SweepTask {
    job: Arc<JobState>,
    sweep: usize,
}

struct Inner {
    cfg: ServiceConfig,
    queues: StealQueues<SweepTask>,
    /// Sweeps queued or in flight, guarded for the backpressure condvar.
    pending: Mutex<usize>,
    space: Condvar,
    next_job: AtomicU64,
    accepting: AtomicBool,
    /// Graceful-drain mode: workers discard acquired sweeps *without
    /// claiming them*, so they resume after restart.
    draining: AtomicBool,
    /// Simulated-crash mode (kill points, [`Service::kill`]): durable
    /// writes become no-ops, freezing the on-disk state at the kill
    /// instant.
    crashed: AtomicBool,
    watchdog_stop: AtomicBool,
    /// Live (non-terminal) jobs, for the watchdog and `cancel`.
    jobs: Mutex<HashMap<u64, Arc<JobState>>>,
    durability: Option<Durability>,
    measure: BoxedMeasure,
    tenants: Mutex<HashMap<String, TenantMeters>>,
}

impl Inner {
    /// The durable-state handle, unless durability is off or a (real or
    /// simulated) crash froze it.
    fn durable(&self) -> Option<&Durability> {
        if self.crashed.load(Ordering::Acquire) {
            None
        } else {
            self.durability.as_ref()
        }
    }
}

/// A running simulation service: worker threads, a supervision watchdog,
/// and the shared queue.
///
/// Create with [`Service::start`] (or [`Service::recover`] to resume a
/// crashed instance from its state directory), clone submit handles with
/// [`Service::handle`], and stop with [`Service::shutdown`] — which
/// finishes already-admitted work — or [`Service::drain`] — which
/// checkpoints it for a later [`Service::recover`] instead.
pub struct Service {
    inner: Arc<Inner>,
    threads: Vec<JoinHandle<()>>,
    watchdog: Option<JoinHandle<()>>,
}

/// A cloneable submission handle to a [`Service`].
#[derive(Clone)]
pub struct ServiceHandle {
    inner: Arc<Inner>,
}

impl Service {
    /// Starts the service with [`fsi_selinv::trace_measure`] as the
    /// per-sweep measurement hook.
    pub fn start(cfg: ServiceConfig) -> Self {
        Service::start_with(cfg, trace_measure)
    }

    /// Starts the service with a custom measurement hook applied to
    /// every completed selected inversion.
    ///
    /// # Panics
    /// When the configured state directory cannot be created or its
    /// journal cannot be opened — a durable service that cannot persist
    /// is a misconfiguration, not a degraded mode.
    pub fn start_with(
        cfg: ServiceConfig,
        measure: impl Fn(&SelectedInverse) -> Vec<f64> + Send + Sync + 'static,
    ) -> Self {
        assert!(cfg.workers > 0 && cfg.threads_per_worker > 0);
        assert!(cfg.queue_capacity > 0, "queue capacity must be positive");
        flight::install_panic_hook();
        let durability = cfg.state_dir.as_deref().map(|dir| {
            Durability::open(dir).unwrap_or_else(|e| panic!("state dir {dir:?} unusable: {e}"))
        });
        let inner = Arc::new(Inner {
            queues: StealQueues::new(cfg.workers),
            cfg,
            pending: Mutex::new(0),
            space: Condvar::new(),
            next_job: AtomicU64::new(0),
            accepting: AtomicBool::new(true),
            draining: AtomicBool::new(false),
            crashed: AtomicBool::new(false),
            watchdog_stop: AtomicBool::new(false),
            jobs: Mutex::new(HashMap::new()),
            durability,
            measure: Box::new(measure),
            tenants: Mutex::new(HashMap::new()),
        });
        let threads = (0..inner.cfg.workers)
            .map(|w| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("fsi-service-{w}"))
                    .spawn(move || worker_loop(&inner, w))
                    .expect("spawn service worker")
            })
            .collect();
        let watchdog = {
            let inner = Arc::clone(&inner);
            Some(
                std::thread::Builder::new()
                    .name("fsi-service-watchdog".into())
                    .spawn(move || watchdog_loop(&inner))
                    .expect("spawn service watchdog"),
            )
        };
        Service {
            inner,
            threads,
            watchdog,
        }
    }

    /// Restarts a durable service from its state directory: replays the
    /// write-ahead journal, re-admits every job that was submitted but
    /// not terminal, resumes each from its latest good checkpoint
    /// (previous generation on a torn current one; from scratch when
    /// none survives), and returns a fresh [`JobHandle`] per surviving
    /// job, in original submission order. Checkpointed bins are
    /// re-emitted on the new handles, so a `wait()` on a recovered
    /// handle assembles the same full bin set — bitwise — as an
    /// uninterrupted run would have.
    ///
    /// # Errors
    /// `InvalidInput` when `cfg.state_dir` is `None`.
    pub fn recover(cfg: ServiceConfig) -> std::io::Result<(Self, Vec<JobHandle>)> {
        Service::recover_with(cfg, trace_measure)
    }

    /// [`Service::recover`] with a custom measurement hook. The hook
    /// must be the same pure function the crashed instance ran, or the
    /// bitwise-resume guarantee is void.
    ///
    /// # Errors
    /// `InvalidInput` when `cfg.state_dir` is `None`.
    pub fn recover_with(
        cfg: ServiceConfig,
        measure: impl Fn(&SelectedInverse) -> Vec<f64> + Send + Sync + 'static,
    ) -> std::io::Result<(Self, Vec<JobHandle>)> {
        if cfg.state_dir.is_none() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "Service::recover needs cfg.state_dir",
            ));
        }
        let service = Service::start_with(cfg, measure);
        let replay = service
            .inner
            .durability
            .as_ref()
            .expect("state_dir implies durability")
            .replay();
        service
            .inner
            .next_job
            .store(replay.next_id, Ordering::Release);
        let handles = replay
            .jobs
            .into_iter()
            .map(|(id, spec)| enqueue_recovered(&service.inner, id, spec))
            .collect();
        Ok((service, handles))
    }

    /// A cloneable handle for submitting and supervising jobs.
    pub fn handle(&self) -> ServiceHandle {
        ServiceHandle {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Stops accepting new jobs, finishes everything already admitted,
    /// and joins the workers.
    pub fn shutdown(self) {
        self.stop(false, false);
    }

    /// Graceful drain: stops accepting, **discards** queued sweeps
    /// without claiming them, lets in-flight sweeps finish, then writes
    /// a final checkpoint for every live job. A later
    /// [`Service::recover`] on the same state directory resumes those
    /// jobs where they left off.
    pub fn drain(self) {
        self.stop(true, false);
    }

    /// Crash simulation: like [`Service::drain`] but freezes durable
    /// state first — nothing written after the call, no final
    /// checkpoints. The on-disk state is whatever the last completed
    /// journal append / checkpoint write left, exactly as a `SIGKILL`
    /// would leave it. Pair with [`Service::recover`] in crash drills.
    pub fn kill(self) {
        self.stop(true, true);
    }

    fn stop(mut self, drain: bool, crash: bool) {
        if crash {
            self.inner.crashed.store(true, Ordering::Release);
        }
        self.inner.accepting.store(false, Ordering::Release);
        if drain {
            self.inner.draining.store(true, Ordering::Release);
        }
        self.inner.queues.close();
        // Wake any submit_blocking waiters so they observe the refusal.
        self.inner.space.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        self.inner.watchdog_stop.store(true, Ordering::Release);
        if let Some(w) = self.watchdog.take() {
            let _ = w.join();
        }
        if drain && !crash {
            // Final checkpoint of every live job, now that no worker
            // races the slot table.
            let jobs: Vec<Arc<JobState>> =
                self.inner.jobs.lock().unwrap().values().cloned().collect();
            for job in jobs {
                checkpoint_job(&self.inner, &job);
            }
        }
        if drain {
            // A drained service is going away: hand the matrix memory the
            // block pool retains back to the OS. A plain shutdown keeps it,
            // so a service restarted in this process starts warm.
            fsi_runtime::workspace::release_pool();
        }
    }
}

impl ServiceHandle {
    /// Submits a job, rejecting immediately when admission fails.
    ///
    /// On success the job's sweeps are spread over the worker deques
    /// (whence idle workers steal) and a [`JobHandle`] streams events
    /// back; [`JobHandle::wait`] assembles the final report.
    ///
    /// ```
    /// use fsi_service::{AdmitError, JobSpec, Service, ServiceConfig};
    ///
    /// let service = Service::start(ServiceConfig::small(2));
    /// let handle = service.handle();
    ///
    /// let job = handle.submit(JobSpec::new("qmc", 2, 8, 4, 3, 11)).unwrap();
    /// let outcome = job.wait();
    /// assert_eq!(outcome.bins.len(), 3);
    ///
    /// // Rejections carry their reason:
    /// let huge = JobSpec::new("qmc", 2, 8, 4, 1_000_000, 0);
    /// assert!(matches!(
    ///     handle.submit(huge),
    ///     Err(AdmitError::QueueFull { .. })
    /// ));
    /// service.shutdown();
    /// ```
    ///
    /// # Errors
    /// [`AdmitError`] names the reason: malformed spec, memory budget,
    /// full queue, or shutdown.
    pub fn submit(&self, spec: JobSpec) -> Result<JobHandle, AdmitError> {
        self.admit(spec, false)
    }

    /// Like [`ServiceHandle::submit`], but blocks while the queue is
    /// full instead of rejecting (backpressure). Structural and
    /// memory-budget rejections still return immediately.
    ///
    /// # Errors
    /// [`AdmitError`] for non-queue reasons, or
    /// [`AdmitError::ShuttingDown`] if the service stops while waiting.
    pub fn submit_blocking(&self, spec: JobSpec) -> Result<JobHandle, AdmitError> {
        self.admit(spec, true)
    }

    /// Sweeps currently queued or in flight (racy snapshot).
    pub fn pending_sweeps(&self) -> usize {
        *self.inner.pending.lock().unwrap()
    }

    /// Cancels a live job: its unprocessed sweeps are drained without
    /// running, a [`JobEvent::Cancelled`] precedes the final summary,
    /// and the journal records the job as terminal. Returns `false`
    /// when the job is unknown or already terminal. Sweeps already in
    /// flight run to completion but produce no further bins.
    pub fn cancel(&self, job_id: u64) -> bool {
        let job = self.inner.jobs.lock().unwrap().get(&job_id).cloned();
        job.is_some_and(|job| cancel_job(&job, "cancel"))
    }

    fn admit(&self, spec: JobSpec, block: bool) -> Result<JobHandle, AdmitError> {
        let inner = &*self.inner;
        if !inner.accepting.load(Ordering::Acquire) {
            return Err(AdmitError::ShuttingDown);
        }
        if let Err(why) = spec.validate() {
            REJECTED.inc();
            return Err(AdmitError::InvalidSpec(why));
        }
        // Fig. 9 admission: would `workers` concurrent inversions of
        // this shape fit the node? A job too big for the pool never
        // clears on its own, so this rejects even in blocking mode.
        let per_worker = spec.per_worker_bytes();
        let usable = inner.cfg.memory.node_bytes - inner.cfg.memory.reserved_bytes;
        if !inner.cfg.memory.feasible(inner.cfg.workers, per_worker) {
            REJECTED.inc();
            return Err(AdmitError::MemoryBudget {
                per_worker_bytes: per_worker,
                budget_bytes: usable / inner.cfg.workers as u64,
            });
        }
        // Bounded-queue admission over the pending-sweep count.
        {
            let mut pending = inner.pending.lock().unwrap();
            loop {
                if !inner.accepting.load(Ordering::Acquire) {
                    return Err(AdmitError::ShuttingDown);
                }
                if *pending + spec.sweeps <= inner.cfg.queue_capacity {
                    *pending += spec.sweeps;
                    QUEUE_DEPTH.set(*pending as f64);
                    break;
                }
                if !block {
                    REJECTED.inc();
                    return Err(AdmitError::QueueFull {
                        capacity: inner.cfg.queue_capacity,
                        pending: *pending,
                        requested: spec.sweeps,
                    });
                }
                pending = inner.space.wait(pending).unwrap();
            }
        }
        Ok(self.enqueue(spec))
    }

    /// Builds the job state, journals the admission (write-ahead), and
    /// spreads the sweeps over the deques.
    fn enqueue(&self, spec: JobSpec) -> JobHandle {
        let inner = &*self.inner;
        let id = inner.next_job.fetch_add(1, Ordering::AcqRel);
        let (job, rx) = build_job(id, spec, None);
        inner.jobs.lock().unwrap().insert(id, Arc::clone(&job));
        SUBMITTED.inc();
        tenant_meters(inner, &job.spec.tenant).jobs.inc();
        // Write-ahead: the journal knows the job before any sweep can
        // run (or crash) — recovery re-admits exactly what was accepted.
        if let Some(d) = inner.durable() {
            d.record_submitted(id, &job.spec);
        }
        #[cfg(feature = "fault-inject")]
        if crate::killpoint::fire(crate::killpoint::KillSite::AfterJournalAppend) {
            inner.crashed.store(true, Ordering::Release);
        }
        push_sweeps(inner, &job, (0..job.spec.sweeps).collect());
        JobHandle { id, rx }
    }
}

/// Builds the shared job state and the submitter's event receiver.
/// `resume` carries the checkpointed ladder position and completed bins
/// when recovering.
fn build_job(
    id: u64,
    spec: JobSpec,
    resume: Option<JobCheckpoint>,
) -> (Arc<JobState>, crossbeam_channel::Receiver<JobEvent>) {
    let (tx, rx) = unbounded();
    let builder = BlockBuilder::new(
        SquareLattice::square(spec.side),
        HubbardParams::paper_validation(spec.l),
    );
    let fields = generate_fields(spec.l, spec.n_sites(), spec.sweeps, spec.seed);
    let mut slots: Vec<Slot> = (0..spec.sweeps).map(|_| Slot::Open).collect();
    let (c_now, degradations, retries, mut done) = match resume {
        Some(ck) => (
            ck.c_now.min(spec.c).max(1),
            ck.degradations,
            ck.retries,
            ck.bins,
        ),
        None => (spec.c, 0, 0, Vec::new()),
    };
    done.retain(|(sweep, _)| *sweep < spec.sweeps);
    done.sort_by_key(|(sweep, _)| *sweep);
    done.dedup_by_key(|(sweep, _)| *sweep);
    let completed = done.len();
    let remaining = spec.sweeps - completed;
    for (sweep, quantities) in &done {
        slots[*sweep] = Slot::Done(quantities.clone());
    }
    let deadline = spec
        .deadline_ms
        .map(|ms| Instant::now() + Duration::from_millis(ms));
    let job = Arc::new(JobState {
        id,
        fields,
        slots: Mutex::new(slots),
        inflight: Mutex::new(HashMap::new()),
        c_now: AtomicUsize::new(c_now),
        degradations: AtomicU32::new(degradations),
        retries: AtomicU32::new(retries),
        remaining: AtomicUsize::new(remaining),
        completed_bins: AtomicUsize::new(completed),
        failed: AtomicBool::new(false),
        cancelled: AtomicBool::new(false),
        deadline,
        submitted: Instant::now(),
        first_start: Mutex::new(None),
        tx,
        builder,
        spec,
    });
    // Re-emit checkpointed bins so a recovered handle's `wait()` sees
    // the same full set as an uninterrupted run.
    for (sweep, quantities) in done {
        let _ = job.tx.send(JobEvent::Bin { sweep, quantities });
    }
    (job, rx)
}

/// Enqueues the not-yet-done sweeps of `job` (round-robin starting at
/// the job id so tenants land on different home deques) after charging
/// them to the pending count.
fn push_sweeps(inner: &Inner, job: &Arc<JobState>, sweeps: Vec<usize>) {
    let workers = inner.cfg.workers;
    for sweep in sweeps {
        let task = SweepTask {
            job: Arc::clone(job),
            sweep,
        };
        inner.queues.push((job.id as usize + sweep) % workers, task);
    }
}

/// Re-admits one journal-replayed job: loads its checkpoint (previous
/// generation on a torn current; from scratch when none survives),
/// pre-fills the done slots, and enqueues only the open sweeps.
fn enqueue_recovered(inner: &Arc<Inner>, id: u64, spec: JobSpec) -> JobHandle {
    let resume = inner
        .durability
        .as_ref()
        .and_then(|d| d.load_checkpoint(id))
        .map(|(ck, _generation)| ck);
    let (job, rx) = build_job(id, spec, resume);
    inner.jobs.lock().unwrap().insert(id, Arc::clone(&job));
    RECOVERED.inc();
    flight::note("service.job.recovered");
    tenant_meters(inner, &job.spec.tenant).jobs.inc();
    let open: Vec<usize> = {
        let slots = job.slots.lock().unwrap();
        (0..job.spec.sweeps)
            .filter(|&s| matches!(slots[s], Slot::Open))
            .collect()
    };
    if open.is_empty() {
        // Crashed between the last bin and the terminal record: nothing
        // to run, finish immediately.
        finish_job(inner, &job);
    } else {
        {
            let mut pending = inner.pending.lock().unwrap();
            *pending += open.len();
            QUEUE_DEPTH.set(*pending as f64);
        }
        push_sweeps(inner, &job, open);
    }
    JobHandle { id, rx }
}

/// Resolves (and caches) the metric handles for a tenant tag.
fn tenant_meters(inner: &Inner, tenant: &str) -> TenantMeters {
    let mut map = inner.tenants.lock().unwrap();
    *map.entry(tenant.to_string())
        .or_insert_with(|| TenantMeters::resolve(tenant))
}

/// Marks a live job cancelled (idempotent) and tells the submitter.
/// Workers drain its remaining sweeps without running them.
fn cancel_job(job: &JobState, reason: &str) -> bool {
    if job.cancelled.swap(true, Ordering::AcqRel) {
        return false;
    }
    flight::note("service.job.cancelled");
    let _ = job.tx.send(JobEvent::Cancelled {
        reason: reason.to_string(),
    });
    true
}

/// Writes (or, under an armed `MidCheckpoint` kill, tears) the job's
/// durable checkpoint from its current slot table.
fn checkpoint_job(inner: &Inner, job: &JobState) {
    let Some(d) = inner.durable() else { return };
    let bins: Vec<(usize, Vec<f64>)> = {
        let slots = job.slots.lock().unwrap();
        slots
            .iter()
            .enumerate()
            .filter_map(|(sweep, slot)| match slot {
                Slot::Done(q) => Some((sweep, q.clone())),
                _ => None,
            })
            .collect()
    };
    let state = JobCheckpoint {
        c_now: job.c_now.load(Ordering::Acquire),
        degradations: job.degradations.load(Ordering::Acquire),
        retries: job.retries.load(Ordering::Acquire),
        bins,
    };
    #[cfg(feature = "fault-inject")]
    if crate::killpoint::fire(crate::killpoint::KillSite::MidCheckpoint) {
        d.write_torn_checkpoint(job.id, &state);
        inner.crashed.store(true, Ordering::Release);
        return;
    }
    d.write_checkpoint(job.id, &state);
}

/// The body of one worker thread: acquire (own deque, then steal), run
/// the sweep as one `MatrixTask`, account, repeat — the same loop as a
/// rank of `fsi_selinv::run_multi`, on queues that stay open.
fn worker_loop(inner: &Inner, w: usize) {
    let pool = ThreadPool::new(inner.cfg.threads_per_worker);
    let par = if inner.cfg.threads_per_worker == 1 {
        Parallelism::Serial
    } else {
        Parallelism::OpenMp(&pool)
    };
    while let Some(task) = inner.queues.acquire(w) {
        run_sweep(inner, par, task);
    }
}

/// The supervision loop: cancels jobs past their deadline and requeues
/// sweeps whose in-flight heartbeat has gone stale.
fn watchdog_loop(inner: &Inner) {
    let poll = Duration::from_millis(inner.cfg.watchdog_poll_ms.max(1));
    let stall = Duration::from_millis(inner.cfg.stall_timeout_ms.max(1));
    while !inner.watchdog_stop.load(Ordering::Acquire) {
        std::thread::sleep(poll);
        let jobs: Vec<Arc<JobState>> = inner.jobs.lock().unwrap().values().cloned().collect();
        let now = Instant::now();
        for job in jobs {
            if let Some(deadline) = job.deadline {
                if now >= deadline && !job.cancelled.load(Ordering::Acquire) {
                    cancel_job(&job, "deadline");
                }
            }
            // Stall detection: a sweep in flight past the timeout is
            // presumed wedged. Drop its heartbeat entry (so it is not
            // re-detected) and reissue the sweep; the idempotent claim
            // makes the duplicate harmless if the original ever wakes.
            let stalled: Vec<usize> = {
                let mut inflight = job.inflight.lock().unwrap();
                let expired: Vec<usize> = inflight
                    .iter()
                    .filter(|(_, started)| now.duration_since(**started) > stall)
                    .map(|(sweep, _)| *sweep)
                    .collect();
                for sweep in &expired {
                    inflight.remove(sweep);
                }
                expired
            };
            for sweep in stalled {
                let open = matches!(job.slots.lock().unwrap()[sweep], Slot::Open);
                if !open || inner.queues.is_closed() {
                    continue;
                }
                STALLS.inc();
                flight::note("service.watchdog.stall");
                push_sweeps(inner, &job, vec![sweep]);
            }
        }
    }
}

/// Runs one sweep to completion — with per-job degradation rungs and
/// bounded full-task retries — then claims its slot and does all
/// completion accounting. Duplicate executions (watchdog requeues) find
/// the slot claimed and account nothing.
fn run_sweep(inner: &Inner, par: Parallelism<'_>, task: SweepTask) {
    let SweepTask { job, sweep } = task;
    if inner.draining.load(Ordering::Acquire) {
        // Graceful drain discards without claiming: the sweep stays
        // open in the final checkpoint and reruns after recovery.
        return;
    }
    // Queue wait is measured at the first sweep of the job to start.
    {
        let mut first = job.first_start.lock().unwrap();
        if first.is_none() {
            *first = Some(Instant::now());
        }
    }
    job.inflight.lock().unwrap().insert(sweep, Instant::now());
    #[cfg(feature = "fault-inject")]
    crate::killpoint::maybe_stall();

    let mut outcome: Option<Vec<f64>> = None;
    if !job.failed.load(Ordering::Acquire) && !job.cancelled.load(Ordering::Acquire) {
        let measure: &fsi_selinv::multi::MeasureFn = &*inner.measure;
        'attempt: loop {
            let mut mt = MatrixTask::new(
                sweep,
                job.fields[sweep].clone(),
                job.spec.c,
                job.spec.pattern,
                job.spec.seed,
            );
            // Join the job's current ladder rung: degradation is per
            // *job*, so every attempt starts at the already-shrunk c.
            while mt.c() > job.c_now.load(Ordering::Acquire) {
                mt.degrade();
            }
            loop {
                match mt.run(par, &job.builder, measure) {
                    Ok(()) => {
                        let (_, quantities) = mt.into_quantities();
                        outcome = Some(quantities);
                        break 'attempt;
                    }
                    Err(error) => {
                        let rungs = job.degradations.load(Ordering::Acquire);
                        if rungs < inner.cfg.max_degradations && mt.degrade() {
                            // Scope the §II-C "shrink c" rung to this job.
                            let rung = job.degradations.fetch_add(1, Ordering::AcqRel) + 1;
                            job.c_now.fetch_min(mt.c(), Ordering::AcqRel);
                            DEGRADED.inc();
                            flight::note_recovery("service.shrink_c", "service");
                            let _ = job.tx.send(JobEvent::Degraded {
                                sweep,
                                c: mt.c(),
                                rung,
                            });
                            continue;
                        }
                        // Ladder exhausted: bounded retry with backoff —
                        // a fresh task at the job's current c — before
                        // the job is declared failed.
                        let attempts = job.retries.load(Ordering::Acquire);
                        if attempts < inner.cfg.max_retries {
                            job.retries.fetch_add(1, Ordering::AcqRel);
                            RETRIES.inc();
                            flight::note("service.job.retry");
                            std::thread::sleep(Duration::from_millis(
                                inner
                                    .cfg
                                    .retry_backoff_ms
                                    .saturating_mul(attempts as u64 + 1),
                            ));
                            continue 'attempt;
                        }
                        job.failed.store(true, Ordering::Release);
                        flight::note("service.job.failed");
                        let _ = job.tx.send(JobEvent::Failed { sweep, error });
                        break 'attempt;
                    }
                }
            }
        }
    }
    job.inflight.lock().unwrap().remove(&sweep);

    // Claim the slot: exactly one execution of this sweep accounts.
    let give_bin = outcome.is_some() && !job.cancelled.load(Ordering::Acquire);
    let claimed = {
        let mut slots = job.slots.lock().unwrap();
        if matches!(slots[sweep], Slot::Open) {
            slots[sweep] = match (&outcome, give_bin) {
                (Some(q), true) => Slot::Done(q.clone()),
                _ => Slot::Closed,
            };
            true
        } else {
            false
        }
    };
    if !claimed {
        return; // duplicate from a watchdog requeue — already accounted
    }
    if give_bin {
        let bins_done = job.completed_bins.fetch_add(1, Ordering::AcqRel) + 1;
        SWEEPS_DONE.inc();
        let meters = tenant_meters(inner, &job.spec.tenant);
        meters.bins.inc();
        meters.flops.add(job.spec.flop_estimate());
        let _ = job.tx.send(JobEvent::Bin {
            sweep,
            quantities: outcome.expect("give_bin implies outcome"),
        });
        if bins_done.is_multiple_of(inner.cfg.checkpoint_every.max(1)) {
            checkpoint_job(inner, &job);
        }
    }
    // Completion accounting runs for processed *and* fast-drained
    // (failed/cancelled) sweeps.
    {
        let mut pending = inner.pending.lock().unwrap();
        *pending -= 1;
        QUEUE_DEPTH.set(*pending as f64);
        inner.space.notify_all();
    }
    if job.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
        finish_job(inner, &job);
    }
}

/// Journals the terminal record (write-ahead of the `Finished` event),
/// emits the summary, and retires the job's metrics and checkpoints.
fn finish_job(inner: &Inner, job: &JobState) {
    inner.jobs.lock().unwrap().remove(&job.id);
    let failed = job.failed.load(Ordering::Acquire);
    let cancelled = job.cancelled.load(Ordering::Acquire);
    let latency_ns = job.submitted.elapsed().as_nanos() as u64;
    let queue_wait_ns = job
        .first_start
        .lock()
        .unwrap()
        .map(|t| (t - job.submitted).as_nanos() as u64)
        .unwrap_or(latency_ns);
    if failed {
        FAILED.inc();
    } else if cancelled {
        CANCELLED.inc();
    } else {
        COMPLETED.inc();
    }
    LATENCY.record(latency_ns);
    QUEUE_WAIT.record(queue_wait_ns);
    let completed_bins = job.completed_bins.load(Ordering::Acquire);
    JOB_FLOPS.record(job.spec.flop_estimate() * completed_bins as u64);
    let meters = tenant_meters(inner, &job.spec.tenant);
    meters.latency.record(latency_ns);
    meters.queue_wait.record(queue_wait_ns);
    if let Some(d) = inner.durable() {
        d.record_terminal(job.id, cancelled);
        d.delete_checkpoint(job.id);
    }
    let _ = job.tx.send(JobEvent::Finished(JobSummary {
        job_id: job.id,
        tenant: job.spec.tenant.clone(),
        sweeps: job.spec.sweeps,
        completed_bins,
        degradations: job.degradations.load(Ordering::Acquire),
        c_final: job.c_now.load(Ordering::Acquire),
        failed,
        cancelled,
        retries: job.retries.load(Ordering::Acquire),
        queue_wait_ns,
        latency_ns,
    }));
}
