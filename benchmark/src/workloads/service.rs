//! `service_mix_n64`: one op is one job through the durable `Service`,
//! submit → `JobOutcome`.
//!
//! Load model: closed loop. `2·T` client threads each submit their next
//! job when their previous one completes, so `2·T` jobs are in flight
//! against `T` single-threaded workers. Jobs come from one seeded
//! sequence (clients take the next index from a shared counter): every
//! block of four holds three short `diag` jobs and one long `cols` job,
//! each with a seed-drawn job seed.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use fsi_pcyclic::{BlockBuilder, HubbardParams, SquareLattice};
use fsi_runtime::ThreadPool;
use fsi_selinv::{generate_fields, trace_measure, MatrixTask, Parallelism, Pattern};
use fsi_service::{JobOutcome, JobSpec, Service, ServiceConfig, ServiceHandle};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use super::{end_to_end, write_trace, OP};
use crate::report::{RunResult, Values};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::{probes, repeat_setup, threads, RunArgs, WorkDir};

const NAME: &str = "service_mix_n64";
const SUBMIT: &str = "service.submit";
const WAIT: &str = "service.wait";
/// Jobs whose bins are recomputed serially and compared bitwise.
const CHECKED_JOBS: usize = 8;
/// Bare tasks timed per class for `service.task_s.*`.
const TASK_REPS: usize = 5;

/// The two job classes of the mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Class {
    /// Side 8, L=64, c=8, diagonal blocks, 8 sweeps.
    Diag,
    /// Side 8, L=128, c=16, block columns, 4 sweeps.
    Cols,
}

impl Class {
    fn spec(self, seed: u64) -> JobSpec {
        let (l, c, pattern, sweeps) = match self {
            Class::Diag => (64, 8, Pattern::Diagonal, 8),
            Class::Cols => (128, 16, Pattern::Columns, 4),
        };
        let mut spec = JobSpec::new("bench", 8, l, c, sweeps, seed);
        spec.pattern = pattern;
        spec
    }
}

/// The seeded job sequence: job `i` is `(class, job seed)`. The `cols`
/// job of block `k` sits at position `(offset + k) mod 4` with a
/// seed-drawn offset, so every seed sees the same spacing of long jobs,
/// rotated — the mix, not the luck of the draw, sets the latencies.
struct Mix {
    rng: ChaCha8Rng,
    offset: usize,
    jobs: Vec<(Class, u64)>,
}

impl Mix {
    fn new(seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let offset = rng.gen_range(0..4);
        Mix {
            rng,
            offset,
            jobs: Vec::new(),
        }
    }

    fn job(&mut self, index: usize) -> (Class, u64) {
        while self.jobs.len() <= index {
            let i = self.jobs.len();
            let class = if i % 4 == (self.offset + i / 4) % 4 {
                Class::Cols
            } else {
                Class::Diag
            };
            self.jobs.push((class, self.rng.gen::<u64>()));
        }
        self.jobs[index]
    }
}

/// One finished job as the client saw it.
struct Done {
    index: usize,
    class: Class,
    seed: u64,
    submit_s: f64,
    outcome: JobOutcome,
}

impl Done {
    fn ok(&self) -> bool {
        let s = &self.outcome.summary;
        !s.failed
            && !s.cancelled
            && self.outcome.error.is_none()
            && s.completed_bins == s.sweeps
            && self.outcome.bins.len() == s.sweeps
    }

    fn latency_s(&self) -> f64 {
        self.outcome.summary.latency_ns as f64 * 1e-9
    }

    fn queue_wait_s(&self) -> f64 {
        self.outcome.summary.queue_wait_ns as f64 * 1e-9
    }
}

/// What the clients brought back.
#[derive(Default)]
struct Tally {
    done: Vec<Done>,
    rejected: u64,
}

/// Runs the closed loop: `clients` threads take jobs `first, first+1, …`
/// from `mix` until `keep_going` says stop, each waiting for its job
/// before taking the next. With `origin`, every client records spans.
fn drive(
    handle: &ServiceHandle,
    mix: &Mutex<Mix>,
    first: usize,
    clients: usize,
    keep_going: &(dyn Fn(usize) -> bool + Sync),
    origin: Option<Instant>,
) -> (Tally, Option<Tracer>) {
    let next = AtomicU64::new(first as u64);
    let tally = Mutex::new(Tally::default());
    let trace = Mutex::new(origin.map(Tracer::new));
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| {
                let mut tr = origin.map(Tracer::new);
                loop {
                    let index = next.fetch_add(1, Ordering::Relaxed) as usize;
                    if !keep_going(index - first) {
                        break;
                    }
                    let (class, seed) = mix.lock().expect("mix lock").job(index);
                    let op = tr.as_mut().map(|t| {
                        t.set_op(index as u64);
                        (t.enter(OP), t.enter(SUBMIT))
                    });
                    let t = Instant::now();
                    let submitted = handle.submit(class.spec(seed));
                    let submit_s = t.elapsed().as_secs_f64();
                    if let (Some(t), Some((_, submit))) = (tr.as_mut(), op) {
                        t.exit(submit);
                    }
                    let outcome = match submitted {
                        Ok(job) => match tr.as_mut() {
                            Some(t) => Some(t.leaf(WAIT, || job.wait())),
                            None => Some(job.wait()),
                        },
                        Err(e) => {
                            eprintln!("{NAME}: job {index} refused: {e:?}");
                            None
                        }
                    };
                    if let (Some(t), Some((op, _))) = (tr.as_mut(), op) {
                        t.exit(op);
                    }
                    let mut tally = tally.lock().expect("tally lock");
                    match outcome {
                        Some(outcome) => tally.done.push(Done {
                            index,
                            class,
                            seed,
                            submit_s,
                            outcome,
                        }),
                        None => tally.rejected += 1,
                    }
                }
                if let (Some(all), Some(mine)) = (trace.lock().expect("trace lock").as_mut(), tr) {
                    all.absorb(mine);
                }
            });
        }
    });
    let mut tally = tally.into_inner().expect("tally lock");
    tally.done.sort_by_key(|d| d.index);
    (tally, trace.into_inner().expect("trace lock"))
}

/// A started service with its warm-up jobs done.
struct Running {
    service: Service,
    mix: Mutex<Mix>,
    /// Index of the first job of the timed sequence.
    first: usize,
}

fn setup(seed: u64, state_dir: &Path) -> Running {
    let t = threads();
    let mut cfg = ServiceConfig::small(t);
    cfg.threads_per_worker = 1;
    cfg.state_dir = Some(state_dir.to_path_buf());
    cfg.checkpoint_every = 8;
    let service = Service::start(cfg);
    let mix = Mutex::new(Mix::new(seed));
    let warm = 2 * t;
    // Failures here show again in the timed jobs, where they are counted.
    let _ = drive(&service.handle(), &mix, 0, warm, &|i| i < warm, None);
    Running {
        service,
        mix,
        first: warm,
    }
}

/// The bins a job must produce: each sweep as a bare serial `MatrixTask`.
fn reference_bins(class: Class, seed: u64) -> Vec<(usize, Vec<f64>)> {
    let spec = class.spec(seed);
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
                .expect("reference task on a benchmark shape");
            task.into_quantities()
        })
        .collect()
}

fn bins_equal(a: &[(usize, Vec<f64>)], b: &[(usize, Vec<f64>)]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|((sa, qa), (sb, qb))| {
            sa == sb
                && qa.len() == qb.len()
                && qa.iter().zip(qb).all(|(x, y)| x.to_bits() == y.to_bits())
        })
}

/// Counts failed jobs: every job must end complete and clean, and
/// [`CHECKED_JOBS`] of them, spread evenly over the run, must match the
/// serial reference bit for bit.
fn count_failures(done: &[Done]) -> u64 {
    let mut bad: Vec<bool> = done.iter().map(|d| !d.ok()).collect();
    let stride = (done.len() / CHECKED_JOBS).max(1);
    for (i, d) in done.iter().enumerate().step_by(stride).take(CHECKED_JOBS) {
        if !bad[i] && !bins_equal(&d.outcome.bins, &reference_bins(d.class, d.seed)) {
            eprintln!(
                "{NAME}: job {} bins differ from the serial reference",
                d.index
            );
            bad[i] = true;
        }
    }
    bad.iter().filter(|b| **b).count() as u64
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Runs the workload.
///
/// # Errors
/// Environment failures only; see [`super::run`].
pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    let work = WorkDir::create().map_err(|e| e.to_string())?;
    let mut rep = 0;
    let (running, setup_s) = repeat_setup(
        || {
            rep += 1;
            setup(args.seed, &work.path().join(format!("state-{rep}")))
        },
        |old: Running| old.service.shutdown(),
    );
    let state_dir = work.path().join(format!("state-{rep}"));
    let t = threads();
    let pool = ThreadPool::new(t);
    let mut v = Values::new();
    let mut task_s = BTreeMap::new();
    if args.traced {
        // Probes run before the service is loaded, on an idle machine.
        probes::dense(64, 8, &mut v);
        probes::runtime(&pool, work.path(), &mut v).map_err(|e| e.to_string())?;
        for class in [Class::Diag, Class::Cols] {
            task_s.insert(class, bare_task_seconds(class, args.seed, &mut v));
        }
    }

    let before = fsi_runtime::metrics::snapshot();
    let started = Instant::now();
    let (tally, tracer) = drive(
        &running.service.handle(),
        &running.mix,
        running.first,
        2 * t,
        &|_| started.elapsed().as_secs_f64() < args.seconds,
        args.traced.then_some(started),
    );
    let wall = started.elapsed().as_secs_f64();
    let counters = fsi_runtime::metrics::snapshot().delta_since(&before);
    let state_bytes = dir_bytes(&state_dir);
    running.service.shutdown();

    let attempted = tally.done.len() as u64 + tally.rejected;
    let failed = count_failures(&tally.done) + tally.rejected;
    let good: Vec<&Done> = tally.done.iter().filter(|d| d.ok()).collect();
    let latencies: Vec<f64> = good.iter().map(|d| d.latency_s()).collect();

    if !args.traced {
        let values = end_to_end(NAME, &latencies, wall, setup_s)?;
        return Ok(RunResult::finish(
            false,
            true,
            attempted,
            failed,
            latencies.len(),
            &values,
        ));
    }

    let of = |class: Class| good.iter().filter(move |d| d.class == class);
    let p50 = |xs: Vec<f64>| median(&xs);
    v.set(
        "service.submit_p50_s",
        p50(good.iter().map(|d| d.submit_s).collect()),
    );
    let waits: Vec<f64> = good.iter().map(|d| d.queue_wait_s()).collect();
    v.set("service.queue_wait_p50_s", median(&waits));
    if !waits.is_empty() {
        v.set("service.queue_wait_p90_s", percentile(&waits, 0.9));
    }
    let runs: Vec<f64> = good
        .iter()
        .map(|d| d.latency_s() - d.queue_wait_s())
        .collect();
    v.set("service.run_p50_s", median(&runs));
    v.set(
        "service.lat_p50_s.diag",
        p50(of(Class::Diag).map(|d| d.latency_s()).collect()),
    );
    v.set(
        "service.lat_p50_s.cols",
        p50(of(Class::Cols).map(|d| d.latency_s()).collect()),
    );
    // Useful work: what the completed jobs' sweeps cost as bare tasks.
    let bare: f64 = good
        .iter()
        .map(|d| d.outcome.summary.sweeps as f64 * task_s[&d.class])
        .sum();
    let run_total: f64 = runs.iter().sum();
    if run_total > 0.0 {
        v.set("service.overhead_frac", 1.0 - bare / run_total);
    }
    v.set("service.worker_busy_frac", bare / (t as f64 * wall));
    v.set(
        "service.steals",
        counters.counter("runtime.steal.hits") as f64,
    );
    v.set(
        "service.steal_tasks_moved",
        counters.counter("runtime.steal.tasks_moved") as f64,
    );
    v.set("service.rejected", tally.rejected as f64);
    let summaries = || good.iter().map(|d| &d.outcome.summary);
    v.set(
        "service.degraded_jobs",
        summaries().filter(|s| s.degradations > 0).count() as f64,
    );
    v.set(
        "service.retries",
        summaries().map(|s| u64::from(s.retries)).sum::<u64>() as f64,
    );
    v.set("service.state_bytes", state_bytes as f64);
    v.set(
        "service.ckpt_writes",
        counters.counter("service.checkpoint.writes") as f64,
    );
    // Client-side spans are the only tracing here, and they sit outside
    // the service's own latency clock: the ratio compares what a client
    // saw (submit + wait) with what the service reported.
    let tracer = tracer.expect("traced runs record spans");
    let seen = median(&tracer.per_op(OP));
    let reported = median(&latencies);
    if reported > 0.0 {
        v.set("runtime.trace_overhead_frac", seen / reported - 1.0);
    }
    write_trace(&tracer, NAME)?;
    Ok(RunResult::finish(
        true,
        true,
        attempted,
        failed,
        latencies.len(),
        &v,
    ))
}

/// Median seconds of one sweep of `class` as a bare serial `MatrixTask`
/// (build, invert, measure); also fills `pcyclic.build_*` from the diag
/// class, the majority shape of the mix.
fn bare_task_seconds(class: Class, seed: u64, v: &mut Values) -> f64 {
    let spec = class.spec(seed);
    let builder = BlockBuilder::new(
        SquareLattice::square(spec.side),
        HubbardParams::paper_validation(spec.l),
    );
    let fields = generate_fields(spec.l, spec.n_sites(), TASK_REPS, seed);
    if class == Class::Diag {
        probes::pcyclic_build(&builder, &fields[0], v);
    }
    let times: Vec<f64> = fields
        .into_iter()
        .enumerate()
        .map(|(sweep, field)| {
            let mut task = MatrixTask::new(sweep, field, spec.c, spec.pattern, spec.seed);
            let t = Instant::now();
            task.run(Parallelism::Serial, &builder, &trace_measure)
                .expect("bare task on a benchmark shape");
            t.elapsed().as_secs_f64()
        })
        .collect();
    let s = median(&times);
    v.set(
        match class {
            Class::Diag => "service.task_s.diag",
            Class::Cols => "service.task_s.cols",
        },
        s,
    );
    s
}
