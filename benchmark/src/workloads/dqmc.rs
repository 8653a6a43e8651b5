//! `dqmc_step_n64`: one op is one measurement step of the DQMC loop —
//! a Metropolis sweep, the §V-C Green's-function set for both spins, and
//! the physical measurements — driven from the public pieces
//! (`Sweeper::sweep`, `hubbard_pcyclic`, `fsi_measurement_set`,
//! `equal_time`, `spin_zz_equal_time`, `spxx`) on `OpenMp(pool of T)`.
//!
//! The loop here is the loop of `fsi_dqmc::run`, call for call and draw
//! for draw: a 4×4, L=16 replica of it is checked bitwise against
//! `fsi_dqmc::run` in every run, which is what makes timing it from
//! outside a measurement of the real program.

use std::time::Instant;

use fsi_dqmc::meas::spin_zz_equal_time;
use fsi_dqmc::{
    equal_time, spxx, staggered_structure_factor, uniform_xy_susceptibility, wrap_factored,
    Accumulator, DqmcConfig, DqmcResults, EqualTime, SpxxTable, SweepCheckpoint, SweepConfig,
    Sweeper,
};
use fsi_pcyclic::{hubbard_pcyclic, BlockBuilder, HsField, Spin, SquareLattice};
use fsi_runtime::health::FsiResult;
use fsi_runtime::{Par, Profile, ThreadPool};
use fsi_selinv::fsi::fsi_measurement_set;
use fsi_selinv::{Parallelism, Pattern, SelectedInverse, Selection};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use super::{end_to_end, par_speedup, selinv_stage_metrics, write_trace, MIN_PAIRS, OP};
use crate::report::{RunResult, Values};
use crate::stages::{columns_residual, measurement_set_flops, staged_measurement_set, StageAllocs};
use crate::stats::median;
use crate::trace::{Open, Tracer};
use crate::{alloc, probes, threads, RunArgs, WorkDir, SETUP_REPS};

const NAME: &str = "dqmc_step_n64";
const SWEEP: &str = "dqmc.sweep";
const GREEN: &str = "dqmc.green";
const BUILD: &str = "dqmc.build";
const MEASURE: &str = "dqmc.measure";
/// Half filling fixes the density at 1 for every field configuration.
const DENSITY_TOLERANCE: f64 = 1e-8;
/// A checkpoint is saved after every this-many traced steps.
const CKPT_EVERY: usize = 10;

/// The workload's shape: 8×8 sites, L=64, c=8, U=4, β=8, t=1, two
/// warm-up sweeps (done in set-up).
pub fn config(seed: u64) -> DqmcConfig {
    DqmcConfig {
        nx: 8,
        ny: 8,
        t: 1.0,
        u: 4.0,
        beta: 8.0,
        l: 64,
        c: 8,
        warmup: 2,
        measurements: 0,
        stabilize_every: 8,
        delay: 1,
        seed,
    }
}

/// The small replica checked against `fsi_dqmc::run`: same `Δτ`, `U`
/// and `t`, 4×4 sites, L=16, three measurement steps.
fn replica_config(seed: u64) -> DqmcConfig {
    DqmcConfig {
        nx: 4,
        ny: 4,
        beta: 2.0,
        l: 16,
        c: 4,
        measurements: 3,
        stabilize_every: 4,
        ..config(seed)
    }
}

/// Spans and stage allocations of a traced step.
struct Probe<'t> {
    tr: &'t mut Tracer,
    allocs: &'t mut StageAllocs,
}

fn enter(probe: &mut Option<Probe<'_>>, name: &'static str) -> Option<Open> {
    probe.as_mut().map(|p| p.tr.enter(name))
}

fn exit(probe: &mut Option<Probe<'_>>, span: Option<Open>) {
    if let (Some(p), Some(s)) = (probe.as_mut(), span) {
        p.tr.exit(s);
    }
}

/// What a step reports besides its contribution to the observables.
struct StepInfo {
    density: f64,
    acceptance: f64,
    /// The merged up-spin selection and its matrix, for the residual
    /// check of a traced run.
    up: (fsi_pcyclic::BlockPCyclic, SelectedInverse),
    q: usize,
}

/// The simulation state between steps.
struct Sim<'a> {
    cfg: &'a DqmcConfig,
    lattice: SquareLattice,
    builder: &'a BlockBuilder,
    sweeper: Sweeper<'a>,
    rng: ChaCha8Rng,
    results: DqmcResults,
}

impl<'a> Sim<'a> {
    /// Initial field and Green's functions, as `fsi_dqmc::run` sets them up.
    fn new(cfg: &'a DqmcConfig, builder: &'a BlockBuilder) -> FsiResult<Self> {
        let lattice = SquareLattice::new(cfg.nx, cfg.ny);
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let field = HsField::random(cfg.l, lattice.n_sites(), &mut rng);
        let sweep_cfg = SweepConfig {
            c: cfg.c,
            stabilize_every: cfg.stabilize_every,
            delay: cfg.delay,
            ..SweepConfig::default()
        };
        let sweeper = Sweeper::new(builder, field, sweep_cfg)?;
        Ok(Sim {
            cfg,
            lattice,
            builder,
            sweeper,
            rng,
            results: DqmcResults {
                density: Accumulator::new(),
                double_occupancy: Accumulator::new(),
                moment: Accumulator::new(),
                kinetic: Accumulator::new(),
                avg_sign: Accumulator::new(),
                acceptance: Accumulator::new(),
                structure_factor: Accumulator::new(),
                susceptibility: Accumulator::new(),
                spxx: None,
                profile: Profile::new(),
            },
        })
    }

    /// The warm-up stage: `cfg.warmup` sweeps.
    fn warmup(&mut self, par: Parallelism<'_>) -> FsiResult<()> {
        for _ in 0..self.cfg.warmup {
            let stats = self.sweeper.sweep(&mut self.rng, par)?;
            self.results.acceptance.push(stats.acceptance());
        }
        Ok(())
    }

    /// One measurement step. With a probe, the Green's-function phase
    /// runs stage by stage under spans; the numbers are the same bits.
    fn step(&mut self, par: Parallelism<'_>, probe: &mut Option<Probe<'_>>) -> FsiResult<StepInfo> {
        let cfg = self.cfg;
        let (outer, _) = par.split();

        let span = enter(probe, SWEEP);
        let stats = self.sweeper.sweep(&mut self.rng, par)?;
        exit(probe, span);
        self.results.acceptance.push(stats.acceptance());

        let q = self.rng.gen_range(0..cfg.c);
        let span = enter(probe, GREEN);
        let mut selections: Vec<SelectedInverse> = Vec::with_capacity(2);
        let mut diag_blocks: Vec<SelectedInverse> = Vec::with_capacity(2);
        let mut up_matrix = None;
        for spin in Spin::BOTH {
            let build = enter(probe, BUILD);
            let pc = hubbard_pcyclic(self.builder, self.sweeper.field(), spin);
            exit(probe, build);
            let (merged, diags) = match probe.as_mut() {
                Some(p) => staged_measurement_set(par, &pc, cfg.c, q, p.tr, p.allocs)?,
                None => fsi_measurement_set(par, &pc, cfg.c, q)?,
            };
            diag_blocks.push(diags);
            selections.push(merged);
            if spin == Spin::Up {
                up_matrix = Some(pc);
            }
        }
        exit(probe, span);

        let span = enter(probe, MEASURE);
        let mut et_sum = EqualTime::default();
        for k in 0..cfg.l {
            let gu = diag_blocks[0].get(k, k).expect("diagonal block");
            let gd = diag_blocks[1].get(k, k).expect("diagonal block");
            let et = equal_time(&self.lattice, cfg.t, gu, gd);
            et_sum.density_up += et.density_up;
            et_sum.density_down += et.density_down;
            et_sum.double_occupancy += et.double_occupancy;
            et_sum.moment += et.moment;
            et_sum.kinetic += et.kinetic;
        }
        let lf = cfg.l as f64;
        let density = (et_sum.density_up + et_sum.density_down) / lf;
        let r = &mut self.results;
        r.density.push(density);
        r.double_occupancy.push(et_sum.double_occupancy / lf);
        r.moment.push(et_sum.moment / lf);
        r.kinetic.push(et_sum.kinetic / lf);
        r.avg_sign.push(self.sweeper.sign());
        if cfg.nx.is_multiple_of(2) && cfg.ny.is_multiple_of(2) {
            let mut zz_acc = vec![0.0; self.lattice.n_dist_classes()];
            for k in 0..cfg.l {
                let gu = diag_blocks[0].get(k, k).expect("diagonal block");
                let gd = diag_blocks[1].get(k, k).expect("diagonal block");
                for (a, v) in zz_acc
                    .iter_mut()
                    .zip(spin_zz_equal_time(&self.lattice, gu, gd))
                {
                    *a += v / cfg.l as f64;
                }
            }
            r.structure_factor
                .push(staggered_structure_factor(&self.lattice, &zz_acc));
        }
        let table = spxx(outer, &self.lattice, cfg.l, &selections[0], &selections[1]);
        r.susceptibility.push(uniform_xy_susceptibility(
            &self.lattice,
            &table,
            cfg.beta / cfg.l as f64,
        ));
        match &mut r.spxx {
            Some(acc) => acc.merge(&table),
            None => r.spxx = Some(table),
        }
        exit(probe, span);

        let down = selections.pop();
        drop(down);
        Ok(StepInfo {
            density,
            acceptance: stats.acceptance(),
            up: (
                up_matrix.expect("both spins visited"),
                selections.pop().expect("up selection"),
            ),
            q,
        })
    }

    /// The averaged results after `steps` measurement steps.
    fn finish(mut self, steps: usize) -> DqmcResults {
        if let Some(t) = &mut self.results.spxx {
            if steps > 0 {
                t.scale(1.0 / steps as f64);
            }
        }
        self.results
    }
}

fn tables_equal(a: &Option<SpxxTable>, b: &Option<SpxxTable>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(a), Some(b)) => {
            (a.l(), a.dmax()) == (b.l(), b.dmax())
                && (0..a.l()).all(|tau| {
                    a.count(tau) == b.count(tau)
                        && (0..a.dmax()).all(|d| a.at(tau, d).to_bits() == b.at(tau, d).to_bits())
                })
        }
        _ => false,
    }
}

/// Whether two runs produced bitwise equal observables.
pub fn observables_equal(a: &DqmcResults, b: &DqmcResults) -> bool {
    let acc = |x: &Accumulator, y: &Accumulator| {
        x.count() == y.count()
            && x.mean().to_bits() == y.mean().to_bits()
            && x.stderr().to_bits() == y.stderr().to_bits()
    };
    acc(&a.density, &b.density)
        && acc(&a.double_occupancy, &b.double_occupancy)
        && acc(&a.moment, &b.moment)
        && acc(&a.kinetic, &b.kinetic)
        && acc(&a.avg_sign, &b.avg_sign)
        && acc(&a.acceptance, &b.acceptance)
        && acc(&a.structure_factor, &b.structure_factor)
        && acc(&a.susceptibility, &b.susceptibility)
        && tables_equal(&a.spxx, &b.spxx)
}

/// Runs this module's step loop for `cfg` (warm-up, then
/// `cfg.measurements` steps) and returns its observables — the replica
/// side of the check against `fsi_dqmc::run`.
///
/// # Errors
/// Health failures the sweep driver's recovery ladder could not heal.
pub fn run_loop(cfg: &DqmcConfig, par: Parallelism<'_>) -> FsiResult<DqmcResults> {
    let builder = BlockBuilder::new(SquareLattice::new(cfg.nx, cfg.ny), cfg.params());
    let mut sim = Sim::new(cfg, &builder)?;
    sim.warmup(par)?;
    for _ in 0..cfg.measurements {
        sim.step(par, &mut None)?;
    }
    Ok(sim.finish(cfg.measurements))
}

/// The replica check: this module's loop against the library's own, at
/// 4×4, L=16, under the workload's parallelism.
fn replica_matches(seed: u64, par: Parallelism<'_>) -> bool {
    let cfg = replica_config(seed);
    match (run_loop(&cfg, par), fsi_dqmc::run(&cfg, par)) {
        (Ok(ours), Ok(theirs)) => {
            let half_filled = (ours.density.mean() - 1.0).abs() <= DENSITY_TOLERANCE;
            observables_equal(&ours, &theirs) && half_filled
        }
        _ => false,
    }
}

/// Builds pool, builder and simulation, warms up, and hands them to
/// `body` with the set-up time in seconds.
fn with_setup<R>(
    cfg: &DqmcConfig,
    body: impl FnOnce(&mut Sim<'_>, &ThreadPool, f64) -> R,
) -> FsiResult<R> {
    let t = Instant::now();
    let pool = ThreadPool::new(threads());
    let builder = BlockBuilder::new(SquareLattice::new(cfg.nx, cfg.ny), cfg.params());
    let mut sim = Sim::new(cfg, &builder)?;
    sim.warmup(Parallelism::OpenMp(&pool))?;
    let setup_s = t.elapsed().as_secs_f64();
    Ok(body(&mut sim, &pool, setup_s))
}

/// Runs the workload.
///
/// # Errors
/// Environment failures, or a set-up the library itself rejects.
pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    let cfg = config(args.seed);
    let mut setups = Vec::with_capacity(SETUP_REPS);
    for _ in 1..SETUP_REPS {
        setups.push(with_setup(&cfg, |_, _, s| s).map_err(|e| e.to_string())?);
    }
    with_setup(&cfg, |sim, pool, s| {
        setups.push(s);
        if args.traced {
            traced(sim, pool, args)
        } else {
            untraced(sim, pool, args, median(&setups))
        }
    })
    .map_err(|e| e.to_string())?
}

fn untraced(
    sim: &mut Sim<'_>,
    pool: &ThreadPool,
    args: &RunArgs,
    setup_s: f64,
) -> Result<RunResult, String> {
    let par = Parallelism::OpenMp(pool);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut op_seconds = Vec::new();
    let mut wall = 0.0;
    while wall < args.seconds {
        let t = Instant::now();
        let step = sim.step(par, &mut None);
        let dt = t.elapsed().as_secs_f64();
        attempted += 1;
        let ok = match &step {
            Ok(info) => (info.density - 1.0).abs() <= DENSITY_TOLERANCE,
            Err(e) => {
                eprintln!("{NAME}: step {attempted} failed: {e}");
                false
            }
        };
        drop(step);
        wall += t.elapsed().as_secs_f64();
        if ok {
            op_seconds.push(dt);
        } else {
            failed += 1;
        }
    }
    let replica_ok = replica_matches(args.seed, par);
    if !replica_ok {
        eprintln!("{NAME}: the step loop replica is NOT bitwise equal to fsi_dqmc::run");
    }
    let values = end_to_end(NAME, &op_seconds, wall, setup_s)?;
    Ok(RunResult::finish(
        false,
        replica_ok,
        attempted,
        failed,
        op_seconds.len(),
        &values,
    ))
}

/// A checkpoint of the trajectory as it stands (no bins: the benchmark
/// keeps its observables in memory).
fn checkpoint(sim: &Sim<'_>, sweeps_done: u64) -> SweepCheckpoint {
    SweepCheckpoint {
        sweep: sweeps_done,
        l: sim.cfg.l,
        n: sim.lattice.n_sites(),
        field: sim.sweeper.field().to_flat(),
        rng_word_pos: sim.rng.word_pos(),
        sign: sim.sweeper.sign(),
        cfg: *sim.sweeper.config(),
        bins: Vec::new(),
    }
}

fn traced(sim: &mut Sim<'_>, pool: &ThreadPool, args: &RunArgs) -> Result<RunResult, String> {
    let started = Instant::now();
    let par = Parallelism::OpenMp(pool);
    let work = WorkDir::create().map_err(|e| e.to_string())?;
    let cfg = sim.cfg;
    let n = sim.lattice.n_sites();
    let mut v = Values::new();

    probes::dense(n, cfg.l / cfg.c, &mut v);
    probes::runtime(pool, work.path(), &mut v).map_err(|e| e.to_string())?;

    probes::pcyclic_build(sim.builder, sim.sweeper.field(), &mut v);

    let pc_up = hubbard_pcyclic(sim.builder, sim.sweeper.field(), Spin::Up);
    v.set(
        "selinv.par_speedup",
        par_speedup(pool, |p| {
            let _ = fsi_measurement_set(p, &pc_up, cfg.c, 0);
        }),
    );
    drop(pc_up);

    // Warm refresh: the first call absorbs the slices the warm-up dirtied,
    // the timed ones find every cluster product cached.
    sim.sweeper.refresh(0, par).map_err(|e| e.to_string())?;
    let mut refresh_s = Vec::new();
    for _ in 0..10 {
        let t = Instant::now();
        sim.sweeper.refresh(0, par).map_err(|e| e.to_string())?;
        refresh_s.push(t.elapsed().as_secs_f64());
    }
    v.set("dqmc.refresh_s", median(&refresh_s));

    let mut g = sim.sweeper.green(Spin::Up).clone();
    let mut wrap_s = Vec::new();
    for slice in 0..cfg.l.min(32) {
        let t = Instant::now();
        wrap_factored(
            Par::Seq,
            sim.builder,
            sim.sweeper.field(),
            slice,
            Spin::Up,
            &mut g,
        );
        wrap_s.push(t.elapsed().as_secs_f64());
    }
    v.set("dqmc.wrap_s", median(&wrap_s));

    // Alternate untraced and traced steps along one trajectory.
    let mut tr = Tracer::new(started);
    let mut allocs: Vec<StageAllocs> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut whole_seconds = Vec::new();
    let (mut pairs, mut traced_steps) = (0usize, 0usize);
    let (mut step_allocs, mut step_bytes) = (Vec::new(), Vec::new());
    let mut acceptance = Vec::new();
    let mut hit_frac = Vec::new();
    let (mut ckpt_s, mut ckpt_bytes) = (Vec::new(), 0u64);
    let mut blocks_out = 0;
    let mut worst_residual = 0.0f64;
    let check = |info: &StepInfo| (info.density - 1.0).abs() <= DENSITY_TOLERANCE;
    while started.elapsed().as_secs_f64() < args.seconds || pairs < MIN_PAIRS {
        pairs += 1;
        let t = Instant::now();
        let step = sim.step(par, &mut None);
        let dt = t.elapsed().as_secs_f64();
        attempted += 1;
        match &step {
            Ok(info) if check(info) => whole_seconds.push(dt),
            Ok(_) => failed += 1,
            Err(e) => {
                eprintln!("{NAME}: step failed: {e}");
                failed += 1;
            }
        }
        drop(step);

        let (hits0, misses0) = sim.sweeper.cluster_cache_stats();
        tr.set_op(traced_steps as u64);
        let op = tr.enter(OP);
        let before = alloc::now();
        let mut op_allocs = StageAllocs::default();
        let step = sim.step(
            par,
            &mut Some(Probe {
                tr: &mut tr,
                allocs: &mut op_allocs,
            }),
        );
        let tally = alloc::now().since(before);
        attempted += 1;
        match step {
            Ok(info) => {
                tr.exit(op);
                allocs.push(op_allocs);
                traced_steps += 1;
                if !check(&info) {
                    failed += 1;
                }
                step_allocs.push(tally.calls as f64);
                step_bytes.push(tally.bytes as f64);
                acceptance.push(info.acceptance);
                let (hits, misses) = sim.sweeper.cluster_cache_stats();
                let lookups = (hits - hits0) + (misses - misses0);
                if lookups > 0 {
                    hit_frac.push((hits - hits0) as f64 / lookups as f64);
                }
                let (pc, merged) = &info.up;
                blocks_out = merged.len();
                if traced_steps == 1 {
                    let cols = Selection::new(Pattern::Columns, cfg.c, info.q).index_set(cfg.l);
                    worst_residual = columns_residual(pc, merged, &cols);
                }
            }
            Err(e) => {
                tr.close_all();
                eprintln!("{NAME}: traced step failed: {e}");
                failed += 1;
            }
        }
        if traced_steps % CKPT_EVERY == 1 {
            let ckpt = checkpoint(sim, attempted + cfg.warmup as u64);
            let t = Instant::now();
            ckpt_bytes = ckpt
                .save(&work.path().join("sweep.ckpt"))
                .map_err(|e| e.to_string())?;
            ckpt_s.push(t.elapsed().as_secs_f64());
        }
    }
    if worst_residual > 1e-10 {
        eprintln!("{NAME}: M·G = I residual {worst_residual:.3e} exceeds 1e-10");
        failed += 1;
    }

    // Per step: both spins' measurement sets.
    let mut model = measurement_set_flops(n, cfg.l, cfg.c);
    model.cls *= 2;
    model.bsofi *= 2;
    model.wrap *= 2;
    let ceiling = v.get("dense.gemm_batched_gflops").unwrap_or(0.0);
    selinv_stage_metrics(&tr, &allocs, &model, ceiling, &mut v);
    let sweep_s = median(&tr.per_op(SWEEP));
    let green_s = median(&tr.per_op(GREEN));
    let measure_s = median(&tr.per_op(MEASURE));
    v.set("dqmc.sweep_s", sweep_s);
    v.set("dqmc.green_s", green_s);
    v.set("dqmc.build_s", median(&tr.per_op(BUILD)));
    v.set("dqmc.measure_s", measure_s);
    let whole_p50 = median(&whole_seconds);
    if whole_p50 > 0.0 {
        // On this workload the top-level phases are sweep, green, measure.
        v.set(
            "selinv.stage_sum_ratio",
            (sweep_s + green_s + measure_s) / whole_p50,
        );
        v.set(
            "runtime.trace_overhead_frac",
            median(&tr.per_op(OP)) / whole_p50 - 1.0,
        );
    }
    v.set("selinv.blocks_out", blocks_out as f64);
    v.set("selinv.max_rel_err", worst_residual);
    v.set("selinv.cache_hit_frac", median(&hit_frac));
    v.set("dqmc.step_allocs", median(&step_allocs));
    v.set("dqmc.step_alloc_bytes", median(&step_bytes));
    v.set("dqmc.acceptance", median(&acceptance));
    v.set(
        "dqmc.recovery_escalations",
        sim.sweeper.recovery_stats().escalations() as f64,
    );
    v.set("dqmc.ckpt_save_s", median(&ckpt_s));
    v.set("dqmc.ckpt_bytes", ckpt_bytes as f64);
    write_trace(&tr, NAME)?;

    let replica_ok = replica_matches(args.seed, par);
    if !replica_ok {
        eprintln!("{NAME}: the step loop replica is NOT bitwise equal to fsi_dqmc::run");
    }
    Ok(RunResult::finish(
        true,
        replica_ok,
        attempted,
        failed,
        traced_steps,
        &v,
    ))
}
