//! The full DQMC simulation (paper Alg. 4 and Fig. 7):
//!
//! ```text
//! initialize HS configuration h₀
//! warmup:      w × { DQMC sweep }
//! measurement: m × { DQMC sweep; Green's functions via FSI; physical
//!                    measurements }
//! ```
//!
//! [`Simulation`] holds the loop's state and steps it: [`Simulation::new`]
//! draws h₀, [`Simulation::warmup`] runs the warm-up sweeps,
//! [`Simulation::step`] is one measurement iteration and
//! [`Simulation::finish`] hands back the averaged [`DqmcResults`]. [`run`]
//! is exactly those four calls. Because the state lives in one value,
//! [`Simulation::checkpoint`] and [`Simulation::resume`] can stop a run at
//! any sweep boundary and continue it bitwise (see [`crate::SweepCheckpoint`]).
//!
//! Per measurement iteration the simulation computes, for both spins, the
//! selection the paper uses in §V-C: *all* diagonal blocks plus `b` block
//! rows plus `b` block columns of `G^σ` — one clustering + BSOFI shared by
//! the three wraps — then evaluates the equal-time observables on every
//! slice and the SPXX table from the rows/columns. The per-phase wall
//! times are recorded in a [`Profile`] with sections `"sweep"`, `"green"`
//! and `"measurement"`, which is exactly the decomposition Figs. 10–11
//! plot.

use fsi_pcyclic::{hubbard_pcyclic, BlockBuilder, HsField, HubbardParams, Spin, SquareLattice};
use fsi_runtime::health::FsiResult;
use fsi_runtime::Profile;
use fsi_selinv::fsi::fsi_measurement_set;
use fsi_selinv::{Parallelism, SelectedInverse};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::checkpoint::{observables_from_bins, observables_to_bins, SweepCheckpoint};
use crate::meas::{
    equal_time, spin_zz_equal_time, spxx, staggered_structure_factor, uniform_xy_susceptibility,
    Accumulator, SpxxTable,
};
use crate::sweep::{SweepConfig, Sweeper};

/// Full configuration of a DQMC run.
#[derive(Clone, Debug)]
pub struct DqmcConfig {
    /// Lattice extent in x.
    pub nx: usize,
    /// Lattice extent in y.
    pub ny: usize,
    /// Hopping amplitude `t`.
    pub t: f64,
    /// On-site repulsion `U`.
    pub u: f64,
    /// Inverse temperature `β`.
    pub beta: f64,
    /// Imaginary-time slices `L`.
    pub l: usize,
    /// FSI cluster size `c` (divides `L`).
    pub c: usize,
    /// Warmup sweeps `w`.
    pub warmup: usize,
    /// Measurement sweeps `m`.
    pub measurements: usize,
    /// Stabilization interval (wraps between from-scratch refreshes).
    pub stabilize_every: usize,
    /// Delayed-update batch size (1 = immediate rank-1 updates).
    pub delay: usize,
    /// RNG seed.
    pub seed: u64,
}

impl DqmcConfig {
    /// A laptop-scale configuration used by tests and examples.
    pub fn small() -> Self {
        DqmcConfig {
            nx: 2,
            ny: 2,
            t: 1.0,
            u: 4.0,
            beta: 2.0,
            l: 8,
            c: 4,
            warmup: 2,
            measurements: 4,
            stabilize_every: 4,
            delay: 1,
            seed: 1234,
        }
    }

    /// Hubbard parameters sub-struct.
    pub fn params(&self) -> HubbardParams {
        HubbardParams {
            t: self.t,
            u: self.u,
            beta: self.beta,
            l: self.l,
        }
    }
}

/// Averaged results of a DQMC run.
#[derive(Clone, Debug, Default)]
pub struct DqmcResults {
    /// `⟨n_↑⟩ + ⟨n_↓⟩` (total density) accumulator.
    pub density: Accumulator,
    /// Double occupancy accumulator.
    pub double_occupancy: Accumulator,
    /// Local moment accumulator.
    pub moment: Accumulator,
    /// Kinetic energy per site accumulator.
    pub kinetic: Accumulator,
    /// Average Monte Carlo sign.
    pub avg_sign: Accumulator,
    /// Average Metropolis acceptance.
    pub acceptance: Accumulator,
    /// Staggered spin structure factor `S(π,π)` accumulator (only
    /// populated for even lattice extents).
    pub structure_factor: Accumulator,
    /// Uniform XY susceptibility accumulator (from the SPXX table).
    pub susceptibility: Accumulator,
    /// Accumulated SPXX table (mean over measurements).
    pub spxx: Option<SpxxTable>,
    /// Phase timing: `"sweep"`, `"green"`, `"measurement"`.
    pub profile: Profile,
}

/// A DQMC run of Alg. 4 as a value: the configuration, the sweep engine,
/// the trajectory RNG and the observables accumulated so far.
///
/// ```
/// use fsi_dqmc::{DqmcConfig, Simulation};
/// use fsi_pcyclic::{BlockBuilder, SquareLattice};
/// use fsi_selinv::Parallelism;
/// let cfg = DqmcConfig::small();
/// let builder = BlockBuilder::new(SquareLattice::new(cfg.nx, cfg.ny), cfg.params());
/// let mut sim = Simulation::new(&cfg, &builder).expect("healthy start");
/// sim.warmup(Parallelism::Serial).expect("healthy warm-up");
/// sim.step(Parallelism::Serial).expect("healthy step");
/// let saved = sim.checkpoint();
/// let mut resumed = Simulation::resume(&cfg, &builder, saved).expect("healthy resume");
/// resumed.step(Parallelism::Serial).expect("healthy step");
/// assert_eq!(resumed.finish().density.count(), 2);
/// ```
pub struct Simulation<'a> {
    cfg: DqmcConfig,
    lattice: SquareLattice,
    builder: &'a BlockBuilder,
    sweeper: Sweeper<'a>,
    rng: ChaCha8Rng,
    /// Sweeps done, warm-up and measurement alike.
    sweeps: u64,
    /// Measurement steps done.
    steps: u64,
    results: DqmcResults,
}

impl<'a> Simulation<'a> {
    /// Starts a run: seeds the RNG from `cfg.seed` and draws the initial
    /// field from it. `builder` must be built from `cfg`'s lattice and
    /// [`DqmcConfig::params`].
    ///
    /// # Errors
    /// The initial refresh's unrecovered health failures.
    pub fn new(cfg: &DqmcConfig, builder: &'a BlockBuilder) -> FsiResult<Self> {
        let lattice = SquareLattice::new(cfg.nx, cfg.ny);
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let field = HsField::random(cfg.l, lattice.n_sites(), &mut rng);
        let sweep_cfg = SweepConfig {
            c: cfg.c,
            stabilize_every: cfg.stabilize_every,
            delay: cfg.delay,
        };
        let sweeper = Sweeper::new(builder, field, sweep_cfg)?;
        Ok(Simulation {
            cfg: cfg.clone(),
            lattice,
            builder,
            sweeper,
            rng,
            sweeps: 0,
            steps: 0,
            results: DqmcResults::default(),
        })
    }

    /// Resumes a run from a checkpoint that [`Simulation::checkpoint`] took
    /// under the same `cfg`: rebuilds the sweep engine from the stored
    /// field and in-force [`SweepConfig`], reinstates the sign, moves a
    /// fresh `cfg.seed` RNG to the stored stream position and restores the
    /// accumulated observables. The run then continues bitwise as if it
    /// had never stopped. The [`Profile`] wall times are not stored, so
    /// the resumed run's profile covers only what it runs itself.
    ///
    /// # Errors
    /// Refresh failures, as in [`Simulation::new`].
    ///
    /// # Panics
    /// When the checkpoint's `(L, N)` shape does not match `builder`, or
    /// its `bins` do not hold a `Simulation`'s observables — resuming the
    /// wrong run is operator error, not a recoverable condition.
    pub fn resume(
        cfg: &DqmcConfig,
        builder: &'a BlockBuilder,
        ckpt: SweepCheckpoint,
    ) -> FsiResult<Self> {
        assert_eq!(ckpt.l, builder.params().l, "checkpoint L mismatch");
        assert_eq!(ckpt.n, builder.lattice().n_sites(), "checkpoint N mismatch");
        let (steps, results) = observables_from_bins(&ckpt.bins)
            .expect("checkpoint bins hold a Simulation's observables");
        let field = HsField::from_flat(ckpt.l, ckpt.n, &ckpt.field);
        let mut sweeper = Sweeper::new(builder, field, ckpt.cfg)?;
        sweeper.restore_sign(ckpt.sign);
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        rng.set_word_pos(ckpt.rng_word_pos);
        Ok(Simulation {
            cfg: cfg.clone(),
            lattice: SquareLattice::new(cfg.nx, cfg.ny),
            builder,
            sweeper,
            rng,
            sweeps: ckpt.sweep,
            steps,
            results,
        })
    }

    /// Captures the resumable state at the current sweep boundary: the
    /// field, RNG position, sign and in-force [`SweepConfig`], plus the
    /// accumulated observables.
    pub fn checkpoint(&self) -> SweepCheckpoint {
        let field = self.sweeper.field();
        SweepCheckpoint {
            sweep: self.sweeps,
            l: field.slices(),
            n: field.sites(),
            field: field.to_flat(),
            rng_word_pos: self.rng.word_pos(),
            sign: self.sweeper.sign(),
            cfg: *self.sweeper.config(),
            bins: observables_to_bins(self.steps, &self.results),
        }
    }

    /// Runs the warm-up sweeps not yet done (of `cfg.warmup`).
    ///
    /// # Errors
    /// Unrecovered health failures from the sweep's recovery ladder.
    pub fn warmup(&mut self, par: Parallelism<'_>) -> FsiResult<()> {
        while self.sweeps < self.cfg.warmup as u64 {
            self.sweep(par)?;
        }
        Ok(())
    }

    /// One Metropolis sweep, timed as `"sweep"`, its acceptance recorded.
    fn sweep(&mut self, par: Parallelism<'_>) -> FsiResult<()> {
        let stats = self
            .results
            .profile
            .time("sweep", || self.sweeper.sweep(&mut self.rng, par))?;
        self.results.acceptance.push(stats.acceptance());
        self.sweeps += 1;
        Ok(())
    }

    /// One measurement iteration: a sweep, the Green's functions of both
    /// spins via FSI, and the physical measurements.
    ///
    /// # Errors
    /// Surfaces any [`fsi_runtime::health`] event that survived the sweep
    /// driver's recovery ladder (see [`crate::sweep::RecoveryStats`]), and
    /// any probe trip inside the measurement-set inversions, which run
    /// outside the ladder.
    pub fn step(&mut self, par: Parallelism<'_>) -> FsiResult<()> {
        self.sweep(par)?;
        let cfg = &self.cfg;
        let (outer, _inner) = par.split();

        // Green's functions: all diagonals + b rows + b cols, both spins,
        // sharing one clustering/BSOFI per spin (paper §V-C's selection).
        let q = self.rng.gen_range(0..cfg.c);
        let (selections, diag_blocks) =
            self.results.profile.time("green", || -> FsiResult<_> {
                let mut selections: Vec<SelectedInverse> = Vec::with_capacity(2);
                let mut diag_blocks: Vec<SelectedInverse> = Vec::with_capacity(2);
                for spin in Spin::BOTH {
                    let pc = hubbard_pcyclic(self.builder, self.sweeper.field(), spin);
                    let (merged, diags) = fsi_measurement_set(par, &pc, cfg.c, q)?;
                    diag_blocks.push(diags);
                    selections.push(merged);
                }
                Ok((selections, diag_blocks))
            })?;

        // Physical measurements (the closure captures the result fields
        // it fills, disjoint from the profile that times it).
        let lattice = &self.lattice;
        self.results.profile.time("measurement", || {
            let mut et_sum = crate::meas::EqualTime::default();
            for k in 0..cfg.l {
                let gu = diag_blocks[0].get(k, k).expect("diagonal block");
                let gd = diag_blocks[1].get(k, k).expect("diagonal block");
                let et = equal_time(lattice, cfg.t, gu, gd);
                et_sum.density_up += et.density_up;
                et_sum.density_down += et.density_down;
                et_sum.double_occupancy += et.double_occupancy;
                et_sum.moment += et.moment;
                et_sum.kinetic += et.kinetic;
            }
            let lf = cfg.l as f64;
            self.results
                .density
                .push((et_sum.density_up + et_sum.density_down) / lf);
            self.results
                .double_occupancy
                .push(et_sum.double_occupancy / lf);
            self.results.moment.push(et_sum.moment / lf);
            self.results.kinetic.push(et_sum.kinetic / lf);
            self.results.avg_sign.push(self.sweeper.sign());

            // Structure factor S(π,π) from the slice-averaged zz correlation
            // (even extents only — staggering is ill-defined otherwise).
            if cfg.nx.is_multiple_of(2) && cfg.ny.is_multiple_of(2) {
                let mut zz_acc = vec![0.0; lattice.n_dist_classes()];
                for k in 0..cfg.l {
                    let gu = diag_blocks[0].get(k, k).expect("diagonal block");
                    let gd = diag_blocks[1].get(k, k).expect("diagonal block");
                    for (a, v) in zz_acc.iter_mut().zip(spin_zz_equal_time(lattice, gu, gd)) {
                        *a += v / cfg.l as f64;
                    }
                }
                self.results
                    .structure_factor
                    .push(staggered_structure_factor(lattice, &zz_acc));
            }

            let table = spxx(outer, lattice, cfg.l, &selections[0], &selections[1]);
            self.results.susceptibility.push(uniform_xy_susceptibility(
                lattice,
                &table,
                cfg.beta / cfg.l as f64,
            ));
            match &mut self.results.spxx {
                Some(acc) => acc.merge(&table),
                None => self.results.spxx = Some(table),
            }
        });
        self.steps += 1;
        Ok(())
    }

    /// Ends the run: the SPXX table becomes the mean over the steps run.
    pub fn finish(mut self) -> DqmcResults {
        if let Some(t) = &mut self.results.spxx {
            t.scale(1.0 / self.steps as f64);
        }
        self.results
    }
}

/// Runs the full simulation under the given parallelism mode:
/// [`Simulation::new`], [`Simulation::warmup`], `cfg.measurements` ×
/// [`Simulation::step`] and [`Simulation::finish`].
///
/// ```
/// use fsi_dqmc::{run, DqmcConfig};
/// use fsi_selinv::Parallelism;
/// let mut cfg = DqmcConfig::small();
/// cfg.measurements = 2;
/// let results = run(&cfg, Parallelism::Serial).expect("healthy run");
/// // Half filling by particle-hole symmetry.
/// assert!((results.density.mean() - 1.0).abs() < 0.2);
/// ```
///
/// # Errors
/// As [`Simulation::step`].
pub fn run(cfg: &DqmcConfig, par: Parallelism<'_>) -> FsiResult<DqmcResults> {
    let _dqmc_span = fsi_runtime::trace::span("dqmc");
    let builder = BlockBuilder::new(SquareLattice::new(cfg.nx, cfg.ny), cfg.params());
    let mut sim = Simulation::new(cfg, &builder)?;
    sim.warmup(par)?;
    for _ in 0..cfg.measurements {
        sim.step(par)?;
    }
    Ok(sim.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsi_runtime::ThreadPool;

    #[test]
    fn small_simulation_runs_and_is_sane() {
        let cfg = DqmcConfig::small();
        let r = run(&cfg, Parallelism::Serial).expect("healthy");
        assert_eq!(r.density.count(), cfg.measurements as u64);
        // Half filling: total density ≈ 1 (loose MC tolerance, tiny run).
        assert!(
            (r.density.mean() - 1.0).abs() < 0.2,
            "density {}",
            r.density.mean()
        );
        // Repulsive U suppresses double occupancy below the free 0.25.
        assert!(
            r.double_occupancy.mean() < 0.26,
            "docc {}",
            r.double_occupancy.mean()
        );
        assert!(r.moment.mean() > 0.4, "moment {}", r.moment.mean());
        assert!(r.kinetic.mean() < 0.0, "kinetic {}", r.kinetic.mean());
        // No sign problem at half filling.
        assert!((r.avg_sign.mean() - 1.0).abs() < 1e-12);
        assert!(r.acceptance.mean() > 0.05 && r.acceptance.mean() < 0.99);
        // SPXX present with all τ rows covered.
        let spxx = r.spxx.as_ref().expect("spxx accumulated");
        for tau in 0..cfg.l {
            assert!(spxx.count(tau) > 0, "τ={tau} uncovered");
        }
        // New observables populated and finite.
        assert_eq!(r.structure_factor.count(), cfg.measurements as u64);
        assert!(r.structure_factor.mean().is_finite());
        assert!(r.structure_factor.mean() > 0.0, "AF correlations at U>0");
        assert!(r.susceptibility.mean().is_finite());
        // All three profile phases recorded.
        assert!(r.profile.seconds("sweep") > 0.0);
        assert!(r.profile.seconds("green") > 0.0);
        assert!(r.profile.seconds("measurement") > 0.0);
    }

    #[test]
    fn simulation_is_deterministic() {
        let cfg = DqmcConfig::small();
        let a = run(&cfg, Parallelism::Serial).expect("healthy");
        let b = run(&cfg, Parallelism::Serial).expect("healthy");
        assert_eq!(a.density.mean(), b.density.mean());
        assert_eq!(a.kinetic.mean(), b.kinetic.mean());
    }

    #[test]
    fn parallel_modes_reproduce_serial_physics() {
        let cfg = DqmcConfig {
            measurements: 2,
            warmup: 1,
            ..DqmcConfig::small()
        };
        let serial = run(&cfg, Parallelism::Serial).expect("healthy");
        let pool = ThreadPool::new(3);
        let omp = run(&cfg, Parallelism::OpenMp(&pool)).expect("healthy");
        // The Monte Carlo trajectory is identical (same seed, same
        // arithmetic); only scheduling differs.
        assert!(
            (serial.density.mean() - omp.density.mean()).abs() < 1e-9,
            "serial {} vs omp {}",
            serial.density.mean(),
            omp.density.mean()
        );
        let mkl = run(&cfg, Parallelism::MklStyle(&pool)).expect("healthy");
        assert!((serial.density.mean() - mkl.density.mean()).abs() < 1e-9);
    }

    #[test]
    fn interaction_strengthens_moment() {
        // ⟨m²⟩ grows with U (moment formation) — a qualitative physics
        // check DQMC must reproduce.
        let base = DqmcConfig {
            u: 0.5,
            warmup: 2,
            measurements: 6,
            ..DqmcConfig::small()
        };
        let weak = run(&base, Parallelism::Serial).expect("healthy");
        let strong = run(
            &DqmcConfig {
                u: 6.0,
                ..base.clone()
            },
            Parallelism::Serial,
        )
        .expect("healthy");
        assert!(
            strong.moment.mean() > weak.moment.mean(),
            "m²(U=6) = {} should exceed m²(U=0.5) = {}",
            strong.moment.mean(),
            weak.moment.mean()
        );
    }
}
