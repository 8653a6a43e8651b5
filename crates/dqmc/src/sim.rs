//! The full DQMC simulation (paper Alg. 4 and Fig. 7):
//!
//! ```text
//! initialize HS configuration h₀
//! warmup:      w × { DQMC sweep }
//! measurement: m × { DQMC sweep; Green's functions via FSI; physical
//!                    measurements }
//! ```
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
use fsi_runtime::{Profile, Stopwatch};
use fsi_selinv::fsi::fsi_measurement_set;
use fsi_selinv::{Parallelism, SelectedInverse};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

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
#[derive(Clone, Debug)]
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

/// Runs the full simulation under the given parallelism mode.
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
/// Surfaces any [`fsi_runtime::health`] event that survived the sweep
/// driver's recovery ladder (see [`crate::sweep::RecoveryStats`]), and any
/// probe trip inside the measurement-set inversions, which run outside the
/// ladder.
pub fn run(cfg: &DqmcConfig, par: Parallelism<'_>) -> FsiResult<DqmcResults> {
    let _dqmc_span = fsi_runtime::trace::span("dqmc");
    let lattice = SquareLattice::new(cfg.nx, cfg.ny);
    let builder = BlockBuilder::new(lattice.clone(), cfg.params());
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let field = HsField::random(cfg.l, lattice.n_sites(), &mut rng);
    let sweep_cfg = SweepConfig {
        c: cfg.c,
        stabilize_every: cfg.stabilize_every,
        delay: cfg.delay,
    };
    let mut sweeper = Sweeper::new(&builder, field, sweep_cfg)?;
    let mut results = DqmcResults {
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
    };

    // Warmup stage.
    for _ in 0..cfg.warmup {
        let stats = results
            .profile
            .time("sweep", || sweeper.sweep(&mut rng, par))?;
        results.acceptance.push(stats.acceptance());
    }

    // Measurement stage.
    let (outer, _inner) = par.split();
    for _ in 0..cfg.measurements {
        let stats = results
            .profile
            .time("sweep", || sweeper.sweep(&mut rng, par))?;
        results.acceptance.push(stats.acceptance());

        // Green's functions: all diagonals + b rows + b cols, both spins,
        // sharing one clustering/BSOFI per spin (paper §V-C's selection).
        let q = rng.gen_range(0..cfg.c);
        let (selections, diag_blocks) = results.profile.time("green", || -> FsiResult<_> {
            let mut selections: Vec<SelectedInverse> = Vec::with_capacity(2);
            let mut diag_blocks: Vec<SelectedInverse> = Vec::with_capacity(2);
            for spin in Spin::BOTH {
                let pc = hubbard_pcyclic(&builder, sweeper.field(), spin);
                let (merged, diags) = fsi_measurement_set(par, &pc, cfg.c, q)?;
                diag_blocks.push(diags);
                selections.push(merged);
            }
            Ok((selections, diag_blocks))
        })?;

        // Physical measurements.
        let sw = Stopwatch::start();
        let meas_span = fsi_runtime::trace::span("measurement");
        let mut et_sum = crate::meas::EqualTime::default();
        for k in 0..cfg.l {
            let gu = diag_blocks[0].get(k, k).expect("diagonal block");
            let gd = diag_blocks[1].get(k, k).expect("diagonal block");
            let et = equal_time(&lattice, cfg.t, gu, gd);
            et_sum.density_up += et.density_up;
            et_sum.density_down += et.density_down;
            et_sum.double_occupancy += et.double_occupancy;
            et_sum.moment += et.moment;
            et_sum.kinetic += et.kinetic;
        }
        let lf = cfg.l as f64;
        results
            .density
            .push((et_sum.density_up + et_sum.density_down) / lf);
        results.double_occupancy.push(et_sum.double_occupancy / lf);
        results.moment.push(et_sum.moment / lf);
        results.kinetic.push(et_sum.kinetic / lf);
        results.avg_sign.push(sweeper.sign());

        // Structure factor S(π,π) from the slice-averaged zz correlation
        // (even extents only — staggering is ill-defined otherwise).
        if cfg.nx.is_multiple_of(2) && cfg.ny.is_multiple_of(2) {
            let mut zz_acc = vec![0.0; lattice.n_dist_classes()];
            for k in 0..cfg.l {
                let gu = diag_blocks[0].get(k, k).expect("diagonal block");
                let gd = diag_blocks[1].get(k, k).expect("diagonal block");
                for (a, v) in zz_acc.iter_mut().zip(spin_zz_equal_time(&lattice, gu, gd)) {
                    *a += v / cfg.l as f64;
                }
            }
            results
                .structure_factor
                .push(staggered_structure_factor(&lattice, &zz_acc));
        }

        let table = spxx(outer, &lattice, cfg.l, &selections[0], &selections[1]);
        results.susceptibility.push(uniform_xy_susceptibility(
            &lattice,
            &table,
            cfg.beta / cfg.l as f64,
        ));
        match &mut results.spxx {
            Some(acc) => acc.merge(&table),
            None => results.spxx = Some(table),
        }
        drop(meas_span);
        results.profile.add("measurement", sw.elapsed());
    }
    if let Some(t) = &mut results.spxx {
        if cfg.measurements > 0 {
            t.scale(1.0 / cfg.measurements as f64);
        }
    }
    Ok(results)
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
