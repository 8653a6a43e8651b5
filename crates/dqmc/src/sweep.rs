//! The DQMC sweep (paper Alg. 4, inner loops).
//!
//! A sweep visits every `(slice ℓ, site i)` and Metropolis-tests the flip
//! `h(ℓ, i) → −h(ℓ, i)`. The determinant ratio needs only one diagonal
//! element of the equal-time Green's function:
//!
//! ```text
//! γ_σ = e^{−2σν h(ℓ,i)} − 1
//! R_σ = 1 + γ_σ·(1 − Ĝ_σ[i,i]),         r = R_↑·R_↓
//! ```
//!
//! where `Ĝ_σ = (I + B_{ℓ−1}⋯B_ℓ)⁻¹` is the Green's function in the frame
//! where `B_ℓ` is the *innermost* factor — the frame in which a change to
//! `B_ℓ` is a rank-1 perturbation. On acceptance `Ĝ_σ` is updated by
//! Sherman–Morrison in O(N²):
//!
//! ```text
//! Ĝ' = Ĝ − (γ/R)·(e_i − Ĝe_i)·(e_iᵀĜ)
//! ```
//!
//! Moving to the next slice is the similarity wrap
//! `Ĝ(ℓ+1) = B_ℓ·Ĝ(ℓ)·B_ℓ⁻¹` (with the just-updated `B_ℓ`; the inverse is
//! analytic for Hubbard blocks). Wraps and rank-1 updates accumulate
//! round-off, so every `stabilize_every` slices the state is recomputed
//! from scratch through the CLS + BSOFI route of [`crate::stable`] — this
//! is precisely where FSI accelerates the sweep phase.
//!
//! Three structure exploitations keep this one stabilization path lean:
//!
//! * **One spin at half filling**: when the model is particle–hole
//!   symmetric ([`BlockBuilder::particle_hole_symmetric`]: no chemical
//!   potential, both lattice extents even), `Ĝ↓ = Π(I − Ĝ↑)ᵀΠ` with
//!   `Π = diag((−1)^{x+y})` holds for every field. Then
//!   `Ĝ↓[i,i] = 1 − Ĝ↑[i,i]`, so
//!
//!   ```text
//!   R_↓ = 1 + γ_↓·Ĝ↑[i,i] = e^{2νh(ℓ,i)}·R_↑,     r = e^{2νh(ℓ,i)}·R_↑² ≥ 0
//!   ```
//!
//!   and the sign stays +1. The sweeper keeps only `Ĝ↑` (one channel):
//!   the spin-down refresh, wraps and rank-1 updates are not done at all,
//!   and [`Sweeper::green`] derives `Ĝ↓` on demand. Any other model keeps
//!   both channels and runs them one after the other.
//! * **Factored wraps** ([`wrap_factored`]): `B = e^{tΔτK}·D` with
//!   `D = diag(e^{σνh})`, so the wrap is a diagonal similarity
//!   (`Ĝ[i,j] ← Ĝ[i,j]·d_i/d_j`, two `exp` calls total since `h ∈ {±1}`)
//!   followed by the kinetic conjugation, two scratch-buffered GEMMs by
//!   `e^{±tΔτK}`. No `B`/`B⁻¹` is materialized; [`wrap_dense`] is kept
//!   only as the reference it is tested against.
//! * **Incremental stabilization**: dense blocks and CLS cluster products
//!   are cached per channel ([`fsi_pcyclic::BlockCache`],
//!   [`fsi_selinv::ClusterCache`]) and only the slices flipped since the
//!   previous refresh are recomputed (dirty-slice tracking). On
//!   invalidated caches a refresh is a bitwise cold rebuild.

use fsi_dense::{gemm_op, ger, MatMut, MatRef, Matrix, Op};
use fsi_pcyclic::{hubbard_pcyclic, BlockBuilder, BlockCache, HsField, Spin, SquareLattice};
use fsi_runtime::health::{self, FsiResult, HealthEvent, Stage};
use fsi_runtime::metrics::flight::{self, FlightKind};
use fsi_runtime::{trace, workspace, Par};
use fsi_selinv::{auto_cluster_size, ClusterCache, Parallelism};
use rand::Rng;

use crate::delayed::DelayedUpdates;
use crate::stable::equal_time_green_cached;

/// Accuracy target handed to [`auto_cluster_size`] when the recovery
/// ladder re-estimates the cluster size on suspect data — tighter than the
/// usual 1e-8 so the shrunk `c` has margin against the very conditioning
/// problem that tripped the probe.
const RECOVERY_TOL: f64 = 1e-10;

/// Tuning knobs of the sweep engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SweepConfig {
    /// Cluster size for the stabilized recomputation (`c ≈ √L`).
    pub c: usize,
    /// Recompute `Ĝ` from scratch every this many slice moves: a refresh
    /// replaces the move that would be the `stabilize_every`-th wrap
    /// (QUEST-style `nwrap`; sweeps always refresh at their start as
    /// well). Keep it a multiple of `c` — the incremental cluster cache
    /// only scores hits when consecutive refreshes anchor on the same
    /// `k mod c` residue.
    pub stabilize_every: usize,
    /// Delayed-update batch size: accepted flips are accumulated as
    /// low-rank factors and flushed into `Ĝ` with one rank-`delay` GEMM.
    /// `1` = plain immediate rank-1 updates.
    pub delay: usize,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            c: 4,
            stabilize_every: 8,
            delay: 1,
        }
    }
}

/// Counters reported by each sweep.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SweepStats {
    /// Metropolis proposals made (`N·L` per sweep).
    pub proposed: usize,
    /// Proposals accepted.
    pub accepted: usize,
}

impl SweepStats {
    /// Acceptance ratio in `[0, 1]`.
    pub fn acceptance(&self) -> f64 {
        if self.proposed == 0 {
            0.0
        } else {
            self.accepted as f64 / self.proposed as f64
        }
    }
}

/// Record of the self-healing recovery ladder's activity.
///
/// Every health event that reached the sweep driver is logged (in order),
/// together with how many times each escalation rung ran. The ladder is
/// deterministic: a given fault history produces exactly this sequence.
#[derive(Clone, Debug, Default)]
pub struct RecoveryStats {
    /// Rung 1 executions: invalidate every channel's block and cluster
    /// caches and retry (`dqmc.recovery.invalidate_caches`).
    pub cache_invalidations: u64,
    /// Rung 2 executions: shrink the cluster size `c` (halved, capped by
    /// [`auto_cluster_size`] at `RECOVERY_TOL` = 1e-10) and retry
    /// (`dqmc.recovery.shrink_cluster`).
    pub cluster_shrinks: u64,
    /// Rung 3 executions: invalidate the caches again and recompute with
    /// `c = 1`, no clustering at all (`dqmc.recovery.from_scratch`).
    pub from_scratch: u64,
    /// Every error the driver saw, in arrival order (the first entry of
    /// each burst is the original fault; later ones are retry failures).
    pub events: Vec<HealthEvent>,
}

impl RecoveryStats {
    /// Total escalation rungs executed.
    pub fn escalations(&self) -> u64 {
        self.cache_invalidations + self.cluster_shrinks + self.from_scratch
    }

    /// Whether any recovery happened at all.
    pub fn any(&self) -> bool {
        !self.events.is_empty()
    }
}

/// One spin's share of the sweep state: its `Ĝ_σ` for the slice currently
/// being updated, and the caches its refreshes reuse.
struct Channel {
    spin: Spin,
    g: Matrix,
    /// Dense blocks `B_ℓ^σ`.
    blocks: BlockCache,
    /// CLS cluster products.
    clusters: ClusterCache,
}

impl Channel {
    fn new(spin: Spin, n: usize) -> Self {
        Channel {
            spin,
            g: Matrix::zeros(n, n),
            blocks: BlockCache::new(),
            clusters: ClusterCache::new(),
        }
    }
}

/// The sweep engine: owns the HS field and the equal-time Green's
/// functions of the current slice frame.
///
/// It keeps one channel (spin up) when the model is particle–hole
/// symmetric and derives spin down from it; otherwise it keeps both.
pub struct Sweeper<'a> {
    builder: &'a BlockBuilder,
    field: HsField,
    cfg: SweepConfig,
    /// `[↑]` on a particle–hole symmetric model, `[↑, ↓]` otherwise.
    channels: Vec<Channel>,
    /// Monte Carlo weight sign tracked across accepted flips.
    sign: f64,
    wraps_since_stab: usize,
    /// Slices with at least one accepted flip since the last refresh;
    /// read by every channel's caches during the refresh, cleared
    /// afterwards.
    dirty: Vec<bool>,
    /// Escalation-ladder bookkeeping.
    recovery: RecoveryStats,
}

impl<'a> Sweeper<'a> {
    /// Creates a sweeper positioned at slice 0 (Green's functions
    /// computed from scratch).
    ///
    /// # Errors
    /// The initial refresh runs through the same recovery ladder as
    /// mid-sweep stabilizations; an error here means even the rung-3
    /// from-scratch recomputation failed (genuinely unusable input data).
    pub fn new(builder: &'a BlockBuilder, field: HsField, cfg: SweepConfig) -> FsiResult<Self> {
        assert_eq!(
            field.slices(),
            builder.params().l,
            "field/params L mismatch"
        );
        assert_eq!(
            field.sites(),
            builder.lattice().n_sites(),
            "field/lattice N mismatch"
        );
        let n = field.sites();
        let l = field.slices();
        let spins: &[Spin] = if builder.particle_hole_symmetric() {
            &[Spin::Up]
        } else {
            &Spin::BOTH
        };
        let mut s = Sweeper {
            builder,
            field,
            cfg,
            channels: spins.iter().map(|&spin| Channel::new(spin, n)).collect(),
            sign: 1.0,
            wraps_since_stab: 0,
            dirty: vec![false; l],
            recovery: RecoveryStats::default(),
        };
        s.refresh(0, Parallelism::Serial)?;
        Ok(s)
    }

    /// The current HS field.
    pub fn field(&self) -> &HsField {
        &self.field
    }

    /// The tracked Monte Carlo sign.
    pub fn sign(&self) -> f64 {
        self.sign
    }

    /// Restores the tracked sign from a checkpoint. The sign is a
    /// multiplicative accumulation over every accepted flip of the whole
    /// trajectory — it cannot be recomputed from the current field alone,
    /// so [`crate::checkpoint::SweepCheckpoint`] carries it and resume
    /// paths reinstate it here. Not for general use: overwriting the
    /// sign mid-trajectory silently corrupts `⟨sign⟩` observables.
    pub(crate) fn restore_sign(&mut self, sign: f64) {
        self.sign = sign;
    }

    /// The `Ĝ_σ` of the current frame (tests / measurements at slice
    /// boundaries). A spin without a channel of its own is derived as
    /// `Ĝ↓ = Π(I − Ĝ↑)ᵀΠ` on each call.
    pub fn green(&self, spin: Spin) -> Matrix {
        match self.channels.iter().find(|ch| ch.spin == spin) {
            Some(ch) => ch.g.clone(),
            None => particle_hole_partner(self.builder.lattice(), &self.channels[0].g),
        }
    }

    /// Recomputes every channel's `Ĝ` from scratch for updating `slice`,
    /// running the self-healing recovery ladder on failure.
    ///
    /// `Ĝ(slice) = G(slice − 1)`: the cyclic product ends with
    /// `B_slice` as its innermost factor.
    ///
    /// The channels run one after the other, each with the full
    /// outer/inner parallelism; the block and cluster caches limit the
    /// rebuild to slices flipped since the previous refresh.
    ///
    /// # Errors
    /// Returned only when every rung of the recovery ladder's escalation
    /// ladder failed; the last error is surfaced and also logged in
    /// [`Self::recovery_stats`].
    pub fn refresh(&mut self, slice: usize, par: Parallelism<'_>) -> FsiResult<()> {
        let _s = trace::span("refresh");
        match self.refresh_once(slice, par) {
            Ok(()) => Ok(()),
            Err(e) => self.recover(slice, par, e),
        }
    }

    /// One stabilization attempt, no recovery: the fallible core that both
    /// [`Self::refresh`] and the ladder's retries drive.
    fn refresh_once(&mut self, slice: usize, par: Parallelism<'_>) -> FsiResult<()> {
        let l = self.builder.params().l;
        let k = (slice + l - 1) % l;
        let (outer, inner) = par.split();
        let c = self.cfg.c;
        let (builder, field, dirty) = (self.builder, &self.field, &self.dirty);
        let fresh: Vec<FsiResult<Matrix>> = self
            .channels
            .iter_mut()
            .map(|ch| {
                ch.blocks.sync(builder, field, ch.spin, dirty);
                equal_time_green_cached(
                    outer,
                    inner,
                    ch.blocks.blocks(),
                    dirty,
                    &mut ch.clusters,
                    k,
                    c,
                )
            })
            .collect();
        // Every channel ran, so an attempt costs the same whichever channel
        // failed; surface the first failure only now.
        let fresh = fresh.into_iter().collect::<FsiResult<Vec<_>>>()?;
        for (ch, g) in self.channels.iter_mut().zip(fresh) {
            ch.g = g;
        }
        self.dirty.iter_mut().for_each(|d| *d = false);
        self.wraps_since_stab = 0;
        Ok(())
    }

    /// The deterministic escalation ladder (tentpole of the robustness
    /// layer). Each rung is one `dqmc.recovery.*` incident, applies a
    /// progressively blunter remedy, and retries the refresh:
    ///
    /// 1. `dqmc.recovery.invalidate_caches` — drop every channel's block and
    ///    cluster caches (heals any corrupted cached state; retry is a
    ///    cold, bitwise-clean rebuild).
    /// 2. `dqmc.recovery.shrink_cluster` — halve the cluster size (largest
    ///    divisor of `L` at most `c/2`, capped by [`auto_cluster_size`]
    ///    with the tightened [`RECOVERY_TOL`]) — the paper-§II-C remedy
    ///    for `κ(B)^c` chain-conditioning blowup.
    /// 3. `dqmc.recovery.from_scratch` — invalidate the caches again and
    ///    recompute with `c = 1` (no clustering at all). If rung 2 already
    ///    reached `c = 1`, this is a plain retry of rung 2's refresh.
    ///
    /// Every rung retries the refresh, which replaces the wrapped `Ĝ`, so
    /// a fault raised by a wrap is always healed at rung 1. Rungs 2 and 3
    /// deliberately persist in the configuration: a matrix that needed
    /// them once will need them again, and a deterministic ladder must not
    /// oscillate.
    fn recover(&mut self, slice: usize, par: Parallelism<'_>, first: HealthEvent) -> FsiResult<()> {
        // Each rung is one incident: counter, flight-ring entry with an
        // incident dump (so every escalation ships the ring of spans that
        // led up to it) and, tracing on, a collector span, under one name.
        let rung = |name| flight::record(FlightKind::Recovery, name, first.stage().name());
        self.recovery.events.push(first);
        rung("dqmc.recovery.invalidate_caches");
        self.recovery.cache_invalidations += 1;
        self.invalidate_caches();
        match self.refresh_once(slice, par) {
            Ok(()) => return Ok(()),
            Err(e) => self.recovery.events.push(e),
        }
        rung("dqmc.recovery.shrink_cluster");
        self.recovery.cluster_shrinks += 1;
        self.cfg.c = self.shrunk_cluster_size();
        self.invalidate_caches();
        match self.refresh_once(slice, par) {
            Ok(()) => return Ok(()),
            Err(e) => self.recovery.events.push(e),
        }
        rung("dqmc.recovery.from_scratch");
        self.recovery.from_scratch += 1;
        self.cfg.c = 1;
        self.invalidate_caches();
        match self.refresh_once(slice, par) {
            Ok(()) => Ok(()),
            Err(e) => {
                self.recovery.events.push(e);
                static FAILED: fsi_runtime::metrics::LazyCounter =
                    fsi_runtime::metrics::LazyCounter::new("dqmc.recovery.failed");
                FAILED.inc();
                Err(e)
            }
        }
    }

    /// Drops every channel's cached state (dense blocks and cluster
    /// products); the next refresh is a full cold rebuild.
    fn invalidate_caches(&mut self) {
        for ch in &mut self.channels {
            ch.blocks.invalidate();
            ch.clusters.invalidate();
        }
    }

    /// Rung-2 policy: the largest divisor of `L` no bigger than `c/2`,
    /// further capped by [`auto_cluster_size`] re-estimated on the current
    /// (suspect) up-spin matrix at the tightened [`RECOVERY_TOL`]. Always
    /// at least 1; [`fsi_selinv::growth_rate`] maps a singular block to an
    /// infinite rate, which caps the estimate at `c = 1` instead of
    /// panicking.
    fn shrunk_cluster_size(&self) -> usize {
        let l = self.builder.params().l;
        let pc = hubbard_pcyclic(self.builder, &self.field, Spin::Up);
        let cap = auto_cluster_size(&pc, RECOVERY_TOL);
        let half = (self.cfg.c / 2).max(1);
        (1..=half.min(cap))
            .filter(|d| l.is_multiple_of(*d))
            .max()
            .unwrap_or(1)
    }

    /// The recovery ladder's activity log (empty on a healthy run).
    pub fn recovery_stats(&self) -> &RecoveryStats {
        &self.recovery
    }

    /// The sweep configuration as currently in force — recovery
    /// escalations shrink its `c`, and harnesses read back what survived.
    pub fn config(&self) -> &SweepConfig {
        &self.cfg
    }

    /// `(hits, misses)` summed over every channel's cluster cache since
    /// construction — what the benchmark's `selinv.cache_hit_frac` and the
    /// warm-refresh test ("warm refresh recomputes strictly fewer
    /// products") read.
    pub fn cluster_cache_stats(&self) -> (u64, u64) {
        self.channels.iter().fold((0, 0), |(h, m), ch| {
            (h + ch.clusters.hits(), m + ch.clusters.misses())
        })
    }

    /// The Metropolis ratio factors `(R_↑, R_↓)` for flipping
    /// `h(slice, i)` in the current frame.
    pub fn ratio(&self, slice: usize, i: usize) -> (f64, f64) {
        let diag = |ch: &Channel| ch.g[(i, i)];
        metropolis_factors(
            self.builder.nu(),
            self.field.get(slice, i),
            diag(&self.channels[0]),
            self.channels.get(1).map(diag),
        )
    }

    /// Applies the accepted flip at `(slice, i)`: Sherman–Morrison update
    /// of every channel's `Ĝ_σ`, field flip, dirty-slice marking, sign
    /// bookkeeping.
    fn apply_flip(&mut self, slice: usize, i: usize, r_up: f64, r_dn: f64) {
        let nu = self.builder.nu();
        let h = self.field.get(slice, i);
        let n = self.field.sites();
        for ch in &mut self.channels {
            let gamma = hs_gamma(ch.spin, nu, h);
            let r = if ch.spin == Spin::Up { r_up } else { r_dn };
            let g = &mut ch.g;
            // u = e_i − G e_i (column), v = eᵢᵀ G (row).
            workspace::with_scratch2(n, n, |u, v| {
                for j in 0..n {
                    u[j] = -g[(j, i)];
                    v[j] = g[(i, j)];
                }
                u[i] += 1.0;
                ger(-gamma / r, u, v, g.as_mut());
            });
        }
        self.field.flip(slice, i);
        self.dirty[slice] = true;
        self.sign *= (r_up * r_dn).signum();
    }

    /// Wraps every channel's `Ĝ_σ` from the slice-`slice` frame to slice
    /// `slice+1`: `Ĝ ← B_slice·Ĝ·B_slice⁻¹` with the current (post-update)
    /// field.
    ///
    /// A wrap whose output fails the [`Stage::Wrap`] probe is repaired by
    /// recomputing `Ĝ(slice+1)` from scratch through the recovery ladder —
    /// the wrapped pair is disposable, so stabilization *is* the remedy.
    fn wrap_to_next(&mut self, slice: usize, par: Parallelism<'_>) -> FsiResult<()> {
        let (_, inner) = par.split();
        for ch in &mut self.channels {
            wrap_factored(inner, self.builder, &self.field, slice, ch.spin, &mut ch.g);
        }
        self.wraps_since_stab += 1;
        let tripped = self.channels.iter_mut().find_map(|ch| {
            health::inject::poison(Stage::Wrap, slice, ch.g.as_mut_slice());
            health::check_block(Stage::Wrap, slice, ch.g.as_slice()).err()
        });
        if let Some(e) = tripped {
            self.recover(slice + 1, par, e)?;
        }
        Ok(())
    }

    /// Runs one full sweep over all `(ℓ, i)` (paper Alg. 4's "DQMC
    /// sweep"), refreshing the state at the start and every
    /// `stabilize_every` slice moves (`stabilize_every − 1` wraps, then a
    /// refresh in place of the next wrap). Returns acceptance statistics.
    ///
    /// With `cfg.delay > 1`, accepted flips within a slice are batched
    /// through a delayed-update accumulator and applied as rank-`k`
    /// GEMMs (identical trajectories up to round-off; tested).
    ///
    /// # Errors
    /// Only when the full recovery ladder fails (see [`Self::refresh`]);
    /// single faults are healed in place and merely logged in
    /// [`Self::recovery_stats`].
    pub fn sweep<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        par: Parallelism<'_>,
    ) -> FsiResult<SweepStats> {
        let l = self.builder.params().l;
        let n = self.field.sites();
        let nu = self.builder.nu();
        let (_, inner) = par.split();
        let mut stats = SweepStats::default();
        // One delayed-update accumulator per channel, empty between slices
        // (unused at delay = 1).
        let delay = self.cfg.delay;
        let mut accs: Vec<DelayedUpdates> = (0..self.channels.len())
            .map(|_| DelayedUpdates::new(n, delay))
            .collect();
        self.refresh(0, par)?;
        for slice in 0..l {
            if delay > 1 {
                for i in 0..n {
                    let h = self.field.get(slice, i);
                    let diag = |c: usize| accs[c].diag(&self.channels[c].g, i);
                    let (r_up, r_dn) =
                        metropolis_factors(nu, h, diag(0), (accs.len() > 1).then(|| diag(1)));
                    let p = r_up * r_dn;
                    stats.proposed += 1;
                    if rng.gen::<f64>() < p.abs().min(1.0) {
                        if accs[0].is_full() {
                            self.flush(inner, &mut accs);
                        }
                        for (acc, ch) in accs.iter_mut().zip(&self.channels) {
                            let r = if ch.spin == Spin::Up { r_up } else { r_dn };
                            acc.push(&ch.g, i, hs_gamma(ch.spin, nu, h), r);
                        }
                        self.field.flip(slice, i);
                        self.dirty[slice] = true;
                        self.sign *= p.signum();
                        stats.accepted += 1;
                    }
                }
                self.flush(inner, &mut accs);
            } else {
                for i in 0..n {
                    let (r_up, r_dn) = self.ratio(slice, i);
                    let p = r_up * r_dn;
                    stats.proposed += 1;
                    if rng.gen::<f64>() < p.abs().min(1.0) {
                        self.apply_flip(slice, i, r_up, r_dn);
                        stats.accepted += 1;
                    }
                }
            }
            if slice + 1 < l {
                // The wrap that would reach `stabilize_every` is skipped:
                // the refresh recomputes Ĝ(slice + 1) without reading it.
                if self.wraps_since_stab + 1 >= self.cfg.stabilize_every {
                    self.refresh(slice + 1, par)?;
                } else {
                    self.wrap_to_next(slice, par)?;
                }
            }
        }
        static PROPOSED: fsi_runtime::metrics::LazyCounter =
            fsi_runtime::metrics::LazyCounter::new("dqmc.sweep.proposed");
        static ACCEPTED: fsi_runtime::metrics::LazyCounter =
            fsi_runtime::metrics::LazyCounter::new("dqmc.sweep.accepted");
        static ACCEPTANCE: fsi_runtime::metrics::LazyGauge =
            fsi_runtime::metrics::LazyGauge::new("dqmc.sweep.acceptance");
        PROPOSED.add(stats.proposed as u64);
        ACCEPTED.add(stats.accepted as u64);
        ACCEPTANCE.set(stats.acceptance());
        Ok(stats)
    }

    /// Materializes each channel's pending delayed updates into its `Ĝ`.
    fn flush(&mut self, inner: Par<'_>, accs: &mut [DelayedUpdates]) {
        for (acc, ch) in accs.iter_mut().zip(&mut self.channels) {
            acc.flush(inner, &mut ch.g);
        }
    }
}

/// The HS coefficient `γ_σ = e^{−2σνh} − 1` of flipping a site whose
/// field is `h`.
fn hs_gamma(spin: Spin, nu: f64, h: f64) -> f64 {
    (-2.0 * spin.sign() * nu * h).exp() - 1.0
}

/// The Metropolis factors `(R_↑, R_↓)` of flipping a site whose field is
/// `h`, from `Ĝ↑[i,i]` and, when spin down has a channel of its own,
/// `Ĝ↓[i,i]`. Without one, `Ĝ↓[i,i] = 1 − Ĝ↑[i,i]` gives
/// `R_↓ = 1 + γ_↓·Ĝ↑[i,i] = e^{2νh}·R_↑`; the second form keeps
/// `R_↑·R_↓ ≥ 0` exact in floating point, so the sign stays +1.
fn metropolis_factors(nu: f64, h: f64, g_up: f64, g_dn: Option<f64>) -> (f64, f64) {
    let r_up = 1.0 + hs_gamma(Spin::Up, nu, h) * (1.0 - g_up);
    let r_dn = match g_dn {
        Some(g_dn) => 1.0 + hs_gamma(Spin::Down, nu, h) * (1.0 - g_dn),
        None => (2.0 * nu * h).exp() * r_up,
    };
    (r_up, r_dn)
}

/// The spin-down equal-time Green's function of a particle–hole symmetric
/// model, `Ĝ↓ = Π(I − Ĝ↑)ᵀΠ` with `Π = diag((−1)^{x+y})`.
fn particle_hole_partner(lattice: &SquareLattice, g_up: &Matrix) -> Matrix {
    let n = g_up.rows();
    let odd: Vec<bool> = (0..n)
        .map(|i| {
            let (x, y) = lattice.coords(i);
            (x + y) % 2 == 1
        })
        .collect();
    let mut g_dn = Matrix::zeros(n, n);
    for j in 0..n {
        for i in 0..n {
            let delta = if i == j { 1.0 } else { 0.0 };
            let v = delta - g_up[(j, i)];
            g_dn[(i, j)] = if odd[i] == odd[j] { v } else { -v };
        }
    }
    g_dn
}

/// Dense similarity wrap `Ĝ ← B_slice·Ĝ·B_slice⁻¹` with materialized
/// factors — two fresh `N×N` matrices and two out-of-place GEMMs per call.
/// The sweep never calls it: it is the reference [`wrap_factored`] is
/// tested and benchmarked against.
pub fn wrap_dense(
    par: Par<'_>,
    builder: &BlockBuilder,
    field: &HsField,
    slice: usize,
    spin: Spin,
    g: &mut Matrix,
) {
    let b = builder.block(field, slice, spin);
    let binv = builder.block_inverse(field, slice, spin);
    let tmp = fsi_dense::mul_par(par, &b, g);
    *g = fsi_dense::mul_par(par, &tmp, &binv);
}

/// Factored similarity wrap.
///
/// With `B = e^{tΔτK}·D`, `D = diag(e^{σν h})`:
///
/// ```text
/// B·Ĝ·B⁻¹ = e^{tΔτK} · (D·Ĝ·D⁻¹) · e^{−tΔτK}
/// ```
///
/// The inner diagonal similarity is `Ĝ[i,j] ← Ĝ[i,j]·d_i/d_j` — and since
/// `h ∈ {±1}` only `e^{+σν}` and `e^{−σν}` ever occur, two transcendental
/// calls per slice instead of the dense path's `2N` (formerly `N²`). The
/// kinetic conjugation is two GEMMs through thread-local scratch (no
/// allocation). Matches [`wrap_dense`] up to round-off-level
/// reassociation (≪ 1e-12; property-tested).
pub fn wrap_factored(
    par: Par<'_>,
    builder: &BlockBuilder,
    field: &HsField,
    slice: usize,
    spin: Spin,
    g: &mut Matrix,
) {
    let _s = trace::span("wrap.factored");
    let n = g.rows();
    debug_assert_eq!(g.cols(), n);
    let nu = builder.nu();
    let d_up = (spin.sign() * nu).exp();
    let d_dn = (-spin.sign() * nu).exp();
    let h = field.row(slice);
    // Ĝ[i,j] *= d_i / d_j, column-major so j is outer.
    for (j, col) in g.as_mut_slice().chunks_exact_mut(n).enumerate() {
        let inv_dj = if h[j] > 0.0 { d_dn } else { d_up };
        for (x, &hi) in col.iter_mut().zip(&h) {
            let di = if hi > 0.0 { d_up } else { d_dn };
            *x *= di * inv_dj;
        }
    }
    trace::charge_flops(2 * (n * n) as u64);
    workspace::with_scratch(n * n, |buf| {
        gemm_op(
            par,
            1.0,
            Op::NoTrans,
            builder.exp_k().view(0, 0, n, n),
            Op::NoTrans,
            g.view(0, 0, n, n),
            0.0,
            MatMut::from_slice(&mut *buf, n, n, n),
        );
        gemm_op(
            par,
            1.0,
            Op::NoTrans,
            MatRef::from_slice(&*buf, n, n, n),
            Op::NoTrans,
            builder.exp_k_inv().view(0, 0, n, n),
            0.0,
            g.as_mut(),
        );
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsi_dense::{getrf, rel_error};
    use fsi_pcyclic::{HubbardParams, SquareLattice};
    use fsi_runtime::Par;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn small_builder(l: usize) -> BlockBuilder {
        builder_on(SquareLattice::square(2), l)
    }

    fn builder_on(lattice: SquareLattice, l: usize) -> BlockBuilder {
        BlockBuilder::new(
            lattice,
            HubbardParams {
                t: 1.0,
                u: 4.0,
                beta: 2.0,
                l,
            },
        )
    }

    /// `[Ĝ↑, Ĝ↓]` of the current frame, stored or derived.
    fn greens(s: &Sweeper<'_>) -> [Matrix; 2] {
        Spin::BOTH.map(|spin| s.green(spin))
    }

    /// Brute-force determinant of `W(k) = I + P(k)` for the current field.
    fn log_det_w(builder: &BlockBuilder, field: &HsField, spin: Spin, k: usize) -> (f64, f64) {
        let pc = hubbard_pcyclic(builder, field, spin);
        let w = fsi_pcyclic::w_matrix(&pc, k);
        getrf(w).expect("nonsingular").sign_log_det()
    }

    /// On 2×2 the one-channel path derives `R↓` from `Ĝ↑`; on 3×2 both
    /// spins are channels of their own. Both meet the brute-force ratio.
    #[test]
    fn metropolis_ratio_matches_brute_force_determinants() {
        for (lattice, channels) in [(SquareLattice::square(2), 1), (SquareLattice::new(3, 2), 2)] {
            let n = lattice.n_sites();
            let builder = builder_on(lattice, 8);
            let mut rng = ChaCha8Rng::seed_from_u64(10);
            let field = HsField::random(8, n, &mut rng);
            for slice in [0usize, 2, 7] {
                let sweeper = {
                    let mut s = Sweeper::new(&builder, field.clone(), SweepConfig::default())
                        .expect("healthy");
                    s.refresh(slice, Parallelism::Serial).expect("healthy");
                    s
                };
                assert_eq!(sweeper.channels.len(), channels);
                for i in 0..n {
                    let (r_up, r_dn) = sweeper.ratio(slice, i);
                    // Brute force: det W'(k) / det W(k) at k = slice − 1,
                    // with the flipped field.
                    let k = (slice + 8 - 1) % 8;
                    let mut flipped = field.clone();
                    flipped.flip(slice, i);
                    for (spin, r) in Spin::BOTH.into_iter().zip([r_up, r_dn]) {
                        let (s0, ld0) = log_det_w(&builder, &field, spin, k);
                        let (s1, ld1) = log_det_w(&builder, &flipped, spin, k);
                        let want = s1 * s0 * (ld1 - ld0).exp();
                        assert!(
                            (r - want).abs() < 1e-8 * want.abs().max(1.0),
                            "{n} sites, slice {slice} site {i} {spin:?}: \
                             formula {r} vs brute {want}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn sherman_morrison_matches_recompute() {
        let builder = small_builder(8);
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let field = HsField::random(8, 4, &mut rng);
        let mut sweeper = Sweeper::new(&builder, field, SweepConfig::default()).expect("healthy");
        // Force-accept a few flips at slice 0, then compare the updated G
        // against a from-scratch recomputation.
        for i in [0usize, 2, 3] {
            let (r_up, r_dn) = sweeper.ratio(0, i);
            sweeper.apply_flip(0, i, r_up, r_dn);
        }
        let updated = greens(&sweeper);
        sweeper.refresh(0, Parallelism::Serial).expect("healthy");
        for (spin, (u, fresh)) in Spin::BOTH.iter().zip(updated.iter().zip(greens(&sweeper))) {
            let err = rel_error(u, &fresh);
            assert!(err < 1e-9, "{spin:?}: SM drift {err}");
        }
    }

    #[test]
    fn wrap_matches_fresh_green() {
        let builder = small_builder(8);
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let field = HsField::random(8, 4, &mut rng);
        let mut sweeper = Sweeper::new(&builder, field, SweepConfig::default()).expect("healthy");
        // Ĝ(0) → wrap → should equal fresh Ĝ(1).
        sweeper
            .wrap_to_next(0, Parallelism::Serial)
            .expect("healthy");
        let wrapped = greens(&sweeper);
        sweeper.refresh(1, Parallelism::Serial).expect("healthy");
        for (spin, (w, fresh)) in Spin::BOTH.iter().zip(wrapped.iter().zip(greens(&sweeper))) {
            let err = rel_error(w, &fresh);
            assert!(err < 1e-9, "{spin:?}: wrap err {err}");
        }
    }

    #[test]
    fn factored_wrap_matches_the_dense_reference() {
        let builder = small_builder(8);
        let mut rng = ChaCha8Rng::seed_from_u64(30);
        let field = HsField::random(8, 4, &mut rng);
        let sweeper =
            Sweeper::new(&builder, field.clone(), SweepConfig::default()).expect("healthy");
        for spin in Spin::BOTH {
            for slice in [0usize, 3, 7] {
                let mut dense = sweeper.green(spin);
                wrap_dense(Par::Seq, &builder, &field, slice, spin, &mut dense);
                let mut factored = sweeper.green(spin);
                wrap_factored(Par::Seq, &builder, &field, slice, spin, &mut factored);
                let err = rel_error(&factored, &dense);
                assert!(err < 1e-12, "{spin:?} slice {slice}: {err}");
            }
        }
    }

    #[test]
    fn cold_caches_before_every_sweep_follow_the_same_trajectory() {
        let builder = small_builder(8);
        let mut rng = ChaCha8Rng::seed_from_u64(32);
        let field = HsField::random(8, 4, &mut rng);
        let run = |cold: bool| {
            let mut s =
                Sweeper::new(&builder, field.clone(), SweepConfig::default()).expect("healthy");
            let mut rng = ChaCha8Rng::seed_from_u64(777);
            let mut accepted = 0;
            for _ in 0..3 {
                if cold {
                    s.invalidate_caches();
                }
                accepted += s
                    .sweep(&mut rng, Parallelism::Serial)
                    .expect("healthy")
                    .accepted;
            }
            (accepted, s.field().to_flat(), s.green(Spin::Up))
        };
        let (acc_cold, field_cold, g_cold) = run(true);
        let (acc_warm, field_warm, g_warm) = run(false);
        assert_eq!(acc_cold, acc_warm, "trajectory must be identical");
        assert_eq!(field_cold, field_warm);
        assert_eq!(
            g_cold.as_slice(),
            g_warm.as_slice(),
            "warm refresh must be bitwise"
        );
    }

    #[test]
    fn warm_refresh_scores_cache_hits() {
        let builder = small_builder(8);
        let mut rng = ChaCha8Rng::seed_from_u64(33);
        let field = HsField::random(8, 4, &mut rng);
        // stabilize_every = 8 = L keeps refreshes anchored at slice 0
        // (k = 7, same residue mod c = 4 every time).
        let mut s = Sweeper::new(&builder, field, SweepConfig::default()).expect("healthy");
        // 2×2 is particle–hole symmetric: spin up is the only channel.
        let channels = s.channels.len() as u64;
        assert_eq!(channels, 1);
        let (h0, m0) = s.cluster_cache_stats();
        assert_eq!(h0, 0, "cold build has no hits");
        assert_eq!(
            m0,
            2 * channels,
            "cold build recomputes b = L/c = 2 per channel"
        );
        let mut rng = ChaCha8Rng::seed_from_u64(888);
        s.sweep(&mut rng, Parallelism::Serial).expect("healthy");
        let (h1, m1) = s.cluster_cache_stats();
        assert!(h1 > h0, "sweep-start refresh must reuse clean clusters");
        // A warm refresh recomputes strictly fewer products than cold.
        assert!(
            m1 - m0 < 2 * channels || h1 > 0,
            "warm refresh should not be a full rebuild"
        );
    }

    #[test]
    fn sweep_is_deterministic_given_seed() {
        let builder = small_builder(8);
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let field = HsField::random(8, 4, &mut rng);
        let run = |seed: u64| {
            let mut s =
                Sweeper::new(&builder, field.clone(), SweepConfig::default()).expect("healthy");
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let stats = s.sweep(&mut rng, Parallelism::Serial).expect("healthy");
            (stats, s.field().to_flat())
        };
        let (s1, f1) = run(99);
        let (s2, f2) = run(99);
        assert_eq!(s1.accepted, s2.accepted);
        assert_eq!(f1, f2);
        // A different seed gives a different trajectory (overwhelmingly).
        let (_, f3) = run(100);
        assert_ne!(f1, f3);
    }

    #[test]
    fn sweep_proposes_every_site_and_field_stays_pm1() {
        let builder = small_builder(4);
        let field = HsField::ones(4, 4);
        let mut sweeper = Sweeper::new(&builder, field, SweepConfig::default()).expect("healthy");
        let mut rng = ChaCha8Rng::seed_from_u64(14);
        let stats = sweeper
            .sweep(&mut rng, Parallelism::Serial)
            .expect("healthy");
        assert_eq!(stats.proposed, 4 * 4);
        assert!(stats.accepted <= stats.proposed);
        assert!((0.0..=1.0).contains(&stats.acceptance()));
        assert!(sweeper.field().to_flat().iter().all(|&x| x == 1 || x == -1));
        assert!(sweeper.sign().abs() == 1.0);
    }

    #[test]
    fn wrap_drift_over_a_whole_sweep_is_small() {
        // stabilize_every = L: no refresh after the sweep-start one, so
        // the final Ĝ(L−1) carries L−1 wraps and every rank-1 update.
        let builder = small_builder(8);
        let mut rng = ChaCha8Rng::seed_from_u64(15);
        let field = HsField::random(8, 4, &mut rng);
        let cfg = SweepConfig {
            c: 4,
            stabilize_every: 8,
            ..SweepConfig::default()
        };
        let mut sweeper = Sweeper::new(&builder, field, cfg).expect("healthy");
        sweeper
            .sweep(&mut rng, Parallelism::Serial)
            .expect("healthy");
        let wrapped = greens(&sweeper);
        sweeper.refresh(7, Parallelism::Serial).expect("healthy");
        for (w, fresh) in wrapped.iter().zip(&greens(&sweeper)) {
            let drift = w
                .as_slice()
                .iter()
                .zip(fresh.as_slice())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            assert!(drift < 1e-8, "wrap drift should be tiny at β=2: {drift}");
        }
    }

    /// On one even (one-channel) and one odd (two-channel) lattice.
    #[test]
    fn delayed_sweep_matches_immediate_sweep() {
        for lattice in [SquareLattice::square(2), SquareLattice::new(3, 2)] {
            let n = lattice.n_sites();
            let builder = builder_on(lattice, 8);
            let mut rng = ChaCha8Rng::seed_from_u64(16);
            let field = HsField::random(8, n, &mut rng);
            let run = |delay: usize| {
                let cfg = SweepConfig {
                    delay,
                    ..SweepConfig::default()
                };
                let mut s = Sweeper::new(&builder, field.clone(), cfg).expect("healthy");
                let mut rng = ChaCha8Rng::seed_from_u64(500);
                let stats = s.sweep(&mut rng, Parallelism::Serial).expect("healthy");
                (stats.accepted, s.field().to_flat(), greens(&s))
            };
            let (acc1, field1, g1) = run(1);
            for delay in [2usize, 4, 16] {
                let (acc_d, field_d, g_d) = run(delay);
                assert_eq!(acc1, acc_d, "{n} sites, delay={delay}: acceptance count");
                assert_eq!(field1, field_d, "{n} sites, delay={delay}: trajectory");
                for (spin, (a, b)) in Spin::BOTH.iter().zip(g1.iter().zip(&g_d)) {
                    let err = rel_error(a, b);
                    assert!(
                        err < 1e-9,
                        "{n} sites, delay={delay}, {spin:?}: G drift {err}"
                    );
                }
            }
        }
    }

    #[test]
    fn half_filling_free_fermions_density() {
        // U = 0: Ĝ is field-independent; ⟨n⟩ = 1 − tr G / N = 1/2 exactly
        // at half filling by particle-hole symmetry of e^{tΔτK}.
        let builder = BlockBuilder::new(
            SquareLattice::square(2),
            HubbardParams {
                t: 1.0,
                u: 0.0,
                beta: 2.0,
                l: 8,
            },
        );
        let field = HsField::ones(8, 4);
        let sweeper = Sweeper::new(&builder, field, SweepConfig::default()).expect("healthy");
        let g = sweeper.green(Spin::Up);
        let trace: f64 = (0..4).map(|i| g[(i, i)]).sum();
        let density = 1.0 - trace / 4.0;
        assert!(
            (density - 0.5).abs() < 1e-10,
            "free-fermion half filling: {density}"
        );
    }
}
