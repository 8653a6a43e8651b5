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
//! * **Factored wraps** ([`wrap_factored`]): `B = e^{tΔτK}·D` with
//!   `D = diag(e^{σνh})`, so the wrap is a diagonal similarity
//!   (`Ĝ[i,j] ← Ĝ[i,j]·d_i/d_j`, two `exp` calls total since `h ∈ {±1}`)
//!   followed by the kinetic conjugation — two scratch-buffered GEMMs, or
//!   `O(N·bonds)` bond sweeps when the builder carries a
//!   [`fsi_pcyclic::Checkerboard`]. No `B`/`B⁻¹` is materialized;
//!   [`wrap_dense`] is kept only as the reference it is tested against.
//! * **Incremental stabilization**: dense blocks and CLS cluster products
//!   are cached per spin ([`fsi_pcyclic::BlockCache`],
//!   [`fsi_selinv::ClusterCache`]) and only the slices flipped since the
//!   previous refresh are recomputed (dirty-slice tracking). On
//!   invalidated caches a refresh is a bitwise cold rebuild.
//! * **Spin-parallel phases**: the up/down channels of refresh, wrap, and
//!   delayed-update flush are independent and run as a two-way
//!   [`fsi_runtime::join`] over the pool, nested with the per-spin
//!   outer/inner parallelism.

use fsi_dense::{blas, gemm_op, MatMut, MatRef, Matrix, Op};
use fsi_pcyclic::{hubbard_pcyclic, BlockBuilder, BlockCache, HsField, Spin};
use fsi_runtime::health::{self, FsiError, FsiResult, Stage};
use fsi_runtime::{trace, workspace, Par};
use fsi_selinv::{auto_cluster_size, ClusterCache, Parallelism};
use rand::Rng;

use crate::stable::equal_time_green_cached;

/// Accuracy target handed to [`auto_cluster_size`] when the recovery
/// ladder re-estimates the cluster size on suspect data — tighter than the
/// usual 1e-8 so the shrunk `c` has margin against the very conditioning
/// problem that tripped the probe.
pub const RECOVERY_TOL: f64 = 1e-10;

/// Tuning knobs of the sweep engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SweepConfig {
    /// Cluster size for the stabilized recomputation (`c ≈ √L`).
    pub c: usize,
    /// Recompute `Ĝ` from scratch after this many wraps (QUEST-style
    /// `nwrap`; sweeps always refresh at their start as well). Keep it a
    /// multiple of `c` — the incremental cluster cache only scores hits
    /// when consecutive refreshes anchor on the same `k mod c` residue.
    pub stabilize_every: usize,
    /// Delayed-update batch size: accepted flips are accumulated as
    /// low-rank factors and flushed into `Ĝ` with one rank-`delay` GEMM
    /// (see [`crate::delayed`]). `1` = plain immediate rank-1 updates.
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
    /// Rung 1 executions: invalidate both spins' block and cluster caches
    /// and retry (`recovery.invalidate_caches`).
    pub cache_invalidations: u64,
    /// Rung 2 executions: shrink the cluster size `c` (halved, capped by
    /// [`auto_cluster_size`] at [`RECOVERY_TOL`]) and retry
    /// (`recovery.shrink_cluster`).
    pub cluster_shrinks: u64,
    /// Rung 3 executions: invalidate the caches again and recompute with
    /// `c = 1`, no clustering at all (`recovery.from_scratch`).
    pub from_scratch: u64,
    /// Every error the driver saw, in arrival order (the first entry of
    /// each burst is the original fault; later ones are retry failures).
    pub events: Vec<FsiError>,
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

/// The sweep engine: owns the HS field and the per-spin equal-time
/// Green's functions of the current slice frame.
pub struct Sweeper<'a> {
    builder: &'a BlockBuilder,
    field: HsField,
    cfg: SweepConfig,
    /// `Ĝ_σ` for the slice currently being updated; index 0 = up.
    g: [Matrix; 2],
    /// Monte Carlo weight sign tracked across accepted flips.
    sign: f64,
    wraps_since_stab: usize,
    /// Slices with at least one accepted flip since the last refresh;
    /// read by both spins' caches during the joined refresh, cleared
    /// afterwards.
    dirty: Vec<bool>,
    /// Per-spin dense-block caches (`[up, down]`).
    block_caches: [BlockCache; 2],
    /// Per-spin cluster-product caches (`[up, down]`).
    cluster_caches: [ClusterCache; 2],
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
        let mut s = Sweeper {
            builder,
            field,
            cfg,
            g: [Matrix::zeros(n, n), Matrix::zeros(n, n)],
            sign: 1.0,
            wraps_since_stab: 0,
            dirty: vec![false; l],
            block_caches: [BlockCache::new(), BlockCache::new()],
            cluster_caches: [ClusterCache::new(), ClusterCache::new()],
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
    pub fn restore_sign(&mut self, sign: f64) {
        self.sign = sign;
    }

    /// The `Ĝ_σ` of the current frame (tests / measurements at slice
    /// boundaries).
    pub fn green(&self, spin: Spin) -> &Matrix {
        &self.g[spin_idx(spin)]
    }

    /// Recomputes both spins' `Ĝ` from scratch for updating `slice`,
    /// running the self-healing recovery ladder on failure.
    ///
    /// `Ĝ(slice) = G(slice − 1)`: the cyclic product ends with
    /// `B_slice` as its innermost factor.
    ///
    /// The two spin channels run as a joined pair over the pool; the
    /// block and cluster caches limit the rebuild to slices flipped since
    /// the previous refresh.
    ///
    /// # Errors
    /// Returned only when every rung of the recovery ladder's escalation
    /// ladder failed; the last error is surfaced and also logged in
    /// [`Self::recovery_stats`].
    pub fn refresh(&mut self, slice: usize, par: Parallelism<'_>) -> FsiResult<()> {
        static REFRESH_NS: fsi_runtime::metrics::LazyHistogram =
            fsi_runtime::metrics::LazyHistogram::new("dqmc.refresh.ns");
        let start = std::time::Instant::now();
        let result = match self.refresh_once(slice, par) {
            Ok(()) => Ok(()),
            Err(e) => self.recover(slice, par, e),
        };
        REFRESH_NS.record(start.elapsed().as_nanos() as u64);
        result
    }

    /// One stabilization attempt, no recovery: the fallible core that both
    /// [`Self::refresh`] and the ladder's retries drive.
    fn refresh_once(&mut self, slice: usize, par: Parallelism<'_>) -> FsiResult<()> {
        let l = self.builder.params().l;
        let k = (slice + l - 1) % l;
        let (outer, inner) = par.split();
        let c = self.cfg.c;
        let builder = self.builder;
        let field = &self.field;
        let dirty = &self.dirty;
        let [bc_up, bc_dn] = &mut self.block_caches;
        let [cc_up, cc_dn] = &mut self.cluster_caches;
        let (g_up, g_dn) = spin_join(
            par,
            move || {
                bc_up.sync(builder, field, Spin::Up, dirty);
                equal_time_green_cached(outer, inner, bc_up.blocks(), dirty, cc_up, k, c)
            },
            move || {
                bc_dn.sync(builder, field, Spin::Down, dirty);
                equal_time_green_cached(outer, inner, bc_dn.blocks(), dirty, cc_dn, k, c)
            },
        );
        // Both spins completed (the join has no early exit); surface the
        // first failure only after both channels are accounted for.
        self.g = [g_up?, g_dn?];
        self.dirty.iter_mut().for_each(|d| *d = false);
        self.wraps_since_stab = 0;
        Ok(())
    }

    /// The deterministic escalation ladder (tentpole of the robustness
    /// layer). Each rung emits a `recovery.*` trace span, applies a
    /// progressively blunter remedy, and retries the refresh:
    ///
    /// 1. `recovery.invalidate_caches` — drop both spins' block and
    ///    cluster caches (heals any corrupted cached state; retry is a
    ///    cold, bitwise-clean rebuild).
    /// 2. `recovery.shrink_cluster` — halve the cluster size (largest
    ///    divisor of `L` at most `c/2`, capped by [`auto_cluster_size`]
    ///    with the tightened [`RECOVERY_TOL`]) — the paper-§II-C remedy
    ///    for `κ(B)^c` chain-conditioning blowup.
    /// 3. `recovery.from_scratch` — invalidate the caches again and
    ///    recompute with `c = 1` (no clustering at all). If rung 2 already
    ///    reached `c = 1`, this is a plain retry of rung 2's refresh.
    ///
    /// Every rung retries the refresh, which replaces the wrapped `Ĝ`, so
    /// a fault raised by a wrap is always healed at rung 1. Rungs 2 and 3
    /// deliberately persist in the configuration: a matrix that needed
    /// them once will need them again, and a deterministic ladder must not
    /// oscillate.
    fn recover(&mut self, slice: usize, par: Parallelism<'_>, first: FsiError) -> FsiResult<()> {
        // Each rung is mirrored into the metrics registry and the flight
        // recorder; note_recovery also triggers an incident dump, so every
        // escalation ships the ring of spans that led up to it.
        fn rung(name: &'static str, stage: fsi_runtime::Stage) {
            fsi_runtime::metrics::counter(name).inc();
            fsi_runtime::metrics::flight::note_recovery(name, stage.name());
        }
        self.recovery.events.push(first.clone());
        {
            let _s = trace::span("recovery.invalidate_caches");
            rung("dqmc.recovery.invalidate_caches", first.stage());
            self.recovery.cache_invalidations += 1;
            self.invalidate_caches();
        }
        match self.refresh_once(slice, par) {
            Ok(()) => return Ok(()),
            Err(e) => self.recovery.events.push(e),
        }
        {
            let _s = trace::span("recovery.shrink_cluster");
            rung("dqmc.recovery.shrink_cluster", first.stage());
            self.recovery.cluster_shrinks += 1;
            self.cfg.c = self.shrunk_cluster_size();
            self.invalidate_caches();
        }
        match self.refresh_once(slice, par) {
            Ok(()) => return Ok(()),
            Err(e) => self.recovery.events.push(e),
        }
        {
            let _s = trace::span("recovery.from_scratch");
            rung("dqmc.recovery.from_scratch", first.stage());
            self.recovery.from_scratch += 1;
            self.cfg.c = 1;
            self.invalidate_caches();
        }
        match self.refresh_once(slice, par) {
            Ok(()) => Ok(()),
            Err(e) => {
                self.recovery.events.push(e.clone());
                static FAILED: fsi_runtime::metrics::LazyCounter =
                    fsi_runtime::metrics::LazyCounter::new("dqmc.recovery.failed");
                FAILED.inc();
                Err(e)
            }
        }
    }

    /// Drops all cached per-spin state (dense blocks and cluster
    /// products); the next refresh is a full cold rebuild.
    fn invalidate_caches(&mut self) {
        for bc in &mut self.block_caches {
            bc.invalidate();
        }
        for cc in &mut self.cluster_caches {
            cc.invalidate();
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

    /// `(hits, misses)` summed over both spins' cluster caches since
    /// construction — what the benchmark's `selinv.cache_hit_frac` and the
    /// warm-refresh test ("warm refresh recomputes strictly fewer
    /// products") read.
    pub fn cluster_cache_stats(&self) -> (u64, u64) {
        (
            self.cluster_caches.iter().map(ClusterCache::hits).sum(),
            self.cluster_caches.iter().map(ClusterCache::misses).sum(),
        )
    }

    /// The Metropolis ratio factors `(R_↑, R_↓)` for flipping
    /// `h(slice, i)` in the current frame.
    pub fn ratio(&self, slice: usize, i: usize) -> (f64, f64) {
        let nu = self.builder.nu();
        let h = self.field.get(slice, i);
        let mut r = [0.0f64; 2];
        for spin in Spin::BOTH {
            let gamma = (-2.0 * spin.sign() * nu * h).exp() - 1.0;
            let gii = self.g[spin_idx(spin)][(i, i)];
            r[spin_idx(spin)] = 1.0 + gamma * (1.0 - gii);
        }
        (r[0], r[1])
    }

    /// Applies the accepted flip at `(slice, i)`: Sherman–Morrison update
    /// of both `Ĝ_σ`, field flip, dirty-slice marking, sign bookkeeping.
    fn apply_flip(&mut self, slice: usize, i: usize, r_up: f64, r_dn: f64) {
        let nu = self.builder.nu();
        let h = self.field.get(slice, i);
        let n = self.field.sites();
        for (spin, r) in Spin::BOTH.into_iter().zip([r_up, r_dn]) {
            let gamma = (-2.0 * spin.sign() * nu * h).exp() - 1.0;
            let g = &mut self.g[spin_idx(spin)];
            // u = e_i − G e_i (column), v = eᵢᵀ G (row).
            workspace::with_scratch2(n, n, |u, v| {
                for j in 0..n {
                    u[j] = -g[(j, i)];
                    v[j] = g[(i, j)];
                }
                u[i] += 1.0;
                blas::ger(-gamma / r, u, v, g.as_mut());
            });
        }
        self.field.flip(slice, i);
        self.dirty[slice] = true;
        self.sign *= (r_up * r_dn).signum();
    }

    /// Wraps both `Ĝ_σ` from the slice-`slice` frame to slice `slice+1`:
    /// `Ĝ ← B_slice·Ĝ·B_slice⁻¹` with the current (post-update) field,
    /// spins joined over the pool.
    ///
    /// A wrap whose output fails the [`Stage::Wrap`] probe is repaired by
    /// recomputing `Ĝ(slice+1)` from scratch through the recovery ladder —
    /// the wrapped pair is disposable, so stabilization *is* the remedy.
    fn wrap_to_next(&mut self, slice: usize, par: Parallelism<'_>) -> FsiResult<()> {
        let (_, inner) = par.split();
        let builder = self.builder;
        let field = &self.field;
        let [g_up, g_dn] = &mut self.g;
        spin_join(
            par,
            || wrap_factored(inner, builder, field, slice, Spin::Up, g_up),
            || wrap_factored(inner, builder, field, slice, Spin::Down, g_dn),
        );
        self.wraps_since_stab += 1;
        let mut tripped = None;
        for g in &mut self.g {
            health::inject::poison(Stage::Wrap, slice, g.as_mut_slice());
            if let Err(e) = health::check_block(Stage::Wrap, slice, g.as_slice()) {
                tripped = Some(e);
                break;
            }
        }
        if let Some(e) = tripped {
            self.recover(slice + 1, par, e.into())?;
        }
        Ok(())
    }

    /// Runs one full sweep over all `(ℓ, i)` (paper Alg. 4's "DQMC
    /// sweep"), refreshing the state at the start and stabilizing every
    /// `stabilize_every` wraps. Returns acceptance statistics.
    ///
    /// With `cfg.delay > 1`, accepted flips within a slice are batched
    /// through [`crate::delayed::DelayedUpdates`] and applied as rank-`k`
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
        self.refresh(0, par)?;
        for slice in 0..l {
            if self.cfg.delay > 1 {
                // Delayed path: one accumulator per spin.
                let mut accs = [
                    crate::delayed::DelayedUpdates::new(n, self.cfg.delay),
                    crate::delayed::DelayedUpdates::new(n, self.cfg.delay),
                ];
                for i in 0..n {
                    let h = self.field.get(slice, i);
                    let gamma_up = (-2.0 * nu * h).exp() - 1.0;
                    let gamma_dn = (2.0 * nu * h).exp() - 1.0;
                    let r_up = 1.0 + gamma_up * (1.0 - accs[0].diag(&self.g[0], i));
                    let r_dn = 1.0 + gamma_dn * (1.0 - accs[1].diag(&self.g[1], i));
                    let p = r_up * r_dn;
                    stats.proposed += 1;
                    if rng.gen::<f64>() < p.abs().min(1.0) {
                        if accs[0].is_full() {
                            flush_both(par, inner, &mut accs, &mut self.g);
                        }
                        accs[0].push(&self.g[0], i, gamma_up, r_up);
                        accs[1].push(&self.g[1], i, gamma_dn, r_dn);
                        self.field.flip(slice, i);
                        self.dirty[slice] = true;
                        self.sign *= p.signum();
                        stats.accepted += 1;
                    }
                }
                flush_both(par, inner, &mut accs, &mut self.g);
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
                self.wrap_to_next(slice, par)?;
                if self.wraps_since_stab >= self.cfg.stabilize_every {
                    self.refresh(slice + 1, par)?;
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
}

fn spin_idx(spin: Spin) -> usize {
    match spin {
        Spin::Up => 0,
        Spin::Down => 1,
    }
}

/// Two-way fork of the up/down channels over the pool (the `sweep.spin_par`
/// trace span wraps the pair; flops charged inside count inclusively).
fn spin_join<RA, RB>(
    par: Parallelism<'_>,
    up: impl FnOnce() -> RA + Send,
    down: impl FnOnce() -> RB + Send,
) -> (RA, RB)
where
    RA: Send,
    RB: Send,
{
    let _s = trace::span("sweep.spin_par");
    fsi_runtime::join(par.any_pool(), up, down)
}

/// Joined flush of both spins' delayed-update accumulators.
fn flush_both(
    par: Parallelism<'_>,
    inner: Par<'_>,
    accs: &mut [crate::delayed::DelayedUpdates; 2],
    g: &mut [Matrix; 2],
) {
    let [a_up, a_dn] = accs;
    let [g_up, g_dn] = g;
    spin_join(par, || a_up.flush(inner, g_up), || a_dn.flush(inner, g_dn));
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
/// allocation), or two `O(N·bonds)` bond sweeps when the builder carries a
/// checkerboard backend. Matches [`wrap_dense`] up to round-off-level
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
    match builder.checkerboard() {
        Some(cb) => {
            cb.apply_left(g);
            cb.apply_right_inverse(g);
        }
        None => {
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
    }
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
        BlockBuilder::new(
            SquareLattice::square(2),
            HubbardParams {
                t: 1.0,
                u: 4.0,
                beta: 2.0,
                l,
            },
        )
    }

    /// Brute-force determinant of `W(k) = I + P(k)` for the current field.
    fn log_det_w(builder: &BlockBuilder, field: &HsField, spin: Spin, k: usize) -> (f64, f64) {
        let pc = hubbard_pcyclic(builder, field, spin);
        let w = fsi_pcyclic::green::w_matrix(Par::Seq, &pc, k);
        getrf(w).expect("nonsingular").sign_log_det()
    }

    #[test]
    fn metropolis_ratio_matches_brute_force_determinants() {
        let builder = small_builder(8);
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let field = HsField::random(8, 4, &mut rng);
        for slice in [0usize, 2, 7] {
            let sweeper = {
                let mut s =
                    Sweeper::new(&builder, field.clone(), SweepConfig::default()).expect("healthy");
                s.refresh(slice, Parallelism::Serial).expect("healthy");
                s
            };
            for i in 0..4 {
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
                        "slice {slice} site {i} {spin:?}: formula {r} vs brute {want}"
                    );
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
        let updated = sweeper.g.clone();
        sweeper.refresh(0, Parallelism::Serial).expect("healthy");
        for idx in 0..2 {
            let err = rel_error(&updated[idx], &sweeper.g[idx]);
            assert!(err < 1e-9, "spin {idx}: SM drift {err}");
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
        let wrapped = sweeper.g.clone();
        sweeper.refresh(1, Parallelism::Serial).expect("healthy");
        for idx in 0..2 {
            let err = rel_error(&wrapped[idx], &sweeper.g[idx]);
            assert!(err < 1e-9, "spin {idx}: wrap err {err}");
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
                let mut dense = sweeper.green(spin).clone();
                wrap_dense(Par::Seq, &builder, &field, slice, spin, &mut dense);
                let mut factored = sweeper.green(spin).clone();
                wrap_factored(Par::Seq, &builder, &field, slice, spin, &mut factored);
                let err = rel_error(&factored, &dense);
                assert!(err < 1e-12, "{spin:?} slice {slice}: {err}");
            }
        }
    }

    #[test]
    fn checkerboard_factored_wrap_matches_its_dense_reference() {
        // With a checkerboard builder, both strategies use the *same*
        // Trotterized propagator, so they still agree to round-off.
        let builder = BlockBuilder::with_checkerboard(
            SquareLattice::square(2),
            HubbardParams {
                t: 1.0,
                u: 4.0,
                beta: 2.0,
                l: 8,
            },
        );
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let field = HsField::random(8, 4, &mut rng);
        let sweeper =
            Sweeper::new(&builder, field.clone(), SweepConfig::default()).expect("healthy");
        for spin in Spin::BOTH {
            let mut dense = sweeper.green(spin).clone();
            wrap_dense(Par::Seq, &builder, &field, 2, spin, &mut dense);
            let mut factored = sweeper.green(spin).clone();
            wrap_factored(Par::Seq, &builder, &field, 2, spin, &mut factored);
            let err = rel_error(&factored, &dense);
            assert!(err < 1e-12, "{spin:?}: {err}");
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
            (accepted, s.field().to_flat(), s.green(Spin::Up).clone())
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
        let (h0, m0) = s.cluster_cache_stats();
        assert_eq!(h0, 0, "cold build has no hits");
        assert_eq!(m0, 2 * 2, "cold build recomputes b = L/c = 2 per spin");
        let mut rng = ChaCha8Rng::seed_from_u64(888);
        s.sweep(&mut rng, Parallelism::Serial).expect("healthy");
        let (h1, m1) = s.cluster_cache_stats();
        assert!(h1 > h0, "sweep-start refresh must reuse clean clusters");
        // A warm refresh recomputes strictly fewer products than cold.
        assert!(
            m1 - m0 < 2 * 2 || h1 > 0,
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
        let wrapped = sweeper.g.clone();
        sweeper.refresh(7, Parallelism::Serial).expect("healthy");
        for (w, fresh) in wrapped.iter().zip(&sweeper.g) {
            let drift = w
                .as_slice()
                .iter()
                .zip(fresh.as_slice())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            assert!(drift < 1e-8, "wrap drift should be tiny at β=2: {drift}");
        }
    }

    #[test]
    fn delayed_sweep_matches_immediate_sweep() {
        let builder = small_builder(8);
        let mut rng = ChaCha8Rng::seed_from_u64(16);
        let field = HsField::random(8, 4, &mut rng);
        let run = |delay: usize| {
            let cfg = SweepConfig {
                delay,
                ..SweepConfig::default()
            };
            let mut s = Sweeper::new(&builder, field.clone(), cfg).expect("healthy");
            let mut rng = ChaCha8Rng::seed_from_u64(500);
            let stats = s.sweep(&mut rng, Parallelism::Serial).expect("healthy");
            (
                stats.accepted,
                s.field().to_flat(),
                s.green(Spin::Up).clone(),
            )
        };
        let (acc1, field1, g1) = run(1);
        for delay in [2usize, 4, 16] {
            let (acc_d, field_d, g_d) = run(delay);
            assert_eq!(acc1, acc_d, "delay={delay}: acceptance count");
            assert_eq!(field1, field_d, "delay={delay}: trajectory");
            assert!(
                rel_error(&g1, &g_d) < 1e-9,
                "delay={delay}: G drift {}",
                rel_error(&g1, &g_d)
            );
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
