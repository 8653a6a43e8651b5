//! Physical measurements (paper §IV).
//!
//! Two classes, as in QUEST:
//!
//! * **Equal-time** — need only diagonal blocks `G_σ(ℓ, ℓ)`: densities,
//!   double occupancy, local moment, kinetic energy, and the equal-time
//!   spin-spin correlation vs displacement class.
//! * **Time-dependent** — need off-diagonal blocks; the paper's example
//!   is SPXX, the XY spin-spin correlation, an `L × d_max` table built
//!   from *block rows and columns* of both spins' Green's functions. This
//!   is exactly why FSI's row/column patterns matter: the `(τ, d)` entry
//!   sums element-wise products `G↑(k,ℓ)[i,j]·G↓(ℓ,k)[j,i] + (↑↔↓)` over
//!   all block pairs at temporal distance `τ = T(k,ℓ)` and site pairs at
//!   spatial class `d = D(i,j)`.
//!
//! # How the sums are evaluated
//!
//! This is O(N²) work per block beside the O(N³) per block of the
//! inversion that produced it, so it is laid out to run at the speed the
//! blocks can be read:
//!
//! * every site-pair product has one factor read as `G(j, i)` and one
//!   read as `G(i, j)`; `add_crossed_products` forms them 8×8 tile by
//!   tile, transposing the `G(j, i)` tiles on the stack, so that every
//!   pass over a block runs along its columns;
//! * the class of a site pair comes from the lattice's table
//!   ([`SquareLattice::dist_class_table`]), and products are accumulated
//!   element-wise first and reduced by class once — per slice for the
//!   equal-time correlation, per `τ` for SPXX;
//! * SPXX visits each *unordered* block pair once: `D(i,j) = D(j,i)` makes
//!   the products of `(ℓ, k)` the element-wise transpose of those of
//!   `(k, ℓ)`, so both have the same class sums and rows `τ` and `L − τ`
//!   of the table are equal;
//! * SPXX runs one task per `τ ∈ 0..=L/2` (the paper's §III-B per-thread
//!   `local_measurement_quantities`, with a row of the table as the
//!   quantity). A row is summed by one task in a fixed order, so the table
//!   does not depend on the [`Par`] it was computed under.
//!
//! The element-by-element definitions these kernels must reproduce are
//! kept as the test oracle (`reference`, test builds only).
//!
//! (The paper's printed SPXX formula is partially garbled by OCR; the
//! reconstruction here keeps its documented structure — crossed-spin
//! products of `(k,ℓ)` and `(ℓ,k)` block entries, normalized by the
//! number of contributing block pairs `C(τ)` and the displacement class
//! sizes. DESIGN.md records this substitution.)

use fsi_dense::Matrix;
use fsi_pcyclic::{temporal_distance, SquareLattice};
use fsi_runtime::{parallel_map, Par, Schedule};
use fsi_selinv::SelectedInverse;

/// Equal-time scalar observables from one slice's Green's functions.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EqualTime {
    /// `⟨n_↑⟩` averaged over sites.
    pub density_up: f64,
    /// `⟨n_↓⟩` averaged over sites.
    pub density_down: f64,
    /// `⟨n_↑ n_↓⟩` averaged over sites.
    pub double_occupancy: f64,
    /// Local moment `⟨m²⟩ = ⟨n_↑⟩ + ⟨n_↓⟩ − 2⟨n_↑n_↓⟩`.
    pub moment: f64,
    /// Kinetic energy per site, `−t Σ_{⟨ij⟩σ}⟨c†_{iσ}c_{jσ} + h.c.⟩ / N`.
    pub kinetic: f64,
}

/// The column-major storage of an `n × n` Green's-function block.
///
/// # Panics
/// Panics if the block has another shape.
fn block_slice(g: &Matrix, n: usize) -> &[f64] {
    assert_eq!((g.rows(), g.cols()), (n, n), "block size mismatch");
    g.as_slice()
}

/// `sum += aᵀ∘b + cᵀ∘d` (`∘` element-wise) for column-major `n × n`
/// matrices, `[a, b, c, d]` in that order — the one shape every site-pair
/// product of this module has: a factor read as `G(j, i)` times one read
/// as `G(i, j)`, for both spins. Works tile by tile, transposing the
/// tiles of `a` and `c` on the stack, so that every pass over memory runs
/// along columns.
fn add_crossed_products(sum: &mut [f64], n: usize, [a, b, c, d]: [&[f64]; 4]) {
    /// A tile of each of the five matrices is 8 cache lines.
    const TILE: usize = 8;
    assert_eq!(sum.len(), n * n);
    for m in [a, b, c, d] {
        assert_eq!(m.len(), n * n);
    }
    for j0 in (0..n).step_by(TILE) {
        let w = (n - j0).min(TILE);
        for i0 in (0..n).step_by(TILE) {
            let h = (n - i0).min(TILE);
            // The `w × h` tiles of `a` and `c` at `(j0, i0)`, transposed.
            let mut ta = [[0.0f64; TILE]; TILE];
            let mut tc = [[0.0f64; TILE]; TILE];
            for ii in 0..h {
                let at = (i0 + ii) * n + j0;
                for (jj, (&x, &y)) in a[at..at + w].iter().zip(&c[at..at + w]).enumerate() {
                    ta[jj][ii] = x;
                    tc[jj][ii] = y;
                }
            }
            // The `h × w` tile of `sum` at `(i0, j0)`, column by column.
            for jj in 0..w {
                let at = (j0 + jj) * n + i0;
                for ((((s, &x), &y), &p), &q) in sum[at..at + h]
                    .iter_mut()
                    .zip(&ta[jj])
                    .zip(&tc[jj])
                    .zip(&b[at..at + h])
                    .zip(&d[at..at + h])
                {
                    *s += x * p + y * q;
                }
            }
        }
    }
}

/// Computes the equal-time observables from the diagonal blocks
/// `G_↑(ℓ,ℓ)` and `G_↓(ℓ,ℓ)` (with `G_{ij} = ⟨c_i c_j†⟩`, so
/// `⟨n_i⟩ = 1 − G_ii` and `⟨c†_i c_j⟩ = δ_ij − G_{ji}`).
pub fn equal_time(lattice: &SquareLattice, t: f64, g_up: &Matrix, g_dn: &Matrix) -> EqualTime {
    let n = lattice.n_sites();
    let gu = block_slice(g_up, n);
    let gd = block_slice(g_dn, n);
    let mut up = 0.0;
    let mut dn = 0.0;
    let mut docc = 0.0;
    let mut kin = 0.0;
    for i in 0..n {
        let (col_up, col_dn) = (&gu[i * n..(i + 1) * n], &gd[i * n..(i + 1) * n]);
        let nu = 1.0 - col_up[i];
        let nd = 1.0 - col_dn[i];
        up += nu;
        dn += nd;
        // Within a fixed HS configuration the two spin species are
        // independent, so ⟨n↑n↓⟩ factorizes per configuration.
        docc += nu * nd;
        for &j in lattice.neighbor_slice(i) {
            // ⟨c†_i c_j⟩_σ = −G_σ(j, i) for i ≠ j; adjacency already
            // counts both directions.
            kin += -t * (-col_up[j] - col_dn[j]);
        }
    }
    let nf = n as f64;
    EqualTime {
        density_up: up / nf,
        density_down: dn / nf,
        double_occupancy: docc / nf,
        moment: (up + dn - 2.0 * docc) / nf,
        kinetic: kin / nf,
    }
}

/// Equal-time z-spin correlation `⟨S^z_i S^z_j⟩` per displacement class,
/// from one slice's diagonal blocks (Wick-decomposed per configuration).
///
/// With `Sᶻ = (n↑ − n↓)/2` and `mᵢ = n↑ᵢ − n↓ᵢ`, the entry of site pair
/// `(i, j)` is `¼·[mᵢmⱼ + Σ_σ G_σ(j,i)·(δᵢⱼ − G_σ(i,j))]`: the
/// disconnected part plus the same-spin exchange terms.
pub fn spin_zz_equal_time(lattice: &SquareLattice, g_up: &Matrix, g_dn: &Matrix) -> Vec<f64> {
    let n = lattice.n_sites();
    let gu = block_slice(g_up, n);
    let gd = block_slice(g_dn, n);
    let class = lattice.dist_class_table();
    let m: Vec<f64> = (0..n)
        .map(|i| (1.0 - gu[i + i * n]) - (1.0 - gd[i + i * n]))
        .collect();
    // v = m·mᵀ − (G↑ᵀ∘G↑ + G↓ᵀ∘G↓)
    let mut v = Matrix::zeros(n, n);
    add_crossed_products(v.as_mut_slice(), n, [gu, gu, gd, gd]);
    for (col, &mj) in v.as_mut_slice().chunks_exact_mut(n).zip(&m) {
        for (x, &mi) in col.iter_mut().zip(&m) {
            *x = mi * mj - *x;
        }
    }
    let mut acc = vec![0.0f64; lattice.n_dist_classes()];
    for (&d, &x) in class.iter().zip(v.as_slice()) {
        acc[usize::from(d)] += 0.25 * x;
    }
    // The δᵢⱼ·G_σ(i,i) terms; class 0 is the pairs with i = j.
    let trace: f64 = (0..n).map(|i| gu[i + i * n] + gd[i + i * n]).sum();
    acc[0] += 0.25 * trace;
    for (a, &cnt) in acc.iter_mut().zip(lattice.class_counts()) {
        *a /= cnt as f64;
    }
    acc
}

/// The SPXX table: `L × d_max`, entry `(τ, d)` is the XY spin-spin
/// correlation at temporal distance `τ` and displacement class `d`.
#[derive(Clone, Debug)]
pub struct SpxxTable {
    /// Row-major `L × d_max` data.
    data: Vec<f64>,
    /// Contributing block-pair count per row.
    counts: Vec<usize>,
    l: usize,
    dmax: usize,
}

impl SpxxTable {
    fn zeros(l: usize, dmax: usize) -> Self {
        SpxxTable {
            data: vec![0.0; l * dmax],
            counts: vec![0; l],
            l,
            dmax,
        }
    }

    /// Number of temporal rows `L`.
    pub fn l(&self) -> usize {
        self.l
    }

    /// Number of displacement classes `d_max`.
    pub fn dmax(&self) -> usize {
        self.dmax
    }

    /// Entry `(τ, d)`.
    pub fn at(&self, tau: usize, d: usize) -> f64 {
        self.data[tau * self.dmax + d]
    }

    /// The number of block pairs that contributed to row `τ`; 0 means the
    /// row is unavailable from this selection. On a table fresh from
    /// [`spxx`] this is the paper's `C(τ)`. [`Self::merge`] adds the
    /// counts and [`Self::scale`] leaves them alone, so on an accumulated
    /// table it is the total over all merged measurements, not their mean.
    pub fn count(&self, tau: usize) -> usize {
        self.counts[tau]
    }

    /// Adds another table (same shape) into this one — the accumulation
    /// across measurement sweeps.
    pub fn merge(&mut self, other: &SpxxTable) {
        assert_eq!((self.l, self.dmax), (other.l, other.dmax));
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    /// Scales all entries (e.g. by 1/measurements).
    pub fn scale(&mut self, f: f64) {
        for a in &mut self.data {
            *a *= f;
        }
    }

    /// Row `τ` (one entry per displacement class).
    pub(crate) fn row(&self, tau: usize) -> &[f64] {
        &self.data[tau * self.dmax..(tau + 1) * self.dmax]
    }

    /// A table from its row-major data and per-row counts (checkpoint
    /// restore).
    pub(crate) fn from_parts(l: usize, dmax: usize, data: Vec<f64>, counts: Vec<usize>) -> Self {
        assert_eq!((data.len(), counts.len()), (l * dmax, l), "SPXX shape");
        SpxxTable {
            data,
            counts,
            l,
            dmax,
        }
    }
}

/// The four blocks of one contributing block pair `{k, ℓ}` of [`spxx`],
/// `τ = T(k, ℓ) ≤ L/2`.
struct BlockPair<'a> {
    tau: usize,
    ell: usize,
    up_kl: &'a [f64],
    up_lk: &'a [f64],
    dn_kl: &'a [f64],
    dn_lk: &'a [f64],
}

/// The block pairs [`spxx`] reads, each unordered pair once, sorted by
/// `(τ, ℓ)` with `k = ℓ + τ mod L` — a deterministic order taken from the
/// selection's own coordinates rather than from probing all `L²` of them.
fn spxx_pairs<'a>(
    n: usize,
    l: usize,
    sel_up: &'a SelectedInverse,
    sel_dn: &'a SelectedInverse,
) -> Vec<BlockPair<'a>> {
    let mut pairs: Vec<BlockPair<'a>> = sel_up
        .iter()
        .filter_map(|(&(k, ell), up_kl)| {
            if k >= l || ell >= l {
                return None;
            }
            let tau = temporal_distance(k, ell, l);
            // The mirror (ℓ, k) sits at L − τ; at τ = L/2 both sit in the
            // same row, and the one with ℓ < k stands for the two.
            if 2 * tau > l || (2 * tau == l && k < ell) {
                return None;
            }
            Some(BlockPair {
                tau,
                ell,
                up_kl: block_slice(up_kl, n),
                up_lk: block_slice(sel_up.get(ell, k)?, n),
                dn_kl: block_slice(sel_dn.get(k, ell)?, n),
                dn_lk: block_slice(sel_dn.get(ell, k)?, n),
            })
        })
        .collect();
    pairs.sort_unstable_by_key(|p| (p.tau, p.ell));
    pairs
}

/// Computes the SPXX table from selected inversions of both spins.
///
/// A block pair `(k, ℓ)` contributes iff all four blocks
/// `G_σ(k,ℓ), G_σ(ℓ,k)` exist in the selections — with the paper's
/// "b rows + b columns" pattern that yields `C(τ) ≥ b` contributions for
/// *every* τ, which is the whole point of selecting rows and columns
/// simultaneously.
///
/// Per site pair, at `τ > 0` (the fermionic reordering
/// `⟨c†(τ)c(0)⟩ = −G(0,τ)` contributes the overall minus)
/// `⟨S⁺ᵢ(τ)S⁻ⱼ(0)⟩ = −G↑(ℓ,k)(j,i)·G↓(k,ℓ)(i,j)`, plus `↑↔↓`; at `τ = 0`
/// the equal-time Wick pairing `(δᵢⱼ − G↑(j,i))·G↓(i,j)`, plus `↑↔↓`.
/// Row `τ` sums these over the contributing pairs and the site pairs of
/// each class, divided by `2·C(τ)` and the class size.
///
/// The result is the same, bit for bit, under every `par`.
pub fn spxx(
    par: Par<'_>,
    lattice: &SquareLattice,
    l: usize,
    sel_up: &SelectedInverse,
    sel_dn: &SelectedInverse,
) -> SpxxTable {
    let n = lattice.n_sites();
    let dmax = lattice.n_dist_classes();
    let class = lattice.dist_class_table();
    let class_counts = lattice.class_counts();
    let pairs = spxx_pairs(n, l, sel_up, sel_dn);
    // One row per task; `None` where no pair contributes.
    let rows = parallel_map(par, l / 2 + 1, Schedule::Dynamic(1), |tau| {
        let lo = pairs.partition_point(|p| p.tau < tau);
        let hi = pairs.partition_point(|p| p.tau <= tau);
        let pairs = &pairs[lo..hi];
        if pairs.is_empty() {
            return None;
        }
        // S = Σ_pairs G↑(ℓ,k)ᵀ∘G↓(k,ℓ) + G↓(ℓ,k)ᵀ∘G↑(k,ℓ), element-wise.
        let mut sum = Matrix::zeros(n, n);
        for p in pairs {
            add_crossed_products(sum.as_mut_slice(), n, [p.up_lk, p.dn_kl, p.dn_lk, p.up_kl]);
        }
        let mut row = vec![0.0f64; dmax];
        for (&d, &s) in class.iter().zip(sum.as_slice()) {
            row[usize::from(d)] -= s;
        }
        if tau == 0 {
            // The δᵢⱼ terms of the equal-time pairing; class 0 is i = j.
            for p in pairs {
                row[0] += (0..n)
                    .map(|i| p.up_kl[i + i * n] + p.dn_kl[i + i * n])
                    .sum::<f64>();
            }
        }
        // Normalize: 1/(2C(τ)) per the paper, and per site pair in the
        // class. (At τ = L/2 each pair stands for two equal ones, which
        // cancels between the sum and C.)
        for (x, &cnt) in row.iter_mut().zip(class_counts) {
            *x /= 2.0 * pairs.len() as f64 * cnt as f64;
        }
        Some((pairs.len(), row))
    });
    let mut table = SpxxTable::zeros(l, dmax);
    for (tau, row) in rows.into_iter().enumerate() {
        let Some((pairs, row)) = row else { continue };
        let mirror = (l - tau) % l;
        // At τ = L/2 the row holds both orders of each pair.
        let ordered = if tau != 0 && tau == mirror {
            2 * pairs
        } else {
            pairs
        };
        table.counts[tau] = ordered;
        table.counts[mirror] = ordered;
        table.data[tau * dmax..(tau + 1) * dmax].copy_from_slice(&row);
        table.data[mirror * dmax..(mirror + 1) * dmax].copy_from_slice(&row);
    }
    table
}

/// Equal-time z-spin correlation resolved by the full signed
/// displacement `r = (dx, dy) ∈ [0, nx) × [0, ny)` (not folded into
/// minimum-image classes): `C(r) = (1/N)·Σ_i ⟨Sᶻᵢ·Sᶻ_{i+r}⟩`.
///
/// This is the input of the momentum-space structure factor; translation
/// invariance (restored by the Monte Carlo average) makes the single-`i`
/// sum sufficient. The test oracle for [`staggered_structure_factor`].
#[cfg(test)]
fn spin_zz_by_displacement(lattice: &SquareLattice, g_up: &Matrix, g_dn: &Matrix) -> Matrix {
    let n = lattice.n_sites();
    let (nx, ny) = (lattice.nx(), lattice.ny());
    let mut c = Matrix::zeros(nx, ny);
    for i in 0..n {
        let (xi, yi) = lattice.coords(i);
        for j in 0..n {
            let (xj, yj) = lattice.coords(j);
            let dx = (xj + nx - xi) % nx;
            let dy = (yj + ny - yi) % ny;
            let nui = 1.0 - g_up[(i, i)];
            let ndi = 1.0 - g_dn[(i, i)];
            let nuj = 1.0 - g_up[(j, j)];
            let ndj = 1.0 - g_dn[(j, j)];
            let mut v = (nui - ndi) * (nuj - ndj);
            v += g_up[(j, i)] * ((if i == j { 1.0 } else { 0.0 }) - g_up[(i, j)]);
            v += g_dn[(j, i)] * ((if i == j { 1.0 } else { 0.0 }) - g_dn[(i, j)]);
            c[(dx, dy)] += 0.25 * v / n as f64;
        }
    }
    c
}

/// Momentum-space spin structure factor over the whole Brillouin zone:
/// `S(q) = Σ_r C(r)·cos(q·r)` for `q = 2π(m/nx, n/ny)` — a real cosine
/// transform since `C(r) = C(−r)` up to Monte Carlo noise. Entry
/// `(m, n)` of the result is `S(q_mn)`; `(nx/2, ny/2)` is the
/// antiferromagnetic point `S(π, π)`.
#[cfg(test)]
fn structure_factor_q(c_of_r: &Matrix) -> Matrix {
    let (nx, ny) = (c_of_r.rows(), c_of_r.cols());
    Matrix::from_fn(nx, ny, |m, nq| {
        let qx = 2.0 * std::f64::consts::PI * m as f64 / nx as f64;
        let qy = 2.0 * std::f64::consts::PI * nq as f64 / ny as f64;
        let mut s = 0.0;
        for dx in 0..nx {
            for dy in 0..ny {
                s += c_of_r[(dx, dy)] * (qx * dx as f64 + qy * dy as f64).cos();
            }
        }
        s
    })
}

/// Antiferromagnetic (staggered) spin structure factor
/// `S(π,π) = (1/N)·Σ_{ij} (−1)^{i−j} ⟨Sᶻᵢ·Sᶻⱼ⟩`, computed from the
/// per-class equal-time correlations of [`spin_zz_equal_time`].
///
/// On bipartite lattices with even extents the parity `(−1)^{dx+dy}` is
/// well defined per displacement class. `S(π,π)` growing with `U` and
/// with `β` is the hallmark of antiferromagnetic correlations in the
/// half-filled Hubbard model — the physics the paper's measurement
/// pipeline exists to extract.
///
/// # Panics
/// Panics for odd lattice extents (staggering is ill-defined).
pub fn staggered_structure_factor(lattice: &SquareLattice, zz_per_class: &[f64]) -> f64 {
    assert!(
        lattice.nx().is_multiple_of(2) && lattice.ny().is_multiple_of(2),
        "staggered structure factor needs even extents"
    );
    assert_eq!(zz_per_class.len(), lattice.n_dist_classes());
    let w = lattice.nx() / 2 + 1;
    let mut s = 0.0;
    for (d, (&zz, &cnt)) in zz_per_class.iter().zip(lattice.class_counts()).enumerate() {
        let (dx, dy) = (d % w, d / w);
        let sign = if (dx + dy) % 2 == 0 { 1.0 } else { -1.0 };
        s += sign * zz * cnt as f64;
    }
    s / lattice.n_sites() as f64
}

/// Uniform XY magnetic susceptibility from the SPXX table:
/// `χ_xy = (Δτ/N)·Σ_τ Σ_{ij} ⟨S⁺ᵢ(τ)S⁻ⱼ(0) + h.c.⟩/2`, with the site
/// sums reconstructed from the per-class normalization.
///
/// This is the canonical *time-dependent* observable the paper's
/// rows+columns selection enables: it integrates the SPXX correlation
/// over imaginary time (the trapezoid degenerates to a plain sum on the
/// periodic τ torus).
pub fn uniform_xy_susceptibility(
    lattice: &SquareLattice,
    table: &SpxxTable,
    delta_tau: f64,
) -> f64 {
    let counts = lattice.class_counts();
    let mut total = 0.0;
    for tau in 0..table.l() {
        if table.count(tau) == 0 {
            continue;
        }
        for (d, &cnt) in counts.iter().enumerate() {
            total += table.at(tau, d) * cnt as f64;
        }
    }
    delta_tau * total / lattice.n_sites() as f64
}

/// Streaming mean/variance accumulator for scalar observables.
#[derive(Clone, Debug, Default)]
pub struct Accumulator {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Accumulator {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one sample (Welford update).
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Standard error of the mean (0 for < 2 samples).
    pub fn stderr(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        (self.m2 / (self.n - 1) as f64 / self.n as f64).sqrt()
    }

    /// The running state `(n, mean, m2)` (checkpoint save).
    pub(crate) fn parts(&self) -> (u64, f64, f64) {
        (self.n, self.mean, self.m2)
    }

    /// An accumulator from [`Self::parts`] (checkpoint restore).
    pub(crate) fn from_parts(n: u64, mean: f64, m2: f64) -> Self {
        Accumulator { n, mean, m2 }
    }
}

/// The element-by-element definitions of the three kernels above — the
/// oracle their property tests compare against.
#[cfg(test)]
mod reference {
    use super::*;

    pub(super) fn equal_time(
        lattice: &SquareLattice,
        t: f64,
        g_up: &Matrix,
        g_dn: &Matrix,
    ) -> EqualTime {
        let n = lattice.n_sites();
        let mut up = 0.0;
        let mut dn = 0.0;
        let mut docc = 0.0;
        let mut kin = 0.0;
        for i in 0..n {
            let nu = 1.0 - g_up[(i, i)];
            let nd = 1.0 - g_dn[(i, i)];
            up += nu;
            dn += nd;
            docc += nu * nd;
            for j in lattice.neighbors(i) {
                kin += -t * (-(g_up[(j, i)]) - g_dn[(j, i)]);
            }
        }
        let nf = n as f64;
        EqualTime {
            density_up: up / nf,
            density_down: dn / nf,
            double_occupancy: docc / nf,
            moment: (up + dn - 2.0 * docc) / nf,
            kinetic: kin / nf,
        }
    }

    /// Site pairs per class, recounted from `dist_class`.
    fn class_counts(lattice: &SquareLattice) -> Vec<usize> {
        let n = lattice.n_sites();
        let mut counts = vec![0usize; lattice.n_dist_classes()];
        for i in 0..n {
            for j in 0..n {
                counts[lattice.dist_class(i, j)] += 1;
            }
        }
        counts
    }

    pub(super) fn spin_zz_equal_time(
        lattice: &SquareLattice,
        g_up: &Matrix,
        g_dn: &Matrix,
    ) -> Vec<f64> {
        let n = lattice.n_sites();
        let mut acc = vec![0.0f64; lattice.n_dist_classes()];
        for i in 0..n {
            for j in 0..n {
                let d = lattice.dist_class(i, j);
                let delta = if i == j { 1.0 } else { 0.0 };
                let nui = 1.0 - g_up[(i, i)];
                let ndi = 1.0 - g_dn[(i, i)];
                let nuj = 1.0 - g_up[(j, j)];
                let ndj = 1.0 - g_dn[(j, j)];
                let mut v = (nui - ndi) * (nuj - ndj);
                v += g_up[(j, i)] * (delta - g_up[(i, j)]);
                v += g_dn[(j, i)] * (delta - g_dn[(i, j)]);
                acc[d] += 0.25 * v;
            }
        }
        for (a, &cnt) in acc.iter_mut().zip(&class_counts(lattice)) {
            *a /= cnt as f64;
        }
        acc
    }

    pub(super) fn spxx(
        lattice: &SquareLattice,
        l: usize,
        sel_up: &SelectedInverse,
        sel_dn: &SelectedInverse,
    ) -> SpxxTable {
        let n = lattice.n_sites();
        let dmax = lattice.n_dist_classes();
        let mut table = SpxxTable::zeros(l, dmax);
        for k in 0..l {
            for ell in 0..l {
                let (Some(up_kl), Some(up_lk), Some(dn_kl), Some(dn_lk)) = (
                    sel_up.get(k, ell),
                    sel_up.get(ell, k),
                    sel_dn.get(k, ell),
                    sel_dn.get(ell, k),
                ) else {
                    continue;
                };
                let tau = temporal_distance(k, ell, l);
                table.counts[tau] += 1;
                for i in 0..n {
                    for j in 0..n {
                        let x = &mut table.data[tau * dmax + lattice.dist_class(i, j)];
                        if tau == 0 {
                            let delta = if i == j { 1.0 } else { 0.0 };
                            *x += (delta - up_kl[(j, i)]) * dn_kl[(i, j)]
                                + (delta - dn_kl[(j, i)]) * up_kl[(i, j)];
                        } else {
                            *x -= up_lk[(j, i)] * dn_kl[(i, j)] + dn_lk[(j, i)] * up_kl[(i, j)];
                        }
                    }
                }
            }
        }
        let class_counts = class_counts(lattice);
        for tau in 0..l {
            let c = table.counts[tau];
            if c == 0 {
                continue;
            }
            for d in 0..dmax {
                table.data[tau * dmax + d] /= 2.0 * c as f64 * class_counts[d] as f64;
            }
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsi_pcyclic::{hubbard_pcyclic, BlockBuilder, HsField, HubbardParams, Spin};
    use fsi_selinv::{fsi_with_q, Parallelism, Pattern, Selection};
    use proptest::prelude::*;

    fn free_green(l_slices: usize) -> (SquareLattice, Matrix) {
        // U = 0 free fermions: G is field-independent and exactly
        // (I + e^{βtK})⁻¹.
        let lat = SquareLattice::square(2);
        let builder = BlockBuilder::new(
            lat.clone(),
            HubbardParams {
                t: 1.0,
                u: 0.0,
                beta: 2.0,
                l: l_slices,
            },
        );
        let field = HsField::ones(l_slices, 4);
        let pc = hubbard_pcyclic(&builder, &field, Spin::Up);
        let g = fsi_pcyclic::equal_time_green_explicit(&pc, 0);
        (lat, g)
    }

    #[test]
    fn free_fermion_half_filling() {
        let (lat, g) = free_green(8);
        let et = equal_time(&lat, 1.0, &g, &g);
        assert!((et.density_up - 0.5).abs() < 1e-10);
        assert!((et.density_down - 0.5).abs() < 1e-10);
        // Free fermions: ⟨n↑n↓⟩ = ⟨n↑⟩⟨n↓⟩ = 0.25.
        assert!((et.double_occupancy - 0.25).abs() < 1e-10);
        assert!((et.moment - 0.5).abs() < 1e-10);
        // Kinetic energy is negative (hopping lowers the energy).
        assert!(et.kinetic < 0.0, "kinetic {}", et.kinetic);
    }

    #[test]
    fn spin_zz_self_class_equals_quarter_moment() {
        let (lat, g) = free_green(8);
        let zz = spin_zz_equal_time(&lat, &g, &g);
        let et = equal_time(&lat, 1.0, &g, &g);
        // d = 0 class: ⟨(Sᶻᵢ)²⟩ = ⟨m²⟩/4.
        assert!(
            (zz[0] - et.moment / 4.0).abs() < 1e-10,
            "zz[0] = {} vs m²/4 = {}",
            zz[0],
            et.moment / 4.0
        );
    }

    #[test]
    fn structure_factor_q_consistent_with_staggered() {
        // S(π,π) via the full-BZ cosine transform must equal the
        // class-based staggered sum.
        let (lat, g) = free_green(8);
        let c_r = spin_zz_by_displacement(&lat, &g, &g);
        let s_q = structure_factor_q(&c_r);
        let zz = spin_zz_equal_time(&lat, &g, &g);
        let s_stag = staggered_structure_factor(&lat, &zz);
        let s_pipi = s_q[(lat.nx() / 2, lat.ny() / 2)];
        assert!(
            (s_pipi - s_stag).abs() < 1e-10,
            "S(pi,pi): transform {s_pipi} vs staggered {s_stag}"
        );
        // q = 0 entry is the total-spin fluctuation: non-negative.
        assert!(s_q[(0, 0)] > -1e-12);
    }

    #[test]
    fn staggered_factor_detects_alternating_pattern() {
        let lat = SquareLattice::square(4);
        let classes = lat.n_dist_classes();
        let w = lat.nx() / 2 + 1;
        // A perfectly staggered correlation: zz = +1 on even-parity
        // classes, −1 on odd ones → S(π,π) = Σ counts / N = N.
        let zz: Vec<f64> = (0..classes)
            .map(|d| {
                if (d % w + d / w).is_multiple_of(2) {
                    1.0
                } else {
                    -1.0
                }
            })
            .collect();
        let s = staggered_structure_factor(&lat, &zz);
        assert!((s - lat.n_sites() as f64).abs() < 1e-12, "S = {s}");
        // A perfectly uniform correlation has S(π,π) = 0 on a balanced
        // lattice (equal counts of even/odd parity classes weighted by
        // multiplicity... the alternating sum of class counts vanishes).
        let uniform = vec![1.0; classes];
        let s_uni = staggered_structure_factor(&lat, &uniform);
        assert!(s_uni.abs() < 1e-9, "uniform S = {s_uni}");
    }

    #[test]
    fn susceptibility_integrates_the_table() {
        let lat = SquareLattice::square(2);
        let (_, table) = spxx_from_selection(8, 4, 1);
        let chi = uniform_xy_susceptibility(&lat, &table, 0.25);
        assert!(chi.is_finite());
        assert!(chi > 0.0, "physical susceptibility must be positive: {chi}");
        // Doubling Δτ doubles χ.
        let chi2 = uniform_xy_susceptibility(&lat, &table, 0.5);
        assert!((chi2 - 2.0 * chi).abs() < 1e-12);
    }

    #[test]
    fn spxx_onsite_equal_time_is_positive() {
        // ⟨S⁺ᵢSᵢ⁻ + Sᵢ⁻Sᵢ⁺⟩(τ=0) = ⟨n↑(1−n↓) + n↓(1−n↑)⟩ ≥ 0 — the
        // on-site, equal-time row is a density of states, not a sign
        // fitting parameter.
        let (_, table) = spxx_from_selection(8, 4, 1);
        assert!(table.at(0, 0) > 0.0, "SPXX(0,0) = {}", table.at(0, 0));
    }

    #[test]
    fn accumulator_statistics() {
        let mut a = Accumulator::new();
        assert_eq!(a.mean(), 0.0);
        assert_eq!(a.stderr(), 0.0);
        for x in [1.0, 2.0, 3.0, 4.0] {
            a.push(x);
        }
        assert_eq!(a.count(), 4);
        assert!((a.mean() - 2.5).abs() < 1e-14);
        // stderr = sqrt(var/n) with var = 5/3.
        let want = (5.0 / 3.0f64 / 4.0).sqrt();
        assert!((a.stderr() - want).abs() < 1e-14);
    }

    fn spxx_from_selection(l: usize, c: usize, q: usize) -> (SquareLattice, SpxxTable) {
        let lat = SquareLattice::square(2);
        let builder = BlockBuilder::new(lat.clone(), HubbardParams::paper_validation(l));
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(77);
        let field = HsField::random(l, 4, &mut rng);
        let mut sels = Vec::new();
        for spin in Spin::BOTH {
            let pc = hubbard_pcyclic(&builder, &field, spin);
            let rows = fsi_with_q(
                Parallelism::Serial,
                &pc,
                &Selection::new(Pattern::Rows, c, q),
            )
            .expect("healthy");
            let cols = fsi_with_q(
                Parallelism::Serial,
                &pc,
                &Selection::new(Pattern::Columns, c, q),
            )
            .expect("healthy");
            let mut merged = rows.selected;
            merged.merge(cols.selected);
            sels.push(merged);
        }
        let table = spxx(Par::Seq, &lat, l, &sels[0], &sels[1]);
        (lat, table)
    }

    #[test]
    fn spxx_covers_every_tau_with_rows_plus_columns() {
        let (_, table) = spxx_from_selection(8, 4, 1);
        for tau in 0..8 {
            assert!(
                table.count(tau) >= 2,
                "τ={tau}: C(τ) = {} < b",
                table.count(tau)
            );
        }
        assert_eq!(table.l(), 8);
        assert!(table.dmax() >= 4);
        // Values are finite.
        for tau in 0..8 {
            for d in 0..table.dmax() {
                assert!(table.at(tau, d).is_finite());
            }
        }
    }

    fn random_block(n: usize, rng: &mut rand_chacha::ChaCha8Rng) -> Matrix {
        use rand::Rng;
        Matrix::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0))
    }

    /// The shapes of selection the kernels must agree with the oracle on.
    #[derive(Clone, Copy, Debug)]
    enum Shape {
        /// Rows + columns + all diagonals, the §V-C set.
        MeasurementSet,
        Rows,
        Columns,
        Diagonal,
        /// All diagonals, `(1, 0)` with its mirror, and `(2, 0)` without —
        /// the down spin lacks `(0, 2)`, so that pair must not count.
        OneSided,
    }

    const SHAPES: [Shape; 5] = [
        Shape::MeasurementSet,
        Shape::Rows,
        Shape::Columns,
        Shape::Diagonal,
        Shape::OneSided,
    ];

    /// Both spins' selections of the given shape, filled with random blocks.
    fn random_selections(
        shape: Shape,
        n: usize,
        (l, c, q): (usize, usize, usize),
        rng: &mut rand_chacha::ChaCha8Rng,
    ) -> [SelectedInverse; 2] {
        let coords = |pattern| Selection::new(pattern, c, q).coordinates(l);
        let diagonals = (0..l).map(|k| (k, k));
        let coords: Vec<(usize, usize)> = match shape {
            Shape::MeasurementSet => coords(Pattern::Rows)
                .into_iter()
                .chain(coords(Pattern::Columns))
                .chain(diagonals)
                .collect(),
            Shape::Rows => coords(Pattern::Rows),
            Shape::Columns => coords(Pattern::Columns),
            Shape::Diagonal => coords(Pattern::Diagonal),
            Shape::OneSided => diagonals
                .chain([(1 % l, 0), (0, 1 % l), (2 % l, 0), (0, 2 % l)])
                .collect(),
        };
        let mut sels = [SelectedInverse::new(), SelectedInverse::new()];
        for (spin, sel) in sels.iter_mut().enumerate() {
            for &(k, ell) in &coords {
                sel.insert(k, ell, random_block(n, rng));
            }
            if matches!(shape, Shape::OneSided) && spin == 1 && l > 2 {
                sel.remove(0, 2);
            }
        }
        sels
    }

    /// `got` within `1e-13` of `want`, relative to `want`'s largest entry.
    fn assert_close(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        let scale = want.iter().fold(0.0f64, |m, x| m.max(x.abs()));
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                (g - w).abs() <= 1e-13 * scale,
                "{what}[{i}]: {g} vs {w} (scale {scale})"
            );
        }
    }

    /// Lattices of the oracle grid: degenerate neighbours, a rectangle, odd
    /// extents (not a multiple of the transpose tile), and the 8×8 of the
    /// benchmark.
    const LATTICES: [(usize, usize); 4] = [(2, 2), (4, 2), (3, 5), (8, 8)];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        #[test]
        fn spxx_matches_the_reference(seed in any::<u64>()) {
            use rand::SeedableRng;
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            // (L, c): L even and odd, L = 1 and 2, b = 1.
            let slices = [(1, 1), (2, 1), (5, 5), (8, 4), (9, 3), (12, 3)];
            for (nx, ny) in LATTICES {
                let lat = SquareLattice::new(nx, ny);
                for (l, c) in slices {
                    let q = (seed % c as u64) as usize;
                    for shape in SHAPES {
                        let what = format!("{nx}x{ny} L={l} c={c} q={q} {shape:?}");
                        let [up, dn] = random_selections(shape, lat.n_sites(), (l, c, q), &mut rng);
                        let got = spxx(Par::Seq, &lat, l, &up, &dn);
                        let want = reference::spxx(&lat, l, &up, &dn);
                        prop_assert_eq!(&got.counts, &want.counts, "{}", what);
                        assert_close(&got.data, &want.data, &what);
                    }
                }
            }
        }

        #[test]
        fn equal_time_kernels_match_the_reference(seed in any::<u64>(), t in 0.5f64..2.0) {
            use rand::SeedableRng;
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            for (nx, ny) in LATTICES {
                let lat = SquareLattice::new(nx, ny);
                let g_up = random_block(lat.n_sites(), &mut rng);
                let g_dn = random_block(lat.n_sites(), &mut rng);
                // Same arithmetic in the same order: equal, not close.
                prop_assert_eq!(
                    equal_time(&lat, t, &g_up, &g_dn),
                    reference::equal_time(&lat, t, &g_up, &g_dn)
                );
                assert_close(
                    &spin_zz_equal_time(&lat, &g_up, &g_dn),
                    &reference::spin_zz_equal_time(&lat, &g_up, &g_dn),
                    &format!("zz {nx}x{ny}"),
                );
            }
        }
    }

    #[test]
    fn spxx_one_sided_pair_does_not_count() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        let lat = SquareLattice::new(4, 2);
        let [up, dn] = random_selections(Shape::OneSided, 8, (8, 4, 0), &mut rng);
        let table = spxx(Par::Seq, &lat, 8, &up, &dn);
        // All diagonals at τ = 0; (1,0) and (0,1) at τ = 1 and 7; (2,0)
        // is there for both spins, (0,2) only for one.
        let counts: Vec<usize> = (0..8).map(|tau| table.count(tau)).collect();
        assert_eq!(counts, [8, 1, 0, 0, 0, 0, 0, 1]);
    }

    #[test]
    fn spxx_parallel_matches_sequential() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(78);
        let lat = SquareLattice::new(4, 2);
        let (l, c) = (16, 4);
        let [up, dn] = random_selections(Shape::MeasurementSet, 8, (l, c, 1), &mut rng);
        let seq = spxx(Par::Seq, &lat, l, &up, &dn);
        for threads in [2, 3, 5] {
            let pool = fsi_runtime::ThreadPool::new(threads);
            let par = spxx(Par::Pool(&pool), &lat, l, &up, &dn);
            assert_eq!(seq.counts, par.counts, "{threads} threads");
            for (i, (a, b)) in seq.data.iter().zip(&par.data).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{threads} threads, entry {i}");
            }
        }
    }

    #[test]
    fn spxx_merge_and_scale() {
        let (_, t1) = spxx_from_selection(8, 4, 1);
        let mut acc = t1.clone();
        acc.merge(&t1);
        acc.scale(0.5);
        for tau in 0..8 {
            for d in 0..t1.dmax() {
                assert!((acc.at(tau, d) - t1.at(tau, d)).abs() < 1e-14);
            }
            assert_eq!(acc.count(tau), 2 * t1.count(tau));
        }
    }
}
