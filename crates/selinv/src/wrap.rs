//! WRP — the wrapping stage of FSI (paper Alg. 2 and relations (4)–(7)).
//!
//! Adjacent blocks of the Green's function satisfy one-step recurrences:
//! knowing `G(k, ℓ)`, each of its four neighbours costs one `N × N`
//! product with a block `B[r]` of the matrix or with its inverse. In
//! 0-based torus indices the paper's nine boundary cases collapse to a
//! uniform rule per direction:
//!
//! ```text
//! down : G(k+1, ℓ) = s·B[r]·G(k, ℓ) + [r = ℓ]·I            r = k+1
//! up   : G(k−1, ℓ) = s·B[r]⁻¹·(G(k, ℓ) − [k = ℓ]·I)        r = k
//! right: G(k, ℓ+1) = s·(G(k, ℓ) − [k = ℓ]·I)·B[r]⁻¹        r = ℓ+1
//! left : G(k, ℓ−1) = s·G(k, ℓ)·B[r] + [k = ℓ−1]·I          r = ℓ
//!
//! s = −1 iff r = 0 (the step crosses the torus seam), +1 otherwise
//! ```
//!
//! (Each is derived from the explicit expression Eq. (3) via the
//! similarity `b[r]·W(r−1)⁻¹ = W(r)⁻¹·b[r]`; the identity corrections
//! appear exactly when the step crosses the block diagonal. All four rules
//! and all their boundary cases are property-tested against the dense
//! inverse.)
//!
//! Algorithm 2 grows a selected inversion from the `b²` seeds that BSOFI
//! provides: each seed walks `⌈(c−1)/2⌉` rows up and `⌊(c−1)/2⌋` rows down
//! (columns pattern; left/right for the rows pattern). Splitting the walk
//! halves the length of the recurrence chains, halving the accumulated
//! floating-point error — the `ablation_wrap_split` bench quantifies this
//! against a one-directional walk. Cost `3(bL − b²)N³` in the paper's
//! model ([`wrap_flops`]); what the kernels here execute is
//! [`wrap_kernel_flops`].
//!
//! # One step, many seeds
//!
//! The `b` seeds of one seed row apply the same operator at every step of
//! an up or down walk (the seeds of one seed column at every step left or
//! right), so a *line* of seeds advances in lockstep: one step is one
//! [`gemm_batched`] call with the operator as the shared operand and the
//! previous generation of blocks as the per-item operand, written straight
//! into the output blocks. Those sit on buffers from the process-wide
//! block pool ([`Matrix::pooled`]) and go back to it when the caller drops
//! the selection — or when an `Err` unwinds a half-finished walk — so a
//! steady stream of wraps reuses one set of blocks instead of faulting
//! fresh pages in on every call. The sign rides in `alpha`;
//! the identity correction touches the one block of the line that crosses
//! the diagonal (for the inverse directions it is applied after the
//! product, as `− s·B[r]⁻¹`, so no block is copied to be corrected). A
//! walk only ever borrows the generation before it. Lines and directions
//! are independent tasks under `parallel_map`; every block is computed by
//! the same kernel call sequence whatever the schedule, so results do not
//! depend on `Par` bit for bit. The single-block functions [`step_up`],
//! [`step_down`], [`step_left`] and [`step_right`] are the same product
//! with a batch of one.
//!
//! `B[r]⁻¹` is formed explicitly, once per block and wrap (GETRF, a pivot
//! probe, GETRI), and cached in [`BlockFactors`]. Wrapping chains are at
//! most `⌈(c−1)/2⌉` steps long by construction, which is what keeps plain
//! products with the explicit inverse as accurate as LU solves were; a
//! block too ill-conditioned to invert raises a [`HealthEvent`] instead.

use std::sync::OnceLock;

use fsi_dense::blas::axpy;
use fsi_dense::{gemm_batched, getrf, BatchOperand, MatMut, MatRef, Matrix, Op};
use fsi_pcyclic::BlockPCyclic;
use fsi_runtime::health::{self, FsiResult, HealthEvent, Stage};
use fsi_runtime::{parallel_map, Par, Schedule};

use crate::cls::Clustered;
use crate::patterns::{Pattern, SelectedInverse, Selection};

/// Lazily cached explicit inverses `B[k]⁻¹` of the matrix's blocks, shared
/// by every walk of a wrap (thread-safe: each inverse is computed at most
/// once).
///
/// ```
/// use fsi_selinv::BlockFactors;
///
/// let pc = fsi_pcyclic::random_pcyclic(4, 6, 7);
/// let factors = BlockFactors::new(&pc);
/// assert_eq!(factors.computed(), 0);
/// let inv = factors.inverse(2).expect("well-conditioned block");
/// let mut prod = fsi_dense::mul(pc.block(2), inv);
/// prod.add_diag(-1.0);
/// assert!(prod.max_abs() < 1e-12);
/// let _ = factors.inverse(2);
/// assert_eq!(factors.computed(), 1);
/// ```
pub struct BlockFactors<'a> {
    pc: &'a BlockPCyclic,
    cells: Vec<OnceLock<Result<Matrix, HealthEvent>>>,
}

impl<'a> BlockFactors<'a> {
    /// Creates an empty cache for the matrix's blocks.
    pub fn new(pc: &'a BlockPCyclic) -> Self {
        BlockFactors {
            pc,
            cells: (0..pc.l()).map(|_| OnceLock::new()).collect(),
        }
    }

    /// `B[k]⁻¹`, computing it on first use.
    ///
    /// # Errors
    /// [`HealthEvent::SingularPivot`] if `B[k]` has an exactly zero pivot,
    /// and whatever [`health::check_pivots`] raises on the diagonal of its
    /// `U` factor — a block graded past [`health::KAPPA_MAX`] is
    /// [`HealthEvent::IllConditioned`] rather than inverted. The outcome
    /// is cached either way.
    pub fn inverse(&self, k: usize) -> FsiResult<&Matrix> {
        self.cells[k]
            .get_or_init(|| invert_block(self.pc, k))
            .as_ref()
            .map_err(|&event| event.into())
    }

    /// Number of inverses attempted so far (test/telemetry hook).
    pub fn computed(&self) -> usize {
        self.cells.iter().filter(|c| c.get().is_some()).count()
    }
}

/// GETRF → pivot probe → GETRI on `B[k]`; reported columns are global
/// (block `k` owns columns `kN..(k+1)N`).
fn invert_block(pc: &BlockPCyclic, k: usize) -> Result<Matrix, HealthEvent> {
    let n = pc.n();
    let lu = getrf(pc.block(k).clone()).map_err(|e| {
        let fsi_dense::DenseError::Singular { column } = e else {
            unreachable!("getrf only fails on a zero pivot");
        };
        let event = HealthEvent::SingularPivot {
            stage: Stage::Wrap,
            column: k * n + column,
        };
        event.record();
        event
    })?;
    let diag: Vec<f64> = (0..n).map(|i| lu.packed()[(i, i)]).collect();
    health::check_pivots(Stage::Wrap, k * n, &diag)?;
    Ok(lu.inverse())
}

/// Direction of a wrap step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Dir {
    Up,
    Down,
    Left,
    Right,
}

impl Dir {
    /// Index `r` of the block whose `B[r]` (down, left) or `B[r]⁻¹` (up,
    /// right) the step from `(k, ℓ)` applies.
    fn operator(self, pc: &BlockPCyclic, (k, l): (usize, usize)) -> usize {
        match self {
            Dir::Down => pc.down(k),
            Dir::Up => k,
            Dir::Right => pc.down(l),
            Dir::Left => l,
        }
    }

    /// Coordinates of the block one step from `(k, ℓ)`.
    fn target(self, pc: &BlockPCyclic, (k, l): (usize, usize)) -> (usize, usize) {
        match self {
            Dir::Down => (pc.down(k), l),
            Dir::Up => (pc.up(k), l),
            Dir::Right => (k, pc.down(l)),
            Dir::Left => (k, pc.up(l)),
        }
    }
}

/// `out[i] := alpha·a[i]·b[i]` — one batched dispatch, store-mode
/// writeback straight into the output blocks (which may hold anything:
/// they come from the block pool).
fn products(
    par: Par<'_>,
    alpha: f64,
    a: BatchOperand<'_>,
    b: BatchOperand<'_>,
    out: &mut [Matrix],
) {
    let mut c: Vec<MatMut<'_>> = out.iter_mut().map(Matrix::as_mut).collect();
    gemm_batched(par, alpha, Op::NoTrans, a, Op::NoTrans, b, 0.0, &mut c);
}

/// The wrap step: advances the blocks `prev[i] = G(at[i])` one step in
/// direction `dir` into `out[i]`. All of `at` must share the step's
/// operator `op` (one block row for up/down, one block column for
/// left/right) — the module docs give the rule per direction.
fn step(
    dir: Dir,
    pc: &BlockPCyclic,
    op: &Matrix,
    at: &[(usize, usize)],
    prev: &[MatRef<'_>],
    out: &mut [Matrix],
) {
    let r = dir.operator(pc, at[0]);
    debug_assert!(at.iter().all(|&coord| dir.operator(pc, coord) == r));
    let alpha = if r == 0 { -1.0 } else { 1.0 };
    let (shared, each) = (BatchOperand::Shared(op.as_ref()), BatchOperand::Each(prev));
    match dir {
        Dir::Up | Dir::Down => products(Par::Seq, alpha, shared, each, out),
        Dir::Left | Dir::Right => products(Par::Seq, alpha, each, shared, out),
    }
    for (blk, &(k, l)) in out.iter_mut().zip(at) {
        match dir {
            Dir::Down if r == l => blk.add_diag(1.0),
            Dir::Left if k == pc.up(l) => blk.add_diag(1.0),
            // s·B⁻¹·(G − I) = s·B⁻¹·G − s·B⁻¹ (and its mirror image).
            Dir::Up | Dir::Right if k == l => axpy(-alpha, op.as_slice(), blk.as_mut_slice()),
            _ => {}
        }
    }
}

/// [`step`] on a single block.
fn step_one(dir: Dir, pc: &BlockPCyclic, op: &Matrix, g: MatRef<'_>, at: (usize, usize)) -> Matrix {
    let mut out = Matrix::pooled(pc.n(), pc.n());
    step(dir, pc, op, &[at], &[g], std::slice::from_mut(&mut out));
    out
}

/// One step down: from `G(k, ℓ)` to `G(k+1, ℓ)` (relation (5) with all
/// boundary cases).
pub fn step_down(pc: &BlockPCyclic, g: &Matrix, k: usize, l: usize) -> Matrix {
    step_one(Dir::Down, pc, pc.block(pc.down(k)), g.as_ref(), (k, l))
}

/// One step up: from `G(k, ℓ)` to `G(k−1, ℓ)` (relation (4)).
///
/// # Errors
/// As [`BlockFactors::inverse`] for block `k`.
pub fn step_up(
    pc: &BlockPCyclic,
    factors: &BlockFactors<'_>,
    g: &Matrix,
    k: usize,
    l: usize,
) -> FsiResult<Matrix> {
    Ok(step_one(
        Dir::Up,
        pc,
        factors.inverse(k)?,
        g.as_ref(),
        (k, l),
    ))
}

/// One step right: from `G(k, ℓ)` to `G(k, ℓ+1)` (relation (7)).
///
/// # Errors
/// As [`BlockFactors::inverse`] for block `ℓ+1`.
pub fn step_right(
    pc: &BlockPCyclic,
    factors: &BlockFactors<'_>,
    g: &Matrix,
    k: usize,
    l: usize,
) -> FsiResult<Matrix> {
    let op = factors.inverse(pc.down(l))?;
    Ok(step_one(Dir::Right, pc, op, g.as_ref(), (k, l)))
}

/// One step left: from `G(k, ℓ)` to `G(k, ℓ−1)` (relation (6)).
pub fn step_left(pc: &BlockPCyclic, g: &Matrix, k: usize, l: usize) -> Matrix {
    step_one(Dir::Left, pc, pc.block(l), g.as_ref(), (k, l))
}

/// Where the seed blocks `Ḡ(k₀, ℓ₀)` of a wrap come from: the dense
/// reduced inverse or a sparse selected assembly.
#[derive(Clone, Copy)]
pub(crate) enum Seeds<'a> {
    /// The dense `bN × bN` output of [`crate::bsofi`].
    Dense(&'a Matrix),
    /// The blocks [`crate::bsofi_selected`] assembled.
    Selected(&'a SelectedInverse),
}

impl<'a> Seeds<'a> {
    /// Seed block `Ḡ(k₀, ℓ₀)`, viewed in place.
    ///
    /// # Panics
    /// Panics if a sparse assembly does not hold the block.
    fn view(self, n: usize, k0: usize, l0: usize) -> MatRef<'a> {
        match self {
            Seeds::Dense(g) => g.view(k0 * n, l0 * n, n, n),
            Seeds::Selected(seeds) => seeds
                .get(k0, l0)
                .unwrap_or_else(|| panic!("seed block ({k0},{l0}) missing from selected inverse"))
                .as_ref(),
        }
    }
}

/// The wrapping process (paper Alg. 2, extended to all four patterns):
/// expands the BSOFI seed blocks `Ḡ(k₀, ℓ₀) = G(c·k₀+o, c·ℓ₀+o)` into the
/// requested selection.
///
/// `g_reduced` is the dense `bN × bN` output of BSOFI on the clustered
/// matrix. `par` parallelizes over lines of seeds and walk directions
/// (each walk is a serial chain of batched steps; walks are independent).
pub fn wrap(
    par: Par<'_>,
    pc: &BlockPCyclic,
    clustered: &Clustered,
    g_reduced: &Matrix,
    selection: &Selection,
) -> FsiResult<SelectedInverse> {
    let factors = BlockFactors::new(pc);
    wrap_with(
        par,
        pc,
        clustered,
        &factors,
        Seeds::Dense(g_reduced),
        selection,
    )
}

/// [`wrap`] fed from a sparse [`SelectedInverse`] of seed blocks (the
/// output of [`crate::bsofi_selected`]) instead of the dense `Ḡ` — the
/// S1/S2 fast path, which never materializes the `bN × bN` inverse.
///
/// # Panics
/// Panics if a seed block the pattern's walks start from is missing
/// (diagonal seeds `Ḡ(k₀,k₀)` for S1/S2; all `b²` blocks for S3/S4).
pub fn wrap_selected(
    par: Par<'_>,
    pc: &BlockPCyclic,
    clustered: &Clustered,
    seeds: &SelectedInverse,
    selection: &Selection,
) -> FsiResult<SelectedInverse> {
    let factors = BlockFactors::new(pc);
    wrap_with(
        par,
        pc,
        clustered,
        &factors,
        Seeds::Selected(seeds),
        selection,
    )
}

/// Wrap-stage boundary probe (plus injection hook under `fault-inject`),
/// fused into block production so it runs while the freshly wrapped block
/// is still cache-hot instead of as a cold post-pass over the selection.
/// `k` is the block row the block belongs to.
fn probe_wrapped(k: usize, blk: &mut Matrix) -> Result<(), HealthEvent> {
    #[cfg(feature = "fault-inject")]
    health::inject::poison(Stage::Wrap, k, blk.as_mut_slice());
    health::check_block(Stage::Wrap, k, blk.as_slice())
}

/// Blocks of `G` with their coordinates, as a walk hands them back.
type Produced = Vec<((usize, usize), Matrix)>;

/// Walks one line of seeds `steps` steps in direction `dir`, every block
/// of the line advancing together (one [`step`] per generation, probed
/// while hot). Returns the blocks of all generations after the seeds.
fn walk_line(
    dir: Dir,
    steps: usize,
    pc: &BlockPCyclic,
    factors: &BlockFactors<'_>,
    seeds: &[((usize, usize), Matrix)],
) -> FsiResult<Produced> {
    let (n, width) = (pc.n(), seeds.len());
    let mut at: Vec<(usize, usize)> = seeds.iter().map(|&(coord, _)| coord).collect();
    let mut blocks: Vec<Matrix> = Vec::with_capacity(steps * width);
    let mut coords: Vec<(usize, usize)> = Vec::with_capacity(steps * width);
    for _ in 0..steps {
        let r = dir.operator(pc, at[0]);
        let op = match dir {
            Dir::Down | Dir::Left => pc.block(r),
            Dir::Up | Dir::Right => factors.inverse(r)?,
        };
        let start = blocks.len();
        blocks.resize_with(start + width, || Matrix::pooled(n, n));
        let (done, fresh) = blocks.split_at_mut(start);
        let prev: Vec<MatRef<'_>> = match start {
            0 => seeds.iter().map(|(_, g)| g.as_ref()).collect(),
            _ => done[start - width..].iter().map(Matrix::as_ref).collect(),
        };
        step(dir, pc, op, &at, &prev, fresh);
        for (coord, blk) in at.iter_mut().zip(fresh) {
            *coord = dir.target(pc, *coord);
            probe_wrapped(coord.0, blk)?;
        }
        coords.extend_from_slice(&at);
    }
    Ok(coords.into_iter().zip(blocks).collect())
}

/// Shared wrap engine behind [`wrap`] and [`wrap_selected`]; `factors` is
/// the inverse cache to use, so callers running several wraps of one
/// matrix invert each block once.
pub(crate) fn wrap_with(
    par: Par<'_>,
    pc: &BlockPCyclic,
    clustered: &Clustered,
    factors: &BlockFactors<'_>,
    seeds: Seeds<'_>,
    selection: &Selection,
) -> FsiResult<SelectedInverse> {
    assert_eq!(
        selection.c, clustered.c,
        "selection and clustering disagree on c"
    );
    assert_eq!(
        selection.q, clustered.q,
        "selection and clustering disagree on q"
    );
    let (n, b, c) = (pc.n(), clustered.b(), clustered.c);
    let seed_block = |k0: usize, l0: usize| -> Result<((usize, usize), Matrix), HealthEvent> {
        let (k, l) = (clustered.to_original(k0), clustered.to_original(l0));
        let mut blk = seeds.view(n, k0, l0).to_owned();
        probe_wrapped(k, &mut blk)?;
        Ok(((k, l), blk))
    };

    match selection.pattern {
        Pattern::Diagonal => {
            // S1: the diagonal seeds ARE the selection — no wrapping.
            let mut out = SelectedInverse::with_capacity(b);
            for k0 in 0..b {
                let ((k, l), blk) = seed_block(k0, k0)?;
                out.insert(k, l, blk);
            }
            Ok(out)
        }
        Pattern::SubDiagonal => {
            // S2: one right-step from each diagonal seed; every seed has
            // an operator of its own, so the steps are batches of one.
            let results = parallel_map(par, b, Schedule::Dynamic(1), |k0| -> FsiResult<_> {
                let k = clustered.to_original(k0);
                let op = factors.inverse(pc.down(k))?;
                let mut next = step_one(Dir::Right, pc, op, seeds.view(n, k0, k0), (k, k));
                probe_wrapped(k, &mut next)?;
                Ok(((k, pc.down(k)), next))
            });
            let mut out = SelectedInverse::with_capacity(b);
            for r in results {
                let ((k, l), blk) = r?;
                out.insert(k, l, blk);
            }
            Ok(out)
        }
        Pattern::Columns | Pattern::Rows => {
            // A line is the b seeds sharing a seed row (columns pattern:
            // they walk up and down) or a seed column (rows pattern: left
            // and right); each walks c−1 steps split between the two
            // directions to minimize chain length.
            let (before, after, by_row) = match selection.pattern {
                Pattern::Columns => (Dir::Up, Dir::Down, true),
                _ => (Dir::Left, Dir::Right, false),
            };
            let before_steps = c / 2; // ⌈(c−1)/2⌉
            let after_steps = (c - 1) - before_steps;
            let mut lines: Vec<Produced> = Vec::with_capacity(b);
            for line in 0..b {
                let seeds_of_line = (0..b).map(|i| {
                    if by_row {
                        seed_block(line, i)
                    } else {
                        seed_block(i, line)
                    }
                });
                lines.push(seeds_of_line.collect::<Result<_, _>>()?);
            }
            let walks = parallel_map(par, 2 * b, Schedule::Dynamic(1), |task| {
                let (dir, steps) = match task % 2 {
                    0 => (before, before_steps),
                    _ => (after, after_steps),
                };
                walk_line(dir, steps, pc, factors, &lines[task / 2])
            });
            let mut out = SelectedInverse::with_capacity(b * pc.l());
            for walk in walks {
                for ((k, l), blk) in walk? {
                    out.insert(k, l, blk);
                }
            }
            for ((k, l), blk) in lines.into_iter().flatten() {
                out.insert(k, l, blk);
            }
            Ok(out)
        }
    }
}

/// Wraps the diagonal seeds into *all* `L` diagonal blocks of `G` — the
/// equal-time Green's functions DQMC measurements need (paper §V-C
/// computes "all diagonal blocks, b block rows and b block columns").
///
/// Each seed walks the diagonal with composed down+right steps
/// (`G(k,k) → G(k+1,k) → G(k+1,k+1)`, both proven relations), producing
/// `c−1` new diagonal blocks per seed at ~4N³ flops each.
pub fn wrap_all_diagonals(
    par: Par<'_>,
    pc: &BlockPCyclic,
    clustered: &Clustered,
    g_reduced: &Matrix,
) -> FsiResult<SelectedInverse> {
    let factors = BlockFactors::new(pc);
    wrap_all_diagonals_with(par, pc, clustered, &factors, Seeds::Dense(g_reduced))
}

/// [`wrap_all_diagonals`] fed from sparse diagonal seeds (the output of
/// [`crate::bsofi_selected`] with [`crate::SelectedPattern::Diagonals`]).
///
/// # Panics
/// Panics if a diagonal seed `Ḡ(k₀,k₀)` is missing.
pub fn wrap_all_diagonals_selected(
    par: Par<'_>,
    pc: &BlockPCyclic,
    clustered: &Clustered,
    seeds: &SelectedInverse,
) -> FsiResult<SelectedInverse> {
    let factors = BlockFactors::new(pc);
    wrap_all_diagonals_with(par, pc, clustered, &factors, Seeds::Selected(seeds))
}

/// The all-diagonals engine. The `b` seeds sit on different block rows,
/// so no two of them share an operator; they still advance in lockstep,
/// one generation per pair of batched products with per-item operands:
/// `G(r,r) = B[r]·G(k,k)·B[r]⁻¹` with `r = k+1`. That is the down step to
/// `G(r,k)` followed by the right step from it: both carry the same seam
/// sign, which cancels, and neither crosses the diagonal (for `L > 1`).
/// The intermediate `G(r,k)` live in `b` scratch blocks reused by every
/// generation. `par` splits each batch over the pool.
pub(crate) fn wrap_all_diagonals_with(
    par: Par<'_>,
    pc: &BlockPCyclic,
    clustered: &Clustered,
    factors: &BlockFactors<'_>,
    seeds: Seeds<'_>,
) -> FsiResult<SelectedInverse> {
    let (n, b, c) = (pc.n(), clustered.b(), clustered.c);
    let mut rows: Vec<usize> = (0..b).map(|k0| clustered.to_original(k0)).collect();
    let mut blocks: Vec<Matrix> = Vec::with_capacity(b * c);
    let mut coords: Vec<usize> = Vec::with_capacity(b * c);
    for (k0, &k) in rows.iter().enumerate() {
        let mut blk = seeds.view(n, k0, k0).to_owned();
        probe_wrapped(k, &mut blk)?;
        blocks.push(blk);
    }
    coords.extend_from_slice(&rows);
    let mut below: Vec<Matrix> = (0..b).map(|_| Matrix::pooled(n, n)).collect();
    for _ in 1..c {
        for k in &mut rows {
            *k = pc.down(*k);
        }
        let ops: Vec<MatRef<'_>> = rows.iter().map(|&r| pc.block(r).as_ref()).collect();
        let inverses = rows
            .iter()
            .map(|&r| factors.inverse(r).map(Matrix::as_ref))
            .collect::<FsiResult<Vec<MatRef<'_>>>>()?;
        let start = blocks.len();
        blocks.resize_with(start + b, || Matrix::pooled(n, n));
        let (done, fresh) = blocks.split_at_mut(start);
        let prev: Vec<MatRef<'_>> = done[start - b..].iter().map(Matrix::as_ref).collect();
        products(
            par,
            1.0,
            BatchOperand::Each(&ops),
            BatchOperand::Each(&prev),
            &mut below,
        );
        let below_refs: Vec<MatRef<'_>> = below.iter().map(Matrix::as_ref).collect();
        products(
            par,
            1.0,
            BatchOperand::Each(&below_refs),
            BatchOperand::Each(&inverses),
            fresh,
        );
        for (blk, &k) in fresh.iter_mut().zip(&rows) {
            probe_wrapped(k, blk)?;
        }
        coords.extend_from_slice(&rows);
    }
    let mut out = SelectedInverse::with_capacity(b * c);
    for (k, blk) in coords.into_iter().zip(blocks) {
        out.insert(k, k, blk);
    }
    Ok(out)
}

/// Closed-form flop count of the wrapping stage for the columns/rows
/// patterns (paper §II-C): `3(bL − b²)N³`.
pub fn wrap_flops(n: usize, l: usize, c: usize) -> u64 {
    let b = (l / c) as u64;
    3 * (b * l as u64 - b * b) * (n as u64).pow(3)
}

/// What [`wrap`] / [`wrap_selected`] execute, to the flop: `2N³` per
/// produced block (one product each) plus `2N³` per inverted `B[k]` (a
/// GETRF and a GETRI). The up half of a columns walk and the right half of
/// a rows walk apply inverses, `⌈(c−1)/2⌉` respectively `⌊(c−1)/2⌋`
/// distinct ones per line.
pub fn wrap_kernel_flops(pattern: Pattern, n: usize, l: usize, c: usize) -> u64 {
    let b = l / c;
    let (produced, inverted) = match pattern {
        Pattern::Diagonal => (0, 0),
        Pattern::SubDiagonal => (b, b),
        Pattern::Columns => (b * l - b * b, b * (c / 2)),
        Pattern::Rows => (b * l - b * b, b * (c - 1 - c / 2)),
    };
    2 * (produced + inverted) as u64 * (n as u64).pow(3)
}

/// Exercises every relation against a dense reference — used by tests and
/// the validation binary. Returns the maximum relative error over all
/// steps from all `(k, ℓ)` source blocks.
///
/// # Panics
/// Panics if a block of `pc` cannot be inverted.
pub fn max_relation_error(pc: &BlockPCyclic, g_dense: &Matrix) -> f64 {
    let l = pc.l();
    let factors = BlockFactors::new(pc);
    let mut worst = 0.0f64;
    for k in 0..l {
        for j in 0..l {
            let g = pc.dense_block(g_dense, k, j);
            let checks = [
                (pc.down(k), j, step_down(pc, &g, k, j)),
                (
                    pc.up(k),
                    j,
                    step_up(pc, &factors, &g, k, j).expect("invertible block"),
                ),
                (
                    k,
                    pc.down(j),
                    step_right(pc, &factors, &g, k, j).expect("invertible block"),
                ),
                (k, pc.up(j), step_left(pc, &g, k, j)),
            ];
            for (kk, jj, got) in checks {
                let want = pc.dense_block(g_dense, kk, jj);
                worst = worst.max(fsi_dense::rel_error(&got, &want));
            }
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cls::cls;
    use fsi_dense::rel_error;
    use fsi_pcyclic::random_pcyclic;
    use fsi_runtime::ThreadPool;

    #[test]
    fn all_four_relations_hold_everywhere() {
        // Exhaustive over every (k, ℓ) and direction, covering all nine
        // boundary cases of the paper (diagonal, sub-diagonal, first/last
        // row, first/last column, corners).
        let pc = random_pcyclic(3, 6, 21);
        let g = pc.reference_green(Par::Seq);
        let worst = max_relation_error(&pc, &g);
        assert!(worst < 1e-9, "worst relation error: {worst}");
    }

    #[test]
    fn relations_hold_for_hubbard_blocks() {
        use fsi_pcyclic::{hubbard_pcyclic, BlockBuilder, HsField, HubbardParams, SquareLattice};
        use rand::SeedableRng;
        let builder =
            BlockBuilder::new(SquareLattice::new(2, 2), HubbardParams::paper_validation(5));
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        let field = HsField::random(5, 4, &mut rng);
        let pc = hubbard_pcyclic(&builder, &field, fsi_pcyclic::Spin::Down);
        let g = pc.reference_green(Par::Seq);
        assert!(max_relation_error(&pc, &g) < 1e-8);
    }

    #[test]
    fn inverses_are_computed_lazily_and_once() {
        let pc = random_pcyclic(3, 8, 22);
        let f = BlockFactors::new(&pc);
        assert_eq!(f.computed(), 0);
        let first = f.inverse(3).expect("invertible") as *const Matrix;
        let again = f.inverse(3).expect("invertible") as *const Matrix;
        assert_eq!(first, again);
        let _ = f.inverse(5);
        assert_eq!(f.computed(), 2);
    }

    #[test]
    fn singular_block_is_an_event_with_a_global_column() {
        let mut blocks: Vec<Matrix> = (0..4).map(|_| Matrix::identity(3)).collect();
        blocks[2][(1, 1)] = 0.0;
        let pc = BlockPCyclic::new(blocks);
        let f = BlockFactors::new(&pc);
        let want = HealthEvent::SingularPivot {
            stage: Stage::Wrap,
            column: 2 * 3 + 1,
        };
        assert_eq!(f.inverse(2).unwrap_err().health_event(), Some(&want));
        // The failure is cached, and it surfaces through the walks.
        assert_eq!(f.inverse(2).unwrap_err().health_event(), Some(&want));
        assert_eq!(f.computed(), 1);
        let g = Matrix::identity(3);
        assert!(step_up(&pc, &f, &g, 2, 0).is_err());
        assert!(step_right(&pc, &f, &g, 0, 1).is_err());
        assert!(step_up(&pc, &f, &g, 1, 0).is_ok());
    }

    fn check_selection(pattern: Pattern, n: usize, l: usize, c: usize, q: usize, tol: f64) {
        let pc = random_pcyclic(n, l, (l * 100 + c * 10 + q) as u64);
        let sel = Selection::new(pattern, c, q);
        let clustered = cls(Par::Seq, Par::Seq, &pc, c, q);
        let g_red = crate::bsofi::bsofi(Par::Seq, Par::Seq, &clustered.reduced);
        let result = wrap(Par::Seq, &pc, &clustered, &g_red, &sel).expect("healthy");
        let want_coords = sel.coordinates(l);
        assert_eq!(result.len(), want_coords.len(), "{pattern:?} block count");
        let g_ref = pc.reference_green(Par::Seq);
        for (k, j) in want_coords {
            let got = result
                .get(k, j)
                .unwrap_or_else(|| panic!("missing ({k},{j})"));
            let want = pc.dense_block(&g_ref, k, j);
            let err = rel_error(got, &want);
            assert!(err < tol, "{pattern:?} block ({k},{j}) err {err}");
        }
    }

    #[test]
    fn diagonal_selection_matches_reference() {
        check_selection(Pattern::Diagonal, 3, 8, 4, 1, 1e-8);
        check_selection(Pattern::Diagonal, 2, 9, 3, 0, 1e-8);
    }

    #[test]
    fn subdiagonal_selection_matches_reference() {
        check_selection(Pattern::SubDiagonal, 3, 8, 4, 3, 1e-8);
        check_selection(Pattern::SubDiagonal, 2, 6, 2, 1, 1e-8);
    }

    #[test]
    fn column_selection_matches_reference() {
        check_selection(Pattern::Columns, 2, 8, 4, 0, 1e-7);
        check_selection(Pattern::Columns, 3, 6, 3, 2, 1e-7);
        check_selection(Pattern::Columns, 2, 12, 4, 2, 1e-7);
    }

    #[test]
    fn row_selection_matches_reference() {
        check_selection(Pattern::Rows, 2, 8, 4, 1, 1e-7);
        check_selection(Pattern::Rows, 3, 9, 3, 1, 1e-7);
    }

    #[test]
    fn all_shifts_work() {
        for q in 0..4 {
            check_selection(Pattern::Columns, 2, 8, 4, q, 1e-7);
        }
    }

    #[test]
    fn parallel_wrap_matches_sequential() {
        let pool = ThreadPool::new(4);
        let pc = random_pcyclic(3, 8, 30);
        let sel = Selection::new(Pattern::Columns, 4, 1);
        let clustered = cls(Par::Seq, Par::Seq, &pc, 4, 1);
        let g_red = crate::bsofi::bsofi(Par::Seq, Par::Seq, &clustered.reduced);
        let seq = wrap(Par::Seq, &pc, &clustered, &g_red, &sel).expect("healthy");
        let par = wrap(Par::Pool(&pool), &pc, &clustered, &g_red, &sel).expect("healthy");
        assert_eq!(seq.len(), par.len());
        for (coord, blk) in seq.iter() {
            let other = par.get(coord.0, coord.1).expect("same coords");
            assert_eq!(blk, other, "{coord:?}");
        }
    }

    #[test]
    fn all_diagonals_match_reference() {
        for (l, c, q) in [(8usize, 4usize, 1usize), (9, 3, 0), (6, 6, 2)] {
            let pc = random_pcyclic(3, l, (l * 7 + c) as u64);
            let clustered = cls(Par::Seq, Par::Seq, &pc, c, q);
            let g_red = crate::bsofi::bsofi(Par::Seq, Par::Seq, &clustered.reduced);
            let diags = wrap_all_diagonals(Par::Seq, &pc, &clustered, &g_red).expect("healthy");
            assert_eq!(diags.len(), l);
            let g_ref = pc.reference_green(Par::Seq);
            for k in 0..l {
                let got = diags.get(k, k).expect("diag block");
                let want = pc.dense_block(&g_ref, k, k);
                let err = rel_error(got, &want);
                assert!(err < 1e-7, "L={l} c={c} q={q} k={k}: {err}");
            }
        }
    }

    #[test]
    fn selected_seeds_match_dense_seeds() {
        use crate::patterns::SelectedPattern;
        let pc = random_pcyclic(3, 8, 31);
        let clustered = cls(Par::Seq, Par::Seq, &pc, 4, 1);
        let g_red = crate::bsofi::bsofi(Par::Seq, Par::Seq, &clustered.reduced);
        let seeds = crate::bsofi::bsofi_selected(
            Par::Seq,
            Par::Seq,
            &clustered.reduced,
            &SelectedPattern::Diagonals,
        )
        .expect("healthy");
        for pattern in [Pattern::Diagonal, Pattern::SubDiagonal] {
            let sel = Selection::new(pattern, 4, 1);
            let dense = wrap(Par::Seq, &pc, &clustered, &g_red, &sel).expect("healthy");
            let sparse = wrap_selected(Par::Seq, &pc, &clustered, &seeds, &sel).expect("healthy");
            assert_eq!(dense.len(), sparse.len(), "{pattern:?}");
            for (coord, blk) in dense.iter() {
                let other = sparse.get(coord.0, coord.1).expect("same coords");
                assert!(rel_error(blk, other) < 1e-12, "{pattern:?} {coord:?}");
            }
        }
        let dense_d = wrap_all_diagonals(Par::Seq, &pc, &clustered, &g_red).expect("healthy");
        let sparse_d =
            wrap_all_diagonals_selected(Par::Seq, &pc, &clustered, &seeds).expect("healthy");
        assert_eq!(dense_d.len(), sparse_d.len());
        for (coord, blk) in dense_d.iter() {
            let other = sparse_d.get(coord.0, coord.1).expect("same coords");
            assert!(rel_error(blk, other) < 1e-12, "diag {coord:?}");
        }
    }

    #[test]
    #[should_panic(expected = "missing from selected inverse")]
    fn selected_wrap_panics_on_missing_seed() {
        let pc = random_pcyclic(2, 8, 32);
        let clustered = cls(Par::Seq, Par::Seq, &pc, 4, 0);
        let empty = SelectedInverse::new();
        let sel = Selection::new(Pattern::Diagonal, 4, 0);
        let _ = wrap_selected(Par::Seq, &pc, &clustered, &empty, &sel);
    }

    #[test]
    fn wrap_flop_formula() {
        // 3(bL − b²)N³ for (N, L, c) = (10, 100, 10): b = 10.
        assert_eq!(wrap_flops(10, 100, 10), 3 * (1000 - 100) * 1000);
        // Executed: 900 products; 10 lines × 5 inverses up, × 4 right.
        let n3 = 2 * 1000;
        assert_eq!(
            wrap_kernel_flops(Pattern::Columns, 10, 100, 10),
            (900 + 50) * n3
        );
        assert_eq!(
            wrap_kernel_flops(Pattern::Rows, 10, 100, 10),
            (900 + 40) * n3
        );
        assert_eq!(
            wrap_kernel_flops(Pattern::SubDiagonal, 10, 100, 10),
            20 * n3
        );
        assert_eq!(wrap_kernel_flops(Pattern::Diagonal, 10, 100, 10), 0);
    }
}
