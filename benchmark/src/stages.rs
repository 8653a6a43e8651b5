//! The FSI call taken apart from outside: the same public stage functions
//! `fsi_with_q` calls, in the same order with the same arguments, each
//! under a span and an allocation reading. The composition returns
//! bitwise what `fsi_with_q` returns (tested for all four patterns), so
//! stage times and counts add up to the real call.

use fsi_dense::Matrix;
use fsi_pcyclic::BlockPCyclic;
use fsi_runtime::health::{self, FsiResult, Stage};
use fsi_selinv::wrap::{wrap, wrap_all_diagonals, wrap_flops, wrap_selected};
use fsi_selinv::{
    bsofi, bsofi_selected, bsofi_selected_flops, cls, cls_flops, Clustered, Parallelism, Pattern,
    ReducedInverse, SelectedInverse, SelectedPattern, Selection, StructuredQr,
};

use crate::alloc::{self, Tally};
use crate::trace::Tracer;

/// Span names of the three stages and the two halves of BSOFI.
pub const CLS: &str = "selinv.cls";
/// BSOFI as a whole (factor + assemble + probes).
pub const BSOFI: &str = "selinv.bsofi";
/// Stage A: the structured QR.
pub const BSOFI_FACTOR: &str = "selinv.bsofi_factor";
/// Stages B + C: `R⁻¹Qᵀ`, dense or pattern-restricted.
pub const BSOFI_ASSEMBLE: &str = "selinv.bsofi_assemble";
/// The wrapping stage.
pub const WRAP: &str = "selinv.wrap";

/// Allocations made inside each stage, summed over the calls recorded
/// into it (the workloads use one per traced op).
#[derive(Clone, Copy, Debug, Default)]
pub struct StageAllocs {
    /// Inside CLS.
    pub cls: Tally,
    /// Inside BSOFI.
    pub bsofi: Tally,
    /// Inside WRP.
    pub wrap: Tally,
}

fn add(into: &mut Tally, t: Tally) {
    into.calls += t.calls;
    into.bytes += t.bytes;
}

/// What the staged call hands back: the selection plus the intermediates
/// a measurement set's further wraps start from.
pub struct Staged {
    /// The selected inversion, bitwise equal to `fsi_with_q`'s.
    pub selected: SelectedInverse,
    /// The clustering used.
    pub clustered: Clustered,
    /// The reduced inverse the wrap consumed.
    pub g_reduced: ReducedInverse,
}

/// `fsi_with_q(par, pc, selection)` stage by stage.
///
/// # Errors
/// The same health-probe failures, at the same points, as `fsi_with_q`.
pub fn staged_fsi(
    par: Parallelism<'_>,
    pc: &BlockPCyclic,
    selection: &Selection,
    tr: &mut Tracer,
    allocs: &mut StageAllocs,
) -> FsiResult<Staged> {
    let (outer, inner) = par.split();

    let s = tr.enter(CLS);
    let before = alloc::now();
    let clustered = cls(outer, inner, pc, selection.c, selection.q);
    for m in 0..clustered.b() {
        health::check_block(Stage::Cls, m, clustered.reduced.block(m).as_slice())?;
    }
    add(&mut allocs.cls, alloc::now().since(before));
    tr.exit(s);

    let s = tr.enter(BSOFI);
    let before = alloc::now();
    let reduced = &clustered.reduced;
    let seed_pattern = SelectedPattern::for_wrap(selection.pattern);
    let g_reduced = if reduced.l() == 1 {
        // One cluster: the degenerate paths have no separate factor.
        match seed_pattern {
            SelectedPattern::Full => ReducedInverse::Dense(bsofi(outer, inner, reduced)),
            p => ReducedInverse::Selected(bsofi_selected(outer, inner, reduced, &p)?),
        }
    } else {
        let factor = tr.leaf(BSOFI_FACTOR, || {
            StructuredQr::factor_lookahead(outer, inner, reduced)
        });
        factor.check_health()?;
        match seed_pattern {
            SelectedPattern::Full => {
                ReducedInverse::Dense(tr.leaf(BSOFI_ASSEMBLE, || factor.inverse(outer, inner)))
            }
            p => ReducedInverse::Selected(
                tr.leaf(BSOFI_ASSEMBLE, || factor.selected(outer, inner, &p)),
            ),
        }
    };
    match &g_reduced {
        ReducedInverse::Dense(g) => health::check_block(Stage::Bsofi, 0, g.as_slice())?,
        ReducedInverse::Selected(seeds) => {
            for (k, l) in seeds.sorted_coordinates() {
                let blk = seeds.get(k, l).expect("coordinate just listed");
                health::check_block(Stage::Bsofi, k, blk.as_slice())?;
            }
        }
    }
    add(&mut allocs.bsofi, alloc::now().since(before));
    tr.exit(s);

    let s = tr.enter(WRAP);
    let before = alloc::now();
    let selected = match &g_reduced {
        ReducedInverse::Dense(g) => wrap(outer, pc, &clustered, g, selection)?,
        ReducedInverse::Selected(seeds) => wrap_selected(outer, pc, &clustered, seeds, selection)?,
    };
    add(&mut allocs.wrap, alloc::now().since(before));
    tr.exit(s);

    Ok(Staged {
        selected,
        clustered,
        g_reduced,
    })
}

/// `fsi_measurement_set(par, pc, c, q)` stage by stage: the rows
/// selection through [`staged_fsi`], then the columns and all-diagonals
/// wraps from the same reduced inverse, all three under `selinv.wrap`.
/// Returns `(merged, diagonals)` bitwise equal to the real call's.
///
/// # Errors
/// As `fsi_measurement_set`.
pub fn staged_measurement_set(
    par: Parallelism<'_>,
    pc: &BlockPCyclic,
    c: usize,
    q: usize,
    tr: &mut Tracer,
    allocs: &mut StageAllocs,
) -> FsiResult<(SelectedInverse, SelectedInverse)> {
    let (outer, _) = par.split();
    let rows = staged_fsi(par, pc, &Selection::new(Pattern::Rows, c, q), tr, allocs)?;
    let g = rows
        .g_reduced
        .dense()
        .expect("rows selection materializes the dense reduced inverse");
    let s = tr.enter(WRAP);
    let before = alloc::now();
    let mut merged = rows.selected;
    let cols = wrap(
        outer,
        pc,
        &rows.clustered,
        g,
        &Selection::new(Pattern::Columns, c, q),
    )?;
    merged.merge(cols);
    let diags = wrap_all_diagonals(outer, pc, &rows.clustered, g)?;
    merged.merge(diags.clone());
    add(&mut allocs.wrap, alloc::now().since(before));
    tr.exit(s);
    Ok((merged, diags))
}

/// Closed-form flop counts of one call, per stage.
#[derive(Clone, Copy, Debug)]
pub struct ModelFlops {
    /// `cls_flops`.
    pub cls: u64,
    /// `bsofi_selected_flops` for the pattern's seed shape.
    pub bsofi: u64,
    /// `wrap_flops` (0 for the diagonal pattern, whose seeds are the
    /// answer; `3bN³` for one right-step per sub-diagonal block).
    pub wrap: u64,
}

impl ModelFlops {
    /// The whole call.
    pub fn total(&self) -> u64 {
        self.cls + self.bsofi + self.wrap
    }
}

/// The model for `fsi_with_q` on an `(N, L, c)` matrix.
pub fn model_flops(pattern: Pattern, n: usize, l: usize, c: usize) -> ModelFlops {
    let b = l / c;
    let n3 = (n as u64).pow(3);
    ModelFlops {
        cls: cls_flops(n, l, c),
        bsofi: bsofi_selected_flops(n, b, &SelectedPattern::for_wrap(pattern)),
        wrap: match pattern {
            Pattern::Diagonal => 0,
            Pattern::SubDiagonal => 3 * b as u64 * n3,
            Pattern::Columns | Pattern::Rows => wrap_flops(n, l, c),
        },
    }
}

/// The model for `fsi_measurement_set`: one rows call plus the columns
/// wrap plus `L − b` diagonal steps of one product and one solve each.
pub fn measurement_set_flops(n: usize, l: usize, c: usize) -> ModelFlops {
    let mut m = model_flops(Pattern::Rows, n, l, c);
    let b = l / c;
    m.wrap += wrap_flops(n, l, c) + 4 * (l - b) as u64 * (n as u64).pow(3);
    m
}

/// Relative residual of `M·G = I` over block columns `cols` of a
/// selection that holds those columns in full:
/// `G(k,ℓ) − s_k·B_k·G(k−1,ℓ) = δ_{kℓ}·I` with `s_0 = −1` (the corner
/// block of the p-cyclic matrix has the opposite sign) and `s_k = +1`
/// otherwise. Per column, the Frobenius norm of the residual over that
/// of the column; the maximum over `cols`.
///
/// # Panics
/// If a block of a listed column is missing.
pub fn columns_residual(pc: &BlockPCyclic, g: &SelectedInverse, cols: &[usize]) -> f64 {
    let l = pc.l();
    let mut worst = 0.0f64;
    for &col in cols {
        let (mut res2, mut col2) = (0.0f64, 0.0f64);
        for k in 0..l {
            let block = |row: usize| -> &Matrix {
                g.get(row, col)
                    .unwrap_or_else(|| panic!("block ({row},{col}) missing from the selection"))
            };
            let gk = block(k);
            let mut r = fsi_dense::mul(pc.block(k), block(pc.up(k)));
            r.scale(if k == 0 { 1.0 } else { -1.0 });
            r.add_assign(gk);
            if k == col {
                r.add_diag(-1.0);
            }
            res2 += r.as_slice().iter().map(|x| x * x).sum::<f64>();
            col2 += gk.as_slice().iter().map(|x| x * x).sum::<f64>();
        }
        worst = worst.max((res2 / col2).sqrt());
    }
    worst
}

/// Whether two selections hold the same coordinates with bitwise equal
/// blocks.
pub fn bitwise_equal(a: &SelectedInverse, b: &SelectedInverse) -> bool {
    a.len() == b.len()
        && a.iter().all(|(&(k, l), blk)| {
            b.get(k, l).is_some_and(|other| {
                blk.as_slice()
                    .iter()
                    .zip(other.as_slice())
                    .all(|(x, y)| x.to_bits() == y.to_bits())
                    && blk.rows() == other.rows()
            })
        })
}
