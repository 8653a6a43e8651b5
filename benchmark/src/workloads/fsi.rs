//! `fsi_cols_n64` and `fsi_diag_n144`: one op is one serial
//! `fsi_with_q` call on one Hubbard matrix.
//!
//! The two shapes put the time in different stages on purpose. Columns
//! at N=64, L=128, c=16 is wrap-bound and allocation-heavy (every wrap
//! step returns a fresh block); Diagonal at N=144, L=64, c=4 is
//! BSOFI-bound, bypasses the wrap (the seeds are the answer) and its
//! blocks are five times larger, so kernels, not allocation, dominate.

use std::time::Instant;

use fsi_pcyclic::{
    hubbard_pcyclic, BlockBuilder, BlockPCyclic, HsField, HubbardParams, Spin, SquareLattice,
};
use fsi_runtime::ThreadPool;
use fsi_selinv::baselines::{explicit_selected, max_block_error};
use fsi_selinv::{fsi_with_q, Parallelism, Pattern, SelectedInverse, Selection};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use super::{end_to_end, par_speedup, selinv_stage_metrics, write_trace, MIN_PAIRS, OP};
use crate::report::{RunResult, Values};
use crate::stages::{
    bitwise_equal, columns_residual, model_flops, staged_fsi, StageAllocs, BSOFI, CLS, WRAP,
};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{probes, repeat_setup, threads, RunArgs, WorkDir};

/// Shape of one FSI workload.
pub struct FsiShape {
    /// Workload name.
    pub name: &'static str,
    /// Lattice side; `N = side²`.
    pub side: usize,
    /// Time slices `L`.
    pub l: usize,
    /// Cluster size `c`.
    pub c: usize,
    /// Selection pattern.
    pub pattern: Pattern,
}

/// Wrap-bound: N=64, L=128, c=16 (b=8), block columns.
pub const COLS_N64: FsiShape = FsiShape {
    name: "fsi_cols_n64",
    side: 8,
    l: 128,
    c: 16,
    pattern: Pattern::Columns,
};

/// BSOFI-bound: N=144, L=64, c=4 (b=16), diagonal blocks.
pub const DIAG_N144: FsiShape = FsiShape {
    name: "fsi_diag_n144",
    side: 12,
    l: 64,
    c: 4,
    pattern: Pattern::Diagonal,
};

/// Untimed calls before the first timed one.
const WARMUP_OPS: usize = 3;
/// Largest relative error an output may show.
const TOLERANCE: f64 = 1e-10;

struct Input {
    builder: BlockBuilder,
    field: HsField,
    pc: BlockPCyclic,
    selection: Selection,
}

/// Builds the matrix from `seed` and warms the call up.
fn setup(shape: &FsiShape, seed: u64) -> Input {
    let builder = BlockBuilder::new(
        SquareLattice::square(shape.side),
        HubbardParams::paper_validation(shape.l),
    );
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let field = HsField::random(shape.l, shape.side * shape.side, &mut rng);
    let pc = hubbard_pcyclic(&builder, &field, Spin::Up);
    let selection = Selection::new(shape.pattern, shape.c, rng.gen_range(0..shape.c));
    for _ in 0..WARMUP_OPS {
        // A failing warm-up fails again, visibly, as the first timed op.
        let _ = fsi_with_q(Parallelism::Serial, &pc, &selection);
    }
    Input {
        builder,
        field,
        pc,
        selection,
    }
}

/// Checks outputs against an independent statement of correctness:
/// columns against `M·G = I`, diagonals against the explicit expression.
struct Checker<'a> {
    input: &'a Input,
    reference: Option<SelectedInverse>,
    worst: f64,
}

impl<'a> Checker<'a> {
    fn new(input: &'a Input) -> Self {
        Checker {
            input,
            reference: None,
            worst: 0.0,
        }
    }

    /// Relative error of `out`; also folded into `self.worst`.
    fn error(&mut self, out: &SelectedInverse) -> f64 {
        let Input { pc, selection, .. } = self.input;
        let err = match selection.pattern {
            Pattern::Columns => columns_residual(pc, out, &selection.index_set(pc.l())),
            _ => {
                let reference = self
                    .reference
                    .get_or_insert_with(|| explicit_selected(fsi_runtime::Par::Seq, pc, selection));
                if out.len() == reference.len() {
                    max_block_error(out, reference)
                } else {
                    f64::INFINITY
                }
            }
        };
        self.worst = self.worst.max(err);
        err
    }
}

/// Runs one FSI workload.
///
/// # Errors
/// Environment failures only; see [`super::run`].
pub fn run(shape: &FsiShape, args: &RunArgs) -> Result<RunResult, String> {
    if args.traced {
        traced(shape, args)
    } else {
        untraced(shape, args)
    }
}

fn untraced(shape: &FsiShape, args: &RunArgs) -> Result<RunResult, String> {
    let (input, setup_s) = repeat_setup(|| setup(shape, args.seed), drop);
    let mut checker = Checker::new(&input);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut op_seconds = Vec::new();
    // Timed wall: calls plus the release of their outputs; the checks of
    // the first and last outputs sit between the two and are not timed.
    let mut wall = 0.0;
    while wall < args.seconds {
        let t = Instant::now();
        let out = fsi_with_q(Parallelism::Serial, &input.pc, &input.selection);
        let dt = t.elapsed().as_secs_f64();
        wall += dt;
        attempted += 1;
        match out {
            Ok(out) => {
                let mut ok = true;
                if attempted == 1 || wall >= args.seconds {
                    ok = checker.error(&out.selected) <= TOLERANCE;
                }
                let t = Instant::now();
                drop(out);
                wall += t.elapsed().as_secs_f64();
                if ok {
                    op_seconds.push(dt);
                } else {
                    failed += 1;
                }
            }
            Err(e) => {
                eprintln!("{}: op {attempted} failed: {e}", shape.name);
                failed += 1;
            }
        }
    }
    eprintln!(
        "{}: max relative error of checked outputs {:.3e} (tolerance {TOLERANCE:e})",
        shape.name, checker.worst
    );
    let values = end_to_end(shape.name, &op_seconds, wall, setup_s)?;
    Ok(RunResult::finish(
        false,
        true,
        attempted,
        failed,
        op_seconds.len(),
        &values,
    ))
}

fn traced(shape: &FsiShape, args: &RunArgs) -> Result<RunResult, String> {
    let started = Instant::now();
    let work = WorkDir::create().map_err(|e| e.to_string())?;
    let input = setup(shape, args.seed);
    let Input { pc, selection, .. } = &input;
    let (n, b) = (pc.n(), shape.l / shape.c);
    let pool = ThreadPool::new(threads());
    let mut v = Values::new();

    probes::dense(n, b, &mut v);
    probes::runtime(&pool, work.path(), &mut v).map_err(|e| e.to_string())?;

    probes::pcyclic_build(&input.builder, &input.field, &mut v);

    v.set(
        "selinv.par_speedup",
        par_speedup(&pool, |par| {
            let _ = fsi_with_q(par, pc, selection);
        }),
    );

    // Pairs of one whole call and one staged call on the same input, so
    // that both medians see the same machine state.
    let mut tr = Tracer::new(started);
    let mut allocs: Vec<StageAllocs> = Vec::new();
    let mut checker = Checker::new(&input);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut whole_seconds = Vec::new();
    let mut pairs = 0usize;
    let mut decomposition_ok = true;
    let mut blocks_out = 0;
    loop {
        let t = Instant::now();
        let whole = fsi_with_q(Parallelism::Serial, pc, selection);
        let dt = t.elapsed().as_secs_f64();
        attempted += 1;
        match &whole {
            Ok(_) => whole_seconds.push(dt),
            Err(e) => {
                eprintln!("{}: whole op failed: {e}", shape.name);
                failed += 1;
            }
        }
        // Every pair but the first releases the whole output first, as
        // the untraced run does.
        let keep = whole.ok().filter(|_| pairs == 0);

        tr.set_op(pairs as u64);
        let op = tr.enter(OP);
        let mut op_allocs = StageAllocs::default();
        let staged = staged_fsi(Parallelism::Serial, pc, selection, &mut tr, &mut op_allocs);
        attempted += 1;
        pairs += 1;
        let last = started.elapsed().as_secs_f64() >= args.seconds && pairs >= MIN_PAIRS;
        match staged {
            Ok(staged) => {
                tr.exit(op);
                allocs.push(op_allocs);
                blocks_out = staged.selected.len();
                if let Some(whole) = keep {
                    decomposition_ok = bitwise_equal(&staged.selected, &whole.selected);
                }
                if (pairs == 1 || last) && checker.error(&staged.selected) > TOLERANCE {
                    failed += 1;
                }
            }
            Err(e) => {
                tr.close_all();
                eprintln!("{}: staged op failed: {e}", shape.name);
                failed += 1;
            }
        }
        if last {
            break;
        }
    }
    if !decomposition_ok {
        eprintln!(
            "{}: the staged composition is NOT bitwise equal to fsi_with_q",
            shape.name
        );
    }

    let model = model_flops(shape.pattern, n, shape.l, shape.c);
    let ceiling = v.get("dense.gemm_batched_gflops").unwrap_or(0.0);
    selinv_stage_metrics(&tr, &allocs, &model, ceiling, &mut v);
    let whole_p50 = median(&whole_seconds);
    let stage_sums: Vec<f64> = tr
        .per_op(CLS)
        .iter()
        .zip(tr.per_op(BSOFI))
        .zip(tr.per_op(WRAP))
        .map(|((c, b), w)| c + b + w)
        .collect();
    if whole_p50 > 0.0 {
        v.set("selinv.stage_sum_ratio", median(&stage_sums) / whole_p50);
        v.set(
            "runtime.trace_overhead_frac",
            median(&tr.per_op(OP)) / whole_p50 - 1.0,
        );
    }
    v.set("selinv.blocks_out", blocks_out as f64);
    v.set("selinv.max_rel_err", checker.worst);
    write_trace(&tr, shape.name)?;
    Ok(RunResult::finish(
        true,
        decomposition_ok,
        attempted,
        failed,
        allocs.len(),
        &v,
    ))
}
