//! # fsi-bench — the paper's tables and figures on today's engine
//!
//! One binary, `reproduce <name>|all [--paper-scale]`, runs the figures
//! of [`FIGURES`] (DESIGN.md §4 maps them to the paper):
//!
//! | name                       | reproduces                                        |
//! |----------------------------|---------------------------------------------------|
//! | `validate`                 | §V-A correctness validation                       |
//! | `table_patterns`           | §II-B selected-block counts & memory reduction    |
//! | `table_complexity`         | §II-C flop-complexity table (formula vs measured) |
//! | `ablation_cluster_size`    | §II-C: cluster size `c` vs speed and accuracy     |
//! | `ablation_wrap_split`      | Alg. 2's split walk vs a one-directional walk     |
//! | `ablation_schedule`        | static vs dynamic parallel-for scheduling         |
//! | `ablation_delayed_updates` | delayed vs immediate Metropolis updates           |
//! | `fig8_top`                 | FSI per-stage Gflop/s vs block size N             |
//! | `fig8_bottom`              | thread scalability, FSI-OpenMP vs MKL-style       |
//! | `fig9`                     | hybrid ranks×threads sweep + memory model         |
//! | `fig10`                    | Green's-function vs measurement runtime profile   |
//! | `fig11`                    | full DQMC runtime vs threads                      |
//!
//! Each figure is a module whose `run(Scale)` prints the figure. A figure
//! whose paper claim is a shape that does not depend on timing — exact
//! counts, who wins, what is monotone, where a frontier falls — returns
//! the table of that claim, and its `verdict(&table)` checks it;
//! `tests/paper_shapes.rs` asserts every verdict at smoke scale.
//!
//! Timing claims belong to the layered benchmark under `benchmark/`, not
//! to this crate.

#![warn(unreachable_pub)]

use std::fmt::Display;

use fsi_pcyclic::BlockPCyclic;
use fsi_pcyclic::{hubbard_pcyclic, BlockBuilder, HsField, HubbardParams, Spin, SquareLattice};
use fsi_runtime::trace::{self, RunReport};
use fsi_runtime::{Par, Stopwatch, ThreadPool, TraceLevel};
use fsi_selinv::{Selection, StructuredQr};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sim::AlgorithmTrace;

pub mod ablation_cluster_size;
mod ablation_delayed_updates;
mod ablation_schedule;
pub mod ablation_wrap_split;
mod fig10;
mod fig11;
mod fig8_bottom;
mod fig8_top;
pub mod fig9;
pub mod table_complexity;
pub mod table_patterns;
pub mod validate;

mod sim;

/// The shape a figure runs at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The scaled-down shape: every figure, in seconds.
    Smoke,
    /// The paper's own parameters, for the figures that have them.
    Paper,
}

impl Scale {
    /// `smoke` if `self` is [`Scale::Smoke`], else `paper`.
    pub(crate) fn pick<T>(self, smoke: T, paper: T) -> T {
        match self {
            Scale::Smoke => smoke,
            Scale::Paper => paper,
        }
    }

    /// The `[N, L, c]` shape of this scale.
    pub(crate) fn shape(self, smoke: [usize; 3], paper: [usize; 3]) -> Shape {
        let [n, l, c] = self.pick(smoke, paper);
        Shape { n, l, c }
    }
}

/// A figure's block size, block count and cluster size; prints as
/// `(N, L, c) = (n, l, c)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shape {
    pub n: usize,
    pub l: usize,
    pub c: usize,
}

impl Shape {
    /// The side of the square lattice with `n` sites (every figure's `N`
    /// is a perfect square).
    pub(crate) fn side(&self) -> usize {
        lattice_side_for(self.n)
    }
}

impl Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "(N, L, c) = ({}, {}, {})", self.n, self.l, self.c)
    }
}

/// Outcome of a figure's paper-shape verdict: `Err` names the broken claim.
pub(crate) type Verdict = Result<(), String>;

/// One entry of `reproduce`'s menu.
pub struct Figure {
    /// The name `reproduce` takes, and the stem of the trace files.
    pub name: &'static str,
    /// Whether the figure runs at [`Scale::Paper`].
    pub paper_shape: bool,
    /// Runs the figure, printing its table, and returns its verdict.
    pub run: fn(Scale) -> Verdict,
}

/// The [`Figure`] of module `$m`. With `verdict`, `$m::run` returns the
/// table `$m::verdict` checks; without, the figure's shape claim is about
/// timing and its printed shape line is the whole check.
macro_rules! figure {
    ($m:ident, $paper:expr) => {
        Figure {
            name: stringify!($m),
            paper_shape: $paper,
            run: |s| {
                $m::run(s);
                Ok(())
            },
        }
    };
    ($m:ident, $paper:expr, verdict) => {
        Figure {
            name: stringify!($m),
            paper_shape: $paper,
            run: |s| $m::verdict(&$m::run(s)),
        }
    };
}

/// Every figure, in `reproduce all` order.
pub static FIGURES: [Figure; 12] = [
    figure!(validate, true, verdict),
    figure!(table_patterns, true, verdict),
    figure!(table_complexity, true, verdict),
    figure!(ablation_cluster_size, false, verdict),
    figure!(ablation_wrap_split, false, verdict),
    figure!(ablation_schedule, false),
    figure!(ablation_delayed_updates, true),
    figure!(fig8_top, true),
    figure!(fig8_bottom, true),
    figure!(fig9, true, verdict),
    figure!(fig10, true),
    figure!(fig11, true),
];

/// The figures `reproduce <name>` runs at `scale` (`name` may be `all`),
/// and the ones `all` skips at [`Scale::Paper`] for want of a paper shape.
///
/// # Errors
/// An unknown name, or a figure without a paper shape at [`Scale::Paper`].
pub fn select(
    name: &str,
    scale: Scale,
) -> Result<(Vec<&'static Figure>, Vec<&'static str>), String> {
    if name == "all" {
        let (run, skip): (Vec<_>, Vec<_>) = FIGURES
            .iter()
            .partition(|f| scale == Scale::Smoke || f.paper_shape);
        return Ok((run, skip.iter().map(|f| f.name).collect()));
    }
    match FIGURES.iter().find(|f| f.name == name) {
        None => Err(format!("unknown name `{name}`")),
        Some(f) if scale == Scale::Paper && !f.paper_shape => {
            Err(format!("{name} has no paper shape"))
        }
        Some(f) => Ok((vec![f], vec![])),
    }
}

/// Builds a Hubbard p-cyclic matrix for an `nx × nx` lattice (the paper's
/// benchmark family, `(t, β, U) = (1, 1, 2)`).
fn hubbard_matrix(nx: usize, l: usize, seed: u64, spin: Spin) -> BlockPCyclic {
    hubbard_matrix_at(nx, HubbardParams::paper_validation(l), seed, spin)
}

/// A Hubbard p-cyclic matrix of the 2×2 lattice at low temperature
/// (`t = 1`, `U = 4`, inverse temperature `beta`), whose wildly scaled `B`
/// products make round-off visible at laptop scale.
fn low_temperature_matrix(l: usize, beta: f64, seed: u64, spin: Spin) -> BlockPCyclic {
    hubbard_matrix_at(
        2,
        HubbardParams {
            t: 1.0,
            u: 4.0,
            beta,
            l,
        },
        seed,
        spin,
    )
}

fn hubbard_matrix_at(nx: usize, params: HubbardParams, seed: u64, spin: Spin) -> BlockPCyclic {
    let field = HsField::random(params.l, nx * nx, &mut ChaCha8Rng::seed_from_u64(seed));
    hubbard_pcyclic(
        &BlockBuilder::new(SquareLattice::square(nx), params),
        &field,
        spin,
    )
}

/// Returns the side of the smallest square lattice with at least `n`
/// sites (the paper's `N` values are all perfect squares, so they map
/// exactly).
fn lattice_side_for(n: usize) -> usize {
    (1..)
        .find(|s| s * s >= n)
        .expect("some side is large enough")
}

/// Runs FSI sequentially on `pc`, timing every independent task of every
/// stage, and builds the two scheduling traces of [`schedule_traces`] for
/// the simulator (used by `fig8_bottom` and `ablation_schedule` when the
/// host has fewer cores than the paper's socket; see DESIGN.md
/// substitutions).
fn trace_fsi(pc: &BlockPCyclic, selection: &Selection) -> (AlgorithmTrace, AlgorithmTrace) {
    let (c, q, l) = (selection.c, selection.q, pc.l());
    let b = l / c;
    // --- CLS: time each cluster chain. ---
    let cls_tasks: Vec<f64> = (0..b)
        .map(|m| {
            let sw = Stopwatch::start();
            let mut idx = (c * m + c - 1 - q) % l;
            let mut acc = pc.block(idx).clone();
            for _ in 1..c {
                idx = pc.up(idx);
                acc = fsi_dense::mul(&acc, pc.block(idx));
            }
            std::hint::black_box(acc);
            sw.seconds()
        })
        .collect();
    let clustered = fsi_selinv::cls(Par::Seq, Par::Seq, pc, c, q);

    // --- BSOFI: stage A serial, stages B + C parallel. ---
    let sw = Stopwatch::start();
    let factor = StructuredQr::factor(Par::Seq, &clustered.reduced);
    let bsofi_serial = sw.seconds();
    let sw = Stopwatch::start();
    let g_reduced = factor.inverse(Par::Seq, Par::Seq);
    let bsofi_bc = sw.seconds();

    // --- WRP: time each seed walk. ---
    let factors = fsi_selinv::BlockFactors::new(pc);
    let wrap_tasks: Vec<f64> = (0..b * b)
        .map(|s| {
            let (k0, l0) = (s / b, s % b);
            let (k, col) = (clustered.to_original(k0), clustered.to_original(l0));
            let sw = Stopwatch::start();
            let g_seed = clustered.reduced.dense_block(&g_reduced, k0, l0);
            let (mut cur, mut row) = (g_seed.clone(), k);
            for _ in 0..c / 2 {
                cur = fsi_selinv::wrap::step_up(pc, &factors, &cur, row, col)
                    .expect("Hubbard B blocks are invertible");
                row = pc.up(row);
            }
            let (mut cur, mut row) = (g_seed, k);
            for _ in 0..(c - 1) - c / 2 {
                cur = fsi_selinv::wrap::step_down(pc, &cur, row, col);
                row = pc.down(row);
            }
            sw.seconds()
        })
        .collect();
    schedule_traces(pc.n(), c, &cls_tasks, bsofi_serial, bsofi_bc, &wrap_tasks)
}

/// Builds the two scheduling traces from per-task seconds (one per CLS
/// cluster chain and per wrap seed, plus BSOFI's serial stage A and its
/// stages B+C together): the OpenMP mode's coarse-grained trace of
/// independent tasks, and the MKL-style mode's fine-grained one, each
/// dense kernel split into column-chunk tasks with the serial glue
/// between kernels kept serial.
fn schedule_traces(
    n: usize,
    c: usize,
    cls_tasks: &[f64],
    bsofi_serial: f64,
    bsofi_bc: f64,
    wrap_tasks: &[f64],
) -> (AlgorithmTrace, AlgorithmTrace) {
    // Stage B+C both parallelize over b (or more) independent chunks, so
    // model them as b uniform tasks.
    let b = cls_tasks.len();
    let bsofi_tasks = vec![bsofi_bc / b as f64; b];

    // OpenMP trace: three flat fork/join regions.
    let mut openmp = AlgorithmTrace::default();
    openmp.push_region(cls_tasks.to_vec(), 0.0);
    openmp.push_region(bsofi_tasks, bsofi_serial);
    openmp.push_region(wrap_tasks.to_vec(), 0.0);

    // MKL-style trace: every dense kernel is its own fork/join region
    // whose tasks are column chunks (GEMM parallelism granularity:
    // 32-column panels), with factorization panels kept serial.
    let chunks = (n / 32).max(1);
    let mut mkl = AlgorithmTrace::default();
    for t in cls_tasks {
        // A cluster chain is c−1 sequential gemms; each gemm forks.
        let per_gemm = t / (c - 1).max(1) as f64;
        for _ in 0..c - 1 {
            mkl.push_region(vec![per_gemm / chunks as f64; chunks], 0.0);
        }
    }
    // BSOFI under MKL: panel QRs are mostly level-2 (serial-ish); the
    // inverse phase gemms fork.
    mkl.push_region(Vec::new(), bsofi_serial * 0.7);
    let qr_parallel = bsofi_serial * 0.3;
    mkl.push_region(vec![qr_parallel / chunks as f64; chunks], 0.0);
    mkl.push_region(vec![bsofi_bc / chunks as f64; chunks], 0.0);
    for t in wrap_tasks {
        // Each wrap step is one gemm or one solve; solves have a serial
        // triangular part.
        mkl.push_region(vec![0.7 * t / chunks as f64; chunks], 0.3 * t);
    }
    (openmp, mkl)
}

/// Prints the note of a scaling figure whose largest pool has more
/// threads than the host has cores.
fn few_cores_note(threads: usize) {
    let cores = fsi_runtime::hardware_threads();
    if cores < threads {
        println!("NOTE: host has {cores} core(s); measured columns are flat, simulated columns carry the shape.");
    }
}

/// Run-report wiring of one figure.
///
/// [`Trace::start`] turns on stage-level span collection so a figure can
/// read per-stage flops and rates from the structured collector (the
/// `FSI_TRACE=2` environment setting upgrades to kernel-level spans).
/// [`Trace::finish`] captures the [`fsi_runtime::RunReport`] and, when
/// `FSI_TRACE` is set (and nonzero), writes it as NDJSON to
/// `results/<name>.trace.ndjson` (see `results/schema.md`) plus a Chrome
/// `trace_event` view next to it.
struct Trace(&'static str);

impl Trace {
    fn start(name: &'static str) -> Self {
        if trace::level() == TraceLevel::Off {
            trace::set_level(TraceLevel::Stages);
        }
        trace::clear();
        Trace(name)
    }

    /// Captures the run report accumulated since [`Trace::start`], with
    /// `pool`'s utilization when given, and writes the trace files when
    /// `FSI_TRACE` asks for them.
    fn finish(self, pool: Option<&ThreadPool>) -> RunReport {
        let report = RunReport::capture(self.0);
        let report = match pool {
            Some(p) => report.with_pool(p),
            None => report,
        };
        if std::env::var("FSI_TRACE").is_ok_and(|v| !v.is_empty() && v != "0") {
            let path = std::path::PathBuf::from(format!("results/{}.trace.ndjson", self.0));
            let chrome = path.with_extension("json");
            match report
                .write_ndjson(&path)
                .and_then(|()| report.write_chrome_trace(&chrome))
            {
                Ok(()) => eprintln!("trace: wrote {} and {}", path.display(), chrome.display()),
                Err(e) => eprintln!("trace: export failed: {e}"),
            }
        }
        report
    }
}

/// Gflop/s from flops and seconds (0 for a zero-length interval).
fn gflops(flops: u64, seconds: f64) -> f64 {
    if seconds <= 0.0 {
        0.0
    } else {
        flops as f64 / seconds / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsi_selinv::Pattern;

    #[test]
    fn lattice_side_covers_paper_sizes() {
        assert_eq!(lattice_side_for(256), 16);
        assert_eq!(lattice_side_for(400), 20);
        assert_eq!(lattice_side_for(576), 24);
        assert_eq!(lattice_side_for(1024), 32);
        assert_eq!(lattice_side_for(1), 1);
        assert_eq!(lattice_side_for(10), 4);
    }

    #[test]
    fn trace_fsi_produces_consistent_traces() {
        // L = 12, c = 4: b = 3 clusters and 9 wrap seeds.
        let pc = hubbard_matrix(3, 12, 5, Spin::Up);
        let sel = Selection::new(Pattern::Columns, 4, 1);
        let (openmp, mkl) = trace_fsi(&pc, &sel);
        let tasks: Vec<usize> = openmp.regions.iter().map(|r| r.tasks.len()).collect();
        assert_eq!(tasks, [3, 3, 9]);
        // MKL style: c−1 GEMMs per cluster, three BSOFI regions, one
        // region per wrap seed.
        assert_eq!(mkl.regions.len(), 3 * 3 + 3 + 9);
        assert!(openmp.sequential() > 0.0);
    }

    #[test]
    fn openmp_schedule_outscales_mkl_schedule() {
        // Fixed task times at the N = 64, c = 4, b = 3 shape, so the
        // Fig. 8-bottom contrast does not depend on a stopwatch.
        let (openmp, mkl) = schedule_traces(64, 4, &[1e-3; 3], 2e-3, 3e-3, &[5e-4; 9]);
        let (omp12, mkl12) = (openmp.speedup(12), mkl.speedup(12));
        assert!(
            omp12 > mkl12 * 0.8,
            "openmp {omp12} should rival/beat mkl {mkl12}"
        );
        // A genuine speedup at 2 threads.
        assert!(openmp.speedup(2) > 1.2);
    }

    #[test]
    fn paper_scale_all_skips_exactly_the_figures_without_a_paper_shape() {
        let (run, skipped) = select("all", Scale::Paper).unwrap();
        assert_eq!(run.len(), 9);
        assert_eq!(
            skipped,
            [
                "ablation_cluster_size",
                "ablation_wrap_split",
                "ablation_schedule"
            ]
        );
        assert_eq!(select("all", Scale::Smoke).unwrap().0.len(), FIGURES.len());
        assert!(select("table_patterns", Scale::Paper).is_ok());
        assert!(select("ablation_schedule", Scale::Paper).is_err());
        assert!(select("ablation_schedule", Scale::Smoke).is_ok());
        assert!(select("fig12", Scale::Smoke).is_err());
    }

    #[test]
    fn gflops_helper() {
        assert_eq!(gflops(2_000_000_000, 1.0), 2.0);
        assert_eq!(gflops(1, 0.0), 0.0);
    }
}
