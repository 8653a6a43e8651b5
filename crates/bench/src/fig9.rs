//! Fig. 9: hybrid MPI×OpenMP sweep for many Green's functions.
//!
//! The paper computes selected inversions of 2400 Hubbard matrices on
//! 100 Edison nodes (2400 cores), sweeping the split
//! `(#MPI processes) × (#OpenMP threads/process)` ∈
//! {200×12, 400×6, 800×3, 1200×2, 2400×1} for
//! `N ∈ {400, 576, 784, 1024}`. Findings to reproduce in shape:
//!
//! 1. pure MPI (t = 1) is fastest **when it fits** (N = 400 only);
//! 2. for N ≥ 576 the per-rank memory exceeds the node budget → OOM, and
//!    the best feasible configuration is a hybrid split;
//! 3. throughput varies mildly across feasible hybrid splits.
//!
//! Locally we run a sweep on in-process ranks — smoke: 16 matrices,
//! `(N, L, c) = (16, 20, 5)` over 8 cores; paper: 96 matrices,
//! `(400, 100, 10)` over 24 — and print the paper-scale feasibility matrix
//! from the Edison memory model.

use fsi_pcyclic::{BlockBuilder, HubbardParams, SquareLattice};
use fsi_selinv::{per_rank_bytes, run_multi, trace_measure, MemoryModel, MultiConfig, Pattern};

use crate::{Scale, Trace, Verdict};

const HEADER: &str = "   ranks    threads      seconds      Gflop/s    sum tr G(k,k)\n";

/// One ranks × threads split of the local sweep, and the physics it
/// computed: `Σ_k tr G(k, k)` over all matrices.
pub struct Split {
    pub ranks: usize,
    pub threads: usize,
    pub trace_sum: f64,
}

/// Fig. 9.
pub struct Table {
    pub splits: Vec<Split>,
    /// Per-node (ranks, threads) configurations of the Edison model.
    pub configurations: Vec<(usize, usize)>,
    /// Per paper `N`: feasibility per configuration.
    pub frontier: Vec<(usize, Vec<bool>)>,
}

/// Runs every ranks × threads split of the core budget and evaluates the
/// Edison model at the paper's block sizes.
pub fn run(scale: Scale) -> Table {
    let tracer = Trace::start("fig9");
    let (cores, matrices): (usize, usize) = scale.pick((8, 16), (24, 96));
    let shape = scale.shape([16, 20, 5], [400, 100, 10]);
    let params = HubbardParams::paper_validation(shape.l);
    let builder = BlockBuilder::new(SquareLattice::square(shape.side()), params);
    print!("{matrices} matrices, {shape}, budget = {cores} 'cores'\n\n{HEADER}");
    let splits = (1..=cores)
        .filter(|t| cores.is_multiple_of(*t))
        .map(|threads| {
            let ranks = cores / threads;
            let cfg = MultiConfig {
                ranks,
                threads_per_rank: threads,
                matrices,
                c: shape.c,
                pattern: Pattern::Columns,
                seed: 2400,
            };
            // The span context propagates into the rank threads, so the
            // span's flop total covers all ranks of this split.
            let span = fsi_runtime::trace::span("multi");
            let r = run_multi(&builder, &cfg, &trace_measure).expect("healthy");
            let gflops = span.finish().flops as f64 / r.seconds / 1e9;
            let trace_sum = r.global_measurements[0];
            let cols = format!("{:>12.3} {gflops:>12.2} {trace_sum:>16.6}", r.seconds);
            println!("{ranks:>8} {threads:>10} {cols}");
            Split {
                ranks,
                threads,
                trace_sum,
            }
        });
    let splits = splits.collect();
    tracer.finish(None);

    // Paper-scale feasibility from the Edison node-memory model: which
    // point of Fig. 9's x-axis exists at all, per N.
    println!("\nEdison memory model, (L, c) = (100, 10), columns pattern");
    println!("(per-node configs; Fig. 9 runs 100 such nodes):");
    let model = MemoryModel::edison();
    let configurations = model.configurations();
    print!("{:>6} {:>10}", "N", "GB/rank");
    for (r, t) in &configurations {
        print!(" {:>7}", format!("{r}x{t}"));
    }
    let frontier = [400, 576, 784, 1024].map(|n| {
        let bytes = per_rank_bytes(n, 100, 10, Pattern::Columns);
        print!("\n{n:>6} {:>10.2}", bytes as f64 / (1u64 << 30) as f64);
        let feasible = configurations
            .iter()
            .map(|&(r, _)| model.feasible(r, bytes));
        let feasible: Vec<bool> = feasible.collect();
        for &ok in &feasible {
            print!(" {:>7}", if ok { "ok" } else { "OOM" });
        }
        (n, feasible)
    });
    println!();
    Table {
        splits,
        configurations,
        frontier: frontier.into(),
    }
}

/// Fig. 9: every split computes the same `Σ tr G`, and in the Edison
/// model pure MPI (one thread per rank) fits only at N = 400.
pub fn verdict(t: &Table) -> Verdict {
    let first = t.splits.first().ok_or("no split ran")?;
    if let Some(s) = t.splits.iter().find(|s| s.trace_sum != first.trace_sum) {
        let (a, b) = (first.trace_sum, s.trace_sum);
        return Err(format!(
            "sum tr G is {a} at {}x{}, {b} at {}x{}",
            first.ranks, first.threads, s.ranks, s.threads
        ));
    }
    let pure_mpi = t
        .configurations
        .iter()
        .position(|&(_, threads)| threads == 1);
    let pure_mpi = pure_mpi.ok_or("the model has no pure-MPI configuration")?;
    match t
        .frontier
        .iter()
        .find(|(n, ok)| ok[pure_mpi] != (*n == 400))
    {
        Some((n, _)) => Err(format!("pure MPI fits at N = {n} only if N = 400 (paper)")),
        None => Ok(()),
    }
}
