//! The hybrid ranks×threads application of FSI to many Green's functions
//! (paper Alg. 3 / Fig. 9): deal the HS fields to the ranks' deques by the
//! paper's block distribution, run FSI per matrix under each rank's thread
//! pool (a rank that runs dry steals), reduce measurement quantities in
//! matrix order — plus the Edison memory model that decides which
//! configurations are feasible at paper scale.
//!
//! Run with: `cargo run --release --example hybrid_multi_green`

use fsi::pcyclic::{BlockBuilder, HubbardParams, SquareLattice};
use fsi::selinv::{per_rank_bytes, run_multi, trace_measure, MemoryModel, MultiConfig, Pattern};

fn main() {
    // Local run: 12 matrices over a few rank×thread configurations.
    let lattice = SquareLattice::square(4);
    let builder = BlockBuilder::new(lattice, HubbardParams::paper_validation(16));
    println!("local hybrid sweep: 12 Hubbard matrices, N = 16, L = 16, c = 4\n");
    println!(
        "{:>6} {:>9} {:>12} {:>14} {:>12}",
        "ranks", "threads", "seconds", "sum tr G(k,k)", "blocks"
    );
    let mut reference: Option<f64> = None;
    for (ranks, threads) in [(1usize, 2usize), (2, 1), (4, 1), (2, 2)] {
        let cfg = MultiConfig {
            ranks,
            threads_per_rank: threads,
            matrices: 12,
            c: 4,
            pattern: Pattern::Columns,
            seed: 99,
        };
        let r = run_multi(&builder, &cfg, &trace_measure).expect("healthy");
        println!(
            "{:>6} {:>9} {:>12.3} {:>14.6} {:>12}",
            ranks, threads, r.seconds, r.global_measurements[0], r.global_measurements[1]
        );
        // Physics must be identical across configurations (same seed).
        match reference {
            None => reference = Some(r.global_measurements[0]),
            Some(want) => assert!(
                (r.global_measurements[0] - want).abs() < 1e-6 * want.abs().max(1.0),
                "configuration changed the physics!"
            ),
        }
    }

    // The paper-scale memory feasibility analysis behind Fig. 9.
    println!("\nEdison memory model, (L, c) = (100, 10), columns pattern:");
    let model = MemoryModel::edison();
    println!(
        "{:>6} {:>14} {:>10} {:>10} {:>10} {:>10}",
        "N", "GB/rank", "24x1", "12x2", "4x6", "1x24"
    );
    for n in [400usize, 576, 784, 1024] {
        let bytes = per_rank_bytes(n, 100, 10, Pattern::Columns);
        let gb = bytes as f64 / (1u64 << 30) as f64;
        let feas = |ranks: usize| {
            if model.feasible(ranks, bytes) {
                "ok"
            } else {
                "OOM"
            }
        };
        println!(
            "{:>6} {:>14.2} {:>10} {:>10} {:>10} {:>10}",
            n,
            gb,
            feas(24),
            feas(12),
            feas(4),
            feas(1)
        );
    }
    println!("\n(as in the paper: pure MPI is fastest where it fits — N = 400 —");
    println!(" but OOMs from N = 576 on, where the hybrid model wins)");
}
