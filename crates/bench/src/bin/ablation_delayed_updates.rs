//! Ablation: delayed (rank-k) vs immediate (rank-1) Green's-function
//! updates in the DQMC sweep.
//!
//! The paper's reference \[4\] (Chang et al., "Recent advances in
//! determinant quantum Monte Carlo") turns the sweep's Level-2 rank-1
//! updates into Level-3 rank-k GEMM flushes. This harness runs identical
//! Monte Carlo trajectories at several batch sizes and reports sweep
//! time — the trajectory equality is asserted, so any time difference is
//! pure kernel-shape effect.

use fsi_bench::{banner, lattice_side_for, Args};
use fsi_dqmc::{SweepConfig, Sweeper};
use fsi_pcyclic::{BlockBuilder, HsField, HubbardParams, SquareLattice};
use fsi_runtime::Stopwatch;
use fsi_selinv::Parallelism;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    let args = Args::parse();
    let paper = args.paper_scale();
    let n_req = args.get_usize("N", if paper { 400 } else { 64 });
    let l = args.get_usize("L", if paper { 100 } else { 24 });
    let c = args.get_usize("c", if paper { 10 } else { 6 });
    let sweeps = args.get_usize("sweeps", 3);
    banner("Ablation: delayed vs immediate Metropolis updates", paper);
    let nx = lattice_side_for(n_req);
    let n = nx * nx;
    println!("(N, L, c) = ({n}, {l}, {c}), {sweeps} sweeps per configuration\n");

    let builder = BlockBuilder::new(
        SquareLattice::square(nx),
        HubbardParams {
            t: 1.0,
            u: 4.0,
            beta: 2.0,
            l,
        },
    );
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let field = HsField::random(l, n, &mut rng);

    println!(
        "{:>8} {:>12} {:>12} {:>14}",
        "delay", "time [s]", "accepted", "trajectory"
    );
    let mut reference: Option<Vec<i8>> = None;
    for delay in [1usize, 4, 8, 16, 32] {
        let cfg = SweepConfig {
            c,
            stabilize_every: c,
            delay,
        };
        let mut sweeper = Sweeper::new(&builder, field.clone(), cfg).expect("healthy");
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let sw = Stopwatch::start();
        let mut accepted = 0;
        for _ in 0..sweeps {
            accepted += sweeper
                .sweep(&mut rng, Parallelism::Serial)
                .expect("healthy")
                .accepted;
        }
        let secs = sw.seconds();
        let traj = sweeper.field().to_flat();
        let same = match &reference {
            None => {
                reference = Some(traj);
                "reference"
            }
            Some(want) => {
                assert_eq!(want, &traj, "delay={delay} changed the physics!");
                "identical"
            }
        };
        println!("{delay:>8} {secs:>12.3} {accepted:>12} {same:>14}");
    }
    println!("\nshape check: larger batches trade Level-2 ger traffic for Level-3 GEMM");
    println!("flushes; the Monte Carlo trajectory is bitwise-identical across batch sizes");
    println!("up to round-off (asserted above).");
}
