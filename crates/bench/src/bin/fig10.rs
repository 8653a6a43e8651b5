//! Fig. 10: runtime profile on a single Hubbard matrix — time to compute
//! the Green's functions vs time to compute the physical measurements,
//! for Serial, MKL-style, and FSI+OpenMP execution.
//!
//! Paper setup: `(L, N) = (100, 400)`, `c = 10`; for both spins compute
//! all diagonal blocks, `b` block rows and `b` block columns, then the
//! equal-time and time-dependent (SPXX) measurements. Shape to
//! reproduce: MKL-style accelerates only the Green's-function part
//! (measurements are element-wise Level-1 loops a multithreaded BLAS
//! cannot touch), while FSI+OpenMP cuts both phases — the paper reports
//! 87% less total CPU time.

use fsi_bench::{banner, init_trace, lattice_side_for, Args};
use fsi_pcyclic::{hubbard_pcyclic, BlockBuilder, HsField, HubbardParams, Spin, SquareLattice};
use fsi_runtime::sim::makespan;
use fsi_runtime::{Stopwatch, ThreadPool};
use fsi_selinv::fsi::fsi_measurement_set;
use fsi_selinv::{Parallelism, SelectedInverse};
use rand::SeedableRng;

fn main() {
    let args = Args::parse();
    let export = init_trace("fig10", &args);
    let paper = args.paper_scale();
    let n_req = args.get_usize("N", if paper { 400 } else { 36 });
    let l = args.get_usize("L", if paper { 100 } else { 40 });
    let c = args.get_usize("c", if paper { 10 } else { 8 });
    let threads = args.get_usize("threads", 12);
    banner(
        "Green's function vs measurement runtime (paper Fig. 10)",
        paper,
    );
    let nx = lattice_side_for(n_req);
    let n = nx * nx;
    println!("(N, L, c) = ({n}, {l}, {c}); both spins; all diagonals + b rows + b cols\n");

    let lattice = SquareLattice::square(nx);
    let builder = BlockBuilder::new(lattice.clone(), HubbardParams::paper_validation(l));
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(10);
    let field = HsField::random(l, n, &mut rng);

    let pool = ThreadPool::new(threads);
    let modes: [(&str, Parallelism); 3] = [
        ("Serial", Parallelism::Serial),
        ("MKL-style", Parallelism::MklStyle(&pool)),
        ("FSI+OpenMP", Parallelism::OpenMp(&pool)),
    ];

    println!(
        "{:<12} {:>12} {:>14} {:>12} | {:>12} {:>14}",
        "mode", "green [s]", "measure [s]", "total [s]", "green sim", "measure sim"
    );
    for (name, par) in modes {
        let (outer, _) = par.split();
        // --- Green's functions for both spins. ---
        let sw = Stopwatch::start();
        let q = c / 2;
        let mut selections: Vec<SelectedInverse> = Vec::new();
        for spin in Spin::BOTH {
            let pc = hubbard_pcyclic(&builder, &field, spin);
            let (merged, _diags) = fsi_measurement_set(par, &pc, c, q).expect("healthy");
            selections.push(merged);
        }
        let green_secs = sw.seconds();

        // --- Physical measurements. ---
        let sw = Stopwatch::start();
        let mut et_acc = 0.0;
        for k in 0..l {
            let gu = selections[0].get(k, k).expect("diag");
            let gd = selections[1].get(k, k).expect("diag");
            let et = fsi_dqmc::equal_time(&lattice, 1.0, gu, gd);
            et_acc += et.moment;
        }
        // SPXX on its own, for the simulator's task times.
        let pair_sw = Stopwatch::start();
        let table = fsi_dqmc::spxx(outer, &lattice, l, &selections[0], &selections[1]);
        let spxx_secs = pair_sw.seconds();
        let meas_secs = sw.seconds();
        std::hint::black_box(et_acc);

        // Simulated columns: the green phase parallelizes over ~b² seed
        // tasks (OpenMP) or column chunks inside kernels (MKL ≈ 2×);
        // measurements parallelize under OpenMP only, over the tasks
        // `spxx` runs: one per τ ∈ 0..=L/2, as long as the block pairs it
        // reads (C(τ) of them; at τ = L/2 each stands for two).
        let b = l / c;
        let (green_sim, meas_sim) = match name {
            "Serial" => (green_secs, meas_secs),
            "MKL-style" => {
                let chunks = (n / 32).max(1).min(threads);
                (
                    green_secs * (0.4 + 0.6 / chunks as f64),
                    meas_secs, // element-wise loops do not parallelize
                )
            }
            _ => {
                let tasks = vec![green_secs / (b * b) as f64; b * b];
                let pairs: Vec<usize> = (0..=l / 2)
                    .map(|tau| table.count(tau) / if tau > 0 && 2 * tau == l { 2 } else { 1 })
                    .collect();
                let per_pair = spxx_secs / pairs.iter().sum::<usize>().max(1) as f64;
                let tau_tasks: Vec<f64> = pairs.iter().map(|&p| p as f64 * per_pair).collect();
                (
                    makespan(&tasks, threads),
                    meas_secs - spxx_secs + makespan(&tau_tasks, threads),
                )
            }
        };
        println!(
            "{:<12} {:>12.4} {:>14.4} {:>12.4} | {:>12.4} {:>14.4}",
            name,
            green_secs,
            meas_secs,
            green_secs + meas_secs,
            green_sim,
            meas_sim
        );
    }
    println!("\nshape check (paper): MKL-style helps only the Green's phase; FSI+OpenMP cuts both");
    println!("(~87% total reduction at 12 threads on the paper's socket).");
    if fsi_runtime::hardware_threads() < threads {
        println!(
            "NOTE: host has {} core(s); measured columns are flat, simulated columns carry the shape.",
            fsi_runtime::hardware_threads()
        );
    }
    export.finish(Some(&pool));
}
