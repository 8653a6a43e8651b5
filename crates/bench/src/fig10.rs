//! Fig. 10: runtime profile on a single Hubbard matrix — time to compute
//! the Green's functions vs time to compute the physical measurements,
//! for Serial, MKL-style, and FSI+OpenMP execution on 12 threads.
//!
//! Paper shape: `(L, N) = (100, 400)`, `c = 10`; for both spins compute
//! all diagonal blocks, `b` block rows and `b` block columns, then the
//! equal-time and time-dependent (SPXX) measurements. Smoke shape:
//! `(40, 36)`, `c = 8`. Shape to reproduce: MKL-style accelerates only the
//! Green's-function part (measurements are element-wise Level-1 loops a
//! multithreaded BLAS cannot touch), while FSI+OpenMP cuts both phases —
//! the paper reports 87% less total CPU time.

use fsi_pcyclic::{hubbard_pcyclic, BlockBuilder, HsField, HubbardParams, Spin, SquareLattice};
use fsi_runtime::{Stopwatch, ThreadPool};
use fsi_selinv::fsi::fsi_measurement_set;
use fsi_selinv::Parallelism;
use rand::SeedableRng;

use crate::sim::{amdahl, makespan};
use crate::{few_cores_note, Scale, Shape, Trace};

/// The pool size of the parallel modes.
const THREADS: usize = 12;
const HEADER: &str =
    "mode            green [s]    measure [s]    total [s] |    green sim    measure sim\n";
const SHAPE: &str = "
shape check (paper): MKL-style helps only the Green's phase; FSI+OpenMP cuts both
(~87% total reduction at 12 threads on the paper's socket).
";

/// Computes both spins' measurement sets and the measurements in each
/// mode, and prints each phase's measured and simulated seconds.
pub(crate) fn run(scale: Scale) {
    let tracer = Trace::start("fig10");
    let shape = scale.shape([36, 40, 8], [400, 100, 10]);
    let Shape { n, l, c } = shape;
    let lattice = SquareLattice::square(shape.side());
    let builder = BlockBuilder::new(lattice.clone(), HubbardParams::paper_validation(l));
    let field = HsField::random(l, n, &mut rand_chacha::ChaCha8Rng::seed_from_u64(10));
    let pool = ThreadPool::new(THREADS);
    print!("{shape}; both spins; all diagonals + b rows + b cols\n\n{HEADER}");
    let modes = [
        ("Serial", Parallelism::Serial),
        ("MKL-style", Parallelism::MklStyle(&pool)),
        ("FSI+OpenMP", Parallelism::OpenMp(&pool)),
    ];
    for (mode, par) in modes {
        // --- Green's functions for both spins. ---
        let sw = Stopwatch::start();
        let [up, down] = Spin::BOTH.map(|spin| {
            let pc = hubbard_pcyclic(&builder, &field, spin);
            fsi_measurement_set(par, &pc, c, c / 2).expect("healthy").0
        });
        let green = sw.seconds();

        // --- Physical measurements: equal-time, then SPXX on its own for
        //     the simulator's task times. ---
        let sw = Stopwatch::start();
        let moment = |k| {
            let (gu, gd) = (up.get(k, k).expect("diag"), down.get(k, k).expect("diag"));
            fsi_dqmc::equal_time(&lattice, 1.0, gu, gd).moment
        };
        std::hint::black_box((0..l).map(moment).sum::<f64>());
        let spxx_sw = Stopwatch::start();
        let table = fsi_dqmc::spxx(par.split().0, &lattice, l, &up, &down);
        let (spxx, measure) = (spxx_sw.seconds(), sw.seconds());

        // Simulated columns: the green phase parallelizes over ~b² seed
        // tasks (OpenMP) or column chunks inside kernels (MKL);
        // measurements parallelize under OpenMP only, over the tasks `spxx`
        // runs: one per τ ∈ 0..=L/2, as long as the block pairs it reads
        // (C(τ) of them; at τ = L/2 each stands for two).
        let b = l / c;
        let (green_sim, measure_sim) = match par {
            Parallelism::Serial => (green, measure),
            // Element-wise measurement loops do not parallelize.
            Parallelism::MklStyle(_) => (amdahl(green, 0.6, THREADS, n / 32), measure),
            Parallelism::OpenMp(_) => {
                let pairs = (0..=l / 2)
                    .map(|tau| table.count(tau) / if tau > 0 && 2 * tau == l { 2 } else { 1 });
                let pairs: Vec<usize> = pairs.collect();
                let per_pair = spxx / pairs.iter().sum::<usize>().max(1) as f64;
                let tau_tasks: Vec<f64> = pairs.iter().map(|&p| p as f64 * per_pair).collect();
                (
                    makespan(&vec![green / (b * b) as f64; b * b], THREADS),
                    measure - spxx + makespan(&tau_tasks, THREADS),
                )
            }
        };
        let (total, sim) = (
            green + measure,
            format!("{green_sim:>12.4} {measure_sim:>14.4}"),
        );
        println!("{mode:<12} {green:>12.4} {measure:>14.4} {total:>12.4} | {sim}");
    }
    print!("{SHAPE}");
    few_cores_note(THREADS);
    tracer.finish(Some(&pool));
}
