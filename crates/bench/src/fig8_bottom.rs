//! Fig. 8 (bottom): FSI thread scalability on one socket — OpenMP mode
//! vs MKL-style mode vs ideal scaling, threads 1..12 at
//! `(N, L, c) = (576, 100, 10)` (the paper shape), b = 10 block columns.
//! Smoke shape `(64, 60, 6)`.
//!
//! Two result sets are reported:
//!
//! * **measured** — real pools of T threads; meaningful only when the
//!   host has ≥ T cores (this is what the paper measured on a 12-core
//!   Ivy Bridge socket);
//! * **simulated** — the greedy-scheduler replay of the sequentially
//!   measured per-task durations (`crate::sim`), which reproduces the
//!   *shape* on any host (see DESIGN.md substitutions). The expected
//!   shape: OpenMP tracks the ideal line closely; MKL-style saturates
//!   early (Amdahl on the serial glue between kernels).

use fsi_pcyclic::Spin;
use fsi_runtime::{hardware_threads, Stopwatch, ThreadPool};
use fsi_selinv::{fsi_with_q, Parallelism, Pattern, Selection};

use crate::{few_cores_note, hubbard_matrix, trace_fsi, Scale, Trace};

/// The largest pool.
const THREADS: usize = 12;
const HEADER: &str = " threads   OpenMP [s]      MKL [s]   OpenMP sim x      MKL sim x  ideal x\n";

/// Traces one sequential run for the simulator, then times both modes on
/// pools of 1..=12 threads, one pool at a time.
pub(crate) fn run(scale: Scale) {
    let tracer = Trace::start("fig8_bottom");
    let shape = scale.shape([64, 60, 6], [576, 100, 10]);
    let pc = hubbard_matrix(shape.side(), shape.l, 11, Spin::Up);
    let sel = Selection::new(Pattern::Columns, shape.c, shape.c / 2);
    let (openmp, mkl) = trace_fsi(&pc, &sel);
    print!("{shape}; host cores = {}\n\n{HEADER}", hardware_threads());
    for t in 1..=THREADS {
        let pool = ThreadPool::new(t);
        let time = |par| {
            let sw = Stopwatch::start();
            fsi_with_q(par, &pc, &sel).expect("healthy");
            sw.seconds()
        };
        let omp = time(Parallelism::OpenMp(&pool));
        let mkl_s = time(Parallelism::MklStyle(&pool));
        let sim = format!("{:>14.2} {:>14.2}", openmp.speedup(t), mkl.speedup(t));
        println!("{t:>8} {omp:>12.3} {mkl_s:>12.3} {sim} {t:>8}");
    }
    println!("\nsequential FSI time: {:.3}s", openmp.sequential());
    println!("shape check (paper): OpenMP-simulated tracks ideal; MKL-style saturates early.");
    few_cores_note(THREADS);
    tracer.finish(None);
}
