//! Fig. 11: runtime of a *full* DQMC simulation vs thread count, for
//! FSI+OpenMP vs MKL-style execution.
//!
//! Paper shape: `(N, L) = (400, 100)`, `(w, m) = (100, 200)`, `c = 10`,
//! threads ∈ {1, 6, 12}. Headline numbers: FSI+OpenMP speeds up 6.9×
//! from 1 → 12 threads, MKL-style only 1.3×; the full simulation drops
//! from 3.5 hours to 40 minutes. Smoke shape: `(16, 16)`, `(3, 6)`,
//! `c = 4`.
//!
//! Besides the per-phase times (`sweep`, `green`, `measurement`) the
//! figure reports simulated speedups from the measured task structure —
//! the green and measurement phases fork over `b²` seeds / SPXX pairs
//! (near-ideal), the sweep's rank-1 updates are serial while its
//! stabilizations fork.

use fsi_dqmc::{run as run_dqmc, DqmcConfig};
use fsi_runtime::ThreadPool;
use fsi_selinv::Parallelism;

use crate::sim::amdahl;
use crate::{few_cores_note, Scale, Trace};

/// The pool sizes.
const THREADS: [usize; 3] = [1, 6, 12];
const HEADER: &str = " threads     OpenMP [s]        MKL [s]   OpenMP sim x      MKL sim x\n";
const SHAPE: &str = "
shape check (paper): OpenMP gains ≈6.9x at 12 threads, MKL-style only ≈1.3x;
at paper scale that is 3.5 h → 40 min for the full simulation.
";

/// Runs the simulation serially for its phase profile, then in both
/// parallel modes at each pool size.
pub(crate) fn run(scale: Scale) {
    let tracer = Trace::start("fig11");
    let shape = scale.shape([16, 16, 4], [400, 100, 10]);
    let (l, c) = (shape.l, shape.c);
    let (warmup, measurements) = scale.pick((3, 6), (100, 200));
    let cfg = DqmcConfig {
        nx: shape.side(),
        ny: shape.side(),
        t: 1.0,
        u: 4.0,
        beta: 2.0,
        l,
        c,
        warmup,
        measurements,
        stabilize_every: c,
        delay: 1,
        seed: 11,
    };
    let serial = run_dqmc(&cfg, Parallelism::Serial).expect("healthy");
    let [sweep_s, green_s, meas_s] =
        ["sweep", "green", "measurement"].map(|p| serial.profile.seconds(p));
    println!("{shape}, (w, m) = ({warmup}, {measurements})\n");
    let profile = format!("sweep {sweep_s:.3}s, green {green_s:.3}s, measurement {meas_s:.3}s");
    print!("serial phase profile: {profile}\n\n{HEADER}");
    let b = (l / c) as f64;
    for t in THREADS {
        let pool = ThreadPool::new(t);
        let seconds = |par| {
            run_dqmc(&cfg, par)
                .expect("healthy")
                .profile
                .total_seconds()
        };
        let (omp, mkl) = (
            seconds(Parallelism::OpenMp(&pool)),
            seconds(Parallelism::MklStyle(&pool)),
        );
        // Simulated speedups from the serial phase structure:
        //  - green + measurement fork over ≥ b² tasks → near-ideal;
        //  - sweeps: the stabilized Green's recomputations (≈60% of sweep
        //    time at these parameters) fork over b clusters/columns, the
        //    rank-1/wrap chain is serial.
        let tf = t as f64;
        let green_sim = green_s / tf.min(b * b) + green_s * 0.02;
        let meas_sim = meas_s / tf + meas_s * 0.02;
        let (sweep_parallel, sweep_serial) = (0.6 * sweep_s, 0.4 * sweep_s);
        let sweep_sim = sweep_serial + sweep_parallel / tf.min(b);
        // MKL-style: only the dense kernels inside the Green's phase and
        // the stabilizations fork; measurements and scalar loops do not.
        let forked =
            amdahl(green_s, 0.6, t, usize::MAX) + amdahl(sweep_parallel, 0.6, t, usize::MAX);
        let total_s = sweep_s + green_s + meas_s;
        let omp_sim = total_s / (green_sim + meas_sim + sweep_sim);
        let mkl_sim = total_s / (forked + meas_s + sweep_serial);
        println!("{t:>8} {omp:>14.3} {mkl:>14.3} {omp_sim:>14.2} {mkl_sim:>14.2}");
    }
    print!("{SHAPE}");
    few_cores_note(THREADS[2]);
    // Keep physics honest across modes.
    println!(
        "\nphysics cross-check: serial density = {:.6}",
        serial.density.mean()
    );
    tracer.finish(None);
}
