//! Ablation: static vs dynamic scheduling of the FSI parallel loops.
//!
//! The CLS clusters are uniform (c−1 equal GEMMs each) so a static
//! schedule is optimal; the wrapping seeds alternate between GEMM steps
//! and LU-solve steps whose costs differ, favoring dynamic scheduling.
//! This figure measures both schedules for both loops (real pools, so
//! only meaningful wall-clock differences appear on multi-core hosts) and
//! additionally replays the measured task durations through the
//! scheduling simulator, which exposes the imbalance on any host.
//! Shape `(N, L, c) = (36, 60, 6)` on 4 threads; there is no paper shape.

use fsi_pcyclic::Spin;
use fsi_runtime::{parallel_for, Par, Schedule, Stopwatch, ThreadPool};
use fsi_selinv::{Pattern, Selection};

use crate::sim::makespan;
use crate::{hubbard_matrix, trace_fsi, Scale, Trace};

const THREADS: usize = 4;
const HEADER: &str = "(N, L, c) = (36, 60, 6), pool = 4 threads

simulated makespans from measured task durations (4 workers):
";
const SHAPE: &str = "
shape check: dynamic never loses much and wins when task costs vary
(wrap seeds mix GEMM and solve steps); CLS is uniform, so static suffices.
";

/// Times the FSI tasks and replays them under contiguous static chunks
/// and dynamic assignment, then runs a wrap-shaped loop on a real pool
/// under both schedules.
pub(crate) fn run(_: Scale) {
    let tracer = Trace::start("ablation_schedule");
    let pc = hubbard_matrix(6, 60, 9, Spin::Up);
    let (openmp, _) = trace_fsi(&pc, &Selection::new(Pattern::Columns, 6, 3));
    let [cls, _, wrap] = [0, 1, 2].map(|r| &openmp.regions[r].tasks);
    print!("{HEADER}");
    for (name, tasks) in [("cls", cls), ("wrap", wrap)] {
        let chunks = tasks.chunks(tasks.len().div_ceil(THREADS));
        let s = chunks.map(|c| c.iter().sum::<f64>()).fold(0.0, f64::max);
        let d = makespan(tasks, THREADS);
        let spans = format!(
            "static {s:.5}s vs dynamic {d:.5}s ({:+.1}%)",
            (s / d - 1.0) * 100.0
        );
        let (n, cv) = (tasks.len(), cv(tasks));
        println!("  {name:<5} tasks = {n:>4}, cv = {cv:>5.3}: {spans}");
    }
    // A representative parallel loop shape: b² tasks of wrap-like work
    // (N×N multiply per task).
    println!("\nmeasured wall time of the wrap loop under each schedule:");
    let pool = ThreadPool::new(THREADS);
    let a = fsi_dense::test_matrix(pc.n(), pc.n(), 1);
    for (name, schedule) in [
        ("static", Schedule::Static),
        ("dynamic", Schedule::dynamic()),
    ] {
        let sw = Stopwatch::start();
        parallel_for(Par::Pool(&pool), wrap.len(), schedule, |_| {
            drop(fsi_dense::mul(&a, &a))
        });
        println!("  {name:<8} {:.4}s", sw.seconds());
    }
    print!("{SHAPE}");
    tracer.finish(Some(&pool));
}

/// Coefficient of variation of `xs`.
fn cv(xs: &[f64]) -> f64 {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    if mean == 0.0 {
        return 0.0;
    }
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
    var.sqrt() / mean
}
