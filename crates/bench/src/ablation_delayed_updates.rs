//! Ablation: delayed (rank-k) vs immediate (rank-1) Green's-function
//! updates in the DQMC sweep.
//!
//! The paper's reference \[4\] (Chang et al., "Recent advances in
//! determinant quantum Monte Carlo") turns the sweep's Level-2 rank-1
//! updates into Level-3 rank-k GEMM flushes. This figure runs identical
//! Monte Carlo trajectories at several batch sizes and reports sweep
//! time — the trajectory equality is asserted, so any time difference is
//! pure kernel-shape effect. Smoke shape `(N, L, c) = (64, 24, 6)`, paper
//! shape `(400, 100, 10)`; 3 sweeps each.

use fsi_dqmc::{SweepConfig, Sweeper};
use fsi_pcyclic::{BlockBuilder, HsField, HubbardParams, SquareLattice};
use fsi_runtime::Stopwatch;
use fsi_selinv::Parallelism;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::{Scale, Shape, Trace};

const SWEEPS: usize = 3;
const HEADER: &str = "   delay     time [s]     accepted     trajectory\n";
const SHAPE: &str = "
shape check: larger batches trade Level-2 ger traffic for Level-3 GEMM
flushes; the Monte Carlo trajectory is bitwise-identical across batch sizes
up to round-off (asserted above).
";

/// Sweeps the same field from the same seed at each batch size.
///
/// # Panics
/// If a batch size changes the trajectory.
pub(crate) fn run(scale: Scale) {
    let tracer = Trace::start("ablation_delayed_updates");
    let shape = scale.shape([64, 24, 6], [400, 100, 10]);
    let Shape { n, l, c } = shape;
    let params = HubbardParams {
        t: 1.0,
        u: 4.0,
        beta: 2.0,
        l,
    };
    let builder = BlockBuilder::new(SquareLattice::square(shape.side()), params);
    let field = HsField::random(l, n, &mut ChaCha8Rng::seed_from_u64(1));
    print!("{shape}, {SWEEPS} sweeps per configuration\n\n{HEADER}");
    let mut reference = None;
    for delay in [1, 4, 8, 16, 32] {
        let cfg = SweepConfig {
            c,
            stabilize_every: c,
            delay,
        };
        let mut sweeper = Sweeper::new(&builder, field.clone(), cfg).expect("healthy");
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let sw = Stopwatch::start();
        let sweep = |_| {
            sweeper
                .sweep(&mut rng, Parallelism::Serial)
                .expect("healthy")
        };
        let accepted: usize = (0..SWEEPS).map(sweep).map(|s| s.accepted).sum();
        let seconds = sw.seconds();
        let trajectory = sweeper.field().to_flat();
        let same = if reference.is_none() {
            "reference"
        } else {
            "identical"
        };
        let want = reference.get_or_insert_with(|| trajectory.clone());
        assert_eq!(want, &trajectory, "delay={delay} changed the physics!");
        println!("{delay:>8} {seconds:>12.3} {accepted:>12} {same:>14}");
    }
    print!("{SHAPE}");
    tracer.finish(None);
}
