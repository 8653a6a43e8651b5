//! All four selected-inversion patterns (S1–S4, paper §II-B) on one
//! Hubbard matrix, with measured time, measured flops, and the paper's
//! closed-form complexity predictions side by side.
//!
//! Run with: `cargo run --release --example selected_inversion_patterns`

use fsi::pcyclic::{hubbard_pcyclic, BlockBuilder, HsField, HubbardParams, Spin, SquareLattice};
use fsi::runtime::{trace, Stopwatch, TraceLevel};
use fsi::selinv::baselines::{explicit_selected, max_block_error};
use fsi::selinv::{fsi_with_q, Parallelism, Pattern, Selection};
use rand::SeedableRng;

fn main() {
    // Span-scoped flop attribution needs the collector on.
    trace::set_level(TraceLevel::Stages);
    let (nx, l, c, q) = (5usize, 24usize, 6usize, 2usize);
    let lattice = SquareLattice::square(nx);
    let n = lattice.n_sites();
    let builder = BlockBuilder::new(lattice, HubbardParams::paper_validation(l));
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
    let field = HsField::random(l, n, &mut rng);
    let m = hubbard_pcyclic(&builder, &field, Spin::Down);
    let b = l / c;
    println!("Hubbard matrix: N = {n}, L = {l}, c = {c}, b = {b}, q = {q}\n");
    println!(
        "{:<20} {:>8} {:>10} {:>12} {:>12} {:>12} {:>10}",
        "pattern", "#blocks", "FSI [s]", "FSI Gflop", "expl [s]", "expl Gflop", "max err"
    );

    for pattern in Pattern::ALL {
        let sel = Selection::new(pattern, c, q);

        let span = trace::span("fsi-run");
        let sw = Stopwatch::start();
        let out = fsi_with_q(Parallelism::Serial, &m, &sel).expect("healthy");
        let fsi_secs = sw.seconds();
        let fsi_gflop = span.finish().flops as f64 / 1e9;

        let span = trace::span("explicit");
        let sw = Stopwatch::start();
        let expl = explicit_selected(fsi::runtime::Par::Seq, &m, &sel);
        let expl_secs = sw.seconds();
        let expl_gflop = span.finish().flops as f64 / 1e9;

        let err = max_block_error(&out.selected, &expl);
        println!(
            "{:<20} {:>8} {:>10.4} {:>12.4} {:>12.4} {:>12.4} {:>10.2e}",
            pattern.label(),
            out.selected.len(),
            fsi_secs,
            fsi_gflop,
            expl_secs,
            expl_gflop,
            err
        );
        assert!(err < 1e-8, "{pattern:?} disagreed with the explicit form");
    }

    println!("\npaper closed-form predictions (in units of N³ flops):");
    for pattern in Pattern::ALL {
        println!(
            "  {:<20} explicit {:>12}  FSI {:>12}  predicted speedup {:>6.1}x",
            pattern.label(),
            fsi::selinv::explicit_flops(pattern, 1, l, c),
            fsi::selinv::fsi_flops(pattern, 1, l, c),
            fsi::selinv::predicted_speedup(pattern, n, l, c),
        );
    }
}
