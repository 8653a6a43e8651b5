//! Quickstart: build a Hubbard matrix, compute a selected inversion with
//! FSI, and validate it against the dense LU baseline — the §V-A
//! correctness experiment at laptop scale.
//!
//! Run with: `cargo run --release --example quickstart`

use fsi::pcyclic::{hubbard_pcyclic, BlockBuilder, HsField, HubbardParams, Spin, SquareLattice};
use fsi::runtime::Stopwatch;
use fsi::selinv::baselines::{full_inverse_selected, max_block_error};
use fsi::selinv::{fsi_with_q, Parallelism, Pattern, Selection};
use rand::SeedableRng;

fn main() {
    // A 6×6 periodic lattice (N = 36) with L = 32 time slices: the same
    // matrix family as the paper's validation, scaled to finish in
    // seconds. (t, β, U) = (1, 1, 2) as in §V-A.
    let (nx, l, c) = (6usize, 32usize, 8usize);
    let lattice = SquareLattice::square(nx);
    let n = lattice.n_sites();
    let params = HubbardParams::paper_validation(l);
    println!(
        "Hubbard matrix: N = {n} sites x L = {l} slices  (dim {})",
        n * l
    );
    println!(
        "params: t = {}, beta = {}, U = {}, nu = {:.4}",
        params.t,
        params.beta,
        params.u,
        params.nu()
    );

    let builder = BlockBuilder::new(lattice, params);
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2016);
    let field = HsField::random(l, n, &mut rng);
    let m = hubbard_pcyclic(&builder, &field, Spin::Up);

    // FSI: b = L/c block columns of G = M⁻¹.
    let selection = Selection::new(Pattern::Columns, c, 3);
    let sw = Stopwatch::start();
    let out = fsi_with_q(Parallelism::Serial, &m, &selection).expect("healthy");
    let fsi_time = sw.seconds();
    println!(
        "\nFSI selected {} blocks ({} block columns) in {:.3}s",
        out.selected.len(),
        l / c,
        fsi_time
    );
    for (stage, secs, _) in out.profile.iter() {
        println!("  stage {stage:<6} {secs:.4}s");
    }

    // Validate against dense LU inversion of the full NL × NL matrix.
    let sw = Stopwatch::start();
    let reference = full_inverse_selected(&m, &selection);
    let lu_time = sw.seconds();
    let err = max_block_error(&out.selected, &reference);
    println!(
        "\nDense LU baseline took {lu_time:.3}s (matrix dim {})",
        n * l
    );
    println!("max block relative error FSI vs LU: {err:.3e}");
    assert!(err < 1e-9, "validation failed");

    // The memory argument: selected inversion stores 1/c of the full G.
    let full_bytes = (n * l) * (n * l) * 8;
    println!(
        "\nmemory: selected = {:.2} MiB vs full inverse = {:.2} MiB  ({}x reduction)",
        out.selected.bytes() as f64 / (1 << 20) as f64,
        full_bytes as f64 / (1 << 20) as f64,
        Pattern::Columns.reduction_factor(l, c)
    );
    println!("\nvalidation PASSED (rel err < 1e-9, same threshold family as the paper's 1e-10)");
}
