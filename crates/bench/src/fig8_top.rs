//! Fig. 8 (top): FSI performance rate by stage vs block dimension `N`.
//!
//! The paper plots Gflop/s of BSOFI, CLS+WRP, total FSI, and DGEMM (the
//! practical peak) for `N ∈ {256, 400, 576, 784, 1024}` at
//! `(L, c) = (100, 10)`, computing `b = 10` block columns (the paper
//! shape). The shape to reproduce: BSOFI runs below the others
//! (triangular/QR-bound), CLS and WRP run at near-DGEMM rate, and the FSI
//! total lands close to DGEMM — "the lower rate of the dense inversions is
//! compensated by DGEMM-rich clustering and wrapping". Smoke shape:
//! `N ∈ {36, 64, 100, 144}` at `(L, c) = (60, 6)`.

use fsi_pcyclic::Spin;
use fsi_runtime::{trace, Par};
use fsi_selinv::{cls, fsi_with_q, Parallelism, Pattern, Selection};

use crate::{hubbard_matrix, lattice_side_for, Scale, Trace};

const HEADER: &str = "     N        CLS      BSOFI        WRP        FSI      DGEMM
          Gflop/s    Gflop/s    Gflop/s    Gflop/s    Gflop/s
";

/// Runs `f` under a span named `name` and returns its Gflop/s.
fn rate<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let span = trace::span(name);
    let out = f();
    (out, span.finish().gflops())
}

/// Prints, per `N`, the Gflop/s of CLS, BSOFI, WRP, the whole FSI call,
/// and DGEMM.
pub(crate) fn run(scale: Scale) {
    let tracer = Trace::start("fig8_top");
    let sizes: &[usize] = scale.pick(&[36, 64, 100, 144], &[256, 400, 576, 784, 1024]);
    let (l, c) = (scale.pick(60, 100), scale.pick(6, 10));
    let sel = Selection::new(Pattern::Columns, c, c / 2);
    println!(
        "(L, c) = ({l}, {c}), b = {} block columns selected\n",
        l / c
    );
    print!("{HEADER}");
    for &n in sizes {
        let nx = lattice_side_for(n);
        let n = nx * nx;
        let pc = hubbard_matrix(nx, l, n as u64, Spin::Up);
        // Each stage runs under its own span, which carries exactly the
        // flops charged inside it; "fsi-total" scopes the whole call.
        let (reduced, cls) = rate("cls", || cls(Par::Seq, Par::Seq, &pc, c, sel.q));
        let bsofi = || fsi_selinv::bsofi(Par::Seq, Par::Seq, &reduced.reduced);
        let (g_red, bsofi) = rate("bsofi", bsofi);
        let (_, wrap) = rate("wrap", || {
            fsi_selinv::wrap(Par::Seq, &pc, &reduced, &g_red, &sel)
        });
        let (_, fsi) = rate("fsi-total", || {
            fsi_with_q(Parallelism::Serial, &pc, &sel).expect("healthy")
        });
        // DGEMM reference: N×N product repeated to ≥ the FSI volume.
        let a = fsi_dense::test_matrix(n, n, 1);
        let b = fsi_dense::test_matrix(n, n, 2);
        let (_, dgemm) = rate("dgemm", || {
            (0..8).for_each(|_| drop(fsi_dense::mul(&a, &b)))
        });
        let rates = format!("{cls:>10.2} {bsofi:>10.2} {wrap:>10.2} {fsi:>10.2}");
        println!("{n:>6} {rates} {dgemm:>10.2}");
    }
    println!("\nshape check (paper): BSOFI < CLS ≈ WRP ≈ FSI ≲ DGEMM");
    tracer.finish(None);
}
