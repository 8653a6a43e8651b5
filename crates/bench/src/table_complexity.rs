//! §II-C table: flop complexity of the explicit form vs FSI for the four
//! selection patterns — closed-form predictions next to flop counts
//! *measured* by the kernels' analytic counters during real runs.
//!
//! Smoke shape `(N, L, c) = (25, 24, 6)`; paper shape `(100, 100, 10)`.

use fsi_pcyclic::Spin;
use fsi_runtime::{trace, Par};
use fsi_selinv::baselines::explicit_selected;
use fsi_selinv::{
    explicit_flops, fsi_flops, fsi_flops_exact, fsi_with_q, predicted_speedup, Parallelism,
    Pattern, Selection,
};

use crate::{hubbard_matrix, Scale, Shape, Trace, Verdict};

const CLOSED: &str = "closed forms (units of N^3 flops):
pattern                    explicit            FSI    speedup
";
const MEASURED: &str = "
measured flops (analytic kernel counters during real runs):
pattern               expl measured   expl formula   FSI measured FSI exact-form
";
const NOTE: &str = "
(explicit-form measured counts sit below the closed form for diagonal/subdiagonal
 patterns because the baseline memoizes W(k) factorizations across blocks, while
 the closed form charges each block its full chain — same convention as the paper.)
";

/// The §II-C table: per pattern, in [`Pattern::ALL`] order, the closed
/// form's predicted speedup, and the flops charged by real runs of the
/// explicit form and of FSI.
pub struct Table {
    pub shape: Shape,
    pub rows: [(Pattern, f64, (u64, u64)); 4],
}

/// Prints the closed forms, then runs the explicit form and FSI for each
/// pattern and counts their flops.
pub fn run(scale: Scale) -> Table {
    let tracer = Trace::start("table_complexity");
    let shape = scale.shape([25, 24, 6], [100, 100, 10]);
    let Shape { n, l, c } = shape;
    print!("{shape}, b = {}\n\n{CLOSED}", l / c);
    for p in Pattern::ALL {
        let (explicit, fsi) = (explicit_flops(p, 1, l, c), fsi_flops(p, 1, l, c));
        let speedup = predicted_speedup(p, n, l, c);
        println!("{:<20} {explicit:>14} {fsi:>14} {speedup:>9.1}x", p.label());
    }
    print!("{MEASURED}");
    let pc = hubbard_matrix(shape.side(), l, 7, Spin::Down);
    let rows = Pattern::ALL.map(|p| {
        let sel = Selection::new(p, c, 1);
        let span = trace::span("explicit");
        let _ = explicit_selected(Par::Seq, &pc, &sel);
        let explicit = span.finish().flops;
        let span = trace::span("fsi-run");
        fsi_with_q(Parallelism::Serial, &pc, &sel).expect("healthy");
        let fsi = span.finish().flops;
        let (expl_formula, fsi_exact) = (explicit_flops(p, n, l, c), fsi_flops_exact(p, n, l, c));
        let label = p.label();
        println!("{label:<20} {explicit:>14} {expl_formula:>14} {fsi:>14} {fsi_exact:>14}");
        (p, predicted_speedup(p, n, l, c), (explicit, fsi))
    });
    print!("{NOTE}");
    tracer.finish(None);
    Table { shape, rows }
}

/// §II-C: the closed-form speedup of S3 and S4 is exactly `bc/3`, and the
/// measured FSI flops are below the measured explicit flops for every
/// pattern.
pub fn verdict(t: &Table) -> Verdict {
    let bc = (t.shape.l / t.shape.c * t.shape.c) as f64;
    for &(p, speedup, (explicit, fsi)) in &t.rows {
        let label = p.label();
        if matches!(p, Pattern::Columns | Pattern::Rows) && speedup != bc / 3.0 {
            return Err(format!(
                "{label}: closed-form speedup {speedup} is not bc/3"
            ));
        }
        if fsi >= explicit {
            return Err(format!(
                "{label}: FSI measured {fsi} flops, the explicit form {explicit}"
            ));
        }
    }
    Ok(())
}
