//! Ablation: the cluster size `c` (paper §II-C discussion).
//!
//! "A larger c leads to a greater reduction. However, the size of c is
//! limited by numerical stability … usually c ≈ √L." This figure sweeps
//! every divisor `c` of `L = 48` and reports, per c:
//!
//! * FSI time and exact span flops (reduction benefit),
//! * maximum relative block error vs the dense LU reference (stability
//!   cost — the cluster chains multiply `c` matrices, so conditioning
//!   grows with `c`); a run whose reduced matrix is numerically singular
//!   fails its health probe and counts as an infinite error.
//!
//! To make the instability visible at laptop scale the Hubbard matrix is
//! generated at low temperature (β = 12 → wildly scaled `B` products) on
//! the 2×2 lattice. There is no paper shape.

use fsi_pcyclic::Spin;
use fsi_runtime::{trace, Stopwatch};
use fsi_selinv::baselines::{full_inverse_selected, max_block_error};
use fsi_selinv::{fsi_with_q, Parallelism, Pattern, Selection};

use crate::{low_temperature_matrix, Scale, Trace, Verdict};

const L: usize = 48;
const HEADER: &str = "(N, L) = (4, 48), beta = 12 (low temperature -> ill-conditioned chains)

   c      b     time [s]        Gflop        flops    max rel err   note
";
const SHAPE: &str = "
shape check (paper): flops fall as c grows (greater reduction) while the
round-off error climbs with the chain length; c ~ sqrt(L) balances the two.
";

/// One cluster size: `c`, the flops charged to the FSI run's span, and
/// the max relative block error or why FSI refused the matrix.
pub struct Row {
    pub c: usize,
    pub flops: u64,
    pub error: Result<f64, String>,
}

/// Runs FSI (columns pattern, `q = c/2`) at every divisor `c` of `L`,
/// ascending.
pub fn run(_: Scale) -> Vec<Row> {
    let tracer = Trace::start("ablation_cluster_size");
    let pc = low_temperature_matrix(L, 12.0, 123, Spin::Up);
    print!("{HEADER}");
    let rows: Vec<Row> = (1..=L)
        .filter(|c| L.is_multiple_of(*c))
        .map(|c| {
            let sel = Selection::new(Pattern::Columns, c, c / 2);
            let span = trace::span("fsi-run");
            let sw = Stopwatch::start();
            let out = fsi_with_q(Parallelism::Serial, &pc, &sel);
            let (seconds, flops) = (sw.seconds(), span.finish().flops);
            let reference = || full_inverse_selected(&pc, &sel);
            let error = out.map(|out| max_block_error(&out.selected, &reference()));
            let err = error
                .as_ref()
                .map_or("failed".into(), |e| format!("{e:.3e}"));
            let near_sqrt_l = (c as f64 - (L as f64).sqrt()).abs() <= 2.0;
            let note = if near_sqrt_l {
                "<- c ~ sqrt(L), the paper's choice"
            } else {
                ""
            };
            let gflop = flops as f64 / 1e9;
            println!(
                "{c:>4} {:>6} {seconds:>12.4} {gflop:>12.3} {flops:>12} {err:>14}   {note}",
                L / c
            );
            Row {
                c,
                flops,
                error: error.map_err(|e| e.to_string()),
            }
        })
        .collect();
    for Row { c, error, .. } in &rows {
        if let Err(e) = error {
            println!("c = {c}: FSI refused the matrix: {e}");
        }
    }
    print!("{SHAPE}");
    tracer.finish(None);
    rows
}

/// §II-C: from one divisor of `L` to the next the flops fall strictly
/// (greater reduction), and over the divisors whose max error is above
/// the first row's (c = 1: no cluster chain, the round-off floor) the
/// error rises strictly (the stability limit). A refused run counts as
/// infinite. Errors at or below the floor are round-off whose order is
/// not the paper's claim.
pub fn verdict(rows: &[Row]) -> Verdict {
    let error = |r: &Row| *r.error.as_ref().unwrap_or(&f64::INFINITY);
    for w in rows.windows(2) {
        let (a, b) = (&w[0], &w[1]);
        if b.flops >= a.flops {
            return Err(format!("flops do not fall from c = {} to c = {}", a.c, b.c));
        }
    }
    let floor = rows.first().map_or(f64::INFINITY, error);
    let above: Vec<&Row> = rows.iter().filter(|r| error(r) > floor).collect();
    for w in above.windows(2) {
        let (a, b) = (w[0], w[1]);
        let (ea, eb) = (error(a), error(b));
        if eb <= ea {
            let (ca, cb) = (a.c, b.c);
            return Err(format!(
                "max error does not rise from c = {ca} ({ea:.3e}) to c = {cb} ({eb:.3e})"
            ));
        }
    }
    Ok(())
}
