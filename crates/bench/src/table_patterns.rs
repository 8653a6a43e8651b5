//! §II-B table: number of selected blocks and memory-reduction factor of
//! the four selection patterns S1–S4, plus the measured memory of a real
//! selection to confirm the bookkeeping.
//!
//! The table's shape is the paper's own `(L, c) = (100, 10)` at either
//! scale; the measured storage runs at `(N, L, c) = (16, 24, 6)`.

use fsi_pcyclic::Spin;
use fsi_selinv::{fsi_with_q, Parallelism, Pattern, Selection};

use crate::{hubbard_matrix, Scale, Shape, Trace, Verdict};

const HEADER: &str = "pattern                  # blocks      paper formula   reduction factor\n";

/// The table's `(L, c)`.
const L_C: (usize, usize) = (100, 10);
/// The shape of the measured selections.
pub(crate) const MEASURED: Shape = Shape { n: 16, l: 24, c: 6 };

/// The §II-B table, in [`Pattern::ALL`] order.
pub struct Table {
    /// Per pattern: selected blocks, and full-inverse blocks over them,
    /// at `(L, c) = (100, 10)`.
    pub rows: [(Pattern, usize, usize); 4],
    /// Per pattern: bytes of a real selection at `(N, L, c) = (16, 24, 6)`.
    pub measured: [(Pattern, usize); 4],
}

/// Counts the four patterns at `(L, c) = (100, 10)` and measures their
/// storage on a small matrix. Both scales run the same shape.
pub fn run(_: Scale) -> Table {
    let tracer = Trace::start("table_patterns");
    let (l, c) = L_C;
    print!("L = {l}, c = {c}, b = L/c = {}\n\n{HEADER}", l / c);
    let rows = Pattern::ALL.map(|p| (p, p.n_blocks(l, c), p.reduction_factor(l, c)));
    for (p, blocks, reduction) in rows {
        let formula = match p {
            Pattern::Diagonal => "b",
            Pattern::SubDiagonal => "b or b-1",
            Pattern::Columns | Pattern::Rows => "bL",
        };
        println!(
            "{:<20} {blocks:>12} {formula:>18} {reduction:>15}x",
            p.label()
        );
    }
    let Shape { n, l, c } = MEASURED;
    let full = (n * l * n * l * 8) as f64;
    println!(
        "\nmeasured storage, {MEASURED}; full inverse = {:.2} KiB:",
        full / 1024.0
    );
    let pc = hubbard_matrix(4, l, 3, Spin::Up);
    let measured = Pattern::ALL.map(|p| {
        let out = fsi_with_q(Parallelism::Serial, &pc, &Selection::new(p, c, 1));
        let bytes = out.expect("healthy").selected.bytes();
        let (kib, reduction) = (bytes as f64 / 1024.0, full / bytes as f64);
        let measured = format!("{kib:>10.2} KiB   measured reduction {reduction:>8.1}x");
        let formula = p.reduction_factor(l, c);
        println!("  {:<20} {measured}  (formula {formula}x)", p.label());
        (p, bytes)
    });
    tracer.finish(None);
    Table { rows, measured }
}

/// The paper's counts: `b` blocks (reduction `cL`) for S1 and S2, `bL`
/// blocks (reduction `c`) for S3 and S4.
fn paper_counts(p: Pattern, l: usize, c: usize) -> (usize, usize) {
    match p {
        Pattern::Diagonal | Pattern::SubDiagonal => (l / c, c * l),
        Pattern::Columns | Pattern::Rows => (l / c * l, c),
    }
}

/// §II-B: every block count and reduction factor equals the paper's
/// formula, and every measured selection stores exactly its formula's
/// blocks of `N²` doubles.
pub fn verdict(t: &Table) -> Verdict {
    let (l, c) = L_C;
    if let Some((p, ..)) = t
        .rows
        .iter()
        .find(|r| (r.1, r.2) != paper_counts(r.0, l, c))
    {
        return Err(format!(
            "{}: count or reduction is not the paper's formula",
            p.label()
        ));
    }
    let Shape { n, l, c } = MEASURED;
    match t
        .measured
        .iter()
        .find(|m| m.1 != paper_counts(m.0, l, c).0 * n * n * 8)
    {
        Some((p, bytes)) => Err(format!(
            "{}: {bytes} bytes are not its formula's",
            p.label()
        )),
        None => Ok(()),
    }
}
