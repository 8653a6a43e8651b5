//! Ablation: Alg. 2's split walk (paper: "the inner for loop is separated
//! into two loops … to minimize the accumulated floating point arithmetic
//! error").
//!
//! Compares the production wrapping (each seed walks ⌈(c−1)/2⌉ up and
//! ⌊(c−1)/2⌋ down) against a naive one-directional walk (c−1 steps down
//! from each seed) on an ill-conditioned low-temperature matrix
//! (`(N, L, c) = (4, 48, 12)`, β = 16), and reports the worst relative
//! block error of each against the dense LU reference, per distance from
//! the seed. There is no paper shape.

use fsi_dense::{rel_error, Matrix};
use fsi_pcyclic::Spin;
use fsi_runtime::Par;
use fsi_selinv::wrap::{step_down, step_up, BlockFactors};
use fsi_selinv::{bsofi, cls};

use crate::{low_temperature_matrix, Scale, Trace, Verdict};

const C: usize = 12;
const HEADER: &str = "(N, L, c) = (4, 48, 12), beta = 16

 steps   split walk err one-way walk err
";
const FINDING: &str = "
finding: the paper motivates the split by halving the chain length, and the
split indeed halves the walk distance. In this reproduction, however, the two
directions are not symmetric: the DOWN relation (multiply by B) is forward-
stable — its relative error stays flat with distance — while the UP relation
(multiply by B⁻¹) amplifies by cond(B) per step at low temperature. A down-only
walk is then both cheaper (no block to invert) and more accurate. The library
keeps the paper-faithful split as the default; EXPERIMENTS.md records this
deviation.
";

/// Worst errors per walk distance: index `d − 1` holds the worst error `d`
/// steps from a seed.
pub struct Table {
    /// The split walk; `None` where it never goes.
    pub split: Vec<Option<f64>>,
    pub down_only: Vec<f64>,
}

impl Table {
    /// Worst errors of the split and the down-only walk at any distance.
    pub fn worst(&self) -> (f64, f64) {
        let split = self
            .split
            .iter()
            .flatten()
            .fold(0.0, |a, &e| f64::max(a, e));
        (split, self.down_only.iter().fold(0.0, |a, &e| a.max(e)))
    }
}

/// Walks every seed both ways and records the worst error per distance.
pub fn run(_: Scale) -> Table {
    let tracer = Trace::start("ablation_wrap_split");
    let pc = low_temperature_matrix(48, 16.0, 55, Spin::Down);
    let clustered = cls(Par::Seq, Par::Seq, &pc, C, C / 2);
    let g_red = bsofi(Par::Seq, Par::Seq, &clustered.reduced);
    let g_ref = pc.reference_green();
    let factors = BlockFactors::new(&pc);
    let (mut split, mut down_only) = (vec![None; C - 1], vec![0.0; C - 1]);
    let worst = |slot: &mut f64, cur: &Matrix, row, col| {
        *slot = slot.max(rel_error(cur, &pc.dense_block(&g_ref, row, col)));
    };
    let b = clustered.b();
    for (k0, l0) in (0..b * b).map(|s| (s / b, s % b)) {
        let (k, col) = (clustered.to_original(k0), clustered.to_original(l0));
        let seed = clustered.reduced.dense_block(&g_red, k0, l0);
        // Split walk: up for ceil((c−1)/2), down for the rest.
        let (mut cur, mut row) = (seed.clone(), k);
        for slot in &mut split[..C / 2] {
            cur = step_up(&pc, &factors, &cur, row, col).expect("invertible B block");
            row = pc.up(row);
            worst(slot.get_or_insert(0.0), &cur, row, col);
        }
        let (mut cur, mut row) = (seed.clone(), k);
        for slot in &mut split[..C - 1 - C / 2] {
            cur = step_down(&pc, &cur, row, col);
            row = pc.down(row);
            worst(slot.get_or_insert(0.0), &cur, row, col);
        }
        // One-directional walk: c−1 steps straight down.
        let (mut cur, mut row) = (seed, k);
        for slot in &mut down_only {
            cur = step_down(&pc, &cur, row, col);
            row = pc.down(row);
            worst(slot, &cur, row, col);
        }
    }
    print!("{HEADER}");
    for (d, (split, down)) in (1..).zip(split.iter().zip(&down_only)) {
        // "-": the split walk never goes this far.
        let s = split.map_or("-".to_string(), |e| format!("{e:.3e}"));
        println!("{d:>6} {s:>16} {down:>16.3e}");
    }
    let table = Table { split, down_only };
    let (split, down) = table.worst();
    println!("\nworst error: split {split:.3e} vs one-way (down-only) {down:.3e}");
    print!("{FINDING}");
    tracer.finish(None);
    table
}

/// The reproduction's finding (EXPERIMENTS.md): the down-only walk is no
/// less accurate than the paper's split walk.
pub fn verdict(t: &Table) -> Verdict {
    match t.worst() {
        (split, down) if down <= split => Ok(()),
        (split, down) => Err(format!(
            "worst down-only error {down:.3e} exceeds split {split:.3e}"
        )),
    }
}
