//! The FSI algorithm driver (paper Alg. 1):
//!
//! ```text
//! Input:  M (block p-cyclic), c, pattern
//! 1. randomize q ∈ {0, …, c−1}
//! 2. M̄ = CLS(M, c, q)            — clustering / block cyclic reduction
//! 3. Ḡ = M̄⁻¹ via BSOFI          — structured orthogonal inversion
//! 4. S = WRP(Ḡ, c, q)            — wrapping to the selected pattern
//! Output: S
//! ```
//!
//! The driver exposes the two execution styles the paper benchmarks on one
//! socket (Fig. 8 bottom, Figs. 10–11):
//!
//! * [`Parallelism::OpenMp`] — *coarse-grained*: the pool parallelizes the
//!   cluster loop, BSOFI's block columns, and the seed loop, while every
//!   dense kernel runs sequentially. This is the paper's FSI + OpenMP mode
//!   and scales with the flat task counts (`b`, `b²`).
//! * [`Parallelism::MklStyle`] — *fine-grained*: the outer loops run
//!   sequentially and the pool lives inside the dense kernels, mimicking
//!   "serial QUEST + multi-threaded MKL". Scaling is Amdahl-bound by the
//!   serial chain between kernel calls.

use fsi_dense::Matrix;
use fsi_pcyclic::BlockPCyclic;
use fsi_runtime::health::{self, FsiResult, HealthEvent, Stage};
use fsi_runtime::{Par, Profile, ThreadPool};

use crate::bsofi::{bsofi_selected, single_block_inverse, StructuredQr};
use crate::cls::{cls, Clustered};
use crate::patterns::{SelectedInverse, SelectedPattern, Selection};
use crate::wrap::{wrap_all_diagonals_with, wrap_with, BlockFactors, Seeds};

/// Execution style of one FSI invocation.
#[derive(Clone, Copy)]
pub enum Parallelism<'p> {
    /// Single thread everywhere.
    Serial,
    /// Coarse-grained: pool over clusters/columns/seeds, sequential
    /// kernels (the paper's "FSI + OpenMP").
    OpenMp(&'p ThreadPool),
    /// Fine-grained: sequential outer loops, pool inside dense kernels
    /// (the paper's "pure MKL" comparison mode).
    MklStyle(&'p ThreadPool),
}

impl<'p> Parallelism<'p> {
    /// `(outer, inner)` parallelism selectors for the three stages.
    pub fn split(&self) -> (Par<'p>, Par<'p>) {
        match self {
            Parallelism::Serial => (Par::Seq, Par::Seq),
            Parallelism::OpenMp(pool) => (Par::Pool(pool), Par::Seq),
            Parallelism::MklStyle(pool) => (Par::Seq, Par::Pool(pool)),
        }
    }
}

/// The reduced inverse `Ḡ = M̄⁻¹` in whichever representation the BSOFI
/// stage produced: dense (S3/S4, which seed walks from every block) or
/// sparse (S1/S2, which need only the diagonal seeds and skip the
/// `(bN)²` materialization entirely).
pub enum ReducedInverse {
    /// The full `bN × bN` inverse from [`bsofi`](crate::bsofi::bsofi).
    Dense(Matrix),
    /// Only the requested blocks, from [`bsofi_selected`].
    Selected(SelectedInverse),
}

impl ReducedInverse {
    /// The dense matrix, if this run materialized one.
    pub fn dense(&self) -> Option<&Matrix> {
        match self {
            ReducedInverse::Dense(g) => Some(g),
            ReducedInverse::Selected(_) => None,
        }
    }

    /// This inverse as a wrap's seed source.
    fn seeds(&self) -> Seeds<'_> {
        match self {
            ReducedInverse::Dense(g) => Seeds::Dense(g),
            ReducedInverse::Selected(s) => Seeds::Selected(s),
        }
    }
}

/// Result of one FSI run: the selected blocks plus per-stage wall times
/// (sections `"cls"`, `"bsofi"`, `"wrap"`) for the Fig. 8 breakdown.
pub struct FsiOutput {
    /// The selected inversion `S`.
    pub selected: SelectedInverse,
    /// Per-stage timing profile.
    pub profile: Profile,
    /// The clustering actually used (exposes `q` and the reduced matrix).
    pub clustered: Clustered,
    /// The reduced inverse `Ḡ` (kept for callers that need extra seeds,
    /// e.g. the measurement driver): dense for S3/S4 runs, sparse diagonal
    /// seeds for S1/S2 runs.
    pub g_reduced: ReducedInverse,
}

/// Runs Alg. 1 with the shift `q` the selection carries (the paper draws
/// `q` uniformly from `0..c` so repeated Green's functions sample all
/// block positions; the caller draws it).
///
/// The BSOFI stage is pattern-aware: diagonal and sub-diagonal selections
/// request only the diagonal seed blocks via [`bsofi_selected`]
/// (truncated assembly, no dense `Ḡ`), while row/column selections — whose
/// wraps walk from every block — take the dense
/// [`bsofi`](crate::bsofi::bsofi) path.
///
/// # Errors
/// Each stage boundary is guarded by the [`fsi_runtime::health`] probes:
/// non-finite or overflow-bound cluster products ([`Stage::Cls`]), a
/// singular or wildly graded `R` diagonal ([`Stage::Bsofi`]), and bad
/// wrapped output blocks ([`Stage::Wrap`]) all surface as structured
/// errors before the damaged numbers reach the caller.
///
/// ```
/// use fsi_selinv::{fsi_with_q, Parallelism, Pattern, Selection};
/// let pc = fsi_pcyclic::random_pcyclic(3, 8, 42);
/// let selection = Selection::new(Pattern::Diagonal, 4, 1);
/// let out = fsi_with_q(Parallelism::Serial, &pc, &selection)
///     .expect("well-conditioned test matrix");
/// // b = L/c = 2 diagonal blocks selected, validated against the dense
/// // reference inverse.
/// assert_eq!(out.selected.len(), 2);
/// let g_ref = pc.reference_green();
/// for (&(k, l), blk) in out.selected.iter() {
///     let want = pc.dense_block(&g_ref, k, l);
///     assert!(fsi_dense::rel_error(blk, &want) < 1e-8);
/// }
/// ```
pub fn fsi_with_q(
    par: Parallelism<'_>,
    pc: &BlockPCyclic,
    selection: &Selection,
) -> FsiResult<FsiOutput> {
    fsi_with_factors(par, pc, selection, &BlockFactors::new(pc))
}

/// [`fsi_with_q`] wrapping through a caller-owned inverse cache, so
/// further wraps of the same matrix reuse the `B_k⁻¹` this one formed.
fn fsi_with_factors(
    par: Parallelism<'_>,
    pc: &BlockPCyclic,
    selection: &Selection,
    factors: &BlockFactors<'_>,
) -> FsiResult<FsiOutput> {
    let (outer, inner) = par.split();
    let _fsi_span = fsi_runtime::trace::span("fsi");
    let mut profile = Profile::new();
    let clustered = profile.time("cls", || -> FsiResult<Clustered> {
        let clustered = cls(outer, inner, pc, selection.c, selection.q);
        check_reduced(&clustered)?;
        Ok(clustered)
    })?;
    let g_reduced = profile.time("bsofi", || -> FsiResult<ReducedInverse> {
        match SelectedPattern::for_wrap(selection.pattern) {
            SelectedPattern::Full => {
                let g = if clustered.reduced.l() == 1 {
                    single_block_inverse(inner, &clustered.reduced)?
                } else {
                    let factor = StructuredQr::factor_lookahead(outer, inner, &clustered.reduced);
                    factor.check_health()?;
                    factor.inverse(outer, inner)
                };
                health::check_block(Stage::Bsofi, 0, g.as_slice())?;
                Ok(ReducedInverse::Dense(g))
            }
            seed_pattern => Ok(ReducedInverse::Selected(bsofi_selected(
                outer,
                inner,
                &clustered.reduced,
                &seed_pattern,
            )?)),
        }
    })?;
    let selected = profile.time("wrap", || {
        wrap_with(outer, pc, &clustered, factors, g_reduced.seeds(), selection)
    })?;

    Ok(FsiOutput {
        selected,
        profile,
        clustered,
        g_reduced,
    })
}

/// Cls-stage probe of a freshly clustered matrix: every reduced block must
/// be finite and below the overflow bound (the `κ(B)^c` chain-blowup
/// proxy, paper §II-C). The cached path ([`crate::ClusterCache`]) runs its
/// own richer probe with checksums; this covers the cold [`cls`] path.
fn check_reduced(clustered: &Clustered) -> Result<(), HealthEvent> {
    for m in 0..clustered.b() {
        health::check_block(Stage::Cls, m, clustered.reduced.block(m).as_slice())?;
    }
    Ok(())
}

/// The paper's §V-C measurement selection: *all* `L` diagonal blocks plus
/// `b` block rows plus `b` block columns, produced from a single
/// clustering + BSOFI and one cache of `B_k⁻¹` (the expensive parts are
/// shared by the three wraps).
///
/// Returns `(merged, diagonals)`: the full union for time-dependent
/// measurements, and the diagonal-only subset for equal-time
/// measurements.
pub fn fsi_measurement_set(
    par: Parallelism<'_>,
    pc: &BlockPCyclic,
    c: usize,
    q: usize,
) -> FsiResult<(SelectedInverse, SelectedInverse)> {
    let (outer, _) = par.split();
    let factors = BlockFactors::new(pc);
    let rows_sel = Selection::new(crate::patterns::Pattern::Rows, c, q);
    let out = fsi_with_factors(par, pc, &rows_sel, &factors)?;
    let seeds = out.g_reduced.seeds();
    let mut merged = out.selected;
    let cols = wrap_with(
        outer,
        pc,
        &out.clustered,
        &factors,
        seeds,
        &Selection::new(crate::patterns::Pattern::Columns, c, q),
    )?;
    merged.merge(cols);
    let diags = wrap_all_diagonals_with(outer, pc, &out.clustered, &factors, seeds)?;
    merged.merge(diags.clone());
    Ok((merged, diags))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns::Pattern;
    use fsi_dense::rel_error;
    use fsi_pcyclic::random_pcyclic;
    use rand::SeedableRng;

    fn reference_check(out: &FsiOutput, pc: &BlockPCyclic, selection: &Selection, tol: f64) {
        let g_ref = pc.reference_green();
        for (k, l) in selection.coordinates(pc.l()) {
            let got = out.selected.get(k, l).expect("block present");
            let want = pc.dense_block(&g_ref, k, l);
            assert!(
                rel_error(got, &want) < tol,
                "block ({k},{l}) err {}",
                rel_error(got, &want)
            );
        }
    }

    #[test]
    fn full_pipeline_all_patterns() {
        let pc = random_pcyclic(3, 12, 77);
        for pattern in Pattern::ALL {
            let sel = Selection::new(pattern, 4, 2);
            let out = fsi_with_q(Parallelism::Serial, &pc, &sel).expect("healthy");
            assert_eq!(out.selected.len(), sel.coordinates(12).len());
            reference_check(&out, &pc, &sel, 1e-7);
            // Stage profile is populated.
            assert!(out.profile.count("cls") == 1);
            assert!(out.profile.count("bsofi") == 1);
            assert!(out.profile.count("wrap") == 1);
        }
    }

    #[test]
    fn openmp_and_mkl_modes_agree_with_serial() {
        let pool = ThreadPool::new(3);
        let pc = random_pcyclic(4, 8, 78);
        let sel = Selection::new(Pattern::Columns, 4, 0);
        let serial = fsi_with_q(Parallelism::Serial, &pc, &sel).expect("healthy");
        let omp = fsi_with_q(Parallelism::OpenMp(&pool), &pc, &sel).expect("healthy");
        let mkl = fsi_with_q(Parallelism::MklStyle(&pool), &pc, &sel).expect("healthy");
        for (coord, blk) in serial.selected.iter() {
            let o = omp.selected.get(coord.0, coord.1).expect("omp block");
            let m = mkl.selected.get(coord.0, coord.1).expect("mkl block");
            assert!(rel_error(blk, o) < 1e-13);
            assert!(rel_error(blk, m) < 1e-13);
        }
    }

    #[test]
    fn hubbard_end_to_end_matches_reference() {
        use fsi_pcyclic::{hubbard_pcyclic, BlockBuilder, HsField, HubbardParams, SquareLattice};
        let builder =
            BlockBuilder::new(SquareLattice::new(2, 2), HubbardParams::paper_validation(8));
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2);
        let field = HsField::random(8, 4, &mut rng);
        for spin in fsi_pcyclic::Spin::BOTH {
            let pc = hubbard_pcyclic(&builder, &field, spin);
            let sel = Selection::new(Pattern::Columns, 4, 1);
            let out = fsi_with_q(Parallelism::Serial, &pc, &sel).expect("healthy");
            reference_check(&out, &pc, &sel, 1e-8);
        }
    }

    #[test]
    fn measurement_set_contains_everything_and_validates() {
        let pc = random_pcyclic(3, 8, 80);
        let (merged, diags) = fsi_measurement_set(Parallelism::Serial, &pc, 4, 1).expect("healthy");
        // All diagonals present.
        assert_eq!(diags.len(), 8);
        for k in 0..8 {
            assert!(merged.contains(k, k), "diag ({k},{k})");
        }
        // Rows and columns of the index set present.
        let sel = Selection::new(Pattern::Rows, 4, 1);
        for (k, l) in sel.coordinates(8) {
            assert!(merged.contains(k, l), "row block ({k},{l})");
            assert!(merged.contains(l, k), "col block ({l},{k})");
        }
        // Spot-validate against the reference.
        let g_ref = pc.reference_green();
        for &(k, l) in &[(0usize, 0usize), (5, 2), (2, 6), (7, 7)] {
            if let Some(blk) = merged.get(k, l) {
                let want = pc.dense_block(&g_ref, k, l);
                assert!(rel_error(blk, &want) < 1e-8, "({k},{l})");
            }
        }
    }

    #[test]
    fn reduced_inverse_representation_matches_pattern() {
        let pc = random_pcyclic(2, 8, 81);
        for pattern in [Pattern::Diagonal, Pattern::SubDiagonal] {
            let out = fsi_with_q(Parallelism::Serial, &pc, &Selection::new(pattern, 4, 1))
                .expect("healthy");
            // Diagonal seeds present, off-diagonals not assembled by the
            // sparse path.
            let ReducedInverse::Selected(s) = &out.g_reduced else {
                panic!("{pattern:?}: dense reduced inverse");
            };
            assert!(s.contains(0, 0) && !s.contains(0, 1), "{pattern:?}");
        }
        for pattern in [Pattern::Columns, Pattern::Rows] {
            let out = fsi_with_q(Parallelism::Serial, &pc, &Selection::new(pattern, 4, 1))
                .expect("healthy");
            assert!(out.g_reduced.dense().is_some(), "{pattern:?}");
        }
    }
}
