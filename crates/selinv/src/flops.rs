//! Closed-form complexity formulas of paper §II-C, in units of flops.
//!
//! The paper's comparison table (explicit form of Eq. (2)/(3) vs FSI) in
//! `N³` units:
//!
//! | selection       | explicit form | FSI                 |
//! |-----------------|---------------|---------------------|
//! | b diagonals     | `2b²c`        | `[2(c−1) + 7b]·b`   |
//! | b−1 sub-diag.   | `4b²c`        | `[2c + 7b]·b`       |
//! | b cols/rows     | `b³c²`        | `3b²c`              |
//!
//! These drive the `table_complexity` harness, which prints the formulas
//! next to *measured* flop counts from [`fsi_runtime::flops`] so the two
//! can be compared directly.

use crate::patterns::{Pattern, SelectedPattern};
use fsi_runtime::flops::counts;

/// `N³` as u64.
fn n3(n: usize) -> u64 {
    (n as u64).pow(3)
}

/// Flops of one panel QR as [`fsi_dense::geqrf`] charges it: the
/// Householder factorization plus the compact-WY factor `T` it always
/// builds.
fn panel_qr(m: usize, n: usize) -> u64 {
    counts::geqrf(m, n) + counts::larft(m, n)
}

/// Flops of materializing `w` columns of an `m`-row `Q̃ᵀ = I − V·Tᵀ·Vᵀ`
/// (`bsofi::qt_columns`): `V[lo..hi, :]·T`, then `V·(…)ᵀ`.
fn qt_columns(m: usize, n: usize, w: usize) -> u64 {
    counts::gemm(w, n, n) + counts::gemm(m, w, n)
}

/// Exact flop count of [`crate::StructuredQr::factor`] /
/// `factor_lookahead` (stage A of BSOFI), mirroring the kernel charge
/// sequence call for call: `b−1` QRs of `2N×N` panels with their `T`; per
/// interior panel `cornerᵀ·V₁` (`N×N×N`), `[V₂; cornerᵀ·V₁]·T`
/// (`2N×N×N`) and the one `2N×2N×N` product that updates the
/// superdiagonal and the last block column together (`14N³`); for panel
/// `b−2`, where the two columns coincide, `cornerᵀ·V₁`, `(…)·T` and a
/// `2N×N×N` update (`8N³`); and the final `N×N` QR.
///
/// # Panics
/// Panics if `b < 2` (the `b = 1` degenerate path is accounted inside
/// [`bsofi_selected_flops`]).
pub fn structured_qr_flops(n: usize, b: usize) -> u64 {
    assert!(b >= 2, "structured QR needs at least two block rows");
    let interior =
        counts::gemm(n, n, n) + counts::gemm(2 * n, n, n) + counts::gemm(2 * n, 2 * n, n);
    let merged = 2 * counts::gemm(n, n, n) + counts::gemm(2 * n, n, n);
    (b as u64 - 1) * panel_qr(2 * n, n) + (b as u64 - 2) * interior + merged + panel_qr(n, n)
}

/// Exact flop count of [`crate::bsofi_selected`] for a given request,
/// mirroring the kernel charges of the selected assembly call for call:
/// the structured QR, the triangle inversions `R_jj⁻¹` for `j ≥ kmin` (the
/// first requested row), the shared couplings `W_j` and last block column,
/// and then the path the pattern selects. [`SelectedPattern::Full`] runs
/// the per-row recurrences and the dense right-apply (three GEMMs per
/// panel, [`counts::ormqr`]). The diagonal requests run the `(S, T)`
/// recursion: `T_{b−1} = Q̃_{b−1}ᵀ`, then per level the columns of `Q̃ᵢᵀ`
/// it reads, three GEMMs per finished diagonal block and three to advance
/// the carriers (one of each fewer where `S_{i+1}` is still zero), and two
/// for `Ḡ(0, 0)` — `≈ 33bN³` past the factorization for all `b` diagonals.
/// The `bsofi.selected` trace span measures exactly this value (asserted
/// in the observability suite).
pub fn bsofi_selected_flops(n: usize, b: usize, pattern: &SelectedPattern) -> u64 {
    if b == 1 {
        // Degenerate path: QR of M̄, triangle inversion, one right-apply.
        return panel_qr(n, n) + 2 * counts::trtri(n) + counts::ormqr(n, n, n);
    }
    let rows = pattern.rows(b);
    let kmin = rows[0];
    let nnn = counts::gemm(n, n, n);
    let mut total = structured_qr_flops(n, b) + rinv_and_last_column(n, b, kmin);
    // Shared couplings W_j = −E_{j−1}·R_jj⁻¹ for kmin < j < b−1.
    total += ((b - 1).saturating_sub(kmin + 1)) as u64 * nnn;
    if matches!(pattern, SelectedPattern::Full) {
        // Row recurrences: row k < b−1 chains through columns k+1..b−2.
        for k in 0..b {
            total += ((b - 1).saturating_sub(k + 1)) as u64 * nnn;
        }
        return total + full_right_apply(n, b);
    }
    // Diagonal requests: the (S, T) recursion.
    total += qt_columns(n, n, n);
    for i in kmin.saturating_sub(1)..b - 1 {
        let s_live = u64::from(i + 2 < b);
        let advance = i >= kmin;
        let emit = rows.binary_search(&(i + 1)).is_ok();
        let halves = usize::from(advance) + usize::from(emit);
        total += qt_columns(2 * n, n, halves * n);
        if emit {
            total += (2 + s_live) * nnn;
        }
        if advance {
            total += (1 + 2 * s_live) * nnn;
        }
    }
    if kmin == 0 {
        total += 2 * nnn;
    }
    total
}

/// Exact flop count of the dense BSOFI inverse `Ḡ = R⁻¹·Qᵀ`
/// ([`crate::StructuredQr::inverse`], the BSOFI stage of FSI for the
/// columns and rows patterns), mirroring the kernel charges call for call:
/// the structured QR, every `R_jj⁻¹`, each block column `j < b−1` of
/// `R⁻¹` by its own upward recurrence (two GEMMs per block above the
/// diagonal), the last column with its `C` fills, and the full right-apply
/// of every panel. One GEMM per interior column more than the shared
/// couplings of [`bsofi_selected_flops`]'s full request: `(b−2)(b−1)` GEMMs
/// against `(b−2)(b+1)/2`.
pub fn bsofi_inverse_flops(n: usize, b: usize) -> u64 {
    if b == 1 {
        return bsofi_selected_flops(n, 1, &SelectedPattern::Full);
    }
    structured_qr_flops(n, b)
        + rinv_and_last_column(n, b, 0)
        + ((b - 1) * (b - 2)) as u64 * counts::gemm(n, n, n)
        + full_right_apply(n, b)
}

/// `R_jj⁻¹` for `j ≥ kmin` (`invert_upper` charges `2·trtri`) and the last
/// block column `X_{i,b−1}`, `i = b−2..kmin`: two GEMMs per step plus the
/// `C`-fill term where it exists (`i ≤ b−3`, i.e. `b ≥ 3`).
fn rinv_and_last_column(n: usize, b: usize, kmin: usize) -> u64 {
    let mut total = (b - kmin) as u64 * 2 * counts::trtri(n);
    for i in kmin..b - 1 {
        let gemms = if b >= 3 && i <= b - 3 { 3 } else { 2 };
        total += gemms * counts::gemm(n, n, n);
    }
    total
}

/// Stage C of a dense request: the right-apply of every panel to the whole
/// `bN × bN` buffer.
fn full_right_apply(n: usize, b: usize) -> u64 {
    (0..b)
        .map(|i| {
            let panel_m = if i == b - 1 { n } else { 2 * n };
            counts::ormqr(panel_m, n, b * n)
        })
        .sum()
}

/// Flops of the explicit-form computation (paper table, left column).
pub fn explicit_flops(pattern: Pattern, n: usize, l: usize, c: usize) -> u64 {
    let b = (l / c) as u64;
    let c = c as u64;
    match pattern {
        Pattern::Diagonal => 2 * b * b * c * n3(n),
        Pattern::SubDiagonal => 4 * b * b * c * n3(n),
        Pattern::Columns | Pattern::Rows => b * b * b * c * c * n3(n),
    }
}

/// Flops of the FSI computation (paper table, right column).
pub fn fsi_flops(pattern: Pattern, n: usize, l: usize, c: usize) -> u64 {
    let b = (l / c) as u64;
    let c = c as u64;
    match pattern {
        Pattern::Diagonal => (2 * (c - 1) + 7 * b) * b * n3(n),
        Pattern::SubDiagonal => (2 * c + 7 * b) * b * n3(n),
        Pattern::Columns | Pattern::Rows => 3 * b * b * c * n3(n),
    }
}

/// Exact flop count of one FSI call, the sum the paper's rounded table
/// approximates: CLS ([`crate::cls::cls_flops`]), the BSOFI path the
/// pattern seeds ([`bsofi_inverse_flops`] for the dense `Ḡ` of the
/// columns and rows patterns, [`bsofi_selected_flops`] for the diagonal
/// seeds) and WRP ([`crate::wrap::wrap_kernel_flops`]), each the
/// kernel-exact model of its stage. None depends on the wrap shift `q`.
pub fn fsi_flops_exact(pattern: Pattern, n: usize, l: usize, c: usize) -> u64 {
    let b = l / c;
    let bsofi = match SelectedPattern::for_wrap(pattern) {
        SelectedPattern::Full => bsofi_inverse_flops(n, b),
        seeds => bsofi_selected_flops(n, b, &seeds),
    };
    crate::cls::cls_flops(n, l, c) + bsofi + crate::wrap::wrap_kernel_flops(pattern, n, l, c)
}

/// Speedup factor of FSI over the explicit form predicted by the formulas.
pub fn predicted_speedup(pattern: Pattern, n: usize, l: usize, c: usize) -> f64 {
    explicit_flops(pattern, n, l, c) as f64 / fsi_flops(pattern, n, l, c) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_values_at_paper_parameters() {
        // (N, L, c) = (1, 100, 10) so N³ = 1; b = 10.
        let (n, l, c) = (1usize, 100usize, 10usize);
        assert_eq!(explicit_flops(Pattern::Diagonal, n, l, c), 2 * 100 * 10);
        assert_eq!(explicit_flops(Pattern::SubDiagonal, n, l, c), 4 * 100 * 10);
        assert_eq!(explicit_flops(Pattern::Columns, n, l, c), 1000 * 100);
        assert_eq!(fsi_flops(Pattern::Diagonal, n, l, c), (2 * 9 + 70) * 10);
        assert_eq!(fsi_flops(Pattern::SubDiagonal, n, l, c), (20 + 70) * 10);
        assert_eq!(fsi_flops(Pattern::Columns, n, l, c), 3 * 100 * 10);
    }

    #[test]
    fn fsi_wins_for_paper_scale_problems() {
        // The paper's headline: FSI is ~bc/3 faster than explicit columns.
        let (n, l, c) = (100usize, 100usize, 10usize);
        let s = predicted_speedup(Pattern::Columns, n, l, c);
        let b = (l / c) as f64;
        let want = b * c as f64 / 3.0;
        assert!(
            (s - want).abs() / want < 1e-12,
            "speedup {s} vs bc/3 = {want}"
        );
        assert!(s > 30.0);
    }

    #[test]
    fn exact_budget_close_to_rounded_table() {
        let (n, l, c) = (64usize, 100usize, 10usize);
        for pattern in [Pattern::Columns, Pattern::Rows] {
            let exact = fsi_flops_exact(pattern, n, l, c) as f64;
            let rounded = fsi_flops(pattern, n, l, c) as f64;
            let ratio = exact / rounded;
            assert!(
                (0.5..2.0).contains(&ratio),
                "{pattern:?}: exact {exact} vs table {rounded}"
            );
        }
    }

    #[test]
    fn structured_qr_count_is_exact_at_b2() {
        use fsi_runtime::flops::counts;
        // b = 2: one 2N×N panel QR, the merged last-column update
        // (cornerᵀ·V₁, ·T, V·(…)ᵀ), one N×N QR — each QR with its T.
        let n = 5;
        assert_eq!(
            structured_qr_flops(n, 2),
            counts::geqrf(2 * n, n)
                + counts::larft(2 * n, n)
                + 2 * counts::gemm(n, n, n)
                + counts::gemm(2 * n, n, n)
                + counts::geqrf(n, n)
                + counts::larft(n, n)
        );
    }

    #[test]
    fn selected_flops_ordering_and_savings() {
        let (n, b) = (64usize, 16usize);
        let single = bsofi_selected_flops(n, b, &SelectedPattern::DiagonalBlock(7));
        let diags = bsofi_selected_flops(n, b, &SelectedPattern::Diagonals);
        let full = bsofi_selected_flops(n, b, &SelectedPattern::Full);
        assert!(single < diags, "{single} vs {diags}");
        assert!(diags < full, "{diags} vs {full}");
        // Diagonal-only stage C truncation is the headline saving.
        let ratio = full as f64 / diags as f64;
        assert!(ratio > 1.3, "full/diagonals flop ratio {ratio}");
        // A single block skips almost all of stage B/C beyond the factor.
        let factor = structured_qr_flops(n, b);
        assert!((single - factor) * 4 < full - factor);
    }

    #[test]
    fn diagonal_assembly_is_linear_in_b() {
        // Stages B + C of an all-diagonals request cost ≈ 33N³ per level
        // however many levels there are: no b² term.
        let n = 64;
        for b in [8usize, 16, 64, 256, 1024] {
            let assembly =
                bsofi_selected_flops(n, b, &SelectedPattern::Diagonals) - structured_qr_flops(n, b);
            let per_level = assembly as f64 / (b as u64 * n3(n)) as f64;
            assert!((28.0..33.0).contains(&per_level), "b={b}: {per_level}");
        }
    }

    #[test]
    fn selected_flops_single_block_matrix() {
        use fsi_runtime::flops::counts;
        let n = 6;
        let want = counts::geqrf(n, n)
            + counts::larft(n, n)
            + 2 * counts::trtri(n)
            + counts::ormqr(n, n, n);
        for pattern in [
            SelectedPattern::Diagonals,
            SelectedPattern::DiagonalBlock(0),
            SelectedPattern::Full,
        ] {
            assert_eq!(bsofi_selected_flops(n, 1, &pattern), want);
        }
    }

    #[test]
    fn full_inverse_dominates_everything() {
        let (n, l, c) = (100, 100, 10);
        // The full LU inversion baseline: 2(NL)³.
        let full = 2 * ((n * l) as u64).pow(3);
        assert!(full > explicit_flops(Pattern::Columns, n, l, c));
        assert!(full > fsi_flops_exact(Pattern::Columns, n, l, c));
        // Paper: FSI is (2/3)L·c ≈ 667× cheaper than full LU inversion for
        // b block columns at these parameters.
        let ratio = full as f64 / fsi_flops(Pattern::Columns, n, l, c) as f64;
        assert!(ratio > 500.0, "ratio {ratio}");
    }
}
