//! Analytic floating-point-operation accounting.
//!
//! The paper reports performance in Gflop/s per FSI stage (Fig. 8) and
//! aggregate Tflop/s for the hybrid runs (Fig. 9). Rather than hardware
//! counters, we use the same convention the dense-linear-algebra community
//! uses: every kernel adds its *textbook* flop count to a counter
//! (`2mnk` for GEMM, `2/3 n³` for LU, `2n³ - 2/3 n³` extra for inversion,
//! `2n²(m - n/3)` for QR of an m×n panel, …). Dividing by wall time yields
//! the same "useful flops per second" metric the paper plots.
//!
//! Flops are attributed to the innermost open [`crate::trace`] span of the
//! charging thread (worker threads inherit the spawning span through the
//! pool), so concurrent regions measure independently. Harnesses bracket a
//! region with `trace::span(..)` and read flops from
//! [`crate::trace::SpanGuard::finish`] or the run report.

/// Adds `n` flops to the innermost open trace span of this thread.
#[inline]
pub fn add_flops(n: u64) {
    crate::trace::charge_flops(n);
}

/// Textbook flop counts for the dense kernels, kept in one place so kernels
/// and complexity tables agree by construction.
pub mod counts {
    /// General matrix multiply `C += A·B`, A m×k, B k×n: `2mnk`.
    pub fn gemm(m: usize, n: usize, k: usize) -> u64 {
        2 * m as u64 * n as u64 * k as u64
    }

    /// LU factorization with partial pivoting of an m×n matrix (m ≥ n):
    /// `mn² − n³/3` flops (LAPACK working-note convention); for square n×n
    /// this is the familiar `2n³/3`.
    pub fn getrf(m: usize, n: usize) -> u64 {
        let (m, n) = (m as u64, n as u64);
        m * n * n - n * n * n / 3
    }

    /// Triangular solve with `nrhs` right-hand sides against an n×n factor:
    /// `n²·nrhs` multiply-adds = `2n²·nrhs` flops for one triangle; a full
    /// `getrs` (L then U) costs twice this.
    pub fn trsm(n: usize, nrhs: usize) -> u64 {
        (n as u64) * (n as u64) * (nrhs as u64)
    }

    /// Full inversion from an LU factorization (LAPACK GETRI): `4n³/3`
    /// beyond the factorization, totalling `2n³` with it.
    pub fn getri(n: usize) -> u64 {
        4 * (n as u64).pow(3) / 3
    }

    /// Householder QR of an m×n panel (m ≥ n): `2n²(m − n/3)` flops.
    pub fn geqrf(m: usize, n: usize) -> u64 {
        let (m, n) = (m as u64, n as u64);
        2 * n * n * m - 2 * n * n * n / 3
    }

    /// Building the `n × n` compact-WY factor `T` of an m×n panel's
    /// reflectors (LARFT): `n²(m − n/3)` flops, half of [`geqrf`]. GEQRF
    /// here always builds `T`, so one factorization charges the sum of
    /// the two.
    pub fn larft(m: usize, n: usize) -> u64 {
        let (m, n) = (m as u64, n as u64);
        n * n * m - n * n * n / 3
    }

    /// Applying `op(Q) = I − V·op(T)·Vᵀ` (from an m×n panel
    /// factorization) to an m×k matrix as the three dense GEMMs the kernel
    /// runs — `Vᵀ·C`, `op(T)·W`, `V·W` — `4mnk + 2n²k` flops. The
    /// textbook ORMQR count `4mnk − 2n²k` skips the zero triangles of `V`
    /// and `T`; the GEMMs do not, and the model charges what runs.
    pub fn ormqr(m: usize, n: usize, k: usize) -> u64 {
        2 * gemm(n, k, m) + gemm(n, k, n)
    }

    /// Triangular inversion of an n×n triangle (TRTRI): `n³/3`.
    pub fn trtri(n: usize) -> u64 {
        (n as u64).pow(3) / 3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn textbook_counts_match_known_values() {
        // 2mnk for gemm.
        assert_eq!(counts::gemm(10, 20, 30), 12_000);
        // Square LU ≈ 2n³/3.
        let n = 30u64;
        assert_eq!(counts::getrf(30, 30), n * n * n - n * n * n / 3);
        // QR of square panel: 2n³ − 2n³/3 = (4/3)n³.
        assert_eq!(counts::geqrf(30, 30), 2 * n * n * n - 2 * n * n * n / 3);
        assert_eq!(counts::getri(10), 4 * 1000 / 3);
        assert_eq!(counts::trtri(9), 729 / 3);
        assert_eq!(counts::trsm(10, 5), 500);
        assert_eq!(counts::ormqr(20, 10, 5), 4 * 20 * 10 * 5 + 2 * 100 * 5);
        assert_eq!(2 * counts::larft(30, 12), counts::geqrf(30, 12));
    }
}
