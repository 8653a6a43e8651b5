//! Delayed (blocked) Green's-function updates.
//!
//! The plain Metropolis sweep applies a rank-1 update of `Ĝ` after every
//! accepted flip — `O(N²)` of Level-2 work per acceptance. The delayed
//! update scheme of Chang et al. (the paper's reference \[4\], standard in
//! modern QUEST) instead *accumulates* up to `k` accepted flips as
//! low-rank factors and only materializes them into `Ĝ` every `k`
//! acceptances with one rank-`k` GEMM:
//!
//! ```text
//! Ĝ_current = Ĝ₀ + U·Vᵀ,     U: N×m, V: N×m  (m ≤ k accepted so far)
//! ```
//!
//! The Metropolis ratio needs `Ĝ_current[i,i]`, and an acceptance needs
//! column `i` and row `i` of `Ĝ_current` — all available in `O(N·m)` from
//! the factors. Flushing costs one `N×N×k` GEMM, so the Level-2 traffic
//! of the plain scheme becomes Level-3, the same transformation FSI
//! applies to the Green's-function phase.
//!
//! The accumulated-update algebra: an accepted flip at site `i` with
//! coefficient `γ/R` appends
//!
//! ```text
//! u = (e_i − g_col_i),  v = (γ/R)·g_row_i
//! ```
//!
//! where `g_col_i`/`g_row_i` are the *current* (factor-corrected) column
//! and row — so later updates see earlier ones, exactly like the
//! immediate scheme. `delayed == immediate` is asserted by tests to
//! 1e-9.

use fsi_dense::{gemm_op, Matrix, Op};
use fsi_runtime::Par;

/// Accumulator for up to `capacity` delayed rank-1 updates of an `N × N`
/// Green's function.
pub(crate) struct DelayedUpdates {
    /// Left factors, one column per accepted flip.
    u: Matrix,
    /// Right factors, one column per accepted flip (the update is
    /// `Σ_m u_m·v_mᵀ`).
    v: Matrix,
    /// Number of accumulated updates `m ≤ capacity`.
    m: usize,
    capacity: usize,
    n: usize,
}

impl DelayedUpdates {
    /// Creates an empty accumulator for `n × n` matrices holding at most
    /// `capacity` updates before a flush is required.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub(crate) fn new(n: usize, capacity: usize) -> Self {
        assert!(capacity > 0, "delay capacity must be positive");
        DelayedUpdates {
            u: Matrix::zeros(n, capacity),
            v: Matrix::zeros(n, capacity),
            m: 0,
            capacity,
            n,
        }
    }

    /// Whether the accumulator must be flushed before another update.
    pub(crate) fn is_full(&self) -> bool {
        self.m == self.capacity
    }

    /// Current effective diagonal element `Ĝ[i,i] + Σ u[i,m]·v[i,m]`.
    pub(crate) fn diag(&self, g0: &Matrix, i: usize) -> f64 {
        let mut d = g0[(i, i)];
        for m in 0..self.m {
            d += self.u[(i, m)] * self.v[(i, m)];
        }
        d
    }

    /// Current effective column `i` into `out`.
    pub(crate) fn col(&self, g0: &Matrix, i: usize, out: &mut [f64]) {
        assert_eq!(out.len(), self.n);
        for (j, o) in out.iter_mut().enumerate() {
            *o = g0[(j, i)];
        }
        for m in 0..self.m {
            let vim = self.v[(i, m)];
            if vim != 0.0 {
                for (j, o) in out.iter_mut().enumerate() {
                    *o += self.u[(j, m)] * vim;
                }
            }
        }
    }

    /// Current effective row `i` into `out`.
    pub(crate) fn row(&self, g0: &Matrix, i: usize, out: &mut [f64]) {
        assert_eq!(out.len(), self.n);
        for (j, o) in out.iter_mut().enumerate() {
            *o = g0[(i, j)];
        }
        for m in 0..self.m {
            let uim = self.u[(i, m)];
            if uim != 0.0 {
                for (j, o) in out.iter_mut().enumerate() {
                    *o += uim * self.v[(j, m)];
                }
            }
        }
    }

    /// Records an accepted flip at site `i` with Metropolis factor `r`
    /// and HS coefficient `gamma`: appends the rank-1 pair computed from
    /// the *current* effective column and row.
    ///
    /// # Panics
    /// Panics if the accumulator is full (callers check [`Self::is_full`]
    /// and flush first).
    pub(crate) fn push(&mut self, g0: &Matrix, i: usize, gamma: f64, r: f64) {
        assert!(!self.is_full(), "flush before pushing more updates");
        let m = self.m;
        let n = self.n;
        // Effective column/row land in thread-local scratch — push sits
        // on the per-acceptance hot path, so no allocator round-trips.
        fsi_runtime::workspace::with_scratch2(n, n, |col, row| {
            self.col(g0, i, col);
            self.row(g0, i, row);
            // Ĝ' = Ĝ − (γ/R)·(e_i − Ĝe_i)·(e_iᵀĜ):
            //   u_m = e_i − col_i,  v_m = −(γ/R)·row_i.
            let coef = -gamma / r;
            for j in 0..n {
                self.u[(j, m)] = -col[j];
                self.v[(j, m)] = coef * row[j];
            }
            self.u[(i, m)] += 1.0;
        });
        self.m += 1;
    }

    /// Materializes the pending updates into `g0` with one rank-`m` GEMM
    /// and clears the accumulator.
    pub(crate) fn flush(&mut self, par: Par<'_>, g0: &mut Matrix) {
        if self.m == 0 {
            return;
        }
        let u = self.u.view(0, 0, self.n, self.m);
        let v = self.v.view(0, 0, self.n, self.m);
        gemm_op(par, 1.0, Op::NoTrans, u, Op::Trans, v, 1.0, g0.as_mut());
        self.m = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsi_dense::{ger, rel_error, test_matrix};

    /// Reference: immediate rank-1 application.
    fn immediate_update(g: &mut Matrix, i: usize, gamma: f64, r: f64) {
        let n = g.rows();
        let mut u = vec![0.0; n];
        let mut v = vec![0.0; n];
        for j in 0..n {
            u[j] = -g[(j, i)];
            v[j] = g[(i, j)];
        }
        u[i] += 1.0;
        ger(-gamma / r, &u, &v, g.as_mut());
    }

    #[test]
    fn delayed_equals_immediate_after_flush() {
        let n = 12;
        let g0 = test_matrix(n, n, 1);
        let flips = [(3usize, 0.7), (5, -0.4), (3, 0.9), (0, 0.2), (11, -0.8)];

        // Immediate chain.
        let mut g_imm = g0.clone();
        for &(i, gamma) in &flips {
            let r = 1.0 + gamma * (1.0 - g_imm[(i, i)]);
            immediate_update(&mut g_imm, i, gamma, r);
        }

        // Delayed chain with the same ratios.
        let mut g_del = g0.clone();
        let mut acc = DelayedUpdates::new(n, 8);
        for &(i, gamma) in &flips {
            let r = 1.0 + gamma * (1.0 - acc.diag(&g_del, i));
            acc.push(&g_del, i, gamma, r);
        }
        acc.flush(Par::Seq, &mut g_del);
        assert!(
            rel_error(&g_del, &g_imm) < 1e-12,
            "delayed vs immediate: {}",
            rel_error(&g_del, &g_imm)
        );
    }

    #[test]
    fn effective_accessors_track_pending_updates() {
        let n = 8;
        let mut g = test_matrix(n, n, 2);
        let mut acc = DelayedUpdates::new(n, 4);
        let mut g_check = g.clone();
        for (i, gamma) in [(1usize, 0.5), (6, -0.3)] {
            let r = 1.0 + gamma * (1.0 - acc.diag(&g, i));
            acc.push(&g, i, gamma, r);
            let r_check = 1.0 + gamma * (1.0 - g_check[(i, i)]);
            assert!((r - r_check).abs() < 1e-12);
            immediate_update(&mut g_check, i, gamma, r_check);
        }
        // diag/col/row views equal the immediately-updated matrix.
        for i in 0..n {
            assert!(
                (acc.diag(&g, i) - g_check[(i, i)]).abs() < 1e-12,
                "diag {i}"
            );
            let mut col = vec![0.0; n];
            acc.col(&g, i, &mut col);
            let mut row = vec![0.0; n];
            acc.row(&g, i, &mut row);
            for j in 0..n {
                assert!((col[j] - g_check[(j, i)]).abs() < 1e-12);
                assert!((row[j] - g_check[(i, j)]).abs() < 1e-12);
            }
        }
        acc.flush(Par::Seq, &mut g);
        assert!(rel_error(&g, &g_check) < 1e-12);
    }

    #[test]
    fn flush_of_empty_accumulator_is_a_noop() {
        let n = 5;
        let mut g = test_matrix(n, n, 3);
        let want = g.clone();
        let mut acc = DelayedUpdates::new(n, 2);
        acc.flush(Par::Seq, &mut g);
        assert_eq!(g, want);
    }

    #[test]
    #[should_panic(expected = "flush before pushing")]
    fn pushing_past_capacity_panics() {
        let n = 4;
        let g = test_matrix(n, n, 4);
        let mut acc = DelayedUpdates::new(n, 1);
        acc.push(&g, 0, 0.1, 1.0);
        acc.push(&g, 1, 0.1, 1.0);
    }
}
