//! LU factorization with partial pivoting (GETRF), solves (GETRS), and
//! explicit inversion (GETRI).
//!
//! The factorization is the right-looking blocked algorithm: factor an
//! `m × NB` panel with the unblocked kernel, apply its row interchanges to
//! the rest of the matrix, triangular-solve the block row, and GEMM-update
//! the trailing submatrix — so the bulk of the flops flow through the
//! level-3 kernel, as in LAPACK.
//!
//! In the reproduction these routines play two roles: they are the
//! "Intel MKL DGETRF/DGETRI" stand-in for the *full inversion baseline* the
//! paper validates against (§V-A), and they provide the `B_k⁻¹` applications
//! inside the wrapping stage (relations (4) and (7) multiply by an inverse,
//! which the wrap engine forms once per block with GETRF + GETRI and then
//! applies as a plain product).
//!
//! Both GETRF and GETRI charge their textbook flop totals once
//! (`2n³/3` and `4n³/3`) and run their internal triangular solves and
//! products through the uncounted entry points, so a traced
//! factor-and-invert is exactly `2n³`.

use crate::blas::axpy;
use crate::error::{DenseError, Result};
use crate::gemm::{gemm_op_uncounted, Op};
use crate::matrix::{MatMut, Matrix};
use crate::tri;
use fsi_runtime::{flops, Par};

/// Panel width of the blocked factorization.
const NB: usize = 64;

/// An LU factorization `P·A = L·U` with partial pivoting.
///
/// `lu` packs the unit-lower `L` (below the diagonal) and `U` (upper
/// triangle); `piv[k]` is the row swapped with row `k` at step `k`
/// (0-based LAPACK `ipiv` convention).
#[derive(Debug)]
pub struct LuFactor {
    lu: Matrix,
    piv: Vec<usize>,
    /// Sign of the permutation (+1 or −1), tracked during pivoting.
    perm_sign: f64,
}

/// Factors a square matrix, consuming it.
///
/// Returns [`DenseError::Singular`] if an exactly zero pivot is found; the
/// factorization up to that column is still mathematically valid but the
/// factor object is not returned, because every downstream use in this
/// workspace requires a nonsingular matrix.
pub fn getrf(a: Matrix) -> Result<LuFactor> {
    getrf_par(Par::Seq, a)
}

/// Factors a square matrix using the given parallelism for the trailing
/// GEMM updates.
pub fn getrf_par(par: Par<'_>, mut a: Matrix) -> Result<LuFactor> {
    assert!(a.is_square(), "getrf expects a square matrix");
    let _kernel = fsi_runtime::trace::kernel_span("getrf");
    let n = a.rows();
    flops::add_flops(flops::counts::getrf(n, n));
    let mut piv = vec![0usize; n];
    let mut perm_sign = 1.0;
    let mut j = 0;
    while j < n {
        let nb = NB.min(n - j);
        // Factor the panel A[j.., j..j+nb] (unblocked, with pivot search
        // over the full remaining column height).
        factor_panel(&mut a, j, nb, &mut piv[j..j + nb], &mut perm_sign)?;
        // Apply the panel's interchanges to the columns outside the panel.
        for (k, &p) in (j..j + nb).zip(piv[j..j + nb].iter()) {
            if p != k {
                swap_rows_outside(&mut a, k, p, j, nb);
            }
        }
        if j + nb < n {
            // Block row: U[j..j+nb, j+nb..] := L[panel]⁻¹ · A[j..j+nb, j+nb..]
            let (left, right) = a.as_mut().split_at_col(j + nb);
            let lpanel = left.as_ref().submatrix(j, j, nb, nb);
            let (_, mut urow) = right.split_at_row(j);
            let (mut urow, trailing_rows) = urow.rb_mut().split_at_row(nb);
            tri::solve_unit_lower_uncounted(lpanel, urow.rb_mut());
            // Trailing update: A[j+nb.., j+nb..] −= L[j+nb.., j..j+nb]·U_row
            let l21 = left.as_ref().submatrix(j + nb, j, n - j - nb, nb);
            gemm_op_uncounted(
                par,
                -1.0,
                Op::NoTrans,
                l21,
                Op::NoTrans,
                urow.as_ref(),
                1.0,
                trailing_rows,
            );
        }
        j += nb;
    }
    Ok(LuFactor {
        lu: a,
        piv,
        perm_sign,
    })
}

/// Unblocked panel factorization of `A[j.., j..j+nb]` with partial
/// pivoting; pivot rows are swapped across the *panel* columns only (the
/// caller swaps the rest).
fn factor_panel(
    a: &mut Matrix,
    j: usize,
    nb: usize,
    piv: &mut [usize],
    perm_sign: &mut f64,
) -> Result<()> {
    let n = a.rows();
    for k in 0..nb {
        let col = j + k;
        // Pivot search in A[col.., col]: the first entry of largest
        // magnitude.
        let below = &a.as_slice()[col * n + col..(col + 1) * n];
        let mut p = col;
        let mut pmax = below[0].abs();
        for (i, v) in below.iter().enumerate().skip(1) {
            if v.abs() > pmax {
                pmax = v.abs();
                p = col + i;
            }
        }
        piv[k] = p;
        if pmax == 0.0 {
            return Err(DenseError::Singular { column: col });
        }
        if p != col {
            *perm_sign = -*perm_sign;
            // Swap rows col and p inside the panel columns.
            for c in j..j + nb {
                let tmp = a[(col, c)];
                a[(col, c)] = a[(p, c)];
                a[(p, c)] = tmp;
            }
        }
        // Scale the multipliers, then the rank-1 update of the remaining
        // panel — one contiguous column at a time.
        let (done, rest) = a.as_mut_slice().split_at_mut((col + 1) * n);
        let inv = 1.0 / done[col * n + col];
        let multipliers = &mut done[col * n + col + 1..];
        for m in multipliers.iter_mut() {
            *m *= inv;
        }
        for column in rest.chunks_exact_mut(n).take(j + nb - col - 1) {
            axpy(-column[col], multipliers, &mut column[col + 1..]);
        }
    }
    Ok(())
}

/// Swaps rows `k` and `p` in all columns except the panel `[j, j+nb)`.
fn swap_rows_outside(a: &mut Matrix, k: usize, p: usize, j: usize, nb: usize) {
    let n = a.cols();
    for c in (0..j).chain(j + nb..n) {
        let tmp = a[(k, c)];
        a[(k, c)] = a[(p, c)];
        a[(p, c)] = tmp;
    }
}

impl LuFactor {
    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.lu.rows()
    }

    /// The packed LU factors (for inspection/testing).
    pub fn packed(&self) -> &Matrix {
        &self.lu
    }

    /// The pivot vector (`piv[k]` = row swapped with `k` at step `k`).
    pub fn pivots(&self) -> &[usize] {
        &self.piv
    }

    /// Applies the factorization to solve `A·X = B` in place.
    pub fn solve_in_place(&self, mut b: MatMut<'_>) {
        assert_eq!(b.rows(), self.n(), "solve: rhs row count mismatch");
        // x = U⁻¹ L⁻¹ P b
        for k in 0..self.n() {
            let p = self.piv[k];
            if p != k {
                for c in 0..b.cols() {
                    let col = b.col_mut(c);
                    col.swap(k, p);
                }
            }
        }
        tri::solve_unit_lower(self.lu.as_ref(), b.rb_mut());
        tri::solve_upper(self.lu.as_ref(), b);
    }

    /// Solves `A·X = B`, returning `X`.
    pub fn solve(&self, b: &Matrix) -> Matrix {
        let mut x = b.clone();
        self.solve_in_place(x.as_mut());
        x
    }

    /// Applies the factorization to solve `Aᵀ·X = B` in place.
    ///
    /// With `P·A = L·U`: `Aᵀ x = b  ⇔  Uᵀ z = b, Lᵀ w = z, x = Pᵀ w`.
    pub fn solve_transpose_in_place(&self, mut b: MatMut<'_>) {
        assert_eq!(b.rows(), self.n(), "solve_t: rhs row count mismatch");
        tri::solve_upper_trans(self.lu.as_ref(), b.rb_mut());
        tri::solve_unit_lower_trans(self.lu.as_ref(), b.rb_mut());
        for k in (0..self.n()).rev() {
            let p = self.piv[k];
            if p != k {
                for c in 0..b.cols() {
                    let col = b.col_mut(c);
                    col.swap(k, p);
                }
            }
        }
    }

    /// Explicit inverse `A⁻¹ = U⁻¹·L⁻¹·P` (LAPACK GETRI): invert the upper
    /// triangle, right-solve against the unit lower one, then undo the
    /// row interchanges as column swaps — `4n³/3` flops, against `2n³`
    /// for solving a dense identity.
    pub fn inverse(&self) -> Matrix {
        let _kernel = fsi_runtime::trace::kernel_span("getri");
        let n = self.n();
        flops::add_flops(flops::counts::getri(n));
        // Every element is written below: no zero fill needed.
        let mut x = Matrix::pooled(n, n);
        tri::copy_upper(self.lu.as_ref(), x.as_mut_slice());
        tri::invert_upper_uncounted(x.as_mut());
        tri::solve_unit_lower_right_uncounted(self.lu.as_ref(), x.as_mut());
        // X := X·P with P = P_{n−1}⋯P_0: the column swaps in reverse
        // (p > k: partial pivoting picks from the rows below).
        for k in (0..n).rev() {
            let p = self.piv[k];
            if p != k {
                let (mut left, mut right) = x.as_mut().split_at_col(p);
                left.col_mut(k).swap_with_slice(right.col_mut(0));
            }
        }
        x
    }

    /// Determinant from the LU factors.
    pub fn det(&self) -> f64 {
        let mut d = self.perm_sign;
        for i in 0..self.n() {
            d *= self.lu[(i, i)];
        }
        d
    }

    /// `(sign, log|det|)` — robust for the large matrices in the Metropolis
    /// ratio tests where `det` itself would over/underflow.
    pub fn sign_log_det(&self) -> (f64, f64) {
        let mut sign = self.perm_sign;
        let mut logdet = 0.0;
        for i in 0..self.n() {
            let d = self.lu[(i, i)];
            if d < 0.0 {
                sign = -sign;
            }
            logdet += d.abs().ln();
        }
        (sign, logdet)
    }
}

/// Convenience: solves `A·X = B` for square `A`.
pub fn solve(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    Ok(getrf(a.clone())?.solve(b))
}

/// Convenience: explicit inverse of a square matrix.
pub fn inverse(a: &Matrix) -> Result<Matrix> {
    Ok(getrf(a.clone())?.inverse())
}

/// Convenience: explicit inverse with parallel trailing updates.
pub fn inverse_par(par: Par<'_>, a: &Matrix) -> Result<Matrix> {
    Ok(getrf_par(par, a.clone())?.inverse())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{mul, test_matrix};
    use fsi_runtime::ThreadPool;

    /// Random diagonally-dominated matrix (guaranteed nonsingular).
    fn well_conditioned(n: usize, seed: u64) -> Matrix {
        let mut a = test_matrix(n, n, seed);
        a.add_diag(n as f64 * 0.5);
        a
    }

    #[test]
    fn reconstruction_pa_eq_lu() {
        for n in [1usize, 2, 5, 33, 70, 129] {
            let a = well_conditioned(n, n as u64);
            let f = getrf(a.clone()).expect("nonsingular");
            // Build P·A by applying pivots to a copy of A.
            let mut pa = a.clone();
            for k in 0..n {
                let p = f.pivots()[k];
                if p != k {
                    for c in 0..n {
                        let tmp = pa[(k, c)];
                        pa[(k, c)] = pa[(p, c)];
                        pa[(p, c)] = tmp;
                    }
                }
            }
            let lu = f.packed();
            let l = Matrix::from_fn(n, n, |i, j| {
                if i == j {
                    1.0
                } else if i > j {
                    lu[(i, j)]
                } else {
                    0.0
                }
            });
            let u = Matrix::from_fn(n, n, |i, j| if i <= j { lu[(i, j)] } else { 0.0 });
            let mut resid = mul(&l, &u);
            resid.sub_assign(&pa);
            assert!(
                resid.max_abs() < 1e-11 * (n as f64),
                "n={n}: |LU − PA| = {}",
                resid.max_abs()
            );
        }
    }

    #[test]
    fn solve_gives_small_residual() {
        let n = 80;
        let a = well_conditioned(n, 3);
        let b = test_matrix(n, 7, 4);
        let x = solve(&a, &b).unwrap();
        let mut r = mul(&a, &x);
        r.sub_assign(&b);
        assert!(r.max_abs() < 1e-10);
    }

    #[test]
    fn transpose_solve_gives_small_residual() {
        let n = 40;
        let a = well_conditioned(n, 5);
        let b = test_matrix(n, 3, 6);
        let f = getrf(a.clone()).unwrap();
        let mut x = b.clone();
        f.solve_transpose_in_place(x.as_mut());
        let mut r = mul(&a.transpose(), &x);
        r.sub_assign(&b);
        assert!(r.max_abs() < 1e-10);
    }

    #[test]
    fn inverse_roundtrip() {
        let n = 50;
        let a = well_conditioned(n, 9);
        let ainv = inverse(&a).unwrap();
        let mut prod = mul(&a, &ainv);
        prod.add_diag(-1.0);
        assert!(prod.max_abs() < 1e-10, "|A·A⁻¹ − I| = {}", prod.max_abs());
    }

    #[test]
    fn parallel_factorization_matches_sequential() {
        let pool = ThreadPool::new(4);
        let n = 160;
        let a = well_conditioned(n, 10);
        let f_seq = getrf(a.clone()).unwrap();
        let f_par = getrf_par(Par::Pool(&pool), a).unwrap();
        let mut d = f_seq.packed().clone();
        d.sub_assign(f_par.packed());
        assert_eq!(f_seq.pivots(), f_par.pivots());
        assert!(d.max_abs() < 1e-12);
    }

    #[test]
    fn determinant_matches_known_cases() {
        // 2×2 with known determinant.
        let a = Matrix::from_col_major(2, 2, vec![3.0, 1.0, 2.0, 4.0]); // [[3,2],[1,4]]
        let f = getrf(a).unwrap();
        assert!((f.det() - 10.0).abs() < 1e-12);
        let (sign, logdet) = f.sign_log_det();
        assert_eq!(sign, 1.0);
        assert!((logdet - 10.0f64.ln()).abs() < 1e-12);
        // Identity has det 1 regardless of size.
        let f = getrf(Matrix::identity(17)).unwrap();
        assert!((f.det() - 1.0).abs() < 1e-12);
        // A permutation flips the sign.
        let mut p = Matrix::identity(4);
        p[(0, 0)] = 0.0;
        p[(1, 1)] = 0.0;
        p[(0, 1)] = 1.0;
        p[(1, 0)] = 1.0;
        let f = getrf(p).unwrap();
        assert!((f.det() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_is_reported() {
        let mut a = Matrix::identity(5);
        a[(2, 2)] = 0.0;
        match getrf(a) {
            Err(DenseError::Singular { column }) => assert_eq!(column, 2),
            other => panic!("expected Singular, got {other:?}"),
        }
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        // [[0, 1], [1, 0]] is perfectly conditioned but needs a pivot swap.
        let a = Matrix::from_col_major(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        let f = getrf(a.clone()).unwrap();
        let x = f.solve(&Matrix::from_col_major(2, 1, vec![2.0, 3.0]));
        assert!((x[(0, 0)] - 3.0).abs() < 1e-14);
        assert!((x[(1, 0)] - 2.0).abs() < 1e-14);
        assert!((f.det() + 1.0).abs() < 1e-14);
    }

    #[test]
    fn traced_factor_and_inverse_charge_the_textbook_counts() {
        use fsi_runtime::trace;
        let _lock = trace::test_lock();
        trace::set_level(fsi_runtime::TraceLevel::Stages);
        // One panel, several panels, and a size that is not a multiple of 3.
        for n in [16usize, 96, 150] {
            let a = well_conditioned(n, 11);
            let span = trace::span("getrf-test");
            let f = getrf(a).unwrap();
            let factored = span.finish().flops;
            let span = trace::span("getri-test");
            let _ = f.inverse();
            let inverted = span.finish().flops;
            assert_eq!(factored, flops::counts::getrf(n, n), "getrf n={n}");
            assert_eq!(inverted, flops::counts::getri(n), "getri n={n}");
            assert_eq!(factored + inverted, 2 * (n as u64).pow(3), "n={n}");
        }
        trace::set_level(fsi_runtime::TraceLevel::Off);
        trace::clear();
    }
}
