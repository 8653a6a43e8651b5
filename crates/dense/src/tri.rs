//! Triangular kernels: solves (TRSM) and triangular inversion (TRTRI).
//!
//! Only the variants the factorizations need are implemented, each as a
//! clearly named function instead of a flag soup:
//!
//! * forward/back substitution against `L` (unit lower) and `U` (upper),
//!   plus their transposed forms — the building blocks of `getrs`;
//! * in-place inversion of an upper triangle — used by BSOFI's structured
//!   `R⁻¹` and, with the unit-lower right-solve, by `getri`.
//!
//! All kernels access matrix columns contiguously (column-major layout), so
//! the inner loops are axpy/dot streams.

use crate::batch::gemm_nn_uncounted;
use crate::blas::{axpy, dot};
use crate::gemm::{gemm_op, Op};
use crate::matrix::{MatMut, MatRef};
use fsi_runtime::{flops, workspace, Par};

/// Diagonal-block size of the blocked substitutions: each `TB × TB`
/// triangle is solved with the scalar kernel, and the off-diagonal
/// updates flow through GEMM (level-3).
const TB: usize = 48;

/// Triangle width at which the recursive kernels (TRTRI and the unit-lower
/// right-solve — the two phases of GETRI, which the wrapping stage of FSI
/// runs once per applied `B⁻¹` at `N ≤ 64`) stop halving and hand over to
/// the scalar kernel. Small, because the products in between run on the
/// no-pack direct GEMM driver, which is efficient well below `TB`.
const RB: usize = 16;

/// Solves `L·X = B` in place (`B := L⁻¹B`) with `L` unit lower triangular.
///
/// # Panics
/// Panics unless `L` is square with side `B.rows()`.
pub fn solve_unit_lower(l: MatRef<'_>, b: MatMut<'_>) {
    let _kernel = fsi_runtime::trace::kernel_span("trsm");
    solve_unit_lower_impl(true, l, b);
}

/// [`solve_unit_lower`] without flop accounting or a kernel span, for
/// GETRF, which charges its own analytic total.
pub(crate) fn solve_unit_lower_uncounted(l: MatRef<'_>, b: MatMut<'_>) {
    solve_unit_lower_impl(false, l, b);
}

fn solve_unit_lower_impl(count: bool, l: MatRef<'_>, mut b: MatMut<'_>) {
    let n = check_square(l, b.rows());
    let nrhs = b.cols();
    let mut j0 = 0;
    while j0 < n {
        let tb = TB.min(n - j0);
        if count {
            flops::add_flops(flops::counts::trsm(tb, nrhs));
        }
        solve_unit_lower_unblocked(
            l.submatrix(j0, j0, tb, tb),
            b.rb_mut().submatrix(j0, 0, tb, nrhs),
        );
        if j0 + tb < n {
            // B[j0+tb.., :] −= L[j0+tb.., j0..j0+tb] · X[j0..j0+tb, :]
            let lower = l.submatrix(j0 + tb, j0, n - j0 - tb, tb);
            let (top, rest) = b.rb_mut().split_at_row(j0 + tb);
            let solved = top.as_ref().submatrix(j0, 0, tb, nrhs);
            gemm_raw(count, lower, solved, rest);
        }
        j0 += tb;
    }
}

fn solve_unit_lower_unblocked(l: MatRef<'_>, mut b: MatMut<'_>) {
    let n = l.rows();
    for c in 0..b.cols() {
        let col = b.col_mut(c);
        for j in 0..n {
            let bj = col[j];
            if bj != 0.0 {
                axpy(-bj, &l.col(j)[j + 1..], &mut col[j + 1..]);
            }
        }
    }
}

/// Solves `U·X = B` in place (`B := U⁻¹B`) with `U` upper triangular
/// (non-unit diagonal).
///
/// # Panics
/// Panics on shape mismatch or an exactly zero diagonal entry.
pub fn solve_upper(u: MatRef<'_>, mut b: MatMut<'_>) {
    let n = check_square(u, b.rows());
    let _kernel = fsi_runtime::trace::kernel_span("trsm");
    let nrhs = b.cols();
    // Walk the diagonal blocks bottom-up.
    let mut j1 = n;
    while j1 > 0 {
        let tb = TB.min(j1);
        let j0 = j1 - tb;
        solve_upper_unblocked(
            u.submatrix(j0, j0, tb, tb),
            b.rb_mut().submatrix(j0, 0, tb, nrhs),
        );
        if j0 > 0 {
            // B[..j0, :] −= U[..j0, j0..j1] · X[j0..j1, :]
            let upper = u.submatrix(0, j0, j0, tb);
            let (rest, bottom) = b.rb_mut().split_at_row(j0);
            let solved = bottom.as_ref().submatrix(0, 0, tb, nrhs);
            gemm_raw(true, upper, solved, rest);
        }
        j1 = j0;
    }
}

fn solve_upper_unblocked(u: MatRef<'_>, mut b: MatMut<'_>) {
    let n = u.rows();
    flops::add_flops(flops::counts::trsm(n, b.cols()));
    for c in 0..b.cols() {
        let col = b.col_mut(c);
        for j in (0..n).rev() {
            let ujj = u.at(j, j);
            assert!(ujj != 0.0, "singular upper triangle at {j}");
            let bj = col[j] / ujj;
            col[j] = bj;
            if bj != 0.0 {
                axpy(-bj, &u.col(j)[..j], &mut col[..j]);
            }
        }
    }
}

/// Solves `Lᵀ·X = B` in place with `L` unit lower triangular.
pub fn solve_unit_lower_trans(l: MatRef<'_>, mut b: MatMut<'_>) {
    let n = check_square(l, b.rows());
    let _kernel = fsi_runtime::trace::kernel_span("trsm");
    let nrhs = b.cols();
    // Lᵀ is upper triangular: walk the diagonal blocks bottom-up; the
    // off-diagonal update uses (Lᵀ)[..j0, j0..j1] = L[j0..j1, ..j0]ᵀ.
    let mut j1 = n;
    while j1 > 0 {
        let tb = TB.min(j1);
        let j0 = j1 - tb;
        solve_unit_lower_trans_unblocked(
            l.submatrix(j0, j0, tb, tb),
            b.rb_mut().submatrix(j0, 0, tb, nrhs),
        );
        if j0 > 0 {
            let left = l.submatrix(j0, 0, tb, j0);
            let (rest, bottom) = b.rb_mut().split_at_row(j0);
            let solved = bottom.as_ref().submatrix(0, 0, tb, nrhs);
            gemm_op(
                Par::Seq,
                -1.0,
                Op::Trans,
                left,
                Op::NoTrans,
                solved,
                1.0,
                rest,
            );
        }
        j1 = j0;
    }
}

fn solve_unit_lower_trans_unblocked(l: MatRef<'_>, mut b: MatMut<'_>) {
    let n = l.rows();
    flops::add_flops(flops::counts::trsm(n, b.cols()));
    for c in 0..b.cols() {
        let col = b.col_mut(c);
        for j in (0..n).rev() {
            col[j] -= dot(&l.col(j)[j + 1..], &col[j + 1..]);
        }
    }
}

/// Solves `Uᵀ·X = B` in place with `U` upper triangular (non-unit).
///
/// # Panics
/// Panics on shape mismatch or an exactly zero diagonal entry.
pub fn solve_upper_trans(u: MatRef<'_>, mut b: MatMut<'_>) {
    let n = check_square(u, b.rows());
    let _kernel = fsi_runtime::trace::kernel_span("trsm");
    let nrhs = b.cols();
    // Uᵀ is lower triangular: walk top-down; the off-diagonal update uses
    // (Uᵀ)[j1.., j0..j1] = U[j0..j1, j1..]ᵀ.
    let mut j0 = 0;
    while j0 < n {
        let tb = TB.min(n - j0);
        solve_upper_trans_unblocked(
            u.submatrix(j0, j0, tb, tb),
            b.rb_mut().submatrix(j0, 0, tb, nrhs),
        );
        if j0 + tb < n {
            let right = u.submatrix(j0, j0 + tb, tb, n - j0 - tb);
            let (top, rest) = b.rb_mut().split_at_row(j0 + tb);
            let solved = top.as_ref().submatrix(j0, 0, tb, nrhs);
            gemm_op(
                Par::Seq,
                -1.0,
                Op::Trans,
                right,
                Op::NoTrans,
                solved,
                1.0,
                rest,
            );
        }
        j0 += tb;
    }
}

fn solve_upper_trans_unblocked(u: MatRef<'_>, mut b: MatMut<'_>) {
    let n = u.rows();
    flops::add_flops(flops::counts::trsm(n, b.cols()));
    for c in 0..b.cols() {
        let col = b.col_mut(c);
        for j in 0..n {
            let ujj = u.at(j, j);
            assert!(ujj != 0.0, "singular upper triangle at {j}");
            col[j] = (col[j] - dot(&u.col(j)[..j], &col[..j])) / ujj;
        }
    }
}

/// Off-diagonal substitution update `C −= A·B`. Counted, GEMM accounts for
/// its own flops (together with the per-triangle charges the total matches
/// the textbook n²·nrhs); uncounted, the caller has charged an analytic
/// total of its own (and small updates skip the pack — same bits).
fn gemm_raw(count: bool, a: MatRef<'_>, b: MatRef<'_>, c: MatMut<'_>) {
    if count {
        crate::gemm::gemm(Par::Seq, -1.0, a, b, 1.0, c);
    } else {
        gemm_nn_uncounted(-1.0, a, b, true, c);
    }
}

/// Solves `X·L = B` in place (`B := B·L⁻¹`) with `L` unit lower
/// triangular.
///
/// # Panics
/// Panics on shape mismatch.
pub fn solve_unit_lower_right(l: MatRef<'_>, b: MatMut<'_>) {
    let _kernel = fsi_runtime::trace::kernel_span("trsm");
    solve_unit_lower_right_impl(true, l, b);
}

/// [`solve_unit_lower_right`] without flop accounting or a kernel span,
/// for GETRI, which charges its own analytic total.
pub(crate) fn solve_unit_lower_right_uncounted(l: MatRef<'_>, b: MatMut<'_>) {
    solve_unit_lower_right_impl(false, l, b);
}

fn solve_unit_lower_right_impl(count: bool, l: MatRef<'_>, b: MatMut<'_>) {
    let n = check_square(l, b.cols());
    let nrhs = b.rows();
    if n <= RB {
        if count {
            flops::add_flops(flops::counts::trsm(n, nrhs));
        }
        solve_unit_lower_right_unblocked(l, b);
        return;
    }
    // Halve the columns: X₂ = B₂·L₂₂⁻¹, then X₁ = (B₁ − X₂·L₂₁)·L₁₁⁻¹.
    // Down to RB-wide triangles all the work is the product in between.
    let h = n / 2;
    let (mut b1, mut b2) = b.split_at_col(h);
    solve_unit_lower_right_impl(count, l.submatrix(h, h, n - h, n - h), b2.rb_mut());
    gemm_raw(count, b2.as_ref(), l.submatrix(h, 0, n - h, h), b1.rb_mut());
    solve_unit_lower_right_impl(count, l.submatrix(0, 0, h, h), b1);
}

fn solve_unit_lower_right_unblocked(l: MatRef<'_>, mut b: MatMut<'_>) {
    let n = l.cols();
    // X[:, j] = B[:, j] − Σ_{p>j} X[:, p]·L[p, j], solved right-to-left.
    for j in (0..n).rev() {
        for p in j + 1..n {
            let lpj = l.at(p, j);
            if lpj != 0.0 {
                let (mut left, right) = b.rb_mut().split_at_col(p);
                let rows = left.rows();
                let mut target = left.rb_mut().submatrix(0, j, rows, 1);
                axpy(-lpj, right.as_ref().col(0), target.col_mut(0));
            }
        }
    }
}

/// In-place inversion of an upper triangle (entries below the diagonal are
/// ignored and left untouched).
///
/// Recursive TRTRI: with `U = [U₁₁ U₁₂; 0 U₂₂]` the two diagonal triangles
/// are inverted in place (down to `RB`-wide triangles for the scalar
/// kernel) and `X₁₂ = −X₁₁·U₁₂·X₂₂` follows as two dense products against
/// zero-padded scratch copies of the inverted triangles, so almost all of
/// the work flows through GEMM at every size. Internal products use the
/// uncounted entry point — the analytic `trtri` total is charged once up
/// front.
///
/// # Panics
/// Panics on an exactly zero diagonal entry.
pub fn invert_upper(u: MatMut<'_>) {
    let _kernel = fsi_runtime::trace::kernel_span("trtri");
    flops::add_flops(flops::counts::trtri(u.rows()) * 2);
    invert_upper_uncounted(u);
}

/// [`invert_upper`] without flop accounting or a kernel span, for GETRI,
/// which charges its own analytic total.
pub(crate) fn invert_upper_uncounted(mut u: MatMut<'_>) {
    let n = u.rows();
    assert_eq!(u.cols(), n, "invert_upper needs a square matrix");
    if n <= RB {
        invert_upper_unblocked(u);
        return;
    }
    let (h, m) = (n / 2, n - n / 2);
    invert_upper_uncounted(u.rb_mut().submatrix(0, 0, h, h));
    invert_upper_uncounted(u.rb_mut().submatrix(h, h, m, m));
    workspace::with_scratch(h * h + m * m + h * m, |buf| {
        let (x11, rest) = buf.split_at_mut(h * h);
        let (x22, w) = rest.split_at_mut(m * m);
        copy_upper(u.as_ref().submatrix(0, 0, h, h), x11);
        copy_upper(u.as_ref().submatrix(h, h, m, m), x22);
        let mut w = MatMut::from_slice(w, h, m, h);
        // W := U₁₂·X₂₂, then U₁₂ := −X₁₁·W.
        let u12 = u.as_ref().submatrix(0, h, h, m);
        gemm_nn_uncounted(
            1.0,
            u12,
            MatRef::from_slice(x22, m, m, m),
            false,
            w.rb_mut(),
        );
        let x12 = u.rb_mut().submatrix(0, h, h, m);
        gemm_nn_uncounted(
            -1.0,
            MatRef::from_slice(x11, h, h, h),
            w.as_ref(),
            false,
            x12,
        );
    });
}

/// Copies the upper triangle of `t` into the dense column-major `out`,
/// zero below the diagonal.
pub(crate) fn copy_upper(t: MatRef<'_>, out: &mut [f64]) {
    let n = t.rows();
    for (j, col) in out.chunks_exact_mut(n).enumerate() {
        col[..=j].copy_from_slice(&t.col(j)[..=j]);
        col[j + 1..].fill(0.0);
    }
}

/// Scalar column-oriented TRTRI on a triangle at most `RB` wide (flops
/// are charged by the caller).
fn invert_upper_unblocked(mut u: MatMut<'_>) {
    let n = u.rows();
    // For each column j compute X[0..j, j] from the already-inverted
    // leading triangle.
    let mut v = [0.0; RB];
    for j in 0..n {
        let ujj = u.at(j, j);
        assert!(ujj != 0.0, "singular upper triangle at {j}");
        let xjj = 1.0 / ujj;
        u.set(j, j, xjj);
        // v := U[0..j, j] (original column), X[0..j, j] := −X[0..j,0..j]·v·xjj
        v[..j].copy_from_slice(&u.as_ref().col(j)[..j]);
        for i in 0..j {
            // X[i, j] = −xjj · Σ_{p=i..j-1} X[i, p] v[p]
            let mut s = 0.0;
            for (p, vp) in v[..j].iter().enumerate().skip(i) {
                s += u.at(i, p) * vp;
            }
            u.set(i, j, -xjj * s);
        }
    }
}

fn check_square(t: MatRef<'_>, rows: usize) -> usize {
    assert_eq!(t.rows(), t.cols(), "triangular factor must be square");
    assert_eq!(t.rows(), rows, "triangular side mismatch");
    t.rows()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{mul, test_matrix};
    use crate::matrix::Matrix;

    /// A well-conditioned random lower unit triangle.
    fn unit_lower(n: usize, seed: u64) -> Matrix {
        let r = test_matrix(n, n, seed);
        Matrix::from_fn(n, n, |i, j| {
            if i == j {
                1.0
            } else if i > j {
                0.3 * r[(i, j)]
            } else {
                0.0
            }
        })
    }

    /// A well-conditioned random upper triangle.
    fn upper(n: usize, seed: u64) -> Matrix {
        let r = test_matrix(n, n, seed);
        Matrix::from_fn(n, n, |i, j| {
            if i == j {
                1.5 + r[(i, j)].abs()
            } else if i < j {
                0.3 * r[(i, j)]
            } else {
                0.0
            }
        })
    }

    fn residual(a: &Matrix, x: &Matrix, b: &Matrix) -> f64 {
        let mut r = mul(a, x);
        r.sub_assign(b);
        r.max_abs()
    }

    #[test]
    fn unit_lower_solve() {
        let l = unit_lower(20, 1);
        let b = test_matrix(20, 5, 2);
        let mut x = b.clone();
        solve_unit_lower(l.as_ref(), x.as_mut());
        assert!(residual(&l, &x, &b) < 1e-12);
    }

    #[test]
    fn upper_solve() {
        let u = upper(20, 3);
        let b = test_matrix(20, 5, 4);
        let mut x = b.clone();
        solve_upper(u.as_ref(), x.as_mut());
        assert!(residual(&u, &x, &b) < 1e-12);
    }

    #[test]
    fn unit_lower_trans_solve() {
        let l = unit_lower(15, 5);
        let b = test_matrix(15, 3, 6);
        let mut x = b.clone();
        solve_unit_lower_trans(l.as_ref(), x.as_mut());
        assert!(residual(&l.transpose(), &x, &b) < 1e-12);
    }

    #[test]
    fn upper_trans_solve() {
        let u = upper(15, 7);
        let b = test_matrix(15, 3, 8);
        let mut x = b.clone();
        solve_upper_trans(u.as_ref(), x.as_mut());
        assert!(residual(&u.transpose(), &x, &b) < 1e-12);
    }

    #[test]
    fn invert_upper_gives_inverse() {
        // 12 stays on the scalar kernel; 25 halves once, unevenly; 150
        // recurses four levels deep.
        for (n, seed) in [(12, 8), (25, 9), (150, 10)] {
            let u = upper(n, seed);
            let mut x = u.clone();
            invert_upper(x.as_mut());
            // Zero out the (ignored) strict lower part before multiplying.
            let x = Matrix::from_fn(n, n, |i, j| if i <= j { x[(i, j)] } else { 0.0 });
            let mut prod = mul(&u, &x);
            prod.add_diag(-1.0);
            assert!(
                prod.max_abs() < 1e-12,
                "U·U⁻¹ ≉ I at n={n}: {}",
                prod.max_abs()
            );
        }
    }

    #[test]
    fn invert_upper_leaves_lower_part_untouched() {
        let n = 130;
        let u = upper(n, 13);
        let mut full = test_matrix(n, n, 14);
        for j in 0..n {
            for i in 0..=j {
                full[(i, j)] = u[(i, j)];
            }
        }
        let below = Matrix::from_fn(n, n, |i, j| if i > j { full[(i, j)] } else { 0.0 });
        invert_upper(full.as_mut());
        for j in 0..n {
            for i in j + 1..n {
                assert_eq!(full[(i, j)], below[(i, j)], "lower ({i},{j}) changed");
            }
        }
    }

    #[test]
    fn invert_upper_identity_is_fixed_point() {
        let mut i3 = Matrix::identity(3);
        invert_upper(i3.as_mut());
        assert_eq!(i3, Matrix::identity(3));
    }

    #[test]
    #[should_panic(expected = "singular upper triangle")]
    fn singular_diagonal_panics() {
        let mut u = Matrix::identity(3);
        u[(1, 1)] = 0.0;
        let b = Matrix::zeros(3, 1);
        let mut x = b.clone();
        solve_upper(u.as_ref(), x.as_mut());
    }

    #[test]
    fn unit_lower_right_solve() {
        // X·L = B; 12 stays on the scalar kernel, 70 halves three times.
        for n in [12, 70] {
            let l = unit_lower(n, 23);
            let b = test_matrix(5, n, 22);
            let mut x = b.clone();
            solve_unit_lower_right(l.as_ref(), x.as_mut());
            assert!(residual(&x, &l, &b) < 1e-11, "XL residual at n={n}");
        }
    }

    #[test]
    fn solves_on_views_with_ld() {
        // Solve on a sub-block of a larger buffer to exercise ld ≠ rows.
        let l = unit_lower(6, 11);
        let mut big = test_matrix(10, 8, 12);
        let b = big.block(2, 1, 6, 4);
        solve_unit_lower(l.as_ref(), big.view_mut(2, 1, 6, 4));
        let x = big.block(2, 1, 6, 4);
        assert!(residual(&l, &x, &b) < 1e-12);
    }
}
