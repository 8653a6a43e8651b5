//! Column-major dense matrix storage and borrowed views.
//!
//! [`Matrix`] owns its data (on a pooled, cache-line-aligned buffer once
//! it is 1 KiB or larger — see its docs); [`MatRef`]/[`MatMut`] are
//! lightweight views with an explicit leading dimension (`ld`), exactly
//! like the `(pointer, lda)` convention of BLAS/LAPACK. Views allow the blocked factorization kernels
//! to operate in place on submatrices, and `MatMut::split_*` provides the
//! disjoint mutable partitions the parallel kernels hand to pool workers.
//!
//! # Safety architecture
//!
//! `MatMut` internally stores a raw pointer (a `&mut`-derived provenance)
//! because a row-split of a column-major matrix is *not* a contiguous slice
//! split: the two halves interleave in memory while touching disjoint
//! elements. All unsafe code in this crate lives in this module and in the
//! packed GEMM micro-kernel; every view method documents the invariant it
//! relies on:
//!
//! 1. a `MatMut` is only created from an exclusive borrow (or from a
//!    disjoint split of another `MatMut`), and
//! 2. two views produced by a `split_*` call address disjoint element sets
//!    `{ (i, j) : base + i + j·ld }`, which is guaranteed by the split
//!    arithmetic (`i` ranges partitioned for row splits, `j` ranges for
//!    column splits, with a shared `ld ≥ rows_total`).

use std::fmt;
use std::marker::PhantomData;

use fsi_runtime::workspace::{self, LINE_F64};

/// Element count (1 KiB) from which a matrix lives on a pooled,
/// cache-line-aligned buffer. Smaller matrices are allocated exactly — one
/// allocation of `rows·cols` doubles — because a line of padding and a
/// trip through the pool would be a large share of their cost and no
/// vector kernel streams over them for long.
const POOL_FLOOR: usize = 128;

/// Owned, heap-allocated, column-major `f64` matrix.
///
/// # Storage
///
/// From 128 elements (1 KiB) up, a matrix borrows its buffer from the
/// process-wide block pool ([`fsi_runtime::workspace::take`]) and hands it
/// back when dropped, so the blocks of one selected inversion — and the
/// temporaries of one DQMC sweep — become those of the next without a
/// trip through the allocator or a page fault. Every constructor but
/// `from_col_major`, which adopts the caller's vector as is, builds on
/// such a buffer; [`Matrix::pooled`] alone leaves its contents
/// unspecified.
///
/// The first element of a pooled matrix sits on a cache line: the buffer
/// is one line longer than the matrix, which lives at an offset into it.
/// The vector kernels read operands in place with full-width unaligned
/// loads, which split a line on every access unless the column starts on
/// one (at `N = 64` every column then does).
pub struct Matrix {
    /// Backing allocation; the elements are `buf[off..off + rows·cols]`.
    buf: Vec<f64>,
    off: usize,
    rows: usize,
    cols: usize,
    /// Whether `buf` came from the block pool and returns to it on drop.
    pooled: bool,
}

impl Matrix {
    /// Creates an `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let mut m = Self::pooled(rows, cols);
        if m.pooled {
            m.fill_zero();
        }
        m
    }

    /// Creates an `rows × cols` matrix whose contents are **unspecified**
    /// (whatever the buffer's last user left; NaN under
    /// `debug_assertions`): for outputs the caller overwrites completely
    /// before reading, such as the target of a `beta = 0` product or of a
    /// block copy. Saves the zero fill of [`Matrix::zeros`], and for a
    /// large matrix of which only a part is ever written, the page
    /// faults of the rest.
    pub fn pooled(rows: usize, cols: usize) -> Self {
        let len = rows * cols;
        let pooled = len >= POOL_FLOOR;
        let (buf, off) = if pooled {
            let buf = workspace::take(len + LINE_F64);
            let off = workspace::line_offset(buf.as_ptr());
            (buf, off)
        } else {
            (vec![0.0; len], 0)
        };
        Matrix {
            buf,
            off,
            rows,
            cols,
            pooled,
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix whose `(i, j)` entry is `f(i, j)`, evaluated in
    /// storage order (down each column, columns left to right).
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Self::pooled(rows, cols);
        for j in 0..cols {
            for (i, x) in m.as_mut().col_mut(j).iter_mut().enumerate() {
                *x = f(i, j);
            }
        }
        m
    }

    /// Creates a matrix from a column-major data vector, adopted as is
    /// (no copy, so neither pooled nor realigned).
    ///
    /// # Panics
    /// Panics unless `data.len() == rows * cols`.
    pub(crate) fn from_col_major(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "column-major length mismatch");
        Matrix {
            buf: data,
            off: 0,
            rows,
            cols,
            pooled: false,
        }
    }

    /// Creates a diagonal matrix from the given diagonal entries.
    pub fn diag(d: &[f64]) -> Self {
        let n = d.len();
        let mut m = Self::zeros(n, n);
        for (i, &v) in d.iter().enumerate() {
            m[(i, i)] = v;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `true` when the matrix is square.
    #[inline]
    pub(crate) fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Underlying column-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.buf[self.off..self.off + self.rows * self.cols]
    }

    /// Mutable underlying column-major storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.buf[self.off..self.off + self.rows * self.cols]
    }

    /// Immutable view of the whole matrix.
    #[inline]
    pub fn as_ref(&self) -> MatRef<'_> {
        MatRef {
            ptr: self.as_slice().as_ptr(),
            rows: self.rows,
            cols: self.cols,
            ld: self.rows,
            _marker: PhantomData,
        }
    }

    /// Mutable view of the whole matrix.
    #[inline]
    pub fn as_mut(&mut self) -> MatMut<'_> {
        MatMut {
            ptr: self.as_mut_slice().as_mut_ptr(),
            rows: self.rows,
            cols: self.cols,
            ld: self.rows,
            _marker: PhantomData,
        }
    }

    /// Immutable view of the block starting at `(i, j)` with shape
    /// `nr × nc`.
    pub fn view(&self, i: usize, j: usize, nr: usize, nc: usize) -> MatRef<'_> {
        self.as_ref().submatrix(i, j, nr, nc)
    }

    /// Mutable view of the block starting at `(i, j)` with shape `nr × nc`.
    pub fn view_mut(&mut self, i: usize, j: usize, nr: usize, nc: usize) -> MatMut<'_> {
        self.as_mut().submatrix(i, j, nr, nc)
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Copies block `src` into this matrix at offset `(i, j)`.
    ///
    /// # Panics
    /// Panics if the block does not fit.
    pub fn set_block(&mut self, i: usize, j: usize, src: MatRef<'_>) {
        self.view_mut(i, j, src.rows(), src.cols()).copy_from(src);
    }

    /// Extracts the block at `(i, j)` with shape `nr × nc` into a new owned
    /// matrix.
    pub fn block(&self, i: usize, j: usize, nr: usize, nc: usize) -> Matrix {
        self.view(i, j, nr, nc).to_owned()
    }

    /// In-place scale: `self *= alpha`.
    pub fn scale(&mut self, alpha: f64) {
        for x in self.as_mut_slice() {
            *x *= alpha;
        }
    }

    /// In-place sum: `self += other`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, b) in self.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *a += b;
        }
    }

    /// In-place difference: `self -= other`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn sub_assign(&mut self, other: &Matrix) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, b) in self.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *a -= b;
        }
    }

    /// Adds `alpha` to every diagonal entry (`self += alpha·I`).
    pub fn add_diag(&mut self, alpha: f64) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            self[(i, i)] += alpha;
        }
    }

    /// Fills the matrix with zeros without reallocating.
    pub(crate) fn fill_zero(&mut self) {
        self.as_mut_slice().fill(0.0);
    }

    /// Maximum absolute entry (`max |a_ij|`), 0 for empty matrices.
    pub fn max_abs(&self) -> f64 {
        self.as_slice().iter().fold(0.0, |m, &x| m.max(x.abs()))
    }
}

impl Clone for Matrix {
    fn clone(&self) -> Self {
        self.as_ref().to_owned()
    }
}

impl PartialEq for Matrix {
    fn eq(&self, other: &Matrix) -> bool {
        (self.rows, self.cols) == (other.rows, other.cols) && self.as_slice() == other.as_slice()
    }
}

impl Drop for Matrix {
    fn drop(&mut self) {
        if self.pooled {
            workspace::give(std::mem::take(&mut self.buf));
        }
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.as_slice()[i + j * self.rows]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        let at = i + j * self.rows;
        &mut self.as_mut_slice()[at]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show_r = self.rows.min(8);
        let show_c = self.cols.min(8);
        for i in 0..show_r {
            write!(f, "  ")?;
            for j in 0..show_c {
                write!(f, "{:>12.5e} ", self[(i, j)])?;
            }
            if show_c < self.cols {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if show_r < self.rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

/// Immutable column-major view: `(ptr, rows, cols, ld)`.
#[derive(Clone, Copy)]
pub struct MatRef<'a> {
    ptr: *const f64,
    rows: usize,
    cols: usize,
    ld: usize,
    _marker: PhantomData<&'a f64>,
}

// SAFETY: a MatRef is a shared view of f64 data with no interior mutability;
// sharing it across threads is as safe as sharing `&[f64]`.
unsafe impl Send for MatRef<'_> {}
unsafe impl Sync for MatRef<'_> {}

impl<'a> MatRef<'a> {
    /// Creates a view from a raw slice with an explicit leading dimension.
    ///
    /// # Panics
    /// Panics unless the addressed region fits in `data`.
    pub fn from_slice(data: &'a [f64], rows: usize, cols: usize, ld: usize) -> Self {
        assert!(ld >= rows.max(1), "leading dimension too small");
        if cols > 0 {
            assert!(
                (cols - 1) * ld + rows <= data.len(),
                "view exceeds backing slice"
            );
        }
        MatRef {
            ptr: data.as_ptr(),
            rows,
            cols,
            ld,
            _marker: PhantomData,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// Leading dimension (stride between consecutive columns).
    #[inline]
    pub(crate) fn ld(&self) -> usize {
        self.ld
    }

    /// Element access.
    #[inline]
    pub(crate) fn at(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.rows && j < self.cols, "MatRef index out of range");
        // SAFETY: bounds just checked; the constructor guaranteed the
        // addressed region lies inside the backing allocation.
        unsafe { *self.ptr.add(i + j * self.ld) }
    }

    /// Raw base pointer of the view (element `(i, j)` lives at
    /// `ptr + i + j·ld`). For the no-pack small-N GEMM kernels, which read
    /// operand columns straight from the source through raw pointers.
    #[inline]
    pub(crate) fn as_ptr(&self) -> *const f64 {
        self.ptr
    }

    /// A column as a slice (columns are contiguous in column-major layout).
    #[inline]
    pub fn col(&self, j: usize) -> &'a [f64] {
        assert!(j < self.cols, "column index out of range");
        // SAFETY: the constructor guaranteed columns fit the backing slice.
        unsafe { std::slice::from_raw_parts(self.ptr.add(j * self.ld), self.rows) }
    }

    /// Sub-view starting at `(i, j)` with shape `nr × nc`.
    pub(crate) fn submatrix(&self, i: usize, j: usize, nr: usize, nc: usize) -> MatRef<'a> {
        assert!(
            i + nr <= self.rows && j + nc <= self.cols,
            "submatrix out of range"
        );
        MatRef {
            // SAFETY: offset stays within the addressed region by the assert.
            ptr: unsafe { self.ptr.add(i + j * self.ld) },
            rows: nr,
            cols: nc,
            ld: self.ld,
            _marker: PhantomData,
        }
    }

    /// Copies the view into a new owned matrix.
    pub fn to_owned(&self) -> Matrix {
        let mut m = Matrix::pooled(self.rows, self.cols);
        m.as_mut().copy_from(*self);
        m
    }

    /// Frobenius norm of the viewed block.
    pub(crate) fn frobenius_norm(&self) -> f64 {
        let mut s = 0.0;
        for j in 0..self.cols {
            for &x in self.col(j) {
                s += x * x;
            }
        }
        s.sqrt()
    }
}

/// Mutable column-major view.
pub struct MatMut<'a> {
    ptr: *mut f64,
    rows: usize,
    cols: usize,
    ld: usize,
    _marker: PhantomData<&'a mut f64>,
}

// SAFETY: a MatMut is an exclusive view (constructed from `&mut` data or a
// disjoint split of another MatMut); moving it to another thread is as safe
// as moving `&mut [f64]`.
unsafe impl Send for MatMut<'_> {}

impl<'a> MatMut<'a> {
    /// Creates a mutable view from a raw slice with an explicit leading
    /// dimension.
    ///
    /// # Panics
    /// Panics unless the addressed region fits in `data`.
    pub fn from_slice(data: &'a mut [f64], rows: usize, cols: usize, ld: usize) -> Self {
        assert!(ld >= rows.max(1), "leading dimension too small");
        if cols > 0 {
            assert!(
                (cols - 1) * ld + rows <= data.len(),
                "view exceeds backing slice"
            );
        }
        MatMut {
            ptr: data.as_mut_ptr(),
            rows,
            cols,
            ld,
            _marker: PhantomData,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// Leading dimension.
    #[inline]
    pub(crate) fn ld(&self) -> usize {
        self.ld
    }

    /// Reborrows as an immutable view.
    #[inline]
    pub fn as_ref(&self) -> MatRef<'_> {
        MatRef {
            ptr: self.ptr,
            rows: self.rows,
            cols: self.cols,
            ld: self.ld,
            _marker: PhantomData,
        }
    }

    /// Reborrows as a shorter-lived mutable view (so a `MatMut` can be
    /// passed to helpers without being consumed).
    #[inline]
    pub fn rb_mut(&mut self) -> MatMut<'_> {
        MatMut {
            ptr: self.ptr,
            rows: self.rows,
            cols: self.cols,
            ld: self.ld,
            _marker: PhantomData,
        }
    }

    /// Element read.
    #[inline]
    pub(crate) fn at(&self, i: usize, j: usize) -> f64 {
        self.as_ref().at(i, j)
    }

    /// Element write.
    #[inline]
    pub(crate) fn set(&mut self, i: usize, j: usize, v: f64) {
        assert!(i < self.rows && j < self.cols, "MatMut index out of range");
        // SAFETY: bounds checked; exclusivity is a type invariant.
        unsafe { *self.ptr.add(i + j * self.ld) = v }
    }

    /// Mutable reference to one element.
    #[inline]
    pub fn at_mut(&mut self, i: usize, j: usize) -> &mut f64 {
        assert!(i < self.rows && j < self.cols, "MatMut index out of range");
        // SAFETY: bounds checked; exclusivity is a type invariant.
        unsafe { &mut *self.ptr.add(i + j * self.ld) }
    }

    /// Raw base pointer of the view (element `(i, j)` lives at
    /// `ptr + i + j·ld`). For the packed GEMM micro-kernel, which writes
    /// an `MR × NR` register tile through raw pointers.
    #[inline]
    pub(crate) fn as_mut_ptr(&mut self) -> *mut f64 {
        self.ptr
    }

    /// A column as a mutable slice.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        assert!(j < self.cols, "column index out of range");
        // SAFETY: columns are contiguous and inside the addressed region.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(j * self.ld), self.rows) }
    }

    /// Mutable sub-view starting at `(i, j)` with shape `nr × nc`.
    ///
    /// Consumes `self`; use [`MatMut::rb_mut`] first to keep the original.
    pub fn submatrix(self, i: usize, j: usize, nr: usize, nc: usize) -> MatMut<'a> {
        assert!(
            i + nr <= self.rows && j + nc <= self.cols,
            "submatrix out of range"
        );
        MatMut {
            // SAFETY: offset stays inside the addressed region by the assert.
            ptr: unsafe { self.ptr.add(i + j * self.ld) },
            rows: nr,
            cols: nc,
            ld: self.ld,
            _marker: PhantomData,
        }
    }

    /// Splits into the columns `[0, j)` and `[j, cols)`.
    ///
    /// The two views address disjoint element sets (disjoint `j` ranges), so
    /// handing them to different threads is sound.
    pub fn split_at_col(self, j: usize) -> (MatMut<'a>, MatMut<'a>) {
        assert!(j <= self.cols, "split column out of range");
        let left = MatMut {
            ptr: self.ptr,
            rows: self.rows,
            cols: j,
            ld: self.ld,
            _marker: PhantomData,
        };
        let right = MatMut {
            // SAFETY: column offset within region.
            ptr: unsafe { self.ptr.add(j * self.ld) },
            rows: self.rows,
            cols: self.cols - j,
            ld: self.ld,
            _marker: PhantomData,
        };
        (left, right)
    }

    /// Splits into the rows `[0, i)` and `[i, rows)`.
    ///
    /// The halves interleave in memory but address disjoint elements
    /// (disjoint `i` ranges under a common `ld`), so this is a sound
    /// exclusive partition.
    pub fn split_at_row(self, i: usize) -> (MatMut<'a>, MatMut<'a>) {
        assert!(i <= self.rows, "split row out of range");
        let top = MatMut {
            ptr: self.ptr,
            rows: i,
            cols: self.cols,
            ld: self.ld,
            _marker: PhantomData,
        };
        let bottom = MatMut {
            // SAFETY: row offset within region.
            ptr: unsafe { self.ptr.add(i) },
            rows: self.rows - i,
            cols: self.cols,
            ld: self.ld,
            _marker: PhantomData,
        };
        (top, bottom)
    }

    /// Splits into `n` column panels of width `chunk` (last may be short),
    /// for distributing to pool workers.
    pub(crate) fn split_cols_chunks(self, chunk: usize) -> Vec<MatMut<'a>> {
        assert!(chunk > 0);
        let mut out = Vec::with_capacity(self.cols.div_ceil(chunk));
        let mut rest = self;
        while rest.cols() > chunk {
            let (head, tail) = rest.split_at_col(chunk);
            out.push(head);
            rest = tail;
        }
        out.push(rest);
        out
    }

    /// Splits into row panels of height `chunk` (last may be short).
    ///
    /// The row-split counterpart of [`MatMut::split_cols_chunks`]: the
    /// parallel GEMM driver tiles C over an M×N thread grid so tall-skinny
    /// outputs (BSOFI's 2N×N panels) still use every pool thread.
    pub(crate) fn split_rows_chunks(self, chunk: usize) -> Vec<MatMut<'a>> {
        assert!(chunk > 0);
        let mut out = Vec::with_capacity(self.rows.div_ceil(chunk));
        let mut rest = self;
        while rest.rows() > chunk {
            let (head, tail) = rest.split_at_row(chunk);
            out.push(head);
            rest = tail;
        }
        out.push(rest);
        out
    }

    /// Copies `src` into this view.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn copy_from(&mut self, src: MatRef<'_>) {
        assert_eq!(
            (self.rows, self.cols),
            (src.rows(), src.cols()),
            "copy_from shape mismatch"
        );
        for j in 0..self.cols {
            self.col_mut(j).copy_from_slice(src.col(j));
        }
    }

    /// Fills the view with a constant.
    pub fn fill(&mut self, v: f64) {
        for j in 0..self.cols {
            self.col_mut(j).fill(v);
        }
    }

    /// Scales the view in place.
    pub fn scale(&mut self, alpha: f64) {
        for j in 0..self.cols {
            for x in self.col_mut(j) {
                *x *= alpha;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let m = Matrix::from_fn(3, 4, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert_eq!(m[(2, 3)], 23.0);
        assert!(!m.is_square());
        let id = Matrix::identity(4);
        assert_eq!(id[(2, 2)], 1.0);
        assert_eq!(id[(2, 1)], 0.0);
        assert!(id.is_square());
    }

    #[test]
    fn storage_is_pooled_and_aligned_above_the_floor() {
        let line = fsi_runtime::workspace::CACHE_LINE;
        let at = |m: &Matrix| m.as_slice().as_ptr() as usize;
        for n in [12, 16, 64, 144] {
            let z = Matrix::zeros(n, n);
            let f = Matrix::from_fn(n, n + 1, |i, j| (i + j) as f64);
            let copies = [
                f.clone(),
                f.view(0, 1, n, n).to_owned(),
                Matrix::pooled(n, n),
            ];
            assert!(z.as_slice().iter().all(|&x| x == 0.0), "n={n}");
            assert_eq!((at(&z) % line, at(&f) % line), (0, 0), "n={n}");
            assert!(copies.iter().all(|m| at(m) % line == 0), "n={n}");
            assert_eq!(copies[0], f);
            assert_eq!(f.as_slice().len(), n * (n + 1));
        }
        // Below the floor the buffer is exactly the matrix.
        let small = Matrix::zeros(8, 8);
        assert_eq!((small.buf.len(), small.off, small.pooled), (64, 0, false));

        // A dirty buffer comes back zeroed from `zeros` (buffer reuse
        // itself is pinned down by tests/steady_state_memory.rs, which has
        // its process to itself).
        for _ in 0..4 {
            let mut m = Matrix::zeros(37, 41);
            assert!(m.as_slice().iter().all(|&x| x == 0.0));
            m.as_mut().fill(2.5);
        }
    }

    #[test]
    fn col_major_layout() {
        let m = Matrix::from_col_major(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(1, 0)], 2.0);
        assert_eq!(m[(0, 1)], 3.0);
        assert_eq!(m[(1, 1)], 4.0);
    }

    #[test]
    #[should_panic(expected = "column-major length mismatch")]
    fn from_col_major_checks_length() {
        let _ = Matrix::from_col_major(2, 2, vec![1.0]);
    }

    #[test]
    fn views_and_submatrices() {
        let m = Matrix::from_fn(5, 5, |i, j| (i + 10 * j) as f64);
        let v = m.view(1, 2, 3, 2);
        assert_eq!(v.rows(), 3);
        assert_eq!(v.cols(), 2);
        assert_eq!(v.at(0, 0), m[(1, 2)]);
        assert_eq!(v.at(2, 1), m[(3, 3)]);
        let sub = v.submatrix(1, 1, 2, 1);
        assert_eq!(sub.at(0, 0), m[(2, 3)]);
        let owned = v.to_owned();
        assert_eq!(owned[(2, 1)], m[(3, 3)]);
    }

    #[test]
    fn view_mut_and_blocks() {
        let mut m = Matrix::zeros(4, 4);
        {
            let mut v = m.view_mut(1, 1, 2, 2);
            v.set(0, 0, 5.0);
            v.set(1, 1, 7.0);
            *v.at_mut(0, 1) = 9.0;
        }
        assert_eq!(m[(1, 1)], 5.0);
        assert_eq!(m[(2, 2)], 7.0);
        assert_eq!(m[(1, 2)], 9.0);
        let b = Matrix::from_fn(2, 2, |i, j| (i + j) as f64);
        m.set_block(0, 2, b.as_ref());
        assert_eq!(m[(1, 3)], 2.0);
        assert_eq!(m.block(0, 2, 2, 2), b);
    }

    #[test]
    fn split_at_col_partitions() {
        let mut m = Matrix::zeros(3, 6);
        let (mut l, mut r) = m.as_mut().split_at_col(2);
        l.fill(1.0);
        r.fill(2.0);
        assert_eq!(m[(0, 1)], 1.0);
        assert_eq!(m[(0, 2)], 2.0);
        assert_eq!(m[(2, 5)], 2.0);
    }

    #[test]
    fn split_at_row_partitions() {
        let mut m = Matrix::zeros(6, 3);
        let (mut t, mut b) = m.as_mut().split_at_row(4);
        t.fill(1.0);
        b.fill(2.0);
        assert_eq!(m[(3, 1)], 1.0);
        assert_eq!(m[(4, 1)], 2.0);
    }

    #[test]
    fn split_cols_chunks_covers_all() {
        let mut m = Matrix::zeros(2, 7);
        let chunks = m.as_mut().split_cols_chunks(3);
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[0].cols(), 3);
        assert_eq!(chunks[2].cols(), 1);
        let total: usize = chunks.iter().map(|c| c.cols()).sum();
        assert_eq!(total, 7);
    }

    #[test]
    fn split_rows_chunks_covers_all() {
        let mut m = Matrix::zeros(7, 2);
        let mut chunks = m.as_mut().split_rows_chunks(3);
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[0].rows(), 3);
        assert_eq!(chunks[2].rows(), 1);
        let total: usize = chunks.iter().map(|c| c.rows()).sum();
        assert_eq!(total, 7);
        for (t, c) in chunks.iter_mut().enumerate() {
            c.fill(t as f64);
        }
        assert_eq!(m[(2, 0)], 0.0);
        assert_eq!(m[(3, 1)], 1.0);
        assert_eq!(m[(6, 0)], 2.0);
    }

    #[test]
    fn splits_are_thread_safe() {
        let mut m = Matrix::zeros(8, 8);
        let (l, r) = m.as_mut().split_at_col(4);
        std::thread::scope(|s| {
            s.spawn(move || {
                let mut l = l;
                l.fill(1.0);
            });
            s.spawn(move || {
                let mut r = r;
                r.fill(2.0);
            });
        });
        assert_eq!(m[(7, 3)], 1.0);
        assert_eq!(m[(0, 4)], 2.0);
    }

    #[test]
    fn arithmetic_helpers() {
        let mut a = Matrix::from_fn(2, 2, |i, j| (i + j) as f64);
        let b = Matrix::from_fn(2, 2, |_, _| 1.0);
        a.add_assign(&b);
        assert_eq!(a[(1, 1)], 3.0);
        a.sub_assign(&b);
        assert_eq!(a[(1, 1)], 2.0);
        a.scale(2.0);
        assert_eq!(a[(0, 1)], 2.0);
        a.add_diag(1.0);
        assert_eq!(a[(0, 0)], 1.0);
        a.fill_zero();
        assert_eq!(a.max_abs(), 0.0);
    }

    #[test]
    fn transpose_and_diag() {
        let m = Matrix::from_fn(2, 3, |i, j| (10 * i + j) as f64);
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t[(2, 1)], m[(1, 2)]);
        let d = Matrix::diag(&[1.0, 2.0, 3.0]);
        assert_eq!(d[(1, 1)], 2.0);
        assert_eq!(d[(0, 1)], 0.0);
    }

    #[test]
    fn from_slice_views_with_ld() {
        let data: Vec<f64> = (0..12).map(|x| x as f64).collect();
        // Interpret as a 2×3 view inside a 4-row buffer.
        let v = MatRef::from_slice(&data, 2, 3, 4);
        assert_eq!(v.at(0, 0), 0.0);
        assert_eq!(v.at(1, 2), 9.0);
        let mut data = data;
        let mut vm = MatMut::from_slice(&mut data, 2, 3, 4);
        vm.set(1, 2, -1.0);
        assert_eq!(data[9], -1.0);
    }

    #[test]
    #[should_panic(expected = "view exceeds backing slice")]
    fn from_slice_checks_extent() {
        let data = vec![0.0; 5];
        let _ = MatRef::from_slice(&data, 2, 3, 4);
    }

    #[test]
    fn frobenius_and_max_abs_on_views() {
        let m = Matrix::from_fn(3, 3, |i, j| if i == j { -2.0 } else { 0.0 });
        assert!((m.as_ref().frobenius_norm() - (12.0f64).sqrt()).abs() < 1e-15);
        assert_eq!(m.max_abs(), 2.0);
    }

    #[test]
    fn debug_format_is_bounded() {
        let m = Matrix::zeros(100, 100);
        let s = format!("{m:?}");
        assert!(s.len() < 2500, "debug output stays bounded: {}", s.len());
    }
}
