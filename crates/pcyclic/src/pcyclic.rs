//! The block p-cyclic matrix `M` in normal form (paper Eq. (1)/(2)).
//!
//! ```text
//!       | I            B_1 |
//!       |-B_2  I           |
//!  M =  |     -B_3 ...     |        (L block rows/cols of size N)
//!       |          ...  I  |
//!       |          -B_L  I |
//! ```
//!
//! Internally blocks are 0-indexed: `b[k]` is the paper's `B_{k+1}`. The
//! Green's function is `G = M⁻¹`; only `O(L)` blocks of `M` are stored
//! (the `B`s), while `G` is block-dense — which is exactly why *selected*
//! inversion matters.

use fsi_dense::{inverse, Matrix};

/// A block p-cyclic matrix in normal form, stored as its `L` blocks
/// `b[0..L]`, each `N × N`.
#[derive(Clone, Debug)]
pub struct BlockPCyclic {
    blocks: Vec<Matrix>,
    n: usize,
}

impl BlockPCyclic {
    /// Wraps a list of equally sized square blocks.
    ///
    /// # Panics
    /// Panics if the list is empty or blocks disagree in shape.
    pub fn new(blocks: Vec<Matrix>) -> Self {
        let n = blocks
            .first()
            .expect("a p-cyclic matrix needs at least one block")
            .rows();
        for (k, b) in blocks.iter().enumerate() {
            assert!(
                b.rows() == n && b.cols() == n,
                "block {k} has shape {}x{}, expected {n}x{n}",
                b.rows(),
                b.cols()
            );
        }
        BlockPCyclic { blocks, n }
    }

    /// Block size `N`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of block rows `L`.
    pub fn l(&self) -> usize {
        self.blocks.len()
    }

    /// Total dimension `N·L`.
    fn dim(&self) -> usize {
        self.n * self.l()
    }

    /// Block `b[k]` (the paper's `B_{k+1}`).
    pub fn block(&self, k: usize) -> &Matrix {
        &self.blocks[k]
    }

    /// All blocks.
    pub fn blocks(&self) -> &[Matrix] {
        &self.blocks
    }

    /// Index below `k` on the torus (`k+1`, wrapping to 0).
    pub fn down(&self, k: usize) -> usize {
        (k + 1) % self.l()
    }

    /// Index above `k` on the torus (`k−1`, wrapping to `L−1`).
    pub fn up(&self, k: usize) -> usize {
        (k + self.l() - 1) % self.l()
    }

    /// Assembles the dense `NL × NL` matrix `M` (for reference inversions
    /// and validation; O((NL)²) memory).
    pub fn assemble_dense(&self) -> Matrix {
        let (n, l) = (self.n, self.l());
        let mut m = Matrix::zeros(n * l, n * l);
        for k in 0..l {
            // Diagonal identity.
            for i in 0..n {
                m[(k * n + i, k * n + i)] = 1.0;
            }
        }
        if l == 1 {
            // Degenerate single-slice matrix: corner and diagonal coincide,
            // M = I + B_1.
            for j in 0..n {
                for i in 0..n {
                    m[(i, j)] += self.blocks[0][(i, j)];
                }
            }
            return m;
        }
        // Corner +B_1 at block (0, L−1).
        for j in 0..n {
            for i in 0..n {
                m[(i, (l - 1) * n + j)] = self.blocks[0][(i, j)];
            }
        }
        // Subdiagonal −B_{k+1} at block (k, k−1) for k = 1..L−1.
        for k in 1..l {
            for j in 0..n {
                for i in 0..n {
                    m[(k * n + i, (k - 1) * n + j)] = -self.blocks[k][(i, j)];
                }
            }
        }
        m
    }

    /// Reference Green's function: dense `G = M⁻¹` via LU (the paper's
    /// "MKL DGETRF + DGETRI" validation baseline). O((NL)³) flops.
    pub fn reference_green(&self) -> Matrix {
        inverse(&self.assemble_dense())
            .expect("p-cyclic matrices with nonsingular blocks are nonsingular")
    }

    /// Extracts block `(k, ℓ)` of a dense `NL × NL` matrix in this
    /// matrix's block layout.
    pub fn dense_block(&self, dense: &Matrix, k: usize, l: usize) -> Matrix {
        assert_eq!(dense.rows(), self.dim());
        assert_eq!(dense.cols(), self.dim());
        dense.block(k * self.n, l * self.n, self.n, self.n)
    }
}

/// Builds a random block p-cyclic matrix with well-conditioned blocks —
/// the generic (non-Hubbard) test input for the structured kernels.
pub fn random_pcyclic(n: usize, l: usize, seed: u64) -> BlockPCyclic {
    let blocks = (0..l)
        .map(|k| {
            let mut b = fsi_dense::test_matrix(n, n, seed.wrapping_add(k as u64 * 7919));
            b.scale(0.5 / n as f64);
            b.add_diag(1.0);
            b
        })
        .collect();
    BlockPCyclic::new(blocks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsi_dense::mul;

    #[test]
    fn assembly_layout() {
        let pc = random_pcyclic(3, 4, 1);
        let m = pc.assemble_dense();
        assert_eq!(m.rows(), 12);
        // Diagonal blocks are I.
        for k in 0..4 {
            let d = pc.dense_block(&m, k, k);
            let mut d = d;
            d.add_diag(-1.0);
            assert_eq!(d.max_abs(), 0.0);
        }
        // Corner is +B_1.
        let corner = pc.dense_block(&m, 0, 3);
        assert_eq!(&corner, pc.block(0));
        // Subdiagonals are −B_{k+1}.
        for k in 1..4 {
            let mut s = pc.dense_block(&m, k, k - 1);
            s.add_assign(pc.block(k));
            assert_eq!(s.max_abs(), 0.0);
        }
        // Everything else is zero.
        let z = pc.dense_block(&m, 0, 1);
        assert_eq!(z.max_abs(), 0.0);
    }

    #[test]
    fn reference_green_is_inverse() {
        let pc = random_pcyclic(4, 5, 2);
        let g = pc.reference_green();
        let m = pc.assemble_dense();
        let mut prod = mul(&m, &g);
        prod.add_diag(-1.0);
        assert!(prod.max_abs() < 1e-10, "MG ≉ I: {}", prod.max_abs());
    }

    #[test]
    fn torus_index_helpers() {
        let pc = random_pcyclic(2, 5, 3);
        assert_eq!(pc.down(4), 0);
        assert_eq!(pc.down(2), 3);
        assert_eq!(pc.up(0), 4);
        assert_eq!(pc.up(3), 2);
    }

    #[test]
    fn single_block_degenerate_case() {
        let pc = random_pcyclic(3, 1, 4);
        let m = pc.assemble_dense();
        // M = I + B_1.
        let mut want = pc.block(0).clone();
        want.add_diag(1.0);
        assert_eq!(&m, &want);
        let g = pc.reference_green();
        let mut prod = mul(&m, &g);
        prod.add_diag(-1.0);
        assert!(prod.max_abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "expected")]
    fn mismatched_blocks_panic() {
        let _ = BlockPCyclic::new(vec![Matrix::zeros(2, 2), Matrix::zeros(3, 3)]);
    }
}
