//! Selected-inversion patterns (paper §II-B, Fig. 2).
//!
//! A selected inversion is a set of `(k, ℓ)` block coordinates of `G`. The
//! paper studies four patterns over the index set
//! `I = {c−q, 2c−q, …, bc−q}` (1-based), i.e. every `c`-th row/column with
//! a random offset `q ∈ 0..c` chosen uniformly so that, over many Green's
//! functions, every block position is sampled:
//!
//! | pattern        | blocks                      | count    | memory vs full |
//! |----------------|-----------------------------|----------|----------------|
//! | S1 diagonal    | `G(k,k)`, k ∈ I             | `b`      | 1/(cL)         |
//! | S2 subdiagonal | `G(k,k+1)`, k ∈ I           | `b`      | 1/(cL)         |
//! | S3 columns     | `G(k,ℓ)`, ℓ ∈ I, all k      | `bL`     | 1/c            |
//! | S4 rows        | `G(k,ℓ)`, k ∈ I, all ℓ      | `bL`     | 1/c            |
//!
//! In 0-based indices `I = {o, o+c, …}` with `o = c−1−q`.

use std::collections::HashMap;

use fsi_dense::Matrix;

/// The four selected-inversion shapes of the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Pattern {
    /// `b` diagonal blocks (equal-time Green's functions).
    Diagonal,
    /// `b` sub-diagonal blocks `G(k, k+1)` (torus-wrapped).
    SubDiagonal,
    /// `b` full block columns.
    Columns,
    /// `b` full block rows.
    Rows,
}

impl Pattern {
    /// All four patterns, in paper order S1..S4.
    pub const ALL: [Pattern; 4] = [
        Pattern::Diagonal,
        Pattern::SubDiagonal,
        Pattern::Columns,
        Pattern::Rows,
    ];

    /// Paper label (S1..S4).
    pub fn label(&self) -> &'static str {
        match self {
            Pattern::Diagonal => "S1 (diagonal)",
            Pattern::SubDiagonal => "S2 (sub-diagonal)",
            Pattern::Columns => "S3 (columns)",
            Pattern::Rows => "S4 (rows)",
        }
    }

    /// Number of selected blocks for given `(L, c)` (paper §II-B table).
    pub fn n_blocks(&self, l: usize, c: usize) -> usize {
        let b = l / c;
        match self {
            Pattern::Diagonal | Pattern::SubDiagonal => b,
            Pattern::Columns | Pattern::Rows => b * l,
        }
    }

    /// Memory reduction factor versus storing the full `L×L` block inverse
    /// (paper §II-B table: `cL` for S1/S2, `c` for S3/S4).
    pub fn reduction_factor(&self, l: usize, c: usize) -> usize {
        let total = l * l;
        total / self.n_blocks(l, c)
    }
}

/// Which block rows of the *reduced* inverse `Ḡ = M̄⁻¹` a BSOFI call must
/// assemble — the request [`crate::bsofi::bsofi_selected`] specializes on.
///
/// The original-level patterns S1–S4 reduce to exactly two seed shapes
/// (paper Alg. 2): the diagonal patterns need only the `b` diagonal seed
/// blocks `Ḡ(k, k)`, while the row/column patterns need all `b²` blocks.
/// The DQMC stabilizer adds a third shape: a single diagonal block.
///
/// ```
/// use fsi_selinv::{Pattern, SelectedPattern};
/// // S1/S2 wraps grow from diagonal seeds; S3/S4 need every block.
/// assert_eq!(SelectedPattern::for_wrap(Pattern::Diagonal), SelectedPattern::Diagonals);
/// assert_eq!(SelectedPattern::for_wrap(Pattern::Rows), SelectedPattern::Full);
/// // Diagonals at b = 4 yields the 4 blocks (k, k).
/// assert_eq!(SelectedPattern::Diagonals.coordinates(4).len(), 4);
/// assert_eq!(SelectedPattern::DiagonalBlock(2).coordinates(4), vec![(2, 2)]);
/// assert_eq!(SelectedPattern::Full.coordinates(3).len(), 9);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SelectedPattern {
    /// All `b` diagonal blocks `Ḡ(k, k)` — the seeds of the S1/S2 wraps
    /// and of [`crate::wrap::wrap_all_diagonals`].
    Diagonals,
    /// One diagonal block `Ḡ(k, k)` — the DQMC stabilizer's request.
    DiagonalBlock(usize),
    /// Every block of `Ḡ` — the S3/S4 (rows/columns) seed set; assembly
    /// degenerates to the dense inverse.
    Full,
}

impl SelectedPattern {
    /// The reduced-level seed shape an original-level [`Pattern`] needs.
    pub fn for_wrap(pattern: Pattern) -> SelectedPattern {
        match pattern {
            Pattern::Diagonal | Pattern::SubDiagonal => SelectedPattern::Diagonals,
            Pattern::Columns | Pattern::Rows => SelectedPattern::Full,
        }
    }

    /// The block rows of `Ḡ` that must be assembled, ascending.
    ///
    /// # Panics
    /// Panics if a [`SelectedPattern::DiagonalBlock`] index is `≥ b`.
    pub fn rows(&self, b: usize) -> Vec<usize> {
        match *self {
            SelectedPattern::Diagonals | SelectedPattern::Full => (0..b).collect(),
            SelectedPattern::DiagonalBlock(k) => {
                assert!(k < b, "diagonal block {k} out of range for b={b}");
                vec![k]
            }
        }
    }

    /// The block columns wanted within assembled row `k`.
    pub fn cols_for_row(&self, k: usize, b: usize) -> Vec<usize> {
        match *self {
            SelectedPattern::Diagonals | SelectedPattern::DiagonalBlock(_) => vec![k],
            SelectedPattern::Full => (0..b).collect(),
        }
    }

    /// All requested `(k, ℓ)` block coordinates of `Ḡ`.
    pub fn coordinates(&self, b: usize) -> Vec<(usize, usize)> {
        self.rows(b)
            .into_iter()
            .flat_map(|k| self.cols_for_row(k, b).into_iter().map(move |l| (k, l)))
            .collect()
    }

    /// How many of the assembled rows (a prefix of [`Self::rows`], stacked
    /// top-down) panel transform `i` of stage C must touch: row `k`'s
    /// wanted columns are final once transforms `b−1, …, min(ℓ)−1` have
    /// been applied, so row `k` participates in transform `i` iff
    /// `i + 1 ≥ min(cols_for_row(k))`. Zero means the transform is skipped
    /// entirely — the flop saving of selected assembly.
    pub fn active_rows(&self, i: usize, b: usize) -> usize {
        match *self {
            SelectedPattern::Full => b,
            SelectedPattern::Diagonals => (i + 2).min(b),
            SelectedPattern::DiagonalBlock(k) => usize::from(i + 1 >= k),
        }
    }

    /// Display label for benches and traces.
    pub fn label(&self) -> &'static str {
        match self {
            SelectedPattern::Diagonals => "diagonals",
            SelectedPattern::DiagonalBlock(_) => "diagonal-block",
            SelectedPattern::Full => "full",
        }
    }
}

/// A concrete selection: pattern + clustering size + random shift.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Selection {
    /// Which shape to select.
    pub pattern: Pattern,
    /// Cluster size `c` (must divide `L`; usually `c ≈ √L`).
    pub c: usize,
    /// Random shift `q ∈ 0..c` (paper: uniform, so repeated Green's
    /// functions sample all block positions).
    pub q: usize,
}

impl Selection {
    /// Creates a selection, validating `c | L` is *not* checked here (it
    /// depends on `L`, checked in [`Selection::index_set`]).
    ///
    /// # Panics
    /// Panics unless `q < c` and `c > 0`.
    pub fn new(pattern: Pattern, c: usize, q: usize) -> Self {
        assert!(c > 0, "cluster size must be positive");
        assert!(q < c, "shift q must satisfy 0 <= q < c");
        Selection { pattern, c, q }
    }

    /// The 0-based offset `o = c − 1 − q` of the index set.
    pub fn offset(&self) -> usize {
        self.c - 1 - self.q
    }

    /// The 0-based index set `I = {o, o+c, …}` for `b = L/c` entries.
    ///
    /// # Panics
    /// Panics unless `c` divides `L`.
    pub fn index_set(&self, l: usize) -> Vec<usize> {
        assert!(
            l.is_multiple_of(self.c),
            "cluster size c={} must divide L={l}",
            self.c
        );
        let b = l / self.c;
        (0..b).map(|m| m * self.c + self.offset()).collect()
    }

    /// Number of reduced block rows `b = L/c`.
    pub fn b(&self, l: usize) -> usize {
        assert!(
            l.is_multiple_of(self.c),
            "cluster size c={} must divide L={l}",
            self.c
        );
        l / self.c
    }

    /// All selected `(k, ℓ)` block coordinates for block count `L`.
    pub fn coordinates(&self, l: usize) -> Vec<(usize, usize)> {
        let idx = self.index_set(l);
        match self.pattern {
            Pattern::Diagonal => idx.iter().map(|&k| (k, k)).collect(),
            Pattern::SubDiagonal => idx.iter().map(|&k| (k, (k + 1) % l)).collect(),
            Pattern::Columns => idx
                .iter()
                .flat_map(|&col| (0..l).map(move |k| (k, col)))
                .collect(),
            Pattern::Rows => idx
                .iter()
                .flat_map(|&row| (0..l).map(move |ell| (row, ell)))
                .collect(),
        }
    }
}

/// The result of a selected inversion: a sparse map from block coordinates
/// to `N × N` blocks of `G`.
#[derive(Clone, Debug, Default)]
pub struct SelectedInverse {
    blocks: HashMap<(usize, usize), Matrix>,
}

impl SelectedInverse {
    /// An empty selection result.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty selection result with room for `blocks` blocks.
    pub fn with_capacity(blocks: usize) -> Self {
        SelectedInverse {
            blocks: HashMap::with_capacity(blocks),
        }
    }

    /// Inserts block `(k, ℓ)`; replaces any previous value.
    pub fn insert(&mut self, k: usize, l: usize, block: Matrix) {
        self.blocks.insert((k, l), block);
    }

    /// Looks up block `(k, ℓ)`.
    pub fn get(&self, k: usize, l: usize) -> Option<&Matrix> {
        self.blocks.get(&(k, l))
    }

    /// Looks up block `(k, ℓ)` mutably (the health layer's injection and
    /// scan hooks visit blocks in coordinate order).
    pub fn get_mut(&mut self, k: usize, l: usize) -> Option<&mut Matrix> {
        self.blocks.get_mut(&(k, l))
    }

    /// The stored coordinates in sorted order — a deterministic visiting
    /// order over the underlying hash map.
    pub fn sorted_coordinates(&self) -> Vec<(usize, usize)> {
        let mut coords: Vec<(usize, usize)> = self.blocks.keys().copied().collect();
        coords.sort_unstable();
        coords
    }

    /// Removes and returns block `(k, ℓ)` — callers that consume a single
    /// block (the DQMC stabilizer) avoid a copy.
    pub fn remove(&mut self, k: usize, l: usize) -> Option<Matrix> {
        self.blocks.remove(&(k, l))
    }

    /// Whether block `(k, ℓ)` is present.
    pub fn contains(&self, k: usize, l: usize) -> bool {
        self.blocks.contains_key(&(k, l))
    }

    /// Number of stored blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the selection is empty.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Iterates stored blocks as `((k, ℓ), &block)`.
    pub fn iter(&self) -> impl Iterator<Item = (&(usize, usize), &Matrix)> {
        self.blocks.iter()
    }

    /// Merges another selection result into this one.
    pub fn merge(&mut self, other: SelectedInverse) {
        self.blocks.extend(other.blocks);
    }

    /// Total stored bytes — the paper's memory argument for selected
    /// inversion (1/c of the full inverse for column selections).
    pub fn bytes(&self) -> usize {
        self.blocks
            .values()
            .map(|m| m.rows() * m.cols() * std::mem::size_of::<f64>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_set_matches_paper_convention() {
        // Paper (1-based): I = {c−q, 2c−q, …}; 0-based: subtract 1.
        let sel = Selection::new(Pattern::Diagonal, 5, 2);
        let idx = sel.index_set(20);
        // 1-based would be {3, 8, 13, 18}; 0-based {2, 7, 12, 17}.
        assert_eq!(idx, vec![2, 7, 12, 17]);
        assert_eq!(sel.b(20), 4);
        // q = 0 gives the last index of each cluster.
        let sel = Selection::new(Pattern::Diagonal, 5, 0);
        assert_eq!(sel.index_set(10), vec![4, 9]);
        // q = c−1 gives the first.
        let sel = Selection::new(Pattern::Diagonal, 5, 4);
        assert_eq!(sel.index_set(10), vec![0, 5]);
    }

    #[test]
    fn block_counts_match_paper_table() {
        let (l, c) = (100, 10);
        assert_eq!(Pattern::Diagonal.n_blocks(l, c), 10);
        assert_eq!(Pattern::SubDiagonal.n_blocks(l, c), 10);
        assert_eq!(Pattern::Columns.n_blocks(l, c), 1000);
        assert_eq!(Pattern::Rows.n_blocks(l, c), 1000);
        // Reduction factors: cL for diagonals, c for columns/rows.
        assert_eq!(Pattern::Diagonal.reduction_factor(l, c), c * l);
        assert_eq!(Pattern::SubDiagonal.reduction_factor(l, c), c * l);
        assert_eq!(Pattern::Columns.reduction_factor(l, c), c);
        assert_eq!(Pattern::Rows.reduction_factor(l, c), c);
    }

    #[test]
    fn coordinates_have_expected_shapes() {
        let l = 12;
        let sel = Selection::new(Pattern::Columns, 4, 1);
        let coords = sel.coordinates(l);
        assert_eq!(coords.len(), 3 * 12);
        // Every selected coordinate's column is in the index set.
        let idx = sel.index_set(l);
        assert!(coords.iter().all(|&(_, col)| idx.contains(&col)));
        // Rows pattern transposes that.
        let sel = Selection::new(Pattern::Rows, 4, 1);
        let coords = sel.coordinates(l);
        assert!(coords.iter().all(|&(row, _)| idx.contains(&row)));
        // Sub-diagonal wraps at the torus edge.
        let sel = Selection::new(Pattern::SubDiagonal, 4, 3); // offset 0 → rows {0,4,8}
        let coords = sel.coordinates(l);
        assert!(coords.contains(&(0, 1)));
        let sel = Selection::new(Pattern::SubDiagonal, 4, 0); // offset 3 → rows {3,7,11}
        let coords = sel.coordinates(l);
        assert!(coords.contains(&(11, 0)), "wraps: {coords:?}");
    }

    #[test]
    fn coordinates_are_unique() {
        for pattern in Pattern::ALL {
            let sel = Selection::new(pattern, 3, 1);
            let coords = sel.coordinates(9);
            let mut sorted = coords.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), coords.len(), "{pattern:?}");
        }
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn c_must_divide_l() {
        Selection::new(Pattern::Diagonal, 7, 0).index_set(20);
    }

    #[test]
    fn selected_inverse_storage() {
        let mut s = SelectedInverse::new();
        assert!(s.is_empty());
        s.insert(1, 2, Matrix::identity(3));
        s.insert(2, 2, Matrix::zeros(3, 3));
        assert_eq!(s.len(), 2);
        assert!(s.contains(1, 2));
        assert!(!s.contains(0, 0));
        assert_eq!(s.get(1, 2).unwrap()[(0, 0)], 1.0);
        assert_eq!(s.bytes(), 2 * 9 * 8);
        let mut other = SelectedInverse::new();
        other.insert(0, 0, Matrix::identity(3));
        s.merge(other);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn selected_pattern_rows_and_active_counts() {
        let b = 5;
        assert_eq!(SelectedPattern::Diagonals.rows(b), vec![0, 1, 2, 3, 4]);
        assert_eq!(SelectedPattern::DiagonalBlock(3).rows(b), vec![3]);
        assert_eq!(SelectedPattern::Full.coordinates(b).len(), b * b);
        // Diagonals: transform i touches rows k ≤ i+1, capped at b.
        assert_eq!(SelectedPattern::Diagonals.active_rows(0, b), 2);
        assert_eq!(SelectedPattern::Diagonals.active_rows(3, b), 5);
        assert_eq!(SelectedPattern::Diagonals.active_rows(4, b), 5);
        // Single block k: only transforms i ≥ k−1 touch it.
        assert_eq!(SelectedPattern::DiagonalBlock(3).active_rows(1, b), 0);
        assert_eq!(SelectedPattern::DiagonalBlock(3).active_rows(2, b), 1);
        assert_eq!(SelectedPattern::DiagonalBlock(0).active_rows(0, b), 1);
        // Full: every transform touches every row.
        assert_eq!(SelectedPattern::Full.active_rows(0, b), b);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn selected_pattern_block_bounds_checked() {
        SelectedPattern::DiagonalBlock(4).rows(4);
    }

    #[test]
    fn memory_saving_example_from_paper() {
        // (N, L) = (1000, 100), c = √L = 10 → column selection uses 1/10
        // of the full-inverse memory, "saving 90%".
        let sel = Selection::new(Pattern::Columns, 10, 0);
        let frac = 1.0 / Pattern::Columns.reduction_factor(100, sel.c) as f64;
        assert!((frac - 0.1).abs() < 1e-12);
    }
}
