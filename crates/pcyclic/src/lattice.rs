//! Periodic rectangular lattices — QUEST's default geometry.
//!
//! A [`SquareLattice`] is an `nx × ny` grid with periodic boundary
//! conditions. It supplies the three geometric ingredients of the paper:
//!
//! * the adjacency (hopping) matrix `K` entering the Hubbard block
//!   `B_ℓ = e^{tΔτK}·e^{σνV_ℓ}`;
//! * the spatial distance map `D(i, j)` that buckets site pairs into
//!   displacement classes for space-resolved measurements such as SPXX
//!   (the paper's `d` index with `d_max ~ O(N)`);
//! * the temporal distance map `T(k, ℓ)` between time-slice block indices
//!   (implemented here too, as it is pure index arithmetic).

use std::fmt;
use std::sync::{Arc, OnceLock};

use fsi_dense::Matrix;

/// An `nx × ny` periodic rectangular lattice. Site `i` has coordinates
/// `(i % nx, i / nx)`.
///
/// The lookup tables the measurements stream through
/// ([`Self::dist_class_table`], [`Self::class_counts`],
/// [`Self::neighbor_slice`]) are built once, on first use, and shared by
/// every clone; a lattice that is never measured on builds none of them.
/// Equality compares the extents only.
#[derive(Clone)]
pub struct SquareLattice {
    nx: usize,
    ny: usize,
    geometry: Arc<OnceLock<Geometry>>,
}

/// The measurement lookup tables of one lattice.
struct Geometry {
    /// `D(i, j)` at index `i + j·N`.
    class: Vec<u16>,
    /// Site pairs per displacement class.
    counts: Vec<usize>,
    /// The neighbours of site `i` are `nbr[nbr_start[i]..nbr_start[i + 1]]`.
    nbr: Vec<usize>,
    nbr_start: Vec<usize>,
}

impl PartialEq for SquareLattice {
    fn eq(&self, other: &Self) -> bool {
        (self.nx, self.ny) == (other.nx, other.ny)
    }
}

impl Eq for SquareLattice {}

impl fmt::Debug for SquareLattice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SquareLattice")
            .field("nx", &self.nx)
            .field("ny", &self.ny)
            .finish()
    }
}

impl SquareLattice {
    /// Creates an `nx × ny` periodic lattice.
    ///
    /// # Panics
    /// Panics if either side is zero.
    pub fn new(nx: usize, ny: usize) -> Self {
        assert!(nx > 0 && ny > 0, "lattice sides must be positive");
        SquareLattice {
            nx,
            ny,
            geometry: Arc::new(OnceLock::new()),
        }
    }

    /// A square `l × l` lattice.
    pub fn square(l: usize) -> Self {
        Self::new(l, l)
    }

    /// Number of sites `N = nx·ny`.
    pub fn n_sites(&self) -> usize {
        self.nx * self.ny
    }

    /// Horizontal extent.
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Vertical extent.
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Site index of coordinates `(x, y)` (taken modulo the extents).
    pub fn site(&self, x: usize, y: usize) -> usize {
        (x % self.nx) + (y % self.ny) * self.nx
    }

    /// Coordinates of site `i`.
    pub fn coords(&self, i: usize) -> (usize, usize) {
        debug_assert!(i < self.n_sites());
        (i % self.nx, i / self.nx)
    }

    /// The (up to) four nearest neighbours of site `i` under periodic
    /// boundaries, deduplicated for degenerate extents (`nx` or `ny` ≤ 2).
    pub fn neighbors(&self, i: usize) -> Vec<usize> {
        let (x, y) = self.coords(i);
        let candidates = [
            self.site(x + 1, y),
            self.site(x + self.nx - 1, y),
            self.site(x, y + 1),
            self.site(x, y + self.ny - 1),
        ];
        let mut out = Vec::with_capacity(4);
        for c in candidates {
            if c != i && !out.contains(&c) {
                out.push(c);
            }
        }
        out
    }

    /// The `N × N` adjacency matrix `K` (`k_ij = 1` when `i`, `j` are
    /// nearest neighbours). Symmetric by construction.
    pub fn adjacency(&self) -> Matrix {
        let n = self.n_sites();
        let mut k = Matrix::zeros(n, n);
        for i in 0..n {
            for j in self.neighbors(i) {
                k[(i, j)] = 1.0;
            }
        }
        k
    }

    /// Minimum-image displacement of site `j` relative to site `i`, folded
    /// into `0 ≤ dx ≤ nx/2`, `0 ≤ dy ≤ ny/2`.
    pub fn displacement(&self, i: usize, j: usize) -> (usize, usize) {
        let (xi, yi) = self.coords(i);
        let (xj, yj) = self.coords(j);
        let dx = (xj + self.nx - xi) % self.nx;
        let dy = (yj + self.ny - yi) % self.ny;
        (dx.min(self.nx - dx), dy.min(self.ny - dy))
    }

    /// Number of distinct displacement classes `d_max`.
    pub fn n_dist_classes(&self) -> usize {
        (self.nx / 2 + 1) * (self.ny / 2 + 1)
    }

    /// The spatial distance map `D(i, j)`: index of the displacement class
    /// of the pair, in `0..n_dist_classes()`.
    pub fn dist_class(&self, i: usize, j: usize) -> usize {
        let (dx, dy) = self.displacement(i, j);
        dx + dy * (self.nx / 2 + 1)
    }

    /// Number of site pairs `(i, j)` in each displacement class (the
    /// normalization of space-resolved correlation functions).
    pub fn dist_class_counts(&self) -> Vec<usize> {
        self.class_counts().to_vec()
    }

    /// [`Self::dist_class_counts`] without the copy.
    pub fn class_counts(&self) -> &[usize] {
        &self.geometry().counts
    }

    /// The whole distance map as a table: `D(i, j)` at index `i + j·N`.
    /// `D` is symmetric, so the table reads the same along rows and along
    /// columns of a column-major `N × N` block.
    pub fn dist_class_table(&self) -> &[u16] {
        &self.geometry().class
    }

    /// [`Self::neighbors`] of site `i` as a slice of a table built once
    /// (same sites, same order).
    pub fn neighbor_slice(&self, i: usize) -> &[usize] {
        let g = self.geometry();
        &g.nbr[g.nbr_start[i]..g.nbr_start[i + 1]]
    }

    fn geometry(&self) -> &Geometry {
        self.geometry.get_or_init(|| {
            let n = self.n_sites();
            let mut class = Vec::with_capacity(n * n);
            let mut counts = vec![0usize; self.n_dist_classes()];
            for j in 0..n {
                for i in 0..n {
                    let d = self.dist_class(i, j);
                    counts[d] += 1;
                    class.push(u16::try_from(d).expect("more than 65536 displacement classes"));
                }
            }
            let mut nbr = Vec::with_capacity(4 * n);
            let mut nbr_start = Vec::with_capacity(n + 1);
            for i in 0..n {
                nbr_start.push(nbr.len());
                nbr.extend(self.neighbors(i));
            }
            nbr_start.push(nbr.len());
            Geometry {
                class,
                counts,
                nbr,
                nbr_start,
            }
        })
    }
}

/// The temporal distance map `T(k, ℓ)` of the paper (0-based block
/// indices): `k − ℓ` if `k ≥ ℓ`, else `k − ℓ + L`, giving `τ ∈ 0..L`.
pub fn temporal_distance(k: usize, l: usize, slices: usize) -> usize {
    debug_assert!(k < slices && l < slices);
    (k + slices - l) % slices
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_geometry() {
        let lat = SquareLattice::new(4, 3);
        assert_eq!(lat.n_sites(), 12);
        assert_eq!(lat.site(0, 0), 0);
        assert_eq!(lat.site(3, 2), 11);
        assert_eq!(lat.site(4, 3), 0, "wraps periodically");
        assert_eq!(lat.coords(11), (3, 2));
    }

    #[test]
    fn neighbors_are_symmetric_and_degree_4() {
        let lat = SquareLattice::square(4);
        for i in 0..lat.n_sites() {
            let ns = lat.neighbors(i);
            assert_eq!(ns.len(), 4, "site {i}");
            for &j in &ns {
                assert!(lat.neighbors(j).contains(&i), "{i} <-> {j}");
            }
        }
    }

    #[test]
    fn degenerate_extents_deduplicate() {
        // A 2×2 lattice: +x and −x neighbours coincide.
        let lat = SquareLattice::square(2);
        for i in 0..4 {
            let ns = lat.neighbors(i);
            assert_eq!(ns.len(), 2, "site {i}: {ns:?}");
        }
        // A 1×4 chain: only vertical neighbours, which coincide pairwise at
        // distance 1.
        let lat = SquareLattice::new(1, 4);
        assert_eq!(lat.neighbors(0).len(), 2);
    }

    #[test]
    fn adjacency_is_symmetric_with_correct_row_sums() {
        let lat = SquareLattice::new(4, 4);
        let k = lat.adjacency();
        for i in 0..16 {
            let mut row = 0.0;
            for j in 0..16 {
                assert_eq!(k[(i, j)], k[(j, i)]);
                row += k[(i, j)];
            }
            assert_eq!(row, 4.0);
        }
        assert_eq!(k[(0, 0)], 0.0, "no self loops");
    }

    #[test]
    fn displacement_minimum_image() {
        let lat = SquareLattice::new(6, 4);
        // Distance from 0 to its +x neighbour.
        assert_eq!(lat.displacement(0, lat.site(1, 0)), (1, 0));
        // Wrapping: site at x=5 is distance 1 from x=0.
        assert_eq!(lat.displacement(0, lat.site(5, 0)), (1, 0));
        // Farthest point.
        assert_eq!(lat.displacement(0, lat.site(3, 2)), (3, 2));
        // Symmetry.
        for i in 0..lat.n_sites() {
            for j in 0..lat.n_sites() {
                assert_eq!(lat.displacement(i, j), lat.displacement(j, i));
            }
        }
    }

    #[test]
    fn dist_classes_partition_all_pairs() {
        let lat = SquareLattice::new(4, 4);
        let counts = lat.dist_class_counts();
        assert_eq!(counts.len(), lat.n_dist_classes());
        let total: usize = counts.iter().sum();
        assert_eq!(total, lat.n_sites() * lat.n_sites());
        // Class 0 is the self class: exactly N pairs.
        assert_eq!(counts[0], lat.n_sites());
        // Translation invariance: every class is populated uniformly,
        // i.e. a multiple of N.
        for (d, &cnt) in counts.iter().enumerate() {
            assert!(cnt % lat.n_sites() == 0, "class {d}: {cnt}");
            assert!(cnt > 0, "class {d} must be populated");
        }
    }

    #[test]
    fn cached_geometry_equals_the_uncached_functions() {
        // Odd extents, degenerate neighbours and a rectangle among them.
        for (nx, ny) in [(2, 2), (4, 2), (3, 5), (1, 4), (8, 8)] {
            let lat = SquareLattice::new(nx, ny);
            let n = lat.n_sites();
            let table = lat.dist_class_table();
            assert_eq!(table.len(), n * n);
            let mut recount = vec![0usize; lat.n_dist_classes()];
            for i in 0..n {
                for j in 0..n {
                    let d = lat.dist_class(i, j);
                    // The mirror-pair trick of SPXX depends on D(i,j) = D(j,i).
                    assert_eq!(d, lat.dist_class(j, i), "{nx}x{ny}: D({i},{j})");
                    assert_eq!(usize::from(table[i + j * n]), d, "{nx}x{ny}: ({i},{j})");
                    recount[d] += 1;
                }
                assert_eq!(lat.neighbor_slice(i), lat.neighbors(i), "{nx}x{ny}: {i}");
            }
            assert_eq!(lat.class_counts(), recount);
            assert_eq!(lat.dist_class_counts(), recount);
        }
    }

    #[test]
    fn clones_share_one_geometry_and_compare_by_extents() {
        let lat = SquareLattice::new(4, 3);
        let copy = lat.clone();
        assert!(lat.geometry.get().is_none(), "built lazily");
        let table = copy.dist_class_table().as_ptr();
        assert_eq!(lat.dist_class_table().as_ptr(), table);
        // A lattice with its tables built equals a fresh one without.
        assert_eq!(lat, SquareLattice::new(4, 3));
        assert_ne!(lat, SquareLattice::new(3, 4));
        assert_eq!(format!("{lat:?}"), "SquareLattice { nx: 4, ny: 3 }");
    }

    #[test]
    fn temporal_distance_matches_paper() {
        let l = 10;
        assert_eq!(temporal_distance(5, 3, l), 2); // k > ℓ → k − ℓ
        assert_eq!(temporal_distance(3, 5, l), 8); // k < ℓ → k − ℓ + L
        assert_eq!(temporal_distance(4, 4, l), 0);
        // Every τ value has exactly L pairs (k, ℓ).
        for tau in 0..l {
            let count = (0..l)
                .flat_map(|k| (0..l).map(move |ell| (k, ell)))
                .filter(|&(k, ell)| temporal_distance(k, ell, l) == tau)
                .count();
            assert_eq!(count, l);
        }
    }
}
