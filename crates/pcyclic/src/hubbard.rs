//! Hubbard-model physics: parameters, Hubbard–Stratonovich fields, and the
//! `B_ℓ` block builder.
//!
//! After Trotter discretization of the inverse temperature `β` into `L`
//! slices (`Δτ = β/L`) and the discrete Hubbard–Stratonovich transformation
//! of the on-site interaction `U`, the fermion determinant factorizes into
//! per-slice propagators (paper §V-A):
//!
//! ```text
//! B_ℓ^σ = e^{tΔτK} · e^{σν V_ℓ(h)},     cosh ν = e^{ΔτU/2},
//! ```
//!
//! where `K` is the lattice adjacency, `σ = ±1` the spin, and
//! `V_ℓ(h) = diag(h(ℓ,1), …, h(ℓ,N))` the slice-`ℓ` row of the HS field
//! `h ∈ {±1}^{L×N}`. The dense hopping factor `e^{tΔτK}` (and its exact
//! inverse `e^{−tΔτK}`) is computed once per parameter set with the Padé
//! matrix exponential and shared by all slices, spins and Monte Carlo
//! sweeps.

use fsi_dense::{expm, scale_cols_exp, scale_rows_exp, Matrix};
use rand::Rng;

use crate::lattice::SquareLattice;

/// Spin direction `σ ∈ {↑, ↓}` entering the HS exponent as `±1`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Spin {
    /// σ = +1
    Up,
    /// σ = −1
    Down,
}

impl Spin {
    /// The `±1` value used in exponents.
    pub fn sign(self) -> f64 {
        match self {
            Spin::Up => 1.0,
            Spin::Down => -1.0,
        }
    }

    /// Both spin species, in `[Up, Down]` order.
    pub const BOTH: [Spin; 2] = [Spin::Up, Spin::Down];
}

/// Physical and discretization parameters of a Hubbard-model run.
#[derive(Clone, Debug, PartialEq)]
pub struct HubbardParams {
    /// Hopping amplitude `t`.
    pub t: f64,
    /// On-site interaction strength `U`.
    pub u: f64,
    /// Inverse temperature `β`.
    pub beta: f64,
    /// Number of imaginary-time slices `L` (so `Δτ = β/L`).
    pub l: usize,
}

impl HubbardParams {
    /// The paper's validation parameter set `(t, β, σ, U) = (1, 1, ·, 2)`.
    pub fn paper_validation(l: usize) -> Self {
        HubbardParams {
            t: 1.0,
            u: 2.0,
            beta: 1.0,
            l,
        }
    }

    /// Imaginary-time step `Δτ = β/L`.
    fn delta_tau(&self) -> f64 {
        self.beta / self.l as f64
    }

    /// HS coupling `ν = cosh⁻¹(e^{ΔτU/2})`.
    ///
    /// # Panics
    /// Panics for attractive `U < 0` (the discrete HS transform used here
    /// requires repulsive coupling; the attractive model needs the charge
    /// channel, which is out of scope).
    pub fn nu(&self) -> f64 {
        assert!(self.u >= 0.0, "repulsive-U HS transform requires U >= 0");
        let x = (self.delta_tau() * self.u / 2.0).exp();
        // acosh(x) for x >= 1.
        (x + (x * x - 1.0).sqrt()).ln()
    }
}

/// A Hubbard–Stratonovich configuration `h(ℓ, i) ∈ {±1}`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HsField {
    /// `h[ℓ][i]`, `ℓ ∈ 0..L`, `i ∈ 0..N`.
    h: Vec<Vec<i8>>,
}

impl HsField {
    /// All-up configuration (`h ≡ +1`), the paper's `h₀` initialization.
    pub fn ones(l: usize, n: usize) -> Self {
        HsField {
            h: vec![vec![1; n]; l],
        }
    }

    /// Uniformly random `±1` configuration.
    pub fn random<R: Rng + ?Sized>(l: usize, n: usize, rng: &mut R) -> Self {
        HsField {
            h: (0..l)
                .map(|_| {
                    (0..n)
                        .map(|_| if rng.gen::<bool>() { 1 } else { -1 })
                        .collect()
                })
                .collect(),
        }
    }

    /// Number of time slices.
    pub fn slices(&self) -> usize {
        self.h.len()
    }

    /// Number of sites.
    pub fn sites(&self) -> usize {
        self.h.first().map(|r| r.len()).unwrap_or(0)
    }

    /// Field value at `(ℓ, i)` as `±1.0`.
    pub fn get(&self, l: usize, i: usize) -> f64 {
        self.h[l][i] as f64
    }

    /// Flips `h(ℓ, i) → −h(ℓ, i)`.
    pub fn flip(&mut self, l: usize, i: usize) {
        self.h[l][i] = -self.h[l][i];
    }

    /// The slice-`ℓ` row as `f64`s (the diagonal of `V_ℓ`).
    pub fn row(&self, l: usize) -> Vec<f64> {
        self.h[l].iter().map(|&x| x as f64).collect()
    }

    /// Flattens to a `±1` vector in slice-major order — the array the
    /// paper's Alg. 3 scatters to MPI ranks (fields are cheap to ship;
    /// matrices are rebuilt rank-locally).
    pub fn to_flat(&self) -> Vec<i8> {
        self.h.iter().flat_map(|r| r.iter().copied()).collect()
    }

    /// Rebuilds from a flat slice-major vector.
    ///
    /// # Panics
    /// Panics unless `flat.len() == l·n` and all entries are `±1`.
    pub fn from_flat(l: usize, n: usize, flat: &[i8]) -> Self {
        assert_eq!(flat.len(), l * n, "flat HS field length mismatch");
        assert!(
            flat.iter().all(|&x| x == 1 || x == -1),
            "HS field entries must be ±1"
        );
        HsField {
            h: (0..l)
                .map(|li| flat[li * n..(li + 1) * n].to_vec())
                .collect(),
        }
    }
}

/// Prebuilt slice-independent factors for assembling `B_ℓ^σ` blocks.
///
/// Holds `e^{tΔτK}` and its exact inverse `e^{−tΔτK}`, so that
/// `B = expK·diag(e^{σνh})` and `B⁻¹ = diag(e^{−σνh})·expK⁻¹` are both a
/// single diagonal scaling away — the analytic inverse keeps the wrapping
/// relations and the DQMC wrap `G → B G B⁻¹` cheap and stable.
#[derive(Clone, Debug)]
pub struct BlockBuilder {
    lattice: SquareLattice,
    params: HubbardParams,
    nu: f64,
    exp_k: Matrix,
    exp_k_inv: Matrix,
}

impl BlockBuilder {
    /// Computes the hopping exponentials for the given lattice/parameters.
    pub fn new(lattice: SquareLattice, params: HubbardParams) -> Self {
        let mut k = lattice.adjacency();
        let scale = params.t * params.delta_tau();
        k.scale(scale);
        let exp_k = expm(&k).expect("e^{tΔτK} exists for any finite K");
        k.scale(-1.0);
        let exp_k_inv = expm(&k).expect("e^{-tΔτK} exists for any finite K");
        let nu = params.nu();
        BlockBuilder {
            lattice,
            params,
            nu,
            exp_k,
            exp_k_inv,
        }
    }

    /// The lattice this builder was created for.
    pub fn lattice(&self) -> &SquareLattice {
        &self.lattice
    }

    /// The parameters this builder was created for.
    pub fn params(&self) -> &HubbardParams {
        &self.params
    }

    /// Whether the model is particle–hole symmetric: with no chemical
    /// potential and sublattice signs `Π = diag((−1)^{x+y})`, every field
    /// gives `Π·B↓·Π = (B↑)⁻ᵀ` slice by slice, so `G↓ = Π(I − G↑)ᵀΠ` at
    /// equal time. Holds exactly when both extents are even (the periodic
    /// lattice is then bipartite).
    pub fn particle_hole_symmetric(&self) -> bool {
        self.lattice.nx().is_multiple_of(2) && self.lattice.ny().is_multiple_of(2)
    }

    /// The HS coupling ν.
    pub fn nu(&self) -> f64 {
        self.nu
    }

    /// The dense hopping factor `e^{tΔτK}`.
    pub fn exp_k(&self) -> &Matrix {
        &self.exp_k
    }

    /// Its inverse `e^{−tΔτK}`.
    pub fn exp_k_inv(&self) -> &Matrix {
        &self.exp_k_inv
    }

    /// Builds `B_ℓ^σ = e^{tΔτK}·diag(e^{σν h(ℓ,·)})`.
    pub fn block(&self, field: &HsField, l: usize, spin: Spin) -> Matrix {
        let mut b = self.exp_k.clone();
        let d = field.row(l);
        scale_cols_exp(&mut b, spin.sign() * self.nu, &d);
        b
    }

    /// Builds the exact inverse `B_ℓ^σ⁻¹ = diag(e^{−σν h(ℓ,·)})·e^{−tΔτK}`.
    pub fn block_inverse(&self, field: &HsField, l: usize, spin: Spin) -> Matrix {
        let d = field.row(l);
        let alpha = -spin.sign() * self.nu;
        let mut out = self.exp_k_inv.clone();
        scale_rows_exp(&mut out, alpha, &d);
        out
    }

    /// Builds all `L` blocks for one spin (the input to a p-cyclic matrix).
    pub(crate) fn all_blocks(&self, field: &HsField, spin: Spin) -> Vec<Matrix> {
        (0..field.slices())
            .map(|l| self.block(field, l, spin))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsi_dense::{mul, rel_error, Matrix};
    use rand::SeedableRng;

    fn builder_4x4() -> BlockBuilder {
        BlockBuilder::new(SquareLattice::square(4), HubbardParams::paper_validation(8))
    }

    #[test]
    fn nu_satisfies_cosh_identity() {
        let p = HubbardParams {
            t: 1.0,
            u: 4.0,
            beta: 2.0,
            l: 16,
        };
        let nu = p.nu();
        let want = (p.delta_tau() * p.u / 2.0).exp();
        assert!((nu.cosh() - want).abs() < 1e-14);
        // U = 0 → ν = 0 (free fermions).
        let free = HubbardParams { u: 0.0, ..p };
        assert_eq!(free.nu(), 0.0);
    }

    #[test]
    fn hs_field_roundtrip_and_flip() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(42);
        let mut h = HsField::random(5, 7, &mut rng);
        assert_eq!(h.slices(), 5);
        assert_eq!(h.sites(), 7);
        let flat = h.to_flat();
        let h2 = HsField::from_flat(5, 7, &flat);
        assert_eq!(h, h2);
        let before = h.get(2, 3);
        h.flip(2, 3);
        assert_eq!(h.get(2, 3), -before);
        h.flip(2, 3);
        assert_eq!(h.get(2, 3), before);
        // Ones field is all +1.
        let ones = HsField::ones(2, 2);
        assert!(ones.to_flat().iter().all(|&x| x == 1));
    }

    #[test]
    fn block_times_inverse_is_identity() {
        let b = builder_4x4();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let h = HsField::random(8, 16, &mut rng);
        for spin in Spin::BOTH {
            let blk = b.block(&h, 3, spin);
            let inv = b.block_inverse(&h, 3, spin);
            let mut prod = mul(&blk, &inv);
            prod.add_diag(-1.0);
            assert!(
                prod.max_abs() < 1e-12,
                "B·B⁻¹ ≉ I ({spin:?}): {}",
                prod.max_abs()
            );
        }
    }

    #[test]
    fn block_matches_definition() {
        let b = builder_4x4();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(8);
        let h = HsField::random(8, 16, &mut rng);
        let spin = Spin::Down;
        // Explicit: expK · diag(e^{σν h}).
        let d: Vec<f64> = h
            .row(2)
            .iter()
            .map(|&x| (spin.sign() * b.nu() * x).exp())
            .collect();
        let want = mul(b.exp_k(), &Matrix::diag(&d));
        let got = b.block(&h, 2, spin);
        assert!(rel_error(&got, &want) < 1e-15);
    }

    #[test]
    fn free_fermion_blocks_are_spin_independent() {
        let p = HubbardParams {
            t: 1.0,
            u: 0.0,
            beta: 1.0,
            l: 4,
        };
        let b = BlockBuilder::new(SquareLattice::square(3), p);
        let h = HsField::ones(4, 9);
        let up = b.block(&h, 0, Spin::Up);
        let down = b.block(&h, 0, Spin::Down);
        assert!(rel_error(&up, &down) < 1e-15);
        assert!(rel_error(&up, b.exp_k()) < 1e-15);
    }

    #[test]
    fn exp_k_is_symmetric_positive() {
        let b = builder_4x4();
        let e = b.exp_k();
        assert!(rel_error(e, &e.transpose()) < 1e-13);
        // e^{A} for symmetric A has positive diagonal.
        for i in 0..16 {
            assert!(e[(i, i)] > 0.0);
        }
    }

    #[test]
    fn all_blocks_produces_l_blocks() {
        let b = builder_4x4();
        let h = HsField::ones(8, 16);
        let blocks = b.all_blocks(&h, Spin::Up);
        assert_eq!(blocks.len(), 8);
        // With a uniform field all blocks are identical.
        for blk in &blocks[1..] {
            assert!(rel_error(blk, &blocks[0]) < 1e-15);
        }
    }

    #[test]
    fn spins_differ_for_interacting_system() {
        let b = builder_4x4();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9);
        let h = HsField::random(8, 16, &mut rng);
        let up = b.block(&h, 0, Spin::Up);
        let down = b.block(&h, 0, Spin::Down);
        assert!(rel_error(&up, &down) > 1e-3, "U > 0 must split the spins");
    }
}
