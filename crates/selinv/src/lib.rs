//! # fsi-selinv — the Fast Selected Inversion algorithm
//!
//! The paper's primary contribution: computing selected blocks of the
//! inverse of a block p-cyclic matrix (a Green's function) in
//! `O(b²c·N³)` flops instead of the explicit form's `O(b³c²·N³)` or the
//! dense baseline's `O((NL)³)`.
//!
//! The pipeline (Alg. 1), one stage per entry point:
//!
//! * [`cls()`] — factor-of-`c` block cyclic reduction with a random shift
//!   `q`: `L` blocks collapse into `b = L/c` cluster products;
//! * [`ClusterCache`] — incremental clustering: dirty-slice tracking reuses
//!   the cluster products untouched since the previous refresh;
//! * [`bsofi()`] and [`bsofi_selected`] — inverse of the reduced matrix by
//!   the block structured orthogonal factorization of
//!   Gogolenko–Bai–Scalettar ([`StructuredQr`]), every panel transform
//!   applied as compact-WY GEMMs, with a pattern-aware selected-assembly
//!   path that skips the dense materialization for diagonal requests;
//! * [`wrap`](mod@wrap) — the reduced inverse's blocks are exact blocks of
//!   the original Green's function (`Ḡ(k₀,ℓ₀) = G(ck₀+o, cℓ₀+o)`); the
//!   adjacency relations (4)–(7) grow the selection from those seeds, a
//!   line of seeds per batched product against `B_k` or a cached `B_k⁻¹`
//!   ([`BlockFactors`]);
//! * [`fsi`](mod@fsi) — the driver tying the stages together
//!   ([`fsi_with_q`]), with the paper's two single-socket execution styles
//!   (coarse-grained "OpenMP" vs fine-grained "MKL") selectable per run
//!   ([`Parallelism`]);
//! * [`Pattern`], [`Selection`] and [`SelectedInverse`] — the four
//!   selection shapes S1–S4 and the sparse selected-inverse container;
//! * [`baselines`] — full LU inversion and the explicit expression, for
//!   validation and the complexity table;
//! * [`run_multi`] — the hybrid ranks×threads application to many Green's
//!   functions (Alg. 3), plus the Edison node-memory model of Fig. 9
//!   ([`MemoryModel`]);
//! * [`fsi_flops`] and its siblings — the closed-form complexity formulas
//!   of §II-C;
//! * [`auto_cluster_size`] — the largest stable `c` for a target accuracy.
//!
//! Apart from [`baselines`], [`fsi`](mod@fsi) and [`wrap`](mod@wrap), the
//! modules are private: the re-exports below are the crate's one public
//! path to each name.

#![deny(missing_docs)]
#![warn(unreachable_pub)]

pub mod baselines;
mod bsofi;
mod cache;
mod cls;
mod flops;
pub mod fsi;
mod multi;
mod patterns;
mod stability;
pub mod wrap;

pub use bsofi::{bsofi, bsofi_flops, bsofi_selected, StructuredQr};
pub use cache::ClusterCache;
pub use cls::{cls, cls_flops, cls_incremental_flops, Clustered};
pub use flops::{
    bsofi_inverse_flops, bsofi_selected_flops, explicit_flops, fsi_flops, fsi_flops_exact,
    predicted_speedup, structured_qr_flops,
};
pub use fsi::{fsi_with_q, FsiOutput, Parallelism, ReducedInverse};
pub use multi::{
    generate_fields, per_rank_bytes, run_multi, trace_measure, MatrixTask, MeasureFn, MemoryModel,
    MultiConfig, MultiResult,
};
pub use patterns::{Pattern, SelectedInverse, SelectedPattern, Selection};
pub use stability::{auto_cluster_size, max_stable_cluster};
pub use wrap::{
    wrap, wrap_all_diagonals, wrap_all_diagonals_selected, wrap_selected, BlockFactors,
};
