//! # fsi-selinv — the Fast Selected Inversion algorithm
//!
//! The paper's primary contribution: computing selected blocks of the
//! inverse of a block p-cyclic matrix (a Green's function) in
//! `O(b²c·N³)` flops instead of the explicit form's `O(b³c²·N³)` or the
//! dense baseline's `O((NL)³)`.
//!
//! The pipeline (Alg. 1), one module per stage:
//!
//! * [`cls`](mod@cls) — factor-of-`c` block cyclic reduction with a random shift
//!   `q`: `L` blocks collapse into `b = L/c` cluster products;
//! * [`cache`] — incremental clustering: dirty-slice tracking reuses the
//!   cluster products untouched since the previous refresh;
//! * [`bsofi`](mod@bsofi) — inverse of the reduced matrix by the block structured
//!   orthogonal factorization of Gogolenko–Bai–Scalettar, every panel
//!   transform applied as compact-WY GEMMs, with a pattern-aware
//!   selected-assembly path that skips the dense materialization for
//!   diagonal requests;
//! * [`wrap`](mod@wrap) — the reduced inverse's blocks are exact blocks of the
//!   original Green's function (`Ḡ(k₀,ℓ₀) = G(ck₀+o, cℓ₀+o)`); the
//!   adjacency relations (4)–(7) grow the selection from those seeds, a
//!   line of seeds per batched product against `B_k` or a cached `B_k⁻¹`;
//! * [`fsi`](mod@fsi) — the driver tying the stages together, with the paper's two
//!   single-socket execution styles (coarse-grained "OpenMP" vs
//!   fine-grained "MKL") selectable per run;
//! * [`patterns`] — the four selection shapes S1–S4 and the sparse
//!   selected-inverse container;
//! * [`baselines`] — full LU inversion, the explicit expression, and
//!   unreduced BSOFI, for validation and the complexity table;
//! * [`multi`] — the hybrid ranks×threads application to many Green's
//!   functions (Alg. 3) plus the Edison node-memory model of Fig. 9;
//! * [`flops`] — the closed-form complexity formulas of §II-C;
//! * [`tridiag`] — the paper's stated future work: the FSI recipe
//!   (structured factorization + seeds + wrapping recurrences) applied to
//!   block tridiagonal matrices.

#![deny(missing_docs)]

pub mod baselines;
pub mod bsofi;
pub mod cache;
pub mod cls;
pub mod flops;
pub mod fsi;
pub mod multi;
pub mod patterns;
pub mod stability;
pub mod tridiag;
pub mod wrap;

pub use bsofi::{bsofi, bsofi_selected, StructuredQr};
pub use cache::ClusterCache;
pub use cls::{cls, cls_flops, cls_incremental_flops, Clustered};
pub use flops::{bsofi_selected_flops, structured_qr_flops};
pub use fsi::{fsi, fsi_with_q, FsiOutput, Parallelism, ReducedInverse};
pub use multi::{
    generate_fields, per_rank_bytes, run_multi, shift_for, trace_measure, MatrixTask, MemoryModel,
    MultiConfig, MultiResult,
};
pub use patterns::{Pattern, SelectedInverse, SelectedPattern, Selection};
pub use stability::{auto_cluster_size, growth_rate, max_stable_cluster};
pub use tridiag::{random_tridiagonal, BlockTridiagonal, TridiagFactor};
pub use wrap::{
    wrap, wrap_all_diagonals, wrap_all_diagonals_selected, wrap_selected, BlockFactors,
};
