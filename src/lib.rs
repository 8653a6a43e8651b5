//! # fsi — fast selected inversion for Green's function calculation in DQMC
//!
//! Umbrella crate for the workspace reproducing Jiang, Bai & Scalettar,
//! *"A Fast Selected Inversion Algorithm for Green's Function Calculation
//! in Many-body Quantum Monte Carlo Simulations"*, IEEE IPDPS 2016.
//!
//! Re-exports the six member crates:
//!
//! * [`runtime`] — thread pool (OpenMP analog), per-rank work-stealing
//!   deques (MPI analog), flop accounting, timers, scheduling simulator;
//! * [`dense`] — from-scratch mini BLAS/LAPACK (GEMM, LU, Householder QR,
//!   triangular kernels, matrix exponential);
//! * [`pcyclic`] — block p-cyclic matrices, lattices, Hubbard-model block
//!   generation, the explicit Green's-function expressions;
//! * [`selinv`] — the paper's contribution: the FSI algorithm (CLS +
//!   BSOFI + wrapping), selection patterns, baselines, the hybrid
//!   multi-matrix driver and the Fig. 9 memory model;
//! * [`dqmc`] — a determinant quantum Monte Carlo engine for the Hubbard
//!   model running its Green's-function phase on FSI;
//! * [`service`] — Green's-function-as-a-service: a work-stealing
//!   multi-tenant job queue over the rank pool, with admission control,
//!   per-tenant metering, and per-job degradation.
//!
//! ## Quickstart
//!
//! ```
//! use fsi::pcyclic::{BlockBuilder, HsField, HubbardParams, SquareLattice, Spin};
//! use fsi::selinv::{fsi_with_q, Parallelism, Pattern, Selection};
//!
//! // A 4×4 Hubbard lattice, L = 8 imaginary-time slices.
//! let lattice = SquareLattice::square(4);
//! let params = HubbardParams::paper_validation(8);
//! let builder = BlockBuilder::new(lattice, params);
//! let field = HsField::ones(8, 16);
//! let m = fsi::pcyclic::hubbard_pcyclic(&builder, &field, Spin::Up);
//!
//! // Select b = L/c = 2 block columns of the Green's function G = M⁻¹.
//! let selection = Selection::new(Pattern::Columns, 4, 1);
//! let out = fsi_with_q(Parallelism::Serial, &m, &selection).expect("healthy");
//! assert_eq!(out.selected.len(), 2 * 8);
//! ```
pub use fsi_dense as dense;
pub use fsi_dqmc as dqmc;
pub use fsi_pcyclic as pcyclic;
pub use fsi_runtime as runtime;
pub use fsi_selinv as selinv;
pub use fsi_service as service;
