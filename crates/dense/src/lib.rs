//! # fsi-dense — dense linear algebra substrate (mini BLAS/LAPACK)
//!
//! The FSI paper builds on Intel MKL's DGEMM / DGETRF / DGETRI / DGEQRF /
//! DORMQR. Rust's BLAS bindings are thin and tie the build to system
//! libraries, so this crate implements the needed kernel set from scratch
//! (the substitution is documented in DESIGN.md):
//!
//! * column-major [`Matrix`] storage plus [`MatRef`]/[`MatMut`] views with
//!   explicit leading dimension, including the disjoint splits the
//!   parallel kernels hand to pool workers;
//! * level-1/2 kernels ([`axpy`], [`ger`], and the dot, nrm2 and
//!   transposed gemv the factorizations use internally);
//! * [`gemm`] / [`gemm_op`] — cache-blocked, thread-parallel matrix
//!   multiply with transpose variants, the flop workhorse of FSI;
//! * the register-tile micro-kernels (AVX-512 16×4, AVX2 8×4, portable
//!   scalar) and their runtime [`Tier`] dispatch (`FSI_KERNEL` env
//!   override, silent degradation);
//! * [`gemm_batched`], the batched-strided small-matrix engine for the
//!   CLS/multi-driver hot shape (shared operands packed once, no-pack
//!   direct path, store-mode writeback);
//! * [`getrf`] — blocked LU with partial pivoting, solves (including the
//!   right-inverse applications the wrapping stage needs), explicit
//!   inversion and determinants;
//! * [`geqrf`] — recursive-panel Householder QR that builds one compact-WY
//!   pair `(V, T)` per factorization and applies `Q` as three GEMMs, the
//!   engine of BSOFI;
//! * triangular solves and [`invert_upper`];
//! * [`expm`] — Padé-13 scaling-and-squaring matrix exponential for the
//!   Hubbard hopping factor `e^{tΔτK}`;
//! * norms, relative-error metrics and a condition-number probe
//!   ([`rel_error`], [`cond1_estimate`]).
//!
//! The modules are private: the re-exports below are the crate's one
//! public path to each name.
//!
//! Every kernel charges an analytic flop count from
//! [`fsi_runtime::flops::counts`] — the textbook one, except where the
//! kernel deliberately runs dense GEMMs over triangular operands (the QR
//! apply), which is charged as the GEMMs it runs — so harnesses report
//! Gflop/s rates comparable in shape to the paper's MKL numbers.

#![warn(missing_docs)]
#![warn(unreachable_pub)]
// index loops mirror the BLAS/LAPACK algorithms they implement.
#![allow(clippy::needless_range_loop)]

mod batch;
mod blas;
mod cond;
mod error;
mod expm;
mod gemm;
mod kernel;
mod lu;
mod matrix;
mod norms;
mod qr;
mod tri;

pub use batch::{gemm_batched, BatchOperand};
pub use blas::{axpy, ger};
pub use cond::cond1_estimate;
pub use error::{DenseError, Result};
pub use expm::{expm, scale_cols_exp, scale_rows_exp};
pub use gemm::{chain_mul, gemm, gemm_op, mul, mul_par, test_matrix, Op};
pub use kernel::{active_tier, available_tiers, with_tier, Tier};
pub use lu::{getrf, inverse, solve, LuFactor};
pub use matrix::{MatMut, MatRef, Matrix};
pub use norms::{cond1, frobenius, norm1, norm_inf, rel_error};
pub use qr::{geqrf, QrFactor};
pub use tri::invert_upper;
