//! # fsi-dqmc — determinant quantum Monte Carlo on the FSI kernel
//!
//! The end-to-end workload of the paper's §IV–V: a DQMC simulation of the
//! two-dimensional Hubbard model whose Green's-function phase runs on the
//! fast selected inversion algorithm.
//!
//! * [`stable`] — stabilized equal-time Green's functions via the
//!   CLS + BSOFI route (the paper notes Hirsch's stable low-temperature
//!   algorithm is block cyclic reduction in disguise), plus the naive
//!   product baseline for the stabilization ablation;
//! * [`sweep`] — Metropolis sweeps: determinant ratios from a single
//!   Green's-function diagonal element, O(N²) Sherman–Morrison updates,
//!   similarity wraps between slices, periodic restabilization;
//! * [`meas`] — equal-time observables (density, double occupancy, local
//!   moment, kinetic energy, spin correlations) and the time-dependent
//!   SPXX table computed from FSI's block rows + columns with per-task
//!   local accumulators;
//! * [`sim`] — the full warmup + measurement loop (Alg. 4) with the
//!   per-phase timing decomposition of Figs. 10–11;
//! * [`checkpoint`] — durable checkpoint/restart: versioned, checksummed
//!   sweep-boundary snapshots with a bitwise-identical-resume guarantee.

#![warn(missing_docs)]
// index loops mirror the site/slice indexing of the algorithms.
#![allow(clippy::needless_range_loop)]

pub mod checkpoint;
pub mod delayed;
pub mod meas;
pub mod sim;
pub mod stable;
pub mod sweep;

pub use checkpoint::{DurableSweeper, SweepCheckpoint, SWEEP_CKPT_VERSION};
pub use delayed::DelayedUpdates;
pub use meas::{
    equal_time, spin_zz_by_displacement, spxx, staggered_structure_factor, structure_factor_q,
    uniform_xy_susceptibility, Accumulator, EqualTime, SpxxTable,
};
pub use sim::{run, DqmcConfig, DqmcResults};
pub use stable::{equal_time_green_cached, equal_time_green_naive, equal_time_green_stable};
pub use sweep::{wrap_dense, wrap_factored, RecoveryStats, SweepConfig, SweepStats, Sweeper};
