//! # fsi-dqmc — determinant quantum Monte Carlo on the FSI kernel
//!
//! The end-to-end workload of the paper's §IV–V: a DQMC simulation of the
//! two-dimensional Hubbard model whose Green's-function phase runs on the
//! fast selected inversion algorithm.
//!
//! * [`equal_time_green_stable`] and [`equal_time_green_cached`] —
//!   stabilized equal-time Green's functions via the CLS + BSOFI route
//!   (the paper notes Hirsch's stable low-temperature algorithm is block
//!   cyclic reduction in disguise);
//! * [`Sweeper`] — Metropolis sweeps: determinant ratios from a single
//!   Green's-function diagonal element, O(N²) Sherman–Morrison updates,
//!   similarity wraps between slices, periodic restabilization;
//! * [`meas`] — equal-time observables (density, double occupancy, local
//!   moment, kinetic energy, spin correlations) and the time-dependent
//!   SPXX table computed from FSI's block rows + columns with per-task
//!   local accumulators;
//! * [`Simulation`] — the warmup + measurement loop (Alg. 4) as a value
//!   stepped one measurement at a time, with the per-phase timing
//!   decomposition of Figs. 10–11; [`run`] is its whole-run form;
//! * [`SweepCheckpoint`] — durable checkpoint/restart of a
//!   [`Simulation`]: versioned, checksummed sweep-boundary snapshots from
//!   which a resumed run finishes with bitwise the uninterrupted run's
//!   observables.
//!
//! Apart from [`meas`], the modules are private: the re-exports below are
//! the crate's one public path to each name.

#![warn(missing_docs)]
#![warn(unreachable_pub)]
// index loops mirror the site/slice indexing of the algorithms.
#![allow(clippy::needless_range_loop)]

mod checkpoint;
mod delayed;
pub mod meas;
mod sim;
mod stable;
mod sweep;

pub use checkpoint::SweepCheckpoint;
pub use meas::{
    equal_time, spxx, staggered_structure_factor, uniform_xy_susceptibility, Accumulator,
    EqualTime, SpxxTable,
};
pub use sim::{run, DqmcConfig, DqmcResults, Simulation};
pub use stable::{equal_time_green_cached, equal_time_green_stable};
pub use sweep::{wrap_dense, wrap_factored, RecoveryStats, SweepConfig, SweepStats, Sweeper};
