//! Durable checkpoint/restart for a DQMC run ([`crate::Simulation`]).
//!
//! Hour-scale runs (the paper's Fig. 9 regime, the large-β targets of
//! Luu et al.) die to OOM kills and node restarts far more often than to
//! numerical faults, and the in-process recovery ladder cannot help a
//! dead process. This module makes process death a resumable event with
//! a hard guarantee: **a run resumed from a checkpoint finishes with
//! bitwise the [`crate::DqmcResults`] observables of an uninterrupted
//! run** — the crash-safety extension of the reproducibility contract that
//! already makes schedules interchangeable.
//!
//! The argument for bitwise equality is structural. At a sweep boundary
//! the sweep engine's state is fully determined by four things: the HS
//! field configuration, the in-force [`SweepConfig`] (recovery rungs 2 and
//! 3 shrink its `c` persistently, and a changed `c` shifts round-off),
//! the accumulated Monte Carlo sign, and the RNG stream position. Every
//! sweep begins with a from-scratch refresh, and warm caches are bitwise
//! equal to cold rebuilds, so a fresh [`crate::Sweeper`] built from the
//! checkpointed field with the checkpointed config — sign and RNG
//! position reinstated — continues exactly as the original would have.
//! The Green's-function phase depends on the field alone, and the
//! observables are restored exactly from their accumulated state.
//!
//! [`SweepCheckpoint`] rides the [`fsi_runtime::ckpt`] envelope:
//! versioned, FNV-checksummed, written atomically (tmp + rename), and
//! rotated through two generations. Payload version 3 stores the three
//! [`SweepConfig`] values and the observables (layout in
//! [`SweepCheckpoint::bins`]); the envelope refuses any other version. A
//! torn or corrupt current file is detected on load and falls back to the
//! previous generation (counted and noted on the flight recorder); when
//! both generations are bad the caller starts from scratch.

use std::path::Path;

use fsi_runtime::ckpt::{self, CkptError, Generation, Reader, Writer};

use crate::meas::{Accumulator, SpxxTable};
use crate::sim::DqmcResults;
use crate::sweep::SweepConfig;

/// Payload version of [`SweepCheckpoint`]'s serialization.
const SWEEP_CKPT_VERSION: u32 = 3;

/// Everything needed to resume a run bitwise-exactly from a sweep
/// boundary (see the module docs for why this set is sufficient).
#[derive(Clone, Debug, PartialEq)]
pub struct SweepCheckpoint {
    /// Sweeps completed so far, warm-up and measurement alike.
    pub sweep: u64,
    /// Time slices `L` (shape check on resume).
    pub l: usize,
    /// Lattice sites `N` (shape check on resume).
    pub n: usize,
    /// The HS field configuration at the boundary, flattened slice-major.
    pub field: Vec<i8>,
    /// ChaCha8 stream position (32-bit words consumed) of the trajectory
    /// RNG.
    pub rng_word_pos: u64,
    /// The accumulated Monte Carlo sign.
    pub sign: f64,
    /// The sweep configuration *in force* — including a cluster size the
    /// recovery ladder shrank.
    pub cfg: SweepConfig,
    /// The accumulated observables, a fixed-size record whatever the run
    /// length: first `(steps, [])`, the measurement steps done; then
    /// `(n, [mean, m2])` for each [`Accumulator`] of
    /// [`crate::DqmcResults`] in field order; then, once a step has run,
    /// `(count, row)` for each SPXX row `τ` of the running sum.
    pub bins: Vec<(u64, Vec<f64>)>,
}

impl SweepCheckpoint {
    /// Serializes to envelope-ready payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u64(self.sweep);
        w.put_u64(self.l as u64);
        w.put_u64(self.n as u64);
        w.put_i8s(&self.field);
        w.put_u64(self.rng_word_pos);
        w.put_f64(self.sign);
        w.put_u64(self.cfg.c as u64);
        w.put_u64(self.cfg.stabilize_every as u64);
        w.put_u64(self.cfg.delay as u64);
        w.put_u64(self.bins.len() as u64);
        for (key, values) in &self.bins {
            w.put_u64(*key);
            w.put_f64s(values);
        }
        w.into_bytes()
    }

    /// Deserializes what [`SweepCheckpoint::encode`] wrote.
    ///
    /// # Errors
    /// [`CkptError::Malformed`] on truncation, trailing garbage, or
    /// structurally impossible values.
    pub fn decode(payload: &[u8]) -> Result<Self, CkptError> {
        let mut r = Reader::new(payload);
        let sweep = r.take_u64()?;
        let l = r.take_u64()? as usize;
        let n = r.take_u64()? as usize;
        let field = r.take_i8s()?;
        if field.len() != l * n {
            return Err(CkptError::Malformed("field length != L*N"));
        }
        if !field.iter().all(|&x| x == 1 || x == -1) {
            return Err(CkptError::Malformed("field entries must be ±1"));
        }
        let rng_word_pos = r.take_u64()?;
        let sign = r.take_f64()?;
        let c = r.take_u64()? as usize;
        if c == 0 || (l > 0 && !l.is_multiple_of(c)) {
            return Err(CkptError::Malformed("cluster size must divide L"));
        }
        let cfg = SweepConfig {
            c,
            stabilize_every: r.take_u64()? as usize,
            delay: r.take_u64()? as usize,
        };
        let n_bins = r.take_u64()? as usize;
        let mut bins = Vec::with_capacity(n_bins.min(1 << 20));
        for _ in 0..n_bins {
            let key = r.take_u64()?;
            bins.push((key, r.take_f64s()?));
        }
        if !r.is_empty() {
            return Err(CkptError::Malformed("trailing bytes after bins"));
        }
        Ok(SweepCheckpoint {
            sweep,
            l,
            n,
            field,
            rng_word_pos,
            sign,
            cfg,
            bins,
        })
    }

    /// Seals and stores at `path` atomically with two-generation
    /// rotation ([`fsi_runtime::ckpt::store`]). Returns the bytes
    /// written.
    ///
    /// # Errors
    /// Filesystem errors from the rotation or write.
    pub fn save(&self, path: &Path) -> std::io::Result<u64> {
        ckpt::store(path, SWEEP_CKPT_VERSION, &self.encode())
    }

    /// Loads from `path`, falling back to the previous generation when
    /// the current one is torn or corrupt.
    ///
    /// # Errors
    /// When neither generation yields a valid checkpoint (including the
    /// nothing-on-disk case, which callers treat as "start from
    /// scratch").
    pub fn load(path: &Path) -> Result<(Self, Generation), CkptError> {
        let (payload, generation) = ckpt::load(path, SWEEP_CKPT_VERSION)?;
        Ok((SweepCheckpoint::decode(&payload)?, generation))
    }
}

/// The accumulators of `r` in field order — the order of the checkpoint
/// layout.
fn accumulators(r: &DqmcResults) -> [&Accumulator; 8] {
    [
        &r.density,
        &r.double_occupancy,
        &r.moment,
        &r.kinetic,
        &r.avg_sign,
        &r.acceptance,
        &r.structure_factor,
        &r.susceptibility,
    ]
}

/// `steps` and the observables `r` as [`SweepCheckpoint::bins`].
pub(crate) fn observables_to_bins(steps: u64, r: &DqmcResults) -> Vec<(u64, Vec<f64>)> {
    let mut bins = vec![(steps, Vec::new())];
    for acc in accumulators(r) {
        let (n, mean, m2) = acc.parts();
        bins.push((n, vec![mean, m2]));
    }
    if let Some(t) = &r.spxx {
        bins.extend((0..t.l()).map(|tau| (t.count(tau) as u64, t.row(tau).to_vec())));
    }
    bins
}

/// Inverts [`observables_to_bins`]; `None` when `bins` has another layout.
/// The profile starts empty: wall times are not checkpointed.
pub(crate) fn observables_from_bins(bins: &[(u64, Vec<f64>)]) -> Option<(u64, DqmcResults)> {
    let ((steps, head), rest) = bins.split_first()?;
    if !head.is_empty() || rest.len() < 8 {
        return None;
    }
    let (accs, rows) = rest.split_at(8);
    let mut accs = accs.iter().map(|(n, v)| match v[..] {
        [mean, m2] => Some(Accumulator::from_parts(*n, mean, m2)),
        _ => None,
    });
    let mut next = || accs.next().flatten();
    let mut results = DqmcResults {
        density: next()?,
        double_occupancy: next()?,
        moment: next()?,
        kinetic: next()?,
        avg_sign: next()?,
        acceptance: next()?,
        structure_factor: next()?,
        susceptibility: next()?,
        ..DqmcResults::default()
    };
    if let Some((_, first)) = rows.first() {
        let dmax = first.len();
        if rows.iter().any(|(_, row)| row.len() != dmax) {
            return None;
        }
        let data = rows
            .iter()
            .flat_map(|(_, row)| row.iter().copied())
            .collect();
        let counts = rows.iter().map(|&(count, _)| count as usize).collect();
        results.spxx = Some(SpxxTable::from_parts(rows.len(), dmax, data, counts));
    }
    Some((*steps, results))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DqmcConfig, Simulation};
    use fsi_pcyclic::{BlockBuilder, SquareLattice};
    use fsi_selinv::Parallelism;

    #[test]
    fn checkpoint_encode_decode_round_trip() {
        let cfg = DqmcConfig::small();
        let b = BlockBuilder::new(SquareLattice::new(cfg.nx, cfg.ny), cfg.params());
        let mut sim = Simulation::new(&cfg, &b).expect("healthy");
        sim.warmup(Parallelism::Serial).expect("healthy");
        sim.step(Parallelism::Serial).expect("healthy");
        let ck = sim.checkpoint();
        assert_eq!(
            ck.bins.len(),
            1 + 8 + cfg.l,
            "steps, accumulators, SPXX rows"
        );
        let decoded = SweepCheckpoint::decode(&ck.encode()).expect("round trip");
        assert_eq!(decoded, ck);
    }

    /// Version 2 is the layout whose `bins` held one stand-in bin per
    /// sweep; its payloads mean something else now and must not load.
    #[test]
    fn version_2_payload_is_refused() {
        let dir = std::env::temp_dir().join(format!("fsi-dqmc-ckpt-v2-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("run.ckpt");
        let cfg = DqmcConfig::small();
        let b = BlockBuilder::new(SquareLattice::new(cfg.nx, cfg.ny), cfg.params());
        let sim = Simulation::new(&cfg, &b).expect("healthy");
        ckpt::store(&path, 2, &sim.checkpoint().encode()).expect("store");
        let err = SweepCheckpoint::load(&path).expect_err("v2 must not load");
        let _ = std::fs::remove_dir_all(&dir);
        assert!(
            matches!(
                err,
                CkptError::BadVersion {
                    found: 2,
                    expected: 3
                }
            ),
            "{err}"
        );
    }
}
