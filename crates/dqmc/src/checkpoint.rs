//! Durable checkpoint/restart for the DQMC sweep trajectory.
//!
//! Hour-scale runs (the paper's Fig. 9 regime, the large-β targets of
//! Luu et al.) die to OOM kills and node restarts far more often than to
//! numerical faults, and the in-process recovery ladder cannot help a
//! dead process. This module makes process death a resumable event with
//! a hard guarantee: **a run resumed from a checkpoint produces bitwise-
//! identical fields, Green's functions, sign, and measurement bins to an
//! uninterrupted run** — the crash-safety extension of the
//! reproducibility contract that already makes schedules interchangeable.
//!
//! The argument for bitwise equality is structural. At a sweep boundary
//! the sweep engine's state is fully determined by four things: the HS
//! field configuration, the in-force [`SweepConfig`] (recovery rungs 2 and
//! 3 shrink its `c` persistently, and a changed `c` shifts round-off),
//! the accumulated Monte Carlo sign, and the RNG stream position. Every
//! sweep begins with a from-scratch refresh, and warm caches are bitwise
//! equal to cold rebuilds, so a fresh [`Sweeper`] built from the
//! checkpointed field with the checkpointed config — sign and RNG
//! position reinstated — continues exactly as the original would have.
//!
//! [`SweepCheckpoint`] rides the [`fsi_runtime::ckpt`] envelope:
//! versioned, FNV-checksummed, written atomically (tmp + rename), and
//! rotated through two generations. Payload version 2 stores the three
//! [`SweepConfig`] values; the envelope refuses any other version. A
//! torn or corrupt current file is detected on load and falls back to the
//! previous generation (counted and noted on the flight recorder); when
//! both generations are bad the caller starts from scratch.

use std::path::Path;

use fsi_pcyclic::{BlockBuilder, HsField};
use fsi_runtime::ckpt::{self, CkptError, Generation, Reader, Writer};
use fsi_runtime::health::FsiResult;
use fsi_selinv::Parallelism;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::sweep::{SweepConfig, Sweeper};

/// Payload version of [`SweepCheckpoint`]'s serialization.
const SWEEP_CKPT_VERSION: u32 = 2;

/// Everything needed to resume a sweep trajectory bitwise-exactly from a
/// sweep boundary (see the module docs for why this set is sufficient).
#[derive(Clone, Debug, PartialEq)]
pub struct SweepCheckpoint {
    /// Sweeps completed so far.
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
    /// Accumulated per-sweep measurement bins `(sweep, quantities)`.
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
        for (sweep, quantities) in &self.bins {
            w.put_u64(*sweep);
            w.put_f64s(quantities);
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
            let s = r.take_u64()?;
            bins.push((s, r.take_f64s()?));
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

/// A checkpointable DQMC sweep driver: the warmup/measurement loop of
/// Alg. 4 reduced to its trajectory core (sweep + per-sweep bin), with
/// [`DurableSweeper::checkpoint`]/[`DurableSweeper::resume`] as the
/// crash-safety hooks. The service tier and the crash-recovery tests in
/// `tests/prop_recovery.rs` both drive this type.
pub struct DurableSweeper<'a> {
    sweeper: Sweeper<'a>,
    rng: ChaCha8Rng,
    seed: u64,
    sweep: u64,
    bins: Vec<(u64, Vec<f64>)>,
}

impl<'a> DurableSweeper<'a> {
    /// Starts a fresh trajectory: RNG seeded from `seed`, initial field
    /// drawn from it (the same initialization as [`crate::sim::run`]).
    ///
    /// # Errors
    /// The initial refresh's unrecovered health failures.
    pub fn new(builder: &'a BlockBuilder, cfg: SweepConfig, seed: u64) -> FsiResult<Self> {
        let l = builder.params().l;
        let n = builder.lattice().n_sites();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let field = HsField::random(l, n, &mut rng);
        let sweeper = Sweeper::new(builder, field, cfg)?;
        Ok(DurableSweeper {
            sweeper,
            rng,
            seed,
            sweep: 0,
            bins: Vec::new(),
        })
    }

    /// Resumes from a checkpoint: rebuilds the sweeper from the stored
    /// field and in-force config, reinstates the sign, and fast-forwards
    /// a fresh seed-`seed` RNG to the stored stream position.
    ///
    /// # Errors
    /// Refresh failures, as in [`DurableSweeper::new`].
    ///
    /// # Panics
    /// When the checkpoint's `(L, N)` shape does not match `builder` —
    /// resuming against the wrong lattice is operator error, not a
    /// recoverable condition.
    pub fn resume(builder: &'a BlockBuilder, ckpt: SweepCheckpoint, seed: u64) -> FsiResult<Self> {
        assert_eq!(ckpt.l, builder.params().l, "checkpoint L mismatch");
        assert_eq!(ckpt.n, builder.lattice().n_sites(), "checkpoint N mismatch");
        let field = HsField::from_flat(ckpt.l, ckpt.n, &ckpt.field);
        let mut sweeper = Sweeper::new(builder, field, ckpt.cfg)?;
        sweeper.restore_sign(ckpt.sign);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        rng.set_word_pos(ckpt.rng_word_pos);
        Ok(DurableSweeper {
            sweeper,
            rng,
            seed,
            sweep: ckpt.sweep,
            bins: ckpt.bins,
        })
    }

    /// Sweeps completed so far.
    pub fn sweeps_done(&self) -> u64 {
        self.sweep
    }

    /// The accumulated `(sweep, quantities)` bins.
    pub fn bins(&self) -> &[(u64, Vec<f64>)] {
        &self.bins
    }

    /// The underlying sweep engine (fields, Green's functions, sign).
    pub fn sweeper(&self) -> &Sweeper<'a> {
        &self.sweeper
    }

    /// Runs one sweep and records its measurement bin: the per-spin
    /// Green's-function traces plus the sign — cheap, slice-local, and
    /// bitwise-deterministic, which is what the crash drill compares.
    ///
    /// # Errors
    /// Unrecovered health failures from the sweep's recovery ladder.
    pub fn sweep_once(&mut self, par: Parallelism<'_>) -> FsiResult<()> {
        self.sweeper.sweep(&mut self.rng, par)?;
        let mut quantities = Vec::with_capacity(3);
        for spin in fsi_pcyclic::Spin::BOTH {
            let g = self.sweeper.green(spin);
            let mut tr = 0.0;
            for i in 0..g.rows() {
                tr += g[(i, i)];
            }
            quantities.push(tr);
        }
        quantities.push(self.sweeper.sign());
        self.bins.push((self.sweep, quantities));
        self.sweep += 1;
        Ok(())
    }

    /// Captures the resumable state at the current sweep boundary.
    pub fn checkpoint(&self) -> SweepCheckpoint {
        let field = self.sweeper.field();
        SweepCheckpoint {
            sweep: self.sweep,
            l: field.slices(),
            n: field.sites(),
            field: field.to_flat(),
            rng_word_pos: self.rng.word_pos(),
            sign: self.sweeper.sign(),
            cfg: *self.sweeper.config(),
            bins: self.bins.clone(),
        }
    }

    /// Runs until `total` sweeps are done, checkpointing to `path` every
    /// `every` sweeps (and once at the end). With `path = None` this is
    /// a plain uninterrupted run — the drill's reference arm.
    ///
    /// # Errors
    /// Unrecovered sweep failures.
    ///
    /// # Panics
    /// When a requested checkpoint cannot be written — silently losing
    /// durability would void the guarantee the caller asked for.
    pub fn run_to(
        &mut self,
        total: u64,
        par: Parallelism<'_>,
        path: Option<&Path>,
        every: u64,
    ) -> FsiResult<()> {
        while self.sweep < total {
            self.sweep_once(par)?;
            if let Some(path) = path {
                if self.sweep.is_multiple_of(every.max(1)) || self.sweep == total {
                    self.checkpoint().save(path).expect("checkpoint write");
                }
            }
        }
        Ok(())
    }

    /// The trajectory seed (matches what [`DurableSweeper::resume`]
    /// needs alongside the checkpoint).
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsi_pcyclic::{HubbardParams, SquareLattice};

    fn builder() -> BlockBuilder {
        BlockBuilder::new(SquareLattice::square(2), HubbardParams::paper_validation(8))
    }

    fn cfg() -> SweepConfig {
        SweepConfig {
            c: 4,
            stabilize_every: 4,
            ..SweepConfig::default()
        }
    }

    #[test]
    fn checkpoint_encode_decode_round_trip() {
        let b = builder();
        let mut d = DurableSweeper::new(&b, cfg(), 7).expect("healthy");
        d.run_to(3, Parallelism::Serial, None, 1).expect("healthy");
        let ck = d.checkpoint();
        let decoded = SweepCheckpoint::decode(&ck.encode()).expect("round trip");
        assert_eq!(decoded, ck);
    }

    #[test]
    fn version_1_payload_is_refused() {
        let dir = std::env::temp_dir().join(format!("fsi-dqmc-ckpt-v1-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("run.ckpt");
        let b = builder();
        let d = DurableSweeper::new(&b, cfg(), 3).expect("healthy");
        ckpt::store(&path, 1, &d.checkpoint().encode()).expect("store");
        let err = SweepCheckpoint::load(&path).expect_err("v1 must not load");
        let _ = std::fs::remove_dir_all(&dir);
        assert!(
            matches!(
                err,
                CkptError::BadVersion {
                    found: 1,
                    expected: SWEEP_CKPT_VERSION
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn resume_is_bitwise_equal_to_uninterrupted() {
        let b = builder();
        let total = 6u64;

        // Reference: uninterrupted trajectory.
        let mut reference = DurableSweeper::new(&b, cfg(), 42).expect("healthy");
        reference
            .run_to(total, Parallelism::Serial, None, 1)
            .expect("healthy");

        // Interrupted at every possible boundary: checkpoint, drop,
        // resume, finish — bins, field, sign, and G must match bitwise.
        for stop in 1..total {
            let mut first = DurableSweeper::new(&b, cfg(), 42).expect("healthy");
            first
                .run_to(stop, Parallelism::Serial, None, 1)
                .expect("healthy");
            let ck = first.checkpoint();
            drop(first);
            let mut resumed = DurableSweeper::resume(&b, ck, 42).expect("healthy resume");
            resumed
                .run_to(total, Parallelism::Serial, None, 1)
                .expect("healthy");
            assert_eq!(resumed.bins(), reference.bins(), "bins differ, stop={stop}");
            assert_eq!(
                resumed.sweeper().field(),
                reference.sweeper().field(),
                "fields differ, stop={stop}"
            );
            assert_eq!(
                resumed.sweeper().sign().to_bits(),
                reference.sweeper().sign().to_bits(),
                "sign differs, stop={stop}"
            );
            for spin in fsi_pcyclic::Spin::BOTH {
                assert_eq!(
                    resumed.sweeper().green(spin).as_slice(),
                    reference.sweeper().green(spin).as_slice(),
                    "G^{spin:?} differs, stop={stop}"
                );
            }
        }
    }

    #[test]
    fn torn_file_falls_back_to_previous_generation() {
        let dir = std::env::temp_dir().join(format!("fsi-dqmc-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt");

        let b = builder();
        let mut d = DurableSweeper::new(&b, cfg(), 5).expect("healthy");
        d.run_to(2, Parallelism::Serial, Some(&path), 1)
            .expect("healthy");
        let gen1 = SweepCheckpoint::load(&path).expect("clean load").0;
        assert_eq!(gen1.sweep, 2);

        // Tear the current generation mid-payload; the previous
        // generation (sweep 1) must serve the load.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let (ck, generation) = SweepCheckpoint::load(&path).expect("fallback");
        assert_eq!(generation, Generation::Previous);
        assert_eq!(ck.sweep, 1);

        // Resume from the fallback still reaches the reference bitwise.
        let mut resumed = DurableSweeper::resume(&b, ck, 5).expect("healthy");
        resumed
            .run_to(4, Parallelism::Serial, None, 1)
            .expect("healthy");
        let mut reference = DurableSweeper::new(&b, cfg(), 5).expect("healthy");
        reference
            .run_to(4, Parallelism::Serial, None, 1)
            .expect("healthy");
        assert_eq!(resumed.bins(), reference.bins());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
