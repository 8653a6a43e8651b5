//! The service's durable state: a write-ahead job journal plus per-job
//! checkpoints, both living under the state directory (`FSI_STATE_DIR`).
//!
//! Layout:
//!
//! ```text
//! <state_dir>/
//!   journal.wal          append-only job lifecycle log (text lines)
//!   jobs/<id>.ckpt       latest per-job checkpoint (sealed envelope)
//!   jobs/<id>.ckpt.prev  previous generation (torn-write fallback)
//! ```
//!
//! The journal is write-ahead: a job's `S` (submitted) record is
//! appended — and flushed — *before* any sweep of it is enqueued, and
//! its terminal record (`F` finished, `C` cancelled) is appended before
//! the `Finished` event is emitted. Every line carries an FNV-1a
//! checksum of its body; replay stops at the first line that fails the
//! checksum or does not parse, which is exactly the torn tail a crash
//! mid-append leaves. A job with an `S` record and no terminal record
//! survived the crash and is re-admitted on recovery.
//!
//! Checkpoints ride the [`fsi_runtime::ckpt`] envelope (versioned,
//! checksummed, atomic tmp+rename, two-generation rotation): a corrupt
//! or torn current generation falls back to the previous one, and when
//! both are bad the job reruns from scratch — always safe, because every
//! sweep's result is a pure function of `(seed, sweep)`.

use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use fsi_runtime::ckpt::{self, CkptError, Generation, Reader, Writer};
use fsi_runtime::metrics::{flight, LazyCounter};
use fsi_selinv::Pattern;

use crate::job::JobSpec;

static CKPT_WRITES: LazyCounter = LazyCounter::new("service.checkpoint.writes");
static CKPT_BYTES: LazyCounter = LazyCounter::new("service.checkpoint.bytes");
static CKPT_NS: LazyCounter = LazyCounter::new("service.checkpoint.ns");

/// Payload version of the per-job checkpoint.
pub(crate) const JOB_CKPT_VERSION: u32 = 1;

/// The resumable state of one job: the ladder/retry position plus every
/// completed bin. Fields not stored here (the HS fields, the builder)
/// are deterministic recomputations from the spec.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct JobCheckpoint {
    /// The cluster size the job currently runs with.
    pub c_now: usize,
    /// Recovery-ladder rungs descended so far.
    pub degradations: u32,
    /// Full-task retries consumed so far.
    pub retries: u32,
    /// Completed `(sweep, quantities)` bins.
    pub bins: Vec<(usize, Vec<f64>)>,
}

impl JobCheckpoint {
    fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u64(self.c_now as u64);
        w.put_u32(self.degradations);
        w.put_u32(self.retries);
        w.put_u64(self.bins.len() as u64);
        for (sweep, quantities) in &self.bins {
            w.put_u64(*sweep as u64);
            w.put_f64s(quantities);
        }
        w.into_bytes()
    }

    fn decode(payload: &[u8]) -> Result<Self, CkptError> {
        let mut r = Reader::new(payload);
        let c_now = r.take_u64()? as usize;
        if c_now == 0 {
            return Err(CkptError::Malformed("c_now must be positive"));
        }
        let degradations = r.take_u32()?;
        let retries = r.take_u32()?;
        let n = r.take_u64()? as usize;
        let mut bins = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            let sweep = r.take_u64()? as usize;
            bins.push((sweep, r.take_f64s()?));
        }
        if !r.is_empty() {
            return Err(CkptError::Malformed("trailing bytes after bins"));
        }
        Ok(JobCheckpoint {
            c_now,
            degradations,
            retries,
            bins,
        })
    }
}

fn pattern_index(p: Pattern) -> usize {
    match p {
        Pattern::Diagonal => 0,
        Pattern::SubDiagonal => 1,
        Pattern::Columns => 2,
        Pattern::Rows => 3,
    }
}

fn hex_encode(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

fn hex_decode(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).ok())
        .collect()
}

/// What journal replay reconstructs: the jobs that survived the crash
/// (submitted, no terminal record), in submission order, plus the next
/// job id to hand out.
pub(crate) struct Replay {
    /// `(id, spec)` of every surviving job.
    pub jobs: Vec<(u64, JobSpec)>,
    /// One past the highest id ever journaled.
    pub next_id: u64,
}

/// The open durable-state handle of a running service.
pub(crate) struct Durability {
    dir: PathBuf,
    journal: Mutex<File>,
}

impl Durability {
    /// Opens (creating as needed) the state directory and its journal.
    pub fn open(dir: &Path) -> io::Result<Self> {
        std::fs::create_dir_all(dir.join("jobs"))?;
        let journal = OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join("journal.wal"))?;
        Ok(Durability {
            dir: dir.to_path_buf(),
            journal: Mutex::new(journal),
        })
    }

    /// Appends one checksummed line and flushes it to the OS.
    fn append(&self, body: &str) {
        debug_assert!(!body.contains('\n') && !body.contains('|'));
        let line = format!("{body}|{:016x}\n", ckpt::fnv1a(body.as_bytes()));
        let mut journal = self.journal.lock().unwrap_or_else(|e| e.into_inner());
        if journal.write_all(line.as_bytes()).is_err() || journal.flush().is_err() {
            flight::note("service.journal.write_failed");
        }
    }

    /// Write-ahead record of an admitted job (before its sweeps enqueue).
    pub fn record_submitted(&self, id: u64, spec: &JobSpec) {
        let deadline = spec
            .deadline_ms
            .map_or_else(|| "-".to_string(), |ms| ms.to_string());
        self.append(&format!(
            "S {id} {} {} {} {} {} {} {} {deadline}",
            hex_encode(spec.tenant.as_bytes()),
            spec.side,
            spec.l,
            spec.c,
            pattern_index(spec.pattern),
            spec.sweeps,
            spec.seed,
        ));
    }

    /// Terminal record: `F` for finished (completed or failed), `C` for
    /// cancelled. Appended before the `Finished` event is emitted.
    pub fn record_terminal(&self, id: u64, cancelled: bool) {
        self.append(&format!("{} {id}", if cancelled { 'C' } else { 'F' }));
    }

    fn ckpt_path(&self, id: u64) -> PathBuf {
        self.dir.join("jobs").join(format!("{id}.ckpt"))
    }

    /// Writes (atomically, with rotation) the job's checkpoint.
    pub fn write_checkpoint(&self, id: u64, state: &JobCheckpoint) {
        let started = Instant::now();
        match ckpt::store(&self.ckpt_path(id), JOB_CKPT_VERSION, &state.encode()) {
            Ok(bytes) => {
                CKPT_WRITES.inc();
                CKPT_BYTES.add(bytes);
                CKPT_NS.add(started.elapsed().as_nanos() as u64);
            }
            Err(_) => flight::note("service.ckpt.write_failed"),
        }
    }

    /// The [`crate::killpoint`] torn write: rotates like a normal
    /// checkpoint, then leaves a *truncated* envelope in place of the
    /// current generation — the on-disk state of a crash that beat the
    /// filesystem to the full payload. Recovery must fall back to the
    /// previous generation.
    pub fn write_torn_checkpoint(&self, id: u64, state: &JobCheckpoint) {
        let path = self.ckpt_path(id);
        let sealed = ckpt::seal(JOB_CKPT_VERSION, &state.encode());
        if path.exists() {
            let _ = std::fs::rename(&path, ckpt::prev_path(&path));
        }
        let _ = std::fs::write(&path, &sealed[..sealed.len() / 2]);
    }

    /// Loads the job's checkpoint, falling back to the previous
    /// generation on corruption. `None` means rerun from scratch —
    /// either nothing was ever written (crash before the first
    /// checkpoint) or every generation is corrupt.
    pub fn load_checkpoint(&self, id: u64) -> Option<(JobCheckpoint, Generation)> {
        match ckpt::load(&self.ckpt_path(id), JOB_CKPT_VERSION) {
            Ok((payload, generation)) => match JobCheckpoint::decode(&payload) {
                Ok(state) => Some((state, generation)),
                Err(_) => {
                    flight::note("service.ckpt.malformed");
                    None
                }
            },
            Err(CkptError::Io(e)) if e.kind() == io::ErrorKind::NotFound => None,
            Err(_) => {
                flight::note("service.ckpt.unrecoverable");
                None
            }
        }
    }

    /// Removes the job's checkpoint generations once it is terminal
    /// (the journal's terminal record supersedes them). Best-effort.
    pub fn delete_checkpoint(&self, id: u64) {
        let path = self.ckpt_path(id);
        let _ = std::fs::remove_file(ckpt::prev_path(&path));
        let _ = std::fs::remove_file(&path);
    }

    /// Replays the journal: parses checksummed lines until the first
    /// torn/corrupt one, then reports every submitted-but-not-terminal
    /// job in submission order.
    pub fn replay(&self) -> Replay {
        let mut jobs: Vec<(u64, JobSpec)> = Vec::new();
        let mut next_id = 0u64;
        let Ok(file) = File::open(self.dir.join("journal.wal")) else {
            return Replay { jobs, next_id };
        };
        for line in BufReader::new(file).lines() {
            let Ok(line) = line else { break };
            let Some(record) = parse_line(&line) else {
                flight::note("service.journal.torn_tail");
                break;
            };
            match record {
                Record::Submitted(id, spec) => {
                    next_id = next_id.max(id + 1);
                    jobs.push((id, spec));
                }
                Record::Terminal(id) => jobs.retain(|(j, _)| *j != id),
            }
        }
        Replay { jobs, next_id }
    }
}

enum Record {
    Submitted(u64, JobSpec),
    Terminal(u64),
}

/// Parses one journal line, returning `None` on any checksum or shape
/// violation (replay treats that as the torn tail).
fn parse_line(line: &str) -> Option<Record> {
    let (body, sum) = line.rsplit_once('|')?;
    if u64::from_str_radix(sum, 16).ok()? != ckpt::fnv1a(body.as_bytes()) {
        return None;
    }
    let mut parts = body.split(' ');
    let kind = parts.next()?;
    let id: u64 = parts.next()?.parse().ok()?;
    match kind {
        "F" | "C" => {
            if parts.next().is_some() {
                return None;
            }
            Some(Record::Terminal(id))
        }
        "S" => {
            let tenant = String::from_utf8(hex_decode(parts.next()?)?).ok()?;
            let side: usize = parts.next()?.parse().ok()?;
            let l: usize = parts.next()?.parse().ok()?;
            let c: usize = parts.next()?.parse().ok()?;
            let pattern = *Pattern::ALL.get(parts.next()?.parse::<usize>().ok()?)?;
            let sweeps: usize = parts.next()?.parse().ok()?;
            let seed: u64 = parts.next()?.parse().ok()?;
            let deadline = parts.next()?;
            let deadline_ms = if deadline == "-" {
                None
            } else {
                Some(deadline.parse().ok()?)
            };
            if parts.next().is_some() {
                return None;
            }
            let mut spec = JobSpec::new(tenant, side, l, c, sweeps, seed);
            spec.pattern = pattern;
            spec.deadline_ms = deadline_ms;
            Some(Record::Submitted(id, spec))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fsi-durability-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn journal_round_trips_and_drops_terminal_jobs() {
        let dir = tempdir("journal");
        let d = Durability::open(&dir).unwrap();
        let mut spec = JobSpec::new("tenant a", 2, 8, 4, 3, 7);
        spec.deadline_ms = Some(1500);
        d.record_submitted(0, &spec);
        d.record_submitted(1, &JobSpec::new("b", 3, 16, 4, 2, 9));
        d.record_terminal(0, false);
        let replay = d.replay();
        assert_eq!(replay.next_id, 2);
        assert_eq!(replay.jobs.len(), 1);
        let (id, spec) = &replay.jobs[0];
        assert_eq!(*id, 1);
        assert_eq!(spec.tenant, "b");
        assert_eq!(
            (spec.side, spec.l, spec.c, spec.sweeps, spec.seed),
            (3, 16, 4, 2, 9)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_journal_tail_stops_replay() {
        let dir = tempdir("torn");
        let d = Durability::open(&dir).unwrap();
        d.record_submitted(0, &JobSpec::new("a", 2, 8, 4, 1, 0));
        d.record_submitted(1, &JobSpec::new("b", 2, 8, 4, 1, 0));
        drop(d);
        // Tear the last line mid-checksum, as a crash mid-append would.
        let path = dir.join("journal.wal");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let d = Durability::open(&dir).unwrap();
        let replay = d.replay();
        assert_eq!(replay.jobs.len(), 1, "torn record must not replay");
        assert_eq!(replay.jobs[0].0, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_round_trips_and_rotates() {
        let dir = tempdir("ckpt");
        let d = Durability::open(&dir).unwrap();
        let gen1 = JobCheckpoint {
            c_now: 4,
            degradations: 0,
            retries: 0,
            bins: vec![(0, vec![1.5, -2.5])],
        };
        d.write_checkpoint(7, &gen1);
        let gen2 = JobCheckpoint {
            c_now: 2,
            degradations: 1,
            retries: 1,
            bins: vec![(0, vec![1.5, -2.5]), (2, vec![0.25])],
        };
        d.write_checkpoint(7, &gen2);
        let (loaded, generation) = d.load_checkpoint(7).expect("current loads");
        assert_eq!(generation, Generation::Current);
        assert_eq!(loaded, gen2);
        // Corrupt the current generation: fallback serves gen1.
        let path = dir.join("jobs").join("7.ckpt");
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let (loaded, generation) = d.load_checkpoint(7).expect("fallback loads");
        assert_eq!(generation, Generation::Previous);
        assert_eq!(loaded, gen1);
        assert!(d.load_checkpoint(8).is_none(), "absent checkpoint is None");
        d.delete_checkpoint(7);
        assert!(d.load_checkpoint(7).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
