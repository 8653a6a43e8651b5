//! Versioned, checksummed, atomically-written checkpoint envelopes.
//!
//! Long DQMC runs die for reasons the in-process recovery ladder cannot
//! touch: OOM kills, node reboots, operator restarts. The durability
//! story built on this module turns those into resumable events, under
//! one contract: **a resumed run must be bitwise-identical to an
//! uninterrupted one**, which demands that a checkpoint either loads
//! exactly as written or is rejected outright — a torn or bit-rotted
//! file silently accepted would corrupt the Monte Carlo trajectory in
//! ways no physics assertion downstream could attribute.
//!
//! The envelope is deliberately minimal: an 8-byte magic, a `u32`
//! payload version, the payload length, and an FNV-1a checksum over the
//! payload. FNV-1a is no cryptographic MAC, but its byte step
//! `h ← (h ⊕ b)·p` is invertible (the prime is odd), so *any* single
//! corrupted byte always changes the final hash — torn writes and media
//! bit-rot are detected deterministically, which is the failure model a
//! checkpoint faces.
//!
//! Files are written atomically (temp file in the same directory, then
//! rename) and rotated through two generations: [`store`] moves the
//! current file to `<path>.prev` before renaming the fresh one in, and
//! [`load`] falls back to the previous generation when the current one
//! is corrupt — reporting what it found so callers can feed the health
//! machinery. Two incidents ([`flight::record`], a counter and a flight
//! note under one name) mark what it found: `runtime.ckpt.corrupt`
//! (envelope rejections) and `runtime.ckpt.fallbacks` (loads served by
//! the previous generation).

use std::io;
use std::path::{Path, PathBuf};

use crate::metrics::flight::{self, FlightKind};

/// Envelope magic: identifies a file as an FSI checkpoint, any version.
pub(crate) const MAGIC: [u8; 8] = *b"FSICKPT\x01";

/// Envelope header length: magic + version + payload length + checksum.
pub(crate) const HEADER_LEN: usize = 8 + 4 + 8 + 8;

/// Why a checkpoint failed to load. Every variant means "do not trust
/// this file" — the caller falls back to an older generation or a
/// from-scratch start, never to a partial parse.
#[derive(Debug)]
pub enum CkptError {
    /// The file could not be read at all (missing counts here too).
    Io(io::Error),
    /// The file is shorter than the envelope header.
    Truncated,
    /// The magic bytes do not identify an FSI checkpoint.
    BadMagic,
    /// The envelope parsed but carries an unexpected payload version.
    BadVersion {
        /// Version found in the envelope.
        found: u32,
        /// Version the caller expected.
        expected: u32,
    },
    /// The header's payload length disagrees with the file size (a torn
    /// write that lost the tail).
    LengthMismatch,
    /// The payload checksum does not match (bit rot or a torn write
    /// inside the payload).
    ChecksumMismatch,
    /// The payload deserializer found a structural impossibility.
    Malformed(&'static str),
}

impl std::fmt::Display for CkptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CkptError::Io(e) => write!(f, "checkpoint io: {e}"),
            CkptError::Truncated => write!(f, "checkpoint truncated before header end"),
            CkptError::BadMagic => write!(f, "not an FSI checkpoint (bad magic)"),
            CkptError::BadVersion { found, expected } => {
                write!(f, "checkpoint version {found}, expected {expected}")
            }
            CkptError::LengthMismatch => write!(f, "checkpoint payload length mismatch"),
            CkptError::ChecksumMismatch => write!(f, "checkpoint checksum mismatch"),
            CkptError::Malformed(what) => write!(f, "checkpoint payload malformed: {what}"),
        }
    }
}

impl std::error::Error for CkptError {}

impl From<io::Error> for CkptError {
    fn from(e: io::Error) -> Self {
        CkptError::Io(e)
    }
}

/// FNV-1a over raw bytes; the checksum of the envelope.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Wraps `payload` in the envelope: magic, version, length, FNV-1a.
pub fn seal(version: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Validates an envelope and returns the payload bytes.
///
/// # Errors
/// Every way a file can fail to be the checkpoint it claims to be:
/// truncation, wrong magic, wrong version, length mismatch, checksum
/// mismatch.
pub fn open(bytes: &[u8], expected_version: u32) -> Result<&[u8], CkptError> {
    if bytes.len() < HEADER_LEN {
        return Err(CkptError::Truncated);
    }
    if bytes[..8] != MAGIC {
        return Err(CkptError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != expected_version {
        return Err(CkptError::BadVersion {
            found: version,
            expected: expected_version,
        });
    }
    let len = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes")) as usize;
    let payload = &bytes[HEADER_LEN..];
    if payload.len() != len {
        return Err(CkptError::LengthMismatch);
    }
    let sum = u64::from_le_bytes(bytes[20..28].try_into().expect("8 bytes"));
    if fnv1a(payload) != sum {
        return Err(CkptError::ChecksumMismatch);
    }
    Ok(payload)
}

/// Writes `bytes` to `path` atomically: a temp file in the same
/// directory, flushed, then renamed over the destination. A crash at any
/// point leaves either the old file or the new one — never a torn mix.
///
/// # Errors
/// Propagates filesystem errors (the temp file is cleaned up on rename
/// failure).
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    if let Some(dir) = dir {
        std::fs::create_dir_all(dir)?;
    }
    let tmp = tmp_path(path);
    std::fs::write(&tmp, bytes)?;
    match std::fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// The sibling path holding the previous checkpoint generation.
pub fn prev_path(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".prev");
    path.with_file_name(name)
}

/// Seals `payload` and stores it at `path` with two-generation rotation:
/// an existing current file first becomes `<path>.prev`, then the fresh
/// envelope is written atomically. Returns the envelope size in bytes.
///
/// # Errors
/// Propagates filesystem errors from the rotation or the write.
pub fn store(path: &Path, version: u32, payload: &[u8]) -> io::Result<u64> {
    let sealed = seal(version, payload);
    if path.exists() {
        std::fs::rename(path, prev_path(path))?;
    }
    write_atomic(path, &sealed)?;
    Ok(sealed.len() as u64)
}

/// Which generation a [`load`] was served from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Generation {
    /// The current checkpoint file loaded cleanly.
    Current,
    /// The current file was corrupt or missing; the previous generation
    /// loaded cleanly.
    Previous,
}

/// Loads the payload at `path`, falling back to `<path>.prev` when the
/// current generation is corrupt or missing. Corruption is recorded as
/// the incident `runtime.ckpt.corrupt`; a fallback additionally as
/// `runtime.ckpt.fallbacks`.
///
/// # Errors
/// The *current* generation's error when both generations fail —
/// `Io(NotFound)` when neither file exists (the from-scratch case).
pub fn load(path: &Path, expected_version: u32) -> Result<(Vec<u8>, Generation), CkptError> {
    let current = read_envelope(path, expected_version);
    match current {
        Ok(payload) => Ok((payload, Generation::Current)),
        Err(current_err) => {
            if !matches!(current_err, CkptError::Io(ref e) if e.kind() == io::ErrorKind::NotFound) {
                flight::record(FlightKind::Note, "runtime.ckpt.corrupt", "");
            }
            match read_envelope(&prev_path(path), expected_version) {
                Ok(payload) => {
                    flight::record(FlightKind::Note, "runtime.ckpt.fallbacks", "");
                    Ok((payload, Generation::Previous))
                }
                Err(_) => Err(current_err),
            }
        }
    }
}

fn read_envelope(path: &Path, expected_version: u32) -> Result<Vec<u8>, CkptError> {
    let bytes = std::fs::read(path)?;
    open(&bytes, expected_version).map(<[u8]>::to_vec)
}

/// Little-endian payload writer used by the checkpoint serializers.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty payload buffer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Appends a `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` by bit pattern (exact round trip, NaN included).
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Appends a length-prefixed `i8` slice (HS field configurations).
    pub fn put_i8s(&mut self, v: &[i8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend(v.iter().map(|&x| x as u8));
    }

    /// Appends a length-prefixed `f64` slice.
    pub fn put_f64s(&mut self, v: &[f64]) {
        self.put_u64(v.len() as u64);
        for &x in v {
            self.buf.extend_from_slice(&x.to_bits().to_le_bytes());
        }
    }

    /// The finished payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Little-endian payload reader; every accessor fails loudly on
/// truncation instead of yielding zeros.
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Reads from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    /// Whether every byte has been consumed (serializers assert this to
    /// catch schema drift).
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CkptError> {
        if self.buf.len() < n {
            return Err(CkptError::Malformed("payload shorter than declared"));
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    /// Reads a `u32`.
    ///
    /// # Errors
    /// [`CkptError::Malformed`] on truncation.
    pub fn take_u32(&mut self) -> Result<u32, CkptError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    /// Reads a `u64`.
    ///
    /// # Errors
    /// [`CkptError::Malformed`] on truncation.
    pub fn take_u64(&mut self) -> Result<u64, CkptError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Reads an `f64` by bit pattern.
    ///
    /// # Errors
    /// [`CkptError::Malformed`] on truncation.
    pub fn take_f64(&mut self) -> Result<f64, CkptError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Reads a length-prefixed byte string.
    ///
    /// # Errors
    /// [`CkptError::Malformed`] on truncation or an absurd length.
    pub(crate) fn take_bytes(&mut self) -> Result<&'a [u8], CkptError> {
        let len = self.take_u64()? as usize;
        self.take(len)
    }

    /// Reads a length-prefixed `i8` slice.
    ///
    /// # Errors
    /// [`CkptError::Malformed`] on truncation.
    pub fn take_i8s(&mut self) -> Result<Vec<i8>, CkptError> {
        Ok(self.take_bytes()?.iter().map(|&b| b as i8).collect())
    }

    /// Reads a length-prefixed `f64` slice.
    ///
    /// # Errors
    /// [`CkptError::Malformed`] on truncation.
    pub fn take_f64s(&mut self) -> Result<Vec<f64>, CkptError> {
        let len = self.take_u64()? as usize;
        let raw = self.take(
            len.checked_mul(8)
                .ok_or(CkptError::Malformed("f64 slice overflow"))?,
        )?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8"))))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_open_round_trip() {
        let payload = b"hello checkpoint".to_vec();
        let sealed = seal(3, &payload);
        assert_eq!(open(&sealed, 3).unwrap(), &payload[..]);
        assert!(matches!(
            open(&sealed, 4),
            Err(CkptError::BadVersion { .. })
        ));
    }

    #[test]
    fn any_single_byte_corruption_is_rejected() {
        // FNV-1a's byte step is invertible, so a single-byte substitution
        // anywhere in the payload must always flip the checksum; header
        // corruption trips magic/version/length checks instead.
        let sealed = seal(1, &[0xAB; 64]);
        for i in 0..sealed.len() {
            let mut bad = sealed.clone();
            bad[i] ^= 0x01;
            assert!(open(&bad, 1).is_err(), "byte {i} corruption undetected");
        }
    }

    #[test]
    fn truncation_is_rejected_at_every_length() {
        let sealed = seal(1, &[7u8; 32]);
        for cut in 0..sealed.len() {
            assert!(open(&sealed[..cut], 1).is_err(), "cut at {cut} accepted");
        }
    }

    #[test]
    fn writer_reader_round_trip() {
        let mut w = Writer::new();
        w.put_u32(7);
        w.put_u64(u64::MAX);
        w.put_f64(-0.0);
        w.put_f64(f64::NAN);
        w.put_i8s(&[1, -1, 1]);
        w.put_f64s(&[1.5, f64::MIN_POSITIVE]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.take_u32().unwrap(), 7);
        assert_eq!(r.take_u64().unwrap(), u64::MAX);
        assert_eq!(r.take_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.take_f64().unwrap().is_nan());
        assert_eq!(r.take_i8s().unwrap(), vec![1, -1, 1]);
        assert_eq!(r.take_f64s().unwrap(), vec![1.5, f64::MIN_POSITIVE]);
        assert!(r.is_empty());
        assert!(r.take_u32().is_err(), "reads past the end fail loudly");
    }

    #[test]
    fn store_rotates_and_load_falls_back() {
        let dir = std::env::temp_dir().join(format!("fsi-ckpt-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.ckpt");

        // No file at all: NotFound io error.
        assert!(matches!(load(&path, 1), Err(CkptError::Io(_))));

        store(&path, 1, b"gen0").unwrap();
        let (p, g) = load(&path, 1).unwrap();
        assert_eq!((p.as_slice(), g), (&b"gen0"[..], Generation::Current));

        store(&path, 1, b"gen1").unwrap();
        assert!(prev_path(&path).exists(), "rotation keeps the old gen");

        // Torn current generation: fall back to prev.
        std::fs::write(&path, b"FSICKPT\x01torn").unwrap();
        let (p, g) = load(&path, 1).unwrap();
        assert_eq!((p.as_slice(), g), (&b"gen0"[..], Generation::Previous));

        // Both generations corrupt: the current error surfaces.
        std::fs::write(prev_path(&path), b"junk").unwrap();
        assert!(load(&path, 1).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_atomic_replaces_not_appends() {
        let dir = std::env::temp_dir().join(format!("fsi-ckpt-atomic-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("a.json");
        write_atomic(&path, b"{\"long\":\"first version with padding\"}").unwrap();
        write_atomic(&path, b"{\"v\":2}").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"{\"v\":2}");
        assert!(!tmp_path(&path).exists(), "temp file cleaned up");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
