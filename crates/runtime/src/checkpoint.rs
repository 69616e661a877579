//! Crash-safe checkpointing: a versioned, content-hashed snapshot format
//! with atomic write-rename and corruption-detecting loads.
//!
//! A snapshot is a single file holding one *frame*:
//!
//! | offset | bytes | field |
//! |--------|-------|-------|
//! | 0      | 8     | magic `"QNSCKPT\0"` |
//! | 8      | 4     | format version (LE u32, currently 1) |
//! | 12     | 4     | payload kind tag (LE u32, per [`Checkpointable::KIND`]) |
//! | 16     | 8     | payload length (LE u64) |
//! | 24     | 16    | 128-bit structural digest of the payload |
//! | 40     | n     | payload ([`Checkpointable::encode`] bytes) |
//! | 40+n   | 4     | CRC-32 (IEEE) over bytes `0..40+n` |
//!
//! Writes go to a temp file first and are published with `fs::rename`, so
//! a crash mid-write can never leave a half-written file under a valid
//! snapshot name. Loads verify magic, version, kind, length, CRC, and the
//! payload digest before any field is decoded; every failure mode is a
//! typed [`CheckpointError`], never a panic, so a torn or truncated file
//! simply falls back to the previous snapshot.
//!
//! Serialization is hand-rolled (the workspace is dependency-free): the
//! [`ByteWriter`]/[`ByteReader`] pair speaks little-endian fixed-width
//! integers and `f64::to_bits`, which makes round-trips bitwise exact —
//! the property the resume-determinism guarantee rests on.

use crate::cache::StructuralHasher;
use crate::fault::FaultPlan;
use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// First 8 bytes of every snapshot file.
pub const MAGIC: [u8; 8] = *b"QNSCKPT\0";
/// Current frame format version. v2: search-context digests include the
/// simulation backend ([`BackendConfig`](../../quantumnas) wire form), so
/// snapshots written under a different backend no longer resume. v3: one
/// search snapshot kind for every objective vector, carrying the
/// non-dominated archive.
pub const FORMAT_VERSION: u32 = 3;
/// Snapshot filename extension.
pub const EXTENSION: &str = "ckpt";

const HEADER_LEN: usize = 8 + 4 + 4 + 8 + 16;
const TRAILER_LEN: usize = 4;

/// Why a snapshot could not be written or read back.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure while writing or reading.
    Io(io::Error),
    /// The file is shorter than its frame claims (torn write).
    Truncated {
        /// Bytes the frame requires.
        needed: usize,
        /// Bytes actually present.
        have: usize,
    },
    /// The file does not start with the snapshot magic.
    BadMagic,
    /// The frame was written by an unknown format version.
    UnsupportedVersion(u32),
    /// The payload kind tag does not match the requested state type.
    KindMismatch {
        /// The caller's [`Checkpointable::KIND`].
        expected: u32,
        /// The tag found in the file.
        found: u32,
    },
    /// The CRC-32 trailer does not match the frame bytes (bit rot or a
    /// torn write that still met the length).
    CrcMismatch {
        /// CRC recorded in the trailer.
        expected: u32,
        /// CRC computed over the frame.
        found: u32,
    },
    /// The payload's structural digest does not match the header.
    DigestMismatch,
    /// The payload bytes decode to an impossible value.
    Malformed(&'static str),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
            CheckpointError::Truncated { needed, have } => {
                write!(f, "truncated snapshot: need {needed} bytes, have {have}")
            }
            CheckpointError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot format version {v}")
            }
            CheckpointError::KindMismatch { expected, found } => {
                write!(f, "snapshot kind {found:#x} where {expected:#x} expected")
            }
            CheckpointError::CrcMismatch { expected, found } => {
                write!(
                    f,
                    "snapshot crc mismatch: header {expected:#x}, computed {found:#x}"
                )
            }
            CheckpointError::DigestMismatch => write!(f, "snapshot payload digest mismatch"),
            CheckpointError::Malformed(what) => write!(f, "malformed snapshot payload: {what}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// The reflected CRC-32 remainder of every byte value, built at compile
/// time: entry `b` is eight shift-and-reduce steps of `b` by the IEEE
/// polynomial `0xEDB8_8320`.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            bit += 1;
        }
        table[b] = crc;
        b += 1;
    }
    table
};

/// CRC-32 (IEEE 802.3, reflected) over a byte slice, one table lookup per
/// byte.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Little-endian payload encoder. Floats are written as raw bit patterns,
/// so encode→decode is bitwise exact.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a LE u32.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a LE u64.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a usize as a LE u64 (portable across word sizes).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an f64 as its raw bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, yielding the payload bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked payload decoder: every read returns a typed error on
/// underrun instead of panicking, so arbitrary (corrupt) bytes can be fed
/// through [`decode_snapshot`] safely.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over a payload slice.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or(CheckpointError::Malformed("length overflow"))?;
        if end > self.buf.len() {
            return Err(CheckpointError::Truncated {
                needed: end,
                have: self.buf.len(),
            });
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a LE u32.
    pub fn get_u32(&mut self) -> Result<u32, CheckpointError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Reads a LE u64.
    pub fn get_u64(&mut self) -> Result<u64, CheckpointError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads a usize written by [`ByteWriter::put_usize`].
    pub fn get_usize(&mut self) -> Result<usize, CheckpointError> {
        usize::try_from(self.get_u64()?).map_err(|_| CheckpointError::Malformed("usize overflow"))
    }

    /// Reads an f64 bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a bool; any byte other than 0/1 is malformed.
    pub fn get_bool(&mut self) -> Result<bool, CheckpointError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CheckpointError::Malformed("bool out of range")),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, CheckpointError> {
        let len = self.get_usize()?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CheckpointError::Malformed("invalid utf-8"))
    }

    /// Reads a sequence length and rejects lengths that cannot possibly
    /// fit in the remaining bytes (`min_elem_bytes` each) — the guard that
    /// keeps a corrupt length field from forcing a huge allocation.
    pub fn get_seq_len(&mut self, min_elem_bytes: usize) -> Result<usize, CheckpointError> {
        let len = self.get_usize()?;
        let need = len
            .checked_mul(min_elem_bytes.max(1))
            .ok_or(CheckpointError::Malformed("sequence length overflow"))?;
        if need > self.remaining() {
            return Err(CheckpointError::Truncated {
                needed: self.pos + need,
                have: self.buf.len(),
            });
        }
        Ok(len)
    }

    /// Unread bytes.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails unless every payload byte was consumed — trailing garbage
    /// means the decoder and encoder disagree about the format.
    pub fn expect_consumed(&self) -> Result<(), CheckpointError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CheckpointError::Malformed("trailing payload bytes"))
        }
    }
}

/// A state that can be snapshotted and restored bitwise.
pub trait Checkpointable: Sized {
    /// Frame kind tag; a load only accepts its own kind.
    const KIND: u32;
    /// Stage label used in snapshot filenames (`{label}-{seq}.ckpt`).
    const LABEL: &'static str;
    /// Serializes the full resumable state into the payload.
    fn encode(&self, w: &mut ByteWriter);
    /// Deserializes a payload produced by [`Checkpointable::encode`].
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CheckpointError>;
}

/// Serializes a state into a complete snapshot frame (header + payload +
/// crc), ready to be written to disk.
pub fn encode_snapshot<T: Checkpointable>(state: &T) -> Vec<u8> {
    let mut w = ByteWriter::new();
    state.encode(&mut w);
    let payload = w.into_bytes();
    let mut h = StructuralHasher::new();
    h.write_bytes(&payload);
    let digest = h.finish();

    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + TRAILER_LEN);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&T::KIND.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&digest.lo.to_le_bytes());
    out.extend_from_slice(&digest.hi.to_le_bytes());
    out.extend_from_slice(&payload);
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Validates and decodes a snapshot frame. Every corruption mode —
/// truncation, bit rot, wrong kind, garbage payload — comes back as a
/// typed error; this function never panics on untrusted bytes.
pub fn decode_snapshot<T: Checkpointable>(bytes: &[u8]) -> Result<T, CheckpointError> {
    if bytes.len() < HEADER_LEN + TRAILER_LEN {
        return Err(CheckpointError::Truncated {
            needed: HEADER_LEN + TRAILER_LEN,
            have: bytes.len(),
        });
    }
    if bytes[..8] != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return Err(CheckpointError::UnsupportedVersion(version));
    }
    let kind = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes"));
    if kind != T::KIND {
        return Err(CheckpointError::KindMismatch {
            expected: T::KIND,
            found: kind,
        });
    }
    let payload_len = usize::try_from(u64::from_le_bytes(
        bytes[16..24].try_into().expect("8 bytes"),
    ))
    .map_err(|_| CheckpointError::Malformed("payload length overflow"))?;
    let total = HEADER_LEN
        .checked_add(payload_len)
        .and_then(|n| n.checked_add(TRAILER_LEN))
        .ok_or(CheckpointError::Malformed("payload length overflow"))?;
    if bytes.len() < total {
        return Err(CheckpointError::Truncated {
            needed: total,
            have: bytes.len(),
        });
    }
    if bytes.len() > total {
        return Err(CheckpointError::Malformed("trailing bytes after frame"));
    }
    let body = &bytes[..HEADER_LEN + payload_len];
    let expected = u32::from_le_bytes(bytes[total - TRAILER_LEN..].try_into().expect("4 bytes"));
    let found = crc32(body);
    if expected != found {
        return Err(CheckpointError::CrcMismatch { expected, found });
    }
    let payload = &bytes[HEADER_LEN..HEADER_LEN + payload_len];
    let mut h = StructuralHasher::new();
    h.write_bytes(payload);
    let digest = h.finish();
    let header_lo = u64::from_le_bytes(bytes[24..32].try_into().expect("8 bytes"));
    let header_hi = u64::from_le_bytes(bytes[32..40].try_into().expect("8 bytes"));
    if digest.lo != header_lo || digest.hi != header_hi {
        return Err(CheckpointError::DigestMismatch);
    }
    let mut r = ByteReader::new(payload);
    let state = T::decode(&mut r)?;
    r.expect_consumed()?;
    Ok(state)
}

/// Distinguishes concurrently written temp files within one process; the
/// process id separates runs (no wall clock or entropy, which the
/// determinism lint forbids on the search path).
static TMP_NONCE: AtomicU64 = AtomicU64::new(0);

/// A directory of rotated snapshots, one sequence per stage label.
///
/// Saves are atomic (temp file + rename) and monotonically numbered; loads
/// walk the sequence from newest to oldest, skipping any snapshot that
/// fails validation, so one torn write costs at most one checkpoint
/// interval of progress.
///
/// # Examples
///
/// ```no_run
/// use qns_runtime::{ByteReader, ByteWriter, Checkpointable, CheckpointError, CheckpointStore};
///
/// #[derive(PartialEq, Debug)]
/// struct Counter(u64);
/// impl Checkpointable for Counter {
///     const KIND: u32 = 0xC0;
///     const LABEL: &'static str = "counter";
///     fn encode(&self, w: &mut ByteWriter) { w.put_u64(self.0); }
///     fn decode(r: &mut ByteReader<'_>) -> Result<Self, CheckpointError> {
///         Ok(Counter(r.get_u64()?))
///     }
/// }
///
/// let store = CheckpointStore::open("/tmp/ckpts").unwrap();
/// store.save(&Counter(7), None).unwrap();
/// let (loaded, corrupt) = store.load_latest::<Counter>();
/// assert_eq!(loaded, Some(Counter(7)));
/// assert_eq!(corrupt, 0);
/// ```
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
}

/// Snapshots per label that survive rotation.
const KEEP: usize = 3;

impl CheckpointStore {
    /// Opens (creating if needed) a snapshot directory, keeping the last 3
    /// snapshots per label.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(CheckpointStore { dir })
    }

    /// The snapshot directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// All `(sequence, path)` pairs for a label, ascending by sequence.
    fn list(&self, label: &str) -> Vec<(u64, PathBuf)> {
        let prefix = format!("{label}-");
        let suffix = format!(".{EXTENSION}");
        let mut out: Vec<(u64, PathBuf)> = Vec::new();
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return out;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(middle) = name
                .strip_prefix(&prefix)
                .and_then(|rest| rest.strip_suffix(&suffix))
            else {
                continue;
            };
            if let Ok(seq) = middle.parse::<u64>() {
                out.push((seq, entry.path()));
            }
        }
        out.sort_unstable_by_key(|&(seq, _)| seq);
        out
    }

    /// The newest sequence number saved under a label, if any.
    pub fn latest_seq(&self, label: &str) -> Option<u64> {
        self.list(label).last().map(|&(seq, _)| seq)
    }

    /// Atomically writes the next snapshot in the label's sequence and
    /// rotates old ones out. When `faults` schedules a torn write for this
    /// save, the file is deliberately published half-written (bypassing
    /// the temp-rename protocol) so recovery paths can be exercised.
    pub fn save<T: Checkpointable>(
        &self,
        state: &T,
        faults: Option<&FaultPlan>,
    ) -> Result<PathBuf, CheckpointError> {
        let seq = self.latest_seq(T::LABEL).map_or(1, |s| s + 1);
        let bytes = encode_snapshot(state);
        let path = self.dir.join(format!("{}-{seq:08}.{EXTENSION}", T::LABEL));
        if faults.is_some_and(FaultPlan::take_torn_write) {
            fs::write(&path, &bytes[..bytes.len() / 2])?;
        } else {
            let nonce = TMP_NONCE.fetch_add(1, Ordering::Relaxed);
            let tmp = self
                .dir
                .join(format!(".{}-{}-{nonce}.tmp", T::LABEL, std::process::id()));
            let mut file = fs::File::create(&tmp)?;
            file.write_all(&bytes)?;
            file.sync_all()?;
            drop(file);
            if let Err(e) = fs::rename(&tmp, &path) {
                let _ = fs::remove_file(&tmp);
                return Err(e.into());
            }
        }
        self.rotate(T::LABEL);
        Ok(path)
    }

    /// Loads the newest snapshot that validates, walking backwards over
    /// corrupt ones. Returns the state (if any survives) and how many
    /// snapshots were rejected on the way.
    pub fn load_latest<T: Checkpointable>(&self) -> (Option<T>, usize) {
        let mut corrupt = 0usize;
        for (_, path) in self.list(T::LABEL).into_iter().rev() {
            match fs::read(&path).map_err(CheckpointError::from) {
                Ok(bytes) => match decode_snapshot::<T>(&bytes) {
                    Ok(state) => return (Some(state), corrupt),
                    Err(_) => corrupt += 1,
                },
                Err(_) => corrupt += 1,
            }
        }
        (None, corrupt)
    }

    fn rotate(&self, label: &str) {
        let snapshots = self.list(label);
        if snapshots.len() > KEEP {
            for (_, path) in &snapshots[..snapshots.len() - KEEP] {
                let _ = fs::remove_file(path);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq)]
    struct Demo {
        id: u64,
        values: Vec<f64>,
        tag: String,
        flag: bool,
    }

    impl Checkpointable for Demo {
        const KIND: u32 = 0xDE40;
        const LABEL: &'static str = "demo";
        fn encode(&self, w: &mut ByteWriter) {
            w.put_u64(self.id);
            w.put_usize(self.values.len());
            for &v in &self.values {
                w.put_f64(v);
            }
            w.put_str(&self.tag);
            w.put_bool(self.flag);
        }
        fn decode(r: &mut ByteReader<'_>) -> Result<Self, CheckpointError> {
            let id = r.get_u64()?;
            let n = r.get_seq_len(8)?;
            let mut values = Vec::with_capacity(n);
            for _ in 0..n {
                values.push(r.get_f64()?);
            }
            Ok(Demo {
                id,
                values,
                tag: r.get_str()?,
                flag: r.get_bool()?,
            })
        }
    }

    fn demo() -> Demo {
        Demo {
            id: 42,
            values: vec![0.5, -1.25, f64::MIN_POSITIVE, -0.0],
            tag: "hello".into(),
            flag: true,
        }
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("qns-ckpt-test-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn crc32_keeps_the_ieee_check_value_and_the_bitwise_definition() {
        // The CRC-32/IEEE catalogue check value: snapshots written by any
        // build keep validating.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // The definition, eight shift-and-reduce steps per byte.
        let bitwise = |bytes: &[u8]| {
            let mut crc = 0xFFFF_FFFFu32;
            for &b in bytes {
                crc ^= b as u32;
                for _ in 0..8 {
                    let mask = (crc & 1).wrapping_neg();
                    crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
                }
            }
            !crc
        };
        let frame = encode_snapshot(&demo());
        let every_byte: Vec<u8> = (0..=255u8).rev().chain(0..=255).collect();
        for bytes in [&frame[..], &every_byte[..], b"a"] {
            assert_eq!(crc32(bytes), bitwise(bytes));
        }
    }

    #[test]
    fn frame_round_trips_bitwise() {
        let state = demo();
        let bytes = encode_snapshot(&state);
        let back: Demo = decode_snapshot(&bytes).expect("valid frame");
        assert_eq!(back, state);
        for (a, b) in back.values.iter().zip(&state.values) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let bytes = encode_snapshot(&demo());
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(
                decode_snapshot::<Demo>(&bad).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn truncations_are_typed_errors_not_panics() {
        let bytes = encode_snapshot(&demo());
        for len in 0..bytes.len() {
            let err = decode_snapshot::<Demo>(&bytes[..len]).unwrap_err();
            match err {
                CheckpointError::Truncated { .. } | CheckpointError::CrcMismatch { .. } => {}
                other => panic!("unexpected error at len {len}: {other}"),
            }
        }
    }

    #[test]
    fn kind_and_version_are_enforced() {
        struct Other;
        impl Checkpointable for Other {
            const KIND: u32 = 0x07;
            const LABEL: &'static str = "other";
            fn encode(&self, _: &mut ByteWriter) {}
            fn decode(_: &mut ByteReader<'_>) -> Result<Self, CheckpointError> {
                Ok(Other)
            }
        }
        let bytes = encode_snapshot(&demo());
        assert!(matches!(
            decode_snapshot::<Other>(&bytes),
            Err(CheckpointError::KindMismatch { .. })
        ));
        let mut wrong_version = bytes.clone();
        wrong_version[8] = 99;
        // Version is checked before the CRC so old readers give the right
        // diagnosis; recompute the trailer to isolate the version path.
        let body_len = wrong_version.len() - TRAILER_LEN;
        let crc = crc32(&wrong_version[..body_len]).to_le_bytes();
        wrong_version[body_len..].copy_from_slice(&crc);
        assert!(matches!(
            decode_snapshot::<Demo>(&wrong_version),
            Err(CheckpointError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn store_saves_loads_and_rotates() {
        let dir = tmp_dir("rotate");
        let store = CheckpointStore::open(&dir).expect("open");
        for id in 1..=5u64 {
            let state = Demo { id, ..demo() };
            store.save(&state, None).expect("save");
        }
        assert_eq!(store.list("demo").len(), 3, "rotation keeps last 3");
        let (loaded, corrupt) = store.load_latest::<Demo>();
        assert_eq!(loaded.expect("latest").id, 5);
        assert_eq!(corrupt, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_write_falls_back_to_previous_snapshot() {
        let dir = tmp_dir("torn");
        let store = CheckpointStore::open(&dir).expect("open");
        store.save(&Demo { id: 1, ..demo() }, None).expect("save 1");
        let faults = FaultPlan::new().torn_write(1);
        store
            .save(&Demo { id: 2, ..demo() }, Some(&faults))
            .expect("torn save still creates a file");
        let (loaded, corrupt) = store.load_latest::<Demo>();
        assert_eq!(loaded.expect("fallback").id, 1, "must fall back to seq 1");
        assert_eq!(corrupt, 1, "the torn snapshot is counted");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reader_rejects_absurd_sequence_lengths() {
        let mut w = ByteWriter::new();
        w.put_usize(usize::MAX / 2);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(r.get_seq_len(8).is_err(), "length must be bounded by input");
    }
}
