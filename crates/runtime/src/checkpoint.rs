//! Crash-safe checkpointing: a versioned, content-hashed snapshot format
//! with atomic write-rename and corruption-detecting loads.
//!
//! A snapshot is a single file holding one *frame*:
//!
//! | offset | bytes | field |
//! |--------|-------|-------|
//! | 0      | 8     | magic `"QNSCKPT\0"` |
//! | 8      | 4     | format version (LE u32, [`FORMAT_VERSION`]) |
//! | 12     | 4     | payload kind tag (LE u32, per [`Snapshot::KIND`]) |
//! | 16     | 8     | payload length (LE u64) |
//! | 24     | 16    | 128-bit structural digest of the payload |
//! | 40     | n     | payload (the snapshot's [`Checkpointable::encode`] bytes) |
//! | 40+n   | 4     | CRC-32 (IEEE) over bytes `0..40+n` |
//!
//! Writes go to a temp file first and are published with `fs::rename`, so
//! a crash mid-write can never leave a half-written file under a valid
//! snapshot name. Loads verify magic, version, kind, length, CRC, and the
//! payload digest before any field is decoded; every failure mode is a
//! typed [`CheckpointError`], never a panic, so a torn or truncated file
//! simply falls back to the previous snapshot.
//!
//! [`Checkpointable`] is the one wire codec (the workspace is
//! dependency-free): fixed-width little-endian integers, `f64` bit
//! patterns, `u64` length prefixes, which makes round-trips bitwise exact —
//! the property the resume-determinism guarantee rests on. Its `encode`
//! writes into any [`Sink`], so the bytes a snapshot stores are the bytes a
//! [`StructuralHasher`] digests. [`checkpointable!`] implements it for a
//! struct from one `field: Type` list, stating each field's order once.

use crate::cache::{CacheKey, StructuralHasher};
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
        /// The caller's [`Snapshot::KIND`].
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

/// Where [`Checkpointable::encode`] writes: a snapshot payload
/// ([`ByteWriter`]) or a content digest ([`StructuralHasher`]).
pub trait Sink {
    /// Appends raw bytes.
    fn write_bytes(&mut self, bytes: &[u8]);
}

impl Sink for StructuralHasher {
    fn write_bytes(&mut self, bytes: &[u8]) {
        StructuralHasher::write_bytes(self, bytes);
    }
}

/// Collects a snapshot payload.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// Consumes the writer, yielding the payload bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

impl Sink for ByteWriter {
    fn write_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
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

    fn take<const N: usize>(&mut self) -> Result<[u8; N], CheckpointError> {
        let end = self.pos + N;
        let Some(bytes) = self.buf.get(self.pos..end) else {
            return Err(CheckpointError::Truncated {
                needed: end,
                have: self.buf.len(),
            });
        };
        self.pos = end;
        Ok(bytes.try_into().expect("N bytes"))
    }

    /// Reads a sequence length and rejects lengths that cannot possibly
    /// fit in the remaining bytes (`min_elem_bytes` each) — the guard that
    /// keeps a corrupt length field from forcing a huge allocation.
    fn seq_len(&mut self, min_elem_bytes: usize) -> Result<usize, CheckpointError> {
        let len = usize::decode(self)?;
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

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails unless every payload byte was consumed — trailing garbage
    /// means the decoder and encoder disagree about the format.
    fn expect_consumed(&self) -> Result<(), CheckpointError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CheckpointError::Malformed("trailing payload bytes"))
        }
    }
}

/// A value with one little-endian wire form, read back bitwise.
///
/// The same `encode` feeds a snapshot payload and a content digest, so a
/// value's bytes are stated once. Integers are fixed-width LE (`usize`
/// as `u64`), `f64` is its bit pattern, `bool` one byte, a `Vec` a `u64`
/// length then its elements, an array its elements, an `Option` a `bool`
/// flag then the value, a pair its two halves.
pub trait Checkpointable: Sized {
    /// The fewest bytes any value's encoding takes: the bound a decoded
    /// sequence length is checked against before anything is allocated.
    const MIN_BYTES: usize;
    /// Writes the value's bytes.
    fn encode(&self, out: &mut impl Sink);
    /// Reads a value written by [`Checkpointable::encode`].
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CheckpointError>;
}

/// Implements [`Checkpointable`] for a struct from one `field: Type` list:
/// `encode` destructures the struct exhaustively and writes each field in
/// list order, `decode` reads them back in the same order. A field left
/// out of the list fails to compile.
///
/// ```
/// use qns_runtime::{checkpointable, Checkpointable, ByteReader, ByteWriter};
///
/// #[derive(Debug, PartialEq)]
/// struct Point { x: f64, tags: Vec<u64> }
/// checkpointable!(Point { x: f64, tags: Vec<u64> });
///
/// let p = Point { x: 0.5, tags: vec![7] };
/// let mut w = ByteWriter::new();
/// p.encode(&mut w);
/// let bytes = w.into_bytes();
/// assert_eq!(bytes.len(), 8 + 8 + 8);
/// assert_eq!(Point::decode(&mut ByteReader::new(&bytes)).unwrap(), p);
/// ```
#[macro_export]
macro_rules! checkpointable {
    ($ty:ident { $($field:ident: $fty:ty),+ $(,)? }) => {
        impl $crate::Checkpointable for $ty {
            const MIN_BYTES: usize = 0 $(+ <$fty as $crate::Checkpointable>::MIN_BYTES)+;

            fn encode(&self, out: &mut impl $crate::Sink) {
                let $ty { $($field),+ } = self;
                $(<$fty as $crate::Checkpointable>::encode($field, out);)+
            }

            fn decode(
                r: &mut $crate::ByteReader<'_>,
            ) -> ::std::result::Result<Self, $crate::CheckpointError> {
                Ok($ty {
                    $($field: <$fty as $crate::Checkpointable>::decode(r)?),+
                })
            }
        }
    };
}

impl Checkpointable for u64 {
    const MIN_BYTES: usize = 8;
    fn encode(&self, out: &mut impl Sink) {
        out.write_bytes(&self.to_le_bytes());
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CheckpointError> {
        Ok(u64::from_le_bytes(r.take()?))
    }
}

impl Checkpointable for usize {
    const MIN_BYTES: usize = 8;
    fn encode(&self, out: &mut impl Sink) {
        (*self as u64).encode(out);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CheckpointError> {
        usize::try_from(u64::decode(r)?).map_err(|_| CheckpointError::Malformed("usize overflow"))
    }
}

impl Checkpointable for f64 {
    const MIN_BYTES: usize = 8;
    fn encode(&self, out: &mut impl Sink) {
        self.to_bits().encode(out);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CheckpointError> {
        Ok(f64::from_bits(u64::decode(r)?))
    }
}

impl Checkpointable for bool {
    const MIN_BYTES: usize = 1;
    fn encode(&self, out: &mut impl Sink) {
        out.write_bytes(&[*self as u8]);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CheckpointError> {
        match r.take::<1>()? {
            [0] => Ok(false),
            [1] => Ok(true),
            _ => Err(CheckpointError::Malformed("bool out of range")),
        }
    }
}

checkpointable!(CacheKey { lo: u64, hi: u64 });

impl<T: Checkpointable + Default, const N: usize> Checkpointable for [T; N] {
    const MIN_BYTES: usize = N * T::MIN_BYTES;
    fn encode(&self, out: &mut impl Sink) {
        for x in self {
            x.encode(out);
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CheckpointError> {
        let mut xs: [T; N] = std::array::from_fn(|_| T::default());
        for x in &mut xs {
            *x = T::decode(r)?;
        }
        Ok(xs)
    }
}

impl<T: Checkpointable> Checkpointable for Vec<T> {
    const MIN_BYTES: usize = 8;
    fn encode(&self, out: &mut impl Sink) {
        self.len().encode(out);
        for x in self {
            x.encode(out);
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CheckpointError> {
        let n = r.seq_len(T::MIN_BYTES)?;
        let mut xs = Vec::with_capacity(n);
        for _ in 0..n {
            xs.push(T::decode(r)?);
        }
        Ok(xs)
    }
}

impl<T: Checkpointable> Checkpointable for Option<T> {
    const MIN_BYTES: usize = 1;
    fn encode(&self, out: &mut impl Sink) {
        self.is_some().encode(out);
        if let Some(x) = self {
            x.encode(out);
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CheckpointError> {
        Ok(if bool::decode(r)? {
            Some(T::decode(r)?)
        } else {
            None
        })
    }
}

impl<A: Checkpointable, B: Checkpointable> Checkpointable for (A, B) {
    const MIN_BYTES: usize = A::MIN_BYTES + B::MIN_BYTES;
    fn encode(&self, out: &mut impl Sink) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CheckpointError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

/// A loop's resumable state: the payload of one snapshot frame.
pub trait Snapshot: Checkpointable {
    /// Frame kind tag; a load only accepts its own kind.
    const KIND: u32;
    /// Stage label used in snapshot filenames (`{label}-{seq}.ckpt`).
    const LABEL: &'static str;
    /// Digest of the run configuration that wrote the snapshot.
    fn context(&self) -> CacheKey;
    /// Loop units completed: training steps, generations or rounds.
    fn done(&self) -> usize;
}

/// Serializes a state into a complete snapshot frame (header + payload +
/// crc), ready to be written to disk.
pub fn encode_snapshot<T: Snapshot>(state: &T) -> Vec<u8> {
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
pub fn decode_snapshot<T: Snapshot>(bytes: &[u8]) -> Result<T, CheckpointError> {
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
/// use qns_runtime::{checkpointable, CacheKey, CheckpointStore, Snapshot};
///
/// #[derive(PartialEq, Debug)]
/// struct Counter { context: CacheKey, count: usize }
/// checkpointable!(Counter { context: CacheKey, count: usize });
/// impl Snapshot for Counter {
///     const KIND: u32 = 0xC0;
///     const LABEL: &'static str = "counter";
///     fn context(&self) -> CacheKey { self.context }
///     fn done(&self) -> usize { self.count }
/// }
///
/// let store = CheckpointStore::open("/tmp/ckpts").unwrap();
/// let state = Counter { context: CacheKey { lo: 1, hi: 2 }, count: 7 };
/// store.save(&state, None).unwrap();
/// let (loaded, corrupt) = store.load_latest::<Counter>();
/// assert_eq!(loaded, Some(state));
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
    pub fn save<T: Snapshot>(
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
    pub fn load_latest<T: Snapshot>(&self) -> (Option<T>, usize) {
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
        tag: u64,
        flag: bool,
    }

    checkpointable!(Demo {
        id: u64,
        values: Vec<f64>,
        tag: u64,
        flag: bool,
    });

    impl Snapshot for Demo {
        const KIND: u32 = 0xDE40;
        const LABEL: &'static str = "demo";
        fn context(&self) -> CacheKey {
            CacheKey {
                lo: self.tag,
                hi: 0,
            }
        }
        fn done(&self) -> usize {
            self.id as usize
        }
    }

    fn demo() -> Demo {
        Demo {
            id: 42,
            values: vec![0.5, -1.25, f64::MIN_POSITIVE, -0.0],
            tag: 7,
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
        struct Other {
            n: u64,
        }
        checkpointable!(Other { n: u64 });
        impl Snapshot for Other {
            const KIND: u32 = 0x07;
            const LABEL: &'static str = "other";
            fn context(&self) -> CacheKey {
                CacheKey { lo: self.n, hi: 0 }
            }
            fn done(&self) -> usize {
                0
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
        (usize::MAX / 2).encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(r.seq_len(8).is_err(), "length must be bounded by input");
    }
}
