//! Dataset file persistence, the one durable file writer, and the
//! little-endian payload codec shared with the index-snapshot container.
//!
//! A minimal binary container so datasets can move between the CLI,
//! examples, and external tools: a 24-byte header (magic, version,
//! series length, series count — all little-endian) followed by the raw
//! `f32` values, series back to back. The format is deliberately dumb:
//! the paper's pipeline treats raw series files exactly this way (ParIS
//! reads "raw data series from disk … into a raw data buffer in memory").
//!
//! [`write_durable`] is how every file the repo saves reaches the disk —
//! datasets, index snapshots and shard manifests alike: fill a `.tmp`
//! sibling, `fsync` it, rename it over the target, `fsync` the
//! directory. A crash at any step leaves the old file or the new one,
//! never a torn mix, and a completed write survives power loss.
//!
//! [`PayloadWriter`] / [`PayloadReader`] are the building blocks for
//! richer containers: append/consume fixed-width little-endian scalars
//! and byte runs over one contiguous buffer, with [`xxh64`] providing
//! the content checksum. `messi_core::persist` uses them for the
//! versioned, checksummed index snapshot files.

use crate::error::Error;
use crate::types::Dataset;
use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};

/// File magic: `MESSIDS\0`.
const MAGIC: [u8; 8] = *b"MESSIDS\0";
/// Current format version.
const VERSION: u32 = 1;
/// Header bytes: magic, version, series length, series count.
const HEADER_BYTES: usize = 24;

/// Writes `path` all-or-nothing: `fill` writes the contents into a
/// `.tmp` sibling, which is `fsync`ed, renamed over `path`, and made
/// durable by syncing the directory. If any step fails the `.tmp` is
/// removed and a previous file at `path` is left untouched.
///
/// # Errors
///
/// Any I/O error from `fill` or from creating, syncing, or renaming.
pub fn write_durable<F>(path: &Path, fill: F) -> std::io::Result<()>
where
    F: FnOnce(&mut BufWriter<File>) -> std::io::Result<()>,
{
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let write = || -> std::io::Result<()> {
        let mut w = BufWriter::new(File::create(&tmp)?);
        fill(&mut w)?;
        w.into_inner().map_err(|e| e.into_error())?.sync_all()?;
        std::fs::rename(&tmp, path)?;
        sync_parent(path)
    };
    write().map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        e
    })
}

/// Syncs the directory holding `path`, so that a create or rename of
/// `path` survives a crash. A bare file name's directory is `.`.
///
/// # Errors
///
/// Any I/O error from opening or syncing the directory.
pub fn sync_parent(path: &Path) -> std::io::Result<()> {
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    File::open(dir)?.sync_all()
}

/// Writes `dataset` to `path` in the container format, through
/// [`write_durable`].
///
/// # Errors
///
/// Returns any I/O error from creating, writing, or renaming the file.
pub fn write_dataset(dataset: &Dataset, path: &Path) -> std::io::Result<()> {
    write_durable(path, |w| {
        w.write_all(&MAGIC)?;
        w.write_all(&VERSION.to_le_bytes())?;
        w.write_all(&(dataset.series_len() as u32).to_le_bytes())?;
        w.write_all(&(dataset.len() as u64).to_le_bytes())?;
        // Raw values; f32 -> LE bytes.
        let mut buf = Vec::with_capacity(64 * 1024);
        for &v in dataset.as_flat() {
            buf.extend_from_slice(&v.to_le_bytes());
            if buf.len() >= 64 * 1024 {
                w.write_all(&buf)?;
                buf.clear();
            }
        }
        w.write_all(&buf)
    })
}

/// Reads a dataset previously written by [`write_dataset`], straight
/// into one buffer with the same geometric headroom a growth copy
/// reserves ([`Dataset::append_with`]), so the first appends to it (a
/// replayed delta log, live ingest) run in place. The file is decoded
/// through a small chunk buffer, never held whole.
///
/// # Errors
///
/// [`ReadError::Io`] for filesystem problems, [`ReadError::Format`] for
/// structurally malformed files (bad magic, version, or a payload whose
/// size disagrees with the header), [`ReadError::Data`] for well-formed
/// files whose content cannot form a valid [`Dataset`].
pub fn read_dataset(path: &Path) -> std::result::Result<Dataset, ReadError> {
    const CHUNK_BYTES: usize = 64 * 1024;
    let mut file = File::open(path)?;
    let mut header = [0u8; HEADER_BYTES];
    file.read_exact(&mut header)?;
    if header[..8] != MAGIC {
        return Err(ReadError::Format("bad magic: not a MESSI dataset file"));
    }
    let version = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
    if version != VERSION {
        return Err(ReadError::Format("unsupported format version"));
    }
    let series_len = u32::from_le_bytes(header[12..16].try_into().expect("4 bytes")) as usize;
    let count = u64::from_le_bytes(header[16..24].try_into().expect("8 bytes")) as usize;
    if series_len == 0 {
        return Err(ReadError::Data(Error::InvalidSeriesLength(0)));
    }
    let total = count
        .checked_mul(series_len)
        .ok_or(ReadError::Format("size overflow"))?;
    // The header's count is untrusted: nothing is sized by it until the
    // file's length agrees.
    let payload = file.metadata()?.len().checked_sub(HEADER_BYTES as u64);
    if payload != (total as u64).checked_mul(4) {
        return Err(ReadError::Format("payload size disagrees with header"));
    }
    let mut values = crate::types::zeroed_with_headroom(total);
    let mut bytes = vec![0u8; CHUNK_BYTES];
    for dst in values[..total].chunks_mut(CHUNK_BYTES / 4) {
        let bytes = &mut bytes[..dst.len() * 4];
        file.read_exact(bytes)?;
        for (v, b) in dst.iter_mut().zip(bytes.chunks_exact(4)) {
            *v = f32::from_le_bytes(b.try_into().expect("4 bytes"));
        }
    }
    Dataset::with_spare(values, total, series_len).map_err(ReadError::Data)
}

/// Streaming XXH64 (Collet's xxHash64, seed 0), the checksum of every
/// file the repo writes: four 64-bit lanes each take one word of a
/// 32-byte stripe, so it runs at memory speed. Any split of the input across [`Xxh64::update`] calls
/// gives the same digest.
#[derive(Debug, Clone)]
pub struct Xxh64 {
    lanes: [u64; 4],
    /// Input not yet consumed as a whole stripe.
    pending: [u8; 32],
    pending_len: usize,
    total: u64,
}

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

fn round(acc: u64, word: u64) -> u64 {
    let acc = acc.wrapping_add(word.wrapping_mul(P2));
    acc.rotate_left(31).wrapping_mul(P1)
}

fn le_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"))
}

impl Default for Xxh64 {
    fn default() -> Self {
        Self {
            lanes: [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()],
            pending: [0; 32],
            pending_len: 0,
            total: 0,
        }
    }
}

impl Xxh64 {
    fn stripe(&mut self, words: [u64; 4]) {
        for (lane, word) in self.lanes.iter_mut().zip(words) {
            *lane = round(*lane, word);
        }
    }

    fn stripe_bytes(&mut self, s: &[u8]) {
        self.stripe(std::array::from_fn(|i| le_u64(&s[8 * i..])));
    }

    /// Mixes `bytes` into the state.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.total += bytes.len() as u64;
        if self.pending_len > 0 {
            let take = (32 - self.pending_len).min(bytes.len());
            self.pending[self.pending_len..][..take].copy_from_slice(&bytes[..take]);
            (self.pending_len, bytes) = (self.pending_len + take, &bytes[take..]);
            if self.pending_len < 32 {
                return;
            }
            let stripe = self.pending;
            self.stripe_bytes(&stripe);
        }
        let stripes = bytes.chunks_exact(32);
        let rest = stripes.remainder();
        stripes.for_each(|s| self.stripe_bytes(s));
        self.pending[..rest.len()].copy_from_slice(rest);
        self.pending_len = rest.len();
    }

    /// The digest of everything mixed in so far.
    pub fn finish(&self) -> u64 {
        let mut h = if self.total < 32 {
            P5
        } else {
            let [a, b, c, d] = self.lanes;
            let h = a
                .rotate_left(1)
                .wrapping_add(b.rotate_left(7))
                .wrapping_add(c.rotate_left(12))
                .wrapping_add(d.rotate_left(18));
            let merge =
                |h: u64, lane: &u64| (h ^ round(0, *lane)).wrapping_mul(P1).wrapping_add(P4);
            self.lanes.iter().fold(h, merge)
        };
        h = h.wrapping_add(self.total);
        let mut tail = &self.pending[..self.pending_len];
        while tail.len() >= 8 {
            h = (h ^ round(0, le_u64(tail))).rotate_left(27);
            h = h.wrapping_mul(P1).wrapping_add(P4);
            tail = &tail[8..];
        }
        if tail.len() >= 4 {
            let word = u32::from_le_bytes(tail[..4].try_into().expect("4 bytes"));
            h = (h ^ u64::from(word).wrapping_mul(P1)).rotate_left(23);
            h = h.wrapping_mul(P2).wrapping_add(P3);
            tail = &tail[4..];
        }
        for &byte in tail {
            h = (h ^ u64::from(byte).wrapping_mul(P5))
                .rotate_left(11)
                .wrapping_mul(P1);
        }
        h = (h ^ h >> 33).wrapping_mul(P2);
        h = (h ^ h >> 29).wrapping_mul(P3);
        h ^ h >> 32
    }
}

/// XXH64 (seed 0) of `bytes`.
pub fn xxh64(bytes: &[u8]) -> u64 {
    let mut h = Xxh64::default();
    h.update(bytes);
    h.finish()
}

/// XXH64 of `values`' little-endian bytes, hashed in place: each stripe
/// word is two `to_bits()` patterns, so a dataset fingerprint never
/// copies the collection into a byte buffer.
pub fn xxh64_f32(values: &[f32]) -> u64 {
    let mut h = Xxh64::default();
    let stripes = values.chunks_exact(8);
    let rest = stripes.remainder();
    for s in stripes {
        let word =
            |i: usize| u64::from(s[2 * i].to_bits()) | u64::from(s[2 * i + 1].to_bits()) << 32;
        h.stripe([word(0), word(1), word(2), word(3)]);
    }
    h.total = 4 * (values.len() - rest.len()) as u64;
    rest.iter().for_each(|v| h.update(&v.to_le_bytes()));
    h.finish()
}

/// Appends fixed-width little-endian values to a growing byte buffer.
#[derive(Debug, Default)]
pub struct PayloadWriter {
    buf: Vec<u8>,
}

impl PayloadWriter {
    /// An empty payload.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty payload with room for `bytes` bytes, for writers that
    /// know their final size.
    pub fn with_capacity(bytes: usize) -> Self {
        Self {
            buf: Vec::with_capacity(bytes),
        }
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f32` as its little-endian bit pattern.
    pub fn put_f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends every value as [`PayloadWriter::put_f32`] would, in one
    /// pass over one reservation.
    pub fn put_f32_slice(&mut self, values: &[f32]) {
        let start = self.buf.len();
        self.buf.resize(start + values.len() * 4, 0);
        for (dst, v) in self.buf[start..].chunks_exact_mut(4).zip(values) {
            dst.copy_from_slice(&v.to_le_bytes());
        }
    }

    /// Appends raw bytes verbatim.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The finished payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Consumes fixed-width little-endian values from a byte buffer,
/// reporting truncation instead of panicking — the defensive half of
/// [`PayloadWriter`] for reading possibly-corrupt files.
#[derive(Debug)]
pub struct PayloadReader<'a> {
    buf: &'a [u8],
}

impl<'a> PayloadReader<'a> {
    /// Reads from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], &'static str> {
        if self.buf.len() < n {
            return Err("truncated payload");
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    /// Consumes one byte.
    pub fn take_u8(&mut self) -> Result<u8, &'static str> {
        Ok(self.take(1)?[0])
    }

    /// Consumes a little-endian `u16`.
    pub fn take_u16(&mut self) -> Result<u16, &'static str> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }

    /// Consumes a little-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32, &'static str> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    /// Consumes a little-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64, &'static str> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Consumes `n` raw bytes.
    pub fn take_bytes(&mut self, n: usize) -> Result<&'a [u8], &'static str> {
        self.take(n)
    }

    /// Unconsumed bytes.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }
}

/// Errors from [`read_dataset`].
#[derive(Debug)]
pub enum ReadError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structurally malformed file.
    Format(&'static str),
    /// Well-formed file with invalid dataset content.
    Data(Error),
}

impl From<std::io::Error> for ReadError {
    fn from(e: std::io::Error) -> Self {
        ReadError::Io(e)
    }
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Io(e) => write!(f, "i/o error: {e}"),
            ReadError::Format(what) => write!(f, "malformed dataset file: {what}"),
            ReadError::Data(e) => write!(f, "invalid dataset content: {e}"),
        }
    }
}

impl std::error::Error for ReadError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{self, DatasetKind};

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("messi-io-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let ds = gen::generate(DatasetKind::RandomWalk, 37, 5);
        let path = tmp("roundtrip.mds");
        write_dataset(&ds, &path).unwrap();
        let back = read_dataset(&path).unwrap();
        assert_eq!(ds, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_read_dataset_has_headroom_to_append_in_place() {
        let ds = gen::generate(DatasetKind::RandomWalk, 40, 6);
        let path = tmp("headroom.mds");
        write_dataset(&ds, &path).unwrap();
        let read = read_dataset(&path).unwrap();
        let tail = gen::generate(DatasetKind::RandomWalk, 20, 7);
        let grown = read.append_with(tail.len(), |dst| dst.copy_from_slice(tail.as_flat()));
        assert!(std::ptr::eq(
            grown.as_flat().as_ptr(),
            read.as_flat().as_ptr()
        ));
        let bits = |values: &[f32]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(grown.view(0, 40).as_flat()), bits(ds.as_flat()));
        assert_eq!(bits(grown.view(40, 60).as_flat()), bits(tail.as_flat()));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_header_claiming_more_series_than_the_file_holds_allocates_nothing() {
        let ds = gen::generate(DatasetKind::RandomWalk, 3, 8);
        let path = tmp("liar.mds");
        write_dataset(&ds, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[16..24].copy_from_slice(&(u64::MAX / 256).to_le_bytes());
        std::fs::write(&path, bytes).unwrap();
        match read_dataset(&path) {
            Err(ReadError::Format(msg)) => assert!(msg.contains("payload"), "{msg}"),
            other => panic!("expected format error, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_failed_durable_write_keeps_the_old_file_and_leaves_no_tmp() {
        let path = tmp("durable.bin");
        write_durable(&path, |w| w.write_all(b"old contents")).unwrap();
        let err = write_durable(&path, |w| {
            w.write_all(&[0xAB; 100_000])?;
            Err(std::io::Error::other("disk full"))
        })
        .unwrap_err();
        assert_eq!(err.to_string(), "disk full");
        assert_eq!(std::fs::read(&path).unwrap(), b"old contents");
        let mut tmp_name = path.clone().into_os_string();
        tmp_name.push(".tmp");
        assert!(!Path::new(&tmp_name).exists(), "the .tmp is removed");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sync_parent_of_a_bare_file_name_syncs_the_working_directory() {
        sync_parent(Path::new("no-such-file.mds")).unwrap();
        sync_parent(&std::env::temp_dir().join("no-such-file.mds")).unwrap();
    }

    #[test]
    fn rejects_bad_magic() {
        let path = tmp("badmagic.mds");
        std::fs::write(&path, b"NOTMESSI00000000000000000000").unwrap();
        match read_dataset(&path) {
            Err(ReadError::Format(msg)) => assert!(msg.contains("magic")),
            other => panic!("expected format error, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_truncated_payload() {
        let ds = gen::generate(DatasetKind::Sald, 5, 1);
        let path = tmp("trunc.mds");
        write_dataset(&ds, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.truncate(bytes.len() - 7);
        std::fs::write(&path, bytes).unwrap();
        match read_dataset(&path) {
            Err(ReadError::Format(msg)) => assert!(msg.contains("payload")),
            other => panic!("expected format error, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_missing_file() {
        match read_dataset(&tmp("does-not-exist.mds")) {
            Err(ReadError::Io(_)) => {}
            other => panic!("expected io error, got {other:?}"),
        }
    }

    #[test]
    fn error_display_is_informative() {
        let e = ReadError::Format("bad thing");
        assert!(e.to_string().contains("bad thing"));
        let e = ReadError::Data(Error::InvalidSeriesLength(0));
        assert!(e.to_string().contains("invalid dataset content"));
    }

    #[test]
    fn payload_roundtrip_preserves_values() {
        let mut w = PayloadWriter::new();
        assert!(w.is_empty());
        w.put_u8(0xAB);
        w.put_u16(0x1234);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(0x0123_4567_89AB_CDEF);
        w.put_f32(-1.5);
        w.put_bytes(b"xyz");
        let bytes = w.into_bytes();
        let mut r = PayloadReader::new(&bytes);
        assert_eq!(r.take_u8().unwrap(), 0xAB);
        assert_eq!(r.take_u16().unwrap(), 0x1234);
        assert_eq!(r.take_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.take_u64().unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(f32::from_bits(r.take_u32().unwrap()), -1.5);
        assert_eq!(r.take_bytes(3).unwrap(), b"xyz");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn payload_reader_reports_truncation() {
        let mut r = PayloadReader::new(&[1, 2, 3]);
        assert_eq!(r.take_u16().unwrap(), 0x0201);
        assert!(r.take_u32().is_err(), "only one byte left");
        // The failed read consumes nothing.
        assert_eq!(r.remaining(), 1);
        assert_eq!(r.take_u8().unwrap(), 3);
    }

    #[test]
    fn xxh64_matches_the_reference_answers() {
        // Regression-pinned: the checksum is part of the on-disk format.
        assert_eq!(xxh64(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"abc"), 0x44BC_2CF5_AD77_0999);
    }

    #[test]
    fn streaming_xxh64_equals_one_shot_at_every_cut() {
        // Lengths 0..=100 cross the 32-byte stripe and the 8/4/1-byte
        // tails; every cut point splits the input across two updates.
        let bytes: Vec<u8> = (0..100u32).map(|i| (i * 37 + 11) as u8).collect();
        for len in 0..=bytes.len() {
            let whole = xxh64(&bytes[..len]);
            for cut in 0..=len {
                let mut h = Xxh64::default();
                h.update(&bytes[..cut]);
                h.update(&bytes[cut..len]);
                assert_eq!(h.finish(), whole, "len {len} cut {cut}");
            }
        }
    }

    #[test]
    fn xxh64_f32_hashes_the_little_endian_bytes() {
        for len in 0..=40usize {
            let values: Vec<f32> = (0..len).map(|i| (i as f32 * 0.7).sin() * 1e3).collect();
            let mut bytes = Vec::new();
            for v in &values {
                bytes.extend_from_slice(&v.to_le_bytes());
            }
            assert_eq!(xxh64_f32(&values), xxh64(&bytes), "len {len}");
        }
    }

    #[test]
    fn bulk_f32_put_matches_per_value_puts() {
        let values = [1.0f32, -2.5, 0.0, f32::MAX, f32::MIN_POSITIVE];
        let mut one_by_one = PayloadWriter::new();
        one_by_one.put_u32(7);
        for v in values {
            one_by_one.put_f32(v);
        }
        let mut bulk = PayloadWriter::with_capacity(4 + values.len() * 4);
        bulk.put_u32(7);
        bulk.put_f32_slice(&values);
        assert_eq!(bulk.into_bytes(), one_by_one.into_bytes());
    }
}
