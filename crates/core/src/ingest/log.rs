//! The framed, checksummed delta log: ingest durability.
//!
//! Every accepted ingest batch is appended as one self-checking frame
//! and `fsync`ed before the batch becomes visible to queries, so a
//! crash can lose at most the batch whose acknowledgement never went
//! out. The file layout (all integers little-endian, via the
//! [`messi_series::io`] codec):
//!
//! ```text
//! header:  "MESSILOG" | version u16 | series_len u32
//!          | base_len u64 | XXH64(base values) u64
//! frame:   payload_len u32 | payload | XXH64(payload) u64
//! payload: count u32 | count × series_len × f32
//! ```
//!
//! This build reads and writes version 2 only; an older log is refused
//! as [`LogError::Corrupt`], naming its version. A fresh log's directory
//! entry is synced ([`messi_series::io::sync_parent`]) before the first
//! append can be acknowledged, so no acked frame outlives the file name.
//!
//! The header pins the log to the exact dataset it extends (length *and*
//! content fingerprint), so replaying someone else's log over the wrong
//! snapshot fails loudly instead of silently corrupting answers. A torn
//! tail — a frame cut short by a crash mid-append, or one whose
//! checksum no longer matches — is detected during [`DeltaLog::open`],
//! reported on stderr, and truncated away so the next append starts
//! from the last durable frame. So is a torn header (a short file that
//! is a prefix of the header this open would write: no frame can
//! precede a durable header).

use messi_series::io::{sync_parent, xxh64, xxh64_f32, PayloadReader, PayloadWriter};
use messi_series::Dataset;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::Path;

/// Magic bytes opening every delta log.
const LOG_MAGIC: &[u8; 8] = b"MESSILOG";
/// Log format version, the only one this build reads.
const LOG_VERSION: u16 = 2;
/// Serialized header size in bytes (magic + version + series_len +
/// base_len + base fingerprint).
const HEADER_LEN: u64 = 8 + 2 + 4 + 8 + 8;

/// Why a delta log could not be opened or replayed.
#[derive(Debug)]
pub enum LogError {
    /// The underlying file operation failed.
    Io(std::io::Error),
    /// The header or a non-tail frame violates the format.
    Corrupt(String),
    /// The log belongs to a different dataset than the one loaded.
    Mismatch(String),
}

impl std::fmt::Display for LogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LogError::Io(e) => write!(f, "delta log I/O error: {e}"),
            LogError::Corrupt(msg) => write!(f, "delta log corrupt: {msg}"),
            LogError::Mismatch(msg) => write!(f, "delta log mismatch: {msg}"),
        }
    }
}

impl std::error::Error for LogError {}

impl From<std::io::Error> for LogError {
    fn from(e: std::io::Error) -> Self {
        LogError::Io(e)
    }
}

/// What [`DeltaLog::open`] recovered from an existing log file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Whole frames recovered and replayed.
    pub batches: usize,
    /// Total series across those frames.
    pub series: usize,
    /// Whether a torn/corrupt tail or a torn header was detected (and
    /// truncated away).
    pub torn: bool,
    /// Bytes of tail dropped by the truncation.
    pub dropped_bytes: u64,
}

/// The whole frames [`DeltaLog::open`] found, still in their on-disk
/// encoding: replay decodes every value exactly once, straight into the
/// collection buffer ([`LogFrames::decode_into`]), with no per-batch
/// `Dataset` in between.
#[derive(Debug, Default)]
pub struct LogFrames {
    raw: Vec<u8>,
    /// Byte range of each frame's values inside `raw`, in append order.
    values: Vec<Range<usize>>,
    series_len: usize,
}

impl LogFrames {
    /// Decodes every frame's values, back to back in append order, into
    /// `dst` — `ReplayReport::series × series_len` values — and returns
    /// the first non-finite one as `(series, point index)` counted from
    /// the start of `dst`, as [`Dataset::find_non_finite`] would over
    /// the decoded values. Each frame is checked while it is still in
    /// cache, so replay reads the values once.
    ///
    /// # Panics
    ///
    /// Panics if `dst` has a different length.
    pub fn decode_into(&self, mut dst: &mut [f32]) -> Option<(usize, usize)> {
        let mut first_non_finite = None;
        let mut done = 0;
        for range in &self.values {
            let (head, rest) = dst.split_at_mut(range.len() / 4);
            for (v, bytes) in head.iter_mut().zip(self.raw[range.clone()].chunks_exact(4)) {
                *v = f32::from_le_bytes(bytes.try_into().expect("4-byte chunk"));
            }
            // A branch-free sweep first: frames are almost always finite.
            if first_non_finite.is_none() && !head.iter().fold(true, |ok, v| ok & v.is_finite()) {
                let at = head.iter().position(|v| !v.is_finite()).map(|i| done + i);
                first_non_finite = at.map(|at| (at / self.series_len, at % self.series_len));
            }
            done += head.len();
            dst = rest;
        }
        assert!(
            dst.is_empty(),
            "destination longer than the replayed frames"
        );
        first_non_finite
    }
}

/// An open, append-position delta log.
///
/// Created by [`DeltaLog::open`], which also replays whatever frames the
/// file already holds. Appends go through [`DeltaLog::append`], which
/// flushes and `fsync`s before returning.
#[derive(Debug)]
pub struct DeltaLog {
    file: File,
    /// Valid byte length (header + whole frames).
    bytes: u64,
}

impl DeltaLog {
    /// Opens (or creates) the delta log at `path` that extends the
    /// collection `base`.
    ///
    /// A fresh/empty file gets a header, synced together with its
    /// directory entry, and replays nothing; so does a torn header
    /// (reported as torn). An existing file must carry a header matching
    /// `base`; its whole frames are returned (checked, not yet decoded)
    /// for the caller to replay, and a torn tail is reported loudly on
    /// stderr and truncated so the log ends on its last whole frame.
    ///
    /// # Errors
    ///
    /// [`LogError::Mismatch`] when the header pins a different dataset,
    /// [`LogError::Corrupt`] when the header itself is damaged (any
    /// short file that is not a prefix of `base`'s header included), and
    /// [`LogError::Io`] for filesystem failures.
    pub fn open(path: &Path, base: &Dataset) -> Result<(Self, LogFrames, ReplayReport), LogError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let file_len = file.metadata()?.len();
        let mut raw = Vec::with_capacity(file_len as usize);
        file.read_to_end(&mut raw)?;
        if file_len < HEADER_LEN {
            let header = header_bytes(base);
            if !header.starts_with(&raw) {
                return Err(LogError::Corrupt(format!(
                    "{file_len} bytes is shorter than the {HEADER_LEN}-byte header"
                )));
            }
            let mut report = ReplayReport::default();
            if file_len > 0 {
                eprintln!(
                    "messi: delta log {}: torn header ({file_len} of {HEADER_LEN} bytes) \
                     — rewriting it; nothing to replay",
                    path.display()
                );
                report.torn = true;
                report.dropped_bytes = file_len;
            }
            let mut log = Self { file, bytes: 0 };
            log.write_header(&header)?;
            sync_parent(path)?;
            return Ok((log, LogFrames::default(), report));
        }

        let (values, report) = decode_log(&raw, path, base)?;
        let bytes = file_len - report.dropped_bytes;
        if report.torn {
            file.set_len(bytes)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(bytes))?;
        let frames = LogFrames {
            raw,
            values,
            series_len: base.series_len(),
        };
        Ok((Self { file, bytes }, frames, report))
    }

    /// Truncates every frame and (re)writes the header over `base` — how
    /// a fresh log starts, and the compaction tail step after the grown
    /// dataset and snapshot have been saved.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn reset(&mut self, base: &Dataset) -> Result<(), LogError> {
        self.write_header(&header_bytes(base))
    }

    fn write_header(&mut self, header: &[u8]) -> Result<(), LogError> {
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        self.file.write_all(header)?;
        self.file.sync_data()?;
        self.bytes = HEADER_LEN;
        Ok(())
    }

    /// Appends one batch as a checksummed frame, flushing and
    /// `fsync`ing before returning — the durability point of an ingest.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn append(&mut self, batch: &Dataset) -> Result<(), LogError> {
        let values = batch.as_flat();
        let payload_len = 4 + values.len() * 4;
        // The whole frame in one reservation: length, payload, checksum.
        let mut w = PayloadWriter::with_capacity(4 + payload_len + 8);
        w.put_u32(payload_len as u32);
        w.put_u32(batch.len() as u32);
        w.put_f32_slice(values);
        let mut frame = w.into_bytes();
        let checksum = xxh64(&frame[4..]);
        frame.extend_from_slice(&checksum.to_le_bytes());
        self.file.write_all(&frame)?;
        self.file.sync_data()?;
        self.bytes += frame.len() as u64;
        Ok(())
    }

    /// Current valid length of the log in bytes (header + whole frames).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

/// The header that pins a log to `base`.
fn header_bytes(base: &Dataset) -> Vec<u8> {
    let mut w = PayloadWriter::with_capacity(HEADER_LEN as usize);
    w.put_bytes(LOG_MAGIC);
    w.put_u16(LOG_VERSION);
    w.put_u32(base.series_len() as u32);
    w.put_u64(base.len() as u64);
    w.put_u64(xxh64_f32(base.as_flat()));
    w.into_bytes()
}

/// Checks a whole log image of at least [`HEADER_LEN`] bytes: a header
/// that pins `base` (length *and* content fingerprint), then frames
/// until the buffer runs dry or the tail tears. Returns the byte range
/// of every whole frame's values.
fn decode_log(
    raw: &[u8],
    path: &Path,
    base: &Dataset,
) -> Result<(Vec<Range<usize>>, ReplayReport), LogError> {
    let corrupt = |msg: String| LogError::Corrupt(msg);
    let mut r = PayloadReader::new(&raw[..HEADER_LEN as usize]);
    let magic = r.take_bytes(8).map_err(|e| corrupt(e.into()))?;
    if magic != LOG_MAGIC {
        return Err(corrupt("bad magic (not a MESSI delta log)".into()));
    }
    let version = r.take_u16().map_err(|e| corrupt(e.into()))?;
    if version != LOG_VERSION {
        return Err(corrupt(format!(
            "unsupported log version {version} (this build reads {LOG_VERSION})"
        )));
    }
    let log_series_len = r.take_u32().map_err(|e| corrupt(e.into()))?;
    let log_base_len = r.take_u64().map_err(|e| corrupt(e.into()))?;
    let log_fp = r.take_u64().map_err(|e| corrupt(e.into()))?;
    let (series_len, base_len) = (base.series_len(), base.len() as u64);
    if log_series_len as usize != series_len {
        return Err(LogError::Mismatch(format!(
            "log is for series of length {log_series_len}, dataset has {series_len}"
        )));
    }
    if log_base_len != base_len {
        return Err(LogError::Mismatch(format!(
            "log extends a base of {log_base_len} series, dataset has {base_len} \
             (was the dataset rebuilt without compacting the log?)"
        )));
    }
    let base_fingerprint = xxh64_f32(base.as_flat());
    if log_fp != base_fingerprint {
        return Err(LogError::Mismatch(format!(
            "log base fingerprint {log_fp:#018x} does not match the dataset's \
             {base_fingerprint:#018x} — this log belongs to a different dataset"
        )));
    }

    let mut frames = Vec::new();
    let mut report = ReplayReport::default();
    let mut off = HEADER_LEN as usize;
    while off < raw.len() {
        match check_frame(&raw[off..], series_len) {
            Some(count) => {
                let values = off + 8..off + 8 + count * series_len * 4;
                off = values.end + 8;
                report.batches += 1;
                report.series += count;
                frames.push(values);
            }
            None => {
                report.torn = true;
                report.dropped_bytes = (raw.len() - off) as u64;
                eprintln!(
                    "messi: delta log {}: torn tail detected at byte {off} — \
                     dropping {} trailing byte(s); {} whole batch(es) \
                     ({} series) recovered",
                    path.display(),
                    report.dropped_bytes,
                    report.batches,
                    report.series
                );
                break;
            }
        }
    }
    Ok((frames, report))
}

/// The series count of the frame at the front of `buf`, or `None` if the
/// bytes do not form a whole, checksum-valid, well-shaped frame (= torn
/// tail). The frame's values start 8 bytes in (length prefix + count).
fn check_frame(buf: &[u8], series_len: usize) -> Option<usize> {
    if buf.len() < 4 {
        return None;
    }
    let payload_len = u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize;
    let frame_len = 4usize.checked_add(payload_len)?.checked_add(8)?;
    if buf.len() < frame_len {
        return None;
    }
    let payload = &buf[4..4 + payload_len];
    let stored = u64::from_le_bytes(buf[4 + payload_len..frame_len].try_into().unwrap());
    if xxh64(payload) != stored {
        return None;
    }
    let mut r = PayloadReader::new(payload);
    let count = r.take_u32().ok()? as usize;
    (count != 0 && r.remaining() == count * series_len * 4).then_some(count)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("messi-log-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_file(&dir);
        dir
    }

    fn open(path: &Path, base: &Dataset) -> Result<(DeltaLog, LogFrames, ReplayReport), LogError> {
        DeltaLog::open(path, base)
    }

    fn batch(seed: f32, count: usize, series_len: usize) -> Dataset {
        let values: Vec<f32> = (0..count * series_len)
            .map(|i| (i as f32 * 0.25 + seed).sin())
            .collect();
        Dataset::from_flat(values, series_len).unwrap()
    }

    /// What a replay of `frames` appends, and what `batches` hold.
    fn decoded(frames: &LogFrames, report: &ReplayReport, series_len: usize) -> Vec<f32> {
        let mut out = vec![0.0; report.series * series_len];
        assert_eq!(frames.decode_into(&mut out), None);
        out
    }

    fn flat(batches: &[&Dataset]) -> Vec<f32> {
        batches.iter().flat_map(|b| b.as_flat().to_vec()).collect()
    }

    #[test]
    fn round_trips_batches_across_reopen() {
        let path = tmp("roundtrip");
        let (mut log, _, report) = open(&path, &batch(0.0, 100, 8)).unwrap();
        assert!(report.batches == 0 && !report.torn);
        let b1 = batch(1.0, 3, 8);
        let b2 = batch(2.0, 5, 8);
        log.append(&b1).unwrap();
        log.append(&b2).unwrap();
        let bytes = log.bytes();
        drop(log);

        let (log, replayed, report) = open(&path, &batch(0.0, 100, 8)).unwrap();
        assert_eq!(log.bytes(), bytes);
        assert_eq!(report.batches, 2);
        assert_eq!(report.series, 8);
        assert!(!report.torn);
        assert_eq!(decoded(&replayed, &report, 8), flat(&[&b1, &b2]));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rejects_logs_for_other_datasets() {
        let path = tmp("mismatch");
        let (log, _, _) = open(&path, &batch(0.0, 100, 8)).unwrap();
        drop(log);
        assert!(matches!(
            open(&path, &batch(0.0, 50, 16)),
            Err(LogError::Mismatch(_))
        ));
        assert!(matches!(
            open(&path, &batch(0.0, 99, 8)),
            Err(LogError::Mismatch(_))
        ));
        assert!(matches!(
            open(&path, &batch(0.5, 100, 8)),
            Err(LogError::Mismatch(_))
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_prefix_recovered() {
        let path = tmp("torn");
        let (mut log, _, _) = open(&path, &batch(0.0, 10, 4)).unwrap();
        let b1 = batch(3.0, 2, 4);
        let b2 = batch(4.0, 3, 4);
        log.append(&b1).unwrap();
        log.append(&b2).unwrap();
        let good = log.bytes();
        drop(log);

        // Simulate a crash mid-append: a third frame cut short.
        let mut raw = std::fs::read(&path).unwrap();
        raw.extend_from_slice(&100u32.to_le_bytes());
        raw.extend_from_slice(&[0xAB; 17]);
        std::fs::write(&path, &raw).unwrap();

        let (log, replayed, report) = open(&path, &batch(0.0, 10, 4)).unwrap();
        assert!(report.torn);
        assert_eq!(report.dropped_bytes, 21);
        assert_eq!(report.batches, 2);
        assert_eq!(decoded(&replayed, &report, 4), flat(&[&b1, &b2]));
        assert_eq!(log.bytes(), good, "file truncated back to last frame");
        drop(log);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), good);

        // A flipped payload byte (checksum mismatch) also tears the tail.
        let mut raw = std::fs::read(&path).unwrap();
        let last = raw.len() - 10;
        raw[last] ^= 0xFF;
        std::fs::write(&path, &raw).unwrap();
        let (_, replayed, report) = open(&path, &batch(0.0, 10, 4)).unwrap();
        assert!(report.torn);
        assert_eq!(report.batches, 1, "only the first frame survives");
        assert_eq!(decoded(&replayed, &report, 4), flat(&[&b1]));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reset_truncates_to_a_fresh_header() {
        let path = tmp("reset");
        let (mut log, _, _) = open(&path, &batch(0.0, 10, 4)).unwrap();
        log.append(&batch(1.0, 2, 4)).unwrap();
        log.reset(&batch(9.0, 12, 4)).unwrap();
        assert_eq!(log.bytes(), HEADER_LEN);
        drop(log);
        let (log, _, report) = open(&path, &batch(9.0, 12, 4)).unwrap();
        assert!(report.batches == 0 && !report.torn);
        assert_eq!(log.bytes(), HEADER_LEN);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_v1_log_is_refused_naming_its_version() {
        let path = tmp("legacy");
        let base = batch(0.0, 64, 16);
        let (mut log, _, _) = open(&path, &base).unwrap();
        log.append(&batch(1.0, 3, 16)).unwrap();
        drop(log);
        let mut raw = std::fs::read(&path).unwrap();
        raw[8..10].copy_from_slice(&1u16.to_le_bytes());
        std::fs::write(&path, &raw).unwrap();
        match open(&path, &base) {
            Err(LogError::Corrupt(msg)) => assert!(msg.contains("version 1"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        assert_eq!(
            std::fs::read(&path).unwrap(),
            raw,
            "a refused log is untouched"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_torn_header_reopens_as_an_empty_log() {
        let path = tmp("torn-header");
        let base = batch(0.0, 10, 4);
        let header = header_bytes(&base);
        for len in 1..HEADER_LEN as usize {
            std::fs::write(&path, &header[..len]).unwrap();
            let (log, replayed, report) = open(&path, &base).unwrap();
            let expected = ReplayReport {
                torn: true,
                dropped_bytes: len as u64,
                ..ReplayReport::default()
            };
            assert_eq!(report, expected, "{len}-byte header");
            assert!(replayed.values.is_empty());
            assert_eq!(log.bytes(), HEADER_LEN);
            drop(log);
            assert_eq!(std::fs::read(&path).unwrap(), header, "rewritten whole");
        }
        // A short file that is not a prefix of this header stays corrupt.
        std::fs::write(&path, [0x55u8; 10]).unwrap();
        assert!(matches!(open(&path, &base), Err(LogError::Corrupt(_))));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn every_truncation_and_bit_flip_replays_only_the_whole_frames_before_it() {
        let path = tmp("sweep");
        let base = batch(0.0, 10, 4);
        let (b1, b2) = (batch(1.0, 2, 4), batch(2.0, 3, 4));
        let (mut log, _, _) = open(&path, &base).unwrap();
        log.append(&b1).unwrap();
        let first_end = log.bytes() as usize;
        log.append(&b2).unwrap();
        drop(log);
        let original = std::fs::read(&path).unwrap();
        let header = HEADER_LEN as usize;
        for at in 0..original.len() {
            let mut flipped = original.clone();
            flipped[at] ^= 1 << (at % 8);
            for (damaged, truncated) in [(&original[..at], true), (&flipped[..], false)] {
                std::fs::write(&path, damaged).unwrap();
                // The frames lying wholly before the damage.
                let intact: Vec<&Dataset> = [(first_end, &b1), (original.len(), &b2)]
                    .into_iter()
                    .filter(|&(end, _)| end <= at)
                    .map(|(_, b)| b)
                    .collect();
                match open(&path, &base) {
                    Ok((_, replayed, report)) => {
                        assert_eq!(report.batches, intact.len(), "byte {at}");
                        assert_eq!(decoded(&replayed, &report, 4), flat(&intact));
                        let clean_cut = truncated && [0, header, first_end].contains(&at);
                        assert_eq!(report.torn, !clean_cut, "byte {at}");
                    }
                    Err(LogError::Corrupt(_) | LogError::Mismatch(_)) => {
                        assert!(!truncated && at < header, "byte {at}")
                    }
                    Err(e) => panic!("byte {at}: {e}"),
                }
            }
        }
        std::fs::remove_file(&path).unwrap();
    }
}
