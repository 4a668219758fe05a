//! Index snapshot persistence.
//!
//! The arena layout ([`crate::node`]) makes the index a handful of flat
//! arrays, so the whole structure — configuration, per-subtree node
//! records, packed leaf pools, and mindist scales — serializes to one
//! versioned, checksummed file. A server can then `messi build --save`
//! once and answer queries from `--load`ed snapshots.
//!
//! ## Sealed container (little-endian throughout)
//!
//! ```text
//! [0..8)    magic   b"MESSIIDX"
//! [8..12)   format version (u32)
//! [12..20)  payload length in bytes (u64)
//! [20..+n)  payload (see below)
//! [+n..+n+8) XXH64 of the payload
//! ```
//!
//! `seal` writes this framing and `unseal` is its one reader; the
//! shard manifest ([`crate::shard`]) is the same container under its own
//! magic. Files are written through [`messi_series::io::write_durable`],
//! so a save is all-or-nothing and durable once it returns. This build
//! reads only the version it writes (3): older snapshots are refused
//! with [`PersistError::Version`].
//!
//! The payload carries the [`IndexConfig`], a dataset fingerprint
//! (shape + content hash — snapshots store tree structure, not raw
//! series), the mindist scales, and each touched root subtree as its raw
//! arena: node records then pool entries.
//!
//! ## Loading is rebuilding
//!
//! The buffered build is a function of its data: any worker count and
//! chunk schedule give the same arenas, so the same payload bytes. A
//! load therefore decodes nothing past the header. It range-checks the
//! stored configuration, checks the dataset's shape, rebuilds the index
//! at that configuration on all cores, encodes it and compares the
//! result with the stored payload. A snapshot is accepted only if it is
//! byte for byte the index its dataset determines, so a torn or tampered
//! file — even one with a correctly resealed checksum — fails with a
//! [`PersistError`] naming the first section that differs, instead of
//! producing a quietly wrong index. The dataset is hashed once, before
//! the build: a fingerprint that differs from the stored one is refused
//! as [`PersistError::DatasetMismatch`] without building anything. An
//! accepted load costs that hash, a build and one encoding; nothing of
//! the file beyond its header is ever trusted.
//!
//! Format 3's config section holds a build-variant byte. The one build
//! writes 0, and a load refuses any other value as
//! [`PersistError::Corrupt`].

use crate::config::{capped_workers, IndexConfig};
use crate::index::MessiIndex;
use crate::node::{NodeRecord, PartScratch, SaxEntry};
use messi_sax::word::{NodeWord, MAX_SEGMENTS};
use messi_series::io::{write_durable, xxh64, xxh64_f32, PayloadReader, PayloadWriter};
use messi_series::Dataset;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;

/// File magic: `MESSIIDX`.
const MAGIC: [u8; 8] = *b"MESSIIDX";
/// Snapshot format version, the only one this build reads: the payload
/// is sealed and the dataset fingerprinted with XXH64. The leaf symbol
/// columns and run metadata are derived state, never serialized; a load
/// rebuilds them with the rest of the index.
pub const FORMAT_VERSION: u32 = 3;
/// Bytes before a sealed container's payload: magic, version, length.
const SEAL_HEADER: usize = 20;

/// Errors from loading (or, for `Io`, saving) an index snapshot.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file does not start with the snapshot magic.
    BadMagic,
    /// The file uses an unsupported format version.
    Version {
        /// Version found in the file.
        found: u32,
        /// Version this build reads.
        expected: u32,
    },
    /// The file is structurally damaged (truncation, checksum mismatch,
    /// or invalid content).
    Corrupt(String),
    /// The snapshot was built over a different dataset than the one
    /// supplied at load time.
    DatasetMismatch(String),
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "i/o error: {e}"),
            PersistError::BadMagic => write!(f, "not a MESSI index snapshot (bad magic)"),
            PersistError::Version { found, expected } => write!(
                f,
                "unsupported snapshot version {found} (this build reads {expected})"
            ),
            PersistError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
            PersistError::DatasetMismatch(what) => {
                write!(f, "snapshot/dataset mismatch: {what}")
            }
        }
    }
}

impl std::error::Error for PersistError {}

/// Saves `index` as a snapshot file at `path`, all-or-nothing and
/// durable ([`write_durable`]): an interrupted save (crash, Ctrl-C, full
/// disk) never destroys a previous good snapshot.
///
/// # Errors
///
/// Any I/O error from creating, writing, or renaming the file.
pub fn save_index(index: &MessiIndex, path: &Path) -> Result<(), PersistError> {
    let (payload, _) = encode_payload(index, fingerprint(index.dataset()));
    write_durable(path, |w| seal(w, &MAGIC, FORMAT_VERSION, &payload))?;
    Ok(())
}

/// Loads a snapshot previously written by [`save_index`], pairing it
/// with `dataset` (snapshots store tree structure, not raw series): the
/// index is rebuilt from `dataset` at the stored configuration and
/// accepted only if it encodes to exactly the stored payload.
///
/// # Errors
///
/// [`PersistError::Io`] for filesystem problems; [`PersistError::
/// BadMagic`] / [`PersistError::Version`] for foreign, older or future
/// files; [`PersistError::Corrupt`] for truncation, checksum mismatches,
/// an out-of-range configuration, or content that is not the index the
/// dataset determines; [`PersistError::DatasetMismatch`] when `dataset`
/// is not the collection the snapshot was built over.
pub fn load_index(path: &Path, dataset: Arc<Dataset>) -> Result<MessiIndex, PersistError> {
    let bytes = std::fs::read(path)?;
    let stored = unseal(&bytes, &MAGIC, FORMAT_VERSION)?;
    let (config, stored_hash) = read_header(stored, &dataset)?;
    let hash = fingerprint(&dataset);
    if hash != stored_hash {
        return Err(PersistError::DatasetMismatch(
            "dataset content hash differs — same shape, different values".into(),
        ));
    }
    let build = load_build_config(&config);
    let (mut index, _) = crate::build::build_index(dataset, &build);
    // The header is compared as stored: neither replaced field changes
    // the index.
    index.config = config;
    let (built, sections) = encode_payload(&index, hash);
    if built != stored {
        return Err(first_difference(&built, &sections, stored));
    }
    Ok(index)
}

/// The configuration a load builds with: `stored` with its worker count
/// capped at the machine's cores and the default initial buffer
/// reservation, which every touched part of every worker makes. Neither
/// changes the index, and a file must never size a thread count or an
/// allocation.
fn load_build_config(stored: &IndexConfig) -> IndexConfig {
    IndexConfig {
        num_workers: capped_workers(stored.num_workers),
        initial_buffer_capacity: IndexConfig::default().initial_buffer_capacity,
        ..stored.clone()
    }
}

/// The stored configuration, range-checked so that no value can make
/// [`IndexConfig::validate`] or the build panic, and the stored dataset
/// fingerprint; the stored dataset shape is checked against `dataset`.
fn read_header(payload: &[u8], dataset: &Dataset) -> Result<(IndexConfig, u64), PersistError> {
    let corrupt = |what: &str| PersistError::Corrupt(what.into());
    let mut r = PayloadReader::new(payload);
    let segments = r.take_u32().map_err(corrupt)? as usize;
    let num_workers = r.take_u32().map_err(corrupt)? as usize;
    let chunk_size = r.take_u64().map_err(corrupt)? as usize;
    let leaf_capacity = r.take_u64().map_err(corrupt)? as usize;
    let initial_buffer_capacity = r.take_u64().map_err(corrupt)? as usize;
    let variant = r.take_u8().map_err(corrupt)?;
    if variant != 0 {
        return Err(PersistError::Corrupt(format!(
            "unknown build variant {variant}"
        )));
    }
    if segments == 0
        || segments > MAX_SEGMENTS
        || num_workers == 0
        || chunk_size == 0
        || leaf_capacity == 0
    {
        return Err(corrupt("configuration out of range"));
    }
    let series_len = r.take_u32().map_err(corrupt)? as usize;
    let num_series = r.take_u64().map_err(corrupt)? as usize;
    let fingerprint = r.take_u64().map_err(corrupt)?;
    if series_len != dataset.series_len() || num_series != dataset.len() {
        return Err(PersistError::DatasetMismatch(format!(
            "snapshot indexes {num_series} series × {series_len} points, \
             dataset holds {} × {}",
            dataset.len(),
            dataset.series_len()
        )));
    }
    if segments > series_len {
        return Err(corrupt("more segments than points"));
    }
    if num_series == 0 || num_series > u32::MAX as usize {
        return Err(PersistError::Corrupt(format!(
            "no snapshot indexes {num_series} series"
        )));
    }
    let config = IndexConfig {
        segments,
        num_workers,
        chunk_size,
        leaf_capacity,
        initial_buffer_capacity,
    };
    Ok((config, fingerprint))
}

/// Writes `payload` as a sealed container: `magic | version u32 | len
/// u64 | payload | XXH64(payload)`.
pub(crate) fn seal(
    w: &mut impl Write,
    magic: &[u8; 8],
    version: u32,
    payload: &[u8],
) -> std::io::Result<()> {
    w.write_all(magic)?;
    w.write_all(&version.to_le_bytes())?;
    w.write_all(&(payload.len() as u64).to_le_bytes())?;
    w.write_all(payload)?;
    w.write_all(&xxh64(payload).to_le_bytes())
}

/// The payload of a container written by [`seal`], checked in order:
/// magic ([`PersistError::BadMagic`]), version ([`PersistError::
/// Version`]), then length and checksum ([`PersistError::Corrupt`]).
pub(crate) fn unseal<'a>(
    bytes: &'a [u8],
    magic: &[u8; 8],
    version: u32,
) -> Result<&'a [u8], PersistError> {
    if !bytes.starts_with(magic) {
        return Err(PersistError::BadMagic);
    }
    if bytes.len() < SEAL_HEADER {
        return Err(PersistError::Corrupt("truncated header".into()));
    }
    let found = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if found != version {
        return Err(PersistError::Version {
            found,
            expected: version,
        });
    }
    let len = u64::from_le_bytes(bytes[12..SEAL_HEADER].try_into().expect("8 bytes"));
    let body = &bytes[SEAL_HEADER..];
    if (body.len() as u64).checked_sub(8) != Some(len) {
        return Err(PersistError::Corrupt(format!(
            "file is {} bytes, header promises a {len}-byte payload",
            bytes.len()
        )));
    }
    let (payload, sum) = body.split_at(body.len() - 8);
    let stored = u64::from_le_bytes(sum.try_into().expect("8 bytes"));
    let actual = xxh64(payload);
    if stored != actual {
        return Err(PersistError::Corrupt(format!(
            "checksum mismatch (stored {stored:#018x}, computed {actual:#018x})"
        )));
    }
    Ok(payload)
}

/// A stretch of the payload, as a difference names it.
#[derive(Debug, Clone, Copy)]
enum Section {
    Config,
    Fingerprint,
    Scales,
    SubtreeCount,
    Key(usize),
}

impl std::fmt::Display for Section {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Section::Config => write!(f, "config"),
            Section::Fingerprint => write!(f, "fingerprint"),
            Section::Scales => write!(f, "scales"),
            Section::SubtreeCount => write!(f, "subtree count"),
            Section::Key(key) => write!(f, "root key {key}"),
        }
    }
}

/// Why `stored` is not `built`, the payload its dataset determines,
/// whose sections end where `sections` says: the first section that
/// differs (or runs past the stored bytes), named as
/// [`PersistError::Corrupt`].
fn first_difference(built: &[u8], sections: &[(Section, usize)], stored: &[u8]) -> PersistError {
    let mut start = 0;
    for &(section, end) in sections {
        if stored.get(start..end) != Some(&built[start..end]) {
            return PersistError::Corrupt(format!("{section} differs from the rebuilt index"));
        }
        start = end;
    }
    PersistError::Corrupt("trailing bytes after the last subtree".into())
}

/// The content hash a snapshot stores for its dataset.
fn fingerprint(dataset: &Dataset) -> u64 {
    xxh64_f32(dataset.as_flat())
}

/// The payload of `index`, whose dataset hashes to `fingerprint`, and
/// the end offset of each of its sections.
fn encode_payload(index: &MessiIndex, fingerprint: u64) -> (Vec<u8>, Vec<(Section, usize)>) {
    let mut w = PayloadWriter::new();
    let config = index.config();
    w.put_u32(config.segments as u32);
    w.put_u32(config.num_workers as u32);
    w.put_u64(config.chunk_size as u64);
    w.put_u64(config.leaf_capacity as u64);
    w.put_u64(config.initial_buffer_capacity as u64);
    w.put_u8(0); // the build variant

    let dataset = index.dataset();
    w.put_u32(dataset.series_len() as u32);
    w.put_u64(dataset.len() as u64);
    let mut sections = vec![(Section::Config, w.len())];
    w.put_u64(fingerprint);
    sections.push((Section::Fingerprint, w.len()));

    w.put_u32(index.scales().len() as u32);
    for &s in index.scales() {
        w.put_f32(s);
    }
    sections.push((Section::Scales, w.len()));

    w.put_u32(index.touched_keys().len() as u32);
    sections.push((Section::SubtreeCount, w.len()));
    let mut scratch = PartScratch::default();
    for &key in index.touched_keys() {
        // Copy the per-key subtree back out of its (possibly shared)
        // forest arena, at standalone ids/offsets and with its summaries
        // gathered from the columns — the exact bytes a solo per-key
        // arena would have written, so the format is unchanged by forest
        // grouping.
        let (arena, root) = index.key_root(key).expect("touched ⇒ present");
        scratch.clear();
        arena.copy_subtree(key, root, &mut scratch);
        put_subtree(&mut w, key, &scratch.nodes, &scratch.pool);
        sections.push((Section::Key(key), w.len()));
    }
    (w.into_bytes(), sections)
}

/// One stored subtree: its key, its counts, its node records, then its
/// pool entries.
fn put_subtree(w: &mut PayloadWriter, key: usize, nodes: &[NodeRecord], pool: &[SaxEntry]) {
    w.put_u32(key as u32);
    w.put_u32(nodes.len() as u32);
    w.put_u32(pool.len() as u32);
    for rec in nodes {
        put_node_word(w, &rec.word);
        w.put_u8(rec.tag);
        w.put_u32(rec.lo);
        w.put_u32(rec.hi);
    }
    for e in pool {
        w.put_bytes(e.sax.symbols());
        w.put_u32(e.pos);
    }
}

fn put_node_word(w: &mut PayloadWriter, word: &NodeWord) {
    for i in 0..MAX_SEGMENTS {
        w.put_u16(word.symbol(i));
    }
    for i in 0..MAX_SEGMENTS {
        w.put_u8(word.bits(i));
    }
}

/// What [`load_index`] makes of the snapshot of `index` with the
/// subtree stored for its first touched key replaced by `nodes` over
/// `pool` (ids and pool offsets counting from zero), the file otherwise
/// intact and correctly sealed: how tests hand the loader raw records.
#[cfg(test)]
pub(crate) fn load_with_first_subtree(
    index: &MessiIndex,
    nodes: &[NodeRecord],
    pool: &[SaxEntry],
) -> Result<MessiIndex, PersistError> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static FILES: AtomicUsize = AtomicUsize::new(0);
    let (payload, sections) = encode_payload(index, fingerprint(index.dataset()));
    // Config, fingerprint, scales, subtree count, then the first key.
    let (start, end) = (sections[3].1, sections[4].1);
    let mut w = PayloadWriter::new();
    put_subtree(&mut w, index.touched_keys()[0], nodes, pool);
    let forged = [&payload[..start], &w.into_bytes(), &payload[end..]].concat();
    let mut bytes = Vec::new();
    seal(&mut bytes, &MAGIC, FORMAT_VERSION, &forged)?;
    let path = std::env::temp_dir().join(format!(
        "messi-subtree-test-{}-{}.msx",
        std::process::id(),
        FILES.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&path, &bytes)?;
    let loaded = load_index(&path, Arc::clone(index.dataset()));
    std::fs::remove_file(&path).ok();
    loaded
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::QueryConfig;
    use messi_series::gen::{self, DatasetKind};

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("messi-persist-test-{}-{name}", std::process::id()));
        p
    }

    fn build_small() -> (Arc<Dataset>, MessiIndex) {
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 300, 23));
        let (index, _) = MessiIndex::build(Arc::clone(&data), &IndexConfig::for_tests());
        (data, index)
    }

    #[test]
    fn roundtrip_preserves_structure_and_answers() {
        let (data, index) = build_small();
        let path = tmp("roundtrip.msx");
        save_index(&index, &path).unwrap();
        let loaded = load_index(&path, Arc::clone(&data)).unwrap();
        assert_eq!(loaded.touched_keys(), index.touched_keys());
        assert_eq!(loaded.num_leaves(), index.num_leaves());
        assert_eq!(loaded.max_height(), index.max_height());
        assert_eq!(loaded.num_entries(), index.num_entries());
        assert_eq!(loaded.scales(), index.scales());
        assert_eq!(loaded.config(), index.config());
        assert!(crate::validate::validate(&loaded).is_empty());
        // Loaded arenas stay allocation-flat.
        for &key in loaded.touched_keys() {
            assert!(loaded.root(key).unwrap().allocation_flat());
        }
        // Answers are bit-identical.
        let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 3, 23);
        let config = QueryConfig::for_tests();
        for q in queries.iter() {
            let (a, _) = index.search(q, &config);
            let (b, _) = loaded.search(q, &config);
            assert_eq!(a, b);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let path = tmp("badmagic.msx");
        std::fs::write(&path, b"NOTANIDXaaaaaaaaaaaaaaaaaaaa").unwrap();
        let (data, _) = build_small();
        match load_index(&path, Arc::clone(&data)) {
            Err(PersistError::BadMagic) => {}
            other => panic!("expected BadMagic, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
        // Valid file with a bumped version byte.
        let (data, index) = build_small();
        let path = tmp("version.msx");
        save_index(&index, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8] = FORMAT_VERSION as u8 + 1;
        std::fs::write(&path, &bytes).unwrap();
        match load_index(&path, data) {
            Err(PersistError::Version { found, expected }) => {
                assert_eq!(found, FORMAT_VERSION + 1);
                assert_eq!(expected, FORMAT_VERSION);
            }
            other => panic!("expected Version, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    /// Saves `index`, patches the version field of the file to `version`
    /// and returns what `load_index` makes of it.
    fn load_as_version(
        index: &MessiIndex,
        data: &Arc<Dataset>,
        version: u32,
        name: &str,
    ) -> Result<MessiIndex, PersistError> {
        let path = tmp(name);
        save_index(index, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let loaded = load_index(&path, Arc::clone(data));
        std::fs::remove_file(&path).ok();
        loaded
    }

    #[test]
    fn loads_version_1_snapshots() {
        // Version 1 was FNV-1a sealed and is no longer read: loading one
        // fails cleanly by its version field, before its contents are
        // looked at. It must be re-saved by a build that still reads it.
        let (data, index) = build_small();
        match load_as_version(&index, &data, 1, "v1.msx") {
            Err(PersistError::Version { found, expected }) => {
                assert_eq!((found, expected), (1, FORMAT_VERSION));
                assert_eq!(expected, 3);
            }
            other => panic!("expected Version for v1, got {other:?}"),
        }
    }

    #[test]
    fn version_2_snapshots_load_and_answer_identically() {
        // Version 2 was FNV-1a sealed too and is refused by its version;
        // the same index re-saved at the current version loads and
        // answers bit-identically to the one built in memory.
        let (data, index) = build_small();
        match load_as_version(&index, &data, 2, "v2.msx") {
            Err(PersistError::Version { found, expected }) => {
                assert_eq!((found, expected), (2, FORMAT_VERSION));
            }
            other => panic!("expected Version for v2, got {other:?}"),
        }
        let loaded = load_as_version(&index, &data, FORMAT_VERSION, "v3.msx").unwrap();
        let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 3, 23);
        let config = QueryConfig::for_tests();
        for q in queries.iter() {
            assert_eq!(index.search(q, &config).0, loaded.search(q, &config).0);
        }
    }

    #[test]
    fn every_truncation_and_bit_flip_fails_cleanly() {
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 64, 31));
        let (index, _) = MessiIndex::build(Arc::clone(&data), &IndexConfig::for_tests());
        let path = tmp("sweep.msx");
        save_index(&index, &path).unwrap();
        let original = std::fs::read(&path).unwrap();
        for at in 0..original.len() {
            let mut flipped = original.clone();
            flipped[at] ^= 1 << (at % 8);
            for damaged in [&original[..at], &flipped[..]] {
                std::fs::write(&path, damaged).unwrap();
                assert!(
                    load_index(&path, Arc::clone(&data)).is_err(),
                    "damage at byte {at} of {} loaded",
                    original.len()
                );
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_flipped_payload_byte_and_truncation() {
        let (data, index) = build_small();
        let path = tmp("corrupt.msx");
        save_index(&index, &path).unwrap();
        let original = std::fs::read(&path).unwrap();
        // Flip one payload byte: the checksum must catch it.
        let mut flipped = original.clone();
        let mid = 20 + (flipped.len() - 28) / 2;
        flipped[mid] ^= 0x5A;
        std::fs::write(&path, &flipped).unwrap();
        match load_index(&path, Arc::clone(&data)) {
            Err(PersistError::Corrupt(msg)) => assert!(msg.contains("checksum"), "{msg}"),
            other => panic!("expected checksum corruption, got {other:?}"),
        }
        // Truncate: the length header must catch it.
        let mut short = original;
        short.truncate(short.len() - 9);
        std::fs::write(&path, &short).unwrap();
        match load_index(&path, data) {
            Err(PersistError::Corrupt(_)) => {}
            other => panic!("expected truncation corruption, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_wrong_dataset() {
        let (_, index) = build_small();
        let path = tmp("mismatch.msx");
        save_index(&index, &path).unwrap();
        // Same shape, different seed → content-hash mismatch.
        let other = Arc::new(gen::generate(DatasetKind::RandomWalk, 300, 24));
        match load_index(&path, other) {
            Err(PersistError::DatasetMismatch(msg)) => assert!(msg.contains("hash"), "{msg}"),
            other => panic!("expected DatasetMismatch, got {other:?}"),
        }
        // Different shape → shape mismatch.
        let small = Arc::new(gen::generate(DatasetKind::RandomWalk, 10, 23));
        match load_index(&path, small) {
            Err(PersistError::DatasetMismatch(_)) => {}
            other => panic!("expected DatasetMismatch, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    /// Patches payload bytes of a snapshot file and re-seals the
    /// checksum, simulating an attacker who can forge valid containers.
    fn reseal(bytes: &[u8], patch_at: usize, patch: &[u8]) -> Vec<u8> {
        let mut out = bytes.to_vec();
        out[20 + patch_at..20 + patch_at + patch.len()].copy_from_slice(patch);
        let payload_len = out.len() - 28;
        let sum = xxh64(&out[20..20 + payload_len]);
        let at = 20 + payload_len;
        out[at..at + 8].copy_from_slice(&sum.to_le_bytes());
        out
    }

    /// Serialized bytes per node record: word (16×u16 + 16×u8) + tag + lo + hi.
    const NODE_WIRE_BYTES: usize = 2 * MAX_SEGMENTS + MAX_SEGMENTS + 1 + 4 + 4;
    /// Serialized bytes per subtree header: key + node count + entry count.
    const SUBTREE_HEADER_BYTES: usize = 12;

    /// `payload` in a sealed snapshot container.
    fn sealed(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        seal(&mut out, &MAGIC, FORMAT_VERSION, payload).unwrap();
        out
    }

    /// What `load_index` makes of the file `bytes`.
    fn load_bytes(
        bytes: &[u8],
        data: &Arc<Dataset>,
        name: &str,
    ) -> Result<MessiIndex, PersistError> {
        let path = tmp(name);
        std::fs::write(&path, bytes).unwrap();
        let loaded = load_index(&path, Arc::clone(data));
        std::fs::remove_file(&path).ok();
        loaded
    }

    #[test]
    fn checksum_valid_forgeries_still_fail_loudly() {
        let (data, index) = build_small();
        let path = tmp("forged.msx");
        save_index(&index, &path).unwrap();
        let original = std::fs::read(&path).unwrap();
        // Payload offsets for the for_tests config (segments = 8):
        // config 33 B, dataset fingerprint 20 B, scales 4 + 8×4 B.
        let scales_at = 33 + 20 + 4;
        let num_subtrees_at = 33 + 20 + 4 + 8 * 4;
        let first_key = index.touched_keys()[0];
        let first_subtree = format!("root key {first_key}");

        // Inflated mindist scales prune the true nearest neighbor — the
        // loader must reject them even though the checksum matches.
        let forged = reseal(&original, scales_at, &1.0e9f32.to_le_bytes());
        std::fs::write(&path, &forged).unwrap();
        match load_index(&path, Arc::clone(&data)) {
            Err(PersistError::Corrupt(msg)) => assert!(msg.contains("scales"), "{msg}"),
            other => panic!("expected scales rejection, got {other:?}"),
        }

        // A ludicrous subtree count must be a clean error, not a
        // multi-gigabyte Vec::with_capacity abort.
        let forged = reseal(&original, num_subtrees_at, &u32::MAX.to_le_bytes());
        std::fs::write(&path, &forged).unwrap();
        match load_index(&path, Arc::clone(&data)) {
            Err(PersistError::Corrupt(msg)) => {
                assert!(msg.contains("subtree count"), "{msg}")
            }
            other => panic!("expected count rejection, got {other:?}"),
        }

        // An orphaned-subtree forgery: point the first subtree's node
        // count slightly high while keeping the checksum sealed.
        let first_nodes_at = num_subtrees_at + 4 + 4;
        let forged = reseal(&original, first_nodes_at, &3u32.to_le_bytes());
        std::fs::write(&path, &forged).unwrap();
        match load_index(&path, Arc::clone(&data)) {
            Err(PersistError::Corrupt(msg)) => assert!(msg.contains(&first_subtree), "{msg}"),
            other => panic!("expected node count rejection, got {other:?}"),
        }

        // A structurally flawless forgery: tamper one leaf entry's iSAX
        // summary (the arenas stay well-formed, the checksum is
        // resealed). Without a check against the data the forged summary
        // corrupts pruning bounds and exact answers.
        // The snapshot stores per-key subtrees (copied back out of any
        // forest grouping), so the first subtree's node count is its
        // extent — not the arena's total.
        let (arena, root) = index.key_root(first_key).expect("touched");
        let (node_end, _, _) = arena.subtree_extent(root);
        let first_nodes = root..node_end;
        let first_entry_sax_at = num_subtrees_at
            + 4 // num_subtrees
            + SUBTREE_HEADER_BYTES
            + first_nodes.len() * NODE_WIRE_BYTES;
        let forged_sax = [original[20 + first_entry_sax_at] ^ 0xFF];
        let forged = reseal(&original, first_entry_sax_at, &forged_sax);
        std::fs::write(&path, &forged).unwrap();
        match load_index(&path, Arc::clone(&data)) {
            Err(PersistError::Corrupt(msg)) => assert!(msg.contains(&first_subtree), "{msg}"),
            other => panic!("expected summary rejection, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn the_load_build_config_never_sizes_threads_or_buffers_from_the_file() {
        let cores = crate::config::available_cores();
        for stored_value in [u32::MAX as usize, usize::MAX, 0, 1] {
            let stored = IndexConfig {
                num_workers: stored_value,
                initial_buffer_capacity: stored_value,
                ..IndexConfig::for_tests()
            };
            let built = load_build_config(&stored);
            assert!((1..=cores).contains(&built.num_workers), "{stored_value}");
            assert_eq!(built.initial_buffer_capacity, 5, "{stored_value}");
            assert_eq!(
                IndexConfig {
                    num_workers: stored_value,
                    initial_buffer_capacity: stored_value,
                    ..built
                },
                stored,
                "only the two bounded fields move"
            );
        }
    }

    #[test]
    fn header_sweep_loads_an_error_or_a_valid_index() {
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 64, 37));
        let (index, _) = MessiIndex::build(Arc::clone(&data), &IndexConfig::for_tests());
        let (payload, _) = encode_payload(&index, fingerprint(&data));
        // (name, payload offset, width in bytes) of every header field.
        let fields = [
            ("segments", 0, 4),
            ("num_workers", 4, 4),
            ("chunk_size", 8, 8),
            ("leaf_capacity", 16, 8),
            ("initial_buffer_capacity", 24, 8),
            ("variant", 32, 1),
            ("series_len", 33, 4),
            ("num_series", 37, 8),
            ("fingerprint", 45, 8),
            ("scale count", 53, 4),
        ];
        for (name, at, width) in fields {
            let mut le = [0u8; 8];
            le[..width].copy_from_slice(&payload[at..at + width]);
            let n = u64::from_le_bytes(le);
            let mut values = vec![
                0,
                1,
                n.wrapping_sub(1),
                n.wrapping_add(1),
                u64::from(u32::MAX),
            ];
            if width == 8 {
                values.push(u64::MAX);
            }
            for v in values {
                let mut forged = payload.clone();
                forged[at..at + width].copy_from_slice(&v.to_le_bytes()[..width]);
                let loaded = load_bytes(&sealed(&forged), &data, "sweep-header.msx");
                if let Ok(index) = loaded {
                    let errors = crate::validate::validate(&index);
                    assert!(errors.is_empty(), "{name} = {v}: {errors:?}");
                }
            }
        }
    }

    #[test]
    fn a_forged_build_variant_is_corrupt() {
        // Only the buffered build is left, so the variant byte is always
        // 0; a resealed snapshot with any other value is refused.
        let (data, index) = build_small();
        let (payload, _) = encode_payload(&index, fingerprint(&data));
        assert_eq!(payload[32], 0);
        for variant in [1u8, 2, 255] {
            let mut forged = payload.clone();
            forged[32] = variant;
            match load_bytes(&sealed(&forged), &data, "forged-variant.msx") {
                Err(PersistError::Corrupt(msg)) => {
                    assert!(msg.contains("build variant"), "{variant}: {msg}")
                }
                other => panic!("{variant}: expected Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn error_display_is_informative() {
        assert!(PersistError::BadMagic.to_string().contains("magic"));
        let v = PersistError::Version {
            found: 9,
            expected: FORMAT_VERSION,
        };
        assert!(v.to_string().contains('9'));
        assert!(PersistError::Corrupt("x".into())
            .to_string()
            .contains("corrupt"));
    }
}
