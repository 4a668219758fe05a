//! Index snapshot persistence.
//!
//! The arena layout ([`crate::node`]) makes the index a handful of flat
//! arrays, so the whole structure — configuration, per-subtree node
//! records, packed leaf pools, and mindist scales — serializes to one
//! versioned, checksummed file. A server can then `messi build --save`
//! once and answer queries from `--load`ed snapshots without ever paying
//! the build again (the ROADMAP's serve-from-prebuilt-snapshot
//! scenario).
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
//! series, so the loader verifies it is being paired with the right
//! data), the mindist scales, and each touched root subtree as its raw
//! arena: node records then pool entries. Loading re-validates the
//! preorder arena invariants *and* the full semantic invariants of
//! [`crate::validate`] (word refinement, containment, root-key filing,
//! summary correctness against the dataset, position completeness), so
//! a torn or tampered file — even one with a correctly resealed
//! checksum — fails with a [`PersistError`] instead of producing a
//! quietly wrong index. The semantic pass first files every stored
//! summary by position, then recomputes the summaries in position
//! order, in chunks claimed by the configured worker count capped at
//! the machine's cores — one sequential read of the data, like the
//! build's summarize phase. So a load is a verification-speed streaming
//! pass over the data — it skips all tree construction, splitting, and
//! buffer staging, but it is *not* free: callers loading from a trusted
//! local file at very large scale can measure it against a rebuild with
//! `messi info --load`.

use crate::config::{capped_workers, BuildVariant, IndexConfig};
use crate::index::MessiIndex;
use crate::node::{NodeRecord, PartScratch, SaxEntry, TreeArena};
use crate::validate::{check_arena_semantics, PositionTable};
use messi_sax::word::{NodeWord, SaxWord, CARD_BITS, MAX_SEGMENTS};
use messi_series::io::{write_durable, xxh64, xxh64_f32, PayloadReader, PayloadWriter};
use messi_series::Dataset;
use parking_lot::Mutex;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;

/// File magic: `MESSIIDX`.
const MAGIC: [u8; 8] = *b"MESSIIDX";
/// Snapshot format version, the only one this build reads: the payload
/// is sealed and the dataset fingerprinted with XXH64. The leaf symbol
/// columns and run metadata are derived state, never serialized: a load
/// checks each stored subtree (`TreeArena::check_raw`), and the one
/// arena assembly derives them as a build does.
pub const FORMAT_VERSION: u32 = 3;
/// Bytes before a sealed container's payload: magic, version, length.
const SEAL_HEADER: usize = 20;

/// Serialized bytes per node record: word (16×u16 + 16×u8) + tag + lo + hi.
const NODE_WIRE_BYTES: usize = 2 * MAX_SEGMENTS + MAX_SEGMENTS + 1 + 4 + 4;
/// Serialized bytes per leaf entry: sax symbols + position.
const ENTRY_WIRE_BYTES: usize = MAX_SEGMENTS + 4;
/// Serialized bytes per subtree header: key + node count + entry count.
const SUBTREE_HEADER_BYTES: usize = 12;

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
    let payload = encode_payload(index);
    write_durable(path, |w| seal(w, &MAGIC, FORMAT_VERSION, &payload))?;
    Ok(())
}

/// Loads a snapshot previously written by [`save_index`], pairing it
/// with `dataset` (snapshots store tree structure, not raw series).
///
/// # Errors
///
/// [`PersistError::Io`] for filesystem problems; [`PersistError::
/// BadMagic`] / [`PersistError::Version`] for foreign, older or future
/// files; [`PersistError::Corrupt`] for truncation, checksum mismatches,
/// or invalid content; [`PersistError::DatasetMismatch`] when `dataset`
/// is not the collection the snapshot was built over.
pub fn load_index(path: &Path, dataset: Arc<Dataset>) -> Result<MessiIndex, PersistError> {
    let bytes = std::fs::read(path)?;
    let payload = unseal(&bytes, &MAGIC, FORMAT_VERSION)?;
    let index = decode_payload(payload, dataset)?;
    // Semantic validation: the structural checks above cannot notice a
    // resealed forgery that tampers with iSAX words or positions while
    // keeping the arenas well-formed — wrong summaries would corrupt
    // pruning bounds and make "exact" answers quietly wrong. The
    // invariant sweep (refinement, containment, key filing, each
    // position exactly once, then recomputed summaries in position
    // order) closes that hole; it runs across the configured worker
    // count capped at the cores, so its cost tracks the build's parallel
    // summarize phase, not a serial re-derivation.
    validate_loaded(&index)
        .map_err(|e| PersistError::Corrupt(format!("index invariants violated: {e}")))?;
    Ok(index)
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

/// Load-time semantic validation — the parallel counterpart of
/// [`crate::validate::validate`] for the snapshot trust boundary, built
/// on the *same* per-arena checker
/// ([`crate::validate::check_arena_semantics`]) and position-order
/// summary pass ([`PositionTable::check_summaries`]), so an invariant
/// added there automatically guards loaded snapshots. Arenas are
/// independent, so workers claim them via Fetch&Inc and file every
/// stored summary by position (the `record` hook rejects a duplicate
/// position on the spot). Once every position is known to be filed
/// exactly once, the summaries are recomputed in position order. Both
/// sweeps run on the snapshot's stored worker count capped at the
/// machine's cores. Derived run metadata (invariant 8) is not
/// re-derived: these arenas were just derived from the checked records.
fn validate_loaded(index: &MessiIndex) -> Result<(), String> {
    let arenas = index.arenas();
    let table = PositionTable::new(index.num_series());
    let first_error: Mutex<Option<String>> = Mutex::new(None);
    let dispenser = messi_sync::Dispenser::new(arenas.len());
    let workers = capped_workers(index.config().num_workers);
    std::thread::scope(|s| {
        for _ in 0..workers.min(arenas.len().max(1)) {
            let table = &table;
            let first_error = &first_error;
            let dispenser = &dispenser;
            s.spawn(move || {
                while let Some(i) = dispenser.next() {
                    if first_error.lock().is_some() {
                        return; // someone already failed: stop early
                    }
                    let mut record = |pos: usize, sax: &SaxWord| match table.file(pos, sax) {
                        Some(0) => Ok(()),
                        Some(_) => Err(format!("position {pos} appears in more than one leaf")),
                        None => Err(format!("position {pos} out of range")),
                    };
                    if let Err(e) = check_arena_semantics(index, &arenas[i], i, &mut record) {
                        let mut slot = first_error.lock();
                        if slot.is_none() {
                            *slot = Some(e);
                        }
                        return;
                    }
                }
            });
        }
    });
    if let Some(e) = first_error.into_inner() {
        return Err(e);
    }
    if let Some(pos) = (0..index.num_series()).find(|&pos| table.count(pos) == 0) {
        return Err(format!("position {pos} missing from every leaf"));
    }
    table.check_summaries(index, workers)
}

fn encode_payload(index: &MessiIndex) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    let config = index.config();
    w.put_u32(config.segments as u32);
    w.put_u32(config.num_workers as u32);
    w.put_u64(config.chunk_size as u64);
    w.put_u64(config.leaf_capacity as u64);
    w.put_u64(config.initial_buffer_capacity as u64);
    w.put_u8(match config.variant {
        BuildVariant::Buffered => 0,
        BuildVariant::NoBuffers => 1,
    });

    let dataset = index.dataset();
    w.put_u32(dataset.series_len() as u32);
    w.put_u64(dataset.len() as u64);
    w.put_u64(xxh64_f32(dataset.as_flat()));

    w.put_u32(index.scales().len() as u32);
    for &s in index.scales() {
        w.put_f32(s);
    }

    w.put_u32(index.touched_keys().len() as u32);
    let mut scratch = PartScratch::default();
    for &key in index.touched_keys() {
        // Copy the per-key subtree back out of its (possibly shared)
        // forest arena, at standalone ids/offsets and with its summaries
        // gathered from the columns — the exact bytes a solo per-key
        // arena would have written, so the format is unchanged by forest
        // grouping and old snapshots stay readable (and re-writable) bit
        // for bit.
        let (arena, root) = index.key_root(key).expect("touched ⇒ present");
        scratch.clear();
        arena.copy_subtree(key, root, &mut scratch);
        w.put_u32(key as u32);
        w.put_u32(scratch.nodes.len() as u32);
        w.put_u32(scratch.pool.len() as u32);
        for rec in &scratch.nodes {
            put_node_word(&mut w, &rec.word);
            w.put_u8(rec.tag);
            w.put_u32(rec.lo);
            w.put_u32(rec.hi);
        }
        for e in &scratch.pool {
            w.put_bytes(e.sax.symbols());
            w.put_u32(e.pos);
        }
    }
    w.into_bytes()
}

fn decode_payload(payload: &[u8], dataset: Arc<Dataset>) -> Result<MessiIndex, PersistError> {
    let corrupt = |what: &str| PersistError::Corrupt(what.into());
    let mut r = PayloadReader::new(payload);

    let segments = r.take_u32().map_err(corrupt)? as usize;
    let num_workers = r.take_u32().map_err(corrupt)? as usize;
    let chunk_size = r.take_u64().map_err(corrupt)? as usize;
    let leaf_capacity = r.take_u64().map_err(corrupt)? as usize;
    let initial_buffer_capacity = r.take_u64().map_err(corrupt)? as usize;
    let variant = match r.take_u8().map_err(corrupt)? {
        0 => BuildVariant::Buffered,
        1 => BuildVariant::NoBuffers,
        other => {
            return Err(PersistError::Corrupt(format!(
                "unknown build variant {other}"
            )))
        }
    };
    if segments == 0
        || segments > MAX_SEGMENTS
        || num_workers == 0
        || chunk_size == 0
        || leaf_capacity == 0
    {
        return Err(corrupt("configuration out of range"));
    }
    let config = IndexConfig {
        segments,
        num_workers,
        chunk_size,
        leaf_capacity,
        initial_buffer_capacity,
        variant,
    };

    let series_len = r.take_u32().map_err(corrupt)? as usize;
    let num_series = r.take_u64().map_err(corrupt)? as usize;
    let data_hash = r.take_u64().map_err(corrupt)?;
    if series_len != dataset.series_len() || num_series != dataset.len() {
        return Err(PersistError::DatasetMismatch(format!(
            "snapshot indexes {num_series} series × {series_len} points, \
             dataset holds {} × {}",
            dataset.len(),
            dataset.series_len()
        )));
    }
    if data_hash != xxh64_f32(dataset.as_flat()) {
        return Err(PersistError::DatasetMismatch(
            "dataset content hash differs — same shape, different values".into(),
        ));
    }
    if segments > series_len {
        return Err(corrupt("more segments than points"));
    }

    let num_scales = r.take_u32().map_err(corrupt)? as usize;
    if num_scales != segments {
        return Err(corrupt("scale count disagrees with segments"));
    }
    let mut scales = Vec::with_capacity(num_scales);
    for _ in 0..num_scales {
        scales.push(r.take_f32().map_err(corrupt)?);
    }

    let num_subtrees = r.take_u32().map_err(corrupt)? as usize;
    let num_keys = 1usize << segments;
    // Every count below is untrusted: it must fit in the bytes actually
    // left in the payload, so a tiny crafted file that lies about its
    // sizes fails here, with a catchable error, before any loop or
    // allocation is sized by it.
    if num_subtrees > r.remaining() / SUBTREE_HEADER_BYTES {
        return Err(corrupt("subtree count exceeds payload size"));
    }
    // Every subtree decodes into one node/entry scratch, ids and offsets
    // counting from its own start, as stored.
    let mut scratch = PartScratch::default();
    for _ in 0..num_subtrees {
        let key = r.take_u32().map_err(corrupt)? as usize;
        if key >= num_keys {
            return Err(PersistError::Corrupt(format!(
                "root key {key} out of range"
            )));
        }
        let num_nodes = r.take_u32().map_err(corrupt)? as usize;
        let num_entries = r.take_u32().map_err(corrupt)? as usize;
        if num_nodes > r.remaining() / NODE_WIRE_BYTES
            || num_entries > r.remaining() / ENTRY_WIRE_BYTES
        {
            return Err(corrupt("subtree counts exceed payload size"));
        }
        scratch.open(key);
        let (nodes, pool) = (&mut scratch.nodes, &mut scratch.pool);
        let node_start = nodes.len();
        for _ in 0..num_nodes {
            let word = take_node_word(&mut r).map_err(PersistError::Corrupt)?;
            let tag = r.take_u8().map_err(corrupt)?;
            let lo = r.take_u32().map_err(corrupt)?;
            let hi = r.take_u32().map_err(corrupt)?;
            nodes.push(NodeRecord { word, tag, lo, hi });
        }
        for _ in 0..num_entries {
            let symbols = r.take_bytes(MAX_SEGMENTS).map_err(corrupt)?;
            let pos = r.take_u32().map_err(corrupt)?;
            if pos as usize >= num_series {
                return Err(PersistError::Corrupt(format!(
                    "entry position {pos} out of range (< {num_series})"
                )));
            }
            pool.push(SaxEntry {
                sax: SaxWord::new(symbols),
                pos,
            });
        }
        TreeArena::check_raw(&nodes[node_start..], num_entries).map_err(PersistError::Corrupt)?;
    }
    if r.remaining() != 0 {
        return Err(corrupt("trailing bytes after the last subtree"));
    }
    let total_entries = scratch.pool.len();
    if total_entries != num_series {
        return Err(PersistError::Corrupt(format!(
            "subtrees store {total_entries} entries for {num_series} series"
        )));
    }
    let mut parts = scratch.parts();
    for part in &mut parts {
        (part.node_base, part.pool_base) = (0, 0); // stored ids are local
    }
    // Forest grouping needs ascending keys; a file may list them in any
    // order, but not twice.
    parts.sort_unstable_by_key(|p| p.key);
    if parts.windows(2).any(|w| w[0].key == w[1].key) {
        return Err(corrupt("duplicate root key"));
    }

    let index = MessiIndex::from_raw_parts(dataset, config, &parts);
    // The scales are derivable state: the constructor already rederived
    // them from the sax config. The persisted copy exists so a snapshot
    // is self-describing — but it must never *override* the derivation
    // (a crafted file could inflate them and make mindist prune the true
    // nearest neighbor). Require bit-equality instead.
    if index
        .scales()
        .iter()
        .zip(&scales)
        .any(|(a, b)| a.to_bits() != b.to_bits())
    {
        return Err(corrupt(
            "persisted mindist scales disagree with the configuration",
        ));
    }
    Ok(index)
}

fn put_node_word(w: &mut PayloadWriter, word: &NodeWord) {
    for i in 0..MAX_SEGMENTS {
        w.put_u16(word.symbol(i));
    }
    for i in 0..MAX_SEGMENTS {
        w.put_u8(word.bits(i));
    }
}

fn take_node_word(r: &mut PayloadReader<'_>) -> Result<NodeWord, String> {
    let mut symbols = [0u16; MAX_SEGMENTS];
    for s in &mut symbols {
        *s = r.take_u16().map_err(String::from)?;
    }
    let mut bits = [0u8; MAX_SEGMENTS];
    for b in &mut bits {
        *b = r.take_u8().map_err(String::from)?;
    }
    // Validate before constructing: NodeWord::new asserts, and a crafted
    // file must not be able to panic the loader.
    for i in 0..MAX_SEGMENTS {
        if bits[i] as usize > CARD_BITS {
            return Err(format!("segment {i}: {} cardinality bits", bits[i]));
        }
        if (u32::from(symbols[i]) >> bits[i]) != 0 {
            return Err(format!(
                "segment {i}: prefix {} does not fit {} bits",
                symbols[i], bits[i]
            ));
        }
    }
    Ok(NodeWord::new(&symbols, &bits))
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
                assert!(msg.contains("exceeds payload"), "{msg}")
            }
            other => panic!("expected count rejection, got {other:?}"),
        }

        // An orphaned-subtree forgery: point the first subtree's node
        // count slightly high while keeping the checksum sealed — the
        // structural validation must refuse it (exact error varies).
        let first_nodes_at = num_subtrees_at + 4 + 4;
        let forged = reseal(&original, first_nodes_at, &3u32.to_le_bytes());
        std::fs::write(&path, &forged).unwrap();
        assert!(load_index(&path, Arc::clone(&data)).is_err());

        // A structurally flawless forgery: tamper one leaf entry's iSAX
        // summary (the arenas stay well-formed, the checksum is
        // resealed). Only the semantic validation pass — recomputed
        // summaries / containment — can catch this; without it the
        // forged summary corrupts pruning bounds and exact answers.
        let first_key = index.touched_keys()[0];
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
            Err(PersistError::Corrupt(msg)) => {
                assert!(msg.contains("invariants violated"), "{msg}")
            }
            other => panic!("expected semantic rejection, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
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
