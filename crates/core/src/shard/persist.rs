//! Per-shard snapshot persistence: a sharded index saves as a
//! *directory* of single-index snapshots plus a checksummed manifest.
//!
//! Layout of a snapshot directory:
//!
//! ```text
//! dir/
//!   manifest.messi   MESSISHD container: the partition table
//!   shard-0.messi    ordinary crate::persist container (shard 0)
//!   shard-1.messi    ...one per shard, loadable individually
//! ```
//!
//! Each `shard-N.messi` is a regular [`crate::persist`] snapshot whose
//! dataset fingerprint covers that shard's sub-range only, so
//! [`load_sharded`] reconstructs the same sub-datasets from the
//! partition recorded in the manifest and loads every shard in
//! parallel. A corrupt, missing, or swapped shard file fails the load
//! loudly with the offending path in the error.
//!
//! The manifest is [`crate::persist`]'s sealed container (magic
//! `MESSISHD`, version 2, payload length, payload, XXH64) around the
//! payload `shards u32 | series_len u32 | total u64 | shards × (offset
//! u64, len u64)`. Older manifests are refused with
//! [`PersistError::Version`].

use super::index::{shard_dataset, ShardedIndex};
use crate::persist::{load_index, save_index, seal, unseal, PersistError};
use messi_series::io::{sync_parent, write_durable, PayloadReader, PayloadWriter};
use messi_series::Dataset;
use std::path::Path;
use std::sync::Arc;

/// Magic prefix of a sharded-snapshot manifest.
const MANIFEST_MAGIC: [u8; 8] = *b"MESSISHD";
/// Manifest format version, the only one this build reads.
const MANIFEST_VERSION: u32 = 2;
/// Manifest file name inside a snapshot directory.
const MANIFEST_NAME: &str = "manifest.messi";

/// File name of shard `i`'s snapshot inside a snapshot directory.
fn shard_file_name(i: usize) -> String {
    format!("shard-{i}.messi")
}

/// Saves `index` as a sharded snapshot directory at `dir` (created if
/// absent): one `shard-N.messi` per shard plus a checksummed
/// `manifest.messi` recording the partition.
///
/// Every file goes through [`write_durable`], which syncs each rename
/// into the directory before the next file starts, and the manifest is
/// written *last*. So a directory with a valid manifest always has
/// valid shard files newer than it, even after a crash: an interrupted
/// save leaves no loadable-but-wrong state.
///
/// # Errors
///
/// Any I/O error from creating the directory or writing its files.
pub fn save_sharded(index: &ShardedIndex, dir: &Path) -> Result<(), PersistError> {
    std::fs::create_dir_all(dir)?;
    sync_parent(dir)?;
    for (i, shard) in index.shards().iter().enumerate() {
        save_index(shard, &dir.join(shard_file_name(i)))?;
    }

    let mut w = PayloadWriter::new();
    w.put_u32(index.num_shards() as u32);
    w.put_u32(index.dataset().series_len() as u32);
    w.put_u64(index.num_series());
    for (i, shard) in index.shards().iter().enumerate() {
        w.put_u64(index.shard_offset(i));
        w.put_u64(shard.num_series() as u64);
    }
    let payload = w.into_bytes();

    let path = dir.join(MANIFEST_NAME);
    write_durable(&path, |w| {
        seal(w, &MANIFEST_MAGIC, MANIFEST_VERSION, &payload)
    })?;
    Ok(())
}

/// Loads a sharded snapshot directory previously written by
/// [`save_sharded`], pairing it with the *full* `dataset` (shard
/// sub-datasets are reconstructed from the manifest's partition table).
/// Shards load in parallel on at most one thread per core, each thread
/// claiming the next shard by Fetch&Inc.
///
/// # Errors
///
/// As [`load_index`], plus [`PersistError::Corrupt`] when the manifest
/// is damaged or its partition disagrees with itself, and
/// [`PersistError::DatasetMismatch`] when the manifest was written over
/// a different collection shape. Per-shard failures are annotated with
/// the shard file's path, so one bad shard out of N names itself.
pub fn load_sharded(dir: &Path, dataset: Arc<Dataset>) -> Result<ShardedIndex, PersistError> {
    let manifest = read_manifest(&dir.join(MANIFEST_NAME))?;
    if manifest.series_len != dataset.series_len() {
        return Err(PersistError::DatasetMismatch(format!(
            "manifest records series length {}, dataset has {}",
            manifest.series_len,
            dataset.series_len()
        )));
    }
    if manifest.total_series != dataset.len() as u64 {
        return Err(PersistError::DatasetMismatch(format!(
            "manifest records {} series, dataset has {}",
            manifest.total_series,
            dataset.len()
        )));
    }
    // The manifest's partition table is authoritative: read_manifest
    // already proved it contiguous from zero, gap-free, and covering
    // exactly `total_series`. It need *not* be the canonical balanced
    // split of ShardedIndex::build — a live-ingested index grows its
    // last shard past the balanced size, and its snapshot records that
    // partition verbatim (see ShardedIndex::absorb).

    let n = manifest.shards.len();
    let loaded = super::per_shard(n, |i| {
        let (offset, len) = manifest.shards[i];
        let path = dir.join(shard_file_name(i));
        let loaded = match offset.checked_add(len) {
            Some(end) => load_index(
                &path,
                shard_dataset(&dataset, offset as usize, end as usize),
            ),
            None => Err(PersistError::Corrupt(
                "shard ends past u64 positions".into(),
            )),
        };
        loaded.map_err(|e| annotate(&path, e))
    });

    let mut shards = Vec::with_capacity(n);
    let mut offsets = Vec::with_capacity(n);
    for (i, shard) in loaded.into_iter().enumerate() {
        let shard = shard?;
        if shard.num_series() as u64 != manifest.shards[i].1 {
            return Err(PersistError::Corrupt(format!(
                "{}: holds {} series, manifest promises {}",
                dir.join(shard_file_name(i)).display(),
                shard.num_series(),
                manifest.shards[i].1
            )));
        }
        offsets.push(manifest.shards[i].0);
        shards.push(shard);
    }
    Ok(ShardedIndex::from_parts(shards, offsets, dataset))
}

/// Decoded `manifest.messi` contents: per-shard `(offset, len)` in
/// global positions, plus the collection shape it was written over.
struct Manifest {
    series_len: usize,
    total_series: u64,
    shards: Vec<(u64, u64)>,
}

/// Reads and verifies the manifest container (magic, version, length,
/// checksum), then decodes the partition table.
fn read_manifest(path: &Path) -> Result<Manifest, PersistError> {
    let bytes = std::fs::read(path)?;
    let payload = unseal(&bytes, &MANIFEST_MAGIC, MANIFEST_VERSION)?;

    let corrupt = |what: &str| PersistError::Corrupt(format!("manifest: {what}"));
    let mut r = PayloadReader::new(payload);
    let num_shards = r.take_u32().map_err(corrupt)? as usize;
    if num_shards == 0 {
        return Err(corrupt("zero shards"));
    }
    let series_len = r.take_u32().map_err(corrupt)? as usize;
    let total_series = r.take_u64().map_err(corrupt)?;
    // The count is untrusted: it must fit in the bytes actually left
    // (16 per shard) before it sizes anything.
    if num_shards > r.remaining() / 16 {
        return Err(corrupt("shard count exceeds payload size"));
    }
    let mut shards = Vec::with_capacity(num_shards);
    let mut expected_offset = 0u64;
    for i in 0..num_shards {
        let offset = r.take_u64().map_err(corrupt)?;
        let len = r.take_u64().map_err(corrupt)?;
        if offset != expected_offset {
            return Err(corrupt(&format!(
                "shard {i} starts at {offset}, expected {expected_offset}"
            )));
        }
        if len == 0 {
            return Err(corrupt(&format!("shard {i} is empty")));
        }
        expected_offset = expected_offset
            .checked_add(len)
            .ok_or_else(|| corrupt(&format!("shard {i} ends past u64 positions")))?;
        shards.push((offset, len));
    }
    if expected_offset != total_series {
        return Err(corrupt(&format!(
            "partition covers {expected_offset} series, manifest promises {total_series}"
        )));
    }
    if r.remaining() != 0 {
        return Err(corrupt("trailing bytes after partition table"));
    }
    Ok(Manifest {
        series_len,
        total_series,
        shards,
    })
}

/// Prefixes a per-shard load error with the shard file's path, folding
/// non-string variants into [`PersistError::Corrupt`] so the message
/// always names the file that failed.
fn annotate(path: &Path, e: PersistError) -> PersistError {
    let at = path.display();
    match e {
        PersistError::Corrupt(s) => PersistError::Corrupt(format!("{at}: {s}")),
        PersistError::DatasetMismatch(s) => PersistError::DatasetMismatch(format!("{at}: {s}")),
        other => PersistError::Corrupt(format!("{at}: {other}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{IndexConfig, QueryConfig};
    use crate::exec::QuerySpec;
    use messi_series::gen::{self, DatasetKind};

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("messi-shard-persist-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn save_load_round_trip_preserves_answers() {
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 400, 99));
        let (built, _) = ShardedIndex::build(Arc::clone(&data), 3, &IndexConfig::for_tests());
        let dir = tmp_dir("roundtrip");
        save_sharded(&built, &dir).expect("save");
        let loaded = load_sharded(&dir, Arc::clone(&data)).expect("load");
        assert_eq!(loaded.num_shards(), 3);
        assert_eq!(loaded.num_series(), 400);

        let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 3, 99);
        let config = QueryConfig::for_tests();
        let (e_built, e_loaded) = (built.executor(), loaded.executor());
        for q in queries.iter() {
            let (a, _) = e_built.run_one(q, &QuerySpec::exact(), &config);
            let (b, _) = e_loaded.run_one(q, &QuerySpec::exact(), &config);
            assert_eq!(a[0].pos, b[0].pos);
            assert_eq!(a[0].dist_sq.to_bits(), b[0].dist_sq.to_bits());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn grown_non_canonical_partition_round_trips() {
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 300, 21));
        let (built, _) = ShardedIndex::build(Arc::clone(&data), 3, &IndexConfig::for_tests());
        // Grow past the canonical balanced split: the last shard
        // absorbs 7 appended series (see Dataset::append_with).
        let extra = gen::generate(DatasetKind::RandomWalk, 7, 22);
        let grown = Arc::new(data.concat([&extra]).expect("same shape"));
        let absorbed = built.absorb(Arc::clone(&grown)).expect("absorb");
        assert_eq!(absorbed.num_series(), 307);

        let dir = tmp_dir("grown");
        save_sharded(&absorbed, &dir).expect("save");
        let loaded = load_sharded(&dir, Arc::clone(&grown)).expect("non-canonical load");
        assert_eq!(loaded.num_series(), 307);

        let config = QueryConfig::for_tests();
        let q = extra.series(3);
        let (a, _) = absorbed.executor().run_one(q, &QuerySpec::exact(), &config);
        let (b, _) = loaded.executor().run_one(q, &QuerySpec::exact(), &config);
        assert_eq!(a, b, "loaded grown snapshot answers identically");
        assert_eq!(a[0].pos, 303, "appended series keeps its global position");
        assert_eq!(a[0].dist_sq, 0.0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupting_one_shard_fails_loudly_naming_the_file() {
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 300, 7));
        let (built, _) = ShardedIndex::build(Arc::clone(&data), 3, &IndexConfig::for_tests());
        let dir = tmp_dir("corrupt");
        save_sharded(&built, &dir).expect("save");

        // Flip one payload byte in shard 1's snapshot.
        let victim = dir.join(shard_file_name(1));
        let mut bytes = std::fs::read(&victim).expect("read shard");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x5a;
        std::fs::write(&victim, &bytes).expect("rewrite shard");

        let err = load_sharded(&dir, Arc::clone(&data)).expect_err("must fail");
        let msg = err.to_string();
        assert!(
            msg.contains("shard-1.messi"),
            "error must name the corrupt file, got: {msg}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_shard_file_names_itself() {
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 200, 11));
        let (built, _) = ShardedIndex::build(Arc::clone(&data), 2, &IndexConfig::for_tests());
        let dir = tmp_dir("missing");
        save_sharded(&built, &dir).expect("save");
        std::fs::remove_file(dir.join(shard_file_name(0))).expect("remove");
        let err = load_sharded(&dir, Arc::clone(&data)).expect_err("must fail");
        assert!(err.to_string().contains("shard-0.messi"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_checksum_guards_partition_table() {
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 200, 13));
        let (built, _) = ShardedIndex::build(Arc::clone(&data), 2, &IndexConfig::for_tests());
        let dir = tmp_dir("manifest");
        save_sharded(&built, &dir).expect("save");
        let path = dir.join(MANIFEST_NAME);
        let mut bytes = std::fs::read(&path).expect("read manifest");
        let mid = 20 + (bytes.len() - 28) / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).expect("rewrite manifest");
        match load_sharded(&dir, Arc::clone(&data)) {
            Err(PersistError::Corrupt(msg)) => assert!(msg.contains("checksum"), "{msg}"),
            other => panic!("expected Corrupt(checksum), got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_resealed_manifest_claiming_u32_max_shards_is_corrupt() {
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 200, 19));
        let (built, _) = ShardedIndex::build(Arc::clone(&data), 2, &IndexConfig::for_tests());
        let dir = tmp_dir("huge-count");
        save_sharded(&built, &dir).expect("save");
        let path = dir.join(MANIFEST_NAME);
        let bytes = std::fs::read(&path).expect("read manifest");
        let mut payload = unseal(&bytes, &MANIFEST_MAGIC, MANIFEST_VERSION)
            .expect("valid manifest")
            .to_vec();
        payload[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut forged = Vec::new();
        seal(&mut forged, &MANIFEST_MAGIC, MANIFEST_VERSION, &payload).expect("reseal");
        std::fs::write(&path, &forged).expect("rewrite manifest");
        match load_sharded(&dir, Arc::clone(&data)) {
            Err(PersistError::Corrupt(msg)) => assert!(msg.contains("shard count"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_resealed_manifest_whose_shard_lengths_wrap_is_corrupt() {
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 10, 19));
        let (built, _) = ShardedIndex::build(Arc::clone(&data), 2, &IndexConfig::for_tests());
        let dir = tmp_dir("wrapping");
        save_sharded(&built, &dir).expect("save");
        let path = dir.join(MANIFEST_NAME);
        let bytes = std::fs::read(&path).expect("read manifest");
        let mut payload = unseal(&bytes, &MANIFEST_MAGIC, MANIFEST_VERSION)
            .expect("valid manifest")
            .to_vec();
        // Partition [(0, u64::MAX), (u64::MAX, 11)]: the lengths sum to
        // the 10 series only when the sum wraps.
        for (at, v) in [(24, u64::MAX), (32, u64::MAX), (40, 11)] {
            payload[at..at + 8].copy_from_slice(&v.to_le_bytes());
        }
        let mut forged = Vec::new();
        seal(&mut forged, &MANIFEST_MAGIC, MANIFEST_VERSION, &payload).expect("reseal");
        std::fs::write(&path, &forged).expect("rewrite manifest");
        match load_sharded(&dir, Arc::clone(&data)) {
            Err(PersistError::Corrupt(msg)) => assert!(msg.contains("past u64"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_v1_manifest_is_refused_by_its_version() {
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 300, 41));
        let (built, _) = ShardedIndex::build(Arc::clone(&data), 2, &IndexConfig::for_tests());
        let dir = tmp_dir("legacy");
        save_sharded(&built, &dir).expect("save");
        let path = dir.join(MANIFEST_NAME);
        let mut bytes = std::fs::read(&path).expect("read manifest");
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        std::fs::write(&path, &bytes).expect("rewrite manifest");
        match load_sharded(&dir, Arc::clone(&data)) {
            Err(PersistError::Version { found, expected }) => {
                assert_eq!((found, expected), (1, 2));
            }
            other => panic!("expected Version, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_manifest_truncation_and_bit_flip_fails_cleanly() {
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 64, 43));
        let (built, _) = ShardedIndex::build(Arc::clone(&data), 2, &IndexConfig::for_tests());
        let dir = tmp_dir("sweep");
        save_sharded(&built, &dir).expect("save");
        let path = dir.join(MANIFEST_NAME);
        let original = std::fs::read(&path).expect("read manifest");
        for at in 0..original.len() {
            let mut flipped = original.clone();
            flipped[at] ^= 1 << (at % 8);
            for damaged in [&original[..at], &flipped[..]] {
                std::fs::write(&path, damaged).expect("rewrite manifest");
                assert!(
                    load_sharded(&dir, Arc::clone(&data)).is_err(),
                    "damage at byte {at} of {} loaded",
                    original.len()
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_dataset_is_rejected_at_the_manifest() {
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 200, 17));
        let (built, _) = ShardedIndex::build(Arc::clone(&data), 2, &IndexConfig::for_tests());
        let dir = tmp_dir("mismatch");
        save_sharded(&built, &dir).expect("save");
        let other = Arc::new(gen::generate(DatasetKind::RandomWalk, 150, 17));
        match load_sharded(&dir, other) {
            Err(PersistError::DatasetMismatch(_)) => {}
            other => panic!("expected DatasetMismatch, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
