//! Snapshot bytes, pinned.
//!
//! `persistence` and the absorb oracle compare two saves made by the
//! same build, so neither notices a change to what a save writes. This
//! test pins the bytes themselves: the XXH64 of `save_index` over a
//! fixed-seed random-walk collection spanning four build chunks, at one
//! worker and at four, and of every file of a two-shard `save_sharded`
//! directory. A change to the snapshot format, to the tree a build
//! makes, or to the order a writer walks it moves a hash.
//!
//! The sharded build uses one worker so that each shard's recorded
//! worker count (`num_workers / concurrent shard builds`, at least one)
//! is 1 on any host. The build is deterministic for any worker count,
//! so the single-index rows differ only in the recorded `num_workers`.

use messi::prelude::*;
use messi::series::io::xxh64;
use std::path::PathBuf;
use std::sync::Arc;

/// `xxh64(save_index bytes)` at one worker and at four.
const SINGLE: [u64; 2] = [7_709_833_338_910_376_097, 13_804_563_207_089_775_941];

/// `xxh64` of each file of the two-shard directory, by file name.
const SHARDED: [(&str, u64); 3] = [
    ("manifest.messi", 8_524_721_887_445_244_612),
    ("shard-0.messi", 16_557_653_018_682_687_181),
    ("shard-1.messi", 6_881_164_429_261_030_715),
];

fn dataset() -> Arc<Dataset> {
    Arc::new(messi::series::gen::generate(
        DatasetKind::RandomWalk,
        3_500,
        20_260,
    ))
}

fn config(num_workers: usize) -> IndexConfig {
    IndexConfig {
        segments: 8,
        num_workers,
        chunk_size: 1_000,
        leaf_capacity: 16,
        initial_buffer_capacity: 5,
    }
}

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("messi-snapshot-pin-{}-{name}", std::process::id()))
}

#[test]
fn save_index_bytes_are_pinned() {
    let data = dataset();
    let got: Vec<u64> = [1, 4]
        .iter()
        .map(|&w| {
            let (index, _) = MessiIndex::build(Arc::clone(&data), &config(w));
            let path = scratch(&format!("w{w}.msx"));
            save_index(&index, &path).expect("save");
            let bytes = std::fs::read(&path).expect("read back");
            std::fs::remove_file(&path).expect("remove");
            xxh64(&bytes)
        })
        .collect();
    assert_eq!(got, SINGLE, "save_index bytes moved");
}

#[test]
fn save_sharded_bytes_are_pinned() {
    let data = dataset();
    let (index, _) = ShardedIndex::build(Arc::clone(&data), 2, &config(1));
    let dir = scratch("sharded");
    save_sharded(&index, &dir).expect("save");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("list")
        .map(|e| e.expect("entry").file_name().into_string().expect("utf-8"))
        .collect();
    names.sort();
    let got: Vec<(String, u64)> = names
        .into_iter()
        .map(|name| {
            let bytes = std::fs::read(dir.join(&name)).expect("read back");
            (name, xxh64(&bytes))
        })
        .collect();
    std::fs::remove_dir_all(&dir).expect("remove");
    let want: Vec<(String, u64)> = SHARDED.iter().map(|&(n, h)| (n.to_string(), h)).collect();
    assert_eq!(got, want, "save_sharded bytes moved");
}
