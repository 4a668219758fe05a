//! Absorb is **insertion**: `MessiIndex::insert_batch` grows the flat
//! arenas leaf-locally in one merge pass, and the result must be the
//! index a sequential fresh build over the grown collection produces —
//! not merely the same answers, the same *structure*:
//!
//! * `build(base, 1 worker)` then `insert_batch` per batch ≡
//!   `build(grown, 1 worker)`: touched keys, every arena's node words,
//!   split segments, children, leaf entries and SoA run columns, and
//!   byte-identical `save_index` output — under the test configuration
//!   (leaf capacity 32: splits, new keys, dense multi-leaf keys and
//!   forest-group boundary shifts all occur) and under the default one;
//! * `validate` finds nothing after any absorb;
//! * an inseparable over-capacity leaf that receives entries stays one
//!   leaf;
//! * `ShardedIndex::absorb` grows exactly the last shard, at 1 and 3
//!   shards, and a `messi compact` round trip re-saves a snapshot that
//!   loads, validates and answers like a fresh build.

use messi::index::node::{LeafEntry, TreeArena};
use messi::index::validate::validate;
use messi::prelude::*;
use messi::sax::word::NodeWord;
use messi::series::gen::{self, DatasetKind};
use messi::{DeltaIndex, IngestOptions};
use proptest::prelude::*;
use std::sync::Arc;

/// Series `[start, end)` of `full` as an owned dataset.
fn slice(full: &Dataset, start: usize, end: usize) -> Dataset {
    let len = full.series_len();
    Dataset::from_flat(full.as_flat()[start * len..end * len].to_vec(), len).unwrap()
}

fn sequential(config: IndexConfig) -> IndexConfig {
    IndexConfig {
        num_workers: 1,
        ..config
    }
}

/// A fresh path per call: the tests of this file run on parallel threads.
fn scratch_path(tag: &str) -> std::path::PathBuf {
    static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let p = std::env::temp_dir().join(format!("messi-absorb-{}-{n}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    let _ = std::fs::remove_file(&p);
    p
}

/// One node as the public accessors show it.
#[derive(Debug, PartialEq)]
enum Node {
    Inner {
        word: NodeWord,
        split: usize,
        children: (u32, u32),
    },
    Leaf {
        word: NodeWord,
        entries: Vec<LeafEntry>,
        run_base: usize,
        run_stride: usize,
    },
}

/// Everything structural about one arena: its nodes in preorder and its
/// run-grouped symbol columns.
#[derive(Debug, PartialEq)]
struct ArenaShape {
    nodes: Vec<Node>,
    runs: Vec<(usize, Vec<u8>)>,
}

fn arena_shape(arena: &TreeArena) -> ArenaShape {
    let nodes = (0..arena.num_nodes() as u32)
        .map(|id| {
            let word = *arena.word(id);
            if arena.is_leaf(id) {
                let leaf = arena.leaf(id);
                Node::Leaf {
                    word,
                    entries: leaf.entries.to_vec(),
                    run_base: leaf.base,
                    run_stride: leaf.stride,
                }
            } else {
                Node::Inner {
                    word,
                    split: arena.split_segment(id),
                    children: arena.children(id),
                }
            }
        })
        .collect();
    let mut runs = Vec::new();
    arena.for_each_run(&mut |_, cols, stride| runs.push((stride, cols.to_vec())));
    ArenaShape { nodes, runs }
}

/// Asserts `grown` and `fresh` are the same index: structure, storage
/// tightness, validation, and the snapshot bytes they save.
fn assert_same_index(tag: &str, grown: &MessiIndex, fresh: &MessiIndex) {
    let findings = validate(grown);
    assert!(findings.is_empty(), "{tag}: {findings:?}");
    assert_eq!(
        grown.touched_keys(),
        fresh.touched_keys(),
        "{tag}: touched keys"
    );
    assert_eq!(
        grown.arenas().len(),
        fresh.arenas().len(),
        "{tag}: arena count"
    );
    for (i, (a, b)) in grown.arenas().iter().zip(fresh.arenas()).enumerate() {
        assert!(a.allocation_flat(), "{tag}: arena {i} not capacity-tight");
        assert_eq!(arena_shape(a), arena_shape(b), "{tag}: arena {i}");
    }
    for &key in fresh.touched_keys() {
        let slot = |index: &MessiIndex| {
            let arena = index.root(key).expect("touched key") as *const TreeArena;
            index
                .arenas()
                .iter()
                .position(|a| std::ptr::eq(a, arena))
                .expect("root() points into arenas()")
        };
        assert_eq!(slot(grown), slot(fresh), "{tag}: key {key} filed elsewhere");
    }
    let paths = [scratch_path("grown.messi"), scratch_path("fresh.messi")];
    save_index(grown, &paths[0]).expect("save grown");
    save_index(fresh, &paths[1]).expect("save fresh");
    let saved = |p| std::fs::read(p).expect("read snapshot");
    assert!(
        saved(&paths[0]) == saved(&paths[1]),
        "{tag}: snapshot bytes differ"
    );
    for p in &paths {
        std::fs::remove_file(p).expect("cleanup");
    }
}

/// Builds over `full[..base_len]`, absorbs `sizes` one batch at a time,
/// and checks the index against a fresh build after every absorb.
fn absorb_and_compare(
    tag: &str,
    full: &Dataset,
    base_len: usize,
    sizes: &[usize],
    config: &IndexConfig,
) {
    let config = sequential(config.clone());
    let (mut index, _) = MessiIndex::build(Arc::new(slice(full, 0, base_len)), &config);
    let mut len = base_len;
    for (step, &size) in sizes.iter().enumerate() {
        let grown = Arc::new(slice(full, 0, len + size));
        index = index.insert_batch(Arc::clone(&grown), len).expect("absorb");
        len += size;
        let (fresh, _) = MessiIndex::build(grown, &config);
        assert_same_index(
            &format!("{tag} step {step} (+{size} → {len})"),
            &index,
            &fresh,
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn absorbing_random_batches_equals_a_sequential_fresh_build(
        shape in (0u64..1_000_000, 1usize..3_000),
        sizes in proptest::collection::vec(1usize..1_200, 1..6),
    ) {
        let (seed, base_len) = shape;
        let total = base_len + sizes.iter().sum::<usize>();
        let full = gen::generate(DatasetKind::RandomWalk, total, seed);
        absorb_and_compare(
            &format!("seed {seed} base {base_len} {sizes:?}"),
            &full,
            base_len,
            &sizes,
            &IndexConfig::for_tests(),
        );
    }
}

#[test]
fn absorbing_under_the_default_config_equals_a_sequential_fresh_build() {
    // Leaf capacity 2 000 over 2^16 root keys: almost every key is one
    // small leaf, so this is the forest-regrouping corner — most groups
    // shift when a batch lands.
    let full = gen::generate(DatasetKind::RandomWalk, 20_000, 81);
    absorb_and_compare(
        "default config",
        &full,
        15_000,
        &[1, 700, 4_000, 299],
        &IndexConfig::default(),
    );
}

#[test]
fn an_empty_batch_reproduces_the_index() {
    let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 600, 82));
    let config = sequential(IndexConfig::for_tests());
    let (index, _) = MessiIndex::build(Arc::clone(&data), &config);
    let same = index
        .insert_batch(Arc::clone(&data), 600)
        .expect("no-op absorb");
    assert_same_index("empty batch", &same, &index);
}

#[test]
fn an_inseparable_over_capacity_leaf_that_receives_entries_stays_one_leaf() {
    // 40 copies of one series share one summary: a 40-entry leaf under
    // capacity 32 that no split can separate. More copies must join it,
    // and a neighbour with a different summary must split it off.
    let config = sequential(IndexConfig::for_tests());
    let walk = gen::generate(DatasetKind::RandomWalk, 300, 83);
    let len = walk.series_len();
    let twin = walk.series(7).to_vec();
    let mut values = Vec::new();
    for i in 0..340 {
        match i {
            100..=139 | 300..=319 => values.extend_from_slice(&twin),
            _ => values.extend_from_slice(walk.series(i % 300)),
        }
    }
    let full = Dataset::from_flat(values, len).unwrap();
    let twin_leaf = |index: &MessiIndex| {
        let (sax, _) = index.summarize_query(&twin);
        let key = messi::sax::root_key::root_key(&sax, index.sax_config().segments);
        let (arena, root) = index.key_root(key).expect("twin's key");
        let leaf = arena.descend_by_sax(root, &sax, index.sax_config().segments);
        arena.leaf_entries(leaf).to_vec()
    };
    let twin_words = |index: &MessiIndex| {
        let (sax, _) = index.summarize_query(&twin);
        let segments = index.sax_config().segments;
        let key = messi::sax::root_key::root_key(&sax, segments);
        let (arena, root) = index.key_root(key).expect("twin's key");
        let leaf = arena.leaf(arena.descend_by_sax(root, &sax, segments));
        (0..leaf.entries.len())
            .map(|j| leaf.sax(j))
            .collect::<Vec<_>>()
    };

    let (base, _) = MessiIndex::build(Arc::new(slice(&full, 0, 300)), &config);
    let before = twin_leaf(&base);
    assert!(
        before.len() > config.leaf_capacity,
        "{} entries",
        before.len()
    );
    let words = twin_words(&base);
    assert!(words.iter().all(|w| *w == words[0]));

    let grown_data = Arc::new(slice(&full, 0, 340));
    let grown = base
        .insert_batch(Arc::clone(&grown_data), 300)
        .expect("absorb");
    let after = twin_leaf(&grown);
    assert!(after.len() >= before.len() + 20, "{} entries", after.len());
    assert!(
        twin_words(&grown).iter().all(|w| *w == words[0]),
        "still one summary"
    );
    assert!(
        after.windows(2).all(|w| w[0].pos < w[1].pos),
        "position order"
    );
    let (fresh, _) = MessiIndex::build(grown_data, &config);
    assert_same_index("inseparable leaf", &grown, &fresh);
}

#[test]
fn sharded_absorb_grows_exactly_the_last_shard() {
    let full = gen::generate(DatasetKind::RandomWalk, 1_300, 84);
    let config = sequential(IndexConfig::for_tests());
    for n in [1usize, 3] {
        let (built, _) = ShardedIndex::build(Arc::new(slice(&full, 0, 900)), n, &config);
        let mut index = built;
        for end in [901usize, 1_100, 1_300] {
            let next = index
                .absorb(Arc::new(slice(&full, 0, end)))
                .expect("absorb");
            for i in 0..n - 1 {
                assert!(
                    Arc::ptr_eq(&index.shards()[i], &next.shards()[i]),
                    "N={n}: shard {i} must be shared, not rebuilt"
                );
            }
            index = next;
            let last_start = index.shard_offset(n - 1) as usize;
            let (fresh, _) = MessiIndex::build(Arc::new(slice(&full, last_start, end)), &config);
            assert_same_index(&format!("N={n} end {end}"), index.shard(n - 1), &fresh);
        }
        assert_eq!(index.num_series(), 1_300);
    }
}

#[test]
fn compact_round_trip_resaves_a_snapshot_that_loads_and_answers_like_a_fresh_build() {
    use messi::series::io::{read_dataset, write_dataset};

    let full = gen::generate(DatasetKind::RandomWalk, 700, 85);
    let base = Arc::new(slice(&full, 0, 500));
    let data_path = scratch_path("compact.mds");
    let log = scratch_path("compact.log");
    let snapshot = scratch_path("compact.messi");
    write_dataset(&base, &data_path).expect("write base");
    {
        let (built, _) = ShardedIndex::build(Arc::clone(&base), 1, &IndexConfig::default());
        let (live, _) =
            DeltaIndex::with_log(built, IngestOptions::default(), &log).expect("fresh log");
        for at in (500..700).step_by(50) {
            live.insert_batch(&slice(&full, at, at + 50))
                .expect("ingest");
        }
    }
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_messi"))
        .args(["compact", "--data"])
        .arg(&data_path)
        .arg("--log")
        .arg(&log)
        .arg("--save")
        .arg(&snapshot)
        .output()
        .expect("run messi compact");
    assert!(out.status.success(), "compact failed: {out:?}");

    let compacted = Arc::new(read_dataset(&data_path).expect("read compacted"));
    assert_eq!(
        compacted.as_flat(),
        full.as_flat(),
        "grown view, bit for bit"
    );
    // Loading re-validates every invariant of the absorbed index.
    let loaded = load_index(&snapshot, Arc::clone(&compacted)).expect("absorbed snapshot loads");
    let (fresh, _) = MessiIndex::build(Arc::clone(&compacted), loaded.config());
    let qconfig = QueryConfig {
        num_workers: 1,
        num_queues: 1,
        ..QueryConfig::default()
    };
    let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 3, 85);
    let params = DtwParams::paper_default(full.series_len());
    for spec in [
        QuerySpec::exact(),
        QuerySpec::knn(5),
        QuerySpec::knn(5).with_dtw(params),
        QuerySpec::approximate(0.0, 1.0),
    ] {
        for q in queries.iter().chain([full.series(3), full.series(699)]) {
            let (a, _) = loaded.executor().run_one(q, &spec, &qconfig);
            let (b, _) = fresh.executor().run_one(q, &spec, &qconfig);
            assert_eq!(a.len(), b.len(), "{spec:?}");
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(
                    (x.pos, x.dist_sq.to_bits()),
                    (y.pos, y.dist_sq.to_bits()),
                    "{spec:?}"
                );
            }
        }
    }
    for p in [&data_path, &log, &snapshot] {
        std::fs::remove_file(p).expect("cleanup");
    }
}
