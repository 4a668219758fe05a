//! Parallel index construction (Alg. 1–4, Fig. 3).
//!
//! Two phases, separated by a full synchronization of the Nw index
//! workers:
//!
//! 1. **CalculateiSAXSummaries** (Alg. 3): the raw-data array is cut into
//!    `chunk_size`-series chunks handed out by Fetch&Inc; each worker
//!    converts its chunk's series to iSAX and files `(summary, position)`
//!    into *its own part* of the target subtree's buffer — no locks.
//! 2. **TreeConstruction** (Alg. 4): *forest groups* (the consecutive
//!    root subtrees that share one arena; see [`crate::node`]) are handed
//!    out by Fetch&Inc. For each member key a worker drains all parts of
//!    its buffer, in position order, into its scratch and splits the
//!    sequence top-down into the tree that inserting it entry by entry
//!    would build (see [`crate::node`]); then it assembles the group's
//!    arena once. Group ownership is exclusive, so this phase is also
//!    lock-free; [`build_forests`] is shared with ParIS.
//!
//! Position order makes the index a function of its data: the same
//! arenas and snapshot bytes (bar the stored worker count) for any
//! worker count and chunk schedule.
//!
//! The paper's barrier between the phases (Alg. 2 line 2) is realized by
//! ending the first thread scope and opening a second one: joining all
//! workers *is* a barrier, and it converts the buffers from per-worker
//! exclusive (`&mut`) to shared read-only (`&`) access, letting the
//! borrow checker prove the absence of the data races the paper's design
//! carefully avoids. The extra spawn cost (~tens of µs) is negligible at
//! any realistic scale.

use crate::config::IndexConfig;
use crate::index::MessiIndex;
use crate::node::{assemble_forest, forest_groups, PartScratch, SaxEntry, Splitter};
use crate::stats::BuildStats;
use messi_sax::convert::{SaxConfig, SaxConverter};
use messi_sax::root_key::{node_word_for_root_key, root_key};
use messi_series::Dataset;
use messi_sync::{Dispenser, PartitionedBuffers};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Rejects datasets whose positions would overflow the `u32` stored in
/// every [`crate::node::LeafEntry`]. Without this, `pos as u32` would
/// silently wrap on collections above 4.29 G series and the index would
/// return wrong answers instead of failing loudly. Checked again by the
/// one index constructor, which a load and an absorb go through as well.
pub(crate) fn assert_positions_fit(dataset: &Dataset) {
    assert!(
        dataset.len() <= u32::MAX as usize,
        "dataset has {} series but a single MessiIndex stores positions as u32 (max {}); \
         build a sharded index instead (`ShardedIndex::build` / `--shards N`), which splits \
         the collection into independent u32-position shards and reports u64 global positions",
        dataset.len(),
        u32::MAX
    );
}

/// Builds a [`MessiIndex`] over `dataset` (see module docs).
///
/// # Panics
///
/// Panics if the dataset is empty, holds more than `u32::MAX` series, or
/// the configuration is invalid for the dataset shape.
pub fn build_index(dataset: Arc<Dataset>, config: &IndexConfig) -> (MessiIndex, BuildStats) {
    config.validate(dataset.series_len());
    assert!(!dataset.is_empty(), "cannot index an empty dataset");
    assert_positions_fit(&dataset);

    let sax_config = SaxConfig::new(config.segments, dataset.series_len());
    let segments = sax_config.segments;
    let num_keys = sax_config.num_root_subtrees();
    let n = dataset.len();
    let chunk_size = config.chunk_size.max(1);
    let num_chunks = n.div_ceil(chunk_size);
    let num_workers = config.num_workers;

    // ---- Phase 1: CalculateiSAXSummaries (Alg. 3) ----
    let mut buffers: PartitionedBuffers<SaxEntry> =
        PartitionedBuffers::new(num_keys, num_workers, config.initial_buffer_capacity);
    let chunk_dispenser = Dispenser::new(num_chunks);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for part in buffers.parts_mut().iter_mut() {
            let dataset = &dataset;
            let dispenser = &chunk_dispenser;
            s.spawn(move || {
                let mut conv = SaxConverter::new(sax_config);
                while let Some(chunk) = dispenser.next() {
                    let start = chunk * chunk_size;
                    let end = usize::min(start + chunk_size, n);
                    for pos in start..end {
                        let sax = conv.convert(dataset.series(pos));
                        let key = root_key(&sax, segments);
                        part.push(
                            key,
                            SaxEntry {
                                sax,
                                pos: pos as u32,
                            },
                        );
                    }
                }
            });
        }
    });
    let summarize_time = t0.elapsed();

    // ---- Phase 2: TreeConstruction (Alg. 4) ----
    let t1 = Instant::now();
    // The paper's workers fetch all 2^w buffer ids and skip empty ones;
    // pre-computing the touched list is the same scan done once.
    let keys = (buffers.touched_keys().iter()).map(|&key| (key, buffers.key_len(key)));
    let index = build_forests(dataset, config, keys.collect(), |key, pool| {
        pool.extend(buffers.iter_key(key, |e| e.pos));
    });
    let tree_time = t1.elapsed();

    let stats = BuildStats {
        summarize_time,
        tree_time,
        total_time: t0.elapsed(),
        num_series: n,
        num_leaves: index.num_leaves(),
        num_root_subtrees: index.touched.len(),
        max_height: index.max_height(),
    };
    (index, stats)
}

/// Alg. 4's TreeConstruction, shared by MESSI's buffered build and the
/// ParIS baselines: `keys` lists the non-empty root keys, ascending,
/// with their entry counts. Workers claim whole forest groups by
/// Fetch&Inc; `fill(key, pool)` appends a member key's entries, in
/// insertion order, to the worker's scratch pool, where they are split
/// top-down into the key's subtree behind the group's earlier members,
/// and the group's arena is assembled once.
#[doc(hidden)]
pub fn build_forests(
    dataset: Arc<Dataset>,
    config: &IndexConfig,
    keys: Vec<(usize, usize)>,
    fill: impl Fn(usize, &mut Vec<SaxEntry>) + Sync,
) -> MessiIndex {
    let (touched, counts): (Vec<usize>, Vec<usize>) = keys.into_iter().unzip();
    let segments = config.segments;
    let split = Splitter {
        segments,
        leaf_capacity: config.leaf_capacity,
    };
    let groups = forest_groups(&counts);
    let dispenser = Dispenser::new(groups.len());
    let built: Vec<OnceLock<_>> = groups.iter().map(|_| OnceLock::new()).collect();
    std::thread::scope(|s| {
        for _ in 0..config.num_workers {
            s.spawn(|| {
                let mut scratch = PartScratch::default();
                while let Some(g) = dispenser.next() {
                    scratch.clear();
                    for &key in &touched[groups[g].clone()] {
                        scratch.open(key);
                        let from = scratch.pool.len();
                        fill(key, &mut scratch.pool);
                        split.emit(node_word_for_root_key(key, segments), from, &mut scratch);
                    }
                    let arena = assemble_forest(&scratch.parts(), segments);
                    assert!(built[g].set(arena).is_ok(), "group {g} built twice");
                }
            });
        }
    });
    let arenas: Option<Vec<_>> = built.into_iter().map(OnceLock::into_inner).collect();
    let arenas = arenas.expect("every group built");
    MessiIndex::from_forests(dataset, config.clone(), touched, &groups, arenas)
}

#[cfg(test)]
mod tests {
    use super::*;
    use messi_series::gen::{self, DatasetKind};

    fn build_with(config: &IndexConfig, count: usize, seed: u64) -> (MessiIndex, BuildStats) {
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, count, seed));
        build_index(data, config)
    }

    #[test]
    fn indexes_every_series_exactly_once() {
        let (index, stats) = build_with(&IndexConfig::for_tests(), 500, 3);
        assert_eq!(stats.num_series, 500);
        let mut seen = vec![false; 500];
        for arena in index.arenas() {
            arena.for_each_leaf(&mut |leaf| {
                for e in leaf.entries {
                    assert!(!seen[e.pos as usize], "pos {} twice", e.pos);
                    seen[e.pos as usize] = true;
                }
            });
        }
        assert!(seen.iter().all(|&b| b), "some series missing from index");
    }

    #[test]
    fn deterministic_structure_across_worker_counts() {
        // The index is a function of its data: over 16 chunks, any worker
        // count gives the same arenas — records, pools, derived columns
        // and runs — filed under the same keys.
        let base = IndexConfig::for_tests();
        let build = |num_workers| {
            build_with(
                &IndexConfig {
                    num_workers,
                    ..base.clone()
                },
                1000,
                9,
            )
            .0
        };
        let i1 = build(1);
        assert!(1000 / base.chunk_size >= 8, "too few chunks to race");
        for workers in [4, 13] {
            let other = build(workers);
            assert_eq!(i1.touched_keys(), other.touched_keys(), "W={workers}");
            assert_eq!(i1.slots, other.slots, "W={workers}");
            assert_eq!(i1.roots(), other.roots(), "W={workers}");
            assert!(i1.arenas() == other.arenas(), "W={workers}: arenas differ");
        }
    }

    #[test]
    fn respects_leaf_capacity() {
        let config = IndexConfig {
            leaf_capacity: 16,
            ..IndexConfig::for_tests()
        };
        let (index, stats) = build_with(&config, 1000, 5);
        assert!(stats.num_leaves >= 1000 / 16 / 4, "suspiciously few leaves");
        for &key in index.touched_keys() {
            index.root(key).unwrap().for_each_leaf(&mut |leaf| {
                if leaf.entries.len() > 16 {
                    assert!(
                        (0..leaf.entries.len()).all(|j| leaf.sax(j) == leaf.sax(0)),
                        "oversized leaf must hold identical summaries only"
                    );
                }
            });
        }
    }

    #[test]
    fn stats_are_plausible() {
        let (index, stats) = build_with(&IndexConfig::for_tests(), 400, 7);
        assert_eq!(stats.num_leaves, index.num_leaves());
        assert_eq!(stats.num_root_subtrees, index.touched_keys().len());
        assert_eq!(stats.max_height, index.max_height());
        assert!(stats.total_time >= stats.tree_time);
    }

    #[test]
    fn tiny_datasets_and_odd_chunks() {
        // chunk_size larger than the dataset, more workers than series.
        let config = IndexConfig {
            num_workers: 8,
            chunk_size: 1_000_000,
            ..IndexConfig::for_tests()
        };
        let (index, stats) = build_with(&config, 3, 1);
        assert_eq!(stats.num_series, 3);
        assert_eq!(index.num_series(), 3);
        // chunk_size 1: maximal dispenser traffic.
        let config = IndexConfig {
            chunk_size: 1,
            ..IndexConfig::for_tests()
        };
        let (index, _) = build_with(&config, 50, 1);
        assert_eq!(index.num_series(), 50);
    }

    #[test]
    fn subtree_storage_is_allocation_flat() {
        // The arena invariant made observable: each arena's storage is
        // a fixed set of tight allocations (nodes, positions, columns and
        // run metadata), so capacity equals length — no per-node or
        // per-leaf allocations survive into the finished index.
        let (index, _) = build_with(&IndexConfig::for_tests(), 800, 21);
        for (i, arena) in index.arenas().iter().enumerate() {
            assert!(
                arena.allocation_flat(),
                "arena {i}: storage is not capacity-tight"
            );
        }
        // Storage totals are consistent with the per-arena sums, plus
        // the root block's 4 bytes per arena.
        assert_eq!(
            index.node_storage_bytes(),
            index.arenas().iter().map(|a| a.node_bytes()).sum::<usize>() + 4 * index.arenas().len()
        );
        assert_eq!(index.num_entries(), 800);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn rejects_empty_dataset() {
        let data = Arc::new(Dataset::from_flat(vec![], 256).unwrap());
        build_index(data, &IndexConfig::default());
    }
}
