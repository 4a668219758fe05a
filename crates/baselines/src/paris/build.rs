//! ParIS index construction (in-memory version).
//!
//! Differences from MESSI's build, per §I/§II-B of the MESSI paper:
//!
//! * The raw array is "split to as many chunks as the workers" — fixed
//!   contiguous ranges, no Fetch&Inc load balancing.
//! * Summaries go into a global **SAX array** indexed by position; the
//!   per-subtree **receiving buffers** store only *positions* (pointers
//!   into that array). Tree construction therefore pays a scattered
//!   indirection per entry — the cache-locality cost MESSI removes by
//!   storing the summaries in its buffers directly.
//! * Each receiving buffer is a single shared vector protected by a lock
//!   ([`ParisBuildVariant::Locked`]) — the synchronization cost MESSI's
//!   per-worker parts eliminate. [`ParisBuildVariant::NoSynch`] is the
//!   Fig. 5 baseline with that one cost removed (per-worker parts, but
//!   still position-only buffers and fixed ranges).
//!
//! Tree construction is MESSI's own tree phase
//! ([`messi_core::build::build_forests`]): each buffer's positions are
//! resolved through the SAX array into a worker's scratch, and that
//! sequence is split top-down into the tree inserting it entry by entry
//! would build. `NoSynch` drains each buffer in position order, so it
//! builds exactly the tree MESSI builds; `Locked` keeps whatever order
//! the racing workers took each buffer's lock in, so its leaf shapes may
//! differ from run to run.

use messi_core::build::build_forests;
use messi_core::node::SaxEntry;
use messi_core::{BuildStats, IndexConfig};
use messi_sax::convert::{SaxConfig, SaxConverter};
use messi_sax::root_key::root_key;
use messi_sax::word::SaxWord;
use messi_series::Dataset;
use messi_sync::PartitionedBuffers;
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Instant;

use super::ParisIndex;

/// Receiving-buffer discipline during the ParIS build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParisBuildVariant {
    /// One lock-protected buffer per root subtree (faithful ParIS).
    Locked,
    /// Per-worker buffer parts (the "ParIS-no-synch" baseline of Fig. 5).
    NoSynch,
}

/// Builds an in-memory ParIS index over `dataset`.
///
/// # Panics
///
/// Panics if the dataset is empty or the configuration is invalid for the
/// dataset shape.
pub fn build_paris(
    dataset: Arc<Dataset>,
    config: &IndexConfig,
    variant: ParisBuildVariant,
) -> (ParisIndex, BuildStats) {
    config.validate(dataset.series_len());
    assert!(!dataset.is_empty(), "cannot index an empty dataset");

    let sax_config = SaxConfig::new(config.segments, dataset.series_len());
    let segments = sax_config.segments;
    let num_keys = sax_config.num_root_subtrees();
    let n = dataset.len();
    let num_workers = config.num_workers;
    let per_worker = n.div_ceil(num_workers).max(1);

    // ---- Phase 1: bulk loading (SAX array + receiving buffers) ----
    let mut sax_array = vec![SaxWord::zeroed(); n];
    let t0 = Instant::now();

    // Locked receiving buffers (positions per root subtree)…
    let locked_bufs: Vec<Mutex<Vec<u32>>> = match variant {
        ParisBuildVariant::Locked => (0..num_keys).map(|_| Mutex::new(Vec::new())).collect(),
        ParisBuildVariant::NoSynch => Vec::new(),
    };
    // …or per-worker parts for the no-synch variant.
    let mut part_bufs: PartitionedBuffers<u32> = match variant {
        ParisBuildVariant::NoSynch => {
            PartitionedBuffers::new(num_keys, num_workers, config.initial_buffer_capacity)
        }
        ParisBuildVariant::Locked => PartitionedBuffers::new(1, 1, 0),
    };

    {
        // Fixed contiguous ranges: worker w handles positions
        // [w·per_worker, (w+1)·per_worker).
        let mut parts = part_bufs.parts_mut().iter_mut();
        std::thread::scope(|s| {
            for (w, sax_slice) in sax_array.chunks_mut(per_worker).enumerate() {
                let dataset = &dataset;
                let locked_bufs = &locked_bufs;
                let part = match variant {
                    ParisBuildVariant::NoSynch => parts.next(),
                    ParisBuildVariant::Locked => None,
                };
                s.spawn(move || {
                    let mut part = part;
                    let mut conv = SaxConverter::new(sax_config);
                    for (k, slot) in sax_slice.iter_mut().enumerate() {
                        let pos = w * per_worker + k;
                        let sax = conv.convert(dataset.series(pos));
                        *slot = sax;
                        let key = root_key(&sax, segments);
                        match &mut part {
                            Some(p) => p.push(key, pos as u32),
                            None => locked_bufs[key].lock().push(pos as u32),
                        }
                    }
                });
            }
        });
    }
    let summarize_time = t0.elapsed();

    // ---- Phase 2: index construction workers (MESSI's tree phase) ----
    let t1 = Instant::now();
    let key_len = |key: usize| match variant {
        ParisBuildVariant::Locked => locked_bufs[key].lock().len(),
        ParisBuildVariant::NoSynch => part_bufs.key_len(key),
    };
    let keys = (0..num_keys).map(|key| (key, key_len(key)));
    let keys = keys.filter(|&(_, len)| len > 0).collect();
    let fill = |key: usize, pool: &mut Vec<SaxEntry>| {
        // The indirection through the SAX array is ParIS's layout:
        // buffers hold pointers, not summaries.
        let entry = |&pos: &u32| SaxEntry {
            sax: sax_array[pos as usize],
            pos,
        };
        match variant {
            ParisBuildVariant::Locked => pool.extend(locked_bufs[key].lock().iter().map(entry)),
            ParisBuildVariant::NoSynch => pool.extend(part_bufs.iter_key(key, |&p| p).map(entry)),
        }
    };
    let tree = build_forests(dataset, config, keys, fill);
    let tree_time = t1.elapsed();

    let stats = BuildStats {
        summarize_time,
        tree_time,
        total_time: t0.elapsed(),
        num_series: n,
        num_leaves: tree.num_leaves(),
        num_root_subtrees: tree.touched_keys().len(),
        max_height: tree.max_height(),
    };
    (ParisIndex { tree, sax_array }, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use messi_core::MessiIndex;
    use messi_series::gen::{self, DatasetKind};

    fn build(variant: ParisBuildVariant, count: usize) -> (ParisIndex, BuildStats) {
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, count, 19));
        build_paris(data, &IndexConfig::for_tests(), variant)
    }

    #[test]
    fn paris_tree_is_structurally_valid() {
        for variant in [ParisBuildVariant::Locked, ParisBuildVariant::NoSynch] {
            let (paris, stats) = build(variant, 400);
            assert_eq!(stats.num_series, 400);
            let errors = messi_core::validate::validate(&paris.tree);
            assert!(errors.is_empty(), "{variant:?}: {errors:?}");
        }
    }

    #[test]
    fn sax_array_matches_tree_summaries() {
        let (paris, _) = build(ParisBuildVariant::Locked, 300);
        assert_eq!(paris.num_series(), 300);
        for &key in paris.tree.touched_keys() {
            paris.tree.root(key).unwrap().for_each_leaf(&mut |leaf| {
                for e in leaf.sax_entries() {
                    assert_eq!(paris.sax_array[e.pos as usize], e.sax);
                }
            });
        }
    }

    #[test]
    fn variants_build_identical_trees() {
        let (a, _) = build(ParisBuildVariant::Locked, 350);
        let (b, _) = build(ParisBuildVariant::NoSynch, 350);
        assert_eq!(a.tree.touched_keys(), b.tree.touched_keys());
        assert_eq!(a.sax_array, b.sax_array);
        // Leaf contents may be permuted (insertion order differs), but
        // per-subtree position sets must match.
        for &key in a.tree.touched_keys() {
            let collect = |t: &MessiIndex| {
                let mut v = Vec::new();
                t.root(key)
                    .unwrap()
                    .for_each_leaf(&mut |l| v.extend(l.entries.iter().map(|e| e.pos)));
                v.sort_unstable();
                v
            };
            assert_eq!(collect(&a.tree), collect(&b.tree));
        }
    }

    #[test]
    fn every_worker_count_and_paris_nosynch_build_one_index() {
        // 1 000 series in 64-series chunks: 16 chunks for Fetch&Inc to
        // deal out. MESSI at W ∈ {1, 2, 4, 13} and ParIS-NoSynch must all
        // build the same arenas, and snapshots that differ only in the
        // stored worker count.
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 1000, 29));
        let with = |num_workers| IndexConfig {
            num_workers,
            ..IndexConfig::for_tests()
        };
        let payload = |index: &MessiIndex, tag: usize| -> Vec<u8> {
            let path = std::env::temp_dir()
                .join(format!("messi-one-index-{}-{tag}.msx", std::process::id()));
            messi_core::save_index(index, &path).unwrap();
            let mut bytes = std::fs::read(&path).unwrap();
            std::fs::remove_file(&path).ok();
            // The payload alone (20-byte header, 8-byte checksum), its
            // worker count (payload bytes 4..8) blanked.
            bytes.truncate(bytes.len() - 8);
            bytes.drain(..20);
            bytes[4..8].fill(0);
            bytes
        };
        let (reference, _) = MessiIndex::build(Arc::clone(&data), &with(1));
        let want = payload(&reference, 0);
        let mut builds: Vec<(String, MessiIndex)> = [2, 4, 13]
            .into_iter()
            .map(|w| {
                let (index, _) = MessiIndex::build(Arc::clone(&data), &with(w));
                (format!("MESSI W={w}"), index)
            })
            .collect();
        let (paris, _) = build_paris(Arc::clone(&data), &with(4), ParisBuildVariant::NoSynch);
        builds.push(("ParIS-NoSynch W=4".into(), paris.tree));
        for (tag, (name, index)) in builds.iter().enumerate() {
            assert_eq!(index.touched_keys(), reference.touched_keys(), "{name}");
            assert_eq!(index.roots(), reference.roots(), "{name}");
            assert!(
                index.arenas() == reference.arenas(),
                "{name}: arenas differ"
            );
            assert!(payload(index, tag + 1) == want, "{name}: payload differs");
        }
    }

    #[test]
    fn paris_matches_messi_tree_contents() {
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 500, 23));
        let config = IndexConfig::for_tests();
        let (paris, _) = build_paris(Arc::clone(&data), &config, ParisBuildVariant::Locked);
        let (messi, _) = MessiIndex::build(data, &config);
        assert_eq!(paris.tree.touched_keys(), messi.touched_keys());
        assert_eq!(paris.tree.num_leaves(), messi.num_leaves());
    }
}
