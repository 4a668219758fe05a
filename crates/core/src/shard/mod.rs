//! Sharded multi-index scatter-gather.
//!
//! A [`ShardedIndex`] splits the collection into N contiguous position
//! ranges and builds one independent [`MessiIndex`](crate::MessiIndex)
//! per range — in parallel, one build per shard. Queries fan out to
//! per-shard engines and the partial results are merged:
//!
//! * **1-NN (exact, DTW, δ-ε-approximate)** — every shard runs the full
//!   engine, but all shards publish BSF improvements into one atomic
//!   cross-shard bound and prune against it
//!   (`engine::SharedBound`), so a tight early answer found in shard 0
//!   prunes shard 3's traversal and queue drain. The gather step takes
//!   the minimum. Pruning never changes which distances are *computed
//!   for the winner* — only which losers are skipped — so the merged
//!   answer is bit-identical to the single-index answer.
//! * **k-NN** — all shards offer into one shared
//!   `KnnSet` keyed by global positions; the k-th-best
//!   bound is therefore automatically global and the set *is* the
//!   merged answer.
//! * **ε-range** — the bound is the fixed ε², nothing is shared; the
//!   gather concatenates the per-shard hit lists and re-sorts.
//!
//! Per-shard indexes store positions as local `u32`s (that cap is the
//! reason `--shards` exists: N shards lift the collection ceiling to
//! N × `u32::MAX`); every cross-shard artifact — answers, the shared
//! k-NN set — uses `u64` *global* positions produced by [`global_pos`].
//!
//! [`save_sharded`] / [`load_sharded`] persist a sharded index as a
//! snapshot *directory*: one `shard-N.messi` file per shard (the
//! [`crate::persist`] container format, unchanged) plus a checksummed
//! `manifest.messi` recording the partition, so loads can reconstruct
//! the exact per-shard sub-datasets and run in parallel.

mod exec;
mod index;
mod persist;

pub use exec::ShardedExecutor;
pub(crate) use exec::{answer_solo, Shard, ShardReturn};
pub use index::ShardedIndex;
pub use persist::{load_sharded, save_sharded};

/// Converts a shard-local `u32` position into a collection-global `u64`
/// position: `offset + local`, where `offset` is the shard's first
/// global position ([`ShardedIndex::shard_offset`]).
///
/// This is the *single* place global-position arithmetic lives: the
/// shards' search steps, the shared k-NN set, the gather/merge steps,
/// and the equivalence tests all call it, so the globalization rule
/// cannot drift between layers. The inverse direction (global → shard +
/// local) is [`ShardedIndex::locate`].
///
/// Shard ranges are contiguous and disjoint, so `global_pos` is
/// injective across shards: two distinct (shard, local) pairs never
/// collide, which is what makes deduplication by global position in the
/// shared k-NN set sound.
#[inline]
pub fn global_pos(offset: u64, local: u32) -> u64 {
    offset + u64::from(local)
}

#[cfg(test)]
mod tests {
    use super::global_pos;

    #[test]
    fn global_pos_is_offset_plus_local() {
        assert_eq!(global_pos(0, 0), 0);
        assert_eq!(global_pos(0, 7), 7);
        assert_eq!(global_pos(1_000, 7), 1_007);
        // The whole point of u64 globals: local positions near the u32
        // cap still globalize without wrapping.
        assert_eq!(
            global_pos(u64::from(u32::MAX), u32::MAX),
            2 * u64::from(u32::MAX)
        );
    }
}
