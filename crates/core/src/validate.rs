//! Index invariant validation.
//!
//! The library's checker: the test suite (including the cross-crate
//! property tests) uses it to assert that a built, absorbed or loaded
//! index is structurally sound. The snapshot loader ([`crate::persist`])
//! does not need it: it accepts a file only if it is byte for byte the
//! index a build over the data gives. Every invariant is one the search
//! algorithms silently rely on; a violation would make "exact" answers
//! wrong rather than slow.

use crate::index::{MessiIndex, EMPTY_SLOT};
use crate::node::{NodeId, TreeArena};
use messi_sax::convert::SaxConverter;
use messi_sax::root_key::{node_word_for_root_key, root_key};
use messi_sax::word::SaxWord;

/// Checks all structural invariants of `index`.
///
/// Returns the list of violations (empty = valid; at most one semantic
/// violation is reported per subtree, and one summary mismatch in all).
/// Checked invariants:
///
/// 1. **Completeness**: every dataset position appears in exactly one
///    leaf.
/// 2. **Summary correctness**: each stored iSAX summary equals the
///    recomputed summary of its raw series. Checked in position order,
///    one pass over the dataset, once the leaves have filed their
///    summaries by position; the lowest mismatching position is
///    reported.
/// 3. **Containment**: every leaf entry's summary is contained in the
///    leaf's node word, and files under the root key of its subtree.
/// 4. **Refinement**: each subtree's root word matches its key, and
///    each inner node's children carry the two words produced by
///    refining the parent on its split segment.
/// 5. **Capacity**: no leaf exceeds the configured capacity unless all
///    its entries share one summary (the documented overflow case).
/// 6. **Bookkeeping**: `touched_keys` matches the non-empty root slots,
///    and no stored subtree is empty.
/// 7. **Arena layout**: each arena's leaves partition its entry pool in
///    depth-first order, so leaf scans and `for_each_leaf` walk flat,
///    gapless slices.
/// 8. **Run metadata**: every arena's derived leaf-run metadata (leaf
///    starts, ordinals, run spans, run ids) equals a from-scratch
///    recomputation — what the queue coalescing relies on being
///    deterministic. Derived layouts are never read from disk: a
///    snapshot load rebuilds them with the rest of the index.
/// 9. **Forest spine**: in a grouped arena, every synthetic node splits
///    an unrefined segment, its children's words extend its own, and
///    each walk bottoms out at a per-key root whose word refines exactly
///    its key — so coarse spine words only ever *loosen* mindist (the
///    pruning-admissibility requirement) and per-key copying for the
///    snapshot writer is well defined.
/// 10. **Grouping determinism**: the arena membership equals the greedy
///     regrouping of the touched keys' per-key entry counts — what lets
///     any rebuild reproduce the same forests.
///
/// A stored summary lives only in its run's columns
/// ([`crate::node::LeafRef::sax`]), so invariant 2 covers every byte.
pub fn validate(index: &MessiIndex) -> Vec<String> {
    let mut errors = Vec::new();
    let mut table = PositionTable::new(index.num_series());

    // Bookkeeping (6).
    for (key, &slot) in index.slots.iter().enumerate() {
        let touched = index.touched.binary_search(&key).is_ok();
        if (slot != EMPTY_SLOT) != touched {
            errors.push(format!(
                "key {key}: touched-list ({touched}) disagrees with root slot ({})",
                slot != EMPTY_SLOT
            ));
        }
        if slot != EMPTY_SLOT {
            let arena = &index.arenas[slot as usize];
            if arena.num_entries() == 0 {
                errors.push(format!("key {key}: empty subtree stored"));
            }
        }
    }

    // Per-arena semantics (3, 4, 5, 7, 9), then run metadata (8). Every
    // entry files its summary by position for the completeness and
    // summary checks below.
    for (arena_idx, arena) in index.arenas.iter().enumerate() {
        if let Err(e) = check_arena_semantics(index, arena, arena_idx, &mut table) {
            errors.push(e);
        }
        if let Err(e) = arena.check_derived_layout() {
            errors.push(format!("arena {arena_idx}: {e}"));
        }
    }

    // Completeness (1).
    for pos in 0..index.num_series() {
        let count = table.count(pos);
        if count != 1 {
            errors.push(format!("position {pos} appears {count} times"));
            if errors.len() > 20 {
                errors.push("… (truncated)".into());
                break;
            }
        }
    }

    // Summary correctness (2).
    if let Err(e) = table.check_summaries(index) {
        errors.push(e);
    }

    // Grouping determinism (10).
    let counts: Vec<usize> = index
        .touched
        .iter()
        .map(|&key| {
            index
                .key_root(key)
                .map(|(arena, root)| {
                    let (_, pool_lo, pool_hi) = arena.subtree_extent(root);
                    (pool_hi - pool_lo) as usize
                })
                .unwrap_or(0)
        })
        .collect();
    let groups = crate::node::forest_groups(&counts);
    if groups.len() != index.arenas.len() {
        errors.push(format!(
            "{} arenas stored, deterministic regrouping yields {}",
            index.arenas.len(),
            groups.len()
        ));
    }
    for (g, range) in groups.into_iter().enumerate() {
        for i in range {
            let key = index.touched[i];
            if index.slots.get(key).copied() != Some(g as u32) {
                errors.push(format!(
                    "key {key}: filed in arena {:?}, regrouping places it in {g}",
                    index.slots.get(key)
                ));
            }
        }
    }
    errors
}

/// Every stored summary filed by dataset position: what the arena
/// sweep fills, so that completeness (invariant 1) and summary
/// correctness (invariant 2) are checked afterwards in position order —
/// one sequential read of the collection, as the build's summarize phase
/// reads it, instead of one random series fetch per leaf entry.
struct PositionTable {
    /// Leaf entries that named each position.
    counts: Vec<u32>,
    /// The summary the first entry naming each position stores.
    words: Vec<SaxWord>,
}

impl PositionTable {
    /// An empty table over positions `0 .. num_series`.
    fn new(num_series: usize) -> Self {
        Self {
            counts: vec![0; num_series],
            words: vec![SaxWord::zeroed(); num_series],
        }
    }

    /// Files `sax` as the summary stored for `pos`; the first entry's
    /// summary is the one kept.
    fn file(&mut self, pos: usize, sax: &SaxWord) -> Result<(), String> {
        let count =
            (self.counts.get_mut(pos)).ok_or_else(|| format!("position {pos} out of range"))?;
        if *count == 0 {
            self.words[pos] = *sax;
        }
        *count += 1;
        Ok(())
    }

    /// How many leaf entries named `pos`.
    fn count(&self, pos: usize) -> u32 {
        self.counts[pos]
    }

    /// Summary correctness (invariant 2): recomputes the summary of every
    /// filed position from the dataset, in position order, and compares
    /// it with the filed one. Reports the lowest mismatching position,
    /// naming the root key of its stored summary.
    ///
    /// # Errors
    ///
    /// `key {key}: entry {pos} has a forged or stale summary`.
    fn check_summaries(&self, index: &MessiIndex) -> Result<(), String> {
        let mut conv = SaxConverter::new(index.sax_config());
        let stale = (0..self.counts.len()).find(|&pos| {
            self.count(pos) != 0 && conv.convert(index.dataset.series(pos)) != self.words[pos]
        });
        match stale {
            None => Ok(()),
            Some(pos) => {
                let key = root_key(&self.words[pos], index.sax_config().segments);
                Err(format!(
                    "key {key}: entry {pos} has a forged or stale summary"
                ))
            }
        }
    }
}

/// Fail-fast semantic check of one arena: the forest spine (invariant
/// 9), then every member subtree's per-key semantics. Summaries are not
/// recomputed here: every stored `(position, summary)` is filed in
/// `table` for the position-order pass
/// ([`PositionTable::check_summaries`]).
fn check_arena_semantics(
    index: &MessiIndex,
    arena: &TreeArena,
    arena_idx: usize,
    table: &mut PositionTable,
) -> Result<(), String> {
    let members = check_forest_spine(index, arena, arena_idx)?;
    for &(key, root) in &members {
        check_subtree_semantics(index, arena, key, root, table)?;
    }
    Ok(())
}

/// Walks an arena's synthetic spine (empty for a solo per-key arena),
/// verifying invariant 9, and returns the member `(key, per-key root)`
/// pairs in ascending key order.
fn check_forest_spine(
    index: &MessiIndex,
    arena: &TreeArena,
    arena_idx: usize,
) -> Result<Vec<(usize, NodeId)>, String> {
    let segments = index.sax_config().segments;
    let mut members = Vec::new();
    let mut stack = vec![TreeArena::ROOT];
    while let Some(id) = stack.pop() {
        let word = arena.word(id);
        if (0..segments).all(|s| word.bits(s) >= 1) {
            // First fully refined node on this path: a per-key root.
            // Its word must refine *exactly* the key bits (one bit per
            // segment), pinning the spine boundary to original roots.
            let mut key = 0usize;
            for s in 0..segments {
                key = (key << 1) | usize::from(word.symbol(s) >> (word.bits(s) - 1));
            }
            if word != &node_word_for_root_key(key, segments) {
                return Err(format!(
                    "arena {arena_idx}: per-key root {id} word {} over-refines key {key}",
                    word.display(segments)
                ));
            }
            if index.slots.get(key).copied() != Some(arena_idx as u32) {
                return Err(format!(
                    "arena {arena_idx}: member key {key} filed in arena {:?}",
                    index.slots.get(key)
                ));
            }
            members.push((key, id));
            continue;
        }
        if arena.is_leaf(id) {
            return Err(format!(
                "arena {arena_idx}: leaf {id} above full key refinement"
            ));
        }
        let split = arena.split_segment(id);
        if word.bits(split) != 0 {
            return Err(format!(
                "arena {arena_idx}: synthetic node {id} splits refined segment {split}"
            ));
        }
        let (left, right) = arena.children(id);
        for (child, side_bit) in [(left, 0u16), (right, 1)] {
            let child_word = arena.word(child);
            for s in 0..segments {
                let (pb, cb) = (word.bits(s), child_word.bits(s));
                if cb < pb || (child_word.symbol(s) >> (cb - pb)) != word.symbol(s) {
                    return Err(format!(
                        "arena {arena_idx}: node {child} word {} does not extend its \
                         spine parent {}",
                        child_word.display(segments),
                        word.display(segments)
                    ));
                }
            }
            let cb = child_word.bits(split);
            if cb == 0 || (child_word.symbol(split) >> (cb - 1)) != side_bit {
                return Err(format!(
                    "arena {arena_idx}: node {child} sits on the wrong side of the \
                     synthetic split on segment {split}"
                ));
            }
        }
        stack.push(right);
        stack.push(left);
    }
    if !members.windows(2).all(|w| w[0].0 < w[1].0) {
        return Err(format!(
            "arena {arena_idx}: member keys out of ascending order"
        ));
    }
    Ok(members)
}

/// Fail-fast semantic check of one member subtree rooted at `root`:
/// root word vs key, refinement chains, arena pool layout, leaf
/// capacity, containment and key filing. Every stored `(position,
/// summary)` is filed in `table`.
fn check_subtree_semantics(
    index: &MessiIndex,
    arena: &TreeArena,
    key: usize,
    root: NodeId,
    table: &mut PositionTable,
) -> Result<(), String> {
    let segments = index.sax_config().segments;
    // Refinement (4), at the root: the subtree must cover exactly its key.
    if arena.word(root) != &node_word_for_root_key(key, segments) {
        return Err(format!("key {key}: root word does not match the key"));
    }
    // The node array is in preorder (guaranteed by the builder, and
    // loaded snapshots are rebuilt), so a linear sweep over the
    // subtree's contiguous node range visits its leaves in depth-first
    // order, and the pool cursor check below — starting at the
    // subtree's contiguous pool slice — is exactly the arena-layout
    // invariant (7) restricted to this member.
    let (node_end, pool_lo, pool_hi) = arena.subtree_extent(root);
    let mut cursor = pool_lo;
    for id in root..node_end {
        if !arena.is_leaf(id) {
            // Refinement (4).
            let (left, right) = arena.children(id);
            let (zero, one) = arena.word(id).refine(arena.split_segment(id));
            if arena.word(left) != &zero {
                return Err(format!(
                    "key {key}: left child word {} ≠ refinement {}",
                    arena.word(left).display(segments),
                    zero.display(segments)
                ));
            }
            if arena.word(right) != &one {
                return Err(format!(
                    "key {key}: right child word {} ≠ refinement {}",
                    arena.word(right).display(segments),
                    one.display(segments)
                ));
            }
            continue;
        }
        // Arena layout (7).
        let (start, _) = arena.leaf_range(id);
        if start != cursor {
            return Err(format!(
                "key {key}: leaf pool slice starts at {start}, expected {cursor}"
            ));
        }
        let leaf = arena.leaf(id);
        cursor += leaf.entries.len() as u32;
        // Capacity (5).
        if leaf.entries.len() > index.config.leaf_capacity
            && !(0..leaf.entries.len()).all(|j| leaf.sax(j) == leaf.sax(0))
        {
            return Err(format!(
                "key {key}: oversized leaf ({} > {}) with separable entries",
                leaf.entries.len(),
                index.config.leaf_capacity
            ));
        }
        for (j, e) in leaf.entries.iter().enumerate() {
            let (pos, sax) = (e.pos as usize, leaf.sax(j));
            table
                .file(pos, &sax)
                .map_err(|e| format!("key {key}: {e}"))?;
            // Containment (3).
            if !leaf.word.contains(&sax, segments) {
                return Err(format!("key {key}: entry {pos} not contained in leaf word"));
            }
            if root_key(&sax, segments) != key {
                return Err(format!("key {key}: entry {pos} filed under wrong key"));
            }
        }
    }
    if cursor != pool_hi {
        return Err(format!(
            "key {key}: depth-first leaves cover up to {cursor} of the subtree pool \
             slice ending at {pool_hi}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IndexConfig;
    use messi_series::gen::{self, DatasetKind};
    use std::sync::Arc;

    #[test]
    fn fresh_indexes_validate_clean() {
        for kind in [
            DatasetKind::RandomWalk,
            DatasetKind::Seismic,
            DatasetKind::Sald,
        ] {
            let data = Arc::new(gen::generate(kind, 300, 7));
            let (index, _) = MessiIndex::build(data, &IndexConfig::for_tests());
            let errors = validate(&index);
            assert!(errors.is_empty(), "{kind:?}: {errors:?}");
        }
    }

    #[test]
    fn paper_config_validates_clean() {
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 1000, 9));
        let (index, _) = MessiIndex::build(data, &IndexConfig::default());
        let errors = validate(&index);
        assert!(errors.is_empty(), "{errors:?}");
    }

    /// `index` with the stored summary of each pool entry in `victims`
    /// (counted across the per-key subtrees in key order) flipped in its
    /// lowest bit, on a segment its leaf word has not refined that far:
    /// containment and key filing still hold, so only recomputing the
    /// summary can tell. Returns the forged index and the victims'
    /// positions.
    fn forge_below_refinement(index: &MessiIndex, victims: &[usize]) -> (MessiIndex, Vec<u32>) {
        use crate::node::PartScratch;
        let segments = index.sax_config().segments;
        let mut scratch = PartScratch::default();
        let mut leaf_words = Vec::new();
        for &key in index.touched_keys() {
            let (arena, root) = index.key_root(key).expect("touched");
            arena.copy_subtree(key, root, &mut scratch);
            let (node_end, _, _) = arena.subtree_extent(root);
            for leaf in (root..node_end).filter(|&id| arena.is_leaf(id)) {
                let leaf = arena.leaf(leaf);
                leaf_words.extend(std::iter::repeat(*leaf.word).take(leaf.entries.len()));
            }
        }
        let positions = (victims.iter())
            .map(|&v| {
                let word = leaf_words[v];
                let s = (0..segments)
                    .find(|&s| usize::from(word.bits(s)) < messi_sax::word::CARD_BITS)
                    .expect("a segment refined below full cardinality");
                let entry = &mut scratch.pool[v];
                let mut symbols = *entry.sax.symbols();
                symbols[s] ^= 1;
                entry.sax = SaxWord::new(&symbols);
                assert!(word.contains(&entry.sax, segments));
                entry.pos
            })
            .collect();
        let dataset = Arc::clone(index.dataset());
        let forged = MessiIndex::from_raw_parts(dataset, index.config().clone(), &scratch.parts());
        (forged, positions)
    }

    #[test]
    fn a_flipped_column_byte_is_caught_by_recomputation() {
        // The columns are the only copy of a stored summary: one wrong
        // byte there, below its leaf's refinement, leaves containment and
        // key filing intact and must surface as that entry's summary.
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 300, 31));
        let (mut index, _) = MessiIndex::build(data, &IndexConfig::for_tests());
        let segments = index.sax_config().segments;
        let arena = &mut index.arenas[0];
        let id = (0..arena.num_nodes() as NodeId)
            .find(|&id| arena.is_leaf(id) && !arena.leaf_entries(id).is_empty())
            .expect("a non-empty leaf");
        let leaf = arena.leaf(id);
        let j = leaf.entries.len() - 1;
        let pos = leaf.entries[j].pos;
        let s = (0..segments)
            .find(|&s| usize::from(leaf.word.bits(s)) < messi_sax::word::CARD_BITS)
            .expect("a segment refined below full cardinality");
        *arena.symbol_mut(id, j, s) ^= 1;
        let errors = validate(&index);
        let wanted = format!("entry {pos} has a forged or stale summary");
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(errors[0].contains(&wanted), "{errors:?}");
    }

    /// The root key a build files `pos` under.
    fn key_of(index: &MessiIndex, pos: u32) -> usize {
        let sax = SaxConverter::new(index.sax_config()).convert(index.dataset.series(pos as usize));
        root_key(&sax, index.sax_config().segments)
    }

    fn load_forged(forged: &MessiIndex, name: &str) -> crate::persist::PersistError {
        let path =
            std::env::temp_dir().join(format!("messi-validate-test-{}-{name}", std::process::id()));
        crate::persist::save_index(forged, &path).expect("save");
        let loaded = crate::persist::load_index(&path, Arc::clone(forged.dataset()));
        std::fs::remove_file(&path).ok();
        match loaded {
            Ok(_) => panic!("a forged summary must not load"),
            Err(e) => e,
        }
    }

    #[test]
    fn a_contained_summary_forgery_is_caught_by_recomputation() {
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 300, 23));
        let (index, _) = MessiIndex::build(data, &IndexConfig::for_tests());
        let victim = index.num_entries() / 2;
        let (forged, positions) = forge_below_refinement(&index, &[victim]);
        let wanted = format!("entry {} has a forged or stale summary", positions[0]);
        let errors = validate(&forged);
        let first = errors.first().map(String::as_str);
        assert!(first.is_some_and(|e| e.contains(&wanted)), "{errors:?}");
        let section = format!("root key {}", key_of(&index, positions[0]));
        match load_forged(&forged, "contained.msx") {
            crate::persist::PersistError::Corrupt(msg) => assert!(msg.contains(&section), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn the_lowest_stale_position_is_reported_whatever_the_schedule() {
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 600, 29));
        let (index, _) = MessiIndex::build(data, &IndexConfig::for_tests());
        let n = index.num_entries();
        let (forged, positions) = forge_below_refinement(&index, &[0, n / 3, n - 1]);
        let lowest = positions.iter().min().expect("three victims");
        let wanted = format!("entry {lowest} has a forged or stale summary");
        let mut table = PositionTable::new(forged.num_series());
        for (i, arena) in forged.arenas().iter().enumerate() {
            check_arena_semantics(&forged, arena, i, &mut table)
                .expect("everything but the summaries holds");
        }
        let e = table.check_summaries(&forged).unwrap_err();
        assert!(e.contains(&wanted), "{e}");
        assert!(validate(&forged).iter().any(|e| e.contains(&wanted)));
        // A load names the first forged subtree in key order, whatever
        // the rebuild's schedule.
        let first_key = positions.iter().map(|&pos| key_of(&index, pos)).min();
        let section = format!("root key {}", first_key.expect("three victims"));
        for round in 0..4 {
            let e = load_forged(&forged, &format!("lowest-{round}.msx")).to_string();
            assert!(e.contains(&section), "{e}");
        }
    }

    #[test]
    fn detects_corrupted_index() {
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 100, 3));
        let (mut index, _) = MessiIndex::build(data, &IndexConfig::for_tests());
        // Sabotage: unhook one subtree's slot, breaking completeness +
        // bookkeeping.
        let key = index.touched[0];
        index.slots[key] = EMPTY_SLOT;
        let errors = validate(&index);
        assert!(!errors.is_empty(), "corruption must be detected");
    }
}
