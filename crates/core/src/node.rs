//! Arena-backed index tree storage.
//!
//! Three node kinds, as in §II-B / Fig. 1(d): a root with up to 2^w
//! children (represented in [`crate::index::MessiIndex`] as a dense array
//! indexed by root key), binary inner nodes carrying a
//! variable-cardinality iSAX summary, and leaves holding the
//! full-cardinality `(iSAX summary, position)` pairs of the series below
//! them. Storing the summaries *in* the leaf (not pointers to a separate
//! array) keeps queue-driven leaf scans sequential in memory — one of
//! MESSI's deltas over ParIS (§I).
//!
//! This module takes that layout argument to its conclusion: instead of
//! one heap allocation per node (`Box<Node>`) and one `Vec` per leaf, a
//! whole root subtree lives in a [`TreeArena`] — one contiguous node
//! array in preorder (parent before children, left subtree before right)
//! plus one packed [`LeafEntry`] pool in the same leaf order, plus a
//! struct-of-arrays transposition of the pool's SAX symbols that the
//! batched mindist cascade streams cache-line by cache-line. Inner-node
//! traversal walks an index-linked flat array, leaf scans walk flat
//! slices, and `for_each_leaf` is a linear sweep of the node array. The
//! flat layout is also what makes the index serializable
//! ([`crate::persist`]) — the SoA pool and all run metadata are derived
//! data, rebuilt rather than stored.
//!
//! The SoA transposition is grouped into **leaf runs**: maximal groups
//! of consecutive leaves (in pool order — siblings and cousins alike)
//! whose combined entry count stays within `RUN_TARGET_ENTRIES`. Each
//! run owns one segment-major symbol block, so the batched mindist
//! kernel can scan *several* small leaves as one contiguous 8-wide
//! stream instead of falling into the partial-chunk tail on every
//! ~6-entry paper-default leaf. Runs are derived deterministically from
//! the node/entry layout alone (no configuration input), so a
//! deserialized arena rebuilds byte-identical run metadata — the
//! snapshot format is unchanged.
//!
//! Construction still follows the paper's incremental protocol (Alg. 4:
//! insert, split overflowing leaves): [`SubtreeBuilder`] runs exactly the
//! old insert/split algorithm against reusable index-linked scratch, then
//! emits the subtree's preorder records and pool entries into a
//! caller's `PartScratch`. One builder serves many subtrees back to
//! back, so its own scratch amortizes to zero. `assemble_forest` is the
//! one place an arena is made: it splices one or more emitted subtrees
//! into exact-capacity storage and derives their layout once.
//!
//! ## Forest arenas
//!
//! Paper-default trees are *sparse at the root*: with 2^w root keys and
//! ~6 entries per key, almost every root subtree is a single leaf, so
//! within-subtree runs would never span more than one leaf and the
//! run-batched mindist tier would see only partial chunks. The index
//! therefore groups runs of consecutive sparse root subtrees into one
//! **forest arena**: a single-rooted arena whose top is a *synthetic
//! iSAX trie* over the member keys. Synthetic inner nodes carry coarser
//! node words — every segment on which all member keys agree is refined
//! to that shared first bit, the rest stay unrefined — and split on the
//! first disagreeing segment, so containment, `child_of` routing, and
//! mindist admissibility all hold exactly as for built splits (a coarser
//! word can only *loosen* a lower bound). The first fully refined node
//! on any root-to-leaf path is a **per-key root**: the original subtree,
//! spliced in verbatim (preorder preserved, ids and pool offsets
//! rebased). Grouping is derived deterministically from the per-key
//! entry counts alone (`forest_groups`), so builds, baselines, the
//! snapshot loader and absorbs group identically — and snapshots serialize
//! per key by slicing each per-key subtree back out of its forest
//! (`TreeArena::subtree_part`, rebased), keeping the format byte-identical.

use messi_sax::split::choose_split;
use messi_sax::word::{NodeWord, SaxWord};
use messi_sax::MAX_SEGMENTS;

/// A `(iSAX summary, series position)` pair — the unit the index stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeafEntry {
    /// Full-cardinality iSAX summary of the series.
    pub sax: SaxWord,
    /// Position of the raw series in the dataset (`RawData` index).
    pub pos: u32,
}

/// Index of a node within its [`TreeArena`] (the root is
/// [`TreeArena::ROOT`]).
pub type NodeId = u32;

/// `tag` value marking a leaf record (inner nodes store their split
/// segment there, which is always `< MAX_SEGMENTS`).
const LEAF_TAG: u8 = u8::MAX;

/// Linked-list terminator / "empty slot" sentinel in builder scratch.
const NIL: u32 = u32::MAX;

/// Greedy cap on the entries a leaf run may span. 64 entries is eight
/// full 8-wide mindist chunks — enough to amortize the SIMD ramp on
/// paper-default (~6-entry) leaves while keeping a queued run's scan
/// granularity close to one dense leaf. A single leaf larger than the
/// cap gets a run of its own.
pub(crate) const RUN_TARGET_ENTRIES: usize = 64;

/// Entry target when grouping consecutive sparse root subtrees into one
/// forest arena — the run target, so a grouped forest's many one-leaf
/// subtrees coalesce into full batched runs. Like the run partition,
/// the grouping takes no configuration input: build, baselines, and the
/// snapshot loader must regroup identically.
pub(crate) const FOREST_TARGET_ENTRIES: usize = RUN_TARGET_ENTRIES;

/// The deterministic greedy grouping of per-key subtrees into forest
/// arenas: over ascending keys, a group closes when admitting the next
/// subtree's `counts` entry would push it past
/// [`FOREST_TARGET_ENTRIES`] (a subtree at or above the target is a
/// group of its own). Returns index ranges over `counts`.
pub(crate) fn forest_groups(counts: &[usize]) -> Vec<std::ops::Range<usize>> {
    let mut groups = Vec::new();
    let mut start = 0usize;
    let mut acc = 0usize;
    for (i, &n) in counts.iter().enumerate() {
        if i > start && acc + n > FOREST_TARGET_ENTRIES {
            groups.push(start..i);
            start = i;
            acc = 0;
        }
        acc += n;
    }
    if start < counts.len() {
        groups.push(start..counts.len());
    }
    groups
}

/// One per-key subtree as *borrowed* raw parts — a whole arena, or a
/// slice of a forest or of scratch holding many subtrees back to back.
/// Child ids and pool offsets in `nodes` count from `node_base` /
/// `pool_base`, the subtree's start in the storage it was sliced from.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RawPart<'a> {
    pub(crate) key: usize,
    pub(crate) nodes: &'a [NodeRecord],
    pub(crate) entries: &'a [LeafEntry],
    pub(crate) node_base: u32,
    pub(crate) pool_base: u32,
}

impl RawPart<'_> {
    /// The part's records moved to start at node id `node_to` and pool
    /// offset `pool_to`.
    pub(crate) fn rebased(
        &self,
        node_to: u32,
        pool_to: u32,
    ) -> impl Iterator<Item = NodeRecord> + '_ {
        self.nodes.iter().map(move |n| {
            let (from, to) = if n.tag == LEAF_TAG {
                (self.pool_base, pool_to)
            } else {
                (self.node_base, node_to)
            };
            NodeRecord {
                lo: n.lo - from + to,
                hi: n.hi - from + to,
                ..*n
            }
        })
    }
}

/// Per-key subtrees back to back in one node array and one entry pool,
/// ids and offsets absolute in them, for [`assemble_forest`] to splice.
#[derive(Debug, Default)]
pub(crate) struct PartScratch {
    pub(crate) nodes: Vec<NodeRecord>,
    pub(crate) pool: Vec<LeafEntry>,
    /// `(key, first node, first pool entry)` of each part.
    starts: Vec<(usize, usize, usize)>,
}

impl PartScratch {
    /// Empties the scratch, keeping its capacity.
    pub(crate) fn clear(&mut self) {
        self.nodes.clear();
        self.pool.clear();
        self.starts.clear();
    }

    /// Files what is appended to `nodes` / `pool` until the next `open`
    /// as `key`'s subtree.
    pub(crate) fn open(&mut self, key: usize) {
        self.starts.push((key, self.nodes.len(), self.pool.len()));
    }

    /// The filed subtrees as raw parts, in fill order.
    pub(crate) fn parts(&self) -> Vec<RawPart<'_>> {
        let end = (0, self.nodes.len(), self.pool.len());
        let ends = self.starts.iter().skip(1).chain([&end]);
        (self.starts.iter().zip(ends))
            .map(|(&(key, n0, p0), &(_, n1, p1))| RawPart {
                key,
                nodes: &self.nodes[n0..n1],
                entries: &self.pool[p0..p1],
                node_base: n0 as u32,
                pool_base: p0 as u32,
            })
            .collect()
    }
}

/// Assembles one arena from one or more per-key subtrees with ascending
/// keys — the one place an arena is made, behind builds, baselines,
/// snapshot loads and absorbs. A single part becomes a plain per-key
/// arena; several are joined under the synthetic iSAX trie described in
/// the module docs. Every vector is allocated once at its final size,
/// and the layout is derived once, on the assembled arena.
pub(crate) fn assemble_forest(parts: &[RawPart<'_>], segments: usize) -> TreeArena {
    debug_assert!(parts.windows(2).all(|w| w[0].key < w[1].key));
    // A path-compressed binary trie over k distinct keys has exactly
    // k - 1 internal nodes.
    let total_nodes = parts.iter().map(|p| p.nodes.len()).sum::<usize>() + (parts.len() - 1);
    let total_entries = parts.iter().map(|p| p.entries.len()).sum::<usize>();
    let mut nodes = Vec::with_capacity(total_nodes);
    let mut pool = Vec::with_capacity(total_entries);
    splice_forest(parts, segments, &mut nodes, &mut pool);
    debug_assert_eq!(nodes.len(), total_nodes);
    debug_assert_eq!(pool.len(), total_entries);
    // What lets the index pack every arena root into a `RootWord`.
    debug_assert!(
        (0..MAX_SEGMENTS).all(|s| nodes[0].word.bits(s) <= 1),
        "arena root refined past one bit per segment"
    );
    let layout = derive_layout(&nodes, &pool);
    let arena = TreeArena {
        nodes,
        entries: pool,
        cols: layout.cols,
        leaf_starts: layout.leaf_starts,
        leaf_ordinals: layout.leaf_ordinals,
        runs: layout.runs,
        run_of: layout.run_of,
    };
    debug_assert!(arena.allocation_flat(), "arena storage reallocated");
    arena
}

/// Recursive splice step of [`assemble_forest`]: emits (in preorder)
/// either the lone per-key subtree rebased to the current output
/// position, or a synthetic inner node splitting the key range on its
/// first disagreeing segment. Returns the emitted root id.
fn splice_forest(
    parts: &[RawPart<'_>],
    segments: usize,
    nodes: &mut Vec<NodeRecord>,
    pool: &mut Vec<LeafEntry>,
) -> NodeId {
    let my = nodes.len();
    if let [part] = parts {
        nodes.extend(part.rebased(my as u32, pool.len() as u32));
        pool.extend_from_slice(part.entries);
        return my as NodeId;
    }
    // Which key bits all members of the range share. Segment i's key bit
    // sits at position `segments - 1 - i` (segment 0 is the key's MSB).
    let mut all_or = 0usize;
    let mut all_and = usize::MAX;
    for p in parts {
        all_or |= p.key;
        all_and &= p.key;
    }
    let disagree = all_or & !all_and;
    debug_assert_ne!(disagree, 0, "duplicate keys in a forest group");
    let mut symbols = [0u16; MAX_SEGMENTS];
    let mut bits = [0u8; MAX_SEGMENTS];
    for (i, (sym, bit)) in symbols.iter_mut().zip(&mut bits).enumerate().take(segments) {
        let at = segments - 1 - i;
        if (disagree >> at) & 1 == 0 {
            *bit = 1;
            *sym = ((all_and >> at) & 1) as u16;
        }
    }
    let word = NodeWord::new(&symbols, &bits);
    // Split on the first disagreeing segment (= highest disagreeing key
    // bit). Keys ascend and agree above it, so the bit flips 0 → 1 at
    // exactly one boundary.
    let at = usize::BITS as usize - 1 - disagree.leading_zeros() as usize;
    let split = segments - 1 - at;
    let (left, right) = parts.split_at(parts.partition_point(|p| (p.key >> at) & 1 == 0));
    debug_assert!(!left.is_empty() && !right.is_empty());
    nodes.push(NodeRecord {
        word,
        tag: split as u8,
        lo: 0,
        hi: 0,
    });
    nodes[my].lo = splice_forest(left, segments, nodes, pool);
    nodes[my].hi = splice_forest(right, segments, nodes, pool);
    my as NodeId
}

/// One node record of a [`TreeArena`].
///
/// `tag` discriminates the two kinds: [`LEAF_TAG`] for leaves, the split
/// segment (`< MAX_SEGMENTS`) for inner nodes. `lo`/`hi` are the left and
/// right child ids of an inner node, or the `[lo, hi)` range of the leaf
/// in the arena's entry pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct NodeRecord {
    pub(crate) word: NodeWord,
    pub(crate) tag: u8,
    pub(crate) lo: u32,
    pub(crate) hi: u32,
}

/// The `[lo, hi)` entry-pool span of one leaf run. Runs partition the
/// pool left to right, exactly like the leaves they group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RunSpan {
    pub(crate) lo: u32,
    pub(crate) hi: u32,
}

/// Borrowed view of one leaf: its covering word, its packed entries, and
/// its position inside its run's segment-major symbol block.
#[derive(Debug, Clone, Copy)]
pub struct LeafRef<'a> {
    /// Variable-cardinality summary covering everything in this leaf.
    pub word: &'a NodeWord,
    /// The stored `(summary, position)` pairs, contiguous in the pool.
    pub entries: &'a [LeafEntry],
    /// The segment-major symbol block of the leaf's *run*: `MAX_SEGMENTS`
    /// columns of `stride` bytes each. This leaf's symbols sit at
    /// `cols[s * stride + base + j] == entries[j].sax.symbol(s)` — the
    /// transposed copy the mindist cascade streams instead of striding
    /// over interleaved [`SaxWord`]s.
    pub cols: &'a [u8],
    /// Entry count of the whole run (the column stride of `cols`).
    pub stride: usize,
    /// Offset of this leaf's first entry within the run.
    pub base: usize,
}

/// The unit a search worker scans: one or more *consecutive* leaves of
/// the same run, viewed through the run's segment-major symbol block
/// (what the priority queues carry — the multi-leaf generalization of
/// the old per-leaf `LeafSlice`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct LeafRun<'a> {
    /// The spanned leaves' `(summary, position)` pairs, contiguous.
    pub(crate) entries: &'a [LeafEntry],
    /// The whole run's symbol block (see [`LeafRef::cols`]).
    pub(crate) cols: &'a [u8],
    /// Entry count of the whole run (column stride of `cols`).
    pub(crate) stride: u32,
    /// Offset of `entries[0]` within the run.
    pub(crate) base: u32,
    /// Pool-absolute entry boundaries of the member leaves:
    /// `leaf_count() + 1` cumulative offsets, so member leaf `i` holds
    /// entries `starts[i] - starts[0] .. starts[i+1] - starts[0]` of
    /// `entries`.
    pub(crate) starts: &'a [u32],
}

impl<'a> LeafRun<'a> {
    /// Number of member leaves spanned by this run view.
    #[inline]
    pub(crate) fn leaf_count(&self) -> usize {
        self.starts.len() - 1
    }

    /// The view truncated to its first `k` member leaves (budgeted
    /// objectives admit leaves one at a time; a veto mid-run scans only
    /// the admitted prefix).
    #[inline]
    pub(crate) fn prefix(&self, k: usize) -> LeafRun<'a> {
        debug_assert!(k <= self.leaf_count());
        let cut = (self.starts[k] - self.starts[0]) as usize;
        LeafRun {
            entries: &self.entries[..cut],
            starts: &self.starts[..=k],
            ..*self
        }
    }
}

/// All derived (never serialized) per-arena layout: the SoA symbol pool
/// plus the leaf-run metadata, derived by [`derive_layout`] for every
/// assembled arena, however it was made.
#[derive(Debug)]
struct DerivedLayout {
    cols: Vec<u8>,
    leaf_starts: Vec<u32>,
    leaf_ordinals: Vec<u32>,
    runs: Vec<RunSpan>,
    run_of: Vec<u32>,
}

/// Derives the run partition and SoA symbol pool for a finished
/// node/entry layout. Deterministic and configuration-free: the greedy
/// partition walks leaves in pool order, opening a new run whenever
/// adding the next non-empty leaf would push the current run past
/// [`RUN_TARGET_ENTRIES`] (empty leaves always join the current run; an
/// oversized leaf gets a run of its own). Called once per arena, by
/// [`assemble_forest`] — for a build, a load and an absorb alike, so
/// snapshots round-trip to byte-identical metadata — and by the
/// validator's recomputation; every vector is allocated once at exact
/// capacity.
fn derive_layout(nodes: &[NodeRecord], entries: &[LeafEntry]) -> DerivedLayout {
    let num_leaves = nodes.iter().filter(|n| n.tag == LEAF_TAG).count();
    let mut leaf_starts = Vec::with_capacity(num_leaves + 1);
    let mut leaf_ordinals = Vec::with_capacity(nodes.len());
    for n in nodes {
        if n.tag == LEAF_TAG {
            leaf_ordinals.push(leaf_starts.len() as u32);
            leaf_starts.push(n.lo);
        } else {
            leaf_ordinals.push(NIL);
        }
    }
    leaf_starts.push(entries.len() as u32);

    // Greedy partition, run twice — once to count runs, once to fill the
    // exact-capacity vectors (the decision depends only on leaf lengths,
    // so both passes agree).
    let sweep = |emit: &mut dyn FnMut(usize, bool)| {
        let mut run_entries = 0usize;
        for ord in 0..num_leaves {
            let len = (leaf_starts[ord + 1] - leaf_starts[ord]) as usize;
            let opens = ord == 0 || (len > 0 && run_entries + len > RUN_TARGET_ENTRIES);
            run_entries = if opens { len } else { run_entries + len };
            emit(ord, opens);
        }
    };
    let mut num_runs = 0usize;
    sweep(&mut |_, opens| num_runs += usize::from(opens));
    let mut runs: Vec<RunSpan> = Vec::with_capacity(num_runs);
    let mut run_of = Vec::with_capacity(num_leaves);
    sweep(&mut |ord, opens| {
        let (lo, hi) = (leaf_starts[ord], leaf_starts[ord + 1]);
        if opens {
            runs.push(RunSpan { lo, hi });
        } else {
            runs.last_mut().expect("first leaf opens a run").hi = hi;
        }
        run_of.push(runs.len() as u32 - 1);
    });

    // One segment-major symbol block per run: inside run `[lo, hi)`
    // (n = hi − lo entries), column `s` occupies
    // `[lo·16 + s·n, lo·16 + (s+1)·n)`. All MAX_SEGMENTS columns are
    // materialized regardless of the configured segment count, so the
    // layout needs no config to decode.
    let mut cols = vec![0u8; entries.len() * MAX_SEGMENTS];
    for r in &runs {
        let (lo, hi) = (r.lo as usize, r.hi as usize);
        let n = hi - lo;
        let block = &mut cols[lo * MAX_SEGMENTS..hi * MAX_SEGMENTS];
        for (j, e) in entries[lo..hi].iter().enumerate() {
            for (s, &sym) in e.sax.symbols().iter().enumerate() {
                block[s * n + j] = sym;
            }
        }
    }

    DerivedLayout {
        cols,
        leaf_starts,
        leaf_ordinals,
        runs,
        run_of,
    }
}

/// A root subtree flattened into contiguous storage: node records in
/// preorder, one packed leaf-entry pool, and the pool's run-grouped
/// struct-of-arrays symbol transposition plus run metadata.
///
/// Node accessors take a [`NodeId`]; traversal starts at
/// [`TreeArena::ROOT`] and follows [`TreeArena::children`]. Leaves are in
/// depth-first (left-to-right) order both in the node array and in the
/// pool, so [`TreeArena::for_each_leaf`] is a linear sweep.
///
/// The `cols` pool mirrors `entries` segment-major *per leaf run* (see
/// the module docs and `derive_layout`): the run with pool span
/// `[lo, hi)` (n = hi − lo entries) owns the byte block `[lo·16, hi·16)`,
/// inside which column `s` occupies `[lo·16 + s·n, lo·16 + (s+1)·n)`.
/// The batched mindist kernel thus reads each segment's symbols across a
/// whole run of small leaves as one sequential stretch of cache lines.
/// `cols` and all run metadata are derived data — rebuilt on load, never
/// serialized.
#[derive(Debug, PartialEq, Eq)]
pub struct TreeArena {
    nodes: Vec<NodeRecord>,
    entries: Vec<LeafEntry>,
    cols: Vec<u8>,
    /// Pool-absolute entry offset of each leaf in ordinal (pool) order,
    /// plus a trailing `num_entries` sentinel.
    leaf_starts: Vec<u32>,
    /// Parallel to `nodes`: the leaf's ordinal, or `u32::MAX` for inner
    /// nodes.
    leaf_ordinals: Vec<u32>,
    /// Entry span of each leaf run, in pool order.
    runs: Vec<RunSpan>,
    /// Run id of each leaf, by ordinal (non-decreasing).
    run_of: Vec<u32>,
}

impl TreeArena {
    /// The root node's id (arenas are built root-first).
    pub const ROOT: NodeId = 0;

    /// Number of nodes (inner + leaf) in the subtree.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of series stored in the subtree.
    pub fn num_entries(&self) -> usize {
        self.entries.len()
    }

    /// Number of leaves in the subtree.
    pub fn num_leaves(&self) -> usize {
        self.leaf_starts.len() - 1
    }

    /// Per-run shape, in run order: `(member leaves, entries)`. What
    /// `messi info`'s run-length histogram and the benchmark's
    /// `node.leaves_per_run_mean` aggregate.
    pub fn run_shapes(&self) -> Vec<(usize, usize)> {
        let mut shapes = vec![(0usize, 0usize); self.runs.len()];
        for (ord, &r) in self.run_of.iter().enumerate() {
            let s = &mut shapes[r as usize];
            s.0 += 1;
            s.1 += (self.leaf_starts[ord + 1] - self.leaf_starts[ord]) as usize;
        }
        shapes
    }

    /// Height of the subtree (a lone leaf has height 1).
    pub fn height(&self) -> usize {
        self.height_of(Self::ROOT)
    }

    fn height_of(&self, id: NodeId) -> usize {
        let n = &self.nodes[id as usize];
        if n.tag == LEAF_TAG {
            1
        } else {
            1 + self.height_of(n.lo).max(self.height_of(n.hi))
        }
    }

    /// The node's iSAX summary.
    #[inline]
    pub fn word(&self, id: NodeId) -> &NodeWord {
        &self.nodes[id as usize].word
    }

    /// Whether `id` is a leaf.
    #[inline]
    pub fn is_leaf(&self, id: NodeId) -> bool {
        self.nodes[id as usize].tag == LEAF_TAG
    }

    /// Which segment an inner node's split refined.
    ///
    /// # Panics
    ///
    /// Debug-panics when `id` is a leaf.
    #[inline]
    pub fn split_segment(&self, id: NodeId) -> usize {
        let n = &self.nodes[id as usize];
        debug_assert_ne!(n.tag, LEAF_TAG, "split_segment of a leaf");
        n.tag as usize
    }

    /// An inner node's `(left, right)` children (0-bit child, 1-bit
    /// child).
    ///
    /// # Panics
    ///
    /// Debug-panics when `id` is a leaf.
    #[inline]
    pub fn children(&self, id: NodeId) -> (NodeId, NodeId) {
        let n = &self.nodes[id as usize];
        debug_assert_ne!(n.tag, LEAF_TAG, "children of a leaf");
        (n.lo, n.hi)
    }

    /// A leaf's packed entries.
    ///
    /// # Panics
    ///
    /// Debug-panics when `id` is an inner node.
    #[inline]
    pub fn leaf_entries(&self, id: NodeId) -> &[LeafEntry] {
        let n = &self.nodes[id as usize];
        debug_assert_eq!(n.tag, LEAF_TAG, "leaf_entries of an inner node");
        &self.entries[n.lo as usize..n.hi as usize]
    }

    /// A leaf's ordinal: its zero-based position among the arena's
    /// leaves in pool order.
    ///
    /// # Panics
    ///
    /// Debug-panics when `id` is an inner node.
    #[inline]
    pub(crate) fn leaf_ordinal(&self, id: NodeId) -> u32 {
        let ord = self.leaf_ordinals[id as usize];
        debug_assert_ne!(ord, NIL, "leaf_ordinal of an inner node");
        ord
    }

    /// The id of the run containing the leaf with ordinal `ord`.
    #[inline]
    pub(crate) fn run_of(&self, ord: u32) -> u32 {
        self.run_of[ord as usize]
    }

    /// Borrowed view of the leaf at `id`.
    ///
    /// # Panics
    ///
    /// Debug-panics when `id` is an inner node.
    #[inline]
    pub fn leaf(&self, id: NodeId) -> LeafRef<'_> {
        let n = &self.nodes[id as usize];
        debug_assert_eq!(n.tag, LEAF_TAG, "leaf of an inner node");
        let run = self.runs[self.run_of[self.leaf_ordinals[id as usize] as usize] as usize];
        LeafRef {
            word: &n.word,
            entries: &self.entries[n.lo as usize..n.hi as usize],
            cols: &self.cols[run.lo as usize * MAX_SEGMENTS..run.hi as usize * MAX_SEGMENTS],
            stride: (run.hi - run.lo) as usize,
            base: (n.lo - run.lo) as usize,
        }
    }

    /// The scannable view of the member leaves `[ord_lo, ord_hi)` of one
    /// run — what gets pushed onto the search priority queues. The span
    /// must be non-empty and must not cross a run boundary
    /// (debug-asserted).
    #[inline]
    pub(crate) fn leaf_run(&self, ord_lo: u32, ord_hi: u32) -> LeafRun<'_> {
        debug_assert!(ord_lo < ord_hi, "empty run span");
        debug_assert!(
            (ord_hi as usize) < self.leaf_starts.len(),
            "span out of bounds"
        );
        debug_assert_eq!(
            self.run_of[ord_lo as usize],
            self.run_of[ord_hi as usize - 1],
            "span crosses a run boundary"
        );
        let run = self.runs[self.run_of[ord_lo as usize] as usize];
        let (elo, ehi) = (
            self.leaf_starts[ord_lo as usize],
            self.leaf_starts[ord_hi as usize],
        );
        LeafRun {
            entries: &self.entries[elo as usize..ehi as usize],
            cols: &self.cols[run.lo as usize * MAX_SEGMENTS..run.hi as usize * MAX_SEGMENTS],
            stride: run.hi - run.lo,
            base: elo - run.lo,
            starts: &self.leaf_starts[ord_lo as usize..=ord_hi as usize],
        }
    }

    /// Visits every leaf in depth-first order. Thanks to the preorder
    /// layout this is a linear sweep of the node array, not a pointer
    /// chase.
    pub fn for_each_leaf<'a>(&'a self, f: &mut impl FnMut(LeafRef<'a>)) {
        let mut ord = 0usize;
        for n in &self.nodes {
            if n.tag == LEAF_TAG {
                let run = self.runs[self.run_of[ord] as usize];
                f(LeafRef {
                    word: &n.word,
                    entries: &self.entries[n.lo as usize..n.hi as usize],
                    cols: &self.cols
                        [run.lo as usize * MAX_SEGMENTS..run.hi as usize * MAX_SEGMENTS],
                    stride: (run.hi - run.lo) as usize,
                    base: (n.lo - run.lo) as usize,
                });
                ord += 1;
            }
        }
    }

    /// Visits every leaf run in pool order as `f(entries, cols, stride)`
    /// where `cols[s * stride + j] == entries[j].sax.symbol(s)` — the
    /// whole-run analog of [`TreeArena::for_each_leaf`], for probes that
    /// stream full runs through the batched mindist kernel.
    pub fn for_each_run<'a>(&'a self, f: &mut impl FnMut(&'a [LeafEntry], &'a [u8], usize)) {
        for r in &self.runs {
            let (lo, hi) = (r.lo as usize, r.hi as usize);
            f(
                &self.entries[lo..hi],
                &self.cols[lo * MAX_SEGMENTS..hi * MAX_SEGMENTS],
                hi - lo,
            );
        }
    }

    /// Descends from `from` to the leaf responsible for `sax` by
    /// following the summary's refined bits at each split — the
    /// home-leaf walk every seeding path shares (Alg. 5 line 3).
    ///
    /// `from` (and, by the refinement invariant, every node on the walk)
    /// must cover `sax`; debug builds assert it.
    pub fn descend_by_sax(&self, from: NodeId, sax: &SaxWord, segments: usize) -> NodeId {
        let mut id = from;
        while !self.is_leaf(id) {
            debug_assert!(self.word(id).contains(sax, segments));
            let (left, right) = self.children(id);
            id = if self.word(id).child_of(sax, self.split_segment(id)) {
                right
            } else {
                left
            };
        }
        id
    }

    /// Whether all backing allocations are capacity-tight (length ==
    /// capacity) — true for every arena produced by `assemble_forest`,
    /// which allocates each exactly once at its final size. The build
    /// tests assert this "allocation-flat" invariant on whole indexes.
    pub fn allocation_flat(&self) -> bool {
        self.nodes.capacity() == self.nodes.len()
            && self.entries.capacity() == self.entries.len()
            && self.cols.capacity() == self.cols.len()
            && self.leaf_starts.capacity() == self.leaf_starts.len()
            && self.leaf_ordinals.capacity() == self.leaf_ordinals.len()
            && self.runs.capacity() == self.runs.len()
            && self.run_of.capacity() == self.run_of.len()
    }

    /// Bytes held by the node array (capacity, i.e. the allocation).
    pub fn node_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<NodeRecord>()
    }

    /// Bytes held by the leaf-entry pool (capacity).
    pub fn entry_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<LeafEntry>()
    }

    /// A leaf's `[start, end)` range in the entry pool (validation and
    /// serialization).
    ///
    /// # Panics
    ///
    /// Debug-panics when `id` is an inner node.
    pub(crate) fn leaf_range(&self, id: NodeId) -> (u32, u32) {
        let n = &self.nodes[id as usize];
        debug_assert_eq!(n.tag, LEAF_TAG, "leaf_range of an inner node");
        (n.lo, n.hi)
    }

    /// Raw node records (test-only: the snapshot writer slices per-key
    /// subtrees out via [`TreeArena::subtree_part`] instead).
    #[cfg(test)]
    pub(crate) fn raw_nodes(&self) -> &[NodeRecord] {
        &self.nodes
    }

    /// Raw pool entries (test-only; see [`TreeArena::raw_nodes`]).
    #[cfg(test)]
    pub(crate) fn raw_entries(&self) -> &[LeafEntry] {
        &self.entries
    }

    /// Preorder extent of the subtree rooted at `id`: `(one past the
    /// last node id, pool start, pool end)`. Both ranges are contiguous
    /// because nodes are in preorder and leaves partition the pool in
    /// the same order.
    pub(crate) fn subtree_extent(&self, id: NodeId) -> (NodeId, u32, u32) {
        let mut leftmost = id;
        while !self.is_leaf(leftmost) {
            leftmost = self.children(leftmost).0;
        }
        let mut rightmost = id;
        while !self.is_leaf(rightmost) {
            rightmost = self.children(rightmost).1;
        }
        let (pool_lo, _) = self.leaf_range(leftmost);
        let (_, pool_hi) = self.leaf_range(rightmost);
        (rightmost + 1, pool_lo, pool_hi)
    }

    /// The subtree rooted at `id`, filed under `key`, as borrowed raw
    /// parts: slices of this arena's storage, with the bases that make
    /// them relocatable. Inverse of the [`assemble_forest`] splice.
    pub(crate) fn subtree_part(&self, key: usize, id: NodeId) -> RawPart<'_> {
        let (node_end, pool_lo, pool_hi) = self.subtree_extent(id);
        RawPart {
            key,
            nodes: &self.nodes[id as usize..node_end as usize],
            entries: &self.entries[pool_lo as usize..pool_hi as usize],
            node_base: id,
            pool_base: pool_lo,
        }
    }

    /// The paper's insert (Alg. 4 lines 7–11) on a flat subtree: appends
    /// to `nodes` / `pool` (ids and offsets absolute in them) the subtree
    /// at `id` after inserting `arrivals` — `(key, home leaf id, entry)`,
    /// ascending by leaf, then in insertion order. Each leaf appends its
    /// arrivals, found at the front of the list since leaf ids ascend in
    /// preorder; only a leaf pushed past capacity is re-split, through
    /// `builder` seeded with its word and old entries, and spliced back.
    /// Returns the arrivals homed after this subtree.
    pub(crate) fn grow_subtree<'r>(
        &self,
        id: NodeId,
        arrivals: &'r [(usize, NodeId, LeafEntry)],
        builder: &mut SubtreeBuilder,
        nodes: &mut Vec<NodeRecord>,
        pool: &mut Vec<LeafEntry>,
    ) -> &'r [(usize, NodeId, LeafEntry)] {
        let n = self.nodes[id as usize];
        let my = nodes.len();
        if n.tag != LEAF_TAG {
            nodes.push(n);
            nodes[my].lo = nodes.len() as NodeId;
            let arrivals = self.grow_subtree(n.lo, arrivals, builder, nodes, pool);
            nodes[my].hi = nodes.len() as NodeId;
            return self.grow_subtree(n.hi, arrivals, builder, nodes, pool);
        }
        let old = &self.entries[n.lo as usize..n.hi as usize];
        let (mine, rest) = arrivals.split_at(arrivals.partition_point(|a| a.1 == id));
        let overflows = !mine.is_empty() && old.len() + mine.len() > builder.leaf_capacity;
        let mine = mine.iter().map(|a| a.2);
        if overflows {
            builder.begin(n.word);
            old.iter()
                .copied()
                .chain(mine)
                .for_each(|e| builder.insert(e));
            builder.finish_into(nodes, pool);
        } else {
            let lo = pool.len() as u32;
            pool.extend_from_slice(old);
            pool.extend(mine);
            let hi = pool.len() as u32;
            nodes.push(NodeRecord { lo, hi, ..n });
        }
        rest
    }

    /// Verifies that the stored derived layout (SoA pool + run metadata)
    /// equals a fresh recomputation from the raw node/entry records —
    /// the run-metadata invariant [`crate::validate`] audits on every
    /// arena, built or loaded.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first mismatching vector.
    pub(crate) fn check_derived_layout(&self) -> Result<(), String> {
        let fresh = derive_layout(&self.nodes, &self.entries);
        if fresh.leaf_starts != self.leaf_starts {
            return Err("leaf_starts differ from per-leaf recomputation".into());
        }
        if fresh.leaf_ordinals != self.leaf_ordinals {
            return Err("leaf_ordinals differ from per-leaf recomputation".into());
        }
        if fresh.runs != self.runs {
            return Err("run spans differ from per-leaf recomputation".into());
        }
        if fresh.run_of != self.run_of {
            return Err("run membership differs from per-leaf recomputation".into());
        }
        if fresh.cols != self.cols {
            return Err("SoA symbol pool differs from per-leaf recomputation".into());
        }
        Ok(())
    }

    /// Deepest tree a legitimate build can produce: every inner→child
    /// step refines exactly one bit of one segment, so a root-to-leaf
    /// path has at most `MAX_SEGMENTS × CARD_BITS` splits.
    const MAX_DEPTH: usize = messi_sax::MAX_SEGMENTS * messi_sax::CARD_BITS + 1;

    /// Checks one subtree's raw records (the deserialization path, ids
    /// and pool offsets counting from zero, `num_entries` pool entries)
    /// for the structural invariants the accessors rely on before
    /// [`assemble_forest`] may splice them: the records must form exactly
    /// one preorder tree — a left-then-right depth-first walk from the
    /// root enumerates ids `0..n` in ascending order, which rules out
    /// unreachable nodes, shared children, and cycles in one pass — no
    /// deeper than any legitimate build can produce, whose leaves
    /// partition the entry pool left to right.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violated invariant.
    pub(crate) fn check_raw(nodes: &[NodeRecord], num_entries: usize) -> Result<(), String> {
        if nodes.is_empty() {
            return Err("arena with zero nodes".into());
        }
        let nn = nodes.len() as u64;
        let mut covered = 0u64; // leaves partition the pool in order
        for (id, n) in nodes.iter().enumerate() {
            if n.tag == LEAF_TAG {
                if u64::from(n.lo) != covered {
                    return Err(format!(
                        "leaf {id}: pool range starts at {} not {covered}",
                        n.lo
                    ));
                }
                if n.hi < n.lo || num_entries < n.hi as usize {
                    return Err(format!(
                        "leaf {id}: pool range {}..{} out of bounds",
                        n.lo, n.hi
                    ));
                }
                covered = u64::from(n.hi);
            } else {
                if usize::from(n.tag) >= messi_sax::MAX_SEGMENTS {
                    return Err(format!(
                        "inner node {id}: split segment {} out of range",
                        n.tag
                    ));
                }
                if u64::from(n.hi) <= u64::from(n.lo) || u64::from(n.hi) >= nn {
                    return Err(format!(
                        "inner node {id}: children {}/{} out of order or bounds",
                        n.lo, n.hi
                    ));
                }
            }
        }
        if covered != num_entries as u64 {
            return Err(format!(
                "leaves cover {covered} pool entries of {num_entries}"
            ));
        }
        // Preorder tree-ness, checked by one explicit-stack DFS: visiting
        // left-then-right must enumerate ids in exactly ascending order.
        // A node with two parents gets visited twice (id ≠ expected), an
        // unreachable node leaves the count short, and the depth cap
        // keeps the recursive traversals (height, engine descent) within
        // sane stack bounds for files no honest build could have written.
        let mut stack: Vec<(u32, usize)> = vec![(0, 1)];
        let mut expect = 0u64;
        while let Some((id, depth)) = stack.pop() {
            if u64::from(id) != expect {
                return Err(format!(
                    "node {id} visited out of preorder (expected {expect})"
                ));
            }
            if depth > Self::MAX_DEPTH {
                return Err(format!(
                    "tree deeper than any build can produce (> {})",
                    Self::MAX_DEPTH
                ));
            }
            expect += 1;
            let n = &nodes[id as usize];
            if n.tag != LEAF_TAG {
                stack.push((n.hi, depth + 1));
                stack.push((n.lo, depth + 1));
            }
        }
        if expect != nn {
            return Err(format!(
                "{} of {nn} nodes unreachable from the root",
                nn - expect
            ));
        }
        Ok(())
    }
}

/// Builder scratch node: a leaf holds its entry list as `head`/`tail`
/// indices into the builder's link array; an inner node holds child ids.
#[derive(Debug, Clone, Copy)]
struct ScratchNode {
    word: NodeWord,
    /// Split segment for inner nodes, [`LEAF_TAG`] for leaves.
    tag: u8,
    /// Inner: left child id. Leaf: entry-list head ([`NIL`] when empty).
    a: u32,
    /// Inner: right child id. Leaf: entry-list tail ([`NIL`] when empty).
    b: u32,
    /// Leaf only: entries in the list.
    len: u32,
}

/// Clonable iterator over the summaries of one scratch leaf's entry
/// list, in insertion order (what [`choose_split`] consumes).
#[derive(Clone, Copy)]
struct SaxLinkIter<'a> {
    entries: &'a [LeafEntry],
    next: &'a [u32],
    cur: u32,
}

impl<'a> Iterator for SaxLinkIter<'a> {
    type Item = &'a SaxWord;

    fn next(&mut self) -> Option<&'a SaxWord> {
        if self.cur == NIL {
            return None;
        }
        let e = &self.entries[self.cur as usize];
        self.cur = self.next[self.cur as usize];
        Some(&e.sax)
    }
}

/// Builds one subtree incrementally — the paper's insert-and-split
/// protocol (Alg. 4 lines 7–11: "while targetLeaf is full do SplitNode")
/// — and emits it flat, as preorder records and pool entries for
/// `assemble_forest` to splice into an arena.
///
/// Splits follow the balanced-segment policy of `messi_sax::split`. When
/// a leaf's entries cannot be separated (identical summaries, or every
/// segment at maximum cardinality) the leaf is allowed to overflow —
/// further splits would loop forever without separating anything.
///
/// The builder's scratch (index-linked entry lists, a flat scratch-node
/// array) is retained across subtrees: `begin` → `insert`* →
/// `finish_into` cycles reuse the same buffers and append to the same
/// caller scratch, so emitting a subtree allocates nothing once both
/// have grown to their working size.
#[derive(Debug)]
pub struct SubtreeBuilder {
    /// Number of PAA segments (the paper's w).
    segments: usize,
    /// Leaf capacity before a split is attempted.
    leaf_capacity: usize,
    nodes: Vec<ScratchNode>,
    entries: Vec<LeafEntry>,
    /// Parallel to `entries`: next entry in the owning leaf's list.
    next: Vec<u32>,
}

impl SubtreeBuilder {
    /// Creates an empty builder for the given tree parameters.
    pub(crate) fn new(segments: usize, leaf_capacity: usize) -> Self {
        assert!(leaf_capacity > 0, "leaf capacity must be positive");
        Self {
            segments,
            leaf_capacity,
            nodes: Vec::new(),
            entries: Vec::new(),
            next: Vec::new(),
        }
    }

    /// Starts a fresh subtree covering `word`: clears the scratch
    /// (retaining capacity) and plants an empty root leaf.
    pub(crate) fn begin(&mut self, word: NodeWord) {
        self.nodes.clear();
        self.entries.clear();
        self.next.clear();
        self.nodes.push(ScratchNode {
            word,
            tag: LEAF_TAG,
            a: NIL,
            b: NIL,
            len: 0,
        });
    }

    /// Inserts one entry into the subtree under construction.
    ///
    /// Equivalent to the paper's "while targetLeaf is full do SplitNode"
    /// loop (Alg. 4 lines 8–10), phrased as push-then-rebalance: the entry
    /// is appended to its leaf, then the leaf is split (repeatedly,
    /// drilling through non-separating refinements) until every leaf on
    /// the path is back within capacity or provably inseparable.
    ///
    /// # Panics
    ///
    /// Panics if called before `SubtreeBuilder::begin`.
    pub fn insert(&mut self, entry: LeafEntry) {
        assert!(!self.nodes.is_empty(), "insert before begin");
        // Descend to the leaf responsible for this entry.
        let mut id = 0usize;
        loop {
            let n = &self.nodes[id];
            if n.tag == LEAF_TAG {
                break;
            }
            debug_assert!(n.word.contains(&entry.sax, self.segments));
            id = if n.word.child_of(&entry.sax, n.tag as usize) {
                n.b
            } else {
                n.a
            } as usize;
        }
        debug_assert!(self.nodes[id].word.contains(&entry.sax, self.segments));
        let slot = self.entries.len() as u32;
        self.entries.push(entry);
        self.next.push(NIL);
        self.append_to_leaf(id, slot);
        self.rebalance(id);
    }

    /// Links an already-stored entry slot at the tail of `leaf`'s list.
    fn append_to_leaf(&mut self, leaf: usize, slot: u32) {
        let tail = {
            let n = &mut self.nodes[leaf];
            let tail = n.b;
            n.b = slot;
            n.len += 1;
            if tail == NIL {
                n.a = slot;
            }
            tail
        };
        if tail != NIL {
            self.next[tail as usize] = slot;
        }
    }

    /// Splits `id` (and recursively any oversized children the split
    /// produces) until capacity holds or the entries are inseparable.
    fn rebalance(&mut self, id: usize) {
        let n = &self.nodes[id];
        let oversized = n.tag == LEAF_TAG && n.len as usize > self.leaf_capacity;
        if !oversized || !self.split_leaf(id) {
            return;
        }
        let (left, right) = {
            let n = &self.nodes[id];
            (n.a as usize, n.b as usize)
        };
        self.rebalance(left);
        self.rebalance(right);
    }

    /// Splits the leaf at `id` in place, turning it into an inner node
    /// with two leaf children. Returns `false` only when the entries are
    /// inseparable (identical summaries, or every segment at maximum
    /// cardinality), in which case the leaf is left untouched.
    ///
    /// When no *single-bit* split separates the entries but their
    /// summaries still differ, a segment whose deeper bits differ is
    /// refined anyway (one child gets everything) — the paper's
    /// "while targetLeaf is full do SplitNode" loop drills down until the
    /// differing bit is reached.
    fn split_leaf(&mut self, id: usize) -> bool {
        let node = self.nodes[id];
        debug_assert_eq!(node.tag, LEAF_TAG, "split_leaf on inner node");
        let list = |cur| SaxLinkIter {
            entries: &self.entries,
            next: &self.next,
            cur,
        };
        let segment = {
            let choice = match choose_split(&node.word, self.segments, list(node.a)) {
                Some(c) => c,
                None => return false, // every segment at max cardinality
            };
            if choice.is_separating() {
                choice.segment
            } else {
                // Drill-down fallback: refine a segment whose full
                // 8-bit symbols actually differ across entries (such a
                // refinement chain separates within CARD_BITS splits).
                let first = self.entries[node.a as usize].sax;
                match (0..self.segments).find(|&i| {
                    (node.word.bits(i) as usize) < messi_sax::CARD_BITS
                        && list(node.a).any(|sax| sax.symbol(i) != first.symbol(i))
                }) {
                    Some(i) => i,
                    None => return false, // identical summaries: inseparable
                }
            }
        };
        let (zero_word, one_word) = node.word.refine(segment);
        let left = self.nodes.len();
        for word in [zero_word, one_word] {
            self.nodes.push(ScratchNode {
                word,
                tag: LEAF_TAG,
                a: NIL,
                b: NIL,
                len: 0,
            });
        }
        // Relink each entry to the child it belongs to, preserving order
        // (stable partition, exactly like the old per-leaf Vec split).
        let mut cur = node.a;
        while cur != NIL {
            let after = self.next[cur as usize];
            self.next[cur as usize] = NIL;
            let child = if node.word.child_of(&self.entries[cur as usize].sax, segment) {
                left + 1
            } else {
                left
            };
            self.append_to_leaf(child, cur);
            cur = after;
        }
        self.nodes[id] = ScratchNode {
            word: node.word,
            tag: segment as u8,
            a: left as u32,
            b: left as u32 + 1,
            len: 0,
        };
        true
    }

    /// Flattens the finished subtree: appends its preorder records and
    /// pool entries to `nodes` / `pool` (ids and offsets absolute in
    /// them) and resets the scratch for the next subtree. The caller
    /// splices the result into an arena with [`assemble_forest`], which
    /// derives the layout once per arena.
    ///
    /// # Panics
    ///
    /// Panics if called before [`SubtreeBuilder::begin`].
    pub(crate) fn finish_into(&mut self, nodes: &mut Vec<NodeRecord>, pool: &mut Vec<LeafEntry>) {
        assert!(!self.nodes.is_empty(), "finish before begin");
        self.emit(0, nodes, pool);
        self.nodes.clear();
        self.entries.clear();
        self.next.clear();
    }

    /// Emits the scratch node `sid` (and its subtree) in preorder,
    /// returning its final arena id.
    fn emit(&self, sid: usize, out: &mut Vec<NodeRecord>, pool: &mut Vec<LeafEntry>) -> u32 {
        let fid = out.len() as u32;
        let n = self.nodes[sid];
        if n.tag == LEAF_TAG {
            let start = pool.len() as u32;
            let mut cur = n.a;
            while cur != NIL {
                pool.push(self.entries[cur as usize]);
                cur = self.next[cur as usize];
            }
            debug_assert_eq!(pool.len() as u32 - start, n.len);
            out.push(NodeRecord {
                word: n.word,
                tag: LEAF_TAG,
                lo: start,
                hi: pool.len() as u32,
            });
        } else {
            out.push(NodeRecord {
                word: n.word,
                tag: n.tag,
                lo: 0,
                hi: 0,
            });
            let left = self.emit(n.a as usize, out, pool);
            let right = self.emit(n.b as usize, out, pool);
            let rec = &mut out[fid as usize];
            rec.lo = left;
            rec.hi = right;
        }
        fid
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use messi_sax::convert::{sax_word, SaxConfig};
    use messi_sax::root_key::{node_word_for_root_key, root_key};

    fn entry_for(series: &[f32], pos: u32, config: SaxConfig) -> LeafEntry {
        LeafEntry {
            sax: sax_word(series, config),
            pos,
        }
    }

    /// One subtree built alone and assembled as a one-part forest.
    fn build_subtree(
        builder: &mut SubtreeBuilder,
        word: NodeWord,
        entries: impl IntoIterator<Item = LeafEntry>,
    ) -> TreeArena {
        builder.begin(word);
        entries.into_iter().for_each(|e| builder.insert(e));
        let mut scratch = PartScratch::default();
        scratch.open(0);
        builder.finish_into(&mut scratch.nodes, &mut scratch.pool);
        assemble_forest(&scratch.parts(), builder.segments)
    }

    /// The loader's path for one subtree: structural checks, then
    /// assembly.
    fn from_raw(nodes: Vec<NodeRecord>, entries: Vec<LeafEntry>) -> Result<TreeArena, String> {
        TreeArena::check_raw(&nodes, entries.len())?;
        let part = RawPart {
            key: 0,
            nodes: &nodes,
            entries: &entries,
            node_base: 0,
            pool_base: 0,
        };
        Ok(assemble_forest(&[part], 1))
    }

    fn series(seed: u32, n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| ((i as f32 + seed as f32 * 13.7) * (0.11 + 0.01 * seed as f32)).sin() * 2.0)
            .collect()
    }

    #[test]
    fn insert_without_split_accumulates() {
        let word = NodeWord::root();
        let mut builder = SubtreeBuilder::new(4, 100);
        let config = SaxConfig::new(4, 32);
        let arena = build_subtree(
            &mut builder,
            word,
            (0..50u32).map(|i| entry_for(&series(i, 32), i, config)),
        );
        assert!(arena.is_leaf(TreeArena::ROOT));
        assert_eq!(arena.num_entries(), 50);
        assert_eq!(arena.num_leaves(), 1);
        assert_eq!(arena.num_nodes(), 1);
        assert_eq!(arena.height(), 1);
        // Entries come out in insertion order.
        let positions: Vec<u32> = arena
            .leaf_entries(TreeArena::ROOT)
            .iter()
            .map(|e| e.pos)
            .collect();
        assert_eq!(positions, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn overflowing_leaf_splits_and_partitions() {
        let config = SaxConfig::new(4, 32);
        // Insert everything under its proper root subtree word so splits
        // are meaningful.
        let mut groups: std::collections::HashMap<usize, Vec<LeafEntry>> = Default::default();
        for i in 0..400u32 {
            let e = entry_for(&series(i, 32), i, config);
            groups.entry(root_key(&e.sax, 4)).or_default().push(e);
        }
        let (key, entries) = groups
            .into_iter()
            .max_by_key(|(_, v)| v.len())
            .expect("some group");
        assert!(entries.len() > 8, "need a non-trivial group");
        let mut builder = SubtreeBuilder::new(4, 8);
        let arena = build_subtree(
            &mut builder,
            node_word_for_root_key(key, 4),
            entries.iter().copied(),
        );
        assert_eq!(arena.num_entries(), entries.len());
        assert!(arena.num_leaves() > 1, "should have split");
        // Every leaf's entries are contained in the leaf's word, and no
        // leaf (except unsplittable ones) exceeds capacity.
        let mut seen = 0;
        arena.for_each_leaf(&mut |leaf| {
            seen += leaf.entries.len();
            for e in leaf.entries {
                assert!(leaf.word.contains(&e.sax, 4));
            }
            if leaf.entries.len() > 8 {
                // Only allowed when every entry has the same summary.
                let first = leaf.entries[0].sax;
                assert!(
                    leaf.entries.iter().all(|e| e.sax == first),
                    "oversized leaf with separable entries"
                );
            }
        });
        assert_eq!(seen, entries.len());
    }

    #[test]
    fn identical_summaries_overflow_without_splitting() {
        let config = SaxConfig::new(4, 32);
        let s = series(1, 32);
        let e = entry_for(&s, 0, config);
        let key = root_key(&e.sax, 4);
        let mut builder = SubtreeBuilder::new(4, 4);
        let arena = build_subtree(
            &mut builder,
            node_word_for_root_key(key, 4),
            (0..20u32).map(|i| LeafEntry { pos: i, ..e }),
        );
        assert!(
            arena.is_leaf(TreeArena::ROOT),
            "identical words cannot separate"
        );
        assert_eq!(arena.num_entries(), 20);
    }

    #[test]
    fn structure_accessors() {
        let word = NodeWord::root();
        let mut builder = SubtreeBuilder::new(4, 8);
        let arena = build_subtree(&mut builder, word, std::iter::empty());
        assert!(arena.is_leaf(TreeArena::ROOT));
        assert_eq!(arena.word(TreeArena::ROOT), &word);
        assert_eq!(arena.num_entries(), 0);
        assert_eq!(arena.height(), 1);
        assert!(arena.node_bytes() > 0 || arena.num_nodes() == 1);
        assert_eq!(arena.leaf(TreeArena::ROOT).entries.len(), 0);
        // Even an empty arena has one (empty) run covering its one leaf.
        assert_eq!(arena.runs.len(), 1);
        assert_eq!(arena.run_shapes(), vec![(1, 0)]);
    }

    #[test]
    fn builder_reuse_across_subtrees_is_clean() {
        let config = SaxConfig::new(4, 32);
        let mut builder = SubtreeBuilder::new(4, 4);
        let mut groups: std::collections::HashMap<usize, Vec<LeafEntry>> = Default::default();
        for i in 0..200u32 {
            let e = entry_for(&series(i, 32), i, config);
            groups.entry(root_key(&e.sax, 4)).or_default().push(e);
        }
        // Build every group twice — with a fresh builder and with one
        // reused builder — and require identical flattened storage.
        for (key, entries) in groups {
            let word = node_word_for_root_key(key, 4);
            let reused = build_subtree(&mut builder, word, entries.iter().copied());
            let fresh = build_subtree(
                &mut SubtreeBuilder::new(4, 4),
                word,
                entries.iter().copied(),
            );
            assert_eq!(reused.num_nodes(), fresh.num_nodes(), "key {key}");
            assert_eq!(reused.num_leaves(), fresh.num_leaves(), "key {key}");
            let collect = |a: &TreeArena| {
                let mut v = Vec::new();
                a.for_each_leaf(&mut |l| v.extend(l.entries.iter().map(|e| e.pos)));
                v
            };
            assert_eq!(collect(&reused), collect(&fresh), "key {key}");
        }
    }

    #[test]
    fn preorder_invariants_hold_and_from_raw_validates() {
        let config = SaxConfig::new(4, 32);
        let mut groups: std::collections::HashMap<usize, Vec<LeafEntry>> = Default::default();
        for i in 0..300u32 {
            let e = entry_for(&series(i, 32), i, config);
            groups.entry(root_key(&e.sax, 4)).or_default().push(e);
        }
        let (key, entries) = groups
            .into_iter()
            .max_by_key(|(_, v)| v.len())
            .expect("some group");
        let mut builder = SubtreeBuilder::new(4, 4);
        let arena = build_subtree(
            &mut builder,
            node_word_for_root_key(key, 4),
            entries.iter().copied(),
        );
        // Round-tripping through from_raw accepts the builder's output…
        let nodes = arena.raw_nodes().to_vec();
        let pool = arena.raw_entries().to_vec();
        let back = from_raw(nodes.clone(), pool.clone()).expect("valid arena");
        assert_eq!(back.num_leaves(), arena.num_leaves());
        // …and rejects structural corruption.
        assert!(from_raw(Vec::new(), Vec::new()).is_err());
        if arena.num_nodes() > 1 {
            let mut bad = nodes.clone();
            bad[0].lo = 0; // self-referential child breaks preorder
            assert!(from_raw(bad, pool.clone()).is_err());
        }
        let mut bad = nodes;
        if let Some(last_leaf) = bad.iter().rposition(|n| n.tag == LEAF_TAG) {
            bad[last_leaf].hi += 1; // range past the pool
            assert!(from_raw(bad, pool).is_err());
        }
    }

    #[test]
    fn soa_columns_mirror_leaf_entries() {
        let config = SaxConfig::new(4, 32);
        let mut groups: std::collections::HashMap<usize, Vec<LeafEntry>> = Default::default();
        for i in 0..300u32 {
            let e = entry_for(&series(i, 32), i, config);
            groups.entry(root_key(&e.sax, 4)).or_default().push(e);
        }
        let mut builder = SubtreeBuilder::new(4, 8);
        for (key, entries) in groups {
            let arena = build_subtree(
                &mut builder,
                node_word_for_root_key(key, 4),
                entries.iter().copied(),
            );
            assert!(arena.allocation_flat());
            assert_eq!(arena.cols.len(), arena.num_entries() * MAX_SEGMENTS);
            let mut total = 0usize;
            arena.for_each_leaf(&mut |leaf| {
                let n = leaf.entries.len();
                assert!(leaf.base + n <= leaf.stride);
                assert_eq!(leaf.cols.len(), leaf.stride * MAX_SEGMENTS);
                for (j, e) in leaf.entries.iter().enumerate() {
                    for s in 0..MAX_SEGMENTS {
                        assert_eq!(
                            leaf.cols[s * leaf.stride + leaf.base + j],
                            e.sax.symbol(s),
                            "key {key} entry {j} segment {s}"
                        );
                    }
                }
                total += n;
            });
            assert_eq!(total, arena.num_entries());
            // The round-tripped arena rebuilds identical derived layout.
            let back = from_raw(arena.raw_nodes().to_vec(), arena.raw_entries().to_vec())
                .expect("valid arena");
            assert_eq!(back.cols, arena.cols);
            assert_eq!(back.leaf_starts, arena.leaf_starts);
            assert_eq!(back.runs, arena.runs);
            assert_eq!(back.run_of, arena.run_of);
            arena.check_derived_layout().expect("derived layout intact");
        }
    }

    #[test]
    fn runs_partition_leaves_and_respect_the_target() {
        let config = SaxConfig::new(4, 32);
        let mut groups: std::collections::HashMap<usize, Vec<LeafEntry>> = Default::default();
        for i in 0..500u32 {
            let e = entry_for(&series(i, 32), i, config);
            groups.entry(root_key(&e.sax, 4)).or_default().push(e);
        }
        let mut builder = SubtreeBuilder::new(4, 4); // tiny leaves → multi-leaf runs
        for (key, entries) in groups {
            let arena = build_subtree(
                &mut builder,
                node_word_for_root_key(key, 4),
                entries.iter().copied(),
            );
            let shapes = arena.run_shapes();
            assert_eq!(shapes.len(), arena.runs.len(), "key {key}");
            let leaves: usize = shapes.iter().map(|s| s.0).sum();
            let spanned: usize = shapes.iter().map(|s| s.1).sum();
            assert_eq!(leaves, arena.num_leaves(), "runs partition the leaves");
            assert_eq!(spanned, arena.num_entries(), "runs partition the pool");
            for (i, &(leaf_count, entry_count)) in shapes.iter().enumerate() {
                assert!(leaf_count >= 1, "key {key} run {i} spans no leaf");
                // A run only exceeds the target when a single oversized
                // leaf forces it.
                assert!(
                    entry_count <= RUN_TARGET_ENTRIES || leaf_count == 1,
                    "key {key} run {i}: {entry_count} entries over {leaf_count} leaves"
                );
            }
            // leaf_run views agree with per-leaf views entry for entry.
            let mut ord = 0u32;
            for id in 0..arena.num_nodes() as NodeId {
                if !arena.is_leaf(id) {
                    continue;
                }
                assert_eq!(arena.leaf_ordinal(id), ord);
                let run = arena.leaf_run(ord, ord + 1);
                assert_eq!(run.leaf_count(), 1);
                assert_eq!(run.entries, arena.leaf_entries(id));
                let l = arena.leaf(id);
                assert_eq!(run.stride as usize, l.stride);
                assert_eq!(run.base as usize, l.base);
                ord += 1;
            }
            // Whole-run views span all member leaves contiguously.
            let mut lo = 0u32;
            for &(leaf_count, entry_count) in &shapes {
                let hi = lo + leaf_count as u32;
                let run = arena.leaf_run(lo, hi);
                assert_eq!(run.leaf_count(), leaf_count);
                assert_eq!(run.entries.len(), entry_count);
                assert_eq!(run.base, 0, "whole run starts at its block base");
                assert_eq!(run.stride as usize, entry_count);
                // Prefix views truncate on member-leaf boundaries.
                for k in 1..=leaf_count {
                    let p = run.prefix(k);
                    assert_eq!(p.leaf_count(), k);
                    assert_eq!(p.entries.len(), (run.starts[k] - run.starts[0]) as usize);
                }
                lo = hi;
            }
        }
    }

    #[test]
    fn from_raw_rejects_crafted_non_trees() {
        let w = NodeWord::root();
        let leaf = |lo: u32, hi: u32| NodeRecord {
            word: w,
            tag: u8::MAX,
            lo,
            hi,
        };
        let inner = |lo: u32, hi: u32| NodeRecord {
            word: w,
            tag: 0,
            lo,
            hi,
        };
        let entries = |n: usize| {
            vec![
                LeafEntry {
                    sax: SaxWord::zeroed(),
                    pos: 0
                };
                n
            ]
        };
        // Unreachable node: the root only spans ids 1..=2, node 3 never
        // gets visited, but its pool range keeps the linear partition
        // consistent — only the DFS walk can catch it.
        let orphan = vec![inner(1, 2), leaf(0, 3), leaf(3, 6), leaf(6, 9)];
        let err = from_raw(orphan, entries(9)).unwrap_err();
        assert!(err.contains("unreachable"), "{err}");
        // Shared child: two parents point at leaf 3 — the DFS visits it
        // twice, out of preorder.
        let shared = vec![inner(1, 3), inner(2, 3), leaf(0, 1), leaf(1, 2)];
        assert!(from_raw(shared, entries(2)).is_err());
        // A left spine deeper than any legitimate build must be refused
        // (honest depth is bounded by total refinable bits), keeping the
        // recursive traversals within sane stack bounds. The spine is a
        // structurally flawless preorder tree of 2D+1 nodes — only the
        // depth cap can reject it.
        let d = (TreeArena::MAX_DEPTH + 8) as u32;
        let mut spine: Vec<NodeRecord> = (0..d).map(|i| inner(i + 1, 2 * d - i)).collect();
        for _ in 0..=d {
            spine.push(leaf(0, 0));
        }
        let err = from_raw(spine, entries(0)).unwrap_err();
        assert!(err.contains("deeper"), "{err}");
    }

    #[test]
    fn forest_groups_pack_greedily_to_the_target() {
        let t = FOREST_TARGET_ENTRIES;
        assert_eq!(forest_groups(&[]), Vec::<std::ops::Range<usize>>::new());
        assert_eq!(forest_groups(&[1]), vec![0..1]);
        // An oversized subtree gets its own group but is never split.
        assert_eq!(forest_groups(&[t * 10]), vec![0..1]);
        // Greedy: a group closes exactly when the next count would
        // overflow the target.
        assert_eq!(forest_groups(&[t / 2, t / 2, 1]), vec![0..2, 2..3]);
        // Sparse singleton subtrees coalesce many-to-one, and the groups
        // tile the input without gaps.
        let counts = vec![1usize; 3 * t + 5];
        let groups = forest_groups(&counts);
        assert!(groups.iter().all(|g| g.len() <= t));
        assert_eq!(groups.iter().map(|g| g.len()).sum::<usize>(), counts.len());
        assert_eq!(groups[0].start, 0);
        assert!(groups.windows(2).all(|w| w[0].end == w[1].start));
        assert_eq!(groups.last().expect("nonempty").end, counts.len());
    }

    #[test]
    fn forest_assembly_preserves_per_key_subtrees() {
        let segments = 4usize;
        let config = SaxConfig::new(4, 32);
        let mut groups: std::collections::BTreeMap<usize, Vec<LeafEntry>> = Default::default();
        for i in 0..400u32 {
            let e = entry_for(&series(i, 32), i, config);
            groups
                .entry(root_key(&e.sax, segments))
                .or_default()
                .push(e);
        }
        let mut builder = SubtreeBuilder::new(segments, 4);
        let built: Vec<(usize, TreeArena)> = groups
            .into_iter()
            .map(|(key, entries)| {
                let word = node_word_for_root_key(key, segments);
                (
                    key,
                    build_subtree(&mut builder, word, entries.iter().copied()),
                )
            })
            .collect();
        assert!(built.len() >= 2, "need several keys to form a forest");
        let originals: Vec<(usize, Vec<NodeRecord>, Vec<LeafEntry>)> = built
            .iter()
            .map(|(k, a)| (*k, a.raw_nodes().to_vec(), a.raw_entries().to_vec()))
            .collect();
        let parts: Vec<RawPart<'_>> = built
            .iter()
            .map(|(k, a)| a.subtree_part(*k, TreeArena::ROOT))
            .collect();
        let forest = assemble_forest(&parts, segments);
        // k member subtrees need exactly k−1 synthetic spine nodes, and
        // the spliced storage stays capacity-tight with a clean derived
        // layout.
        assert!(forest.allocation_flat());
        forest.check_derived_layout().expect("derived layout");
        assert_eq!(
            forest.num_nodes(),
            originals.iter().map(|o| o.1.len()).sum::<usize>() + originals.len() - 1
        );
        assert_eq!(
            forest.num_entries(),
            originals.iter().map(|o| o.2.len()).sum::<usize>()
        );
        // Every member subtree slices back out byte-identical through
        // the spine (descending by the key's bits at each synthetic
        // split, which must land on an unrefined segment).
        for (key, nodes, entries) in &originals {
            let mut id = TreeArena::ROOT;
            loop {
                let word = forest.word(id);
                if (0..segments).all(|s| word.bits(s) >= 1) {
                    break;
                }
                let split = forest.split_segment(id);
                assert_eq!(word.bits(split), 0, "key {key}: split on refined segment");
                let (l, r) = forest.children(id);
                id = if (*key >> (segments - 1 - split)) & 1 == 0 {
                    l
                } else {
                    r
                };
            }
            assert_eq!(forest.word(id), &node_word_for_root_key(*key, segments));
            let got = forest.subtree_part(*key, id);
            let got_nodes: Vec<NodeRecord> = got.rebased(0, 0).collect();
            assert_eq!(&got_nodes, nodes, "key {key}: sliced nodes differ");
            assert_eq!(
                got.entries,
                &entries[..],
                "key {key}: sliced entries differ"
            );
        }
    }
}
