//! Arena-backed index tree storage.
//!
//! Three node kinds, as in §II-B / Fig. 1(d): a root with up to 2^w
//! children (represented in [`crate::index::MessiIndex`] as a dense array
//! indexed by root key), binary inner nodes carrying a
//! variable-cardinality iSAX summary, and leaves holding the
//! full-cardinality iSAX summaries and positions of the series below
//! them. Storing the summaries *in* the leaf (not pointers to a separate
//! array) keeps queue-driven leaf scans sequential in memory — one of
//! MESSI's deltas over ParIS (§I).
//!
//! This module takes that layout argument to its conclusion: instead of
//! one heap allocation per node (`Box<Node>`) and one `Vec` per leaf, a
//! group of root subtrees lives in a [`TreeArena`] — one contiguous node
//! array in preorder (parent before children, left subtree before right),
//! one packed pool of [`LeafEntry`] positions in the same leaf order, and
//! the pool's summaries transposed into segment-major symbol columns that
//! the batched mindist cascade streams cache-line by cache-line. The
//! columns are the only place an arena keeps a summary: [`LeafRef::sax`]
//! reads one back. Inner-node traversal walks an index-linked flat
//! array, leaf scans walk flat slices, and `for_each_leaf` is a linear
//! sweep of the node array. The flat layout is also what makes the index
//! serializable ([`crate::persist`]); the run metadata is derived data,
//! rebuilt rather than stored.
//!
//! The columns are grouped into **leaf runs**: maximal groups of
//! consecutive leaves (in pool order — siblings and cousins alike) whose
//! combined entry count stays within `RUN_TARGET_ENTRIES`. Each run owns
//! one segment-major symbol block, so the batched mindist kernel can
//! scan *several* small leaves as one contiguous 8-wide stream instead
//! of falling into the partial-chunk tail on every ~6-entry
//! paper-default leaf. Runs are derived deterministically from the node
//! records alone (no configuration input), so they are never stored:
//! the snapshot format carries records and entries only.
//!
//! Construction builds the trees of the paper's incremental protocol
//! (Alg. 4: insert, split overflowing leaves) without simulating one
//! insert at a time. A subtree's whole entry sequence is known before its
//! first insert, so `Splitter` computes the same tree top-down: a leaf
//! splits on its *split prefix*, the first `max(leaf_capacity, d) + 1`
//! entries where `d` indexes the first entry whose summary differs from
//! entry 0 (exactly what it holds when insert-and-split first splits it),
//! then every entry follows the chosen bit and each side recurses. The
//! entries are reordered in place in a caller's `PartScratch` pool and
//! the preorder records appended beside them. `assemble_forest` is the
//! one place an arena is made: it splices one or more emitted subtrees
//! into exact-capacity storage, derives their runs once and transposes
//! the summaries straight into the run columns.
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
//! entry counts alone (`forest_groups`), so builds, baselines and
//! absorbs group identically — and snapshots serialize
//! per key by copying each per-key subtree back out of its forest
//! (`TreeArena::copy_subtree`, rebased, summaries gathered from the
//! columns), keeping the format byte-identical.

use messi_sax::split::choose_split;
use messi_sax::word::{NodeWord, SaxWord};
use messi_sax::MAX_SEGMENTS;

/// One stored series of a leaf: its position. Its summary lives in the
/// leaf's run columns ([`LeafRef::sax`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(transparent)]
pub struct LeafEntry {
    /// Position of the raw series in the dataset (`RawData` index).
    pub pos: u32,
}

const _: () = assert!(std::mem::size_of::<LeafEntry>() == 4);

/// A `(iSAX summary, series position)` pair: what a build inserts, a
/// snapshot stores, and an arena splits its pool and columns from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SaxEntry {
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

/// The leaf ordinal recorded for an inner node.
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
/// the grouping takes no configuration input: builds, baselines and
/// absorbs must regroup identically.
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

/// One per-key subtree as raw parts borrowed from a [`PartScratch`],
/// which may hold many subtrees back to back. Child ids and pool offsets
/// in `nodes` count from `node_base` / `pool_base`, the subtree's start
/// in the scratch it was sliced from.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RawPart<'a> {
    pub(crate) key: usize,
    pub(crate) nodes: &'a [NodeRecord],
    pub(crate) entries: &'a [SaxEntry],
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
    pub(crate) pool: Vec<SaxEntry>,
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
/// keys — the one place an arena is made, behind builds, baselines and
/// absorbs (a snapshot load is a build). A single part becomes a plain
/// per-key arena; several are joined under the synthetic iSAX trie the
/// module docs describe. The pool takes the positions, and the summaries go
/// straight into the run columns: the parts' entries, concatenated, are
/// the pool in order. Every vector is allocated once at its final size,
/// and the runs are derived once, on the assembled records.
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
    let layout = derive_runs(&nodes, total_entries);
    let words = parts.iter().flat_map(|p| p.entries).map(|e| &e.sax);
    let arena = TreeArena {
        cols: fill_columns(&layout.runs, total_entries, words),
        nodes,
        entries: pool,
        layout,
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
        pool.extend(part.entries.iter().map(|e| LeafEntry { pos: e.pos }));
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

/// Borrowed view of one leaf: its covering word, its packed positions,
/// and its place inside its run's segment-major symbol block.
#[derive(Debug, Clone, Copy)]
pub struct LeafRef<'a> {
    /// Variable-cardinality summary covering everything in this leaf.
    pub word: &'a NodeWord,
    /// The stored positions, contiguous in the pool.
    pub entries: &'a [LeafEntry],
    /// The segment-major symbol block of the leaf's *run*: `MAX_SEGMENTS`
    /// columns of `stride` bytes each. Segment `s` of this leaf's entry
    /// `j` sits at `cols[s * stride + base + j]`; [`LeafRef::sax`] reads
    /// a whole summary back.
    pub cols: &'a [u8],
    /// Entry count of the whole run (the column stride of `cols`).
    pub stride: usize,
    /// Offset of this leaf's first entry within the run.
    pub base: usize,
}

impl<'a> LeafRef<'a> {
    /// The stored summary of entry `j`, gathered from the run columns —
    /// the one way to read a stored summary back out of an arena.
    pub fn sax(&self, j: usize) -> SaxWord {
        debug_assert!(j < self.entries.len());
        let mut symbols = [0u8; MAX_SEGMENTS];
        for (s, sym) in symbols.iter_mut().enumerate() {
            *sym = self.cols[s * self.stride + self.base + j];
        }
        SaxWord::new(&symbols)
    }

    /// The leaf's `(summary, position)` pairs in pool order — the gather
    /// over its pool range that a copy or a re-split starts from.
    pub fn sax_entries(self) -> impl Iterator<Item = SaxEntry> + 'a {
        (self.entries.iter().enumerate()).map(move |(j, e)| SaxEntry {
            sax: self.sax(j),
            pos: e.pos,
        })
    }
}

/// The unit a search worker scans: one or more *consecutive* leaves of
/// the same run, viewed through the run's segment-major symbol block
/// (what the priority queues carry — the multi-leaf generalization of
/// the old per-leaf `LeafSlice`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct LeafRun<'a> {
    /// The spanned leaves' positions, contiguous.
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

/// The derived (never serialized) run metadata of an arena, from
/// [`derive_runs`].
#[derive(Debug, PartialEq, Eq)]
struct RunLayout {
    /// Pool-absolute entry offset of each leaf in ordinal (pool) order,
    /// plus a trailing `num_entries` sentinel.
    leaf_starts: Vec<u32>,
    /// Parallel to the node records: the leaf's ordinal, or `u32::MAX`
    /// for inner nodes.
    leaf_ordinals: Vec<u32>,
    /// Entry span of each leaf run, in pool order.
    runs: Vec<RunSpan>,
    /// Run id of each leaf, by ordinal (non-decreasing).
    run_of: Vec<u32>,
}

/// Derives the run partition of a finished node layout over a pool of
/// `num_entries`. Deterministic and configuration-free: the greedy
/// partition walks leaves in pool order, opening a new run whenever
/// adding the next non-empty leaf would push the current run past
/// [`RUN_TARGET_ENTRIES`] (empty leaves always join the current run; an
/// oversized leaf gets a run of its own). Called once per arena, by
/// [`assemble_forest`] — for a build and an absorb alike — and by the
/// validator's recomputation; every vector is allocated once at exact
/// capacity.
fn derive_runs(nodes: &[NodeRecord], num_entries: usize) -> RunLayout {
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
    leaf_starts.push(num_entries as u32);

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

    RunLayout {
        leaf_starts,
        leaf_ordinals,
        runs,
        run_of,
    }
}

/// Transposes `words`, the pool's summaries in pool order, into one
/// segment-major symbol block per run: inside run `[lo, hi)` (n = hi − lo
/// entries), column `s` occupies `[lo·16 + s·n, lo·16 + (s+1)·n)`. All
/// MAX_SEGMENTS columns are materialized regardless of the configured
/// segment count, so the layout needs no config to decode.
fn fill_columns<'w>(
    runs: &[RunSpan],
    num_entries: usize,
    mut words: impl Iterator<Item = &'w SaxWord>,
) -> Vec<u8> {
    let mut cols = vec![0u8; num_entries * MAX_SEGMENTS];
    for r in runs {
        let (lo, hi) = (r.lo as usize, r.hi as usize);
        let n = hi - lo;
        let block = &mut cols[lo * MAX_SEGMENTS..hi * MAX_SEGMENTS];
        for (j, word) in words.by_ref().take(n).enumerate() {
            for (s, &sym) in word.symbols().iter().enumerate() {
                block[s * n + j] = sym;
            }
        }
    }
    debug_assert!(words.next().is_none(), "more summaries than pool entries");
    cols
}

/// One or more root subtrees flattened into contiguous storage: node
/// records in preorder, one packed pool of positions, the pool's
/// summaries as run-grouped segment-major symbol columns, and the run
/// metadata.
///
/// Node accessors take a [`NodeId`]; traversal starts at
/// [`TreeArena::ROOT`] and follows [`TreeArena::children`]. Leaves are in
/// depth-first (left-to-right) order both in the node array and in the
/// pool, so [`TreeArena::for_each_leaf`] is a linear sweep.
///
/// `cols` holds every stored summary, once, segment-major *per leaf run*
/// (see the module docs and `fill_columns`): the run with pool span
/// `[lo, hi)` (n = hi − lo entries) owns the byte block `[lo·16, hi·16)`,
/// inside which column `s` occupies `[lo·16 + s·n, lo·16 + (s+1)·n)`.
/// The batched mindist kernel thus reads each segment's symbols across a
/// whole run of small leaves as one sequential stretch of cache lines.
/// The run metadata is derived from the node records — rebuilt on load,
/// never serialized.
#[derive(Debug, PartialEq, Eq)]
pub struct TreeArena {
    nodes: Vec<NodeRecord>,
    entries: Vec<LeafEntry>,
    /// Every entry's summary, transposed per run.
    cols: Vec<u8>,
    layout: RunLayout,
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
        self.layout.leaf_starts.len() - 1
    }

    /// Per-run shape, in run order: `(member leaves, entries)`. What
    /// `messi info`'s run-length histogram and the benchmark's
    /// `node.leaves_per_run_mean` aggregate.
    pub fn run_shapes(&self) -> Vec<(usize, usize)> {
        let mut shapes = vec![(0usize, 0usize); self.layout.runs.len()];
        for (ord, &r) in self.layout.run_of.iter().enumerate() {
            let s = &mut shapes[r as usize];
            s.0 += 1;
            s.1 += (self.layout.leaf_starts[ord + 1] - self.layout.leaf_starts[ord]) as usize;
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
        let ord = self.layout.leaf_ordinals[id as usize];
        debug_assert_ne!(ord, NIL, "leaf_ordinal of an inner node");
        ord
    }

    /// The id of the run containing the leaf with ordinal `ord`.
    #[inline]
    pub(crate) fn run_of(&self, ord: u32) -> u32 {
        self.layout.run_of[ord as usize]
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
        let ord = self.layout.leaf_ordinals[id as usize];
        let run = self.leaf_run(ord, ord + 1);
        LeafRef {
            word: &n.word,
            entries: run.entries,
            cols: run.cols,
            stride: run.stride as usize,
            base: run.base as usize,
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
            (ord_hi as usize) < self.layout.leaf_starts.len(),
            "span out of bounds"
        );
        debug_assert_eq!(
            self.layout.run_of[ord_lo as usize],
            self.layout.run_of[ord_hi as usize - 1],
            "span crosses a run boundary"
        );
        let run = self.layout.runs[self.layout.run_of[ord_lo as usize] as usize];
        let (elo, ehi) = (
            self.layout.leaf_starts[ord_lo as usize],
            self.layout.leaf_starts[ord_hi as usize],
        );
        LeafRun {
            entries: &self.entries[elo as usize..ehi as usize],
            cols: &self.cols[run.lo as usize * MAX_SEGMENTS..run.hi as usize * MAX_SEGMENTS],
            stride: run.hi - run.lo,
            base: elo - run.lo,
            starts: &self.layout.leaf_starts[ord_lo as usize..=ord_hi as usize],
        }
    }

    /// Visits every leaf in depth-first order. Thanks to the preorder
    /// layout this is a linear sweep of the node array, not a pointer
    /// chase.
    pub fn for_each_leaf<'a>(&'a self, f: &mut impl FnMut(LeafRef<'a>)) {
        for id in 0..self.nodes.len() as NodeId {
            if self.is_leaf(id) {
                f(self.leaf(id));
            }
        }
    }

    /// Visits every leaf run in pool order as `f(entries, cols, stride)`,
    /// where segment `s` of the run's entry `j` is `cols[s * stride + j]`
    /// — the whole-run analog of [`TreeArena::for_each_leaf`], for probes
    /// that stream full runs through the batched mindist kernel.
    pub fn for_each_run<'a>(&'a self, f: &mut impl FnMut(&'a [LeafEntry], &'a [u8], usize)) {
        for r in &self.layout.runs {
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
            && self.layout.leaf_starts.capacity() == self.layout.leaf_starts.len()
            && self.layout.leaf_ordinals.capacity() == self.layout.leaf_ordinals.len()
            && self.layout.runs.capacity() == self.layout.runs.len()
            && self.layout.run_of.capacity() == self.layout.run_of.len()
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

    /// Segment `s` of leaf `id`'s entry `j` in the columns (test-only).
    #[cfg(test)]
    pub(crate) fn symbol_mut(&mut self, id: NodeId, j: usize, s: usize) -> &mut u8 {
        let leaf = self.leaf(id);
        let at = leaf.cols.as_ptr() as usize - self.cols.as_ptr() as usize;
        let at = at + s * leaf.stride + leaf.base + j;
        &mut self.cols[at]
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

    /// Files a copy of the subtree at `id` in `scratch` as `key`'s part,
    /// its summaries gathered from the run columns — the inverse of the
    /// [`assemble_forest`] splice, for the snapshot writer. The subtree's
    /// records are one preorder stretch, so the copy is a rebase.
    pub(crate) fn copy_subtree(&self, key: usize, id: NodeId, scratch: &mut PartScratch) {
        let (end, pool_lo, _) = self.subtree_extent(id);
        let part = RawPart {
            key,
            nodes: &self.nodes[id as usize..end as usize],
            entries: &[],
            node_base: id,
            pool_base: pool_lo,
        };
        scratch.open(key);
        let (node_to, pool_to) = (scratch.nodes.len() as u32, scratch.pool.len() as u32);
        scratch.nodes.extend(part.rebased(node_to, pool_to));
        for leaf in (id..end).filter(|&l| self.is_leaf(l)) {
            scratch.pool.extend(self.leaf(leaf).sax_entries());
        }
    }

    /// The paper's insert (Alg. 4 lines 7–11) on a flat subtree: appends
    /// to `scratch` the subtree at `id` after inserting `arrivals` —
    /// `(key, home leaf id, entry)`, ascending by leaf, then in insertion
    /// order. Each leaf's sequence is its old entries, gathered from the
    /// columns, then its arrivals, found at the front of the list since
    /// leaf ids ascend in preorder; `split` emits it, so only a leaf
    /// pushed past capacity becomes a subtree. Returns the arrivals homed
    /// after this subtree.
    pub(crate) fn grow_subtree<'r>(
        &self,
        id: NodeId,
        arrivals: &'r [(usize, NodeId, SaxEntry)],
        split: Splitter,
        scratch: &mut PartScratch,
    ) -> &'r [(usize, NodeId, SaxEntry)] {
        let n = self.nodes[id as usize];
        if n.tag != LEAF_TAG {
            let my = scratch.nodes.len();
            scratch.nodes.push(n);
            scratch.nodes[my].lo = scratch.nodes.len() as NodeId;
            let arrivals = self.grow_subtree(n.lo, arrivals, split, scratch);
            scratch.nodes[my].hi = scratch.nodes.len() as NodeId;
            return self.grow_subtree(n.hi, arrivals, split, scratch);
        }
        let (mine, rest) = arrivals.split_at(arrivals.partition_point(|a| a.1 == id));
        let from = scratch.pool.len();
        let old = self.leaf(id).sax_entries();
        scratch.pool.extend(old.chain(mine.iter().map(|a| a.2)));
        split.emit(n.word, from, scratch);
        rest
    }

    /// Verifies that the stored run metadata equals a fresh recomputation
    /// from the node records — the run-metadata invariant
    /// [`crate::validate`] audits on every arena, built or loaded.
    ///
    /// # Errors
    ///
    /// When any of the four run vectors differs.
    pub(crate) fn check_derived_layout(&self) -> Result<(), String> {
        if derive_runs(&self.nodes, self.entries.len()) != self.layout {
            return Err("run metadata differs from its recomputation".into());
        }
        Ok(())
    }
}

/// The top-down form of the paper's insert-and-split protocol (Alg. 4
/// lines 7–11): given a subtree's whole entry sequence, in insertion
/// order, it emits the very tree that inserting the entries one at a time
/// and splitting every leaf pushed past `leaf_capacity` would build.
///
/// Under insert-and-split a leaf first splits at the insert that leaves it
/// holding more than `leaf_capacity` entries not all of one summary (a
/// leaf of identical summaries cannot be separated and overflows). At that
/// moment it holds the first `max(leaf_capacity, d) + 1` entries of its
/// sequence, where `d` is the index of the first entry whose summary
/// differs from entry 0 — its *split prefix*. The split is chosen on that
/// prefix alone, and every later entry just follows the chosen bit, so
/// the whole sequence is partitioned stably and each child is split the
/// same way on its own subsequence. That recursion is exact because no
/// child receives more than its own split prefix from its parent's: with
/// `d ≤ leaf_capacity` the parent's prefix is `leaf_capacity + 1`
/// entries, no longer than any child's prefix; with `d > leaf_capacity`
/// its first `d` entries are identical and go to one child, whose own `d`
/// is at least as large, and the other child gets at most one entry. A
/// child handed exactly its prefix splits at once, as insert-and-split
/// re-splits it within the same insert; any other child splits when its
/// prefix is complete, as it would on that later insert.
///
/// Splits follow the balanced-segment policy of `messi_sax::split`; when
/// no single-bit split separates the prefix but its summaries still
/// differ, a segment whose deeper bits differ is refined anyway (one
/// child gets everything), drilling down until the differing bit is
/// reached.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Splitter {
    /// Number of PAA segments (the paper's w).
    pub(crate) segments: usize,
    /// Leaf capacity before a split is attempted.
    pub(crate) leaf_capacity: usize,
}

impl Splitter {
    /// Splits the subtree covering `word` whose entries, in insertion
    /// order, are `scratch.pool[from..]`: reorders them in place into
    /// leaf order and appends the subtree's preorder records to
    /// `scratch.nodes` (ids and offsets absolute in the scratch). The
    /// caller files the part with [`PartScratch::open`] beforehand.
    pub(crate) fn emit(self, word: NodeWord, from: usize, scratch: &mut PartScratch) {
        self.node(word, from, scratch.pool.len(), scratch);
    }

    /// Emits the node covering `word` over `scratch.pool[lo..hi]` and
    /// its subtree in preorder, returning its id.
    fn node(self, word: NodeWord, lo: usize, hi: usize, scratch: &mut PartScratch) -> NodeId {
        let my = scratch.nodes.len();
        let split = self.split_segment(&word, &scratch.pool[lo..hi]);
        let tag = split.map_or(LEAF_TAG, |segment| segment as u8);
        scratch.nodes.push(NodeRecord {
            word,
            tag,
            lo: lo as u32,
            hi: hi as u32,
        });
        if let Some(segment) = split {
            // Stable in-place partition by the chosen bit: 0-entries move
            // up in order, 1-entries wait in the pool's spare tail, then
            // follow them.
            let (end, mut mid) = (scratch.pool.len(), lo);
            let pool = &mut scratch.pool;
            for i in lo..hi {
                let e = pool[i];
                if word.child_of(&e.sax, segment) {
                    pool.push(e);
                } else {
                    pool[mid] = e;
                    mid += 1;
                }
            }
            pool.copy_within(end.., mid);
            pool.truncate(end);
            let (zero_word, one_word) = word.refine(segment);
            scratch.nodes[my].lo = self.node(zero_word, lo, mid, scratch);
            scratch.nodes[my].hi = self.node(one_word, mid, hi, scratch);
        }
        my as NodeId
    }

    /// The segment the node covering `word` over `entries` splits on, or
    /// `None` when it stays a leaf: at most `leaf_capacity` entries, all
    /// of one summary, or (only possible then) every segment at maximum
    /// cardinality.
    fn split_segment(self, word: &NodeWord, entries: &[SaxEntry]) -> Option<usize> {
        if entries.len() <= self.leaf_capacity {
            return None;
        }
        let w = self.segments;
        let first = entries[0].sax.symbols();
        let d = (entries.iter()).position(|e| e.sax.symbols()[..w] != first[..w])?;
        let prefix = &entries[..self.leaf_capacity.max(d) + 1];
        let choice = choose_split(word, w, prefix.iter().map(|e| &e.sax))?;
        if choice.is_separating() {
            return Some(choice.segment);
        }
        (0..w).find(|&i| {
            (word.bits(i) as usize) < messi_sax::CARD_BITS
                && prefix.iter().any(|e| e.sax.symbol(i) != first[i])
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use messi_sax::convert::{sax_word, SaxConfig};
    use messi_sax::root_key::{node_word_for_root_key, root_key};

    fn entry_for(series: &[f32], pos: u32, config: SaxConfig) -> SaxEntry {
        SaxEntry {
            sax: sax_word(series, config),
            pos,
        }
    }

    fn splitter(segments: usize, leaf_capacity: usize) -> Splitter {
        Splitter {
            segments,
            leaf_capacity,
        }
    }

    /// One subtree split alone and assembled as a one-part forest.
    fn build_subtree(
        split: Splitter,
        word: NodeWord,
        entries: impl IntoIterator<Item = SaxEntry>,
    ) -> TreeArena {
        let mut scratch = PartScratch::default();
        scratch.open(0);
        scratch.pool.extend(entries);
        split.emit(word, 0, &mut scratch);
        assemble_forest(&scratch.parts(), split.segments)
    }

    /// The subtree at `id` copied back out of its arena, ids and offsets
    /// counting from zero.
    fn copy_out(arena: &TreeArena, id: NodeId) -> (Vec<NodeRecord>, Vec<SaxEntry>) {
        let mut scratch = PartScratch::default();
        arena.copy_subtree(0, id, &mut scratch);
        (scratch.nodes, scratch.pool)
    }

    /// A small built index and the subtree stored for its first
    /// touched key, copied out as a snapshot stores it.
    fn stored_subtree() -> (crate::MessiIndex, Vec<NodeRecord>, Vec<SaxEntry>) {
        let data = messi_series::gen::generate(messi_series::gen::DatasetKind::RandomWalk, 300, 23);
        let config = crate::IndexConfig::for_tests();
        let (index, _) = crate::MessiIndex::build(std::sync::Arc::new(data), &config);
        let key = index.touched_keys()[0];
        let (arena, root) = index.key_root(key).expect("touched");
        let mut scratch = PartScratch::default();
        arena.copy_subtree(key, root, &mut scratch);
        (index, scratch.nodes, scratch.pool)
    }

    /// The deserialization path for one subtree's raw records: a
    /// snapshot of `index` storing them for its first key, loaded. A
    /// refusal must name that key.
    fn from_raw(
        index: &crate::MessiIndex,
        nodes: Vec<NodeRecord>,
        entries: Vec<SaxEntry>,
    ) -> Result<(), String> {
        match crate::persist::load_with_first_subtree(index, &nodes, &entries) {
            Ok(_) => Ok(()),
            Err(crate::persist::PersistError::Corrupt(msg)) => {
                let key = index.touched_keys()[0];
                assert!(msg.contains(&format!("root key {key}")), "{msg}");
                Err(msg)
            }
            Err(e) => panic!("expected a Corrupt refusal, got {e:?}"),
        }
    }

    fn series(seed: u32, n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| ((i as f32 + seed as f32 * 13.7) * (0.11 + 0.01 * seed as f32)).sin() * 2.0)
            .collect()
    }

    #[test]
    fn insert_without_split_accumulates() {
        let word = NodeWord::root();
        let config = SaxConfig::new(4, 32);
        let arena = build_subtree(
            splitter(4, 100),
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
        let mut groups: std::collections::HashMap<usize, Vec<SaxEntry>> = Default::default();
        for i in 0..400u32 {
            let e = entry_for(&series(i, 32), i, config);
            groups.entry(root_key(&e.sax, 4)).or_default().push(e);
        }
        let (key, entries) = groups
            .into_iter()
            .max_by_key(|(_, v)| v.len())
            .expect("some group");
        assert!(entries.len() > 8, "need a non-trivial group");
        let arena = build_subtree(
            splitter(4, 8),
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
            for j in 0..leaf.entries.len() {
                assert!(leaf.word.contains(&leaf.sax(j), 4));
            }
            if leaf.entries.len() > 8 {
                // Only allowed when every entry has the same summary.
                assert!(
                    (0..leaf.entries.len()).all(|j| leaf.sax(j) == leaf.sax(0)),
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
        let arena = build_subtree(
            splitter(4, 4),
            node_word_for_root_key(key, 4),
            (0..20u32).map(|i| SaxEntry { pos: i, ..e }),
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
        let arena = build_subtree(splitter(4, 8), word, std::iter::empty());
        assert!(arena.is_leaf(TreeArena::ROOT));
        assert_eq!(arena.word(TreeArena::ROOT), &word);
        assert_eq!(arena.num_entries(), 0);
        assert_eq!(arena.height(), 1);
        assert!(arena.node_bytes() > 0 || arena.num_nodes() == 1);
        assert_eq!(arena.leaf(TreeArena::ROOT).entries.len(), 0);
        // Even an empty arena has one (empty) run covering its one leaf.
        assert_eq!(arena.layout.runs.len(), 1);
        assert_eq!(arena.run_shapes(), vec![(1, 0)]);
    }

    #[test]
    fn builder_reuse_across_subtrees_is_clean() {
        let config = SaxConfig::new(4, 32);
        let split = splitter(4, 4);
        let mut groups: std::collections::BTreeMap<usize, Vec<SaxEntry>> = Default::default();
        for i in 0..200u32 {
            let e = entry_for(&series(i, 32), i, config);
            groups.entry(root_key(&e.sax, 4)).or_default().push(e);
        }
        // Split every group twice — into one scratch reused back to back
        // (and once more after a clear) and into a fresh scratch each —
        // and require identical flattened storage.
        let mut reused = PartScratch::default();
        for round in 0..2 {
            reused.clear();
            for (&key, entries) in &groups {
                reused.open(key);
                let from = reused.pool.len();
                reused.pool.extend(entries.iter().copied());
                split.emit(node_word_for_root_key(key, 4), from, &mut reused);
            }
            let parts = reused.parts();
            assert_eq!(parts.len(), groups.len());
            for (part, (&key, entries)) in parts.iter().zip(&groups) {
                let reused = assemble_forest(&[*part], 4);
                let word = node_word_for_root_key(key, 4);
                let fresh = build_subtree(split, word, entries.iter().copied());
                assert_eq!(reused.num_nodes(), fresh.num_nodes(), "key {key}");
                assert_eq!(reused.num_leaves(), fresh.num_leaves(), "key {key}");
                let collect = |a: &TreeArena| {
                    let mut v = Vec::new();
                    a.for_each_leaf(&mut |l| v.extend(l.entries.iter().map(|e| e.pos)));
                    v
                };
                assert_eq!(collect(&reused), collect(&fresh), "key {key}");
                assert!(reused == fresh, "round {round} key {key}: arenas differ");
            }
        }
    }

    /// Alg. 4 transcribed literally, as the equivalence oracle for
    /// [`Splitter`]: a `Vec` per leaf; an insert appends the entry to its
    /// leaf, then splits that leaf while it holds more than the capacity
    /// (the push-then-split phrasing of "while targetLeaf is full do
    /// SplitNode"), recursing into the children each split makes.
    enum Alg4 {
        Leaf(NodeWord, Vec<SaxEntry>),
        Inner(NodeWord, usize, Box<Alg4>, Box<Alg4>),
    }

    impl Alg4 {
        fn insert(&mut self, e: SaxEntry, split: Splitter) {
            match self {
                Alg4::Inner(word, segment, zero, one) => {
                    let child = if word.child_of(&e.sax, *segment) {
                        one
                    } else {
                        zero
                    };
                    child.insert(e, split);
                }
                Alg4::Leaf(_, entries) => {
                    entries.push(e);
                    self.split_while_full(split);
                }
            }
        }

        fn split_while_full(&mut self, split: Splitter) {
            let Alg4::Leaf(word, entries) = self else {
                return;
            };
            if entries.len() <= split.leaf_capacity {
                return;
            }
            let word = *word;
            let saxes = entries.iter().map(|e| &e.sax);
            let Some(choice) = choose_split(&word, split.segments, saxes) else {
                return;
            };
            let segment = if choice.is_separating() {
                choice.segment
            } else {
                let differs = |i: usize| {
                    entries
                        .iter()
                        .any(|e| e.sax.symbol(i) != entries[0].sax.symbol(i))
                };
                let deeper = |i: usize| (word.bits(i) as usize) < messi_sax::CARD_BITS;
                match (0..split.segments).find(|&i| deeper(i) && differs(i)) {
                    Some(i) => i,
                    None => return,
                }
            };
            let (ones, zeros) = (entries.iter()).partition(|e| word.child_of(&e.sax, segment));
            let (zero_word, one_word) = word.refine(segment);
            let mut zero = Alg4::Leaf(zero_word, zeros);
            let mut one = Alg4::Leaf(one_word, ones);
            zero.split_while_full(split);
            one.split_while_full(split);
            *self = Alg4::Inner(word, segment, Box::new(zero), Box::new(one));
        }

        /// The tree's preorder records and leaf-ordered entries, ids and
        /// offsets counting from zero.
        fn emit(&self, nodes: &mut Vec<NodeRecord>, pool: &mut Vec<SaxEntry>) -> NodeId {
            let my = nodes.len();
            match self {
                Alg4::Leaf(word, entries) => {
                    let lo = pool.len() as u32;
                    pool.extend(entries);
                    let hi = pool.len() as u32;
                    let (word, tag) = (*word, LEAF_TAG);
                    nodes.push(NodeRecord { word, tag, lo, hi });
                }
                Alg4::Inner(word, segment, zero, one) => {
                    let (word, tag) = (*word, *segment as u8);
                    nodes.push(NodeRecord {
                        word,
                        tag,
                        lo: 0,
                        hi: 0,
                    });
                    nodes[my].lo = zero.emit(nodes, pool);
                    nodes[my].hi = one.emit(nodes, pool);
                }
            }
            my as NodeId
        }
    }

    /// Seeded adversarial cases: entry sequences drawn from a few
    /// summaries, some differing only in their deepest bits, in runs long
    /// enough to overflow a leaf with identical entries before a
    /// different one arrives. Every case must split, records and pool
    /// order alike, as inserting the entries one at a time does.
    #[test]
    fn splitter_equals_insert_and_split() {
        let mut state = 0x4d45_5353_4931u64;
        let mut draw = |n: usize| {
            // SplitMix64.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        };
        let mut scratch = PartScratch::default();
        let (mut splits, mut drills) = (0usize, 0usize);
        for case in 0..4000 {
            let segments = 1 + draw(4);
            let split = splitter(segments, 1 + draw(8));
            let key = draw(1 << segments);
            let word = node_word_for_root_key(key, segments);
            // A few base summaries under the key's word, then variants
            // of them flipping one of the two deepest bits of a segment.
            let top = |i: usize| (((key >> (segments - 1 - i)) & 1) << 7) as u8;
            let mut kinds: Vec<SaxWord> = (0..1 + draw(3))
                .map(|_| {
                    let symbols: Vec<u8> =
                        (0..segments).map(|i| top(i) | draw(128) as u8).collect();
                    SaxWord::new(&symbols)
                })
                .collect();
            for _ in 0..draw(4) {
                let mut symbols = kinds[draw(kinds.len())].symbols()[..segments].to_vec();
                symbols[draw(segments)] ^= 1 << draw(2);
                kinds.push(SaxWord::new(&symbols));
            }
            let n = draw(151);
            let mut entries = Vec::with_capacity(n);
            while entries.len() < n {
                let sax = kinds[draw(kinds.len())];
                let run = 1 + draw(3 * split.leaf_capacity);
                for _ in 0..run.min(n - entries.len()) {
                    let pos = entries.len() as u32;
                    entries.push(SaxEntry { sax, pos });
                }
            }

            let mut oracle = Alg4::Leaf(word, Vec::new());
            entries.iter().for_each(|&e| oracle.insert(e, split));
            let (mut want_nodes, mut want_pool) = (Vec::new(), Vec::new());
            oracle.emit(&mut want_nodes, &mut want_pool);

            // Many cases share one scratch, so ids and offsets start
            // past earlier parts.
            if case % 64 == 0 {
                scratch.clear();
            }
            scratch.open(case);
            let from = scratch.pool.len();
            scratch.pool.extend(&entries);
            split.emit(word, from, &mut scratch);
            let parts = scratch.parts();
            let part = parts.last().expect("just filed");
            let got_nodes: Vec<NodeRecord> = part.rebased(0, 0).collect();
            let what = format!(
                "case {case}: {segments} segments, capacity {}, {n} entries",
                split.leaf_capacity
            );
            assert_eq!(got_nodes, want_nodes, "{what}: records differ");
            assert_eq!(part.entries, &want_pool[..], "{what}: pool order differs");
            splits += usize::from(got_nodes.len() > 1);
            drills += (got_nodes.iter())
                .filter(|r| r.tag != LEAF_TAG)
                .filter(|r| {
                    let children = [r.lo, r.hi].map(|c| got_nodes[c as usize]);
                    children.iter().any(|c| c.tag == LEAF_TAG && c.lo == c.hi)
                })
                .count();
        }
        // The cases reach both kinds of split.
        assert!(splits > 1000, "only {splits} cases split");
        assert!(drills > 100, "only {drills} drill-down splits");
    }

    #[test]
    fn preorder_invariants_hold_and_from_raw_validates() {
        let (index, nodes, pool) = stored_subtree();
        // The loader accepts the builder's own records…
        from_raw(&index, nodes.clone(), pool.clone()).expect("valid subtree");
        // …and refuses structural corruption.
        assert!(from_raw(&index, Vec::new(), Vec::new()).is_err());
        if nodes.len() > 1 {
            let mut bad = nodes.clone();
            bad[0].lo = 0; // self-referential child breaks preorder
            assert!(from_raw(&index, bad, pool.clone()).is_err());
        }
        let mut bad = nodes;
        if let Some(last_leaf) = bad.iter().rposition(|n| n.tag == LEAF_TAG) {
            bad[last_leaf].hi += 1; // range past the pool
            assert!(from_raw(&index, bad, pool).is_err());
        }
    }

    #[test]
    fn leaf_sax_reads_back_the_builders_words() {
        let config = SaxConfig::new(4, 32);
        let mut groups: std::collections::BTreeMap<usize, Vec<SaxEntry>> = Default::default();
        for i in 0..300u32 {
            let e = entry_for(&series(i, 32), i, config);
            groups.entry(root_key(&e.sax, 4)).or_default().push(e);
        }
        // Capacity 1 leaves most leaves alone in a run; 200 keeps whole
        // keys in one leaf, larger than a run's target.
        for capacity in [1, 4, 8, 200] {
            for (key, entries) in &groups {
                let arena = build_subtree(
                    splitter(4, capacity),
                    node_word_for_root_key(*key, 4),
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
                        let inserted = entries.iter().find(|i| i.pos == e.pos).expect("inserted");
                        assert_eq!(
                            leaf.sax(j),
                            inserted.sax,
                            "cap {capacity} key {key} pos {}",
                            e.pos
                        );
                    }
                    total += n;
                });
                assert_eq!(total, arena.num_entries());
                // The copied-out subtree reassembles identical columns and runs.
                let (nodes, entries) = copy_out(&arena, TreeArena::ROOT);
                let part = RawPart {
                    key: 0,
                    nodes: &nodes,
                    entries: &entries,
                    node_base: 0,
                    pool_base: 0,
                };
                assert!(assemble_forest(&[part], 4) == arena);
                arena.check_derived_layout().expect("derived layout intact");
            }
        }
    }

    #[test]
    fn runs_partition_leaves_and_respect_the_target() {
        let config = SaxConfig::new(4, 32);
        let mut groups: std::collections::HashMap<usize, Vec<SaxEntry>> = Default::default();
        for i in 0..500u32 {
            let e = entry_for(&series(i, 32), i, config);
            groups.entry(root_key(&e.sax, 4)).or_default().push(e);
        }
        for (key, entries) in groups {
            // Tiny leaves → multi-leaf runs.
            let arena = build_subtree(
                splitter(4, 4),
                node_word_for_root_key(key, 4),
                entries.iter().copied(),
            );
            let shapes = arena.run_shapes();
            assert_eq!(shapes.len(), arena.layout.runs.len(), "key {key}");
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
        let (index, _, _) = stored_subtree();
        let w = NodeWord::root();
        let leaf = |lo: u32, hi: u32| NodeRecord {
            word: w,
            tag: LEAF_TAG,
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
                SaxEntry {
                    sax: SaxWord::zeroed(),
                    pos: 0
                };
                n
            ]
        };
        // Unreachable node: the root only spans ids 1..=2, node 3 is
        // never visited, but its pool range keeps the linear partition
        // consistent.
        let orphan = vec![inner(1, 2), leaf(0, 3), leaf(3, 6), leaf(6, 9)];
        assert!(from_raw(&index, orphan, entries(9)).is_err());
        // Shared child: two parents point at leaf 3.
        let shared = vec![inner(1, 3), inner(2, 3), leaf(0, 1), leaf(1, 2)];
        assert!(from_raw(&index, shared, entries(2)).is_err());
        // A left spine deeper than any build can make (every split
        // refines one bit of one segment): a structurally flawless
        // preorder tree of 2D+1 nodes.
        let d = (MAX_SEGMENTS * messi_sax::CARD_BITS + 9) as u32;
        let mut spine: Vec<NodeRecord> = (0..d).map(|i| inner(i + 1, 2 * d - i)).collect();
        for _ in 0..=d {
            spine.push(leaf(0, 0));
        }
        assert!(from_raw(&index, spine, entries(0)).is_err());
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
        let mut groups: std::collections::BTreeMap<usize, Vec<SaxEntry>> = Default::default();
        for i in 0..400u32 {
            let e = entry_for(&series(i, 32), i, config);
            groups
                .entry(root_key(&e.sax, segments))
                .or_default()
                .push(e);
        }
        let built: Vec<(usize, TreeArena)> = groups
            .into_iter()
            .map(|(key, entries)| {
                let word = node_word_for_root_key(key, segments);
                (
                    key,
                    build_subtree(splitter(segments, 4), word, entries.iter().copied()),
                )
            })
            .collect();
        assert!(built.len() >= 2, "need several keys to form a forest");
        let originals: Vec<(usize, Vec<NodeRecord>, Vec<SaxEntry>)> = built
            .iter()
            .map(|(k, a)| {
                let (nodes, pool) = copy_out(a, TreeArena::ROOT);
                (*k, nodes, pool)
            })
            .collect();
        let mut scratch = PartScratch::default();
        for (k, a) in &built {
            a.copy_subtree(*k, TreeArena::ROOT, &mut scratch);
        }
        let forest = assemble_forest(&scratch.parts(), segments);
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
        // Every member subtree copies back out identical, summaries
        // included, through the spine (descending by the key's bits at each synthetic
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
            let (got_nodes, got_entries) = copy_out(&forest, id);
            assert_eq!(&got_nodes, nodes, "key {key}: copied nodes differ");
            assert_eq!(&got_entries, entries, "key {key}: copied entries differ");
        }
    }
}
