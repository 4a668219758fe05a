//! The [`MessiIndex`] handle: the finished tree plus approximate search.

use crate::config::IndexConfig;
use crate::node::{
    assemble_forest, forest_groups, LeafRun, NodeId, PartScratch, RawPart, SaxEntry, Splitter,
    TreeArena,
};
use crate::stats::BuildStats;
use messi_sax::convert::{SaxConfig, SaxConverter};
use messi_sax::mindist::MindistTable;
use messi_sax::root_key::{node_word_for_root_key, root_key};
use messi_sax::word::{RootWord, SaxWord};
use messi_series::distance::euclidean::ed_sq_early_abandon_with;
use messi_series::distance::Kernel;
use messi_series::Dataset;
use std::sync::Arc;

/// `slots` sentinel for "this root key has no subtree".
pub(crate) const EMPTY_SLOT: u32 = u32::MAX;

/// The MESSI in-memory data-series index.
///
/// Holds (an `Arc` to) the raw dataset, the iSAX configuration, and the
/// index tree: up to 2^w root subtrees, each flattened into a
/// [`TreeArena`] (contiguous preorder node records, one packed position
/// pool and its summaries as symbol columns — see [`crate::node`]).
/// Built with [`MessiIndex::build`]; queried with [`MessiIndex::search`]
/// (exact 1-NN), [`MessiIndex::search_knn`], [`MessiIndex::search_range`],
/// [`MessiIndex::search_approximate_bounded`] (δ-ε-approximate 1-NN),
/// or [`crate::dtw`] (exact DTW 1-NN) — all answered by the unified
/// [`crate::engine`] driver. [`crate::persist`] saves and reloads the
/// whole structure as a snapshot file.
#[derive(Debug)]
pub struct MessiIndex {
    pub(crate) dataset: Arc<Dataset>,
    pub(crate) config: IndexConfig,
    pub(crate) sax_config: SaxConfig,
    /// Segment lengths as f32 (mindist scale factors).
    pub(crate) scales: Vec<f32>,
    /// The forest arenas, in ascending key order. Consecutive sparse
    /// root subtrees share one arena under a synthetic trie spine (see
    /// [`crate::node`]'s forest docs); a dense subtree gets its own.
    pub(crate) arenas: Vec<TreeArena>,
    /// The **root block**: every arena's root word packed into four
    /// bytes, parallel to `arenas`; derived like the arenas' `cols`,
    /// never serialised.
    pub(crate) roots: Vec<RootWord>,
    /// Root key → index into `arenas` ([`EMPTY_SLOT`] = empty subtree).
    /// Several member keys of one forest map to the same arena.
    pub(crate) slots: Vec<u32>,
    /// Keys of the non-empty root subtrees, ascending.
    pub(crate) touched: Vec<usize>,
}

impl MessiIndex {
    /// Builds the index over `dataset` (Alg. 1–4). Returns the index and
    /// its construction statistics.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty, holds more than `u32::MAX` series
    /// (positions are stored as `u32`), or the configuration is invalid
    /// for its shape.
    pub fn build(dataset: Arc<Dataset>, config: &IndexConfig) -> (Self, BuildStats) {
        crate::build::build_index(dataset, config)
    }

    /// The one constructor, and the one place that fills `slots`,
    /// `touched` and `roots`: `arenas[g]` holds the subtrees of the
    /// ascending root keys `touched[groups[g]]`. Panics on a key out of
    /// range, more than `u32::MAX` series, or an invalid configuration.
    pub(crate) fn from_forests(
        dataset: Arc<Dataset>,
        config: IndexConfig,
        touched: Vec<usize>,
        groups: &[std::ops::Range<usize>],
        arenas: Vec<TreeArena>,
    ) -> Self {
        config.validate(dataset.series_len());
        crate::build::assert_positions_fit(&dataset);
        debug_assert!(touched.windows(2).all(|w| w[0] < w[1]));
        debug_assert_eq!(groups.len(), arenas.len());
        let sax_config = SaxConfig::new(config.segments, dataset.series_len());
        let num_keys = sax_config.num_root_subtrees();
        let mut slots = vec![EMPTY_SLOT; num_keys];
        for (g, range) in groups.iter().enumerate() {
            for &key in &touched[range.clone()] {
                assert!(key < num_keys, "root key {key} out of range (< {num_keys})");
                slots[key] = g as u32;
            }
        }
        Self {
            scales: messi_sax::mindist::segment_scales(sax_config),
            dataset,
            config,
            sax_config,
            roots: (arenas.iter())
                .map(|arena| RootWord::pack(arena.word(TreeArena::ROOT)))
                .collect(),
            arenas,
            slots,
            touched,
        }
    }

    /// An index from per-key raw parts, ascending by key, assembled one
    /// forest group at a time (absorb).
    pub(crate) fn from_raw_parts(
        dataset: Arc<Dataset>,
        config: IndexConfig,
        parts: &[RawPart<'_>],
    ) -> Self {
        let counts: Vec<usize> = parts.iter().map(|p| p.entries.len()).collect();
        let groups = forest_groups(&counts);
        let arenas = groups
            .iter()
            .map(|range| assemble_forest(&parts[range.clone()], config.segments))
            .collect();
        let touched = parts.iter().map(|p| p.key).collect();
        Self::from_forests(dataset, config, touched, &groups, arenas)
    }

    // # Design: absorb by insertion, not rebuild
    //
    // **Context.** MESSI grows a tree by inserting each `(summary,
    // position)` pair into its leaf and splitting only the leaf that
    // overflows (Alg. 4 lines 7–11). `insert_batch` used to slice every
    // root subtree out to owned raw parts, re-validate and re-derive a
    // layout per key, re-insert every entry of a key that received one,
    // and regroup, throwing the per-key layouts away.
    //
    // **Goals.** One merge pass over old and new keys: untouched subtrees
    // copied, touched ones grown leaf-locally, one derived layout per
    // emitted arena; the result equal, record for record, to inserting
    // the batch one entry at a time — hence to a sequential build over
    // the grown collection.
    //
    // **Non-goals.** `Arc`-sharing unchanged forest groups across epochs;
    // re-validation — no stored bytes enter the process as an arena (a
    // snapshot load rebuilds and compares, `persist.rs`), this pass reads
    // arenas built here, and debug builds audit its output with
    // `validate`.
    //
    // **Decisions** (200 k base, 2 shards, 4 096-series batches, last
    // shard 104 k → 149 k series in ~12 k keys, 2 cores).
    // * *Group reuse does not pay at this batch/shard ratio:* a batch
    //   touches ~1 530 keys holding two thirds of the shard's entries;
    //   after regrouping 4–6 % of entries sit in a group identical to an
    //   old one. The cost was ~8 allocations, a re-validation and a
    //   discarded layout per untouched key, not re-emitting the shard.
    // * *Per republish, before → after:* absorb 15.4–16.3 ms (summarise
    //   1.3–1.8, per-key rebuild 8–13, regroup 4.9–7.3) → 6.0–6.8 ms
    //   (summarise + route + sort 1.3–1.4, grow 0.5–1.6, key walk 1.0,
    //   assemble 2.9–3.4); prewarm 2.9–3.6 ms (8 queries) → 0.8 ms (2).
    // * *No knob, no fork:* the per-key rebuild is deleted;
    //   `assemble_forest` is the one splice for build and absorb,
    //   and `from_forests` the one constructor. A grown leaf's sequence
    //   (old entries, then arrivals) and a new key's arrivals go through
    //   the build's top-down `Splitter`, which emits what inserting them
    //   one at a time would (see `node.rs`).
    // * *Untouched keys are copied:* summaries live only in columns, so
    //   each is gathered into the scratch and transposed back. 150 k
    //   series, 4 096-series batch, one worker, 2 cores: absorb 8.3 →
    //   10.7 ms; traced `ingest-query` republish 14.1 → 18.7 ms.

    /// A grown copy of this index over `grown`: the same collection with
    /// `grown.len() - start` new series appended at local positions
    /// `start..grown.len()`, where `start` is the number of series this
    /// index already covers.
    ///
    /// One merge pass, the paper's insert on flat arenas: the new series
    /// are summarised, routed, and sorted by `(root key, leaf, position)`;
    /// old and new keys are then walked together, ascending, and each
    /// old key is grown **leaf-locally** (`TreeArena::grow_subtree` —
    /// each leaf's old entries, then its arrivals, are split top-down,
    /// so only a leaf pushed past `leaf_capacity` becomes a subtree and
    /// an untouched key comes out a copy) into one scratch, from which
    /// every forest arena is assembled. A new key's arrivals are split
    /// the same way. The result equals, node record for node record,
    /// inserting the entries one at a time — which is what a sequential
    /// build over the grown collection gives.
    ///
    /// ## Append-safety invariant (audited for live ingest)
    ///
    /// `grown` must start with this index's series bit-for-bit. It is
    /// normally a longer view of the **same** allocation — growth is
    /// append-in-place ([`Dataset::append_with`]) — or, after a capacity
    /// growth, a view of the one copy that replaced it. Either way
    /// existing leaf entries keep their `u32` local positions and simply
    /// re-resolve against `grown`, and nothing this index (or any
    /// in-flight query on the old epoch) can see is moved or rewritten:
    /// a view never covers bytes beyond its own length, and the bytes it
    /// does cover are never written again.
    ///
    /// Returns [`IngestError::PositionOverflow`] when the grown
    /// collection would exceed the per-index `u32` local-position
    /// ceiling — the runtime (typed) counterpart of the build-time
    /// `assert_positions_fit` panic.
    ///
    /// # Panics
    ///
    /// Panics if `grown` changes the series length or holds fewer than
    /// `start` series.
    ///
    /// [`IngestError::PositionOverflow`]: crate::ingest::IngestError::PositionOverflow
    pub fn insert_batch(
        &self,
        grown: Arc<Dataset>,
        start: usize,
    ) -> Result<Self, crate::ingest::IngestError> {
        assert_eq!(
            grown.series_len(),
            self.dataset.series_len(),
            "grown dataset changes series_len"
        );
        assert!(
            start <= grown.len(),
            "start {start} beyond grown dataset ({})",
            grown.len()
        );
        crate::ingest::check_position_ceiling(start as u64, (grown.len() - start) as u64)?;

        // Summarise and route: `(root key, home leaf in the old arena,
        // entry)`, sorted stably so position order survives in each leaf.
        let segments = self.sax_config.segments;
        let mut conv = SaxConverter::new(self.sax_config);
        let mut fresh: Vec<(usize, NodeId, SaxEntry)> = (start..grown.len())
            .map(|pos| {
                let sax = conv.convert(grown.series(pos));
                let key = root_key(&sax, segments);
                let leaf = self.key_root(key).map_or(0, |(arena, root)| {
                    arena.descend_by_sax(root, &sax, segments)
                });
                let pos = pos as u32;
                (key, leaf, SaxEntry { sax, pos })
            })
            .collect();
        fresh.sort_by_key(|f| (f.0, f.1));

        // Walk old and new keys together, ascending, into one scratch:
        // an old key is grown by what the batch routed to it (copied, if
        // nothing), a new key is built from its arrivals.
        let mut keys: Vec<usize> = (self.touched.iter().copied())
            .chain(fresh.iter().map(|f| f.0))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        let split = Splitter {
            segments,
            leaf_capacity: self.config.leaf_capacity,
        };
        let mut scratch = PartScratch::default();
        let mut rest = &fresh[..];
        for key in keys {
            let (run, tail) = rest.split_at(rest.partition_point(|f| f.0 == key));
            rest = tail;
            scratch.open(key);
            if let Some((arena, root)) = self.key_root(key) {
                let unrouted = arena.grow_subtree(root, run, split, &mut scratch);
                debug_assert!(unrouted.is_empty());
            } else {
                let from = scratch.pool.len();
                scratch.pool.extend(run.iter().map(|f| f.2));
                split.emit(node_word_for_root_key(key, segments), from, &mut scratch);
            }
        }
        let index = Self::from_raw_parts(grown, self.config.clone(), &scratch.parts());
        debug_assert!(crate::validate::validate(&index).is_empty());
        Ok(index)
    }

    /// The indexed dataset.
    pub fn dataset(&self) -> &Arc<Dataset> {
        &self.dataset
    }

    /// The build configuration.
    pub fn config(&self) -> &IndexConfig {
        &self.config
    }

    /// The iSAX summarization parameters.
    pub fn sax_config(&self) -> SaxConfig {
        self.sax_config
    }

    /// Mindist scale factors (segment lengths), shared with search code.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Number of indexed series.
    pub fn num_series(&self) -> usize {
        self.dataset.len()
    }

    /// Keys of non-empty root subtrees.
    pub fn touched_keys(&self) -> &[usize] {
        &self.touched
    }

    /// The arena holding `key`'s subtree, if non-empty. With forest
    /// grouping this may be shared by several member keys — walks that
    /// must stay per-key use [`MessiIndex::key_root`] instead.
    pub fn root(&self, key: usize) -> Option<&TreeArena> {
        match self.slots.get(key) {
            Some(&slot) if slot != EMPTY_SLOT => Some(&self.arenas[slot as usize]),
            _ => None,
        }
    }

    /// All arenas, in ascending key order — the iteration unit for
    /// whole-index sweeps (each leaf appears exactly once, whereas
    /// iterating [`MessiIndex::root`] per touched key revisits a shared
    /// forest arena once per member).
    pub fn arenas(&self) -> &[TreeArena] {
        &self.arenas
    }

    /// The root block, parallel to [`MessiIndex::arenas`] — what the tree
    /// pass sweeps 8 roots at a time before it dereferences an arena.
    pub fn roots(&self) -> &[RootWord] {
        &self.roots
    }

    /// The per-key subtree root of `key`, if non-empty: its arena plus
    /// the node id of the first fully refined word on `key`'s path —
    /// the arena root itself for a solo subtree, or the member root
    /// below the synthetic spine of a forest.
    pub fn key_root(&self, key: usize) -> Option<(&TreeArena, NodeId)> {
        let arena = self.root(key)?;
        let segments = self.sax_config.segments;
        let mut id = TreeArena::ROOT;
        loop {
            let word = arena.word(id);
            if (0..segments).all(|s| word.bits(s) >= 1) {
                return Some((arena, id));
            }
            // Synthetic spine nodes are always inner (a group has at
            // least two members); route by the key's bit on the split
            // segment.
            let split = arena.split_segment(id);
            let (left, right) = arena.children(id);
            id = if (key >> (segments - 1 - split)) & 1 == 1 {
                right
            } else {
                left
            };
        }
    }

    /// Total leaves in the index.
    pub fn num_leaves(&self) -> usize {
        self.arenas.iter().map(TreeArena::num_leaves).sum()
    }

    /// Total entries stored across all leaf pools (equals
    /// [`MessiIndex::num_series`] for a valid index).
    pub fn num_entries(&self) -> usize {
        self.arenas.iter().map(TreeArena::num_entries).sum()
    }

    /// Height of the tallest root subtree.
    pub fn max_height(&self) -> usize {
        self.arenas.iter().map(TreeArena::height).max().unwrap_or(0)
    }

    /// Per-run shapes across every root subtree, in arena order:
    /// `(member leaves, entries)`. Feeds `messi info`'s run-length
    /// histogram and the benchmark's `node.leaves_per_run_mean`.
    pub fn run_shapes(&self) -> Vec<(usize, usize)> {
        self.arenas.iter().flat_map(TreeArena::run_shapes).collect()
    }

    /// Bytes held by all node arenas (the flat per-subtree node arrays)
    /// and the root block.
    pub fn node_storage_bytes(&self) -> usize {
        self.arenas.iter().map(TreeArena::node_bytes).sum::<usize>()
            + self.roots.capacity() * std::mem::size_of::<RootWord>()
    }

    /// Bytes held by all leaf-entry pools.
    pub fn entry_storage_bytes(&self) -> usize {
        self.arenas.iter().map(TreeArena::entry_bytes).sum()
    }

    /// Mean leaf fill factor: stored entries over total leaf capacity.
    pub fn leaf_fill_factor(&self) -> f64 {
        let leaves = self.num_leaves();
        if leaves == 0 {
            return 0.0;
        }
        self.num_entries() as f64 / (leaves as f64 * self.config.leaf_capacity as f64)
    }

    /// Creates a pooled [`QueryExecutor`](crate::exec::QueryExecutor)
    /// over this index — the batch/concurrency frontend serving every
    /// objective × metric combination with warm per-worker contexts.
    /// Hold one executor for a whole workload (batches, a server loop);
    /// the `search*` convenience methods below answer one query each
    /// through a fresh context instead.
    pub fn executor(&self) -> crate::exec::QueryExecutor<'_> {
        crate::exec::QueryExecutor::new(self)
    }

    /// Exact 1-NN search (Alg. 5–9). Returns the answer and per-query
    /// statistics.
    ///
    /// Every point of `query` must be finite. A NaN or infinite point
    /// leaves no distance below the initial `+inf` bound, so the answer
    /// is `pos = u32::MAX` at `dist_sq = +inf` — no series at all; the
    /// daemon rejects such a query before it gets here.
    pub fn search(
        &self,
        query: &[f32],
        config: &crate::config::QueryConfig,
    ) -> (crate::exact::QueryAnswer, crate::stats::QueryStats) {
        let (mut answers, stats) = self.run_single(query, &crate::exec::QuerySpec::exact(), config);
        (answers.pop().expect("exact search always answers"), stats)
    }

    /// Exact k-NN search: the `k` nearest series, ascending by distance.
    /// Returns fewer than `k` answers only when the dataset holds fewer
    /// than `k` series.
    ///
    /// ```
    /// use messi_core::{IndexConfig, MessiIndex, QueryConfig};
    /// use messi_series::gen::{self, DatasetKind};
    /// use std::sync::Arc;
    ///
    /// let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 500, 1));
    /// let (index, _) = MessiIndex::build(Arc::clone(&data), &IndexConfig::for_tests());
    /// let query = data.series(3).to_vec();
    ///
    /// let (top3, _) = index.search_knn(&query, 3, &QueryConfig::for_tests());
    /// assert_eq!(top3.len(), 3);
    /// assert_eq!(top3[0].pos, 3, "a member query's nearest neighbor is itself");
    /// assert!(top3[0].dist_sq <= top3[1].dist_sq);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, the query length mismatches, or the
    /// configuration is invalid.
    pub fn search_knn(
        &self,
        query: &[f32],
        k: usize,
        config: &crate::config::QueryConfig,
    ) -> (Vec<crate::exact::QueryAnswer>, crate::stats::QueryStats) {
        self.run_single(query, &crate::exec::QuerySpec::knn(k), config)
    }

    /// Exact ε-range search: every series with squared distance
    /// `<= epsilon_sq`, ascending (position breaks ties).
    /// `config.num_queues` is ignored (no queues exist — the bound is the
    /// fixed ε²).
    ///
    /// ```
    /// use messi_core::{IndexConfig, MessiIndex, QueryConfig};
    /// use messi_series::gen::{self, DatasetKind};
    /// use std::sync::Arc;
    ///
    /// let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 300, 2));
    /// let (index, _) = MessiIndex::build(Arc::clone(&data), &IndexConfig::for_tests());
    /// let query = data.series(7).to_vec();
    ///
    /// // Radius 0 returns the query's exact duplicates (itself, here).
    /// let (hits, _) = index.search_range(&query, 0.0, &QueryConfig::for_tests());
    /// assert!(hits.iter().any(|a| a.pos == 7));
    /// assert!(hits.iter().all(|a| a.dist_sq == 0.0));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `epsilon_sq` is negative or NaN, the query length
    /// mismatches, or the configuration is invalid.
    pub fn search_range(
        &self,
        query: &[f32],
        epsilon_sq: f32,
        config: &crate::config::QueryConfig,
    ) -> (Vec<crate::exact::QueryAnswer>, crate::stats::QueryStats) {
        self.run_single(query, &crate::exec::QuerySpec::range(epsilon_sq), config)
    }

    /// Exact DTW 1-NN search with a Sakoe-Chiba band (Fig. 19).
    ///
    /// # Panics
    ///
    /// Panics if the query length mismatches or the configuration is
    /// invalid.
    pub fn search_dtw(
        &self,
        query: &[f32],
        params: messi_series::distance::dtw::DtwParams,
        config: &crate::config::QueryConfig,
    ) -> (crate::exact::QueryAnswer, crate::stats::QueryStats) {
        let spec = crate::exec::QuerySpec::exact().with_dtw(params);
        let (mut answers, stats) = self.run_single(query, &spec, config);
        (answers.pop().expect("exact search always answers"), stats)
    }

    /// Exact k-NN search under banded DTW.
    ///
    /// # Panics
    ///
    /// As [`MessiIndex::search_knn`].
    pub fn search_knn_dtw(
        &self,
        query: &[f32],
        k: usize,
        params: messi_series::distance::dtw::DtwParams,
        config: &crate::config::QueryConfig,
    ) -> (Vec<crate::exact::QueryAnswer>, crate::stats::QueryStats) {
        self.run_single(
            query,
            &crate::exec::QuerySpec::knn(k).with_dtw(params),
            config,
        )
    }

    /// Exact ε-range search under banded DTW.
    ///
    /// # Panics
    ///
    /// As [`MessiIndex::search_range`].
    pub fn search_range_dtw(
        &self,
        query: &[f32],
        epsilon_sq: f32,
        params: messi_series::distance::dtw::DtwParams,
        config: &crate::config::QueryConfig,
    ) -> (Vec<crate::exact::QueryAnswer>, crate::stats::QueryStats) {
        self.run_single(
            query,
            &crate::exec::QuerySpec::range(epsilon_sq).with_dtw(params),
            config,
        )
    }

    /// One query: a one-shard walk through a fresh context.
    fn run_single(
        &self,
        query: &[f32],
        spec: &crate::exec::QuerySpec,
        config: &crate::config::QueryConfig,
    ) -> (Vec<crate::exact::QueryAnswer>, crate::stats::QueryStats) {
        let mut ctx = crate::engine::QueryContext::new();
        crate::shard::answer_solo(self, query, spec, config, &mut ctx)
    }

    /// *ng-approximate* 1-NN search ("no guarantees"): one descent to the
    /// query's home leaf and a scan of that leaf only — the operation
    /// MESSI uses to seed its BSF (Alg. 5 line 3 / Fig. 4a), exposed as a
    /// public query mode in the tradition of the iSAX family (ADS+ and
    /// progressive-search front-ends answer from exactly this leaf).
    /// Typically within a few percent of the exact answer (§III-B: "the
    /// initial value of BSF is very close to its final value") at a tiny
    /// fraction of the cost.
    ///
    /// When the query's root subtree is empty, the descent falls back to
    /// the subtree with the smallest node mindist, descending greedily —
    /// the answer is always a real series, never empty.
    ///
    /// This is the `δ = 0` instance of the approximate objective — see
    /// [`MessiIndex::search_approximate_bounded`] for the δ-ε family with
    /// error bounds and statistics (it answers identically at
    /// `epsilon = 0, delta = 0`; this entry point skips the executor
    /// machinery, keeping the cheapest query mode allocation-light).
    /// Callers that already hold the query's iSAX word and PAA (the
    /// exact-search seeding path, the ParIS baselines) use the
    /// `#[doc(hidden)]` [`MessiIndex::seed_approximate`] variant to skip
    /// re-summarizing.
    pub fn search_approximate(&self, query: &[f32], kernel: Kernel) -> crate::exact::QueryAnswer {
        let (sax, paa) = self.summarize_query(query);
        let (dist_sq, pos) = self.seed_approximate(query, &sax, &paa, kernel);
        crate::exact::QueryAnswer {
            pos: u64::from(pos),
            dist_sq,
        }
    }

    /// δ-ε-approximate 1-NN search (journal version of the paper): the
    /// answer is within `(1+epsilon)` of the true nearest-neighbor
    /// *distance* with probability calibrated by `delta`.
    ///
    /// * `delta = 0` — ng-approximate: the home-leaf answer, nothing
    ///   else (no guarantee).
    /// * `0 < delta < 1` — the traversal prunes with the inflated bound
    ///   `bsf/(1+ε)²` and stops once a δ-derived leaf-visit budget
    ///   (`ceil(delta · total leaves)`, spent best-bound-first) runs out.
    /// * `delta = 1` — no early stop: the `(1+epsilon)` guarantee is
    ///   deterministic, and `epsilon = 0` degenerates to exact search
    ///   bit-for-bit.
    ///
    /// `tests/approximate.rs` measures and asserts the guarantee against
    /// brute force. See [`crate::approximate`] for the search step and
    /// [`QueryStats`](crate::stats::QueryStats) fields `stop_reason` /
    /// `approx_inflation_prunes` for the early-termination accounting.
    ///
    /// ```
    /// use messi_core::{IndexConfig, MessiIndex, QueryConfig};
    /// use messi_series::gen::{self, DatasetKind};
    /// use std::sync::Arc;
    ///
    /// let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 400, 5));
    /// let (index, _) = MessiIndex::build(Arc::clone(&data), &IndexConfig::for_tests());
    /// let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 1, 5);
    ///
    /// // ε = 0.1, δ = 1: deterministically within 1.1× of the true NN.
    /// let (approx, _) =
    ///     index.search_approximate_bounded(queries.series(0), 0.1, 1.0, &QueryConfig::for_tests());
    /// let (_, true_nn) = data.nearest_neighbor_brute_force(queries.series(0));
    /// assert!(approx.dist_sq <= 1.1 * 1.1 * true_nn * (1.0 + 1e-3));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is negative or non-finite, `delta` is outside
    /// `[0, 1]`, the query length mismatches, or the configuration is
    /// invalid.
    pub fn search_approximate_bounded(
        &self,
        query: &[f32],
        epsilon: f32,
        delta: f32,
        config: &crate::config::QueryConfig,
    ) -> (crate::exact::QueryAnswer, crate::stats::QueryStats) {
        let spec = crate::exec::QuerySpec::approximate(epsilon, delta);
        let (mut answers, stats) = self.run_single(query, &spec, config);
        (
            answers.pop().expect("approximate search always answers"),
            stats,
        )
    }

    /// δ-ε-approximate 1-NN search under banded DTW: the same contract as
    /// [`MessiIndex::search_approximate_bounded`], with distances (and
    /// the `(1+epsilon)` guarantee) measured in DTW terms.
    ///
    /// # Panics
    ///
    /// As [`MessiIndex::search_approximate_bounded`].
    pub fn search_approximate_bounded_dtw(
        &self,
        query: &[f32],
        epsilon: f32,
        delta: f32,
        params: messi_series::distance::dtw::DtwParams,
        config: &crate::config::QueryConfig,
    ) -> (crate::exact::QueryAnswer, crate::stats::QueryStats) {
        let spec = crate::exec::QuerySpec::approximate(epsilon, delta).with_dtw(params);
        let (mut answers, stats) = self.run_single(query, &spec, config);
        (
            answers.pop().expect("approximate search always answers"),
            stats,
        )
    }

    /// Converts a query series to `(iSAX word, PAA)` using this index's
    /// configuration.
    ///
    /// # Panics
    ///
    /// Panics if the query length differs from the indexed series length.
    pub fn summarize_query(&self, query: &[f32]) -> (SaxWord, Vec<f32>) {
        assert_eq!(
            query.len(),
            self.dataset.series_len(),
            "query length must match indexed series length"
        );
        let mut conv = SaxConverter::new(self.sax_config);
        let (word, paa) = conv.convert_with_paa(query);
        (word, paa.to_vec())
    }

    /// Low-level ng-approximate search for callers that already computed
    /// the query's iSAX word and PAA: returns
    /// `(squared distance, position)` of an *unfiltered* scan of the home
    /// leaf ([`MessiIndex::home_leaf_run`]) — what the ParIS baselines
    /// seed with, and the reference the engine's lower-bound-filtered
    /// seed step is tested against.
    #[doc(hidden)]
    pub fn seed_approximate(
        &self,
        query: &[f32],
        query_sax: &SaxWord,
        query_paa: &[f32],
        kernel: Kernel,
    ) -> (f32, u32) {
        let mut best = (f32::INFINITY, u32::MAX);
        for e in self.home_leaf_run(query_sax, query_paa, None).entries {
            let candidate = self.dataset.series(e.pos as usize);
            let d = ed_sq_early_abandon_with(kernel, query, candidate, best.0);
            if d < best.0 {
                best = (d, e.pos);
            }
        }
        best
    }

    /// The query's *home leaf* as a scannable run: one descent from the
    /// query's root subtree following its summary bits, or — when that
    /// subtree is empty — from the arena whose root has the smallest
    /// mindist, greedily by mindist, so the leaf always holds real
    /// series. The one home-leaf walk in the repository: ED and DTW
    /// seeding and all approximate modes scan exactly this leaf.
    ///
    /// The fallback bounds nodes against the query's *point* PAA under
    /// either metric: `point_table` is its table when the caller has one
    /// filled (a Euclidean query's context), else one is built.
    pub(crate) fn home_leaf_run(
        &self,
        query_sax: &SaxWord,
        query_paa: &[f32],
        point_table: Option<&MindistTable>,
    ) -> LeafRun<'_> {
        let segments = self.sax_config.segments;
        let (arena, leaf) = match self.root(root_key(query_sax, segments)) {
            // The query's key is a member of this arena, so containment
            // holds down the whole walk — through the synthetic spine
            // (whose refined bits are bits all member keys share) and
            // the per-key subtree alike.
            Some(arena) => (
                arena,
                arena.descend_by_sax(TreeArena::ROOT, query_sax, segments),
            ),
            None => match point_table {
                Some(table) => self.fallback_leaf(query_sax, table),
                None => {
                    self.fallback_leaf(query_sax, &MindistTable::new(query_paa, self.sax_config))
                }
            },
        };
        let ord = arena.leaf_ordinal(leaf);
        arena.leaf_run(ord, ord + 1)
    }

    /// The home-leaf walk of a query whose home subtree is empty: the
    /// first arena of minimal root bound (one root-block sweep), then the
    /// query's own bits where it is on the path, mindist elsewhere.
    fn fallback_leaf(&self, query_sax: &SaxWord, table: &MindistTable) -> (&TreeArena, NodeId) {
        let segments = self.sax_config.segments;
        let use_simd = Kernel::Auto.uses_simd();
        let mut best = (f32::INFINITY, 0);
        let mut lbs = [0.0f32; 8];
        for (c, chunk) in self.roots.chunks(8).enumerate() {
            table.root_bounds(chunk, use_simd, &mut lbs);
            for (k, &d) in lbs[..chunk.len()].iter().enumerate() {
                if d < best.0 {
                    best = (d, c * 8 + k);
                }
            }
        }
        let arena = &self.arenas[best.1];
        let mut id = TreeArena::ROOT;
        while !arena.is_leaf(id) {
            let (left, right) = arena.children(id);
            id = if arena.word(id).contains(query_sax, segments) {
                // On the query's path at this node: follow its summary
                // bit. The step is re-checked every iteration because a
                // path-compressed forest child can refine bits the query
                // disagrees on — the walk then degrades to mindist.
                if arena.word(id).child_of(query_sax, arena.split_segment(id)) {
                    right
                } else {
                    left
                }
            } else if table.node_lower_bound(arena.word(left))
                <= table.node_lower_bound(arena.word(right))
            {
                // Off the query's own path (fallback entry): the closer
                // child by node mindist.
                left
            } else {
                right
            };
        }
        (arena, id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IndexConfig;
    use messi_series::gen::{self, DatasetKind};

    fn small_index() -> MessiIndex {
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 400, 11));
        let (index, _) = MessiIndex::build(data, &IndexConfig::for_tests());
        index
    }

    #[test]
    fn accessors_are_consistent() {
        let index = small_index();
        assert_eq!(index.num_series(), 400);
        assert!(index.num_leaves() >= 1);
        assert!(index.max_height() >= 1);
        assert!(!index.touched_keys().is_empty());
        for &k in index.touched_keys() {
            assert!(index.root(k).is_some());
        }
        assert_eq!(index.sax_config().segments, 8);
        assert_eq!(index.scales().len(), 8);
        // Arena bookkeeping: every stored entry is accounted for, storage
        // sizes are plausible, fill factor lands in (0, 1].
        assert_eq!(index.num_entries(), 400);
        assert!(index.node_storage_bytes() > 0);
        assert!(index.entry_storage_bytes() >= 400 * std::mem::size_of::<crate::node::LeafEntry>());
        let fill = index.leaf_fill_factor();
        assert!(fill > 0.0 && fill <= 1.0, "fill factor {fill}");
    }

    #[test]
    fn approximate_search_returns_a_real_series() {
        let index = small_index();
        let queries = gen::queries::generate_queries_with_len(DatasetKind::RandomWalk, 5, 11, 256);
        for q in queries.iter() {
            let (sax, paa) = index.summarize_query(q);
            let (d, pos) = index.seed_approximate(q, &sax, &paa, Kernel::Auto);
            assert!(pos != u32::MAX && (pos as usize) < index.num_series());
            // The approximate answer upper-bounds the true NN distance.
            let (_, true_d) = index.dataset().nearest_neighbor_brute_force(q);
            assert!(d >= true_d - 1e-4, "approx {d} below exact {true_d}?");
            // And it equals the distance to the returned series.
            let check =
                messi_series::distance::euclidean::ed_sq(q, index.dataset().series(pos as usize));
            assert!((check - d).abs() <= 1e-3 * check.max(1.0));
        }
    }

    #[test]
    fn public_approximate_search_upper_bounds_exact() {
        let index = small_index();
        let queries = gen::queries::generate_queries_with_len(DatasetKind::RandomWalk, 4, 12, 256);
        for q in queries.iter() {
            let approx = index.search_approximate(q, Kernel::Auto);
            let (exact, _) = index.search(q, &crate::config::QueryConfig::for_tests());
            assert!(
                approx.dist_sq >= exact.dist_sq - 1e-4 * exact.dist_sq.max(1.0),
                "approximate ({}) must never beat exact ({})",
                approx.dist_sq,
                exact.dist_sq
            );
            assert!((approx.pos as usize) < index.num_series());
        }
    }

    #[test]
    fn approximate_search_finds_exact_match_for_member_query() {
        let index = small_index();
        // A dataset member's approximate search must find distance 0 (its
        // own leaf contains it).
        let q = index.dataset().series(7).to_vec();
        let (sax, paa) = index.summarize_query(&q);
        let (d, pos) = index.seed_approximate(&q, &sax, &paa, Kernel::Auto);
        assert_eq!(d, 0.0);
        // Possibly a different position if duplicates exist; distance must
        // still be exactly zero.
        let check =
            messi_series::distance::euclidean::ed_sq(&q, index.dataset().series(pos as usize));
        assert_eq!(check, 0.0);
    }

    #[test]
    fn empty_home_key_enters_the_first_arena_of_minimal_root_mindist() {
        // The fallback's root-block sweep and table descent against the
        // branchy oracle it replaced: `min_by` over every root's
        // `mindist_sq_node` (first minimum wins), then the closer child.
        use messi_sax::mindist::mindist_sq_node;
        let index = small_index();
        let segments = index.sax_config.segments;
        let queries = gen::queries::generate_queries_with_len(DatasetKind::RandomWalk, 300, 5, 256);
        let mut taken = 0;
        for q in queries.iter() {
            let (sax, paa) = index.summarize_query(q);
            if index.root(root_key(&sax, segments)).is_some() {
                continue;
            }
            taken += 1;
            let bound =
                |arena: &TreeArena, id| mindist_sq_node(&paa, &index.scales, arena.word(id));
            let want = index
                .arenas
                .iter()
                .min_by(|a, b| bound(a, TreeArena::ROOT).total_cmp(&bound(b, TreeArena::ROOT)))
                .expect("index is never empty");
            let mut id = TreeArena::ROOT;
            while !want.is_leaf(id) {
                let (left, right) = want.children(id);
                let right_side = if want.word(id).contains(&sax, segments) {
                    want.word(id).child_of(&sax, want.split_segment(id))
                } else {
                    bound(want, left) > bound(want, right)
                };
                id = if right_side { right } else { left };
            }
            let table = MindistTable::new(&paa, index.sax_config);
            let (arena, leaf) = index.fallback_leaf(&sax, &table);
            assert!(std::ptr::eq(arena, want), "entered a different arena");
            assert_eq!(leaf, id);
        }
        assert!(taken >= 5, "only {taken} queries took the fallback");
    }

    #[test]
    #[should_panic(expected = "query length")]
    fn rejects_wrong_query_length() {
        let index = small_index();
        index.summarize_query(&[0.0; 10]);
    }
}
