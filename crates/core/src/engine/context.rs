//! Reusable per-worker query scratch.
//!
//! Every query needs a set of concurrent priority queues, a barrier, and
//! a per-query mindist lookup table (16 × 512 floats). Allocating these
//! from scratch per query is noise for one interactive query but real
//! overhead on the batch hot path — ParIS+ (PAPERS.md) attributes part
//! of its win to keeping exactly this machinery allocation-free across
//! queries. A [`QueryContext`] owns the scratch and hands the engine
//! freshly *reset* (not reallocated) views each query.
//!
//! The context is tied to the index lifetime `'a` because the queues
//! hold `LeafRun<'a>` views (spans of one or more member leaves of an
//! arena leaf run — the packed entry slice plus the run's SoA symbol
//! block) between the traversal and processing phases. Create one
//! context per query stream and pass it to
//! [`crate::exact::exact_search_with`] — or let the pooled executor
//! ([`crate::exec::QueryExecutor`], [`crate::shard::ShardedExecutor`])
//! manage a `SlotPool` of them per shard (contexts are `Send`, so the
//! lock-free checkout/checkin handoff moves them freely between request
//! threads).
//! [`QueryContext::alloc_events`] counts how many times scratch had to
//! be (re)built, so a steady batch shows a flat counter after its first
//! query.

use crate::config::QueryConfig;
use crate::node::LeafRun;
use messi_sax::convert::SaxConfig;
use messi_sax::mindist::MindistTable;
use messi_sync::{QueueSet, SenseBarrier};

/// What the per-query mindist table should be refilled with.
pub(crate) enum TableSpec<'q> {
    /// A point query's PAA (Euclidean search).
    Point(&'q [f32]),
    /// The PAAs of an LB_Keogh envelope's lower and upper series (DTW).
    Envelope(&'q [f32], &'q [f32]),
}

/// Borrowed, query-ready views into a [`QueryContext`]'s scratch.
pub(crate) struct Scratch<'c, 'a> {
    /// Empty, unfinished queues — `None` for queue-less objectives.
    pub(crate) queues: Option<&'c QueueSet<LeafRun<'a>>>,
    /// A barrier armed for the query's worker count — `None` when no
    /// queue phase (and hence no phase transition) exists.
    pub(crate) barrier: Option<&'c SenseBarrier>,
    /// The per-query lower-bound lookup table, freshly refilled.
    pub(crate) table: &'c MindistTable,
}

/// Reusable scratch for the query engine: queue set, barrier, and
/// mindist table, allocated once and reset between queries.
///
/// ```
/// use messi_core::engine::QueryContext;
/// use messi_core::{IndexConfig, MessiIndex, QueryConfig};
/// use messi_series::gen::{self, DatasetKind};
/// use std::sync::Arc;
///
/// let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 300, 9));
/// let (index, _) = MessiIndex::build(Arc::clone(&data), &IndexConfig::for_tests());
/// let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 4, 9);
///
/// let mut ctx = QueryContext::new();
/// let config = QueryConfig::for_tests();
/// let mut warm = None;
/// for q in queries.iter() {
///     let _ = messi_core::exact::exact_search_with(&index, q, &config, &mut ctx);
///     // After the first query the scratch is warm: later queries reuse
///     // the queue set and mindist table instead of reallocating them.
///     match warm {
///         None => warm = Some(ctx.alloc_events()),
///         Some(w) => assert_eq!(ctx.alloc_events(), w),
///     }
/// }
/// ```
#[derive(Default)]
pub struct QueryContext<'a> {
    queues: Option<QueueSet<LeafRun<'a>>>,
    barrier: Option<SenseBarrier>,
    table: Option<MindistTable>,
    /// The seed step's per-entry bounds of one home leaf.
    leaf_bounds: Vec<f32>,
    alloc_events: u64,
}

/// Entries the bounds buffer is built for: the largest leaf a default
/// build makes ([`crate::IndexConfig::leaf_capacity`]).
const LEAF_BOUNDS_HINT: usize = 2_000;

impl<'a> QueryContext<'a> {
    /// Creates an empty context. Nothing is allocated until the first
    /// query prepares it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of scratch (re)allocation events so far: building or
    /// growing the queue set, building a mindist table (and with it the
    /// seed's bounds buffer) for a new segment count, or growing that
    /// buffer for a leaf beyond the default capacity. A batch that
    /// reuses its context sees this counter stay flat after the first
    /// query — the acceptance signal for the allocation-free batch hot
    /// path.
    pub fn alloc_events(&self) -> u64 {
        self.alloc_events
    }

    /// Performs exactly the allocations (and `alloc_events` increments)
    /// this context's first query under `sax` and `config` would — table,
    /// queue set, barrier — without running one; a no-op on a context
    /// already in that shape. What executor `prewarm` does to every slot.
    pub fn shape(&mut self, sax: SaxConfig, config: &QueryConfig) {
        if self.table.as_ref().map(MindistTable::segments) != Some(sax.segments) {
            let paa = [0.0; messi_sax::MAX_SEGMENTS];
            self.fill_table(sax, TableSpec::Point(&paa[..sax.segments]));
        }
        let _ = self.scratch(Some(config));
    }

    /// The plan step's share of the scratch: refills the mindist table
    /// per `spec`. The table depends on the query alone, so one fill
    /// serves every shard a walk then searches through this context.
    pub(crate) fn fill_table(&mut self, sax: SaxConfig, spec: TableSpec<'_>) {
        match &mut self.table {
            Some(table) if table.segments() == sax.segments => match spec {
                TableSpec::Point(paa) => table.refill(paa, sax),
                TableSpec::Envelope(lower, upper) => table.refill_from_envelope(lower, upper, sax),
            },
            slot => {
                *slot = Some(match spec {
                    TableSpec::Point(paa) => MindistTable::new(paa, sax),
                    TableSpec::Envelope(lower, upper) => {
                        MindistTable::from_envelope(lower, upper, sax)
                    }
                });
                self.leaf_bounds.reserve(LEAF_BOUNDS_HINT);
                self.alloc_events += 1;
            }
        }
    }

    /// The seed step's share of the scratch: the filled table, and the
    /// lower bound of every entry of `run` under it — computed once, 8
    /// entries per kernel call, into the context's own buffer.
    pub(crate) fn run_bounds(
        &mut self,
        run: &LeafRun<'_>,
        use_simd: bool,
    ) -> (&MindistTable, &[f32]) {
        let table = self.table.as_ref().expect("fill_table runs first");
        let n = run.entries.len();
        let padded = n.next_multiple_of(8);
        self.alloc_events += u64::from(padded > self.leaf_bounds.capacity());
        self.leaf_bounds.resize(padded, 0.0);
        let (stride, base) = (run.stride as usize, run.base as usize);
        for (i, chunk) in self.leaf_bounds.chunks_exact_mut(8).enumerate() {
            let out = chunk.try_into().expect("chunks of 8");
            let len = (n - 8 * i).min(8);
            table.mindist_sq_soa(run.cols, stride, base + 8 * i, len, use_simd, out);
        }
        (table, &self.leaf_bounds[..n])
    }

    /// The table [`QueryContext::fill_table`] last filled (panics if
    /// none was) — what the seed step filters the home leaf with.
    pub(crate) fn table(&self) -> &MindistTable {
        self.table.as_ref().expect("fill_table runs first")
    }

    /// Readies the scratch for one engine run over the table filled by
    /// [`QueryContext::fill_table`]: when `queued` demands a queue phase,
    /// resets the queue set to its `num_queues` queues and re-arms the
    /// barrier. Returns borrowed views whose lifetime pins the context
    /// for the duration of the run.
    ///
    /// # Panics
    ///
    /// Panics if no table was filled.
    pub(crate) fn scratch(&mut self, queued: Option<&QueryConfig>) -> Scratch<'_, 'a> {
        if let Some(config) = queued {
            let nq = config.num_queues;
            match &mut self.queues {
                Some(queues) if queues.len() == nq => queues.reset(),
                Some(queues) => {
                    if queues.reset_to(nq) {
                        self.alloc_events += 1;
                    }
                }
                slot => {
                    *slot = Some(QueueSet::new(nq));
                    self.alloc_events += 1;
                }
            }
            match &mut self.barrier {
                Some(barrier) if barrier.parties() == config.num_workers => {}
                Some(barrier) => barrier.reset(config.num_workers),
                slot => *slot = Some(SenseBarrier::new(config.num_workers)),
            }
        }
        Scratch {
            queues: queued.and(self.queues.as_ref()),
            barrier: queued.and(self.barrier.as_ref()),
            table: self.table(),
        }
    }
}

impl std::fmt::Debug for QueryContext<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryContext")
            .field("queues", &self.queues.as_ref().map(QueueSet::len))
            .field("barrier", &self.barrier.as_ref().map(SenseBarrier::parties))
            .field("table", &self.table.as_ref().map(MindistTable::segments))
            .field("alloc_events", &self.alloc_events)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_moves_between_threads() {
        // The exec layer's SlotPool hands contexts across request
        // threads; this is the compile-time `Send` guarantee that makes
        // that handoff sound.
        fn assert_send<T: Send>() {}
        assert_send::<QueryContext<'static>>();
    }

    #[test]
    fn scratch_is_reused_across_preparations() {
        let sax = SaxConfig::new(8, 64);
        let paa = vec![0.25f32; 8];
        let config = QueryConfig {
            num_workers: 3,
            num_queues: 2,
            ..QueryConfig::for_tests()
        };
        let mut ctx = QueryContext::new();
        ctx.fill_table(sax, TableSpec::Point(&paa));
        {
            let scratch = ctx.scratch(Some(&config));
            assert_eq!(scratch.queues.unwrap().len(), 2);
            assert_eq!(scratch.barrier.unwrap().parties(), 3);
        }
        let after_first = ctx.alloc_events();
        assert!(after_first > 0);
        // Identical shape — a second query, or the next shard of the
        // same walk over the same table: zero further allocation events.
        ctx.fill_table(sax, TableSpec::Point(&paa));
        let _ = ctx.scratch(Some(&config));
        let _ = ctx.scratch(Some(&config));
        assert_eq!(ctx.alloc_events(), after_first);
        // Queue-less preparation reuses the table and ignores the queues.
        {
            let scratch = ctx.scratch(None);
            assert!(scratch.queues.is_none());
            assert!(scratch.barrier.is_none());
        }
        assert_eq!(ctx.alloc_events(), after_first);
        // Growing the queue set is an allocation event; shrinking is not.
        let grown = QueryConfig {
            num_queues: 7,
            ..config.clone()
        };
        let _ = ctx.scratch(Some(&grown));
        assert_eq!(ctx.alloc_events(), after_first + 1);
        let _ = ctx.scratch(Some(&config));
        assert_eq!(ctx.alloc_events(), after_first + 1);
    }
}
