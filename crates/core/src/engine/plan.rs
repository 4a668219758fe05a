//! The three steps every query cell spells out — **plan**, **seed**,
//! **search** — written once for all of them.
//!
//! * *Plan* ([`QueryPlan`]): what a query derives from its own values —
//!   PAA and iSAX word, under DTW also the LB_Keogh envelope and its
//!   PAAs — plus the one mindist-table fill they feed
//!   ([`QueryContext::fill_table`]). None of it depends on which index,
//!   or which shard of one, is searched.
//! * *Seed* ([`QueryPlan::seed_nearest`], [`crate::knn::seed`]): scan a
//!   shard's home leaf so its bound starts tight (Alg. 5 lines 3–6).
//! * *Search* ([`ShardRun::run`]): one engine run — tree pass + queue
//!   phase — over one shard under the cell's objective.
//!
//! A single index is one shard; [`crate::shard`] decides how many shards
//! a walk covers and on which threads.

use super::context::{QueryContext, TableSpec};
use super::driver::{self, Engine};
use super::metric::{DtwMetric, EuclideanMetric};
use super::objective::SearchObjective;
use crate::config::QueryConfig;
use crate::dtw::DtwPlan;
use crate::exec::MetricSpec;
use crate::index::MessiIndex;
use crate::stats::{LocalStats, QueryStats, SharedQueryStats};
use messi_sax::word::SaxWord;
use messi_series::distance::euclidean::ed_sq_early_abandon_with;
use messi_series::distance::Kernel;
use std::time::Instant;

/// Everything one query derives from its own values, computed once
/// however many shards it then visits.
pub(crate) struct QueryPlan<'q> {
    pub(crate) query: &'q [f32],
    pub(crate) sax: SaxWord,
    pub(crate) paa: Vec<f32>,
    /// The envelope half of the plan, under DTW.
    pub(crate) dtw: Option<DtwPlan>,
    pub(crate) kernel: Kernel,
}

impl<'q> QueryPlan<'q> {
    /// Summarizes `query` under `index`'s iSAX configuration (shared by
    /// every shard of a sharded index).
    ///
    /// # Panics
    ///
    /// Panics if the query length differs from the indexed series length.
    pub(crate) fn new(
        index: &MessiIndex,
        query: &'q [f32],
        metric: MetricSpec,
        kernel: Kernel,
    ) -> Self {
        let (sax, paa) = index.summarize_query(query);
        let dtw = match metric {
            MetricSpec::Euclidean => None,
            MetricSpec::Dtw(params) => {
                Some(DtwPlan::new(query, params, index.sax_config().segments))
            }
        };
        Self {
            query,
            sax,
            paa,
            dtw,
            kernel,
        }
    }

    /// What the mindist table is filled from.
    pub(crate) fn table_spec(&self) -> TableSpec<'_> {
        match &self.dtw {
            None => TableSpec::Point(&self.paa),
            Some(dtw) => TableSpec::Envelope(&dtw.paa_lower, &dtw.paa_upper),
        }
    }

    /// One home-leaf candidate through the seed cascade at `bound`.
    /// Euclidean: the early-abandoning kernel, uncounted (exact search
    /// reports its traversal's work, not its seed's). DTW: LB_Keogh, then
    /// banded DTW, counted in `local` like the engine's own entry
    /// cascade; `None` when LB_Keogh pruned the candidate.
    pub(crate) fn seed_distance(
        &self,
        index: &MessiIndex,
        pos: u32,
        bound: f32,
        local: &mut LocalStats,
    ) -> Option<f32> {
        let candidate = index.dataset.series(pos as usize);
        match &self.dtw {
            None => Some(ed_sq_early_abandon_with(
                self.kernel,
                self.query,
                candidate,
                bound,
            )),
            Some(dtw) => crate::dtw::cascade(
                self.kernel,
                &dtw.env,
                dtw.params,
                self.query,
                candidate,
                bound,
                local,
            ),
        }
    }

    /// The seed step of the 1-NN objectives (exact and approximate): the
    /// best `(squared distance, local position)` of `index`'s home leaf
    /// for this query — the initial BSF of Alg. 5, and the whole answer
    /// of ng-approximate search. The home-leaf walk falls back greedily
    /// when the home subtree is empty, so the seed is always a real
    /// series.
    pub(crate) fn seed_nearest(&self, index: &MessiIndex, stats: &SharedQueryStats) -> (f32, u32) {
        let mut best = (f32::INFINITY, u32::MAX);
        let mut local = LocalStats::default();
        for e in index.home_leaf_entries(&self.sax, &self.paa) {
            if let Some(d) = self.seed_distance(index, e.pos, best.0, &mut local) {
                if d < best.0 {
                    best = (d, e.pos);
                }
            }
        }
        local.flush(stats);
        best
    }
}

/// One shard's search step, everything but the objective.
pub(crate) struct ShardRun<'r, 'a> {
    pub(crate) plan: &'r QueryPlan<'r>,
    pub(crate) index: &'a MessiIndex,
    /// Global position of the shard's first series
    /// (see [`crate::shard::global_pos`]); 0 for a single index.
    pub(crate) offset: u64,
    pub(crate) config: &'r QueryConfig,
    /// Scratch whose table [`QueryContext::fill_table`] filled from
    /// `plan`.
    pub(crate) ctx: &'r mut QueryContext<'a>,
    /// The shard's counters so far (a DTW seed scan counts into them).
    pub(crate) stats: SharedQueryStats,
    /// Start of the wall-clock interval this shard's stats cover; what
    /// precedes the engine run in it is reported as the init phase.
    pub(crate) from: Instant,
}

impl ShardRun<'_, '_> {
    /// Runs the search workers (Alg. 6) over the shard under `objective`
    /// and snapshots the shard's statistics.
    pub(crate) fn run<O: SearchObjective>(&mut self, objective: &O) -> QueryStats {
        let (plan, index, config) = (self.plan, self.index, self.config);
        let scratch = self.ctx.scratch(O::USES_QUEUES.then_some(config));
        let table = scratch.table;
        let init_ns = self.from.elapsed().as_nanos() as u64;
        let engine = Engine {
            index,
            scratch,
            stats: &self.stats,
            queue_policy: config.queue_policy,
            num_workers: config.num_workers,
            collect_breakdown: config.collect_breakdown,
            coalesce: config.run_batching(),
        };
        match &plan.dtw {
            None => {
                let metric = EuclideanMetric::new(index, plan.query, &plan.paa, table, plan.kernel);
                driver::run(&engine, &metric, objective);
            }
            Some(dtw) => {
                let metric = DtwMetric::new(index, plan.query, dtw, table, plan.kernel);
                driver::run(&engine, &metric, objective);
            }
        }
        self.stats.finish(
            self.from.elapsed(),
            init_ns,
            config.num_workers as u64,
            config.collect_breakdown,
        )
    }
}
