//! The [`ShardedExecutor`]: the one pooled executor — scatter-gather
//! query answering over a [`ShardedIndex`], or over one index — and the
//! one walk every query in the repository takes through its shards.
//!
//! # Design: seed-first shard walk
//!
//! **Context.** MESSI seeds *one* BSF with the approximate search before
//! any search worker starts its tree pass (§III-C, Alg. 5 lines 3–6). A
//! scatter that seeds per shard breaks that rule: a shard that does not
//! hold the neighbour starts from its own weak seed and is rescued only
//! if another shard happens to publish a better bound in time.
//!
//! **Goals.**
//! * A query is planned once — PAA + iSAX word (DTW: envelope and its
//!   PAAs), one mindist-table fill — however many shards it visits.
//! * Every shard's home leaf is seeded before any shard's tree pass.
//! * A caller that already is one of several parallel workers (a daemon
//!   handler, an inter-query batch worker) never leaves its thread.
//! * One shard is the same code: a single index is a one-shard walk
//!   without a shared bound, byte for byte the classic search.
//!
//! **Non-goals.** A work-stealing pool; caching seeds per shard;
//! anything about the daemon's JSON decode.
//!
//! **Decisions** (each measured: 100 k series, 2 shards, 2 cores, exact
//! 1-NN of noisy dataset members).
//! * *Walking shards in id order with the shared bound is not enough.*
//!   When the neighbour lives in a later shard, the earlier ones run
//!   their whole tree pass against their own seed: 2.9 × the lower-bound
//!   calculations of one index over the same data, in-process p50
//!   228 → 913 µs. Seeding every shard first, publishing the minimum,
//!   and then searching in *ascending seed order* — the shard most
//!   likely to hold the neighbour tightens the bound for the rest —
//!   brings that to 1.35 × and the daemon's socket p50 from ~1 120 to
//!   ~345 µs (throughput 1 690 → 3 280 requests/s).
//! * *Callers that are not pool workers keep the concurrent scatter*
//!   (one pool party per shard, each seeding its own shard in parallel).
//!   For a lone caller walking inline doubled latency (1 430 → 2 764 µs
//!   on a 200 k-series base), and even seeding serially in front of the
//!   concurrent scatter cost 27 %: seeding a cold leaf is ~150 µs per
//!   shard and is better overlapped.
//! * *The choice is made from what the code can observe* —
//!   [`WorkerPool::on_worker_thread`] — not from a setting: there is no
//!   option, and no scatter reaches [`WorkerPool::run`]'s nested
//!   scoped-thread fallback (it used to, once per daemon request).
//! * *This is the only pooled executor;* [`crate::exec::QueryExecutor`]
//!   is its one-shard instance, whose every query is the inline walk.
//!   Probed before the merge (2-core Xeon, W = 2, 10 alternating
//!   rounds, against this executor over `ShardedIndex::from_single` of
//!   a saved and reloaded copy): answers and `lb`/`node_lb`/`real`
//!   counters identical at W = 1; median round p50 ED 200 k × 256
//!   82.1 → 80.9 µs, DTW 20 k 738 → 730 µs, merged faster in 7/10.

use super::ShardedIndex;
use crate::config::QueryConfig;
use crate::engine::{KnnObjective, QueryContext, QueryPlan, ShardRun, SharedBound};
use crate::exact::QueryAnswer;
use crate::exec::{Objective, QuerySpec, Schedule};
use crate::index::MessiIndex;
use crate::knn::KnnSet;
use crate::stats::{sum_breakdowns, QueryStats, QueryStatsAggregate, SharedQueryStats, StopReason};
use messi_series::Dataset;
use messi_sync::{Dispenser, SlotPool, WorkerPool};
use parking_lot::Mutex;
use std::time::{Duration, Instant};

/// One shard as a walk sees it: the index, and the global position of
/// its first series (see [`super::global_pos`]; 0 for a single index).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Shard<'a> {
    pub(crate) index: &'a MessiIndex,
    pub(crate) offset: u64,
}

/// What one shard hands back from its search step: its local answers
/// under global positions (none for k-NN — they sit in the shared set)
/// and its [`QueryStats`].
pub(crate) type ShardReturn = (Vec<QueryAnswer>, QueryStats);

/// What one shard's seed step leaves for its search step.
struct Seed {
    /// Best `(distance², local position)` of the home leaf. The distance
    /// ranks the shard in a seed-ordered walk (`+inf`: no seed).
    best: (f32, u32),
    /// The shard's counters so far (a DTW seed scan counts into them).
    stats: SharedQueryStats,
}

/// One query's plan and cross-shard state: built once, then shared by
/// the seed and search steps of every shard, on whichever threads they
/// run.
struct Scatter<'q> {
    plan: QueryPlan<'q>,
    objective: Objective,
    /// The cross-shard 1-NN/approximate BSF; `None` over a single shard,
    /// whose own BSF is the whole truth.
    bound: Option<SharedBound>,
    /// The k-NN candidate set, keyed by global positions — shared by
    /// every shard, so the k-th-best bound is collection-global.
    knn: Option<KnnSet>,
}

impl<'q> Scatter<'q> {
    /// The plan step, for a query over all of `shards` (which share one
    /// iSAX configuration).
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration or spec, or a query whose
    /// length differs from the indexed series length.
    fn new(shards: &[Shard<'_>], query: &'q [f32], spec: &QuerySpec, config: &QueryConfig) -> Self {
        config.validate();
        if let Objective::Approx { epsilon, delta } = spec.objective {
            crate::approximate::validate_params(epsilon, delta);
        }
        Self {
            plan: QueryPlan::new(shards[0].index, query, spec.metric, config.kernel),
            objective: spec.objective,
            bound: (shards.len() > 1).then(SharedBound::new),
            knn: match spec.objective {
                Objective::Knn { k } => Some(KnnSet::new(
                    k,
                    shards.iter().map(|s| s.index.num_series()).sum(),
                )),
                _ => None,
            },
        }
    }

    fn knn(&self) -> &KnnSet {
        self.knn.as_ref().expect("a k-NN scatter owns its set")
    }

    /// The seed step for one shard: 1-NN objectives scan the home leaf
    /// and publish its best distance to the cross-shard bound, k-NN
    /// offers it into the shared set, range search has nothing to seed.
    fn seed(&self, shard: Shard<'_>, ctx: &mut QueryContext<'_>) -> Seed {
        let stats = SharedQueryStats::new();
        let best = match self.objective {
            Objective::Exact | Objective::Approx { .. } => {
                let best = self.plan.seed_nearest(shard.index, ctx, &stats);
                if let Some(bound) = &self.bound {
                    bound.update_min(best.0);
                }
                best
            }
            // Counted only as seed work, under either metric. The set is
            // shared, so each home leaf is scanned against the bound the
            // leaves before it left behind; the shard ranks by the best
            // distance it offered.
            Objective::Knn { .. } => {
                let objective = KnnObjective::new(self.knn(), shard.offset);
                let scan = self.plan.seed(shard.index, ctx, &objective, false);
                stats.seed_real_calcs.add(scan.seed_real);
                (objective.best_offered(), u32::MAX)
            }
            Objective::Range { .. } => (f32::INFINITY, u32::MAX),
        };
        Seed { best, stats }
    }

    /// The search step for one shard; `from` starts the wall-clock
    /// interval its stats cover.
    fn search<'a>(
        &self,
        shard: Shard<'a>,
        seed: Seed,
        config: &QueryConfig,
        ctx: &mut QueryContext<'a>,
        from: Instant,
    ) -> ShardReturn {
        let run = ShardRun {
            plan: &self.plan,
            index: shard.index,
            offset: shard.offset,
            config,
            ctx,
            stats: seed.stats,
            from,
        };
        let shared = self.bound.as_ref();
        match self.objective {
            Objective::Exact => crate::exact::search(run, seed.best, shared),
            Objective::Knn { .. } => crate::knn::search(run, self.knn()),
            Objective::Range { epsilon_sq } => crate::range::search(run, epsilon_sq),
            Objective::Approx { epsilon, delta } => {
                crate::approximate::search(run, seed.best, epsilon, delta, shared)
            }
        }
    }

    /// Walks `shards` on the calling thread through `ctx`: fills the
    /// mindist table once, seeds *every* shard, then searches them one
    /// by one in ascending seed order, so each tree pass starts from the
    /// best bound any home leaf produced and the likeliest owner of the
    /// neighbour tightens it first for the rest. Returns `(index into
    /// shards, return)` pairs in search order.
    ///
    /// The shards' stats tile the walk's wall clock from `from`: the
    /// first shard searched accounts for the plan and all the seeding as
    /// its init phase, each later one starts where the previous ended.
    fn walk<'a>(
        &self,
        shards: &[Shard<'a>],
        config: &QueryConfig,
        ctx: &mut QueryContext<'a>,
        mut from: Instant,
    ) -> Vec<(usize, ShardReturn)> {
        ctx.fill_table(shards[0].index.sax_config(), self.plan.table_spec());
        let mut seeded: Vec<(usize, Seed)> = shards
            .iter()
            .map(|&s| self.seed(s, ctx))
            .enumerate()
            .collect();
        seeded.sort_by(|a, b| a.1.best.0.total_cmp(&b.1.best.0));
        seeded
            .into_iter()
            .map(|(i, seed)| {
                let out = self.search(shards[i], seed, config, ctx, from);
                from = Instant::now();
                (i, out)
            })
            .collect()
    }

    /// The gather step: merges the shards' returns (in any order) into
    /// the final, globally-ordered answer list and one query-level stats
    /// record. The raw per-shard stats are kept, in shard order, only
    /// when `per_shard` asks for them.
    fn gather(
        self,
        mut returns: Vec<(usize, ShardReturn)>,
        total_time: Duration,
        mut per_shard: Option<&mut Vec<QueryStats>>,
    ) -> (Vec<QueryAnswer>, QueryStats) {
        let by_dist = |a: &QueryAnswer, b: &QueryAnswer| {
            a.dist_sq.total_cmp(&b.dist_sq).then(a.pos.cmp(&b.pos))
        };
        returns.sort_by_key(|&(shard, _)| shard);
        let stats = merge_shard_stats(returns.iter().map(|(_, (_, stats))| stats), total_time);
        let mut answers = Vec::new();
        for (_, (shard_answers, shard_stats)) in returns {
            answers.extend(shard_answers);
            if let Some(kept) = per_shard.as_deref_mut() {
                kept.push(shard_stats);
            }
        }
        let answers = match self.objective {
            Objective::Knn { .. } => self.knn.expect("a k-NN scatter owns its set").into_sorted(),
            Objective::Exact | Objective::Approx { .. } => {
                let best = answers.into_iter().min_by(by_dist);
                vec![best.expect("at least one shard answers")]
            }
            Objective::Range { .. } => {
                answers.sort_by(by_dist);
                answers
            }
        };
        (answers, stats)
    }
}

/// Answers one query over `shards` on the calling thread: plan, seed
/// every shard, search in ascending seed order, gather. The only way a
/// query is answered without a pool dispatch — by the sharded executor
/// when its caller already is a pool worker, and by everything that
/// searches a single index (one shard at offset 0).
fn answer_inline<'a>(
    shards: &[Shard<'a>],
    query: &[f32],
    spec: &QuerySpec,
    config: &QueryConfig,
    ctx: &mut QueryContext<'a>,
    per_shard: Option<&mut Vec<QueryStats>>,
) -> (Vec<QueryAnswer>, QueryStats) {
    let t_start = Instant::now();
    let scatter = Scatter::new(shards, query, spec, config);
    let returns = scatter.walk(shards, config, ctx, t_start);
    scatter.gather(returns, t_start.elapsed(), per_shard)
}

/// One query against one index on the calling thread, through `ctx`:
/// the one-shard walk behind [`crate::exact::exact_search_with`] and the
/// `MessiIndex::search*` methods.
pub(crate) fn answer_solo<'a>(
    index: &'a MessiIndex,
    query: &[f32],
    spec: &QuerySpec,
    config: &QueryConfig,
    ctx: &mut QueryContext<'a>,
) -> (Vec<QueryAnswer>, QueryStats) {
    let shard = [Shard { index, offset: 0 }];
    answer_inline(&shard, query, spec, config, ctx, None)
}

/// The pooled query executor — the only one: scatter-gather over the
/// shards of a [`ShardedIndex`], or over one index as the one-shard
/// instance [`crate::exec::QueryExecutor`] wraps. It answers the full
/// [`QuerySpec`] matrix as single queries or batches under either
/// [`Schedule`], through lock-free pools of warm [`QueryContext`]s; after
/// warm-up the per-query hot path performs zero queue or mindist-table
/// allocations (debug-build batches assert it).
///
/// A caller on a plain thread ([`ShardedExecutor::run_one`], a
/// [`Schedule::IntraQuery`] batch) gets the shards *concurrently*, one
/// process-pool party each, splitting `config.num_workers` between them.
/// A caller that already is a pool worker (a daemon handler, a
/// [`Schedule::InterQuery`] batch worker) walks them *inline*, seed-first
/// (see the design note atop `shard/exec.rs`). With one shard every query
/// is the inline walk, byte for byte the classic single-index search.
#[derive(Debug)]
pub struct ShardedExecutor<'a> {
    /// The index [`ShardedExecutor::index`] reports; `None` only inside
    /// a [`crate::exec::QueryExecutor`], which never exposes it.
    index: Option<&'a ShardedIndex>,
    shards: Vec<Shard<'a>>,
    /// One warm-context pool per shard, so a concurrent scatter finds a
    /// context for every party; an inline walk serves all its shards
    /// from one context of the first pool.
    contexts: Vec<SlotPool<QueryContext<'a>>>,
}

impl<'a> ShardedExecutor<'a> {
    /// Creates an executor whose per-shard context pools match the
    /// process worker pool (2 × cores each).
    pub fn new(index: &'a ShardedIndex) -> Self {
        Self::with_capacity(index, 2 * crate::config::available_cores())
    }

    /// Creates an executor holding at most `capacity` warm contexts per
    /// shard.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn with_capacity(index: &'a ShardedIndex, capacity: usize) -> Self {
        let shards = (0..index.num_shards())
            .map(|i| Shard {
                index: index.shard(i),
                offset: index.shard_offset(i),
            })
            .collect();
        Self {
            index: Some(index),
            ..Self::over(shards, capacity)
        }
    }

    /// An executor over `shards` with `capacity` warm contexts per shard;
    /// `[Shard { index, offset: 0 }]` is the one-shard executor of a
    /// single index.
    pub(crate) fn over(shards: Vec<Shard<'a>>, capacity: usize) -> Self {
        Self {
            index: None,
            contexts: shards.iter().map(|_| SlotPool::new(capacity)).collect(),
            shards,
        }
    }

    /// The sharded index this executor serves.
    pub fn index(&self) -> &'a ShardedIndex {
        self.index
            .expect("a public ShardedExecutor is built over a ShardedIndex")
    }

    /// Number of currently parked warm contexts across all shard pools.
    pub fn warm_contexts(&self) -> usize {
        self.contexts.iter().map(SlotPool::parked).sum()
    }

    /// Sum of [`QueryContext::alloc_events`] over the parked contexts of
    /// every pool — the observable behind the zero-allocation-after-
    /// warm-up tests (exclusive access, so no checkout races the count).
    pub fn warm_alloc_events(&mut self) -> u64 {
        self.contexts
            .iter_mut()
            .flat_map(SlotPool::iter_mut)
            .map(|c| c.alloc_events())
            .sum()
    }

    /// Answers one query over every shard: exact 1-NN and approximate
    /// return exactly one answer; k-NN up to `k`, ascending; range every
    /// match, ascending. Positions are global.
    ///
    /// # Panics
    ///
    /// Panics if the query length mismatches the index, the configuration
    /// is invalid, `k == 0`, or `epsilon_sq` is negative or NaN.
    pub fn run_one(
        &self,
        query: &[f32],
        spec: &QuerySpec,
        config: &QueryConfig,
    ) -> (Vec<QueryAnswer>, QueryStats) {
        let (answers, stats, _) = self.answer(query, spec, config, None);
        (answers, stats)
    }

    /// As [`ShardedExecutor::run_one`], additionally reporting the
    /// summed context allocation-event delta (the zero-alloc-after-
    /// warm-up observable) and the raw per-shard [`QueryStats`] — the
    /// serve daemon feeds the latter into its per-shard Prometheus
    /// counter families. Only this variant materialises them.
    pub fn run_one_traced(
        &self,
        query: &[f32],
        spec: &QuerySpec,
        config: &QueryConfig,
    ) -> (Vec<QueryAnswer>, QueryStats, u64, Vec<QueryStats>) {
        let mut per_shard = Vec::new();
        let (answers, stats, alloc_delta) = self.answer(query, spec, config, Some(&mut per_shard));
        (answers, stats, alloc_delta, per_shard)
    }

    /// Behind every single query: the inline walk when there is one
    /// shard or the caller already is a pool worker, else the concurrent
    /// scatter. Also returns the allocation-event delta.
    pub(crate) fn answer(
        &self,
        query: &[f32],
        spec: &QuerySpec,
        config: &QueryConfig,
        per_shard: Option<&mut Vec<QueryStats>>,
    ) -> (Vec<QueryAnswer>, QueryStats, u64) {
        if self.walks_inline() {
            let mut ctx = self.contexts[0].checkout().unwrap_or_default();
            let before = ctx.alloc_events();
            let (answers, stats) =
                answer_inline(&self.shards, query, spec, config, &mut ctx, per_shard);
            let delta = ctx.alloc_events().saturating_sub(before);
            self.contexts[0].checkin(ctx);
            return (answers, stats, delta);
        }
        let n = self.shards.len();
        let t_start = Instant::now();
        let scatter = Scatter::new(&self.shards, query, spec, config);
        // Split the worker complement between the concurrent shards.
        let shard_config = QueryConfig {
            num_workers: (config.num_workers / n).max(1),
            ..config.clone()
        };
        let slots: Vec<Mutex<Option<(ShardReturn, u64)>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        // One pool party per shard, each a one-shard walk over the
        // shared plan; its engine either runs inline (one worker) or
        // forks scoped threads for its share.
        WorkerPool::global().run(n, &|id| {
            let mut ctx = self.contexts[id].checkout().unwrap_or_default();
            let before = ctx.alloc_events();
            let (_, out) = scatter
                .walk(&self.shards[id..=id], &shard_config, &mut ctx, t_start)
                .pop()
                .expect("one shard walked");
            let delta = ctx.alloc_events().saturating_sub(before);
            self.contexts[id].checkin(ctx);
            *slots[id].lock() = Some((out, delta));
        });

        let mut alloc_delta = 0u64;
        let returns = slots
            .into_iter()
            .enumerate()
            .map(|(id, slot)| {
                let (out, delta) = slot.into_inner().expect("every shard answered");
                alloc_delta += delta;
                (id, out)
            })
            .collect();
        let (answers, stats) = scatter.gather(returns, t_start.elapsed(), per_shard);
        (answers, stats, alloc_delta)
    }

    /// Whether a query from this thread walks the shards inline.
    fn walks_inline(&self) -> bool {
        self.shards.len() == 1 || WorkerPool::on_worker_thread()
    }

    /// Answers a whole batch of queries under `schedule`.
    ///
    /// Returns one answer list per query, in query order, plus the
    /// aggregate statistics (including the summed Fig. 13 breakdown when
    /// `config.collect_breakdown` is set).
    ///
    /// Under [`Schedule::IntraQuery`] each query uses the full worker
    /// complement of `config`; under [`Schedule::InterQuery`] the queries
    /// are dispensed across `parallelism` pool workers and
    /// `config.num_workers`/`num_queues` are ignored (each query runs
    /// with one worker and one queue per shard).
    ///
    /// # Panics
    ///
    /// As [`ShardedExecutor::run_one`]; additionally if an inter-query
    /// schedule's `parallelism` is zero.
    pub fn run_batch(
        &self,
        queries: &Dataset,
        spec: &QuerySpec,
        schedule: Schedule,
        config: &QueryConfig,
    ) -> (Vec<Vec<QueryAnswer>>, QueryStatsAggregate) {
        let mut answers = Vec::with_capacity(queries.len());
        match schedule {
            Schedule::IntraQuery if self.walks_inline() => {
                let mut next = 0..queries.len();
                let push = |_, ans| answers.push(ans);
                let agg = self.walk_batch(queries, spec, config, || next.next(), push);
                (answers, agg)
            }
            Schedule::IntraQuery => {
                // A scatter per query: no context is held to check.
                let mut agg = QueryStatsAggregate::default();
                for q in queries.iter() {
                    let (ans, stats, _) = self.answer(q, spec, config, None);
                    agg.add(&stats);
                    answers.push(ans);
                }
                (answers, agg)
            }
            Schedule::InterQuery { parallelism } => {
                assert!(parallelism > 0, "parallelism must be positive");
                let per_query = QueryConfig {
                    num_workers: 1,
                    num_queues: 1,
                    ..config.clone()
                };
                let dispenser = Dispenser::new(queries.len());
                let slots: Vec<Mutex<Option<Vec<QueryAnswer>>>> =
                    (0..queries.len()).map(|_| Mutex::new(None)).collect();
                let agg = Mutex::new(QueryStatsAggregate::default());
                WorkerPool::global().run(parallelism.min(queries.len().max(1)), &|_pid| {
                    let store = |qi: usize, ans| *slots[qi].lock() = Some(ans);
                    let local =
                        self.walk_batch(queries, spec, &per_query, || dispenser.next(), store);
                    agg.lock().merge(&local);
                });
                answers.extend(slots.into_iter().map(|s| s.into_inner().expect("answered")));
                (answers, agg.into_inner())
            }
        }
    }

    /// One batch worker's run: answers each query `next` hands out by an
    /// inline walk through one context of the first pool, held
    /// throughout, and passes its answers to `emit`.
    fn walk_batch(
        &self,
        queries: &Dataset,
        spec: &QuerySpec,
        config: &QueryConfig,
        mut next: impl FnMut() -> Option<usize>,
        mut emit: impl FnMut(usize, Vec<QueryAnswer>),
    ) -> QueryStatsAggregate {
        let mut agg = QueryStatsAggregate::default();
        let mut ctx = self.contexts[0].checkout().unwrap_or_default();
        let mut warm = WarmupCheck::default();
        while let Some(qi) = next() {
            let query = queries.series(qi);
            let (ans, stats) = answer_inline(&self.shards, query, spec, config, &mut ctx, None);
            warm.observe(ctx.alloc_events());
            agg.add(&stats);
            emit(qi, ans);
        }
        self.contexts[0].checkin(ctx);
        agg
    }

    /// Warms every slot of every shard pool: each slot is *shaped*
    /// ([`QueryContext::shape`] — the allocations its first query under
    /// `config` would make, made without running it), then `query` is
    /// answered once per pool against the owning shard, so the index
    /// pages a first query walks are resident. Every slot then answers
    /// with an `alloc_events` delta of 0 from its first query on. The
    /// serve daemon calls this at boot, and the live index on every
    /// republish.
    pub fn prewarm(&self, query: &[f32], spec: &QuerySpec, config: &QueryConfig) {
        for (pool, shard) in self.contexts.iter().zip(&self.shards) {
            let mut held: Vec<QueryContext<'a>> = (0..pool.capacity())
                .map(|_| pool.checkout().unwrap_or_default())
                .collect();
            for ctx in &mut held {
                ctx.shape(shard.index.sax_config(), config);
            }
            let one = std::slice::from_ref(shard);
            let _ = answer_inline(one, query, spec, config, &mut held[0], None);
            for ctx in held {
                pool.checkin(ctx);
            }
        }
    }
}

/// Debug-build guard for the pooled zero-allocation invariant: the first
/// query of a batch worker's run may (re)build scratch; after every later
/// one, the allocation counter of the contexts it holds must not move.
#[derive(Default)]
struct WarmupCheck(Option<u64>);

impl WarmupCheck {
    #[inline]
    fn observe(&mut self, alloc_events: u64) {
        let warm = *self.0.get_or_insert(alloc_events);
        debug_assert_eq!(
            alloc_events, warm,
            "scratch allocation after pooled warm-up"
        );
    }
}

/// Folds per-shard [`QueryStats`] into one query-level record: counters
/// sum, `total_time` is the walk's wall clock, the initial BSF is the
/// tightest seed any shard produced, breakdowns sum component-wise, and
/// the stop reason merges pessimistically (any shard budget-exhausted ⇒
/// budget-exhausted; all home-leaf-only ⇒ home-leaf-only; else
/// completed). Every query goes through here, a single index's too; the
/// exhaustive destructuring makes a field added later a compile error
/// until it is merged.
fn merge_shard_stats<'s>(
    per_shard: impl IntoIterator<Item = &'s QueryStats>,
    total_time: Duration,
) -> QueryStats {
    let mut out = QueryStats {
        total_time,
        ..QueryStats::default()
    };
    let mut initial = f32::INFINITY;
    for &QueryStats {
        lb_distance_calcs,
        node_lb_calcs,
        arenas_descended,
        real_distance_calcs,
        seed_real_calcs,
        bsf_updates,
        nodes_inserted,
        nodes_popped,
        nodes_filtered_on_pop,
        total_time: _,
        initial_bsf_dist_sq,
        approx_inflation_prunes,
        stop_reason,
        breakdown,
    } in per_shard
    {
        out.lb_distance_calcs += lb_distance_calcs;
        out.node_lb_calcs += node_lb_calcs;
        out.arenas_descended += arenas_descended;
        out.real_distance_calcs += real_distance_calcs;
        out.seed_real_calcs += seed_real_calcs;
        out.bsf_updates += bsf_updates;
        out.nodes_inserted += nodes_inserted;
        out.nodes_popped += nodes_popped;
        out.nodes_filtered_on_pop += nodes_filtered_on_pop;
        out.approx_inflation_prunes += approx_inflation_prunes;
        initial = initial.min(initial_bsf_dist_sq);
        out.breakdown = sum_breakdowns(out.breakdown, breakdown);
        out.stop_reason = merge_stop(out.stop_reason, stop_reason);
    }
    if initial.is_finite() {
        out.initial_bsf_dist_sq = initial;
    }
    out
}

fn merge_stop(a: Option<StopReason>, b: Option<StopReason>) -> Option<StopReason> {
    match (a, b) {
        (None, x) | (x, None) => x,
        (Some(StopReason::BudgetExhausted), _) | (_, Some(StopReason::BudgetExhausted)) => {
            Some(StopReason::BudgetExhausted)
        }
        (Some(StopReason::HomeLeafOnly), Some(StopReason::HomeLeafOnly)) => {
            Some(StopReason::HomeLeafOnly)
        }
        _ => Some(StopReason::Completed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IndexConfig;
    use messi_series::gen::{self, DatasetKind};
    use std::sync::Arc;
    use std::time::Duration;

    fn stats_with(real: u64, initial: f32, stop: Option<StopReason>) -> QueryStats {
        QueryStats {
            real_distance_calcs: real,
            initial_bsf_dist_sq: initial,
            stop_reason: stop,
            ..QueryStats::default()
        }
    }

    #[test]
    fn merged_stats_sum_counters_and_take_tightest_seed() {
        let merged = merge_shard_stats(
            &[
                stats_with(10, 4.0, None),
                stats_with(7, 2.5, None),
                stats_with(0, 9.0, None),
            ],
            Duration::from_millis(3),
        );
        assert_eq!(merged.real_distance_calcs, 17);
        assert_eq!(merged.initial_bsf_dist_sq, 2.5);
        assert_eq!(merged.total_time, Duration::from_millis(3));
        assert_eq!(merged.stop_reason, None);
    }

    #[test]
    fn one_shard_merges_to_itself_field_for_field() {
        let shard = QueryStats {
            lb_distance_calcs: 1,
            node_lb_calcs: 2,
            arenas_descended: 3,
            real_distance_calcs: 4,
            seed_real_calcs: 5,
            bsf_updates: 6,
            nodes_inserted: 7,
            nodes_popped: 8,
            nodes_filtered_on_pop: 9,
            total_time: Duration::from_millis(10),
            initial_bsf_dist_sq: 11.5,
            approx_inflation_prunes: 12,
            stop_reason: Some(StopReason::BudgetExhausted),
            breakdown: Some(crate::stats::TimeBreakdown {
                init_ns: 13,
                tree_pass_ns: 14,
                pq_insert_ns: 15,
                pq_remove_ns: 16,
                dist_calc_ns: 17,
            }),
        };
        let walk = Duration::from_millis(18);
        // Everything is the shard's own, except the clock: the walk's.
        assert_eq!(
            merge_shard_stats([&shard], walk),
            QueryStats {
                total_time: walk,
                ..shard
            }
        );
    }

    #[test]
    fn stop_reasons_merge_pessimistically() {
        use StopReason::*;
        let m = |reasons: &[StopReason]| {
            merge_shard_stats(
                &reasons
                    .iter()
                    .map(|&r| stats_with(0, 1.0, Some(r)))
                    .collect::<Vec<_>>(),
                Duration::ZERO,
            )
            .stop_reason
        };
        assert_eq!(m(&[Completed, Completed]), Some(Completed));
        assert_eq!(m(&[Completed, BudgetExhausted]), Some(BudgetExhausted));
        assert_eq!(m(&[HomeLeafOnly, HomeLeafOnly]), Some(HomeLeafOnly));
        assert_eq!(m(&[HomeLeafOnly, Completed]), Some(Completed));
    }

    #[test]
    fn sharded_exact_matches_brute_force_with_global_positions() {
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 500, 42));
        let (sharded, _) = ShardedIndex::build(Arc::clone(&data), 3, &IndexConfig::for_tests());
        let exec = sharded.executor();
        let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 5, 42);
        let config = QueryConfig::for_tests();
        for q in queries.iter() {
            let (ans, stats) = exec.run_one(q, &QuerySpec::exact(), &config);
            let (bf_pos, bf_dist) = data.nearest_neighbor_brute_force(q);
            assert_eq!(ans.len(), 1);
            assert!(
                (ans[0].dist_sq - bf_dist).abs() <= 1e-3 * bf_dist.max(1.0),
                "{} vs {bf_dist}",
                ans[0].dist_sq
            );
            if ans[0].pos != bf_pos as u64 {
                let d =
                    messi_series::distance::euclidean::ed_sq(q, data.series(ans[0].pos as usize));
                assert!(
                    (d - bf_dist).abs() <= 1e-3 * bf_dist.max(1.0),
                    "non-tie mismatch"
                );
            }
            assert!(stats.lb_distance_calcs > 0);
            assert!(stats.total_time.as_nanos() > 0);
        }
    }

    #[test]
    fn sharded_knn_positions_are_global_and_deduplicated() {
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 400, 51));
        let (sharded, _) = ShardedIndex::build(Arc::clone(&data), 4, &IndexConfig::for_tests());
        let exec = sharded.executor();
        let q = data.series(317).to_vec(); // lives in a late shard
        let (ans, _) = exec.run_one(&q, &QuerySpec::knn(5), &QueryConfig::for_tests());
        assert_eq!(ans.len(), 5);
        assert_eq!(
            ans[0].pos, 317,
            "member query's nearest is itself, globally"
        );
        assert_eq!(ans[0].dist_sq, 0.0);
        let mut positions: Vec<u64> = ans.iter().map(|a| a.pos).collect();
        positions.sort_unstable();
        positions.dedup();
        assert_eq!(positions.len(), 5, "global positions must not collide");
    }

    #[test]
    fn both_schedules_agree_on_a_sharded_index() {
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 300, 63));
        let (sharded, _) = ShardedIndex::build(Arc::clone(&data), 2, &IndexConfig::for_tests());
        let exec = sharded.executor();
        let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 4, 63);
        let config = QueryConfig::for_tests();
        let (_, nn) = data.nearest_neighbor_brute_force(queries.series(0));
        for spec in [
            QuerySpec::exact(),
            QuerySpec::knn(3),
            QuerySpec::range(nn * 2.0),
            QuerySpec::approximate(0.0, 1.0),
        ] {
            let (intra, agg_a) = exec.run_batch(&queries, &spec, Schedule::IntraQuery, &config);
            let (inter, agg_b) = exec.run_batch(
                &queries,
                &spec,
                Schedule::InterQuery { parallelism: 3 },
                &config,
            );
            assert_eq!(agg_a.queries, queries.len() as u64);
            assert_eq!(agg_b.queries, queries.len() as u64);
            for (qi, (a, b)) in intra.iter().zip(&inter).enumerate() {
                assert_eq!(a.len(), b.len(), "{spec:?} query {qi}");
                for (x, y) in a.iter().zip(b) {
                    assert_eq!(
                        x.dist_sq.to_bits(),
                        y.dist_sq.to_bits(),
                        "{spec:?} query {qi}: schedules must agree bit-for-bit"
                    );
                }
            }
        }
    }
}
