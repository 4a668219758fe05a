//! Build and query statistics.
//!
//! Two of the paper's evaluation figures are *about* these numbers:
//! Fig. 13 breaks a query's wall time into initialization, tree pass,
//! queue insertion, queue removal, and distance calculation; Fig. 17
//! counts lower-bound and real distance calculations per algorithm. The
//! structures here are shared by MESSI and the baseline implementations
//! so the harness reports them uniformly.

use messi_sync::Counter;
use std::time::Duration;

/// Statistics of one index construction.
#[derive(Debug, Clone, PartialEq)]
pub struct BuildStats {
    /// Wall time of the iSAX summarization phase (Alg. 3).
    pub summarize_time: Duration,
    /// Wall time of the tree-construction phase (Alg. 4).
    pub tree_time: Duration,
    /// Total wall time (summarize + barrier + tree).
    pub total_time: Duration,
    /// Series indexed.
    pub num_series: usize,
    /// Leaves in the finished tree.
    pub num_leaves: usize,
    /// Non-empty root subtrees.
    pub num_root_subtrees: usize,
    /// Height of the tallest root subtree.
    pub max_height: usize,
}

/// Per-phase wall-time breakdown of a query (Fig. 13's stacked bars).
///
/// Components are summed across workers and then divided by the worker
/// count, approximating per-phase elapsed time the way the paper reports
/// it (the phases of different workers overlap almost perfectly thanks to
/// the barrier and the balanced queues).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimeBreakdown {
    /// Approximate search + query summarization + queue setup (single
    /// threaded), in nanoseconds.
    pub init_ns: u64,
    /// Index tree traversal (Alg. 7), averaged over workers.
    pub tree_pass_ns: u64,
    /// Priority-queue insertions, averaged over workers.
    pub pq_insert_ns: u64,
    /// Priority-queue removals, averaged over workers.
    pub pq_remove_ns: u64,
    /// Lower-bound + real distance calculations on leaf entries,
    /// averaged over workers.
    pub dist_calc_ns: u64,
}

impl TimeBreakdown {
    /// Total of all components.
    pub fn total_ns(&self) -> u64 {
        self.init_ns + self.tree_pass_ns + self.pq_insert_ns + self.pq_remove_ns + self.dist_calc_ns
    }

    /// Component-wise division, for turning a batch sum into a per-query
    /// mean.
    pub fn div(&self, n: u64) -> Self {
        let n = n.max(1);
        Self {
            init_ns: self.init_ns / n,
            tree_pass_ns: self.tree_pass_ns / n,
            pq_insert_ns: self.pq_insert_ns / n,
            pq_remove_ns: self.pq_remove_ns / n,
            dist_calc_ns: self.dist_calc_ns / n,
        }
    }
}

impl std::ops::Add for TimeBreakdown {
    type Output = Self;

    /// Component-wise sum — how batch aggregation folds per-query
    /// breakdowns.
    fn add(self, other: Self) -> Self {
        Self {
            init_ns: self.init_ns + other.init_ns,
            tree_pass_ns: self.tree_pass_ns + other.tree_pass_ns,
            pq_insert_ns: self.pq_insert_ns + other.pq_insert_ns,
            pq_remove_ns: self.pq_remove_ns + other.pq_remove_ns,
            dist_calc_ns: self.dist_calc_ns + other.dist_calc_ns,
        }
    }
}

/// How an *approximate* search stopped (exact objectives never stop
/// early, so their [`QueryStats::stop_reason`] is `None`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// ng-approximate (δ = 0): only the query's home leaf was visited —
    /// the tree pass never ran.
    HomeLeafOnly,
    /// The queue phase drained naturally: every leaf that survived the
    /// (possibly ε-inflated) bound was scanned. When δ = 1 this is the
    /// only possible outcome, and the `(1+ε)` guarantee is deterministic.
    Completed,
    /// The δ-derived leaf-visit budget ran out before the queues drained;
    /// the best-so-far at that moment is the answer.
    BudgetExhausted,
}

/// Statistics of one search query.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryStats {
    /// Lower-bound (mindist) distance calculations performed, counting
    /// both node mindists during traversal and per-entry mindists during
    /// queue processing (Fig. 17a).
    pub lb_distance_calcs: u64,
    /// The node-level share of `lb_distance_calcs` (arena roots included).
    pub node_lb_calcs: u64,
    /// Arenas whose root survived its bound and were dereferenced.
    pub arenas_descended: u64,
    /// Real (Euclidean or DTW) distance calculations performed (Fig. 17b).
    pub real_distance_calcs: u64,
    /// Real distance calculations of the seed step's home-leaf scan — its
    /// own count: a Euclidean seed is in no other counter.
    pub seed_real_calcs: u64,
    /// Times the shared BSF was improved (§III-B reports 10–12 per query).
    pub bsf_updates: u64,
    /// Leaf nodes inserted into priority queues.
    pub nodes_inserted: u64,
    /// Entries popped from priority queues.
    pub nodes_popped: u64,
    /// Popped entries discarded by the second filtering (bound ≥ BSF).
    pub nodes_filtered_on_pop: u64,
    /// Wall time of the whole query.
    pub total_time: Duration,
    /// The initial BSF (squared) produced by the approximate search —
    /// §III-B observes it is "very close to its final value". Zero when
    /// the algorithm has no approximate-search stage.
    pub initial_bsf_dist_sq: f32,
    /// Lower-bound prunes (tree nodes and popped queue entries) that only
    /// the ε-inflated approximate bound allowed — the raw BSF would have
    /// kept them. Always 0 for exact objectives and at ε = 0.
    pub approx_inflation_prunes: u64,
    /// How an approximate search stopped; `None` for exact objectives.
    pub stop_reason: Option<StopReason>,
    /// Optional per-phase breakdown (collected when
    /// `QueryConfig::collect_breakdown` is set).
    pub breakdown: Option<TimeBreakdown>,
}

impl QueryStats {
    /// Ratio `final BSF / initial BSF` in *distance* (not squared) terms —
    /// 1.0 means the approximate search already found the answer.
    pub fn approx_quality(&self, final_dist_sq: f32) -> f32 {
        if self.initial_bsf_dist_sq <= 0.0 {
            return 1.0;
        }
        (final_dist_sq / self.initial_bsf_dist_sq).sqrt()
    }
}

/// Per-worker counter block, accumulated in plain registers inside the
/// hot loops and flushed into the shared atomics once per worker.
///
/// Incrementing shared atomics per *event* would bounce their cache line
/// between all Ns search workers and serialize the distance loops — the
/// counters exist to measure pruning (Fig. 17), not to throttle it.
#[derive(Debug, Default, Clone, Copy)]
pub struct LocalStats {
    /// Lower-bound distance calculations.
    pub lb: u64,
    /// Of `lb`, those computed for tree nodes.
    pub node_lb: u64,
    /// Arenas descended past their root.
    pub arenas_descended: u64,
    /// Real distance calculations.
    pub real: u64,
    /// Real distance calculations of a seed scan.
    pub seed_real: u64,
    /// Successful BSF improvements.
    pub bsf_updates: u64,
    /// Leaf nodes inserted into priority queues.
    pub inserted: u64,
    /// Entries popped from priority queues.
    pub popped: u64,
    /// Popped entries discarded by the second filtering.
    pub filtered: u64,
}

impl LocalStats {
    /// Adds this worker's counts into the shared accumulator.
    pub fn flush(&self, stats: &SharedQueryStats) {
        stats.lb_distance_calcs.add(self.lb);
        stats.node_lb_calcs.add(self.node_lb);
        stats.arenas_descended.add(self.arenas_descended);
        stats.real_distance_calcs.add(self.real);
        stats.seed_real_calcs.add(self.seed_real);
        stats.bsf_updates.add(self.bsf_updates);
        stats.nodes_inserted.add(self.inserted);
        stats.nodes_popped.add(self.popped);
        stats.nodes_filtered_on_pop.add(self.filtered);
    }
}

/// Thread-safe accumulator behind [`QueryStats`], shared by the search
/// workers of one query.
#[derive(Debug, Default)]
pub struct SharedQueryStats {
    /// See [`QueryStats::lb_distance_calcs`].
    pub lb_distance_calcs: Counter,
    /// See [`QueryStats::node_lb_calcs`].
    pub node_lb_calcs: Counter,
    /// See [`QueryStats::arenas_descended`].
    pub arenas_descended: Counter,
    /// See [`QueryStats::real_distance_calcs`].
    pub real_distance_calcs: Counter,
    /// See [`QueryStats::seed_real_calcs`].
    pub seed_real_calcs: Counter,
    /// See [`QueryStats::bsf_updates`].
    pub bsf_updates: Counter,
    /// See [`QueryStats::nodes_inserted`].
    pub nodes_inserted: Counter,
    /// See [`QueryStats::nodes_popped`].
    pub nodes_popped: Counter,
    /// See [`QueryStats::nodes_filtered_on_pop`].
    pub nodes_filtered_on_pop: Counter,
    /// Per-worker accumulated phase times (ns).
    pub tree_pass_ns: Counter,
    /// See [`TimeBreakdown::pq_insert_ns`].
    pub pq_insert_ns: Counter,
    /// See [`TimeBreakdown::pq_remove_ns`].
    pub pq_remove_ns: Counter,
    /// See [`TimeBreakdown::dist_calc_ns`].
    pub dist_calc_ns: Counter,
}

impl SharedQueryStats {
    /// Creates a zeroed accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshots into a [`QueryStats`], averaging the per-worker phase
    /// times over `workers` when `with_breakdown` is set.
    pub fn finish(
        &self,
        total_time: Duration,
        init_ns: u64,
        workers: u64,
        with_breakdown: bool,
    ) -> QueryStats {
        QueryStats {
            lb_distance_calcs: self.lb_distance_calcs.get(),
            node_lb_calcs: self.node_lb_calcs.get(),
            arenas_descended: self.arenas_descended.get(),
            real_distance_calcs: self.real_distance_calcs.get(),
            seed_real_calcs: self.seed_real_calcs.get(),
            bsf_updates: self.bsf_updates.get(),
            nodes_inserted: self.nodes_inserted.get(),
            nodes_popped: self.nodes_popped.get(),
            nodes_filtered_on_pop: self.nodes_filtered_on_pop.get(),
            total_time,
            initial_bsf_dist_sq: 0.0,
            approx_inflation_prunes: 0,
            stop_reason: None,
            breakdown: with_breakdown.then(|| TimeBreakdown {
                init_ns,
                tree_pass_ns: self.tree_pass_ns.get() / workers.max(1),
                pq_insert_ns: self.pq_insert_ns.get() / workers.max(1),
                pq_remove_ns: self.pq_remove_ns.get() / workers.max(1),
                dist_calc_ns: self.dist_calc_ns.get() / workers.max(1),
            }),
        }
    }
}

/// Accumulates [`QueryStats`] over a batch of queries (the paper reports
/// averages over 100 queries).
#[derive(Debug, Clone, Default)]
pub struct QueryStatsAggregate {
    /// Number of queries aggregated.
    pub queries: u64,
    /// Sum of lower-bound distance calculations.
    pub lb_distance_calcs: u64,
    /// Sum of the node-level lower-bound calculations among them.
    pub node_lb_calcs: u64,
    /// Sum of arenas descended past their root.
    pub arenas_descended: u64,
    /// Sum of real distance calculations.
    pub real_distance_calcs: u64,
    /// Sum of the seed scans' real distance calculations.
    pub seed_real_calcs: u64,
    /// Sum of BSF updates.
    pub bsf_updates: u64,
    /// Sum of ε-inflation prunes over the batch (approximate queries).
    pub approx_inflation_prunes: u64,
    /// Queries that stopped early on the δ budget
    /// ([`StopReason::BudgetExhausted`]).
    pub budget_stops: u64,
    /// Sum of query wall times.
    pub total_time: Duration,
    /// Component-wise sum of the per-query Fig. 13 breakdowns; present
    /// when at least one aggregated query collected one (i.e. ran with
    /// `QueryConfig::collect_breakdown`).
    pub breakdown: Option<TimeBreakdown>,
    /// Per-query wall times in microseconds, bucketed — what the latency
    /// percentiles are computed from, in constant memory however long
    /// the aggregate lives.
    pub latency_us: LatencyHistogram,
}

impl QueryStatsAggregate {
    /// Folds one query's stats into the aggregate: plain adds, no
    /// allocation (the serve daemon does this under a lock, per query).
    pub fn add(&mut self, s: &QueryStats) {
        self.queries += 1;
        self.lb_distance_calcs += s.lb_distance_calcs;
        self.node_lb_calcs += s.node_lb_calcs;
        self.arenas_descended += s.arenas_descended;
        self.real_distance_calcs += s.real_distance_calcs;
        self.seed_real_calcs += s.seed_real_calcs;
        self.bsf_updates += s.bsf_updates;
        self.approx_inflation_prunes += s.approx_inflation_prunes;
        self.budget_stops += (s.stop_reason == Some(StopReason::BudgetExhausted)) as u64;
        self.total_time += s.total_time;
        self.breakdown = sum_breakdowns(self.breakdown, s.breakdown);
        self.latency_us
            .record(s.total_time.as_micros().min(u128::from(u32::MAX)) as u32);
    }

    /// Folds another aggregate into this one (e.g. a worker's local
    /// aggregate into the batch total). The exhaustive destructuring
    /// makes a field added later a compile error here until it is
    /// combined — batch paths must not merge field-by-field inline.
    pub fn merge(&mut self, other: &Self) {
        let Self {
            queries,
            lb_distance_calcs,
            node_lb_calcs,
            arenas_descended,
            real_distance_calcs,
            seed_real_calcs,
            bsf_updates,
            approx_inflation_prunes,
            budget_stops,
            total_time,
            breakdown,
            latency_us,
        } = other;
        self.queries += queries;
        self.lb_distance_calcs += lb_distance_calcs;
        self.node_lb_calcs += node_lb_calcs;
        self.arenas_descended += arenas_descended;
        self.real_distance_calcs += real_distance_calcs;
        self.seed_real_calcs += seed_real_calcs;
        self.bsf_updates += bsf_updates;
        self.approx_inflation_prunes += approx_inflation_prunes;
        self.budget_stops += budget_stops;
        self.total_time += *total_time;
        self.breakdown = sum_breakdowns(self.breakdown, *breakdown);
        self.latency_us.merge(latency_us);
    }

    /// Mean query time.
    pub fn mean_time(&self) -> Duration {
        if self.queries == 0 {
            Duration::ZERO
        } else {
            self.total_time / self.queries as u32
        }
    }

    /// Mean lower-bound calculations per query.
    pub fn mean_lb_calcs(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.lb_distance_calcs as f64 / self.queries as f64
        }
    }

    /// Mean real-distance calculations per query.
    pub fn mean_real_calcs(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.real_distance_calcs as f64 / self.queries as f64
        }
    }

    /// Mean per-query Fig. 13 breakdown, when any query collected one.
    pub fn mean_breakdown(&self) -> Option<TimeBreakdown> {
        self.breakdown.map(|b| b.div(self.queries))
    }

    /// Nearest-rank latency percentile over the recorded per-query wall
    /// times, in microseconds (`p` in 0..=100); `None` before any query
    /// is aggregated. See [`LatencyHistogram::percentile`] for the
    /// resolution; `p = 100` is the exact maximum.
    pub fn latency_percentile_us(&self, p: f64) -> Option<u32> {
        self.latency_us.percentile(p)
    }
}

/// Component-wise sum of two optional breakdowns (absent = not
/// collected, not zero).
pub(crate) fn sum_breakdowns(
    a: Option<TimeBreakdown>,
    b: Option<TimeBreakdown>,
) -> Option<TimeBreakdown> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a + b),
        (a, b) => a.or(b),
    }
}

/// A fixed-size latency histogram over the whole `u32` microsecond
/// range: values below 64 µs have a bucket each, above that every
/// power-of-two octave splits into 32 equal buckets, so a bucket is never
/// wider than 1/32 (3.1 %) of the values it holds. Recording is two
/// adds, merging is an element-wise add, and the memory is the same
/// after a week of uptime as after one query.
#[derive(Clone)]
pub struct LatencyHistogram {
    counts: [u64; Self::BUCKETS],
    total: u64,
    max_us: u32,
}

impl LatencyHistogram {
    /// Sub-buckets per octave, as a power of two.
    const SUB_BITS: u32 = 5;
    /// One row of `2^SUB_BITS` buckets per shift `0..=31 - SUB_BITS`,
    /// plus the first row's linear lower half.
    const BUCKETS: usize = ((32 - Self::SUB_BITS + 1) << Self::SUB_BITS) as usize;

    /// The bucket holding `us`: its row is the bit shift that brings
    /// `us` under `2^(SUB_BITS + 1)`, its column the shifted value.
    #[inline]
    fn locate(us: u32) -> usize {
        let top = 31 - (us | 1).leading_zeros();
        let shift = top.saturating_sub(Self::SUB_BITS);
        ((shift << Self::SUB_BITS) + (us >> shift)) as usize
    }

    /// Records one latency.
    #[inline]
    pub fn record(&mut self, us: u32) {
        self.counts[Self::locate(us)] += 1;
        self.total += 1;
        self.max_us = self.max_us.max(us);
    }

    /// Folds `other` in.
    pub fn merge(&mut self, other: &Self) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
        self.max_us = self.max_us.max(other.max_us);
    }

    /// Latencies recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Nearest-rank percentile (`p` in 0..=100): the upper bound of the
    /// bucket holding the rank-th smallest latency, capped at the
    /// tracked maximum — at most 3.1 % above the true value, exact below
    /// 64 µs and at `p = 100`. `None` while empty.
    pub fn percentile(&self, p: f64) -> Option<u32> {
        if self.total == 0 {
            return None;
        }
        let rank = (((p / 100.0) * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (bucket, count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                // Invert `locate`: the bucket's row shift, then the
                // largest value whose shifted prefix lands in it.
                let shift = (bucket as u32 >> Self::SUB_BITS).saturating_sub(1);
                let prefix = bucket as u64 - (u64::from(shift) << Self::SUB_BITS);
                let upper = ((prefix + 1) << shift) - 1;
                return Some(upper.min(u64::from(self.max_us)) as u32);
            }
        }
        Some(self.max_us)
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            counts: [0; Self::BUCKETS],
            total: 0,
            max_us: 0,
        }
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.total)
            .field("max_us", &self.max_us)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_total_sums_components() {
        let b = TimeBreakdown {
            init_ns: 1,
            tree_pass_ns: 2,
            pq_insert_ns: 3,
            pq_remove_ns: 4,
            dist_calc_ns: 5,
        };
        assert_eq!(b.total_ns(), 15);
    }

    #[test]
    fn shared_stats_snapshot() {
        let s = SharedQueryStats::new();
        s.lb_distance_calcs.add(10);
        s.real_distance_calcs.add(3);
        s.tree_pass_ns.add(800);
        let snap = s.finish(Duration::from_millis(5), 100, 4, true);
        assert_eq!(snap.lb_distance_calcs, 10);
        assert_eq!(snap.real_distance_calcs, 3);
        let b = snap.breakdown.expect("requested breakdown");
        assert_eq!(b.init_ns, 100);
        assert_eq!(b.tree_pass_ns, 200, "averaged over 4 workers");
        let snap = s.finish(Duration::from_millis(5), 100, 4, false);
        assert!(snap.breakdown.is_none());
    }

    #[test]
    fn merge_combines_every_field() {
        let mut a = QueryStatsAggregate::default();
        a.add(&QueryStats {
            lb_distance_calcs: 10,
            real_distance_calcs: 2,
            bsf_updates: 1,
            total_time: Duration::from_millis(3),
            ..Default::default()
        });
        let mut b = QueryStatsAggregate::default();
        for _ in 0..2 {
            b.add(&QueryStats {
                lb_distance_calcs: 5,
                real_distance_calcs: 4,
                bsf_updates: 2,
                total_time: Duration::from_millis(1),
                ..Default::default()
            });
        }
        a.merge(&b);
        assert_eq!(a.queries, 3);
        assert_eq!(a.lb_distance_calcs, 20);
        assert_eq!(a.real_distance_calcs, 10);
        assert_eq!(a.bsf_updates, 5);
        assert_eq!(a.total_time, Duration::from_millis(5));
        assert_eq!(a.latency_us.count(), 3);
        assert_eq!(a.latency_percentile_us(100.0), Some(3_000));
        // Merging an empty aggregate is the identity.
        let snapshot = a.clone();
        a.merge(&QueryStatsAggregate::default());
        assert_eq!(a.queries, snapshot.queries);
        assert_eq!(a.total_time, snapshot.total_time);
    }

    #[test]
    fn aggregate_sums_and_averages_breakdowns() {
        let b = TimeBreakdown {
            init_ns: 10,
            tree_pass_ns: 20,
            pq_insert_ns: 30,
            pq_remove_ns: 40,
            dist_calc_ns: 50,
        };
        let mut agg = QueryStatsAggregate::default();
        assert!(agg.mean_breakdown().is_none());
        // Mixing queries with and without a breakdown keeps the sum over
        // the collecting ones.
        agg.add(&QueryStats {
            breakdown: Some(b),
            ..Default::default()
        });
        agg.add(&QueryStats::default());
        agg.add(&QueryStats {
            breakdown: Some(b),
            ..Default::default()
        });
        let sum = agg.breakdown.expect("one query collected");
        assert_eq!(sum.init_ns, 20);
        assert_eq!(sum.total_ns(), 2 * b.total_ns());
        let mean = agg.mean_breakdown().expect("collected");
        assert_eq!(mean.dist_calc_ns, 100 / 3);
    }

    #[test]
    fn aggregate_counts_approximate_accounting() {
        let mut agg = QueryStatsAggregate::default();
        agg.add(&QueryStats {
            approx_inflation_prunes: 4,
            stop_reason: Some(StopReason::BudgetExhausted),
            ..Default::default()
        });
        agg.add(&QueryStats {
            approx_inflation_prunes: 1,
            stop_reason: Some(StopReason::Completed),
            ..Default::default()
        });
        agg.add(&QueryStats::default()); // an exact query
        assert_eq!(agg.approx_inflation_prunes, 5);
        assert_eq!(agg.budget_stops, 1);
        let mut total = QueryStatsAggregate::default();
        total.merge(&agg);
        total.merge(&agg);
        assert_eq!(total.approx_inflation_prunes, 10);
        assert_eq!(total.budget_stops, 2);
    }

    #[test]
    fn latency_percentiles_are_nearest_rank() {
        let mut agg = QueryStatsAggregate::default();
        assert_eq!(agg.latency_percentile_us(99.0), None);
        // 1..=100 ms, added out of order (percentiles sort internally).
        for i in (1..=100u64).rev() {
            agg.add(&QueryStats {
                total_time: Duration::from_micros(i),
                ..Default::default()
            });
        }
        assert_eq!(agg.latency_percentile_us(50.0), Some(50));
        assert_eq!(agg.latency_percentile_us(99.0), Some(99));
        assert_eq!(agg.latency_percentile_us(100.0), Some(100));
        assert_eq!(agg.latency_percentile_us(0.0), Some(1));
    }

    #[test]
    fn latency_histogram_is_bounded_in_error_and_exact_at_the_maximum() {
        // A deterministic spread over six decades, 1 µs to ~70 min.
        let mut values: Vec<u32> = (0..40_000u64)
            .map(|i| (1 + i * i * 3 % 4_000_000_007) as u32)
            .chain([0, 1, 63, 64, 65, u32::MAX - 1])
            .collect();
        let mut hist = LatencyHistogram::default();
        for &v in &values {
            hist.record(v);
        }
        values.sort_unstable();
        for p in [0.0, 1.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            let rank = ((p / 100.0) * values.len() as f64).ceil() as usize;
            let exact = values[rank.clamp(1, values.len()) - 1];
            let got = hist.percentile(p).expect("non-empty");
            assert!(got >= exact, "p{p}: {got} under the true {exact}");
            assert!(
                f64::from(got) <= f64::from(exact) * 1.05,
                "p{p}: {got} more than 5 % over {exact}"
            );
        }
        assert_eq!(hist.percentile(100.0), Some(u32::MAX - 1), "max is exact");

        // Merging is an element-wise add: two halves equal the whole.
        let (lo, hi) = values.split_at(values.len() / 3);
        let mut merged = LatencyHistogram::default();
        let mut other = LatencyHistogram::default();
        lo.iter().for_each(|&v| merged.record(v));
        hi.iter().for_each(|&v| other.record(v));
        merged.merge(&other);
        assert_eq!(merged.count(), hist.count());
        for p in [10.0, 50.0, 99.0, 100.0] {
            assert_eq!(merged.percentile(p), hist.percentile(p));
        }
        // Constant memory: the type has no heap part to grow.
        assert!(std::mem::size_of::<LatencyHistogram>() < 8 * 1024);
    }

    #[test]
    fn aggregate_means() {
        let mut agg = QueryStatsAggregate::default();
        assert_eq!(agg.mean_time(), Duration::ZERO);
        assert_eq!(agg.mean_lb_calcs(), 0.0);
        for i in 1..=4u64 {
            agg.add(&QueryStats {
                lb_distance_calcs: i * 10,
                real_distance_calcs: i,
                total_time: Duration::from_millis(i),
                ..Default::default()
            });
        }
        assert_eq!(agg.queries, 4);
        assert_eq!(agg.mean_lb_calcs(), 25.0);
        assert_eq!(agg.mean_real_calcs(), 2.5);
        assert_eq!(agg.mean_time(), Duration::from_micros(2500));
    }
}
