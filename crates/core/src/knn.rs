//! Exact k-NN search.
//!
//! The paper motivates MESSI with "complex analytics algorithms (e.g.,
//! k-NN classification)" (§I). Exact k-NN generalizes the 1-NN algorithm
//! directly: the scalar BSF becomes the set of the k best candidates, and
//! every bound is checked against the *k-th best* distance (which is
//! `+inf` until k candidates exist, so nothing is pruned prematurely).
//! The traversal, queues, and leaf-scan cascade are [`crate::engine`]'s;
//! this module contributes the `KnnSet` bound and the search step of
//! every k-NN query (`MessiIndex::search_knn(_dtw)`, or an executor).
//!
//! The candidate set is a small mutex-protected max-heap with a cached
//! atomic bound, the same trick as the BSF: reads in the hot loop are a
//! single atomic load; the lock is only taken on candidate insertion,
//! which (like BSF updates, §III-B) happens a handful of times per query.

use crate::engine::{KnnObjective, ShardRun};
use crate::exact::QueryAnswer;
use crate::shard::ShardReturn;
use parking_lot::Mutex;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU32, Ordering};

/// Max-heap item: the worst current candidate sits on top. Positions
/// are global u64s (see [`crate::shard::global_pos`]) so one `KnnSet`
/// can be shared by every shard of a sharded scatter.
#[derive(Debug, PartialEq)]
struct Candidate {
    dist_sq: f32,
    pos: u64,
}

impl Eq for Candidate {}
impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.dist_sq
            .total_cmp(&other.dist_sq)
            .then(self.pos.cmp(&other.pos))
    }
}

/// Shared k-best set with a cached pruning bound.
pub(crate) struct KnnSet {
    k: usize,
    heap: Mutex<BinaryHeap<Candidate>>,
    /// Bits of the current k-th best distance (`+inf` until full).
    bound_bits: AtomicU32,
}

impl KnnSet {
    /// A set for the `k` best of `searched` series: the heap never holds
    /// more than `min(k, searched) + 1` candidates, so a `k` far beyond
    /// the collection reserves no more than the collection needs.
    pub(crate) fn new(k: usize, searched: usize) -> Self {
        assert!(k > 0, "k must be positive");
        Self {
            k,
            heap: Mutex::new(BinaryHeap::with_capacity(k.min(searched) + 1)),
            bound_bits: AtomicU32::new(f32::INFINITY.to_bits()),
        }
    }

    /// Current pruning bound: the k-th best distance (or `+inf`).
    /// Non-negative floats order like their bit patterns, so a relaxed
    /// u32 load suffices.
    #[inline]
    pub(crate) fn bound(&self) -> f32 {
        f32::from_bits(self.bound_bits.load(Ordering::Acquire))
    }

    /// Offers a candidate under its *global* position; ignores
    /// duplicates of an already-present position (a leaf may be scanned
    /// via the seeding phase *and* the queue phase — and under sharding
    /// every shard seeds its own home leaf). Returns whether the set
    /// changed.
    pub(crate) fn offer(&self, dist_sq: f32, pos: u64) -> bool {
        if dist_sq >= self.bound() {
            return false;
        }
        let mut heap = self.heap.lock();
        if heap.iter().any(|c| c.pos == pos) {
            return false;
        }
        heap.push(Candidate { dist_sq, pos });
        if heap.len() > self.k {
            heap.pop();
        }
        if heap.len() == self.k {
            let worst = heap.peek().expect("k > 0").dist_sq;
            self.bound_bits.store(worst.to_bits(), Ordering::Release);
        }
        true
    }

    /// The final answers, ascending by distance.
    pub(crate) fn into_sorted(self) -> Vec<QueryAnswer> {
        let mut v: Vec<Candidate> = self.heap.into_inner().into_vec();
        v.sort();
        v.into_iter()
            .map(|c| QueryAnswer {
                pos: c.pos,
                dist_sq: c.dist_sq,
            })
            .collect()
    }
}

/// The search step of k-NN over one shard (either metric). The caller
/// owns `knn` and reads the merged answers out of it once every shard
/// has finished, so the shard itself returns none; with an unshared set
/// and offset 0 this *is* the single-index search.
pub(crate) fn search(mut run: ShardRun<'_, '_>, knn: &KnnSet) -> ShardReturn {
    let initial_bound = knn.bound();
    let mut stats = run.run(&KnnObjective::new(knn, run.offset));
    if initial_bound.is_finite() {
        stats.initial_bsf_dist_sq = initial_bound;
    }
    (Vec::new(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{IndexConfig, QueryConfig};
    use crate::index::MessiIndex;
    use messi_series::distance::dtw::DtwParams;
    use messi_series::gen::{self, DatasetKind};
    use std::sync::Arc;

    fn brute_force_knn(data: &messi_series::Dataset, query: &[f32], k: usize) -> Vec<(usize, f32)> {
        let mut all: Vec<(usize, f32)> = data
            .iter()
            .enumerate()
            .map(|(i, s)| (i, messi_series::distance::euclidean::ed_sq_scalar(query, s)))
            .collect();
        all.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        all.truncate(k);
        all
    }

    #[test]
    fn knn_matches_brute_force() {
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 500, 13));
        let (index, _) = MessiIndex::build(Arc::clone(&data), &IndexConfig::for_tests());
        let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 4, 13);
        for q in queries.iter() {
            for k in [1usize, 3, 10, 25] {
                let (got, _) = index.search_knn(q, k, &QueryConfig::for_tests());
                let expect = brute_force_knn(&data, q, k);
                assert_eq!(got.len(), k);
                for (g, (_, ed)) in got.iter().zip(&expect) {
                    assert!(
                        (g.dist_sq - ed).abs() <= 1e-3 * ed.max(1.0),
                        "k={k}: {} vs {ed}",
                        g.dist_sq
                    );
                }
                // Distances ascending.
                for w in got.windows(2) {
                    assert!(w[0].dist_sq <= w[1].dist_sq + 1e-6);
                }
                // No duplicate positions.
                let mut positions: Vec<u64> = got.iter().map(|a| a.pos).collect();
                positions.sort_unstable();
                positions.dedup();
                assert_eq!(positions.len(), k, "duplicate positions in k-NN answer");
            }
        }
    }

    #[test]
    fn k_larger_than_dataset_returns_everything() {
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 8, 5));
        let (index, _) = MessiIndex::build(Arc::clone(&data), &IndexConfig::for_tests());
        let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 1, 5);
        let (got, _) = index.search_knn(queries.series(0), 20, &QueryConfig::for_tests());
        assert_eq!(got.len(), 8);
    }

    #[test]
    fn k1_equals_exact_search() {
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 300, 17));
        let (index, _) = MessiIndex::build(Arc::clone(&data), &IndexConfig::for_tests());
        let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 3, 17);
        for q in queries.iter() {
            let (knn, _) = index.search_knn(q, 1, &QueryConfig::for_tests());
            let (one, _) = index.search(q, &QueryConfig::for_tests());
            assert!((knn[0].dist_sq - one.dist_sq).abs() <= 1e-4 * one.dist_sq.max(1.0));
        }
    }

    #[test]
    fn knn_dtw_matches_brute_force() {
        use messi_series::distance::dtw::dtw_sq;
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 250, 19));
        let (index, _) = MessiIndex::build(Arc::clone(&data), &IndexConfig::for_tests());
        let params = DtwParams::paper_default(256);
        let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 2, 19);
        for q in queries.iter() {
            for k in [1usize, 5] {
                let (got, stats) = index.search_knn_dtw(q, k, params, &QueryConfig::for_tests());
                let mut expect: Vec<(usize, f32)> = data
                    .iter()
                    .enumerate()
                    .map(|(i, s)| (i, dtw_sq(q, s, params)))
                    .collect();
                expect.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
                expect.truncate(k);
                assert_eq!(got.len(), k);
                for (g, (_, d)) in got.iter().zip(&expect) {
                    assert!(
                        (g.dist_sq - d).abs() <= 1e-3 * d.max(1.0),
                        "k={k}: {} vs {d}",
                        g.dist_sq
                    );
                }
                assert!(
                    stats.real_distance_calcs < data.len() as u64,
                    "DTW k-NN should prune"
                );
            }
        }
    }

    #[test]
    fn knn_honors_queue_policy_and_breakdown() {
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 300, 23));
        let (index, _) = MessiIndex::build(Arc::clone(&data), &IndexConfig::for_tests());
        let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 2, 23);
        let config = QueryConfig {
            queue_policy: crate::config::QueuePolicy::PerWorkerLocal,
            collect_breakdown: true,
            ..QueryConfig::for_tests()
        };
        for q in queries.iter() {
            let (got, stats) = index.search_knn(q, 5, &config);
            let expect = brute_force_knn(&data, q, 5);
            for (g, (_, ed)) in got.iter().zip(&expect) {
                assert!((g.dist_sq - ed).abs() <= 1e-3 * ed.max(1.0));
            }
            let b = stats.breakdown.expect("breakdown requested");
            assert!(b.init_ns > 0, "k-NN now reports the Fig. 13 phases");
        }
    }

    #[test]
    fn knn_set_semantics() {
        let set = KnnSet::new(2, 10);
        assert_eq!(set.bound(), f32::INFINITY);
        assert!(set.offer(5.0, 1));
        assert_eq!(set.bound(), f32::INFINITY, "not full yet");
        assert!(set.offer(3.0, 2));
        assert_eq!(set.bound(), 5.0);
        assert!(!set.offer(3.0, 2), "duplicate position rejected");
        assert!(!set.offer(7.0, 3), "worse than bound rejected");
        assert!(set.offer(1.0, 4));
        assert_eq!(set.bound(), 3.0);
        let answers = set.into_sorted();
        assert_eq!(answers.len(), 2);
        assert_eq!(answers[0].pos, 4);
        assert_eq!(answers[1].pos, 2);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn rejects_zero_k() {
        KnnSet::new(0, 10);
    }
}
