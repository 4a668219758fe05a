//! Reproduction harness for the MESSI paper's evaluation (§IV).
//!
//! One binary per evaluation figure (`fig05` … `fig19`, plus `all`), each
//! regenerating the same rows/series the paper plots, at a laptop-scale
//! dataset size. Absolute numbers differ from the paper's 100 GB testbed
//! by construction; the *shape* — who wins, by what factor, where the
//! knees are — is the reproduction target.
//!
//! ## Scaling
//!
//! The paper's default dataset is 100 GB = 100 M series of 256 floats.
//! The harness maps "paper gigabytes" to series counts through
//! [`Scale`]: by default 100 GB ↦ 100 K series (100 MB), overridable with
//! `MESSI_BENCH_SERIES` (series per 100 paper-GB) and `MESSI_BENCH_QUERIES`
//! (queries per measurement, default 10; the paper uses 100).
//!
//! Every figure module returns a [`report::Table`] that prints aligned
//! text and writes a CSV under `target/bench-results/`.

#![warn(missing_docs)]

pub mod datasets;
pub mod figures;
pub mod report;
pub mod scale;

pub use report::Table;
pub use scale::Scale;

use messi_core::{QueryAnswer, QueryConfig, QueryStats};
use messi_series::Dataset;
use std::time::Duration;

/// A query algorithm under measurement: maps a query series to an answer
/// and its statistics.
pub type QueryFn<'a> = dyn Fn(&[f32]) -> (QueryAnswer, QueryStats) + 'a;

/// Runs `queries` through `algorithm` sequentially (the paper: "queries
/// were always run in a sequential fashion, one after the other, in order
/// to simulate an exploratory analysis scenario") and returns the mean
/// wall time per query plus accumulated stats.
pub fn measure_queries(
    algorithm: &QueryFn<'_>,
    queries: &Dataset,
    warmup: usize,
) -> (Duration, messi_core::stats::QueryStatsAggregate) {
    for q in queries.iter().take(warmup) {
        let _ = algorithm(q);
    }
    let mut agg = messi_core::stats::QueryStatsAggregate::default();
    let t = std::time::Instant::now();
    for q in queries.iter() {
        let (_, stats) = algorithm(q);
        agg.add(&stats);
    }
    let mean = t.elapsed() / queries.len().max(1) as u32;
    (mean, agg)
}

/// Times `n` compared rows twice, forward and then in reverse order, and
/// returns each row's mean of its two times; `time(i)` measures row `i`.
/// Rows timed one after another in one process read faster the later
/// they run (warmer caches, settled clocks), so a single pass would
/// favour whichever row comes last.
pub fn time_both_orders(n: usize, mut time: impl FnMut(usize) -> Duration) -> Vec<Duration> {
    let mut total = vec![Duration::ZERO; n];
    for i in (0..n).chain((0..n).rev()) {
        total[i] += time(i);
    }
    total.into_iter().map(|t| t / 2).collect()
}

/// Sanity guard used by every figure: the algorithm's answer must equal
/// the reference algorithm's answer on the first query (all algorithms
/// are exact; a mismatch means the measurement is meaningless).
pub fn assert_same_answer(a: &QueryAnswer, b: &QueryAnswer, what: &str) {
    let tol = 1e-3 * a.dist_sq.max(1.0);
    assert!(
        (a.dist_sq - b.dist_sq).abs() <= tol,
        "{what}: exact algorithms disagree ({} vs {})",
        a.dist_sq,
        b.dist_sq
    );
}

/// A standard `QueryConfig` with the worker/queue counts used by a figure.
pub fn query_config(workers: usize, queues: usize) -> QueryConfig {
    QueryConfig {
        num_workers: workers,
        num_queues: queues,
        ..QueryConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use messi_series::gen::{self, DatasetKind};
    use std::sync::Arc;

    #[test]
    fn measure_queries_counts_all_queries() {
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 200, 1));
        let (index, _) =
            messi_core::MessiIndex::build(Arc::clone(&data), &messi_core::IndexConfig::for_tests());
        let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 4, 1);
        let qc = query_config(2, 2);
        let (mean, agg) = measure_queries(&|q| index.search(q, &qc), &queries, 1);
        assert_eq!(agg.queries, 4);
        assert!(mean.as_nanos() > 0);
    }

    #[test]
    fn both_orders_time_every_row_forward_then_back() {
        let mut order = Vec::new();
        let means = time_both_orders(3, |i| {
            order.push(i);
            Duration::from_millis(10 * (i as u64 + 1) + order.len() as u64)
        });
        assert_eq!(order, [0, 1, 2, 2, 1, 0]);
        // Row i ran at steps i+1 and 6-i: the mean drops the order term.
        let want = |i: u64| Duration::from_millis(10 * (i + 1)) + Duration::from_micros(3_500);
        assert_eq!(means, [want(0), want(1), want(2)]);
    }

    #[test]
    #[should_panic(expected = "disagree")]
    fn answer_guard_detects_divergence() {
        let a = QueryAnswer {
            pos: 0,
            dist_sq: 1.0,
        };
        let b = QueryAnswer {
            pos: 0,
            dist_sq: 9.0,
        };
        assert_same_answer(&a, &b, "test");
    }
}
