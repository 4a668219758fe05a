//! Figures 7, 13, 14: query-answering parameter tuning (leaf size, queue
//! type breakdown, queue count).

use crate::datasets::{dataset, queries_for};
use crate::report::Table;
use crate::scale::Scale;
use crate::{measure_queries, query_config, time_both_orders};
use messi_core::{IndexConfig, MessiIndex, QueryConfig, TimeBreakdown};
use messi_series::gen::DatasetKind;
use std::sync::Arc;

/// Fig. 7 — query answering vs leaf size, MESSI-sq and MESSI-mq
/// (log-scale y in the paper).
///
/// Paper: "the time goes down as the leaf size increases, it reaches its
/// minimum value for leaf size 2K series, and then it goes up again."
pub fn fig07(scale: &Scale) -> Table {
    let data = dataset(
        DatasetKind::RandomWalk,
        scale.default_series(DatasetKind::RandomWalk),
    );
    let qs = queries_for(DatasetKind::RandomWalk, &data, scale.queries);
    let mut table = Table::new(
        "fig07",
        "query answering vs leaf size (random, 100GB-equiv)",
        "U-shape with the minimum near 2K; sq and mq track each other",
        &["leaf_size", "messi_sq", "messi_mq"],
    );
    for &leaf in &[
        50usize, 100, 200, 500, 1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000,
    ] {
        let config = IndexConfig {
            leaf_capacity: leaf,
            ..scale.index_config(data.len())
        };
        let (index, _) = MessiIndex::build(Arc::clone(&data), &config);
        let sq = QueryConfig {
            num_queues: 1,
            ..QueryConfig::default()
        };
        let mq = QueryConfig::default();
        let configs = [sq, mq];
        let times = time_both_orders(configs.len(), |i| {
            measure_queries(&|q| index.search(q, &configs[i]), &qs, scale.warmup).0
        });
        table.row(vec![leaf.into(), times[0].into(), times[1].into()]);
    }
    table
}

/// Fig. 13 — query-time breakdown for MESSI-sq vs MESSI-mq: queue
/// insert/remove, distance calculation, tree pass, initialization (and
/// the percentage view).
///
/// Paper: "in MESSI-mq, the time needed to insert and remove nodes from
/// the list is significantly reduced … the time needed for the distance
/// calculations becomes the dominant factor."
pub fn fig13(scale: &Scale) -> Table {
    let data = dataset(
        DatasetKind::RandomWalk,
        scale.default_series(DatasetKind::RandomWalk),
    );
    let (index, _) = MessiIndex::build(Arc::clone(&data), &scale.index_config(data.len()));
    let qs = queries_for(DatasetKind::RandomWalk, &data, scale.queries);
    let mut table = Table::new(
        "fig13",
        "query time breakdown, MESSI-sq vs MESSI-mq",
        "mq slashes PQ insert/remove time; distance calculation dominates mq",
        &["component", "sq_time", "sq_pct", "mq_time", "mq_pct"],
    );
    let collect = |queues: usize| -> TimeBreakdown {
        let config = QueryConfig {
            num_queues: queues,
            collect_breakdown: true,
            ..QueryConfig::default()
        };
        let mut acc = TimeBreakdown::default();
        for q in qs.iter() {
            let (_, stats) = index.search(q, &config);
            let b = stats.breakdown.expect("breakdown requested");
            acc.init_ns += b.init_ns;
            acc.tree_pass_ns += b.tree_pass_ns;
            acc.pq_insert_ns += b.pq_insert_ns;
            acc.pq_remove_ns += b.pq_remove_ns;
            acc.dist_calc_ns += b.dist_calc_ns;
        }
        acc
    };
    let sq = collect(1);
    let mq = collect(QueryConfig::default().num_queues);
    type BreakdownField = fn(&TimeBreakdown) -> u64;
    let rows: [(&str, BreakdownField); 5] = [
        ("initialization", |b| b.init_ns),
        ("messi_tree_pass", |b| b.tree_pass_ns),
        ("pq_insert_node", |b| b.pq_insert_ns),
        ("pq_remove_node", |b| b.pq_remove_ns),
        ("distance_calculation", |b| b.dist_calc_ns),
    ];
    let (sq_total, mq_total) = (sq.total_ns().max(1), mq.total_ns().max(1));
    for (name, get) in rows {
        table.row(vec![
            name.into(),
            std::time::Duration::from_nanos(get(&sq) / scale.queries.max(1) as u64).into(),
            (100.0 * get(&sq) as f64 / sq_total as f64).into(),
            std::time::Duration::from_nanos(get(&mq) / scale.queries.max(1) as u64).into(),
            (100.0 * get(&mq) as f64 / mq_total as f64).into(),
        ]);
    }
    table
}

/// Fig. 14 — query answering vs number of priority queues, on all three
/// dataset families.
///
/// Paper: "as the number of priority queues increases, the time goes
/// down, and it takes its minimum value when this number becomes 24."
pub fn fig14(scale: &Scale) -> Table {
    let mut table = Table::new(
        "fig14",
        "query answering vs number of queues (SALD, Random, Seismic)",
        "decreasing in Nq, minimum around 24",
        &["queues", "sald", "random", "seismic"],
    );
    let kinds = [
        DatasetKind::Sald,
        DatasetKind::RandomWalk,
        DatasetKind::Seismic,
    ];
    let mut indexes = Vec::new();
    for kind in kinds {
        let data = dataset(kind, scale.default_series(kind));
        let (index, _) = MessiIndex::build(Arc::clone(&data), &scale.index_config(data.len()));
        indexes.push((data, index));
    }
    for &nq in &[1usize, 2, 4, 6, 8, 12, 16, 24, 48] {
        let mut cells = vec![nq.into()];
        for (kind, (data, index)) in kinds.iter().zip(&indexes) {
            let qs = queries_for(*kind, data, scale.queries);
            let config = query_config(QueryConfig::default().num_workers, nq);
            let (t, _) = measure_queries(&|q| index.search(q, &config), &qs, scale.warmup);
            cells.push(t.into());
        }
        table.row(cells);
    }
    table
}
