//! Figures 11, 12, 16, 18: query-answering comparisons across cores,
//! dataset sizes, real datasets, and the design-benefit breakdown.

use crate::datasets::{dataset, queries_for};
use crate::report::Table;
use crate::scale::Scale;
use crate::{assert_same_answer, measure_queries, query_config, time_both_orders, QueryFn};
use messi_baselines::paris::query::sims_search;
use messi_baselines::paris::ts::ts_search;
use messi_baselines::paris::{build_paris, ParisBuildVariant, ParisIndex};
use messi_baselines::ucr;
use messi_core::{MessiIndex, QueryConfig};
use messi_series::distance::Kernel;
use messi_series::gen::DatasetKind;
use messi_series::Dataset;
use std::sync::Arc;
use std::time::Duration;

/// Builds both indexes once for a dataset.
fn build_pair(scale: &Scale, data: &Arc<Dataset>) -> (MessiIndex, ParisIndex) {
    let config = scale.index_config(data.len());
    let (messi, _) = MessiIndex::build(Arc::clone(data), &config);
    let (paris, _) = build_paris(Arc::clone(data), &config, ParisBuildVariant::Locked);
    (messi, paris)
}

/// The five standard competitors at a given worker count, in the paper's
/// legend order.
fn competitors<'a>(
    data: &'a Dataset,
    messi: &'a MessiIndex,
    paris: &'a ParisIndex,
    workers: usize,
) -> Vec<(&'static str, Box<QueryFn<'a>>)> {
    let base = query_config(workers, 24);
    let sq = QueryConfig {
        num_queues: 1,
        ..base.clone()
    };
    let mq = base.clone();
    let pc = base.clone();
    let tc = base.clone();
    let uc = base;
    vec![
        (
            "ucr_suite_p",
            Box::new(move |q: &[f32]| ucr::ucr_parallel(data, q, &uc)) as Box<QueryFn<'a>>,
        ),
        (
            "paris",
            Box::new(move |q: &[f32]| sims_search(paris, q, &pc)),
        ),
        (
            "paris_ts",
            Box::new(move |q: &[f32]| ts_search(paris, q, &tc)),
        ),
        ("messi_sq", Box::new(move |q: &[f32]| messi.search(q, &sq))),
        ("messi_mq", Box::new(move |q: &[f32]| messi.search(q, &mq))),
    ]
}

/// Cross-checks all competitors on the first query, then measures each
/// in both orders.
fn measure_competitors(
    algos: &[(&'static str, Box<QueryFn<'_>>)],
    qs: &Dataset,
    warmup: usize,
) -> Vec<Duration> {
    let reference = algos[0].1(qs.series(0)).0;
    for (name, f) in algos.iter().skip(1) {
        assert_same_answer(&f(qs.series(0)).0, &reference, name);
    }
    time_both_orders(algos.len(), |i| measure_queries(&algos[i].1, qs, warmup).0)
}

/// Fig. 11 — query answering vs number of cores (log-scale in the paper).
///
/// Paper: "MESSI is 55x faster than UCR Suite-P and 6.35x faster than
/// ParIS when we use 48 threads"; MESSI-mq overtakes MESSI-sq beyond 24.
pub fn fig11(scale: &Scale) -> Table {
    let data = dataset(
        DatasetKind::RandomWalk,
        scale.default_series(DatasetKind::RandomWalk),
    );
    let (messi, paris) = build_pair(scale, &data);
    let qs = queries_for(DatasetKind::RandomWalk, &data, scale.queries);
    let mut table = Table::new(
        "fig11",
        "query answering vs cores (random, 100GB-equiv)",
        "order at 48 threads: UCR-P ≫ ParIS > ParIS-TS > MESSI-sq ≥ MESSI-mq; \
         MESSI ~6–55x faster than ParIS/UCR-P",
        &[
            "cores",
            "ucr_suite_p",
            "paris",
            "paris_ts",
            "messi_sq",
            "messi_mq",
        ],
    );
    for &cores in &[2usize, 4, 6, 8, 12, 18, 24, 48] {
        let algos = competitors(&data, &messi, &paris, cores);
        let times = measure_competitors(&algos, &qs, scale.warmup);
        table.row(vec![
            cores.into(),
            times[0].into(),
            times[1].into(),
            times[2].into(),
            times[3].into(),
            times[4].into(),
        ]);
    }
    table
}

/// Fig. 12 — query answering vs dataset size (five competitors).
///
/// Paper: "MESSI is up to 61x faster than UCR Suite-p (200GB), up to
/// 6.35x faster than ParIS (100GB), up to 7.4x faster than ParIS-TS
/// (50GB)."
pub fn fig12(scale: &Scale) -> Table {
    let mut table = Table::new(
        "fig12",
        "query answering vs dataset size (random)",
        "MESSI fastest at every size; gap to UCR-P grows with size",
        &[
            "paper_gb",
            "ucr_suite_p",
            "paris",
            "paris_ts",
            "messi_sq",
            "messi_mq",
        ],
    );
    for &gb in &[50.0f64, 100.0, 150.0, 200.0] {
        let count = scale.series_for_gb(DatasetKind::RandomWalk, gb);
        let data = dataset(DatasetKind::RandomWalk, count);
        let (messi, paris) = build_pair(scale, &data);
        let qs = queries_for(DatasetKind::RandomWalk, &data, scale.queries);
        let workers = QueryConfig::default().num_workers;
        let algos = competitors(&data, &messi, &paris, workers);
        let times = measure_competitors(&algos, &qs, scale.warmup);
        table.row(vec![
            (gb as u64).into(),
            times[0].into(),
            times[1].into(),
            times[2].into(),
            times[3].into(),
            times[4].into(),
        ]);
    }
    table
}

/// Fig. 16 — query answering on the real datasets (five competitors).
///
/// Paper: "for SALD, MESSI query answering is 60x faster than UCR Suite-P
/// and 8.4x faster than ParIS, whereas for Seismic, it is 80x faster than
/// UCR Suite-P, and almost 11x faster than ParIS."
pub fn fig16(scale: &Scale) -> Table {
    let mut table = Table::new(
        "fig16",
        "query answering on real datasets (100GB-equiv)",
        "same ordering as random data but smaller margins (worse pruning on real data)",
        &[
            "dataset",
            "ucr_suite_p",
            "paris",
            "paris_ts",
            "messi_sq",
            "messi_mq",
        ],
    );
    for kind in [DatasetKind::Sald, DatasetKind::Seismic] {
        let data = dataset(kind, scale.default_series(kind));
        let (messi, paris) = build_pair(scale, &data);
        let qs = queries_for(kind, &data, scale.queries);
        let workers = QueryConfig::default().num_workers;
        let algos = competitors(&data, &messi, &paris, workers);
        let times = measure_competitors(&algos, &qs, scale.warmup);
        table.row(vec![
            kind.name().into(),
            times[0].into(),
            times[1].into(),
            times[2].into(),
            times[3].into(),
            times[4].into(),
        ]);
    }
    table
}

/// Fig. 18 — the query-answering benefit breakdown: each bar adds one of
/// MESSI's design elements to the previous configuration.
///
/// Paper: SIMD makes ParIS 60% faster than ParIS-SISD; ParIS-TS ~10%
/// faster than ParIS; MESSI-mq 83% faster than ParIS-TS.
pub fn fig18(scale: &Scale) -> Table {
    let data = dataset(
        DatasetKind::RandomWalk,
        scale.default_series(DatasetKind::RandomWalk),
    );
    let (messi, paris) = build_pair(scale, &data);
    let qs = queries_for(DatasetKind::RandomWalk, &data, scale.queries);
    let workers = QueryConfig::default().num_workers;
    let mut table = Table::new(
        "fig18",
        "query answering benefit breakdown (random, 100GB-equiv)",
        "each step faster: ParIS-SISD → ParIS → ParIS-TS → MESSI-sq → MESSI-mq",
        &["configuration", "mean_query_time"],
    );
    let sisd = QueryConfig {
        kernel: Kernel::Scalar,
        ..query_config(workers, 24)
    };
    let simd = query_config(workers, 24);
    let sq = QueryConfig {
        num_queues: 1,
        ..query_config(workers, 24)
    };
    let steps: Vec<(&'static str, Box<QueryFn<'_>>)> = vec![
        (
            "paris_sisd",
            Box::new(|q: &[f32]| sims_search(&paris, q, &sisd)) as Box<QueryFn<'_>>,
        ),
        ("paris", Box::new(|q: &[f32]| sims_search(&paris, q, &simd))),
        (
            "paris_ts",
            Box::new(|q: &[f32]| ts_search(&paris, q, &simd)),
        ),
        ("messi_sq", Box::new(|q: &[f32]| messi.search(q, &sq))),
        ("messi_mq", Box::new(|q: &[f32]| messi.search(q, &simd))),
    ];
    let times = measure_competitors(&steps, &qs, scale.warmup);
    for ((name, _), time) in steps.iter().zip(times) {
        table.row(vec![(*name).into(), time.into()]);
    }
    table
}
