//! Figure 19: exact DTW query answering vs dataset size.

use crate::datasets::{dataset, queries_for};
use crate::report::Table;
use crate::scale::Scale;
use crate::{assert_same_answer, measure_queries, QueryFn};
use messi_baselines::ucr;
use messi_core::{MessiIndex, QueryConfig};
use messi_series::distance::dtw::DtwParams;
use messi_series::gen::DatasetKind;
use std::sync::Arc;

/// Fig. 19 — MESSI query answering with the DTW distance (10% warping
/// window) vs the UCR Suite DTW scans, across dataset sizes.
///
/// Paper: "MESSI-DTW is up to 34x faster than UCR Suite-p DTW (and more
/// than 3 orders of magnitude faster than the non-parallel version of UCR
/// Suite DTW)."
pub fn fig19(scale: &Scale) -> Table {
    let mut table = Table::new(
        "fig19",
        "DTW query answering vs dataset size (random, 10% warping)",
        "MESSI-DTW ≪ UCR-P DTW ≪ serial UCR DTW at every size",
        &["paper_gb", "ucr_dtw_serial", "ucr_suite_p_dtw", "messi_dtw"],
    );
    for &gb in &[50.0f64, 100.0, 150.0, 200.0] {
        let count = scale.series_for_gb(DatasetKind::RandomWalk, gb);
        let data = dataset(DatasetKind::RandomWalk, count);
        let (index, _) = MessiIndex::build(Arc::clone(&data), &scale.index_config(count));
        let qs = queries_for(DatasetKind::RandomWalk, &data, scale.queries);
        let params = DtwParams::paper_default(data.series_len());
        let qc = QueryConfig::default();

        let serial: Box<QueryFn<'_>> = Box::new(|q| ucr::ucr_serial_dtw(&data, q, params));
        let parallel: Box<QueryFn<'_>> = Box::new(|q| ucr::ucr_parallel_dtw(&data, q, params, &qc));
        let messi: Box<QueryFn<'_>> = Box::new(|q| index.search_dtw(q, params, &qc));

        // All three must return the same (exact) DTW nearest neighbor.
        let reference = serial(qs.series(0)).0;
        assert_same_answer(&parallel(qs.series(0)).0, &reference, "ucr_p_dtw");
        assert_same_answer(&messi(qs.series(0)).0, &reference, "messi_dtw");

        let (t_serial, _) = measure_queries(&serial, &qs, 0);
        let (t_parallel, _) = measure_queries(&parallel, &qs, scale.warmup);
        let (t_messi, _) = measure_queries(&messi, &qs, scale.warmup);
        table.row(vec![
            (gb as u64).into(),
            t_serial.into(),
            t_parallel.into(),
            t_messi.into(),
        ]);
    }
    table
}
