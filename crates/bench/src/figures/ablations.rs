//! A design claim the paper makes in prose (no figure number): the
//! quality of the approximate-search seed ("the initial value of BSF is
//! very close to its final value … updated only 10-12 times (on average)
//! per query", §III-B).
//!
//! The designs the paper rejects — the no-buffer build (§III-A) and one
//! local queue per thread (§III-B) — are not implemented, and neither is
//! a second BSF (§III-B calls its synchronisation cost negligible), so
//! none of them has a table here.

use crate::datasets::{dataset, queries_for};
use crate::report::Table;
use crate::scale::Scale;
use messi_core::{MessiIndex, QueryConfig};
use messi_series::gen::DatasetKind;
use std::sync::Arc;

/// Approximate-search quality: how close the initial BSF is to the final
/// answer, and how often the BSF improves per query.
pub fn ablation_approx_quality(scale: &Scale) -> Table {
    let mut table = Table::new(
        "ablation_approx",
        "approximate-search seed quality (§III-B's claim)",
        "initial BSF within a few percent of final; ~10-12 BSF updates per query",
        &["dataset", "mean_initial_over_final", "mean_bsf_updates"],
    );
    for kind in [
        DatasetKind::RandomWalk,
        DatasetKind::Seismic,
        DatasetKind::Sald,
    ] {
        let data = dataset(kind, scale.default_series(kind));
        let (index, _) = MessiIndex::build(Arc::clone(&data), &scale.index_config(data.len()));
        let qs = queries_for(kind, &data, scale.queries);
        let mut ratio_sum = 0.0f64;
        let mut updates = 0u64;
        for q in qs.iter() {
            let (ans, stats) = index.search(q, &QueryConfig::default());
            // initial/final in distance terms, ≥ 1.0 by construction.
            let ratio = if ans.dist_sq > 0.0 {
                (stats.initial_bsf_dist_sq as f64 / ans.dist_sq as f64).sqrt()
            } else {
                1.0
            };
            ratio_sum += ratio;
            updates += stats.bsf_updates;
        }
        let n = qs.len() as f64;
        table.row(vec![
            kind.name().into(),
            (ratio_sum / n).into(),
            (updates as f64 / n).into(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablations_run_at_tiny_scale() {
        let t = ablation_approx_quality(&Scale::for_tests());
        assert!(!t.is_empty(), "{}", t.id);
        crate::datasets::clear_cache();
    }
}
