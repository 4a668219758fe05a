//! One module per evaluation figure of the paper.
//!
//! Every function takes a [`Scale`] and returns a [`Table`]; the `figNN`
//! binaries print one figure each, `all` prints every figure. The table's
//! `paper_expectation` line quotes what §IV reports, so the printed
//! output is directly comparable.

pub mod ablations;
pub mod build_scaling;
pub mod build_tuning;
pub mod counts;
pub mod dtw;
pub mod query_scaling;
pub mod query_tuning;

use crate::report::Table;
use crate::scale::Scale;

/// Runs every figure at the given scale, in paper order. The dataset
/// cache is cleared between figures with different dataset needs to bound
/// peak memory at large scales.
pub fn run_all(scale: &Scale) -> Vec<Table> {
    let runners: Vec<fn(&Scale) -> Table> = vec![
        build_tuning::fig05,
        build_tuning::fig06,
        query_tuning::fig07,
        build_tuning::fig08,
        build_scaling::fig09,
        build_scaling::fig10,
        query_scaling::fig11,
        query_scaling::fig12,
        query_tuning::fig13,
        query_tuning::fig14,
        build_scaling::fig15,
        query_scaling::fig16,
        counts::fig17a,
        counts::fig17b,
        query_scaling::fig18,
        dtw::fig19,
        ablations::ablation_approx_quality,
    ];
    let mut out = Vec::new();
    for run in runners {
        out.push(run(scale));
        crate::datasets::clear_cache();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every figure must run end to end at the test scale and produce a
    /// non-empty table. (This is the harness's own integration test; the
    /// real runs happen through the binaries.)
    #[test]
    fn every_figure_runs_at_tiny_scale() {
        let scale = Scale::for_tests();
        let tables = run_all(&scale);
        assert_eq!(tables.len(), 17);
        for t in &tables {
            assert!(!t.is_empty(), "{} produced no rows", t.id);
            // Render must not panic and must mention the figure id.
            assert!(t.render().contains(&t.id));
        }
    }
}
