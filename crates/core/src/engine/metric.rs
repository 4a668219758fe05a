//! Distance metrics: how bounds and real distances are computed.
//!
//! The second axis of the engine's (metric × objective) matrix. A
//! [`Metric`] supplies the node-level lower bound used for subtree
//! pruning and the per-entry cascade run on leaf contents: a *batched*
//! mindist pass over the leaf's struct-of-arrays symbol columns (8
//! entries per call, SIMD gathers or the bit-identical scalar twin), then
//! per surviving entry the remaining lower bounds and the
//! early-abandoning real distance — exactly the Fig. 4/Alg. 9 structure
//! for Euclidean search and the three-level
//! `mindist_env ≤ LB_Keogh ≤ DTW` cascade of §IV (Fig. 19) for DTW.
//!
//! Any metric composes with any objective, which is what makes DTW k-NN
//! and DTW ε-range queries fall out of the same driver that answers the
//! paper's Euclidean 1-NN benchmark.
//!
//! Both metrics honor the same [`Kernel`] selection for every level of
//! their cascade (batched mindist, LB_Keogh, real distance), so the
//! Fig. 18 SIMD-vs-SISD ablation is symmetric across ED and DTW — and
//! because every SIMD kernel's scalar twin is bit-identical, forcing
//! either kernel returns the same answers.

use crate::dtw::DtwPlan;
use crate::index::MessiIndex;
use crate::node::{LeafEntry, LeafRun};
use crate::stats::LocalStats;
use messi_sax::mindist::{mindist_sq_node, mindist_sq_node_env, MindistTable};
use messi_sax::word::NodeWord;
use messi_series::distance::dtw::DtwParams;
use messi_series::distance::euclidean::ed_sq_early_abandon_with;
use messi_series::distance::lb_keogh::Envelope;
use messi_series::distance::Kernel;

/// How the engine computes lower bounds and real distances. Statically
/// dispatched; implementations hold per-query read-only state (query,
/// PAA/envelope, mindist table) by reference.
pub(crate) trait Metric: Sync {
    /// Lower bound for a tree node during traversal (Alg. 7 line 1).
    fn node_lower_bound(&self, word: &NodeWord) -> f32;

    /// Mindist lower bounds for the chunk `[base, base + len)` (with
    /// `len <= 8`) of a leaf run's entry span, written into `out[..len]`
    /// — computed from the run's SoA symbol block, one table gather per
    /// segment, so the cascade's first level streams sequential cache
    /// lines across every member leaf of the run.
    fn leaf_lower_bounds(&self, run: &LeafRun<'_>, base: usize, len: usize, out: &mut [f32; 8]);

    /// Continues the cascade for one entry that survived the batched
    /// mindist: any remaining lower bounds against `bound`, then the
    /// early-abandoning real distance. Returns `None` when a lower bound
    /// pruned the entry. Counts every evaluation in `local`.
    fn entry_distance(&self, entry: &LeafEntry, bound: f32, local: &mut LocalStats) -> Option<f32>;
}

/// Euclidean distance with iSAX mindist lower bounds — the paper's
/// default metric. [`Kernel`] selects the SIMD or the scalar-twin path
/// for both the batched per-entry lower bound (Fig. 18's ablation) and
/// the real-distance kernel.
pub(crate) struct EuclideanMetric<'q> {
    index: &'q MessiIndex,
    query: &'q [f32],
    query_paa: &'q [f32],
    table: &'q MindistTable,
    kernel: Kernel,
    use_simd: bool,
}

impl<'q> EuclideanMetric<'q> {
    pub(crate) fn new(
        index: &'q MessiIndex,
        query: &'q [f32],
        query_paa: &'q [f32],
        table: &'q MindistTable,
        kernel: Kernel,
    ) -> Self {
        Self {
            index,
            query,
            query_paa,
            table,
            kernel,
            use_simd: kernel.uses_simd(),
        }
    }
}

impl Metric for EuclideanMetric<'_> {
    #[inline]
    fn node_lower_bound(&self, word: &NodeWord) -> f32 {
        mindist_sq_node(self.query_paa, &self.index.scales, word)
    }

    #[inline]
    fn leaf_lower_bounds(&self, run: &LeafRun<'_>, base: usize, len: usize, out: &mut [f32; 8]) {
        self.table.mindist_sq_soa(
            run.cols,
            run.stride as usize,
            run.base as usize + base,
            len,
            self.use_simd,
            out,
        );
    }

    #[inline]
    fn entry_distance(&self, entry: &LeafEntry, bound: f32, local: &mut LocalStats) -> Option<f32> {
        local.real += 1;
        Some(ed_sq_early_abandon_with(
            self.kernel,
            self.query,
            self.index.dataset.series(entry.pos as usize),
            bound,
        ))
    }
}

/// Banded DTW with the LB_Keogh envelope cascade (§IV, Fig. 19):
/// envelope mindist on the iSAX summary (batched over the SoA columns),
/// LB_Keogh on the raw candidate, then full banded DTW with early
/// abandoning. LB_Keogh honors the [`Kernel`] selection like the
/// Euclidean kernels do.
pub(crate) struct DtwMetric<'q> {
    index: &'q MessiIndex,
    query: &'q [f32],
    // The query's [`DtwPlan`], field by field: the leaf scan reads these
    // per entry, and one fewer pointer hop measured ~2 % on DTW queries.
    env: &'q Envelope,
    params: DtwParams,
    paa_lower: &'q [f32],
    paa_upper: &'q [f32],
    table: &'q MindistTable,
    kernel: Kernel,
    use_simd: bool,
}

impl<'q> DtwMetric<'q> {
    pub(crate) fn new(
        index: &'q MessiIndex,
        query: &'q [f32],
        dtw: &'q DtwPlan,
        table: &'q MindistTable,
        kernel: Kernel,
    ) -> Self {
        Self {
            index,
            query,
            env: &dtw.env,
            params: dtw.params,
            paa_lower: &dtw.paa_lower,
            paa_upper: &dtw.paa_upper,
            table,
            kernel,
            use_simd: kernel.uses_simd(),
        }
    }
}

impl Metric for DtwMetric<'_> {
    #[inline]
    fn node_lower_bound(&self, word: &NodeWord) -> f32 {
        mindist_sq_node_env(self.paa_lower, self.paa_upper, &self.index.scales, word)
    }

    #[inline]
    fn leaf_lower_bounds(&self, run: &LeafRun<'_>, base: usize, len: usize, out: &mut [f32; 8]) {
        // Level 1: envelope mindist on the iSAX summaries, batched.
        self.table.mindist_sq_soa(
            run.cols,
            run.stride as usize,
            run.base as usize + base,
            len,
            self.use_simd,
            out,
        );
    }

    #[inline]
    fn entry_distance(&self, entry: &LeafEntry, bound: f32, local: &mut LocalStats) -> Option<f32> {
        // Levels 2 and 3: LB_Keogh on the raw candidate, then full
        // banded DTW.
        let candidate = self.index.dataset.series(entry.pos as usize);
        crate::dtw::cascade(
            self.kernel,
            self.env,
            self.params,
            self.query,
            candidate,
            bound,
            local,
        )
    }
}
