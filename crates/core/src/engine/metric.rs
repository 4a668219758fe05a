//! Distance metrics: how bounds and real distances are computed.
//!
//! The second axis of the engine's (metric × objective) matrix. Both
//! metrics bound by **one lookup**: the query's [`MindistTable`] — filled
//! from its PAA for Euclidean search, from its LB_Keogh envelope's PAAs
//! for DTW — holds the contribution of every region of every
//! cardinality, so the driver resolves arena roots (8 per sweep), inner
//! nodes and leaf entries from it without asking which metric it
//! serves. Leaf entries are bounded in two tiers over the SoA columns: a
//! 4-bit fast scan prunes 32 entries per step from the table's
//! 16-region level, and the entries it keeps take the f32 bound, 8 per
//! SoA chunk (each tier SIMD or its bit-identical scalar twin). What a
//! [`Metric`] adds is the rest of the per-entry cascade: the
//! early-abandoning real distance of Fig. 4/Alg. 9 for Euclidean search,
//! LB_Keogh then banded DTW (§IV, Fig. 19's
//! `mindist_env ≤ LB_Keogh ≤ DTW`) for DTW.
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
use crate::node::LeafEntry;
use crate::stats::LocalStats;
use messi_sax::mindist::MindistTable;
use messi_series::distance::dtw::DtwParams;
use messi_series::distance::euclidean::ed_sq_early_abandon_with;
use messi_series::distance::lb_keogh::Envelope;
use messi_series::distance::Kernel;

/// How the engine computes lower bounds and real distances. Statically
/// dispatched; implementations hold per-query read-only state (query,
/// envelope, mindist table) by reference.
pub(crate) trait Metric: Sync {
    /// The query's mindist table — the node bound of Alg. 7 line 1, the
    /// root sweep and the batched leaf-entry bound are all lookups in it
    /// — and whether its batched kernels take the SIMD path.
    fn lookup(&self) -> (&MindistTable, bool);

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
    table: &'q MindistTable,
    kernel: Kernel,
    use_simd: bool,
}

impl<'q> EuclideanMetric<'q> {
    pub(crate) fn new(
        index: &'q MessiIndex,
        query: &'q [f32],
        table: &'q MindistTable,
        kernel: Kernel,
    ) -> Self {
        Self {
            index,
            query,
            table,
            kernel,
            use_simd: kernel.uses_simd(),
        }
    }
}

impl Metric for EuclideanMetric<'_> {
    #[inline]
    fn lookup(&self) -> (&MindistTable, bool) {
        (self.table, self.use_simd)
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
            table,
            kernel,
            use_simd: kernel.uses_simd(),
        }
    }
}

impl Metric for DtwMetric<'_> {
    #[inline]
    fn lookup(&self) -> (&MindistTable, bool) {
        // Level 1 of the cascade: the envelope mindist, by table.
        (self.table, self.use_simd)
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
