//! Search objectives: what a query is looking for.
//!
//! The driver in [`super::driver`] is parameterized by a
//! [`SearchObjective`] that supplies the pruning bound and consumes
//! surviving real distances. The three concrete objectives mirror the
//! three similarity-search primitives of the iSAX index family:
//!
//! * [`NearestObjective`] — exact 1-NN: a scalar shrinking Best-So-Far
//!   (Alg. 5–9), held in a lock-free [`AtomicBsf`].
//! * [`KnnObjective`] — exact k-NN: the bound is the k-th best distance
//!   held by a shared [`KnnSet`](crate::knn::KnnSet).
//! * [`RangeObjective`] — ε-range: a *fixed* bound, so no priority order
//!   (and hence no queues or barrier) is needed — the driver runs in
//!   queue-less mode and matches are collected instead of minimized.
//! * [`ApproxObjective`] — δ-ε-approximate 1-NN (the journal version's
//!   fourth query mode): a shrinking BSF whose *pruning* bound is the
//!   inflated `bsf/(1+ε)²`, with an optional shared leaf-visit budget
//!   derived from δ that vetoes further queue processing once spent.
//!
//! The unification hinges on one discipline shared by all of them: a
//! lower bound `>= bound()` prunes, and a real distance `< bound()` is
//! offered. For range search the strict comparison is arranged by setting
//! the bound to the smallest float *above* ε², so `d <= ε²` acceptance
//! and `lb > ε²` pruning fall out of the same comparisons the
//! shrinking-bound objectives use.

use crate::exact::QueryAnswer;
use crate::knn::KnnSet;
use crate::shard::global_pos;
use crate::stats::StopReason;
use messi_sync::{AtomicBsf, Counter};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU32, Ordering};

/// A cross-shard best-so-far *distance* (no position): the f32 bits of
/// the tightest squared distance any shard has found, shrunk with a
/// single `fetch_min`. Non-negative floats order like their bit
/// patterns, so the atomic integer min *is* the float min.
///
/// This is the one piece of shared state behind sharded scatter-gather
/// pruning ([`crate::shard`]): every shard's 1-NN/approximate objective
/// publishes its BSF improvements here and reads its pruning bound from
/// here, so a tight early answer in one shard prunes every other
/// shard's traversal. Positions stay shard-local (the gather step
/// globalizes the winning shard's position); k-NN shares its
/// [`KnnSet`] instead, and range search has a fixed bound and shares
/// nothing.
#[derive(Debug)]
pub(crate) struct SharedBound(AtomicU32);

impl SharedBound {
    pub(crate) fn new() -> Self {
        Self(AtomicU32::new(f32::INFINITY.to_bits()))
    }

    /// The current global bound.
    #[inline]
    pub(crate) fn load(&self) -> f32 {
        f32::from_bits(self.0.load(Ordering::Acquire))
    }

    /// Shrinks the bound to `dist_sq` if tighter. `dist_sq` must be a
    /// non-negative, non-NaN squared distance.
    #[inline]
    pub(crate) fn update_min(&self, dist_sq: f32) {
        self.0.fetch_min(dist_sq.to_bits(), Ordering::AcqRel);
    }
}

/// What a query is searching for: the pruning bound and the consumer of
/// surviving real distances. Statically dispatched — each objective
/// compiles its own copy of the driver's hot loops.
pub(crate) trait SearchObjective: Sync {
    /// Per-worker result scratch ([`RangeObjective`] batches hits here to
    /// take its result lock once per worker, not once per match).
    type Local: Default + Send;

    /// Whether the ordered queue phase is needed. `false` selects the
    /// driver's queue-less mode: surviving leaves are scanned directly
    /// during traversal, with no priority queues and no barrier.
    const USES_QUEUES: bool;

    /// Current pruning bound: a lower bound `>= bound()` cannot
    /// contribute; a real distance `< bound()` is offered.
    fn bound(&self) -> f32;

    /// Offers a surviving real distance. Returns `true` when the global
    /// result (and therefore the bound) improved — the driver counts
    /// these as BSF updates.
    fn offer(&self, local: &mut Self::Local, dist_sq: f32, pos: u32) -> bool;

    /// Notifies the objective that a candidate (a tree node during
    /// traversal, or a popped queue entry at second filtering) with lower
    /// bound `lb` was pruned by [`SearchObjective::bound`]. Exact
    /// objectives ignore it; the approximate objective uses it to count
    /// prunes that only its ε-inflated bound allowed.
    #[inline]
    fn on_prune(&self, _local: &mut Self::Local, _lb: f32) {}

    /// Asks permission to scan one more leaf during queue processing.
    /// Returning `false` finishes the worker's current queue — the early
    /// termination hook of the δ-budgeted approximate objective. Exact
    /// objectives always proceed. The driver charges one call per
    /// *member leaf* of a popped run, so accounting is independent of
    /// coalescing.
    #[inline]
    fn admit_leaf(&self, _local: &mut Self::Local) -> bool {
        true
    }

    /// Whether the driver may coalesce adjacent surviving leaves into
    /// multi-leaf queued runs for this objective. Exact objectives
    /// always allow it (run keys are member-minimum mindists, so
    /// pruning and answers are unchanged); a δ-budgeted objective
    /// vetoes it, because the budget's *order* of leaf charges — and
    /// hence which leaves a tiny budget reaches — must match the
    /// per-leaf schedule exactly.
    #[inline]
    fn coalescing_allowed(&self) -> bool {
        true
    }

    /// Folds a worker's local results into the shared result at worker
    /// exit.
    fn absorb(&self, local: Self::Local);
}

/// Exact 1-NN: a scalar shrinking BSF seeded by the approximate search.
///
/// Inside a sharded scatter the objective additionally mirrors every BSF
/// improvement into the cross-shard [`SharedBound`] and prunes against
/// it. The shared bound is the min over *all* shards' offers and seeds,
/// so it is always `<=` the local BSF — pruning against it is both
/// correct (it can never undercut the true global answer distance) and
/// strictly tighter than the local bound.
#[derive(Debug)]
pub(crate) struct NearestObjective<'s> {
    bsf: AtomicBsf,
    shared: Option<&'s SharedBound>,
}

impl<'s> NearestObjective<'s> {
    pub(crate) fn new(dist_sq: f32, pos: u32, shared: Option<&'s SharedBound>) -> Self {
        Self {
            bsf: AtomicBsf::with_initial(dist_sq, pos),
            shared,
        }
    }

    /// The final shard-local `(squared distance, position)` answer.
    pub(crate) fn answer(&self) -> (f32, u32) {
        self.bsf.load_with_pos()
    }
}

impl SearchObjective for NearestObjective<'_> {
    type Local = ();
    const USES_QUEUES: bool = true;

    #[inline]
    fn bound(&self) -> f32 {
        match self.shared {
            Some(shared) => shared.load(),
            None => self.bsf.load(),
        }
    }

    #[inline]
    fn offer(&self, _local: &mut (), dist_sq: f32, pos: u32) -> bool {
        let improved = self.bsf.update_min(dist_sq, pos);
        if improved {
            if let Some(shared) = self.shared {
                shared.update_min(dist_sq);
            }
        }
        improved
    }

    fn absorb(&self, _local: ()) {}
}

/// Exact k-NN: the bound is the k-th best distance of a shared
/// [`KnnSet`] (`+inf` until k candidates exist).
///
/// Under sharding the *same* `KnnSet` is shared by every shard's
/// objective — the k-th-best bound is then automatically the global one
/// — and `offset` globalizes the shard-local positions on the way in
/// (shard ranges are disjoint, so the set's position dedup still
/// works). Solo searches pass offset 0, making globalization the
/// identity.
pub(crate) struct KnnObjective<'s> {
    set: &'s KnnSet,
    /// Global position of this shard's first series; 0 when solo.
    offset: u64,
    /// The best distance this objective has offered.
    best_offered: SharedBound,
}

impl<'s> KnnObjective<'s> {
    pub(crate) fn new(set: &'s KnnSet, offset: u64) -> Self {
        Self {
            set,
            offset,
            best_offered: SharedBound::new(),
        }
    }

    /// The best distance offered so far (`+inf` if none) — after the
    /// seed step, the shard's rank in a seed-ordered walk.
    pub(crate) fn best_offered(&self) -> f32 {
        self.best_offered.load()
    }
}

impl SearchObjective for KnnObjective<'_> {
    type Local = ();
    const USES_QUEUES: bool = true;

    #[inline]
    fn bound(&self) -> f32 {
        self.set.bound()
    }

    #[inline]
    fn offer(&self, _local: &mut (), dist_sq: f32, pos: u32) -> bool {
        self.best_offered.update_min(dist_sq);
        self.set.offer(dist_sq, global_pos(self.offset, pos))
    }

    fn absorb(&self, _local: ()) {}
}

/// ε-range: a fixed bound; every surviving distance is a match.
///
/// Range shares nothing across shards — the bound never moves — so the
/// only shard awareness is `offset`, which globalizes hit positions as
/// they are recorded (identity when solo).
#[derive(Debug)]
pub(crate) struct RangeObjective {
    /// `next_up(ε²)` — fixed for the whole query, so the driver's strict
    /// comparisons accept `d <= ε²` and prune `lb > ε²` exactly.
    bound: f32,
    /// Global position of this shard's first series; 0 when solo.
    offset: u64,
    hits: Mutex<Vec<QueryAnswer>>,
}

impl RangeObjective {
    /// # Panics
    ///
    /// Panics if `epsilon_sq` is negative or NaN.
    pub(crate) fn new(epsilon_sq: f32, offset: u64) -> Self {
        assert!(
            epsilon_sq >= 0.0 && !epsilon_sq.is_nan(),
            "epsilon_sq must be a non-negative number"
        );
        Self {
            bound: next_up(epsilon_sq),
            offset,
            hits: Mutex::new(Vec::new()),
        }
    }

    /// All matches, ascending by distance (position breaks ties).
    pub(crate) fn into_sorted(self) -> Vec<QueryAnswer> {
        let mut answers = self.hits.into_inner();
        answers.sort_by(|a, b| a.dist_sq.total_cmp(&b.dist_sq).then(a.pos.cmp(&b.pos)));
        answers
    }
}

impl SearchObjective for RangeObjective {
    type Local = Vec<QueryAnswer>;
    const USES_QUEUES: bool = false;

    #[inline]
    fn bound(&self) -> f32 {
        self.bound
    }

    #[inline]
    fn offer(&self, local: &mut Vec<QueryAnswer>, dist_sq: f32, pos: u32) -> bool {
        local.push(QueryAnswer {
            pos: global_pos(self.offset, pos),
            dist_sq,
        });
        // The bound is fixed: finding a match never improves it, so range
        // queries report zero BSF updates (there is no BSF).
        false
    }

    fn absorb(&self, local: Vec<QueryAnswer>) {
        if !local.is_empty() {
            self.hits.lock().extend(local);
        }
    }
}

/// Per-worker scratch of [`ApproxObjective`]: accounting accumulated in
/// plain registers and absorbed into the shared counters at worker exit.
#[derive(Debug, Default)]
pub(crate) struct ApproxLocal {
    /// Prunes that only the ε-inflated bound allowed (`lb < bsf` but
    /// `lb >= bsf/(1+ε)²`).
    inflation_prunes: u64,
}

/// δ-ε-approximate 1-NN: the journal paper's probabilistic query mode as
/// a fourth objective over the same driver.
///
/// Two deviations from [`NearestObjective`], both vanishing at the exact
/// corner `ε = 0, δ = 1`:
///
/// * **ε-inflated pruning** — [`SearchObjective::bound`] returns
///   `bsf/(1+ε)²` instead of the raw BSF (all values squared distances),
///   so any candidate it prunes has true squared distance
///   `>= bsf_final/(1+ε)²`; the returned answer is within
///   `(1+ε)` of the true nearest neighbor *in distance terms* whenever
///   the traversal runs to completion. At `ε = 0` the scale factor is
///   exactly `1.0`, making every comparison bit-identical to exact
///   search.
/// * **δ-derived visit budget** — an optional shared countdown of queue-
///   phase leaf scans. Once spent, [`SearchObjective::admit_leaf`] vetoes
///   further scanning and the queues wind down; the best-so-far at that
///   point is the answer. The budget is `ceil(δ · total leaves)` (chosen
///   by the adapter), so `δ = 1` can never exhaust it — every queued
///   leaf is admitted at most once — and the guarantee degrades
///   gracefully as δ shrinks: each queue is drained best-bound-first, so
///   the budget goes to (approximately, under the multi-queue
///   configuration — exactly, single-queue) the most promising leaves.
///
/// Under sharding the ε-inflation composes with the cross-shard
/// [`SharedBound`]: the pruning bound becomes `shared/(1+ε)²`, and BSF
/// improvements are mirrored into the shared bound (raw, uninflated —
/// the inflation is applied at read time, once). The δ budget stays
/// per-shard: each shard's budget is derived from *its own* leaf count.
pub(crate) struct ApproxObjective<'s> {
    bsf: AtomicBsf,
    /// Cross-shard raw BSF, when part of a sharded scatter.
    shared: Option<&'s SharedBound>,
    /// `(1+ε)⁻²`, multiplied into the BSF to form the pruning bound.
    /// Exactly `1.0` when ε = 0.
    bound_scale: f32,
    /// Remaining queue-phase leaf-visit budget; `None` = unlimited
    /// (δ = 1).
    budget: Option<AtomicI64>,
    /// Set when the budget ran out before the queues drained naturally.
    exhausted: AtomicBool,
    /// Total ε-inflation prunes, folded in at worker exit.
    inflation_prunes: Counter,
}

impl<'s> ApproxObjective<'s> {
    /// # Panics
    ///
    /// Panics if `epsilon` is negative or non-finite.
    pub(crate) fn new(
        dist_sq: f32,
        pos: u32,
        epsilon: f32,
        budget: Option<u64>,
        shared: Option<&'s SharedBound>,
    ) -> Self {
        assert!(
            epsilon >= 0.0 && epsilon.is_finite(),
            "epsilon must be a finite non-negative number"
        );
        let one_plus = 1.0 + epsilon;
        Self {
            bsf: AtomicBsf::with_initial(dist_sq, pos),
            shared,
            bound_scale: 1.0 / (one_plus * one_plus),
            budget: budget.map(|b| AtomicI64::new(b.min(i64::MAX as u64) as i64)),
            exhausted: AtomicBool::new(false),
            inflation_prunes: Counter::new(),
        }
    }

    /// The raw (uninflated) BSF this objective prunes relative to: the
    /// cross-shard bound when sharded, the local BSF when solo.
    #[inline]
    fn raw_bound(&self) -> f32 {
        match self.shared {
            Some(shared) => shared.load(),
            None => self.bsf.load(),
        }
    }

    /// The final shard-local `(squared distance, position)` answer.
    pub(crate) fn answer(&self) -> (f32, u32) {
        self.bsf.load_with_pos()
    }

    /// How the queue phase ended.
    pub(crate) fn stop_reason(&self) -> StopReason {
        if self.exhausted.load(Ordering::Acquire) {
            StopReason::BudgetExhausted
        } else {
            StopReason::Completed
        }
    }

    /// Prunes that only the ε-inflated bound allowed (0 when ε = 0).
    pub(crate) fn inflation_prunes(&self) -> u64 {
        self.inflation_prunes.get()
    }
}

impl SearchObjective for ApproxObjective<'_> {
    type Local = ApproxLocal;
    const USES_QUEUES: bool = true;

    #[inline]
    fn bound(&self) -> f32 {
        self.raw_bound() * self.bound_scale
    }

    #[inline]
    fn offer(&self, _local: &mut ApproxLocal, dist_sq: f32, pos: u32) -> bool {
        let improved = self.bsf.update_min(dist_sq, pos);
        if improved {
            if let Some(shared) = self.shared {
                shared.update_min(dist_sq);
            }
        }
        improved
    }

    #[inline]
    fn on_prune(&self, local: &mut ApproxLocal, lb: f32) {
        // The raw BSF would have kept this candidate; only the inflation
        // cut it. Never fires at ε = 0, where bound() == bsf.
        if lb < self.raw_bound() {
            local.inflation_prunes += 1;
        }
    }

    #[inline]
    fn coalescing_allowed(&self) -> bool {
        // A finite δ-budget charges leaves in pop order; coalescing
        // would reorder which leaves a tiny budget reaches. δ = 1
        // (no budget) has nothing to preserve and keeps the batching.
        self.budget.is_none()
    }

    #[inline]
    fn admit_leaf(&self, _local: &mut ApproxLocal) -> bool {
        match &self.budget {
            None => true,
            Some(budget) => {
                if budget.fetch_sub(1, Ordering::AcqRel) > 0 {
                    true
                } else {
                    self.exhausted.store(true, Ordering::Release);
                    false
                }
            }
        }
    }

    fn absorb(&self, local: ApproxLocal) {
        self.inflation_prunes.add(local.inflation_prunes);
    }
}

/// The strict pruning bound for an inclusive radius `x` (non-negative,
/// non-NaN): the smallest f32 whose strict comparisons reproduce the
/// inclusive ones — `d < next_up(x) ⟺ d <= x` for finite distances.
///
/// Edge radii need care: for `x = 0` the result is the smallest positive
/// *subnormal* (so subnormal distances are still excluded, exactly like
/// `d <= 0`), and `x = +inf` maps to itself (incrementing the bit
/// pattern of `+inf` would produce NaN, under which nothing prunes *and*
/// nothing is accepted — an unbounded query would silently return no
/// matches).
#[inline]
pub(super) fn next_up(x: f32) -> f32 {
    if x == 0.0 {
        f32::from_bits(1)
    } else if x.is_infinite() {
        x
    } else {
        f32::from_bits(x.to_bits() + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_up_is_strictly_greater() {
        for x in [0.0f32, 1.0, 123.456, 1e30, f32::MAX] {
            assert!(next_up(x) > x);
        }
    }

    #[test]
    fn next_up_edge_radii() {
        // ε² = 0 must not admit subnormal distances (`d <= 0` semantics).
        let tiny = f32::from_bits(1);
        assert!(tiny >= next_up(0.0), "subnormal admitted at radius 0");
        assert!(0.0 < next_up(0.0));
        // ε² = +inf must keep accepting everything, not become NaN.
        let b = next_up(f32::INFINITY);
        assert!(!b.is_nan());
        assert!(f32::MAX < b, "unbounded radius accepts any finite distance");
    }

    #[test]
    fn range_objective_with_infinite_radius_accepts_everything() {
        let o = RangeObjective::new(f32::INFINITY, 0);
        let mut local = Vec::new();
        assert!(1e30 < o.bound());
        assert!(!o.offer(&mut local, 1e30, 9));
        o.absorb(local);
        assert_eq!(o.into_sorted().len(), 1);
    }

    #[test]
    fn nearest_objective_shrinks_monotonically() {
        let o = NearestObjective::new(10.0, 3, None);
        assert_eq!(o.bound(), 10.0);
        assert!(o.offer(&mut (), 4.0, 7));
        assert!(!o.offer(&mut (), 6.0, 9), "worse than bound");
        assert_eq!(o.answer(), (4.0, 7));
    }

    #[test]
    fn range_objective_accepts_boundary_distance() {
        let o = RangeObjective::new(2.0, 0);
        let mut local = Vec::new();
        // `d <= ε²` must pass the driver's strict `d < bound()` test.
        assert!(2.0 < o.bound());
        assert!(2.0f32.to_bits() + 1 >= o.bound().to_bits());
        assert!(!o.offer(&mut local, 2.0, 1), "range has no BSF to update");
        o.absorb(local);
        let hits = o.into_sorted();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].pos, 1);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn range_objective_rejects_negative_epsilon() {
        RangeObjective::new(-1.0, 0);
    }

    #[test]
    fn approx_objective_at_exact_corner_matches_nearest() {
        // ε = 0, δ = 1: the bound is the raw BSF bit-for-bit and every
        // leaf is admitted — the NearestObjective contract exactly.
        let o = ApproxObjective::new(10.0, 3, 0.0, None, None);
        assert_eq!(o.bound().to_bits(), 10.0f32.to_bits());
        let mut local = ApproxLocal::default();
        assert!(o.admit_leaf(&mut local));
        assert!(o.offer(&mut local, 4.0, 7));
        assert_eq!(o.bound().to_bits(), 4.0f32.to_bits());
        assert!(!o.offer(&mut local, 6.0, 9), "worse than bound");
        o.on_prune(&mut local, 5.0);
        o.absorb(local);
        assert_eq!(o.answer(), (4.0, 7));
        assert_eq!(o.stop_reason(), StopReason::Completed);
        assert_eq!(o.inflation_prunes(), 0, "no inflation at ε = 0");
    }

    #[test]
    fn approx_objective_inflates_the_bound_and_counts_it() {
        let o = ApproxObjective::new(9.0, 1, 0.5, None, None);
        // bound = 9 / 1.5² = 4.
        assert!((o.bound() - 4.0).abs() < 1e-6);
        let mut local = ApproxLocal::default();
        // lb in [bound, bsf): pruned only because of the inflation.
        o.on_prune(&mut local, 5.0);
        // lb >= bsf: the raw BSF would have pruned it too.
        o.on_prune(&mut local, 20.0);
        o.absorb(local);
        assert_eq!(o.inflation_prunes(), 1);
    }

    #[test]
    fn approx_objective_budget_vetoes_after_exhaustion() {
        let o = ApproxObjective::new(1.0, 0, 0.0, Some(2), None);
        let mut local = ApproxLocal::default();
        assert!(o.admit_leaf(&mut local));
        assert!(o.admit_leaf(&mut local));
        assert!(!o.admit_leaf(&mut local), "budget of 2 spent");
        assert!(!o.admit_leaf(&mut local), "stays vetoed");
        o.absorb(local);
        assert_eq!(o.stop_reason(), StopReason::BudgetExhausted);
    }

    #[test]
    #[should_panic(expected = "finite non-negative")]
    fn approx_objective_rejects_negative_epsilon() {
        ApproxObjective::new(1.0, 0, -0.1, None, None);
    }
}
