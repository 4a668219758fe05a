//! The unified query engine.
//!
//! MESSI's query algorithm (Alg. 5–9) is one skeleton — traverse root
//! subtrees handed out by Fetch&Inc, prune by lower bound, order
//! surviving leaves in shared priority queues, drain them with second
//! filtering, and cascade per-entry lower bounds into early-abandoning
//! real distances. The journal follow-up (*Fast Data Series Indexing for
//! In-Memory Data*) presents 1-NN, k-NN, and approximate search
//! explicitly as instances of that skeleton; this module is the
//! skeleton, written once:
//!
//! * [`driver`](self) — the traversal/queue/drain loops, with a
//!   queue-less mode for fixed-bound objectives and built-in per-phase
//!   time collection (Fig. 13).
//! * `Metric` (private) — how bounds and real distances are computed:
//!   Euclidean with iSAX mindists, or banded DTW with the LB_Keogh
//!   envelope cascade (Fig. 19).
//! * `SearchObjective` (private) — what the query is looking for:
//!   1-NN's shrinking BSF, k-NN's k-th-best bound, range search's fixed
//!   ε², or δ-ε-approximate search's inflated `bsf/(1+ε)²` bound with a
//!   δ-derived early-termination budget.
//! * [`QueryContext`] — reusable scratch (queue set, barrier, mindist
//!   table) so batch workloads stop paying per-query allocations.
//! * `QueryPlan` / `ShardRun` (private) — the plan → seed → search steps
//!   of a query, written once: the plan picks the metric, the caller
//!   the objective.
//!
//! [`crate::exact`], [`crate::knn`], [`crate::range`], [`crate::dtw`],
//! and [`crate::approximate`] hold what is particular to their cell —
//! the objective to run, how its bound is seeded, what its answer and
//! statistics are. Any metric composes with any objective — DTW k-NN,
//! DTW range, and DTW δ-ε-approximate queries cost no extra code.

mod context;
mod driver;
mod metric;
mod objective;
mod plan;

pub use context::QueryContext;

pub(crate) use objective::{
    ApproxObjective, KnnObjective, NearestObjective, RangeObjective, SharedBound,
};
pub(crate) use plan::{QueryPlan, ShardRun};
