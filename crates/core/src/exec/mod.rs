//! The pooled query-execution layer: one batch/concurrency frontend over
//! the Metric × Objective matrix.
//!
//! MESSI's evaluation measures throughput over *streams* of queries, and
//! the journal follow-up (*Fast Data Series Indexing for In-Memory Data*,
//! VLDBJ) together with ParIS+ frame query answering as a reusable
//! worker-pool **service** with per-worker scratch. This module is that
//! service, layered over the [`crate::engine`] driver:
//!
//! * [`QuerySpec`] — *what* one query computes: an [`Objective`] (exact
//!   1-NN, k-NN, ε-range, or δ-ε-approximate 1-NN) × a [`MetricSpec`]
//!   (Euclidean, banded DTW).
//! * [`Schedule`] — *how* a batch maps onto the workers: intra-query
//!   (the paper's protocol — queries sequential, each using all Ns
//!   workers) or inter-query (queries dispensed across workers, each
//!   answered single-threadedly for throughput).
//! * [`QueryExecutor`] — the single-index face of the one pooled
//!   executor, [`crate::shard::ShardedExecutor`]: its one-shard instance.
//!   It owns a lock-free [`messi_sync::SlotPool`] of warm
//!   [`crate::engine::QueryContext`]s and dispatches any spec under any
//!   schedule through **one** chokepoint. After warm-up the per-query
//!   hot path performs zero queue or mindist-table allocations;
//!   [`QueryExecutor::prewarm`] makes that state reachable before the
//!   first real query.
//!
//! Everything above this layer is thin: the `MessiIndex::search*`
//! methods are one query each, and the CLI's `bench-query` subcommand is
//! a command-line spelling of `(QuerySpec, Schedule)`. Everything below
//! is shared: the executor adds **no** traversal logic of its own —
//! every query is the plan → seed → search walk over a shard list, one
//! shard for a single index, and [`crate::exact::exact_search_with`] is
//! that same walk through a caller-owned context.

mod executor;
mod spec;

pub use executor::QueryExecutor;
pub use spec::{MetricSpec, Objective, QuerySpec, Schedule};
