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
//! * [`QueryExecutor`] — owns the index handle plus a lock-free
//!   [`messi_sync::SlotPool`] of warm [`crate::engine::QueryContext`]s,
//!   and dispatches any spec under any schedule through **one**
//!   chokepoint. After warm-up the per-query hot path performs zero
//!   queue or mindist-table allocations; [`QueryExecutor::prewarm`]
//!   makes that state reachable before the first real query.
//!
//! Everything above this layer is thin: [`crate::batch`] is two
//! compatibility wrappers, the `MessiIndex::search*` methods are batches
//! of one, and the CLI's `bench-query` subcommand is a command-line
//! spelling of `(QuerySpec, Schedule)`. Everything below is shared: the
//! executor adds **no** traversal logic of its own — every query is the
//! one-shard case of the plan → seed → search walk that
//! [`crate::shard`] also runs over many shards, and the `*_with` engine
//! entry points are that same walk under a fixed spec.

mod executor;
mod spec;

pub use executor::QueryExecutor;
pub use spec::{MetricSpec, Objective, QuerySpec, Schedule};
