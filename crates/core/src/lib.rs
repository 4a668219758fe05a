//! The MESSI in-memory data-series index (Peng, Fatourou, Palpanas;
//! ICDE 2020).
//!
//! MESSI builds an iSAX tree over an in-memory collection of data series
//! entirely in parallel, and answers *exact* 1-NN (and k-NN) similarity
//! search queries with a tree-driven algorithm based on concurrent
//! priority queues — the first index to answer exact queries over
//! 100 GB collections at interactive (~50 ms) speeds.
//!
//! # Quick start
//!
//! ```
//! use messi_core::{IndexConfig, MessiIndex, QueryConfig};
//! use messi_series::gen::{self, DatasetKind};
//! use std::sync::Arc;
//!
//! // 1000 random-walk series of length 256 (the paper's default shape).
//! let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 1000, 42));
//! let queries = messi_series::gen::queries::generate_queries(DatasetKind::RandomWalk, 1, 42);
//!
//! let (index, _stats) = MessiIndex::build(Arc::clone(&data), &IndexConfig::default());
//! let (answer, _qstats) = index.search(queries.series(0), &QueryConfig::default());
//!
//! // The answer is exact: identical to a brute-force scan.
//! let (bf_pos, bf_dist) = data.nearest_neighbor_brute_force(queries.series(0));
//! assert_eq!(answer.pos as usize, bf_pos);
//! assert!((answer.dist_sq - bf_dist).abs() <= 1e-3 * bf_dist.max(1.0));
//! ```
//!
//! # Module map (↔ paper sections)
//!
//! * [`config`] — index/query parameters (§IV-B's tuning knobs).
//! * [`node`] — arena-backed tree storage: root fan-out ≤ 2^w, binary
//!   inner nodes, leaves holding iSAX summaries and positions (§II-B,
//!   Fig. 1d), groups of root subtrees flattened into one preorder node
//!   array, one packed position pool, and the summaries once, as
//!   segment-major symbol columns.
//! * [`build`] — two-phase parallel construction (Alg. 1–4, Fig. 3).
//! * [`index`] — the [`MessiIndex`] handle and approximate search.
//! * [`persist`] — versioned, checksummed index snapshots: save a built
//!   index to a file, reload it and answer queries without rebuilding.
//! * [`engine`] — the unified query engine: one generic traversal/queue/
//!   drain driver (Alg. 5–9) parameterized by a metric (Euclidean or
//!   DTW) and a search objective (1-NN, k-NN, or ε-range), plus the
//!   reusable per-worker [`engine::QueryContext`] scratch.
//! * The objective search steps, each the per-shard step of every query
//!   of its objective, under either metric (queries themselves go
//!   through the `MessiIndex::search*` methods or an executor):
//!   * [`exact`] — exact 1-NN (Alg. 5–9, Fig. 4), in single-queue (SQ)
//!     and multi-queue (MQ) modes, plus [`exact::exact_search_with`],
//!     the one entry point over a caller-owned context;
//!   * [`knn`] — exact k-NN (the paper's k-NN classification
//!     application, §I);
//!   * [`range`] — exact ε-range (the companion similarity-search
//!     primitive of the iSAX index family), the engine's queue-less mode;
//!   * [`approximate`] — ng- and δ-ε-approximate 1-NN with error bounds
//!     (the journal version's fourth query mode): an ε-inflated bound
//!     and a δ-derived early-termination budget.
//! * [`dtw`] — the DTW metric (Fig. 19): the LB_Keogh envelope summary
//!   and the raw-series cascade every objective runs under DTW.
//! * [`exec`] — the pooled query-execution layer: [`exec::QueryExecutor`],
//!   the single-index face of the one pooled executor
//!   ([`ShardedExecutor`]), owning warm per-worker contexts and serving
//!   any objective × metric as single queries or batches under
//!   intra-query (paper protocol) or inter-query (throughput)
//!   scheduling.
//! * [`stats`] — build/query statistics: distance-calculation counters
//!   (Fig. 17) and per-phase time breakdown (Fig. 13), now reported
//!   uniformly by every objective.
//! * [`serve`] — the index service daemon: a hand-rolled HTTP/1.1
//!   frontend over one prewarmed sharded executor with readiness
//!   gating, a bounded load-shedding admission gate, live ingest
//!   (`POST /ingest`), Prometheus metrics (including per-shard counter
//!   families), graceful drain, and the matching load-smoke client.
//! * [`ingest`] — live ingest: the [`DeltaIndex`] epoch/RCU seam that
//!   absorbs appended series while queries keep reading immutable
//!   published arenas plus an overlay appended in place to the
//!   collection buffer, republishing fresh
//!   arenas on size/cadence triggers, with a framed checksummed delta
//!   log for durability (replayed by `--load`, truncated by
//!   `messi compact`).
//! * [`shard`] — sharded multi-index scatter-gather: a [`ShardedIndex`]
//!   of N independent [`MessiIndex`] shards over contiguous position
//!   ranges, built in parallel, queried by fanning each query out to
//!   per-shard engines that share one atomic cross-shard BSF for
//!   pruning, and persisted as a per-shard snapshot directory with a
//!   checksummed manifest.
//! * [`validate`] — index invariant checker used by the test suite.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod approximate;
pub mod build;
pub mod config;
pub mod dtw;
pub mod engine;
pub mod exact;
pub mod exec;
pub mod index;
pub mod ingest;
pub mod knn;
pub mod node;
pub mod persist;
pub mod range;
pub mod serve;
pub mod shard;
pub mod stats;
pub mod validate;

pub use config::{auto_leaf_capacity, IndexConfig, QueryConfig, RunBatchPolicy};
pub use engine::QueryContext;
pub use exact::QueryAnswer;
pub use exec::{MetricSpec, Objective, QueryExecutor, QuerySpec, Schedule};
pub use index::MessiIndex;
pub use ingest::{
    DeltaIndex, IngestError, IngestOptions, IngestReport, IngestStats, LogError, ReplayReport,
};
pub use persist::{load_index, save_index, PersistError};
pub use serve::{IndexServer, ServeConfig, ServeSummary};
pub use shard::{global_pos, load_sharded, save_sharded, ShardedExecutor, ShardedIndex};
pub use stats::{BuildStats, QueryStats, StopReason, TimeBreakdown};
