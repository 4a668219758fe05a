//! # MESSI — In-Memory Data Series Indexing
//!
//! A complete Rust implementation of **MESSI** (Peng, Fatourou, Palpanas;
//! ICDE 2020): the first data-series index designed for in-memory
//! operation on modern hardware, answering *exact* 1-NN similarity-search
//! queries over very large series collections at interactive speeds by
//! exploiting SIMD, multi-core parallelism, and a carefully coordinated
//! concurrent query algorithm.
//!
//! This crate is a facade over the workspace:
//!
//! | module | contents |
//! |---|---|
//! | [`index`] (re-export of `messi_core`) | the MESSI index: parallel build, one unified query engine answering exact 1-NN / k-NN / range search under ED or DTW, and the pooled batch/concurrency executor over all of them |
//! | [`baselines`] | the paper's competitors: in-memory ParIS (SIMS), ParIS-TS, UCR Suite-P |
//! | [`series`] | datasets, distance kernels (ED/DTW/LB_Keogh, scalar + AVX2), workload generators |
//! | [`sax`] | iSAX summaries, breakpoints, lower-bound (mindist) kernels |
//! | [`sync`] | the coordination substrate: dispensers, barriers, BSF, concurrent priority queues, partitioned buffers |
//!
//! ## Quick start
//!
//! ```
//! use messi::prelude::*;
//! use std::sync::Arc;
//!
//! // An in-memory collection of 2,000 z-normalized random-walk series
//! // (the paper's synthetic workload), 256 points each.
//! let data = Arc::new(messi::series::gen::generate(DatasetKind::RandomWalk, 2_000, 7));
//!
//! // Build the index in parallel and answer an exact 1-NN query.
//! let (index, build_stats) = MessiIndex::build(Arc::clone(&data), &IndexConfig::default());
//! let queries = messi::series::gen::queries::generate_queries(DatasetKind::RandomWalk, 1, 7);
//! let (answer, query_stats) = index.search(queries.series(0), &QueryConfig::default());
//!
//! assert!(answer.pos < 2_000);
//! assert!(query_stats.real_distance_calcs < 2_000); // pruning at work
//! assert!(build_stats.num_leaves > 0);
//! ```
//!
//! See `examples/` for complete scenarios (quickstart, seismic similarity
//! monitoring, flight-anomaly detection, DTW search, k-NN
//! classification) and the `messi-bench` crate for the harness that
//! regenerates every figure of the paper's evaluation.

#![warn(missing_docs)]

/// The MESSI index itself (re-export of `messi_core`).
pub mod index {
    pub use messi_core::*;
}

/// The paper's baseline algorithms (re-export of `messi_baselines`).
pub mod baselines {
    pub use messi_baselines::*;
}

/// Data-series substrate (re-export of `messi_series`).
pub mod series {
    pub use messi_series::*;
}

/// iSAX summarization (re-export of `messi_sax`).
pub mod sax {
    pub use messi_sax::*;
}

/// Parallel-coordination substrate (re-export of `messi_sync`).
pub mod sync {
    pub use messi_sync::*;
}

pub use messi_core::{
    load_index, load_sharded, save_index, save_sharded, BuildStats, DeltaIndex, IndexConfig,
    IndexServer, IngestError, IngestOptions, IngestReport, IngestStats, LogError, MessiIndex,
    MetricSpec, Objective, PersistError, QueryAnswer, QueryConfig, QueryContext, QueryExecutor,
    QuerySpec, QueryStats, ReplayReport, Schedule, ServeConfig, ServeSummary, ShardedExecutor,
    ShardedIndex, StopReason,
};

/// The commonly needed imports in one place.
pub mod prelude {
    pub use messi_core::{
        load_index, load_sharded, save_index, save_sharded, BuildStats, IndexConfig, MessiIndex,
        MetricSpec, Objective, PersistError, QueryAnswer, QueryConfig, QueryContext, QueryExecutor,
        QuerySpec, QueryStats, Schedule, ShardedExecutor, ShardedIndex, StopReason,
    };
    pub use messi_series::distance::dtw::DtwParams;
    pub use messi_series::distance::Kernel;
    pub use messi_series::gen::DatasetKind;
    pub use messi_series::Dataset;
}
