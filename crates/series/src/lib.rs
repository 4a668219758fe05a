//! Data-series substrate for the MESSI index.
//!
//! This crate provides everything the MESSI paper (Peng, Fatourou, Palpanas;
//! ICDE 2020) assumes *below* the index itself:
//!
//! * [`Dataset`] — the paper's in-memory `RawData` array: a flat,
//!   cache-friendly `f32` buffer holding fixed-length series back to back.
//! * [`znorm`] — z-normalization (§II-A: indices operate on series with
//!   mean 0 and standard deviation 1).
//! * [`paa`] — Piecewise Aggregate Approximation (§II-B), the first stage
//!   of the iSAX summarization pipeline.
//! * [`distance`] — Euclidean and Dynamic Time Warping distance kernels in
//!   scalar (*SISD*) and SIMD variants, with early abandoning, plus the
//!   LB_Keogh envelope machinery used for exact DTW search (§IV, Fig. 19).
//! * [`gen`] — workload generators: the paper's random-walk synthetic data
//!   (§IV-A) and synthetic stand-ins for the Seismic and SALD real
//!   datasets, plus query generation.
//! * [`io`] — a minimal binary container for persisting datasets to disk
//!   (used by the `messi` CLI).
//!
//! Distances are computed and compared **squared** throughout (squared
//! Euclidean distance is monotone in Euclidean distance, so 1-NN answers
//! are identical); take a square root only when a true metric value is
//! needed for presentation.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod distance;
pub mod error;
pub mod gen;
pub mod io;
pub mod paa;
pub mod stats;
pub mod types;
pub mod znorm;

pub use error::{Error, Result};
pub use types::{Dataset, DatasetBuilder};

/// Convenient re-exports for downstream crates.
pub mod prelude {
    pub use crate::distance::dtw::{dtw_sq, DtwParams};
    pub use crate::distance::euclidean::{ed_sq, ed_sq_early_abandon};
    pub use crate::distance::lb_keogh::Envelope;
    pub use crate::distance::Kernel;
    pub use crate::gen::{DatasetKind, SeriesGenerator};
    pub use crate::types::{Dataset, DatasetBuilder};
}
