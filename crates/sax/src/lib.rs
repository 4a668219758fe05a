//! iSAX summarization for the MESSI index.
//!
//! The indexable Symbolic Aggregate approXimation (iSAX; Shieh & Keogh,
//! KDD 2008) represents a z-normalized data series by (1) computing its
//! PAA and (2) quantizing each PAA segment against breakpoints chosen so
//! that a N(0,1) variate is equally likely to fall in each region
//! (§II-B of the MESSI paper, Fig. 1).
//!
//! This crate provides:
//!
//! * [`breakpoints`] — the N(0,1) quantile tables for every cardinality
//!   2¹..2⁸, derived from a single 256-ary table so that coarser symbols
//!   are exactly bit-prefixes of finer ones (the property the index tree
//!   relies on for splitting).
//! * [`word`] — [`word::SaxWord`] (full-cardinality summaries stored in
//!   leaves) and [`word::NodeWord`] (variable-cardinality summaries of
//!   inner nodes).
//! * [`convert`] — series → iSAX conversion (Alg. 3's
//!   `ConvertToiSAX`), with a reusable converter for the hot path.
//! * [`mindist`] — the lower-bound distance kernels: query-vs-node,
//!   query-vs-leaf-entry (with a per-query lookup table and an AVX2
//!   gather kernel — the paper's SIMD lower bounds), and the LB_Keogh
//!   envelope variants used for DTW search.
//! * [`root_key`] — mapping a summary to its root subtree (the first bit
//!   of each segment; at most 2^w subtrees).
//! * [`split`] — the iSAX2.0 balanced node-split policy used when leaves
//!   overflow.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod breakpoints;
pub mod convert;
pub mod mindist;
pub mod root_key;
pub mod split;
pub mod word;

pub use convert::{SaxConfig, SaxConverter};
pub use mindist::{FastScanLut, MindistTable};
pub use word::{NodeWord, SaxWord, CARD_BITS, MAX_CARDINALITY, MAX_SEGMENTS};
