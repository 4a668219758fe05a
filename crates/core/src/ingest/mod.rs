//! Live ingest: incremental inserts behind an epoch seam, with
//! delta-log durability.
//!
//! A built index is immutable; this module grows one anyway. The
//! [`DeltaIndex`] wraps a [`ShardedIndex`](crate::shard::ShardedIndex)
//! behind an epoch/RCU publication seam. The collection is one buffer
//! that grows **in place**: an appended batch is written once into
//! spare capacity no published view covers, and the next epoch's view
//! of the collection is simply longer. The tail the index does not
//! cover yet is the *overlay*, which queries brute-force alongside the
//! published arenas; a republish hands the same view to the index
//! (which inserts the overlay into the last shard's leaves in one merge
//! pass — no series moves, no subtree is rebuilt unless a leaf
//! overflows) and swaps in the next epoch. The republish runs on a
//! background thread, off the ack path: the insert that crosses the
//! size trigger starts it and returns, and the writer waits for it only
//! when the next one is due (boot replay, `index`, `republish`,
//! `checkpoint_log` and drop wait too). Readers take no lock on the read
//! path: they clone an `Arc` snapshot of the current epoch and query it
//! to completion even while writers publish successors.
//!
//! Durability is a framed, checksummed delta log ([`DeltaLog`]): every
//! accepted batch is appended and fsynced before it becomes queryable,
//! boot decodes the log straight into the collection buffer and
//! republishes once, and compaction re-saves the grown collection and
//! truncates the log. Torn tails are detected by checksum, reported
//! loudly, and dropped — the intact prefix is recovered.

mod delta;
mod log;

pub use delta::{DeltaIndex, IngestOptions, IngestReport, IngestStats};
pub use log::{DeltaLog, LogError, LogFrames, ReplayReport};

/// What went wrong accepting an ingest batch.
#[derive(Debug)]
pub enum IngestError {
    /// The batch's series length differs from the indexed collection's.
    ShapeMismatch {
        /// Series length of the indexed collection.
        expected: usize,
        /// Series length of the rejected batch.
        got: usize,
    },
    /// A batch series holds a NaN or infinite value.
    NonFinite {
        /// Position of the offending series within the batch.
        pos: usize,
        /// Index of the offending point within that series.
        index: usize,
    },
    /// The batch holds no series.
    EmptyBatch,
    /// Accepting the batch would push a shard past the `u32`
    /// local-position ceiling. Build a new snapshot with more shards
    /// (`--shards N`) to keep growing.
    PositionOverflow {
        /// Series already indexed by the absorbing shard (plus any
        /// pending overlay).
        existing: u64,
        /// Series the rejected batch would add.
        incoming: u64,
    },
    /// The index could not be regrown (internal invariant violation).
    Corrupt(String),
    /// The delta log rejected the append or replay.
    Log(LogError),
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ShapeMismatch { expected, got } => write!(
                f,
                "batch series length {got} does not match indexed length {expected}"
            ),
            Self::NonFinite { pos, index } => write!(
                f,
                "batch series {pos} holds a non-finite value at point {index}"
            ),
            Self::EmptyBatch => write!(f, "ingest batch holds no series"),
            Self::PositionOverflow { existing, incoming } => write!(
                f,
                "batch of {incoming} series would push the shard past the u32 \
                 local-position ceiling ({existing} already indexed); rebuild \
                 with more shards (--shards N) to keep growing"
            ),
            Self::Corrupt(msg) => write!(f, "index regrow failed: {msg}"),
            Self::Log(e) => write!(f, "delta log: {e}"),
        }
    }
}

impl std::error::Error for IngestError {}

impl From<LogError> for IngestError {
    fn from(e: LogError) -> Self {
        Self::Log(e)
    }
}

/// Checks the `u32` local-position ceiling for one index: `existing`
/// series already addressed plus `incoming` new ones must not exceed
/// `u32::MAX` total (positions `0..len` are stored as `u32`, leaving
/// `u32::MAX` itself free as a sentinel) — the same bound
/// `assert_positions_fit` enforces with a panic at build time.
pub(crate) fn check_position_ceiling(existing: u64, incoming: u64) -> Result<(), IngestError> {
    match existing.checked_add(incoming) {
        Some(total) if total <= u64::from(u32::MAX) => Ok(()),
        _ => Err(IngestError::PositionOverflow { existing, incoming }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn position_ceiling_is_a_typed_error_not_an_assert() {
        assert!(check_position_ceiling(0, u64::from(u32::MAX)).is_ok());
        assert!(check_position_ceiling(u64::from(u32::MAX), 0).is_ok());
        assert!(check_position_ceiling(100, 28).is_ok());

        // One past the ceiling: typed rejection with both operands.
        match check_position_ceiling(u64::from(u32::MAX), 1) {
            Err(IngestError::PositionOverflow { existing, incoming }) => {
                assert_eq!(existing, u64::from(u32::MAX));
                assert_eq!(incoming, 1);
            }
            other => panic!("expected PositionOverflow, got {other:?}"),
        }
        // u64 overflow in the sum itself must not wrap into acceptance.
        assert!(check_position_ceiling(u64::MAX, u64::MAX).is_err());
        let msg = check_position_ceiling(u64::from(u32::MAX), 1)
            .unwrap_err()
            .to_string();
        assert!(msg.contains("--shards"), "actionable message: {msg}");
    }
}
