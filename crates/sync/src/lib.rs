//! Parallel-coordination substrate for the MESSI index.
//!
//! MESSI's performance hinges on "careful design choices and coordination
//! of the parallel workers when accessing the required data structures"
//! (§I). This crate packages those coordination primitives, each mapping
//! to a specific mechanism in the paper:
//!
//! * [`dispenser::Dispenser`] — the Fetch&Inc counters that assign raw
//!   data chunks (Alg. 3), iSAX buffers (Alg. 4), and root subtrees
//!   (Alg. 6) to workers.
//! * [`barrier::SenseBarrier`] — the barrier between the summarization
//!   and tree-construction phases (Alg. 2 line 2) and between the tree
//!   pass and queue processing of search workers (Alg. 6 line 7).
//! * [`bsf`] — the shared Best-So-Far: the paper's lock-protected
//!   variant ([`bsf::LockedBsf`], Alg. 8 lines 5–7) and a lock-free
//!   atomic-min variant ([`bsf::AtomicBsf`]) exploiting the order
//!   isomorphism between non-negative IEEE-754 floats and their bit
//!   patterns.
//! * [`pqueue`] — the concurrent minimum priority queues search workers
//!   insert leaves into and drain (Alg. 5–8), with the `finished` flag
//!   protocol and the multi-queue round-robin insertion discipline.
//! * [`buffers::PartitionedBuffers`] — the iSAX buffers, "split into
//!   parts, each worker works on its own part … completely eliminating
//!   the synchronization cost in accessing the iSAX buffers" (§I, §III),
//!   with the small-initial-capacity doubling growth policy of Fig. 8.
//! * [`counters::Counter`] — relaxed statistics counters used for the
//!   distance-calculation counts of Fig. 17.
//! * [`slots::SlotPool`] — a lock-free checkout/checkin pool, the handoff
//!   between incoming queries and the warm per-worker `QueryContext`
//!   scratch of the pooled query-execution layer.
//! * [`channel::BoundedChannel`] — a bounded blocking MPMC channel with
//!   close semantics, the hand-off between the serve frontend's acceptor
//!   and its connection-handler pool.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod barrier;
pub mod bsf;
pub mod buffers;
pub mod channel;
pub mod counters;
pub mod dispenser;
pub mod pool;
pub mod pqueue;
pub mod slots;

pub use barrier::SenseBarrier;
pub use bsf::{AtomicBsf, BestSoFar, LockedBsf};
pub use buffers::{BufferPart, PartitionedBuffers};
pub use channel::BoundedChannel;
pub use counters::Counter;
pub use dispenser::Dispenser;
pub use pool::WorkerPool;
pub use pqueue::{ConcurrentMinQueue, QueueSet};
pub use slots::SlotPool;
