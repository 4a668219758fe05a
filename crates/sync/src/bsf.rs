//! The shared Best-So-Far (BSF) bound.
//!
//! During exact search all workers share one scalar: the smallest (squared)
//! distance found so far, used both for pruning and as the final answer
//! (Alg. 5). The paper protects it with a lock, observing that "the BSF is
//! updated only 10-12 times (on average) per query. So, the
//! synchronization cost for updating the BSF is negligible" (§III-B).
//!
//! Both variants are provided: [`LockedBsf`] reproduces the paper;
//! [`AtomicBsf`] is the natural Rust alternative — for non-negative
//! IEEE-754 floats the total order of values coincides with the integer
//! order of their bit patterns, so `fetch_min` on the bits implements an
//! exact concurrent minimum. The `ablation` figure binary
//! (`shared_queues_locked_bsf` row) compares them.
//!
//! Both track the *position* of the series achieving the minimum, which
//! the paper's pseudocode leaves implicit but any real system must return.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// Position value meaning "no answer yet".
pub const NO_POSITION: u32 = u32::MAX;

/// Shared best-so-far: current minimum distance and its arg-min position.
pub trait BestSoFar: Sync {
    /// Current bound (squared distance).
    fn load(&self) -> f32;

    /// Installs `(dist, pos)` if `dist` improves on the current minimum.
    /// Returns `true` if the value was installed.
    fn update_min(&self, dist: f32, pos: u32) -> bool;

    /// Current `(distance, position)` snapshot, consistent with each other.
    fn load_with_pos(&self) -> (f32, u32);
}

/// Lock-free BSF: distance bits and position packed in one `u64`
/// (`dist_bits << 32 | pos`), updated by CAS-min.
///
/// Packing distance in the *high* half makes the u64 comparison order
/// agree with the distance order (ties broken by smaller position), so a
/// plain `fetch_min` would almost work — CAS is used to preserve the
/// "returns whether we improved" contract exactly.
#[derive(Debug)]
pub struct AtomicBsf {
    packed: AtomicU64,
}

#[inline]
fn pack(dist: f32, pos: u32) -> u64 {
    debug_assert!(
        dist >= 0.0 || dist.is_infinite(),
        "distances are non-negative"
    );
    ((dist.to_bits() as u64) << 32) | pos as u64
}

#[inline]
fn unpack(packed: u64) -> (f32, u32) {
    (f32::from_bits((packed >> 32) as u32), packed as u32)
}

impl AtomicBsf {
    /// Creates a BSF initialized to `+inf` with no position.
    pub fn new() -> Self {
        Self::with_initial(f32::INFINITY, NO_POSITION)
    }

    /// Creates a BSF seeded with an initial bound (the approximate-search
    /// answer in MESSI).
    pub fn with_initial(dist: f32, pos: u32) -> Self {
        Self {
            packed: AtomicU64::new(pack(dist, pos)),
        }
    }
}

impl Default for AtomicBsf {
    fn default() -> Self {
        Self::new()
    }
}

impl BestSoFar for AtomicBsf {
    #[inline]
    fn load(&self) -> f32 {
        unpack(self.packed.load(Ordering::Acquire)).0
    }

    #[inline]
    fn update_min(&self, dist: f32, pos: u32) -> bool {
        let new = pack(dist, pos);
        let mut cur = self.packed.load(Ordering::Relaxed);
        loop {
            if new >= cur {
                // Not an improvement (distance bigger, or equal distance
                // with larger-or-equal position).
                return false;
            }
            match self
                .packed
                .compare_exchange_weak(cur, new, Ordering::AcqRel, Ordering::Relaxed)
            {
                Ok(_) => return true,
                Err(actual) => cur = actual,
            }
        }
    }

    #[inline]
    fn load_with_pos(&self) -> (f32, u32) {
        unpack(self.packed.load(Ordering::Acquire))
    }
}

/// The paper's lock-protected BSF (Alg. 8: acquire BSFLock, write,
/// release).
///
/// Faithful to the original's memory behaviour: the lock guards
/// *updates* only (Alg. 8 lines 5–7); the pruning checks throughout
/// Alg. 6–9 read the shared BSF variable without taking the lock (in the
/// authors' C this is a plain racy float read). Reads here go through an
/// atomic snapshot — same cost profile as the C read, without the UB. A
/// read-locking variant would serialize all Ns workers on every pruning
/// check and is exactly the overhead the paper's design avoids.
#[derive(Debug)]
pub struct LockedBsf {
    /// Snapshot readable without the lock (packed like [`AtomicBsf`]).
    snapshot: AtomicU64,
    /// Serializes updates (the paper's BSFLock).
    write_lock: Mutex<()>,
}

impl LockedBsf {
    /// Creates a BSF initialized to `+inf` with no position.
    pub fn new() -> Self {
        Self::with_initial(f32::INFINITY, NO_POSITION)
    }

    /// Creates a BSF seeded with an initial bound.
    pub fn with_initial(dist: f32, pos: u32) -> Self {
        Self {
            snapshot: AtomicU64::new(pack(dist, pos)),
            write_lock: Mutex::new(()),
        }
    }
}

impl Default for LockedBsf {
    fn default() -> Self {
        Self::new()
    }
}

impl BestSoFar for LockedBsf {
    #[inline]
    fn load(&self) -> f32 {
        unpack(self.snapshot.load(Ordering::Acquire)).0
    }

    #[inline]
    fn update_min(&self, dist: f32, pos: u32) -> bool {
        // Cheap racy pre-check, as in the paper (Alg. 8 line 2 tests
        // before taking BSFLock; the test repeats under the lock).
        if dist >= self.load() {
            return false;
        }
        let _guard = self.write_lock.lock();
        let (cur, _) = unpack(self.snapshot.load(Ordering::Acquire));
        if dist < cur {
            self.snapshot.store(pack(dist, pos), Ordering::Release);
            true
        } else {
            false
        }
    }

    #[inline]
    fn load_with_pos(&self) -> (f32, u32) {
        unpack(self.snapshot.load(Ordering::Acquire))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(bsf: &dyn BestSoFar) {
        assert_eq!(bsf.load(), f32::INFINITY);
        assert!(bsf.update_min(10.0, 3));
        assert_eq!(bsf.load_with_pos(), (10.0, 3));
        assert!(!bsf.update_min(10.5, 4), "worse value must be rejected");
        assert!(bsf.update_min(2.5, 7));
        assert!(!bsf.update_min(2.5, 9), "equal value must be rejected");
        assert_eq!(bsf.load_with_pos(), (2.5, 7));
        assert!(bsf.update_min(0.0, 1));
        assert_eq!(bsf.load(), 0.0);
    }

    #[test]
    fn atomic_bsf_semantics() {
        exercise(&AtomicBsf::new());
    }

    #[test]
    fn locked_bsf_semantics() {
        exercise(&LockedBsf::new());
    }

    #[test]
    fn initial_seed_respected() {
        let b = AtomicBsf::with_initial(5.0, 42);
        assert_eq!(b.load_with_pos(), (5.0, 42));
        assert!(!b.update_min(6.0, 0));
        let b = LockedBsf::with_initial(5.0, 42);
        assert_eq!(b.load_with_pos(), (5.0, 42));
    }

    #[test]
    fn concurrent_minimum_is_exact() {
        // N threads race to install distances; the final state must be the
        // global minimum with its matching position.
        for (name, bsf) in [
            ("atomic", Box::new(AtomicBsf::new()) as Box<dyn BestSoFar>),
            ("locked", Box::new(LockedBsf::new()) as Box<dyn BestSoFar>),
        ] {
            let n_threads = 8;
            let per_thread = 10_000u32;
            std::thread::scope(|s| {
                for t in 0..n_threads {
                    let bsf = &bsf;
                    s.spawn(move || {
                        // Deterministic pseudo-random distances; thread t
                        // owns positions t*per_thread..(t+1)*per_thread.
                        let mut x = 0x9E3779B9u32.wrapping_mul(t + 1);
                        for i in 0..per_thread {
                            x ^= x << 13;
                            x ^= x >> 17;
                            x ^= x << 5;
                            let dist = (x % 1_000_000) as f32 / 10.0 + 1.0;
                            bsf.update_min(dist, t * per_thread + i);
                        }
                    });
                }
            });
            // Recompute the expected minimum sequentially.
            let mut expect = (f32::INFINITY, NO_POSITION);
            for t in 0..n_threads {
                let mut x = 0x9E3779B9u32.wrapping_mul(t + 1);
                for i in 0..per_thread {
                    x ^= x << 13;
                    x ^= x >> 17;
                    x ^= x << 5;
                    let dist = (x % 1_000_000) as f32 / 10.0 + 1.0;
                    if dist < expect.0 {
                        expect = (dist, t * per_thread + i);
                    }
                }
            }
            assert_eq!(bsf.load_with_pos().0, expect.0, "{name}: wrong minimum");
        }
    }

    #[test]
    fn pack_order_matches_distance_order() {
        let cases = [0.0f32, 0.5, 1.0, 2.5, 1e10, f32::INFINITY];
        for w in cases.windows(2) {
            assert!(pack(w[0], 0) < pack(w[1], 0));
            // Position breaks ties.
            assert!(pack(w[0], 1) < pack(w[0], 2));
        }
    }
}
