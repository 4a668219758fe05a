//! A lock-free pool of reusable values ("slots").
//!
//! The query-execution layer keeps one warm `QueryContext` per search
//! worker so a steady stream of queries runs allocation-free (the
//! ParIS+/VLDBJ framing of query answering as a worker-pool *service*
//! with per-worker scratch). The handoff between a request and a warm
//! context must not reintroduce a lock on the hot path — that would
//! serialize exactly the workers the scratch exists to decouple.
//!
//! [`SlotPool`] is that handoff: a fixed array of slots, each a tiny
//! three-state machine (`VACANT` → `BUSY` → `OCCUPIED`) driven purely by
//! compare-and-swap. [`SlotPool::checkout`] claims any occupied slot and
//! takes its value; [`SlotPool::checkin`] parks a value in any vacant
//! slot. Neither ever blocks: a failed CAS just moves to the next slot,
//! and an empty (or full) pool returns the situation to the caller
//! instead of waiting — the caller builds a fresh value (cold start) or
//! drops the surplus one.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU8, Ordering};

/// No value stored; a `checkin` may claim this slot.
const VACANT: u8 = 0;
/// A thread is moving a value in or out; nobody else may touch the slot.
const BUSY: u8 = 1;
/// A value is stored; a `checkout` may claim this slot.
const OCCUPIED: u8 = 2;

struct Slot<T> {
    state: AtomicU8,
    value: UnsafeCell<Option<T>>,
}

/// A fixed-capacity, lock-free pool of reusable values.
///
/// ```
/// use messi_sync::SlotPool;
///
/// let pool: SlotPool<Vec<u8>> = SlotPool::new(2);
/// assert!(pool.checkout().is_none(), "pool starts empty");
///
/// // Park a warm value; the next checkout gets it back.
/// assert!(pool.checkin(vec![1, 2, 3]).is_none());
/// assert_eq!(pool.checkout(), Some(vec![1, 2, 3]));
///
/// // Past capacity, checkin hands the value back instead of blocking.
/// assert!(pool.checkin(vec![1]).is_none());
/// assert!(pool.checkin(vec![2]).is_none());
/// assert_eq!(pool.checkin(vec![3]), Some(vec![3]));
/// ```
pub struct SlotPool<T> {
    slots: Box<[Slot<T>]>,
}

// SAFETY: values cross threads only through checkout/checkin, which hand
// out exclusive ownership — so `T: Send` is all that is required. The
// `UnsafeCell` is only ever accessed by the thread that CAS-ed the slot
// into `BUSY` (see the state protocol on `checkout`/`checkin`).
unsafe impl<T: Send> Send for SlotPool<T> {}
// SAFETY: shared access is the CAS state protocol above: a `&SlotPool`
// reaches a slot's value only after winning the CAS into `BUSY`, so no
// two threads touch one `UnsafeCell` at once.
unsafe impl<T: Send> Sync for SlotPool<T> {}

impl<T> SlotPool<T> {
    /// Creates an empty pool with room for `capacity` parked values.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "slot pool needs at least one slot");
        Self {
            slots: (0..capacity)
                .map(|_| Slot {
                    state: AtomicU8::new(VACANT),
                    value: UnsafeCell::new(None),
                })
                .collect(),
        }
    }

    /// Number of slots (the maximum of parked values).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Takes a parked value out of the pool, or `None` when every slot is
    /// vacant (the caller then constructs a fresh value — the cold start
    /// this pool exists to amortize).
    ///
    /// Lock-free: one CAS per probed slot, never a wait.
    pub fn checkout(&self) -> Option<T> {
        for slot in &*self.slots {
            if slot
                .state
                .compare_exchange(OCCUPIED, BUSY, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                // SAFETY: the CAS above made this thread the slot's sole
                // owner until it stores a non-BUSY state; the Acquire
                // pairs with the Release in `checkin`, so the value
                // written there is visible here.
                let value = unsafe { (*slot.value.get()).take() };
                slot.state.store(VACANT, Ordering::Release);
                debug_assert!(value.is_some(), "OCCUPIED slot always holds a value");
                return value;
            }
        }
        None
    }

    /// Parks `value` in the pool for a later [`SlotPool::checkout`].
    /// Returns `Some(value)` back when every slot is already occupied
    /// (the caller drops or reuses it — never blocks).
    pub fn checkin(&self, value: T) -> Option<T> {
        for slot in &*self.slots {
            if slot
                .state
                .compare_exchange(VACANT, BUSY, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                // SAFETY: as in `checkout` — the CAS grants exclusive
                // access, and the Release store below publishes the value
                // to the next Acquire checkout.
                unsafe { *slot.value.get() = Some(value) };
                slot.state.store(OCCUPIED, Ordering::Release);
                return None;
            }
        }
        Some(value)
    }

    /// Number of currently parked values (a racy snapshot under
    /// concurrent use; exact when the caller has `&mut self`).
    pub fn parked(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.state.load(Ordering::Acquire) == OCCUPIED)
            .count()
    }

    /// Iterates over the parked values. Requires exclusive access, so no
    /// checkout/checkin can race — used for post-run inspection (e.g.
    /// summing `QueryContext::alloc_events` across a warm pool).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.slots
            .iter_mut()
            .filter_map(|s| s.value.get_mut().as_mut())
    }
}

impl<T> std::fmt::Debug for SlotPool<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlotPool")
            .field("capacity", &self.capacity())
            .field("parked", &self.parked())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn checkout_from_empty_pool_is_none() {
        let pool: SlotPool<u32> = SlotPool::new(4);
        assert!(pool.checkout().is_none());
        assert_eq!(pool.parked(), 0);
        assert_eq!(pool.capacity(), 4);
    }

    #[test]
    fn checkin_then_checkout_roundtrips() {
        let pool = SlotPool::new(2);
        assert!(pool.checkin(String::from("warm")).is_none());
        assert_eq!(pool.parked(), 1);
        assert_eq!(pool.checkout().as_deref(), Some("warm"));
        assert_eq!(pool.parked(), 0);
    }

    #[test]
    fn full_pool_returns_the_value() {
        let pool = SlotPool::new(2);
        assert!(pool.checkin(1).is_none());
        assert!(pool.checkin(2).is_none());
        assert_eq!(pool.checkin(3), Some(3));
        // Draining frees a slot again.
        assert!(pool.checkout().is_some());
        assert!(pool.checkin(3).is_none());
    }

    #[test]
    fn iter_mut_sees_every_parked_value() {
        let mut pool = SlotPool::new(3);
        pool.checkin(10u64);
        pool.checkin(20u64);
        let sum: u64 = pool.iter_mut().map(|v| *v).sum();
        assert_eq!(sum, 30);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn rejects_zero_capacity() {
        let _ = SlotPool::<u8>::new(0);
    }

    #[test]
    fn concurrent_checkout_checkin_loses_nothing() {
        // N threads repeatedly check a token out (or mint a new one) and
        // check it back in; the total token count must be conserved and
        // every parked slot must hold a valid token at the end.
        const THREADS: usize = 8;
        const ROUNDS: usize = 2_000;
        let pool: SlotPool<usize> = SlotPool::new(THREADS);
        let minted = AtomicUsize::new(0);
        let dropped = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    for _ in 0..ROUNDS {
                        let token = pool.checkout().unwrap_or_else(|| {
                            minted.fetch_add(1, Ordering::Relaxed);
                            1
                        });
                        if let Some(_back) = pool.checkin(token) {
                            dropped.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        let minted = minted.load(Ordering::Relaxed);
        let dropped = dropped.load(Ordering::Relaxed);
        assert_eq!(pool.parked(), minted - dropped, "tokens conserved");
        assert!(minted >= 1);
    }
}
