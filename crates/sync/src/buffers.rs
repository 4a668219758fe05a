//! Partitioned iSAX buffers.
//!
//! During index construction, each computed summary must reach the buffer
//! of its root subtree. ParIS guarded each buffer with a lock; MESSI
//! instead splits every buffer into one *part per worker*: "each iSAX
//! buffer is split into parts and each worker works on its own part …
//! \[which\] completely eliminates the synchronization cost in accessing
//! the iSAX buffers" (§I, §III and footnote 3).
//!
//! `PartitionedBuffers` realizes this with the type system instead of
//! discipline: phase 1 hands each worker an exclusive `&mut BufferPart`
//! (all parts for every key, owned by that worker), so data races are
//! impossible by construction; phase 2 reads the assembled buffers
//! immutably.
//!
//! "Each part of an iSAX buffer is allocated dynamically when the first
//! element to be stored in it is produced. The size of each part has an
//! initial small value (5 series in this work …) and it is adjusted
//! dynamically … by doubling its size each time" (§III-A) — reproduced by
//! the explicit growth policy in [`BufferPart::push`]; the initial
//! capacity is the Fig. 8 experiment's knob.

/// All buffer parts belonging to one worker: one `Vec<T>` per key
/// (= per root subtree).
#[derive(Debug)]
pub struct BufferPart<T> {
    initial_capacity: usize,
    parts: Vec<Vec<T>>,
}

impl<T> BufferPart<T> {
    fn new(num_keys: usize, initial_capacity: usize) -> Self {
        let mut parts = Vec::with_capacity(num_keys);
        parts.resize_with(num_keys, Vec::new);
        Self {
            initial_capacity,
            parts,
        }
    }

    /// Appends `value` to this worker's part of buffer `key`, applying the
    /// paper's growth policy (allocate `initial_capacity` on first insert,
    /// then double).
    #[inline]
    pub fn push(&mut self, key: usize, value: T) {
        let v = &mut self.parts[key];
        if v.len() == v.capacity() {
            let additional = if v.capacity() == 0 {
                self.initial_capacity.max(1)
            } else {
                v.capacity() // double
            };
            v.reserve_exact(additional);
        }
        v.push(value);
    }

    /// This worker's part of buffer `key`.
    #[inline]
    pub fn part(&self, key: usize) -> &[T] {
        &self.parts[key]
    }
}

/// The complete set of iSAX buffers: `num_keys × num_workers` parts.
#[derive(Debug)]
pub struct PartitionedBuffers<T> {
    workers: Vec<BufferPart<T>>,
    num_keys: usize,
    /// Cache for [`PartitionedBuffers::touched_keys`], computed on first
    /// use after the fill phase and invalidated by
    /// [`PartitionedBuffers::parts_mut`].
    touched: std::sync::OnceLock<Vec<usize>>,
}

impl<T> PartitionedBuffers<T> {
    /// Creates buffers for `num_keys` root subtrees and `num_workers`
    /// workers, with the given initial part capacity (the paper uses 5).
    ///
    /// # Panics
    ///
    /// Panics if `num_workers == 0`.
    pub fn new(num_keys: usize, num_workers: usize, initial_capacity: usize) -> Self {
        assert!(num_workers > 0, "need at least one worker");
        Self {
            workers: (0..num_workers)
                .map(|_| BufferPart::new(num_keys, initial_capacity))
                .collect(),
            num_keys,
            touched: std::sync::OnceLock::new(),
        }
    }

    /// Mutable access to every worker's parts, for handing one to each
    /// spawned worker thread (`parts_mut().iter_mut()` yields disjoint
    /// `&mut BufferPart`s, so phase 1 needs no locks). Invalidates the
    /// [`PartitionedBuffers::touched_keys`] cache: the borrow lets the
    /// caller change which buffers are non-empty.
    pub fn parts_mut(&mut self) -> &mut [BufferPart<T>] {
        self.touched.take();
        &mut self.workers
    }

    /// Iterates over all entries of buffer `key` across every worker's
    /// part — what Alg. 4 line 5–6 does ("traverses all parts of the
    /// assigned buffer") — as a merge of the parts, ascending by `order`.
    /// Each part must already ascend (a worker's chunk ids rise, so the
    /// positions it files do), so the drain is the same for any worker
    /// count and any chunk schedule: the trees built from it depend on
    /// the data alone.
    pub fn iter_key<'a, K: Ord>(
        &'a self,
        key: usize,
        order: impl Fn(&T) -> K + 'a,
    ) -> impl Iterator<Item = &'a T> {
        let mut heads: Vec<&[T]> = self.workers.iter().map(|w| w.part(key)).collect();
        std::iter::from_fn(move || {
            let head = heads
                .iter_mut()
                .filter(|p| !p.is_empty())
                .min_by_key(|p| order(&p[0]))?;
            let (first, rest) = head.split_first()?;
            *head = rest;
            Some(first)
        })
    }

    /// Total entries stored under `key`.
    pub fn key_len(&self, key: usize) -> usize {
        self.workers.iter().map(|w| w.part(key).len()).sum()
    }

    /// Keys that received at least one entry, ascending. Tree construction
    /// iterates over these instead of all 2^w possible keys.
    ///
    /// The scan over all `num_keys × num_workers` parts runs once, after
    /// the fill phase; later calls return the cached slice without
    /// allocating. Any call to [`PartitionedBuffers::parts_mut`] drops the
    /// cache (the buffers may change underneath it).
    pub fn touched_keys(&self) -> &[usize] {
        self.touched.get_or_init(|| {
            (0..self.num_keys)
                .filter(|&k| self.workers.iter().any(|w| !w.part(k).is_empty()))
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn growth_policy_starts_small_and_doubles() {
        let mut part: BufferPart<u32> = BufferPart::new(4, 5);
        assert_eq!(part.part(0).len(), 0);
        part.push(0, 1);
        assert_eq!(
            part.parts[0].capacity(),
            5,
            "first insert allocates initial"
        );
        for i in 0..4 {
            part.push(0, i);
        }
        assert_eq!(part.parts[0].capacity(), 5);
        part.push(0, 9);
        assert_eq!(part.parts[0].capacity(), 10, "overflow doubles");
        for i in 0..4 {
            part.push(0, i);
        }
        part.push(0, 99);
        assert_eq!(part.parts[0].capacity(), 20);
    }

    #[test]
    fn zero_initial_capacity_still_works() {
        let mut part: BufferPart<u32> = BufferPart::new(1, 0);
        for i in 0..100 {
            part.push(0, i);
        }
        assert_eq!(part.part(0).len(), 100);
    }

    #[test]
    fn keys_are_independent() {
        let mut part: BufferPart<&str> = BufferPart::new(3, 2);
        part.push(0, "a");
        part.push(2, "c");
        part.push(0, "b");
        assert_eq!(part.part(0), &["a", "b"]);
        assert_eq!(part.part(1), &[] as &[&str]);
        assert_eq!(part.part(2), &["c"]);
    }

    #[test]
    fn parallel_fill_then_drain_sees_everything() {
        // Phase 1: 6 workers each push their ids into key = id % num_keys.
        // Phase 2: iter_key must see every id exactly once.
        let num_keys = 16;
        let num_workers = 6;
        let per_worker = 10_000usize;
        let mut buffers: PartitionedBuffers<usize> =
            PartitionedBuffers::new(num_keys, num_workers, 5);
        std::thread::scope(|s| {
            for (w, part) in buffers.parts_mut().iter_mut().enumerate() {
                s.spawn(move || {
                    for i in 0..per_worker {
                        let id = w * per_worker + i;
                        part.push(id % num_keys, id);
                    }
                });
            }
        });
        let mut seen = vec![false; num_workers * per_worker];
        for key in 0..num_keys {
            let mut last = None;
            for &id in buffers.iter_key(key, |&id| id) {
                assert_eq!(id % num_keys, key, "entry filed under wrong key");
                assert!(last < Some(id), "drain of key {key} not ascending");
                last = Some(id);
                assert!(!seen[id], "id {id} seen twice");
                seen[id] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "some ids lost");
        assert_eq!(buffers.touched_keys().len(), num_keys);
    }

    #[test]
    fn drain_merges_parts_in_order_whoever_filed_them() {
        // Chunks 0..8 of two positions each, handed out as a racy
        // Fetch&Inc might: every assignment drains the same.
        let chunks: [&[usize]; 3] = [
            &[0, 1, 1, 0, 0, 1, 1, 0],
            &[0; 8],
            &[1, 0, 2, 2, 0, 1, 2, 0],
        ];
        for owners in chunks {
            let mut buffers: PartitionedBuffers<usize> = PartitionedBuffers::new(2, 3, 1);
            for (chunk, &w) in owners.iter().enumerate() {
                for pos in [2 * chunk, 2 * chunk + 1] {
                    buffers.parts_mut()[w].push(pos % 2, pos);
                }
            }
            let even: Vec<usize> = buffers.iter_key(0, |&p| p).copied().collect();
            let odd: Vec<usize> = buffers.iter_key(1, |&p| p).copied().collect();
            assert_eq!(even, [0, 2, 4, 6, 8, 10, 12, 14], "owners {owners:?}");
            assert_eq!(odd, [1, 3, 5, 7, 9, 11, 13, 15], "owners {owners:?}");
        }
    }

    #[test]
    fn touched_keys_skips_empty_buffers() {
        let mut buffers: PartitionedBuffers<u8> = PartitionedBuffers::new(8, 2, 5);
        buffers.parts_mut()[0].push(3, 1);
        buffers.parts_mut()[1].push(5, 2);
        buffers.parts_mut()[1].push(3, 3);
        assert_eq!(buffers.touched_keys(), vec![3, 5]);
        assert_eq!(buffers.key_len(3), 2);
        assert_eq!(buffers.key_len(0), 0);
    }

    #[test]
    fn touched_keys_is_cached_until_parts_change() {
        let mut buffers: PartitionedBuffers<u8> = PartitionedBuffers::new(8, 2, 5);
        buffers.parts_mut()[0].push(3, 1);
        let first = buffers.touched_keys().as_ptr();
        // Repeated calls return the same cached slice — no recomputation,
        // no allocation.
        assert_eq!(buffers.touched_keys().as_ptr(), first);
        assert_eq!(buffers.touched_keys(), vec![3]);
        // Re-borrowing the parts invalidates the cache.
        buffers.parts_mut()[1].push(5, 2);
        assert_eq!(buffers.touched_keys(), vec![3, 5]);
    }
}
