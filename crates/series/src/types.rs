//! The in-memory dataset: the paper's `RawData` array.
//!
//! MESSI assumes the raw data series live in one contiguous in-memory
//! array (Fig. 2 of the paper). [`Dataset`] is exactly that: one flat
//! `f32` allocation storing `len()` series of `series_len()` points back
//! to back. Series are addressed by their position index, which is what
//! the index tree stores next to each iSAX summary — the index only
//! *points into* the array, so the array can grow at its tail
//! ([`Dataset::append_with`]) without moving a series.

use crate::error::{Error, Result};
use std::mem::ManuallyDrop;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The one heap allocation behind a [`Dataset`] and all of its views.
///
/// `[0, cap)` is initialised memory. `committed` splits it: everything
/// below has been claimed by exactly one [`Dataset::append_with`] call
/// (or was there at construction) and is never written again once the
/// view naming it exists; everything above is spare capacity nobody
/// reads. `committed` only grows, and only by compare-and-swap.
struct Buffer {
    ptr: NonNull<f32>,
    /// Initialised values in the allocation.
    cap: usize,
    /// Capacity the allocation goes back to `Vec` with on drop.
    alloc_cap: usize,
    committed: AtomicUsize,
}

impl Buffer {
    /// Takes over `values`' allocation: `values.len()` initialised
    /// values, of which the first `committed` are already claimed.
    fn new(values: Vec<f32>, committed: usize) -> Self {
        assert!(committed <= values.len(), "committed beyond the buffer");
        let mut values = ManuallyDrop::new(values);
        Self {
            ptr: NonNull::new(values.as_mut_ptr()).expect("Vec pointers are never null"),
            cap: values.len(),
            alloc_cap: values.capacity(),
            committed: AtomicUsize::new(committed),
        }
    }
}

impl Drop for Buffer {
    fn drop(&mut self) {
        // SAFETY: `ptr` and `alloc_cap` are the pointer and capacity of
        // the `Vec<f32>` that `new` took apart without freeing, and
        // nothing else frees them; length 0 is valid for any capacity
        // and `f32` has no destructor to skip.
        drop(unsafe { Vec::from_raw_parts(self.ptr.as_ptr(), 0, self.alloc_cap) });
    }
}

// SAFETY: `ptr` owns a heap allocation of plain `f32`s, so moving the
// buffer between threads is fine. Sharing it is sound because the only
// reads go through `Dataset::as_flat`, over a range that was completely
// written before the view naming it was created, and the only writes go
// through `Dataset::append_with`, into a range its caller claimed
// exclusively by CAS on `committed` and that no view covers yet.
unsafe impl Send for Buffer {}
// SAFETY: as above.
unsafe impl Sync for Buffer {}

/// A collection of fixed-length data series stored contiguously in memory.
///
/// This mirrors the paper's `RawData` array: series `i` occupies the flat
/// value range `[i * series_len, (i + 1) * series_len)`. All MESSI and
/// baseline algorithms operate on positions into this array.
///
/// The backing buffer is reference-counted, so a dataset can expose a
/// zero-copy **window** over a contiguous sub-range of another dataset's
/// series ([`Dataset::view`]) — sharded index builds partition millions
/// of series without duplicating a single float. Equality compares the
/// *visible* values, so a view equals an owned copy of the same range.
///
/// **Append-safety invariant:** growth is *append-in-place,
/// publish-by-length*. A dataset is a window `(buffer, offset, len)` and
/// never observes a byte beyond its own length; the values it does cover
/// were written before it existed and are never written again. The
/// buffer may own spare capacity past every view: that region has one
/// writer at a time — [`Dataset::append_with`] claims
/// `[committed, committed + n)` by compare-and-swap, fills it, and only
/// then returns a longer view of the *same* allocation. Nothing is ever
/// moved or reallocated under an outstanding view; when the capacity is
/// exhausted (or someone else already extended the buffer) the grower
/// copies once into a new buffer with fixed geometric headroom (×1.5)
/// and old views keep pinning the old one. Live ingest relies on this:
/// the index only points into the collection, so republishing costs
/// O(new series), not O(collection).
#[derive(Clone)]
pub struct Dataset {
    buf: Arc<Buffer>,
    /// First visible value inside the buffer (0 for owned datasets).
    offset: usize,
    /// Number of visible values (a whole number of series).
    len_values: usize,
    series_len: usize,
}

/// Geometric headroom of a growth copy: the new buffer reserves another
/// `1 / HEADROOM_DIV` of the grown size as spare capacity (factor 1.5),
/// so a collection that grows from `a` to `b` series reallocates at most
/// `⌈log₁.₅(b / a)⌉` times. Untouched spare pages cost address space,
/// not resident memory.
const HEADROOM_DIV: usize = 2;

/// A zeroed buffer for `needed` values plus the geometric headroom
/// ([`HEADROOM_DIV`]). `vec![0.0; _]` is a zeroed allocation: the spare
/// pages are initialised for appends to come without being touched now.
pub(crate) fn zeroed_with_headroom(needed: usize) -> Vec<f32> {
    vec![0.0f32; needed + needed.div_ceil(HEADROOM_DIV)]
}

/// Advises the 2 MiB-aligned interior of `values` as `MADV_HUGEPAGE`, so
/// a fresh buffer about to be filled faults in 2 MiB pages instead of
/// one 4 KiB page at a time. Only a hint: where transparent huge pages
/// are off, or the call fails, nothing changes.
#[cfg(target_os = "linux")]
fn advise_huge_pages(values: &mut [f32]) {
    const HUGE_PAGE: usize = 2 << 20;
    const MADV_HUGEPAGE: std::ffi::c_int = 14;
    extern "C" {
        fn madvise(
            addr: *mut std::ffi::c_void,
            len: usize,
            advice: std::ffi::c_int,
        ) -> std::ffi::c_int;
    }
    let range = values.as_mut_ptr_range();
    let (start, end) = (range.start as usize, range.end as usize);
    let lo = start.next_multiple_of(HUGE_PAGE);
    let hi = end & !(HUGE_PAGE - 1);
    if lo < hi {
        // SAFETY: `[lo, hi)` is page-aligned and lies inside `values`,
        // an allocation this function borrows mutably, so no other
        // reference observes it. `MADV_HUGEPAGE` only sets the range's
        // page-size policy; it never changes, frees or moves its
        // contents, and the result is ignored because the call is a
        // hint.
        unsafe { madvise(lo as *mut std::ffi::c_void, hi - lo, MADV_HUGEPAGE) };
    }
}

#[cfg(not(target_os = "linux"))]
fn advise_huge_pages(_values: &mut [f32]) {}

impl std::fmt::Debug for Dataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dataset")
            .field("len", &self.len())
            .field("series_len", &self.series_len)
            .field("offset", &self.offset)
            .field("capacity_values", &self.buf.cap)
            .finish()
    }
}

impl PartialEq for Dataset {
    fn eq(&self, other: &Self) -> bool {
        self.series_len == other.series_len && self.as_flat() == other.as_flat()
    }
}

impl Dataset {
    /// Creates a dataset from a flat buffer of `count * series_len` values.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidSeriesLength`] if `series_len == 0` and
    /// [`Error::RaggedBuffer`] if the buffer is not a whole number of series.
    pub fn from_flat(values: Vec<f32>, series_len: usize) -> Result<Self> {
        let len_values = values.len();
        Self::with_spare(values, len_values, series_len)
    }

    /// A dataset over the first `len_values` of `values`; the rest of
    /// the vector, which must be zeroed, becomes spare capacity that
    /// [`Dataset::append_with`] fills in place.
    ///
    /// # Errors
    ///
    /// As [`Dataset::from_flat`] for the first `len_values` values.
    pub(crate) fn with_spare(
        values: Vec<f32>,
        len_values: usize,
        series_len: usize,
    ) -> Result<Self> {
        if series_len == 0 {
            return Err(Error::InvalidSeriesLength(series_len));
        }
        if len_values % series_len != 0 {
            return Err(Error::RaggedBuffer {
                buffer_len: len_values,
                series_len,
            });
        }
        Ok(Self {
            buf: Arc::new(Buffer::new(values, len_values)),
            offset: 0,
            len_values,
            series_len,
        })
    }

    /// A zero-copy window over series `[start, end)` of this dataset:
    /// the returned dataset shares the backing buffer and exposes only
    /// that contiguous sub-range, renumbering its series from 0.
    ///
    /// A view of a view windows the same root buffer (offsets compose),
    /// so chains never accumulate indirection.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > self.len()`.
    pub fn view(&self, start: usize, end: usize) -> Self {
        assert!(
            start <= end && end <= self.len(),
            "view [{start}, {end}) out of bounds for {} series",
            self.len()
        );
        Self {
            buf: Arc::clone(&self.buf),
            offset: self.offset + start * self.series_len,
            len_values: (end - start) * self.series_len,
            series_len: self.series_len,
        }
    }

    /// Creates a dataset from individual series, all of the same length.
    ///
    /// # Errors
    ///
    /// Returns [`Error::LengthMismatch`] when lengths differ, and
    /// [`Error::InvalidSeriesLength`] for an empty first series. An empty
    /// iterator yields an error as a zero series length cannot be inferred.
    pub fn from_series<I, S>(series: I) -> Result<Self>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<[f32]>,
    {
        let mut iter = series.into_iter();
        let first = match iter.next() {
            Some(s) => s,
            None => return Err(Error::InvalidSeriesLength(0)),
        };
        let series_len = first.as_ref().len();
        if series_len == 0 {
            return Err(Error::InvalidSeriesLength(0));
        }
        let mut values = Vec::new();
        values.extend_from_slice(first.as_ref());
        for s in iter {
            let s = s.as_ref();
            if s.len() != series_len {
                return Err(Error::LengthMismatch {
                    expected: series_len,
                    got: s.len(),
                });
            }
            values.extend_from_slice(s);
        }
        Self::from_flat(values, series_len)
    }

    /// Number of series in the dataset.
    #[inline]
    pub fn len(&self) -> usize {
        self.len_values / self.series_len
    }

    /// Whether the dataset holds no series.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len_values == 0
    }

    /// Length (number of points) of every series.
    #[inline]
    pub fn series_len(&self) -> usize {
        self.series_len
    }

    /// The raw values of series `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= self.len()`.
    #[inline]
    pub fn series(&self, pos: usize) -> &[f32] {
        let start = pos * self.series_len;
        &self.as_flat()[start..start + self.series_len]
    }

    /// The visible flat buffer, series back to back (for a view, just
    /// its window).
    #[inline]
    pub fn as_flat(&self) -> &[f32] {
        // SAFETY: every constructor keeps `offset + len_values` within
        // `committed <= cap` of the allocation `self.buf` keeps alive,
        // the range was fully written before this view was created, and
        // `append_with` only ever writes at or beyond `committed`.
        unsafe {
            std::slice::from_raw_parts(self.buf.ptr.as_ptr().add(self.offset), self.len_values)
        }
    }

    /// Iterates over all series in position order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[f32]> + '_ {
        self.as_flat().chunks_exact(self.series_len)
    }

    /// Total size of the visible raw data in bytes (the paper reports
    /// dataset sizes in GB of raw `float` data; this is the equivalent
    /// figure). Views report their window, not the shared backing
    /// buffer.
    #[inline]
    pub fn raw_bytes(&self) -> usize {
        self.len_values * std::mem::size_of::<f32>()
    }

    /// Splits the position space into `chunk_size`-sized chunks, exactly as
    /// the index construction phase does. The final chunk may be shorter.
    /// Returns `(start, end)` position pairs.
    pub fn chunks(&self, chunk_size: usize) -> Vec<(usize, usize)> {
        assert!(chunk_size > 0, "chunk_size must be positive");
        let n = self.len();
        let mut out = Vec::with_capacity(n.div_ceil(chunk_size));
        let mut start = 0;
        while start < n {
            let end = usize::min(start + chunk_size, n);
            out.push((start, end));
            start = end;
        }
        out
    }

    /// Finds the first non-finite value (NaN or ±∞), returning
    /// `(series position, point index)`.
    ///
    /// Non-finite values silently poison similarity search: distances
    /// become NaN, which the pruning comparisons treat as "not less
    /// than", so corrupt series can never be returned *or* excluded
    /// deterministically. Ingestion pipelines should check this once
    /// after loading external data.
    pub fn find_non_finite(&self) -> Option<(usize, usize)> {
        for (pos, s) in self.iter().enumerate() {
            if let Some(idx) = s.iter().position(|v| !v.is_finite()) {
                return Some((pos, idx));
            }
        }
        None
    }

    /// This dataset grown by `count` series that `fill` writes — the one
    /// growth primitive (live ingest, log replay and [`Dataset::concat`]
    /// all go through it). `fill` receives exactly the
    /// `count * series_len` new values, zero-initialised, and must
    /// overwrite all of them.
    ///
    /// When the view ends where the buffer's committed region ends and
    /// the spare capacity fits, the new values are written **in place**
    /// and the result is a longer view of the same allocation: `self`,
    /// its clones and sub-views are untouched and still valid, and no
    /// existing byte moves. Otherwise — capacity exhausted, or another
    /// owner of the buffer extended it first — the visible window is
    /// copied once into a new buffer with geometric headroom. That
    /// buffer is advised as transparent huge pages before the copy
    /// touches it, so the copy faults one 2 MiB page where it would
    /// fault 512 4 KiB ones (a hint only; the values are the same
    /// either way).
    ///
    /// # Panics
    ///
    /// Panics if the grown size overflows `usize`.
    pub fn append_with(&self, count: usize, fill: impl FnOnce(&mut [f32])) -> Self {
        if count == 0 {
            return self.clone();
        }
        let n = count
            .checked_mul(self.series_len)
            .expect("appended size overflows usize");
        let end = self.offset + self.len_values;
        let grown_end = end.checked_add(n).expect("grown size overflows usize");
        // AcqRel/Acquire: `committed` publishes no data by itself (views
        // travel between threads through `Arc`s and locks, which order
        // the writes below before any read); the CAS only arbitrates
        // which grower owns `[end, grown_end)`.
        if grown_end <= self.buf.cap
            && self
                .buf
                .committed
                .compare_exchange(end, grown_end, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
        {
            // SAFETY: `[end, grown_end)` lies inside the allocation
            // (`grown_end <= cap`) and is initialised (zeroed at
            // allocation). The CAS moved `committed` from `end` to
            // `grown_end`, and `committed` never decreases, so no other
            // grower can claim an overlapping range; every existing view
            // ends at or below the old `committed`, so nothing reads the
            // range until the view returned below is handed out.
            let dst = unsafe { std::slice::from_raw_parts_mut(self.buf.ptr.as_ptr().add(end), n) };
            fill(dst);
            return Self {
                buf: Arc::clone(&self.buf),
                offset: self.offset,
                len_values: self.len_values + n,
                series_len: self.series_len,
            };
        }
        let needed = self.len_values + n;
        let mut values = zeroed_with_headroom(needed);
        advise_huge_pages(&mut values);
        values[..self.len_values].copy_from_slice(self.as_flat());
        fill(&mut values[self.len_values..needed]);
        Self {
            buf: Arc::new(Buffer::new(values, needed)),
            offset: 0,
            len_values: needed,
            series_len: self.series_len,
        }
    }

    /// A dataset holding this dataset's series followed by every series
    /// of `tails`, in order: a thin wrapper over
    /// [`Dataset::append_with`], so `self` and `tails` (and any views of
    /// them) stay untouched and valid.
    ///
    /// # Errors
    ///
    /// Returns [`Error::LengthMismatch`] if any tail has a different
    /// series length.
    pub fn concat<'a, I>(&self, tails: I) -> Result<Self>
    where
        I: IntoIterator<Item = &'a Dataset>,
    {
        let tails: Vec<&Dataset> = tails.into_iter().collect();
        for t in &tails {
            if t.series_len != self.series_len {
                return Err(Error::LengthMismatch {
                    expected: self.series_len,
                    got: t.series_len,
                });
            }
        }
        let count = tails.iter().map(|t| t.len()).sum();
        Ok(self.append_with(count, |mut dst| {
            for t in &tails {
                let (head, rest) = dst.split_at_mut(t.len_values);
                head.copy_from_slice(t.as_flat());
                dst = rest;
            }
        }))
    }

    /// Brute-force scan: position and squared Euclidean distance of the
    /// nearest neighbor of `query`. The reference answer for every test.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty or `query` has the wrong length.
    pub fn nearest_neighbor_brute_force(&self, query: &[f32]) -> (usize, f32) {
        assert_eq!(query.len(), self.series_len, "query length mismatch");
        assert!(!self.is_empty(), "empty dataset has no nearest neighbor");
        let mut best = (0usize, f32::INFINITY);
        for (pos, s) in self.iter().enumerate() {
            let d = crate::distance::euclidean::ed_sq_scalar(query, s);
            if d < best.1 {
                best = (pos, d);
            }
        }
        best
    }
}

/// Incremental builder for a [`Dataset`], reserving capacity up front.
#[derive(Debug, Clone)]
pub struct DatasetBuilder {
    values: Vec<f32>,
    series_len: usize,
}

impl DatasetBuilder {
    /// Starts a builder for series of length `series_len`, pre-allocating
    /// room for `capacity` series.
    ///
    /// # Panics
    ///
    /// Panics if `series_len == 0`.
    pub fn with_capacity(series_len: usize, capacity: usize) -> Self {
        assert!(series_len > 0, "series length must be positive");
        Self {
            values: Vec::with_capacity(series_len * capacity),
            series_len,
        }
    }

    /// Appends one series.
    ///
    /// # Errors
    ///
    /// Returns [`Error::LengthMismatch`] if the series has the wrong length.
    pub fn push(&mut self, series: &[f32]) -> Result<()> {
        if series.len() != self.series_len {
            return Err(Error::LengthMismatch {
                expected: self.series_len,
                got: series.len(),
            });
        }
        self.values.extend_from_slice(series);
        Ok(())
    }

    /// Number of series appended so far.
    pub fn len(&self) -> usize {
        self.values.len() / self.series_len
    }

    /// Whether nothing has been appended yet.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Finishes the builder.
    pub fn build(self) -> Dataset {
        Dataset::from_flat(self.values, self.series_len)
            .expect("builder maintains a whole number of series")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_flat_roundtrip() {
        let ds = Dataset::from_flat(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 3).unwrap();
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.series_len(), 3);
        assert_eq!(ds.series(0), &[1.0, 2.0, 3.0]);
        assert_eq!(ds.series(1), &[4.0, 5.0, 6.0]);
        assert_eq!(ds.raw_bytes(), 24);
    }

    #[test]
    fn from_flat_rejects_bad_shapes() {
        assert!(matches!(
            Dataset::from_flat(vec![1.0; 5], 3),
            Err(Error::RaggedBuffer { .. })
        ));
        assert!(matches!(
            Dataset::from_flat(vec![], 0),
            Err(Error::InvalidSeriesLength(0))
        ));
    }

    #[test]
    fn from_series_checks_lengths() {
        let ds = Dataset::from_series([[1.0f32, 2.0], [3.0, 4.0]]).unwrap();
        assert_eq!(ds.len(), 2);
        let err = Dataset::from_series([vec![1.0f32, 2.0], vec![3.0]]).unwrap_err();
        assert!(matches!(err, Error::LengthMismatch { .. }));
        let err = Dataset::from_series(Vec::<Vec<f32>>::new()).unwrap_err();
        assert!(matches!(err, Error::InvalidSeriesLength(0)));
    }

    #[test]
    fn iter_matches_series_accessor() {
        let ds = Dataset::from_flat((0..12).map(|v| v as f32).collect(), 4).unwrap();
        let collected: Vec<&[f32]> = ds.iter().collect();
        assert_eq!(collected.len(), 3);
        for (pos, s) in collected.iter().enumerate() {
            assert_eq!(*s, ds.series(pos));
        }
    }

    #[test]
    fn chunking_covers_everything_once() {
        let ds = Dataset::from_flat(vec![0.0; 10 * 4], 4).unwrap();
        let chunks = ds.chunks(3);
        assert_eq!(chunks, vec![(0, 3), (3, 6), (6, 9), (9, 10)]);
        let total: usize = chunks.iter().map(|(s, e)| e - s).sum();
        assert_eq!(total, ds.len());
    }

    #[test]
    fn builder_accumulates() {
        let mut b = DatasetBuilder::with_capacity(2, 4);
        assert!(b.is_empty());
        b.push(&[1.0, 2.0]).unwrap();
        b.push(&[3.0, 4.0]).unwrap();
        assert_eq!(b.len(), 2);
        assert!(b.push(&[1.0]).is_err());
        let ds = b.build();
        assert_eq!(ds.series(1), &[3.0, 4.0]);
    }

    #[test]
    fn brute_force_finds_exact_match() {
        let ds = Dataset::from_series([[0.0f32, 0.0], [1.0, 1.0], [5.0, 5.0], [1.0, 1.1]]).unwrap();
        let (pos, d) = ds.nearest_neighbor_brute_force(&[1.0, 1.0]);
        assert_eq!(pos, 1);
        assert_eq!(d, 0.0);
    }

    #[test]
    fn views_window_without_copying() {
        let ds = Dataset::from_flat((0..20).map(|v| v as f32).collect(), 4).unwrap();
        let v = ds.view(1, 4);
        assert_eq!(v.len(), 3);
        assert_eq!(v.series_len(), 4);
        assert_eq!(v.series(0), ds.series(1));
        assert_eq!(v.series(2), ds.series(3));
        assert_eq!(v.as_flat(), &ds.as_flat()[4..16]);
        assert_eq!(v.raw_bytes(), 12 * 4);
        // Same backing allocation — zero copy.
        assert!(std::ptr::eq(v.series(0).as_ptr(), ds.series(1).as_ptr()));
        // A view equals an owned dataset over the same values.
        let owned = Dataset::from_flat(ds.as_flat()[4..16].to_vec(), 4).unwrap();
        assert_eq!(v, owned);
        // Views of views compose offsets against the root buffer.
        let vv = v.view(1, 3);
        assert_eq!(vv.len(), 2);
        assert_eq!(vv.series(0), ds.series(2));
        assert!(std::ptr::eq(vv.series(0).as_ptr(), ds.series(2).as_ptr()));
        // Full-range and empty views are fine.
        assert_eq!(ds.view(0, 5), ds);
        assert!(ds.view(2, 2).is_empty());
    }

    fn ramp(start: usize, count: usize, series_len: usize) -> Vec<f32> {
        (start * series_len..(start + count) * series_len)
            .map(|v| v as f32)
            .collect()
    }

    fn append(ds: &Dataset, values: &[f32]) -> Dataset {
        ds.append_with(values.len() / ds.series_len(), |dst| {
            dst.copy_from_slice(values)
        })
    }

    #[test]
    fn concat_leaves_every_outstanding_view_untouched() {
        let base = Dataset::from_flat(ramp(0, 2, 4), 4).unwrap();
        let view = base.view(1, 2); // outstanding window over the old buffer
        let tail = Dataset::from_flat(vec![9.0; 4], 4).unwrap();
        let grown = base.concat([&tail]).unwrap();
        assert_eq!(grown.len(), 3);
        assert_eq!(grown.series(0), base.series(0));
        assert_eq!(grown.series(1), base.series(1));
        assert_eq!(grown.series(2), tail.series(0));
        // `from_flat` adopts the vec without headroom, so the first
        // growth copies; the outstanding view still points into the
        // untouched old buffer.
        assert!(!std::ptr::eq(
            grown.as_flat().as_ptr(),
            base.as_flat().as_ptr()
        ));
        assert!(std::ptr::eq(
            view.series(0).as_ptr(),
            base.series(1).as_ptr()
        ));
        assert_eq!(view.series(0), &[4.0, 5.0, 6.0, 7.0]);
        // The copy bought headroom: growing again stays in place, and
        // the shorter views never see the new series.
        let again = grown.concat([&tail]).unwrap();
        assert!(std::ptr::eq(
            again.as_flat().as_ptr(),
            grown.as_flat().as_ptr()
        ));
        assert_eq!(again.len(), 4);
        assert_eq!(grown.len(), 3);
        assert_eq!(again.view(0, 3), grown);
        // Empty tail list changes nothing; mismatched shapes are refused.
        assert_eq!(base.concat([]).unwrap(), base);
        let odd = Dataset::from_flat(vec![0.0; 2], 2).unwrap();
        assert!(matches!(
            base.concat([&odd]),
            Err(Error::LengthMismatch { .. })
        ));
    }

    #[test]
    fn growth_within_capacity_keeps_the_pointer_and_reallocations_are_logarithmic() {
        let initial = 10usize;
        let mut ds = Dataset::from_flat(ramp(0, initial, 8), 8).unwrap();
        let mut ptr = ds.as_flat().as_ptr();
        let mut reallocations = 0u32;
        let mut in_place_streak = 0usize;
        let mut longest_streak = 0usize;
        while ds.len() < 1000 {
            let before = ds.clone();
            ds = append(&ds, &ramp(ds.len(), 3, 8));
            assert_eq!(ds.view(0, before.len()), before, "prefix preserved");
            if std::ptr::eq(ds.as_flat().as_ptr(), ptr) {
                in_place_streak += 1;
            } else {
                reallocations += 1;
                ptr = ds.as_flat().as_ptr();
                longest_streak = longest_streak.max(in_place_streak);
                in_place_streak = 0;
            }
        }
        assert_eq!(ds.as_flat(), &ramp(0, ds.len(), 8)[..]);
        let bound = ((ds.len() as f64 / initial as f64).ln() / 1.5f64.ln()).ceil() as u32;
        assert!(
            reallocations <= bound,
            "{reallocations} reallocations growing {initial} -> {} (bound {bound})",
            ds.len()
        );
        assert!(
            longest_streak.max(in_place_streak) >= 50,
            "appends stay in place"
        );
    }

    #[test]
    fn a_buffer_someone_else_extended_is_copied_not_overwritten() {
        // Give the buffer headroom, then fork two owners off one view.
        let base = append(
            &Dataset::from_flat(ramp(0, 4, 4), 4).unwrap(),
            &ramp(4, 1, 4),
        );
        let (a, b) = (base.clone(), base.clone());
        let a2 = append(&a, &[1.0; 8]);
        let b2 = append(&b, &[2.0; 4]);
        assert!(std::ptr::eq(a2.as_flat().as_ptr(), base.as_flat().as_ptr()));
        assert!(!std::ptr::eq(
            b2.as_flat().as_ptr(),
            base.as_flat().as_ptr()
        ));
        assert_eq!(a2.view(0, 5), base);
        assert_eq!(b2.view(0, 5), base);
        assert_eq!(a2.view(5, 7).as_flat(), &[1.0; 8]);
        assert_eq!(b2.view(5, 6).as_flat(), &[2.0; 4]);
        // A sub-view that does not end at the committed mark copies too.
        let inner = append(&a2.view(1, 3), &[3.0; 4]);
        assert_eq!(inner.len(), 3);
        assert_eq!(inner.series(0), a2.series(1));
        assert_eq!(a2.series(5), &[1.0; 4], "the extended region is intact");
    }

    /// Stress of the claim / write / publish window with the
    /// interleaving forced from inside `fill`, which runs after the CAS
    /// claim and before the longer view exists: two owners of one view
    /// are both inside their fill (a barrier holds them there) while
    /// readers keep checksumming the shared prefix.
    #[test]
    fn racing_growers_and_pinned_readers_under_injected_yields() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Barrier;

        const LEN: usize = 16;
        for round in 0..20usize {
            let seed = append(
                &Dataset::from_flat(ramp(0, 32, LEN), LEN).unwrap(),
                &ramp(32, 8, LEN),
            );
            let expected = ramp(0, 40, LEN);
            let in_fill = Barrier::new(2);
            let stop = AtomicBool::new(false);
            let grow = |tag: f32| {
                let mut view = seed.clone();
                let mut won = false;
                // First append races the other owner for the same range;
                // later ones run in place and then across a growth copy.
                for step in 0..24usize {
                    let count = 1 + (round + step) % 5;
                    view = view.append_with(count, |dst| {
                        if step == 0 {
                            in_fill.wait();
                        }
                        for (i, v) in dst.iter_mut().enumerate() {
                            if i % 7 == 0 {
                                std::thread::yield_now();
                            }
                            *v = tag + step as f32;
                        }
                    });
                    if step == 0 {
                        won = std::ptr::eq(view.as_flat().as_ptr(), seed.as_flat().as_ptr());
                    }
                    std::thread::yield_now();
                }
                (view, won)
            };
            let ((a, a_won), (b, b_won)) = std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| {
                        let pinned = seed.clone();
                        while !stop.load(Ordering::Relaxed) {
                            assert_eq!(pinned.as_flat(), &expected[..]);
                            std::thread::yield_now();
                        }
                    });
                }
                let a = s.spawn(|| grow(1000.0));
                let b = s.spawn(|| grow(2000.0));
                let joined = (a.join(), b.join());
                stop.store(true, Ordering::Relaxed);
                (joined.0.expect("grower a"), joined.1.expect("grower b"))
            });
            assert!(
                a_won != b_won,
                "exactly one owner extends the shared buffer in place"
            );
            for (view, tag) in [(&a, 1000.0f32), (&b, 2000.0)] {
                assert_eq!(&view.as_flat()[..expected.len()], &expected[..]);
                let mut pos = 40;
                for step in 0..24usize {
                    for _ in 0..1 + (round + step) % 5 {
                        assert_eq!(
                            view.series(pos),
                            &[tag + step as f32; LEN],
                            "round {round}: an owner sees only its own series"
                        );
                        pos += 1;
                    }
                }
                assert_eq!(pos, view.len());
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn view_rejects_out_of_bounds() {
        let ds = Dataset::from_flat(vec![0.0; 8], 4).unwrap();
        let _ = ds.view(1, 3);
    }

    #[test]
    fn non_finite_detection() {
        let clean = Dataset::from_series([[0.0f32, 1.0], [2.0, 3.0]]).unwrap();
        assert_eq!(clean.find_non_finite(), None);
        let nan = Dataset::from_series([[0.0f32, 1.0], [2.0, f32::NAN]]).unwrap();
        assert_eq!(nan.find_non_finite(), Some((1, 1)));
        let inf = Dataset::from_series([[f32::INFINITY, 1.0], [2.0, 3.0]]).unwrap();
        assert_eq!(inf.find_non_finite(), Some((0, 0)));
        let neg = Dataset::from_series([[0.0f32, 1.0], [f32::NEG_INFINITY, 3.0]]).unwrap();
        assert_eq!(neg.find_non_finite(), Some((1, 0)));
    }
}
