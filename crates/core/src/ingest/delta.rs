//! The [`DeltaIndex`]: the epoch/RCU seam of [live ingest](super).
//!
//! At any instant the live index is one **epoch**: an immutable
//! `(index + executor, collection view)` pair behind an `Arc`. The view
//! is `[0, total)` of the collection buffer; the index covers its first
//! `core_len` series and the tail is the **overlay**. Queries clone the
//! epoch's `Arc` (a brief `RwLock` read, never held across query work)
//! and run against that snapshot; writers publish a *successor*:
//!
//! * **Ingest** — the batch is written once into the buffer's spare
//!   capacity ([`Dataset::append_with`]) and the successor's view is
//!   longer; the index core is shared untouched. O(batch) work.
//! * **Republish** — the same view goes to
//!   [`ShardedIndex::absorb`](crate::shard::ShardedIndex::absorb), which
//!   grows the last shard by *insertion*
//!   ([`MessiIndex::insert_batch`](crate::index::MessiIndex::insert_batch):
//!   one merge pass — overlay entries appended to their home leaves in
//!   position order, only overflowing leaves re-split, untouched
//!   subtrees spliced from borrowed slices — equal, record for record,
//!   to a sequential build over the grown collection). A fresh executor
//!   is then prewarmed — every context shaped, one query per shard —
//!   and published. Old epochs stay valid and allocation-free to query
//!   until their last reader drops: a view never covers bytes beyond
//!   its own length, and nothing below it is ever rewritten.
//!
//! The republish runs **off the ack path**, on a thread of its own: the
//! insert that crosses the size trigger starts it and returns, and the
//! writer keeps logging, appending and publishing while it absorbs. At
//! most one republish is in flight. Only the writer changes the
//! collection view and a republish only swaps in a new core, each under
//! the publication lock, so neither loses the other's successor: series
//! that arrive during an absorb stay overlay and go into the next one.
//! The trigger counts series past what the in-flight republish covers,
//! and the writer waits for that republish only when the next one is
//! due, so the overlay stays under about twice the trigger. Boot replay
//! ([`DeltaIndex::with_log`]), [`DeltaIndex::index`],
//! [`DeltaIndex::republish`], [`DeltaIndex::checkpoint_log`] and drop
//! wait for the republish in flight.
//!
//! The overlay is scanned with the engine's own distance kernels at a
//! bound no answer reaches, so merged answers are bit-identical to a
//! fresh build over the grown collection (`tests/ingest_equivalence.rs`).

use super::log::{DeltaLog, ReplayReport};
use super::{check_position_ceiling, IngestError};
use crate::config::QueryConfig;
use crate::exact::QueryAnswer;
use crate::exec::{MetricSpec, Objective, QuerySpec};
use crate::shard::{ShardedExecutor, ShardedIndex};
use crate::stats::QueryStats;
use messi_series::distance::dtw::dtw_sq_early_abandon;
use messi_series::distance::euclidean::ed_sq_early_abandon_with;
use messi_series::Dataset;
use parking_lot::{Mutex, RwLock};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Knobs of the live-ingest layer.
#[derive(Debug, Clone)]
pub struct IngestOptions {
    /// Overlay size (in series, past what a republish in flight already
    /// covers) at which the insert that crossed it starts a background
    /// republish. `0` disables the size trigger (republish only manually
    /// or by cadence).
    pub republish_after: usize,
    /// Cadence trigger: when the published core is older than this and
    /// the overlay is non-empty, [`DeltaIndex::maybe_republish`] starts
    /// a republish. `None` disables the cadence trigger.
    pub max_epoch_age: Option<Duration>,
}

impl Default for IngestOptions {
    fn default() -> Self {
        Self {
            republish_after: 4096,
            max_epoch_age: Some(Duration::from_secs(5)),
        }
    }
}

/// What [`DeltaIndex::insert_batch`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestReport {
    /// Series accepted from the batch.
    pub accepted: usize,
    /// Total live series after the insert (base + overlay).
    pub total_series: u64,
    /// Epoch id now published.
    pub epoch: u64,
    /// Whether the insert crossed the size trigger and started a
    /// background republish (which may still be running, and may yet
    /// fail, when the insert returns).
    pub republished: bool,
}

/// A point-in-time snapshot of the ingest layer's accounting, the
/// source for the `/metrics` ingest families. `Default` is the all-zero
/// snapshot a daemon without ingest enabled exports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IngestStats {
    /// Published epoch id (bumps on every insert and republish).
    pub epoch: u64,
    /// Age of the published index core (resets on republish).
    pub epoch_age: Duration,
    /// Series currently in the overlay (not yet flattened).
    pub overlay_series: u64,
    /// Total live series (base + overlay).
    pub total_series: u64,
    /// Ingest batches accepted since boot.
    pub batches: u64,
    /// Series ingested since boot.
    pub series_ingested: u64,
    /// Republishes (overlay flattens) started since boot, counted when
    /// they start.
    pub republishes: u64,
    /// Total wall-clock spent in republishes that finished, since boot.
    pub republish_time: Duration,
    /// Republishes that failed (the overlay is kept), counted when they
    /// finish.
    pub republish_failures: u64,
    /// Current delta-log size in bytes (0 when running without a log).
    pub log_bytes: u64,
}

/// One published epoch: the immutable index core plus the view of the
/// collection buffer it answers over.
struct Epoch {
    core: Arc<EpochCore>,
    /// The whole live collection; everything past the core's
    /// `core_len()` series is the overlay, in arrival order.
    data: Arc<Dataset>,
    /// Monotonic epoch id.
    id: u64,
}

impl Epoch {
    fn core_len(&self) -> usize {
        self.core.index.dataset().len()
    }

    fn overlay_len(&self) -> usize {
        self.data.len() - self.core_len()
    }

    /// Folds the overlay's brute-force scan ([`merge_overlay`]) into what
    /// the published arenas answered; nothing to do while it is empty.
    fn with_overlay(
        &self,
        query: &[f32],
        spec: &QuerySpec,
        config: &QueryConfig,
        answers: Vec<QueryAnswer>,
        mut stats: QueryStats,
    ) -> (Vec<QueryAnswer>, QueryStats) {
        if self.overlay_len() == 0 {
            return (answers, stats);
        }
        stats.real_distance_calcs += self.overlay_len() as u64;
        (merge_overlay(self, query, spec, config, answers), stats)
    }

    /// The whole overlay lands in the last shard at the next republish:
    /// enforce its `u32` ceiling at acceptance, so republish never fails
    /// on positions.
    fn check_room(&self, incoming: usize) -> Result<(), IngestError> {
        let index = &self.core.index;
        let last_local = index.shard(index.num_shards() - 1).num_series() + self.overlay_len();
        check_position_ceiling(last_local as u64, incoming as u64)
    }
}

/// The heavy, shareable part of an epoch: the sharded index and its
/// warm executor. Shared untouched across ingest epochs; replaced by
/// republish.
struct EpochCore {
    /// Declared before `index` so it drops first: it borrows the
    /// `ShardedIndex` heap allocation owned by `index`'s `Arc` through
    /// an erased lifetime (see [`EpochCore::new`]).
    exec: ShardedExecutor<'static>,
    index: Arc<ShardedIndex>,
    /// When this core was published (epoch-age metric and cadence
    /// trigger).
    published_at: Instant,
}

impl EpochCore {
    fn new(index: Arc<ShardedIndex>) -> Arc<Self> {
        let exec = ShardedExecutor::new(&index);
        // SAFETY: `exec` borrows the `ShardedIndex` allocation behind
        // `index`'s `Arc`. The `Arc` is stored in the same struct and
        // outlives `exec` (field order puts `exec` first, so it drops
        // first), and an `Arc`'s pointee never moves. The erased
        // lifetime is never observable: `EpochCore` is private to this
        // module and `exec` is only ever used while `&self` — and
        // therefore `index` — is alive.
        let exec =
            unsafe { std::mem::transmute::<ShardedExecutor<'_>, ShardedExecutor<'static>>(exec) };
        Arc::new(Self {
            exec,
            index,
            published_at: Instant::now(),
        })
    }

    /// Warms every pooled context — shaped, plus one query per shard
    /// ([`ShardedExecutor::prewarm`]) — so first queries on this core are
    /// allocation-free (the serve path asserts this via `alloc_events`).
    fn prewarm(&self, config: &QueryConfig) {
        let query = self.index.dataset().series(0).to_vec();
        self.exec.prewarm(&query, &QuerySpec::exact(), config);
    }
}

/// Monotonic accounting behind [`DeltaIndex::stats`].
#[derive(Default)]
struct Counters {
    batches: AtomicU64,
    series_ingested: AtomicU64,
    republishes: AtomicU64,
    republish_micros: AtomicU64,
    republish_failures: AtomicU64,
    log_bytes: AtomicU64,
}

/// What a republish thread shares with the index it grows: the
/// published epoch, the prewarm configuration and the accounting.
struct Shared {
    /// The published epoch. Readers hold the lock only long enough to
    /// clone the `Arc`; the writer and a republish only long enough to
    /// read the current epoch and store its successor.
    published: RwLock<Arc<Epoch>>,
    /// Last prewarm configuration — republish warms the fresh executor
    /// with it before the swap, keeping the no-alloc discipline across
    /// epochs.
    warm: Mutex<QueryConfig>,
    counts: Counters,
    /// Makes the next republish fail (regression tests only).
    #[cfg(test)]
    fail_next_republish: std::sync::atomic::AtomicBool,
    /// Holds a republish at its start while locked (tests only).
    #[cfg(test)]
    hold_republish: Mutex<()>,
}

impl Shared {
    /// The current epoch snapshot: one brief read-lock to clone the
    /// `Arc`, never held across query work.
    fn snapshot(&self) -> Arc<Epoch> {
        Arc::clone(&self.published.read())
    }

    /// The one republish body, run on the republish thread or by
    /// [`DeltaIndex::republish`]: absorbs `epoch`'s overlay into a fresh,
    /// prewarmed core and swaps that core in under whatever collection
    /// view the writer has published since. On failure the overlay is
    /// kept and [`IngestStats::republish_failures`] counts it.
    fn republish(&self, epoch: &Epoch) -> Result<(), IngestError> {
        let started = Instant::now();
        let core = match self.absorb(epoch) {
            Ok(core) => core,
            Err(e) => {
                self.counts
                    .republish_failures
                    .fetch_add(1, Ordering::Relaxed);
                return Err(e);
            }
        };
        {
            let mut published = self.published.write();
            let next = Epoch {
                core,
                data: Arc::clone(&published.data),
                id: published.id + 1,
            };
            *published = Arc::new(next);
        }
        self.counts
            .republish_micros
            .fetch_add(started.elapsed().as_micros() as u64, Ordering::Relaxed);
        Ok(())
    }

    fn absorb(&self, epoch: &Epoch) -> Result<Arc<EpochCore>, IngestError> {
        #[cfg(test)]
        drop(self.hold_republish.lock());
        #[cfg(test)]
        if self.fail_next_republish.swap(false, Ordering::Relaxed) {
            return Err(IngestError::Corrupt("injected republish failure".into()));
        }
        // No data movement: the grown collection is the view this epoch
        // already answers over; the index only points into it.
        let index = epoch.core.index.absorb(Arc::clone(&epoch.data))?;
        let core = EpochCore::new(Arc::new(index));
        // Warm the fresh executor *before* the swap so queries landing
        // on the new epoch stay allocation-free from the first one.
        core.prewarm(&self.warm.lock().clone());
        Ok(core)
    }
}

/// The republish in flight: the collection length it covers and its
/// thread.
struct InFlight {
    covers: usize,
    thread: JoinHandle<()>,
}

/// A live, growable MESSI index: a [`ShardedIndex`] behind an
/// epoch/RCU seam that accepts appended series
/// ([`DeltaIndex::insert_batch`]) while concurrent queries
/// ([`DeltaIndex::query`]) keep reading immutable published state.
/// See the [module docs](crate::ingest) for the design.
pub struct DeltaIndex {
    shared: Arc<Shared>,
    /// Serializes writers (insert/compact) and owns the optional delta
    /// log.
    writer: Mutex<Option<DeltaLog>>,
    /// At most one republish in flight. Lock order: `writer`, then
    /// this; a republish thread takes neither.
    inflight: Mutex<Option<InFlight>>,
    options: IngestOptions,
    series_len: usize,
}

impl DeltaIndex {
    /// Wraps a built index as epoch 0, without durability (no delta
    /// log — inserts are accepted in memory only).
    pub fn new(index: ShardedIndex, options: IngestOptions) -> Self {
        let data = Arc::clone(index.dataset());
        let series_len = data.series_len();
        let epoch = Arc::new(Epoch {
            core: EpochCore::new(Arc::new(index)),
            data,
            id: 0,
        });
        Self {
            shared: Arc::new(Shared {
                published: RwLock::new(epoch),
                warm: Mutex::new(QueryConfig::default()),
                counts: Counters::default(),
                #[cfg(test)]
                fail_next_republish: std::sync::atomic::AtomicBool::new(false),
                #[cfg(test)]
                hold_republish: Mutex::new(()),
            }),
            writer: Mutex::new(None),
            inflight: Mutex::new(None),
            options,
            series_len,
        }
    }

    /// Wraps a built index with a delta log at `path`: opens (or
    /// creates) the log, validates it belongs to this collection,
    /// replays any surviving batches over the index, and keeps the
    /// handle so every subsequent [`DeltaIndex::insert_batch`] is
    /// appended and fsynced before it becomes queryable.
    ///
    /// Replay decodes every frame straight into the collection buffer,
    /// checking that each value is finite as it goes, and publishes them
    /// together, so it republishes at most once however long the log is,
    /// and returns only once that republish has finished.
    /// The returned [`ReplayReport`] says how many batches were recovered
    /// and whether a torn tail was dropped.
    ///
    /// # Errors
    ///
    /// What [`DeltaLog::open`] refuses, [`IngestError::NonFinite`] for a
    /// checksum-valid frame holding a NaN or an infinity (its position
    /// counted from the first replayed series), and
    /// [`IngestError::PositionOverflow`] for a replay that would push the
    /// last shard past its position ceiling.
    pub fn with_log(
        index: ShardedIndex,
        options: IngestOptions,
        path: &Path,
    ) -> Result<(Self, ReplayReport), IngestError> {
        let (log, frames, report) = DeltaLog::open(path, index.dataset())?;
        let live = Self::new(index, options);
        {
            let mut writer = live.writer.lock();
            if report.series > 0 {
                // In memory only — these batches are already in the log
                // (the handle is installed below).
                let epoch = live.snapshot();
                epoch.check_room(report.series)?;
                let mut non_finite = None;
                let data = epoch.data.append_with(report.series, |dst| {
                    non_finite = frames.decode_into(dst);
                });
                if let Some((pos, index)) = non_finite {
                    return Err(IngestError::NonFinite { pos, index });
                }
                live.publish(&epoch, data, report.batches as u64);
            }
            live.counts()
                .log_bytes
                .store(log.bytes(), Ordering::Relaxed);
            *writer = Some(log);
        }
        live.settle();
        Ok((live, report))
    }

    fn snapshot(&self) -> Arc<Epoch> {
        self.shared.snapshot()
    }

    fn counts(&self) -> &Counters {
        &self.shared.counts
    }

    /// Appends a batch of series to the live index. On return the
    /// batch is durable (fsynced to the delta log, when one is
    /// attached) and visible to every query started afterwards; queries
    /// already in flight keep their pre-insert snapshot. Series are
    /// assigned consecutive global positions starting at the current
    /// total.
    ///
    /// An insert that crosses the size trigger starts a republish on a
    /// background thread and returns without waiting for it
    /// (`republished` is `true`); until it finishes, queries scan the
    /// series it absorbs as overlay. The insert waits only when a
    /// republish is due while the previous one is still running: it
    /// joins that one before starting the next.
    ///
    /// Rejects (typed, atomically — nothing is logged or published on
    /// error): empty batches, shape mismatches, non-finite values, and
    /// batches that would push the absorbing shard past the `u32`
    /// local-position ceiling. A republish that fails later keeps the
    /// overlay, says so on stderr and counts in
    /// [`IngestStats::republish_failures`]; the batch stays
    /// acknowledged, so a client never re-sends a batch that is
    /// already in.
    pub fn insert_batch(&self, batch: &Dataset) -> Result<IngestReport, IngestError> {
        // Validation needs no lock: reject before queueing behind other
        // writers.
        if batch.is_empty() {
            return Err(IngestError::EmptyBatch);
        }
        if batch.series_len() != self.series_len {
            return Err(IngestError::ShapeMismatch {
                expected: self.series_len,
                got: batch.series_len(),
            });
        }
        if let Some((pos, index)) = batch.find_non_finite() {
            return Err(IngestError::NonFinite { pos, index });
        }
        let mut writer = self.writer.lock();
        let epoch = self.snapshot();
        epoch.check_room(batch.len())?;

        // Durability before visibility: the log append fsyncs.
        if let Some(log) = writer.as_mut() {
            log.append(batch)?;
            self.counts()
                .log_bytes
                .store(log.bytes(), Ordering::Relaxed);
        }
        // The one copy after the log write, into spare capacity no
        // published view covers.
        let data = epoch
            .data
            .append_with(batch.len(), |dst| dst.copy_from_slice(batch.as_flat()));
        Ok(self.publish(&epoch, data, 1))
    }

    /// Publishes `data` — `epoch`'s collection grown by `batches`
    /// already-durable batches — as the successor epoch and applies the
    /// size trigger. The caller holds the writer lock, so `epoch` is
    /// still the current view; a republish may have swapped in a newer
    /// core since, and the successor keeps it. Infallible by design: see
    /// [`DeltaIndex::insert_batch`].
    fn publish(&self, epoch: &Epoch, data: Dataset, batches: u64) -> IngestReport {
        let accepted = data.len() - epoch.data.len();
        let next = {
            let mut published = self.shared.published.write();
            let next = Arc::new(Epoch {
                core: Arc::clone(&published.core),
                data: Arc::new(data),
                id: published.id + batches,
            });
            *published = Arc::clone(&next);
            next
        };
        let counts = self.counts();
        counts.batches.fetch_add(batches, Ordering::Relaxed);
        counts
            .series_ingested
            .fetch_add(accepted as u64, Ordering::Relaxed);

        let mut inflight = self.inflight.lock();
        let covered = inflight
            .as_ref()
            .map_or(0, |r| r.covers)
            .max(next.core_len());
        let due = self.options.republish_after > 0
            && next.data.len() - covered >= self.options.republish_after;
        IngestReport {
            accepted,
            total_series: next.data.len() as u64,
            epoch: next.id,
            republished: due && self.start_republish(&mut inflight),
        }
    }

    /// Joins the republish in flight, if any, then starts one on a fresh
    /// thread for the epoch published now. Returns whether it started:
    /// a thread that cannot be spawned counts as a failed republish and
    /// keeps the overlay.
    fn start_republish(&self, inflight: &mut Option<InFlight>) -> bool {
        self.join(inflight);
        let epoch = self.snapshot();
        let covers = epoch.data.len();
        let shared = Arc::clone(&self.shared);
        let spawned = std::thread::Builder::new()
            .name("messi-republish".into())
            .spawn(move || {
                if let Err(e) = shared.republish(&epoch) {
                    eprintln!(
                        "messi: background republish failed, overlay of {} series kept: {e}",
                        epoch.overlay_len()
                    );
                }
            });
        let counts = self.counts();
        match spawned {
            Ok(thread) => {
                counts.republishes.fetch_add(1, Ordering::Relaxed);
                *inflight = Some(InFlight { covers, thread });
                true
            }
            Err(e) => {
                counts.republish_failures.fetch_add(1, Ordering::Relaxed);
                eprintln!("messi: could not start a republish thread, overlay kept: {e}");
                false
            }
        }
    }

    /// Waits for the republish in `inflight`, if any, to finish.
    fn join(&self, inflight: &mut Option<InFlight>) {
        if let Some(r) = inflight.take() {
            if r.thread.join().is_err() {
                // The panic message is already on stderr.
                self.counts()
                    .republish_failures
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Waits for the republish in flight, if any, to finish.
    fn settle(&self) {
        self.join(&mut self.inflight.lock());
    }

    /// Waits for the republish in flight, then flattens whatever overlay
    /// is left into a fresh index core on the calling thread (regardless
    /// of triggers). Returns `true` if anything was left to flatten.
    pub fn republish(&self) -> Result<bool, IngestError> {
        let mut inflight = self.inflight.lock();
        self.join(&mut inflight);
        let epoch = self.snapshot();
        if epoch.overlay_len() == 0 {
            return Ok(false);
        }
        self.counts().republishes.fetch_add(1, Ordering::Relaxed);
        self.shared.republish(&epoch)?;
        Ok(true)
    }

    /// Applies the cadence trigger: starts a background republish iff
    /// none is running, the overlay is non-empty and the published core
    /// is older than [`IngestOptions::max_epoch_age`]. Never waits for a
    /// republish: while the writer or [`DeltaIndex::republish`] holds
    /// the in-flight slot, it does nothing. The serve loop calls this on
    /// idle ticks. Returns whether a republish started.
    pub fn maybe_republish(&self) -> bool {
        let Some(max_age) = self.options.max_epoch_age else {
            return false;
        };
        let Some(mut inflight) = self.inflight.try_lock() else {
            return false;
        };
        if inflight.as_ref().is_some_and(|r| !r.thread.is_finished()) {
            return false;
        }
        self.join(&mut inflight);
        let epoch = self.snapshot();
        epoch.overlay_len() > 0
            && epoch.core.published_at.elapsed() > max_age
            && self.start_republish(&mut inflight)
    }

    /// Republishes (see [`DeltaIndex::republish`]), then resets the
    /// delta log to a fresh header over the (now grown) base collection
    /// — the caller must have persisted that collection first (see
    /// `messi compact`). Returns the new base length. No-op on the log
    /// when none is attached.
    pub fn checkpoint_log(&self) -> Result<u64, IngestError> {
        let mut writer = self.writer.lock();
        self.republish()?;
        let epoch = self.snapshot();
        let dataset = epoch.core.index.dataset();
        if let Some(log) = writer.as_mut() {
            log.reset(dataset)?;
            self.counts()
                .log_bytes
                .store(log.bytes(), Ordering::Relaxed);
        }
        Ok(dataset.len() as u64)
    }

    /// Answers one query against the live index: the published arenas
    /// through the epoch's warm executor, plus a brute-force scan of
    /// the overlay with the engine's own kernels at an infinite
    /// abandon bound, merged with the executor's exact tie-break order.
    /// Positions are global and stable across republishes.
    ///
    /// # Panics
    ///
    /// As the underlying executor: invalid spec, query length mismatch,
    /// or invalid configuration.
    pub fn query(
        &self,
        query: &[f32],
        spec: &QuerySpec,
        config: &QueryConfig,
    ) -> (Vec<QueryAnswer>, QueryStats) {
        let epoch = self.snapshot();
        let (answers, stats) = epoch.core.exec.run_one(query, spec, config);
        epoch.with_overlay(query, spec, config, answers, stats)
    }

    /// [`DeltaIndex::query`] plus the executor's allocation-event count
    /// and per-shard statistics (the serve layer's tracing hook).
    pub fn query_traced(
        &self,
        query: &[f32],
        spec: &QuerySpec,
        config: &QueryConfig,
    ) -> (Vec<QueryAnswer>, QueryStats, u64, Vec<QueryStats>) {
        let epoch = self.snapshot();
        let (answers, stats, alloc_events, per_shard) =
            epoch.core.exec.run_one_traced(query, spec, config);
        let (answers, stats) = epoch.with_overlay(query, spec, config, answers, stats);
        (answers, stats, alloc_events, per_shard)
    }

    /// Warms every pooled context of the current epoch and remembers
    /// `config` so republish re-warms successor epochs the same way.
    pub fn prewarm(&self, config: &QueryConfig) {
        *self.shared.warm.lock() = config.clone();
        self.snapshot().core.prewarm(config);
    }

    /// The published index core (base collection only — excludes any
    /// un-flattened overlay), once the republish in flight has finished.
    /// Call [`DeltaIndex::republish`] first to fold the overlay in, e.g.
    /// before saving a snapshot.
    pub fn index(&self) -> Arc<ShardedIndex> {
        self.settle();
        Arc::clone(&self.snapshot().core.index)
    }

    /// Total live series (base + overlay).
    pub fn num_series(&self) -> u64 {
        self.snapshot().data.len() as u64
    }

    /// Length of every indexed series.
    pub fn series_len(&self) -> usize {
        self.series_len
    }

    /// The published epoch id (bumps on every insert and republish).
    pub fn epoch(&self) -> u64 {
        self.snapshot().id
    }

    /// Point-in-time ingest accounting for `/metrics`.
    pub fn stats(&self) -> IngestStats {
        let epoch = self.snapshot();
        let counts = self.counts();
        IngestStats {
            epoch: epoch.id,
            epoch_age: epoch.core.published_at.elapsed(),
            overlay_series: epoch.overlay_len() as u64,
            total_series: epoch.data.len() as u64,
            batches: counts.batches.load(Ordering::Relaxed),
            series_ingested: counts.series_ingested.load(Ordering::Relaxed),
            republishes: counts.republishes.load(Ordering::Relaxed),
            republish_time: Duration::from_micros(counts.republish_micros.load(Ordering::Relaxed)),
            republish_failures: counts.republish_failures.load(Ordering::Relaxed),
            log_bytes: counts.log_bytes.load(Ordering::Relaxed),
        }
    }
}

/// Dropping the index waits for the republish in flight.
impl Drop for DeltaIndex {
    fn drop(&mut self) {
        self.settle();
    }
}

impl std::fmt::Debug for DeltaIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DeltaIndex({:?})", self.stats())
    }
}

/// Merges the engine's answers with a brute-force scan of the overlay
/// under the ordering the sharded gather uses: ascending `(dist_sq,
/// pos)` with `total_cmp` on the distance. The scan uses the *same*
/// kernels as the engine's refinement step, exact below their abandon
/// bound: +∞, or for 1-NN DTW `next_up` (one bit pattern up) of the
/// engine's answer, which every overlay position sorts after. So merged
/// answers are bit-identical to a fresh build over the grown collection.
fn merge_overlay(
    epoch: &Epoch,
    query: &[f32],
    spec: &QuerySpec,
    config: &QueryConfig,
    mut answers: Vec<QueryAnswer>,
) -> Vec<QueryAnswer> {
    let by_dist =
        |a: &QueryAnswer, b: &QueryAnswer| a.dist_sq.total_cmp(&b.dist_sq).then(a.pos.cmp(&b.pos));
    let dtw_bound = match (spec.objective, answers.first()) {
        (Objective::Exact | Objective::Approx { .. }, Some(best)) if best.dist_sq.is_finite() => {
            f32::from_bits(best.dist_sq.to_bits() + 1)
        }
        _ => f32::INFINITY,
    };
    let scan = epoch.data.iter().enumerate().skip(epoch.core_len());
    let overlay = scan.map(|(pos, series)| QueryAnswer {
        pos: pos as u64,
        dist_sq: match spec.metric {
            MetricSpec::Euclidean => {
                ed_sq_early_abandon_with(config.kernel, query, series, f32::INFINITY)
            }
            MetricSpec::Dtw(params) => dtw_sq_early_abandon(query, series, params, dtw_bound),
        },
    });
    match spec.objective {
        Objective::Exact | Objective::Approx { .. } => {
            let best = answers.into_iter().chain(overlay).min_by(by_dist);
            return vec![best.expect("exact/approximate always answers")];
        }
        Objective::Knn { k } => {
            answers.extend(overlay);
            answers.sort_by(by_dist);
            answers.truncate(k);
        }
        // The engine admits `dist < next_up(ε²)`, i.e. `dist ≤ ε²` for
        // finite distances — mirror that bound exactly.
        Objective::Range { epsilon_sq } => {
            answers.extend(overlay.filter(|a| a.dist_sq <= epsilon_sq));
            answers.sort_by(by_dist);
        }
    }
    answers
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IndexConfig;
    use messi_series::distance::dtw::DtwParams;
    use messi_series::gen::{self, DatasetKind};

    fn live_index(count: usize, shards: usize) -> DeltaIndex {
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, count, 42));
        let (index, _) = ShardedIndex::build(data, shards, &IndexConfig::for_tests());
        DeltaIndex::new(index, IngestOptions::default())
    }

    #[test]
    fn insert_extends_overlay_and_bumps_epoch() {
        let live = live_index(200, 2);
        assert_eq!(live.epoch(), 0);
        assert_eq!(live.num_series(), 200);
        let batch = gen::generate(DatasetKind::RandomWalk, 3, 7);
        let report = live.insert_batch(&batch).expect("accepted");
        assert_eq!(report.accepted, 3);
        assert_eq!(report.total_series, 203);
        assert_eq!(report.epoch, 1);
        assert!(!report.republished);
        let stats = live.stats();
        assert_eq!(stats.overlay_series, 3);
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.series_ingested, 3);
    }

    #[test]
    fn republish_flattens_and_preserves_answers() {
        let live = live_index(150, 3);
        let batch = gen::generate(DatasetKind::RandomWalk, 10, 9);
        live.insert_batch(&batch).expect("accepted");
        let query = batch.series(4).to_vec();
        let config = QueryConfig::for_tests();
        let (before, _) = live.query(&query, &QuerySpec::exact(), &config);
        assert_eq!(before[0].pos, 154, "overlay series 4 sits at 150 + 4");
        assert_eq!(before[0].dist_sq, 0.0);

        assert!(live.republish().expect("republish"));
        assert_eq!(live.stats().overlay_series, 0);
        assert_eq!(live.num_series(), 160);
        let (after, _) = live.query(&query, &QuerySpec::exact(), &config);
        assert_eq!(after, before, "positions are stable across republish");
        // Idempotent when the overlay is empty.
        assert!(!live.republish().expect("republish"));
    }

    #[test]
    fn bounded_dtw_overlay_scan_answers_as_a_fresh_build() {
        // The overlay's 1-NN DTW scan abandons at next_up of the engine's
        // answer. An overlay series that is the answer, and one that ties
        // it bit for bit, must still come out as a fresh build's answer.
        let config = QueryConfig::for_tests();
        let spec = QuerySpec::exact().with_dtw(DtwParams::paper_default(256));
        let base = gen::generate(DatasetKind::RandomWalk, 200, 42);
        let live = live_index(200, 2);
        let noisy: Vec<f32> = base
            .series(17)
            .iter()
            .enumerate()
            .map(|(i, v)| v + ((i % 5) as f32 - 2.0) * 0.05)
            .collect();
        let (engine, _) = live.query(&noisy, &spec, &config);
        let mut flat = gen::generate(DatasetKind::RandomWalk, 6, 11)
            .as_flat()
            .to_vec();
        flat.extend_from_slice(base.series(engine[0].pos as usize));
        let batch = Dataset::from_flat(flat, 256).expect("shape ok");
        live.insert_batch(&batch).expect("accepted");

        let mut grown = base.as_flat().to_vec();
        grown.extend_from_slice(batch.as_flat());
        let grown = Arc::new(Dataset::from_flat(grown, 256).expect("shape ok"));
        let (fresh, _) = ShardedIndex::build(grown, 2, &IndexConfig::for_tests());
        let fresh = DeltaIndex::new(fresh, IngestOptions::default());
        for (tag, query, pos) in [
            ("tie", noisy.as_slice(), engine[0].pos),
            ("overlay answer", batch.series(3), 203),
        ] {
            let (got, _) = live.query(query, &spec, &config);
            let (want, _) = fresh.query(query, &spec, &config);
            let bits = |a: &QueryAnswer| (a.pos, a.dist_sq.to_bits());
            assert_eq!(bits(&got[0]), bits(&want[0]), "{tag}");
            assert_eq!(got[0].pos, pos, "{tag}");
        }
    }

    #[test]
    fn typed_rejections_leave_state_untouched() {
        let live = live_index(100, 1);
        let epoch = live.epoch();

        let empty = Dataset::from_flat(Vec::new(), 256).expect("empty dataset");
        assert!(matches!(
            live.insert_batch(&empty),
            Err(IngestError::EmptyBatch)
        ));

        let skinny = Dataset::from_flat(vec![0.5; 2 * 64], 64).expect("shape ok");
        assert!(matches!(
            live.insert_batch(&skinny),
            Err(IngestError::ShapeMismatch { got: 64, .. })
        ));

        let mut values = gen::generate(DatasetKind::RandomWalk, 1, 2)
            .as_flat()
            .to_vec();
        values[5] = f32::NAN;
        let poisoned = Dataset::from_flat(values, live.series_len()).expect("shape ok");
        assert!(matches!(
            live.insert_batch(&poisoned),
            Err(IngestError::NonFinite { pos: 0, index: 5 })
        ));

        assert_eq!(live.epoch(), epoch, "rejected batches publish nothing");
        assert_eq!(live.num_series(), 100);
    }

    #[test]
    fn a_checksum_valid_non_finite_frame_is_refused_at_replay() {
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 100, 5));
        let log =
            std::env::temp_dir().join(format!("messi-delta-non-finite-{}.log", std::process::id()));
        let _ = std::fs::remove_file(&log);
        let (mut writer, _, _) = DeltaLog::open(&log, &data).expect("fresh log");
        writer
            .append(&gen::generate(DatasetKind::RandomWalk, 3, 6))
            .expect("clean frame");
        for (at, poison) in [(5, f32::NAN), (9, f32::INFINITY)] {
            let mut values = gen::generate(DatasetKind::RandomWalk, 2, 7)
                .as_flat()
                .to_vec();
            values[256 + at] = poison;
            let batch = Dataset::from_flat(values, 256).expect("shape ok");
            writer
                .append(&batch)
                .expect("the log checks frames, not values");
        }
        drop(writer);
        let (index, _) = ShardedIndex::build(data, 1, &IndexConfig::for_tests());
        // Counted from the first replayed series: frame 2's second series.
        match DeltaIndex::with_log(index, IngestOptions::default(), &log) {
            Err(IngestError::NonFinite { pos: 4, index: 5 }) => {}
            other => panic!("expected NonFinite at (4, 5), got {:?}", other.map(|_| ())),
        }
        std::fs::remove_file(&log).expect("cleanup log");
    }

    fn trigger_at(republish_after: usize) -> DeltaIndex {
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 100, 5));
        let (index, _) = ShardedIndex::build(data, 1, &IndexConfig::for_tests());
        DeltaIndex::new(
            index,
            IngestOptions {
                republish_after,
                max_epoch_age: None,
            },
        )
    }

    /// Runs `f` on a thread while every republish is held at its start,
    /// and fails if `f` has not returned within ten seconds — a call
    /// that waits for the held republish never would. The hold is
    /// released either way, so a failure cannot hang the suite.
    fn while_held<R: Send>(live: &DeltaIndex, f: impl FnOnce() -> R + Send) -> R {
        let held = live.shared.hold_republish.lock();
        std::thread::scope(move |s| {
            let call = s.spawn(f);
            let deadline = Instant::now() + Duration::from_secs(10);
            while !call.is_finished() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            let returned = call.is_finished();
            drop(held);
            assert!(returned, "the call waited for the republish in flight");
            call.join().expect("the call does not panic")
        })
    }

    #[test]
    fn size_trigger_starts_a_background_republish() {
        let live = trigger_at(8);
        let batch = gen::generate(DatasetKind::RandomWalk, 5, 6);
        assert!(!live.insert_batch(&batch).expect("first").republished);
        let report = live.insert_batch(&batch).expect("second");
        assert!(report.republished, "10 >= 8 starts a republish");
        assert_eq!(live.stats().republishes, 1, "counted when it starts");
        assert_eq!(live.index().dataset().len(), 110, "index() waits for it");
        assert_eq!(live.stats().overlay_series, 0);
        assert_eq!(live.num_series(), 110);
    }

    /// The point of the background republish: while one is in flight
    /// (held here at its start), the writer keeps acknowledging, the
    /// trigger counts only series past what it covers, and what arrived
    /// meanwhile stays overlay for the next one.
    #[test]
    fn the_writer_acknowledges_while_a_republish_is_in_flight() {
        let live = trigger_at(8);
        let batch = gen::generate(DatasetKind::RandomWalk, 5, 6);
        while_held(&live, || {
            assert!(!live.insert_batch(&batch).expect("first").republished);
            assert!(live.insert_batch(&batch).expect("second").republished);
            let third = live.insert_batch(&batch).expect("acknowledged mid-absorb");
            assert!(!third.republished, "5 past the 110 in flight is under 8");
            assert_eq!(third.total_series, 115);
            let stats = live.stats();
            assert_eq!((stats.republishes, stats.overlay_series), (1, 15));
            let config = QueryConfig::for_tests();
            let (hit, _) = live.query(batch.series(1), &QuerySpec::exact(), &config);
            assert_eq!((hit[0].pos, hit[0].dist_sq), (101, 0.0));
        });
        assert_eq!(live.index().dataset().len(), 110);
        assert_eq!(live.stats().overlay_series, 5, "the third batch waits");
        assert!(live.insert_batch(&batch).expect("fourth").republished);
        assert_eq!(live.index().dataset().len(), 120);
        assert_eq!(live.stats().republishes, 2);
    }

    /// The serve loop's idle tick: an aged core with an overlay starts a
    /// republish, and the tick returns without waiting for it.
    #[test]
    fn the_cadence_trigger_starts_a_republish_without_waiting() {
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 100, 5));
        let (index, _) = ShardedIndex::build(data, 1, &IndexConfig::for_tests());
        let live = DeltaIndex::new(
            index,
            IngestOptions {
                republish_after: 0,
                max_epoch_age: Some(Duration::ZERO),
            },
        );
        assert!(!live.maybe_republish(), "nothing to flatten");
        let batch = gen::generate(DatasetKind::RandomWalk, 5, 6);
        assert!(!live.insert_batch(&batch).expect("ingest").republished);

        while_held(&live, || {
            assert!(live.maybe_republish(), "aged core, overlay of 5");
            assert!(!live.maybe_republish(), "one republish in flight at most");
            assert_eq!(live.stats().republishes, 1);
        });
        assert_eq!(live.index().dataset().len(), 105);
        assert!(!live.maybe_republish(), "flattened");
    }

    /// Regression: a batch that is already durable and visible must be
    /// acknowledged even when the republish it starts fails — an `Err`
    /// here becomes a 500 on `/ingest`, the client retries, and the same
    /// series land twice. The one republish body carries the failure
    /// injection, so the background and the manual path fail alike.
    #[test]
    fn failed_background_republish_still_acknowledges_the_batch() {
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 100, 5));
        let (index, _) = ShardedIndex::build(data, 1, &IndexConfig::for_tests());
        let log = std::env::temp_dir().join(format!(
            "messi-delta-republish-failure-{}.log",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&log);
        let options = IngestOptions {
            republish_after: 4,
            max_epoch_age: None,
        };
        let (live, _) = DeltaIndex::with_log(index, options, &log).expect("fresh log");
        let batch = gen::generate(DatasetKind::RandomWalk, 5, 6);

        live.shared
            .fail_next_republish
            .store(true, Ordering::Relaxed);
        let report = live
            .insert_batch(&batch)
            .expect("durable + visible means acknowledged");
        assert_eq!((report.accepted, report.total_series), (5, 105));
        assert!(report.republished, "the crossing started a republish");
        assert_eq!(live.index().dataset().len(), 100, "it failed");
        let stats = live.stats();
        assert_eq!(stats.overlay_series, 5, "overlay kept");
        assert_eq!((stats.republishes, stats.republish_failures), (1, 1));
        let config = QueryConfig::for_tests();
        let (hit, _) = live.query(batch.series(2), &QuerySpec::exact(), &config);
        assert_eq!((hit[0].pos, hit[0].dist_sq), (102, 0.0));

        // The next trigger flattens everything.
        assert!(live.insert_batch(&batch).expect("second").republished);
        assert_eq!(live.index().dataset().len(), 110);
        assert_eq!(live.stats().overlay_series, 0);

        // A manual republish fails through the same body.
        let short = gen::generate(DatasetKind::RandomWalk, 3, 7);
        assert!(!live.insert_batch(&short).expect("third").republished);
        live.shared
            .fail_next_republish
            .store(true, Ordering::Relaxed);
        assert!(live.republish().is_err());
        let stats = live.stats();
        assert_eq!((stats.overlay_series, stats.republish_failures), (3, 2));

        // The log holds each acknowledged batch exactly once.
        drop(live);
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 100, 5));
        let (index, _) = ShardedIndex::build(data, 1, &IndexConfig::for_tests());
        let (_, replay) =
            DeltaIndex::with_log(index, IngestOptions::default(), &log).expect("reopen");
        assert_eq!((replay.batches, replay.series), (3, 13));
        std::fs::remove_file(&log).expect("cleanup log");
    }
}
