//! The shared query driver (Alg. 5–9 generalized).
//!
//! One implementation of MESSI's query skeleton, statically specialized
//! over a [`Metric`] × [`SearchObjective`] pair:
//!
//! 1. **Tree pass** — workers claim *chunks* of [`ROOT_CHUNK`] arenas
//!    (one Fetch&Inc per chunk), bound the chunk's roots in one sweep of
//!    the index's packed root block
//!    ([`MindistTable::root_bounds`](messi_sax::MindistTable::root_bounds))
//!    and dereference **only the arenas whose root survives** — nine in
//!    ten die there at paper-default leaf sizes. A survivor is descended
//!    with the same table's node bound (its root neither re-bounded nor
//!    re-counted); nodes whose bound reaches the objective's bound are
//!    pruned, and surviving *leaves* are either inserted into the shared
//!    priority queues (round-robin, Alg. 7) or — in queue-less mode —
//!    scanned on the spot. The objective's bound is read per arena at
//!    its turn, so the pruning decisions and counters are those of a
//!    one-arena-at-a-time walk. Adjacent surviving leaves of the same
//!    arena leaf run are coalesced into one queued [`LeafRun`], so the
//!    batched mindist kernel later sees full 8-wide chunks instead of
//!    ~6-entry fragments (disabled by `MESSI_NO_RUN_BATCH`, per-query
//!    policy, or a δ-budgeted objective — see
//!    [`SearchObjective::coalescing_allowed`]).
//! 2. **Barrier** — queued objectives only: insertion must complete
//!    before ordered processing starts (Alg. 6 line 7).
//! 3. **Queue processing** — pop the minimum-bound run, re-check its
//!    bound (*second filtering*), scan it through the metric's
//!    lower-bound → real-distance cascade, and offer survivors to the
//!    objective. A popped bound at or above the objective's bound
//!    finishes the whole queue; workers hop to the next unfinished queue
//!    with randomization to avoid convoying (§III-B).
//!
//! Coalescing preserves the answers bit for bit: a queued run's key is
//! the *minimum* member-leaf mindist, so second filtering never cuts a
//! run whose best member would have survived alone, and any member with
//! a larger mindist that gets scanned anyway is re-pruned entry by entry
//! (each entry's batched lower bound is at least its leaf's word
//! mindist). The per-entry bound re-fetch and pruning counters are
//! unchanged.
//!
//! The paper's three deliberate contrasts with ParIS-TS (§IV-A) live
//! here once, for every objective: the complete lower-bound pass happens
//! *before* any real distance work, only leaves enter the queues, and
//! popped entries are filtered a second time.
//!
//! Per-phase wall-time collection (Fig. 13) is built into the driver, so
//! every objective — not just 1-NN — reports the same breakdown when
//! [`QueryConfig::collect_breakdown`](crate::config::QueryConfig) is set.

use super::context::Scratch;
use super::metric::Metric;
use super::objective::SearchObjective;
use crate::index::MessiIndex;
use crate::node::{LeafEntry, LeafRun, NodeId, TreeArena};
use crate::stats::{LocalStats, SharedQueryStats};
use messi_sax::{FastScanLut, MindistTable};
use messi_sync::{ConcurrentMinQueue, Dispenser, QueueSet, SenseBarrier};
use std::time::Instant;

/// Arenas claimed per Fetch&Inc — one root-block sweep.
const ROOT_CHUNK: usize = 8;

/// Everything one engine run shares across its search workers.
pub(crate) struct Engine<'e, 'a> {
    pub(crate) index: &'a MessiIndex,
    pub(crate) scratch: Scratch<'e, 'a>,
    pub(crate) stats: &'e SharedQueryStats,
    pub(crate) num_workers: usize,
    pub(crate) collect_breakdown: bool,
    /// Whether adjacent surviving leaves of one run may be coalesced
    /// into a single queued/scanned [`LeafRun`] (the per-query
    /// [`RunBatchPolicy`](crate::config::RunBatchPolicy) and the
    /// `MESSI_NO_RUN_BATCH` escape hatch, resolved by the caller).
    /// The driver additionally honors the objective's veto.
    pub(crate) coalesce: bool,
    /// The 4-bit fast-scan tier's LUT, built from the objective's bound
    /// after seeding; `None` when that bound is not finite and positive
    /// (the tier is then off for the whole run).
    pub(crate) fastscan: Option<FastScanLut>,
}

/// A run of consecutive surviving leaves accumulated during the tree
/// pass, not yet queued/scanned. Holds only ordinals, so it is
/// assembled into a borrowed [`LeafRun`] at flush time.
#[derive(Clone, Copy)]
struct PendingRun {
    run_id: u32,
    ord_lo: u32,
    ord_hi: u32,
    /// Minimum member-leaf mindist — the queue key, so second filtering
    /// is exactly as tight as for the best member alone.
    key: f32,
}

/// Per-worker wall-time accumulators, flushed into the shared stats at
/// worker exit. All zero-cost when breakdown collection is disabled.
#[derive(Default)]
struct PhaseTimers {
    enabled: bool,
    tree_pass_ns: u64,
    pq_insert_ns: u64,
    pq_remove_ns: u64,
    dist_calc_ns: u64,
}

impl PhaseTimers {
    fn new(enabled: bool) -> Self {
        Self {
            enabled,
            ..Self::default()
        }
    }

    #[inline]
    fn timed<R>(&mut self, slot: fn(&mut Self) -> &mut u64, f: impl FnOnce() -> R) -> R {
        if self.enabled {
            let t = Instant::now();
            let r = f();
            *slot(self) += t.elapsed().as_nanos() as u64;
            r
        } else {
            f()
        }
    }

    fn flush(&self, stats: &SharedQueryStats) {
        if self.enabled {
            stats.tree_pass_ns.add(self.tree_pass_ns);
            stats.pq_insert_ns.add(self.pq_insert_ns);
            stats.pq_remove_ns.add(self.pq_remove_ns);
            stats.dist_calc_ns.add(self.dist_calc_ns);
        }
    }
}

/// Runs the search: dispatches `num_workers` workers over the engine's
/// shared state and blocks until the objective's result is final.
///
/// A single-worker search runs inline — no pool dispatch, no barrier
/// wait — which also makes it cheap to issue from within pool workers
/// (the inter-query parallel batch mode relies on this).
pub(crate) fn run<M: Metric, O: SearchObjective>(
    engine: &Engine<'_, '_>,
    metric: &M,
    objective: &O,
) {
    let dispenser = Dispenser::new(engine.index.roots.len().div_ceil(ROOT_CHUNK));
    let worker = |pid: usize| {
        let mut local = LocalStats::default();
        let mut timers = PhaseTimers::new(engine.collect_breakdown);
        let mut results = O::Local::default();
        if O::USES_QUEUES {
            queued_worker(
                engine,
                metric,
                objective,
                &dispenser,
                pid,
                &mut local,
                &mut timers,
                &mut results,
            );
        } else {
            scan_worker(
                engine,
                metric,
                objective,
                &dispenser,
                &mut local,
                &mut timers,
                &mut results,
            );
        }
        objective.absorb(results);
        local.flush(engine.stats);
        timers.flush(engine.stats);
    };
    if engine.num_workers == 1 {
        worker(0);
    } else {
        messi_sync::WorkerPool::global().run(engine.num_workers, &worker);
    }
}

/// One search worker with a queue phase (Alg. 6): subtree traversal,
/// barrier, then queue processing until every queue is finished.
#[allow(clippy::too_many_arguments)]
fn queued_worker<'a, M: Metric, O: SearchObjective>(
    engine: &Engine<'_, 'a>,
    metric: &M,
    objective: &O,
    dispenser: &Dispenser,
    pid: usize,
    local: &mut LocalStats,
    timers: &mut PhaseTimers,
    results: &mut O::Local,
) {
    let queues: &QueueSet<LeafRun<'a>> = engine
        .scratch
        .queues
        .expect("queued objective requires queue scratch");
    let barrier: &SenseBarrier = engine
        .scratch
        .barrier
        .expect("queued objective requires a barrier");
    let nq = queues.len();
    let coalesce = engine.coalesce && objective.coalescing_allowed();

    // Phase A: tree pass (Alg. 6 lines 3–6). Workers own disjoint
    // subtrees, so a pending run never spans two workers' leaves.
    let t_phase = Instant::now();
    let mut cursor = pid % nq;
    tree_pass(
        engine.index,
        metric,
        objective,
        dispenser,
        coalesce,
        local,
        results,
        // Timed as queue-insertion work; `inserted` counts member
        // leaves, not queue operations, so it is independent of
        // coalescing.
        &mut |run, key, local, _| {
            local.inserted += run.leaf_count() as u64;
            timers.timed(
                |t| &mut t.pq_insert_ns,
                || queues.push_round_robin(&mut cursor, key, run),
            );
        },
    );
    if timers.enabled {
        // Tree-pass time excludes the queue insertions counted separately.
        timers.tree_pass_ns +=
            (t_phase.elapsed().as_nanos() as u64).saturating_sub(timers.pq_insert_ns);
    }

    barrier.wait();

    // Phase B: queue processing (Alg. 6 lines 8–13).
    let mut q = pid % nq;
    // Small xorshift for the randomized queue choice (§I: "workers use
    // randomization to choose the priority queues they will work on").
    let mut rng = (pid as u32).wrapping_mul(0x9E37_79B9) | 1;
    loop {
        process_queue(
            engine,
            metric,
            objective,
            queues.queue(q),
            local,
            timers,
            results,
        );
        rng ^= rng << 13;
        rng ^= rng >> 17;
        rng ^= rng << 5;
        match queues.next_unfinished(rng as usize % nq) {
            Some(next) => q = next,
            None => break,
        }
    }
}

/// One search worker in queue-less mode (fixed-bound objectives): the
/// traversal *is* the whole algorithm — surviving leaves are scanned on
/// the spot (coalesced into runs when allowed), no ordering, no barrier.
fn scan_worker<M: Metric, O: SearchObjective>(
    engine: &Engine<'_, '_>,
    metric: &M,
    objective: &O,
    dispenser: &Dispenser,
    local: &mut LocalStats,
    timers: &mut PhaseTimers,
    results: &mut O::Local,
) {
    let coalesce = engine.coalesce && objective.coalescing_allowed();
    let t_phase = Instant::now();
    tree_pass(
        engine.index,
        metric,
        objective,
        dispenser,
        coalesce,
        local,
        results,
        &mut |run, _, local, results| {
            timers.timed(
                |t| &mut t.dist_calc_ns,
                || scan_run(engine, metric, objective, run, local, results),
            );
        },
    );
    if timers.enabled {
        // The leaf scans are counted as distance-calculation time.
        timers.tree_pass_ns +=
            (t_phase.elapsed().as_nanos() as u64).saturating_sub(timers.dist_calc_ns);
    }
}

/// Extends `pending` with the surviving leaf `ord` (mindist `d`) when it
/// is the next consecutive member of the same arena run, else returns
/// the pending run to flush and restarts accumulation at `ord`. With
/// coalescing off, every leaf flushes its predecessor — single-leaf
/// runs, the pre-batching behavior.
#[inline]
fn accumulate(
    arena: &TreeArena,
    pending: &mut Option<PendingRun>,
    coalesce: bool,
    ord: u32,
    d: f32,
) -> Option<PendingRun> {
    let run_id = arena.run_of(ord);
    match pending {
        Some(p) if coalesce && p.run_id == run_id && p.ord_hi == ord => {
            p.ord_hi = ord + 1;
            p.key = p.key.min(d);
            None
        }
        _ => pending.replace(PendingRun {
            run_id,
            ord_lo: ord,
            ord_hi: ord + 1,
            key: d,
        }),
    }
}

/// The tree pass of either worker kind (Alg. 6 lines 3–6): claims arena
/// chunks until the dispenser runs dry, sweeps each chunk's roots from
/// the root block, and descends the survivors; `flush` receives every
/// completed run of surviving leaves with its key — to queue it or
/// scan it.
#[allow(clippy::too_many_arguments)]
fn tree_pass<'a, M: Metric, O: SearchObjective>(
    index: &'a MessiIndex,
    metric: &M,
    objective: &O,
    dispenser: &Dispenser,
    coalesce: bool,
    local: &mut LocalStats,
    results: &mut O::Local,
    flush: &mut impl FnMut(LeafRun<'a>, f32, &mut LocalStats, &mut O::Local),
) {
    let (table, use_simd) = metric.lookup();
    let mut lbs = [0.0f32; ROOT_CHUNK];
    while let Some(chunk) = dispenser.next() {
        let lo = chunk * ROOT_CHUNK;
        let roots = &index.roots[lo..index.roots.len().min(lo + ROOT_CHUNK)];
        table.root_bounds(roots, use_simd, &mut lbs);
        for (arena, &d) in index.arenas[lo..].iter().zip(&lbs[..roots.len()]) {
            local.lb += 1;
            local.node_lb += 1;
            if d >= objective.bound() {
                objective.on_prune(results, d);
                continue; // the whole arena is pruned, untouched
            }
            local.arenas_descended += 1;
            let mut pending = None;
            descend(
                table,
                objective,
                arena,
                TreeArena::ROOT,
                d,
                coalesce,
                &mut pending,
                local,
                results,
                flush,
            );
            if let Some(p) = pending {
                flush(arena.leaf_run(p.ord_lo, p.ord_hi), p.key, local, results);
            }
        }
    }
}

/// Recursive subtree traversal (Alg. 7) below a node whose bound `d`
/// already survived: a leaf joins the pending run, an inner node bounds
/// each child by table lookup and descends the ones that survive. The
/// preorder walk visits leaves in ascending ordinal order, which is what
/// lets `pending` coalesce neighbors with a plain consecutiveness check.
#[allow(clippy::too_many_arguments)]
fn descend<'a, O: SearchObjective>(
    table: &MindistTable,
    objective: &O,
    arena: &'a TreeArena,
    id: NodeId,
    d: f32,
    coalesce: bool,
    pending: &mut Option<PendingRun>,
    local: &mut LocalStats,
    results: &mut O::Local,
    flush: &mut impl FnMut(LeafRun<'a>, f32, &mut LocalStats, &mut O::Local),
) {
    if arena.is_leaf(id) {
        let ord = arena.leaf_ordinal(id);
        if let Some(p) = accumulate(arena, pending, coalesce, ord, d) {
            flush(arena.leaf_run(p.ord_lo, p.ord_hi), p.key, local, results);
        }
        return;
    }
    let (left, right) = arena.children(id);
    for child in [left, right] {
        let d = table.node_lower_bound(arena.word(child));
        local.lb += 1;
        local.node_lb += 1;
        if d >= objective.bound() {
            objective.on_prune(results, d); // the whole subtree is pruned
        } else {
            descend(
                table, objective, arena, child, d, coalesce, pending, local, results, flush,
            );
        }
    }
}

/// Drains one queue (Alg. 8) until it is empty or its minimum reaches
/// the objective's bound; either way the queue ends marked finished.
fn process_queue<M: Metric, O: SearchObjective>(
    engine: &Engine<'_, '_>,
    metric: &M,
    objective: &O,
    queue: &ConcurrentMinQueue<LeafRun<'_>>,
    local: &mut LocalStats,
    timers: &mut PhaseTimers,
    results: &mut O::Local,
) {
    loop {
        if queue.is_finished() {
            return;
        }
        let popped = timers.timed(|t| &mut t.pq_remove_ns, || queue.pop_min());
        match popped {
            None => {
                // Insertions ended at the barrier, so empty means done.
                queue.mark_finished();
                return;
            }
            Some((dist, run)) => {
                local.popped += 1;
                if dist >= objective.bound() {
                    // Second filtering: every remaining entry is worse.
                    local.filtered += 1;
                    objective.on_prune(results, dist);
                    queue.mark_finished();
                    return;
                }
                // Budgeted objectives admit member leaves one at a time
                // — exactly one charge per leaf, coalesced or not. (With
                // a finite budget coalescing is vetoed, so runs here are
                // single leaves; the prefix path is pure defense.)
                let mut admitted = 0;
                while admitted < run.leaf_count() && objective.admit_leaf(results) {
                    admitted += 1;
                }
                let vetoed = admitted < run.leaf_count();
                if admitted > 0 {
                    let run = if vetoed { run.prefix(admitted) } else { run };
                    timers.timed(
                        |t| &mut t.dist_calc_ns,
                        || scan_run(engine, metric, objective, run, local, results),
                    );
                }
                if vetoed {
                    // Early termination (δ-budgeted objectives): the
                    // visit budget is spent, so this queue — and, via
                    // the same veto, every other — winds down.
                    queue.mark_finished();
                    return;
                }
            }
        }
    }
}

/// Scans one leaf run (Alg. 9) in two tiers over the run's
/// struct-of-arrays symbol block. With the engine's fast-scan LUT, each
/// full block of [`FastScanLut::BLOCK`] entries is first tested 4 bits a
/// symbol against the live bound: an 8-entry chunk with no survivor is
/// only counted, any other chunk goes on with its non-survivors' bounds
/// at +∞ (the tier is conservative, so those would have been pruned
/// anyway). Remaining entries take the metric's first lower bound
/// batched, 8 at a time — full-width chunks straddle member-leaf
/// boundaries, which is the whole point of coalescing. Every chunk then
/// goes through [`scan_bounded`]. Each per-entry lower bound is computed
/// independently of the chunking (bit-identical whether the entry is
/// scanned alone or mid-run).
#[inline]
fn scan_run<M: Metric, O: SearchObjective>(
    engine: &Engine<'_, '_>,
    metric: &M,
    objective: &O,
    run: LeafRun<'_>,
    local: &mut LocalStats,
    results: &mut O::Local,
) {
    let (table, use_simd) = metric.lookup();
    let (stride, run_base) = (run.stride as usize, run.base as usize);
    let n = run.entries.len();
    let mut lbs = [0.0f32; 8];
    let mut base = 0;
    if let Some(lut) = &engine.fastscan {
        while n - base >= FastScanLut::BLOCK {
            let threshold = lut.threshold(objective.bound());
            let survivors = lut.survivors(run.cols, stride, run_base + base, threshold, use_simd);
            for (chunk, mask) in survivors.to_le_bytes().into_iter().enumerate() {
                let at = base + 8 * chunk;
                if mask == 0 {
                    local.lb += 8;
                    continue;
                }
                table.mindist_sq_soa(run.cols, stride, run_base + at, 8, use_simd, &mut lbs);
                for (lane, lb) in lbs.iter_mut().enumerate() {
                    if mask >> lane & 1 == 0 {
                        *lb = f32::INFINITY;
                    }
                }
                let entries = &run.entries[at..at + 8];
                scan_bounded(metric, objective, entries, &lbs, local, results);
            }
            base += FastScanLut::BLOCK;
        }
    }
    while base < n {
        let len = (n - base).min(8);
        table.mindist_sq_soa(run.cols, stride, run_base + base, len, use_simd, &mut lbs);
        let entries = &run.entries[base..base + len];
        scan_bounded(metric, objective, entries, &lbs[..len], local, results);
        base += len;
    }
}

/// The entry half of a leaf scan, over `entries` whose batched lower
/// bounds are `lbs`: each survivor continues through the metric's
/// remaining cascade and its early-abandoning real distance, offered to
/// the objective on survival. The bound is re-fetched per entry, so a
/// concurrent BSF improvement tightens pruning mid-run exactly as the
/// old entry-at-a-time sweep did. The seed step calls this directly,
/// over a whole home leaf it bounded up front.
#[inline]
pub(super) fn scan_bounded<M: Metric, O: SearchObjective>(
    metric: &M,
    objective: &O,
    entries: &[LeafEntry],
    lbs: &[f32],
    local: &mut LocalStats,
    results: &mut O::Local,
) {
    for (lb, entry) in lbs.iter().zip(entries) {
        local.lb += 1;
        let bound = objective.bound();
        if *lb >= bound {
            continue;
        }
        if let Some(d) = metric.entry_distance(entry, bound, local) {
            if d < bound && objective.offer(results, d, entry.pos) {
                local.bsf_updates += 1;
            }
        }
    }
}
