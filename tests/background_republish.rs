//! A republish runs on a background thread, off the ack path: the
//! insert that crosses the size trigger starts it and returns. This
//! suite pins what that may not change.
//!
//! * Readers that race an in-flight republish answer every objective ×
//!   metric cell exactly as a brute-force scan of the collection prefix
//!   their epoch covers, and stay on the warm path (`alloc_events` 0),
//!   whether their epoch has the old core and a long overlay or the
//!   freshly swapped-in core.
//! * The trigger starts exactly one republish per crossing, counted as
//!   soon as the crossing insert returns.
//! * `index()`, `republish()` and drop return only after the republish
//!   in flight has finished.

use messi::prelude::*;
use messi::series::distance::dtw::dtw_sq_early_abandon;
use messi::series::distance::euclidean::ed_sq_early_abandon_with;
use messi::series::gen;
use messi::{DeltaIndex, IngestOptions};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn deterministic() -> QueryConfig {
    QueryConfig {
        num_workers: 1,
        num_queues: 1,
        ..QueryConfig::default()
    }
}

/// Slice `[start, end)` of `full` as an owned batch.
fn slice(full: &Dataset, start: usize, end: usize) -> Dataset {
    let len = full.series_len();
    Dataset::from_flat(full.as_flat()[start * len..end * len].to_vec(), len).unwrap()
}

fn trigger(republish_after: usize) -> IngestOptions {
    IngestOptions {
        republish_after,
        max_epoch_age: None,
    }
}

/// The ten cells: {exact, knn, range, approx(0,1), approx(0.5,1)} ×
/// {ED, DTW}.
fn cells(series_len: usize, range_eps_sq: f32) -> Vec<QuerySpec> {
    let params = DtwParams::paper_default(series_len);
    [
        QuerySpec::exact(),
        QuerySpec::knn(5),
        QuerySpec::range(range_eps_sq),
        QuerySpec::approximate(0.0, 1.0),
        QuerySpec::approximate(0.5, 1.0),
    ]
    .iter()
    .flat_map(|spec| [*spec, spec.with_dtw(params)])
    .collect()
}

/// Every series' distance to `query` under `metric`, with the engine's
/// own kernels at an open bound.
fn distances(full: &Dataset, query: &[f32], metric: MetricSpec, kernel: Kernel) -> Vec<f32> {
    full.iter()
        .map(|series| match metric {
            MetricSpec::Euclidean => ed_sq_early_abandon_with(kernel, query, series, f32::INFINITY),
            MetricSpec::Dtw(params) => dtw_sq_early_abandon(query, series, params, f32::INFINITY),
        })
        .collect()
}

/// Whether `got` is what a brute-force scan of the first `len` series
/// answers for `spec`, given every series' distance in `dists`.
fn brute_force_agrees(spec: &QuerySpec, dists: &[f32], len: usize, got: &[QueryAnswer]) -> bool {
    let mut ranked: Vec<(f32, u64)> = dists[..len]
        .iter()
        .enumerate()
        .map(|(pos, &d)| (d, pos as u64))
        .collect();
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let bits = |answers: &[QueryAnswer]| -> Vec<(u64, u32)> {
        answers
            .iter()
            .map(|a| (a.pos, a.dist_sq.to_bits()))
            .collect()
    };
    let want = |take: &[(f32, u64)]| -> Vec<(u64, u32)> {
        take.iter().map(|&(d, pos)| (pos, d.to_bits())).collect()
    };
    match spec.objective {
        Objective::Approx { epsilon, .. } if epsilon > 0.0 => {
            // δ = 1: the (1 + ε) bound is deterministic.
            let [a] = got else { return false };
            let factor = (1.0 + epsilon) * (1.0 + epsilon);
            (a.pos as usize) < len
                && a.dist_sq.to_bits() == dists[a.pos as usize].to_bits()
                && a.dist_sq <= factor * ranked[0].0 * (1.0 + 1e-3) + 1e-6
        }
        Objective::Exact | Objective::Approx { .. } => bits(got) == want(&ranked[..1]),
        Objective::Knn { k } => bits(got) == want(&ranked[..k.min(len)]),
        Objective::Range { epsilon_sq } => {
            let inside = ranked.iter().take_while(|r| r.0 <= epsilon_sq).count();
            bits(got) == want(&ranked[..inside])
        }
    }
}

#[test]
fn readers_racing_an_inflight_republish_match_brute_force_over_their_prefix() {
    const BASE: usize = 200;
    const BATCH: usize = 8;
    const BATCHES: usize = 7;
    let full = gen::generate(DatasetKind::RandomWalk, BASE + BATCH * BATCHES, 301);
    let strangers = gen::queries::generate_queries(DatasetKind::RandomWalk, 1, 301);
    let mut queries: Vec<&[f32]> = strangers.iter().collect();
    // Members of the tail: overlay answers before their republish lands,
    // arena answers after it.
    queries.push(full.series(BASE + 3));
    queries.push(full.series(BASE + 3 * BATCH + 1));
    let config = deterministic();
    let radius = slice(&full, 0, BASE)
        .nearest_neighbor_brute_force(queries[0])
        .1
        * 4.0
        + 1.0;
    let specs = cells(full.series_len(), radius);
    // dists[q][cell]: every series' distance, computed once.
    let dists: Vec<Vec<Vec<f32>>> = queries
        .iter()
        .map(|q| {
            specs
                .iter()
                .map(|spec| distances(&full, q, spec.metric, config.kernel))
                .collect()
        })
        .collect();

    for shards in [1usize, 2] {
        let base = Arc::new(slice(&full, 0, BASE));
        let (built, _) = ShardedIndex::build(base, shards, &IndexConfig::for_tests());
        let live = DeltaIndex::new(built, trigger(2 * BATCH));
        live.prewarm(&config);

        let done = AtomicBool::new(false);
        let rounds = AtomicUsize::new(0);
        let crossings = std::thread::scope(|s| {
            let readers: Vec<_> = (0..2usize)
                .map(|reader| {
                    let (live, specs, queries, dists) = (&live, &specs, &queries, &dists);
                    let (done, rounds, config) = (&done, &rounds, &config);
                    s.spawn(move || loop {
                        let last = done.load(Ordering::Acquire);
                        for (ci, spec) in specs.iter().enumerate() {
                            for (qi, q) in queries.iter().enumerate() {
                                let before = live.num_series() as usize;
                                let (got, _, allocs, _) = live.query_traced(q, spec, config);
                                let after = live.num_series() as usize;
                                assert!(before <= after, "a published view shrank");
                                let tag = format!("N={shards} reader {reader} {spec:?} q{qi}");
                                assert_eq!(allocs, 0, "{tag}: left the warm path");
                                // The query's epoch covers some whole-batch
                                // prefix between the two reads.
                                let dists = &dists[qi][ci];
                                assert!(
                                    (before..=after)
                                        .step_by(BATCH)
                                        .any(|len| brute_force_agrees(spec, dists, len, &got)),
                                    "{tag}: {got:?} is no brute force over {before}..={after}"
                                );
                            }
                        }
                        rounds.fetch_add(1, Ordering::AcqRel);
                        if last {
                            break;
                        }
                    })
                })
                .collect();
            let mut crossings = 0;
            for at in (BASE..full.len()).step_by(BATCH) {
                let report = live
                    .insert_batch(&slice(&full, at, at + BATCH))
                    .expect("ingest");
                crossings += usize::from(report.republished);
                assert_eq!(
                    live.stats().republishes as usize,
                    crossings,
                    "counted when the crossing insert returns"
                );
                // The batch after a crossing goes in at once, most likely
                // while the republish is still absorbing; then a reader
                // finishes a round, racing whatever is still in flight.
                if report.republished {
                    continue;
                }
                let target = rounds.load(Ordering::Acquire) + 1;
                // A reader that failed stops counting: stop waiting and
                // let the scope report its panic.
                while rounds.load(Ordering::Acquire) < target
                    && !readers.iter().any(|r| r.is_finished())
                {
                    std::thread::yield_now();
                }
            }
            done.store(true, Ordering::Release);
            crossings
        });
        assert_eq!(crossings, BATCHES / 2, "one republish per crossing");

        // Quiesced and flattened: the whole collection, from the arenas.
        live.republish().expect("final republish");
        assert_eq!(live.num_series() as usize, full.len());
        assert_eq!(live.stats().overlay_series, 0);
        for (qi, q) in queries.iter().enumerate() {
            for (ci, spec) in specs.iter().enumerate() {
                let (got, _) = live.query(q, spec, &config);
                assert!(
                    brute_force_agrees(spec, &dists[qi][ci], full.len(), &got),
                    "N={shards} flattened {spec:?} q{qi}"
                );
            }
        }
    }
}

#[test]
fn index_republish_and_drop_wait_for_the_republish_in_flight() {
    const BASE: usize = 3000;
    const BATCH: usize = 40;
    let full = gen::generate(DatasetKind::RandomWalk, BASE + 8 * BATCH, 302);
    let base = Arc::new(slice(&full, 0, BASE));
    let (built, _) = ShardedIndex::build(Arc::clone(&base), 2, &IndexConfig::for_tests());
    let live = DeltaIndex::new(built, trigger(2 * BATCH));
    let mut at = BASE;
    let mut ingest = |live: &DeltaIndex| {
        let report = live
            .insert_batch(&slice(&full, at, at + BATCH))
            .expect("ingest");
        at += BATCH;
        report.republished
    };

    // index(): the core it returns covers what the republish absorbs.
    assert!(!ingest(&live));
    assert!(ingest(&live), "the second batch crosses the trigger");
    assert_eq!(live.index().dataset().len(), BASE + 2 * BATCH);
    let stats = live.stats();
    assert_eq!((stats.overlay_series, stats.republishes), (0, 1));
    assert!(stats.republish_time > Duration::ZERO, "finished and timed");

    // republish(): it waits for the one in flight, which left nothing.
    assert!(!ingest(&live));
    assert!(ingest(&live));
    assert!(!live.republish().expect("republish"), "nothing left over");
    assert_eq!(live.stats().overlay_series, 0);
    assert_eq!(live.stats().republishes, 2);

    // ... and flattens what the trigger has not reached yet itself.
    assert!(!ingest(&live));
    assert!(live.republish().expect("republish"), "one batch left over");
    assert_eq!(live.stats().overlay_series, 0);
    assert_eq!(live.stats().republishes, 3);

    // Drop: the republish thread holds the epoch it absorbs, and with
    // it the original core over `base`. Once the index is dropped,
    // nothing may hold `base` any longer.
    drop(live);
    let (built, _) = ShardedIndex::build(Arc::clone(&base), 2, &IndexConfig::for_tests());
    let live = DeltaIndex::new(built, trigger(BATCH));
    let report = live
        .insert_batch(&slice(&full, BASE, BASE + BATCH))
        .expect("ingest");
    assert!(report.republished);
    drop(live);
    assert_eq!(Arc::strong_count(&base), 1, "the republish thread is gone");
}
