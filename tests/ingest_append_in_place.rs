//! The collection buffer grows **in place**: a republish hands the index
//! a longer view of the same allocation, replay appends every logged
//! frame before republishing once, and none of it is observable in the
//! answers. This suite pins the behaviour `ingest_equivalence.rs` does
//! not reach:
//!
//! * the collection's address is stable across republishes that fit the
//!   buffer's capacity, and reallocations are logarithmic in the growth;
//! * random batch-size sequences that cross both the capacity and the
//!   `republish_after` boundaries answer bit-identically to a fresh
//!   build, for every objective × metric, at 1 and 3 shards;
//! * readers pinned to old epochs keep answering allocation-free and
//!   bit-identically while a writer appends in place and across a
//!   growth copy;
//! * two live indexes over one shared base buffer never see each
//!   other's series — one extends in place, the other copies;
//! * `with_log` replays a long log with exactly one republish;
//! * `messi compact` writes the grown view back out correctly.

use messi::prelude::*;
use messi::series::gen::{self, DatasetKind};
use messi::{DeltaIndex, IngestOptions, ReplayReport};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

fn deterministic() -> QueryConfig {
    QueryConfig {
        num_workers: 1,
        num_queues: 1,
        ..QueryConfig::default()
    }
}

fn options(republish_after: usize) -> IngestOptions {
    IngestOptions {
        republish_after,
        max_epoch_age: None,
    }
}

/// Series `[start, end)` of `full` as an owned batch.
fn slice(full: &Dataset, start: usize, end: usize) -> Dataset {
    let len = full.series_len();
    Dataset::from_flat(full.as_flat()[start * len..end * len].to_vec(), len).unwrap()
}

/// The full Objective × Metric matrix (approximate pinned at its exact
/// corner, as in `ingest_equivalence.rs`).
fn matrix(series_len: usize, range_eps_sq: f32) -> Vec<(String, QuerySpec)> {
    let params = DtwParams::paper_default(series_len);
    [
        ("exact", QuerySpec::exact()),
        ("knn", QuerySpec::knn(5)),
        ("range", QuerySpec::range(range_eps_sq)),
        ("approx(0,1)", QuerySpec::approximate(0.0, 1.0)),
    ]
    .iter()
    .flat_map(|(tag, spec)| {
        [
            (format!("{tag}/ed"), *spec),
            (format!("{tag}/dtw"), spec.with_dtw(params)),
        ]
    })
    .collect()
}

fn assert_bit_identical(tag: &str, live: &[QueryAnswer], fresh: &[QueryAnswer]) {
    assert_eq!(live.len(), fresh.len(), "{tag}: result-set size diverged");
    for (i, (a, b)) in live.iter().zip(fresh).enumerate() {
        assert_eq!(a.pos, b.pos, "{tag}[{i}]: position diverged");
        assert_eq!(
            a.dist_sq.to_bits(),
            b.dist_sq.to_bits(),
            "{tag}[{i}]: dist_sq bits diverged ({} vs {})",
            a.dist_sq,
            b.dist_sq
        );
    }
}

fn scratch_path(tag: &str) -> std::path::PathBuf {
    let p = std::env::temp_dir().join(format!("messi-append-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    let _ = std::fs::remove_file(&p);
    p
}

#[test]
fn republishes_within_capacity_never_move_the_collection() {
    let initial = 200usize;
    let full = gen::generate(DatasetKind::RandomWalk, 1000, 71);
    let base = Arc::new(slice(&full, 0, initial));
    let (built, _) = ShardedIndex::build(base, 2, &IndexConfig::for_tests());
    let live = DeltaIndex::new(built, options(16));

    let mut ptr = live.index().dataset().as_flat().as_ptr();
    let (mut reallocations, mut republishes, mut stable) = (0u32, 0u32, 0u32);
    for start in (initial..full.len()).step_by(8) {
        let report = live
            .insert_batch(&slice(&full, start, start + 8))
            .expect("ingest");
        if !report.republished {
            continue;
        }
        republishes += 1;
        let now = live.index().dataset().as_flat().as_ptr();
        if std::ptr::eq(now, ptr) {
            stable += 1;
        } else {
            reallocations += 1;
            ptr = now;
        }
    }
    let index = live.index();
    assert_eq!(index.dataset().len(), full.len());
    assert_eq!(index.dataset().as_flat(), full.as_flat(), "bit for bit");
    assert_eq!(republishes, 50);
    let bound = ((full.len() as f64 / initial as f64).ln() / 1.5f64.ln()).ceil() as u32;
    assert!(
        reallocations <= bound,
        "{reallocations} reallocations growing {initial} -> {} (bound {bound})",
        full.len()
    );
    assert_eq!(stable + reallocations, republishes);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn random_batch_sequences_match_a_fresh_build(
        shape in (0u64..1_000_000, 2usize..40),
        sizes in proptest::collection::vec(1usize..48, 3..10),
    ) {
        // A small base so the batches cross the 1.5× capacity more than
        // once, and a trigger the sequence crosses several times.
        let (seed, republish_after) = shape;
        let base_len = 90usize;
        let total = base_len + sizes.iter().sum::<usize>();
        let full = Arc::new(gen::generate(DatasetKind::RandomWalk, total, seed));
        let config = IndexConfig::for_tests();
        let qconfig = deterministic();
        let strangers = gen::queries::generate_queries(DatasetKind::RandomWalk, 2, seed);
        let mut queries: Vec<&[f32]> = strangers.iter().collect();
        queries.push(full.series(base_len)); // first ingested series
        queries.push(full.series(total - 1)); // last ingested series

        for n in [1usize, 3] {
            let (fresh, _) = ShardedIndex::build(Arc::clone(&full), n, &config);
            let reference = ShardedExecutor::new(&fresh);
            let (built, _) =
                ShardedIndex::build(Arc::new(slice(&full, 0, base_len)), n, &config);
            let live = DeltaIndex::new(built, options(republish_after));
            let mut start = base_len;
            for &size in &sizes {
                live.insert_batch(&slice(&full, start, start + size)).expect("ingest");
                start += size;
            }
            prop_assert_eq!(live.num_series() as usize, total);

            let (nn, _) = reference.run_one(queries[0], &QuerySpec::exact(), &qconfig);
            for (tag, spec) in &matrix(full.series_len(), nn[0].dist_sq * 4.0 + 1.0) {
                for (qi, q) in queries.iter().enumerate() {
                    let (a, _) = live.query(q, spec, &qconfig);
                    let (b, _) = reference.run_one(q, spec, &qconfig);
                    assert_bit_identical(
                        &format!("N={n} after={republish_after} {sizes:?} {tag} q{qi}"),
                        &a,
                        &b,
                    );
                }
            }
            live.republish().expect("final republish");
            let flattened = live.index();
            prop_assert_eq!(flattened.dataset().as_flat(), full.as_flat());
        }
    }
}

#[test]
fn pinned_readers_stay_warm_and_exact_while_the_buffer_grows_under_them() {
    // 400 base series; the first insert copies into a 1.5× buffer (604
    // series), later ones append in place, and the run ends at 700 — so
    // the writer also crosses a capacity growth while readers hold views
    // of every buffer generation.
    let full = gen::generate(DatasetKind::RandomWalk, 700, 72);
    let base = Arc::new(slice(&full, 0, 400));
    let (built, _) = ShardedIndex::build(base, 2, &IndexConfig::for_tests());
    let live = DeltaIndex::new(built, options(8));
    let qconfig = deterministic();
    live.prewarm(&qconfig);
    let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 4, 72);

    let start = Barrier::new(4);
    let done = AtomicBool::new(false);
    let (live, full, queries, qconfig) = (&live, &full, &queries, &qconfig);
    let (start, done) = (&start, &done);
    std::thread::scope(|s| {
        let writer = s.spawn(move || {
            start.wait();
            for at in (400..700).step_by(3) {
                live.insert_batch(&slice(full, at, at + 3))
                    .expect("concurrent ingest");
                std::thread::yield_now();
            }
        });
        let readers: Vec<_> = (0..3usize)
            .map(|reader| {
                s.spawn(move || {
                    let spec = QuerySpec::knn(3);
                    let mut pins = 0usize;
                    let mut first = true;
                    // Reader 0 stays on epoch 0 for the whole run; the
                    // others re-pin whatever core is current, so every
                    // buffer generation has a reader on it.
                    loop {
                        let pinned = live.index();
                        let exec = ShardedExecutor::new(&pinned);
                        exec.prewarm(queries.series(0), &spec, qconfig);
                        let expected: Vec<Vec<QueryAnswer>> = queries
                            .iter()
                            .map(|q| exec.run_one(q, &spec, qconfig).0)
                            .collect();
                        if first {
                            start.wait();
                            first = false;
                        }
                        pins += 1;
                        for round in 0..if reader == 0 { usize::MAX } else { 25 } {
                            let finished = done.load(Ordering::Acquire);
                            let qi = (reader + round) % queries.len();
                            let (answers, _, allocs, _) =
                                exec.run_one_traced(queries.series(qi), &spec, qconfig);
                            assert_eq!(
                                allocs, 0,
                                "reader {reader}: pinned epoch left the warm path"
                            );
                            assert_bit_identical(
                                &format!("reader {reader} pin {pins} q{qi}"),
                                &answers,
                                &expected[qi],
                            );
                            assert!(answers.iter().all(|a| a.pos < pinned.num_series()));
                            if finished {
                                return pins;
                            }
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        let written = writer.join();
        done.store(true, Ordering::Release);
        let pins: Vec<usize> = readers
            .into_iter()
            .map(|r| r.join().expect("reader"))
            .collect();
        written.expect("writer");
        assert_eq!(pins[0], 1, "reader 0 never left epoch 0");
    });

    assert_eq!(live.num_series(), 700);
    live.republish().expect("final republish");
    assert_eq!(live.index().dataset().as_flat(), full.as_flat());
}

#[test]
fn two_live_indexes_over_one_base_buffer_never_see_each_others_series() {
    // The restart shape: one base collection opened more than once. Here
    // the base has spare capacity (it was grown once), so both indexes
    // could extend it in place — exactly one may.
    let seed = gen::generate(DatasetKind::RandomWalk, 300, 73);
    let base = Arc::new(
        slice(&seed, 0, 299)
            .concat([&slice(&seed, 299, 300)])
            .unwrap(),
    );
    let tails = [
        gen::generate(DatasetKind::RandomWalk, 24, 74),
        gen::generate(DatasetKind::RandomWalk, 24, 75),
    ];
    let config = IndexConfig::for_tests();
    let lives: Vec<DeltaIndex> = (0..2)
        .map(|_| {
            let (built, _) = ShardedIndex::build(Arc::clone(&base), 2, &config);
            DeltaIndex::new(built, options(8))
        })
        .collect();

    let start = Barrier::new(2);
    std::thread::scope(|s| {
        for (live, tail) in lives.iter().zip(&tails) {
            let start = &start;
            s.spawn(move || {
                start.wait();
                for at in (0..tail.len()).step_by(4) {
                    live.insert_batch(&slice(tail, at, at + 4)).expect("ingest");
                    std::thread::yield_now();
                }
            });
        }
    });

    let qconfig = deterministic();
    let mut in_place = 0;
    for (i, live) in lives.iter().enumerate() {
        assert_eq!(live.stats().republishes, 3);
        let index = live.index();
        assert_eq!(index.dataset().len(), 324);
        assert_eq!(index.dataset().view(0, 300), *base, "shared prefix intact");
        assert_eq!(index.dataset().view(300, 324), tails[i], "own series only");
        in_place += usize::from(std::ptr::eq(
            index.dataset().as_flat().as_ptr(),
            base.as_flat().as_ptr(),
        ));
        let (own, _) = live.query(tails[i].series(7), &QuerySpec::exact(), &qconfig);
        assert_eq!((own[0].pos, own[0].dist_sq), (307, 0.0));
        let (other, _) = live.query(tails[1 - i].series(7), &QuerySpec::exact(), &qconfig);
        assert!(other[0].dist_sq > 0.0, "the other index's series leaked in");
    }
    assert_eq!(in_place, 1, "exactly one index extends the shared buffer");
    assert_eq!(base.len(), 300, "the base view never grows");
}

#[test]
fn replaying_a_long_log_republishes_exactly_once() {
    let full = gen::generate(DatasetKind::RandomWalk, 270, 76);
    let base = Arc::new(slice(&full, 0, 200));
    let config = IndexConfig::for_tests();
    let qconfig = deterministic();
    let log = scratch_path("long.log");
    let spec = QuerySpec::knn(6);
    let queries: Vec<&[f32]> = vec![full.series(3), full.series(200), full.series(269)];

    // First life: ten batches of seven through the per-batch path, with
    // a trigger the log is several times longer than.
    let before: Vec<Vec<QueryAnswer>> = {
        let (built, _) = ShardedIndex::build(Arc::clone(&base), 3, &config);
        let (live, report) = DeltaIndex::with_log(built, options(16), &log).expect("fresh log");
        assert_eq!(report, ReplayReport::default());
        for at in (200..270).step_by(7) {
            live.insert_batch(&slice(&full, at, at + 7))
                .expect("ingest");
        }
        assert_eq!(live.stats().republishes, 3, "21, 42 and 63 series in");
        queries
            .iter()
            .map(|q| live.query(q, &spec, &qconfig).0)
            .collect()
    };

    let (built, _) = ShardedIndex::build(Arc::clone(&base), 3, &config);
    let (rebooted, report) = DeltaIndex::with_log(built, options(16), &log).expect("replay");
    assert_eq!(
        report,
        ReplayReport {
            batches: 10,
            series: 70,
            torn: false,
            dropped_bytes: 0
        }
    );
    let stats = rebooted.stats();
    assert_eq!(stats.republishes, 1, "one republish however long the log");
    assert_eq!((stats.batches, stats.series_ingested), (10, 70));
    assert_eq!((stats.overlay_series, stats.total_series), (0, 270));
    assert_eq!(rebooted.index().dataset().as_flat(), full.as_flat());
    for (qi, q) in queries.iter().enumerate() {
        let (a, _) = rebooted.query(q, &spec, &qconfig);
        assert_bit_identical(&format!("replayed q{qi}"), &a, &before[qi]);
    }
    drop(rebooted);

    // A log shorter than the trigger replays into the overlay.
    let (built, _) = ShardedIndex::build(Arc::clone(&base), 3, &config);
    let (lazy, _) = DeltaIndex::with_log(built, options(71), &log).expect("replay");
    assert_eq!(lazy.stats().republishes, 0);
    assert_eq!(lazy.stats().overlay_series, 70);
    for (qi, q) in queries.iter().enumerate() {
        let (a, _) = lazy.query(q, &spec, &qconfig);
        assert_bit_identical(&format!("overlay q{qi}"), &a, &before[qi]);
    }
    std::fs::remove_file(&log).expect("cleanup log");
}

#[test]
fn compact_writes_the_grown_view_back_out() {
    use messi::series::io::{read_dataset, write_dataset};

    let full = gen::generate(DatasetKind::RandomWalk, 260, 77);
    let base = Arc::new(slice(&full, 0, 200));
    let data_path = scratch_path("compact.mds");
    let log = scratch_path("compact.log");
    write_dataset(&base, &data_path).expect("write base");
    {
        let (built, _) = ShardedIndex::build(Arc::clone(&base), 1, &IndexConfig::default());
        let (live, _) =
            DeltaIndex::with_log(built, IngestOptions::default(), &log).expect("fresh log");
        for at in (200..260).step_by(20) {
            live.insert_batch(&slice(&full, at, at + 20))
                .expect("ingest");
        }
    }

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_messi"))
        .args(["compact", "--data"])
        .arg(&data_path)
        .arg("--log")
        .arg(&log)
        .output()
        .expect("run messi compact");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "compact failed: {stdout}{out:?}");
    assert!(
        stdout.contains("replayed 3 batches / 60 series"),
        "{stdout}"
    );
    assert!(stdout.contains("260 series (60 from the log)"), "{stdout}");

    let compacted = Arc::new(read_dataset(&data_path).expect("read compacted"));
    assert_eq!(
        compacted.as_flat(),
        full.as_flat(),
        "grown view, bit for bit"
    );
    // The log now pins the grown collection and holds no frames.
    let (built, _) = ShardedIndex::build(Arc::clone(&compacted), 1, &IndexConfig::default());
    let (_, report) =
        DeltaIndex::with_log(built, IngestOptions::default(), &log).expect("clean reopen");
    assert_eq!(report, ReplayReport::default());

    std::fs::remove_file(&data_path).expect("cleanup data");
    std::fs::remove_file(&log).expect("cleanup log");
}
