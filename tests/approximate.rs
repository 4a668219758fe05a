//! Statistical guarantee harness for approximate search.
//!
//! The approximate objective's contract is probabilistic — "with
//! probability calibrated by δ, the answer is within (1+ε) of the true
//! nearest neighbor" — so unlike every other suite in the repository it
//! cannot be checked one query at a time. This harness runs *many*
//! seeded trials (datasets × queries, fully deterministic) against brute
//! force and asserts the distribution:
//!
//! * **ng-approximate** (δ = 0) is deterministic: the answer equals the
//!   best series of the query's home leaf, reproduced here by an
//!   independent test-side descent over the public arena API.
//! * **δ = 1** makes the `(1+ε)` bound a hard guarantee: every single
//!   trial must satisfy it.
//! * **δ < 1** must satisfy the bound in at least a δ fraction of
//!   trials; the observed fraction and the worst approximation ratio are
//!   part of the failure message.
//!
//! Seeds are fixed, so the suite is exactly reproducible — a failure is
//! a regression, never noise.

use messi::prelude::*;
use messi::series::distance::euclidean::ed_sq_scalar;
use std::sync::Arc;

/// Small leaves so the trees are deep and δ budgets genuinely bite.
fn index_config() -> IndexConfig {
    IndexConfig {
        segments: 8,
        num_workers: 4,
        chunk_size: 64,
        leaf_capacity: 8,
        initial_buffer_capacity: 5,
    }
}

fn build(count: usize, seed: u64) -> (Arc<Dataset>, MessiIndex) {
    let data = Arc::new(messi::series::gen::generate(
        DatasetKind::RandomWalk,
        count,
        seed,
    ));
    let (index, _) = MessiIndex::build(Arc::clone(&data), &index_config());
    (data, index)
}

/// One trial of the statistical harness.
struct Trial {
    /// Squared distance of the approximate answer.
    got: f32,
    /// Squared distance of the true (brute force) nearest neighbor.
    true_nn: f32,
    stop: StopReason,
}

impl Trial {
    /// `(1+ε)` satisfaction in *distance* terms, i.e. `(1+ε)²` on the
    /// squared values, with a hair of float slack.
    fn within(&self, epsilon: f32) -> bool {
        let factor = (1.0 + epsilon) * (1.0 + epsilon);
        self.got <= factor * self.true_nn * (1.0 + 1e-3) + 1e-6
    }

    /// Approximation ratio in distance terms (1.0 = exact).
    fn ratio(&self) -> f32 {
        if self.true_nn <= 0.0 {
            1.0
        } else {
            (self.got / self.true_nn).sqrt()
        }
    }
}

/// Runs the δ-ε search over a grid of seeded datasets and queries.
///
/// Trials run single-worker/single-queue: for δ < 1 the answer and stop
/// reason legitimately depend on thread interleaving (the shared visit
/// budget is spent in scheduling order), so a deterministic harness must
/// pin the schedule — the seeds then fully determine every outcome.
fn run_trials(epsilon: f32, delta: f32, config: &QueryConfig) -> Vec<Trial> {
    let config = &QueryConfig {
        num_workers: 1,
        num_queues: 1,
        ..config.clone()
    };
    let mut trials = Vec::new();
    for dataset_seed in [11u64, 23, 47] {
        let (data, index) = build(500, dataset_seed);
        let queries = messi::series::gen::queries::generate_queries(
            DatasetKind::RandomWalk,
            15,
            dataset_seed ^ 0xA5,
        );
        for q in queries.iter() {
            let (ans, stats) = index.search_approximate_bounded(q, epsilon, delta, config);
            let (_, true_nn) = data.nearest_neighbor_brute_force(q);
            // The reported distance is genuine: it matches the series it
            // points at.
            let check = ed_sq_scalar(q, data.series(ans.pos as usize));
            assert!(
                (check - ans.dist_sq).abs() <= 1e-3 * check.max(1.0),
                "answer distance {} disagrees with its own series ({check})",
                ans.dist_sq
            );
            trials.push(Trial {
                got: ans.dist_sq,
                true_nn,
                stop: stats
                    .stop_reason
                    .expect("approximate search reports a stop reason"),
            });
        }
    }
    trials
}

/// Asserts that at least `target` of the trials satisfy the `(1+ε)`
/// bound, reporting the observed fraction and worst ratio on failure.
fn assert_guarantee(trials: &[Trial], epsilon: f32, delta: f32, target: f64) {
    let ok = trials.iter().filter(|t| t.within(epsilon)).count();
    let observed = ok as f64 / trials.len() as f64;
    let worst = trials.iter().map(Trial::ratio).fold(0.0f32, f32::max);
    assert!(
        observed >= target,
        "ε = {epsilon}, δ = {delta}: observed (1+ε)-satisfaction {observed:.3} \
         ({ok}/{} trials) below the δ-calibrated target {target:.3}; \
         worst approximation ratio {worst:.4}",
        trials.len()
    );
}

// ---------------------------------------------------------------------
// (a) ng-approximate: deterministic home-leaf answers.
// ---------------------------------------------------------------------

/// Independent reimplementation of the home-leaf walk over the public
/// arena API, for queries whose home subtree exists and whose path stays
/// inside containment (guaranteed for dataset members).
fn reference_home_leaf_best(index: &MessiIndex, query: &[f32]) -> (f32, u32) {
    use messi::index::node::TreeArena;
    let (sax, _) = index.summarize_query(query);
    let segments = index.sax_config().segments;
    let key = messi::sax::root_key::root_key(&sax, segments);
    let arena = index.root(key).expect("member query has a home subtree");
    let id = arena.descend_by_sax(TreeArena::ROOT, &sax, segments);
    let mut best = (f32::INFINITY, u32::MAX);
    for e in arena.leaf_entries(id) {
        let d = ed_sq_scalar(query, index.dataset().series(e.pos as usize));
        if d < best.0 {
            best = (d, e.pos);
        }
    }
    best
}

#[test]
fn ng_approximate_equals_home_leaf_best() {
    let (_, index) = build(400, 7);
    let config = QueryConfig::for_tests();
    for probe in [0usize, 57, 123, 399] {
        let q = index.dataset().series(probe).to_vec();
        let (ans, stats) = index.search_approximate_bounded(&q, 0.0, 0.0, &config);
        let (want_d, _) = reference_home_leaf_best(&index, &q);
        assert_eq!(
            ans.dist_sq.to_bits(),
            want_d.to_bits(),
            "ng answer diverged from the independent home-leaf walk (probe {probe})"
        );
        assert_eq!(ans.dist_sq, 0.0, "a member query's home leaf contains it");
        assert_eq!(stats.stop_reason, Some(StopReason::HomeLeafOnly));
        assert_eq!(stats.nodes_inserted, 0, "ng runs no tree pass");
    }
}

#[test]
fn ng_approximate_is_deterministic_and_upper_bounds_exact() {
    let (data, index) = build(350, 13);
    let config = QueryConfig::for_tests();
    let queries = messi::series::gen::queries::generate_queries(DatasetKind::RandomWalk, 8, 13);
    for q in queries.iter() {
        let (a, _) = index.search_approximate_bounded(q, 0.0, 0.0, &config);
        let (b, _) = index.search_approximate_bounded(q, 0.0, 0.0, &config);
        assert_eq!(
            a.dist_sq.to_bits(),
            b.dist_sq.to_bits(),
            "ng must be deterministic"
        );
        assert_eq!(a.pos, b.pos);
        // The legacy one-shot API is the same ng instance.
        let legacy = index.search_approximate(q, Kernel::Auto);
        assert_eq!(a.dist_sq.to_bits(), legacy.dist_sq.to_bits());
        assert_eq!(a.pos, legacy.pos);
        // And it never beats the exact answer.
        let (_, true_nn) = data.nearest_neighbor_brute_force(q);
        assert!(a.dist_sq >= true_nn - 1e-4 * true_nn.max(1.0));
    }
}

// ---------------------------------------------------------------------
// (b) δ-ε: the statistical guarantee against brute force.
// ---------------------------------------------------------------------

#[test]
fn delta_one_guarantee_holds_in_every_trial() {
    let config = QueryConfig::for_tests();
    for epsilon in [0.0f32, 0.1, 0.5] {
        let trials = run_trials(epsilon, 1.0, &config);
        // δ = 1: a hard, deterministic guarantee — every trial.
        assert_guarantee(&trials, epsilon, 1.0, 1.0);
        for t in &trials {
            assert_eq!(
                t.stop,
                StopReason::Completed,
                "δ = 1 admits every queued leaf — the budget can never run out"
            );
        }
    }
}

#[test]
fn delta_fraction_guarantee_is_calibrated() {
    let config = QueryConfig::for_tests();
    // The budget (`ceil(δ · leaves)`, spent best-bound-first) makes the
    // observed satisfaction far exceed δ in practice; δ itself is the
    // asserted floor.
    for (epsilon, delta) in [(0.0f32, 0.75f32), (0.1, 0.5), (0.2, 0.25), (0.0, 0.05)] {
        let trials = run_trials(epsilon, delta, &config);
        assert_guarantee(&trials, epsilon, delta, delta as f64);
    }
}

#[test]
fn tiny_delta_actually_stops_early() {
    let config = QueryConfig::for_tests();
    let trials = run_trials(0.0, 0.02, &config);
    let exhausted = trials
        .iter()
        .filter(|t| t.stop == StopReason::BudgetExhausted)
        .count();
    assert!(
        exhausted > 0,
        "a 2% leaf budget over deep trees never hit its early-termination path \
         ({} trials, all completed)",
        trials.len()
    );
    // Even then the answers must be genuine series distances and the
    // harness's floor must hold.
    assert_guarantee(&trials, 0.0, 0.02, 0.02);
}

#[test]
fn epsilon_inflation_is_accounted() {
    // A fat ε prunes candidates the raw BSF would have kept; the
    // accounting must see it. Deterministic single-worker runs so the
    // counter itself is reproducible.
    let config = QueryConfig {
        num_workers: 1,
        num_queues: 1,
        ..QueryConfig::for_tests()
    };
    let (_, index) = build(600, 29);
    let queries = messi::series::gen::queries::generate_queries(DatasetKind::RandomWalk, 10, 29);
    let mut inflation_total = 0u64;
    for q in queries.iter() {
        let (_, stats) = index.search_approximate_bounded(q, 1.0, 1.0, &config);
        inflation_total += stats.approx_inflation_prunes;
        // At ε = 0 the same query must report zero inflation prunes.
        let (_, exact_like) = index.search_approximate_bounded(q, 0.0, 1.0, &config);
        assert_eq!(exact_like.approx_inflation_prunes, 0);
    }
    assert!(
        inflation_total > 0,
        "ε = 1 never pruned anything the raw BSF would have kept"
    );
}

// ---------------------------------------------------------------------
// The exec layer serves the approximate objective like any other.
// ---------------------------------------------------------------------

#[test]
fn executor_schedules_agree_on_approximate_answers() {
    let (_, index) = build(400, 31);
    let queries = messi::series::gen::queries::generate_queries(DatasetKind::RandomWalk, 6, 31);
    let config = QueryConfig::for_tests();
    let exec = index.executor();
    for spec in [
        QuerySpec::approximate(0.1, 1.0),
        QuerySpec::approximate(0.0, 0.5),
        QuerySpec::approximate(0.2, 0.5).with_dtw(DtwParams::paper_default(256)),
    ] {
        let (inter, agg) = exec.run_batch(
            &queries,
            &spec,
            Schedule::InterQuery { parallelism: 3 },
            &config,
        );
        assert_eq!(agg.queries, queries.len() as u64);
        // Inter-query runs are single-threaded per query: bit-identical
        // to a sequential run under the same 1-worker config.
        let per_query = QueryConfig {
            num_workers: 1,
            num_queues: 1,
            ..config.clone()
        };
        for (qi, got) in inter.iter().enumerate() {
            let (want, _) = exec.run_one(queries.series(qi), &spec, &per_query);
            assert_eq!(got, &want, "{spec:?} query {qi}");
        }
    }
}

#[test]
fn approximate_dtw_guarantee_at_delta_one() {
    use messi::series::distance::dtw::dtw_sq;
    let (data, index) = build(200, 37);
    let params = DtwParams::paper_default(256);
    let config = QueryConfig::for_tests();
    let queries = messi::series::gen::queries::generate_queries(DatasetKind::RandomWalk, 4, 37);
    let epsilon = 0.25f32;
    let factor = (1.0 + epsilon) * (1.0 + epsilon);
    for q in queries.iter() {
        let (ans, stats) = index.search_approximate_bounded_dtw(q, epsilon, 1.0, params, &config);
        let true_nn = data
            .iter()
            .map(|s| dtw_sq(q, s, params))
            .fold(f32::INFINITY, f32::min);
        assert!(
            ans.dist_sq <= factor * true_nn * (1.0 + 1e-3),
            "DTW δ=1 guarantee violated: {} vs (1+ε)²·{true_nn} \
             (observed ratio {:.4})",
            ans.dist_sq,
            (ans.dist_sq / true_nn).sqrt()
        );
        assert_eq!(stats.stop_reason, Some(StopReason::Completed));
    }
}
