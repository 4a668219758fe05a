//! Property-based tests (proptest) over the core invariants.
//!
//! These cover the mathematical contracts the search algorithms rely on,
//! with *arbitrary* inputs rather than generator outputs: lower bounds
//! must never exceed true distances, summaries must be consistent under
//! refinement, the index must be complete and exact for any data —
//! including adversarial shapes (constants, duplicates, huge/tiny
//! values).

use messi::prelude::*;
use messi::sax::convert::{sax_word, SaxConfig};
use messi::sax::mindist::{mindist_sq_leaf_scalar, mindist_sq_node, segment_scales, MindistTable};
use messi::sax::root_key::{node_word_for_root_key, root_key};
use messi::series::distance::dtw::{dtw_sq, DtwParams};
use messi::series::distance::euclidean::{ed_sq_early_abandon, ed_sq_scalar};
use messi::series::distance::lb_keogh::{lb_keogh_sq, Envelope};
use messi::series::paa::paa;
use messi::series::znorm::znormalized;
use proptest::prelude::*;
use std::sync::Arc;

/// A z-normalized series of length `len` built from arbitrary finite floats.
fn znorm_series(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-1e3f32..1e3f32, len).prop_map(|v| znormalized(&v))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mindist_is_a_lower_bound_for_any_pair(
        q in znorm_series(64),
        c in znorm_series(64),
    ) {
        let config = SaxConfig::new(8, 64);
        let scales = segment_scales(config);
        let qp = paa(&q, 8);
        let w = sax_word(&c, config);
        let true_d = ed_sq_scalar(&q, &c);
        let lb_branchy = mindist_sq_leaf_scalar(&qp, &scales, &w);
        let table = MindistTable::new(&qp, config);
        let lb_table = table.mindist_sq(&w);
        prop_assert!(lb_branchy <= true_d + 1e-2 * true_d.max(1.0));
        prop_assert!((lb_branchy - lb_table).abs() <= 1e-3 * lb_branchy.max(1.0));
        // Node word (root level) is weaker than the leaf bound.
        let node = node_word_for_root_key(root_key(&w, 8), 8);
        let lb_node = mindist_sq_node(&qp, &scales, &node);
        prop_assert!(lb_node <= lb_branchy + 1e-3 * lb_branchy.max(1.0));
    }

    #[test]
    fn early_abandon_is_exact_below_bound_for_any_pair(
        a in znorm_series(100),
        b in znorm_series(100),
    ) {
        let exact = ed_sq_scalar(&a, &b);
        let d = ed_sq_early_abandon(&a, &b, exact * 2.0 + 1.0);
        prop_assert!((d - exact).abs() <= 1e-3 * exact.max(1.0));
        // With a tight bound, the result must cross the bound.
        if exact > 0.0 {
            let d = ed_sq_early_abandon(&a, &b, exact / 2.0);
            prop_assert!(d >= exact / 2.0);
        }
    }

    #[test]
    fn lb_keogh_lower_bounds_dtw_for_any_pair(
        q in znorm_series(64),
        c in znorm_series(64),
        window in 0usize..16,
    ) {
        let params = DtwParams { window };
        let env = Envelope::new(&q, params);
        let lb = lb_keogh_sq(&env, &c);
        let d = dtw_sq(&q, &c, params);
        prop_assert!(lb <= d + 1e-2 * d.max(1.0), "lb={lb} dtw={d}");
        // DTW never exceeds squared ED (identity alignment admissible).
        prop_assert!(d <= ed_sq_scalar(&q, &c) + 1e-2);
    }

    #[test]
    fn refinement_never_weakens_bounds(
        q in znorm_series(32),
        c in znorm_series(32),
        segment in 0usize..4,
    ) {
        let config = SaxConfig::new(4, 32);
        let scales = segment_scales(config);
        let qp = paa(&q, 4);
        let w = sax_word(&c, config);
        let mut node = node_word_for_root_key(root_key(&w, 4), 4);
        let mut last = mindist_sq_node(&qp, &scales, &node);
        for _ in 1..8 {
            let (zero, one) = node.refine(segment);
            node = if one.contains(&w, 4) { one } else { zero };
            prop_assert!(node.contains(&w, 4));
            let lb = mindist_sq_node(&qp, &scales, &node);
            prop_assert!(lb >= last - 1e-4 * last.max(1.0));
            last = lb;
        }
    }
}

proptest! {
    // Index builds are heavier; fewer cases.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn index_is_complete_and_exact_for_arbitrary_data(
        flat in proptest::collection::vec(-100f32..100f32, 32 * 40..32 * 120),
        leaf_capacity in 2usize..40,
        query in znorm_series(32),
    ) {
        let n = flat.len() / 32 * 32;
        let mut data = Dataset::from_flat(flat[..n].to_vec(), 32).unwrap();
        // Z-normalize each member as the index contract requires.
        let normalized: Vec<Vec<f32>> = data.iter().map(znormalized).collect();
        data = Dataset::from_series(normalized).unwrap();
        let data = Arc::new(data);
        let config = IndexConfig {
            segments: 8,
            num_workers: 3,
            chunk_size: 7,
            leaf_capacity,
            initial_buffer_capacity: 2,
        };
        let (index, _) = MessiIndex::build(Arc::clone(&data), &config);
        // Structural invariants.
        let errors = messi::index::validate::validate(&index);
        prop_assert!(errors.is_empty(), "{errors:?}");
        // Exactness.
        let (ans, _) = index.search(&query, &QueryConfig {
            num_workers: 3,
            num_queues: 2,
            ..QueryConfig::default()
        });
        let (_, bf) = data.nearest_neighbor_brute_force(&query);
        prop_assert!(
            (ans.dist_sq - bf).abs() <= 1e-3 * bf.max(1.0),
            "{} vs {bf}", ans.dist_sq
        );
    }

    #[test]
    fn knn_is_sorted_complete_and_duplicate_free(
        seed in 0u64..1000,
        k in 1usize..12,
    ) {
        let data = Arc::new(messi::series::gen::generate(DatasetKind::RandomWalk, 120, seed));
        let (index, _) = MessiIndex::build(Arc::clone(&data), &IndexConfig {
            segments: 8,
            num_workers: 3,
            chunk_size: 16,
            leaf_capacity: 16,
            initial_buffer_capacity: 5,
        });
        let queries = messi::series::gen::queries::generate_queries(DatasetKind::RandomWalk, 1, seed);
        let q = queries.series(0);
        let (answers, _) = index.search_knn(q, k, &QueryConfig {
            num_workers: 3,
            num_queues: 2,
            ..QueryConfig::default()
        });
        prop_assert_eq!(answers.len(), k.min(120));
        for w in answers.windows(2) {
            prop_assert!(w[0].dist_sq <= w[1].dist_sq + 1e-6);
        }
        let mut pos: Vec<u64> = answers.iter().map(|a| a.pos).collect();
        pos.sort_unstable();
        pos.dedup();
        prop_assert_eq!(pos.len(), answers.len());
        // k-th distance matches brute force.
        let mut all: Vec<f32> = data.iter().map(|s| ed_sq_scalar(q, s)).collect();
        all.sort_by(f32::total_cmp);
        let kth = all[answers.len() - 1];
        let got = answers.last().unwrap().dist_sq;
        prop_assert!((got - kth).abs() <= 1e-3 * kth.max(1.0), "{got} vs {kth}");
    }
}

#[test]
fn degenerate_dataset_of_identical_series_is_searchable() {
    // All series identical ⇒ one giant unsplittable leaf.
    let one = znormalized(&(0..64).map(|i| (i as f32 * 0.2).sin()).collect::<Vec<_>>());
    let data = Arc::new(Dataset::from_series(vec![one.clone(); 200]).unwrap());
    let config = IndexConfig {
        segments: 8,
        num_workers: 4,
        chunk_size: 16,
        leaf_capacity: 8,
        initial_buffer_capacity: 5,
    };
    let (index, stats) = MessiIndex::build(Arc::clone(&data), &config);
    assert_eq!(stats.num_leaves, 1, "identical summaries cannot split");
    let errors = messi::index::validate::validate(&index);
    assert!(errors.is_empty(), "{errors:?}");
    let (ans, _) = index.search(&one, &QueryConfig::default());
    assert_eq!(ans.dist_sq, 0.0);
}

#[test]
fn constant_series_dataset_is_searchable() {
    // Constant series z-normalize to all-zero; every summary is identical.
    let data = Arc::new(
        Dataset::from_series((0..50).map(|i| vec![i as f32; 64]).collect::<Vec<_>>()).unwrap(),
    );
    let normalized: Vec<Vec<f32>> = data.iter().map(znormalized).collect();
    let data = Arc::new(Dataset::from_series(normalized).unwrap());
    let config = IndexConfig {
        segments: 8,
        num_workers: 2,
        chunk_size: 8,
        leaf_capacity: 4,
        initial_buffer_capacity: 1,
    };
    let (index, _) = MessiIndex::build(Arc::clone(&data), &config);
    let q = vec![0.0f32; 64];
    let (ans, _) = index.search(&q, &QueryConfig::default());
    assert_eq!(ans.dist_sq, 0.0);
}
