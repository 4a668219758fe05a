//! k-NN classification on top of the index.
//!
//! ```text
//! cargo run --release --example knn_classification [library_per_class]
//! ```
//!
//! The paper motivates MESSI as the engine under "complex analytics
//! algorithms (e.g., k-NN classification)" (§I): classification of a
//! series is a majority vote among its k nearest labeled neighbors, so
//! classifying a batch means many exact k-NN queries — exactly what the
//! index accelerates.
//!
//! Three signal classes with genuinely different dynamics are indexed
//! together; held-out members of each class are classified by 5-NN vote.

use messi::prelude::*;
use std::sync::Arc;

const CLASSES: [(&str, DatasetKind); 3] = [
    ("random-walk", DatasetKind::RandomWalk),
    ("seismic", DatasetKind::Seismic),
    ("smooth", DatasetKind::Sald),
];

fn main() {
    let per_class: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(10_000);
    let series_len = 128usize;
    let k = 5usize;

    println!("== k-NN classification (k = {k}) ==");
    println!(
        "library: {per_class} labeled series per class × {} classes",
        CLASSES.len()
    );

    // Build one labeled library: class c owns positions
    // [c·per_class, (c+1)·per_class). Each class generates per_class +
    // per_class_tests series; the tail is held out for evaluation (so
    // test series come from the same population but are not indexed).
    let per_class_tests = 20usize;
    let mut flat = Vec::with_capacity(CLASSES.len() * per_class * series_len);
    let mut holdouts: Vec<Dataset> = Vec::new();
    for (c, (_, kind)) in CLASSES.iter().enumerate() {
        let g = kind.generator_with_len(c as u64 + 10, series_len);
        let ds = messi::series::gen::generate_dataset(g.as_ref(), per_class + per_class_tests);
        flat.extend_from_slice(&ds.as_flat()[..per_class * series_len]);
        holdouts.push(
            Dataset::from_flat(ds.as_flat()[per_class * series_len..].to_vec(), series_len)
                .expect("well-shaped"),
        );
    }
    let library = Arc::new(Dataset::from_flat(flat, series_len).expect("well-shaped"));
    let label_of = |pos: u64| (pos as usize / per_class).min(CLASSES.len() - 1);

    let (index, build) = MessiIndex::build(Arc::clone(&library), &IndexConfig::default());
    println!("library indexed in {:?}\n", build.total_time);

    let qconfig = QueryConfig::default();
    let mut correct = 0usize;
    let mut total = 0usize;
    let mut confusion = vec![vec![0usize; CLASSES.len()]; CLASSES.len()];

    for (true_class, (name, _)) in CLASSES.iter().enumerate() {
        let tests = &holdouts[true_class];
        for q in tests.iter() {
            let (neighbors, _) = index.search_knn(q, k, &qconfig);
            let mut votes = [0usize; CLASSES.len()];
            for a in &neighbors {
                votes[label_of(a.pos)] += 1;
            }
            let predicted = votes
                .iter()
                .enumerate()
                .max_by_key(|(_, &v)| v)
                .map(|(c, _)| c)
                .expect("non-empty");
            confusion[true_class][predicted] += 1;
            if predicted == true_class {
                correct += 1;
            }
            total += 1;
        }
        println!("classified {per_class_tests} held-out '{name}' series");
    }

    println!("\nconfusion matrix (rows = truth, cols = predicted):");
    print!("{:>14}", "");
    for (name, _) in CLASSES {
        print!("{name:>14}");
    }
    println!();
    for (t, row) in confusion.iter().enumerate() {
        print!("{:>14}", CLASSES[t].0);
        for v in row {
            print!("{v:>14}");
        }
        println!();
    }
    let accuracy = correct as f64 / total as f64;
    println!("\naccuracy: {correct}/{total} = {:.1}%", accuracy * 100.0);
    assert!(
        accuracy > 0.8,
        "classes with distinct dynamics should classify well"
    );
}
