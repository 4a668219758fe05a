//! ParIS-TS: the parallel "traditional tree-based exact search".
//!
//! §IV-A: "this algorithm traverses the tree, and concurrently (1)
//! inserts in the priority queue the nodes (inner nodes or leaves) that
//! cannot be pruned based on the lower bound distance, and (2) pops from
//! the queues nodes for which it calculates the real distances to the
//! candidate series". The paper built it to show that "a straight-forward
//! implementation of tree-based exact search leads to sub-optimal
//! performance".
//!
//! The three deliberate differences from MESSI (listed in §IV-A) are all
//! present here:
//!
//! * no separate lower-bound pass — insertion and real-distance work
//!   interleave freely;
//! * *inner nodes* enter the queue too (expanded when popped), not just
//!   leaves — so the single queue is much larger and hotter;
//! * no second filtering: a popped node is only discarded if its bound
//!   exceeds the BSF at pop time, but the search cannot stop at the first
//!   such pop, because concurrent expansion may still insert closer nodes
//!   (termination needs the pending-work counter instead).

use super::ParisIndex;
use messi_core::node::{NodeId, TreeArena};
use messi_core::{QueryAnswer, QueryConfig, QueryStats};
use messi_sax::mindist::{mindist_sq_leaf_scalar, mindist_sq_node, MindistTable};
use messi_series::distance::euclidean::ed_sq_early_abandon_with;
use messi_sync::{AtomicBsf, ConcurrentMinQueue, Dispenser};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Exact 1-NN search with the ParIS-TS strategy (single shared queue of
/// inner nodes and leaves, concurrent insert/pop).
///
/// # Panics
///
/// Panics if the query length differs from the indexed series length.
pub fn ts_search(
    paris: &ParisIndex,
    query: &[f32],
    config: &QueryConfig,
) -> (QueryAnswer, QueryStats) {
    config.validate();
    let t_start = Instant::now();
    let use_simd = config.kernel.uses_simd();

    let (query_sax, query_paa) = paris.tree.summarize_query(query);
    let (d0, p0) = paris
        .tree
        .seed_approximate(query, &query_sax, &query_paa, config.kernel);
    let bsf = AtomicBsf::with_initial(d0, p0);
    let table = MindistTable::new(&query_paa, paris.tree.sax_config());

    let queue: ConcurrentMinQueue<(&TreeArena, NodeId)> = ConcurrentMinQueue::new();
    // Nodes inserted but not yet fully processed; termination requires
    // empty queue *and* zero pending (a popped inner node may still push).
    let pending = AtomicUsize::new(0);
    let dispenser = Dispenser::new(paris.tree.arenas().len());
    let stats = messi_core::stats::SharedQueryStats::new();

    messi_sync::WorkerPool::global().run(config.num_workers, &|_pid| {
        let queue = &queue;
        let pending = &pending;
        let dispenser = &dispenser;
        let bsf = &bsf;
        let table = &table;
        let query_paa = &query_paa;
        let scales = paris.tree.scales();
        let mut local = messi_core::stats::LocalStats::default();
        // Seed: push each arena root once (a forest arena covers several
        // touched keys; pushing per key would enqueue it repeatedly).
        while let Some(i) = dispenser.next() {
            let arena = &paris.tree.arenas()[i];
            let d = mindist_sq_node(query_paa, scales, arena.word(TreeArena::ROOT));
            local.lb += 1;
            if d < bsf.load() {
                pending.fetch_add(1, Ordering::AcqRel);
                queue.push(d, (arena, TreeArena::ROOT));
                local.inserted += 1;
            }
        }
        // Drain: pop, expand or scan, until globally quiescent.
        loop {
            match queue.pop_min() {
                Some((d, (arena, id))) => {
                    local.popped += 1;
                    if d < bsf.load() {
                        if !arena.is_leaf(id) {
                            let (left, right) = arena.children(id);
                            for child in [left, right] {
                                let cd = mindist_sq_node(query_paa, scales, arena.word(child));
                                local.lb += 1;
                                if cd < bsf.load() {
                                    pending.fetch_add(1, Ordering::AcqRel);
                                    queue.push(cd, (arena, child));
                                    local.inserted += 1;
                                }
                            }
                        } else {
                            for e in arena.leaf_entries(id) {
                                local.lb += 1;
                                let bound = bsf.load();
                                // ParIS's leaves point into its SAX array.
                                let sax = &paris.sax_array[e.pos as usize];
                                let lb = if use_simd {
                                    table.mindist_sq(sax)
                                } else {
                                    mindist_sq_leaf_scalar(query_paa, scales, sax)
                                };
                                if lb >= bound {
                                    continue;
                                }
                                local.real += 1;
                                let dist = ed_sq_early_abandon_with(
                                    config.kernel,
                                    query,
                                    paris.dataset().series(e.pos as usize),
                                    bound,
                                );
                                if dist < bound && bsf.update_min(dist, e.pos) {
                                    local.bsf_updates += 1;
                                }
                            }
                        }
                    } else {
                        local.filtered += 1;
                    }
                    pending.fetch_sub(1, Ordering::AcqRel);
                }
                None => {
                    if pending.load(Ordering::Acquire) == 0 {
                        break;
                    }
                    std::thread::yield_now();
                }
            }
        }
        local.flush(&stats);
    });

    let (dist_sq, pos) = bsf.load_with_pos();
    let stats = stats.finish(t_start.elapsed(), 0, config.num_workers as u64, false);
    (
        QueryAnswer {
            pos: u64::from(pos),
            dist_sq,
        },
        stats,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paris::build::{build_paris, ParisBuildVariant};
    use messi_core::IndexConfig;
    use messi_series::gen::{self, DatasetKind};
    use std::sync::Arc;

    fn build(count: usize, seed: u64) -> ParisIndex {
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, count, seed));
        build_paris(data, &IndexConfig::for_tests(), ParisBuildVariant::Locked).0
    }

    #[test]
    fn ts_matches_brute_force() {
        let paris = build(500, 51);
        let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 6, 51);
        for q in queries.iter() {
            let (ans, _) = ts_search(&paris, q, &QueryConfig::for_tests());
            let (_, bf_dist) = paris.dataset().nearest_neighbor_brute_force(q);
            assert!(
                (ans.dist_sq - bf_dist).abs() <= 1e-3 * bf_dist.max(1.0),
                "{} vs {bf_dist}",
                ans.dist_sq
            );
        }
    }

    #[test]
    fn ts_exact_across_worker_counts() {
        let paris = build(400, 52);
        let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 3, 52);
        for workers in [1usize, 2, 8, 16] {
            let config = QueryConfig {
                num_workers: workers,
                ..QueryConfig::for_tests()
            };
            for q in queries.iter() {
                let (ans, _) = ts_search(&paris, q, &config);
                let (_, bf) = paris.dataset().nearest_neighbor_brute_force(q);
                assert!(
                    (ans.dist_sq - bf).abs() <= 1e-3 * bf.max(1.0),
                    "w={workers}"
                );
            }
        }
    }

    #[test]
    fn ts_pops_everything_it_inserts() {
        // The distinguishing queue discipline: ParIS-TS pops every node it
        // ever inserts (no give-up protocol), whereas MESSI abandons queue
        // remainders once the popped minimum exceeds the BSF.
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 800, 53));
        let config = IndexConfig {
            leaf_capacity: 8, // force deep trees
            ..IndexConfig::for_tests()
        };
        let (paris, _) = build_paris(data, &config, ParisBuildVariant::Locked);
        let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 3, 53);
        for q in queries.iter() {
            let (_, ts_stats) = ts_search(&paris, q, &QueryConfig::for_tests());
            assert_eq!(
                ts_stats.nodes_popped, ts_stats.nodes_inserted,
                "ParIS-TS must pop exactly what it inserts"
            );
            let (_, messi_stats) = paris.tree.search(q, &messi_core::QueryConfig::for_tests());
            assert!(
                messi_stats.nodes_popped <= messi_stats.nodes_inserted,
                "MESSI may abandon queue remainders, never invent pops"
            );
        }
    }
}
