//! UCR Suite scans: the optimized serial scan and its parallel version.
//!
//! **UCR Suite-P** (§IV-A): "every thread is assigned a part of the
//! in-memory data series array, and all threads concurrently and
//! independently process their own parts, performing the real distance
//! calculations in SIMD, and only synchronize at the end to produce the
//! final result." No index, no lower bounds over summaries — each thread
//! runs an early-abandoning distance scan against its own thread-local
//! best (synchronizing per series would defeat "independently").
//!
//! The DTW variants add the standard UCR cascade per candidate:
//! LB_Keogh on the raw series (early-abandoned), then full banded DTW
//! (early-abandoned). The *serial* DTW scan is the Fig. 19 reference that
//! MESSI-DTW beats by >3 orders of magnitude.

use messi_core::{QueryAnswer, QueryConfig, QueryStats};
use messi_series::distance::dtw::{cascade_sq, DtwParams};
use messi_series::distance::euclidean::ed_sq_early_abandon_with;
use messi_series::distance::lb_keogh::Envelope;
use messi_series::distance::Kernel;
use messi_series::Dataset;
use parking_lot::Mutex;
use std::time::Instant;

/// Serial UCR-style scan (ED): early-abandoning squared Euclidean
/// distance over every series.
pub fn ucr_serial(dataset: &Dataset, query: &[f32], kernel: Kernel) -> (QueryAnswer, QueryStats) {
    let t_start = Instant::now();
    let mut best = (f32::INFINITY, u32::MAX);
    for (pos, s) in dataset.iter().enumerate() {
        let d = ed_sq_early_abandon_with(kernel, query, s, best.0);
        if d < best.0 {
            best = (d, pos as u32);
        }
    }
    answer(best, dataset.len() as u64, t_start)
}

/// UCR Suite-P (ED): the paper's parallel serial-scan competitor.
///
/// # Panics
///
/// Panics if the query length differs from the dataset's series length or
/// the configuration is invalid.
pub fn ucr_parallel(
    dataset: &Dataset,
    query: &[f32],
    config: &QueryConfig,
) -> (QueryAnswer, QueryStats) {
    config.validate();
    assert_eq!(query.len(), dataset.series_len(), "query length mismatch");
    let t_start = Instant::now();
    let n = dataset.len();
    let per_worker = n.div_ceil(config.num_workers).max(1);
    let results: Mutex<Vec<(f32, u32)>> = Mutex::new(Vec::with_capacity(config.num_workers));
    std::thread::scope(|s| {
        for w in 0..config.num_workers {
            let results = &results;
            s.spawn(move || {
                let start = w * per_worker;
                let end = usize::min(start + per_worker, n);
                if start >= end {
                    return;
                }
                // Thread-local best: threads "only synchronize at the end".
                let mut best = (f32::INFINITY, u32::MAX);
                for pos in start..end {
                    let d =
                        ed_sq_early_abandon_with(config.kernel, query, dataset.series(pos), best.0);
                    if d < best.0 {
                        best = (d, pos as u32);
                    }
                }
                results.lock().push(best);
            });
        }
    });
    let best = merge(results.into_inner());
    answer(best, n as u64, t_start)
}

/// Serial UCR Suite DTW scan: LB_Keogh cascade + early-abandoning banded
/// DTW over every series (the non-parallel Fig. 19 reference) — the
/// parallel scan with one worker and the default kernel.
pub fn ucr_serial_dtw(
    dataset: &Dataset,
    query: &[f32],
    params: DtwParams,
) -> (QueryAnswer, QueryStats) {
    let serial = QueryConfig {
        num_workers: 1,
        ..QueryConfig::default()
    };
    ucr_parallel_dtw(dataset, query, params, &serial)
}

/// UCR Suite-P DTW: the parallel DTW scan of Fig. 19. Each worker runs
/// its part through [`cascade_sq`] — LB_Keogh, then DTW abandoning on
/// UCR's cumulative LB_Keogh bound — against its own best.
///
/// # Panics
///
/// Panics on query-length mismatch or invalid configuration.
pub fn ucr_parallel_dtw(
    dataset: &Dataset,
    query: &[f32],
    params: DtwParams,
    config: &QueryConfig,
) -> (QueryAnswer, QueryStats) {
    config.validate();
    assert_eq!(query.len(), dataset.series_len(), "query length mismatch");
    let t_start = Instant::now();
    let env = Envelope::new(query, params);
    let n = dataset.len();
    let per_worker = n.div_ceil(config.num_workers).max(1);
    let results: Mutex<Vec<((f32, u32), u64)>> = Mutex::new(Vec::with_capacity(config.num_workers));
    std::thread::scope(|s| {
        for w in 0..config.num_workers {
            let results = &results;
            let env = &env;
            s.spawn(move || {
                let start = w * per_worker;
                let end = usize::min(start + per_worker, n);
                if start >= end {
                    return;
                }
                let mut best = (f32::INFINITY, u32::MAX);
                let mut real_calcs = 0u64;
                for pos in start..end {
                    let s = dataset.series(pos);
                    if let Some(d) = cascade_sq(config.kernel, env, params, query, s, best.0) {
                        real_calcs += 1;
                        if d < best.0 {
                            best = (d, pos as u32);
                        }
                    }
                }
                results.lock().push((best, real_calcs));
            });
        }
    });
    let collected = results.into_inner();
    let real_calcs: u64 = collected.iter().map(|(_, c)| c).sum();
    let best = merge(collected.into_iter().map(|(b, _)| b).collect());
    let (ans, mut stats) = answer(best, n as u64, t_start);
    stats.real_distance_calcs = real_calcs;
    (ans, stats)
}

fn merge(results: Vec<(f32, u32)>) -> (f32, u32) {
    results
        .into_iter()
        .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
        .unwrap_or((f32::INFINITY, u32::MAX))
}

fn answer(best: (f32, u32), scanned: u64, t_start: Instant) -> (QueryAnswer, QueryStats) {
    (
        QueryAnswer {
            pos: u64::from(best.1),
            dist_sq: best.0,
        },
        QueryStats {
            lb_distance_calcs: 0,
            real_distance_calcs: scanned,
            total_time: t_start.elapsed(),
            ..QueryStats::default()
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use messi_series::distance::dtw::dtw_sq;
    use messi_series::gen::{self, DatasetKind};

    #[test]
    fn parallel_scan_matches_brute_force() {
        let data = gen::generate(DatasetKind::RandomWalk, 400, 61);
        let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 5, 61);
        for q in queries.iter() {
            let (ans, stats) = ucr_parallel(&data, q, &QueryConfig::for_tests());
            let (bf_pos, bf_dist) = data.nearest_neighbor_brute_force(q);
            assert!((ans.dist_sq - bf_dist).abs() <= 1e-3 * bf_dist.max(1.0));
            assert_eq!(ans.pos as usize, bf_pos);
            assert_eq!(stats.real_distance_calcs, 400);
        }
    }

    #[test]
    fn serial_and_parallel_agree() {
        let data = gen::generate(DatasetKind::Seismic, 250, 62);
        let queries = gen::queries::generate_queries(DatasetKind::Seismic, 3, 62);
        for q in queries.iter() {
            let (serial, _) = ucr_serial(&data, q, Kernel::Auto);
            for workers in [1usize, 3, 9] {
                let config = QueryConfig {
                    num_workers: workers,
                    ..QueryConfig::for_tests()
                };
                let (par, _) = ucr_parallel(&data, q, &config);
                assert_eq!(par.pos, serial.pos);
                assert!((par.dist_sq - serial.dist_sq).abs() <= 1e-4 * serial.dist_sq.max(1.0));
            }
        }
    }

    #[test]
    fn dtw_scans_match_brute_force() {
        let data = gen::generate(DatasetKind::RandomWalk, 150, 63);
        let params = DtwParams::paper_default(256);
        let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 2, 63);
        for q in queries.iter() {
            let mut bf = (0usize, f32::INFINITY);
            for (i, s) in data.iter().enumerate() {
                let d = dtw_sq(q, s, params);
                if d < bf.1 {
                    bf = (i, d);
                }
            }
            let (serial, sstats) = ucr_serial_dtw(&data, q, params);
            assert!((serial.dist_sq - bf.1).abs() <= 1e-3 * bf.1.max(1.0));
            assert!(
                sstats.real_distance_calcs < 150,
                "LB_Keogh should prune some DTW computations"
            );
            let (par, _) = ucr_parallel_dtw(&data, q, params, &QueryConfig::for_tests());
            assert!((par.dist_sq - bf.1).abs() <= 1e-3 * bf.1.max(1.0));
        }
    }

    #[test]
    fn scalar_kernel_agrees_with_simd() {
        let data = gen::generate(DatasetKind::RandomWalk, 200, 64);
        let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 2, 64);
        for q in queries.iter() {
            let (simd, _) = ucr_serial(&data, q, Kernel::Auto);
            let (sisd, _) = ucr_serial(&data, q, Kernel::Scalar);
            assert_eq!(simd.pos, sisd.pos);
        }
    }

    #[test]
    fn empty_worker_ranges_are_harmless() {
        // More workers than series.
        let data = gen::generate(DatasetKind::RandomWalk, 3, 65);
        let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 1, 65);
        let config = QueryConfig {
            num_workers: 16,
            ..QueryConfig::for_tests()
        };
        let (ans, _) = ucr_parallel(&data, queries.series(0), &config);
        let (bf_pos, _) = data.nearest_neighbor_brute_force(queries.series(0));
        assert_eq!(ans.pos as usize, bf_pos);
    }
}
