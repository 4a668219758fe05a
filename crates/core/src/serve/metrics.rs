//! Server-side counters and their Prometheus text exposition.
//!
//! `/metrics` exports three families of numbers: the HTTP frontend's own
//! counters (requests, sheds, in-flight gauge), the executor's
//! [`QueryStatsAggregate`] — throughput, the Fig. 13 phase breakdown,
//! prune-rate and budget-stop counters, the same aggregate a batch run
//! returns — and, when the daemon serves a sharded index, per-shard
//! labeled counters (`messi_shard_*_total{shard="i"}`) folded from the
//! scatter's per-shard [`QueryStats`], so load imbalance and cross-shard
//! pruning effectiveness are visible per shard. [`encode_prometheus`]
//! destructures the aggregate exhaustively: adding a stats field without
//! exporting it is a compile error, not a silent observability gap.

use crate::stats::{QueryStats, QueryStatsAggregate, TimeBreakdown};
use messi_sync::{Counter, WorkerPool};
use parking_lot::Mutex;
use std::time::Instant;

use super::admission::Admission;

/// Counters the HTTP frontend maintains, plus the folded query stats.
#[derive(Debug)]
pub struct ServerMetrics {
    /// When the server started (for the uptime gauge).
    pub started: Instant,
    /// Every request that produced a response, any route or status.
    pub http_requests: Counter,
    /// Requests answered with a 4xx (bad JSON, unknown route, oversized
    /// body, wrong method).
    pub http_client_errors: Counter,
    /// Queries that failed inside the engine (500s).
    pub query_failures: Counter,
    /// Per-query scratch allocation events observed after warm-up —
    /// stays 0 on a healthy daemon (the zero-alloc invariant, live).
    pub query_alloc_events: Counter,
    /// [`WorkerPool::nested_spawns`] when the daemon started; the export
    /// is the count since.
    nested_spawns_at_start: u64,
    /// The folded stats of every answered query.
    agg: Mutex<QueryStatsAggregate>,
    /// Per-shard folds of the same queries (index = shard id), fed by
    /// the scatter's per-shard [`QueryStats`].
    shard_aggs: Vec<Mutex<QueryStatsAggregate>>,
}

impl ServerMetrics {
    /// Fresh counters for a daemon over `num_shards` shards, uptime
    /// starting now.
    pub fn new(num_shards: usize) -> Self {
        Self {
            started: Instant::now(),
            http_requests: Counter::new(),
            http_client_errors: Counter::new(),
            query_failures: Counter::new(),
            query_alloc_events: Counter::new(),
            nested_spawns_at_start: WorkerPool::nested_spawns(),
            agg: Mutex::new(QueryStatsAggregate::default()),
            shard_aggs: (0..num_shards)
                .map(|_| Mutex::new(QueryStatsAggregate::default()))
                .collect(),
        }
    }

    /// Folds one answered query into the aggregate; `alloc_delta` is the
    /// context's allocation-event delta across the query and `per_shard`
    /// the scatter's per-shard stats (one entry per shard). Each lock is
    /// held for a handful of integer adds — nothing allocates or sorts.
    pub fn record_query(&self, stats: &QueryStats, alloc_delta: u64, per_shard: &[QueryStats]) {
        self.agg.lock().add(stats);
        self.query_alloc_events.add(alloc_delta);
        for (agg, shard_stats) in self.shard_aggs.iter().zip(per_shard) {
            agg.lock().add(shard_stats);
        }
    }

    /// A snapshot of the folded query stats.
    pub fn aggregate(&self) -> QueryStatsAggregate {
        self.agg.lock().clone()
    }

    /// Snapshots of the per-shard folds, indexed by shard id.
    pub fn shard_aggregates(&self) -> Vec<QueryStatsAggregate> {
        self.shard_aggs.iter().map(|a| a.lock().clone()).collect()
    }
}

impl Default for ServerMetrics {
    fn default() -> Self {
        Self::new(1)
    }
}

/// One metric family: `# HELP` + `# TYPE` + one sample line.
fn family(out: &mut String, name: &str, kind: &str, help: &str, value: impl std::fmt::Display) {
    out.push_str(&format!(
        "# HELP {name} {help}\n# TYPE {name} {kind}\n{name} {value}\n"
    ));
}

/// Renders the Prometheus text exposition ([text format 0.0.4]) of the
/// server's state, including the live-ingest families from `ingest`
/// (a [`DeltaIndex::stats`](crate::ingest::DeltaIndex::stats) snapshot;
/// a daemon without ingest enabled exports them as zeros so dashboards
/// keep a stable series set).
///
/// [text format 0.0.4]: https://prometheus.io/docs/instrumenting/exposition_formats/
pub fn encode_prometheus(
    metrics: &ServerMetrics,
    admission: &Admission,
    ready: bool,
    ingest: &crate::ingest::IngestStats,
) -> String {
    let mut out = String::with_capacity(4096);

    family(
        &mut out,
        "messi_ready",
        "gauge",
        "1 once the snapshot is loaded and the context pool is prewarmed.",
        ready as u8,
    );
    family(
        &mut out,
        "messi_uptime_seconds",
        "gauge",
        "Seconds since the daemon started.",
        format_args!("{:.3}", metrics.started.elapsed().as_secs_f64()),
    );
    family(
        &mut out,
        "messi_http_requests_total",
        "counter",
        "HTTP requests answered, any route or status.",
        metrics.http_requests.get(),
    );
    family(
        &mut out,
        "messi_http_client_errors_total",
        "counter",
        "Requests answered with a 4xx status.",
        metrics.http_client_errors.get(),
    );
    family(
        &mut out,
        "messi_query_failures_total",
        "counter",
        "Queries that failed inside the engine (5xx).",
        metrics.query_failures.get(),
    );
    family(
        &mut out,
        "messi_queries_shed_total",
        "counter",
        "Queries shed at the admission gate (503).",
        admission.sheds(),
    );
    family(
        &mut out,
        "messi_admission_inflight",
        "gauge",
        "Queries currently holding an admission permit.",
        admission.inflight(),
    );
    family(
        &mut out,
        "messi_admission_capacity",
        "gauge",
        "Admission gate capacity (0 = drain mode).",
        admission.capacity(),
    );
    family(
        &mut out,
        "messi_query_alloc_events_total",
        "counter",
        "Per-query scratch allocations observed after warm-up (should stay 0).",
        metrics.query_alloc_events.get(),
    );
    family(
        &mut out,
        "messi_pool_nested_spawns_total",
        "counter",
        "OS threads spawned inside requests by nested worker-pool use since start (should stay 0 with query_workers = 1).",
        WorkerPool::nested_spawns().saturating_sub(metrics.nested_spawns_at_start),
    );

    // Live-ingest families: destructured exhaustively like the query
    // aggregate, so a new IngestStats field is a compile error here
    // until it is exported.
    let crate::ingest::IngestStats {
        epoch,
        epoch_age,
        overlay_series,
        total_series,
        batches,
        series_ingested,
        republishes,
        republish_time,
        republish_failures,
        log_bytes,
    } = *ingest;
    family(
        &mut out,
        "messi_ingest_epoch",
        "gauge",
        "Published epoch id (bumps on every insert and republish).",
        epoch,
    );
    family(
        &mut out,
        "messi_ingest_epoch_age_seconds",
        "gauge",
        "Age of the published index core (resets on republish).",
        format_args!("{:.3}", epoch_age.as_secs_f64()),
    );
    family(
        &mut out,
        "messi_ingest_delta_series",
        "gauge",
        "Series in the overlay, not yet flattened into arenas.",
        overlay_series,
    );
    family(
        &mut out,
        "messi_ingest_live_series",
        "gauge",
        "Total live series (published base + overlay).",
        total_series,
    );
    family(
        &mut out,
        "messi_ingest_batches_total",
        "counter",
        "Ingest batches accepted.",
        batches,
    );
    family(
        &mut out,
        "messi_ingest_series_total",
        "counter",
        "Series ingested.",
        series_ingested,
    );
    family(
        &mut out,
        "messi_ingest_republishes_total",
        "counter",
        "Overlay flattens (epoch republishes) started.",
        republishes,
    );
    family(
        &mut out,
        "messi_ingest_republish_seconds_total",
        "counter",
        "Summed wall time of finished republishes in seconds.",
        format_args!("{:.6}", republish_time.as_secs_f64()),
    );
    family(
        &mut out,
        "messi_ingest_republish_failures_total",
        "counter",
        "Republishes that failed (overlay kept; the batches stay acknowledged).",
        republish_failures,
    );
    family(
        &mut out,
        "messi_ingest_log_bytes",
        "gauge",
        "Current delta-log size in bytes (0 without a log).",
        log_bytes,
    );

    // The executor aggregate, destructured exhaustively: a new stats
    // field fails this function (and the covering unit test) at compile
    // time until it is exported below.
    let agg = metrics.aggregate();
    let &QueryStatsAggregate {
        queries,
        lb_distance_calcs,
        node_lb_calcs,
        arenas_descended,
        real_distance_calcs,
        seed_real_calcs,
        bsf_updates,
        approx_inflation_prunes,
        budget_stops,
        total_time,
        breakdown,
        latency_us: _, // exported below as quantile gauges via `agg`
    } = &agg;
    family(
        &mut out,
        "messi_queries_total",
        "counter",
        "Queries answered successfully.",
        queries,
    );
    family(
        &mut out,
        "messi_query_lb_distance_calcs_total",
        "counter",
        "Lower-bound (mindist) distance calculations (Fig. 17a).",
        lb_distance_calcs,
    );
    family(
        &mut out,
        "messi_query_node_lb_calcs_total",
        "counter",
        "Of the lower-bound calculations, those made for tree nodes (arena roots included).",
        node_lb_calcs,
    );
    family(
        &mut out,
        "messi_query_arenas_descended_total",
        "counter",
        "Arenas whose root survived its bound and were descended.",
        arenas_descended,
    );
    family(
        &mut out,
        "messi_query_real_distance_calcs_total",
        "counter",
        "Real (ED/DTW) distance calculations (Fig. 17b).",
        real_distance_calcs,
    );
    family(
        &mut out,
        "messi_query_seed_real_distance_calcs_total",
        "counter",
        "Real distance calculations of the seed step's home-leaf scans.",
        seed_real_calcs,
    );
    family(
        &mut out,
        "messi_query_bsf_updates_total",
        "counter",
        "Successful shared-BSF improvements.",
        bsf_updates,
    );
    family(
        &mut out,
        "messi_query_approx_inflation_prunes_total",
        "counter",
        "Prunes only the ε-inflated approximate bound allowed.",
        approx_inflation_prunes,
    );
    family(
        &mut out,
        "messi_query_budget_stops_total",
        "counter",
        "Approximate queries stopped by the δ leaf-visit budget.",
        budget_stops,
    );
    family(
        &mut out,
        "messi_query_seconds_total",
        "counter",
        "Summed query wall time in seconds.",
        format_args!("{:.6}", total_time.as_secs_f64()),
    );
    out.push_str(
        "# HELP messi_query_latency_us Per-query latency quantiles in microseconds \
         (nearest-rank over the daemon's lifetime, from fixed buckets at most 3.1 % wide).\n\
         # TYPE messi_query_latency_us gauge\n",
    );
    for (label, p) in [("0.5", 50.0), ("0.99", 99.0), ("1.0", 100.0)] {
        out.push_str(&format!(
            "messi_query_latency_us{{quantile=\"{label}\"}} {}\n",
            agg.latency_percentile_us(p).unwrap_or(0)
        ));
    }

    // The Fig. 13 per-phase breakdown, likewise exhaustively
    // destructured. Absent (no query ran with collect_breakdown) it
    // exports as all-zero rather than disappearing, so dashboards keep a
    // stable series set.
    let TimeBreakdown {
        init_ns,
        tree_pass_ns,
        pq_insert_ns,
        pq_remove_ns,
        dist_calc_ns,
    } = breakdown.unwrap_or_default();
    let phase = |out: &mut String, label: &str, ns: u64| {
        out.push_str(&format!(
            "messi_query_phase_seconds_total{{phase=\"{label}\"}} {:.6}\n",
            ns as f64 / 1e9
        ));
    };
    out.push_str("# HELP messi_query_phase_seconds_total Summed per-phase query time (Fig. 13 breakdown).\n# TYPE messi_query_phase_seconds_total counter\n");
    phase(&mut out, "init", init_ns);
    phase(&mut out, "tree_pass", tree_pass_ns);
    phase(&mut out, "pq_insert", pq_insert_ns);
    phase(&mut out, "pq_remove", pq_remove_ns);
    phase(&mut out, "dist_calc", dist_calc_ns);

    // Per-shard counter families, one labeled sample per shard. The
    // scatter hands every query's per-shard stats to `record_query`, so
    // per-shard `queries` counters advance in lockstep while the work
    // counters split by shard — imbalance and cross-shard pruning (a
    // shard pruned by another's BSF shows few real-distance calcs) read
    // straight off the label dimension.
    let shard_aggs = metrics.shard_aggregates();
    let labeled =
        |out: &mut String, name: &str, help: &str, value: fn(&QueryStatsAggregate) -> String| {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} counter\n"));
            for (i, agg) in shard_aggs.iter().enumerate() {
                out.push_str(&format!("{name}{{shard=\"{i}\"}} {}\n", value(agg)));
            }
        };
    labeled(
        &mut out,
        "messi_shard_queries_total",
        "Queries this shard participated in answering.",
        |a| a.queries.to_string(),
    );
    labeled(
        &mut out,
        "messi_shard_query_lb_distance_calcs_total",
        "Lower-bound (mindist) calculations performed by this shard.",
        |a| a.lb_distance_calcs.to_string(),
    );
    labeled(
        &mut out,
        "messi_shard_query_node_lb_calcs_total",
        "Node-level lower-bound calculations performed by this shard.",
        |a| a.node_lb_calcs.to_string(),
    );
    labeled(
        &mut out,
        "messi_shard_query_arenas_descended_total",
        "Arenas this shard descended past their root.",
        |a| a.arenas_descended.to_string(),
    );
    labeled(
        &mut out,
        "messi_shard_query_real_distance_calcs_total",
        "Real (ED/DTW) distance calculations performed by this shard.",
        |a| a.real_distance_calcs.to_string(),
    );
    labeled(
        &mut out,
        "messi_shard_query_seed_real_distance_calcs_total",
        "Real distance calculations of this shard's home-leaf seed scans.",
        |a| a.seed_real_calcs.to_string(),
    );
    labeled(
        &mut out,
        "messi_shard_query_seconds_total",
        "Summed per-shard query wall time in seconds.",
        |a| format!("{:.6}", a.total_time.as_secs_f64()),
    );

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::StopReason;
    use std::time::Duration;

    fn sample_metrics() -> (ServerMetrics, Admission) {
        let metrics = ServerMetrics::new(2);
        metrics.http_requests.add(7);
        metrics.http_client_errors.add(2);
        metrics.record_query(
            &QueryStats {
                lb_distance_calcs: 100,
                node_lb_calcs: 30,
                arenas_descended: 6,
                real_distance_calcs: 40,
                seed_real_calcs: 9,
                bsf_updates: 11,
                approx_inflation_prunes: 3,
                stop_reason: Some(StopReason::BudgetExhausted),
                total_time: Duration::from_millis(5),
                breakdown: Some(TimeBreakdown {
                    init_ns: 1_000,
                    tree_pass_ns: 2_000,
                    pq_insert_ns: 3_000,
                    pq_remove_ns: 4_000,
                    dist_calc_ns: 5_000,
                }),
                ..Default::default()
            },
            0,
            &[
                QueryStats {
                    lb_distance_calcs: 60,
                    node_lb_calcs: 20,
                    arenas_descended: 5,
                    real_distance_calcs: 39,
                    seed_real_calcs: 7,
                    ..Default::default()
                },
                QueryStats {
                    lb_distance_calcs: 40,
                    real_distance_calcs: 1,
                    ..Default::default()
                },
            ],
        );
        let admission = Admission::new(4);
        let _ = admission.try_acquire().map(std::mem::forget); // pin inflight = 1
        (metrics, admission)
    }

    /// Every aggregate field maps to exactly one metric family, and every
    /// family appears exactly once. The destructuring makes a new
    /// `QueryStatsAggregate` / `TimeBreakdown` field a compile error
    /// here until its expected sample line is added.
    #[test]
    fn every_counter_is_exported_exactly_once() {
        let (metrics, admission) = sample_metrics();
        let ingest = crate::ingest::IngestStats {
            epoch: 5,
            epoch_age: Duration::from_millis(1500),
            overlay_series: 12,
            total_series: 1012,
            batches: 4,
            series_ingested: 17,
            republishes: 2,
            republish_time: Duration::from_millis(250),
            republish_failures: 1,
            log_bytes: 4096,
        };
        let text = encode_prometheus(&metrics, &admission, true, &ingest);

        let QueryStatsAggregate {
            queries,
            lb_distance_calcs,
            node_lb_calcs,
            arenas_descended,
            real_distance_calcs,
            seed_real_calcs,
            bsf_updates,
            approx_inflation_prunes,
            budget_stops,
            total_time: _,
            breakdown,
            latency_us: _,
        } = metrics.aggregate();
        let TimeBreakdown {
            init_ns,
            tree_pass_ns,
            pq_insert_ns,
            pq_remove_ns,
            dist_calc_ns,
        } = breakdown.expect("sample query collected a breakdown");

        let expect_exactly_once = |line: String| {
            let hits = text.matches(&line).count();
            assert_eq!(hits, 1, "`{line}` appears {hits}× in:\n{text}");
        };
        expect_exactly_once(format!("\nmessi_queries_total {queries}\n"));
        expect_exactly_once(format!(
            "\nmessi_query_lb_distance_calcs_total {lb_distance_calcs}\n"
        ));
        expect_exactly_once(format!(
            "\nmessi_query_node_lb_calcs_total {node_lb_calcs}\n"
        ));
        expect_exactly_once(format!(
            "\nmessi_query_arenas_descended_total {arenas_descended}\n"
        ));
        expect_exactly_once(format!(
            "\nmessi_query_real_distance_calcs_total {real_distance_calcs}\n"
        ));
        expect_exactly_once(format!(
            "\nmessi_query_seed_real_distance_calcs_total {seed_real_calcs}\n"
        ));
        expect_exactly_once(format!("\nmessi_query_bsf_updates_total {bsf_updates}\n"));
        expect_exactly_once(format!(
            "\nmessi_query_approx_inflation_prunes_total {approx_inflation_prunes}\n"
        ));
        expect_exactly_once(format!("\nmessi_query_budget_stops_total {budget_stops}\n"));
        expect_exactly_once("\nmessi_query_seconds_total 0.005000\n".to_string());
        // One query of 5 ms: every latency quantile is 5000 µs.
        for label in ["0.5", "0.99", "1.0"] {
            expect_exactly_once(format!(
                "messi_query_latency_us{{quantile=\"{label}\"}} 5000\n"
            ));
        }
        for (label, ns) in [
            ("init", init_ns),
            ("tree_pass", tree_pass_ns),
            ("pq_insert", pq_insert_ns),
            ("pq_remove", pq_remove_ns),
            ("dist_calc", dist_calc_ns),
        ] {
            expect_exactly_once(format!(
                "\nmessi_query_phase_seconds_total{{phase=\"{label}\"}} {:.6}\n",
                ns as f64 / 1e9
            ));
        }

        // Server-side families.
        expect_exactly_once("\nmessi_ready 1\n".to_string());
        expect_exactly_once("\nmessi_http_requests_total 7\n".to_string());
        expect_exactly_once("\nmessi_http_client_errors_total 2\n".to_string());
        expect_exactly_once("\nmessi_query_failures_total 0\n".to_string());
        expect_exactly_once("\nmessi_queries_shed_total 0\n".to_string());
        expect_exactly_once("\nmessi_admission_inflight 1\n".to_string());
        expect_exactly_once("\nmessi_admission_capacity 4\n".to_string());
        expect_exactly_once("\nmessi_query_alloc_events_total 0\n".to_string());
        assert_eq!(text.matches("\nmessi_pool_nested_spawns_total ").count(), 1);

        // Live-ingest families, one sample each.
        expect_exactly_once("\nmessi_ingest_epoch 5\n".to_string());
        expect_exactly_once("\nmessi_ingest_epoch_age_seconds 1.500\n".to_string());
        expect_exactly_once("\nmessi_ingest_delta_series 12\n".to_string());
        expect_exactly_once("\nmessi_ingest_live_series 1012\n".to_string());
        expect_exactly_once("\nmessi_ingest_batches_total 4\n".to_string());
        expect_exactly_once("\nmessi_ingest_series_total 17\n".to_string());
        expect_exactly_once("\nmessi_ingest_republishes_total 2\n".to_string());
        expect_exactly_once("\nmessi_ingest_republish_seconds_total 0.250000\n".to_string());
        expect_exactly_once("\nmessi_ingest_republish_failures_total 1\n".to_string());
        expect_exactly_once("\nmessi_ingest_log_bytes 4096\n".to_string());

        // Per-shard families: the scatter's per-shard stats land under
        // their own shard label, and both shards count the query.
        expect_exactly_once("\nmessi_shard_queries_total{shard=\"0\"} 1\n".to_string());
        expect_exactly_once("messi_shard_queries_total{shard=\"1\"} 1\n".to_string());
        expect_exactly_once(
            "messi_shard_query_real_distance_calcs_total{shard=\"0\"} 39\n".to_string(),
        );
        expect_exactly_once(
            "messi_shard_query_real_distance_calcs_total{shard=\"1\"} 1\n".to_string(),
        );
        expect_exactly_once(
            "messi_shard_query_seed_real_distance_calcs_total{shard=\"0\"} 7\n".to_string(),
        );
        expect_exactly_once(
            "messi_shard_query_lb_distance_calcs_total{shard=\"0\"} 60\n".to_string(),
        );
        expect_exactly_once("messi_shard_query_node_lb_calcs_total{shard=\"0\"} 20\n".to_string());
        expect_exactly_once(
            "messi_shard_query_arenas_descended_total{shard=\"0\"} 5\n".to_string(),
        );

        // Exposition-format hygiene: every sample has HELP + TYPE.
        let samples = text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
            .count();
        let types = text.lines().filter(|l| l.starts_with("# TYPE ")).count();
        let helps = text.lines().filter(|l| l.starts_with("# HELP ")).count();
        assert_eq!(types, helps);
        // The phase family contributes 5 samples under one TYPE, the
        // latency family 3 quantiles under one TYPE; each of the 7
        // per-shard families contributes one sample per shard (2 shards
        // here).
        assert_eq!(samples, types + 4 + 2 + 7);
    }

    #[test]
    fn missing_breakdown_exports_zeroed_phases() {
        let metrics = ServerMetrics::new(1);
        metrics.record_query(&QueryStats::default(), 0, &[QueryStats::default()]);
        let text = encode_prometheus(
            &metrics,
            &Admission::new(1),
            false,
            &crate::ingest::IngestStats::default(),
        );
        assert!(text.contains("messi_ready 0\n"));
        assert!(text.contains("messi_ingest_batches_total 0\n"), "{text}");
        assert!(
            text.contains("messi_query_phase_seconds_total{phase=\"init\"} 0.000000\n"),
            "{text}"
        );
    }

    #[test]
    fn alloc_events_accumulate() {
        let metrics = ServerMetrics::new(1);
        metrics.record_query(&QueryStats::default(), 3, &[QueryStats::default()]);
        metrics.record_query(&QueryStats::default(), 0, &[QueryStats::default()]);
        assert_eq!(metrics.query_alloc_events.get(), 3);
        assert_eq!(metrics.aggregate().queries, 2);
        assert_eq!(metrics.shard_aggregates()[0].queries, 2);
    }
}
