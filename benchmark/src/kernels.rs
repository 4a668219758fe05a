//! Kernel rows: the public `series` and `sax` kernel functions timed
//! over rows of the workload's own dataset.

use std::hint::black_box;
use std::time::{Duration, Instant};

use messi::sax::convert::sax_word;
use messi::sax::{MindistTable, SaxConfig};
use messi::series::distance::dtw::{dtw_sq, DtwParams};
use messi::series::distance::euclidean::{ed_sq, ed_sq_scalar};
use messi::series::distance::lb_keogh::{lb_keogh_sq, Envelope};
use messi::series::distance::simd::simd_available;
use messi::series::paa::paa;
use messi::series::Dataset;

use crate::gen::SERIES_LEN;
use crate::harness::Run;

/// Rows sampled from the dataset: enough that the candidates do not sit
/// in L1 (256 KiB of series), few enough to gather quickly.
const SAMPLE_ROWS: usize = 256;
/// Entries in the synthetic SoA symbol block the mindist rows scan.
const SOA_ENTRIES: usize = 4096;

/// Calls `op` with a running index for at least `min_time`; returns
/// nanoseconds per call.
fn ns_per_call(min_time: Duration, mut op: impl FnMut(usize)) -> f64 {
    let mut calls = 0usize;
    let mut batch = 16usize;
    let start = Instant::now();
    loop {
        for i in calls..calls + batch {
            op(i);
        }
        calls += batch;
        let elapsed = start.elapsed();
        if elapsed >= min_time {
            return elapsed.as_nanos() as f64 / calls as f64;
        }
        batch = (batch * 2).min(1 << 16);
    }
}

/// Times every kernel row for half a second each (10 ms under `--quick`)
/// and records the per-layer `series.*` / `sax.*` unit costs.
pub fn run_rows(run: &mut Run, data: &Dataset, query: &[f32]) {
    let per_row = Duration::from_millis(if run.opts.quick { 10 } else { 500 });
    let span = run.tracer.begin("harness.kernel_rows", run.root, 0);
    let stride = (data.len() / SAMPLE_ROWS).max(1);
    let rows: Vec<&[f32]> = (0..SAMPLE_ROWS.min(data.len()))
        .map(|i| data.series(i * stride))
        .collect();
    let row = |i: usize| rows[i % rows.len()];
    let params = DtwParams::paper_default(SERIES_LEN);

    let ed = ns_per_call(per_row, |i| {
        black_box(ed_sq(black_box(query), row(i)));
    });
    let ed_scalar = ns_per_call(per_row, |i| {
        black_box(ed_sq_scalar(black_box(query), row(i)));
    });
    let env = Envelope::new(query, params);
    let keogh = ns_per_call(per_row, |i| {
        black_box(lb_keogh_sq(black_box(&env), row(i)));
    });
    let dtw = ns_per_call(per_row, |i| {
        black_box(dtw_sq(black_box(query), row(i), params));
    });
    let envelope = ns_per_call(per_row, |i| {
        black_box(Envelope::new(row(i), params));
    });

    // The mindist rows scan a segment-major symbol block laid out the
    // way a leaf run's columns are: entry i of segment s at s·n + i.
    let config = SaxConfig::paper_default(SERIES_LEN);
    let n = SOA_ENTRIES.min(data.len());
    let entry_stride = (data.len() / n).max(1);
    let mut cols = vec![0u8; config.segments * n];
    for i in 0..n {
        let word = sax_word(data.series(i * entry_stride), config);
        for s in 0..config.segments {
            cols[s * n + i] = word.symbol(s);
        }
    }
    let query_paa = paa(query, config.segments);
    let mut table = MindistTable::new(&query_paa, config);
    let chunks = n / 8;
    let mut out = [0.0f32; 8];
    let use_simd = simd_available();
    let soa = ns_per_call(per_row, |i| {
        table.mindist_sq_soa(black_box(&cols), n, (i % chunks) * 8, 8, use_simd, &mut out);
        black_box(&out);
    }) / 8.0;
    let soa_scalar = ns_per_call(per_row, |i| {
        table.mindist_sq_soa_scalar(black_box(&cols), n, (i % chunks) * 8, 8, &mut out);
        black_box(&out);
    }) / 8.0;
    let row_paas: Vec<Vec<f32>> = rows.iter().map(|r| paa(r, config.segments)).collect();
    let table_fill = ns_per_call(per_row, |i| {
        table.refill(black_box(&row_paas[i % row_paas.len()]), config);
    });
    let summarize = ns_per_call(per_row, |i| {
        black_box(sax_word(row(i), config));
    });
    run.tracer.end(span);

    run.put("series.ed_ns_per_call", ed);
    run.put("series.ed_scalar_ns_per_call", ed_scalar);
    run.put("series.lb_keogh_ns_per_call", keogh);
    run.put("series.dtw_ns_per_call", dtw);
    run.put("series.envelope_ns_per_call", envelope);
    run.put("sax.mindist_soa_ns_per_entry", soa);
    run.put("sax.mindist_soa_scalar_ns_per_entry", soa_scalar);
    run.put("sax.table_fill_ns", table_fill);
    run.put("sax.summarize_ns_per_series", summarize);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_per_call_grows_with_the_work() {
        let light = ns_per_call(Duration::from_millis(5), |i| {
            black_box(i);
        });
        let heavy = ns_per_call(Duration::from_millis(5), |i| {
            black_box((0..2000).fold(i, |a, b| black_box(a ^ b)));
        });
        assert!(light > 0.0 && heavy > 10.0 * light, "{light} vs {heavy}");
    }
}
