//! A/A mode: two interleaved sets of runs of the *same* build. For each
//! workload × end-to-end metric it prints both set medians, how far they
//! are apart, each set's quartiles and spread, and the bound from
//! `BENCHMARK.json`; it fails if any pair of medians disagrees beyond
//! its bound. Its output (Markdown) is where the bounds come from.

use std::collections::BTreeMap;
use std::process::Command;

use crate::harness::{END_TO_END, WORKLOADS};
use crate::json::Json;
use crate::stats;

/// `better` and `bound` per end-to-end metric, from `BENCHMARK.json`.
fn contract() -> Result<BTreeMap<String, (bool, f64)>, String> {
    let doc = Json::parse(include_str!("../../BENCHMARK.json"))?;
    let Some(Json::Arr(metrics)) = doc.get("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end array".into());
    };
    metrics
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without name")?;
            let lower = match m.get("better").and_then(Json::as_str) {
                Some("lower") => true,
                Some("higher") => false,
                other => return Err(format!("{name}: better = {other:?}")),
            };
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without bound")?;
            Ok((name.to_string(), (lower, bound)))
        })
        .collect()
}

/// One untraced run as a child process; returns its end-to-end metrics.
fn child_run(
    workload: &str,
    seed: u64,
    seconds: f64,
    quick: bool,
) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"]);
    if quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let line = stdout.lines().last().ok_or("run printed nothing")?;
    parse_result_line(line)
}

/// Reads the result line back; a run that reports a failure is an error.
fn parse_result_line(line: &str) -> Result<BTreeMap<String, f64>, String> {
    let doc = Json::parse(line)?;
    if doc.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!("run reported failures: {line}"));
    }
    doc.get("metrics")
        .ok_or("result line has no metrics")?
        .fields()
        .iter()
        .map(|(name, m)| {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or("metric without value")?;
            Ok((name.clone(), value))
        })
        .collect()
}

/// How much worse `second` is than `first`, as a share of `first`
/// (negative when it is better).
fn worse_by(lower_is_better: bool, first: f64, second: f64) -> f64 {
    if lower_is_better {
        (second - first) / first
    } else {
        (first - second) / first
    }
}

pub fn run(runs: usize, seconds: f64, quick: bool) -> Result<(), String> {
    let contract = contract()?;
    println!("# A/A: two interleaved sets of {runs} runs of one build\n");
    println!(
        "`--seconds {seconds}`{}; seeds 1..={runs} in both sets; a pair fails when either \
         set's median is worse than the other's by more than the bound. `iqr` is the \
         inter-quartile range as a share of the median.\n",
        if quick {
            ", `--quick` (no bounds applied)"
        } else {
            ""
        }
    );
    let mut disagreements = Vec::new();
    for workload in WORKLOADS {
        // Interleaved: A1 B1 A2 B2 …, so drift hits both sets alike.
        let mut sets = [BTreeMap::<String, Vec<f64>>::new(), BTreeMap::new()];
        for i in 0..runs {
            for set in &mut sets {
                for (name, value) in child_run(workload, i as u64 + 1, seconds, quick)? {
                    set.entry(name).or_default().push(value);
                }
            }
        }
        println!("## {workload}\n");
        println!(
            "| metric | median A | median B | B vs A | A q1..q3 (iqr) | B q1..q3 (iqr) | bound | |"
        );
        println!("|---|---|---|---|---|---|---|---|");
        for (name, unit) in END_TO_END {
            let (lower, bound) = contract[name];
            let (a, b) = (&sets[0][name], &sets[1][name]);
            let (ma, mb) = (stats::median(a), stats::median(b));
            let diff = worse_by(lower, ma, mb).max(worse_by(lower, mb, ma));
            let quart = |v: &[f64]| {
                let (q1, q3) = stats::quartiles(v);
                format!("{q1:.4}..{q3:.4} ({:.2} %)", 100.0 * stats::relative_iqr(v))
            };
            let ok = quick || diff <= bound;
            println!(
                "| `{name}` ({unit}) | {ma:.4} | {mb:.4} | {:+.2} % | {} | {} | {:.1} % | {} |",
                100.0 * (mb - ma) / ma,
                quart(a),
                quart(b),
                100.0 * bound,
                if ok { "ok" } else { "DISAGREE" }
            );
            if !ok {
                disagreements.push(format!("{workload}/{name}"));
            }
        }
        println!();
    }
    if disagreements.is_empty() {
        println!("All pairs agree within their bounds.");
        Ok(())
    } else {
        Err(format!(
            "sets disagree beyond the bound on: {}",
            disagreements.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_a_result_line_and_refuses_a_failed_run() {
        let line = r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"setup_s":{"value":0.5,"unit":"s"},"query_p50_us":{"value":1200.25,"unit":"us"}}}"#;
        let metrics = parse_result_line(line).unwrap();
        assert_eq!(metrics["setup_s"], 0.5);
        assert_eq!(metrics["query_p50_us"], 1200.25);
        let failed = line.replace("\"correct\":true", "\"correct\":false");
        assert!(parse_result_line(&failed).is_err());
        assert!(parse_result_line("stamp {}").is_err());
    }

    #[test]
    fn worse_by_follows_the_direction() {
        assert!((worse_by(true, 100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((worse_by(true, 100.0, 90.0) + 0.10).abs() < 1e-12);
        assert!((worse_by(false, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!((worse_by(false, 100.0, 120.0) + 0.20).abs() < 1e-12);
    }

    #[test]
    fn the_contract_covers_every_end_to_end_metric() {
        let contract = contract().unwrap();
        for (name, _) in END_TO_END {
            assert!(contract.contains_key(name), "{name} has no bound");
        }
    }
}
