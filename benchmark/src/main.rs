//! The repository's one benchmark. One command runs one workload:
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--quick]
//! ```
//!
//! It generates the inputs from the seed, measures for about `--seconds`
//! seconds, verifies every answer, prints every metric by name with its
//! unit, and ends with one JSON line: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. See README.md.

mod aa;
mod env;
mod explore;
mod gen;
mod harness;
mod http;
mod ingest_query;
mod json;
mod kernels;
mod serve_exact;
mod stats;
mod trace;
mod verify;

use std::process::ExitCode;

use harness::{Options, Run, END_TO_END, PER_LAYER, WORKLOADS};
use json::Json;

const USAGE: &str =
    "usage: messi-benchmark --workload <explore-ed|explore-dtw|serve-exact|ingest-query> \
--seed <u64> [--seconds <n>] [--trace <0|1>] [--quick]
       messi-benchmark --aa <runs-per-set> [--seconds <n>] [--quick]";

/// Spans written to the trace file at most (the summary covers all).
const MAX_TRACE_SPANS: usize = 20_000;

#[derive(Debug, PartialEq)]
enum Command {
    Run(Options),
    Aa {
        runs: usize,
        seconds: f64,
        quick: bool,
    },
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut quick = false;
    let mut aa = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?.to_string()),
            "--seed" => {
                let v = value()?;
                seed = Some(v.parse::<u64>().map_err(|_| format!("bad --seed `{v}`"))?);
            }
            "--seconds" => {
                let v = value()?;
                let s = v
                    .parse::<f64>()
                    .map_err(|_| format!("bad --seconds `{v}`"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {v} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            "--quick" => quick = true,
            "--aa" => {
                let v = value()?;
                let runs = v.parse::<usize>().map_err(|_| format!("bad --aa `{v}`"))?;
                if runs < 2 {
                    return Err("--aa needs at least 2 runs per set".into());
                }
                aa = Some(runs);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    // Quick mode smokes the harness: a second of measuring is plenty.
    let seconds = seconds.unwrap_or(if quick { 1.0 } else { 20.0 });
    if let Some(runs) = aa {
        return Ok(Command::Aa {
            runs,
            seconds,
            quick,
        });
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    Ok(Command::Run(Options {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        quick,
    }))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse_args(&args) {
        Ok(Command::Run(opts)) => run_workload(opts),
        Ok(Command::Aa {
            runs,
            seconds,
            quick,
        }) => aa::run(runs, seconds, quick),
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_workload(opts: Options) -> Result<(), String> {
    let w = env::nproc();
    if let Some(load) = env::load_average() {
        if load > 0.5 {
            eprintln!("warning: 1-minute load average is {load}; timings may be disturbed");
        }
    }
    let mut run = Run::new(opts, w);
    match run.opts.workload.as_str() {
        "explore-ed" => explore::run(&mut run, explore::Flavor::Ed),
        "explore-dtw" => explore::run(&mut run, explore::Flavor::Dtw),
        "serve-exact" => serve_exact::run(&mut run),
        "ingest-query" => ingest_query::run(&mut run),
        other => Err(format!("unknown workload `{other}`")),
    }?;
    run.finish_spans();
    if !run.opts.trace {
        run.put(
            "peak_rss_mb",
            env::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?,
        );
    }
    report(&run)
}

/// Prints the stamp and every metric, writes the trace file, prints the
/// result line last. Fails the run on any failed operation or missing
/// end-to-end metric.
fn report(run: &Run) -> Result<(), String> {
    let opts = &run.opts;
    let stamp = Json::obj(
        [
            ("workload", Json::str(&opts.workload)),
            ("seed", Json::Int(i128::from(opts.seed))),
            ("seconds", Json::Num(opts.seconds)),
            ("trace", Json::Bool(opts.trace)),
            ("quick", Json::Bool(opts.quick)),
            ("available_cores", Json::Int(env::nproc() as i128)),
            ("W", Json::Int(run.w as i128)),
            (
                "kernel",
                Json::str(if messi::series::distance::simd::simd_available() {
                    "simd"
                } else {
                    "scalar"
                }),
            ),
            ("series_len", Json::Int(gen::SERIES_LEN as i128)),
            ("git_rev", Json::str(env::git_rev())),
            ("wall_s", Json::Num(run.elapsed().as_secs_f64())),
            (
                "datagen_s",
                Json::Num(run.value("harness.datagen_s").unwrap_or(0.0)),
            ),
            (
                "oracle_s",
                Json::Num(run.value("harness.oracle_s").unwrap_or(0.0)),
            ),
        ]
        .into_iter()
        .chain(run.stamp.iter().map(|(k, v)| (*k, v.clone()))),
    );
    println!("stamp {}", stamp.render());

    let table: &[(&str, &str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for (name, unit) in table {
        let value = match run.value(name) {
            Some(v) => v,
            // A layer this workload never enters did no work.
            None if opts.trace => 0.0,
            None => return Err(format!("workload reported no `{name}`")),
        };
        println!("metric {name} {value} {unit}");
        metrics.push((
            *name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(*unit))]),
        ));
    }

    if opts.trace {
        let dir = env::out_dir();
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let path = dir.join(format!("{}.trace.json", opts.workload));
        let doc = Json::obj([
            ("stamp", stamp),
            ("trace", run.tracer.to_json(MAX_TRACE_SPANS)),
        ]);
        std::fs::write(&path, doc.render())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("trace {}", path.display());
    }

    let v = &run.verifier;
    for example in v.examples() {
        eprintln!("failed operation: {example}");
    }
    for (reason, n) in v.reasons() {
        eprintln!("failed operations: {n} × {reason}");
    }
    let result = Json::obj([
        ("correct", Json::Bool(v.failed() == 0)),
        ("attempted", Json::Int(i128::from(v.attempted().max(1)))),
        ("failed", Json::Int(i128::from(v.failed()))),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{}", result.render());
    if v.failed() > 0 {
        return Err(format!(
            "{} of {} operations failed",
            v.failed(),
            v.attempted()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let cmd = parse_args(&args(
            "--workload serve-exact --seed 42 --seconds 20 --trace 1",
        ));
        assert_eq!(
            cmd,
            Ok(Command::Run(Options {
                workload: "serve-exact".into(),
                seed: 42,
                seconds: 20.0,
                trace: true,
                quick: false,
            }))
        );
        let Ok(Command::Run(quick)) = parse_args(&args("--workload explore-ed --seed 1 --quick"))
        else {
            panic!("quick run parses")
        };
        assert!(quick.quick && !quick.trace && quick.seconds == 1.0);
        assert_eq!(
            parse_args(&args("--aa 5 --seconds 10")),
            Ok(Command::Aa {
                runs: 5,
                seconds: 10.0,
                quick: false
            })
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--workload explore-ed",
            "--seed 1",
            "--workload nope --seed 1",
            "--workload explore-ed --seed -3",
            "--workload explore-ed --seed 1 --trace 2",
            "--workload explore-ed --seed 1 --seconds 0",
            "--workload explore-ed --seed 1 --seconds",
            "--workload explore-ed --seed 1 --frobnicate",
            "--aa 1",
        ] {
            assert!(
                parse_args(&args(bad)).is_err(),
                "`{bad}` should be rejected"
            );
        }
    }
}
