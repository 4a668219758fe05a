//! `messi` — command-line interface to the index.
//!
//! `messi help` prints every command's synopsis. Those synopses are one
//! table, `COMMANDS`, which is also each command's flag list and its
//! dispatch: a flag a command's synopsis does not list is a usage error.
//!
//! Datasets live in the `.mds` container of `messi::series::io`; built
//! indexes persist in the `.msx` snapshot container of
//! `messi::index::persist` (`build --save` writes one, `--load` answers
//! from it once it proves to be the index the dataset gives). With
//! `--shards N` the collection is partitioned into N independently-built
//! index shards queried by scatter-gather with a shared cross-shard
//! best-so-far; `--save` then writes a snapshot *directory* (`shard-I.messi` files plus a
//! checksummed manifest) and `--load` of a directory restores it,
//! loading shards in parallel. Queries can come from a second file or be
//! generated on the fly. Searches are exact; per-query pruning
//! statistics are printed. Timing is the benchmark harness's job (README
//! "Benchmarks"), not this binary's.
//!
//! `serve` turns the pooled query executor into a long-running daemon
//! (see the README's Serving section); `load-smoke` is its counterpart
//! client. A query's fields — from `query`, `range` and `load-smoke`
//! flags, or from a `/query` body — follow one rule book,
//! [`messi::index::exec::QuerySpec::from_fields`].
//! The daemon serves from a live [`messi::DeltaIndex`]: `POST /ingest`
//! appends series behind an epoch seam without blocking queries, and
//! `--ingest-log` makes those appends durable (replayed over the
//! snapshot on restart). `messi ingest` streams a dataset file into a
//! running daemon; `messi compact` folds a delta log back into the
//! dataset (and optional snapshot) offline and truncates it.
//!
//! Exit codes: `0` success, `1` runtime failure (I/O, bad data, smoke
//! assertion), `2` usage error (unknown/contradictory/invalid flags).

use messi::index::serve::{self, SmokeConfig};
use messi::prelude::*;
use messi::series::io::{read_dataset, write_dataset};
use messi::{DeltaIndex, IndexServer, IngestOptions, ServeConfig};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{}", help());
        return ExitCode::from(2);
    };
    let result = run(command, rest);
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(msg)) => {
            eprintln!("usage error: {msg}\n\nRun `messi help` for the full usage.");
            ExitCode::from(2)
        }
        Err(CliError::Runtime(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(command: &str, rest: &[String]) -> Result<(), CliError> {
    // The daemon and its two clients write to sockets, which rely on
    // EPIPE; every other command writes only to stdout and files.
    if !matches!(command, "serve" | "ingest" | "load-smoke") {
        default_sigpipe();
    }
    if matches!(command, "help" | "--help" | "-h") {
        println!("{}", help());
        return Ok(());
    }
    let Some(&(_, synopsis, handler)) = COMMANDS.iter().find(|(name, ..)| *name == command) else {
        return Err(usage(format!("unknown command `{command}`")));
    };
    handler(&Opts::parse(command, synopsis, rest)?)
}

type Handler = fn(&Opts) -> Result<(), CliError>;

/// Every command: its name, its synopsis and its handler. The synopsis
/// is also the command's flag list: `--name <…>` takes a value, a bare
/// `--name` is a switch, and [`Opts::parse`] rejects any other flag.
const COMMANDS: &[(&str, &str, Handler)] = &[
    (
        "generate",
        "--kind <random|seismic|sald> --count <N> --out <file.mds>
                    [--len <points>] [--seed <u64>]",
        cmd_generate,
    ),
    (
        "build",
        "--data <file.mds> --save <file.msx|dir> [--shards <N>]
                    [--leaf-target <N|auto>]",
        cmd_build,
    ),
    (
        "info",
        "--data <file.mds> [--load <file.msx|dir>] [--shards <N>]
                    [--leaf-target <N|auto>]",
        cmd_info,
    ),
    (
        "query",
        "--data <file.mds> [--queries <file.mds>] [--num-queries <N>]
                    [--k <K>] [--dtw] [--seed <u64>] [--load <file.msx|dir>]
                    [--kernel <auto|simd|scalar>] [--shards <N>] [--leaf-target <N|auto>]",
        cmd_query,
    ),
    (
        "range",
        "--data <file.mds> --epsilon <dist> [--queries <file.mds>]
                    [--num-queries <N>] [--dtw] [--seed <u64>] [--load <file.msx|dir>]
                    [--shards <N>] [--leaf-target <N|auto>]",
        cmd_range,
    ),
    (
        "serve",
        "--data <file.mds> [--load <file.msx|dir>] [--addr <host:port>]
                    [--threads <N>] [--admission <N>] [--query-workers <N>] [--breakdown]
                    [--kernel <auto|simd|scalar>] [--shards <N>] [--leaf-target <N|auto>]
                    [--ingest-log <file.log>] [--republish-after <N>]",
        cmd_serve,
    ),
    (
        "ingest",
        "--addr <host:port> --data <file.mds> [--batch <N>]
                    [--wait-ready <seconds>]",
        cmd_ingest,
    ),
    (
        "compact",
        "--data <file.mds> --log <file.log> [--out <file.mds>]
                    [--load <file.msx|dir>] [--save <file.msx|dir>] [--shards <N>]
                    [--leaf-target <N|auto>]",
        cmd_compact,
    ),
    (
        "load-smoke",
        "--addr <host:port> --data <file.mds> [--clients <N>] [--per-client <M>]
                    [--num-queries <N>] [--objective <exact|knn|range|approx>] [--k <K>]
                    [--epsilon <dist|ratio>] [--delta <0..=1>] [--dtw] [--no-retry]
                    [--min-shed <N>] [--max-attempts <N>] [--wait-ready <seconds>] [--seed <u64>]",
        cmd_load_smoke,
    ),
];

/// `messi help`: the synopsis of every command in [`COMMANDS`], then the
/// notes.
fn help() -> String {
    let mut out =
        String::from("messi — in-memory data series indexing (MESSI, ICDE 2020)\n\nUSAGE:\n");
    for (name, synopsis, _) in COMMANDS {
        out += &format!("  messi {name:<11} {synopsis}\n");
    }
    out + NOTES
}

const NOTES: &str = "
Generated queries come from the same family as --kind (members + noise
for real-data stand-ins). Searches are exact except load-smoke's
`--objective approx`: there --epsilon is the *relative* error bound (the
answer is within (1+ε) of the true nearest neighbor) and --delta the
confidence in [0, 1] (1 = deterministic guarantee, 0 = home-leaf-only
ng-approximate). `query --k` runs k-NN (`--k 1` is the default 1-NN).
Latency and throughput are measured by the benchmark harness that
BENCHMARK.json names (README, Benchmarks), not by this binary.

`build --save` persists the finished index as a versioned, checksummed
snapshot; `--load` on the query commands answers from the snapshot once
the loader has rebuilt the index from the dataset and found it byte for
byte equal (the raw dataset is still required — snapshots store tree
structure, and a snapshot of other data is refused as a mismatch).

`--shards N` partitions the collection into N contiguous ranges, builds
one independent index per range in parallel, and answers every query by
scatter-gather: shards share one atomic best-so-far, so an answer found
in one shard prunes the others, and merged answers are identical to a
single index's. With `--shards`, `--save` writes a snapshot *directory*
(one shard-I.messi per shard plus a checksummed manifest.messi) instead
of a single file; `--load` of a directory restores the sharded index,
loading the shards in parallel (the shard count then comes from the
manifest, so combining --load with --shards is rejected).

`serve` answers queries over HTTP until SIGTERM/SIGINT, then drains:
POST /query (JSON body), POST /ingest (JSON batch of series), GET
/healthz (ready only after prewarm), GET /metrics (Prometheus text).
`--admission 0` is drain mode (every query sheds with 503 +
Retry-After). `load-smoke` floods a running daemon with concurrent
clients and reports ok/shed/error counts and p50/p99 latency; it exits
non-zero on any client/server error, or when fewer than --min-shed
sheds were observed.

Ingested series are absorbed behind an epoch seam: queries keep
answering from the published index plus a small overlay, and a
background republish folds the overlay into fresh index arenas after
--republish-after series (default 4096) or when the epoch outlives 5s.
With --ingest-log every accepted batch is appended to a framed,
checksummed, fsynced delta log *before* it becomes visible; restarting
with the same --ingest-log (and the matching --data/--load) replays
the log, so acknowledged series survive a crash. A torn tail (crash
mid-append) is detected, reported and dropped. `messi ingest` streams
the series of a .mds file into a running daemon in batches, retrying
shed (503) batches. `messi compact` folds a delta log into its base
collection offline: it replays the log, rewrites --data (or --out)
with the grown collection (tmp, fsync, atomic rename), optionally re-saves
the snapshot (--save), and truncates the log to a fresh header over
the new base.

`--leaf-target` sets the build-time leaf split threshold (the paper's
default is 2000); `auto` derives it from the dataset size (one leaf per
~512 series, clamped to [64, 2000]) so small collections still fan out.
Smaller leaves sharpen per-leaf pruning bounds; the derived leaf-run
metadata keeps SIMD utilization high by batching adjacent small leaves
into contiguous scans (`messi info` prints the run-length histogram,
`MESSI_NO_RUN_BATCH=1` disables the batching for ablations). Like
--shards, --leaf-target applies at build time only and does not combine
with --load.

`--kernel` forces the distance-kernel dispatch on query and serve:
`auto` (default) uses AVX2+FMA when the CPU has it, `simd` asks for it
explicitly, `scalar` (alias `sisd`, the paper's name) forces the
bit-identical scalar twins — the Fig. 18 SIMD-vs-SISD ablation as a
flag. Answers are identical either way; only the speed changes.

Contradictory flags are rejected with exit code 2: an option a command
does not know, or one whose objective does not apply (e.g. --epsilon
with --objective exact, --delta with knn, --k with range).";

/// Restores the default SIGPIPE action, which the Rust runtime sets to
/// ignore: a command piped into a reader that exits early (`messi help |
/// head -1`) then ends quietly instead of panicking in `println!`.
fn default_sigpipe() {
    #[cfg(unix)]
    {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGPIPE: i32 = 13;
        const SIG_DFL: usize = 0;
        // SAFETY: `SIG_DFL` is a valid disposition for SIGPIPE and
        // installs no handler code.
        unsafe {
            signal(SIGPIPE, SIG_DFL);
        }
    }
}

/// CLI failure, split by exit code: usage errors (bad/contradictory
/// flags) exit 2, runtime errors (I/O, bad data, failed assertions)
/// exit 1.
#[derive(Debug)]
enum CliError {
    Usage(String),
    Runtime(String),
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Runtime(msg)
    }
}

fn usage(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

/// Parsed `--key value` options (a switch's value is `true`).
struct Opts(Vec<(String, String)>);

impl Opts {
    /// Parses `args` against the flags `command`'s synopsis lists,
    /// rejecting any other flag — the alternative is a flag that
    /// silently does nothing.
    fn parse(command: &str, synopsis: &str, args: &[String]) -> Result<Self, CliError> {
        let tokens: Vec<&str> = synopsis.split_whitespace().collect();
        let flags: Vec<(&str, bool)> = tokens
            .iter()
            .enumerate()
            .filter_map(|(i, token)| {
                let name = token.trim_start_matches('[').strip_prefix("--")?;
                let takes_value = tokens.get(i + 1).is_some_and(|t| t.starts_with('<'));
                Some((name.trim_end_matches(']'), takes_value))
            })
            .collect();
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let Some(name) = key.strip_prefix("--") else {
                return Err(usage(format!("expected --option, got `{key}`")));
            };
            let Some(&(_, takes_value)) = flags.iter().find(|(flag, _)| *flag == name) else {
                let allowed: Vec<String> = flags.iter().map(|(f, _)| format!("--{f}")).collect();
                return Err(usage(format!(
                    "`messi {command}` does not accept --{name} (allowed: {})",
                    allowed.join(" ")
                )));
            };
            let value = if takes_value {
                it.next()
                    .ok_or_else(|| usage(format!("--{name} needs a value")))?
                    .clone()
            } else {
                "true".to_string()
            };
            out.push((name.to_string(), value));
        }
        Ok(Self(out))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn required(&self, name: &str) -> Result<&str, CliError> {
        self.get(name)
            .ok_or_else(|| usage(format!("missing --{name}")))
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, CliError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| usage(format!("invalid --{name}: `{v}`"))),
        }
    }

    /// `--name` as a number, the lookup [`QuerySpec::from_fields`] reads.
    fn number(&self, name: &str) -> Result<Option<f64>, String> {
        self.get(name)
            .map(|v| v.parse().map_err(|_| format!("invalid --{name}: `{v}`")))
            .transpose()
    }
}

/// The query `objective` the flags describe, checked by the wire's own
/// rule book: `--k`, `--epsilon` and `--delta` are its numeric fields,
/// `--dtw` selects the metric.
fn spec_from(opts: &Opts, objective: &str, series_len: usize) -> Result<QuerySpec, CliError> {
    let metric = if opts.get("dtw").is_some() {
        "dtw"
    } else {
        "ed"
    };
    QuerySpec::from_fields(objective, metric, &|name| opts.number(name), series_len).map_err(usage)
}

/// Parses `--kernel`, defaulting to auto-dispatch. Unknown spellings are
/// usage errors (exit 2), like any other contradictory flag.
fn kernel_from(opts: &Opts) -> Result<Kernel, CliError> {
    match opts.get("kernel") {
        None => Ok(Kernel::Auto),
        Some(v) => v.parse().map_err(usage),
    }
}

/// Refuses a collection holding NaN or ∞; `why` ends the message.
fn refuse_non_finite(data: &Dataset, why: &str) -> Result<(), CliError> {
    match data.find_non_finite() {
        Some((pos, idx)) => Err(CliError::Runtime(format!(
            "series {pos} has a non-finite value at point {idx}; {why}"
        ))),
        None => Ok(()),
    }
}

/// Honours `--wait-ready <seconds>` (0, the default, does not wait):
/// polls the daemon at `addr` until it reports ready. Returns whether
/// it waited.
fn wait_ready(opts: &Opts, addr: &str) -> Result<bool, CliError> {
    let secs: u64 = opts.parsed("wait-ready", 0u64)?;
    if secs > 0 && !serve::wait_ready(addr, std::time::Duration::from_secs(secs)) {
        return Err(CliError::Runtime(format!(
            "daemon at {addr} not ready within {secs}s"
        )));
    }
    Ok(secs > 0)
}

/// Saves `index` to `out`: as a snapshot directory when `--shards` was
/// given or `--load` read a directory — so a deployment's layout never
/// flips on its shard count, even at N = 1 — and as one `.msx` file
/// otherwise.
fn save_snapshot(opts: &Opts, index: &ShardedIndex, out: &Path) -> Result<(), CliError> {
    let t = std::time::Instant::now();
    let as_dir =
        opts.get("shards").is_some() || opts.get("load").is_some_and(|p| Path::new(p).is_dir());
    let saved = if as_dir {
        messi::index::shard::save_sharded(index, out)
    } else {
        messi::index::persist::save_index(index.shard(0), out)
    };
    saved.map_err(|e| format!("{}: {e}", out.display()))?;
    let bytes: u64 = match std::fs::read_dir(out) {
        Ok(entries) => entries
            .flatten()
            .filter_map(|e| e.metadata().ok())
            .map(|m| m.len())
            .sum(),
        Err(_) => std::fs::metadata(out).map_or(0, |m| m.len()),
    };
    println!(
        "snapshot: {:.1} MB written to {}{} in {:.2?}",
        bytes as f64 / (1 << 20) as f64,
        out.display(),
        if as_dir {
            format!("/ ({} shard files)", index.num_shards())
        } else {
            String::new()
        },
        t.elapsed()
    );
    Ok(())
}

fn kind_from(name: &str) -> Result<DatasetKind, CliError> {
    match name {
        "random" | "random-walk" => Ok(DatasetKind::RandomWalk),
        "seismic" => Ok(DatasetKind::Seismic),
        "sald" => Ok(DatasetKind::Sald),
        other => Err(usage(format!(
            "unknown kind `{other}` (random|seismic|sald)"
        ))),
    }
}

fn load(opts: &Opts) -> Result<Arc<Dataset>, CliError> {
    let path = PathBuf::from(opts.required("data")?);
    read_dataset(&path)
        .map(Arc::new)
        .map_err(|e| CliError::Runtime(format!("{}: {e}", path.display())))
}

fn cmd_generate(opts: &Opts) -> Result<(), CliError> {
    let kind = kind_from(opts.required("kind")?)?;
    let count: usize = opts
        .required("count")?
        .parse()
        .map_err(|_| usage("invalid --count"))?;
    let out = PathBuf::from(opts.required("out")?);
    let len: usize = opts.parsed("len", kind.paper_series_len())?;
    let seed: u64 = opts.parsed("seed", 42u64)?;
    let generator = kind.generator_with_len(seed, len);
    let t = std::time::Instant::now();
    let ds = messi::series::gen::generate_dataset(generator.as_ref(), count);
    write_dataset(&ds, &out).map_err(|e| format!("{}: {e}", out.display()))?;
    println!(
        "wrote {} series × {} points ({} MB) to {} in {:.2?}",
        ds.len(),
        ds.series_len(),
        ds.raw_bytes() / (1 << 20),
        out.display(),
        t.elapsed()
    );
    Ok(())
}

/// Parses and validates `--shards` (default 1 — a single index).
fn shards_from(opts: &Opts, data: &Arc<Dataset>) -> Result<usize, CliError> {
    let shards: usize = opts.parsed("shards", 1usize)?;
    if shards == 0 {
        return Err(usage("--shards must be positive"));
    }
    if shards > data.len() {
        return Err(usage(format!(
            "--shards {shards} exceeds the collection size ({} series)",
            data.len()
        )));
    }
    Ok(shards)
}

/// Parses `--leaf-target` (a split threshold, or `auto` to derive one
/// from the dataset size) into the build configuration. Absent, the
/// paper default (2000) applies.
fn index_config_from(opts: &Opts, data: &Arc<Dataset>) -> Result<IndexConfig, CliError> {
    let mut config = IndexConfig::default();
    match opts.get("leaf-target") {
        None => {}
        Some("auto") => config.leaf_capacity = messi::index::auto_leaf_capacity(data.len()),
        Some(v) => {
            config.leaf_capacity = v.parse().ok().filter(|&c: &usize| c > 0).ok_or_else(|| {
                usage(format!(
                    "invalid --leaf-target: `{v}` (expected a positive number or `auto`)"
                ))
            })?;
        }
    }
    Ok(config)
}

/// Builds the (possibly sharded) index or loads it from a `--load`
/// snapshot — a single `.msx` file becomes the one-shard case, a
/// snapshot directory restores the recorded partition. Build stats are
/// only available when the index was actually built.
fn obtain_index(
    opts: &Opts,
    data: &Arc<Dataset>,
) -> Result<(ShardedIndex, Option<BuildStats>), CliError> {
    if let Some(path) = opts.get("load") {
        if opts.get("shards").is_some() {
            return Err(usage(
                "--shards does not combine with --load \
                 (a snapshot's manifest fixes its shard count)",
            ));
        }
        if opts.get("leaf-target").is_some() {
            return Err(usage(
                "--leaf-target does not combine with --load \
                 (a snapshot fixes its tree shape at build time)",
            ));
        }
        let t = std::time::Instant::now();
        let path_buf = PathBuf::from(path);
        let index = if path_buf.is_dir() {
            messi::index::shard::load_sharded(&path_buf, Arc::clone(data))
                .map_err(|e| CliError::Runtime(format!("{path}: {e}")))?
        } else {
            ShardedIndex::from_single(
                messi::index::persist::load_index(&path_buf, Arc::clone(data))
                    .map_err(|e| CliError::Runtime(format!("{path}: {e}")))?,
            )
        };
        println!(
            "index loaded from {path} ({} shard{}) in {:.2?}",
            index.num_shards(),
            if index.num_shards() == 1 { "" } else { "s" },
            t.elapsed()
        );
        Ok((index, None))
    } else {
        let shards = shards_from(opts, data)?;
        let config = index_config_from(opts, data)?;
        let (index, stats) = ShardedIndex::build(Arc::clone(data), shards, &config);
        Ok((index, Some(stats)))
    }
}

fn cmd_build(opts: &Opts) -> Result<(), CliError> {
    let data = load(opts)?;
    let out = PathBuf::from(opts.required("save")?);
    refuse_non_finite(&data, "similarity search over NaN/∞ is undefined")?;
    let shards = shards_from(opts, &data)?;
    let config = index_config_from(opts, &data)?;
    let (index, stats) = ShardedIndex::build(Arc::clone(&data), shards, &config);
    println!(
        "index: {} series built in {:.2?} across {} shard{} (summaries {:.2?} + tree {:.2?})",
        stats.num_series,
        stats.total_time,
        shards,
        if shards == 1 { "" } else { "s" },
        stats.summarize_time,
        stats.tree_time
    );
    save_snapshot(opts, &index, &out)
}

fn cmd_info(opts: &Opts) -> Result<(), CliError> {
    let data = load(opts)?;
    println!(
        "dataset: {} series × {} points, {} MB raw",
        data.len(),
        data.series_len(),
        data.raw_bytes() / (1 << 20)
    );
    refuse_non_finite(&data, "similarity search over NaN/∞ is undefined")?;
    let (index, stats) = obtain_index(opts, &data)?;
    if let Some(stats) = stats {
        println!(
            "index:   built in {:.2?} (summaries {:.2?} + tree {:.2?})",
            stats.total_time, stats.summarize_time, stats.tree_time
        );
    }
    let root_subtrees: usize = index.shards().iter().map(|s| s.touched_keys().len()).sum();
    println!(
        "shape:   {} shard{}, {} leaves across {} root subtrees, height ≤ {}",
        index.num_shards(),
        if index.num_shards() == 1 { "" } else { "s" },
        index.num_leaves(),
        root_subtrees,
        index.max_height()
    );
    if index.num_shards() > 1 {
        for (i, shard) in index.shards().iter().enumerate() {
            println!(
                "         shard {i}: positions {}..{} ({} series, {} leaves)",
                index.shard_offset(i),
                index.shard_offset(i) + shard.num_series() as u64,
                shard.num_series(),
                shard.num_leaves()
            );
        }
    }
    println!(
        "         leaf fill factor {:.1}% (capacity {}), {} entries",
        100.0 * index.leaf_fill_factor(),
        index.shard(0).config().leaf_capacity,
        index.num_entries()
    );
    let shapes: Vec<(usize, usize)> = index.shards().iter().flat_map(|s| s.run_shapes()).collect();
    let runs = shapes.len().max(1);
    let (run_leaves, run_entries) = shapes
        .iter()
        .fold((0usize, 0usize), |(l, e), s| (l + s.0, e + s.1));
    let mut hist = [0usize; 4];
    for s in &shapes {
        hist[match s.0 {
            0..=1 => 0,
            2..=4 => 1,
            5..=8 => 2,
            _ => 3,
        }] += 1;
    }
    println!(
        "         leaf runs {runs} ({:.2} leaves/run, {:.1} entries/run); \
         leaves-per-run histogram: 1:{} 2-4:{} 5-8:{} 9+:{}",
        run_leaves as f64 / runs as f64,
        run_entries as f64 / runs as f64,
        hist[0],
        hist[1],
        hist[2],
        hist[3],
    );
    let mb = |bytes: usize| bytes as f64 / (1 << 20) as f64;
    println!(
        "storage: nodes {:.2} MB + positions {:.2} MB + symbol columns {:.2} MB",
        mb(index.node_storage_bytes()),
        mb(index.entry_storage_bytes()),
        mb(index.num_entries() * messi::sax::MAX_SEGMENTS)
    );
    Ok(())
}

fn queries_for_cli(opts: &Opts, data: &Arc<Dataset>) -> Result<Dataset, CliError> {
    if let Some(qpath) = opts.get("queries") {
        let qs = read_dataset(&PathBuf::from(qpath))
            .map_err(|e| CliError::Runtime(format!("{qpath}: {e}")))?;
        if qs.series_len() != data.series_len() {
            return Err(CliError::Runtime(format!(
                "query length {} ≠ dataset length {}",
                qs.series_len(),
                data.series_len()
            )));
        }
        return Ok(qs);
    }
    let n: usize = opts.parsed("num-queries", 10usize)?;
    if n == 0 {
        return Err(usage("--num-queries must be positive"));
    }
    let seed: u64 = opts.parsed("seed", 42u64)?;
    Ok(messi::series::gen::queries::noisy_queries_from_dataset(
        data, n, 0.1, seed,
    ))
}

fn cmd_query(opts: &Opts) -> Result<(), CliError> {
    let data = load(opts)?;
    let queries = queries_for_cli(opts, &data)?;
    let objective = if opts.get("k").is_some() {
        "knn"
    } else {
        "exact"
    };
    let mut spec = spec_from(opts, objective, data.series_len())?;
    // `--k 1` keeps running the exact 1-NN search, as it always has.
    if spec.objective == (Objective::Knn { k: 1 }) {
        spec.objective = Objective::Exact;
    }
    let (index, build) = obtain_index(opts, &data)?;
    if let Some(build) = &build {
        println!("index built in {:.2?}", build.total_time);
    }
    println!("answering {} queries…", queries.len());
    let config = QueryConfig {
        kernel: kernel_from(opts)?,
        ..QueryConfig::default()
    };
    let exec = index.executor();
    let tag = if opts.get("dtw").is_some() {
        "dtw "
    } else {
        ""
    };
    for (qi, q) in queries.iter().enumerate() {
        let (answers, stats) = exec.run_one(q, &spec, &config);
        if let Objective::Knn { k } = spec.objective {
            let list: Vec<String> = answers
                .iter()
                .map(|a| format!("#{}@{:.3}", a.pos, a.distance()))
                .collect();
            println!(
                "query {qi}: {tag}top-{k} [{}] in {:.2?}",
                list.join(", "),
                stats.total_time
            );
        } else {
            let ans = &answers[0];
            println!(
                "query {qi}: {tag}nn=series#{} dist={:.4} in {:.2?} ({} real distances, {:.2}% pruned)",
                ans.pos,
                ans.distance(),
                stats.total_time,
                stats.real_distance_calcs,
                100.0 * (1.0 - stats.real_distance_calcs as f64 / data.len() as f64)
            );
        }
    }
    Ok(())
}

fn cmd_range(opts: &Opts) -> Result<(), CliError> {
    let data = load(opts)?;
    let spec = spec_from(opts, "range", data.series_len())?;
    let queries = queries_for_cli(opts, &data)?;
    let (index, _) = obtain_index(opts, &data)?;
    let config = QueryConfig::default();
    let epsilon = opts.number("epsilon")?.unwrap_or_default() as f32;
    let exec = index.executor();
    for (qi, q) in queries.iter().enumerate() {
        let (matches, stats) = exec.run_one(q, &spec, &config);
        let preview: Vec<String> = matches
            .iter()
            .take(8)
            .map(|a| format!("#{}@{:.3}", a.pos, a.distance()))
            .collect();
        println!(
            "query {qi}: {} series within {}ε={epsilon} in {:.2?} [{}{}]",
            matches.len(),
            if opts.get("dtw").is_some() {
                "DTW "
            } else {
                ""
            },
            stats.total_time,
            preview.join(", "),
            if matches.len() > 8 { ", …" } else { "" }
        );
    }
    Ok(())
}

fn cmd_serve(opts: &Opts) -> Result<(), CliError> {
    let addr = opts.get("addr").unwrap_or("127.0.0.1:7700").to_string();
    let defaults = ServeConfig::default();
    let config = ServeConfig {
        threads: opts.parsed("threads", defaults.threads)?,
        admission: opts.parsed("admission", defaults.admission)?,
        query_workers: opts.parsed("query-workers", defaults.query_workers)?,
        collect_breakdown: opts.get("breakdown").is_some(),
        kernel: kernel_from(opts)?,
    };
    if config.threads == 0 {
        return Err(usage("--threads must be positive"));
    }
    if config.query_workers == 0 {
        return Err(usage("--query-workers must be positive"));
    }

    // Install the SIGTERM/SIGINT handler before any long-running work so
    // an early signal still drains cleanly.
    let shutdown = serve::shutdown_flag();

    let data = load(opts)?;
    refuse_non_finite(&data, "refusing to serve")?;
    let (index, build) = obtain_index(opts, &data)?;
    if let Some(build) = build {
        println!(
            "index: {} series built in {:.2?}",
            data.len(),
            build.total_time
        );
    }
    let num_shards = index.num_shards();
    let live = live_index_from(opts, index)?;
    let server = IndexServer::bind(addr.as_str(), config.clone())
        .map_err(|e| CliError::Runtime(format!("bind {addr}: {e}")))?;
    let bound = server
        .local_addr()
        .map_err(|e| CliError::Runtime(format!("local_addr: {e}")))?;
    println!(
        "serve: listening on {bound} (threads={} admission={} query-workers={} shards={} series={}{})",
        config.threads,
        config.admission,
        config.query_workers,
        num_shards,
        live.num_series(),
        if config.admission == 0 {
            ", DRAIN MODE"
        } else {
            ""
        },
    );
    // The boot and stats lines must reach a supervising harness promptly
    // even when stdout is a pipe (block-buffered).
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    let summary = server
        .serve(&live, shutdown)
        .map_err(|e| CliError::Runtime(format!("serve: {e}")))?;
    println!(
        "serve: drained cleanly — served={} shed={} failures={} \
         lb_calcs={} node_lb_calcs={} arenas_descended={} real_calcs={} query_seconds={:.3}",
        summary.served,
        summary.shed,
        summary.failures,
        summary.aggregate.lb_distance_calcs,
        summary.aggregate.node_lb_calcs,
        summary.aggregate.arenas_descended,
        summary.aggregate.real_distance_calcs,
        summary.aggregate.total_time.as_secs_f64(),
    );
    let _ = std::io::stdout().flush();
    Ok(())
}

/// Wraps the built/loaded index as the daemon's live [`DeltaIndex`],
/// attaching (and replaying) the `--ingest-log` when one is given.
fn live_index_from(opts: &Opts, index: ShardedIndex) -> Result<DeltaIndex, CliError> {
    let defaults = IngestOptions::default();
    let options = IngestOptions {
        republish_after: opts.parsed("republish-after", defaults.republish_after)?,
        ..defaults
    };
    match opts.get("ingest-log") {
        None => Ok(DeltaIndex::new(index, options)),
        Some(path) => {
            let t = std::time::Instant::now();
            let (live, report) = DeltaIndex::with_log(index, options, std::path::Path::new(path))
                .map_err(|e| CliError::Runtime(format!("{path}: {e}")))?;
            println!(
                "ingest-log: {path} replayed {} batches / {} series in {:.2?}{}",
                report.batches,
                report.series,
                t.elapsed(),
                if report.torn {
                    format!(" (torn tail: dropped {} bytes)", report.dropped_bytes)
                } else {
                    String::new()
                }
            );
            Ok(live)
        }
    }
}

/// One `/ingest` request body: `{"series":[[…],[…]]}` for the half-open
/// series range `start..end`. `{:?}` prints the shortest decimal that
/// round-trips the f32, so the daemon reconstructs the bytes exactly.
/// One series as a row of an `/ingest` body.
fn ingest_row(series: &[f32]) -> String {
    let vals: Vec<String> = series.iter().map(|x| format!("{x:?}")).collect();
    format!("[{}]", vals.join(","))
}

fn ingest_body(data: &Dataset, batch: Range<usize>) -> Vec<u8> {
    let rows: Vec<String> = batch.map(|pos| ingest_row(data.series(pos))).collect();
    format!("{{\"series\":[{}]}}", rows.join(",")).into_bytes()
}

/// Length of the `/ingest` body holding rows of these lengths.
fn ingest_body_len(row_lens: &[usize]) -> usize {
    r#"{"series":[]}"#.len() + row_lens.iter().sum::<usize>() + row_lens.len().saturating_sub(1)
}

/// Splits `batch` into consecutive sub-batches whose `/ingest` bodies fit
/// in `cap` bytes, halving any that does not; `row_lens[i]` is the length
/// of series `i`'s row. A single series is never split: the caller
/// refuses one whose body alone is over the cap.
fn fit_body_cap(row_lens: &[usize], batch: Range<usize>, cap: usize, out: &mut Vec<Range<usize>>) {
    if batch.len() <= 1 || ingest_body_len(&row_lens[batch.clone()]) <= cap {
        out.push(batch);
        return;
    }
    let mid = batch.start + batch.len() / 2;
    fit_body_cap(row_lens, batch.start..mid, cap, out);
    fit_body_cap(row_lens, mid..batch.end, cap, out);
}

fn cmd_ingest(opts: &Opts) -> Result<(), CliError> {
    let addr = opts.required("addr")?.to_string();
    let data = load(opts)?;
    refuse_non_finite(&data, "refusing to ingest")?;
    let batch: usize = opts.parsed("batch", 64usize)?;
    if batch == 0 {
        return Err(usage("--batch must be positive"));
    }
    // The daemon refuses a body over its cap with a 413: split a batch
    // that would pass it, and refuse a series that alone does.
    let cap = serve::http::MAX_BODY_BYTES;
    let row_lens: Vec<usize> = data.iter().map(|s| ingest_row(s).len()).collect();
    if let Some(pos) = row_lens
        .iter()
        .position(|&len| ingest_body_len(&[len]) > cap)
    {
        return Err(usage(format!(
            "series {pos} alone makes an /ingest body of {} bytes, over the daemon's \
             {cap}-byte cap",
            ingest_body_len(&row_lens[pos..=pos])
        )));
    }
    let mut requests = Vec::new();
    for start in (0..data.len()).step_by(batch) {
        fit_body_cap(
            &row_lens,
            start..(start + batch).min(data.len()),
            cap,
            &mut requests,
        );
    }
    wait_ready(opts, &addr)?;

    let connect =
        || serve::Client::connect(&addr).map_err(|e| CliError::Runtime(format!("{addr}: {e}")));
    let mut client = connect()?;
    let t = std::time::Instant::now();
    let mut last_body = Vec::new();
    for request in &requests {
        let start = request.start;
        let body = ingest_body(&data, request.clone());
        let mut attempts = 0u32;
        loop {
            let resp = client
                .request("POST", "/ingest", &body)
                .map_err(|e| CliError::Runtime(format!("{addr}: {e}")))?;
            let reconnect = resp.close;
            match resp.status {
                200 => {
                    last_body = resp.body;
                    if reconnect {
                        client = connect()?;
                    }
                    break;
                }
                503 => {
                    // Not-ready / saturated: honour the Retry-After hint
                    // (scaled down like load-smoke's backoff) and retry.
                    attempts += 1;
                    if attempts > 50 {
                        return Err(CliError::Runtime(format!(
                            "batch at series {start} still shed after {attempts} attempts"
                        )));
                    }
                    let ms = resp
                        .retry_after
                        .map(|s| (s.max(1) * 20).min(250))
                        .unwrap_or(20);
                    if reconnect {
                        client = connect()?;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(ms));
                }
                other => {
                    return Err(CliError::Runtime(format!(
                        "/ingest returned {other} for the batch at series {start}: {}",
                        String::from_utf8_lossy(&resp.body)
                    )));
                }
            }
        }
    }

    // The final report carries the daemon's running totals.
    let report = std::str::from_utf8(&last_body)
        .ok()
        .and_then(|s| serve::json::Json::parse(s).ok());
    let field = |name: &str| {
        report
            .as_ref()
            .and_then(|doc| doc.get(name))
            .and_then(serve::json::Json::as_f64)
    };
    println!(
        "ingest: {} series in {} batches to {addr} in {:.2?} (daemon now at {} series, epoch {})",
        data.len(),
        requests.len(),
        t.elapsed(),
        field("total_series").map_or("?".into(), |v| format!("{v}")),
        field("epoch").map_or("?".into(), |v| format!("{v}")),
    );
    Ok(())
}

fn cmd_compact(opts: &Opts) -> Result<(), CliError> {
    let data_path = PathBuf::from(opts.required("data")?);
    let log_path = PathBuf::from(opts.required("log")?);
    let data = load(opts)?;
    let base_len = data.len();
    let (index, _) = obtain_index(opts, &data)?;
    let (live, report) = DeltaIndex::with_log(index, IngestOptions::default(), &log_path)
        .map_err(|e| CliError::Runtime(format!("{}: {e}", log_path.display())))?;
    println!(
        "compact: replayed {} batches / {} series from {}{}",
        report.batches,
        report.series,
        log_path.display(),
        if report.torn {
            format!(" (torn tail: dropped {} bytes)", report.dropped_bytes)
        } else {
            String::new()
        }
    );
    live.republish()
        .map_err(|e| CliError::Runtime(format!("republish: {e}")))?;

    // Persist the grown collection durably *before* truncating the log:
    // a crash in between leaves a stale log header that fails loudly on
    // the next open (fingerprint mismatch) instead of silently losing
    // series.
    let out = opts.get("out").map(PathBuf::from).unwrap_or(data_path);
    let index = live.index();
    write_dataset(index.dataset(), &out).map_err(|e| format!("{}: {e}", out.display()))?;
    println!(
        "compact: {} series ({} from the log) written to {}",
        index.dataset().len(),
        index.dataset().len() - base_len,
        out.display()
    );

    // The re-saved snapshot keeps the layout it was loaded from.
    if let Some(save) = opts.get("save") {
        save_snapshot(opts, &index, Path::new(save))?;
    }

    let new_base = live
        .checkpoint_log()
        .map_err(|e| CliError::Runtime(format!("truncate {}: {e}", log_path.display())))?;
    println!(
        "compact: {} truncated to a fresh header over {} series",
        log_path.display(),
        new_base
    );
    Ok(())
}

fn cmd_load_smoke(opts: &Opts) -> Result<(), CliError> {
    let addr = opts.required("addr")?.to_string();
    let data = load(opts)?;
    let n: usize = opts.parsed("num-queries", 10usize)?;
    if n == 0 {
        return Err(usage("--num-queries must be positive"));
    }
    let seed: u64 = opts.parsed("seed", 42u64)?;
    let name = opts.get("objective").unwrap_or("exact");
    spec_from(opts, name, data.series_len())?;

    // Build the JSON query bodies the daemon's /query endpoint expects:
    // the checked flags, as typed (the rules let only finite numbers
    // through, which print as JSON numbers).
    let mut fields = vec![format!("\"objective\":\"{name}\"")];
    for field in ["k", "epsilon", "delta"] {
        if let Some(v) = opts.number(field)? {
            fields.push(format!("\"{field}\":{v}"));
        }
    }
    if opts.get("dtw").is_some() {
        fields.push("\"metric\":\"dtw\"".to_string());
    }
    let queries = messi::series::gen::queries::noisy_queries_from_dataset(&data, n, 0.1, seed);
    let bodies: Vec<Vec<u8>> = queries
        .iter()
        .map(|q| {
            let series: Vec<String> = q.iter().map(|x| format!("{x}")).collect();
            format!("{{{},\"series\":[{}]}}", fields.join(","), series.join(",")).into_bytes()
        })
        .collect();

    let smoke = SmokeConfig {
        clients: opts.parsed("clients", 4usize)?,
        per_client: opts.parsed("per-client", 25usize)?,
        retry: opts.get("no-retry").is_none(),
        max_attempts: opts.parsed("max-attempts", 50usize)?,
    };
    if smoke.clients == 0 || smoke.per_client == 0 {
        return Err(usage("--clients and --per-client must be positive"));
    }
    let min_shed: u64 = opts.parsed("min-shed", 0u64)?;
    if wait_ready(opts, &addr)? {
        println!("load-smoke: {addr} ready");
    }

    println!(
        "load-smoke: {} clients × {} queries ({} bodies, objective={name}{}) against {addr}",
        smoke.clients,
        smoke.per_client,
        bodies.len(),
        if opts.get("dtw").is_some() {
            ", dtw"
        } else {
            ""
        },
    );
    let report = serve::run_load_smoke(&addr, &bodies, &smoke);
    println!("{}", report.render());

    // The smoke contract: every query accounted for, no errors, and (when
    // demanded) proof that the admission gate actually shed load.
    let expected = (smoke.clients * smoke.per_client) as u64;
    if report.client_errors > 0 || report.server_errors > 0 {
        return Err(CliError::Runtime(format!(
            "{} client errors, {} server errors (expected none)",
            report.client_errors, report.server_errors
        )));
    }
    if report.shed < min_shed {
        return Err(CliError::Runtime(format!(
            "observed {} sheds, required at least {min_shed}",
            report.shed
        )));
    }
    let landed_or_shed = if smoke.retry {
        report.ok
    } else {
        report.ok + report.shed
    };
    if landed_or_shed < expected {
        return Err(CliError::Runtime(format!(
            "only {landed_or_shed} of {expected} queries accounted for \
             ({} transport errors)",
            report.transport_errors
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn split(row_lens: &[usize], batch: usize, cap: usize) -> Vec<Range<usize>> {
        let mut out = Vec::new();
        for start in (0..row_lens.len()).step_by(batch) {
            fit_body_cap(
                row_lens,
                start..(start + batch).min(row_lens.len()),
                cap,
                &mut out,
            );
        }
        out
    }

    #[test]
    fn oversized_ingest_batches_are_halved_until_every_body_fits() {
        let data = messi::series::gen::generate(DatasetKind::RandomWalk, 37, 5);
        let row_lens: Vec<usize> = data.iter().map(|s| ingest_row(s).len()).collect();
        for (i, &len) in row_lens.iter().enumerate() {
            assert_eq!(ingest_body_len(&[len]), ingest_body(&data, i..i + 1).len());
        }
        let whole = ingest_body(&data, 0..37).len();
        assert_eq!(ingest_body_len(&row_lens), whole);

        // Under the cap: the batches go as given.
        assert_eq!(split(&row_lens, 16, whole), vec![0..16, 16..32, 32..37]);
        // Over it: every body fits, in order, covering every series.
        let cap = ingest_body(&data, 0..12).len();
        let parts = split(&row_lens, 37, cap);
        assert_eq!(parts.first().map(|r| r.start), Some(0));
        assert!(
            parts.windows(2).all(|w| w[0].end == w[1].start),
            "{parts:?}"
        );
        assert_eq!(parts.last().map(|r| r.end), Some(37));
        for part in &parts {
            assert!(ingest_body(&data, part.clone()).len() <= cap, "{part:?}");
        }

        // Rows of 10 bytes: n rows make a 12 + 11n byte body. At a cap
        // of 3 rows, 8 rows halve twice; a batch of 5 halves once, and
        // its 2..5 half fits as it is.
        let even = [10; 8];
        assert_eq!(split(&even, 8, 45), vec![0..2, 2..4, 4..6, 6..8]);
        assert_eq!(split(&even, 5, 45), vec![0..2, 2..5, 5..8]);
        // A series over the cap on its own is kept whole, for the caller
        // to refuse.
        assert_eq!(split(&even[..1], 1, 20), vec![0..1]);
    }
}
