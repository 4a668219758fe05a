//! The `messi` binary's contract, driven as a process: every flag a
//! command's synopsis lists parses and no other does, the query rules
//! refuse bad values with exit code 2 before any connection, snapshots
//! keep their layout through `compact`, and a reader that closes the
//! pipe early does not make the binary panic.

use messi::prelude::*;
use messi::series::io::{read_dataset, write_dataset};
use messi::{DeltaIndex, IngestOptions};
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::sync::Arc;

fn messi(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_messi"))
        .args(args)
        .output()
        .expect("run messi")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn scratch_path(tag: &str) -> PathBuf {
    static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let p = std::env::temp_dir().join(format!("messi-cli-{}-{n}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    let _ = std::fs::remove_file(&p);
    p
}

/// A random-walk dataset of `count` series written to a scratch file.
fn dataset_file(tag: &str, count: usize, seed: u64) -> (PathBuf, Dataset) {
    let data = messi::series::gen::generate(DatasetKind::RandomWalk, count, seed);
    let path = scratch_path(tag);
    write_dataset(&data, &path).expect("write dataset");
    (path, data)
}

fn arg(path: &Path) -> &str {
    path.to_str().expect("utf-8 scratch path")
}

/// `(command, [(flag, takes a value)])` as `messi help` prints them.
fn synopses() -> Vec<(String, Vec<(String, bool)>)> {
    let out = messi(&["help"]);
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).expect("utf-8 help");
    let mut commands: Vec<(String, Vec<String>)> = Vec::new();
    for line in text.lines().skip_while(|l| *l != "USAGE:").skip(1) {
        if line.trim().is_empty() {
            break;
        }
        let mut words = line.split_whitespace();
        if line.starts_with("  messi ") {
            words.next();
            commands.push((words.next().unwrap().to_string(), Vec::new()));
        }
        let tokens = &mut commands.last_mut().expect("a command line first").1;
        tokens.extend(words.map(str::to_string));
    }
    commands
        .into_iter()
        .map(|(name, tokens)| {
            let flags = tokens
                .iter()
                .enumerate()
                .filter_map(|(i, t)| {
                    let flag = t.trim_start_matches('[').strip_prefix("--")?;
                    let takes_value = tokens.get(i + 1).is_some_and(|n| n.starts_with('<'));
                    Some((flag.trim_end_matches(']').to_string(), takes_value))
                })
                .collect();
            (name, flags)
        })
        .collect()
}

#[test]
fn every_synopsis_flag_parses_and_an_unlisted_flag_exits_2() {
    let commands = synopses();
    let names: Vec<&str> = commands.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(
        names,
        [
            "generate",
            "build",
            "info",
            "query",
            "range",
            "serve",
            "ingest",
            "compact",
            "load-smoke"
        ]
    );
    let missing = scratch_path("missing.mds");
    for (command, flags) in &commands {
        assert!(!flags.is_empty(), "{command} lists no flags");
        for (flag, takes_value) in flags {
            // One flag alone: every command then stops at a missing
            // required flag or an unreadable file, never at the parser.
            let value = if flag == "data" { arg(&missing) } else { "1" };
            let mut args = vec![command.as_str()];
            let flag_arg = format!("--{flag}");
            args.push(&flag_arg);
            if *takes_value {
                args.push(value);
            }
            let out = messi(&args);
            let err = stderr(&out);
            assert!(
                !err.contains("does not accept") && !err.contains("needs a value"),
                "messi {args:?}: {err}"
            );
            assert!(
                matches!(out.status.code(), Some(1 | 2)),
                "{args:?}: {out:?}"
            );
        }
        let out = messi(&[command, "--not-a-flag", "1"]);
        assert_eq!(out.status.code(), Some(2), "{command}: {out:?}");
        assert!(
            stderr(&out).contains(&format!("`messi {command}` does not accept --not-a-flag")),
            "{}",
            stderr(&out)
        );
    }
    // `range` reads a query file like `query` does.
    let range = &commands.iter().find(|(n, _)| n == "range").unwrap().1;
    assert!(range.contains(&("queries".to_string(), true)));
}

#[test]
fn query_rules_refuse_bad_values_with_exit_2_before_connecting() {
    let (path, _) = dataset_file("rules.mds", 300, 3);
    let data = arg(&path);
    // Port 9 (discard) has no listener: a run that got as far as
    // connecting would fail with exit code 1, not 2.
    let smoke = ["load-smoke", "--addr", "127.0.0.1:9", "--data", data];
    for (extra, needle) in [
        (
            &["--epsilon", "0.1"][..],
            "is not valid for objective `exact`",
        ),
        (
            &["--objective", "range", "--epsilon", "inf"],
            "non-negative distance",
        ),
        (
            &["--objective", "knn", "--k", "5000000000"],
            "positive integer",
        ),
        (&["--objective", "range"], "needs `epsilon`"),
        (&["--objective", "approx", "--delta", "2"], "within [0, 1]"),
        (&["--objective", "fuzzy"], "unknown objective"),
        (&["--objective", "knn", "--k", "x"], "invalid --k"),
    ] {
        let out = messi(&[&smoke[..], extra].concat());
        assert_eq!(out.status.code(), Some(2), "{extra:?}: {out:?}");
        assert!(stderr(&out).contains(needle), "{extra:?}: {}", stderr(&out));
    }
    for k in ["0", "5000000000", "2.5"] {
        let out = messi(&["query", "--data", data, "--num-queries", "1", "--k", k]);
        assert_eq!(out.status.code(), Some(2), "--k {k}: {out:?}");
    }
    let out = messi(&["range", "--data", data, "--epsilon", "inf"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    std::fs::remove_file(&path).expect("cleanup");
}

#[test]
fn range_answers_queries_from_a_file() {
    let (data, _) = dataset_file("range.mds", 300, 5);
    let (queries, _) = dataset_file("range-q.mds", 2, 6);
    let out = messi(&[
        "range",
        "--data",
        arg(&data),
        "--queries",
        arg(&queries),
        "--epsilon",
        "30",
    ]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("query 1: "), "{stdout}");
    for p in [&data, &queries] {
        std::fs::remove_file(p).expect("cleanup");
    }
}

#[test]
fn compact_keeps_a_one_shard_directory_snapshot_a_directory() {
    let (data_path, base) = dataset_file("compact.mds", 400, 7);
    let d1 = scratch_path("d1");
    let d2 = scratch_path("d2");
    let log = scratch_path("compact.log");
    let out = messi(&[
        "build",
        "--data",
        arg(&data_path),
        "--shards",
        "1",
        "--save",
        arg(&d1),
    ]);
    assert!(out.status.success(), "{out:?}");
    assert!(d1.is_dir(), "--shards 1 saves a directory");
    {
        let base = Arc::new(base);
        let index = messi::index::shard::load_sharded(&d1, base).expect("d1 loads");
        let (live, _) =
            DeltaIndex::with_log(index, IngestOptions::default(), &log).expect("fresh log");
        let extra = messi::series::gen::generate(DatasetKind::RandomWalk, 32, 8);
        live.insert_batch(&extra).expect("ingest");
    }
    let out = messi(&[
        "compact",
        "--data",
        arg(&data_path),
        "--log",
        arg(&log),
        "--load",
        arg(&d1),
        "--save",
        arg(&d2),
    ]);
    assert!(out.status.success(), "{out:?}");
    assert!(
        d2.join("manifest.messi").is_file(),
        "compact kept the layout"
    );
    let grown = Arc::new(read_dataset(&data_path).expect("compacted data"));
    assert_eq!(grown.len(), 432);
    let index = messi::index::shard::load_sharded(&d2, grown).expect("d2 loads");
    assert_eq!(index.num_shards(), 1);
    for p in [&d1, &d2] {
        std::fs::remove_dir_all(p).expect("cleanup snapshot");
    }
    for p in [&data_path, &log] {
        std::fs::remove_file(p).expect("cleanup file");
    }
}

#[test]
fn a_reader_closing_the_pipe_early_is_not_a_panic() {
    let (data, _) = dataset_file("pipe.mds", 2_000, 9);
    // Five top-2000 lines are over 64 KiB, more than a pipe holds, so
    // the binary is still writing when the reader goes away.
    for args in [
        &[
            "query",
            "--data",
            arg(&data),
            "--num-queries",
            "5",
            "--k",
            "2000",
        ][..],
        &["help"],
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_messi"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn messi");
        let mut stdout = child.stdout.take().expect("piped stdout");
        let mut first = [0u8; 16];
        stdout.read_exact(&mut first).expect("some output");
        drop(stdout);
        let out = child.wait_with_output().expect("wait messi");
        assert_ne!(out.status.code(), Some(101), "{args:?}: {}", stderr(&out));
        assert!(!stderr(&out).contains("panicked"), "{}", stderr(&out));
    }
    std::fs::remove_file(&data).expect("cleanup");
}

#[test]
fn info_reports_node_position_and_column_bytes() {
    let (path, data) = dataset_file("info.mds", 8_000, 5);
    let out = messi(&["info", "--data", arg(&path)]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = String::from_utf8(out.stdout).expect("utf-8 info");
    let line = text
        .lines()
        .find(|l| l.starts_with("storage: "))
        .expect("a storage line");
    let figures: Vec<&str> = line
        .split(" MB")
        .filter_map(|part| part.rsplit(' ').next())
        .filter(|f| !f.is_empty())
        .collect();
    let mb = |bytes: usize| format!("{:.2}", bytes as f64 / (1 << 20) as f64);
    let n = data.len();
    assert_eq!(
        line,
        format!(
            "storage: nodes {} MB + positions {} MB + symbol columns {} MB",
            figures[0],
            mb(4 * n),
            mb(messi::sax::MAX_SEGMENTS * n)
        )
    );
    assert!(figures[0].parse::<f64>().expect("node MB") > 0.0, "{line}");
    std::fs::remove_file(&path).expect("cleanup");
}
