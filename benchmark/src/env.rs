//! Facts about the machine and the process, and the per-run scratch
//! directory.

use std::path::{Path, PathBuf};

/// Cores the process may use; every worker, thread and connection count
/// of the harness is pinned to this.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One-minute load average, when `/proc/loadavg` exists.
pub fn load_average() -> Option<f64> {
    std::fs::read_to_string("/proc/loadavg")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Peak resident set (`VmHWM`) of this process in megabytes.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kb(&status).map(|kb| kb as f64 / 1024.0)
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// `git rev-parse HEAD`, or `unknown` outside a git checkout (the
/// driver's checkout is not one).
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Where the harness may write: `out/` beside the package manifest
/// (`cargo run` and `cargo test` name it in `CARGO_MANIFEST_DIR` at run
/// time), or `benchmark/out` under the current directory when the
/// binary is started by hand from the checkout root.
pub fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from("benchmark"), PathBuf::from)
        .join("out")
}

/// A directory for one run's snapshots and delta log, removed when the
/// guard drops — on the failure path too, since failures are returned,
/// not panicked, up to `main`.
#[derive(Debug)]
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn create(label: &str) -> std::io::Result<Self> {
        let dir = out_dir().join(format!("tmp-{label}-{}", std::process::id()));
        // A previous process with this pid may have been killed.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vm_hwm() {
        let status = "Name:\tx\nVmPeak:\t  100 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 9 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(20480));
        assert_eq!(parse_vm_hwm_kb("Name: x\n"), None);
    }

    #[test]
    fn scratch_is_removed_on_drop_and_sized_while_alive() {
        let scratch = Scratch::create("unit").unwrap();
        let dir = scratch.path().to_path_buf();
        std::fs::create_dir(dir.join("sub")).unwrap();
        std::fs::write(dir.join("a"), [0u8; 10]).unwrap();
        std::fs::write(dir.join("sub").join("b"), [0u8; 5]).unwrap();
        assert_eq!(dir_bytes(&dir), 15);
        drop(scratch);
        assert!(!dir.exists());
    }
}
