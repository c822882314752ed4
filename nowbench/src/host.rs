//! What the benchmark reads from the host: process CPU time, peak
//! resident memory, core count, the commit under test, and where run
//! directories go.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Kernel clock ticks per second in `/proc/self/stat` (`USER_HZ`, fixed
/// at 100 on every Linux ABI Rust supports).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds this process has used, dead threads
/// included (`utime + stime` of `/proc/self/stat`).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // the command name may hold spaces; fields are counted after its ')'
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: f64 = after
        .split_whitespace()
        .skip(11) // state is field 3; utime and stime are fields 14 and 15
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks / USER_HZ
}

/// Seconds the hypervisor ran something else while this guest wanted a
/// CPU (`steal` of the first `/proc/stat` line, summed over cores).
pub fn steal_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|t| t.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / USER_HZ)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cores available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The benchmark package's own directory.
pub fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Commit of the repository the benchmark was built from, read straight
/// from `.git` (no `git` process); `unknown` outside a git checkout.
pub fn git_commit() -> String {
    let git = package_dir().join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference))
            .map(|s| s.trim().to_string())
            .unwrap_or_default(),
        None => head.to_string(),
    };
    if commit.is_empty() {
        "unknown".to_string()
    } else {
        commit
    }
}

/// Where run directories, journals and traces go: `nowbench/target/`,
/// which the repository's `.gitignore` already covers and which stays
/// inside the checkout.
pub fn scratch_root() -> PathBuf {
    package_dir().join("target")
}

/// A fresh, empty directory under `scratch_root()/runs`, unique within
/// and across benchmark processes.
pub fn fresh_run_dir(label: &str) -> Result<PathBuf, String> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = scratch_root()
        .join("runs")
        .join(format!("{label}-{}-{n}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_something_sane() {
        let before = cpu_seconds();
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(cpu_seconds() >= before);
        assert!(peak_rss_mb() > 0.5);
        assert!(cores() >= 1);
    }

    #[test]
    fn run_dirs_are_fresh_and_distinct() {
        let a = fresh_run_dir("unit").expect("a");
        let b = fresh_run_dir("unit").expect("b");
        assert_ne!(a, b);
        assert!(a.is_dir() && b.is_dir());
        assert!(a.starts_with(scratch_root()));
        std::fs::remove_dir_all(a).expect("rm a");
        std::fs::remove_dir_all(b).expect("rm b");
    }
}
