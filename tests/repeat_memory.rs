//! A long-lived process keeps only what it holds: repeated farm runs in
//! one process must not raise its peak resident set run after run.
//!
//! Each coherent region renderer logs a few MB of ray paths. Held in one
//! doubling buffer, freeing such a buffer (mmapped by glibc) raises glibc's
//! mmap threshold, after which later logs are carved from the heap and the
//! heap keeps the holes they leave: eight runs of `glassball:12:160x120`
//! raised the peak by 4.4–6.0 MB. The coherence engine's fixed 64 KiB log
//! blocks are reused from run to run instead (0.4–0.8 MB). Alone in its
//! file because the peak (`VmHWM`) is process-wide.

use nowrender::anim::scenes::glassball;
use nowrender::core::{run_threads, FarmConfig};

/// The process's peak resident set in KB, `None` where
/// `/proc/self/status` is missing.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

#[test]
fn repeated_runs_keep_the_peak_of_the_first() {
    if peak_rss_kb().is_none() {
        eprintln!("no /proc/self/status: nothing to measure");
        return;
    }
    let anim = glassball::animation_sized(160, 120, 12);
    let cfg = FarmConfig::paper_default();
    let mut peaks = Vec::new();
    let mut hashes = None;
    for _ in 0..8 {
        let r = run_threads(&anim, &cfg, 2);
        assert_eq!(
            *hashes.get_or_insert(r.frame_hashes.clone()),
            r.frame_hashes
        );
        peaks.push(peak_rss_kb().expect("read before the first run"));
    }
    eprintln!("peak RSS after each run (KB): {peaks:?}");
    let rise = peaks[peaks.len() - 1] - peaks[0];
    assert!(
        rise < 2048,
        "the peak rose {rise} KB over {} runs: {peaks:?}",
        peaks.len()
    );
}
