#![warn(missing_docs)]

//! # now-bench
//!
//! Harnesses regenerating every table and figure of the paper on the
//! simulator's virtual clock, plus the ablation studies called out in
//! `DESIGN.md`. Nothing here measures wall time: timings come from
//! `nowbench/` (the benchmark `BENCHMARK.json` names) and from nowhere else.
//!
//! Binaries:
//!
//! * `table1` — the full Table 1 reproduction (Newton sequence, all nine
//!   columns) on the simulated 3-SGI cluster. `--quick` runs a reduced
//!   resolution/frame count.
//! * `figures` — Fig. 1 (glass-ball frames), Fig. 2 (actual vs predicted
//!   difference maps), Fig. 4 (partition assignment maps), Fig. 5
//!   (Newton frame 22) as TGA/PGM files plus printed statistics.
//! * `ablations` — grid-resolution sweep, coherence-granularity sweep
//!   (pixel vs Jevans blocks), tile-size sweep, adaptive vs static
//!   partitioning, machine-mix sweep, per-scene payoff, shadow tracking,
//!   sequence length.
//! * `timeline` — ASCII Gantt rows of one simulated farm run.
//! * `size_ledger` — the code-size ledger, `BENCH_size.json`.

/// Format virtual seconds as `h:mm:ss` (the paper's format).
pub fn hms(seconds: f64) -> String {
    let total = seconds.round().max(0.0) as u64;
    let h = total / 3600;
    let m = (total % 3600) / 60;
    let s = total % 60;
    if h > 0 {
        format!("{h}:{m:02}:{s:02}")
    } else {
        format!("{m}:{s:02}")
    }
}

/// Thousands separators for ray counts.
pub fn commas(n: u64) -> String {
    let s = n.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hms_formats() {
        assert_eq!(hms(0.0), "0:00");
        assert_eq!(hms(59.4), "0:59");
        assert_eq!(hms(125.0), "2:05");
        assert_eq!(hms(3723.0), "1:02:03");
        assert_eq!(hms(-5.0), "0:00");
    }

    #[test]
    fn commas_group_digits() {
        assert_eq!(commas(0), "0");
        assert_eq!(commas(999), "999");
        assert_eq!(commas(1000), "1,000");
        assert_eq!(commas(21_970_900), "21,970,900");
    }
}
