#![warn(missing_docs)]

//! # now-bench
//!
//! Harnesses regenerating every table and figure of the paper on the
//! simulator's virtual clock, plus the ablation studies called out in
//! `DESIGN.md`. Nothing here measures wall time: timings come from
//! `nowbench/` (the benchmark `BENCHMARK.json` names) and from nowhere else.
//!
//! An experiment is a table of [`Row`]s, each one run of the paper's
//! configurations, executed by [`Row::run`]. Every binary reads its command
//! line with [`Cli::from_env`], which refuses what the binary does not take.
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

use now_anim::Animation;
use now_cluster::SimCluster;
use now_core::farm::Canvas;
use now_core::{
    render_sequence, run_sim, CostModel, DirtyTest, FarmConfig, FarmResult, PartitionScheme,
    SequenceMode, SequenceReport, SingleMachine,
};
use now_raytrace::RenderSettings;
use std::path::PathBuf;
use std::str::FromStr;

/// One run of an experiment table; the last field is the target voxel
/// count of the coherence grid.
#[derive(Debug)]
pub enum Row {
    /// The whole sequence on one workstation, in the given mode.
    Single(SequenceMode, SingleMachine, u32),
    /// A farm on the simulator: its partition scheme, frame coherence with
    /// the given dirty test or (`None`) off, on the given cluster.
    Farm(PartitionScheme, Option<DirtyTest>, SimCluster, u32),
}

/// What a [`Row`]'s run produced.
#[derive(Debug)]
pub enum Outcome {
    /// The single-processor report and each frame's [`Canvas::hash`].
    Single(SequenceReport, Vec<u64>),
    /// The farm's result, which carries each frame's [`Canvas::hash`].
    Farm(FarmResult),
}

impl Row {
    /// Run the row over `anim` with the default render settings and cost
    /// model.
    pub fn run(&self, anim: &Animation) -> Outcome {
        match self {
            Row::Single(mode, machine, grid_voxels) => {
                let mut hashes = vec![0; anim.frames];
                let report = render_sequence(
                    anim,
                    &RenderSettings::default(),
                    &CostModel::default(),
                    *mode,
                    *machine,
                    *grid_voxels,
                    |f, fb| hashes[f] = Canvas::of(&fb).hash(),
                );
                Outcome::Single(report, hashes)
            }
            Row::Farm(scheme, test, cluster, grid_voxels) => {
                let cfg = FarmConfig {
                    scheme: *scheme,
                    coherence: test.is_some(),
                    dirty_test: test.unwrap_or_default(),
                    grid_voxels: *grid_voxels,
                    ..FarmConfig::paper_default()
                };
                Outcome::Farm(run_sim(anim, &cfg, cluster))
            }
        }
    }
}

impl Outcome {
    /// Rays fired over the whole sequence.
    pub fn rays(&self) -> u64 {
        match self {
            Outcome::Single(report, _) => report.rays.total_rays(),
            Outcome::Farm(result) => result.rays.total_rays(),
        }
    }

    /// Virtual seconds for the whole sequence (a farm's makespan).
    pub fn total_s(&self) -> f64 {
        match self {
            Outcome::Single(report, _) => report.total_s,
            Outcome::Farm(result) => result.report.makespan_s,
        }
    }

    /// Each frame's [`Canvas::hash`], in order.
    pub fn frame_hashes(&self) -> &[u64] {
        match self {
            Outcome::Single(_, hashes) => hashes,
            Outcome::Farm(result) => &result.frame_hashes,
        }
    }

    /// The single-processor report, if the row ran on one workstation.
    pub fn sequence(&self) -> Option<&SequenceReport> {
        match self {
            Outcome::Single(report, _) => Some(report),
            Outcome::Farm(_) => None,
        }
    }

    /// The farm's result, if the row ran on the simulated cluster.
    pub fn farm(&self) -> Option<&FarmResult> {
        match self {
            Outcome::Single(..) => None,
            Outcome::Farm(result) => Some(result),
        }
    }
}

/// A harness's command line. Each binary names the flags and subcommands it
/// takes; anything else, or a count or size that is not a positive number,
/// is refused.
#[derive(Debug, Default, PartialEq)]
pub struct Cli {
    /// `--quick`: the reduced size.
    pub quick: bool,
    /// `--frames N`.
    pub frames: Option<usize>,
    /// `--size WxH`.
    pub size: Option<(u32, u32)>,
    /// `--width COLS`.
    pub width: Option<usize>,
    /// `--outdir DIR`.
    pub outdir: Option<PathBuf>,
    /// The subcommands given, in order.
    pub subcommands: Vec<String>,
}

impl Cli {
    /// Parse the process's arguments against `flags` (usage entries such as
    /// `"--frames N"`) and `subcommands`; on a refusal print it and exit 2.
    pub fn from_env(flags: &[&str], subcommands: &[&str]) -> Cli {
        Cli::parse(std::env::args().skip(1), flags, subcommands).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2)
        })
    }

    fn parse(
        args: impl IntoIterator<Item = String>,
        flags: &[&str],
        subcommands: &[&str],
    ) -> Result<Cli, String> {
        let mut cli = Cli::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let known = if arg.starts_with("--") {
                flags.iter().any(|f| f.split(' ').next() == Some(&arg))
            } else {
                subcommands.contains(&arg.as_str())
            };
            if !known {
                let takes: Vec<&str> = subcommands.iter().chain(flags).copied().collect();
                return Err(format!(
                    "unknown argument `{arg}`; takes {}",
                    takes.join(", ")
                ));
            }
            let args = &mut args;
            match arg.as_str() {
                "--quick" => cli.quick = true,
                "--frames" => cli.frames = Some(value(args, &arg, positive)?),
                "--width" => cli.width = Some(value(args, &arg, positive)?),
                "--size" => {
                    let size = |v: &str| {
                        let (w, h) = v.split_once('x')?;
                        Some((positive(w)?, positive(h)?))
                    };
                    cli.size = Some(value(args, &arg, size)?);
                }
                "--outdir" => {
                    let dir = |v: &str| (!v.is_empty()).then(|| PathBuf::from(v));
                    cli.outdir = Some(value(args, &arg, dir)?);
                }
                _ => cli.subcommands.push(arg),
            }
        }
        Ok(cli)
    }
}

/// The word after `flag`, read by `read`.
fn value<T>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
    read: impl Fn(&str) -> Option<T>,
) -> Result<T, String> {
    let v = args.next().unwrap_or_default();
    read(&v).ok_or_else(|| format!("bad {flag} value `{v}`"))
}

/// `v` as a number above zero.
fn positive<T: FromStr + Default + PartialOrd>(v: &str) -> Option<T> {
    v.parse().ok().filter(|n| *n > T::default())
}

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

    /// A single row and a farm row over the same animation render the same
    /// frames.
    #[test]
    fn single_and_farm_rows_render_the_same_frames() {
        let anim = now_anim::scenes::newton::animation_sized(48, 36, 4);
        let exact = DirtyTest::Exact;
        let single = Row::Single(SequenceMode::Coherent(exact), SingleMachine::unit(), 4096);
        let tiles = PartitionScheme::paper_frame_division(48, 36);
        let farm = Row::Farm(tiles, Some(exact), SimCluster::paper(), 4096);
        let (single, farm) = (single.run(&anim), farm.run(&anim));
        assert_eq!(single.frame_hashes().len(), 4);
        assert_eq!(single.frame_hashes(), farm.frame_hashes());
        assert!(single.sequence().is_some() && farm.farm().is_some());
    }

    #[test]
    fn the_parser_refuses_what_a_harness_does_not_take() {
        let parse = |line: &str| {
            let args = line.split_whitespace().map(String::from);
            Cli::parse(args, &["--quick", "--frames N", "--size WxH"], &["grid"])
        };
        let cli = parse("grid --quick --frames 3 --size 4x2").unwrap();
        assert_eq!((cli.frames, cli.size), (Some(3), Some((4, 2))));
        assert!(cli.quick && cli.subcommands == ["grid"]);
        assert_eq!(parse("").unwrap(), Cli::default());
        for (line, named) in [
            ("--frames x", "--frames"),
            ("--frames 0", "--frames"),
            ("--frames", "--frames"),
            ("--size 4", "--size"),
            ("--frmes 3", "--frmes"),
            ("--width 3", "--width"),
            ("gird", "gird"),
        ] {
            let err = parse(line).expect_err(line);
            assert!(err.contains(named), "{line}: {err}");
        }
    }
}
