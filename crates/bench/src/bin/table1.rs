//! Reproduce **Table 1** of the paper: performance results for the Newton
//! sequence, nine columns across four configurations.
//!
//! | cols | configuration |
//! |------|---------------|
//! | (1)  | single processor, no frame coherence (fastest machine) |
//! | (2)(3) | single processor + frame coherence, and its speedup vs (1) |
//! | (4)(5) | distributed (3 machines), no coherence, 80x80 demand-driven blocks |
//! | (6)(7) | distributed + coherence, **sequence division** |
//! | (8)(9) | distributed + coherence, **frame division** |
//!
//! Columns (2), (6) and (8) are printed twice: with the ray-exact dirty
//! test (the bound test, DESIGN.md §14), then with the paper's algorithm
//! (a pixel is dirty when one of its rays crosses a changed voxel).
//!
//! Times are virtual seconds from the calibrated cost model on the
//! simulated 3-SGI cluster (one 200 MHz machine, two 100 MHz). Absolute
//! values are not comparable to the 1998 hardware; the reproduced shape
//! is: ray reduction ~5x, coherence speedup ~3x, distribution alone ~2x,
//! coherence x distribution multiplicative (sequence division ~5x, frame
//! division ~7x, frame division > sequence division).
//!
//! Usage: `table1 [--quick] [--frames N] [--size WxH]`; any other argument
//! exits 2.

use now_anim::scenes::newton;
use now_bench::{commas, hms, Cli, Outcome, Row};
use now_cluster::SimCluster;
use now_core::DirtyTest::{Exact, Paper};
use now_core::PartitionScheme::{self, SequenceDivision};
use now_core::SequenceMode::{Coherent, Plain};
use now_core::SingleMachine;

fn main() {
    let cli = Cli::from_env(&["--quick", "--frames N", "--size WxH"], &[]);
    let (frames, size) = if cli.quick {
        (18, (160, 120))
    } else {
        (45, (320, 240))
    };
    let (frames, (w, h)) = (cli.frames.unwrap_or(frames), cli.size.unwrap_or(size));

    let grid = 28 * 28 * 28;
    println!(
        "Table 1 reproduction — Newton sequence, {frames} frames at {w}x{h}, \
         grid target {grid} voxels, tiles {}x{}",
        w.div_ceil(4),
        h.div_ceil(3)
    );
    println!("cluster: 1x 200MHz/64MB + 2x 100MHz/32MB, 10 Mb/s shared Ethernet\n");

    // the single-processor columns run on the paper's fast 200 MHz SGI
    let (fast, tiles, paper) = (
        SingleMachine::fastest(),
        PartitionScheme::paper_frame_division(w, h),
        SimCluster::paper,
    );
    let seq_div = SequenceDivision { adaptive: true };
    // the rows whose dirty test is the bound test (DESIGN.md §14)...
    let columns = [
        ("single", Row::Single(Plain, fast, grid)),
        ("single+FC", Row::Single(Coherent(Exact), fast, grid)),
        ("distributed", Row::Farm(tiles, None, paper(), grid)),
        ("FC seq div", Row::Farm(seq_div, Some(Exact), paper(), grid)),
        ("FC frame div", Row::Farm(tiles, Some(Exact), paper(), grid)),
    ];
    // ...and the paper's algorithm: a ray through a changed voxel
    let voxel_columns = [
        ("single+FC", Row::Single(Coherent(Paper), fast, grid)),
        ("FC seq div", Row::Farm(seq_div, Some(Paper), paper(), grid)),
        ("FC frame div", Row::Farm(tiles, Some(Paper), paper(), grid)),
    ];
    let anim = newton::animation_sized(w, h, frames);
    let run_all = |rows: &[(&str, Row)], group: &str| -> Vec<Outcome> {
        let n = rows.len();
        let runs = rows.iter().enumerate().map(|(i, (name, row))| {
            eprintln!("[{}/{n}] {name} ({group}) ...", i + 1);
            row.run(&anim)
        });
        runs.collect()
    };
    let exact = run_all(&columns, "ray-exact");
    let voxel = run_all(&voxel_columns, "paper's algorithm");
    // frames must be byte-identical across every configuration
    for run in exact.iter().chain(&voxel) {
        assert_eq!(run.frame_hashes(), exact[0].frame_hashes());
    }

    let base = exact[0].total_s();
    println!();
    print_rows(&columns, &exact, base, frames);
    print_shape_targets(
        "paper's Table 1 shape targets (Newton, 45 frames, 320x240):",
        [&exact[0], &exact[1], &exact[2], &exact[3], &exact[4]],
    );

    println!();
    println!("the paper's algorithm (dirty when a ray crosses a changed voxel):");
    print_rows(&voxel_columns, &voxel, base, frames);
    print_shape_targets(
        "the same targets, paper's algorithm:",
        [&exact[0], &voxel[0], &exact[2], &voxel[1], &voxel[2]],
    );
}

/// One table line per run: rays, first frame, mean and total time, and
/// the speedup over `base` seconds.
fn print_rows(columns: &[(&str, Row)], runs: &[Outcome], base: f64, frames: usize) {
    println!(
        "{:<16} {:>14} {:>12} {:>12} {:>12} {:>10}",
        "configuration", "# rays", "first frame", "avg frame", "total", "speedup"
    );
    println!("{}", "-".repeat(80));
    for ((name, _), run) in columns.iter().zip(runs) {
        let first_frame = run.sequence().map(|r| hms(r.first_frame_s));
        println!(
            "{:<16} {:>14} {:>12} {:>12} {:>12} {:>9.2}x",
            name,
            commas(run.rays()),
            first_frame.unwrap_or("-".into()),
            hms(run.total_s() / frames as f64),
            hms(run.total_s()),
            base / run.total_s()
        );
    }
}

/// The paper's Table 1 claims next to ours, from the runs of its five
/// columns: single, single+FC, distributed, FC seq div, FC frame div.
fn print_shape_targets(title: &str, runs: [&Outcome; 5]) {
    let speedup = |c: usize| runs[0].total_s() / runs[c].total_s();
    let first_frame_s = |c: usize| runs[c].sequence().map_or(0.0, |r| r.first_frame_s);
    let overhead = 100.0 * (first_frame_s(1) / first_frame_s(0) - 1.0);
    let frame_div_wins = runs[4].total_s() < runs[3].total_s();
    let rays = runs[0].rays() as f64 / runs[1].rays() as f64;
    let ratio = |x: f64| format!("{x:.2}x");
    let targets = [
        ("ray reduction (1)/(2):", "~5.0x", ratio(rays)),
        ("FC speedup (3):", "~2.9x", ratio(speedup(1))),
        ("distribution speedup (5):", "~2.0x", ratio(speedup(2))),
        ("FC x seq division (7):", "~5.0x", ratio(speedup(3))),
        ("FC x frame division (9):", "~7.0x", ratio(speedup(4))),
        (
            "FC first-frame overhead:",
            "~12%",
            format!("{overhead:.0}%"),
        ),
        (
            "frame div > seq div:",
            "yes",
            (if frame_div_wins { "yes" } else { "NO" }).into(),
        ),
    ];
    println!();
    println!("{title}");
    for (target, paper, ours) in targets {
        println!("  {target:<30}paper {paper:<8}ours {ours}");
    }
    println!(
        "  better than multiplicative:   paper yes ({:.1}% for frame div)",
        100.0 * (speedup(4) / (speedup(1) * speedup(2)) - 1.0)
    );
}
