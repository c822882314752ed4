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
//! Times are virtual seconds from the calibrated cost model on the
//! simulated 3-SGI cluster (one 200 MHz machine, two 100 MHz). Absolute
//! values are not comparable to the 1998 hardware; the reproduced shape
//! is: ray reduction ~5x, coherence speedup ~3x, distribution alone ~2x,
//! coherence x distribution multiplicative (sequence division ~5x, frame
//! division ~7x, frame division > sequence division).
//!
//! Usage: `table1 [--quick] [--frames N] [--size WxH]`

use now_anim::scenes::newton;
use now_bench::{commas, hms};
use now_cluster::SimCluster;
use now_core::{run_sim, CostModel, FarmConfig, PartitionScheme, SequenceMode, SingleMachine};
use now_raytrace::RenderSettings;

struct Column {
    name: &'static str,
    rays: u64,
    first_frame_s: Option<f64>,
    avg_frame_s: f64,
    total_s: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let mut frames: usize = if quick { 18 } else { 45 };
    let (mut w, mut h) = if quick { (160u32, 120u32) } else { (320, 240) };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--frames" => frames = it.next().and_then(|v| v.parse().ok()).unwrap_or(frames),
            "--size" => {
                if let Some((sw, sh)) = it.next().and_then(|v| v.split_once('x')) {
                    w = sw.parse().unwrap_or(w);
                    h = sh.parse().unwrap_or(h);
                }
            }
            _ => {}
        }
    }

    let grid_voxels = 28 * 28 * 28;
    let tile = (w.div_ceil(4), h.div_ceil(3)); // the paper's 80x80 at 320x240
    println!(
        "Table 1 reproduction — Newton sequence, {frames} frames at {w}x{h}, \
         grid target {grid_voxels} voxels, tiles {}x{}",
        tile.0, tile.1
    );
    println!("cluster: 1x 200MHz/64MB + 2x 100MHz/32MB, 10 Mb/s shared Ethernet\n");

    let settings = RenderSettings::default();
    let cost = CostModel::default();
    let anim = newton::animation_sized(w, h, frames);
    let cluster = SimCluster::paper();
    // the paper's single-processor baseline machine: the fast 200 MHz SGI
    let fast = SingleMachine::fastest();

    let mut cols: Vec<Column> = Vec::new();

    // (1) single processor, no coherence, on the fastest machine
    eprintln!("[1/5] single processor, no coherence ...");
    let plain = now_core::render_sequence(
        &anim,
        &settings,
        &cost,
        SequenceMode::Plain,
        fast,
        grid_voxels,
        |_, _| {},
    );
    cols.push(Column {
        name: "single",
        rays: plain.rays.total_rays(),
        first_frame_s: Some(plain.first_frame_s),
        avg_frame_s: plain.avg_frame_s,
        total_s: plain.total_s,
    });

    // (2) single processor with frame coherence
    eprintln!("[2/5] single processor + frame coherence ...");
    let coh = now_core::render_sequence(
        &anim,
        &settings,
        &cost,
        SequenceMode::Coherent,
        fast,
        grid_voxels,
        |_, _| {},
    );
    cols.push(Column {
        name: "single+FC",
        rays: coh.rays.total_rays(),
        first_frame_s: Some(coh.first_frame_s),
        avg_frame_s: coh.avg_frame_s,
        total_s: coh.total_s,
    });

    // (4) distributed, no coherence (demand-driven blocks)
    eprintln!("[3/5] distributed, no coherence ...");
    let mk_cfg = |scheme, coherence| FarmConfig {
        scheme,
        coherence,
        settings: settings.clone(),
        cost,
        grid_voxels,
        keep_frames: false,
    };
    let dist = run_sim(
        &anim,
        &mk_cfg(
            PartitionScheme::FrameDivision {
                tile_w: tile.0,
                tile_h: tile.1,
                adaptive: true,
            },
            false,
        ),
        &cluster,
    );
    cols.push(Column {
        name: "distributed",
        rays: dist.rays.total_rays(),
        first_frame_s: None,
        avg_frame_s: dist.report.makespan_s / frames as f64,
        total_s: dist.report.makespan_s,
    });

    // (6) coherence + sequence division
    eprintln!("[4/5] coherence + sequence division ...");
    let seq = run_sim(
        &anim,
        &mk_cfg(PartitionScheme::SequenceDivision { adaptive: true }, true),
        &cluster,
    );
    cols.push(Column {
        name: "FC seq div",
        rays: seq.rays.total_rays(),
        first_frame_s: None,
        avg_frame_s: seq.report.makespan_s / frames as f64,
        total_s: seq.report.makespan_s,
    });

    // (8) coherence + frame division
    eprintln!("[5/5] coherence + frame division ...");
    let fdiv = run_sim(
        &anim,
        &mk_cfg(
            PartitionScheme::FrameDivision {
                tile_w: tile.0,
                tile_h: tile.1,
                adaptive: true,
            },
            true,
        ),
        &cluster,
    );
    cols.push(Column {
        name: "FC frame div",
        rays: fdiv.rays.total_rays(),
        first_frame_s: None,
        avg_frame_s: fdiv.report.makespan_s / frames as f64,
        total_s: fdiv.report.makespan_s,
    });

    // frames must be byte-identical across all distributed configurations
    assert_eq!(dist.frame_hashes, seq.frame_hashes);
    assert_eq!(dist.frame_hashes, fdiv.frame_hashes);

    let base = cols[0].total_s;
    println!();
    println!(
        "{:<16} {:>14} {:>12} {:>12} {:>12} {:>10}",
        "configuration", "# rays", "first frame", "avg frame", "total", "speedup"
    );
    println!("{}", "-".repeat(80));
    for c in &cols {
        println!(
            "{:<16} {:>14} {:>12} {:>12} {:>12} {:>9.2}x",
            c.name,
            commas(c.rays),
            c.first_frame_s.map_or("-".to_string(), hms),
            hms(c.avg_frame_s),
            hms(c.total_s),
            base / c.total_s
        );
    }

    println!();
    println!("paper's Table 1 shape targets (Newton, 45 frames, 320x240):");
    println!(
        "  ray reduction (1)/(2):        paper ~5.0x   ours {:.2}x",
        cols[0].rays as f64 / cols[1].rays as f64
    );
    println!(
        "  FC speedup (3):               paper ~2.9x   ours {:.2}x",
        base / cols[1].total_s
    );
    println!(
        "  distribution speedup (5):     paper ~2.0x   ours {:.2}x",
        base / cols[2].total_s
    );
    println!(
        "  FC x seq division (7):        paper ~5.0x   ours {:.2}x",
        base / cols[3].total_s
    );
    println!(
        "  FC x frame division (9):      paper ~7.0x   ours {:.2}x",
        base / cols[4].total_s
    );
    println!(
        "  FC first-frame overhead:      paper ~12%    ours {:.0}%",
        100.0 * (cols[1].first_frame_s.unwrap() / cols[0].first_frame_s.unwrap() - 1.0)
    );
    println!(
        "  frame div > seq div:          paper yes     ours {}",
        if cols[4].total_s < cols[3].total_s {
            "yes"
        } else {
            "NO"
        }
    );
    println!(
        "  better than multiplicative:   paper yes ({:.1}% for frame div)",
        100.0
            * ((base / cols[4].total_s) / ((base / cols[1].total_s) * (base / cols[2].total_s))
                - 1.0)
    );
}
