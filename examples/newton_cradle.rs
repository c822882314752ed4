//! The paper's evaluation workload: the Newton's-cradle animation
//! ("one plane, five spheres, and sixteen cylinders"), rendered on the
//! simulated 3-workstation cluster with frame coherence and frame
//! division, exactly as Table 1 columns (8)–(9).
//!
//! Run with: `cargo run --release --example newton_cradle [frames [size]]`
//! where `size` is `WIDTHxHEIGHT` (default 160x120 to keep the example
//! quick; the paper used 320x240). The frames land in the run directory
//! `out/newton_cradle`, each written as it finalizes.

use nowrender::anim::scenes::newton;
use nowrender::cluster::SimCluster;
use nowrender::core::{run_sim_with, FarmConfig, JournalSpec, PartitionScheme};
use std::path::Path;

fn main() -> std::io::Result<()> {
    let mut args = std::env::args().skip(1);
    let frames: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(12);
    let (w, h) = args
        .next()
        .and_then(|a| {
            let (w, h) = a.split_once('x')?;
            Some((w.parse().ok()?, h.parse().ok()?))
        })
        .unwrap_or((160, 120));

    println!("Newton cradle: {frames} frames at {w}x{h} on the simulated paper cluster");
    let anim = newton::animation_sized(w, h, frames);

    let mut cfg = FarmConfig::paper_default();
    cfg.scheme = PartitionScheme::FrameDivision {
        tile_w: w.div_ceil(4),
        tile_h: h.div_ceil(3),
    };

    let cluster = SimCluster::paper();
    let run = JournalSpec::new(Path::new("out").join("newton_cradle"));
    let result = run_sim_with(&anim, &cfg, &cluster, Some(&run)).map_err(std::io::Error::other)?;

    println!(
        "virtual makespan: {:.1} s   rays: {}   marks: {}   units: {}",
        result.report.makespan_s,
        result.rays.total_rays(),
        result.marks,
        result.units_done
    );
    for (i, m) in result.report.machines.iter().enumerate() {
        println!(
            "  {}: busy {:.1} s ({:.0}% util), {} units",
            m.name,
            m.busy_s,
            100.0 * result.report.utilisation(i),
            m.units_done
        );
    }

    // first, middle and last frames (Fig. 5 shows frame 22)
    for &f in &[0, frames / 2, frames - 1] {
        println!(
            "frame {f:2}: {}",
            run.dir.join(format!("frame_{f:04}.tga")).display()
        );
    }
    Ok(())
}
