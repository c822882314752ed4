//! Compare the paper's data-partitioning schemes head to head on the
//! simulated heterogeneous cluster (Section 3 / Section 4 of the paper).
//!
//! Run with: `cargo run --release --example partition_study`

use nowrender::anim::scenes::newton;
use nowrender::cluster::SimCluster;
use nowrender::core::{run_sim, CostModel, DirtyTest, FarmConfig, PartitionScheme};
use nowrender::raytrace::RenderSettings;

fn main() {
    let (w, h, frames) = (160, 120, 15);
    let anim = newton::animation_sized(w, h, frames);
    let cluster = SimCluster::paper();

    let schemes: Vec<(&str, PartitionScheme, bool)> = vec![
        (
            "frame division, no coherence",
            PartitionScheme::FrameDivision {
                tile_w: 40,
                tile_h: 40,
            },
            false,
        ),
        (
            "sequence division + coherence",
            PartitionScheme::SequenceDivision { adaptive: true },
            true,
        ),
        (
            "frame division + coherence",
            PartitionScheme::FrameDivision {
                tile_w: 40,
                tile_h: 40,
            },
            true,
        ),
    ];

    println!("{frames} frames of the Newton cradle at {w}x{h}, 3-machine paper cluster\n");
    println!(
        "{:<40} {:>10} {:>12} {:>8} {:>8}",
        "scheme", "time (s)", "rays", "units", "util%"
    );
    let mut baseline = None;
    let mut hashes: Option<Vec<u64>> = None;
    for (name, scheme, coherence) in schemes {
        let cfg = FarmConfig {
            scheme,
            coherence,
            dirty_test: DirtyTest::Exact,
            settings: RenderSettings::default(),
            cost: CostModel::default(),
            grid_voxels: 20 * 20 * 20,
        };
        let r = run_sim(&anim, &cfg, &cluster);
        let util = 100.0 * r.report.machines.iter().map(|m| m.busy_s).sum::<f64>()
            / (r.report.makespan_s * r.report.machines.len() as f64);
        println!(
            "{:<40} {:>10.1} {:>12} {:>8} {:>7.0}%",
            name,
            r.report.makespan_s,
            r.rays.total_rays(),
            r.units_done,
            util
        );
        let b = *baseline.get_or_insert(r.report.makespan_s);
        if b != r.report.makespan_s {
            println!(
                "{:<40} {:>9.2}x speedup vs first row",
                "",
                b / r.report.makespan_s
            );
        }
        // all schemes must produce identical images
        match &hashes {
            None => hashes = Some(r.frame_hashes),
            Some(h) => assert_eq!(h, &r.frame_hashes, "{name} produced different frames!"),
        }
    }
    println!("\nall schemes produced byte-identical frames ✓");
}
