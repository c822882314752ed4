//! Gantt-style timelines of simulated farm runs: where each workstation,
//! the master and the Ethernet spend their time under each partitioning
//! scheme. Makes the load-balancing differences of Section 3 visible.
//!
//! Usage: `timeline [--frames N] [--size WxH] [--width COLS]`

use now_anim::scenes::newton;
use now_cluster::{RunReport, SimCluster, SpanKind};
use now_core::{run_sim, CostModel, FarmConfig, PartitionScheme};
use now_raytrace::RenderSettings;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut frames = 12usize;
    let (mut w, mut h) = (120u32, 90u32);
    let mut cols = 100usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--frames" => frames = it.next().and_then(|v| v.parse().ok()).unwrap_or(frames),
            "--width" => cols = it.next().and_then(|v| v.parse().ok()).unwrap_or(cols),
            "--size" => {
                if let Some((sw, sh)) = it.next().and_then(|v| v.split_once('x')) {
                    w = sw.parse().unwrap_or(w);
                    h = sh.parse().unwrap_or(h);
                }
            }
            _ => {}
        }
    }

    let anim = newton::animation_sized(w, h, frames);
    let mut cluster = SimCluster::paper();
    cluster.record_timeline = true;

    for (name, scheme, coherence) in [
        (
            "frame division, no coherence",
            PartitionScheme::FrameDivision {
                tile_w: w / 4,
                tile_h: h / 3,
                adaptive: true,
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
                tile_w: w / 4,
                tile_h: h / 3,
                adaptive: true,
            },
            true,
        ),
    ] {
        let cfg = FarmConfig {
            scheme,
            coherence,
            settings: RenderSettings::default(),
            cost: CostModel::default(),
            grid_voxels: 20 * 20 * 20,
            keep_frames: false,
        };
        let r = run_sim(&anim, &cfg, &cluster);
        println!("\n=== {name} — makespan {:.1}s ===", r.report.makespan_s);
        print_gantt(&r.report, cols);
    }
    println!("\nlegend: each row is one resource; '#' = busy, '.' = idle. The");
    println!("idle tail of the slow machines under sequence division is the");
    println!("load imbalance the paper's adaptive subdivision fights.");
}

/// Render the timeline as rows of `cols` characters.
fn print_gantt(report: &RunReport, cols: usize) {
    let total = report.makespan_s.max(1e-9);
    let bucket = |t: f64| ((t / total) * cols as f64).floor().min(cols as f64 - 1.0) as usize;

    let mut rows: Vec<(String, Vec<char>)> = report
        .machines
        .iter()
        .map(|m| (m.name.clone(), vec!['.'; cols]))
        .collect();
    let mut master_row = vec!['.'; cols];
    let mut net_row = vec!['.'; cols];

    for span in &report.timeline {
        let (b0, b1) = (bucket(span.start), bucket(span.end.max(span.start)));
        match span.kind {
            SpanKind::Compute => {
                let row = &mut rows[span.machine].1;
                for c in row.iter_mut().take(b1 + 1).skip(b0) {
                    *c = '#';
                }
            }
            SpanKind::MasterWork => {
                for c in master_row.iter_mut().take(b1 + 1).skip(b0) {
                    *c = '#';
                }
            }
            SpanKind::Transfer => {
                for c in net_row.iter_mut().take(b1 + 1).skip(b0) {
                    *c = '#';
                }
            }
            // a lease expiry re-issuing a unit: mark the moment on the master
            SpanKind::Reassign => {
                master_row[b0] = 'R';
            }
        }
    }
    for (name, row) in &rows {
        println!(
            "{:>26} |{}|",
            truncate(name, 26),
            row.iter().collect::<String>()
        );
    }
    println!(
        "{:>26} |{}|",
        "master (file writes)",
        master_row.iter().collect::<String>()
    );
    println!(
        "{:>26} |{}|",
        "ethernet",
        net_row.iter().collect::<String>()
    );
}

fn truncate(s: &str, n: usize) -> &str {
    &s[..s.len().min(n)]
}
