//! Gantt-style timelines of simulated farm runs: where each workstation,
//! the master and the Ethernet spend their time under each partitioning
//! scheme. Makes the load-balancing differences of Section 3 visible.
//!
//! Usage: `timeline [--frames N] [--size WxH] [--width COLS]`; any other
//! argument exits 2.

use now_anim::scenes::newton;
use now_bench::{Cli, Row};
use now_cluster::{RunReport, SimCluster, SpanKind};
use now_core::DirtyTest::Exact;
use now_core::PartitionScheme::{self, SequenceDivision};

fn main() {
    let cli = Cli::from_env(&["--frames N", "--size WxH", "--width COLS"], &[]);
    let (w, h) = cli.size.unwrap_or((120, 90));
    let anim = newton::animation_sized(w, h, cli.frames.unwrap_or(12));
    let mut cluster = SimCluster::paper();
    cluster.record_timeline = true;

    let tiles = PartitionScheme::paper_frame_division(w, h);
    let seq_div = SequenceDivision { adaptive: true };
    for (name, scheme, coherence) in [
        ("frame division, no coherence", tiles, None),
        ("sequence division + coherence", seq_div, Some(Exact)),
        ("frame division + coherence", tiles, Some(Exact)),
    ] {
        let run = Row::Farm(scheme, coherence, cluster.clone(), 20 * 20 * 20).run(&anim);
        let report = &run.farm().expect("a farm row").report;
        println!("\n=== {name} — makespan {:.1}s ===", report.makespan_s);
        print_gantt(report, cli.width.unwrap_or(100));
    }
    println!("\nlegend: each row is one resource; '#' = busy, '.' = idle. The");
    println!("idle tail of the slow machines under sequence division is the");
    println!("load imbalance the paper's adaptive subdivision fights.");
}

/// Render the timeline as rows of `cols` characters: one per machine,
/// then the master's and the Ethernet's.
fn print_gantt(report: &RunReport, cols: usize) {
    let total = report.makespan_s.max(1e-9);
    let bucket = |t: f64| ((t / total) * cols as f64).floor().min(cols as f64 - 1.0) as usize;
    let names = report.machines.iter().map(|m| m.name.as_str());
    let names: Vec<&str> = names.chain(["master (file writes)", "ethernet"]).collect();
    let (master, net) = (names.len() - 2, names.len() - 1);
    let mut rows = vec![vec!['.'; cols]; names.len()];

    for span in &report.timeline {
        let (b0, b1) = (bucket(span.start), bucket(span.end.max(span.start)));
        let row = match span.kind {
            SpanKind::Compute => span.machine,
            SpanKind::MasterWork => master,
            SpanKind::Transfer => net,
            // a lease expiry re-issuing a unit: mark the moment on the master
            SpanKind::Reassign => {
                rows[master][b0] = 'R';
                continue;
            }
        };
        rows[row][b0..=b1].fill('#');
    }
    for (name, row) in names.iter().zip(&rows) {
        let name = &name[..name.len().min(26)];
        println!("{name:>26} |{}|", row.iter().collect::<String>());
    }
}
