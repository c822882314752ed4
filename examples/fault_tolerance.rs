//! Fault-tolerant render farm demo: inject worker failures into both
//! cluster backends and show the run recovering to byte-identical frames.
//!
//! ```sh
//! cargo run --release --example fault_tolerance
//! ```

use nowrender::anim::scenes::newton;
use nowrender::cluster::{FaultPlan, RecoveryConfig, SimCluster, ThreadCluster};
use nowrender::core::{
    run_sim, run_threads_with, CostModel, DirtyTest, FarmConfig, PartitionScheme,
};
use nowrender::raytrace::RenderSettings;

fn main() {
    let anim = newton::animation_sized(80, 60, 6);
    let cfg = FarmConfig {
        scheme: PartitionScheme::FrameDivision {
            tile_w: 40,
            tile_h: 30,
        },
        coherence: true,
        dirty_test: DirtyTest::Exact,
        settings: RenderSettings::default(),
        cost: CostModel::default(),
        grid_voxels: 4096,
    };

    // reference: the paper's 3-machine cluster, no faults
    let healthy = SimCluster::paper();
    let reference = run_sim(&anim, &cfg, &healthy);
    println!(
        "fault-free sim      : makespan {:6.1}s, {} frames",
        reference.report.makespan_s,
        reference.frame_hashes.len()
    );

    // same cluster, but machine 1 crashes on its 4th unit
    let mut faulty = SimCluster::paper();
    faulty.faults = FaultPlan::none().crash_at(1, 3);
    faulty.recovery = RecoveryConfig {
        lease_timeout_s: 30.0,
        max_worker_failures: 1,
        ..RecoveryConfig::default()
    };
    let recovered = run_sim(&anim, &cfg, &faulty);
    println!(
        "crash @ machine 1   : makespan {:6.1}s, {} reassigned, {} lost, frames identical: {}",
        recovered.report.makespan_s,
        recovered.report.units_reassigned,
        recovered.report.workers_lost,
        recovered.frame_hashes == reference.frame_hashes,
    );
    for m in &recovered.report.machines {
        println!(
            "    {:10} busy {:6.1}s  failures {}  lost {}",
            m.name, m.busy_s, m.failures, m.lost
        );
    }

    // real threads: one worker stalls forever, the lease reclaims its unit
    let mut threads = ThreadCluster::new(3);
    threads.faults = FaultPlan::none().stall_at(2, 1);
    threads.recovery = RecoveryConfig {
        lease_timeout_s: 0.5,
        max_worker_failures: 1,
        ..RecoveryConfig::default()
    };
    let t0 = std::time::Instant::now();
    let real = run_threads_with(&anim, &cfg, &threads, None).expect("unjournaled run starts");
    println!(
        "threads, stalled #2 : wall {:.2}s, {} reassigned, {} lost, frames identical: {}",
        t0.elapsed().as_secs_f64(),
        real.report.units_reassigned,
        real.report.workers_lost,
        real.frame_hashes == reference.frame_hashes,
    );
}
