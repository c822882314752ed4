//! Chaos regression: the render farm must survive injected worker
//! failures on both backends and still produce byte-identical frames.
//!
//! The reference is a fault-free single-worker run — the strictest
//! possible oracle, because coherence restarts forced by reassignment
//! must not change a single pixel (the coherence algorithm is exact).

use nowrender::anim::scenes::newton;
use nowrender::cluster::journal::JournalFaultPlan;
use nowrender::cluster::{FaultPlan, MachineSpec, RecoveryConfig, SimCluster, ThreadCluster};
use nowrender::core::{
    run_sim, run_threads_with, CostModel, DirtyTest, FarmConfig, JournalSpec, PartitionScheme,
};
use nowrender::raytrace::RenderSettings;

const W: u32 = 40;
const H: u32 = 30;
const FRAMES: usize = 8;

fn cfg() -> FarmConfig {
    FarmConfig {
        scheme: PartitionScheme::FrameDivision {
            tile_w: 20,
            tile_h: 15,
        },
        coherence: true,
        dirty_test: DirtyTest::Exact,
        settings: RenderSettings::default(),
        cost: CostModel::default(),
        grid_voxels: 4096,
    }
}

/// Fault-free single-worker reference hashes for the Newton scene.
fn reference_hashes() -> Vec<u64> {
    let anim = newton::animation_sized(W, H, FRAMES);
    let cluster = SimCluster::new(vec![MachineSpec::new("ref", 1.0, 64.0)]);
    let result = run_sim(&anim, &cfg(), &cluster);
    result.frame_hashes
}

#[test]
fn sim_worker_crash_preserves_every_frame_byte() {
    let anim = newton::animation_sized(W, H, FRAMES);
    let mut cluster = SimCluster::paper();
    cluster.faults = FaultPlan::none().crash_at(1, 5);
    cluster.recovery = RecoveryConfig {
        lease_timeout_s: 30.0,
        max_worker_failures: 1,
        ..RecoveryConfig::default()
    };
    let result = run_sim(&anim, &cfg(), &cluster);

    assert_eq!(result.frame_hashes.len(), FRAMES, "all frames finalized");
    assert_eq!(
        result.frame_hashes,
        reference_hashes(),
        "reassigned units must not change a single pixel"
    );
    assert!(
        result.report.units_reassigned >= 1,
        "the in-flight unit was re-issued"
    );
    assert_eq!(result.report.workers_lost, 1);
    assert!(result.report.machines[1].lost);
}

#[test]
fn sim_stalled_and_slow_workers_preserve_every_frame_byte() {
    let anim = newton::animation_sized(W, H, FRAMES);
    let mut cluster = SimCluster::paper();
    // machine 1 wedges on its 3rd unit; machine 2 turns 50x slower, which
    // shifts nearly all remaining work onto the survivors
    cluster.faults = FaultPlan::none().stall_at(1, 2).slow_from(2, 1, 50.0);
    cluster.recovery = RecoveryConfig {
        lease_timeout_s: 20.0,
        max_worker_failures: 1,
        ..RecoveryConfig::default()
    };
    let result = run_sim(&anim, &cfg(), &cluster);

    assert_eq!(result.frame_hashes, reference_hashes());
    assert!(
        result.report.units_reassigned >= 1,
        "the stalled unit was re-issued"
    );
    assert!(
        result.report.workers_lost >= 1,
        "the stalled machine is excluded"
    );
}

#[test]
fn sim_faulty_timeline_is_deterministic() {
    let anim = newton::animation_sized(W, H, FRAMES);
    let mut cluster = SimCluster::paper();
    cluster.faults = FaultPlan::none().crash_at(2, 3);
    cluster.recovery = RecoveryConfig::with_lease(25.0);
    let a = run_sim(&anim, &cfg(), &cluster);
    let b = run_sim(&anim, &cfg(), &cluster);
    assert_eq!(a.frame_hashes, b.frame_hashes);
    assert_eq!(
        a.report, b.report,
        "faulty virtual timeline must be deterministic"
    );
}

#[test]
fn threads_worker_crash_preserves_every_frame_byte() {
    let anim = newton::animation_sized(W, H, FRAMES);
    let mut cluster = ThreadCluster::new(3);
    cluster.faults = FaultPlan::none().crash_at(1, 4);
    cluster.recovery = RecoveryConfig {
        lease_timeout_s: 2.0,
        max_worker_failures: 1,
        ..RecoveryConfig::default()
    };
    let result = run_threads_with(&anim, &cfg(), &cluster, None).expect("unjournaled run starts");

    assert_eq!(result.frame_hashes.len(), FRAMES);
    assert_eq!(
        result.frame_hashes,
        reference_hashes(),
        "thread backend must recover to byte-identical frames"
    );
    assert_eq!(result.report.workers_lost, 1);
    assert!(result.report.units_reassigned >= 1);
}

/// A scratch journal directory unique to this test process.
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .as_nanos();
    let dir = std::env::temp_dir().join(format!("now-chaos-{tag}-{}-{nanos}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Satellite chaos: a worker crash (FaultPlan) *and* a master crash
/// (journal fault) in the same run, then a resume that itself loses a
/// worker — the output must still match the fault-free reference byte
/// for byte.
#[test]
fn threads_worker_crash_plus_journal_kill_then_resume_is_byte_identical() {
    let anim = newton::animation_sized(W, H, FRAMES);
    let dir = scratch_dir("combined");
    let faulty_cluster = || {
        let mut cluster = ThreadCluster::new(3);
        cluster.faults = FaultPlan::none().crash_at(1, 3);
        cluster.recovery = RecoveryConfig {
            lease_timeout_s: 2.0,
            max_worker_failures: 1,
            ..RecoveryConfig::default()
        };
        cluster
    };

    // Probe: one clean journaled run with the worker fault, to learn how
    // many journal bytes a full run writes.
    let probe = run_threads_with(
        &anim,
        &cfg(),
        &faulty_cluster(),
        Some(&JournalSpec::new(&dir)),
    )
    .expect("probe run starts");
    assert_eq!(probe.frame_hashes, reference_hashes());
    let log = nowrender::cluster::read_log(&dir.join("run.journal")).unwrap();
    assert!(!log.torn, "clean run leaves no torn tail");

    // Crash the master roughly mid-run (on top of the worker crash) by
    // killing the journal writer after ~60% of the probe's bytes.
    let cut = log.valid_len * 6 / 10;
    let crashed = run_threads_with(
        &anim,
        &cfg(),
        &faulty_cluster(),
        Some(&JournalSpec::new(&dir).with_fault(JournalFaultPlan::none().kill_after_bytes(cut))),
    )
    .expect("crashed run starts");
    assert_eq!(
        crashed.frame_hashes,
        reference_hashes(),
        "the in-memory run is unaffected by the dying journal"
    );

    // What actually survived on disk, before resume touches it.
    let survived = nowrender::cluster::read_log(&dir.join("run.journal")).unwrap();
    let frames_survived = survived
        .records
        .iter()
        .filter(|r| r.first() == Some(&3))
        .count();

    // Resume on a cluster that loses yet another worker mid-run.
    let resumed = run_threads_with(
        &anim,
        &cfg(),
        &faulty_cluster(),
        Some(&JournalSpec::resume(&dir)),
    )
    .expect("resume starts");
    assert_eq!(
        resumed.frame_hashes,
        reference_hashes(),
        "worker crash + master crash + resume must not change a pixel"
    );
    if frames_survived > 0 {
        assert!(
            resumed.resumed_units > 0,
            "a durably finalized frame must be skipped, not re-rendered"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn threads_stalled_worker_completes_within_lease_budget() {
    let anim = newton::animation_sized(W, H, FRAMES);
    let mut cluster = ThreadCluster::new(3);
    cluster.faults = FaultPlan::none().stall_at(2, 1);
    cluster.recovery = RecoveryConfig {
        lease_timeout_s: 1.0,
        max_worker_failures: 1,
        ..RecoveryConfig::default()
    };
    let t0 = std::time::Instant::now();
    let result = run_threads_with(&anim, &cfg(), &cluster, None).expect("unjournaled run starts");
    let wall = t0.elapsed().as_secs_f64();

    assert_eq!(result.frame_hashes, reference_hashes());
    assert_eq!(result.report.workers_lost, 1);
    assert!(result.report.machines[2].lost);
    // one 1 s lease expiry plus the survivors' rendering: far from a hang
    assert!(wall < 60.0, "stall recovery took {wall:.1}s");
}

/// The thread farm keeps every worker two leases deep, and the second
/// unit's tile delta builds on the first one's pixels. Lose the first
/// result in transit and the second arrives out of order: the master must
/// treat the skipped lease as expired there and then, void the one that
/// was answered (its delta has no base on the master) and re-issue both —
/// not integrate a delta against stale pixels, and not sit out the lease.
#[test]
fn threads_lost_result_with_the_next_unit_in_hand_preserves_every_frame_byte() {
    let anim = newton::animation_sized(W, H, FRAMES);
    let mut cluster = ThreadCluster::new(2);
    cluster.faults = FaultPlan::none().drop_result_at(1, 1);
    cluster.recovery = RecoveryConfig::with_lease(30.0);
    let t0 = std::time::Instant::now();
    let result = run_threads_with(&anim, &cfg(), &cluster, None).expect("unjournaled run starts");
    let wall = t0.elapsed().as_secs_f64();

    assert_eq!(result.frame_hashes, reference_hashes());
    assert_eq!(result.report.faults_injected, 1);
    assert!(
        result.report.units_reassigned >= 2,
        "the lost unit and the one computed on top of it both re-issue"
    );
    assert!(result.report.duplicates_dropped >= 1);
    assert_eq!(result.report.workers_lost, 0);
    assert!(
        result.report.machines[1].failures >= 1,
        "the skip is charged"
    );
    assert!(
        wall < 30.0,
        "recovered on the spot, not at the lease timeout"
    );
}

// ---------------------------------------------------------------------
// Membership churn: workers joining mid-run, on every backend
// ---------------------------------------------------------------------

/// Poisson-ish churn on the simulator: six machines join at seeded
/// exponential inter-arrival times while two of the early joiners crash
/// mid-run. The frames must still match the fault-free single-worker
/// reference byte for byte, and the whole timeline must replay
/// deterministically.
#[test]
fn sim_poisson_churn_preserves_every_frame_byte() {
    use nowrender::cluster::JitterRng;

    let anim = newton::animation_sized(W, H, FRAMES);
    let machines: Vec<MachineSpec> = (0..6)
        .map(|i| MachineSpec::new(&format!("churn{i}"), if i == 0 { 2.0 } else { 1.0 }, 64.0))
        .collect();

    // the single-machine reference makespan calibrates the virtual churn
    // timeline, so the joins land while there is still work to pull
    let single = SimCluster::new(vec![MachineSpec::new("ref", 1.0, 64.0)]);
    let span = run_sim(&anim, &cfg(), &single).report.makespan_s;

    // seeded exponential inter-arrivals: the same seed always yields the
    // same join timeline, packed into the first stretch of the run
    let mut rng = JitterRng::new(0x9E37_2026);
    let mut plan = FaultPlan::none();
    let mut t = 0.0;
    for w in 1..6 {
        t += -(span / 24.0) * (1.0 - rng.next_f64()).ln();
        plan = plan.join_at(w, t);
    }
    // two early joiners leave again on their first leased unit
    plan = plan.crash_at(1, 0).crash_at(2, 0);

    let mut cluster = SimCluster::new(machines);
    cluster.faults = plan;
    cluster.recovery = RecoveryConfig {
        lease_timeout_s: 5.0,
        max_worker_failures: 1,
        ..RecoveryConfig::default()
    };

    let a = run_sim(&anim, &cfg(), &cluster);
    assert_eq!(
        a.frame_hashes,
        reference_hashes(),
        "churned membership must not change a single pixel"
    );
    assert_eq!(a.report.workers_lost, 2, "both churned leavers were seen");

    let b = run_sim(&anim, &cfg(), &cluster);
    assert_eq!(a.frame_hashes, b.frame_hashes);
    assert_eq!(a.report, b.report, "churn timeline must be deterministic");
}

/// Mid-run joiners on the thread backend: two workers start immediately,
/// two more join while the run is underway; output stays byte-identical.
#[test]
fn threads_midrun_join_preserves_every_frame_byte() {
    let anim = newton::animation_sized(W, H, FRAMES);
    let mut cluster = ThreadCluster::new(4);
    cluster.faults = FaultPlan::none().join_at(2, 0.15).join_at(3, 0.3);
    let result = run_threads_with(&anim, &cfg(), &cluster, None).expect("unjournaled run starts");
    assert_eq!(
        result.frame_hashes,
        reference_hashes(),
        "late joiners must not change a single pixel"
    );
}

// ---------------------------------------------------------------------
// Combined-fault soak: one ChaosPlan spec drives compute corruption,
// disk faults and (on TCP) network faults at once, and the frames must
// still match the fault-free reference byte for byte
// ---------------------------------------------------------------------

/// Thread-backend chaos soak. A single [`ChaosPlan`] string arms a
/// byzantine worker (corrupt results from its first unit on), a
/// straggling worker (25x slowdown: the others take the rest of the work
/// while it finishes its unit),
/// and two disk faults against the write-ahead journal. The two honest
/// workers join half a second in, so the byzantine one has the run to
/// itself until it is struck out: the quarantine does not depend on how
/// the threads are scheduled. The journal degrades gracefully, and every
/// frame still hashes identically to the fault-free single-worker run.
#[test]
fn threads_chaos_soak_is_byte_identical_under_combined_faults() {
    use nowrender::cluster::ChaosPlan;

    let anim = newton::animation_sized(W, H, FRAMES);
    let dir = scratch_dir("soak");
    let chaos: ChaosPlan =
        "seed=11|compute=0:join@0.5,1:corrupt@0,2:join@0.5,2:slow@4x25|disk=frame_:eio@0;run.journal:enospc@6"
            .parse()
            .expect("chaos spec parses");
    let disk = chaos.disk.arm();

    let mut cluster = ThreadCluster::new(3);
    cluster.faults = chaos.compute.clone();
    cluster.recovery = RecoveryConfig {
        lease_timeout_s: 30.0,
        ..RecoveryConfig::default()
    };
    let spec = JournalSpec::new(&dir).with_disk_faults(disk.clone());
    let result = run_threads_with(&anim, &cfg(), &cluster, Some(&spec)).expect("soak run starts");

    assert_eq!(
        result.frame_hashes,
        reference_hashes(),
        "corruption + straggler + dying disk must not change a single pixel"
    );
    assert_eq!(
        result.report.workers_quarantined, 1,
        "the byzantine worker is quarantined"
    );
    assert!(
        result.report.results_rejected >= 3,
        "one strike per rejected result up to the quarantine threshold \
         (got {})",
        result.report.results_rejected
    );
    assert!(
        disk.injected() >= 1,
        "at least one scheduled disk fault actually fired"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// TCP chaos soak: the same ChaosPlan grammar drives the real socket
/// backend. Connection 0 is byzantine (the master damages its results on
/// arrival), connection 1 is yanked off the wire mid-run; the survivors
/// finish the render byte-identically and the quarantine is visible in
/// the run report.
#[test]
fn tcp_chaos_soak_quarantines_and_stays_byte_identical() {
    use nowrender::cluster::ChaosPlan;
    use nowrender::core::{bind_tcp_master, run_tcp_master_with, serve_tcp_worker, TcpFarmConfig};

    let chaos: ChaosPlan = "seed=7|compute=0:corrupt@0|net=1:drop@6000"
        .parse()
        .expect("chaos spec parses");

    let anim = newton::animation_sized(W, H, FRAMES);
    let listener = bind_tcp_master("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();

    let workers: Vec<_> = (0..3)
        .map(|i| {
            let (anim, cfg, addr) = (anim.clone(), cfg(), addr.clone());
            std::thread::spawn(move || {
                // stagger connects so the accept order — and therefore
                // which connection each fault hits — is deterministic
                std::thread::sleep(std::time::Duration::from_millis(60 * i));
                serve_tcp_worker(&anim, &cfg, &addr, &Default::default())
            })
        })
        .collect();

    let mut tcp = TcpFarmConfig::new(3);
    tcp.chaos = chaos;
    let result = run_tcp_master_with(listener, &anim, &cfg(), &tcp, None).expect("master");

    assert_eq!(
        result.frame_hashes,
        reference_hashes(),
        "byzantine results + a dropped connection must not change a pixel"
    );
    assert_eq!(result.report.workers_joined, 3);
    assert_eq!(
        result.report.workers_quarantined, 1,
        "the corrupt connection is quarantined"
    );
    assert!(
        result.report.results_rejected >= 3,
        "each damaged result drew a strike (got {})",
        result.report.results_rejected
    );
    for w in workers {
        // quarantined and dropped workers see dead sockets; that's the point
        let _ = w.join().expect("worker thread");
    }
}

/// Integrity property: flip any single bit of a `UnitOutput`'s wire
/// encoding and the master must detect it — either the decode fails or
/// the content checksum mismatches. No tampered payload is ever
/// integrated, and the master never panics.
#[test]
fn any_single_bit_flip_on_the_wire_is_detected_and_never_integrated() {
    use nowrender::cluster::{Decoder, Encoder, MasterLogic, Wire, WorkerLogic};
    use nowrender::core::farm::UnitOutput;
    use nowrender::core::{FarmMaster, FarmWorker};
    use nowrender::grid::GridSpec;
    use std::sync::Arc;

    let anim = Arc::new(newton::animation_sized(W, H, 2));
    let spec = GridSpec::for_scene(anim.swept_bounds(), 4096);
    let mut master = FarmMaster::new(&anim, &cfg(), 1);
    let mut worker = FarmWorker::new(anim.clone(), spec, cfg());

    let unit = master.assign(0).expect("first unit");
    let (out, _) = worker.perform(&unit);
    assert!(out.verify(), "the worker ships a sealed result");
    let mut e = Encoder::new();
    out.wire_encode(&mut e);
    let wire = e.finish();

    let mut rejected_by_decode = 0u64;
    let mut rejected_by_checksum = 0u64;
    for bit in 0..wire.len() * 8 {
        let mut bytes = wire.clone();
        bytes[bit / 8] ^= 1 << (bit % 8);
        let mut d = Decoder::new(&bytes);
        match UnitOutput::wire_decode(&mut d) {
            Err(_) => rejected_by_decode += 1,
            Ok(tampered) => {
                assert!(
                    !tampered.verify(),
                    "bit {bit}: tampered output passed the checksum"
                );
                // feeding it to the master is a rejection, never a panic
                let before = master.results_rejected;
                assert!(
                    master.integrate(0, unit, tampered).is_none(),
                    "bit {bit}: tampered output was integrated"
                );
                assert_eq!(master.results_rejected, before + 1);
                rejected_by_checksum += 1;
            }
        }
    }
    assert_eq!(
        rejected_by_decode + rejected_by_checksum,
        (wire.len() * 8) as u64,
        "every single-bit flip was detected"
    );
    assert!(
        rejected_by_checksum > 0,
        "some flips decode cleanly and must fall to the checksum"
    );
    assert_eq!(master.units_done, 0, "nothing tampered was ever counted");

    // and the genuine result still integrates after all that abuse
    assert!(master.integrate(0, unit, out).is_some());
    assert_eq!(master.units_done, 1);
}

/// The service's TCP driver arms the plan's disk section on every per-job
/// journal and frame write, like the one-shot master does on its own: the
/// second frame's file write fails with `EIO`, that file is the one
/// missing (the job's records stop there, its later frames are still
/// written), and the job still completes with the fault-free job hash.
#[test]
fn service_disk_faults_are_armed_by_the_tcp_driver() {
    use nowrender::core::service::{run_service_master, ServiceConfig, ServiceMaster};
    use nowrender::core::{bind_tcp_master, serve_service_worker, JobSpec, JobState};
    use nowrender::core::{ServiceClient, TcpFarmConfig};

    let run = |tag: &str, chaos: &str| {
        let root = scratch_dir(tag);
        let listener = bind_tcp_master("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let mut tcp = TcpFarmConfig::new(1);
        tcp.chaos = chaos.parse().expect("chaos spec parses");
        let master = ServiceMaster::new(ServiceConfig {
            root: Some(root.clone()),
            ..ServiceConfig::default()
        })
        .expect("service");
        let master = std::thread::spawn(move || run_service_master(listener, master, &tcp));
        let mut client = ServiceClient::connect(&addr, 30.0).expect("client");
        let spec = JobSpec::new("demo:glassball:3:24x18");
        let id = client.submit(&spec).expect("transport").expect("admitted");
        client.drain().expect("drain");
        let worker = std::thread::spawn(move || {
            serve_service_worker(&addr, &Default::default(), &RenderSettings::default())
        });
        let (master, _) = master.join().expect("master thread").expect("service");
        worker.join().expect("worker thread").expect("worker");
        let status = master.status(id).expect("job known");
        assert_eq!(status.state, JobState::Done);
        (status.job_hash, root.join("jobs").join("job_000001"))
    };

    let (clean_hash, clean_dir) = run("svc-clean", "");
    let (hash, dir) = run("svc-eio", "seed=5|disk=frame_0001:eio@0");
    assert_eq!(hash, clean_hash, "a dying disk must not change a pixel");
    assert!(clean_dir.join("frame_0001.tga").is_file());
    assert!(dir.join("frame_0000.tga").is_file());
    assert!(
        !dir.join("frame_0001.tga").exists(),
        "the scheduled write fault never fired"
    );
    assert!(dir.join("frame_0002.tga").is_file(), "frames outlive it");
    for d in [clean_dir, dir] {
        let _ = std::fs::remove_dir_all(d.parent().and_then(|p| p.parent()).expect("root"));
    }
}

/// A TCP worker yanked off the wire *while a unit is leased to it*: a
/// deterministic fault plan hard-drops its connection after 5000 bytes.
/// The lease requeues to the survivor and the frames stay byte-identical
/// to the fault-free reference.
///
/// The *first* accepted connection carries the fault: once it dies with
/// units outstanding, the master cannot finish without the second
/// (staggered) worker, so the run provably waits for it to join no
/// matter how fast the machine renders — dropping the second connection
/// instead would race its 60 ms connect against total job time.
#[test]
fn tcp_leave_while_leased_requeues_byte_identically() {
    use nowrender::cluster::NetFaultPlan;
    use nowrender::core::{bind_tcp_master, run_tcp_master_with, serve_tcp_worker, TcpFarmConfig};

    let anim = newton::animation_sized(W, H, FRAMES);
    let listener = bind_tcp_master("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();

    let workers: Vec<_> = (0..2)
        .map(|i| {
            let (anim, cfg, addr) = (anim.clone(), cfg(), addr.clone());
            std::thread::spawn(move || {
                // stagger the connects so accept order (and therefore
                // which connection the fault plan hits) is deterministic
                std::thread::sleep(std::time::Duration::from_millis(60 * i));
                serve_tcp_worker(&anim, &cfg, &addr, &Default::default())
            })
        })
        .collect();

    let mut tcp = TcpFarmConfig::new(2);
    // the first accepted connection dies mid-run, mid-lease
    tcp.chaos.net = NetFaultPlan::none().drop_after(0, 5_000);
    let result = run_tcp_master_with(listener, &anim, &cfg(), &tcp, None).expect("master");

    assert_eq!(
        result.frame_hashes,
        reference_hashes(),
        "a worker leaving while leased must not change a single pixel"
    );
    assert_eq!(result.report.workers_joined, 2);
    assert_eq!(
        result.report.workers_left, 1,
        "the dropped worker left early"
    );
    assert!(result.report.machines.iter().any(|m| m.lost));

    let mut served = 0;
    for w in workers {
        // the dropped worker sees a dead socket; that error is the point
        if let Ok(s) = w.join().expect("worker thread") {
            served += s.units;
        }
    }
    assert!(served <= result.units_done);
}
