//! Progressive frame streaming over the service wire: a client that
//! registers a watch before the job's first unit receives every frame as
//! the master finishes it, applies each to one rolling canvas, and can
//! prove bit-for-bit agreement with the master's job hash and with the
//! farm's frame hashes — the "distributed framebuffer" contract. Also
//! covers a worker serving two tenants: two spellings of the same scene
//! render the same unit to byte-identical updates.

use nowrender::anim::scenes::from_spec;
use nowrender::cluster::{ConnectConfig, WorkerLogic, WorkerSummary};
use nowrender::coherence::PixelRegion;
use nowrender::core::partition::RenderUnit;
use nowrender::core::service::{run_service_master, ServiceConfig, ServiceMaster};
use nowrender::core::{
    bind_tcp_master, run_threads, serve_service_worker, CostModel, FarmConfig, JobSpec, JobState,
    PartitionScheme, ServiceClient, ServiceUnit, ServiceWorker, TcpFarmConfig,
};
use nowrender::raytrace::RenderSettings;
use std::thread::JoinHandle;

/// The frame hashes of `scene` rendered by `run_threads` under a service
/// job's farm configuration (sequence division, coherence, the default
/// job grid).
fn farm_hashes(scene: &str) -> Vec<u64> {
    let anim = from_spec(scene).expect("demo spec");
    let cfg = FarmConfig {
        scheme: PartitionScheme::SequenceDivision { adaptive: true },
        grid_voxels: JobSpec::default().grid_voxels,
        ..FarmConfig::paper_default()
    };
    run_threads(&anim, &cfg, 2).frame_hashes
}

/// A service worker thread on `addr`.
fn spawn_worker(addr: &str) -> JoinHandle<WorkerSummary> {
    let addr = addr.to_string();
    std::thread::spawn(move || {
        serve_service_worker(&addr, &ConnectConfig::default(), &RenderSettings::default())
            .expect("service worker")
    })
}

#[test]
fn watch_stream_rebuilds_byte_identical_frames_over_tcp() {
    let listener = bind_tcp_master("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let tcp = TcpFarmConfig::new(1);
    let master = ServiceMaster::new(ServiceConfig::default()).expect("in-memory service");
    let master_thread =
        std::thread::spawn(move || run_service_master(listener, master, &tcp).expect("service"));

    // register the watch before any worker exists, so the stream is
    // guaranteed to cover the job from its first unit
    let mut c = ServiceClient::connect(&addr, 30.0).expect("client");
    let id = c
        .submit(&JobSpec::new("demo:glassball:3:24x18"))
        .expect("transport")
        .expect("admitted");
    let (st, w, h) = c
        .watch_start(id)
        .expect("transport")
        .expect("job is watchable");
    assert_eq!(st.state, JobState::Queued);
    assert_eq!((w, h), (24, 18));

    let worker_thread = spawn_worker(&addr);

    let mut boundaries = 0u32;
    let report = c
        .watch_stream(&st, w, h, |ps| {
            assert_eq!(ps.id, id);
            boundaries += 1;
        })
        .expect("watch stream");
    assert_eq!(report.status.state, JobState::Done);
    assert_eq!(report.status.frames_done, 3);
    assert!(report.deltas > 0, "no frame deltas streamed");
    assert!(report.pixels > 0, "no pixels streamed");
    assert!(
        boundaries >= 3,
        "expected a progress push per frame boundary, saw {boundaries}"
    );
    assert!(
        report.verified,
        "reassembled frames must hash to the job hash"
    );
    assert_eq!(report.deltas, 3, "one push per finished frame");
    assert_eq!(report.frame_hashes, farm_hashes("demo:glassball:3:24x18"));
    // the stream carries compacted tiles, not 7-byte raw pixels
    assert!(
        report.delta_bytes < report.pixels * 7,
        "stream not compacted: {} bytes for {} pixels",
        report.delta_bytes,
        report.pixels
    );

    // watching a finished job is answered, but there is nothing to stream
    let mut late = ServiceClient::connect(&addr, 30.0).expect("late client");
    let (st2, _, _) = late.watch_start(id).expect("transport").expect("known job");
    assert!(st2.state.terminal());
    let empty = late.watch_stream(&st2, w, h, |_| {}).expect("no-op stream");
    assert_eq!(empty.deltas, 0);
    assert!(!empty.verified);

    // unknown ids are rejected with a reason, same as STATUS
    let reason = late
        .watch_start(999)
        .expect("transport")
        .expect_err("rejected");
    assert_eq!(reason, "unknown job id");

    c.drain().expect("drain");
    worker_thread.join().expect("worker thread");
    let (m, _report) = master_thread.join().expect("master thread");
    assert_eq!(m.counters.completed, 1);
}

/// A job long enough that the second of two workers steals its tail:
/// results reach the master out of frame order, yet the watcher
/// gets them in frame order and its frame hashes are the farm's.
#[test]
fn watch_of_a_job_split_over_two_workers_matches_the_farm() {
    const SCENE: &str = "demo:newton:24:48x36";
    let listener = bind_tcp_master("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let tcp = TcpFarmConfig::new(1);
    let master = ServiceMaster::new(ServiceConfig::default()).expect("in-memory service");
    let master_thread =
        std::thread::spawn(move || run_service_master(listener, master, &tcp).expect("service"));

    let mut c = ServiceClient::connect(&addr, 60.0).expect("client");
    let id = c
        .submit(&JobSpec::new(SCENE))
        .expect("transport")
        .expect("admitted");
    let (st, w, h) = c.watch_start(id).expect("transport").expect("watchable");
    let workers = [spawn_worker(&addr), spawn_worker(&addr)];
    let report = c.watch_stream(&st, w, h, |_| {}).expect("watch stream");
    c.drain().expect("drain");
    let units: Vec<u64> = workers
        .map(|w| w.join().expect("worker thread").units)
        .into();
    master_thread.join().expect("master thread");

    assert_eq!(report.status.state, JobState::Done);
    assert!(units.iter().all(|&u| u >= 1), "a worker idled: {units:?}");
    assert!(report.verified, "watched frames must hash to the job hash");
    assert_eq!(report.deltas, 24);
    assert_eq!(report.frame_hashes, farm_hashes(SCENE));
}

#[test]
fn two_spellings_of_one_scene_render_the_same_update() {
    let mut w = ServiceWorker::new(RenderSettings::default(), CostModel::default());
    let unit = |job: u64, scene: &str| ServiceUnit {
        job,
        scene: scene.to_string(),
        coherence: true,
        grid_voxels: 8,
        unit: RenderUnit {
            region: PixelRegion {
                x0: 0,
                y0: 0,
                w: 8,
                h: 6,
            },
            frame: 0,
            restart: true,
        },
    };
    // "demo:glassball" defaults to 10 frames at 160x120 — the same scene
    // content as the fully-spelled spec, submitted by a different tenant
    let (a, _) = w.perform(&unit(1, "demo:glassball"));
    let (b, _) = w.perform(&unit(2, "demo:glassball:10:160x120"));
    assert_eq!(a.update, b.update);
}
