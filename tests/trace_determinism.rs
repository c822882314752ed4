//! Golden-trace harness: the normalized (deterministic) view of a traced
//! farm run must be byte-identical across repeat runs, across the
//! scheduling of a thread pool's workers and across processes.
//!
//! This is the acceptance test for the observability layer's central
//! contract (DESIGN.md §10): everything flagged `det` — ray/mark/pixel
//! counters, voxel-step and marks-per-ray histograms, per-frame coherence
//! instants and frame fingerprints — is a pure function of (scene, config),
//! while wall/virtual timings and per-machine splits stay out of the
//! normalized stream. A regression here means either nondeterminism
//! leaked into the renderer, or timing-dependent data was wrongly flagged
//! deterministic.
//!
//! The `ci_normalized_trace_file` test additionally writes the normalized
//! stream to `target/tmp/trace-normalized.txt`; CI runs it in two
//! processes, which seed their `HashMap`s differently, and diffs the two
//! files, proving the invariance across *processes*, not just within one.
//!
//! `a_journaled_run_syncs_once_per_frame` reads the journal's counters
//! from a trace: no other test in this file journals, so nothing else
//! feeds them while it captures.

use nowrender::anim::scenes::{glassball, newton};
use nowrender::cluster::{MachineSpec, SimCluster};
use nowrender::core::{
    bind_tcp_master, run_sim, run_sim_with, run_tcp_master_with, run_threads, serve_tcp_worker,
    CostModel, DirtyTest, FarmConfig, FarmResult, JournalSpec, PartitionScheme, TcpFarmConfig,
};
use nowrender::raytrace::RenderSettings;
use nowrender::trace;
use nowrender::trace::export::chrome_json;

const W: u32 = 48;
const H: u32 = 36;
const FRAMES: usize = 4;

fn farm_cfg() -> FarmConfig {
    FarmConfig {
        scheme: PartitionScheme::FrameDivision {
            tile_w: 24,
            tile_h: 18,
        },
        coherence: true,
        dirty_test: DirtyTest::Exact,
        settings: RenderSettings {
            trace: true,
            ..RenderSettings::default()
        },
        cost: CostModel::default(),
        grid_voxels: 4096,
    }
}

/// Run the paper cluster over the Newton scene with the recorder on and
/// return the run's trace snapshot.
fn traced_run() -> trace::Snapshot {
    let anim = newton::animation_sized(W, H, FRAMES);
    let cfg = farm_cfg();
    let (result, snap) =
        trace::capture(|| run_sim(&anim, &cfg, &SimCluster::new(MachineSpec::paper_cluster())));
    assert_eq!(result.frame_hashes.len(), FRAMES);
    snap
}

/// Worker threads finish in whatever order the OS schedules them; none
/// of that may leak into the normalized stream, and the frames must be
/// the simulator's.
#[test]
fn normalized_trace_is_thread_pool_invariant() {
    let anim = newton::animation_sized(W, H, FRAMES);
    let workers = MachineSpec::paper_cluster().len();
    let pooled = || {
        let (result, snap) = trace::capture(|| run_threads(&anim, &farm_cfg(), workers));
        (result.frame_hashes, snap.normalized())
    };
    let (hashes, a) = pooled();
    let (_, b) = pooled();
    now_testkit::golden::assert_same_stream("thread pool run 1 vs run 2", &a, &b);
    // captured too: the config traces, and an uncaptured run would feed
    // whichever capture another test holds open
    let (simulated, _) = trace::capture(|| run_sim(&anim, &farm_cfg(), &SimCluster::paper()));
    assert_eq!(hashes, simulated.frame_hashes);
}

/// Same configuration twice must reproduce the trace exactly.
#[test]
fn normalized_trace_is_stable_run_to_run() {
    let a = traced_run().normalized();
    let b = traced_run().normalized();
    // sanity: the deterministic stream actually contains the interesting
    // signals, not just an empty header
    for needle in [
        "ev farm.frame_hash",
        "ev coh.frame",
        "ctr farm.rays",
        "ctr rays.primary",
        "hist grid.steps_per_ray",
        "hist coh.marks_per_ray",
        "ctr coh.change_sets",
        "ctr coh.scan_records",
        "ctr coh.scan_voxel_hits",
        "ctr coh.scan_exact_tests",
        "ctr coh.engines_built",
    ] {
        assert!(a.contains(needle), "normalized stream lost {needle}");
    }
    now_testkit::golden::assert_same_stream("run 1 vs run 2", &a, &b);
}

/// Schedule-dependent data must stay *out* of the normalized stream
/// while still being recorded for the exporters.
#[test]
fn nondeterministic_data_is_recorded_but_not_normalized() {
    let snap = traced_run();
    let norm = snap.normalized();
    assert!(
        snap.hists.contains_key("farm.units_per_machine"),
        "the per-machine unit split should be recorded"
    );
    assert!(
        !norm.contains("farm.units_per_machine"),
        "per-machine unit split is timing-dependent"
    );
    // spans carry timestamps, so none belong in the normalized view
    // (the render.pixels_shaded *counter* is det; the span is not)
    assert!(snap.events.iter().any(|e| e.name == "render.pixels_par"));
    assert!(!norm.contains("ev render.pixels"));
}

/// The Chrome exporter must emit structurally sound JSON for a real run
/// (the unit tests cover exact shapes; this guards the integration).
#[test]
fn chrome_export_shape_holds_for_a_farm_run() {
    let snap = traced_run();
    let json = chrome_json(&snap);
    assert!(json.starts_with('['));
    assert!(json.trim_end().ends_with(']'));
    for ph in [
        "\"ph\":\"M\"",
        "\"ph\":\"X\"",
        "\"ph\":\"i\"",
        "\"ph\":\"C\"",
    ] {
        assert!(json.contains(ph), "missing phase {ph}");
    }
    // names never contain braces/quotes, so bracket balance is a valid check
    let opens = json.matches('{').count();
    let closes = json.matches('}').count();
    assert_eq!(opens, closes, "unbalanced JSON objects");
}

/// Write the normalized stream for the CI cross-process diff: CI runs
/// this test in two processes, copying the file aside in between, and
/// the two files must be byte-identical.
#[test]
fn ci_normalized_trace_file() {
    let norm = traced_run().normalized();
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(dir).expect("create target tmp dir");
    let path = dir.join("trace-normalized.txt");
    std::fs::write(&path, &norm).expect("write normalized trace");
    assert!(norm.starts_with("# now-trace normalized v1"));
}

/// Group commit: a UnitDone record is staged and made durable by its
/// frame's FrameDone sync, so a journaled run issues one journal
/// `sync_data` per frame plus one for creation and one for the RunHeader,
/// whatever its unit count — while every record is still written.
#[test]
fn a_journaled_run_syncs_once_per_frame() {
    let frames: u64 = 3;
    let anim = glassball::animation_sized(32, 24, frames as usize);
    for (tile_w, units) in [(16, 6), (8, 12)] {
        let cfg = FarmConfig {
            scheme: PartitionScheme::FrameDivision { tile_w, tile_h: 24 },
            ..farm_cfg()
        };
        let dir =
            std::env::temp_dir().join(format!("now_trace_syncs_{tile_w}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (result, snap) = trace::capture(|| {
            run_sim_with(
                &anim,
                &cfg,
                &SimCluster::paper(),
                Some(&JournalSpec::new(&dir)),
            )
        });
        let _ = std::fs::remove_dir_all(&dir);
        let result = result.expect("journaled run");
        assert_eq!(result.units_done, units);
        let counter = |name: &str| snap.counters.get(name).map(|c| c.value);
        assert_eq!(counter("journal.records"), Some(1 + units + frames));
        assert_eq!(
            counter("journal.syncs"),
            Some(2 + frames),
            "{units} units: one sync per FrameDone, plus creation and header"
        );
    }
}

/// A farm worker computes the animation's change sets once, building its
/// mover mask, and its tile renderers look them up: W workers over F
/// frames compute at most W x (F - 1), however many tiles, restarts and
/// steals the run has. The scan counts the records it reads, those that
/// cross a changed voxel, and the exact bound tests the box reject lets
/// through.
#[test]
fn farm_workers_compute_each_change_set_once() {
    let anim = newton::animation_sized(W, H, FRAMES);
    let cfg = FarmConfig {
        scheme: PartitionScheme::FrameDivision {
            tile_w: 12,
            tile_h: 12,
        },
        ..farm_cfg()
    };
    let cluster = SimCluster::paper();
    let (result, snap) = trace::capture(|| run_sim(&anim, &cfg, &cluster));
    assert_eq!(result.frame_hashes.len(), FRAMES);
    let counter = |name: &str| snap.counters.get(name).map_or(0, |c| c.value);
    let (workers, transitions) = (cluster.machines.len() as u64, FRAMES as u64 - 1);
    let change_sets = counter("coh.change_sets");
    assert!(
        change_sets >= transitions && change_sets <= workers * transitions,
        "{change_sets} change sets: {workers} workers, {transitions} transitions, 16 tiles"
    );
    let (read, voxel_hits, exact) = (
        counter("coh.scan_records"),
        counter("coh.scan_voxel_hits"),
        counter("coh.scan_exact_tests"),
    );
    assert!(
        read > voxel_hits && voxel_hits > 0 && exact > 0,
        "{read} {voxel_hits} {exact}"
    );
}

/// A region renderer builds its one engine when it is built and never
/// another, and it renders a frame 0 once: a coherent farm's
/// `coh.engines_built` equals its `coh.frame` instants at `frame` 0, on
/// the simulator, on threads and over loopback TCP.
#[test]
fn a_farm_builds_one_engine_per_renderer() {
    let anim = newton::animation_sized(W, H, FRAMES);
    let cfg = farm_cfg();
    let tcp = || {
        let listener = bind_tcp_master("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let (anim, cfg, addr) = (anim.clone(), cfg.clone(), addr.clone());
                std::thread::spawn(move || {
                    serve_tcp_worker(&anim, &cfg, &addr, &Default::default())
                })
            })
            .collect();
        let tcp = TcpFarmConfig::new(2);
        let result = run_tcp_master_with(listener, &anim, &cfg, &tcp, None).expect("master");
        for worker in workers {
            worker.join().expect("worker thread").expect("worker");
        }
        result
    };
    let runs: [(&str, &dyn Fn() -> FarmResult); 3] = [
        ("sim", &|| run_sim(&anim, &cfg, &SimCluster::paper())),
        ("threads", &|| run_threads(&anim, &cfg, 3)),
        ("tcp", &tcp),
    ];
    for (name, run) in runs {
        let (result, snap) = trace::capture(run);
        assert_eq!(result.frame_hashes.len(), FRAMES, "{name}");
        let first_frames = snap
            .events
            .iter()
            .filter(|e| e.name == "coh.frame" && e.args.contains(&("frame", 0)))
            .count() as u64;
        let engines = snap.counters.get("coh.engines_built").map(|c| c.value);
        assert!(first_frames > 0, "{name}: no renderer rendered a frame");
        assert_eq!(engines, Some(first_frames), "{name}");
    }
}
