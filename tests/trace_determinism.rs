//! Golden-trace harness: the normalized (deterministic) view of a traced
//! farm run must be byte-identical across repeat runs and across tile-pool
//! thread counts.
//!
//! This is the acceptance test for the observability layer's central
//! contract (DESIGN.md §10): everything flagged `det` — ray/mark/pixel
//! counters, voxel-step and marks-per-ray histograms, per-frame coherence
//! instants and frame fingerprints — is a pure function of (scene, config),
//! while wall/virtual timings, tile schedules and steal events stay out of
//! the normalized stream. A regression here means either nondeterminism
//! leaked into the renderer, or timing-dependent data was wrongly flagged
//! deterministic.
//!
//! The `ci_normalized_trace_file` test additionally writes the normalized
//! stream to `target/tmp/`, named by `NOW_THREADS`; CI runs it under
//! `NOW_THREADS=1` and `NOW_THREADS=3` and diffs the two files, proving the
//! invariance across *processes*, not just within one.

use nowrender::anim::scenes::newton;
use nowrender::cluster::{MachineSpec, SimCluster};
use nowrender::core::{run_sim, CostModel, FarmConfig, PartitionScheme};
use nowrender::raytrace::RenderSettings;
use nowrender::trace;
use nowrender::trace::export::chrome_json;

const W: u32 = 48;
const H: u32 = 36;
const FRAMES: usize = 4;

fn farm_cfg(threads: u32) -> FarmConfig {
    FarmConfig {
        scheme: PartitionScheme::FrameDivision {
            tile_w: 24,
            tile_h: 18,
            adaptive: true,
        },
        coherence: true,
        settings: RenderSettings {
            threads,
            trace: true,
            ..RenderSettings::default()
        },
        cost: CostModel::default(),
        grid_voxels: 4096,
        keep_frames: false,
    }
}

/// Run the paper cluster over the Newton scene with the recorder on and
/// return the run's trace snapshot.
fn traced_run(threads: u32) -> trace::Snapshot {
    let anim = newton::animation_sized(W, H, FRAMES);
    let cfg = farm_cfg(threads);
    let (result, snap) =
        trace::capture(|| run_sim(&anim, &cfg, &SimCluster::new(MachineSpec::paper_cluster())));
    assert_eq!(result.frame_hashes.len(), FRAMES);
    snap
}

/// The golden-trace acceptance check: tile-pool thread count must not leak
/// into the normalized stream.
#[test]
fn normalized_trace_is_thread_pool_invariant() {
    let serial = traced_run(1).normalized();
    let pooled = traced_run(3).normalized();
    // sanity: the deterministic stream actually contains the interesting
    // signals, not just an empty header
    for needle in [
        "ev farm.frame_hash",
        "ev coh.frame",
        "ctr farm.rays",
        "ctr rays.primary",
        "hist grid.steps_per_ray",
        "hist coh.marks_per_ray",
    ] {
        assert!(serial.contains(needle), "normalized stream lost {needle}");
    }
    now_testkit::golden::assert_same_stream("threads=1 vs threads=3", &serial, &pooled);
}

/// Same configuration twice must reproduce the trace exactly.
#[test]
fn normalized_trace_is_stable_run_to_run() {
    let a = traced_run(2).normalized();
    let b = traced_run(2).normalized();
    now_testkit::golden::assert_same_stream("run 1 vs run 2", &a, &b);
}

/// Thread-count-dependent data must stay *out* of the normalized stream
/// while still being recorded for the exporters.
#[test]
fn nondeterministic_data_is_recorded_but_not_normalized() {
    let snap = traced_run(3);
    let norm = snap.normalized();
    assert!(
        snap.counters.contains_key("pool.tiles"),
        "pool counters should be recorded"
    );
    assert!(
        !norm.contains("pool.tiles") && !norm.contains("pool.steal"),
        "pool scheduling data leaked into the deterministic stream"
    );
    assert!(
        !norm.contains("farm.units_per_machine"),
        "per-machine unit split is timing-dependent"
    );
    // spans carry timestamps, so none belong in the normalized view
    // (the render.pixels_shaded *counter* is det; the span is not)
    assert!(!norm.contains("ev render.pixels"));
    assert!(!norm.contains("ev pool.tile"));
}

/// The Chrome exporter must emit structurally sound JSON for a real run
/// (the unit tests cover exact shapes; this guards the integration).
#[test]
fn chrome_export_shape_holds_for_a_farm_run() {
    let snap = traced_run(2);
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

/// Write the normalized stream for the CI cross-process diff. The file
/// name carries the `NOW_THREADS` value (the pool resolves `threads: 0`
/// from it), so two differently-threaded CI invocations produce two files
/// that must be byte-identical.
#[test]
fn ci_normalized_trace_file() {
    let label = std::env::var("NOW_THREADS").unwrap_or_else(|_| "auto".into());
    let norm = traced_run(0).normalized();
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(dir).expect("create target tmp dir");
    let path = dir.join(format!("trace-normalized-{label}.txt"));
    std::fs::write(&path, &norm).expect("write normalized trace");
    assert!(norm.starts_with("# now-trace normalized v1"));
}
