//! Machine-readable smoke benchmarks: a fixed set of kernels timed with
//! `std::time::Instant` and written as JSON to `BENCH_render.json` at the
//! repository root, so CI can upload the file as an artifact and diff runs.
//!
//! Reported metrics:
//!
//! * `tracer_frame` — one Newton frame through the serial tracer:
//!   ns/frame, rays per second and `ns_per_ray`.
//! * `grid_walk` — the frame's rays (every kind, each over the `[0, t_max]`
//!   it travelled) walked through the grid by [`IndexWalk`] alone, no
//!   object tested: `ns_per_step` is the bare cost of the one walk the
//!   tracer takes per ray, `steps` the voxels visited.
//! * `coherence_marks` — the same frame with a [`CoherenceEngine`]
//!   recording every ray: voxel marks per second, `ns_per_mark` (the time
//!   recording adds over `tracer_frame`, per mark), `log_bytes_per_mark`,
//!   and `record_ratio` = this record's `mean_ns` over `tracer_frame`'s —
//!   what a coherent first frame costs relative to a plain one. CI gates
//!   it at 2.0 (both timings come from one host, so the ratio holds on a
//!   1-core runner); numerator and denominator shrink together when the
//!   walk gets cheaper, so track `ns_per_mark` for the recording cost.
//! * `changed_voxels` — scene-diff change detection on the glass-ball
//!   animation (the sort+dedup path that replaced the `BTreeSet`).
//! * `pool_speedup` — the same full frame rendered by the intra-worker
//!   tile pool at 1 thread and at N threads (default 4, override with
//!   `BENCH_THREADS`). `speedup` is the *deterministic* schedule speedup
//!   (total rays / critical-path rays from [`ParallelStats`]): a pure
//!   function of the scene and tile plan, comparable across hosts and the
//!   number CI ratchets with `floor`. `wall_speedup` is the measured
//!   wall-clock ratio alongside `host_cores` — on a single-core host it
//!   hovers near 1.0 however good the schedule is.
//! * `render_matrix_*` — per-frame timing and deterministic speedup for
//!   64x48 and 320x240 at 1/2/4 pool threads.
//! * `coherence_entry` — path-log footprint after one fully recorded
//!   320x240 frame: entries (one per stored mark), log bytes, amortized
//!   `entry_bytes`, and the ratio vs a fixed 8-byte `(pixel, gen)` pair
//!   per mark.
//!
//! The top-level `"trace"` key carries the `now-trace` counters and
//! histograms (ray mix, voxel steps per ray, marks per ray) from one
//! instrumented frame, so the CI artifact records *what* the kernels did,
//! not just how long they took.
//!
//! Usage: `bench_json [--smoke]` — `--smoke` (or `BENCH_SMOKE=1`) shrinks
//! frame sizes and iteration counts for fast CI runs. The output path can
//! be overridden with `BENCH_OUT=/path/to/file.json`.

use now_anim::scenes::{glassball, newton};
use now_coherence::{changed_voxels, ChangeSet, CoherenceEngine};
use now_grid::dda::IndexWalk;
use now_grid::GridSpec;
use now_math::Interval;
use now_raytrace::{
    render_frame, render_frame_par, GridAccel, NullListener, ParallelStats, RayStats,
    RecordingListener, RenderSettings,
};
use std::hint::black_box;
use std::time::Instant;

/// Run `f` `iters` times and return (mean seconds, min seconds) per call.
fn time(iters: u32, mut f: impl FnMut()) -> (f64, f64) {
    // one warm-up call so first-touch costs don't pollute the minimum
    f();
    let mut min = f64::INFINITY;
    let mut total = 0.0;
    for _ in 0..iters {
        let t0 = Instant::now();
        f();
        let dt = t0.elapsed().as_secs_f64();
        total += dt;
        min = min.min(dt);
    }
    (total / iters as f64, min)
}

struct Record {
    name: &'static str,
    mean_ns: f64,
    min_ns: f64,
    /// Extra `"key": value` metric pairs, already JSON-formatted.
    extra: Vec<(String, String)>,
}

fn json_escape_free(s: &str) -> &str {
    // all names/keys in this binary are plain identifiers
    debug_assert!(s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'));
    s
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke")
        || std::env::var("BENCH_SMOKE")
            .map(|v| v != "0")
            .unwrap_or(false);
    let pool_threads: u32 = std::env::var("BENCH_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let (fw, fh, iters) = if smoke { (64, 48, 5) } else { (96, 72, 20) };
    let (pw, ph, pool_iters) = if smoke { (128, 96, 3) } else { (240, 180, 5) };

    let mut records: Vec<Record> = Vec::new();

    // --- serial tracer: one Newton frame, over the grid the engine below
    // logs paths of ---
    let scene = newton::scene(fw, fh);
    let spec = GridSpec::for_scene(scene.bounds(), 24 * 24 * 24);
    let accel = GridAccel::build_with_spec(&scene, spec);
    let settings = RenderSettings::default();
    let mut frame_rays = 0u64;
    let (mean, min) = time(iters, || {
        let mut stats = RayStats::default();
        let fb = render_frame(
            black_box(&scene),
            &accel,
            &settings,
            &mut NullListener,
            &mut stats,
        );
        frame_rays = stats.total_rays();
        black_box(fb);
    });
    let tracer_mean = mean;
    records.push(Record {
        name: "tracer_frame",
        mean_ns: mean * 1e9,
        min_ns: min * 1e9,
        extra: vec![
            ("width".into(), fw.to_string()),
            ("height".into(), fh.to_string()),
            ("rays".into(), frame_rays.to_string()),
            (
                "rays_per_s".into(),
                format!("{:.0}", frame_rays as f64 / min),
            ),
            (
                "ns_per_ray".into(),
                format!("{:.1}", min * 1e9 / frame_rays as f64),
            ),
        ],
    });

    // --- the walk alone: the same rays through the grid, nothing tested ---
    let mut census = RecordingListener::default();
    render_frame(
        &scene,
        &accel,
        &settings,
        &mut census,
        &mut RayStats::default(),
    );
    let mut steps = 0u64;
    let (mean, min) = time(iters, || {
        steps = 0;
        for r in &census.rays {
            if let Some(mut walk) = IndexWalk::new(&spec, &r.ray, Interval::new(0.0, r.t_max)) {
                steps += 1;
                while let Some(code) = walk.advance() {
                    black_box(code);
                    steps += 1;
                }
            }
        }
        black_box(steps);
    });
    records.push(Record {
        name: "grid_walk",
        mean_ns: mean * 1e9,
        min_ns: min * 1e9,
        extra: vec![
            ("rays".into(), census.rays.len().to_string()),
            ("steps".into(), steps.to_string()),
            (
                "ns_per_step".into(),
                format!("{:.2}", min * 1e9 / steps as f64),
            ),
        ],
    });

    // --- coherence marking throughput: same frame, engine listening ---
    let mut marks = 0u64;
    let mut log_bytes = 0u64;
    let (mean, min) = time(iters, || {
        let mut engine = CoherenceEngine::new(spec, (fw * fh) as usize);
        let mut stats = RayStats::default();
        black_box(render_frame(
            black_box(&scene),
            &accel,
            &settings,
            &mut engine,
            &mut stats,
        ));
        marks = engine.stats().marks;
        log_bytes = engine.stats().list_bytes;
    });
    assert_eq!(
        steps, marks,
        "the tracer's recorded paths are not the standalone walks of its rays"
    );
    records.push(Record {
        name: "coherence_marks",
        mean_ns: mean * 1e9,
        min_ns: min * 1e9,
        extra: vec![
            ("marks".into(), marks.to_string()),
            ("marks_per_s".into(), format!("{:.0}", marks as f64 / min)),
            (
                "ns_per_mark".into(),
                format!("{:.2}", (mean - tracer_mean) * 1e9 / marks as f64),
            ),
            (
                "log_bytes_per_mark".into(),
                format!("{:.3}", log_bytes as f64 / marks as f64),
            ),
            ("record_ratio".into(), format!("{:.3}", mean / tracer_mean)),
        ],
    });

    // --- trace metrics: the same frame once more with the recorder on,
    // exported as counters/histograms for the CI artifact ---
    let trace_metrics = {
        let rec = now_trace::global();
        rec.clear();
        rec.set_enabled(true);
        let mut engine = CoherenceEngine::new(spec, (fw * fh) as usize);
        let mut stats = RayStats::default();
        let mut traced = settings.clone();
        traced.trace = true;
        black_box(render_frame(
            black_box(&scene),
            &accel,
            &traced,
            &mut engine,
            &mut stats,
        ));
        rec.set_enabled(false);
        let snap = rec.snapshot();
        rec.clear();
        now_trace::export::metrics_json(&snap)
    };

    // --- change detection (the Vec sort+dedup path) ---
    let anim = glassball::animation_sized(64, 48, 5);
    let dspec = GridSpec::for_scene(anim.swept_bounds(), 24 * 24 * 24);
    let a = anim.scene_at(1);
    let b = anim.scene_at(2);
    let mut voxels = 0usize;
    let (mean, min) = time(iters * 10, || {
        let cs = changed_voxels(&dspec, black_box(&a), black_box(&b));
        if let ChangeSet::Voxels(v) = &cs {
            voxels = v.len();
        }
        black_box(cs);
    });
    records.push(Record {
        name: "changed_voxels",
        mean_ns: mean * 1e9,
        min_ns: min * 1e9,
        extra: vec![("voxels".into(), voxels.to_string())],
    });

    // --- tile pool: 1 thread vs N threads ---
    // `speedup` is the deterministic schedule speedup (rays on the
    // critical lane vs total rays); `wall_speedup` is the measured clock
    // ratio, which a 1-core host caps near 1.0 regardless of the plan.
    let scene = newton::scene(pw, ph);
    let accel = GridAccel::build(&scene);
    let mut serial = settings.clone();
    serial.threads = 1;
    let mut pooled = settings.clone();
    pooled.threads = pool_threads;
    let (_, min_1) = time(pool_iters, || {
        let mut stats = RayStats::default();
        black_box(render_frame_par(
            black_box(&scene),
            &accel,
            &serial,
            &mut NullListener,
            &mut stats,
        ));
    });
    let mut par = ParallelStats::default();
    let (_, min_n) = time(pool_iters, || {
        let mut stats = RayStats::default();
        let (fb, p) = render_frame_par(
            black_box(&scene),
            &accel,
            &pooled,
            &mut NullListener,
            &mut stats,
        );
        par = p;
        black_box(fb);
    });
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    records.push(Record {
        name: "pool_speedup",
        mean_ns: min_n * 1e9,
        min_ns: min_n * 1e9,
        extra: vec![
            ("width".into(), pw.to_string()),
            ("height".into(), ph.to_string()),
            ("threads".into(), pool_threads.to_string()),
            ("tiles".into(), par.tiles.to_string()),
            ("serial_ns".into(), format!("{:.0}", min_1 * 1e9)),
            ("speedup".into(), format!("{:.3}", par.speedup())),
            ("wall_speedup".into(), format!("{:.3}", min_1 / min_n)),
            ("host_cores".into(), host_cores.to_string()),
            // CI regression floor for `speedup`
            ("floor".into(), "3.0".into()),
        ],
    });

    // --- render matrix: two frame sizes at 1/2/4 pool threads ---
    let matrix_iters = if smoke { 2 } else { 4 };
    for &(mw, mh) in &[(64u32, 48u32), (320, 240)] {
        let scene = newton::scene(mw, mh);
        let accel = GridAccel::build(&scene);
        for &threads in &[1u32, 2, 4] {
            let mut s = settings.clone();
            s.threads = threads;
            let mut par = ParallelStats::default();
            let mut rays = 0u64;
            let (mean, min) = time(matrix_iters, || {
                let mut stats = RayStats::default();
                let (fb, p) =
                    render_frame_par(black_box(&scene), &accel, &s, &mut NullListener, &mut stats);
                par = p;
                rays = stats.total_rays();
                black_box(fb);
            });
            records.push(Record {
                name: Box::leak(format!("render_{mw}x{mh}_t{threads}").into_boxed_str()),
                mean_ns: mean * 1e9,
                min_ns: min * 1e9,
                extra: vec![
                    ("width".into(), mw.to_string()),
                    ("height".into(), mh.to_string()),
                    ("threads".into(), threads.to_string()),
                    ("tiles".into(), par.tiles.to_string()),
                    ("rays".into(), rays.to_string()),
                    ("speedup".into(), format!("{:.3}", par.speedup())),
                ],
            });
        }
    }

    // --- coherence entry footprint after one full 320x240 frame ---
    {
        let (cw, ch) = (320u32, 240u32);
        let scene = newton::scene(cw, ch);
        let cspec = GridSpec::for_scene(scene.bounds(), 24 * 24 * 24);
        let accel = GridAccel::build_with_spec(&scene, cspec);
        let mut engine = CoherenceEngine::new(cspec, (cw * ch) as usize);
        let mut stats = RayStats::default();
        let t0 = Instant::now();
        black_box(render_frame(
            black_box(&scene),
            &accel,
            &settings,
            &mut engine,
            &mut stats,
        ));
        let dt = t0.elapsed().as_secs_f64();
        let entries = engine.stats().entries;
        let payload = engine.stats().list_bytes;
        let entry_bytes = payload as f64 / entries as f64;
        records.push(Record {
            name: "coherence_entry",
            mean_ns: dt * 1e9,
            min_ns: dt * 1e9,
            extra: vec![
                ("width".into(), cw.to_string()),
                ("height".into(), ch.to_string()),
                ("entry_count".into(), entries.to_string()),
                ("payload_bytes".into(), payload.to_string()),
                ("memory_bytes".into(), engine.memory_bytes().to_string()),
                ("entry_bytes".into(), format!("{entry_bytes:.3}")),
                // how much smaller than a fixed-width (pixel, gen) pair
                // per mark the log is
                (
                    "bytes_ratio_vs_fixed8".into(),
                    format!("{:.2}", entries as f64 * 8.0 / payload.max(1) as f64),
                ),
            ],
        });
    }

    // --- frame wire traffic: compressed tile deltas vs raw pixels ---
    // One coherent demo animation through the farm simulator twice —
    // wire_delta on and off. Frames are byte-identical; only the
    // worker→master encoding changes, so `ratio` is the honest wire
    // saving the delta format buys on temporally coherent footage.
    {
        use now_anim::scenes::glassball;
        use now_cluster::{MachineSpec, SimCluster};
        use now_core::{run_sim, FarmConfig, PartitionScheme};
        // same size in smoke mode: the ratio floor below is checked by
        // CI, and the measurement must not shrink with the iteration cuts
        let (ww, wh, wf) = (96, 72, 8);
        let anim = glassball::animation_sized(ww, wh, wf);
        let cluster = SimCluster::new(
            (0..3)
                .map(|i| MachineSpec::new(&format!("w{i}"), 1.0, 256.0))
                .collect(),
        );
        let base = FarmConfig {
            scheme: PartitionScheme::FrameDivision {
                tile_w: 24,
                tile_h: 24,
                adaptive: true,
            },
            keep_frames: false,
            ..FarmConfig::paper_default()
        };
        let t0 = Instant::now();
        let delta = run_sim(&anim, &base, &cluster);
        let dt = t0.elapsed().as_secs_f64();
        let raw = run_sim(
            &anim,
            &FarmConfig {
                wire_delta: false,
                ..base.clone()
            },
            &cluster,
        );
        assert_eq!(
            delta.frame_hashes, raw.frame_hashes,
            "wire format must not change pixels"
        );
        records.push(Record {
            name: "wire_frame_bytes",
            mean_ns: dt * 1e9,
            min_ns: dt * 1e9,
            extra: vec![
                ("width".into(), ww.to_string()),
                ("height".into(), wh.to_string()),
                ("frames".into(), wf.to_string()),
                ("pixels_shipped".into(), delta.pixels_shipped.to_string()),
                ("full_bytes".into(), raw.frame_bytes_wire.to_string()),
                ("delta_bytes".into(), delta.frame_bytes_wire.to_string()),
                (
                    "ratio".into(),
                    format!(
                        "{:.3}",
                        raw.frame_bytes_wire as f64 / delta.frame_bytes_wire.max(1) as f64
                    ),
                ),
                // CI regression floor for `ratio`: the issue's ≥4x
                // acceptance bar for coherent footage
                ("floor".into(), "4.0".into()),
            ],
        });
    }

    // --- hand-rolled JSON (no serde in the workspace) ---
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"smoke\": {smoke},\n"));
    out.push_str(&format!("  \"trace\": {trace_metrics},\n"));
    out.push_str("  \"benches\": {\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str(&format!("    \"{}\": {{\n", json_escape_free(r.name)));
        out.push_str(&format!("      \"mean_ns\": {:.0},\n", r.mean_ns));
        out.push_str(&format!("      \"min_ns\": {:.0}", r.min_ns));
        for (k, v) in &r.extra {
            out.push_str(&format!(",\n      \"{}\": {}", json_escape_free(k), v));
        }
        out.push_str("\n    }");
        out.push_str(if i + 1 < records.len() { ",\n" } else { "\n" });
    }
    out.push_str("  }\n}\n");

    let path = std::env::var("BENCH_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_render.json", env!("CARGO_MANIFEST_DIR")));
    now_raytrace::image_io::write_atomic(std::path::Path::new(&path), out.as_bytes())
        .expect("write BENCH_render.json");
    print!("{out}");
    eprintln!("wrote {path}");
}
