//! The traced run: where a workload's time goes, layer by layer.
//!
//! Three passes over the same inputs as the untraced run, all through
//! public functions of `crates/*`:
//!
//! 1. a **serial driver** — the demand loop of `now_cluster::logic` with
//!    no transport: `assign → perform → wire_encode → wire_decode →
//!    integrate` on the calling thread, one span around each call, once
//!    with spans and once without (their difference is the tracing
//!    overhead);
//! 2. a **replay** of every unit the driver saw through the sub-layer
//!    functions (`scene_at`, `GridAccel::build_with_spec`,
//!    `render_pixels_par`, `CoherentRenderer::render_next`,
//!    `TileUpdate::encode`/`decode`, `seal`/`verify`, journal appends,
//!    atomic frame writes, loopback frames), which splits `perform` and
//!    `integrate`;
//! 3. a few **untraced TCP repetitions**, for the program's own
//!    `RunReport` counts and the transport overhead over the serial
//!    driver.

use crate::farm::{self, FarmInputs};
use crate::host;
use crate::json::Json;
use crate::metrics::{Values, PER_LAYER};
use crate::service;
use crate::stats::median;
use crate::workload::{self, Kind, Workload, SERVICE_SPECS, TENANTS};
use now_anim::Animation;
use now_cluster::codec::{Decoder, Encoder};
use now_cluster::net::{read_frame, tag, write_frame};
use now_cluster::{
    read_log, JournalFaultPlan, JournalWriter, MasterLogic, Message, Wire, WorkerLogic,
};
use now_coherence::{changed_voxels, CoherentRenderer, RegionBuffer, TileUpdate};
use now_core::farm::UnitOutput;
use now_core::partition::RenderUnit;
use now_core::service::ServiceConfig;
use now_core::{
    CostModel, FarmMaster, FarmWorker, JobSpec, JournalSpec, ServiceMaster, ServiceUnit,
    ServiceWorker,
};
use now_grid::GridSpec;
use now_raytrace::image_io::write_atomic;
use now_raytrace::{
    render_pixels_par, Framebuffer, GridAccel, NullListener, PixelId, RayStats, RenderSettings,
    Scene as RtScene,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Untraced TCP repetitions per traced run (`RunReport` medians).
const TCP_REPS: usize = 2;
/// Jobs of the `service-mix` list the serial driver works through.
const SERIAL_SERVICE_JOBS: usize = 60;
/// Round trips of the loopback frame probe.
const LOOPBACK_ROUNDS: usize = 200;

/// FNV-1a of the frame hashes' little-endian bytes: the service's job hash.
pub fn job_hash(frame_hashes: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for b in frame_hashes.iter().flat_map(|h| h.to_le_bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/// The unit a span worked on: `(job, frame, region origin)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnitId {
    pub job: u64,
    pub frame: u32,
    pub region: (u32, u32),
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    pub unit: Option<UnitId>,
}

/// In-memory span recorder. Spans nest by call order: the span open when
/// another starts is its parent. Disabled, it times nothing and records
/// nothing, so the same driver code gives the untraced baseline.
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Run `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        unit: Option<UnitId>,
        f: impl FnOnce(&mut Spans) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
            unit,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_us = self.now_us();
        out
    }

    /// Seconds per span name, counting for each span only the part of its
    /// interval that no child span covers.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut own: Vec<f64> = self.spans.iter().map(|s| s.end_us - s.start_us).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.end_us - s.start_us;
            }
        }
        let mut by_name = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(own) {
            *by_name.entry(s.name).or_insert(0.0) += own / 1e6;
        }
        by_name
    }

    /// Total seconds of every span called `name`.
    pub fn seconds(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_us - s.start_us) / 1e6)
            .fold(0.0, |total, s| total + s)
    }

    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Chrome-trace JSON (`chrome://tracing`, Perfetto): one complete
    /// event per span, nested by time on a single track.
    pub fn chrome_json(&self) -> String {
        let events = self
            .spans
            .iter()
            .map(|s| {
                let mut args = vec![(
                    "parent",
                    s.parent
                        .map_or(Json::Null, |p| Json::str(self.spans[p].name)),
                )];
                if let Some(u) = s.unit {
                    args.push(("job", Json::Num(u.job as f64)));
                    args.push(("frame", Json::Num(u.frame as f64)));
                    args.push(("region_x0", Json::Num(u.region.0 as f64)));
                    args.push(("region_y0", Json::Num(u.region.1 as f64)));
                }
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("ph", Json::str("X")),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(1.0)),
                    ("ts", Json::Num(s.start_us)),
                    ("dur", Json::Num(s.end_us - s.start_us)),
                    ("args", Json::obj(args)),
                ])
            })
            .collect();
        Json::obj([("traceEvents", Json::Arr(events))]).to_pretty()
    }
}

// ---------------------------------------------------------------------
// Serial driver
// ---------------------------------------------------------------------

/// A unit the serial driver completed: what was asked and the result as
/// it crossed the (absent) wire.
struct Recorded {
    job: u64,
    unit: RenderUnit,
    wire: Vec<u8>,
}

/// The demand loop with no transport: ask, perform, encode, decode,
/// integrate, until the master has nothing left for worker 0.
fn drive<M, W>(
    master: &mut M,
    worker: &mut W,
    spans: &mut Spans,
    id_of: impl Fn(&M::Unit) -> (u64, RenderUnit),
    recorded: &mut Vec<Recorded>,
) -> Result<(), String>
where
    M: MasterLogic<Result = UnitOutput>,
    W: WorkerLogic<Unit = M::Unit, Result = UnitOutput>,
{
    loop {
        let Some(unit) = spans.time("core.assign", None, |_| master.assign(0)) else {
            return Ok(());
        };
        let (job, render_unit) = id_of(&unit);
        let id = Some(UnitId {
            job,
            frame: render_unit.frame,
            region: (render_unit.region.x0, render_unit.region.y0),
        });
        spans.time("unit", id, |spans| {
            let (result, _cost) = spans.time("core.perform", id, |_| worker.perform(&unit));
            let wire = spans.time("cluster.codec_encode", id, |_| {
                let mut e = Encoder::new();
                result.wire_encode(&mut e);
                e.finish()
            });
            let result = spans
                .time("cluster.codec_decode", id, |_| {
                    UnitOutput::wire_decode(&mut Decoder::new(&wire))
                })
                .map_err(|e| format!("result does not survive its own codec: {e}"))?;
            spans
                .time("core.integrate", id, |_| master.integrate(0, unit, result))
                .ok_or("the master rejected an honest result")?;
            // what the TCP loop does every sweep: drain frames for clients
            spans.time("core.client_pushes", id, |_| master.client_pushes());
            recorded.push(Recorded {
                job,
                unit: render_unit,
                wire,
            });
            Ok::<(), String>(())
        })?;
    }
}

/// What a serial-driver pass leaves behind.
struct Driven {
    spans: Spans,
    total_s: f64,
    recorded: Vec<Recorded>,
    /// Journaled run directories (one per farm run or service job), kept
    /// for the replay to read record sizes and frame files from.
    dirs: Vec<PathBuf>,
    /// Frames or jobs checked / wrong.
    attempted: u64,
    failed: u64,
    /// Seconds each service job took, submit to done.
    job_seconds: Vec<f64>,
    /// Service job id → index into `SERVICE_SPECS`.
    job_specs: BTreeMap<u64, usize>,
}

fn shared_spec(anim: &Animation, grid_voxels: u32) -> GridSpec {
    GridSpec::for_scene(anim.swept_bounds(), grid_voxels)
}

fn drive_farm(inp: &FarmInputs, enabled: bool, root: &Path) -> Result<Driven, String> {
    let mut spans = Spans::new(enabled);
    let mut recorded = Vec::new();
    let started = Instant::now();
    let hashes = spans.time("serial_driver", None, |spans| {
        let mut master = spans.time("core.master_new", None, |_| {
            FarmMaster::from_spec(&inp.anim, &inp.cfg, 1, Some(&JournalSpec::new(root)))
        })?;
        let mut worker = spans.time("core.worker_new", None, |_| {
            let spec = shared_spec(&inp.anim, inp.cfg.grid_voxels);
            FarmWorker::new(Arc::new(inp.anim.clone()), spec, inp.cfg.clone())
        });
        drive(
            &mut master,
            &mut worker,
            spans,
            |u: &RenderUnit| (0, *u),
            &mut recorded,
        )?;
        Ok::<_, String>(master.frame_hashes.clone())
    })?;
    let total_s = started.elapsed().as_secs_f64();
    let failed = (0..inp.frames())
        .filter(|&f| hashes.get(f) != Some(&inp.golden[f]))
        .count() as u64;
    Ok(Driven {
        spans,
        total_s,
        recorded,
        dirs: vec![root.to_path_buf()],
        attempted: inp.frames() as u64,
        failed,
        job_seconds: Vec::new(),
        job_specs: BTreeMap::new(),
    })
}

fn drive_service(seed: u64, enabled: bool, root: &Path) -> Result<Driven, String> {
    let golden = service::golden_job_hashes()?;
    let jobs = workload::service_jobs(seed, 0, SERIAL_SERVICE_JOBS);
    let mut spans = Spans::new(enabled);
    let mut recorded = Vec::new();
    let mut job_seconds = Vec::new();
    let mut ids = Vec::new();
    let started = Instant::now();
    let master = spans.time("serial_driver", None, |spans| {
        let mut master = spans.time("core.master_new", None, |_| {
            ServiceMaster::new(ServiceConfig {
                root: Some(root.to_path_buf()),
                ..ServiceConfig::default()
            })
        })?;
        let mut worker = spans.time("core.worker_new", None, |_| {
            ServiceWorker::new(RenderSettings::default(), CostModel::default())
        });
        for job in &jobs {
            let t = Instant::now();
            let spec = JobSpec::new(SERVICE_SPECS[job.spec].0)
                .tenant(TENANTS[0])
                .priority(job.priority);
            let id = spans.time("core.service.submit", None, |_| master.submit(spec))?;
            // a watching client, so integrate pays for the frame fan-out
            spans.time("core.service.watch", None, |_| {
                let mut e = Encoder::new();
                e.u64(id);
                master.client_frame(1, tag::WATCH, &e.finish())
            });
            drive(
                &mut master,
                &mut worker,
                spans,
                |u: &ServiceUnit| (u.job, u.unit),
                &mut recorded,
            )?;
            ids.push((id, job.spec));
            job_seconds.push(t.elapsed().as_secs_f64());
        }
        Ok::<_, String>(master)
    })?;
    let total_s = started.elapsed().as_secs_f64();
    let failed = ids
        .iter()
        .filter(|&&(id, spec)| master.status(id).map(|s| s.job_hash) != Some(golden[spec]))
        .count() as u64;
    let dirs = ids
        .iter()
        .map(|(id, _)| root.join("jobs").join(format!("job_{id:06}")))
        .chain([root.to_path_buf()])
        .collect();
    Ok(Driven {
        spans,
        total_s,
        recorded,
        dirs,
        attempted: jobs.len() as u64,
        failed,
        job_seconds,
        job_specs: ids.into_iter().collect(),
    })
}

// ---------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------

/// What the replay needs to know about the job a unit belongs to.
struct JobInputs {
    anim: Arc<Animation>,
    spec: GridSpec,
    coherence: bool,
}

/// Per `(job, region)` state: the worker-side renderer and both ends of
/// the tile stream, as the farm keeps them.
#[derive(Default)]
struct Stream {
    next_frame: u32,
    renderer: Option<CoherentRenderer>,
    prev_scene: Option<RtScene>,
    sender: Option<RegionBuffer>,
    receiver: Option<RegionBuffer>,
}

#[derive(Default)]
struct Replay {
    seconds: BTreeMap<&'static str, f64>,
    rays: RayStats,
    units: u64,
    tile_bytes: u64,
    tile_pixels: u64,
    dirty_pixels: u64,
    dirty_region_pixels: u64,
    memory_bytes_peak: u64,
    marks: u64,
    first_frame_recording_s: f64,
    first_frame_plain_s: f64,
    result_sizes: Vec<f64>,
    mismatches: u64,
}

impl Replay {
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let t = Instant::now();
        let out = f();
        let dt = t.elapsed().as_secs_f64();
        *self.seconds.entry(name).or_insert(0.0) += dt;
        (out, dt)
    }

    fn s(&self, name: &str) -> f64 {
        self.seconds.get(name).copied().unwrap_or(0.0)
    }
}

/// Push every recorded unit through the sub-layer functions, in the order
/// the driver saw them.
fn replay_units(
    recorded: &[Recorded],
    mut inputs_of: impl FnMut(u64, &mut Replay) -> Result<Arc<JobInputs>, String>,
) -> Result<Replay, String> {
    let mut r = Replay::default();
    let settings = RenderSettings::default();
    let traced = RenderSettings {
        trace: true,
        ..RenderSettings::default()
    };
    let mut streams: BTreeMap<(u64, u32, u32), Stream> = BTreeMap::new();
    let mut canvases: BTreeMap<(u32, u32), Framebuffer> = BTreeMap::new();

    for rec in recorded {
        let job = inputs_of(rec.job, &mut r)?;
        let (unit, region) = (rec.unit, rec.unit.region);
        let width = job.anim.base.camera.width();
        let height = job.anim.base.camera.height();
        let key = (rec.job, region.x0, region.y0);
        let stream = streams.entry(key).or_default();
        if unit.restart || stream.next_frame != unit.frame {
            *stream = Stream::default();
        }
        stream.next_frame = unit.frame + 1;
        r.units += 1;
        r.result_sizes.push(rec.wire.len() as f64);

        // --- the result as it arrived: checksum, tile codec ------------
        let out = UnitOutput::wire_decode(&mut Decoder::new(&rec.wire))
            .map_err(|e| format!("recorded result no longer decodes: {e}"))?;
        let (verified, _) = r.time("core.verify_s", || out.verify());
        let mut resealed = out.clone();
        r.time("core.seal_s", || resealed.seal());
        let (pixels, _) = r.time("coherence.tile_decode_s", || {
            out.update.decode(region, width, &mut stream.receiver)
        });
        let pixels = pixels.map_err(|e| format!("recorded tile no longer decodes: {e}"))?;
        let (again, _) = r.time("coherence.tile_encode_s", || {
            TileUpdate::encode(&pixels, region, width, &mut stream.sender, true)
        });
        if !verified || resealed.checksum != out.checksum || again != out.update {
            r.mismatches += 1;
        }
        r.tile_bytes += out.update.wire_len();
        r.tile_pixels += pixels.len() as u64;
        let ids: Vec<PixelId> = pixels.iter().map(|&(id, _)| id).collect();

        // --- what perform did: scene, accelerator, rays ----------------
        let (scene, _) = r.time("anim.scene_at_s", || job.anim.scene_at(unit.frame as usize));
        let (accel, accel_s) = r.time("raytrace.accel_build_s", || {
            GridAccel::build_with_spec(&scene, job.spec)
        });
        let fb = canvases
            .entry((width, height))
            .or_insert_with(|| Framebuffer::new(width, height));
        let mut rays = RayStats::default();
        let (_, render_s) = r.time("raytrace.render_s", || {
            render_pixels_par(
                &scene,
                &accel,
                &settings,
                fb,
                &ids,
                &mut NullListener,
                &mut rays,
            )
        });
        r.rays.merge(&rays);
        // the same rays once more with the program's own counters on
        // (untimed: every ray takes the recorder's lock)
        now_trace::global().set_enabled(true);
        render_pixels_par(
            &scene,
            &accel,
            &traced,
            fb,
            &ids,
            &mut NullListener,
            &mut RayStats::default(),
        );
        now_trace::global().set_enabled(false);

        // --- the coherence layer around the same rays ------------------
        if job.coherence {
            if let Some(prev) = &stream.prev_scene {
                r.time("coherence.changed_voxels_s", || {
                    changed_voxels(&job.spec, prev, &scene)
                });
            }
            let renderer = stream.renderer.get_or_insert_with(|| {
                CoherentRenderer::with_region_and_block(
                    job.spec,
                    width,
                    height,
                    region,
                    1,
                    settings.clone(),
                )
            });
            let marks_before = renderer.coherence_stats().marks;
            let ((_, report), next_s) =
                r.time("coherence.render_next_s", || renderer.render_next(&scene));
            r.marks += report.coherence.marks - marks_before;
            r.memory_bytes_peak = r.memory_bytes_peak.max(report.memory_bytes as u64);
            if report.frame_index == 0 {
                r.first_frame_recording_s += next_s;
                r.first_frame_plain_s += accel_s + render_s;
            } else {
                r.dirty_pixels += report.pixels_rendered as u64;
                r.dirty_region_pixels += report.region_pixels as u64;
            }
            if report.rendered != ids {
                r.mismatches += 1;
            }
            stream.prev_scene = Some(scene);
        }
        if unit.frame as usize + 1 == job.anim.frames {
            streams.remove(&key);
        }
    }
    Ok(r)
}

/// Re-append every record of the run's journals (same sizes, same
/// `sync_data` per append) to a fresh journal, and rewrite every frame
/// file atomically.
fn replay_disk(dirs: &[PathBuf], scratch: &Path, r: &mut Replay) -> Result<(u64, u64), String> {
    let mut appends = 0u64;
    let mut frame_bytes = 0u64;
    for (i, dir) in dirs.iter().enumerate() {
        let io = |e: std::io::Error| format!("replay {}: {e}", dir.display());
        for name in ["run.journal", "service.journal"] {
            let path = dir.join(name);
            if !path.is_file() {
                continue;
            }
            let log = read_log(&path).map_err(io)?;
            let copy = scratch.join(format!("{i}-{name}"));
            let mut writer = JournalWriter::create(&copy, JournalFaultPlan::none()).map_err(io)?;
            for record in &log.records {
                r.time("cluster.journal_append_s", || writer.append(record))
                    .0
                    .map_err(io)?;
                appends += 1;
            }
        }
        let mut frames: Vec<PathBuf> = std::fs::read_dir(dir)
            .map_err(io)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "tga"))
            .collect();
        frames.sort();
        for (f, path) in frames.iter().enumerate() {
            let bytes = std::fs::read(path).map_err(io)?;
            let target = scratch.join(format!("{i}-frame_{f:04}.tga"));
            r.time("raytrace.frame_write_s", || write_atomic(&target, &bytes))
                .0
                .map_err(io)?;
            frame_bytes += bytes.len() as u64;
        }
    }
    Ok((appends, frame_bytes))
}

/// Median microseconds to push one result-sized frame through a loopback
/// TCP pair with the transport's own `write_frame`/`read_frame`.
fn loopback_msg_us(payload_len: usize) -> Result<f64, String> {
    let io = |e: std::io::Error| format!("loopback probe: {e}");
    let listener = std::net::TcpListener::bind("127.0.0.1:0").map_err(io)?;
    let mut tx = std::net::TcpStream::connect(listener.local_addr().map_err(io)?).map_err(io)?;
    let (mut rx, _) = listener.accept().map_err(io)?;
    tx.set_nodelay(true).map_err(io)?;
    let msg = Message {
        from: 1,
        to: 0,
        tag: tag::RESULT,
        // stays inside the socket buffers, so one thread can play both ends
        payload: vec![0x5a; payload_len.min(32 << 10)],
    };
    let mut rounds = Vec::with_capacity(LOOPBACK_ROUNDS);
    for _ in 0..LOOPBACK_ROUNDS {
        let t = Instant::now();
        write_frame(&mut tx, &msg).map_err(|e| format!("loopback write: {e}"))?;
        let (back, _) = read_frame(&mut rx).map_err(|e| format!("loopback read: {e}"))?;
        rounds.push(t.elapsed().as_secs_f64() * 1e6);
        if back.payload.len() != msg.payload.len() {
            return Err("loopback probe lost bytes".to_string());
        }
    }
    Ok(median(&rounds))
}

// ---------------------------------------------------------------------
// The traced run
// ---------------------------------------------------------------------

/// Result of a traced run.
pub struct Traced {
    /// Every per-layer metric.
    pub values: Values,
    pub attempted: u64,
    pub failed: u64,
    pub detail: Json,
}

/// Trace one workload: serial driver with and without spans, replay,
/// untraced TCP repetitions; writes the Chrome trace next to the results.
pub fn run(w: &Workload, seed: u64) -> Result<Traced, String> {
    let scratch = host::fresh_run_dir(&format!("{}-trace", w.name))?;
    let out = run_in(w, seed, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    out
}

fn run_in(w: &Workload, seed: u64, scratch: &Path) -> Result<Traced, String> {
    let mut values: Values = PER_LAYER.iter().map(|m| (m.name, 0.0)).collect();
    let sub = |name: &str| -> Result<PathBuf, String> {
        let dir = scratch.join(name);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(dir)
    };
    let farm_inputs = match w.kind {
        Kind::Farm {
            scene, coherence, ..
        } => Some(FarmInputs::build(scene, coherence)?),
        Kind::Service => None,
    };

    // --- pass 1: the serial driver, without and with spans -------------
    let drive_once = |enabled: bool, dir: PathBuf| match &farm_inputs {
        Some(inp) => drive_farm(inp, enabled, &dir),
        None => drive_service(seed, enabled, &dir),
    };
    let plain = drive_once(false, sub("serial-plain")?)?;
    let driven = drive_once(true, sub("serial-traced")?)?;
    let mut attempted = plain.attempted + driven.attempted;
    let mut failed = plain.failed + driven.failed;
    let own = driver_values(&mut values, &plain, &driven);

    let trace_dir = host::scratch_root().join("trace");
    std::fs::create_dir_all(&trace_dir)
        .map_err(|e| format!("create {}: {e}", trace_dir.display()))?;
    let trace_file = trace_dir.join(format!("{}.trace.json", w.name));
    std::fs::write(&trace_file, driven.spans.chrome_json())
        .map_err(|e| format!("write {}: {e}", trace_file.display()))?;

    // --- pass 2: replay through the sub-layer functions -----------------
    let mut jobs: BTreeMap<u64, Arc<JobInputs>> = BTreeMap::new();
    now_trace::global().clear();
    let mut replay = replay_units(&driven.recorded, |job, r| {
        if let Some(known) = jobs.get(&job) {
            return Ok(Arc::clone(known));
        }
        // a job's scene goes through the scene language's front door
        // once, as the service master parses it at admission
        let defaults = JobSpec::default();
        let (spec_text, coherence, grid_voxels) = match &farm_inputs {
            Some(inp) => (inp.scene.spec(), inp.cfg.coherence, inp.cfg.grid_voxels),
            None => {
                let spec = driven.job_specs.get(&job).ok_or("unit of an unknown job")?;
                let text = SERVICE_SPECS[*spec].0.to_string();
                (text, defaults.coherence, defaults.grid_voxels)
            }
        };
        let (anim, _) = r.time("anim.parse_s", || now_anim::scenes::from_spec(&spec_text));
        let anim = Arc::new(anim?);
        let inputs = Arc::new(JobInputs {
            spec: shared_spec(&anim, grid_voxels),
            anim,
            coherence,
        });
        jobs.insert(job, Arc::clone(&inputs));
        Ok(inputs)
    })?;
    let (appends, frame_bytes) = replay_disk(&driven.dirs, &sub("disk")?, &mut replay)?;
    failed += replay.mismatches;
    replay_values(&mut values, &replay);
    values.insert("cluster.journal_appends", appends as f64);
    values.insert("raytrace.frame_write_bytes", frame_bytes as f64);
    values.insert(
        "grid.spec_voxels",
        jobs.values()
            .map(|j| j.spec.voxel_count())
            .max()
            .unwrap_or(0) as f64,
    );
    let counters = now_trace::global().snapshot();
    values.insert(
        "grid.steps_per_ray",
        counters
            .hists
            .get("grid.steps_per_ray")
            .map_or(0.0, |h| h.mean()),
    );
    values.insert(
        "cluster.loopback_msg_us",
        loopback_msg_us(median(&replay.result_sizes) as usize)?,
    );

    // --- pass 3: untraced TCP repetitions -------------------------------
    let tcp_detail = match (&farm_inputs, w.kind) {
        (Some(inp), Kind::Farm { workers, .. }) => {
            let mut reports = Vec::new();
            let mut one_worker = Vec::new();
            // the workload's own worker count, then one worker (the same
            // repetitions when the workload has one)
            let runs = std::iter::repeat_n(workers, TCP_REPS).chain((workers != 1).then_some(1));
            for n in runs {
                let rep = farm::run_rep_fresh(inp, n, w.name)?;
                attempted += inp.frames() as u64;
                failed += rep.failed;
                if n == 1 {
                    one_worker.push(rep.makespan_s);
                }
                if n == workers {
                    reports.push(rep.report);
                }
            }
            values.extend(farm::report_layer(&reports.iter().collect::<Vec<_>>()));
            // one TCP worker against the same loop with no transport
            values.insert(
                "cluster.transport_overhead_s",
                median(&one_worker) - plain.total_s,
            );
            Json::obj([
                ("tcp_repetitions", Json::Num(reports.len() as f64)),
                ("one_worker_makespan_s", Json::Num(median(&one_worker))),
            ])
        }
        _ => {
            let (m, layer) = service::measure(seed, 0.0, 1)?;
            attempted += m.attempted;
            failed += m.failed;
            let job_done_s = m.values["job_done_ms_p50"] / 1e3;
            values.extend(layer);
            // per job: a client's median wait against the same job on the
            // serial driver (both give a job about one worker)
            values.insert(
                "cluster.transport_overhead_s",
                job_done_s - median(&plain.job_seconds),
            );
            Json::obj([
                ("tcp", m.detail),
                ("serial_job_s", crate::metrics::summary(&plain.job_seconds)),
            ])
        }
    };

    let self_times = Json::obj(own.iter().map(|(name, s)| (*name, Json::Num(*s))));
    let detail = Json::obj([
        ("kind", Json::str("trace")),
        ("chrome_trace", Json::str(trace_file.display().to_string())),
        ("spans", Json::Num(driven.spans.spans.len() as f64)),
        ("serial_total_s", Json::Num(plain.total_s)),
        ("serial_traced_total_s", Json::Num(driven.total_s)),
        ("self_seconds", self_times),
        ("replay_mismatches", Json::Num(replay.mismatches as f64)),
        ("tcp", tcp_detail),
    ]);
    Ok(Traced {
        values,
        attempted,
        failed,
        detail,
    })
}

/// Layer metrics read off the serial driver's spans; returns the self
/// seconds per span name.
fn driver_values(
    values: &mut Values,
    plain: &Driven,
    driven: &Driven,
) -> BTreeMap<&'static str, f64> {
    let spans = &driven.spans;
    for (metric, span) in [
        ("core.assign_s", "core.assign"),
        ("core.perform_s", "core.perform"),
        ("core.integrate_s", "core.integrate"),
        ("cluster.codec_encode_s", "cluster.codec_encode"),
        ("cluster.codec_decode_s", "cluster.codec_decode"),
        ("core.service.submit_s", "core.service.submit"),
    ] {
        values.insert(metric, spans.seconds(span));
    }
    values.insert("core.units", spans.count("core.perform") as f64);
    values.insert("core.serial_total_s", plain.total_s);
    values.insert(
        "bench.trace_overhead_share",
        (driven.total_s - plain.total_s) / plain.total_s,
    );
    // the root span and the per-unit frames only hold glue; everything
    // else is a call into a layer
    let own = spans.self_seconds();
    let covered: f64 = own
        .iter()
        .filter(|(name, _)| !matches!(**name, "serial_driver" | "unit"))
        .map(|(_, s)| s)
        .sum();
    values.insert("bench.span_coverage_share", covered / driven.total_s);
    own
}

/// Layer metrics read off the replay (after [`driver_values`]: the
/// integrate split needs `core.integrate_s`).
fn replay_values(values: &mut Values, r: &Replay) {
    for name in [
        "anim.scene_at_s",
        "anim.parse_s",
        "raytrace.render_s",
        "raytrace.accel_build_s",
        "raytrace.frame_write_s",
        "coherence.render_next_s",
        "coherence.changed_voxels_s",
        "coherence.tile_encode_s",
        "coherence.tile_decode_s",
        "cluster.journal_append_s",
        "core.seal_s",
        "core.verify_s",
    ] {
        values.insert(name, r.s(name));
    }
    let rays = r.rays.total_rays() as f64;
    values.insert("anim.scene_at_calls", r.units as f64);
    values.insert("raytrace.accel_builds", r.units as f64);
    values.insert("raytrace.rays", rays);
    values.insert(
        "raytrace.rays_per_s",
        rays / r.s("raytrace.render_s").max(1e-9),
    );
    values.insert(
        "raytrace.intersection_tests",
        r.rays.intersection_tests as f64,
    );
    values.insert("raytrace.pixels_rendered", r.rays.pixels as f64);
    if r.s("coherence.render_next_s") > 0.0 {
        values.insert(
            "coherence.overhead_s",
            r.s("coherence.render_next_s")
                - r.s("raytrace.render_s")
                - r.s("raytrace.accel_build_s"),
        );
        values.insert(
            "coherence.first_frame_record_ratio",
            r.first_frame_recording_s / r.first_frame_plain_s.max(1e-9),
        );
    }
    values.insert("coherence.marks", r.marks as f64);
    values.insert(
        "coherence.dirty_share",
        if r.dirty_region_pixels > 0 {
            r.dirty_pixels as f64 / r.dirty_region_pixels as f64
        } else {
            // no coherent frame after a first one: every pixel ships
            1.0
        },
    );
    values.insert("coherence.memory_bytes_peak", r.memory_bytes_peak as f64);
    values.insert("coherence.tile_bytes", r.tile_bytes as f64);
    values.insert(
        "coherence.tile_ratio",
        7.0 * r.tile_pixels as f64 / (r.tile_bytes as f64).max(1.0),
    );
    values.insert(
        "core.integrate_self_s",
        values["core.integrate_s"]
            - r.s("cluster.journal_append_s")
            - r.s("raytrace.frame_write_s"),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut spans = Spans::new(true);
        spans.time("outer", None, |spans| {
            spans.time("inner", None, |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
            spans.time("inner", None, |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
            std::thread::sleep(std::time::Duration::from_millis(10));
        });
        assert_eq!(spans.count("inner"), 2);
        assert_eq!(spans.spans[1].parent, Some(0));
        assert_eq!(spans.spans[0].parent, None);
        let own = spans.self_seconds();
        assert!(own["inner"] >= 0.040, "{own:?}");
        assert!(
            own["outer"] >= 0.010 && own["outer"] < own["inner"],
            "{own:?}"
        );
        let total = spans.seconds("outer");
        assert!((own["inner"] + own["outer"] - total).abs() < 1e-9);
        let doc = Json::parse(&spans.chrome_json()).expect("chrome trace is JSON");
        assert_eq!(
            doc.get("traceEvents")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(3)
        );
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let mut spans = Spans::new(false);
        assert_eq!(spans.time("x", None, |_| 7), 7);
        assert!(spans.spans.is_empty());
    }

    #[test]
    fn job_hash_matches_the_service() {
        // fnv1a of eight zero bytes
        assert_eq!(job_hash(&[0]), 0xa8c7_f832_281a_39c5);
    }
}
