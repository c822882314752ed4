//! The distributed render farm: master/worker logic over `now-cluster`.
//!
//! The master owns the scheduler (a [`PartitionScheme`] instance), a
//! rolling frame canvas, and the Targa writing; each worker owns a
//! [`CoherentRenderer`] for its current region and ships back only the
//! pixels it recomputed. One implementation runs on both the
//! discrete-event simulator and real threads.
//!
//! [`FarmMaster`] is also the per-job engine inside the multi-tenant
//! service ([`crate::service`]): the service builds one lazily per
//! admitted job and treats the scheduler's worker indices as opaque
//! owner labels, so a single elastic worker pool can interleave units
//! from many concurrent jobs.

use crate::cost::CostModel;
use crate::journal::{FarmJournal, JournalSpec};
use crate::partition::{PartitionScheme, RenderUnit, Scheduler};
use now_anim::Animation;
use now_cluster::codec::{DecodeError, Decoder, Encoder};
use now_cluster::{
    connect_worker, ConnectConfig, MasterLogic, MasterWork, SimCluster, TcpMaster, ThreadCluster,
    Wire, WorkCost, WorkerLogic, WorkerSummary,
};
use now_coherence::{CoherentRenderer, PixelRegion, RegionBuffer, TileUpdate};
use now_grid::GridSpec;
use now_raytrace::{
    render_pixels_par, Framebuffer, GridAccel, NullListener, ParallelStats, PixelId, RayStats,
    RenderSettings,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Farm configuration.
#[derive(Debug, Clone)]
pub struct FarmConfig {
    /// Partitioning scheme.
    pub scheme: PartitionScheme,
    /// Use the frame-coherence algorithm (off = plain distributed
    /// rendering, Table 1 columns 4–5).
    pub coherence: bool,
    /// Render settings.
    pub settings: RenderSettings,
    /// Cost model for the simulator.
    pub cost: CostModel,
    /// Target voxel count of the shared grid.
    pub grid_voxels: u32,
    /// Keep finished frame pixels in the result (tests); hashes are always
    /// kept.
    pub keep_frames: bool,
}

impl FarmConfig {
    /// Coherent frame-division farm with paper-style defaults.
    pub fn paper_default() -> FarmConfig {
        FarmConfig {
            scheme: PartitionScheme::paper_frame_division(),
            coherence: true,
            settings: RenderSettings::default(),
            cost: CostModel::default(),
            grid_voxels: 24 * 24 * 24,
            keep_frames: false,
        }
    }
}

/// Result of one completed unit, shipped worker → master.
///
/// The pixel payload is a [`TileUpdate`] — an encoded stream frame, not a
/// plain list. The sending worker and the master advance matching
/// [`RegionBuffer`] states per stream, so the master's decode reproduces
/// the exact pixel list the worker rendered (see
/// [`now_coherence::tiledelta`]).
#[derive(Debug, Clone)]
pub struct UnitOutput {
    /// Encoded recomputed pixels for this unit.
    pub update: TileUpdate,
    /// Rays fired for this unit.
    pub rays: RayStats,
    /// Coherence marks performed for this unit.
    pub marks: u64,
    /// How the unit's pixel work spread over the worker's tile pool.
    pub parallel: ParallelStats,
    /// End-to-end content checksum (FNV-1a over every other field in
    /// wire order), computed worker-side by [`UnitOutput::seal`] and
    /// re-verified master-side before the result touches the canvas. A
    /// mismatch — bit-flipped wire bytes, a buggy or byzantine worker —
    /// discards the result and requeues the unit.
    pub checksum: u64,
}

impl UnitOutput {
    /// Encode everything the checksum covers, in wire order.
    fn encode_content(&self, e: &mut Encoder) {
        encode_tile(e, &self.update);
        e.u64(self.rays.primary)
            .u64(self.rays.reflected)
            .u64(self.rays.transmitted)
            .u64(self.rays.shadow)
            .u64(self.rays.intersection_tests)
            .u64(self.rays.pixels)
            .u64(self.marks)
            .u32(self.parallel.threads)
            .u32(self.parallel.tiles)
            .u64(self.parallel.total_rays)
            .u64(self.parallel.critical_rays);
    }

    /// The checksum the content *should* carry.
    fn content_hash(&self) -> u64 {
        let mut e = Encoder::new();
        self.encode_content(&mut e);
        fnv1a(e.finish())
    }

    /// Stamp the content checksum (the worker's last act before shipping).
    pub fn seal(&mut self) {
        self.checksum = self.content_hash();
    }

    /// True when the carried checksum matches the content — the master's
    /// first test before integrating.
    pub fn verify(&self) -> bool {
        self.checksum == self.content_hash()
    }
}

impl Wire for UnitOutput {
    fn wire_encode(&self, e: &mut Encoder) {
        self.encode_content(e);
        // the checksum rides last so the content bytes it covers are
        // exactly the prefix (protocol v3)
        e.u64(self.checksum);
    }

    fn wire_decode(d: &mut Decoder<'_>) -> Result<UnitOutput, DecodeError> {
        let update = decode_tile(d)?;
        let rays = RayStats {
            primary: d.u64()?,
            reflected: d.u64()?,
            transmitted: d.u64()?,
            shadow: d.u64()?,
            intersection_tests: d.u64()?,
            pixels: d.u64()?,
        };
        let marks = d.u64()?;
        let parallel = ParallelStats {
            threads: d.u32()?,
            tiles: d.u32()?,
            total_rays: d.u64()?,
            critical_rays: d.u64()?,
        };
        let checksum = d.u64()?;
        Ok(UnitOutput {
            update,
            rays,
            marks,
            parallel,
            checksum,
        })
    }
}

/// A [`TileUpdate`]'s wire layout, `u8 mode, u32 count, bytes payload`:
/// inside a `RESULT` and a service `FRAME_DELTA` push alike.
pub(crate) fn encode_tile(e: &mut Encoder, tile: &TileUpdate) {
    e.u8(tile.mode).u32(tile.count).bytes(&tile.payload);
}

/// Read back what [`encode_tile`] wrote.
pub(crate) fn decode_tile(d: &mut Decoder<'_>) -> Result<TileUpdate, DecodeError> {
    Ok(TileUpdate {
        mode: d.u8()?,
        count: d.u32()?,
        payload: d.bytes()?.to_vec(),
    })
}

/// Pixel updates accumulated for one frame plus the count of region
/// reports received so far.
type PendingFrame = (Vec<(PixelId, [u8; 3])>, usize);

/// FNV-1a hash of a byte stream (frame fingerprints).
pub(crate) fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Fingerprint a framebuffer the same way the farm fingerprints its
/// assembled frames (quantised RGB, row-major).
pub fn frame_hash(fb: &Framebuffer) -> u64 {
    fnv1a(fb.pixels().iter().flat_map(|c| {
        let (r, g, b) = c.to_u8();
        [r, g, b]
    }))
}

// ---------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------

struct WorkerState {
    region: PixelRegion,
    renderer: CoherentRenderer,
    prev_marks: u64,
    next_frame: u32,
}

/// Worker-side logic: renders assigned units, maintaining coherence state
/// and the outgoing tile-delta stream for its current region.
pub struct FarmWorker {
    anim: Arc<Animation>,
    spec: GridSpec,
    cfg: FarmConfig,
    width: u32,
    height: u32,
    state: Option<WorkerState>,
    /// Sender side of the tile-update stream: the region as the master
    /// last saw it. Cleared on any discontinuity so the next update is a
    /// stream-resetting FULL.
    wire: Option<RegionBuffer>,
    /// Frame the wire stream expects next (valid while `wire` is Some).
    wire_next: u32,
    /// The plain path's framebuffer, allocated at its first unit. A unit
    /// writes and reads back only its own pixels, so it is never cleared.
    plain_fb: Option<Framebuffer>,
}

impl FarmWorker {
    /// Create a worker for an animation (the grid spec must match the
    /// master's and cover the swept bounds).
    pub fn new(anim: Arc<Animation>, spec: GridSpec, cfg: FarmConfig) -> FarmWorker {
        let width = anim.base.camera.width();
        let height = anim.base.camera.height();
        FarmWorker {
            anim,
            spec,
            cfg,
            width,
            height,
            state: None,
            wire: None,
            wire_next: 0,
            plain_fb: None,
        }
    }

    /// Encode this unit's rendered pixels for the wire, advancing the
    /// outgoing stream. Any discontinuity — restart, region switch, frame
    /// gap — drops the stream state, forcing a FULL that re-seeds the
    /// master's decoder too.
    fn encode_update(&mut self, unit: &RenderUnit, pixels: &[(PixelId, [u8; 3])]) -> TileUpdate {
        let continuous = !unit.restart
            && self.wire_next == unit.frame
            && matches!(&self.wire, Some(b) if b.region() == unit.region);
        if !continuous {
            self.wire = None;
        }
        let update = TileUpdate::encode(
            pixels,
            unit.region,
            self.width,
            &mut self.wire,
            true, // compact: the farm has no RAW mode
        );
        self.wire_next = unit.frame + 1;
        update
    }

    fn perform_coherent(&mut self, unit: &RenderUnit) -> (UnitOutput, WorkCost) {
        let need_reset = unit.restart
            || match &self.state {
                Some(s) => s.region != unit.region || s.next_frame != unit.frame,
                None => true,
            };
        if need_reset {
            self.state = Some(WorkerState {
                region: unit.region,
                renderer: CoherentRenderer::with_region_and_block(
                    self.spec,
                    self.width,
                    self.height,
                    unit.region,
                    1,
                    self.cfg.settings.clone(),
                ),
                prev_marks: 0,
                next_frame: unit.frame,
            });
        }
        let state = self.state.as_mut().expect("state just ensured");
        debug_assert_eq!(state.next_frame, unit.frame, "frames must be consecutive");
        let scene = self.anim.scene_at(unit.frame as usize);
        let (fb, report) = state.renderer.render_next_borrowed(&scene);
        state.next_frame = unit.frame + 1;
        let marks = report.coherence.marks - state.prev_marks;
        state.prev_marks = report.coherence.marks;

        let pixels: Vec<(PixelId, [u8; 3])> = report
            .rendered
            .iter()
            .map(|&id| {
                let (r, g, b) = fb.get_id(id).to_u8();
                (id, [r, g, b])
            })
            .collect();
        let copied = (unit.region.len() - pixels.len()) as u64;
        // charge virtual time for the pool's critical path, not the sum of
        // per-thread work
        let work =
            self.cfg
                .cost
                .parallel_render_work(&report.rays, marks, copied, &report.parallel);
        let update = self.encode_update(unit, &pixels);
        let cost = WorkCost {
            work_units: work,
            result_bytes: update.wire_len() + 32,
            working_set_mb: self
                .cfg
                .cost
                .working_set_mb(unit.region.len(), &report.coherence),
        };
        let mut out = UnitOutput {
            update,
            rays: report.rays,
            marks,
            parallel: report.parallel,
            checksum: 0,
        };
        out.seal();
        (out, cost)
    }

    fn perform_plain(&mut self, unit: &RenderUnit) -> (UnitOutput, WorkCost) {
        let scene = self.anim.scene_at(unit.frame as usize);
        let accel = GridAccel::build_with_spec(&scene, self.spec);
        let mut rays = RayStats::default();
        let fb = self
            .plain_fb
            .get_or_insert_with(|| Framebuffer::new(self.width, self.height));
        let ids: Vec<PixelId> = unit.region.pixel_ids(self.width).collect();
        let parallel = render_pixels_par(
            &scene,
            &accel,
            &self.cfg.settings,
            fb,
            &ids,
            &mut NullListener,
            &mut rays,
        );
        let pixels: Vec<(PixelId, [u8; 3])> = ids
            .iter()
            .map(|&id| {
                let (r, g, b) = fb.get_id(id).to_u8();
                (id, [r, g, b])
            })
            .collect();
        let work = self.cfg.cost.parallel_render_work(&rays, 0, 0, &parallel);
        let update = self.encode_update(unit, &pixels);
        let cost = WorkCost {
            work_units: work,
            result_bytes: update.wire_len() + 32,
            working_set_mb: (unit.region.len() as f64 * 48.0) / (1024.0 * 1024.0),
        };
        let mut out = UnitOutput {
            update,
            rays,
            marks: 0,
            parallel,
            checksum: 0,
        };
        out.seal();
        (out, cost)
    }
}

impl WorkerLogic for FarmWorker {
    type Unit = RenderUnit;
    type Result = UnitOutput;

    fn perform(&mut self, unit: &RenderUnit) -> (UnitOutput, WorkCost) {
        if self.cfg.coherence {
            self.perform_coherent(unit)
        } else {
            self.perform_plain(unit)
        }
    }

    fn corrupt(result: &mut UnitOutput) {
        // byzantine-worker injection: damage the pixel payload (or, for an
        // empty update, the mark count) while leaving the stale checksum
        // in place — exactly what the master's verify must catch
        match result.update.payload.first_mut() {
            Some(b) => *b ^= 0x01,
            None => result.marks = result.marks.wrapping_add(1),
        }
    }
}

// ---------------------------------------------------------------------
// Master
// ---------------------------------------------------------------------

/// Master-side logic: scheduling, frame assembly, Targa writing.
pub struct FarmMaster {
    scheduler: Scheduler,
    frames: u32,
    width: u32,
    file_write_s: f64,
    keep_frames: bool,
    /// rolling canvas of quantised pixels
    canvas: Vec<[u8; 3]>,
    /// receiver side of each worker's tile-update stream (a worker works
    /// one region queue at a time, and any switch arrives as a
    /// stream-resetting FULL, so one buffer per worker suffices)
    decode: BTreeMap<usize, Option<RegionBuffer>>,
    /// per-frame pending updates and how many region-updates have arrived
    pending: BTreeMap<u32, PendingFrame>,
    next_finalize: u32,
    /// fingerprints of finalized frames, in order
    pub frame_hashes: Vec<u64>,
    /// full frames if `keep_frames`
    pub frames_rgb: Vec<Vec<[u8; 3]>>,
    /// aggregate ray counters
    pub rays: RayStats,
    /// aggregate coherence marks
    pub marks: u64,
    /// aggregate tile-pool execution stats across all units
    pub parallel: ParallelStats,
    /// total pixels shipped by workers
    pub pixels_shipped: u64,
    /// bytes the shipped tile updates actually occupy on the wire (mode +
    /// count + payload per unit); compare against `pixels_shipped * 7`,
    /// the legacy encoding's cost for the same pixels
    pub frame_bytes_wire: u64,
    /// units completed
    pub units_done: u64,
    /// pixels decoded from the most recent [`MasterLogic::integrate`]
    /// call (the progressive-streaming layer re-encodes these for
    /// watching clients without re-entering the decode stream)
    last_decoded: Vec<(PixelId, [u8; 3])>,
    /// units skipped at assignment because a resumed journal had already
    /// finalized their frames
    pub resumed_units: u64,
    /// results discarded by integrity verification (checksum mismatch or
    /// undecodable tile stream); each one requeued its unit
    pub results_rejected: u64,
    /// units handed back for reassignment (lease expiry, rejection retry,
    /// speculative backup)
    pub units_requeued: u64,
    /// workers this master was told it lost (death or quarantine)
    pub workers_lost_seen: u64,
    /// write-ahead journal, when the run is durable
    journal: Option<FarmJournal>,
    /// frames below this index were restored from the journal: their
    /// units are skipped, never re-rendered
    skip_below: u32,
}

impl FarmMaster {
    /// Create the master for an animation and configuration.
    pub fn new(anim: &Animation, cfg: &FarmConfig, workers: usize) -> FarmMaster {
        let width = anim.base.camera.width();
        let height = anim.base.camera.height();
        let frames = anim.frames as u32;
        FarmMaster {
            scheduler: Scheduler::new(cfg.scheme, width, height, frames, workers),
            frames,
            width,
            file_write_s: cfg.cost.file_write_work(width, height),
            keep_frames: cfg.keep_frames,
            canvas: vec![[0u8; 3]; (width * height) as usize],
            decode: BTreeMap::new(),
            pending: BTreeMap::new(),
            next_finalize: 0,
            frame_hashes: Vec::new(),
            frames_rgb: Vec::new(),
            rays: RayStats::default(),
            marks: 0,
            parallel: ParallelStats {
                threads: 1,
                tiles: 0,
                total_rays: 0,
                critical_rays: 0,
            },
            pixels_shipped: 0,
            frame_bytes_wire: 0,
            units_done: 0,
            last_decoded: Vec::new(),
            resumed_units: 0,
            results_rejected: 0,
            units_requeued: 0,
            workers_lost_seen: 0,
            journal: None,
            skip_below: 0,
        }
    }

    /// Create the master, optionally journaled: with a [`JournalSpec`] the
    /// run writes ahead to a durable log, and a `resume` spec restores the
    /// finalized prefix of an interrupted run (see [`crate::journal`]).
    pub fn from_spec(
        anim: &Animation,
        cfg: &FarmConfig,
        workers: usize,
        journal: Option<&JournalSpec>,
    ) -> Result<FarmMaster, String> {
        let mut master = FarmMaster::new(anim, cfg, workers);
        if let Some(spec) = journal {
            let (journal, resumed) = FarmJournal::open(anim, cfg, spec)?;
            master.journal = Some(journal);
            if let Some(state) = resumed {
                master.next_finalize = state.next_finalize;
                master.skip_below = state.next_finalize;
                master.frame_hashes = state.frame_hashes;
                if let Some(canvas) = state.canvas {
                    master.canvas = canvas;
                }
                if master.keep_frames {
                    master.frames_rgb = state.frames_rgb;
                }
            }
        }
        Ok(master)
    }

    /// Number of frames fully assembled and "written".
    pub fn frames_finalized(&self) -> usize {
        self.frame_hashes.len()
    }

    /// Width of the canvas in pixels (the animation's image width).
    pub fn canvas_width(&self) -> u32 {
        self.width
    }

    /// The pixels decoded by the most recent `integrate` call.
    pub fn last_decoded(&self) -> &[(PixelId, [u8; 3])] {
        &self.last_decoded
    }

    fn try_finalize(&mut self) -> usize {
        let needed = self.scheduler.regions_per_frame();
        let mut finalized = 0;
        while self.next_finalize < self.frames {
            match self.pending.get(&self.next_finalize) {
                Some((_, count)) if *count == needed => {}
                _ => break,
            }
            let (updates, _) = self.pending.remove(&self.next_finalize).expect("checked");
            for (id, rgb) in updates {
                self.canvas[id as usize] = rgb;
            }
            let hash = fnv1a(self.canvas.iter().flatten().copied());
            self.frame_hashes.push(hash);
            if let Some(j) = self.journal.as_mut() {
                // durable frame pixels first, then the record that vouches
                // for them — a crash between the two re-renders the frame
                j.record_frame(self.next_finalize, hash, &self.canvas);
            }
            if self.keep_frames {
                self.frames_rgb.push(self.canvas.clone());
            }
            self.next_finalize += 1;
            finalized += 1;
        }
        finalized
    }
}

impl MasterLogic for FarmMaster {
    type Unit = RenderUnit;
    type Result = UnitOutput;

    fn assign(&mut self, worker: usize) -> Option<RenderUnit> {
        let mut skipped = false;
        loop {
            let mut unit = self.scheduler.next_unit(worker)?;
            if unit.frame < self.skip_below {
                // this frame was finalized before the crash: its pixels
                // are already durable, the unit never leaves the master
                self.resumed_units += 1;
                skipped = true;
                continue;
            }
            if skipped {
                // the queue's restart flag was consumed by a skipped unit;
                // the worker must rebuild coherence from this frame
                unit.restart = true;
            }
            return Some(unit);
        }
    }

    fn integrate(
        &mut self,
        worker: usize,
        unit: RenderUnit,
        result: UnitOutput,
    ) -> Option<MasterWork> {
        if !result.verify() {
            // damaged content (bit-flipped wire bytes, a byzantine or
            // buggy worker): nothing touches the canvas. Drop the
            // worker's decode stream too — its sender state advanced past
            // what we applied, so a later delta from it must fail loudly
            // (and strike again) instead of decoding against a stale base
            self.decode.insert(worker, None);
            self.results_rejected += 1;
            return None;
        }
        // advance this worker's stream; every stream starts with a FULL
        // (fresh claims and reassignments set `restart`), so a verified
        // result can only fail to decode after an earlier rejection broke
        // the stream — which is itself a rejection, never a panic
        let stream = self.decode.entry(worker).or_insert(None);
        let pixels = match result.update.decode(unit.region, self.width, stream) {
            Ok(pixels) => pixels,
            Err(_) => {
                *stream = None;
                self.results_rejected += 1;
                return None;
            }
        };
        self.rays.merge(&result.rays);
        self.marks += result.marks;
        self.parallel.merge(&result.parallel);
        self.frame_bytes_wire += result.update.wire_len();
        self.pixels_shipped += pixels.len() as u64;
        self.units_done += 1;
        if let Some(j) = self.journal.as_mut() {
            let pixels_hash = fnv1a(
                pixels
                    .iter()
                    .flat_map(|(id, rgb)| id.to_le_bytes().into_iter().chain(rgb.iter().copied())),
            );
            j.record_unit(&unit, pixels_hash);
        }
        let entry = self.pending.entry(unit.frame).or_default();
        entry.0.extend_from_slice(&pixels);
        entry.1 += 1;
        self.last_decoded = pixels;
        let finalized = self.try_finalize();
        Some(MasterWork {
            work_units: finalized as f64 * self.file_write_s,
            overlappable: true,
        })
    }

    fn unit_bytes(&self, _unit: &RenderUnit) -> u64 {
        48
    }

    fn on_reassign(&mut self, from_worker: usize, unit: &mut RenderUnit) {
        self.units_requeued += 1;
        // the new owner has no coherence state for this region's preceding
        // frames: force a full render so the frame bytes stay identical
        unit.restart = true;
        // the timed-out worker may never ask for work again (crash/stall):
        // free its queues so survivors can claim the rest of its frames;
        // if it is merely slow it re-claims work on its next request
        self.scheduler.release_worker(from_worker);
    }

    fn on_worker_lost(&mut self, worker: usize) {
        self.workers_lost_seen += 1;
        // exclusion without a retry in flight (e.g. observed death): the
        // unfinished queues go back to the pool for survivors to claim
        self.scheduler.release_worker(worker);
    }

    fn all_done(&self) -> bool {
        // every region of every frame integrated — nothing left in any
        // worker's queue, so idle workers may really shut down
        self.next_finalize >= self.frames
    }
}

// ---------------------------------------------------------------------
// Drivers
// ---------------------------------------------------------------------

/// Result of a farm run.
#[derive(Debug, Clone)]
pub struct FarmResult {
    /// Timing report from the backend (virtual seconds on the simulator,
    /// wall seconds on threads).
    pub report: now_cluster::RunReport,
    /// Fingerprints of the finished frames in order.
    pub frame_hashes: Vec<u64>,
    /// Finished frames (quantised RGB) if `keep_frames` was set.
    pub frames_rgb: Vec<Vec<[u8; 3]>>,
    /// Total rays fired across the cluster.
    pub rays: RayStats,
    /// Total coherence marks across the cluster.
    pub marks: u64,
    /// Total pixels shipped worker → master.
    pub pixels_shipped: u64,
    /// Wire bytes the shipped tile updates occupied (vs
    /// `pixels_shipped * 7` under the legacy encoding).
    pub frame_bytes_wire: u64,
    /// Units completed.
    pub units_done: u64,
    /// Units skipped because a resumed journal had already finalized
    /// their frames.
    pub resumed_units: u64,
}

fn shared_spec(anim: &Animation, cfg: &FarmConfig) -> GridSpec {
    GridSpec::for_scene(anim.swept_bounds(), cfg.grid_voxels)
}

/// Replay a finished run into the global trace recorder: backend timeline
/// and transfer totals via [`now_cluster::RunReport::record_trace`], plus
/// the farm-level aggregates. Frame fingerprints go in as deterministic
/// instants — the strongest oracle the golden-trace harness has, since
/// they cover every output pixel.
fn record_farm_trace(master: &FarmMaster, report: &now_cluster::RunReport) {
    if !now_trace::enabled() {
        return;
    }
    report.record_trace();
    let rec = now_trace::global();
    for (i, &h) in master.frame_hashes.iter().enumerate() {
        rec.instant(
            0,
            "farm.frame_hash",
            &[("frame", i as u64), ("hash", h)],
            true,
        );
    }
    rec.counter_add("farm.units_done", master.units_done);
    rec.counter_add("farm.pixels_shipped", master.pixels_shipped);
    rec.counter_add("farm.frame_bytes_wire", master.frame_bytes_wire);
    rec.counter_add("farm.marks", master.marks);
    rec.counter_add("farm.rays", master.rays.total_rays());
    rec.counter_add("farm.frames", master.frame_hashes.len() as u64);
    // journal counters only exist for journaled runs, so the golden traces
    // of plain runs stay byte-identical
    if let Some(journal) = &master.journal {
        rec.counter_add("journal.records", journal.records());
        rec.counter_add("farm.resumed_units", master.resumed_units);
    }
}

fn collect(master: FarmMaster, mut report: now_cluster::RunReport, frames: u32) -> FarmResult {
    report.worker_threads = master.parallel.threads;
    report.parallel_efficiency = master.parallel.efficiency();
    record_farm_trace(&master, &report);
    // as long as one worker survived, recovery must have completed every
    // frame; only a total loss may return a partial result
    if (report.workers_lost as usize) < report.machines.len() {
        assert_eq!(
            master.frames_finalized() as u32,
            frames,
            "every frame must be assembled and written"
        );
    }
    FarmResult {
        report,
        frame_hashes: master.frame_hashes,
        frames_rgb: master.frames_rgb,
        rays: master.rays,
        marks: master.marks,
        pixels_shipped: master.pixels_shipped,
        frame_bytes_wire: master.frame_bytes_wire,
        units_done: master.units_done,
        resumed_units: master.resumed_units,
    }
}

/// Run the farm on the discrete-event simulator (one worker per machine).
pub fn run_sim(anim: &Animation, cfg: &FarmConfig, cluster: &SimCluster) -> FarmResult {
    run_sim_with(anim, cfg, cluster, None).expect("unjournaled run cannot fail to start")
}

/// Run the farm on the simulator, optionally journaled/resumed.
pub fn run_sim_with(
    anim: &Animation,
    cfg: &FarmConfig,
    cluster: &SimCluster,
    journal: Option<&JournalSpec>,
) -> Result<FarmResult, String> {
    let spec = shared_spec(anim, cfg);
    let anim = Arc::new(anim.clone());
    let master = FarmMaster::from_spec(&anim, cfg, cluster.machines.len(), journal)?;
    let workers: Vec<FarmWorker> = cluster
        .machines
        .iter()
        .map(|_| FarmWorker::new(Arc::clone(&anim), spec, cfg.clone()))
        .collect();
    let frames = anim.frames as u32;
    let (master, report) = cluster.run(master, workers);
    Ok(collect(master, report, frames))
}

/// Run the farm on real threads.
pub fn run_threads(anim: &Animation, cfg: &FarmConfig, n_workers: usize) -> FarmResult {
    run_threads_on(anim, cfg, &ThreadCluster::new(n_workers))
}

/// Run the farm on a configured [`ThreadCluster`] (fault injection and
/// recovery policy included).
pub fn run_threads_on(anim: &Animation, cfg: &FarmConfig, cluster: &ThreadCluster) -> FarmResult {
    run_threads_with(anim, cfg, cluster, None).expect("unjournaled run cannot fail to start")
}

/// Run the farm on a configured [`ThreadCluster`], optionally
/// journaled/resumed.
pub fn run_threads_with(
    anim: &Animation,
    cfg: &FarmConfig,
    cluster: &ThreadCluster,
    journal: Option<&JournalSpec>,
) -> Result<FarmResult, String> {
    let spec = shared_spec(anim, cfg);
    let anim = Arc::new(anim.clone());
    let master = FarmMaster::from_spec(&anim, cfg, cluster.workers, journal)?;
    let workers: Vec<FarmWorker> = (0..cluster.workers)
        .map(|_| FarmWorker::new(Arc::clone(&anim), spec, cfg.clone()))
        .collect();
    let frames = anim.frames as u32;
    let (master, report) = cluster.run(master, workers);
    Ok(collect(master, report, frames))
}

// ---------------------------------------------------------------------
// TCP transport
// ---------------------------------------------------------------------

/// Version of the job header shipped in the TCP WELCOME frame.
const JOB_HEADER_VERSION: u32 = 2;

/// Encode the job header the master ships to each worker at handshake,
/// `u32 version | u64 scene_fingerprint64 | u8 coherence | u32
/// grid_voxels`: the scene fingerprint both sides must agree on, plus the
/// render knobs the worker adopts from the master. The run journal embeds
/// the same bytes in its RunHeader record, so resume validation and worker
/// handshake validation reject the same mismatches.
pub(crate) fn encode_job_header(anim: &Animation, cfg: &FarmConfig) -> Vec<u8> {
    let mut e = Encoder::new();
    e.u32(JOB_HEADER_VERSION)
        .u64(scene_fingerprint64(anim))
        .u8(cfg.coherence as u8)
        .u32(cfg.grid_voxels);
    e.finish()
}

/// Validate a job header against the locally loaded animation and return
/// the `(coherence, grid_voxels)` settings to adopt. Both processes load
/// the scene independently, so anything that would make their pixels
/// diverge must be rejected here, before any unit is rendered.
pub(crate) fn check_job_header(header: &[u8], anim: &Animation) -> Result<(bool, u32), String> {
    let mut d = Decoder::new(header);
    let bad = |e: DecodeError| format!("bad job header: {e}");
    let version = d.u32().map_err(bad)?;
    if version != JOB_HEADER_VERSION {
        return Err(format!(
            "job header version mismatch: the header is v{version}, this build reads v{JOB_HEADER_VERSION}"
        ));
    }
    let (remote, local) = (d.u64().map_err(bad)?, scene_fingerprint64(anim));
    if remote != local {
        return Err(format!(
            "scene mismatch: the header's scene fingerprint is {remote:016x}, this process \
             loaded {local:016x} (both processes must load the same scene)"
        ));
    }
    let coherence = d.u8().map_err(bad)? != 0;
    Ok((coherence, d.u32().map_err(bad)?))
}

/// Content fingerprint of the scene a process has loaded. The job header
/// carries it, and its little-endian bytes are the `HELLO` fingerprint the
/// master checks a joiner against before handing it the job header.
///
/// Hashes the *content* of the animation — camera parameters, object
/// geometry and materials, lights, track keyframes, camera cuts — via
/// the full `Debug` rendering (deterministic: Rust's float formatting is
/// the shortest round-trip form on every platform), plus its shape (size,
/// frames, object/light/track counts). Two differently-spelled specs that
/// parse to the same animation fingerprint identically, which is what
/// the service worker's scene cache dedups on; any content difference
/// that could make pixels diverge changes the fingerprint.
pub fn scene_fingerprint64(anim: &Animation) -> u64 {
    let fields: [u32; 6] = [
        anim.base.camera.width(),
        anim.base.camera.height(),
        anim.frames as u32,
        anim.base.objects.len() as u32,
        anim.base.lights.len() as u32,
        anim.tracks.len() as u32,
    ];
    let content = format!("{anim:?}");
    fnv1a(
        fields
            .iter()
            .flat_map(|f| f.to_le_bytes())
            .chain(content.into_bytes()),
    )
}

/// Configuration for a TCP farm master: the cluster layer's own
/// configuration (worker quorum, recovery policy, net timing, the one
/// [`now_cluster::ChaosPlan`]). The drivers here fill in `job_header` and
/// `fingerprint` from the scene and arm the plan's disk section on the
/// run's journal.
pub use now_cluster::TcpClusterConfig as TcpFarmConfig;

/// Bind the master's listening socket without starting the run, so the
/// caller can learn the real port (e.g. after binding port 0) and hand it
/// to worker processes before blocking in [`run_tcp_master_on`].
pub fn bind_tcp_master(listen: &str) -> Result<TcpMaster, String> {
    TcpMaster::bind(listen).map_err(|e| format!("bind {listen}: {e}"))
}

/// Run the farm master over a bound TCP listener: wait for the configured
/// number of worker processes, hand out units, assemble frames. Frame
/// hashes are byte-identical to the sim and thread backends (the latter is
/// this same TCP master over loopback).
pub fn run_tcp_master_on(
    listener: TcpMaster,
    anim: &Animation,
    cfg: &FarmConfig,
    tcp: &TcpFarmConfig,
) -> Result<FarmResult, String> {
    run_tcp_master_with(listener, anim, cfg, tcp, None)
}

/// Run the farm master over TCP, optionally journaled/resumed.
pub fn run_tcp_master_with(
    listener: TcpMaster,
    anim: &Animation,
    cfg: &FarmConfig,
    tcp: &TcpFarmConfig,
    journal: Option<&JournalSpec>,
) -> Result<FarmResult, String> {
    let mut ccfg = tcp.clone();
    ccfg.job_header = encode_job_header(anim, cfg);
    ccfg.fingerprint = scene_fingerprint64(anim).to_le_bytes().to_vec();
    let armed = journal
        .filter(|_| !tcp.chaos.disk.is_empty())
        .map(|j| j.clone().with_disk_faults(tcp.chaos.disk.arm()));
    let journal = armed.as_ref().or(journal);
    let master = FarmMaster::from_spec(anim, cfg, tcp.workers, journal)?;
    let frames = anim.frames as u32;
    if master.all_done() {
        // the resumed journal already holds every frame: don't block
        // waiting for worker connections that will never be needed
        return Ok(collect(master, now_cluster::RunReport::default(), frames));
    }
    let (master, report) = listener
        .run(master, &ccfg)
        .map_err(|e| format!("tcp master: {e}"))?;
    Ok(collect(master, report, frames))
}

/// Connect to a TCP farm master and serve units until it shuts us down.
///
/// The worker loads the scene itself; the handshake's job header is
/// checked against it and the master's coherence/grid settings are
/// adopted, so a mismatched scene fails fast instead of producing
/// silently wrong pixels.
pub fn serve_tcp_worker(
    anim: &Animation,
    base: &FarmConfig,
    addr: &str,
    connect: &ConnectConfig,
) -> Result<WorkerSummary, String> {
    serve_tcp_worker_cached(anim, base, addr, connect, &mut WorkerCache::new())
}

/// Worker-side state kept across TCP reconnects.
///
/// A worker process that loses its master and reconnects used to rebuild
/// the whole [`FarmWorker`] — re-parse the scene, re-build the grid,
/// reset coherence state — even though the job it rejoins is the same
/// one it just left. The cache keys the built worker on the scene
/// content fingerprint plus the settings the master's job header dictates
/// (coherence on/off, grid resolution), so a rejoin with an unchanged
/// job reuses the warmed worker and only a genuinely different job pays
/// the rebuild.
#[derive(Default)]
pub struct WorkerCache {
    key: Option<(u64, bool, u32)>,
    worker: Option<FarmWorker>,
    /// How many times a [`FarmWorker`] was built from scratch (a rejoin
    /// that hits the cache does not increment this).
    builds: u64,
}

impl WorkerCache {
    /// Empty cache; the first serve call always builds.
    pub fn new() -> WorkerCache {
        WorkerCache::default()
    }

    /// Borrow a worker for `(anim, cfg)` — `scene` is `anim`'s content
    /// fingerprint — building one only when the cached worker was made
    /// for a different scene or settings.
    fn lease(&mut self, scene: u64, anim: &Animation, cfg: &FarmConfig) -> &mut FarmWorker {
        let key = (scene, cfg.coherence, cfg.grid_voxels);
        if self.key != Some(key) || self.worker.is_none() {
            let spec = shared_spec(anim, cfg);
            self.worker = Some(FarmWorker::new(Arc::new(anim.clone()), spec, cfg.clone()));
            self.key = Some(key);
            self.builds += 1;
        }
        self.worker.as_mut().expect("worker was just ensured")
    }
}

/// [`serve_tcp_worker`] with a reconnect cache: the built worker (scene,
/// grid, coherence state) survives in `cache` between calls, so a worker
/// process retry loop rejoins the same job without rebuilding it.
pub fn serve_tcp_worker_cached(
    anim: &Animation,
    base: &FarmConfig,
    addr: &str,
    connect: &ConnectConfig,
    cache: &mut WorkerCache,
) -> Result<WorkerSummary, String> {
    let scene = scene_fingerprint64(anim);
    let mut connect = connect.clone();
    if connect.fingerprint.is_empty() {
        connect.fingerprint = scene.to_le_bytes().to_vec();
    }
    let conn = connect_worker(addr, &connect).map_err(|e| format!("connect {addr}: {e}"))?;
    let (coherence, grid_voxels) = match check_job_header(conn.job_header(), anim) {
        Ok(adopted) => adopted,
        Err(e) => {
            // disconnect cleanly so the master sees a dead worker instead
            // of waiting on one that will never request units
            conn.leave();
            return Err(e);
        }
    };
    let mut cfg = base.clone();
    cfg.coherence = coherence;
    cfg.grid_voxels = grid_voxels;
    let worker = cache.lease(scene, anim, &cfg);
    // A new enrollment always starts from a fresh unit queue on the
    // master, and every first unit of a queue arrives with `restart`
    // set, so the reused worker's coherence and wire state re-seed
    // correctly; only the expensive scene/grid build is skipped.
    conn.serve(worker).map_err(|e| format!("worker serve: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::single::{render_sequence, SequenceMode};
    use now_anim::scenes::glassball;

    const W: u32 = 40;
    const H: u32 = 32;
    const FRAMES: usize = 5;

    fn anim() -> Animation {
        glassball::animation_sized(W, H, FRAMES)
    }

    fn reference_hashes(anim: &Animation, cfg: &FarmConfig) -> Vec<u64> {
        let mut hashes = Vec::new();
        render_sequence(
            anim,
            &cfg.settings,
            &cfg.cost,
            SequenceMode::Plain,
            crate::single::SingleMachine::unit(),
            cfg.grid_voxels,
            |_, fb| hashes.push(frame_hash(&fb)),
        );
        hashes
    }

    fn cfg(scheme: PartitionScheme, coherence: bool) -> FarmConfig {
        FarmConfig {
            scheme,
            coherence,
            settings: RenderSettings::default(),
            cost: CostModel::default(),
            grid_voxels: 4096,
            keep_frames: false,
        }
    }

    #[test]
    fn sim_frame_division_coherent_matches_reference() {
        let anim = anim();
        let cfg = cfg(
            PartitionScheme::FrameDivision {
                tile_w: 16,
                tile_h: 16,
                adaptive: true,
            },
            true,
        );
        let result = run_sim(&anim, &cfg, &SimCluster::paper());
        assert_eq!(result.frame_hashes, reference_hashes(&anim, &cfg));
        assert_eq!(result.units_done as usize, 6 * FRAMES); // 3x2 tiles
        assert!(result.report.makespan_s > 0.0);
    }

    #[test]
    fn sim_sequence_division_coherent_matches_reference() {
        let anim = anim();
        let cfg = cfg(PartitionScheme::SequenceDivision { adaptive: true }, true);
        let result = run_sim(&anim, &cfg, &SimCluster::paper());
        assert_eq!(result.frame_hashes, reference_hashes(&anim, &cfg));
    }

    #[test]
    fn sim_plain_distribution_matches_reference() {
        let anim = anim();
        let cfg = cfg(
            PartitionScheme::FrameDivision {
                tile_w: 16,
                tile_h: 16,
                adaptive: true,
            },
            false,
        );
        let result = run_sim(&anim, &cfg, &SimCluster::paper());
        assert_eq!(result.frame_hashes, reference_hashes(&anim, &cfg));
        assert_eq!(result.marks, 0);
    }

    #[test]
    fn sim_hybrid_matches_reference() {
        let anim = anim();
        let cfg = cfg(
            PartitionScheme::Hybrid {
                tile_w: 20,
                tile_h: 16,
                subseq: 2,
            },
            true,
        );
        let result = run_sim(&anim, &cfg, &SimCluster::paper());
        assert_eq!(result.frame_hashes, reference_hashes(&anim, &cfg));
    }

    #[test]
    fn threads_backend_matches_reference() {
        let anim = anim();
        let cfg = cfg(
            PartitionScheme::FrameDivision {
                tile_w: 16,
                tile_h: 16,
                adaptive: true,
            },
            true,
        );
        let result = run_threads(&anim, &cfg, 3);
        assert_eq!(result.frame_hashes, reference_hashes(&anim, &cfg));
    }

    #[test]
    fn tcp_backend_matches_reference() {
        let anim = anim();
        let cfg = cfg(
            PartitionScheme::FrameDivision {
                tile_w: 16,
                tile_h: 16,
                adaptive: true,
            },
            true,
        );
        let listener = bind_tcp_master("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let (anim, cfg, addr) = (anim.clone(), cfg.clone(), addr.clone());
                std::thread::spawn(move || {
                    serve_tcp_worker(&anim, &cfg, &addr, &ConnectConfig::default()).expect("worker")
                })
            })
            .collect();
        let result =
            run_tcp_master_on(listener, &anim, &cfg, &TcpFarmConfig::new(2)).expect("master");
        assert_eq!(result.frame_hashes, reference_hashes(&anim, &cfg));
        let mut units = 0;
        for w in workers {
            let summary = w.join().expect("worker thread");
            assert!(summary.node_id >= 1);
            units += summary.units;
        }
        assert_eq!(units, result.units_done);
        // real-network extras made it into the report
        assert!(result.report.bytes > 0);
        assert_eq!(result.report.machines.len(), 2, "one entry per worker");
    }

    #[test]
    fn tcp_worker_adopts_master_settings() {
        // worker configured plain/coarse must adopt the master's
        // coherent/fine settings from the job header
        let anim = anim();
        let master_cfg = cfg(PartitionScheme::SequenceDivision { adaptive: true }, true);
        let mut worker_cfg = master_cfg.clone();
        worker_cfg.coherence = false;
        worker_cfg.grid_voxels = 8;
        let listener = bind_tcp_master("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let w = {
            let (anim, addr) = (anim.clone(), addr.clone());
            std::thread::spawn(move || {
                serve_tcp_worker(&anim, &worker_cfg, &addr, &ConnectConfig::default())
                    .expect("worker")
            })
        };
        let result = run_tcp_master_on(listener, &anim, &master_cfg, &TcpFarmConfig::new(1))
            .expect("master");
        assert_eq!(result.frame_hashes, reference_hashes(&anim, &master_cfg));
        assert!(result.marks > 0, "coherence was adopted from the header");
        w.join().expect("worker thread");
    }

    #[test]
    fn tcp_worker_rejects_mismatched_scene() {
        let anim = anim();
        let cfg = cfg(PartitionScheme::SequenceDivision { adaptive: true }, true);
        let listener = bind_tcp_master("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let w = {
            // this worker loaded a *different* scene (one frame short)
            let mut other = anim.clone();
            other.frames -= 1;
            let (cfg, addr) = (cfg.clone(), addr.clone());
            std::thread::spawn(move || {
                serve_tcp_worker(&other, &cfg, &addr, &ConnectConfig::default()).unwrap_err()
            })
        };
        // the mismatched fingerprint is rejected at HELLO; the master never
        // enrolls a worker and gives up when the accept window closes
        let mut tcp = TcpFarmConfig::new(1);
        tcp.net.accept_window_s = 1.0;
        let master = run_tcp_master_on(listener, &anim, &cfg, &tcp);
        assert!(master.is_err(), "master must not finish without workers");
        let err = w.join().expect("worker thread");
        assert!(err.contains("scene fingerprint mismatch"), "got: {err}");
    }

    #[test]
    fn scene_fingerprint_tracks_scene_shape() {
        let a = anim();
        let mut b = anim();
        assert_eq!(scene_fingerprint64(&a), scene_fingerprint64(&b));
        b.frames += 1;
        assert_ne!(scene_fingerprint64(&a), scene_fingerprint64(&b));
    }

    #[test]
    fn scene_fingerprint_tracks_scene_content_not_just_shape() {
        // same shape (object/light/track counts, size, frames) but a
        // nudged sphere must fingerprint differently — the service
        // worker dedups scenes on this value
        let a = anim();
        let mut b = anim();
        b.base.objects[0].set_transform(now_math::Affine::translate(now_math::Vec3 {
            x: 1e-3,
            y: 0.0,
            z: 0.0,
        }));
        assert_ne!(scene_fingerprint64(&a), scene_fingerprint64(&b));
    }

    #[test]
    fn unit_output_round_trips_over_the_wire() {
        let region = PixelRegion {
            x0: 0,
            y0: 0,
            w: 4,
            h: 2,
        };
        let mut state = None;
        let update = TileUpdate::encode(
            &[(2, [1, 2, 3]), (17, [254, 0, 128])],
            region,
            16,
            &mut state,
            true,
        );
        let out = UnitOutput {
            update,
            rays: RayStats {
                primary: 1,
                reflected: 2,
                transmitted: 3,
                shadow: 4,
                intersection_tests: 5,
                pixels: 6,
            },
            marks: 42,
            parallel: ParallelStats {
                threads: 2,
                tiles: 4,
                total_rays: 10,
                critical_rays: 6,
            },
            checksum: 0,
        };
        let mut out = out;
        out.seal();
        assert!(out.verify(), "a sealed output verifies");
        let mut e = Encoder::new();
        out.wire_encode(&mut e);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        let back = UnitOutput::wire_decode(&mut d).expect("decode");
        assert_eq!(back.update.mode, out.update.mode);
        assert_eq!(back.update.count, out.update.count);
        assert_eq!(back.update.payload, out.update.payload);
        assert_eq!(back.rays, out.rays);
        assert_eq!(back.marks, out.marks);
        assert_eq!(back.parallel, out.parallel);
        assert_eq!(back.checksum, out.checksum);
        assert!(back.verify(), "checksum survives the round trip");
        let mut decode = None;
        let pixels = back.update.decode(region, 16, &mut decode).expect("decode");
        assert_eq!(pixels, vec![(2, [1, 2, 3]), (17, [254, 0, 128])]);
    }

    /// Damaging any content field of a sealed output must flip `verify`.
    #[test]
    fn sealed_output_detects_tampering() {
        let mut out = UnitOutput {
            update: TileUpdate {
                mode: 1,
                count: 2,
                payload: vec![10, 20, 30],
            },
            rays: RayStats::default(),
            marks: 5,
            parallel: ParallelStats::default(),
            checksum: 0,
        };
        out.seal();
        assert!(out.verify());
        let mut t = out.clone();
        t.update.payload[1] ^= 0x04;
        assert!(!t.verify(), "payload bit flip detected");
        let mut t = out.clone();
        t.marks += 1;
        assert!(!t.verify(), "mark drift detected");
        let mut t = out.clone();
        FarmWorker::corrupt(&mut t);
        assert!(!t.verify(), "the injected corruption is detectable");
    }

    #[test]
    fn render_unit_round_trips_over_the_wire() {
        let unit = RenderUnit {
            region: PixelRegion {
                x0: 16,
                y0: 32,
                w: 8,
                h: 4,
            },
            frame: 3,
            restart: true,
        };
        let mut e = Encoder::new();
        unit.wire_encode(&mut e);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert_eq!(RenderUnit::wire_decode(&mut d).expect("decode"), unit);
    }

    #[test]
    fn coherence_reduces_rays_and_traffic() {
        let anim = anim();
        let scheme = PartitionScheme::FrameDivision {
            tile_w: 16,
            tile_h: 16,
            adaptive: true,
        };
        let with = run_sim(&anim, &cfg(scheme, true), &SimCluster::paper());
        let without = run_sim(&anim, &cfg(scheme, false), &SimCluster::paper());
        assert!(with.rays.total_rays() < without.rays.total_rays());
        assert!(with.pixels_shipped < without.pixels_shipped);
        assert!(with.report.makespan_s < without.report.makespan_s);
    }

    #[test]
    fn keep_frames_returns_full_pixels() {
        let anim = anim();
        let mut c = cfg(PartitionScheme::SequenceDivision { adaptive: true }, true);
        c.keep_frames = true;
        let result = run_sim(&anim, &c, &SimCluster::paper());
        assert_eq!(result.frames_rgb.len(), FRAMES);
        assert_eq!(result.frames_rgb[0].len(), (W * H) as usize);
        // hash of kept pixels matches the recorded fingerprint
        let h = {
            let mut acc = 0xcbf29ce484222325u64;
            for b in result.frames_rgb[2].iter().flatten() {
                acc ^= *b as u64;
                acc = acc.wrapping_mul(0x100000001b3);
            }
            acc
        };
        assert_eq!(h, result.frame_hashes[2]);
    }

    #[test]
    fn tile_deltas_cut_frame_bytes_4x() {
        // a longer, larger run of the coherent demo animation: the ≥4x
        // acceptance ratio from the issue, measured against what the
        // same pixels would have cost in the legacy 7 B/pixel raw tiles
        let anim = glassball::animation_sized(96, 72, 8);
        let c = cfg(
            PartitionScheme::FrameDivision {
                tile_w: 24,
                tile_h: 24,
                adaptive: true,
            },
            true,
        );
        let r = run_sim(&anim, &c, &SimCluster::paper());
        assert_eq!(r.frame_hashes, reference_hashes(&anim, &c));
        let raw = 7 * r.pixels_shipped;
        assert!(
            raw >= 4 * r.frame_bytes_wire,
            "want >=4x reduction: raw {} vs delta {} ({:.2}x)",
            raw,
            r.frame_bytes_wire,
            raw as f64 / r.frame_bytes_wire as f64
        );
    }

    #[test]
    fn tcp_worker_cache_survives_reconnect() {
        // one worker process serves two back-to-back jobs for the same
        // scene through a WorkerCache: the second join must reuse the
        // built worker (scene, grid) instead of rebuilding it
        let anim = anim();
        let c = cfg(PartitionScheme::SequenceDivision { adaptive: true }, true);
        let l1 = bind_tcp_master("127.0.0.1:0").expect("bind");
        let l2 = bind_tcp_master("127.0.0.1:0").expect("bind");
        let a1 = l1.local_addr().expect("addr").to_string();
        let a2 = l2.local_addr().expect("addr").to_string();
        let w = {
            let (anim, c) = (anim.clone(), c.clone());
            std::thread::spawn(move || {
                let mut cache = WorkerCache::new();
                serve_tcp_worker_cached(&anim, &c, &a1, &ConnectConfig::default(), &mut cache)
                    .expect("first serve");
                serve_tcp_worker_cached(&anim, &c, &a2, &ConnectConfig::default(), &mut cache)
                    .expect("second serve");
                cache.builds
            })
        };
        let r1 = run_tcp_master_on(l1, &anim, &c, &TcpFarmConfig::new(1)).expect("master 1");
        let r2 = run_tcp_master_on(l2, &anim, &c, &TcpFarmConfig::new(1)).expect("master 2");
        let want = reference_hashes(&anim, &c);
        assert_eq!(r1.frame_hashes, want);
        assert_eq!(
            r2.frame_hashes, want,
            "reused worker must render identically"
        );
        assert_eq!(
            w.join().expect("worker thread"),
            1,
            "one build for two joins"
        );
    }
}
