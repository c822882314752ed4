//! The distributed render farm: master/worker logic over `now-cluster`.
//!
//! The master owns the scheduler (a [`PartitionScheme`] instance), a
//! rolling frame canvas, and the Targa writing; each worker owns a
//! [`CoherentRenderer`] for its current region — a plain one when the run
//! has no coherence — and ships back the pixels it rendered as a tile
//! delta. One implementation runs on both the discrete-event simulator
//! and real threads.
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
use now_coherence::varint::{read_varint, unzigzag, write_varint, zigzag};
use now_coherence::{CoherentRenderer, DirtyTest, MoverMask, RegionBuffer, RenderMode, TileUpdate};
use now_grid::GridSpec;
use now_raytrace::{Framebuffer, PixelId, RayStats, RenderSettings};
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
    /// The test a coherent worker's engines decide dirty pixels with.
    pub dirty_test: DirtyTest,
    /// Render settings.
    pub settings: RenderSettings,
    /// Cost model for the simulator.
    pub cost: CostModel,
    /// Target voxel count of the shared grid.
    pub grid_voxels: u32,
}

impl FarmConfig {
    /// Coherent frame-division farm with paper-style defaults.
    pub fn paper_default() -> FarmConfig {
        FarmConfig {
            scheme: PartitionScheme::paper_frame_division(320, 240),
            coherence: true,
            dirty_test: DirtyTest::Exact,
            settings: RenderSettings::default(),
            cost: CostModel::default(),
            grid_voxels: 24 * 24 * 24,
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
            .u64(self.marks);
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
        let checksum = d.u64()?;
        Ok(UnitOutput {
            update,
            rays,
            marks,
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

/// One unit's decoded pixels, in decode order, in an exact-size buffer:
/// per pixel the zigzag varint of its id's step from the previous id (the
/// first from 0), then its RGB. A plain 80×80 tile packs into ≈ 4 B a
/// pixel, a sparse coherent one into 4–5 B, against 8 B unpacked.
#[derive(Debug, Clone)]
pub(crate) struct PackedPixels(Box<[u8]>);

impl PackedPixels {
    pub(crate) fn pack(pixels: &[(PixelId, [u8; 3])]) -> PackedPixels {
        // a step below 2¹³ takes at most 2 B, so `out` rarely grows; the
        // box drops what capacity is left
        let (mut out, mut prev) = (Vec::with_capacity(pixels.len() * 5), 0);
        for &(id, rgb) in pixels {
            write_varint(&mut out, zigzag(id as i64 - prev as i64));
            out.extend_from_slice(&rgb);
            prev = id;
        }
        PackedPixels(out.into_boxed_slice())
    }

    /// The packed pixels, in the order they were packed.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (PixelId, [u8; 3])> + '_ {
        let (mut pos, mut id) = (0, 0i64);
        std::iter::from_fn(move || {
            let bytes = &self.0;
            (pos < bytes.len()).then(|| {
                id += unzigzag(read_varint(bytes, &mut pos));
                pos += 3;
                let rgb = [bytes[pos - 3], bytes[pos - 2], bytes[pos - 1]];
                (id as PixelId, rgb)
            })
        })
    }
}

/// FNV-1a hash of a byte stream (frame fingerprints).
pub(crate) fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// A frame canvas: one frame's quantised RGB, row-major. The master's
/// in-order finalize, a resumed journal and a watching client each keep
/// one rolling canvas, bring it from one frame to the next by applying
/// the next frame's changed pixels, and so fingerprint every frame the
/// same way, with [`Canvas::hash`].
#[derive(Debug, Clone)]
pub struct Canvas {
    pub(crate) width: u32,
    pub(crate) height: u32,
    pub(crate) rgb: Vec<[u8; 3]>,
}

impl Canvas {
    /// A black canvas, where every run starts.
    pub(crate) fn new(width: u32, height: u32) -> Canvas {
        let rgb = vec![[0; 3]; width as usize * height as usize];
        Canvas { width, height, rgb }
    }

    /// A whole-frame framebuffer's pixels, quantised as a frame file
    /// stores them.
    pub fn of(fb: &Framebuffer) -> Canvas {
        let (width, height) = (fb.width(), fb.height());
        assert!(fb.is_whole(), "not a whole frame");
        let rgb = fb.pixels().iter().map(|c| c.to_u8().into()).collect();
        Canvas { width, height, rgb }
    }

    /// Apply one frame's changed pixels, in order, and return the finished
    /// frame's fingerprint. A pixel outside the canvas is an error naming
    /// it (a damaged stream); the pixels before it are applied.
    pub(crate) fn finish(
        &mut self,
        pixels: impl IntoIterator<Item = (PixelId, [u8; 3])>,
    ) -> Result<u64, PixelId> {
        for (id, rgb) in pixels {
            *self.rgb.get_mut(id as usize).ok_or(id)? = rgb;
        }
        Ok(self.hash())
    }

    /// The frame's fingerprint: FNV-1a over its quantised RGB, row-major.
    pub fn hash(&self) -> u64 {
        fnv1a(self.rgb.iter().flatten().copied())
    }
}

/// A job's fingerprint: FNV-1a over its frame fingerprints' little-endian
/// bytes, in frame order.
pub(crate) fn job_hash(frame_hashes: &[u64]) -> u64 {
    fnv1a(frame_hashes.iter().flat_map(|h| h.to_le_bytes()))
}

/// A frame the master finished: its index, the units whose pixels changed
/// it from the frame before (packed, in the order applied), and its hash.
pub(crate) type FinishedFrame = (u32, Vec<PackedPixels>, u64);

// ---------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------

/// A worker's current region: its renderer (plain or coherent) and the
/// sender side of its tile stream, the region as the master last saw it.
struct WorkerState {
    renderer: CoherentRenderer,
    wire: Option<RegionBuffer>,
    /// The frame the region's renderer and stream expect next.
    next_frame: u32,
}

/// Worker-side logic: renders assigned units, maintaining its region's
/// renderer and the outgoing tile-delta stream.
pub struct FarmWorker {
    anim: Arc<Animation>,
    spec: GridSpec,
    cfg: FarmConfig,
    width: u32,
    height: u32,
    state: Option<WorkerState>,
    /// The animation's mover mask, built at the first coherent unit and
    /// shared by every renderer this worker creates.
    mask: Option<Arc<MoverMask>>,
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
            mask: None,
        }
    }

    /// A fresh renderer for `unit`'s region, starting at its frame.
    fn renderer_for(&mut self, unit: &RenderUnit) -> CoherentRenderer {
        let (spec, anim) = (self.spec, &self.anim);
        let mode = match self.cfg.coherence {
            false => RenderMode::Plain,
            true => RenderMode::Coherent {
                test: self.cfg.dirty_test,
                mask: Some((
                    Arc::clone(self.mask.get_or_insert_with(|| {
                        let frames = (0..anim.frames).map(|f| anim.scene_at(f));
                        Arc::new(MoverMask::of_sequence(&spec, frames))
                    })),
                    unit.frame as usize,
                )),
                block: 1,
                track_shadows: true,
            },
        };
        let settings = self.cfg.settings.clone();
        CoherentRenderer::for_region(spec, self.width, self.height, unit.region, mode, settings)
    }
}

impl WorkerLogic for FarmWorker {
    type Unit = RenderUnit;
    type Result = UnitOutput;

    fn perform(&mut self, unit: &RenderUnit) -> (UnitOutput, WorkCost) {
        // One rule for a fresh start — a restart, a region switch or a
        // frame gap: a new renderer renders the whole region, and the
        // dropped stream state makes the update a FULL that re-seeds the
        // master's decoder too.
        let continues = matches!(&self.state,
            Some(s) if s.renderer.region() == unit.region && s.next_frame == unit.frame);
        if unit.restart || !continues {
            self.state = Some(WorkerState {
                renderer: self.renderer_for(unit),
                wire: None,
                next_frame: unit.frame,
            });
        }
        let state = self.state.as_mut().expect("state just ensured");
        let scene = self.anim.scene_at(unit.frame as usize);
        let (fb, report) = state.renderer.render_next_borrowed(&scene);
        state.next_frame = unit.frame + 1;
        let pixels: Vec<(PixelId, [u8; 3])> = report
            .rendered
            .iter()
            .map(|&id| {
                let (r, g, b) = fb.get_id(id).to_u8();
                (id, [r, g, b])
            })
            .collect();
        let copied = (unit.region.len() - pixels.len()) as u64;
        let model = &self.cfg.cost;
        let work = model.render_work(&report.rays, report.marks, copied);
        // compact: the farm has no RAW mode
        let update = TileUpdate::encode(&pixels, unit.region, self.width, &mut state.wire, true);
        let cost = WorkCost {
            work_units: work,
            result_bytes: update.wire_len() + 32,
            working_set_mb: model.working_set_mb(unit.region.len(), &report.coherence),
        };
        let mut out = UnitOutput {
            update,
            rays: report.rays,
            marks: report.marks,
            checksum: 0,
        };
        out.seal();
        (out, cost)
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
    file_write_s: f64,
    /// the last finalized frame, which the next one's pixels update
    canvas: Canvas,
    /// receiver side of each worker's tile-update stream (a worker works
    /// one region queue at a time, and any switch arrives as a
    /// stream-resetting FULL, so one buffer per worker suffices)
    decode: BTreeMap<usize, Option<RegionBuffer>>,
    /// per-frame packed units and how many region-updates have arrived
    pending: BTreeMap<u32, (Vec<PackedPixels>, usize)>,
    /// fingerprints of finalized frames, in order
    pub frame_hashes: Vec<u64>,
    /// aggregate ray counters
    pub rays: RayStats,
    /// aggregate coherence marks
    pub marks: u64,
    /// total pixels shipped by workers
    pub pixels_shipped: u64,
    /// bytes the shipped tile updates actually occupy on the wire (mode +
    /// count + payload per unit); compare against `pixels_shipped * 7`,
    /// the legacy encoding's cost for the same pixels
    pub frame_bytes_wire: u64,
    /// units completed
    pub units_done: u64,
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
            file_write_s: cfg.cost.file_write_work(width, height),
            canvas: Canvas::new(width, height),
            decode: BTreeMap::new(),
            pending: BTreeMap::new(),
            frame_hashes: Vec::new(),
            rays: RayStats::default(),
            marks: 0,
            pixels_shipped: 0,
            frame_bytes_wire: 0,
            units_done: 0,
            resumed_units: 0,
            results_rejected: 0,
            units_requeued: 0,
            workers_lost_seen: 0,
            journal: None,
        }
    }

    /// Create the master, optionally journaled: with a [`JournalSpec`] the
    /// run writes each frame file into the spec's directory as the frame
    /// finalizes, beside a durable log, and a `resume` spec restores the
    /// finalized prefix of an interrupted run (see [`crate::journal`]).
    pub fn from_spec(
        anim: &Animation,
        cfg: &FarmConfig,
        workers: usize,
        journal: Option<&JournalSpec>,
    ) -> Result<FarmMaster, String> {
        let mut master = FarmMaster::new(anim, cfg, workers);
        if let Some(spec) = journal {
            let (hashes, canvas) = (&mut master.frame_hashes, &mut master.canvas);
            master.journal = Some(FarmJournal::open(anim, cfg, spec, hashes, canvas)?);
        }
        Ok(master)
    }

    /// Finalize, in order, every frame whose regions have all arrived.
    fn try_finalize(&mut self) -> Vec<FinishedFrame> {
        let needed = self.scheduler.regions_per_frame();
        let mut finished = Vec::new();
        loop {
            let frame = self.frame_hashes.len() as u32;
            match self.pending.get(&frame) {
                Some((_, count)) if *count == needed => {}
                _ => break,
            }
            let (units, _) = self.pending.remove(&frame).expect("checked");
            let hash = self
                .canvas
                .finish(units.iter().flat_map(PackedPixels::iter))
                .expect("decoded pixels lie in the frame");
            self.frame_hashes.push(hash);
            if let Some(j) = self.journal.as_mut() {
                // durable frame pixels first, then the record that vouches
                // for them — a crash between the two re-renders the frame
                j.record_frame(frame, hash, &self.canvas);
            }
            finished.push((frame, units, hash));
        }
        finished
    }

    /// [`MasterLogic::integrate`], handing back the frames the result
    /// finished, in frame order.
    pub(crate) fn integrate_frames(
        &mut self,
        worker: usize,
        unit: RenderUnit,
        result: UnitOutput,
    ) -> Option<(MasterWork, Vec<FinishedFrame>)> {
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
        let pixels = match result.update.decode(unit.region, self.canvas.width, stream) {
            Ok(pixels) => pixels,
            Err(_) => {
                *stream = None;
                self.results_rejected += 1;
                return None;
            }
        };
        self.rays.merge(&result.rays);
        self.marks += result.marks;
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
        entry.0.push(PackedPixels::pack(&pixels));
        entry.1 += 1;
        let finished = self.try_finalize();
        let work = MasterWork {
            work_units: finished.len() as f64 * self.file_write_s,
            overlappable: true,
        };
        Some((work, finished))
    }
}

impl MasterLogic for FarmMaster {
    type Unit = RenderUnit;
    type Result = UnitOutput;

    fn assign(&mut self, worker: usize) -> Option<RenderUnit> {
        let mut skipped = false;
        loop {
            let mut unit = self.scheduler.next_unit(worker)?;
            if (unit.frame as usize) < self.frame_hashes.len() {
                // this frame was finalized before a crash (the scheduler
                // hands out each unit once): its pixels are already
                // durable, the unit never leaves the master
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
        self.integrate_frames(worker, unit, result)
            .map(|(work, _)| work)
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
        self.frame_hashes.len() as u32 >= self.frames
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
        rec.counter_add("journal.syncs", journal.syncs());
        rec.counter_add("farm.resumed_units", master.resumed_units);
    }
}

fn collect(master: FarmMaster, report: now_cluster::RunReport, frames: u32) -> FarmResult {
    record_farm_trace(&master, &report);
    // as long as one worker survived, recovery must have completed every
    // frame; only a total loss may return a partial result
    if (report.workers_lost as usize) < report.machines.len() {
        assert_eq!(
            master.frame_hashes.len() as u32,
            frames,
            "every frame must be assembled and written"
        );
    }
    FarmResult {
        report,
        frame_hashes: master.frame_hashes,
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
    run_threads_with(anim, cfg, &ThreadCluster::new(n_workers), None)
        .expect("unjournaled run cannot fail to start")
}

/// Run the farm on a configured [`ThreadCluster`] (fault injection and
/// recovery policy included), optionally journaled/resumed.
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
/// render knobs the worker adopts from the master. `coherence` is 0 for a
/// plain run, 1 for [`DirtyTest::Exact`] and 2 for [`DirtyTest::Paper`].
/// The run journal embeds the same bytes in its RunHeader record, so
/// resume validation and worker handshake validation reject the same
/// mismatches.
pub(crate) fn encode_job_header(anim: &Animation, cfg: &FarmConfig) -> Vec<u8> {
    let coherence = match (cfg.coherence, cfg.dirty_test) {
        (false, _) => 0,
        (true, DirtyTest::Exact) => 1,
        (true, DirtyTest::Paper) => 2,
    };
    let mut e = Encoder::new();
    e.u32(JOB_HEADER_VERSION)
        .u64(scene_fingerprint64(anim))
        .u8(coherence)
        .u32(cfg.grid_voxels);
    e.finish()
}

/// Validate a job header against the locally loaded animation and return
/// the settings to adopt: the coherent run's dirty test (`None` for a
/// plain run) and the grid's voxel count. Both processes load the scene
/// independently, so anything that would make their pixels diverge must
/// be rejected here, before any unit is rendered.
pub(crate) fn check_job_header(
    header: &[u8],
    anim: &Animation,
) -> Result<(Option<DirtyTest>, u32), String> {
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
    let test = match d.u8().map_err(bad)? {
        0 => None,
        1 => Some(DirtyTest::Exact),
        2 => Some(DirtyTest::Paper),
        b => return Err(format!("bad job header: coherence byte {b}")),
    };
    Ok((test, d.u32().map_err(bad)?))
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
/// parse to the same animation fingerprint identically; any content
/// difference that could make pixels diverge changes the fingerprint.
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
/// to worker processes before blocking in [`run_tcp_master_with`].
pub fn bind_tcp_master(listen: &str) -> Result<TcpMaster, String> {
    TcpMaster::bind(listen).map_err(|e| format!("bind {listen}: {e}"))
}

/// Run the farm master over a bound TCP listener, optionally
/// journaled/resumed: wait for the configured number of worker processes,
/// hand out units, assemble frames. Frame hashes are byte-identical to the
/// sim and thread backends (the latter is this same TCP master over
/// loopback).
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
/// silently wrong pixels. Each session builds its own [`FarmWorker`]:
/// a reconnect starts from a fresh unit queue anyway.
pub fn serve_tcp_worker(
    anim: &Animation,
    base: &FarmConfig,
    addr: &str,
    connect: &ConnectConfig,
) -> Result<WorkerSummary, String> {
    let mut connect = connect.clone();
    if connect.fingerprint.is_empty() {
        connect.fingerprint = scene_fingerprint64(anim).to_le_bytes().to_vec();
    }
    let conn = connect_worker(addr, &connect).map_err(|e| format!("connect {addr}: {e}"))?;
    let (test, grid_voxels) = match check_job_header(conn.job_header(), anim) {
        Ok(adopted) => adopted,
        Err(e) => {
            // disconnect cleanly so the master sees a dead worker instead
            // of waiting on one that will never request units
            conn.leave();
            return Err(e);
        }
    };
    let mut cfg = base.clone();
    cfg.coherence = test.is_some();
    cfg.dirty_test = test.unwrap_or_default();
    cfg.grid_voxels = grid_voxels;
    let spec = shared_spec(anim, &cfg);
    let worker = FarmWorker::new(Arc::new(anim.clone()), spec, cfg);
    conn.serve(worker).map_err(|e| format!("worker serve: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::single::{render_sequence, SequenceMode};
    use now_anim::scenes::glassball;
    use now_coherence::PixelRegion;

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
            |_, fb| hashes.push(Canvas::of(&fb).hash()),
        );
        hashes
    }

    fn cfg(scheme: PartitionScheme, coherence: bool) -> FarmConfig {
        FarmConfig {
            scheme,
            coherence,
            dirty_test: DirtyTest::Exact,
            settings: RenderSettings::default(),
            cost: CostModel::default(),
            grid_voxels: 4096,
        }
    }

    #[test]
    fn sim_frame_division_coherent_matches_reference() {
        let anim = anim();
        let cfg = cfg(
            PartitionScheme::FrameDivision {
                tile_w: 16,
                tile_h: 16,
            },
            true,
        );
        let result = run_sim(&anim, &cfg, &SimCluster::paper());
        assert_eq!(result.frame_hashes, reference_hashes(&anim, &cfg));
        assert_eq!(result.units_done as usize, 6 * FRAMES); // 3x2 tiles
        assert!(result.report.makespan_s > 0.0);
    }

    /// Frame 1 can be whole before frame 0 is: here region B's queue
    /// moves to a third worker after its frame-0 lease is given up, and
    /// that lease's retry reports last. The master holds frame 1 until
    /// frame 0 is done, then finishes both, in order.
    #[test]
    fn frame_division_finalizes_in_order_when_a_later_frame_lands_first() {
        let anim = Arc::new(anim());
        let cfg = cfg(
            PartitionScheme::FrameDivision {
                tile_w: W / 2,
                tile_h: H,
            },
            true,
        );
        let spec = shared_spec(&anim, &cfg);
        let mut workers: Vec<FarmWorker> = (0..3)
            .map(|_| FarmWorker::new(Arc::clone(&anim), spec, cfg.clone()))
            .collect();
        let mut master = FarmMaster::new(&anim, &cfg, 3);
        let a0 = master.assign(0).expect("region A, frame 0");
        let mut b0 = master.assign(1).expect("region B, frame 0");
        master.on_reassign(1, &mut b0);
        let b1 = master.assign(2).expect("region B, frame 1");
        let a1 = master.assign(0).expect("region A, frame 1");
        assert_eq!((a0.frame, b0.frame, b1.frame, a1.frame), (0, 0, 1, 1));
        assert_eq!((a0.region, b0.region), (a1.region, b1.region));
        let mut land = |w: usize, unit: RenderUnit| {
            let (out, _) = workers[w].perform(&unit);
            let (_, finished) = master.integrate_frames(w, unit, out).expect("verified");
            finished
                .into_iter()
                .map(|(f, _, hash)| (f, hash))
                .collect::<Vec<_>>()
        };
        assert!(land(0, a0).is_empty());
        assert!(land(2, b1).is_empty(), "frame 1 lands before frame 0");
        assert!(land(0, a1).is_empty(), "frame 1 is whole, frame 0 is not");
        let want = reference_hashes(&anim, &cfg);
        assert_eq!(land(0, b0), vec![(0, want[0]), (1, want[1])]);
        assert_eq!(master.frame_hashes, want[..2]);
    }

    /// Plain or coherent, a worker starts a region afresh on one rule — a
    /// restart, a region switch or a frame gap: the whole region is
    /// rendered and shipped as a stream-resetting FULL. The next frame of
    /// the same region continues the stream (a plain worker's update is a
    /// `DELTA_DEFLATE` of the whole region, a coherent worker's only its
    /// dirty pixels), and every update decodes on the master's side to
    /// the from-scratch frame. A coherent worker builds one engine per
    /// fresh start (`coh.engines_built`), a plain one none.
    #[test]
    fn a_region_starts_afresh_on_one_rule_plain_or_coherent() {
        use now_coherence::tiledelta::{MODE_DELTA_DEFLATE, MODE_FULL, MODE_FULL_DEFLATE};
        let anim = Arc::new(anim());
        let half = |x0| PixelRegion {
            x0,
            y0: 0,
            w: W / 2,
            h: H,
        };
        let (a, b) = (half(0), half(W / 2));
        // (region, frame, restart, whether the unit starts afresh)
        let script = [
            (a, 0, false, true),  // the region's first unit
            (a, 1, false, false), // its next frame
            (a, 2, true, true),   // a restart
            (a, 3, false, false),
            (b, 4, false, true), // a region switch
            (b, 1, false, true), // a frame gap back
            (b, 2, false, false),
            (b, 4, false, true), // a frame gap forward
        ];
        for coherence in [false, true] {
            let mut cfg = cfg(PartitionScheme::paper_frame_division(W, H), coherence);
            cfg.settings.trace = true;
            let ((), snap) = now_trace::capture(|| {
                let mut frames = Vec::new();
                render_sequence(
                    &anim,
                    &cfg.settings,
                    &cfg.cost,
                    SequenceMode::Plain,
                    crate::single::SingleMachine::unit(),
                    cfg.grid_voxels,
                    |_, fb| frames.push(fb),
                );
                let spec = shared_spec(&anim, &cfg);
                let mut worker = FarmWorker::new(Arc::clone(&anim), spec, cfg);
                let (mut receiver, mut canvas) = (None, BTreeMap::new());
                for (step, &(region, frame, restart, afresh)) in script.iter().enumerate() {
                    let unit = RenderUnit {
                        region,
                        frame,
                        restart,
                    };
                    let (out, _) = worker.perform(&unit);
                    let (mode, count) = (out.update.mode, out.update.count as usize);
                    let at = format!("coherence {coherence}, step {step}: mode {mode}, {count} px");
                    if afresh {
                        assert!(mode == MODE_FULL || mode == MODE_FULL_DEFLATE, "{at}");
                        assert_eq!(count, region.len(), "{at}");
                    } else if coherence {
                        assert!(count < region.len(), "{at}");
                    } else {
                        assert_eq!((mode, count), (MODE_DELTA_DEFLATE, region.len()), "{at}");
                    }
                    let pixels = out.update.decode(region, W, &mut receiver).expect(&at);
                    canvas.extend(pixels);
                    for id in region.pixel_ids(W) {
                        let (r, g, b) = frames[frame as usize].get_id(id).to_u8();
                        assert_eq!(canvas[&id], [r, g, b], "{at}: pixel {id}");
                    }
                }
            });
            // one engine per fresh start of a coherent worker (five), none
            // for a plain one
            let engines = snap.counters.get("coh.engines_built").map(|c| c.value);
            assert_eq!(engines, coherence.then_some(5), "coherence {coherence}");
        }
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
            },
            false,
        );
        let result = run_sim(&anim, &cfg, &SimCluster::paper());
        assert_eq!(result.frame_hashes, reference_hashes(&anim, &cfg));
        assert_eq!(result.marks, 0);
    }

    #[test]
    fn threads_backend_matches_reference() {
        let anim = anim();
        let cfg = cfg(
            PartitionScheme::FrameDivision {
                tile_w: 16,
                tile_h: 16,
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
        let result = run_tcp_master_with(listener, &anim, &cfg, &TcpFarmConfig::new(2), None)
            .expect("master");
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

    /// The job header's coherence byte: 0 plain, 1 exact, 2 paper. The
    /// first two are the bytes every header carried before there were
    /// dirty tests; any other byte is refused.
    #[test]
    fn the_coherence_byte_names_the_dirty_test() {
        let anim = anim();
        let base = cfg(PartitionScheme::SequenceDivision { adaptive: true }, true);
        let (exact, paper) = (DirtyTest::Exact, DirtyTest::Paper);
        for (coherence, dirty_test, byte, adopted) in [
            (false, exact, 0, None),
            (false, paper, 0, None),
            (true, exact, 1, Some(exact)),
            (true, paper, 2, Some(paper)),
        ] {
            let cfg = FarmConfig {
                coherence,
                dirty_test,
                ..base.clone()
            };
            let header = encode_job_header(&anim, &cfg);
            // after the u32 version and the u64 scene fingerprint
            assert_eq!(header[12], byte);
            assert_eq!(
                check_job_header(&header, &anim),
                Ok((adopted, base.grid_voxels))
            );
        }
        let mut bad = encode_job_header(&anim, &base);
        bad[12] = 3;
        let err = check_job_header(&bad, &anim).expect_err("byte 3 names no test");
        assert!(err.contains("coherence byte 3"), "{err}");
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
        let result =
            run_tcp_master_with(listener, &anim, &master_cfg, &TcpFarmConfig::new(1), None)
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
        let master = run_tcp_master_with(listener, &anim, &cfg, &tcp, None);
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
        };
        let with = run_sim(&anim, &cfg(scheme, true), &SimCluster::paper());
        let without = run_sim(&anim, &cfg(scheme, false), &SimCluster::paper());
        assert!(with.rays.total_rays() < without.rays.total_rays());
        assert!(with.pixels_shipped < without.pixels_shipped);
        assert!(with.report.makespan_s < without.report.makespan_s);
    }

    #[test]
    fn frame_files_decode_to_the_frame_hashes() {
        let anim = anim();
        let c = cfg(PartitionScheme::SequenceDivision { adaptive: true }, true);
        let dir = std::env::temp_dir().join(format!("now_farm_frames_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = JournalSpec::new(&dir);
        let result = run_sim_with(&anim, &c, &SimCluster::paper(), Some(&spec)).expect("run");
        assert_eq!(result.frame_hashes, reference_hashes(&anim, &c));
        for (f, &hash) in result.frame_hashes.iter().enumerate() {
            let bytes = std::fs::read(dir.join(format!("frame_{f:04}.tga"))).expect("frame file");
            let (w, h, px) = now_raytrace::image_io::tga_decode(&bytes).expect("tga");
            assert_eq!((w, h), (W, H));
            let rgb = px.into_iter().map(|(r, g, b)| [r, g, b]).collect();
            let canvas = Canvas {
                width: W,
                height: H,
                rgb,
            };
            assert_eq!(canvas.hash(), hash);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tile_deltas_cut_frame_bytes_3x() {
        // a longer, larger run of the coherent demo animation, measured
        // against what the same pixels would have cost in the legacy
        // 7 B/pixel raw tiles; it reads 3.32x (29,317 B). Ray-exact dirty
        // sets ship few unchanged pixels, the ones that delta-encode to
        // almost nothing, so the ratio sits below the 4x of voxel-level
        // sets on fewer bytes
        let anim = glassball::animation_sized(96, 72, 8);
        let c = cfg(
            PartitionScheme::FrameDivision {
                tile_w: 24,
                tile_h: 24,
            },
            true,
        );
        let r = run_sim(&anim, &c, &SimCluster::paper());
        assert_eq!(r.frame_hashes, reference_hashes(&anim, &c));
        let raw = 7 * r.pixels_shipped;
        assert!(
            raw >= 3 * r.frame_bytes_wire,
            "want >=3x reduction: raw {} vs delta {} ({:.2}x)",
            raw,
            r.frame_bytes_wire,
            raw as f64 / r.frame_bytes_wire as f64
        );
    }

    #[test]
    fn a_worker_serves_two_masters_back_to_back() {
        // one worker thread serves two back-to-back jobs for the same
        // scene, building its worker afresh for each session: both must
        // render the reference frames
        let anim = anim();
        let c = cfg(PartitionScheme::SequenceDivision { adaptive: true }, true);
        let l1 = bind_tcp_master("127.0.0.1:0").expect("bind");
        let l2 = bind_tcp_master("127.0.0.1:0").expect("bind");
        let a1 = l1.local_addr().expect("addr").to_string();
        let a2 = l2.local_addr().expect("addr").to_string();
        let w = {
            let (anim, c) = (anim.clone(), c.clone());
            std::thread::spawn(move || {
                serve_tcp_worker(&anim, &c, &a1, &ConnectConfig::default()).expect("first serve");
                serve_tcp_worker(&anim, &c, &a2, &ConnectConfig::default()).expect("second serve");
            })
        };
        let r1 =
            run_tcp_master_with(l1, &anim, &c, &TcpFarmConfig::new(1), None).expect("master 1");
        let r2 =
            run_tcp_master_with(l2, &anim, &c, &TcpFarmConfig::new(1), None).expect("master 2");
        let want = reference_hashes(&anim, &c);
        assert_eq!(r1.frame_hashes, want);
        assert_eq!(
            r2.frame_hashes, want,
            "the second session renders identically"
        );
        w.join().expect("worker thread");
    }

    /// Packing keeps every pixel in order, duplicates and all: the
    /// expansion is the input, and a canvas finished from the packed units
    /// ends (or stops at an outside id) exactly as from the plain list.
    #[test]
    fn packed_pixels_expand_to_exactly_what_was_packed() {
        // the largest steps a `PixelId` allows, 2³² − 1 either way, take
        // a 5 B varint
        let edge = [0, u32::MAX, 0, u32::MAX, 7, 7].map(|id| (id, [id as u8, 1, 2]));
        let packed = PackedPixels::pack(&edge);
        assert_eq!(packed.iter().collect::<Vec<_>>(), edge);
        assert_eq!(packed.0.len(), 1 + 5 + 5 + 5 + 5 + 1 + 6 * 3);
        let (w, h) = (24, 10);
        now_testkit::cases(400, |rng| {
            let wild = rng.bool();
            let units = rng.vec(0, 6, |rng| {
                rng.vec(0, 40, |rng| {
                    let id = match rng.usize_in(0, 8) {
                        0 => 0,
                        1 if wild => u32::MAX,
                        2 if wild => rng.u32(),
                        _ => rng.u32_in(0, w * h),
                    };
                    (id, [rng.u8(), rng.u8(), rng.u8()])
                })
            });
            let packed: Vec<_> = units.iter().map(|u| PackedPixels::pack(u)).collect();
            for (unit, p) in units.iter().zip(&packed) {
                assert_eq!(p.iter().collect::<Vec<_>>(), *unit);
            }
            let (mut want, mut got) = (Canvas::new(w, h), Canvas::new(w, h));
            assert_eq!(
                got.finish(packed.iter().flat_map(PackedPixels::iter)),
                want.finish(units.concat())
            );
            assert_eq!(got.rgb, want.rgb);
        });
    }

    /// Under plain frame division one worker ships every frame of a
    /// region before the next region, so nearly the whole run waits in
    /// `pending` until the last region's queue arrives. Packed, a waiting
    /// pixel costs its RGB and a 1 B id step (2 B at a row start).
    #[test]
    fn a_pending_pixel_costs_about_four_bytes() {
        let (w, h, frames) = (160, 120, 4);
        let anim = now_anim::scenes::newton::animation_sized(w, h, frames);
        let scheme = PartitionScheme::FrameDivision {
            tile_w: 80,
            tile_h: 80,
        };
        let mut master = FarmMaster::new(&anim, &cfg(scheme, false), 1);
        let (mut peak, frame_px) = (0, (w * h) as u64);
        while let Some(unit) = master.assign(0) {
            let pixels: Vec<_> = unit
                .region
                .pixel_ids(w)
                .map(|id| (id, [id as u8, (id >> 8) as u8, unit.frame as u8]))
                .collect();
            let mut out = UnitOutput {
                update: TileUpdate::encode(&pixels, unit.region, w, &mut None, true),
                rays: RayStats::default(),
                marks: 0,
                checksum: 0,
            };
            out.seal();
            master.integrate(0, unit, out).expect("verified");
            let bytes: usize = master
                .pending
                .values()
                .flat_map(|(units, _)| units.iter().map(|p| p.0.len()))
                .sum();
            let waiting = master.pixels_shipped - master.frame_hashes.len() as u64 * frame_px;
            assert!(
                bytes as f64 <= 4.1 * waiting as f64,
                "{bytes} B for {waiting} pixels"
            );
            peak = peak.max(waiting);
        }
        assert_eq!(master.frame_hashes.len(), frames);
        assert!(
            peak * 2 > frames as u64 * frame_px,
            "most of the run piles up"
        );
    }
}
