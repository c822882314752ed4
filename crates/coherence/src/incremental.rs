//! The incremental (frame-coherent) sequence renderer.
//!
//! Renders an animation frame by frame; every frame after the first is
//! produced by copying the previous frame and re-rendering only the pixels
//! whose recorded rays pass through changed voxels.
//!
//! Granularity is configurable: group size 1 is the paper's pixel-level
//! algorithm; larger groups reproduce Jevans' block-based scheme ("if one
//! pixel in the block needs to be updated, all pixels in the block are
//! re-computed"), which the paper contrasts against. Plain rendering is
//! the same renderer without an engine ([`RenderMode::Plain`]).
//!
//! A renderer is built once, by [`CoherentRenderer::for_region`], and
//! renders its sequence to the end: a camera cut inside the sequence is a
//! [`ChangeSet::Everything`] transition, which re-renders the whole region
//! and keeps the engine, and a fresh start is a new renderer.

use crate::change::{changed_voxels, ChangeSet, MoverMask};
use crate::engine::{CoherenceEngine, CoherenceStats, DirtyTest, Trigger};
use crate::region::PixelRegion;
use now_grid::dda::VoxelPath;
use now_grid::GridSpec;
use now_math::Ray;
use now_raytrace::{
    render_pixels_par, Framebuffer, GridAccel, NullListener, PixelId, RayKind, RayListener,
    RayStats, RenderSettings, Scene,
};
use std::sync::Arc;

/// Numbers a region's coherence groups row-major from 0, so the engine's
/// per-group tables are the region's size, not the frame's. A group is a
/// pixel at block 1 (a region of n pixels has groups `0..n`); a larger
/// block groups the frame's block-aligned squares, clipped to the region.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GroupMap {
    /// Frame width (what pixel ids are numbered over).
    width: u32,
    region: PixelRegion,
    block: u32,
    /// The region's first block column and row, in frame blocks.
    gx0: u32,
    gy0: u32,
    /// Blocks the region touches per row and per column.
    groups_x: u32,
    groups_y: u32,
}

impl GroupMap {
    pub(crate) fn new(width: u32, region: PixelRegion, block: u32) -> GroupMap {
        assert!(block > 0);
        let (gx0, gy0) = (region.x0 / block, region.y0 / block);
        GroupMap {
            width,
            region,
            block,
            gx0,
            gy0,
            groups_x: (region.x0 + region.w).div_ceil(block) - gx0,
            groups_y: (region.y0 + region.h).div_ceil(block) - gy0,
        }
    }

    pub(crate) fn group_count(&self) -> usize {
        self.groups_x as usize * self.groups_y as usize
    }

    /// The group of frame pixel `pixel`, which must lie in the region.
    #[inline]
    fn group_of(&self, pixel: PixelId) -> u32 {
        let (x, y) = (pixel % self.width, pixel / self.width);
        let (gx, gy) = match self.block {
            1 => (x, y),
            b => (x / b, y / b),
        };
        (gy - self.gy0) * self.groups_x + gx - self.gx0
    }

    /// The frame ids of group `g`'s pixels, row-major.
    pub(crate) fn pixels_of_group(&self, g: u32) -> impl Iterator<Item = PixelId> {
        let (gx, gy) = (self.gx0 + g % self.groups_x, self.gy0 + g / self.groups_x);
        let (r, b, width) = (self.region, self.block, self.width);
        let xs = (gx * b).max(r.x0)..((gx + 1) * b).min(r.x0 + r.w);
        let ys = (gy * b).max(r.y0)..((gy + 1) * b).min(r.y0 + r.h);
        ys.flat_map(move |y| xs.clone().map(move |x| y * width + x))
    }
}

/// Listener adapter that records rays under their *group* id, optionally
/// skipping shadow rays. Wraps the engine by `&mut`.
pub(crate) struct GroupListener<L> {
    pub(crate) engine: L,
    pub(crate) map: GroupMap,
    pub(crate) track_shadows: bool,
}

impl<L: RayListener> RayListener for GroupListener<L> {
    const PATHS: bool = L::PATHS;

    #[inline]
    fn on_ray(
        &mut self,
        pixel: PixelId,
        ray: &Ray,
        kind: RayKind,
        t_max: f64,
        path: Option<VoxelPath<'_>>,
    ) {
        if !self.track_shadows && kind == RayKind::Shadow {
            return;
        }
        self.engine
            .on_ray(self.map.group_of(pixel), ray, kind, t_max, path);
    }
}

/// Per-frame outcome report.
#[derive(Debug, Clone)]
pub struct FrameReport {
    /// Index of the frame within the sequence (0-based).
    pub frame_index: usize,
    /// True if the whole region was rendered from scratch.
    pub full_render: bool,
    /// Number of changed voxels detected (region-independent).
    pub changed_voxels: usize,
    /// Pixels actually re-rendered this frame.
    pub pixels_rendered: usize,
    /// The ids of the re-rendered pixels (what a farm worker ships to the
    /// master as the frame delta).
    pub rendered: Vec<PixelId>,
    /// Pixels owned by this renderer's region.
    pub region_pixels: usize,
    /// Rays fired this frame.
    pub rays: RayStats,
    /// Coherence voxel marks performed this frame.
    pub marks: u64,
    /// Cumulative coherence bookkeeping counters after this frame.
    pub coherence: CoherenceStats,
    /// Engine memory in bytes after this frame.
    pub memory_bytes: usize,
}

/// How a [`CoherentRenderer`] renders each frame of its region.
#[derive(Debug, Clone)]
pub enum RenderMode {
    /// Every frame renders every region pixel and records nothing (plain
    /// rendering): no engine, and zero coherence statistics and memory.
    Plain,
    /// Frame coherence: a frame after the first re-renders only the pixels
    /// the renderer's engine finds dirty.
    Coherent {
        /// How the engine decides dirty pixels.
        test: DirtyTest,
        /// The [`MoverMask`] of the sequence the renderer renders, over
        /// its grid, and the frame of that sequence the renderer renders
        /// first (a farm worker's renderer starts wherever its first unit
        /// does). Frames, re-rendered pixels and ray counts stay exactly
        /// those of an unmasked renderer. The engine knows every
        /// transition, so it settles each ray for good as it records it
        /// and keeps one `due` transition per group and nothing of the
        /// rays, and the renderer keeps no previous scene. The mask's
        /// change sets stand in for computing each transition, so the
        /// renderer's frames must be consecutive frames of the mask's
        /// sequence from that one; a frame past its end re-renders the
        /// whole region. `None` is the learning engine of the shims: the
        /// renderer computes each transition from its previous scene and
        /// hands it over, so the engine keeps the bodies of the rays of
        /// every group not yet due until then.
        mask: Option<(Arc<MoverMask>, usize)>,
        /// Coherence block edge: 1 is the paper's pixel-level algorithm; a
        /// larger block is Jevans' scheme, where one dirty pixel
        /// re-renders its whole block.
        block: u32,
        /// Whether shadow rays are recorded. The paper's algorithm records
        /// them; without them the engine is cheaper but **no longer
        /// conservative**: a pixel whose only connection to a moving
        /// object is its shadow ray is not re-rendered, leaving a stale
        /// shadow (the `ablations shadows` bench quantifies that error).
        track_shadows: bool,
    },
}

/// Incremental renderer for one camera-stationary sequence over one pixel
/// region.
///
/// The grid `spec` must cover the scene bounds of *every* frame of the
/// sequence (the animation layer computes the swept bounds); the engine
/// and the intersection accelerator share it.
///
/// ```
/// use now_coherence::CoherentRenderer;
/// use now_grid::GridSpec;
/// use now_math::{Color, Point3, Vec3};
/// use now_raytrace::{Camera, Geometry, Material, Object, PointLight, RenderSettings, Scene};
///
/// let cam = Camera::look_at(Point3::new(0.0, 1.0, 5.0), Point3::ZERO,
///                           Vec3::UNIT_Y, 60.0, 16, 12);
/// let mut scene = Scene::new(cam);
/// scene.add_object(Object::new(
///     Geometry::Sphere { center: Point3::ZERO, radius: 1.0 },
///     Material::matte(Color::WHITE),
/// ));
/// scene.add_light(PointLight::new(Point3::new(4.0, 5.0, 4.0), Color::WHITE));
///
/// let spec = GridSpec::for_scene(scene.bounds(), 512);
/// let mut renderer = CoherentRenderer::new(spec, 16, 12, RenderSettings::default());
/// let (_, first) = renderer.render_next(&scene);
/// assert!(first.full_render);
/// // nothing changed: the second frame re-renders zero pixels
/// let (_, second) = renderer.render_next(&scene);
/// assert_eq!(second.pixels_rendered, 0);
/// ```
pub struct CoherentRenderer {
    spec: GridSpec,
    settings: RenderSettings,
    region: PixelRegion,
    map: GroupMap,
    /// `None` for a plain renderer.
    engine: Option<CoherenceEngine>,
    /// The region's colours, which the next frame starts from.
    fb: Framebuffer,
    /// The last frame's scene, kept by a learning coherent renderer (a
    /// masked one takes its transitions from its mask).
    prev: Option<Scene>,
    frame_index: usize,
    /// Frame of the mask's sequence the renderer's frame 0 is (0 for a
    /// learning renderer).
    first_frame: usize,
    track_shadows: bool,
}

impl CoherentRenderer {
    /// Exact pixel-granularity renderer over the full frame.
    pub fn new(spec: GridSpec, width: u32, height: u32, settings: RenderSettings) -> Self {
        Self::with_region_and_block(
            spec,
            width,
            height,
            PixelRegion::full(width, height),
            1,
            settings,
        )
    }

    /// Exact renderer of `region` (a frame-division worker's) with
    /// coherence block `block` (`block > 1` = Jevans-style), unmasked,
    /// shadow rays tracked, starting at frame 0.
    pub fn with_region_and_block(
        spec: GridSpec,
        width: u32,
        height: u32,
        region: PixelRegion,
        block: u32,
        settings: RenderSettings,
    ) -> Self {
        Self::for_region(
            spec,
            width,
            height,
            region,
            RenderMode::Coherent {
                test: DirtyTest::Exact,
                mask: None,
                block,
                track_shadows: true,
            },
            settings,
        )
    }

    /// The renderer of `region` of a `width` x `height` frame in `mode`.
    /// Everything it keeps per pixel — the engine's tables (a coherent
    /// renderer's one engine), the previous frame's colours — is the
    /// region's size.
    pub fn for_region(
        spec: GridSpec,
        width: u32,
        height: u32,
        region: PixelRegion,
        mode: RenderMode,
        settings: RenderSettings,
    ) -> Self {
        let block = match mode {
            RenderMode::Plain => 1,
            RenderMode::Coherent { block, .. } => block,
        };
        let map = GroupMap::new(width, region, block);
        let (engine, first_frame, track_shadows) = match mode {
            RenderMode::Plain => (None, 0, true),
            RenderMode::Coherent {
                test,
                mask,
                track_shadows,
                ..
            } => {
                let first_frame = mask.as_ref().map_or(0, |&(_, f)| f);
                let engine =
                    CoherenceEngine::new(spec, map.group_count(), test, mask, settings.trace);
                (Some(engine), first_frame, track_shadows)
            }
        };
        let PixelRegion { x0, y0, w, h } = region;
        CoherentRenderer {
            spec,
            settings,
            region,
            map,
            engine,
            fb: Framebuffer::window(width, height, x0, y0, w, h),
            prev: None,
            frame_index: 0,
            first_frame,
            track_shadows,
        }
    }

    /// The region this renderer owns.
    pub fn region(&self) -> PixelRegion {
        self.region
    }

    /// Engine statistics.
    pub fn coherence_stats(&self) -> CoherenceStats {
        self.engine()
            .map(CoherenceEngine::stats)
            .unwrap_or_default()
    }

    /// The renderer's engine; `None` for a plain renderer.
    pub fn engine(&self) -> Option<&CoherenceEngine> {
        self.engine.as_ref()
    }

    /// Approximate memory held by coherence data structures.
    pub fn memory_bytes(&self) -> usize {
        self.engine().map_or(0, CoherenceEngine::memory_bytes)
    }

    /// Emit the frame's coherence events into the global trace recorder.
    ///
    /// Everything here is deterministic: frames arrive in sequence order on
    /// the driving thread, and the dirty set is a pure function of the
    /// scene pair — so these events are part of the golden stream.
    fn emit_trace(&self, report: &FrameReport) {
        if self.engine.is_none() || !self.settings.trace || !now_trace::enabled() {
            return;
        }
        let rec = now_trace::global();
        let dirty_pm = if report.region_pixels == 0 {
            0
        } else {
            report.pixels_rendered as u64 * 1000 / report.region_pixels as u64
        };
        rec.instant(
            0,
            "coh.frame",
            &[
                ("frame", report.frame_index as u64),
                ("changed", report.changed_voxels as u64),
                ("rendered", report.pixels_rendered as u64),
                ("dirty_pm", dirty_pm),
            ],
            true,
        );
        rec.counter_add("coh.recomputed_pixels", report.pixels_rendered as u64);
        rec.counter_add(
            "coh.copied_pixels",
            (report.region_pixels - report.pixels_rendered) as u64,
        );
        rec.counter_add("coh.changed_voxels", report.changed_voxels as u64);
        rec.counter_add("coh.frames", 1);
    }

    /// What changed into the frame about to render, `scene`: whether it
    /// re-renders the whole region, how many voxels changed, and the
    /// groups whose recorded rays it dirties. A first frame (and every
    /// frame of a plain renderer) renders the whole region with nothing
    /// recorded to drop; an [`ChangeSet::Everything`] transition, and a
    /// masked renderer's frame past its sequence, renders it and drops
    /// every group's rays. Otherwise the engine answers with the groups
    /// due at the transition: a masked one takes the transition from its
    /// mask, a learning one is handed the change from the kept previous
    /// scene.
    fn transition(&mut self, scene: &Scene) -> (bool, usize, Vec<PixelId>) {
        let Some(engine) = self.engine.as_mut().filter(|_| self.frame_index > 0) else {
            return (true, 0, Vec::new());
        };
        let t = self.first_frame + self.frame_index - 1;
        let mask = engine.mask().cloned();
        let learned;
        let step = match &mask {
            Some(mask) => mask.transition(t).map(|change| (change, &mask.triggers[t])),
            None => {
                let prev = self
                    .prev
                    .take()
                    .expect("a learning renderer keeps its last scene");
                let change = changed_voxels(&self.spec, &prev, scene);
                let trigger = Trigger::of(&self.spec, &change);
                learned = (change, trigger);
                Some((&learned.0, &learned.1))
            }
        };
        match step {
            Some((ChangeSet::Voxels { voxels, .. }, trigger)) => {
                (false, voxels.len(), engine.due_groups(t, trigger))
            }
            _ => {
                let all = (0..self.map.group_count() as PixelId).collect();
                (true, self.spec.voxel_count(), all)
            }
        }
    }

    /// Render the next frame of the sequence.
    ///
    /// Returns the region's colours (a [`Framebuffer::window`]; a
    /// full-frame renderer's is the whole frame) and a report of the work
    /// done.
    pub fn render_next(&mut self, scene: &Scene) -> (Framebuffer, FrameReport) {
        let (fb, report) = self.render_next_borrowed(scene);
        (fb.clone(), report)
    }

    /// [`CoherentRenderer::render_next`] without the copy: the framebuffer
    /// is the renderer's own, which the next frame will update in place.
    pub fn render_next_borrowed(&mut self, scene: &Scene) -> (&Framebuffer, FrameReport) {
        let accel = GridAccel::build_with_spec(scene, self.spec);
        let (full_render, changed, stale) = self.transition(scene);
        let ids: Vec<PixelId> = if full_render {
            self.region.pixel_ids(self.map.width).collect()
        } else {
            stale
                .iter()
                .flat_map(|&g| self.map.pixels_of_group(g))
                .collect()
        };
        let marks_before = self.coherence_stats().marks;
        let (fb, st, mut rays) = (&mut self.fb, &self.settings, RayStats::default());
        match &mut self.engine {
            None => render_pixels_par(scene, &accel, st, fb, &ids, &mut NullListener, &mut rays),
            Some(engine) => {
                engine.invalidate_pixels(&stale);
                let mut listener = GroupListener {
                    engine: &mut *engine,
                    map: self.map,
                    track_shadows: self.track_shadows,
                };
                render_pixels_par(scene, &accel, st, fb, &ids, &mut listener, &mut rays);
                engine.end_frame();
                if engine.mask().is_none() {
                    self.prev = Some(scene.clone());
                }
            }
        }

        let coherence = self.coherence_stats();
        let report = FrameReport {
            frame_index: self.frame_index,
            full_render,
            changed_voxels: changed,
            pixels_rendered: ids.len(),
            rendered: ids,
            region_pixels: self.region.len(),
            rays,
            marks: coherence.marks - marks_before,
            coherence,
            memory_bytes: self.memory_bytes(),
        };
        self.emit_trace(&report);
        self.frame_index += 1;
        (&self.fb, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use now_math::{Affine, Color, Point3, Vec3};
    use now_raytrace::{
        render_frame, Camera, Geometry, Material, NullListener, Object, PointLight,
    };

    /// A small scene with a moving ball over a floor box, mirror back wall.
    fn frame_scene(t: f64) -> Scene {
        let cam = Camera::look_at(
            Point3::new(0.0, 1.5, 8.0),
            Point3::new(0.0, 0.5, 0.0),
            Vec3::UNIT_Y,
            55.0,
            48,
            36,
        );
        let mut s = Scene::new(cam);
        s.background = Color::new(0.05, 0.05, 0.1);
        s.add_object(Object::new(
            Geometry::Cuboid {
                min: Point3::new(-4.0, -0.5, -4.0),
                max: Point3::new(4.0, 0.0, 4.0),
            },
            Material::matte(Color::gray(0.6)),
        ));
        s.add_object(
            Object::new(
                Geometry::Sphere {
                    center: Point3::new(-2.0, 0.6, 0.0),
                    radius: 0.6,
                },
                Material::chrome(Color::new(0.9, 0.9, 1.0)),
            )
            .named("ball")
            .with_transform(Affine::translate(Vec3::new(t, 0.0, 0.0))),
        );
        s.add_light(PointLight::new(Point3::new(3.0, 6.0, 5.0), Color::WHITE));
        s
    }

    fn sequence_spec() -> GridSpec {
        // bounds covering the ball over t in [0, 2]
        let b = frame_scene(0.0).bounds().union(&frame_scene(2.0).bounds());
        GridSpec::for_scene(b, 16 * 16 * 16)
    }

    /// The coherent mode with `test` and `mask` at pixel granularity,
    /// shadow rays tracked.
    fn coherent(test: DirtyTest, mask: Option<(Arc<MoverMask>, usize)>) -> RenderMode {
        RenderMode::Coherent {
            test,
            mask,
            block: 1,
            track_shadows: true,
        }
    }

    /// A renderer of the whole 48x36 frame of [`frame_scene`] in `mode`.
    fn whole_frame(spec: GridSpec, mode: RenderMode, settings: RenderSettings) -> CoherentRenderer {
        CoherentRenderer::for_region(spec, 48, 36, PixelRegion::full(48, 36), mode, settings)
    }

    fn scratch_render(scene: &Scene, spec: GridSpec) -> Framebuffer {
        let accel = GridAccel::build_with_spec(scene, spec);
        render_frame(
            scene,
            &accel,
            &RenderSettings::default(),
            &mut NullListener,
            &mut RayStats::default(),
        )
    }

    #[test]
    fn incremental_equals_scratch_for_moving_ball() {
        let spec = sequence_spec();
        let mut r = CoherentRenderer::new(spec, 48, 36, RenderSettings::default());
        for i in 0..5 {
            let t = i as f64 * 0.4;
            let scene = frame_scene(t);
            let (fb, report) = r.render_next(&scene);
            let reference = scratch_render(&scene, spec);
            assert!(
                fb.same_image(&reference),
                "frame {i}: incremental render deviates ({} pixels differ)",
                fb.diff_ids(&reference).len()
            );
            if i == 0 {
                assert!(report.full_render);
            } else {
                assert!(!report.full_render);
                assert!(
                    report.pixels_rendered < report.region_pixels,
                    "frame {i} recomputed everything"
                );
                assert!(
                    report.pixels_rendered > 0,
                    "ball moved, something must change"
                );
            }
        }
    }

    /// The learning store's footprint after one fully recorded Newton
    /// frame. A paper body is its path: two 3-bit step codes per byte and
    /// two short varints per ray, far under the 8 bytes a fixed `(pixel,
    /// gen)` pair per mark would cost. An exact body is its 12-byte
    /// segment, nothing else.
    #[test]
    fn a_recorded_newton_frame_costs_under_two_bytes_per_mark() {
        let scene = now_anim::scenes::newton::scene(96, 72);
        let spec = GridSpec::for_scene(scene.bounds(), 24 * 24 * 24);
        for test in [DirtyTest::Paper, DirtyTest::Exact] {
            let mut r = CoherentRenderer::for_region(
                spec,
                96,
                72,
                PixelRegion::full(96, 72),
                coherent(test, None),
                RenderSettings::default(),
            );
            let (_, report) = r.render_next(&scene);
            assert!(report.full_render);
            let engine = r.engine().unwrap();
            let (stats, kept) = (engine.stats(), engine.kept_bytes() as u64);
            assert!(stats.entries > 0);
            match test {
                DirtyTest::Paper => {
                    let mark_bytes = kept as f64 / stats.marks as f64;
                    assert!(mark_bytes <= 2.0, "{mark_bytes} body bytes per mark");
                }
                DirtyTest::Exact => assert_eq!(kept, 12 * stats.entries),
            }
        }
    }

    /// The glass ball's 12-frame sequence at 120x90 in the farm's 4x3
    /// mover-masked regions on its 24^3 grid. A masked engine keeps
    /// nothing of its rays: what it holds on every frame is its `due`
    /// table, 4 B a group — at pixel groups and at 32x32 Jevans blocks,
    /// whose dirty frames record a whole block's rays at a time. The dirty
    /// sets are the ones the voxel-and-bound test chose when every record
    /// was logged with its voxel path (23,921 pixels re-rendered,
    /// fingerprint below).
    #[test]
    fn a_region_log_holds_no_voxel_path() {
        let (w, h, frames) = (120, 90, 12);
        let anim = now_anim::scenes::glassball::animation_sized(w, h, frames);
        let spec = GridSpec::for_scene(anim.swept_bounds(), 24 * 24 * 24);
        let scenes: Vec<Scene> = (0..frames).map(|f| anim.scene_at(f)).collect();
        let mask = Arc::new(MoverMask::of_sequence(&spec, scenes.iter().cloned()));
        let mut rendered = 0;
        // FNV-1a over each region's frames and re-rendered ids
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                hash = (hash ^ b as u64).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for region in PixelRegion::tiles(w, h, w.div_ceil(4), h.div_ceil(3)) {
            let mut r = CoherentRenderer::for_region(
                spec,
                w,
                h,
                region,
                coherent(DirtyTest::Exact, Some((Arc::clone(&mask), 0))),
                RenderSettings::default(),
            );
            for (f, scene) in scenes.iter().enumerate() {
                let (_, report) = r.render_next_borrowed(scene);
                rendered += report.rendered.len();
                mix(f as u64);
                for &id in &report.rendered {
                    mix(id as u64);
                }
                assert_eq!(report.memory_bytes, 4 * region.len(), "frame {f}");
            }
            assert_eq!(r.coherence_stats().fallbacks, 0);
        }
        assert_eq!(rendered, 23_921);
        assert_eq!(hash, 0x96c8_fe3d_7470_7190);

        let blocks = RenderMode::Coherent {
            test: DirtyTest::Exact,
            mask: Some((Arc::clone(&mask), 0)),
            block: 32,
            track_shadows: true,
        };
        let whole = PixelRegion::full(w, h);
        let groups = GroupMap::new(w, whole, 32).group_count();
        let mut r =
            CoherentRenderer::for_region(spec, w, h, whole, blocks, RenderSettings::default());
        let mut partial = 0;
        for (f, scene) in scenes.iter().enumerate() {
            let (_, report) = r.render_next_borrowed(scene);
            partial += (!report.full_render && report.pixels_rendered > 0) as u32;
            assert!(
                report.memory_bytes <= 4 * groups + 64,
                "frame {f}: {} B for {groups} blocks",
                report.memory_bytes
            );
        }
        assert!(partial > 0, "no block was re-rendered on its own");
    }

    /// A plain renderer is the record-nothing case of the region renderer:
    /// every frame re-renders every pixel of its region, it builds no
    /// engine and emits no coherence event with tracing on (one built
    /// afresh mid-sequence neither), and its frames are a coherent
    /// renderer's byte for byte.
    #[test]
    fn a_plain_renderer_renders_every_pixel_and_records_nothing() {
        let spec = sequence_spec();
        let traced = RenderSettings {
            trace: true,
            ..RenderSettings::default()
        };
        let region = PixelRegion {
            x0: 8,
            y0: 6,
            w: 24,
            h: 18,
        };
        let scenes: Vec<Scene> = (0..4).map(|i| frame_scene(i as f64 * 0.4)).collect();
        let plain = || {
            CoherentRenderer::for_region(spec, 48, 36, region, RenderMode::Plain, traced.clone())
        };
        let (plain_frames, snap) = now_trace::capture(|| {
            let mut r = plain();
            let mut frames = Vec::new();
            for (f, scene) in scenes.iter().enumerate() {
                if f == 2 {
                    r = plain();
                }
                let (fb, report) = r.render_next(scene);
                assert!(report.full_render);
                assert_eq!(report.frame_index, f % 2);
                assert_eq!(report.rendered, region.pixel_ids(48).collect::<Vec<_>>());
                assert_eq!(report.pixels_rendered, region.len());
                assert_eq!(report.rays.pixels, region.len() as u64);
                assert_eq!(report.marks, 0);
                assert_eq!(report.coherence, CoherenceStats::default());
                assert_eq!(report.memory_bytes, 0);
                frames.push(fb);
            }
            assert!(r.engine().is_none());
            assert_eq!(r.memory_bytes(), 0);
            assert_eq!(r.coherence_stats(), CoherenceStats::default());
            frames
        });
        let coh_events = |snap: &now_trace::Snapshot| {
            snap.events
                .iter()
                .filter(|e| e.name.starts_with("coh."))
                .count()
        };
        assert_eq!(coh_events(&snap), 0);
        assert!(!snap.counters.contains_key("coh.frames"));
        assert!(!snap.counters.contains_key("coh.engines_built"));
        // the coherent renderer of the same region, traced the same way,
        // builds one engine, does emit them, and renders the same bytes
        let (_, snap) = now_trace::capture(|| {
            let mut r = CoherentRenderer::with_region_and_block(spec, 48, 36, region, 1, traced);
            for (f, (scene, want)) in scenes.iter().zip(&plain_frames).enumerate() {
                let (fb, report) = r.render_next(scene);
                assert_eq!(&fb, want, "frame {f}");
                assert_eq!(report.full_render, f == 0);
            }
        });
        assert_eq!(coh_events(&snap), scenes.len());
        assert_eq!(snap.counters["coh.engines_built"].value, 1);
    }

    #[test]
    fn static_frames_recompute_nothing() {
        let spec = sequence_spec();
        let mut r = CoherentRenderer::new(spec, 48, 36, RenderSettings::default());
        let scene = frame_scene(0.0);
        let _ = r.render_next(&scene);
        let (_, report) = r.render_next(&scene);
        assert_eq!(report.pixels_rendered, 0);
        assert_eq!(report.changed_voxels, 0);
        assert_eq!(report.rays.total_rays(), 0);
    }

    #[test]
    fn region_renderer_owns_only_its_pixels() {
        let spec = sequence_spec();
        let region = PixelRegion {
            x0: 0,
            y0: 0,
            w: 24,
            h: 36,
        }; // left half
        let mut r = CoherentRenderer::with_region_and_block(
            spec,
            48,
            36,
            region,
            1,
            RenderSettings::default(),
        );
        let scene = frame_scene(0.0);
        let (fb, report) = r.render_next(&scene);
        assert_eq!(report.pixels_rendered, region.len());
        let reference = scratch_render(&scene, spec);
        // inside the region: matches; outside: the buffer holds nothing
        for id in region.pixel_ids(48) {
            assert_eq!(fb.get_id(id).to_u8(), reference.get_id(id).to_u8());
        }
        assert_eq!(fb.len(), region.len());
        let outside = fb.id_of(40, 10);
        let read = std::panic::catch_unwind(|| fb.get_id(outside));
        assert!(read.is_err(), "a pixel outside the region has no colour");
    }

    /// Region renderers at the frame's origin and elsewhere, with even and
    /// ragged edge tiles, masked and not, over seeded motion: every frame
    /// they compose equals a from-scratch render, and every id they
    /// report is a frame id of their own region, ascending.
    #[test]
    fn region_renderers_compose_to_full_frame() {
        let spec = sequence_spec();
        let frames = 5;
        for seed in 0..4u64 {
            let mut rng = now_testkit::Rng::with_seed(seed);
            let (tw, th) = match seed {
                0 => (24, 18),
                _ => (rng.u32_in(13, 24), rng.u32_in(9, 17)),
            };
            let mut xs: Vec<f64> = (0..frames).map(|_| rng.f64_in(0.0, 2.0)).collect();
            xs[2] = xs[1]; // one standstill
            let at = |f: usize| frame_scene(xs[f]);
            let mask = Arc::new(MoverMask::of_sequence(&spec, (0..frames).map(at)));
            let regions = PixelRegion::tiles(48, 36, tw, th);
            let ragged = regions.iter().any(|r| r.w < tw || r.h < th);
            assert_eq!(ragged, seed > 0, "{tw}x{th} tiles");
            for masked in [false, true] {
                let mut renderers: Vec<CoherentRenderer> = regions
                    .iter()
                    .map(|&reg| {
                        let mask = masked.then(|| (Arc::clone(&mask), 0));
                        let mode = coherent(DirtyTest::Exact, mask);
                        CoherentRenderer::for_region(
                            spec,
                            48,
                            36,
                            reg,
                            mode,
                            RenderSettings::default(),
                        )
                    })
                    .collect();
                for f in 0..frames {
                    let scene = at(f);
                    let mut composed = Framebuffer::new(48, 36);
                    for (r, reg) in renderers.iter_mut().zip(&regions) {
                        let (fb, report) = r.render_next(&scene);
                        assert_eq!(fb.len(), reg.len());
                        assert!(report.rendered.windows(2).all(|p| p[0] < p[1]));
                        assert!(report.rendered.iter().all(|&id| reg.contains_id(id, 48)));
                        composed.copy_ids_from(&fb, reg.pixel_ids(48));
                    }
                    assert!(
                        composed.same_image(&scratch_render(&scene, spec)),
                        "seed {seed}, {tw}x{th} tiles, masked {masked}: frame {f}"
                    );
                }
            }
        }
    }

    /// An 80x80 region of a 320x240 frame keeps region-sized state: at
    /// most 9 B a region pixel of side tables, and exactly one colour per
    /// region pixel.
    #[test]
    fn a_region_renderer_holds_region_sized_state() {
        let scene = now_anim::scenes::newton::scene(320, 240);
        let spec = GridSpec::for_scene(scene.bounds(), 16 * 16 * 16);
        let region = PixelRegion {
            x0: 160,
            y0: 80,
            w: 80,
            h: 80,
        };
        let mut r = CoherentRenderer::with_region_and_block(
            spec,
            320,
            240,
            region,
            1,
            RenderSettings::default(),
        );
        let side_tables = r.memory_bytes();
        assert!(
            side_tables <= 9 * region.len(),
            "{side_tables} B of side tables for {} pixels",
            region.len()
        );
        let (fb, report) = r.render_next_borrowed(&scene);
        assert_eq!(fb.len(), region.len());
        assert_eq!(report.rendered, region.pixel_ids(320).collect::<Vec<_>>());
    }

    #[test]
    fn block_granularity_recomputes_more_but_stays_correct() {
        let spec = sequence_spec();
        let mut pixel_r = CoherentRenderer::new(spec, 48, 36, RenderSettings::default());
        let mut block_r = CoherentRenderer::with_region_and_block(
            spec,
            48,
            36,
            PixelRegion::full(48, 36),
            8,
            RenderSettings::default(),
        );
        let mut pixel_total = 0usize;
        let mut block_total = 0usize;
        for i in 0..4 {
            let scene = frame_scene(i as f64 * 0.4);
            let reference = scratch_render(&scene, spec);
            let (fa, ra) = pixel_r.render_next(&scene);
            let (fbimg, rb) = block_r.render_next(&scene);
            assert!(fa.same_image(&reference));
            assert!(fbimg.same_image(&reference));
            if i > 0 {
                pixel_total += ra.pixels_rendered;
                block_total += rb.pixels_rendered;
            }
        }
        assert!(
            block_total >= pixel_total,
            "blocks must recompute at least as many pixels ({block_total} vs {pixel_total})"
        );
    }

    /// A masked renderer started at frame k of its sequence (a farm
    /// worker's restart or steal) takes transition k -> k+1 from the mask,
    /// and so does one built afresh two frames later; both render every
    /// frame as a from-scratch render does.
    #[test]
    fn a_renderer_started_mid_sequence_looks_up_its_own_transitions() {
        let spec = sequence_spec();
        // a standstill, then moves of different sizes: every transition
        // changes a different number of voxels
        let at = |f: usize| frame_scene([0.0, 0.0, 0.02, 0.9, 1.3, 1.55][f]);
        let frames = 6;
        let mask = Arc::new(MoverMask::of_sequence(&spec, (0..frames).map(at)));
        let counts: Vec<usize> = (0..frames - 1)
            .map(|f| mask.transition(f).unwrap().len(&spec))
            .collect();
        let mut distinct = counts.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), counts.len(), "{counts:?}");
        let from = |k| {
            let mode = coherent(DirtyTest::Exact, Some((Arc::clone(&mask), k)));
            whole_frame(spec, mode, RenderSettings::default())
        };
        for k in 0..frames - 1 {
            let mut r = from(k);
            for f in k..frames {
                if f == k + 2 {
                    r = from(f);
                }
                let scene = at(f);
                let (fb, report) = r.render_next(&scene);
                assert!(
                    fb.same_image(&scratch_render(&scene, spec)),
                    "from {k}: {f}"
                );
                if !report.full_render {
                    assert_eq!(report.changed_voxels, counts[f - 1], "from {k}: {f}");
                }
                assert_eq!(report.full_render, f == k || f == k + 2);
            }
        }
    }

    /// A lit floor seen from below a block that shades it, and a ball
    /// over the block, between it and the light: frame `f` moves the ball
    /// (and, if `block_moves`, the block) along x. Objects: floor, block,
    /// ball.
    fn shaded_floor(f: usize, block_moves: bool) -> Scene {
        let cam = Camera::look_at(
            Point3::new(0.0, 1.5, 0.01),
            Point3::ZERO,
            Vec3::UNIT_Y,
            100.0,
            40,
            30,
        );
        let mut s = Scene::new(cam);
        s.add_object(Object::new(
            Geometry::Cuboid {
                min: Point3::new(-4.0, -0.5, -4.0),
                max: Point3::new(4.0, 0.0, 4.0),
            },
            Material::matte(Color::gray(0.7)),
        ));
        let x = f as f64 * 0.1 - 0.2;
        let block_x = if block_moves { x } else { 0.0 };
        s.add_object(Object::new(
            Geometry::Cuboid {
                min: Point3::new(block_x - 1.0, 2.0, -1.0),
                max: Point3::new(block_x + 1.0, 2.4, 1.0),
            },
            Material::matte(Color::gray(0.5)),
        ));
        s.add_object(Object::new(
            Geometry::Sphere {
                center: Point3::new(x, 3.2, 0.0),
                radius: 0.25,
            },
            Material::matte(Color::WHITE),
        ));
        s.add_light(PointLight::new(Point3::new(0.0, 8.0, 0.0), Color::WHITE));
        s
    }

    /// A feeler is logged only up to its occluder: while the block stands
    /// still, the ball moving between it and the light re-renders none of
    /// the floor pixels in the block's shadow; when the block moves, its
    /// shadow's pixels are re-rendered. Every frame equals a from-scratch
    /// render either way.
    #[test]
    fn a_still_occluder_keeps_a_mover_behind_it_from_dirtying_its_shadow() {
        let frames = 5;
        for block_moves in [false, true] {
            let at = |f| shaded_floor(f, block_moves);
            let bounds = (0..frames).fold(at(0).bounds(), |b, f| b.union(&at(f).bounds()));
            let spec = GridSpec::for_scene(bounds, 16 * 16 * 16);
            // the block's shadow: what the floor loses to it (the block and
            // the ball are out of sight, the ball's shadow falls on the block)
            let shaded = |f: usize| {
                let mut open = at(f);
                open.objects.truncate(1);
                scratch_render(&at(f), spec).diff_ids(&scratch_render(&open, spec))
            };
            let shadow = shaded(0);
            assert!(
                shadow.len() > 200 && shadow.len() < 1000,
                "{}",
                shadow.len()
            );
            let mut r = CoherentRenderer::new(spec, 40, 30, RenderSettings::default());
            let mut shadow_rerendered = 0;
            for f in 0..frames {
                let scene = at(f);
                let (fb, report) = r.render_next(&scene);
                assert!(fb.same_image(&scratch_render(&scene, spec)), "frame {f}");
                if f > 0 {
                    assert!(!report.full_render);
                    shadow_rerendered += report
                        .rendered
                        .iter()
                        .filter(|&p| shadow.binary_search(p).is_ok())
                        .count();
                }
            }
            if block_moves {
                assert_ne!(shaded(1), shadow, "the shadow moves with the block");
                assert!(shadow_rerendered > 100, "{shadow_rerendered}");
            } else {
                assert_eq!(shaded(frames - 1), shadow, "the shadow stays put");
                assert_eq!(shadow_rerendered, 0);
            }
        }
    }

    #[test]
    fn everything_change_forces_full_render_and_stays_correct() {
        let spec = sequence_spec();
        let mut r = CoherentRenderer::new(spec, 48, 36, RenderSettings::default());
        let _ = r.render_next(&frame_scene(0.0));
        // move the light: ChangeSet::Everything
        let mut scene = frame_scene(0.4);
        scene.lights[0] = PointLight::new(Point3::new(-3.0, 6.0, 5.0), Color::WHITE).into();
        let (fb, report) = r.render_next(&scene);
        assert!(report.full_render);
        assert!(fb.same_image(&scratch_render(&scene, spec)));
        // and coherence keeps working on the frame after
        let mut scene2 = scene.clone();
        scene2.objects[1].set_transform(Affine::translate(Vec3::new(0.8, 0.0, 0.0)));
        let (fb2, report2) = r.render_next(&scene2);
        assert!(!report2.full_render);
        assert!(fb2.same_image(&scratch_render(&scene2, spec)));
    }

    #[test]
    fn disabling_shadow_tracking_misses_shadow_changes() {
        // a scene where a pixel's ONLY connection to the moving object is
        // its shadow ray: without shadow tracking that pixel goes stale
        let spec = sequence_spec();
        let mut with = CoherentRenderer::new(spec, 48, 36, RenderSettings::default());
        let untracked = RenderMode::Coherent {
            test: DirtyTest::Exact,
            mask: None,
            block: 1,
            track_shadows: false,
        };
        let mut without = whole_frame(spec, untracked, RenderSettings::default());

        let mut with_wrong = 0usize;
        let mut without_wrong = 0usize;
        let mut without_marks = 0;
        let mut with_marks = 0;
        for i in 0..4 {
            let scene = frame_scene(i as f64 * 0.5);
            let reference = scratch_render(&scene, spec);
            let (fa, ra) = with.render_next(&scene);
            let (fbm, rb) = without.render_next(&scene);
            with_wrong += fa.diff_ids(&reference).len();
            without_wrong += fbm.diff_ids(&reference).len();
            with_marks = ra.coherence.marks;
            without_marks = rb.coherence.marks;
        }
        // full tracking stays exact and does strictly more bookkeeping
        assert_eq!(with_wrong, 0);
        assert!(with_marks > without_marks);
        // without shadow tracking, the moving ball's shadow goes stale
        assert!(
            without_wrong > 0,
            "expected stale shadow pixels without shadow tracking"
        );
    }

    #[test]
    fn group_map_roundtrip() {
        for (region, block, groups) in [
            (PixelRegion::full(10, 7), 4, 3 * 2),
            (PixelRegion::full(10, 7), 1, 70),
            // blocks stay frame-aligned: columns 3..9 touch blocks 0..3
            (
                PixelRegion {
                    x0: 3,
                    y0: 2,
                    w: 6,
                    h: 5,
                },
                4,
                3 * 2,
            ),
            (
                PixelRegion {
                    x0: 3,
                    y0: 2,
                    w: 6,
                    h: 5,
                },
                1,
                30,
            ),
        ] {
            let m = GroupMap::new(10, region, block);
            assert_eq!(m.group_count(), groups);
            for p in region.pixel_ids(10) {
                let g = m.group_of(p);
                assert!((g as usize) < groups);
                assert!(m.pixels_of_group(g).any(|q| q == p));
            }
            // the groups partition the region, in frame-id order
            let all: Vec<PixelId> = (0..groups as u32)
                .flat_map(|g| m.pixels_of_group(g))
                .collect();
            let mut sorted = all.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, region.pixel_ids(10).collect::<Vec<_>>());
            if block == 1 {
                assert_eq!(all, sorted);
            }
        }
        // a pixel group is the pixel, numbered within its region
        let m = GroupMap::new(
            10,
            PixelRegion {
                x0: 3,
                y0: 2,
                w: 6,
                h: 5,
            },
            1,
        );
        assert_eq!(m.group_of(23), 0);
        assert_eq!(m.group_of(34), 7);
        assert_eq!(m.pixels_of_group(7).collect::<Vec<_>>(), vec![34]);
    }
}
