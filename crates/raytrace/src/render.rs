//! Frame and pixel-set rendering.
//!
//! [`render_pixels_par`] is the primitive everything else builds on: the
//! coherence engine re-renders exactly its dirty-pixel set, the render farm
//! renders rectangular sub-areas, and [`render_frame`] renders all pixels.
//! Pixel colors are pure functions of `(scene, pixel)` — one ray through
//! the pixel's centre, no shared state — so any partition of the pixel set
//! renders to identical bytes.

use crate::accel::{GridAccel, Mailbox};
use crate::framebuffer::{Framebuffer, PixelId};
use crate::light::LightSample;
use crate::listener::{RayKind, RayListener, ShardableListener};
use crate::pool::{self, ParallelStats};
use crate::scene::Scene;
use crate::stats::RayStats;
use crate::tracer::{trace, TraceCtx};
use now_grid::dda::VoxelPathBuf;
use now_math::Color;

/// Rendering parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct RenderSettings {
    /// Maximum recursion depth ("maximum ray depth of 5" in the paper).
    pub max_depth: u32,
    /// Intra-worker tile-pool threads. `1` (the default) renders serially,
    /// exactly like the paper's per-workstation renderer; `0` means auto
    /// (`NOW_THREADS` if set, else the host's available parallelism);
    /// `n >= 2` plans tiles and charges virtual time for `n` lanes, but
    /// spawns at most one OS thread per tile and at most 256, so no value
    /// exhausts the host's threads. Any value produces byte-identical
    /// frames and identical listener state.
    pub threads: u32,
    /// Emit renderer-layer events (render spans, per-kind ray counters,
    /// per-tile spans) into the global [`now_trace`] recorder.
    /// Recording still requires the recorder to be enabled; with the
    /// default `false` the renderer stays dark even while other layers
    /// trace. See DESIGN.md §10.
    pub trace: bool,
}

impl Default for RenderSettings {
    fn default() -> RenderSettings {
        RenderSettings {
            max_depth: 5,
            threads: 1,
            trace: false,
        }
    }
}

impl RenderSettings {
    /// Concrete thread count for this setting (resolves `threads == 0`).
    fn resolve_threads(&self) -> u32 {
        pool::resolve_thread_count(self.threads)
    }
}

/// Per-worker reusable buffers for the shading loop.
///
/// One `ShadeScratch` lives per render thread (created outside the pixel
/// loop), so the hot path — light samples, walk paths, mailboxes — never
/// touches the allocator. The buffers carry no cross-pixel state: results
/// are identical whether a scratch is shared across a million pixels or
/// created fresh per pixel. The mailbox's stamp does survive from query to
/// query, but every query starts on a stamp no object holds, so nothing it
/// carries can be observed.
#[derive(Debug, Default)]
pub struct ShadeScratch {
    lights: Vec<LightSample>,
    path: VoxelPathBuf,
    mailbox: Mailbox,
}

/// Shade a single pixel, one camera ray through its centre, using
/// caller-owned scratch buffers.
#[allow(clippy::too_many_arguments)] // deliberate flat kernel signature: the hot path avoids a context struct per pixel
fn shade_pixel_with<L: RayListener>(
    scene: &Scene,
    accel: &GridAccel,
    settings: &RenderSettings,
    x: u32,
    y: u32,
    pixel: PixelId,
    listener: &mut L,
    stats: &mut RayStats,
    scratch: &mut ShadeScratch,
) -> Color {
    let mut ctx = TraceCtx {
        scene,
        accel,
        settings,
        listener,
        stats,
        lights: std::mem::take(&mut scratch.lights),
        path: std::mem::take(&mut scratch.path),
        mailbox: std::mem::take(&mut scratch.mailbox),
    };
    let ray = scene.camera.primary_ray(x, y, 0.5, 0.5);
    let color = trace(&mut ctx, pixel, &ray, RayKind::Primary, settings.max_depth);
    scratch.lights = ctx.lights;
    scratch.path = ctx.path;
    scratch.mailbox = ctx.mailbox;
    stats.pixels += 1;
    color
}

/// Shade a run of pixel ids and hand each `(id, color)` to `sink` in id
/// order: the one shading loop shared by the serial path and every pool
/// tile.
#[allow(clippy::too_many_arguments)] // flat kernel signature, like shade_pixel_with
pub(crate) fn shade_ids<L: RayListener>(
    scene: &Scene,
    accel: &GridAccel,
    settings: &RenderSettings,
    width: u32,
    ids: &[PixelId],
    listener: &mut L,
    stats: &mut RayStats,
    scratch: &mut ShadeScratch,
    mut sink: impl FnMut(PixelId, Color),
) {
    for &id in ids {
        let (x, y) = (id % width, id / width);
        let c = shade_pixel_with(scene, accel, settings, x, y, id, listener, stats, scratch);
        sink(id, c);
    }
}

/// Validate that a framebuffer matches the scene camera. Hoisted out of
/// the per-tile shading path: public entry points check once, the pool's
/// tile loops never re-check.
#[inline]
fn check_frame_dims(scene: &Scene, fb: &Framebuffer) {
    assert_eq!(fb.width(), scene.camera.width());
    assert_eq!(fb.height(), scene.camera.height());
}

/// Add the rays fired between two [`RayStats`] observations to the global
/// trace counters. Per-kind totals are order-insensitive, so they are
/// deterministic for any tile schedule and thread count.
fn emit_ray_counters(before: &RayStats, after: &RayStats) {
    let rec = now_trace::global();
    rec.counter_add("rays.primary", after.primary - before.primary);
    rec.counter_add("rays.reflected", after.reflected - before.reflected);
    rec.counter_add("rays.transmitted", after.transmitted - before.transmitted);
    rec.counter_add("rays.shadow", after.shadow - before.shadow);
    rec.counter_add(
        "rays.intersection_tests",
        after.intersection_tests - before.intersection_tests,
    );
    rec.counter_add("render.pixels_shaded", after.pixels - before.pixels);
}

/// Render an arbitrary set of pixels into an existing framebuffer through
/// the tile pool, reporting how the work parallelised.
///
/// With `settings.threads` resolving to 1 this is the plain sequential
/// loop and reports a serial [`ParallelStats`]. Otherwise shards of
/// `listener` are merged back in ascending tile order (the sequential ray
/// order), so listener state is identical for every thread count.
pub fn render_pixels_par<S: ShardableListener>(
    scene: &Scene,
    accel: &GridAccel,
    settings: &RenderSettings,
    fb: &mut Framebuffer,
    ids: &[PixelId],
    listener: &mut S,
    stats: &mut RayStats,
) -> ParallelStats {
    check_frame_dims(scene, fb);
    let tracing = settings.trace && now_trace::enabled();
    let before = if tracing { *stats } else { RayStats::default() };
    let mut span = tracing.then(|| now_trace::global().span(0, "render.pixels_par"));
    let threads = settings.resolve_threads();
    let par = pool::render_tiles(scene, accel, settings, fb, ids, listener, stats, threads);
    if tracing {
        emit_ray_counters(&before, stats);
        if let Some(s) = span.as_mut() {
            s.arg("pixels", ids.len() as u64);
            s.arg("tiles", par.tiles as u64);
        }
    }
    par
}

/// Render a complete frame.
pub fn render_frame<S: ShardableListener>(
    scene: &Scene,
    accel: &GridAccel,
    settings: &RenderSettings,
    listener: &mut S,
    stats: &mut RayStats,
) -> Framebuffer {
    let mut fb = Framebuffer::new(scene.camera.width(), scene.camera.height());
    let ids: Vec<PixelId> = (0..fb.len() as PixelId).collect();
    render_pixels_par(scene, accel, settings, &mut fb, &ids, listener, stats);
    fb
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::camera::Camera;
    use crate::light::PointLight;
    use crate::listener::NullListener;
    use crate::material::Material;
    use crate::object::Object;
    use crate::shape::Geometry;
    use now_math::{Point3, Vec3};

    fn scene() -> Scene {
        let cam = Camera::look_at(
            Point3::new(0.0, 1.0, 6.0),
            Point3::ZERO,
            Vec3::UNIT_Y,
            55.0,
            40,
            30,
        );
        let mut s = Scene::new(cam);
        s.background = Color::new(0.05, 0.05, 0.1);
        s.add_object(Object::new(
            Geometry::Plane {
                point: Point3::new(0.0, -1.0, 0.0),
                normal: Vec3::UNIT_Y,
            },
            Material::matte(Color::gray(0.6)),
        ));
        s.add_object(Object::new(
            Geometry::Sphere {
                center: Point3::ZERO,
                radius: 1.0,
            },
            Material::chrome(Color::new(0.9, 0.9, 1.0)),
        ));
        s.add_light(PointLight::new(Point3::new(4.0, 6.0, 4.0), Color::WHITE));
        s
    }

    #[test]
    fn frame_contains_object_and_background() {
        let s = scene();
        let accel = GridAccel::build(&s);
        let settings = RenderSettings::default();
        let mut stats = RayStats::default();
        let fb = render_frame(&s, &accel, &settings, &mut NullListener, &mut stats);
        // center pixel hits the chrome sphere; a top corner is background
        let center = fb.get(20, 15);
        let corner = fb.get(0, 0);
        assert!(corner.max_diff(s.background) < 1e-9);
        assert!(center.max_diff(s.background) > 0.01);
        assert_eq!(stats.pixels, 40 * 30);
        assert_eq!(stats.primary, 40 * 30);
        assert!(stats.reflected > 0, "chrome sphere must spawn reflections");
    }

    #[test]
    fn partial_render_matches_full_render() {
        let s = scene();
        let accel = GridAccel::build(&s);
        let settings = RenderSettings::default();
        let full = render_frame(
            &s,
            &accel,
            &settings,
            &mut NullListener,
            &mut RayStats::default(),
        );

        // render only even pixels, then only odd pixels, into a new buffer
        let mut fb = Framebuffer::new(40, 30);
        let evens: Vec<PixelId> = (0..fb.len() as PixelId).filter(|i| i % 2 == 0).collect();
        let odds: Vec<PixelId> = (0..fb.len() as PixelId).filter(|i| i % 2 == 1).collect();
        render_pixels_par(
            &s,
            &accel,
            &settings,
            &mut fb,
            &odds,
            &mut NullListener,
            &mut RayStats::default(),
        );
        render_pixels_par(
            &s,
            &accel,
            &settings,
            &mut fb,
            &evens,
            &mut NullListener,
            &mut RayStats::default(),
        );
        assert!(fb.same_image(&full));
        assert_eq!(fb.max_abs_diff(&full), 0.0, "pixel purity must be exact");
    }

    #[test]
    fn rendering_is_deterministic() {
        let s = scene();
        let accel = GridAccel::build(&s);
        let settings = RenderSettings::default();
        let a = render_frame(
            &s,
            &accel,
            &settings,
            &mut NullListener,
            &mut RayStats::default(),
        );
        let b = render_frame(
            &s,
            &accel,
            &settings,
            &mut NullListener,
            &mut RayStats::default(),
        );
        assert_eq!(a.max_abs_diff(&b), 0.0);
    }

    #[test]
    fn pool_render_is_byte_and_listener_identical_to_serial() {
        use crate::listener::RecordingListener;
        let s = scene();
        let accel = GridAccel::build(&s);
        let serial = RenderSettings::default();
        let mut serial_rec = RecordingListener::default();
        let mut serial_stats = RayStats::default();
        let reference = render_frame(&s, &accel, &serial, &mut serial_rec, &mut serial_stats);

        for threads in [2u32, 3, 7, 19, 20, 100_000] {
            let settings = RenderSettings {
                threads,
                ..serial.clone()
            };
            let mut rec = RecordingListener::default();
            let mut stats = RayStats::default();
            let mut fb = Framebuffer::new(40, 30);
            let ids: Vec<PixelId> = (0..fb.len() as PixelId).collect();
            let par = render_pixels_par(&s, &accel, &settings, &mut fb, &ids, &mut rec, &mut stats);
            assert_eq!(fb, reference, "{threads} threads: framebuffer differs");
            assert_eq!(
                rec.rays, serial_rec.rays,
                "{threads} threads: ray log differs"
            );
            assert_eq!(stats, serial_stats, "{threads} threads: stats differ");
            assert_eq!(par.threads, threads);
            assert_eq!(par.total_rays, serial_stats.total_rays());
            assert!(par.tiles > 1, "frame must be cut into multiple tiles");
            assert!(par.speedup() >= 1.0 && par.speedup() <= threads as f64);
        }
    }

    #[test]
    fn render_pixels_par_dispatches_to_pool_transparently() {
        let s = scene();
        let accel = GridAccel::build(&s);
        let reference = render_frame(
            &s,
            &accel,
            &RenderSettings::default(),
            &mut NullListener,
            &mut RayStats::default(),
        );
        let pooled = RenderSettings {
            threads: 5,
            ..RenderSettings::default()
        };
        let mut fb = Framebuffer::new(40, 30);
        let ids: Vec<PixelId> = (0..fb.len() as PixelId).collect();
        render_pixels_par(
            &s,
            &accel,
            &pooled,
            &mut fb,
            &ids,
            &mut NullListener,
            &mut RayStats::default(),
        );
        assert_eq!(fb, reference);
    }
}
