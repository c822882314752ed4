//! Frame and pixel-set rendering.
//!
//! [`render_pixels_par`] is the primitive everything else builds on: the
//! coherence engine re-renders exactly its dirty-pixel set, the render farm
//! renders rectangular sub-areas, and [`render_frame`] renders all pixels.
//! Pixel colors are pure functions of `(scene, pixel)` — one ray through
//! the pixel's centre, no shared state — so any partition of the pixel set
//! renders to identical bytes.

use crate::accel::GridAccel;
use crate::framebuffer::{Framebuffer, PixelId};
use crate::listener::{RayKind, RayListener};
use crate::scene::Scene;
use crate::stats::RayStats;
use crate::tracer::{trace, TraceCtx};

/// Rendering parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct RenderSettings {
    /// Maximum recursion depth ("maximum ray depth of 5" in the paper).
    pub max_depth: u32,
    /// Emit renderer-layer events (render spans, per-kind ray counters)
    /// into the global [`now_trace`] recorder.
    /// Recording still requires the recorder to be enabled; with the
    /// default `false` the renderer stays dark even while other layers
    /// trace. See DESIGN.md §10.
    pub trace: bool,
}

impl Default for RenderSettings {
    fn default() -> RenderSettings {
        RenderSettings {
            max_depth: 5,
            trace: false,
        }
    }
}

/// Add the rays fired between two [`RayStats`] observations to the global
/// trace counters. Per-kind totals are order-insensitive, so they are
/// deterministic for any split of the pixels into renders.
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

/// Render an arbitrary set of pixels into an existing framebuffer, in the
/// order of `ids`, one camera ray through each pixel's centre.
///
/// One [`TraceCtx`] serves the whole set: its light-sample buffer, walk
/// path and mailbox carry no state from one pixel to the next (the
/// mailbox's stamp survives from query to query, but every query starts
/// on a stamp no object holds), so the hot path never touches the
/// allocator and any partition of the pixels renders the same bytes.
///
/// The render is serial; the name stays because `nowbench` calls it.
pub fn render_pixels_par<L: RayListener>(
    scene: &Scene,
    accel: &GridAccel,
    settings: &RenderSettings,
    fb: &mut Framebuffer,
    ids: &[PixelId],
    listener: &mut L,
    stats: &mut RayStats,
) {
    assert_eq!(fb.width(), scene.camera.width());
    assert_eq!(fb.height(), scene.camera.height());
    let tracing = settings.trace && now_trace::enabled();
    let before = *stats;
    let mut span = tracing.then(|| now_trace::global().span(0, "render.pixels_par"));
    let width = fb.width();
    let mut ctx = TraceCtx {
        scene,
        accel,
        settings,
        listener,
        stats,
        lights: Vec::new(),
        path: Default::default(),
        mailbox: Default::default(),
    };
    for &id in ids {
        let ray = scene.camera.primary_ray(id % width, id / width, 0.5, 0.5);
        let color = trace(&mut ctx, id, &ray, RayKind::Primary, settings.max_depth);
        ctx.stats.pixels += 1;
        fb.set_id(id, color);
    }
    if tracing {
        emit_ray_counters(&before, stats);
        if let Some(s) = span.as_mut() {
            s.arg("pixels", ids.len() as u64);
        }
    }
}

/// Render a complete frame.
pub fn render_frame<L: RayListener>(
    scene: &Scene,
    accel: &GridAccel,
    settings: &RenderSettings,
    listener: &mut L,
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
    use now_math::{Color, Point3, Vec3};

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
}
