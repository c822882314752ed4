//! Frame and pixel-set rendering.
//!
//! [`render_pixels_par`] is the primitive everything else builds on: the
//! coherence engine re-renders exactly its dirty-pixel set, the render farm
//! renders rectangular sub-areas, and [`render_frame`] renders all pixels.
//! Pixel colors are pure functions of `(scene, pixel)` — fixed supersample
//! offsets, no shared state — so any partition of the pixel set renders to
//! identical bytes.

use crate::accel::GridAccel;
use crate::framebuffer::{Framebuffer, PixelId};
use crate::light::LightSample;
use crate::listener::{RayKind, RayListener, ShardableListener};
use crate::pool::{self, ParallelStats};
use crate::scene::Scene;
use crate::stats::RayStats;
use crate::tracer::{trace, TraceCtx};
use now_grid::dda::VoxelPathBuf;
use now_math::Color;

/// Adaptive anti-aliasing parameters (POV-Ray-style recursive pixel
/// subdivision).
///
/// The pixel's four corners are sampled; where they disagree by more than
/// `threshold` (max per-channel difference), the quadrants are subdivided
/// recursively up to `max_level`. The sample positions are a pure function
/// of the pixel coordinates, so adaptive rendering keeps the pixel-purity
/// property the coherence engine relies on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Adaptive {
    /// Per-channel color difference that triggers subdivision.
    pub threshold: f64,
    /// Maximum subdivision depth (1 = at most one split: 3x3 samples).
    pub max_level: u32,
}

impl Default for Adaptive {
    fn default() -> Adaptive {
        Adaptive {
            threshold: 0.1,
            max_level: 2,
        }
    }
}

/// Rendering parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct RenderSettings {
    /// Maximum recursion depth ("maximum ray depth of 5" in the paper).
    pub max_depth: u32,
    /// Supersampling grid edge: 1 = one center sample, 2 = 2x2 grid, etc.
    /// Ignored when `adaptive` is set.
    pub sqrt_samples: u32,
    /// Adaptive anti-aliasing; `None` uses the fixed supersample grid.
    pub adaptive: Option<Adaptive>,
    /// Intra-worker tile-pool threads. `1` (the default) renders serially,
    /// exactly like the paper's per-workstation renderer; `0` means auto
    /// (`NOW_THREADS` if set, else the host's available parallelism);
    /// `n >= 2` uses exactly `n` threads. Any value produces byte-identical
    /// frames and identical listener state.
    pub threads: u32,
    /// Emit renderer-layer events (render spans, per-kind ray counters,
    /// tile run/steal events) into the global [`now_trace`] recorder.
    /// Recording still requires the recorder to be enabled; with the
    /// default `false` the renderer stays dark even while other layers
    /// trace. See DESIGN.md §10.
    pub trace: bool,
    /// Tile-size hint for the pool, in pixels per tile (`nowfarm --tile
    /// WxH` sets `W*H`). `0` (the default) derives the size from the pixel
    /// count and thread count (`pool::plan_tile_size`). Purely a
    /// scheduling knob: any value produces byte-identical frames.
    pub tile_hint: u32,
}

impl Default for RenderSettings {
    fn default() -> RenderSettings {
        RenderSettings {
            max_depth: 5,
            sqrt_samples: 1,
            adaptive: None,
            threads: 1,
            trace: false,
            tile_hint: 0,
        }
    }
}

impl RenderSettings {
    /// Concrete thread count for this setting (resolves `threads == 0`).
    fn resolve_threads(&self) -> u32 {
        pool::resolve_thread_count(self.threads)
    }
    /// Fixed sub-pixel offsets for this setting (deterministic; identical
    /// for every pixel and frame).
    fn sample_offsets(&self) -> Vec<(f64, f64)> {
        let n = self.sqrt_samples.max(1);
        let mut out = Vec::with_capacity((n * n) as usize);
        for j in 0..n {
            for i in 0..n {
                out.push(((i as f64 + 0.5) / n as f64, (j as f64 + 0.5) / n as f64));
            }
        }
        out
    }
}

/// Per-worker reusable buffers for the shading loop.
///
/// One `ShadeScratch` lives per render thread (created outside the pixel
/// loop), so the hot path — sample offsets, light samples — never touches
/// the allocator. The buffers carry no cross-pixel state: results are
/// identical whether a scratch is shared across a million pixels or
/// created fresh per pixel.
#[derive(Debug, Default)]
pub struct ShadeScratch {
    offsets: Vec<(f64, f64)>,
    lights: Vec<LightSample>,
    path: VoxelPathBuf,
}

impl ShadeScratch {
    /// Scratch sized for `settings` (precomputes the supersample offsets).
    pub fn new(settings: &RenderSettings) -> ShadeScratch {
        ShadeScratch {
            offsets: settings.sample_offsets(),
            lights: Vec::new(),
            path: VoxelPathBuf::default(),
        }
    }
}

/// Shade a single pixel (averaging supersamples, adaptively if enabled)
/// using caller-owned scratch buffers.
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
    };
    let color = if let Some(adaptive) = settings.adaptive {
        // corners of the pixel (positions shared with neighbouring pixels
        // are re-traced there: purity beats sample sharing here)
        let c00 = sample(&mut ctx, x, y, pixel, 0.0, 0.0);
        let c10 = sample(&mut ctx, x, y, pixel, 1.0, 0.0);
        let c01 = sample(&mut ctx, x, y, pixel, 0.0, 1.0);
        let c11 = sample(&mut ctx, x, y, pixel, 1.0, 1.0);
        adaptive_quad(
            &mut ctx,
            (x, y, pixel),
            (0.0, 0.0, 1.0),
            [c00, c10, c01, c11],
            adaptive,
            adaptive.max_level,
        )
    } else {
        let offsets = &scratch.offsets;
        let mut sum = Color::BLACK;
        for &(sx, sy) in offsets {
            sum += sample(&mut ctx, x, y, pixel, sx, sy);
        }
        sum * (1.0 / offsets.len() as f64)
    };
    scratch.lights = ctx.lights;
    scratch.path = ctx.path;
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

/// Trace one camera ray through sub-pixel position `(sx, sy)` of `(x, y)`.
fn sample<L: RayListener>(
    ctx: &mut TraceCtx<'_, L>,
    x: u32,
    y: u32,
    pixel: PixelId,
    sx: f64,
    sy: f64,
) -> Color {
    let depth = ctx.settings.max_depth;
    let ray = ctx.scene.camera.primary_ray(x, y, sx, sy);
    trace(ctx, pixel, &ray, RayKind::Primary, depth)
}

/// Recursive quadrant subdivision over `[x0, x0+s] x [y0, y0+s]` in
/// sub-pixel coordinates, given the quadrant's corner colors.
fn adaptive_quad<L: RayListener>(
    ctx: &mut TraceCtx<'_, L>,
    (px, py, pixel): (u32, u32, PixelId),
    (x0, y0, s): (f64, f64, f64),
    corners: [Color; 4],
    params: Adaptive,
    level: u32,
) -> Color {
    let [c00, c10, c01, c11] = corners;
    let spread = c00
        .max_diff(c10)
        .max(c00.max_diff(c01))
        .max(c00.max_diff(c11))
        .max(c10.max_diff(c11))
        .max(c01.max_diff(c11));
    if level == 0 || spread <= params.threshold {
        return (c00 + c10 + c01 + c11) * 0.25;
    }
    // sample the center and the four edge midpoints, recurse per quadrant
    let half = s * 0.5;
    let at = (px, py, pixel);
    let cm0 = sample(ctx, px, py, pixel, x0 + half, y0);
    let c0m = sample(ctx, px, py, pixel, x0, y0 + half);
    let cmm = sample(ctx, px, py, pixel, x0 + half, y0 + half);
    let c1m = sample(ctx, px, py, pixel, x0 + s, y0 + half);
    let cm1 = sample(ctx, px, py, pixel, x0 + half, y0 + s);
    let q0 = adaptive_quad(
        ctx,
        at,
        (x0, y0, half),
        [c00, cm0, c0m, cmm],
        params,
        level - 1,
    );
    let q1 = adaptive_quad(
        ctx,
        at,
        (x0 + half, y0, half),
        [cm0, c10, cmm, c1m],
        params,
        level - 1,
    );
    let q2 = adaptive_quad(
        ctx,
        at,
        (x0, y0 + half, half),
        [c0m, cmm, c01, cm1],
        params,
        level - 1,
    );
    let q3 = adaptive_quad(
        ctx,
        at,
        (x0 + half, y0 + half, half),
        [cmm, c1m, cm1, c11],
        params,
        level - 1,
    );
    (q0 + q1 + q2 + q3) * 0.25
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
        let settings = RenderSettings {
            max_depth: 5,
            sqrt_samples: 2,
            adaptive: None,
            threads: 1,
            trace: false,
            tile_hint: 0,
        };
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

        for threads in [2u32, 3, 7] {
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

    #[test]
    fn tile_hint_sets_the_pool_plan() {
        let s = scene();
        let accel = GridAccel::build(&s);
        let reference = render_frame(
            &s,
            &accel,
            &RenderSettings::default(),
            &mut NullListener,
            &mut RayStats::default(),
        );
        let ids: Vec<PixelId> = (0..reference.len() as PixelId).collect();
        let run = |tile_hint: u32| {
            let settings = RenderSettings {
                threads: 4,
                tile_hint,
                ..RenderSettings::default()
            };
            let mut fb = Framebuffer::new(40, 30);
            let par = render_pixels_par(
                &s,
                &accel,
                &settings,
                &mut fb,
                &ids,
                &mut NullListener,
                &mut RayStats::default(),
            );
            assert_eq!(fb, reference, "tile hint {tile_hint}: framebuffer differs");
            par
        };
        let auto = run(0);
        // half the frame per tile: two tiles, so at most 2x on 4 threads
        let coarse = run(ids.len() as u32 / 2);
        assert_eq!(coarse.tiles, 2);
        assert!(coarse.tiles < auto.tiles);
        assert!(coarse.speedup() <= 2.0, "{}", coarse.speedup());
        assert_eq!(coarse.total_rays, auto.total_rays);
    }

    #[test]
    fn supersampling_offsets_tile_the_pixel() {
        let offsets = RenderSettings {
            max_depth: 1,
            sqrt_samples: 3,
            adaptive: None,
            threads: 1,
            trace: false,
            tile_hint: 0,
        }
        .sample_offsets();
        assert_eq!(offsets.len(), 9);
        for (sx, sy) in offsets {
            assert!(sx > 0.0 && sx < 1.0 && sy > 0.0 && sy < 1.0);
        }
        let single = RenderSettings::default().sample_offsets();
        assert_eq!(single, vec![(0.5, 0.5)]);
    }

    #[test]
    fn adaptive_sampling_spends_rays_on_edges() {
        let s = scene();
        let accel = GridAccel::build(&s);
        let plain = RenderSettings {
            max_depth: 2,
            sqrt_samples: 1,
            adaptive: None,
            threads: 1,
            trace: false,
            tile_hint: 0,
        };
        let adaptive = RenderSettings {
            max_depth: 2,
            sqrt_samples: 1,
            adaptive: Some(Adaptive {
                threshold: 0.08,
                max_level: 2,
            }),
            threads: 1,
            trace: false,
            tile_hint: 0,
        };
        let mut flat_stats = RayStats::default();
        let _ = render_frame(&s, &accel, &plain, &mut NullListener, &mut flat_stats);
        let mut ad_stats = RayStats::default();
        let _ = render_frame(&s, &accel, &adaptive, &mut NullListener, &mut ad_stats);
        // adaptive fires at least 4 primaries per pixel, but far fewer than
        // a uniform grid at the same maximum density (9x9 = 81)
        let per_pixel = ad_stats.primary as f64 / ad_stats.pixels as f64;
        assert!(per_pixel >= 4.0, "per pixel {per_pixel}");
        assert!(
            per_pixel < 30.0,
            "adaptivity must not degenerate: {per_pixel}"
        );
        assert!(ad_stats.primary > flat_stats.primary);
    }

    #[test]
    fn adaptive_sampling_is_pure_and_deterministic() {
        let s = scene();
        let accel = GridAccel::build(&s);
        let settings = RenderSettings {
            max_depth: 2,
            sqrt_samples: 1,
            adaptive: Some(Adaptive::default()),
            threads: 1,
            trace: false,
            tile_hint: 0,
        };
        let full = render_frame(
            &s,
            &accel,
            &settings,
            &mut NullListener,
            &mut RayStats::default(),
        );
        // render half the pixels into a fresh buffer: identical values
        let mut fb = Framebuffer::new(40, 30);
        let half: Vec<PixelId> = (0..fb.len() as PixelId).filter(|i| i % 2 == 0).collect();
        render_pixels_par(
            &s,
            &accel,
            &settings,
            &mut fb,
            &half,
            &mut NullListener,
            &mut RayStats::default(),
        );
        for &id in &half {
            assert_eq!(fb.get_id(id), full.get_id(id));
        }
    }

    #[test]
    fn adaptive_smooths_silhouettes_more_than_single_sample() {
        let s = scene();
        let accel = GridAccel::build(&s);
        let one = RenderSettings {
            max_depth: 2,
            sqrt_samples: 1,
            adaptive: None,
            threads: 1,
            trace: false,
            tile_hint: 0,
        };
        let ad = RenderSettings {
            max_depth: 2,
            sqrt_samples: 1,
            adaptive: Some(Adaptive {
                threshold: 0.05,
                max_level: 3,
            }),
            threads: 1,
            trace: false,
            tile_hint: 0,
        };
        let a = render_frame(
            &s,
            &accel,
            &one,
            &mut NullListener,
            &mut RayStats::default(),
        );
        let b = render_frame(&s, &accel, &ad, &mut NullListener, &mut RayStats::default());
        // images differ (edges got intermediate values)
        assert!(!a.same_image(&b));
    }

    #[test]
    fn supersampling_smooths_edges() {
        let s = scene();
        let accel = GridAccel::build(&s);
        let one = RenderSettings {
            max_depth: 3,
            sqrt_samples: 1,
            adaptive: None,
            threads: 1,
            trace: false,
            tile_hint: 0,
        };
        let four = RenderSettings {
            max_depth: 3,
            sqrt_samples: 2,
            adaptive: None,
            threads: 1,
            trace: false,
            tile_hint: 0,
        };
        let a = render_frame(
            &s,
            &accel,
            &one,
            &mut NullListener,
            &mut RayStats::default(),
        );
        let b = render_frame(
            &s,
            &accel,
            &four,
            &mut NullListener,
            &mut RayStats::default(),
        );
        // images differ along silhouettes
        assert!(!a.same_image(&b));
    }
}
