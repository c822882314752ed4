//! The recursive Whitted integrator.
//!
//! Implements the paper's intensity model
//! `I = I_local + k_rg * I_reflected + k_tg * I_transmitted`,
//! where `I_local` is ambient + Phong diffuse/specular with shadow rays.

use crate::accel::{GridAccel, Mailbox};
use crate::framebuffer::PixelId;
use crate::light::LightSample;
use crate::listener::{RayKind, RayListener};
use crate::object::ObjectId;
use crate::render::RenderSettings;
use crate::scene::Scene;
use crate::shape::Hit;
use crate::stats::RayStats;
use now_grid::dda::VoxelPathBuf;
use now_math::{Color, Interval, Ray, RAY_BIAS};

/// Everything a trace needs, bundled to keep recursion signatures small.
pub struct TraceCtx<'a, L: RayListener> {
    /// The scene being rendered.
    pub scene: &'a Scene,
    /// Spatial index over the scene.
    pub accel: &'a GridAccel,
    /// Render settings (max depth etc.).
    pub settings: &'a RenderSettings,
    /// Ray observer (the coherence engine, a recorder, or [`crate::NullListener`]).
    pub listener: &'a mut L,
    /// Counters.
    pub stats: &'a mut RayStats,
    /// Reusable light-sample buffer for the direct-lighting loop. Owned by
    /// the context so the shading hot path never allocates per ray; it is
    /// taken, filled, and returned inside [`trace`], so one buffer serves
    /// every recursion depth.
    pub lights: Vec<LightSample>,
    /// Where the accelerator records the walk of the ray in flight when the
    /// listener wants paths; handed to the listener before the next ray is
    /// fired, so one buffer serves every ray.
    pub path: VoxelPathBuf,
    /// The objects the query in flight has tested; reset by every query.
    pub mailbox: Mailbox,
}

impl<L: RayListener> TraceCtx<'_, L> {
    /// Nearest hit of `ray`; its walk is recorded into `self.path` exactly
    /// when the listener takes paths.
    #[inline]
    fn closest(&mut self, ray: &Ray, range: Interval) -> Option<(ObjectId, Hit)> {
        let (accel, scene, stats) = (self.accel, self.scene, &mut *self.stats);
        let (path, mailbox) = (&mut self.path, &mut self.mailbox);
        if L::PATHS {
            accel.closest::<true>(scene, ray, range, stats, path, mailbox)
        } else {
            accel.closest::<false>(scene, ray, range, stats, path, mailbox)
        }
    }

    /// Whether anything blocks `ray` within `dist`, and how far its
    /// recorded walk went ([`GridAccel::any_hit`]); recorded like
    /// [`TraceCtx::closest`].
    #[inline]
    fn occluded(&mut self, ray: &Ray, dist: f64) -> (bool, f64) {
        let (accel, scene, stats) = (self.accel, self.scene, &mut *self.stats);
        let (path, mailbox) = (&mut self.path, &mut self.mailbox);
        if L::PATHS {
            accel.any_hit::<true>(scene, ray, dist, stats, path, mailbox)
        } else {
            accel.any_hit::<false>(scene, ray, dist, stats, path, mailbox)
        }
    }

    /// Report the ray just traced, with the path its walk left behind.
    #[inline]
    fn report(&mut self, pixel: PixelId, ray: &Ray, kind: RayKind, t_max: f64) {
        let path = if L::PATHS { self.path.path() } else { None };
        self.listener.on_ray(pixel, ray, kind, t_max, path);
    }
}

/// Trace one ray and return the radiance it carries.
///
/// `pixel` is the pixel being shaded; all recursive rays report it to the
/// listener so the coherence engine can attribute every voxel crossing to
/// the right pixel. `depth` counts *remaining* bounces.
pub fn trace<L: RayListener>(
    ctx: &mut TraceCtx<'_, L>,
    pixel: PixelId,
    ray: &Ray,
    kind: RayKind,
    depth: u32,
) -> Color {
    ctx.stats.count_ray(kind);
    let range = Interval::new(RAY_BIAS, f64::INFINITY);
    let hit = ctx.closest(ray, range);
    ctx.report(pixel, ray, kind, hit.map_or(f64::INFINITY, |(_, h)| h.t));
    let Some((obj_id, h)) = hit else {
        return ctx.scene.background;
    };

    let obj = &ctx.scene.objects[obj_id as usize];
    let mat = &obj.material;
    let surface_color = mat.texture.eval(obj.to_local(h.point));

    // orient the shading normal against the incoming ray
    let front_face = ray.dir.dot(h.normal) < 0.0;
    let n = if front_face { h.normal } else { -h.normal };

    // --- I_local: ambient + Phong direct illumination with shadow rays ---
    // Every light contributes one shadow ray per sample (one for point and
    // spot lights, an n x n grid for area lights: soft shadows).
    let mut local = ctx.scene.ambient.modulate(surface_color) * mat.ambient;
    let mut samples = std::mem::take(&mut ctx.lights);
    for light in &ctx.scene.lights {
        light.samples(h.point, &mut samples);
        for s in &samples {
            let to_light = s.position - h.point;
            let dist = to_light.length();
            if dist < RAY_BIAS {
                continue;
            }
            let l_dir = to_light / dist;
            let shadow_ray = Ray::new(h.point + n * RAY_BIAS, l_dir);
            ctx.stats.count_ray(RayKind::Shadow);
            let (occluded, t_max) = ctx.occluded(&shadow_ray, dist);
            ctx.report(pixel, &shadow_ray, RayKind::Shadow, t_max);
            if occluded {
                continue;
            }
            let intensity = s.intensity;
            let n_dot_l = n.dot(l_dir);
            if n_dot_l > 0.0 {
                local += intensity.modulate(surface_color) * (mat.diffuse * n_dot_l);
                if mat.specular > 0.0 {
                    let r = (-l_dir).reflect(n);
                    let r_dot_v = r.dot(-ray.dir).max(0.0);
                    if r_dot_v > 0.0 {
                        local += intensity * (mat.specular * r_dot_v.powf(mat.shininess));
                    }
                }
            }
        }
    }
    // hand the buffer back before any recursion so deeper bounces reuse it
    samples.clear();
    ctx.lights = samples;

    if depth == 0 {
        return local;
    }

    // --- k_rg * I_reflected ---
    let mut result = local;
    if mat.is_reflective() {
        let r_dir = ray.dir.reflect(n).normalized();
        let r_ray = Ray::new(h.point + n * RAY_BIAS, r_dir);
        result += trace(ctx, pixel, &r_ray, RayKind::Reflected, depth - 1) * mat.reflect;
    }

    // --- k_tg * I_transmitted ---
    if mat.is_transmissive() {
        let eta = if front_face { 1.0 / mat.ior } else { mat.ior };
        match ray.dir.refract(n, eta) {
            Some(t_dir) => {
                let t_ray = Ray::new(h.point - n * RAY_BIAS, t_dir.normalized());
                result += trace(ctx, pixel, &t_ray, RayKind::Transmitted, depth - 1) * mat.transmit;
            }
            None => {
                // total internal reflection: the transmitted energy reflects
                let r_dir = ray.dir.reflect(n).normalized();
                let r_ray = Ray::new(h.point + n * RAY_BIAS, r_dir);
                result += trace(ctx, pixel, &r_ray, RayKind::Reflected, depth - 1) * mat.transmit;
            }
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::camera::Camera;
    use crate::listener::{NullListener, RecordingListener};
    use crate::material::Material;
    use crate::object::Object;
    use crate::shape::Geometry;
    use now_math::{Point3, Vec3};

    fn simple_scene() -> Scene {
        let cam = Camera::look_at(
            Point3::new(0.0, 0.0, 5.0),
            Point3::ZERO,
            Vec3::UNIT_Y,
            60.0,
            32,
            32,
        );
        let mut s = Scene::new(cam);
        s.background = Color::new(0.1, 0.1, 0.2);
        s.add_object(Object::new(
            Geometry::Sphere {
                center: Point3::ZERO,
                radius: 1.0,
            },
            Material::matte(Color::new(1.0, 0.0, 0.0)),
        ));
        s.add_light(crate::light::PointLight::new(
            Point3::new(5.0, 5.0, 5.0),
            Color::WHITE,
        ));
        s
    }

    fn trace_one(scene: &Scene, ray: Ray) -> (Color, RayStats) {
        let accel = GridAccel::build(scene);
        let settings = RenderSettings::default();
        let mut listener = NullListener;
        let mut stats = RayStats::default();
        let mut ctx = TraceCtx {
            scene,
            accel: &accel,
            settings: &settings,
            listener: &mut listener,
            stats: &mut stats,
            lights: Vec::new(),
            path: VoxelPathBuf::default(),
            mailbox: Mailbox::default(),
        };
        let c = trace(&mut ctx, 0, &ray, RayKind::Primary, 5);
        (c, stats)
    }

    #[test]
    fn miss_returns_background() {
        let s = simple_scene();
        let (c, stats) = trace_one(&s, Ray::new(Point3::new(0.0, 5.0, 5.0), Vec3::UNIT_Y));
        assert_eq!(c, s.background);
        assert_eq!(stats.primary, 1);
        assert_eq!(stats.shadow, 0);
    }

    #[test]
    fn lit_side_is_brighter_than_shadowed_side() {
        let s = simple_scene();
        // light is up-right-front; hit the sphere from the front
        let (front, _) = trace_one(&s, Ray::new(Point3::new(0.0, 0.0, 5.0), -Vec3::UNIT_Z));
        // hit the sphere from behind (the side facing away from the light)
        let (back, _) = trace_one(&s, Ray::new(Point3::new(0.0, 0.0, -5.0), Vec3::UNIT_Z));
        assert!(front.luminance() > back.luminance());
        // red surface: green/blue only from ambient
        assert!(front.r > front.g);
    }

    #[test]
    fn shadow_rays_are_fired_per_light() {
        let mut s = simple_scene();
        s.add_light(crate::light::PointLight::new(
            Point3::new(-5.0, 5.0, 5.0),
            Color::WHITE,
        ));
        let (_, stats) = trace_one(&s, Ray::new(Point3::new(0.0, 0.0, 5.0), -Vec3::UNIT_Z));
        assert_eq!(stats.shadow, 2);
    }

    #[test]
    fn occluder_darkens_point() {
        let mut s = simple_scene();
        let (lit, _) = trace_one(&s, Ray::new(Point3::new(0.0, 0.0, 5.0), -Vec3::UNIT_Z));
        // put a big blocker between sphere and light
        s.add_object(Object::new(
            Geometry::Sphere {
                center: Point3::new(2.5, 2.5, 2.5),
                radius: 2.0,
            },
            Material::matte(Color::WHITE),
        ));
        let (shadowed, _) = trace_one(&s, Ray::new(Point3::new(0.0, 0.0, 5.0), -Vec3::UNIT_Z));
        assert!(shadowed.luminance() < lit.luminance());
    }

    #[test]
    fn mirror_reflects_background() {
        let cam = Camera::look_at(
            Point3::new(0.0, 0.0, 5.0),
            Point3::ZERO,
            Vec3::UNIT_Y,
            60.0,
            8,
            8,
        );
        let mut s = Scene::new(cam);
        s.background = Color::new(0.0, 1.0, 0.0);
        let mut mirror = Material::matte(Color::BLACK);
        mirror.reflect = 1.0;
        mirror.ambient = 0.0;
        mirror.diffuse = 0.0;
        s.add_object(Object::new(
            Geometry::Plane {
                point: Point3::ZERO,
                normal: Vec3::UNIT_Y,
            },
            mirror,
        ));
        let (c, stats) = trace_one(
            &s,
            Ray::new(
                Point3::new(0.0, 1.0, 0.0),
                Vec3::new(1.0, -1.0, 0.0).normalized(),
            ),
        );
        // reflected ray flies off into the background
        assert!((c.g - 1.0).abs() < 1e-9);
        assert_eq!(stats.reflected, 1);
    }

    #[test]
    fn depth_zero_stops_recursion() {
        let s = {
            let cam = Camera::look_at(
                Point3::new(0.0, 0.0, 5.0),
                Point3::ZERO,
                Vec3::UNIT_Y,
                60.0,
                8,
                8,
            );
            let mut s = Scene::new(cam);
            s.add_object(Object::new(
                Geometry::Sphere {
                    center: Point3::ZERO,
                    radius: 1.0,
                },
                Material::chrome(Color::WHITE),
            ));
            s
        };
        let accel = GridAccel::build(&s);
        let settings = RenderSettings::default();
        let mut listener = NullListener;
        let mut stats = RayStats::default();
        let mut ctx = TraceCtx {
            scene: &s,
            accel: &accel,
            settings: &settings,
            listener: &mut listener,
            stats: &mut stats,
            lights: Vec::new(),
            path: VoxelPathBuf::default(),
            mailbox: Mailbox::default(),
        };
        let _ = trace(
            &mut ctx,
            0,
            &Ray::new(Point3::new(0.0, 0.0, 5.0), -Vec3::UNIT_Z),
            RayKind::Primary,
            0,
        );
        assert_eq!(stats.reflected, 0);
    }

    #[test]
    fn recursion_depth_bounded_between_parallel_mirrors() {
        let cam = Camera::look_at(
            Point3::new(0.0, 0.5, 5.0),
            Point3::ZERO,
            Vec3::UNIT_Y,
            60.0,
            8,
            8,
        );
        let mut s = Scene::new(cam);
        let mut mirror = Material::matte(Color::BLACK);
        mirror.reflect = 1.0;
        s.add_object(Object::new(
            Geometry::Plane {
                point: Point3::ZERO,
                normal: Vec3::UNIT_Y,
            },
            mirror.clone(),
        ));
        s.add_object(Object::new(
            Geometry::Plane {
                point: Point3::new(0.0, 1.0, 0.0),
                normal: -Vec3::UNIT_Y,
            },
            mirror,
        ));
        let accel = GridAccel::build(&s);
        let settings = RenderSettings::default();
        let mut listener = RecordingListener::default();
        let mut stats = RayStats::default();
        let mut ctx = TraceCtx {
            scene: &s,
            accel: &accel,
            settings: &settings,
            listener: &mut listener,
            stats: &mut stats,
            lights: Vec::new(),
            path: VoxelPathBuf::default(),
            mailbox: Mailbox::default(),
        };
        let _ = trace(
            &mut ctx,
            7,
            &Ray::new(
                Point3::new(0.0, 0.5, 3.0),
                Vec3::new(0.0, 0.3, -1.0).normalized(),
            ),
            RayKind::Primary,
            5,
        );
        // 1 primary + exactly 5 bounces
        assert_eq!(stats.primary, 1);
        assert_eq!(stats.reflected, 5);
        // every recorded ray carries the originating pixel id
        assert!(listener.rays.iter().all(|r| r.pixel == 7));
    }

    #[test]
    fn area_light_produces_penumbra() {
        use crate::light::AreaLight;
        // a floor lit by an area light, with a blocker casting a shadow:
        // points in the penumbra see some but not all light samples
        let cam = Camera::look_at(
            Point3::new(0.0, 3.0, 8.0),
            Point3::ZERO,
            Vec3::UNIT_Y,
            60.0,
            8,
            8,
        );
        let mut s = Scene::new(cam);
        s.ambient = Color::BLACK;
        s.add_object(Object::new(
            Geometry::Plane {
                point: Point3::ZERO,
                normal: Vec3::UNIT_Y,
            },
            Material::matte(Color::WHITE),
        ));
        // blocker hovering above
        s.add_object(Object::new(
            Geometry::Cuboid {
                min: Point3::new(-1.0, 2.0, -1.0),
                max: Point3::new(1.0, 2.2, 1.0),
            },
            Material::matte(Color::WHITE),
        ));
        s.add_light(AreaLight::new(
            Point3::new(-1.5, 6.0, -1.5),
            Vec3::new(3.0, 0.0, 0.0),
            Vec3::new(0.0, 0.0, 3.0),
            Color::WHITE,
            4,
        ));
        // umbra point (directly under the blocker), penumbra point (near the
        // shadow edge), and a fully lit point
        let probe = |x: f64| {
            let (c, _) = trace_one(&s, Ray::new(Point3::new(x, 0.5, 0.0), -Vec3::UNIT_Y));
            c.luminance()
        };
        let umbra = probe(0.0);
        let penumbra = probe(1.35);
        let lit = probe(4.0);
        assert!(umbra < 0.02, "umbra {umbra}");
        assert!(lit > 0.3, "lit {lit}");
        assert!(
            penumbra > umbra + 0.01 && penumbra < lit - 0.01,
            "penumbra {penumbra} not between {umbra} and {lit}"
        );
    }

    #[test]
    fn spotlight_only_lights_its_cone() {
        use crate::light::SpotLight;
        let cam = Camera::look_at(
            Point3::new(0.0, 3.0, 8.0),
            Point3::ZERO,
            Vec3::UNIT_Y,
            60.0,
            8,
            8,
        );
        let mut s = Scene::new(cam);
        s.ambient = Color::BLACK;
        s.add_object(Object::new(
            Geometry::Plane {
                point: Point3::ZERO,
                normal: Vec3::UNIT_Y,
            },
            Material::matte(Color::WHITE),
        ));
        s.add_light(SpotLight::new(
            Point3::new(0.0, 6.0, 0.0),
            Point3::ZERO,
            Color::WHITE,
            15.0,
            25.0,
        ));
        let probe = |x: f64| {
            let (c, _) = trace_one(&s, Ray::new(Point3::new(x, 0.5, 0.0), -Vec3::UNIT_Y));
            c.luminance()
        };
        assert!(probe(0.0) > 0.3, "center of the cone must be lit");
        assert!(probe(5.0) < 1e-9, "outside the cone must be dark");
        let edge = probe(2.0); // between inner (1.6) and outer (2.8) radii
        assert!(edge > 0.0 && edge < probe(0.0), "edge {edge}");
    }

    #[test]
    fn glass_sphere_fires_transmitted_rays() {
        let cam = Camera::look_at(
            Point3::new(0.0, 0.0, 5.0),
            Point3::ZERO,
            Vec3::UNIT_Y,
            60.0,
            8,
            8,
        );
        let mut s = Scene::new(cam);
        s.background = Color::WHITE;
        s.add_object(Object::new(
            Geometry::Sphere {
                center: Point3::ZERO,
                radius: 1.0,
            },
            Material::glass(),
        ));
        let accel = GridAccel::build(&s);
        let settings = RenderSettings::default();
        let mut listener = NullListener;
        let mut stats = RayStats::default();
        let mut ctx = TraceCtx {
            scene: &s,
            accel: &accel,
            settings: &settings,
            listener: &mut listener,
            stats: &mut stats,
            lights: Vec::new(),
            path: VoxelPathBuf::default(),
            mailbox: Mailbox::default(),
        };
        let c = trace(
            &mut ctx,
            0,
            &Ray::new(Point3::new(0.0, 0.0, 5.0), -Vec3::UNIT_Z),
            RayKind::Primary,
            5,
        );
        // straight-through ray enters and exits: two transmission events
        assert!(stats.transmitted >= 2, "stats: {stats:?}");
        // background shines through glass
        assert!(c.luminance() > 0.5);
    }
}
