//! One grid walk per ray: the path the tracer hands its listener — the
//! walk its accelerator took to find the hit — must be, for every ray of
//! every kind, the path a standalone `IndexWalk` over `[0, t_max]` takes.
//! The coherence engine logs the former; its mark counts, dirty sets and
//! log bytes were defined by the latter.
//!
//! A shadow feeler's `t_max` is the distance to its light, except that an
//! occluded feeler whose occluder's first hit lies in the grid box reports
//! that hit: nothing past an occluder that stays put can change the
//! feeler's answer. Recording changes neither pixels nor work.

use now_anim::scenes::{glassball, newton, orbit};
use now_anim::Animation;
use now_grid::dda::{IndexWalk, VoxelPath, VoxelPathBuf};
use now_grid::GridSpec;
use now_math::{Interval, Ray, RAY_BIAS};
use now_raytrace::accel::Mailbox;
use now_raytrace::{
    render_frame, GridAccel, NullListener, ObjectId, PixelId, RayKind, RayListener, RayStats,
    RecordingListener, RenderSettings, Scene,
};
use std::collections::HashMap;

/// How many rays of each interesting sort were checked.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
struct Tally {
    hits: u64,
    misses: u64,
    /// Hits found (on an unbounded object) before the ray reaches the grid.
    hits_before_the_grid: u64,
    /// Rays that start inside the grid, as every secondary ray does.
    start_inside: u64,
    occluded: u64,
    unoccluded: u64,
    /// Occluded feelers whose walk ends at their occluder's hit.
    cut: u64,
    pathless: u64,
}

impl std::ops::AddAssign for Tally {
    fn add_assign(&mut self, o: Tally) {
        self.hits += o.hits;
        self.misses += o.misses;
        self.hits_before_the_grid += o.hits_before_the_grid;
        self.start_inside += o.start_inside;
        self.occluded += o.occluded;
        self.unoccluded += o.unoccluded;
        self.cut += o.cut;
        self.pathless += o.pathless;
    }
}

/// A ray as a hashable key: its pixel and the bits of its origin and
/// direction.
type RayKey = (PixelId, [u64; 6]);

fn key(pixel: PixelId, ray: &Ray) -> RayKey {
    let (o, d) = (ray.origin, ray.dir);
    (pixel, [o.x, o.y, o.z, d.x, d.y, d.z].map(f64::to_bits))
}

/// Where a recorded feeler over `dist` must end: at the first hit of its
/// first occluder — in the order the accelerator tests, unbounded objects
/// first, then voxel by voxel in ascending id — when that hit lies in the
/// grid box past where the feeler's walk starts; at its light otherwise.
fn feeler_extent(scene: &Scene, accel: &GridAccel, ray: &Ray, dist: f64) -> f64 {
    let range = Interval::new(RAY_BIAS, dist - RAY_BIAS);
    let spec = accel.spec();
    let Some(mut walk) = IndexWalk::new(spec, ray, Interval::new(0.0, dist)) else {
        return dist;
    };
    if range.is_empty() {
        return dist;
    }
    let t_first = walk.t_enter();
    let blocks = |id: &ObjectId| scene.objects[*id as usize].intersects(ray, range);
    let unbounded: Vec<ObjectId> = (0..scene.objects.len() as ObjectId)
        .filter(|&id| scene.objects[id as usize].world_aabb().is_none())
        .collect();
    let occluder = unbounded.iter().copied().find(blocks).or_else(|| loop {
        if let Some(&id) = accel.cell(walk.cell()).iter().find(|id| blocks(id)) {
            break Some(id);
        }
        walk.advance()?;
    });
    let hit = occluder.and_then(|id| scene.objects[id as usize].intersect(ray, range));
    match hit {
        Some(h) if h.t > t_first && spec.bounds.contains(ray.at(h.t)) => h.t,
        _ => dist,
    }
}

/// Receives both what the old listener API carried (`ray`, `t_max`) and
/// the tracer's path, and holds one against the other; a feeler's `t_max`
/// is held against [`feeler_extent`] of its light's distance, which a
/// pathless render reported (`dists`).
struct Differential<'a> {
    scene: &'a Scene,
    accel: &'a GridAccel,
    dists: &'a HashMap<RayKey, f64>,
    want: VoxelPathBuf,
    mailbox: Mailbox,
    tally: Tally,
}

impl RayListener for Differential<'_> {
    fn on_ray(
        &mut self,
        pixel: PixelId,
        ray: &Ray,
        kind: RayKind,
        t_max: f64,
        path: Option<VoxelPath<'_>>,
    ) {
        let spec = self.accel.spec();
        self.want.record(spec, ray, Interval::new(0.0, t_max));
        assert_eq!(
            path,
            self.want.path(),
            "pixel {pixel}: {kind:?} ray {ray:?} over [0, {t_max}]"
        );

        let t = &mut self.tally;
        t.pathless += path.is_none() as u64;
        t.start_inside += spec.bounds.contains(ray.origin) as u64;
        if kind == RayKind::Shadow {
            let dist = self.dists[&key(pixel, ray)];
            let extent = feeler_extent(self.scene, self.accel, ray, dist);
            assert_eq!(t_max, extent, "pixel {pixel}: feeler {ray:?} to {dist}");
            let mut unused = RayStats::default();
            // unrecorded, so `want` is scratch the query leaves untouched
            let (want, mailbox) = (&mut self.want, &mut self.mailbox);
            let (occluded, _) =
                (self.accel).any_hit::<false>(self.scene, ray, dist, &mut unused, want, mailbox);
            assert!(
                occluded || t_max == dist,
                "pixel {pixel}: an unoccluded feeler was cut"
            );
            t.occluded += occluded as u64;
            t.unoccluded += !occluded as u64;
            t.cut += (t_max < dist) as u64;
        } else if t_max.is_finite() {
            t.hits += 1;
            let reaches_grid = IndexWalk::new(spec, ray, Interval::non_negative()).is_some();
            t.hits_before_the_grid += (path.is_none() && reaches_grid) as u64;
        } else {
            t.misses += 1;
        }
    }
}

/// Check every ray of `frames` of `anim`, over the grid the farm would
/// use; returns the tally.
fn check(anim: &Animation, voxels: u32, frames: &[usize]) -> Tally {
    let spec = GridSpec::for_scene(anim.swept_bounds(), voxels);
    let mut total = Tally::default();
    for &f in frames {
        let scene = anim.scene_at(f);
        let accel = GridAccel::build_with_spec(&scene, spec);
        let settings = RenderSettings::default();
        // a listener without paths hears every feeler's light distance
        let mut pathless = RecordingListener::default();
        let mut plain = RayStats::default();
        let reference = render_frame(&scene, &accel, &settings, &mut pathless, &mut plain);
        let dists: HashMap<RayKey, f64> = pathless
            .rays
            .iter()
            .filter(|r| r.kind == RayKind::Shadow)
            .map(|r| (key(r.pixel, &r.ray), r.t_max))
            .collect();
        let mut listener = Differential {
            scene: &scene,
            accel: &accel,
            dists: &dists,
            want: VoxelPathBuf::default(),
            mailbox: Mailbox::default(),
            tally: Tally::default(),
        };
        let mut stats = RayStats::default();
        let fb = render_frame(&scene, &accel, &settings, &mut listener, &mut stats);
        let tally = listener.tally;
        assert_eq!(
            tally.hits + tally.misses + tally.occluded + tally.unoccluded,
            stats.total_rays()
        );

        // recording is invisible: same pixels and same work as a plain
        // render
        let mut null = RayStats::default();
        let blind = render_frame(&scene, &accel, &settings, &mut NullListener, &mut null);
        assert_eq!((&blind, null), (&reference, plain));
        assert_eq!(fb, reference, "frame {f}: recording changed the image");
        assert_eq!(stats, plain, "frame {f}: recording changed the work done");

        total += tally;
    }
    total
}

#[test]
fn newton_paths_are_the_standalone_walks() {
    let t = check(&newton::animation_sized(64, 48, 12), 24 * 24 * 24, &[0, 7]);
    assert!(t.hits > 3000 && t.misses > 3000, "{t:?}");
    assert!(t.occluded > 1000 && t.unoccluded > 1000, "{t:?}");
    assert!(t.cut > 1000, "{t:?}");
    assert!(t.start_inside > 5000, "{t:?}");
}

#[test]
fn glassball_paths_are_the_standalone_walks() {
    let t = check(
        &glassball::animation_sized(64, 48, 8),
        24 * 24 * 24,
        &[0, 5],
    );
    assert!(t.hits > 5000, "{t:?}");
    assert!(
        t.occluded > 500 && t.unoccluded > 1000 && t.cut > 500,
        "{t:?}"
    );
    assert!(t.start_inside > 5000, "{t:?}");
}

#[test]
fn orbit_paths_are_the_standalone_walks() {
    // a coarse grid too: long steps, many objects per cell
    let anim = orbit::animation_sized(64, 48, 8, 6, 1.0);
    let fine = check(&anim, 24 * 24 * 24, &[0, 3]);
    let coarse = check(&anim, 6 * 6 * 6, &[3]);
    for t in [fine, coarse] {
        assert!(t.hits > 1000 && t.misses > 20, "{t:?}");
        assert!(t.occluded > 50 && t.unoccluded > 500, "{t:?}");
    }
}

/// The cases the demo scenes do not reach, on a scene built for them: the
/// grid covers three glass spheres only, a glass plane lies below it and
/// the light outside it. Seen from under the plane every primary ray hits
/// the plane before it would enter the grid, and a feeler the plane
/// occludes outside the grid runs to its light; seen from between the
/// spheres every primary ray starts mid-voxel.
#[test]
fn hits_before_the_grid_and_origins_inside_it() {
    use now_math::{Color, Point3, Vec3};
    use now_raytrace::{Camera, Geometry, Material, Object, PointLight};
    let scene_from = |eye: Point3, target: Point3, fov: f64| {
        let mut scene = Scene::new(Camera::look_at(eye, target, Vec3::UNIT_Y, fov, 48, 36));
        scene.add_object(Object::new(
            Geometry::Plane {
                point: Point3::new(0.0, -1.5, 0.0),
                normal: Vec3::UNIT_Y,
            },
            Material::glass(),
        ));
        for (x, z) in [(-0.5, -0.4), (0.6, -0.8), (0.1, 0.3)] {
            scene.add_object(Object::new(
                Geometry::Sphere {
                    center: Point3::new(x, 0.0, z),
                    radius: 0.3,
                },
                Material::glass(),
            ));
        }
        scene.add_light(PointLight::new(Point3::new(2.0, 4.0, 3.0), Color::WHITE));
        Animation::still(scene, 1)
    };

    let below = scene_from(
        Point3::new(0.0, -3.0, 0.4),
        Point3::new(0.0, 0.0, -0.2),
        35.0,
    );
    let t = check(&below, 10 * 10 * 10, &[0]);
    assert!(t.hits_before_the_grid > 500, "{t:?}");
    assert!(t.cut > 500 && t.occluded - t.cut > 500, "{t:?}");

    let between = scene_from(
        Point3::new(0.0, 0.1, -0.3),
        Point3::new(0.6, 0.0, -0.8),
        90.0,
    );
    let t = check(&between, 10 * 10 * 10, &[0]);
    assert!(t.start_inside >= 48 * 36, "{t:?}");
    assert!(t.hits > 500 && t.misses > 100, "{t:?}");
}
