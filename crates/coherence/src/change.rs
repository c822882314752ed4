//! Change-voxel detection between consecutive frames.
//!
//! "If a particular voxel experiences some sort of change (e.g., an object
//! moving into it) in the next frame, all of the pixels whose rays pass
//! through that voxel must be updated." This module computes — purely from
//! the two scene descriptions — a conservative set of voxels in which
//! change occurs.

use now_grid::{GridSpec, Voxel};
use now_math::{Aabb, Point3, Vec3};
use now_raytrace::{Geometry, Object, Scene};

/// The voxels in which change occurs between two frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChangeSet {
    /// Conservative fallback: everything may have changed (camera moved,
    /// lights changed, objects added/removed, an infinite object changed,
    /// or global shading terms changed).
    Everything,
    /// Only these voxels changed (sorted, deduplicated).
    Voxels(Vec<Voxel>),
}

impl ChangeSet {
    /// True if no voxel changed.
    pub fn is_empty(&self) -> bool {
        matches!(self, ChangeSet::Voxels(v) if v.is_empty())
    }

    /// Number of changed voxels, or the total voxel count for
    /// [`ChangeSet::Everything`].
    pub fn len(&self, spec: &GridSpec) -> usize {
        match self {
            ChangeSet::Everything => spec.voxel_count(),
            ChangeSet::Voxels(v) => v.len(),
        }
    }
}

/// Compare two frames of an animation (same scene graph, possibly moved
/// objects) and return the voxels in which change occurs.
///
/// The result is *conservative*: it may include voxels where nothing
/// visible changed, but never misses a voxel whose content differs. The
/// rules:
///
/// * camera, light, background or ambient changes → [`ChangeSet::Everything`]
///   (every pixel depends on them);
/// * object count changed → `Everything` (no identity to match objects by);
/// * an unbounded object (infinite plane) changed → `Everything`;
/// * a bounded object whose geometry, transform or material changed →
///   voxels overlapping its bounds in the **old frame ∪ new frame**
///   (it vacates the former and occupies the latter).
pub fn changed_voxels(spec: &GridSpec, prev: &Scene, next: &Scene) -> ChangeSet {
    if prev.objects.len() != next.objects.len()
        || prev.lights != next.lights
        || !prev.camera.same_view(&next.camera)
        || prev.background != next.background
        || prev.ambient != next.ambient
    {
        return ChangeSet::Everything;
    }

    // Collect with duplicates, then sort + dedup once: far cheaper than a
    // BTreeSet insert per marked voxel (overlapping bounds and cylinder
    // sampling mark the same voxel many times), and `dirty_pixels`
    // requires a sorted, deduplicated slice anyway.
    let mut voxels: Vec<Voxel> = Vec::new();
    for (a, b) in prev.objects.iter().zip(next.objects.iter()) {
        let same =
            a.geometry == b.geometry && a.material == b.material && a.transform() == b.transform();
        if same {
            continue;
        }
        if a.world_aabb().is_none() || b.world_aabb().is_none() {
            // an unbounded object changed: no way to localise it
            return ChangeSet::Everything;
        }
        for obj in [a, b] {
            object_voxels(spec, obj, |v| {
                voxels.push(v);
            });
        }
    }
    voxels.sort_unstable();
    voxels.dedup();
    ChangeSet::Voxels(voxels)
}

/// Mark the voxels a (bounded) object occupies, as tightly as the geometry
/// allows.
///
/// Slender cylinders (the Newton cradle's strings) get special treatment:
/// their axis-aligned bounds are enormous relative to the geometry (a thin
/// diagonal tube fills its whole bounding box's diagonal), so they are
/// rasterised by sampling along the axis instead. Everything else uses its
/// world AABB.
fn object_voxels(spec: &GridSpec, obj: &Object, mut f: impl FnMut(Voxel)) {
    if let Geometry::Cylinder { radius, y0, y1, .. } = obj.geometry {
        let xf = obj.transform();
        let a = xf.point(Point3::new(0.0, y0, 0.0));
        let b = xf.point(Point3::new(0.0, y1, 0.0));
        // world-space radius bound from the transformed cross-section axes
        let world_r = radius
            * xf.vector(Vec3::UNIT_X)
                .length()
                .max(xf.vector(Vec3::UNIT_Z).length());
        let len = a.distance(b);
        let min_edge = spec.voxel_size().min_component();
        // sample densely enough that consecutive sample cubes overlap
        let step = (min_edge * 0.5).max(1e-6);
        let steps = (len / step).ceil() as usize + 1;
        // a slender cylinder benefits from axis sampling; a fat one (radius
        // comparable to its bounds) may as well use the box
        if world_r < len && steps < 10_000 {
            // pad must cover the half-gap between consecutive samples, or a
            // voxel the cylinder clips at a corner between samples would be
            // missed (Chebyshev: any cylinder point is within
            // world_r + step/2 of some sample point)
            let actual_step = len / steps as f64;
            let pad = world_r + actual_step * 0.5 + 1e-9;
            for i in 0..=steps {
                let p = a.lerp(b, i as f64 / steps as f64);
                spec.voxels_overlapping(&Aabb::cube(p, pad), &mut f);
            }
            return;
        }
    }
    if let Some(bb) = obj.world_aabb() {
        spec.voxels_overlapping(&bb, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use now_math::{Affine, Color, Point3, Vec3};
    use now_raytrace::{Camera, Geometry, Material, Object, PointLight};

    fn base_scene() -> Scene {
        let cam = Camera::look_at(
            Point3::new(0.0, 0.0, 10.0),
            Point3::ZERO,
            Vec3::UNIT_Y,
            60.0,
            32,
            24,
        );
        let mut s = Scene::new(cam);
        s.add_object(
            Object::new(
                Geometry::Sphere {
                    center: Point3::ZERO,
                    radius: 0.5,
                },
                Material::matte(Color::WHITE),
            )
            .named("ball"),
        );
        s.add_object(
            Object::new(
                Geometry::Cuboid {
                    min: Point3::new(-3.0, -3.0, -3.0),
                    max: Point3::new(3.0, -2.5, 3.0),
                },
                Material::matte(Color::gray(0.4)),
            )
            .named("floor"),
        );
        s.add_light(PointLight::new(Point3::new(5.0, 5.0, 5.0), Color::WHITE));
        s
    }

    fn spec_for(s: &Scene) -> GridSpec {
        GridSpec::for_scene(s.bounds(), 16 * 16 * 16)
    }

    #[test]
    fn identical_frames_change_nothing() {
        let a = base_scene();
        let b = base_scene();
        let spec = spec_for(&a);
        assert!(changed_voxels(&spec, &a, &b).is_empty());
    }

    #[test]
    fn moved_object_changes_only_nearby_voxels() {
        let a = base_scene();
        let mut b = base_scene();
        b.objects[0].set_transform(Affine::translate(Vec3::new(0.3, 0.0, 0.0)));
        let spec = spec_for(&a);
        match changed_voxels(&spec, &a, &b) {
            ChangeSet::Voxels(vs) => {
                assert!(!vs.is_empty());
                assert!(vs.len() < spec.voxel_count() / 4, "change must be local");
                // every changed voxel is near the ball's swept volume
                let swept = Aabb::cube(Point3::ZERO, 0.5)
                    .union(&Aabb::cube(Point3::new(0.3, 0.0, 0.0), 0.5));
                for v in vs {
                    assert!(spec.voxel_bounds(v).overlaps(&swept));
                }
            }
            ChangeSet::Everything => panic!("expected local change"),
        }
    }

    #[test]
    fn disjoint_teleport_rasterises_both_ends_not_the_tube() {
        let a = base_scene();
        let mut b = base_scene();
        // teleport far along x, still inside a wide grid
        b.objects[0].set_transform(Affine::translate(Vec3::new(4.0, 0.0, 0.0)));
        let wide = GridSpec::cubic(Aabb::cube(Point3::ZERO, 8.0), 16);
        match changed_voxels(&wide, &a, &b) {
            ChangeSet::Voxels(vs) => {
                // the voxels between the two ends (e.g. around x=2, y=0) are
                // NOT flagged
                let mid = wide.voxel_of(Point3::new(2.0, 0.0, 0.0)).unwrap();
                assert!(!vs.contains(&mid));
                // both endpoints are flagged
                let src = wide.voxel_of(Point3::ZERO).unwrap();
                let dst = wide.voxel_of(Point3::new(4.0, 0.0, 0.0)).unwrap();
                assert!(vs.contains(&src) && vs.contains(&dst));
            }
            ChangeSet::Everything => panic!("expected local change"),
        }
    }

    #[test]
    fn material_change_flags_object_voxels() {
        let a = base_scene();
        let mut b = base_scene();
        b.objects[0].material = Material::chrome(Color::WHITE);
        let spec = spec_for(&a);
        match changed_voxels(&spec, &a, &b) {
            ChangeSet::Voxels(vs) => assert!(!vs.is_empty()),
            ChangeSet::Everything => panic!(),
        }
    }

    #[test]
    fn camera_or_light_change_dirties_everything() {
        let a = base_scene();
        let spec = spec_for(&a);

        let mut cam_moved = base_scene();
        cam_moved.camera = Camera::look_at(
            Point3::new(1.0, 0.0, 10.0),
            Point3::ZERO,
            Vec3::UNIT_Y,
            60.0,
            32,
            24,
        );
        assert_eq!(changed_voxels(&spec, &a, &cam_moved), ChangeSet::Everything);

        let mut light_moved = base_scene();
        light_moved.lights[0] =
            now_raytrace::PointLight::new(Point3::new(0.0, 9.0, 0.0), Color::WHITE).into();
        assert_eq!(
            changed_voxels(&spec, &a, &light_moved),
            ChangeSet::Everything
        );

        let mut bg = base_scene();
        bg.background = Color::new(0.2, 0.0, 0.0);
        assert_eq!(changed_voxels(&spec, &a, &bg), ChangeSet::Everything);
    }

    #[test]
    fn object_count_change_dirties_everything() {
        let a = base_scene();
        let mut b = base_scene();
        b.add_object(Object::new(
            Geometry::Sphere {
                center: Point3::new(2.0, 0.0, 0.0),
                radius: 0.2,
            },
            Material::default(),
        ));
        let spec = spec_for(&a);
        assert_eq!(changed_voxels(&spec, &a, &b), ChangeSet::Everything);
    }

    #[test]
    fn unbounded_object_change_dirties_everything() {
        let cam = Camera::look_at(
            Point3::new(0.0, 0.0, 5.0),
            Point3::ZERO,
            Vec3::UNIT_Y,
            60.0,
            8,
            8,
        );
        let mut a = Scene::new(cam);
        a.add_object(Object::new(
            Geometry::Plane {
                point: Point3::ZERO,
                normal: Vec3::UNIT_Y,
            },
            Material::default(),
        ));
        let mut b = a.clone();
        b.objects[0].material = Material::chrome(Color::WHITE);
        let spec = GridSpec::cubic(Aabb::cube(Point3::ZERO, 4.0), 8);
        assert_eq!(changed_voxels(&spec, &a, &b), ChangeSet::Everything);
    }

    #[test]
    fn slender_cylinder_voxelisation_covers_the_whole_tube() {
        // regression: sample cubes must overlap, or voxels the cylinder
        // clips between samples get missed (this exact bug broke frame 22
        // of the 320x240 Newton run: one pixel's shadow ray crossed a
        // voxel the swinging string grazed at a corner)
        use now_raytrace::Object;
        let spec = GridSpec::cubic(Aabb::cube(Point3::ZERO, 4.0), 28);
        // a thin diagonal string-like cylinder
        let obj = Object::new(
            Geometry::Cylinder {
                radius: 0.018,
                y0: 0.0,
                y1: 1.0,
                capped: true,
            },
            now_raytrace::Material::default(),
        )
        .with_transform(
            now_math::Affine::scale(Vec3::new(1.0, 3.5, 1.0))
                .then(&now_math::Affine::rotate_axis(
                    Vec3::new(1.0, 0.3, 0.8).normalized(),
                    1.1,
                ))
                .then(&now_math::Affine::translate(Vec3::new(-1.7, -1.2, 0.4))),
        );
        let mut marked = std::collections::BTreeSet::new();
        super::object_voxels(&spec, &obj, |v| {
            marked.insert(v);
        });
        assert!(!marked.is_empty());
        // every point on (and within radius of) the axis must fall in a
        // marked voxel
        let xf = obj.transform();
        let a = xf.point(Point3::new(0.0, 0.0, 0.0));
        let b = xf.point(Point3::new(0.0, 1.0, 0.0));
        let axis = (b - a).normalized();
        let side = axis.cross(Vec3::UNIT_X).try_normalized(1e-9).unwrap();
        for i in 0..=2000 {
            let t = i as f64 / 2000.0;
            for (dr, ds) in [(0.0, 0.0), (0.017, 1.0), (0.017, -1.0)] {
                let p = a.lerp(b, t) + side * (dr * ds);
                if let Some(v) = spec.voxel_of(p) {
                    assert!(marked.contains(&v), "missed voxel {v:?} at t={t}");
                }
            }
        }
    }

    #[test]
    fn changeset_len_and_empty() {
        let spec = GridSpec::cubic(Aabb::cube(Point3::ZERO, 1.0), 4);
        assert_eq!(ChangeSet::Everything.len(&spec), 64);
        assert!(!ChangeSet::Everything.is_empty());
        assert!(ChangeSet::Voxels(vec![]).is_empty());
        assert_eq!(ChangeSet::Voxels(vec![Voxel::new(0, 0, 0)]).len(&spec), 1);
    }
}
