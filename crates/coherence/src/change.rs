//! Change-voxel detection between consecutive frames.
//!
//! "If a particular voxel experiences some sort of change (e.g., an object
//! moving into it) in the next frame, all of the pixels whose rays pass
//! through that voxel must be updated." This module computes — purely from
//! the two scene descriptions — a conservative set of voxels in which
//! change occurs, and the [`Bound`]s of the placements that changed.

use crate::bound::Bound;
use now_grid::{GridSpec, Voxel};
use now_math::Aabb;
use now_raytrace::{Object, Scene};

/// What changed between two frames.
#[derive(Debug, Clone, PartialEq)]
pub enum ChangeSet {
    /// Conservative fallback: everything may have changed (camera moved,
    /// lights changed, objects added/removed, an infinite object changed,
    /// or global shading terms changed).
    Everything,
    /// Only these voxels changed, and only inside these bounds.
    Voxels {
        /// The changed voxels (sorted, deduplicated).
        voxels: Vec<Voxel>,
        /// The old and the new placement of every changed object.
        movers: Vec<Bound>,
    },
}

impl ChangeSet {
    /// True if no voxel changed.
    pub fn is_empty(&self) -> bool {
        matches!(self, ChangeSet::Voxels { voxels, .. } if voxels.is_empty())
    }

    /// Number of changed voxels, or the total voxel count for
    /// [`ChangeSet::Everything`].
    pub fn len(&self, spec: &GridSpec) -> usize {
        match self {
            ChangeSet::Everything => spec.voxel_count(),
            ChangeSet::Voxels { voxels, .. } => voxels.len(),
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
///   (it vacates the former and occupies the latter), and its [`Bound`]
///   in both frames.
pub fn changed_voxels(spec: &GridSpec, prev: &Scene, next: &Scene) -> ChangeSet {
    if now_trace::enabled() {
        now_trace::global().counter_add("coh.change_sets", 1);
    }
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
    let mut movers = Vec::new();
    for (a, b) in prev.objects.iter().zip(next.objects.iter()) {
        let same =
            a.geometry == b.geometry && a.material == b.material && a.transform() == b.transform();
        if same {
            continue;
        }
        let (Some(was), Some(is)) = (Bound::of(a), Bound::of(b)) else {
            // an unbounded object changed: no way to localise it
            return ChangeSet::Everything;
        };
        for (obj, bound) in [(a, was), (b, is)] {
            object_voxels(spec, obj, &bound, |v| voxels.push(v));
            movers.push(bound);
        }
    }
    voxels.sort_unstable();
    voxels.dedup();
    ChangeSet::Voxels { voxels, movers }
}

/// Mark the voxels a (bounded) object occupies, as tightly as the geometry
/// allows; `bound` is its [`Bound::of`].
///
/// Slender cylinders (the Newton cradle's strings) get special treatment:
/// their axis-aligned bounds are enormous relative to the geometry (a thin
/// diagonal tube fills its whole bounding box's diagonal), so their capsule
/// is rasterised by sampling along the axis instead. Everything else uses
/// its world AABB.
fn object_voxels(spec: &GridSpec, obj: &Object, bound: &Bound, mut f: impl FnMut(Voxel)) {
    if let Bound::Capsule { a, b, radius } = *bound {
        let len = a.distance(b);
        let min_edge = spec.voxel_size().min_component();
        // sample densely enough that consecutive sample cubes overlap
        let step = (min_edge * 0.5).max(1e-6);
        let steps = (len / step).ceil() as usize + 1;
        // a slender cylinder benefits from axis sampling; a fat one (radius
        // comparable to its bounds) may as well use the box
        if radius < len && steps < 10_000 {
            // pad must cover the half-gap between consecutive samples, or a
            // voxel the cylinder clips at a corner between samples would be
            // missed (Chebyshev: any cylinder point is within
            // radius + step/2 of some sample point)
            let actual_step = len / steps as f64;
            let pad = radius + actual_step * 0.5 + 1e-9;
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

/// The voxels some transition of a sequence changes: the union of
/// [`changed_voxels`] over its consecutive frame pairs. A pair that
/// changes [`ChangeSet::Everything`] adds nothing — it re-renders the whole
/// region and never queries the log — so camera cuts keep the mask.
///
/// Every changed set a renderer of the sequence is asked about lies inside
/// the mask, so a ray whose walk misses it can never make its pixel dirty:
/// the engine walks it but does not store it.
///
/// The mask keeps the change set of every transition it was built from, so
/// the renderers that share it look each one up ([`MoverMask::transition`])
/// instead of computing it again per renderer and frame.
#[derive(Debug, Clone, PartialEq)]
pub struct MoverMask {
    /// One bit per voxel, by linear index.
    pub(crate) bits: Vec<u64>,
    /// `changes[f]` is [`changed_voxels`] from frame `f` to frame `f + 1`.
    pub(crate) changes: Vec<ChangeSet>,
}

impl MoverMask {
    /// The mask of the sequence `frames` over the grid `spec`.
    pub fn of_sequence(spec: &GridSpec, frames: impl IntoIterator<Item = Scene>) -> MoverMask {
        let mut bits = vec![0u64; spec.voxel_count().div_ceil(64)];
        let mut changes = Vec::new();
        let mut prev: Option<Scene> = None;
        for scene in frames {
            if let Some(p) = prev {
                let change = changed_voxels(spec, &p, &scene);
                if let ChangeSet::Voxels { voxels, .. } = &change {
                    for &v in voxels {
                        let i = spec.linear_index(v);
                        bits[i >> 6] |= 1 << (i & 63);
                    }
                }
                changes.push(change);
            }
            prev = Some(scene);
        }
        MoverMask { bits, changes }
    }

    /// What changes from frame `f` of the sequence to frame `f + 1`;
    /// `None` past its last frame.
    pub fn transition(&self, f: usize) -> Option<&ChangeSet> {
        self.changes.get(f)
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
            ChangeSet::Voxels { voxels: vs, .. } => {
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
            ChangeSet::Voxels { voxels: vs, .. } => {
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
            ChangeSet::Voxels { voxels, movers } => {
                assert!(!voxels.is_empty());
                // the ball did not move: both placements are the same ball
                assert_eq!(movers.len(), 2);
                assert_eq!(movers[0], movers[1]);
            }
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
        super::object_voxels(&spec, &obj, &Bound::of(&obj).unwrap(), |v| {
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
    fn sheared_cylinder_voxelisation_covers_the_whole_tube() {
        // regression: rotating a tube and then scaling it non-uniformly
        // shears its cross-section into an ellipse whose long semi-axis
        // (the largest singular value, 4 x 0.3 here) exceeds the longest
        // transformed cross-section axis (0.3 x sqrt(8.5))
        let spec = GridSpec::cubic(Aabb::cube(Point3::ZERO, 4.0), 32);
        let obj = Object::new(
            Geometry::Cylinder {
                radius: 0.3,
                y0: -1.0,
                y1: 1.0,
                capped: true,
            },
            Material::default(),
        )
        .with_transform(
            Affine::rotate_axis(Vec3::UNIT_Y, std::f64::consts::FRAC_PI_4)
                .then(&Affine::scale(Vec3::new(4.0, 1.0, 1.0))),
        );
        let mut marked = std::collections::BTreeSet::new();
        super::object_voxels(&spec, &obj, &Bound::of(&obj).unwrap(), |v| {
            marked.insert(v);
        });
        let mut samples = 0;
        for i in 0..=200 {
            let y = -1.0 + i as f64 / 100.0;
            for k in 0..128 {
                let (s, c) = (k as f64 * std::f64::consts::TAU / 128.0).sin_cos();
                for r in [0.3, 0.15] {
                    let p = obj.transform().point(Point3::new(r * c, y, r * s));
                    let v = spec.voxel_of(p).expect("the tube is inside the grid");
                    assert!(
                        marked.contains(&v),
                        "missed voxel {v:?} at y={y}, angle {k}"
                    );
                    samples += 1;
                }
            }
        }
        assert_eq!(samples, 2 * 201 * 128);
    }

    /// The mask keeps what [`changed_voxels`] says of every transition of
    /// its sequence — local moves, a standstill and a light change alike —
    /// and nothing past the last frame.
    #[test]
    fn a_mask_keeps_the_change_set_of_every_transition() {
        let frame = |f: usize| {
            let mut s = base_scene();
            let x = [0.0, 0.3, 0.3, 1.0, 1.6][f];
            s.objects[0].set_transform(Affine::translate(Vec3::new(x, 0.0, 0.0)));
            if f == 4 {
                s.lights[0] = PointLight::new(Point3::new(0.0, 9.0, 0.0), Color::WHITE).into();
            }
            s
        };
        let spec = spec_for(&frame(0));
        let mask = MoverMask::of_sequence(&spec, (0..5).map(frame));
        for f in 0..4 {
            let want = changed_voxels(&spec, &frame(f), &frame(f + 1));
            assert_eq!(mask.transition(f), Some(&want), "transition {f}");
        }
        assert!(mask.transition(1).unwrap().is_empty());
        assert_eq!(mask.transition(3), Some(&ChangeSet::Everything));
        assert_eq!(mask.transition(4), None);
    }

    #[test]
    fn changeset_len_and_empty() {
        let spec = GridSpec::cubic(Aabb::cube(Point3::ZERO, 1.0), 4);
        assert_eq!(ChangeSet::Everything.len(&spec), 64);
        assert!(!ChangeSet::Everything.is_empty());
        let local = |voxels| ChangeSet::Voxels {
            voxels,
            movers: Vec::new(),
        };
        assert!(local(vec![]).is_empty());
        assert_eq!(local(vec![Voxel::new(0, 0, 0)]).len(&spec), 1);
    }
}
