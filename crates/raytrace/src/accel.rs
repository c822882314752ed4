//! Grid-based intersection acceleration.
//!
//! The same uniform spatial subdivision the coherence algorithm marks is
//! also used to accelerate ray-object intersection (Glassner-style "space
//! subdivision for fast ray tracing", which the paper cites as [6]).
//! Bounded objects are rasterised into per-voxel object lists; unbounded
//! objects (infinite planes) are kept in a separate list tested on every
//! query. A query walks its ray through the grid once
//! ([`now_grid::dda::IndexWalk`]) and, for a listener that asks, records
//! the voxels of that walk as the path the coherence engine logs.

use crate::object::ObjectId;
use crate::scene::Scene;
use crate::shape::Hit;
use crate::stats::RayStats;
use now_grid::dda::{IndexWalk, VoxelPathBuf};
use now_grid::GridSpec;
use now_math::{Interval, Ray, RAY_BIAS};

/// Spatial index over a scene's objects.
#[derive(Debug, Clone)]
pub struct GridAccel {
    spec: GridSpec,
    /// Cell `c` (in [`GridSpec::linear_index`] order) lists
    /// `ids[offsets[c]..offsets[c + 1]]`, in ascending object order.
    offsets: Vec<u32>,
    ids: Vec<ObjectId>,
    unbounded: Vec<ObjectId>,
}

impl GridAccel {
    /// Default grid resolution target (voxel count) when none is given.
    pub const DEFAULT_TARGET_VOXELS: u32 = 32 * 32 * 32;

    /// Build an index for the scene with a default-resolution grid over the
    /// scene bounds.
    pub fn build(scene: &Scene) -> GridAccel {
        let spec = GridSpec::for_scene(scene.bounds(), Self::DEFAULT_TARGET_VOXELS);
        GridAccel::build_with_spec(scene, spec)
    }

    /// Build an index using an explicit grid geometry. The coherence engine
    /// passes its own spec here so both systems share one grid.
    pub fn build_with_spec(scene: &Scene, spec: GridSpec) -> GridAccel {
        let bounds: Vec<_> = scene.objects.iter().map(|o| o.world_aabb()).collect();
        // count, then fill: two passes over the same rasterisation
        let mut offsets = vec![0u32; spec.voxel_count() + 1];
        let mut unbounded = Vec::new();
        for (i, b) in bounds.iter().enumerate() {
            match b {
                Some(b) => spec.voxels_overlapping(b, |v| offsets[spec.linear_index(v)] += 1),
                None => unbounded.push(i as ObjectId),
            }
        }
        let mut total = 0u32;
        for o in &mut offsets {
            total += std::mem::replace(o, total);
        }
        // `offsets[c]` is cell c's write cursor: it starts where the list
        // starts and ends where the next cell's starts
        let mut ids = vec![0; total as usize];
        for (i, b) in bounds.iter().enumerate() {
            if let Some(b) = b {
                spec.voxels_overlapping(b, |v| {
                    let at = &mut offsets[spec.linear_index(v)];
                    ids[*at as usize] = i as ObjectId;
                    *at += 1;
                });
            }
        }
        offsets.rotate_right(1);
        offsets[0] = 0;
        GridAccel {
            spec,
            offsets,
            ids,
            unbounded,
        }
    }

    /// The grid geometry shared with the coherence engine.
    #[inline]
    pub fn spec(&self) -> &GridSpec {
        &self.spec
    }

    /// Ids of unbounded objects (always tested).
    #[inline]
    pub fn unbounded(&self) -> &[ObjectId] {
        &self.unbounded
    }

    /// Ids of the bounded objects overlapping the voxel of linear index
    /// `cell`, ascending.
    #[inline]
    pub fn cell(&self, cell: usize) -> &[ObjectId] {
        &self.ids[self.offsets[cell] as usize..self.offsets[cell + 1] as usize]
    }

    /// Closest intersection along `ray` within `range`.
    ///
    /// Returns the object id and hit record. `stats` counts every
    /// primitive intersection test performed (the cluster simulator's cost
    /// model charges work per test).
    pub fn intersect(
        &self,
        scene: &Scene,
        ray: &Ray,
        range: Interval,
        stats: &mut RayStats,
    ) -> Option<(ObjectId, Hit)> {
        self.closest::<false>(scene, ray, range, stats, &mut VoxelPathBuf::default())
    }

    /// [`GridAccel::intersect`], with the walk it takes optionally recorded
    /// (`RECORD`) into `path`: the voxels `ray` crosses in `[0, t]`, `t`
    /// being the hit distance or `range.max` — what an `IndexWalk` over
    /// `[0, t]` visits.
    ///
    /// The walk starts at `t = 0` whatever `range.min` is (objects are
    /// still tested against `range`), so the voxel a ray starts in is on
    /// its path, and it runs front to back until a voxel is entered beyond
    /// the best hit so far; `keep_before` then drops what lies at or past
    /// the final hit.
    pub fn closest<const RECORD: bool>(
        &self,
        scene: &Scene,
        ray: &Ray,
        range: Interval,
        stats: &mut RayStats,
        path: &mut VoxelPathBuf,
    ) -> Option<(ObjectId, Hit)> {
        let mut best: Option<(ObjectId, Hit)> = None;
        let mut best_t = range.max;
        let mut test = |id: ObjectId, best_t: &mut f64| {
            stats.intersection_tests += 1;
            if let Some(h) =
                scene.objects[id as usize].intersect(ray, Interval::new(range.min, *best_t))
            {
                *best_t = h.t;
                best = Some((id, h));
            }
        };

        for &id in &self.unbounded {
            test(id, &mut best_t);
        }

        let mut steps: u64 = 0;
        if RECORD {
            path.clear();
        }
        if let Some(mut walk) = IndexWalk::new(&self.spec, ray, Interval::new(0.0, range.max)) {
            if RECORD {
                path.begin(&walk);
            }
            // once a voxel's entry t exceeds the best hit found so far, no
            // later voxel can contain a closer hit
            while walk.t_enter() <= best_t {
                steps += 1;
                for &id in self.cell(walk.cell()) {
                    test(id, &mut best_t);
                }
                if !advance::<RECORD>(&mut walk, path) {
                    break;
                }
            }
            if RECORD {
                path.keep_before(best_t);
            }
        }
        if now_trace::enabled() {
            // the step multiset is a pure function of (scene, rays), so the
            // histogram is identical for any tile schedule or thread count
            now_trace::global().observe("grid.steps_per_ray", steps);
        }
        best
    }

    /// Any-hit occlusion test: is anything between `ray.origin` and
    /// distance `dist` along the ray? Used for shadow rays.
    pub fn occluded(&self, scene: &Scene, ray: &Ray, dist: f64, stats: &mut RayStats) -> bool {
        self.any_hit::<false>(scene, ray, dist, stats, &mut VoxelPathBuf::default())
    }

    /// [`GridAccel::occluded`], with the feeler's walk over `[0, dist]`
    /// optionally recorded (`RECORD`) into `path`. Objects are tested
    /// (against `[RAY_BIAS, dist - RAY_BIAS]`) until the first occluder; a
    /// recorded walk is then finished without testing, because the feeler's
    /// path is logged whole whether or not it reached its light.
    pub fn any_hit<const RECORD: bool>(
        &self,
        scene: &Scene,
        ray: &Ray,
        dist: f64,
        stats: &mut RayStats,
        path: &mut VoxelPathBuf,
    ) -> bool {
        let range = Interval::new(RAY_BIAS, dist - RAY_BIAS);
        let mut blocked = |ids: &[ObjectId]| {
            ids.iter().any(|&id| {
                stats.intersection_tests += 1;
                scene.objects[id as usize].intersects(ray, range)
            })
        };
        let mut hit = !range.is_empty() && blocked(&self.unbounded);
        let testing = !range.is_empty() && !hit;
        if !RECORD && !testing {
            return hit;
        }

        let mut steps: u64 = 0;
        if RECORD {
            path.clear();
        }
        if let Some(mut walk) = IndexWalk::new(&self.spec, ray, Interval::new(0.0, dist)) {
            if RECORD {
                path.begin(&walk);
            }
            if testing {
                loop {
                    steps += 1;
                    if blocked(self.cell(walk.cell())) {
                        hit = true;
                        break;
                    }
                    if !advance::<RECORD>(&mut walk, path) {
                        break;
                    }
                }
            }
            if RECORD {
                while advance::<RECORD>(&mut walk, path) {}
            }
        }
        if testing && now_trace::enabled() {
            now_trace::global().observe("grid.steps_per_ray", steps);
        }
        hit
    }
}

/// Take `walk` one voxel further, recording the step if asked; `false`
/// when the walk is over.
#[inline(always)]
fn advance<const RECORD: bool>(walk: &mut IndexWalk, path: &mut VoxelPathBuf) -> bool {
    match walk.advance() {
        Some(code) => {
            if RECORD {
                path.push(code, walk.t_enter());
            }
            true
        }
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::camera::Camera;
    use crate::material::Material;
    use crate::object::Object;
    use crate::shape::Geometry;
    use now_math::{Color, Point3, Vec3};

    fn test_scene() -> Scene {
        let cam = Camera::look_at(
            Point3::new(0.0, 2.0, 10.0),
            Point3::ZERO,
            Vec3::UNIT_Y,
            60.0,
            64,
            48,
        );
        let mut s = Scene::new(cam);
        // floor plane (unbounded)
        s.add_object(Object::new(
            Geometry::Plane {
                point: Point3::new(0.0, -1.0, 0.0),
                normal: Vec3::UNIT_Y,
            },
            Material::matte(Color::gray(0.5)),
        ));
        // a row of spheres
        for i in 0..5 {
            s.add_object(Object::new(
                Geometry::Sphere {
                    center: Point3::new(i as f64 * 2.0 - 4.0, 0.0, 0.0),
                    radius: 0.6,
                },
                Material::matte(Color::WHITE),
            ));
        }
        s
    }

    fn brute_force_intersect(scene: &Scene, ray: &Ray, range: Interval) -> Option<(ObjectId, Hit)> {
        let mut best: Option<(ObjectId, Hit)> = None;
        for (i, o) in scene.objects.iter().enumerate() {
            if let Some(h) = o.intersect(ray, range) {
                if best.as_ref().is_none_or(|(_, b)| h.t < b.t) {
                    best = Some((i as ObjectId, h));
                }
            }
        }
        best
    }

    #[test]
    fn grid_agrees_with_brute_force() {
        let scene = test_scene();
        let accel = GridAccel::build(&scene);
        let mut stats = RayStats::default();
        let range = Interval::new(1e-9, f64::INFINITY);
        // a fan of rays from several origins
        for i in 0..200 {
            let a = i as f64 * 0.17;
            let origin = Point3::new(8.0 * a.cos(), 3.0 * (a * 0.3).sin() + 1.0, 8.0 * a.sin());
            let target = Point3::new((i % 9) as f64 - 4.0, ((i % 5) as f64 - 2.0) * 0.4, 0.0);
            let ray = Ray::new(origin, (target - origin).normalized());
            let fast = accel.intersect(&scene, &ray, range, &mut stats);
            let slow = brute_force_intersect(&scene, &ray, range);
            match (fast, slow) {
                (None, None) => {}
                (Some((fi, fh)), Some((si, sh))) => {
                    assert_eq!(fi, si, "ray {i}: hit different objects");
                    assert!((fh.t - sh.t).abs() < 1e-9, "ray {i}: t mismatch");
                }
                (f, s) => panic!("ray {i}: accel {f:?} vs brute {s:?}"),
            }
        }
        assert!(stats.intersection_tests > 0);
    }

    /// The flat cell lists against the obvious build: one `Vec` per voxel,
    /// pushed object by object.
    #[test]
    fn cell_lists_match_a_per_voxel_vec_build() {
        let mut scene = test_scene();
        // an object partly outside the grid and one covering all of it
        scene.add_object(Object::new(
            Geometry::Sphere {
                center: Point3::new(6.0, 0.0, 0.0),
                radius: 2.5,
            },
            Material::matte(Color::WHITE),
        ));
        scene.add_object(Object::new(
            Geometry::Cuboid {
                min: Point3::splat(-20.0),
                max: Point3::splat(20.0),
            },
            Material::matte(Color::WHITE),
        ));
        let spec = GridSpec::for_scene(test_scene().bounds(), 12 * 12 * 12);
        let accel = GridAccel::build_with_spec(&scene, spec);
        let mut lists: Vec<Vec<ObjectId>> = vec![Vec::new(); spec.voxel_count()];
        for (i, o) in scene.objects.iter().enumerate() {
            if let Some(b) = o.world_aabb() {
                spec.voxels_overlapping(&b, |v| lists[spec.linear_index(v)].push(i as ObjectId));
            }
        }
        assert!(lists.iter().any(|l| l.len() > 1) && lists.iter().any(|l| l.len() == 1));
        for (cell, list) in lists.iter().enumerate() {
            assert_eq!(accel.cell(cell), list.as_slice(), "cell {cell}");
        }
        assert_eq!(accel.unbounded(), &[0]);
    }

    /// Recording a query's walk changes neither its answer nor its work,
    /// and the recorded path is the standalone walk over `[0, t]`.
    #[test]
    fn recorded_walks_match_a_standalone_walk() {
        let scene = test_scene();
        let accel = GridAccel::build(&scene);
        let range = Interval::new(RAY_BIAS, f64::INFINITY);
        let (mut plain, mut recording) = (RayStats::default(), RayStats::default());
        let (mut got, mut want) = (VoxelPathBuf::default(), VoxelPathBuf::default());
        let mut standalone = |ray: &Ray, t_max: f64| {
            want.record(accel.spec(), ray, Interval::new(0.0, t_max));
            want.path().map(|p| (p.start, p.steps, p.codes.to_vec()))
        };
        let (mut hits, mut blocked) = (0, 0);
        for i in 0..300 {
            let a = i as f64 * 0.17;
            // every third origin sits inside the grid, below the plane or not
            let r = if i % 3 == 0 { 2.0 } else { 8.0 };
            let origin = Point3::new(r * a.cos(), 3.0 * (a * 0.3).sin() + 1.0, r * a.sin());
            let target = Point3::new((i % 9) as f64 - 4.0, ((i % 5) as f64 - 2.0) * 0.4, 0.0);
            let ray = Ray::new(origin, (target - origin).normalized());

            let hit = accel.closest::<true>(&scene, &ray, range, &mut recording, &mut got);
            assert_eq!(hit, accel.intersect(&scene, &ray, range, &mut plain));
            hits += hit.is_some() as u32;
            let t_max = hit.map_or(f64::INFINITY, |(_, h)| h.t);
            let path = got.path().map(|p| (p.start, p.steps, p.codes.to_vec()));
            assert_eq!(path, standalone(&ray, t_max), "ray {i}, hit at {t_max}");

            let dist = 4.0 + (i % 7) as f64;
            let occluded = accel.any_hit::<true>(&scene, &ray, dist, &mut recording, &mut got);
            assert_eq!(occluded, accel.occluded(&scene, &ray, dist, &mut plain));
            blocked += occluded as u32;
            let path = got.path().map(|p| (p.start, p.steps, p.codes.to_vec()));
            assert_eq!(path, standalone(&ray, dist), "feeler {i} over {dist}");
        }
        assert!(hits > 50 && hits < 300, "{hits} hits");
        assert!(blocked > 20 && blocked < 300, "{blocked} occluded feelers");
        assert_eq!(plain, recording, "recording changed the work done");
    }

    #[test]
    fn occlusion_between_spheres() {
        let scene = test_scene();
        let accel = GridAccel::build(&scene);
        let mut stats = RayStats::default();
        // from left of the row, looking right through all spheres
        let origin = Point3::new(-8.0, 0.0, 0.0);
        let ray = Ray::new(origin, Vec3::UNIT_X);
        assert!(accel.occluded(&scene, &ray, 16.0, &mut stats));
        // a ray passing above all spheres
        let high = Ray::new(Point3::new(-8.0, 3.0, 0.0), Vec3::UNIT_X);
        assert!(!accel.occluded(&scene, &high, 16.0, &mut stats));
        // very short range stops before the first sphere
        assert!(!accel.occluded(&scene, &ray, 1.0, &mut stats));
    }

    #[test]
    fn occlusion_sees_unbounded_plane() {
        let scene = test_scene();
        let accel = GridAccel::build(&scene);
        let mut stats = RayStats::default();
        let ray = Ray::new(Point3::new(50.0, 5.0, 50.0), -Vec3::UNIT_Y);
        assert!(accel.occluded(&scene, &ray, 100.0, &mut stats));
    }

    #[test]
    fn unbounded_list_contains_the_plane() {
        let scene = test_scene();
        let accel = GridAccel::build(&scene);
        assert_eq!(accel.unbounded(), &[0]);
    }

    #[test]
    fn early_termination_front_to_back() {
        // hitting the nearest of several collinear spheres must return the
        // nearest one even though all are in grid cells along the ray
        let scene = test_scene();
        let accel = GridAccel::build(&scene);
        let mut stats = RayStats::default();
        let ray = Ray::new(Point3::new(-8.0, 0.0, 0.0), Vec3::UNIT_X);
        let (id, h) = accel
            .intersect(&scene, &ray, Interval::new(1e-9, f64::INFINITY), &mut stats)
            .unwrap();
        // nearest sphere is at x=-4 (object id 1), hit at x=-4.6
        assert_eq!(id, 1);
        assert!((h.t - 3.4).abs() < 1e-9);
    }
}
