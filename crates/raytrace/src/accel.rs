//! Grid-based intersection acceleration.
//!
//! The same uniform spatial subdivision the coherence algorithm marks is
//! also used to accelerate ray-object intersection (Glassner-style "space
//! subdivision for fast ray tracing", which the paper cites as \[6\]).
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

    /// Ids of the bounded objects overlapping the voxel of linear index
    /// `cell`, ascending.
    #[inline]
    pub fn cell(&self, cell: usize) -> &[ObjectId] {
        &self.ids[self.offsets[cell] as usize..self.offsets[cell + 1] as usize]
    }

    /// Closest intersection along `ray` within `range`, the walk it takes
    /// optionally recorded (`RECORD`) into `path`: the voxels `ray` crosses
    /// in `[0, t]`, `t` being the hit distance or `range.max` — what an
    /// `IndexWalk` over `[0, t]` visits.
    ///
    /// Returns the object id and hit record. `stats` counts the distinct
    /// objects tested (the cluster simulator's cost model charges work per
    /// ray, not per test); `mailbox` keeps an object that spans several
    /// voxels from being tested again in each.
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
        mailbox: &mut Mailbox,
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
            mailbox.begin(scene.objects.len());
            // once a voxel's entry t exceeds the best hit found so far, no
            // later voxel can contain a closer hit
            while walk.t_enter() <= best_t {
                steps += 1;
                for &id in self.cell(walk.cell()) {
                    if mailbox.first_test(id) {
                        test(id, &mut best_t);
                    }
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

    /// Whether anything lies between `ray.origin` and distance `dist` along
    /// the ray (shadow rays), and how far the feeler's walk was recorded
    /// (`RECORD`) into `path`: the walk over `[0, t]` for the `t` returned.
    /// Objects are tested (against `[RAY_BIAS, dist - RAY_BIAS]`, each at
    /// most once, as in [`GridAccel::closest`]) until the first occluder.
    ///
    /// A recorded walk then goes on without testing, but only up to `t_b`,
    /// the occluder's first hit in the test range, when `ray.at(t_b)` lies
    /// in the grid box past the walk's first voxel entry: while the
    /// occluder stays put the feeler stays occluded whatever lies past it,
    /// and when it moves, its old bound holds `ray.at(t_b)`, which is on
    /// the recorded segment and path. Otherwise — no occluder, one met
    /// outside the grid, or one met where the feeler enters it, which
    /// would leave no path — the walk runs to `dist`, which is what an
    /// unrecorded query returns.
    pub fn any_hit<const RECORD: bool>(
        &self,
        scene: &Scene,
        ray: &Ray,
        dist: f64,
        stats: &mut RayStats,
        path: &mut VoxelPathBuf,
        mailbox: &mut Mailbox,
    ) -> (bool, f64) {
        let range = Interval::new(RAY_BIAS, dist - RAY_BIAS);
        // the object that answered; only a recorded walk asks which
        let mut occluder: Option<ObjectId> = None;
        let mut blocks = |id: ObjectId| {
            stats.intersection_tests += 1;
            let blocks = scene.objects[id as usize].intersects(ray, range);
            if RECORD && blocks {
                occluder = Some(id);
            }
            blocks
        };
        let mut hit = !range.is_empty() && self.unbounded.iter().any(|&id| blocks(id));
        let testing = !range.is_empty() && !hit;
        if !RECORD && !testing {
            return (hit, dist);
        }

        let mut steps: u64 = 0;
        let mut t = dist;
        if RECORD {
            path.clear();
        }
        if let Some(mut walk) = IndexWalk::new(&self.spec, ray, Interval::new(0.0, dist)) {
            if RECORD {
                path.begin(&walk);
            }
            let t_first = walk.t_enter();
            if testing {
                mailbox.begin(scene.objects.len());
                loop {
                    steps += 1;
                    let cell = self.cell(walk.cell());
                    if cell.iter().any(|&id| mailbox.first_test(id) && blocks(id)) {
                        hit = true;
                        break;
                    }
                    if !advance::<RECORD>(&mut walk, path) {
                        break;
                    }
                }
            }
            if RECORD {
                // past `t_first` too, or the cut path would be empty
                let t_b = occluder
                    .and_then(|id| scene.objects[id as usize].intersect(ray, range))
                    .map(|h| h.t)
                    .filter(|&t_b| t_b > t_first && self.spec.bounds.contains(ray.at(t_b)));
                match t_b {
                    Some(t_b) => {
                        while walk.t_enter() < t_b && advance::<RECORD>(&mut walk, path) {}
                        path.keep_before(t_b);
                        t = t_b;
                    }
                    None => while advance::<RECORD>(&mut walk, path) {},
                }
            }
        }
        if testing && now_trace::enabled() {
            now_trace::global().observe("grid.steps_per_ray", steps);
        }
        (hit, t)
    }
}

/// Per-ray mailboxes: which objects the query in flight has tested.
///
/// A bounded object is listed in every voxel its box overlaps, so a walk
/// meets a slender cylinder once per voxel it shares with the ray. The
/// second meeting can be skipped without changing any answer: within one
/// query the test range only shrinks (`[min, best_t]`, `best_t` falling)
/// and [`Interval::surrounds`] is strict, so a repeat test returns nothing
/// or a hit no closer than the one it already reported, which is not
/// closer than the best. For an any-hit query the range is fixed and a
/// first test that had hit would have ended the query.
///
/// One `u32` stamp per object, plus the stamp of the current query: an
/// object was tested by this query exactly when its stamp is current. The
/// stamp is bumped once per query and the stamps are cleared when it
/// wraps, so no state from one query is visible to the next. One mailbox
/// serves one thread ([`crate::ShadeScratch`] owns it); it is sized to the
/// scene on first use.
#[derive(Debug, Clone, Default)]
pub struct Mailbox {
    stamps: Vec<u32>,
    stamp: u32,
}

impl Mailbox {
    /// Open a query over a scene of `objects` objects: every object reads
    /// as untested.
    #[inline]
    fn begin(&mut self, objects: usize) {
        if self.stamps.len() < objects {
            self.stamps.resize(objects, 0);
        }
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            // a stamp left from 2^32 queries ago would read as current
            self.stamps.fill(0);
            self.stamp = 1;
        }
    }

    /// Whether the current query has not yet tested `id`; marks it tested.
    #[inline(always)]
    fn first_test(&mut self, id: ObjectId) -> bool {
        let seen = &mut self.stamps[id as usize];
        let first = *seen != self.stamp;
        *seen = self.stamp;
        first
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
    use now_math::{Aabb, Affine, Color, Point3, Vec3};

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

    /// [`GridAccel::closest`] without recording, on fresh scratch.
    fn closest(
        accel: &GridAccel,
        scene: &Scene,
        ray: &Ray,
        range: Interval,
        stats: &mut RayStats,
    ) -> Option<(ObjectId, Hit)> {
        let (mut path, mut mailbox) = (VoxelPathBuf::default(), Mailbox::default());
        accel.closest::<false>(scene, ray, range, stats, &mut path, &mut mailbox)
    }

    fn occluded(
        accel: &GridAccel,
        scene: &Scene,
        ray: &Ray,
        dist: f64,
        stats: &mut RayStats,
    ) -> bool {
        let (mut path, mut mailbox) = (VoxelPathBuf::default(), Mailbox::default());
        let (occluded, t) =
            accel.any_hit::<false>(scene, ray, dist, stats, &mut path, &mut mailbox);
        assert_eq!(t, dist, "an unrecorded feeler runs to its light");
        occluded
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
            let fast = closest(&accel, &scene, &ray, range, &mut stats);
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
        assert_eq!(accel.unbounded, &[0]);
    }

    /// Recording a query's walk changes neither its answer nor its work,
    /// and the recorded path is the standalone walk over `[0, t]`: a
    /// feeler's `t` is its light's distance unless it is occluded.
    #[test]
    fn recorded_walks_match_a_standalone_walk() {
        let scene = test_scene();
        let accel = GridAccel::build(&scene);
        let range = Interval::new(RAY_BIAS, f64::INFINITY);
        let (mut plain, mut recording) = (RayStats::default(), RayStats::default());
        let (mut got, mut want) = (VoxelPathBuf::default(), VoxelPathBuf::default());
        let mut mailbox = Mailbox::default();
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

            let hit =
                accel.closest::<true>(&scene, &ray, range, &mut recording, &mut got, &mut mailbox);
            assert_eq!(hit, closest(&accel, &scene, &ray, range, &mut plain));
            hits += hit.is_some() as u32;
            let t_max = hit.map_or(f64::INFINITY, |(_, h)| h.t);
            let path = got.path().map(|p| (p.start, p.steps, p.codes.to_vec()));
            assert_eq!(path, standalone(&ray, t_max), "ray {i}, hit at {t_max}");

            let dist = 4.0 + (i % 7) as f64;
            let (occluded, t) =
                accel.any_hit::<true>(&scene, &ray, dist, &mut recording, &mut got, &mut mailbox);
            assert_eq!(
                occluded,
                self::occluded(&accel, &scene, &ray, dist, &mut plain)
            );
            assert!(
                t == dist || occluded && t < dist,
                "feeler {i}: {t} of {dist}"
            );
            blocked += occluded as u32;
            let path = got.path().map(|p| (p.start, p.steps, p.codes.to_vec()));
            assert_eq!(path, standalone(&ray, t), "feeler {i} over {t} of {dist}");
        }
        assert!(hits > 50 && hits < 300, "{hits} hits");
        assert!(blocked > 20 && blocked < 300, "{blocked} occluded feelers");
        assert_eq!(plain, recording, "recording changed the work done");
    }

    /// A feeler cut at its occluder's hit keeps the voxels it entered
    /// before the hit, so one whose occluder is hit on the very face by
    /// which the feeler enters the grid would keep none, and a move of the
    /// occluder could not reach its pixel: it is logged to its light. One
    /// occluded a voxel later is cut at the hit.
    #[test]
    fn a_feeler_occluded_where_it_enters_the_grid_keeps_its_whole_walk() {
        let mut scene = test_scene();
        scene.objects.clear();
        scene.add_object(Object::new(
            Geometry::Cuboid {
                min: Point3::new(1.0, 0.0, 1.0),
                max: Point3::new(2.0, 1.0, 2.0),
            },
            Material::matte(Color::WHITE),
        ));
        let spec = GridSpec::cubic(Aabb::new(Point3::ZERO, Point3::splat(4.0)), 4);
        let accel = GridAccel::build_with_spec(&scene, spec);
        let (mut path, mut want, mut mailbox) = (
            VoxelPathBuf::default(),
            VoxelPathBuf::default(),
            Mailbox::default(),
        );
        let mut stats = RayStats::default();
        // (origin, direction, where the walk must end): the first feeler
        // enters the grid at t = 1 through y = 0, the box's bottom face;
        // the second enters at t = 1 through x = 0 and meets the box's
        // x = 1 face at t = 2, one voxel on
        for (origin, dir, t_want) in [
            (Point3::new(1.5, -1.0, 1.5), Vec3::UNIT_Y, 10.0),
            (Point3::new(-1.0, 0.5, 1.5), Vec3::UNIT_X, 2.0),
        ] {
            let ray = Ray::new(origin, dir);
            let (occluded, t) =
                accel.any_hit::<true>(&scene, &ray, 10.0, &mut stats, &mut path, &mut mailbox);
            want.record(&spec, &ray, Interval::new(0.0, t_want));
            assert!(occluded && t == t_want, "{ray:?}: {occluded}, {t}");
            assert!(
                path.path().is_some() && path.path() == want.path(),
                "{ray:?}"
            );
        }
    }

    #[test]
    fn occlusion_between_spheres() {
        let scene = test_scene();
        let accel = GridAccel::build(&scene);
        let mut stats = RayStats::default();
        // from left of the row, looking right through all spheres
        let origin = Point3::new(-8.0, 0.0, 0.0);
        let ray = Ray::new(origin, Vec3::UNIT_X);
        assert!(occluded(&accel, &scene, &ray, 16.0, &mut stats));
        // a ray passing above all spheres
        let high = Ray::new(Point3::new(-8.0, 3.0, 0.0), Vec3::UNIT_X);
        assert!(!occluded(&accel, &scene, &high, 16.0, &mut stats));
        // very short range stops before the first sphere
        assert!(!occluded(&accel, &scene, &ray, 1.0, &mut stats));
    }

    #[test]
    fn occlusion_sees_unbounded_plane() {
        let scene = test_scene();
        let accel = GridAccel::build(&scene);
        let mut stats = RayStats::default();
        let ray = Ray::new(Point3::new(50.0, 5.0, 50.0), -Vec3::UNIT_Y);
        assert!(occluded(&accel, &scene, &ray, 100.0, &mut stats));
    }

    #[test]
    fn unbounded_list_contains_the_plane() {
        let scene = test_scene();
        let accel = GridAccel::build(&scene);
        assert_eq!(accel.unbounded, &[0]);
    }

    #[test]
    fn early_termination_front_to_back() {
        // hitting the nearest of several collinear spheres must return the
        // nearest one even though all are in grid cells along the ray
        let scene = test_scene();
        let accel = GridAccel::build(&scene);
        let mut stats = RayStats::default();
        let ray = Ray::new(Point3::new(-8.0, 0.0, 0.0), Vec3::UNIT_X);
        let (id, h) = closest(
            &accel,
            &scene,
            &ray,
            Interval::new(1e-9, f64::INFINITY),
            &mut stats,
        )
        .unwrap();
        // nearest sphere is at x=-4 (object id 1), hit at x=-4.6
        assert_eq!(id, 1);
        assert!((h.t - 3.4).abs() < 1e-9);
    }

    /// [`GridAccel::closest`] as it stood before mailboxes: every object of
    /// every voxel walked is tested, repeats included. Returns the answer,
    /// the recorded path and the number of tests.
    fn unmailboxed_closest(
        accel: &GridAccel,
        scene: &Scene,
        ray: &Ray,
        range: Interval,
        path: &mut VoxelPathBuf,
    ) -> (Option<(ObjectId, Hit)>, u64) {
        let (mut best, mut best_t, mut tests) = (None, range.max, 0u64);
        let mut test = |id: ObjectId, best_t: &mut f64| {
            tests += 1;
            let o = &scene.objects[id as usize];
            if let Some(h) = o.intersect(ray, Interval::new(range.min, *best_t)) {
                *best_t = h.t;
                best = Some((id, h));
            }
        };
        for &id in &accel.unbounded {
            test(id, &mut best_t);
        }
        path.clear();
        if let Some(mut walk) = IndexWalk::new(&accel.spec, ray, Interval::new(0.0, range.max)) {
            path.begin(&walk);
            while walk.t_enter() <= best_t {
                for &id in accel.cell(walk.cell()) {
                    test(id, &mut best_t);
                }
                if !advance::<true>(&mut walk, path) {
                    break;
                }
            }
            path.keep_before(best_t);
        }
        (best, tests)
    }

    /// [`GridAccel::any_hit`]'s answer and tests as they stood before
    /// mailboxes.
    fn unmailboxed_any_hit(accel: &GridAccel, scene: &Scene, ray: &Ray, dist: f64) -> (bool, u64) {
        let range = Interval::new(RAY_BIAS, dist - RAY_BIAS);
        let mut tests = 0u64;
        let mut blocked = |ids: &[ObjectId]| {
            ids.iter().any(|&id| {
                tests += 1;
                scene.objects[id as usize].intersects(ray, range)
            })
        };
        let mut hit = !range.is_empty() && blocked(&accel.unbounded);
        if !range.is_empty() && !hit {
            if let Some(mut walk) = IndexWalk::new(&accel.spec, ray, Interval::new(0.0, dist)) {
                loop {
                    if blocked(accel.cell(walk.cell())) {
                        hit = true;
                        break;
                    }
                    if walk.advance().is_none() {
                        break;
                    }
                }
            }
        }
        (hit, tests)
    }

    /// A capped cylinder of `radius` from `a` to `b` (local +y mapped onto
    /// `b - a`), the way the Newton cradle builds its legs, rails and
    /// strings.
    fn cylinder_between(a: Point3, b: Point3, radius: f64) -> Object {
        let span = b - a;
        let dir = span.normalized();
        let axis = Vec3::UNIT_Y.cross(dir);
        let rot = match axis.try_normalized(1e-12) {
            Some(axis) => Affine::rotate_axis(axis, Vec3::UNIT_Y.dot(dir).clamp(-1.0, 1.0).acos()),
            None => Affine::IDENTITY,
        };
        let xf = Affine::scale(Vec3::new(1.0, span.length(), 1.0))
            .then(&rot)
            .then(&Affine::translate(a));
        let cylinder = Geometry::Cylinder {
            radius,
            y0: 0.0,
            y1: 1.0,
            capped: true,
        };
        Object::new(cylinder, Material::matte(Color::WHITE)).with_transform(xf)
    }

    /// The Newton cradle's geometry: a floor plane, five marbles and
    /// sixteen slender cylinders (legs, rails, two strings per marble),
    /// each string crossing many voxels of a fine grid.
    fn cradle() -> Scene {
        let mut s = Scene::new(Camera::look_at(
            Point3::new(1.8, 2.6, 8.5),
            Point3::new(0.0, 2.2, 0.0),
            Vec3::UNIT_Y,
            38.0,
            64,
            48,
        ));
        s.add_object(Object::new(
            Geometry::Plane {
                point: Point3::ZERO,
                normal: Vec3::UNIT_Y,
            },
            Material::matte(Color::WHITE),
        ));
        let ball_x = |i: usize| i as f64 - 2.0;
        for i in 0..5 {
            s.add_object(Object::new(
                Geometry::Sphere {
                    center: Point3::new(ball_x(i), 1.6, 0.0),
                    radius: 0.5,
                },
                Material::chrome(Color::WHITE),
            ));
        }
        for x in [-3.2, 3.2] {
            for z in [-1.3, 1.3] {
                s.add_object(cylinder_between(
                    Point3::new(x, 0.0, z),
                    Point3::new(x, 4.2, z),
                    0.09,
                ));
            }
        }
        for z in [-1.3, 1.3] {
            s.add_object(cylinder_between(
                Point3::new(-3.2, 4.2, z),
                Point3::new(3.2, 4.2, z),
                0.07,
            ));
        }
        for i in 0..5 {
            for z in [-1.3, 1.3] {
                s.add_object(cylinder_between(
                    Point3::new(ball_x(i), 1.9, 0.0),
                    Point3::new(ball_x(i), 4.2, z),
                    0.018,
                ));
            }
        }
        s
    }

    /// A plane under a CSG lens, a tilted torus, a mesh sphere and a box
    /// cut by a sphere: every shape whose intersection routine is not a
    /// closed-form root pick.
    fn assorted() -> Scene {
        use crate::csg::Csg;
        use std::sync::Arc;
        let mut s = test_scene();
        let lens = Csg::intersection(
            Csg::Solid(Geometry::Sphere {
                center: Point3::new(-0.4, 0.0, 0.0),
                radius: 1.0,
            }),
            Csg::Solid(Geometry::Sphere {
                center: Point3::new(0.4, 0.0, 0.0),
                radius: 1.0,
            }),
        );
        let bitten = Csg::difference(
            Csg::Solid(Geometry::Cuboid {
                min: Point3::splat(-0.8),
                max: Point3::splat(0.8),
            }),
            Csg::Solid(Geometry::Sphere {
                center: Point3::new(0.8, 0.8, 0.8),
                radius: 0.7,
            }),
        );
        let xf = |x: f64, y: f64| Affine::translate(Vec3::new(x, y, 1.5));
        let mut add = |g: Geometry, xf: Affine| {
            s.add_object(Object::new(g, Material::matte(Color::WHITE)).with_transform(xf));
        };
        add(
            Geometry::CsgNode {
                node: Arc::new(lens),
            },
            xf(-3.0, 1.0),
        );
        add(
            Geometry::CsgNode {
                node: Arc::new(bitten),
            },
            xf(3.0, 1.0),
        );
        add(
            Geometry::Torus {
                major: 1.2,
                minor: 0.3,
            },
            Affine::rotate_z(0.6).then(&xf(0.0, 2.0)),
        );
        add(
            crate::mesh::uv_sphere(Point3::ZERO, 0.9, 8, 12),
            xf(0.0, -0.2),
        );
        s
    }

    /// Bit pattern of an answer: mailboxed and unmailboxed walks must agree
    /// to the last bit, not within a tolerance.
    fn bits(hit: Option<(ObjectId, Hit)>) -> Option<(ObjectId, [u64; 7])> {
        hit.map(|(id, h)| {
            let (p, n) = (h.point, h.normal);
            let b = [h.t, p.x, p.y, p.z, n.x, n.y, n.z].map(f64::to_bits);
            (id, b)
        })
    }

    /// Mailboxed queries against the unmailboxed walk on seeded rays: the
    /// same answers to the bit, the same recorded paths, never more tests,
    /// and on the cradle — whose strings span many voxels — strictly fewer.
    /// Returns `(mailboxed, unmailboxed)` test counts.
    fn mailbox_oracle(scene: &Scene, voxels: u32, seed: u64) -> (u64, u64) {
        let spec = GridSpec::for_scene(scene.bounds(), voxels);
        let accel = GridAccel::build_with_spec(scene, spec);
        let b = spec.bounds;
        let mut rng = now_testkit::Rng::with_seed(seed);
        let point = |rng: &mut now_testkit::Rng, pad: f64| {
            let mut c = |lo: f64, hi: f64| rng.f64_in(lo - pad, hi + pad);
            Point3::new(
                c(b.min.x, b.max.x),
                c(b.min.y, b.max.y),
                c(b.min.z, b.max.z),
            )
        };
        let (mut stats, mut mailbox) = (RayStats::default(), Mailbox::default());
        let (mut got, mut want) = (VoxelPathBuf::default(), VoxelPathBuf::default());
        let (mut hits, mut blocked, mut reference) = (0, 0, 0);
        for i in 0..3000 {
            // origins inside the grid (secondary rays) and around it
            let origin = point(&mut rng, if i % 2 == 0 { 0.0 } else { 4.0 });
            let Some(dir) = (point(&mut rng, 0.0) - origin).try_normalized(1e-9) else {
                continue;
            };
            let ray = Ray::new(origin, dir);
            let far = if i % 5 == 0 {
                rng.f64_in(0.5, 12.0)
            } else {
                f64::INFINITY
            };
            let range = Interval::new(RAY_BIAS, far);

            let hit = accel.closest::<true>(scene, &ray, range, &mut stats, &mut got, &mut mailbox);
            let (want_hit, tests) = unmailboxed_closest(&accel, scene, &ray, range, &mut want);
            assert_eq!(bits(hit), bits(want_hit), "ray {i}: {ray:?} over {range:?}");
            assert_eq!(got.path(), want.path(), "ray {i}: recorded path");
            hits += hit.is_some() as u32;
            reference += tests;

            let dist = rng.f64_in(0.5, 14.0);
            let (occluded, t) =
                accel.any_hit::<true>(scene, &ray, dist, &mut stats, &mut got, &mut mailbox);
            let (want_occluded, tests) = unmailboxed_any_hit(&accel, scene, &ray, dist);
            assert_eq!(occluded, want_occluded, "feeler {i}: {ray:?} over {dist}");
            want.record(&spec, &ray, Interval::new(0.0, t));
            assert_eq!(
                got.path(),
                want.path(),
                "feeler {i}: recorded path over {t}"
            );
            blocked += occluded as u32;
            reference += tests;
        }
        assert!(hits > 300 && hits < 2900, "{hits} hits");
        assert!(
            blocked > 300 && blocked < 2900,
            "{blocked} occluded feelers"
        );
        assert!(stats.intersection_tests <= reference);
        (stats.intersection_tests, reference)
    }

    #[test]
    fn mailboxed_queries_match_the_unmailboxed_walk() {
        let (cradle, cradle_reference) = mailbox_oracle(&cradle(), 24 * 24 * 24, 1);
        assert!(
            cradle * 10 < cradle_reference * 9,
            "cradle: {cradle} tests against {cradle_reference} unmailboxed"
        );
        mailbox_oracle(&assorted(), 16 * 16 * 16, 2);
        // a coarse grid: few voxels per object, many objects per voxel
        mailbox_oracle(&assorted(), 4 * 4 * 4, 3);
    }

    /// A wrapped stamp clears the mailbox: queries across the wrap test
    /// every object they meet, as the first query of a fresh mailbox does.
    #[test]
    fn a_wrapping_stamp_forgets_every_test() {
        let scene = cradle();
        let accel = GridAccel::build_with_spec(&scene, GridSpec::for_scene(scene.bounds(), 4096));
        let ray = Ray::new(Point3::new(-4.0, 4.2, 1.3), Vec3::UNIT_X);
        let range = Interval::new(RAY_BIAS, f64::INFINITY);
        let mut path = VoxelPathBuf::default();
        let mut fresh = RayStats::default();
        let want = closest(&accel, &scene, &ray, range, &mut fresh);
        assert!(want.is_some() && fresh.intersection_tests > 1);

        let mut mailbox = Mailbox::default();
        mailbox.begin(scene.objects.len());
        mailbox.stamps.fill(u32::MAX - 1);
        mailbox.stamp = u32::MAX - 3;
        for _ in 0..4 {
            let mut stats = RayStats::default();
            let hit =
                accel.closest::<false>(&scene, &ray, range, &mut stats, &mut path, &mut mailbox);
            assert_eq!(hit, want);
            assert_eq!(stats, fresh, "stamp {}", mailbox.stamp);
        }
        assert_eq!(mailbox.stamp, 1, "the stamp wrapped and restarted");
    }
}
