//! 3-D DDA grid traversal (Amanatides & Woo).
//!
//! The paper: "Each of these rays passes through a modified 3D-DDA algorithm
//! to determine which voxels they traverse." This module is that algorithm,
//! exposed as [`IndexWalk`] — the one walker a traced ray takes: it steps a
//! linear cell index through the grid, so the accelerator reads its cell
//! lists and the coherence engine gets its step codes from the same walk
//! ([`VoxelPathBuf`] packs them as the engine tests and keeps them). The
//! voxel-coordinate iterator [`GridTraversal`] (and the visitor helper
//! [`GridSpec::traverse`] via the extension trait below) is the reference
//! form: `IndexWalk` is set up by it and tested against it.

use crate::spec::{GridSpec, Voxel};
use now_math::{Interval, Ray};

/// One step of a DDA walk: the voxel and the ray-parameter interval the ray
/// spends inside it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DdaStep {
    /// The voxel being crossed.
    pub voxel: Voxel,
    /// Ray parameter at which the ray enters the voxel.
    pub t_enter: f64,
    /// Ray parameter at which the ray leaves the voxel.
    pub t_exit: f64,
}

/// Iterator over the voxels a ray crosses, in order of increasing `t`.
///
/// Construct with [`GridTraversal::new`]; yields nothing if the ray misses
/// the grid entirely.
///
/// ```
/// use now_grid::{GridSpec, GridTraversal};
/// use now_math::{Aabb, Interval, Point3, Ray, Vec3};
///
/// let spec = GridSpec::cubic(Aabb::new(Point3::ZERO, Point3::splat(4.0)), 4);
/// let ray = Ray::new(Point3::new(-1.0, 0.5, 0.5), Vec3::UNIT_X);
/// let voxels: Vec<_> = GridTraversal::new(&spec, &ray, Interval::non_negative())
///     .map(|step| step.voxel.x)
///     .collect();
/// assert_eq!(voxels, vec![0, 1, 2, 3]);
/// ```
#[derive(Debug, Clone)]
pub struct GridTraversal {
    spec: GridSpec,
    // current voxel coordinates as signed values so stepping off the grid is
    // representable
    ix: i32,
    iy: i32,
    iz: i32,
    step: [i32; 3],
    // t at which the ray crosses the *next* boundary on each axis
    t_max: [f64; 3],
    // t advance per voxel on each axis
    t_delta: [f64; 3],
    // current entry t and overall exit t
    t: f64,
    t_end: f64,
    done: bool,
}

impl GridTraversal {
    /// Start a traversal of `ray` (direction need not be unit length) clipped
    /// to `t_range` and to the grid bounds.
    pub fn new(spec: &GridSpec, ray: &Ray, t_range: Interval) -> GridTraversal {
        let clipped = spec.bounds.ray_range(ray, t_range);
        if clipped.is_empty() || clipped.length() <= 0.0 {
            return GridTraversal::exhausted(spec);
        }
        let t0 = clipped.min;
        let t1 = clipped.max;
        // Nudge the entry point inside the boundary voxel to sidestep the
        // exact-boundary ambiguity, then clamp.
        let entry = ray.at(t0 + 1e-12 * (1.0 + t0.abs()));
        let start = spec.voxel_of_clamped(entry);
        let size = spec.voxel_size();
        let bmin = spec.bounds.min;

        let mut step = [0i32; 3];
        let mut t_max = [f64::INFINITY; 3];
        let mut t_delta = [f64::INFINITY; 3];
        let idx = [start.x as i32, start.y as i32, start.z as i32];
        let dir = [ray.dir.x, ray.dir.y, ray.dir.z];
        let orig = [ray.origin.x, ray.origin.y, ray.origin.z];
        let sz = [size.x, size.y, size.z];
        let bm = [bmin.x, bmin.y, bmin.z];
        for a in 0..3 {
            if dir[a] > 0.0 {
                step[a] = 1;
                let boundary = bm[a] + (idx[a] as f64 + 1.0) * sz[a];
                t_max[a] = (boundary - orig[a]) / dir[a];
                t_delta[a] = sz[a] / dir[a];
            } else if dir[a] < 0.0 {
                step[a] = -1;
                let boundary = bm[a] + idx[a] as f64 * sz[a];
                t_max[a] = (boundary - orig[a]) / dir[a];
                t_delta[a] = -sz[a] / dir[a];
            }
        }
        GridTraversal {
            spec: *spec,
            ix: idx[0],
            iy: idx[1],
            iz: idx[2],
            step,
            t_max,
            t_delta,
            t: t0,
            t_end: t1,
            done: false,
        }
    }

    /// A traversal that yields nothing (a ray that misses the grid).
    fn exhausted(spec: &GridSpec) -> GridTraversal {
        GridTraversal {
            spec: *spec,
            ix: 0,
            iy: 0,
            iz: 0,
            step: [0; 3],
            t_max: [0.0; 3],
            t_delta: [0.0; 3],
            t: 0.0,
            t_end: -1.0,
            done: true,
        }
    }

    /// The nearest upcoming boundary crossing: its axis and ray parameter.
    /// Ties go to the lower axis. [`IndexWalk`] steps through this same
    /// function, so both walks take the same turn at every crossing.
    #[inline]
    fn nearest_crossing(t_max: &[f64; 3]) -> (usize, f64) {
        let mut axis = 0;
        let mut t_next = t_max[0];
        if t_max[1] < t_next {
            axis = 1;
            t_next = t_max[1];
        }
        if t_max[2] < t_next {
            axis = 2;
            t_next = t_max[2];
        }
        (axis, t_next)
    }

    #[inline]
    fn current_voxel(&self) -> Option<Voxel> {
        if self.ix < 0
            || self.iy < 0
            || self.iz < 0
            || self.ix >= self.spec.res[0] as i32
            || self.iy >= self.spec.res[1] as i32
            || self.iz >= self.spec.res[2] as i32
        {
            None
        } else {
            Some(Voxel::new(self.ix as u16, self.iy as u16, self.iz as u16))
        }
    }
}

impl Iterator for GridTraversal {
    type Item = DdaStep;

    fn next(&mut self) -> Option<DdaStep> {
        if self.done {
            return None;
        }
        let voxel = match self.current_voxel() {
            Some(v) => v,
            None => {
                self.done = true;
                return None;
            }
        };
        let (axis, t_next) = GridTraversal::nearest_crossing(&self.t_max);
        let t_exit = t_next.min(self.t_end);
        let out = DdaStep {
            voxel,
            t_enter: self.t,
            t_exit,
        };
        if t_next >= self.t_end {
            self.done = true;
        } else {
            self.t = t_next;
            self.t_max[axis] += self.t_delta[axis];
            match axis {
                0 => self.ix += self.step[0],
                1 => self.iy += self.step[1],
                _ => self.iz += self.step[2],
            }
        }
        Some(out)
    }
}

/// The walk of [`GridTraversal`] as linear voxel indices: the cell the ray
/// is in ([`IndexWalk::cell`], in [`GridSpec::linear_index`] order), the
/// ray parameter at which it entered it ([`IndexWalk::t_enter`]) and, per
/// [`IndexWalk::advance`] (or as an iterator), one *step code* for each
/// further voxel.
///
/// A step code is `axis * 2 + (direction is negative)`, so `0..6` is
/// `+x, -x, +y, -y, +z, -z`; [`step_strides`] gives the linear-index delta
/// of each. The set-up is [`GridTraversal::new`] itself and every step
/// compares and adds the same floats in the same order, so the cells and
/// entry parameters are exactly the `voxel` and `t_enter` sequence
/// `GridTraversal` yields; the six-compare bounds check is replaced by a
/// per-axis count of the steps left before the grid ends.
///
/// ```
/// use now_grid::dda::{step_strides, IndexWalk};
/// use now_grid::{GridSpec, Voxel};
/// use now_math::{Aabb, Interval, Point3, Ray, Vec3};
///
/// let spec = GridSpec::cubic(Aabb::new(Point3::ZERO, Point3::splat(4.0)), 4);
/// let ray = Ray::new(Point3::new(0.5, 5.0, 0.5), -Vec3::UNIT_Y);
/// let mut walk = IndexWalk::new(&spec, &ray, Interval::non_negative()).unwrap();
/// assert_eq!(walk.cell(), spec.linear_index(Voxel::new(0, 3, 0)));
/// assert_eq!(walk.t_enter(), 1.0);
/// assert_eq!(walk.advance(), Some(3));
/// assert_eq!(walk.cell(), spec.linear_index(Voxel::new(0, 2, 0)));
/// assert_eq!(walk.collect::<Vec<u8>>(), vec![3, 3]);
/// assert_eq!(step_strides(&spec)[3], -4);
/// ```
#[derive(Debug, Clone)]
pub struct IndexWalk {
    cell: usize,
    /// Ray parameter at which the ray entered `cell`.
    t: f64,
    t_max: [f64; 3],
    t_delta: [f64; 3],
    t_end: f64,
    /// Steps left on each axis before the walk leaves the grid.
    room: [u32; 3],
    /// Step code and linear-index stride of each axis for this ray's
    /// direction signs.
    code: [u8; 3],
    stride: [isize; 3],
}

impl IndexWalk {
    /// Start the walk of `ray` clipped to `t_range`; `None` when the ray
    /// crosses no voxel (where [`GridTraversal`] yields nothing).
    #[inline]
    pub fn new(spec: &GridSpec, ray: &Ray, t_range: Interval) -> Option<IndexWalk> {
        let t = GridTraversal::new(spec, ray, t_range);
        if t.done {
            return None;
        }
        // the start voxel is clamped into the grid, so the casts are exact
        let at = [t.ix as u32, t.iy as u32, t.iz as u32];
        let strides = step_strides(spec);
        let mut room = [0u32; 3];
        let mut code = [0u8; 3];
        let mut stride = [0isize; 3];
        for a in 0..3 {
            let negative = t.step[a] < 0;
            room[a] = if negative {
                at[a]
            } else {
                spec.res[a] as u32 - 1 - at[a]
            };
            code[a] = 2 * a as u8 + negative as u8;
            stride[a] = strides[code[a] as usize];
        }
        let cell = spec.linear_index(Voxel::new(at[0] as u16, at[1] as u16, at[2] as u16));
        Some(IndexWalk {
            cell,
            t: t.t,
            t_max: t.t_max,
            t_delta: t.t_delta,
            t_end: t.t_end,
            room,
            code,
            stride,
        })
    }

    /// Linear index of the voxel the walk is in.
    #[inline]
    pub fn cell(&self) -> usize {
        self.cell
    }

    /// Ray parameter at which the ray entered [`IndexWalk::cell`] (for the
    /// first voxel, where the clipped ray starts).
    #[inline]
    pub fn t_enter(&self) -> f64 {
        self.t
    }

    /// Move into the next voxel and return the step code crossed, or `None`
    /// (and stay put, however often it is asked) when the ray ends inside
    /// the current voxel or leaves the grid.
    #[inline]
    pub fn advance(&mut self) -> Option<u8> {
        let (axis, t_next) = GridTraversal::nearest_crossing(&self.t_max);
        if t_next >= self.t_end {
            // the ray ends inside the current voxel
            return None;
        }
        // one arm per axis: with constant indices the three axes' state
        // lives in registers, which a `[axis]` lookup would force to memory
        match axis {
            0 => self.cross::<0>(t_next),
            1 => self.cross::<1>(t_next),
            _ => self.cross::<2>(t_next),
        }
    }

    /// Step over the boundary of axis `A` at `t_next`, unless that leaves
    /// the grid (an axis the ray does not move along has `t_max` = inf and
    /// is never the nearest crossing below `t_end`).
    #[inline(always)]
    fn cross<const A: usize>(&mut self, t_next: f64) -> Option<u8> {
        if self.room[A] == 0 {
            return None;
        }
        self.room[A] -= 1;
        self.t_max[A] += self.t_delta[A];
        self.cell = self.cell.wrapping_add_signed(self.stride[A]);
        self.t = t_next;
        Some(self.code[A])
    }
}

impl Iterator for IndexWalk {
    type Item = u8;

    #[inline]
    fn next(&mut self) -> Option<u8> {
        self.advance()
    }
}

/// Linear-index delta of each [`IndexWalk`] step code. Codes 6 and 7 are
/// never walked and move nowhere, so any 3-bit value indexes the table and
/// a packed code stream can pad with them.
pub fn step_strides(spec: &GridSpec) -> [isize; 8] {
    let x = 1isize;
    let y = spec.res[0] as isize;
    let z = y * spec.res[1] as isize;
    [x, -x, y, -y, z, -z, 0, 0]
}

/// The step code that moves nowhere ([`step_strides`] gives it stride 0):
/// fills the unused half of an odd path's last byte.
const PAD: u8 = 6;

/// The voxels one ray crossed, in the form the coherence engine tests and
/// keeps them: the first voxel and one step code per further voxel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VoxelPath<'a> {
    /// Linear index of the first voxel crossed.
    pub start: usize,
    /// Number of step codes: voxels crossed, less one.
    pub steps: usize,
    /// `ceil(steps / 2)` bytes: two 3-bit step codes per byte, low nibble
    /// first; an odd count pads the last byte with 6, the code of no move.
    pub codes: &'a [u8],
}

/// Reusable buffer a walk is recorded into as it is taken.
///
/// The walker's owner calls [`begin`](VoxelPathBuf::begin) at the first
/// voxel and [`push`](VoxelPathBuf::push) after every
/// [`IndexWalk::advance`]; a closest-hit query that walked one voxel past
/// its hit then drops the overshoot with
/// [`keep_before`](VoxelPathBuf::keep_before). Entry parameters are kept
/// beside the codes for exactly that cut.
#[derive(Debug, Clone, Default)]
pub struct VoxelPathBuf {
    start: usize,
    codes: Vec<u8>,
    /// `t_enter` of every voxel on the path; empty = the ray crossed none.
    enters: Vec<f64>,
}

impl VoxelPathBuf {
    /// Forget the recorded path: a ray that crossed no voxel.
    #[inline]
    pub fn clear(&mut self) {
        self.codes.clear();
        self.enters.clear();
    }

    /// Start a path at the voxel `walk` is in.
    #[inline]
    pub fn begin(&mut self, walk: &IndexWalk) {
        self.clear();
        self.start = walk.cell();
        self.enters.push(walk.t_enter());
    }

    /// Append the step `code` that took the walk into a voxel at `t_enter`.
    #[inline]
    pub fn push(&mut self, code: u8, t_enter: f64) {
        debug_assert!(!self.enters.is_empty(), "push before begin");
        match self.codes.last_mut() {
            Some(last) if self.enters.len() & 1 == 0 => *last = *last & 0x0f | code << 4,
            _ => self.codes.push(code | PAD << 4),
        }
        self.enters.push(t_enter);
    }

    /// Record the standalone walk of `ray` over `t_range` (no path when it
    /// crosses no voxel): what a query's recorded walk is held against.
    pub fn record(&mut self, spec: &GridSpec, ray: &Ray, t_range: Interval) {
        self.clear();
        if let Some(mut walk) = IndexWalk::new(spec, ray, t_range) {
            self.begin(&walk);
            while let Some(code) = walk.advance() {
                self.push(code, walk.t_enter());
            }
        }
    }

    /// Keep only the voxels the ray entered before `t_max` — the path
    /// `IndexWalk` takes when its range is cut at `t_max`: a voxel entered
    /// at `t >= t_max` is not walked, and a ray that reaches the grid at or
    /// after `t_max` crosses none.
    pub fn keep_before(&mut self, t_max: f64) {
        let mut voxels = self.enters.len();
        while voxels > 0 && self.enters[voxels - 1] >= t_max {
            voxels -= 1;
        }
        self.enters.truncate(voxels);
        let steps = voxels.saturating_sub(1);
        self.codes.truncate(steps.div_ceil(2));
        if steps & 1 == 1 {
            let last = &mut self.codes[steps / 2];
            *last = *last & 0x0f | PAD << 4;
        }
    }

    /// The recorded path, `None` when the ray crossed no voxel.
    #[inline]
    pub fn path(&self) -> Option<VoxelPath<'_>> {
        (!self.enters.is_empty()).then(|| VoxelPath {
            start: self.start,
            steps: self.enters.len() - 1,
            codes: &self.codes,
        })
    }
}

/// Visitor-style traversal helpers on [`GridSpec`].
pub trait Traverse {
    /// Call `f` for every voxel the ray crosses (in order); stop early if
    /// `f` returns `false`.
    fn traverse(&self, ray: &Ray, t_range: Interval, f: impl FnMut(DdaStep) -> bool);

    /// Collect every voxel the ray crosses.
    fn traverse_vec(&self, ray: &Ray, t_range: Interval) -> Vec<Voxel>;
}

impl Traverse for GridSpec {
    fn traverse(&self, ray: &Ray, t_range: Interval, mut f: impl FnMut(DdaStep) -> bool) {
        for step in GridTraversal::new(self, ray, t_range) {
            if !f(step) {
                break;
            }
        }
    }

    fn traverse_vec(&self, ray: &Ray, t_range: Interval) -> Vec<Voxel> {
        GridTraversal::new(self, ray, t_range)
            .map(|s| s.voxel)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use now_math::{Aabb, Point3, Vec3};

    fn grid4() -> GridSpec {
        GridSpec::cubic(Aabb::new(Point3::ZERO, Point3::splat(4.0)), 4)
    }

    #[test]
    fn straight_x_crossing() {
        let g = grid4();
        let ray = Ray::new(Point3::new(-1.0, 0.5, 0.5), Vec3::UNIT_X);
        let vs = g.traverse_vec(&ray, Interval::non_negative());
        assert_eq!(
            vs,
            vec![
                Voxel::new(0, 0, 0),
                Voxel::new(1, 0, 0),
                Voxel::new(2, 0, 0),
                Voxel::new(3, 0, 0)
            ]
        );
    }

    #[test]
    fn reverse_direction_crossing() {
        let g = grid4();
        let ray = Ray::new(Point3::new(5.0, 0.5, 0.5), -Vec3::UNIT_X);
        let vs = g.traverse_vec(&ray, Interval::non_negative());
        assert_eq!(
            vs,
            vec![
                Voxel::new(3, 0, 0),
                Voxel::new(2, 0, 0),
                Voxel::new(1, 0, 0),
                Voxel::new(0, 0, 0)
            ]
        );
    }

    #[test]
    fn miss_yields_nothing() {
        let g = grid4();
        let ray = Ray::new(Point3::new(-1.0, 9.0, 0.5), Vec3::UNIT_X);
        assert!(g.traverse_vec(&ray, Interval::non_negative()).is_empty());
        // pointing away from the grid
        let ray2 = Ray::new(Point3::new(-1.0, 0.5, 0.5), -Vec3::UNIT_X);
        assert!(g.traverse_vec(&ray2, Interval::non_negative()).is_empty());
    }

    #[test]
    fn ray_starting_inside() {
        let g = grid4();
        let ray = Ray::new(Point3::new(2.5, 2.5, 2.5), Vec3::UNIT_Z);
        let vs = g.traverse_vec(&ray, Interval::non_negative());
        assert_eq!(vs, vec![Voxel::new(2, 2, 2), Voxel::new(2, 2, 3)]);
    }

    #[test]
    fn clipped_t_range_limits_walk() {
        let g = grid4();
        let ray = Ray::new(Point3::new(0.5, 0.5, 0.5), Vec3::UNIT_X);
        // only allowed to travel up to t = 1.2: voxels 0 and 1
        let vs = g.traverse_vec(&ray, Interval::new(0.0, 1.2));
        assert_eq!(vs, vec![Voxel::new(0, 0, 0), Voxel::new(1, 0, 0)]);
    }

    #[test]
    fn diagonal_walk_is_connected_and_monotone() {
        let g = grid4();
        let ray = Ray::new(
            Point3::new(-0.1, -0.2, -0.3),
            Vec3::new(1.0, 1.1, 1.2).normalized(),
        );
        let steps: Vec<DdaStep> = GridTraversal::new(&g, &ray, Interval::non_negative()).collect();
        assert!(!steps.is_empty());
        for w in steps.windows(2) {
            // consecutive voxels differ by exactly one step on one axis
            let (a, b) = (w[0].voxel, w[1].voxel);
            let d = (a.x as i32 - b.x as i32).abs()
                + (a.y as i32 - b.y as i32).abs()
                + (a.z as i32 - b.z as i32).abs();
            assert_eq!(d, 1, "voxel walk must be 6-connected: {a:?} -> {b:?}");
            // t intervals chain
            assert!((w[0].t_exit - w[1].t_enter).abs() < 1e-9);
        }
        // intervals are non-degenerate and increasing
        for s in &steps {
            assert!(s.t_exit >= s.t_enter);
        }
    }

    #[test]
    fn step_intervals_cover_clipped_range() {
        let g = grid4();
        let ray = Ray::new(
            Point3::new(-2.0, 1.7, 3.2),
            Vec3::new(1.0, 0.3, -0.4).normalized(),
        );
        let clipped = g.bounds.ray_range(&ray, Interval::non_negative());
        let steps: Vec<DdaStep> = GridTraversal::new(&g, &ray, Interval::non_negative()).collect();
        assert!(!steps.is_empty());
        assert!((steps.first().unwrap().t_enter - clipped.min).abs() < 1e-9);
        assert!((steps.last().unwrap().t_exit - clipped.max).abs() < 1e-9);
    }

    #[test]
    fn midpoints_of_steps_lie_in_reported_voxel() {
        let g = grid4();
        let ray = Ray::new(
            Point3::new(0.1, 3.9, 0.1),
            Vec3::new(0.7, -0.6, 0.4).normalized(),
        );
        for s in GridTraversal::new(&g, &ray, Interval::non_negative()) {
            let mid = ray.at((s.t_enter + s.t_exit) * 0.5);
            assert_eq!(g.voxel_of_clamped(mid), s.voxel);
        }
    }

    #[test]
    fn axis_aligned_boundary_ray_terminates() {
        // A ray running exactly along a voxel boundary plane must still
        // terminate and visit a consistent column of voxels.
        let g = grid4();
        let ray = Ray::new(Point3::new(2.0, 0.5, -1.0), Vec3::UNIT_Z);
        let vs = g.traverse_vec(&ray, Interval::non_negative());
        assert_eq!(vs.len(), 4);
        for w in vs.windows(2) {
            assert_eq!(w[1].z, w[0].z + 1);
            assert_eq!(w[1].x, w[0].x);
        }
    }

    #[test]
    fn early_exit_visitor_stops() {
        use super::Traverse;
        let g = grid4();
        let ray = Ray::new(Point3::new(-1.0, 0.5, 0.5), Vec3::UNIT_X);
        let mut n = 0;
        g.traverse(&ray, Interval::non_negative(), |_| {
            n += 1;
            n < 2
        });
        assert_eq!(n, 2);
    }
}
