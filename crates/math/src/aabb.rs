//! Axis-aligned bounding boxes.

use crate::{Axis, Interval, Point3, Ray, Vec3};

/// An axis-aligned bounding box `[min, max]` in all three axes.
///
/// An AABB with any `min` component greater than the corresponding `max`
/// component is *empty*; [`Aabb::EMPTY`] is the canonical empty box and is
/// the identity for [`Aabb::union`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb {
    /// Minimum corner.
    pub min: Point3,
    /// Maximum corner.
    pub max: Point3,
}

impl Aabb {
    /// The canonical empty box (identity of `union`).
    pub const EMPTY: Aabb = Aabb {
        min: Vec3::splat(f64::INFINITY),
        max: Vec3::splat(f64::NEG_INFINITY),
    };

    /// Construct from two corners (not required to be ordered).
    #[inline]
    pub fn new(a: Point3, b: Point3) -> Aabb {
        Aabb {
            min: a.min(b),
            max: a.max(b),
        }
    }

    /// Box centered at `c` with half-extent `h` in every axis.
    #[inline]
    pub fn cube(c: Point3, h: f64) -> Aabb {
        Aabb::new(c - Vec3::splat(h), c + Vec3::splat(h))
    }

    /// Smallest box containing all given points. Empty if the slice is empty.
    pub fn from_points(pts: &[Point3]) -> Aabb {
        pts.iter().fold(Aabb::EMPTY, |b, &p| b.include(p))
    }

    /// True if the box contains no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.min.x > self.max.x || self.min.y > self.max.y || self.min.z > self.max.z
    }

    /// Extent along each axis (`max - min`).
    #[inline]
    pub fn extent(&self) -> Vec3 {
        self.max - self.min
    }

    /// Center point.
    #[inline]
    pub fn center(&self) -> Point3 {
        (self.min + self.max) * 0.5
    }

    /// Surface area (0 for empty boxes).
    #[inline]
    pub fn surface_area(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let e = self.extent();
        2.0 * (e.x * e.y + e.y * e.z + e.z * e.x)
    }

    /// Volume (0 for empty boxes).
    #[inline]
    pub fn volume(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let e = self.extent();
        e.x * e.y * e.z
    }

    /// Smallest box containing `self` and point `p`.
    #[inline]
    pub fn include(&self, p: Point3) -> Aabb {
        Aabb {
            min: self.min.min(p),
            max: self.max.max(p),
        }
    }

    /// Smallest box containing both boxes.
    #[inline]
    pub fn union(&self, o: &Aabb) -> Aabb {
        Aabb {
            min: self.min.min(o.min),
            max: self.max.max(o.max),
        }
    }

    /// The overlap of both boxes (possibly empty).
    #[inline]
    pub fn intersection(&self, o: &Aabb) -> Aabb {
        Aabb {
            min: self.min.max(o.min),
            max: self.max.min(o.max),
        }
    }

    /// Box grown by `delta` on every side.
    #[inline]
    pub fn expand(&self, delta: f64) -> Aabb {
        Aabb {
            min: self.min - Vec3::splat(delta),
            max: self.max + Vec3::splat(delta),
        }
    }

    /// True if the point lies inside or on the boundary.
    #[inline]
    pub fn contains(&self, p: Point3) -> bool {
        p.x >= self.min.x
            && p.x <= self.max.x
            && p.y >= self.min.y
            && p.y <= self.max.y
            && p.z >= self.min.z
            && p.z <= self.max.z
    }

    /// True if the two boxes share any point (closed-set semantics: touching
    /// faces count as overlapping).
    #[inline]
    pub fn overlaps(&self, o: &Aabb) -> bool {
        !self.is_empty()
            && !o.is_empty()
            && self.min.x <= o.max.x
            && self.max.x >= o.min.x
            && self.min.y <= o.max.y
            && self.max.y >= o.min.y
            && self.min.z <= o.max.z
            && self.max.z >= o.min.z
    }

    /// Axis along which the box is largest.
    pub fn longest_axis(&self) -> Axis {
        let e = self.extent();
        if e.x >= e.y && e.x >= e.z {
            Axis::X
        } else if e.y >= e.z {
            Axis::Y
        } else {
            Axis::Z
        }
    }

    /// Slab test: the sub-interval of `t_range` for which the ray is inside
    /// the box, or an empty interval if the ray misses.
    ///
    /// Handles axis-parallel rays (zero direction components) via IEEE
    /// infinity semantics, including the `0 * inf = NaN` corner case when the
    /// origin lies exactly on a slab boundary.
    pub fn ray_range(&self, ray: &Ray, t_range: Interval) -> Interval {
        let mut t0 = t_range.min;
        let mut t1 = t_range.max;
        for a in Axis::ALL {
            let o = ray.origin[a];
            let d = ray.dir[a];
            if d.abs() < f64::MIN_POSITIVE {
                // Ray parallel to these slabs: miss unless origin is inside.
                if o < self.min[a] || o > self.max[a] {
                    return Interval::EMPTY;
                }
                continue;
            }
            let inv = 1.0 / d;
            let mut ta = (self.min[a] - o) * inv;
            let mut tb = (self.max[a] - o) * inv;
            if ta > tb {
                std::mem::swap(&mut ta, &mut tb);
            }
            t0 = t0.max(ta);
            t1 = t1.min(tb);
            if t0 > t1 {
                return Interval::EMPTY;
            }
        }
        Interval::new(t0, t1)
    }

    /// True if the ray hits the box within `t_range`.
    #[inline]
    pub fn hit(&self, ray: &Ray, t_range: Interval) -> bool {
        !self.ray_range(ray, t_range).is_empty()
    }

    /// The eight corner points (arbitrary but fixed order).
    pub fn corners(&self) -> [Point3; 8] {
        let (a, b) = (self.min, self.max);
        [
            Point3::new(a.x, a.y, a.z),
            Point3::new(b.x, a.y, a.z),
            Point3::new(a.x, b.y, a.z),
            Point3::new(b.x, b.y, a.z),
            Point3::new(a.x, a.y, b.z),
            Point3::new(b.x, a.y, b.z),
            Point3::new(a.x, b.y, b.z),
            Point3::new(b.x, b.y, b.z),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_box() -> Aabb {
        Aabb::new(Point3::ZERO, Point3::ONE)
    }

    #[test]
    fn construction_orders_corners() {
        let b = Aabb::new(Point3::new(1.0, -1.0, 3.0), Point3::new(0.0, 2.0, 2.0));
        assert_eq!(b.min, Point3::new(0.0, -1.0, 2.0));
        assert_eq!(b.max, Point3::new(1.0, 2.0, 3.0));
    }

    #[test]
    fn empty_box_properties() {
        assert!(Aabb::EMPTY.is_empty());
        assert_eq!(Aabb::EMPTY.surface_area(), 0.0);
        assert_eq!(Aabb::EMPTY.volume(), 0.0);
        assert!(!Aabb::EMPTY.overlaps(&unit_box()));
        // union identity
        assert_eq!(Aabb::EMPTY.union(&unit_box()), unit_box());
    }

    #[test]
    fn include_and_from_points() {
        let pts = [
            Point3::new(0.0, 0.0, 0.0),
            Point3::new(1.0, 2.0, -1.0),
            Point3::new(-1.0, 0.5, 0.5),
        ];
        let b = Aabb::from_points(&pts);
        assert_eq!(b.min, Point3::new(-1.0, 0.0, -1.0));
        assert_eq!(b.max, Point3::new(1.0, 2.0, 0.5));
        for p in pts {
            assert!(b.contains(p));
        }
    }

    #[test]
    fn geometry_measures() {
        let b = Aabb::new(Point3::ZERO, Point3::new(2.0, 3.0, 4.0));
        assert_eq!(b.extent(), Vec3::new(2.0, 3.0, 4.0));
        assert_eq!(b.center(), Point3::new(1.0, 1.5, 2.0));
        assert_eq!(b.volume(), 24.0);
        assert_eq!(b.surface_area(), 2.0 * (6.0 + 12.0 + 8.0));
        assert_eq!(b.longest_axis(), Axis::Z);
    }

    #[test]
    fn intersection_of_boxes() {
        let a = unit_box();
        let b = Aabb::new(Point3::splat(0.5), Point3::splat(2.0));
        let i = a.intersection(&b);
        assert_eq!(i, Aabb::new(Point3::splat(0.5), Point3::ONE));
        // disjoint boxes intersect to empty
        let far = Aabb::cube(Point3::new(10.0, 0.0, 0.0), 1.0);
        assert!(a.intersection(&far).is_empty());
    }

    #[test]
    fn overlap_touching_faces_counts() {
        let a = unit_box();
        let b = Aabb::new(Point3::new(1.0, 0.0, 0.0), Point3::new(2.0, 1.0, 1.0));
        assert!(a.overlaps(&b));
        let c = Aabb::new(Point3::new(1.001, 0.0, 0.0), Point3::new(2.0, 1.0, 1.0));
        assert!(!a.overlaps(&c));
    }

    #[test]
    fn ray_hits_box_straight_on() {
        let b = unit_box();
        let r = Ray::new(Point3::new(-1.0, 0.5, 0.5), Vec3::UNIT_X);
        let range = b.ray_range(&r, Interval::non_negative());
        assert!(!range.is_empty());
        assert!((range.min - 1.0).abs() < 1e-12);
        assert!((range.max - 2.0).abs() < 1e-12);
    }

    #[test]
    fn ray_misses_box() {
        let b = unit_box();
        let r = Ray::new(Point3::new(-1.0, 2.0, 0.5), Vec3::UNIT_X);
        assert!(!b.hit(&r, Interval::non_negative()));
        // pointing away
        let r2 = Ray::new(Point3::new(-1.0, 0.5, 0.5), -Vec3::UNIT_X);
        assert!(!b.hit(&r2, Interval::non_negative()));
    }

    #[test]
    fn ray_starting_inside_box() {
        let b = unit_box();
        let r = Ray::new(Point3::new(0.5, 0.5, 0.5), Vec3::UNIT_Z);
        let range = b.ray_range(&r, Interval::non_negative());
        assert_eq!(range.min, 0.0);
        assert!((range.max - 0.5).abs() < 1e-12);
    }

    #[test]
    fn axis_parallel_ray_inside_slab() {
        let b = unit_box();
        // ray travels along +y with x,z inside the box: hit
        let r = Ray::new(Point3::new(0.5, -1.0, 0.5), Vec3::UNIT_Y);
        assert!(b.hit(&r, Interval::non_negative()));
        // same but x outside: miss, even though dir.x == 0
        let r2 = Ray::new(Point3::new(1.5, -1.0, 0.5), Vec3::UNIT_Y);
        assert!(!b.hit(&r2, Interval::non_negative()));
    }

    #[test]
    fn ray_origin_on_boundary() {
        let b = unit_box();
        let r = Ray::new(Point3::new(0.0, 0.5, 0.5), Vec3::UNIT_X);
        let range = b.ray_range(&r, Interval::non_negative());
        assert!(!range.is_empty());
        assert!(range.min.abs() < 1e-12);
    }

    #[test]
    fn corners_are_contained() {
        let b = Aabb::new(Point3::new(-1.0, 2.0, 3.0), Point3::new(4.0, 5.0, 6.0));
        for c in b.corners() {
            assert!(b.contains(c));
        }
    }

    #[test]
    fn expand_grows_symmetrically() {
        let b = unit_box().expand(0.5);
        assert_eq!(b.min, Point3::splat(-0.5));
        assert_eq!(b.max, Point3::splat(1.5));
    }
}
