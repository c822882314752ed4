//! Tight world-space bounds of one placement of a bounded object, and the
//! test of a recorded ray segment against them.
//!
//! A changed object's old and new placements each get one [`Bound`]: a
//! ball for a sphere, a capsule around the axis for a cylinder, the world
//! AABB for anything else. [`crate::changed_voxels`] rasterises a
//! cylinder's capsule into voxels, and the coherence engine tests each
//! recorded segment that crosses a changed voxel against the bounds
//! themselves (DESIGN.md §14).

use now_math::{Aabb, Interval, Point3, Ray, Vec3};
use now_raytrace::{Geometry, Object};

/// A closed region containing every point of one placement of an object.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// Every point within `radius` of `center` (a sphere).
    Ball {
        /// World-space center.
        center: Point3,
        /// World-space radius.
        radius: f64,
    },
    /// Every point within `radius` of the segment `a`–`b` (a cylinder).
    Capsule {
        /// World-space end of the axis at the local `y0`.
        a: Point3,
        /// World-space end of the axis at the local `y1`.
        b: Point3,
        /// World-space radius: the local radius times the largest stretch
        /// of the cross-section.
        radius: f64,
    },
    /// The world AABB (every other bounded geometry).
    Box(Aabb),
}

/// The largest factor by which the linear map whose images of unit axes
/// are `cols` lengthens a vector of their span: the square root of the
/// largest eigenvalue of the columns' Gram matrix. Exact for two columns
/// (closed form); for three, Gershgorin's row-sum bound, which is exact for
/// rotations, uniform and axis-aligned scales and never too small.
fn stretch(cols: &[Vec3]) -> f64 {
    let g = |i: usize, j: usize| cols[i].dot(cols[j]);
    let lambda = match cols {
        [_, _] => {
            let (p, q, r) = (g(0, 0), g(1, 1), g(0, 1));
            (p + q) * 0.5 + (((p - q) * 0.5).powi(2) + r * r).sqrt()
        }
        _ => (0..cols.len())
            .map(|i| (0..cols.len()).map(|j| g(i, j).abs()).sum::<f64>())
            .fold(0.0, f64::max),
    };
    lambda.sqrt()
}

impl Bound {
    /// The bound of `obj` where it stands, or `None` for an unbounded
    /// object (an infinite plane).
    pub fn of(obj: &Object) -> Option<Bound> {
        let xf = obj.transform();
        let col = |v: Vec3| xf.vector(v);
        match obj.geometry {
            Geometry::Sphere { center, radius } => Some(Bound::Ball {
                center: xf.point(center),
                radius: radius
                    * stretch(&[col(Vec3::UNIT_X), col(Vec3::UNIT_Y), col(Vec3::UNIT_Z)]),
            }),
            // a point of the tube is its axis point plus M·(x, 0, z) with
            // x² + z² <= r², and |M·(x, 0, z)| <= r · stretch(M·x̂, M·ẑ)
            Geometry::Cylinder { radius, y0, y1, .. } => Some(Bound::Capsule {
                a: xf.point(Point3::new(0.0, y0, 0.0)),
                b: xf.point(Point3::new(0.0, y1, 0.0)),
                radius: radius * stretch(&[col(Vec3::UNIT_X), col(Vec3::UNIT_Z)]),
            }),
            _ => obj.world_aabb().map(Bound::Box),
        }
    }

    /// The smallest AABB containing the bound.
    pub(crate) fn aabb(&self) -> Aabb {
        match *self {
            Bound::Ball { center, radius } => Aabb::cube(center, radius),
            Bound::Capsule { a, b, radius } => Aabb::new(a, b).expand(radius),
            Bound::Box(b) => b,
        }
    }

    /// The box a segment must meet ([`Slab::meets`]) before
    /// [`Bound::near_segment`] with the same `pad` is worth asking: the
    /// bound's AABB grown by `pad` twice, the second time so that the slab
    /// test's rounding never rejects what the exact test, with its own
    /// rounding, accepts.
    pub(crate) fn reject_box(&self, pad: f64) -> Aabb {
        self.aabb().expand(2.0 * pad)
    }

    /// Whether the segment `p0`–`p1` comes within `pad` of the bound.
    /// For a box, `pad` grows every face, which covers a Euclidean `pad`.
    pub(crate) fn near_segment(&self, p0: Point3, p1: Point3, pad: f64) -> bool {
        match *self {
            Bound::Ball { center, radius } => {
                point_segment_distance_squared(center, p0, p1) <= (radius + pad).powi(2)
            }
            Bound::Capsule { a, b, radius } => {
                segment_distance_squared(p0, p1, a, b) <= (radius + pad).powi(2)
            }
            Bound::Box(b) => !b
                .expand(pad)
                .ray_range(&Ray::new(p0, p1 - p0), Interval::new(0.0, 1.0))
                .is_empty(),
        }
    }
}

/// A segment set up for slab tests against boxes: its start and the
/// reciprocal of its extent on each axis, computed once and shared by every
/// box it is tested against.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Slab {
    p0: Point3,
    inv: Vec3,
}

impl Slab {
    /// The segment `p0`–`p1`.
    #[inline]
    pub(crate) fn new(p0: Point3, p1: Point3) -> Slab {
        let d = p1 - p0;
        Slab {
            p0,
            inv: Vec3::new(1.0 / d.x, 1.0 / d.y, 1.0 / d.z),
        }
    }

    /// Whether the segment may meet the closed box `b`: never `false` when
    /// it does. No branch per axis; a NaN — a zero extent on an axis whose
    /// slab face the segment lies on — counts as a meeting.
    #[inline]
    pub(crate) fn meets(&self, b: &Aabb) -> bool {
        let (mut enter, mut exit, mut nan) = (0.0f64, 1.0f64, false);
        for a in 0..3 {
            let t0 = (b.min[a] - self.p0[a]) * self.inv[a];
            let t1 = (b.max[a] - self.p0[a]) * self.inv[a];
            nan |= t0.is_nan() | t1.is_nan();
            enter = enter.max(t0.min(t1));
            exit = exit.min(t0.max(t1));
        }
        nan | (enter <= exit)
    }
}

/// Squared distance from `p` to the segment `a`–`b`.
fn point_segment_distance_squared(p: Point3, a: Point3, b: Point3) -> f64 {
    let ab = b - a;
    let len2 = ab.length_squared();
    let s = if len2 > 0.0 {
        ((p - a).dot(ab) / len2).clamp(0.0, 1.0)
    } else {
        0.0
    };
    (a + ab * s - p).length_squared()
}

/// Squared distance between the segments `p0`–`p1` and `q0`–`q1`
/// (Ericson, *Real-Time Collision Detection* §5.1.9).
fn segment_distance_squared(p0: Point3, p1: Point3, q0: Point3, q1: Point3) -> f64 {
    let (d1, d2, r) = (p1 - p0, q1 - q0, p0 - q0);
    let (a, e, f) = (d1.length_squared(), d2.length_squared(), d2.dot(r));
    if a <= 0.0 {
        return point_segment_distance_squared(p0, q0, q1);
    }
    if e <= 0.0 {
        return point_segment_distance_squared(q0, p0, p1);
    }
    let (b, c) = (d1.dot(d2), d1.dot(r));
    let denom = a * e - b * b;
    let mut s = if denom > 0.0 {
        ((b * f - c * e) / denom).clamp(0.0, 1.0)
    } else {
        0.0
    };
    let mut t = (b * s + f) / e;
    if t < 0.0 {
        t = 0.0;
        s = (-c / a).clamp(0.0, 1.0);
    } else if t > 1.0 {
        t = 1.0;
        s = ((b - c) / a).clamp(0.0, 1.0);
    }
    (p0 + d1 * s - (q0 + d2 * t)).length_squared()
}

#[cfg(test)]
mod tests {
    use super::*;
    use now_math::Affine;
    use now_raytrace::Material;
    use now_testkit::{cases, Rng};

    fn cylinder(radius: f64, xf: Affine) -> Object {
        Object::new(
            Geometry::Cylinder {
                radius,
                y0: -0.5,
                y1: 0.5,
                capped: true,
            },
            Material::default(),
        )
        .with_transform(xf)
    }

    /// A sheared cross-section stretches by its largest singular value,
    /// not by its longest transformed axis.
    #[test]
    fn a_sheared_cylinder_gets_its_largest_singular_value() {
        let xf = Affine::rotate_axis(Vec3::UNIT_Y, std::f64::consts::FRAC_PI_4)
            .then(&Affine::scale(Vec3::new(4.0, 1.0, 1.0)));
        match Bound::of(&cylinder(0.3, xf)) {
            Some(Bound::Capsule { radius, .. }) => assert!((radius - 1.2).abs() < 1e-12),
            other => panic!("{other:?}"),
        }
    }

    /// Every surface point of randomly placed, scaled and sheared spheres
    /// and cylinders lies inside its bound.
    #[test]
    fn bounds_contain_the_surface() {
        cases(200, |rng| {
            let mut v = || {
                Vec3::new(
                    rng.f64_in(-1.0, 1.0),
                    rng.f64_in(-1.0, 1.0),
                    rng.f64_in(-1.0, 1.0),
                )
            };
            let axis = v().try_normalized(1e-3).unwrap_or(Vec3::UNIT_Y);
            let scale = v().abs() * 2.0 + Vec3::splat(0.1);
            let xf = Affine::scale(v().abs() + Vec3::splat(0.2))
                .then(&Affine::rotate_axis(axis, 1.3))
                .then(&Affine::scale(scale))
                .then(&Affine::translate(v() * 3.0));
            let sphere = Object::new(
                Geometry::Sphere {
                    center: v(),
                    radius: 0.4,
                },
                Material::default(),
            )
            .with_transform(xf);
            let tube = cylinder(0.2, xf);
            for (obj, n) in [(&sphere, 0), (&tube, 1)] {
                let bound = Bound::of(obj).unwrap();
                for k in 0..400 {
                    let u = (k as f64 + 0.5) / 400.0;
                    let (s, c) = (u * 37.0).sin_cos();
                    let local = match obj.geometry {
                        Geometry::Sphere { center, radius } => {
                            let z = 2.0 * u - 1.0;
                            let rho = (1.0 - z * z).sqrt();
                            center + Vec3::new(rho * c, rho * s, z) * radius
                        }
                        _ => Vec3::new(0.2 * c, u - 0.5, 0.2 * s),
                    };
                    let p = obj.transform().point(local);
                    assert!(bound.near_segment(p, p, 1e-9), "case {n}, sample {k}");
                    assert!(bound.aabb().expand(1e-9).contains(p));
                }
            }
        });
    }

    /// A ball, a capsule (of a sheared cylinder, every other time) or a
    /// box, about the origin and up to about 3 across.
    fn random_bound(rng: &mut Rng) -> Bound {
        let mut v = |s: f64| Vec3::new(rng.f64_in(-s, s), rng.f64_in(-s, s), rng.f64_in(-s, s));
        let (c, d, r) = (v(1.0), v(1.0), v(0.5).x.abs() + 0.01);
        match rng.u32_in(0, 4) {
            0 => Bound::Ball {
                center: c,
                radius: r,
            },
            1 => Bound::Capsule {
                a: c,
                b: c + d,
                radius: r,
            },
            2 => {
                // rotated, then stretched along x: a sheared cross-section
                let axis = d.try_normalized(1e-3).unwrap_or(Vec3::UNIT_Z);
                let xf = Affine::rotate_axis(axis, 0.9)
                    .then(&Affine::scale(Vec3::new(2.5, 1.0, 0.7)))
                    .then(&Affine::translate(c));
                Bound::of(&cylinder(r, xf)).unwrap()
            }
            _ => Bound::Box(Aabb::new(c, c + d.abs() + Vec3::splat(0.01))),
        }
    }

    /// A unit vector at right angles to `v`.
    fn perpendicular(v: Vec3, rng: &mut Rng) -> Vec3 {
        let w = Vec3::new(rng.f64_in(-1.0, 1.0), 1.0, rng.f64_in(-1.0, 1.0));
        v.cross(w)
            .try_normalized(1e-9)
            .unwrap_or_else(|| v.cross(Vec3::UNIT_X).normalized())
    }

    /// A point of the box `b`.
    fn inside(rng: &mut Rng, b: &Aabb) -> Point3 {
        Point3::new(
            rng.f64_in(b.min.x, b.max.x),
            rng.f64_in(b.min.y, b.max.y),
            rng.f64_in(b.min.z, b.max.z),
        )
    }

    /// A point of the box `b` with one coordinate on one of its faces.
    fn on_a_face(rng: &mut Rng, b: &Aabb) -> Point3 {
        let mut p = inside(rng, b);
        let a = rng.usize_in(0, 3);
        p[a] = if rng.bool() { b.min[a] } else { b.max[a] };
        p
    }

    /// A segment of the given kind near `bound`: zero-length, axis-parallel,
    /// grazing (tangent to the bound grown by `pad`, or lying in a face of
    /// a grown box), with an end on a face of `faces`, or anywhere around.
    fn segment(
        rng: &mut Rng,
        kind: u32,
        bound: &Bound,
        pad: f64,
        faces: &Aabb,
    ) -> (Point3, Point3) {
        let around = bound.aabb().expand(1.0);
        let p0 = inside(rng, &around);
        match kind {
            0 => (p0, p0),
            1 => {
                let mut p1 = p0;
                p1[rng.usize_in(0, 3)] += rng.f64_in(-3.0, 3.0);
                (p0, p1)
            }
            2 => {
                let (q, n, radius) = match *bound {
                    Bound::Ball { center, radius } => {
                        (center, perpendicular(p0 - center, rng), radius)
                    }
                    Bound::Capsule { a, b, radius } => {
                        let q = a.lerp(b, rng.f64_in(0.0, 1.0));
                        (q, perpendicular(b - a, rng), radius)
                    }
                    Bound::Box(_) => {
                        // in the plane of a face of the grown box
                        let grown = bound.aabb().expand(pad);
                        let (a, mut p0, mut p1) = (rng.usize_in(0, 3), p0, inside(rng, &around));
                        let face = if rng.bool() {
                            grown.min[a]
                        } else {
                            grown.max[a]
                        };
                        (p0[a], p1[a]) = (face, face);
                        return (p0, p1);
                    }
                };
                let touch = q + n * (radius + pad);
                let along = perpendicular(n, rng) * rng.f64_in(0.0, 2.0);
                (touch - along, touch + along * rng.f64_in(0.0, 1.0))
            }
            3 => (on_a_face(rng, faces), inside(rng, &around)),
            _ => (p0, inside(rng, &around)),
        }
    }

    /// The box reject ([`Slab::meets`] on [`Bound::reject_box`]) lets
    /// through every segment [`Bound::near_segment`] accepts with the same
    /// pad, for balls, capsules (sheared ones too) and boxes, and for
    /// zero-length, axis-parallel and grazing segments and segments ending
    /// on a face of the padded or the reject box — and it does reject.
    #[test]
    fn the_box_reject_passes_every_segment_the_exact_test_accepts() {
        let tally = std::cell::Cell::new([0u32; 3]);
        cases(400, |rng| {
            let bound = random_bound(rng);
            let pad = if rng.bool() {
                1e-9
            } else {
                rng.f64_in(1e-6, 0.1)
            };
            let reject = bound.reject_box(pad);
            let boxes = [bound.aabb().expand(pad), reject];
            let mut t = tally.get();
            for k in 0..100 {
                let kind = k % 5;
                let (p0, p1) = segment(rng, kind, &bound, pad, &boxes[k as usize / 5 % 2]);
                let meets = Slab::new(p0, p1).meets(&reject);
                if bound.near_segment(p0, p1, pad) {
                    assert!(meets, "{bound:?}, pad {pad}: kind {kind} {p0:?} to {p1:?}");
                    t[0] += 1;
                    t[1] += (kind == 2) as u32;
                } else {
                    t[2] += !meets as u32;
                }
            }
            tally.set(t);
        });
        let [accepted, grazing, rejected] = tally.get();
        assert!(accepted > 5000 && grazing > 1000, "{:?}", tally.get());
        assert!(rejected > 5000, "{rejected} segments rejected by the box");
    }

    /// The slab test on a closed box: touching a face, an edge or a corner
    /// meets it, and so does a point on a face, or a segment that does not
    /// move along an axis whose face it lies on (a NaN); a diagonal that
    /// passes the corner does not, though its own box overlaps.
    #[test]
    fn the_slab_test_is_closed_and_counts_a_nan_as_a_meeting() {
        let b = Aabb::new(Point3::ZERO, Point3::splat(1.0));
        let p = Point3::new;
        let meets = |p0: Point3, p1: Point3| Slab::new(p0, p1).meets(&b);
        assert!(meets(p(2.0, 0.5, 0.5), p(1.0, 0.5, 0.5)), "face");
        assert!(meets(p(2.0, 1.0, 0.5), p(1.0, 1.0, 0.5)), "edge");
        assert!(meets(p(2.0, 2.0, 2.0), p(1.0, 1.0, 1.0)), "corner");
        assert!(
            meets(p(0.0, 0.3, 0.3), p(0.0, 0.3, 0.3)),
            "a point on a face"
        );
        assert!(meets(p(0.5, 0.5, 0.5), p(0.5, 0.5, 0.5)), "a point inside");
        assert!(
            meets(p(0.0, -1.0, 0.5), p(0.0, 2.0, 0.5)),
            "in the x = 0 face"
        );
        assert!(
            !meets(p(1.5, 1.5, 1.5), p(1.5, 1.5, 1.5)),
            "a point outside"
        );
        assert!(
            !meets(p(1.5, 0.5, -1.0), p(1.5, 0.5, 2.0)),
            "parallel outside"
        );
        assert!(!meets(p(2.2, 0.0, 0.5), p(0.0, 2.2, 0.5)), "past the edge");
        assert!(
            !meets(p(3.0, 0.5, 0.5), p(2.0, 0.5, 0.5)),
            "short of the face"
        );
    }

    /// The closed-form segment distance against a dense sampling of both
    /// segments.
    #[test]
    fn segment_distance_matches_sampling() {
        cases(300, |rng| {
            let shape = rng.u32_in(0, 4);
            let mut p = || {
                Point3::new(
                    rng.f64_in(-2.0, 2.0),
                    rng.f64_in(-2.0, 2.0),
                    rng.f64_in(-2.0, 2.0),
                )
            };
            let (p0, p1, q0, other) = (p(), p(), p(), p());
            // parallel and degenerate segments too
            let q1 = match shape {
                0 => q0,
                1 => q0 + (p1 - p0) * 0.7,
                _ => other,
            };
            let exact = segment_distance_squared(p0, p1, q0, q1).sqrt();
            let mut sampled = f64::INFINITY;
            for i in 0..=200 {
                let a = p0.lerp(p1, i as f64 / 200.0);
                sampled = sampled.min(point_segment_distance_squared(a, q0, q1).sqrt());
            }
            assert!(exact <= sampled + 1e-12, "{exact} > {sampled}");
            assert!(exact >= sampled - 0.02, "{exact} << {sampled}");
        });
    }
}
