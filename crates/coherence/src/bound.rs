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
    use now_testkit::cases;

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
