//! Triangle-mesh builders for the [`crate::Geometry::Mesh`] primitive.

use crate::bvh::TriMesh;
use crate::shape::Geometry;
use now_math::{Point3, Vec3};
use std::sync::Arc;

/// Build a mesh geometry (with its BVH) from raw triangles.
fn mesh_from_triangles(triangles: Vec<[Point3; 3]>) -> Geometry {
    Geometry::Mesh {
        mesh: Arc::new(TriMesh::build(triangles)),
    }
}

/// A UV-tessellated sphere (counter-clockwise outward winding).
///
/// `stacks >= 2` latitude bands, `slices >= 3` longitude segments.
pub fn uv_sphere(center: Point3, radius: f64, stacks: u32, slices: u32) -> Geometry {
    assert!(stacks >= 2 && slices >= 3);
    let point = |i: u32, j: u32| -> Point3 {
        let theta = std::f64::consts::PI * i as f64 / stacks as f64;
        let phi = std::f64::consts::TAU * j as f64 / slices as f64;
        center
            + Vec3::new(
                radius * theta.sin() * phi.cos(),
                radius * theta.cos(),
                radius * theta.sin() * phi.sin(),
            )
    };
    let mut tris = Vec::new();
    let mut push_outward = |mut t: [Point3; 3]| {
        // orient counter-clockwise seen from outside (normal away from
        // the sphere center)
        let n = (t[1] - t[0]).cross(t[2] - t[0]);
        let centroid = (t[0] + t[1] + t[2]) / 3.0;
        if n.dot(centroid - center) < 0.0 {
            t.swap(1, 2);
        }
        tris.push(t);
    };
    for i in 0..stacks {
        for j in 0..slices {
            let p00 = point(i, j);
            let p01 = point(i, j + 1);
            let p10 = point(i + 1, j);
            let p11 = point(i + 1, j + 1);
            if i > 0 {
                push_outward([p00, p11, p01]);
            }
            if i + 1 < stacks {
                push_outward([p00, p10, p11]);
            }
        }
    }
    mesh_from_triangles(tris)
}

/// An axis-aligned box as 12 triangles (outward winding).
pub fn box_mesh(min: Point3, max: Point3) -> Geometry {
    let p = |x: f64, y: f64, z: f64| Point3::new(x, y, z);
    let (a, b) = (min, max);
    let v = [
        p(a.x, a.y, a.z),
        p(b.x, a.y, a.z),
        p(b.x, b.y, a.z),
        p(a.x, b.y, a.z),
        p(a.x, a.y, b.z),
        p(b.x, a.y, b.z),
        p(b.x, b.y, b.z),
        p(a.x, b.y, b.z),
    ];
    let quads: [[usize; 4]; 6] = [
        [1, 0, 3, 2], // -z
        [4, 5, 6, 7], // +z
        [0, 4, 7, 3], // -x
        [5, 1, 2, 6], // +x
        [0, 1, 5, 4], // -y
        [3, 7, 6, 2], // +y
    ];
    let mut tris = Vec::with_capacity(12);
    for q in quads {
        tris.push([v[q[0]], v[q[1]], v[q[2]]]);
        tris.push([v[q[0]], v[q[2]], v[q[3]]]);
    }
    mesh_from_triangles(tris)
}

#[cfg(test)]
mod tests {
    use super::*;
    use now_math::{Interval, Ray};

    const FULL: Interval = Interval {
        min: 1e-9,
        max: f64::INFINITY,
    };

    #[test]
    fn uv_sphere_approximates_analytic_sphere() {
        let mesh = uv_sphere(Point3::ZERO, 1.0, 24, 48);
        let analytic = Geometry::Sphere {
            center: Point3::ZERO,
            radius: 1.0,
        };
        let mut tested = 0;
        for i in 0..100 {
            let a = i as f64 * 0.25;
            let origin = Point3::new(4.0 * a.cos(), 2.0 * (a * 0.7).sin(), 4.0 * a.sin());
            let ray = Ray::new(origin, (-origin).normalized());
            let (mh, ah) = (mesh.intersect(&ray, FULL), analytic.intersect(&ray, FULL));
            let mh = mh.expect("mesh must be hit from outside toward center");
            let ah = ah.unwrap();
            assert!((mh.t - ah.t).abs() < 0.02, "t {} vs {}", mh.t, ah.t);
            // flat-shaded facet normal vs smooth normal: within a facet's
            // angular extent
            assert!(
                mh.normal.dot(ah.normal) > 0.95,
                "normal dot {}",
                mh.normal.dot(ah.normal)
            );
            tested += 1;
        }
        assert_eq!(tested, 100);
    }

    #[test]
    fn box_mesh_matches_cuboid() {
        let mesh = box_mesh(Point3::splat(-1.0), Point3::splat(1.0));
        let cuboid = Geometry::Cuboid {
            min: Point3::splat(-1.0),
            max: Point3::splat(1.0),
        };
        for i in 0..60 {
            let a = i as f64 * 0.41;
            let origin = Point3::new(5.0 * a.cos(), 3.0 * (a * 1.3).sin(), 5.0 * a.sin());
            let dir = (Point3::new(0.2, -0.1, 0.1) - origin).normalized();
            let ray = Ray::new(origin, dir);
            match (mesh.intersect(&ray, FULL), cuboid.intersect(&ray, FULL)) {
                (Some(m), Some(c)) => {
                    assert!((m.t - c.t).abs() < 1e-9);
                    assert!(m.normal.approx_eq(c.normal, 1e-9));
                }
                (None, None) => {}
                (m, c) => panic!("mesh {m:?} vs cuboid {c:?}"),
            }
        }
    }

    #[test]
    fn mesh_bounds_contain_all_vertices() {
        let g = uv_sphere(Point3::new(1.0, 2.0, 3.0), 2.0, 4, 6);
        let b = g.local_aabb().unwrap();
        if let Geometry::Mesh { mesh } = &g {
            for t in mesh.triangles() {
                for p in t {
                    assert!(b.contains(*p));
                }
            }
        } else {
            panic!("not a mesh");
        }
    }

    #[test]
    fn coarse_sphere_is_watertight_from_all_sides() {
        let g = uv_sphere(Point3::ZERO, 1.0, 3, 4);
        // rays toward the centroid from a sphere of directions must all hit
        for i in 0..200 {
            let a = i as f64 * 0.31;
            let b = (i as f64 * 0.17).sin() * 1.2;
            let origin = Point3::new(
                3.0 * a.cos() * b.cos(),
                3.0 * b.sin(),
                3.0 * a.sin() * b.cos(),
            );
            let ray = Ray::new(origin, (-origin).normalized());
            assert!(g.intersect(&ray, FULL).is_some(), "ray {i} missed");
        }
    }

    #[test]
    #[should_panic]
    fn empty_mesh_rejected() {
        let _ = mesh_from_triangles(vec![]);
    }
}
