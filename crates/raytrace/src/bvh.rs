//! A small bounding-volume hierarchy over triangles, used by the mesh
//! primitive so meshes scale past a few hundred faces.
//!
//! Median-split on the longest axis of the triangle-centroid bounds;
//! iterative stack traversal with front-to-back pruning.

use crate::shape::Hit;
use now_math::{Aabb, Interval, Point3, Ray, EPSILON};

/// One BVH node: internal nodes reference two children, leaves reference a
/// contiguous run of (reordered) triangles.
#[derive(Debug, Clone, PartialEq)]
enum Node {
    Internal {
        bounds: Aabb,
        left: u32,
        right: u32,
    },
    Leaf {
        bounds: Aabb,
        start: u32,
        count: u32,
    },
}

impl Node {
    fn bounds(&self) -> &Aabb {
        match self {
            Node::Internal { bounds, .. } | Node::Leaf { bounds, .. } => bounds,
        }
    }
}

/// A triangle mesh with a prebuilt BVH.
#[derive(Debug, Clone, PartialEq)]
pub struct TriMesh {
    triangles: Vec<[Point3; 3]>,
    nodes: Vec<Node>,
    root: u32,
    bounds: Aabb,
}

/// Triangles per leaf before splitting stops.
const LEAF_SIZE: usize = 4;

fn tri_bounds(t: &[Point3; 3]) -> Aabb {
    // pad a hair so hits computed with epsilon tolerance at triangle edges
    // are never culled by an exact box test (also gives planar meshes'
    // zero-thickness boxes some depth)
    let m = t
        .iter()
        .fold(1.0_f64, |m, p| m.max(p.abs().max_component()));
    Aabb::from_points(t).expand(1e-9 * m)
}

impl TriMesh {
    /// Build a mesh + BVH from triangles (panics on an empty list).
    pub fn build(mut triangles: Vec<[Point3; 3]>) -> TriMesh {
        assert!(!triangles.is_empty(), "mesh needs at least one triangle");
        let mut nodes = Vec::new();
        let n = triangles.len();
        let root = build_node(&mut triangles, 0, n, &mut nodes);
        let bounds = *nodes[root as usize].bounds();
        TriMesh {
            triangles,
            nodes,
            root,
            bounds,
        }
    }

    /// The triangles (BVH order).
    pub fn triangles(&self) -> &[[Point3; 3]] {
        &self.triangles
    }

    /// Mesh bounds.
    pub fn bounds(&self) -> Aabb {
        self.bounds
    }

    /// Closest triangle hit within `range`.
    pub fn intersect(&self, ray: &Ray, range: Interval) -> Option<Hit> {
        let mut best: Option<Hit> = None;
        let mut stack: Vec<u32> = vec![self.root];
        while let Some(idx) = stack.pop() {
            let node = &self.nodes[idx as usize];
            let upper = best.as_ref().map_or(range.max, |h| h.t);
            let clipped = node
                .bounds()
                .ray_range(ray, Interval::new(range.min, upper));
            if clipped.is_empty() {
                continue;
            }
            match node {
                Node::Internal { left, right, .. } => {
                    stack.push(*left);
                    stack.push(*right);
                }
                Node::Leaf { start, count, .. } => {
                    for t in &self.triangles[*start as usize..(*start + *count) as usize] {
                        let upper = best.as_ref().map_or(range.max, |h| h.t);
                        if let Some(h) = triangle_hit(t, ray, Interval::new(range.min, upper)) {
                            best = Some(h);
                        }
                    }
                }
            }
        }
        best
    }
}

/// Möller–Trumbore (duplicated from `shape` to keep the modules
/// independent; the shared math is ten lines).
fn triangle_hit(t: &[Point3; 3], ray: &Ray, range: Interval) -> Option<Hit> {
    let e1 = t[1] - t[0];
    let e2 = t[2] - t[0];
    let pvec = ray.dir.cross(e2);
    let det = e1.dot(pvec);
    if det.abs() < EPSILON {
        return None;
    }
    let inv_det = 1.0 / det;
    let tvec = ray.origin - t[0];
    let u = tvec.dot(pvec) * inv_det;
    if !(0.0..=1.0).contains(&u) {
        return None;
    }
    let qvec = tvec.cross(e1);
    let v = ray.dir.dot(qvec) * inv_det;
    if v < 0.0 || u + v > 1.0 {
        return None;
    }
    let tt = e2.dot(qvec) * inv_det;
    if !range.surrounds(tt) {
        return None;
    }
    Some(Hit {
        t: tt,
        point: ray.at(tt),
        normal: e1.cross(e2).normalized(),
    })
}

fn build_node(
    triangles: &mut [[Point3; 3]],
    start: usize,
    end: usize,
    nodes: &mut Vec<Node>,
) -> u32 {
    let slice = &triangles[start..end];
    let bounds = slice
        .iter()
        .fold(Aabb::EMPTY, |b, t| b.union(&tri_bounds(t)));
    if end - start <= LEAF_SIZE {
        nodes.push(Node::Leaf {
            bounds,
            start: start as u32,
            count: (end - start) as u32,
        });
        return (nodes.len() - 1) as u32;
    }
    // split on the longest axis of the centroid bounds
    let centroid_bounds = slice
        .iter()
        .fold(Aabb::EMPTY, |b, t| b.include((t[0] + t[1] + t[2]) / 3.0));
    let axis = centroid_bounds.longest_axis();
    let mid = start + (end - start) / 2;
    triangles[start..end].select_nth_unstable_by(mid - start, |a, b| {
        let ca = (a[0] + a[1] + a[2]) / 3.0;
        let cb = (b[0] + b[1] + b[2]) / 3.0;
        ca[axis].total_cmp(&cb[axis])
    });
    let left = build_node(triangles, start, mid, nodes);
    let right = build_node(triangles, mid, end, nodes);
    nodes.push(Node::Internal {
        bounds,
        left,
        right,
    });
    (nodes.len() - 1) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    const FULL: Interval = Interval {
        min: 1e-9,
        max: f64::INFINITY,
    };

    /// A grid of quads in the z=0 plane, n x n cells over [0, n]^2.
    fn quad_grid(n: usize) -> Vec<[Point3; 3]> {
        let mut tris = Vec::new();
        for j in 0..n {
            for i in 0..n {
                let p = |x: usize, y: usize| Point3::new(x as f64, y as f64, 0.0);
                tris.push([p(i, j), p(i + 1, j), p(i + 1, j + 1)]);
                tris.push([p(i, j), p(i + 1, j + 1), p(i, j + 1)]);
            }
        }
        tris
    }

    #[test]
    fn bvh_matches_brute_force() {
        let tris = quad_grid(12); // 288 triangles
        let mesh = TriMesh::build(tris.clone());
        assert!(mesh.nodes.len() > 10);
        for k in 0..300 {
            let a = k as f64 * 0.213;
            let origin = Point3::new(
                6.0 + 8.0 * a.cos(),
                6.0 + 8.0 * (a * 0.8).sin(),
                5.0 + 3.0 * a.sin(),
            );
            let target = Point3::new((k % 13) as f64, (k % 11) as f64, 0.0);
            let ray = Ray::new(origin, (target - origin).normalized());
            let fast = mesh.intersect(&ray, FULL);
            // brute force over the ORIGINAL list
            let mut slow: Option<Hit> = None;
            for t in &tris {
                let upper = slow.as_ref().map_or(f64::INFINITY, |h| h.t);
                if let Some(h) = triangle_hit(t, &ray, Interval::new(1e-9, upper)) {
                    slow = Some(h);
                }
            }
            match (fast, slow) {
                (None, None) => {}
                (Some(f), Some(s)) => {
                    assert!((f.t - s.t).abs() < 1e-9, "ray {k}: {} vs {}", f.t, s.t);
                }
                (f, s) => panic!("ray {k}: bvh {f:?} vs brute {s:?}"),
            }
        }
    }

    #[test]
    fn bounds_cover_all_triangles() {
        let mesh = TriMesh::build(quad_grid(5));
        let b = mesh.bounds();
        for t in mesh.triangles() {
            for p in t {
                assert!(b.contains(*p));
            }
        }
    }

    #[test]
    fn single_triangle_mesh() {
        use now_math::Vec3;
        let mesh = TriMesh::build(vec![[
            Point3::ZERO,
            Point3::new(1.0, 0.0, 0.0),
            Point3::new(0.0, 1.0, 0.0),
        ]]);
        let hit = mesh
            .intersect(&Ray::new(Point3::new(0.2, 0.2, 1.0), -Vec3::UNIT_Z), FULL)
            .unwrap();
        assert!((hit.t - 1.0).abs() < 1e-12);
        assert!(mesh
            .intersect(&Ray::new(Point3::new(0.9, 0.9, 1.0), -Vec3::UNIT_Z), FULL)
            .is_none());
    }

    #[test]
    #[should_panic]
    fn empty_mesh_rejected() {
        let _ = TriMesh::build(vec![]);
    }
}
