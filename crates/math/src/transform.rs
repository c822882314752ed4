//! Affine transforms (3x3 linear part + translation).
//!
//! Animation tracks produce an [`Affine`] per frame; the renderer applies it
//! to object geometry and the coherence engine applies it to object bounds
//! when computing change voxels.

use crate::{Aabb, Point3, Ray, Vec3};

/// Row-major 3x3 matrix. Internal building block of [`Affine`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mat3 {
    /// Rows of the matrix.
    pub rows: [Vec3; 3],
}

impl Mat3 {
    /// Identity matrix.
    pub const IDENTITY: Mat3 = Mat3 {
        rows: [Vec3::UNIT_X, Vec3::UNIT_Y, Vec3::UNIT_Z],
    };

    /// Matrix from three rows.
    #[inline]
    pub const fn from_rows(r0: Vec3, r1: Vec3, r2: Vec3) -> Mat3 {
        Mat3 { rows: [r0, r1, r2] }
    }

    /// Diagonal (scale) matrix.
    #[inline]
    fn diagonal(d: Vec3) -> Mat3 {
        Mat3::from_rows(
            Vec3::new(d.x, 0.0, 0.0),
            Vec3::new(0.0, d.y, 0.0),
            Vec3::new(0.0, 0.0, d.z),
        )
    }

    /// Matrix-vector product.
    #[inline]
    fn mul_vec(&self, v: Vec3) -> Vec3 {
        Vec3::new(
            self.rows[0].dot(v),
            self.rows[1].dot(v),
            self.rows[2].dot(v),
        )
    }

    /// Matrix-matrix product.
    fn mul_mat(&self, o: &Mat3) -> Mat3 {
        let c0 = Vec3::new(o.rows[0].x, o.rows[1].x, o.rows[2].x);
        let c1 = Vec3::new(o.rows[0].y, o.rows[1].y, o.rows[2].y);
        let c2 = Vec3::new(o.rows[0].z, o.rows[1].z, o.rows[2].z);
        Mat3::from_rows(
            Vec3::new(
                self.rows[0].dot(c0),
                self.rows[0].dot(c1),
                self.rows[0].dot(c2),
            ),
            Vec3::new(
                self.rows[1].dot(c0),
                self.rows[1].dot(c1),
                self.rows[1].dot(c2),
            ),
            Vec3::new(
                self.rows[2].dot(c0),
                self.rows[2].dot(c1),
                self.rows[2].dot(c2),
            ),
        )
    }

    /// Transpose.
    #[inline]
    pub fn transpose(&self) -> Mat3 {
        Mat3::from_rows(
            Vec3::new(self.rows[0].x, self.rows[1].x, self.rows[2].x),
            Vec3::new(self.rows[0].y, self.rows[1].y, self.rows[2].y),
            Vec3::new(self.rows[0].z, self.rows[1].z, self.rows[2].z),
        )
    }

    /// Determinant.
    #[inline]
    fn determinant(&self) -> f64 {
        self.rows[0].dot(self.rows[1].cross(self.rows[2]))
    }

    /// Inverse, or `None` if singular (|det| below `1e-12`).
    pub fn inverse(&self) -> Option<Mat3> {
        let det = self.determinant();
        if det.abs() < 1e-12 {
            return None;
        }
        let inv_det = 1.0 / det;
        let [r0, r1, r2] = self.rows;
        // adjugate columns are cross products of rows
        let c0 = r1.cross(r2) * inv_det;
        let c1 = r2.cross(r0) * inv_det;
        let c2 = r0.cross(r1) * inv_det;
        // those are the *columns* of the inverse; build rows by transposing
        Some(Mat3::from_rows(
            Vec3::new(c0.x, c1.x, c2.x),
            Vec3::new(c0.y, c1.y, c2.y),
            Vec3::new(c0.z, c1.z, c2.z),
        ))
    }
}

/// An affine transform `p -> M p + t`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Affine {
    /// Linear part.
    pub linear: Mat3,
    /// Translation part.
    pub translation: Vec3,
}

impl Default for Affine {
    fn default() -> Affine {
        Affine::IDENTITY
    }
}

impl Affine {
    /// The identity transform.
    pub const IDENTITY: Affine = Affine {
        linear: Mat3::IDENTITY,
        translation: Vec3::ZERO,
    };

    /// Pure translation.
    #[inline]
    pub fn translate(t: Vec3) -> Affine {
        Affine {
            linear: Mat3::IDENTITY,
            translation: t,
        }
    }

    /// Non-uniform scale about the origin.
    #[inline]
    pub fn scale(s: Vec3) -> Affine {
        Affine {
            linear: Mat3::diagonal(s),
            translation: Vec3::ZERO,
        }
    }

    /// Uniform scale about the origin.
    #[inline]
    pub fn scale_uniform(s: f64) -> Affine {
        Affine::scale(Vec3::splat(s))
    }

    /// Rotation about the y axis by `angle` radians.
    pub fn rotate_y(angle: f64) -> Affine {
        let (s, c) = angle.sin_cos();
        Affine {
            linear: Mat3::from_rows(
                Vec3::new(c, 0.0, s),
                Vec3::new(0.0, 1.0, 0.0),
                Vec3::new(-s, 0.0, c),
            ),
            translation: Vec3::ZERO,
        }
    }

    /// Rotation about the z axis by `angle` radians.
    pub fn rotate_z(angle: f64) -> Affine {
        let (s, c) = angle.sin_cos();
        Affine {
            linear: Mat3::from_rows(
                Vec3::new(c, -s, 0.0),
                Vec3::new(s, c, 0.0),
                Vec3::new(0.0, 0.0, 1.0),
            ),
            translation: Vec3::ZERO,
        }
    }

    /// Rotation of `angle` radians about a unit `axis` through the origin
    /// (Rodrigues' formula).
    pub fn rotate_axis(axis: Vec3, angle: f64) -> Affine {
        let a = axis.normalized();
        let (s, c) = angle.sin_cos();
        let t = 1.0 - c;
        Affine {
            linear: Mat3::from_rows(
                Vec3::new(
                    t * a.x * a.x + c,
                    t * a.x * a.y - s * a.z,
                    t * a.x * a.z + s * a.y,
                ),
                Vec3::new(
                    t * a.x * a.y + s * a.z,
                    t * a.y * a.y + c,
                    t * a.y * a.z - s * a.x,
                ),
                Vec3::new(
                    t * a.x * a.z - s * a.y,
                    t * a.y * a.z + s * a.x,
                    t * a.z * a.z + c,
                ),
            ),
            translation: Vec3::ZERO,
        }
    }

    /// Rotation about an arbitrary pivot point.
    pub fn rotate_about(pivot: Point3, axis: Vec3, angle: f64) -> Affine {
        Affine::translate(-pivot)
            .then(&Affine::rotate_axis(axis, angle))
            .then(&Affine::translate(pivot))
    }

    /// Compose: apply `self` first, then `next` (`next * self`).
    pub fn then(&self, next: &Affine) -> Affine {
        Affine {
            linear: next.linear.mul_mat(&self.linear),
            translation: next.linear.mul_vec(self.translation) + next.translation,
        }
    }

    /// Transform a point.
    #[inline]
    pub fn point(&self, p: Point3) -> Point3 {
        self.linear.mul_vec(p) + self.translation
    }

    /// Transform a direction (ignores translation).
    #[inline]
    pub fn vector(&self, v: Vec3) -> Vec3 {
        self.linear.mul_vec(v)
    }

    /// Transform a surface normal (inverse-transpose; result is
    /// re-normalised). Panics if the linear part is singular.
    pub fn normal(&self, n: Vec3) -> Vec3 {
        let inv = self
            .linear
            .inverse()
            .expect("normal transform of singular affine");
        inv.transpose().mul_vec(n).normalized()
    }

    /// Transform a ray (direction not re-normalised, so `t` values map
    /// one-to-one between spaces for rigid transforms).
    #[inline]
    pub fn ray(&self, r: &Ray) -> Ray {
        Ray::new(self.point(r.origin), self.vector(r.dir))
    }

    /// Inverse transform, or `None` if the linear part is singular.
    pub fn inverse(&self) -> Option<Affine> {
        let inv = self.linear.inverse()?;
        Some(Affine {
            linear: inv,
            translation: -inv.mul_vec(self.translation),
        })
    }

    /// Axis-aligned bounds of a transformed box (bounds of the 8 transformed
    /// corners — exact for affine maps).
    pub fn aabb(&self, b: &Aabb) -> Aabb {
        if b.is_empty() {
            return Aabb::EMPTY;
        }
        Aabb::from_points(&b.corners().map(|c| self.point(c)))
    }

    /// True if the transform is exactly the identity.
    pub fn is_identity(&self) -> bool {
        *self == Affine::IDENTITY
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deg_to_rad;

    #[test]
    fn identity_fixes_everything() {
        let p = Point3::new(1.0, -2.0, 3.0);
        assert_eq!(Affine::IDENTITY.point(p), p);
        assert_eq!(Affine::IDENTITY.vector(p), p);
        assert!(Affine::IDENTITY.is_identity());
        assert!(Affine::default().is_identity());
    }

    #[test]
    fn translate_moves_points_not_vectors() {
        let t = Affine::translate(Vec3::new(1.0, 2.0, 3.0));
        assert_eq!(t.point(Point3::ZERO), Point3::new(1.0, 2.0, 3.0));
        assert_eq!(t.vector(Vec3::UNIT_X), Vec3::UNIT_X);
    }

    #[test]
    fn scale_scales() {
        let s = Affine::scale(Vec3::new(2.0, 3.0, 4.0));
        assert_eq!(s.point(Point3::ONE), Point3::new(2.0, 3.0, 4.0));
        assert_eq!(
            Affine::scale_uniform(2.0).vector(Vec3::UNIT_Z),
            Vec3::new(0.0, 0.0, 2.0)
        );
    }

    #[test]
    fn rotations_quarter_turns() {
        let p = Point3::UNIT_X;
        assert!(Affine::rotate_z(deg_to_rad(90.0))
            .point(p)
            .approx_eq(Point3::UNIT_Y, 1e-12));
        assert!(Affine::rotate_y(deg_to_rad(90.0))
            .point(Point3::UNIT_Z)
            .approx_eq(Point3::UNIT_X, 1e-12));
        assert!(Affine::rotate_axis(Vec3::UNIT_X, deg_to_rad(90.0))
            .point(Point3::UNIT_Y)
            .approx_eq(Point3::UNIT_Z, 1e-12));
    }

    #[test]
    fn axis_angle_matches_dedicated_rotations() {
        for angle in [0.3, 1.2, -0.7] {
            let a = Affine::rotate_axis(Vec3::UNIT_Z, angle);
            let b = Affine::rotate_z(angle);
            let p = Point3::new(0.3, -1.7, 2.2);
            assert!(a.point(p).approx_eq(b.point(p), 1e-12));
        }
    }

    #[test]
    fn rotate_about_pivot_fixes_pivot() {
        let pivot = Point3::new(2.0, 1.0, 0.0);
        let r = Affine::rotate_about(pivot, Vec3::UNIT_Z, 1.1);
        assert!(r.point(pivot).approx_eq(pivot, 1e-12));
        // a point at distance 1 from the pivot stays at distance 1
        let q = pivot + Vec3::UNIT_X;
        assert!((r.point(q).distance(pivot) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn composition_order() {
        // translate then rotate: origin -> (1,0,0) -> (0,1,0)
        let m = Affine::translate(Vec3::UNIT_X).then(&Affine::rotate_z(deg_to_rad(90.0)));
        assert!(m.point(Point3::ZERO).approx_eq(Point3::UNIT_Y, 1e-12));
        // rotate then translate: origin -> origin -> (1,0,0)
        let m2 = Affine::rotate_z(deg_to_rad(90.0)).then(&Affine::translate(Vec3::UNIT_X));
        assert!(m2.point(Point3::ZERO).approx_eq(Point3::UNIT_X, 1e-12));
    }

    #[test]
    fn inverse_roundtrip() {
        let m = Affine::translate(Vec3::new(1.0, 2.0, 3.0))
            .then(&Affine::rotate_axis(Vec3::new(1.0, 1.0, 0.0), 0.8))
            .then(&Affine::scale(Vec3::new(2.0, 0.5, 1.5)));
        let inv = m.inverse().unwrap();
        let p = Point3::new(-0.4, 0.9, 2.7);
        assert!(inv.point(m.point(p)).approx_eq(p, 1e-10));
        assert!(m.point(inv.point(p)).approx_eq(p, 1e-10));
    }

    #[test]
    fn singular_has_no_inverse() {
        let m = Affine::scale(Vec3::new(1.0, 0.0, 1.0));
        assert!(m.inverse().is_none());
        assert!(m.linear.inverse().is_none());
    }

    #[test]
    fn normals_transform_with_inverse_transpose() {
        // scaling a floor by (2,1,1): the normal stays +y
        let m = Affine::scale(Vec3::new(2.0, 1.0, 1.0));
        assert!(m.normal(Vec3::UNIT_Y).approx_eq(Vec3::UNIT_Y, 1e-12));
        // a 45-degree plane normal under non-uniform scale is NOT the
        // plain-transformed vector
        let n = Vec3::new(1.0, 1.0, 0.0).normalized();
        let tn = m.normal(n);
        assert!((tn.length() - 1.0).abs() < 1e-12);
        // the transformed normal must stay orthogonal to transformed tangents
        let tangent = Vec3::new(1.0, -1.0, 0.0); // orthogonal to n
        assert!(tn.dot(m.vector(tangent)).abs() < 1e-12);
    }

    #[test]
    fn aabb_transform_contains_transformed_corners() {
        let b = Aabb::new(Point3::new(-1.0, -1.0, -1.0), Point3::ONE);
        let m = Affine::rotate_z(0.7).then(&Affine::translate(Vec3::new(3.0, 0.0, 0.0)));
        let tb = m.aabb(&b);
        for c in b.corners() {
            assert!(tb.contains(m.point(c)));
        }
        assert!(m.aabb(&Aabb::EMPTY).is_empty());
    }

    #[test]
    fn ray_transform_preserves_parameterisation() {
        let m = Affine::translate(Vec3::new(0.0, 5.0, 0.0)).then(&Affine::rotate_y(0.3));
        let r = Ray::new(Point3::new(1.0, 2.0, 3.0), Vec3::new(0.1, -0.2, 0.9));
        let tr = m.ray(&r);
        for t in [0.0, 0.5, 2.0] {
            assert!(tr.at(t).approx_eq(m.point(r.at(t)), 1e-12));
        }
    }

    #[test]
    fn mat3_determinant_and_inverse() {
        let m = Mat3::from_rows(
            Vec3::new(2.0, 0.0, 0.0),
            Vec3::new(0.0, 3.0, 0.0),
            Vec3::new(0.0, 0.0, 4.0),
        );
        assert_eq!(m.determinant(), 24.0);
        let inv = m.inverse().unwrap();
        let prod = m.mul_mat(&inv);
        for (i, row) in prod.rows.iter().enumerate() {
            assert!(row.approx_eq(Mat3::IDENTITY.rows[i], 1e-12));
        }
    }
}
