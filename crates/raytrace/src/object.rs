//! Scene objects: a geometry, a material and a world transform.

use crate::material::Material;
use crate::shape::{Geometry, Hit};
use now_math::{Aabb, Affine, Interval, Ray};

/// Index of an object within its [`crate::Scene`].
pub type ObjectId = u32;

/// A renderable object: local-space geometry placed in the world by an
/// affine transform.
///
/// Intersection maps the world ray into local space with the cached inverse
/// transform, intersects the geometry there, and maps the hit back out
/// (normals via the inverse-transpose). Because the ray direction is *not*
/// re-normalised when mapped, local `t` equals world `t`, which keeps the
/// recorded ray segments the coherence engine sees consistent.
#[derive(Debug, Clone)]
pub struct Object {
    /// Local-space geometry.
    pub geometry: Geometry,
    /// Surface material.
    pub material: Material,
    /// Optional human-readable name (used by the scene description format
    /// and by animation tracks to address objects).
    pub name: String,
    xf: Affine,
    inv_xf: Affine,
    /// `xf.is_identity()`, cached: it is asked on every intersection test.
    identity: bool,
}

impl Object {
    /// Object at the identity transform.
    pub fn new(geometry: Geometry, material: Material) -> Object {
        Object {
            geometry,
            material,
            name: String::new(),
            xf: Affine::IDENTITY,
            inv_xf: Affine::IDENTITY,
            identity: true,
        }
    }

    /// Builder: set the name.
    pub fn named(mut self, name: &str) -> Object {
        self.name = name.to_string();
        self
    }

    /// Builder: set the transform (panics if singular).
    pub fn with_transform(mut self, xf: Affine) -> Object {
        self.set_transform(xf);
        self
    }

    /// Replace the transform (panics if singular).
    pub fn set_transform(&mut self, xf: Affine) {
        self.inv_xf = xf.inverse().expect("object transform must be invertible");
        self.identity = xf.is_identity();
        self.xf = xf;
    }

    /// Current world transform.
    #[inline]
    pub fn transform(&self) -> &Affine {
        &self.xf
    }

    /// World-space bounds, or `None` for unbounded geometry.
    pub fn world_aabb(&self) -> Option<Aabb> {
        self.geometry.local_aabb().map(|b| self.xf.aabb(&b))
    }

    /// Closest world-space intersection inside `range`.
    pub fn intersect(&self, ray: &Ray, range: Interval) -> Option<Hit> {
        if self.identity {
            return self.geometry.intersect(ray, range);
        }
        let local_ray = self.inv_xf.ray(ray);
        let local_hit = self.geometry.intersect(&local_ray, range)?;
        Some(Hit {
            t: local_hit.t,
            point: ray.at(local_hit.t),
            normal: self.xf.normal(local_hit.normal),
        })
    }

    /// Any-hit predicate for shadow rays.
    #[inline]
    pub fn intersects(&self, ray: &Ray, range: Interval) -> bool {
        if self.identity {
            return self.geometry.intersects(ray, range);
        }
        self.geometry.intersects(&self.inv_xf.ray(ray), range)
    }

    /// The local-space point corresponding to a world-space point; textures
    /// are evaluated here so patterns ride along with moving objects.
    #[inline]
    pub fn to_local(&self, world: now_math::Point3) -> now_math::Point3 {
        self.inv_xf.point(world)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use now_math::{deg_to_rad, Color, Point3, Vec3};

    const FULL: Interval = Interval {
        min: 1e-9,
        max: f64::INFINITY,
    };

    fn unit_sphere() -> Object {
        Object::new(
            Geometry::Sphere {
                center: Point3::ZERO,
                radius: 1.0,
            },
            Material::matte(Color::WHITE),
        )
    }

    #[test]
    fn identity_transform_passthrough() {
        let o = unit_sphere();
        let h = o
            .intersect(&Ray::new(Point3::new(0.0, 0.0, 5.0), -Vec3::UNIT_Z), FULL)
            .unwrap();
        assert!((h.t - 4.0).abs() < 1e-12);
    }

    #[test]
    fn translated_sphere_moves_hit() {
        let o = unit_sphere().with_transform(Affine::translate(Vec3::new(3.0, 0.0, 0.0)));
        let r = Ray::new(Point3::new(3.0, 0.0, 5.0), -Vec3::UNIT_Z);
        let h = o.intersect(&r, FULL).unwrap();
        assert!((h.t - 4.0).abs() < 1e-12);
        assert!(h.point.approx_eq(Point3::new(3.0, 0.0, 1.0), 1e-12));
        assert!(h.normal.approx_eq(Vec3::UNIT_Z, 1e-12));
        // original position no longer hit
        assert!(o
            .intersect(&Ray::new(Point3::new(0.0, 0.0, 5.0), -Vec3::UNIT_Z), FULL)
            .is_none());
    }

    #[test]
    fn rotated_cylinder_lies_down() {
        // cylinder along +y rotated 90 deg about z now lies along x
        let c = Object::new(
            Geometry::Cylinder {
                radius: 0.5,
                y0: -1.0,
                y1: 1.0,
                capped: true,
            },
            Material::default(),
        )
        .with_transform(Affine::rotate_z(deg_to_rad(90.0)));
        // ray along -z at x=0.9 (inside the rotated extent) hits
        let h = c.intersect(&Ray::new(Point3::new(0.9, 0.0, 5.0), -Vec3::UNIT_Z), FULL);
        assert!(h.is_some());
        // beyond the end cap at |x| > 1: miss
        assert!(c
            .intersect(&Ray::new(Point3::new(1.4, 0.0, 5.0), -Vec3::UNIT_Z), FULL)
            .is_none());
    }

    #[test]
    fn scaled_sphere_becomes_ellipsoid_with_correct_normals() {
        let o = unit_sphere().with_transform(Affine::scale(Vec3::new(2.0, 1.0, 1.0)));
        // hits at x = +/-2 now
        let h = o
            .intersect(&Ray::new(Point3::new(5.0, 0.0, 0.0), -Vec3::UNIT_X), FULL)
            .unwrap();
        assert!((h.t - 3.0).abs() < 1e-9);
        assert!(h.normal.approx_eq(Vec3::UNIT_X, 1e-9));
        assert!((h.normal.length() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn world_aabb_follows_transform() {
        let o = unit_sphere().with_transform(Affine::translate(Vec3::new(10.0, 0.0, 0.0)));
        let b = o.world_aabb().unwrap();
        assert!(b.contains(Point3::new(10.0, 0.0, 0.0)));
        assert!(!b.contains(Point3::ZERO));
        let plane = Object::new(
            Geometry::Plane {
                point: Point3::ZERO,
                normal: Vec3::UNIT_Y,
            },
            Material::default(),
        );
        assert!(plane.world_aabb().is_none());
    }

    #[test]
    fn world_t_equals_local_t() {
        // even under scaling, reported t is in world units because the ray
        // direction is not re-normalised in local space
        let o = unit_sphere().with_transform(Affine::scale_uniform(3.0));
        let r = Ray::new(Point3::new(0.0, 0.0, 10.0), -Vec3::UNIT_Z);
        let h = o.intersect(&r, FULL).unwrap();
        assert!(r.at(h.t).approx_eq(h.point, 1e-9));
        assert!((h.t - 7.0).abs() < 1e-9);
    }

    #[test]
    fn to_local_inverts_transform() {
        let xf = Affine::rotate_y(0.3).then(&Affine::translate(Vec3::new(1.0, 2.0, 3.0)));
        let o = unit_sphere().with_transform(xf);
        let p = Point3::new(0.1, 0.2, 0.3);
        assert!(o.to_local(xf.point(p)).approx_eq(p, 1e-12));
    }
}
