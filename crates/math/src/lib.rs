#![warn(missing_docs)]

//! # now-math
//!
//! Small, dependency-free geometry and color math library underpinning the
//! `nowrender` ray tracer. It provides exactly the primitives a Whitted-style
//! renderer and a uniform-grid spatial index need:
//!
//! * [`Vec3`] — 3-component `f64` vector used for points, directions and
//!   normals (with the usual algebra plus [`Vec3::reflect`] /
//!   [`Vec3::refract`] for specular transport),
//! * [`Ray`] — parametric ray with a validity interval,
//! * [`Aabb`] — axis-aligned bounding box with slab intersection,
//! * [`Affine`] — affine transform (3x3 linear part + translation) with exact
//!   inverses for the rigid/scale transforms animation needs,
//! * [`Color`] — linear RGB radiance with conversion to 8-bit display values,
//! * [`Onb`] — orthonormal basis (camera frames),
//! * [`Interval`] — closed scalar interval used for ray `t` ranges,
//! * [`crc32`] — the shared CRC-32 used by the PNG encoder and the render
//!   farm's run journal.
//!
//! All math is `f64`: the coherence engine compares voxel walks between
//! frames, and `f32` drift across a 45-frame animation can produce spurious
//! voxel-set differences.

pub mod aabb;
pub mod color;
pub mod crc;
pub mod interval;
pub mod onb;
pub mod poly;
pub mod ray;
pub mod transform;
pub mod vec3;

pub use aabb::Aabb;
pub use color::Color;
pub use crc::crc32;
pub use interval::Interval;
pub use onb::Onb;
pub use ray::Ray;
pub use transform::Affine;
pub use vec3::{Axis, Point3, Vec3};

/// Geometric epsilon used to guard near-parallel intersections and division
/// by tiny determinants.
pub const EPSILON: f64 = 1e-9;

/// Epsilon for self-intersection avoidance ("shadow acne"); larger than
/// [`EPSILON`] because it must dominate accumulated intersection error.
pub const RAY_BIAS: f64 = 1e-6;

/// Convert degrees to radians.
#[inline]
pub fn deg_to_rad(deg: f64) -> f64 {
    deg * std::f64::consts::PI / 180.0
}

/// Linear interpolation: `a` at `t == 0`, `b` at `t == 1`.
#[inline]
pub fn lerp(a: f64, b: f64, t: f64) -> f64 {
    a + (b - a) * t
}

/// Clamp `x` into `[lo, hi]`.
#[inline]
pub fn clamp(x: f64, lo: f64, hi: f64) -> f64 {
    if x < lo {
        lo
    } else if x > hi {
        hi
    } else {
        x
    }
}

/// Approximate equality with absolute tolerance, used pervasively in tests.
#[inline]
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deg_to_rad_quarter_turn() {
        assert!(approx_eq(
            deg_to_rad(90.0),
            std::f64::consts::FRAC_PI_2,
            1e-12
        ));
    }

    #[test]
    fn deg_to_rad_zero_and_full() {
        assert_eq!(deg_to_rad(0.0), 0.0);
        assert!(approx_eq(deg_to_rad(360.0), std::f64::consts::TAU, 1e-12));
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        assert_eq!(lerp(2.0, 6.0, 0.0), 2.0);
        assert_eq!(lerp(2.0, 6.0, 1.0), 6.0);
        assert_eq!(lerp(2.0, 6.0, 0.5), 4.0);
    }

    #[test]
    fn clamp_below_inside_above() {
        assert_eq!(clamp(-1.0, 0.0, 1.0), 0.0);
        assert_eq!(clamp(0.5, 0.0, 1.0), 0.5);
        assert_eq!(clamp(2.0, 0.0, 1.0), 1.0);
    }
}
