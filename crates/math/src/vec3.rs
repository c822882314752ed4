//! 3-component vector used for points, directions and normals.

use std::fmt;
use std::ops::{
    Add, AddAssign, Div, DivAssign, Index, IndexMut, Mul, MulAssign, Neg, Sub, SubAssign,
};

/// Coordinate axis selector, used by the grid DDA and AABB code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Axis {
    /// The x axis (index 0).
    X,
    /// The y axis (index 1).
    Y,
    /// The z axis (index 2).
    Z,
}

impl Axis {
    /// All three axes in index order.
    pub const ALL: [Axis; 3] = [Axis::X, Axis::Y, Axis::Z];

    /// Numeric index of the axis (`X = 0`, `Y = 1`, `Z = 2`).
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Axis::X => 0,
            Axis::Y => 1,
            Axis::Z => 2,
        }
    }
}

/// A 3-component `f64` vector.
///
/// The same type is used for positions ([`Point3`] is an alias), directions
/// and surface normals — the distinction matters only for transforms, which
/// offer separate point/vector/normal methods.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    /// x component.
    pub x: f64,
    /// y component.
    pub y: f64,
    /// z component.
    pub z: f64,
}

/// Alias emphasising positional semantics.
pub type Point3 = Vec3;

impl Vec3 {
    /// The zero vector.
    pub const ZERO: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };
    /// All-ones vector.
    pub const ONE: Vec3 = Vec3 {
        x: 1.0,
        y: 1.0,
        z: 1.0,
    };
    /// Unit x.
    pub const UNIT_X: Vec3 = Vec3 {
        x: 1.0,
        y: 0.0,
        z: 0.0,
    };
    /// Unit y.
    pub const UNIT_Y: Vec3 = Vec3 {
        x: 0.0,
        y: 1.0,
        z: 0.0,
    };
    /// Unit z.
    pub const UNIT_Z: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 1.0,
    };

    /// Construct from components.
    #[inline]
    pub const fn new(x: f64, y: f64, z: f64) -> Vec3 {
        Vec3 { x, y, z }
    }

    /// Vector with all components equal to `v`.
    #[inline]
    pub const fn splat(v: f64) -> Vec3 {
        Vec3 { x: v, y: v, z: v }
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, o: Vec3) -> f64 {
        self.x * o.x + self.y * o.y + self.z * o.z
    }

    /// Cross product (right-handed).
    #[inline]
    pub fn cross(self, o: Vec3) -> Vec3 {
        Vec3::new(
            self.y * o.z - self.z * o.y,
            self.z * o.x - self.x * o.z,
            self.x * o.y - self.y * o.x,
        )
    }

    /// Squared Euclidean length.
    #[inline]
    pub fn length_squared(self) -> f64 {
        self.dot(self)
    }

    /// Euclidean length.
    #[inline]
    pub fn length(self) -> f64 {
        self.length_squared().sqrt()
    }

    /// Unit vector in the same direction. Panics in debug builds if the
    /// vector is (near) zero.
    #[inline]
    pub fn normalized(self) -> Vec3 {
        let len = self.length();
        debug_assert!(len > 0.0, "normalizing zero-length vector");
        self / len
    }

    /// Unit vector, or `None` if the length is below `tol`.
    #[inline]
    pub fn try_normalized(self, tol: f64) -> Option<Vec3> {
        let len = self.length();
        if len <= tol {
            None
        } else {
            Some(self / len)
        }
    }

    /// Distance to another point.
    #[inline]
    pub fn distance(self, o: Vec3) -> f64 {
        (self - o).length()
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x.min(o.x), self.y.min(o.y), self.z.min(o.z))
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x.max(o.x), self.y.max(o.y), self.z.max(o.z))
    }

    /// Smallest component value.
    #[inline]
    pub fn min_component(self) -> f64 {
        self.x.min(self.y).min(self.z)
    }

    /// Largest component value.
    #[inline]
    pub fn max_component(self) -> f64 {
        self.x.max(self.y).max(self.z)
    }

    /// Component-wise product (Hadamard).
    #[inline]
    pub fn hadamard(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x * o.x, self.y * o.y, self.z * o.z)
    }

    /// Component-wise absolute value.
    #[inline]
    pub fn abs(self) -> Vec3 {
        Vec3::new(self.x.abs(), self.y.abs(), self.z.abs())
    }

    /// Component access by axis.
    #[inline]
    pub fn axis(self, a: Axis) -> f64 {
        match a {
            Axis::X => self.x,
            Axis::Y => self.y,
            Axis::Z => self.z,
        }
    }

    /// Linear interpolation between `self` and `o`.
    #[inline]
    pub fn lerp(self, o: Vec3, t: f64) -> Vec3 {
        self + (o - self) * t
    }

    /// Mirror reflection of an *incoming* direction about normal `n`
    /// (`n` must be unit length; `self` points toward the surface).
    ///
    /// This is the standard Whitted reflected-ray direction:
    /// `r = d - 2 (d·n) n`.
    #[inline]
    pub fn reflect(self, n: Vec3) -> Vec3 {
        self - n * (2.0 * self.dot(n))
    }

    /// Refraction of a unit incoming direction `self` through a surface with
    /// unit normal `n`, with `eta = n_incident / n_transmitted`.
    ///
    /// Returns `None` on total internal reflection. Both `self` and `n` must
    /// be unit length and `n` must point against `self` (i.e. toward the
    /// incident side).
    #[inline]
    pub fn refract(self, n: Vec3, eta: f64) -> Option<Vec3> {
        let cos_i = (-self).dot(n);
        let sin2_t = eta * eta * (1.0 - cos_i * cos_i);
        if sin2_t > 1.0 {
            return None; // total internal reflection
        }
        let cos_t = (1.0 - sin2_t).sqrt();
        Some(self * eta + n * (eta * cos_i - cos_t))
    }

    /// True if all components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }

    /// True if every component differs from `o` by at most `tol`.
    #[inline]
    pub fn approx_eq(self, o: Vec3, tol: f64) -> bool {
        (self.x - o.x).abs() <= tol && (self.y - o.y).abs() <= tol && (self.z - o.z).abs() <= tol
    }
}

impl fmt::Display for Vec3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {})", self.x, self.y, self.z)
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    #[inline]
    fn add(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x + o.x, self.y + o.y, self.z + o.z)
    }
}

impl AddAssign for Vec3 {
    #[inline]
    fn add_assign(&mut self, o: Vec3) {
        *self = *self + o;
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    #[inline]
    fn sub(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x - o.x, self.y - o.y, self.z - o.z)
    }
}

impl SubAssign for Vec3 {
    #[inline]
    fn sub_assign(&mut self, o: Vec3) {
        *self = *self - o;
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    #[inline]
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, s: f64) -> Vec3 {
        Vec3::new(self.x * s, self.y * s, self.z * s)
    }
}

impl Mul<Vec3> for f64 {
    type Output = Vec3;
    #[inline]
    fn mul(self, v: Vec3) -> Vec3 {
        v * self
    }
}

impl MulAssign<f64> for Vec3 {
    #[inline]
    fn mul_assign(&mut self, s: f64) {
        *self = *self * s;
    }
}

impl Div<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn div(self, s: f64) -> Vec3 {
        Vec3::new(self.x / s, self.y / s, self.z / s)
    }
}

impl DivAssign<f64> for Vec3 {
    #[inline]
    fn div_assign(&mut self, s: f64) {
        *self = *self / s;
    }
}

impl Index<Axis> for Vec3 {
    type Output = f64;
    #[inline]
    fn index(&self, a: Axis) -> &f64 {
        match a {
            Axis::X => &self.x,
            Axis::Y => &self.y,
            Axis::Z => &self.z,
        }
    }
}

impl IndexMut<Axis> for Vec3 {
    #[inline]
    fn index_mut(&mut self, a: Axis) -> &mut f64 {
        match a {
            Axis::X => &mut self.x,
            Axis::Y => &mut self.y,
            Axis::Z => &mut self.z,
        }
    }
}

impl Index<usize> for Vec3 {
    type Output = f64;
    #[inline]
    fn index(&self, i: usize) -> &f64 {
        match i {
            0 => &self.x,
            1 => &self.y,
            2 => &self.z,
            _ => panic!("Vec3 index out of range: {i}"),
        }
    }
}

impl IndexMut<usize> for Vec3 {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        match i {
            0 => &mut self.x,
            1 => &mut self.y,
            2 => &mut self.z,
            _ => panic!("Vec3 index out of range: {i}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_algebra() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(4.0, -5.0, 6.0);
        assert_eq!(a + b, Vec3::new(5.0, -3.0, 9.0));
        assert_eq!(a - b, Vec3::new(-3.0, 7.0, -3.0));
        assert_eq!(-a, Vec3::new(-1.0, -2.0, -3.0));
        assert_eq!(a * 2.0, Vec3::new(2.0, 4.0, 6.0));
        assert_eq!(2.0 * a, a * 2.0);
        assert_eq!(a / 2.0, Vec3::new(0.5, 1.0, 1.5));
    }

    #[test]
    fn compound_assignment() {
        let mut v = Vec3::new(1.0, 1.0, 1.0);
        v += Vec3::UNIT_X;
        v -= Vec3::UNIT_Y;
        v *= 3.0;
        v /= 2.0;
        assert!(v.approx_eq(Vec3::new(3.0, 0.0, 1.5), 1e-12));
    }

    #[test]
    fn dot_and_cross() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(4.0, -5.0, 6.0);
        assert_eq!(a.dot(b), 4.0 - 10.0 + 18.0);
        assert_eq!(Vec3::UNIT_X.cross(Vec3::UNIT_Y), Vec3::UNIT_Z);
        assert_eq!(Vec3::UNIT_Y.cross(Vec3::UNIT_Z), Vec3::UNIT_X);
        // cross product is orthogonal to both operands
        let c = a.cross(b);
        assert!(c.dot(a).abs() < 1e-12);
        assert!(c.dot(b).abs() < 1e-12);
    }

    #[test]
    fn length_and_normalization() {
        let v = Vec3::new(3.0, 4.0, 0.0);
        assert_eq!(v.length_squared(), 25.0);
        assert_eq!(v.length(), 5.0);
        let n = v.normalized();
        assert!((n.length() - 1.0).abs() < 1e-12);
        assert!(Vec3::ZERO.try_normalized(1e-12).is_none());
    }

    #[test]
    fn component_wise_helpers() {
        let a = Vec3::new(1.0, 5.0, -2.0);
        let b = Vec3::new(3.0, 2.0, 0.0);
        assert_eq!(a.min(b), Vec3::new(1.0, 2.0, -2.0));
        assert_eq!(a.max(b), Vec3::new(3.0, 5.0, 0.0));
        assert_eq!(a.min_component(), -2.0);
        assert_eq!(a.max_component(), 5.0);
        assert_eq!(a.hadamard(b), Vec3::new(3.0, 10.0, 0.0));
        assert_eq!(a.abs(), Vec3::new(1.0, 5.0, 2.0));
    }

    #[test]
    fn axis_indexing() {
        let v = Vec3::new(7.0, 8.0, 9.0);
        assert_eq!(v[Axis::X], 7.0);
        assert_eq!(v[Axis::Y], 8.0);
        assert_eq!(v[Axis::Z], 9.0);
        assert_eq!(v[0], 7.0);
        assert_eq!(v[2], 9.0);
        assert_eq!(v.axis(Axis::Y), 8.0);
        let mut w = v;
        w[Axis::Z] = 1.0;
        w[0] = 2.0;
        assert_eq!(w, Vec3::new(2.0, 8.0, 1.0));
        for (i, a) in Axis::ALL.iter().enumerate() {
            assert_eq!(a.index(), i);
        }
    }

    #[test]
    fn reflect_mirrors_about_normal() {
        // 45-degree incoming ray on a floor pointing up
        let d = Vec3::new(1.0, -1.0, 0.0).normalized();
        let r = d.reflect(Vec3::UNIT_Y);
        assert!(r.approx_eq(Vec3::new(1.0, 1.0, 0.0).normalized(), 1e-12));
        // reflection preserves length
        assert!((r.length() - 1.0).abs() < 1e-12);
        // grazing: reflecting twice returns the original
        let rr = r.reflect(Vec3::UNIT_Y);
        assert!(rr.approx_eq(d, 1e-12));
    }

    #[test]
    fn refract_straight_through_at_normal_incidence() {
        let d = -Vec3::UNIT_Y;
        let t = d.refract(Vec3::UNIT_Y, 1.0 / 1.5).unwrap();
        assert!(t.approx_eq(d, 1e-12));
    }

    #[test]
    fn refract_obeys_snell() {
        // incidence 45 degrees, eta = 1/1.5
        let d = Vec3::new(1.0, -1.0, 0.0).normalized();
        let n = Vec3::UNIT_Y;
        let eta = 1.0 / 1.5;
        let t = d.refract(n, eta).unwrap();
        let sin_i = d.cross(n).length();
        let sin_t = t.cross(n).length();
        assert!((sin_t - eta * sin_i).abs() < 1e-12);
        assert!((t.length() - 1.0).abs() < 1e-12);
        // transmitted ray continues into the surface
        assert!(t.y < 0.0);
    }

    #[test]
    fn refract_total_internal_reflection() {
        // from dense to sparse at a steep angle: eta = 1.5, incidence 60 deg
        let d = Vec3::new(3f64.sqrt(), -1.0, 0.0).normalized(); // sin = ~0.866
        assert!(d.refract(Vec3::UNIT_Y, 1.5).is_none());
    }

    #[test]
    fn lerp_midpoint() {
        let a = Vec3::ZERO;
        let b = Vec3::new(2.0, 4.0, 6.0);
        assert_eq!(a.lerp(b, 0.5), Vec3::new(1.0, 2.0, 3.0));
    }

    #[test]
    fn finiteness() {
        assert!(Vec3::ONE.is_finite());
        assert!(!Vec3::new(f64::NAN, 0.0, 0.0).is_finite());
        assert!(!Vec3::new(0.0, f64::INFINITY, 0.0).is_finite());
    }
}
