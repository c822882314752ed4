//! Linear RGB radiance values.

use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, MulAssign};

/// A linear-light RGB triple.
///
/// Components are unbounded radiance values during shading; [`Color::to_u8`]
/// clamps and quantises to the 24-bit display values written into Targa
/// files (the paper renders "240x320 resolution in targa format with 24-bit
/// color").
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Color {
    /// Red component.
    pub r: f64,
    /// Green component.
    pub g: f64,
    /// Blue component.
    pub b: f64,
}

impl Color {
    /// Black (zero radiance).
    pub const BLACK: Color = Color {
        r: 0.0,
        g: 0.0,
        b: 0.0,
    };
    /// Reference white.
    pub const WHITE: Color = Color {
        r: 1.0,
        g: 1.0,
        b: 1.0,
    };

    /// Construct from components.
    #[inline]
    pub const fn new(r: f64, g: f64, b: f64) -> Color {
        Color { r, g, b }
    }

    /// Gray level `v` in all channels.
    #[inline]
    pub const fn gray(v: f64) -> Color {
        Color { r: v, g: v, b: v }
    }

    /// Construct from 8-bit display values.
    #[inline]
    pub fn from_u8(r: u8, g: u8, b: u8) -> Color {
        Color::new(r as f64 / 255.0, g as f64 / 255.0, b as f64 / 255.0)
    }

    /// Component-wise product (filtering light through a surface color).
    #[inline]
    pub fn modulate(self, o: Color) -> Color {
        Color::new(self.r * o.r, self.g * o.g, self.b * o.b)
    }

    /// Clamp each channel into `[0, 1]`.
    #[inline]
    fn clamped(self) -> Color {
        Color::new(
            crate::clamp(self.r, 0.0, 1.0),
            crate::clamp(self.g, 0.0, 1.0),
            crate::clamp(self.b, 0.0, 1.0),
        )
    }

    /// Quantise to 8-bit display values (clamping first).
    ///
    /// Uses round-half-up on the 0..255 scale so that the quantisation is a
    /// pure function of the radiance value — the coherence correctness tests
    /// compare images byte-for-byte.
    #[inline]
    pub fn to_u8(self) -> (u8, u8, u8) {
        let c = self.clamped();
        (
            (c.r * 255.0 + 0.5) as u8,
            (c.g * 255.0 + 0.5) as u8,
            (c.b * 255.0 + 0.5) as u8,
        )
    }

    /// Rec.601 luminance, used for difference maps.
    #[inline]
    pub fn luminance(self) -> f64 {
        0.299 * self.r + 0.587 * self.g + 0.114 * self.b
    }

    /// Maximum absolute per-channel difference.
    #[inline]
    pub fn max_diff(self, o: Color) -> f64 {
        (self.r - o.r)
            .abs()
            .max((self.g - o.g).abs())
            .max((self.b - o.b).abs())
    }

    /// Linear interpolation between colors.
    #[inline]
    pub fn lerp(self, o: Color, t: f64) -> Color {
        self + (o + self * -1.0) * t
    }

    /// True if all channels are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.r.is_finite() && self.g.is_finite() && self.b.is_finite()
    }
}

impl Add for Color {
    type Output = Color;
    #[inline]
    fn add(self, o: Color) -> Color {
        Color::new(self.r + o.r, self.g + o.g, self.b + o.b)
    }
}

impl AddAssign for Color {
    #[inline]
    fn add_assign(&mut self, o: Color) {
        *self = *self + o;
    }
}

impl Mul<f64> for Color {
    type Output = Color;
    #[inline]
    fn mul(self, s: f64) -> Color {
        Color::new(self.r * s, self.g * s, self.b * s)
    }
}

impl Mul<Color> for f64 {
    type Output = Color;
    #[inline]
    fn mul(self, c: Color) -> Color {
        c * self
    }
}

impl MulAssign<f64> for Color {
    #[inline]
    fn mul_assign(&mut self, s: f64) {
        *self = *self * s;
    }
}

impl Sum for Color {
    fn sum<I: Iterator<Item = Color>>(iter: I) -> Color {
        iter.fold(Color::BLACK, |a, c| a + c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let a = Color::new(0.1, 0.2, 0.3);
        let b = Color::new(0.4, 0.5, 0.6);
        let s = a + b;
        assert!((s.r - 0.5).abs() < 1e-12);
        assert_eq!(a * 2.0, Color::new(0.2, 0.4, 0.6));
        assert_eq!(2.0 * a, a * 2.0);
        assert!(a.modulate(b).max_diff(Color::new(0.04, 0.1, 0.18)) < 1e-12);
    }

    #[test]
    fn clamp_and_quantize() {
        let c = Color::new(-0.5, 0.5, 2.0);
        assert_eq!(c.clamped(), Color::new(0.0, 0.5, 1.0));
        let (r, g, b) = c.to_u8();
        assert_eq!(r, 0);
        assert_eq!(g, 128); // 0.5*255+0.5 = 128.0
        assert_eq!(b, 255);
    }

    #[test]
    fn quantize_roundtrip_is_stable() {
        // quantising a color produced from u8 must return the same bytes
        for v in [0u8, 1, 17, 127, 128, 200, 254, 255] {
            let c = Color::from_u8(v, v, v);
            assert_eq!(c.to_u8(), (v, v, v));
        }
    }

    #[test]
    fn luminance_weights_sum_to_one() {
        assert!((Color::WHITE.luminance() - 1.0).abs() < 1e-12);
        assert_eq!(Color::BLACK.luminance(), 0.0);
    }

    #[test]
    fn max_diff_symmetric() {
        let a = Color::new(0.0, 0.5, 1.0);
        let b = Color::new(0.25, 0.5, 0.2);
        assert!((a.max_diff(b) - 0.8).abs() < 1e-12);
        assert_eq!(a.max_diff(b), b.max_diff(a));
        assert_eq!(a.max_diff(a), 0.0);
    }

    #[test]
    fn sum_of_colors() {
        let total: Color = [Color::gray(0.25); 4].into_iter().sum();
        assert!(total.max_diff(Color::WHITE) < 1e-12);
    }

    #[test]
    fn finiteness() {
        assert!(Color::WHITE.is_finite());
        assert!(!Color::new(f64::NAN, 0.0, 0.0).is_finite());
    }
}
