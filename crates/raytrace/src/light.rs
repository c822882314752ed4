//! Light sources: point, spot, and rectangular area lights.
//!
//! Area lights use a fixed deterministic sample grid, so soft shadows keep
//! the pixel-purity property the coherence engine needs (every shadow ray
//! is still reported to the listener individually).

use now_math::{Color, Point3, Vec3};

/// A point light with optional inverse-quadratic distance attenuation.
#[derive(Debug, Clone, PartialEq)]
pub struct PointLight {
    /// Light position.
    pub position: Point3,
    /// Emitted color/intensity.
    pub color: Color,
    /// Attenuation coefficients `(constant, linear, quadratic)`; intensity
    /// at distance `d` is scaled by `1 / (c + l d + q d^2)`.
    pub attenuation: (f64, f64, f64),
}

impl PointLight {
    /// Unattenuated light.
    pub fn new(position: Point3, color: Color) -> PointLight {
        PointLight {
            position,
            color,
            attenuation: (1.0, 0.0, 0.0),
        }
    }

    /// Builder: set attenuation coefficients.
    pub fn with_attenuation(mut self, c: f64, l: f64, q: f64) -> PointLight {
        self.attenuation = (c, l, q);
        self
    }

    /// Intensity arriving at distance `d` (before occlusion).
    #[inline]
    fn intensity_at(&self, d: f64) -> Color {
        let (c, l, q) = self.attenuation;
        self.color * (1.0 / (c + l * d + q * d * d))
    }
}

/// A spotlight: a point light restricted to a cone with smooth falloff.
#[derive(Debug, Clone, PartialEq)]
pub struct SpotLight {
    /// Light position.
    pub position: Point3,
    /// Unit direction the cone points along.
    pub direction: Vec3,
    /// Emitted color/intensity.
    pub color: Color,
    /// Cosine of the inner (full-intensity) half-angle.
    pub cos_inner: f64,
    /// Cosine of the outer (zero-intensity) half-angle.
    pub cos_outer: f64,
    /// Attenuation coefficients as for [`PointLight`].
    pub attenuation: (f64, f64, f64),
}

impl SpotLight {
    /// Spotlight from position toward `target` with half-angles in degrees.
    pub fn new(
        position: Point3,
        target: Point3,
        color: Color,
        inner_deg: f64,
        outer_deg: f64,
    ) -> SpotLight {
        assert!(
            inner_deg <= outer_deg,
            "inner cone must be within the outer"
        );
        SpotLight {
            position,
            direction: (target - position).normalized(),
            color,
            cos_inner: now_math::deg_to_rad(inner_deg).cos(),
            cos_outer: now_math::deg_to_rad(outer_deg).cos(),
            attenuation: (1.0, 0.0, 0.0),
        }
    }

    /// Cone falloff factor toward a shaded point (1 inside the inner cone,
    /// 0 outside the outer cone, smooth in between).
    fn cone_factor(&self, at: Point3) -> f64 {
        let to_point = (at - self.position).try_normalized(1e-12);
        let Some(d) = to_point else { return 1.0 };
        let cos = d.dot(self.direction);
        if cos >= self.cos_inner {
            1.0
        } else if cos <= self.cos_outer {
            0.0
        } else {
            let t = (cos - self.cos_outer) / (self.cos_inner - self.cos_outer);
            t * t * (3.0 - 2.0 * t) // smoothstep
        }
    }
}

/// A rectangular area light sampled on a fixed `samples x samples` grid.
#[derive(Debug, Clone, PartialEq)]
pub struct AreaLight {
    /// One corner of the rectangle.
    pub corner: Point3,
    /// First edge vector.
    pub edge_u: Vec3,
    /// Second edge vector.
    pub edge_v: Vec3,
    /// Total emitted color (split across samples).
    pub color: Color,
    /// Samples per axis (`n x n` shadow rays per shading point).
    pub samples: u32,
}

impl AreaLight {
    /// Construct an area light (panics on zero samples).
    pub fn new(
        corner: Point3,
        edge_u: Vec3,
        edge_v: Vec3,
        color: Color,
        samples: u32,
    ) -> AreaLight {
        assert!(samples > 0);
        AreaLight {
            corner,
            edge_u,
            edge_v,
            color,
            samples,
        }
    }
}

/// One light sample: a position to fire a shadow ray at, and the intensity
/// it contributes if unoccluded (attenuation, cone falloff and sample
/// weighting already applied).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LightSample {
    /// Sample position on/at the light.
    pub position: Point3,
    /// Pre-weighted intensity arriving at the shaded point.
    pub intensity: Color,
}

/// Any light source.
#[derive(Debug, Clone, PartialEq)]
pub enum Light {
    /// Point light.
    Point(PointLight),
    /// Spotlight.
    Spot(SpotLight),
    /// Rectangular area light (soft shadows).
    Area(AreaLight),
}

impl From<PointLight> for Light {
    fn from(l: PointLight) -> Light {
        Light::Point(l)
    }
}
impl From<SpotLight> for Light {
    fn from(l: SpotLight) -> Light {
        Light::Spot(l)
    }
}
impl From<AreaLight> for Light {
    fn from(l: AreaLight) -> Light {
        Light::Area(l)
    }
}

impl Light {
    /// Samples to shade the point `at`: each wants one shadow ray. The
    /// sample set is a pure function of `(light, at)` — deterministic
    /// across frames and machines.
    pub fn samples(&self, at: Point3, out: &mut Vec<LightSample>) {
        out.clear();
        match self {
            Light::Point(l) => {
                let d = l.position.distance(at);
                out.push(LightSample {
                    position: l.position,
                    intensity: l.intensity_at(d),
                });
            }
            Light::Spot(l) => {
                let cone = l.cone_factor(at);
                if cone <= 0.0 {
                    return;
                }
                let d = l.position.distance(at);
                let (c, lin, q) = l.attenuation;
                let atten = 1.0 / (c + lin * d + q * d * d);
                out.push(LightSample {
                    position: l.position,
                    intensity: l.color * (cone * atten),
                });
            }
            Light::Area(l) => {
                let n = l.samples;
                let w = 1.0 / (n as f64 * n as f64);
                for j in 0..n {
                    for i in 0..n {
                        let u = (i as f64 + 0.5) / n as f64;
                        let v = (j as f64 + 0.5) / n as f64;
                        out.push(LightSample {
                            position: l.corner + l.edge_u * u + l.edge_v * v,
                            intensity: l.color * w,
                        });
                    }
                }
            }
        }
    }

    /// A representative position (used for scene bounds).
    pub fn position(&self) -> Point3 {
        match self {
            Light::Point(l) => l.position,
            Light::Spot(l) => l.position,
            Light::Area(l) => l.corner + (l.edge_u + l.edge_v) * 0.5,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unattenuated_light_is_distance_independent() {
        let l = PointLight::new(Point3::ZERO, Color::WHITE);
        assert_eq!(l.intensity_at(1.0), Color::WHITE);
        assert_eq!(l.intensity_at(100.0), Color::WHITE);
    }

    #[test]
    fn quadratic_attenuation_falls_off() {
        let l = PointLight::new(Point3::ZERO, Color::WHITE).with_attenuation(0.0, 0.0, 1.0);
        assert_eq!(l.intensity_at(2.0), Color::gray(0.25));
        assert!(l.intensity_at(3.0).r < l.intensity_at(2.0).r);
    }

    #[test]
    fn point_light_yields_one_sample() {
        let l: Light = PointLight::new(Point3::new(0.0, 5.0, 0.0), Color::WHITE).into();
        let mut s = Vec::new();
        l.samples(Point3::ZERO, &mut s);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].position, Point3::new(0.0, 5.0, 0.0));
        assert_eq!(s[0].intensity, Color::WHITE);
    }

    #[test]
    fn spot_cone_factor_regions() {
        let l = SpotLight::new(
            Point3::new(0.0, 5.0, 0.0),
            Point3::ZERO,
            Color::WHITE,
            10.0,
            30.0,
        );
        // straight below: inside inner cone
        assert_eq!(l.cone_factor(Point3::ZERO), 1.0);
        // far to the side: outside outer cone
        assert_eq!(l.cone_factor(Point3::new(10.0, 0.0, 0.0)), 0.0);
        // in the falloff band: between 0 and 1
        // angle ~20 degrees: x = 5 tan(20°) ≈ 1.82 at y=0
        let f = l.cone_factor(Point3::new(1.82, 0.0, 0.0));
        assert!(f > 0.0 && f < 1.0, "falloff factor {f}");
        // samples reflect the factor
        let light: Light = l.into();
        let mut inside = Vec::new();
        light.samples(Point3::ZERO, &mut inside);
        assert_eq!(inside.len(), 1);
        let mut outside = Vec::new();
        light.samples(Point3::new(10.0, 0.0, 0.0), &mut outside);
        assert!(outside.is_empty());
    }

    #[test]
    fn area_light_samples_cover_the_rectangle() {
        let l: Light = AreaLight::new(
            Point3::new(-1.0, 4.0, -1.0),
            Vec3::new(2.0, 0.0, 0.0),
            Vec3::new(0.0, 0.0, 2.0),
            Color::WHITE,
            3,
        )
        .into();
        let mut s = Vec::new();
        l.samples(Point3::ZERO, &mut s);
        assert_eq!(s.len(), 9);
        // weights sum to the light color
        let total: Color = s.iter().map(|x| x.intensity).sum();
        assert!(total.max_diff(Color::WHITE) < 1e-12);
        // all positions inside the rectangle, at y = 4
        for x in &s {
            assert!((x.position.y - 4.0).abs() < 1e-12);
            assert!(x.position.x > -1.0 && x.position.x < 1.0);
            assert!(x.position.z > -1.0 && x.position.z < 1.0);
        }
        // deterministic
        let mut s2 = Vec::new();
        l.samples(Point3::ZERO, &mut s2);
        assert_eq!(s, s2);
    }

    #[test]
    fn light_position_representative() {
        let area = AreaLight::new(
            Point3::ZERO,
            Vec3::new(2.0, 0.0, 0.0),
            Vec3::new(0.0, 0.0, 2.0),
            Color::WHITE,
            2,
        );
        assert!(Light::from(area)
            .position()
            .approx_eq(Point3::new(1.0, 0.0, 1.0), 1e-12));
    }

    #[test]
    #[should_panic]
    fn inverted_spot_cone_rejected() {
        let _ = SpotLight::new(Point3::ZERO, Point3::UNIT_X, Color::WHITE, 40.0, 20.0);
    }
}
