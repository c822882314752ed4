//! Procedural 3-D textures.
//!
//! Textures are evaluated at the *object-local* hit point so they ride along
//! with moving objects. Everything is procedural — no image files — which
//! keeps renders byte-reproducible across machines.

use now_math::{Color, Point3};

/// A procedural color field.
#[derive(Debug, Clone, PartialEq)]
pub enum Texture {
    /// Uniform color.
    Solid(Color),
    /// 3-D checkerboard of two colors with the given cell edge length.
    Checker {
        /// Color of even cells.
        a: Color,
        /// Color of odd cells.
        b: Color,
        /// Cell edge length.
        scale: f64,
    },
    /// Running-bond brick pattern in the local xy plane (extruded along z):
    /// the wall texture of the paper's "brick room" scene.
    Brick {
        /// Brick face color.
        brick: Color,
        /// Mortar joint color.
        mortar: Color,
        /// Brick width (x extent).
        width: f64,
        /// Brick height (y extent).
        height: f64,
        /// Mortar joint thickness.
        joint: f64,
    },
    /// Concentric-shell marble-like bands between two colors.
    Marble {
        /// First band color.
        a: Color,
        /// Second band color.
        b: Color,
        /// Band frequency.
        frequency: f64,
    },
    /// Concentric wood rings around the local y axis.
    Wood {
        /// Early-ring (light) color.
        light: Color,
        /// Late-ring (dark) color.
        dark: Color,
        /// Rings per unit radius.
        rings: f64,
        /// Ring waviness (0 = perfect circles).
        wobble: f64,
    },
    /// Vertical gradient between two colors over `[y0, y1]`.
    GradientY {
        /// Color at and below `y0`.
        bottom: Color,
        /// Color at and above `y1`.
        top: Color,
        /// Lower bound of the ramp.
        y0: f64,
        /// Upper bound of the ramp.
        y1: f64,
    },
}

impl Texture {
    /// Shorthand for a solid texture.
    pub fn solid(r: f64, g: f64, b: f64) -> Texture {
        Texture::Solid(Color::new(r, g, b))
    }

    /// Evaluate the texture at a (local-space) point.
    pub fn eval(&self, p: Point3) -> Color {
        match self {
            Texture::Solid(c) => *c,
            Texture::Checker { a, b, scale } => {
                // floor in each axis; offset by a large even constant so
                // negative coordinates don't mirror the pattern
                let ix = (p.x / scale + 1024.0).floor() as i64;
                let iy = (p.y / scale + 1024.0).floor() as i64;
                let iz = (p.z / scale + 1024.0).floor() as i64;
                if (ix + iy + iz) % 2 == 0 {
                    *a
                } else {
                    *b
                }
            }
            Texture::Brick {
                brick,
                mortar,
                width,
                height,
                joint,
            } => {
                let row = ((p.y / height) + 1024.0).floor();
                // odd rows shifted half a brick (running bond)
                let offset = if (row as i64) % 2 == 0 {
                    0.0
                } else {
                    width * 0.5
                };
                let fx = (p.x + offset).rem_euclid(*width);
                let fy = p.y.rem_euclid(*height);
                if fx < *joint || fy < *joint {
                    *mortar
                } else {
                    *brick
                }
            }
            Texture::Marble { a, b, frequency } => {
                // deterministic pseudo-turbulence from a few sine octaves
                let t = (p.x * frequency
                    + 0.5 * (p.y * frequency * 2.3).sin()
                    + 0.25 * (p.z * frequency * 4.1).sin())
                .sin()
                    * 0.5
                    + 0.5;
                a.lerp(*b, t)
            }
            Texture::Wood {
                light,
                dark,
                rings,
                wobble,
            } => {
                let r = (p.x * p.x + p.z * p.z).sqrt();
                let angle = p.z.atan2(p.x);
                let wav = wobble * ((angle * 3.0).sin() + 0.5 * (p.y * 2.0).sin());
                let t = ((r * rings + wav) * std::f64::consts::PI).sin() * 0.5 + 0.5;
                // sharpen the ring transition a little
                let t = t * t * (3.0 - 2.0 * t);
                light.lerp(*dark, t)
            }
            Texture::GradientY {
                bottom,
                top,
                y0,
                y1,
            } => {
                let t = now_math::clamp((p.y - y0) / (y1 - y0), 0.0, 1.0);
                bottom.lerp(*top, t)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use now_math::Vec3;

    #[test]
    fn solid_ignores_position() {
        let t = Texture::solid(0.2, 0.4, 0.6);
        assert_eq!(t.eval(Point3::ZERO), t.eval(Point3::new(5.0, -3.0, 9.0)));
    }

    #[test]
    fn checker_alternates() {
        let t = Texture::Checker {
            a: Color::BLACK,
            b: Color::WHITE,
            scale: 1.0,
        };
        let c0 = t.eval(Point3::new(0.5, 0.5, 0.5));
        let c1 = t.eval(Point3::new(1.5, 0.5, 0.5));
        assert_ne!(c0, c1);
        // two steps returns to the same color
        let c2 = t.eval(Point3::new(2.5, 0.5, 0.5));
        assert_eq!(c0, c2);
        // diagonal neighbour (two axis steps) matches
        let cd = t.eval(Point3::new(1.5, 1.5, 0.5));
        assert_eq!(c0, cd);
    }

    #[test]
    fn checker_continuous_across_origin() {
        let t = Texture::Checker {
            a: Color::BLACK,
            b: Color::WHITE,
            scale: 1.0,
        };
        // cells at -0.5 and +0.5 are adjacent, so they must differ
        assert_ne!(
            t.eval(Point3::new(-0.5, 0.25, 0.25)),
            t.eval(Point3::new(0.5, 0.25, 0.25))
        );
    }

    #[test]
    fn brick_has_mortar_lines() {
        let t = Texture::Brick {
            brick: Color::new(0.6, 0.2, 0.1),
            mortar: Color::gray(0.8),
            width: 1.0,
            height: 0.5,
            joint: 0.05,
        };
        // center of a brick face
        let face = t.eval(Point3::new(0.5, 0.25, 0.0));
        assert_eq!(face, Color::new(0.6, 0.2, 0.1));
        // on a horizontal joint
        let joint = t.eval(Point3::new(0.5, 0.01, 0.0));
        assert_eq!(joint, Color::gray(0.8));
        // on a vertical joint
        let vjoint = t.eval(Point3::new(0.01, 0.25, 0.0));
        assert_eq!(vjoint, Color::gray(0.8));
    }

    #[test]
    fn brick_rows_are_offset() {
        let t = Texture::Brick {
            brick: Color::WHITE,
            mortar: Color::BLACK,
            width: 1.0,
            height: 0.5,
            joint: 0.05,
        };
        // x=0.01 is mortar in row 0 but (offset by 0.5) brick in row 1
        assert_eq!(t.eval(Point3::new(0.01, 0.25, 0.0)), Color::BLACK);
        assert_eq!(t.eval(Point3::new(0.01, 0.75, 0.0)), Color::WHITE);
    }

    #[test]
    fn marble_stays_within_band_colors() {
        let t = Texture::Marble {
            a: Color::BLACK,
            b: Color::WHITE,
            frequency: 2.0,
        };
        for i in 0..100 {
            let p = Point3::new(i as f64 * 0.1, (i % 7) as f64 * 0.3, (i % 3) as f64);
            let c = t.eval(p);
            assert!(c.r >= -1e-12 && c.r <= 1.0 + 1e-12);
            assert_eq!(c.r, c.g);
        }
    }

    #[test]
    fn wood_rings_alternate_radially() {
        let t = Texture::Wood {
            light: Color::new(0.7, 0.5, 0.3),
            dark: Color::new(0.35, 0.2, 0.1),
            rings: 4.0,
            wobble: 0.0,
        };
        // with no wobble, the texture is rotationally symmetric
        let a = t.eval(Point3::new(0.5, 0.0, 0.0));
        let b = t.eval(Point3::new(0.0, 0.0, 0.5));
        assert!(a.max_diff(b) < 1e-9);
        // rings alternate: sample radii 1/8 apart hit different phases
        let c0 = t.eval(Point3::new(0.125, 0.0, 0.0));
        let c1 = t.eval(Point3::new(0.25, 0.0, 0.0));
        assert!(c0.max_diff(c1) > 0.05, "rings too flat: {c0:?} vs {c1:?}");
        // wobble breaks the symmetry
        let tw = Texture::Wood {
            light: Color::WHITE,
            dark: Color::BLACK,
            rings: 4.0,
            wobble: 0.4,
        };
        let wa = tw.eval(Point3::new(0.5, 0.0, 0.0));
        let wb = tw.eval(Point3::new(0.0, 0.0, 0.5));
        assert!(wa.max_diff(wb) > 1e-6);
    }

    #[test]
    fn gradient_clamps_at_ends() {
        let t = Texture::GradientY {
            bottom: Color::BLACK,
            top: Color::WHITE,
            y0: 0.0,
            y1: 2.0,
        };
        assert_eq!(t.eval(Point3::new(0.0, -5.0, 0.0)), Color::BLACK);
        assert_eq!(t.eval(Point3::new(0.0, 5.0, 0.0)), Color::WHITE);
        let mid = t.eval(Point3::new(0.0, 1.0, 0.0) + Vec3::ZERO);
        assert!((mid.r - 0.5).abs() < 1e-12);
    }
}
