//! Surface materials for the Whitted intensity model.

use crate::texture::Texture;
use now_math::Color;

/// Whitted material: Phong local terms plus the paper's wavelength-
/// independent global constants `k_rg` (reflectivity) and `k_tg`
/// (transmission).
#[derive(Debug, Clone, PartialEq)]
pub struct Material {
    /// Surface color field (evaluated at the local-space hit point).
    pub texture: Texture,
    /// Ambient coefficient.
    pub ambient: f64,
    /// Diffuse (Lambert) coefficient.
    pub diffuse: f64,
    /// Specular (Phong highlight) coefficient.
    pub specular: f64,
    /// Phong exponent.
    pub shininess: f64,
    /// `k_rg`: fraction of intensity contributed by the reflected ray.
    pub reflect: f64,
    /// `k_tg`: fraction of intensity contributed by the transmitted ray.
    pub transmit: f64,
    /// Index of refraction (used when `transmit > 0`).
    pub ior: f64,
}

impl Default for Material {
    fn default() -> Material {
        Material::matte(Color::gray(0.8))
    }
}

impl Material {
    /// Purely diffuse surface of the given color.
    pub fn matte(c: Color) -> Material {
        Material {
            texture: Texture::Solid(c),
            ambient: 0.1,
            diffuse: 0.9,
            specular: 0.0,
            shininess: 1.0,
            reflect: 0.0,
            transmit: 0.0,
            ior: 1.0,
        }
    }

    /// Shiny plastic: diffuse plus a highlight.
    pub fn plastic(c: Color) -> Material {
        Material {
            texture: Texture::Solid(c),
            ambient: 0.1,
            diffuse: 0.7,
            specular: 0.4,
            shininess: 40.0,
            reflect: 0.0,
            transmit: 0.0,
            ior: 1.0,
        }
    }

    /// Polished metal (chrome marbles of the Newton scene): strong mirror
    /// term, modest local shading.
    pub fn chrome(tint: Color) -> Material {
        Material {
            texture: Texture::Solid(tint),
            ambient: 0.05,
            diffuse: 0.25,
            specular: 0.8,
            shininess: 200.0,
            reflect: 0.65,
            transmit: 0.0,
            ior: 1.0,
        }
    }

    /// Clear glass (the bouncing ball of Figs. 1-2): refractive with a
    /// little mirror reflection.
    pub fn glass() -> Material {
        Material {
            texture: Texture::Solid(Color::WHITE),
            ambient: 0.0,
            diffuse: 0.05,
            specular: 0.6,
            shininess: 300.0,
            reflect: 0.1,
            transmit: 0.85,
            ior: 1.5,
        }
    }

    /// True if this material spawns reflected rays.
    #[inline]
    pub fn is_reflective(&self) -> bool {
        self.reflect > 0.0
    }

    /// True if this material spawns transmitted rays.
    #[inline]
    pub fn is_transmissive(&self) -> bool {
        self.transmit > 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_expected_transport() {
        assert!(!Material::matte(Color::WHITE).is_reflective());
        assert!(!Material::matte(Color::WHITE).is_transmissive());
        assert!(Material::chrome(Color::WHITE).is_reflective());
        assert!(!Material::chrome(Color::WHITE).is_transmissive());
        assert!(Material::glass().is_transmissive());
        assert!(Material::glass().ior > 1.0);
    }

    #[test]
    fn default_is_matte() {
        let d = Material::default();
        assert_eq!(d.reflect, 0.0);
        assert_eq!(d.transmit, 0.0);
    }
}
