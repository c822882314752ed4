#![warn(missing_docs)]

//! # now-raytrace
//!
//! A Whitted-style recursive ray tracer standing in for POV-Ray 3.0 in the
//! reproduction of Davis & Davis (IPPS 1998). It renders with the paper's
//! intensity model
//!
//! ```text
//! I = I_local + k_rg * I_reflected + k_tg * I_transmitted
//! ```
//!
//! where `I_local` is Phong direct illumination with shadow rays, and the
//! reflected/transmitted terms recurse up to a configurable maximum ray
//! depth (5 in the paper's experiments).
//!
//! Two properties matter for the frame-coherence work built on top:
//!
//! 1. **Ray observability** — every ray fired while shading a pixel
//!    (camera, reflected, refracted, shadow) is reported to a
//!    [`RayListener`] together with the distance it travelled, so the
//!    coherence engine can walk it through the scene voxel grid.
//! 2. **Pixel purity** — the color of a pixel is a pure function of the
//!    scene and the pixel coordinates (one ray through the pixel's
//!    centre, no hidden state), so re-rendering any subset of pixels reproduces
//!    exactly what a full render would produce. The coherence correctness
//!    tests compare images byte-for-byte on the strength of this.
//!
//! Intersection is accelerated by the same uniform grid
//! ([`now_grid::GridSpec`]) the coherence engine uses, traversed with the
//! 3-D DDA; unbounded primitives (the infinite floor plane) live in a
//! separate always-tested list.

pub mod accel;
pub mod bvh;
pub mod camera;
pub mod csg;
pub mod deflate;
pub mod framebuffer;
pub mod image_io;
pub mod light;
pub mod listener;
pub mod material;
pub mod mesh;
pub mod object;
pub mod render;
pub mod scene;
pub mod shape;
pub mod stats;
pub mod texture;
pub mod tracer;

pub use accel::GridAccel;
pub use camera::Camera;
pub use csg::Csg;
pub use framebuffer::{Framebuffer, PixelId};
pub use light::{AreaLight, Light, LightSample, PointLight, SpotLight};
pub use listener::{NullListener, RayKind, RayListener, RecordingListener};
pub use material::Material;
pub use object::{Object, ObjectId};
pub use render::{render_frame, render_pixels_par, RenderSettings};
pub use scene::Scene;
pub use shape::{Geometry, Hit};
pub use stats::RayStats;
pub use texture::Texture;
