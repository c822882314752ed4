#![warn(missing_docs)]

//! # now-grid
//!
//! Uniform spatial subdivision ("voxels, or cubes" in the paper) plus the
//! modified 3-D DDA traversal the frame-coherence algorithm is built on.
//!
//! Two consumers share this crate, and one walk serves both:
//!
//! * the ray tracer, which keeps per-voxel object lists and walks every
//!   ray it fires through them ([`dda::IndexWalk`]), and
//! * the coherence engine, which logs the voxels that same walk crossed
//!   ([`dda::VoxelPath`]) under the pixel being shaded.
//!
//! The traversal is the Amanatides–Woo incremental algorithm: after
//! clipping the ray to the grid bounds, each step advances the axis whose
//! next voxel-boundary crossing is closest.

pub mod dda;
pub mod spec;

pub use dda::{DdaStep, GridTraversal};
pub use spec::{GridSpec, Voxel};
