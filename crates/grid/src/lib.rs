#![warn(missing_docs)]

//! # now-grid
//!
//! Uniform spatial subdivision ("voxels, or cubes" in the paper) plus the
//! modified 3-D DDA traversal the frame-coherence algorithm is built on.
//!
//! Two consumers share this crate:
//!
//! * the ray tracer, which stores per-voxel object lists in a
//!   [`GridCells`] to accelerate intersection, and
//! * the coherence engine, which walks every ray fired for a pixel through
//!   the grid ([`dda::IndexWalk`]) and logs the voxels it crosses under
//!   that pixel.
//!
//! The traversal is the Amanatides–Woo incremental algorithm: after
//! clipping the ray to the grid bounds, each step advances the axis whose
//! next voxel-boundary crossing is closest.

pub mod cells;
pub mod dda;
pub mod packet;
pub mod spec;

pub use cells::GridCells;
pub use dda::{DdaStep, GridTraversal};
pub use packet::{PacketTraversal, PACKET_WIDTH};
pub use spec::{GridSpec, Voxel};
