#![warn(missing_docs)]

//! # now-coherence
//!
//! The frame-coherence algorithm of Davis & Davis (IPPS 1998), at pixel
//! granularity, plus the block-granularity Jevans baseline the paper
//! compares against.
//!
//! The algorithm (paper Fig. 3):
//!
//! ```text
//! parse the user input parameters
//! initialize frame coherence data structures
//! for each frame of the animation
//!     for each pixel that needs to be computed
//!         for each voxel that a ray associated with this pixel intersects
//!             add the pixel to the voxel's pixel list
//!     find the voxels in which change occurs in the next frame
//!     mark those pixels on the pixel list of the changed voxels
//!         for recomputation in the next frame
//! ```
//!
//! * [`CoherenceEngine`] — the pixel lists, stored transposed as one
//!   append-only log of ray paths with generation stamps; it implements
//!   [`now_raytrace::RayListener`], so plugging it into the tracer records
//!   every camera/reflected/refracted/shadow ray.
//! * [`change`] — conservative change-voxel detection between two scenes.
//! * [`CoherentRenderer`] — incremental sequence renderer: frame `t+1` is
//!   frame `t` plus a re-render of exactly the dirty pixels.
//! * [`CoherentRenderer::with_region_and_block`] — the cited Jevans
//!   baseline: coherence tracked for blocks of pixels; one dirty pixel
//!   recomputes its whole block.
//! * [`diff`] — actual-vs-predicted difference maps (paper Fig. 2).

pub mod change;
pub mod diff;
pub mod engine;
pub mod incremental;
pub mod region;
pub mod tiledelta;
pub mod varint;

pub use change::{changed_voxels, ChangeSet};
pub use diff::DiffMaps;
pub use engine::{CoherenceEngine, CoherenceStats};
pub use incremental::{CoherentRenderer, FrameReport};
pub use region::PixelRegion;
pub use tiledelta::{RegionBuffer, TileUpdate};
