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
//! * [`CoherenceEngine`] — the pixel lists, transposed: each group's rays
//!   are settled against the transitions the engine knows, leaving one
//!   `due` transition per group. Under a [`MoverMask`] it knows them all
//!   and keeps nothing of a ray; without one it learns each transition
//!   from the renderer and keeps the rays of the groups not yet due until
//!   then. It implements
//!   [`now_raytrace::RayListener`], so plugging it into the tracer records
//!   every camera/reflected/refracted/shadow ray. Its [`DirtyTest`] says
//!   what a ray is tested by: its segment (exact, the default) or its
//!   voxel path (the paper's test).
//! * [`change`] — conservative change-voxel detection between two scenes,
//!   and the [`MoverMask`] of a whole sequence (a ray that misses it is
//!   walked but never kept).
//! * [`bound`] — the tight [`Bound`] of a changed object's old and new
//!   placement; an exact engine makes a pixel dirty only when one of its
//!   rays passes within such a bound (an extension of the paper's
//!   voxel-granular test).
//! * [`CoherentRenderer`] — incremental sequence renderer of one region,
//!   built once by [`CoherentRenderer::for_region`] in a [`RenderMode`]:
//!   coherent, frame `t+1` is frame `t` plus a re-render of exactly the
//!   dirty pixels; plain, it renders every pixel and records nothing. A
//!   coherent mode's `block` edge above 1 is the cited Jevans baseline:
//!   coherence tracked for blocks of pixels; one dirty pixel recomputes
//!   its whole block.
//! * [`diff`] — actual-vs-predicted difference maps (paper Fig. 2).

pub mod bound;
pub mod change;
pub mod diff;
pub mod engine;
pub mod incremental;
pub mod region;
pub mod tiledelta;
pub mod varint;

pub use bound::Bound;
pub use change::{changed_voxels, ChangeSet, MoverMask};
pub use diff::DiffMaps;
pub use engine::{CoherenceEngine, CoherenceStats, DirtyTest};
pub use incremental::{CoherentRenderer, FrameReport, RenderMode};
pub use region::PixelRegion;
pub use tiledelta::{RegionBuffer, TileUpdate};
