#![warn(missing_docs)]

//! # nowrender
//!
//! Frame-coherent parallel ray tracing of animations on a (simulated or
//! real) network of workstations — a from-scratch Rust reproduction of
//! *Davis & Davis, "Rendering Computer Animations on a Network of
//! Workstations", IPPS 1998*.
//!
//! This façade crate re-exports the whole system:
//!
//! * [`math`] — vectors, rays, boxes, transforms, colors.
//! * [`grid`] — uniform spatial subdivision and the 3-D DDA.
//! * [`raytrace`] — the Whitted ray tracer (POV-Ray substitute) with ray
//!   observation hooks.
//! * [`coherence`] — the paper's pixel-granularity frame-coherence engine
//!   and the Jevans block baseline.
//! * [`anim`] — keyframe animation, the built-in evaluation scenes
//!   (Newton's cradle, glass ball in a brick room, orbiters) and a small
//!   scene-description language.
//! * [`cluster`] — the network-of-workstations substrate: PVM-like
//!   message passing over real threads, and a deterministic
//!   discrete-event simulator of heterogeneous machines on shared
//!   Ethernet.
//! * [`core`] — the render farm: partitioning schemes (sequence
//!   division / frame division), adaptive demand-driven load
//!   balancing, master/worker protocol, the calibrated cost model, and
//!   the multi-tenant job-queue service (`core::service`: stride
//!   fair-share across tenants, admission control, crash-safe job
//!   table — see DESIGN.md §15).
//! * [`trace`] — the observability layer: ring-buffer event recorder,
//!   counters and histograms, Chrome `trace_event` / metrics exporters,
//!   and the normalized golden-trace stream (see DESIGN.md §10).
//!
//! ## Quickstart
//!
//! ```
//! use nowrender::anim::scenes::glassball;
//! use nowrender::core::{run_sim, FarmConfig};
//! use nowrender::cluster::SimCluster;
//!
//! // a small glass-ball animation (the paper's Fig. 1 scene)
//! let anim = glassball::animation_sized(64, 48, 4);
//! // the paper's 3-workstation cluster (one 2x-fast machine)
//! let cluster = SimCluster::paper();
//! let mut cfg = FarmConfig::paper_default();
//! cfg.grid_voxels = 4096;
//! let result = run_sim(&anim, &cfg, &cluster);
//! assert_eq!(result.frame_hashes.len(), 4);
//! println!("rendered 4 frames in {:.2} virtual seconds", result.report.makespan_s);
//! ```

pub use now_anim as anim;
pub use now_cluster as cluster;
pub use now_coherence as coherence;
pub use now_core as core;
pub use now_grid as grid;
pub use now_math as math;
pub use now_raytrace as raytrace;
pub use now_trace as trace;
