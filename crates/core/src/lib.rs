#![warn(missing_docs)]

//! # now-core
//!
//! The paper's system: rendering computer animations on a network of
//! workstations by combining the frame-coherence algorithm
//! (`now-coherence`) with master/slave distribution (`now-cluster`).
//!
//! * [`cost`] — the calibrated cost model mapping real measured work
//!   (rays traced, voxels marked, pixels shaded, bytes written) to
//!   virtual seconds on a speed-1.0 workstation; both the single-processor
//!   timings and the cluster simulation are priced through it.
//! * [`single`] — single-processor baselines: plain per-frame rendering
//!   and frame-coherent rendering (Table 1 columns 1–3).
//! * [`partition`] — the data-partitioning schemes of Section 3:
//!   **sequence division** (contiguous frame subsequences per processor,
//!   adaptively subdivided) and **frame division** (80x80 sub-areas
//!   rendered across the whole sequence, demand-driven), plus the hybrid
//!   and the per-pixel extreme the paper discusses.
//! * [`farm`] — the render farm itself: [`farm::FarmMaster`] /
//!   [`farm::FarmWorker`] implement the `now-cluster` master/worker
//!   interface, so one implementation runs on both the discrete-event
//!   simulator (paper reproduction) and real threads (wall-clock runs).
//! * [`journal`] — the durable run journal: a write-ahead record log plus
//!   atomically-written frame files, letting a crashed master resume with
//!   byte-identical output (`run_*_with` + [`journal::JournalSpec`]).
//! * [`service`] — the multi-tenant job-queue service: a long-lived
//!   [`service::ServiceMaster`] holding a table of independent render
//!   jobs, admitting submissions over the TCP control plane, and
//!   interleaving their units onto one worker pool with stride
//!   fair-share + priority scheduling (DESIGN.md §15).

pub mod cost;
pub mod farm;
pub mod journal;
pub mod partition;
pub mod service;
pub mod single;

pub use cost::CostModel;
pub use farm::{
    bind_tcp_master, run_sim, run_sim_with, run_tcp_master_on, run_tcp_master_with, run_threads,
    run_threads_on, run_threads_with, scene_fingerprint64, serve_tcp_worker,
    serve_tcp_worker_cached, FarmConfig, FarmMaster, FarmResult, FarmWorker, TcpFarmConfig,
    WorkerCache,
};
pub use journal::JournalSpec;
pub use partition::PartitionScheme;
pub use service::{
    run_service_master, run_service_sim, serve_service_worker, serve_service_worker_with, JobSpec,
    JobState, JobStatus, ServiceClient, ServiceConfig, ServiceCounters, ServiceMaster, ServiceUnit,
    ServiceWorker, WatchReport,
};
pub use single::{render_sequence, SequenceMode, SequenceReport, SingleMachine};
