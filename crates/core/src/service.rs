//! Multi-tenant render service: a long-lived job queue over the farm.
//!
//! `nowfarm master` renders exactly one animation and exits. This module
//! turns the same machinery into a *service* (DESIGN.md §15): a
//! [`ServiceMaster`] owns a table of independent render jobs, admits new
//! submissions over the TCP control plane (`SUBMIT`/`STATUS`/`CANCEL`/
//! `JOBS`/`DRAIN` frames next to the worker `HELLO`/`WELCOME` protocol),
//! and interleaves units from many jobs onto one worker pool:
//!
//! * **Fair share across tenants** — stride scheduling: each tenant has a
//!   configurable weight and a `pass` counter advanced by
//!   `STRIDE1 / weight` per unit grant; the tenant with the lowest pass
//!   (ties by name) is served first, so over any backlogged window each
//!   tenant receives grants proportional to its weight.
//! * **Priority within a tenant** — jobs are drained in strict
//!   `(priority desc, submit order)`; a higher-priority submission
//!   preempts the *queue position* (not running leases) of earlier work.
//! * **Work conservation** — a tenant or job with nothing assignable for
//!   the requesting worker is skipped, never blocks the pool.
//! * **Admission control** — a bounded live-job queue, per-spec size and
//!   frame/pixel caps; a rejected submission gets an explicit reason
//!   (`queue full`, `scene spec too large`, `bad scene: ...`).
//! * **Per-job isolation** — each job renders through its own
//!   [`FarmMaster`] with its own journal directory, frame output and
//!   metrics file under `root/jobs/job_NNNNNN/`; a SIGKILLed service
//!   resumes from the service journal plus the per-job journals, so
//!   finished jobs are never re-run and in-flight jobs resume at their
//!   finalized-frame boundary.
//!
//! Every piece runs on both the deterministic simulator (scale drills:
//! thousands of jobs over hundreds of simulated workers, byte-identical
//! across runs) and real TCP (the `nowfarm serve` and `nowfarm load`
//! subcommands).

use crate::cost::CostModel;
use crate::farm::{
    decode_tile, encode_tile, job_hash, Canvas, FarmConfig, FarmMaster, FarmWorker, PackedPixels,
    TcpFarmConfig, UnitOutput,
};
use crate::journal::{JournalSpec, JOURNAL_FILE};
use crate::partition::{PartitionScheme, RenderUnit};
use now_anim::scenes::from_spec;
use now_anim::Animation;
use now_cluster::codec::{DecodeError, Decoder, Encoder};
use now_cluster::journal::{JournalFaultPlan, JournalWriter};
use now_cluster::net::{read_frame, tag, write_frame};
use now_cluster::{
    connect_worker, ConnectConfig, DiskFaults, MasterLogic, MasterWork, Message, RunReport,
    SimCluster, TcpMaster, Wire, WorkCost, WorkerLogic, WorkerSummary,
};
use now_coherence::tiledelta::{MODE_FULL, MODE_FULL_DEFLATE};
use now_coherence::{DirtyTest, PixelRegion, TileUpdate};
use now_grid::GridSpec;
use now_raytrace::RenderSettings;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// One pass-counter step for a weight-1 tenant (stride scheduling).
const STRIDE1: u64 = 1 << 20;

/// File name of the service-level job-table journal under the root dir.
pub const SERVICE_JOURNAL_FILE: &str = "service.journal";

/// Admission bounds: maximum frames, and pixels (width x height), per job.
const MAX_FRAMES: u32 = 512;
const MAX_PIXELS: u64 = 1 << 22;

/// Version byte of the service journal record format.
const SVC_JOURNAL_VERSION: u32 = 1;

/// Job-header marker a service master ships in `WELCOME`, so a plain farm
/// worker pointed at a service (or a service worker at a farm) fails the
/// header check instead of rendering garbage. Deliberately far away from
/// the farm's `JOB_HEADER_VERSION = 2`.
const SERVICE_HEADER_VERSION: u32 = u32::from_le_bytes(*b"NOSV");

// ---------------------------------------------------------------------
// Job specs, states, statuses
// ---------------------------------------------------------------------

/// What a client submits: everything the service needs to rebuild and
/// render the animation on any worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Tenant (user/team) this job bills against; fair-share weight is
    /// configured per tenant on the service, not by the client.
    pub tenant: String,
    /// Higher runs earlier *within* the tenant's share.
    pub priority: i32,
    /// Transportable scene spec: `demo:NAME[:FRAMES[:WxH]]` or scene
    /// language text (see [`now_anim::scenes::from_spec`]).
    pub scene: String,
    /// Render with the frame-coherence algorithm.
    pub coherence: bool,
    /// Target voxel count of the job's grid accelerator.
    pub grid_voxels: u32,
}

impl Default for JobSpec {
    fn default() -> JobSpec {
        JobSpec {
            tenant: "default".to_string(),
            priority: 0,
            scene: String::new(),
            coherence: true,
            grid_voxels: 4096,
        }
    }
}

impl JobSpec {
    /// A spec for `scene` under the default tenant.
    pub fn new(scene: impl Into<String>) -> JobSpec {
        JobSpec {
            scene: scene.into(),
            ..JobSpec::default()
        }
    }

    /// Builder: set the tenant.
    pub fn tenant(mut self, tenant: impl Into<String>) -> JobSpec {
        self.tenant = tenant.into();
        self
    }

    /// Builder: set the priority.
    pub fn priority(mut self, priority: i32) -> JobSpec {
        self.priority = priority;
        self
    }

    /// Builder: set coherence on/off.
    pub fn coherence(mut self, coherence: bool) -> JobSpec {
        self.coherence = coherence;
        self
    }
}

impl Wire for JobSpec {
    fn wire_encode(&self, e: &mut Encoder) {
        e.str(&self.tenant)
            .u32(self.priority as u32)
            .str(&self.scene)
            .u8(self.coherence as u8)
            .u32(self.grid_voxels);
    }

    fn wire_decode(d: &mut Decoder<'_>) -> Result<JobSpec, DecodeError> {
        Ok(JobSpec {
            tenant: d.str()?.to_string(),
            priority: d.u32()? as i32,
            scene: d.str()?.to_string(),
            coherence: d.u8()? != 0,
            grid_voxels: d.u32()?,
        })
    }
}

/// Lifecycle of an admitted job. Rejected submissions never enter the
/// table — the client gets the reason in the `SVC_ERR` reply instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Admitted, no unit granted yet.
    Queued,
    /// At least one unit granted.
    Running,
    /// Every frame assembled; `job_hash` is final.
    Done,
    /// Cancelled by a client (or failed to start); leases already out
    /// are discarded at integration, nothing is requeued.
    Cancelled,
}

impl JobState {
    /// True for states a job can never leave.
    pub fn terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Cancelled)
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Cancelled => "cancelled",
        }
    }

    fn code(self) -> u8 {
        match self {
            JobState::Queued => 0,
            JobState::Running => 1,
            JobState::Done => 2,
            JobState::Cancelled => 3,
        }
    }

    fn from_code(code: u8) -> Option<JobState> {
        Some(match code {
            0 => JobState::Queued,
            1 => JobState::Running,
            2 => JobState::Done,
            3 => JobState::Cancelled,
            _ => return None,
        })
    }
}

/// One job's externally visible status (the `JOB_INFO` payload).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobStatus {
    /// Service-assigned job id (1-based, monotonic).
    pub id: u64,
    /// Owning tenant.
    pub tenant: String,
    /// Priority within the tenant.
    pub priority: i32,
    /// Current lifecycle state.
    pub state: JobState,
    /// Total frames in the job's animation.
    pub frames: u32,
    /// Frames assembled and (when journaled) durably written.
    pub frames_done: u32,
    /// Units integrated for this job.
    pub units_done: u64,
    /// FNV-1a over the job's ordered frame hashes; 0 until `Done`.
    pub job_hash: u64,
}

impl Wire for JobStatus {
    fn wire_encode(&self, e: &mut Encoder) {
        e.u64(self.id)
            .str(&self.tenant)
            .u32(self.priority as u32)
            .u8(self.state.code())
            .u32(self.frames)
            .u32(self.frames_done)
            .u64(self.units_done)
            .u64(self.job_hash);
    }

    fn wire_decode(d: &mut Decoder<'_>) -> Result<JobStatus, DecodeError> {
        let id = d.u64()?;
        let tenant = d.str()?.to_string();
        let priority = d.u32()? as i32;
        let state_code = d.u8()?;
        let state = JobState::from_code(state_code).ok_or(DecodeError {
            at: 0,
            what: "job state code",
        })?;
        Ok(JobStatus {
            id,
            tenant,
            priority,
            state,
            frames: d.u32()?,
            frames_done: d.u32()?,
            units_done: d.u64()?,
            job_hash: d.u64()?,
        })
    }
}

// ---------------------------------------------------------------------
// Wire unit
// ---------------------------------------------------------------------

/// A farm [`RenderUnit`] tagged with the job it belongs to plus the spec
/// a worker needs to rebuild the job's scene. Self-contained on purpose:
/// service workers join scene-less and learn each job from its first
/// unit, caching the built state per job afterwards.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceUnit {
    /// Owning job id.
    pub job: u64,
    /// The job's scene spec, which a worker parses when it meets the job.
    pub scene: String,
    /// Render with frame coherence.
    pub coherence: bool,
    /// Grid accelerator resolution.
    pub grid_voxels: u32,
    /// The farm unit (region + frame + restart).
    pub unit: RenderUnit,
}

impl Wire for ServiceUnit {
    fn wire_encode(&self, e: &mut Encoder) {
        e.u64(self.job)
            .str(&self.scene)
            .u8(self.coherence as u8)
            .u32(self.grid_voxels);
        self.unit.wire_encode(e);
    }

    fn wire_decode(d: &mut Decoder<'_>) -> Result<ServiceUnit, DecodeError> {
        Ok(ServiceUnit {
            job: d.u64()?,
            scene: d.str()?.to_string(),
            coherence: d.u8()? != 0,
            grid_voxels: d.u32()?,
            unit: RenderUnit::wire_decode(d)?,
        })
    }
}

// ---------------------------------------------------------------------
// Service configuration
// ---------------------------------------------------------------------

/// Service-wide policy knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Admission bound: maximum live (non-terminal) jobs; submissions
    /// beyond it are rejected with `queue full` (backpressure).
    pub max_queued: usize,
    /// Maximum scene spec size in bytes; larger specs are rejected
    /// before parsing.
    pub max_spec_bytes: usize,
    /// Per-tenant fair-share weights; tenants not listed get weight 1.
    /// A weight-3 tenant receives 3x the unit grants of a weight-1 tenant
    /// while both are backlogged.
    pub weights: Vec<(String, u32)>,
    /// Render settings every job runs with (thread pool, depth, ...).
    pub settings: RenderSettings,
    /// Cost model (simulator pricing + master file-write accounting).
    pub cost: CostModel,
    /// Durability root. `Some(dir)` gives the service a crash-safe job
    /// table journal at `dir/service.journal` and every job an isolated
    /// journal + frame-output directory `dir/jobs/job_NNNNNN/`; `None`
    /// keeps everything in memory (sim drills).
    pub root: Option<PathBuf>,
    /// Record every unit grant in [`ServiceMaster::grant_log`]
    /// (fairness tests and the property harness; off in production).
    pub record_grants: bool,
    /// Per-tenant submission rate limit (token bucket); `None` admits at
    /// any rate. See [`RateLimit`].
    pub rate_limit: Option<RateLimit>,
}

/// Per-tenant token-bucket admission rate limit. The bucket's clock is
/// the service's *total submission-attempt count* — a logical clock that
/// advances identically on the simulator and over TCP, so rate-limit
/// behavior is deterministic and replayable. Each tenant starts with
/// `burst` tokens, spends one per admitted job, and earns one back per
/// `every` submission attempts (from any tenant) arriving at the
/// service; an empty bucket rejects with `tenant rate limit exceeded`
/// (delivered to TCP clients as an `SVC_ERR`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateLimit {
    /// Bucket capacity: admissions a tenant may burst ahead of the drip.
    pub burst: u32,
    /// Refill period, in service-wide submission attempts per token.
    pub every: u32,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            max_queued: 4096,
            max_spec_bytes: 64 << 10,
            weights: Vec::new(),
            settings: RenderSettings::default(),
            cost: CostModel::default(),
            root: None,
            record_grants: false,
            rate_limit: None,
        }
    }
}

/// Lifecycle counters; the conservation invariant is
/// `completed + cancelled + rejected + live == submitted`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceCounters {
    /// Submission attempts (accepted or not).
    pub submitted: u64,
    /// Submissions refused by admission control or validation.
    pub rejected: u64,
    /// Jobs that finished every frame.
    pub completed: u64,
    /// Jobs cancelled before completion.
    pub cancelled: u64,
    /// Results that arrived for a job already terminal (cancel mid-run
    /// or ledger retries of a dead job's units); discarded.
    pub stale_results: u64,
    /// Finished frames pushed to a job's watchers (one `FRAME_DELTA`
    /// payload each, however many clients watch).
    pub frames_pushed: u64,
    /// Of those, frames whose tile is the worker's own, forwarded as it
    /// was sealed instead of re-encoded.
    pub frames_forwarded: u64,
}

/// One unit grant, recorded when [`ServiceConfig::record_grants`] is on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GrantRecord {
    /// 1-based grant sequence number.
    pub seq: u64,
    /// Job granted.
    pub job: u64,
    /// The job's tenant.
    pub tenant: String,
    /// The job's priority.
    pub priority: i32,
    /// Frame of the granted unit.
    pub frame: u32,
    /// Region origin of the granted unit.
    pub region: (u32, u32),
    /// Job state at the instant of the grant (always live).
    pub state: JobState,
}

// ---------------------------------------------------------------------
// The master
// ---------------------------------------------------------------------

struct TenantState {
    weight: u32,
    pass: u64,
    grants: u64,
}

struct Job {
    spec: JobSpec,
    state: JobState,
    /// Parsed scene; dropped once the job is terminal.
    anim: Option<Arc<Animation>>,
    /// Per-job farm master, built lazily on the first grant so queued
    /// jobs cost no canvas memory and no journal directory.
    master: Option<FarmMaster>,
    frames: u32,
    units_done: u64,
    frames_done: u32,
    job_hash: u64,
}

impl Job {
    /// The job's image size; (0, 0) once it is terminal and its scene is
    /// dropped.
    fn frame_size(&self) -> (u32, u32) {
        (self.anim.as_ref()).map_or((0, 0), |a| (a.base.camera.width(), a.base.camera.height()))
    }

    fn status(&self, id: u64) -> JobStatus {
        JobStatus {
            id,
            tenant: self.spec.tenant.clone(),
            priority: self.spec.priority,
            state: self.state,
            frames: self.frames,
            frames_done: self
                .master
                .as_ref()
                .map(|m| m.frame_hashes.len() as u32)
                .unwrap_or(self.frames_done),
            units_done: self.units_done,
            job_hash: self.job_hash,
        }
    }
}

/// The long-lived multi-tenant master: a job table + stride scheduler
/// implementing [`MasterLogic`], so the same instance runs on the sim
/// (scale drills), threads, or TCP (`nowfarm serve`).
pub struct ServiceMaster {
    cfg: ServiceConfig,
    jobs: BTreeMap<u64, Job>,
    /// Ids of the jobs that are not terminal (`Queued` or `Running`):
    /// what `assign`, admission and `all_done` walk instead of the whole
    /// table, which keeps every job ever submitted.
    live: BTreeSet<u64>,
    next_id: u64,
    tenants: BTreeMap<String, TenantState>,
    draining: bool,
    grants: u64,
    grant_log: Vec<GrantRecord>,
    /// Deterministic test hook: jobs to cancel once the total grant
    /// count reaches the key.
    cancel_plan: BTreeMap<u64, Vec<u64>>,
    journal: Option<JournalWriter>,
    /// armed disk faults for every per-job journal and frame write
    /// (the TCP driver arms the chaos plan's disk section here)
    disk: DiskFaults,
    /// tenant → (tokens, logical clock at last refill) for the admission
    /// rate limiter; kept apart from `tenants` so tenants that only ever
    /// get rate-limited never enter the fair-share scheduler
    rate: BTreeMap<String, (f64, u64)>,
    /// job id → client tokens watching its progressive frame stream
    watchers: BTreeMap<u64, Vec<u64>>,
    /// queued unsolicited client frames, drained by the transport
    pushes: Vec<(u64, u32, Vec<u8>)>,
    /// Lifecycle counters (see [`ServiceCounters`]).
    pub counters: ServiceCounters,
}

impl ServiceMaster {
    /// Create a service. With [`ServiceConfig::root`] set, the root and
    /// `jobs/` directories are created and a fresh job-table journal is
    /// started (an existing journal is overwritten — use
    /// [`ServiceMaster::resume`] to keep it).
    pub fn new(cfg: ServiceConfig) -> Result<ServiceMaster, String> {
        ServiceMaster::open(cfg, false)
    }

    /// Reopen a service from its journaled job table: `Done`/`Cancelled`
    /// jobs keep their final state (finished work is never re-run),
    /// every other job re-queues — in-flight jobs resume from their
    /// per-job journal at the first unfinalized frame.
    pub fn resume(cfg: ServiceConfig) -> Result<ServiceMaster, String> {
        ServiceMaster::open(cfg, true)
    }

    fn open(cfg: ServiceConfig, resume: bool) -> Result<ServiceMaster, String> {
        let mut m = ServiceMaster {
            cfg,
            jobs: BTreeMap::new(),
            live: BTreeSet::new(),
            next_id: 1,
            tenants: BTreeMap::new(),
            draining: false,
            grants: 0,
            grant_log: Vec::new(),
            cancel_plan: BTreeMap::new(),
            journal: None,
            disk: DiskFaults::none(),
            rate: BTreeMap::new(),
            watchers: BTreeMap::new(),
            pushes: Vec::new(),
            counters: ServiceCounters::default(),
        };
        let Some(root) = m.cfg.root.clone() else {
            return Ok(m);
        };
        std::fs::create_dir_all(root.join("jobs"))
            .map_err(|e| format!("create service root {}: {e}", root.display()))?;
        let path = root.join(SERVICE_JOURNAL_FILE);
        if resume {
            let (writer, log) = JournalWriter::open_recover(&path, JournalFaultPlan::none())
                .map_err(|e| format!("recover {}: {e}", path.display()))?;
            m.journal = Some(writer);
            for rec in &log.records {
                m.replay(rec)?;
            }
        } else {
            let mut writer = JournalWriter::create(&path, JournalFaultPlan::none())
                .map_err(|e| format!("create {}: {e}", path.display()))?;
            let mut e = Encoder::new();
            e.u8(REC_HEADER).u32(SVC_JOURNAL_VERSION);
            let _ = writer.append(&e.finish());
            m.journal = Some(writer);
        }
        Ok(m)
    }

    /// Apply one recovered job-table record.
    fn replay(&mut self, rec: &[u8]) -> Result<(), String> {
        let mut d = Decoder::new(rec);
        let bad = |_: DecodeError| "torn service journal record".to_string();
        match d.u8().map_err(bad)? {
            REC_HEADER => {
                let v = d.u32().map_err(bad)?;
                if v != SVC_JOURNAL_VERSION {
                    return Err(format!("service journal version mismatch: {v}"));
                }
            }
            REC_SUBMITTED => {
                let id = d.u64().map_err(bad)?;
                let spec = JobSpec::wire_decode(&mut d).map_err(bad)?;
                let anim = Arc::new(
                    from_spec(&spec.scene)
                        .map_err(|e| format!("journaled job {id} no longer parses: {e}"))?,
                );
                let frames = anim.frames as u32;
                self.ensure_tenant(&spec.tenant);
                self.counters.submitted += 1;
                self.next_id = self.next_id.max(id + 1);
                self.live.insert(id);
                self.jobs.insert(
                    id,
                    Job {
                        spec,
                        state: JobState::Queued,
                        anim: Some(anim),
                        master: None,
                        frames,
                        units_done: 0,
                        frames_done: 0,
                        job_hash: 0,
                    },
                );
            }
            REC_CANCELLED => {
                let id = d.u64().map_err(bad)?;
                if let Some(j) = self.jobs.get_mut(&id) {
                    j.state = JobState::Cancelled;
                    j.anim = None;
                    self.live.remove(&id);
                    self.counters.cancelled += 1;
                }
            }
            REC_DONE => {
                let id = d.u64().map_err(bad)?;
                let hash = d.u64().map_err(bad)?;
                let frames = d.u32().map_err(bad)?;
                if let Some(j) = self.jobs.get_mut(&id) {
                    j.state = JobState::Done;
                    j.job_hash = hash;
                    j.frames_done = frames;
                    j.anim = None;
                    self.live.remove(&id);
                    self.counters.completed += 1;
                }
            }
            _ => return Err("unknown service journal record kind".to_string()),
        }
        Ok(())
    }

    fn journal_append(&mut self, payload: Vec<u8>) {
        if let Some(j) = self.journal.as_mut() {
            // IO errors degrade durability, never the render (the same
            // policy as the farm journal)
            let _ = j.append(&payload);
        }
    }

    fn ensure_tenant(&mut self, name: &str) {
        if self.tenants.contains_key(name) {
            return;
        }
        // a joining tenant starts at the current minimum pass, so it
        // competes fairly from now on instead of monopolizing the pool
        // to "catch up" on time before it existed
        let pass = self.tenants.values().map(|t| t.pass).min().unwrap_or(0);
        let weight = self
            .cfg
            .weights
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, w)| w.max(1))
            .unwrap_or(1);
        self.tenants.insert(
            name.to_string(),
            TenantState {
                weight,
                pass,
                grants: 0,
            },
        );
    }

    /// Submit a job. `Err` carries the rejection reason; rejected jobs
    /// never enter the table.
    pub fn submit(&mut self, spec: JobSpec) -> Result<u64, String> {
        self.counters.submitted += 1;
        match self.admit(spec) {
            Ok(id) => Ok(id),
            Err(reason) => {
                self.counters.rejected += 1;
                Err(reason)
            }
        }
    }

    /// Spend one rate-limit token for `tenant`, refilling the bucket from
    /// the logical clock first. True = admitted past the limiter.
    fn rate_check(&mut self, tenant: &str) -> bool {
        let Some(rl) = self.cfg.rate_limit else {
            return true;
        };
        let clock = self.counters.submitted;
        let (tokens, last) = self
            .rate
            .entry(tenant.to_string())
            .or_insert((rl.burst as f64, clock));
        let earned = clock.saturating_sub(*last) as f64 / rl.every.max(1) as f64;
        *tokens = (*tokens + earned).min(rl.burst as f64);
        *last = clock;
        if *tokens >= 1.0 {
            *tokens -= 1.0;
            true
        } else {
            false
        }
    }

    fn admit(&mut self, spec: JobSpec) -> Result<u64, String> {
        if self.draining {
            return Err("service is draining".to_string());
        }
        if spec.tenant.is_empty() || spec.tenant.len() > 64 {
            return Err("bad tenant name".to_string());
        }
        if !self.rate_check(&spec.tenant) {
            return Err("tenant rate limit exceeded".to_string());
        }
        if spec.scene.len() > self.cfg.max_spec_bytes {
            return Err("scene spec too large".to_string());
        }
        if self.live.len() >= self.cfg.max_queued {
            return Err("queue full".to_string());
        }
        let anim = from_spec(&spec.scene).map_err(|e| format!("bad scene: {e}"))?;
        let frames = anim.frames as u32;
        if frames == 0 || frames > MAX_FRAMES {
            return Err(format!("frame count {frames} outside 1..={MAX_FRAMES}"));
        }
        let pixels = anim.base.camera.width() as u64 * anim.base.camera.height() as u64;
        if pixels == 0 || pixels > MAX_PIXELS {
            return Err(format!("pixel count {pixels} over {MAX_PIXELS}"));
        }
        let id = self.next_id;
        self.next_id += 1;
        self.ensure_tenant(&spec.tenant);
        let mut e = Encoder::new();
        e.u8(REC_SUBMITTED).u64(id);
        spec.wire_encode(&mut e);
        self.journal_append(e.finish());
        self.live.insert(id);
        self.jobs.insert(
            id,
            Job {
                spec,
                state: JobState::Queued,
                anim: Some(Arc::new(anim)),
                master: None,
                frames,
                units_done: 0,
                frames_done: 0,
                job_hash: 0,
            },
        );
        Ok(id)
    }

    /// Cancel a live job. Outstanding leases are *not* recalled — their
    /// results arrive and are discarded as stale — and none of the job's
    /// unassigned units will ever be granted again.
    pub fn cancel(&mut self, id: u64) -> Result<(), &'static str> {
        let Some(j) = self.jobs.get_mut(&id) else {
            return Err("unknown job id");
        };
        match j.state {
            JobState::Done => Err("job already finished"),
            JobState::Cancelled => Err("job already cancelled"),
            JobState::Queued | JobState::Running => {
                j.state = JobState::Cancelled;
                j.master = None;
                j.anim = None;
                self.live.remove(&id);
                self.counters.cancelled += 1;
                let mut e = Encoder::new();
                e.u8(REC_CANCELLED).u64(id);
                self.journal_append(e.finish());
                // a cancel is the watcher stream's terminal event
                self.push_status(id);
                if now_trace::enabled() {
                    now_trace::global().instant(0, "svc.job_cancelled", &[("job", id)], true);
                }
                Ok(())
            }
        }
    }

    /// One job's status.
    pub fn status(&self, id: u64) -> Option<JobStatus> {
        self.jobs.get(&id).map(|j| j.status(id))
    }

    /// Every job's status, in id order.
    pub fn statuses(&self) -> Vec<JobStatus> {
        self.jobs.iter().map(|(&id, j)| j.status(id)).collect()
    }

    /// Stop admitting jobs; once every job is terminal the service run
    /// ends and workers are released.
    pub fn drain(&mut self) {
        self.draining = true;
    }

    /// True once every job in the table is `Done` or `Cancelled`.
    pub fn all_jobs_terminal(&self) -> bool {
        self.live.is_empty()
    }

    /// Unit grants per tenant (fairness accounting).
    pub fn tenant_grants(&self) -> BTreeMap<String, u64> {
        self.tenants
            .iter()
            .map(|(n, t)| (n.clone(), t.grants))
            .collect()
    }

    /// The grant log, when [`ServiceConfig::record_grants`] is set.
    pub fn grant_log(&self) -> &[GrantRecord] {
        &self.grant_log
    }

    /// Total unit grants issued.
    pub fn total_grants(&self) -> u64 {
        self.grants
    }

    /// Test hook: cancel `job` as soon as the total grant count reaches
    /// `at_grant` — a deterministic stand-in for a client cancelling
    /// mid-run, usable on the (clientless) sim backend.
    pub fn cancel_at_grant(&mut self, at_grant: u64, job: u64) {
        self.cancel_plan.entry(at_grant).or_default().push(job);
    }

    /// Directory isolating one job's journal, frames and metrics.
    fn job_dir(&self, id: u64) -> Option<PathBuf> {
        self.cfg
            .root
            .as_ref()
            .map(|r| r.join("jobs").join(format!("job_{id:06}")))
    }

    /// Build the job's per-job [`FarmMaster`] if it doesn't exist yet.
    /// A job whose journal/scene can no longer be opened is cancelled
    /// (counted, journaled) instead of poisoning the scheduler.
    fn ensure_master(&mut self, id: u64) -> Result<(), ()> {
        let job = self.jobs.get(&id).ok_or(())?;
        if job.master.is_some() {
            return Ok(());
        }
        let (settings, cost) = (&self.cfg.settings, self.cfg.cost);
        let fcfg = job_farm_config(job.spec.coherence, job.spec.grid_voxels, settings, cost);
        let anim = job.anim.clone().ok_or(())?;
        let spec_dir = self.job_dir(id);
        let journal = spec_dir.map(|dir| {
            let spec = if dir.join(JOURNAL_FILE).is_file() {
                JournalSpec::resume(dir)
            } else {
                JournalSpec::new(dir)
            };
            spec.with_disk_faults(self.disk.clone())
        });
        match FarmMaster::from_spec(&anim, &fcfg, 1, journal.as_ref()) {
            Ok(m) => {
                self.jobs.get_mut(&id).expect("job exists").master = Some(m);
                Ok(())
            }
            Err(_) => {
                let _ = self.cancel(id);
                Err(())
            }
        }
    }

    /// Record a grant and fire any due cancel-plan triggers.
    fn note_grant(&mut self, id: u64, unit: &RenderUnit, state: JobState) {
        self.grants += 1;
        let spec = &self.jobs[&id].spec;
        if let Some(t) = self.tenants.get_mut(&spec.tenant) {
            t.pass += STRIDE1 / t.weight as u64;
            t.grants += 1;
        }
        if self.cfg.record_grants {
            self.grant_log.push(GrantRecord {
                seq: self.grants,
                job: id,
                tenant: spec.tenant.clone(),
                priority: spec.priority,
                frame: unit.frame,
                region: (unit.region.x0, unit.region.y0),
                state,
            });
        }
        while let Some((&at, _)) = self.cancel_plan.iter().next() {
            if at > self.grants {
                break;
            }
            let victims = self.cancel_plan.remove(&at).expect("checked key");
            for v in victims {
                let _ = self.cancel(v);
            }
        }
    }

    /// Queue a `FRAME_PROGRESS` push (the job's status record) to every
    /// watcher of `id`; a terminal status is the stream's last frame, so
    /// the watcher list is dropped with it.
    fn push_status(&mut self, id: u64) {
        let Some(job) = self.jobs.get(&id) else {
            return;
        };
        let clients = match self.watchers.get(&id) {
            Some(c) if !c.is_empty() => c.clone(),
            _ => return,
        };
        let st = job.status(id);
        let mut e = Encoder::new();
        st.wire_encode(&mut e);
        let payload = e.finish();
        for c in clients {
            self.pushes.push((c, tag::FRAME_PROGRESS, payload.clone()));
        }
        if st.state.terminal() {
            self.watchers.remove(&id);
        }
    }

    /// A completed per-job run: compute the job hash, journal the
    /// completion, drop the per-job master, write the metrics file.
    fn finalize_job(&mut self, id: u64) {
        let Some(job) = self.jobs.get_mut(&id) else {
            return;
        };
        let Some(m) = job.master.take() else { return };
        let hash = job_hash(&m.frame_hashes);
        job.state = JobState::Done;
        job.job_hash = hash;
        job.frames_done = m.frame_hashes.len() as u32;
        job.anim = None;
        self.live.remove(&id);
        self.counters.completed += 1;
        let frames_done = job.frames_done;
        let units_done = job.units_done;
        let rays = m.rays.total_rays();
        let pixels_shipped = m.pixels_shipped;
        let resumed = m.resumed_units;
        let requeued = m.units_requeued;
        let rejected = m.results_rejected;
        let workers_lost = m.workers_lost_seen;
        let mut e = Encoder::new();
        e.u8(REC_DONE).u64(id).u64(hash).u32(frames_done);
        self.journal_append(e.finish());
        if let Some(dir) = self.job_dir(id) {
            let json = format!(
                "{{\n  \"job\": {id},\n  \"hash\": \"{hash:016x}\",\n  \"frames\": {frames_done},\n  \
                 \"units\": {units_done},\n  \"rays\": {rays},\n  \"pixels_shipped\": {pixels_shipped},\n  \
                 \"resumed\": {resumed},\n  \"requeued\": {requeued},\n  \"rejected\": {rejected},\n  \
                 \"workers_lost\": {workers_lost}\n}}\n",
            );
            let _ =
                now_raytrace::image_io::write_atomic(&dir.join("metrics.json"), json.as_bytes());
        }
        if now_trace::enabled() {
            now_trace::global().instant(0, "svc.job_done", &[("job", id), ("hash", hash)], true);
            now_trace::global().counter_add("svc.jobs_completed", 1);
        }
    }
}

impl MasterLogic for ServiceMaster {
    type Unit = ServiceUnit;
    type Result = UnitOutput;

    fn assign(&mut self, worker: usize) -> Option<ServiceUnit> {
        // stride scheduling: serve the tenant with the lowest pass that
        // has anything assignable, ties broken by name for determinism;
        // within the tenant: strict priority, then submit order
        let mut cands: Vec<(u64, &str, Reverse<i32>, u64)> = self
            .live
            .iter()
            .map(|&id| {
                let spec = &self.jobs[&id].spec;
                let pass = self.tenants[&spec.tenant].pass;
                (pass, spec.tenant.as_str(), Reverse(spec.priority), id)
            })
            .collect();
        cands.sort_unstable();
        let order: Vec<u64> = cands.into_iter().map(|(.., id)| id).collect();
        for id in order {
            if self.ensure_master(id).is_err() {
                continue;
            }
            let job = self.jobs.get_mut(&id).expect("candidate job exists");
            let Some(m) = job.master.as_mut() else {
                continue;
            };
            // a job with nothing assignable *for this worker right now*
            // is skipped, not blocking (work conservation)
            if let Some(unit) = m.assign(worker) {
                job.state = JobState::Running;
                let su = ServiceUnit {
                    job: id,
                    scene: job.spec.scene.clone(),
                    coherence: job.spec.coherence,
                    grid_voxels: job.spec.grid_voxels,
                    unit,
                };
                self.note_grant(id, &unit, JobState::Running);
                return Some(su);
            }
        }
        None
    }

    fn integrate(
        &mut self,
        worker: usize,
        unit: ServiceUnit,
        result: UnitOutput,
    ) -> Option<MasterWork> {
        let live = self
            .jobs
            .get(&unit.job)
            .is_some_and(|j| !j.state.terminal() && j.master.is_some());
        if !live {
            // cancelled mid-run (or a retry of a terminal job's unit):
            // the work is discarded deliberately, never folded into any
            // ledger/frame — an *accepted* no-op, not an integrity
            // rejection (no strike, no requeue)
            self.counters.stale_results += 1;
            return Some(MasterWork::default());
        }
        let watched: Vec<u64> = self.watchers.get(&unit.job).cloned().unwrap_or_default();
        let job = self.jobs.get_mut(&unit.job).expect("live job");
        let (w, h) = job.frame_size();
        let whole = PixelRegion { x0: 0, y0: 0, w, h };
        // a worker's whole-frame FULL or FULL_DEFLATE tile is byte for byte
        // what re-encoding its pixels afresh gives: the encoder picks
        // between those two the same way whether its stream was seeded
        let mut sealed = (!watched.is_empty()
            && unit.unit.region == whole
            && matches!(result.update.mode, MODE_FULL | MODE_FULL_DEFLATE))
        .then(|| result.update.clone());
        let m = job.master.as_mut().expect("live job has a master");
        // the per-job master verifies the result's content checksum; a
        // rejection propagates so the transport requeues + strikes
        let (mw, finished) = m.integrate_frames(worker, unit.unit, result)?;
        job.units_done += 1;
        // one self-contained tile per finished frame, in frame order: the
        // frame's changed pixels over the whole frame, which a watcher
        // applies to its one rolling canvas. A frame this unit finished
        // alone ships the worker's tile as it came.
        for (frame, units, _) in finished.iter().filter(|_| !watched.is_empty()) {
            self.counters.frames_pushed += 1;
            let tile = match sealed.take_if(|_| *frame == unit.unit.frame && units.len() == 1) {
                Some(tile) => {
                    self.counters.frames_forwarded += 1;
                    tile
                }
                None => {
                    let pixels: Vec<_> = units.iter().flat_map(PackedPixels::iter).collect();
                    TileUpdate::encode(&pixels, whole, w, &mut None, true)
                }
            };
            let mut e = Encoder::new();
            e.u64(unit.job).u32(*frame).u32(0).u32(0).u32(w).u32(h);
            encode_tile(&mut e, &tile);
            let payload = e.finish();
            for &c in &watched {
                self.pushes.push((c, tag::FRAME_DELTA, payload.clone()));
            }
        }
        let done = m.all_done();
        if done {
            self.finalize_job(unit.job);
        }
        if !watched.is_empty() && (!finished.is_empty() || done) {
            self.push_status(unit.job);
        }
        Some(mw)
    }

    fn unit_bytes(&self, unit: &ServiceUnit) -> u64 {
        // the farm unit (48) + job id/knobs + the scene spec text
        64 + unit.scene.len() as u64
    }

    fn on_reassign(&mut self, from_worker: usize, unit: &mut ServiceUnit) {
        if let Some(job) = self.jobs.get_mut(&unit.job) {
            if let Some(m) = job.master.as_mut() {
                m.on_reassign(from_worker, &mut unit.unit);
            }
        }
    }

    fn on_worker_lost(&mut self, worker: usize) {
        // only a live job has a master
        for id in &self.live {
            if let Some(m) = self.jobs.get_mut(id).and_then(|j| j.master.as_mut()) {
                m.on_worker_lost(worker);
            }
        }
    }

    fn all_done(&self) -> bool {
        self.draining && self.all_jobs_terminal()
    }

    fn client_frame(&mut self, client: u64, t: u32, payload: &[u8]) -> Option<(u32, Vec<u8>)> {
        let err = |reason: &str| {
            let mut e = Encoder::new();
            e.str(reason);
            Some((tag::SVC_ERR, e.finish()))
        };
        match t {
            tag::SUBMIT => {
                let mut d = Decoder::new(payload);
                let spec = match JobSpec::wire_decode(&mut d) {
                    Ok(s) => s,
                    Err(e) => {
                        // garbage payload: count it as a refused
                        // submission so conservation still holds
                        self.counters.submitted += 1;
                        self.counters.rejected += 1;
                        return err(&format!("bad submit payload: {e}"));
                    }
                };
                match self.submit(spec) {
                    Ok(id) => {
                        let mut e = Encoder::new();
                        e.u64(id);
                        Some((tag::JOB_OK, e.finish()))
                    }
                    Err(reason) => err(&reason),
                }
            }
            tag::STATUS => {
                let mut d = Decoder::new(payload);
                let id = match d.u64() {
                    Ok(id) => id,
                    Err(_) => return err("bad status payload"),
                };
                match self.status(id) {
                    Some(st) => {
                        let mut e = Encoder::new();
                        st.wire_encode(&mut e);
                        Some((tag::JOB_INFO, e.finish()))
                    }
                    None => err("unknown job id"),
                }
            }
            tag::CANCEL => {
                let mut d = Decoder::new(payload);
                let id = match d.u64() {
                    Ok(id) => id,
                    Err(_) => return err("bad cancel payload"),
                };
                match self.cancel(id) {
                    Ok(()) => {
                        let mut e = Encoder::new();
                        e.u64(id);
                        Some((tag::JOB_OK, e.finish()))
                    }
                    Err(reason) => err(reason),
                }
            }
            tag::JOBS => {
                let statuses = self.statuses();
                let mut e = Encoder::new();
                e.u32(statuses.len() as u32);
                for st in &statuses {
                    st.wire_encode(&mut e);
                }
                Some((tag::JOB_LIST, e.finish()))
            }
            tag::DRAIN => {
                self.drain();
                Some((tag::JOB_OK, Vec::new()))
            }
            tag::WATCH => {
                let mut d = Decoder::new(payload);
                let id = match d.u64() {
                    Ok(id) => id,
                    Err(_) => return err("bad watch payload"),
                };
                let Some(job) = self.jobs.get(&id) else {
                    return err("unknown job id");
                };
                let st = job.status(id);
                let (w, h) = job.frame_size();
                if !st.state.terminal() {
                    self.watchers.entry(id).or_default().push(client);
                }
                // the acknowledgement carries the dimensions a watcher
                // needs to assemble frames; a terminal job streams
                // nothing further (its status here is already final)
                let mut e = Encoder::new();
                st.wire_encode(&mut e);
                e.u32(w).u32(h);
                Some((tag::JOB_OK, e.finish()))
            }
            _ => None,
        }
    }

    fn client_pushes(&mut self) -> Vec<(u64, u32, Vec<u8>)> {
        std::mem::take(&mut self.pushes)
    }

    fn client_gone(&mut self, client: u64) {
        for clients in self.watchers.values_mut() {
            clients.retain(|&c| c != client);
        }
        self.watchers.retain(|_, clients| !clients.is_empty());
    }
}

// ---------------------------------------------------------------------
// The worker
// ---------------------------------------------------------------------

/// Per-job render states a [`ServiceWorker`] keeps before evicting the
/// least recently used.
const MAX_JOBS: usize = 8;

/// Scene-agnostic worker: joins the service knowing nothing, learns each
/// job from its first [`ServiceUnit`] (parsing the job's scene spec
/// itself) and keeps per-job render state (a [`FarmWorker`], including
/// coherence state) in a small LRU cache, its only state. Evicting a
/// job's state is always safe: the next unit rebuilds it, and a rebuilt
/// worker renders its first unit's whole region and ships it as a `FULL`
/// tile, pixels identical to the incremental path.
pub struct ServiceWorker {
    settings: RenderSettings,
    cost: CostModel,
    /// job id → (last-used tick, per-job farm state)
    jobs: BTreeMap<u64, (u64, FarmWorker)>,
    tick: u64,
}

impl ServiceWorker {
    /// A worker with the given render settings and cost model.
    pub fn new(settings: RenderSettings, cost: CostModel) -> ServiceWorker {
        ServiceWorker {
            settings,
            cost,
            jobs: BTreeMap::new(),
            tick: 0,
        }
    }
}

impl WorkerLogic for ServiceWorker {
    type Unit = ServiceUnit;
    type Result = UnitOutput;

    fn perform(&mut self, su: &ServiceUnit) -> (UnitOutput, WorkCost) {
        self.tick += 1;
        let tick = self.tick;
        if let Some((used, w)) = self.jobs.get_mut(&su.job) {
            *used = tick;
            return w.perform(&su.unit);
        }
        // the master validated the spec at submission; a worker handed
        // an unparsable spec is talking to a broken master
        let anim = Arc::new(from_spec(&su.scene).expect("master-validated scene spec must parse"));
        let cfg = job_farm_config(su.coherence, su.grid_voxels, &self.settings, self.cost);
        let spec = GridSpec::for_scene(anim.swept_bounds(), cfg.grid_voxels);
        let mut w = FarmWorker::new(anim, spec, cfg);
        let out = w.perform(&su.unit);
        while self.jobs.len() >= MAX_JOBS {
            let oldest = self
                .jobs
                .iter()
                .min_by_key(|(&id, (used, _))| (*used, id))
                .map(|(&id, _)| id)
                .expect("cache not empty");
            self.jobs.remove(&oldest);
        }
        self.jobs.insert(su.job, (tick, w));
        out
    }
}

/// The farm configuration of one service job, the same on the master and
/// on every worker: coherence and grid come from the job's spec (a worker
/// reads them from the [`ServiceUnit`]), settings and cost from the
/// process.
fn job_farm_config(
    coherence: bool,
    grid_voxels: u32,
    settings: &RenderSettings,
    cost: CostModel,
) -> FarmConfig {
    FarmConfig {
        // one unowned queue covering the whole job: the first idle
        // worker that asks claims it, and the scheduler's adaptive
        // tail-stealing spreads a long job's tail over idle workers
        scheme: PartitionScheme::SequenceDivision { adaptive: true },
        coherence,
        dirty_test: DirtyTest::Exact,
        settings: settings.clone(),
        cost,
        grid_voxels,
    }
}

// ---------------------------------------------------------------------
// Drivers
// ---------------------------------------------------------------------

/// Run a pre-loaded service to completion on the simulator: every
/// submitted job renders on the simulated machines in deterministic
/// virtual time. Submit jobs (and schedule cancels via
/// [`ServiceMaster::cancel_at_grant`]) before calling.
pub fn run_service_sim(master: ServiceMaster, cluster: &SimCluster) -> (ServiceMaster, RunReport) {
    let workers: Vec<ServiceWorker> = cluster
        .machines
        .iter()
        .map(|_| ServiceWorker::new(master.cfg.settings.clone(), master.cfg.cost))
        .collect();
    cluster.run(master, workers)
}

/// The service's `WELCOME` job-header bytes (a marker distinguishing a
/// service master from a single-job farm master).
fn service_job_header() -> Vec<u8> {
    let mut e = Encoder::new();
    e.u32(SERVICE_HEADER_VERSION);
    e.finish()
}

/// Run a service master over a bound TCP listener until it is drained:
/// workers enroll with `HELLO` exactly like a single-job farm, clients
/// open connections straight into `SUBMIT`/`STATUS`/`CANCEL`/`JOBS`/
/// `DRAIN` frames. Returns the master (job table intact) plus the run
/// report once a `DRAIN` request has been honored and every job is
/// terminal. `tcp`'s worker quorum and accept window do not apply: a
/// service admits workers for as long as it runs, with or without any.
pub fn run_service_master(
    listener: TcpMaster,
    mut master: ServiceMaster,
    tcp: &TcpFarmConfig,
) -> Result<(ServiceMaster, RunReport), String> {
    let mut ccfg = tcp.clone();
    master.disk = tcp.chaos.disk.arm();
    ccfg.job_header = service_job_header();
    ccfg.workers = usize::MAX;
    ccfg.net.accept_window_s = f64::INFINITY;
    // fingerprint stays empty: service workers are scene-agnostic
    listener
        .run(master, &ccfg)
        .map_err(|e| format!("service master: {e}"))
}

/// Connect a scene-agnostic worker to a service master and serve units
/// until drained. The `WELCOME` header is validated so a worker pointed
/// at a single-job farm master (or vice versa) fails fast with a clear
/// reason instead of decoding garbage units.
pub fn serve_service_worker(
    addr: &str,
    connect: &ConnectConfig,
    settings: &RenderSettings,
) -> Result<WorkerSummary, String> {
    let conn = connect_worker(addr, connect).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut d = Decoder::new(conn.job_header());
    if d.u32() != Ok(SERVICE_HEADER_VERSION) {
        conn.leave();
        return Err("master is not a render service (job header mismatch)".to_string());
    }
    let worker = ServiceWorker::new(settings.clone(), CostModel::default());
    conn.serve(worker).map_err(|e| format!("worker serve: {e}"))
}

// ---------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------

/// A blocking control-plane client: submit/status/cancel/list/drain over
/// one TCP connection (requests may be pipelined; the service replies in
/// order). The outer `Result` is transport failure; the inner `Result`
/// (where present) is the service's explicit rejection with its reason.
pub struct ServiceClient {
    stream: TcpStream,
}

impl ServiceClient {
    /// Connect to a service master.
    pub fn connect(addr: &str, timeout_s: f64) -> Result<ServiceClient, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        if timeout_s > 0.0 {
            stream
                .set_read_timeout(Some(Duration::from_secs_f64(timeout_s)))
                .map_err(|e| e.to_string())?;
        }
        Ok(ServiceClient { stream })
    }

    fn call(&mut self, t: u32, payload: Vec<u8>) -> Result<(u32, Vec<u8>), String> {
        let msg = Message {
            from: 0,
            to: 0,
            tag: t,
            payload,
        };
        write_frame(&mut self.stream, &msg).map_err(|e| format!("send: {e}"))?;
        let (reply, _) = read_frame(&mut self.stream).map_err(|e| format!("recv: {e}"))?;
        Ok((reply.tag, reply.payload))
    }

    fn rejection(payload: &[u8]) -> String {
        let mut d = Decoder::new(payload);
        d.str().unwrap_or("unreadable rejection").to_string()
    }

    /// Submit a job: `Ok(Ok(id))` on admission, `Ok(Err(reason))` on
    /// rejection.
    #[allow(clippy::result_large_err)]
    pub fn submit(&mut self, spec: &JobSpec) -> Result<Result<u64, String>, String> {
        let mut e = Encoder::new();
        spec.wire_encode(&mut e);
        match self.call(tag::SUBMIT, e.finish())? {
            (tag::JOB_OK, p) => {
                let mut d = Decoder::new(&p);
                let id = d.u64().map_err(|e| format!("bad JOB_OK payload: {e}"))?;
                Ok(Ok(id))
            }
            (tag::SVC_ERR, p) => Ok(Err(Self::rejection(&p))),
            (t, _) => Err(format!("unexpected reply tag {t:#x}")),
        }
    }

    /// Query one job.
    #[allow(clippy::result_large_err)]
    pub fn status(&mut self, id: u64) -> Result<Result<JobStatus, String>, String> {
        let mut e = Encoder::new();
        e.u64(id);
        match self.call(tag::STATUS, e.finish())? {
            (tag::JOB_INFO, p) => {
                let mut d = Decoder::new(&p);
                let st =
                    JobStatus::wire_decode(&mut d).map_err(|e| format!("bad JOB_INFO: {e}"))?;
                Ok(Ok(st))
            }
            (tag::SVC_ERR, p) => Ok(Err(Self::rejection(&p))),
            (t, _) => Err(format!("unexpected reply tag {t:#x}")),
        }
    }

    /// Cancel one job.
    #[allow(clippy::result_large_err)]
    pub fn cancel(&mut self, id: u64) -> Result<Result<(), String>, String> {
        let mut e = Encoder::new();
        e.u64(id);
        match self.call(tag::CANCEL, e.finish())? {
            (tag::JOB_OK, _) => Ok(Ok(())),
            (tag::SVC_ERR, p) => Ok(Err(Self::rejection(&p))),
            (t, _) => Err(format!("unexpected reply tag {t:#x}")),
        }
    }

    /// List every job the service knows about.
    pub fn jobs(&mut self) -> Result<Vec<JobStatus>, String> {
        match self.call(tag::JOBS, Vec::new())? {
            (tag::JOB_LIST, p) => {
                let mut d = Decoder::new(&p);
                let n = d.u32().map_err(|e| format!("bad JOB_LIST: {e}"))?;
                let mut out = Vec::with_capacity(n.min(1 << 20) as usize);
                for _ in 0..n {
                    out.push(
                        JobStatus::wire_decode(&mut d).map_err(|e| format!("bad JOB_LIST: {e}"))?,
                    );
                }
                Ok(out)
            }
            (t, _) => Err(format!("unexpected reply tag {t:#x}")),
        }
    }

    /// Ask the service to stop admitting and exit once every job is
    /// terminal.
    pub fn drain(&mut self) -> Result<(), String> {
        match self.call(tag::DRAIN, Vec::new())? {
            (tag::JOB_OK, _) => Ok(()),
            (t, _) => Err(format!("unexpected reply tag {t:#x}")),
        }
    }

    /// Subscribe to a job's progressive frame stream. Returns the job's
    /// status at registration plus the image dimensions a watcher needs
    /// to assemble frames; follow with [`ServiceClient::watch_stream`].
    #[allow(clippy::result_large_err)]
    pub fn watch_start(
        &mut self,
        id: u64,
    ) -> Result<Result<(JobStatus, u32, u32), String>, String> {
        let mut e = Encoder::new();
        e.u64(id);
        match self.call(tag::WATCH, e.finish())? {
            (tag::JOB_OK, p) => {
                let mut d = Decoder::new(&p);
                let st =
                    JobStatus::wire_decode(&mut d).map_err(|e| format!("bad watch ack: {e}"))?;
                let w = d.u32().map_err(|e| format!("bad watch ack: {e}"))?;
                let h = d.u32().map_err(|e| format!("bad watch ack: {e}"))?;
                Ok(Ok((st, w, h)))
            }
            (tag::SVC_ERR, p) => Ok(Err(Self::rejection(&p))),
            (t, _) => Err(format!("unexpected reply tag {t:#x}")),
        }
    }

    /// Consume a registered watch stream until the job is terminal. Each
    /// `FRAME_DELTA` push is one finished frame, in frame order, and is
    /// applied to one rolling canvas; `progress` fires on every
    /// `FRAME_PROGRESS` push (frame boundaries and the terminal status).
    ///
    /// When the watch was registered before the job's first unit, the
    /// stream covers every frame: the fingerprints of the canvas after
    /// each push are the job's frame hashes, and the report says whether
    /// they hash to the job hash in `verified`. A watch attached mid-run
    /// still converges visually but cannot reconstruct the frames that
    /// streamed before it joined.
    pub fn watch_stream(
        &mut self,
        st: &JobStatus,
        width: u32,
        height: u32,
        mut progress: impl FnMut(&JobStatus),
    ) -> Result<WatchReport, String> {
        let mut report = WatchReport {
            status: st.clone(),
            deltas: 0,
            delta_bytes: 0,
            pixels: 0,
            verified: false,
            frame_hashes: Vec::new(),
        };
        if st.state.terminal() {
            return Ok(report);
        }
        let from_start = st.units_done == 0 && st.frames_done == 0;
        let mut canvas = Canvas::new(width, height);
        let final_st = loop {
            let (msg, _) = read_frame(&mut self.stream).map_err(|e| format!("watch recv: {e}"))?;
            match msg.tag {
                tag::FRAME_DELTA => {
                    let mut d = Decoder::new(&msg.payload);
                    let parsed = (|| -> Result<_, DecodeError> {
                        let (job, _frame) = (d.u64()?, d.u32()?);
                        let region = PixelRegion {
                            x0: d.u32()?,
                            y0: d.u32()?,
                            w: d.u32()?,
                            h: d.u32()?,
                        };
                        Ok((job, region, decode_tile(&mut d)?))
                    })();
                    let (job, region, tile) =
                        parsed.map_err(|e| format!("bad frame delta: {e}"))?;
                    if job != st.id {
                        continue;
                    }
                    report.deltas += 1;
                    report.delta_bytes += tile.wire_len();
                    let pixels = tile
                        .decode(region, width, &mut None)
                        .map_err(|e| format!("bad frame delta tile: {e}"))?;
                    let hash = canvas
                        .finish(pixels.iter().copied())
                        .map_err(|id| format!("pixel {id} outside {width}x{height}"))?;
                    report.pixels += pixels.len() as u64;
                    report.frame_hashes.push(hash);
                }
                tag::FRAME_PROGRESS => {
                    let mut d = Decoder::new(&msg.payload);
                    let ps = JobStatus::wire_decode(&mut d)
                        .map_err(|e| format!("bad progress push: {e}"))?;
                    if ps.id != st.id {
                        continue;
                    }
                    progress(&ps);
                    if ps.state.terminal() {
                        break ps;
                    }
                }
                _ => {} // unrelated traffic on a shared connection
            }
        };
        report.status = final_st;
        report.verified = report.status.state == JobState::Done
            && from_start
            && job_hash(&report.frame_hashes) == report.status.job_hash;
        Ok(report)
    }
}

/// Outcome of watching a job's progressive frame stream to completion.
#[derive(Debug, Clone)]
pub struct WatchReport {
    /// The job's terminal status (or its status at registration, if the
    /// job was already terminal when the watch attached).
    pub status: JobStatus,
    /// `FRAME_DELTA` pushes received: one per finished frame.
    pub deltas: u64,
    /// Wire bytes of the received tiles (mode + count + payload).
    pub delta_bytes: u64,
    /// Pixels applied from the stream.
    pub pixels: u64,
    /// True when the watch covered the whole job and the client-side
    /// frames reproduced the job hash bit-for-bit.
    pub verified: bool,
    /// The fingerprint of each frame the stream carried, in order: the
    /// job's frame hashes when the watch started from its first unit.
    pub frame_hashes: Vec<u64>,
}

// Service journal record kinds (first payload byte).
const REC_HEADER: u8 = 0;
const REC_SUBMITTED: u8 = 1;
const REC_CANCELLED: u8 = 2;
const REC_DONE: u8 = 3;

#[cfg(test)]
mod tests {
    use super::*;
    use now_cluster::MachineSpec;

    fn sim(n: usize) -> SimCluster {
        SimCluster::new(
            (0..n)
                .map(|i| MachineSpec::new(&format!("m{i}"), 1.0 + (i % 3) as f64 * 0.5, 256.0))
                .collect(),
        )
    }

    fn svc(record: bool) -> ServiceMaster {
        ServiceMaster::new(ServiceConfig {
            record_grants: record,
            ..ServiceConfig::default()
        })
        .expect("in-memory service")
    }

    #[test]
    fn one_job_completes_on_sim() {
        let mut m = svc(false);
        let id = m
            .submit(JobSpec::new("demo:glassball:2:24x18"))
            .expect("admitted");
        let (m, report) = run_service_sim(m, &sim(2));
        let st = m.status(id).expect("known job");
        assert_eq!(st.state, JobState::Done);
        assert_eq!(st.frames_done, 2);
        assert_ne!(st.job_hash, 0);
        assert!(report.makespan_s > 0.0);
        assert!(m.all_jobs_terminal());
    }

    /// Every `FRAME_DELTA` tile is the fresh whole-frame encoding of its
    /// frame's pixels: a worker's self-contained `FULL` tile is forwarded
    /// as sealed, its `DELTA_DEFLATE` tiles (which a watcher could not
    /// decode alone) are re-encoded. Each of the plain glass ball's units
    /// ships the whole frame, which after the first goes as a
    /// `DELTA_DEFLATE`; a coherent job's dirty pixels go as `FULL`, so all
    /// its frames are forwarded.
    #[test]
    fn a_watched_frame_gets_the_fresh_encoding_of_its_pixels() {
        use now_coherence::tiledelta::MODE_DELTA_DEFLATE;
        use now_coherence::RegionBuffer;
        let mut m = svc(false);
        let id = m
            .submit(JobSpec::new("demo:glassball:6:64x48").coherence(false))
            .expect("admitted");
        let mut e = Encoder::new();
        e.u64(id);
        m.client_frame(1, tag::WATCH, &e.finish());
        let mut worker = ServiceWorker::new(RenderSettings::default(), CostModel::default());
        let whole = PixelRegion::full(64, 48);
        let (mut stream, mut modes, mut pushed) = (None::<RegionBuffer>, Vec::new(), 0);
        while let Some(unit) = m.assign(0) {
            let (out, _) = worker.perform(&unit);
            assert_eq!(unit.unit.region, whole, "sequence division");
            let pixels = out.update.decode(whole, 64, &mut stream).expect("decodes");
            modes.push(out.update.mode);
            let frame = unit.unit.frame;
            m.integrate(0, unit, out).expect("verified");
            for (_, t, payload) in m.client_pushes() {
                if t != tag::FRAME_DELTA {
                    continue;
                }
                let mut d = Decoder::new(&payload[28..]);
                let tile = decode_tile(&mut d).expect("a tile");
                let fresh = TileUpdate::encode(&pixels, whole, 64, &mut None, true);
                assert_eq!(tile, fresh, "frame {frame}");
                pushed += 1;
            }
        }
        assert_eq!(pushed, 6);
        assert!(modes.contains(&MODE_DELTA_DEFLATE), "{modes:?}");
        let full = modes
            .iter()
            .filter(|&&mode| matches!(mode, MODE_FULL | MODE_FULL_DEFLATE))
            .count() as u64;
        assert!(full > 0, "{modes:?}");
        assert_eq!(m.counters.frames_pushed, 6);
        assert_eq!(m.counters.frames_forwarded, full);

        let mut m = svc(false);
        let id = m
            .submit(JobSpec::new("demo:newton:4:96x72"))
            .expect("admitted");
        let mut e = Encoder::new();
        e.u64(id);
        m.client_frame(1, tag::WATCH, &e.finish());
        let mut worker = ServiceWorker::new(RenderSettings::default(), CostModel::default());
        while let Some(unit) = m.assign(0) {
            let (out, _) = worker.perform(&unit);
            m.integrate(0, unit, out).expect("verified");
        }
        assert_eq!(m.counters.frames_pushed, 4);
        assert_eq!(m.counters.frames_forwarded, 4);
    }

    #[test]
    fn job_hash_matches_farm_frame_hashes() {
        use now_anim::scenes::from_spec;
        let mut m = svc(false);
        let id = m
            .submit(JobSpec::new("demo:newton:3:24x18"))
            .expect("admitted");
        let (m, _) = run_service_sim(m, &sim(3));
        let got = m.status(id).expect("known").job_hash;

        // the same scene through the plain single-job farm
        let anim = from_spec("demo:newton:3:24x18").expect("demo spec");
        let fcfg = FarmConfig {
            scheme: PartitionScheme::SequenceDivision { adaptive: true },
            ..FarmConfig::paper_default()
        };
        let r = crate::farm::run_sim(&anim, &fcfg, &sim(3));
        let want = job_hash(&r.frame_hashes);
        assert_eq!(got, want, "service job hash must equal the farm's frames");
    }

    /// The live set is exactly the table's non-terminal jobs.
    fn assert_live_set(m: &ServiceMaster) {
        let want: BTreeSet<u64> = (m.jobs.iter())
            .filter(|(_, j)| !j.state.terminal())
            .map(|(&id, _)| id)
            .collect();
        assert_eq!(m.live, want);
        assert_eq!(m.all_jobs_terminal(), want.is_empty());
    }

    #[test]
    fn live_set_follows_every_transition_and_resume() {
        let root = std::env::temp_dir().join(format!("nowsvc_live_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let cfg = ServiceConfig {
            root: Some(root.clone()),
            max_queued: 3,
            ..ServiceConfig::default()
        };
        let mut m = ServiceMaster::new(cfg.clone()).expect("service");
        let mut ids = Vec::new();
        for spec in [
            "demo:glassball:1:8x6",
            "demo:glassball:1:8x6",
            "demo:newton:2:8x6",
        ] {
            ids.push(m.submit(JobSpec::new(spec)).expect("admitted"));
            assert_live_set(&m);
        }
        let (a, b, c) = (ids[0], ids[1], ids[2]);
        assert_eq!(
            m.submit(JobSpec::new("demo:glassball:1:8x6")).unwrap_err(),
            "queue full"
        );
        assert_eq!(m.cancel(b), Ok(()));
        assert_live_set(&m);
        // a cancel makes room: the live set, not the table, is the bound
        let d = m
            .submit(JobSpec::new("demo:glassball:1:8x6"))
            .expect("room again");
        assert_live_set(&m);
        // a's one unit, then c's first frame: a is Done, c is Running
        let mut worker = ServiceWorker::new(cfg.settings.clone(), cfg.cost);
        for want in [a, c] {
            let su = m.assign(0).expect("a unit");
            assert_eq!(su.job, want);
            let (out, _) = worker.perform(&su);
            assert!(m.integrate(0, su, out).is_some());
            assert_live_set(&m);
        }
        assert_eq!(m.status(a).unwrap().state, JobState::Done);
        assert_eq!(m.status(c).unwrap().state, JobState::Running);
        drop(m);

        let m = ServiceMaster::resume(cfg).expect("resume");
        assert_live_set(&m);
        assert_eq!(m.live, BTreeSet::from([c, d]));
        let (m, _) = run_service_sim(m, &sim(2));
        assert_live_set(&m);
        assert!(m.live.is_empty());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn admission_rejects_with_reasons() {
        let mut m = ServiceMaster::new(ServiceConfig {
            max_queued: 2,
            max_spec_bytes: 64,
            ..ServiceConfig::default()
        })
        .expect("service");
        assert!(m.submit(JobSpec::new("demo:glassball:1:8x6")).is_ok());
        assert!(m.submit(JobSpec::new("demo:glassball:1:8x6")).is_ok());
        let err = m.submit(JobSpec::new("demo:glassball:1:8x6")).unwrap_err();
        assert_eq!(err, "queue full");
        let big = JobSpec::new("x".repeat(65));
        // still full, but the spec-size check runs first
        let err = m.submit(big).unwrap_err();
        assert_eq!(err, "scene spec too large");
        let err = m.submit(JobSpec::new("nonsense 1 2")).unwrap_err();
        assert!(err.starts_with("queue full"), "{err}");
        m.drain();
        let err = m.submit(JobSpec::new("demo:glassball:1:8x6")).unwrap_err();
        assert_eq!(err, "service is draining");
        assert_eq!(m.counters.submitted, 6);
        assert_eq!(m.counters.rejected, 4);
    }

    #[test]
    fn cancel_then_unknown_then_finished() {
        let mut m = svc(false);
        let a = m.submit(JobSpec::new("demo:glassball:1:8x6")).unwrap();
        let b = m.submit(JobSpec::new("demo:glassball:1:8x6")).unwrap();
        assert_eq!(m.cancel(a), Ok(()));
        assert_eq!(m.cancel(a), Err("job already cancelled"));
        assert_eq!(m.cancel(99), Err("unknown job id"));
        let (mut m, _) = run_service_sim(m, &sim(1));
        assert_eq!(m.status(a).unwrap().state, JobState::Cancelled);
        assert_eq!(m.status(b).unwrap().state, JobState::Done);
        assert_eq!(m.cancel(b), Err("job already finished"));
    }

    #[test]
    fn wire_roundtrip_spec_status_unit() {
        let spec = JobSpec::new("demo:orbit:4:32x24")
            .tenant("acme")
            .priority(-3)
            .coherence(false);
        let mut e = Encoder::new();
        spec.wire_encode(&mut e);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert_eq!(JobSpec::wire_decode(&mut d).unwrap(), spec);

        let st = JobStatus {
            id: 7,
            tenant: "acme".into(),
            priority: -3,
            state: JobState::Running,
            frames: 4,
            frames_done: 1,
            units_done: 2,
            job_hash: 0,
        };
        let mut e = Encoder::new();
        st.wire_encode(&mut e);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert_eq!(JobStatus::wire_decode(&mut d).unwrap(), st);
    }

    /// A unit of `job` on `scene` at 8 grid voxels.
    fn worker_unit(job: u64, scene: &str, region: PixelRegion, frame: u32) -> ServiceUnit {
        ServiceUnit {
            job,
            scene: scene.to_string(),
            coherence: true,
            grid_voxels: 8,
            unit: RenderUnit {
                region,
                frame,
                restart: frame == 0,
            },
        }
    }

    /// A job whose state was evicted renders its next frame from scratch:
    /// nine interleaved jobs push job 1 out of the eight-job cache, and
    /// its next frame, sent as a continuation (`restart` false), comes
    /// back as a `FULL` tile of the whole region that decodes on its own
    /// to the plain render of that frame.
    #[test]
    fn an_evicted_job_renders_its_next_frame_from_scratch() {
        use crate::single::{render_sequence, SequenceMode, SingleMachine};
        const SCENE: &str = "demo:newton:3:32x24";
        let (width, height) = (32, 24);
        let region = PixelRegion::full(width, height);
        let mut plain = Vec::new();
        let anim = from_spec(SCENE).expect("demo spec");
        let settings = RenderSettings::default();
        let (mode, machine) = (SequenceMode::Plain, SingleMachine::fastest());
        render_sequence(
            &anim,
            &settings,
            &CostModel::default(),
            mode,
            machine,
            8,
            |_, fb| plain.push(Canvas::of(&fb).hash()),
        );

        let mut w = ServiceWorker::new(settings, CostModel::default());
        let mut perform = |job, frame| w.perform(&worker_unit(job, SCENE, region, frame)).0;
        for job in 1..=MAX_JOBS as u64 {
            perform(job, 0);
        }
        // every job but 1 moves on a frame, so job 1 is the least recent
        for job in 2..=MAX_JOBS as u64 {
            perform(job, 1);
        }
        perform(MAX_JOBS as u64 + 1, 0);
        let update = perform(1, 1).update;
        assert!(
            [MODE_FULL, MODE_FULL_DEFLATE].contains(&update.mode),
            "mode {}",
            update.mode
        );
        let pixels = update
            .decode(region, width, &mut None)
            .expect("a FULL decodes alone");
        assert_eq!(pixels.len(), region.len(), "the whole region re-rendered");
        let mut canvas = Canvas::new(width, height);
        assert_eq!(canvas.finish(pixels), Ok(plain[1]));
    }
}
