//! The farm's durable run journal: what the master writes ahead, and how
//! a restarted master resumes from it.
//!
//! Built on the generic record log in [`now_cluster::journal`], this
//! module defines the three farm record types and the resume protocol.
//! The multi-tenant service ([`crate::service`]) stacks on top: each
//! admitted job gets its own journal in this format under
//! `jobs/job_NNNNNN/run.journal`, while the service's own
//! `service.journal` tracks the job table itself.
//!
//! The record types:
//!
//! * **RunHeader** — the TCP job header (its version, the scene's content
//!   fingerprint, coherence and grid) plus the partition scheme. A resume validates this byte-for-
//!   byte: a journal from a different scene or configuration is rejected,
//!   never silently continued.
//! * **UnitDone** — one integrated unit (region, frame, FNV-1a of the
//!   shipped pixels). Pure write-ahead evidence: resume re-renders every
//!   unit of unfinalized frames, so these records exist for audit and
//!   debugging, not replay.
//! * **FrameDone** — one finalized frame (index + canvas fingerprint),
//!   appended *after* the frame's pixels were durably written to
//!   `frame_NNNN.tga` via temp-file + fsync + rename. A FrameDone record
//!   therefore guarantees the frame file it describes exists and is whole.
//!
//! Resume is frame-granular: finalization is strictly in-order and
//! whole-frame, so `k` valid FrameDone records mean frames `0..k` are
//! done and everything from `k` on must be re-rendered. The master reloads
//! frame `k-1`'s pixels as its rolling canvas (verifying the journaled
//! fingerprint against the re-read file), skips every unit below `k`, and
//! re-enqueues the rest; the scheduler's fresh-queue restart semantics
//! then guarantee byte-identical pixels, exactly as they already do for
//! worker-crash reassignment.

use crate::farm::FarmConfig;
use crate::partition::PartitionScheme;
use now_anim::Animation;
use now_cluster::chaos::{DiskFaultKind, DiskFaults};
use now_cluster::codec::{Decoder, Encoder};
use now_cluster::journal::{JournalFaultPlan, JournalWriter};
use now_cluster::Wire;
use now_raytrace::image_io::{tga_bytes_rgb8, tga_decode, write_atomic_with, WriteFault};
use std::path::{Path, PathBuf};

/// Record tags (first payload byte).
const REC_RUN_HEADER: u8 = 1;
const REC_UNIT_DONE: u8 = 2;
const REC_FRAME_DONE: u8 = 3;

/// File name of the record log inside the journal directory.
pub const JOURNAL_FILE: &str = "run.journal";

/// Where (and how) a run should journal itself.
#[derive(Debug, Clone)]
pub struct JournalSpec {
    /// Directory holding `run.journal` plus the finalized `frame_NNNN.tga`
    /// files (created if missing).
    pub dir: PathBuf,
    /// Resume from an existing journal in `dir` instead of starting fresh.
    pub resume: bool,
    /// Deterministic crash injection for the journal writer (tests).
    pub fault: JournalFaultPlan,
    /// Armed disk-fault plan consulted on every journal append and frame
    /// write (chaos harness); the default handle injects nothing.
    pub disk: DiskFaults,
}

impl JournalSpec {
    /// Journal a fresh run into `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> JournalSpec {
        JournalSpec {
            dir: dir.into(),
            resume: false,
            fault: JournalFaultPlan::none(),
            disk: DiskFaults::none(),
        }
    }

    /// Resume the run journaled in `dir` (fresh if the journal is empty
    /// or missing, so a resume after a crash-before-first-record works).
    pub fn resume(dir: impl Into<PathBuf>) -> JournalSpec {
        JournalSpec {
            dir: dir.into(),
            resume: true,
            fault: JournalFaultPlan::none(),
            disk: DiskFaults::none(),
        }
    }

    /// Attach a crash-injection plan (tests).
    pub fn with_fault(mut self, fault: JournalFaultPlan) -> JournalSpec {
        self.fault = fault;
        self
    }

    /// Attach an armed disk-fault plan (chaos harness).
    pub fn with_disk_faults(mut self, disk: DiskFaults) -> JournalSpec {
        self.disk = disk;
        self
    }
}

/// Master state reconstructed from a journal by [`FarmJournal::open`].
#[derive(Debug, Default)]
pub struct ResumeState {
    /// First frame that still needs rendering (== count of valid
    /// FrameDone records).
    pub next_finalize: u32,
    /// Fingerprints of the already-finalized frames, in order.
    pub frame_hashes: Vec<u64>,
    /// The rolling canvas as of the last finalized frame (None when no
    /// frame finalized before the crash).
    pub canvas: Option<Vec<[u8; 3]>>,
    /// Pixels of every finalized frame (for `keep_frames` runs).
    pub frames_rgb: Vec<Vec<[u8; 3]>>,
}

/// The master's handle on its journal: an open writer plus the frame
/// directory, with IO errors degraded to a one-line warning (a failing
/// journal disk must not kill the render it exists to protect).
#[derive(Debug)]
pub struct FarmJournal {
    dir: PathBuf,
    writer: JournalWriter,
    width: u32,
    height: u32,
    broken: bool,
    disk: DiskFaults,
}

fn frame_file(dir: &Path, frame: u32) -> PathBuf {
    dir.join(format!("frame_{frame:04}.tga"))
}

/// The RunHeader payload: tag, the TCP job-header bytes (scene
/// fingerprint + adopted render knobs), and the partition scheme. Resume
/// compares these bytes exactly — any drift in scene, config or scheme is
/// a refusal, not a silent continuation.
fn run_header_payload(anim: &Animation, cfg: &FarmConfig) -> Vec<u8> {
    let mut e = Encoder::new();
    e.u8(REC_RUN_HEADER);
    e.bytes(&crate::farm::encode_job_header(anim, cfg));
    let (tag, a, b, c) = match cfg.scheme {
        PartitionScheme::SequenceDivision { adaptive } => (0u8, adaptive as u32, 0, 0),
        PartitionScheme::FrameDivision {
            tile_w,
            tile_h,
            adaptive,
        } => (1, tile_w, tile_h, adaptive as u32),
        PartitionScheme::Hybrid {
            tile_w,
            tile_h,
            subseq,
        } => (2, tile_w, tile_h, subseq),
    };
    e.u8(tag).u32(a).u32(b).u32(c);
    e.finish()
}

/// Why a journal's RunHeader is not this run's: the job header's own
/// complaint (another header version, another scene) when it has one.
fn header_mismatch(stored: &[u8], anim: &Animation) -> String {
    let mut d = Decoder::new(stored);
    let job = d.u8().and_then(|_| d.bytes()).map_err(|e| e.to_string());
    let why = job.and_then(|job| crate::farm::check_job_header(job, anim));
    why.err()
        .unwrap_or_else(|| "farm configuration mismatch".into())
}

fn unit_payload(unit: &crate::partition::RenderUnit, pixels_hash: u64) -> Vec<u8> {
    let mut e = Encoder::new();
    e.u8(REC_UNIT_DONE);
    unit.wire_encode(&mut e);
    e.u64(pixels_hash);
    e.finish()
}

fn frame_payload(frame: u32, hash: u64) -> Vec<u8> {
    let mut e = Encoder::new();
    e.u8(REC_FRAME_DONE).u32(frame).u64(hash);
    e.finish()
}

impl FarmJournal {
    /// Open (or resume) the journal for a run of `anim` under `cfg`.
    ///
    /// Fresh: creates the directory and log, writes the RunHeader.
    /// Resume: recovers the log (truncating any torn tail), validates the
    /// RunHeader byte-for-byte against this run's scene + configuration,
    /// replays the FrameDone records, re-reads and fingerprint-checks each
    /// finalized frame file, and returns the reconstructed [`ResumeState`].
    pub fn open(
        anim: &Animation,
        cfg: &FarmConfig,
        spec: &JournalSpec,
    ) -> Result<(FarmJournal, Option<ResumeState>), String> {
        std::fs::create_dir_all(&spec.dir)
            .map_err(|e| format!("create journal dir {}: {e}", spec.dir.display()))?;
        let path = spec.dir.join(JOURNAL_FILE);
        let header = run_header_payload(anim, cfg);
        let width = anim.base.camera.width();
        let height = anim.base.camera.height();

        let label = path.display().to_string();
        if !spec.resume {
            let mut writer = JournalWriter::create(&path, spec.fault)
                .map_err(|e| format!("create journal {}: {e}", path.display()))?
                .with_disk_faults(&label, spec.disk.clone());
            writer
                .append(&header)
                .map_err(|e| format!("journal run header: {e}"))?;
            return Ok((
                FarmJournal {
                    dir: spec.dir.clone(),
                    writer,
                    width,
                    height,
                    broken: false,
                    disk: spec.disk.clone(),
                },
                None,
            ));
        }

        let (writer, log) = JournalWriter::open_recover(&path, spec.fault)
            .map_err(|e| format!("recover journal {}: {e}", path.display()))?;
        let mut writer = writer.with_disk_faults(&label, spec.disk.clone());
        if log.records.is_empty() {
            // nothing durable survived (missing journal, or a crash before
            // the first record): behave exactly like a fresh run
            writer
                .append(&header)
                .map_err(|e| format!("journal run header: {e}"))?;
            return Ok((
                FarmJournal {
                    dir: spec.dir.clone(),
                    writer,
                    width,
                    height,
                    broken: false,
                    disk: spec.disk.clone(),
                },
                None,
            ));
        }
        if log.records[0] != header {
            return Err(format!(
                "journal {} was written by a different run ({}); refusing to resume",
                path.display(),
                header_mismatch(&log.records[0], anim)
            ));
        }

        let mut state = ResumeState::default();
        for rec in &log.records[1..] {
            let mut d = Decoder::new(rec);
            match d.u8().map_err(|e| format!("journal record: {e}"))? {
                REC_UNIT_DONE => {} // audit-only; unfinalized frames re-render
                REC_FRAME_DONE => {
                    let frame = d.u32().map_err(|e| format!("journal record: {e}"))?;
                    let hash = d.u64().map_err(|e| format!("journal record: {e}"))?;
                    if frame != state.next_finalize {
                        return Err(format!(
                            "journal finalized frame {frame} out of order \
                             (expected {})",
                            state.next_finalize
                        ));
                    }
                    let file = frame_file(&spec.dir, frame);
                    let bytes = std::fs::read(&file)
                        .map_err(|e| format!("read finalized {}: {e}", file.display()))?;
                    let (w, h, px) = tga_decode(&bytes)
                        .map_err(|e| format!("decode finalized {}: {e}", file.display()))?;
                    if (w, h) != (width, height) {
                        return Err(format!(
                            "finalized {} is {w}x{h}, run is {width}x{height}",
                            file.display()
                        ));
                    }
                    let canvas: Vec<[u8; 3]> = px.into_iter().map(|(r, g, b)| [r, g, b]).collect();
                    let disk_hash = crate::farm::fnv1a(canvas.iter().flatten().copied());
                    if disk_hash != hash {
                        return Err(format!(
                            "finalized {} does not match its journaled \
                             fingerprint; refusing to resume over a corrupt frame",
                            file.display()
                        ));
                    }
                    state.frame_hashes.push(hash);
                    state.frames_rgb.push(canvas.clone());
                    state.canvas = Some(canvas);
                    state.next_finalize += 1;
                }
                tag => return Err(format!("journal record with unknown tag {tag}")),
            }
        }
        Ok((
            FarmJournal {
                dir: spec.dir.clone(),
                writer,
                width,
                height,
                broken: false,
                disk: spec.disk.clone(),
            },
            Some(state),
        ))
    }

    fn degrade(&mut self, what: &str, err: std::io::Error) {
        if !self.broken {
            eprintln!("warning: journal write failed ({what}: {err}); run continues unjournaled");
            self.broken = true;
        }
    }

    /// Record one integrated unit (write-ahead, before the pixels join the
    /// pending frame).
    pub fn record_unit(&mut self, unit: &crate::partition::RenderUnit, pixels_hash: u64) {
        if self.broken {
            return;
        }
        if let Err(e) = self.writer.append(&unit_payload(unit, pixels_hash)) {
            self.degrade("unit record", e);
        }
    }

    /// Persist a finalized frame: write its pixels atomically to
    /// `frame_NNNN.tga`, then append the FrameDone record. If the injected
    /// fault has killed the writer, the frame file is also skipped — the
    /// on-disk state then matches a real crash at the fault's byte offset.
    pub fn record_frame(&mut self, frame: u32, hash: u64, canvas: &[[u8; 3]]) {
        if self.broken || !self.writer.alive() {
            return;
        }
        let file = frame_file(&self.dir, frame);
        let fault = match self.disk.check(&file.display().to_string()) {
            None => WriteFault::None,
            Some(DiskFaultKind::Enospc) => WriteFault::Enospc,
            Some(DiskFaultKind::Eio) => WriteFault::Eio,
            Some(DiskFaultKind::Torn) => WriteFault::Torn,
        };
        let bytes = tga_bytes_rgb8(self.width, self.height, canvas);
        if let Err(e) = write_atomic_with(&file, &bytes, fault) {
            self.degrade("frame file", e);
            return;
        }
        if let Err(e) = self.writer.append(&frame_payload(frame, hash)) {
            self.degrade("frame record", e);
        }
    }

    /// Total valid records in the journal (recovered + appended).
    pub fn records(&self) -> u64 {
        self.writer.records()
    }

    /// The journal directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}
