//! The farm's durable run journal: what the master writes ahead, and how
//! a restarted master resumes from it.
//!
//! A farm run's directory is its output: `run.journal` beside the
//! `frame_NNNN.tga` files, each written once, when its frame finalizes.
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
//!   debugging, not replay. They are *staged*, not synced: a unit is
//!   recorded before its frame can finalize, so the sync of its frame's
//!   FrameDone makes it durable (one journal sync per frame, not per
//!   unit). A crash loses at most the UnitDone records of frames that
//!   were not finalized, which resume re-renders anyway.
//! * **FrameDone** — one finalized frame (index + canvas fingerprint),
//!   appended and synced *after* the frame's pixels were durably written
//!   to `frame_NNNN.tga` via temp-file + fsync + rename. A FrameDone
//!   record therefore guarantees the frame file it describes exists and
//!   is whole.
//!
//! Resume is frame-granular: finalization is strictly in-order and
//! whole-frame, so `k` valid FrameDone records mean frames `0..k` are
//! done and everything from `k` on must be re-rendered. The master re-reads
//! every finalized frame file, checks it against its journaled
//! fingerprint, keeps frame `k-1`'s pixels as its rolling canvas, skips
//! every unit below `k`, and re-enqueues the rest; the scheduler's
//! fresh-queue restart semantics then guarantee byte-identical pixels,
//! exactly as they already do for worker-crash reassignment.

use crate::farm::{Canvas, FarmConfig};
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
    /// Armed disk-fault plan consulted on every journal record and frame
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

/// The master's handle on its run directory: an open record log plus the
/// frame files beside it. The frame files are the run's output, so a
/// failing record log costs records, never frames: an IO error stops the
/// records with a one-line warning and the frames keep being written.
#[derive(Debug)]
pub struct FarmJournal {
    dir: PathBuf,
    writer: JournalWriter,
    /// Set by the first failed record or frame file: no later record is
    /// written, so no FrameDone can vouch past a frame that is missing.
    records_stopped: bool,
    disk: DiskFaults,
}

fn frame_file(dir: &Path, frame: u32) -> PathBuf {
    dir.join(format!("frame_{frame:04}.tga"))
}

/// Write one frame's file, `frame_NNNN.tga` in `dir`, atomically (temp
/// file, fsync, rename): how every frame of a farm run, a service job and
/// `nowfarm render` reaches the disk.
pub fn write_frame_file(
    dir: &Path,
    frame: u32,
    canvas: &Canvas,
    fault: WriteFault,
) -> std::io::Result<()> {
    let bytes = tga_bytes_rgb8(canvas.width, canvas.height, &canvas.rgb);
    write_atomic_with(&frame_file(dir, frame), &bytes, fault)
}

/// Clear `dir` for a fresh run: remove every `frame_*.tga` and every
/// `*.tmp` an atomic write left behind, so the directory ends up holding
/// only what the new run writes.
pub fn clear_frame_files(dir: &Path) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        if name.starts_with("frame_") && name.ends_with(".tga") || name.ends_with(".tmp") {
            std::fs::remove_file(&path)?;
        }
    }
    Ok(())
}

/// The RunHeader payload: tag, the TCP job-header bytes (scene
/// fingerprint + adopted render knobs), and the partition scheme. Resume
/// compares these bytes exactly — any drift in scene, config or scheme is
/// a refusal, not a silent continuation.
fn run_header_payload(anim: &Animation, cfg: &FarmConfig) -> Vec<u8> {
    let mut e = Encoder::new();
    e.u8(REC_RUN_HEADER);
    e.bytes(&crate::farm::encode_job_header(anim, cfg));
    // frame division writes the 1 its retired `adaptive` flag held, so
    // run directories written before it went still resume
    let (tag, a, b, c) = match cfg.scheme {
        PartitionScheme::SequenceDivision { adaptive } => (0u8, adaptive as u32, 0, 0),
        PartitionScheme::FrameDivision { tile_w, tile_h } => (1, tile_w, tile_h, 1),
    };
    e.u8(tag).u32(a).u32(b).u32(c);
    e.finish()
}

/// The RunHeader's scheme tag of the retired hybrid scheme (sub-areas x
/// subsequences), which no build since resumes.
const RETIRED_HYBRID: u8 = 2;

/// Why a journal's RunHeader is not this run's: a retired scheme, else
/// the job header's own complaint (another header version, another scene)
/// when it has one.
fn header_mismatch(stored: &[u8], anim: &Animation) -> String {
    let mut d = Decoder::new(stored);
    let job = d.u8().and_then(|_| d.bytes()).map_err(|e| e.to_string());
    if job.is_ok() && d.u8() == Ok(RETIRED_HYBRID) {
        return "it used the hybrid partition scheme, which was retired; \
                render it afresh with sequence or frame division"
            .into();
    }
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
    /// finalized frame file, and restores the master's state: the frames'
    /// fingerprints go onto `frame_hashes`, the last one's pixels become
    /// `canvas`.
    ///
    /// A fresh run, and a resume that finds no record (a missing journal,
    /// or a crash before the first record), clears the directory's frame
    /// files ([`clear_frame_files`]) before the RunHeader is written; a
    /// resume that finds records deletes nothing.
    pub fn open(
        anim: &Animation,
        cfg: &FarmConfig,
        spec: &JournalSpec,
        frame_hashes: &mut Vec<u64>,
        canvas: &mut Canvas,
    ) -> Result<FarmJournal, String> {
        std::fs::create_dir_all(&spec.dir)
            .map_err(|e| format!("create journal dir {}: {e}", spec.dir.display()))?;
        let path = spec.dir.join(JOURNAL_FILE);
        let (writer, records) = if spec.resume {
            let (writer, log) = JournalWriter::open_recover(&path, spec.fault)
                .map_err(|e| format!("recover journal {}: {e}", path.display()))?;
            (writer, log.records)
        } else {
            let writer = JournalWriter::create(&path, spec.fault)
                .map_err(|e| format!("create journal {}: {e}", path.display()))?;
            (writer, Vec::new())
        };
        let mut journal = FarmJournal {
            dir: spec.dir.clone(),
            writer: writer.with_disk_faults(&path.display().to_string(), spec.disk.clone()),
            records_stopped: false,
            disk: spec.disk.clone(),
        };
        let header = run_header_payload(anim, cfg);
        let Some((stored, done)) = records.split_first() else {
            clear_frame_files(&spec.dir)
                .map_err(|e| format!("clear frame files in {}: {e}", spec.dir.display()))?;
            journal.record("run header", &header, true);
            return Ok(journal);
        };
        if *stored != header {
            return Err(format!(
                "journal {} was written by a different run ({}); refusing to resume",
                path.display(),
                header_mismatch(stored, anim)
            ));
        }
        journal.replay(done, frame_hashes, canvas)?;
        Ok(journal)
    }

    /// Replay the records after the RunHeader: every FrameDone's frame
    /// file is re-read and checked against its fingerprint, and the last
    /// one becomes the rolling canvas.
    fn replay(
        &self,
        records: &[Vec<u8>],
        frame_hashes: &mut Vec<u64>,
        canvas: &mut Canvas,
    ) -> Result<(), String> {
        for rec in records {
            let mut d = Decoder::new(rec);
            match d.u8().map_err(|e| format!("journal record: {e}"))? {
                REC_UNIT_DONE => {} // audit-only; unfinalized frames re-render
                REC_FRAME_DONE => {
                    let frame = d.u32().map_err(|e| format!("journal record: {e}"))?;
                    let hash = d.u64().map_err(|e| format!("journal record: {e}"))?;
                    let expected = frame_hashes.len();
                    if frame as usize != expected {
                        return Err(format!(
                            "journal finalized frame {frame} out of order (expected {expected})"
                        ));
                    }
                    *canvas = self.read_frame(frame, canvas)?;
                    if canvas.hash() != hash {
                        return Err(format!(
                            "finalized {} does not match its journaled \
                             fingerprint; refusing to resume over a corrupt frame",
                            frame_file(&self.dir, frame).display()
                        ));
                    }
                    frame_hashes.push(hash);
                }
                tag => return Err(format!("journal record with unknown tag {tag}")),
            }
        }
        Ok(())
    }

    /// Read back a finalized frame file's pixels, which must be the size
    /// of `like`.
    fn read_frame(&self, frame: u32, like: &Canvas) -> Result<Canvas, String> {
        let file = frame_file(&self.dir, frame);
        let bytes =
            std::fs::read(&file).map_err(|e| format!("read finalized {}: {e}", file.display()))?;
        let (w, h, px) =
            tga_decode(&bytes).map_err(|e| format!("decode finalized {}: {e}", file.display()))?;
        if (w, h) != (like.width, like.height) {
            return Err(format!(
                "finalized {} is {w}x{h}, run is {}x{}",
                file.display(),
                like.width,
                like.height
            ));
        }
        let rgb = px.into_iter().map(|(r, g, b)| [r, g, b]).collect();
        Ok(Canvas {
            width: w,
            height: h,
            rgb,
        })
    }

    /// Write one record, staged or appended. A failed one stops the
    /// records with a one-line warning; a crash stops them silently.
    fn record(&mut self, what: &str, payload: &[u8], append: bool) {
        if self.records_stopped {
            return;
        }
        let written = if append {
            self.writer.append(payload)
        } else {
            self.writer.stage(payload)
        };
        let why = match written {
            Ok(true) => return,
            Ok(false) if self.writer.crashed() => return,
            Ok(false) => "torn write".to_string(),
            Err(e) => e.to_string(),
        };
        eprintln!("warning: journal {what} failed ({why}); records stop, frame files continue");
        self.records_stopped = true;
    }

    /// Record one integrated unit (write-ahead, before the pixels join the
    /// pending frame). The record is staged: its frame's FrameDone append
    /// makes it durable.
    pub fn record_unit(&mut self, unit: &crate::partition::RenderUnit, pixels_hash: u64) {
        self.record("unit record", &unit_payload(unit, pixels_hash), false);
    }

    /// Persist a finalized frame: write its pixels atomically to
    /// `frame_NNNN.tga`, then append the FrameDone record that vouches for
    /// them. A failed frame file leaves that file absent and stops the
    /// records. A writer killed by an injected crash
    /// (`kill_after_bytes`) writes neither: the directory then matches a
    /// real crash at the fault's byte offset.
    pub fn record_frame(&mut self, frame: u32, hash: u64, canvas: &Canvas) {
        if self.writer.crashed() {
            return;
        }
        let file = frame_file(&self.dir, frame);
        let fault = match self.disk.check(&file.display().to_string()) {
            None => WriteFault::None,
            Some(DiskFaultKind::Enospc) => WriteFault::Enospc,
            Some(DiskFaultKind::Eio) => WriteFault::Eio,
            Some(DiskFaultKind::Torn) => WriteFault::Torn,
        };
        if let Err(e) = write_frame_file(&self.dir, frame, canvas, fault) {
            eprintln!(
                "warning: {} not written ({e}); records stop",
                file.display()
            );
            self.records_stopped = true;
            return;
        }
        self.record("frame record", &frame_payload(frame, hash), true);
    }

    /// Total valid records in the journal (recovered + written).
    pub fn records(&self) -> u64 {
        self.writer.records()
    }

    /// `sync_data` calls issued on the journal file by this run.
    pub fn syncs(&self) -> u64 {
        self.writer.syncs()
    }
}
