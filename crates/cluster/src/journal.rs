//! Append-only, CRC-checked record log — the write-ahead journal under
//! the render farm's crash-safe resume.
//!
//! The paper's premise is long renders on machines other people own and
//! reboot. PR 1 made *worker* death survivable; this module makes the
//! master's own state durable, so a master crash (power loss, OOM kill,
//! operator reboot) loses at most the in-flight work since the last
//! record. Two higher layers write this format: the per-run farm journal
//! (`now_core::journal`, one per render) and the multi-tenant service's
//! job table (`now_core::service`, `service.journal` plus one per-job
//! `run.journal` under `jobs/job_NNNNNN/`).
//!
//! ## On-disk format
//!
//! ```text
//! "NOWJRNL1"                                   8-byte file magic
//! len:u32le  crc32:u32le  payload[len]         record 0
//! len:u32le  crc32:u32le  payload[len]         record 1
//! ...
//! ```
//!
//! The CRC (the shared [`now_math::crc32`], same as the PNG encoder) is
//! over the payload only, so a torn length prefix, a torn payload and
//! trailing garbage are all caught the same way: the first frame that
//! fails to validate ends the log. Each append is `fsync`ed before it is
//! acknowledged, so an acknowledged record survives a crash.
//!
//! ## Torn-tail recovery
//!
//! [`scan`] walks frames until the first invalid one and reports
//! `valid_len`, the byte offset of the last good record end.
//! [`JournalWriter::open_recover`] physically truncates the file there and
//! resumes appending — a journal cut at *any* byte recovers to its longest
//! valid prefix, never panics, and never yields a corrupt record.
//!
//! ## Deterministic crash injection
//!
//! [`JournalFaultPlan`] is `fault.rs` aimed at the master: it gives the
//! writer a byte budget, after which every write stops exactly at the
//! budget and the writer plays dead (all later appends are dropped). The
//! on-disk state is then byte-identical to a real crash at that offset,
//! which is what the property-style resume tests enumerate.

use crate::chaos::{DiskFaultKind, DiskFaults};
use now_math::crc32;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// File magic identifying a version-1 journal.
pub const MAGIC: &[u8] = b"NOWJRNL1";

/// Upper bound on a single record's payload (64 MiB). A length prefix
/// above this is treated as corruption, which keeps a torn tail from
/// making the scanner wait on gigabytes of phantom payload.
pub const MAX_RECORD: usize = 1 << 26;

/// Deterministic crash injection for [`JournalWriter`], in the spirit of
/// [`crate::FaultPlan`]: a byte budget after which the writer dies.
#[derive(Debug, Clone, Copy, Default)]
pub struct JournalFaultPlan {
    kill_after_bytes: Option<u64>,
}

impl JournalFaultPlan {
    /// No injected faults: the writer lives for the whole run.
    pub fn none() -> Self {
        Self::default()
    }

    /// Kill the writer once it has written exactly `n` bytes (counting
    /// from this writer's creation, magic included): the write in
    /// progress is cut at the budget, synced, and every later append is
    /// silently dropped — the on-disk journal looks exactly like a crash
    /// at byte `n`.
    pub fn kill_after_bytes(mut self, n: u64) -> Self {
        self.kill_after_bytes = Some(n);
        self
    }
}

/// The result of scanning a journal: every CRC-valid record in order,
/// plus where the valid prefix ends.
#[derive(Debug, Clone, Default)]
pub struct RecoveredLog {
    /// Payloads of all valid records, in append order.
    pub records: Vec<Vec<u8>>,
    /// Byte offset of the end of each valid record — the exact set of
    /// record boundaries, which the crash-point tests enumerate.
    pub ends: Vec<u64>,
    /// Length of the valid prefix (magic + whole records). Zero when the
    /// magic itself is missing or torn.
    pub valid_len: u64,
    /// True when bytes beyond `valid_len` existed and were rejected
    /// (torn tail, trailing garbage, or a bad/short magic).
    pub torn: bool,
}

/// Scan in-memory journal bytes into a [`RecoveredLog`]. Never panics:
/// any malformed suffix simply ends the valid prefix.
pub fn scan(bytes: &[u8]) -> RecoveredLog {
    let mut log = RecoveredLog::default();
    if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
        log.torn = !bytes.is_empty();
        return log;
    }
    let mut pos = MAGIC.len();
    log.valid_len = pos as u64;
    while pos < bytes.len() {
        if bytes.len() - pos < 8 {
            log.torn = true;
            break;
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        if len > MAX_RECORD || bytes.len() - pos - 8 < len {
            log.torn = true;
            break;
        }
        let payload = &bytes[pos + 8..pos + 8 + len];
        if crc32(payload) != crc {
            log.torn = true;
            break;
        }
        pos += 8 + len;
        log.records.push(payload.to_vec());
        log.ends.push(pos as u64);
        log.valid_len = pos as u64;
    }
    log
}

/// Read and scan a journal file from disk.
pub fn read_log(path: &Path) -> io::Result<RecoveredLog> {
    let mut bytes = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut bytes)?;
    Ok(scan(&bytes))
}

fn sync_parent(path: &Path) {
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    if let Ok(d) = std::fs::File::open(dir) {
        let _ = d.sync_all();
    }
}

/// Append-only writer over the journal format, with per-append `fsync`
/// and optional deterministic crash injection.
#[derive(Debug)]
pub struct JournalWriter {
    file: std::fs::File,
    /// Bytes written by *this* writer instance (what the fault budget
    /// counts), not the total file length after recovery.
    written: u64,
    records: u64,
    dead: bool,
    fault: JournalFaultPlan,
    /// Optional armed disk-fault plan, consulted once per append under
    /// the given label (typically the journal's path).
    disk: Option<(String, DiskFaults)>,
}

impl JournalWriter {
    /// Create a fresh journal at `path` (truncating any existing file)
    /// and write the magic.
    pub fn create(path: &Path, fault: JournalFaultPlan) -> io::Result<JournalWriter> {
        let file = std::fs::OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        let mut w = JournalWriter {
            file,
            written: 0,
            records: 0,
            dead: false,
            fault,
            disk: None,
        };
        w.write_limited(MAGIC)?;
        if !w.dead {
            w.file.sync_data()?;
            sync_parent(path);
        }
        Ok(w)
    }

    /// Open an existing journal for appending, first truncating any torn
    /// tail to the last CRC-valid record. A missing file (or one whose
    /// magic is itself torn) starts a fresh journal; the returned
    /// [`RecoveredLog`] holds whatever valid records survived.
    pub fn open_recover(
        path: &Path,
        fault: JournalFaultPlan,
    ) -> io::Result<(JournalWriter, RecoveredLog)> {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let log = scan(&bytes);
        if log.valid_len == 0 {
            let w = JournalWriter::create(path, fault)?;
            return Ok((w, log));
        }
        let mut file = std::fs::OpenOptions::new().write(true).open(path)?;
        if log.torn {
            file.set_len(log.valid_len)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(log.valid_len))?;
        let w = JournalWriter {
            file,
            written: 0,
            records: log.records.len() as u64,
            dead: false,
            fault,
            disk: None,
        };
        Ok((w, log))
    }

    /// Attach an armed [`DiskFaults`] plan: every append first consults
    /// the plan under `label` (usually the journal's path) and suffers
    /// whichever fault trips — `ENOSPC`/`EIO` surface as the append's
    /// `Err`, a torn write cuts the record partway and kills the writer
    /// exactly like a [`JournalFaultPlan`] budget crash.
    pub fn with_disk_faults(mut self, label: &str, faults: DiskFaults) -> JournalWriter {
        self.disk = Some((label.to_string(), faults));
        self
    }

    /// Write only `prefix` of the bytes that were due, sync, and play
    /// dead: what a crash partway through a write leaves on disk.
    fn die_after(&mut self, prefix: &[u8]) -> io::Result<()> {
        self.file.write_all(prefix)?;
        self.written += prefix.len() as u64;
        let _ = self.file.sync_data();
        self.dead = true;
        Ok(())
    }

    /// Write respecting the fault budget: once cumulative bytes would
    /// exceed it, write exactly up to the budget and die.
    fn write_limited(&mut self, buf: &[u8]) -> io::Result<()> {
        if self.dead {
            return Ok(());
        }
        if let Some(budget) = self.fault.kill_after_bytes {
            let remaining = budget.saturating_sub(self.written);
            if (buf.len() as u64) > remaining {
                return self.die_after(&buf[..remaining as usize]);
            }
        }
        self.file.write_all(buf)?;
        self.written += buf.len() as u64;
        Ok(())
    }

    /// Append one record (length prefix, CRC, payload) and `fsync` it.
    /// Returns `Ok(true)` when the record is durably on disk, `Ok(false)`
    /// when the writer is dead (fault injected) and the record was
    /// dropped or cut short.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<bool> {
        assert!(payload.len() <= MAX_RECORD, "journal record too large");
        if self.dead {
            return Ok(false);
        }
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        if let Some((label, faults)) = &self.disk {
            match faults.check(label) {
                None => {}
                // cut the record partway (as if power died mid-write);
                // recovery truncates the torn tail
                Some(DiskFaultKind::Torn) => {
                    self.die_after(&frame[..frame.len() / 2])?;
                    return Ok(false);
                }
                Some(kind) => return Err(kind.to_io_error()),
            }
        }
        self.write_limited(&frame)?;
        if self.dead {
            return Ok(false);
        }
        self.file.sync_data()?;
        self.records += 1;
        Ok(true)
    }

    /// False once the fault plan has killed the writer.
    pub fn alive(&self) -> bool {
        !self.dead
    }

    /// Total valid records in the journal: those recovered at open plus
    /// those appended since.
    pub fn records(&self) -> u64 {
        self.records
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("now_journal_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir scratch");
        dir.join("run.journal")
    }

    fn cleanup(path: &Path) {
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    /// A clean journal with a few records round-trips exactly.
    #[test]
    fn append_then_read_roundtrip() {
        let path = scratch("roundtrip");
        let payloads: [&[u8]; 3] = [b"alpha", b"", b"a longer third record payload"];
        let mut w = JournalWriter::create(&path, JournalFaultPlan::none()).unwrap();
        for p in payloads {
            assert!(w.append(p).unwrap());
        }
        assert_eq!(w.records(), 3);

        let log = read_log(&path).unwrap();
        assert!(!log.torn);
        assert_eq!(log.records, payloads.map(<[u8]>::to_vec));
        assert_eq!(log.ends.len(), 3);
        assert_eq!(*log.ends.last().unwrap(), log.valid_len);
        cleanup(&path);
    }

    /// Truncating the file at EVERY byte offset recovers to the longest
    /// valid record prefix — the acceptance criterion's torn-tail sweep.
    #[test]
    fn truncation_at_every_byte_recovers_valid_prefix() {
        let path = scratch("truncate");
        let payloads: [&[u8]; 3] = [b"one", b"twotwo", b"three-three"];
        let mut w = JournalWriter::create(&path, JournalFaultPlan::none()).unwrap();
        for p in payloads {
            w.append(p).unwrap();
        }
        let full = std::fs::read(&path).unwrap();
        let clean = scan(&full);
        assert_eq!(clean.ends.len(), 3);

        for cut in 0..=full.len() {
            let log = scan(&full[..cut]);
            // expected: all records wholly inside the cut
            let expect = clean.ends.iter().filter(|&&e| e <= cut as u64).count();
            assert_eq!(log.records.len(), expect, "cut at {cut}");
            assert_eq!(
                log.records,
                payloads[..expect]
                    .iter()
                    .map(|p| p.to_vec())
                    .collect::<Vec<_>>()
            );
            // torn iff the cut is not exactly a record boundary (or start)
            let at_boundary = cut == full.len()
                || clean.ends.contains(&(cut as u64))
                || (cut == MAGIC.len() && expect == 0);
            assert_eq!(log.torn, cut != 0 && !at_boundary, "torn flag at {cut}");
        }
        cleanup(&path);
    }

    /// open_recover physically truncates a torn tail and appends cleanly
    /// after it.
    #[test]
    fn open_recover_truncates_and_appends() {
        let path = scratch("recover");
        let mut w = JournalWriter::create(&path, JournalFaultPlan::none()).unwrap();
        w.append(b"kept").unwrap();
        w.append(b"doomed").unwrap();
        drop(w);

        // tear the last record: chop 3 bytes off the tail
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();

        let (mut w, log) = JournalWriter::open_recover(&path, JournalFaultPlan::none()).unwrap();
        assert!(log.torn);
        assert_eq!(log.records, vec![b"kept".to_vec()]);
        assert!(w.append(b"after").unwrap());
        drop(w);

        let log = read_log(&path).unwrap();
        assert!(!log.torn);
        assert_eq!(log.records, vec![b"kept".to_vec(), b"after".to_vec()]);
        cleanup(&path);
    }

    /// Trailing garbage — including 0xFF bytes that decode as a huge
    /// length prefix — is rejected without panicking or over-reading.
    #[test]
    fn trailing_garbage_rejected() {
        let path = scratch("garbage");
        let mut w = JournalWriter::create(&path, JournalFaultPlan::none()).unwrap();
        w.append(b"good").unwrap();
        drop(w);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0xFF; 32]);
        std::fs::write(&path, &bytes).unwrap();

        let log = read_log(&path).unwrap();
        assert!(log.torn);
        assert_eq!(log.records, vec![b"good".to_vec()]);

        let (_, recovered) = JournalWriter::open_recover(&path, JournalFaultPlan::none()).unwrap();
        assert_eq!(recovered.records, vec![b"good".to_vec()]);
        // the garbage is physically gone
        assert!(!read_log(&path).unwrap().torn);
        cleanup(&path);
    }

    /// A corrupt magic (or missing file) restarts the journal fresh.
    #[test]
    fn bad_magic_starts_fresh() {
        let path = scratch("magic");
        std::fs::write(&path, b"NOT A JOURNAL AT ALL").unwrap();
        let (mut w, log) = JournalWriter::open_recover(&path, JournalFaultPlan::none()).unwrap();
        assert!(log.torn);
        assert!(log.records.is_empty());
        w.append(b"fresh").unwrap();
        drop(w);
        assert_eq!(read_log(&path).unwrap().records, vec![b"fresh".to_vec()]);

        let missing = path.with_file_name("never_existed.journal");
        let (_, log) = JournalWriter::open_recover(&missing, JournalFaultPlan::none()).unwrap();
        assert!(!log.torn);
        assert!(log.records.is_empty());
        cleanup(&path);
    }

    /// A flipped payload byte invalidates that record and everything
    /// after it, but never yields a corrupt payload.
    #[test]
    fn corrupt_payload_byte_detected() {
        let path = scratch("corrupt");
        let mut w = JournalWriter::create(&path, JournalFaultPlan::none()).unwrap();
        w.append(b"first").unwrap();
        w.append(b"second").unwrap();
        drop(w);
        let mut bytes = std::fs::read(&path).unwrap();
        // flip one byte inside the first record's payload
        let target = MAGIC.len() + 8 + 2;
        bytes[target] ^= 0x40;
        let log = scan(&bytes);
        assert!(log.torn);
        assert!(log.records.is_empty(), "corrupt record must not surface");
        cleanup(&path);
    }

    /// The fault budget cuts the write at exactly the requested byte and
    /// kills everything after; the resulting file recovers to the records
    /// wholly before the cut.
    #[test]
    fn fault_budget_kills_at_exact_byte() {
        let path = scratch("fault");
        // budget lands mid-way through the second record's payload
        let first_len = (MAGIC.len() + 8 + 4) as u64;
        let cut = first_len + 8 + 2;
        let mut w =
            JournalWriter::create(&path, JournalFaultPlan::none().kill_after_bytes(cut)).unwrap();
        assert!(w.append(b"aaaa").unwrap());
        assert!(
            !w.append(b"bbbb").unwrap(),
            "append past budget must report dropped"
        );
        assert!(!w.alive());
        assert!(!w.append(b"cccc").unwrap(), "dead writer drops everything");
        assert_eq!(w.written, cut);
        drop(w);

        assert_eq!(std::fs::metadata(&path).unwrap().len(), cut);
        let log = read_log(&path).unwrap();
        assert!(log.torn);
        assert_eq!(log.records, vec![b"aaaa".to_vec()]);
        cleanup(&path);
    }

    /// Disk faults surface as real OS errors on the failing append and a
    /// torn write recovers to the records wholly before it.
    #[test]
    fn disk_faults_hit_the_scheduled_append() {
        use crate::chaos::DiskFaultPlan;
        let path = scratch("disk");
        let faults = DiskFaultPlan::none()
            .enospc_at("run.journal", 1)
            .torn_at("run.journal", 3)
            .arm();
        let mut w = JournalWriter::create(&path, JournalFaultPlan::none())
            .unwrap()
            .with_disk_faults(path.to_str().unwrap(), faults.clone());
        assert!(w.append(b"first").unwrap());
        let err = w.append(b"no-space").unwrap_err();
        assert_eq!(err.raw_os_error(), Some(28), "ENOSPC on the 2nd append");
        assert!(w.alive(), "an errored append does not kill the writer");
        assert!(w.append(b"third").unwrap());
        assert!(!w.append(b"torn").unwrap(), "torn write reports dropped");
        assert!(!w.alive());
        assert_eq!(faults.injected(), 2);
        drop(w);

        let (_, log) = JournalWriter::open_recover(&path, JournalFaultPlan::none()).unwrap();
        assert_eq!(log.records, vec![b"first".to_vec(), b"third".to_vec()]);
        cleanup(&path);
    }

    /// A budget of 0 kills even the magic: recovery then starts fresh.
    #[test]
    fn zero_budget_kills_magic() {
        let path = scratch("zero");
        let w = JournalWriter::create(&path, JournalFaultPlan::none().kill_after_bytes(0)).unwrap();
        assert!(!w.alive());
        drop(w);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        let (mut w, log) = JournalWriter::open_recover(&path, JournalFaultPlan::none()).unwrap();
        assert!(log.records.is_empty());
        w.append(b"ok").unwrap();
        cleanup(&path);
    }
}
