//! Property-style crash/resume tests for the durable run journal.
//!
//! The oracle everywhere: a resumed run's frame hashes must be
//! byte-identical to an uninterrupted run's, no matter where the crash
//! landed — at a record boundary, inside a length prefix, inside a
//! payload, or inside the file magic itself. Crash points are enumerated
//! from a completed probe journal, then injected deterministically with
//! [`JournalFaultPlan`], which cuts the journal at an exact byte and
//! drops everything after — the on-disk state of a real `kill -9`. Each
//! cut is also resumed with a zero-filled tail behind it, which a power
//! cut can leave on a filesystem that commits the size before the data.

use nowrender::anim::scenes::glassball;
use nowrender::anim::Animation;
use nowrender::cluster::journal::{read_log, JournalFaultPlan, MAGIC};
use nowrender::cluster::{ChaosPlan, ConnectConfig, ThreadCluster};
use nowrender::core::{
    bind_tcp_master, run_sim_with, run_tcp_master_with, run_threads, run_threads_with,
    serve_tcp_worker, CostModel, DirtyTest, FarmConfig, FarmResult, JournalSpec, PartitionScheme,
    TcpFarmConfig,
};
use nowrender::math::Color;
use nowrender::raytrace::RenderSettings;
use std::path::{Path, PathBuf};

const W: u32 = 32;
const H: u32 = 24;
const FRAMES: usize = 3;

fn anim() -> Animation {
    glassball::animation_sized(W, H, FRAMES)
}

/// Two tiles per frame, so frames interleave across workers and a crash
/// can land between a frame's two region reports.
fn cfg() -> FarmConfig {
    FarmConfig {
        scheme: PartitionScheme::FrameDivision {
            tile_w: 16,
            tile_h: 24,
        },
        coherence: true,
        dirty_test: DirtyTest::Exact,
        settings: RenderSettings::default(),
        cost: CostModel::default(),
        grid_voxels: 4096,
    }
}

fn reference_hashes() -> Vec<u64> {
    run_threads(&anim(), &cfg(), 2).frame_hashes
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("now_resume_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir scratch");
    dir
}

/// Crash offsets derived from a completed journal: byte 0, inside the
/// magic, the magic boundary, and for every record a cut inside its
/// length prefix, inside its payload, and at its end boundary.
fn crash_points(journal: &Path) -> Vec<u64> {
    let log = read_log(journal).expect("read probe journal");
    assert!(!log.torn, "probe journal must be clean");
    let mut cuts = vec![0, 3, MAGIC.len() as u64];
    let mut start = MAGIC.len() as u64;
    for &end in &log.ends {
        cuts.push(start + 1); // torn length prefix
        cuts.push(start + 9); // torn payload
        cuts.push(end); // clean record boundary
        start = end;
    }
    cuts
}

fn journal_path(dir: &Path) -> PathBuf {
    dir.join("run.journal")
}

/// Zero-tail lengths resumed behind every crash point.
const ZERO_PADS: [usize; 3] = [8, 64, 4096];

/// Copy a crashed run's directory (journal and frame files) to `to` and
/// append `pad` zero bytes to the copy's journal.
fn zero_padded_copy(from: &Path, to: &Path, pad: usize) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).expect("mkdir padded copy");
    for entry in std::fs::read_dir(from).expect("read crashed dir") {
        let entry = entry.expect("dir entry");
        std::fs::copy(entry.path(), to.join(entry.file_name())).expect("copy");
    }
    let path = journal_path(to);
    let mut bytes = std::fs::read(&path).expect("read crashed journal");
    bytes.resize(bytes.len() + pad, 0);
    std::fs::write(&path, &bytes).expect("pad journal");
}

#[test]
fn threads_crash_at_every_record_boundary_resumes_byte_identical() {
    let anim = anim();
    let cfg = cfg();
    let reference = reference_hashes();

    // probe: one clean journaled run to learn the record layout
    let probe = scratch("probe_threads");
    run_threads_with(
        &anim,
        &cfg,
        &ThreadCluster::new(2),
        Some(&JournalSpec::new(&probe)),
    )
    .expect("probe run");
    let cuts = crash_points(&journal_path(&probe));
    // header + 6 units + 3 frames = 10 records, 3 cuts each, plus 3 early
    assert_eq!(cuts.len(), 33, "unexpected cut set: {cuts:?}");

    for cut in cuts {
        let dir = scratch(&format!("threads_cut{cut}"));
        // the run whose journal dies at byte `cut`: it still completes in
        // memory (correctly), but like a killed process, only what reached
        // disk before the cut survives for the resume
        let spec =
            JournalSpec::new(&dir).with_fault(JournalFaultPlan::none().kill_after_bytes(cut));
        let crashed = run_threads_with(&anim, &cfg, &ThreadCluster::new(2), Some(&spec))
            .expect("crashed run");
        assert_eq!(crashed.frame_hashes, reference);

        for pad in ZERO_PADS {
            let padded = scratch(&format!("threads_cut{cut}_zeros{pad}"));
            zero_padded_copy(&dir, &padded, pad);
            let resumed = run_threads_with(
                &anim,
                &cfg,
                &ThreadCluster::new(2),
                Some(&JournalSpec::resume(&padded)),
            )
            .expect("resume over a zero tail");
            assert_eq!(
                resumed.frame_hashes, reference,
                "resume after a crash at byte {cut} plus {pad} zero bytes must be byte-identical"
            );
            let _ = std::fs::remove_dir_all(&padded);
        }

        let resumed = run_threads_with(
            &anim,
            &cfg,
            &ThreadCluster::new(2),
            Some(&JournalSpec::resume(&dir)),
        )
        .expect("resume run");
        assert_eq!(
            resumed.frame_hashes, reference,
            "resume after a crash at byte {cut} must be byte-identical"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&probe);
}

/// Run a TCP master with two in-process worker threads. Worker errors are
/// ignored: when a resumed master finds the journal already complete it
/// exits without accepting, and the workers simply fail to connect.
fn run_tcp(anim: &Animation, cfg: &FarmConfig, spec: Option<&JournalSpec>) -> FarmResult {
    let listener = bind_tcp_master("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let conn = ConnectConfig {
        attempts: 4,
        backoff_s: 0.05,
        read_timeout_s: 10.0,
        ..ConnectConfig::default()
    };
    let workers: Vec<_> = (0..2)
        .map(|_| {
            let (anim, cfg, addr, conn) = (anim.clone(), cfg.clone(), addr.clone(), conn.clone());
            std::thread::spawn(move || {
                let _ = serve_tcp_worker(&anim, &cfg, &addr, &conn);
            })
        })
        .collect();
    let result =
        run_tcp_master_with(listener, anim, cfg, &TcpFarmConfig::new(2), spec).expect("master");
    for w in workers {
        let _ = w.join();
    }
    result
}

#[test]
fn tcp_crash_at_every_record_boundary_resumes_byte_identical() {
    let anim = anim();
    let cfg = cfg();
    let reference = reference_hashes();

    let probe = scratch("probe_tcp");
    run_tcp(&anim, &cfg, Some(&JournalSpec::new(&probe)));
    // record boundaries plus two representative mid-record cuts keep the
    // TCP sweep (which pays real socket setup per run) tractable
    let log = read_log(&journal_path(&probe)).expect("probe journal");
    let mut cuts: Vec<u64> = log.ends.clone();
    cuts.push(MAGIC.len() as u64 + 1);
    cuts.push(log.ends[0] + 9);

    for cut in cuts {
        let dir = scratch(&format!("tcp_cut{cut}"));
        let spec =
            JournalSpec::new(&dir).with_fault(JournalFaultPlan::none().kill_after_bytes(cut));
        let crashed = run_tcp(&anim, &cfg, Some(&spec));
        assert_eq!(crashed.frame_hashes, reference);

        let resumed = run_tcp(&anim, &cfg, Some(&JournalSpec::resume(&dir)));
        assert_eq!(
            resumed.frame_hashes, reference,
            "tcp resume after a crash at byte {cut} must be byte-identical"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&probe);
}

#[test]
fn sim_resume_restores_canvas_and_kept_frames() {
    let anim = anim();
    let cfg = cfg();
    let cluster = nowrender::cluster::SimCluster::paper();

    let clean_dir = scratch("sim_clean");
    let clean = run_sim_with(&anim, &cfg, &cluster, Some(&JournalSpec::new(&clean_dir)))
        .expect("clean run");

    // probe deterministically (the simulator's record order is stable),
    // then cut right after the second FrameDone record
    let probe = scratch("probe_sim");
    run_sim_with(&anim, &cfg, &cluster, Some(&JournalSpec::new(&probe))).expect("probe");
    let log = read_log(&journal_path(&probe)).expect("probe journal");
    let frame_done_ends: Vec<u64> = log
        .records
        .iter()
        .zip(&log.ends)
        .filter(|(r, _)| r[0] == 3)
        .map(|(_, &e)| e)
        .collect();
    assert_eq!(frame_done_ends.len(), FRAMES);
    let cut = frame_done_ends[1];

    let dir = scratch("sim_cut");
    let spec = JournalSpec::new(&dir).with_fault(JournalFaultPlan::none().kill_after_bytes(cut));
    run_sim_with(&anim, &cfg, &cluster, Some(&spec)).expect("crashed run");

    let resumed =
        run_sim_with(&anim, &cfg, &cluster, Some(&JournalSpec::resume(&dir))).expect("resume run");
    assert_eq!(resumed.frame_hashes, clean.frame_hashes);
    for f in 0..FRAMES {
        let name = format!("frame_{f:04}.tga");
        assert_eq!(
            std::fs::read(dir.join(&name)).expect("resumed frame"),
            std::fs::read(clean_dir.join(&name)).expect("clean frame"),
            "{name}: the journal-restored prefix and the re-rendered rest \
             must be byte-identical to a clean run's frame files"
        );
    }
    assert!(
        resumed.resumed_units > 0,
        "frames 0..2 were restored, not re-rendered"
    );
    for d in [probe, dir, clean_dir] {
        let _ = std::fs::remove_dir_all(d);
    }
}

#[test]
fn resume_of_complete_journal_rerenders_nothing() {
    let anim = anim();
    let cfg = cfg();
    let dir = scratch("complete");
    let first = run_threads_with(
        &anim,
        &cfg,
        &ThreadCluster::new(2),
        Some(&JournalSpec::new(&dir)),
    )
    .expect("first run");

    // trailing garbage on top of the complete journal must be shrugged off
    let path = journal_path(&dir);
    let mut bytes = std::fs::read(&path).expect("read journal");
    bytes.extend_from_slice(&[0xFF; 64]);
    std::fs::write(&path, &bytes).expect("tear journal");

    let resumed = run_threads_with(
        &anim,
        &cfg,
        &ThreadCluster::new(2),
        Some(&JournalSpec::resume(&dir)),
    )
    .expect("resume run");
    assert_eq!(resumed.frame_hashes, first.frame_hashes);
    assert_eq!(resumed.units_done, 0, "no unit re-rendered");
    assert_eq!(resumed.resumed_units, first.units_done);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_rejects_mismatched_scene_and_config() {
    let anim = anim();
    let cfg = cfg();
    let dir = scratch("mismatch");
    run_threads_with(
        &anim,
        &cfg,
        &ThreadCluster::new(2),
        Some(&JournalSpec::new(&dir)),
    )
    .expect("first run");

    // a different scene (one frame longer) must be refused
    let other = glassball::animation_sized(W, H, FRAMES + 1);
    let err = run_threads_with(
        &other,
        &cfg,
        &ThreadCluster::new(2),
        Some(&JournalSpec::resume(&dir)),
    )
    .expect_err("mismatched scene must not resume");
    assert!(err.contains("refusing to resume"), "got: {err}");

    // same scene, different partition scheme: also refused
    let mut other_cfg = cfg.clone();
    other_cfg.scheme = PartitionScheme::SequenceDivision { adaptive: true };
    let err = run_threads_with(
        &anim,
        &other_cfg,
        &ThreadCluster::new(2),
        Some(&JournalSpec::resume(&dir)),
    )
    .expect_err("mismatched scheme must not resume");
    assert!(err.contains("refusing to resume"), "got: {err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// An edit that keeps the scene's shape (size, frames, object, light and
/// track counts) must still be refused: the journal vouches only for
/// frames of the scene it was written for.
#[test]
fn resume_refuses_a_scene_edited_in_place() {
    let anim = anim();
    let cfg = cfg();
    let dir = scratch("edited");
    run_threads_with(
        &anim,
        &cfg,
        &ThreadCluster::new(2),
        Some(&JournalSpec::new(&dir)),
    )
    .expect("first run");

    let mut edited = anim.clone();
    edited.base.background = Color::gray(0.25);
    let err = run_threads_with(
        &edited,
        &cfg,
        &ThreadCluster::new(2),
        Some(&JournalSpec::resume(&dir)),
    )
    .expect_err("an edited scene must not resume");
    assert!(err.contains("refusing to resume"), "got: {err}");
    assert!(err.contains("scene mismatch"), "got: {err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_with_no_journal_behaves_as_fresh_run() {
    let anim = anim();
    let cfg = cfg();
    let dir = scratch("fresh");
    let result = run_threads_with(
        &anim,
        &cfg,
        &ThreadCluster::new(2),
        Some(&JournalSpec::resume(&dir)),
    )
    .expect("resume of an empty dir");
    assert_eq!(result.frame_hashes, reference_hashes());
    assert_eq!(result.resumed_units, 0);
    // and the fresh run journaled itself: header + units + frames
    let log = read_log(&journal_path(&dir)).expect("journal written");
    assert_eq!(
        log.records.len() as u64,
        1 + result.units_done + FRAMES as u64
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn journaled_run_persists_every_finalized_frame() {
    let anim = anim();
    let cfg = cfg();
    let dir = scratch("frames");
    run_threads_with(
        &anim,
        &cfg,
        &ThreadCluster::new(2),
        Some(&JournalSpec::new(&dir)),
    )
    .expect("journaled run");
    for f in 0..FRAMES {
        let frame = dir.join(format!("frame_{f:04}.tga"));
        assert!(frame.exists(), "missing {}", frame.display());
        assert!(
            !dir.join(format!("frame_{f:04}.tga.tmp")).exists(),
            "leftover temp file for frame {f}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A threads run into `dir` under the disk faults of a chaos `spec`,
/// with how many of them fired.
fn run_with_disk_faults(dir: &Path, spec: &str) -> (FarmResult, u64) {
    let disk = spec.parse::<ChaosPlan>().expect("chaos spec").disk.arm();
    let result = run_threads_with(
        &anim(),
        &cfg(),
        &ThreadCluster::new(2),
        Some(&JournalSpec::new(dir).with_disk_faults(disk.clone())),
    )
    .expect("run starts");
    (result, disk.injected())
}

/// A failing record log costs records, never frames: with the journal's
/// fourth record write refused for a full disk, or torn, or its first
/// (the RunHeader) refused, every frame file is still written,
/// byte-identical to a clean run's.
#[test]
fn frame_files_outlive_a_failing_journal() {
    let clean = scratch("clean_files");
    run_threads_with(
        &anim(),
        &cfg(),
        &ThreadCluster::new(2),
        Some(&JournalSpec::new(&clean)),
    )
    .expect("clean run");
    for (i, (fault, kept)) in [("enospc@3", 3), ("torn@3", 3), ("enospc@0", 0)]
        .into_iter()
        .enumerate()
    {
        let dir = scratch(&format!("failing_{i}"));
        let (result, fired) = run_with_disk_faults(&dir, &format!("disk=run.journal:{fault}"));
        assert_eq!(fired, 1, "the scheduled {fault} fault fired");
        assert_eq!(result.frame_hashes, reference_hashes());
        for f in 0..FRAMES {
            let name = format!("frame_{f:04}.tga");
            assert_eq!(
                std::fs::read(dir.join(&name)).unwrap_or_default(),
                std::fs::read(clean.join(&name)).expect("clean frame"),
                "{fault}: {name}"
            );
        }
        let log = read_log(&journal_path(&dir)).expect("journal");
        assert_eq!(log.records.len(), kept, "{fault}: the records stopped");
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&clean);
}

/// A frame file that cannot be written is the only one missing, and it
/// stops the records there: no FrameDone vouches past it, so a resume
/// re-renders from that frame and completes with the reference hashes.
#[test]
fn a_failed_frame_file_is_the_only_one_missing_and_resume_restores_it() {
    let dir = scratch("eio");
    let (result, fired) = run_with_disk_faults(&dir, "disk=frame_0001:eio@0");
    assert_eq!(fired, 1, "the scheduled frame fault fired");
    assert_eq!(result.frame_hashes, reference_hashes());
    for f in 0..FRAMES {
        let present = dir.join(format!("frame_{f:04}.tga")).exists();
        assert_eq!(present, f != 1, "frame {f}");
    }
    let log = read_log(&journal_path(&dir)).expect("journal");
    let vouched = log.records.iter().filter(|r| r[0] == 3).count();
    assert_eq!(vouched, 1, "only frame 0 precedes the missing file");

    let resumed = run_threads_with(
        &anim(),
        &cfg(),
        &ThreadCluster::new(2),
        Some(&JournalSpec::resume(&dir)),
    )
    .expect("resume run");
    assert_eq!(resumed.frame_hashes, reference_hashes());
    assert!(resumed.resumed_units > 0, "frame 0 was restored");
    assert!(dir.join("frame_0001.tga").exists());
    let _ = std::fs::remove_dir_all(&dir);
}
