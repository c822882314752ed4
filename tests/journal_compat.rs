//! A run directory written before the job header's `coherence` byte named
//! a dirty test still resumes. That byte was 1 for every coherent run; it
//! now reads as [`DirtyTest::Exact`] (2 is [`DirtyTest::Paper`]), so an
//! older journal's RunHeader matches an exact run's byte for byte.
//!
//! `tests/golden/run_before_dirty_test/` is such a directory: a glass-ball
//! run (32x24, 3 frames, two 16x24 tiles, grid 4096, one thread worker)
//! killed just past its first FrameDone record, holding `run.journal` and
//! `frame_0000.tga` as that build wrote them.

use nowrender::anim::scenes::glassball;
use nowrender::cluster::codec::Encoder;
use nowrender::cluster::journal::{read_log, JournalFaultPlan, JournalWriter};
use nowrender::cluster::ThreadCluster;
use nowrender::core::{
    run_threads_with, CostModel, DirtyTest, FarmConfig, JournalSpec, PartitionScheme,
};
use nowrender::raytrace::RenderSettings;
use std::path::{Path, PathBuf};

/// The frame hashes of the run that wrote the directory, uninterrupted.
const HASHES: [u64; 3] = [
    12_881_970_991_632_382_239,
    11_135_265_357_300_509_311,
    14_732_805_548_544_403_319,
];

fn fixture() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/run_before_dirty_test")
}

/// A scratch copy of the fixture, which a resume writes into.
fn copy_of_fixture(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("now_compat_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir scratch");
    for name in ["run.journal", "frame_0000.tga"] {
        std::fs::copy(fixture().join(name), dir.join(name)).expect("copy fixture");
    }
    dir
}

fn cfg(dirty_test: DirtyTest) -> FarmConfig {
    FarmConfig {
        scheme: PartitionScheme::FrameDivision {
            tile_w: 16,
            tile_h: 24,
        },
        coherence: true,
        dirty_test,
        settings: RenderSettings::default(),
        cost: CostModel::default(),
        grid_voxels: 4096,
    }
}

#[test]
fn a_run_directory_written_before_dirty_tests_resumes() {
    let anim = glassball::animation_sized(32, 24, 3);
    let dir = copy_of_fixture("exact");
    let resumed = run_threads_with(
        &anim,
        &cfg(DirtyTest::Exact),
        &ThreadCluster::new(2),
        Some(&JournalSpec::resume(&dir)),
    )
    .expect("an exact run resumes the older journal");
    assert_eq!(resumed.frame_hashes, HASHES);
    // the finalized frame is kept, the other two are rendered
    let kept = std::fs::read(dir.join("frame_0000.tga")).expect("frame 0");
    assert_eq!(
        kept,
        std::fs::read(fixture().join("frame_0000.tga")).unwrap()
    );
    for f in 1..3 {
        assert!(dir.join(format!("frame_{f:04}.tga")).exists(), "frame {f}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_paper_run_refuses_the_older_journal() {
    let anim = glassball::animation_sized(32, 24, 3);
    let dir = copy_of_fixture("paper");
    let err = run_threads_with(
        &anim,
        &cfg(DirtyTest::Paper),
        &ThreadCluster::new(2),
        Some(&JournalSpec::resume(&dir)),
    )
    .expect_err("a paper run must not resume an exact run's journal");
    assert!(err.contains("refusing to resume"), "got: {err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A RunHeader ends in the scheme: a tag byte and three `u32`s. Tag 2 was
/// the hybrid scheme (sub-areas x subsequences), which no build resumes
/// any more: such a run directory is refused by naming the scheme, not
/// as a generic configuration mismatch, and without a panic.
#[test]
fn a_hybrid_run_directory_is_refused_by_name() {
    let anim = glassball::animation_sized(32, 24, 3);
    let dir = copy_of_fixture("tag2");
    let journal = dir.join("run.journal");
    let mut records = read_log(&journal).expect("fixture journal").records;
    let header = &mut records[0];
    header.truncate(header.len() - 13);
    let mut hybrid = Encoder::new();
    hybrid.u8(2).u32(16).u32(24).u32(2);
    header.extend(hybrid.finish());
    let mut writer = JournalWriter::create(&journal, JournalFaultPlan::none()).expect("create");
    for record in &records {
        writer.append(record).expect("append");
    }
    drop(writer);

    let resume = std::panic::catch_unwind(|| {
        run_threads_with(
            &anim,
            &cfg(DirtyTest::Exact),
            &ThreadCluster::new(2),
            Some(&JournalSpec::resume(&dir)),
        )
    });
    let err = resume
        .expect("a retired scheme is refused, not a panic")
        .expect_err("no build resumes a hybrid run");
    assert!(err.contains("refusing to resume"), "got: {err}");
    assert!(err.contains("hybrid partition scheme"), "got: {err}");
    assert!(!err.contains("farm configuration mismatch"), "got: {err}");
    let _ = std::fs::remove_dir_all(&dir);
}
