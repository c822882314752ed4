//! Multi-process TCP farm acceptance tests.
//!
//! The oracle for the whole `net` transport: a master process plus two
//! worker processes on localhost must produce frame hashes byte-identical
//! to the single-process thread backend — including when one worker
//! process is killed mid-run and its leases recover on the survivor.
//! A run's `--out` directory is its journal: it holds `run.journal` and
//! one Targa file per frame, written once, and nothing else.

use nowrender::anim::scenes::newton;
use nowrender::core::{run_threads, CostModel, DirtyTest, FarmConfig, PartitionScheme};
use nowrender::raytrace::image_io::tga_decode;
use nowrender::raytrace::RenderSettings;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// The scene spec both processes pass to `nowfarm`, and its dimensions.
const SCENE: &str = "demo:newton:6:64x48";
const W: u32 = 64;
const H: u32 = 48;
const FRAMES: usize = 6;

/// The configuration `nowfarm master` builds for `SCENE` with default
/// flags (frame-division scheme, coherence on, 24^3 grid).
fn master_cfg() -> FarmConfig {
    FarmConfig {
        scheme: PartitionScheme::FrameDivision {
            tile_w: W.div_ceil(4),
            tile_h: H.div_ceil(3),
        },
        coherence: true,
        dirty_test: DirtyTest::Exact,
        settings: RenderSettings::default(),
        cost: CostModel::default(),
        grid_voxels: 24 * 24 * 24,
    }
}

/// Single-process reference: the thread backend on the same scene.
fn reference_hashes() -> Vec<u64> {
    let anim = newton::animation_sized(W, H, FRAMES);
    run_threads(&anim, &master_cfg(), 2).frame_hashes
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nowfarm_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir scratch");
    dir
}

/// Spawn `nowfarm master` and return the child plus the address it
/// printed after binding (port 0, so every test run gets a fresh port).
fn spawn_master(dir: &Path, hashes: &Path) -> (Child, String) {
    let mut master = Command::new(env!("CARGO_BIN_EXE_nowfarm"))
        .args(["master", SCENE, "--listen", "127.0.0.1:0", "--workers", "2"])
        .arg("--hashes")
        .arg(hashes)
        .arg("--out")
        .arg(dir.join("frames"))
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn master");
    let stdout = master.stdout.take().expect("master stdout");
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("master exited before printing its address")
            .expect("read master stdout");
        if let Some(addr) = line.strip_prefix("listening on ") {
            break addr.to_string();
        }
    };
    // keep draining so the master never blocks on a full stdout pipe
    std::thread::spawn(move || for _ in lines.by_ref() {});
    (master, addr)
}

fn spawn_worker(addr: &str) -> Child {
    Command::new(env!("CARGO_BIN_EXE_nowfarm"))
        .args(["worker", SCENE, "--connect", addr])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn worker")
}

fn read_hashes(path: &Path) -> Vec<u64> {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    text.lines()
        .map(|l| u64::from_str_radix(l.trim(), 16).expect("hex hash line"))
        .collect()
}

/// Every file of a run directory by name, with its bytes.
fn dir_files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|entry| {
            let path = entry.expect("dir entry").path();
            let name = path
                .file_name()
                .expect("name")
                .to_string_lossy()
                .into_owned();
            (name, std::fs::read(&path).expect("read run file"))
        })
        .collect()
}

/// The run directory holds exactly `run.journal` and one frame file per
/// frame, and each frame decodes to pixels whose FNV-1a over the RGB
/// bytes (the fingerprint the master takes of its canvas) is that
/// frame's `--hashes` line.
fn check_run_dir(dir: &Path, hashes: &Path) {
    let files = dir_files(dir);
    let mut want: Vec<String> = (0..FRAMES).map(|f| format!("frame_{f:04}.tga")).collect();
    want.push("run.journal".into());
    assert_eq!(files.keys().cloned().collect::<Vec<_>>(), want);
    for (f, hash) in read_hashes(hashes).into_iter().enumerate() {
        let (w, h, px) = tga_decode(&files[&format!("frame_{f:04}.tga")]).expect("tga");
        assert_eq!((w, h), (W, H));
        let fnv = px
            .into_iter()
            .flat_map(|(r, g, b)| [r, g, b])
            .fold(0xcbf29ce484222325u64, |h, b| {
                (h ^ b as u64).wrapping_mul(0x100000001b3)
            });
        assert_eq!(fnv, hash, "frame {f} on disk is not the frame hashed");
    }
}

/// `nowfarm SUB SCENE ... --resume` over a finished run directory: it
/// renders no unit and leaves every file byte-identical.
fn resume_finished_run(sub_args: &[&str], dir: &Path, hashes: &Path) {
    let before = dir_files(dir);
    let out = Command::new(env!("CARGO_BIN_EXE_nowfarm"))
        .args(sub_args)
        .arg("--out")
        .arg(dir)
        .arg("--hashes")
        .arg(hashes)
        .arg("--resume")
        .stderr(Stdio::null())
        .output()
        .expect("run resume");
    assert!(out.status.success(), "resume exited with {}", out.status);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains(" rays, 0 units,"), "{stdout}");
    assert!(dir_files(dir) == before, "the resume rewrote a file");
    assert_eq!(read_hashes(hashes), reference_hashes());
}

#[test]
fn farm_writes_each_frame_once_into_its_run_directory() {
    let dir = scratch_dir("farm");
    let (run, hashes) = (dir.join("run"), dir.join("hashes.txt"));
    let status = Command::new(env!("CARGO_BIN_EXE_nowfarm"))
        .args(["farm", SCENE, "--threads", "2", "--out"])
        .arg(&run)
        .arg("--hashes")
        .arg(&hashes)
        .stdout(Stdio::null())
        .status()
        .expect("spawn farm");
    assert!(status.success(), "farm exited with {status}");
    assert_eq!(read_hashes(&hashes), reference_hashes());
    check_run_dir(&run, &hashes);
    resume_finished_run(&["farm", SCENE, "--threads", "2"], &run, &hashes);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A fresh `farm` or `render` run owns its `--out` directory: a shorter
/// run into a used one leaves none of the longer run's frames, nor a temp
/// file a torn write left behind.
#[test]
fn a_fresh_run_clears_the_frames_of_the_last_one() {
    let dir = scratch_dir("fresh");
    let frames =
        |n: usize| -> Vec<String> { (0..n).map(|f| format!("frame_{f:04}.tga")).collect() };
    for (sub, extra) in [("farm", &["--threads", "2"][..]), ("render", &[][..])] {
        let run = dir.join(sub);
        for scene in ["demo:newton:8:32x24", "demo:newton:4:32x24"] {
            std::fs::create_dir_all(&run).expect("mkdir run");
            std::fs::write(run.join("frame_0009.tga.tmp"), b"torn").expect("stray temp");
            let status = Command::new(env!("CARGO_BIN_EXE_nowfarm"))
                .args([sub, scene])
                .args(extra)
                .arg("--out")
                .arg(&run)
                .stdout(Stdio::null())
                .status()
                .expect("spawn nowfarm");
            assert!(status.success(), "{sub} {scene} exited with {status}");
        }
        let mut want = frames(4);
        if sub == "farm" {
            want.push("run.journal".into());
        }
        assert_eq!(
            dir_files(&run).into_keys().collect::<Vec<_>>(),
            want,
            "{sub}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn multi_process_farm_matches_single_process() {
    let dir = scratch_dir("mp");
    let hashes = dir.join("hashes.txt");
    let (mut master, addr) = spawn_master(&dir, &hashes);
    let mut w1 = spawn_worker(&addr);
    let mut w2 = spawn_worker(&addr);

    let status = master.wait().expect("wait master");
    assert!(status.success(), "master exited with {status}");
    assert!(w1.wait().expect("wait w1").success());
    assert!(w2.wait().expect("wait w2").success());

    assert_eq!(read_hashes(&hashes), reference_hashes());
    // the master wrote every frame into its run directory, once
    let run = dir.join("frames");
    check_run_dir(&run, &hashes);
    let master = ["master", SCENE, "--listen", "127.0.0.1:0", "--workers", "2"];
    resume_finished_run(&master, &run, &hashes);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Spawn `nowfarm master` on a *fixed* address, so a killed master can
/// be restarted on the same port with `--resume` of its run directory.
fn spawn_journaled_master(addr: &str, dir: &Path, hashes: &Path, resume: bool) -> Child {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_nowfarm"));
    cmd.args(["master", SCENE, "--listen", addr, "--workers", "2"])
        .arg("--out")
        .arg(dir.join("journal"))
        .arg("--hashes")
        .arg(hashes)
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    if resume {
        cmd.arg("--resume");
    }
    cmd.spawn().expect("spawn journaled master")
}

#[test]
fn multi_process_farm_survives_killed_master_via_resume() {
    let dir = scratch_dir("resume");
    let hashes = dir.join("hashes.txt");

    // Reserve a port by binding to 0 and dropping the listener: the
    // restarted master must come back on the *same* address so the
    // surviving workers' reconnect loops can find it.
    let addr = {
        let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("probe port");
        probe.local_addr().expect("probe addr").to_string()
    };

    let mut master = spawn_journaled_master(&addr, &dir, &hashes, false);
    let mut w1 = spawn_worker_retrying(&addr);
    let mut w2 = spawn_worker_retrying(&addr);

    // SIGKILL the master mid-run. Whatever the journal holds at that
    // instant — nothing, a torn tail, or several finalized frames — the
    // resume must complete the run with byte-identical hashes.
    std::thread::sleep(Duration::from_millis(400));
    let _ = master.kill();
    let _ = master.wait();

    let mut resumed = spawn_journaled_master(&addr, &dir, &hashes, true);
    let status = resumed.wait().expect("wait resumed master");
    assert!(status.success(), "resumed master exited with {status}");

    assert_eq!(
        read_hashes(&hashes),
        reference_hashes(),
        "kill -9 + --resume must reproduce the uninterrupted hashes"
    );
    // every finalized frame is durably on disk next to the journal
    check_run_dir(&dir.join("journal"), &hashes);

    // The workers' exit codes are timing-dependent (a fast machine can
    // finish the whole run before the kill; a resumed-complete master
    // never listens at all), so just reap them.
    let _ = w1.kill();
    let _ = w1.wait();
    let _ = w2.kill();
    let _ = w2.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A worker the master turns away for its scene fails at once, even with
/// retries left: a handshake refused for a mismatch can only fail the same
/// way again. The refusal leaves the run alone, and two good workers
/// still finish it.
#[test]
fn a_refused_worker_exits_at_once_without_reconnecting() {
    const OTHER_SCENE: &str = "demo:newton:6:48x36";
    let dir = scratch_dir("refused");
    let hashes = dir.join("hashes.txt");
    let (mut master, addr) = spawn_master(&dir, &hashes);
    let out = Command::new(env!("CARGO_BIN_EXE_nowfarm"))
        .args(["worker", OTHER_SCENE, "--connect", &addr, "--retries", "3"])
        .output()
        .expect("run refused worker");
    let text = String::from_utf8_lossy(&out.stdout) + String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "refused worker exited with {}",
        out.status
    );
    assert!(text.contains("job rejected by master"), "{text}");
    assert!(!text.contains("reconnecting"), "{text}");

    let mut w1 = spawn_worker(&addr);
    let mut w2 = spawn_worker(&addr);
    let status = master.wait().expect("wait master");
    assert!(status.success(), "master exited with {status}");
    assert!(w1.wait().expect("wait w1").success());
    assert!(w2.wait().expect("wait w2").success());
    assert_eq!(read_hashes(&hashes), reference_hashes());
    let _ = std::fs::remove_dir_all(&dir);
}

fn spawn_worker_retrying(addr: &str) -> Child {
    Command::new(env!("CARGO_BIN_EXE_nowfarm"))
        .args(["worker", SCENE, "--connect", addr, "--retries", "5"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn retrying worker")
}

#[test]
fn multi_process_farm_survives_killed_worker() {
    let dir = scratch_dir("kill");
    let hashes = dir.join("hashes.txt");
    let (mut master, addr) = spawn_master(&dir, &hashes);
    let mut victim = spawn_worker(&addr);
    let mut survivor = spawn_worker(&addr);

    // SIGKILL one worker process mid-run: the master must observe the
    // dropped socket, requeue its leases on the survivor, and still
    // finish with byte-identical frames. (If this machine is fast enough
    // that the run already ended, the kill is a no-op and the test
    // degrades to the plain two-worker comparison.)
    std::thread::sleep(Duration::from_millis(250));
    let _ = victim.kill();
    let _ = victim.wait();

    let status = master.wait().expect("wait master");
    assert!(status.success(), "master exited with {status}");
    assert!(survivor.wait().expect("wait survivor").success());

    assert_eq!(read_hashes(&hashes), reference_hashes());
    let _ = std::fs::remove_dir_all(&dir);
}
