//! Multi-process membership churn on the TCP farm.
//!
//! The elastic-membership acceptance test from the roadmap: a master
//! started with a quorum of two, six more workers piling in mid-run,
//! three workers SIGKILLed while they may hold leases — and the frame
//! hashes must still be byte-identical to the single-process thread
//! backend. Worker exit codes are timing-dependent (a late joiner can
//! find the run already over), so only the master's exit status and the
//! hashes are asserted.

use nowrender::anim::scenes::newton;
use nowrender::core::{run_threads, CostModel, DirtyTest, FarmConfig, PartitionScheme};
use nowrender::raytrace::RenderSettings;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::Duration;

/// A scene heavy enough that the churn below lands mid-run on a fast
/// machine, but still seconds-scale in CI.
const SCENE: &str = "demo:newton:8:80x60";
const W: u32 = 80;
const H: u32 = 60;
const FRAMES: usize = 8;

/// Debug builds render ~20x slower, so the big fleet drill auto-shrinks
/// (same pattern as `service_scale.rs`); release CI runs the full size.
const FULL: bool = !cfg!(debug_assertions);
/// Worker processes in the large-fleet churn drill.
const FLEET: usize = if FULL { 64 } else { 12 };
/// How many of them are SIGKILLed while possibly holding leases.
const FLEET_KILLS: usize = FLEET / 4;

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

fn reference_hashes() -> Vec<u64> {
    let anim = newton::animation_sized(W, H, FRAMES);
    run_threads(&anim, &master_cfg(), 2).frame_hashes
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nowchurn_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir scratch");
    dir
}

fn spawn_master(
    dir: &Path,
    hashes: &Path,
    extra: &[&str],
    env: &[(&str, &str)],
) -> (Child, String, JoinHandle<String>) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_nowfarm"));
    cmd.args(["master", SCENE, "--listen", "127.0.0.1:0", "--workers", "2"])
        .args(extra)
        .arg("--hashes")
        .arg(hashes)
        .arg("--out")
        .arg(dir.join("frames"))
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    for (k, v) in env {
        cmd.env(k, v);
    }
    let mut master = cmd.spawn().expect("spawn master");
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
    // keep draining so the master never blocks on a full stdout pipe;
    // the rest of its output (the run summary) is the thread's result
    let log =
        std::thread::spawn(move || lines.map_while(Result::ok).collect::<Vec<_>>().join("\n"));
    (master, addr, log)
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

fn reap(mut w: Child) {
    let _ = w.kill();
    let _ = w.wait();
}

/// Two workers at the door, six more barging in mid-run, three SIGKILLed
/// while possibly holding leases. The master must ride out all of it and
/// produce the single-process hashes.
#[test]
fn churned_farm_matches_single_process() {
    let dir = scratch_dir("mp");
    let hashes = dir.join("hashes.txt");
    let (mut master, addr, _log) = spawn_master(&dir, &hashes, &[], &[]);

    let mut fleet: Vec<Child> = (0..2).map(|_| spawn_worker(&addr)).collect();
    // joiners arrive in two waves while units are already being rendered
    std::thread::sleep(Duration::from_millis(150));
    fleet.extend((0..3).map(|_| spawn_worker(&addr)));
    std::thread::sleep(Duration::from_millis(150));
    fleet.extend((0..3).map(|_| spawn_worker(&addr)));

    // kill three of the eight — a founder and two mid-run joiners — with
    // whatever leases they hold at that instant
    std::thread::sleep(Duration::from_millis(150));
    for i in [0usize, 3, 6] {
        let _ = fleet[i].kill();
    }

    let status = master.wait().expect("wait master");
    assert!(status.success(), "master exited with {status}");
    assert_eq!(
        read_hashes(&hashes),
        reference_hashes(),
        "churned membership must reproduce the single-process hashes"
    );
    for w in fleet {
        reap(w);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The large-fleet drill: ~64 loopback worker processes (12 in debug
/// builds) piling onto one master in staggered waves, with a quarter of
/// them SIGKILLed mid-run while they may hold leases. Scheduling is
/// demand-driven, so however many workers actually land leases before
/// the run ends, the hashes must match the single-process reference.
#[test]
fn large_fleet_churn_matches_single_process() {
    let dir = scratch_dir("fleet");
    let hashes = dir.join("hashes.txt");
    let (mut master, addr, _log) = spawn_master(&dir, &hashes, &[], &[]);

    // founders first, then the rest of the fleet in four waves so joins
    // keep landing while units are being rendered
    let mut fleet: Vec<Child> = (0..2).map(|_| spawn_worker(&addr)).collect();
    let wave = (FLEET - 2).div_ceil(4);
    while fleet.len() < FLEET {
        std::thread::sleep(Duration::from_millis(60));
        let n = wave.min(FLEET - fleet.len());
        fleet.extend((0..n).map(|_| spawn_worker(&addr)));
    }

    // kill every 4th worker — founders and joiners alike — with whatever
    // leases they hold at that instant
    std::thread::sleep(Duration::from_millis(100));
    for i in 0..FLEET_KILLS {
        let _ = fleet[i * 4].kill();
    }

    let status = master.wait().expect("wait master");
    assert!(status.success(), "master exited with {status}");
    assert_eq!(
        read_hashes(&hashes),
        reference_hashes(),
        "a churned {FLEET}-process fleet must reproduce the single-process hashes"
    );
    for w in fleet {
        reap(w);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The net-timing flags reach the poll loop: a master with a fast
/// heartbeat and a short accept window still completes a clean run.
#[test]
fn net_timing_flags_are_honoured() {
    let dir = scratch_dir("flags");
    let hashes = dir.join("hashes.txt");
    let (mut master, addr, _log) = spawn_master(
        &dir,
        &hashes,
        &["--heartbeat-s", "0.05", "--accept-window-s", "15"],
        &[],
    );
    let fleet: Vec<Child> = (0..2).map(|_| spawn_worker(&addr)).collect();
    let status = master.wait().expect("wait master");
    assert!(status.success(), "master exited with {status}");
    assert_eq!(read_hashes(&hashes), reference_hashes());
    for w in fleet {
        reap(w);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `NOW_CHAOS` alone (no flag) hard-drops the first accepted connection
/// mid-run; the lease requeues and the output is still byte-identical.
///
/// The drop is armed at 1,500 bytes, a few units into a connection (a
/// unit moves 300–600 bytes), and below the least any worker of this
/// farm moved in measured runs: 5,152 bytes, a late joiner with 8 units.
/// The first accepted connection moved 9.5–17.7 KB. An 8,000-byte drop on
/// the third connection, a possible late joiner, did not always fire.
#[test]
fn env_fault_plan_drops_a_connection_without_changing_output() {
    let dir = scratch_dir("faults");
    let hashes = dir.join("hashes.txt");
    let (mut master, addr, log) = spawn_master(
        &dir,
        &hashes,
        &[],
        &[("NOW_CHAOS", "seed=3|net=0:drop@1500")],
    );
    let fleet: Vec<Child> = (0..3).map(|_| spawn_worker(&addr)).collect();
    let status = master.wait().expect("wait master");
    assert!(status.success(), "master exited with {status}");
    assert_eq!(
        read_hashes(&hashes),
        reference_hashes(),
        "a fault-dropped connection must not change a single pixel"
    );
    let log = log.join().expect("master stdout");
    assert!(
        log.contains("3 joined, 1 left early"),
        "the env-armed plan must actually drop one connection:\n{log}"
    );
    for w in fleet {
        reap(w);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
