//! Crash-and-resume integration test for the service journal.
//!
//! A real `nowfarm serve` process with a durability root is SIGKILLed
//! with jobs in flight, then restarted with `--resume` on the same port:
//!
//! * finished jobs come back `Done` with the same hash, and are never
//!   re-run (the restarted master reports them terminal before any
//!   worker has attached);
//! * queued jobs come back `Queued` with no progress;
//! * the in-flight job resumes from its per-job journal — frames it
//!   durably finished before the kill are not re-rendered, and its final
//!   bytes are identical to an uninterrupted job with the same spec.
//!
//! Before the restart every journal under the root gets a zero-filled
//! tail, which a power cut can leave on a filesystem that commits a
//! file's size before its data: resume must read it as torn.

#![cfg(unix)]

use nowrender::core::{JobSpec, JobState, ServiceClient};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// One scene spec for every job, so every completed job must hash
/// identically — which makes "resumed rendering is byte-identical"
/// checkable without a separate reference run.
const SCENE: &str = "demo:glassball:5:24x18";
const JOBS: u64 = 5;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nowsvc_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir scratch");
    dir
}

/// Spawn `nowfarm serve` and return the child plus the printed address.
fn spawn_serve(root: &Path, listen: &str, resume: bool) -> (Child, String) {
    let mut args = vec![
        "serve".to_string(),
        "--listen".to_string(),
        listen.to_string(),
        "--root".to_string(),
        root.display().to_string(),
    ];
    if resume {
        args.push("--resume".to_string());
    }
    let mut serve = Command::new(env!("CARGO_BIN_EXE_nowfarm"))
        .args(&args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serve");
    let stdout = serve.stdout.take().expect("serve stdout");
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("serve exited before printing its address")
            .expect("read serve stdout");
        if let Some(addr) = line.strip_prefix("listening on ") {
            break addr.to_string();
        }
    };
    // keep draining so the service never blocks on a full stdout pipe
    std::thread::spawn(move || for _ in lines.by_ref() {});
    (serve, addr)
}

fn spawn_worker(addr: &str) -> Child {
    Command::new(env!("CARGO_BIN_EXE_nowfarm"))
        .args(["worker", "--service", "--connect", addr])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn worker")
}

fn sigkill(child: &mut Child) {
    let _ = Command::new("kill")
        .args(["-9", &child.id().to_string()])
        .status();
    let _ = child.wait();
}

fn connect(addr: &str) -> ServiceClient {
    for _ in 0..100 {
        if let Ok(c) = ServiceClient::connect(addr, 30.0) {
            return c;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    panic!("service at {addr} never accepted a connection");
}

#[test]
fn sigkilled_service_resumes_finished_queued_and_inflight_jobs() {
    let root = scratch("resume");

    // --- phase 1: a serving master, one worker, five identical jobs
    let (mut serve, addr) = spawn_serve(&root, "127.0.0.1:0", false);
    let mut worker = spawn_worker(&addr);
    let mut client = connect(&addr);
    for _ in 0..JOBS {
        client
            .submit(&JobSpec::new(SCENE))
            .expect("transport")
            .expect("admitted");
    }

    // wait until job 1 is done (its completion record is durable), then
    // kill both processes with later jobs queued or mid-flight
    let hash1 = loop {
        let st = client.status(1).expect("transport").expect("known job");
        if st.state == JobState::Done {
            break st.job_hash;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_ne!(hash1, 0);
    sigkill(&mut serve);
    sigkill(&mut worker);

    // the per-job layout survived the kill: job 1 has durable frames, and
    // the service journal exists to resume from
    assert!(root.join("service.journal").is_file());
    let job1_frame = root.join("jobs/job_000001/frame_0000.tga");
    let frame_bytes = std::fs::read(&job1_frame).expect("job 1 frame persisted");
    assert!(!frame_bytes.is_empty());
    let mut journals = vec![root.join("service.journal")];
    for job in std::fs::read_dir(root.join("jobs")).expect("jobs dir") {
        let journal = job.expect("job dir").path().join("run.journal");
        if journal.is_file() {
            journals.push(journal);
        }
    }
    for journal in &journals {
        let mut bytes = std::fs::read(journal).expect("read journal");
        bytes.resize(bytes.len() + 4096, 0);
        std::fs::write(journal, &bytes).expect("zero-pad journal");
    }

    // --- phase 2: restart with --resume on the same fixed port
    let (mut serve, addr) = spawn_serve(&root, &addr, true);
    let mut client = connect(&addr);

    // before any worker attaches: finished work is already Done with the
    // same hash (not re-run), unfinished work is Queued with no progress
    let statuses = client.jobs().expect("list jobs");
    assert_eq!(statuses.len() as u64, JOBS);
    let job1 = statuses.iter().find(|s| s.id == 1).expect("job 1");
    assert_eq!(job1.state, JobState::Done, "finished job must stay Done");
    assert_eq!(job1.job_hash, hash1, "finished job must keep its hash");
    let last = statuses.iter().find(|s| s.id == JOBS).expect("last job");
    assert_eq!(last.state, JobState::Queued, "queued job must stay queued");
    assert_eq!(last.units_done, 0);
    for s in &statuses {
        assert!(
            s.state == JobState::Done || s.state == JobState::Queued,
            "job {} resumed as {:?}",
            s.id,
            s.state
        );
    }

    // --- phase 3: a fresh worker drains the backlog to completion
    let mut worker = spawn_worker(&addr);
    let deadline = std::time::Instant::now() + Duration::from_secs(300);
    loop {
        let statuses = client.jobs().expect("list jobs");
        if statuses.iter().all(|s| s.state == JobState::Done) {
            // identical specs must produce identical hashes — including
            // the job that was resumed from its per-job journal mid-way
            for s in &statuses {
                assert_eq!(s.job_hash, hash1, "job {} diverged after the resume", s.id);
            }
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "backlog never drained after resume: {statuses:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // job 1's durable frame was never re-rendered to different bytes
    let after = std::fs::read(&job1_frame).expect("job 1 frame still there");
    assert_eq!(after, frame_bytes, "finished job's output must not change");

    client.drain().expect("drain");
    let status = serve.wait().expect("serve exit");
    assert!(status.success(), "service must exit cleanly after drain");
    let _ = worker.wait();

    let _ = std::fs::remove_dir_all(&root);
}
