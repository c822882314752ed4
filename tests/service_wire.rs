//! Hostile-client tests for the service control plane, mirroring the
//! framing attacks in `crates/cluster/tests/net_frames.rs` one layer up:
//! garbage SUBMIT payloads, oversized scene specs, cancels of unknown or
//! finished jobs, junk opener tags, and clients that vanish mid-request.
//! In every case the master keeps serving other clients, answers with an
//! explicit reason where the protocol allows one, and never panics. The
//! last tests hold the service's lifetime rule: an idle live service
//! leaves its parked workers alone, a served `SUBMIT` wakes them, and a
//! `DRAIN` ends the run with or without workers.

use nowrender::cluster::net::{tag, write_frame};
use nowrender::cluster::{
    connect_worker, ConnectConfig, MachineSpec, MasterLogic, MasterWork, Message, SimCluster,
};
use nowrender::core::service::{
    run_service_master, run_service_sim, JobState, ServiceConfig, ServiceMaster, ServiceWorker,
};
use nowrender::core::{bind_tcp_master, CostModel, JobSpec, ServiceClient, TcpFarmConfig};
use nowrender::raytrace::RenderSettings;
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// Run `f` against a live TCP service with one real worker attached,
/// then drain and hand back the final master for assertions.
fn with_service(cfg: ServiceConfig, f: impl FnOnce(&str)) -> ServiceMaster {
    let listener = bind_tcp_master("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let tcp = TcpFarmConfig::new(1);
    let master = ServiceMaster::new(cfg).expect("in-memory service");
    let master_thread =
        std::thread::spawn(move || run_service_master(listener, master, &tcp).expect("service"));
    // the worker is enrolled before any client runs: a service drained
    // before its first worker joined exits at once (by design), and a worker
    // arriving after that has nobody to connect to — the master now answers
    // a client in ~0.1 ms, so a drain can beat a worker thread to it
    let conn = connect_worker(&addr, &ConnectConfig::default()).expect("worker enrolls");
    let worker_thread = std::thread::spawn(move || {
        let worker = ServiceWorker::new(RenderSettings::default(), CostModel::default());
        conn.serve(worker).expect("service worker")
    });
    f(&addr);
    let _ = worker_thread.join().expect("worker thread");
    let (master, _report) = master_thread.join().expect("master thread");
    master
}

fn client(addr: &str) -> ServiceClient {
    ServiceClient::connect(addr, 20.0).expect("connect client")
}

/// Block until `id` is terminal (tiny jobs finish in well under a second).
fn wait_terminal(c: &mut ServiceClient, id: u64) -> JobState {
    for _ in 0..600 {
        let st = c.status(id).expect("transport").expect("known job");
        if st.state.terminal() {
            return st.state;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    panic!("job {id} never reached a terminal state");
}

#[test]
fn garbage_submit_is_rejected_with_reason_and_connection_survives() {
    let m = with_service(ServiceConfig::default(), |addr| {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        // a SUBMIT whose payload is not a JobSpec at all
        let junk = Message {
            from: 0,
            to: 0,
            tag: tag::SUBMIT,
            payload: vec![0xff; 13],
        };
        write_frame(&mut stream, &junk).expect("send junk");
        let (reply, _) = nowrender::cluster::net::read_frame(&mut stream).expect("reply");
        assert_eq!(reply.tag, tag::SVC_ERR);

        // the same connection still works: a valid submit is admitted
        let mut c = ServiceClient::connect(addr, 20.0).expect("second client");
        let id = c
            .submit(&JobSpec::new("demo:glassball:1:10x8"))
            .expect("transport")
            .expect("admitted");
        assert_eq!(wait_terminal(&mut c, id), JobState::Done);
        c.drain().expect("drain");
    });
    assert_eq!(m.counters.completed, 1);
    assert_eq!(m.counters.rejected, 1, "the junk submit counts as rejected");
    assert_eq!(
        m.counters.completed + m.counters.cancelled + m.counters.rejected,
        m.counters.submitted
    );
}

#[test]
fn oversized_scene_spec_is_rejected_not_parsed() {
    let m = with_service(
        ServiceConfig {
            max_spec_bytes: 256,
            ..ServiceConfig::default()
        },
        |addr| {
            let mut c = client(addr);
            let huge = JobSpec::new("s".repeat(4096));
            let reason = c.submit(&huge).expect("transport").expect_err("rejected");
            assert_eq!(reason, "scene spec too large");
            let bad = JobSpec::new("sphere of confusion");
            let reason = c.submit(&bad).expect("transport").expect_err("rejected");
            assert!(reason.starts_with("bad scene:"), "{reason}");
            c.drain().expect("drain");
        },
    );
    assert_eq!(m.counters.rejected, 2);
    assert_eq!(m.counters.completed, 0);
}

/// A scene that parses and passes admission (one frame, 8x8 pixels) but
/// asks each shaded point for 65535² area-light samples.
const SAMPLES_BOMB: &str = "camera eye 0 2 8 target 0 0 0 up 0 1 0 fov 55 size 8 8
arealight corner -1 5 -1 u 2 0 0 v 0 0 2 color 1 1 1 samples 65535
material matte name m color 0.5 0.5 0.5
sphere name ball center 0 0 0 radius 1 material m
frames 1
";

/// Scenes whose parse the master's thread survived only by luck, or not
/// at all: a zero field of view and a zero-length cylinder each tripped a
/// constructor's assert inside `from_spec`, and 64 KiB of top-detail mesh
/// spheres cost it seconds and gigabytes. Each with the bound it breaks.
fn parse_bombs() -> Vec<(String, &'static str)> {
    let camera = "camera eye 0 2 8 target 0 0 0 up 0 1 0 fov 55 size 8 8\n";
    let scene = |body: &str| format!("{camera}material matte name m color 0.5 0.5 0.5\n{body}");
    let cylinder = "cylinder name c base 0 1 0 top 0 1 0 radius 1 material m\n";
    let mut meshes = scene("");
    for i in 0..1000 {
        meshes += &format!("meshsphere name s{i} center 0 0 0 radius 1 detail 64 material m\n");
    }
    assert!(meshes.len() <= ServiceConfig::default().max_spec_bytes);
    vec![
        (
            camera.replace("fov 55", "fov 0") + "frames 1\n",
            "fov 0 outside",
        ),
        (scene(cylinder), "base and top must differ"),
        (meshes, "over 65536 triangles"),
    ]
}

/// The job hash of `demo:glassball:1:10x8`, as every service run
/// renders it.
const GLASSBALL_1_10X8: u64 = 0x24f9_9cbe_3c14_9fc4;

/// One SUBMIT must not take the service down: a `demo:` spec asking for
/// billions of frames (the master would build their keys before checking
/// the count) and an area light asking for 65535² samples (every worker
/// that leased the unit would die) are refused at admission with the
/// bound they broke, and the next job renders to its golden hash. So are
/// the [`parse_bombs`].
#[test]
fn resource_bombs_are_refused_and_the_next_job_renders() {
    let m = with_service(ServiceConfig::default(), |addr| {
        let mut c = client(addr);
        let frames = JobSpec::new("demo:newton:4000000000:8x8");
        let reason = c.submit(&frames).expect("transport").expect_err("refused");
        assert!(reason.contains("over 100000"), "{reason}");
        let reason = (c.submit(&JobSpec::new(SAMPLES_BOMB)))
            .expect("transport")
            .expect_err("refused");
        assert!(reason.contains("outside 1..=16"), "{reason}");
        for (scene, bound) in parse_bombs() {
            let reason = (c.submit(&JobSpec::new(scene)))
                .expect("transport")
                .expect_err("refused");
            assert!(reason.contains(bound), "{reason}");
        }
        let id = c
            .submit(&JobSpec::new("demo:glassball:1:10x8"))
            .expect("transport")
            .expect("admitted");
        assert_eq!(wait_terminal(&mut c, id), JobState::Done);
        let st = c.status(id).expect("transport").expect("known job");
        assert_eq!(st.job_hash, GLASSBALL_1_10X8, "{:#x}", st.job_hash);
        c.drain().expect("drain");
    });
    assert_eq!(m.counters.rejected, 5);
    assert_eq!(m.counters.completed, 1);
}

#[test]
fn cancel_of_unknown_and_finished_jobs_fails_cleanly() {
    let m = with_service(ServiceConfig::default(), |addr| {
        let mut c = client(addr);
        let reason = c.cancel(999).expect("transport").expect_err("rejected");
        assert_eq!(reason, "unknown job id");
        let reason = c.status(0).expect("transport").expect_err("rejected");
        assert_eq!(reason, "unknown job id");

        let id = c
            .submit(&JobSpec::new("demo:newton:1:10x8"))
            .expect("transport")
            .expect("admitted");
        assert_eq!(wait_terminal(&mut c, id), JobState::Done);
        let reason = c.cancel(id).expect("transport").expect_err("rejected");
        assert_eq!(reason, "job already finished");
        c.drain().expect("drain");
    });
    assert_eq!(m.counters.completed, 1);
    assert_eq!(m.counters.cancelled, 0);
}

#[test]
fn client_disconnects_mid_request_master_keeps_serving() {
    let m = with_service(ServiceConfig::default(), |addr| {
        // fire a STATUS and slam the connection shut without reading
        {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.set_nodelay(true).unwrap();
            let probe = Message {
                from: 0,
                to: 0,
                tag: tag::STATUS,
                payload: vec![0, 0, 0, 0, 0, 0, 0, 1],
            };
            write_frame(&mut stream, &probe).expect("send");
            // drop without reading the reply
        }
        // a half-written frame, then gone
        {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.write_all(&[0x4e, 0x4f]).unwrap();
        }
        // an opener with a non-client, non-HELLO tag
        {
            let mut stream = TcpStream::connect(addr).expect("connect");
            let junk = Message {
                from: 9,
                to: 0,
                tag: 0xdead_beef,
                payload: vec![1, 2, 3],
            };
            write_frame(&mut stream, &junk).expect("send");
        }
        // the master shrugged all three off: real clients still work
        let mut c = client(addr);
        let id = c
            .submit(&JobSpec::new("demo:glassball:1:10x8"))
            .expect("transport")
            .expect("admitted");
        assert_eq!(wait_terminal(&mut c, id), JobState::Done);
        c.drain().expect("drain");
    });
    assert_eq!(m.counters.completed, 1);
}

#[test]
fn pipelined_requests_answered_in_order() {
    let m = with_service(ServiceConfig::default(), |addr| {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        // three requests back to back before reading anything
        let spec = JobSpec::new("demo:orbit:1:10x8");
        let mut enc = nowrender::cluster::Encoder::new();
        use nowrender::cluster::Wire;
        spec.wire_encode(&mut enc);
        let reqs = [
            (tag::SUBMIT, enc.finish()),
            (tag::JOBS, Vec::new()),
            (tag::STATUS, 1u64.to_le_bytes().to_vec()),
        ];
        for (t, payload) in reqs {
            let msg = Message {
                from: 0,
                to: 0,
                tag: t,
                payload,
            };
            write_frame(&mut stream, &msg).expect("send");
        }
        let mut tags = Vec::new();
        for _ in 0..3 {
            let (reply, _) = nowrender::cluster::net::read_frame(&mut stream).expect("reply");
            tags.push(reply.tag);
        }
        assert_eq!(tags, vec![tag::JOB_OK, tag::JOB_LIST, tag::JOB_INFO]);

        let mut c = client(addr);
        assert_eq!(wait_terminal(&mut c, 1), JobState::Done);
        c.drain().expect("drain");
    });
    assert_eq!(m.counters.completed, 1);
}

/// A [`ServiceMaster`] that counts the core's `assign` calls.
struct CountingService {
    inner: ServiceMaster,
    assigns: Arc<AtomicU64>,
}

impl MasterLogic for CountingService {
    type Unit = <ServiceMaster as MasterLogic>::Unit;
    type Result = <ServiceMaster as MasterLogic>::Result;

    fn assign(&mut self, worker: usize) -> Option<Self::Unit> {
        self.assigns.fetch_add(1, Ordering::Relaxed);
        self.inner.assign(worker)
    }
    fn integrate(&mut self, w: usize, unit: Self::Unit, r: Self::Result) -> Option<MasterWork> {
        self.inner.integrate(w, unit, r)
    }
    fn unit_bytes(&self, unit: &Self::Unit) -> u64 {
        self.inner.unit_bytes(unit)
    }
    fn on_reassign(&mut self, from: usize, unit: &mut Self::Unit) {
        self.inner.on_reassign(from, unit)
    }
    fn on_worker_lost(&mut self, worker: usize) {
        self.inner.on_worker_lost(worker)
    }
    fn all_done(&self) -> bool {
        self.inner.all_done()
    }
    fn client_frame(&mut self, client: u64, t: u32, payload: &[u8]) -> Option<(u32, Vec<u8>)> {
        self.inner.client_frame(client, t, payload)
    }
    fn client_pushes(&mut self) -> Vec<(u64, u32, Vec<u8>)> {
        self.inner.client_pushes()
    }
    fn client_gone(&mut self, client: u64) {
        self.inner.client_gone(client)
    }
}

#[test]
fn idle_service_leaves_parked_workers_alone_until_a_submit() {
    let spec = JobSpec::new("demo:newton:3:24x18");
    let listener = bind_tcp_master("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let assigns = Arc::new(AtomicU64::new(0));
    let master = CountingService {
        inner: ServiceMaster::new(ServiceConfig::default()).expect("in-memory service"),
        assigns: Arc::clone(&assigns),
    };
    // the service's own lifetime: any number of workers, for as long as
    // it runs
    let mut tcp = TcpFarmConfig::new(usize::MAX);
    tcp.net.accept_window_s = f64::INFINITY;
    let master_thread = std::thread::spawn(move || listener.run(master, &tcp).expect("service"));
    let workers: Vec<_> = (0..2)
        .map(|_| {
            let conn = connect_worker(&addr, &ConnectConfig::default()).expect("worker enrolls");
            std::thread::spawn(move || {
                let worker = ServiceWorker::new(RenderSettings::default(), CostModel::default());
                conn.serve(worker)
            })
        })
        .collect();

    // both workers asked once and parked; nothing wakes them while idle
    std::thread::sleep(Duration::from_millis(200));
    let before = assigns.load(Ordering::Relaxed);
    std::thread::sleep(Duration::from_millis(300));
    let idle = assigns.load(Ordering::Relaxed) - before;
    assert!(
        idle <= 4,
        "an idle service polled its parked workers {idle} times"
    );

    // a served SUBMIT wakes them, and the job renders what the simulator does
    let mut c = client(&addr);
    let id = c.submit(&spec).expect("transport").expect("admitted");
    assert_eq!(wait_terminal(&mut c, id), JobState::Done);
    let hash = c.status(id).expect("transport").expect("known").job_hash;
    let mut sim_master = ServiceMaster::new(ServiceConfig::default()).expect("service");
    let sim_id = sim_master.submit(spec).expect("admitted");
    let machines = (0..2)
        .map(|i| MachineSpec::new(&format!("m{i}"), 1.0, 256.0))
        .collect();
    let (sim_master, _) = run_service_sim(sim_master, &SimCluster::new(machines));
    assert_eq!(hash, sim_master.status(sim_id).expect("known").job_hash);

    // DRAIN releases both workers and ends the run
    c.drain().expect("drain");
    for w in workers {
        w.join()
            .expect("worker thread")
            .expect("worker ends cleanly");
    }
    let (m, _report) = master_thread.join().expect("master thread");
    assert!(m.inner.all_jobs_terminal());
}

#[test]
fn drained_service_without_workers_exits() {
    let listener = bind_tcp_master("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    // a short window must not end a service: it admits workers for as
    // long as it runs
    let mut tcp = TcpFarmConfig::new(1);
    tcp.net.accept_window_s = 0.1;
    let master = ServiceMaster::new(ServiceConfig::default()).expect("in-memory service");
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let ended = run_service_master(listener, master, &tcp);
        let _ = tx.send(ended.map(|(m, report)| (m.all_jobs_terminal(), report.workers_joined)));
    });
    std::thread::sleep(Duration::from_millis(300));
    client(&addr).drain().expect("drain");
    let ended = rx.recv_timeout(Duration::from_secs(20));
    let ended = ended.expect("a drained service exits").expect("service");
    assert_eq!(
        ended,
        (true, 0),
        "every job terminal, no worker ever joined"
    );
}
