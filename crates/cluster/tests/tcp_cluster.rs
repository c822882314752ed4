//! End-to-end recovery tests for the TCP backend.
//!
//! The happy path is covered by unit tests in `net.rs`; here we kill
//! peers. A "killed worker process" is simulated exactly the way the OS
//! produces it — the TCP connection drops mid-run — and the master must
//! requeue its leases onto survivors, as it does for the thread backend's
//! injected crashes (the same loop, over loopback). A vanished master must surface as an
//! error on the worker, not a hang.
//!
//! The TCP master keeps every worker two leases deep, so the hand-rolled
//! workers here also watch what reaches their inbox and when: the next
//! unit arrives before the current one is answered, never more than two
//! are held, and a fault while two are held costs what one fault costs.

use now_cluster::message::{ChannelError, Message};
use now_cluster::net::{
    connect_worker, read_frame, tag, write_frame, ConnectConfig, TcpClusterConfig, TcpMaster,
};
use now_cluster::{Decoder, Encoder, MasterLogic, MasterWork, WorkCost, WorkerLogic};
use std::collections::BTreeSet;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::time::Duration;

struct CountMaster {
    next: u64,
    limit: u64,
    seen: BTreeSet<u64>,
}

impl MasterLogic for CountMaster {
    type Unit = u64;
    type Result = u64;
    fn assign(&mut self, _w: usize) -> Option<u64> {
        if self.next < self.limit {
            self.next += 1;
            Some(self.next - 1)
        } else {
            None
        }
    }
    fn integrate(&mut self, _w: usize, unit: u64, result: u64) -> Option<MasterWork> {
        if result != unit * unit {
            // wrong bytes: reject instead of integrating
            return None;
        }
        assert!(self.seen.insert(unit), "unit {unit} integrated twice");
        Some(MasterWork::default())
    }
}

fn count_to(limit: u64) -> CountMaster {
    CountMaster {
        next: 0,
        limit,
        seen: BTreeSet::new(),
    }
}

struct Squarer;
impl WorkerLogic for Squarer {
    type Unit = u64;
    type Result = u64;
    fn perform(&mut self, unit: &u64) -> (u64, WorkCost) {
        std::thread::sleep(std::time::Duration::from_millis(2));
        (unit * unit, WorkCost::compute_only(0.0))
    }
}

/// A hand-rolled worker endpoint that speaks the wire protocol directly,
/// so a test decides when (and whether, and what) it answers.
struct RawWorker {
    stream: TcpStream,
    node_id: usize,
}

impl RawWorker {
    /// Connect and shake hands anonymously, asking for nothing: a farm
    /// member that holds no lease. A farm of one is never prefetched, so
    /// the depth-2 tests below keep one of these enrolled for company.
    fn enrol(addr: &str) -> RawWorker {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).unwrap();
        let hello = Message {
            from: 0,
            to: 0,
            tag: tag::HELLO,
            payload: Vec::new(),
        };
        write_frame(&mut stream, &hello).expect("hello");
        let (welcome, _) = read_frame(&mut stream).expect("welcome");
        assert_eq!(welcome.tag, tag::WELCOME);
        let mut d = Decoder::new(&welcome.payload);
        let node_id = d.u64().expect("node id") as usize;
        RawWorker { stream, node_id }
    }

    /// [`RawWorker::enrol`], then ask for work.
    fn join(addr: &str) -> RawWorker {
        let mut w = RawWorker::enrol(addr);
        let request = Message {
            from: w.node_id,
            to: 0,
            tag: tag::REQUEST,
            payload: Vec::new(),
        };
        write_frame(&mut w.stream, &request).expect("request");
        w
    }

    /// The next `UNIT` as `(assign id, unit)`. Heartbeats go unanswered:
    /// liveness is the socket itself. `PeerGone` once the master says
    /// `SHUTDOWN`; a read timeout, if one is set, surfaces as `TimedOut`.
    fn next_unit(&mut self) -> Result<(u64, u64), ChannelError> {
        loop {
            let (msg, _) = read_frame(&mut self.stream)?;
            match msg.tag {
                tag::UNIT => {
                    let mut d = Decoder::new(&msg.payload);
                    let assign = d.u64().expect("assign id");
                    return Ok((assign, d.u64().expect("unit")));
                }
                tag::SHUTDOWN => return Err(ChannelError::PeerGone),
                _ => {}
            }
        }
    }

    /// Answer lease `assign` with `value`; false if the master is gone.
    fn answer(&mut self, assign: u64, value: u64) -> bool {
        let mut e = Encoder::new();
        e.u64(assign).f64(0.0).u64(value);
        let result = Message {
            from: self.node_id,
            to: 0,
            tag: tag::RESULT,
            payload: e.finish(),
        };
        write_frame(&mut self.stream, &result).is_ok()
    }

    /// What a `kill -9` of the worker process looks like to the master.
    fn die(self) {
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

/// A worker that answers `crash_after` units honestly and drops its
/// connection on receiving the next one, holding its leases.
fn crashing_worker(addr: String, crash_after: u64) {
    let mut w = RawWorker::join(&addr);
    for _ in 0..crash_after {
        let Ok((assign, unit)) = w.next_unit() else {
            return;
        };
        if !w.answer(assign, unit * unit) {
            return;
        }
    }
    if w.next_unit().is_ok() {
        w.die();
    }
}

#[test]
fn killed_worker_connection_recovers_on_survivor() {
    let master = TcpMaster::bind("127.0.0.1:0").expect("bind");
    let addr = master.local_addr().expect("addr").to_string();
    let crash_addr = addr.clone();
    let crasher = std::thread::spawn(move || crashing_worker(crash_addr, 2));
    let survivor_addr = addr.clone();
    let survivor = std::thread::spawn(move || {
        let conn = connect_worker(&survivor_addr, &ConnectConfig::default()).expect("connect");
        conn.serve(Squarer).expect("serve")
    });

    let cfg = TcpClusterConfig::new(2);
    let (m, report) = master.run(count_to(40), &cfg).expect("run");

    assert_eq!(m.seen.len(), 40, "every unit integrated despite the kill");
    assert_eq!(report.workers_lost, 1);
    assert!(report.units_reassigned >= 1, "the held lease must requeue");
    assert_eq!(report.machines.iter().filter(|m| m.lost).count(), 1);
    crasher.join().expect("crasher thread");
    let s = survivor.join().expect("survivor thread");
    assert!(s.units >= 38, "survivor picked up the dead worker's units");
}

#[test]
fn all_workers_killed_ends_run_gracefully() {
    let master = TcpMaster::bind("127.0.0.1:0").expect("bind");
    let addr = master.local_addr().expect("addr").to_string();
    let h0 = {
        let a = addr.clone();
        std::thread::spawn(move || crashing_worker(a, 1))
    };
    let h1 = {
        let a = addr.clone();
        std::thread::spawn(move || crashing_worker(a, 1))
    };
    let cfg = TcpClusterConfig::new(2);
    let (m, report) = master
        .run(count_to(50), &cfg)
        .expect("run must end, not hang");
    assert!(m.seen.len() <= 4, "both died after one unit each");
    assert_eq!(report.workers_lost, 2);
    h0.join().unwrap();
    h1.join().unwrap();
}

/// Both workers leave with units still owed. A farm that waits for
/// replacements does so only while its quorum was never met and the
/// accept window is open (`NetConfig::accept_window_s`): at quorum 2 the
/// run ends at once with what it has, at quorum 3 it holds out for the
/// third worker, who connects half a second later and finishes the job.
#[test]
fn a_departed_farm_waits_for_joiners_only_while_its_quorum_is_unmet() {
    for quorum in [2, 3] {
        let master = TcpMaster::bind("127.0.0.1:0").expect("bind");
        let addr = master.local_addr().expect("addr").to_string();
        let mut threads: Vec<_> = (0..2)
            .map(|_| {
                let a = addr.clone();
                std::thread::spawn(move || crashing_worker(a, 1))
            })
            .collect();
        if quorum == 3 {
            threads.push(std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(500));
                let conn = connect_worker(&addr, &ConnectConfig::default()).expect("connect");
                conn.serve(Squarer).expect("serve");
            }));
        }
        let (m, report) = master
            .run(count_to(50), &TcpClusterConfig::new(quorum))
            .expect("run");
        assert_eq!(report.workers_lost, 2, "quorum {quorum}");
        if quorum == 2 {
            assert!(m.seen.len() < 50, "both died owing units");
            assert!(
                report.makespan_s < 5.0,
                "ended at once, not at the 30 s window ({:.2} s)",
                report.makespan_s
            );
        } else {
            assert_eq!(m.seen.len(), 50, "the replacement finished the job");
            assert_eq!(report.workers_joined, 3);
        }
        for t in threads {
            t.join().expect("worker thread");
        }
    }
}

/// Serve `w` to the end of the run, answering honestly; before each answer
/// record how many units it holds (the one it answers included).
fn held_at_each_answer(w: &mut RawWorker) -> Vec<usize> {
    let mut inbox = std::collections::VecDeque::new();
    let mut held = Vec::new();
    loop {
        if inbox.is_empty() {
            // nothing in hand: wait as long as it takes
            w.stream.set_read_timeout(None).unwrap();
            match w.next_unit() {
                Ok(u) => inbox.push_back(u),
                Err(_) => return held,
            }
        }
        // whatever else the master sends while this unit is unanswered
        // (a SHUTDOWN cannot be among it: it has a lease out)
        let quiet = Duration::from_millis(40);
        w.stream.set_read_timeout(Some(quiet)).unwrap();
        loop {
            match w.next_unit() {
                Ok(u) => inbox.push_back(u),
                Err(ChannelError::TimedOut) => break,
                Err(e) => panic!("master hung up on a worker with a lease: {e:?}"),
            }
        }
        held.push(inbox.len());
        let (assign, unit) = inbox.pop_front().expect("front unit");
        assert!(w.answer(assign, unit * unit));
    }
}

#[test]
fn next_unit_arrives_before_the_current_one_is_answered_and_never_a_third() {
    let master = TcpMaster::bind("127.0.0.1:0").expect("bind");
    let addr = master.local_addr().expect("addr").to_string();
    let recorder = std::thread::spawn(move || {
        let bystander = RawWorker::enrol(&addr);
        let held = held_at_each_answer(&mut RawWorker::join(&addr));
        bystander.die();
        held
    });
    let (m, report) = master
        .run(count_to(12), &TcpClusterConfig::new(2))
        .expect("run");
    assert_eq!(m.seen.len(), 12);
    let held = recorder.join().expect("recorder");
    // two in hand at every answer until the units run out
    let mut expect = vec![2; 11];
    expect.push(1);
    assert_eq!(held, expect);
    assert_eq!(report.leases_prefetched, 11, "every unit but the first");
    assert_eq!(report.duplicates_dropped + report.units_reassigned, 0);
}

#[test]
fn a_farm_of_one_is_leased_one_unit_at_a_time() {
    let master = TcpMaster::bind("127.0.0.1:0").expect("bind");
    let addr = master.local_addr().expect("addr").to_string();
    let recorder = std::thread::spawn(move || held_at_each_answer(&mut RawWorker::join(&addr)));
    let (m, report) = master
        .run(count_to(6), &TcpClusterConfig::new(1))
        .expect("run");
    assert_eq!(m.seen.len(), 6);
    assert_eq!(recorder.join().expect("recorder"), vec![1; 6]);
    assert_eq!(report.leases_prefetched, 0);
}

#[test]
fn worker_killed_holding_two_leases_requeues_both() {
    let master = TcpMaster::bind("127.0.0.1:0").expect("bind");
    let addr = master.local_addr().expect("addr").to_string();
    let run = std::thread::spawn(move || {
        master
            .run(count_to(40), &TcpClusterConfig::new(2))
            .expect("run")
    });
    // the survivor is enrolled (WELCOME read) before the victim says
    // HELLO: a farm of one is leased one unit at a time, so a victim that
    // asked first would hold a single lease and never see a second
    let conn = connect_worker(&addr, &ConnectConfig::default()).expect("connect");
    let victim = std::thread::spawn(move || {
        let mut w = RawWorker::join(&addr);
        let first = w.next_unit().expect("first unit");
        let second = w.next_unit().expect("prefetched unit");
        w.die();
        [first.1, second.1]
    });
    let survivor = std::thread::spawn(move || conn.serve(Squarer).expect("serve"));
    let (m, report) = run.join().expect("master thread");
    let held = victim.join().expect("victim thread");
    assert_eq!(
        m.seen.len(),
        40,
        "both of the dead worker's units came back"
    );
    assert!(held.iter().all(|u| m.seen.contains(u)));
    assert_eq!(report.workers_lost, 1);
    assert_eq!(report.units_reassigned, 2, "it held two leases");
    let lost: Vec<_> = report.machines.iter().filter(|m| m.lost).collect();
    assert_eq!(lost.len(), 1);
    assert_eq!(lost[0].failures, 1, "one fault, one penalty");
    assert_eq!(survivor.join().expect("survivor thread").units, 40);
}

#[test]
fn one_bad_result_from_an_honest_worker_costs_exactly_one_strike() {
    let master = TcpMaster::bind("127.0.0.1:0").expect("bind");
    let addr = master.local_addr().expect("addr").to_string();
    // honest except for its 4th result, whose bytes arrive damaged
    let worker = std::thread::spawn(move || {
        let bystander = RawWorker::enrol(&addr);
        let mut w = RawWorker::join(&addr);
        let mut answered = 0u64;
        while let Ok((assign, unit)) = w.next_unit() {
            let damage = (answered == 3) as u64;
            assert!(w.answer(assign, unit * unit + damage));
            answered += 1;
        }
        bystander.die();
        answered
    });
    let mut cfg = TcpClusterConfig::new(2);
    // a second strike would be the last
    cfg.recovery.max_worker_strikes = 2;
    let (m, report) = master.run(count_to(30), &cfg).expect("run");
    assert_eq!(m.seen.len(), 30, "every unit integrated once");
    assert_eq!(report.results_rejected, 1);
    assert_eq!(report.workers_quarantined, 0);
    assert_eq!(report.machines[1].failures, 1, "one fault, one penalty");
    // the unit queued behind the bad one was voided: requeued at no cost,
    // its (honest) result dropped as a duplicate
    assert_eq!(report.units_reassigned, 1);
    assert_eq!(report.duplicates_dropped, 1);
    assert_eq!(worker.join().expect("worker"), 32, "30 units + 2 redone");
}

#[test]
fn vanished_master_surfaces_as_error_on_worker() {
    // a fake master that handshakes, assigns one unit, then dies
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let fake = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().expect("accept");
        let (hello, _) = read_frame(&mut s).expect("hello");
        assert_eq!(hello.tag, tag::HELLO);
        let mut e = Encoder::new();
        e.u64(1).bytes(&[]);
        let welcome = Message {
            from: 0,
            to: 1,
            tag: tag::WELCOME,
            payload: e.finish(),
        };
        write_frame(&mut s, &welcome).expect("welcome");
        let (req, _) = read_frame(&mut s).expect("request");
        assert_eq!(req.tag, tag::REQUEST);
        let mut e = Encoder::new();
        e.u64(0).u64(21);
        let unit = Message {
            from: 0,
            to: 1,
            tag: tag::UNIT,
            payload: e.finish(),
        };
        write_frame(&mut s, &unit).expect("unit");
        // master "crashes" before the result arrives
        let _ = s.shutdown(Shutdown::Both);
    });
    let conn = connect_worker(&addr, &ConnectConfig::default()).expect("connect");
    let err = conn.serve(Squarer).unwrap_err();
    assert_eq!(err, ChannelError::PeerGone, "no hang, a clean error");
    fake.join().expect("fake master");
}
