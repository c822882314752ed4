//! `MasterLogic::all_done` means the same thing on every driver.
//!
//! An owner-queue master deals its units into one queue per worker. The
//! early worker drains its own queue and asks again while the rest still
//! sits in the queue of a worker that has not started yet: `assign`
//! answers `None`, no lease is out, nothing is requeued — and the job is
//! not done. The master must *park* the early worker, because when the
//! late joiner then crashes, the early worker is the only one left to
//! finish the job. The simulator always did; the thread and TCP loops
//! used to shut the early worker down on the spot.

use now_cluster::{
    connect_worker, ConnectConfig, FaultPlan, MachineSpec, MasterLogic, MasterWork, RecoveryConfig,
    RunReport, SimCluster, TcpClusterConfig, TcpMaster, ThreadCluster, WorkCost, WorkerLogic,
};
use std::collections::{BTreeSet, VecDeque};
use std::time::Duration;

/// Units 0–1 belong to worker 0, units 2–4 to worker 1; a lost or
/// timed-out owner's queue is released to whoever asks next.
struct OwnerQueues {
    queues: Vec<VecDeque<u64>>,
    released: VecDeque<u64>,
    seen: BTreeSet<u64>,
}

const UNITS: u64 = 5;

impl OwnerQueues {
    fn new() -> OwnerQueues {
        OwnerQueues {
            queues: vec![(0..2).collect(), (2..UNITS).collect()],
            released: VecDeque::new(),
            seen: BTreeSet::new(),
        }
    }

    fn release(&mut self, worker: usize) {
        if let Some(q) = self.queues.get_mut(worker) {
            self.released.extend(q.drain(..));
        }
    }
}

impl MasterLogic for OwnerQueues {
    type Unit = u64;
    type Result = u64;
    fn assign(&mut self, worker: usize) -> Option<u64> {
        let own = self.queues.get_mut(worker).and_then(VecDeque::pop_front);
        own.or_else(|| self.released.pop_front())
    }
    fn integrate(&mut self, _w: usize, unit: u64, result: u64) -> Option<MasterWork> {
        assert_eq!(result, unit + 100);
        assert!(self.seen.insert(unit), "unit {unit} integrated twice");
        Some(MasterWork::default())
    }
    fn on_reassign(&mut self, from_worker: usize, _unit: &mut u64) {
        self.release(from_worker);
    }
    fn on_worker_lost(&mut self, worker: usize) {
        self.release(worker);
    }
    fn all_done(&self) -> bool {
        self.seen.len() as u64 == UNITS
    }
}

struct Adder;
impl WorkerLogic for Adder {
    type Unit = u64;
    type Result = u64;
    fn perform(&mut self, unit: &u64) -> (u64, WorkCost) {
        (unit + 100, WorkCost::compute_only(1.0))
    }
}

fn early_worker_finished_the_job(driver: &str, master: &OwnerQueues, report: &RunReport) {
    assert_eq!(
        master.seen.len() as u64,
        UNITS,
        "{driver}: the early worker must still be there to finish the late joiner's queue"
    );
    assert_eq!(report.machines[0].units_done, UNITS, "{driver}");
    assert_eq!(report.workers_lost, 1, "{driver}: the late joiner crashed");
}

#[test]
fn idle_worker_parks_while_a_late_joiner_holds_unfinished_units() {
    // the late joiner (worker 1) dies on the first unit it receives; its
    // lease expires and one failure excludes it
    let faults = |join_s: f64| FaultPlan::none().join_at(1, join_s).crash_at(1, 0);
    let recovery = |lease_timeout_s: f64| RecoveryConfig {
        lease_timeout_s,
        max_worker_failures: 1,
        ..RecoveryConfig::default()
    };

    let mut sim = SimCluster::new(vec![
        MachineSpec::new("early", 1.0, 64.0),
        MachineSpec::new("late", 1.0, 64.0),
    ]);
    sim.faults = faults(5.0);
    sim.recovery = recovery(20.0);
    let (m, r) = sim.run(OwnerQueues::new(), vec![Adder, Adder]);
    early_worker_finished_the_job("sim", &m, &r);

    let mut threads = ThreadCluster::new(2);
    threads.faults = faults(0.3);
    threads.recovery = recovery(0.25);
    let (m, r) = threads.run(OwnerQueues::new(), vec![Adder, Adder]);
    early_worker_finished_the_job("threads", &m, &r);

    // TCP: the late joiner connects 300 ms in and its process dies right
    // after the handshake; quorum 2 keeps the door open for it
    let master = TcpMaster::bind("127.0.0.1:0").expect("bind");
    let addr = master.local_addr().expect("addr").to_string();
    let early = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let conn = connect_worker(&addr, &ConnectConfig::default()).expect("connect");
            conn.serve(Adder).expect("serve")
        })
    };
    let late = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(300));
        let conn = connect_worker(&addr, &ConnectConfig::default()).expect("late connect");
        conn.leave();
    });
    let (m, r) = master
        .run(OwnerQueues::new(), &TcpClusterConfig::new(2))
        .expect("run");
    early_worker_finished_the_job("tcp", &m, &r);
    assert_eq!(early.join().expect("early worker").units, UNITS);
    late.join().expect("late joiner");
}

#[test]
fn a_departure_wakes_the_parked_worker_while_the_quorum_is_unmet() {
    // as above, but at quorum 3 the door stays open after the late
    // joiner's crash: the queue its departure releases must still reach
    // the parked early worker at once, not when the 30 s window closes
    let master = TcpMaster::bind("127.0.0.1:0").expect("bind");
    let addr = master.local_addr().expect("addr").to_string();
    let early = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let conn = connect_worker(&addr, &ConnectConfig::default()).expect("connect");
            conn.serve(Adder).expect("serve")
        })
    };
    let late = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(300));
        let conn = connect_worker(&addr, &ConnectConfig::default()).expect("late connect");
        conn.leave();
    });
    let (m, r) = master
        .run(OwnerQueues::new(), &TcpClusterConfig::new(3))
        .expect("run");
    early_worker_finished_the_job("tcp", &m, &r);
    assert!(
        r.makespan_s < 10.0,
        "waited {:.1}s for a joiner",
        r.makespan_s
    );
    assert_eq!(early.join().expect("early worker").units, UNITS);
    late.join().expect("late joiner");
}
