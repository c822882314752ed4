//! Real-parallel backend: each workstation is an OS thread.
//!
//! Runs the same [`MasterLogic`] / [`WorkerLogic`] pair as the simulator,
//! but over `std::sync::mpsc` channels with real wall-clock timing. Use it
//! to measure actual parallel speedups of the render farm on the host
//! machine (the simulator is for reproducing the paper's heterogeneous
//! 3-SGI setup deterministically).
//!
//! This is a driver of the shared [`MasterCore`]: the master thread turns
//! channel messages and `recv` timeouts into core events on the wall
//! clock and realises the core's actions as channel sends. What stays
//! here is the transport — thread spawn, the channels — and the *real*
//! realisation of a [`FaultPlan`] (early thread exit for a crash, injected
//! sleeps for a slowdown, suppressed sends for a dropped result). A worker
//! whose channel disconnects is reported to the core as an observed
//! death: its leases requeue and the run finishes on the survivors
//! instead of panicking.
//!
//! Parallelism composes two levels: this backend supplies the paper's
//! *across-workstation* level (one thread per worker), while the worker
//! logic may additionally fan each unit out over an intra-worker tile
//! pool (`RenderSettings::threads`), so a run can use up to
//! `workers x threads` cores. Both levels preserve byte-identical
//! output, so the composition does too.

use crate::core::{Action, MasterCore};
use crate::fault::FaultPlan;
use crate::ledger::RecoveryConfig;
use crate::logic::{MasterLogic, WorkerLogic};
use crate::report::{MachineReport, RunReport};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

enum ToWorker<U> {
    /// An assignment: ledger id plus the unit.
    Unit(u64, U),
    Shutdown,
}

struct FromWorker<R> {
    worker: usize,
    /// `None` is the initial readiness request; `Some` carries the
    /// assignment id the result answers.
    done: Option<(u64, R)>,
    busy_s: f64,
}

type ResultChannel<R> = (Sender<FromWorker<R>>, Receiver<FromWorker<R>>);
type UnitChannel<U> = (Sender<ToWorker<U>>, Receiver<ToWorker<U>>);

/// A thread-per-worker cluster.
#[derive(Debug, Clone)]
pub struct ThreadCluster {
    /// Number of worker threads.
    pub workers: usize,
    /// Deterministic fault injection (empty by default); faults are
    /// realised with real thread exits, sleeps and suppressed sends.
    pub faults: FaultPlan,
    /// Lease/timeout recovery policy over wall-clock seconds (disabled by
    /// default).
    pub recovery: RecoveryConfig,
}

impl ThreadCluster {
    /// Cluster with `workers` worker threads (at least 1).
    pub fn new(workers: usize) -> ThreadCluster {
        assert!(workers > 0);
        ThreadCluster {
            workers,
            faults: FaultPlan::none(),
            recovery: RecoveryConfig::default(),
        }
    }

    /// Run the job to completion; returns the master logic and a wall-clock
    /// report.
    ///
    /// Completes without panicking even if worker threads die mid-run:
    /// their leases requeue onto survivors, and if *every* worker is gone
    /// the run ends gracefully with whatever was integrated.
    pub fn run<M, W>(&self, master: M, workers: Vec<W>) -> (M, RunReport)
    where
        M: MasterLogic,
        M::Unit: 'static,
        M::Result: 'static,
        W: WorkerLogic<Unit = M::Unit, Result = M::Result> + 'static,
    {
        assert_eq!(workers.len(), self.workers, "one WorkerLogic per worker");
        let n = self.workers;
        let start = Instant::now();
        let stop = Arc::new(AtomicBool::new(false));

        let (result_tx, result_rx): ResultChannel<M::Result> = channel();

        let mut unit_txs: Vec<Sender<ToWorker<M::Unit>>> = Vec::with_capacity(n);
        let mut handles = Vec::with_capacity(n);
        for (i, mut logic) in workers.into_iter().enumerate() {
            let (tx, rx): UnitChannel<M::Unit> = channel();
            unit_txs.push(tx);
            let results = result_tx.clone();
            let plan = self.faults.clone();
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                // a late joiner sits out the start of the run, then
                // announces readiness like any other worker
                let join_delay = plan.join_time(i);
                if join_delay > 0.0 {
                    std::thread::sleep(Duration::from_secs_f64(join_delay));
                }
                // announce readiness
                results
                    .send(FromWorker {
                        worker: i,
                        done: None,
                        busy_s: 0.0,
                    })
                    .ok();
                let mut busy = 0.0f64;
                let mut injected = 0u64;
                let mut idx = 0u64; // units started, 0-based
                while let Ok(msg) = rx.recv() {
                    match msg {
                        ToWorker::Unit(assign, unit) => {
                            let unit_idx = idx;
                            idx += 1;
                            if plan.crash_unit(i) == Some(unit_idx) {
                                // the "machine" dies: drop the channels and go
                                return (busy, injected + 1);
                            }
                            if plan.stall_unit(i) == Some(unit_idx) {
                                // wedged process: alive but mute
                                injected += 1;
                                while !stop.load(Ordering::Relaxed) {
                                    std::thread::sleep(Duration::from_millis(2));
                                }
                                return (busy, injected);
                            }
                            let t0 = Instant::now();
                            let (mut result, _cost) = logic.perform(&unit);
                            let factor = plan.slowdown(i, unit_idx);
                            if factor > 1.0 {
                                injected += 1;
                                std::thread::sleep(t0.elapsed().mul_f64(factor - 1.0));
                            }
                            busy += t0.elapsed().as_secs_f64();
                            if plan.corrupts(i, unit_idx) {
                                // byzantine worker: damage the result bytes
                                // and let the master's verification catch it
                                W::corrupt(&mut result);
                                injected += 1;
                            }
                            if plan.drops_result(i, unit_idx) {
                                // computed, but the message is "lost in
                                // transit"; wait for the master to react
                                injected += 1;
                                continue;
                            }
                            if results
                                .send(FromWorker {
                                    worker: i,
                                    done: Some((assign, result)),
                                    busy_s: busy,
                                })
                                .is_err()
                            {
                                break;
                            }
                        }
                        ToWorker::Shutdown => break,
                    }
                }
                (busy, injected)
            }));
        }
        drop(result_tx);

        let mut report = RunReport {
            machines: (0..n)
                .map(|i| MachineReport {
                    name: format!("thread-{i}"),
                    ..Default::default()
                })
                .collect(),
            ..Default::default()
        };

        let mut core = MasterCore::new(master, self.recovery, 2);
        for _ in 0..n {
            core.joined();
        }
        let now = || start.elapsed().as_secs_f64();

        loop {
            // realise the core's actions as channel sends
            while let Some(action) = core.next_action() {
                match action {
                    Action::Send {
                        worker,
                        assign_id,
                        unit,
                    } => {
                        let sent = unit_txs[worker].send(ToWorker::Unit(assign_id, unit));
                        if sent.is_err() {
                            // observed death: requeue its leases at once
                            core.left(worker);
                        }
                    }
                    Action::Shutdown { worker } | Action::Lost { worker, .. } => {
                        let _ = unit_txs[worker].send(ToWorker::Shutdown);
                    }
                }
            }
            if core.wakeable(now()) && core.wake(now()) {
                continue;
            }
            if core.finished() {
                break;
            }
            let msg = match core.next_deadline(now()) {
                Some(deadline) => {
                    let wait = (deadline - now()).max(0.0);
                    result_rx.recv_timeout(Duration::from_secs_f64(wait.min(3600.0)))
                }
                None => result_rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
            };
            match msg {
                Ok(msg) => {
                    let w = msg.worker;
                    report.machines[w].busy_s = msg.busy_s;
                    if let Some((assign, result)) = msg.done {
                        report.machines[w].units_done += 1;
                        let t0 = Instant::now();
                        core.result(w, assign, Ok(result), now());
                        report.master_busy_s += t0.elapsed().as_secs_f64();
                    }
                    // a result doubles as the next work request
                    core.request(w, now());
                }
                Err(RecvTimeoutError::Timeout) => {
                    core.tick(now());
                }
                Err(RecvTimeoutError::Disconnected) => {
                    // every worker thread is gone: requeue what they held,
                    // report them lost, and end the run gracefully
                    for w in 0..n {
                        core.left(w);
                    }
                }
            }
        }

        // release anything still blocked: wedged workers poll this flag,
        // parked-on-recv workers see their channel close when unit_txs drops
        stop.store(true, Ordering::Relaxed);
        for tx in &unit_txs {
            let _ = tx.send(ToWorker::Shutdown);
        }
        drop(unit_txs);
        let (master, mut counters, health) = core.finish();
        for (i, h) in handles.into_iter().enumerate() {
            if let Ok((busy, injected)) = h.join() {
                report.machines[i].busy_s = busy;
                counters.faults_injected += injected;
            }
        }

        report.makespan_s = start.elapsed().as_secs_f64();
        report.absorb_recovery(&counters, &health);
        (master, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logic::{MasterWork, WorkCost};
    use std::collections::BTreeSet;

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

    struct Squarer;
    impl WorkerLogic for Squarer {
        type Unit = u64;
        type Result = u64;
        fn perform(&mut self, unit: &u64) -> (u64, WorkCost) {
            (unit * unit, WorkCost::compute_only(0.0))
        }
        fn corrupt(result: &mut u64) {
            *result ^= 0xBAD0_BEEF;
        }
    }

    /// Squarer with a real (small) compute time, so leases and slowdowns
    /// operate on measurable wall-clock intervals.
    struct SlowSquarer(Duration);
    impl WorkerLogic for SlowSquarer {
        type Unit = u64;
        type Result = u64;
        fn perform(&mut self, unit: &u64) -> (u64, WorkCost) {
            std::thread::sleep(self.0);
            (unit * unit, WorkCost::compute_only(0.0))
        }
        fn corrupt(result: &mut u64) {
            *result ^= 0xBAD0_BEEF;
        }
    }

    #[test]
    fn all_units_processed_exactly_once() {
        let cluster = ThreadCluster::new(4);
        let master = CountMaster {
            next: 0,
            limit: 200,
            seen: BTreeSet::new(),
        };
        let (m, r) = cluster.run(master, vec![Squarer, Squarer, Squarer, Squarer]);
        assert_eq!(m.seen.len(), 200);
        assert_eq!(
            m.seen.iter().copied().collect::<Vec<_>>(),
            (0..200).collect::<Vec<_>>()
        );
        assert_eq!(r.machines.iter().map(|m| m.units_done).sum::<u64>(), 200);
        assert!(r.makespan_s >= 0.0);
        assert_eq!(r.workers_lost, 0);
        assert_eq!(r.units_reassigned, 0);
    }

    #[test]
    fn single_worker_works() {
        let cluster = ThreadCluster::new(1);
        let master = CountMaster {
            next: 0,
            limit: 10,
            seen: BTreeSet::new(),
        };
        let (m, r) = cluster.run(master, vec![Squarer]);
        assert_eq!(m.seen.len(), 10);
        assert_eq!(r.machines[0].units_done, 10);
    }

    #[test]
    fn real_compute_spreads_across_workers() {
        struct Spin;
        impl WorkerLogic for Spin {
            type Unit = u64;
            type Result = u64;
            fn perform(&mut self, unit: &u64) -> (u64, WorkCost) {
                // a small real computation
                let mut acc = *unit;
                for i in 0..200_000u64 {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
                }
                (acc, WorkCost::compute_only(0.0))
            }
        }
        struct AnyMaster {
            n: u64,
            done: u64,
        }
        impl MasterLogic for AnyMaster {
            type Unit = u64;
            type Result = u64;
            fn assign(&mut self, _w: usize) -> Option<u64> {
                if self.n > 0 {
                    self.n -= 1;
                    Some(self.n)
                } else {
                    None
                }
            }
            fn integrate(&mut self, _w: usize, _u: u64, _r: u64) -> Option<MasterWork> {
                self.done += 1;
                Some(MasterWork::default())
            }
        }
        let cluster = ThreadCluster::new(3);
        let (m, r) = cluster.run(AnyMaster { n: 60, done: 0 }, vec![Spin, Spin, Spin]);
        assert_eq!(m.done, 60);
        // demand-driven: every worker got some units
        for mr in &r.machines {
            assert!(mr.units_done > 0, "idle worker in demand-driven pool");
        }
    }

    #[test]
    #[should_panic]
    fn mismatched_worker_count_panics() {
        let cluster = ThreadCluster::new(2);
        let master = CountMaster {
            next: 0,
            limit: 1,
            seen: BTreeSet::new(),
        };
        let _ = cluster.run(master, vec![Squarer]);
    }

    // -----------------------------------------------------------------
    // fault injection + recovery (real threads, wall-clock leases)
    // -----------------------------------------------------------------

    #[test]
    fn crashed_worker_thread_does_not_panic_the_master() {
        // no recovery configured at all: the seed's loop panicked here
        // ("workers alive while active > 0"); now the run ends gracefully
        let mut cluster = ThreadCluster::new(1);
        cluster.faults = FaultPlan::none().crash_at(0, 0);
        let master = CountMaster {
            next: 0,
            limit: 5,
            seen: BTreeSet::new(),
        };
        let (m, r) = cluster.run(master, vec![Squarer]);
        assert_eq!(m.seen.len(), 0, "the sole worker died before computing");
        assert_eq!(r.workers_lost, 1);
        assert!(r.machines[0].lost);
    }

    #[test]
    fn crash_mid_run_recovers_on_survivors() {
        let mut cluster = ThreadCluster::new(3);
        cluster.faults = FaultPlan::none().crash_at(1, 2);
        cluster.recovery = RecoveryConfig {
            lease_timeout_s: 0.25,
            max_worker_failures: 1,
            ..RecoveryConfig::default()
        };
        let master = CountMaster {
            next: 0,
            limit: 40,
            seen: BTreeSet::new(),
        };
        let workers = (0..3)
            .map(|_| SlowSquarer(Duration::from_millis(2)))
            .collect();
        let (m, r) = cluster.run(master, workers);
        assert_eq!(m.seen.len(), 40, "all units integrated despite the crash");
        assert_eq!(r.workers_lost, 1);
        assert!(r.machines[1].lost);
        assert!(r.units_reassigned >= 1);
        assert_eq!(r.faults_injected, 1);
    }

    #[test]
    fn stalled_worker_completes_within_lease_budget() {
        let mut cluster = ThreadCluster::new(3);
        cluster.faults = FaultPlan::none().stall_at(2, 1);
        cluster.recovery = RecoveryConfig {
            lease_timeout_s: 0.15,
            max_worker_failures: 1,
            ..RecoveryConfig::default()
        };
        let master = CountMaster {
            next: 0,
            limit: 30,
            seen: BTreeSet::new(),
        };
        let workers = (0..3)
            .map(|_| SlowSquarer(Duration::from_millis(2)))
            .collect();
        let t0 = Instant::now();
        let (m, r) = cluster.run(master, workers);
        let wall = t0.elapsed().as_secs_f64();
        assert_eq!(m.seen.len(), 30);
        assert_eq!(r.workers_lost, 1);
        assert!(r.machines[2].lost);
        assert!(r.units_reassigned >= 1);
        // one lease expiry plus survivor compute: nowhere near a hang
        assert!(wall < 10.0, "run took {wall:.2}s");
    }

    #[test]
    fn late_duplicate_from_slow_worker_is_dropped() {
        // worker 0's second unit takes ~50x its normal ~4ms: the ~0.08s
        // lease expires, the unit completes elsewhere, and worker 0's late
        // answer must be discarded (CountMaster asserts at-most-once)
        let mut cluster = ThreadCluster::new(3);
        cluster.faults = FaultPlan::none().slow_from(0, 1, 50.0);
        cluster.recovery = RecoveryConfig {
            lease_timeout_s: 0.08,
            max_worker_failures: 20,
            ..RecoveryConfig::default()
        };
        // enough units that the healthy pair outlasts the ~200 ms late
        // result: the run must still be in progress when it arrives
        let master = CountMaster {
            next: 0,
            limit: 200,
            seen: BTreeSet::new(),
        };
        let workers = (0..3)
            .map(|_| SlowSquarer(Duration::from_millis(4)))
            .collect();
        let (m, r) = cluster.run(master, workers);
        assert_eq!(m.seen.len(), 200);
        assert!(r.units_reassigned >= 1);
        assert!(
            r.duplicates_dropped >= 1,
            "late results must surface as dropped duplicates (got {:?})",
            (r.units_reassigned, r.duplicates_dropped)
        );
        assert_eq!(r.workers_lost, 0, "slow-but-alive worker stays in the pool");
    }

    #[test]
    fn corrupt_results_strike_and_quarantine_the_worker() {
        // worker 1 answers every unit with damaged bytes; the master
        // rejects each result, requeues the unit, and after
        // `max_worker_strikes` excludes the worker for good — the run
        // still integrates every unit via the honest survivors
        let mut cluster = ThreadCluster::new(3);
        cluster.faults = FaultPlan::none().corrupt_from(1, 0);
        let master = CountMaster {
            next: 0,
            limit: 60,
            seen: BTreeSet::new(),
        };
        let workers = (0..3)
            .map(|_| SlowSquarer(Duration::from_millis(1)))
            .collect();
        let (m, r) = cluster.run(master, workers);
        assert_eq!(m.seen.len(), 60, "every unit integrated despite corruption");
        assert_eq!(r.results_rejected, 3, "one strike per bad result");
        assert_eq!(r.workers_quarantined, 1);
        assert_eq!(r.workers_lost, 1);
        assert!(r.machines[1].lost);
    }

    #[test]
    fn speculative_backup_covers_a_straggling_worker() {
        // worker 0 turns 50x slower after its first unit; with
        // speculation on, an idle survivor draws a backup lease against
        // the straggler instead of the run waiting out a huge lease
        let mut cluster = ThreadCluster::new(3);
        cluster.faults = FaultPlan::none().slow_from(0, 1, 50.0);
        cluster.recovery = RecoveryConfig {
            lease_timeout_s: 1e9, // leases never expire: only speculation helps
            speculate: true,
            speculate_factor: 3.0,
            ..RecoveryConfig::default()
        };
        let master = CountMaster {
            next: 0,
            limit: 60,
            seen: BTreeSet::new(),
        };
        let workers = (0..3)
            .map(|_| SlowSquarer(Duration::from_millis(4)))
            .collect();
        let t0 = Instant::now();
        let (m, r) = cluster.run(master, workers);
        let wall = t0.elapsed().as_secs_f64();
        assert_eq!(m.seen.len(), 60, "at-most-once integration holds");
        assert!(r.backup_leases >= 1, "straggler must draw a backup lease");
        assert_eq!(r.workers_lost, 0, "slow-but-alive worker stays in the pool");
        assert!(wall < 30.0, "speculation must beat the 1e9 s lease");
    }

    #[test]
    fn slow_lone_worker_outlives_a_too_short_lease() {
        // every lease expires before its ~60 ms unit is done and nobody
        // else can take the retry: the master waits one more backed-off
        // lease, the late (stale) result arrives within it, and the worker
        // redoes the unit under the doubled lease
        let mut cluster = ThreadCluster::new(1);
        cluster.recovery = RecoveryConfig {
            lease_timeout_s: 0.04,
            max_worker_failures: 10,
            ..RecoveryConfig::default()
        };
        let master = CountMaster {
            next: 0,
            limit: 3,
            seen: BTreeSet::new(),
        };
        let (m, r) = cluster.run(master, vec![SlowSquarer(Duration::from_millis(60))]);
        assert_eq!(m.seen.len(), 3, "the run backs off instead of giving up");
        assert!(r.duplicates_dropped >= 1 && r.units_reassigned >= 1);
        assert_eq!(r.workers_lost, 0);
    }

    #[test]
    fn wedged_lone_worker_is_given_up_on_after_one_more_lease() {
        // the only worker stalls forever on its first unit and one expiry
        // does not exclude it: patience runs out and the run ends with
        // what it has instead of hanging
        let mut cluster = ThreadCluster::new(1);
        cluster.faults = FaultPlan::none().stall_at(0, 0);
        cluster.recovery = RecoveryConfig {
            lease_timeout_s: 0.05,
            max_worker_failures: 10,
            ..RecoveryConfig::default()
        };
        let master = CountMaster {
            next: 0,
            limit: 3,
            seen: BTreeSet::new(),
        };
        let (m, r) = cluster.run(master, vec![Squarer]);
        assert_eq!(m.seen.len(), 0);
        assert!(
            r.makespan_s >= 0.14 && r.makespan_s < 5.0,
            "gave up after lease + backed-off lease, not before and not never ({})",
            r.makespan_s
        );
    }

    #[test]
    fn all_workers_dead_ends_gracefully_with_partial_result() {
        let mut cluster = ThreadCluster::new(2);
        cluster.faults = FaultPlan::none().crash_at(0, 1).crash_at(1, 1);
        cluster.recovery = RecoveryConfig {
            lease_timeout_s: 5.0,
            max_worker_failures: 3,
            ..RecoveryConfig::default()
        };
        let master = CountMaster {
            next: 0,
            limit: 50,
            seen: BTreeSet::new(),
        };
        let workers = (0..2)
            .map(|_| SlowSquarer(Duration::from_millis(1)))
            .collect();
        let (m, r) = cluster.run(master, workers);
        // both threads exit after their first unit; the master notices the
        // disconnect long before the 5 s leases and returns what it has
        assert!(m.seen.len() <= 4);
        assert_eq!(r.workers_lost, 2);
        assert!(r.makespan_s < 5.0, "disconnect must beat the lease timeout");
    }
}
