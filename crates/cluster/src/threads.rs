//! Real-parallel backend: each workstation is an OS thread.
//!
//! A thin in-process launcher for the one wall-clock driver: the calling
//! thread runs [`crate::net`]'s master sweep loop over loopback sockets to
//! one worker thread per workstation, each running the ordinary
//! [`TcpWorkerConn`] serve loop. Leases, heartbeats, recovery, fault
//! realisation and wire accounting are all the TCP driver's. Use it to
//! measure actual parallel speedups of the render farm on the host (the
//! simulator reproduces the paper's heterogeneous 3-SGI setup
//! deterministically).
//!
//! Parallelism composes two levels: this backend supplies the paper's
//! *across-workstation* level (one thread per worker), while the worker
//! logic may additionally fan each unit out over an intra-worker tile
//! pool (`RenderSettings::threads`), so a run can use up to
//! `workers x threads` cores. Both levels preserve byte-identical
//! output, so the composition does too.

use crate::fault::FaultPlan;
use crate::ledger::RecoveryConfig;
use crate::logic::{MasterLogic, WorkerLogic};
use crate::net::{run_master, TcpClusterConfig, TcpWorkerConn, Wire};
use crate::report::RunReport;
use std::net::{TcpListener, TcpStream};

/// A thread-per-worker cluster.
#[derive(Debug, Clone)]
pub struct ThreadCluster {
    /// Number of worker threads.
    pub workers: usize,
    /// Deterministic fault injection (empty by default); thread `i` is
    /// worker `i`. Handed to the serve loops and the master (DESIGN.md §8).
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
        M::Unit: Wire,
        M::Result: Wire,
        W: WorkerLogic<Unit = M::Unit, Result = M::Result> + 'static,
    {
        assert_eq!(workers.len(), self.workers, "one WorkerLogic per worker");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback listener");
        let addr = listener.local_addr().expect("loopback listener address");
        let mut master_ends = Vec::with_capacity(self.workers);
        let mut handles = Vec::with_capacity(self.workers);
        for logic in workers {
            // one pair at a time: the i-th master end becomes slot i, and
            // its node id tells the i-th thread which faults are its own
            let stream = TcpStream::connect(addr).expect("connect over loopback");
            master_ends.push(listener.accept().expect("accept over loopback").0);
            let _ = stream.set_nodelay(true);
            let faults = self.faults.clone();
            handles.push(std::thread::spawn(move || {
                TcpWorkerConn::welcomed(stream, 0).map_or(0, |c| c.serve_with(logic, &faults).1)
            }));
        }
        let mut cfg = TcpClusterConfig::new(self.workers);
        cfg.recovery = self.recovery;
        cfg.chaos.compute = self.faults.clone();
        let (master, mut report) = run_master(master, &cfg, None, master_ends)
            .expect("a run with every worker enrolled cannot time out");
        for (i, (h, m)) in handles.into_iter().zip(&mut report.machines).enumerate() {
            report.faults_injected += h.join().unwrap_or(0);
            m.name = format!("thread-{i}");
        }
        (master, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logic::{MasterWork, WorkCost};
    use std::collections::BTreeSet;
    use std::time::{Duration, Instant};

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
        // the wire is real: every unit went out and every result came back
        assert!(r.bytes > 0);
        assert!(r.messages >= 2 * 200, "{} messages", r.messages);
        assert!(r.machines.iter().all(|m| m.bytes_sent > 0));
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
                // a small real computation, plus a fixed real duration so
                // the 60 units outlast every thread's start-up even when
                // the loop alone is over in microseconds
                let mut acc = *unit;
                for i in 0..200_000u64 {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
                }
                std::thread::sleep(Duration::from_millis(2));
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
