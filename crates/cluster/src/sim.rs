//! Deterministic discrete-event simulation of a heterogeneous NOW.
//!
//! Machines have relative speed factors and memory capacities; the network
//! is a shared-bus Ethernet with latency and bandwidth ("the ethernet
//! network, which is relatively slow compared to interconnection networks
//! found on multiprocessor machines"). The master is a coordinator process
//! whose result handling (Targa file writing) can overlap with worker
//! computation — the mechanism behind the paper's better-than-
//! multiplicative distributed speedups.
//!
//! Work is *executed for real* when a unit is assigned (the worker logic
//! renders actual pixels); only time is virtual, charged as
//! `work_units / speed` plus an optional paging penalty when a unit's
//! working set exceeds the machine's memory.
//!
//! Unlike the paper's PVM setup, machines are allowed to fail: a
//! [`FaultPlan`] injects crashes, stalls, slowdowns and dropped results
//! deterministically into the virtual timeline, and the master recovers
//! through the lease/retry/exclusion protocol of [`crate::core`] when
//! [`SimCluster::recovery`] enables finite leases. The simulator is the
//! virtual clock's driver of that protocol: it turns its event heap into core
//! events on the virtual clock and charges the resulting messages to the
//! bus model; the policy itself lives in [`MasterCore`].
//!
//! A worker's `work_units` may itself come from multi-threaded execution
//! (the intra-worker tile pool): the worker logic then charges the pool's
//! deterministic critical path rather than summed thread time, so virtual
//! timelines remain reproducible on any host.

use crate::core::{Action, MasterCore};
use crate::fault::FaultPlan;
use crate::ledger::RecoveryConfig;
use crate::logic::{MasterLogic, WorkerLogic};
use crate::report::{MachineReport, RunReport, SpanKind, TimelineSpan};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A simulated workstation.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineSpec {
    /// Display name (e.g. "SGI Indigo2 200MHz").
    pub name: String,
    /// Relative speed: work takes `work_units / speed` seconds here.
    pub speed: f64,
    /// Main memory in MB; units whose working set exceeds this are slowed
    /// by the paging factor.
    pub memory_mb: f64,
}

impl MachineSpec {
    /// Convenience constructor.
    pub fn new(name: &str, speed: f64, memory_mb: f64) -> MachineSpec {
        MachineSpec {
            name: name.to_string(),
            speed,
            memory_mb,
        }
    }

    /// The paper's cluster: one SGI Indigo2 at 200 MHz / 64 MB and two
    /// 100 MHz / 32 MB machines. Speeds are relative to the slow machines.
    pub fn paper_cluster() -> Vec<MachineSpec> {
        vec![
            MachineSpec::new("SGI Indigo2 200MHz/64MB", 2.0, 64.0),
            MachineSpec::new("SGI Indigo2 100MHz/32MB", 1.0, 32.0),
            MachineSpec::new("SGI Indigo 100MHz/32MB", 1.0, 32.0),
        ]
    }
}

/// Seconds `work` CPU-seconds take on a machine of relative `speed` with
/// `memory_mb` MB of memory when the working set is `ws_mb` MB: only the
/// excess fraction of the working set pages, slowed by `paging_factor`.
pub fn paged_seconds(work: f64, speed: f64, memory_mb: f64, ws_mb: f64, paging_factor: f64) -> f64 {
    let mut t = work / speed;
    if ws_mb > memory_mb && ws_mb > 0.0 {
        let excess = (ws_mb - memory_mb) / ws_mb;
        t *= 1.0 + (paging_factor - 1.0) * excess;
    }
    t
}

/// Shared-bus Ethernet model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EthernetSpec {
    /// Per-message latency in seconds.
    pub latency_s: f64,
    /// Bus bandwidth in bytes/second.
    pub bandwidth: f64,
    /// Per-message master handling overhead in seconds (unpack + assign).
    pub master_overhead_s: f64,
    /// Slowdown multiplier applied to compute whose working set exceeds
    /// machine memory.
    pub paging_factor: f64,
}

impl Default for EthernetSpec {
    fn default() -> EthernetSpec {
        // 10 Mb/s shared Ethernet of the era, ~1 ms latency
        EthernetSpec {
            latency_s: 1e-3,
            bandwidth: 10e6 / 8.0,
            master_overhead_s: 2e-4,
            paging_factor: 2.5,
        }
    }
}

/// Simulation event.
enum Event<U, R> {
    /// A request (optionally carrying a finished assignment's result)
    /// reaches the master.
    RequestAtMaster {
        worker: usize,
        done: Option<(u64, R)>,
    },
    /// The master is ready to answer `worker`.
    MasterReply { worker: usize },
    /// A unit assignment reaches the worker.
    UnitAtWorker { worker: usize, assign: u64, unit: U },
    /// The worker has finished computing and starts sending its result.
    ///
    /// Bus capacity is allocated only when simulated time *reaches* the
    /// send (not when the finish time is first computed) — allocating
    /// eagerly would reserve the bus in the future and wrongly delay
    /// earlier transfers from faster machines.
    WorkerSend {
        worker: usize,
        assign: u64,
        result: R,
        bytes: u64,
    },
    /// The core's next deadline passed: expire what is overdue and let
    /// parked workers pick up requeued or straggling units.
    LeaseCheck,
}

struct Scheduled<U, R> {
    at: f64,
    seq: u64,
    event: Event<U, R>,
}

impl<U, R> PartialEq for Scheduled<U, R> {
    fn eq(&self, o: &Self) -> bool {
        self.at == o.at && self.seq == o.seq
    }
}
impl<U, R> Eq for Scheduled<U, R> {}
impl<U, R> PartialOrd for Scheduled<U, R> {
    fn partial_cmp(&self, o: &Self) -> Option<Ordering> {
        Some(self.cmp(o))
    }
}
impl<U, R> Ord for Scheduled<U, R> {
    fn cmp(&self, o: &Self) -> Ordering {
        // min-heap via reversal: earlier time first, then lower seq
        o.at.total_cmp(&self.at).then(o.seq.cmp(&self.seq))
    }
}

/// Bytes of a bare work request message.
const REQUEST_BYTES: u64 = 64;

/// A simulated cluster: machine roster plus network model.
///
/// Machine 0 hosts the master *coordinator*; every machine (including
/// machine 0's CPU when `master_also_works` is set — not the default, to
/// match the paper where the coordinating process was lightweight) runs a
/// worker.
#[derive(Debug, Clone)]
pub struct SimCluster {
    /// Worker machines (one worker per entry).
    pub machines: Vec<MachineSpec>,
    /// Network model.
    pub net: EthernetSpec,
    /// Record per-span busy intervals into [`RunReport::timeline`]
    /// (gantt rendering; off by default to keep reports small).
    pub record_timeline: bool,
    /// Deterministic fault injection (empty by default).
    pub faults: FaultPlan,
    /// Lease/timeout recovery policy (disabled by default: infinite
    /// leases reproduce the seed's trusting behaviour).
    pub recovery: RecoveryConfig,
}

impl SimCluster {
    /// Cluster with the given machines and default Ethernet.
    pub fn new(machines: Vec<MachineSpec>) -> SimCluster {
        SimCluster {
            machines,
            net: EthernetSpec::default(),
            record_timeline: false,
            faults: FaultPlan::none(),
            recovery: RecoveryConfig::default(),
        }
    }

    /// The paper's 3-machine heterogeneous cluster.
    pub fn paper() -> SimCluster {
        SimCluster::new(MachineSpec::paper_cluster())
    }

    /// Run a master/worker job to completion, returning the master logic
    /// (with all integrated results) and the timing report.
    ///
    /// `workers[i]` runs on `machines[i]`. Deterministic: same inputs give
    /// the same virtual timeline, regardless of host machine or load.
    ///
    /// ```
    /// use now_cluster::{MasterLogic, MasterWork, SimCluster, WorkCost, WorkerLogic};
    ///
    /// struct Master { left: u32, sum: u64 }
    /// impl MasterLogic for Master {
    ///     type Unit = u32;
    ///     type Result = u64;
    ///     fn assign(&mut self, _w: usize) -> Option<u32> {
    ///         (self.left > 0).then(|| { self.left -= 1; self.left })
    ///     }
    ///     fn integrate(&mut self, _w: usize, _u: u32, r: u64) -> Option<MasterWork> {
    ///         self.sum += r;
    ///         Some(MasterWork::default())
    ///     }
    /// }
    /// struct Worker;
    /// impl WorkerLogic for Worker {
    ///     type Unit = u32;
    ///     type Result = u64;
    ///     fn perform(&mut self, u: &u32) -> (u64, WorkCost) {
    ///         ((*u as u64) * 2, WorkCost::compute_only(1.0))
    ///     }
    /// }
    ///
    /// let cluster = SimCluster::paper(); // 3 machines, speeds 2/1/1
    /// let (master, report) = cluster.run(
    ///     Master { left: 8, sum: 0 },
    ///     vec![Worker, Worker, Worker],
    /// );
    /// assert_eq!(master.sum, 2 * (0..8).sum::<u64>());
    /// // 8 seconds of speed-1 work on aggregate power 4: about 2 virtual s
    /// assert!(report.makespan_s >= 2.0 && report.makespan_s < 4.0);
    /// ```
    pub fn run<M, W>(&self, master: M, workers: Vec<W>) -> (M, RunReport)
    where
        M: MasterLogic,
        W: WorkerLogic<Unit = M::Unit, Result = M::Result>,
    {
        assert_eq!(workers.len(), self.machines.len(), "one worker per machine");
        let n = workers.len();
        assert!(n > 0, "need at least one machine");
        let mut run = SimRun {
            cluster: self,
            workers,
            core: MasterCore::new(master, self.recovery, 1),
            queue: BinaryHeap::new(),
            seq: 0,
            bus_free: 0.0,
            master_free: 0.0,
            makespan: 0.0,
            report: RunReport {
                machines: (self.machines.iter())
                    .map(|m| MachineReport {
                        name: m.name.clone(),
                        ..Default::default()
                    })
                    .collect(),
                ..Default::default()
            },
            units_started: vec![0; n],
            dead: vec![false; n],
            armed: f64::INFINITY,
        };
        // every worker fires an initial request when it joins the run
        // (t = 0 unless the fault plan schedules a late join)
        for w in 0..n {
            run.core.joined();
            let arrive = run.transfer(self.faults.join_time(w), REQUEST_BYTES, Some(w));
            run.push(
                arrive,
                Event::RequestAtMaster {
                    worker: w,
                    done: None,
                },
            );
        }
        while let Some(Scheduled { at, event, .. }) = run.queue.pop() {
            run.step(at, event);
        }
        run.finish()
    }
}

/// One simulated run: the event heap, the bus and master clocks, the
/// injected-fault state of each machine, and the protocol core they drive.
struct SimRun<'a, M: MasterLogic, W> {
    cluster: &'a SimCluster,
    workers: Vec<W>,
    core: MasterCore<M>,
    queue: BinaryHeap<Scheduled<M::Unit, M::Result>>,
    seq: u64,
    bus_free: f64,
    master_free: f64,
    makespan: f64,
    report: RunReport,
    /// units each worker has started (0-based fault trigger counter)
    units_started: Vec<u64>,
    /// workers whose simulated process crashed (produce no events)
    dead: Vec<bool>,
    /// earliest time a `LeaseCheck` is already scheduled for
    armed: f64,
}

impl<M, W> SimRun<'_, M, W>
where
    M: MasterLogic,
    W: WorkerLogic<Unit = M::Unit, Result = M::Result>,
{
    fn push(&mut self, at: f64, event: Event<M::Unit, M::Result>) {
        self.seq += 1;
        self.queue.push(Scheduled {
            at,
            seq: self.seq,
            event,
        });
    }

    /// Transfer over the shared bus, ready at `ready`: returns arrival time.
    fn transfer(&mut self, ready: f64, bytes: u64, sender: Option<usize>) -> f64 {
        let net = &self.cluster.net;
        let start = self.bus_free.max(ready);
        let dur = net.latency_s + (bytes as f64) / net.bandwidth;
        self.bus_free = start + dur;
        self.report.network_busy_s += dur;
        self.span(
            sender.unwrap_or(usize::MAX),
            start,
            self.bus_free,
            SpanKind::Transfer,
        );
        self.report.messages += 1;
        self.report.bytes += bytes;
        if let Some(s) = sender {
            self.report.machines[s].bytes_sent += bytes;
        }
        self.bus_free
    }

    fn span(&mut self, machine: usize, start: f64, end: f64, kind: SpanKind) {
        if self.cluster.record_timeline {
            self.report.timeline.push(TimelineSpan {
                machine,
                start,
                end,
                kind,
            });
        }
    }

    /// Parked workers the core wants re-polled at `now` get their reply
    /// when the master is free to send it.
    fn wake_parked(&mut self, now: f64, reply_at: f64) {
        if self.core.wakeable(now) {
            for w in self.core.take_parked() {
                self.push(reply_at, Event::MasterReply { worker: w });
            }
        }
    }

    fn step(&mut self, at: f64, event: Event<M::Unit, M::Result>) {
        // lease checks whose lease already completed are lazy-cancelled
        // no-ops and must not stretch the makespan
        if !matches!(event, Event::LeaseCheck) {
            self.makespan = self.makespan.max(at);
        }
        match event {
            Event::RequestAtMaster { worker, done } => self.request_at_master(at, worker, done),
            Event::MasterReply { worker } => self.core.request(worker, at),
            Event::UnitAtWorker {
                worker,
                assign,
                unit,
            } => self.unit_at_worker(at, worker, assign, unit),
            Event::WorkerSend {
                worker,
                assign,
                result,
                bytes,
            } => {
                let arrive = self.transfer(at, bytes, Some(worker));
                self.push(
                    arrive,
                    Event::RequestAtMaster {
                        worker,
                        done: Some((assign, result)),
                    },
                );
            }
            Event::LeaseCheck => {
                if now_trace::enabled() {
                    // lease-check cadence tracks virtual time, which
                    // scales with the worker thread count
                    now_trace::global().counter_add_nd("sim.lease_checks", 1);
                }
                if at >= self.armed {
                    self.armed = f64::INFINITY;
                }
                for worker in self.core.tick(at) {
                    self.makespan = self.makespan.max(at);
                    self.span(worker, at, at, SpanKind::Reassign);
                }
                self.wake_parked(at, at);
            }
        }
        self.realise_actions(at);
        // keep a check scheduled for the core's next deadline
        if let Some(d) = self.core.next_deadline(at).filter(|&d| d < self.armed) {
            self.armed = d;
            self.push(d.max(at), Event::LeaseCheck);
        }
    }

    fn request_at_master(&mut self, at: f64, worker: usize, done: Option<(u64, M::Result)>) {
        // master unpacks the message
        let overhead = self.cluster.net.master_overhead_s;
        let mut t = self.master_free.max(at) + overhead;
        self.report.master_busy_s += overhead;
        let integrated =
            done.and_then(|(assign, result)| self.core.result(worker, assign, Ok(result), at));
        match integrated {
            Some(mw) => {
                let work_start = t;
                if mw.overlappable {
                    // reply first, absorb the work afterwards
                    self.master_free = t + mw.work_units;
                } else {
                    t += mw.work_units;
                    self.master_free = t;
                }
                if mw.work_units > 0.0 {
                    let end = work_start + mw.work_units;
                    self.span(0, work_start, end, SpanKind::MasterWork);
                }
                self.report.master_busy_s += mw.work_units;
                self.makespan = self.makespan.max(self.master_free).max(t);
            }
            // a bare request, a late duplicate or a rejected result:
            // nothing to absorb
            None => self.master_free = t,
        }
        // replies go out once the master is free: first to the parked
        // workers this message gives a reason to re-poll, then the sender
        self.wake_parked(at, t);
        self.push(t, Event::MasterReply { worker });
    }

    /// The unit reaches the worker, which computes it — unless the fault
    /// plan says this is where it crashes, stalls, slows down or loses
    /// the result.
    fn unit_at_worker(&mut self, at: f64, worker: usize, assign: u64, unit: M::Unit) {
        let faults = &self.cluster.faults;
        let idx = self.units_started[worker];
        self.units_started[worker] += 1;
        if self.dead[worker] {
            return;
        }
        if faults.crash_unit(worker) == Some(idx) {
            self.dead[worker] = true;
            self.report.faults_injected += 1;
            return;
        }
        if faults.stall_unit(worker) == Some(idx) {
            self.report.faults_injected += 1;
            return;
        }
        let (mut result, cost) = self.workers[worker].perform(&unit);
        if faults.corrupts(worker, idx) {
            W::corrupt(&mut result);
            self.report.faults_injected += 1;
        }
        let spec = &self.cluster.machines[worker];
        let (ws, paging) = (cost.working_set_mb, self.cluster.net.paging_factor);
        let mut dur = paged_seconds(cost.work_units, spec.speed, spec.memory_mb, ws, paging);
        let slow = faults.slowdown(worker, idx);
        if slow != 1.0 {
            dur *= slow;
            self.report.faults_injected += 1;
        }
        self.report.machines[worker].busy_s += dur;
        self.report.machines[worker].units_done += 1;
        self.span(worker, at, at + dur, SpanKind::Compute);
        if faults.drops_result(worker, idx) {
            self.report.faults_injected += 1;
            return;
        }
        self.push(
            at + dur,
            Event::WorkerSend {
                worker,
                assign,
                result,
                bytes: cost.result_bytes + REQUEST_BYTES,
            },
        );
    }

    /// Realise the core's actions: a unit goes over the bus. No message is
    /// modelled for a dismissal or an exclusion: the worker simply never
    /// hears from the master again.
    fn realise_actions(&mut self, at: f64) {
        while let Some(action) = self.core.next_action() {
            match action {
                Action::Send {
                    worker,
                    assign_id,
                    unit,
                } => {
                    let bytes = self.core.master().unit_bytes(&unit);
                    let arrive = self.transfer(at, bytes, None);
                    self.report.machines[worker].bytes_received += bytes;
                    self.push(
                        arrive,
                        Event::UnitAtWorker {
                            worker,
                            assign: assign_id,
                            unit,
                        },
                    );
                }
                Action::Shutdown { .. } | Action::Lost { .. } => {}
            }
        }
    }

    fn finish(mut self) -> (M, RunReport) {
        // (a live service never dismisses its workers: they stay parked for
        // jobs that, on this transport, no client can submit any more)
        debug_assert!(
            !self.cluster.faults.is_empty()
                || self.core.finished()
                || !self.core.master().all_done(),
            "all workers must be shut down in a fault-free run"
        );
        self.report.makespan_s = self.makespan.max(self.master_free);
        let (master, mut counters, health) = self.core.finish();
        counters.faults_injected = self.report.faults_injected;
        self.report.absorb_recovery(&counters, &health);
        (master, self.report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logic::{MasterWork, WorkCost};

    /// Fixed pool of equal-cost units.
    struct PoolMaster {
        remaining: usize,
        integrated: Vec<(usize, u64)>, // (worker, unit id)
        write_cost: f64,
        overlappable: bool,
    }

    impl MasterLogic for PoolMaster {
        type Unit = u64;
        type Result = u64;
        fn assign(&mut self, _worker: usize) -> Option<u64> {
            if self.remaining == 0 {
                None
            } else {
                self.remaining -= 1;
                Some(self.remaining as u64)
            }
        }
        fn integrate(&mut self, worker: usize, unit: u64, result: u64) -> Option<MasterWork> {
            if result != unit * 2 {
                // failed verification: reject, never integrate
                return None;
            }
            assert!(
                !self.integrated.iter().any(|&(_, u)| u == unit),
                "unit {unit} integrated twice"
            );
            self.integrated.push((worker, unit));
            Some(MasterWork {
                work_units: self.write_cost,
                overlappable: self.overlappable,
            })
        }
    }

    struct Doubler {
        unit_cost: f64,
        result_bytes: u64,
    }

    impl WorkerLogic for Doubler {
        type Unit = u64;
        type Result = u64;
        fn perform(&mut self, unit: &u64) -> (u64, WorkCost) {
            (
                unit * 2,
                WorkCost {
                    work_units: self.unit_cost,
                    result_bytes: self.result_bytes,
                    working_set_mb: 0.0,
                },
            )
        }
        fn corrupt(result: &mut u64) {
            *result ^= 0xBAD0_BEEF;
        }
    }

    fn run_pool(
        machines: Vec<MachineSpec>,
        units: usize,
        unit_cost: f64,
        write_cost: f64,
        overlappable: bool,
    ) -> (PoolMaster, RunReport) {
        run_pool_faulty(
            machines,
            units,
            unit_cost,
            write_cost,
            overlappable,
            FaultPlan::none(),
            RecoveryConfig::default(),
        )
    }

    fn run_pool_faulty(
        machines: Vec<MachineSpec>,
        units: usize,
        unit_cost: f64,
        write_cost: f64,
        overlappable: bool,
        faults: FaultPlan,
        recovery: RecoveryConfig,
    ) -> (PoolMaster, RunReport) {
        let mut cluster = SimCluster::new(machines);
        cluster.faults = faults;
        cluster.recovery = recovery;
        let n = cluster.machines.len();
        let master = PoolMaster {
            remaining: units,
            integrated: Vec::new(),
            write_cost,
            overlappable,
        };
        let workers: Vec<Doubler> = (0..n)
            .map(|_| Doubler {
                unit_cost,
                result_bytes: 1000,
            })
            .collect();
        cluster.run(master, workers)
    }

    #[test]
    fn all_units_complete_exactly_once() {
        let (m, r) = run_pool(MachineSpec::paper_cluster(), 40, 1.0, 0.0, true);
        assert_eq!(m.integrated.len(), 40);
        let mut ids: Vec<u64> = m.integrated.iter().map(|&(_, u)| u).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..40).collect::<Vec<_>>());
        assert_eq!(r.machines.iter().map(|m| m.units_done).sum::<u64>(), 40);
    }

    #[test]
    fn heterogeneous_speedup_tracks_aggregate_power() {
        // single fast machine
        let (_, single) = run_pool(
            vec![MachineSpec::new("fast", 2.0, 64.0)],
            60,
            1.0,
            0.0,
            true,
        );
        // paper cluster: aggregate power 4 vs fastest 2 -> ~2x
        let (_, multi) = run_pool(MachineSpec::paper_cluster(), 60, 1.0, 0.0, true);
        let speedup = single.makespan_s / multi.makespan_s;
        assert!(
            (1.7..=2.1).contains(&speedup),
            "expected ~2x speedup, got {speedup:.3} ({} vs {})",
            single.makespan_s,
            multi.makespan_s
        );
    }

    #[test]
    fn fast_machine_does_more_units() {
        let (_, r) = run_pool(MachineSpec::paper_cluster(), 60, 1.0, 0.0, true);
        assert!(r.machines[0].units_done > r.machines[1].units_done);
        assert!(r.machines[0].units_done > r.machines[2].units_done);
        // demand-driven: the fast machine does ~2x the units of a slow one
        let ratio = r.machines[0].units_done as f64 / r.machines[1].units_done as f64;
        assert!((1.5..=2.6).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn determinism() {
        let (_, a) = run_pool(MachineSpec::paper_cluster(), 30, 0.7, 0.01, true);
        let (_, b) = run_pool(MachineSpec::paper_cluster(), 30, 0.7, 0.01, true);
        assert_eq!(a, b);
    }

    #[test]
    fn overlappable_writes_hide_master_cost() {
        // with file writes small enough that compute dominates, overlapping
        // the writes with worker compute must beat serialising them into
        // the reply path
        let (_, overlap) = run_pool(MachineSpec::paper_cluster(), 30, 1.5, 0.15, true);
        let (_, serial) = run_pool(MachineSpec::paper_cluster(), 30, 1.5, 0.15, false);
        assert!(
            overlap.makespan_s < serial.makespan_s,
            "overlap {} !< serial {}",
            overlap.makespan_s,
            serial.makespan_s
        );
    }

    #[test]
    fn network_charges_bytes() {
        let (_, r) = run_pool(vec![MachineSpec::new("m", 1.0, 32.0)], 5, 0.1, 0.0, true);
        // 1 initial request + 5 (unit + result/request) + 1 final exchange
        assert!(r.messages >= 11);
        assert!(r.bytes >= 5 * 1000);
        assert!(r.network_busy_s > 0.0);
        // conservation: busy time equals units * cost / speed
        assert!((r.machines[0].busy_s - 0.5).abs() < 1e-9);
    }

    #[test]
    fn paging_penalty_applies() {
        struct BigWorker;
        impl WorkerLogic for BigWorker {
            type Unit = u64;
            type Result = u64;
            fn perform(&mut self, unit: &u64) -> (u64, WorkCost) {
                (
                    unit * 2,
                    WorkCost {
                        work_units: 1.0,
                        result_bytes: 10,
                        working_set_mb: 100.0,
                    },
                )
            }
        }
        let cluster = SimCluster::new(vec![MachineSpec::new("small", 1.0, 32.0)]);
        let master = PoolMaster {
            remaining: 3,
            integrated: vec![],
            write_cost: 0.0,
            overlappable: true,
        };
        let (_, r) = cluster.run(master, vec![BigWorker]);
        // 100 MB working set on a 32 MB machine: 68% excess pages, so
        // 3 units * 1.0 s * (1 + 1.5 * 0.68)
        let expected = 3.0 * (1.0 + 1.5 * (100.0 - 32.0) / 100.0);
        assert!(
            (r.machines[0].busy_s - expected).abs() < 1e-9,
            "{}",
            r.machines[0].busy_s
        );
    }

    #[test]
    fn slow_network_dominates_tiny_units() {
        let mut cluster = SimCluster::new(vec![MachineSpec::new("m", 1.0, 32.0)]);
        cluster.net.latency_s = 0.5; // terrible network
        let master = PoolMaster {
            remaining: 4,
            integrated: vec![],
            write_cost: 0.0,
            overlappable: true,
        };
        let workers = vec![Doubler {
            unit_cost: 0.001,
            result_bytes: 10,
        }];
        let (_, r) = cluster.run(master, workers);
        // at least 2 transfers per unit at 0.5 s latency each
        assert!(r.makespan_s > 4.0 * 2.0 * 0.5);
        // compute utilisation is tiny: "the overhead of message passing ...
        // would result in inefficiency" (the paper's per-pixel extreme)
        assert!(r.utilisation(0) < 0.01);
    }

    #[test]
    #[should_panic]
    fn worker_machine_mismatch_panics() {
        let cluster = SimCluster::paper();
        let master = PoolMaster {
            remaining: 1,
            integrated: vec![],
            write_cost: 0.0,
            overlappable: true,
        };
        let _ = cluster.run(
            master,
            vec![Doubler {
                unit_cost: 1.0,
                result_bytes: 1,
            }],
        );
    }

    // -----------------------------------------------------------------
    // fault injection + recovery
    // -----------------------------------------------------------------

    fn machines3() -> Vec<MachineSpec> {
        vec![
            MachineSpec::new("a", 1.0, 64.0),
            MachineSpec::new("b", 1.0, 64.0),
            MachineSpec::new("c", 1.0, 64.0),
        ]
    }

    #[test]
    fn crash_mid_run_completes_on_survivors() {
        let faults = FaultPlan::none().crash_at(1, 3);
        let recovery = RecoveryConfig {
            lease_timeout_s: 50.0,
            max_worker_failures: 1,
            ..RecoveryConfig::default()
        };
        let (m, r) = run_pool_faulty(machines3(), 30, 1.0, 0.0, true, faults, recovery);
        assert_eq!(
            m.integrated.len(),
            30,
            "all units complete despite the crash"
        );
        assert!(r.units_reassigned >= 1, "the in-flight unit was re-issued");
        assert_eq!(r.workers_lost, 1);
        assert_eq!(r.faults_injected, 1);
        assert!(r.machines[1].lost);
        assert!(!r.machines[0].lost && !r.machines[2].lost);
        assert_eq!(r.machines[1].failures, 1);
        // no unit from the dead worker got integrated twice (PoolMaster
        // asserts), and survivors covered the slack
        assert!(r.machines[0].units_done + r.machines[2].units_done >= 26);
    }

    #[test]
    fn stalled_worker_does_not_hang_the_run() {
        let faults = FaultPlan::none().stall_at(2, 0);
        let recovery = RecoveryConfig {
            lease_timeout_s: 20.0,
            max_worker_failures: 1,
            ..RecoveryConfig::default()
        };
        let (m, r) = run_pool_faulty(machines3(), 12, 1.0, 0.0, true, faults, recovery);
        assert_eq!(m.integrated.len(), 12);
        assert_eq!(r.workers_lost, 1);
        assert!(r.machines[2].lost);
        // the stalled unit was recovered after the lease, so the run is
        // bounded by the lease plus the survivors' compute
        assert!(
            r.makespan_s < 20.0 + 12.0 + 5.0,
            "makespan {}",
            r.makespan_s
        );
    }

    #[test]
    fn slow_worker_duplicate_is_dropped_not_double_integrated() {
        // worker 1 becomes 100x slower from its second unit: the lease
        // expires, the unit is re-issued, and the eventual late result
        // must be discarded (PoolMaster asserts at-most-once).
        let faults = FaultPlan::none().slow_from(1, 1, 100.0);
        let recovery = RecoveryConfig {
            lease_timeout_s: 8.0,
            max_worker_failures: 10,
            ..RecoveryConfig::default()
        };
        let (m, r) = run_pool_faulty(machines3(), 20, 1.0, 0.0, true, faults, recovery);
        assert_eq!(m.integrated.len(), 20);
        assert!(r.units_reassigned >= 1);
        assert!(
            r.duplicates_dropped >= 1,
            "late result must surface as duplicate"
        );
        assert_eq!(r.workers_lost, 0, "slow-but-alive worker stays in the pool");
    }

    #[test]
    fn dropped_result_is_recovered() {
        let faults = FaultPlan::none().drop_result_at(0, 2);
        let recovery = RecoveryConfig {
            lease_timeout_s: 30.0,
            max_worker_failures: 3,
            ..RecoveryConfig::default()
        };
        let (m, r) = run_pool_faulty(machines3(), 15, 1.0, 0.0, true, faults, recovery);
        assert_eq!(m.integrated.len(), 15);
        assert!(r.units_reassigned >= 1);
        assert_eq!(r.workers_lost, 0);
    }

    #[test]
    fn faulty_run_is_deterministic() {
        let mk = || {
            run_pool_faulty(
                machines3(),
                25,
                1.0,
                0.01,
                true,
                FaultPlan::none().crash_at(1, 2).slow_from(2, 3, 40.0),
                RecoveryConfig {
                    lease_timeout_s: 15.0,
                    max_worker_failures: 2,
                    ..RecoveryConfig::default()
                },
            )
        };
        let (_, a) = mk();
        let (_, b) = mk();
        assert_eq!(a, b);
    }

    #[test]
    fn fault_free_run_unchanged_by_enabled_recovery() {
        // generous leases on a healthy cluster: same work accounting as a
        // run without recovery machinery
        let (m1, r1) = run_pool(machines3(), 20, 1.0, 0.0, true);
        let (m2, r2) = run_pool_faulty(
            machines3(),
            20,
            1.0,
            0.0,
            true,
            FaultPlan::none(),
            RecoveryConfig::with_lease(1e6),
        );
        assert_eq!(m1.integrated.len(), m2.integrated.len());
        assert_eq!(r1.machines, r2.machines);
        assert_eq!(r1.makespan_s, r2.makespan_s);
        assert_eq!(r2.units_reassigned, 0);
        assert_eq!(r2.duplicates_dropped, 0);
    }

    #[test]
    fn corrupt_worker_is_quarantined_and_survivors_finish() {
        // worker 1 bit-flips every result: the master rejects each one,
        // requeues the units and quarantines the worker at strike 3
        let faults = FaultPlan::none().corrupt_from(1, 0);
        let recovery = RecoveryConfig {
            lease_timeout_s: 1e6,
            ..RecoveryConfig::default()
        };
        let (m, r) = run_pool_faulty(machines3(), 24, 1.0, 0.0, true, faults, recovery);
        assert_eq!(m.integrated.len(), 24, "every unit integrated once");
        assert!(
            m.integrated.iter().all(|&(w, _)| w != 1),
            "no corrupt result from worker 1 was ever integrated"
        );
        assert_eq!(r.results_rejected, 3, "strike threshold is 3 by default");
        assert_eq!(r.workers_quarantined, 1);
        assert_eq!(r.workers_lost, 1, "quarantine excludes via the death path");
        assert!(r.machines[1].lost);
    }

    #[test]
    fn corrupt_run_is_deterministic() {
        let mk = || {
            let recovery = RecoveryConfig {
                lease_timeout_s: 1e6,
                ..RecoveryConfig::default()
            };
            run_pool_faulty(
                machines3(),
                20,
                1.0,
                0.01,
                true,
                FaultPlan::none().corrupt_from(2, 1),
                recovery,
            )
        };
        let (a_m, a_r) = mk();
        let (b_m, b_r) = mk();
        assert_eq!(a_m.integrated, b_m.integrated);
        assert_eq!(a_r, b_r);
    }

    #[test]
    fn speculation_covers_a_straggler_without_double_integration() {
        // worker 1 turns 200x slower mid-run; with speculation on, an
        // idle worker re-executes its straggling unit and the late
        // original drops through the duplicate path
        let faults = FaultPlan::none().slow_from(1, 2, 200.0);
        let recovery = RecoveryConfig {
            lease_timeout_s: 1e9, // leases never expire: only speculation helps
            speculate: true,
            speculate_factor: 3.0,
            ..RecoveryConfig::default()
        };
        let (m, r) = run_pool_faulty(machines3(), 18, 1.0, 0.0, true, faults, recovery);
        assert_eq!(
            m.integrated.len(),
            18,
            "at-most-once holds (PoolMaster asserts)"
        );
        assert!(r.backup_leases >= 1, "a backup lease was issued");
        assert!(r.duplicates_dropped >= 1, "the loser was discarded");
        assert_eq!(r.workers_lost, 0, "a straggler is not excluded");
    }

    #[test]
    fn speculation_off_and_on_integrate_the_same_units() {
        let faults = || FaultPlan::none().slow_from(0, 1, 150.0);
        let base = RecoveryConfig {
            lease_timeout_s: 1e9,
            ..RecoveryConfig::default()
        };
        let on = RecoveryConfig {
            speculate: true,
            ..base
        };
        let (m_off, _) = run_pool_faulty(machines3(), 15, 1.0, 0.0, true, faults(), base);
        let (m_on, r_on) = run_pool_faulty(machines3(), 15, 1.0, 0.0, true, faults(), on);
        let units = |m: &PoolMaster| {
            let mut u: Vec<u64> = m.integrated.iter().map(|&(_, u)| u).collect();
            u.sort_unstable();
            u
        };
        assert_eq!(units(&m_off), units(&m_on), "same units either way");
        assert!(r_on.backup_leases >= 1);
    }

    #[test]
    fn single_survivor_finishes_everything() {
        let faults = FaultPlan::none().crash_at(0, 1).crash_at(1, 1);
        let recovery = RecoveryConfig {
            lease_timeout_s: 25.0,
            max_worker_failures: 1,
            ..RecoveryConfig::default()
        };
        let (m, r) = run_pool_faulty(machines3(), 18, 1.0, 0.0, true, faults, recovery);
        assert_eq!(m.integrated.len(), 18);
        assert_eq!(r.workers_lost, 2);
        assert!(r.machines[2].units_done >= 16);
    }
}
