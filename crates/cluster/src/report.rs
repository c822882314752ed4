//! Run reports shared by all backends.

use crate::ledger::FaultCounters;

/// What a recorded timeline span represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A worker computing a unit.
    Compute,
    /// The master handling/integrating a result (e.g. file writing).
    MasterWork,
    /// A transfer occupying the shared network.
    Transfer,
    /// A lease expired and the unit was requeued for another worker; the
    /// span's machine is the worker that timed out.
    Reassign,
}

/// One busy interval on a resource, for gantt-style visualisation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelineSpan {
    /// Machine index for compute spans; the sender for transfers;
    /// meaningless for master work.
    pub machine: usize,
    /// Start time (seconds).
    pub start: f64,
    /// End time (seconds).
    pub end: f64,
    /// What the span represents.
    pub kind: SpanKind,
}

/// Per-machine accounting for one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MachineReport {
    /// Machine name.
    pub name: String,
    /// Seconds spent computing (virtual seconds in the simulator, wall
    /// seconds on the wall-clock driver).
    pub busy_s: f64,
    /// Work units completed.
    pub units_done: u64,
    /// Bytes sent by this machine.
    pub bytes_sent: u64,
    /// Bytes received by this machine (master→worker traffic: unit
    /// assignments, heartbeats, the job header). The seed protocol only
    /// accounted the worker→master direction; both are needed to judge
    /// wire-format changes honestly.
    pub bytes_received: u64,
    /// Lease expiries charged to this machine over the whole run.
    pub failures: u64,
    /// Smoothed master↔worker round-trip time in seconds, measured by
    /// heartbeat pings; 0 on the simulator, which has no real network.
    pub rtt_s: f64,
    /// True if the machine was excluded as lost (crashed, stalled or
    /// repeatedly timed out).
    pub lost: bool,
    /// Seconds after run start at which this worker joined (0 for
    /// workers present from the start, and on backends without dynamic
    /// membership).
    pub joined_s: f64,
    /// Seconds after run start at which this worker left — shut down,
    /// died or was excluded. 0 until the worker actually leaves.
    pub left_s: f64,
}

/// Whole-run accounting.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    /// End-to-end duration in seconds (virtual or wall).
    pub makespan_s: f64,
    /// Per-machine detail. The simulator models the master as machine 0;
    /// the thread and TCP backends report one entry per worker.
    pub machines: Vec<MachineReport>,
    /// Total messages exchanged.
    pub messages: u64,
    /// Total bytes moved over the network.
    pub bytes: u64,
    /// Seconds the network (shared bus) was busy.
    pub network_busy_s: f64,
    /// Seconds the master spent on non-overlappable integration work.
    pub master_busy_s: f64,
    /// Busy intervals for gantt rendering; only populated when the
    /// simulator's `record_timeline` flag is set.
    pub timeline: Vec<TimelineSpan>,
    /// Faults injected by the run's `FaultPlan` (affected units).
    pub faults_injected: u64,
    /// Units re-issued after a lease expiry or observed worker death.
    pub units_reassigned: u64,
    /// Late duplicate results discarded by the at-most-once ledger.
    pub duplicates_dropped: u64,
    /// Workers excluded as lost during the run.
    pub workers_lost: u64,
    /// Workers that enrolled over the run's lifetime, including mid-run
    /// joiners (TCP backend; static backends report their worker count).
    pub workers_joined: u64,
    /// Workers that left before the run completed (died, timed out or
    /// were excluded) — normal end-of-run shutdowns don't count.
    pub workers_left: u64,
    /// Connections turned away: wrong scene fingerprint, full farm,
    /// garbage handshake, or a half-open connection that never finished
    /// its HELLO.
    pub workers_rejected: u64,
    /// Results discarded after failing master-side verification
    /// (end-to-end checksum or payload decode); each one requeued its
    /// unit byte-identically.
    pub results_rejected: u64,
    /// Workers quarantined after repeatedly returning bad results.
    pub workers_quarantined: u64,
    /// Always 0: the farm issues no backup leases (a slow worker's tail is
    /// finished by stealing, lease expiry and retry). `nowbench` still
    /// reports it as `cluster.backup_leases`.
    pub backup_leases: u64,
    /// Units issued to a worker that already held one: each is a master
    /// turnaround the worker rendered through instead of waiting out (0 on
    /// the simulator, which leases one unit at a time).
    pub leases_prefetched: u64,
}

impl RunReport {
    /// Utilisation of a machine: busy time / makespan.
    pub fn utilisation(&self, machine: usize) -> f64 {
        if self.makespan_s <= 0.0 {
            return 0.0;
        }
        self.machines[machine].busy_s / self.makespan_s
    }

    /// Copy in what the recovery protocol did: its run-wide counters and,
    /// per machine, `(lease failures, excluded)`.
    pub(crate) fn absorb_recovery(&mut self, c: &FaultCounters, health: &[(u64, bool)]) {
        self.faults_injected = c.faults_injected;
        self.units_reassigned = c.units_reassigned;
        self.duplicates_dropped = c.duplicates_dropped;
        self.workers_lost = c.workers_lost;
        self.results_rejected = c.results_rejected;
        self.workers_quarantined = c.workers_quarantined;
        self.leases_prefetched = c.leases_prefetched;
        for (m, &(failures, lost)) in self.machines.iter_mut().zip(health) {
            m.failures = failures;
            m.lost = lost;
        }
    }

    /// Replay this report into the global trace recorder.
    ///
    /// Timeline spans land on the virtual clock (`pid 1` in the Chrome
    /// export), one track per machine, recorded non-deterministic; the
    /// aggregate transfer/fault counters are payload totals and stay in
    /// the deterministic stream.
    pub fn record_trace(&self) {
        if !now_trace::enabled() {
            return;
        }
        let rec = now_trace::global();
        for span in &self.timeline {
            let name = match span.kind {
                SpanKind::Compute => "farm.compute",
                SpanKind::MasterWork => "farm.master",
                SpanKind::Transfer => "farm.transfer",
                SpanKind::Reassign => "farm.reassign",
            };
            let start_us = (span.start * 1e6) as u64;
            let dur_us = ((span.end - span.start).max(0.0) * 1e6) as u64;
            rec.span_at(
                now_trace::Clock::Virtual,
                span.machine as u32,
                name,
                start_us,
                dur_us,
                &[],
                false,
            );
        }
        // Unit/frame totals are pure functions of the job, but lease
        // expiries, duplicates and exclusions hinge on timing — keep those
        // out of the deterministic stream.
        rec.counter_add("farm.messages", self.messages);
        rec.counter_add("farm.bytes", self.bytes);
        rec.counter_add("farm.faults_injected", self.faults_injected);
        rec.counter_add_nd("farm.reassigns", self.units_reassigned);
        rec.counter_add_nd("farm.duplicates_dropped", self.duplicates_dropped);
        rec.counter_add_nd("farm.workers_lost", self.workers_lost);
        // membership churn is wall-clock-driven and integrity events only
        // exist under fault injection: guard the zero case so clean runs
        // keep their golden traces
        let guarded = [
            ("farm.workers_joined", self.workers_joined),
            ("farm.workers_left", self.workers_left),
            ("farm.workers_rejected", self.workers_rejected),
            ("farm.results_rejected", self.results_rejected),
            ("farm.workers_quarantined", self.workers_quarantined),
            ("farm.prefetch", self.leases_prefetched),
        ];
        for (name, n) in guarded.into_iter().filter(|&(_, n)| n > 0) {
            rec.counter_add_nd(name, n);
        }
        for m in &self.machines {
            rec.observe_nd("farm.units_per_machine", m.units_done);
            // real-network runs only: measured RTT and per-worker bytes
            if m.rtt_s > 0.0 {
                rec.observe_nd("farm.rtt_us", (m.rtt_s * 1e6) as u64);
            }
            if m.bytes_sent > 0 {
                rec.observe_nd("farm.worker_bytes_sent", m.bytes_sent);
            }
            if m.bytes_received > 0 {
                rec.observe_nd("farm.worker_bytes_received", m.bytes_received);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilisation_math() {
        let r = RunReport {
            makespan_s: 10.0,
            machines: vec![
                MachineReport {
                    name: "m".into(),
                    busy_s: 5.0,
                    units_done: 1,
                    ..Default::default()
                },
                MachineReport {
                    name: "w".into(),
                    busy_s: 10.0,
                    units_done: 2,
                    ..Default::default()
                },
            ],
            ..Default::default()
        };
        assert_eq!(r.utilisation(0), 0.5);
        assert_eq!(r.utilisation(1), 1.0);
    }

    #[test]
    fn zero_makespan_guard() {
        let r = RunReport {
            machines: vec![MachineReport::default()],
            ..Default::default()
        };
        assert_eq!(r.utilisation(0), 0.0);
    }
}
