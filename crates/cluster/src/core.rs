//! The sans-IO master: the demand-driven protocol, written once.
//!
//! The paper's farm is one protocol — "the only interprocessor
//! communication occurs between the master and each of the slaves" — and
//! [`MasterCore`] is its master side as an explicit state machine. It owns
//! the application [`MasterLogic`], the lease [`Ledger`] and each worker's
//! protocol state; drivers feed it events (`joined`, `left`, `request`,
//! `result`, `tick`, `wake`), drain the [`Action`]s it queues and realise
//! them on their transport. No sockets, channels, threads, clocks or
//! sleeps live here: time enters only as the `now` argument, in virtual
//! or wall seconds. DESIGN.md §8 tabulates how each driver maps onto it.
//!
//! The core keeps each worker topped up to its *lease depth*. At depth 1
//! (the simulator, the paper's model) a worker idles for one master
//! turnaround per unit; at depth 2 (the wall-clock driver) its next unit
//! is already in its inbox when it answers, and it renders while the
//! master verifies, journals and writes — while it has company: a farm
//! of one is leased one unit at a time at any depth. A worker answers its
//! leases in issue order; the rules that keep that safe are here and in
//! [`crate::ledger`], not in the drivers.

use crate::codec::DecodeError;
use crate::ledger::{FaultCounters, Ledger, RecoveryConfig};
use crate::logic::{MasterLogic, MasterWork};
use std::collections::VecDeque;

/// What the driver must do on the core's behalf.
#[derive(Debug, Clone, PartialEq)]
pub enum Action<U> {
    /// Ship `unit` to `worker`; if that fails, report [`MasterCore::left`].
    Send {
        /// Destination worker.
        worker: usize,
        /// Lease id the worker's result must quote.
        assign_id: u64,
        /// The work itself.
        unit: U,
    },
    /// No work remains for `worker`: tell it to stop (not churn).
    Shutdown {
        /// The dismissed worker.
        worker: usize,
    },
    /// The core excluded `worker` (lease expiries) or quarantined it (bad
    /// results): cut it loose. A reconnect is a fresh worker.
    Lost {
        /// The excluded worker.
        worker: usize,
        /// True when the cause was rejected results, not silence.
        quarantined: bool,
    },
}

/// Master-side view of one worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WState {
    /// Enrolled; its first request is a message certain to arrive.
    Joining,
    /// Has asked for work at least once; may still send a message the
    /// master must answer.
    Active,
    /// Asked for work when none was assignable but more may appear; waits
    /// to be re-polled by [`MasterCore::wake`].
    Parked,
    /// Dismissed, excluded, quarantined or observed dead. Final.
    Done,
}

/// The master side of the farm protocol as a pure state machine.
#[derive(Clone)]
pub struct MasterCore<M: MasterLogic> {
    master: M,
    ledger: Ledger<M::Unit>,
    workers: Vec<WState>,
    actions: VecDeque<Action<M::Unit>>,
    /// Leases a worker is kept topped up to.
    depth: usize,
    /// Some worker was dismissed because no work remained, or a wake
    /// released the run (as opposed to every worker having been lost).
    dismissed: bool,
    /// The driver still admits new workers (elastic membership).
    joinable: bool,
}

impl<M: MasterLogic> MasterCore<M> {
    /// A core with no workers yet; enrol them with [`MasterCore::joined`].
    /// `depth` is how many leases a worker may hold at once (at least 1).
    pub fn new(master: M, recovery: RecoveryConfig, depth: usize) -> MasterCore<M> {
        assert!(depth > 0, "a worker must be able to hold a lease");
        MasterCore {
            master,
            ledger: Ledger::new(recovery, 0),
            workers: Vec::new(),
            actions: VecDeque::new(),
            depth,
            dismissed: false,
            joinable: false,
        }
    }

    /// A worker enrolled; returns its index. Its first request is now a
    /// message the master can count on.
    pub fn joined(&mut self) -> usize {
        self.workers.push(WState::Joining);
        self.ledger.add_worker()
    }

    /// The driver observed `worker` die (closed socket, read deadline,
    /// protocol violation): requeue everything it holds.
    pub fn left(&mut self, worker: usize) {
        if self.is_live(worker) {
            if self.ledger.worker_died(worker).newly_lost {
                self.master.on_worker_lost(worker);
            }
            self.workers[worker] = WState::Done;
        }
    }

    /// `worker` asks for work and is topped up to the lease depth: requeued
    /// units first, then fresh assignments; with nothing to draw and
    /// nothing in hand it parks or is dismissed. Ignored once the worker is
    /// done.
    pub fn request(&mut self, worker: usize, now: f64) {
        if self.is_live(worker) {
            self.fill(worker, now, false);
        }
    }

    /// `worker` answered assignment `assign_id` (`Err`: undecodable bytes).
    /// Returns the master-side cost if the result was integrated; `None`
    /// for a late duplicate, someone else's lease, or failed verification
    /// (the unit requeues byte-identically, the worker takes a strike).
    /// `integrate` always gets the unit as *issued*, never a worker's echo
    /// of it. Follow up with [`MasterCore::request`]: a result doubles as
    /// the next work request.
    pub fn result(
        &mut self,
        worker: usize,
        assign_id: u64,
        result: Result<M::Result, DecodeError>,
        now: f64,
    ) -> Option<MasterWork> {
        let skipped = self.ledger.expire_skipped(worker, assign_id, now);
        if skipped.is_some_and(|e| e.newly_lost) {
            self.exclude(worker, false);
        }
        let lease = self.ledger.complete_at(assign_id, worker, now)?;
        let verdict = result
            .ok()
            .and_then(|r| self.master.integrate(worker, lease.unit.clone(), r));
        if verdict.is_none() {
            // strikes never reset, so a worker that interleaves good and
            // bad results is still evicted at the threshold
            if let Some(ex) = self.ledger.reject(lease) {
                now_trace::global().instant(
                    0,
                    "farm.quarantine",
                    &[("worker", worker as u64)],
                    false,
                );
                self.exclude(ex.worker, true);
            }
        }
        verdict
    }

    /// The ledger excluded a worker: tell the application, close the
    /// worker's state and have the driver cut it loose.
    fn exclude(&mut self, worker: usize, quarantined: bool) {
        self.master.on_worker_lost(worker);
        if self.is_live(worker) {
            self.workers[worker] = WState::Done;
            self.actions.push_back(Action::Lost {
                worker,
                quarantined,
            });
        }
    }

    /// Expire every lease whose deadline has passed: units requeue, their
    /// holders take a failure and are excluded at the threshold. Returns
    /// the holder of each expired lease (the simulator's timeline marks
    /// them).
    pub fn tick(&mut self, now: f64) -> Vec<usize> {
        let expired = self.ledger.expire_due(now);
        for e in expired.iter().filter(|e| e.newly_lost) {
            self.exclude(e.worker, false);
        }
        expired.iter().map(|e| e.worker).collect()
    }

    /// How long a blocked driver may sleep: until the next lease deadline
    /// ([`MasterCore::tick`]) or the end of the patience
    /// [`MasterCore::wake`] keeps with silent workers.
    pub fn next_deadline(&self, now: f64) -> Option<f64> {
        self.ledger.next_deadline(now)
    }

    /// No message is certain to arrive: no lease is out and every enrolled
    /// worker has already made its first request. Workers whose leases all
    /// expired may be wedged and must not count.
    fn idle(&self) -> bool {
        !self.ledger.has_pending() && !self.workers.contains(&WState::Joining)
    }

    /// True when [`MasterCore::wake`] has something to do: a parked worker
    /// could draw a requeued unit, or nothing is certain any more and
    /// whoever is still around must be resolved.
    pub fn wakeable(&self) -> bool {
        (self.workers.contains(&WState::Parked) && self.ledger.has_retry())
            || (self.idle() && !self.finished() && self.releasable())
    }

    /// No joiner can still come for unfinished work: the driver admits no
    /// more workers, or no more work will ever be assigned. Until then an
    /// idle run holds its backstop — a joiner may rescue owed units, and a
    /// live service's clients may submit more.
    fn releasable(&self) -> bool {
        !self.joinable || self.master.all_done()
    }

    /// Re-poll every parked worker; also the termination backstop. When no
    /// message is certain, nothing can change what a parked worker is
    /// offered, so one that still draws nothing is *released*, not
    /// re-parked (else the `all_done` park rule would spin). Workers
    /// neither parked nor done let their leases expire: they may be slow
    /// or wedged for good, which no transport can tell apart (a wedged
    /// worker may still answer heartbeats). With units requeued they get
    /// one more backed-off lease to speak up and draw the retry; then, or
    /// at once if nothing is requeued, they are dismissed — the job is as
    /// done as it can get, and waiting longer could hang. A driver that
    /// still admits joiners holds the backstop while more work may be
    /// assigned (`releasable`). A release marks the run complete even
    /// when nobody is left to dismiss (a drained service that never had a
    /// worker). Returns whether anything was queued: a wake that changed
    /// nothing must not be retried in a loop.
    pub fn wake(&mut self, now: f64) -> bool {
        let queued = self.actions.len();
        let release = self.idle() && self.releasable();
        for w in 0..self.workers.len() {
            if self.workers[w] == WState::Parked {
                // an earlier parked worker may have drawn every requeued
                // unit: its answers are now certain, so this one parks
                self.fill(w, now, release && self.idle());
            }
        }
        let patient = self.ledger.has_retry() && now < self.ledger.patience_until();
        if release && self.idle() && !patient {
            self.dismissed = true;
            for w in 0..self.workers.len() {
                if self.is_live(w) {
                    self.dismiss(w);
                }
            }
        }
        self.actions.len() > queued
    }

    /// [`MasterCore::wake`] for a driver whose replies take time (the
    /// simulator): the parked workers count as active again and the driver
    /// owes each a [`MasterCore::request`] when its reply goes out.
    pub(crate) fn take_parked(&mut self) -> Vec<usize> {
        let n = self.workers.len();
        let woken: Vec<usize> = (0..n)
            .filter(|&w| self.workers[w] == WState::Parked)
            .collect();
        for &w in &woken {
            self.workers[w] = WState::Active;
        }
        woken
    }

    /// Lease `w` units until it holds `depth` of them or draws nothing. A
    /// farm of one is leased one unit at a time whatever the depth: this is
    /// a measured policy, not a safety rule (DESIGN.md §8, rule v) — with
    /// nobody else to render, the worker's speed is the run's speed, and a
    /// lone worker that never idles ran at a far less repeatable pace.
    fn fill(&mut self, w: usize, now: f64, release: bool) {
        let alone = self.workers.iter().filter(|&&s| s != WState::Done).count() < 2;
        let depth = if alone { 1 } else { self.depth };
        for held in self.ledger.held_by(w)..depth {
            if !self.give_work(w, now, release, held > 0) {
                break;
            }
        }
    }

    /// Lease `w` one unit if there is one for it; returns whether there
    /// was. `prefetch`: `w` already holds a lease, so it is not idle —
    /// drawing nothing neither parks nor dismisses it (its pending result
    /// is a message certain to arrive).
    fn give_work(&mut self, w: usize, now: f64, release: bool, prefetch: bool) -> bool {
        // requeued units take priority over fresh assignments
        let next = match self.ledger.take_retry() {
            Some((mut unit, attempt, from)) => {
                self.master.on_reassign(from, &mut unit);
                Some((unit, attempt))
            }
            None => self.master.assign(w).map(|unit| (unit, 0)),
        };
        match next {
            Some((unit, attempt)) => {
                let assign_id = self.ledger.issue(unit.clone(), w, now, attempt);
                self.workers[w] = WState::Active;
                self.actions.push_back(Action::Send {
                    worker: w,
                    assign_id,
                    unit,
                });
                return true;
            }
            None if prefetch => {}
            // Park while work may still appear for `w`: a lease is out (its
            // unit may requeue, or its holder's queue may be freed), or more
            // work may yet be assigned — units unfinished in another
            // worker's queue, or a live service's future jobs (`all_done`,
            // asked last: it may scan the whole job table). The retry queue
            // is empty here — it was tried first.
            None if !release && (self.ledger.has_pending() || !self.master.all_done()) => {
                self.workers[w] = WState::Parked;
            }
            None => self.dismiss(w),
        }
        false
    }

    fn dismiss(&mut self, w: usize) {
        self.workers[w] = WState::Done;
        self.dismissed = true;
        self.actions.push_back(Action::Shutdown { worker: w });
    }

    /// Pop the next action the driver must realise.
    pub fn next_action(&mut self) -> Option<Action<M::Unit>> {
        self.actions.pop_front()
    }

    /// Every enrolled worker is done; nothing more happens unless a new
    /// worker joins.
    pub fn finished(&self) -> bool {
        self.workers.iter().all(|&w| w == WState::Done)
    }

    /// The run ended because the work ran out, not the workers: someone
    /// was dismissed for lack of work, or a wake released the run, and
    /// nothing is leased or requeued.
    pub(crate) fn job_complete(&self) -> bool {
        self.dismissed && !self.ledger.has_pending() && !self.ledger.has_retry()
    }

    /// Whether the driver still admits new workers: while it does and more
    /// work may be assigned, [`MasterCore::wake`] holds its backstop.
    pub(crate) fn set_joinable(&mut self, joinable: bool) {
        self.joinable = joinable;
    }

    /// False once `worker` was dismissed, excluded, quarantined or lost.
    pub fn is_live(&self, worker: usize) -> bool {
        self.workers[worker] != WState::Done
    }

    /// The application master.
    pub fn master(&self) -> &M {
        &self.master
    }

    /// The application master, for driver-level traffic that bypasses the
    /// worker protocol (client frames).
    pub(crate) fn master_mut(&mut self) -> &mut M {
        &mut self.master
    }

    /// End of run: the master, the recovery counters and each worker's
    /// `(lease failures, excluded)`.
    pub(crate) fn finish(self) -> (M, FaultCounters, Vec<(u64, bool)>) {
        let health = (0..self.workers.len())
            .map(|w| (self.ledger.total_failures(w), self.ledger.is_excluded(w)))
            .collect();
        (self.master, self.ledger.counters, health)
    }
}
