//! Master-side recovery policy: leases, retries, strikes, speculation.
//!
//! [`RecoveryConfig`] is the lease/timeout/backoff/exclusion policy and
//! [`Ledger`] the bookkeeping that makes the demand-driven loop robust:
//! every assignment gets a lease with a deadline; expired leases re-enter
//! a retry queue with exponential backoff; workers are excluded after K
//! consecutive failures or quarantined after K rejected results; and
//! completions are *at-most-once* — a late duplicate is recognised by its
//! stale assignment id and discarded, so "integrated exactly once" (and
//! frame hashes) hold with and without faults. Only [`crate::core`]
//! drives the ledger. Time is plain `f64` seconds, virtual or wall.
//!
//! A worker may hold several leases (the core's lease depth). It answers
//! them in the order they were issued, so only the oldest is *running*:
//! the others are queued behind it with their clocks stopped, and each
//! starts when the one ahead of it is answered. The results build on each
//! other (a worker's coherence state and tile-delta stream run through
//! consecutive units), so a lease that ends any other way — expired,
//! rejected, skipped, beaten by its speculative twin — takes the holder's
//! other leases with it: they are *voided*, requeued at no cost to the
//! worker, and their results drop through the duplicate path.

use std::collections::{BTreeMap, VecDeque};

/// Each re-issue of the same unit multiplies its lease by this factor
/// (exponential backoff against spurious timeouts).
const LEASE_BACKOFF: f64 = 2.0;

/// Lease/timeout policy for the recovery protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryConfig {
    /// Base lease duration in seconds; a unit whose result has not arrived
    /// within its lease is presumed lost and re-issued. `INFINITY`
    /// disables recovery (the seed's trusting behaviour).
    pub lease_timeout_s: f64,
    /// A worker is excluded (counted lost, never assigned again) after
    /// this many consecutive lease expiries.
    pub max_worker_failures: u32,
    /// A worker is quarantined (excluded, reconnects rejected for a
    /// cooldown on the TCP backend) after this many *rejected results* —
    /// payloads whose end-to-end checksum or decode failed verification.
    /// Unlike lease expiries, strikes never reset: a Byzantine worker
    /// that interleaves good and bad results is still evicted.
    pub max_worker_strikes: u32,
    /// Issue speculative backup leases for stragglers: when a pending
    /// lease has been outstanding longer than `speculate_factor` × the
    /// EWMA of completed-unit times, an idle worker re-executes the unit
    /// and the first valid result wins (the loser is discarded by the
    /// at-most-once ledger, so output bytes are unchanged).
    pub speculate: bool,
    /// Straggler threshold as a multiple of the completed-unit EWMA.
    pub speculate_factor: f64,
}

impl Default for RecoveryConfig {
    fn default() -> RecoveryConfig {
        RecoveryConfig {
            lease_timeout_s: f64::INFINITY,
            max_worker_failures: 2,
            max_worker_strikes: 3,
            speculate: false,
            speculate_factor: 3.0,
        }
    }
}

impl RecoveryConfig {
    /// Recovery enabled with the given base lease and default policy.
    pub fn with_lease(lease_timeout_s: f64) -> RecoveryConfig {
        RecoveryConfig {
            lease_timeout_s,
            ..RecoveryConfig::default()
        }
    }

    /// True if leases are finite (recovery active).
    pub fn enabled(&self) -> bool {
        self.lease_timeout_s.is_finite()
    }

    /// Lease duration for re-issue attempt `attempt` (0 = first issue).
    fn lease_for_attempt(&self, attempt: u32) -> f64 {
        self.lease_timeout_s * LEASE_BACKOFF.powi(attempt.min(20) as i32)
    }
}

/// Aggregate fault/recovery counters for a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Faults injected by the [`crate::FaultPlan`] (each affected unit counts).
    pub faults_injected: u64,
    /// Units re-issued after a lease expiry or observed worker death.
    pub units_reassigned: u64,
    /// Late duplicate results discarded by the at-most-once ledger.
    pub duplicates_dropped: u64,
    /// Workers excluded as lost.
    pub workers_lost: u64,
    /// Results discarded because master-side verification (checksum or
    /// decode) failed; each one requeued its unit byte-identically.
    pub results_rejected: u64,
    /// Workers quarantined after crossing the strike threshold.
    pub workers_quarantined: u64,
    /// Speculative backup leases issued against stragglers.
    pub backup_leases: u64,
    /// Leases issued to a worker that already held one (not a fault: the
    /// overlap the lease depth buys).
    pub leases_prefetched: u64,
}

/// An outstanding assignment.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Lease<U> {
    /// The unit (kept so it can be re-issued verbatim).
    pub(crate) unit: U,
    /// Worker it was assigned to.
    pub(crate) worker: usize,
    /// Absolute deadline in seconds; infinite while queued.
    deadline: f64,
    /// Re-issue attempt (0 = first issue).
    attempt: u32,
    /// Time the lease's clock started (for straggler detection and the
    /// unit-time EWMA); infinite while queued behind the holder's
    /// earlier lease.
    issued_at: f64,
    /// Assignment id of this lease's speculative twin, if a backup lease
    /// for the same unit is also outstanding. First completion wins and
    /// removes the twin, so the pair integrates at most once.
    twin: Option<u64>,
}

/// A lease that expired and was requeued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Expiry {
    /// The worker whose lease expired.
    pub(crate) worker: usize,
    /// True if this expiry pushed the worker over the exclusion threshold
    /// (the caller should notify the application via `on_worker_lost`).
    pub(crate) newly_lost: bool,
}

/// Master-side assignment ledger: leases, retry queue, worker health.
///
/// Every handed-out unit gets a fresh assignment id. Completion is keyed
/// by that id, which makes integration at-most-once: once a unit has been
/// completed (or its lease expired and the unit re-issued under a new
/// id), the stale id no longer exists in the ledger and the late result
/// is reported as a duplicate.
#[derive(Debug, Clone)]
pub struct Ledger<U> {
    cfg: RecoveryConfig,
    next_id: u64,
    pending: BTreeMap<u64, Lease<U>>,
    /// (unit, re-issue attempt, worker it was taken from)
    retry: VecDeque<(U, u32, usize)>,
    consecutive_fails: Vec<u32>,
    total_fails: Vec<u64>,
    excluded: Vec<bool>,
    /// Lifetime count of rejected results per worker; never resets.
    strikes: Vec<u32>,
    /// EWMA of completed-unit wall/virtual time and its sample count.
    ewma_unit_s: f64,
    ewma_samples: u64,
    /// Time of the most recent lease expiry.
    last_expiry: f64,
    /// Aggregate counters, exported into `RunReport` by the backends.
    pub counters: FaultCounters,
}

impl<U: Clone> Ledger<U> {
    /// Fresh ledger for `workers` workers.
    pub fn new(cfg: RecoveryConfig, workers: usize) -> Ledger<U> {
        Ledger {
            cfg,
            next_id: 0,
            pending: BTreeMap::new(),
            retry: VecDeque::new(),
            consecutive_fails: vec![0; workers],
            total_fails: vec![0; workers],
            excluded: vec![false; workers],
            strikes: vec![0; workers],
            ewma_unit_s: 0.0,
            ewma_samples: 0,
            last_expiry: f64::NEG_INFINITY,
            counters: FaultCounters::default(),
        }
    }

    /// Enroll one more worker (dynamic membership: a mid-run joiner) and
    /// return its index.
    pub(crate) fn add_worker(&mut self) -> usize {
        let w = self.excluded.len();
        self.consecutive_fails.push(0);
        self.total_fails.push(0);
        self.excluded.push(false);
        self.strikes.push(0);
        w
    }

    /// Record the assignment of `unit` to `worker` at time `now`; returns
    /// the assignment id. The deadline honours the attempt's backoff. With
    /// `twin_of`, this is a speculative backup of that straggling
    /// assignment and the two leases are linked as twins. If `worker`
    /// already holds a lease this one queues behind it: lease timeouts and
    /// the straggler factor keep meaning "one unit's time" only if its
    /// clock starts when the worker can start on it.
    pub(crate) fn issue(
        &mut self,
        unit: U,
        worker: usize,
        now: f64,
        attempt: u32,
        twin_of: Option<u64>,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let queued = self.held_by(worker) > 0;
        if queued {
            self.counters.leases_prefetched += 1;
        }
        let issued_at = if queued { f64::INFINITY } else { now };
        let deadline = issued_at + self.cfg.lease_for_attempt(attempt);
        if let Some(orig) = twin_of.and_then(|t| self.pending.get_mut(&t)) {
            orig.twin = Some(id);
            self.counters.backup_leases += 1;
        }
        self.pending.insert(
            id,
            Lease {
                unit,
                worker,
                deadline,
                attempt,
                issued_at,
                twin: twin_of,
            },
        );
        id
    }

    /// Number of leases `worker` holds.
    pub(crate) fn held_by(&self, worker: usize) -> usize {
        self.leases_of(worker).count()
    }

    /// True if lease `id` is outstanding and `worker`'s to answer.
    fn holds(&self, worker: usize, id: u64) -> bool {
        self.pending.get(&id).is_some_and(|l| l.worker == worker)
    }

    /// Ids of the leases `worker` holds, oldest (the running one) first.
    fn leases_of(&self, worker: usize) -> impl Iterator<Item = u64> + '_ {
        self.pending
            .iter()
            .filter(move |(_, l)| l.worker == worker)
            .map(|(&id, _)| id)
    }

    /// Results arrive in per-worker order, so an answer to `id` while
    /// `worker` still holds an earlier lease means that one's result was
    /// lost on the way: expire it now instead of waiting out its deadline.
    /// That voids `id` too — its result was computed on top of the lost
    /// one — so the answer then drops through the duplicate path.
    pub(crate) fn expire_skipped(&mut self, worker: usize, id: u64, now: f64) -> Option<Expiry> {
        let oldest = self.leases_of(worker).next()?;
        (oldest < id && self.holds(worker, id)).then(|| {
            self.last_expiry = now;
            self.expire_one(oldest)
        })
    }

    /// `worker` answered assignment `id` at time `now`. `Some` means it is
    /// the first answer (integrate it; the worker's failure streak resets,
    /// the lease's duration feeds the straggler EWMA and the clock of the
    /// lease queued behind it starts); `None` means the assignment is stale
    /// — a late duplicate to discard — or was never this worker's to
    /// answer.
    pub(crate) fn complete_at(&mut self, id: u64, worker: usize, now: f64) -> Option<Lease<U>> {
        if !self.holds(worker, id) {
            self.counters.duplicates_dropped += 1;
            return None;
        }
        let lease = self.pending.remove(&id)?;
        self.consecutive_fails[worker] = 0;
        if let Some(loser) = lease.twin.and_then(|t| self.pending.remove(&t)) {
            // first of a speculative pair wins: retire the twin so its
            // (slower) result drops through the duplicate path, and with
            // it whatever its holder computes on top of that result
            self.void_leases(loser.worker);
        }
        let dt = (now - lease.issued_at).max(0.0);
        if dt.is_finite() && lease.issued_at.is_finite() {
            self.ewma_samples += 1;
            if self.ewma_samples == 1 {
                self.ewma_unit_s = dt;
            } else {
                self.ewma_unit_s = 0.7 * self.ewma_unit_s + 0.3 * dt;
            }
        }
        let cfg = self.cfg;
        let next = self.pending.values_mut().find(|l| l.worker == worker);
        if let Some(next) = next.filter(|l| !l.issued_at.is_finite()) {
            next.issued_at = now;
            next.deadline = now + cfg.lease_for_attempt(next.attempt);
        }
        Some(lease)
    }

    /// A completed lease's result failed master-side verification: requeue
    /// the unit byte-identically (the re-issue goes through `on_reassign`,
    /// exactly like a lease expiry), void the worker's other leases and
    /// strike it — once: the application dropped the worker's decode
    /// stream, so the honest results queued behind the bad one would fail
    /// to decode and strike again. When the strike crosses
    /// [`RecoveryConfig::max_worker_strikes`] the worker is quarantined —
    /// excluded through the observed-death path — and that exclusion is
    /// returned.
    pub(crate) fn reject(&mut self, lease: Lease<U>) -> Option<Expiry> {
        let w = lease.worker;
        self.retry.push_back((lease.unit, lease.attempt + 1, w));
        self.void_leases(w);
        self.counters.results_rejected += 1;
        self.total_fails[w] += 1;
        self.strikes[w] += 1;
        if self.strikes[w] < self.cfg.max_worker_strikes || self.excluded[w] {
            return None;
        }
        self.counters.workers_quarantined += 1;
        Some(self.worker_died(w))
    }

    /// Earliest time something is due: the first finite lease deadline or,
    /// with speculation enabled, the first moment after `now` at which a
    /// pending lease becomes a straggler — so a blocked master wakes in
    /// time to issue backup leases — or the end of its patience with
    /// silent workers ([`Ledger::patience_until`]). Leases that already
    /// straggle need no timer: a requesting worker draws them directly.
    pub(crate) fn next_deadline(&self, now: f64) -> Option<f64> {
        let lease = self
            .pending
            .values()
            .map(|l| l.deadline)
            .filter(|d| d.is_finite())
            .min_by(f64::total_cmp);
        let spec = self.straggler_threshold().and_then(|thr| {
            self.pending
                .values()
                .filter(|l| l.twin.is_none())
                .map(|l| l.issued_at + thr)
                .filter(|&d| d > now && d.is_finite())
                .min_by(f64::total_cmp)
        });
        let patience = (self.pending.is_empty() && !self.retry.is_empty())
            .then(|| self.patience_until())
            .filter(|&d| d > now && d.is_finite());
        [lease, spec, patience]
            .into_iter()
            .flatten()
            .min_by(f64::total_cmp)
    }

    /// The straggler deadline in seconds, once the EWMA has warmed up.
    fn straggler_threshold(&self) -> Option<f64> {
        (self.cfg.speculate && self.ewma_samples >= 3)
            .then(|| (self.cfg.speculate_factor * self.ewma_unit_s).max(1e-9))
    }

    /// True if any un-twinned pending lease is past its straggler
    /// deadline (speculation enabled and warmed up).
    pub(crate) fn has_straggler(&self, now: f64) -> bool {
        self.straggler_threshold().is_some_and(|thr| {
            self.pending
                .values()
                .any(|l| l.twin.is_none() && now - l.issued_at >= thr)
        })
    }

    /// Pick the longest-overdue straggler a backup lease could cover:
    /// an un-twinned pending lease past the straggler deadline, not held
    /// by `worker` itself. Returns the original assignment id plus a
    /// clone of its unit, attempt and owner; follow up with
    /// [`Ledger::issue`] (`twin_of` the original) once the unit has been
    /// prepared for re-execution (`on_reassign`).
    pub(crate) fn straggler_for(&self, worker: usize, now: f64) -> Option<(u64, U, u32, usize)> {
        let thr = self.straggler_threshold()?;
        self.pending
            .iter()
            .filter(|(_, l)| l.twin.is_none() && l.worker != worker && now - l.issued_at >= thr)
            .min_by(|(_, a), (_, b)| f64::total_cmp(&a.issued_at, &b.issued_at))
            .map(|(&id, l)| (id, l.unit.clone(), l.attempt, l.worker))
    }

    /// Expire every lease whose deadline has passed: units move to the
    /// retry queue, the owning workers take a failure (possibly crossing
    /// the exclusion threshold).
    pub(crate) fn expire_due(&mut self, now: f64) -> Vec<Expiry> {
        let due: Vec<u64> = self
            .pending
            .iter()
            .filter(|(_, l)| l.deadline <= now)
            .map(|(&id, _)| id)
            .collect();
        if !due.is_empty() {
            self.last_expiry = now;
        }
        // only a worker's running lease has a finite deadline, so no lease
        // in `due` is voided by the expiry of another
        due.into_iter().map(|id| self.expire_one(id)).collect()
    }

    /// How long to keep waiting for workers that all let their leases
    /// expire while units sit requeued: one more (backed-off) lease from
    /// the latest expiry. A slow-but-alive worker speaks up in that time
    /// and draws the retry; a wedged one never will.
    pub(crate) fn patience_until(&self) -> f64 {
        self.last_expiry + self.cfg.lease_for_attempt(1)
    }

    /// The caller observed `worker` die outright (e.g. its channel
    /// disconnected). All of its leases are requeued immediately and the
    /// worker is excluded.
    pub(crate) fn worker_died(&mut self, worker: usize) -> Expiry {
        // sampled first: expiring its leases may itself cross the failure
        // threshold, and the caller must still hear about the loss
        let newly_lost = !self.excluded[worker];
        let oldest = self.leases_of(worker).next();
        if let Some(id) = oldest {
            self.expire_one(id); // voids the rest
        }
        if !self.excluded[worker] {
            self.excluded[worker] = true;
            self.counters.workers_lost += 1;
        }
        Expiry { worker, newly_lost }
    }

    /// One fault, one penalty: expiring `id` charges its holder a single
    /// failure and voids the rest of what it holds.
    fn expire_one(&mut self, id: u64) -> Expiry {
        let lease = self.pending.remove(&id).expect("expiring a live lease");
        let w = lease.worker;
        let attempt = lease.attempt + 1;
        self.requeue(lease, attempt);
        self.void_leases(w);
        self.consecutive_fails[w] += 1;
        self.total_fails[w] += 1;
        let newly_lost =
            !self.excluded[w] && self.consecutive_fails[w] >= self.cfg.max_worker_failures;
        if newly_lost {
            self.excluded[w] = true;
            self.counters.workers_lost += 1;
        }
        Expiry {
            worker: w,
            newly_lost,
        }
    }

    /// Requeue every lease `worker` holds with no failure or strike and no
    /// backoff: the fault that ended the lease ahead of them has been
    /// charged, and these only fall with it because their results build on
    /// its result.
    fn void_leases(&mut self, worker: usize) {
        let ids: Vec<u64> = self.leases_of(worker).collect();
        for id in ids {
            let lease = self.pending.remove(&id).expect("voiding a live lease");
            let attempt = lease.attempt;
            self.requeue(lease, attempt);
        }
    }

    /// A lease left the ledger without a result: its unit goes back on the
    /// retry queue as attempt `attempt` — unless its speculative twin is
    /// still running, which covers the work, so requeueing would make a
    /// third copy.
    fn requeue(&mut self, lease: Lease<U>, attempt: u32) {
        match lease.twin.and_then(|t| self.pending.get_mut(&t)) {
            Some(twin) => twin.twin = None,
            None => {
                self.retry.push_back((lease.unit, attempt, lease.worker));
                self.counters.units_reassigned += 1;
            }
        }
    }

    /// Pop the next unit awaiting re-issue, with its attempt number and
    /// the worker whose lease on it expired.
    pub(crate) fn take_retry(&mut self) -> Option<(U, u32, usize)> {
        self.retry.pop_front()
    }

    /// True if any unit is waiting to be re-issued.
    pub(crate) fn has_retry(&self) -> bool {
        !self.retry.is_empty()
    }

    /// True if any lease is outstanding.
    pub(crate) fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// True if `worker` must not be assigned further work.
    pub(crate) fn is_excluded(&self, worker: usize) -> bool {
        self.excluded[worker]
    }

    /// Lifetime lease-expiry count for `worker` (for `MachineReport`).
    pub(crate) fn total_failures(&self, worker: usize) -> u64 {
        self.total_fails[worker]
    }
}
#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(lease: f64, k: u32) -> RecoveryConfig {
        RecoveryConfig {
            lease_timeout_s: lease,
            max_worker_failures: k,
            ..RecoveryConfig::default()
        }
    }

    #[test]
    fn ledger_grows_for_midrun_joiners() {
        let mut led: Ledger<u32> = Ledger::new(cfg(10.0, 2), 0);
        assert_eq!(led.excluded.len(), 0);
        let w0 = led.add_worker();
        let w1 = led.add_worker();
        assert_eq!((w0, w1), (0, 1));
        assert_eq!(led.excluded.len(), 2);
        led.issue(7, w1, 0.0, 0, None);
        let ex = led.worker_died(w1);
        assert!(ex.newly_lost);
        assert!(led.is_excluded(w1));
        assert!(!led.is_excluded(w0));
        assert_eq!(led.take_retry(), Some((7, 1, w1)));
    }

    #[test]
    fn lease_completes_exactly_once() {
        let mut led: Ledger<u32> = Ledger::new(cfg(10.0, 2), 2);
        let id = led.issue(7, 0, 0.0, 0, None);
        assert!(led.has_pending());
        assert!(led.complete_at(id, 0, 1.0).is_some());
        assert!(
            led.complete_at(id, 0, 2.0).is_none(),
            "second completion is a duplicate"
        );
        assert_eq!(led.counters.duplicates_dropped, 1);
        assert!(!led.has_pending());
    }

    #[test]
    fn a_lease_is_only_its_holders_to_answer() {
        let mut led: Ledger<u32> = Ledger::new(cfg(10.0, 2), 2);
        let id = led.issue(7, 0, 0.0, 0, None);
        assert!(
            led.complete_at(id, 1, 1.0).is_none(),
            "worker 1 never held this lease"
        );
        assert!(led.has_pending(), "the holder's lease is untouched");
        assert!(led.complete_at(id, 0, 1.0).is_some());
    }

    #[test]
    fn expiry_requeues_with_backoff_and_excludes() {
        let mut led: Ledger<u32> = Ledger::new(cfg(10.0, 2), 2);
        let id0 = led.issue(7, 0, 0.0, 0, None);
        assert_eq!(led.next_deadline(0.0), Some(10.0));
        assert!(led.expire_due(9.9).is_empty());
        let ex = led.expire_due(10.0);
        assert_eq!(
            ex,
            vec![Expiry {
                worker: 0,
                newly_lost: false
            }]
        );
        assert_eq!(led.counters.units_reassigned, 1);
        // stale completion is a duplicate
        assert!(led.complete_at(id0, 0, 10.0).is_none());
        // retry carries attempt 1 → doubled lease, tagged with the loser
        let (unit, attempt, from) = led.take_retry().unwrap();
        assert_eq!((unit, attempt, from), (7, 1, 0));
        led.issue(unit, 0, 100.0, attempt, None);
        assert_eq!(led.next_deadline(100.0), Some(120.0));
        // second consecutive failure crosses the threshold
        let ex = led.expire_due(120.0);
        assert_eq!(
            ex,
            vec![Expiry {
                worker: 0,
                newly_lost: true
            }]
        );
        assert!(led.is_excluded(0));
        assert_eq!(led.counters.workers_lost, 1);
        assert_eq!(led.total_failures(0), 2);
    }

    #[test]
    fn success_resets_consecutive_failures() {
        let mut led: Ledger<u32> = Ledger::new(cfg(10.0, 2), 1);
        let _ = led.issue(1, 0, 0.0, 0, None);
        led.expire_due(10.0);
        let id = led.issue(2, 0, 20.0, 0, None);
        assert!(led.complete_at(id, 0, 21.0).is_some());
        // streak reset: one more failure does not exclude
        let _ = led.issue(3, 0, 40.0, 0, None);
        let ex = led.expire_due(50.0);
        assert!(!ex[0].newly_lost);
        assert!(!led.is_excluded(0));
    }

    #[test]
    fn observed_death_requeues_everything_at_once() {
        let mut led: Ledger<u32> = Ledger::new(cfg(1000.0, 5), 3);
        led.issue(1, 2, 0.0, 0, None);
        led.issue(2, 2, 0.0, 0, None);
        led.issue(3, 1, 0.0, 0, None);
        let ex = led.worker_died(2);
        assert!(ex.newly_lost);
        assert!(led.is_excluded(2));
        assert_eq!(led.counters.units_reassigned, 2);
        assert_eq!(led.counters.workers_lost, 1);
        let mut retried = vec![];
        while let Some((u, _, from)) = led.take_retry() {
            assert_eq!(from, 2);
            retried.push(u);
        }
        retried.sort_unstable();
        assert_eq!(retried, vec![1, 2]);
        // worker 1's lease is untouched
        assert!(led.has_pending());
    }

    #[test]
    fn observed_death_is_reported_even_when_its_expiry_crosses_the_threshold() {
        // K = 1: requeueing the dead worker's lease already excludes it,
        // and the caller must still be told so it can release the
        // worker's queues (`on_worker_lost`)
        let mut led: Ledger<u32> = Ledger::new(cfg(1000.0, 1), 2);
        led.issue(1, 0, 0.0, 0, None);
        let ex = led.worker_died(0);
        assert!(ex.newly_lost);
        assert_eq!(led.counters.workers_lost, 1, "counted once");
        assert!(!led.worker_died(0).newly_lost, "a second report is not new");
    }

    #[test]
    fn patience_with_silent_workers_lasts_one_backed_off_lease() {
        let mut led: Ledger<u32> = Ledger::new(cfg(10.0, 5), 1);
        led.issue(1, 0, 0.0, 0, None);
        assert_eq!(led.expire_due(10.0).len(), 1);
        // nothing leased, a unit requeued: wait until 10 + 2 x 10
        assert_eq!(led.patience_until(), 30.0);
        assert_eq!(led.next_deadline(12.0), Some(30.0));
        assert_eq!(led.next_deadline(30.0), None, "patience is over");
        // once the retry is taken the lease is the only deadline again
        let (unit, attempt, _) = led.take_retry().expect("requeued");
        led.issue(unit, 0, 15.0, attempt, None);
        assert_eq!(led.next_deadline(15.0), Some(35.0));
    }

    #[test]
    fn disabled_recovery_never_expires() {
        let mut led: Ledger<u32> = Ledger::new(RecoveryConfig::default(), 1);
        assert!(!led.cfg.enabled());
        led.issue(1, 0, 0.0, 0, None);
        assert!(led.expire_due(f64::MAX).is_empty());
        assert_eq!(led.next_deadline(0.0), None);
    }

    #[test]
    fn rejected_results_strike_and_quarantine() {
        let mut led: Ledger<u32> = Ledger::new(cfg(1000.0, 5), 2);
        for round in 0..3u32 {
            let id = led.issue(round, 1, round as f64, 0, None);
            let lease = led.complete_at(id, 1, round as f64 + 1.0).expect("fresh");
            let quarantine = led.reject(lease);
            assert_eq!(
                quarantine.map(|ex| ex.newly_lost),
                (round == 2).then_some(true),
                "third strike (default K=3) triggers quarantine"
            );
            // the unit requeued byte-identically, tagged with the striker
            assert_eq!(led.take_retry(), Some((round, 1, 1)));
        }
        assert_eq!(led.strikes[1], 3);
        assert_eq!(led.counters.results_rejected, 3);
        assert!(led.is_excluded(1) && !led.is_excluded(0));
        assert_eq!(led.counters.workers_quarantined, 1);
        assert_eq!(led.counters.workers_lost, 1);
        // a further bad result from the quarantined worker changes nothing
        let id = led.issue(9, 1, 9.0, 0, None);
        let lease = led.complete_at(id, 1, 9.5).expect("fresh");
        assert_eq!(led.reject(lease), None);
        assert_eq!(led.counters.workers_quarantined, 1);
    }

    #[test]
    fn speculation_issues_one_backup_and_first_result_wins() {
        let mut c = cfg(1e6, 5);
        c.speculate = true;
        c.speculate_factor = 2.0;
        let mut led: Ledger<u32> = Ledger::new(c, 2);
        // warm the EWMA with three 1-second completions
        for i in 0..3u32 {
            let id = led.issue(i, 0, i as f64, 0, None);
            assert!(led.complete_at(id, 0, i as f64 + 1.0).is_some());
        }
        let slow = led.issue(100, 0, 10.0, 0, None);
        assert!(!led.has_straggler(11.9), "not overdue yet");
        assert_eq!(
            led.next_deadline(11.0),
            Some(12.0),
            "wake when the lease starts to straggle"
        );
        assert_eq!(
            led.next_deadline(12.5),
            Some(10.0 + 1e6),
            "an overdue straggler needs no timer, only its lease does"
        );
        assert!(led.has_straggler(12.1), "2x the ~1s EWMA has passed");
        assert_eq!(
            led.straggler_for(0, 12.1),
            None,
            "the straggling worker itself never gets the backup"
        );
        let (orig, unit, attempt, from) = led.straggler_for(1, 12.1).expect("straggler");
        assert_eq!((orig, unit, attempt, from), (slow, 100, 0, 0));
        let backup = led.issue(unit, 1, 12.1, attempt, Some(orig));
        assert_eq!(led.counters.backup_leases, 1);
        assert!(
            led.straggler_for(1, 50.0).is_none(),
            "a twinned lease is never speculated on again"
        );
        // the backup finishes first: it wins, the original becomes stale
        assert!(led.complete_at(backup, 1, 13.0).is_some());
        assert!(
            led.complete_at(slow, 0, 14.0).is_none(),
            "loser is a duplicate"
        );
        assert_eq!(led.counters.duplicates_dropped, 1);
        assert!(!led.has_pending());
    }

    #[test]
    fn a_queued_lease_starts_its_clock_when_the_one_ahead_is_answered() {
        let mut c = cfg(10.0, 5);
        c.speculate = true;
        c.speculate_factor = 2.0;
        let mut led: Ledger<u32> = Ledger::new(c, 1);
        let a = led.issue(1, 0, 0.0, 0, None);
        let b = led.issue(2, 0, 0.0, 0, None);
        assert_eq!((led.held_by(0), led.counters.leases_prefetched), (2, 1));
        // only the running lease has a deadline, however long the other queues
        assert_eq!(led.next_deadline(0.0), Some(10.0));
        assert!(led.complete_at(a, 0, 7.0).is_some());
        assert_eq!(led.next_deadline(7.0), Some(17.0), "a full lease from 7");
        // and its EWMA sample is its own 1 s, not the 8 s since it was sent
        assert!(led.complete_at(b, 0, 8.0).is_some());
        assert_eq!(led.ewma_unit_s, 0.7 * 7.0 + 0.3 * 1.0);
    }

    #[test]
    fn one_fault_voids_the_holders_other_lease_at_no_cost() {
        // expiry: the running lease fails, the queued one just requeues
        let mut led: Ledger<u32> = Ledger::new(cfg(10.0, 5), 1);
        led.issue(1, 0, 0.0, 0, None);
        let queued = led.issue(2, 0, 0.0, 0, None);
        assert_eq!(led.expire_due(10.0).len(), 1, "one expiry, not two");
        assert_eq!(led.total_failures(0), 1);
        assert_eq!(led.counters.units_reassigned, 2);
        assert_eq!(led.take_retry(), Some((1, 1, 0)), "backed off");
        assert_eq!(led.take_retry(), Some((2, 0, 0)), "not backed off");
        assert!(
            led.complete_at(queued, 0, 11.0).is_none(),
            "void: a duplicate"
        );

        // rejection: one strike, and the lease behind the bad result is void
        let mut led: Ledger<u32> = Ledger::new(cfg(10.0, 5), 1);
        let bad = led.issue(1, 0, 0.0, 0, None);
        let behind = led.issue(2, 0, 0.0, 0, None);
        let lease = led.complete_at(bad, 0, 1.0).expect("fresh");
        assert_eq!(led.reject(lease), None);
        assert_eq!((led.strikes[0], led.held_by(0)), (1, 0));
        assert!(led.complete_at(behind, 0, 2.0).is_none());
        assert_eq!(led.counters.results_rejected, 1);
        assert_eq!(led.take_retry(), Some((1, 1, 0)));
        assert_eq!(led.take_retry(), Some((2, 0, 0)));
    }

    #[test]
    fn answering_past_a_lease_expires_it_on_the_spot() {
        let mut led: Ledger<u32> = Ledger::new(cfg(1000.0, 5), 2);
        let first = led.issue(1, 0, 0.0, 0, None);
        let second = led.issue(2, 0, 0.0, 0, None);
        assert_eq!(led.expire_skipped(0, first, 1.0), None, "in order");
        assert_eq!(led.expire_skipped(1, second, 1.0), None, "not its lease");
        let ex = led
            .expire_skipped(0, second, 1.0)
            .expect("first was skipped");
        assert_eq!((ex.worker, ex.newly_lost), (0, false));
        assert_eq!((led.total_failures(0), led.held_by(0)), (1, 0));
        assert!(led.complete_at(second, 0, 1.0).is_none(), "voided with it");
    }

    #[test]
    fn a_retired_twin_takes_its_holders_queue_with_it() {
        let mut c = cfg(1e6, 5);
        c.speculate = true;
        c.speculate_factor = 2.0;
        let mut led: Ledger<u32> = Ledger::new(c, 2);
        for i in 0..3u32 {
            let id = led.issue(i, 0, 0.0, 0, None);
            assert!(led.complete_at(id, 0, 1.0).is_some());
        }
        // worker 0 straggles on unit 100 with unit 101 queued behind it
        let slow = led.issue(100, 0, 10.0, 0, None);
        let behind = led.issue(101, 0, 10.0, 0, None);
        let (orig, unit, attempt, _) = led.straggler_for(1, 20.0).expect("straggler");
        let backup = led.issue(unit, 1, 20.0, attempt, Some(orig));
        assert!(led.complete_at(backup, 1, 21.0).is_some(), "backup wins");
        // 101 was computed on top of a result the master never took
        assert_eq!(led.held_by(0), 0);
        assert!(led.complete_at(slow, 0, 30.0).is_none());
        assert!(led.complete_at(behind, 0, 31.0).is_none());
        assert_eq!(led.take_retry(), Some((101, 0, 0)));
        assert_eq!(led.total_failures(0), 0, "slow is not a fault");
    }

    #[test]
    fn expiring_a_twinned_lease_does_not_requeue_a_third_copy() {
        let mut c = cfg(10.0, 5);
        c.speculate = true;
        c.speculate_factor = 2.0;
        let mut led: Ledger<u32> = Ledger::new(c, 2);
        for i in 0..3u32 {
            let id = led.issue(i, 0, 0.0, 0, None);
            assert!(led.complete_at(id, 0, 0.1).is_some());
        }
        let slow = led.issue(100, 0, 0.0, 0, None);
        let (orig, unit, attempt, _) = led.straggler_for(1, 5.0).expect("straggler");
        let backup = led.issue(unit, 1, 5.0, attempt, Some(orig));
        // the original lease times out while the backup still runs: the
        // worker takes the failure but the unit must not requeue
        let reassigned_before = led.counters.units_reassigned;
        let ex = led.expire_due(10.0);
        assert_eq!(ex.len(), 1);
        assert_eq!(ex[0].worker, 0);
        assert_eq!(led.counters.units_reassigned, reassigned_before);
        assert!(!led.has_retry(), "twin covers the unit");
        assert_eq!(
            led.complete_at(slow, 0, 10.5),
            None,
            "expired original is stale"
        );
        assert!(
            led.complete_at(backup, 1, 11.0).is_some(),
            "backup integrates"
        );
    }
}
