//! Small-state exploration of the sans-IO [`MasterCore`].
//!
//! A model driver feeds the core every interleaving of the protocol's
//! events — `joined`, `left`, `request`, `result` (valid, corrupt,
//! undecodable, replayed or stale), and `tick` past the next lease or
//! straggler deadline — over a handful of workers and units, and checks
//! the farm's claims after every single step:
//!
//! * each unit is integrated at most once;
//! * no unit is ever sent to a worker that is done, excluded, quarantined
//!   or gone, and those conditions never revert;
//! * a worker never holds more live leases than the core's depth, and a
//!   second one is only ever sent to it while another worker is live (a
//!   farm of one is leased one unit at a time);
//! * a result is integrated exactly when the model says its lease is live
//!   and answered in order, and a worker is quarantined exactly at its
//!   second such bad result — so a voided lease's result (one requeued
//!   because the lease ahead of it failed) is never integrated and never
//!   strikes;
//! * from any reachable state, as long as the first worker is still live
//!   and keeps answering honestly, the run finishes with every unit
//!   integrated exactly once.
//!
//! Worker 0 is the honest one: it may be slow (its leases may expire) but
//! it never leaves, never lies and answers in order. Every other worker
//! may do anything. The model runs at lease depth 1 (the simulator's) and
//! at depth 2 (the wall-clock drivers'), where a worker's inbox can hold
//! two units: it may answer the one behind before the one in front,
//! answer a lease the core has voided, or die holding both.

use now_cluster::codec::DecodeError;
use now_cluster::core::{Action, MasterCore};
use now_cluster::{MasterLogic, MasterWork, RecoveryConfig};
use now_testkit::Rng;

/// A bag of `integrated.len()` units; a result is just "valid or not".
#[derive(Clone)]
struct Bag {
    next: usize,
    integrated: Vec<u32>,
    /// Results that reached verification and failed it.
    rejected: u32,
}

impl MasterLogic for Bag {
    type Unit = usize;
    type Result = bool;
    fn assign(&mut self, _w: usize) -> Option<usize> {
        (self.next < self.integrated.len()).then(|| {
            self.next += 1;
            self.next - 1
        })
    }
    fn integrate(&mut self, _w: usize, unit: usize, valid: bool) -> Option<MasterWork> {
        if !valid {
            self.rejected += 1;
            return None;
        }
        self.integrated[unit] += 1;
        Some(MasterWork::default())
    }
    fn all_done(&self) -> bool {
        self.integrated.iter().all(|&n| n > 0)
    }
}

#[derive(Clone, Copy, PartialEq, Debug)]
enum Answer {
    Valid,
    Corrupt,
    Undecodable,
}

#[derive(Clone, Copy, PartialEq, Debug)]
enum Move {
    Join,
    Left(usize),
    Request(usize),
    /// Answer the unit at the front of the inbox (which may have gone
    /// stale).
    Result(usize, Answer),
    /// Answer the unit behind it first: out of order.
    Behind(usize, Answer),
    /// Deliver the previous answer a second time.
    Replay(usize),
    /// Let the clock pass the core's next deadline.
    Tick,
}

/// A unit in a worker's inbox.
#[derive(Clone, Copy)]
struct Held {
    id: u64,
    unit: usize,
    /// The model's ledger: false once the lease expired, was voided or was
    /// retired by its speculative twin.
    live: bool,
}

/// Driver-side view of one worker.
#[derive(Clone, Default)]
struct Peer {
    /// Connected: neither left nor told to stop.
    up: bool,
    owes_request: bool,
    /// Units received and not yet answered, in the order they were sent.
    inbox: Vec<Held>,
    answered: Option<u64>,
    /// Bad results delivered on a live lease, in order.
    strikes: u32,
    /// Latches for the monotonicity checks: the core reported the worker
    /// done / announced its quarantine.
    seen_done: bool,
    seen_quarantined: bool,
}

#[derive(Clone)]
struct World {
    core: MasterCore<Bag>,
    peers: Vec<Peer>,
    max_workers: usize,
    depth: usize,
    now: f64,
}

impl World {
    fn new(workers: usize, units: usize, depth: usize) -> World {
        let recovery = RecoveryConfig {
            lease_timeout_s: 10.0,
            max_worker_failures: 2,
            max_worker_strikes: 2,
            speculate: true,
            speculate_factor: 2.0,
        };
        let bag = Bag {
            next: 0,
            integrated: vec![0; units],
            rejected: 0,
        };
        World {
            core: MasterCore::new(bag, recovery, depth),
            peers: Vec::new(),
            max_workers: workers,
            depth,
            now: 0.0,
        }
    }

    /// Every event a driver could deliver in this state.
    fn moves(&self) -> Vec<Move> {
        let mut out = Vec::new();
        if self.peers.len() < self.max_workers {
            out.push(Move::Join);
        }
        for (w, p) in self.peers.iter().enumerate().filter(|(_, p)| p.up) {
            if p.owes_request {
                out.push(Move::Request(w));
            }
            if !p.inbox.is_empty() {
                out.push(Move::Result(w, Answer::Valid));
            }
            if w > 0 {
                out.push(Move::Left(w));
                if !p.inbox.is_empty() {
                    out.push(Move::Result(w, Answer::Corrupt));
                    out.push(Move::Result(w, Answer::Undecodable));
                }
                if p.inbox.len() > 1 {
                    out.push(Move::Behind(w, Answer::Valid));
                    out.push(Move::Behind(w, Answer::Corrupt));
                }
                if p.answered.is_some() {
                    out.push(Move::Replay(w));
                }
            }
        }
        if self.core.next_deadline(self.now).is_some() {
            out.push(Move::Tick);
        }
        out
    }

    fn apply(&mut self, m: Move) {
        self.now += 1.0;
        match m {
            Move::Join => {
                assert_eq!(self.core.joined(), self.peers.len());
                self.peers.push(Peer {
                    up: true,
                    owes_request: true,
                    ..Peer::default()
                });
            }
            Move::Left(w) => {
                self.gone(w);
                self.core.left(w);
            }
            Move::Request(w) => {
                self.peers[w].owes_request = false;
                self.core.request(w, self.now);
            }
            Move::Result(w, answer) => self.answer(w, 0, answer),
            Move::Behind(w, answer) => self.answer(w, 1, answer),
            Move::Replay(w) => {
                let id = self.peers[w].answered.expect("answered");
                self.core.result(w, id, Ok(true), self.now);
            }
            Move::Tick => {
                self.now = self
                    .now
                    .max(self.core.next_deadline(self.now).expect("deadline"));
                // one fault, one penalty: the running lease expired, the
                // rest of what its holder has is voided with it
                for w in self.core.tick(self.now) {
                    self.void(w);
                }
            }
        }
        self.settle();
        self.check_invariants();
    }

    /// Worker `w` answers the unit at `at` in its inbox. The model decides
    /// first what the core must make of it.
    fn answer(&mut self, w: usize, at: usize, answer: Answer) {
        let held = self.peers[w].inbox.remove(at);
        self.peers[w].answered = Some(held.id);
        // answering past a live lease means that one's result is lost: it
        // expires on the spot and takes this one with it
        let skipped = self.peers[w].inbox[..at].iter().any(|h| h.live);
        let counts = held.live && !skipped;
        if skipped || (counts && answer != Answer::Valid) {
            self.void(w);
        }
        if counts {
            // the first answer of a speculative pair retires the other copy
            // (before it is verified), and what that copy's holder computed
            // on top of it is voided
            let twin = (0..self.peers.len()).find(|&v| {
                self.peers[v]
                    .inbox
                    .iter()
                    .any(|h| h.live && h.unit == held.unit)
            });
            if let Some(v) = twin {
                self.void(v);
            }
        }
        if counts && answer != Answer::Valid {
            self.peers[w].strikes += 1;
        }
        let result = match answer {
            Answer::Valid => Ok(true),
            Answer::Corrupt => Ok(false),
            Answer::Undecodable => Err(DecodeError {
                at: 0,
                what: "model",
            }),
        };
        let (before, rejected) = {
            let bag = self.core.master();
            (bag.integrated[held.unit], bag.rejected)
        };
        let integrated = self.core.result(w, held.id, result, self.now).is_some();
        assert_eq!(
            integrated,
            counts && answer == Answer::Valid,
            "worker {w} answered lease {} ({answer:?}, live {}, skipped {skipped})",
            held.id,
            held.live
        );
        let bag = self.core.master();
        assert_eq!(bag.integrated[held.unit], before + integrated as u32);
        assert_eq!(
            bag.rejected - rejected,
            (counts && answer == Answer::Corrupt) as u32,
            "only a live lease's bad result reaches verification"
        );
        // a result doubles as the next work request
        self.core.request(w, self.now);
    }

    /// Every lease `w` holds leaves the model's ledger.
    fn void(&mut self, w: usize) {
        for h in &mut self.peers[w].inbox {
            h.live = false;
        }
    }

    /// Worker `w` is out: it answers nothing more.
    fn gone(&mut self, w: usize) {
        self.void(w);
        self.peers[w].up = false;
    }

    /// What every driver does after an event: realise the actions, then
    /// wake parked workers for as long as the core asks for it and the
    /// wake changes something.
    fn settle(&mut self) {
        self.realise();
        for round in 0.. {
            assert!(round < 8, "wake must reach a fixed point, not spin");
            if !self.core.wakeable(self.now) {
                break;
            }
            if !self.core.wake(self.now) {
                break;
            }
            self.realise();
        }
    }

    /// Realise the core's pending actions.
    fn realise(&mut self) {
        while let Some(action) = self.core.next_action() {
            match action {
                Action::Send {
                    worker,
                    assign_id,
                    unit,
                } => {
                    let company =
                        (0..self.peers.len()).any(|o| o != worker && self.core.is_live(o));
                    let p = &mut self.peers[worker];
                    assert!(p.up, "unit sent to a worker that is gone");
                    assert!(
                        company || !p.inbox.iter().any(|h| h.live),
                        "a farm of one was prefetched"
                    );
                    assert!(
                        self.core.is_live(worker) && !p.seen_quarantined,
                        "unit sent to a done or quarantined worker"
                    );
                    p.inbox.push(Held {
                        id: assign_id,
                        unit,
                        live: true,
                    });
                }
                Action::Shutdown { worker } => {
                    assert!(!self.core.is_live(worker));
                    let holds = self.peers[worker].inbox.iter().any(|h| h.live);
                    assert!(!holds, "dismissed with a lease in hand");
                    self.gone(worker);
                }
                Action::Lost {
                    worker,
                    quarantined,
                } => {
                    assert!(!self.core.is_live(worker));
                    let p = &mut self.peers[worker];
                    assert!(p.up, "a worker is lost at most once");
                    assert_eq!(
                        quarantined,
                        p.strikes >= 2,
                        "quarantine comes at the second strike, and only then"
                    );
                    p.seen_quarantined = quarantined;
                    self.gone(worker);
                }
            }
        }
    }

    fn check_invariants(&mut self) {
        let integrated = &self.core.master().integrated;
        assert!(
            integrated.iter().all(|&n| n <= 1),
            "a unit was integrated twice: {integrated:?}"
        );
        for (w, p) in self.peers.iter_mut().enumerate() {
            let done = !self.core.is_live(w);
            assert!(done || !p.seen_done, "worker {w} came back from done");
            assert!(
                done || !p.seen_quarantined,
                "quarantined worker {w} is live"
            );
            assert!(p.up || done, "the core forgot that worker {w} left");
            assert!(
                p.strikes < 2 || p.seen_quarantined,
                "worker {w} struck out and is still around"
            );
            let held = p.inbox.iter().filter(|h| h.live).count();
            assert!(
                held <= self.depth,
                "worker {w} holds {held} leases at depth {}",
                self.depth
            );
            p.seen_done = done;
        }
    }

    /// From here on every other worker is gone and only the honest one
    /// acts (joining first if nobody has); time passes whenever it has
    /// nothing to do. If it is still live the run must finish with every
    /// unit integrated exactly once.
    fn honest_completion(mut self, trail: &[Move]) {
        if self.peers.is_empty() {
            self.apply(Move::Join);
        }
        for w in 1..self.peers.len() {
            if self.peers[w].up {
                self.apply(Move::Left(w));
            }
        }
        if !self.core.is_live(0) {
            return; // excluded as too slow, or dismissed: no promise to keep
        }
        for _ in 0..96 {
            if self.core.finished() {
                break;
            }
            let p = &self.peers[0];
            let m = if p.owes_request {
                Move::Request(0)
            } else if !p.inbox.is_empty() {
                Move::Result(0, Answer::Valid)
            } else if self.core.next_deadline(self.now).is_some() {
                Move::Tick
            } else {
                break;
            };
            self.apply(m);
        }
        let integrated = &self.core.master().integrated;
        assert!(
            self.core.finished() && integrated.iter().all(|&n| n == 1),
            "honest worker could not finish after {trail:?}: integrated {integrated:?}, \
             finished {}",
            self.core.finished()
        );
    }
}

/// Depth-bounded exhaustive search; returns the number of states visited.
fn explore(world: &World, trail: &mut Vec<Move>, depth: usize) -> u64 {
    let moves = world.moves();
    if depth == 0 || moves.is_empty() {
        world.clone().honest_completion(trail);
        return 1;
    }
    let mut visited = 1;
    for m in moves {
        let mut next = world.clone();
        next.apply(m);
        trail.push(m);
        visited += explore(&next, trail, depth - 1);
        trail.pop();
    }
    visited
}

#[test]
fn every_interleaving_of_two_workers_and_three_units_keeps_the_invariants() {
    // depth 1 is the protocol every earlier PR explored: same state count
    let visited = explore(&World::new(2, 3, 1), &mut Vec::new(), 10);
    assert_eq!(visited, 172_239, "the depth-1 search space moved");
}

#[test]
fn every_interleaving_at_lease_depth_two_keeps_the_invariants() {
    let visited = explore(&World::new(2, 3, 2), &mut Vec::new(), 10);
    assert!(visited > 1_000_000, "the search space collapsed: {visited}");
}

#[test]
fn seeded_random_walks_over_three_workers_and_four_units_keep_the_invariants() {
    for seed in 0..800 {
        let mut rng = Rng::with_seed(seed / 2);
        let mut world = World::new(3, 4, 1 + (seed % 2) as usize);
        let mut trail = Vec::new();
        for _ in 0..40 {
            let moves = world.moves();
            if moves.is_empty() {
                break;
            }
            let m = *rng.pick(&moves);
            world.apply(m);
            trail.push(m);
        }
        world.honest_completion(&trail);
    }
}
