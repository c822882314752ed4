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
//! * from any reachable state, as long as the first worker is still live
//!   and keeps answering honestly, the run finishes with every unit
//!   integrated exactly once.
//!
//! Worker 0 is the honest one: it may be slow (its leases may expire) but
//! it never leaves and never lies. Every other worker may do anything.

use now_cluster::codec::DecodeError;
use now_cluster::core::{Action, MasterCore};
use now_cluster::{MasterLogic, MasterWork, RecoveryConfig};
use now_testkit::Rng;

/// A bag of `integrated.len()` units; a result is just "valid or not".
#[derive(Clone)]
struct Bag {
    next: usize,
    integrated: Vec<u32>,
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
        valid.then(|| {
            self.integrated[unit] += 1;
            MasterWork::default()
        })
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
    /// Answer the unit being computed (which may have gone stale).
    Result(usize, Answer),
    /// Deliver the previous answer a second time.
    Replay(usize),
    /// Let the clock pass the core's next deadline.
    Tick,
}

/// Driver-side view of one worker.
#[derive(Clone, Default)]
struct Peer {
    /// Connected: neither left nor told to stop.
    up: bool,
    owes_request: bool,
    computing: Option<u64>,
    answered: Option<u64>,
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
    now: f64,
}

impl World {
    fn new(workers: usize, units: usize) -> World {
        let recovery = RecoveryConfig {
            lease_timeout_s: 10.0,
            max_worker_failures: 2,
            max_worker_strikes: 2,
            speculate: true,
            speculate_factor: 2.0,
            ..RecoveryConfig::default()
        };
        let bag = Bag {
            next: 0,
            integrated: vec![0; units],
        };
        World {
            core: MasterCore::new(bag, recovery),
            peers: Vec::new(),
            max_workers: workers,
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
            if p.computing.is_some() {
                out.push(Move::Result(w, Answer::Valid));
            }
            if w > 0 {
                out.push(Move::Left(w));
                if p.computing.is_some() {
                    out.push(Move::Result(w, Answer::Corrupt));
                    out.push(Move::Result(w, Answer::Undecodable));
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
                self.peers[w].up = false;
                self.core.left(w);
            }
            Move::Request(w) => {
                self.peers[w].owes_request = false;
                self.core.request(w, self.now);
            }
            Move::Result(w, answer) => {
                let id = self.peers[w].computing.take().expect("computing");
                self.peers[w].answered = Some(id);
                let result = match answer {
                    Answer::Valid => Ok(true),
                    Answer::Corrupt => Ok(false),
                    Answer::Undecodable => Err(DecodeError {
                        at: 0,
                        what: "model",
                    }),
                };
                self.core.result(w, id, result, self.now);
                // a result doubles as the next work request
                self.core.request(w, self.now);
            }
            Move::Replay(w) => {
                let id = self.peers[w].answered.expect("answered");
                self.core.result(w, id, Ok(true), self.now);
            }
            Move::Tick => {
                self.now = self
                    .now
                    .max(self.core.next_deadline(self.now).expect("deadline"));
                self.core.tick(self.now);
            }
        }
        self.settle();
        self.check_invariants();
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
                    worker, assign_id, ..
                } => {
                    let p = &mut self.peers[worker];
                    assert!(p.up, "unit sent to a worker that is gone");
                    assert!(
                        self.core.is_live(worker) && !p.seen_quarantined,
                        "unit sent to a done or quarantined worker"
                    );
                    p.computing = Some(assign_id);
                }
                Action::Shutdown { worker } => {
                    assert!(!self.core.is_live(worker));
                    self.peers[worker].up = false;
                }
                Action::Lost {
                    worker,
                    quarantined,
                } => {
                    assert!(!self.core.is_live(worker));
                    let p = &mut self.peers[worker];
                    assert!(p.up, "a worker is lost at most once");
                    p.up = false;
                    p.seen_quarantined = quarantined;
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
        for _ in 0..64 {
            if self.core.finished() {
                break;
            }
            let p = &self.peers[0];
            let m = if p.owes_request {
                Move::Request(0)
            } else if p.computing.is_some() {
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
    let visited = explore(&World::new(2, 3), &mut Vec::new(), 10);
    assert!(visited > 50_000, "the search space collapsed: {visited}");
}

#[test]
fn seeded_random_walks_over_three_workers_and_four_units_keep_the_invariants() {
    for seed in 0..400 {
        let mut rng = Rng::with_seed(seed);
        let mut world = World::new(3, 4);
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
