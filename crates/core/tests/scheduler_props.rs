//! Property tests for the partitioning scheduler: any scheme, any worker
//! pool, any request interleaving must cover every (pixel, frame) exactly
//! once, keep per-queue frames consecutive, and restart coherence exactly
//! at chain breaks — including when workers are lost mid-run and their
//! queues are released to survivors.

use now_coherence::PixelRegion;
use now_core::partition::{PartitionScheme, RenderUnit, Scheduler};
use now_testkit::{cases, Rng};
use std::collections::{HashMap, HashSet};

fn random_scheme(rng: &mut Rng) -> PartitionScheme {
    if rng.bool() {
        PartitionScheme::SequenceDivision {
            adaptive: rng.bool(),
        }
    } else {
        PartitionScheme::FrameDivision {
            tile_w: rng.u32_in(4, 40),
            tile_h: rng.u32_in(4, 40),
        }
    }
}

/// Drain the scheduler with a deterministic pseudo-random interleaving of
/// worker requests.
fn drain(sched: &mut Scheduler, workers: usize, seed: u64) -> Vec<(usize, RenderUnit)> {
    let mut out = Vec::new();
    let mut alive: Vec<usize> = (0..workers).collect();
    let mut state = seed | 1;
    while !alive.is_empty() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let pick = (state >> 33) as usize % alive.len();
        let w = alive[pick];
        match sched.next_unit(w) {
            Some(u) => out.push((w, u)),
            None => {
                alive.swap_remove(pick);
            }
        }
    }
    out
}

fn assert_exact_cover(log: &[(usize, RenderUnit)], width: u32, height: u32, frames: u32) {
    let mut seen: HashSet<(u32, u32)> = HashSet::new();
    for (_, u) in log {
        for p in u.region.pixel_ids(width) {
            assert!(
                seen.insert((u.frame, p)),
                "({}, {p}) covered twice",
                u.frame
            );
        }
    }
    assert_eq!(
        seen.len() as u64,
        (width as u64) * (height as u64) * frames as u64
    );
}

#[test]
fn exact_cover_and_consecutive_chains() {
    cases(64, |rng| {
        let scheme = random_scheme(rng);
        let width = rng.u32_in(8, 64);
        let height = rng.u32_in(8, 64);
        let frames = rng.u32_in(1, 30);
        let workers = rng.usize_in(1, 6);
        let seed = rng.u64();
        let mut sched = Scheduler::new(scheme, width, height, frames, workers);
        let log = drain(&mut sched, workers, seed);

        // 1. exact cover: every (pixel, frame) exactly once
        assert_exact_cover(&log, width, height, frames);

        // 2. per (worker, region): frames consecutive unless restart
        let mut last: HashMap<(usize, PixelRegion), u32> = HashMap::new();
        for (w, u) in &log {
            if !u.restart {
                let prev = last.get(&(*w, u.region));
                assert_eq!(
                    prev.copied(),
                    Some(u.frame - 1),
                    "worker {} region {:?} frame {} continues from {:?}",
                    w,
                    u.region,
                    u.frame,
                    prev
                );
            }
            last.insert((*w, u.region), u.frame);
        }

        // 3. nothing remains
        assert_eq!(sched.remaining_units(), 0);
        for w in 0..workers {
            assert!(sched.next_unit(w).is_none());
        }
    });
}

#[test]
fn first_unit_of_every_chain_restarts() {
    cases(64, |rng| {
        let scheme = random_scheme(rng);
        let frames = rng.u32_in(1, 20);
        let workers = rng.usize_in(1, 5);
        let seed = rng.u64();
        let mut sched = Scheduler::new(scheme, 32, 32, frames, workers);
        let log = drain(&mut sched, workers, seed);
        // For each worker, the first unit it receives for a region after
        // a gap (or ever) must have restart set.
        let mut last: HashMap<(usize, PixelRegion), u32> = HashMap::new();
        for (w, u) in &log {
            let continues = last
                .get(&(*w, u.region))
                .is_some_and(|&prev| prev + 1 == u.frame);
            if !continues {
                assert!(u.restart, "chain break without restart: worker {w} {u:?}");
            }
            last.insert((*w, u.region), u.frame);
        }
    });
}

/// Losing workers mid-run and releasing their queues must keep the cover
/// exact: survivors pick up the released frames, always with a restart.
#[test]
fn released_queues_keep_cover_exact() {
    cases(64, |rng| {
        let scheme = random_scheme(rng);
        let width = rng.u32_in(8, 48);
        let height = rng.u32_in(8, 48);
        let frames = rng.u32_in(2, 24);
        let workers = rng.usize_in(2, 6);
        let mut sched = Scheduler::new(scheme, width, height, frames, workers);

        let mut log: Vec<(usize, RenderUnit)> = Vec::new();
        let mut alive: Vec<usize> = (0..workers).collect();
        // lose up to all-but-one workers at random points in the drain
        let mut deaths = rng.usize_in(1, workers);
        while !alive.is_empty() {
            let pick = rng.usize_in(0, alive.len());
            let w = alive[pick];
            if deaths > 0 && alive.len() > 1 && rng.usize_in(0, 8) == 0 {
                // worker dies: its queues are released to the pool
                sched.release_worker(w);
                alive.swap_remove(pick);
                deaths -= 1;
                continue;
            }
            match sched.next_unit(w) {
                Some(u) => log.push((w, u)),
                None => {
                    alive.swap_remove(pick);
                }
            }
        }

        assert_exact_cover(&log, width, height, frames);
        assert_eq!(sched.remaining_units(), 0);
        // a survivor that picks up a released queue must restart, since it
        // never rendered the preceding frames of that region
        let mut last: HashMap<(usize, PixelRegion), u32> = HashMap::new();
        for (w, u) in &log {
            let continues = last
                .get(&(*w, u.region))
                .is_some_and(|&prev| prev + 1 == u.frame);
            if !continues {
                assert!(u.restart, "chain break without restart: worker {w} {u:?}");
            }
            last.insert((*w, u.region), u.frame);
        }
    });
}

/// A one-worker sequence division is one chunk that nobody owns yet: the
/// first label that asks claims the whole run with a restart, whatever
/// its number, and a label that asks later finds nothing it may take
/// (two frames are below the steal floor).
#[test]
fn a_lone_chunk_goes_to_whoever_asks_first() {
    for first in [0, 1, 7] {
        for adaptive in [false, true] {
            let scheme = PartitionScheme::SequenceDivision { adaptive };
            let mut sched = Scheduler::new(scheme, 16, 8, 2, 1);
            let u = sched.next_unit(first).expect("the first asker gets work");
            assert_eq!((u.frame, u.restart), (0, true), "label {first}");
            let other = if first == 0 { 1 } else { 0 };
            assert_eq!(sched.next_unit(other), None, "label {first} owns the run");
            let u = sched.next_unit(first).expect("second frame");
            assert_eq!((u.frame, u.restart), (1, false), "label {first}");
            assert_eq!(sched.remaining_units(), 0);
        }
    }
    // one frame over several workers is a lone chunk too
    let scheme = PartitionScheme::SequenceDivision { adaptive: true };
    let mut sched = Scheduler::new(scheme, 16, 8, 1, 3);
    let u = sched.next_unit(2).expect("worker 2 asks first");
    assert_eq!((u.frame, u.restart), (0, true));
}

/// With several workers, chunk i stays pre-owned by worker i (the
/// paper's static split, which `table1` and `timeline` reproduce): even
/// when the workers ask in reverse order, each one's first unit is the
/// first frame of its own chunk.
#[test]
fn several_workers_keep_chunk_i_on_worker_i() {
    for workers in 2..=5usize {
        for frames in [workers as u32, 17, 45] {
            for adaptive in [false, true] {
                let scheme = PartitionScheme::SequenceDivision { adaptive };
                let mut sched = Scheduler::new(scheme, 16, 8, frames, workers);
                let w = workers as u32;
                let starts: Vec<u32> = (0..w)
                    .map(|i| i * (frames / w) + i.min(frames % w))
                    .collect();
                for i in (0..workers).rev() {
                    let u = sched.next_unit(i).expect("every worker has a chunk");
                    assert_eq!(
                        (u.frame, u.restart),
                        (starts[i], true),
                        "{workers} workers, {frames} frames, worker {i}"
                    );
                }
            }
        }
    }
}
