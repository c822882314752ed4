//! Data partitioning schemes (paper Section 3) and the demand-driven
//! scheduler with adaptive subdivision.
//!
//! The schemes:
//!
//! * **Sequence division** — "dividing up whole frames among the available
//!   \[processors\] so that each receives a subsequence of the full
//!   animation ... the frames must be consecutive to take advantage of any
//!   frame coherence between them." Load imbalance is handled by adaptive
//!   subdivision: an idle processor steals the tail half of the largest
//!   remaining subsequence — paying a fresh (coherence-free) first frame
//!   for the stolen piece, which is the scheme's inherent cost.
//! * **Frame division** — "each frame is divided into subareas, each of
//!   which is computed by a separate processor for the entire animation
//!   sequence." With more subareas than processors (the paper's 80x80
//!   blocks of a 320x240 frame make 12), scheduling is demand-driven.
//! * **Hybrid** — "each processor computes pixels in a subarea of a frame
//!   for a subsequence of the entire animation."
//!
//! The scheduler models work as a set of *task queues*: each queue is one
//! region with a run of consecutive frames. A worker owns at most one
//! queue at a time; frames pop in order (preserving coherence); a freshly
//! claimed or stolen queue starts with `restart = true`, telling the
//! worker to reset its coherence state.

use now_cluster::codec::{DecodeError, Decoder, Encoder};
use now_cluster::Wire;
use now_coherence::PixelRegion;

/// A work unit: render one frame of one region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RenderUnit {
    /// The pixel region to render.
    pub region: PixelRegion,
    /// The frame index.
    pub frame: u32,
    /// If true, the worker must discard coherence state before this unit
    /// (start of a subsequence: full render).
    pub restart: bool,
}

impl Wire for RenderUnit {
    fn wire_encode(&self, e: &mut Encoder) {
        e.u32(self.region.x0)
            .u32(self.region.y0)
            .u32(self.region.w)
            .u32(self.region.h)
            .u32(self.frame)
            .u8(self.restart as u8);
    }

    fn wire_decode(d: &mut Decoder<'_>) -> Result<RenderUnit, DecodeError> {
        let region = PixelRegion {
            x0: d.u32()?,
            y0: d.u32()?,
            w: d.u32()?,
            h: d.u32()?,
        };
        let frame = d.u32()?;
        let restart = d.u8()? != 0;
        Ok(RenderUnit {
            region,
            frame,
            restart,
        })
    }
}

/// A data-partitioning scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionScheme {
    /// Contiguous frame subsequences per worker (whole frames).
    SequenceDivision {
        /// Steal the tail half of the largest remaining subsequence when a
        /// worker goes idle.
        adaptive: bool,
    },
    /// Fixed sub-areas of at most `tile_w x tile_h`, each rendered across
    /// all frames, demand-driven.
    FrameDivision {
        /// Tile width (the paper uses 80).
        tile_w: u32,
        /// Tile height (the paper uses 80).
        tile_h: u32,
        /// Also adaptively subdivide in time when tiles run out.
        adaptive: bool,
    },
    /// Sub-areas x subsequences.
    Hybrid {
        /// Tile width.
        tile_w: u32,
        /// Tile height.
        tile_h: u32,
        /// Length of each subsequence in frames.
        subseq: u32,
    },
}

impl PartitionScheme {
    /// The paper's frame-division configuration: 80x80 sub-areas.
    pub fn paper_frame_division() -> PartitionScheme {
        PartitionScheme::FrameDivision {
            tile_w: 80,
            tile_h: 80,
            adaptive: true,
        }
    }
}

/// One region's run of consecutive frames.
#[derive(Debug, Clone)]
struct TaskQueue {
    region: PixelRegion,
    /// Next frame to hand out.
    next: u32,
    /// One past the last frame of this queue.
    end: u32,
    /// Current owner, if a worker is rendering this queue.
    owner: Option<usize>,
    /// The next assignment from this queue must restart coherence.
    fresh: bool,
}

impl TaskQueue {
    fn remaining(&self) -> u32 {
        self.end - self.next
    }
}

/// Demand-driven scheduler over task queues.
#[derive(Debug, Clone)]
pub struct Scheduler {
    queues: Vec<TaskQueue>,
    adaptive: bool,
    /// Minimum remaining frames for a queue to be stealable.
    min_steal: u32,
    regions_per_frame: usize,
}

impl Scheduler {
    /// Build the scheduler for a scheme, image size, frame count and
    /// worker count.
    pub fn new(
        scheme: PartitionScheme,
        width: u32,
        height: u32,
        frames: u32,
        workers: usize,
    ) -> Scheduler {
        assert!(frames > 0 && workers > 0);
        let full = PixelRegion::full(width, height);
        match scheme {
            PartitionScheme::SequenceDivision { adaptive } => {
                // contiguous chunks, one per worker, pre-owned
                let w = workers as u32;
                let base = frames / w;
                let extra = frames % w;
                let mut queues = Vec::new();
                let mut start = 0u32;
                for i in 0..w.min(frames) {
                    let len = base + u32::from(i < extra);
                    if len == 0 {
                        continue;
                    }
                    queues.push(TaskQueue {
                        region: full,
                        next: start,
                        end: start + len,
                        owner: Some(i as usize),
                        fresh: true,
                    });
                    start += len;
                }
                Scheduler {
                    queues,
                    adaptive,
                    min_steal: 4,
                    regions_per_frame: 1,
                }
            }
            PartitionScheme::FrameDivision {
                tile_w,
                tile_h,
                adaptive,
            } => {
                let tiles = PixelRegion::tiles(width, height, tile_w, tile_h);
                let regions_per_frame = tiles.len();
                let queues = tiles
                    .into_iter()
                    .map(|region| TaskQueue {
                        region,
                        next: 0,
                        end: frames,
                        owner: None,
                        fresh: true,
                    })
                    .collect();
                Scheduler {
                    queues,
                    adaptive,
                    min_steal: 4,
                    regions_per_frame,
                }
            }
            PartitionScheme::Hybrid {
                tile_w,
                tile_h,
                subseq,
            } => {
                assert!(subseq > 0);
                let tiles = PixelRegion::tiles(width, height, tile_w, tile_h);
                let regions_per_frame = tiles.len();
                let mut queues = Vec::new();
                for region in tiles {
                    let mut start = 0;
                    while start < frames {
                        let end = (start + subseq).min(frames);
                        queues.push(TaskQueue {
                            region,
                            next: start,
                            end,
                            owner: None,
                            fresh: true,
                        });
                        start = end;
                    }
                }
                Scheduler {
                    queues,
                    adaptive: false,
                    min_steal: u32::MAX,
                    regions_per_frame,
                }
            }
        }
    }

    /// Number of region updates each frame needs before it is complete.
    pub fn regions_per_frame(&self) -> usize {
        self.regions_per_frame
    }

    /// Release every queue owned by `worker` (it was excluded as lost):
    /// the queues become claimable by survivors, who must rebuild
    /// coherence state from scratch (`fresh`) since they never rendered
    /// the preceding frames.
    pub fn release_worker(&mut self, worker: usize) {
        for q in self.queues.iter_mut() {
            if q.owner == Some(worker) {
                q.owner = None;
                q.fresh = true;
            }
        }
    }

    /// Total units remaining.
    pub fn remaining_units(&self) -> u64 {
        self.queues.iter().map(|q| q.remaining() as u64).sum()
    }

    /// Next unit for an idle worker, or `None` if the job is done for it.
    pub fn next_unit(&mut self, worker: usize) -> Option<RenderUnit> {
        // 1. continue the queue this worker owns
        if let Some(q) = self
            .queues
            .iter_mut()
            .find(|q| q.owner == Some(worker) && q.remaining() > 0)
        {
            let unit = RenderUnit {
                region: q.region,
                frame: q.next,
                restart: q.fresh,
            };
            q.fresh = false;
            q.next += 1;
            return Some(unit);
        }
        // release exhausted ownership
        for q in self.queues.iter_mut() {
            if q.owner == Some(worker) {
                q.owner = None;
            }
        }
        // 2. claim an unowned queue with work
        if let Some(q) = self
            .queues
            .iter_mut()
            .filter(|q| q.owner.is_none() && q.remaining() > 0)
            .max_by_key(|q| q.remaining())
        {
            q.owner = Some(worker);
            let unit = RenderUnit {
                region: q.region,
                frame: q.next,
                restart: true,
            };
            q.fresh = false;
            q.next += 1;
            return Some(unit);
        }
        // 3. adaptive subdivision: steal the tail half of the largest
        //    remaining owned queue
        if self.adaptive {
            if let Some(victim) = self
                .queues
                .iter_mut()
                .filter(|q| q.owner.is_some() && q.remaining() >= self.min_steal)
                .max_by_key(|q| q.remaining())
            {
                let keep = victim.remaining() / 2 + victim.remaining() % 2;
                let steal_start = victim.next + keep;
                let steal_end = victim.end;
                victim.end = steal_start;
                let region = victim.region;
                self.queues.push(TaskQueue {
                    region,
                    next: steal_start + 1,
                    end: steal_end,
                    owner: Some(worker),
                    fresh: false,
                });
                return Some(RenderUnit {
                    region,
                    frame: steal_start,
                    restart: true,
                });
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// Drive the scheduler with a synthetic worker pool; worker `w`
    /// completes `speeds[w]` units per round.
    fn drain(sched: &mut Scheduler, speeds: &[u32]) -> Vec<Vec<RenderUnit>> {
        let mut out = vec![Vec::new(); speeds.len()];
        let mut done = vec![false; speeds.len()];
        while !done.iter().all(|&d| d) {
            for (w, &s) in speeds.iter().enumerate() {
                if done[w] {
                    continue;
                }
                for _ in 0..s {
                    match sched.next_unit(w) {
                        Some(u) => out[w].push(u),
                        None => {
                            done[w] = true;
                            break;
                        }
                    }
                }
            }
        }
        out
    }

    fn assert_exact_cover(units: &[RenderUnit], width: u32, frames: u32) {
        let mut seen: HashSet<(u32, u32)> = HashSet::new();
        for u in units {
            for p in u.region.pixel_ids(width) {
                assert!(
                    seen.insert((u.frame, p)),
                    "pixel {p} frame {} twice",
                    u.frame
                );
            }
        }
        let per_frame = seen.len() as u32 / frames;
        for f in 0..frames {
            let count = seen.iter().filter(|&&(fr, _)| fr == f).count() as u32;
            assert_eq!(count, per_frame, "frame {f} coverage");
        }
    }

    #[test]
    fn sequence_division_covers_each_frame_once() {
        let mut s = Scheduler::new(
            PartitionScheme::SequenceDivision { adaptive: true },
            16,
            8,
            45,
            3,
        );
        assert_eq!(s.regions_per_frame(), 1);
        assert_eq!(s.remaining_units(), 45);
        let per_worker = drain(&mut s, &[2, 1, 1]);
        let all: Vec<RenderUnit> = per_worker.concat();
        assert_eq!(all.len(), 45);
        assert_exact_cover(&all, 16, 45);
        // consecutive frames per worker between restarts
        for units in &per_worker {
            for w in units.windows(2) {
                if !w[1].restart {
                    assert_eq!(
                        w[1].frame,
                        w[0].frame + 1,
                        "non-consecutive without restart"
                    );
                }
            }
        }
    }

    #[test]
    fn sequence_division_adaptive_feeds_fast_workers() {
        let mut s = Scheduler::new(
            PartitionScheme::SequenceDivision { adaptive: true },
            16,
            8,
            60,
            3,
        );
        let per_worker = drain(&mut s, &[4, 1, 1]);
        // the fast worker must end up with more than its static third
        assert!(
            per_worker[0].len() > 20,
            "fast worker got {} units",
            per_worker[0].len()
        );
        // steals induce restarts beyond the initial one
        let restarts: usize = per_worker[0].iter().filter(|u| u.restart).count();
        assert!(restarts >= 2, "expected steal restarts, got {restarts}");
    }

    #[test]
    fn static_sequence_division_never_steals() {
        let mut s = Scheduler::new(
            PartitionScheme::SequenceDivision { adaptive: false },
            16,
            8,
            30,
            3,
        );
        let per_worker = drain(&mut s, &[5, 1, 1]);
        assert_eq!(per_worker[0].len(), 10);
        assert_eq!(per_worker[1].len(), 10);
        assert_eq!(per_worker[2].len(), 10);
        // exactly one restart each (their own chunk)
        for units in &per_worker {
            assert_eq!(units.iter().filter(|u| u.restart).count(), 1);
        }
    }

    #[test]
    fn frame_division_paper_layout() {
        // 320x240 in 80x80 tiles = 12 tiles x 45 frames
        let mut s = Scheduler::new(PartitionScheme::paper_frame_division(), 320, 240, 45, 3);
        assert_eq!(s.regions_per_frame(), 12);
        assert_eq!(s.remaining_units(), 12 * 45);
        let per_worker = drain(&mut s, &[2, 1, 1]);
        let all: Vec<RenderUnit> = per_worker.concat();
        assert_eq!(all.len(), 12 * 45);
        assert_exact_cover(&all, 320, 45);
    }

    #[test]
    fn frame_division_frames_in_order_per_tile() {
        let mut s = Scheduler::new(
            PartitionScheme::FrameDivision {
                tile_w: 8,
                tile_h: 8,
                adaptive: false,
            },
            16,
            8,
            10,
            2,
        );
        let per_worker = drain(&mut s, &[1, 1]);
        for units in &per_worker {
            let mut last: std::collections::HashMap<PixelRegion, u32> = Default::default();
            for u in units {
                if let Some(&prev) = last.get(&u.region) {
                    assert_eq!(u.frame, prev + 1, "tile frames out of order");
                }
                last.insert(u.region, u.frame);
            }
        }
    }

    #[test]
    fn hybrid_splits_time_and_space() {
        let mut s = Scheduler::new(
            PartitionScheme::Hybrid {
                tile_w: 8,
                tile_h: 8,
                subseq: 5,
            },
            16,
            16,
            10,
            2,
        );
        // 4 tiles x 2 subsequences = 8 queues
        assert_eq!(s.remaining_units(), 40);
        let per_worker = drain(&mut s, &[1, 1]);
        let all: Vec<RenderUnit> = per_worker.concat();
        assert_exact_cover(&all, 16, 10);
        // every subsequence start restarts coherence: 8 restarts
        assert_eq!(all.iter().filter(|u| u.restart).count(), 8);
    }

    #[test]
    fn single_worker_gets_everything() {
        let mut s = Scheduler::new(
            PartitionScheme::SequenceDivision { adaptive: true },
            8,
            8,
            12,
            1,
        );
        let per_worker = drain(&mut s, &[1]);
        assert_eq!(per_worker[0].len(), 12);
        // one restart, frames strictly consecutive
        assert_eq!(per_worker[0].iter().filter(|u| u.restart).count(), 1);
        for (i, u) in per_worker[0].iter().enumerate() {
            assert_eq!(u.frame, i as u32);
        }
    }

    #[test]
    fn more_workers_than_frames() {
        let mut s = Scheduler::new(
            PartitionScheme::SequenceDivision { adaptive: true },
            8,
            8,
            2,
            5,
        );
        let per_worker = drain(&mut s, &[1, 1, 1, 1, 1]);
        let total: usize = per_worker.iter().map(Vec::len).sum();
        assert_eq!(total, 2);
    }
}
