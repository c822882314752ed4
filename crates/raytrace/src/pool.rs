//! Intra-worker tile pool: std-only work-stealing parallelism.
//!
//! The paper parallelises only *across* workstations; each worker shades
//! its pixels serially. This module adds the second level modern
//! distributed tracers use: a frame (or any pixel set) is cut into small
//! tiles that threads claim dynamically — a shared injector seeds the
//! work, each thread keeps a LIFO deque of claimed tiles, and starved
//! threads steal from victims visited in pseudo-random order.
//!
//! Two invariants survive the parallelism:
//!
//! 1. **Byte-identical framebuffers.** Pixel colors are pure functions of
//!    `(scene, pixel)` and tiles cover disjoint pixel ranges, so any
//!    schedule produces the same bytes. Colors are written back on the
//!    caller's thread, in tile order, after the join.
//! 2. **Identical listener state.** Each tile records rays into its own
//!    [`ShardableListener::Shard`]; shards are absorbed in ascending tile
//!    order after the join. Tiles are consecutive chunks of the caller's
//!    id order, so the absorb sequence replays the exact ray order of a
//!    1-thread render — order-sensitive listeners (the coherence engine's
//!    path log) end in identical state.
//!
//! Virtual cost accounting ([`ParallelStats`]) charges the *critical
//! path*, not summed thread time, and computes it by deterministic greedy
//! list-scheduling of per-tile ray counts — independent of which real
//! thread happened to run which tile, so simulator timelines stay
//! reproducible.

use crate::accel::GridAccel;
use crate::framebuffer::{Framebuffer, PixelId};
use crate::listener::{RayListener, ShardableListener};
use crate::render::{shade_ids, RenderSettings, ShadeScratch};
use crate::scene::Scene;
use crate::stats::RayStats;
use now_math::Color;
use std::collections::VecDeque;
use std::sync::Mutex;

/// Minimum pixels before spawning threads is worth the fixed cost.
const MIN_PAR_PIXELS: usize = 256;
/// Tiles created per thread (more = better balance, more overhead). 8 per
/// thread keeps the greedy critical path within a few percent of ideal
/// even when ray cost varies 10x across the frame; tiles are cheap now
/// that each one reuses a per-thread [`ShadeScratch`].
const TILES_PER_THREAD: usize = 8;
/// Tile size clamp.
const MIN_TILE: usize = 64;
const MAX_TILE: usize = 4096;
/// Tiles moved from the injector to a thread's local deque per claim.
const INJECTOR_BATCH: usize = 2;
/// Trace track of pool worker `i` is `POOL_TRACK_BASE + i` (track 0 is the
/// caller's thread).
const POOL_TRACK_BASE: u32 = 100;

/// How a pixel set was executed by the pool, and what it cost.
///
/// `critical_rays` is a deterministic proxy for the longest thread's work:
/// per-tile ray counts greedily list-scheduled onto `threads` virtual
/// lanes. The cost model divides ray/pixel work by
/// [`speedup`](ParallelStats::speedup) to charge virtual time for the
/// critical path only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelStats {
    /// Threads the work was scheduled onto.
    pub threads: u32,
    /// Tiles the pixel set was cut into.
    pub tiles: u32,
    /// Rays fired over all tiles.
    pub total_rays: u64,
    /// Rays on the most-loaded virtual lane (= total_rays when serial).
    pub critical_rays: u64,
}

impl Default for ParallelStats {
    fn default() -> ParallelStats {
        ParallelStats::serial(0)
    }
}

impl ParallelStats {
    /// Stats for a serial execution of `rays` rays.
    pub fn serial(rays: u64) -> ParallelStats {
        ParallelStats {
            threads: 1,
            tiles: 1,
            total_rays: rays,
            critical_rays: rays,
        }
    }

    /// Achieved speedup over a serial run: `total / critical` (1.0 when
    /// serial or empty).
    pub fn speedup(&self) -> f64 {
        if self.critical_rays == 0 {
            1.0
        } else {
            self.total_rays as f64 / self.critical_rays as f64
        }
    }

    /// Parallel efficiency: speedup / threads.
    pub fn efficiency(&self) -> f64 {
        if self.threads == 0 {
            1.0
        } else {
            self.speedup() / self.threads as f64
        }
    }

    /// Accumulate another execution (e.g. the next frame): ray totals add,
    /// thread count takes the maximum.
    pub fn merge(&mut self, other: &ParallelStats) {
        self.threads = self.threads.max(other.threads);
        self.tiles += other.tiles;
        self.total_rays += other.total_rays;
        self.critical_rays += other.critical_rays;
    }
}

/// Resolve a `RenderSettings::threads` value to a concrete thread count:
/// explicit `n >= 1` wins; `0` means auto — `NOW_THREADS` if set and
/// positive, else [`std::thread::available_parallelism`].
pub fn resolve_thread_count(setting: u32) -> u32 {
    if setting >= 1 {
        return setting;
    }
    if let Ok(v) = std::env::var("NOW_THREADS") {
        if let Ok(n) = v.trim().parse::<u32>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get() as u32)
        .unwrap_or(1)
}

/// Deterministic critical path: greedily assign per-tile ray counts, in
/// tile order, to the least-loaded of `threads` virtual lanes; return the
/// final maximum load. Greedy list scheduling is a 2-approximation of the
/// optimum and — unlike measuring the real threads — does not depend on
/// the OS schedule, so virtual timelines stay reproducible.
fn critical_path(tile_rays: &[u64], threads: u32) -> u64 {
    let lanes = threads.max(1) as usize;
    let mut load = vec![0u64; lanes];
    for &r in tile_rays {
        let min = load
            .iter()
            .enumerate()
            .min_by_key(|(_, &l)| l)
            .map(|(i, _)| i)
            .expect("lanes is non-empty");
        load[min] += r;
    }
    load.into_iter().max().unwrap_or(0)
}

/// Pixels per tile for a pool run over `pixels` ids on `threads` threads.
///
/// `tile_hint` (from [`RenderSettings::tile_hint`] / `nowfarm --tile WxH`)
/// overrides the derived size; either way the result is clamped and
/// rounded up to a multiple of 8 (the simulator's virtual timelines are
/// pinned to the tile plans this yields).
fn plan_tile_size(pixels: usize, threads: u32, tile_hint: u32) -> usize {
    let threads = threads.max(1) as usize;
    let base = if tile_hint > 0 {
        tile_hint as usize
    } else {
        pixels.div_ceil(threads * TILES_PER_THREAD)
    };
    let clamped = base.clamp(MIN_TILE, MAX_TILE);
    clamped.div_ceil(8) * 8
}

/// A claimed unit of work: one tile's ids plus its private shard.
struct Tile<'a, S> {
    idx: usize,
    ids: &'a [PixelId],
    shard: S,
}

/// A finished tile, returned to the caller thread.
struct TileDone<S> {
    idx: usize,
    colors: Vec<Color>,
    shard: S,
    stats: RayStats,
}

/// Cheap xorshift for the steal-victim order; seeded per thread.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Render `ids` into `fb` on `threads` threads, observing rays through
/// per-tile shards of `listener`.
///
/// The caller has already validated `fb` against the scene camera. Falls
/// back to a plain sequential loop when one thread suffices.
#[allow(clippy::too_many_arguments)] // flat kernel signature, like shade_pixel_with
pub fn render_tiles<S: ShardableListener>(
    scene: &Scene,
    accel: &GridAccel,
    settings: &RenderSettings,
    fb: &mut Framebuffer,
    ids: &[PixelId],
    listener: &mut S,
    stats: &mut RayStats,
    threads: u32,
) -> ParallelStats {
    const {
        assert!(
            S::PATHS == <S::Shard as RayListener>::PATHS,
            "a shard must take ray paths exactly when its parent does"
        )
    };
    let threads = threads.max(1) as usize;
    let tracing = settings.trace && now_trace::enabled();
    if threads == 1 || ids.len() < MIN_PAR_PIXELS {
        let before = stats.total_rays();
        let mut scratch = ShadeScratch::new(settings);
        let width = fb.width();
        shade_ids(
            scene,
            accel,
            settings,
            width,
            ids,
            listener,
            stats,
            &mut scratch,
            |id, c| fb.set_id(id, c),
        );
        return ParallelStats::serial(stats.total_rays() - before);
    }

    let tile_size = plan_tile_size(ids.len(), threads as u32, settings.tile_hint);
    let width = fb.width();

    // All tiles start in the injector; shards are created up front so they
    // travel inside the tiles (the parent listener never crosses threads).
    let injector: Mutex<VecDeque<Tile<'_, S::Shard>>> = Mutex::new(
        ids.chunks(tile_size)
            .enumerate()
            .map(|(idx, ids)| Tile {
                idx,
                ids,
                shard: listener.make_shard(),
            })
            .collect(),
    );
    let locals: Vec<Mutex<VecDeque<Tile<'_, S::Shard>>>> =
        (0..threads).map(|_| Mutex::new(VecDeque::new())).collect();

    let mut done: Vec<TileDone<S::Shard>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|me| {
                let injector = &injector;
                let locals = &locals;
                scope.spawn(move || {
                    let mut out: Vec<TileDone<S::Shard>> = Vec::new();
                    let mut rng = 0x9E37_79B9_7F4A_7C15u64 ^ ((me as u64 + 1) << 17);
                    let mut scratch = ShadeScratch::new(settings);
                    loop {
                        // Each acquisition step is its own statement so the
                        // MutexGuard temporaries drop between steps — chaining
                        // them with `or_else` would hold our own deque's lock
                        // across the injector/steal locks and deadlock.
                        // 1. newest tile from our own deque (LIFO: warm data)
                        let mut tile = locals[me].lock().expect("pool lock").pop_back();
                        // 2. a batch from the injector (run one, bank the rest)
                        if tile.is_none() {
                            let mut banked = Vec::new();
                            {
                                let mut inj = injector.lock().expect("pool lock");
                                tile = inj.pop_front();
                                if tile.is_some() {
                                    for _ in 1..INJECTOR_BATCH {
                                        match inj.pop_front() {
                                            Some(t) => banked.push(t),
                                            None => break,
                                        }
                                    }
                                }
                            }
                            if !banked.is_empty() {
                                locals[me].lock().expect("pool lock").extend(banked);
                            }
                        }
                        // 3. steal the oldest tile of a random victim
                        if tile.is_none() {
                            let start = (xorshift(&mut rng) as usize) % threads;
                            for v in (0..threads).map(|k| (start + k) % threads) {
                                if v == me {
                                    continue;
                                }
                                tile = locals[v].lock().expect("pool lock").pop_front();
                                if let Some(t) = &tile {
                                    if tracing {
                                        // which thread stole which tile is OS
                                        // schedule — never in the golden stream
                                        let rec = now_trace::global();
                                        rec.instant(
                                            POOL_TRACK_BASE + me as u32,
                                            "pool.steal",
                                            &[("victim", v as u64), ("tile", t.idx as u64)],
                                            false,
                                        );
                                        rec.counter_add_nd("pool.steals", 1);
                                    }
                                    break;
                                }
                            }
                        }
                        let Some(mut tile) = tile else {
                            // No queue had work. Tiles are never re-queued,
                            // so nothing to wait for: exit.
                            break;
                        };
                        let mut tile_span = tracing.then(|| {
                            now_trace::global().span(POOL_TRACK_BASE + me as u32, "pool.tile")
                        });
                        let mut tstats = RayStats::default();
                        let mut colors = Vec::with_capacity(tile.ids.len());
                        shade_ids(
                            scene,
                            accel,
                            settings,
                            width,
                            tile.ids,
                            &mut tile.shard,
                            &mut tstats,
                            &mut scratch,
                            |_, c| colors.push(c),
                        );
                        if let Some(s) = tile_span.as_mut() {
                            s.arg("tile", tile.idx as u64);
                            s.arg("pixels", tile.ids.len() as u64);
                            s.arg("rays", tstats.total_rays());
                        }
                        drop(tile_span);
                        out.push(TileDone {
                            idx: tile.idx,
                            colors,
                            shard: tile.shard,
                            stats: tstats,
                        });
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("pool worker panicked"))
            .collect()
    });

    // Canonical merge: ascending tile index == the sequential id order.
    done.sort_by_key(|t| t.idx);
    let mut tile_rays = Vec::with_capacity(done.len());
    for t in done {
        for (&id, c) in ids[t.idx * tile_size..].iter().zip(&t.colors) {
            fb.set_id(id, *c);
        }
        listener.absorb_shard(t.shard);
        tile_rays.push(t.stats.total_rays());
        stats.merge(&t.stats);
    }

    if tracing {
        // tile count depends on the thread count (tile size is derived from
        // it), so this stays out of the normalized stream
        now_trace::global().counter_add_nd("pool.tiles", tile_rays.len() as u64);
    }
    let total_rays: u64 = tile_rays.iter().sum();
    ParallelStats {
        threads: threads as u32,
        tiles: tile_rays.len() as u32,
        total_rays,
        critical_rays: critical_path(&tile_rays, threads as u32),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_stats_are_neutral() {
        let s = ParallelStats::serial(100);
        assert_eq!(s.speedup(), 1.0);
        assert_eq!(s.efficiency(), 1.0);
        assert_eq!(ParallelStats::default().speedup(), 1.0);
    }

    #[test]
    fn merge_accumulates_frames() {
        let mut a = ParallelStats {
            threads: 4,
            tiles: 8,
            total_rays: 800,
            critical_rays: 250,
        };
        a.merge(&ParallelStats::serial(100));
        assert_eq!(a.threads, 4);
        assert_eq!(a.tiles, 9);
        assert_eq!(a.total_rays, 900);
        assert_eq!(a.critical_rays, 350);
    }

    #[test]
    fn critical_path_balances_greedily() {
        // 4 equal tiles on 2 lanes: perfect split
        assert_eq!(critical_path(&[10, 10, 10, 10], 2), 20);
        // one lane, everything serial
        assert_eq!(critical_path(&[10, 10, 10], 1), 30);
        // a dominant tile bounds the makespan
        assert_eq!(critical_path(&[100, 1, 1, 1], 4), 100);
        assert_eq!(critical_path(&[], 4), 0);
    }

    #[test]
    fn critical_path_is_deterministic() {
        let tiles: Vec<u64> = (0..50).map(|i| (i * 37 + 11) % 97).collect();
        assert_eq!(critical_path(&tiles, 7), critical_path(&tiles, 7));
        // more lanes can only help
        assert!(critical_path(&tiles, 8) <= critical_path(&tiles, 4));
        assert!(critical_path(&tiles, 4) <= critical_path(&tiles, 1));
    }

    /// `pixels` equal-cost pixels cut as `render_tiles` cuts them and
    /// scheduled onto `threads` lanes.
    fn uniform_plan(pixels: usize, threads: u32, tile_hint: u32) -> ParallelStats {
        let tile = plan_tile_size(pixels, threads, tile_hint);
        let tile_rays: Vec<u64> = (0..pixels)
            .step_by(tile)
            .map(|start| tile.min(pixels - start) as u64)
            .collect();
        ParallelStats {
            threads,
            tiles: tile_rays.len() as u32,
            total_rays: pixels as u64,
            critical_rays: critical_path(&tile_rays, threads),
        }
    }

    #[test]
    fn tile_hint_overrides_the_derived_plan() {
        // small enough that a 2-tile hint stays inside MIN_TILE..=MAX_TILE
        let pixels = 64 * 48;
        // auto planning at 4 threads: many equal tiles, near-perfect speedup
        let auto = uniform_plan(pixels, 4, 0);
        assert_eq!(auto.threads, 4);
        assert!(auto.speedup() > 3.5, "{}", auto.speedup());
        // a coarse hint (2 giant tiles) caps the speedup at ~2
        let coarse = uniform_plan(pixels, 4, (pixels / 2) as u32);
        assert_eq!(coarse.tiles, 2);
        assert!(coarse.tiles < auto.tiles);
        assert!(coarse.speedup() < 2.5, "{}", coarse.speedup());
        // a hint is clamped and rounded up to a multiple of 8 like a derived size
        assert_eq!(plan_tile_size(pixels, 4, 1), MIN_TILE);
        assert_eq!(plan_tile_size(pixels, 4, 1 << 20), MAX_TILE);
        assert_eq!(plan_tile_size(pixels, 4, 100), 104);
    }

    #[test]
    fn thread_count_resolution() {
        assert_eq!(resolve_thread_count(3), 3);
        assert_eq!(resolve_thread_count(1), 1);
        // 0 = auto: at least one thread, whatever the host
        assert!(resolve_thread_count(0) >= 1);
    }

    #[test]
    fn speedup_reflects_imbalance() {
        let s = ParallelStats {
            threads: 4,
            tiles: 4,
            total_rays: 400,
            critical_rays: 100,
        };
        assert_eq!(s.speedup(), 4.0);
        assert_eq!(s.efficiency(), 1.0);
        let skewed = ParallelStats {
            critical_rays: 200,
            ..s
        };
        assert_eq!(skewed.speedup(), 2.0);
        assert_eq!(skewed.efficiency(), 0.5);
    }
}
