//! The frame-coherence data structure: one append-only log of ray paths.
//!
//! The paper keeps, per voxel, the list of pixels whose rays crossed it,
//! and asks of each changed voxel "which pixels are on your list?". This
//! engine stores the same relation transposed — per recorded ray, the
//! voxels it crossed — and asks of each recorded ray "did you cross a
//! changed voxel?". The dirty set is the same set by construction (a pixel
//! is dirty iff one of its live rays has a changed voxel on its path);
//! what changes is the cost profile: recording a ray is one sequential
//! append instead of one scattered list push per voxel, and the per-frame
//! query is one linear scan of the log instead of a few list reads.
//!
//! Record grammar (stream state starts at `(pixel, gen) = (0, 0)`; all
//! integers LEB128 varints, see [`crate::varint`]):
//!
//! ```text
//! record = head [gen] start steps codes
//! head   = varint( zigzag(pixel - prev_pixel) << 1 | (gen != prev_gen) )
//! gen    = varint(gen)                  -- only when the flag bit is set
//! start  = varint(linear index of the first voxel crossed)
//! steps  = varint(number of step codes) -- voxels crossed, less one
//! codes  = ceil(steps / 2) bytes: two 3-bit step codes per byte, low
//!          nibble first (`now_grid::dda::IndexWalk`: +x -x +y -y +z -z);
//!          an odd count pads the last byte with 6, the code of no move
//! ```
//!
//! `start`, `steps` and `codes` are a [`VoxelPath`] as the tracer hands it
//! over: the walk its accelerator took to find the ray's hit is the walk
//! that is logged, so recording a ray costs an append, not a second
//! traversal.
//!
//! Consecutive rays of one pixel (its shadow feelers, its reflections)
//! cost a 1-byte `head`; a typical 25-voxel path is 16 bytes, ~0.65 bytes
//! per mark.
//!
//! A record is *live* while its `gen` equals the pixel's current
//! generation. [`CoherenceEngine::invalidate_pixels`] bumps the generation
//! — every older record of the pixel is stale from then on, wherever it
//! sits in the log — and moves the pixel's bytes from the live to the
//! stale account, so [`CoherenceEngine::compact`] knows without looking
//! whether there is anything to drop.

use crate::varint::{read_varint, unzigzag, zigzag};
use now_grid::dda::{step_strides, VoxelPath};
use now_grid::{GridSpec, Voxel};
use now_math::Ray;
use now_raytrace::{PixelId, RayKind, RayListener, ShardableListener};

/// Bookkeeping statistics; Table 1's "overhead" column comes from the work
/// these counters represent, and the cluster cost model charges time
/// proportional to `marks`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoherenceStats {
    /// Voxel-mark operations performed (per ray per voxel crossed).
    pub marks: u64,
    /// Marks currently stored in the log, live and stale (one "entry" is
    /// one voxel of one recorded path).
    pub entries: u64,
    /// Marks dropped by compaction.
    pub purged: u64,
    /// Rays recorded.
    pub rays_recorded: u64,
    /// High-water mark of `entries`.
    pub peak_entries: u64,
    /// Log bytes currently stored, live and stale (the working-set cost
    /// the cost model charges; well under one byte per entry).
    pub list_bytes: u64,
    /// Compaction passes that had something to drop.
    pub compactions: u64,
}

/// The frame-coherence data structure: every recorded ray's path through
/// a uniform grid, tagged with the pixel that fired it.
///
/// Implements [`RayListener`]: install it as the tracer's listener while
/// rendering — over an accelerator built on this engine's grid
/// (`GridAccel::build_with_spec`) — and the voxel path of every ray's walk
/// is appended to the log under the pixel being shaded.
///
/// Equality compares the complete engine state — log bytes (including
/// stale records), generation counters, live/stale byte accounts and
/// statistics — so tests can assert that two render paths (e.g. 1-thread
/// and N-thread) left the engine in exactly the same state.
#[derive(Debug, Clone)]
pub struct CoherenceEngine {
    spec: GridSpec,
    log: Vec<u8>,
    /// `(pixel, gen)` of the last record: what the next `head` is relative
    /// to.
    tail: (PixelId, u32),
    /// Current generation per pixel; records of older generations are
    /// stale.
    gen: Vec<u32>,
    /// Per pixel, the log bytes held by its current-generation records.
    live: Vec<u32>,
    /// Log bytes held by stale records; `log.len() - stale_bytes` is the
    /// sum of `live`.
    stale_bytes: usize,
    stats: CoherenceStats,
    // Scratch below: not observable state, excluded from `PartialEq`.
    /// Changed-voxel bitmap of a `dirty_pixels` call; all zero between
    /// calls.
    changed: Vec<u64>,
    /// Pixels already reported by a `dirty_pixels` call; all zero between
    /// calls.
    seen: Vec<u64>,
}

impl PartialEq for CoherenceEngine {
    fn eq(&self, other: &CoherenceEngine) -> bool {
        self.spec == other.spec
            && self.log == other.log
            && self.tail == other.tail
            && self.gen == other.gen
            && self.live == other.live
            && self.stale_bytes == other.stale_bytes
            && self.stats == other.stats
    }
}

/// Longest `head [gen] start steps` prefix: 5 + 5 + 7 + 3 bytes for `u32`
/// pixels and generations and `u16` resolutions per axis.
const MAX_PREFIX: usize = 24;

/// Write `v` as LEB128 at `buf[at..]`; returns the position after it.
#[inline]
fn put_varint(buf: &mut [u8; MAX_PREFIX], mut at: usize, mut v: u64) -> usize {
    while v >= 0x80 {
        buf[at] = v as u8 | 0x80;
        v >>= 7;
        at += 1;
    }
    buf[at] = v as u8;
    at + 1
}

/// Write `head [gen]` of a `(pixel, gen)` record that follows `tail`.
#[inline]
fn put_head(buf: &mut [u8; MAX_PREFIX], tail: (PixelId, u32), pixel: PixelId, gen: u32) -> usize {
    let delta = pixel as i64 - tail.0 as i64;
    let flag = (gen != tail.1) as u64;
    let at = put_varint(buf, 0, (zigzag(delta) << 1) | flag);
    if flag != 0 {
        put_varint(buf, at, gen as u64)
    } else {
        at
    }
}

/// One decoded record: whose it is and where its parts sit in the log
/// (it ends where the cursor that read it now stands).
struct Record {
    pixel: PixelId,
    gen: u32,
    /// Offset of `head`.
    at: usize,
    /// Offset of `start`: from here on a record does not depend on its
    /// predecessor, so compaction moves it verbatim.
    path: usize,
    start: usize,
    steps: usize,
    /// Offset of `codes`.
    codes: usize,
}

/// Sequential log decoder: the stream state of the record grammar.
#[derive(Default)]
struct Cursor {
    pos: usize,
    pixel: PixelId,
    gen: u32,
}

impl Cursor {
    /// Decode the record at `pos` and move past it (its codes are skipped
    /// by length, not read).
    #[inline]
    fn read(&mut self, log: &[u8]) -> Record {
        let at = self.pos;
        let mut pos = at;
        let head = read_varint(log, &mut pos);
        self.pixel = (self.pixel as i64 + unzigzag(head >> 1)) as PixelId;
        if head & 1 != 0 {
            self.gen = read_varint(log, &mut pos) as u32;
        }
        let path = pos;
        let start = read_varint(log, &mut pos) as usize;
        let steps = read_varint(log, &mut pos) as usize;
        self.pos = pos + steps.div_ceil(2);
        Record {
            pixel: self.pixel,
            gen: self.gen,
            at,
            path,
            start,
            steps,
            codes: pos,
        }
    }
}

/// Whether the path `start, codes` touches a voxel set in `changed`.
#[inline]
fn path_hits(start: usize, codes: &[u8], strides: &[isize; 8], changed: &[u64]) -> bool {
    let hit = |at: usize| changed[at >> 6] >> (at & 63) & 1 != 0;
    let mut at = start;
    if hit(at) {
        return true;
    }
    for &pair in codes {
        at = at.wrapping_add_signed(strides[(pair & 7) as usize]);
        if hit(at) {
            return true;
        }
        at = at.wrapping_add_signed(strides[(pair >> 4 & 7) as usize]);
        if hit(at) {
            return true;
        }
    }
    false
}

impl CoherenceEngine {
    /// Create an engine for a `pixel_count`-pixel image over the given grid.
    pub fn new(spec: GridSpec, pixel_count: usize) -> CoherenceEngine {
        CoherenceEngine {
            spec,
            log: Vec::new(),
            tail: (0, 0),
            gen: vec![0; pixel_count],
            live: vec![0; pixel_count],
            stale_bytes: 0,
            stats: CoherenceStats::default(),
            changed: vec![0; spec.voxel_count().div_ceil(64)],
            seen: vec![0; pixel_count.div_ceil(64)],
        }
    }

    /// Current statistics.
    #[inline]
    pub fn stats(&self) -> CoherenceStats {
        self.stats
    }

    /// Bytes held by the engine (the paper's observation that "memory
    /// requirements are directly proportional to the size of the image
    /// area" is measured through this): the log's capacity, not just its
    /// stored bytes, plus the per-pixel and per-voxel side tables.
    pub fn memory_bytes(&self) -> usize {
        self.log.capacity()
            + (self.gen.len() + self.live.len()) * 4
            + (self.changed.len() + self.seen.len()) * 8
    }

    /// Log bytes held by stale records, of the `list_bytes` stored — what
    /// [`CoherenceEngine::compact`] would free.
    #[inline]
    pub fn stale_bytes(&self) -> usize {
        self.stale_bytes
    }

    /// The set of pixels (deduplicated, ascending) with a live recorded
    /// ray through any of the given changed voxels — i.e. the pixels that
    /// must be recomputed for the next frame.
    ///
    /// `changed` must be sorted and deduplicated (what
    /// [`crate::changed_voxels`] produces).
    ///
    /// One pass over the log: stale records and records of pixels already
    /// found dirty are skipped by their length, the rest are walked until
    /// their first changed voxel. Engine state is untouched (`&mut` is for
    /// the scratch bitmaps).
    pub fn dirty_pixels(&mut self, changed: &[Voxel]) -> Vec<PixelId> {
        debug_assert!(
            changed.windows(2).all(|w| w[0] < w[1]),
            "changed voxels must be sorted and deduplicated"
        );
        if changed.is_empty() {
            return Vec::new();
        }
        for &v in changed {
            let i = self.spec.linear_index(v);
            self.changed[i >> 6] |= 1 << (i & 63);
        }
        let strides = step_strides(&self.spec);
        let mut dirty: Vec<PixelId> = Vec::new();
        let mut cur = Cursor::default();
        while cur.pos < self.log.len() {
            let rec = cur.read(&self.log);
            let p = rec.pixel as usize;
            if rec.gen != self.gen[p] || self.seen[p >> 6] >> (p & 63) & 1 != 0 {
                continue;
            }
            let codes = &self.log[rec.codes..cur.pos];
            if path_hits(rec.start, codes, &strides, &self.changed) {
                self.seen[p >> 6] |= 1 << (p & 63);
                dirty.push(rec.pixel);
            }
        }
        for &v in changed {
            self.changed[self.spec.linear_index(v) >> 6] = 0;
        }
        for &p in &dirty {
            self.seen[p as usize >> 6] = 0;
        }
        dirty.sort_unstable();
        dirty
    }

    /// Invalidate the recorded rays of the given pixels (called right
    /// before re-rendering them, so their new rays are recorded under a
    /// fresh generation and the old records become stale).
    pub fn invalidate_pixels(&mut self, pixels: &[PixelId]) {
        for &p in pixels {
            let p = p as usize;
            self.gen[p] = self.gen[p].wrapping_add(1);
            self.stale_bytes += self.live[p] as usize;
            self.live[p] = 0;
        }
    }

    /// Drop every stale record, in place; O(1) when there is none.
    ///
    /// Survivors keep their order. A survivor's `head` is re-encoded
    /// against the survivor before it and can come out longer than the one
    /// it replaces — a larger pixel delta, or a `gen` that a dropped
    /// record used to introduce — but never by more than the heads of the
    /// records dropped in between (varint length is subadditive in the
    /// delta, and an introduced `gen` was stored in one of them), so the
    /// write cursor cannot pass the read cursor. That is asserted, not
    /// assumed: overrunning would corrupt paths not yet read.
    pub fn compact(&mut self) {
        if self.stale_bytes == 0 {
            return;
        }
        let mut cur = Cursor::default();
        let mut tail = (0, 0);
        let mut write = 0;
        let mut purged = 0u64;
        let mut head = [0u8; MAX_PREFIX];
        while cur.pos < self.log.len() {
            let rec = cur.read(&self.log);
            let p = rec.pixel as usize;
            if rec.gen != self.gen[p] {
                purged += rec.steps as u64 + 1;
                continue;
            }
            let n = put_head(&mut head, tail, rec.pixel, rec.gen);
            assert!(
                write + n <= rec.path,
                "compaction write cursor passed its read cursor"
            );
            self.log[write..write + n].copy_from_slice(&head[..n]);
            self.log.copy_within(rec.path..cur.pos, write + n);
            let len = n + cur.pos - rec.path;
            self.live[p] = self.live[p] - (cur.pos - rec.at) as u32 + len as u32;
            write += len;
            tail = (rec.pixel, rec.gen);
        }
        self.log.truncate(write);
        // hand the freed tail back, keeping room for a frame's worth of
        // new records so the next append does not reallocate at once
        self.log.shrink_to(write + write / 4);
        self.tail = tail;
        self.stale_bytes = 0;
        self.stats.purged += purged;
        self.stats.entries -= purged;
        self.stats.list_bytes = write as u64;
        self.stats.compactions += 1;
    }

    /// Append one record of `steps` step codes — `head [gen]`, then
    /// whatever `body` writes, which must be the record's `start steps
    /// codes`; returns the voxels it crosses.
    #[inline]
    fn append(&mut self, pixel: PixelId, steps: usize, body: impl FnOnce(&mut Vec<u8>)) -> u64 {
        let at = self.log.len();
        let gen = self.gen[pixel as usize];
        let mut head = [0u8; MAX_PREFIX];
        let n = put_head(&mut head, self.tail, pixel, gen);
        self.log.extend_from_slice(&head[..n]);
        body(&mut self.log);
        let len = self.log.len() - at;
        self.tail = (pixel, gen);
        self.live[pixel as usize] += len as u32;
        let marks = steps as u64 + 1;
        self.stats.marks += marks;
        self.stats.entries += marks;
        self.stats.peak_entries = self.stats.peak_entries.max(self.stats.entries);
        self.stats.list_bytes += len as u64;
        marks
    }

    /// Count one observed ray that left `marks` marks.
    #[inline]
    fn count_ray(&mut self, marks: u64) {
        self.stats.rays_recorded += 1;
        if now_trace::enabled() {
            // rays reach the engine in canonical shard order, so the mark
            // multiset is identical for any pool thread count
            now_trace::global().observe("coh.marks_per_ray", marks);
        }
    }
}

/// Append `start steps codes` of `path` to `out`.
#[inline]
fn put_path(out: &mut Vec<u8>, path: &VoxelPath<'_>) {
    let mut prefix = [0u8; MAX_PREFIX];
    let n = put_varint(&mut prefix, 0, path.start as u64);
    let n = put_varint(&mut prefix, n, path.steps as u64);
    out.extend_from_slice(&prefix[..n]);
    out.extend_from_slice(path.codes);
}

impl RayListener for CoherenceEngine {
    fn on_ray(
        &mut self,
        pixel: PixelId,
        _ray: &Ray,
        _kind: RayKind,
        _t_max: f64,
        path: Option<VoxelPath<'_>>,
    ) {
        let marks = path.map_or(0, |path| {
            debug_assert!(path.start < self.spec.voxel_count(), "path of another grid");
            self.append(pixel, path.steps, |log| put_path(log, &path))
        });
        self.count_ray(marks);
    }
}

/// One pool tile's rays, recorded off the engine's thread: every record's
/// `start steps codes` bytes back to back, and per ray whose record they
/// are. Only `head` depends on what precedes a record in the log, so
/// [`CoherenceEngine::absorb_shard`] writes that and copies the rest.
#[derive(Debug, Default)]
pub struct PathShard {
    bodies: Vec<u8>,
    /// Per observed ray: its pixel, its step count and the length of its
    /// body in `bodies` — 0 for a ray that crossed no voxel.
    rays: Vec<(PixelId, u32, u32)>,
}

impl RayListener for PathShard {
    #[inline]
    fn on_ray(
        &mut self,
        pixel: PixelId,
        _ray: &Ray,
        _kind: RayKind,
        _t_max: f64,
        path: Option<VoxelPath<'_>>,
    ) {
        let at = self.bodies.len();
        let steps = path.map_or(0, |path| {
            put_path(&mut self.bodies, &path);
            path.steps as u32
        });
        self.rays
            .push((pixel, steps, (self.bodies.len() - at) as u32));
    }
}

/// Tiles are absorbed in ascending order, so the log receives the records
/// in the order — and therefore with the heads — of a 1-thread render.
impl ShardableListener for CoherenceEngine {
    type Shard = PathShard;

    fn make_shard(&self) -> PathShard {
        PathShard::default()
    }

    fn absorb_shard(&mut self, shard: PathShard) {
        let mut bodies = shard.bodies.as_slice();
        for (pixel, steps, len) in shard.rays {
            let (body, rest) = bodies.split_at(len as usize);
            bodies = rest;
            let marks = match len {
                0 => 0,
                _ => self.append(pixel, steps as usize, |log| log.extend_from_slice(body)),
            };
            self.count_ray(marks);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::{GroupListener, GroupMap};
    use now_grid::dda::{Traverse, VoxelPathBuf};
    use now_math::{Aabb, Interval, Point3, Vec3};
    use now_testkit::{cases, Rng};
    use std::collections::{BTreeMap, BTreeSet};

    fn engine() -> CoherenceEngine {
        let spec = GridSpec::cubic(Aabb::new(Point3::ZERO, Point3::splat(4.0)), 4);
        CoherenceEngine::new(spec, 100)
    }

    /// Report `ray` to `listener` the way the tracer does: with the path of
    /// its walk over `[0, t_max]`.
    fn fire_at(
        listener: &mut impl RayListener,
        spec: &GridSpec,
        pixel: PixelId,
        ray: &Ray,
        kind: RayKind,
        t_max: f64,
    ) {
        let mut buf = VoxelPathBuf::default();
        buf.record(spec, ray, Interval::new(0.0, t_max));
        listener.on_ray(pixel, ray, kind, t_max, buf.path());
    }

    impl CoherenceEngine {
        fn fire(&mut self, pixel: PixelId, ray: &Ray, kind: RayKind, t_max: f64) {
            let spec = self.spec;
            fire_at(self, &spec, pixel, ray, kind, t_max);
        }
    }

    fn x_ray(y: f64, z: f64) -> Ray {
        Ray::new(Point3::new(-1.0, y, z), Vec3::UNIT_X)
    }

    fn every_voxel(spec: &GridSpec) -> Vec<Voxel> {
        let mut all: Vec<Voxel> = (0..spec.voxel_count())
            .map(|i| spec.voxel_from_linear(i))
            .collect();
        all.sort_unstable();
        all
    }

    /// The dirty set of each voxel on its own, in `every_voxel` order.
    fn dirty_sets(e: &mut CoherenceEngine) -> Vec<Vec<PixelId>> {
        every_voxel(&e.spec.clone())
            .iter()
            .map(|&v| e.dirty_pixels(&[v]))
            .collect()
    }

    /// The accounts the engine keeps incrementally, recomputed from the log.
    fn assert_accounts_exact(e: &CoherenceEngine) {
        let mut live = vec![0u32; e.live.len()];
        let (mut stale, mut entries) = (0, 0);
        let mut cur = Cursor::default();
        while cur.pos < e.log.len() {
            let rec = cur.read(&e.log);
            entries += rec.steps as u64 + 1;
            if rec.gen == e.gen[rec.pixel as usize] {
                live[rec.pixel as usize] += (cur.pos - rec.at) as u32;
            } else {
                stale += cur.pos - rec.at;
            }
        }
        assert_eq!(cur.pos, e.log.len());
        assert_eq!((cur.pixel, cur.gen), e.tail);
        assert_eq!(live, e.live);
        assert_eq!(stale, e.stale_bytes);
        assert_eq!(entries, e.stats.entries);
        assert_eq!(e.log.len() as u64, e.stats.list_bytes);
        assert!(e.changed.iter().chain(&e.seen).all(|&w| w == 0));
    }

    #[test]
    fn marking_and_dirty_lookup() {
        let mut e = engine();
        // pixel 7's ray crosses the x row of voxels at y=z=0
        e.fire(7, &x_ray(0.5, 0.5), RayKind::Primary, f64::INFINITY);
        // pixel 9's ray crosses the row at y=2.5
        e.fire(9, &x_ray(2.5, 0.5), RayKind::Primary, f64::INFINITY);

        let dirty = e.dirty_pixels(&[Voxel::new(2, 0, 0)]);
        assert_eq!(dirty, vec![7]);
        let dirty = e.dirty_pixels(&[Voxel::new(0, 2, 0), Voxel::new(3, 0, 0)]);
        assert_eq!(dirty, vec![7, 9]);
        let dirty = e.dirty_pixels(&[Voxel::new(0, 0, 3)]);
        assert!(dirty.is_empty());
    }

    #[test]
    fn t_max_limits_marking() {
        let mut e = engine();
        // ray stops at t = 1.5 (origin -1, so x reaches 0.5): only voxel 0
        e.fire(3, &x_ray(0.5, 0.5), RayKind::Primary, 1.5);
        assert_eq!(e.dirty_pixels(&[Voxel::new(0, 0, 0)]), vec![3]);
        assert!(e.dirty_pixels(&[Voxel::new(1, 0, 0)]).is_empty());
    }

    #[test]
    fn multiple_rays_of_one_pixel_report_it_once() {
        let mut e = engine();
        e.fire(5, &x_ray(0.5, 0.5), RayKind::Primary, f64::INFINITY);
        e.fire(5, &x_ray(0.5, 0.5), RayKind::Shadow, f64::INFINITY);
        e.fire(5, &x_ray(0.6, 0.6), RayKind::Reflected, f64::INFINITY);
        assert_eq!(e.dirty_pixels(&[Voxel::new(1, 0, 0)]), vec![5]);
        // consecutive rays of one pixel pay a 1-byte head each
        assert_eq!(e.stats().list_bytes, 3 * (1 + 1 + 1 + 2));
        // a different pixel is reported beside it
        e.fire(6, &x_ray(0.5, 0.5), RayKind::Primary, f64::INFINITY);
        assert_eq!(e.dirty_pixels(&[Voxel::new(1, 0, 0)]), vec![5, 6]);
    }

    #[test]
    fn invalidation_makes_records_stale() {
        let mut e = engine();
        e.fire(4, &x_ray(0.5, 0.5), RayKind::Primary, f64::INFINITY);
        e.invalidate_pixels(&[4]);
        // old record no longer reported dirty
        assert!(e.dirty_pixels(&[Voxel::new(1, 0, 0)]).is_empty());
        // re-record under the new generation: visible again
        e.fire(4, &x_ray(2.5, 2.5), RayKind::Primary, f64::INFINITY);
        assert_eq!(e.dirty_pixels(&[Voxel::new(1, 2, 2)]), vec![4]);
        // the old path stays stale
        assert!(e.dirty_pixels(&[Voxel::new(1, 0, 0)]).is_empty());
        assert_accounts_exact(&e);
    }

    #[test]
    fn compact_purges_stale_records() {
        let mut e = engine();
        e.fire(1, &x_ray(0.5, 0.5), RayKind::Primary, f64::INFINITY);
        e.fire(2, &x_ray(1.5, 0.5), RayKind::Primary, f64::INFINITY);
        assert_eq!(e.stats().entries, 8);
        e.invalidate_pixels(&[1]);
        assert_eq!(e.stale_bytes() as u64 * 2, e.stats().list_bytes);
        e.compact();
        assert_eq!(e.stats().entries, 4);
        assert_eq!(e.stats().purged, 4);
        assert_eq!(e.stats().compactions, 1);
        assert_eq!(e.stale_bytes(), 0);
        // pixel 2 still intact
        assert_eq!(e.dirty_pixels(&[Voxel::new(0, 1, 0)]), vec![2]);
        assert_accounts_exact(&e);
    }

    #[test]
    fn compact_without_stale_records_touches_nothing() {
        let mut e = engine();
        e.compact();
        e.fire(1, &x_ray(0.5, 0.5), RayKind::Primary, f64::INFINITY);
        // a bumped generation with nothing recorded under the old one
        e.invalidate_pixels(&[2]);
        let (before, capacity) = (e.clone(), e.log.capacity());
        e.compact();
        assert_eq!(e, before);
        assert_eq!(e.log.capacity(), capacity);
        assert_eq!(e.stats().compactions, 0);
    }

    #[test]
    fn dirty_pixels_sorted_and_unique() {
        let mut e = engine();
        for p in [9, 3, 7, 3, 9] {
            e.fire(p, &x_ray(0.5, 0.5), RayKind::Primary, f64::INFINITY);
        }
        let dirty = e.dirty_pixels(&[Voxel::new(0, 0, 0), Voxel::new(1, 0, 0)]);
        assert_eq!(dirty, vec![3, 7, 9]);
    }

    #[test]
    fn stats_track_marks_and_memory() {
        let mut e = engine();
        // side tables only: 100 pixels x (gen + live), the two bitmaps
        // (2 + 1 words)
        assert_eq!(e.memory_bytes(), 800 + 24);
        e.fire(0, &x_ray(0.5, 0.5), RayKind::Primary, f64::INFINITY);
        let s = e.stats();
        assert_eq!(s.rays_recorded, 1);
        assert_eq!(s.marks, 4);
        assert_eq!(s.entries, 4);
        // head, start, steps, 3 step codes in 2 bytes
        assert_eq!(s.list_bytes, 5);
        assert!(e.memory_bytes() > 824);
    }

    #[test]
    fn dirty_lookup_leaves_the_engine_untouched() {
        let mut e = engine();
        e.fire(8, &x_ray(0.5, 0.5), RayKind::Primary, f64::INFINITY);
        e.fire(9, &x_ray(0.5, 0.5), RayKind::Primary, f64::INFINITY);
        e.invalidate_pixels(&[9]);
        let before = e.clone();
        assert!(e.dirty_pixels(&[]).is_empty());
        assert_eq!(e.dirty_pixels(&[Voxel::new(0, 0, 0)]), vec![8]);
        assert_eq!(e, before);
        assert_accounts_exact(&e);
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "contract checked via debug_assert")]
    #[should_panic(expected = "sorted and deduplicated")]
    fn adjacent_duplicate_voxels_violate_the_contract() {
        let mut e = engine();
        e.dirty_pixels(&[Voxel::new(1, 0, 0), Voxel::new(1, 0, 0)]);
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "contract checked via debug_assert")]
    #[should_panic(expected = "sorted and deduplicated")]
    fn unsorted_voxels_violate_the_contract() {
        let mut e = engine();
        e.dirty_pixels(&[Voxel::new(2, 0, 0), Voxel::new(1, 0, 0)]);
    }

    #[test]
    fn sorted_contract_accepts_strictly_ascending_input() {
        let mut e = engine();
        e.fire(5, &x_ray(0.5, 0.5), RayKind::Primary, f64::INFINITY);
        // strictly ascending in the Voxel ordering: fine
        let dirty = e.dirty_pixels(&[Voxel::new(0, 0, 0), Voxel::new(1, 0, 0)]);
        assert_eq!(dirty, vec![5]);
    }

    #[test]
    fn rays_outside_grid_mark_nothing() {
        let mut e = engine();
        e.fire(
            0,
            &Ray::new(Point3::new(0.0, 10.0, 0.0), Vec3::UNIT_X),
            RayKind::Primary,
            f64::INFINITY,
        );
        assert_eq!(e.stats().rays_recorded, 1);
        assert_eq!(e.stats().entries, 0);
        assert_eq!(e.stats().list_bytes, 0);
    }

    /// Compaction is a pure space optimization: the dirty sets reported for
    /// every voxel must be identical before and after, and the log must
    /// not grow. This is the contract that lets the renderer call
    /// `compact()` at any frame boundary.
    #[test]
    fn compaction_never_changes_dirty_pixels() {
        let mut rng = Rng::with_seed(0x00c0_ffee_1234_5678);
        let mut e = engine();
        for _ in 0..200 {
            let pixel = rng.u32_in(0, 100);
            let y = rng.f64_in(0.0, 4.0);
            let z = rng.f64_in(0.0, 4.0);
            e.fire(pixel, &x_ray(y, z), RayKind::Primary, f64::INFINITY);
            if rng.u32_in(0, 5) == 0 {
                e.invalidate_pixels(&[rng.u32_in(0, 100)]);
            }
        }
        assert!(e.stale_bytes() > 0);
        let before = dirty_sets(&mut e);
        let bytes_before = e.stats().list_bytes;
        e.compact();
        assert!(e.stats().list_bytes < bytes_before, "nothing was dropped");
        assert_eq!(dirty_sets(&mut e), before);
        assert_accounts_exact(&e);
    }

    /// In-place compaction over every subset of a short log with awkward
    /// heads — pixel ids far apart (3-byte deltas next to 1-byte ones) and
    /// multi-byte generations that only a dropped record introduces. The survivors must come out as the exact bytes a fresh
    /// engine writes when it records only them, and the cursor assertion
    /// inside `compact` must hold throughout.
    #[test]
    fn in_place_compaction_survives_every_subset() {
        let spec = GridSpec::cubic(Aabb::new(Point3::ZERO, Point3::splat(4.0)), 4);
        let pixels = 1usize << 17;
        // (pixel, generation bumps before its first record)
        let records: [(PixelId, u32); 9] = [
            (3, 0),
            (130_000, 300),
            (130_001, 300),
            (2, 300),
            (1 << 16, 0),
            (5, 1),
            (6, 1),
            (131_071, 20_000),
            (7, 0),
        ];
        let record = |e: &mut CoherenceEngine, i: usize| {
            let ray = x_ray(0.5 + (i % 4) as f64, 0.5 + (i / 4) as f64);
            e.fire(records[i].0, &ray, RayKind::Primary, 1.5 + i as f64 * 0.5);
        };
        let bumped = |keep: &dyn Fn(usize) -> bool| {
            let mut e = CoherenceEngine::new(spec, pixels);
            for (i, &(pixel, bumps)) in records.iter().enumerate() {
                for _ in 0..if keep(i) { bumps } else { 0 } {
                    e.invalidate_pixels(&[pixel]);
                }
            }
            e
        };
        for mask in 0u32..1 << records.len() {
            let dropped = |i: usize| mask >> i & 1 == 1;
            let mut e = bumped(&|_| true);
            for i in 0..records.len() {
                record(&mut e, i);
            }
            let doomed: Vec<PixelId> = (0..records.len())
                .filter(|&i| dropped(i))
                .map(|i| records[i].0)
                .collect();
            e.invalidate_pixels(&doomed);
            e.compact();
            assert_accounts_exact(&e);

            let mut fresh = bumped(&|i| !dropped(i));
            for i in (0..records.len()).filter(|&i| !dropped(i)) {
                record(&mut fresh, i);
            }
            assert_eq!(e.log, fresh.log, "mask {mask:#b}");
            assert_eq!(e.tail, fresh.tail, "mask {mask:#b}");
            assert_eq!(e.stats().compactions, (mask != 0) as u64);
        }
    }

    /// The paper's data structure, naively: per voxel, the set of pixels
    /// with a live ray through it.
    struct Model {
        spec: GridSpec,
        lists: BTreeMap<Voxel, BTreeSet<PixelId>>,
        marks: u64,
    }

    impl RayListener for Model {
        fn on_ray(
            &mut self,
            pixel: PixelId,
            ray: &Ray,
            _: RayKind,
            t_max: f64,
            _: Option<VoxelPath<'_>>,
        ) {
            for v in self.spec.traverse_vec(ray, Interval::new(0.0, t_max)) {
                self.lists.entry(v).or_default().insert(pixel);
                self.marks += 1;
            }
        }
    }

    impl Model {
        fn invalidate(&mut self, pixels: &[PixelId]) {
            for list in self.lists.values_mut() {
                for p in pixels {
                    list.remove(p);
                }
            }
        }

        fn dirty(&self, changed: &[Voxel]) -> Vec<PixelId> {
            let set: BTreeSet<PixelId> = changed
                .iter()
                .filter_map(|v| self.lists.get(v))
                .flatten()
                .copied()
                .collect();
            set.into_iter().collect()
        }
    }

    fn random_ray(rng: &mut Rng) -> Ray {
        loop {
            let o = Point3::new(
                rng.f64_in(-2.0, 6.0),
                rng.f64_in(-2.0, 6.0),
                rng.f64_in(-2.0, 6.0),
            );
            let d = Vec3::new(
                rng.f64_in(-1.0, 1.0),
                rng.f64_in(-1.0, 1.0),
                rng.f64_in(-1.0, 1.0),
            );
            if let Some(d) = d.try_normalized(1e-3) {
                return Ray::new(o, d);
            }
        }
    }

    /// Differential oracle: random rays, invalidations, compactions and
    /// queries against the naive per-voxel model, through the renderer's
    /// own `GroupListener` so Jevans blocks (one group's rays scattered
    /// over the log) and shadow filtering are part of what is compared.
    #[test]
    fn engine_matches_the_naive_per_voxel_model() {
        const KINDS: [RayKind; 4] = [
            RayKind::Primary,
            RayKind::Reflected,
            RayKind::Transmitted,
            RayKind::Shadow,
        ];
        cases(60, |rng| {
            let spec = GridSpec::new(
                Aabb::new(Point3::ZERO, Point3::splat(4.0)),
                [
                    rng.u32_in(1, 7) as u16,
                    rng.u32_in(1, 7) as u16,
                    rng.u32_in(1, 7) as u16,
                ],
            );
            let (w, h) = (12, 9);
            let map = GroupMap::new(w, h, *rng.pick(&[1, 1, 2, 4]));
            let track_shadows = rng.u32_in(0, 4) != 0;
            let mut engine = CoherenceEngine::new(spec, map.group_count());
            let mut model = Model {
                spec,
                lists: BTreeMap::new(),
                marks: 0,
            };
            let voxels = every_voxel(&spec);
            for _ in 0..rng.usize_in(50, 400) {
                match rng.u32_in(0, 10) {
                    0..=5 => {
                        // a pixel's burst of rays, as the tracer fires them
                        let pixel = rng.u32_in(0, w * h);
                        for _ in 0..rng.usize_in(1, 5) {
                            let ray = random_ray(rng);
                            let kind = *rng.pick(&KINDS);
                            let t_max = if rng.bool() {
                                f64::INFINITY
                            } else {
                                rng.f64_in(0.0, 8.0)
                            };
                            let mut to_engine = GroupListener {
                                engine: &mut engine,
                                map,
                                track_shadows,
                            };
                            fire_at(&mut to_engine, &spec, pixel, &ray, kind, t_max);
                            let mut to_model = GroupListener {
                                engine: &mut model,
                                map,
                                track_shadows,
                            };
                            fire_at(&mut to_model, &spec, pixel, &ray, kind, t_max);
                        }
                    }
                    6 | 7 => {
                        let groups = rng.vec(0, 6, |rng| rng.u32_in(0, map.group_count() as u32));
                        engine.invalidate_pixels(&groups);
                        model.invalidate(&groups);
                    }
                    8 => engine.compact(),
                    _ => {
                        let mut changed = rng.vec(0, 5, |rng| *rng.pick(&voxels));
                        changed.sort_unstable();
                        changed.dedup();
                        assert_eq!(engine.dirty_pixels(&changed), model.dirty(&changed));
                    }
                }
                assert_eq!(engine.stats().marks, model.marks);
            }
            assert_accounts_exact(&engine);
            for &v in &voxels {
                assert_eq!(engine.dirty_pixels(&[v]), model.dirty(&[v]), "{v:?}");
            }
            assert_eq!(engine.dirty_pixels(&voxels), model.dirty(&voxels));
        });
    }
}
