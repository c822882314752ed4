//! The frame-coherence data structure: one append-only log of ray records.
//!
//! The paper keeps, per voxel, the list of pixels whose rays crossed it,
//! and asks of each changed voxel "which pixels are on your list?". This
//! engine stores the same relation transposed — per recorded ray, a record
//! tagged with its pixel — and asks of each recorded ray "can you see the
//! change?". Recording a ray is one sequential append instead of one
//! scattered list push per voxel, and the per-frame query is one linear
//! scan of the log.
//!
//! An engine is built for one [`DirtyTest`], and each test has one record
//! grammar (DESIGN.md §14):
//!
//! * [`DirtyTest::Exact`] (the default): a pixel is dirty iff one of its
//!   live rays has its segment come within a changed object's padded
//!   bound. A record is the ray's segment, and nothing of its voxel path.
//! * [`DirtyTest::Paper`]: the paper's test — a pixel is dirty iff one of
//!   its live rays crosses a changed voxel. A record is the ray's voxel
//!   path.
//!
//! Record grammar (stream state starts at `(pixel, gen) = (0, 0)`; all
//! integers LEB128 varints, see [`crate::varint`]):
//!
//! ```text
//! exact  = head [gen] seg
//! paper  = head [gen] start steps codes
//! head   = varint( zigzag(pixel - prev_pixel) << 1 | (gen != prev_gen) )
//! gen    = varint(gen)                  -- only when the flag bit is set
//! seg    = 12 bytes: the ray over [0, t_max] clipped to the grid box, as
//!          its entry and exit points, x y z each a little-endian u16
//!          (0 = the box's min face, 65535 = its max face)
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
//! cost a 1-byte `head`, so an exact record is 13 or 14 bytes; a typical
//! 25-voxel path is 16 bytes as a paper record.
//!
//! The log is held in fixed blocks of `BLOCK` (64 KiB), read in order as
//! one record stream. A block holds whole records: a record that does not
//! fit in the last block's room opens a fresh block, and a record longer
//! than a block gets a block of exactly its length. So the log never asks
//! the allocator for more than one block at a time and never copies itself
//! to grow; a block is below glibc's default 128 KiB mmap threshold, so
//! blocks come from the heap and a block that compaction frees is the next
//! one handed out. (One doubling buffer of several MB instead is mmapped,
//! and freeing it raises glibc's threshold, after which every later log is
//! carved from a heap that keeps its holes.)
//!
//! An engine given a [`MoverMask`] stores only the rays whose path enters
//! it: no changed set of the sequence lies outside the mask, so a ray that
//! misses it can never cross a changed voxel. Such a ray is walked (and
//! counted in [`CoherenceStats::marks`]) but not logged.
//!
//! A record is *live* while its `gen` equals the pixel's current
//! generation. [`CoherenceEngine::invalidate_pixels`] bumps the generation
//! — every older record of the pixel is stale from then on, wherever it
//! sits in the log — and moves the pixel's bytes from the live to the
//! stale account, so [`CoherenceEngine::compact`] knows without looking
//! whether there is anything to drop.

use crate::bound::{Bound, Slab};
use crate::change::MoverMask;
use crate::varint::{read_varint, unzigzag, zigzag};
use now_grid::dda::{step_strides, VoxelPath};
use now_grid::{GridSpec, Voxel};
use now_math::{Aabb, Axis, Interval, Point3, Ray, Vec3};
use now_raytrace::{PixelId, RayKind, RayListener};
use std::sync::Arc;

/// Which test makes a pixel dirty, and so what a record of the log holds
/// (module docs). Fixed when the engine is built.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum DirtyTest {
    /// A live ray's segment comes within a changed object's padded bound;
    /// a record is `head [gen] seg`. Where a bound reaches outside the grid
    /// box the segments are clipped to, the answer is every pixel.
    #[default]
    Exact,
    /// The paper's test: a live ray crosses a changed voxel; a record is
    /// `head [gen] start steps codes`.
    Paper,
}

/// Bookkeeping statistics; Table 1's "overhead" column comes from the work
/// these counters represent, and the cluster cost model charges time
/// proportional to `marks`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoherenceStats {
    /// Voxel-mark operations performed (per ray per voxel crossed): every
    /// walked mark, stored or not.
    pub marks: u64,
    /// Entries currently stored in the log, live and stale: one per record
    /// of an exact engine, one per voxel of a recorded path of a paper
    /// engine. Under a mover mask, fewer than were walked.
    pub entries: u64,
    /// Entries dropped by compaction.
    pub purged: u64,
    /// Rays observed.
    pub rays_recorded: u64,
    /// High-water mark of `entries`.
    pub peak_entries: u64,
    /// Log bytes currently stored, live and stale (the working-set cost
    /// the cost model charges).
    pub list_bytes: u64,
    /// Compaction passes that had something to drop.
    pub compactions: u64,
    /// Dirty-set queries of an exact engine answered with every pixel
    /// because a changed bound reached outside the grid box the segments
    /// are clipped to.
    pub fallbacks: u64,
}

/// Bytes of a record's `seg`.
const SEG_BYTES: usize = 12;

/// Bytes of one log block.
const BLOCK: usize = 64 * 1024;

/// Largest quantised coordinate (16 bits per axis).
const SEG_MAX: f64 = 65535.0;

/// Quanta per axis by which a decoded segment may stray from the true
/// one and still be found near a bound. Rounding moves each endpoint by at
/// most half a quantum per axis, so every point of the true clipped
/// segment lies within half a quantum per axis of the decoded segment; the
/// other half covers the f64 error of clipping and of the distance tests.
const PAD_QUANTA: f64 = 1.0;

/// How `seg` encodes a ray segment: clipped to the grid box, endpoints at
/// 16 bits per axis of the box.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SegmentCodec {
    bounds: Aabb,
}

impl SegmentCodec {
    /// One quantum per axis: the box extent over 65535.
    fn quantum(&self) -> Vec3 {
        self.bounds.extent() / SEG_MAX
    }

    /// The Euclidean pad a bound is grown by: `PAD_QUANTA` quanta per axis.
    fn pad(&self) -> f64 {
        (self.quantum() * PAD_QUANTA).length()
    }

    /// Whether `b` lies inside the box the segments are clipped to (the
    /// part of a ray outside it is not stored).
    fn covers(&self, b: &Bound) -> bool {
        let bb = b.aabb();
        self.bounds.contains(bb.min) && self.bounds.contains(bb.max)
    }

    /// Write the `seg` of `ray` over `[0, t_max]` to `out[..SEG_BYTES]`.
    fn put(&self, out: &mut [u8], ray: &Ray, t_max: f64) {
        let clip = self.bounds.ray_range(ray, Interval::new(0.0, t_max));
        // a ray with a path crosses the box: the walk clips the same way
        debug_assert!(!clip.is_empty(), "a recorded ray misses the grid box");
        let (t0, t1) = if clip.is_empty() {
            (0.0, 0.0)
        } else {
            (clip.min, clip.max)
        };
        let e = self.bounds.extent();
        let mut at = 0;
        for p in [ray.at(t0), ray.at(t1)] {
            for a in Axis::ALL {
                let q = ((p[a] - self.bounds.min[a]) / e[a] * SEG_MAX)
                    .round()
                    .clamp(0.0, SEG_MAX) as u16;
                out[at..at + 2].copy_from_slice(&q.to_le_bytes());
                at += 2;
            }
        }
    }

    /// The endpoints a `seg` encodes.
    fn get(&self, seg: &[u8]) -> (Point3, Point3) {
        let u = |i: usize| u16::from_le_bytes([seg[2 * i], seg[2 * i + 1]]) as f64;
        let q = self.quantum();
        let at = |k: usize| self.bounds.min + Vec3::new(u(k), u(k + 1), u(k + 2)).hadamard(q);
        (at(0), at(3))
    }
}

/// The frame-coherence data structure: one record per stored ray, tagged
/// with the pixel that fired it — its segment or its voxel path through a
/// uniform grid, as the engine's [`DirtyTest`] asks.
///
/// Implements [`RayListener`]: install it as the tracer's listener while
/// rendering — over an accelerator built on this engine's grid
/// (`GridAccel::build_with_spec`) — and every ray's record is appended to
/// the log under the pixel being shaded.
///
/// Equality compares the complete engine state — the test, log blocks
/// (including stale records), generation counters, live/stale byte
/// accounts, the mask and statistics — so tests can assert that two
/// render paths left the engine in exactly the same state.
#[derive(Debug, Clone)]
pub struct CoherenceEngine {
    spec: GridSpec,
    test: DirtyTest,
    seg: SegmentCodec,
    /// Voxels some transition changes; `None` stores every ray.
    mask: Option<Arc<MoverMask>>,
    strides: [isize; 8],
    /// The record stream, in blocks of whole records (module docs).
    log: Vec<Vec<u8>>,
    /// `(pixel, gen)` of the last record: what the next `head` is relative
    /// to.
    tail: (PixelId, u32),
    /// Current generation per pixel; records of older generations are
    /// stale.
    gen: Vec<u32>,
    /// Per pixel, the log bytes held by its current-generation records.
    live: Vec<u32>,
    /// Log bytes held by stale records; `list_bytes - stale_bytes` is the
    /// sum of `live`.
    stale_bytes: usize,
    stats: CoherenceStats,
    // Scratch below: not observable state, excluded from `PartialEq`.
    /// Changed-voxel bitmap of a paper engine's `dirty_pixels` call; all
    /// zero between calls.
    changed: Vec<u64>,
    /// Pixels already reported by a `dirty_pixels` call; all zero between
    /// calls.
    seen: Vec<u64>,
}

impl PartialEq for CoherenceEngine {
    fn eq(&self, other: &CoherenceEngine) -> bool {
        self.spec == other.spec
            && self.test == other.test
            && self.mask == other.mask
            && self.log == other.log
            && self.tail == other.tail
            && self.gen == other.gen
            && self.live == other.live
            && self.stale_bytes == other.stale_bytes
            && self.stats == other.stats
    }
}

/// Longest `head [gen]`: 5 + 5 bytes for `u32` pixels and generations.
const MAX_HEAD: usize = 10;

/// Longest record body before a paper record's `codes`: `seg`, or `start
/// steps` (two varints of at most 10 bytes).
const MAX_BODY: usize = 20;

/// Write `v` as LEB128 at `buf[at..]`; returns the position after it.
#[inline]
fn put_varint(buf: &mut [u8], mut at: usize, mut v: u64) -> usize {
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
fn put_head(buf: &mut [u8; MAX_HEAD], tail: (PixelId, u32), pixel: PixelId, gen: u32) -> usize {
    let delta = pixel as i64 - tail.0 as i64;
    let flag = (gen != tail.1) as u64;
    let at = put_varint(buf, 0, (zigzag(delta) << 1) | flag);
    if flag != 0 {
        put_varint(buf, at, gen as u64)
    } else {
        at
    }
}

/// One decoded record: whose it is and where its parts sit in its block.
struct Record {
    pixel: PixelId,
    gen: u32,
    /// Offset of `head`.
    at: usize,
    /// Offset of the body, `seg` or `start`: from here on a record does
    /// not depend on its predecessor, so compaction moves it verbatim.
    body: usize,
    /// A paper record's path: its first voxel, its step count and the
    /// offset of its `codes` (0, 0 and `end` for an exact record).
    start: usize,
    steps: usize,
    codes: usize,
    /// Offset past the record.
    end: usize,
}

/// What a stored record of a ray whose walk made `marks` marks counts for
/// in [`CoherenceStats::entries`].
#[inline]
fn entries(test: DirtyTest, marks: u64) -> u64 {
    match test {
        DirtyTest::Exact => 1,
        DirtyTest::Paper => marks,
    }
}

/// Sequential log decoder: the stream state of the record grammar. The
/// state runs on from block to block; `pos` is within the current one.
#[derive(Default)]
struct Cursor {
    pos: usize,
    pixel: PixelId,
    gen: u32,
}

impl Cursor {
    /// Decode the `test` record at `pos` of `block` and move past it (a
    /// paper record's codes are skipped by length, not read).
    #[inline]
    fn read(&mut self, block: &[u8], test: DirtyTest) -> Record {
        let at = self.pos;
        let mut pos = at;
        let head = read_varint(block, &mut pos);
        self.pixel = (self.pixel as i64 + unzigzag(head >> 1)) as PixelId;
        if head & 1 != 0 {
            self.gen = read_varint(block, &mut pos) as u32;
        }
        let body = pos;
        let (start, steps) = match test {
            DirtyTest::Exact => {
                pos += SEG_BYTES;
                (0, 0)
            }
            DirtyTest::Paper => {
                let start = read_varint(block, &mut pos) as usize;
                (start, read_varint(block, &mut pos) as usize)
            }
        };
        self.pos = pos + steps.div_ceil(2);
        Record {
            pixel: self.pixel,
            gen: self.gen,
            at,
            body,
            start,
            steps,
            codes: pos,
            end: self.pos,
        }
    }
}

/// Every record of a block log in order, each with the block that holds
/// it.
struct Records<'a> {
    blocks: std::slice::Iter<'a, Vec<u8>>,
    block: &'a [u8],
    test: DirtyTest,
    cur: Cursor,
}

impl<'a> Records<'a> {
    fn of(log: &'a [Vec<u8>], test: DirtyTest) -> Records<'a> {
        Records {
            blocks: log.iter(),
            block: &[],
            test,
            cur: Cursor::default(),
        }
    }
}

impl<'a> Iterator for Records<'a> {
    type Item = (&'a [u8], Record);

    #[inline]
    fn next(&mut self) -> Option<(&'a [u8], Record)> {
        while self.cur.pos == self.block.len() {
            self.block = self.blocks.next()?;
            self.cur.pos = 0;
        }
        Some((self.block, self.cur.read(self.block, self.test)))
    }
}

/// The block of `log` a `len`-byte record is appended to: the last one if
/// it has the room, else a fresh one of `BLOCK` bytes (of `len` bytes for a
/// record longer than that).
#[inline]
fn block_for(log: &mut Vec<Vec<u8>>, len: usize) -> &mut Vec<u8> {
    if log.last().is_none_or(|b| b.capacity() - b.len() < len) {
        log.push(Vec::with_capacity(len.max(BLOCK)));
    }
    log.last_mut().expect("a block was just ensured")
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

/// The body of the `test` record of `ray` over `[0, t_max]` with `path`:
/// its first part and length — `seg`, or `start steps` — and its second,
/// empty or the path's `codes`.
#[inline]
fn record_body<'p>(
    test: DirtyTest,
    seg: &SegmentCodec,
    ray: &Ray,
    t_max: f64,
    path: &VoxelPath<'p>,
) -> ([u8; MAX_BODY], usize, &'p [u8]) {
    let mut prefix = [0u8; MAX_BODY];
    match test {
        DirtyTest::Exact => {
            seg.put(&mut prefix, ray, t_max);
            (prefix, SEG_BYTES, &[])
        }
        DirtyTest::Paper => {
            let n = put_varint(&mut prefix, 0, path.start as u64);
            let n = put_varint(&mut prefix, n, path.steps as u64);
            (prefix, n, path.codes)
        }
    }
}

impl CoherenceEngine {
    /// Create an engine that answers with `test` for `groups` pixel groups
    /// over the given grid, storing only the rays whose path enters `mask`
    /// (built over this grid) when one is given. Dirty sets stay exactly
    /// those of an unmasked engine, as long as every changed set queried
    /// lies inside the mask.
    ///
    /// Every engine is built here, and one built for a traced renderer
    /// (`trace`, its settings' flag) counts itself in `coh.engines_built`
    /// while the recorder is on: a renderer builds one per fresh start.
    pub(crate) fn new(
        spec: GridSpec,
        groups: usize,
        test: DirtyTest,
        mask: Option<Arc<MoverMask>>,
        trace: bool,
    ) -> CoherenceEngine {
        let changed = vec![0; spec.voxel_count().div_ceil(64)];
        if let Some(mask) = &mask {
            assert_eq!(mask.bits.len(), changed.len(), "mover mask of another grid");
        }
        if trace && now_trace::enabled() {
            now_trace::global().counter_add("coh.engines_built", 1);
        }
        CoherenceEngine {
            spec,
            test,
            seg: SegmentCodec {
                bounds: spec.bounds,
            },
            mask,
            strides: step_strides(&spec),
            log: Vec::new(),
            tail: (0, 0),
            gen: vec![0; groups],
            live: vec![0; groups],
            stale_bytes: 0,
            stats: CoherenceStats::default(),
            changed,
            seen: vec![0; groups.div_ceil(64)],
        }
    }

    /// The mover mask rays are stored under, if any.
    pub(crate) fn mask(&self) -> Option<&Arc<MoverMask>> {
        self.mask.as_ref()
    }

    /// Current statistics.
    #[inline]
    pub fn stats(&self) -> CoherenceStats {
        self.stats
    }

    /// Bytes held by the engine (the paper's observation that "memory
    /// requirements are directly proportional to the size of the image
    /// area" is measured through this): the log blocks held, their unused
    /// tails included, plus the per-pixel and per-voxel side tables. A
    /// mover mask is shared between renderers and not counted.
    pub fn memory_bytes(&self) -> usize {
        self.log.iter().map(Vec::capacity).sum::<usize>()
            + (self.gen.len() + self.live.len()) * 4
            + (self.changed.len() + self.seen.len()) * 8
    }

    /// Log bytes held by stale records, of the `list_bytes` stored — what
    /// [`CoherenceEngine::compact`] would free.
    #[inline]
    pub fn stale_bytes(&self) -> usize {
        self.stale_bytes
    }

    /// The set of pixels (deduplicated, ascending) that must be recomputed
    /// for the next frame, given the `changed` voxels and the `movers` (the
    /// old and new bounds of every changed object, what
    /// [`crate::changed_voxels`] produces beside `changed`): those with a
    /// live recorded ray whose segment comes within one of the `movers`
    /// (exact), or whose path crosses one of the `changed` voxels (paper).
    ///
    /// `changed` must be sorted and deduplicated; an empty one changes
    /// nothing. When a mover reaches outside the grid box, whose outside
    /// the stored segments do not cover, an exact engine answers with
    /// every pixel (counted in [`CoherenceStats::fallbacks`]).
    ///
    /// One pass over the log: stale records and records of pixels already
    /// found dirty are skipped by their length, the rest are tested. Log
    /// state is untouched (`&mut` is for the scratch bitmaps and the
    /// fallback count).
    pub fn dirty_pixels(&mut self, changed: &[Voxel], movers: &[Bound]) -> Vec<PixelId> {
        debug_assert!(
            changed.windows(2).all(|w| w[0] < w[1]),
            "changed voxels must be sorted and deduplicated"
        );
        debug_assert!(
            self.mask.as_ref().is_none_or(|m| changed.iter().all(|&v| {
                let i = self.spec.linear_index(v);
                m.bits[i >> 6] >> (i & 63) & 1 != 0
            })),
            "a changed voxel outside the mover mask"
        );
        if changed.is_empty() {
            return Vec::new();
        }
        let (dirty, read, coarse, exact_tests) = match self.test {
            DirtyTest::Exact if !movers.iter().all(|b| self.seg.covers(b)) => {
                self.stats.fallbacks += 1;
                return (0..self.gen.len() as PixelId).collect();
            }
            DirtyTest::Exact => {
                let (seg, pad) = (self.seg, self.seg.pad());
                // the filters run cheapest first: one box per mover, then
                // the exact distance test
                let movers: Vec<(&Bound, Aabb)> =
                    movers.iter().map(|b| (b, b.reject_box(pad))).collect();
                let mut exact_tests = 0u64;
                let (dirty, read, coarse) = scan(
                    &self.log,
                    self.test,
                    &self.gen,
                    &mut self.seen,
                    |block, rec| {
                        let (p0, p1) = seg.get(&block[rec.body..rec.end]);
                        let slab = Slab::new(p0, p1);
                        let (mut met, mut near) = (false, false);
                        for (b, reject) in &movers {
                            if slab.meets(reject) {
                                met = true;
                                exact_tests += 1;
                                if b.near_segment(p0, p1, pad) {
                                    near = true;
                                    break;
                                }
                            }
                        }
                        (met, near)
                    },
                );
                (dirty, read, coarse, exact_tests)
            }
            DirtyTest::Paper => {
                for &v in changed {
                    let i = self.spec.linear_index(v);
                    self.changed[i >> 6] |= 1 << (i & 63);
                }
                let (strides, bits) = (&self.strides, &self.changed);
                let (dirty, read, coarse) = scan(
                    &self.log,
                    self.test,
                    &self.gen,
                    &mut self.seen,
                    |block, rec| {
                        let hit = path_hits(rec.start, &block[rec.codes..rec.end], strides, bits);
                        (hit, hit)
                    },
                );
                for &v in changed {
                    self.changed[self.spec.linear_index(v) >> 6] = 0;
                }
                (dirty, read, coarse, 0)
            }
        };
        if now_trace::enabled() {
            // the scan's counts are functions of the log's bytes and the
            // change set alone
            let rec = now_trace::global();
            rec.counter_add("coh.scan_records", read);
            rec.counter_add("coh.scan_voxel_hits", coarse);
            rec.counter_add("coh.scan_exact_tests", exact_tests);
        }
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

    /// Drop every stale record; O(1) when there is none.
    ///
    /// The survivors are streamed, in order, into fresh blocks, each old
    /// block dropped once it has been read. A survivor's `head` is
    /// re-encoded against the survivor before it (a larger pixel delta, or
    /// a `gen` that a dropped record used to introduce); its body does not
    /// depend on its predecessor and is copied verbatim.
    pub fn compact(&mut self) {
        if self.stale_bytes == 0 {
            return;
        }
        let mut cur = Cursor::default();
        let mut tail = (0, 0);
        let mut written = 0;
        let mut purged = 0u64;
        let mut head = [0u8; MAX_HEAD];
        for block in std::mem::take(&mut self.log) {
            cur.pos = 0;
            while cur.pos < block.len() {
                let rec = cur.read(&block, self.test);
                let p = rec.pixel as usize;
                if rec.gen != self.gen[p] {
                    purged += entries(self.test, rec.steps as u64 + 1);
                    continue;
                }
                let n = put_head(&mut head, tail, rec.pixel, rec.gen);
                let len = n + rec.end - rec.body;
                let out = block_for(&mut self.log, len);
                out.extend_from_slice(&head[..n]);
                out.extend_from_slice(&block[rec.body..rec.end]);
                self.live[p] = self.live[p] - (rec.end - rec.at) as u32 + len as u32;
                written += len;
                tail = (rec.pixel, rec.gen);
            }
        }
        self.tail = tail;
        self.stale_bytes = 0;
        self.stats.purged += purged;
        self.stats.entries -= purged;
        self.stats.list_bytes = written as u64;
        self.stats.compactions += 1;
    }

    /// Append one record worth `entries` entries: `head [gen]`, then the
    /// `body` parts back to back, which must make the record's body.
    #[inline]
    fn append(&mut self, pixel: PixelId, entries: u64, body: [&[u8]; 2]) {
        let gen = self.gen[pixel as usize];
        let mut head = [0u8; MAX_HEAD];
        let n = put_head(&mut head, self.tail, pixel, gen);
        let len = n + body[0].len() + body[1].len();
        let block = block_for(&mut self.log, len);
        block.extend_from_slice(&head[..n]);
        block.extend_from_slice(body[0]);
        block.extend_from_slice(body[1]);
        self.tail = (pixel, gen);
        self.live[pixel as usize] += len as u32;
        self.stats.entries += entries;
        self.stats.peak_entries = self.stats.peak_entries.max(self.stats.entries);
        self.stats.list_bytes += len as u64;
    }
}

/// One pass over the live records of `log` whose pixel is not yet dirty:
/// `test` answers, per record, whether it passed the coarse filter and
/// whether it makes its pixel dirty. Returns the dirty pixels, ascending,
/// the records read and the coarse passes; `seen` (all zero between
/// calls) is the scratch set of pixels found dirty.
fn scan(
    log: &[Vec<u8>],
    grammar: DirtyTest,
    gen: &[u32],
    seen: &mut [u64],
    mut test: impl FnMut(&[u8], &Record) -> (bool, bool),
) -> (Vec<PixelId>, u64, u64) {
    let (mut read, mut coarse) = (0u64, 0u64);
    let mut dirty: Vec<PixelId> = Vec::new();
    for (block, rec) in Records::of(log, grammar) {
        read += 1;
        let p = rec.pixel as usize;
        if rec.gen != gen[p] || seen[p >> 6] >> (p & 63) & 1 != 0 {
            continue;
        }
        let (passed, hit) = test(block, &rec);
        coarse += passed as u64;
        if hit {
            seen[p >> 6] |= 1 << (p & 63);
            dirty.push(rec.pixel);
        }
    }
    for &p in &dirty {
        seen[p as usize >> 6] = 0;
    }
    dirty.sort_unstable();
    (dirty, read, coarse)
}

impl RayListener for CoherenceEngine {
    fn on_ray(
        &mut self,
        pixel: PixelId,
        ray: &Ray,
        _kind: RayKind,
        t_max: f64,
        path: Option<VoxelPath<'_>>,
    ) {
        let marks = path.map_or(0, |path| {
            debug_assert!(path.start < self.spec.voxel_count(), "path of another grid");
            let marks = path.steps as u64 + 1;
            let (mask, strides) = (&self.mask, &self.strides);
            if mask
                .as_ref()
                .is_none_or(|m| path_hits(path.start, path.codes, strides, &m.bits))
            {
                let (prefix, n, codes) = record_body(self.test, &self.seg, ray, t_max, &path);
                self.append(pixel, entries(self.test, marks), [&prefix[..n], codes]);
            }
            marks
        });
        self.stats.marks += marks;
        self.stats.rays_recorded += 1;
        if now_trace::enabled() {
            // a histogram is a multiset: the same for any order of rays
            now_trace::global().observe("coh.marks_per_ray", marks);
        }
    }
}

#[cfg(test)]
impl CoherenceEngine {
    /// Each stored record's `head`, `gen` (0 when it has none) and body
    /// lengths, in log order.
    pub(crate) fn record_parts(&self) -> Vec<(usize, usize, usize)> {
        Records::of(&self.log, self.test)
            .map(|(block, r)| {
                let mut gen = r.at;
                read_varint(block, &mut gen);
                (gen - r.at, r.body - gen, r.end - r.body)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::{GroupListener, GroupMap};
    use crate::region::PixelRegion;
    use now_grid::dda::{Traverse, VoxelPath, VoxelPathBuf};
    use now_math::{Aabb, Interval, Point3, Vec3};
    use now_testkit::{cases, Rng};
    use std::collections::{BTreeMap, BTreeSet};

    const TESTS: [DirtyTest; 2] = [DirtyTest::Exact, DirtyTest::Paper];

    fn spec4() -> GridSpec {
        GridSpec::cubic(Aabb::new(Point3::ZERO, Point3::splat(4.0)), 4)
    }

    /// A 100-pixel engine over a 4x4x4 grid of unit voxels.
    fn engine(test: DirtyTest) -> CoherenceEngine {
        CoherenceEngine::new(spec4(), 100, test, None, false)
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

        /// The dirty set when the objects filling the `changed` voxels
        /// move: the voxels' boxes are the movers.
        fn dirty_of(&mut self, changed: &[Voxel]) -> Vec<PixelId> {
            let movers: Vec<Bound> = changed
                .iter()
                .map(|&v| Bound::Box(self.spec.voxel_bounds(v)))
                .collect();
            self.dirty_pixels(changed, &movers)
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
            .map(|&v| e.dirty_of(&[v]))
            .collect()
    }

    /// The accounts the engine keeps incrementally, recomputed from the
    /// log, the record grammar of its test, and the block layout: every
    /// block holds whole records and is `BLOCK` bytes, or exactly the one
    /// record longer than that.
    fn assert_accounts_exact(e: &CoherenceEngine) {
        let mut live = vec![0u32; e.live.len()];
        let (mut stale, mut stored, mut bytes) = (0, 0, 0);
        let mut tail = (0, 0);
        for block in &e.log {
            let mut cur = Cursor {
                pos: 0,
                pixel: tail.0,
                gen: tail.1,
            };
            while cur.pos < block.len() {
                let rec = cur.read(block, e.test);
                stored += entries(e.test, rec.steps as u64 + 1);
                if e.test == DirtyTest::Exact {
                    assert_eq!(rec.end - rec.body, SEG_BYTES, "an exact record is its seg");
                }
                if rec.gen == e.gen[rec.pixel as usize] {
                    live[rec.pixel as usize] += (rec.end - rec.at) as u32;
                } else {
                    stale += rec.end - rec.at;
                }
                if block.capacity() != BLOCK {
                    assert!(rec.at == 0 && rec.end == block.capacity() && rec.end > BLOCK);
                }
            }
            assert_eq!(cur.pos, block.len(), "a record straddles two blocks");
            assert!(!block.is_empty());
            bytes += block.len();
            tail = (cur.pixel, cur.gen);
        }
        assert_eq!(tail, e.tail);
        assert_eq!(live, e.live);
        assert_eq!(stale, e.stale_bytes);
        assert_eq!(stored, e.stats.entries);
        assert_eq!(bytes as u64, e.stats.list_bytes);
        assert!(e.changed.iter().chain(&e.seen).all(|&w| w == 0));
    }

    #[test]
    fn marking_and_dirty_lookup() {
        for test in TESTS {
            let mut e = engine(test);
            // pixel 7's ray crosses the x row of voxels at y=z=0
            e.fire(7, &x_ray(0.5, 0.5), RayKind::Primary, f64::INFINITY);
            // pixel 9's ray crosses the row at y=2.5
            e.fire(9, &x_ray(2.5, 0.5), RayKind::Primary, f64::INFINITY);

            let dirty = e.dirty_of(&[Voxel::new(2, 0, 0)]);
            assert_eq!(dirty, vec![7], "{test:?}");
            let dirty = e.dirty_of(&[Voxel::new(0, 2, 0), Voxel::new(3, 0, 0)]);
            assert_eq!(dirty, vec![7, 9], "{test:?}");
            let dirty = e.dirty_of(&[Voxel::new(0, 0, 3)]);
            assert!(dirty.is_empty(), "{test:?}");
        }
    }

    /// A paper engine answers from the voxels alone: a mover anywhere in a
    /// changed voxel dirties every ray through it, one nowhere near the
    /// ray included; an exact engine answers from the movers.
    #[test]
    fn a_paper_engine_ignores_the_movers_and_an_exact_one_reads_them() {
        let changed = [Voxel::new(2, 0, 0)];
        let corner = Bound::Ball {
            center: Point3::new(2.9, 0.9, 0.9),
            radius: 0.05,
        };
        for (test, want) in [(DirtyTest::Paper, vec![7]), (DirtyTest::Exact, vec![])] {
            let mut e = engine(test);
            e.fire(7, &x_ray(0.2, 0.2), RayKind::Primary, f64::INFINITY);
            assert_eq!(e.dirty_pixels(&changed, &[corner]), want, "{test:?}");
            assert_eq!(
                e.dirty_pixels(&changed, &[]),
                match test {
                    DirtyTest::Paper => vec![7],
                    DirtyTest::Exact => vec![],
                }
            );
        }
    }

    #[test]
    fn t_max_limits_marking() {
        for test in TESTS {
            let mut e = engine(test);
            // ray stops at t = 1.5 (origin -1, so x reaches 0.5): only voxel 0
            e.fire(3, &x_ray(0.5, 0.5), RayKind::Primary, 1.5);
            assert_eq!(e.dirty_of(&[Voxel::new(0, 0, 0)]), vec![3], "{test:?}");
            assert!(e.dirty_of(&[Voxel::new(1, 0, 0)]).is_empty(), "{test:?}");
        }
    }

    #[test]
    fn multiple_rays_of_one_pixel_report_it_once() {
        for (test, body) in [
            (DirtyTest::Exact, SEG_BYTES as u64),
            (DirtyTest::Paper, 1 + 1 + 2),
        ] {
            let mut e = engine(test);
            e.fire(5, &x_ray(0.5, 0.5), RayKind::Primary, f64::INFINITY);
            e.fire(5, &x_ray(0.5, 0.5), RayKind::Shadow, f64::INFINITY);
            e.fire(5, &x_ray(0.6, 0.6), RayKind::Reflected, f64::INFINITY);
            assert_eq!(e.dirty_of(&[Voxel::new(1, 0, 0)]), vec![5]);
            // consecutive rays of one pixel pay a 1-byte head each
            assert_eq!(e.stats().list_bytes, 3 * (1 + body), "{test:?}");
            // a different pixel is reported beside it
            e.fire(6, &x_ray(0.5, 0.5), RayKind::Primary, f64::INFINITY);
            assert_eq!(e.dirty_of(&[Voxel::new(1, 0, 0)]), vec![5, 6]);
        }
    }

    #[test]
    fn invalidation_makes_records_stale() {
        for test in TESTS {
            let mut e = engine(test);
            e.fire(4, &x_ray(0.5, 0.5), RayKind::Primary, f64::INFINITY);
            e.invalidate_pixels(&[4]);
            // old record no longer reported dirty
            assert!(e.dirty_of(&[Voxel::new(1, 0, 0)]).is_empty());
            // re-record under the new generation: visible again
            e.fire(4, &x_ray(2.5, 2.5), RayKind::Primary, f64::INFINITY);
            assert_eq!(e.dirty_of(&[Voxel::new(1, 2, 2)]), vec![4], "{test:?}");
            // the old path stays stale
            assert!(e.dirty_of(&[Voxel::new(1, 0, 0)]).is_empty());
            assert_accounts_exact(&e);
        }
    }

    #[test]
    fn compact_purges_stale_records() {
        // a 4-voxel ray is one exact entry or four paper ones
        for (test, per_ray) in [(DirtyTest::Exact, 1), (DirtyTest::Paper, 4)] {
            let mut e = engine(test);
            e.fire(1, &x_ray(0.5, 0.5), RayKind::Primary, f64::INFINITY);
            e.fire(2, &x_ray(1.5, 0.5), RayKind::Primary, f64::INFINITY);
            assert_eq!(e.stats().entries, 2 * per_ray);
            e.invalidate_pixels(&[1]);
            assert_eq!(e.stale_bytes() as u64 * 2, e.stats().list_bytes);
            e.compact();
            assert_eq!(e.stats().entries, per_ray);
            assert_eq!(e.stats().purged, per_ray);
            assert_eq!(e.stats().compactions, 1);
            assert_eq!(e.stale_bytes(), 0);
            // pixel 2 still intact
            assert_eq!(e.dirty_of(&[Voxel::new(0, 1, 0)]), vec![2], "{test:?}");
            assert_accounts_exact(&e);
        }
    }

    #[test]
    fn compact_without_stale_records_touches_nothing() {
        for test in TESTS {
            let mut e = engine(test);
            e.compact();
            e.fire(1, &x_ray(0.5, 0.5), RayKind::Primary, f64::INFINITY);
            // a bumped generation with nothing recorded under the old one
            e.invalidate_pixels(&[2]);
            let (before, memory) = (e.clone(), e.memory_bytes());
            e.compact();
            assert_eq!(e, before);
            assert_eq!(e.memory_bytes(), memory);
            assert_eq!(e.stats().compactions, 0);
        }
    }

    #[test]
    fn dirty_pixels_sorted_and_unique() {
        for test in TESTS {
            let mut e = engine(test);
            for p in [9, 3, 7, 3, 9] {
                e.fire(p, &x_ray(0.5, 0.5), RayKind::Primary, f64::INFINITY);
            }
            let dirty = e.dirty_of(&[Voxel::new(0, 0, 0), Voxel::new(1, 0, 0)]);
            assert_eq!(dirty, vec![3, 7, 9], "{test:?}");
        }
    }

    #[test]
    fn stats_track_marks_and_memory() {
        // head, then seg; or head, start, steps, 3 step codes in 2 bytes
        for (test, entries, bytes) in [
            (DirtyTest::Exact, 1, 1 + SEG_BYTES as u64),
            (DirtyTest::Paper, 4, 1 + 1 + 1 + 2),
        ] {
            let mut e = engine(test);
            // side tables only: 100 pixels x (gen + live), the two bitmaps
            // (2 + 1 words)
            assert_eq!(e.memory_bytes(), 800 + 24);
            e.fire(0, &x_ray(0.5, 0.5), RayKind::Primary, f64::INFINITY);
            let s = e.stats();
            assert_eq!(s.rays_recorded, 1);
            assert_eq!(s.marks, 4);
            assert_eq!(s.entries, entries, "{test:?}");
            assert_eq!(s.list_bytes, bytes, "{test:?}");
            assert!(e.memory_bytes() > 824);
        }
    }

    #[test]
    fn dirty_lookup_leaves_the_engine_untouched() {
        for test in TESTS {
            let mut e = engine(test);
            e.fire(8, &x_ray(0.5, 0.5), RayKind::Primary, f64::INFINITY);
            e.fire(9, &x_ray(0.5, 0.5), RayKind::Primary, f64::INFINITY);
            e.invalidate_pixels(&[9]);
            let before = e.clone();
            assert!(e.dirty_of(&[]).is_empty());
            assert_eq!(e.dirty_of(&[Voxel::new(0, 0, 0)]), vec![8], "{test:?}");
            assert_eq!(e, before);
            assert_accounts_exact(&e);
        }
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "contract checked via debug_assert")]
    #[should_panic(expected = "sorted and deduplicated")]
    fn adjacent_duplicate_voxels_violate_the_contract() {
        let mut e = engine(DirtyTest::Paper);
        e.dirty_of(&[Voxel::new(1, 0, 0), Voxel::new(1, 0, 0)]);
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "contract checked via debug_assert")]
    #[should_panic(expected = "sorted and deduplicated")]
    fn unsorted_voxels_violate_the_contract() {
        let mut e = engine(DirtyTest::Paper);
        e.dirty_of(&[Voxel::new(2, 0, 0), Voxel::new(1, 0, 0)]);
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "contract checked via debug_assert")]
    #[should_panic(expected = "sorted and deduplicated")]
    fn an_exact_engine_holds_the_same_contract() {
        let mut e = engine(DirtyTest::Exact);
        e.dirty_of(&[Voxel::new(2, 0, 0), Voxel::new(1, 0, 0)]);
    }

    #[test]
    fn sorted_contract_accepts_strictly_ascending_input() {
        for test in TESTS {
            let mut e = engine(test);
            e.fire(5, &x_ray(0.5, 0.5), RayKind::Primary, f64::INFINITY);
            // strictly ascending in the Voxel ordering: fine
            let dirty = e.dirty_of(&[Voxel::new(0, 0, 0), Voxel::new(1, 0, 0)]);
            assert_eq!(dirty, vec![5], "{test:?}");
        }
    }

    #[test]
    fn rays_outside_grid_mark_nothing() {
        for test in TESTS {
            let mut e = engine(test);
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
    }

    /// Compaction is a pure space optimization: the dirty sets reported for
    /// every voxel must be identical before and after, and the log must
    /// not grow. This is the contract that lets the renderer call
    /// `compact()` at any frame boundary.
    #[test]
    fn compaction_never_changes_dirty_pixels() {
        for test in TESTS {
            let mut rng = Rng::with_seed(0x00c0_ffee_1234_5678);
            let mut e = engine(test);
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
            assert_eq!(dirty_sets(&mut e), before, "{test:?}");
            assert_accounts_exact(&e);
        }
    }

    /// Packed step codes of a `steps`-code path from voxel 0 of a 4x4x4
    /// grid: it visits every voxel in its first 63 steps, then steps +x
    /// and -x in turn. A long record whose voxel tests are cheap: a query
    /// of any voxel hits it within 63 steps.
    fn snake_codes(steps: usize) -> Vec<u8> {
        let mut moves = Vec::with_capacity(steps);
        for z in 0..4 {
            for y in 0..4 {
                moves.extend([(z * 4 + y) % 2; 3]);
                if y < 3 {
                    moves.push(2 + z % 2);
                }
            }
            if z < 3 {
                moves.push(4);
            }
        }
        while moves.len() < steps {
            moves.push(moves.len() % 2);
        }
        moves.truncate(steps);
        moves
            .chunks(2)
            .map(|c| c[0] as u8 | (*c.get(1).unwrap_or(&6) as u8) << 4)
            .collect()
    }

    /// Compaction over every subset of a paper log of several blocks with
    /// awkward heads — pixel ids far apart (3-byte deltas next to 1-byte
    /// ones), multi-byte generations that only a dropped record
    /// introduces, and long records that fill blocks, one longer than a
    /// block. The survivors must come out as the exact blocks a fresh
    /// engine writes when it records only them, and the dirty set of every
    /// voxel must not change.
    #[test]
    fn compaction_survives_every_subset() {
        let spec = spec4();
        let pixels = 1usize << 17;
        // (pixel, generation bumps before its first record, steps of a
        // long synthetic path or 0 for a traced ray)
        let records: [(PixelId, u32, usize); 9] = [
            (3, 0, 0),
            (130_000, 300, 50_000),
            (130_001, 300, 0),
            (2, 300, 60_000),
            (1 << 16, 0, 140_000),
            (5, 1, 0),
            (6, 1, 90_000),
            (131_071, 20_000, 0),
            (7, 0, 70_000),
        ];
        let snakes: Vec<Vec<u8>> = records.iter().map(|r| snake_codes(r.2)).collect();
        let record = |e: &mut CoherenceEngine, i: usize| {
            let ray = x_ray(0.5 + (i % 4) as f64, 0.5 + (i / 4) as f64);
            let (pixel, _, steps) = records[i];
            if steps == 0 {
                e.fire(pixel, &ray, RayKind::Primary, 1.5 + i as f64 * 0.5);
            } else {
                let codes = &snakes[i];
                let path = VoxelPath {
                    start: 0,
                    steps,
                    codes,
                };
                e.on_ray(pixel, &ray, RayKind::Primary, f64::INFINITY, Some(path));
            }
        };
        let bumped = |keep: &dyn Fn(usize) -> bool| {
            let mut e = CoherenceEngine::new(spec, pixels, DirtyTest::Paper, None, false);
            for (i, &(pixel, bumps, _)) in records.iter().enumerate() {
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
            assert_eq!(e.log.len(), 4, "three blocks and a long record's own");
            let doomed: Vec<PixelId> = (0..records.len())
                .filter(|&i| dropped(i))
                .map(|i| records[i].0)
                .collect();
            e.invalidate_pixels(&doomed);
            let before = dirty_sets(&mut e);
            e.compact();
            assert_accounts_exact(&e);
            assert_eq!(dirty_sets(&mut e), before, "mask {mask:#b}");

            let mut fresh = bumped(&|i| !dropped(i));
            for i in (0..records.len()).filter(|&i| !dropped(i)) {
                record(&mut fresh, i);
            }
            assert_eq!(e.log, fresh.log, "mask {mask:#b}");
            assert_eq!(e.tail, fresh.tail, "mask {mask:#b}");
            assert_eq!(e.stats().compactions, (mask != 0) as u64);
        }
    }

    /// The exact counterpart of `compaction_survives_every_subset`: an
    /// exact record is never longer than 24 bytes, so what fills the
    /// blocks is runs of one pixel's rays, with the same awkward heads.
    /// Every subset of the runs dropped compacts to the blocks a fresh
    /// engine writes for the survivors alone, and the dirty set of every
    /// octant of the grid holds.
    #[test]
    fn exact_compaction_survives_every_subset() {
        let spec = spec4();
        let pixels = 1usize << 17;
        // (pixel, generation bumps before its first record, rays)
        let runs: [(PixelId, u32, usize); 7] = [
            (3, 0, 1),
            (130_000, 300, 4_000),
            (130_001, 300, 1),
            (2, 300, 6_000),
            (1 << 16, 0, 2),
            (131_071, 20_000, 5_000),
            (7, 0, 3_000),
        ];
        let octants: Vec<(Vec<Voxel>, Bound)> = (0..8)
            .map(|o| {
                let lo = Point3::new(
                    2.0 * (o & 1) as f64,
                    2.0 * (o >> 1 & 1) as f64,
                    2.0 * (o >> 2) as f64,
                );
                let b = Aabb::new(lo, lo + Vec3::splat(2.0));
                (voxels_of(&spec, &[Bound::Box(b)]), Bound::Box(b))
            })
            .collect();
        let octant_sets = |e: &mut CoherenceEngine| -> Vec<Vec<PixelId>> {
            octants
                .iter()
                .map(|(voxels, b)| e.dirty_pixels(voxels, &[*b]))
                .collect()
        };
        let record = |e: &mut CoherenceEngine, i: usize| {
            let (pixel, _, rays) = runs[i];
            for k in 0..rays {
                let ray = x_ray(0.5 + (i % 4) as f64, 0.25 + (k % 15) as f64 * 0.25);
                e.fire(
                    pixel,
                    &ray,
                    RayKind::Primary,
                    1.5 + (i + k % 7) as f64 * 0.5,
                );
            }
        };
        let bumped = |keep: &dyn Fn(usize) -> bool| {
            let mut e = CoherenceEngine::new(spec, pixels, DirtyTest::Exact, None, false);
            for (i, &(pixel, bumps, _)) in runs.iter().enumerate() {
                for _ in 0..if keep(i) { bumps } else { 0 } {
                    e.invalidate_pixels(&[pixel]);
                }
            }
            e
        };
        for mask in 0u32..1 << runs.len() {
            let dropped = |i: usize| mask >> i & 1 == 1;
            let mut e = bumped(&|_| true);
            for i in 0..runs.len() {
                record(&mut e, i);
            }
            assert_eq!(e.log.len(), 4, "{} blocks", e.log.len());
            let doomed: Vec<PixelId> = (0..runs.len())
                .filter(|&i| dropped(i))
                .map(|i| runs[i].0)
                .collect();
            e.invalidate_pixels(&doomed);
            let before = octant_sets(&mut e);
            e.compact();
            assert_accounts_exact(&e);
            assert_eq!(octant_sets(&mut e), before, "mask {mask:#b}");

            let mut fresh = bumped(&|i| !dropped(i));
            for i in (0..runs.len()).filter(|&i| !dropped(i)) {
                record(&mut fresh, i);
            }
            assert_eq!(e.log, fresh.log, "mask {mask:#b}");
            assert_eq!(e.tail, fresh.tail, "mask {mask:#b}");
            assert_eq!(e.stats().compactions, (mask != 0) as u64);
        }
    }

    /// A log of several blocks is the record stream a single buffer holds:
    /// its blocks concatenated are the bytes of the grammar written record
    /// after record, and they decode to the records fed in. Every block
    /// but a long paper record's own is `BLOCK` bytes, and the engine
    /// holds less than one block beyond its stored bytes and side tables,
    /// plus what each earlier block leaves unused at its end.
    #[test]
    fn a_log_of_several_blocks_is_one_record_stream() {
        for (test, rays) in [(DirtyTest::Paper, 400), (DirtyTest::Exact, 20_000)] {
            let mut rng = Rng::with_seed(0xb10c_0000_0064);
            let mut e = engine(test);
            let side_tables = e.memory_bytes();
            let mut stream = Vec::new();
            let mut fed = Vec::new();
            let mut tail = (0, 0);
            let mut buf = VoxelPathBuf::default();
            for k in 0..rays {
                let pixel = rng.u32_in(0, 100);
                if rng.u32_in(0, 4) == 0 {
                    e.invalidate_pixels(&[pixel]);
                }
                let ray = x_ray(rng.f64_in(0.0, 4.0), rng.f64_in(0.0, 4.0));
                let snake;
                let path = if test == DirtyTest::Paper && k == 200 {
                    // longer than a block
                    snake = snake_codes(140_001);
                    VoxelPath {
                        start: 0,
                        steps: 140_001,
                        codes: &snake,
                    }
                } else if test == DirtyTest::Paper && rng.u32_in(0, 3) == 0 {
                    let steps = rng.usize_in(100, 9_000);
                    snake = snake_codes(steps);
                    VoxelPath {
                        start: 0,
                        steps,
                        codes: &snake,
                    }
                } else {
                    buf.record(&e.spec, &ray, Interval::new(0.0, f64::INFINITY));
                    buf.path().expect("the ray crosses the grid")
                };
                e.on_ray(pixel, &ray, RayKind::Primary, f64::INFINITY, Some(path));

                let gen = e.gen[pixel as usize];
                let mut head = [0u8; MAX_HEAD];
                let n = put_head(&mut head, tail, pixel, gen);
                stream.extend_from_slice(&head[..n]);
                let at = stream.len();
                let (prefix, n, codes) = record_body(test, &e.seg, &ray, f64::INFINITY, &path);
                stream.extend_from_slice(&prefix[..n]);
                stream.extend_from_slice(codes);
                tail = (pixel, gen);
                let body = stream[at..].to_vec();
                fed.push((pixel, gen, body));
            }
            assert!(e.log.len() >= 3, "{test:?}: {} blocks", e.log.len());
            assert_eq!(
                e.log.iter().filter(|b| b.capacity() != BLOCK).count(),
                (test == DirtyTest::Paper) as usize,
                "only a long record has a block of its own"
            );
            assert_eq!(e.log.concat(), stream);
            let decoded: Vec<_> = Records::of(&e.log, test)
                .map(|(block, r)| {
                    assert_eq!(block[r.codes..r.end].len(), r.steps.div_ceil(2));
                    (r.pixel, r.gen, block[r.body..r.end].to_vec())
                })
                .collect();
            assert_eq!(decoded, fed);
            assert_accounts_exact(&e);

            // memory beyond the stored bytes and the side tables is the
            // blocks' unused tails: under one block in the last, and in
            // every other less than the record that opened the next block
            let slack_bounded = |e: &CoherenceEngine| {
                let tail = |b: &Vec<u8>| b.capacity() - b.len();
                let slack = e.memory_bytes() - side_tables - e.stats().list_bytes as usize;
                assert_eq!(slack, e.log.iter().map(tail).sum::<usize>());
                assert!(e.log.last().is_none_or(|b| tail(b) < BLOCK));
                for w in e.log.windows(2) {
                    let opener = Cursor::default().read(&w[1], test).end;
                    assert!(tail(&w[0]) < opener);
                }
            };
            slack_bounded(&e);
            let (blocks, memory) = (e.log.len(), e.memory_bytes());
            e.invalidate_pixels(&(0..50).collect::<Vec<PixelId>>());
            let before = dirty_sets(&mut e);
            e.compact();
            assert_accounts_exact(&e);
            assert_eq!(dirty_sets(&mut e), before);
            assert!(e.log.len() <= blocks && e.memory_bytes() <= memory);
            slack_bounded(&e);
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

    /// An exact engine's data structure, naively: per pixel, the live rays
    /// that crossed the grid, each tested through the segment codec.
    struct RayModel {
        spec: GridSpec,
        codec: SegmentCodec,
        live: BTreeMap<PixelId, Vec<(Ray, f64)>>,
        marks: u64,
    }

    impl RayListener for RayModel {
        fn on_ray(
            &mut self,
            pixel: PixelId,
            ray: &Ray,
            _: RayKind,
            t_max: f64,
            _: Option<VoxelPath<'_>>,
        ) {
            let walked = self.spec.traverse_vec(ray, Interval::new(0.0, t_max)).len();
            self.marks += walked as u64;
            if walked > 0 {
                self.live.entry(pixel).or_default().push((*ray, t_max));
            }
        }
    }

    impl RayModel {
        fn invalidate(&mut self, pixels: &[PixelId]) {
            for p in pixels {
                self.live.remove(p);
            }
        }

        fn dirty(&self, movers: &[Bound]) -> Vec<PixelId> {
            let pad = self.codec.pad();
            self.live
                .iter()
                .filter(|(_, rays)| {
                    rays.iter().any(|(ray, t_max)| {
                        let mut seg = [0u8; SEG_BYTES];
                        self.codec.put(&mut seg, ray, *t_max);
                        let (p0, p1) = self.codec.get(&seg);
                        movers.iter().any(|b| b.near_segment(p0, p1, pad))
                    })
                })
                .map(|(&p, _)| p)
                .collect()
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

    const KINDS: [RayKind; 4] = [
        RayKind::Primary,
        RayKind::Reflected,
        RayKind::Transmitted,
        RayKind::Shadow,
    ];

    /// A random grid over the 4-unit cube, a region of a 12x9 frame (the
    /// whole frame every fourth case, what a full-frame renderer numbers),
    /// its pixel ids and its group map.
    fn random_layout(rng: &mut Rng, case: u32) -> (GridSpec, Vec<PixelId>, GroupMap) {
        let spec = GridSpec::new(
            Aabb::new(Point3::ZERO, Point3::splat(4.0)),
            [
                rng.u32_in(1, 7) as u16,
                rng.u32_in(1, 7) as u16,
                rng.u32_in(1, 7) as u16,
            ],
        );
        let region = if case % 4 == 1 {
            PixelRegion::full(12, 9)
        } else {
            let (x0, y0) = (rng.u32_in(0, 6), rng.u32_in(0, 5));
            PixelRegion {
                x0,
                y0,
                w: rng.u32_in(1, 13 - x0),
                h: rng.u32_in(1, 10 - y0),
            }
        };
        let ids: Vec<PixelId> = region.pixel_ids(12).collect();
        let map = GroupMap::new(12, region, *rng.pick(&[1, 1, 2, 4]));
        (spec, ids, map)
    }

    /// A pixel's burst of rays, as the tracer fires them, to `engine` and
    /// `model` alike through the renderer's own `GroupListener`.
    fn fire_burst(
        rng: &mut Rng,
        spec: &GridSpec,
        pixel: PixelId,
        map: GroupMap,
        track_shadows: bool,
        engine: &mut CoherenceEngine,
        model: &mut impl RayListener,
    ) {
        for _ in 0..rng.usize_in(1, 5) {
            let ray = random_ray(rng);
            let kind = *rng.pick(&KINDS);
            let t_max = if rng.bool() {
                f64::INFINITY
            } else {
                rng.f64_in(0.0, 8.0)
            };
            let mut to_engine = GroupListener {
                engine: &mut *engine,
                map,
                track_shadows,
            };
            fire_at(&mut to_engine, spec, pixel, &ray, kind, t_max);
            let mut to_model = GroupListener {
                engine: &mut *model,
                map,
                track_shadows,
            };
            fire_at(&mut to_model, spec, pixel, &ray, kind, t_max);
        }
    }

    /// Differential oracle: random rays, invalidations, compactions and
    /// queries against the naive per-voxel model, through the renderer's
    /// own `GroupListener` so Jevans blocks (one group's rays scattered
    /// over the log) and shadow filtering are part of what is compared.
    #[test]
    fn engine_matches_the_naive_per_voxel_model() {
        let case = std::cell::Cell::new(0);
        cases(60, |rng| {
            case.set(case.get() + 1);
            let (spec, ids, map) = random_layout(rng, case.get());
            let track_shadows = rng.u32_in(0, 4) != 0;
            let mut engine =
                CoherenceEngine::new(spec, map.group_count(), DirtyTest::Paper, None, false);
            let mut model = Model {
                spec,
                lists: BTreeMap::new(),
                marks: 0,
            };
            let voxels = every_voxel(&spec);
            for _ in 0..rng.usize_in(50, 400) {
                match rng.u32_in(0, 10) {
                    0..=5 => {
                        let pixel = *rng.pick(&ids);
                        fire_burst(
                            rng,
                            &spec,
                            pixel,
                            map,
                            track_shadows,
                            &mut engine,
                            &mut model,
                        );
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
                        assert_eq!(engine.dirty_pixels(&changed, &[]), model.dirty(&changed));
                    }
                }
                assert_eq!(engine.stats().marks, model.marks);
            }
            assert_accounts_exact(&engine);
            for &v in &voxels {
                assert_eq!(engine.dirty_pixels(&[v], &[]), model.dirty(&[v]), "{v:?}");
            }
            assert_eq!(engine.dirty_pixels(&voxels, &[]), model.dirty(&voxels));
        });
    }

    /// The exact counterpart: the same random rays, invalidations and
    /// compactions against a naive per-pixel list of live rays whose
    /// segments go through the same codec; the queries are random movers
    /// inside the grid box, and their voxels.
    #[test]
    fn exact_engine_matches_the_naive_per_ray_model() {
        let case = std::cell::Cell::new(0);
        cases(60, |rng| {
            case.set(case.get() + 1);
            let (spec, ids, map) = random_layout(rng, case.get());
            let track_shadows = rng.u32_in(0, 4) != 0;
            let mut engine =
                CoherenceEngine::new(spec, map.group_count(), DirtyTest::Exact, None, false);
            let mut model = RayModel {
                spec,
                codec: engine.seg,
                live: BTreeMap::new(),
                marks: 0,
            };
            let inside = spec.bounds.expand(-0.6);
            let query = |rng: &mut Rng, engine: &mut CoherenceEngine, model: &RayModel| {
                let movers: Vec<Bound> = (0..rng.usize_in(1, 4))
                    .map(|_| random_bound(rng, &inside, 0.6))
                    .collect();
                let voxels = voxels_of(&spec, &movers);
                assert_eq!(engine.dirty_pixels(&voxels, &movers), model.dirty(&movers));
            };
            for _ in 0..rng.usize_in(50, 400) {
                match rng.u32_in(0, 10) {
                    0..=5 => {
                        let pixel = *rng.pick(&ids);
                        fire_burst(
                            rng,
                            &spec,
                            pixel,
                            map,
                            track_shadows,
                            &mut engine,
                            &mut model,
                        );
                    }
                    6 | 7 => {
                        let groups = rng.vec(0, 6, |rng| rng.u32_in(0, map.group_count() as u32));
                        engine.invalidate_pixels(&groups);
                        model.invalidate(&groups);
                    }
                    8 => engine.compact(),
                    _ => query(rng, &mut engine, &model),
                }
                assert_eq!(engine.stats().marks, model.marks);
            }
            assert_accounts_exact(&engine);
            for _ in 0..20 {
                query(rng, &mut engine, &model);
            }
            assert_eq!(engine.stats().fallbacks, 0);
        });
    }

    /// `p` with its `a` coordinate replaced by `v`.
    fn with_axis(p: Point3, a: usize, v: f64) -> Point3 {
        let mut c = [p.x, p.y, p.z];
        c[a] = v;
        Point3::new(c[0], c[1], c[2])
    }

    /// The `seg` oracle: every point of a ray's true segment over `[0,
    /// t_max]` that lies inside the grid box is within the codec's pad of
    /// the decoded segment — for origins inside the box, outside it and
    /// exactly on a face, axis-parallel, grazing and general directions,
    /// and `t_max` of 0, finite and infinite. With `PAD_QUANTA` at 0 it
    /// fails: rounding alone moves the endpoints.
    #[test]
    fn decoded_segments_stay_within_the_pad_of_the_true_ones() {
        let bounds = Aabb::new(Point3::new(-1.0, 0.5, -3.0), Point3::new(7.0, 2.0, 9.0));
        let codec = SegmentCodec { bounds };
        let (lo, hi) = (bounds.min, bounds.max);
        let mut rng = Rng::with_seed(0x0005_e60c_0dec);
        // [on a face, t_max = 0, t_max = inf, axis-parallel, grazing]
        let mut reached = [0u32; 5];
        let mut points = 0u64;
        for _ in 0..3000 {
            let mut origin = Point3::new(
                rng.f64_in(lo.x - 3.0, hi.x + 3.0),
                rng.f64_in(lo.y - 3.0, hi.y + 3.0),
                rng.f64_in(lo.z - 3.0, hi.z + 3.0),
            );
            let on_face = rng.u32_in(0, 3) == 0;
            if on_face {
                let a = rng.usize_in(0, 3);
                let face = if rng.bool() { lo } else { hi };
                origin = with_axis(origin, a, [face.x, face.y, face.z][a]);
            }
            let axis = rng.usize_in(0, 3);
            let sign = if rng.bool() { 1.0 } else { -1.0 };
            let unit = with_axis(Vec3::ZERO, axis, sign);
            let kind = rng.u32_in(0, 4);
            let dir = match kind {
                0 => unit,
                1 => (unit + with_axis(Vec3::ZERO, (axis + 1) % 3, 1e-9)).normalized(),
                _ => random_ray(&mut rng).dir,
            };
            let t_max = match rng.u32_in(0, 4) {
                0 => 0.0,
                1 => f64::INFINITY,
                _ => rng.f64_in(0.0, 20.0),
            };
            let ray = Ray::new(origin, dir);
            let clip = bounds.ray_range(&ray, Interval::new(0.0, t_max));
            if clip.is_empty() {
                continue;
            }
            let mut seg = [0u8; SEG_BYTES];
            codec.put(&mut seg, &ray, t_max);
            let (d0, d1) = codec.get(&seg);
            let end = t_max.min(clip.max + 1.0);
            let mut inside = 0;
            for k in 0..=256 {
                let u = k as f64 / 256.0;
                for t in [end * u, clip.min + (clip.max - clip.min) * u] {
                    let p = ray.at(t);
                    if !bounds.contains(p) {
                        continue;
                    }
                    let point = Bound::Ball {
                        center: p,
                        radius: 0.0,
                    };
                    assert!(
                        point.near_segment(d0, d1, codec.pad()),
                        "{ray:?} t_max {t_max}: the point at t = {t} is off the decoded segment"
                    );
                    inside += 1;
                }
            }
            points += inside;
            let seen = [
                on_face,
                t_max == 0.0,
                t_max.is_infinite(),
                kind == 0,
                kind == 1,
            ];
            for (n, hit) in reached.iter_mut().zip(seen) {
                *n += (hit && inside > 0) as u32;
            }
        }
        assert!(reached.iter().all(|&n| n >= 20), "{reached:?}");
        assert!(points > 100_000, "{points} points checked");
    }

    /// A ball, capsule or box somewhere in `b`, up to `size` across.
    fn random_bound(rng: &mut Rng, b: &Aabb, size: f64) -> Bound {
        let mut p = || {
            Point3::new(
                rng.f64_in(b.min.x, b.max.x),
                rng.f64_in(b.min.y, b.max.y),
                rng.f64_in(b.min.z, b.max.z),
            )
        };
        let (a, c) = (p(), p());
        let r = rng.f64_in(0.05, size);
        match rng.u32_in(0, 3) {
            0 => Bound::Ball {
                center: a,
                radius: r,
            },
            1 => Bound::Capsule {
                a,
                b: a.lerp(c, 0.3),
                radius: r * 0.3,
            },
            _ => Bound::Box(Aabb::new(a, a + (c - a).abs() * (size / 4.0))),
        }
    }

    /// The changed voxels of `movers`: every voxel their boxes overlap.
    fn voxels_of(spec: &GridSpec, movers: &[Bound]) -> Vec<Voxel> {
        let mut voxels: Vec<Voxel> = movers
            .iter()
            .flat_map(|b| spec.voxels_overlapping_vec(&b.aabb()))
            .collect();
        voxels.sort_unstable();
        voxels.dedup();
        voxels
    }

    /// Differential oracle of the exact dirty set: it is a superset of the
    /// set an f64 reference computes from the unquantised rays (path
    /// through a changed voxel, segment meeting an unpadded bound), and a
    /// subset of what a paper engine fed the same rays answers. An engine
    /// masked by the union of every query's voxels answers every query
    /// alike.
    #[test]
    fn exact_dirty_sets_sit_between_the_f64_reference_and_the_voxel_set() {
        let box4 = Aabb::new(Point3::ZERO, Point3::splat(4.0));
        let (mut tighter, mut referenced) = (0, 0);
        for seed in 0..40 {
            let mut rng = Rng::with_seed(0xd1_ff00 + seed);
            let spec = GridSpec::new(
                box4,
                [
                    rng.u32_in(1, 9) as u16,
                    rng.u32_in(1, 9) as u16,
                    rng.u32_in(1, 9) as u16,
                ],
            );
            let queries: Vec<Vec<Bound>> = (0..8)
                .map(|_| {
                    let n = rng.usize_in(1, 4);
                    (0..n)
                        .map(|_| random_bound(&mut rng, &box4.expand(-0.8), 0.8))
                        .collect()
                })
                .collect();
            let mut bits = vec![0u64; spec.voxel_count().div_ceil(64)];
            for v in queries.iter().flat_map(|q| voxels_of(&spec, q)) {
                let i = spec.linear_index(v);
                bits[i >> 6] |= 1 << (i & 63);
            }
            let pixels = 60;
            let mut plain = CoherenceEngine::new(spec, pixels, DirtyTest::Exact, None, false);
            let mut masked = CoherenceEngine::new(
                spec,
                pixels,
                DirtyTest::Exact,
                Some(Arc::new(MoverMask {
                    bits,
                    changes: Vec::new(),
                })),
                false,
            );
            let mut paper = CoherenceEngine::new(spec, pixels, DirtyTest::Paper, None, false);
            // the rays each pixel's current generation fired
            let mut live: Vec<Vec<(Ray, f64)>> = vec![Vec::new(); pixels];
            for query in &queries {
                for _ in 0..rng.usize_in(20, 120) {
                    let pixel = rng.u32_in(0, pixels as u32);
                    let ray = random_ray(&mut rng);
                    let t_max = if rng.bool() {
                        f64::INFINITY
                    } else {
                        rng.f64_in(0.0, 8.0)
                    };
                    plain.fire(pixel, &ray, RayKind::Primary, t_max);
                    fire_at(&mut masked, &spec, pixel, &ray, RayKind::Primary, t_max);
                    paper.fire(pixel, &ray, RayKind::Primary, t_max);
                    live[pixel as usize].push((ray, t_max));
                }
                let doomed = rng.vec(0, 6, |rng| rng.u32_in(0, pixels as u32));
                plain.invalidate_pixels(&doomed);
                masked.invalidate_pixels(&doomed);
                paper.invalidate_pixels(&doomed);
                for &p in &doomed {
                    live[p as usize].clear();
                }
                let voxels = voxels_of(&spec, query);
                let exact = plain.dirty_pixels(&voxels, query);
                assert_eq!(masked.dirty_pixels(&voxels, query), exact, "seed {seed}");
                let coarse = paper.dirty_pixels(&voxels, query);
                assert!(exact.iter().all(|p| coarse.contains(p)), "seed {seed}");
                let reference: Vec<PixelId> = (0..pixels as PixelId)
                    .filter(|&p| {
                        live[p as usize].iter().any(|(ray, t_max)| {
                            let range = Interval::new(0.0, *t_max);
                            let through = spec
                                .traverse_vec(ray, range)
                                .iter()
                                .any(|v| voxels.binary_search(v).is_ok());
                            let clip = spec.bounds.ray_range(ray, range);
                            through
                                && !clip.is_empty()
                                && query.iter().any(|b| {
                                    b.near_segment(ray.at(clip.min), ray.at(clip.max), 0.0)
                                })
                        })
                    })
                    .collect();
                assert!(
                    reference.iter().all(|p| exact.contains(p)),
                    "seed {seed}: {reference:?} not within {exact:?}"
                );
                tighter += (exact.len() < coarse.len()) as u32;
                referenced += !reference.is_empty() as u32;
            }
            assert_eq!(plain.stats().marks, masked.stats().marks);
            assert!(masked.stats().entries <= plain.stats().entries);
            assert_eq!(plain.stats().fallbacks, 0);
            assert_accounts_exact(&plain);
            assert_accounts_exact(&masked);
            assert_accounts_exact(&paper);
        }
        assert!(
            tighter >= 50,
            "the bound test dropped pixels in only {tighter} queries"
        );
        assert!(
            referenced >= 100,
            "{referenced} queries with a reference pixel"
        );
    }

    /// The changed voxel at the grid's far corner, a mover inside the grid
    /// box there, and one reaching out of it.
    fn corner_query() -> ([Voxel; 1], Bound, Bound) {
        let far = Bound::Ball {
            center: Point3::new(3.5, 3.5, 3.5),
            radius: 0.2,
        };
        let leaving = Bound::Ball {
            center: Point3::new(4.0, 3.5, 3.5),
            radius: 0.2,
        };
        ([Voxel::new(3, 0, 0)], far, leaving)
    }

    /// A mover reaching outside the grid box, where no segment is stored,
    /// makes an exact engine answer with every pixel, and is counted.
    #[test]
    fn a_mover_outside_the_grid_dirties_every_pixel_of_an_exact_engine() {
        let mut e = engine(DirtyTest::Exact);
        e.fire(7, &x_ray(0.5, 0.5), RayKind::Primary, f64::INFINITY);
        let (voxels, far, leaving) = corner_query();
        assert!(e.dirty_pixels(&voxels, &[far]).is_empty());
        assert_eq!(e.stats().fallbacks, 0);
        let all: Vec<PixelId> = (0..100).collect();
        assert_eq!(e.dirty_pixels(&voxels, &[far, leaving]), all);
        assert_eq!(e.stats().fallbacks, 1);
        // nothing changed, nothing to answer
        assert!(e.dirty_pixels(&[], &[leaving]).is_empty());
        assert_eq!(e.stats().fallbacks, 1);
    }

    /// A paper engine gives the voxel answer whatever the movers, inside
    /// the grid box or not, and never falls back.
    #[test]
    fn a_mover_outside_the_grid_gets_the_voxel_answer_from_a_paper_engine() {
        let mut e = engine(DirtyTest::Paper);
        e.fire(7, &x_ray(0.5, 0.5), RayKind::Primary, f64::INFINITY);
        e.fire(8, &x_ray(3.5, 3.5), RayKind::Primary, f64::INFINITY);
        let (voxels, far, leaving) = corner_query();
        assert_eq!(e.dirty_pixels(&voxels, &[far]), vec![7]);
        assert_eq!(e.dirty_pixels(&voxels, &[leaving]), vec![7]);
        assert_eq!(e.stats().fallbacks, 0);
    }
}
