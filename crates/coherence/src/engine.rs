//! The frame-coherence data structure: which recorded rays each frame's
//! change dirties.
//!
//! The paper keeps, per voxel, the list of pixels whose rays crossed it,
//! and asks of each changed voxel "which pixels are on your list?". This
//! engine asks the transposed question of each recorded ray — "can you see
//! the change?" — and keeps one `due` per pixel group: the first
//! transition at which one of the group's live rays is dirtied. The dirty
//! set of transition `t` is the groups whose `due` is `t`.
//!
//! A ray is *settled* against the transitions its engine knows: tested
//! against them from the frame being recorded up to its group's current
//! `due`, the first that dirties it lowering `due`. Engines differ only
//! in when they know a transition:
//!
//! * **Masked** (built with a [`MoverMask`], what every farm, service and
//!   `render_sequence` renderer is): the mask holds every transition of
//!   the sequence, so a ray is settled for good when it is recorded and
//!   nothing of it is kept. A ray whose path misses the mask can never
//!   cross a changed voxel: it is walked (and counted in
//!   [`CoherenceStats::marks`]) but not tested.
//! * **Learning** (the shims [`CoherentRenderer::new`] and
//!   [`CoherentRenderer::with_region_and_block`], which render one scene
//!   at a time with no sequence known in advance): it learns each
//!   transition when the renderer has computed its change set, after the
//!   rays it dirties were recorded. So it keeps, per group not yet due,
//!   the bodies of the group's live rays, and tests them against each
//!   transition as it learns it; a group it finds dirty drops them, and
//!   re-rendering a group replaces them.
//!
//! Either way the test is the engine's [`DirtyTest`] (DESIGN.md §14):
//!
//! * [`DirtyTest::Exact`] (the default): a group is dirty iff one of its
//!   live rays has its segment come within a changed object's padded
//!   bound. A body is the ray's segment, and nothing of its voxel path.
//! * [`DirtyTest::Paper`]: the paper's test — a group is dirty iff one of
//!   its live rays crosses a changed voxel. A body is the ray's voxel
//!   path.
//!
//! Body grammar (integers are LEB128 varints, see [`crate::varint`]):
//!
//! ```text
//! exact  = seg
//! paper  = start steps codes
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
//! that is tested, so recording a ray costs no second traversal. A masked
//! engine tests the segment as `seg` round-trips it, and the same path, so
//! both kinds of engine give the same dirty sets.
//!
//! [`CoherentRenderer::new`]: crate::CoherentRenderer::new
//! [`CoherentRenderer::with_region_and_block`]: crate::CoherentRenderer::with_region_and_block

use crate::bound::{Bound, Slab};
use crate::change::{ChangeSet, MoverMask};
use crate::varint::{read_varint, write_varint};
use now_grid::dda::{step_strides, VoxelPath};
use now_grid::GridSpec;
use now_math::{Aabb, Axis, Interval, Point3, Ray, Vec3};
use now_raytrace::{PixelId, RayKind, RayListener};
use std::sync::Arc;

/// Which test makes a group dirty, and so what a learning engine keeps of
/// a ray (module docs). Fixed when the engine is built.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum DirtyTest {
    /// A live ray's segment comes within a changed object's padded bound;
    /// a body is `seg`. Where a bound reaches outside the grid box the
    /// segments are clipped to, the answer is every group.
    #[default]
    Exact,
    /// The paper's test: a live ray crosses a changed voxel; a body is
    /// `start steps codes`.
    Paper,
}

/// Bookkeeping statistics; Table 1's "overhead" column comes from the work
/// these counters represent, and the cluster cost model charges time
/// proportional to `marks`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoherenceStats {
    /// Voxel-mark operations performed (per ray per voxel crossed): every
    /// walked mark, tested or not.
    pub marks: u64,
    /// Rays observed.
    pub rays_recorded: u64,
    /// Rays tested against transitions: a masked engine's rays whose path
    /// enters its mask, each settled as it is recorded; a learning
    /// engine's rays that cross the grid into a group not yet due, each
    /// kept until its group is dirtied or re-rendered.
    pub entries: u64,
    /// Dirty-set answers of an exact engine that were every group because
    /// a changed bound reached outside the grid box the segments are
    /// clipped to.
    pub fallbacks: u64,
}

/// Bytes of a `seg`.
const SEG_BYTES: usize = 12;

/// Largest quantised coordinate (16 bits per axis).
const SEG_MAX: f64 = 65535.0;

/// Quanta per axis by which a decoded segment may stray from the true
/// one and still be found near a bound. Rounding moves each endpoint by at
/// most half a quantum per axis, so every point of the true clipped
/// segment lies within half a quantum per axis of the decoded segment; the
/// other half covers the f64 error of clipping and of the distance tests.
const PAD_QUANTA: f64 = 1.0;

/// A group's `due` while none of its live rays is dirtied by any
/// transition the engine knows.
const NEVER: u32 = u32::MAX;
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

/// One transition of a sequence, ready for an engine to test its rays
/// against: what [`MoverMask`] keeps beside each [`ChangeSet`], and what a
/// learning engine is handed for each transition it learns.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Trigger {
    /// An empty change set: no ray is dirtied.
    Nothing,
    /// [`ChangeSet::Everything`]: every group is dirtied.
    Everything,
    /// Some voxels change.
    Voxels {
        /// The changed voxels, one bit per voxel by linear index: what the
        /// paper test's paths are tested against.
        bits: Vec<u64>,
        /// Every mover's bound with its reject box
        /// ([`Bound::reject_box`] at the codec's pad): what the exact
        /// test's segments are tested against.
        movers: Vec<(Bound, Aabb)>,
        /// Whether every mover lies inside the grid box the segments are
        /// clipped to; an exact engine dirties every group when one does
        /// not.
        covered: bool,
    },
}

impl Trigger {
    /// The trigger of `change` over the grid `spec`.
    pub(crate) fn of(spec: &GridSpec, change: &ChangeSet) -> Trigger {
        let seg = SegmentCodec {
            bounds: spec.bounds,
        };
        match change {
            ChangeSet::Everything => Trigger::Everything,
            ChangeSet::Voxels { voxels, .. } if voxels.is_empty() => Trigger::Nothing,
            ChangeSet::Voxels { voxels, movers } => {
                let mut bits = vec![0u64; spec.voxel_count().div_ceil(64)];
                for &v in voxels {
                    let i = spec.linear_index(v);
                    bits[i >> 6] |= 1 << (i & 63);
                }
                Trigger::Voxels {
                    bits,
                    movers: movers
                        .iter()
                        .map(|b| (*b, b.reject_box(seg.pad())))
                        .collect(),
                    covered: movers.iter().all(|b| seg.covers(b)),
                }
            }
        }
    }

    /// Whether the trigger dirties every group of a `test` engine, whatever
    /// its rays.
    fn dirties_all(&self, test: DirtyTest) -> bool {
        match self {
            Trigger::Nothing => false,
            Trigger::Everything => true,
            Trigger::Voxels { covered, .. } => test == DirtyTest::Exact && !covered,
        }
    }
}

/// The exact test of one segment `p0`–`p1` (`slab` its slab set-up)
/// against `movers`, cheapest filter first: each mover's reject box, then
/// its exact distance test, each exact test counted in `exact_tests`.
/// Returns whether a box let the segment through and whether it is near a
/// mover.
#[inline]
fn near_movers(
    slab: &Slab,
    (p0, p1): (Point3, Point3),
    movers: &[(Bound, Aabb)],
    pad: f64,
    exact_tests: &mut u64,
) -> (bool, bool) {
    let mut met = false;
    for (b, reject) in movers {
        if slab.meets(reject) {
            met = true;
            *exact_tests += 1;
            if b.near_segment(p0, p1, pad) {
                return (true, true);
            }
        }
    }
    (met, false)
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

/// One ray as the dirty test sees it: an exact engine's segment as `seg`
/// round-trips it, with its slab set-up, or a paper engine's path.
enum Probe<'a> {
    Seg(Slab, (Point3, Point3)),
    Path(usize, &'a [u8]),
}

impl<'a> Probe<'a> {
    /// The probe a `test` engine makes of `ray` over `[0, t_max]`, whose
    /// walk is `path`.
    fn of(
        test: DirtyTest,
        seg: &SegmentCodec,
        ray: &Ray,
        t_max: f64,
        path: &VoxelPath<'a>,
    ) -> Self {
        match test {
            DirtyTest::Exact => {
                let mut buf = [0u8; SEG_BYTES];
                seg.put(&mut buf, ray, t_max);
                Probe::segment(seg.get(&buf))
            }
            DirtyTest::Paper => Probe::Path(path.start, path.codes),
        }
    }

    fn segment(p: (Point3, Point3)) -> Self {
        Probe::Seg(Slab::new(p.0, p.1), p)
    }

    /// Decode the `test` body at `kept[*at..]` and move `at` past it.
    fn read(test: DirtyTest, seg: &SegmentCodec, kept: &'a [u8], at: &mut usize) -> Self {
        match test {
            DirtyTest::Exact => {
                let body = &kept[*at..*at + SEG_BYTES];
                *at += SEG_BYTES;
                Probe::segment(seg.get(body))
            }
            DirtyTest::Paper => {
                let start = read_varint(kept, at) as usize;
                let len = (read_varint(kept, at) as usize).div_ceil(2);
                let codes = &kept[*at..*at + len];
                *at += len;
                Probe::Path(start, codes)
            }
        }
    }

    /// Whether `trigger` dirties the ray: the exact test's box reject,
    /// then `near_segment`; the paper test's walk of the path over the
    /// changed voxels. `counts` adds the (ray, transition) pair tested,
    /// whether it passed the first filter, and the exact tests made.
    fn dirtied_by(
        &self,
        trigger: &Trigger,
        pad: f64,
        strides: &[isize; 8],
        counts: &mut [u64; 3],
    ) -> bool {
        let [pairs, coarse, exact] = counts;
        let (met, hit) = match (trigger, self) {
            (Trigger::Nothing, _) => return false,
            (Trigger::Everything, _) | (Trigger::Voxels { covered: false, .. }, Probe::Seg(..)) => {
                return true
            }
            (Trigger::Voxels { movers, .. }, Probe::Seg(slab, p)) => {
                near_movers(slab, *p, movers, pad, exact)
            }
            (Trigger::Voxels { bits, .. }, Probe::Path(start, codes)) => {
                let hit = path_hits(*start, codes, strides, bits);
                (hit, hit)
            }
        };
        *pairs += 1;
        *coarse += met as u64;
        hit
    }
}

/// The frame-coherence data structure over a uniform grid, for one
/// [`DirtyTest`]: per pixel group, the first transition that dirties one
/// of its live rays, settled against the transitions of a [`MoverMask`]
/// as the rays are recorded, or against each transition as it is learned
/// (module docs).
///
/// Implements [`RayListener`]: install it as the tracer's listener while
/// rendering — over an accelerator built on this engine's grid
/// (`GridAccel::build_with_spec`) — and every ray is recorded under the
/// group of the pixel being shaded.
#[derive(Debug, Clone)]
pub struct CoherenceEngine {
    spec: GridSpec,
    test: DirtyTest,
    seg: SegmentCodec,
    strides: [isize; 8],
    /// Per group, the first transition at which one of its live rays is
    /// dirtied; `NEVER` when none the engine knows of is.
    due: Vec<u32>,
    /// The frame of the sequence whose rays are being recorded: the first
    /// transition they are tested at.
    frame: usize,
    transitions: Transitions,
    /// `coh.resolve_*` counts not yet handed to the trace recorder: (ray,
    /// transition) pairs tested, those past the first filter, exact
    /// tests.
    counts: [u64; 3],
    stats: CoherenceStats,
}

/// Which transitions an engine knows, and so what it keeps of a ray.
#[derive(Debug, Clone)]
enum Transitions {
    /// Masked: every transition of the sequence, known in advance; a ray
    /// is settled for good when it is recorded.
    Known(Arc<MoverMask>),
    /// Learning: per group, the bodies of its live rays back to back,
    /// tested against each transition as it is learned. Empty until the
    /// first ray is kept, then one entry per group.
    Learned(Vec<Vec<u8>>),
}

impl CoherenceEngine {
    /// Create an engine that answers with `test` for `groups` pixel groups
    /// over the given grid. Given a `mask` (built over this grid) and the
    /// frame of its sequence the engine records first, it settles each ray
    /// as it is recorded and tests only the rays whose path enters the
    /// mask; without one it starts at frame 0 and learns each transition
    /// from the renderer.
    ///
    /// Every engine is built here, and one built for a traced renderer
    /// (`trace`, its settings' flag) counts itself in `coh.engines_built`
    /// while the recorder is on: a renderer builds one per fresh start.
    pub(crate) fn new(
        spec: GridSpec,
        groups: usize,
        test: DirtyTest,
        mask: Option<(Arc<MoverMask>, usize)>,
        trace: bool,
    ) -> CoherenceEngine {
        if trace && now_trace::enabled() {
            now_trace::global().counter_add("coh.engines_built", 1);
        }
        let (transitions, frame) = match mask {
            Some((mask, frame)) => {
                let words = spec.voxel_count().div_ceil(64);
                assert_eq!(mask.bits.len(), words, "mover mask of another grid");
                (Transitions::Known(mask), frame)
            }
            None => (Transitions::Learned(Vec::new()), 0),
        };
        CoherenceEngine {
            spec,
            test,
            seg: SegmentCodec {
                bounds: spec.bounds,
            },
            strides: step_strides(&spec),
            due: vec![NEVER; groups],
            frame,
            transitions,
            counts: [0; 3],
            stats: CoherenceStats::default(),
        }
    }

    /// The mover mask rays are settled under, if any.
    pub(crate) fn mask(&self) -> Option<&Arc<MoverMask>> {
        match &self.transitions {
            Transitions::Known(mask) => Some(mask),
            Transitions::Learned(_) => None,
        }
    }

    /// Current statistics.
    #[inline]
    pub fn stats(&self) -> CoherenceStats {
        self.stats
    }

    /// Bytes held by the engine (the paper's observation that "memory
    /// requirements are directly proportional to the size of the image
    /// area" is measured through this): the per-group `due` table, and a
    /// learning engine's bodies (their buffers' capacity and the table of
    /// them). The mover mask is shared between renderers and not counted.
    pub fn memory_bytes(&self) -> usize {
        let kept = match &self.transitions {
            Transitions::Known(_) => 0,
            Transitions::Learned(bodies) => {
                bodies.capacity() * std::mem::size_of::<Vec<u8>>()
                    + bodies.iter().map(Vec::capacity).sum::<usize>()
            }
        };
        self.due.len() * 4 + kept
    }

    /// The groups (ascending) to recompute for transition `t`, from frame
    /// `t` into the frame about to be recorded, whose change set
    /// `trigger` is (a masked engine's is its mask's): those whose `due`
    /// is `t`; none for an empty change set, and every group for
    /// [`ChangeSet::Everything`] and for an exact engine's fallback
    /// (counted in [`CoherenceStats::fallbacks`]).
    ///
    /// A learning engine learns `t` here first: every kept body of a group
    /// not yet due is tested against `trigger`, and a group it dirties
    /// gets `due` `t` and drops its bodies. A masked engine keeps none.
    pub(crate) fn due_groups(&mut self, t: usize, trigger: &Trigger) -> Vec<PixelId> {
        debug_assert_eq!(t + 1, self.frame, "a transition other than the last one");
        let (test, seg, pad) = (self.test, self.seg, self.seg.pad());
        if let (Transitions::Learned(bodies), false) =
            (&mut self.transitions, matches!(trigger, Trigger::Nothing))
        {
            for (g, kept) in bodies.iter_mut().enumerate() {
                let mut at = 0;
                while at < kept.len() {
                    let probe = Probe::read(test, &seg, kept, &mut at);
                    if probe.dirtied_by(trigger, pad, &self.strides, &mut self.counts) {
                        self.due[g] = t as u32;
                        *kept = Vec::new();
                        break;
                    }
                }
            }
        }
        if trigger.dirties_all(test) {
            self.stats.fallbacks += matches!(trigger, Trigger::Voxels { .. }) as u64;
            return (0..self.due.len() as PixelId).collect();
        }
        let t = t as u32;
        (0..self.due.len() as PixelId)
            .filter(|&g| self.due[g as usize] == t)
            .collect()
    }

    /// Forget the recorded rays of the given pixel groups (called right
    /// before re-rendering them): their `due` resets, and a learning
    /// engine drops their bodies.
    pub fn invalidate_pixels(&mut self, groups: &[PixelId]) {
        for &g in groups {
            self.due[g as usize] = NEVER;
            if let Transitions::Learned(bodies) = &mut self.transitions {
                if let Some(kept) = bodies.get_mut(g as usize) {
                    *kept = Vec::new();
                }
            }
        }
    }

    /// Close the frame whose rays were just recorded: the next rays are
    /// the next frame's.
    pub(crate) fn end_frame(&mut self) {
        self.frame += 1;
        if now_trace::enabled() {
            // a function of the rays recorded and the transitions alone
            let rec = now_trace::global();
            let [pairs, coarse, exact] = std::mem::take(&mut self.counts);
            rec.counter_add("coh.resolve_pairs", pairs);
            rec.counter_add("coh.resolve_voxel_hits", coarse);
            rec.counter_add("coh.resolve_exact_tests", exact);
        }
    }

    /// Record a ray of group `g` whose walk is `path` (module docs): a
    /// masked engine settles it if its path enters the mask; a learning
    /// engine keeps its body unless the group is already due.
    fn record(&mut self, g: usize, ray: &Ray, t_max: f64, path: &VoxelPath<'_>) {
        match &mut self.transitions {
            Transitions::Known(mask) => {
                if !path_hits(path.start, path.codes, &self.strides, &mask.bits) {
                    return;
                }
                let probe = Probe::of(self.test, &self.seg, ray, t_max, path);
                let (pad, strides, counts) = (self.seg.pad(), &self.strides, &mut self.counts);
                // the transitions that can still lower the group's `due`
                let mut open = self.frame..(self.due[g] as usize).min(mask.triggers.len());
                if let Some(t) =
                    open.find(|&t| probe.dirtied_by(&mask.triggers[t], pad, strides, counts))
                {
                    self.due[g] = t as u32;
                }
            }
            Transitions::Learned(bodies) => {
                if self.due[g] != NEVER {
                    return;
                }
                if bodies.is_empty() {
                    bodies.resize_with(self.due.len(), Vec::new);
                }
                let kept = &mut bodies[g];
                match self.test {
                    DirtyTest::Exact => {
                        let mut buf = [0u8; SEG_BYTES];
                        self.seg.put(&mut buf, ray, t_max);
                        kept.extend_from_slice(&buf);
                    }
                    DirtyTest::Paper => {
                        write_varint(kept, path.start as u64);
                        write_varint(kept, path.steps as u64);
                        kept.extend_from_slice(path.codes);
                    }
                }
            }
        }
        self.stats.entries += 1;
    }
}

impl RayListener for CoherenceEngine {
    fn on_ray(
        &mut self,
        group: PixelId,
        ray: &Ray,
        _kind: RayKind,
        t_max: f64,
        path: Option<VoxelPath<'_>>,
    ) {
        let marks = path.map_or(0, |path| {
            debug_assert!(path.start < self.spec.voxel_count(), "path of another grid");
            self.record(group as usize, ray, t_max, &path);
            path.steps as u64 + 1
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
    /// Bytes of the bodies a learning engine keeps (none for a masked
    /// one).
    pub(crate) fn kept_bytes(&self) -> usize {
        match &self.transitions {
            Transitions::Known(_) => 0,
            Transitions::Learned(bodies) => bodies.iter().map(Vec::len).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::{GroupListener, GroupMap};
    use crate::region::PixelRegion;
    use now_grid::dda::{Traverse, VoxelPath, VoxelPathBuf};
    use now_grid::Voxel;
    use now_math::{Aabb, Interval, Point3, Vec3};
    use now_testkit::{cases, Rng};
    use std::collections::{BTreeMap, BTreeSet};

    const TESTS: [DirtyTest; 2] = [DirtyTest::Exact, DirtyTest::Paper];

    fn spec4() -> GridSpec {
        GridSpec::cubic(Aabb::new(Point3::ZERO, Point3::splat(4.0)), 4)
    }

    /// A 100-group learning engine over a 4x4x4 grid of unit voxels.
    fn engine(test: DirtyTest) -> CoherenceEngine {
        CoherenceEngine::new(spec4(), 100, test, None, false)
    }

    /// The change of the `movers`, which overlap the `voxels`.
    fn moved(voxels: &[Voxel], movers: Vec<Bound>) -> ChangeSet {
        ChangeSet::Voxels {
            voxels: voxels.to_vec(),
            movers,
        }
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

        /// Close the frame being recorded and learn the transition out of
        /// it, `change`, as a learning renderer does: the groups it
        /// dirties.
        fn learn(&mut self, change: &ChangeSet) -> Vec<PixelId> {
            self.end_frame();
            let trigger = Trigger::of(&self.spec, change);
            self.due_groups(self.frame - 1, &trigger)
        }

        /// The groups `change` would dirty as the next transition; the
        /// engine is left as it is.
        fn dirty_after(&self, change: &ChangeSet) -> Vec<PixelId> {
            self.clone().learn(change)
        }

        /// The same when the objects filling the `changed` voxels move:
        /// the voxels' boxes are the movers.
        fn dirty_of(&self, changed: &[Voxel]) -> Vec<PixelId> {
            let movers: Vec<Bound> = changed
                .iter()
                .map(|&v| Bound::Box(self.spec.voxel_bounds(v)))
                .collect();
            self.dirty_after(&moved(changed, movers))
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
            assert_eq!(
                e.dirty_after(&moved(&changed, vec![corner])),
                want,
                "{test:?}"
            );
            assert_eq!(
                e.dirty_after(&moved(&changed, vec![])),
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
        // seg; or start, steps, 3 step codes in 2 bytes
        for (test, body) in [(DirtyTest::Exact, SEG_BYTES), (DirtyTest::Paper, 1 + 1 + 2)] {
            let mut e = engine(test);
            e.fire(5, &x_ray(0.5, 0.5), RayKind::Primary, f64::INFINITY);
            e.fire(5, &x_ray(0.5, 0.5), RayKind::Shadow, f64::INFINITY);
            e.fire(5, &x_ray(0.6, 0.6), RayKind::Reflected, f64::INFINITY);
            assert_eq!(e.dirty_of(&[Voxel::new(1, 0, 0)]), vec![5]);
            // a ray costs its body and nothing else
            assert_eq!(e.kept_bytes(), 3 * body, "{test:?}");
            // a different pixel is reported beside it
            e.fire(6, &x_ray(0.5, 0.5), RayKind::Primary, f64::INFINITY);
            assert_eq!(e.dirty_of(&[Voxel::new(1, 0, 0)]), vec![5, 6]);
        }
    }

    #[test]
    fn invalidation_drops_a_groups_rays() {
        for test in TESTS {
            let mut e = engine(test);
            e.fire(4, &x_ray(0.5, 0.5), RayKind::Primary, f64::INFINITY);
            e.invalidate_pixels(&[4]);
            // the old ray no longer makes the group dirty
            assert!(e.dirty_of(&[Voxel::new(1, 0, 0)]).is_empty());
            assert_eq!(e.kept_bytes(), 0);
            // the re-recorded one does
            e.fire(4, &x_ray(2.5, 2.5), RayKind::Primary, f64::INFINITY);
            assert_eq!(e.dirty_of(&[Voxel::new(1, 2, 2)]), vec![4], "{test:?}");
            assert!(e.dirty_of(&[Voxel::new(1, 0, 0)]).is_empty());
        }
    }

    /// A learned transition settles the groups it dirties: they are due at
    /// it, keep no ray, and neither a later transition nor a ray recorded
    /// for them before they are re-rendered dirties them again. Once
    /// invalidated and re-recorded, a group is tested afresh.
    #[test]
    fn a_learned_transition_drops_the_rays_it_dirties() {
        for test in TESTS {
            let mut e = engine(test);
            e.fire(7, &x_ray(0.5, 0.5), RayKind::Primary, f64::INFINITY);
            e.fire(9, &x_ray(2.5, 0.5), RayKind::Primary, f64::INFINITY);
            let body = e.kept_bytes() / 2;
            let row = |y| -> Vec<Voxel> { (0..4).map(|x| Voxel::new(x, y, 0)).collect() };
            let change = |voxels: &[Voxel]| {
                let movers = voxels
                    .iter()
                    .map(|&v| Bound::Box(spec4().voxel_bounds(v)))
                    .collect();
                moved(voxels, movers)
            };
            let (row0, row2) = (change(&row(0)), change(&row(2)));
            assert_eq!(e.learn(&row0), vec![7], "{test:?}");
            assert_eq!(e.kept_bytes(), body, "group 7 dropped its ray");
            e.fire(7, &x_ray(0.5, 0.5), RayKind::Primary, f64::INFINITY);
            assert_eq!(e.kept_bytes(), body, "a due group keeps no ray");
            assert!(e.learn(&row0).is_empty());
            assert_eq!(e.learn(&row2), vec![9]);
            e.invalidate_pixels(&[7, 9]);
            e.fire(7, &x_ray(0.5, 0.5), RayKind::Primary, f64::INFINITY);
            assert_eq!(e.learn(&row0), vec![7]);
            assert_eq!(e.stats().entries, 3);
        }
    }

    #[test]
    fn dirty_groups_sorted_and_unique() {
        for test in TESTS {
            let mut e = engine(test);
            for p in [9, 3, 7, 3, 9] {
                e.fire(p, &x_ray(0.5, 0.5), RayKind::Primary, f64::INFINITY);
            }
            let dirty = e.dirty_of(&[Voxel::new(0, 0, 0), Voxel::new(1, 0, 0)]);
            assert_eq!(dirty, vec![3, 7, 9], "{test:?}");
        }
    }

    /// A learning engine holds its `due` table, and once a ray is kept a
    /// table of bodies; a masked one holds its `due` table alone, however
    /// many rays it settles.
    #[test]
    fn stats_track_marks_and_memory() {
        for (test, body) in [(DirtyTest::Exact, SEG_BYTES), (DirtyTest::Paper, 1 + 1 + 2)] {
            let mut e = engine(test);
            assert_eq!(e.memory_bytes(), 400);
            e.fire(0, &x_ray(0.5, 0.5), RayKind::Primary, f64::INFINITY);
            let s = e.stats();
            assert_eq!(s.rays_recorded, 1);
            assert_eq!(s.marks, 4);
            assert_eq!(s.entries, 1);
            assert_eq!(e.kept_bytes(), body, "{test:?}");
            let table = 100 * std::mem::size_of::<Vec<u8>>();
            assert!(e.memory_bytes() >= 400 + table + body);

            let spec = spec4();
            let changes = vec![moved(&every_voxel(&spec), Vec::new())];
            let mask = Arc::new(MoverMask::of_changes(&spec, changes));
            let mut e = CoherenceEngine::new(spec, 100, test, Some((mask, 0)), false);
            for p in 0..100 {
                e.fire(p, &x_ray(0.5, 0.5), RayKind::Primary, f64::INFINITY);
            }
            assert_eq!(e.stats().entries, 100);
            assert_eq!(e.memory_bytes(), 400);
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
            assert_eq!(e.kept_bytes(), 0);
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

    /// Differential oracle: random rays, invalidations and transitions
    /// against the naive per-voxel model, through the renderer's own
    /// `GroupListener` so Jevans blocks (one group's rays recorded among
    /// other groups') and shadow filtering are part of what is compared.
    /// The engine learns each transition and the groups it dirties are
    /// invalidated in both, as a renderer re-renders them; at the end,
    /// every voxel's dirty set is compared.
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
                    _ => {
                        let mut changed = rng.vec(0, 5, |rng| *rng.pick(&voxels));
                        changed.sort_unstable();
                        changed.dedup();
                        let dirty = engine.learn(&moved(&changed, Vec::new()));
                        assert_eq!(dirty, model.dirty(&changed));
                        engine.invalidate_pixels(&dirty);
                        model.invalidate(&dirty);
                    }
                }
                assert_eq!(engine.stats().marks, model.marks);
            }
            for &v in &voxels {
                assert_eq!(engine.dirty_of(&[v]), model.dirty(&[v]), "{v:?}");
            }
            let all = moved(&voxels, Vec::new());
            assert_eq!(engine.dirty_after(&all), model.dirty(&voxels));
        });
    }

    /// The exact counterpart: the same random rays, invalidations and
    /// transitions against a naive per-pixel list of live rays whose
    /// segments go through the same codec; the transitions are random
    /// movers inside the grid box, and their voxels.
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
            let transition = |rng: &mut Rng, engine: &mut CoherenceEngine, model: &mut RayModel| {
                let movers: Vec<Bound> = (0..rng.usize_in(1, 4))
                    .map(|_| random_bound(rng, &inside, 0.6))
                    .collect();
                let voxels = voxels_of(&spec, &movers);
                let dirty = engine.learn(&moved(&voxels, movers.clone()));
                assert_eq!(dirty, model.dirty(&movers));
                engine.invalidate_pixels(&dirty);
                model.invalidate(&dirty);
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
                    _ => transition(rng, &mut engine, &mut model),
                }
                assert_eq!(engine.stats().marks, model.marks);
            }
            for _ in 0..20 {
                transition(rng, &mut engine, &mut model);
            }
            assert_eq!(engine.stats().fallbacks, 0);
        });
    }

    /// The naive models of both tests fed only the rays whose walk enters
    /// `bits`: the rays a masked engine tests when `bits` is its mask, and
    /// every ray that crosses the grid when `bits` is all ones. Every
    /// ray's walk counts in `marks`.
    struct MaskedModels {
        bits: Vec<u64>,
        voxels: Model,
        rays: RayModel,
        marks: u64,
    }

    impl RayListener for MaskedModels {
        fn on_ray(
            &mut self,
            pixel: PixelId,
            ray: &Ray,
            kind: RayKind,
            t_max: f64,
            path: Option<VoxelPath<'_>>,
        ) {
            let spec = self.voxels.spec;
            let walk = spec.traverse_vec(ray, Interval::new(0.0, t_max));
            self.marks += walk.len() as u64;
            let masked = |v: &Voxel| {
                let i = spec.linear_index(*v);
                self.bits[i >> 6] >> (i & 63) & 1 != 0
            };
            if walk.iter().any(masked) {
                self.voxels.on_ray(pixel, ray, kind, t_max, path);
                self.rays.on_ray(pixel, ray, kind, t_max, path);
            }
        }
    }

    /// A random transition over `spec`: nothing, everything, or one to
    /// three movers with the voxels they overlap — inside the grid box, or
    /// in a box that reaches past it (where an exact engine falls back).
    fn random_change(rng: &mut Rng, spec: &GridSpec) -> ChangeSet {
        match rng.u32_in(0, 8) {
            0 => ChangeSet::Voxels {
                voxels: Vec::new(),
                movers: Vec::new(),
            },
            1 => ChangeSet::Everything,
            k => {
                let room = if k < 4 { 0.3 } else { -0.6 };
                let movers: Vec<Bound> = (0..rng.usize_in(1, 4))
                    .map(|_| random_bound(rng, &spec.bounds.expand(room), 0.6))
                    .collect();
                ChangeSet::Voxels {
                    voxels: voxels_of(spec, &movers),
                    movers,
                }
            }
        }
    }

    /// The naive models of both tests, fed the rays whose walk enters
    /// `bits`.
    fn models(spec: GridSpec, bits: Vec<u64>) -> MaskedModels {
        MaskedModels {
            bits,
            voxels: Model {
                spec,
                lists: BTreeMap::new(),
                marks: 0,
            },
            rays: RayModel {
                spec,
                codec: SegmentCodec {
                    bounds: spec.bounds,
                },
                live: BTreeMap::new(),
                marks: 0,
            },
            marks: 0,
        }
    }

    /// Both kinds of engine against the two naive-model oracles: seeded
    /// random sequences of transitions — empty ones, `Everything`, movers
    /// reaching out of the grid box and local moves — rendered as a region
    /// renderer renders them: a learning engine from frame 0, whose models
    /// see every ray, and a masked one from a random frame of the
    /// sequence on, whose models see the rays its mask keeps. Each frame
    /// re-records rays for every pixel of the groups the last transition
    /// dirtied (some pixels fire none), and at every transition each
    /// engine's dirty groups equal what the naive model of its test finds
    /// among its models' rays. A masked engine holds its `due` table and
    /// nothing else.
    #[test]
    fn a_masked_engine_settles_the_dirty_sets_of_the_naive_models() {
        let case = std::cell::Cell::new(0);
        // [empty, everything, fallback, local with a dirty group]
        let reached = std::cell::Cell::new([0u32; 4]);
        cases(100, |rng| {
            case.set(case.get() + 1);
            let (spec, _, map) = random_layout(rng, case.get());
            let test = TESTS[case.get() as usize % 2];
            let track_shadows = rng.u32_in(0, 4) != 0;
            let transitions = rng.usize_in(2, 9);
            let changes: Vec<ChangeSet> = (0..transitions)
                .map(|_| random_change(rng, &spec))
                .collect();
            let mask = Arc::new(MoverMask::of_changes(&spec, changes.clone()));
            let start = rng.usize_in(0, transitions);
            let groups = map.group_count();
            let every_ray = vec![!0u64; mask.bits.len()];
            let mut runs = [
                (
                    CoherenceEngine::new(spec, groups, test, None, false),
                    models(spec, every_ray),
                    0,
                ),
                (
                    CoherenceEngine::new(
                        spec,
                        groups,
                        test,
                        Some((Arc::clone(&mask), start)),
                        false,
                    ),
                    models(spec, mask.bits.clone()),
                    start,
                ),
            ];
            let all: Vec<PixelId> = (0..groups as PixelId).collect();
            for (engine, models, start) in &mut runs {
                let mut render = all.clone();
                let mut fallbacks = 0;
                for f in *start..=transitions {
                    engine.invalidate_pixels(&render);
                    models.voxels.invalidate(&render);
                    models.rays.invalidate(&render);
                    for &g in &render {
                        for pixel in map.pixels_of_group(g) {
                            if rng.u32_in(0, 4) != 0 {
                                fire_burst(rng, &spec, pixel, map, track_shadows, engine, models);
                            }
                        }
                    }
                    engine.end_frame();
                    assert_eq!(engine.stats().marks, models.marks);
                    let Some(change) = changes.get(f) else {
                        break;
                    };
                    let codec = engine.seg;
                    let (kind, want) = match change {
                        ChangeSet::Everything => (1, all.clone()),
                        ChangeSet::Voxels { voxels, .. } if voxels.is_empty() => (0, Vec::new()),
                        ChangeSet::Voxels { movers, .. }
                            if test == DirtyTest::Exact
                                && !movers.iter().all(|b| codec.covers(b)) =>
                        {
                            fallbacks += 1;
                            (2, all.clone())
                        }
                        ChangeSet::Voxels { voxels, movers } => match test {
                            DirtyTest::Exact => (3, models.rays.dirty(movers)),
                            DirtyTest::Paper => (3, models.voxels.dirty(voxels)),
                        },
                    };
                    render = engine.due_groups(f, &mask.triggers[f]);
                    let masked = engine.mask().is_some();
                    assert_eq!(
                        render, want,
                        "{test:?}, masked {masked} from frame {start}: transition {f}"
                    );
                    let mut r = reached.get();
                    r[kind] += (kind < 3 || !want.is_empty()) as u32;
                    reached.set(r);
                }
                assert_eq!(engine.stats().fallbacks, fallbacks);
            }
            assert_eq!(runs[1].0.memory_bytes(), 4 * groups);
        });
        let reached = reached.get();
        assert!(reached.iter().all(|&n| n >= 20), "{reached:?}");
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
    /// subset of what a paper engine fed the same rays answers.
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
            let pixels = 60;
            let mut plain = CoherenceEngine::new(spec, pixels, DirtyTest::Exact, None, false);
            let mut paper = CoherenceEngine::new(spec, pixels, DirtyTest::Paper, None, false);
            // the live rays of each pixel
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
                    paper.fire(pixel, &ray, RayKind::Primary, t_max);
                    live[pixel as usize].push((ray, t_max));
                }
                let doomed = rng.vec(0, 6, |rng| rng.u32_in(0, pixels as u32));
                plain.invalidate_pixels(&doomed);
                paper.invalidate_pixels(&doomed);
                for &p in &doomed {
                    live[p as usize].clear();
                }
                let voxels = voxels_of(&spec, query);
                let change = moved(&voxels, query.clone());
                let exact = plain.dirty_after(&change);
                let coarse = paper.dirty_after(&change);
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
            assert_eq!(plain.stats().fallbacks, 0);
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

    /// A mover reaching outside the grid box, where no segment is kept,
    /// makes an exact engine answer with every group, and is counted.
    #[test]
    fn a_mover_outside_the_grid_dirties_every_pixel_of_an_exact_engine() {
        let mut e = engine(DirtyTest::Exact);
        e.fire(7, &x_ray(0.5, 0.5), RayKind::Primary, f64::INFINITY);
        let (voxels, far, leaving) = corner_query();
        assert!(e.learn(&moved(&voxels, vec![far])).is_empty());
        assert_eq!(e.stats().fallbacks, 0);
        let all: Vec<PixelId> = (0..100).collect();
        assert_eq!(e.learn(&moved(&voxels, vec![far, leaving])), all);
        assert_eq!(e.stats().fallbacks, 1);
        // nothing changed, nothing to answer
        assert!(e.learn(&moved(&[], vec![leaving])).is_empty());
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
        for mover in [far, leaving] {
            let mut after = e.clone();
            assert_eq!(after.learn(&moved(&voxels, vec![mover])), vec![7]);
            assert_eq!(after.stats().fallbacks, 0);
        }
    }
}
