//! Ray observation hooks.
//!
//! "As rays are fired during the rendering process, the frame coherence
//! algorithm tracks their paths and marks all of the voxels that they pass
//! through." The tracer reports every ray it fires — with the pixel it
//! belongs to, its kind, the distance it travelled and the voxels its one
//! walk through the accelerator's grid crossed — to a [`RayListener`]; the
//! coherence engine's listener appends that path to its log.

use crate::framebuffer::PixelId;
use now_grid::dda::VoxelPath;
use now_math::Ray;

/// Classification of a fired ray.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RayKind {
    /// Camera ray.
    Primary,
    /// Mirror-reflected ray.
    Reflected,
    /// Refracted (transmitted) ray.
    Transmitted,
    /// Shadow feeler toward a light.
    Shadow,
}

/// Observer of every ray fired while shading.
pub trait RayListener {
    /// Whether the tracer records each ray's voxel path for this listener.
    /// A listener that only counts or logs rays sets it to `false`: the
    /// recording is compiled out of its renders, an occluded shadow feeler
    /// stops at its occluder, and `on_ray` gets `path: None` throughout.
    const PATHS: bool = true;

    /// Called once per fired ray, after the ray has been traced.
    ///
    /// * `pixel` — the pixel being shaded (all recursive rays carry the
    ///   originating pixel).
    /// * `ray` — origin and unit direction.
    /// * `kind` — primary / reflected / transmitted / shadow.
    /// * `t_max` — distance travelled: the hit distance, the distance to
    ///   the light for shadow rays, or `f64::INFINITY` for rays that left
    ///   the scene. A listener with `PATHS` is told less of an occluded
    ///   shadow feeler whose occluder's first hit lies in the grid box:
    ///   the distance to that hit, past which nothing can change the
    ///   feeler's answer while the occluder stays put
    ///   ([`GridAccel::any_hit`](crate::GridAccel::any_hit)).
    /// * `path` — the voxels of the accelerator's grid the ray crossed in
    ///   `[0, t_max]`, exactly as a standalone
    ///   [`IndexWalk`](now_grid::dda::IndexWalk) over that range reports
    ///   them; `None` when it crossed none. The slice is the tracer's
    ///   scratch: copy what must outlive the call.
    fn on_ray(
        &mut self,
        pixel: PixelId,
        ray: &Ray,
        kind: RayKind,
        t_max: f64,
        path: Option<VoxelPath<'_>>,
    );
}

/// Listener that ignores everything (plain, non-coherent rendering).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullListener;

impl RayListener for NullListener {
    const PATHS: bool = false;

    #[inline]
    fn on_ray(&mut self, _: PixelId, _: &Ray, _: RayKind, _: f64, _: Option<VoxelPath<'_>>) {}
}

/// A recorded ray, as captured by [`RecordingListener`].
#[derive(Debug, Clone, PartialEq)]
pub struct RecordedRay {
    /// Pixel the ray belongs to.
    pub pixel: PixelId,
    /// The ray itself.
    pub ray: Ray,
    /// Kind of ray.
    pub kind: RayKind,
    /// Distance travelled.
    pub t_max: f64,
}

/// Listener that stores every reported ray (not its path); used by tests
/// and by the bench harness for ray-census figures.
#[derive(Debug, Clone, Default)]
pub struct RecordingListener {
    /// All recorded rays in firing order.
    pub rays: Vec<RecordedRay>,
}

impl RayListener for RecordingListener {
    const PATHS: bool = false;

    fn on_ray(
        &mut self,
        pixel: PixelId,
        ray: &Ray,
        kind: RayKind,
        t_max: f64,
        _: Option<VoxelPath<'_>>,
    ) {
        self.rays.push(RecordedRay {
            pixel,
            ray: *ray,
            kind,
            t_max,
        });
    }
}

impl<L: RayListener + ?Sized> RayListener for &mut L {
    const PATHS: bool = L::PATHS;

    #[inline]
    fn on_ray(
        &mut self,
        pixel: PixelId,
        ray: &Ray,
        kind: RayKind,
        t_max: f64,
        path: Option<VoxelPath<'_>>,
    ) {
        (**self).on_ray(pixel, ray, kind, t_max, path);
    }
}

/// A listener that the tile pool can split across worker threads.
///
/// Each pool thread observes rays through its own [`Shard`]; after the
/// join, shards are absorbed back into the parent **in ascending tile
/// order**, which is exactly the order a 1-thread render would have fired
/// the same rays in. A listener whose state is order-sensitive (the
/// coherence engine's path log is) therefore ends up in a state identical
/// to the sequential run.
///
/// [`Shard`]: ShardableListener::Shard
pub trait ShardableListener: RayListener {
    /// Per-thread observer; moved into a pool worker. It is handed paths
    /// exactly when the parent is (`PATHS` must agree).
    type Shard: RayListener + Send;

    /// Create an empty shard for one tile.
    fn make_shard(&self) -> Self::Shard;

    /// Merge a finished shard. Called on the pool's caller thread, once per
    /// tile, in ascending tile order.
    fn absorb_shard(&mut self, shard: Self::Shard);
}

/// Null shards: nothing to record, nothing to merge.
impl ShardableListener for NullListener {
    type Shard = NullListener;

    #[inline]
    fn make_shard(&self) -> NullListener {
        NullListener
    }

    #[inline]
    fn absorb_shard(&mut self, _: NullListener) {}
}

/// Recording shards append their logs in tile order, reproducing the
/// sequential firing order.
impl ShardableListener for RecordingListener {
    type Shard = RecordingListener;

    fn make_shard(&self) -> RecordingListener {
        RecordingListener::default()
    }

    fn absorb_shard(&mut self, shard: RecordingListener) {
        self.rays.extend(shard.rays);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use now_math::{Point3, Vec3};

    #[test]
    fn recording_listener_captures_in_order() {
        let mut l = RecordingListener::default();
        let r = Ray::new(Point3::ZERO, Vec3::UNIT_X);
        l.on_ray(3, &r, RayKind::Primary, 5.0, None);
        l.on_ray(3, &r, RayKind::Shadow, 2.0, None);
        assert_eq!(l.rays.len(), 2);
        assert_eq!(l.rays[0].kind, RayKind::Primary);
        assert_eq!(l.rays[1].t_max, 2.0);
    }

    #[test]
    fn listener_by_mut_ref_works() {
        fn feed(mut l: impl RayListener) {
            l.on_ray(
                0,
                &Ray::new(Point3::ZERO, Vec3::UNIT_Y),
                RayKind::Primary,
                1.0,
                None,
            );
        }
        let mut rec = RecordingListener::default();
        feed(&mut rec);
        feed(&mut rec);
        assert_eq!(rec.rays.len(), 2);
    }

    #[test]
    fn recording_shards_concatenate_in_absorb_order() {
        let mut parent = RecordingListener::default();
        let r = Ray::new(Point3::ZERO, Vec3::UNIT_X);
        let mut s0 = parent.make_shard();
        let mut s1 = parent.make_shard();
        s1.on_ray(9, &r, RayKind::Shadow, 2.0, None);
        s0.on_ray(1, &r, RayKind::Primary, 1.0, None);
        parent.absorb_shard(s0);
        parent.absorb_shard(s1);
        assert_eq!(parent.rays[0].pixel, 1);
        assert_eq!(parent.rays[1].pixel, 9);
    }
}
