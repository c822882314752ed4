//! Whole animations: a base scene plus tracks, sampled per frame.

use crate::track::Track;
use now_math::Aabb;
use now_raytrace::{Camera, ObjectId, Scene};

/// A maximal camera-stationary run of frames, `[start, end)`.
///
/// The frame-coherence algorithm applies within a segment; distribution
/// schemes partition segments, never across them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// First frame (inclusive).
    pub start: usize,
    /// One past the last frame.
    pub end: usize,
}

impl Segment {
    /// Number of frames in the segment.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True if the segment contains no frames.
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

/// An animation: a base scene, per-object transform tracks, optional
/// camera cuts, and a frame count.
#[derive(Debug, Clone)]
pub struct Animation {
    /// Scene with all objects at their base (frame-independent) placement.
    pub base: Scene,
    /// Transform tracks applied on top of each object's base transform.
    pub tracks: Vec<(ObjectId, Track)>,
    /// Piecewise-constant camera: `(first_frame, camera)` entries sorted by
    /// frame; empty means the base camera throughout.
    pub cameras: Vec<(usize, Camera)>,
    /// Total number of frames.
    pub frames: usize,
}

impl Animation {
    /// Animation with no tracks (static scene repeated).
    pub fn still(base: Scene, frames: usize) -> Animation {
        Animation {
            base,
            tracks: Vec::new(),
            cameras: Vec::new(),
            frames,
        }
    }

    /// Add a track for an object.
    pub fn add_track(&mut self, object: ObjectId, track: Track) {
        self.tracks.push((object, track));
    }

    /// The camera in effect at a frame.
    fn camera_at(&self, frame: usize) -> &Camera {
        let mut cam = &self.base.camera;
        for (f, c) in &self.cameras {
            if *f <= frame {
                cam = c;
            } else {
                break;
            }
        }
        cam
    }

    /// Materialise the scene for one frame.
    ///
    /// Each tracked object's transform is its *base* transform followed by
    /// the track's sampled transform; objects without tracks are untouched,
    /// so consecutive frames differ only in tracked objects — exactly what
    /// `now_coherence::changed_voxels` exploits.
    pub fn scene_at(&self, frame: usize) -> Scene {
        assert!(frame < self.frames, "frame {frame} out of range");
        let mut s = self.base.clone();
        for (id, track) in &self.tracks {
            let base_xf = *s.objects[*id as usize].transform();
            let xf = base_xf.then(&track.sample(frame as f64));
            s.objects[*id as usize].set_transform(xf);
        }
        s.camera = self.camera_at(frame).clone();
        s
    }

    /// Union of scene bounds over every frame — the grid the coherence
    /// engine uses must cover the full swept volume of the sequence.
    pub fn swept_bounds(&self) -> Aabb {
        (0..self.frames)
            .map(|f| self.scene_at(f).bounds())
            .fold(Aabb::EMPTY, |a, b| a.union(&b))
    }

    /// Split the animation into maximal camera-stationary segments.
    pub fn segments(&self) -> Vec<Segment> {
        if self.frames == 0 {
            return Vec::new();
        }
        let mut out = Vec::new();
        let mut start = 0usize;
        for f in 1..self.frames {
            if !self.camera_at(f).same_view(self.camera_at(f - 1)) {
                out.push(Segment { start, end: f });
                start = f;
            }
        }
        out.push(Segment {
            start,
            end: self.frames,
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use now_math::{Color, Point3, Vec3};
    use now_raytrace::{Geometry, Material, Object, PointLight};

    fn base() -> Scene {
        let cam = Camera::look_at(
            Point3::new(0.0, 0.0, 10.0),
            Point3::ZERO,
            Vec3::UNIT_Y,
            60.0,
            32,
            24,
        );
        let mut s = Scene::new(cam);
        s.add_object(
            Object::new(
                Geometry::Sphere {
                    center: Point3::ZERO,
                    radius: 1.0,
                },
                Material::matte(Color::WHITE),
            )
            .named("ball"),
        );
        s.add_light(PointLight::new(Point3::new(5.0, 5.0, 5.0), Color::WHITE));
        s
    }

    #[test]
    fn still_animation_repeats_base() {
        let a = Animation::still(base(), 3);
        let s0 = a.scene_at(0);
        let s2 = a.scene_at(2);
        assert_eq!(s0.objects[0].transform(), s2.objects[0].transform());
        assert_eq!(a.segments(), vec![Segment { start: 0, end: 3 }]);
    }

    #[test]
    fn tracked_object_moves() {
        let mut a = Animation::still(base(), 11);
        a.add_track(
            0,
            Track::Translate(vec![(0.0, Vec3::ZERO), (10.0, Vec3::new(5.0, 0.0, 0.0))]),
        );
        let s5 = a.scene_at(5);
        let moved = s5.objects[0].transform().point(Point3::ZERO);
        assert!(moved.approx_eq(Point3::new(2.5, 0.0, 0.0), 1e-12));
    }

    #[test]
    fn track_composes_with_base_transform() {
        let mut scene = base();
        scene.objects[0].set_transform(now_math::Affine::translate(Vec3::new(0.0, 2.0, 0.0)));
        let mut a = Animation::still(scene, 2);
        a.add_track(0, Track::Translate(vec![(0.0, Vec3::new(1.0, 0.0, 0.0))]));
        let s = a.scene_at(1);
        assert!(s.objects[0]
            .transform()
            .point(Point3::ZERO)
            .approx_eq(Point3::new(1.0, 2.0, 0.0), 1e-12));
    }

    #[test]
    fn swept_bounds_cover_all_frames() {
        let mut a = Animation::still(base(), 11);
        a.add_track(
            0,
            Track::Translate(vec![(0.0, Vec3::ZERO), (10.0, Vec3::new(6.0, 0.0, 0.0))]),
        );
        let b = a.swept_bounds();
        assert!(b.contains(Point3::new(-1.0, 0.0, 0.0)));
        assert!(b.contains(Point3::new(7.0, 0.0, 0.0)));
    }

    #[test]
    fn camera_cuts_split_segments() {
        let mut a = Animation::still(base(), 10);
        let cam2 = Camera::look_at(
            Point3::new(3.0, 0.0, 10.0),
            Point3::ZERO,
            Vec3::UNIT_Y,
            60.0,
            32,
            24,
        );
        a.cameras = vec![
            (0, a.base.camera.clone()),
            (4, cam2.clone()),
            (7, a.base.camera.clone()),
        ];
        let segs = a.segments();
        assert_eq!(
            segs,
            vec![
                Segment { start: 0, end: 4 },
                Segment { start: 4, end: 7 },
                Segment { start: 7, end: 10 }
            ]
        );
        assert!(a.camera_at(5).same_view(&cam2));
        assert_eq!(segs.iter().map(Segment::len).sum::<usize>(), 10);
        assert!(!segs[0].is_empty());
    }

    #[test]
    #[should_panic]
    fn out_of_range_frame_panics() {
        let a = Animation::still(base(), 3);
        let _ = a.scene_at(3);
    }

    #[test]
    fn consecutive_frames_differ_only_in_tracked_objects() {
        let mut scene = base();
        scene.add_object(
            Object::new(
                Geometry::Sphere {
                    center: Point3::new(3.0, 0.0, 0.0),
                    radius: 0.5,
                },
                Material::matte(Color::WHITE),
            )
            .named("static"),
        );
        let mut a = Animation::still(scene, 5);
        a.add_track(
            0,
            Track::Translate(vec![(0.0, Vec3::ZERO), (4.0, Vec3::new(1.0, 0.0, 0.0))]),
        );
        let s1 = a.scene_at(1);
        let s2 = a.scene_at(2);
        assert_ne!(s1.objects[0].transform(), s2.objects[0].transform());
        assert_eq!(s1.objects[1].transform(), s2.objects[1].transform());
    }
}
