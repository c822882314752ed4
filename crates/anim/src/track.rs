//! Animation tracks: functions from frame number to object transform.

use now_math::{Affine, Point3, Vec3};

/// A keyframed transform curve evaluated at (fractional) frame times.
///
/// Keyframes are `(frame, value)` pairs sorted by frame; evaluation clamps
/// before the first and after the last key and interpolates linearly
/// between keys.
#[derive(Debug, Clone, PartialEq)]
pub enum Track {
    /// Constant transform.
    Static(Affine),
    /// Piecewise-linear translation through waypoints.
    Translate(Vec<(f64, Vec3)>),
    /// Rotation about `axis` through `pivot`, with keyframed angles
    /// (radians).
    Rotate {
        /// Pivot point of the rotation.
        pivot: Point3,
        /// Rotation axis (unit).
        axis: Vec3,
        /// `(frame, angle)` keyframes.
        keys: Vec<(f64, f64)>,
    },
    /// Uniform scale with keyframed factors, about a pivot.
    Scale {
        /// Pivot kept fixed by the scaling.
        pivot: Point3,
        /// `(frame, factor)` keyframes.
        keys: Vec<(f64, f64)>,
    },
    /// Apply several tracks in order (first element applied first).
    Compose(Vec<Track>),
}

/// Interpolate within a keyframe list; `lerp` combines two key values.
fn sample_keys<T: Copy>(keys: &[(f64, T)], frame: f64, lerp: impl Fn(T, T, f64) -> T) -> T {
    assert!(!keys.is_empty(), "track must have at least one keyframe");
    debug_assert!(
        keys.windows(2).all(|w| w[0].0 <= w[1].0),
        "keyframes must be sorted by frame"
    );
    if frame <= keys[0].0 {
        return keys[0].1;
    }
    if frame >= keys[keys.len() - 1].0 {
        return keys[keys.len() - 1].1;
    }
    let i = keys.partition_point(|k| k.0 <= frame);
    let (f0, v0) = keys[i - 1];
    let (f1, v1) = keys[i];
    if f1 <= f0 {
        return v1;
    }
    lerp(v0, v1, (frame - f0) / (f1 - f0))
}

impl Track {
    /// Evaluate the transform at a frame.
    pub fn sample(&self, frame: f64) -> Affine {
        match self {
            Track::Static(a) => *a,
            Track::Translate(keys) => {
                Affine::translate(sample_keys(keys, frame, |a, b, t| a.lerp(b, t)))
            }
            Track::Rotate { pivot, axis, keys } => {
                let angle = sample_keys(keys, frame, now_math::lerp);
                Affine::rotate_about(*pivot, *axis, angle)
            }
            Track::Scale { pivot, keys } => {
                let s = sample_keys(keys, frame, now_math::lerp);
                Affine::translate(-*pivot)
                    .then(&Affine::scale_uniform(s))
                    .then(&Affine::translate(*pivot))
            }
            Track::Compose(tracks) => tracks
                .iter()
                .fold(Affine::IDENTITY, |acc, t| acc.then(&t.sample(frame))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::FRAC_PI_2;

    #[test]
    fn static_track_is_constant() {
        let a = Affine::translate(Vec3::UNIT_X);
        let t = Track::Static(a);
        assert_eq!(t.sample(0.0), a);
        assert_eq!(t.sample(100.0), a);
    }

    #[test]
    fn translate_interpolates_and_clamps() {
        let t = Track::Translate(vec![(10.0, Vec3::ZERO), (20.0, Vec3::new(2.0, 0.0, 0.0))]);
        assert!(t
            .sample(0.0)
            .point(Point3::ZERO)
            .approx_eq(Point3::ZERO, 1e-12));
        assert!(t
            .sample(15.0)
            .point(Point3::ZERO)
            .approx_eq(Point3::new(1.0, 0.0, 0.0), 1e-12));
        assert!(t
            .sample(99.0)
            .point(Point3::ZERO)
            .approx_eq(Point3::new(2.0, 0.0, 0.0), 1e-12));
    }

    #[test]
    fn multi_waypoint_translate() {
        let t = Track::Translate(vec![
            (0.0, Vec3::ZERO),
            (10.0, Vec3::new(1.0, 0.0, 0.0)),
            (20.0, Vec3::new(1.0, 2.0, 0.0)),
        ]);
        assert!(t
            .sample(5.0)
            .point(Point3::ZERO)
            .approx_eq(Point3::new(0.5, 0.0, 0.0), 1e-12));
        assert!(t
            .sample(15.0)
            .point(Point3::ZERO)
            .approx_eq(Point3::new(1.0, 1.0, 0.0), 1e-12));
    }

    #[test]
    fn rotate_about_pivot() {
        let t = Track::Rotate {
            pivot: Point3::new(0.0, 2.0, 0.0),
            axis: Vec3::UNIT_Z,
            keys: vec![(0.0, 0.0), (10.0, FRAC_PI_2)],
        };
        // a point hanging 2 below the pivot swings out to the side
        let p = Point3::ZERO;
        assert!(t.sample(0.0).point(p).approx_eq(p, 1e-12));
        let end = t.sample(10.0).point(p);
        assert!(end.approx_eq(Point3::new(2.0, 2.0, 0.0), 1e-12), "{end}");
        // pivot fixed throughout
        for f in [0.0, 3.0, 7.0, 10.0] {
            assert!(t
                .sample(f)
                .point(Point3::new(0.0, 2.0, 0.0))
                .approx_eq(Point3::new(0.0, 2.0, 0.0), 1e-12));
        }
    }

    #[test]
    fn scale_keeps_pivot_fixed() {
        let t = Track::Scale {
            pivot: Point3::new(1.0, 1.0, 1.0),
            keys: vec![(0.0, 1.0), (10.0, 3.0)],
        };
        let m = t.sample(10.0);
        assert!(m
            .point(Point3::new(1.0, 1.0, 1.0))
            .approx_eq(Point3::new(1.0, 1.0, 1.0), 1e-12));
        assert!(m
            .point(Point3::new(2.0, 1.0, 1.0))
            .approx_eq(Point3::new(4.0, 1.0, 1.0), 1e-12));
    }

    #[test]
    fn compose_applies_in_order() {
        let t = Track::Compose(vec![
            Track::Translate(vec![(0.0, Vec3::UNIT_X)]),
            Track::Rotate {
                pivot: Point3::ZERO,
                axis: Vec3::UNIT_Z,
                keys: vec![(0.0, FRAC_PI_2)],
            },
        ]);
        // translate to (1,0,0), then rotate 90° about origin -> (0,1,0)
        assert!(t
            .sample(0.0)
            .point(Point3::ZERO)
            .approx_eq(Point3::UNIT_Y, 1e-12));
    }

    #[test]
    fn sample_keys_exact_hit() {
        let keys = vec![(0.0, 1.0), (5.0, 2.0), (10.0, 4.0)];
        assert_eq!(sample_keys(&keys, 5.0, now_math::lerp), 2.0);
        assert_eq!(sample_keys(&keys, 0.0, now_math::lerp), 1.0);
        assert_eq!(sample_keys(&keys, 10.0, now_math::lerp), 4.0);
    }

    #[test]
    #[should_panic]
    fn empty_keys_panics() {
        let t = Track::Translate(vec![]);
        let _ = t.sample(0.0);
    }
}
