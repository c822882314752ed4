//! The "Newton" evaluation animation.
//!
//! "The Newton animation, designed by Chris Gulka, consists of a set of
//! suspended chrome marbles, which when set into motion by raising the
//! marble on either end, illustrates the law of the conservation of
//! energy. This animation \[consists\] of one plane, five spheres, and
//! sixteen cylinders." Rebuilt procedurally: a Newton's cradle of five
//! chrome marbles hanging from a cylinder frame over a marble floor.
//!
//! Geometry inventory (matching the paper's object counts):
//! * 1 infinite floor plane,
//! * 5 chrome marble spheres,
//! * 16 cylinders: 4 legs + 2 top rails + 10 strings (2 per marble).
//!
//! The default run is the paper's **first rendering run of 45 frames**: the
//! left marble swings in, transfers its momentum, the right marble swings
//! out and back, and the impulse returns to the left marble. At any frame
//! at most one marble (plus its two strings) is moving — the high frame
//! coherence the paper measures comes from exactly this property.

use crate::animation::Animation;
use crate::scenes::cylinder_between;
use crate::track::Track;
use now_math::{Color, Point3, Vec3};
use now_raytrace::{Camera, Geometry, Material, Object, PointLight, Scene, Texture};

/// Marble radius.
const R: f64 = 0.5;
/// Height of the marble centers at rest.
const BALL_Y: f64 = 1.6;
/// Height of the top rails the strings hang from.
const RAIL_Y: f64 = 4.2;
/// Half-depth of the frame (rail z offset).
const RAIL_Z: f64 = 1.3;
/// Half-width of the frame (leg x offset).
const LEG_X: f64 = 3.2;
/// Maximum swing angle in radians.
const THETA_MAX: f64 = 0.62;

/// x positions of the five marbles (touching at rest).
fn ball_x(i: usize) -> f64 {
    (i as f64 - 2.0) * 2.0 * R
}

/// Build the static (frame-0, at-rest) scene at the given resolution.
pub fn scene(width: u32, height: u32) -> Scene {
    let camera = Camera::look_at(
        Point3::new(1.8, 2.6, 8.5),
        Point3::new(0.0, 2.2, 0.0),
        Vec3::UNIT_Y,
        38.0,
        width,
        height,
    );
    let mut s = Scene::new(camera);
    s.background = Color::new(0.04, 0.05, 0.09);
    s.ambient = Color::gray(0.9);

    // (1 plane) marble floor
    s.add_object(
        Object::new(
            Geometry::Plane {
                point: Point3::ZERO,
                normal: Vec3::UNIT_Y,
            },
            Material {
                texture: Texture::Marble {
                    a: Color::new(0.35, 0.32, 0.3),
                    b: Color::new(0.75, 0.73, 0.7),
                    frequency: 0.9,
                },
                specular: 0.2,
                shininess: 30.0,
                reflect: 0.12,
                ..Material::matte(Color::WHITE)
            },
        )
        .named("floor"),
    );

    // (5 spheres) chrome marbles
    for i in 0..5 {
        s.add_object(
            Object::new(
                Geometry::Sphere {
                    center: Point3::new(ball_x(i), BALL_Y, 0.0),
                    radius: R,
                },
                Material::chrome(Color::new(0.92, 0.94, 0.98)),
            )
            .named(&format!("ball{i}")),
        );
    }

    let frame_mat = Material {
        specular: 0.5,
        shininess: 80.0,
        reflect: 0.25,
        ..Material::matte(Color::new(0.25, 0.22, 0.2))
    };
    let string_mat = Material::matte(Color::gray(0.85));
    let rod = |a, b, radius, mat: &Material, name: String| {
        cylinder_between(a, b, radius, mat.clone()).named(&name)
    };

    // (4 cylinders) legs
    for (ix, &x) in [-LEG_X, LEG_X].iter().enumerate() {
        for (iz, &z) in [-RAIL_Z, RAIL_Z].iter().enumerate() {
            let (foot, top) = (Point3::new(x, 0.0, z), Point3::new(x, RAIL_Y, z));
            s.add_object(rod(foot, top, 0.09, &frame_mat, format!("leg{ix}{iz}")));
        }
    }
    // (2 cylinders) top rails
    for (iz, &z) in [-RAIL_Z, RAIL_Z].iter().enumerate() {
        let (left, right) = (
            Point3::new(-LEG_X, RAIL_Y, z),
            Point3::new(LEG_X, RAIL_Y, z),
        );
        s.add_object(rod(left, right, 0.07, &frame_mat, format!("rail{iz}")));
    }
    // (10 cylinders) strings: each marble hangs in a V from both rails
    for i in 0..5 {
        let top = Point3::new(ball_x(i), BALL_Y + R * 0.6, 0.0);
        for (iz, &z) in [-RAIL_Z, RAIL_Z].iter().enumerate() {
            let rail = Point3::new(ball_x(i), RAIL_Y, z);
            s.add_object(rod(top, rail, 0.018, &string_mat, format!("string{i}{iz}")));
        }
    }

    s.add_light(PointLight::new(
        Point3::new(6.0, 9.0, 7.0),
        Color::gray(0.95),
    ));
    s.add_light(PointLight::new(
        Point3::new(-5.0, 7.0, 4.0),
        Color::gray(0.35),
    ));
    s
}

/// Swing angle of the *left* marble at frame `f` (radians; negative =
/// swung outward to the left). Piecewise pendulum phases over 45 frames.
fn left_angle(f: f64) -> f64 {
    let t = f;
    if t < 10.0 {
        // falling in from full extension
        -THETA_MAX * ((t / 10.0) * std::f64::consts::FRAC_PI_2).cos()
    } else if t < 30.0 {
        0.0
    } else if t < 40.0 {
        // swinging back out after receiving the return impulse
        -THETA_MAX * (((t - 30.0) / 10.0) * std::f64::consts::FRAC_PI_2).sin()
    } else {
        // falling back in (run ends mid-swing; run 2 of the paper continues)
        -THETA_MAX * (((t - 40.0) / 10.0) * std::f64::consts::FRAC_PI_2).cos()
    }
}

/// Swing angle of the *right* marble at frame `f` (positive = outward to
/// the right).
fn right_angle(f: f64) -> f64 {
    let t = f;
    if t < 10.0 {
        0.0
    } else if t < 20.0 {
        THETA_MAX * (((t - 10.0) / 10.0) * std::f64::consts::FRAC_PI_2).sin()
    } else if t < 30.0 {
        THETA_MAX * (((t - 20.0) / 10.0) * std::f64::consts::FRAC_PI_2).cos()
    } else {
        0.0
    }
}

/// Build the 45-frame Newton animation at the paper's 320x240 resolution
/// (the paper's **first rendering run**).
pub fn animation() -> Animation {
    animation_sized(320, 240, 45)
}

/// Swing angle of the left marble in the **second rendering run**, which
/// continues exactly where run 1 stops (the paper: "this animation is
/// broken into two separate rendering runs; we will focus on the first").
/// Only its tests build run 2; the experiments render run 1.
#[cfg(test)]
fn left_angle_run2(t: f64) -> f64 {
    if t < 5.0 {
        // finish the fall run 1 left unfinished (run 1 ended half-way
        // through a 10-frame cos quarter-swing)
        -THETA_MAX * ((0.5 + t / 10.0) * std::f64::consts::FRAC_PI_2).cos()
    } else if t < 25.0 {
        0.0
    } else if t < 35.0 {
        -THETA_MAX * (((t - 25.0) / 10.0) * std::f64::consts::FRAC_PI_2).sin()
    } else {
        // settle back to rest by the end of the run
        -THETA_MAX * (1.0 - (t - 35.0) / 10.0)
    }
}

/// Right-marble angle in the second run.
#[cfg(test)]
fn right_angle_run2(t: f64) -> f64 {
    if t < 5.0 {
        0.0
    } else if t < 15.0 {
        THETA_MAX * (((t - 5.0) / 10.0) * std::f64::consts::FRAC_PI_2).sin()
    } else if t < 25.0 {
        THETA_MAX * (((t - 15.0) / 10.0) * std::f64::consts::FRAC_PI_2).cos()
    } else {
        0.0
    }
}

/// The paper's **second rendering run** (45 frames at 320x240 there),
/// continuing run 1's motion and coming to rest, at any resolution and
/// frame count.
#[cfg(test)]
fn animation_run2_sized(width: u32, height: u32, frames: usize) -> Animation {
    let base = scene(width, height);
    let mut anim = Animation::still(base, frames);
    let scale = frames as f64 / 45.0;
    let keys = |angle: &dyn Fn(f64) -> f64| -> Vec<(f64, f64)> {
        (0..frames)
            .map(|f| (f as f64, angle(f as f64 / scale)))
            .collect()
    };
    let left = Track::Rotate {
        pivot: Point3::new(ball_x(0), RAIL_Y, 0.0),
        axis: Vec3::UNIT_Z,
        keys: keys(&left_angle_run2),
    };
    let right = Track::Rotate {
        pivot: Point3::new(ball_x(4), RAIL_Y, 0.0),
        axis: Vec3::UNIT_Z,
        keys: keys(&right_angle_run2),
    };
    for name in ["ball0", "string00", "string01"] {
        let id = anim.base.object_by_name(name).unwrap();
        anim.add_track(id, left.clone());
    }
    for name in ["ball4", "string40", "string41"] {
        let id = anim.base.object_by_name(name).unwrap();
        anim.add_track(id, right.clone());
    }
    anim
}

/// Build the Newton animation at an arbitrary resolution / frame count
/// (frame count scales the swing phases).
pub fn animation_sized(width: u32, height: u32, frames: usize) -> Animation {
    let base = scene(width, height);
    let mut anim = Animation::still(base, frames);
    let scale = frames as f64 / 45.0;

    // dense per-frame keys from the phase functions
    let keys = |angle: &dyn Fn(f64) -> f64| -> Vec<(f64, f64)> {
        (0..frames)
            .map(|f| (f as f64, angle(f as f64 / scale)))
            .collect()
    };

    // the left marble (ball0 and its strings) rotates about the axis
    // through its rail anchors
    let left_pivot = Point3::new(ball_x(0), RAIL_Y, 0.0);
    let left = Track::Rotate {
        pivot: left_pivot,
        axis: Vec3::UNIT_Z,
        keys: keys(&left_angle),
    };
    let right_pivot = Point3::new(ball_x(4), RAIL_Y, 0.0);
    let right = Track::Rotate {
        pivot: right_pivot,
        axis: Vec3::UNIT_Z,
        keys: keys(&right_angle),
    };

    let base_ref = &anim.base;
    let mut ids = Vec::new();
    for name in ["ball0", "string00", "string01"] {
        ids.push((base_ref.object_by_name(name).unwrap(), left.clone()));
    }
    for name in ["ball4", "string40", "string41"] {
        ids.push((base_ref.object_by_name(name).unwrap(), right.clone()));
    }
    for (id, t) in ids {
        anim.add_track(id, t);
    }
    anim
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_inventory_matches_paper() {
        let s = scene(64, 48);
        let planes = s
            .objects
            .iter()
            .filter(|o| matches!(o.geometry, Geometry::Plane { .. }))
            .count();
        let spheres = s
            .objects
            .iter()
            .filter(|o| matches!(o.geometry, Geometry::Sphere { .. }))
            .count();
        let cylinders = s
            .objects
            .iter()
            .filter(|o| matches!(o.geometry, Geometry::Cylinder { .. }))
            .count();
        assert_eq!(planes, 1, "one plane");
        assert_eq!(spheres, 5, "five spheres");
        assert_eq!(cylinders, 16, "sixteen cylinders");
        assert_eq!(s.objects.len(), 22);
        assert_eq!(s.lights.len(), 2);
    }

    #[test]
    fn marbles_touch_at_rest() {
        for i in 0..4 {
            assert!((ball_x(i + 1) - ball_x(i) - 2.0 * R).abs() < 1e-12);
        }
    }

    #[test]
    fn at_most_one_marble_moves_per_transition() {
        let anim = animation_sized(32, 24, 45);
        for f in 1..45 {
            let a = anim.scene_at(f - 1);
            let b = anim.scene_at(f);
            let moved_balls: Vec<usize> = (0..5)
                .filter(|&i| {
                    let id = a.object_by_name(&format!("ball{i}")).unwrap() as usize;
                    a.objects[id].transform() != b.objects[id].transform()
                })
                .collect();
            assert!(
                moved_balls.len() <= 1,
                "frame {f}: balls {moved_balls:?} moved simultaneously"
            );
        }
    }

    #[test]
    fn middle_marbles_never_move() {
        let anim = animation();
        let first = anim.scene_at(0);
        for f in [7, 19, 31, 44] {
            let s = anim.scene_at(f);
            for i in 1..4 {
                let id = s.object_by_name(&format!("ball{i}")).unwrap() as usize;
                assert_eq!(
                    s.objects[id].transform(),
                    first.objects[id].transform(),
                    "middle ball {i} moved at frame {f}"
                );
            }
        }
    }

    #[test]
    fn swinging_marble_keeps_string_length() {
        let anim = animation();
        let rest = anim.scene_at(15); // left ball at rest here
        let swung = anim.scene_at(0); // left ball at full extension
        let id = rest.object_by_name("ball0").unwrap() as usize;
        let center_rest = rest.objects[id]
            .transform()
            .point(Point3::new(ball_x(0), BALL_Y, 0.0));
        let center_swung = swung.objects[id]
            .transform()
            .point(Point3::new(ball_x(0), BALL_Y, 0.0));
        let pivot = Point3::new(ball_x(0), RAIL_Y, 0.0);
        assert!(
            (center_rest.distance(pivot) - center_swung.distance(pivot)).abs() < 1e-9,
            "pendulum length must be conserved"
        );
        // and the swung ball is up and to the left
        assert!(center_swung.x < center_rest.x);
        assert!(center_swung.y > center_rest.y);
    }

    #[test]
    fn phase_handoff_is_continuous() {
        // at the handoff frames both phase functions are ~0 (balls at rest
        // in the middle): no teleporting
        assert!(left_angle(10.0).abs() < 1e-9);
        assert!(right_angle(10.0).abs() < 1e-9);
        assert!(right_angle(30.0).abs() < 1e-9);
        assert!(left_angle(30.0).abs() < 1e-9);
        // extremes reached
        assert!((left_angle(0.0) + THETA_MAX).abs() < 1e-9);
        assert!((right_angle(20.0) - THETA_MAX).abs() < 1e-9);
    }

    #[test]
    fn single_segment_stationary_camera() {
        let anim = animation_sized(32, 24, 45);
        assert_eq!(anim.segments().len(), 1);
    }

    #[test]
    fn run2_continues_run1_without_a_jump() {
        // the left marble's angle at the start of run 2 equals its angle at
        // the end of run 1
        let end_of_run1 = left_angle(45.0);
        let start_of_run2 = left_angle_run2(0.0);
        assert!(
            (end_of_run1 - start_of_run2).abs() < 1e-9,
            "{end_of_run1} vs {start_of_run2}"
        );
        // and run 2 comes to rest
        assert!(left_angle_run2(45.0).abs() < 1e-9);
        assert!(right_angle_run2(45.0).abs() < 1e-9);
    }

    #[test]
    fn run2_has_same_inventory_and_moves_marbles() {
        let anim = animation_run2_sized(32, 24, 45);
        assert_eq!(anim.base.objects.len(), 22);
        let a = anim.scene_at(7);
        let b = anim.scene_at(8);
        let id = a.object_by_name("ball4").unwrap() as usize;
        assert_ne!(a.objects[id].transform(), b.objects[id].transform());
    }
}
