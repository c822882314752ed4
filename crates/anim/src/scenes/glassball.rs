//! The Fig. 1 / Fig. 2 scene: "a glass ball bounces around a brick room".
//!
//! A refractive sphere bounces along the floor of a brick-walled room with
//! a stationary camera; only the ball (and the pixels that see it through
//! reflection, refraction, or its shadow) changes from frame to frame.

use crate::animation::Animation;
use crate::track::Track;
use now_math::{Color, Point3, Vec3};
use now_raytrace::{Camera, Geometry, Material, Object, PointLight, Scene, Texture};

/// Room half-width (x), height (y) and half-depth (z).
const HW: f64 = 4.0;
const HH: f64 = 3.0;
const HD: f64 = 4.5;
/// Ball radius.
const R: f64 = 0.55;

fn brick() -> Material {
    Material {
        texture: Texture::Brick {
            brick: Color::new(0.55, 0.2, 0.12),
            mortar: Color::new(0.75, 0.72, 0.68),
            width: 0.9,
            height: 0.35,
            joint: 0.05,
        },
        ..Material::matte(Color::WHITE)
    }
}

/// The static room with the ball at its frame-0 position.
pub fn scene(width: u32, height: u32) -> Scene {
    let camera = Camera::look_at(
        Point3::new(0.0, 1.2, HD - 0.4),
        Point3::new(0.0, 0.9, -HD),
        Vec3::UNIT_Y,
        62.0,
        width,
        height,
    );
    let mut s = Scene::new(camera);
    s.background = Color::BLACK; // fully enclosed room
    s.ambient = Color::gray(0.8);

    let wall = 0.2; // wall slab thickness
                    // floor: wooden-checker slab
    s.add_object(
        Object::new(
            Geometry::Cuboid {
                min: Point3::new(-HW - wall, -wall, -HD - wall),
                max: Point3::new(HW + wall, 0.0, HD + wall),
            },
            Material {
                texture: Texture::Checker {
                    a: Color::new(0.45, 0.3, 0.15),
                    b: Color::new(0.6, 0.45, 0.25),
                    scale: 1.0,
                },
                reflect: 0.08,
                ..Material::matte(Color::WHITE)
            },
        )
        .named("floor"),
    );
    // ceiling
    s.add_object(
        Object::new(
            Geometry::Cuboid {
                min: Point3::new(-HW - wall, 2.0 * HH, -HD - wall),
                max: Point3::new(HW + wall, 2.0 * HH + wall, HD + wall),
            },
            Material::matte(Color::gray(0.8)),
        )
        .named("ceiling"),
    );
    // brick walls: back, left, right (camera wall omitted behind the eye)
    s.add_object(
        Object::new(
            Geometry::Cuboid {
                min: Point3::new(-HW - wall, 0.0, -HD - wall),
                max: Point3::new(HW + wall, 2.0 * HH, -HD),
            },
            brick(),
        )
        .named("back_wall"),
    );
    s.add_object(
        Object::new(
            Geometry::Cuboid {
                min: Point3::new(-HW - wall, 0.0, -HD - wall),
                max: Point3::new(-HW, 2.0 * HH, HD + wall),
            },
            brick(),
        )
        .named("left_wall"),
    );
    s.add_object(
        Object::new(
            Geometry::Cuboid {
                min: Point3::new(HW, 0.0, -HD - wall),
                max: Point3::new(HW + wall, 2.0 * HH, HD + wall),
            },
            brick(),
        )
        .named("right_wall"),
    );

    // the glass ball at its frame-0 position (left side, at bounce apex)
    s.add_object(
        Object::new(
            Geometry::Sphere {
                center: ball_position(0.0),
                radius: R,
            },
            Material::glass(),
        )
        .named("ball"),
    );

    s.add_light(PointLight::new(
        Point3::new(0.0, 2.0 * HH - 0.5, 1.5),
        Color::gray(0.95),
    ));
    s.add_light(PointLight::new(
        Point3::new(2.5, 4.0, HD - 1.0),
        Color::gray(0.35),
    ));
    s
}

/// Ball center at (fractional) frame `f` of a 30-frame run: it travels
/// left to right while bouncing with a little damping.
fn ball_position(f: f64) -> Point3 {
    let t = f / 29.0; // normalized time over the default run
    let x = -2.6 + 5.2 * t;
    // two-and-a-half damped bounces
    let phase = t * 2.5 * std::f64::consts::PI;
    let y = R + 1.8 * phase.sin().abs() * (1.0 - 0.35 * t);
    let z = -1.0 + 0.8 * t;
    Point3::new(x, y, z)
}

/// The 30-frame glass-ball animation.
pub fn animation() -> Animation {
    animation_sized(320, 240, 30)
}

/// Glass-ball animation at arbitrary resolution / frame count.
pub fn animation_sized(width: u32, height: u32, frames: usize) -> Animation {
    let base = scene(width, height);
    let mut anim = Animation::still(base, frames);
    let scale = (frames.max(2) - 1) as f64 / 29.0;
    let p0 = ball_position(0.0);
    let keys: Vec<(f64, Vec3)> = (0..frames)
        .map(|f| (f as f64, ball_position(f as f64 / scale) - p0))
        .collect();
    let id = anim.base.object_by_name("ball").unwrap();
    anim.add_track(id, Track::Translate(keys));
    anim
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ball_stays_inside_the_room() {
        for f in 0..30 {
            let p = ball_position(f as f64);
            assert!(p.x.abs() < HW - R, "frame {f}: x = {}", p.x);
            assert!(
                p.y > R - 1e-9 && p.y < 2.0 * HH - R,
                "frame {f}: y = {}",
                p.y
            );
            assert!(p.z.abs() < HD - R, "frame {f}: z = {}", p.z);
        }
    }

    #[test]
    fn ball_bounces_touch_the_floor() {
        // at some frame the ball is (nearly) resting on the floor
        let min_y = (0..300)
            .map(|i| ball_position(i as f64 * 0.1).y)
            .fold(f64::INFINITY, f64::min);
        assert!(min_y < R + 0.05, "min y = {min_y}");
    }

    #[test]
    fn only_the_ball_moves() {
        let anim = animation_sized(32, 24, 30);
        let a = anim.scene_at(3);
        let b = anim.scene_at(4);
        let ball = a.object_by_name("ball").unwrap() as usize;
        for (i, (oa, ob)) in a.objects.iter().zip(b.objects.iter()).enumerate() {
            if i == ball {
                assert_ne!(oa.transform(), ob.transform());
            } else {
                assert_eq!(oa.transform(), ob.transform());
            }
        }
    }

    #[test]
    fn ball_is_glass() {
        let s = scene(16, 12);
        let ball = &s.objects[s.object_by_name("ball").unwrap() as usize];
        assert!(ball.material.transmit > 0.0);
        assert!(ball.material.ior > 1.0);
    }

    #[test]
    fn room_is_enclosed_for_the_camera() {
        // the camera looks at the back wall: the center primary ray must hit
        // geometry, not the background
        use now_math::Interval;
        let s = scene(64, 48);
        let ray = s.camera.primary_ray(32, 24, 0.5, 0.5);
        let hit_any = s.objects.iter().any(|o| {
            o.intersect(&ray, Interval::new(1e-9, f64::INFINITY))
                .is_some()
        });
        assert!(hit_any);
    }
}
