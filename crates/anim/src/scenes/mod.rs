//! Built-in animated scenes.

pub mod glassball;
pub mod newton;
pub mod orbit;

use crate::Animation;
use now_math::{Affine, Point3, Vec3, EPSILON};
use now_raytrace::{Geometry, Material, Object};

/// Most frames a `demo:` spec may ask for.
const MAX_DEMO_FRAMES: usize = 100_000;

/// Widest and tallest image a `demo:` spec may ask for, in pixels.
const MAX_DEMO_SIDE: u32 = 16_384;

/// Build an [`Animation`] from a self-contained scene spec string: either
/// a `demo:NAME[:FRAMES[:WxH]]` reference to a built-in scene (`newton`,
/// `glassball`, `orbit`; defaults 10 frames at 160x120, at most 100,000
/// frames and 16,384 pixels a side) or the scene
/// description language accepted by [`crate::parse::parse_animation`].
///
/// Unlike a file path, a spec is *transportable*: a render service can
/// ship it inside a job submission and rebuild the identical animation on
/// the other side. `nowfarm` resolves file arguments to their text before
/// submitting for exactly this reason.
pub fn from_spec(spec: &str) -> Result<Animation, String> {
    if let Some(rest) = spec.strip_prefix("demo:") {
        let mut parts = rest.split(':');
        let name = parts.next().unwrap_or("");
        let frames: usize = match parts.next() {
            Some(v) => v
                .parse()
                .map_err(|_| format!("bad frame count in `{spec}`"))?,
            None => 10,
        };
        let (w, h) = match parts.next() {
            Some(sz) => sz
                .split_once('x')
                .and_then(|(w, h)| Some((w.parse().ok()?, h.parse().ok()?)))
                .ok_or_else(|| format!("bad size in `{spec}` (want WxH)"))?,
            None => (160, 120),
        };
        if w == 0 || h == 0 || frames == 0 {
            return Err(format!("degenerate demo size in `{spec}`"));
        }
        // the scenes build per-frame tables up front: refuse a size that
        // would exhaust memory before anything is allocated
        if frames > MAX_DEMO_FRAMES {
            return Err(format!(
                "demo frame count {frames} over {MAX_DEMO_FRAMES} in `{spec}`"
            ));
        }
        if w > MAX_DEMO_SIDE || h > MAX_DEMO_SIDE {
            return Err(format!(
                "demo size {w}x{h} over {MAX_DEMO_SIDE} a side in `{spec}`"
            ));
        }
        return match name {
            "newton" => Ok(newton::animation_sized(w, h, frames)),
            "glassball" => Ok(glassball::animation_sized(w, h, frames)),
            "orbit" => Ok(orbit::animation_sized(w, h, frames, 8, 0.5)),
            other => Err(format!("unknown demo `{other}` (newton|glassball|orbit)")),
        };
    }
    crate::parse::parse_animation(spec).map_err(|e| e.to_string())
}

/// Build a cylinder object spanning from point `a` to point `b` with the
/// given radius.
///
/// The geometry is a canonical unit cylinder along local +y (`y0 = 0`,
/// `y1 = 1`); the transform scales it to the span length, rotates +y onto
/// `b - a`, and translates to `a`. Animation tracks compose on top, so a
/// string of a Newton's-cradle marble can swing with its ball.
pub fn cylinder_between(a: Point3, b: Point3, radius: f64, material: Material) -> Object {
    let span = b - a;
    let len = span.length();
    assert!(len > EPSILON, "degenerate cylinder");
    let dir = span / len;
    // rotation taking +y onto dir
    let rot = rotation_from_y(dir);
    let xf = Affine::scale(Vec3::new(1.0, len, 1.0))
        .then(&rot)
        .then(&Affine::translate(a));
    Object::new(
        Geometry::Cylinder {
            radius,
            y0: 0.0,
            y1: 1.0,
            capped: true,
        },
        material,
    )
    .with_transform(xf)
}

/// Build a conical frustum from point `a` (radius `r0`) to point `b`
/// (radius `r1`), oriented like [`cylinder_between`].
pub fn cone_between(a: Point3, b: Point3, r0: f64, r1: f64, material: Material) -> Object {
    let span = b - a;
    let len = span.length();
    assert!(len > EPSILON, "degenerate cone");
    let dir = span / len;
    let xf = Affine::scale(Vec3::new(1.0, len, 1.0))
        .then(&rotation_from_y(dir))
        .then(&Affine::translate(a));
    Object::new(
        Geometry::Cone {
            r0,
            r1,
            y0: 0.0,
            y1: 1.0,
            capped: true,
        },
        material,
    )
    .with_transform(xf)
}

/// Rotation carrying the +y axis onto `dir` (unit).
fn rotation_from_y(dir: Vec3) -> Affine {
    let d = dir.dot(Vec3::UNIT_Y);
    if d > 1.0 - 1e-12 {
        return Affine::IDENTITY;
    }
    if d < -1.0 + 1e-12 {
        // 180 degrees about any horizontal axis
        return Affine::rotate_axis(Vec3::UNIT_X, std::f64::consts::PI);
    }
    let axis = Vec3::UNIT_Y.cross(dir).normalized();
    Affine::rotate_axis(axis, d.acos())
}

#[cfg(test)]
mod tests {
    use super::*;
    use now_math::Interval;
    use now_raytrace::RayStats;

    #[test]
    fn rotation_from_y_maps_y_to_dir() {
        for dir in [
            Vec3::UNIT_Y,
            -Vec3::UNIT_Y,
            Vec3::UNIT_X,
            Vec3::new(1.0, 1.0, 1.0).normalized(),
            Vec3::new(-0.3, 0.2, 0.9).normalized(),
        ] {
            let r = rotation_from_y(dir);
            assert!(r.vector(Vec3::UNIT_Y).approx_eq(dir, 1e-9), "dir {dir}");
        }
    }

    #[test]
    fn cylinder_between_endpoints_are_on_axis() {
        let a = Point3::new(1.0, 0.5, -2.0);
        let b = Point3::new(-1.0, 3.0, 1.0);
        let obj = cylinder_between(a, b, 0.05, Material::default());
        // the transform maps local (0,0,0) to a and (0,1,0) to b
        assert!(obj.transform().point(Point3::ZERO).approx_eq(a, 1e-9));
        assert!(obj.transform().point(Point3::UNIT_Y).approx_eq(b, 1e-9));
        // a ray through the midpoint, perpendicular to the axis, hits
        let mid = a.lerp(b, 0.5);
        let axis = (b - a).normalized();
        let perp = axis
            .cross(Vec3::UNIT_X)
            .try_normalized(1e-6)
            .unwrap_or(Vec3::UNIT_Z);
        let ray = now_math::Ray::new(mid + perp * 5.0, -perp);
        let mut stats = RayStats::default();
        let _ = &mut stats;
        assert!(obj
            .intersect(&ray, Interval::new(1e-9, f64::INFINITY))
            .is_some());
    }

    #[test]
    #[should_panic]
    fn degenerate_cylinder_panics() {
        let p = Point3::new(1.0, 1.0, 1.0);
        let _ = cylinder_between(p, p, 0.1, Material::default());
    }
}
