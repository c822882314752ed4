//! A small text scene-description language ("parse the user input
//! parameters" — the POV-Ray scene file stand-in).
//!
//! The format is line-oriented; `#` starts a comment. Example:
//!
//! ```text
//! camera eye 0 2 9 target 0 1 0 up 0 1 0 fov 55 size 320 240
//! background 0.05 0.05 0.1
//! light pos 5 8 5 color 1 1 1
//! material chrome name mirror tint 0.9 0.9 1.0
//! material matte  name gray  color 0.5 0.5 0.5
//! sphere name ball center 0 1 0 radius 0.5 material mirror
//! plane  name floor point 0 0 0 normal 0 1 0 material gray
//! frames 30
//! animate ball translate key 0 0 0 0 key 29 3 0 0
//! ```
//!
//! Each line's first word picks its row of the `DIRECTIVES` table; the row
//! reads that keyword's arguments and refuses any value a scene
//! constructor would assert on or turn into NaN, so no text makes
//! [`parse_animation`] panic. The grammar of every keyword is its row.

use crate::animation::Animation;
use crate::scenes::{cone_between, cylinder_between};
use crate::track::Track;
use now_math::{Affine, Color, Point3, Vec3, EPSILON};
use now_raytrace::mesh::uv_sphere;
use now_raytrace::{
    AreaLight, Camera, Csg, Geometry, Light, Material, Object, PointLight, Scene, SpotLight,
    Texture,
};
use std::collections::HashMap;
use std::fmt;
use std::iter::Peekable;
use std::str::SplitWhitespace;
use std::sync::Arc;

/// A parse failure with its line number (1-based).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// Human-readable message.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Most samples per axis an `arealight` may ask for. Each shaded point
/// casts n² shadow feelers, so the bound is what keeps one scene line
/// from exhausting a worker's memory; every scene in the repo uses 3.
const MAX_AREA_SAMPLES: u32 = 16;

/// Most mesh triangles one scene may hold. `meshsphere … detail d` makes
/// 4d(d−1) of them, so the budget holds four spheres at the top detail
/// (64); every scene in the repo uses detail 8 (224 triangles).
const MAX_MESH_TRIANGLES: u32 = 65_536;

/// One keyword's row: reads the rest of its line into the draft.
type Directive = fn(&mut Cursor<'_>, &mut Draft) -> Result<(), ParseError>;

/// The scene language, one row per keyword.
const DIRECTIVES: &[(&str, Directive)] = &[
    ("camera", camera),
    ("background", |c, d| {
        c.color("background").map(|v| d.background = v)
    }),
    ("ambient", |c, d| {
        c.color("ambient").map(|v| d.ambient = Some(v))
    }),
    ("light", light),
    ("spotlight", spotlight),
    ("arealight", arealight),
    ("material", material),
    ("sphere", |c, d| shape(c, d, sphere)),
    ("plane", |c, d| shape(c, d, plane)),
    ("box", |c, d| shape(c, d, cuboid)),
    ("cylinder", |c, d| shape(c, d, cylinder)),
    ("cone", |c, d| shape(c, d, cone)),
    ("torus", |c, d| shape(c, d, torus)),
    ("meshsphere", |c, d| shape(c, d, meshsphere)),
    ("csg", |c, d| shape(c, d, csg)),
    ("frames", frames),
    ("animate", animate),
];

/// What the rows have read so far; a `None` the text never set takes the
/// language's default when the scene is built.
#[derive(Default)]
struct Draft {
    camera: Option<Camera>,
    background: Color,
    ambient: Option<Color>,
    lights: Vec<Light>,
    materials: HashMap<String, Material>,
    objects: Vec<Object>,
    mesh_triangles: u32,
    frames: Option<usize>,
    /// `animate` tracks by target name, each with the error to report if
    /// no object of that name is declared by the end of the text.
    tracks: Vec<(String, Track, ParseError)>,
}

impl Draft {
    /// `material M`: a declared material.
    fn material(&self, c: &mut Cursor<'_>) -> Result<Material, ParseError> {
        let name = c.word_at("material")?;
        let m = self.materials.get(name).cloned();
        m.ok_or_else(|| c.err(format!("unknown material `{name}`")))
    }

    /// The declared object the next word names, taken out of the scene to
    /// become a CSG operand.
    fn operand(&mut self, c: &mut Cursor<'_>) -> Result<Geometry, ParseError> {
        let n = c.word("csg operand")?;
        let i = (self.objects.iter().position(|o| o.name == n))
            .ok_or_else(|| c.err(format!("csg operand `{n}` is not a declared object")))?;
        if !self.objects[i].transform().is_identity() {
            return Err(c.err(format!("csg operand `{n}` needs the identity transform")));
        }
        if !Csg::supports(&self.objects[i].geometry) {
            return Err(c.err(format!("`{n}` is not a closed solid usable in csg")));
        }
        Ok(self.objects.remove(i).geometry)
    }
}

/// Token cursor over one line. Its errors carry the line number and quote
/// the line.
struct Cursor<'a> {
    text: &'a str,
    tokens: Peekable<SplitWhitespace<'a>>,
    line: usize,
}

impl<'a> Cursor<'a> {
    fn err(&self, msg: impl fmt::Display) -> ParseError {
        let (line, message) = (self.line, format!("{msg} in `{}`", self.text));
        ParseError { line, message }
    }

    fn word(&mut self, what: &str) -> Result<&'a str, ParseError> {
        let t = self.tokens.next();
        t.ok_or_else(|| self.err(format!("expected {what}, found end of line")))
    }

    fn accept(&mut self, kw: &str) -> bool {
        self.tokens.next_if_eq(&kw).is_some()
    }

    fn expect(&mut self, kw: &str) -> Result<(), ParseError> {
        match self.word(&format!("keyword `{kw}`"))? {
            t if t == kw => Ok(()),
            t => Err(self.err(format!("expected keyword `{kw}`, found `{t}`"))),
        }
    }

    /// A finite number: `inf` and `NaN` parse as `f64` but place nothing.
    fn num(&mut self, what: &str) -> Result<f64, ParseError> {
        let t = self.word(what)?;
        let x = t.parse::<f64>().ok().filter(|x| x.is_finite());
        x.ok_or_else(|| self.err(format!("expected number for {what}, found `{t}`")))
    }

    fn int(&mut self, what: &str) -> Result<u32, ParseError> {
        let t = self.word(what)?;
        let n = t.parse::<u32>().ok();
        n.ok_or_else(|| self.err(format!("expected integer for {what}, found `{t}`")))
    }

    fn vec3(&mut self, what: &str) -> Result<Vec3, ParseError> {
        Ok(Vec3::new(self.num(what)?, self.num(what)?, self.num(what)?))
    }

    fn color(&mut self, what: &str) -> Result<Color, ParseError> {
        let v = self.vec3(what)?;
        Ok(Color::new(v.x, v.y, v.z))
    }

    fn word_at(&mut self, kw: &str) -> Result<&'a str, ParseError> {
        self.expect(kw)?;
        self.word(kw)
    }

    fn num_at(&mut self, kw: &str) -> Result<f64, ParseError> {
        self.expect(kw)?;
        self.num(kw)
    }

    fn int_at(&mut self, kw: &str) -> Result<u32, ParseError> {
        self.expect(kw)?;
        self.int(kw)
    }

    fn vec3_at(&mut self, kw: &str) -> Result<Vec3, ParseError> {
        self.expect(kw)?;
        self.vec3(kw)
    }

    fn color_at(&mut self, kw: &str) -> Result<Color, ParseError> {
        self.expect(kw)?;
        self.color(kw)
    }

    /// `kw X Y Z` as a unit vector; a zero vector has no direction.
    fn dir_at(&mut self, kw: &str) -> Result<Vec3, ParseError> {
        let v = self.vec3_at(kw)?;
        unit(v).ok_or_else(|| self.err(format!("{kw} must be a non-zero direction")))
    }

    /// `base P top Q` with `P ≠ Q`, the axis of a cylinder or cone.
    fn span(&mut self) -> Result<(Point3, Point3), ParseError> {
        let (base, top) = (self.vec3_at("base")?, self.vec3_at("top")?);
        let len = (top - base).length();
        if !(len > EPSILON && len.is_finite()) {
            return Err(self.err("base and top must differ"));
        }
        Ok((base, top))
    }

    /// `key F V` pairs — at least one, in frame order — each V read by `value`.
    fn keys<T>(&mut self, value: fn(&mut Self, &str) -> Result<T, ParseError>) -> Keys<T> {
        let mut keys = Vec::new();
        while self.accept("key") {
            keys.push((self.num("key frame")?, value(self, "key value")?));
        }
        if keys.is_empty() {
            return Err(self.err("a track needs at least one `key`"));
        }
        if keys.windows(2).any(|w| w[0].0 > w[1].0) {
            return Err(self.err("keys must be in frame order"));
        }
        Ok(keys)
    }
}

/// A track's `(frame, value)` keys, or why the line was refused.
type Keys<T> = Result<Vec<(f64, T)>, ParseError>;

/// `v` at unit length — the bits [`Vec3::normalized`] gives — or `None`
/// when `v` is zero or too long to measure.
fn unit(v: Vec3) -> Option<Vec3> {
    let len = v.length();
    (len > 0.0 && len.is_finite()).then(|| v / len)
}

/// Parse a scene/animation description.
///
/// ```
/// use now_anim::parse::parse_animation;
///
/// let anim = parse_animation(r#"
///     camera eye 0 1 5 target 0 0 0 up 0 1 0 fov 60 size 32 24
///     light pos 3 4 3 color 1 1 1
///     material matte name gray color 0.5 0.5 0.5
///     sphere name ball center 0 0 0 radius 1 material gray
///     frames 10
///     animate ball translate key 0 0 0 0 key 9 2 0 0
/// "#).unwrap();
/// assert_eq!(anim.frames, 10);
/// assert_eq!(anim.base.objects.len(), 1);
/// // a parse error reports its line number
/// let err = parse_animation("nonsense 1 2 3").unwrap_err();
/// assert_eq!(err.line, 1);
/// ```
pub fn parse_animation(text: &str) -> Result<Animation, ParseError> {
    let mut d = Draft::default();
    for (i, raw) in text.lines().enumerate() {
        let text = raw.split('#').next().unwrap_or("").trim();
        let (mut tokens, line) = (text.split_whitespace().peekable(), i + 1);
        let Some(cmd) = tokens.next() else { continue };
        let mut c = Cursor { text, tokens, line };
        let Some((_, row)) = DIRECTIVES.iter().find(|(kw, _)| *kw == cmd) else {
            let known: Vec<&str> = DIRECTIVES.iter().map(|(kw, _)| *kw).collect();
            return Err(c.err(format!("unknown command `{cmd}` ({})", known.join("|"))));
        };
        row(&mut c, &mut d)?;
        let rest: Vec<&str> = c.tokens.by_ref().collect();
        if !rest.is_empty() {
            return Err(c.err(format!("unexpected trailing tokens: `{}`", rest.join(" "))));
        }
    }
    let (line, message) = (text.lines().count(), "missing `camera` declaration".into());
    let mut scene = Scene::new(d.camera.ok_or(ParseError { line, message })?);
    scene.background = d.background;
    scene.ambient = d.ambient.unwrap_or(Color::WHITE);
    for l in d.lights {
        scene.add_light(l);
    }
    for o in d.objects {
        scene.add_object(o);
    }
    let mut anim = Animation::still(scene, d.frames.unwrap_or(1));
    for (target, track, missing) in d.tracks {
        anim.add_track(anim.base.object_by_name(&target).ok_or(missing)?, track);
    }
    Ok(anim)
}

/// `camera eye E target T up U fov DEG size W H`. The checks are the
/// ones `Camera::look_at` asserts and its view basis needs.
fn camera(c: &mut Cursor<'_>, d: &mut Draft) -> Result<(), ParseError> {
    let (eye, target, up) = (c.vec3_at("eye")?, c.vec3_at("target")?, c.vec3_at("up")?);
    let fov = c.num_at("fov")?;
    c.expect("size")?;
    let (w, h) = (c.int("width")?, c.int("height")?);
    if !(fov > 0.0 && fov < 180.0) {
        return Err(c.err(format!("fov {fov} outside the open range 0..180")));
    }
    if w == 0 || h == 0 {
        return Err(c.err(format!("size {w}x{h} has no pixels")));
    }
    if !unit(eye - target).is_some_and(|w| up.cross(w).length_squared() > 1e-24) {
        return Err(c.err("eye must differ from target, and up must not lie along the view"));
    }
    d.camera = Some(Camera::look_at(eye, target, up, fov, w, h));
    Ok(())
}

/// `light pos P color C [atten CONST LIN QUAD]`.
fn light(c: &mut Cursor<'_>, d: &mut Draft) -> Result<(), ParseError> {
    let mut l = PointLight::new(c.vec3_at("pos")?, c.color_at("color")?);
    if c.accept("atten") {
        l = l.with_attenuation(c.num("atten c")?, c.num("atten l")?, c.num("atten q")?);
    }
    d.lights.push(l.into());
    Ok(())
}

/// `spotlight pos P target T color C inner DEG outer DEG`.
fn spotlight(c: &mut Cursor<'_>, d: &mut Draft) -> Result<(), ParseError> {
    let (pos, target) = (c.vec3_at("pos")?, c.vec3_at("target")?);
    let color = c.color_at("color")?;
    let (inner, outer) = (c.num_at("inner")?, c.num_at("outer")?);
    if inner > outer {
        return Err(c.err("spotlight inner angle must be <= outer angle"));
    }
    if unit(target - pos).is_none() {
        return Err(c.err("spotlight target must differ from its pos"));
    }
    let spot = SpotLight::new(pos, target, color, inner, outer);
    d.lights.push(spot.into());
    Ok(())
}

/// `arealight corner P u U v V color C samples N`.
fn arealight(c: &mut Cursor<'_>, d: &mut Draft) -> Result<(), ParseError> {
    let (corner, u, v) = (c.vec3_at("corner")?, c.vec3_at("u")?, c.vec3_at("v")?);
    let (color, n) = (c.color_at("color")?, c.int_at("samples")?);
    if !(1..=MAX_AREA_SAMPLES).contains(&n) {
        return Err(c.err(format!("samples {n} outside 1..={MAX_AREA_SAMPLES}")));
    }
    d.lights.push(AreaLight::new(corner, u, v, color, n).into());
    Ok(())
}

/// `material KIND name N [color|tint C] [reflect R] [transmit T] [ior I]`.
fn material(c: &mut Cursor<'_>, d: &mut Draft) -> Result<(), ParseError> {
    let kind = c.word("material kind")?;
    let name = c.word_at("name")?;
    let mut m = match kind {
        "matte" => Material::matte(Color::WHITE),
        "plastic" => Material::plastic(Color::WHITE),
        "chrome" => Material::chrome(Color::WHITE),
        "glass" => Material::glass(),
        other => return Err(c.err(format!("unknown material kind `{other}`"))),
    };
    loop {
        if c.accept("color") || c.accept("tint") {
            m.texture = Texture::Solid(c.color("color")?);
        } else if c.accept("reflect") {
            m.reflect = c.num("reflect")?;
        } else if c.accept("transmit") {
            m.transmit = c.num("transmit")?;
        } else if c.accept("ior") {
            m.ior = c.num("ior")?;
        } else {
            break;
        }
    }
    d.materials.insert(name.to_string(), m);
    Ok(())
}

/// An object of `geometry` waiting for [`shape`] to give it its material.
fn solid(geometry: Geometry) -> Object {
    Object::new(geometry, Material::default())
}

/// What a shape row reads between its `name N` and its `material M`.
type ShapeArgs = fn(&mut Cursor<'_>, &mut Draft) -> Result<Object, ParseError>;

/// The `name N … material M` frame around a shape row's own arguments:
/// `read` builds the object, which then takes the named material.
fn shape(c: &mut Cursor<'_>, d: &mut Draft, read: ShapeArgs) -> Result<(), ParseError> {
    let name = c.word_at("name")?;
    let mut obj = read(c, d)?;
    obj.material = d.material(c)?;
    d.objects.push(obj.named(name));
    Ok(())
}

fn sphere(c: &mut Cursor<'_>, _: &mut Draft) -> Result<Object, ParseError> {
    let (center, radius) = (c.vec3_at("center")?, c.num_at("radius")?);
    Ok(solid(Geometry::Sphere { center, radius }))
}

fn plane(c: &mut Cursor<'_>, _: &mut Draft) -> Result<Object, ParseError> {
    let (point, normal) = (c.vec3_at("point")?, c.dir_at("normal")?);
    Ok(solid(Geometry::Plane { point, normal }))
}

fn cuboid(c: &mut Cursor<'_>, _: &mut Draft) -> Result<Object, ParseError> {
    let (min, max) = (c.vec3_at("min")?, c.vec3_at("max")?);
    Ok(solid(Geometry::Cuboid { min, max }))
}

fn cylinder(c: &mut Cursor<'_>, _: &mut Draft) -> Result<Object, ParseError> {
    let ((base, top), radius) = (c.span()?, c.num_at("radius")?);
    Ok(cylinder_between(base, top, radius, Material::default()))
}

fn cone(c: &mut Cursor<'_>, _: &mut Draft) -> Result<Object, ParseError> {
    let (base, top) = c.span()?;
    let (r0, r1) = (c.num_at("r0")?, c.num_at("r1")?);
    Ok(cone_between(base, top, r0, r1, Material::default()))
}

fn torus(c: &mut Cursor<'_>, _: &mut Draft) -> Result<Object, ParseError> {
    let center = c.vec3_at("center")?;
    let (major, minor) = (c.num_at("major")?, c.num_at("minor")?);
    let torus = solid(Geometry::Torus { major, minor });
    Ok(torus.with_transform(Affine::translate(center)))
}

/// `meshsphere … detail D`: a UV sphere of 4D(D−1) triangles, D clamped
/// to 2..=64, counted against the scene's [`MAX_MESH_TRIANGLES`] before
/// any is built.
fn meshsphere(c: &mut Cursor<'_>, d: &mut Draft) -> Result<Object, ParseError> {
    let (center, radius) = (c.vec3_at("center")?, c.num_at("radius")?);
    let detail = c.int_at("detail")?.clamp(2, 64);
    d.mesh_triangles += 4 * detail * (detail - 1);
    if d.mesh_triangles > MAX_MESH_TRIANGLES {
        return Err(c.err(format!("scene meshes over {MAX_MESH_TRIANGLES} triangles")));
    }
    Ok(solid(uv_sphere(center, radius, detail, detail * 2)))
}

/// `csg name N union|intersect|difference A B material M`: the operands
/// are declared objects, consumed into the new one.
fn csg(c: &mut Cursor<'_>, d: &mut Draft) -> Result<Object, ParseError> {
    let op: fn(Csg, Csg) -> Csg = match c.word("csg operation")? {
        "union" => Csg::union,
        "intersect" => Csg::intersection,
        "difference" => Csg::difference,
        other => return Err(c.err(format!("unknown csg operation `{other}`"))),
    };
    let (a, b) = (d.operand(c)?, d.operand(c)?);
    let node = Arc::new(op(Csg::Solid(a), Csg::Solid(b)));
    Ok(solid(Geometry::CsgNode { node }))
}

/// `frames N`, N ≥ 1.
fn frames(c: &mut Cursor<'_>, d: &mut Draft) -> Result<(), ParseError> {
    let n = c.int("frame count")?;
    if n == 0 {
        return Err(c.err("frame count must be positive"));
    }
    d.frames = Some(n as usize);
    Ok(())
}

/// `animate OBJ translate key F X Y Z …` or
/// `animate OBJ rotate pivot P axis A key F ANGLE …`.
fn animate(c: &mut Cursor<'_>, d: &mut Draft) -> Result<(), ParseError> {
    let target = c.word("object name")?;
    let track = match c.word("track kind")? {
        "translate" => Track::Translate(c.keys(Cursor::vec3)?),
        "rotate" => {
            let (pivot, axis) = (c.vec3_at("pivot")?, c.dir_at("axis")?);
            let keys = c.keys(Cursor::num)?;
            Track::Rotate { pivot, axis, keys }
        }
        other => return Err(c.err(format!("unknown track kind `{other}`"))),
    };
    let missing = c.err(format!("no object named `{target}` to animate"));
    d.tracks.push((target.to_string(), track, missing));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"
        # a tiny test scene
        camera eye 0 2 9 target 0 1 0 up 0 1 0 fov 55 size 64 48
        background 0.05 0.05 0.1
        ambient 0.9 0.9 0.9
        light pos 5 8 5 color 1 1 1
        light pos -5 8 5 color 0.4 0.4 0.4 atten 1 0 0.01

        material chrome name mirror tint 0.9 0.9 1.0
        material matte  name gray  color 0.5 0.5 0.5
        material glass  name g ior 1.4

        sphere   name ball  center 0 1 0 radius 0.5 material mirror
        plane    name floor point 0 0 0 normal 0 1 0 material gray
        box      name crate min 1 0 1 max 2 1 2 material gray
        cylinder name post  base -2 0 0 top -2 2 0 radius 0.1 material g

        frames 30
        animate ball translate key 0 0 0 0 key 29 3 0 0
        animate post rotate pivot -2 0 0 axis 0 1 0 key 0 0 key 29 3.14
    "#;

    /// The shapes `GOOD` leaves out.
    const PRIMITIVES: &str = r#"
        camera eye 0 2 8 target 0 0.5 0 up 0 1 0 fov 55 size 32 24
        light pos 4 6 4 color 1 1 1
        material matte name m color 0.6 0.6 0.6
        cone       name funnel base 0 0 0 top 0 2 0 r0 1 r1 0.2 material m
        torus      name ring   center 2 0.5 0 major 0.8 minor 0.2 material m
        meshsphere name bumpy  center -2 0.5 0 radius 0.5 detail 8 material m
        frames 1
    "#;

    /// Two spheres consumed into one CSG lens.
    const CSG: &str = r#"
        camera eye 0 1 6 target 0 0 0 up 0 1 0 fov 50 size 24 18
        light pos 4 6 4 color 1 1 1
        material plastic name red color 0.9 0.2 0.2
        sphere name a center -0.4 0 0 radius 1 material red
        sphere name b center 0.4 0 0 radius 1 material red
        csg name lens intersect a b material red
        frames 1
    "#;

    /// A spotlight and an area light over a floor.
    const LIGHTS: &str = r#"
        camera eye 0 2 8 target 0 0 0 up 0 1 0 fov 55 size 16 12
        spotlight pos 0 6 0 target 0 0 0 color 1 1 1 inner 15 outer 30
        arealight corner -1 5 -1 u 2 0 0 v 0 0 2 color 0.8 0.8 0.8 samples 3
        material matte name m color 0.5 0.5 0.5
        plane name floor point 0 0 0 normal 0 1 0 material m
        frames 1
    "#;

    #[test]
    fn full_example_parses() {
        let anim = parse_animation(GOOD).unwrap();
        assert_eq!(anim.frames, 30);
        assert_eq!(anim.base.objects.len(), 4);
        assert_eq!(anim.base.lights.len(), 2);
        assert_eq!(anim.tracks.len(), 2);
        assert_eq!(anim.base.camera.width(), 64);
        // ball moves over the run
        let a = anim.scene_at(0);
        let b = anim.scene_at(29);
        let id = a.object_by_name("ball").unwrap() as usize;
        let pa = a.objects[id].transform().point(Point3::ZERO);
        let pb = b.objects[id].transform().point(Point3::ZERO);
        assert!((pb.x - pa.x - 3.0).abs() < 1e-9);
    }

    #[test]
    fn materials_apply_overrides() {
        let anim = parse_animation(GOOD).unwrap();
        let s = &anim.base;
        let post = &s.objects[s.object_by_name("post").unwrap() as usize];
        assert!((post.material.ior - 1.4).abs() < 1e-12);
        let ball = &s.objects[s.object_by_name("ball").unwrap() as usize];
        assert!(ball.material.reflect > 0.0);
    }

    #[test]
    fn renders_without_panicking() {
        use now_raytrace::{render_frame, GridAccel, NullListener, RayStats, RenderSettings};
        let anim = parse_animation(GOOD).unwrap();
        let scene = anim.scene_at(0);
        let accel = GridAccel::build(&scene);
        let fb = render_frame(
            &scene,
            &accel,
            &RenderSettings::default(),
            &mut NullListener,
            &mut RayStats::default(),
        );
        assert_eq!(fb.len(), 64 * 48);
    }

    #[test]
    fn error_reports_line_numbers() {
        let bad = "camera eye 0 0 9 target 0 0 0 up 0 1 0 fov 55 size 8 8\nbogus 1 2 3\n";
        let err = parse_animation(bad).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("bogus"));
        assert!(err.to_string().contains("line 2"));
    }

    #[test]
    fn missing_camera_is_an_error() {
        let err = parse_animation("frames 3\n").unwrap_err();
        assert!(err.message.contains("camera"));
    }

    #[test]
    fn unknown_material_reference() {
        let bad = "camera eye 0 0 9 target 0 0 0 up 0 1 0 fov 55 size 8 8\n\
                   sphere name b center 0 0 0 radius 1 material nope\n";
        let err = parse_animation(bad).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("nope"));
    }

    #[test]
    fn unknown_animate_target() {
        let bad = "camera eye 0 0 9 target 0 0 0 up 0 1 0 fov 55 size 8 8\n\
                   animate ghost translate key 0 0 0 0\n";
        let err = parse_animation(bad).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("ghost"));
    }

    #[test]
    fn malformed_number() {
        let bad = "camera eye 0 0 x target 0 0 0 up 0 1 0 fov 55 size 8 8\n";
        let err = parse_animation(bad).unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("expected number"));
    }

    #[test]
    fn trailing_tokens_rejected() {
        let bad = "camera eye 0 0 9 target 0 0 0 up 0 1 0 fov 55 size 8 8 extra\n";
        let err = parse_animation(bad).unwrap_err();
        assert!(err.message.contains("trailing"));
    }

    #[test]
    fn zero_frames_rejected() {
        let bad = "camera eye 0 0 9 target 0 0 0 up 0 1 0 fov 55 size 8 8\nframes 0\n";
        assert!(parse_animation(bad).is_err());
    }

    #[test]
    fn extended_primitives_parse_and_render() {
        let text = PRIMITIVES;
        let anim = parse_animation(text).unwrap();
        assert_eq!(anim.base.objects.len(), 3);
        // all three are hit by rays aimed at them
        use now_math::Interval;
        let scene = anim.scene_at(0);
        for name in ["funnel", "ring", "bumpy"] {
            let id = scene.object_by_name(name).unwrap() as usize;
            let obj = &scene.objects[id];
            let mut target = obj.world_aabb().unwrap().center();
            if name == "ring" {
                // the box center of a torus is its hole; aim at the tube
                target.x += 0.8;
            }
            let origin = Point3::new(0.0, 3.0, 8.0);
            let ray = now_math::Ray::new(origin, (target - origin).normalized());
            assert!(
                obj.intersect(&ray, Interval::new(1e-9, f64::INFINITY))
                    .is_some(),
                "{name} not hit"
            );
        }
    }

    #[test]
    fn csg_parses_and_renders() {
        let text = CSG;
        let anim = parse_animation(text).unwrap();
        // the operands were consumed; only the csg object remains
        assert_eq!(anim.base.objects.len(), 1);
        assert_eq!(anim.base.objects[0].name, "lens");
        // the lens is hit straight on but missed off-axis where only one
        // sphere would be
        use now_math::{Interval, Ray};
        let lens = &anim.base.objects[0];
        let on = Ray::new(Point3::new(0.0, 0.0, 5.0), -Vec3::UNIT_Z);
        assert!(lens
            .intersect(&on, Interval::new(1e-9, f64::INFINITY))
            .is_some());
        let off = Ray::new(Point3::new(-1.2, 0.0, 5.0), -Vec3::UNIT_Z);
        assert!(lens
            .intersect(&off, Interval::new(1e-9, f64::INFINITY))
            .is_none());
        // errors: unknown operand, transformed operand, unknown op
        let bad = text.replace("intersect a b", "intersect a ghost");
        assert!(parse_animation(&bad).is_err());
        let bad = text.replace("intersect", "xor");
        assert!(parse_animation(&bad).is_err());
    }

    #[test]
    fn csg_rejects_transformed_operands() {
        let text = r#"
            camera eye 0 1 6 target 0 0 0 up 0 1 0 fov 50 size 8 8
            material matte name m color 0.5 0.5 0.5
            cylinder name tube base 0 0 0 top 1 1 1 radius 0.2 material m
            sphere name ball center 0 0 0 radius 1 material m
            csg name broken union tube ball material m
            frames 1
        "#;
        let err = parse_animation(text).unwrap_err();
        assert!(err.message.contains("identity transform"), "{err}");
    }

    #[test]
    fn spot_and_area_lights_parse() {
        let text = LIGHTS;
        let anim = parse_animation(text).unwrap();
        assert_eq!(anim.base.lights.len(), 2);
        assert!(matches!(anim.base.lights[0], Light::Spot(_)));
        assert!(matches!(anim.base.lights[1], Light::Area(_)));
        // invalid cone order rejected with a line number
        let bad = text.replace("inner 15 outer 30", "inner 40 outer 30");
        let err = parse_animation(&bad).unwrap_err();
        assert_eq!(err.line, 3);
        // zero samples rejected
        let bad = text.replace("samples 3", "samples 0");
        assert!(parse_animation(&bad).is_err());
    }

    /// `samples 65535` would have each shaded point push ≈ 4.3e9 light
    /// samples; the parser refuses it, naming the bound and quoting the line.
    #[test]
    fn arealight_samples_past_the_bound_are_refused() {
        let text = r#"
            camera eye 0 2 8 target 0 0 0 up 0 1 0 fov 55 size 16 12
            arealight corner -1 5 -1 u 2 0 0 v 0 0 2 color 0.8 0.8 0.8 samples 16
            frames 1
        "#;
        assert!(parse_animation(text).is_ok(), "16 is inside the bound");
        for n in [17, 65535] {
            let bad = text.replace("samples 16", &format!("samples {n}"));
            let err = parse_animation(&bad).unwrap_err();
            assert_eq!(err.line, 3);
            assert!(err.message.contains("outside 1..=16"), "{err}");
            assert!(err.message.contains(&format!("samples {n}`")), "{err}");
        }
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "\n# hello\ncamera eye 0 0 9 target 0 0 0 up 0 1 0 fov 55 size 8 8 # inline\n\n";
        assert!(parse_animation(text).is_ok());
    }

    /// Each refusal that keeps a constructor's assert (or a NaN) out of
    /// the scene, as `(scene, text it holds, replacement)`: the error
    /// names the line and quotes it.
    #[test]
    fn degenerate_values_are_refused_with_their_line() {
        let cases = [
            (GOOD, "fov 55", "fov 0"),
            (GOOD, "fov 55", "fov 180"),
            (GOOD, "fov 55", "fov inf"),
            (GOOD, "fov 55", "fov NaN"),
            (GOOD, "size 64 48", "size 0 48"),
            (GOOD, "target 0 1 0", "target 0 2 9"),
            (GOOD, "up 0 1 0", "up 0 1 9"),
            (GOOD, "normal 0 1 0", "normal 0 0 0"),
            (GOOD, "top -2 2 0", "top -2 0 0"),
            (GOOD, "axis 0 1 0", "axis 0 0 0"),
            (GOOD, "key 29 3 0 0", "key -1 3 0 0"),
            (GOOD, "key 29 3.14", "key -29 3.14"),
            (PRIMITIVES, "top 0 2 0", "top 0 0 0"),
            (LIGHTS, "target 0 0 0 color", "target 0 6 0 color"),
        ];
        for (scene, from, to) in cases {
            assert!(scene.contains(from), "{from}");
            let bad = scene.replace(from, to);
            let err = parse_animation(&bad).unwrap_err();
            let line = bad.lines().nth(err.line - 1).unwrap().trim();
            assert!(line.contains(to), "{to}: {err}");
            assert!(err.message.ends_with(&format!(" in `{line}`")), "{err}");
        }
    }

    /// `detail D` makes 4D(D−1) triangles: four spheres at 64 plus 16, 4,
    /// 2 and 2 are exactly `MAX_MESH_TRIANGLES`, one more sphere is past it.
    #[test]
    fn mesh_triangles_are_bounded_per_scene() {
        let sphere =
            |d: u32| format!("meshsphere name s{d} center 0 0 0 radius 1 detail {d} material m\n");
        let mut text = "camera eye 0 0 9 target 0 0 0 up 0 1 0 fov 55 size 8 8\n\
                        material matte name m color 0.5 0.5 0.5\n"
            .to_string();
        for d in [64, 64, 64, 64, 16, 4, 2, 2] {
            text += &sphere(d);
        }
        let anim = parse_animation(&text).expect("at the bound");
        assert_eq!(anim.base.objects.len(), 8);
        text += &sphere(2);
        let err = parse_animation(&text).unwrap_err();
        assert_eq!(err.line, 11);
        assert!(err.message.contains("over 65536 triangles"), "{err}");
        assert!(err.message.ends_with("detail 2 material m`"), "{err}");
    }

    /// Whether `err` is the missing-camera error or names a line of `text`
    /// and quotes it.
    fn names_its_line(text: &str, err: &ParseError) -> bool {
        if err.message == "missing `camera` declaration" {
            return err.line == text.lines().count();
        }
        let line = err.line.checked_sub(1).and_then(|i| text.lines().nth(i));
        let quoted = |l: &str| format!(" in `{}`", l.split('#').next().unwrap_or("").trim());
        line.is_some_and(|l| err.message.ends_with(&quoted(l)))
    }

    /// Totality: every prefix, every one-byte deletion and every one-byte
    /// substitution (from digits, `x`, `.`, `#`, space and newline) of the
    /// test scenes either parses to an animation that survives what
    /// admission and the workers do before rendering, or is refused with
    /// an error that names and quotes its line. Nothing panics, debug
    /// assertions included.
    #[test]
    fn every_mutation_of_the_corpus_parses_or_errs_and_never_panics() {
        let corpus = [GOOD, PRIMITIVES, CSG, LIGHTS];
        for (kw, _) in DIRECTIVES {
            let used = |t: &str| t.lines().any(|l| l.split_whitespace().next() == Some(kw));
            assert!(corpus.iter().any(|t| used(t)), "no corpus line uses `{kw}`");
        }
        let (mut variants, mut failures) = (0, Vec::new());
        for text in corpus {
            let b = text.as_bytes();
            assert!(text.is_ascii());
            let mut texts: Vec<Vec<u8>> = (0..=b.len()).map(|i| b[..i].to_vec()).collect();
            texts.extend((0..b.len()).map(|i| [&b[..i], &b[i + 1..]].concat()));
            for i in 0..b.len() {
                for &sub in b"0123456789x.# \n" {
                    let mut t = b.to_vec();
                    t[i] = sub;
                    texts.push(t);
                }
            }
            for t in texts {
                let t = String::from_utf8(t).unwrap();
                variants += 1;
                let ok = std::panic::catch_unwind(|| match parse_animation(&t) {
                    Ok(anim) => {
                        anim.swept_bounds();
                        anim.scene_at(anim.frames - 1);
                        true
                    }
                    Err(err) => names_its_line(&t, &err),
                });
                if !matches!(ok, Ok(true)) {
                    failures.push(t);
                }
            }
        }
        assert!(variants > 20_000, "{variants} variants");
        assert!(
            failures.is_empty(),
            "{} of {variants}, first:\n{}",
            failures.len(),
            failures[0]
        );
    }
}
