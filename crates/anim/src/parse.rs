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

use crate::animation::Animation;
use crate::scenes::{cone_between, cylinder_between};
use crate::track::Track;
use now_math::{Color, Point3, Vec3};
use now_raytrace::{
    AreaLight, Camera, Geometry, Light, Material, Object, PointLight, Scene, SpotLight,
};
use std::collections::HashMap;
use std::fmt;

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

/// Token cursor over one line.
struct Cursor<'a> {
    tokens: Vec<&'a str>,
    pos: usize,
    line: usize,
}

impl<'a> Cursor<'a> {
    fn new(text: &'a str, line: usize) -> Cursor<'a> {
        Cursor {
            tokens: text.split_whitespace().collect(),
            pos: 0,
            line,
        }
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line,
            message: msg.into(),
        }
    }

    fn peek(&self) -> Option<&'a str> {
        self.tokens.get(self.pos).copied()
    }

    fn next_word(&mut self, what: &str) -> Result<&'a str, ParseError> {
        let t = self
            .tokens
            .get(self.pos)
            .copied()
            .ok_or_else(|| self.err(format!("expected {what}, found end of line")))?;
        self.pos += 1;
        Ok(t)
    }

    fn expect(&mut self, kw: &str) -> Result<(), ParseError> {
        let t = self.next_word(&format!("keyword `{kw}`"))?;
        if t == kw {
            Ok(())
        } else {
            Err(self.err(format!("expected keyword `{kw}`, found `{t}`")))
        }
    }

    fn accept(&mut self, kw: &str) -> bool {
        if self.peek() == Some(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn next_f64(&mut self, what: &str) -> Result<f64, ParseError> {
        let t = self.next_word(what)?;
        t.parse::<f64>()
            .map_err(|_| self.err(format!("expected number for {what}, found `{t}`")))
    }

    fn next_u32(&mut self, what: &str) -> Result<u32, ParseError> {
        let t = self.next_word(what)?;
        t.parse::<u32>()
            .map_err(|_| self.err(format!("expected integer for {what}, found `{t}`")))
    }

    fn next_vec3(&mut self, what: &str) -> Result<Vec3, ParseError> {
        Ok(Vec3::new(
            self.next_f64(what)?,
            self.next_f64(what)?,
            self.next_f64(what)?,
        ))
    }

    fn next_color(&mut self, what: &str) -> Result<Color, ParseError> {
        let v = self.next_vec3(what)?;
        Ok(Color::new(v.x, v.y, v.z))
    }

    fn finish(&self) -> Result<(), ParseError> {
        if self.pos == self.tokens.len() {
            Ok(())
        } else {
            Err(self.err(format!(
                "unexpected trailing tokens: `{}`",
                self.tokens[self.pos..].join(" ")
            )))
        }
    }
}

/// Most samples per axis an `arealight` may ask for. Each shaded point
/// casts n² shadow feelers, so the bound is what keeps one scene line
/// from exhausting a worker's memory; every scene in the repo uses 3.
const MAX_AREA_SAMPLES: u32 = 16;

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
    let mut camera: Option<Camera> = None;
    let mut background = Color::BLACK;
    let mut ambient = Color::WHITE;
    let mut lights: Vec<Light> = Vec::new();
    let mut materials: HashMap<String, Material> = HashMap::new();
    let mut objects: Vec<Object> = Vec::new();
    let mut frames = 1usize;
    // (object name, track, line for error reporting)
    let mut animates: Vec<(String, Track, usize)> = Vec::new();

    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut c = Cursor::new(line, line_no);
        let cmd = c.next_word("command")?;
        match cmd {
            "camera" => {
                c.expect("eye")?;
                let eye = c.next_vec3("eye")?;
                c.expect("target")?;
                let target = c.next_vec3("target")?;
                c.expect("up")?;
                let up = c.next_vec3("up")?;
                c.expect("fov")?;
                let fov = c.next_f64("fov")?;
                c.expect("size")?;
                let w = c.next_u32("width")?;
                let h = c.next_u32("height")?;
                c.finish()?;
                camera = Some(Camera::look_at(eye, target, up, fov, w, h));
            }
            "background" => {
                background = c.next_color("background")?;
                c.finish()?;
            }
            "ambient" => {
                ambient = c.next_color("ambient")?;
                c.finish()?;
            }
            "light" => {
                c.expect("pos")?;
                let pos = c.next_vec3("light position")?;
                c.expect("color")?;
                let color = c.next_color("light color")?;
                let mut l = PointLight::new(pos, color);
                if c.accept("atten") {
                    let a = c.next_f64("atten c")?;
                    let b = c.next_f64("atten l")?;
                    let q = c.next_f64("atten q")?;
                    l = l.with_attenuation(a, b, q);
                }
                c.finish()?;
                lights.push(l.into());
            }
            "spotlight" => {
                c.expect("pos")?;
                let pos = c.next_vec3("spotlight position")?;
                c.expect("target")?;
                let target = c.next_vec3("spotlight target")?;
                c.expect("color")?;
                let color = c.next_color("spotlight color")?;
                c.expect("inner")?;
                let inner = c.next_f64("inner half-angle (deg)")?;
                c.expect("outer")?;
                let outer = c.next_f64("outer half-angle (deg)")?;
                c.finish()?;
                if inner > outer {
                    return Err(c.err("spotlight inner angle must be <= outer angle"));
                }
                lights.push(SpotLight::new(pos, target, color, inner, outer).into());
            }
            "arealight" => {
                c.expect("corner")?;
                let corner = c.next_vec3("arealight corner")?;
                c.expect("u")?;
                let u = c.next_vec3("arealight edge u")?;
                c.expect("v")?;
                let v = c.next_vec3("arealight edge v")?;
                c.expect("color")?;
                let color = c.next_color("arealight color")?;
                c.expect("samples")?;
                let n = c.next_u32("arealight samples")?;
                c.finish()?;
                if !(1..=MAX_AREA_SAMPLES).contains(&n) {
                    let bound = format!("arealight samples {n} outside 1..={MAX_AREA_SAMPLES}");
                    return Err(c.err(format!("{bound} in `{line}`")));
                }
                lights.push(AreaLight::new(corner, u, v, color, n).into());
            }
            "material" => {
                let kind = c.next_word("material kind")?;
                c.expect("name")?;
                let name = c.next_word("material name")?.to_string();
                let mut m = match kind {
                    "matte" => Material::matte(Color::WHITE),
                    "plastic" => Material::plastic(Color::WHITE),
                    "chrome" => Material::chrome(Color::WHITE),
                    "glass" => Material::glass(),
                    other => return Err(c.err(format!("unknown material kind `{other}`"))),
                };
                loop {
                    if c.accept("color") || c.accept("tint") {
                        let col = c.next_color("color")?;
                        m.texture = now_raytrace::Texture::Solid(col);
                    } else if c.accept("reflect") {
                        m.reflect = c.next_f64("reflect")?;
                    } else if c.accept("transmit") {
                        m.transmit = c.next_f64("transmit")?;
                    } else if c.accept("ior") {
                        m.ior = c.next_f64("ior")?;
                    } else {
                        break;
                    }
                }
                c.finish()?;
                materials.insert(name, m);
            }
            "sphere" | "plane" | "box" | "cylinder" | "cone" | "torus" | "meshsphere" => {
                c.expect("name")?;
                let name = c.next_word("object name")?.to_string();
                let obj = match cmd {
                    "sphere" => {
                        c.expect("center")?;
                        let center = c.next_vec3("center")?;
                        c.expect("radius")?;
                        let r = c.next_f64("radius")?;
                        let m = take_material(&mut c, &materials)?;
                        Object::new(Geometry::Sphere { center, radius: r }, m)
                    }
                    "plane" => {
                        c.expect("point")?;
                        let point = c.next_vec3("point")?;
                        c.expect("normal")?;
                        let normal = c.next_vec3("normal")?;
                        let m = take_material(&mut c, &materials)?;
                        Object::new(
                            Geometry::Plane {
                                point,
                                normal: normal.normalized(),
                            },
                            m,
                        )
                    }
                    "box" => {
                        c.expect("min")?;
                        let min = c.next_vec3("min")?;
                        c.expect("max")?;
                        let max = c.next_vec3("max")?;
                        let m = take_material(&mut c, &materials)?;
                        Object::new(Geometry::Cuboid { min, max }, m)
                    }
                    "cylinder" => {
                        c.expect("base")?;
                        let base: Point3 = c.next_vec3("base")?;
                        c.expect("top")?;
                        let top: Point3 = c.next_vec3("top")?;
                        c.expect("radius")?;
                        let r = c.next_f64("radius")?;
                        let m = take_material(&mut c, &materials)?;
                        cylinder_between(base, top, r, m)
                    }
                    "cone" => {
                        c.expect("base")?;
                        let base: Point3 = c.next_vec3("base")?;
                        c.expect("top")?;
                        let top: Point3 = c.next_vec3("top")?;
                        c.expect("r0")?;
                        let r0 = c.next_f64("base radius")?;
                        c.expect("r1")?;
                        let r1 = c.next_f64("top radius")?;
                        let m = take_material(&mut c, &materials)?;
                        cone_between(base, top, r0, r1, m)
                    }
                    "torus" => {
                        c.expect("center")?;
                        let center: Point3 = c.next_vec3("center")?;
                        c.expect("major")?;
                        let major = c.next_f64("major radius")?;
                        c.expect("minor")?;
                        let minor = c.next_f64("minor radius")?;
                        let m = take_material(&mut c, &materials)?;
                        Object::new(Geometry::Torus { major, minor }, m)
                            .with_transform(now_math::Affine::translate(center))
                    }
                    _meshsphere => {
                        c.expect("center")?;
                        let center: Point3 = c.next_vec3("center")?;
                        c.expect("radius")?;
                        let r = c.next_f64("radius")?;
                        c.expect("detail")?;
                        let detail = c.next_u32("detail")?.clamp(2, 64);
                        let m = take_material(&mut c, &materials)?;
                        Object::new(
                            now_raytrace::mesh::uv_sphere(center, r, detail, detail * 2),
                            m,
                        )
                    }
                };
                c.finish()?;
                objects.push(obj.named(&name));
            }
            "csg" => {
                // csg name N union|intersect|difference A B material M
                c.expect("name")?;
                let name = c.next_word("csg name")?.to_string();
                let op = c.next_word("csg operation")?.to_string();
                let a_name = c.next_word("first operand")?.to_string();
                let b_name = c.next_word("second operand")?.to_string();
                let m = take_material(&mut c, &materials)?;
                c.finish()?;
                let mut take_operand = |n: &str| -> Result<Geometry, ParseError> {
                    let idx = objects.iter().position(|o| o.name == n).ok_or_else(|| {
                        c.err(format!("csg operand `{n}` is not a declared object"))
                    })?;
                    if !objects[idx].transform().is_identity() {
                        return Err(c.err(format!(
                            "csg operand `{n}` must be declared at the identity transform"
                        )));
                    }
                    let g = objects.remove(idx).geometry;
                    if !now_raytrace::Csg::supports(&g) {
                        return Err(c.err(format!("`{n}` is not a closed solid usable in csg")));
                    }
                    Ok(g)
                };
                let ga = take_operand(&a_name)?;
                let gb = take_operand(&b_name)?;
                use now_raytrace::Csg;
                let node = match op.as_str() {
                    "union" => Csg::union(Csg::Solid(ga), Csg::Solid(gb)),
                    "intersect" => Csg::intersection(Csg::Solid(ga), Csg::Solid(gb)),
                    "difference" => Csg::difference(Csg::Solid(ga), Csg::Solid(gb)),
                    other => {
                        return Err(c.err(format!(
                            "unknown csg operation `{other}` (union|intersect|difference)"
                        )))
                    }
                };
                objects.push(
                    Object::new(
                        Geometry::CsgNode {
                            node: std::sync::Arc::new(node),
                        },
                        m,
                    )
                    .named(&name),
                );
            }
            "frames" => {
                frames = c.next_u32("frame count")? as usize;
                c.finish()?;
                if frames == 0 {
                    return Err(c.err("frame count must be positive"));
                }
            }
            "animate" => {
                let target = c.next_word("object name")?.to_string();
                let kind = c.next_word("track kind")?;
                let track = match kind {
                    "translate" => {
                        let mut keys = Vec::new();
                        while c.accept("key") {
                            let f = c.next_f64("key frame")?;
                            let v = c.next_vec3("key offset")?;
                            keys.push((f, v));
                        }
                        if keys.is_empty() {
                            return Err(c.err("translate needs at least one `key F X Y Z`"));
                        }
                        Track::Translate(keys)
                    }
                    "rotate" => {
                        c.expect("pivot")?;
                        let pivot = c.next_vec3("pivot")?;
                        c.expect("axis")?;
                        let axis = c.next_vec3("axis")?;
                        let mut keys = Vec::new();
                        while c.accept("key") {
                            let f = c.next_f64("key frame")?;
                            let a = c.next_f64("key angle")?;
                            keys.push((f, a));
                        }
                        if keys.is_empty() {
                            return Err(c.err("rotate needs at least one `key F ANGLE`"));
                        }
                        Track::Rotate {
                            pivot,
                            axis: axis.normalized(),
                            keys,
                        }
                    }
                    other => return Err(c.err(format!("unknown track kind `{other}`"))),
                };
                c.finish()?;
                animates.push((target, track, line_no));
            }
            other => {
                return Err(c.err(format!("unknown command `{other}`")));
            }
        }
    }

    let camera = camera.ok_or(ParseError {
        line: text.lines().count(),
        message: "missing `camera` declaration".to_string(),
    })?;
    let mut scene = Scene::new(camera);
    scene.background = background;
    scene.ambient = ambient;
    for l in lights {
        scene.add_light(l);
    }
    for o in objects {
        scene.add_object(o);
    }
    let mut anim = Animation::still(scene, frames);
    for (target, track, line) in animates {
        let id = anim.base.object_by_name(&target).ok_or(ParseError {
            line,
            message: format!("animate target `{target}` is not a declared object"),
        })?;
        anim.add_track(id, track);
    }
    Ok(anim)
}

fn take_material(
    c: &mut Cursor<'_>,
    materials: &HashMap<String, Material>,
) -> Result<Material, ParseError> {
    c.expect("material")?;
    let name = c.next_word("material name")?;
    materials
        .get(name)
        .cloned()
        .ok_or_else(|| c.err(format!("unknown material `{name}`")))
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
        let text = r#"
            camera eye 0 2 8 target 0 0.5 0 up 0 1 0 fov 55 size 32 24
            light pos 4 6 4 color 1 1 1
            material matte name m color 0.6 0.6 0.6
            cone       name funnel base 0 0 0 top 0 2 0 r0 1 r1 0.2 material m
            torus      name ring   center 2 0.5 0 major 0.8 minor 0.2 material m
            meshsphere name bumpy  center -2 0.5 0 radius 0.5 detail 8 material m
            frames 1
        "#;
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
        let text = r#"
            camera eye 0 1 6 target 0 0 0 up 0 1 0 fov 50 size 24 18
            light pos 4 6 4 color 1 1 1
            material plastic name red color 0.9 0.2 0.2
            sphere name a center -0.4 0 0 radius 1 material red
            sphere name b center 0.4 0 0 radius 1 material red
            csg name lens intersect a b material red
            frames 1
        "#;
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
        let text = r#"
            camera eye 0 2 8 target 0 0 0 up 0 1 0 fov 55 size 16 12
            spotlight pos 0 6 0 target 0 0 0 color 1 1 1 inner 15 outer 30
            arealight corner -1 5 -1 u 2 0 0 v 0 0 2 color 0.8 0.8 0.8 samples 3
            material matte name m color 0.5 0.5 0.5
            plane name floor point 0 0 0 normal 0 1 0 material m
            frames 1
        "#;
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
}
