//! Seeded random-scene differential test of the paper's central claim, on
//! scenes nobody hand-picked: for every generated animation the
//! incremental (coherent) frame equals the from-scratch frame, the
//! re-rendered set covers every pixel that actually changed, and a
//! renderer under the sequence's mover mask re-renders exactly what an
//! unmasked one does, under the exact test and under the paper's voxel
//! test.
//!
//! The generator builds scenes through the Rust API: spheres, cylinders
//! and cuboids in every material, at least one mover thinner than a voxel,
//! movers scaled non-uniformly before and after their rotation (so some
//! are sheared), often an object that leaves the grid altogether, and now
//! and then no object at all. The grid is fixed per seed and deliberately
//! *not* sized to the motion.

use now_testkit::Rng;
use nowrender::coherence::{CoherentRenderer, DirtyTest, MoverMask, PixelRegion, RenderMode};
use nowrender::grid::GridSpec;
use nowrender::math::{Aabb, Affine, Color, Point3, Vec3};
use nowrender::raytrace::{
    render_frame, Camera, Framebuffer, Geometry, GridAccel, Material, NullListener, Object,
    PointLight, RayStats, RenderSettings, Scene,
};
use std::sync::Arc;

const W: u32 = 48;
const H: u32 = 36;
const FRAMES: usize = 4;
const SEEDS: u64 = 64;

/// A mover: which object, how it is scaled before and after it turns,
/// where it starts, and how it turns and travels from frame to frame.
struct Mover {
    object: usize,
    pre: Vec3,
    post: Vec3,
    home: Vec3,
    spin: Vec3,
    step: Vec3,
}

impl Mover {
    fn transform_at(&self, f: usize) -> Affine {
        let f = f as f64;
        Affine::scale(self.pre)
            .then(&Affine::rotate_axis(self.spin, 0.4 * f))
            .then(&Affine::scale(self.post))
            .then(&Affine::translate(self.home + self.step * f))
    }
}

/// A per-axis scale: uniform 1 half the time, else each axis in [0.6, 1.5].
fn scale(rng: &mut Rng) -> Vec3 {
    if rng.bool() {
        return Vec3::splat(1.0);
    }
    Vec3::new(
        rng.f64_in(0.6, 1.5),
        rng.f64_in(0.6, 1.5),
        rng.f64_in(0.6, 1.5),
    )
}

struct Fuzzed {
    base: Scene,
    movers: Vec<Mover>,
    spec: GridSpec,
    /// Some mover ends the sequence wholly outside the grid.
    leaves_grid: bool,
}

impl Fuzzed {
    fn scene_at(&self, f: usize) -> Scene {
        let mut scene = self.base.clone();
        for m in &self.movers {
            scene.objects[m.object].set_transform(m.transform_at(f));
        }
        scene
    }
}

fn point_in(rng: &mut Rng, b: &Aabb) -> Point3 {
    Point3::new(
        rng.f64_in(b.min.x, b.max.x),
        rng.f64_in(b.min.y, b.max.y),
        rng.f64_in(b.min.z, b.max.z),
    )
}

fn material(rng: &mut Rng) -> Material {
    let c = Color::new(
        rng.f64_in(0.2, 1.0),
        rng.f64_in(0.2, 1.0),
        rng.f64_in(0.2, 1.0),
    );
    match rng.u32_in(0, 5) {
        0 => Material::chrome(c),
        1 => Material::glass(),
        2 => Material::plastic(c),
        _ => Material::matte(c),
    }
}

/// A sphere, cylinder or cuboid about the origin, up to `max_size` across;
/// `thin` squeezes one dimension to a sliver.
fn geometry(rng: &mut Rng, max_size: f64, thin: bool) -> Geometry {
    let size = rng.f64_in(0.4 * max_size, max_size);
    let sliver = if thin {
        size * rng.f64_in(0.02, 0.08)
    } else {
        size
    };
    match rng.u32_in(0, 3) {
        0 => Geometry::Sphere {
            center: Point3::ZERO,
            radius: sliver * 0.5,
        },
        1 => Geometry::Cylinder {
            radius: sliver * 0.5,
            y0: -size * 0.5,
            y1: size * 0.5,
            capped: rng.bool(),
        },
        _ => Geometry::Cuboid {
            min: Point3::new(-size * 0.5, -sliver * 0.5, -size * 0.4),
            max: Point3::new(size * 0.5, sliver * 0.5, size * 0.4),
        },
    }
}

fn generate(rng: &mut Rng) -> Fuzzed {
    let cam = Camera::look_at(
        Point3::new(0.0, 1.6, 7.0),
        Point3::new(0.0, 0.6, 0.0),
        Vec3::UNIT_Y,
        55.0,
        W,
        H,
    );
    let mut base = Scene::new(cam);
    base.background = Color::new(0.05, 0.07, 0.12);
    base.add_light(PointLight::new(
        Point3::new(rng.f64_in(-5.0, 5.0), 6.0, rng.f64_in(2.0, 6.0)),
        Color::WHITE,
    ));
    if rng.bool() {
        base.add_light(PointLight::new(
            Point3::new(rng.f64_in(-5.0, 5.0), 4.0, -3.0),
            Color::gray(0.5),
        ));
    }

    // the stage the grid covers; the coarsest grid has voxels a full unit
    // across, the finest a third of one
    let stage = Aabb::new(Point3::new(-3.0, -0.5, -3.0), Point3::new(3.0, 3.0, 3.0));
    let voxels = *rng.pick(&[6 * 4 * 6, 12 * 7 * 12, 18 * 10 * 18]);
    let spec = GridSpec::for_scene(stage, voxels);
    let mut movers = Vec::new();
    let mut leaves_grid = false;
    if rng.u32_in(0, 8) == 0 {
        // nothing to see, nothing to mark
        return Fuzzed {
            base,
            movers,
            spec,
            leaves_grid,
        };
    }

    if rng.bool() {
        base.add_object(Object::new(
            Geometry::Plane {
                point: Point3::new(0.0, -0.4, 0.0),
                normal: Vec3::UNIT_Y,
            },
            material(rng),
        ));
    } else {
        base.add_object(Object::new(
            Geometry::Cuboid {
                min: Point3::new(-2.8, -0.45, -2.8),
                max: Point3::new(2.8, -0.2, 2.8),
            },
            material(rng),
        ));
    }
    let inner = Aabb::new(Point3::new(-2.0, 0.2, -2.0), Point3::new(2.0, 2.2, 2.0));
    for _ in 0..rng.usize_in(1, 5) {
        let at = point_in(rng, &inner);
        let g = geometry(rng, 1.2, false);
        base.add_object(Object::new(g, material(rng)).with_transform(Affine::translate(at)));
    }
    for i in 0..rng.usize_in(1, 4) {
        // the first mover is always thinner than a voxel
        let thin = i == 0 || rng.bool();
        let g = geometry(rng, 0.9, thin);
        let leaves = i == 1 && rng.bool();
        let step = if leaves {
            // out through a side wall and gone by the last frame
            Vec3::new(if rng.bool() { 2.4 } else { -2.4 }, 0.1, 0.0)
        } else {
            Vec3::new(
                rng.f64_in(-0.4, 0.4),
                rng.f64_in(-0.1, 0.2),
                rng.f64_in(-0.4, 0.4),
            )
        };
        leaves_grid |= leaves;
        movers.push(Mover {
            object: base.add_object(Object::new(g, material(rng))) as usize,
            pre: scale(rng),
            post: scale(rng),
            home: point_in(rng, &inner) - Point3::ZERO,
            spin: Vec3::new(rng.f64_in(-1.0, 1.0), 1.0, rng.f64_in(-1.0, 1.0)).normalized(),
            step,
        });
    }
    Fuzzed {
        base,
        movers,
        spec,
        leaves_grid,
    }
}

fn settings() -> RenderSettings {
    RenderSettings {
        max_depth: 3,
        ..RenderSettings::default()
    }
}

fn scratch(scene: &Scene, spec: GridSpec) -> Framebuffer {
    let accel = GridAccel::build_with_spec(scene, spec);
    let mut stats = RayStats::default();
    render_frame(scene, &accel, &settings(), &mut NullListener, &mut stats)
}

#[test]
fn coherent_equals_scratch_on_generated_scenes() {
    let mut partial_frames = 0;
    let mut empty_scenes = 0;
    let mut leavers = 0;
    let mut marks = 0;
    let (mut sheared, mut masked_out, mut fell_back) = (0, 0, 0);
    for seed in 0..SEEDS {
        let mut rng = Rng::with_seed(0x0005_ce9e_f022 ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let fuzzed = generate(&mut rng);
        empty_scenes += fuzzed.base.objects.is_empty() as u32;
        leavers += fuzzed.leaves_grid as u32;
        sheared += fuzzed.movers.iter().any(|m| m.post != Vec3::splat(1.0)) as u32;
        let mask = Arc::new(MoverMask::of_sequence(
            &fuzzed.spec,
            (0..FRAMES).map(|f| fuzzed.scene_at(f)),
        ));
        let mut serial = CoherentRenderer::new(fuzzed.spec, W, H, settings());
        let region = PixelRegion::full(W, H);
        let renderer = |test, mask| {
            let mode = RenderMode::Coherent {
                test,
                mask,
                block: 1,
                track_shadows: true,
            };
            CoherentRenderer::for_region(fuzzed.spec, W, H, region, mode, settings())
        };
        let mut masked_serial = renderer(DirtyTest::Exact, Some((Arc::clone(&mask), 0)));
        // the paper's voxel test, masked and unmasked
        let mut paper = renderer(DirtyTest::Paper, None);
        let mut masked_paper = renderer(DirtyTest::Paper, Some((Arc::clone(&mask), 0)));
        let mut previous: Option<Framebuffer> = None;
        for f in 0..FRAMES {
            let scene = fuzzed.scene_at(f);
            let reference = scratch(&scene, fuzzed.spec);
            let (fb, report) = serial.render_next(&scene);
            assert!(
                fb == reference,
                "seed {seed} frame {f}: {} pixels deviate from the from-scratch frame",
                fb.diff_ids(&reference).len()
            );

            // the mask changes what is stored, never what is re-rendered
            let (masked_fb, masked_report) = masked_serial.render_next(&scene);
            assert!(masked_fb == fb, "seed {seed} frame {f}: masked frame");
            assert_eq!(
                masked_report.rendered, report.rendered,
                "seed {seed} frame {f}"
            );
            assert_eq!(masked_report.full_render, report.full_render);
            assert_eq!(masked_report.changed_voxels, report.changed_voxels);
            assert_eq!(masked_report.rays, report.rays);
            let (c, m) = (report.coherence, masked_report.coherence);
            assert_eq!(
                (m.marks, m.rays_recorded, m.fallbacks),
                (c.marks, c.rays_recorded, c.fallbacks),
                "seed {seed} frame {f}"
            );
            // a masked engine tests no ray an unmasked one does not, and
            // holds no more
            assert!(m.entries <= c.entries, "seed {seed} frame {f}");
            assert!(masked_report.memory_bytes <= report.memory_bytes);

            // under the voxel test masked == unmasked is a theorem: a ray
            // whose path misses the mask crosses no changed voxel
            let (paper_fb, paper_report) = paper.render_next(&scene);
            let (masked_fb, masked_report) = masked_paper.render_next(&scene);
            assert!(
                masked_fb == paper_fb,
                "seed {seed} frame {f}: masked paper frame"
            );
            assert_eq!(
                masked_report.rendered, paper_report.rendered,
                "seed {seed} frame {f}: paper"
            );
            assert_eq!(masked_report.rays, paper_report.rays);

            if let Some(previous) = &previous {
                assert!(!report.full_render, "seed {seed} frame {f}");
                for id in reference.diff_ids(previous) {
                    assert!(
                        report.rendered.binary_search(&id).is_ok(),
                        "seed {seed} frame {f}: pixel {id} changed but was not re-rendered"
                    );
                }
                let n = report.pixels_rendered;
                partial_frames += (n > 0 && n < (W * H) as usize) as u32;
            }
            previous = Some(reference);
        }
        let stats = masked_serial.coherence_stats();
        masked_out += (stats.entries < serial.coherence_stats().entries) as u32;
        fell_back += (stats.fallbacks > 0) as u32;
        marks += serial.coherence_stats().marks;
    }
    // the generator reaches what it was written to reach
    assert!(empty_scenes >= 2, "{empty_scenes} empty scenes");
    assert!(
        leavers >= 5,
        "{leavers} scenes with an object leaving the grid"
    );
    assert!(partial_frames >= 60, "{partial_frames} partial re-renders");
    assert!(sheared >= 16, "{sheared} scenes with a sheared mover");
    assert!(
        masked_out >= 48,
        "the mask dropped a walked mark in only {masked_out} scenes"
    );
    assert!(
        fell_back >= 10,
        "a mover outside the grid forced the voxel-level set in only {fell_back} scenes"
    );
    assert!(marks > 1_000_000, "{marks} marks");
}
