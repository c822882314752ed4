//! End-to-end integration: the full paper pipeline across crates.
//!
//! Every distribution scheme, backend, and coherence mode must produce the
//! same 24-bit frames as a single-processor from-scratch render.

use nowrender::anim::scenes::{glassball, newton};
use nowrender::cluster::{MachineSpec, SimCluster};
use nowrender::core::farm::Canvas;
use nowrender::core::{
    render_sequence, run_sim, run_threads, CostModel, DirtyTest, FarmConfig, PartitionScheme,
    SequenceMode, SingleMachine,
};
use nowrender::raytrace::RenderSettings;

const W: u32 = 48;
const H: u32 = 36;
const FRAMES: usize = 5;

fn newton_anim() -> nowrender::anim::Animation {
    newton::animation_sized(W, H, FRAMES)
}

fn base_cfg(scheme: PartitionScheme, coherence: bool) -> FarmConfig {
    FarmConfig {
        scheme,
        coherence,
        dirty_test: DirtyTest::Exact,
        settings: RenderSettings::default(),
        cost: CostModel::default(),
        grid_voxels: 16 * 16 * 16,
    }
}

fn reference(anim: &nowrender::anim::Animation) -> Vec<u64> {
    let mut hashes = Vec::new();
    render_sequence(
        anim,
        &RenderSettings::default(),
        &CostModel::default(),
        SequenceMode::Plain,
        SingleMachine::unit(),
        16 * 16 * 16,
        |_, fb| hashes.push(Canvas::of(&fb).hash()),
    );
    hashes
}

#[test]
fn all_schemes_and_backends_agree_on_newton() {
    let anim = newton_anim();
    let expected = reference(&anim);
    let cluster = SimCluster::paper();

    let schemes = [
        (
            "seq-div",
            PartitionScheme::SequenceDivision { adaptive: true },
            true,
        ),
        (
            "seq-div-static",
            PartitionScheme::SequenceDivision { adaptive: false },
            true,
        ),
        (
            "frame-div",
            PartitionScheme::FrameDivision {
                tile_w: 16,
                tile_h: 12,
            },
            true,
        ),
        (
            "frame-div-plain",
            PartitionScheme::FrameDivision {
                tile_w: 16,
                tile_h: 12,
            },
            false,
        ),
    ];
    for (name, scheme, coh) in schemes {
        let r = run_sim(&anim, &base_cfg(scheme, coh), &cluster);
        assert_eq!(r.frame_hashes, expected, "sim scheme {name} deviates");
    }

    // real threads
    let r = run_threads(
        &anim,
        &base_cfg(
            PartitionScheme::FrameDivision {
                tile_w: 16,
                tile_h: 12,
            },
            true,
        ),
        3,
    );
    assert_eq!(r.frame_hashes, expected, "threads backend deviates");
}

#[test]
fn coherent_single_equals_plain_single_on_glassball() {
    let anim = glassball::animation_sized(W, H, FRAMES);
    let settings = RenderSettings::default();
    let cost = CostModel::default();
    let mut plain = Vec::new();
    let pr = render_sequence(
        &anim,
        &settings,
        &cost,
        SequenceMode::Plain,
        SingleMachine::unit(),
        4096,
        |_, fb| plain.push(fb),
    );
    let mut coh = Vec::new();
    let cr = render_sequence(
        &anim,
        &settings,
        &cost,
        SequenceMode::Coherent(DirtyTest::Exact),
        SingleMachine::unit(),
        4096,
        |_, fb| coh.push(fb),
    );
    for (i, (a, b)) in plain.iter().zip(coh.iter()).enumerate() {
        assert!(a.same_image(b), "frame {i} differs");
    }
    assert!(cr.rays.total_rays() < pr.rays.total_rays());
}

#[test]
fn unusual_cluster_shapes_still_correct() {
    let anim = newton_anim();
    let expected = reference(&anim);
    // one machine
    let single = SimCluster::new(vec![MachineSpec::new("only", 1.0, 64.0)]);
    let r = run_sim(
        &anim,
        &base_cfg(PartitionScheme::SequenceDivision { adaptive: true }, true),
        &single,
    );
    assert_eq!(r.frame_hashes, expected);
    // more machines than frames
    let many = SimCluster::new(
        (0..8)
            .map(|i| MachineSpec::new(&format!("m{i}"), 1.0 + (i % 3) as f64, 64.0))
            .collect(),
    );
    let r = run_sim(
        &anim,
        &base_cfg(
            PartitionScheme::FrameDivision {
                tile_w: 12,
                tile_h: 12,
            },
            true,
        ),
        &many,
    );
    assert_eq!(r.frame_hashes, expected);
}

#[test]
fn soft_shadows_keep_coherence_exact() {
    // an area light casts penumbrae; a moving blocker's soft shadow must be
    // recomputed correctly frame to frame (every shadow sample ray is
    // tracked individually)
    use now_math::{Color, Point3, Vec3};
    use nowrender::anim::{Animation, Track};
    use nowrender::raytrace::{AreaLight, Geometry, Material, Object, Scene};

    let cam = nowrender::raytrace::Camera::look_at(
        Point3::new(0.0, 4.0, 9.0),
        Point3::new(0.0, 0.5, 0.0),
        Vec3::UNIT_Y,
        50.0,
        W,
        H,
    );
    let mut scene = Scene::new(cam);
    scene.ambient = Color::gray(0.2);
    scene.add_object(Object::new(
        Geometry::Cuboid {
            min: Point3::new(-5.0, -0.4, -5.0),
            max: Point3::new(5.0, 0.0, 5.0),
        },
        Material::matte(Color::gray(0.7)),
    ));
    scene.add_object(
        Object::new(
            Geometry::Sphere {
                center: Point3::new(-1.5, 1.3, 0.0),
                radius: 0.5,
            },
            Material::plastic(Color::new(0.8, 0.3, 0.3)),
        )
        .named("blocker"),
    );
    scene.add_light(AreaLight::new(
        Point3::new(-1.0, 6.0, -1.0),
        Vec3::new(2.0, 0.0, 0.0),
        Vec3::new(0.0, 0.0, 2.0),
        Color::gray(0.9),
        3,
    ));
    let mut anim = Animation::still(scene, 4);
    let id = anim.base.object_by_name("blocker").unwrap();
    anim.add_track(
        id,
        Track::Translate(vec![(0.0, Vec3::ZERO), (3.0, Vec3::new(3.0, 0.0, 0.0))]),
    );

    let settings = RenderSettings::default();
    let cost = CostModel::default();
    let mut plain = Vec::new();
    render_sequence(
        &anim,
        &settings,
        &cost,
        SequenceMode::Plain,
        SingleMachine::unit(),
        4096,
        |_, fb| plain.push(fb),
    );
    let mut coh = Vec::new();
    let rc = render_sequence(
        &anim,
        &settings,
        &cost,
        SequenceMode::Coherent(DirtyTest::Exact),
        SingleMachine::unit(),
        4096,
        |_, fb| coh.push(fb),
    );
    for (i, (a, b)) in plain.iter().zip(coh.iter()).enumerate() {
        assert!(a.same_image(b), "soft-shadow frame {i} deviates");
    }
    // 9 shadow samples per light per shading point
    assert!(rc.rays.shadow > rc.rays.primary);
}

#[test]
fn paper_shape_holds_at_test_scale() {
    // the qualitative claims of Table 1, enforced at a small scale
    let anim = newton_anim();
    let cluster = SimCluster::paper();
    let settings = RenderSettings::default();
    let cost = CostModel::default();

    let plain = render_sequence(
        &anim,
        &settings,
        &cost,
        SequenceMode::Plain,
        SingleMachine::fastest(),
        16 * 16 * 16,
        |_, _| {},
    );
    let coh = render_sequence(
        &anim,
        &settings,
        &cost,
        SequenceMode::Coherent(DirtyTest::Exact),
        SingleMachine::fastest(),
        16 * 16 * 16,
        |_, _| {},
    );
    let dist = run_sim(
        &anim,
        &base_cfg(
            PartitionScheme::FrameDivision {
                tile_w: 16,
                tile_h: 12,
            },
            false,
        ),
        &cluster,
    );
    let fdiv = run_sim(
        &anim,
        &base_cfg(
            PartitionScheme::FrameDivision {
                tile_w: 16,
                tile_h: 12,
            },
            true,
        ),
        &cluster,
    );

    // coherence reduces rays and time
    assert!(coh.rays.total_rays() < plain.rays.total_rays());
    assert!(coh.total_s < plain.total_s);
    // distribution alone speeds up, bounded by aggregate/fastest = 2
    let dist_speedup = plain.total_s / dist.report.makespan_s;
    assert!(
        dist_speedup > 1.2 && dist_speedup < 2.3,
        "dist speedup {dist_speedup}"
    );
    // combining multiplies: frame division beats both individual techniques
    assert!(fdiv.report.makespan_s < coh.total_s);
    assert!(fdiv.report.makespan_s < dist.report.makespan_s);
}

/// `nowfarm render` writes the frames the farm computes, under every
/// single-machine mode it offers.
#[test]
fn render_cli_frames_match_the_farm() {
    use nowrender::math::Color;
    use nowrender::raytrace::{image_io::tga_decode, Framebuffer};
    let scene = "demo:glassball:3:40x30";
    let anim = nowrender::anim::scenes::from_spec(scene).expect("demo spec");
    let expected = run_sim(&anim, &FarmConfig::paper_default(), &SimCluster::paper()).frame_hashes;
    for mode in [&[][..], &["--plain"], &["--block", "4"]] {
        let out = std::env::temp_dir().join(format!(
            "nowfarm_render_{}_{}",
            std::process::id(),
            mode.join("")
        ));
        let status = std::process::Command::new(env!("CARGO_BIN_EXE_nowfarm"))
            .args(["render", scene, "--out"])
            .arg(&out)
            .args(mode)
            .stdout(std::process::Stdio::null())
            .status()
            .expect("spawn nowfarm");
        assert!(status.success(), "render {mode:?} failed");
        let hashes: Vec<u64> = (0..anim.frames)
            .map(|f| {
                let bytes = std::fs::read(out.join(format!("frame_{f:04}.tga"))).expect("frame");
                let (w, h, rgb) = tga_decode(&bytes).expect("tga");
                let mut fb = Framebuffer::new(w, h);
                for (i, &(r, g, b)) in rgb.iter().enumerate() {
                    fb.set_id(i as u32, Color::from_u8(r, g, b));
                }
                Canvas::of(&fb).hash()
            })
            .collect();
        assert_eq!(hashes, expected, "render {mode:?} deviates from the farm");
        std::fs::remove_dir_all(&out).ok();
    }
}
