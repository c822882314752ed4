//! Integration of the scene-description language with the coherent
//! renderer and the farm: a user-authored scene file must flow through the
//! whole system.

use nowrender::anim::parse::parse_animation;
use nowrender::cluster::SimCluster;
use nowrender::coherence::CoherentRenderer;
use nowrender::core::farm::Canvas;
use nowrender::core::{run_sim, CostModel, DirtyTest, FarmConfig, PartitionScheme};
use nowrender::grid::GridSpec;
use nowrender::raytrace::{render_frame, GridAccel, NullListener, RayStats, RenderSettings};

const SCENE: &str = r#"
camera eye 0 2 8 target 0 0.8 0 up 0 1 0 fov 50 size 40 30
background 0.06 0.06 0.1
light pos 4 7 5 color 1 1 1
material chrome name mirror tint 0.9 0.92 1.0
material matte  name floor color 0.5 0.5 0.55
material glass  name g
plane  name ground point 0 0 0 normal 0 1 0 material floor
sphere name ball center -1.5 0.6 0 radius 0.6 material mirror
sphere name lens center 1.2 0.7 0.5 radius 0.7 material g
box    name crate min 0.2 0 -1.8 max 1.4 0.9 -0.8 material floor
frames 4
animate ball translate key 0 0 0 0 key 3 2.4 0 0
"#;

#[test]
fn parsed_scene_renders_coherently_and_matches_scratch() {
    let anim = parse_animation(SCENE).expect("scene parses");
    let spec = GridSpec::for_scene(anim.swept_bounds(), 4096);
    let mut renderer = CoherentRenderer::new(spec, 40, 30, RenderSettings::default());
    for f in 0..anim.frames {
        let scene = anim.scene_at(f);
        let (fb, report) = renderer.render_next(&scene);
        let accel = GridAccel::build_with_spec(&scene, spec);
        let reference = render_frame(
            &scene,
            &accel,
            &RenderSettings::default(),
            &mut NullListener,
            &mut RayStats::default(),
        );
        assert!(fb.same_image(&reference), "frame {f} deviates");
        if f > 0 {
            assert!(
                report.pixels_rendered < report.region_pixels,
                "frame {f}: coherence must save work on a parsed scene too"
            );
        }
    }
}

#[test]
fn parsed_scene_runs_on_the_farm() {
    let anim = parse_animation(SCENE).unwrap();
    let cfg = FarmConfig {
        scheme: PartitionScheme::SequenceDivision { adaptive: true },
        coherence: true,
        dirty_test: DirtyTest::Exact,
        settings: RenderSettings::default(),
        cost: CostModel::default(),
        grid_voxels: 4096,
    };
    let r = run_sim(&anim, &cfg, &SimCluster::paper());
    assert_eq!(r.frame_hashes.len(), 4);

    // reference via scratch renders
    let spec = GridSpec::for_scene(anim.swept_bounds(), 4096);
    for f in 0..4 {
        let scene = anim.scene_at(f);
        let accel = GridAccel::build_with_spec(&scene, spec);
        let reference = render_frame(
            &scene,
            &accel,
            &RenderSettings::default(),
            &mut NullListener,
            &mut RayStats::default(),
        );
        assert_eq!(
            r.frame_hashes[f],
            Canvas::of(&reference).hash(),
            "frame {f}"
        );
    }
}

#[test]
fn animated_csg_object_stays_coherent() {
    // a CSG lens sliding across the floor: coherence must track it like
    // any other object (its bounds come from the expression tree)
    let text = r#"
        camera eye 0 2 8 target 0 0.8 0 up 0 1 0 fov 50 size 40 30
        background 0.06 0.06 0.1
        light pos 4 7 5 color 1 1 1
        material matte name floor color 0.5 0.5 0.55
        material glass name g
        plane  name ground point 0 0 0 normal 0 1 0 material floor
        sphere name a center -0.3 0.8 0 radius 0.8 material g
        sphere name b center 0.3 0.8 0 radius 0.8 material g
        csg name lens intersect a b material g
        frames 3
        animate lens translate key 0 0 0 0 key 2 2 0 0
    "#;
    let anim = parse_animation(text).expect("csg scene parses");
    let spec = GridSpec::for_scene(anim.swept_bounds(), 4096);
    let mut renderer = CoherentRenderer::new(spec, 40, 30, RenderSettings::default());
    for f in 0..3 {
        let scene = anim.scene_at(f);
        let (fb, report) = renderer.render_next(&scene);
        let accel = GridAccel::build_with_spec(&scene, spec);
        let reference = render_frame(
            &scene,
            &accel,
            &RenderSettings::default(),
            &mut NullListener,
            &mut RayStats::default(),
        );
        assert!(fb.same_image(&reference), "csg frame {f} deviates");
        if f > 0 {
            assert!(report.pixels_rendered < report.region_pixels);
            assert!(report.pixels_rendered > 0);
        }
    }
}

#[test]
fn scene_errors_are_actionable() {
    let bad = SCENE.replace("radius 0.6", "radius banana");
    let err = parse_animation(&bad).unwrap_err();
    assert!(err.message.contains("expected number"));
    assert!(err.line > 0);
}
