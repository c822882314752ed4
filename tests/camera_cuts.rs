//! Camera cuts: "the frame coherence algorithm proposed here works only
//! for sequences in which the camera is stationary; any camera movement
//! logically separates one sequence from another."
//!
//! These tests drive an animation containing camera cuts through the
//! segmentation API, the incremental renderer, and the farm, and verify
//! everything stays byte-exact.

use now_math::{Point3, Vec3};
use nowrender::anim::scenes::glassball;
use nowrender::anim::{Animation, Segment};
use nowrender::cluster::SimCluster;
use nowrender::coherence::CoherentRenderer;
use nowrender::core::farm::Canvas;
use nowrender::core::{run_sim, CostModel, DirtyTest, FarmConfig, PartitionScheme};
use nowrender::grid::GridSpec;
use nowrender::raytrace::{
    render_frame, Camera, GridAccel, NullListener, RayStats, RenderSettings,
};

const W: u32 = 40;
const H: u32 = 30;
const FRAMES: usize = 6;

/// Glass-ball animation with a camera cut in the middle.
fn cut_animation() -> Animation {
    let mut anim = glassball::animation_sized(W, H, FRAMES);
    let cam2 = Camera::look_at(
        Point3::new(1.5, 2.0, 3.5),
        Point3::new(0.0, 0.8, -2.0),
        Vec3::UNIT_Y,
        70.0,
        W,
        H,
    );
    anim.cameras = vec![(0, anim.base.camera.clone()), (3, cam2)];
    anim
}

fn scratch(anim: &Animation, spec: GridSpec, f: usize) -> u64 {
    let scene = anim.scene_at(f);
    let accel = GridAccel::build_with_spec(&scene, spec);
    Canvas::of(&render_frame(
        &scene,
        &accel,
        &RenderSettings::default(),
        &mut NullListener,
        &mut RayStats::default(),
    ))
    .hash()
}

#[test]
fn segmentation_splits_at_the_cut() {
    let anim = cut_animation();
    assert_eq!(
        anim.segments(),
        vec![
            Segment { start: 0, end: 3 },
            Segment {
                start: 3,
                end: FRAMES
            }
        ]
    );
}

#[test]
fn incremental_renderer_survives_the_cut() {
    let anim = cut_animation();
    let spec = GridSpec::for_scene(anim.swept_bounds(), 4096);
    let mut r = CoherentRenderer::new(spec, W, H, RenderSettings::default());
    let mut forced_full = 0;
    for f in 0..FRAMES {
        let (fb, report) = r.render_next(&anim.scene_at(f));
        assert_eq!(Canvas::of(&fb).hash(), scratch(&anim, spec, f), "frame {f}");
        if f > 0 && report.full_render {
            forced_full += 1;
        }
    }
    // exactly the cut frame forces a full re-render
    assert_eq!(forced_full, 1);
}

#[test]
fn farm_renders_across_the_cut_exactly() {
    let anim = cut_animation();
    let spec = GridSpec::for_scene(anim.swept_bounds(), 4096);
    for scheme in [
        PartitionScheme::SequenceDivision { adaptive: true },
        PartitionScheme::FrameDivision {
            tile_w: 20,
            tile_h: 15,
        },
    ] {
        let cfg = FarmConfig {
            scheme,
            coherence: true,
            dirty_test: DirtyTest::Exact,
            settings: RenderSettings::default(),
            cost: CostModel::default(),
            grid_voxels: 4096,
        };
        let result = run_sim(&anim, &cfg, &SimCluster::paper());
        for f in 0..FRAMES {
            assert_eq!(
                result.frame_hashes[f],
                scratch(&anim, spec, f),
                "{scheme:?} frame {f}"
            );
        }
    }
}

#[test]
fn per_segment_renderers_match_one_long_renderer() {
    // rendering each segment with a freshly built renderer equals the
    // single-renderer run (which detects the cut via ChangeSet::Everything)
    let anim = cut_animation();
    let spec = GridSpec::for_scene(anim.swept_bounds(), 4096);
    let mut hashes_single = Vec::new();
    let mut r = CoherentRenderer::new(spec, W, H, RenderSettings::default());
    for f in 0..FRAMES {
        let (fb, _) = r.render_next(&anim.scene_at(f));
        hashes_single.push(Canvas::of(&fb).hash());
    }

    let mut hashes_segmented = Vec::new();
    for seg in anim.segments() {
        let mut r = CoherentRenderer::new(spec, W, H, RenderSettings::default());
        for f in seg.start..seg.end {
            let (fb, _) = r.render_next(&anim.scene_at(f));
            hashes_segmented.push(Canvas::of(&fb).hash());
        }
    }
    assert_eq!(hashes_single, hashes_segmented);
}
