//! Cross-crate determinism: identical inputs must give identical images,
//! identical virtual timelines, and identical file bytes, run after run.

use nowrender::anim::scenes::newton;
use nowrender::cluster::SimCluster;
use nowrender::coherence::CoherentRenderer;
use nowrender::core::{run_sim, CostModel, DirtyTest, FarmConfig, PartitionScheme};
use nowrender::grid::GridSpec;
use nowrender::raytrace::{image_io, RenderSettings};

#[test]
fn sim_runs_are_bit_identical() {
    let anim = newton::animation_sized(40, 30, 4);
    let cfg = FarmConfig {
        scheme: PartitionScheme::FrameDivision {
            tile_w: 20,
            tile_h: 15,
        },
        coherence: true,
        dirty_test: DirtyTest::Exact,
        settings: RenderSettings::default(),
        cost: CostModel::default(),
        grid_voxels: 4096,
    };
    let cluster = SimCluster::paper();
    let a = run_sim(&anim, &cfg, &cluster);
    let b = run_sim(&anim, &cfg, &cluster);
    assert_eq!(a.frame_hashes, b.frame_hashes);
    assert_eq!(a.report, b.report, "virtual timeline must be deterministic");
    assert_eq!(a.rays, b.rays);
    assert_eq!(a.marks, b.marks);
}

#[test]
fn tga_bytes_are_reproducible() {
    let anim = newton::animation_sized(32, 24, 2);
    let spec = GridSpec::for_scene(anim.swept_bounds(), 4096);
    let render = || {
        let mut r = CoherentRenderer::new(spec, 32, 24, RenderSettings::default());
        let _ = r.render_next(&anim.scene_at(0));
        let (fb, _) = r.render_next(&anim.scene_at(1));
        image_io::tga_bytes(&fb)
    };
    assert_eq!(render(), render());
}
