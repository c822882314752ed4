//! Benches for the frame-coherence engine: ray recording (marking)
//! throughput, dirty-pixel lookup, and the incremental-vs-full frame cost
//! on a real scene.

use now_anim::scenes::glassball;
use now_coherence::{changed_voxels, ChangeSet, CoherenceEngine, CoherentRenderer};
use now_grid::dda::VoxelPathBuf;
use now_grid::GridSpec;
use now_math::{Aabb, Interval, Point3, Ray, Vec3};
use now_raytrace::{RayKind, RayListener, RenderSettings};
use now_testkit::bench;
use std::hint::black_box;

/// Walk `ray` through `spec` and report it with that path, as the tracer
/// does for every ray it fires.
fn record(
    engine: &mut CoherenceEngine,
    path: &mut VoxelPathBuf,
    spec: &GridSpec,
    pixel: u32,
    ray: &Ray,
    kind: RayKind,
) {
    path.record(spec, ray, Interval::non_negative());
    engine.on_ray(pixel, ray, kind, f64::INFINITY, path.path());
}

fn main() {
    let mut path = VoxelPathBuf::default();

    // marking throughput: a fresh engine per iteration
    let spec = GridSpec::cubic(Aabb::cube(Point3::ZERO, 8.0), 24);
    let rays: Vec<Ray> = (0..512)
        .map(|i| {
            let a = i as f64 * 0.37;
            Ray::new(
                Point3::new(-9.0, 4.0 * a.sin(), 6.0 * (a * 0.9).cos()),
                Vec3::new(1.0, 0.3 * a.cos(), 0.4 * (a * 1.7).sin()).normalized(),
            )
        })
        .collect();
    bench("engine_record_512_rays", 50, || {
        let mut engine = CoherenceEngine::new(spec, 4096);
        for (i, r) in rays.iter().enumerate() {
            let pixel = (i % 4096) as u32;
            record(&mut engine, &mut path, &spec, pixel, r, RayKind::Primary);
        }
        black_box(engine.stats());
    });

    // dirty-pixel lookup on a heavily populated engine
    let spec = GridSpec::cubic(Aabb::cube(Point3::ZERO, 8.0), 24);
    let mut engine = CoherenceEngine::new(spec, 65536);
    for i in 0..20_000u32 {
        let a = i as f64 * 0.13;
        let r = Ray::new(
            Point3::new(-9.0, 5.0 * a.sin(), 5.0 * (a * 0.7).cos()),
            Vec3::new(1.0, 0.2 * a.cos(), 0.3 * a.sin()).normalized(),
        );
        record(
            &mut engine,
            &mut path,
            &spec,
            i % 65536,
            &r,
            RayKind::Primary,
        );
    }
    let changed: Vec<_> =
        spec.voxels_overlapping_vec(&Aabb::cube(Point3::new(1.0, 0.5, -0.5), 1.2));
    bench("dirty_pixels_lookup", 50, || {
        let mut e = engine.clone();
        black_box(e.dirty_pixels(black_box(&changed)));
    });

    // scene-diff change detection
    let anim = glassball::animation_sized(64, 48, 5);
    let dspec = GridSpec::for_scene(anim.swept_bounds(), 24 * 24 * 24);
    let a = anim.scene_at(1);
    let b = anim.scene_at(2);
    bench("changed_voxels_glassball", 50, || {
        let cs = changed_voxels(&dspec, black_box(&a), black_box(&b));
        assert!(matches!(cs, ChangeSet::Voxels(_)));
        black_box(cs);
    });

    // incremental vs full frame cost
    let anim = glassball::animation_sized(64, 48, 4);
    let rspec = GridSpec::for_scene(anim.swept_bounds(), 16 * 16 * 16);
    bench("frame_render_64x48/full_with_marking", 20, || {
        let mut r = CoherentRenderer::new(rspec, 64, 48, RenderSettings::default());
        black_box(r.render_next(&anim.scene_at(0)));
    });
    bench("frame_render_64x48/incremental_dirty_only", 20, || {
        let mut r = CoherentRenderer::new(rspec, 64, 48, RenderSettings::default());
        let _ = r.render_next(&anim.scene_at(0));
        black_box(r.render_next(&anim.scene_at(1)));
    });

    // cost of the DDA clip for rays that miss the grid entirely
    let mspec = GridSpec::cubic(Aabb::cube(Point3::ZERO, 2.0), 16);
    let mut miss_engine = CoherenceEngine::new(mspec, 16);
    let miss = Ray::new(Point3::new(0.0, 50.0, 0.0), Vec3::UNIT_X);
    bench("record_miss_ray", 10_000, || {
        let ray = black_box(&miss);
        record(&mut miss_engine, &mut path, &mspec, 0, ray, RayKind::Shadow);
    });
}
