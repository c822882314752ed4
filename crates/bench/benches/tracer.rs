//! Benches for the ray-tracing kernel: primary-ray shading on the
//! evaluation scenes, recursion cost, and supersampling cost.

use now_anim::scenes::{glassball, newton};
use now_raytrace::{render_frame, GridAccel, NullListener, RayStats, RenderSettings, Scene};
use now_testkit::bench;
use std::hint::black_box;

fn newton_scene() -> Scene {
    newton::scene(64, 48)
}

fn main() {
    for (name, scene) in [
        ("render_frame_64x48/newton", newton_scene()),
        ("render_frame_64x48/glassball", glassball::scene(64, 48)),
    ] {
        let accel = GridAccel::build(&scene);
        let settings = RenderSettings::default();
        bench(name, 10, || {
            let mut stats = RayStats::default();
            let fb = render_frame(
                black_box(&scene),
                &accel,
                &settings,
                &mut NullListener,
                &mut stats,
            );
            black_box((fb, stats));
        });
    }

    let scene = newton_scene();
    let accel = GridAccel::build(&scene);
    for depth in [0u32, 1, 3, 5] {
        let settings = RenderSettings {
            max_depth: depth,
            sqrt_samples: 1,
            adaptive: None,
            threads: 1,
            trace: false,
            tile_hint: 0,
        };
        bench(&format!("ray_depth/depth_{depth}"), 10, || {
            let mut stats = RayStats::default();
            black_box(render_frame(
                &scene,
                &accel,
                &settings,
                &mut NullListener,
                &mut stats,
            ));
        });
    }

    for n in [1u32, 2, 3] {
        let settings = RenderSettings {
            max_depth: 3,
            sqrt_samples: n,
            adaptive: None,
            threads: 1,
            trace: false,
            tile_hint: 0,
        };
        bench(&format!("supersampling/{n}x{n}"), 10, || {
            let mut stats = RayStats::default();
            black_box(render_frame(
                &scene,
                &accel,
                &settings,
                &mut NullListener,
                &mut stats,
            ));
        });
    }

    bench("grid_accel_build", 50, || {
        black_box(GridAccel::build(black_box(&scene)));
    });
}
