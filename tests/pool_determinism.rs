//! Two-level parallelism determinism: the intra-worker tile pool (one
//! ordered tile queue) must be invisible in every output. For any thread count the
//! framebuffers are byte-identical, the coherence engine ends in exactly
//! the same state as a serial run, and the cluster backends produce the
//! same frame hashes — with or without injected faults.

use nowrender::anim::scenes::newton;
use nowrender::cluster::{FaultPlan, MachineSpec, RecoveryConfig, SimCluster};
use nowrender::coherence::CoherentRenderer;
use nowrender::core::{
    render_sequence, run_sim, CostModel, DirtyTest, FarmConfig, PartitionScheme, SequenceMode,
    SingleMachine,
};
use nowrender::grid::GridSpec;
use nowrender::raytrace::{
    render_pixels_par, Framebuffer, GridAccel, NullListener, PixelId, RayStats, RenderSettings,
};

const W: u32 = 48;
const H: u32 = 36;
const FRAMES: usize = 4;

fn settings(threads: u32) -> RenderSettings {
    RenderSettings {
        threads,
        ..RenderSettings::default()
    }
}

#[test]
fn every_sequence_mode_is_byte_identical_for_any_thread_count() {
    let anim = newton::animation_sized(W, H, FRAMES);
    let modes = [
        SequenceMode::Plain,
        SequenceMode::Coherent(DirtyTest::Exact),
        SequenceMode::Coherent(DirtyTest::Paper),
        SequenceMode::BlockCoherent(8),
    ];
    for mode in modes {
        let mut serial_frames = Vec::new();
        let serial_rep = render_sequence(
            &anim,
            &settings(1),
            &CostModel::default(),
            mode,
            SingleMachine::unit(),
            4096,
            |_, fb| serial_frames.push(fb),
        );
        for threads in [2u32, 7] {
            let mut frames = Vec::new();
            let rep = render_sequence(
                &anim,
                &settings(threads),
                &CostModel::default(),
                mode,
                SingleMachine::unit(),
                4096,
                |_, fb| frames.push(fb),
            );
            for (f, (a, b)) in serial_frames.iter().zip(&frames).enumerate() {
                assert!(
                    a.same_image(b),
                    "{mode:?} frame {f} differs at {threads} threads"
                );
            }
            assert_eq!(rep.rays, serial_rep.rays, "{mode:?} ray counts");
            assert_eq!(rep.marks, serial_rep.marks, "{mode:?} mark counts");
            assert_eq!(rep.pixels_per_frame, serial_rep.pixels_per_frame);
        }
    }
}

#[test]
fn coherent_renderer_engine_state_matches_serial_exactly() {
    let anim = newton::animation_sized(W, H, FRAMES);
    let spec = GridSpec::for_scene(anim.swept_bounds(), 4096);

    let mut reference = CoherentRenderer::new(spec, W, H, settings(1));
    let mut ref_frames = Vec::new();
    for f in 0..FRAMES {
        let (fb, _) = reference.render_next(&anim.scene_at(f));
        ref_frames.push(fb);
    }

    for threads in [2u32, 7] {
        let mut pooled = CoherentRenderer::new(spec, W, H, settings(threads));
        for (f, want) in ref_frames.iter().enumerate() {
            let (fb, report) = pooled.render_next(&anim.scene_at(f));
            assert!(
                fb.same_image(want),
                "frame {f} differs at {threads} threads"
            );
            assert!(report.parallel.speedup() >= 1.0);
        }
        // full-state equality: pixel lists, generation counters, dedup
        // stamps and statistics — the strongest possible oracle
        assert_eq!(
            pooled.engine(),
            reference.engine(),
            "engine state diverged at {threads} threads"
        );
    }
}

/// The deterministic schedule speedup (total rays over the rays on the
/// busiest lane) of a 128x96 Newton frame cut for 4 threads: a pure
/// function of the scene and the tile plan, so it is gated here, on any
/// host, and not by a timing run.
#[test]
fn four_thread_tile_plan_keeps_a_3x_schedule_speedup() {
    let scene = newton::scene(128, 96);
    let accel = GridAccel::build(&scene);
    let plan = || {
        let (mut fb, mut stats) = (Framebuffer::new(128, 96), RayStats::default());
        let ids: Vec<PixelId> = (0..fb.len() as PixelId).collect();
        render_pixels_par(
            &scene,
            &accel,
            &settings(4),
            &mut fb,
            &ids,
            &mut NullListener,
            &mut stats,
        )
    };
    let par = plan();
    assert!(par.speedup() >= 3.0, "schedule speedup {}", par.speedup());
    assert_eq!(par, plan(), "the plan differs between two runs");
}

#[test]
fn auto_thread_selection_changes_nothing_but_speed() {
    // threads: 0 resolves from NOW_THREADS (CI sets 3) or the host's
    // available parallelism; whatever it picks, bytes must not change
    let anim = newton::animation_sized(W, H, FRAMES);
    let mut serial = Vec::new();
    render_sequence(
        &anim,
        &settings(1),
        &CostModel::default(),
        SequenceMode::Coherent(DirtyTest::Exact),
        SingleMachine::unit(),
        4096,
        |_, fb| serial.push(fb),
    );
    let mut auto = Vec::new();
    let rep = render_sequence(
        &anim,
        &settings(0),
        &CostModel::default(),
        SequenceMode::Coherent(DirtyTest::Exact),
        SingleMachine::unit(),
        4096,
        |_, fb| auto.push(fb),
    );
    assert!(rep.threads >= 1);
    for (a, b) in serial.iter().zip(&auto) {
        assert!(a.same_image(b));
    }
}

fn farm_cfg(threads: u32) -> FarmConfig {
    FarmConfig {
        scheme: PartitionScheme::FrameDivision {
            tile_w: 24,
            tile_h: 18,
        },
        coherence: true,
        dirty_test: DirtyTest::Exact,
        settings: settings(threads),
        cost: CostModel::default(),
        grid_voxels: 4096,
    }
}

#[test]
fn sim_cluster_hashes_are_thread_count_invariant() {
    let anim = newton::animation_sized(W, H, FRAMES);
    let serial = run_sim(&anim, &farm_cfg(1), &SimCluster::paper());
    let pooled = run_sim(&anim, &farm_cfg(7), &SimCluster::paper());
    assert_eq!(serial.frame_hashes, pooled.frame_hashes);
    assert_eq!(serial.rays, pooled.rays);
    assert_eq!(serial.marks, pooled.marks);
    assert_eq!(pooled.report.worker_threads, 7);
    let eff = pooled.report.parallel_efficiency;
    assert!(eff > 0.0 && eff <= 1.0, "efficiency {eff} out of range");
    // pooled workers charge the critical path, never more than serial work
    assert!(pooled.report.makespan_s <= serial.report.makespan_s + 1e-9);
}

#[test]
fn chaos_with_pooled_workers_preserves_every_frame_byte() {
    // fault-free single serial worker = the strictest reference
    let anim = newton::animation_sized(W, H, FRAMES * 2);
    let reference = run_sim(
        &anim,
        &farm_cfg(1),
        &SimCluster::new(vec![MachineSpec::new("ref", 1.0, 64.0)]),
    );

    let mut cluster = SimCluster::paper();
    cluster.faults = FaultPlan::none().crash_at(1, 3);
    cluster.recovery = RecoveryConfig {
        lease_timeout_s: 30.0,
        max_worker_failures: 1,
        ..RecoveryConfig::default()
    };
    let result = run_sim(&anim, &farm_cfg(3), &cluster);

    assert_eq!(
        result.frame_hashes, reference.frame_hashes,
        "faults + tile pool must not change a single pixel"
    );
    assert!(result.report.units_reassigned >= 1);
    assert_eq!(result.report.worker_threads, 3);
}
