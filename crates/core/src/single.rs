//! Single-processor sequence rendering (Table 1, columns 1–3).

use crate::cost::CostModel;
use now_anim::Animation;
use now_cluster::paged_seconds;
use now_coherence::{CoherentRenderer, DirtyTest, MoverMask, PixelRegion, RenderMode};
use now_grid::GridSpec;
use now_raytrace::{Framebuffer, RayStats, RenderSettings};
use std::sync::Arc;

/// The (virtual) workstation a single-processor run executes on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SingleMachine {
    /// Relative speed (the paper's fast SGI is 2.0).
    pub speed: f64,
    /// Main memory in MB; working sets beyond it page.
    pub memory_mb: f64,
    /// Slowdown multiplier applied to the paged fraction of the working
    /// set (same excess-fraction model as the cluster simulator).
    pub paging_factor: f64,
}

impl SingleMachine {
    /// The paper's fastest machine: SGI Indigo2, 200 MHz, 64 MB.
    pub fn fastest() -> SingleMachine {
        SingleMachine {
            speed: 2.0,
            memory_mb: 64.0,
            paging_factor: 2.5,
        }
    }

    /// A speed-1.0 machine with unlimited memory (cost-model units).
    pub fn unit() -> SingleMachine {
        SingleMachine {
            speed: 1.0,
            memory_mb: f64::INFINITY,
            paging_factor: 1.0,
        }
    }
}

/// Whether the single-processor run uses the frame-coherence algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SequenceMode {
    /// Render every frame from scratch (POV-Ray's default behaviour:
    /// "they produce successive frames individually from the scene
    /// description").
    Plain,
    /// Frame coherence at pixel granularity, deciding dirty pixels with
    /// the given test ([`DirtyTest::Paper`] is the paper's algorithm).
    Coherent(DirtyTest),
    /// Jevans-style block coherence with the given block edge.
    BlockCoherent(u32),
}

impl SequenceMode {
    /// The whole-frame renderer of `anim` this mode runs.
    fn renderer(
        self,
        anim: &Animation,
        spec: GridSpec,
        settings: &RenderSettings,
    ) -> CoherentRenderer {
        let (width, height) = (anim.base.camera.width(), anim.base.camera.height());
        let coherent = |test, block| RenderMode::Coherent {
            test,
            mask: Some((
                Arc::new(MoverMask::of_sequence(
                    &spec,
                    (0..anim.frames).map(|f| anim.scene_at(f)),
                )),
                0,
            )),
            block,
            track_shadows: true,
        };
        let mode = match self {
            SequenceMode::Plain => RenderMode::Plain,
            SequenceMode::Coherent(test) => coherent(test, 1),
            SequenceMode::BlockCoherent(block) => coherent(DirtyTest::Exact, block),
        };
        let region = PixelRegion::full(width, height);
        CoherentRenderer::for_region(spec, width, height, region, mode, settings.clone())
    }
}

/// Timing/byte report for a single-processor sequence run.
#[derive(Debug, Clone)]
pub struct SequenceReport {
    /// Mode the run used.
    pub mode_coherent: bool,
    /// Virtual seconds for the first frame (including coherence overhead
    /// and its file write).
    pub first_frame_s: f64,
    /// Mean virtual seconds per frame.
    pub avg_frame_s: f64,
    /// Total virtual seconds for the whole run.
    pub total_s: f64,
    /// Total rays fired.
    pub rays: RayStats,
    /// Total coherence voxel marks.
    pub marks: u64,
    /// Pixels recomputed per frame.
    pub pixels_per_frame: Vec<u64>,
    /// Virtual seconds per frame.
    pub frame_s: Vec<f64>,
    /// Peak coherence memory (bytes).
    pub peak_memory_bytes: usize,
}

/// Render a whole animation on one (virtual) processor.
///
/// The paper's single-processor baseline ran on the fast 200 MHz machine
/// ([`SingleMachine::fastest`]). Every mode runs one whole-frame
/// [`CoherentRenderer`] (a plain one for [`SequenceMode::Plain`]), and a
/// frame is priced as a farm unit is: its rays, marks and copied pixels,
/// and its working set. Each finished frame goes to `sink` with its index
/// as soon as it is rendered, byte-identical to what any other mode
/// produces; the run itself keeps no finished frame.
pub fn render_sequence(
    anim: &Animation,
    settings: &RenderSettings,
    cost: &CostModel,
    mode: SequenceMode,
    machine: SingleMachine,
    grid_voxels: u32,
    mut sink: impl FnMut(usize, Framebuffer),
) -> SequenceReport {
    let spec = GridSpec::for_scene(anim.swept_bounds(), grid_voxels);
    let file_write = cost.file_write_work(anim.base.camera.width(), anim.base.camera.height());
    let mut renderer = mode.renderer(anim, spec, settings);

    let mut frame_s = Vec::with_capacity(anim.frames);
    let mut pixels_per_frame = Vec::with_capacity(anim.frames);
    let mut total_rays = RayStats::default();
    let mut total_marks = 0u64;
    let mut peak_mem = 0usize;
    for f in 0..anim.frames {
        let scene = anim.scene_at(f);
        let (fb, report) = renderer.render_next(&scene);
        let copied = (report.region_pixels - report.pixels_rendered) as u64;
        let work = cost.render_work(&report.rays, report.marks, copied) + file_write;
        let ws_mb = cost.working_set_mb(report.region_pixels, &report.coherence);
        let (speed, memory_mb) = (machine.speed, machine.memory_mb);
        frame_s.push(paged_seconds(
            work,
            speed,
            memory_mb,
            ws_mb,
            machine.paging_factor,
        ));
        pixels_per_frame.push(report.pixels_rendered as u64);
        total_rays.merge(&report.rays);
        total_marks += report.marks;
        peak_mem = peak_mem.max(report.memory_bytes);
        sink(f, fb);
    }

    let total_s: f64 = frame_s.iter().sum();
    SequenceReport {
        mode_coherent: !matches!(mode, SequenceMode::Plain),
        first_frame_s: frame_s.first().copied().unwrap_or(0.0),
        avg_frame_s: if frame_s.is_empty() {
            0.0
        } else {
            total_s / frame_s.len() as f64
        },
        total_s,
        rays: total_rays,
        marks: total_marks,
        pixels_per_frame,
        frame_s,
        peak_memory_bytes: peak_mem,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use now_anim::scenes::glassball;

    /// `render_sequence` of a 6-frame 40x30 glass ball on a 4096-voxel
    /// grid, with the frames collected.
    fn run(
        settings: &RenderSettings,
        mode: SequenceMode,
        machine: SingleMachine,
    ) -> (Vec<Framebuffer>, SequenceReport) {
        let mut frames = Vec::new();
        let report = render_sequence(
            &glassball::animation_sized(40, 30, 6),
            settings,
            &CostModel::default(),
            mode,
            machine,
            4096,
            |_, fb| frames.push(fb),
        );
        (frames, report)
    }

    #[test]
    fn coherent_and_plain_produce_identical_frames() {
        let settings = RenderSettings::default();
        let (plain, rp) = run(&settings, SequenceMode::Plain, SingleMachine::fastest());
        let (coh, rc) = run(
            &settings,
            SequenceMode::Coherent(DirtyTest::Exact),
            SingleMachine::fastest(),
        );
        assert_eq!(plain.len(), 6);
        for (i, (a, b)) in plain.iter().zip(coh.iter()).enumerate() {
            assert!(a.same_image(b), "frame {i} differs");
        }
        // coherence fires fewer rays and finishes faster
        assert!(rc.rays.total_rays() < rp.rays.total_rays());
        assert!(rc.total_s < rp.total_s);
        assert!(!rp.mode_coherent && rc.mode_coherent);
    }

    #[test]
    fn first_frame_overhead_is_modest() {
        let settings = RenderSettings::default();
        let (_, rp) = run(&settings, SequenceMode::Plain, SingleMachine::fastest());
        let (_, rc) = run(
            &settings,
            SequenceMode::Coherent(DirtyTest::Exact),
            SingleMachine::fastest(),
        );
        let overhead = rc.first_frame_s / rp.first_frame_s - 1.0;
        // the paper reports ~12%; accept a sane band
        assert!(
            (0.0..0.6).contains(&overhead),
            "first frame coherence overhead {overhead:.3}"
        );
    }

    #[test]
    fn block_coherent_matches_images_but_recomputes_more() {
        let settings = RenderSettings::default();
        let (coh, rc) = run(
            &settings,
            SequenceMode::Coherent(DirtyTest::Exact),
            SingleMachine::unit(),
        );
        let (blk, rb) = run(
            &settings,
            SequenceMode::BlockCoherent(8),
            SingleMachine::unit(),
        );
        for (a, b) in coh.iter().zip(blk.iter()) {
            assert!(a.same_image(b));
        }
        let coh_px: u64 = rc.pixels_per_frame[1..].iter().sum();
        let blk_px: u64 = rb.pixels_per_frame[1..].iter().sum();
        assert!(blk_px >= coh_px);
    }

    #[test]
    fn speed_divides_time() {
        let settings = RenderSettings::default();
        let (_, slow) = run(&settings, SequenceMode::Plain, SingleMachine::unit());
        let (_, fast) = run(
            &settings,
            SequenceMode::Plain,
            SingleMachine {
                speed: 2.0,
                ..SingleMachine::unit()
            },
        );
        assert!((slow.total_s / fast.total_s - 2.0).abs() < 1e-9);
    }
}
