//! Single-processor sequence rendering (Table 1, columns 1–3).

use crate::cost::CostModel;
use now_anim::Animation;
use now_coherence::CoherentRenderer;
use now_grid::GridSpec;
use now_raytrace::{
    render_pixels_par, Framebuffer, GridAccel, NullListener, PixelId, RayStats, RenderSettings,
};

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

    /// Seconds to execute `work` CPU-seconds with a working set of
    /// `ws_mb` MB.
    fn time_for(&self, work: f64, ws_mb: f64) -> f64 {
        let mut t = work / self.speed;
        if ws_mb > self.memory_mb && ws_mb > 0.0 {
            let excess = (ws_mb - self.memory_mb) / ws_mb;
            t *= 1.0 + (self.paging_factor - 1.0) * excess;
        }
        t
    }
}

/// Whether the single-processor run uses the frame-coherence algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SequenceMode {
    /// Render every frame from scratch (POV-Ray's default behaviour:
    /// "they produce successive frames individually from the scene
    /// description").
    Plain,
    /// The paper's frame-coherence algorithm at pixel granularity.
    Coherent,
    /// Jevans-style block coherence with the given block edge.
    BlockCoherent(u32),
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
    /// Tile-pool threads used per worker (1 = serial, the paper's mode).
    pub threads: u32,
    /// Per-frame parallel efficiency of the tile pool (1.0 when serial).
    pub frame_efficiency: Vec<f64>,
}

/// Render a whole animation on one (virtual) processor.
///
/// The paper's single-processor baseline ran on the fast 200 MHz machine
/// ([`SingleMachine::fastest`]). Each finished frame goes to `sink` with
/// its index as soon as it is rendered, byte-identical to what any other
/// mode produces; the run itself keeps no finished frame.
pub fn render_sequence(
    anim: &Animation,
    settings: &RenderSettings,
    cost: &CostModel,
    mode: SequenceMode,
    machine: SingleMachine,
    grid_voxels: u32,
    mut sink: impl FnMut(usize, Framebuffer),
) -> SequenceReport {
    let width = anim.base.camera.width();
    let height = anim.base.camera.height();
    let spec = GridSpec::for_scene(anim.swept_bounds(), grid_voxels);
    let file_write = cost.file_write_work(width, height);
    let total_pixels = (width as u64) * (height as u64);

    let mut frame_s = Vec::with_capacity(anim.frames);
    let mut pixels_per_frame = Vec::with_capacity(anim.frames);
    let mut frame_efficiency = Vec::with_capacity(anim.frames);
    let mut total_rays = RayStats::default();
    let mut total_marks = 0u64;
    let mut peak_mem = 0usize;
    let mut threads_used = 1u32;

    match mode {
        SequenceMode::Plain => {
            let all_ids: Vec<PixelId> = (0..total_pixels as PixelId).collect();
            for f in 0..anim.frames {
                let scene = anim.scene_at(f);
                let accel = GridAccel::build_with_spec(&scene, spec);
                let (mut fb, mut rays) = (Framebuffer::new(width, height), RayStats::default());
                let par = render_pixels_par(
                    &scene,
                    &accel,
                    settings,
                    &mut fb,
                    &all_ids,
                    &mut NullListener,
                    &mut rays,
                );
                let work = cost.parallel_render_work(&rays, 0, 0, &par) + file_write;
                let ws_mb = (width as f64 * height as f64 * 48.0) / (1024.0 * 1024.0);
                frame_s.push(machine.time_for(work, ws_mb));
                pixels_per_frame.push(rays.pixels);
                frame_efficiency.push(par.efficiency());
                threads_used = threads_used.max(par.threads);
                total_rays.merge(&rays);
                sink(f, fb);
            }
        }
        SequenceMode::Coherent | SequenceMode::BlockCoherent(_) => {
            let block = match mode {
                SequenceMode::BlockCoherent(b) => b,
                _ => 1,
            };
            let mut renderer = CoherentRenderer::with_region_and_block(
                spec,
                width,
                height,
                now_coherence::PixelRegion::full(width, height),
                block,
                settings.clone(),
            );
            let mut prev_marks = 0u64;
            for f in 0..anim.frames {
                let scene = anim.scene_at(f);
                let (fb, report) = renderer.render_next(&scene);
                let marks = report.coherence.marks - prev_marks;
                prev_marks = report.coherence.marks;
                let copied = total_pixels - report.pixels_rendered as u64;
                let work = cost.parallel_render_work(&report.rays, marks, copied, &report.parallel)
                    + file_write;
                let ws_mb = (report.memory_bytes as f64 + width as f64 * height as f64 * 48.0)
                    / (1024.0 * 1024.0);
                frame_s.push(machine.time_for(work, ws_mb));
                pixels_per_frame.push(report.pixels_rendered as u64);
                frame_efficiency.push(report.parallel.efficiency());
                threads_used = threads_used.max(report.parallel.threads);
                total_rays.merge(&report.rays);
                total_marks += marks;
                peak_mem = peak_mem.max(report.memory_bytes);
                sink(f, fb);
            }
        }
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
        threads: threads_used,
        frame_efficiency,
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
        let (coh, rc) = run(&settings, SequenceMode::Coherent, SingleMachine::fastest());
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
        let (_, rc) = run(&settings, SequenceMode::Coherent, SingleMachine::fastest());
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
        let (coh, rc) = run(&settings, SequenceMode::Coherent, SingleMachine::unit());
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
    fn pooled_sequence_keeps_frames_and_shrinks_virtual_time() {
        let serial = RenderSettings::default();
        let pooled = RenderSettings {
            threads: 4,
            ..serial.clone()
        };
        for mode in [
            SequenceMode::Plain,
            SequenceMode::Coherent,
            SequenceMode::BlockCoherent(8),
        ] {
            let (a, ra) = run(&serial, mode, SingleMachine::unit());
            let (b, rb) = run(&pooled, mode, SingleMachine::unit());
            for (i, (fa, fb)) in a.iter().zip(b.iter()).enumerate() {
                assert!(fa.same_image(fb), "{mode:?} frame {i} differs under pool");
            }
            assert_eq!(ra.rays, rb.rays, "{mode:?}: ray census must not change");
            assert_eq!(ra.marks, rb.marks, "{mode:?}: marks must not change");
            assert_eq!(ra.threads, 1);
            assert_eq!(rb.threads, 4);
            // critical-path pricing can only help, never hurt
            assert!(rb.total_s <= ra.total_s + 1e-12, "{mode:?}");
            assert!(rb.frame_efficiency.iter().all(|&e| e > 0.0 && e <= 1.0));
        }
        // a full plain frame always has enough pixels to fan out
        let (_, rp) = run(&pooled, SequenceMode::Plain, SingleMachine::unit());
        let (_, rs) = run(&serial, SequenceMode::Plain, SingleMachine::unit());
        assert!(rp.total_s < rs.total_s, "pool must shorten plain frames");
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
