//! The cost model: real measured work → virtual seconds.
//!
//! The simulator reproduces the paper's timing *shape* by pricing actually
//! performed work. Every term is observable in the renderer's counters:
//!
//! * rays traced (the paper's Table 1 reports ray counts; its speedups
//!   track ray counts closely),
//! * coherence voxel marks (the bookkeeping overhead — the paper measures
//!   it at "a reasonable 12%" of first-frame time),
//! * pixels shaded (fixed per-pixel costs),
//! * Targa bytes written per finished frame (master-side file writing,
//!   which distribution overlaps with computation).
//!
//! The default constants are calibrated to a ~1998 100 MHz SGI Indigo
//! (speed 1.0): a few tens of thousands of rays per second.

use now_coherence::CoherenceStats;
use now_raytrace::{critical_path, plan_tile_size, ParallelStats, RayStats};

/// Work pricing constants (seconds of speed-1.0 CPU per operation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Per ray traced (includes its intersection work on average).
    pub per_ray_s: f64,
    /// Per coherence voxel mark (the DDA walk + the path-log append).
    pub per_mark_s: f64,
    /// Per pixel shaded (sampling, color bookkeeping).
    pub per_pixel_s: f64,
    /// Per dirty-set/bookkeeping pixel copied between frames.
    pub per_copied_pixel_s: f64,
    /// Per byte written to a Targa file.
    pub per_file_byte_s: f64,
    /// Per coherence engine byte of working set, converted to MB for the
    /// paging model (1.0 = count engine bytes directly).
    pub engine_bytes_factor: f64,
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel {
            // ~28k rays/s at speed 1.0 — 1998 SGI Indigo territory
            per_ray_s: 36e-6,
            // one mark is a few dozen ns of 1998 CPU: DDA step + append.
            // Calibrated so first-frame coherence overhead lands near the
            // paper's measured ~12%.
            per_mark_s: 0.33e-6,
            per_pixel_s: 8e-6,
            per_copied_pixel_s: 0.4e-6,
            // ~2 MB/s effective write path for the 230 kB Targa frames
            per_file_byte_s: 0.5e-6,
            engine_bytes_factor: 1.0,
        }
    }
}

impl CostModel {
    /// CPU seconds (speed 1.0) for a frame's rendering work.
    ///
    /// `copied_pixels` is the number of pixels *not* recomputed (carried
    /// over from the previous frame by the coherence algorithm).
    pub fn render_work(&self, rays: &RayStats, marks: u64, copied_pixels: u64) -> f64 {
        rays.total_rays() as f64 * self.per_ray_s
            + marks as f64 * self.per_mark_s
            + rays.pixels as f64 * self.per_pixel_s
            + copied_pixels as f64 * self.per_copied_pixel_s
    }

    /// CPU seconds (speed 1.0) for a frame rendered through the intra-worker
    /// tile pool: ray and pixel work is charged for the *critical path*
    /// (divided by the pool's achieved speedup), while coherence marks and
    /// pixel copies stay serial — shard replay and frame assembly happen on
    /// one thread.
    ///
    /// With a serial [`ParallelStats`] (speedup 1.0) this equals
    /// [`render_work`](CostModel::render_work) exactly, so existing
    /// single-thread timings are unchanged.
    pub fn parallel_render_work(
        &self,
        rays: &RayStats,
        marks: u64,
        copied_pixels: u64,
        par: &ParallelStats,
    ) -> f64 {
        let concurrent =
            rays.total_rays() as f64 * self.per_ray_s + rays.pixels as f64 * self.per_pixel_s;
        concurrent / par.speedup()
            + marks as f64 * self.per_mark_s
            + copied_pixels as f64 * self.per_copied_pixel_s
    }

    /// Predicted pool statistics for a frame of `pixels` pixels firing
    /// `total_rays` rays on `threads` threads, planned with the *same*
    /// [`plan_tile_size`] the real tile pool uses — so a `--tile WxH` hint
    /// ([`RenderSettings::tile_hint`]) means exactly the same thing to the
    /// cost model as to the renderer. Rays are assumed uniform per pixel;
    /// the prediction is the deterministic greedy schedule over the
    /// resulting tiles.
    ///
    /// [`RenderSettings::tile_hint`]: now_raytrace::RenderSettings::tile_hint
    pub fn predicted_pool_stats(
        &self,
        total_rays: u64,
        pixels: usize,
        threads: u32,
        tile_hint: u32,
    ) -> ParallelStats {
        let threads = threads.max(1);
        if threads == 1 || pixels == 0 {
            return ParallelStats::serial(total_rays);
        }
        let tile = plan_tile_size(pixels, threads, tile_hint);
        let tiles = pixels.div_ceil(tile);
        // spread rays over tiles proportionally to tile pixel counts
        let mut tile_rays = Vec::with_capacity(tiles);
        for i in 0..tiles {
            let start = i * tile;
            let end = (start + tile).min(pixels);
            tile_rays.push(total_rays * (end - start) as u64 / pixels as u64);
        }
        ParallelStats {
            threads,
            tiles: tiles as u32,
            total_rays,
            critical_rays: critical_path(&tile_rays, threads),
        }
    }

    /// CPU seconds to write one finished frame to disk (24-bit Targa).
    pub fn file_write_work(&self, width: u32, height: u32) -> f64 {
        (18 + width as u64 * height as u64 * 3) as f64 * self.per_file_byte_s
    }

    /// Working-set estimate in MB for a coherent worker: framebuffer pair
    /// plus the engine's ray-path log. The engine term charges the log
    /// bytes the engine reports (`CoherenceStats::list_bytes`, under one
    /// byte per stored mark), not a fixed 8 bytes per entry.
    pub fn working_set_mb(&self, region_pixels: usize, coherence: &CoherenceStats) -> f64 {
        let fb = region_pixels as f64 * 2.0 * 24.0; // two Color buffers
        let engine = coherence.list_bytes as f64 * self.engine_bytes_factor;
        (fb + engine) / (1024.0 * 1024.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_work_scales_with_rays() {
        let m = CostModel::default();
        let a = RayStats {
            primary: 1000,
            pixels: 1000,
            ..Default::default()
        };
        let b = RayStats { primary: 2000, ..a };
        assert!(m.render_work(&b, 0, 0) > m.render_work(&a, 0, 0));
    }

    #[test]
    fn marks_add_overhead() {
        let m = CostModel::default();
        let rays = RayStats {
            primary: 10_000,
            shadow: 10_000,
            pixels: 10_000,
            ..Default::default()
        };
        let plain = m.render_work(&rays, 0, 0);
        // a typical ray crosses a couple dozen voxels
        let with_marks = m.render_work(&rays, 20_000 * 24, 0);
        let overhead = (with_marks - plain) / plain;
        // the paper reports ~12% first-frame overhead; the default model
        // must land in that neighbourhood for typical mark densities
        assert!(
            (0.05..0.60).contains(&overhead),
            "overhead {overhead:.3} out of plausible band"
        );
    }

    #[test]
    fn parallel_work_charges_the_critical_path() {
        let m = CostModel::default();
        let rays = RayStats {
            primary: 10_000,
            shadow: 10_000,
            pixels: 10_000,
            ..Default::default()
        };
        // serial stats: byte-for-byte the old serial charge
        let serial = ParallelStats::serial(rays.total_rays());
        assert_eq!(
            m.parallel_render_work(&rays, 5000, 2000, &serial),
            m.render_work(&rays, 5000, 2000)
        );
        // a perfectly balanced 4-thread run quarters the ray/pixel work
        // but leaves marks and copies serial
        let par = ParallelStats {
            threads: 4,
            tiles: 16,
            total_rays: rays.total_rays(),
            critical_rays: rays.total_rays() / 4,
        };
        let t = m.parallel_render_work(&rays, 5000, 2000, &par);
        let serial_t = m.render_work(&rays, 5000, 2000);
        let marks_copies = 5000.0 * m.per_mark_s + 2000.0 * m.per_copied_pixel_s;
        assert!((t - ((serial_t - marks_copies) / 4.0 + marks_copies)).abs() < 1e-12);
        assert!(t < serial_t);
    }

    #[test]
    fn file_write_cost_is_per_byte() {
        let m = CostModel::default();
        let small = m.file_write_work(80, 80);
        let full = m.file_write_work(320, 240);
        assert!(full > small * 10.0);
        // 320x240x3 bytes at 0.5 us/byte ≈ 0.115 s
        assert!((full - 230_418.0 * 0.5e-6).abs() < 1e-9);
    }

    #[test]
    fn working_set_grows_with_list_bytes() {
        let m = CostModel::default();
        let empty = CoherenceStats::default();
        // ~1M entries at a generous 1.5 B/entry
        let mut busy = CoherenceStats {
            entries: 1_000_000,
            list_bytes: 1_500_000,
            ..Default::default()
        };
        assert!(m.working_set_mb(76_800, &busy) > m.working_set_mb(76_800, &empty));
        // only when the *encoded* log outgrows the paper's 32 MB slaves
        // does the model start charging page faults
        busy.entries = 10_000_000;
        busy.list_bytes = 15_000_000;
        let mb = m.working_set_mb(76_800, &busy);
        assert!(mb < 32.0, "{mb} MB should fit since compaction");
        busy.list_bytes = 48_000_000;
        let mb = m.working_set_mb(76_800, &busy);
        assert!(mb > 32.0, "{mb} MB");
    }

    #[test]
    fn predicted_pool_stats_follow_the_tile_hint() {
        let m = CostModel::default();
        // small enough that a 2-tile hint stays inside the pool's
        // MIN_TILE..=MAX_TILE clamp
        let pixels = 64 * 48;
        let rays = 500_000u64;
        // serial prediction is exactly serial
        assert_eq!(
            m.predicted_pool_stats(rays, pixels, 1, 0),
            ParallelStats::serial(rays)
        );
        // auto planning at 4 threads: near-perfect predicted speedup for
        // uniform rays (many equal tiles round-robin onto the lanes)
        let auto = m.predicted_pool_stats(rays, pixels, 4, 0);
        assert_eq!(auto.threads, 4);
        assert!(auto.speedup() > 3.5, "{}", auto.speedup());
        // a coarse explicit hint (2 giant tiles) caps the speedup at ~2
        let coarse = m.predicted_pool_stats(rays, pixels, 4, (pixels / 2) as u32);
        assert!(coarse.tiles < auto.tiles);
        assert!(coarse.speedup() < 2.5, "{}", coarse.speedup());
        // and the hinted plan feeds straight into parallel_render_work
        let stats = RayStats {
            primary: rays,
            pixels: pixels as u64,
            ..Default::default()
        };
        assert!(
            m.parallel_render_work(&stats, 0, 0, &auto)
                < m.parallel_render_work(&stats, 0, 0, &coarse)
        );
    }
}
