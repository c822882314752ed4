//! Ablation studies for the design choices called out in `DESIGN.md`
//! (and the paper's "future directions": partitioning refinement,
//! heterogeneous environments, larger animations).
//!
//! Subcommands (run all when none given):
//!
//! * `grid` — coherence grid resolution sweep: dirty-set precision vs
//!   bookkeeping overhead vs memory.
//! * `granularity` — pixel-level coherence vs Jevans block coherence
//!   (block edge sweep).
//! * `tiles` — frame-division tile-size sweep, including the per-pixel
//!   extreme the paper warns about.
//! * `adaptive` — adaptive vs static sequence division under
//!   heterogeneity.
//! * `machines` — machine-mix sweep (homogeneous vs 2x/4x hetero, 2..6
//!   machines).
//! * `scenes` — coherence payoff across scenes (Newton vs glass ball vs
//!   the low-coherence orbit scene).
//! * `shadows` — shadow-ray coherence on/off (the paper's shadow
//!   extension): conservativeness cost of not tracking shadow rays is
//!   reported as missed pixels.
//! * `length` — coherence speedup against sequence length.
//!
//! Usage: `ablations [subcommand...] [--quick]`; any other argument exits 2.

use now_anim::scenes::{glassball, newton, orbit};
use now_anim::Animation;
use now_bench::{commas, Cli, Outcome, Row};
use now_cluster::{MachineSpec, SimCluster};
use now_core::DirtyTest::Exact;
use now_core::PartitionScheme::{self, FrameDivision, SequenceDivision};
use now_core::SequenceMode::{BlockCoherent, Coherent, Plain};
use now_core::{SequenceReport, SingleMachine};
use now_raytrace::RenderSettings;

/// A study, run at a frame size and frame count.
type Study = fn(u32, u32, usize);

/// The studies by subcommand.
const STUDIES: &[(&str, Study)] = &[
    ("grid", grid_sweep),
    ("granularity", granularity_sweep),
    ("tiles", tile_sweep),
    ("adaptive", adaptive_vs_static),
    ("machines", machine_mix),
    ("scenes", scene_sweep),
    ("shadows", shadow_tracking),
    ("length", sequence_length),
];

/// Target voxel count of the coherence grid, unless a study sweeps it.
const GRID: u32 = 20 * 20 * 20;

fn main() {
    let names: Vec<&str> = STUDIES.iter().map(|(name, _)| *name).collect();
    let cli = Cli::from_env(&["--quick"], &names);
    let (w, h, frames) = if cli.quick {
        (80, 60, 10)
    } else {
        (160, 120, 20)
    };
    for &(name, study) in STUDIES {
        if cli.subcommands.is_empty() || cli.subcommands.iter().any(|s| s == name) {
            study(w, h, frames);
        }
    }
}

/// The sequence rendered plainly and coherently on a speed-1.0 machine.
fn plain_and_coherent(anim: &Animation) -> [Outcome; 2] {
    [Plain, Coherent(Exact)].map(|mode| Row::Single(mode, SingleMachine::unit(), GRID).run(anim))
}

/// Pixels re-rendered after the first frame, and peak coherence memory
/// in MB.
fn recomputed_and_mb(rep: &SequenceReport) -> (u64, f64) {
    let recomputed = rep.pixels_per_frame[1..].iter().sum();
    (recomputed, rep.peak_memory_bytes as f64 / (1024.0 * 1024.0))
}

/// Sequence-length sweep: the paper's "experimentation with large, complex
/// animations that can more fully benefit from the frame coherence
/// techniques" — the one-off first-frame cost amortises, so coherence
/// speedup grows with run length.
fn sequence_length(w: u32, h: u32, _frames: usize) {
    println!("\n=== ablation: sequence length (Newton, {w}x{h}) ===");
    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>10}",
        "frames", "plain (s)", "coherent (s)", "speedup", "rays/plain"
    );
    for frames in [5usize, 10, 20, 45, 90] {
        let [plain, coh] = plain_and_coherent(&newton::animation_sized(w, h, frames));
        println!(
            "{:>8} {:>12.1} {:>12.1} {:>11.2}x {:>9.2}x",
            frames,
            plain.total_s(),
            coh.total_s(),
            plain.total_s() / coh.total_s(),
            plain.rays() as f64 / coh.rays() as f64
        );
    }
    println!("(speedup grows with run length as the first-frame cost amortises)");
}

/// Grid resolution sweep: finer grids predict tighter dirty sets but cost
/// more marks and memory.
fn grid_sweep(w: u32, h: u32, frames: usize) {
    println!("\n=== ablation: coherence grid resolution (Newton, {frames} frames, {w}x{h}) ===");
    println!(
        "{:>10} {:>12} {:>14} {:>12} {:>12} {:>10}",
        "grid", "rays", "marks", "recomputed", "mem (MB)", "time (s)"
    );
    let anim = newton::animation_sized(w, h, frames);
    for n in [8u32, 12, 16, 24, 32, 48] {
        let run = Row::Single(Coherent(Exact), SingleMachine::unit(), n * n * n).run(&anim);
        let rep = run.sequence().expect("a single-processor row");
        let (recomputed, mb) = recomputed_and_mb(rep);
        println!(
            "{:>7}^3 {:>12} {:>14} {:>12} {:>12.1} {:>10.1}",
            n,
            commas(run.rays()),
            commas(rep.marks),
            commas(recomputed),
            mb,
            run.total_s()
        );
    }
}

/// Pixel-level vs Jevans block coherence.
fn granularity_sweep(w: u32, h: u32, frames: usize) {
    println!("\n=== ablation: coherence granularity — pixel vs Jevans blocks ===");
    println!(
        "{:>12} {:>12} {:>12} {:>12} {:>10}",
        "granularity", "rays", "recomputed", "mem (MB)", "time (s)"
    );
    let anim = newton::animation_sized(w, h, frames);
    for block in [1u32, 2, 4, 8, 16, 32] {
        let (mode, label) = match block {
            1 => (Coherent(Exact), "pixel".to_string()),
            _ => (BlockCoherent(block), format!("{block}x{block}")),
        };
        let run = Row::Single(mode, SingleMachine::unit(), 24 * 24 * 24).run(&anim);
        let (recomputed, mb) = recomputed_and_mb(run.sequence().expect("a single-processor row"));
        println!(
            "{:>12} {:>12} {:>12} {:>12.1} {:>10.1}",
            label,
            commas(run.rays()),
            commas(recomputed),
            mb,
            run.total_s()
        );
    }
    println!("(the paper: Jevans computes coherence for blocks; ours is per-pixel)");
}

/// Frame-division tile size sweep, down toward the per-pixel extreme.
fn tile_sweep(w: u32, h: u32, frames: usize) {
    println!("\n=== ablation: frame-division tile size (coherent, paper cluster) ===");
    println!(
        "{:>10} {:>8} {:>12} {:>12} {:>10} {:>10}",
        "tile", "units", "time (s)", "messages", "net busy", "util%"
    );
    let anim = newton::animation_sized(w, h, frames);
    for (tw, th) in [
        (w, h),
        (w / 2, h / 2),
        (w / 4, h / 3),
        (w / 8, h / 6),
        (8, 8),
        (2, 2),
    ] {
        let (tile_w, tile_h) = (tw.max(1), th.max(1));
        let scheme = FrameDivision { tile_w, tile_h };
        let run = Row::Farm(scheme, Some(Exact), SimCluster::paper(), GRID).run(&anim);
        let r = run.farm().expect("a farm row");
        let util = 100.0 * r.report.machines.iter().map(|m| m.busy_s).sum::<f64>()
            / (r.report.makespan_s * r.report.machines.len() as f64);
        println!(
            "{:>6}x{:<3} {:>8} {:>12.1} {:>12} {:>9.1}s {:>9.0}%",
            tile_w,
            tile_h,
            r.units_done,
            r.report.makespan_s,
            r.report.messages,
            r.report.network_busy_s,
            util
        );
    }
    println!(
        "(\"at the extreme ... the overhead of message passing would result in inefficiency\")"
    );
}

/// Adaptive vs static sequence division under heterogeneity.
fn adaptive_vs_static(w: u32, h: u32, frames: usize) {
    println!("\n=== ablation: adaptive vs static sequence division ===");
    let anim = newton::animation_sized(w, h, frames);
    println!(
        "{:>32} {:>12} {:>10}",
        "cluster", "static (s)", "adaptive (s)"
    );
    for (name, machines) in [
        (
            "homogeneous 3x1.0",
            vec![
                MachineSpec::new("a", 1.0, 64.0),
                MachineSpec::new("b", 1.0, 64.0),
                MachineSpec::new("c", 1.0, 64.0),
            ],
        ),
        ("paper 2.0/1.0/1.0", MachineSpec::paper_cluster()),
        (
            "extreme 4.0/1.0/1.0",
            vec![
                MachineSpec::new("fast", 4.0, 64.0),
                MachineSpec::new("slow1", 1.0, 32.0),
                MachineSpec::new("slow2", 1.0, 32.0),
            ],
        ),
    ] {
        let times = [false, true].map(|adaptive| {
            let cluster = SimCluster::new(machines.clone());
            let row = Row::Farm(SequenceDivision { adaptive }, Some(Exact), cluster, GRID);
            row.run(&anim).total_s()
        });
        println!(
            "{:>32} {:>12.1} {:>10.1}   ({:.2}x from adaptivity)",
            name,
            times[0],
            times[1],
            times[0] / times[1]
        );
    }
}

/// Machine-mix sweep: the paper's "further tests with heterogeneous
/// environments, as well as more homogeneous ones".
fn machine_mix(w: u32, h: u32, frames: usize) {
    println!("\n=== ablation: machine mixes (coherent frame division) ===");
    let anim = newton::animation_sized(w, h, frames);
    println!(
        "{:>36} {:>10} {:>12} {:>10}",
        "cluster", "power", "time (s)", "speedup"
    );
    let homogeneous = |n: usize| -> Vec<MachineSpec> {
        (0..n)
            .map(|i| MachineSpec::new(&format!("m{i}"), 1.0, 64.0))
            .collect()
    };
    let (tiles, mut base) = (PartitionScheme::paper_frame_division(w, h), None);
    let mixes: Vec<(&str, Vec<MachineSpec>)> = vec![
        ("1x 1.0", homogeneous(1)),
        ("2x 1.0", homogeneous(2)),
        ("3x 1.0", homogeneous(3)),
        ("paper: 2.0+1.0+1.0", MachineSpec::paper_cluster()),
        ("4x 1.0", homogeneous(4)),
        ("6x 1.0", homogeneous(6)),
        (
            "2.0+2.0+1.0",
            vec![
                MachineSpec::new("f1", 2.0, 64.0),
                MachineSpec::new("f2", 2.0, 64.0),
                MachineSpec::new("s", 1.0, 32.0),
            ],
        ),
    ];
    for (name, machines) in mixes {
        let power: f64 = machines.iter().map(|m| m.speed).sum();
        let cluster = SimCluster::new(machines);
        let makespan_s = Row::Farm(tiles, Some(Exact), cluster, GRID)
            .run(&anim)
            .total_s();
        let b = *base.get_or_insert(makespan_s);
        println!(
            "{:>36} {:>10.1} {:>12.1} {:>9.2}x",
            name,
            power,
            makespan_s,
            b / makespan_s
        );
    }
    println!("(speedup should track aggregate power while coherence restarts stay amortised)");
}

/// Shadow-ray coherence on vs off: turning it off saves bookkeeping but
/// breaks conservativeness — moving shadows go stale.
fn shadow_tracking(w: u32, h: u32, frames: usize) {
    use now_coherence::{CoherentRenderer, MoverMask, PixelRegion, RenderMode};
    use now_grid::GridSpec;
    use now_raytrace::{render_frame, GridAccel, NullListener, RayStats};
    use std::sync::Arc;

    println!("\n=== ablation: shadow-ray coherence (the paper's shadow extension) ===");
    let anim = newton::animation_sized(w, h, frames);
    let spec = GridSpec::for_scene(anim.swept_bounds(), 24 * 24 * 24);
    let scenes = (0..frames).map(|f| anim.scene_at(f));
    let mask = Arc::new(MoverMask::of_sequence(&spec, scenes));

    for (name, track) in [
        ("with shadow tracking", true),
        ("without shadow tracking", false),
    ] {
        let mode = RenderMode::Coherent {
            test: Exact,
            mask: Some((Arc::clone(&mask), 0)),
            block: 1,
            track_shadows: track,
        };
        let region = PixelRegion::full(w, h);
        let settings = RenderSettings::default();
        let mut renderer = CoherentRenderer::for_region(spec, w, h, region, mode, settings);
        let mut marks = 0u64;
        let mut recomputed = 0u64;
        let mut wrong_pixels = 0usize;
        for f in 0..frames {
            let scene = anim.scene_at(f);
            let (fb, rep) = renderer.render_next(&scene);
            marks = rep.coherence.marks;
            if f > 0 {
                recomputed += rep.pixels_rendered as u64;
            }
            // compare against scratch to count stale pixels
            let accel = GridAccel::build_with_spec(&scene, spec);
            let reference = render_frame(
                &scene,
                &accel,
                &RenderSettings::default(),
                &mut NullListener,
                &mut RayStats::default(),
            );
            wrong_pixels += fb.diff_ids(&reference).len();
        }
        println!(
            "  {name:<26} marks {:>12}  recomputed {:>10}  WRONG pixels {:>8}",
            commas(marks),
            commas(recomputed),
            commas(wrong_pixels as u64)
        );
    }
    println!("(dropping shadow rays breaks conservativeness: stale shadows accumulate)");
}

/// Coherence payoff depends on how much of the scene changes per frame.
fn scene_sweep(w: u32, h: u32, frames: usize) {
    println!("\n=== ablation: coherence payoff per scene ===");
    println!(
        "{:>12} {:>14} {:>14} {:>10} {:>12}",
        "scene", "plain rays", "coherent rays", "reduction", "FC speedup"
    );
    let scenes: Vec<(&str, Animation)> = vec![
        ("newton", newton::animation_sized(w, h, frames)),
        ("glassball", glassball::animation_sized(w, h, frames)),
        ("orbit", orbit::animation_sized(w, h, frames, 8, 0.5)),
    ];
    for (name, anim) in scenes {
        let [plain, coh] = plain_and_coherent(&anim);
        println!(
            "{:>12} {:>14} {:>14} {:>9.2}x {:>11.2}x",
            name,
            commas(plain.rays()),
            commas(coh.rays()),
            plain.rays() as f64 / coh.rays() as f64,
            plain.total_s() / coh.total_s()
        );
    }
    println!("(\"performance depends on the amount of frame coherence we can actually extract\")");
}
