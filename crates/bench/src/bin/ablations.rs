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
//!
//! Usage: `ablations [subcommand] [--quick]`

use now_anim::scenes::{glassball, newton, orbit};
use now_anim::Animation;
use now_bench::commas;
use now_cluster::{MachineSpec, SimCluster};
use now_core::{run_sim, CostModel, FarmConfig, PartitionScheme, SequenceMode, SingleMachine};
use now_raytrace::RenderSettings;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let which: Vec<&str> = args
        .iter()
        .map(|s| s.as_str())
        .filter(|a| !a.starts_with("--"))
        .collect();
    let all = which.is_empty();
    let run = |name: &str| all || which.contains(&name);

    let (w, h, frames) = if quick { (80, 60, 10) } else { (160, 120, 20) };

    if run("grid") {
        grid_sweep(w, h, frames);
    }
    if run("granularity") {
        granularity_sweep(w, h, frames);
    }
    if run("tiles") {
        tile_sweep(w, h, frames);
    }
    if run("adaptive") {
        adaptive_vs_static(w, h, frames);
    }
    if run("machines") {
        machine_mix(w, h, frames);
    }
    if run("scenes") {
        scene_sweep(w, h, frames);
    }
    if run("shadows") {
        shadow_tracking(w, h, frames);
    }
    if run("length") {
        sequence_length(w, h);
    }
}

/// Sequence-length sweep: the paper's "experimentation with large, complex
/// animations that can more fully benefit from the frame coherence
/// techniques" — the one-off first-frame cost amortises, so coherence
/// speedup grows with run length.
fn sequence_length(w: u32, h: u32) {
    println!("\n=== ablation: sequence length (Newton, {w}x{h}) ===");
    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>10}",
        "frames", "plain (s)", "coherent (s)", "speedup", "rays/plain"
    );
    for frames in [5usize, 10, 20, 45, 90] {
        let anim = newton::animation_sized(w, h, frames);
        let settings = RenderSettings::default();
        let cost = CostModel::default();
        let plain = now_core::render_sequence(
            &anim,
            &settings,
            &cost,
            SequenceMode::Plain,
            SingleMachine::unit(),
            20 * 20 * 20,
            |_, _| {},
        );
        let coh = now_core::render_sequence(
            &anim,
            &settings,
            &cost,
            SequenceMode::Coherent,
            SingleMachine::unit(),
            20 * 20 * 20,
            |_, _| {},
        );
        println!(
            "{:>8} {:>12.1} {:>12.1} {:>11.2}x {:>9.2}x",
            frames,
            plain.total_s,
            coh.total_s,
            plain.total_s / coh.total_s,
            plain.rays.total_rays() as f64 / coh.rays.total_rays() as f64
        );
    }
    println!("(speedup grows with run length as the first-frame cost amortises)");
}

fn newton_anim(w: u32, h: u32, frames: usize) -> Animation {
    newton::animation_sized(w, h, frames)
}

/// Grid resolution sweep: finer grids predict tighter dirty sets but cost
/// more marks and memory.
fn grid_sweep(w: u32, h: u32, frames: usize) {
    println!("\n=== ablation: coherence grid resolution (Newton, {frames} frames, {w}x{h}) ===");
    println!(
        "{:>10} {:>12} {:>14} {:>12} {:>12} {:>10}",
        "grid", "rays", "marks", "recomputed", "mem (MB)", "time (s)"
    );
    for n in [8u32, 12, 16, 24, 32, 48] {
        let anim = newton_anim(w, h, frames);
        let rep = now_core::render_sequence(
            &anim,
            &RenderSettings::default(),
            &CostModel::default(),
            SequenceMode::Coherent,
            SingleMachine::unit(),
            n * n * n,
            |_, _| {},
        );
        let recomputed: u64 = rep.pixels_per_frame[1..].iter().sum();
        println!(
            "{:>7}^3 {:>12} {:>14} {:>12} {:>12.1} {:>10.1}",
            n,
            commas(rep.rays.total_rays()),
            commas(rep.marks),
            commas(recomputed),
            rep.peak_memory_bytes as f64 / (1024.0 * 1024.0),
            rep.total_s
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
    let anim = newton_anim(w, h, frames);
    for block in [1u32, 2, 4, 8, 16, 32] {
        let mode = if block == 1 {
            SequenceMode::Coherent
        } else {
            SequenceMode::BlockCoherent(block)
        };
        let rep = now_core::render_sequence(
            &anim,
            &RenderSettings::default(),
            &CostModel::default(),
            mode,
            SingleMachine::unit(),
            24 * 24 * 24,
            |_, _| {},
        );
        let recomputed: u64 = rep.pixels_per_frame[1..].iter().sum();
        let label = if block == 1 {
            "pixel".to_string()
        } else {
            format!("{block}x{block}")
        };
        println!(
            "{:>12} {:>12} {:>12} {:>12.1} {:>10.1}",
            label,
            commas(rep.rays.total_rays()),
            commas(recomputed),
            rep.peak_memory_bytes as f64 / (1024.0 * 1024.0),
            rep.total_s
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
    let anim = newton_anim(w, h, frames);
    let cluster = SimCluster::paper();
    for (tw, th) in [
        (w, h),
        (w / 2, h / 2),
        (w / 4, h / 3),
        (w / 8, h / 6),
        (8, 8),
        (2, 2),
    ] {
        let cfg = FarmConfig {
            scheme: PartitionScheme::FrameDivision {
                tile_w: tw.max(1),
                tile_h: th.max(1),
                adaptive: true,
            },
            coherence: true,
            settings: RenderSettings::default(),
            cost: CostModel::default(),
            grid_voxels: 20 * 20 * 20,
            keep_frames: false,
        };
        let r = run_sim(&anim, &cfg, &cluster);
        let util = 100.0 * r.report.machines.iter().map(|m| m.busy_s).sum::<f64>()
            / (r.report.makespan_s * r.report.machines.len() as f64);
        println!(
            "{:>6}x{:<3} {:>8} {:>12.1} {:>12} {:>9.1}s {:>9.0}%",
            tw.max(1),
            th.max(1),
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
    let anim = newton_anim(w, h, frames);
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
        let mut times = Vec::new();
        for adaptive in [false, true] {
            let cfg = FarmConfig {
                scheme: PartitionScheme::SequenceDivision { adaptive },
                coherence: true,
                settings: RenderSettings::default(),
                cost: CostModel::default(),
                grid_voxels: 20 * 20 * 20,
                keep_frames: false,
            };
            let r = run_sim(&anim, &cfg, &SimCluster::new(machines.clone()));
            times.push(r.report.makespan_s);
        }
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
    let anim = newton_anim(w, h, frames);
    println!(
        "{:>36} {:>10} {:>12} {:>10}",
        "cluster", "power", "time (s)", "speedup"
    );
    let mut base = None;
    let mixes: Vec<(String, Vec<MachineSpec>)> = vec![
        ("1x 1.0".into(), vec![MachineSpec::new("m0", 1.0, 64.0)]),
        (
            "2x 1.0".into(),
            (0..2)
                .map(|i| MachineSpec::new(&format!("m{i}"), 1.0, 64.0))
                .collect(),
        ),
        (
            "3x 1.0".into(),
            (0..3)
                .map(|i| MachineSpec::new(&format!("m{i}"), 1.0, 64.0))
                .collect(),
        ),
        ("paper: 2.0+1.0+1.0".into(), MachineSpec::paper_cluster()),
        (
            "4x 1.0".into(),
            (0..4)
                .map(|i| MachineSpec::new(&format!("m{i}"), 1.0, 64.0))
                .collect(),
        ),
        (
            "6x 1.0".into(),
            (0..6)
                .map(|i| MachineSpec::new(&format!("m{i}"), 1.0, 64.0))
                .collect(),
        ),
        (
            "2.0+2.0+1.0".into(),
            vec![
                MachineSpec::new("f1", 2.0, 64.0),
                MachineSpec::new("f2", 2.0, 64.0),
                MachineSpec::new("s", 1.0, 32.0),
            ],
        ),
    ];
    for (name, machines) in mixes {
        let power: f64 = machines.iter().map(|m| m.speed).sum();
        let cfg = FarmConfig {
            scheme: PartitionScheme::FrameDivision {
                tile_w: w / 4,
                tile_h: h / 3,
                adaptive: true,
            },
            coherence: true,
            settings: RenderSettings::default(),
            cost: CostModel::default(),
            grid_voxels: 20 * 20 * 20,
            keep_frames: false,
        };
        let r = run_sim(&anim, &cfg, &SimCluster::new(machines));
        let b = *base.get_or_insert(r.report.makespan_s);
        println!(
            "{:>36} {:>10.1} {:>12.1} {:>9.2}x",
            name,
            power,
            r.report.makespan_s,
            b / r.report.makespan_s
        );
    }
    println!("(speedup should track aggregate power while coherence restarts stay amortised)");
}

/// Shadow-ray coherence on vs off: turning it off saves bookkeeping but
/// breaks conservativeness — moving shadows go stale.
fn shadow_tracking(w: u32, h: u32, frames: usize) {
    use now_coherence::CoherentRenderer;
    use now_grid::GridSpec;
    use now_raytrace::{render_frame, GridAccel, NullListener, RayStats};

    println!("\n=== ablation: shadow-ray coherence (the paper's shadow extension) ===");
    let anim = newton_anim(w, h, frames);
    let spec = GridSpec::for_scene(anim.swept_bounds(), 24 * 24 * 24);

    for (name, track) in [
        ("with shadow tracking", true),
        ("without shadow tracking", false),
    ] {
        let mut renderer = CoherentRenderer::new(spec, w, h, RenderSettings::default());
        if !track {
            renderer = renderer.without_shadow_tracking();
        }
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
        let settings = RenderSettings::default();
        let cost = CostModel::default();
        let plain = now_core::render_sequence(
            &anim,
            &settings,
            &cost,
            SequenceMode::Plain,
            SingleMachine::unit(),
            20 * 20 * 20,
            |_, _| {},
        );
        let coh = now_core::render_sequence(
            &anim,
            &settings,
            &cost,
            SequenceMode::Coherent,
            SingleMachine::unit(),
            20 * 20 * 20,
            |_, _| {},
        );
        println!(
            "{:>12} {:>14} {:>14} {:>9.2}x {:>11.2}x",
            name,
            commas(plain.rays.total_rays()),
            commas(coh.rays.total_rays()),
            plain.rays.total_rays() as f64 / coh.rays.total_rays() as f64,
            plain.total_s / coh.total_s
        );
    }
    println!("(\"performance depends on the amount of frame coherence we can actually extract\")");
}
