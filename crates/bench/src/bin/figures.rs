//! Regenerate the paper's **figures**:
//!
//! * **Fig. 1** — the first two frames of the glass-ball animation
//!   (`fig1_frame0.tga`, `fig1_frame1.tga`).
//! * **Fig. 2(a)** — actual pixel differences between those frames
//!   (`fig2a_actual.pgm`, white = changed).
//! * **Fig. 2(b)** — differences as computed by the frame-coherence
//!   algorithm (`fig2b_predicted.pgm`); verified to be a superset of (a).
//! * **Fig. 4** — sequence-division vs frame-division assignment maps
//!   (printed as text diagrams of which processor renders what).
//! * **Fig. 5** — frame 22 of the Newton animation (`fig5_newton22.tga`).
//!
//! Usage: `figures [--outdir DIR] [--size WxH]`; any other argument exits 2.

use now_anim::scenes::{glassball, newton};
use now_bench::Cli;
use now_coherence::{CoherentRenderer, DiffMaps};
use now_grid::GridSpec;
use now_raytrace::{image_io, RenderSettings};

fn main() -> std::io::Result<()> {
    let cli = Cli::from_env(&["--outdir DIR", "--size WxH"], &[]);
    let outdir = cli.outdir.unwrap_or("out".into());
    let (w, h) = cli.size.unwrap_or((320, 240));
    std::fs::create_dir_all(&outdir)?;

    // ---- Fig. 1 + Fig. 2: glass ball in the brick room -----------------
    eprintln!("[fig 1+2] glass ball, first two frames at {w}x{h} ...");
    let anim = glassball::animation_sized(w, h, 30);
    let spec = GridSpec::for_scene(anim.swept_bounds(), 24 * 24 * 24);
    let mut renderer = CoherentRenderer::new(spec, w, h, RenderSettings::default());
    let (f0, _) = renderer.render_next(&anim.scene_at(0));
    let (f1, report) = renderer.render_next(&anim.scene_at(1));
    image_io::write_tga(&f0, &outdir.join("fig1_frame0.tga"))?;
    image_io::write_tga(&f1, &outdir.join("fig1_frame1.tga"))?;

    let maps = DiffMaps::new(&f0, &f1, report.rendered.iter().copied());
    image_io::write_pgm_mask(w, h, &maps.actual, &outdir.join("fig2a_actual.pgm"))?;
    image_io::write_pgm_mask(w, h, &maps.predicted, &outdir.join("fig2b_predicted.pgm"))?;
    let total = (w * h) as f64;
    println!("Fig 2: actual changed {:6} ({:.1}%)  predicted {:6} ({:.1}%)  over-prediction {:.2}x  conservative: {}",
        maps.actual_count(), 100.0 * maps.actual_count() as f64 / total,
        maps.predicted_count(), 100.0 * maps.predicted_count() as f64 / total,
        maps.overprediction(),
        maps.is_conservative());
    assert!(maps.is_conservative(), "Fig 2(b) must cover Fig 2(a)");

    // ---- Fig. 4: partition assignment diagrams -------------------------
    println!("\nFig 4(a) — sequence division (4 processors, 16 frames):");
    print_sequence_division(4, 16);
    println!("\nFig 4(b) — frame division (4 processors, frame split 2x2):");
    print_frame_division(4);
    let tiles = now_coherence::PixelRegion::tiles(320, 240, 80, 80);
    println!(
        "\npaper geometry: 320x240 in 80x80 sub-areas = {} tiles (demand-driven over {} units for 45 frames)",
        tiles.len(),
        tiles.len() * 45
    );

    // ---- Fig. 5: Newton frame 22 ---------------------------------------
    eprintln!("[fig 5] Newton frame 22 at {w}x{h} ...");
    let newton_anim = newton::animation_sized(w, h, 45);
    let nspec = GridSpec::for_scene(newton_anim.swept_bounds(), 24 * 24 * 24);
    let mut nrenderer = CoherentRenderer::new(nspec, w, h, RenderSettings::default());
    let mut frame22 = None;
    for f in 0..=22 {
        let (fb, _) = nrenderer.render_next(&newton_anim.scene_at(f));
        if f == 22 {
            frame22 = Some(fb);
        }
    }
    image_io::write_tga(&frame22.unwrap(), &outdir.join("fig5_newton22.tga"))?;
    println!(
        "\nwrote fig1_*.tga, fig2*.pgm, fig5_newton22.tga to {}",
        outdir.display()
    );
    Ok(())
}

/// Text rendering of Fig. 4(a): frames assigned to processors P1..Pn.
fn print_sequence_division(procs: usize, frames: usize) {
    let per = frames / procs;
    let mut row = String::new();
    for p in 0..procs {
        for f in 0..per {
            row.push_str(&format!("[{:>2}]", p * per + f));
        }
        row.push(' ');
    }
    println!("  frames: {row}");
    let mut owners = String::new();
    for p in 0..procs {
        owners.push_str(&format!(
            "{:^width$} ",
            format!("P{}", p + 1),
            width = per * 4
        ));
    }
    println!("  owner:  {owners}");
}

/// Text rendering of Fig. 4(b): each processor owns a quadrant of every
/// frame.
fn print_frame_division(procs: usize) {
    assert_eq!(procs, 4);
    println!("  every frame:   +----+----+");
    println!("                 | P1 | P2 |");
    println!("                 +----+----+");
    println!("                 | P3 | P4 |");
    println!("                 +----+----+");
}
