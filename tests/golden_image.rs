//! Golden-image regression test: the first frames of the Newton demo,
//! rendered at 64x48, must hash to the checked-in values.
//!
//! The hashes are FNV-1a over the encoded PNG bytes, so they pin down the
//! encoder's output as well as every shaded pixel. After an intentional
//! rendering change, re-bless with:
//!
//! ```text
//! NOW_BLESS=1 cargo test --test golden_image
//! ```
//!
//! The PNGs themselves are also written to `target/tmp/` on every run for
//! eyeball inspection; only the small hash file is checked in.

use nowrender::anim::scenes::newton;
use nowrender::coherence::CoherentRenderer;
use nowrender::grid::GridSpec;
use nowrender::raytrace::{image_io, RenderSettings};

const W: u32 = 64;
const H: u32 = 48;
const FRAMES: usize = 3;

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[test]
fn newton_frames_match_golden_hashes() {
    let anim = newton::animation_sized(W, H, FRAMES);
    let spec = GridSpec::for_scene(anim.swept_bounds(), 24 * 24 * 24);
    let mut renderer = CoherentRenderer::new(spec, W, H, RenderSettings::default());

    let outdir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(outdir).expect("create target tmp dir");

    let mut listing = String::from("# FNV-1a hashes of newton 64x48 PNG frames\n");
    for f in 0..FRAMES {
        let (fb, _) = renderer.render_next(&anim.scene_at(f));
        let png = image_io::png_bytes(&fb);
        std::fs::write(outdir.join(format!("newton_{f}.png")), &png).expect("write png");
        listing.push_str(&format!("frame {f} {:016x}\n", fnv64(&png)));
    }

    let golden =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/newton_64x48_png.txt");
    now_testkit::golden::assert_golden_file(golden, &listing);
}
