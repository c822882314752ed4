//! The tile decoders are total: real Newton `FULL_DEFLATE` and
//! `DELTA_DEFLATE` tiles, truncated at every byte and with every single
//! bit flipped, go through `TileUpdate::decode` and `inflate`. Each answer
//! is an error or exactly the value the damaged bytes encode — what the
//! inflated bytes decode to as a `FULL` payload, or as deltas against the
//! previous frame, which is the original when a flip lands in the
//! stream's padding; nothing panics, and no
//! decode holds more heap than the intact tile's decode plus the mode's
//! inflate bound — so a payload that inflates a thousandfold is refused
//! before it is inflated.
//!
//! The heap is measured by a counting global allocator; this file holds a
//! single test so that no other test's allocations land in its counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use now_coherence::tiledelta::{MODE_DELTA_DEFLATE, MODE_FULL, MODE_FULL_DEFLATE};
use now_coherence::varint::{try_read_varint, unzigzag};
use now_coherence::{PixelRegion, RegionBuffer, TileUpdate};
use now_raytrace::deflate::{deflate, inflate};
use now_raytrace::{render_pixels_par, Framebuffer, GridAccel, NullListener, RayStats};
use std::collections::HashMap;

/// Counts the heap bytes live and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Relaxed) + by;
    PEAK.fetch_max(live, Relaxed);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        unsafe { System.dealloc(p, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = unsafe { System.realloc(p, layout, new_size) };
        if !q.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        q
    }
}

#[global_allocator]
static HEAP: Counting = Counting;

/// Run `f`, returning its value and the most heap it held at once above
/// what was live when it started.
fn peak_heap<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let out = f();
    (out, PEAK.load(Relaxed) - base)
}

const WIDTH: u32 = 80;
const REGION: PixelRegion = PixelRegion {
    x0: 16,
    y0: 12,
    w: 32,
    h: 24,
};

/// Frames `0..frames` of a small Newton cradle, every pixel of `REGION`.
fn newton_tiles(frames: usize) -> Vec<Vec<(u32, [u8; 3])>> {
    let anim = now_anim::scenes::newton::animation_sized(WIDTH, 60, 12);
    let ids: Vec<u32> = REGION.pixel_ids(WIDTH).collect();
    let settings = now_raytrace::RenderSettings::default();
    (0..frames)
        .map(|f| {
            let scene = anim.scene_at(f);
            let accel = GridAccel::build(&scene);
            let mut fb = Framebuffer::new(WIDTH, 60);
            let mut stats = RayStats::default();
            render_pixels_par(
                &scene,
                &accel,
                &settings,
                &mut fb,
                &ids,
                &mut NullListener,
                &mut stats,
            );
            ids.iter()
                .map(|&id| {
                    let (r, g, b) = fb.get_id(id).to_u8();
                    (id, [r, g, b])
                })
                .collect()
        })
        .collect()
}

/// How the damaged copies of one tile fared. A deflate stream carries no
/// checksum of its own (the farm's result checksum covers the wire), so a
/// flipped literal bit decodes to a well-formed tile with one value
/// changed: `other` counts those.
#[derive(Debug, Default)]
struct Tally {
    refused: u32,
    original: u32,
    other: u32,
}

/// What a delta payload's bytes say, read apart from the codec: `count`
/// zigzag id gaps, then the red, green and blue zigzag deltas of every
/// pixel, each added to the pixel's value in `prior` (a later duplicate
/// id to the value the earlier one left). `None` when the bytes are not
/// exactly that, an id is not one of `prior`'s, or a channel leaves
/// 0..=255.
fn delta_reference(
    bytes: &[u8],
    count: usize,
    prior: &[(u32, [u8; 3])],
) -> Option<Vec<(u32, [u8; 3])>> {
    let mut pos = 0;
    let mut next = || try_read_varint(bytes, &mut pos).map(unzigzag);
    let mut id = 0i64;
    let mut ids = Vec::new();
    for _ in 0..count {
        id = id.checked_add(next()?)?;
        ids.push(u32::try_from(id).ok()?);
    }
    let mut deltas = vec![[0i64; 3]; count];
    for c in 0..3 {
        for d in &mut deltas {
            d[c] = next()?;
        }
    }
    if pos != bytes.len() {
        return None;
    }
    let mut now: HashMap<u32, [u8; 3]> = prior.iter().copied().collect();
    let mut out = Vec::new();
    for (id, d) in ids.into_iter().zip(deltas) {
        let rgb = now.get_mut(&id)?;
        for c in 0..3 {
            rgb[c] = u8::try_from(rgb[c] as i64 + d[c]).ok()?;
        }
        out.push((id, *rgb));
    }
    Some(out)
}

/// Decode every truncation and single-bit flip of `tile` and hold each
/// answer to the properties in the file comment. The tile is received on
/// state `before` and decodes to `pixels` intact; `bound` is the mode's
/// inflate bound for its pixel count, and `reference` reads a damaged
/// copy's inflated bytes apart from the decoder.
fn damage(
    tile: &TileUpdate,
    before: &Option<RegionBuffer>,
    pixels: &[(u32, [u8; 3])],
    bound: usize,
    reference: impl Fn(&[u8]) -> Option<Vec<(u32, [u8; 3])>>,
) -> Tally {
    let (intact, honest) = peak_heap(|| tile.decode(REGION, WIDTH, &mut before.clone()));
    assert_eq!(intact.as_deref(), Ok(pixels), "the intact tile decodes");

    let bytes = &tile.payload;
    let truncations = (0..bytes.len()).map(|k| bytes[..k].to_vec());
    let flips = (0..bytes.len() * 8).map(|bit| {
        let mut b = bytes.clone();
        b[bit / 8] ^= 1 << (bit % 8);
        b
    });
    let mut tally = Tally::default();
    for (k, payload) in truncations.chain(flips).enumerate() {
        let damaged = TileUpdate {
            payload,
            ..tile.clone()
        };
        // inflate: the bound refuses exactly what inflates past it
        let unbounded = inflate(&damaged.payload, usize::MAX);
        let (bounded, held) = peak_heap(|| inflate(&damaged.payload, bound));
        match &unbounded {
            Ok(out) if out.len() <= bound => assert_eq!(bounded.as_ref(), Ok(out), "copy {k}"),
            _ => assert!(bounded.is_err(), "copy {k}"),
        }
        assert!(
            held <= bound,
            "copy {k}: inflate held {held} B, bound {bound}"
        );

        let mut state = before.clone();
        let (decoded, held) = peak_heap(|| damaged.decode(REGION, WIDTH, &mut state));
        assert!(
            held <= honest + bound,
            "copy {k}: decode held {held} B, intact {honest} + bound {bound}"
        );
        // a cut stream loses bits of its end-of-block code
        assert!(
            k >= bytes.len() || decoded.is_err(),
            "truncation at {k} decoded"
        );
        match decoded {
            Err(_) => tally.refused += 1,
            Ok(got) => {
                let want = reference(&unbounded.expect("a decoded tile inflates"));
                assert_eq!(Some(&got), want.as_ref(), "copy {k}");
                if got == pixels {
                    tally.original += 1;
                } else {
                    tally.other += 1;
                }
            }
        }
    }
    tally
}

#[test]
fn damaged_deflated_tiles_decode_to_errors_or_what_they_encode() {
    let frames = newton_tiles(2);
    let n = frames[0].len();
    let mut sender = None;
    let full = TileUpdate::encode(&frames[0], REGION, WIDTH, &mut sender, true);
    let delta = TileUpdate::encode(&frames[1], REGION, WIDTH, &mut sender, true);
    assert_eq!(full.mode, MODE_FULL_DEFLATE);
    assert_eq!(delta.mode, MODE_DELTA_DEFLATE);
    let mut seeded = None;
    full.decode(REGION, WIDTH, &mut seeded).unwrap();

    let as_full = |bytes: &[u8]| {
        let plain = TileUpdate {
            mode: MODE_FULL,
            count: full.count,
            payload: bytes.to_vec(),
        };
        plain.decode(REGION, WIDTH, &mut None).ok()
    };
    let tally = damage(&full, &None, &frames[0], 8 * n, as_full);
    assert!(
        tally.refused > 1000 && tally.other > 1000,
        "FULL: {tally:?}"
    );
    let as_deltas = |bytes: &[u8]| delta_reference(bytes, n, &frames[0]);
    let tally = damage(&delta, &seeded, &frames[1], 11 * n, as_deltas);
    assert!(tally.refused > 500 && tally.other > 100, "DELTA: {tally:?}");

    // a bomb: 1 MiB of zeros deflates to a few KiB and would inflate
    // past any tile; the decode refuses it inside the bound
    let zeros = deflate(&vec![0u8; 1 << 20]);
    assert!(zeros.len() < 8 << 10, "{} B", zeros.len());
    for (mode, before, bound) in [
        (MODE_FULL_DEFLATE, None, 8 * n),
        (MODE_DELTA_DEFLATE, seeded, 11 * n),
    ] {
        let bomb = TileUpdate {
            mode,
            count: n as u32,
            payload: zeros.clone(),
        };
        let mut state = before;
        let (decoded, held) = peak_heap(|| bomb.decode(REGION, WIDTH, &mut state));
        assert!(decoded.is_err(), "mode {mode}");
        assert!(held <= bound, "mode {mode}: held {held} B, bound {bound}");
    }
}
