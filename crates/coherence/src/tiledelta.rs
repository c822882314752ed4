//! Compacted tile updates: the worker→master frame-pixel wire codec.
//!
//! The farm's workers own fixed tile regions across a frame sequence
//! (the scheduler hands each owner consecutive frames of one region), so
//! each worker can assemble its region locally and ship the master only
//! what changed — the "distributed framebuffer" idea of Usher et al.
//! Each unit's rendered pixel list becomes a [`TileUpdate`] in one of
//! five modes, smallest wins:
//!
//! * `ACK` — nothing changed this frame; zero payload, just a receipt.
//! * `RAW` — the legacy encoding, 7 bytes per pixel (`u32` id + RGB).
//!   This is what delta-off workers ship and what the byte-reduction
//!   numbers are measured against.
//! * `FULL` / `FULL_DEFLATE` — absolute pixels, id-gap varints plus
//!   planar RGB, optionally deflated. A `FULL` also *resets* the
//!   receiver's region state, so it doubles as the restart marker.
//! * `DELTA_DEFLATE` — id-gap varints plus per-channel zigzag deltas
//!   against the previous frame's value at the same pixel, deflated. Only
//!   valid on a seeded stream. (Undeflated, that payload never beats
//!   `FULL`: it has the same id gaps and at least one byte per channel
//!   where `FULL` has exactly one, so it is not a mode.)
//!
//! Both ends hold a [`RegionBuffer`] per stream (worker: its own region;
//! master: one per sending worker) that advances in lockstep. The codec
//! reproduces the original pixel list *exactly* — same order, ids and
//! values — so frame hashes, journal pixel hashes and `pixels_shipped`
//! are identical whether deltas are on or off. Decode never trusts its
//! input: truncated or inconsistent payloads return errors instead of
//! panicking.

use crate::region::PixelRegion;
use crate::varint::{try_read_varint, unzigzag, write_varint, zigzag};
use now_raytrace::deflate::{deflate_within, inflate};

/// Nothing changed; no payload.
pub const MODE_ACK: u8 = 0;
/// Legacy absolute encoding: `u32` little-endian id + RGB, 7 B/pixel.
pub const MODE_RAW: u8 = 1;
/// Absolute pixels: id-gap varints + planar RGB bytes. Resets the stream.
pub const MODE_FULL: u8 = 2;
/// [`MODE_FULL`] payload, deflate-compressed.
pub const MODE_FULL_DEFLATE: u8 = 3;
/// Temporal delta vs the previous frame, deflate-compressed: id-gap
/// varints + planar per-channel zigzag-varint deltas.
pub const MODE_DELTA_DEFLATE: u8 = 5;

/// Most bytes a `FULL` payload spends on one pixel: a 5-byte id gap (the
/// zigzag of a difference of two `u32`s needs 33 bits) and three channels.
const FULL_MAX_BYTES_PER_PIXEL: usize = 8;
/// Most bytes an inflated `DELTA_DEFLATE` payload spends on one pixel: a
/// 5-byte id gap and three 2-byte channel deltas (zigzag of -255..=255 is
/// below 2^14).
const DELTA_MAX_BYTES_PER_PIXEL: usize = 11;

/// One encoded tile update as it crosses the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileUpdate {
    /// One of the `MODE_*` constants.
    pub mode: u8,
    /// Number of pixels carried (0 for `ACK`).
    pub count: u32,
    /// Mode-specific payload bytes.
    pub payload: Vec<u8>,
}

/// The assembled RGB state of one tile region, local to a stream end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionBuffer {
    region: PixelRegion,
    rgb: Vec<[u8; 3]>,
}

impl RegionBuffer {
    /// Fresh (all-zero) buffer for `region` — matches the master's canvas
    /// default, so deltas against an unseeded pixel still reproduce the
    /// absolute value both ends agree on.
    pub fn new(region: PixelRegion) -> RegionBuffer {
        RegionBuffer {
            region,
            rgb: vec![[0u8; 3]; (region.w as usize) * (region.h as usize)],
        }
    }

    /// The region this buffer covers.
    pub fn region(&self) -> PixelRegion {
        self.region
    }

    /// Map a global pixel id (`y * width + x`) to the local index, or
    /// `None` when the pixel lies outside the region.
    #[inline]
    fn local(&self, id: u32, width: u32) -> Option<usize> {
        if width == 0 {
            return None;
        }
        let (x, y) = (id % width, id / width);
        let r = &self.region;
        if x < r.x0 || y < r.y0 || x >= r.x0 + r.w || y >= r.y0 + r.h {
            return None;
        }
        Some(((y - r.y0) as usize) * (r.w as usize) + (x - r.x0) as usize)
    }
}

/// Sequentially read the previous value of every pixel in `pixels` while
/// writing the new one — the shared advance step both encode and decode
/// go through, so duplicate ids behave identically on both ends.
fn advance(
    buf: &mut RegionBuffer,
    width: u32,
    pixels: &[(u32, [u8; 3])],
) -> Result<Vec<[u8; 3]>, &'static str> {
    let mut prevs = Vec::with_capacity(pixels.len());
    for &(id, rgb) in pixels {
        let i = buf.local(id, width).ok_or("pixel outside tile region")?;
        prevs.push(buf.rgb[i]);
        buf.rgb[i] = rgb;
    }
    Ok(prevs)
}

/// Append the id-gap varint stream (zigzag of successive differences,
/// first id absolute) — order-preserving for arbitrary sequences.
fn write_gaps(out: &mut Vec<u8>, pixels: &[(u32, [u8; 3])]) {
    let mut prev = 0i64;
    for &(id, _) in pixels {
        write_varint(out, zigzag(id as i64 - prev));
        prev = id as i64;
    }
}

/// The `FULL` payload: id gaps, then the red, green and blue planes.
fn full_payload(pixels: &[(u32, [u8; 3])]) -> Vec<u8> {
    let mut full = Vec::with_capacity(pixels.len() * 4);
    write_gaps(&mut full, pixels);
    for c in 0..3 {
        full.extend(pixels.iter().map(|&(_, rgb)| rgb[c]));
    }
    full
}

/// The delta payload `DELTA_DEFLATE` deflates: id gaps, then per channel
/// the zigzag-varint deltas of every pixel against its previous value
/// `prevs[k]`.
fn delta_payload(pixels: &[(u32, [u8; 3])], prevs: &[[u8; 3]]) -> Vec<u8> {
    let mut delta = Vec::with_capacity(pixels.len() * 4);
    write_gaps(&mut delta, pixels);
    for c in 0..3 {
        for (&(_, rgb), prev) in pixels.iter().zip(prevs) {
            write_varint(&mut delta, zigzag(rgb[c] as i64 - prev[c] as i64));
        }
    }
    delta
}

/// Parse `count` ids from the gap stream at `pos`.
fn read_gaps(bytes: &[u8], pos: &mut usize, count: usize) -> Result<Vec<u32>, &'static str> {
    let mut ids = Vec::with_capacity(count);
    let mut prev = 0i64;
    for _ in 0..count {
        let z = try_read_varint(bytes, pos).ok_or("truncated id gaps")?;
        let id = prev
            .checked_add(unzigzag(z))
            .filter(|id| (0..=u32::MAX as i64).contains(id))
            .ok_or("pixel id out of range")?;
        ids.push(id as u32);
        prev = id;
    }
    Ok(ids)
}

impl TileUpdate {
    /// Bytes this update occupies on the wire (mode byte + count + payload).
    pub fn wire_len(&self) -> u64 {
        1 + 4 + self.payload.len() as u64
    }

    /// Encode `pixels` (the unit's rendered pixel list, arbitrary order)
    /// for a stream whose sender-side state is `state`.
    ///
    /// `state` is advanced to include this frame; a `None` or
    /// region-mismatched state is re-seeded (producing a stream-resetting
    /// `FULL`/`RAW`). With `compact` false the legacy `RAW` encoding is
    /// used unconditionally — the delta-off baseline.
    pub fn encode(
        pixels: &[(u32, [u8; 3])],
        region: PixelRegion,
        width: u32,
        state: &mut Option<RegionBuffer>,
        compact: bool,
    ) -> TileUpdate {
        let seeded = matches!(state, Some(b) if b.region == region);
        if !seeded {
            *state = Some(RegionBuffer::new(region));
        }
        let buf = state.as_mut().expect("state seeded above");
        let prevs = advance(buf, width, pixels).expect("rendered pixels lie in their region");
        let count = pixels.len() as u32;

        if !compact {
            let mut payload = Vec::with_capacity(pixels.len() * 7);
            for &(id, [r, g, b]) in pixels {
                payload.extend_from_slice(&id.to_le_bytes());
                payload.extend_from_slice(&[r, g, b]);
            }
            return TileUpdate {
                mode: MODE_RAW,
                count,
                payload,
            };
        }

        if seeded && pixels.is_empty() {
            return TileUpdate {
                mode: MODE_ACK,
                count: 0,
                payload: Vec::new(),
            };
        }

        // The smallest payload wins, the earlier of FULL, FULL_DEFLATE,
        // DELTA_DEFLATE on ties. A deflated candidate is finished only
        // while it can still win: DELTA_DEFLATE must beat FULL,
        // FULL_DEFLATE must beat FULL and tie or beat DELTA_DEFLATE. A
        // stream dropped at its cap would have lost, so the mode and bytes
        // are those of deflating both payloads and comparing.
        let full = full_payload(pixels);
        let cap = full.len().saturating_sub(1);
        let delta_deflated = seeded
            .then(|| deflate_within(&delta_payload(pixels, &prevs), cap))
            .flatten();
        let full_cap = cap.min(delta_deflated.as_ref().map_or(usize::MAX, Vec::len));
        let full_deflated = deflate_within(&full, full_cap);

        let (mut mode, mut payload) = (MODE_FULL, full);
        let later = [
            (MODE_FULL_DEFLATE, full_deflated),
            (MODE_DELTA_DEFLATE, delta_deflated),
        ];
        for (m, p) in later {
            if let Some(p) = p.filter(|p| p.len() < payload.len()) {
                (mode, payload) = (m, p);
            }
        }

        if seeded && (mode == MODE_FULL || mode == MODE_FULL_DEFLATE) {
            // FULL always means "reset the stream" to the receiver, so
            // when it wins mid-stream the sender's state must reset too:
            // pixels not carried by this update drop back to zero on
            // both ends, keeping later deltas in lockstep.
            let mut fresh = RegionBuffer::new(region);
            advance(&mut fresh, width, pixels).expect("pixels validated above");
            *state = Some(fresh);
        }

        TileUpdate {
            mode,
            count,
            payload,
        }
    }

    /// Decode an update for `region`, advancing the receiver-side
    /// `state`, and return the exact pixel list the sender encoded.
    ///
    /// `RAW`/`FULL` reset the state; `ACK`/`DELTA_DEFLATE` require a seeded
    /// state covering the same region (anything else is a protocol error,
    /// and so is an unknown mode, the retired `DELTA` among them).
    pub fn decode(
        &self,
        region: PixelRegion,
        width: u32,
        state: &mut Option<RegionBuffer>,
    ) -> Result<Vec<(u32, [u8; 3])>, &'static str> {
        let area = (region.w as u64) * (region.h as u64);
        if self.count as u64 > area {
            return Err("update carries more pixels than the region holds");
        }
        let n = self.count as usize;
        match self.mode {
            MODE_ACK => match state {
                Some(b) if b.region == region => Ok(Vec::new()),
                _ => Err("ACK on an unseeded tile stream"),
            },
            MODE_RAW => {
                if self.payload.len() != n * 7 {
                    return Err("RAW payload size mismatch");
                }
                let mut pixels = Vec::with_capacity(n);
                for rec in self.payload.chunks_exact(7) {
                    let id = u32::from_le_bytes(rec[..4].try_into().unwrap());
                    pixels.push((id, [rec[4], rec[5], rec[6]]));
                }
                let mut buf = RegionBuffer::new(region);
                advance(&mut buf, width, &pixels)?;
                *state = Some(buf);
                Ok(pixels)
            }
            MODE_FULL | MODE_FULL_DEFLATE => {
                let raw;
                let bytes: &[u8] = if self.mode == MODE_FULL_DEFLATE {
                    raw = inflate(&self.payload, n * FULL_MAX_BYTES_PER_PIXEL)?;
                    &raw
                } else {
                    &self.payload
                };
                let mut pos = 0usize;
                let ids = read_gaps(bytes, &mut pos, n)?;
                if bytes.len() - pos != n * 3 {
                    return Err("FULL planar channels size mismatch");
                }
                let mut pixels = Vec::with_capacity(n);
                for (k, &id) in ids.iter().enumerate() {
                    pixels.push((
                        id,
                        [bytes[pos + k], bytes[pos + n + k], bytes[pos + 2 * n + k]],
                    ));
                }
                let mut buf = RegionBuffer::new(region);
                advance(&mut buf, width, &pixels)?;
                *state = Some(buf);
                Ok(pixels)
            }
            MODE_DELTA_DEFLATE => {
                let buf = match state {
                    Some(b) if b.region == region => b,
                    _ => return Err("DELTA_DEFLATE on an unseeded tile stream"),
                };
                let bytes = inflate(&self.payload, n * DELTA_MAX_BYTES_PER_PIXEL)?;
                let mut pos = 0usize;
                let ids = read_gaps(&bytes, &mut pos, n)?;
                let mut deltas = vec![[0i64; 3]; n];
                for c in 0..3 {
                    for d in deltas.iter_mut() {
                        d[c] =
                            unzigzag(try_read_varint(&bytes, &mut pos).ok_or("truncated deltas")?);
                    }
                }
                if pos != bytes.len() {
                    return Err("trailing bytes after DELTA_DEFLATE stream");
                }
                // sequential per-channel reconstruction, mirroring encode
                let mut pixels: Vec<(u32, [u8; 3])> =
                    ids.iter().map(|&id| (id, [0u8; 3])).collect();
                let mut locals = Vec::with_capacity(n);
                for &id in &ids {
                    locals.push(buf.local(id, width).ok_or("pixel outside tile region")?);
                }
                for (k, (d, &local)) in deltas.iter().zip(&locals).enumerate() {
                    for (c, &dc) in d.iter().enumerate() {
                        let v = (buf.rgb[local][c] as i64)
                            .checked_add(dc)
                            .filter(|v| (0..=255).contains(v))
                            .ok_or("delta drives channel out of range")?;
                        buf.rgb[local][c] = v as u8;
                        pixels[k].1[c] = v as u8;
                    }
                }
                Ok(pixels)
            }
            _ => Err("unknown tile-update mode"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const W: u32 = 64;
    const REGION: PixelRegion = PixelRegion {
        x0: 8,
        y0: 4,
        w: 16,
        h: 12,
    };

    fn rng(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 11
    }

    /// Random in-region pixel list, mildly coherent (clustered ids, small
    /// value drift vs `base`).
    fn frame_pixels(s: &mut u64, base: &[(u32, [u8; 3])]) -> Vec<(u32, [u8; 3])> {
        let mut out = Vec::new();
        for y in REGION.y0..REGION.y0 + REGION.h {
            for x in REGION.x0..REGION.x0 + REGION.w {
                if !rng(s).is_multiple_of(3) {
                    continue; // only some pixels change per frame
                }
                let id = y * W + x;
                let prior = base
                    .iter()
                    .find(|&&(pid, _)| pid == id)
                    .map(|&(_, rgb)| rgb)
                    .unwrap_or([100, 120, 140]);
                let mut jitter = |v: u8| v.wrapping_add((rng(s) % 9) as u8).wrapping_sub(4);
                let rgb = [jitter(prior[0]), jitter(prior[1]), jitter(prior[2])];
                out.push((id, rgb));
            }
        }
        out
    }

    #[test]
    fn stream_round_trips_exactly_across_frames() {
        let mut s = 7u64;
        let mut enc: Option<RegionBuffer> = None;
        let mut dec: Option<RegionBuffer> = None;
        let mut last: Vec<(u32, [u8; 3])> = Vec::new();
        for frame in 0..8 {
            let pixels = frame_pixels(&mut s, &last);
            let up = TileUpdate::encode(&pixels, REGION, W, &mut enc, true);
            if frame == 0 {
                assert!(
                    up.mode == MODE_FULL || up.mode == MODE_FULL_DEFLATE,
                    "first frame must reset the stream, got mode {}",
                    up.mode
                );
            }
            let got = up.decode(REGION, W, &mut dec).expect("decode");
            assert_eq!(got, pixels, "frame {frame} must round-trip exactly");
            assert_eq!(enc, dec, "stream state must advance in lockstep");
            last = pixels;
        }
    }

    #[test]
    fn empty_update_is_an_ack_only_once_seeded() {
        let mut st = None;
        let first = TileUpdate::encode(&[], REGION, W, &mut st, true);
        assert_ne!(first.mode, MODE_ACK, "unseeded empty must reset, not ack");
        let second = TileUpdate::encode(&[], REGION, W, &mut st, true);
        assert_eq!(second.mode, MODE_ACK);
        assert_eq!(second.wire_len(), 5);

        let mut dec = None;
        assert!(
            second.decode(REGION, W, &mut dec).is_err(),
            "ack needs state"
        );
        first.decode(REGION, W, &mut dec).unwrap();
        assert_eq!(second.decode(REGION, W, &mut dec).unwrap(), vec![]);
    }

    #[test]
    fn raw_mode_round_trips_and_matches_legacy_size() {
        let pixels = vec![(4 * W + 9, [1, 2, 3]), (4 * W + 10, [255, 0, 128])];
        let mut st = None;
        let up = TileUpdate::encode(&pixels, REGION, W, &mut st, false);
        assert_eq!(up.mode, MODE_RAW);
        assert_eq!(up.payload.len(), pixels.len() * 7);
        let mut dec = None;
        assert_eq!(up.decode(REGION, W, &mut dec).unwrap(), pixels);
    }

    #[test]
    fn coherent_frames_shrink_well_past_4x() {
        // a near-static tile: every pixel present every frame, values
        // drifting by ≤1 — the shape a coherent animation produces
        let mut enc = None;
        let mut frame0 = Vec::new();
        for y in REGION.y0..REGION.y0 + REGION.h {
            for x in REGION.x0..REGION.x0 + REGION.w {
                frame0.push((y * W + x, [x as u8, y as u8, 60]));
            }
        }
        let up0 = TileUpdate::encode(&frame0, REGION, W, &mut enc, true);
        let frame1: Vec<_> = frame0
            .iter()
            .map(|&(id, [r, g, b])| (id, [r.saturating_add(1), g, b]))
            .collect();
        let up1 = TileUpdate::encode(&frame1, REGION, W, &mut enc, true);
        let raw_len = frame1.len() as u64 * 7;
        assert!(
            up1.wire_len() * 4 <= raw_len,
            "delta {} vs raw {} — expected ≥4x",
            up1.wire_len(),
            raw_len
        );
        // and the whole stream still decodes exactly
        let mut dec = None;
        assert_eq!(up0.decode(REGION, W, &mut dec).unwrap(), frame0);
        assert_eq!(up1.decode(REGION, W, &mut dec).unwrap(), frame1);
    }

    #[test]
    fn hostile_payloads_error_instead_of_panicking() {
        let mut dec = None;
        // DELTA_DEFLATE without a seeded stream
        let up = TileUpdate {
            mode: MODE_DELTA_DEFLATE,
            count: 1,
            payload: now_raytrace::deflate::deflate(&[0, 0, 0, 0]),
        };
        assert!(up.decode(REGION, W, &mut dec).is_err());
        // count larger than the region
        let up = TileUpdate {
            mode: MODE_RAW,
            count: u32::MAX,
            payload: vec![],
        };
        assert!(up.decode(REGION, W, &mut dec).is_err());
        // truncated RAW payload
        let up = TileUpdate {
            mode: MODE_RAW,
            count: 2,
            payload: vec![0; 7],
        };
        assert!(up.decode(REGION, W, &mut dec).is_err());
        // out-of-region pixel id
        let up = TileUpdate {
            mode: MODE_RAW,
            count: 1,
            payload: {
                let mut p = 0u32.to_le_bytes().to_vec();
                p.extend_from_slice(&[1, 2, 3]);
                p
            },
        };
        assert!(up.decode(REGION, W, &mut dec).is_err());
        // garbage deflate body
        let up = TileUpdate {
            mode: MODE_FULL_DEFLATE,
            count: 1,
            payload: vec![0xFF, 0xEE],
        };
        assert!(up.decode(REGION, W, &mut dec).is_err());
        // unknown mode
        let up = TileUpdate {
            mode: 99,
            count: 0,
            payload: vec![],
        };
        assert!(up.decode(REGION, W, &mut dec).is_err());
        // the retired undeflated DELTA is unknown too, even on a seeded
        // stream where its payload would have decoded
        let mut seeded = None;
        let id = 4 * W + 8;
        TileUpdate::encode(&[(id, [5, 5, 5])], REGION, W, &mut seeded, true)
            .decode(REGION, W, &mut dec)
            .unwrap();
        let up = TileUpdate {
            mode: RETIRED_DELTA,
            count: 1,
            payload: delta_payload(&[(id, [6, 6, 6])], &[[5, 5, 5]]),
        };
        assert_eq!(
            up.decode(REGION, W, &mut dec),
            Err("unknown tile-update mode")
        );
        // an id gap that overflows the running id
        let mut payload = Vec::new();
        write_varint(&mut payload, zigzag(id as i64));
        write_varint(&mut payload, zigzag(i64::MAX));
        payload.extend_from_slice(&[0; 6]);
        let up = TileUpdate {
            mode: MODE_FULL,
            count: 2,
            payload,
        };
        assert_eq!(
            up.decode(REGION, W, &mut None),
            Err("pixel id out of range")
        );
        // a channel delta that overflows the seeded value
        let mut payload = Vec::new();
        write_gaps(&mut payload, &[(id, [0; 3]), (id + 1, [0; 3])]);
        for z in [zigzag(i64::MAX), 0, 0, 0, 0, 0] {
            write_varint(&mut payload, z);
        }
        let up = TileUpdate {
            mode: MODE_DELTA_DEFLATE,
            count: 2,
            payload: now_raytrace::deflate::deflate(&payload),
        };
        assert_eq!(
            up.decode(REGION, W, &mut dec),
            Err("delta drives channel out of range")
        );
    }

    /// The mode byte the undeflated delta payload had before it was
    /// retired: the reference encoder below still weighs it, to show it
    /// never wins.
    const RETIRED_DELTA: u8 = 4;

    #[test]
    fn region_switch_reseeds_the_encoder() {
        let mut enc = None;
        let p1 = vec![(4 * W + 8, [9, 9, 9])];
        TileUpdate::encode(&p1, REGION, W, &mut enc, true);
        let other = PixelRegion {
            x0: 0,
            y0: 0,
            w: 8,
            h: 8,
        };
        let p2 = vec![(0, [1, 1, 1])];
        let up = TileUpdate::encode(&p2, other, W, &mut enc, true);
        assert!(
            up.mode == MODE_FULL || up.mode == MODE_FULL_DEFLATE,
            "new region must reset the stream"
        );
        assert_eq!(enc.as_ref().unwrap().region(), other);
    }

    /// `TileUpdate::encode` spelled out: deflate both payloads with the
    /// greedy reference encoder and take the shortest of all four
    /// candidates, the retired undeflated delta among them, the earliest
    /// mode on ties. Also says whether the shortest length was shared (a
    /// tie the mode order had to break).
    fn reference_encode(
        pixels: &[(u32, [u8; 3])],
        region: PixelRegion,
        width: u32,
        state: &mut Option<RegionBuffer>,
    ) -> (TileUpdate, bool) {
        let seeded = matches!(state, Some(b) if b.region == region);
        let mut buf = state
            .take()
            .filter(|_| seeded)
            .unwrap_or(RegionBuffer::new(region));
        let prevs = advance(&mut buf, width, pixels).unwrap();
        let count = pixels.len() as u32;
        if seeded && pixels.is_empty() {
            *state = Some(buf);
            let ack = TileUpdate {
                mode: MODE_ACK,
                count,
                payload: Vec::new(),
            };
            return (ack, false);
        }
        let deflate = now_testkit::greedy_deflate::deflate;
        let full = full_payload(pixels);
        let mut candidates = vec![
            (MODE_FULL, full.clone()),
            (MODE_FULL_DEFLATE, deflate(&full)),
        ];
        if seeded {
            let delta = delta_payload(pixels, &prevs);
            candidates.push((MODE_DELTA_DEFLATE, deflate(&delta)));
            candidates.push((RETIRED_DELTA, delta));
            candidates.sort_by_key(|&(mode, _)| mode);
        }
        let (mode, payload) = candidates
            .iter()
            .min_by_key(|(_, p)| p.len())
            .unwrap()
            .clone();
        let tied = candidates
            .iter()
            .filter(|(_, p)| p.len() == payload.len())
            .count()
            > 1;
        if mode == MODE_FULL || mode == MODE_FULL_DEFLATE {
            buf = RegionBuffer::new(region);
            advance(&mut buf, width, pixels).unwrap();
        }
        *state = Some(buf);
        let update = TileUpdate {
            mode,
            count,
            payload,
        };
        (update, tied)
    }

    /// Frames `0..frames` of a small Newton cradle, as the pixel lists the
    /// worker owning `region` ships with coherence off: the whole region,
    /// every frame.
    fn newton_tiles(region: PixelRegion, frames: usize) -> Vec<Vec<(u32, [u8; 3])>> {
        use now_raytrace::{render_pixels_par, Framebuffer, GridAccel, NullListener, RayStats};
        let anim = now_anim::scenes::newton::animation_sized(80, 60, 12);
        let ids: Vec<u32> = region.pixel_ids(80).collect();
        let settings = now_raytrace::RenderSettings::default();
        (0..frames)
            .map(|f| {
                let scene = anim.scene_at(f);
                let accel = GridAccel::build(&scene);
                let mut fb = Framebuffer::new(80, 60);
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

    const NEWTON_REGION: PixelRegion = PixelRegion {
        x0: 12,
        y0: 10,
        w: 40,
        h: 30,
    };

    /// The encoder's two payloads of a real Newton tile stream deflate to
    /// the greedy reference's bytes, and `deflate_within` keeps one exactly
    /// when the reference stream fits its cap.
    #[test]
    fn newton_payloads_deflate_to_the_reference_bytes() {
        use now_raytrace::deflate::deflate;
        let frames = newton_tiles(NEWTON_REGION, 4);
        let mut buf = RegionBuffer::new(NEWTON_REGION);
        let mut payloads = Vec::new();
        for pixels in &frames {
            let prevs = advance(&mut buf, 80, pixels).unwrap();
            payloads.push(full_payload(pixels));
            payloads.push(delta_payload(pixels, &prevs));
        }
        for (k, payload) in payloads.iter().enumerate() {
            let want = now_testkit::greedy_deflate::deflate(payload);
            assert_eq!(deflate(payload), want, "payload {k}");
            let n = want.len();
            for cap in [0, n / 3, n - 1, n, n + 1, payload.len()] {
                let kept = deflate_within(payload, cap);
                assert_eq!(
                    kept.is_some(),
                    n <= cap,
                    "payload {k}: {n} bytes, cap {cap}"
                );
                assert!(kept.is_none_or(|got| got == want), "payload {k}, cap {cap}");
            }
        }
        // the first frame has no delta; the others barely differ from it
        let sizes: Vec<usize> = payloads.iter().map(Vec::len).collect();
        let deflated: Vec<usize> = payloads.iter().map(|p| deflate(p).len()).collect();
        assert!(deflated[3] * 4 < deflated[2], "{sizes:?} -> {deflated:?}");
    }

    /// `TileUpdate::encode` against the four-candidate reference on random
    /// streams — coherent drift, noise, all-zero frames whose FULL and
    /// DELTA payloads are the same bytes, small values over unseen pixels
    /// (FULL and DELTA the same length), empty frames, region switches —
    /// and on the Newton stream.
    #[test]
    fn encode_matches_the_four_candidate_reference() {
        let other = PixelRegion {
            x0: 0,
            y0: 0,
            w: 8,
            h: 8,
        };
        let mut s = 11u64;
        let (mut enc, mut reference) = (None, None);
        let mut last: Vec<(u32, [u8; 3])> = Vec::new();
        let (mut ties, mut modes) = (0, [0u32; 6]);
        for frame in 0..400 {
            let kind = rng(&mut s) % 8;
            let region = if kind == 7 { other } else { REGION };
            let mut pixels = match kind {
                0 | 1 => frame_pixels(&mut s, &last),
                2 => REGION.pixel_ids(W).map(|id| (id, [0, 0, 0])).collect(),
                3 => {
                    let mut small = Vec::new();
                    for id in REGION.pixel_ids(W) {
                        if rng(&mut s).is_multiple_of(4) {
                            small
                                .push((id, [(rng(&mut s) % 64) as u8, 0, (rng(&mut s) % 2) as u8]));
                        }
                    }
                    small
                }
                4 => REGION
                    .pixel_ids(W)
                    .map(|id| {
                        (
                            id,
                            [rng(&mut s) as u8, rng(&mut s) as u8, rng(&mut s) as u8],
                        )
                    })
                    .collect(),
                5 => last.clone(),
                6 => Vec::new(),
                _ => vec![(3 * W + 2, [1, 2, 3]), (5 * W + 7, [1, 2, 4])],
            };
            if kind == 3 && frame % 2 == 0 {
                // the same pixels at zero: the deltas are the FULL bytes
                pixels.iter_mut().for_each(|p| p.1 = [0, 0, 0]);
            }
            let got = TileUpdate::encode(&pixels, region, W, &mut enc, true);
            let (want, tied) = reference_encode(&pixels, region, W, &mut reference);
            assert_eq!(got, want, "frame {frame} (kind {kind})");
            assert_eq!(enc, reference, "frame {frame}: sender state");
            ties += tied as u32;
            modes[got.mode as usize] += 1;
            if region == REGION {
                last = pixels;
            }
        }
        assert!(ties > 20, "{ties} ties");
        // (the undeflated delta never wins: a zigzag delta takes at least
        // the byte its channel value does, and ties go to FULL; were it to
        // win, the reference would pick mode 4 and `got` would differ)
        for mode in [MODE_ACK, MODE_FULL, MODE_FULL_DEFLATE, MODE_DELTA_DEFLATE] {
            assert!(
                modes[mode as usize] > 0,
                "mode {mode} never chosen: {modes:?}"
            );
        }

        let (mut enc, mut reference) = (None, None);
        for (f, pixels) in newton_tiles(NEWTON_REGION, 4).iter().enumerate() {
            let got = TileUpdate::encode(pixels, NEWTON_REGION, 80, &mut enc, true);
            let (want, _) = reference_encode(pixels, NEWTON_REGION, 80, &mut reference);
            assert_eq!(got, want, "Newton frame {f}");
        }
    }
}
