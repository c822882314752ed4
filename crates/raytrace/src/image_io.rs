//! Image writers: Targa (the paper's output format), PNG, PPM and PGM.
//!
//! "The POV-Ray renderer generated animation frames ... in targa format
//! with 24-bit color" — [`write_tga`] produces exactly that: an
//! uncompressed type-2 Targa with 24-bit BGR pixels, bottom-up row order
//! as is conventional for TGA.
//!
//! [`png_bytes`] is a dependency-free PNG encoder (the fixed-Huffman
//! deflate from [`crate::deflate`], the shared [`now_math::crc32`] and a
//! hand-rolled Adler-32) so golden images can be checked in as a
//! universally viewable format without pulling a compression crate into
//! the offline build.
//!
//! Every `write_*` function goes through [`write_atomic`] — temp file,
//! fsync, rename — so an interrupted render never leaves a half-written
//! image on disk.

use crate::deflate::zlib_compress;
use crate::framebuffer::Framebuffer;
use now_math::crc32;
use std::io::{self, Write};
use std::path::Path;

/// A disk fault to inject into one [`write_atomic_with`] call. Defined
/// here (dependency-free) so the cluster layer's `DiskFaultPlan` can be
/// threaded down to the image writers without this crate depending on
/// the cluster crate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum WriteFault {
    /// No fault: the write proceeds normally.
    #[default]
    None,
    /// The write fails with `ENOSPC` before touching the target.
    Enospc,
    /// The write fails with `EIO` before touching the target.
    Eio,
    /// The write is cut partway: half the bytes land in the `.tmp`
    /// sibling, the rename never happens, and the caller gets an error.
    /// The target file is untouched — exactly what the atomic protocol
    /// promises under a mid-write crash.
    Torn,
}

/// Write `bytes` to `path` atomically: the data goes to a `NAME.tmp`
/// sibling first, is fsynced, and is then renamed over the target, so a
/// crash at any instant leaves either the old file or the new one — never
/// a half-written artifact. The containing directory is synced
/// best-effort so the rename itself is durable.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    write_atomic_with(path, bytes, WriteFault::None)
}

/// [`write_atomic`] with deterministic fault injection: `fault` says how
/// this particular write should fail (if at all). Used by the chaos
/// harness to prove a frame write that dies mid-flight never corrupts
/// the target image.
pub fn write_atomic_with(path: &Path, bytes: &[u8], fault: WriteFault) -> io::Result<()> {
    match fault {
        WriteFault::None | WriteFault::Torn => {}
        WriteFault::Enospc => return Err(io::Error::from_raw_os_error(28)),
        WriteFault::Eio => return Err(io::Error::from_raw_os_error(5)),
    }
    let name = path.file_name().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("no file name in {}", path.display()),
        )
    })?;
    let mut tmp_name = name.to_os_string();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    {
        let mut f = std::fs::File::create(&tmp)?;
        if fault == WriteFault::Torn {
            // power dies mid-write: half the payload lands in the tmp
            // sibling, the rename below never runs, the target survives
            f.write_all(&bytes[..bytes.len() / 2])?;
            let _ = f.sync_data();
            return Err(io::Error::new(
                io::ErrorKind::WriteZero,
                "injected torn write",
            ));
        }
        f.write_all(bytes)?;
        f.sync_data()?;
    }
    std::fs::rename(&tmp, path)?;
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    if let Ok(d) = std::fs::File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// Encode top-down row-major RGB triples as an uncompressed 24-bit Targa
/// (type 2) file. The farm's run journal uses this to persist finalized
/// frames without round-tripping through floating-point color.
pub fn tga_bytes_rgb8(width: u32, height: u32, px: &[[u8; 3]]) -> Vec<u8> {
    assert_eq!(px.len(), (width * height) as usize);
    let mut out = Vec::with_capacity(18 + px.len() * 3);
    // 18-byte TGA header
    out.push(0); // id length
    out.push(0); // no color map
    out.push(2); // uncompressed true-color
    out.extend_from_slice(&[0; 5]); // color map spec
    out.extend_from_slice(&0u16.to_le_bytes()); // x origin
    out.extend_from_slice(&0u16.to_le_bytes()); // y origin
    out.extend_from_slice(&(width as u16).to_le_bytes());
    out.extend_from_slice(&(height as u16).to_le_bytes());
    out.push(24); // bits per pixel
    out.push(0); // descriptor: bottom-left origin
                 // pixel data, bottom row first, BGR order
    for y in (0..height).rev() {
        for x in 0..width {
            let [r, g, b] = px[(y * width + x) as usize];
            out.push(b);
            out.push(g);
            out.push(r);
        }
    }
    out
}

/// Encode a framebuffer as an uncompressed 24-bit Targa (type 2) file.
pub fn tga_bytes(fb: &Framebuffer) -> Vec<u8> {
    assert!(fb.is_whole(), "not a whole frame");
    let px: Vec<[u8; 3]> = fb
        .pixels()
        .iter()
        .map(|c| {
            let (r, g, b) = c.to_u8();
            [r, g, b]
        })
        .collect();
    tga_bytes_rgb8(fb.width(), fb.height(), &px)
}

/// Decoded image: width, height, and top-down RGB triples.
pub type DecodedImage = (u32, u32, Vec<(u8, u8, u8)>);

/// Decode the pixel bytes of a TGA produced by [`tga_bytes`] back into
/// `(width, height, rgb_rows_top_down)`. Only the exact format this crate
/// writes is supported (it exists for round-trip testing and for the bench
/// harness to re-read frames).
pub fn tga_decode(bytes: &[u8]) -> io::Result<DecodedImage> {
    if bytes.len() < 18 || bytes[2] != 2 || bytes[16] != 24 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "unsupported TGA",
        ));
    }
    let w = u16::from_le_bytes([bytes[12], bytes[13]]) as u32;
    let h = u16::from_le_bytes([bytes[14], bytes[15]]) as u32;
    let need = 18 + (w as usize) * (h as usize) * 3;
    if bytes.len() < need {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "truncated TGA",
        ));
    }
    let mut px = vec![(0u8, 0u8, 0u8); (w * h) as usize];
    let mut i = 18;
    for y in (0..h).rev() {
        for x in 0..w {
            let (b, g, r) = (bytes[i], bytes[i + 1], bytes[i + 2]);
            px[(y * w + x) as usize] = (r, g, b);
            i += 3;
        }
    }
    Ok((w, h, px))
}

/// Write a framebuffer to a TGA file (atomically, via [`write_atomic`]).
pub fn write_tga(fb: &Framebuffer, path: &Path) -> io::Result<()> {
    write_atomic(path, &tga_bytes(fb))
}

/// Append one PNG chunk: length, type, data, CRC over type+data.
fn png_chunk(out: &mut Vec<u8>, kind: &[u8; 4], data: &[u8]) {
    out.extend_from_slice(&(data.len() as u32).to_be_bytes());
    let start = out.len();
    out.extend_from_slice(kind);
    out.extend_from_slice(data);
    let crc = crc32(&out[start..]);
    out.extend_from_slice(&crc.to_be_bytes());
}

/// Encode a framebuffer as an 8-bit truecolor PNG.
///
/// The zlib stream uses the deterministic fixed-Huffman compressor from
/// [`crate::deflate`] — byte-for-byte reproducible everywhere, which is
/// what the golden-image tests hash.
pub fn png_bytes(fb: &Framebuffer) -> Vec<u8> {
    // scanlines: filter byte 0 (None) + RGB triples, top-down
    let w = fb.width();
    let h = fb.height();
    let mut raw = Vec::with_capacity((h as usize) * (1 + 3 * w as usize));
    for y in 0..h {
        raw.push(0u8);
        for x in 0..w {
            let (r, g, b) = fb.get(x, y).to_u8();
            raw.extend_from_slice(&[r, g, b]);
        }
    }

    let idat = zlib_compress(&raw);

    let mut ihdr = Vec::with_capacity(13);
    ihdr.extend_from_slice(&w.to_be_bytes());
    ihdr.extend_from_slice(&h.to_be_bytes());
    // bit depth 8, color type 2 (truecolor), deflate, filter 0, no interlace
    ihdr.extend_from_slice(&[8, 2, 0, 0, 0]);

    let mut out = Vec::with_capacity(57 + idat.len());
    out.extend_from_slice(&[137, b'P', b'N', b'G', 13, 10, 26, 10]);
    png_chunk(&mut out, b"IHDR", &ihdr);
    png_chunk(&mut out, b"IDAT", &idat);
    png_chunk(&mut out, b"IEND", &[]);
    out
}

/// Encode a binary mask as PGM (P5): 255 where `mask` is true, 0 elsewhere.
/// Used for the Fig. 2 difference maps.
fn pgm_mask_bytes(width: u32, height: u32, mask: &[bool]) -> Vec<u8> {
    assert_eq!(mask.len(), (width * height) as usize);
    let mut out = Vec::new();
    let _ = write!(out, "P5\n{width} {height}\n255\n");
    out.extend(mask.iter().map(|&m| if m { 255u8 } else { 0u8 }));
    out
}

/// Write a binary mask to a PGM file (atomically, via [`write_atomic`]).
pub fn write_pgm_mask(width: u32, height: u32, mask: &[bool], path: &Path) -> io::Result<()> {
    write_atomic(path, &pgm_mask_bytes(width, height, mask))
}

#[cfg(test)]
mod tests {
    use super::*;
    use now_math::Color;

    fn sample_fb() -> Framebuffer {
        let mut fb = Framebuffer::new(3, 2);
        fb.set(0, 0, Color::new(1.0, 0.0, 0.0));
        fb.set(1, 0, Color::new(0.0, 1.0, 0.0));
        fb.set(2, 0, Color::new(0.0, 0.0, 1.0));
        fb.set(0, 1, Color::gray(0.5));
        fb
    }

    #[test]
    fn tga_header_and_size() {
        let bytes = tga_bytes(&sample_fb());
        assert_eq!(bytes.len(), 18 + 3 * 2 * 3);
        assert_eq!(bytes[2], 2);
        assert_eq!(bytes[16], 24);
        assert_eq!(u16::from_le_bytes([bytes[12], bytes[13]]), 3);
        assert_eq!(u16::from_le_bytes([bytes[14], bytes[15]]), 2);
    }

    #[test]
    fn tga_roundtrip() {
        let fb = sample_fb();
        let (w, h, px) = tga_decode(&tga_bytes(&fb)).unwrap();
        assert_eq!((w, h), (3, 2));
        assert_eq!(px[0], (255, 0, 0));
        assert_eq!(px[1], (0, 255, 0));
        assert_eq!(px[2], (0, 0, 255));
        assert_eq!(px[3], (128, 128, 128));
        // bottom row (black) comes last in top-down order
        assert_eq!(px[4], (0, 0, 0));
    }

    /// A region renderer's buffer holds one window of the frame; an image
    /// file needs all of it.
    #[test]
    #[should_panic(expected = "not a whole frame")]
    fn writing_a_window_panics() {
        let _ = tga_bytes(&Framebuffer::window(3, 2, 1, 0, 2, 2));
    }

    #[test]
    fn tga_decode_rejects_garbage() {
        assert!(tga_decode(&[0u8; 4]).is_err());
        let mut bytes = tga_bytes(&sample_fb());
        bytes.truncate(20);
        assert!(tga_decode(&bytes).is_err());
    }

    #[test]
    fn pgm_mask_encoding() {
        let mask = [true, false, false, true];
        let bytes = pgm_mask_bytes(2, 2, &mask);
        assert!(bytes.starts_with(b"P5\n2 2\n255\n"));
        assert_eq!(&bytes[11..], &[255, 0, 0, 255]);
    }

    #[test]
    #[should_panic]
    fn pgm_mask_size_mismatch_panics() {
        let _ = pgm_mask_bytes(2, 2, &[true; 3]);
    }

    #[test]
    fn tga_rgb8_matches_framebuffer_encoder() {
        let fb = sample_fb();
        let px: Vec<[u8; 3]> = fb
            .pixels()
            .iter()
            .map(|c| {
                let (r, g, b) = c.to_u8();
                [r, g, b]
            })
            .collect();
        assert_eq!(tga_bytes_rgb8(fb.width(), fb.height(), &px), tga_bytes(&fb));
    }

    #[test]
    fn write_atomic_replaces_and_leaves_no_tmp() {
        let dir = std::env::temp_dir().join(format!("now_atomic_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.bin");
        write_atomic(&path, b"first").unwrap();
        write_atomic(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        assert!(!dir.join("out.bin.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_atomic_rejects_bare_root() {
        assert!(write_atomic(Path::new("/"), b"x").is_err());
    }

    /// Injected faults never touch the target: ENOSPC/EIO fail before the
    /// tmp file, a torn write strands a half-written tmp and leaves the
    /// previous contents intact.
    #[test]
    fn write_atomic_faults_leave_target_intact() {
        let dir = std::env::temp_dir().join(format!("now_atomic_fault_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.bin");
        write_atomic(&path, b"original").unwrap();

        let err = write_atomic_with(&path, b"newer", WriteFault::Enospc).unwrap_err();
        assert_eq!(err.raw_os_error(), Some(28));
        let err = write_atomic_with(&path, b"newer", WriteFault::Eio).unwrap_err();
        assert_eq!(err.raw_os_error(), Some(5));
        assert!(write_atomic_with(&path, b"newer", WriteFault::Torn).is_err());
        assert_eq!(std::fs::read(&path).unwrap(), b"original");
        // the torn tmp holds exactly half the payload
        assert_eq!(std::fs::read(dir.join("out.bin.tmp")).unwrap(), b"ne");
        // a later clean write recovers, reusing (and removing) the tmp
        write_atomic(&path, b"newer").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"newer");
        assert!(!dir.join("out.bin.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crc32_known_vectors() {
        // standard check value for "123456789"
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        // every PNG ends with the IEND chunk whose CRC is famously ae426082
        assert_eq!(crc32(b"IEND"), 0xAE42_6082);
    }

    /// Round-trip our own zlib stream (checks the Adler-32 trailer too).
    fn inflate_zlib(zlib: &[u8], max_out: usize) -> Vec<u8> {
        assert_eq!(&zlib[..2], &[0x78, 0x01]);
        crate::deflate::zlib_decompress(zlib, max_out).expect("IDAT must decode")
    }

    #[test]
    fn png_structure_and_pixels_roundtrip() {
        let fb = sample_fb();
        let bytes = png_bytes(&fb);
        assert_eq!(&bytes[..8], &[137, b'P', b'N', b'G', 13, 10, 26, 10]);
        // IHDR: length 13 at offset 8, then type
        assert_eq!(&bytes[8..16], &[0, 0, 0, 13, b'I', b'H', b'D', b'R']);
        assert_eq!(u32::from_be_bytes(bytes[16..20].try_into().unwrap()), 3);
        assert_eq!(u32::from_be_bytes(bytes[20..24].try_into().unwrap()), 2);
        assert_eq!(&bytes[24..29], &[8, 2, 0, 0, 0]); // depth 8, RGB
        assert!(bytes.ends_with(&[b'I', b'E', b'N', b'D', 0xAE, 0x42, 0x60, 0x82]));

        // every chunk's CRC must verify
        let mut i = 8;
        let mut kinds = Vec::new();
        while i < bytes.len() {
            let len = u32::from_be_bytes(bytes[i..i + 4].try_into().unwrap()) as usize;
            let body = &bytes[i + 4..i + 8 + len];
            let crc = u32::from_be_bytes(bytes[i + 8 + len..i + 12 + len].try_into().unwrap());
            assert_eq!(crc, crc32(body), "bad CRC in {:?}", &body[..4]);
            kinds.push(body[..4].to_vec());
            i += 12 + len;
        }
        assert_eq!(
            kinds,
            vec![b"IHDR".to_vec(), b"IDAT".to_vec(), b"IEND".to_vec()]
        );

        // scanlines: filter byte 0 then RGB, top-down
        let idat_len = u32::from_be_bytes(bytes[33..37].try_into().unwrap()) as usize;
        let raw = inflate_zlib(&bytes[41..41 + idat_len], 2 * (1 + 3 * 3));
        assert_eq!(raw.len(), 2 * (1 + 3 * 3));
        assert_eq!(&raw[..10], &[0, 255, 0, 0, 0, 255, 0, 0, 0, 255]);
    }

    #[test]
    fn png_large_frame_compresses_and_roundtrips() {
        // a frame whose scanline stream exceeds one stored block's
        // 65,535-byte limit; the blank image should now compress to a
        // sliver of its raw size instead of shipping stored blocks
        let fb = Framebuffer::new(200, 120); // (1+600)*120 = 72,120 bytes
        let bytes = png_bytes(&fb);
        let idat_len = u32::from_be_bytes(bytes[33..37].try_into().unwrap()) as usize;
        let raw = inflate_zlib(&bytes[41..41 + idat_len], 72_120);
        assert_eq!(raw.len(), 72_120);
        assert!(raw.iter().all(|&b| b == 0), "blank frame is all zeros");
        assert!(
            idat_len < 72_120 / 20,
            "blank frame should deflate hard, got {idat_len}"
        );
    }
}
