//! Frame buffers and pixel addressing.

use now_math::Color;

/// Linear pixel index: `y * width + x`, row-major from the top-left.
///
/// This is the identifier stored in the coherence engine's per-voxel pixel
/// lists, so it is deliberately a compact `u32`.
pub type PixelId = u32;

/// A width x height buffer of linear-light colors.
#[derive(Debug, Clone, PartialEq)]
pub struct Framebuffer {
    width: u32,
    height: u32,
    pixels: Vec<Color>,
}

impl Framebuffer {
    /// Allocate a black framebuffer.
    pub fn new(width: u32, height: u32) -> Framebuffer {
        assert!(width > 0 && height > 0, "framebuffer must be non-empty");
        Framebuffer {
            width,
            height,
            pixels: vec![Color::BLACK; (width * height) as usize],
        }
    }

    /// Width in pixels.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Height in pixels.
    #[inline]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Total pixel count.
    #[inline]
    pub fn len(&self) -> usize {
        self.pixels.len()
    }

    /// Always false (the constructor rejects empty buffers); present for
    /// clippy's `len_without_is_empty`.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pixels.is_empty()
    }

    /// Linear id of pixel `(x, y)`.
    #[inline]
    pub fn id_of(&self, x: u32, y: u32) -> PixelId {
        debug_assert!(x < self.width && y < self.height);
        y * self.width + x
    }

    /// Read a pixel.
    #[inline]
    pub fn get(&self, x: u32, y: u32) -> Color {
        self.pixels[self.id_of(x, y) as usize]
    }

    /// Read by linear id.
    #[inline]
    pub fn get_id(&self, id: PixelId) -> Color {
        self.pixels[id as usize]
    }

    /// Write a pixel.
    #[inline]
    pub fn set(&mut self, x: u32, y: u32, c: Color) {
        let id = self.id_of(x, y);
        self.pixels[id as usize] = c;
    }

    /// Write by linear id.
    #[inline]
    pub fn set_id(&mut self, id: PixelId, c: Color) {
        self.pixels[id as usize] = c;
    }

    /// All pixels in linear order.
    #[inline]
    pub fn pixels(&self) -> &[Color] {
        &self.pixels
    }

    /// Ids of pixels whose *quantised* (8-bit) values differ between two
    /// buffers — the paper's Fig. 2(a) "actual pixel differences".
    ///
    /// Quantised comparison matters: the paper compares the written Targa
    /// frames, and sub-quantum radiance differences are invisible there.
    pub fn diff_ids(&self, other: &Framebuffer) -> Vec<PixelId> {
        assert_eq!(self.width, other.width);
        assert_eq!(self.height, other.height);
        self.pixels
            .iter()
            .zip(other.pixels.iter())
            .enumerate()
            .filter_map(|(i, (a, b))| (a.to_u8() != b.to_u8()).then_some(i as PixelId))
            .collect()
    }

    /// Maximum per-channel radiance difference over all pixels.
    pub fn max_abs_diff(&self, other: &Framebuffer) -> f64 {
        assert_eq!(self.width, other.width);
        assert_eq!(self.height, other.height);
        self.pixels
            .iter()
            .zip(other.pixels.iter())
            .map(|(a, b)| a.max_diff(*b))
            .fold(0.0, f64::max)
    }

    /// True if both buffers quantise to identical 24-bit images.
    pub fn same_image(&self, other: &Framebuffer) -> bool {
        self.width == other.width
            && self.height == other.height
            && self
                .pixels
                .iter()
                .zip(other.pixels.iter())
                .all(|(a, b)| a.to_u8() == b.to_u8())
    }

    /// Copy the pixels with the given ids from `src` (used when assembling
    /// a coherent frame from its predecessor plus recomputed pixels).
    pub fn copy_ids_from(&mut self, src: &Framebuffer, ids: impl IntoIterator<Item = PixelId>) {
        assert_eq!(self.width, src.width);
        assert_eq!(self.height, src.height);
        for id in ids {
            self.pixels[id as usize] = src.pixels[id as usize];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_coord_roundtrip() {
        let fb = Framebuffer::new(320, 240);
        for (x, y) in [(0, 0), (319, 0), (0, 239), (319, 239), (17, 42)] {
            let id = fb.id_of(x, y);
            assert_eq!((id % 320, id / 320), (x, y));
        }
        assert_eq!(fb.len(), 320 * 240);
        assert!(!fb.is_empty());
    }

    #[test]
    fn get_set_roundtrip() {
        let mut fb = Framebuffer::new(4, 4);
        fb.set(2, 3, Color::new(0.1, 0.2, 0.3));
        assert_eq!(fb.get(2, 3), Color::new(0.1, 0.2, 0.3));
        assert_eq!(fb.get_id(fb.id_of(2, 3)), Color::new(0.1, 0.2, 0.3));
        fb.set_id(0, Color::WHITE);
        assert_eq!(fb.get(0, 0), Color::WHITE);
    }

    #[test]
    fn diff_ids_finds_exact_changes() {
        let mut a = Framebuffer::new(8, 8);
        let mut b = Framebuffer::new(8, 8);
        b.set(1, 1, Color::WHITE);
        b.set(7, 0, Color::gray(0.5));
        let d = a.diff_ids(&b);
        assert_eq!(d, vec![b.id_of(7, 0), b.id_of(1, 1)]);
        assert!(!a.same_image(&b));
        a.copy_ids_from(&b, d);
        assert!(a.same_image(&b));
        assert!(a.diff_ids(&b).is_empty());
    }

    #[test]
    fn sub_quantum_differences_are_not_diffs() {
        let mut a = Framebuffer::new(2, 2);
        let b = Framebuffer::new(2, 2);
        a.set(0, 0, Color::gray(0.0005)); // quantises to 0
        assert!(a.diff_ids(&b).is_empty());
        assert!(a.same_image(&b));
        assert!(a.max_abs_diff(&b) > 0.0);
    }

    #[test]
    #[should_panic]
    fn mismatched_diff_panics() {
        let a = Framebuffer::new(2, 2);
        let b = Framebuffer::new(3, 2);
        let _ = a.diff_ids(&b);
    }
}
