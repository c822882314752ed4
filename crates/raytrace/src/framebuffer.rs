//! Frame buffers and pixel addressing.

use now_math::Color;

/// Linear pixel index: `y * width + x`, row-major from the top-left.
///
/// This is the identifier stored in the coherence engine's per-voxel pixel
/// lists, so it is deliberately a compact `u32`.
pub type PixelId = u32;

/// Linear-light colours over a window of a width x height frame.
///
/// Pixels are addressed by their frame coordinates and [`PixelId`]s
/// whatever the window: [`Framebuffer::new`] covers the whole frame, and
/// [`Framebuffer::window`] holds only one rectangle of it (what a region
/// renderer keeps), in which case a pixel outside the rectangle has no
/// colour and addressing it panics.
#[derive(Debug, Clone, PartialEq)]
pub struct Framebuffer {
    width: u32,
    height: u32,
    /// The window: left and top edge, width and height.
    x0: u32,
    y0: u32,
    w: u32,
    h: u32,
    /// The window's pixels, row-major.
    pixels: Vec<Color>,
}

impl Framebuffer {
    /// Allocate a black framebuffer covering the whole frame.
    pub fn new(width: u32, height: u32) -> Framebuffer {
        Framebuffer::window(width, height, 0, 0, width, height)
    }

    /// Allocate a black framebuffer holding only the `w x h` rectangle at
    /// `(x0, y0)` of a `width x height` frame.
    pub fn window(width: u32, height: u32, x0: u32, y0: u32, w: u32, h: u32) -> Framebuffer {
        assert!(w > 0 && h > 0, "framebuffer must be non-empty");
        assert!(
            x0 + w <= width && y0 + h <= height,
            "window {w}x{h} at ({x0}, {y0}) outside the {width}x{height} frame"
        );
        Framebuffer {
            width,
            height,
            x0,
            y0,
            w,
            h,
            pixels: vec![Color::BLACK; (w * h) as usize],
        }
    }

    /// Frame width in pixels.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Frame height in pixels.
    #[inline]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Pixels held: the window's, the whole frame's for [`Framebuffer::new`].
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

    /// Where frame pixel `id` sits in `pixels`.
    #[inline]
    fn index(&self, id: PixelId) -> usize {
        let x = (id % self.width).wrapping_sub(self.x0);
        let y = (id / self.width).wrapping_sub(self.y0);
        assert!(x < self.w && y < self.h, "pixel {id} outside the window");
        (y * self.w + x) as usize
    }

    /// Frame id of the `i`-th held pixel.
    #[inline]
    fn id_at(&self, i: usize) -> PixelId {
        let (x, y) = (i as u32 % self.w, i as u32 / self.w);
        self.id_of(self.x0 + x, self.y0 + y)
    }

    /// Read a pixel.
    #[inline]
    pub fn get(&self, x: u32, y: u32) -> Color {
        self.get_id(self.id_of(x, y))
    }

    /// Read by linear id.
    #[inline]
    pub fn get_id(&self, id: PixelId) -> Color {
        self.pixels[self.index(id)]
    }

    /// Write a pixel.
    #[inline]
    pub fn set(&mut self, x: u32, y: u32, c: Color) {
        self.set_id(self.id_of(x, y), c);
    }

    /// Write by linear id.
    #[inline]
    pub fn set_id(&mut self, id: PixelId, c: Color) {
        let i = self.index(id);
        self.pixels[i] = c;
    }

    /// The held pixels in row-major order (a whole frame's are its linear
    /// order).
    #[inline]
    pub fn pixels(&self) -> &[Color] {
        &self.pixels
    }

    /// True if the buffer holds the whole frame (its window is the frame),
    /// as an image file of it needs.
    pub fn is_whole(&self) -> bool {
        (self.w, self.h) == (self.width, self.height)
    }

    /// True if both buffers hold the same window of the same frame.
    fn same_window(&self, other: &Framebuffer) -> bool {
        (self.width, self.height, self.x0, self.y0, self.w, self.h)
            == (
                other.width,
                other.height,
                other.x0,
                other.y0,
                other.w,
                other.h,
            )
    }

    /// Ids of pixels whose *quantised* (8-bit) values differ between two
    /// buffers — the paper's Fig. 2(a) "actual pixel differences".
    ///
    /// Quantised comparison matters: the paper compares the written Targa
    /// frames, and sub-quantum radiance differences are invisible there.
    pub fn diff_ids(&self, other: &Framebuffer) -> Vec<PixelId> {
        assert!(self.same_window(other), "buffers of different windows");
        self.pixels
            .iter()
            .zip(other.pixels.iter())
            .enumerate()
            .filter(|(_, (a, b))| a.to_u8() != b.to_u8())
            .map(|(i, _)| self.id_at(i))
            .collect()
    }

    /// Maximum per-channel radiance difference over all pixels.
    pub fn max_abs_diff(&self, other: &Framebuffer) -> f64 {
        assert!(self.same_window(other), "buffers of different windows");
        self.pixels
            .iter()
            .zip(other.pixels.iter())
            .map(|(a, b)| a.max_diff(*b))
            .fold(0.0, f64::max)
    }

    /// True if both buffers hold the same window and it quantises to
    /// identical 24-bit pixels.
    pub fn same_image(&self, other: &Framebuffer) -> bool {
        self.same_window(other)
            && self
                .pixels
                .iter()
                .zip(other.pixels.iter())
                .all(|(a, b)| a.to_u8() == b.to_u8())
    }

    /// Copy the pixels with the given ids from `src`, a buffer over the
    /// same frame (used to compose a frame from its regions' buffers).
    pub fn copy_ids_from(&mut self, src: &Framebuffer, ids: impl IntoIterator<Item = PixelId>) {
        assert_eq!((self.width, self.height), (src.width, src.height));
        for id in ids {
            self.set_id(id, src.get_id(id));
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
    fn a_window_holds_only_its_rectangle_under_frame_ids() {
        let mut win = Framebuffer::window(10, 8, 3, 2, 4, 5);
        assert_eq!((win.width(), win.height(), win.len()), (10, 8, 20));
        let mut whole = Framebuffer::new(10, 8);
        for (i, id) in [23, 26, 63, 66, 45].into_iter().enumerate() {
            let c = Color::gray(0.1 * (i + 1) as f64);
            win.set_id(id, c);
            whole.set_id(id, c);
            assert_eq!(win.get_id(id), c);
        }
        // held pixels are the window's, row-major, first and last corner
        assert_eq!(win.pixels()[0], Color::gray(0.1));
        assert_eq!(win.pixels()[19], Color::gray(0.4));
        let mut other = Framebuffer::window(10, 8, 3, 2, 4, 5);
        assert_eq!(win.diff_ids(&other), vec![23, 26, 45, 63, 66]);
        other.copy_ids_from(&whole, [23, 26, 45, 63, 66]);
        assert!(other.same_image(&win));
        assert!(!win.same_image(&whole), "a window is not its frame");
    }

    #[test]
    #[should_panic(expected = "outside the window")]
    fn a_pixel_outside_the_window_has_no_colour() {
        // (2, 2) is left of the window: its id must not alias a held pixel
        let _ = Framebuffer::window(10, 8, 3, 2, 4, 5).get(2, 3);
    }

    #[test]
    #[should_panic]
    fn mismatched_diff_panics() {
        let a = Framebuffer::new(2, 2);
        let b = Framebuffer::new(3, 2);
        let _ = a.diff_ids(&b);
    }
}
