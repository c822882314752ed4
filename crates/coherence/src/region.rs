//! Rectangular pixel regions.
//!
//! Frame division assigns each worker a sub-area (the paper uses 80x80
//! blocks of the 320x240 frame); a region names such a sub-area and
//! enumerates its global pixel ids.

use now_raytrace::PixelId;
use std::fmt;

/// Why a tiling request is invalid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TileError {
    /// `tile_w` or `tile_h` was zero — the loop would never advance.
    ZeroTile {
        /// Requested tile width.
        tile_w: u32,
        /// Requested tile height.
        tile_h: u32,
    },
    /// The frame itself has no pixels, so there is nothing to tile.
    EmptyFrame {
        /// Frame width.
        width: u32,
        /// Frame height.
        height: u32,
    },
}

impl fmt::Display for TileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TileError::ZeroTile { tile_w, tile_h } => {
                write!(f, "tile size {tile_w}x{tile_h} has a zero dimension")
            }
            TileError::EmptyFrame { width, height } => {
                write!(f, "cannot tile an empty {width}x{height} frame")
            }
        }
    }
}

/// A rectangle of pixels within a `frame_width x frame_height` image.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PixelRegion {
    /// Left edge (inclusive).
    pub x0: u32,
    /// Top edge (inclusive).
    pub y0: u32,
    /// Width in pixels.
    pub w: u32,
    /// Height in pixels.
    pub h: u32,
}

impl PixelRegion {
    /// The whole frame.
    pub fn full(width: u32, height: u32) -> PixelRegion {
        PixelRegion {
            x0: 0,
            y0: 0,
            w: width,
            h: height,
        }
    }

    /// Number of pixels in the region.
    #[inline]
    pub fn len(&self) -> usize {
        (self.w as usize) * (self.h as usize)
    }

    /// True if the region is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.w == 0 || self.h == 0
    }

    /// True if the region contains the global pixel coordinate.
    #[inline]
    pub fn contains(&self, x: u32, y: u32) -> bool {
        x >= self.x0 && x < self.x0 + self.w && y >= self.y0 && y < self.y0 + self.h
    }

    /// True if the region contains the global pixel id (for a frame of the
    /// given width).
    #[inline]
    pub fn contains_id(&self, id: PixelId, frame_width: u32) -> bool {
        self.contains(id % frame_width, id / frame_width)
    }

    /// Iterate the region's global pixel ids in row-major order.
    pub fn pixel_ids(&self, frame_width: u32) -> impl Iterator<Item = PixelId> + '_ {
        let (x0, y0, w, h) = (self.x0, self.y0, self.w, self.h);
        (y0..y0 + h).flat_map(move |y| (x0..x0 + w).map(move |x| y * frame_width + x))
    }

    /// Split the frame into a grid of tiles of at most `tile_w x tile_h`
    /// (edge tiles may be smaller). Row-major tile order.
    ///
    /// Rejects degenerate requests instead of silently producing an empty
    /// set: a zero tile dimension or an empty frame is a configuration
    /// error the caller should surface.
    fn try_tiles(
        width: u32,
        height: u32,
        tile_w: u32,
        tile_h: u32,
    ) -> Result<Vec<PixelRegion>, TileError> {
        if tile_w == 0 || tile_h == 0 {
            return Err(TileError::ZeroTile { tile_w, tile_h });
        }
        if width == 0 || height == 0 {
            return Err(TileError::EmptyFrame { width, height });
        }
        let mut out = Vec::new();
        let mut y = 0;
        while y < height {
            let h = tile_h.min(height - y);
            let mut x = 0;
            while x < width {
                let w = tile_w.min(width - x);
                out.push(PixelRegion { x0: x, y0: y, w, h });
                x += tile_w;
            }
            y += tile_h;
        }
        Ok(out)
    }

    /// Split the frame into a grid of tiles of at most `tile_w x tile_h`
    /// (edge tiles may be smaller), row-major. Panics on a zero tile
    /// dimension or an empty frame (the form for static configurations).
    pub fn tiles(width: u32, height: u32, tile_w: u32, tile_h: u32) -> Vec<PixelRegion> {
        match PixelRegion::try_tiles(width, height, tile_w, tile_h) {
            Ok(tiles) => tiles,
            Err(e) => panic!("invalid tiling: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn full_region_covers_everything() {
        let r = PixelRegion::full(320, 240);
        assert_eq!(r.len(), 76_800);
        assert!(r.contains(0, 0));
        assert!(r.contains(319, 239));
        assert!(!r.contains(320, 0));
    }

    #[test]
    fn pixel_ids_are_row_major_and_complete() {
        let r = PixelRegion {
            x0: 1,
            y0: 2,
            w: 3,
            h: 2,
        };
        let ids: Vec<_> = r.pixel_ids(10).collect();
        assert_eq!(ids, vec![21, 22, 23, 31, 32, 33]);
        for &id in &ids {
            assert!(r.contains_id(id, 10));
        }
        assert!(!r.contains_id(20, 10));
    }

    #[test]
    fn tiles_partition_the_frame_exactly() {
        // the paper's layout: 320x240 into 80x80 tiles = 4x3 = 12 tiles
        let tiles = PixelRegion::tiles(320, 240, 80, 80);
        assert_eq!(tiles.len(), 12);
        let mut seen: HashSet<PixelId> = HashSet::new();
        for t in &tiles {
            for id in t.pixel_ids(320) {
                assert!(seen.insert(id), "pixel {id} covered twice");
            }
        }
        assert_eq!(seen.len(), 320 * 240);
    }

    #[test]
    fn ragged_tiles_cover_edges() {
        let tiles = PixelRegion::tiles(100, 50, 30, 40);
        let total: usize = tiles.iter().map(PixelRegion::len).sum();
        assert_eq!(total, 5000);
        // last column tile is 10 wide, last row 10 tall
        assert!(tiles.iter().any(|t| t.w == 10));
        assert!(tiles.iter().any(|t| t.h == 10));
    }

    #[test]
    fn degenerate_tilings_are_rejected() {
        assert_eq!(
            PixelRegion::try_tiles(320, 240, 0, 80),
            Err(TileError::ZeroTile {
                tile_w: 0,
                tile_h: 80
            })
        );
        assert_eq!(
            PixelRegion::try_tiles(320, 0, 80, 80),
            Err(TileError::EmptyFrame {
                width: 320,
                height: 0
            })
        );
        // errors format into something readable
        let msg = PixelRegion::try_tiles(0, 0, 1, 0).unwrap_err().to_string();
        assert!(msg.contains("zero"), "{msg}");
        // and the panicking form still works for valid input
        assert_eq!(PixelRegion::tiles(10, 10, 5, 5).len(), 4);
    }

    #[test]
    #[should_panic(expected = "invalid tiling")]
    fn tiles_panics_on_zero_tile() {
        let _ = PixelRegion::tiles(320, 240, 80, 0);
    }
}
