//! Tile grid and subtile bitmaps.
//!
//! The image plane is divided into square tiles (the paper's Neo
//! configuration uses 64×64-pixel tiles) and each tile into 8×8-pixel
//! subtiles, giving 64 subtiles per tile tracked in a 64-bit bitmap —
//! exactly the lightweight metadata GSCore/Neo's Intersection Test Units
//! produce.

use neo_math::num::usize_from_u32;
use neo_math::Vec2;

/// Subtile edge length in pixels (paper Table 1: 8×8 px subtiles).
pub const SUBTILE_SIZE: u32 = 8;

/// Partition of an image into square tiles.
///
/// # Examples
///
/// ```
/// use neo_math::Vec2;
/// use neo_pipeline::TileGrid;
///
/// let grid = TileGrid::new(2560, 1440, 64);
/// assert_eq!((grid.tiles_x(), grid.tiles_y()), (40, 23)); // rows round up
/// assert_eq!(grid.tile_count(), 920);
/// // Border tiles are clipped to the image.
/// assert_eq!(grid.tile_rect(0, 22), (0, 1408, 64, 1440));
/// // A 10-pixel splat near a tile corner overlaps four tiles.
/// let span = grid.tiles_for_splat(Vec2::new(64.0, 64.0), 10.0).unwrap();
/// assert_eq!(span, (0, 0, 1, 1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileGrid {
    /// Image width in pixels.
    pub width: u32,
    /// Image height in pixels.
    pub height: u32,
    /// Tile edge length in pixels.
    pub tile_size: u32,
    tiles_x: u32,
    tiles_y: u32,
}

impl TileGrid {
    /// Creates a grid for a `width`×`height` image with `tile_size` tiles.
    ///
    /// # Panics
    ///
    /// Panics when any dimension is zero. Any positive tile size is
    /// valid; above 64 px, [`subtile_bitmap`] degrades to a conservative
    /// whole-tile test (see [`TileGrid::subtiles_per_edge`]).
    pub fn new(width: u32, height: u32, tile_size: u32) -> Self {
        assert!(
            width > 0 && height > 0 && tile_size > 0,
            "dimensions must be positive"
        );
        Self {
            width,
            height,
            tile_size,
            tiles_x: width.div_ceil(tile_size),
            tiles_y: height.div_ceil(tile_size),
        }
    }

    /// Number of tile columns.
    pub fn tiles_x(&self) -> u32 {
        self.tiles_x
    }

    /// Number of tile rows.
    pub fn tiles_y(&self) -> u32 {
        self.tiles_y
    }

    /// Total tile count.
    pub fn tile_count(&self) -> usize {
        usize_from_u32(self.tiles_x * self.tiles_y)
    }

    /// Flat tile index for tile coordinates `(tx, ty)`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when out of range.
    pub fn tile_index(&self, tx: u32, ty: u32) -> usize {
        debug_assert!(tx < self.tiles_x && ty < self.tiles_y);
        usize_from_u32(ty * self.tiles_x + tx)
    }

    /// Pixel rectangle `(x0, y0, x1, y1)` of a tile (exclusive max, clamped
    /// to the image).
    pub fn tile_rect(&self, tx: u32, ty: u32) -> (u32, u32, u32, u32) {
        let x0 = tx * self.tile_size;
        let y0 = ty * self.tile_size;
        (
            x0,
            y0,
            (x0 + self.tile_size).min(self.width),
            (y0 + self.tile_size).min(self.height),
        )
    }

    /// Pixel rectangle of the tile with flat index `tile_index`
    /// (row-major), like [`TileGrid::tile_rect`] but without unpacking
    /// the coordinates first.
    ///
    /// ```
    /// use neo_pipeline::TileGrid;
    ///
    /// let grid = TileGrid::new(100, 70, 64);
    /// assert_eq!(grid.tile_rect_at(3), grid.tile_rect(1, 1));
    /// ```
    pub fn tile_rect_at(&self, tile_index: usize) -> (u32, u32, u32, u32) {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "tile_index ranges over tile_count(), a product of u32 tile coordinates; a valid index always fits u32"
        )]
        let tx = (tile_index as u32) % self.tiles_x;
        #[expect(
            clippy::cast_possible_truncation,
            reason = "tile_index ranges over tile_count(), a product of u32 tile coordinates; a valid index always fits u32"
        )]
        let ty = (tile_index as u32) / self.tiles_x;
        self.tile_rect(tx, ty)
    }

    /// Inclusive tile-coordinate ranges overlapped by a circle of `radius`
    /// pixels centered at `center`, or `None` when it misses the image.
    pub fn tiles_for_splat(&self, center: Vec2, radius: f32) -> Option<(u32, u32, u32, u32)> {
        let min_x = center.x - radius;
        let min_y = center.y - radius;
        let max_x = center.x + radius;
        let max_y = center.y + radius;
        if max_x < 0.0 || max_y < 0.0 || min_x >= self.width as f32 || min_y >= self.height as f32 {
            return None;
        }
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "f32->u32 after max(0.0): the saturating cast clamps the far edge to the image via the min() below; floats have no try_from"
        )]
        let tx0 = (min_x.max(0.0) as u32) / self.tile_size;
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "f32->u32 after max(0.0): the saturating cast clamps the far edge to the image via the min() below; floats have no try_from"
        )]
        let ty0 = (min_y.max(0.0) as u32) / self.tile_size;
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "f32->u32 after min(width - 1): non-negative (the early-out above rejects max < 0) and in image range; floats have no try_from"
        )]
        let tx1 = ((max_x.min(self.width as f32 - 1.0)) as u32) / self.tile_size;
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "f32->u32 after min(height - 1): non-negative (the early-out above rejects max < 0) and in image range; floats have no try_from"
        )]
        let ty1 = ((max_y.min(self.height as f32 - 1.0)) as u32) / self.tile_size;
        Some((
            tx0,
            ty0,
            tx1.min(self.tiles_x - 1),
            ty1.min(self.tiles_y - 1),
        ))
    }

    /// Subtile grid dimension along one tile edge.
    ///
    /// Subtile bitmaps are 64-bit, so subtile skipping requires
    /// `subtiles_per_edge() ≤ 8` (i.e. `tile_size ≤ 64` at the fixed
    /// 8-px [`SUBTILE_SIZE`]) — the paper's 64×64/8×8 configuration and
    /// everything below it. Beyond that bound, [`subtile_bitmap`] falls
    /// back to a conservative whole-tile intersection test: pixels are
    /// never wrongly skipped, but per-subtile skipping is lost.
    pub fn subtiles_per_edge(&self) -> u32 {
        self.tile_size.div_ceil(SUBTILE_SIZE)
    }
}

/// Computes the subtile intersection bitmap for a splat within a tile.
///
/// Bit `s` is set when the circle (`center`, `radius`, in pixels) overlaps
/// subtile `s` (row-major within the tile). This models the ITU's
/// on-the-fly bitmap generation.
///
/// Tiles spanning more than 64 subtiles (see
/// [`TileGrid::subtiles_per_edge`]) cannot be described by a 64-bit
/// bitmap; for those this returns the conservative whole-tile answer —
/// all-ones when the circle overlaps the tile rect at all, zero
/// otherwise — so callers still never skip a covered pixel. (Simply
/// clamping to the first 64 subtiles, as this function once did, would
/// report `0` for a splat overlapping only untracked subtiles and make
/// the rasterizer drop it entirely.)
pub fn subtile_bitmap(grid: &TileGrid, tx: u32, ty: u32, center: Vec2, radius: f32) -> u64 {
    let (x0, y0, x1, y1) = grid.tile_rect(tx, ty);
    let per_edge = grid.subtiles_per_edge();
    if per_edge > 8 {
        let cx = center.x.clamp(x0 as f32, x1 as f32);
        let cy = center.y.clamp(y0 as f32, y1 as f32);
        let dx = center.x - cx;
        let dy = center.y - cy;
        return if dx * dx + dy * dy <= radius * radius {
            u64::MAX
        } else {
            0
        };
    }
    // The circle meets a subtile iff the squared distance from its center
    // to the subtile rect, `dx² + dy²`, is at most `radius²`, and `dx`
    // depends on the subtile's column alone and `dy` on its row alone:
    // solve each axis once, then combine.
    let cols = axis_distances(center.x, x0, x1, per_edge);
    let rows = axis_distances(center.y, y0, y1, per_edge);
    let r2 = radius * radius;
    let per_edge = usize_from_u32(per_edge);
    let mut bitmap = 0u64;
    for (sy, dy2) in rows.iter().enumerate().take(per_edge) {
        let Some(dy2) = *dy2 else { continue };
        for (sx, dx2) in cols.iter().enumerate().take(per_edge) {
            if dx2.is_some_and(|dx2| dx2 + dy2 <= r2) {
                bitmap |= 1u64 << (sy * per_edge + sx);
            }
        }
    }
    bitmap
}

/// Squared distance from coordinate `c` to each of the first `count`
/// subtile extents of the tile span `[lo, hi)` along one axis, or `None`
/// for an extent the span clips to nothing (its bits stay 0, whatever
/// the radius).
fn axis_distances(c: f32, lo: u32, hi: u32, count: u32) -> [Option<f32>; 8] {
    let mut out = [None; 8];
    for (s, d2) in (0..count).zip(out.iter_mut()) {
        let s0 = (lo + s * SUBTILE_SIZE) as f32;
        let s1 = ((lo + (s + 1) * SUBTILE_SIZE).min(hi)) as f32;
        if s1 > s0 {
            // Circle-rectangle overlap: clamp the center to the extent.
            let d = c - c.clamp(s0, s1);
            *d2 = Some(d * d);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_dimensions_round_up() {
        let g = TileGrid::new(2560, 1440, 64);
        assert_eq!(g.tiles_x(), 40);
        assert_eq!(g.tiles_y(), 23); // 1440/64 = 22.5 → 23
        assert_eq!(g.tile_count(), 920);
        assert_eq!(g.subtiles_per_edge(), 8);
    }

    #[test]
    fn tile_rect_clamps_at_border() {
        let g = TileGrid::new(100, 70, 64);
        assert_eq!(g.tile_rect(0, 0), (0, 0, 64, 64));
        assert_eq!(g.tile_rect(1, 1), (64, 64, 100, 70));
    }

    #[test]
    fn splat_tile_ranges() {
        let g = TileGrid::new(256, 256, 64);
        // Small splat inside one tile.
        let r = g.tiles_for_splat(Vec2::new(32.0, 32.0), 8.0).unwrap();
        assert_eq!(r, (0, 0, 0, 0));
        // Splat straddling four tiles.
        let r = g.tiles_for_splat(Vec2::new(64.0, 64.0), 4.0).unwrap();
        assert_eq!(r, (0, 0, 1, 1));
        // Splat fully outside.
        assert!(g.tiles_for_splat(Vec2::new(-50.0, 10.0), 8.0).is_none());
        assert!(g.tiles_for_splat(Vec2::new(500.0, 10.0), 8.0).is_none());
    }

    #[test]
    fn splat_overlapping_edge_is_kept() {
        let g = TileGrid::new(256, 256, 64);
        let r = g.tiles_for_splat(Vec2::new(-5.0, 10.0), 8.0).unwrap();
        assert_eq!(r.0, 0);
    }

    #[test]
    fn subtile_bitmap_small_splat_sets_one_bit() {
        let g = TileGrid::new(256, 256, 64);
        // Center of subtile (2, 3) within tile (0, 0): bit 3*8+2 = 26.
        let c = Vec2::new(2.0 * 8.0 + 4.0, 3.0 * 8.0 + 4.0);
        let bm = subtile_bitmap(&g, 0, 0, c, 2.0);
        assert_eq!(bm, 1u64 << 26);
    }

    #[test]
    fn subtile_bitmap_big_splat_covers_tile() {
        let g = TileGrid::new(64, 64, 64);
        let bm = subtile_bitmap(&g, 0, 0, Vec2::new(32.0, 32.0), 64.0);
        assert_eq!(bm, u64::MAX);
    }

    #[test]
    fn subtile_bitmap_outside_is_zero() {
        let g = TileGrid::new(128, 128, 64);
        let bm = subtile_bitmap(&g, 0, 0, Vec2::new(120.0, 120.0), 4.0);
        assert_eq!(bm, 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_tile_size_rejected() {
        let _ = TileGrid::new(100, 100, 0);
    }

    /// Oversized tiles degrade to a conservative whole-tile bitmap: a
    /// splat overlapping *only* subtiles beyond bit 63 must still be
    /// reported as covering (the old first-64 clamp returned 0 and made
    /// the rasterizer drop such splats), and a splat missing the tile
    /// entirely still reports zero coverage.
    #[test]
    fn oversized_tile_bitmap_is_conservative() {
        let g = TileGrid::new(128, 128, 128);
        assert_eq!(g.subtiles_per_edge(), 16);
        // Bottom-right corner: subtile (15, 15), bit 255 — untracked.
        assert_eq!(
            subtile_bitmap(&g, 0, 0, Vec2::new(120.0, 120.0), 4.0),
            u64::MAX
        );
        // Fully off-tile splats still report no coverage.
        assert_eq!(subtile_bitmap(&g, 0, 0, Vec2::new(300.0, 300.0), 4.0), 0);
    }
}
