//! Reusable rasterization scratch buffers.
//!
//! Rasterizing a tile needs per-pixel transmittance and color working
//! buffers (planar: one f32 plane per channel), and the intra-frame
//! parallel renderer in `neo-core` additionally buffers each tile's
//! finished pixel block so framebuffer
//! writes can be replayed deterministically *after* the workers join.
//! Allocating those buffers per tile (as the seed rasterizer did)
//! dominates small-tile render times, so both live in scratch types a
//! render session keeps across frames:
//!
//! * [`RasterScratch`] — one tile's working buffers; after
//!   [`crate::rasterize_tile_with_scratch`] returns it holds the tile's
//!   finished pixel block.
//! * [`ShardScratch`] — a worker's [`RasterScratch`] plus an arena of
//!   finished tile blocks awaiting the deterministic merge into the
//!   shared framebuffer.

use crate::framebuffer::Image;
use crate::pipeline::{rasterize_tile_with_scratch, RenderConfig, TileRasterStats};
use crate::projection::ProjectedGaussian;
use crate::tiles::TileGrid;
use neo_math::num::usize_from_u32;
use neo_math::Vec3;

/// Per-tile rasterization working buffers, reused across tiles and
/// frames.
///
/// After a [`crate::rasterize_tile_with_scratch`] call the scratch holds
/// the tile's finished pixel block ([`RasterScratch::pixels`], row-major
/// within the tile rect); [`RasterScratch::blit_to`] copies it into a
/// framebuffer. Reusing one scratch across a whole frame removes every
/// per-tile heap allocation once the buffers have grown.
///
/// # Examples
///
/// ```
/// use neo_math::{Vec2, Vec3};
/// use neo_pipeline::{
///     rasterize_tile_with_scratch, Image, ProjectedGaussian, RasterScratch, RenderConfig,
///     TileGrid,
/// };
///
/// let grid = TileGrid::new(128, 64, 64);
/// let splat = ProjectedGaussian {
///     id: 0,
///     mean2d: Vec2::new(60.0, 30.0),
///     depth: 1.0,
///     conic: (0.02, 0.0, 0.02),
///     radius: 25.0,
///     color: Vec3::new(1.0, 0.5, 0.0),
///     opacity: 0.9,
/// };
/// let cfg = RenderConfig::default();
///
/// // One scratch serves every tile of the frame: rasterize, then blit.
/// let mut scratch = RasterScratch::new();
/// let mut image = Image::new(128, 64, Vec3::ZERO);
/// for tile in 0..grid.tile_count() {
///     let stats = rasterize_tile_with_scratch(&mut scratch, &grid, tile, &[&splat], &cfg);
///     assert!(stats.blend_ops > 0);
///     scratch.blit_to(&mut image, &grid, tile);
/// }
/// assert!(image.get(60, 30).x > 0.8);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RasterScratch {
    /// Planar blend buffers for the tile being rasterized.
    pub(crate) planes: TilePlanes,
    /// The finished pixel block, interleaved from [`RasterScratch::planes`]
    /// by the final composite.
    pub(crate) color: Vec<Vec3>,
    /// Per-row count of not-yet-saturated pixels, maintained by the blend
    /// loop. The exact-clipped fast path skips whole rows once this hits
    /// zero (the per-row analogue of the tile-level `live_pixels`
    /// early-out); full-row spans maintain but never consult it.
    pub(crate) row_live: Vec<u32>,
    /// The fast path's solved span bounds of each candidate row of the
    /// current splat's cutoff ellipse, solved for all rows before any is
    /// blended.
    pub(crate) row_bounds: Vec<[f64; 2]>,
    /// Width in pixels of the last rasterized tile rect.
    pub(crate) width: usize,
    /// Height in pixels of the last rasterized tile rect.
    pub(crate) height: usize,
}

/// Pixels per blend chunk. Equal to the subtile edge, so a tile-aligned
/// chunk lies in exactly one subtile column.
pub(crate) const LANES: usize = 8;

/// [`LANES`] as a pixel-coordinate stride.
pub(crate) const LANES_U32: u32 = 8;
const _: () = assert!(usize_from_u32(LANES_U32) == LANES);

/// One tile-aligned 8-pixel run of a tile row.
pub(crate) type Lanes = [f32; LANES];

/// Planar per-pixel blend state of one tile: transmittance and r/g/b in
/// separate planes, each `height` rows of `row_chunks` [`Lanes`] (the row
/// stride is the tile width rounded up to a multiple of [`LANES`]).
/// Padding lanes are never inside a span, so they are never blended.
#[derive(Debug, Clone, Default)]
pub(crate) struct TilePlanes {
    pub(crate) t: Vec<Lanes>,
    pub(crate) r: Vec<Lanes>,
    pub(crate) g: Vec<Lanes>,
    pub(crate) b: Vec<Lanes>,
    pub(crate) row_chunks: usize,
    /// The column half of the falloff exponent for one splat.
    pub(crate) columns: ColumnTerms,
}

/// The terms of the falloff exponent that depend on a pixel's column
/// alone, for one splat over one tile: `(A·dx)·dx` and `B·dx` per column
/// chunk, `dx` being the column's pixel-center `x` minus the splat's.
/// Every row of the splat reuses them.
#[derive(Debug, Clone, Default)]
pub(crate) struct ColumnTerms {
    /// Bits of the splat's `(mean.x, A, B)`, the only inputs besides the
    /// tile origin; `None` after a reset.
    key: Option<[u32; 3]>,
    /// The chunks whose terms are computed.
    valid: std::ops::Range<u32>,
    /// `(A·dx)·dx` per chunk.
    pub(crate) a_dx2: Vec<Lanes>,
    /// `B·dx` per chunk.
    pub(crate) b_dx: Vec<Lanes>,
}

impl ColumnTerms {
    /// Makes the terms of splat `p` valid on `chunks`, for a tile whose
    /// left edge is pixel column `x0`. Recomputes only chunks not
    /// already computed for the same `(mean.x, A, B)`.
    #[inline(always)]
    pub(crate) fn prepare(&mut self, p: &ProjectedGaussian, x0: u32, chunks: std::ops::Range<u32>) {
        let key = [
            p.mean2d.x.to_bits(),
            p.conic.0.to_bits(),
            p.conic.1.to_bits(),
        ];
        if self.key != Some(key) {
            self.key = Some(key);
            self.valid = chunks.start..chunks.start;
        }
        if chunks.start >= self.valid.start && chunks.end <= self.valid.end {
            return;
        }
        let all = if self.valid.is_empty() {
            chunks
        } else {
            chunks.start.min(self.valid.start)..chunks.end.max(self.valid.end)
        };
        for k in all.clone() {
            if self.valid.contains(&k) {
                continue;
            }
            // The pixel centers of chunk `k`, in the blend kernel's
            // original operation order: `8k < width`, so `x0 + 8k` stays
            // inside the image.
            let x_first = (x0 + k * LANES_U32) as f32 + 0.5;
            let k = usize_from_u32(k);
            let lanes = self.a_dx2[k].iter_mut().zip(&mut self.b_dx[k]);
            for ((a_dx2, b_dx), offset) in lanes.zip(LANE_OFFSETS) {
                let dx = (x_first + offset) - p.mean2d.x;
                *a_dx2 = p.conic.0 * dx * dx;
                *b_dx = p.conic.1 * dx;
            }
        }
        self.valid = all;
    }
}

/// Lane `j`'s pixel offset within its chunk.
pub(crate) const LANE_OFFSETS: Lanes = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];

impl TilePlanes {
    /// Resets the planes for a `width`×`height` tile: full transmittance
    /// over a `background`-colored block. Keeps capacity.
    pub(crate) fn reset(&mut self, width: usize, height: usize, background: Vec3) {
        self.row_chunks = width.div_ceil(LANES);
        let columns = &mut self.columns;
        columns.key = None;
        columns.a_dx2.resize(self.row_chunks, [0.0; LANES]);
        columns.b_dx.resize(self.row_chunks, [0.0; LANES]);
        let len = self.row_chunks * height;
        for (plane, value) in [
            (&mut self.t, 1.0),
            (&mut self.r, background.x),
            (&mut self.g, background.y),
            (&mut self.b, background.z),
        ] {
            plane.clear();
            plane.resize(len, [value; LANES]);
        }
    }
}

impl RasterScratch {
    /// Creates an empty scratch; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The finished pixel block of the last rasterized tile, row-major
    /// within the tile rect (empty before the first rasterization).
    pub fn pixels(&self) -> &[Vec3] {
        &self.color
    }

    /// Width in pixels of the last rasterized tile rect.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Height in pixels of the last rasterized tile rect.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Copies the finished pixel block into `image` at `tile_index`'s
    /// rect.
    ///
    /// # Panics
    ///
    /// Panics when the scratch holds no block for the tile's rect
    /// dimensions (i.e. the last rasterization used a different tile
    /// shape) or the rect is out of the image's bounds.
    pub fn blit_to(&self, image: &mut Image, grid: &TileGrid, tile_index: usize) {
        let (x0, y0, x1, y1) = grid.tile_rect_at(tile_index);
        assert!(
            self.width == usize_from_u32(x1 - x0) && self.height == usize_from_u32(y1 - y0),
            "scratch block {}x{} does not match tile rect {}x{}",
            self.width,
            self.height,
            x1 - x0,
            y1 - y0
        );
        image.blit_region(x0, y0, x1 - x0, y1 - y0, &self.color);
    }
}

/// One buffered tile block inside a [`ShardScratch`] arena.
#[derive(Debug, Clone, Copy)]
struct TileSpan {
    tile_index: usize,
    offset: usize,
    width: usize,
    height: usize,
}

/// A render worker's frame-local output: per-tile working buffers plus an
/// arena of finished tile pixel blocks.
///
/// The intra-frame parallel renderer gives each worker (shard) one
/// `ShardScratch`. Workers rasterize their tiles into the arena with
/// [`ShardScratch::rasterize`]; after all workers join, the main thread
/// replays every shard's blocks into the shared framebuffer with
/// [`ShardScratch::blit_to`] — tiles own disjoint pixel rects, so the
/// merged image is byte-identical to serial rasterization regardless of
/// how tiles were sharded. All buffers are reused across frames
/// ([`ShardScratch::begin_frame`] only resets lengths, keeping capacity).
///
/// # Examples
///
/// ```
/// use neo_math::{Vec2, Vec3};
/// use neo_pipeline::{
///     rasterize_tile_with_scratch, Image, ProjectedGaussian, RasterScratch, RenderConfig,
///     ShardScratch, TileGrid,
/// };
///
/// let grid = TileGrid::new(128, 64, 64);
/// let splat = ProjectedGaussian {
///     id: 0,
///     mean2d: Vec2::new(70.0, 30.0),
///     depth: 1.0,
///     conic: (0.02, 0.0, 0.02),
///     radius: 40.0,
///     color: Vec3::new(0.2, 0.9, 0.4),
///     opacity: 0.9,
/// };
/// let cfg = RenderConfig::default();
///
/// // A worker rasterizes both tiles into its arena...
/// let mut scratch = ShardScratch::new();
/// scratch.begin_frame();
/// scratch.rasterize(&grid, 0, &[&splat], &cfg);
/// scratch.rasterize(&grid, 1, &[&splat], &cfg);
/// assert_eq!(scratch.buffered_tiles(), 2);
///
/// // ...and the deferred merge matches blitting each tile at once.
/// let mut merged = Image::new(128, 64, Vec3::ZERO);
/// scratch.blit_to(&mut merged, &grid);
/// let mut direct = Image::new(128, 64, Vec3::ZERO);
/// let mut one_tile = RasterScratch::new();
/// for tile in 0..2 {
///     rasterize_tile_with_scratch(&mut one_tile, &grid, tile, &[&splat], &cfg);
///     one_tile.blit_to(&mut direct, &grid, tile);
/// }
/// assert_eq!(merged, direct);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ShardScratch {
    raster: RasterScratch,
    blocks: Vec<Vec3>,
    spans: Vec<TileSpan>,
}

impl ShardScratch {
    /// Creates an empty shard scratch; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets the arena for a new frame, keeping all allocated capacity.
    pub fn begin_frame(&mut self) {
        self.blocks.clear();
        self.spans.clear();
    }

    /// Rasterizes one tile and appends its finished pixel block to the
    /// arena.
    ///
    /// `ordered` must be sorted by ascending depth, exactly as for
    /// [`crate::rasterize_tile_with_scratch`].
    pub fn rasterize(
        &mut self,
        grid: &TileGrid,
        tile_index: usize,
        ordered: &[&ProjectedGaussian],
        config: &RenderConfig,
    ) -> TileRasterStats {
        let stats =
            rasterize_tile_with_scratch(&mut self.raster, grid, tile_index, ordered, config);
        let offset = self.blocks.len();
        self.blocks.extend_from_slice(self.raster.pixels());
        self.spans.push(TileSpan {
            tile_index,
            offset,
            width: self.raster.width(),
            height: self.raster.height(),
        });
        stats
    }

    /// Rasterizes one tile and immediately blits it into `image`,
    /// bypassing the deferred-merge arena.
    ///
    /// This is the serial fast path: when one thread owns the whole
    /// frame there is nothing to merge, so buffering blocks would only
    /// add a copy and retain a frame-sized arena. The working buffers
    /// are still reused across tiles and frames.
    pub fn rasterize_direct(
        &mut self,
        image: &mut Image,
        grid: &TileGrid,
        tile_index: usize,
        ordered: &[&ProjectedGaussian],
        config: &RenderConfig,
    ) -> TileRasterStats {
        let stats =
            rasterize_tile_with_scratch(&mut self.raster, grid, tile_index, ordered, config);
        self.raster.blit_to(image, grid, tile_index);
        stats
    }

    /// Number of tile blocks buffered since the last
    /// [`ShardScratch::begin_frame`].
    pub fn buffered_tiles(&self) -> usize {
        self.spans.len()
    }

    /// Copies every buffered tile block into `image`, in the order the
    /// tiles were rasterized.
    ///
    /// # Panics
    ///
    /// Panics when a buffered block's rect falls outside `image` (the
    /// grid must match the one the blocks were rasterized against).
    pub fn blit_to(&self, image: &mut Image, grid: &TileGrid) {
        for span in &self.spans {
            let (x0, y0, _, _) = grid.tile_rect_at(span.tile_index);
            let len = span.width * span.height;
            image.blit_region(
                x0,
                y0,
                // Tile dims come from u32 rects, so the round-trip through
                // usize cannot saturate.
                u32::try_from(span.width).unwrap_or(u32::MAX),
                u32::try_from(span.height).unwrap_or(u32::MAX),
                &self.blocks[span.offset..span.offset + len],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neo_math::Vec2;

    /// Rasterizes one tile with a fresh scratch and blits it.
    fn rasterize_fresh(
        image: &mut Image,
        grid: &TileGrid,
        tile_index: usize,
        ordered: &[&ProjectedGaussian],
        config: &RenderConfig,
    ) -> TileRasterStats {
        let mut scratch = RasterScratch::new();
        let stats = rasterize_tile_with_scratch(&mut scratch, grid, tile_index, ordered, config);
        scratch.blit_to(image, grid, tile_index);
        stats
    }

    fn splat(x: f32, y: f32, radius: f32) -> ProjectedGaussian {
        ProjectedGaussian {
            id: 0,
            mean2d: Vec2::new(x, y),
            depth: 1.0,
            conic: (0.02, 0.0, 0.02),
            radius,
            color: Vec3::new(0.9, 0.3, 0.1),
            opacity: 0.95,
        }
    }

    #[test]
    fn scratch_reuse_matches_a_fresh_scratch() {
        let grid = TileGrid::new(100, 70, 64); // border tiles are clipped
        let cfg = RenderConfig::default();
        let s0 = splat(60.0, 30.0, 30.0);
        let s1 = splat(70.0, 66.0, 20.0);
        let mut scratch = RasterScratch::new();
        let mut via_scratch = Image::new(100, 70, Vec3::ZERO);
        let mut direct = Image::new(100, 70, Vec3::ZERO);
        for tile in 0..grid.tile_count() {
            let a = rasterize_tile_with_scratch(&mut scratch, &grid, tile, &[&s0, &s1], &cfg);
            scratch.blit_to(&mut via_scratch, &grid, tile);
            let b = rasterize_fresh(&mut direct, &grid, tile, &[&s0, &s1], &cfg);
            assert_eq!(a, b, "tile {tile}");
        }
        assert_eq!(via_scratch, direct);
    }

    #[test]
    fn shard_arena_reuses_capacity_across_frames() {
        let grid = TileGrid::new(128, 128, 64);
        let cfg = RenderConfig::default();
        let s = splat(64.0, 64.0, 50.0);
        let mut scratch = ShardScratch::new();
        scratch.begin_frame();
        for tile in 0..grid.tile_count() {
            scratch.rasterize(&grid, tile, &[&s], &cfg);
        }
        assert_eq!(scratch.buffered_tiles(), 4);
        let cap = scratch.blocks.capacity();
        scratch.begin_frame();
        assert_eq!(scratch.buffered_tiles(), 0);
        for tile in 0..grid.tile_count() {
            scratch.rasterize(&grid, tile, &[&s], &cfg);
        }
        assert_eq!(scratch.blocks.capacity(), cap, "no per-frame reallocation");
    }

    #[test]
    fn direct_rasterization_bypasses_the_arena() {
        let grid = TileGrid::new(128, 64, 64);
        let cfg = RenderConfig::default();
        let s = splat(64.0, 32.0, 40.0);
        let mut scratch = ShardScratch::new();
        let mut via_direct = Image::new(128, 64, Vec3::ZERO);
        let a0 = scratch.rasterize_direct(&mut via_direct, &grid, 0, &[&s], &cfg);
        let a1 = scratch.rasterize_direct(&mut via_direct, &grid, 1, &[&s], &cfg);
        assert_eq!(scratch.buffered_tiles(), 0, "no blocks buffered");

        let mut direct = Image::new(128, 64, Vec3::ZERO);
        let b0 = rasterize_fresh(&mut direct, &grid, 0, &[&s], &cfg);
        let b1 = rasterize_fresh(&mut direct, &grid, 1, &[&s], &cfg);
        assert_eq!(via_direct, direct);
        assert_eq!((a0, a1), (b0, b1));
    }

    #[test]
    #[should_panic(expected = "does not match tile rect")]
    fn stale_block_shape_is_rejected() {
        let grid = TileGrid::new(100, 70, 64);
        let cfg = RenderConfig::default();
        let s = splat(30.0, 30.0, 10.0);
        let mut scratch = RasterScratch::new();
        // Rasterize the full 64x64 tile 0, then try to blit it as the
        // clipped border tile 1.
        rasterize_tile_with_scratch(&mut scratch, &grid, 0, &[&s], &cfg);
        let mut img = Image::new(100, 70, Vec3::ZERO);
        scratch.blit_to(&mut img, &grid, 1);
    }
}
