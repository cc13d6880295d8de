//! Stage ❹: tile rasterization.
//!
//! [`rasterize_tile_with_scratch`] blends one tile's depth-ordered splats;
//! `neo-core`'s `RenderSession` is the frame body that calls it.

use crate::projection::ProjectedGaussian;
use crate::scratch::{Lanes, RasterScratch, TilePlanes, LANES, LANES_U32, LANE_OFFSETS};
use crate::tiles::{subtile_bitmap, TileGrid, SUBTILE_SIZE};
use neo_math::num::usize_from_u32;
use neo_math::Vec3;

/// Transmittance below which a pixel is saturated and blending stops
/// (the 3DGS 1/255).
const TRANSMITTANCE_EPS: f32 = 1.0 / 255.0;

/// Minimum α a splat must contribute for a pixel to be blended (the
/// reference rasterizer's 1/255 cutoff). Shared by the blend kernel and
/// the cutoff-ellipse solver — they must agree bit-for-bit on this
/// constant.
const BLEND_ALPHA_CUTOFF: f32 = 1.0 / 255.0;

/// Configuration of the tile rasterizer.
#[derive(Debug, Clone, PartialEq)]
pub struct RenderConfig {
    /// Tile edge in pixels (paper: 64). The rasterizer does not read it:
    /// the tile geometry comes from the [`TileGrid`] passed alongside.
    /// It stays so that callers can keep the grid's tile size next to
    /// the other raster settings.
    pub tile_size: u32,
    /// Background color.
    pub background: Vec3,
    /// Use subtile intersection bitmaps to skip non-overlapping subtiles
    /// (GSCore/Neo behaviour). Disabling rasterizes every pixel of a tile.
    pub subtiling: bool,
    /// Use the exact-clipped row-interval fast path (default `true`):
    /// each splat's true α-cutoff ellipse (the region where
    /// `alpha_at ≥ 1/255`) is solved per row and only those pixels are
    /// visited, instead of walking every pixel of the tile per splat.
    /// Output is **byte-identical** to walking full rows — only
    /// [`TileRasterStats::pixel_visits`] changes. Disable to feed the
    /// same blend kernel full-row spans (the byte-identity baseline used
    /// by `tests/raster_parity.rs` and the `fig_raster` ablation).
    pub raster_fast_path: bool,
}

impl Default for RenderConfig {
    fn default() -> Self {
        Self {
            tile_size: 64,
            background: Vec3::ZERO,
            subtiling: true,
            raster_fast_path: true,
        }
    }
}

/// Per-tile blending outcome counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TileRasterStats {
    /// α-blend operations performed.
    pub blend_ops: u64,
    /// Pixels that saturated before exhausting the Gaussian list.
    pub saturated_pixels: u64,
    /// Gaussians whose subtile bitmap was empty (no intersection at all) —
    /// these are the "outgoing" candidates Neo's ITU flags.
    pub zero_coverage: u64,
    /// (splat, pixel) pairs the blend loop visited — the raw work metric
    /// the exact-clipped fast path reduces. This is the **only** counter
    /// allowed to differ between [`RenderConfig::raster_fast_path`] on
    /// and off; everything else (and the image) is byte-identical.
    pub pixel_visits: u64,
}

/// Rasterizes one tile into `scratch`'s reusable buffers, leaving the
/// finished pixel block in the scratch instead of writing a framebuffer.
///
/// `ordered` must be sorted by ascending depth; the function blends
/// front to back with early termination at transmittance 1/255 and
/// (optionally) subtile skipping. The caller commits the block with
/// [`RasterScratch::blit_to`] (immediately for serial rendering, or after
/// a parallel frame's workers join — the deferred merge is what makes
/// sharded rendering deterministic).
pub fn rasterize_tile_with_scratch(
    scratch: &mut RasterScratch,
    grid: &TileGrid,
    tile_index: usize,
    ordered: &[&ProjectedGaussian],
    config: &RenderConfig,
) -> TileRasterStats {
    #[expect(
        clippy::cast_possible_truncation,
        reason = "tile_index ranges over grid.tile_count(), a product of u32 tile coordinates; a valid index always fits u32"
    )]
    let tx = (tile_index as u32) % grid.tiles_x();
    #[expect(
        clippy::cast_possible_truncation,
        reason = "tile_index ranges over grid.tile_count(), a product of u32 tile coordinates; a valid index always fits u32"
    )]
    let ty = (tile_index as u32) / grid.tiles_x();
    let (x0, y0, x1, y1) = grid.tile_rect(tx, ty);
    let (tile_w, tile_h) = (x1 - x0, y1 - y0);
    let w = usize_from_u32(tile_w);
    let h = usize_from_u32(tile_h);
    scratch.width = w;
    scratch.height = h;
    scratch.planes.reset(w, h, config.background);
    scratch.row_live.clear();
    scratch.row_live.resize(h, tile_w);
    let row_bounds = &mut scratch.row_bounds;
    let mut tile = TileBlend {
        origin: (x0, y0),
        planes: &mut scratch.planes,
        row_live: &mut scratch.row_live,
        stats: TileRasterStats::default(),
        live_pixels: i64::from(tile_w) * i64::from(tile_h),
    };
    let per_edge = grid.subtiles_per_edge();
    // Without 8×8-or-smaller subtile bitmaps every chunk of a row is a
    // candidate (a wide tile's bitmap is all-or-nothing, see
    // `subtile_bitmap`).
    let use_bitmap = config.subtiling && per_edge <= 8;

    for p in ordered {
        if tile.live_pixels <= 0 {
            break;
        }
        // Degenerate-splat guard: a non-finite opacity, conic, center or
        // color makes the blend meaningless (a NaN falloff is masked to
        // α = 0.99 by the clamp, a NaN color poisons every pixel it
        // blends). Skip it in both raster paths.
        if !p.opacity.is_finite()
            || !p.conic.0.is_finite()
            || !p.conic.1.is_finite()
            || !p.conic.2.is_finite()
            || !p.mean2d.is_finite()
            || !p.color.is_finite()
        {
            continue;
        }
        let bitmap = if config.subtiling {
            let bm = subtile_bitmap(grid, tx, ty, p.mean2d, p.radius);
            if bm == 0 {
                tile.stats.zero_coverage += 1;
                continue;
            }
            bm
        } else {
            u64::MAX
        };
        let run = |row: u32| {
            if use_bitmap {
                subtile_run(bitmap, per_edge, row)
            } else {
                0..u32::MAX
            }
        };

        if config.raster_fast_path {
            // Exact-clipped spans: only the pixels inside the splat's
            // (conservatively widened) α-cutoff ellipse, row by row,
            // skipping rows whose pixels have all saturated.
            let Some(ellipse) = CutoffEllipse::new(p, (x0, y0, x1, y1)) else {
                continue;
            };
            // Solve every candidate row before blending any: the solves
            // are independent, so their f64 square roots and divisions
            // overlap instead of stalling each row in turn.
            ellipse.solve_rows(row_bounds);
            for (py, &bounds) in (ellipse.y_lo..).zip(row_bounds.iter()) {
                let row = py - y0;
                if tile.row_live[usize_from_u32(row)] == 0 {
                    continue;
                }
                let (lo, hi) = row_span(bounds, x0, x1);
                if lo < hi {
                    tile.blend_row_span(p, row, lo - x0..hi - x0, run(row));
                }
            }
        } else {
            // Full rows through the same kernel: every pixel of the tile,
            // every splat (the byte-identity baseline).
            for row in 0..tile_h {
                tile.blend_row_span(p, row, 0..tile_w, run(row));
            }
        }
    }
    let stats = tile.stats;

    // Interleave the planes into the pixel block, compositing over the
    // background with the transmittance left. The planes started at the
    // background color, so subtract it once and add back its
    // transmitted share.
    let bg = config.background;
    let planes = &scratch.planes;
    scratch.color.clear();
    scratch.color.resize(w * h, Vec3::ZERO);
    let chunks = planes.t.iter().zip(&planes.r).zip(&planes.g).zip(&planes.b);
    let out_chunks = scratch
        .color
        .chunks_exact_mut(w)
        .flat_map(|row| row.chunks_mut(LANES));
    for (out, (((t, r), g), b)) in out_chunks.zip(chunks) {
        for (j, pixel) in out.iter_mut().enumerate() {
            *pixel = Vec3::new(
                r[j] - bg.x + bg.x * t[j],
                g[j] - bg.y + bg.y * t[j],
                b[j] - bg.z + bg.z * t[j],
            );
        }
    }
    stats
}

/// The chunk-index run (`[first, last + 1)` of 8-pixel columns) of
/// `bitmap`'s bits in tile row `row`. A splat's disk meets a contiguous
/// run of each subtile row (the circle–rectangle distance is monotone
/// in the column's distance from the center; pinned by
/// `tests/property_pipeline.rs`), so the run is the row's whole bitmap.
fn subtile_run(bitmap: u64, per_edge: u32, row: u32) -> std::ops::Range<u32> {
    let bits = (bitmap >> ((row / SUBTILE_SIZE) * per_edge)) & ((1u64 << per_edge) - 1);
    bits.trailing_zeros()..u64::BITS - bits.leading_zeros()
}

/// One tile's blend state: the planar buffers borrowed from the scratch
/// plus the counters the kernel maintains.
struct TileBlend<'a> {
    origin: (u32, u32),
    planes: &'a mut TilePlanes,
    /// Per-row count of not-yet-saturated pixels.
    row_live: &'a mut [u32],
    stats: TileRasterStats,
    live_pixels: i64,
}

impl TileBlend<'_> {
    /// Blends splat `p` over the pixels `span` (tile-relative columns) of
    /// tile row `row`, restricted to the chunks in `run` (the row's
    /// subtile-bitmap run, in chunk indices).
    ///
    /// This is the single blend path of both raster modes: the full-row
    /// loop calls it with `0..width`, the fast path with the clipped
    /// α-cutoff interval. The span is walked in tile-aligned 8-pixel
    /// chunks and every lane computes its pixel from `(p, px, py)` alone,
    /// so a pixel's value never depends on where its span starts. The
    /// exponent's column half comes from the planes'
    /// [`ColumnTerms`](crate::scratch::ColumnTerms), which recompute only
    /// for a new splat or a chunk not yet covered, so each row reuses
    /// them.
    #[inline(always)]
    fn blend_row_span(
        &mut self,
        p: &ProjectedGaussian,
        row: u32,
        span: std::ops::Range<u32>,
        run: std::ops::Range<u32>,
    ) {
        self.stats.pixel_visits += u64::from(span.end - span.start);
        let first = (span.start / LANES_U32).max(run.start);
        let last = span.end.div_ceil(LANES_U32).min(run.end);
        if first >= last {
            return;
        }
        let (x0, y0) = self.origin;
        let dy = (y0 + row) as f32 + 0.5 - p.mean2d.y;
        let terms = RowTerms {
            dy,
            c_dy2: p.conic.2 * dy * dy,
        };
        let planes = &mut *self.planes;
        planes.columns.prepare(p, x0, first..last);
        let cols = usize_from_u32(first)..usize_from_u32(last);
        let row = usize_from_u32(row);
        let base = row * planes.row_chunks;
        let chunks = base + cols.start..base + cols.end;
        let columns = planes.columns.a_dx2[cols.clone()]
            .iter()
            .zip(&planes.columns.b_dx[cols]);
        let chunk_refs = planes.t[chunks.clone()]
            .iter_mut()
            .zip(&mut planes.r[chunks.clone()])
            .zip(&mut planes.g[chunks.clone()])
            .zip(&mut planes.b[chunks]);
        // Per-lane counters, summed once per row.
        let mut counts = [[0u32; LANES]; 2];
        for ((k, (a_dx2, b_dx)), (((t, r), g), b)) in (first..).zip(columns).zip(chunk_refs) {
            let chunk_x = k * LANES_U32;
            let lanes = (
                span.start.saturating_sub(chunk_x) as f32,
                (span.end - chunk_x).min(LANES_U32) as f32,
            );
            // Blend a local copy: writing through the `&mut` chunk
            // references instead keeps rustc from vectorizing the body.
            let mut px = [*t, *r, *g, *b];
            let columns = (a_dx2, b_dx);
            if span.start <= chunk_x && chunk_x + LANES_U32 <= span.end {
                blend_chunk::<false>(p, &terms, columns, lanes, &mut px, &mut counts);
            } else {
                blend_chunk::<true>(p, &terms, columns, lanes, &mut px, &mut counts);
            }
            [*t, *r, *g, *b] = px;
        }
        // Summed by hand: `counts.map(..)` compiles to an out-of-line
        // call per row.
        let [mut blends, mut sats] = [0u32; 2];
        for (&b, &s) in counts[0].iter().zip(&counts[1]) {
            blends += b;
            sats += s;
        }
        self.stats.blend_ops += u64::from(blends);
        self.stats.saturated_pixels += u64::from(sats);
        self.row_live[row] -= sats;
        self.live_pixels -= i64::from(sats);
    }
}

const _: () = assert!(LANES_U32 == SUBTILE_SIZE);

/// The clamp the reference rasterizer applies to α.
const ALPHA_MAX: f32 = 0.99;

/// Per-row terms of the falloff exponent, hoisted out of the chunk loop.
struct RowTerms {
    /// Pixel-center `y` minus the splat center `y`.
    dy: f32,
    /// `C·dy·dy`, the row-constant part of the quadratic form.
    c_dy2: f32,
}

/// All-ones when `b` holds, else zero: a lane mask.
#[inline(always)]
fn mask(b: bool) -> u32 {
    if b {
        u32::MAX
    } else {
        0
    }
}

/// The bits of `−0.0`: the one addend that leaves every `f32` unchanged,
/// `−0.0` itself included (`−0.0 + +0.0` is `+0.0`).
const NEG_ZERO_BITS: u32 = 0x8000_0000;

/// Blends splat `p` over one tile-aligned chunk `px = [T, r, g, b]` of a
/// row, given the chunk's `columns = (A·dx·dx, B·dx)` from
/// [`ColumnTerms`](crate::scratch::ColumnTerms). An `EDGE` chunk blends
/// only its lanes in `[lanes.0, lanes.1)`; any other chunk lies wholly
/// inside the span and skips that test. Branch-free so rustc vectorizes
/// it on baseline x86-64. Adds each lane's blend and saturation to
/// `counts = [blend_ops, saturated_pixels]`.
///
/// Dead lanes are masked by products, not selects: their α is ANDed to
/// `+0.0`, so `T` is multiplied by exactly `1.0`, and each color product
/// is ANDed away and replaced by `−0.0` before it is added. A NaN or
/// infinite color therefore never reaches a dead lane (`NaN · 0` is
/// `NaN`, but the AND clears it), and every plane value, `−0.0`
/// included, comes out bit-identical to leaving the lane alone.
#[inline(always)]
fn blend_chunk<const EDGE: bool>(
    p: &ProjectedGaussian,
    row: &RowTerms,
    columns: (&Lanes, &Lanes),
    lanes: (f32, f32),
    px: &mut [Lanes; 4],
    counts: &mut [[u32; LANES]; 2],
) {
    let [t, r, g, b] = px;
    let [blends, sats] = counts;
    for j in 0..LANES {
        // The falloff exponent, in `ProjectedGaussian::falloff`'s
        // operation order, from its column and row halves.
        let power = -0.5 * (columns.0[j] + row.c_dy2) - columns.1[j] * row.dy;
        let a = p.opacity * exp_nonpositive(power);
        let alpha = if a < ALPHA_MAX { a } else { ALPHA_MAX };
        let tj = t[j];
        let in_span = !EDGE || (LANE_OFFSETS[j] >= lanes.0) & (LANE_OFFSETS[j] < lanes.1);
        let live = mask(in_span & (tj >= TRANSMITTANCE_EPS) & (alpha >= BLEND_ALPHA_CUTOFF));
        let alpha = f32::from_bits(alpha.to_bits() & live);
        let weight = alpha * tj;
        let nt = tj * (1.0 - alpha);
        let dead = !live & NEG_ZERO_BITS;
        r[j] += f32::from_bits(((p.color.x * weight).to_bits() & live) | dead);
        g[j] += f32::from_bits(((p.color.y * weight).to_bits() & live) | dead);
        b[j] += f32::from_bits(((p.color.z * weight).to_bits() & live) | dead);
        t[j] = nt;
        blends[j] += live & 1;
        sats[j] += live & mask(nt < TRANSMITTANCE_EPS) & 1;
    }
}

/// Lower clamp on [`exp_nonpositive`]'s argument: `exp(−87) ≈ 1.6e-38`
/// is still a normal `f32`, and `2ⁿ` with `n = round(−87·log₂e) = −126`
/// is the smallest normal power of two.
const EXP_MIN_ARG: f32 = -87.0;

/// `1.5·2²³ + 127`: adding it rounds `x·log₂e` to the nearest integer `n`
/// (the float's ulp is 1 there) and leaves `n + 127` — the biased
/// exponent of `2ⁿ` — in the low mantissa bits.
const EXP_ROUND_MAGIC: f32 = 12_583_039.0;

/// `ln 2` split so `n·LN2_HI` is exact for `|n| ≤ 126` (Cody–Waite).
const LN2_HI: f32 = 0.693_359_4;
const LN2_LO: f32 = -2.121_944_4e-4;

/// `exp(min(power, 0))` without libm, for the blend kernel.
///
/// Range reduction `x = n·ln 2 + r`, `|r| ≤ ½ln 2`, with magic-number
/// rounding (`f32::round` is a libm call on baseline x86-64), then
/// `exp(r) ≈ 1 + r + r²·q(r)` with `q` a cubic fitted for minimax
/// relative error (1.05e-7 in exact arithmetic), scaled by `2ⁿ` built
/// from the exponent bits. Over every `f32` in `[−30, 0]` the result is
/// within 2 ulp of libm `expf` and within 1.9e-7 relative of the exact
/// value. `power > 0` (a tiny PSD violation) and `NaN` yield exactly
/// `1.0`; the argument is clamped to [`EXP_MIN_ARG`], so the result is
/// never subnormal.
#[inline(always)]
fn exp_nonpositive(power: f32) -> f32 {
    let x = if power < 0.0 { power } else { 0.0 };
    let x = if x > EXP_MIN_ARG { x } else { EXP_MIN_ARG };
    let k = x * std::f32::consts::LOG2_E + EXP_ROUND_MAGIC;
    let n = k - EXP_ROUND_MAGIC;
    let r = (x - n * LN2_HI) - n * LN2_LO;
    let mut q = 8.312_525e-3;
    q = q * r + 4.189_011_5e-2;
    q = q * r + 1.666_711_4e-1;
    q = q * r + 4.999_923e-1;
    let e = q * r * r + r + 1.0;
    // The exponent field of `k` shifts out; `n + 127` lands in bits 23..31.
    e * f32::from_bits(k.to_bits() << 23)
}

/// Relative deflation of the conic used when widening the cutoff ellipse.
///
/// The blend loop evaluates the falloff exponent in `f32`; its absolute
/// rounding error is bounded by a small multiple of `f32::EPSILON` times
/// the magnitude of the quadratic-form terms `A·dx² + C·dy²` (≈ 10
/// roundings of intermediates no larger than 1.5× that sum). Shrinking
/// `A` and `C` by `2·KAPPA` widens the accepted region by exactly
/// `KAPPA`× those terms — a margin that *scales with* the evaluation
/// error instead of guessing a constant, with ~4× headroom over the
/// worst-case bound (10 × 2⁻²⁴ × 1.5 ≈ 9e-7).
const CUTOFF_KAPPA: f64 = 4e-6;

/// Absolute slack added to the log-opacity budget `τ = ln(255·opacity)`,
/// covering the polynomial `exp` error and multiply rounding on the blend
/// side (≲ 3e-7 relative, so ≲ 1e-6 in the log domain) with two orders
/// of magnitude to spare.
const CUTOFF_TAU_SLACK: f64 = 1e-4;

/// Extra pixels added on every side of the solved interval. The interval
/// endpoints are computed in `f64` (error ≪ 1 px); one pixel of slack
/// absorbs the floor/ceil edge cases outright.
const CUTOFF_PX_SLACK: f64 = 1.0;

/// The screen region where one splat can possibly blend, solved exactly
/// from its conic and opacity (then conservatively widened).
///
/// A pixel at center `q` blends iff `alpha_at(q) ≥ 1/255`, i.e. iff the
/// quadratic form `Q(d) = ½(A·dx² + C·dy²) + B·dx·dy` of `d = q − mean`
/// satisfies `Q(d) ≤ τ` with `τ = ln(255·opacity)`. Note the conservative
/// 3σ `radius` used for binning is *not* a valid clip for this: at 3σ the
/// falloff is `exp(−4.5) ≈ 2.8/255`, so a high-opacity splat still blends
/// well outside it. This solver instead widens the *exact* ellipse by
/// margins dominating the `f32` evaluation error of the blend kernel
/// (see [`CUTOFF_KAPPA`]), so the row spans it yields are a strict
/// superset of the pixels a full-row walk would blend — that superset
/// property is what makes the fast path byte-identical.
struct CutoffEllipse {
    cx: f64,
    cy: f64,
    /// Deflated conic `(a, b, c)` for `[[a, b], [b, c]]`.
    a: f64,
    b: f64,
    /// `b² − a·c` (negative for a bounded ellipse), cached for row solves.
    b2_minus_ac: f64,
    /// `2τ` with slack applied.
    two_tau: f64,
    /// First candidate row (clamped to the tile rect).
    y_lo: u32,
    /// One past the last candidate row.
    y_hi: u32,
    /// No bounded ellipse: fall back to full rows.
    full_span: bool,
}

impl CutoffEllipse {
    /// Builds the solver for one splat over the tile rect
    /// `(x0, y0, x1, y1)`. Returns `None` when no pixel can reach the
    /// α cutoff (opacity below 1/255 — the blended α can never round
    /// above the opacity itself).
    fn new(p: &ProjectedGaussian, rect: (u32, u32, u32, u32)) -> Option<Self> {
        let (_, y0, _, y1) = rect;
        if p.opacity < BLEND_ALPHA_CUTOFF {
            return None;
        }
        let scale = 1.0 - 2.0 * CUTOFF_KAPPA;
        let a = scale * p.conic.0 as f64;
        let b = p.conic.1 as f64;
        let c = scale * p.conic.2 as f64;
        let cx = p.mean2d.x as f64;
        let cy = p.mean2d.y as f64;
        let tau = (p.opacity as f64 * 255.0).ln() + CUTOFF_TAU_SLACK;
        let det = a * c - b * b;
        // Beyond `τ = −EXP_MIN_ARG` the kernel's clamped `exp` floor
        // alone could pass the cutoff, so no ellipse bounds the blend.
        let bounded = det > 0.0 && a > 0.0 && c > 0.0 && tau < -f64::from(EXP_MIN_ARG);
        if !bounded {
            // Indefinite or near-degenerate conic (hand-built splats,
            // |B|² ≈ A·C within the deflation margin) or an absurd
            // opacity: no bounded ellipse exists, so degrade to full
            // rows for this splat. Conservative by construction.
            return Some(Self {
                cx,
                cy,
                a,
                b,
                b2_minus_ac: 0.0,
                two_tau: 0.0,
                y_lo: y0,
                y_hi: y1,
                full_span: true,
            });
        }
        // Extremal dy on the ellipse boundary: dy² ≤ 2τ·a / (a·c − b²).
        let dy_max = (2.0 * tau * a / det).sqrt() + CUTOFF_PX_SLACK;
        let y_lo = floor_clamped(cy - 0.5 - dy_max, y0, y1);
        let y_hi = ceil_plus_one_clamped(cy - 0.5 + dy_max, y_lo, y1);
        Some(Self {
            cx,
            cy,
            a,
            b,
            b2_minus_ac: b * b - a * c,
            two_tau: 2.0 * tau,
            y_lo,
            y_hi,
            full_span: false,
        })
    }

    /// Solves every candidate row `y_lo..y_hi` into `out`: the row's
    /// pixel span as unclamped `[lo, hi]` bounds, which [`row_span`]
    /// turns into pixels.
    ///
    /// Solves `a·dx² + 2b·dy·dx + (c·dy² − 2τ) ≤ 0` for each row's fixed
    /// `dy`, then widens by [`CUTOFF_PX_SLACK`] on both sides. A row that
    /// misses the ellipse gets `[+∞, −∞]` (an empty span). No bounded
    /// ellipse, or an overflowed discriminant, gets `[−∞, +∞]` (the full
    /// row): the solve is meaningless there, so degrade rather than risk
    /// clipping a pixel. The rows are independent, so their square roots
    /// and divisions overlap.
    fn solve_rows(&self, out: &mut Vec<[f64; 2]>) {
        const EMPTY: [f64; 2] = [f64::INFINITY, f64::NEG_INFINITY];
        const FULL: [f64; 2] = [f64::NEG_INFINITY, f64::INFINITY];
        out.clear();
        let rows = self.y_lo..self.y_hi;
        if self.full_span {
            out.extend(rows.map(|_| FULL));
            return;
        }
        let two_tau_a = self.two_tau * self.a;
        out.extend(rows.map(|py| {
            let dy = f64::from(py) + 0.5 - self.cy;
            let disc = self.b2_minus_ac * dy * dy + two_tau_a;
            let half = disc.sqrt();
            let mid = -self.b * dy;
            let dx_lo = (mid - half) / self.a;
            let dx_hi = (mid + half) / self.a;
            let lo = self.cx + dx_lo - 0.5 - CUTOFF_PX_SLACK;
            let hi = self.cx + dx_hi - 0.5 + CUTOFF_PX_SLACK;
            if disc > 0.0 && disc < f64::INFINITY {
                [lo, hi]
            } else if disc <= 0.0 {
                EMPTY
            } else {
                FULL
            }
        }));
    }
}

/// The candidate pixel span `[lo, hi)` of a row solved by
/// [`CutoffEllipse::solve_rows`], clamped to the tile's `[x0, x1)`;
/// empty (`lo ≥ hi`) when the row misses the ellipse.
#[inline(always)]
fn row_span(bounds: [f64; 2], x0: u32, x1: u32) -> (u32, u32) {
    let lo = floor_clamped(bounds[0], x0, x1);
    (lo, ceil_plus_one_clamped(bounds[1], lo, x1))
}

/// `v` clamped into `[lo, hi]` by two compares (no bound check, unlike
/// `f64::clamp`). A NaN `v` clamps to `lo`.
#[inline(always)]
fn clamp_f64(v: f64, lo: f64, hi: f64) -> f64 {
    let v = if v > lo { v } else { lo };
    if v < hi {
        v
    } else {
        hi
    }
}

/// `v.floor()` clamped into `[lo, hi]`, without the libm `floor` call
/// (baseline x86-64 has no SSE4.1 `roundsd`). Clamping first is exact:
/// the bounds are integers, and a clamped value is non-negative, where
/// truncation is floor.
#[inline(always)]
#[expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "f64->u32 of a value clamped into [lo, hi], both u32 bounds; truncating a non-negative value is floor and floats have no try_from"
)]
fn floor_clamped(v: f64, lo: u32, hi: u32) -> u32 {
    clamp_f64(v, f64::from(lo), f64::from(hi)) as u32
}

/// `(v.ceil() + 1)` clamped into `[lo, hi]`, without the libm `ceil`
/// call. Clamping `v` into `[lo − 1, hi]` first cannot change the result
/// (the bounds are integers), and on that range `ceil` is truncation
/// plus one when truncation lost a fraction.
#[inline(always)]
fn ceil_plus_one_clamped(v: f64, lo: u32, hi: u32) -> u32 {
    let v = clamp_f64(v, f64::from(lo) - 1.0, f64::from(hi));
    #[expect(
        clippy::cast_possible_truncation,
        reason = "f64->i64 of a value clamped into [lo - 1, hi] with u32 bounds: exact and in range, and floats have no try_from"
    )]
    let t = v as i64;
    let ceil = if (t as f64) < v { t + 1 } else { t };
    u32::try_from((ceil + 1).clamp(i64::from(lo), i64::from(hi))).unwrap_or(hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framebuffer::Image;
    use neo_math::Vec2;

    /// Rasterizes one tile and blits it into a fresh `w`×`h` image.
    fn raster_one(
        grid: &TileGrid,
        ordered: &[&ProjectedGaussian],
        config: &RenderConfig,
    ) -> (Image, TileRasterStats) {
        let mut scratch = RasterScratch::new();
        let stats = rasterize_tile_with_scratch(&mut scratch, grid, 0, ordered, config);
        let mut image = Image::new(grid.width, grid.height, config.background);
        scratch.blit_to(&mut image, grid, 0);
        (image, stats)
    }

    // Whole-scene fast-vs-full-row parity lives in `tests/raster_parity.rs`
    // (run in debug and release by CI); the unit tests below pin the
    // solver's edge cases close to the code.

    #[test]
    fn fast_path_covers_low_opacity_and_cutoff_edge() {
        // Opacity exactly at, just below, and far above the 1/255 cutoff:
        // the interval solver's skip logic must agree with the legacy
        // per-pixel comparison bit-for-bit.
        let grid = TileGrid::new(64, 64, 64);
        for opacity in [1.0 / 255.0, 0.95 / 255.0, 0.0, 0.999, 2.0] {
            let splat = ProjectedGaussian {
                id: 0,
                mean2d: Vec2::new(31.5, 31.5),
                depth: 1.0,
                conic: (0.5, 0.0, 0.5),
                radius: 10.0,
                color: Vec3::ONE,
                opacity,
            };
            let legacy_cfg = RenderConfig {
                raster_fast_path: false,
                ..Default::default()
            };
            let (legacy_img, legacy) = raster_one(&grid, &[&splat], &legacy_cfg);
            let (fast_img, fast) = raster_one(&grid, &[&splat], &RenderConfig::default());
            assert_eq!(legacy_img, fast_img, "opacity={opacity}");
            assert_eq!(legacy.blend_ops, fast.blend_ops, "opacity={opacity}");
            assert_eq!(legacy.saturated_pixels, fast.saturated_pixels);
        }
    }

    #[test]
    fn non_finite_splats_are_skipped_in_both_paths() {
        // A NaN opacity used to be masked to α = 0.99 by the `min` clamp
        // (Rust's `min` returns the non-NaN operand), blending a garbage
        // splat over the whole tile; non-finite conics likewise, and a
        // non-finite color writes NaN into every pixel it blends. Both
        // raster paths must skip such splats entirely.
        let grid = TileGrid::new(64, 64, 64);
        let good = ProjectedGaussian {
            id: 0,
            mean2d: Vec2::new(30.0, 30.0),
            depth: 1.0,
            conic: (0.05, 0.0, 0.05),
            radius: 20.0,
            color: Vec3::new(0.9, 0.2, 0.1),
            opacity: 0.9,
        };
        let poisoned = [
            ProjectedGaussian {
                opacity: f32::NAN,
                ..good
            },
            ProjectedGaussian {
                opacity: f32::INFINITY,
                ..good
            },
            ProjectedGaussian {
                conic: (f32::NAN, 0.0, 0.05),
                ..good
            },
            ProjectedGaussian {
                conic: (0.05, f32::NEG_INFINITY, 0.05),
                ..good
            },
            ProjectedGaussian {
                mean2d: Vec2::new(f32::NAN, 30.0),
                ..good
            },
            ProjectedGaussian {
                color: Vec3::new(0.9, f32::NAN, 0.1),
                ..good
            },
            ProjectedGaussian {
                color: Vec3::new(f32::INFINITY, 0.2, f32::NEG_INFINITY),
                ..good
            },
        ];
        for fast in [true, false] {
            let cfg = RenderConfig {
                raster_fast_path: fast,
                ..Default::default()
            };
            let (clean, clean_stats) = raster_one(&grid, &[&good], &cfg);
            for (i, bad) in poisoned.iter().enumerate() {
                // Poisoned splat in front: must not affect the result.
                let (img, stats) = raster_one(&grid, &[bad, &good], &cfg);
                assert_eq!(img, clean, "poisoned splat {i} leaked (fast={fast})");
                assert_eq!(
                    stats.blend_ops, clean_stats.blend_ops,
                    "poisoned splat {i} blended (fast={fast})"
                );
                assert!(img.pixels().iter().all(|p| p.is_finite()));
            }
        }
    }

    #[test]
    fn nan_color_never_leaks_outside_its_span() {
        // The guard keeps non-finite colors out of the kernel, so drive
        // the kernel directly: dead lanes must be selected, never
        // multiplied by a 0/1 mask (`NaN · 0` is `NaN`). A NaN-colored
        // splat blended over part of one row, on top of a good splat,
        // must leave every lane outside that span bit-identical.
        let grid = TileGrid::new(32, 32, 32);
        let good = ProjectedGaussian {
            id: 0,
            mean2d: Vec2::new(16.0, 16.0),
            depth: 1.0,
            conic: (0.02, 0.0, 0.02),
            radius: 30.0,
            color: Vec3::new(0.9, 0.2, 0.1),
            opacity: 0.9,
        };
        let poisoned = ProjectedGaussian {
            color: Vec3::new(f32::NAN, f32::NAN, f32::NAN),
            ..good
        };
        let mut scratch = RasterScratch::new();
        rasterize_tile_with_scratch(&mut scratch, &grid, 0, &[&good], &RenderConfig::default());
        let before = scratch.planes.clone();
        let (row, span) = (16u32, 3u32..13);
        let mut tile = TileBlend {
            origin: (0, 0),
            planes: &mut scratch.planes,
            row_live: &mut scratch.row_live,
            stats: TileRasterStats::default(),
            live_pixels: 32 * 32,
        };
        tile.blend_row_span(&poisoned, row, span.clone(), 0..u32::MAX);
        assert_eq!(tile.stats.blend_ops, 10, "the span itself blends");

        let after = &scratch.planes;
        let row_chunks = after.row_chunks;
        let planes = [
            (&before.t, &after.t),
            (&before.r, &after.r),
            (&before.g, &after.g),
            (&before.b, &after.b),
        ];
        for (plane, (old, new)) in planes.iter().enumerate() {
            for (i, (old, new)) in old.iter().zip(new.iter()).enumerate() {
                for (j, (o, n)) in old.iter().zip(new).enumerate() {
                    let y = i / row_chunks;
                    let x = (i % row_chunks) * LANES + j;
                    let inside = y == usize_from_u32(row)
                        && (usize_from_u32(span.start)..usize_from_u32(span.end)).contains(&x);
                    if inside {
                        assert!(plane == 0 || n.is_nan(), "({x}, {y}) was not blended");
                    } else {
                        assert_eq!(o.to_bits(), n.to_bits(), "plane {plane} lane ({x}, {y})");
                    }
                }
            }
        }
    }

    #[test]
    fn polynomial_exp_tracks_f64_exp() {
        // Relative error against the exact exponential on [-30, 0],
        // sampled every 1e-4.
        let steps = 300_000u32;
        for i in 0..=steps {
            let x = -30.0 * (f64::from(i) / f64::from(steps));
            let x = x as f32;
            let exact = f64::from(x).exp();
            let got = f64::from(exp_nonpositive(x));
            let rel = ((got - exact) / exact).abs();
            assert!(rel <= 1e-6, "exp({x}) = {got}, exact {exact}, rel {rel:e}");
        }
    }

    #[test]
    fn polynomial_exp_is_one_above_zero_and_never_subnormal() {
        for power in [
            0.0,
            -0.0,
            f32::MIN_POSITIVE,
            1e-7,
            0.5,
            3.0,
            f32::MAX,
            f32::INFINITY,
        ] {
            assert_eq!(
                exp_nonpositive(power).to_bits(),
                1.0f32.to_bits(),
                "power={power}"
            );
        }
        let extremes = [
            -86.9,
            -87.0,
            -87.5,
            -88.0,
            -100.0,
            -1e10,
            f32::MIN,
            f32::NEG_INFINITY,
        ];
        let sweep = (0..=20_000u16).map(|i| -0.01 * f32::from(i));
        for x in sweep.chain(extremes) {
            let e = exp_nonpositive(x);
            assert!(e.is_normal(), "exp({x}) = {e:e} is not a normal float");
        }
    }

    /// The parent's select-based blend kernel, cutoff-ellipse row solver
    /// and subtile bitmap, frozen verbatim (only renamed) so the rewritten
    /// ones can be held to them bit for bit.
    mod frozen {
        use super::super::{
            CutoffEllipse, RowTerms, ALPHA_MAX, BLEND_ALPHA_CUTOFF, CUTOFF_KAPPA, CUTOFF_PX_SLACK,
            CUTOFF_TAU_SLACK, EXP_MIN_ARG, TRANSMITTANCE_EPS,
        };
        use crate::projection::ProjectedGaussian;
        use crate::scratch::{Lanes, LANES, LANE_OFFSETS};
        use crate::tiles::{TileGrid, SUBTILE_SIZE};
        use neo_math::Vec2;

        fn mask(b: bool) -> u32 {
            if b {
                u32::MAX
            } else {
                0
            }
        }

        fn select(mask: u32, a: f32, b: f32) -> f32 {
            f32::from_bits((a.to_bits() & mask) | (b.to_bits() & !mask))
        }

        pub(super) fn blend_chunk(
            p: &ProjectedGaussian,
            row: &RowTerms,
            x_first: f32,
            lanes: (f32, f32),
            px: &mut [Lanes; 4],
            counts: &mut [[u32; LANES]; 2],
        ) {
            let [t, r, g, b] = px;
            let [blends, sats] = counts;
            for j in 0..LANES {
                let dx = (x_first + LANE_OFFSETS[j]) - p.mean2d.x;
                let power = -0.5 * (p.conic.0 * dx * dx + row.c_dy2) - p.conic.1 * dx * row.dy;
                let a = p.opacity * super::super::exp_nonpositive(power);
                let alpha = if a < ALPHA_MAX { a } else { ALPHA_MAX };
                let tj = t[j];
                let in_span = (LANE_OFFSETS[j] >= lanes.0) & (LANE_OFFSETS[j] < lanes.1);
                let live =
                    mask(in_span & (tj >= TRANSMITTANCE_EPS) & (alpha >= BLEND_ALPHA_CUTOFF));
                let weight = alpha * tj;
                let nt = tj * (1.0 - alpha);
                r[j] = select(live, r[j] + p.color.x * weight, r[j]);
                g[j] = select(live, g[j] + p.color.y * weight, g[j]);
                b[j] = select(live, b[j] + p.color.z * weight, b[j]);
                t[j] = select(live, nt, tj);
                blends[j] += live & 1;
                sats[j] += live & mask(nt < TRANSMITTANCE_EPS) & 1;
            }
        }

        pub(super) fn cutoff_ellipse(
            p: &ProjectedGaussian,
            rect: (u32, u32, u32, u32),
        ) -> Option<CutoffEllipse> {
            let (_, y0, _, y1) = rect;
            if p.opacity < BLEND_ALPHA_CUTOFF {
                return None;
            }
            let scale = 1.0 - 2.0 * CUTOFF_KAPPA;
            let a = scale * p.conic.0 as f64;
            let b = p.conic.1 as f64;
            let c = scale * p.conic.2 as f64;
            let cx = p.mean2d.x as f64;
            let cy = p.mean2d.y as f64;
            let tau = (p.opacity as f64 * 255.0).ln() + CUTOFF_TAU_SLACK;
            let det = a * c - b * b;
            let bounded = det > 0.0 && a > 0.0 && c > 0.0 && tau < -f64::from(EXP_MIN_ARG);
            if !bounded {
                return Some(CutoffEllipse {
                    cx,
                    cy,
                    a,
                    b,
                    b2_minus_ac: 0.0,
                    two_tau: 0.0,
                    y_lo: y0,
                    y_hi: y1,
                    full_span: true,
                });
            }
            let dy_max = (2.0 * tau * a / det).sqrt() + CUTOFF_PX_SLACK;
            let y_lo = floor_clamped(cy - 0.5 - dy_max, y0, y1);
            let y_hi = ceil_plus_one_clamped(cy - 0.5 + dy_max, y_lo, y1);
            Some(CutoffEllipse {
                cx,
                cy,
                a,
                b,
                b2_minus_ac: b * b - a * c,
                two_tau: 2.0 * tau,
                y_lo,
                y_hi,
                full_span: false,
            })
        }

        pub(super) fn row_span(e: &CutoffEllipse, py: u32, x0: u32, x1: u32) -> Option<(u32, u32)> {
            if e.full_span {
                return Some((x0, x1));
            }
            let dy = py as f64 + 0.5 - e.cy;
            let disc = e.b2_minus_ac * dy * dy + e.two_tau * e.a;
            if disc <= 0.0 {
                return None;
            }
            if !disc.is_finite() {
                return Some((x0, x1));
            }
            let half = disc.sqrt();
            let mid = -e.b * dy;
            let dx_lo = (mid - half) / e.a;
            let dx_hi = (mid + half) / e.a;
            let lo = floor_clamped(e.cx + dx_lo - 0.5 - CUTOFF_PX_SLACK, x0, x1);
            let hi = ceil_plus_one_clamped(e.cx + dx_hi - 0.5 + CUTOFF_PX_SLACK, lo, x1);
            (lo < hi).then_some((lo, hi))
        }

        #[expect(
            clippy::cast_sign_loss,
            reason = "the parent's f64->u32 of a value clamped into [lo, hi], frozen as it was"
        )]
        fn floor_clamped(v: f64, lo: u32, hi: u32) -> u32 {
            v.clamp(f64::from(lo), f64::from(hi)) as u32
        }

        fn ceil_plus_one_clamped(v: f64, lo: u32, hi: u32) -> u32 {
            let v = v.clamp(f64::from(lo) - 1.0, f64::from(hi));
            let t = v as i64;
            let ceil = if (t as f64) < v { t + 1 } else { t };
            u32::try_from((ceil + 1).clamp(i64::from(lo), i64::from(hi))).unwrap_or(hi)
        }

        pub(super) fn subtile_bitmap(
            grid: &TileGrid,
            tx: u32,
            ty: u32,
            center: Vec2,
            radius: f32,
        ) -> u64 {
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
            let mut bitmap = 0u64;
            let mut bit = 0u32;
            for sy in 0..per_edge {
                for sx in 0..per_edge {
                    if bit >= 64 {
                        return bitmap;
                    }
                    let sx0 = (x0 + sx * SUBTILE_SIZE) as f32;
                    let sy0 = (y0 + sy * SUBTILE_SIZE) as f32;
                    let sx1 = ((x0 + (sx + 1) * SUBTILE_SIZE).min(x1)) as f32;
                    let sy1 = ((y0 + (sy + 1) * SUBTILE_SIZE).min(y1)) as f32;
                    if sx1 <= sx0 || sy1 <= sy0 {
                        bit += 1;
                        continue;
                    }
                    let cx = center.x.clamp(sx0, sx1);
                    let cy = center.y.clamp(sy0, sy1);
                    let dx = center.x - cx;
                    let dy = center.y - cy;
                    if dx * dx + dy * dy <= radius * radius {
                        bitmap |= 1u64 << bit;
                    }
                    bit += 1;
                }
            }
            bitmap
        }
    }

    /// SplitMix64: a fixed, dependency-free stream for the frozen-kernel
    /// comparisons.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform in `[0, 1)`.
        fn unit(&mut self) -> f32 {
            (self.next() >> 40) as f32 / (1u64 << 24) as f32
        }

        fn below(&mut self, n: u32) -> u32 {
            (self.next() % u64::from(n)) as u32
        }

        fn pick(&mut self, values: &[f32]) -> f32 {
            values[self.below(values.len() as u32) as usize]
        }
    }

    /// A splat for the frozen comparisons: centers in and around a
    /// 32-px tile at `origin`; conics from tight to wide, indefinite
    /// (power > 0) and huge; opacities at and around the 1/255 cutoff and
    /// the 0.99 clamp; colors with NaN, ±∞ and −0.0 channels.
    fn random_splat(rng: &mut Rng, origin: (u32, u32)) -> ProjectedGaussian {
        let cutoff = BLEND_ALPHA_CUTOFF;
        let u = rng.unit();
        let opacity = rng.pick(&[
            cutoff,
            cutoff.next_up(),
            cutoff.next_down(),
            0.5,
            ALPHA_MAX,
            ALPHA_MAX.next_up(),
            ALPHA_MAX.next_down(),
            1.0,
            2.0,
            u,
        ]);
        let conic = match rng.below(5) {
            0 => (-rng.unit(), rng.unit() - 0.5, rng.unit()),
            1 => (1e30, 0.0, 1e30),
            2 => (1e-30, 0.0, 1e-30),
            _ => {
                let a = 0.002 + rng.unit();
                let c = 0.002 + rng.unit();
                (a, (rng.unit() - 0.5) * (a * c).sqrt(), c)
            }
        };
        let channel = |rng: &mut Rng| {
            let u = rng.unit();
            rng.pick(&[
                f32::NAN,
                f32::INFINITY,
                f32::NEG_INFINITY,
                -0.0,
                0.0,
                u,
                u,
                u,
            ])
        };
        ProjectedGaussian {
            id: 0,
            mean2d: Vec2::new(
                origin.0 as f32 - 8.0 + 48.0 * rng.unit(),
                origin.1 as f32 - 8.0 + 48.0 * rng.unit(),
            ),
            depth: 1.0,
            conic,
            radius: 40.0 * rng.unit(),
            color: Vec3::new(channel(rng), channel(rng), channel(rng)),
            opacity,
        }
    }

    #[test]
    fn blend_chunk_matches_the_frozen_select_kernel() {
        let mut rng = Rng(21);
        let eps = TRANSMITTANCE_EPS;
        for case in 0..200_000 {
            let origin = (32 * rng.below(20), 32 * rng.below(12));
            let p = random_splat(&mut rng, origin);
            // Rows through the center reach α at the opacity, and so
            // at the 0.99 clamp.
            #[expect(
                clippy::cast_sign_loss,
                reason = "a center above the image saturates to row 0, which is still a row"
            )]
            let py = if case % 7 == 0 {
                p.mean2d.y as u32
            } else {
                origin.1 + rng.below(32)
            };
            let dy = py as f32 + 0.5 - p.mean2d.y;
            let row = RowTerms {
                dy,
                c_dy2: p.conic.2 * dy * dy,
            };
            let k = rng.below(4);
            let chunk_x = k * LANES_U32;
            // A partial, full or empty span over this chunk.
            let start = chunk_x + rng.below(9);
            let end = (start + rng.below(10)).max(chunk_x + 1);
            let lanes = (
                start.saturating_sub(chunk_x) as f32,
                (end - chunk_x).min(LANES_U32) as f32,
            );
            let mut px = [[0.0f32; LANES]; 4];
            for j in 0..LANES {
                let u = rng.unit();
                px[0][j] = rng.pick(&[1.0, eps, eps.next_up(), eps.next_down(), 0.0, 0.5, u]);
                for plane in &mut px[1..] {
                    let u = rng.unit();
                    plane[j] = rng.pick(&[-0.0, 0.0, 1.0, u, -u]);
                }
            }
            let start_counts = [[rng.below(100); LANES], [rng.below(100); LANES]];
            let (mut old_px, mut old_counts) = (px, start_counts);
            let x_first = (origin.0 + chunk_x) as f32 + 0.5;
            frozen::blend_chunk(&p, &row, x_first, lanes, &mut old_px, &mut old_counts);

            let mut columns = crate::scratch::ColumnTerms::default();
            columns.a_dx2.resize(4, [0.0; LANES]);
            columns.b_dx.resize(4, [0.0; LANES]);
            columns.prepare(&p, origin.0, k..k + 1);
            let k = usize_from_u32(k);
            let cols = (&columns.a_dx2[k], &columns.b_dx[k]);
            let (mut new_px, mut new_counts) = (px, start_counts);
            if lanes == (0.0, 8.0) {
                blend_chunk::<false>(&p, &row, cols, lanes, &mut new_px, &mut new_counts);
            } else {
                blend_chunk::<true>(&p, &row, cols, lanes, &mut new_px, &mut new_counts);
            }
            let bits = |planes: &[Lanes; 4]| planes.map(|plane| plane.map(f32::to_bits));
            assert_eq!(
                bits(&new_px),
                bits(&old_px),
                "case {case}: {p:?}, lanes {lanes:?}"
            );
            assert_eq!(
                new_counts, old_counts,
                "case {case}: {p:?}, lanes {lanes:?}"
            );
        }
    }

    #[test]
    fn row_solver_matches_the_frozen_one() {
        let mut rng = Rng(2);
        for case in 0..50_000 {
            let tile = (rng.below(20), rng.below(12));
            let origin = (32 * tile.0, 32 * tile.1);
            let mut p = random_splat(&mut rng, origin);
            p.color = Vec3::ONE;
            if case % 11 == 0 {
                // Absurd opacities: no bounded ellipse.
                p.opacity = 1e30;
            }
            let rect = (origin.0, origin.1, origin.0 + 32, origin.1 + 32);
            let (x0, _, x1, _) = rect;
            let old = frozen::cutoff_ellipse(&p, rect);
            let new = CutoffEllipse::new(&p, rect);
            let (old, new) = match (old, new) {
                (Some(old), Some(new)) => (old, new),
                (None, None) => continue,
                _ => panic!("case {case}: only one solver skips {p:?}"),
            };
            assert_eq!(
                (old.y_lo, old.y_hi, old.full_span),
                (new.y_lo, new.y_hi, new.full_span),
                "case {case}: {p:?}"
            );
            let mut bounds = Vec::new();
            new.solve_rows(&mut bounds);
            assert_eq!(bounds.len(), usize_from_u32(new.y_hi - new.y_lo));
            for (py, &b) in (new.y_lo..).zip(&bounds) {
                let (lo, hi) = row_span(b, x0, x1);
                let got = (lo < hi).then_some((lo, hi));
                assert_eq!(
                    got,
                    frozen::row_span(&old, py, x0, x1),
                    "case {case}, row {py}: {p:?}"
                );
            }
        }
    }

    #[test]
    fn subtile_bitmap_matches_the_frozen_one() {
        let mut rng = Rng(3);
        // Border tiles of odd-sized images clip subtiles to nothing; the
        // bits of such subtiles stay 0 for any radius, ∞ and NaN included.
        for (w, h, tile) in [
            (640, 360, 32),
            (100, 70, 64),
            (45, 23, 16),
            (13, 9, 7),
            (3, 3, 1),
            (300, 200, 100),
        ] {
            let grid = TileGrid::new(w, h, tile);
            for case in 0..4_000 {
                let (tx, ty) = (rng.below(grid.tiles_x()), rng.below(grid.tiles_y()));
                let (x0, y0, _, _) = grid.tile_rect(tx, ty);
                let span = tile as f32 + 16.0;
                let center = Vec2::new(
                    x0 as f32 - 8.0 + span * rng.unit(),
                    y0 as f32 - 8.0 + span * rng.unit(),
                );
                let center = if case % 97 == 0 {
                    Vec2::new(f32::NAN, center.y)
                } else {
                    center
                };
                let u = rng.unit();
                let radius =
                    rng.pick(&[0.0, -1.0, f32::INFINITY, f32::NAN, 4.0 * u, tile as f32 * u]);
                assert_eq!(
                    crate::tiles::subtile_bitmap(&grid, tx, ty, center, radius),
                    frozen::subtile_bitmap(&grid, tx, ty, center, radius),
                    "{w}x{h}/{tile} tile ({tx}, {ty}), center {center:?}, radius {radius}"
                );
            }
        }
    }
}
