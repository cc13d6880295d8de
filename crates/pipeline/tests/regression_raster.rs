//! Regression pin for `rasterize_tile_with_scratch` blending statistics.
//!
//! The counters on a fixed two-Gaussian tile are part of the workload
//! contract: the sorting/raster refactors on the roadmap must not silently
//! change blending behavior, because `blend_ops` / `saturated_pixels` /
//! `zero_coverage` feed the cycle model's workload frames. If an
//! intentional rasterizer change moves these numbers, re-derive the pinned
//! values and say so in the changelog.

use neo_math::{Vec2, Vec3};
use neo_pipeline::{
    rasterize_tile_with_scratch, Image, ProjectedGaussian, RasterScratch, RenderConfig, TileGrid,
    TileRasterStats,
};

/// A 64×64 single-tile grid with two overlapping, high-opacity Gaussians:
/// a broad near one and a tighter far one, so every counter is exercised.
fn fixture() -> (TileGrid, Vec<ProjectedGaussian>) {
    let grid = TileGrid::new(64, 64, 64);
    let near = ProjectedGaussian {
        id: 0,
        mean2d: Vec2::new(24.0, 24.0),
        depth: 1.0,
        conic: (0.01, 0.0, 0.01),
        radius: 28.0,
        color: Vec3::new(1.0, 0.25, 0.0),
        opacity: 0.99,
    };
    let far = ProjectedGaussian {
        id: 1,
        mean2d: Vec2::new(27.0, 27.0),
        depth: 2.0,
        conic: (0.02, 0.0, 0.02),
        radius: 20.0,
        color: Vec3::new(0.0, 0.5, 1.0),
        opacity: 0.97,
    };
    (grid, vec![near, far])
}

/// Rasterizes tile 0 of `grid` into a fresh image.
fn raster(
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

#[test]
fn two_gaussian_tile_stats_are_pinned() {
    let (grid, splats) = fixture();
    let ordered: Vec<&ProjectedGaussian> = splats.iter().collect();
    let (_, stats) = raster(&grid, &ordered, &RenderConfig::default());

    // Pinned on the seed rasterizer. Both Gaussians intersect the tile
    // (zero_coverage = 0) and their overlap core saturates 16 pixels.
    assert_eq!(
        (stats.blend_ops, stats.saturated_pixels, stats.zero_coverage),
        (4428, 16, 0)
    );
    // The exact-clipped fast path (the default) visits only the pixels
    // inside each splat's α-cutoff ellipse: 4916 of the legacy loop's
    // 2 × 64 × 64 = 8192. Everything else above is path-invariant.
    assert_eq!(stats.pixel_visits, 4916);
}

#[test]
fn legacy_loop_visits_every_pixel_per_splat() {
    let (grid, splats) = fixture();
    let ordered: Vec<&ProjectedGaussian> = splats.iter().collect();
    let cfg = RenderConfig {
        raster_fast_path: false,
        ..Default::default()
    };
    let (_, stats) = raster(&grid, &ordered, &cfg);
    assert_eq!(
        (stats.blend_ops, stats.saturated_pixels, stats.zero_coverage),
        (4428, 16, 0)
    );
    assert_eq!(stats.pixel_visits, 2 * 64 * 64);
}

#[test]
fn off_tile_gaussian_counts_as_zero_coverage() {
    let (grid, mut splats) = fixture();
    // A splat binned to the tile conservatively but with an empty subtile
    // bitmap: Neo's ITU flags these as outgoing candidates.
    splats.push(ProjectedGaussian {
        id: 2,
        mean2d: Vec2::new(200.0, 200.0),
        depth: 3.0,
        conic: (1.0, 0.0, 1.0),
        radius: 2.0,
        color: Vec3::ONE,
        opacity: 0.5,
    });
    let ordered: Vec<&ProjectedGaussian> = splats.iter().collect();
    let (_, stats) = raster(&grid, &ordered, &RenderConfig::default());
    assert_eq!(stats.zero_coverage, 1);
}

#[test]
fn disabling_subtiling_only_increases_blend_work() {
    let (grid, splats) = fixture();
    let ordered: Vec<&ProjectedGaussian> = splats.iter().collect();

    let (img_a, with_subtiling) = raster(&grid, &ordered, &RenderConfig::default());

    let cfg = RenderConfig {
        subtiling: false,
        ..RenderConfig::default()
    };
    let (img_b, without) = raster(&grid, &ordered, &cfg);

    // Subtile skipping may only skip work. It is a lossy approximation at
    // subtile boundaries (GSCore behaviour), so the image may drift by a
    // sub-percent amount but not more.
    assert!(without.blend_ops >= with_subtiling.blend_ops);
    let max_diff = img_a
        .pixels()
        .iter()
        .zip(img_b.pixels())
        .map(|(a, b)| (*a - *b).length())
        .fold(0.0f32, f32::max);
    assert!(
        max_diff < 0.05,
        "subtiling changed the image too much: {max_diff}"
    );
}
