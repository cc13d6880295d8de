//! Property-based tests on the functional pipeline: tiling, binning and
//! projection invariants for arbitrary splats and cameras, plus the
//! byte-identity contract of the exact-clipped rasterization fast path.

use neo_math::{Vec2, Vec3};
use neo_pipeline::{
    bin_to_tiles, rasterize_tile_with_scratch, subtile_bitmap, Image, ProjectedGaussian,
    RasterScratch, RenderConfig, TileGrid,
};
use neo_scene::{Camera, Gaussian, Resolution};
use proptest::prelude::*;

fn arb_splat() -> impl Strategy<Value = ProjectedGaussian> {
    (
        0u32..1000,
        -200.0f32..1200.0,
        -200.0f32..900.0,
        0.5f32..200.0,
        0.1f32..100.0,
    )
        .prop_map(|(id, x, y, radius, depth)| ProjectedGaussian {
            id,
            mean2d: Vec2::new(x, y),
            depth,
            conic: (1.0, 0.0, 1.0),
            radius,
            color: Vec3::ONE,
            opacity: 0.5,
        })
}

/// A splat with a well-formed (positive-definite, anisotropic) conic
/// derived from a random 2D covariance — the realistic population for
/// the fast-path parity check — with occasional degenerate poisoning
/// (NaN opacity / NaN conic) to pin the skip-guard parity too.
fn arb_blendable_splat() -> impl Strategy<Value = ProjectedGaussian> {
    (
        -60.0f32..220.0, // mean x (straddles the 150x100 image's borders)
        -60.0f32..160.0, // mean y
        0.3f32..400.0,   // cov xx (σ up to 20 px)
        0.3f32..400.0,   // cov yy
        -0.95f32..0.95,  // correlation
        0.0f32..1.2,     // opacity (past the 0.99 clamp)
        0.1f32..100.0,   // depth
        0.0f32..300.0,   // binning radius: zero to image-dwarfing
        0u8..24,         // degeneracy selector (0/1 poison the splat)
    )
        .prop_map(
            |(x, y, sxx, syy, rho, opacity, depth, radius, degenerate)| {
                let sxy = rho * (sxx * syy).sqrt();
                let det = sxx * syy - sxy * sxy;
                let mut conic = (syy / det, -sxy / det, sxx / det);
                let mut opacity = opacity;
                match degenerate {
                    0 => opacity = f32::NAN,
                    1 => conic.0 = f32::NAN,
                    _ => {}
                }
                ProjectedGaussian {
                    id: 0,
                    mean2d: Vec2::new(x, y),
                    depth,
                    conic,
                    radius,
                    color: Vec3::new(0.8, 0.4, 0.2),
                    opacity,
                }
            },
        )
}

proptest! {
    /// The exact-clipped row-interval fast path is byte-identical to the
    /// legacy every-pixel loop: same pixels, same counters (pixel_visits
    /// excepted, and never more of them), over random splat mixes —
    /// splats straddling tile borders, subtiling on and off, zero and
    /// huge radii, cutoff-grazing opacities, and non-finite poison.
    #[test]
    fn raster_fast_path_is_byte_identical_to_legacy(
        mut splats in prop::collection::vec(arb_blendable_splat(), 0..30),
        subtiling in any::<bool>(),
    ) {
        for (i, s) in splats.iter_mut().enumerate() {
            s.id = i as u32;
        }
        splats.sort_by(|a, b| a.depth.total_cmp(&b.depth));
        let ordered: Vec<&ProjectedGaussian> = splats.iter().collect();
        // 150x100 at 32-px tiles: interior tiles plus clipped border
        // tiles (22 and 4 px wide), so spans clamp against real edges.
        let grid = TileGrid::new(150, 100, 32);
        let fast_cfg = RenderConfig {
            tile_size: 32,
            subtiling,
            ..Default::default()
        };
        let legacy_cfg = RenderConfig {
            raster_fast_path: false,
            ..fast_cfg.clone()
        };
        let mut fast_img = Image::new(150, 100, Vec3::ZERO);
        let mut legacy_img = Image::new(150, 100, Vec3::ZERO);
        let mut scratch = RasterScratch::new();
        for tile in 0..grid.tile_count() {
            let fast = rasterize_tile_with_scratch(&mut scratch, &grid, tile, &ordered, &fast_cfg);
            scratch.blit_to(&mut fast_img, &grid, tile);
            let legacy =
                rasterize_tile_with_scratch(&mut scratch, &grid, tile, &ordered, &legacy_cfg);
            scratch.blit_to(&mut legacy_img, &grid, tile);
            prop_assert_eq!(fast.blend_ops, legacy.blend_ops, "tile {}", tile);
            prop_assert_eq!(fast.saturated_pixels, legacy.saturated_pixels, "tile {}", tile);
            prop_assert_eq!(fast.zero_coverage, legacy.zero_coverage, "tile {}", tile);
            prop_assert!(
                fast.pixel_visits <= legacy.pixel_visits,
                "tile {}: fast path visited more pixels ({} > {})",
                tile, fast.pixel_visits, legacy.pixel_visits
            );
        }
        prop_assert_eq!(&fast_img, &legacy_img);
    }

    #[test]
    fn binning_covers_every_overlapped_tile(mut splats in prop::collection::vec(arb_splat(), 0..60)) {
        // IDs must be unique to attribute tile hits per splat.
        for (i, s) in splats.iter_mut().enumerate() {
            s.id = i as u32;
        }
        let grid = TileGrid::new(1024, 768, 64);
        let binned = bin_to_tiles(&grid, &splats);
        // Each splat appears in exactly the tiles its bounding square
        // overlaps (conservative disc-to-rect binning).
        for s in &splats {
            let hits: usize = (0..grid.tile_count())
                .map(|t| binned.tile(t).iter().filter(|(id, _)| *id == s.id).count())
                .sum();
            match grid.tiles_for_splat(s.mean2d, s.radius) {
                Some((tx0, ty0, tx1, ty1)) => {
                    let expect = ((tx1 - tx0 + 1) * (ty1 - ty0 + 1)) as usize;
                    prop_assert_eq!(hits, expect);
                }
                None => prop_assert_eq!(hits, 0),
            }
        }
    }

    #[test]
    fn tile_ranges_are_within_grid(x in -500.0f32..3000.0, y in -500.0f32..2000.0, r in 0.1f32..500.0) {
        let grid = TileGrid::new(2560, 1440, 64);
        if let Some((tx0, ty0, tx1, ty1)) = grid.tiles_for_splat(Vec2::new(x, y), r) {
            prop_assert!(tx0 <= tx1 && ty0 <= ty1);
            prop_assert!(tx1 < grid.tiles_x());
            prop_assert!(ty1 < grid.tiles_y());
        }
    }

    #[test]
    fn subtile_bitmap_is_subset_of_big_radius(
        x in 0.0f32..256.0,
        y in 0.0f32..256.0,
        r in 0.5f32..40.0,
    ) {
        let grid = TileGrid::new(256, 256, 64);
        let small = subtile_bitmap(&grid, 1, 1, Vec2::new(x, y), r);
        let big = subtile_bitmap(&grid, 1, 1, Vec2::new(x, y), r * 2.0);
        // Monotonicity: growing the radius can only set more bits.
        prop_assert_eq!(small & big, small);
    }

    #[test]
    fn subtile_bitmap_rows_are_contiguous_runs(
        x in -40.0f32..300.0,
        y in -40.0f32..300.0,
        r in 0.1f32..80.0,
        tile_size in 8u32..=64,
    ) {
        // The blend kernel reduces each subtile row of the bitmap to one
        // [first, last] run of 8-pixel chunks; that is exact only because
        // a disk meets a contiguous run of every subtile row.
        let grid = TileGrid::new(256, 256, tile_size);
        let per_edge = grid.subtiles_per_edge();
        let bm = subtile_bitmap(&grid, 1, 1, Vec2::new(x, y), r);
        for sy in 0..per_edge {
            let bits = (bm >> (sy * per_edge)) & ((1u64 << per_edge) - 1);
            if bits != 0 {
                let run = bits >> bits.trailing_zeros();
                prop_assert_eq!(run & (run + 1), 0, "row {} bits {:#b}", sy, bits);
            }
        }
    }

    #[test]
    fn projection_depth_matches_camera_distance_along_axis(
        gx in -3.0f32..3.0,
        gy in -2.0f32..2.0,
        gz in -3.0f32..3.0,
    ) {
        let cam = Camera::look_at(
            Vec3::new(0.0, 0.0, -8.0),
            Vec3::ZERO,
            Vec3::Y,
            1.0,
            Resolution::Custom(640, 360),
        );
        let g = Gaussian::isotropic(Vec3::new(gx, gy, gz), 0.05, 0.9, Vec3::ONE);
        if let Some(p) = neo_pipeline::project_gaussian(&cam, 0, &g) {
            let cam_space = cam.world_to_camera(g.mean);
            prop_assert!((p.depth - cam_space.z).abs() < 1e-3);
            prop_assert!(p.depth >= cam.near);
            prop_assert!(p.radius >= 1.0);
            // Falloff is maximal at the splat center.
            let center = p.falloff(p.mean2d);
            let off = p.falloff(p.mean2d + Vec2::new(3.0, 3.0));
            prop_assert!(center >= off);
        }
    }

    #[test]
    fn camera_projection_roundtrip_is_stable(
        px in 10.0f32..630.0,
        py in 10.0f32..350.0,
        depth in 1.0f32..50.0,
    ) {
        // Unproject a pixel to a camera-space point, then reproject.
        let cam = Camera::look_at(
            Vec3::new(1.0, 2.0, -6.0),
            Vec3::ZERO,
            Vec3::Y,
            1.1,
            Resolution::Custom(640, 360),
        );
        let f = cam.focal();
        let cam_space = Vec3::new(
            (px - 320.0) * depth / f.x,
            (py - 180.0) * depth / f.y,
            depth,
        );
        let back = cam.camera_to_pixel(cam_space).unwrap();
        prop_assert!((back.x - px).abs() < 0.01);
        prop_assert!((back.y - py).abs() < 0.01);
    }
}
