//! Drift of the vectorized blend kernel against the scalar per-pixel
//! loop it replaced.
//!
//! The kernel evaluates `exp` with a polynomial instead of libm, so its
//! images are not bit-identical to the scalar loop's; everything else
//! (operation order, cutoffs, clamps, early termination) is unchanged.
//! This test keeps a copy of the scalar loop — one `alpha_at` call per
//! (splat, pixel), one subtile-bitmap bit test per pixel — and bounds the
//! drift on sampled Building flythrough frames. Both sides run the same
//! frame loop here (project, bin, stable depth sort per tile), so the
//! only difference is the tile rasterizer.

#![allow(
    clippy::expect_used,
    reason = "test helpers outside `#[test]` functions"
)]

use neo_math::Vec3;
use neo_pipeline::{
    bin_to_tiles, project_storage, rasterize_tile_with_scratch, subtile_bitmap, Image,
    ProjectedGaussian, RasterScratch, RenderConfig, TileGrid, SUBTILE_SIZE,
};
use neo_scene::presets::ScenePreset;
use neo_scene::{Camera, FrameSampler, GaussianCloud, Resolution};

const WIDTH: u32 = 640;
const HEIGHT: u32 = 360;
const TILE: u32 = 32;

/// The kernel's early-termination threshold on transmittance (1/255).
const EPS: f32 = 1.0 / 255.0;

/// The scalar blend loop: every pixel of the tile, every splat, with
/// per-pixel transmittance and bitmap tests, then the background
/// composite.
fn rasterize_tile_scalar(
    image: &mut Image,
    grid: &TileGrid,
    tile_index: usize,
    ordered: &[&ProjectedGaussian],
    config: &RenderConfig,
) {
    let tiles_x = usize::try_from(grid.tiles_x()).expect("tile count fits usize");
    let tx = u32::try_from(tile_index % tiles_x).expect("tile x fits u32");
    let ty = u32::try_from(tile_index / tiles_x).expect("tile y fits u32");
    let (x0, y0, x1, y1) = grid.tile_rect(tx, ty);
    let w = usize::try_from(x1 - x0).expect("tile width fits usize");
    let h = usize::try_from(y1 - y0).expect("tile height fits usize");
    let mut transmittance = vec![1.0f32; w * h];
    let mut color = vec![config.background; w * h];
    let mut live_pixels = w * h;
    let per_edge = grid.subtiles_per_edge();
    for p in ordered {
        if live_pixels == 0 {
            break;
        }
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
                continue;
            }
            bm
        } else {
            u64::MAX
        };
        for py in y0..y1 {
            for px in x0..x1 {
                let li = usize::try_from((py - y0) * (x1 - x0) + (px - x0)).expect("index");
                let t = transmittance[li];
                if t < EPS {
                    continue;
                }
                if config.subtiling {
                    let bit = ((py - y0) / SUBTILE_SIZE) * per_edge + (px - x0) / SUBTILE_SIZE;
                    if bit < 64 && bitmap & (1u64 << bit) == 0 {
                        continue;
                    }
                }
                let pc = neo_math::Vec2::new(px as f32 + 0.5, py as f32 + 0.5);
                let alpha = p.alpha_at(pc);
                if alpha < 1.0 / 255.0 {
                    continue;
                }
                color[li] += p.color * (alpha * t);
                let nt = t * (1.0 - alpha);
                transmittance[li] = nt;
                if nt < EPS {
                    live_pixels -= 1;
                }
            }
        }
    }
    for (li, (c, t)) in color.iter().zip(&transmittance).enumerate() {
        let pixel = *c - config.background + config.background * *t;
        let lx = u32::try_from(li % w).expect("x fits u32");
        let ly = u32::try_from(li / w).expect("y fits u32");
        image.set(x0 + lx, y0 + ly, pixel);
    }
}

/// One frame: project, bin, sort each tile from scratch (stable by
/// depth), and hand each tile's order to `rasterize`.
fn render_frame(
    cloud: &GaussianCloud,
    cam: &Camera,
    config: &RenderConfig,
    mut rasterize: impl FnMut(&mut Image, &TileGrid, usize, &[&ProjectedGaussian]),
) -> Image {
    let projected = project_storage(cam, cloud);
    let grid = TileGrid::new(cam.width, cam.height, TILE);
    let assignments = bin_to_tiles(&grid, &projected);
    let mut by_id = vec![None; cloud.len()];
    for (i, p) in projected.iter().enumerate() {
        by_id[usize::try_from(p.id).expect("id fits usize")] = Some(i);
    }
    let mut image = Image::new(cam.width, cam.height, config.background);
    for (tile_index, entries) in assignments.iter_occupied() {
        let mut order: Vec<&ProjectedGaussian> = entries
            .iter()
            .filter_map(|&(id, _)| by_id[usize::try_from(id).expect("id fits usize")])
            .map(|i| &projected[i])
            .collect();
        order.sort_by(|a, b| a.depth.total_cmp(&b.depth));
        rasterize(&mut image, &grid, tile_index, &order);
    }
    image
}

#[test]
fn vectorized_kernel_drift_from_scalar_loop_is_bounded() {
    let cloud = ScenePreset::Building.build_scaled(0.002);
    let sampler = FrameSampler::new(
        ScenePreset::Building.trajectory(),
        30.0,
        Resolution::Custom(WIDTH, HEIGHT),
    );
    let config = RenderConfig {
        tile_size: TILE,
        background: Vec3::new(0.1, 0.2, 0.3),
        ..RenderConfig::default()
    };
    let mut scratch = RasterScratch::new();
    for frame in [0, 25, 50] {
        let cam = sampler.frame(frame);
        let fast = render_frame(&cloud, &cam, &config, |image, grid, tile, order| {
            rasterize_tile_with_scratch(&mut scratch, grid, tile, order, &config);
            scratch.blit_to(image, grid, tile);
        });
        let scalar = render_frame(&cloud, &cam, &config, |image, grid, tile, order| {
            rasterize_tile_scalar(image, grid, tile, order, &config);
        });
        let mut max_abs = 0.0f32;
        let mut sum_sq = 0.0f64;
        for (a, b) in fast.pixels().iter().zip(scalar.pixels()) {
            let d = *a - *b;
            max_abs = max_abs.max(d.abs().max_element());
            sum_sq += f64::from(d.x * d.x) + f64::from(d.y * d.y) + f64::from(d.z * d.z);
        }
        let samples = f64::from(WIDTH * HEIGHT * 3);
        let psnr = -10.0 * (sum_sq / samples).log10();
        println!("frame {frame}: max-abs drift {max_abs:e}, PSNR {psnr:.1} dB");
        assert!(max_abs <= 1e-5, "frame {frame}: max-abs drift {max_abs:e}");
        assert!(psnr >= 120.0, "frame {frame}: PSNR {psnr:.1} dB");
    }
}
