//! Criterion bench for the exact-clipped row-interval rasterization fast
//! path vs the legacy every-pixel-per-splat loop, on the densest tile
//! and on a full-resort engine frame of the Building scene.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use neo_core::{RenderEngine, RendererConfig, StrategyKind};
use neo_pipeline::{
    bin_to_tiles, project_storage, rasterize_tile_with_scratch, RasterScratch, RenderConfig,
    TileGrid,
};
use neo_scene::{presets::ScenePreset, FrameSampler, Resolution};
use std::sync::Arc;

fn bench_fast_path(c: &mut Criterion) {
    let cloud = Arc::new(ScenePreset::Building.build_scaled(0.002));
    let sampler = FrameSampler::new(
        ScenePreset::Building.trajectory(),
        30.0,
        Resolution::Custom(640, 360),
    );
    let cam = sampler.frame(0);
    let fast_cfg = RenderConfig {
        tile_size: 32,
        ..Default::default()
    };
    let legacy_cfg = RenderConfig {
        raster_fast_path: false,
        ..fast_cfg.clone()
    };
    let mut group = c.benchmark_group("raster_fast_path");

    // Densest tile of the frame, the SCU-style microbenchmark.
    let projected = project_storage(&cam, cloud.as_ref());
    let grid = TileGrid::new(cam.width, cam.height, fast_cfg.tile_size);
    let binned = bin_to_tiles(&grid, &projected);
    let (tile_index, entries) = binned
        .iter_occupied()
        .max_by_key(|(_, e)| e.len())
        .expect("occupied tile");
    let mut by_id = vec![None; cloud.len()];
    for (i, p) in projected.iter().enumerate() {
        by_id[p.id as usize] = Some(i);
    }
    let mut order: Vec<&neo_pipeline::ProjectedGaussian> = entries
        .iter()
        .filter_map(|&(id, _)| by_id[id as usize].map(|i| &projected[i]))
        .collect();
    order.sort_by(|a, b| a.depth.total_cmp(&b.depth));

    let mut scratch = RasterScratch::new();
    group.bench_function("densest_tile_exact_clipped", |b| {
        b.iter(|| {
            rasterize_tile_with_scratch(
                &mut scratch,
                &grid,
                tile_index,
                black_box(&order),
                &fast_cfg,
            )
        })
    });
    group.bench_function("densest_tile_legacy", |b| {
        b.iter(|| {
            rasterize_tile_with_scratch(
                &mut scratch,
                &grid,
                tile_index,
                black_box(&order),
                &legacy_cfg,
            )
        })
    });

    // Whole full-resort frames through the engine, end to end.
    let session = |config: RendererConfig| {
        RenderEngine::builder()
            .scene(Arc::clone(&cloud))
            .config(config)
            .strategy(StrategyKind::FullResort)
            .build()
            .expect("bench configuration is valid")
            .session()
    };
    let engine_cfg = RendererConfig::default().with_tile_size(fast_cfg.tile_size);
    let mut fast = session(engine_cfg.clone());
    group.bench_function("full_resort_frame_exact_clipped", |b| {
        b.iter(|| fast.render_frame(black_box(&cam)))
    });
    let mut legacy = session(engine_cfg.with_raster_fast_path(false));
    group.bench_function("full_resort_frame_legacy", |b| {
        b.iter(|| legacy.render_frame(black_box(&cam)))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_fast_path
}
criterion_main!(benches);
