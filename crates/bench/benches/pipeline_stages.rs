//! Criterion benches for the functional pipeline stages: projection
//! (with culling), binning and tile rasterization.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use neo_pipeline::{
    bin_to_tiles, project_storage, rasterize_tile_with_scratch, RasterScratch, RenderConfig,
    TileGrid,
};
use neo_scene::{presets::ScenePreset, FrameSampler, Resolution};

fn bench_stages(c: &mut Criterion) {
    let cloud = ScenePreset::Family.build_scaled(0.01); // ~14.5k Gaussians
    let sampler = FrameSampler::new(ScenePreset::Family.trajectory(), 30.0, Resolution::Hd);
    let cam = sampler.frame(0);
    let mut group = c.benchmark_group("pipeline");

    group.bench_function("project_storage_14k", |b| {
        b.iter(|| project_storage(black_box(&cam), black_box(&cloud)))
    });

    let projected = project_storage(&cam, &cloud);
    let grid = TileGrid::new(cam.width, cam.height, 64);
    group.bench_function("bin_to_tiles_14k", |b| {
        b.iter(|| bin_to_tiles(black_box(&grid), black_box(&projected)))
    });

    // Rasterize the densest tile.
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
    let cfg = RenderConfig::default();
    let mut scratch = RasterScratch::new();
    group.bench_function("rasterize_densest_tile", |b| {
        b.iter(|| {
            rasterize_tile_with_scratch(&mut scratch, &grid, tile_index, black_box(&order), &cfg)
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = bench_stages
}
criterion_main!(benches);
