//! Criterion benches for the functional pipeline stages: projection
//! (with culling), binning and tile rasterization.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use neo_core::{LodConfig, RenderEngine, RendererConfig};
use neo_pipeline::{
    bin_to_tiles, project_clusters_geometry, project_flat_geometry, project_storage,
    rasterize_tile_with_scratch, RasterScratch, RenderConfig, TileGrid,
};
use neo_scene::synth::CityParams;
use neo_scene::{presets::ScenePreset, FrameSampler, Resolution};

fn bench_stages(c: &mut Criterion) {
    let cloud = ScenePreset::Family.build_scaled(0.01); // ~14.5k Gaussians
    let sampler = FrameSampler::new(ScenePreset::Family.trajectory(), 30.0, Resolution::Hd);
    let cam = sampler.frame(0);
    let mut group = c.benchmark_group("pipeline");

    group.bench_function("project_storage_14k", |b| {
        b.iter(|| project_storage(black_box(&cam), black_box(&cloud)))
    });

    // The flat geometry walk on the same frame: the one range `0..len`
    // through the range kernel the cluster walk below shares.
    group.bench_function("project_flat_geometry_14k", |b| {
        b.iter(|| project_flat_geometry(black_box(&cam), black_box(cloud.geometry())))
    });

    // City ×4 through its cluster index, as an LOD engine puts it into
    // cluster order and projects it on an image-off frame: the range
    // kernel as city's geometry pass runs it.
    let city = CityParams::default().scaled(4.0);
    let lod = LodConfig {
        cluster_size: 128,
        proxy_footprint_px: 96.0,
    };
    let engine = RenderEngine::builder()
        .scene(city.build())
        .config(RendererConfig::default().without_image().with_lod(lod))
        .build()
        .expect("city LOD configuration is valid");
    let index = engine.lod_index().expect("LOD engines keep their index");
    let city_cam =
        FrameSampler::new(city.trajectory(), 30.0, Resolution::Custom(640, 360)).frame(0);
    group.bench_function("project_clusters_geometry", |b| {
        b.iter(|| {
            project_clusters_geometry(black_box(&city_cam), engine.scene().geometry(), index, &lod)
        })
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
