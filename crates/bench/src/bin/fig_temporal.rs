//! Warm-start temporal-cache ablation on the large-scene flythrough
//! trajectory: cold full re-sort vs. repair-mode warm start, with cache
//! hit rate, sorting traffic, and wall-clock — plus two shape checks
//! (repair-mode image parity over an exact inner sorter, and repair
//! traffic below cold).
//!
//! Timing runs use workload-statistics mode (no rasterization): this is
//! a *sorting* ablation, and at 640×360 the per-pixel blend work both
//! configurations share would drown the sorting delta in noise. The
//! shape checks render real images.
//!
//! Complements the `warm_vs_cold` criterion bench with a one-shot table
//! and a machine-readable `results/fig_temporal.json`.
//!
//! Run: `cargo run --release -p neo-bench --bin fig_temporal`

use neo_bench::{ExperimentRecord, TextTable};
use neo_core::{FrameResult, RenderEngine, RendererConfig, StrategyKind, WarmStartConfig};
use neo_pipeline::{bin_to_tiles, diff_tile_population, project_storage, TileGrid};
use neo_scene::{presets::ScenePreset, FrameSampler, Resolution};
use std::sync::Arc;
use std::time::Instant;

const FRAMES: usize = 48;
const PARITY_FRAMES: usize = 6;
const RESOLUTION: Resolution = Resolution::Custom(640, 360);
const TILE: u32 = 32;

struct Run {
    label: &'static str,
    frames: Vec<FrameResult>,
    ms_per_frame: f64,
}

fn main() {
    let scene = ScenePreset::Building;
    let cloud = Arc::new(scene.build_scaled(0.002));
    let sampler = FrameSampler::new(scene.trajectory(), 30.0, RESOLUTION);
    println!(
        "fig_temporal: '{}' ({}k Gaussians), {FRAMES} frames @640x360, tile {TILE}px\n",
        scene.name(),
        cloud.len() / 1000
    );

    // Measured tile retention along the trajectory — the coherence the
    // cache exploits (paper Figure 6 reports ≥0.78 for >90% of tiles).
    let (w, h) = RESOLUTION.dims();
    let grid = TileGrid::new(w, h, TILE);
    let mut retentions = Vec::new();
    let mut prev: Option<Vec<Vec<(u32, f32)>>> = None;
    for i in 0..8 {
        let projected = project_storage(&sampler.frame(i), cloud.as_ref());
        let assignments = bin_to_tiles(&grid, &projected);
        let tiles: Vec<Vec<(u32, f32)>> = (0..grid.tile_count())
            .map(|t| assignments.tile(t).to_vec())
            .collect();
        if let Some(p) = &prev {
            for (pt, ct) in p.iter().zip(&tiles).filter(|(pt, _)| !pt.is_empty()) {
                retentions.push(diff_tile_population(pt, ct).retention());
            }
        }
        prev = Some(tiles);
    }
    let mean_retention = retentions.iter().sum::<f64>() / retentions.len().max(1) as f64;
    println!("mean per-tile frame-to-frame retention: {mean_retention:.3}\n");

    let build = |warm: Option<WarmStartConfig>, image: bool| -> RenderEngine {
        let mut config = RendererConfig::default().with_tile_size(TILE);
        if !image {
            config = config.without_image();
        }
        if let Some(w) = warm {
            config = config.with_temporal_cache(w);
        }
        RenderEngine::builder()
            .scene(Arc::clone(&cloud))
            .config(config)
            .strategy(StrategyKind::FullResort)
            .build()
            .expect("figure configuration is valid")
    };

    let run = |label: &'static str, warm: Option<WarmStartConfig>| -> Run {
        let mut session = build(warm, false).session();
        // Prime tables and scratch outside the timed loop.
        session.render_frame(&sampler.frame(0)).expect("camera");
        let start = Instant::now();
        let frames: Vec<FrameResult> = (1..=FRAMES)
            .map(|i| session.render_frame(&sampler.frame(i)).expect("camera"))
            .collect();
        let ms_per_frame = start.elapsed().as_secs_f64() * 1e3 / FRAMES as f64;
        Run {
            label,
            frames,
            ms_per_frame,
        }
    };

    let cold = run("cold full re-sort", None);
    let repair = run("warm (repair mode)", Some(WarmStartConfig::default()));

    let sort_gb = |r: &Run| {
        r.frames
            .iter()
            .map(|f| f.sort_cost.bytes_total())
            .sum::<u64>() as f64
            / 1e9
    };
    let hit_rate = |r: &Run| {
        let (warm, total) = r.frames.iter().fold((0u64, 0u64), |(w, t), f| {
            (w + f.temporal.warm_tiles, t + f.temporal.cached_tiles())
        });
        if total == 0 {
            0.0
        } else {
            warm as f64 / total as f64
        }
    };
    let repair_moves = |r: &Run| {
        r.frames
            .iter()
            .map(|f| f.temporal.repair_moves)
            .sum::<u64>() as f64
            / r.frames.len() as f64
    };

    let mut table = TextTable::new([
        "config",
        "ms/frame",
        "speedup",
        "sort GB",
        "hit rate",
        "repair moves/frame",
    ]);
    let runs = [&cold, &repair];
    for r in runs {
        table.row([
            r.label.to_string(),
            format!("{:.2}", r.ms_per_frame),
            format!("{:.2}x", cold.ms_per_frame / r.ms_per_frame),
            format!("{:.3}", sort_gb(r)),
            format!("{:.1}%", hit_rate(r) * 100.0),
            format!("{:.0}", repair_moves(r)),
        ]);
    }
    println!("{}", table.render());

    // The image shape check renders real images over a short prefix of
    // the same trajectory: repair mode over an exact sorter must render
    // the exact images.
    let parity = |warm: Option<WarmStartConfig>| -> Vec<FrameResult> {
        let mut session = build(warm, true).session();
        (0..PARITY_FRAMES)
            .map(|i| session.render_frame(&sampler.frame(i)).expect("camera"))
            .collect()
    };
    let cold_images = parity(None);
    let images_identical = parity(Some(WarmStartConfig::default()))
        .iter()
        .zip(&cold_images)
        .all(|(a, b)| a.image == b.image);
    let traffic_wins = sort_gb(&repair) < sort_gb(&cold);
    println!(
        "shape check: repair-mode image parity: {} | repair traffic < cold: {} | \
         warm sorting speedup {:.2}x",
        if images_identical { "PASS" } else { "FAIL" },
        if traffic_wins { "PASS" } else { "FAIL" },
        cold.ms_per_frame / repair.ms_per_frame,
    );
    assert!(
        images_identical,
        "repair-mode warm start changed rendered images"
    );
    assert!(traffic_wins, "warm start failed to reduce sorting traffic");

    let mut record = ExperimentRecord::new(
        "fig_temporal",
        "Warm-start temporal sorting cache vs cold full re-sort on the flythrough trajectory",
    );
    record.push_series("mean_tile_retention", vec![mean_retention]);
    record.push_series(
        "ms_per_frame",
        runs.iter().map(|r| r.ms_per_frame).collect(),
    );
    record.push_series("sort_gb", runs.iter().map(|r| sort_gb(r)).collect());
    record.push_series("hit_rate", runs.iter().map(|r| hit_rate(r)).collect());
    record.push_series(
        "warm_hit_rate_per_frame",
        repair
            .frames
            .iter()
            .map(|f| f.temporal.hit_rate())
            .collect(),
    );
    record.push_series(
        "warm_repair_moves_per_frame",
        repair
            .frames
            .iter()
            .map(|f| f.temporal.repair_moves as f64)
            .collect(),
    );
    match record.save() {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not persist results: {e}"),
    }
}
