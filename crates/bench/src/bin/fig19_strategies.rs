//! Figure 19: latency and rendering quality across 165 frames for four
//! sorting-reuse methods — hierarchical (GSCore), periodic, background,
//! and Neo's Dynamic Partial Sorting (incremental update).
//!
//! Latency uses the Neo hardware model with each strategy's *measured*
//! per-frame sorting traffic (captured from the real per-tile sorters);
//! quality renders real frames against the independent `f64` oracle
//! ([`neo_bench::ground_truth`]), computed once per frame.
//!
//! Run: `cargo run --release -p neo-bench --bin fig19_strategies`

use neo_bench::{ground_truth, ExperimentRecord, TextTable};
use neo_core::{RenderEngine, RendererConfig, StrategyKind};
use neo_metrics::psnr;
use neo_pipeline::Image;
use neo_scene::{presets::ScenePreset, FrameSampler, GaussianCloud, Resolution};
use neo_sim::devices::{Device, NeoDevice};
use neo_workloads::capture::{capture_workload, CaptureConfig};
use std::sync::Arc;

const FRAMES: usize = 165;
const SLO_MS: f64 = 16.6;

fn strategies() -> Vec<(&'static str, StrategyKind)> {
    vec![
        ("Hierarchical (GSCore)", StrategyKind::Hierarchical),
        ("Periodic (every 30)", StrategyKind::Periodic(30)),
        ("Background (lag 2)", StrategyKind::Background(2)),
        ("Dynamic Partial (Neo)", StrategyKind::ReuseUpdate),
    ]
}

/// Per-frame latencies: Neo hardware FE/raster stages plus the strategy's
/// measured sorting bytes through the DRAM model.
fn latency_series(kind: StrategyKind) -> Vec<f64> {
    let scene = ScenePreset::Family;
    let scale = 0.01;
    let workloads = capture_workload(&CaptureConfig {
        scene,
        resolution: Resolution::Qhd,
        frames: FRAMES,
        scale,
        speed: 1.0,
        ..Default::default()
    });
    // Re-run the per-tile sorters with this strategy to get its sorting
    // traffic per frame.
    let engine = RenderEngine::builder()
        .scene(scene.build_scaled(scale))
        .config(RendererConfig::default().without_image())
        .strategy(kind)
        .build()
        .expect("figure configuration is valid");
    let sampler = FrameSampler::new(scene.trajectory(), 30.0, Resolution::Qhd);
    let mut session = engine.session();
    let device = NeoDevice::paper_default();
    let inv = 1.0 / scale;

    (0..FRAMES)
        .map(|i| {
            let fr = session
                .render_frame(&sampler.frame(i))
                .expect("trajectory camera");
            let sort_bytes = (fr.sort_cost.bytes_total() as f64 * inv) as u64;
            let t = device.simulate_frame(&workloads[i]);
            let fe = t.stages[0].latency_s();
            let raster = t.stages[2].latency_s();
            let sort = device
                .dram
                .transfer_time(sort_bytes)
                .max(t.stages[1].compute_s);
            (fe + sort + raster) * 1e3
        })
        .collect()
}

/// The reduced-resolution quality run: quality differences come from
/// ordering, not resolution.
fn quality_sampler() -> FrameSampler {
    let scene = ScenePreset::Family;
    FrameSampler::new(scene.trajectory(), 30.0, Resolution::Custom(256, 144))
}

/// Per-frame PSNR of `kind` against the shared `ground_truth`.
fn psnr_series(kind: StrategyKind, cloud: &Arc<GaussianCloud>, ground_truth: &[Image]) -> Vec<f64> {
    let sampler = quality_sampler();
    let engine = RenderEngine::builder()
        .scene(Arc::clone(cloud))
        .config(RendererConfig::default().with_tile_size(32))
        .strategy(kind)
        .build()
        .expect("figure configuration is valid");
    let mut session = engine.session();
    ground_truth
        .iter()
        .enumerate()
        .map(|(i, gt)| {
            let fr = session
                .render_frame(&sampler.frame(i))
                .expect("trajectory camera");
            psnr(gt, &fr.image.expect("image enabled")).min(60.0)
        })
        .collect()
}

fn main() {
    println!("Figure 19 — latency and quality across {FRAMES} frames (Family, QHD model)\n");
    let mut record = ExperimentRecord::new(
        "fig19",
        "Per-frame latency (ms) and PSNR (dB) for four sorting strategies",
    );

    // One oracle ground truth per frame, shared by every strategy.
    let cloud = Arc::new(ScenePreset::Family.build_scaled(0.004));
    let ground_truth = ground_truth(&cloud, &quality_sampler(), FRAMES);

    let mut lat_table = TextTable::new([
        "Strategy",
        "mean ms",
        "max ms",
        "frames > SLO",
        "mean PSNR dB",
        "min PSNR dB",
    ]);
    for (label, kind) in strategies() {
        let lat = latency_series(kind);
        let q = psnr_series(kind, &cloud, &ground_truth);
        let mean_lat = lat.iter().sum::<f64>() / lat.len() as f64;
        let max_lat = lat.iter().cloned().fold(0.0, f64::max);
        let violations = lat.iter().filter(|&&l| l > SLO_MS).count();
        let mean_q = q.iter().sum::<f64>() / q.len() as f64;
        let min_q = q.iter().cloned().fold(f64::INFINITY, f64::min);
        lat_table.row([
            label.to_string(),
            format!("{mean_lat:.1}"),
            format!("{max_lat:.1}"),
            format!("{violations}"),
            format!("{mean_q:.1}"),
            format!("{min_q:.1}"),
        ]);
        record.push_series(format!("{label}-latency-ms"), lat);
        record.push_series(format!("{label}-psnr-db"), q);
    }
    println!("{}", lat_table.render());
    println!(
        "Paper reference (shape): periodic sorting shows latency spikes over the\n\
         16.6 ms SLO and decaying quality between refreshes; background sorting is\n\
         stable but slower and lower quality (viewpoint lag); hierarchical matches\n\
         Neo's quality but needs multiple off-chip passes (higher latency); Neo's\n\
         Dynamic Partial Sorting is fastest with near-reference quality."
    );
    if let Ok(p) = record.save() {
        println!("saved {}", p.display());
    }
}
