//! Table 2: rendering quality (PSNR / LPIPS) of original 3DGS and Neo.
//!
//! Ground truth is [`neo_bench::ground_truth`]: the independent `f64`
//! oracle, which blends every splat over its whole α ≥ 1/255 ellipse in
//! global depth order with no early termination; "Original 3DGS" is the standard
//! early-terminating renderer with exact per-frame sorting; "Neo" is the
//! reuse-and-update renderer. The paper's point — Neo's deltas are
//! imperceptible (≤0.1 dB PSNR, ≤0.001 LPIPS) — is checked on the deltas.
//!
//! Each row also reports the feature record size the traffic ledger
//! charges per splat read (`GaussianCloud::record_bytes`) and the
//! per-frame feature-extraction traffic it charged.
//!
//! Run: `cargo run --release -p neo-bench --bin table2_quality`

use neo_bench::{ground_truth, ExperimentRecord, TextTable};
use neo_core::{RenderEngine, RendererConfig, StrategyKind};
use neo_metrics::{lpips_proxy, psnr};
use neo_pipeline::Stage;
use neo_scene::{presets::ScenePreset, FrameSampler, Resolution};

const FRAMES: usize = 16;
const WARMUP: usize = 4;

/// Quality and traffic of one renderer configuration, averaged over the
/// post-warmup frames of a trajectory.
struct Row {
    psnr_db: f64,
    lpips: f64,
    record_bytes: usize,
    feature_kb_per_frame: f64,
}

fn measure(scene: ScenePreset, kind: StrategyKind, ground_truth: &[neo_pipeline::Image]) -> Row {
    let sampler = FrameSampler::new(scene.trajectory(), 30.0, Resolution::Custom(256, 144));
    let engine = RenderEngine::builder()
        .scene(scene.build_scaled(0.004))
        .config(RendererConfig::default().with_tile_size(32))
        .strategy(kind)
        .build()
        .expect("table configuration is valid");
    let record_bytes = engine.scene().record_bytes();
    let mut session = engine.session();
    let (mut p, mut l, mut kb) = (0.0, 0.0, 0.0);
    let mut counted = 0.0;
    for (i, gt) in ground_truth.iter().enumerate() {
        let frame = session
            .render_frame(&sampler.frame(i))
            .expect("trajectory camera");
        if i < WARMUP {
            continue;
        }
        counted += 1.0;
        let img = frame.image.as_ref().expect("image");
        p += psnr(gt, img).min(60.0);
        l += lpips_proxy(gt, img);
        kb += frame.stats.traffic.reads(Stage::FeatureExtraction) as f64 / 1024.0;
    }
    Row {
        psnr_db: p / counted,
        lpips: l / counted,
        record_bytes,
        feature_kb_per_frame: kb / counted,
    }
}

fn main() {
    println!("Table 2 — quality comparison (vs the f64 oracle's ground truth)\n");
    let res = Resolution::Custom(256, 144);

    let mut table = TextTable::new([
        "Scene",
        "Renderer",
        "rec B",
        "feat KB/f",
        "PSNR↑",
        "LPIPS↓",
        "ΔPSNR",
        "ΔLPIPS",
    ]);
    let mut record = ExperimentRecord::new(
        "table2",
        "PSNR/LPIPS-proxy and feature traffic of original 3DGS and Neo per scene",
    );

    for scene in ScenePreset::TANKS_AND_TEMPLES {
        let sampler = FrameSampler::new(scene.trajectory(), 30.0, res);
        let ground_truth = ground_truth(&scene.build_scaled(0.004), &sampler, FRAMES);

        let base = measure(scene, StrategyKind::FullResort, &ground_truth);
        let neo = measure(scene, StrategyKind::ReuseUpdate, &ground_truth);
        let deltas = [
            (String::new(), String::new()),
            (
                format!("{:+.2}", neo.psnr_db - base.psnr_db),
                format!("{:+.4}", neo.lpips - base.lpips),
            ),
        ];
        for ((name, row), (d_psnr, d_lpips)) in
            [("3DGS", &base), ("Neo", &neo)].into_iter().zip(deltas)
        {
            table.row([
                scene.name().to_string(),
                name.to_string(),
                row.record_bytes.to_string(),
                format!("{:.0}", row.feature_kb_per_frame),
                format!("{:.2}", row.psnr_db),
                format!("{:.4}", row.lpips),
                d_psnr,
                d_lpips,
            ]);
        }
        let series = vec![
            base.psnr_db,
            base.lpips,
            neo.psnr_db,
            neo.lpips,
            neo.record_bytes as f64,
            neo.feature_kb_per_frame,
        ];
        record.push_series(scene.name(), series);
    }
    println!("{}", table.render());
    println!(
        "Paper reference: per-scene deltas ≤0.1 dB PSNR and ≤0.001 LPIPS —\n\
         reuse-and-update sorting is visually lossless. (LPIPS column uses the\n\
         documented LPIPS proxy; compare deltas, not absolute values.)"
    );
    if let Ok(p) = record.save() {
        println!("saved {}", p.display());
    }
}
