//! Table 2: rendering quality (PSNR / LPIPS) of original 3DGS and Neo.
//!
//! Ground truth is [`neo_bench::ground_truth`]: the independent `f64`
//! oracle, which blends every splat over its whole α ≥ 1/255 ellipse in
//! global depth order with no early termination; "Original 3DGS" is the standard
//! early-terminating renderer with exact per-frame sorting; "Neo" is the
//! reuse-and-update renderer. The paper's point — Neo's deltas are
//! imperceptible (≤0.1 dB PSNR, ≤0.001 LPIPS) — is checked on the deltas.
//!
//! The Neo column is additionally rendered once per storage backend, so
//! the table reports each format's *actual* feature record size (from
//! [`StorageFormat::record_bytes`], not a hard-coded f32 AoS figure) and
//! the per-frame feature-extraction traffic the traffic ledger charged
//! with it — quality and bandwidth of the quantized format side by side.
//!
//! Run: `cargo run --release -p neo-bench --bin table2_quality`

use neo_bench::{ground_truth, ExperimentRecord, TextTable};
use neo_core::{RenderEngine, RendererConfig, StorageFormat, StrategyKind};
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

fn measure(
    scene: ScenePreset,
    kind: StrategyKind,
    format: StorageFormat,
    ground_truth: &[neo_pipeline::Image],
) -> Row {
    let sampler = FrameSampler::new(scene.trajectory(), 30.0, Resolution::Custom(256, 144));
    let engine = RenderEngine::builder()
        .scene(scene.build_scaled(0.004))
        .config(
            RendererConfig::default()
                .with_tile_size(32)
                .with_storage(format),
        )
        .strategy(kind)
        .build()
        .expect("table configuration is valid");
    let record_bytes = engine.storage().record_bytes();
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
        "Storage",
        "rec B",
        "feat KB/f",
        "PSNR↑",
        "LPIPS↓",
        "ΔPSNR",
        "ΔLPIPS",
    ]);
    let mut record = ExperimentRecord::new(
        "table2",
        "PSNR/LPIPS-proxy and per-format feature traffic of original 3DGS and Neo per scene",
    );

    for scene in ScenePreset::TANKS_AND_TEMPLES {
        let sampler = FrameSampler::new(scene.trajectory(), 30.0, res);
        let ground_truth = ground_truth(&scene.build_scaled(0.004), &sampler, FRAMES);

        let base = measure(
            scene,
            StrategyKind::FullResort,
            StorageFormat::AosF32,
            &ground_truth,
        );
        let variants = [
            ("Neo", StorageFormat::AosF32),
            ("Neo", StorageFormat::Compact),
        ];
        table.row([
            scene.name().to_string(),
            "3DGS".to_string(),
            "aos-f32".to_string(),
            base.record_bytes.to_string(),
            format!("{:.0}", base.feature_kb_per_frame),
            format!("{:.2}", base.psnr_db),
            format!("{:.4}", base.lpips),
            String::new(),
            String::new(),
        ]);
        let mut series = vec![base.psnr_db, base.lpips];
        for (name, format) in variants {
            let row = measure(scene, StrategyKind::ReuseUpdate, format, &ground_truth);
            table.row([
                scene.name().to_string(),
                name.to_string(),
                format.name().to_string(),
                row.record_bytes.to_string(),
                format!("{:.0}", row.feature_kb_per_frame),
                format!("{:.2}", row.psnr_db),
                format!("{:.4}", row.lpips),
                format!("{:+.2}", row.psnr_db - base.psnr_db),
                format!("{:+.4}", row.lpips - base.lpips),
            ]);
            series.extend([
                row.psnr_db,
                row.lpips,
                row.record_bytes as f64,
                row.feature_kb_per_frame,
            ]);
        }
        record.push_series(scene.name(), series);
    }
    println!("{}", table.render());
    println!(
        "Paper reference: per-scene deltas ≤0.1 dB PSNR and ≤0.001 LPIPS —\n\
         reuse-and-update sorting is visually lossless. (LPIPS column uses the\n\
         documented LPIPS proxy; compare deltas, not absolute values. Record\n\
         bytes and feature traffic come from the configured storage backend:\n\
         the compact format trades a bounded quality delta for ~2.6x smaller\n\
         records.)"
    );
    if let Ok(p) = record.save() {
        println!("saved {}", p.display());
    }
}
