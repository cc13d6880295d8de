//! Splat storage format comparison on the Building flythrough: f32 AoS
//! (baseline) vs the compact quantized format (f16 means/scales/SH, u8
//! opacity, smallest-three packed quaternions).
//!
//! Per format: wall-clock per frame, per-frame splat-read DRAM bytes
//! (feature-extraction reads + rasterization feature fetches from the
//! traffic ledger), and PSNR against the f32 baseline. Shape check: the
//! compact format must cut splat-read bytes at least 2x while staying at
//! or above 35 dB PSNR.
//!
//! Writes `results/fig_formats.json`.
//!
//! Run: `cargo run --release -p neo-bench --bin fig_formats`

use neo_bench::{ExperimentRecord, TextTable};
use neo_core::{FrameResult, RenderEngine, RendererConfig, StorageFormat};
use neo_metrics::psnr;
use neo_pipeline::Stage;
use neo_scene::{presets::ScenePreset, FrameSampler, Resolution};
use std::sync::Arc;
use std::time::Instant;

const FRAMES: usize = 16;
const PSNR_FLOOR_DB: f64 = 35.0;
const TRAFFIC_CUT_BAR: f64 = 2.0;

/// Bytes of splat records fetched from DRAM in one frame: the feature
/// extraction stream plus the per-entry feature fetches of rasterization.
fn splat_read_bytes(fr: &FrameResult) -> u64 {
    fr.stats.traffic.reads(Stage::FeatureExtraction) + fr.stats.traffic.reads(Stage::Rasterization)
}

fn main() {
    let scene = ScenePreset::Building;
    let cloud = Arc::new(scene.build_scaled(0.002));
    let sampler = FrameSampler::new(scene.trajectory(), 30.0, Resolution::Custom(640, 360));
    println!(
        "fig_formats: '{}' ({}k Gaussians, SH degree {}), {FRAMES} frames @640x360\n",
        scene.name(),
        cloud.len() / 1000,
        cloud.max_sh_degree(),
    );

    let render = |format: StorageFormat| -> (Vec<FrameResult>, f64) {
        let engine = RenderEngine::builder()
            .scene(Arc::clone(&cloud))
            .config(
                RendererConfig::default()
                    .with_tile_size(32)
                    .with_storage(format),
            )
            .build()
            .expect("figure configuration is valid");
        let mut session = engine.session();
        // Warm per-tile tables and scratch outside the timed loop.
        session
            .render_frame(&sampler.frame(0))
            .expect("trajectory camera");
        let start = Instant::now();
        let frames: Vec<FrameResult> = (1..=FRAMES)
            .map(|i| session.render_frame(&sampler.frame(i)).expect("camera"))
            .collect();
        let ms_per_frame = start.elapsed().as_secs_f64() * 1e3 / FRAMES as f64;
        (frames, ms_per_frame)
    };

    let (aos_frames, aos_ms) = render(StorageFormat::AosF32);
    let (compact_frames, compact_ms) = render(StorageFormat::Compact);

    let mean_bytes = |frames: &[FrameResult]| -> u64 {
        frames.iter().map(splat_read_bytes).sum::<u64>() / frames.len() as u64
    };
    let min_psnr = |frames: &[FrameResult]| -> f64 {
        frames
            .iter()
            .zip(&aos_frames)
            .map(|(f, a)| {
                psnr(
                    a.image.as_ref().expect("image enabled"),
                    f.image.as_ref().expect("image enabled"),
                )
            })
            .fold(f64::INFINITY, f64::min)
    };

    let aos_bytes = mean_bytes(&aos_frames);
    let compact_bytes = mean_bytes(&compact_frames);
    let compact_psnr = min_psnr(&compact_frames);
    let cut = aos_bytes as f64 / compact_bytes.max(1) as f64;

    let mut table = TextTable::new([
        "storage",
        "record B",
        "ms/frame",
        "splat-read/frame",
        "min PSNR dB",
    ]);
    let degree = cloud.max_sh_degree();
    for (format, ms, bytes, q) in [
        (StorageFormat::AosF32, aos_ms, aos_bytes, f64::INFINITY),
        (
            StorageFormat::Compact,
            compact_ms,
            compact_bytes,
            compact_psnr,
        ),
    ] {
        table.row([
            format.name().to_string(),
            format.record_bytes(degree).to_string(),
            format!("{ms:.2}"),
            format!("{:.2} MB", bytes as f64 / 1e6),
            if q.is_finite() {
                format!("{q:.1}")
            } else {
                "inf (exact)".to_string()
            },
        ]);
    }
    println!("{}", table.render());

    println!(
        "shape check: compact splat-read cut {cut:.2}x (expect >= {TRAFFIC_CUT_BAR}x) at \
         {compact_psnr:.1} dB (floor {PSNR_FLOOR_DB} dB)"
    );
    assert!(
        cut >= TRAFFIC_CUT_BAR,
        "compact cut {cut:.2}x below the {TRAFFIC_CUT_BAR}x bar ({compact_bytes} vs {aos_bytes})"
    );
    assert!(
        compact_psnr >= PSNR_FLOOR_DB,
        "compact PSNR {compact_psnr:.2} dB below the {PSNR_FLOOR_DB} dB floor"
    );

    let mut record = ExperimentRecord::new(
        "fig_formats",
        "Splat storage formats (f32 AoS vs compact quantized) on the Building flythrough",
    );
    record.push_series(
        "splat_read_bytes_per_frame",
        vec![aos_bytes as f64, compact_bytes as f64],
    );
    record.push_series("ms_per_frame", vec![aos_ms, compact_ms]);
    record.push_series(
        "record_bytes",
        StorageFormat::ALL
            .iter()
            .map(|f| f.record_bytes(degree) as f64)
            .collect(),
    );
    record.push_series("compact_traffic_cut", vec![cut]);
    record.push_series("compact_min_psnr_db", vec![compact_psnr]);
    match record.save() {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not persist results: {e}"),
    }
}
