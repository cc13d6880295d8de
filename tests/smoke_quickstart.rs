//! Smoke test mirroring `examples/quickstart.rs`: build a small synthetic
//! scene, render through the `RenderEngine`/`RenderSession` front door
//! with Neo's reuse-and-update strategy and the full-resort baseline, and
//! check the images against the reference pipeline — bit for bit where
//! both sort every tile from scratch, at sane PSNR where reuse kicks in.

use neo_core::{FrameResult, RenderEngine, RendererConfig, StrategyKind};
use neo_metrics::psnr;
use neo_pipeline::{render_reference, RenderConfig};
use neo_scene::{presets::ScenePreset, Camera, FrameSampler, GaussianCloud, Resolution};
use std::sync::Arc;

/// Asserts `frame` has exactly the reference pipeline's pixels and
/// blend workload for `cam`.
fn assert_matches_reference(
    frame: &FrameResult,
    cloud: &GaussianCloud,
    cam: &Camera,
    config: &RenderConfig,
    what: &str,
) {
    let (reference, ref_stats) = render_reference(cloud, cam, config);
    assert!(ref_stats.projected > 0, "{what}: scene must be visible");
    let image = frame.image.as_ref().expect("image requested by default");
    assert!(image == &reference, "{what}: image differs from reference");
    assert_eq!(frame.stats.projected, ref_stats.projected, "{what}");
    assert_eq!(frame.stats.duplicates, ref_stats.duplicates, "{what}");
    assert_eq!(frame.stats.blend_ops, ref_stats.blend_ops, "{what}");
    assert_eq!(frame.stats.pixel_visits, ref_stats.pixel_visits, "{what}");
}

#[test]
fn quickstart_one_frame_matches_reference() {
    let scene = ScenePreset::Family;
    let config = RendererConfig::default().with_tile_size(32);
    // Same tile grid on both sides; every other raster knob is at its
    // default in both configs.
    let reference_config = RenderConfig {
        tile_size: config.tile_size,
        ..RenderConfig::default()
    };
    let neo_engine = RenderEngine::builder()
        .scene(scene.build_scaled(0.002))
        .config(config.clone())
        .strategy(StrategyKind::ReuseUpdate)
        .build()
        .expect("valid config");
    let baseline_engine = RenderEngine::builder()
        .scene(Arc::clone(neo_engine.scene()))
        .config(config)
        .strategy(StrategyKind::FullResort)
        .build()
        .expect("valid config");
    let cloud = Arc::clone(neo_engine.scene());
    assert!(!cloud.is_empty());
    let sampler = FrameSampler::new(scene.trajectory(), 30.0, Resolution::Custom(160, 90));

    // Frame 0: reuse-and-update has no tables yet, so it sorts every tile
    // cold — the same order the reference's per-tile stable sort gives.
    let cam = sampler.frame(0);
    let result = neo_engine
        .session()
        .render_frame(&cam)
        .expect("valid camera");
    let image = result.image.as_ref().expect("image requested by default");
    assert_eq!(image.width(), 160);
    assert_eq!(image.height(), 90);
    for px in image.pixels() {
        assert!(px.x.is_finite() && px.y.is_finite() && px.z.is_finite());
    }
    assert_matches_reference(&result, &cloud, &cam, &reference_config, "reuse frame 0");

    // The full-resort baseline re-sorts from scratch every frame, so it
    // stays on the reference across the sequence.
    let mut baseline = baseline_engine.session();
    for i in 0..4 {
        let cam = sampler.frame(i);
        let frame = baseline.render_frame(&cam).expect("valid camera");
        let what = format!("full resort frame {i}");
        assert_matches_reference(&frame, &cloud, &cam, &reference_config, &what);
    }
}

#[test]
fn quickstart_reuse_matches_baseline_over_frames() {
    // The heart of the quickstart demo: after the warm-up frame, Neo's
    // reuse-and-update path keeps image quality at baseline levels. Both
    // engines share one scene Arc.
    let scene = ScenePreset::Family;
    let sampler = FrameSampler::new(scene.trajectory(), 30.0, Resolution::Custom(160, 90));
    let config = RendererConfig::default().with_tile_size(32);

    let neo_engine = RenderEngine::builder()
        .scene(scene.build_scaled(0.002))
        .config(config.clone())
        .strategy(StrategyKind::ReuseUpdate)
        .build()
        .expect("valid config");
    let baseline_engine = RenderEngine::builder()
        .scene(Arc::clone(neo_engine.scene()))
        .config(config)
        .strategy(StrategyKind::FullResort)
        .build()
        .expect("valid config");
    let mut neo = neo_engine.session();
    let mut baseline = baseline_engine.session();

    for i in 0..4 {
        let cam = sampler.frame(i);
        let fn_ = neo.render_frame(&cam).expect("valid camera");
        let fb = baseline.render_frame(&cam).expect("valid camera");
        let p = psnr(
            fb.image.as_ref().expect("baseline image"),
            fn_.image.as_ref().expect("neo image"),
        );
        assert!(!p.is_nan());
        assert!(p > 30.0, "frame {i}: neo vs baseline PSNR {p} dB");
    }
}

#[test]
fn quickstart_stream_is_equivalent_to_manual_loop() {
    // FrameStream is sugar over render_frame: same sampler, same frames.
    let scene = ScenePreset::Family;
    let sampler = FrameSampler::new(scene.trajectory(), 30.0, Resolution::Custom(160, 90));
    let engine = RenderEngine::builder()
        .scene(scene.build_scaled(0.002))
        .config(RendererConfig::default().with_tile_size(32))
        .build()
        .expect("valid config");

    let mut manual = engine.session();
    let manual_frames: Vec<_> = (0..3)
        .map(|i| manual.render_frame(&sampler.frame(i)).unwrap())
        .collect();

    let mut streamed = engine.session();
    let streamed_frames: Vec<_> = streamed
        .stream(&sampler, 3)
        .collect::<Result<_, _>>()
        .unwrap();

    assert_eq!(manual_frames, streamed_frames);
}
