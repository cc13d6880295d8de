//! Smoke test mirroring `examples/quickstart.rs`: build a small synthetic
//! scene, render through the `RenderEngine`/`RenderSession` front door
//! with Neo's reuse-and-update strategy and the full-resort baseline, and
//! check them against each other and against the independent oracle —
//! bit for bit where both sort every tile from scratch, within the
//! oracle bound for the baseline, at sane PSNR where reuse kicks in.

use neo_core::{RenderEngine, RendererConfig, StrategyKind};
use neo_math::Vec3;
use neo_metrics::psnr;
use neo_pipeline::{project_storage, render_oracle};
use neo_scene::{presets::ScenePreset, FrameSampler, Resolution};
use std::sync::Arc;

/// The preset-scene bounds of `tests/oracle_differential.rs`, which
/// states how they were measured.
const ORACLE_MAX_ABS: f32 = 0.0093;
const ORACLE_MIN_PSNR_DB: f64 = 64.7;

#[test]
fn quickstart_one_frame_matches_full_resort() {
    let scene = ScenePreset::Family;
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
    let cloud = Arc::clone(neo_engine.scene());
    assert!(!cloud.is_empty());
    let sampler = FrameSampler::new(scene.trajectory(), 30.0, Resolution::Custom(160, 90));

    // Frame 0: reuse-and-update has no tables yet, so it sorts every tile
    // cold — the same order the full resort gives.
    let cam = sampler.frame(0);
    let neo = neo_engine
        .session()
        .render_frame(&cam)
        .expect("valid camera");
    let image = neo.image.as_ref().expect("image requested by default");
    assert_eq!(image.width(), 160);
    assert_eq!(image.height(), 90);
    for px in image.pixels() {
        assert!(px.x.is_finite() && px.y.is_finite() && px.z.is_finite());
    }
    let mut baseline = baseline_engine.session();
    let full = baseline.render_frame(&cam).expect("valid camera");
    assert!(neo.stats.projected > 0, "scene must be visible");
    assert!(neo.image == full.image, "reuse frame 0 image differs");
    assert_eq!(neo.stats.projected, full.stats.projected);
    assert_eq!(neo.stats.duplicates, full.stats.duplicates);
    assert_eq!(neo.stats.blend_ops, full.stats.blend_ops);
    assert_eq!(neo.stats.saturated_pixels, full.stats.saturated_pixels);
    assert_eq!(neo.stats.pixel_visits, full.stats.pixel_visits);

    // The full-resort baseline re-sorts from scratch every frame, so it
    // stays within the oracle bound across the sequence.
    for i in 0..4 {
        let cam = sampler.frame(i);
        let frame = if i == 0 {
            full.clone()
        } else {
            baseline.render_frame(&cam).expect("valid camera")
        };
        let image = frame.image.as_ref().expect("image requested by default");
        let truth = render_oracle(&project_storage(&cam, cloud.as_ref()), 160, 90, Vec3::ZERO);
        let max_abs = image
            .pixels()
            .iter()
            .zip(truth.pixels())
            .map(|(a, b)| (*a - *b).abs().max_element())
            .fold(0.0f32, f32::max);
        let p = psnr(image, &truth);
        println!("full resort frame {i}: max-abs {max_abs:.5}, PSNR {p:.2} dB");
        assert!(max_abs <= ORACLE_MAX_ABS, "frame {i}: max-abs {max_abs}");
        assert!(p >= ORACLE_MIN_PSNR_DB, "frame {i}: PSNR {p} dB");
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
