//! Concurrency suite for the API redesign: N `RenderSession`s sharing a
//! single `Arc<GaussianCloud>` render deterministically from
//! `std::thread::scope` and match a serial run frame-for-frame.
//!
//! Sessions carry all mutable state (per-tile tables), so concurrent
//! rendering needs no locks — the scene is immutable and shared.

use neo_core::{FrameResult, RenderEngine, RendererConfig, StrategyKind};
use neo_scene::{presets::ScenePreset, FrameSampler, Resolution};
use std::sync::Arc;

const SESSIONS: usize = 4;
const FRAMES: usize = 5;

fn build_engine(kind: StrategyKind) -> RenderEngine {
    RenderEngine::builder()
        .scene(ScenePreset::Family.build_scaled(0.002))
        .config(RendererConfig::default().with_tile_size(32))
        .strategy(kind)
        .build()
        .expect("valid config")
}

fn sampler_for(speed: f32) -> FrameSampler {
    FrameSampler::new(
        ScenePreset::Family.trajectory(),
        30.0,
        Resolution::Custom(160, 96),
    )
    .with_speed(speed)
}

/// Renders `FRAMES` frames in a fresh session at the given camera speed.
fn render_serial(engine: &RenderEngine, speed: f32) -> Vec<FrameResult> {
    let sampler = sampler_for(speed);
    let mut session = engine.session();
    (0..FRAMES)
        .map(|i| session.render_frame(&sampler.frame(i)).expect("valid"))
        .collect()
}

#[test]
fn concurrent_sessions_match_serial_runs() {
    let engine = build_engine(StrategyKind::ReuseUpdate);

    // Each session renders the trajectory at a different camera speed, so
    // the sessions genuinely diverge (different churn, different tables).
    let speeds: Vec<f32> = (0..SESSIONS).map(|i| 1.0 + i as f32).collect();
    let serial: Vec<Vec<FrameResult>> = speeds.iter().map(|&s| render_serial(&engine, s)).collect();

    let parallel: Vec<Vec<FrameResult>> = std::thread::scope(|scope| {
        let handles: Vec<_> = speeds
            .iter()
            .map(|&speed| {
                let mut session = engine.session();
                scope.spawn(move || {
                    let sampler = sampler_for(speed);
                    (0..FRAMES)
                        .map(|i| session.render_frame(&sampler.frame(i)).expect("valid"))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (s, (serial_frames, parallel_frames)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(
            serial_frames, parallel_frames,
            "session {s}: concurrent run diverged from serial run"
        );
    }
    // Sanity: different speeds produced different results (the test would
    // be vacuous if every session rendered identical frames).
    assert_ne!(serial[0], serial[1]);
}

#[test]
fn concurrent_sessions_share_one_scene_allocation() {
    let engine = build_engine(StrategyKind::ReuseUpdate);
    let base = Arc::strong_count(engine.scene());
    let sessions: Vec<_> = (0..SESSIONS).map(|_| engine.session()).collect();
    // Each session holds one handle to the same allocation: the scene.
    assert_eq!(Arc::strong_count(engine.scene()), base + SESSIONS);
    for s in &sessions {
        assert_eq!(Arc::as_ptr(s.scene()), Arc::as_ptr(engine.scene()));
    }
    drop(sessions);
    assert_eq!(Arc::strong_count(engine.scene()), base);
}

#[test]
fn concurrent_full_resort_sessions_are_deterministic_too() {
    // Stateless strategies must also be unaffected by thread interleaving.
    let engine = build_engine(StrategyKind::FullResort);
    let serial = render_serial(&engine, 1.0);
    let parallel: Vec<Vec<FrameResult>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SESSIONS)
            .map(|_| {
                let mut session = engine.session();
                scope.spawn(move || {
                    let sampler = sampler_for(1.0);
                    (0..FRAMES)
                        .map(|i| session.render_frame(&sampler.frame(i)).expect("valid"))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for run in &parallel {
        assert_eq!(&serial, run, "identical inputs must render identically");
    }
}
