//! Determinism contract of the intra-frame parallel renderer: sharding a
//! frame's tiles across worker threads must produce `FrameResult`s
//! byte-identical to serial rendering — same pixels, same statistics,
//! same traffic ledger — for every sorting strategy, every thread count,
//! and every shard boundary choice.

use neo_core::{FrameResult, RenderEngine, RendererConfig, ShardPlan, StrategyKind};
use neo_scene::{presets::ScenePreset, FrameSampler, Resolution};
use proptest::prelude::*;
use std::sync::Arc;

const FRAMES: usize = 4;

fn all_strategies() -> [StrategyKind; 5] {
    [
        StrategyKind::FullResort,
        StrategyKind::Hierarchical,
        StrategyKind::Periodic(3),
        StrategyKind::Background(2),
        StrategyKind::ReuseUpdate,
    ]
}

fn engine(kind: StrategyKind, config: RendererConfig) -> RenderEngine {
    RenderEngine::builder()
        .scene(ScenePreset::Family.build_scaled(0.002))
        .config(config)
        .strategy(kind)
        .build()
        .expect("test configuration is valid")
}

fn sampler() -> FrameSampler {
    // 160x96 at 16-px tiles → 10x6 = 60 tiles, enough for real sharding.
    FrameSampler::new(
        ScenePreset::Family.trajectory(),
        30.0,
        Resolution::Custom(160, 96),
    )
}

/// Renders `FRAMES` frames of the trajectory with an explicit shard plan
/// applied to every frame.
fn render_with_plan(kind: StrategyKind, plan: &ShardPlan) -> Vec<FrameResult> {
    let engine = engine(kind, RendererConfig::default().with_tile_size(16));
    let sampler = sampler();
    let mut session = engine.session();
    (0..FRAMES)
        .map(|i| {
            session
                .render_frame_with_plan(&sampler.frame(i), plan)
                .expect("trajectory camera is valid")
        })
        .collect()
}

#[test]
fn all_strategies_are_byte_identical_across_thread_counts() {
    for kind in all_strategies() {
        let serial = render_with_plan(kind, &ShardPlan::serial());
        assert!(
            serial.iter().all(|f| f.image.is_some()),
            "suite must compare real images"
        );
        for threads in [2usize, 4, 7] {
            let sharded = render_with_plan(kind, &ShardPlan::balanced(threads));
            assert_eq!(
                serial, sharded,
                "{kind:?} diverged from serial at {threads} threads"
            );
        }
    }
}

#[test]
fn config_level_thread_counts_match_serial() {
    // The user-facing knob: `with_threads(n)` is clamped to the machine's
    // available parallelism, but whatever it resolves to must not change
    // output.
    for kind in all_strategies() {
        let scene = Arc::new(ScenePreset::Family.build_scaled(0.002));
        let sampler = sampler();
        let mut sessions: Vec<_> = [0u32, 1, 2, 4, 7]
            .iter()
            .map(|&threads| {
                RenderEngine::builder()
                    .scene(Arc::clone(&scene))
                    .config(
                        RendererConfig::default()
                            .with_tile_size(16)
                            .with_threads(threads),
                    )
                    .strategy(kind)
                    .build()
                    .expect("test configuration is valid")
                    .session()
            })
            .collect();
        for i in 0..FRAMES {
            let cam = sampler.frame(i);
            let frames: Vec<_> = sessions
                .iter_mut()
                .map(|s| s.render_frame(&cam).expect("valid camera"))
                .collect();
            for f in &frames[1..] {
                assert_eq!(&frames[0], f, "{kind:?} diverged on frame {i}");
            }
        }
    }
}

#[test]
fn workload_statistics_mode_is_thread_invariant() {
    // without_image() skips rasterization; sorting state and the traffic
    // ledger must still be shard-invariant.
    for kind in [StrategyKind::ReuseUpdate, StrategyKind::FullResort] {
        let make = || {
            engine(
                kind,
                RendererConfig::default().with_tile_size(16).without_image(),
            )
        };
        let sampler = sampler();
        let mut serial = make().session();
        let mut sharded = make().session();
        for i in 0..FRAMES {
            let cam = sampler.frame(i);
            let a = serial.render_frame(&cam).unwrap();
            let b = sharded
                .render_frame_with_plan(&cam, &ShardPlan::balanced(4))
                .unwrap();
            assert_eq!(a, b, "{kind:?} stats diverged on frame {i}");
        }
    }
}

#[test]
fn replanning_every_frame_matches_serial() {
    // A session whose shard plan changes every frame must render what a
    // serial session renders: plans are pure scheduling, and each tile's
    // sorter state (tables, refresh phase, lagged orders) carries across
    // frames whatever thread ran the tile last.
    let plans = [
        ShardPlan::balanced(4),
        ShardPlan::explicit(vec![5, 11, 23]),
        ShardPlan::balanced(7),
        ShardPlan::explicit(vec![1, 1, 2, 59]),
    ];
    for kind in [
        StrategyKind::ReuseUpdate,
        StrategyKind::Periodic(3),
        StrategyKind::Background(2),
    ] {
        let serial = render_with_plan(kind, &ShardPlan::serial());
        let engine = engine(kind, RendererConfig::default().with_tile_size(16));
        let sampler = sampler();
        let mut session = engine.session();
        for (i, plan) in plans.iter().cycle().take(FRAMES).enumerate() {
            let replanned = session
                .render_frame_with_plan(&sampler.frame(i), plan)
                .expect("trajectory camera is valid");
            assert_eq!(
                serial[i], replanned,
                "{kind:?} diverged on frame {i} under a changed plan"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary shard boundaries — unsorted, duplicated, out of range —
    /// never change the rendered output. This is the heart of the
    /// determinism contract: shard geometry is a pure scheduling choice.
    #[test]
    fn random_shard_boundaries_never_change_output(
        cuts in prop::collection::vec(0usize..80, 0..8),
        kind_index in 0usize..5,
    ) {
        let kind = all_strategies()[kind_index];
        let serial = render_with_plan(kind, &ShardPlan::serial());
        let sharded = render_with_plan(kind, &ShardPlan::explicit(cuts.clone()));
        prop_assert_eq!(
            serial,
            sharded,
            "{:?} diverged for cuts {:?}",
            kind,
            cuts
        );
    }
}
