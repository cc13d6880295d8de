//! Contracts of the warm-start temporal sorting cache:
//!
//! 1. It preserves the intra-frame determinism contract: output is
//!    byte-identical across thread counts and shard plans, for all five
//!    built-in strategies.
//! 2. Over an exact sorter it renders byte-identical images to cold
//!    sorting (the repaired order *is* the exact order) while cutting
//!    sorting traffic, and the cache survives re-planning frame to frame.

use neo_core::{
    FrameResult, RenderEngine, RendererConfig, ShardPlan, StrategyKind, WarmStartConfig,
};
use neo_scene::{presets::ScenePreset, FrameSampler, Resolution};

const FRAMES: usize = 5;

fn all_strategies() -> [StrategyKind; 5] {
    [
        StrategyKind::FullResort,
        StrategyKind::Hierarchical,
        StrategyKind::Periodic(3),
        StrategyKind::Background(2),
        StrategyKind::ReuseUpdate,
    ]
}

fn sampler() -> FrameSampler {
    // 160x96 at 16-px tiles → 10x6 = 60 tiles, enough for real sharding.
    FrameSampler::new(
        ScenePreset::Family.trajectory(),
        30.0,
        Resolution::Custom(160, 96),
    )
}

fn engine(kind: StrategyKind, config: RendererConfig) -> RenderEngine {
    RenderEngine::builder()
        .scene(ScenePreset::Family.build_scaled(0.002))
        .config(config)
        .strategy(kind)
        .build()
        .expect("test configuration is valid")
}

fn render(kind: StrategyKind, config: RendererConfig, plan: &ShardPlan) -> Vec<FrameResult> {
    let sampler = sampler();
    let mut session = engine(kind, config).session();
    (0..FRAMES)
        .map(|i| {
            session
                .render_frame_with_plan(&sampler.frame(i), plan)
                .expect("trajectory camera is valid")
        })
        .collect()
}

#[test]
fn repair_mode_is_deterministic_across_thread_counts() {
    let config = RendererConfig::default()
        .with_tile_size(16)
        .with_temporal_cache(WarmStartConfig::default());
    for kind in all_strategies() {
        let serial = render(kind, config.clone(), &ShardPlan::serial());
        for threads in [2usize, 4, 7] {
            let sharded = render(kind, config.clone(), &ShardPlan::balanced(threads));
            assert_eq!(
                serial, sharded,
                "{kind:?} repair-mode warm start diverged at {threads} thread(s)"
            );
        }
        // Explicit degenerate cut lists must not disturb the cache either.
        let explicit = render(
            kind,
            config.clone(),
            &ShardPlan::explicit(vec![7, 3, 3, 99]),
        );
        assert_eq!(serial, explicit, "{kind:?} diverged under explicit cuts");
    }
}

#[test]
fn repair_over_exact_sorter_renders_cold_images_with_less_traffic() {
    let sampler = sampler();
    let base = RendererConfig::default().with_tile_size(16);
    let mut cold = engine(StrategyKind::FullResort, base.clone()).session();
    let mut warm = engine(
        StrategyKind::FullResort,
        base.with_temporal_cache(WarmStartConfig::default()),
    )
    .session();
    let mut cold_bytes = 0u64;
    let mut warm_bytes = 0u64;
    for i in 0..FRAMES {
        let cam = sampler.frame(i);
        let a = cold.render_frame(&cam).unwrap();
        let b = warm.render_frame(&cam).unwrap();
        assert_eq!(
            a.image, b.image,
            "repaired order must be the exact order (frame {i})"
        );
        assert_eq!(a.stats.blend_ops, b.stats.blend_ops, "frame {i}");
        if i == 0 {
            // First frame: every tile is a cold cache miss.
            assert_eq!(b.temporal.warm_tiles, 0);
            assert!(b.temporal.cold_tiles > 0);
        } else {
            cold_bytes += a.sort_cost.bytes_total();
            warm_bytes += b.sort_cost.bytes_total();
            assert!(
                b.temporal.hit_rate() > 0.5,
                "frame {i} hit rate {:.3}",
                b.temporal.hit_rate()
            );
            assert!(b.temporal.reused_entries > 0, "frame {i}");
        }
        // Cache-less sessions report all-zero temporal stats.
        assert_eq!(a.temporal.cached_tiles(), 0, "frame {i}");
    }
    assert!(
        warm_bytes * 2 < cold_bytes,
        "warm sorting traffic {warm_bytes} should be well under cold {cold_bytes}"
    );
}

#[test]
fn cache_survives_replanning_between_frames() {
    // Changing the shard plan every frame must not disturb the per-tile
    // caches: plans are pure scheduling, the cache is tile state.
    let config = RendererConfig::default()
        .with_tile_size(16)
        .with_temporal_cache(WarmStartConfig::default());
    let sampler = sampler();
    let mut fixed = engine(StrategyKind::FullResort, config.clone()).session();
    let mut replanned = engine(StrategyKind::FullResort, config).session();
    let plans = [
        ShardPlan::serial(),
        ShardPlan::balanced(4),
        ShardPlan::explicit(vec![5, 11, 23]),
        ShardPlan::balanced(7),
        ShardPlan::explicit(vec![1, 1, 2, 59]),
    ];
    for (i, plan) in plans.iter().enumerate().take(FRAMES) {
        let cam = sampler.frame(i);
        let a = fixed.render_frame(&cam).unwrap();
        let b = replanned.render_frame_with_plan(&cam, plan).unwrap();
        assert_eq!(a, b, "re-planning changed output on frame {i}");
        if i > 0 {
            assert!(b.temporal.warm_tiles > 0, "cache lost by re-planning");
        }
    }
}

#[test]
fn warm_start_composes_with_custom_strategy_factories() {
    // The cache wraps *factories*, so out-of-crate strategies get it too.
    use neo_sort::strategies::{FrameOrder, SortingStrategy};
    use neo_sort::{SortCost, TableEntry};

    #[derive(Debug)]
    struct SortedPassthrough;
    impl SortingStrategy for SortedPassthrough {
        fn name(&self) -> &str {
            "sorted-passthrough"
        }
        fn begin_frame(&mut self, _frame: u64) {}
        fn order(&mut self, current: &[(u32, f32)]) -> FrameOrder {
            let mut order: Vec<TableEntry> = current
                .iter()
                .map(|&(id, d)| TableEntry::new(id, d))
                .collect();
            order.sort_by_key(TableEntry::key);
            FrameOrder {
                order,
                cost: SortCost::new(),
                incoming: 0,
                outgoing: 0,
                reuse: None,
            }
        }
    }

    let engine = RenderEngine::builder()
        .scene(ScenePreset::Family.build_scaled(0.002))
        .config(
            RendererConfig::default()
                .with_tile_size(16)
                .with_temporal_cache(WarmStartConfig::default()),
        )
        .strategy_factory("sorted-passthrough", || Box::new(SortedPassthrough))
        .build()
        .unwrap();
    assert_eq!(engine.strategy_name(), "warm-start(sorted-passthrough)");
    let sampler = sampler();
    let mut session = engine.session();
    session.render_frame(&sampler.frame(0)).unwrap();
    let f1 = session.render_frame(&sampler.frame(1)).unwrap();
    assert!(f1.temporal.hit_rate() > 0.5);
}
