//! Byte-identity contract of the exact-clipped row-interval
//! rasterization fast path (`RendererConfig::raster_fast_path`, default
//! on): against the legacy every-pixel-per-splat blend loop, the fast
//! path must produce the same pixels and the same statistics — across
//! all five sorting strategies, subtiling on and off, and 1 or 4 worker
//! threads. The only quantity allowed to move is
//! `FrameStats::pixel_visits`, the work metric the fast path exists to
//! reduce (and it must only ever shrink).
//!
//! CI runs this suite in release mode too: the contract compares floats
//! byte-for-byte and must hold under the optimized float paths.

use neo_core::{FrameResult, RenderEngine, RendererConfig, ShardPlan, StrategyKind};
use neo_pipeline::RenderConfig;
use neo_scene::{presets::ScenePreset, FrameSampler, GaussianCloud, Resolution};
use proptest::prelude::*;
use std::sync::Arc;

const FRAMES: usize = 3;

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
    FrameSampler::new(
        ScenePreset::Family.trajectory(),
        30.0,
        Resolution::Custom(160, 96),
    )
}

/// Renders a short trajectory with the given strategy/config/plan.
fn render(
    scene: &Arc<GaussianCloud>,
    kind: StrategyKind,
    config: RendererConfig,
    plan: &ShardPlan,
) -> Vec<FrameResult> {
    let engine = RenderEngine::builder()
        .scene(Arc::clone(scene))
        .config(config)
        .strategy(kind)
        .build()
        .expect("test configuration is valid");
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

/// Asserts two frame sequences are byte-identical except for
/// `pixel_visits`, and that the fast path's visits never exceed the
/// legacy loop's.
fn assert_identical_modulo_pixel_visits(fast: &[FrameResult], legacy: &[FrameResult], ctx: &str) {
    assert_eq!(fast.len(), legacy.len());
    for (i, (f, l)) in fast.iter().zip(legacy).enumerate() {
        assert!(
            f.stats.pixel_visits <= l.stats.pixel_visits,
            "{ctx}: frame {i} fast path visited more pixels ({} > {})",
            f.stats.pixel_visits,
            l.stats.pixel_visits
        );
        let mut f = f.clone();
        f.stats.pixel_visits = l.stats.pixel_visits;
        assert_eq!(&f, l, "{ctx}: frame {i} diverged beyond pixel_visits");
    }
}

#[test]
fn fast_path_matches_legacy_for_all_strategies_subtiling_and_threads() {
    let scene = Arc::new(ScenePreset::Family.build_scaled(0.002));
    for kind in all_strategies() {
        for subtiling in [true, false] {
            for threads in [1usize, 4] {
                let mut fast_cfg = RendererConfig::default().with_tile_size(16);
                fast_cfg.subtiling = subtiling;
                let legacy_cfg = fast_cfg.clone().with_raster_fast_path(false);
                let plan = ShardPlan::balanced(threads);
                let fast = render(&scene, kind, fast_cfg, &plan);
                let legacy = render(&scene, kind, legacy_cfg, &plan);
                assert!(
                    fast.iter().all(|f| f.image.is_some()),
                    "suite must compare real images"
                );
                assert_identical_modulo_pixel_visits(
                    &fast,
                    &legacy,
                    &format!("{kind:?} subtiling={subtiling} threads={threads}"),
                );
                // The clip must actually bite on a real scene, not just
                // tie: this is the quantity fig_raster measures.
                let fv: u64 = fast.iter().map(|f| f.stats.pixel_visits).sum();
                let lv: u64 = legacy.iter().map(|f| f.stats.pixel_visits).sum();
                assert!(
                    fv < lv,
                    "{kind:?}: fast path did not reduce pixel visits ({fv} vs {lv})"
                );
            }
        }
    }
}

#[test]
fn fast_path_pixel_visits_are_shard_invariant() {
    // pixel_visits joins the determinism contract: it is a per-tile
    // integer sum, so shard geometry must not change it.
    let scene = Arc::new(ScenePreset::Family.build_scaled(0.002));
    let cfg = RendererConfig::default().with_tile_size(16);
    let serial = render(
        &scene,
        StrategyKind::ReuseUpdate,
        cfg.clone(),
        &ShardPlan::serial(),
    );
    let sharded = render(
        &scene,
        StrategyKind::ReuseUpdate,
        cfg,
        &ShardPlan::explicit(vec![3, 11, 40]),
    );
    assert_eq!(serial, sharded);
}

/// Tiles spanning more than 64 subtiles degrade to a conservative
/// whole-tile bitmap instead of silently dropping splats whose coverage
/// lies beyond bit 63.
#[test]
fn oversized_tiles_never_drop_covered_pixels() {
    use neo_math::{Vec2, Vec3};
    use neo_pipeline::{
        rasterize_tile_with_scratch, Image, ProjectedGaussian, RasterScratch, TileGrid,
    };

    // 16x16 subtiles per tile; the splat covers only the bottom-right of
    // the tile, so every subtile it touches has bit index ≥ 64.
    let grid = TileGrid::new(128, 128, 128);
    let splat = ProjectedGaussian {
        id: 0,
        mean2d: Vec2::new(110.0, 110.0),
        depth: 1.0,
        conic: (0.02, 0.0, 0.02),
        radius: 15.0,
        color: Vec3::new(0.9, 0.1, 0.2),
        opacity: 0.95,
    };
    for fast in [true, false] {
        let with_subtiling = RenderConfig {
            tile_size: 128,
            raster_fast_path: fast,
            ..Default::default()
        };
        let without = RenderConfig {
            subtiling: false,
            ..with_subtiling.clone()
        };
        let raster = |config: &RenderConfig| {
            let mut scratch = RasterScratch::new();
            let stats = rasterize_tile_with_scratch(&mut scratch, &grid, 0, &[&splat], config);
            let mut image = Image::new(128, 128, Vec3::ZERO);
            scratch.blit_to(&mut image, &grid, 0);
            (image, stats)
        };
        let (img_a, a) = raster(&with_subtiling);
        let (img_b, b) = raster(&without);
        assert!(a.blend_ops > 0, "splat was wrongly dropped (fast={fast})");
        assert_eq!(a.blend_ops, b.blend_ops);
        assert_eq!(
            img_a, img_b,
            "subtiling skipped covered pixels (fast={fast})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random scene scale × strategy × tile size: engine output with the
    /// fast path is byte-identical (modulo pixel_visits) to the legacy
    /// loop, frame after stateful frame.
    #[test]
    fn random_configs_stay_byte_identical(
        kind_index in 0usize..5,
        tile_index in 0usize..3,
        scale in 0.001f64..0.004,
        threads in 1usize..5,
    ) {
        let kind = all_strategies()[kind_index];
        let tile_size = [16u32, 32, 64][tile_index];
        let scene = Arc::new(ScenePreset::Family.build_scaled(scale));
        let cfg = RendererConfig::default().with_tile_size(tile_size);
        let plan = ShardPlan::balanced(threads);
        let fast = render(&scene, kind, cfg.clone(), &plan);
        let legacy = render(&scene, kind, cfg.with_raster_fast_path(false), &plan);
        for (i, (f, l)) in fast.iter().zip(&legacy).enumerate() {
            prop_assert!(f.stats.pixel_visits <= l.stats.pixel_visits);
            let mut f = f.clone();
            f.stats.pixel_visits = l.stats.pixel_visits;
            prop_assert_eq!(&f, l, "frame {} diverged ({:?})", i, kind);
        }
    }
}
