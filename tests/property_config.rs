//! Hostile renderer configurations: any `RendererConfig` either fails
//! `RenderEngineBuilder::build` with `NeoError::InvalidConfig` or renders
//! two frames without panicking.
//!
//! The draws cover tile sizes 1–256, 4096 and `u32::MAX` (plus the
//! invalid 0); backgrounds with NaN, ±0.0 and ±∞ channels; the raster
//! fast path, subtiling and the image each on or off; DPS chunk sizes
//! from the invalid 0 and 1 up to `usize::MAX`; DPS passes within the
//! bound of 16 and above it up to `u32::MAX`; every sorting strategy;
//! and LOD off or on with valid and invalid settings. The camera is
//! 47×29, so border tiles clip their subtiles. Threads stay at 1 or 2.
//! Each DPS pass walks the whole table, so a pass count above the bound
//! must fail `build()` rather than run a frame that never finishes.

use neo_core::{LodConfig, NeoError, RenderEngine, RendererConfig, StrategyKind};
use neo_math::Vec3;
use neo_scene::{presets::ScenePreset, FrameSampler, GaussianCloud, Resolution};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

/// The tile sizes past the 1–256 range: the invalid 0, a huge tile and
/// the largest `u32`.
const ODD_TILE_SIZES: [u32; 3] = [0, 4096, u32::MAX];

const CHANNELS: [f32; 6] = [0.0, -0.0, 0.5, f32::NAN, f32::INFINITY, f32::NEG_INFINITY];

const CHUNK_SIZES: [usize; 6] = [0, 1, 2, 3, 256, usize::MAX];

/// The most DPS passes `DpsConfig::validate` accepts.
const MAX_DPS_PASSES: u32 = 16;

const STRATEGIES: [StrategyKind; 5] = [
    StrategyKind::FullResort,
    StrategyKind::Hierarchical,
    StrategyKind::Periodic(3),
    StrategyKind::Background(2),
    StrategyKind::ReuseUpdate,
];

const CLUSTER_SIZES: [u32; 5] = [0, 1, 7, 128, u32::MAX];

const FOOTPRINTS: [f32; 5] = [0.0, 96.0, -1.0, f32::NAN, f32::INFINITY];

fn scene() -> Arc<GaussianCloud> {
    static SCENE: OnceLock<Arc<GaussianCloud>> = OnceLock::new();
    Arc::clone(SCENE.get_or_init(|| Arc::new(ScenePreset::Family.build_scaled(0.0005))))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn any_config_is_rejected_or_renders(
        tile in 0usize..259,
        background in (0usize..6, 0usize..6, 0usize..6),
        switches in (any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>()),
        dps in (0usize..6, any::<bool>(), 0u32..=MAX_DPS_PASSES, (MAX_DPS_PASSES + 1)..=u32::MAX),
        strategy in 0usize..5,
        lod in (0usize..5, 0usize..5),
        threads in 1u32..3,
    ) {
        let (fast_path, subtiling, image, lod_on) = switches;
        let passes = if dps.1 { dps.2 } else { dps.3 };
        let tile_size = match u32::try_from(tile).expect("tile index fits u32") {
            t @ 0..=255 => t + 1,
            t => ODD_TILE_SIZES[(t - 256) as usize],
        };
        let mut config = RendererConfig::default()
            .with_tile_size(tile_size)
            .with_background(Vec3::new(
                CHANNELS[background.0],
                CHANNELS[background.1],
                CHANNELS[background.2],
            ))
            .with_raster_fast_path(fast_path)
            .with_chunk_size(CHUNK_SIZES[dps.0])
            .with_dps_passes(passes)
            .with_threads(threads);
        config.subtiling = subtiling;
        if !image {
            config = config.without_image();
        }
        if lod_on {
            config = config.with_lod(LodConfig {
                cluster_size: CLUSTER_SIZES[lod.0],
                proxy_footprint_px: FOOTPRINTS[lod.1],
            });
        }
        let built = RenderEngine::builder()
            .scene(scene())
            .config(config.clone())
            .strategy(STRATEGIES[strategy])
            .build();
        let engine = match built {
            Ok(engine) => {
                prop_assert!(passes <= MAX_DPS_PASSES, "{config:?} built with {passes} passes");
                engine
            }
            Err(NeoError::InvalidConfig(_)) => {
                prop_assert!(config.validate().is_err(), "{config:?} rejected but valid");
                return Ok(());
            }
            Err(other) => panic!("{config:?} failed with {other:?}, not InvalidConfig"),
        };
        let sampler = FrameSampler::new(
            ScenePreset::Family.trajectory(),
            30.0,
            Resolution::Custom(47, 29),
        );
        let mut session = engine.session();
        for i in 0..2 {
            let frame = session
                .render_frame(&sampler.frame(i))
                .unwrap_or_else(|e| panic!("{config:?} frame {i}: {e}"));
            prop_assert_eq!(frame.image.is_some(), image);
            if let Some(img) = &frame.image {
                prop_assert_eq!(img.pixels().len(), 47 * 29);
            }
        }
    }
}
