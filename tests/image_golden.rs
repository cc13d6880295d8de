//! Image-bits golden: pins the exact pixel bits of the engine's output
//! across commits.
//!
//! `raster_parity` compares two raster paths of one build and
//! `regression_raster` pins counters only, so a kernel change that moved
//! every pixel by one ulp in both paths alike would pass both. This
//! suite renders Building, Family and Horse (×0.002) for 60 frames each
//! at 640×360 with 32-px tiles and ReuseUpdate, and pins a 64-bit FNV-1a
//! hash over the `to_bits` of every pixel channel, in frame then
//! row-major order, plus the summed `blend_ops`, `saturated_pixels` and
//! `pixel_visits`.
//!
//! FNV-1a is spelled out here because `std`'s `DefaultHasher` is not
//! stable across Rust releases. If an intentional change moves these
//! values, re-pin them and say why in the changelog.

use neo_core::{RenderEngine, RendererConfig, StrategyKind};
use neo_scene::{presets::ScenePreset, FrameSampler, Resolution};

const FRAMES: usize = 60;

/// 64-bit FNV-1a, fed byte by byte.
struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Self {
        Self(Self::OFFSET_BASIS)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }
}

/// What one scene's 60 frames pin: the image hash and the summed
/// `(blend_ops, saturated_pixels, pixel_visits)`.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    image_fnv1a: u64,
    blend_ops: u64,
    saturated_pixels: u64,
    pixel_visits: u64,
}

fn render(preset: ScenePreset) -> Golden {
    let engine = RenderEngine::builder()
        .scene(preset.build_scaled(0.002))
        .config(RendererConfig::default().with_tile_size(32))
        .strategy(StrategyKind::ReuseUpdate)
        .build()
        .expect("golden configuration is valid");
    let sampler = FrameSampler::new(preset.trajectory(), 30.0, Resolution::Custom(640, 360));
    let mut session = engine.session();
    let mut hash = Fnv1a::new();
    let mut golden = Golden {
        image_fnv1a: 0,
        blend_ops: 0,
        saturated_pixels: 0,
        pixel_visits: 0,
    };
    for i in 0..FRAMES {
        let frame = session
            .render_frame(&sampler.frame(i))
            .expect("trajectory camera is valid");
        let image = frame.image.as_ref().expect("image rendering is on");
        for p in image.pixels() {
            for channel in [p.x, p.y, p.z] {
                hash.write(&channel.to_bits().to_le_bytes());
            }
        }
        golden.blend_ops += frame.stats.blend_ops;
        golden.saturated_pixels += frame.stats.saturated_pixels;
        golden.pixel_visits += frame.stats.pixel_visits;
    }
    golden.image_fnv1a = hash.0;
    golden
}

#[test]
fn fnv1a_matches_the_reference_vectors() {
    // FNV-1a 64 of "" and of "a" (the published test vectors), so the
    // hash below is the standard one and not a local variant.
    assert_eq!(Fnv1a::new().0, 0xcbf2_9ce4_8422_2325);
    let mut h = Fnv1a::new();
    h.write(b"a");
    assert_eq!(h.0, 0xaf63_dc4c_8601_ec8c);
}

#[test]
fn building_image_bits_are_pinned() {
    assert_eq!(
        render(ScenePreset::Building),
        Golden {
            image_fnv1a: 0x1d59_2a62_4b88_8c83,
            blend_ops: 56_470_472,
            saturated_pixels: 120_852,
            pixel_visits: 70_844_316,
        }
    );
}

#[test]
fn family_image_bits_are_pinned() {
    assert_eq!(
        render(ScenePreset::Family),
        Golden {
            image_fnv1a: 0x503c_0c1d_be60_0c92,
            blend_ops: 112_466_781,
            saturated_pixels: 814_956,
            pixel_visits: 133_927_980,
        }
    );
}

#[test]
fn horse_image_bits_are_pinned() {
    assert_eq!(
        render(ScenePreset::Horse),
        Golden {
            image_fnv1a: 0x8cc6_b3f1_f4c5_847a,
            blend_ops: 111_918_283,
            saturated_pixels: 733_071,
            pixel_visits: 130_853_745,
        }
    );
}
