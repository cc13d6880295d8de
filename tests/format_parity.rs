//! Cross-format parity suite: the compact quantized backend must clear
//! the pinned PSNR floor against the default f32 AoS backend, the NEOG
//! codec must round-trip both storage formats across SH degrees 0–3 —
//! including subnormal and extreme coefficient values — and every
//! in-memory backend must charge the ledger the record size its wire
//! format stores.

use neo_core::{RenderEngine, RendererConfig, StorageFormat, StrategyKind};
use neo_math::sh::{basis_count, ShCoefficients, MAX_COEFFS};
use neo_math::{Quat, Vec3};
use neo_metrics::psnr;
use neo_scene::{
    io, presets::ScenePreset, CloudStorage, CompactCloud, FrameSampler, Gaussian, GaussianCloud,
    Resolution,
};
use proptest::prelude::*;
use std::sync::Arc;

/// The quality bar the compact format must clear on a real render
/// (mirrors the `fig_formats` bench floor).
const COMPACT_PSNR_FLOOR_DB: f64 = 35.0;

fn test_scene() -> Arc<GaussianCloud> {
    Arc::new(ScenePreset::Family.build_scaled(0.002))
}

fn test_sampler() -> FrameSampler {
    FrameSampler::new(
        ScenePreset::Family.trajectory(),
        30.0,
        Resolution::Custom(160, 96),
    )
}

/// The first three frames of the Family trajectory under Neo's
/// reuse-and-update sort.
fn render_frames(cloud: &Arc<GaussianCloud>, format: StorageFormat) -> Vec<neo_core::FrameResult> {
    let engine = RenderEngine::builder()
        .scene(Arc::clone(cloud))
        .config(
            RendererConfig::default()
                .with_tile_size(32)
                .with_storage(format),
        )
        .strategy(StrategyKind::ReuseUpdate)
        .build()
        .expect("valid test configuration");
    let sampler = test_sampler();
    let mut session = engine.session();
    (0..3)
        .map(|i| session.render_frame(&sampler.frame(i)).expect("camera"))
        .collect()
}

#[test]
fn compact_render_clears_the_psnr_floor() {
    let cloud = test_scene();
    let aos = render_frames(&cloud, StorageFormat::AosF32);
    let compact = render_frames(&cloud, StorageFormat::Compact);
    for (i, (a, c)) in aos.iter().zip(&compact).enumerate() {
        let q = psnr(
            a.image.as_ref().expect("image enabled"),
            c.image.as_ref().expect("image enabled"),
        );
        assert!(
            q >= COMPACT_PSNR_FLOOR_DB,
            "compact frame {i} at {q:.2} dB, below the {COMPACT_PSNR_FLOOR_DB} dB floor"
        );
    }
}

/// A Gaussian with full-range SH coefficients at an arbitrary degree,
/// optionally seeded with subnormal and extreme (f16-overflowing) values.
fn arb_gaussian_with_degree() -> impl Strategy<Value = Gaussian> {
    (
        (-100.0f32..100.0, -100.0f32..100.0, -100.0f32..100.0),
        (0.001f32..5.0, 0.001f32..5.0, 0.001f32..5.0),
        (-1.0f32..1.0, -1.0f32..1.0, -1.0f32..1.0, -1.0f32..1.0),
        0.0f32..=1.0,
        0usize..=3,
        prop::collection::vec(-4.0f32..4.0, 3 * MAX_COEFFS),
        // Index selecting a coefficient to overwrite with a special
        // value, and which special value to use.
        (0usize..3 * MAX_COEFFS, 0usize..4),
    )
        .prop_map(|(m, s, q, opacity, degree, sh_vals, (spot, special))| {
            let mut coeffs = [[0.0f32; MAX_COEFFS]; 3];
            for c in 0..3 {
                for i in 0..basis_count(degree) {
                    coeffs[c][i] = sh_vals[c * MAX_COEFFS + i];
                }
            }
            // Exercise the encoder's edge cases: subnormal f32s, values
            // beyond f16 range, and negative zero.
            let (sc, si) = (spot / MAX_COEFFS, spot % MAX_COEFFS);
            if si < basis_count(degree) {
                coeffs[sc][si] = match special {
                    0 => 1.0e-40,   // f32 subnormal, flushes to 0 in f16
                    1 => 1.0e30,    // far beyond f16 max: saturates
                    2 => -65_520.0, // first value that would round to -inf
                    _ => -0.0,
                };
            }
            Gaussian {
                mean: Vec3::new(m.0, m.1, m.2),
                scale: Vec3::new(s.0, s.1, s.2),
                rotation: Quat::new(q.0.max(0.01), q.1, q.2, q.3).normalized(),
                opacity,
                sh: ShCoefficients { coeffs, degree },
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The v1 (AoS f32) encoding is lossless for any valid cloud at any
    /// mix of SH degrees (records homogenize to the cloud max degree
    /// with zero padding, which `eval` ignores).
    #[test]
    fn f32_formats_roundtrip_losslessly(
        gaussians in prop::collection::vec(arb_gaussian_with_degree(), 0..24),
    ) {
        let cloud = GaussianCloud::from_gaussians(gaussians);
        let max_degree = cloud.max_sh_degree();

        let v1 = io::try_encode_cloud(&cloud).expect("encode v1");
        let back = io::decode_cloud(&v1).expect("decode v1");
        prop_assert_eq!(back.len(), cloud.len());
        for ((_, a), (_, b)) in cloud.iter().zip(back.iter()) {
            prop_assert_eq!(b.sh.degree, max_degree);
            prop_assert_eq!(a.mean, b.mean);
            prop_assert_eq!(a.scale, b.scale);
            prop_assert_eq!(a.rotation, b.rotation);
            prop_assert_eq!(a.opacity, b.opacity);
            for c in 0..3 {
                for i in 0..MAX_COEFFS {
                    let want = if i < basis_count(a.sh.degree) { a.sh.coeffs[c][i] } else { 0.0 };
                    prop_assert_eq!(b.sh.coeffs[c][i].to_bits(), want.to_bits());
                }
            }
        }
    }

    /// The compact backend is quantize-once: serializing and decoding a
    /// `CompactCloud` loses nothing beyond the original quantization, so
    /// a second encode is byte-identical and every decoded Gaussian is
    /// finite and valid.
    #[test]
    fn compact_roundtrip_is_stable_and_finite(
        gaussians in prop::collection::vec(arb_gaussian_with_degree(), 1..24),
    ) {
        let cloud = GaussianCloud::from_gaussians(gaussians);
        let bytes = io::try_encode_cloud_as(&cloud, StorageFormat::Compact).expect("encode");
        let stored = io::decode_storage(&bytes).expect("decode");
        prop_assert_eq!(stored.format(), StorageFormat::Compact);
        let again = io::encode_storage(&stored).expect("re-encode");
        prop_assert_eq!(&bytes, &again, "compact encode→decode→encode must be bitwise stable");

        let decoded = stored.into_cloud();
        prop_assert_eq!(decoded.len(), cloud.len());
        for ((_, orig), (_, g)) in cloud.iter().zip(decoded.iter()) {
            prop_assert!(g.is_valid(), "decoded compact Gaussian invalid: {:?}", g);
            // Quantization error bounds: opacity within half a u8 step,
            // unit rotation within the 10-bit packing tolerance.
            prop_assert!((g.opacity - orig.opacity).abs() <= 0.5 / 255.0 + 1e-6);
            let dot = (g.rotation.w * orig.rotation.w
                + g.rotation.x * orig.rotation.x
                + g.rotation.y * orig.rotation.y
                + g.rotation.z * orig.rotation.z)
                .abs();
            prop_assert!(dot > 0.999, "rotation drifted: dot = {}", dot);
            for c in 0..3 {
                for i in 0..MAX_COEFFS {
                    prop_assert!(g.sh.coeffs[c][i].is_finite());
                }
            }
        }
    }

    /// In-memory storage backends agree with the codec: each charges
    /// the ledger exactly the record size its wire format stores (the
    /// max SH degree, on mixed-degree clouds too), and building a
    /// `CompactCloud` directly matches encode→decode through the wire
    /// format.
    #[test]
    fn storage_backends_match_the_codec(
        gaussians in prop::collection::vec(arb_gaussian_with_degree(), 1..16),
    ) {
        let cloud = GaussianCloud::from_gaussians(gaussians);
        let compact = CompactCloud::from_cloud(&cloud);
        // Header bytes: magic, version, count and degree, plus v2's
        // format byte.
        for (storage, header) in [(&cloud as &dyn CloudStorage, 13), (&compact, 14)] {
            let bytes = io::try_encode_cloud_as(&cloud, storage.format()).expect("encode");
            prop_assert_eq!(bytes.len(), header + cloud.len() * storage.record_bytes());
        }

        let via_codec = io::decode_storage(
            &io::try_encode_cloud_as(&cloud, StorageFormat::Compact).expect("encode"),
        )
        .expect("decode");
        prop_assert_eq!(compact.to_cloud(), via_codec.into_cloud());
    }
}
