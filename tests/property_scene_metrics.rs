//! Property-based tests on scene serialization, in-place reordering, and
//! the image metrics, plus a mutation fuzzer over `NEOG` blobs.

use neo_math::sh::ShCoefficients;
use neo_math::{Quat, Vec3};
use neo_pipeline::Image;
use neo_scene::synth::SynthParams;
use neo_scene::{io, Gaussian, GaussianCloud, StorageFormat};
use proptest::prelude::*;
use std::sync::OnceLock;

fn arb_gaussian() -> impl Strategy<Value = Gaussian> {
    (
        (-100.0f32..100.0, -100.0f32..100.0, -100.0f32..100.0),
        (0.001f32..5.0, 0.001f32..5.0, 0.001f32..5.0),
        (-1.0f32..1.0, -1.0f32..1.0, -1.0f32..1.0, -1.0f32..1.0),
        0.0f32..=1.0,
        (0.0f32..1.0, 0.0f32..1.0, 0.0f32..1.0),
    )
        .prop_map(|(m, s, q, opacity, c)| Gaussian {
            mean: Vec3::new(m.0, m.1, m.2),
            scale: Vec3::new(s.0, s.1, s.2),
            rotation: Quat::new(q.0.max(0.01), q.1, q.2, q.3).normalized(),
            opacity,
            sh: ShCoefficients::from_constant_color(Vec3::new(c.0, c.1, c.2)),
        })
}

fn arb_image(w: u32, h: u32) -> impl Strategy<Value = Image> {
    prop::collection::vec(0.0f32..=1.0, (w * h * 3) as usize).prop_map(move |vals| {
        let mut img = Image::new(w, h, Vec3::ZERO);
        for (i, px) in img.pixels_mut().iter_mut().enumerate() {
            *px = Vec3::new(vals[3 * i], vals[3 * i + 1], vals[3 * i + 2]);
        }
        img
    })
}

/// Seed corpus of the `NEOG` fuzzer: a small synthetic cloud at SH
/// degrees 0–3, encoded as v1 AoS and as v2 compact. Mutating
/// well-formed blobs reaches the decoder's record paths far more often
/// than uniform noise would.
fn neog_seeds() -> &'static [(StorageFormat, Vec<u8>)] {
    static SEEDS: OnceLock<Vec<(StorageFormat, Vec<u8>)>> = OnceLock::new();
    SEEDS.get_or_init(|| {
        let mut seeds = Vec::new();
        for sh_degree in 0..=3 {
            let cloud = SynthParams {
                gaussian_count: 6,
                cluster_count: 2,
                sh_degree,
                ..SynthParams::default()
            }
            .build();
            for format in StorageFormat::ALL {
                let blob = io::try_encode_cloud_as(&cloud, format).expect("seed encodes");
                seeds.push((format, blob));
            }
        }
        seeds
    })
}

/// Header bytes before the first record: magic, version, count and
/// degree, plus v2's format byte.
fn neog_header(format: StorageFormat) -> usize {
    match format {
        StorageFormat::AosF32 => 13,
        StorageFormat::Compact => 14,
    }
}

/// Bytes favored by the insertion mutation: zero, all-ones, sign and
/// exponent bytes that make f32/f16 NaNs, infinities and negatives, and
/// the magic.
const BYTE_SOUP: &[u8] = &[
    0x00, 0xFF, 0x7F, 0x80, 0x7C, 0xFC, 0x7E, 0xC0, 0x3F, 0x01, b'N', b'E', b'O', b'G',
];

/// Applies one mutation op to a blob whose header layout is `format`'s.
fn mutate_neog(blob: &mut Vec<u8>, format: StorageFormat, kind: u8, a: u32, b: u32) {
    if blob.is_empty() {
        blob.extend_from_slice(b"NEOG");
    }
    let pos = a as usize % blob.len();
    let span = (b as usize % 64).min(blob.len() - pos);
    let count_at = neog_header(format) - 5;
    match kind {
        // Delete a span.
        0 => {
            blob.drain(pos..pos + span);
        }
        // Insert bytes from the soup.
        1 => {
            let ins: Vec<u8> = (0..span)
                .map(|i| BYTE_SOUP[(b as usize + i * 7) % BYTE_SOUP.len()])
                .collect();
            blob.splice(pos..pos, ins);
        }
        // Duplicate a span in place.
        2 => {
            let dup = blob[pos..pos + span].to_vec();
            blob.splice(pos..pos, dup);
        }
        // Truncate.
        3 => blob.truncate(pos),
        // Overwrite the count field with an edge value.
        4 if blob.len() > count_at + 4 => {
            let count = match b % 5 {
                0 => 0,
                1 => 1,
                2 => u32::MAX,
                3 => u32::from_le_bytes(blob[count_at..count_at + 4].try_into().unwrap()) ^ 1,
                _ => a,
            };
            blob[count_at..count_at + 4].copy_from_slice(&count.to_le_bytes());
        }
        // Overwrite the degree field, in range or not.
        5 if blob.len() > count_at + 4 => {
            blob[count_at + 4] = if b.is_multiple_of(2) {
                (b % 5) as u8
            } else {
                b as u8
            };
        }
        _ => {}
    }
}

/// Rewrites the count field to the number of whole records the blob
/// holds and drops the partial one, so the length check passes and the
/// mutated records themselves get decoded.
fn fit_neog_count(blob: &mut Vec<u8>, format: StorageFormat) {
    let header = neog_header(format);
    if blob.len() < header {
        return;
    }
    let record = format.record_bytes(usize::from(blob[header - 1].min(3)));
    let count = (blob.len() - header) / record;
    blob.truncate(header + count * record);
    let count = u32::try_from(count).expect("a small blob's count fits u32");
    blob[header - 5..header - 1].copy_from_slice(&count.to_le_bytes());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `decode_storage` never panics on a mutated blob, and whatever it
    /// accepts is exactly the size its header declares and decodes only
    /// to splats that uphold `Gaussian::is_valid`.
    #[test]
    fn mutated_neog_blobs_decode_to_valid_clouds_or_errors(
        // One seed per SH degree 0–3 and storage format.
        seed in 0usize..8,
        ops in prop::collection::vec((0u8..6, any::<u32>(), any::<u32>()), 0..8),
        fit in any::<bool>(),
    ) {
        let (format, seed_blob) = &neog_seeds()[seed];
        let mut blob = seed_blob.clone();
        for (kind, a, b) in ops {
            mutate_neog(&mut blob, *format, kind, a, b);
        }
        if fit {
            fit_neog_count(&mut blob, *format);
        }
        let Ok(stored) = io::decode_storage(&blob) else {
            return Ok(());
        };
        let storage = stored.as_storage();
        let header = neog_header(stored.format());
        prop_assert_eq!(header + storage.len() * storage.record_bytes(), blob.len());
        let mut invalid = Vec::new();
        storage.visit(&mut |id, g| {
            if !g.is_valid() {
                invalid.push((id, g.clone()));
            }
        });
        prop_assert!(invalid.is_empty(), "decoded invalid splats: {invalid:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cloud_io_roundtrips(gaussians in prop::collection::vec(arb_gaussian(), 0..40)) {
        let cloud = GaussianCloud::from_gaussians(gaussians);
        let bytes = io::encode_cloud(&cloud);
        let back = io::decode_cloud(&bytes).expect("decode");
        prop_assert_eq!(cloud, back);
    }

    /// The in-place cycle walk equals the out-of-place gather for random
    /// orders (sorting the IDs by random keys), including the identity,
    /// long cycles and fixed points those produce.
    #[test]
    fn in_place_permutation_matches_gather(
        gaussians in prop::collection::vec(arb_gaussian(), 0..64),
        keys in prop::collection::vec(0u32..8, 64),
    ) {
        let cloud = GaussianCloud::from_gaussians(gaussians);
        let mut order: Vec<u32> = (0..cloud.len() as u32).collect();
        order.sort_by_key(|&i| keys[i as usize]);
        let gathered: GaussianCloud = order
            .iter()
            .map(|&i| cloud.gaussians()[i as usize].clone())
            .collect();
        let mut permuted = cloud.clone();
        permuted.permute(&order);
        prop_assert_eq!(permuted, gathered);
    }

    #[test]
    fn truncated_encoding_never_panics(
        gaussians in prop::collection::vec(arb_gaussian(), 1..10),
        cut_frac in 0.0f64..1.0,
    ) {
        let cloud = GaussianCloud::from_gaussians(gaussians);
        let bytes = io::encode_cloud(&cloud);
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        // Must return an error or a valid cloud — never panic.
        let _ = io::decode_cloud(&bytes[..cut]);
    }

    #[test]
    fn covariance_always_psd(g in arb_gaussian()) {
        let cov = g.covariance();
        // Diagonal entries are variances: non-negative.
        for i in 0..3 {
            prop_assert!(cov.get(i, i) >= -1e-4, "var {} = {}", i, cov.get(i, i));
        }
        // Determinant of Σ = (sx·sy·sz)² ≥ 0.
        prop_assert!(cov.determinant() >= -1e-3);
    }

    #[test]
    fn psnr_is_symmetric_and_mse_nonnegative(
        a in arb_image(8, 8),
        b in arb_image(8, 8),
    ) {
        let m_ab = neo_metrics::mse(&a, &b);
        let m_ba = neo_metrics::mse(&b, &a);
        prop_assert!(m_ab >= 0.0);
        prop_assert!((m_ab - m_ba).abs() < 1e-12);
        prop_assert!((neo_metrics::psnr(&a, &b) - neo_metrics::psnr(&b, &a)).abs() < 1e-9);
    }

    #[test]
    fn ssim_self_is_one_and_bounded(a in arb_image(16, 16)) {
        prop_assert!((neo_metrics::ssim(&a, &a) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn lpips_proxy_identity_and_nonnegative(
        a in arb_image(16, 16),
        b in arb_image(16, 16),
    ) {
        prop_assert!(neo_metrics::lpips_proxy(&a, &a) < 1e-9);
        prop_assert!(neo_metrics::lpips_proxy(&a, &b) >= 0.0);
    }
}
