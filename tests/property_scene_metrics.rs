//! Property-based tests on scene serialization, the split cloud layout,
//! in-place reordering, and the image metrics, plus a mutation fuzzer
//! over `NEOG` blobs.

use neo_math::f16::{f16_bits_to_f32, f32_to_f16_bits_saturating};
use neo_math::sh::{basis_count, ShCoefficients, MAX_COEFFS};
use neo_math::{Quat, Vec3};
use neo_pipeline::Image;
use neo_scene::storage::{pack_quat, unpack_quat};
use neo_scene::synth::SynthParams;
use neo_scene::{
    io, Camera, CloudStorage, CompactCloud, Gaussian, GaussianCloud, Resolution, SplatGeometry,
    StorageFormat,
};
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

/// A Gaussian of SH degree `degree` whose bases up to that degree are
/// random and above it zero, as every constructor leaves them.
fn arb_gaussian_of_degree(degree: impl Strategy<Value = usize>) -> impl Strategy<Value = Gaussian> {
    (
        arb_gaussian(),
        degree,
        prop::collection::vec(-2.0f32..2.0, 3 * MAX_COEFFS),
    )
        .prop_map(|(mut g, degree, coeffs)| {
            g.sh.degree = degree;
            for (c, channel) in g.sh.coeffs.iter_mut().enumerate() {
                let n = basis_count(degree);
                channel[..n].copy_from_slice(&coeffs[c * MAX_COEFFS..][..n]);
            }
            g
        })
}

/// A mixed-degree stream whose max degree rises mid-stream: splats of
/// degree ≤ 1, then one of degree 2 or 3, then any degree.
fn arb_mixed_stream() -> impl Strategy<Value = Vec<Gaussian>> {
    (
        prop::collection::vec(arb_gaussian_of_degree(0usize..=1), 0..12),
        arb_gaussian_of_degree(2usize..=3),
        prop::collection::vec(arb_gaussian_of_degree(0usize..=3), 0..12),
    )
        .prop_map(|(mut head, rise, tail)| {
            head.push(rise);
            head.extend(tail);
            head
        })
}

/// `g` as the compact backend stores it at SH degree `degree`: each
/// field quantized on its own, SH zero-padded to `degree`.
fn compact_reference(g: &Gaussian, degree: usize) -> Gaussian {
    let f16 = |v: f32| f16_bits_to_f32(f32_to_f16_bits_saturating(v));
    let f16v = |v: Vec3| Vec3::new(f16(v.x), f16(v.y), f16(v.z));
    let mut sh = g.sh;
    sh.degree = degree;
    for channel in &mut sh.coeffs {
        for coeff in channel.iter_mut() {
            *coeff = f16(*coeff);
        }
    }
    Gaussian {
        mean: f16v(g.mean),
        scale: f16v(g.scale),
        rotation: unpack_quat(pack_quat(g.rotation)),
        opacity: (g.opacity * 255.0).round() / 255.0,
        sh,
    }
}

fn probe_camera() -> Camera {
    Camera::look_at(
        Vec3::new(3.0, 20.0, -150.0),
        Vec3::ZERO,
        Vec3::Y,
        1.0,
        Resolution::Custom(64, 48),
    )
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
                invalid.push((id, *g));
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
    /// long cycles and fixed points those produce, on mixed-degree
    /// clouds whose geometry and SH arrays both move.
    #[test]
    fn in_place_permutation_matches_gather(
        gaussians in prop::collection::vec(arb_gaussian_of_degree(0usize..=3), 0..64),
        keys in prop::collection::vec(0u32..8, 64),
    ) {
        let cloud = GaussianCloud::from_gaussians(gaussians);
        let mut order: Vec<u32> = (0..cloud.len() as u32).collect();
        order.sort_by_key(|&i| keys[i as usize]);
        let gathered: GaussianCloud = order
            .iter()
            .map(|&i| cloud.get(i).unwrap())
            .collect();
        let mut permuted = cloud.clone();
        permuted.permute(&order);
        prop_assert_eq!(permuted, gathered);
    }

    /// The split cloud gives back exactly what was pushed, its own SH
    /// degree included, while the max degree (and so the SH stride and
    /// the ledger's record size) rises mid-stream.
    #[test]
    fn split_cloud_returns_every_pushed_gaussian(gaussians in arb_mixed_stream()) {
        let cloud = GaussianCloud::from_gaussians(gaussians.clone());
        prop_assert_eq!(cloud.len(), gaussians.len());
        for (id, g) in (0u32..).zip(&gaussians) {
            prop_assert_eq!(cloud.get(id), Some(g.clone()));
        }
        prop_assert!(cloud.get(gaussians.len() as u32).is_none());
        let max = gaussians.iter().map(|g| g.sh.degree).max().unwrap();
        prop_assert_eq!(cloud.max_sh_degree(), max);
        prop_assert_eq!(
            CloudStorage::record_bytes(&cloud),
            std::mem::size_of::<SplatGeometry>() + 12 * basis_count(max)
        );
        prop_assert_eq!(std::mem::size_of::<SplatGeometry>(), 44);
        // Equality means the same Gaussians in the same order, however
        // the arrays were reserved.
        let mut reserved = GaussianCloud::with_capacity(gaussians.len(), 1);
        reserved.extend(gaussians.iter().cloned());
        prop_assert_eq!(&cloud, &reserved);
    }

    /// NEOG v1 and the compact backend round-trip a mixed-degree cloud as
    /// they always have: v1 pads every record to the max degree without
    /// loss, and compact holds each splat quantized field by field.
    #[test]
    fn mixed_degree_roundtrips_pad_to_the_max_degree(gaussians in arb_mixed_stream()) {
        let cloud = GaussianCloud::from_gaussians(gaussians.clone());
        let max = cloud.max_sh_degree();
        let padded = |g: &Gaussian| {
            let mut g = g.clone();
            g.sh.degree = max;
            g
        };
        let v1 = io::decode_cloud(&io::encode_cloud(&cloud)).expect("v1 decodes");
        let compact = CompactCloud::from_cloud(&cloud);
        for (id, g) in (0u32..).zip(&gaussians) {
            prop_assert_eq!(v1.get(id), Some(padded(g)));
            prop_assert_eq!(compact.get(id), Some(compact_reference(g, max)));
        }
        let blob = io::try_encode_cloud_as(&cloud, StorageFormat::Compact).expect("encodes");
        let stored = io::decode_storage(&blob).expect("v2 decodes");
        prop_assert_eq!(stored.as_storage().to_cloud(), compact.to_cloud());
    }

    /// Both backends lend, per ID, the geometry `get` decodes, and color
    /// it as `get`'s SH evaluates toward the camera, bit for bit.
    #[test]
    fn geometry_and_color_match_get_on_every_backend(gaussians in arb_mixed_stream()) {
        let cloud = GaussianCloud::from_gaussians(gaussians);
        let compact = CompactCloud::from_cloud(&cloud);
        let cam = probe_camera();
        let backends: [&dyn CloudStorage; 2] = [&cloud, &compact];
        for storage in backends {
            let mut seen = 0u32;
            storage.visit(&mut |id, geometry| {
                assert_eq!(id, seen);
                seen += 1;
                let g = storage.get(id).unwrap();
                assert_eq!(*geometry, g.geometry(), "{}", storage.format().name());
                let color = storage.color(id, &cam);
                let expected = g.sh.eval(cam.view_direction(g.mean));
                assert_eq!(
                    [color.x, color.y, color.z].map(f32::to_bits),
                    [expected.x, expected.y, expected.z].map(f32::to_bits),
                    "{} splat {id}",
                    storage.format().name()
                );
            });
            prop_assert_eq!(seen as usize, storage.len());
        }
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
