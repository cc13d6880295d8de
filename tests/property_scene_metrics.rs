//! Property-based tests on scene serialization, the split cloud layout,
//! in-place reordering, and the image metrics, plus a mutation fuzzer
//! over `NEOG` blobs.

use neo_math::sh::{basis_count, ShCoefficients, MAX_COEFFS};
use neo_math::{Quat, Vec3};
use neo_pipeline::Image;
use neo_scene::synth::SynthParams;
use neo_scene::{io, Camera, Gaussian, GaussianCloud, Resolution, SplatGeometry};
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

/// Every stored value of a Gaussian as raw bits (so `-0.0` is not
/// `0.0`), with its SH degree.
fn gaussian_bits(g: &Gaussian) -> (Vec<u32>, usize) {
    let (m, s, q) = (g.mean, g.scale, g.rotation);
    let geometry = [m.x, m.y, m.z, s.x, s.y, s.z, q.w, q.x, q.y, q.z, g.opacity];
    let values = geometry.iter().chain(g.sh.coeffs.as_flattened());
    (values.map(|v| v.to_bits()).collect(), g.sh.degree)
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
/// degrees 0–3 encoded as v1, plus the degree-1 blob under a version-2
/// header. Mutating well-formed blobs reaches the decoder's record
/// paths far more often than uniform noise would.
fn neog_seeds() -> &'static [Vec<u8>] {
    static SEEDS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    SEEDS.get_or_init(|| {
        let mut seeds: Vec<Vec<u8>> = (0..=3)
            .map(|sh_degree| {
                let cloud = SynthParams {
                    gaussian_count: 6,
                    cluster_count: 2,
                    sh_degree,
                    ..SynthParams::default()
                }
                .build();
                io::encode_cloud(&cloud)
            })
            .collect();
        let mut v2 = seeds[1].clone();
        v2[4..8].copy_from_slice(&2u32.to_le_bytes());
        seeds.push(v2);
        seeds
    })
}

/// Header bytes before the first record: magic, version, count and
/// degree.
const NEOG_HEADER: usize = 13;

/// Bytes of one v1 record at SH degree `degree`.
fn neog_record(degree: usize) -> usize {
    4 * (11 + 3 * basis_count(degree))
}

/// Bytes favored by the insertion mutation: zero, all-ones, sign and
/// exponent bytes that make f32 NaNs, infinities and negatives, and
/// the magic.
const BYTE_SOUP: &[u8] = &[
    0x00, 0xFF, 0x7F, 0x80, 0x7C, 0xFC, 0x7E, 0xC0, 0x3F, 0x01, b'N', b'E', b'O', b'G',
];

/// Applies one mutation op to a blob.
fn mutate_neog(blob: &mut Vec<u8>, kind: u8, a: u32, b: u32) {
    if blob.is_empty() {
        blob.extend_from_slice(b"NEOG");
    }
    let pos = a as usize % blob.len();
    let span = (b as usize % 64).min(blob.len() - pos);
    let count_at = NEOG_HEADER - 5;
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
fn fit_neog_count(blob: &mut Vec<u8>) {
    let header = NEOG_HEADER;
    if blob.len() < header {
        return;
    }
    let record = neog_record(usize::from(blob[header - 1].min(3)));
    let count = (blob.len() - header) / record;
    blob.truncate(header + count * record);
    let count = u32::try_from(count).expect("a small blob's count fits u32");
    blob[header - 5..header - 1].copy_from_slice(&count.to_le_bytes());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `decode_cloud` never panics on a mutated blob, and whatever it
    /// accepts is exactly the size its header declares and decodes only
    /// to splats that uphold `Gaussian::is_valid`.
    #[test]
    fn mutated_neog_blobs_decode_to_valid_clouds_or_errors(
        // One v1 seed per SH degree 0–3, then the version-2 header.
        seed in 0usize..5,
        ops in prop::collection::vec((0u8..6, any::<u32>(), any::<u32>()), 0..8),
        fit in any::<bool>(),
    ) {
        let mut blob = neog_seeds()[seed].clone();
        for (kind, a, b) in ops {
            mutate_neog(&mut blob, kind, a, b);
        }
        if fit {
            fit_neog_count(&mut blob);
        }
        let Ok(cloud) = io::decode_cloud(&blob) else {
            return Ok(());
        };
        let degree = usize::from(blob[NEOG_HEADER - 1]);
        prop_assert_eq!(NEOG_HEADER + cloud.len() * neog_record(degree), blob.len());
        let invalid: Vec<(usize, &SplatGeometry)> = cloud
            .geometry()
            .iter()
            .enumerate()
            .filter(|(_, g)| !g.is_valid())
            .collect();
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
            cloud.record_bytes(),
            std::mem::size_of::<SplatGeometry>() + 12 * basis_count(max)
        );
        prop_assert_eq!(std::mem::size_of::<SplatGeometry>(), 44);
        // Equality means the same Gaussians in the same order, however
        // the arrays were reserved.
        let mut reserved = GaussianCloud::with_capacity(gaussians.len(), 1);
        reserved.extend(gaussians.iter().cloned());
        prop_assert_eq!(&cloud, &reserved);
    }

    /// NEOG v1 round-trips a mixed-degree cloud as it always has,
    /// padding every record to the max degree without loss, bit for bit.
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
        for (id, g) in (0u32..).zip(&gaussians) {
            prop_assert_eq!(v1.get(id).as_ref().map(gaussian_bits), Some(gaussian_bits(&padded(g))));
        }
    }

    /// The one splat store lends, per ID, the geometry `get` joins, and
    /// colors it as `get`'s SH evaluates toward the camera, bit for bit.
    #[test]
    fn geometry_and_color_match_get_on_every_backend(gaussians in arb_mixed_stream()) {
        let cloud = GaussianCloud::from_gaussians(gaussians);
        let cam = probe_camera();
        prop_assert_eq!(cloud.geometry().len(), cloud.len());
        for (id, geometry) in (0u32..).zip(cloud.geometry()) {
            let g = cloud.get(id).unwrap();
            prop_assert_eq!(*geometry, g.geometry());
            let color = cloud.color(id, &cam);
            let expected = g.sh.eval(cam.view_direction(g.mean));
            prop_assert_eq!(
                [color.x, color.y, color.z].map(f32::to_bits),
                [expected.x, expected.y, expected.z].map(f32::to_bits),
                "splat {}",
                id
            );
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
