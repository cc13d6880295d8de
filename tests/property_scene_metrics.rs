//! Property-based tests on scene serialization, in-place reordering, and
//! the image metrics.

use neo_math::sh::ShCoefficients;
use neo_math::{Quat, Vec3};
use neo_pipeline::Image;
use neo_scene::{io, Gaussian, GaussianCloud};
use proptest::prelude::*;

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
