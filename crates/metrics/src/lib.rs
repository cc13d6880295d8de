//! Image-quality metrics for the Neo reproduction.
//!
//! * [`mse`] / [`psnr`] — standard fidelity metrics (Table 2 reports PSNR).
//! * [`ssim`] — structural similarity (building block of the LPIPS proxy).
//! * [`lpips_proxy`] — a stand-in for LPIPS: the learned VGG metric cannot
//!   run offline, so we use a multi-scale structural-dissimilarity +
//!   gradient-difference composite that is monotone in the same local
//!   structure/edge differences LPIPS responds to. Table 2 only relies on
//!   *deltas* (paper: ≤ 0.001), which the proxy preserves. Documented in
//!   `DESIGN.md` as a substitution.
//!
//! # Examples
//!
//! ```
//! use neo_pipeline::Image;
//! use neo_math::Vec3;
//! let a = Image::new(32, 32, Vec3::splat(0.5));
//! let b = Image::new(32, 32, Vec3::splat(0.5));
//! assert!(neo_metrics::psnr(&a, &b).is_infinite());
//! assert!((neo_metrics::ssim(&a, &b) - 1.0).abs() < 1e-6);
//! assert!(neo_metrics::lpips_proxy(&a, &b) < 1e-6);
//! ```

#![deny(missing_docs)]
#![cfg_attr(
    test,
    allow(clippy::float_cmp, reason = "unit tests compare exact expected floats")
)]

use neo_math::Vec3;
use neo_pipeline::Image;

/// Mean squared error over all pixels and channels.
///
/// # Panics
///
/// Panics when image dimensions differ.
pub fn mse(a: &Image, b: &Image) -> f64 {
    assert_dims(a, b);
    let (pa, pb) = (a.pixels(), b.pixels());
    // Indexed loop: the summation order is explicit, pixel 0 first
    // (ARCHITECTURE.md § "Determinism contract", clause 3).
    let mut sum = 0.0f64;
    for i in 0..pa.len() {
        let d = pa[i] - pb[i];
        sum += (d.x as f64).powi(2) + (d.y as f64).powi(2) + (d.z as f64).powi(2);
    }
    sum / (pa.len() as f64 * 3.0)
}

/// Peak signal-to-noise ratio in dB (peak = 1.0). Infinite for identical
/// images.
///
/// # Panics
///
/// Panics when image dimensions differ.
pub fn psnr(a: &Image, b: &Image) -> f64 {
    let m = mse(a, b);
    if m <= 0.0 {
        f64::INFINITY
    } else {
        10.0 * (1.0 / m).log10()
    }
}

/// Luminance (Rec. 601) of a pixel.
#[inline]
fn luma(p: Vec3) -> f64 {
    0.299 * p.x as f64 + 0.587 * p.y as f64 + 0.114 * p.z as f64
}

/// Mean SSIM over 8×8 luminance windows with stride 4.
///
/// Uses the standard stabilization constants `C1 = (0.01)²`,
/// `C2 = (0.03)²` for unit dynamic range. Images smaller than one window
/// fall back to a single full-image window.
///
/// # Panics
///
/// Panics when image dimensions differ.
pub fn ssim(a: &Image, b: &Image) -> f64 {
    assert_dims(a, b);
    const C1: f64 = 0.01 * 0.01;
    const C2: f64 = 0.03 * 0.03;
    let (w, h) = (
        neo_math::num::usize_from_u32(a.width()),
        neo_math::num::usize_from_u32(a.height()),
    );
    let win = 8usize.min(w).min(h);
    let stride = (win / 2).max(1);

    let la: Vec<f64> = a.pixels().iter().map(|&p| luma(p)).collect();
    let lb: Vec<f64> = b.pixels().iter().map(|&p| luma(p)).collect();

    let mut total = 0.0;
    let mut count = 0usize;
    let mut y = 0;
    while y + win <= h {
        let mut x = 0;
        while x + win <= w {
            let (mut sa, mut sb, mut saa, mut sbb, mut sab) = (0.0, 0.0, 0.0, 0.0, 0.0);
            for dy in 0..win {
                let row = (y + dy) * w;
                for dx in 0..win {
                    let i = row + x + dx;
                    let (pa, pb) = (la[i], lb[i]);
                    sa += pa;
                    sb += pb;
                    saa += pa * pa;
                    sbb += pb * pb;
                    sab += pa * pb;
                }
            }
            let n = (win * win) as f64;
            let (mu_a, mu_b) = (sa / n, sb / n);
            let var_a = (saa / n - mu_a * mu_a).max(0.0);
            let var_b = (sbb / n - mu_b * mu_b).max(0.0);
            let cov = sab / n - mu_a * mu_b;
            let s = ((2.0 * mu_a * mu_b + C1) * (2.0 * cov + C2))
                / ((mu_a * mu_a + mu_b * mu_b + C1) * (var_a + var_b + C2));
            total += s;
            count += 1;
            x += stride;
        }
        y += stride;
    }
    if count == 0 {
        1.0
    } else {
        total / count as f64
    }
}

/// 2× box-downsampled copy of an image.
fn downsample(img: &Image) -> Image {
    let w = (img.width() / 2).max(1);
    let h = (img.height() / 2).max(1);
    let mut out = Image::new(w, h, Vec3::ZERO);
    for y in 0..h {
        for x in 0..w {
            let x0 = (x * 2).min(img.width() - 1);
            let y0 = (y * 2).min(img.height() - 1);
            let x1 = (x0 + 1).min(img.width() - 1);
            let y1 = (y0 + 1).min(img.height() - 1);
            let c = (img.get(x0, y0) + img.get(x1, y0) + img.get(x0, y1) + img.get(x1, y1)) * 0.25;
            out.set(x, y, c);
        }
    }
    out
}

/// Mean absolute difference of horizontal+vertical luminance gradients.
fn gradient_difference(a: &Image, b: &Image) -> f64 {
    let (w, h) = (
        neo_math::num::usize_from_u32(a.width()),
        neo_math::num::usize_from_u32(a.height()),
    );
    if w < 2 || h < 2 {
        return 0.0;
    }
    let la: Vec<f64> = a.pixels().iter().map(|&p| luma(p)).collect();
    let lb: Vec<f64> = b.pixels().iter().map(|&p| luma(p)).collect();
    let mut sum = 0.0;
    let mut n = 0usize;
    for y in 0..h - 1 {
        for x in 0..w - 1 {
            let i = y * w + x;
            let gax = la[i + 1] - la[i];
            let gay = la[i + w] - la[i];
            let gbx = lb[i + 1] - lb[i];
            let gby = lb[i + w] - lb[i];
            sum += (gax - gbx).abs() + (gay - gby).abs();
            n += 1;
        }
    }
    sum / (2.0 * n as f64)
}

/// LPIPS proxy: perceptual dissimilarity in `[0, ~1]`, 0 for identical
/// images; larger means perceptually further apart.
///
/// Combines structural dissimilarity `(1 - SSIM)/2` and gradient
/// difference at three dyadic scales with coarse scales weighted higher,
/// mimicking the deep-feature emphasis of LPIPS.
///
/// # Panics
///
/// Panics when image dimensions differ.
pub fn lpips_proxy(a: &Image, b: &Image) -> f64 {
    assert_dims(a, b);
    let weights = [0.2, 0.3, 0.5];
    let mut ca = a.clone();
    let mut cb = b.clone();
    let mut score = 0.0;
    for w in weights {
        let dssim = (1.0 - ssim(&ca, &cb)) / 2.0;
        let grad = gradient_difference(&ca, &cb);
        score += w * (0.7 * dssim + 0.3 * grad);
        ca = downsample(&ca);
        cb = downsample(&cb);
    }
    score
}

fn assert_dims(a: &Image, b: &Image) {
    assert!(
        a.width() == b.width() && a.height() == b.height(),
        "image dimensions differ: {}x{} vs {}x{}",
        a.width(),
        a.height(),
        b.width(),
        b.height()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy(base: &Image, amplitude: f32, seed: u32) -> Image {
        let mut out = base.clone();
        let mut state = seed | 1;
        for p in out.pixels_mut() {
            // xorshift noise
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            let n = ((state as f32 / u32::MAX as f32) - 0.5) * 2.0 * amplitude;
            *p = Vec3::new(
                (p.x + n).clamp(0.0, 1.0),
                (p.y + n).clamp(0.0, 1.0),
                (p.z + n).clamp(0.0, 1.0),
            );
        }
        out
    }

    fn gradient_image(w: u32, h: u32) -> Image {
        let mut img = Image::new(w, h, Vec3::ZERO);
        for y in 0..h {
            for x in 0..w {
                let v = (x + y) as f32 / (w + h) as f32;
                img.set(x, y, Vec3::new(v, 1.0 - v, v * 0.5));
            }
        }
        img
    }

    #[test]
    fn identical_images_are_perfect() {
        let img = gradient_image(64, 48);
        assert_eq!(mse(&img, &img), 0.0);
        assert!(psnr(&img, &img).is_infinite());
        assert!((ssim(&img, &img) - 1.0).abs() < 1e-9);
        assert!(lpips_proxy(&img, &img) < 1e-9);
    }

    #[test]
    fn psnr_decreases_with_noise() {
        let img = gradient_image(64, 64);
        let slightly = noisy(&img, 0.01, 7);
        let very = noisy(&img, 0.2, 7);
        let p_slight = psnr(&img, &slightly);
        let p_very = psnr(&img, &very);
        assert!(p_slight > p_very);
        assert!(p_slight > 35.0, "1% noise ≈ >35 dB, got {p_slight}");
        assert!(p_very < 25.0, "20% noise ≈ <25 dB, got {p_very}");
    }

    #[test]
    fn ssim_in_range_and_monotone() {
        let img = gradient_image(64, 64);
        let a = ssim(&img, &noisy(&img, 0.05, 3));
        let b = ssim(&img, &noisy(&img, 0.3, 3));
        assert!(a > b);
        assert!((0.0..=1.0).contains(&a) || a > -1.0);
    }

    #[test]
    fn lpips_proxy_monotone_in_distortion() {
        let img = gradient_image(64, 64);
        let small = lpips_proxy(&img, &noisy(&img, 0.02, 11));
        let large = lpips_proxy(&img, &noisy(&img, 0.3, 11));
        assert!(small < large, "small {small} vs large {large}");
        assert!(small > 0.0);
    }

    #[test]
    fn mse_known_value() {
        let a = Image::new(2, 2, Vec3::ZERO);
        let b = Image::new(2, 2, Vec3::splat(0.5));
        assert!((mse(&a, &b) - 0.25).abs() < 1e-9);
        assert!((psnr(&a, &b) - 10.0 * (1.0 / 0.25f64).log10()).abs() < 1e-9);
    }

    #[test]
    fn tiny_images_do_not_crash() {
        let a = Image::new(2, 2, Vec3::splat(0.3));
        let b = Image::new(2, 2, Vec3::splat(0.4));
        let s = ssim(&a, &b);
        assert!(s.is_finite());
        let l = lpips_proxy(&a, &b);
        assert!(l.is_finite());
    }

    #[test]
    #[should_panic(expected = "dimensions differ")]
    fn mismatched_dims_panic() {
        let a = Image::new(4, 4, Vec3::ZERO);
        let b = Image::new(5, 4, Vec3::ZERO);
        let _ = mse(&a, &b);
    }

    #[test]
    fn downsample_halves() {
        let img = gradient_image(64, 48);
        let d = downsample(&img);
        assert_eq!(d.width(), 32);
        assert_eq!(d.height(), 24);
    }
}
