//! An independent ground-truth renderer.
//!
//! [`render_oracle`] shares nothing with the tile pipeline except the
//! [`ProjectedGaussian`] records it consumes. It uses no tile grid, no
//! binning, no subtile bitmaps, no clipped spans and no blend kernel, so
//! a bug in any of them shows up as a difference against it. The
//! fast-vs-legacy parity suites cannot see such a bug, because both of
//! their sides run that shared code.

use crate::framebuffer::Image;
use crate::projection::ProjectedGaussian;
use neo_math::num::usize_from_u32;
use neo_math::Vec3;

/// Smallest α a splat contributes to a pixel (the 3DGS 1/255 cutoff).
const ALPHA_MIN: f64 = 1.0 / 255.0;

/// The 3DGS clamp on α.
const ALPHA_MAX: f64 = 0.99;

/// Renders `projected` into a `width`×`height` image over `background`,
/// computing in `f64`:
///
/// - each splat covers every pixel whose center gets α ≥ 1/255, solved
///   from its conic and opacity — there is no 3σ truncation;
/// - every pixel blends its splats front to back in the global
///   `(depth, id)` order;
/// - α is clamped at 0.99 and blending never terminates early.
///
/// Splats with a non-finite opacity, conic, center or color are skipped.
/// The cost is proportional to the number of covered pixels.
///
/// ```
/// use neo_math::{Vec2, Vec3};
/// use neo_pipeline::{render_oracle, ProjectedGaussian};
///
/// let splat = ProjectedGaussian {
///     id: 0,
///     mean2d: Vec2::new(8.0, 8.0),
///     depth: 1.0,
///     conic: (0.1, 0.0, 0.1),
///     radius: 10.0,
///     color: Vec3::new(1.0, 0.0, 0.0),
///     opacity: 0.9,
/// };
/// let image = render_oracle(&[splat], 16, 16, Vec3::ZERO);
/// assert!(image.get(8, 8).x > 0.8);
/// assert_eq!(image.get(0, 0), Vec3::ZERO); // α < 1/255 this far out
/// ```
pub fn render_oracle(
    projected: &[ProjectedGaussian],
    width: u32,
    height: u32,
    background: Vec3,
) -> Image {
    let mut order: Vec<&ProjectedGaussian> = projected
        .iter()
        .filter(|p| {
            p.opacity.is_finite()
                && p.conic.0.is_finite()
                && p.conic.1.is_finite()
                && p.conic.2.is_finite()
                && p.mean2d.is_finite()
                && p.color.is_finite()
        })
        .collect();
    order.sort_by(|a, b| a.depth.total_cmp(&b.depth).then(a.id.cmp(&b.id)));

    let w = usize_from_u32(width);
    let mut rgb = vec![[0.0f64; 3]; w * usize_from_u32(height)];
    let mut transmittance = vec![1.0f64; rgb.len()];
    for p in order {
        let (cx, cy) = (f64::from(p.mean2d.x), f64::from(p.mean2d.y));
        let (a, b, c) = (
            f64::from(p.conic.0),
            f64::from(p.conic.1),
            f64::from(p.conic.2),
        );
        let opacity = f64::from(p.opacity);
        let color = [p.color.x, p.color.y, p.color.z].map(f64::from);
        // α ≥ 1/255 ⇔ ½(a·dx² + c·dy²) + b·dx·dy ≤ τ. The candidate rows
        // and columns come from that ellipse, widened by a pixel; each
        // pixel is then tested exactly. A conic that is not positive
        // definite bounds nothing, so its candidates are the whole image.
        let tau = (255.0 * opacity).ln();
        if tau.is_nan() || tau < 0.0 {
            continue;
        }
        let det = a * c - b * b;
        let bounded = a > 0.0 && det > 0.0;
        let rows = if bounded {
            let dy_max = (2.0 * tau * a / det).sqrt();
            pixel_range(cy - dy_max - 0.5, cy + dy_max - 0.5, height)
        } else {
            0..height
        };
        for y in rows {
            let dy = f64::from(y) + 0.5 - cy;
            let cols = if bounded {
                let half = ((b * b - a * c) * dy * dy + 2.0 * tau * a).max(0.0).sqrt();
                let mid = cx - b * dy / a - 0.5;
                pixel_range(mid - half / a, mid + half / a, width)
            } else {
                0..width
            };
            let row = usize_from_u32(y) * w;
            for x in cols {
                let dx = f64::from(x) + 0.5 - cx;
                let power = -0.5 * (a * dx * dx + c * dy * dy) - b * dx * dy;
                let alpha = (opacity * power.min(0.0).exp()).min(ALPHA_MAX);
                if alpha < ALPHA_MIN {
                    continue;
                }
                let i = row + usize_from_u32(x);
                let t = transmittance[i];
                for k in 0..3 {
                    rgb[i][k] += color[k] * alpha * t;
                }
                transmittance[i] = t * (1.0 - alpha);
            }
        }
    }

    let bg = [background.x, background.y, background.z].map(f64::from);
    let mut image = Image::new(width, height, background);
    for (i, pixel) in image.pixels_mut().iter_mut().enumerate() {
        let t = transmittance[i];
        #[expect(
            clippy::cast_possible_truncation,
            reason = "f64 -> f32 rounding of the finished pixel is the intended output precision"
        )]
        let [r, g, b] = [0, 1, 2].map(|k| (rgb[i][k] + bg[k] * t) as f32);
        *pixel = Vec3::new(r, g, b);
    }
    image
}

/// The pixel indices in `[0, n)` within one pixel of the closed interval
/// `[lo, hi]` (empty when the interval misses or is NaN).
fn pixel_range(lo: f64, hi: f64, n: u32) -> std::ops::Range<u32> {
    let n = f64::from(n);
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "f64 -> u32 of values clamped into [0, n] with n a u32: truncating a non-negative value is floor, and NaN saturates to 0"
    )]
    let range = (lo - 1.0).clamp(0.0, n) as u32..(hi + 2.0).clamp(0.0, n) as u32;
    range
}
