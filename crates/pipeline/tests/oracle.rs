//! Unit checks of `render_oracle`, the independent ground truth: its
//! ellipse scatter equals a walk over every pixel, it orders splats by
//! `(depth, id)`, never terminates early, and skips non-finite splats.

#![allow(
    clippy::cast_possible_truncation,
    reason = "the brute-force reference rounds its f64 pixels to f32 like the oracle"
)]

use neo_math::{Vec2, Vec3};
use neo_pipeline::{render_oracle, Image, ProjectedGaussian};

/// The 3DGS α cutoff and clamp, restated so the brute force below
/// shares no code with the oracle.
const ALPHA_MIN: f64 = 1.0 / 255.0;
const ALPHA_MAX: f64 = 0.99;

fn splat(id: u32, center: (f32, f32), depth: f32, color: Vec3) -> ProjectedGaussian {
    ProjectedGaussian {
        id,
        mean2d: Vec2::new(center.0, center.1),
        depth,
        conic: (0.05, 0.0, 0.05),
        radius: 14.0,
        color,
        opacity: 0.95,
    }
}

/// Brute force over every pixel, in the same `(depth, id)` order.
fn brute_force(splats: &[ProjectedGaussian], w: u32, h: u32) -> Image {
    let mut sorted = splats.to_vec();
    sorted.sort_by(|a, b| a.depth.total_cmp(&b.depth).then(a.id.cmp(&b.id)));
    let mut image = Image::new(w, h, Vec3::ZERO);
    for y in 0..h {
        for x in 0..w {
            let (mut t, mut acc) = (1.0f64, [0.0f64; 3]);
            for p in &sorted {
                let dx = f64::from(x) + 0.5 - f64::from(p.mean2d.x);
                let dy = f64::from(y) + 0.5 - f64::from(p.mean2d.y);
                let (a, b, c) = (
                    f64::from(p.conic.0),
                    f64::from(p.conic.1),
                    f64::from(p.conic.2),
                );
                let power = -0.5 * (a * dx * dx + c * dy * dy) - b * dx * dy;
                let alpha = (f64::from(p.opacity) * power.min(0.0).exp()).min(ALPHA_MAX);
                if alpha >= ALPHA_MIN {
                    acc[0] += f64::from(p.color.x) * alpha * t;
                    acc[1] += f64::from(p.color.y) * alpha * t;
                    acc[2] += f64::from(p.color.z) * alpha * t;
                    t *= 1.0 - alpha;
                }
            }
            image.set(x, y, Vec3::new(acc[0] as f32, acc[1] as f32, acc[2] as f32));
        }
    }
    image
}

#[test]
fn ellipse_scatter_equals_a_full_image_walk() {
    // Rotated, elongated, clipped at every image edge, and one
    // splat that is not positive definite (covers the whole image).
    let mut splats = vec![
        ProjectedGaussian {
            conic: (0.02, 0.015, 0.03),
            ..splat(0, (3.0, 20.0), 2.0, Vec3::new(0.9, 0.2, 0.1))
        },
        ProjectedGaussian {
            conic: (0.5, -0.3, 0.25),
            opacity: 0.2,
            ..splat(1, (38.0, 2.5), 1.0, Vec3::new(0.1, 0.8, 0.3))
        },
        splat(2, (20.0, 31.0), 0.5, Vec3::new(0.2, 0.3, 0.9)),
        ProjectedGaussian {
            conic: (0.01, 0.02, 0.01),
            opacity: 0.05,
            ..splat(3, (20.0, 16.0), 3.0, Vec3::ONE)
        },
    ];
    let image = render_oracle(&splats, 40, 32, Vec3::ZERO);
    assert_eq!(image, brute_force(&splats, 40, 32));
    // Input order does not matter.
    splats.reverse();
    assert_eq!(render_oracle(&splats, 40, 32, Vec3::ZERO), image);
}

#[test]
fn empty_input_renders_the_background() {
    let background = Vec3::new(0.0, 0.0, 1.0);
    let image = render_oracle(&[], 16, 8, background);
    assert!(image.pixels().iter().all(|&p| p == background));
}

#[test]
fn front_splat_wins_and_depth_ties_break_by_id() {
    let red = Vec3::new(1.0, 0.0, 0.0);
    let green = Vec3::new(0.0, 1.0, 0.0);
    let front_red = [
        splat(1, (16.0, 16.0), 4.0, red),
        splat(0, (16.0, 16.0), 6.0, green),
    ];
    let c = render_oracle(&front_red, 32, 32, Vec3::ZERO).get(16, 16);
    assert!(c.x > c.y * 2.0, "front red must dominate: {c}");
    // Equal depths: the lower ID blends first.
    let tied = [
        splat(1, (16.0, 16.0), 5.0, red),
        splat(0, (16.0, 16.0), 5.0, green),
    ];
    let c = render_oracle(&tied, 32, 32, Vec3::ZERO).get(16, 16);
    assert!(c.y > c.x * 2.0, "ID 0 must blend first: {c}");
}

#[test]
fn blending_never_terminates_early() {
    // Two black splats clamped to α = 0.99 at the pixel center leave
    // T = 1e-4, below the tile kernel's 1/255 termination threshold;
    // the red splat behind them must still add 0.99 · 1e-4.
    let opaque = |id, depth, color| ProjectedGaussian {
        opacity: 1.0,
        ..splat(id, (8.5, 8.5), depth, color)
    };
    let splats = [
        opaque(0, 1.0, Vec3::ZERO),
        opaque(1, 2.0, Vec3::ZERO),
        opaque(2, 3.0, Vec3::new(1.0, 0.0, 0.0)),
    ];
    let red = render_oracle(&splats, 16, 16, Vec3::ZERO).get(8, 8).x;
    assert!((f64::from(red) - 0.99e-4).abs() < 1e-9, "red = {red:e}");
}

#[test]
fn non_finite_splats_are_skipped() {
    let good = splat(0, (8.0, 8.0), 1.0, Vec3::new(0.9, 0.2, 0.1));
    let clean = render_oracle(&[good], 16, 16, Vec3::ZERO);
    for bad in [
        ProjectedGaussian {
            opacity: f32::NAN,
            ..good
        },
        ProjectedGaussian {
            conic: (0.05, f32::INFINITY, 0.05),
            ..good
        },
        ProjectedGaussian {
            mean2d: Vec2::new(f32::NAN, 8.0),
            ..good
        },
        ProjectedGaussian {
            color: Vec3::new(f32::NAN, 0.0, 0.0),
            ..good
        },
    ] {
        let bad = ProjectedGaussian { id: 1, ..bad };
        assert_eq!(render_oracle(&[bad, good], 16, 16, Vec3::ZERO), clean);
    }
}
