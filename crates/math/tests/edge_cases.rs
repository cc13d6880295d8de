//! Edge-case tests for the math toolkit: degenerate inputs the pipeline
//! can produce (zero vectors, empty boxes, slerp endpoints, band-0 SH).

#![allow(
    clippy::float_cmp,
    reason = "tests compare against exactly representable expected values"
)]

use neo_math::sh::{self, ShCoefficients, MAX_COEFFS};
use neo_math::{Aabb, Quat, Vec3};

const SH_C0: f32 = 0.282_094_8;

#[test]
fn zero_length_vec3_normalizes_to_zero() {
    assert_eq!(Vec3::ZERO.normalized(), Vec3::ZERO);
}

#[test]
fn non_finite_vec3_normalizes_to_zero() {
    // Documented contract: callers never observe NaNs from normalized().
    let inf = Vec3::new(f32::INFINITY, 0.0, 0.0);
    assert_eq!(inf.normalized(), Vec3::ZERO);
    let nan = Vec3::new(f32::NAN, 1.0, 0.0);
    assert_eq!(nan.normalized(), Vec3::ZERO);
}

#[test]
fn denormal_scale_vec3_normalizes_without_nan() {
    let tiny = Vec3::new(1e-20, 0.0, 0.0);
    let n = tiny.normalized();
    assert!(n.x.is_finite() && n.y.is_finite() && n.z.is_finite());
    // Either a clean unit vector or the zero fallback; never garbage.
    let len = n.length();
    assert!(len == 0.0 || (len - 1.0).abs() < 1e-5, "len={len}");
}

#[test]
fn empty_aabb_is_empty_and_union_recovers() {
    assert!(Aabb::EMPTY.is_empty());
    let p = Vec3::new(1.0, -2.0, 3.0);
    let b = Aabb::EMPTY.union_point(p);
    assert!(!b.is_empty());
    assert_eq!(b.min, p);
    assert_eq!(b.max, p);
    assert!(b.contains(p));
    assert_eq!(b.diagonal(), 0.0);
}

#[test]
fn degenerate_point_aabb_behaves() {
    // A zero-volume box at a point: contains exactly that point,
    // intersects itself, and unions like any other box.
    let p = Vec3::new(0.5, 0.5, 0.5);
    let point_box = Aabb::new(p, p);
    assert!(!point_box.is_empty());
    assert!(point_box.contains(p));
    assert!(!point_box.contains(p + Vec3::splat(1e-3)));
    assert!(point_box.intersects(point_box));
    assert_eq!(point_box.center(), p);
    assert_eq!(point_box.half_extent(), Vec3::ZERO);

    let grown = point_box.union(Aabb::from_center_half_extent(Vec3::ZERO, Vec3::ONE));
    assert!(grown.contains(p));
    assert!(grown.contains(Vec3::ZERO));
}

#[test]
fn aabb_from_empty_point_set_is_empty() {
    assert!(Aabb::from_points(std::iter::empty()).is_empty());
}

#[test]
fn slerp_endpoints_are_exact_rotations() {
    let a = Quat::from_axis_angle(Vec3::Y, 0.3);
    let b = Quat::from_axis_angle(Vec3::new(1.0, 1.0, 0.0).normalized(), 2.1);
    let v = Vec3::new(0.3, -0.7, 1.1);
    let s0 = a.slerp(b, 0.0);
    let s1 = a.slerp(b, 1.0);
    assert!((s0.rotate(v) - a.rotate(v)).length() < 1e-5);
    assert!((s1.rotate(v) - b.rotate(v)).length() < 1e-5);
}

#[test]
fn slerp_endpoints_with_antipodal_representation() {
    // q and -q encode the same rotation; slerp must take the short way
    // and still land on the endpoint rotations.
    let a = Quat::from_axis_angle(Vec3::Y, 0.4);
    let b = Quat::from_axis_angle(Vec3::Y, 1.9);
    let neg_b = Quat::new(-b.w, -b.x, -b.y, -b.z);
    let v = Vec3::new(1.0, 0.2, -0.5);
    assert!((a.slerp(neg_b, 0.0).rotate(v) - a.rotate(v)).length() < 1e-5);
    assert!((a.slerp(neg_b, 1.0).rotate(v) - b.rotate(v)).length() < 1e-5);
}

#[test]
fn slerp_identical_quaternions_stays_put() {
    // dot == 1 exercises the nlerp fallback branch.
    let q = Quat::from_axis_angle(Vec3::new(0.0, 0.0, 1.0), 0.8);
    for t in [0.0, 0.25, 0.5, 1.0] {
        let s = q.slerp(q, t);
        let v = Vec3::new(0.1, 0.9, -0.4);
        assert!((s.rotate(v) - q.rotate(v)).length() < 1e-5);
        assert!((s.norm_squared() - 1.0).abs() < 1e-5);
    }
}

#[test]
fn sh_band0_basis_is_constant() {
    // Y00 is direction-independent: every direction gives the same basis.
    let mut out = [0.0f32; MAX_COEFFS];
    for dir in [
        Vec3::Y,
        Vec3::new(1.0, 0.0, 0.0),
        Vec3::new(-0.6, 0.64, 0.48),
    ] {
        sh::eval_basis(0, dir, &mut out);
        assert!((out[0] - SH_C0).abs() < 1e-6, "Y00={}", out[0]);
        assert!(out[1..].iter().all(|&b| b == 0.0));
    }
}

#[test]
fn sh_band0_eval_reproduces_constant_color() {
    let color = Vec3::new(0.8, 0.45, 0.1);
    let coeffs = ShCoefficients::from_constant_color(color);
    assert_eq!(coeffs.degree, 0);
    for dir in [
        Vec3::Y,
        Vec3::new(0.0, 0.0, -1.0),
        Vec3::new(0.57, -0.57, 0.59),
    ] {
        let c = coeffs.eval(dir);
        assert!((c - color).length() < 1e-5, "dir {dir:?} -> {c:?}");
    }
}

#[test]
fn sh_eval_clamps_out_of_gamut_dc() {
    // A wildly negative DC term must clamp to black, not go negative.
    let mut coeffs = ShCoefficients::from_constant_color(Vec3::ZERO);
    coeffs.coeffs[0][0] = -100.0;
    let c = coeffs.eval(Vec3::Y);
    assert_eq!(c.x, 0.0);
    assert!(c.x >= 0.0 && c.y >= 0.0 && c.z >= 0.0);
}
