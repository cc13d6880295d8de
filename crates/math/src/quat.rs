//! Unit quaternions for Gaussian orientations and camera poses.

use crate::{Mat3, Vec3};

/// Unit quaternion `w + xi + yj + zk`.
///
/// Gaussian orientations in 3DGS checkpoints are stored as quaternions; the
/// feature-extraction stage converts them to the rotation `R` of the 3D
/// covariance `Σ = R S Sᵀ Rᵀ`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quat {
    /// Scalar part.
    pub w: f32,
    /// i component.
    pub x: f32,
    /// j component.
    pub y: f32,
    /// k component.
    pub z: f32,
}

impl Quat {
    /// Identity rotation.
    pub const IDENTITY: Self = Self {
        w: 1.0,
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };

    /// Constructs a quaternion from components (not normalized).
    #[inline]
    pub const fn new(w: f32, x: f32, y: f32, z: f32) -> Self {
        Self { w, x, y, z }
    }

    /// Rotation of `angle` radians about the (unit) `axis`.
    pub fn from_axis_angle(axis: Vec3, angle: f32) -> Self {
        let (s, c) = (angle * 0.5).sin_cos();
        Self {
            w: c,
            x: axis.x * s,
            y: axis.y * s,
            z: axis.z * s,
        }
    }

    /// Squared norm.
    #[inline]
    pub fn norm_squared(self) -> f32 {
        self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z
    }

    /// Returns the normalized quaternion, or the identity when the norm is
    /// not a positive finite number.
    pub fn normalized(self) -> Self {
        let n = self.norm_squared().sqrt();
        if n > 0.0 && n.is_finite() {
            Self {
                w: self.w / n,
                x: self.x / n,
                y: self.y / n,
                z: self.z / n,
            }
        } else {
            Self::IDENTITY
        }
    }

    /// Conjugate (inverse for unit quaternions).
    #[inline]
    pub fn conjugate(self) -> Self {
        Self {
            w: self.w,
            x: -self.x,
            y: -self.y,
            z: -self.z,
        }
    }

    /// Rotates a vector.
    pub fn rotate(self, v: Vec3) -> Vec3 {
        self.to_mat3() * v
    }

    /// Converts to a rotation matrix. The quaternion is normalized first so
    /// raw checkpoint values can be used directly.
    pub fn to_mat3(self) -> Mat3 {
        let q = self.normalized();
        let (w, x, y, z) = (q.w, q.x, q.y, q.z);
        let (x2, y2, z2) = (x + x, y + y, z + z);
        let (xx, yy, zz) = (x * x2, y * y2, z * z2);
        let (xy, xz, yz) = (x * y2, x * z2, y * z2);
        let (wx, wy, wz) = (w * x2, w * y2, w * z2);
        Mat3::from_cols(
            Vec3::new(1.0 - (yy + zz), xy + wz, xz - wy),
            Vec3::new(xy - wz, 1.0 - (xx + zz), yz + wx),
            Vec3::new(xz + wy, yz - wx, 1.0 - (xx + yy)),
        )
    }

    /// Spherical linear interpolation between unit quaternions.
    ///
    /// Falls back to normalized lerp when the quaternions are nearly
    /// parallel (numerically safer and visually identical).
    pub fn slerp(self, mut other: Self, t: f32) -> Self {
        let mut dot = self.w * other.w + self.x * other.x + self.y * other.y + self.z * other.z;
        // Take the short way around.
        if dot < 0.0 {
            other = Self {
                w: -other.w,
                x: -other.x,
                y: -other.y,
                z: -other.z,
            };
            dot = -dot;
        }
        if dot > 0.9995 {
            return Self {
                w: self.w + (other.w - self.w) * t,
                x: self.x + (other.x - self.x) * t,
                y: self.y + (other.y - self.y) * t,
                z: self.z + (other.z - self.z) * t,
            }
            .normalized();
        }
        let theta = dot.clamp(-1.0, 1.0).acos();
        let sin_theta = theta.sin();
        let a = ((1.0 - t) * theta).sin() / sin_theta;
        let b = (t * theta).sin() / sin_theta;
        Self {
            w: self.w * a + other.w * b,
            x: self.x * a + other.x * b,
            y: self.y * a + other.y * b,
            z: self.z * a + other.z * b,
        }
    }

    /// Rotation that looks along `forward` with the given `up` hint,
    /// following the right-handed, -Z-forward camera convention.
    pub fn look_rotation(forward: Vec3, up: Vec3) -> Self {
        let f = forward.normalized();
        let r = up.cross(f).normalized();
        // Degenerate up/forward pair: pick any perpendicular right vector.
        let r = if r.length_squared() < 1e-12 {
            Vec3::X
        } else {
            r
        };
        let u = f.cross(r);
        Self::from_mat3(Mat3::from_cols(r, u, f))
    }

    /// Extracts a quaternion from an orthonormal rotation matrix.
    pub fn from_mat3(m: Mat3) -> Self {
        let trace = m.get(0, 0) + m.get(1, 1) + m.get(2, 2);
        let q = if trace > 0.0 {
            let s = (trace + 1.0).sqrt() * 2.0;
            Self {
                w: 0.25 * s,
                x: (m.get(2, 1) - m.get(1, 2)) / s,
                y: (m.get(0, 2) - m.get(2, 0)) / s,
                z: (m.get(1, 0) - m.get(0, 1)) / s,
            }
        } else if m.get(0, 0) > m.get(1, 1) && m.get(0, 0) > m.get(2, 2) {
            let s = (1.0 + m.get(0, 0) - m.get(1, 1) - m.get(2, 2)).sqrt() * 2.0;
            Self {
                w: (m.get(2, 1) - m.get(1, 2)) / s,
                x: 0.25 * s,
                y: (m.get(0, 1) + m.get(1, 0)) / s,
                z: (m.get(0, 2) + m.get(2, 0)) / s,
            }
        } else if m.get(1, 1) > m.get(2, 2) {
            let s = (1.0 + m.get(1, 1) - m.get(0, 0) - m.get(2, 2)).sqrt() * 2.0;
            Self {
                w: (m.get(0, 2) - m.get(2, 0)) / s,
                x: (m.get(0, 1) + m.get(1, 0)) / s,
                y: 0.25 * s,
                z: (m.get(1, 2) + m.get(2, 1)) / s,
            }
        } else {
            let s = (1.0 + m.get(2, 2) - m.get(0, 0) - m.get(1, 1)).sqrt() * 2.0;
            Self {
                w: (m.get(1, 0) - m.get(0, 1)) / s,
                x: (m.get(0, 2) + m.get(2, 0)) / s,
                y: (m.get(1, 2) + m.get(2, 1)) / s,
                z: 0.25 * s,
            }
        };
        q.normalized()
    }
}

impl std::ops::Mul for Quat {
    type Output = Self;

    /// Hamilton product: `a * b` composes rotations (apply `b`, then `a`).
    fn mul(self, r: Self) -> Self {
        Self {
            w: self.w * r.w - self.x * r.x - self.y * r.y - self.z * r.z,
            x: self.w * r.x + self.x * r.w + self.y * r.z - self.z * r.y,
            y: self.w * r.y - self.x * r.z + self.y * r.w + self.z * r.x,
            z: self.w * r.z + self.x * r.y - self.y * r.x + self.z * r.w,
        }
    }
}

impl Default for Quat {
    #[inline]
    fn default() -> Self {
        Self::IDENTITY
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_rotation_is_noop() {
        let v = Vec3::new(1.0, 2.0, 3.0);
        assert!((Quat::IDENTITY.rotate(v) - v).length() < 1e-6);
    }

    #[test]
    fn axis_angle_quarter_turn() {
        let q = Quat::from_axis_angle(Vec3::Z, std::f32::consts::FRAC_PI_2);
        let v = q.rotate(Vec3::X);
        assert!((v - Vec3::Y).length() < 1e-6);
    }

    #[test]
    fn conjugate_inverts_rotation() {
        let q = Quat::from_axis_angle(Vec3::new(1.0, 1.0, 0.0).normalized(), 0.8);
        let v = Vec3::new(0.3, -0.7, 2.0);
        let back = q.conjugate().rotate(q.rotate(v));
        assert!((back - v).length() < 1e-5);
    }

    #[test]
    fn to_mat3_is_orthonormal() {
        let q = Quat::new(0.3, 0.4, -0.2, 0.8);
        let m = q.to_mat3();
        assert!((m.determinant() - 1.0).abs() < 1e-4);
        let mt_m = m.transpose() * m;
        assert!((mt_m.x_axis - Vec3::X).length() < 1e-4);
        assert!((mt_m.y_axis - Vec3::Y).length() < 1e-4);
        assert!((mt_m.z_axis - Vec3::Z).length() < 1e-4);
    }

    #[test]
    fn slerp_endpoints_match() {
        let a = Quat::from_axis_angle(Vec3::Y, 0.2);
        let b = Quat::from_axis_angle(Vec3::Y, 1.5);
        let s0 = a.slerp(b, 0.0);
        let s1 = a.slerp(b, 1.0);
        let v = Vec3::X;
        assert!((s0.rotate(v) - a.rotate(v)).length() < 1e-4);
        assert!((s1.rotate(v) - b.rotate(v)).length() < 1e-4);
    }

    #[test]
    fn slerp_midpoint_halves_angle() {
        let a = Quat::IDENTITY;
        let b = Quat::from_axis_angle(Vec3::Y, 1.0);
        let mid = a.slerp(b, 0.5);
        let expect = Quat::from_axis_angle(Vec3::Y, 0.5);
        assert!((mid.rotate(Vec3::X) - expect.rotate(Vec3::X)).length() < 1e-4);
    }

    #[test]
    fn mat3_roundtrip() {
        for &(axis, angle) in &[
            (Vec3::X, 0.4),
            (Vec3::Y, 2.0),
            (Vec3::new(1.0, -1.0, 0.5).normalized(), 2.9),
        ] {
            let q = Quat::from_axis_angle(axis, angle);
            let q2 = Quat::from_mat3(q.to_mat3());
            let v = Vec3::new(0.2, 0.9, -0.4);
            assert!((q.rotate(v) - q2.rotate(v)).length() < 1e-4);
        }
    }

    #[test]
    fn hamilton_product_composes() {
        let a = Quat::from_axis_angle(Vec3::X, 0.5);
        let b = Quat::from_axis_angle(Vec3::Y, 0.9);
        let v = Vec3::new(1.0, 2.0, 3.0);
        let composed = (a * b).rotate(v);
        let sequential = a.rotate(b.rotate(v));
        assert!((composed - sequential).length() < 1e-5);
    }

    #[test]
    fn zero_quat_normalizes_to_identity() {
        assert_eq!(Quat::new(0.0, 0.0, 0.0, 0.0).normalized(), Quat::IDENTITY);
    }
}
