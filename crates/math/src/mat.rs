//! 3×3 and 4×4 column-major `f32` matrices.

use crate::{Vec3, Vec4};
use std::ops::{Add, Mul};

/// Column-major 3×3 matrix.
///
/// Used for rotations, 3D covariances, and the camera-space Jacobian of the
/// perspective projection in the EWA splatting step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mat3 {
    /// First column.
    pub x_axis: Vec3,
    /// Second column.
    pub y_axis: Vec3,
    /// Third column.
    pub z_axis: Vec3,
}

impl Mat3 {
    /// Identity matrix.
    pub const IDENTITY: Self = Self {
        x_axis: Vec3::X,
        y_axis: Vec3::Y,
        z_axis: Vec3::Z,
    };

    /// Zero matrix.
    pub const ZERO: Self = Self {
        x_axis: Vec3::ZERO,
        y_axis: Vec3::ZERO,
        z_axis: Vec3::ZERO,
    };

    /// Builds a matrix from three columns.
    #[inline]
    pub const fn from_cols(x_axis: Vec3, y_axis: Vec3, z_axis: Vec3) -> Self {
        Self {
            x_axis,
            y_axis,
            z_axis,
        }
    }

    /// Builds a matrix from rows (transposed `from_cols`).
    #[inline]
    pub fn from_rows(r0: Vec3, r1: Vec3, r2: Vec3) -> Self {
        Self::from_cols(
            Vec3::new(r0.x, r1.x, r2.x),
            Vec3::new(r0.y, r1.y, r2.y),
            Vec3::new(r0.z, r1.z, r2.z),
        )
    }

    /// Diagonal matrix with entries of `d`.
    #[inline]
    pub fn from_diagonal(d: Vec3) -> Self {
        Self::from_cols(
            Vec3::new(d.x, 0.0, 0.0),
            Vec3::new(0.0, d.y, 0.0),
            Vec3::new(0.0, 0.0, d.z),
        )
    }

    /// Transpose.
    #[inline]
    pub fn transpose(self) -> Self {
        Self::from_rows(self.x_axis, self.y_axis, self.z_axis)
    }

    /// Determinant.
    #[inline]
    pub fn determinant(self) -> f32 {
        self.x_axis.dot(self.y_axis.cross(self.z_axis))
    }

    /// Inverse, or `None` when the matrix is (near-)singular.
    pub fn inverse(self) -> Option<Self> {
        let det = self.determinant();
        if det.abs() < 1e-20 || !det.is_finite() {
            return None;
        }
        let inv_det = 1.0 / det;
        let a = self.x_axis;
        let b = self.y_axis;
        let c = self.z_axis;
        // For M = [a b c] (columns), the rows of M⁻¹ are the reciprocal
        // basis vectors b×c/det, c×a/det, a×b/det.
        let r0 = b.cross(c) * inv_det;
        let r1 = c.cross(a) * inv_det;
        let r2 = a.cross(b) * inv_det;
        Some(Self::from_rows(r0, r1, r2))
    }

    /// Element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics when `row` or `col` is outside `0..3`.
    #[inline]
    pub fn get(self, row: usize, col: usize) -> f32 {
        let col_v = match col {
            0 => self.x_axis,
            1 => self.y_axis,
            2 => self.z_axis,
            #[expect(
                clippy::panic,
                reason = "slice-indexing semantics: an out-of-bounds accessor index is a caller bug, matching `[]` on arrays"
            )]
            _ => panic!("column {col} out of bounds for Mat3"),
        };
        col_v[row]
    }

    /// True when every element is finite.
    pub fn is_finite(self) -> bool {
        self.x_axis.is_finite() && self.y_axis.is_finite() && self.z_axis.is_finite()
    }
}

impl Mul<Vec3> for Mat3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, v: Vec3) -> Vec3 {
        self.x_axis * v.x + self.y_axis * v.y + self.z_axis * v.z
    }
}

impl Mul for Mat3 {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Self::from_cols(self * rhs.x_axis, self * rhs.y_axis, self * rhs.z_axis)
    }
}

impl Add for Mat3 {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self::from_cols(
            self.x_axis + rhs.x_axis,
            self.y_axis + rhs.y_axis,
            self.z_axis + rhs.z_axis,
        )
    }
}

impl Mul<f32> for Mat3 {
    type Output = Self;
    #[inline]
    fn mul(self, s: f32) -> Self {
        Self::from_cols(self.x_axis * s, self.y_axis * s, self.z_axis * s)
    }
}

impl Default for Mat3 {
    #[inline]
    fn default() -> Self {
        Self::IDENTITY
    }
}

/// Column-major 4×4 matrix for homogeneous transforms (view matrices).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mat4 {
    /// First column.
    pub x_axis: Vec4,
    /// Second column.
    pub y_axis: Vec4,
    /// Third column.
    pub z_axis: Vec4,
    /// Fourth column (translation in affine transforms).
    pub w_axis: Vec4,
}

impl Mat4 {
    /// Identity matrix.
    pub const IDENTITY: Self = Self {
        x_axis: Vec4::new(1.0, 0.0, 0.0, 0.0),
        y_axis: Vec4::new(0.0, 1.0, 0.0, 0.0),
        z_axis: Vec4::new(0.0, 0.0, 1.0, 0.0),
        w_axis: Vec4::new(0.0, 0.0, 0.0, 1.0),
    };

    /// Builds a matrix from four columns.
    #[inline]
    pub const fn from_cols(x_axis: Vec4, y_axis: Vec4, z_axis: Vec4, w_axis: Vec4) -> Self {
        Self {
            x_axis,
            y_axis,
            z_axis,
            w_axis,
        }
    }

    /// Builds an affine transform from a rotation and a translation.
    #[inline]
    pub fn from_rotation_translation(rot: Mat3, t: Vec3) -> Self {
        Self::from_cols(
            rot.x_axis.extend(0.0),
            rot.y_axis.extend(0.0),
            rot.z_axis.extend(0.0),
            t.extend(1.0),
        )
    }

    /// Upper-left 3×3 block.
    #[inline]
    pub fn to_mat3(self) -> Mat3 {
        Mat3::from_cols(
            self.x_axis.truncate(),
            self.y_axis.truncate(),
            self.z_axis.truncate(),
        )
    }

    /// Translation column.
    #[inline]
    pub fn translation(self) -> Vec3 {
        self.w_axis.truncate()
    }

    /// Transforms a point (w = 1).
    #[inline]
    pub fn transform_point(self, p: Vec3) -> Vec3 {
        (self * p.extend(1.0)).truncate()
    }

    /// Transforms a direction (w = 0).
    #[inline]
    pub fn transform_vector(self, v: Vec3) -> Vec3 {
        (self * v.extend(0.0)).truncate()
    }

    /// Inverse of an affine rigid transform (rotation + translation).
    ///
    /// The rotation block must be orthonormal; this is the common case for
    /// camera view matrices and avoids a general 4×4 inversion.
    pub fn inverse_rigid(self) -> Self {
        let r_t = self.to_mat3().transpose();
        let t = self.translation();
        Self::from_rotation_translation(r_t, -(r_t * t))
    }

    /// Transpose.
    pub fn transpose(self) -> Self {
        Self::from_cols(
            Vec4::new(self.x_axis.x, self.y_axis.x, self.z_axis.x, self.w_axis.x),
            Vec4::new(self.x_axis.y, self.y_axis.y, self.z_axis.y, self.w_axis.y),
            Vec4::new(self.x_axis.z, self.y_axis.z, self.z_axis.z, self.w_axis.z),
            Vec4::new(self.x_axis.w, self.y_axis.w, self.z_axis.w, self.w_axis.w),
        )
    }
}

impl Mul<Vec4> for Mat4 {
    type Output = Vec4;
    #[inline]
    fn mul(self, v: Vec4) -> Vec4 {
        self.x_axis * v.x + self.y_axis * v.y + self.z_axis * v.z + self.w_axis * v.w
    }
}

impl Mul for Mat4 {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Self::from_cols(
            self * rhs.x_axis,
            self * rhs.y_axis,
            self * rhs.z_axis,
            self * rhs.w_axis,
        )
    }
}

impl Default for Mat4 {
    #[inline]
    fn default() -> Self {
        Self::IDENTITY
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Quat;

    fn mat3_close(a: Mat3, b: Mat3, eps: f32) -> bool {
        (a.x_axis - b.x_axis).length() < eps
            && (a.y_axis - b.y_axis).length() < eps
            && (a.z_axis - b.z_axis).length() < eps
    }

    #[test]
    fn identity_mul_is_noop() {
        let v = Vec3::new(1.0, -2.0, 3.0);
        assert_eq!(Mat3::IDENTITY * v, v);
        let m = Mat3::from_diagonal(Vec3::new(2.0, 3.0, 4.0));
        assert!(mat3_close(Mat3::IDENTITY * m, m, 1e-9));
    }

    #[test]
    fn determinant_of_diagonal() {
        let m = Mat3::from_diagonal(Vec3::new(2.0, 3.0, 4.0));
        assert_eq!(m.determinant(), 24.0);
    }

    #[test]
    fn inverse_roundtrip() {
        let m = Mat3::from_rows(
            Vec3::new(2.0, 1.0, 0.0),
            Vec3::new(0.0, 3.0, 1.0),
            Vec3::new(1.0, 0.0, 2.0),
        );
        let inv = m.inverse().unwrap();
        assert!(mat3_close(m * inv, Mat3::IDENTITY, 1e-5));
        assert!(mat3_close(inv * m, Mat3::IDENTITY, 1e-5));
    }

    #[test]
    fn singular_has_no_inverse() {
        let m = Mat3::from_cols(Vec3::X, Vec3::X, Vec3::Z);
        assert!(m.inverse().is_none());
    }

    #[test]
    fn transpose_involution() {
        let m = Mat3::from_rows(
            Vec3::new(1.0, 2.0, 3.0),
            Vec3::new(4.0, 5.0, 6.0),
            Vec3::new(7.0, 8.0, 9.0),
        );
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.transpose().get(1, 0), 2.0);
    }

    #[test]
    fn mat4_point_vs_vector() {
        let t = Mat4::from_rotation_translation(Mat3::IDENTITY, Vec3::new(1.0, 2.0, 3.0));
        assert_eq!(t.transform_point(Vec3::ZERO), Vec3::new(1.0, 2.0, 3.0));
        assert_eq!(t.transform_vector(Vec3::X), Vec3::X);
    }

    #[test]
    fn rigid_inverse_undoes_transform() {
        let rot = Quat::from_axis_angle(Vec3::new(0.3, 0.5, 0.8).normalized(), 1.1).to_mat3();
        let m = Mat4::from_rotation_translation(rot, Vec3::new(4.0, -2.0, 7.0));
        let inv = m.inverse_rigid();
        let p = Vec3::new(1.0, 2.0, 3.0);
        let back = inv.transform_point(m.transform_point(p));
        assert!((back - p).length() < 1e-4);
    }

    #[test]
    fn mat4_mul_associates_with_transform() {
        let rot = Quat::from_axis_angle(Vec3::Y, 0.7).to_mat3();
        let a = Mat4::from_rotation_translation(rot, Vec3::new(1.0, 0.0, 0.0));
        let b = Mat4::from_rotation_translation(Mat3::IDENTITY, Vec3::new(0.0, 2.0, 0.0));
        let p = Vec3::new(0.5, 0.5, 0.5);
        let via_mul = (a * b).transform_point(p);
        let via_seq = a.transform_point(b.transform_point(p));
        assert!((via_mul - via_seq).length() < 1e-5);
    }
}
