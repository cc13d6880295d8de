//! Real spherical harmonics (SH) for view-dependent color, degrees 0–3.
//!
//! 3DGS stores per-Gaussian color as SH coefficients; the feature-extraction
//! stage evaluates them for the current view direction. Constants follow the
//! reference 3DGS implementation (Kerbl et al. 2023).

use crate::Vec3;

/// Number of SH basis functions for a given degree (0..=3).
///
/// ```
/// assert_eq!(neo_math::sh::basis_count(0), 1);
/// assert_eq!(neo_math::sh::basis_count(3), 16);
/// ```
#[inline]
pub const fn basis_count(degree: usize) -> usize {
    (degree + 1) * (degree + 1)
}

/// Maximum supported SH degree.
pub const MAX_DEGREE: usize = 3;
/// Basis count at [`MAX_DEGREE`].
pub const MAX_COEFFS: usize = basis_count(MAX_DEGREE);

const SH_C0: f32 = 0.282_094_8;
const SH_C1: f32 = 0.488_602_5;
const SH_C2: [f32; 5] = [
    1.092_548_4,
    -1.092_548_4,
    0.315_391_57,
    -1.092_548_4,
    0.546_274_2,
];
const SH_C3: [f32; 7] = [
    -0.590_043_6,
    2.890_611_4,
    -0.457_045_8,
    0.373_176_33,
    -0.457_045_8,
    1.445_305_7,
    -0.590_043_6,
];

/// Evaluates the SH basis for unit direction `dir` into `out`.
///
/// Only the first `basis_count(degree)` entries are written; the rest are
/// zeroed so callers can always dot against the full coefficient array.
///
/// # Panics
///
/// Panics if `degree > MAX_DEGREE`.
pub fn eval_basis(degree: usize, dir: Vec3, out: &mut [f32; MAX_COEFFS]) {
    assert!(
        degree <= MAX_DEGREE,
        "SH degree {degree} exceeds {MAX_DEGREE}"
    );
    out.fill(0.0);
    let (x, y, z) = (dir.x, dir.y, dir.z);

    out[0] = SH_C0;
    if degree >= 1 {
        out[1] = -SH_C1 * y;
        out[2] = SH_C1 * z;
        out[3] = -SH_C1 * x;
    }
    if degree >= 2 {
        let (xx, yy, zz) = (x * x, y * y, z * z);
        let (xy, yz, xz) = (x * y, y * z, x * z);
        out[4] = SH_C2[0] * xy;
        out[5] = SH_C2[1] * yz;
        out[6] = SH_C2[2] * (2.0 * zz - xx - yy);
        out[7] = SH_C2[3] * xz;
        out[8] = SH_C2[4] * (xx - yy);
    }
    if degree >= 3 {
        let (xx, yy, zz) = (x * x, y * y, z * z);
        let xy = x * y;
        out[9] = SH_C3[0] * y * (3.0 * xx - yy);
        out[10] = SH_C3[1] * xy * z;
        out[11] = SH_C3[2] * y * (4.0 * zz - xx - yy);
        out[12] = SH_C3[3] * z * (2.0 * zz - 3.0 * xx - 3.0 * yy);
        out[13] = SH_C3[4] * x * (4.0 * zz - xx - yy);
        out[14] = SH_C3[5] * z * (xx - yy);
        out[15] = SH_C3[6] * x * (xx - 3.0 * yy);
    }
}

/// Per-channel SH coefficients for RGB color.
///
/// `coeffs[c][i]` is the i-th basis coefficient of channel `c`. The DC term
/// encodes base color; higher bands add view dependence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShCoefficients {
    /// Coefficients, indexed `[channel][basis]`.
    pub coeffs: [[f32; MAX_COEFFS]; 3],
    /// Active degree (0..=3); bases above `basis_count(degree)` are ignored.
    pub degree: usize,
}

impl ShCoefficients {
    /// Coefficients representing a constant (view-independent) RGB color.
    ///
    /// ```
    /// use neo_math::{sh::ShCoefficients, Vec3};
    /// let sh = ShCoefficients::from_constant_color(Vec3::new(1.0, 0.5, 0.0));
    /// let c = sh.eval(Vec3::Z);
    /// assert!((c - Vec3::new(1.0, 0.5, 0.0)).length() < 1e-5);
    /// ```
    pub fn from_constant_color(rgb: Vec3) -> Self {
        let mut coeffs = [[0.0; MAX_COEFFS]; 3];
        // eval() adds 0.5 after the dot product (3DGS convention), so the
        // DC coefficient is (c - 0.5) / Y00.
        coeffs[0][0] = (rgb.x - 0.5) / SH_C0;
        coeffs[1][0] = (rgb.y - 0.5) / SH_C0;
        coeffs[2][0] = (rgb.z - 0.5) / SH_C0;
        Self { coeffs, degree: 0 }
    }

    /// Evaluates RGB color for a unit view direction, clamped to `[0, 1]`.
    ///
    /// Matches the 3DGS convention of adding 0.5 after the SH dot product
    /// and clamping negatives.
    pub fn eval(&self, dir: Vec3) -> Vec3 {
        let mut basis = [0.0; MAX_COEFFS];
        eval_basis(self.degree, dir, &mut basis);
        let n = basis_count(self.degree);
        let mut rgb = [0.0f32; 3];
        for (c, out) in rgb.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (coeff, b) in self.coeffs[c].iter().zip(&basis).take(n) {
                acc += coeff * b;
            }
            *out = (acc + 0.5).clamp(0.0, 1.0);
        }
        Vec3::new(rgb[0], rgb[1], rgb[2])
    }
}

impl Default for ShCoefficients {
    fn default() -> Self {
        Self::from_constant_color(Vec3::splat(0.5))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basis_counts() {
        assert_eq!(basis_count(0), 1);
        assert_eq!(basis_count(1), 4);
        assert_eq!(basis_count(2), 9);
        assert_eq!(basis_count(3), 16);
    }

    #[test]
    fn dc_term_is_direction_independent() {
        let sh = ShCoefficients::from_constant_color(Vec3::new(0.8, 0.2, 0.4));
        let a = sh.eval(Vec3::Z);
        let b = sh.eval(Vec3::new(1.0, -1.0, 0.3).normalized());
        assert!((a - b).length() < 1e-6);
        assert!((a - Vec3::new(0.8, 0.2, 0.4)).length() < 1e-5);
    }

    #[test]
    fn degree1_varies_with_direction() {
        let mut sh = ShCoefficients::from_constant_color(Vec3::splat(0.5));
        sh.degree = 1;
        sh.coeffs[0][3] = -1.0; // x band on red channel
        let px = sh.eval(Vec3::X);
        let nx = sh.eval(-Vec3::X);
        assert!(px.x > nx.x, "band-1 SH must be antisymmetric in x");
    }

    #[test]
    fn output_clamped_to_unit_range() {
        let sh = ShCoefficients::from_constant_color(Vec3::new(5.0, -3.0, 0.5));
        let c = sh.eval(Vec3::Z);
        assert!(c.x <= 1.0 && c.y >= 0.0);
    }

    #[test]
    fn basis_degree_orthogonality_probe() {
        // Numerical sanity: band-1 bases integrate to ~0 over directions.
        let dirs = [Vec3::X, -Vec3::X, Vec3::Y, -Vec3::Y, Vec3::Z, -Vec3::Z];
        let mut sums = [0.0f32; MAX_COEFFS];
        let mut basis = [0.0; MAX_COEFFS];
        for &d in &dirs {
            eval_basis(1, d, &mut basis);
            for (s, b) in sums.iter_mut().zip(basis.iter()) {
                *s += b;
            }
        }
        for &s in &sums[1..4] {
            assert!(s.abs() < 1e-5);
        }
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn degree_over_max_panics() {
        let mut out = [0.0; MAX_COEFFS];
        eval_basis(4, Vec3::Z, &mut out);
    }
}
