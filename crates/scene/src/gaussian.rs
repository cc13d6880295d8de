//! A single anisotropic 3D Gaussian primitive, and its geometry record.

use neo_math::sh::ShCoefficients;
use neo_math::{Mat3, Quat, Vec3};

/// The geometry of one splat: everything projection reads, and nothing
/// it does not (color lives apart, in the splat's SH coefficients).
///
/// This is the hot per-splat record a [`GaussianCloud`](crate::GaussianCloud)
/// stores contiguously and lends to the projection kernel as a slice
/// ([`GaussianCloud::geometry`](crate::GaussianCloud::geometry)): 44
/// bytes of `f32`, the first term of the ledger charge
/// [`GaussianCloud::record_bytes`](crate::GaussianCloud::record_bytes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplatGeometry {
    /// Mean position `μ` in world space.
    pub mean: Vec3,
    /// Per-axis standard deviations (the diagonal of `S`).
    pub scale: Vec3,
    /// Orientation `R` as a unit quaternion.
    pub rotation: Quat,
    /// Base opacity `o ∈ [0, 1]`.
    pub opacity: f32,
}

const _: () = assert!(std::mem::size_of::<SplatGeometry>() == 44);

impl SplatGeometry {
    /// The 3D covariance `Σ = R S Sᵀ Rᵀ`.
    ///
    /// The frame path no longer calls this: projection factors `Σ` as
    /// `(R·S)(R·S)ᵀ` and never forms it.
    pub fn covariance(&self) -> Mat3 {
        let r = self.rotation.to_mat3();
        let s2 = Mat3::from_diagonal(self.scale * self.scale);
        r * s2 * r.transpose()
    }

    /// Radius of the bounding sphere at 3σ, used for conservative culling.
    pub fn bounding_radius(&self) -> f32 {
        3.0 * self.scale.max_element()
    }

    /// True when all parameters are finite and opacity is in range — the
    /// invariant the pipeline assumes.
    pub fn is_valid(&self) -> bool {
        self.mean.is_finite()
            && self.scale.is_finite()
            && self.scale.min_element() > 0.0
            && (0.0..=1.0).contains(&self.opacity)
    }
}

/// One anisotropic 3D Gaussian, as produced by 3DGS training.
///
/// A Gaussian is an ellipsoid defined by a mean `μ`, per-axis standard
/// deviations (`scale`), an orientation quaternion, a scalar opacity
/// `o ∈ [0, 1]`, and spherical-harmonics color coefficients (Eq. 1 of the
/// paper: `α(x) = o · exp(-½ (x-μ)ᵀ Σ⁻¹ (x-μ))`).
///
/// `Gaussian` is the value type for construction and IO. Clouds do not
/// store it: they keep its [`SplatGeometry`] and its SH apart.
#[derive(Debug, Clone, PartialEq)]
pub struct Gaussian {
    /// Mean position `μ` in world space.
    pub mean: Vec3,
    /// Per-axis standard deviations (the diagonal of `S`).
    pub scale: Vec3,
    /// Orientation `R` as a unit quaternion.
    pub rotation: Quat,
    /// Base opacity `o ∈ [0, 1]`.
    pub opacity: f32,
    /// View-dependent color as SH coefficients.
    pub sh: ShCoefficients,
}

impl Gaussian {
    /// Constructs an isotropic Gaussian with a constant color — handy for
    /// tests and examples.
    ///
    /// ```
    /// use neo_scene::Gaussian;
    /// use neo_math::Vec3;
    /// let g = Gaussian::isotropic(Vec3::ZERO, 0.1, 0.9, Vec3::new(1.0, 0.0, 0.0));
    /// assert!((g.covariance().determinant() - 0.1f32.powi(6)).abs() < 1e-9);
    /// ```
    pub fn isotropic(mean: Vec3, sigma: f32, opacity: f32, rgb: Vec3) -> Self {
        Self {
            mean,
            scale: Vec3::splat(sigma),
            rotation: Quat::IDENTITY,
            opacity,
            sh: ShCoefficients::from_constant_color(rgb),
        }
    }

    /// Joins a geometry record and its SH coefficients.
    pub fn from_parts(geometry: SplatGeometry, sh: ShCoefficients) -> Self {
        let SplatGeometry {
            mean,
            scale,
            rotation,
            opacity,
        } = geometry;
        Self {
            mean,
            scale,
            rotation,
            opacity,
            sh,
        }
    }

    /// The Gaussian's geometry record (everything but its color).
    pub fn geometry(&self) -> SplatGeometry {
        SplatGeometry {
            mean: self.mean,
            scale: self.scale,
            rotation: self.rotation,
            opacity: self.opacity,
        }
    }

    /// The 3D covariance `Σ = R S Sᵀ Rᵀ` ([`SplatGeometry::covariance`]).
    pub fn covariance(&self) -> Mat3 {
        self.geometry().covariance()
    }

    /// Radius of the bounding sphere at 3σ
    /// ([`SplatGeometry::bounding_radius`]).
    pub fn bounding_radius(&self) -> f32 {
        self.geometry().bounding_radius()
    }

    /// True when all parameters are finite and opacity is in range
    /// ([`SplatGeometry::is_valid`]).
    pub fn is_valid(&self) -> bool {
        self.geometry().is_valid()
    }
}

impl Default for Gaussian {
    fn default() -> Self {
        Self::isotropic(Vec3::ZERO, 0.05, 0.8, Vec3::splat(0.5))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covariance_of_identity_rotation_is_diagonal() {
        let g = Gaussian {
            scale: Vec3::new(1.0, 2.0, 3.0),
            ..Default::default()
        };
        let cov = g.covariance();
        assert!((cov.get(0, 0) - 1.0).abs() < 1e-5);
        assert!((cov.get(1, 1) - 4.0).abs() < 1e-5);
        assert!((cov.get(2, 2) - 9.0).abs() < 1e-5);
        assert!(cov.get(0, 1).abs() < 1e-6);
    }

    #[test]
    fn covariance_is_symmetric_under_rotation() {
        let g = Gaussian {
            scale: Vec3::new(0.5, 0.1, 0.9),
            rotation: Quat::from_axis_angle(Vec3::new(1.0, 2.0, 0.5).normalized(), 1.2),
            ..Default::default()
        };
        let cov = g.covariance();
        for r in 0..3 {
            for c in 0..3 {
                assert!((cov.get(r, c) - cov.get(c, r)).abs() < 1e-5);
            }
        }
        // Rotation preserves the determinant (product of squared scales).
        let det_expect = (g.scale.x * g.scale.y * g.scale.z).powi(2);
        assert!((cov.determinant() - det_expect).abs() / det_expect < 1e-3);
    }

    #[test]
    fn validity_checks() {
        let mut g = Gaussian::default();
        assert!(g.is_valid());
        g.opacity = 1.5;
        assert!(!g.is_valid());
        g.opacity = 0.5;
        g.scale = Vec3::new(0.0, 0.1, 0.1);
        assert!(!g.is_valid());
    }

    #[test]
    fn bounding_radius_covers_3_sigma() {
        let g = Gaussian {
            scale: Vec3::new(0.1, 0.4, 0.2),
            ..Default::default()
        };
        assert!((g.bounding_radius() - 1.2).abs() < 1e-6);
    }
}
