//! Feature extraction: EWA projection of 3D Gaussians to screen-space
//! splats, plus view-dependent color evaluation.
//!
//! Follows the reference 3DGS math (Kerbl et al. 2023 / Zwicker's EWA
//! splatting): the 3D covariance is transformed into camera space, the
//! perspective projection is linearized with its Jacobian, and the
//! resulting 2D covariance yields a conic and a 3σ bounding radius.

use crate::culling::in_frustum;
use neo_math::{Mat3, Mat4, Vec2, Vec3};
use neo_scene::{Camera, CloudStorage, Gaussian};

/// Low-pass dilation added to the 2D covariance diagonal (antialiasing),
/// matching the reference implementation's 0.3 px².
const COV2D_DILATION: f32 = 0.3;

/// A Gaussian projected to the image plane — the per-Gaussian record the
/// rasterizer consumes (the "2D Gaussian features" of the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProjectedGaussian {
    /// ID (index) of the source Gaussian in the cloud.
    pub id: u32,
    /// Splat center in pixel coordinates.
    pub mean2d: Vec2,
    /// Camera-space depth (used as the sort key).
    pub depth: f32,
    /// Inverse 2D covariance, packed `(a, b, c)` for `[[a, b], [b, c]]`.
    pub conic: (f32, f32, f32),
    /// Conservative splat radius in pixels (3σ of the major axis).
    pub radius: f32,
    /// View-dependent RGB color.
    pub color: Vec3,
    /// Base opacity.
    pub opacity: f32,
}

impl ProjectedGaussian {
    /// Gaussian falloff weight at pixel `p` (the exponent term of Eq. 1
    /// restricted to the image plane).
    #[inline]
    pub fn falloff(&self, p: Vec2) -> f32 {
        let d = p - self.mean2d;
        let power =
            -0.5 * (self.conic.0 * d.x * d.x + self.conic.2 * d.y * d.y) - self.conic.1 * d.x * d.y;
        if power > 0.0 {
            // Numerical guard: conic must be PSD; clamp tiny violations.
            return 1.0;
        }
        power.exp()
    }

    /// Effective α contribution at pixel `p`, clamped to 0.99 like the
    /// reference rasterizer.
    #[inline]
    pub fn alpha_at(&self, p: Vec2) -> f32 {
        (self.opacity * self.falloff(p)).min(0.99)
    }
}

/// Camera constants of one frame, computed once before any per-splat
/// work — the set-up step of the reference forward pass.
///
/// Holds the view matrix and its rotation block, the half-FOV tangents
/// the frustum tests use, the focal length and the image centre. Each is
/// computed by the same expression, in the same operand order, as the
/// [`Camera`] accessor it stands in for, so projecting through a context
/// is bit-identical to calling those accessors for every splat.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ProjectionContext {
    pub(crate) cam: Camera,
    pub(crate) view: Mat4,
    /// `view.to_mat3()` and its transpose.
    rotation: Mat3,
    rotation_t: Mat3,
    /// `tan(fov_x / 2)` and `tan(fov_y / 2)`.
    pub(crate) tan_half_fov: Vec2,
    pub(crate) focal: Vec2,
    /// Image centre and size in pixels.
    center: Vec2,
    size: Vec2,
}

impl ProjectionContext {
    pub(crate) fn new(cam: &Camera) -> Self {
        let view = cam.view_matrix();
        let rotation = view.to_mat3();
        let width = cam.width as f32;
        let height = cam.height as f32;
        Self {
            cam: *cam,
            view,
            rotation,
            rotation_t: rotation.transpose(),
            tan_half_fov: Vec2::new((cam.fov_x() * 0.5).tan(), (cam.fov_y * 0.5).tan()),
            focal: cam.focal(),
            center: Vec2::new(width * 0.5, height * 0.5),
            size: Vec2::new(width, height),
        }
    }

    /// [`Camera::camera_to_pixel`] on the hoisted constants.
    fn camera_to_pixel(&self, t: Vec3) -> Option<Vec2> {
        if t.z < self.cam.near {
            return None;
        }
        Some(Vec2::new(
            self.focal.x * t.x / t.z + self.center.x,
            self.focal.y * t.y / t.z + self.center.y,
        ))
    }
}

/// Projects a single Gaussian, returning `None` when culled.
///
/// Culling folds in the paper's stage ❶: Gaussians behind the near plane,
/// beyond the far plane, or projecting entirely off-screen are discarded.
pub fn project_gaussian(cam: &Camera, id: u32, g: &Gaussian) -> Option<ProjectedGaussian> {
    project_in(&ProjectionContext::new(cam), id, g)
}

/// [`project_gaussian`] against a frame's precomputed camera constants
/// (hot path: one context serves every Gaussian of a frame).
pub(crate) fn project_in(
    ctx: &ProjectionContext,
    id: u32,
    g: &Gaussian,
) -> Option<ProjectedGaussian> {
    let t = ctx.view.transform_point(g.mean);
    if !in_frustum(ctx, t, g.bounding_radius()) {
        return None;
    }

    let focal = ctx.focal;
    let mean2d = ctx.camera_to_pixel(t)?;

    // Jacobian of the perspective projection at t (2×3, embedded in 3×3
    // with a zero third row).
    let inv_z = 1.0 / t.z;
    let inv_z2 = inv_z * inv_z;
    let j = Mat3::from_rows(
        Vec3::new(focal.x * inv_z, 0.0, -focal.x * t.x * inv_z2),
        Vec3::new(0.0, focal.y * inv_z, -focal.y * t.y * inv_z2),
        Vec3::ZERO,
    );
    let cov_cam = ctx.rotation * g.covariance() * ctx.rotation_t;
    let cov2d_full = j * cov_cam * j.transpose();

    let a = cov2d_full.get(0, 0) + COV2D_DILATION;
    let b = cov2d_full.get(0, 1);
    let c = cov2d_full.get(1, 1) + COV2D_DILATION;

    let det = a * c - b * b;
    if det <= 0.0 || !det.is_finite() {
        return None;
    }
    let inv_det = 1.0 / det;
    let conic = (c * inv_det, -b * inv_det, a * inv_det);

    // 3σ radius from the larger eigenvalue of the 2D covariance.
    let mid = 0.5 * (a + c);
    let lambda_max = mid + (mid * mid - det).max(0.01).sqrt();
    let radius = (3.0 * lambda_max.sqrt()).ceil();

    // Entirely off-screen splats are dropped here; per-tile overlap is
    // decided later by the binning stage.
    if mean2d.x + radius < 0.0
        || mean2d.y + radius < 0.0
        || mean2d.x - radius >= ctx.size.x
        || mean2d.y - radius >= ctx.size.y
    {
        return None;
    }

    let color = g.sh.eval(ctx.cam.view_direction(g.mean));

    Some(ProjectedGaussian {
        id,
        mean2d,
        depth: t.z,
        conic,
        radius,
        color,
        opacity: g.opacity,
    })
}

/// Projects every Gaussian of any [`CloudStorage`] backend, skipping
/// culled ones. Packed records are decoded on the fly.
///
/// Output order matches storage order (IDs ascending), which downstream
/// stages rely on for deterministic binning. A plain `&GaussianCloud`
/// coerces; the planar backend stores the same f32 bits, so it projects
/// bit-identically to it.
pub fn project_storage(cam: &Camera, storage: &dyn CloudStorage) -> Vec<ProjectedGaussian> {
    let ctx = ProjectionContext::new(cam);
    let mut out = Vec::new();
    storage.visit(&mut |id, g| {
        if let Some(p) = project_in(&ctx, id, g) {
            out.push(p);
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use neo_scene::Resolution;

    fn test_camera() -> Camera {
        Camera::look_at(
            Vec3::new(0.0, 0.0, -5.0),
            Vec3::ZERO,
            Vec3::Y,
            1.0,
            Resolution::Custom(640, 360),
        )
    }

    #[test]
    fn context_constants_are_the_camera_accessors_bit_for_bit() {
        for fov_y in [1e-4, 0.3, 1.0, 2.5, std::f32::consts::PI - 1e-3] {
            for (w, h) in [(640, 360), (1, 399), (333, 7)] {
                let mut cam = test_camera().with_resolution(Resolution::Custom(w, h));
                cam.fov_y = fov_y;
                let ctx = ProjectionContext::new(&cam);
                assert_eq!(ctx.view, cam.view_matrix());
                assert_eq!(ctx.rotation, cam.view_matrix().to_mat3());
                assert_eq!(ctx.rotation_t, cam.view_matrix().to_mat3().transpose());
                let tan_x = (cam.fov_x() * 0.5).tan();
                let tan_y = (cam.fov_y * 0.5).tan();
                assert_eq!(ctx.tan_half_fov.x.to_bits(), tan_x.to_bits());
                assert_eq!(ctx.tan_half_fov.y.to_bits(), tan_y.to_bits());
                assert_eq!(ctx.focal.x.to_bits(), cam.focal().x.to_bits());
                assert_eq!(ctx.focal.y.to_bits(), cam.focal().y.to_bits());
                let t = Vec3::new(0.37, -1.25, 3.5);
                assert_eq!(ctx.camera_to_pixel(t), cam.camera_to_pixel(t));
            }
        }
    }

    #[test]
    fn centered_gaussian_projects_to_image_center() {
        let cam = test_camera();
        let g = Gaussian::isotropic(Vec3::ZERO, 0.1, 0.9, Vec3::ONE);
        let p = project_gaussian(&cam, 7, &g).unwrap();
        assert_eq!(p.id, 7);
        assert!((p.mean2d.x - 320.0).abs() < 0.5);
        assert!((p.mean2d.y - 180.0).abs() < 0.5);
        assert!((p.depth - 5.0).abs() < 1e-3);
        assert!(p.radius >= 1.0);
    }

    #[test]
    fn behind_camera_is_culled() {
        let cam = test_camera();
        let g = Gaussian::isotropic(Vec3::new(0.0, 0.0, -20.0), 0.1, 0.9, Vec3::ONE);
        assert!(project_gaussian(&cam, 0, &g).is_none());
    }

    #[test]
    fn far_off_screen_is_culled() {
        let cam = test_camera();
        let g = Gaussian::isotropic(Vec3::new(100.0, 0.0, 0.0), 0.05, 0.9, Vec3::ONE);
        assert!(project_gaussian(&cam, 0, &g).is_none());
    }

    #[test]
    fn closer_gaussian_has_bigger_splat() {
        let cam = test_camera();
        let near = Gaussian::isotropic(Vec3::new(0.0, 0.0, -2.0), 0.1, 0.9, Vec3::ONE);
        let far = Gaussian::isotropic(Vec3::new(0.0, 0.0, 3.0), 0.1, 0.9, Vec3::ONE);
        let pn = project_gaussian(&cam, 0, &near).unwrap();
        let pf = project_gaussian(&cam, 1, &far).unwrap();
        assert!(
            pn.radius > pf.radius,
            "near {} vs far {}",
            pn.radius,
            pf.radius
        );
        assert!(pn.depth < pf.depth);
    }

    #[test]
    fn falloff_peaks_at_center() {
        let cam = test_camera();
        let g = Gaussian::isotropic(Vec3::ZERO, 0.2, 0.8, Vec3::ONE);
        let p = project_gaussian(&cam, 0, &g).unwrap();
        let at_center = p.falloff(p.mean2d);
        let off = p.falloff(p.mean2d + Vec2::new(p.radius, 0.0));
        assert!((at_center - 1.0).abs() < 1e-4);
        assert!(off < 0.05, "3σ falloff should be tiny, got {off}");
        assert!(p.alpha_at(p.mean2d) <= 0.99);
    }

    #[test]
    fn anisotropic_gaussian_has_anisotropic_conic() {
        let cam = test_camera();
        let mut g = Gaussian::isotropic(Vec3::ZERO, 0.05, 0.9, Vec3::ONE);
        g.scale = Vec3::new(0.5, 0.05, 0.05);
        let p = project_gaussian(&cam, 0, &g).unwrap();
        // X-elongated in world (camera x axis is ∓X): falloff decays slower
        // along image x than image y.
        let fx = p.falloff(p.mean2d + Vec2::new(10.0, 0.0));
        let fy = p.falloff(p.mean2d + Vec2::new(0.0, 10.0));
        assert!(fx > fy, "fx={fx}, fy={fy}");
    }

    #[test]
    fn project_storage_filters_and_preserves_order() {
        let cam = test_camera();
        let mut cloud = neo_scene::GaussianCloud::new();
        cloud.push(Gaussian::isotropic(Vec3::ZERO, 0.1, 0.9, Vec3::ONE));
        cloud.push(Gaussian::isotropic(
            Vec3::new(0.0, 0.0, -20.0),
            0.1,
            0.9,
            Vec3::ONE,
        ));
        cloud.push(Gaussian::isotropic(
            Vec3::new(0.5, 0.0, 0.0),
            0.1,
            0.9,
            Vec3::ONE,
        ));
        let out = project_storage(&cam, &cloud);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].id, 0);
        assert_eq!(out[1].id, 2);
    }

    #[test]
    fn project_storage_matches_per_gaussian_projection_exactly() {
        let cam = test_camera();
        let cloud = neo_scene::synth::SynthParams {
            gaussian_count: 300,
            ..Default::default()
        }
        .build();
        let aos: Vec<_> = cloud
            .iter()
            .filter_map(|(id, g)| project_gaussian(&cam, id, g))
            .collect();
        assert_eq!(project_storage(&cam, &cloud), aos);
        // The compact backend is lossy but must cull/project plausibly,
        // exactly as its decoded records do.
        let compact = neo_scene::CompactCloud::from_cloud(&cloud);
        let pc = project_storage(&cam, &compact);
        assert_eq!(pc, project_storage(&cam, &compact.to_cloud()));
        let visible = aos.len() as f32;
        assert!((pc.len() as f32 - visible).abs() <= visible * 0.02 + 2.0);
    }
}
