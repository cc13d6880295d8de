//! Feature extraction: EWA projection of 3D Gaussians to screen-space
//! splats, plus view-dependent color evaluation.
//!
//! Follows the reference 3DGS math (Kerbl et al. 2023 / Zwicker's EWA
//! splatting): the 3D covariance is transformed into camera space, the
//! perspective projection is linearized with its Jacobian, and the
//! resulting 2D covariance yields a conic and a 3σ bounding radius.
//! The kernel factors that product instead of forming it: with
//! `Σ = M·Mᵀ` for `M = R·S`, the 2D covariance `J·W·Σ·Wᵀ·Jᵀ` is `U·Uᵀ`
//! for the 2×3 `U = (J·W)·M`, so neither `Σ` nor any 3×3 product of it
//! is built.
//!
//! Feature extraction runs as two passes. The geometry pass streams a
//! slice of [`SplatGeometry`] through the one projection kernel and
//! leaves color unset; it is given no SH to read. The color pass
//! ([`color_pass`]) then evaluates SH for the splats that survived, per
//! ID, and only frames that draw an image run it. [`project_storage`]
//! runs both, so its output is what a single fused pass produced, bit
//! for bit.

use crate::culling::in_frustum;
use neo_math::{Mat3, Mat4, Quat, Vec2, Vec3};
use neo_scene::{Camera, CloudStorage, Gaussian, SplatGeometry};

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
    /// View-dependent RGB color; zero until the [`color_pass`] sets it.
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
/// Holds the view matrix and the rows of its rotation block, the half-FOV
/// tangents the frustum tests use, the focal length and the image centre.
/// Each is computed by the same expression, in the same operand order, as
/// the [`Camera`] accessor it stands in for, so projecting through a
/// context is bit-identical to calling those accessors for every splat.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ProjectionContext {
    pub(crate) cam: Camera,
    pub(crate) view: Mat4,
    /// `view.to_mat3()` transposed: its columns are the rows of the view
    /// rotation `W`.
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
        let width = cam.width as f32;
        let height = cam.height as f32;
        Self {
            cam: *cam,
            view,
            rotation_t: view.to_mat3().transpose(),
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

/// Projects a single Gaussian with its color, returning `None` when
/// culled.
///
/// Culling folds in the paper's stage ❶: Gaussians behind the near plane,
/// beyond the far plane, or projecting entirely off-screen are discarded.
pub fn project_gaussian(cam: &Camera, id: u32, g: &Gaussian) -> Option<ProjectedGaussian> {
    let mut p = project_in(&ProjectionContext::new(cam), id, &g.geometry())?;
    p.color = g.sh.eval(cam.view_direction(g.mean));
    Some(p)
}

/// The projection kernel: one splat's geometry against a frame's
/// precomputed camera constants (one context serves every splat of a
/// frame). Color is left at zero for the [`color_pass`].
///
/// Always inlined: called per splat from the projection loops, where an
/// out-of-line call made city's geometry pass ~20% slower.
#[inline(always)]
pub(crate) fn project_in(
    ctx: &ProjectionContext,
    id: u32,
    g: &SplatGeometry,
) -> Option<ProjectedGaussian> {
    let t = ctx.view.transform_point(g.mean);
    if !in_frustum(ctx, t, g.bounding_radius()) {
        return None;
    }

    let focal = ctx.focal;
    let mean2d = ctx.camera_to_pixel(t)?;

    // The Jacobian J of the perspective projection at t has four nonzero
    // entries, so each row of T = J·W mixes two rows of W.
    let inv_z = 1.0 / t.z;
    let inv_z2 = inv_z * inv_z;
    let w = ctx.rotation_t;
    let t0 = w.x_axis * (focal.x * inv_z) + w.z_axis * (-focal.x * t.x * inv_z2);
    let t1 = w.y_axis * (focal.y * inv_z) + w.z_axis * (-focal.y * t.y * inv_z2);
    // The 2D covariance T·Σ·Tᵀ is U·Uᵀ for U = T·M (2×3), Σ = M·Mᵀ.
    let m = rotation_scale(g.rotation, g.scale);
    let u0 = Vec3::new(t0.dot(m.x_axis), t0.dot(m.y_axis), t0.dot(m.z_axis));
    let u1 = Vec3::new(t1.dot(m.x_axis), t1.dot(m.y_axis), t1.dot(m.z_axis));

    let a = u0.dot(u0) + COV2D_DILATION;
    let b = u0.dot(u1);
    let c = u1.dot(u1) + COV2D_DILATION;

    let det = a * c - b * b;
    if det <= 0.0 || !det.is_finite() {
        return None;
    }
    let inv_det = 1.0 / det;
    let conic = (c * inv_det, -b * inv_det, a * inv_det);

    // 3σ radius from the larger eigenvalue of the 2D covariance. The
    // square root is below `mid` whenever `det > 0`, so the `min` changes
    // no finite result; it acts only when `mid²` overflows (a needle-thin
    // splat ~1e10 px long), and gives the limit `λmax = 2·mid`, not ∞.
    let mid = 0.5 * (a + c);
    let lambda_max = mid + (mid * mid - det).max(0.01).sqrt().min(mid);
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

    Some(ProjectedGaussian {
        id,
        mean2d,
        depth: t.z,
        conic,
        radius,
        color: Vec3::ZERO,
        opacity: g.opacity,
    })
}

/// `M = R·S`: the splat's rotation with each column scaled by that axis's
/// standard deviation, so that its covariance is `Σ = M·Mᵀ`.
///
/// `R` is built from the raw quaternion with one `2/|q|²` scale: no
/// `sqrt` and one divide, where normalising first costs a `sqrt` and
/// four. When `|q|²` is zero, subnormal or not finite, `R` is
/// [`Quat::to_mat3`]'s instead; so a zero or non-finite quaternion is
/// the identity, as under [`Quat::normalized`].
#[inline]
fn rotation_scale(q: Quat, scale: Vec3) -> Mat3 {
    let n2 = q.norm_squared();
    // Off the normal range the scale is inexact or undefined; normalising
    // and scaling by exactly 2 is then `Quat::to_mat3` bit for bit.
    // Selecting the quaternion, not the matrix, keeps `R` in registers.
    let (q, n2) = if n2.is_normal() {
        (q, n2)
    } else {
        (q.normalized(), 1.0)
    };
    let s = 2.0 / n2;
    let (w, x, y, z) = (q.w, q.x, q.y, q.z);
    let (xs, ys, zs) = (x * s, y * s, z * s);
    let (xx, yy, zz) = (x * xs, y * ys, z * zs);
    let (xy, xz, yz) = (x * ys, x * zs, y * zs);
    let (wx, wy, wz) = (w * xs, w * ys, w * zs);
    Mat3::from_cols(
        Vec3::new(1.0 - (yy + zz), xy + wz, xz - wy) * scale.x,
        Vec3::new(xy - wz, 1.0 - (xx + zz), yz + wx) * scale.y,
        Vec3::new(xz + wy, yz - wx, 1.0 - (xx + yy)) * scale.z,
    )
}

/// The geometry pass: projects every splat of `geometry` (a cloud's
/// [`GaussianCloud::geometry`](neo_scene::GaussianCloud::geometry)),
/// splat `k` under ID `k`, skipping culled ones, and leaves color unset.
/// It is the range kernel run once over `0..len`.
///
/// Output order matches the slice (IDs ascending), which downstream
/// stages rely on for deterministic binning.
pub fn project_storage_geometry(
    cam: &Camera,
    geometry: &[SplatGeometry],
) -> Vec<ProjectedGaussian> {
    let mut out = Vec::new();
    project_range(&ProjectionContext::new(cam), 0, geometry, &mut out);
    out
}

/// The range kernel both geometry walks share: projects `run[k]` under
/// ID `first_id + k`, appending the splats that survive culling to `out`
/// in run order.
pub(crate) fn project_range(
    ctx: &ProjectionContext,
    first_id: u32,
    run: &[SplatGeometry],
    out: &mut Vec<ProjectedGaussian>,
) {
    out.extend(
        (first_id..)
            .zip(run)
            .filter_map(|(id, g)| project_in(ctx, id, g)),
    );
}

/// The color pass: sets each projected splat's color to `color(id)`.
///
/// For splats of a cloud the source is `|id| cloud.color(id, cam)`,
/// which evaluates SH toward the camera with the fused formulation's
/// expression, `sh.eval(cam.view_direction(mean))`. LOD frames use
/// [`cluster_colors`](crate::lod::cluster_colors), which also knows the
/// proxies.
pub fn color_pass(projected: &mut [ProjectedGaussian], color: impl Fn(u32) -> Vec3) {
    for p in projected {
        p.color = color(p.id);
    }
}

/// Projects every splat of a cloud with its color: the geometry pass,
/// then the color pass.
///
/// Output order matches the cloud's (IDs ascending), which downstream
/// stages rely on for deterministic binning. A plain `&GaussianCloud`
/// coerces; the [`CloudStorage`] parameter stays for the repository
/// benchmark's replay, which names it.
pub fn project_storage(cam: &Camera, storage: &dyn CloudStorage) -> Vec<ProjectedGaussian> {
    let cloud = storage.cloud();
    let mut out = project_storage_geometry(cam, cloud.geometry());
    color_pass(&mut out, |id| cloud.color(id, cam));
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
    fn rotation_scale_is_to_mat3_at_the_norm_edges() {
        let scale = Vec3::new(0.5, 2.0, 3.0);
        let scaled =
            |r: Mat3| Mat3::from_cols(r.x_axis * scale.x, r.y_axis * scale.y, r.z_axis * scale.z);
        // |q|² zero, subnormal, underflowing, overflowing, non-finite:
        // bit for bit `to_mat3`, which is the identity unless the
        // quaternion normalises.
        for q in [
            Quat::new(0.0, 0.0, 0.0, 0.0),
            Quat::new(7e-21, 5e-21, -4e-21, 2e-21),
            Quat::new(1e-30, 2e-30, 0.0, 0.0),
            Quat::new(1e20, -3e20, 2e20, 0.0),
            Quat::new(f32::NAN, 0.1, 0.2, 0.3),
            Quat::new(1.0, f32::INFINITY, 0.0, 0.0),
        ] {
            assert_eq!(rotation_scale(q, scale), scaled(q.to_mat3()), "{q:?}");
        }
        assert_eq!(
            rotation_scale(Quat::new(0.0, 0.0, 0.0, 0.0), scale),
            scaled(Mat3::IDENTITY)
        );
        // In range, any norm: `to_mat3` to within a few ulps.
        for q in [
            Quat::IDENTITY,
            Quat::new(0.8, 0.1, -0.5, 0.3),
            Quat::new(8e3, 1e3, -5e3, 3e3),
            Quat::new(8e-4, 1e-4, -5e-4, 3e-4),
        ] {
            let (fast, slow) = (rotation_scale(q, scale), scaled(q.to_mat3()));
            for (a, b) in [
                (fast.x_axis, slow.x_axis),
                (fast.y_axis, slow.y_axis),
                (fast.z_axis, slow.z_axis),
            ] {
                assert!((a - b).abs().max_element() < 3e-6, "{q:?}");
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
            .filter_map(|(id, g)| project_gaussian(&cam, id, &g))
            .collect();
        assert_eq!(project_storage(&cam, &cloud), aos);
    }
}
