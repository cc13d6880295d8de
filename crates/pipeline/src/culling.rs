//! Stage ❶: frustum culling.

use crate::projection::ProjectionContext;
use neo_math::Vec3;

/// Conservative frustum test for a bounding sphere in *camera space*.
///
/// `t` is the camera-space center, `radius` the world-space bounding
/// radius (camera transforms are rigid, so lengths are preserved). The test
/// checks the near/far planes and the four side planes derived from the
/// fields of view, each relaxed by `radius`; the half-FOV tangents come
/// precomputed with the frame's [`ProjectionContext`].
pub(crate) fn in_frustum(ctx: &ProjectionContext, t: Vec3, radius: f32) -> bool {
    let cam = &ctx.cam;
    if t.z + radius < cam.near || t.z - radius > cam.far {
        return false;
    }
    // Side planes: |x| <= z·tan(fovx/2) + slack, similarly for y. Use the
    // sphere radius as slack (conservative, cheap — same test GSCore's
    // projection unit applies).
    let z = t.z.max(cam.near);
    t.x.abs() <= z * ctx.tan_half_fov.x + radius && t.y.abs() <= z * ctx.tan_half_fov.y + radius
}

#[cfg(test)]
mod tests {
    use super::*;
    use neo_scene::{Camera, Resolution};

    fn cam() -> Camera {
        Camera::look_at(
            Vec3::new(0.0, 0.0, -5.0),
            Vec3::ZERO,
            Vec3::Y,
            1.0,
            Resolution::Hd,
        )
    }

    fn in_frustum(cam: &Camera, t: Vec3, radius: f32) -> bool {
        super::in_frustum(&ProjectionContext::new(cam), t, radius)
    }

    #[test]
    fn center_is_visible() {
        let c = cam();
        assert!(in_frustum(&c, Vec3::new(0.0, 0.0, 5.0), 0.1));
    }

    #[test]
    fn behind_near_plane_is_culled() {
        let c = cam();
        assert!(!in_frustum(&c, Vec3::new(0.0, 0.0, -1.0), 0.1));
        // ... unless the bounding sphere pokes through the near plane.
        assert!(in_frustum(&c, Vec3::new(0.0, 0.0, -1.0), 2.0));
    }

    #[test]
    fn beyond_far_plane_is_culled() {
        let mut c = cam();
        c.far = 100.0;
        assert!(!in_frustum(&c, Vec3::new(0.0, 0.0, 150.0), 1.0));
    }

    #[test]
    fn side_planes_respect_radius() {
        let c = cam();
        let z = 5.0;
        let limit = z * (c.fov_x() * 0.5).tan();
        assert!(!in_frustum(&c, Vec3::new(limit + 1.0, 0.0, z), 0.5));
        assert!(in_frustum(&c, Vec3::new(limit + 1.0, 0.0, z), 2.0));
    }
}
