//! Camera trajectories matching the paper's evaluation methodology:
//! 30 FPS capture sequences with smoothly moving viewpoints, plus the
//! "rapid camera movement" speed-ups of Figure 17(b).

use crate::{Camera, Resolution};
use neo_math::{lerp, Vec3};

/// A continuous camera path parameterized by time in seconds.
#[derive(Debug, Clone, PartialEq)]
pub enum CameraPath {
    /// Orbit around `center` at `radius`, with vertical bobbing.
    ///
    /// This is the dominant motion pattern in Tanks & Temples captures:
    /// the camera circles the subject while always facing it.
    Orbit {
        /// Orbit center (look-at target).
        center: Vec3,
        /// Orbit radius in scene units.
        radius: f32,
        /// Camera height above the center.
        height: f32,
        /// Angular velocity in radians per second.
        angular_velocity: f32,
        /// Amplitude of vertical bobbing (adds depth-order churn).
        bob_amplitude: f32,
        /// Vertical field of view in radians.
        fov_y: f32,
    },
    /// Straight-line dolly from `from` to `to` over `duration` seconds,
    /// looking at `target` throughout (lighthouse/train style walk-bys).
    Dolly {
        /// Start position.
        from: Vec3,
        /// End position.
        to: Vec3,
        /// Fixed look-at target.
        target: Vec3,
        /// Time to traverse the segment, in seconds.
        duration: f32,
        /// Vertical field of view in radians.
        fov_y: f32,
    },
    /// Catmull–Rom spline through waypoints over `duration` seconds,
    /// looking at a fixed target — the closest analogue to the handheld
    /// capture paths of the source datasets.
    Spline {
        /// Waypoints the path interpolates through (at least 2).
        waypoints: Vec<Vec3>,
        /// Fixed look-at target.
        target: Vec3,
        /// Time to traverse the whole spline, in seconds.
        duration: f32,
        /// Vertical field of view in radians.
        fov_y: f32,
    },
    /// Aerial fly-over for Mill 19-style scenes: a lawnmower sweep at
    /// altitude, looking down at an angle.
    Flyover {
        /// Center of the swept area.
        center: Vec3,
        /// Half-width of the sweep in X.
        half_width: f32,
        /// Altitude above the center.
        altitude: f32,
        /// Forward speed in scene units per second.
        speed: f32,
        /// Look-down pitch: how far ahead (in scene units) the camera aims.
        lookahead: f32,
        /// Vertical field of view in radians.
        fov_y: f32,
    },
}

impl CameraPath {
    /// Camera pose at time `t` (seconds) rendering at `res`.
    pub fn camera_at(&self, t: f32, res: Resolution) -> Camera {
        match *self {
            CameraPath::Orbit {
                center,
                radius,
                height,
                angular_velocity,
                bob_amplitude,
                fov_y,
            } => {
                let theta = angular_velocity * t;
                let bob = bob_amplitude * (0.7 * theta).sin();
                let pos =
                    center + Vec3::new(radius * theta.cos(), height + bob, radius * theta.sin());
                Camera::look_at(pos, center, Vec3::Y, fov_y, res)
            }
            CameraPath::Dolly {
                from,
                to,
                target,
                duration,
                fov_y,
            } => {
                let s = (t / duration).clamp(0.0, 1.0);
                let pos = Vec3::new(
                    lerp(from.x, to.x, s),
                    lerp(from.y, to.y, s),
                    lerp(from.z, to.z, s),
                );
                Camera::look_at(pos, target, Vec3::Y, fov_y, res)
            }
            CameraPath::Spline {
                ref waypoints,
                target,
                duration,
                fov_y,
            } => {
                let pos = catmull_rom(waypoints, (t / duration).clamp(0.0, 1.0));
                Camera::look_at(pos, target, Vec3::Y, fov_y, res)
            }
            CameraPath::Flyover {
                center,
                half_width,
                altitude,
                speed,
                lookahead,
                fov_y,
            } => {
                // Lawnmower sweep: x oscillates, z advances.
                let z = center.z + speed * 0.25 * t;
                let x = center.x + half_width * (speed * t / half_width.max(1e-3)).sin();
                let pos = Vec3::new(x, center.y + altitude, z);
                let target = Vec3::new(x * 0.8, center.y, z + lookahead);
                Camera::look_at(pos, target, Vec3::Y, fov_y, res)
            }
        }
    }
}

/// Evaluates a centripetal-flavored Catmull–Rom spline through
/// `waypoints` at global parameter `s ∈ [0, 1]`.
///
/// Endpoints are clamped (virtual duplicate control points), so the path
/// passes through the first and last waypoints exactly.
///
/// # Panics
///
/// Panics when fewer than two waypoints are given.
pub fn catmull_rom(waypoints: &[Vec3], s: f32) -> Vec3 {
    assert!(waypoints.len() >= 2, "spline needs at least two waypoints");
    let n = waypoints.len();
    let segs = (n - 1) as f32;
    let x = (s.clamp(0.0, 1.0) * segs).min(segs - 1e-6);
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "x is clamped into [0, segs - 1e-6] above, so floor() is a valid segment index; floats have no try_from"
    )]
    let i = x.floor() as usize;
    let u = x - i as f32;
    let last = isize::try_from(n).unwrap_or(isize::MAX) - 1;
    let p = |j: isize| -> Vec3 {
        let idx = usize::try_from(j.clamp(0, last)).unwrap_or(0);
        waypoints[idx]
    };
    let i = isize::try_from(i).unwrap_or(isize::MAX - 2);
    let (p0, p1, p2, p3) = (p(i - 1), p(i), p(i + 1), p(i + 2));
    let u2 = u * u;
    let u3 = u2 * u;
    (p1 * 2.0
        + (p2 - p0) * u
        + (p0 * 2.0 - p1 * 5.0 + p2 * 4.0 - p3) * u2
        + (p1 * 3.0 - p0 - p2 * 3.0 + p3) * u3)
        * 0.5
}

/// Samples a [`CameraPath`] at a fixed frame rate, with an optional speed
/// multiplier reproducing the paper's rapid-camera-motion experiments.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameSampler {
    path: CameraPath,
    fps: f32,
    speed: f32,
    res: Resolution,
}

impl FrameSampler {
    /// Samples `path` at `fps` frames per second at resolution `res`.
    ///
    /// # Panics
    ///
    /// Panics when `fps` is not positive.
    pub fn new(path: CameraPath, fps: f32, res: Resolution) -> Self {
        assert!(fps > 0.0, "fps must be positive");
        Self {
            path,
            fps,
            speed: 1.0,
            res,
        }
    }

    /// Multiplies camera speed (Figure 17(b) uses 2×, 4×, 8×, 16×).
    ///
    /// # Panics
    ///
    /// Panics when `speed` is not positive.
    #[must_use]
    pub fn with_speed(mut self, speed: f32) -> Self {
        assert!(speed > 0.0, "speed must be positive");
        self.speed = speed;
        self
    }

    /// Changes the target resolution.
    #[must_use]
    pub fn with_resolution(mut self, res: Resolution) -> Self {
        self.res = res;
        self
    }

    /// Camera for frame index `i`.
    pub fn frame(&self, i: usize) -> Camera {
        let t = self.speed * i as f32 / self.fps;
        self.path.camera_at(t, self.res)
    }

    /// Iterator over the first `n` frames.
    pub fn frames(&self, n: usize) -> impl Iterator<Item = Camera> + '_ {
        (0..n).map(move |i| self.frame(i))
    }

    /// The frame rate in frames per second.
    pub fn fps(&self) -> f32 {
        self.fps
    }

    /// The speed multiplier.
    pub fn speed(&self) -> f32 {
        self.speed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn orbit() -> CameraPath {
        CameraPath::Orbit {
            center: Vec3::ZERO,
            radius: 5.0,
            height: 1.0,
            angular_velocity: 0.3,
            bob_amplitude: 0.2,
            fov_y: 1.0,
        }
    }

    #[test]
    fn orbit_stays_on_radius() {
        let path = orbit();
        for i in 0..10 {
            let cam = path.camera_at(i as f32 * 0.37, Resolution::Hd);
            let horiz = Vec3::new(cam.position.x, 0.0, cam.position.z).length();
            assert!((horiz - 5.0).abs() < 1e-3);
        }
    }

    #[test]
    fn orbit_always_faces_center() {
        let path = orbit();
        let cam = path.camera_at(2.0, Resolution::Hd);
        let px = cam.project(Vec3::ZERO).unwrap();
        assert!((px.x - 640.0).abs() < 1.0);
        assert!((px.y - 360.0).abs() < 1.0);
    }

    #[test]
    fn dolly_reaches_endpoints() {
        let path = CameraPath::Dolly {
            from: Vec3::ZERO,
            to: Vec3::new(10.0, 0.0, 0.0),
            target: Vec3::new(5.0, 0.0, 10.0),
            duration: 2.0,
            fov_y: 1.0,
        };
        assert_eq!(path.camera_at(0.0, Resolution::Hd).position.x, 0.0);
        assert_eq!(path.camera_at(2.0, Resolution::Hd).position.x, 10.0);
        // Clamps beyond the end.
        assert_eq!(path.camera_at(5.0, Resolution::Hd).position.x, 10.0);
    }

    #[test]
    fn sampler_speed_multiplier_advances_faster() {
        let s1 = FrameSampler::new(orbit(), 30.0, Resolution::Hd);
        let s4 = s1.clone().with_speed(4.0);
        let base = s1.frame(1).position;
        let fast = s4.frame(1).position;
        let slow_delta = (s1.frame(0).position - base).length();
        let fast_delta = (s4.frame(0).position - fast).length();
        assert!(fast_delta > slow_delta);
    }

    #[test]
    fn consecutive_frames_move_smoothly() {
        let s = FrameSampler::new(orbit(), 30.0, Resolution::Qhd);
        let frames: Vec<_> = s.frames(30).collect();
        assert_eq!(frames.len(), 30);
        for w in frames.windows(2) {
            let step = (w[1].position - w[0].position).length();
            // 0.3 rad/s at r=5 => ~0.05 units/frame.
            assert!(step < 0.1, "step = {step}");
            assert!(step > 0.0);
        }
    }

    #[test]
    fn spline_passes_through_endpoints() {
        let wps = vec![
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(1.0, 2.0, 0.0),
            Vec3::new(3.0, 1.0, -1.0),
            Vec3::new(5.0, 0.0, 2.0),
        ];
        let start = catmull_rom(&wps, 0.0);
        let end = catmull_rom(&wps, 1.0);
        assert!((start - wps[0]).length() < 1e-4);
        assert!((end - wps[3]).length() < 1e-3);
        // Interior waypoints are interpolated too.
        let at_third = catmull_rom(&wps, 1.0 / 3.0);
        assert!((at_third - wps[1]).length() < 1e-3, "got {at_third}");
    }

    #[test]
    fn spline_is_smooth() {
        let wps = vec![
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(2.0, 1.0, 0.0),
            Vec3::new(4.0, 0.0, 1.0),
        ];
        let mut prev = catmull_rom(&wps, 0.0);
        for i in 1..=100 {
            let cur = catmull_rom(&wps, i as f32 / 100.0);
            assert!((cur - prev).length() < 0.2, "step too large at {i}");
            prev = cur;
        }
    }

    #[test]
    fn spline_path_renders_cameras() {
        let path = CameraPath::Spline {
            waypoints: vec![
                Vec3::new(-4.0, 1.0, -4.0),
                Vec3::new(0.0, 2.0, -5.0),
                Vec3::new(4.0, 1.0, -4.0),
            ],
            target: Vec3::ZERO,
            duration: 5.0,
            fov_y: 1.0,
        };
        let sampler = FrameSampler::new(path, 30.0, Resolution::Hd);
        let c0 = sampler.frame(0);
        let c_mid = sampler.frame(75);
        assert!((c0.position - Vec3::new(-4.0, 1.0, -4.0)).length() < 1e-3);
        // Always facing the target.
        let px = c_mid.project(Vec3::ZERO).unwrap();
        assert!((px.x - 640.0).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "two waypoints")]
    fn spline_rejects_single_waypoint() {
        let _ = catmull_rom(&[Vec3::ZERO], 0.5);
    }

    #[test]
    fn flyover_gains_altitude() {
        let path = CameraPath::Flyover {
            center: Vec3::ZERO,
            half_width: 50.0,
            altitude: 30.0,
            speed: 5.0,
            lookahead: 20.0,
            fov_y: 1.0,
        };
        let cam = path.camera_at(0.0, Resolution::Hd);
        assert!((cam.position.y - 30.0).abs() < 1e-4);
    }

    #[test]
    #[should_panic(expected = "fps must be positive")]
    fn zero_fps_rejected() {
        let _ = FrameSampler::new(orbit(), 0.0, Resolution::Hd);
    }
}
