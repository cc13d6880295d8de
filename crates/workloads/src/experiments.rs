//! Canonical experiment parameters shared by the figure binaries, so
//! every harness renders the same workloads the paper describes.

use crate::capture::{capture_workload, CaptureConfig};
use neo_scene::{presets::ScenePreset, Resolution};
use neo_sim::WorkloadFrame;

/// Frames rendered per experiment (the paper measures 60-frame windows).
pub const FRAMES: usize = 60;

/// Default capture scale: fraction of full Gaussian count instantiated
/// for statistics capture (counts are extrapolated back; see
/// `capture_workload`). 1% keeps per-figure runtimes in seconds while
/// leaving >10k Gaussians for stable statistics.
pub const CAPTURE_SCALE: f64 = 0.01;

/// The resolutions evaluated in Figures 3, 5 and 15.
pub const RESOLUTIONS: [Resolution; 3] = [Resolution::Hd, Resolution::Fhd, Resolution::Qhd];

/// Camera speed-ups of Figure 17(b).
pub const SPEEDUPS: [f32; 4] = [2.0, 4.0, 8.0, 16.0];

/// Captures the canonical 60-frame workload for a scene × resolution.
pub fn scene_workload(scene: ScenePreset, resolution: Resolution) -> Vec<WorkloadFrame> {
    scene_workload_with(scene, resolution, 1.0, FRAMES)
}

/// Captures a workload with an explicit camera speed and frame count.
pub fn scene_workload_with(
    scene: ScenePreset,
    resolution: Resolution,
    speed: f32,
    frames: usize,
) -> Vec<WorkloadFrame> {
    capture_workload(&CaptureConfig {
        scene,
        resolution,
        frames,
        scale: CAPTURE_SCALE,
        speed,
        ..Default::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_match_paper() {
        assert_eq!(FRAMES, 60);
        assert_eq!(RESOLUTIONS.len(), 3);
        assert_eq!(SPEEDUPS, [2.0, 4.0, 8.0, 16.0]);
    }

    #[test]
    fn scene_workload_with_small_frame_count() {
        let frames = scene_workload_with(ScenePreset::Train, Resolution::Custom(640, 360), 1.0, 3);
        assert_eq!(frames.len(), 3);
        assert!(frames[0].n_gaussians > 1_000_000);
    }
}
