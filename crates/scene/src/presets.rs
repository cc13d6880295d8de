//! Named scene presets standing in for the paper's benchmark scenes.
//!
//! Six Tanks & Temples scenes (Family, Francis, Horse, Lighthouse,
//! Playground, Train) and two Mill 19 aerial scenes (Building, Rubble).
//! Gaussian counts are in the range reported for 3DGS models of these
//! scenes; geometry and trajectories are procedural (see `DESIGN.md`).

use crate::synth::SynthParams;
use crate::{CameraPath, GaussianCloud};
use neo_math::Vec3;

/// The benchmark scenes used throughout the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScenePreset {
    /// Tanks & Temples "Family": object-centric statue group.
    Family,
    /// Tanks & Temples "Francis": single statue, lots of background.
    Francis,
    /// Tanks & Temples "Horse": equestrian statue, dense foreground.
    Horse,
    /// Tanks & Temples "Lighthouse": tall structure, walk-by capture.
    Lighthouse,
    /// Tanks & Temples "Playground": cluttered mid-scale outdoor scene.
    Playground,
    /// Tanks & Temples "Train": long subject, lateral dolly capture.
    Train,
    /// Mill 19 "Building": large-scale aerial scene (Figure 17a).
    Building,
    /// Mill 19 "Rubble": large-scale aerial scene (Figure 17a).
    Rubble,
}

impl ScenePreset {
    /// All presets.
    pub const ALL: [ScenePreset; 8] = [
        ScenePreset::Family,
        ScenePreset::Francis,
        ScenePreset::Horse,
        ScenePreset::Lighthouse,
        ScenePreset::Playground,
        ScenePreset::Train,
        ScenePreset::Building,
        ScenePreset::Rubble,
    ];

    /// The six Tanks & Temples scenes (Figures 3, 6, 7, 15, 16; Table 2).
    pub const TANKS_AND_TEMPLES: [ScenePreset; 6] = [
        ScenePreset::Family,
        ScenePreset::Francis,
        ScenePreset::Horse,
        ScenePreset::Lighthouse,
        ScenePreset::Playground,
        ScenePreset::Train,
    ];

    /// The two Mill 19 large-scale scenes (Figure 17a).
    pub const MILL19: [ScenePreset; 2] = [ScenePreset::Building, ScenePreset::Rubble];

    /// Scene name as printed in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            ScenePreset::Family => "Family",
            ScenePreset::Francis => "Francis",
            ScenePreset::Horse => "Horse",
            ScenePreset::Lighthouse => "Lighthouse",
            ScenePreset::Playground => "Playground",
            ScenePreset::Train => "Train",
            ScenePreset::Building => "Building",
            ScenePreset::Rubble => "Rubble",
        }
    }

    /// Synthesis parameters at full (paper-comparable) scale.
    pub fn params(self) -> SynthParams {
        let base = SynthParams::default();
        match self {
            ScenePreset::Family => SynthParams {
                seed: 0xFA01,
                gaussian_count: 1_450_000,
                cluster_count: 900,
                half_extent: Vec3::new(4.0, 2.2, 4.0),
                cluster_sigma: 0.28,
                background_fraction: 0.08,
                ..base
            },
            ScenePreset::Francis => SynthParams {
                seed: 0xFC02,
                gaussian_count: 1_150_000,
                cluster_count: 700,
                half_extent: Vec3::new(3.2, 3.4, 3.2),
                cluster_sigma: 0.22,
                background_fraction: 0.18,
                ..base
            },
            ScenePreset::Horse => SynthParams {
                seed: 0x0403,
                gaussian_count: 1_050_000,
                cluster_count: 800,
                half_extent: Vec3::new(3.6, 2.0, 3.0),
                cluster_sigma: 0.24,
                background_fraction: 0.07,
                ..base
            },
            ScenePreset::Lighthouse => SynthParams {
                seed: 0x1804,
                gaussian_count: 1_300_000,
                cluster_count: 650,
                half_extent: Vec3::new(3.0, 5.0, 3.0),
                cluster_sigma: 0.30,
                background_fraction: 0.15,
                ..base
            },
            ScenePreset::Playground => SynthParams {
                seed: 0x9105,
                gaussian_count: 1_600_000,
                cluster_count: 1_000,
                half_extent: Vec3::new(5.0, 1.8, 5.0),
                cluster_sigma: 0.34,
                background_fraction: 0.12,
                ..base
            },
            ScenePreset::Train => SynthParams {
                seed: 0x7206,
                gaussian_count: 1_200_000,
                cluster_count: 750,
                half_extent: Vec3::new(6.0, 1.6, 2.6),
                cluster_sigma: 0.26,
                background_fraction: 0.10,
                ..base
            },
            ScenePreset::Building => SynthParams {
                seed: 0xB107,
                gaussian_count: 5_400_000,
                cluster_count: 4_000,
                half_extent: Vec3::new(60.0, 18.0, 60.0),
                cluster_sigma: 1.8,
                background_fraction: 0.05,
                scale_range: (0.02, 0.5),
                ..base
            },
            ScenePreset::Rubble => SynthParams {
                seed: 0x2B08,
                gaussian_count: 4_800_000,
                cluster_count: 4_400,
                half_extent: Vec3::new(55.0, 12.0, 55.0),
                cluster_sigma: 2.2,
                background_fraction: 0.06,
                scale_range: (0.02, 0.45),
                ..base
            },
        }
    }

    /// Builds the full-scale cloud. For the Mill 19 scenes this is in the
    /// millions of Gaussians; prefer [`ScenePreset::build_scaled`] in tests.
    pub fn build(self) -> GaussianCloud {
        self.params().build()
    }

    /// Builds the cloud with the Gaussian count scaled by `factor`.
    pub fn build_scaled(self, factor: f64) -> GaussianCloud {
        self.params().scaled(factor).build()
    }

    /// The capture trajectory for this scene (30 FPS source sequences).
    pub fn trajectory(self) -> CameraPath {
        let fov = 0.9; // ~51.6°, typical for the T&T capture rigs.
        match self {
            ScenePreset::Family => CameraPath::Orbit {
                center: Vec3::new(0.0, 0.2, 0.0),
                radius: 5.2,
                height: 1.3,
                angular_velocity: 0.22,
                bob_amplitude: 0.25,
                fov_y: fov,
            },
            ScenePreset::Francis => CameraPath::Orbit {
                center: Vec3::new(0.0, 0.8, 0.0),
                radius: 4.6,
                height: 1.8,
                angular_velocity: 0.20,
                bob_amplitude: 0.2,
                fov_y: fov,
            },
            ScenePreset::Horse => CameraPath::Orbit {
                center: Vec3::new(0.0, 0.4, 0.0),
                radius: 4.8,
                height: 1.1,
                angular_velocity: 0.24,
                bob_amplitude: 0.3,
                fov_y: fov,
            },
            ScenePreset::Lighthouse => CameraPath::Dolly {
                from: Vec3::new(-6.0, 1.2, -7.0),
                to: Vec3::new(6.0, 2.0, -6.0),
                target: Vec3::new(0.0, 2.5, 0.0),
                duration: 12.0,
                fov_y: fov,
            },
            ScenePreset::Playground => CameraPath::Orbit {
                center: Vec3::new(0.0, 0.0, 0.0),
                radius: 6.5,
                height: 1.6,
                angular_velocity: 0.19,
                bob_amplitude: 0.35,
                fov_y: fov,
            },
            ScenePreset::Train => CameraPath::Dolly {
                from: Vec3::new(-7.5, 1.0, -4.5),
                to: Vec3::new(7.5, 1.2, -4.5),
                target: Vec3::new(0.0, 0.6, 0.0),
                duration: 10.0,
                fov_y: fov,
            },
            ScenePreset::Building => CameraPath::Flyover {
                center: Vec3::ZERO,
                half_width: 45.0,
                altitude: 35.0,
                speed: 6.0,
                lookahead: 25.0,
                fov_y: fov,
            },
            ScenePreset::Rubble => CameraPath::Flyover {
                center: Vec3::ZERO,
                half_width: 40.0,
                altitude: 28.0,
                speed: 5.0,
                lookahead: 22.0,
                fov_y: fov,
            },
        }
    }
}

impl std::fmt::Display for ScenePreset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FrameSampler, Resolution};

    #[test]
    fn all_presets_have_distinct_seeds_and_names() {
        let mut seeds: Vec<u64> = ScenePreset::ALL.iter().map(|p| p.params().seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), ScenePreset::ALL.len());
        let mut names: Vec<&str> = ScenePreset::ALL.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 8);
    }

    #[test]
    fn tnt_counts_are_paper_scale() {
        for p in ScenePreset::TANKS_AND_TEMPLES {
            let n = p.params().gaussian_count;
            assert!((900_000..=2_000_000).contains(&n), "{p}: {n}");
        }
        for p in ScenePreset::MILL19 {
            assert!(p.params().gaussian_count >= 4_000_000, "{p}");
        }
    }

    #[test]
    fn scaled_build_is_fast_and_deterministic() {
        let a = ScenePreset::Horse.build_scaled(0.002);
        let b = ScenePreset::Horse.build_scaled(0.002);
        assert_eq!(a, b);
        assert!(a.len() >= 500);
    }

    #[test]
    fn trajectories_view_scene_content() {
        // Each preset's camera should project a healthy share of (a reduced
        // build of) its cloud into the image at frame 0 and frame 30.
        for p in ScenePreset::TANKS_AND_TEMPLES {
            let cloud = p.build_scaled(0.002);
            let sampler = FrameSampler::new(p.trajectory(), 30.0, Resolution::Hd);
            for frame in [0usize, 30] {
                let cam = sampler.frame(frame);
                let visible = cloud
                    .geometry()
                    .iter()
                    .filter(|g| {
                        cam.project(g.mean).is_some_and(|px| {
                            px.x >= 0.0
                                && px.y >= 0.0
                                && px.x < cam.width as f32
                                && px.y < cam.height as f32
                        })
                    })
                    .count();
                let frac = visible as f64 / cloud.len() as f64;
                assert!(frac > 0.25, "{p} frame {frame}: visible frac {frac:.3}");
            }
        }
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(ScenePreset::Family.to_string(), "Family");
    }
}
