//! Seeded procedural Gaussian-cloud synthesis.
//!
//! The generators produce clustered, anisotropic Gaussian clouds whose
//! spatial statistics stand in for trained 3DGS checkpoints (see
//! `DESIGN.md`). Clustering matters: real scenes concentrate Gaussians on
//! surfaces, which is what makes per-tile populations large and temporally
//! coherent — the properties the sorting experiments depend on.

use crate::{CameraPath, Gaussian, GaussianCloud};
use neo_math::sh::{ShCoefficients, MAX_COEFFS};
use neo_math::{Quat, Vec3};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Parameters controlling procedural scene synthesis.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthParams {
    /// PRNG seed; equal seeds give identical clouds.
    pub seed: u64,
    /// Number of Gaussians to generate.
    pub gaussian_count: usize,
    /// Number of surface clusters.
    pub cluster_count: usize,
    /// Half-extent of the scene volume in each axis.
    pub half_extent: Vec3,
    /// Per-cluster standard deviation of Gaussian positions.
    pub cluster_sigma: f32,
    /// Fraction of Gaussians scattered uniformly instead of clustered
    /// (distant background / floaters).
    pub background_fraction: f32,
    /// Log-uniform range of Gaussian scales (standard deviations).
    pub scale_range: (f32, f32),
    /// Maximum anisotropy ratio between the largest and smallest axis.
    pub max_anisotropy: f32,
    /// Range of base opacities.
    pub opacity_range: (f32, f32),
    /// Spherical-harmonics degree for color (0–3).
    pub sh_degree: usize,
    /// Strength of the view-dependent SH bands relative to the DC term.
    pub sh_detail: f32,
}

impl Default for SynthParams {
    fn default() -> Self {
        Self {
            seed: 0x5EED,
            gaussian_count: 10_000,
            cluster_count: 64,
            half_extent: Vec3::new(4.0, 2.0, 4.0),
            cluster_sigma: 0.35,
            background_fraction: 0.1,
            scale_range: (0.006, 0.11),
            max_anisotropy: 6.0,
            opacity_range: (0.2, 0.98),
            sh_degree: 1,
            sh_detail: 0.15,
        }
    }
}

impl SynthParams {
    /// Returns a copy with the Gaussian count scaled by `factor`
    /// (clamped to at least 1). Used to run reduced-size experiments.
    ///
    /// # Panics
    ///
    /// Panics when `factor` is not positive.
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "f64->usize saturating cast is the intended rounding; counts are clamped to >= 1 below and floats have no try_from"
    )]
    pub fn scaled(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "scale factor must be positive");
        self.gaussian_count = ((self.gaussian_count as f64 * factor) as usize).max(1);
        // Keep per-cluster density roughly constant.
        self.cluster_count = ((self.cluster_count as f64 * factor.sqrt()) as usize).max(1);
        self
    }

    /// Generates the cloud.
    pub fn build(&self) -> GaussianCloud {
        generate(self)
    }
}

/// Standard normal sample via Box–Muller.
fn randn(rng: &mut impl Rng) -> f32 {
    let u1: f32 = rng.gen_range(1e-7..1.0f32);
    let u2: f32 = rng.gen::<f32>();
    (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos()
}

/// Uniform random unit quaternion (Shoemake's method).
fn random_rotation(rng: &mut impl Rng) -> Quat {
    let u1: f32 = rng.gen();
    let u2: f32 = rng.gen::<f32>() * std::f32::consts::TAU;
    let u3: f32 = rng.gen::<f32>() * std::f32::consts::TAU;
    let a = (1.0 - u1).sqrt();
    let b = u1.sqrt();
    Quat::new(a * u2.sin(), a * u2.cos(), b * u3.sin(), b * u3.cos()).normalized()
}

/// Log-uniform sample in `[lo, hi]`.
fn log_uniform(rng: &mut impl Rng, lo: f32, hi: f32) -> f32 {
    debug_assert!(lo > 0.0 && hi >= lo);
    (rng.gen_range(lo.ln()..=hi.ln())).exp()
}

/// Generates a clustered Gaussian cloud from `params`.
///
/// Deterministic: equal parameters (including seed) produce identical
/// clouds on every platform.
///
/// # Panics
///
/// Panics when `sh_degree > 3` or `background_fraction` is outside
/// `[0, 1]`.
pub fn generate(params: &SynthParams) -> GaussianCloud {
    assert!(params.sh_degree <= 3, "sh_degree must be 0..=3");
    assert!(
        (0.0..=1.0).contains(&params.background_fraction),
        "background_fraction must be in [0, 1]"
    );
    let mut rng = ChaCha8Rng::seed_from_u64(params.seed);

    // Cluster centers concentrated on a shell + ground plane, mimicking
    // object surfaces and terrain in real captures.
    let mut centers = Vec::with_capacity(params.cluster_count);
    for i in 0..params.cluster_count {
        let he = params.half_extent;
        let c = if i % 4 == 0 {
            // Ground-plane cluster.
            Vec3::new(
                rng.gen_range(-he.x..=he.x),
                -he.y + 0.05 * he.y * rng.gen::<f32>(),
                rng.gen_range(-he.z..=he.z),
            )
        } else {
            // Shell cluster around the scene center.
            let dir = Vec3::new(randn(&mut rng), randn(&mut rng), randn(&mut rng)).normalized();
            let r: f32 = rng.gen_range(0.3..=1.0);
            Vec3::new(dir.x * he.x * r, dir.y * he.y * r, dir.z * he.z * r)
        };
        centers.push(c);
    }

    // Zipf-ish cluster weights: a few dense clusters dominate, like real
    // scenes where foreground surfaces hold most Gaussians.
    let weights: Vec<f32> = (0..params.cluster_count)
        .map(|i| 1.0 / (1.0 + i as f32).sqrt())
        .collect();
    // Explicit slice-order accumulation: the summation order is the
    // storage order (ARCHITECTURE.md § "Determinism contract", clause 3).
    let mut total_weight = 0.0f32;
    for &w in &weights {
        total_weight += w;
    }

    let mut cloud = GaussianCloud::with_capacity(params.gaussian_count, params.sh_degree);
    for _ in 0..params.gaussian_count {
        let he = params.half_extent;
        let mean = if rng.gen::<f32>() < params.background_fraction {
            Vec3::new(
                rng.gen_range(-he.x..=he.x),
                rng.gen_range(-he.y..=he.y),
                rng.gen_range(-he.z..=he.z),
            )
        } else {
            // Pick a cluster by weight.
            let mut pick = rng.gen::<f32>() * total_weight;
            let mut idx = 0;
            for (i, w) in weights.iter().enumerate() {
                if pick <= *w {
                    idx = i;
                    break;
                }
                pick -= w;
            }
            let c = centers[idx];
            c + Vec3::new(
                randn(&mut rng) * params.cluster_sigma,
                randn(&mut rng) * params.cluster_sigma,
                randn(&mut rng) * params.cluster_sigma,
            )
        };

        let base_scale = log_uniform(&mut rng, params.scale_range.0, params.scale_range.1);
        let aniso =
            |rng: &mut ChaCha8Rng| rng.gen_range(1.0..=params.max_anisotropy.max(1.0)).sqrt();
        let scale = Vec3::new(
            base_scale * aniso(&mut rng),
            base_scale,
            base_scale * aniso(&mut rng),
        );

        let opacity = rng.gen_range(params.opacity_range.0..=params.opacity_range.1);

        // Color correlated with position (smooth albedo field) plus noise.
        let hx = (mean.x / he.x.max(1e-3)) * 0.5 + 0.5;
        let hz = (mean.z / he.z.max(1e-3)) * 0.5 + 0.5;
        let base_rgb = Vec3::new(
            (0.35 + 0.5 * hx + 0.1 * rng.gen::<f32>()).clamp(0.0, 1.0),
            (0.3 + 0.4 * hz + 0.1 * rng.gen::<f32>()).clamp(0.0, 1.0),
            (0.4 + 0.3 * (1.0 - hx) + 0.1 * rng.gen::<f32>()).clamp(0.0, 1.0),
        );
        let mut sh = ShCoefficients::from_constant_color(base_rgb);
        sh.degree = params.sh_degree;
        if params.sh_degree > 0 {
            let n = neo_math::sh::basis_count(params.sh_degree);
            for coeffs_c in sh.coeffs.iter_mut() {
                for coeff in coeffs_c.iter_mut().take(n.min(MAX_COEFFS)).skip(1) {
                    *coeff = randn(&mut rng) * params.sh_detail;
                }
            }
        }

        cloud.push(Gaussian {
            mean,
            scale,
            rotation: random_rotation(&mut rng),
            opacity,
            sh,
        });
    }
    cloud
}

/// Parameters for the synthetic city-scale scene: a square grid of
/// city blocks (buildings with splats on walls, roofs, and streets)
/// whose footprint **area** and splat count both grow linearly with
/// [`CityParams::scale`], while a street-level camera keeps the visible
/// working set roughly constant. This is the LOD stress workload: at
/// `scale = 100` almost all splats are either outside the frustum
/// (whole-cluster cullable) or sub-pixel distant (proxy-substitutable).
#[derive(Debug, Clone, PartialEq)]
pub struct CityParams {
    /// PRNG seed; equal seeds give identical cities.
    pub seed: u64,
    /// Linear factor on city *area* and splat count. 1.0 is the
    /// baseline (a 4×4 block grid); 100.0 is the paper-style
    /// 100× sweep endpoint (a 40×40 grid).
    pub scale: f32,
    /// Splats generated per city block.
    pub splats_per_block: usize,
    /// Building-block edge length in scene units (buildings sit
    /// centered in their block).
    pub block_size: f32,
    /// Street width between adjacent blocks.
    pub street_width: f32,
    /// Log-uniform building height range.
    pub height_range: (f32, f32),
    /// Spherical-harmonics degree for splat color (0–3).
    pub sh_degree: usize,
}

impl Default for CityParams {
    fn default() -> Self {
        Self {
            seed: 0xC17F,
            scale: 1.0,
            splats_per_block: 1_200,
            block_size: 16.0,
            street_width: 8.0,
            height_range: (6.0, 30.0),
            sh_degree: 1,
        }
    }
}

impl CityParams {
    /// Returns a copy at a different [`CityParams::scale`].
    #[must_use]
    pub fn scaled(mut self, scale: f32) -> Self {
        self.scale = scale;
        self
    }

    /// Blocks per axis: always even (so the city's central north–south
    /// street runs through `x = 0`, where the quickstart camera drives),
    /// and chosen so the block count grows linearly with `scale`.
    ///
    /// # Panics
    ///
    /// Panics when `scale` is not positive.
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "f32->usize after round().max(1.0): positive and far below usize::MAX for any sane scale; floats have no try_from"
    )]
    pub fn blocks_per_axis(&self) -> usize {
        assert!(self.scale > 0.0, "city scale must be positive");
        let half = (self.scale.sqrt() * 2.0).round().max(1.0);
        2 * (half as usize)
    }

    /// Block pitch: block edge plus one street.
    pub fn pitch(&self) -> f32 {
        self.block_size + self.street_width
    }

    /// Edge length of the full city footprint.
    pub fn footprint(&self) -> f32 {
        self.blocks_per_axis() as f32 * self.pitch()
    }

    /// Total splat count this parameter set generates.
    pub fn splat_count(&self) -> usize {
        self.blocks_per_axis() * self.blocks_per_axis() * self.splats_per_block
    }

    /// Generates the city cloud. Deterministic: equal parameters
    /// (including seed) produce identical clouds on every platform.
    ///
    /// # Panics
    ///
    /// Panics when `sh_degree > 3`.
    pub fn build(&self) -> GaussianCloud {
        assert!(self.sh_degree <= 3, "sh_degree must be 0..=3");
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let n = self.blocks_per_axis();
        let pitch = self.pitch();
        let origin = -0.5 * (n as f32) * pitch + 0.5 * pitch;
        let mut cloud = GaussianCloud::with_capacity(self.splat_count(), self.sh_degree);
        for bz in 0..n {
            for bx in 0..n {
                let center = Vec3::new(origin + bx as f32 * pitch, 0.0, origin + bz as f32 * pitch);
                self.build_block(&mut rng, center, &mut cloud);
            }
        }
        cloud
    }

    /// One building block: walls, roof, and surrounding street.
    fn build_block(&self, rng: &mut ChaCha8Rng, center: Vec3, cloud: &mut GaussianCloud) {
        let bw = self.block_size * rng.gen_range(0.55..=0.85f32);
        let bd = self.block_size * rng.gen_range(0.55..=0.85f32);
        let h = log_uniform(rng, self.height_range.0, self.height_range.1);
        let facade = Vec3::new(
            rng.gen_range(0.35..=0.8f32),
            rng.gen_range(0.3..=0.7f32),
            rng.gen_range(0.3..=0.75f32),
        );
        let street = Vec3::new(0.32, 0.32, 0.34);
        for _ in 0..self.splats_per_block {
            let kind: f32 = rng.gen();
            let t = log_uniform(rng, 0.10, 0.45);
            let thin = t * 0.2;
            let (mean, scale, rgb) = if kind < 0.62 {
                // Wall splat: uniform over one facade, thin on its normal.
                let wall: u32 = rng.gen_range(0..4);
                let u: f32 = rng.gen_range(-0.5..=0.5);
                let y = h * rng.gen::<f32>();
                let (offset, scale) = match wall {
                    0 => (Vec3::new(u * bw, y, -0.5 * bd), Vec3::new(t, t, thin)),
                    1 => (Vec3::new(u * bw, y, 0.5 * bd), Vec3::new(t, t, thin)),
                    2 => (Vec3::new(-0.5 * bw, y, u * bd), Vec3::new(thin, t, t)),
                    _ => (Vec3::new(0.5 * bw, y, u * bd), Vec3::new(thin, t, t)),
                };
                (center + offset, scale, facade)
            } else if kind < 0.78 {
                // Roof splat: thin vertically, capping the building.
                let u: f32 = rng.gen_range(-0.5..=0.5);
                let v: f32 = rng.gen_range(-0.5..=0.5);
                (
                    center + Vec3::new(u * bw, h, v * bd),
                    Vec3::new(t, thin, t),
                    facade * 0.8,
                )
            } else {
                // Street / sidewalk splat around the block, at ground level.
                let u: f32 = rng.gen_range(-0.5..=0.5);
                let v: f32 = rng.gen_range(-0.5..=0.5);
                (
                    center + Vec3::new(u * self.pitch(), 0.02 * t, v * self.pitch()),
                    Vec3::new(t, thin, t),
                    street,
                )
            };
            let jitter = Vec3::new(
                0.06 * randn(rng),
                0.12 * rng.gen::<f32>(),
                0.06 * randn(rng),
            );
            let tint = 0.12 * rng.gen::<f32>() - 0.06;
            let rgb = Vec3::new(
                (rgb.x + tint).clamp(0.02, 1.0),
                (rgb.y + tint).clamp(0.02, 1.0),
                (rgb.z + tint).clamp(0.02, 1.0),
            );
            let mut sh = ShCoefficients::from_constant_color(rgb);
            sh.degree = self.sh_degree;
            if self.sh_degree > 0 {
                let nb = neo_math::sh::basis_count(self.sh_degree);
                for coeffs_c in sh.coeffs.iter_mut() {
                    for coeff in coeffs_c.iter_mut().take(nb.min(MAX_COEFFS)).skip(1) {
                        *coeff = 0.08 * randn(rng);
                    }
                }
            }
            cloud.push(Gaussian {
                mean: mean + jitter,
                scale: scale.max(Vec3::splat(1e-3)),
                rotation: Quat::IDENTITY,
                opacity: rng.gen_range(0.55..=0.95f32),
                sh,
            });
        }
    }

    /// Street-level drive down the city's central north–south street.
    ///
    /// The camera advances along `x = 0` at pedestrian height looking
    /// toward the far end of the street, so the *visible* working set
    /// (the near street canyon) stays roughly constant while the city —
    /// and everything outside or far down the frustum — grows with
    /// [`CityParams::scale`].
    pub fn trajectory(&self) -> CameraPath {
        let half = 0.5 * self.footprint();
        CameraPath::Dolly {
            from: Vec3::new(0.0, 1.7, -0.9 * half),
            to: Vec3::new(0.0, 1.7, 0.9 * half),
            target: Vec3::new(0.0, 4.0, 1.2 * half),
            duration: self.footprint() / 1.4,
            fov_y: 0.9,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let p = SynthParams {
            gaussian_count: 500,
            ..Default::default()
        };
        let a = p.build();
        let b = p.build();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seed_differs() {
        let p1 = SynthParams {
            gaussian_count: 200,
            ..Default::default()
        };
        let p2 = SynthParams {
            seed: 99,
            ..p1.clone()
        };
        assert_ne!(p1.build(), p2.build());
    }

    #[test]
    fn generated_gaussians_are_valid_and_bounded() {
        let p = SynthParams {
            gaussian_count: 1_000,
            ..Default::default()
        };
        let cloud = p.build();
        assert_eq!(cloud.len(), 1_000);
        for (_, g) in cloud.iter() {
            assert!(g.is_valid());
            assert!(g.scale.min_element() >= p.scale_range.0 * 0.99);
        }
        let b = cloud.bounds();
        // Cluster sigma can push a bit past the half extent but not wildly.
        assert!(b.max.x < p.half_extent.x * 2.0);
    }

    #[test]
    fn scaled_reduces_count() {
        let p = SynthParams {
            gaussian_count: 10_000,
            ..Default::default()
        }
        .scaled(0.1);
        assert_eq!(p.gaussian_count, 1_000);
        assert!(p.cluster_count >= 1);
    }

    #[test]
    fn clustering_concentrates_mass() {
        // Clustered scene should have lower mean nearest-centroid distance
        // than a uniform one of the same size.
        let p = SynthParams {
            gaussian_count: 800,
            background_fraction: 0.0,
            ..Default::default()
        };
        let cloud = p.build();
        let bounds = cloud.bounds();
        let diag = bounds.diagonal();
        // Average pairwise distance of a uniform box sample is ~0.66*diag/√3;
        // clustered samples sit well below that. Use a crude subsample.
        let pts: Vec<_> = cloud.geometry().iter().take(100).map(|g| g.mean).collect();
        let mut mean_d = 0.0;
        let mut n = 0;
        for i in 0..pts.len() {
            for j in (i + 1)..pts.len() {
                mean_d += pts[i].distance(pts[j]);
                n += 1;
            }
        }
        mean_d /= n as f32;
        assert!(mean_d < diag * 0.5, "mean_d={mean_d}, diag={diag}");
    }

    #[test]
    #[should_panic(expected = "sh_degree")]
    fn invalid_degree_rejected() {
        let p = SynthParams {
            sh_degree: 7,
            ..Default::default()
        };
        let _ = p.build();
    }

    fn small_city() -> CityParams {
        CityParams {
            splats_per_block: 60,
            ..Default::default()
        }
    }

    #[test]
    fn city_is_deterministic_and_counted() {
        let p = small_city();
        let a = p.build();
        let b = p.build();
        assert_eq!(a, b);
        assert_eq!(a.len(), p.splat_count());
        assert_eq!(p.blocks_per_axis(), 4);
        for (_, g) in a.iter() {
            assert!(g.is_valid());
        }
    }

    #[test]
    fn city_scale_grows_area_and_count_linearly() {
        let p1 = small_city();
        let p100 = small_city().scaled(100.0);
        assert_eq!(p100.blocks_per_axis(), 40);
        assert_eq!(p100.splat_count(), 100 * p1.splat_count());
        let area1 = p1.footprint() * p1.footprint();
        let area100 = p100.footprint() * p100.footprint();
        assert!((area100 / area1 - 100.0).abs() < 1e-3);
    }

    #[test]
    fn city_street_camera_sees_content_but_not_everything() {
        let p = small_city().scaled(4.0);
        let cloud = p.build();
        let sampler = crate::FrameSampler::new(p.trajectory(), 30.0, crate::Resolution::Hd);
        let cam = sampler.frame(0);
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
        // A street-level camera sees a healthy slice of the city but is
        // inside it: most splats are behind or beside the frustum.
        assert!(frac > 0.05, "visible frac {frac:.3}");
        assert!(frac < 0.9, "visible frac {frac:.3}");
    }

    #[test]
    fn city_blocks_leave_the_central_street_clear() {
        // The quickstart camera drives along x = 0; no building facade
        // should intrude into the street corridor.
        let p = small_city();
        let cloud = p.build();
        let lane = 0.5 * p.street_width - 1.0;
        let intruders = cloud
            .geometry()
            .iter()
            .filter(|g| g.mean.x.abs() < lane && g.mean.y > 1.0)
            .count();
        // Street splats sit at ground level; only stray jitter can put
        // anything tall in the lane.
        assert!(
            intruders * 100 < cloud.len(),
            "{intruders} of {} splats block the street",
            cloud.len()
        );
    }
}
