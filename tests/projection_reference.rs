//! Projection against an independent `f64` EWA reference.
//!
//! `render_oracle` rasterizes the kernel's own `ProjectedGaussian`s, so
//! the image oracle trusts projection and cannot see an error in it. This
//! suite recomputes every splat from the `Gaussian` and the camera's
//! stored fields in `f64`, with none of the kernel's code: its own
//! quaternion-to-matrix, view rotation `W`, Jacobian `J`,
//! `Σ = R·S²·Rᵀ`, the two triple products `W·Σ·Wᵀ` and `J·(·)·Jᵀ`, the
//! 0.3 px² dilation, the conic and the 3σ radius. It then compares each
//! splat's `mean2d`, `depth`, `conic` and `radius`.
//!
//! Three input sets:
//! - **preset frames**: all eight presets at ×0.002, three trajectory
//!   frames each, 640×360, through `project_storage_geometry`;
//! - **random Gaussians**: cameras with random pose, field of view and
//!   resolution; Gaussians placed in and around each frustum, scales
//!   log-uniform in [1e-3, 1], quaternions of any norm in [1e-3, 1e3]
//!   (so the kernel's `2/|q|²` path sees non-unit input);
//! - **extremes**: every per-axis mix of scales 0 and 1e-20 … 1e20, with
//!   unit, zero, subnormal-norm (|q|² ≈ 1e-40), underflowing (|q|² → 0 in
//!   `f32`), overflowing and non-finite quaternions. These must never
//!   panic and must give `None` or finite fields; where both sides keep
//!   the splat they are compared too.
//!
//! **The metrics.** Each error is in units of `f32` ε times what the
//! inputs' own rounding can amplify, so a bound holds at any scale.
//! `amp = 1 + (|μ| + |position|)/z · (1 + |x/z| + |y/z|)` measures that
//! amplification: the camera-space position `(x, y, z)` carries an error
//! of about `ε·(|μ| + |position|)`, and the perspective divide scales it.
//! - `mean2d`: pixel error over `ε·(focal·amp + |mean2d|)`.
//! - `depth`: error over `ε·|z|·amp`.
//! - `conic`: the largest entry error over the largest reference entry,
//!   over `ε·κ·amp`, where `κ = λmax/λmin` is the condition number of the
//!   dilated 2D covariance. Inverting an `f32` 2×2 matrix loses up to
//!   `κ·ε` relative on any kernel.
//! - `radius`: the kernel's radius is the `f32` 3σ radius rounded up, so
//!   the reference's unrounded `3·√λmax` must fall in `(radius − 1,
//!   radius]`; the metric is by how much it misses, relative to it. The
//!   `mid² − det` cancellation inside the radius formula is worth up to
//!   ~√ε of it.
//! - kept-set disagreements: splats one side culls and the other keeps.
//!   Culls compare `f32` against `f64` values at thresholds, so a tie can
//!   fall either way.
//!
//! **Where the bounds come from.** They are the worst cases measured on
//! two kernels: the `(J·W)·(R·S)` factored form, and the `Σ`-forming
//! triple products it replaced. Each bound is 4× the worse of the two,
//! so neither kernel is favoured and ulp-level drift does not flake; the
//! kept-set count, 0 on both, allows 2 ties. Measured worst cases,
//! factored / triple-product:
//!
//! | metric | presets | random | extremes |
//! |---|---|---|---|
//! | `mean2d` | 0.64 / 0.64 | 0.81 / 0.81 | 0.030 / 0.030 |
//! | `depth` | 1.17 / 1.17 | 0.47 / 0.47 | 0.149 / 0.149 |
//! | `conic` | 2.81 / 2.31 | 1.55 / 2.47 | 27.7 / 27.8 |
//! | `radius` | 2.1e-7 / 0 | 1.26e-4 / 1.26e-4 | 1.2e-5 / 1.3e-4 |
//! | disagreements | 0 / 0 | 0 / 0 | — |
//!
//! On the extremes the triple-product kernel returned an infinite radius
//! for 252 needle-thin splats (one scale ≥ 1e10 px on screen), where
//! `mid²` overflows; its column skips them. The factored kernel clamps
//! that square root and keeps every field finite.
//!
//! Run with `--nocapture` to print the measured worst cases.

use neo_math::sh::ShCoefficients;
use neo_math::{Quat, Vec3};
use neo_pipeline::{project_gaussian, project_storage_geometry, ProjectedGaussian};
use neo_scene::{presets::ScenePreset, Camera, FrameSampler, Gaussian, GaussianCloud, Resolution};

/// `f32` machine epsilon, the unit of the conic metric.
const EPS32: f64 = f32::EPSILON as f64;

/// Preset-frame bounds (4× the measured worst; see the module docs).
const PRESET: Bounds = Bounds {
    mean2d_eps: 2.6,
    depth_eps: 4.7,
    conic_eps: 11.3,
    radius_rel: 8.6e-7,
    disagreements: 2,
};
/// Random-Gaussian bounds (4× the measured worst; see the module docs).
const RANDOM: Bounds = Bounds {
    mean2d_eps: 3.3,
    depth_eps: 1.9,
    conic_eps: 9.9,
    radius_rel: 5.1e-4,
    disagreements: 2,
};
/// Extreme-input bounds (4× the measured worst) on the splats both sides
/// keep; `f32` overflows where `f64` does not, so the kept sets differ.
const EXTREME: Bounds = Bounds {
    mean2d_eps: 0.13,
    depth_eps: 0.6,
    conic_eps: 112.0,
    radius_rel: 5.3e-4,
    disagreements: usize::MAX,
};

struct Bounds {
    mean2d_eps: f64,
    depth_eps: f64,
    conic_eps: f64,
    radius_rel: f64,
    /// Kept-set disagreements allowed over the whole input set.
    disagreements: usize,
}

/// The worst error seen on each metric over one input set.
#[derive(Debug, Default)]
struct Worst {
    mean2d_eps: f64,
    depth_eps: f64,
    conic_eps: f64,
    radius_rel: f64,
    disagreements: usize,
    compared: usize,
}

impl Worst {
    fn check(&self, name: &str, b: &Bounds) {
        println!("{name}: {self:?}");
        assert!(self.compared > 0, "{name}: nothing compared");
        assert!(
            self.mean2d_eps <= b.mean2d_eps,
            "{name}: mean2d {}",
            self.mean2d_eps
        );
        assert!(
            self.depth_eps <= b.depth_eps,
            "{name}: depth {}",
            self.depth_eps
        );
        assert!(
            self.conic_eps <= b.conic_eps,
            "{name}: conic {}",
            self.conic_eps
        );
        assert!(
            self.radius_rel <= b.radius_rel,
            "{name}: radius {}",
            self.radius_rel
        );
        assert!(
            self.disagreements <= b.disagreements,
            "{name}: {} kept-set disagreements",
            self.disagreements
        );
    }
}

type M3 = [[f64; 3]; 3];

fn mul(a: &M3, b: &M3) -> M3 {
    let mut out = [[0.0; 3]; 3];
    for (i, row) in out.iter_mut().enumerate() {
        for (j, v) in row.iter_mut().enumerate() {
            *v = (0..3).map(|k| a[i][k] * b[k][j]).sum();
        }
    }
    out
}

fn transpose(a: &M3) -> M3 {
    let mut out = [[0.0; 3]; 3];
    for (i, row) in a.iter().enumerate() {
        for (j, v) in row.iter().enumerate() {
            out[j][i] = *v;
        }
    }
    out
}

/// Rotation matrix of a quaternion, normalised in `f64`.
///
/// The library's convention is that a quaternion whose `f32` squared norm
/// is zero or not finite means the identity. Its `f32` squared norm
/// underflows to zero below half the least subnormal and overflows above
/// `f32::MAX`; no test input lies near either edge.
fn rotation(q: Quat) -> M3 {
    let (w, x, y, z) = (
        f64::from(q.w),
        f64::from(q.x),
        f64::from(q.y),
        f64::from(q.z),
    );
    let n2 = w * w + x * x + y * y + z * z;
    let least_subnormal = f64::from(f32::from_bits(1));
    if !n2.is_finite() || n2 < 0.5 * least_subnormal || n2 > f64::from(f32::MAX) {
        return [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]];
    }
    let n = n2.sqrt();
    let (w, x, y, z) = (w / n, x / n, y / n, z / n);
    [
        [
            1.0 - 2.0 * (y * y + z * z),
            2.0 * (x * y - w * z),
            2.0 * (x * z + w * y),
        ],
        [
            2.0 * (x * y + w * z),
            1.0 - 2.0 * (x * x + z * z),
            2.0 * (y * z - w * x),
        ],
        [
            2.0 * (x * z - w * y),
            2.0 * (y * z + w * x),
            1.0 - 2.0 * (x * x + y * y),
        ],
    ]
}

fn norm(v: [f64; 3]) -> f64 {
    (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt()
}

fn v64(v: Vec3) -> [f64; 3] {
    [f64::from(v.x), f64::from(v.y), f64::from(v.z)]
}

/// One splat as the reference projects it.
struct Reference {
    mean2d: [f64; 2],
    depth: f64,
    conic: [f64; 3],
    /// `3·√λmax`, before rounding up.
    radius: f64,
    /// Focal length in pixels.
    focal: f64,
    /// `λmax/λmin` of the dilated 2D covariance.
    kappa: f64,
    /// How far an `f32` rounding of the inputs can move the result, in
    /// units of ε: the camera-space position carries an error of about
    /// `ε·(|μ| + |position|)`, which `x/z` and `y/z` amplify by
    /// `(1 + |x/z| + |y/z|)/z`.
    amp: f64,
}

/// EWA projection of `g` through `cam` in `f64`, with the kernel's cull
/// rules; `None` when culled.
fn reference(cam: &Camera, g: &Gaussian) -> Option<Reference> {
    let (width, height) = (f64::from(cam.width), f64::from(cam.height));
    let (near, far) = (f64::from(cam.near), f64::from(cam.far));
    let tan_y = (f64::from(cam.fov_y) * 0.5).tan();
    let tan_x = tan_y * width / height;
    let focal = height / (2.0 * tan_y);

    // World to camera: t = W·(μ − position), where W is the transpose
    // of the camera-to-world rotation.
    let w = transpose(&rotation(cam.rotation));
    let (mu, pos) = (v64(g.mean), v64(cam.position));
    let d = [mu[0] - pos[0], mu[1] - pos[1], mu[2] - pos[2]];
    let t: [f64; 3] = std::array::from_fn(|i| (0..3).map(|k| w[i][k] * d[k]).sum());

    // Frustum cull of the 3σ bounding sphere, then the near plane.
    let s = v64(g.scale);
    let bound = 3.0 * s[0].max(s[1]).max(s[2]);
    if t[2] + bound < near || t[2] - bound > far {
        return None;
    }
    let z = t[2].max(near);
    if t[0].abs() > z * tan_x + bound || t[1].abs() > z * tan_y + bound || t[2] < near {
        return None;
    }
    let mean2d = [
        focal * t[0] / t[2] + width * 0.5,
        focal * t[1] / t[2] + height * 0.5,
    ];

    let r = rotation(g.rotation);
    let s2 = [
        [s[0] * s[0], 0.0, 0.0],
        [0.0, s[1] * s[1], 0.0],
        [0.0, 0.0, s[2] * s[2]],
    ];
    let sigma = mul(&mul(&r, &s2), &transpose(&r));
    let sigma_cam = mul(&mul(&w, &sigma), &transpose(&w));
    let j = [
        [focal / t[2], 0.0, -focal * t[0] / (t[2] * t[2])],
        [0.0, focal / t[2], -focal * t[1] / (t[2] * t[2])],
        [0.0, 0.0, 0.0],
    ];
    let cov = mul(&mul(&j, &sigma_cam), &transpose(&j));
    let (a, b, c) = (cov[0][0] + 0.3, cov[0][1], cov[1][1] + 0.3);
    let det = a * c - b * b;
    if det <= 0.0 || !det.is_finite() {
        return None;
    }
    let mid = 0.5 * (a + c);
    let spread = (mid * mid - det).max(0.0).sqrt();
    let lambda_max = mid + (mid * mid - det).max(0.01).sqrt();
    let radius = 3.0 * lambda_max.sqrt();
    let rounded = radius.ceil();
    if mean2d[0] + rounded < 0.0
        || mean2d[1] + rounded < 0.0
        || mean2d[0] - rounded >= width
        || mean2d[1] - rounded >= height
    {
        return None;
    }
    Some(Reference {
        mean2d,
        depth: t[2],
        conic: [c / det, -b / det, a / det],
        radius,
        kappa: (mid + spread) / (mid - spread),
        amp: 1.0
            + (norm(mu) + norm(pos)) / t[2] * (1.0 + (t[0] / t[2]).abs() + (t[1] / t[2]).abs()),
        focal,
    })
}

fn is_finite(p: &ProjectedGaussian) -> bool {
    p.mean2d.x.is_finite()
        && p.mean2d.y.is_finite()
        && p.depth.is_finite()
        && p.conic.0.is_finite()
        && p.conic.1.is_finite()
        && p.conic.2.is_finite()
        && p.radius.is_finite()
}

impl Worst {
    /// Folds one splat's kernel output and reference into the worst cases.
    fn add(&mut self, kernel: Option<&ProjectedGaussian>, truth: Option<&Reference>) {
        let (p, r) = match (kernel, truth) {
            (Some(p), Some(r)) => (p, r),
            (None, None) => return,
            _ => {
                self.disagreements += 1;
                return;
            }
        };
        self.compared += 1;
        let dx = f64::from(p.mean2d.x) - r.mean2d[0];
        let dy = f64::from(p.mean2d.y) - r.mean2d[1];
        let px_scale = (r.focal * r.amp + r.mean2d[0].abs().max(r.mean2d[1].abs())) * EPS32;
        self.mean2d_eps = self.mean2d_eps.max(dx.abs().max(dy.abs()) / px_scale);
        self.depth_eps = self
            .depth_eps
            .max((f64::from(p.depth) - r.depth).abs() / (r.depth.abs() * r.amp * EPS32));
        let kernel_conic = [
            f64::from(p.conic.0),
            f64::from(p.conic.1),
            f64::from(p.conic.2),
        ];
        let scale = r.conic.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let err = kernel_conic
            .iter()
            .zip(&r.conic)
            .fold(0.0f64, |m, (k, t)| m.max((k - t).abs()));
        self.conic_eps = self.conic_eps.max(err / scale / (r.kappa * r.amp * EPS32));
        let rounded = f64::from(p.radius);
        let miss = if r.radius > rounded {
            r.radius - rounded
        } else if r.radius <= rounded - 1.0 {
            rounded - 1.0 - r.radius
        } else {
            0.0
        };
        self.radius_rel = self.radius_rel.max(miss / r.radius);
    }
}

/// Tiny deterministic generator (SplitMix64), so the input sets and the
/// measured worst cases repeat exactly.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: f32, hi: f32) -> f32 {
        let unit = (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32;
        lo + (hi - lo) * unit
    }

    /// Log-uniform in `[lo, hi)`.
    fn log_range(&mut self, lo: f32, hi: f32) -> f32 {
        self.range(lo.ln(), hi.ln()).exp()
    }
}

fn splat(mean: Vec3, scale: Vec3, rotation: Quat) -> Gaussian {
    Gaussian {
        mean,
        scale,
        rotation,
        opacity: 0.8,
        sh: ShCoefficients::from_constant_color(Vec3::splat(0.5)),
    }
}

#[test]
fn preset_frames_match_the_f64_reference() {
    let mut worst = Worst::default();
    for preset in ScenePreset::ALL {
        let cloud = preset.build_scaled(0.002);
        let sampler = FrameSampler::new(preset.trajectory(), 30.0, Resolution::Custom(640, 360));
        for frame in [0, 25, 50] {
            let cam = sampler.frame(frame);
            let projected = project_storage_geometry(&cam, cloud.geometry());
            let mut kept = projected.iter().peekable();
            for (id, g) in cloud.iter() {
                let p = kept.next_if(|p| p.id == id);
                worst.add(p, reference(&cam, &g).as_ref());
            }
        }
    }
    worst.check("preset frames", &PRESET);
}

#[test]
fn random_gaussians_match_the_f64_reference() {
    let mut rng = Rng(0x5eed_0001);
    let mut worst = Worst::default();
    for _ in 0..64 {
        let position = Vec3::new(
            rng.range(-20.0, 20.0),
            rng.range(-20.0, 20.0),
            rng.range(-20.0, 20.0),
        );
        let target = position + Vec3::new(rng.range(-1.0, 1.0), rng.range(-1.0, 1.0), 1.0);
        let width = 16 + (rng.next_u64() % 1265) as u32;
        let height = 16 + (rng.next_u64() % 705) as u32;
        let mut cam = Camera::look_at(
            position,
            target,
            Vec3::Y,
            rng.range(0.2, 2.6),
            Resolution::Custom(width, height),
        );
        cam.near = rng.log_range(0.01, 1.0);
        cam.far = rng.log_range(50.0, 1000.0);
        let to_world = cam.rotation_matrix();
        let tan_y = (cam.fov_y * 0.5).tan();
        let tan_x = tan_y * cam.aspect();
        let cloud: GaussianCloud = (0..128)
            .map(|_| {
                let depth = rng.log_range(cam.near * 0.5, 60.0);
                let local = Vec3::new(
                    rng.range(-1.2, 1.2) * depth * tan_x,
                    rng.range(-1.2, 1.2) * depth * tan_y,
                    depth,
                );
                let scale = Vec3::new(
                    rng.log_range(1e-3, 1.0),
                    rng.log_range(1e-3, 1.0),
                    rng.log_range(1e-3, 1.0),
                );
                let norm = rng.log_range(1e-3, 1e3);
                let rotation = Quat::new(
                    rng.range(-1.0, 1.0) * norm,
                    rng.range(-1.0, 1.0) * norm,
                    rng.range(-1.0, 1.0) * norm,
                    rng.range(-1.0, 1.0) * norm,
                );
                splat(to_world * local + cam.position, scale, rotation)
            })
            .collect();
        let projected = project_storage_geometry(&cam, cloud.geometry());
        let mut kept = projected.iter().peekable();
        for (id, g) in cloud.iter() {
            let p = kept.next_if(|p| p.id == id);
            worst.add(p, reference(&cam, &g).as_ref());
        }
    }
    worst.check("random Gaussians", &RANDOM);
}

#[test]
fn extreme_inputs_never_panic_and_stay_finite() {
    let cam = Camera::look_at(
        Vec3::new(0.3, -0.2, -5.0),
        Vec3::ZERO,
        Vec3::Y,
        0.9,
        Resolution::Custom(640, 360),
    );
    let scales = [0.0, 1e-20, 1e-10, 1e-3, 1.0, 1e3, 1e10, 1e20];
    let quats = [
        Quat::IDENTITY,
        Quat::new(0.8, 0.1, -0.5, 0.3),
        Quat::new(0.0, 0.0, 0.0, 0.0),
        // |q|² ≈ 1e-40: subnormal in f32, yet a valid rotation.
        Quat::new(7e-21, 5e-21, -4e-21, 2e-21),
        // |q|² underflows to zero in f32: the identity.
        Quat::new(1e-30, 2e-30, 0.0, 0.0),
        // |q|² overflows f32: the identity.
        Quat::new(1e20, -3e20, 2e20, 0.0),
        Quat::new(f32::NAN, 0.1, 0.2, 0.3),
        Quat::new(1.0, f32::INFINITY, 0.0, 0.0),
        Quat::new(f32::NEG_INFINITY, f32::INFINITY, 0.0, 0.0),
    ];
    let means = [
        Vec3::ZERO,
        Vec3::new(1.5, -0.7, 2.0),
        Vec3::new(0.0, 0.0, -4.85),
    ];
    let mut worst = Worst::default();
    let mut id = 0u32;
    for &mean in &means {
        for &q in &quats {
            for &sx in &scales {
                for &sy in &scales {
                    for &sz in &scales {
                        let g = splat(mean, Vec3::new(sx, sy, sz), q);
                        let p = project_gaussian(&cam, id, &g);
                        id += 1;
                        if let Some(p) = &p {
                            assert!(is_finite(p), "non-finite splat {p:?} from {g:?}");
                        }
                        let truth = reference(&cam, &g);
                        // Only the splats both sides keep are compared:
                        // f32 overflows where f64 does not.
                        if let (Some(p), Some(r)) = (&p, &truth) {
                            worst.add(Some(p), Some(r));
                        }
                    }
                }
            }
        }
    }
    worst.check("extremes", &EXTREME);
}
