//! Splat storage backends behind the [`CloudStorage`] trait.
//!
//! The paper's bottleneck metric is off-chip traffic, and the biggest
//! single stream is the per-frame read of every splat's feature record.
//! This module lets the renderer choose how those records are stored:
//!
//! | Format                        | Record layout                         | Bytes/splat (deg d) |
//! |-------------------------------|---------------------------------------|---------------------|
//! | [`StorageFormat::AosF32`]     | interleaved f32 ([`GaussianCloud`])   | 44 + 12·(d+1)²      |
//! | [`StorageFormat::Compact`]    | f16/packed planes ([`CompactCloud`])  | 17 + 6·(d+1)²       |
//!
//! `d` is the cloud's *maximum* SH degree: every backend charges each
//! record at that homogenized degree, whichever splat comes first.
//! `Compact` stores means, scales, and SH coefficients as
//! IEEE f16, opacity as `u8`, and rotations as smallest-three packed
//! quaternions (2-bit largest-component index + 3×10-bit components),
//! cutting the record to well under half the f32 size at a measured
//! PSNR cost (see `results/fig_formats.json`).
//!
//! All backends decode to the same [`Gaussian`] struct; the pipeline is
//! format-agnostic and charges [`CloudStorage::record_bytes`] per splat
//! read to the traffic ledger.

use crate::{Gaussian, GaussianCloud};
use neo_math::f16::{f16_bits_to_f32, f32_to_f16_bits_saturating};
use neo_math::sh::{basis_count, ShCoefficients, MAX_COEFFS};
use neo_math::{Quat, Vec3};

/// Which backend a renderer (or a `NEOG` v2 blob) stores splats in.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum StorageFormat {
    /// Interleaved (array-of-structs) f32 records — the [`GaussianCloud`]
    /// the rest of the crate produces. The baseline.
    #[default]
    AosF32,
    /// Quantized planar storage: f16 means/scales/SH, u8 opacity,
    /// smallest-three packed quaternions.
    Compact,
}

impl StorageFormat {
    /// All formats, baseline first — handy for sweeps.
    pub const ALL: [StorageFormat; 2] = [StorageFormat::AosF32, StorageFormat::Compact];

    /// Stable lowercase name for tables, JSON, and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            StorageFormat::AosF32 => "aos-f32",
            StorageFormat::Compact => "compact",
        }
    }

    /// Wire tag used by the `NEOG` v2 header. Tag 1 stays unassigned: it
    /// named a planar f32 layout, and a blob carrying it must fail to
    /// decode rather than be read as another format.
    pub fn tag(self) -> u8 {
        match self {
            StorageFormat::AosF32 => 0,
            StorageFormat::Compact => 2,
        }
    }

    /// Inverse of [`StorageFormat::tag`].
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(StorageFormat::AosF32),
            2 => Some(StorageFormat::Compact),
            _ => None,
        }
    }

    /// Bytes one splat's feature record occupies in this format at the
    /// given SH degree — the unit the DRAM-traffic ledger charges per
    /// splat read.
    pub fn record_bytes(self, sh_degree: usize) -> usize {
        let n = basis_count(sh_degree);
        match self {
            // mean 12 + scale 12 + rotation 16 + opacity 4 + SH 12n
            StorageFormat::AosF32 => 44 + 12 * n,
            // mean 6 + scale 6 + rotation 4 + opacity 1 + SH 6n
            StorageFormat::Compact => 17 + 6 * n,
        }
    }
}

/// A read-only splat store the render pipeline can iterate.
///
/// Implementations decode their records into [`Gaussian`]s on the fly;
/// the pipeline stays format-agnostic and charges
/// [`record_bytes`](CloudStorage::record_bytes) per splat read.
pub trait CloudStorage: std::fmt::Debug + Send + Sync {
    /// Which backend this is.
    fn format(&self) -> StorageFormat;

    /// Number of splats stored.
    fn len(&self) -> usize;

    /// True when no splats are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The SH degree every record is stored and charged at: the maximum
    /// over the stored records.
    fn sh_degree(&self) -> usize;

    /// Bytes charged to the traffic ledger per splat read.
    fn record_bytes(&self) -> usize {
        self.format().record_bytes(self.sh_degree())
    }

    /// Decodes the splat with the given positional ID, if in range.
    fn get(&self, id: u32) -> Option<Gaussian>;

    /// Visits every splat in ID order: [`visit_range`] over the whole
    /// store.
    ///
    /// [`visit_range`]: CloudStorage::visit_range
    fn visit(&self, f: &mut dyn FnMut(u32, &Gaussian)) {
        self.visit_range(0, u32::MAX, f);
    }

    /// Visits the splats with IDs in `start..end` (clamped to the store)
    /// in ID order — the chunked access path cluster projection uses for
    /// consecutive-ID runs. The `Gaussian` reference is only valid for
    /// the duration of the callback (packed backends decode into a
    /// scratch value).
    ///
    /// Must yield exactly what [`get`] returns for each ID in the range,
    /// bit-identically. The default decodes one record per ID via
    /// [`get`]; the AoS cloud overrides it to lend its records in place.
    ///
    /// [`get`]: CloudStorage::get
    fn visit_range(&self, start: u32, end: u32, f: &mut dyn FnMut(u32, &Gaussian)) {
        for id in start..end {
            match self.get(id) {
                Some(g) => f(id, &g),
                None => break,
            }
        }
    }

    /// Decodes the whole store back to an AoS cloud.
    fn to_cloud(&self) -> GaussianCloud {
        let mut out = Vec::with_capacity(self.len());
        self.visit(&mut |_, g| out.push(g.clone()));
        GaussianCloud::from_gaussians(out)
    }
}

impl CloudStorage for GaussianCloud {
    fn format(&self) -> StorageFormat {
        StorageFormat::AosF32
    }

    fn len(&self) -> usize {
        self.len()
    }

    /// The max degree, as NEOG v1 and [`CompactCloud`] homogenize to: an
    /// O(n) scan, so per-frame callers cache it.
    fn sh_degree(&self) -> usize {
        self.max_sh_degree()
    }

    fn get(&self, id: u32) -> Option<Gaussian> {
        GaussianCloud::get(self, id).cloned()
    }

    fn visit_range(&self, start: u32, end: u32, f: &mut dyn FnMut(u32, &Gaussian)) {
        let cap = u32::try_from(self.len()).unwrap_or(u32::MAX);
        let lo = start.min(cap);
        let hi = end.min(cap).max(lo);
        let slice = &self.gaussians()[neo_math::num::usize_from_u32(lo)..]
            [..neo_math::num::usize_from_u32(hi - lo)];
        for (id, g) in (lo..hi).zip(slice) {
            f(id, g);
        }
    }

    fn to_cloud(&self) -> GaussianCloud {
        self.clone()
    }
}

/// Packs a unit quaternion into 32 bits with the smallest-three scheme:
/// bits 31..30 hold the index of the largest-magnitude component, and the
/// remaining three components (sign-flipped so the dropped one is
/// non-negative, `q ≡ -q`) are stored as 10-bit fixed point over
/// `[-1/√2, 1/√2]`.
#[expect(
    clippy::cast_sign_loss,
    reason = "each packed component is clamped to [0, 1023] before the i32→u32 cast, so it cannot wrap"
)]
pub fn pack_quat(q: Quat) -> u32 {
    let comps = [q.w, q.x, q.y, q.z];
    let mut largest = 0usize;
    for (i, c) in comps.iter().enumerate().skip(1) {
        if c.abs() > comps[largest].abs() {
            largest = i;
        }
    }
    let flip = comps[largest] < 0.0;
    #[expect(
        clippy::cast_possible_truncation,
        reason = "largest indexes a 4-array, so it is 0..=3 and fits any integer type"
    )]
    let mut out = (largest as u32) << 30;
    let mut slot = 0u32;
    for (i, &c) in comps.iter().enumerate() {
        if i == largest {
            continue;
        }
        let v = if flip { -c } else { c };
        // A unit quaternion's non-largest components lie in [-1/√2, 1/√2].
        #[expect(
            clippy::cast_possible_truncation,
            reason = "operand is clamped to [-1, 1] and scaled to ±511 before the f32→i32 cast, which is exact in that range (NaN casts to 0)"
        )]
        let fixed = ((v * std::f32::consts::SQRT_2).clamp(-1.0, 1.0) * 511.0).round() as i32 + 512;
        out |= (fixed.clamp(0, 1023) as u32) << (20 - 10 * slot);
        slot += 1;
    }
    out
}

/// Inverse of [`pack_quat`]; always returns an exactly-unit quaternion
/// (the largest component is reconstructed from the other three, then the
/// result is renormalized). Total for any `u32` input.
pub fn unpack_quat(bits: u32) -> Quat {
    let largest = neo_math::num::usize_from_u32(bits >> 30);
    let mut comps = [0.0f32; 4];
    let mut sum_sq = 0.0f32;
    let mut slot = 0u32;
    for (i, c) in comps.iter_mut().enumerate() {
        if i == largest {
            continue;
        }
        #[expect(
            clippy::cast_possible_wrap,
            reason = "masked to 10 bits, so the u32→i32 cast cannot wrap"
        )]
        let fixed = ((bits >> (20 - 10 * slot)) & 0x3FF) as i32 - 512;
        let v = fixed as f32 / (511.0 * std::f32::consts::SQRT_2);
        *c = v;
        sum_sq += v * v;
        slot += 1;
    }
    comps[largest] = (1.0 - sum_sq).max(0.0).sqrt();
    Quat::new(comps[0], comps[1], comps[2], comps[3]).normalized()
}

#[expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "operand is clamped to [0, 255] before the f32→u8 cast; NaN saturates to 0 by the cast's own semantics"
)]
fn quantize_opacity(o: f32) -> u8 {
    // NaN clamps to 0.0 (`f32::clamp` propagates NaN, but `as u8`
    // saturates NaN to 0), so the result is always in range.
    (o.clamp(0.0, 1.0) * 255.0).round() as u8
}

fn dequantize_opacity(q: u8) -> f32 {
    q as f32 / 255.0
}

/// Quantizes a scale component. Saturates on overflow, and pins positive
/// values that would round to zero at the smallest f16 subnormal so a
/// valid Gaussian (`scale > 0`) stays valid after quantization.
fn quantize_scale(s: f32) -> u16 {
    let bits = f32_to_f16_bits_saturating(s);
    if bits & 0x7FFF == 0 && s > 0.0 {
        1
    } else {
        bits
    }
}

/// Homogenized SH planes of a cloud: `3 · basis_count(degree)` planes of
/// `len` coefficients each, channel-major then coefficient, zero-padded
/// where a Gaussian's own degree is lower.
fn sh_planes(cloud: &GaussianCloud, degree: usize) -> Vec<f32> {
    let n = basis_count(degree).min(MAX_COEFFS);
    let len = cloud.len();
    let mut planes = vec![0.0f32; 3 * n * len];
    for (j, g) in cloud.gaussians().iter().enumerate() {
        for c in 0..3 {
            for i in 0..n {
                planes[(c * n + i) * len + j] = g.sh.coeffs[c][i];
            }
        }
    }
    planes
}

/// Quantized planar splat storage: f16 means/scales/SH coefficients,
/// `u8` opacity, smallest-three packed quaternions.
///
/// Quantization happens once in [`CompactCloud::from_cloud`]; decoding
/// and (de)serialization copy the stored bits verbatim, so a compact
/// cloud round-trips through `NEOG` v2 losslessly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactCloud {
    pub(crate) len: usize,
    pub(crate) degree: usize,
    /// f16 bit patterns, one plane per component.
    pub(crate) mean: [Vec<u16>; 3],
    pub(crate) scale: [Vec<u16>; 3],
    /// Smallest-three packed rotations (see [`pack_quat`]).
    pub(crate) rot: Vec<u32>,
    /// Opacity quantized to `v/255`.
    pub(crate) opacity: Vec<u8>,
    /// f16 SH planes, channel-major (see [`sh_planes`]).
    pub(crate) sh: Vec<u16>,
}

impl CompactCloud {
    /// Quantizes an AoS cloud, homogenizing SH to the cloud's max degree.
    ///
    /// Saturating conversions keep every stored value finite; positive
    /// scales that would underflow f16 are pinned at the smallest
    /// subnormal so `Gaussian::is_valid` survives the round-trip.
    pub fn from_cloud(cloud: &GaussianCloud) -> Self {
        let degree = cloud.max_sh_degree();
        let gs = cloud.gaussians();
        let plane16 = |f: &dyn Fn(&Gaussian) -> f32| {
            gs.iter()
                .map(|g| f32_to_f16_bits_saturating(f(g)))
                .collect::<Vec<u16>>()
        };
        Self {
            len: gs.len(),
            degree,
            mean: [
                plane16(&|g| g.mean.x),
                plane16(&|g| g.mean.y),
                plane16(&|g| g.mean.z),
            ],
            scale: [
                gs.iter().map(|g| quantize_scale(g.scale.x)).collect(),
                gs.iter().map(|g| quantize_scale(g.scale.y)).collect(),
                gs.iter().map(|g| quantize_scale(g.scale.z)).collect(),
            ],
            rot: gs.iter().map(|g| pack_quat(g.rotation)).collect(),
            opacity: gs.iter().map(|g| quantize_opacity(g.opacity)).collect(),
            sh: sh_planes(cloud, degree)
                .into_iter()
                .map(f32_to_f16_bits_saturating)
                .collect(),
        }
    }

    fn decode(&self, j: usize) -> Gaussian {
        let n = basis_count(self.degree).min(MAX_COEFFS);
        let mut coeffs = [[0.0f32; MAX_COEFFS]; 3];
        for (c, coeffs_c) in coeffs.iter_mut().enumerate() {
            for (i, coeff) in coeffs_c.iter_mut().enumerate().take(n) {
                *coeff = f16_bits_to_f32(self.sh[(c * n + i) * self.len + j]);
            }
        }
        Gaussian {
            mean: Vec3::new(
                f16_bits_to_f32(self.mean[0][j]),
                f16_bits_to_f32(self.mean[1][j]),
                f16_bits_to_f32(self.mean[2][j]),
            ),
            scale: Vec3::new(
                f16_bits_to_f32(self.scale[0][j]),
                f16_bits_to_f32(self.scale[1][j]),
                f16_bits_to_f32(self.scale[2][j]),
            ),
            rotation: unpack_quat(self.rot[j]),
            opacity: dequantize_opacity(self.opacity[j]),
            sh: ShCoefficients {
                coeffs,
                degree: self.degree,
            },
        }
    }
}

impl CloudStorage for CompactCloud {
    fn format(&self) -> StorageFormat {
        StorageFormat::Compact
    }

    fn len(&self) -> usize {
        self.len
    }

    fn sh_degree(&self) -> usize {
        self.degree
    }

    fn get(&self, id: u32) -> Option<Gaussian> {
        let j = neo_math::num::usize_from_u32(id);
        (j < self.len).then(|| self.decode(j))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::SynthParams;

    fn test_cloud(degree: usize) -> GaussianCloud {
        SynthParams {
            gaussian_count: 64,
            sh_degree: degree,
            ..Default::default()
        }
        .build()
    }

    #[test]
    fn record_bytes_match_layouts() {
        let cloud = test_cloud(1);
        // degree 1: 4 coefficients per channel.
        assert_eq!(CloudStorage::record_bytes(&cloud), 44 + 12 * 4);
        assert_eq!(CompactCloud::from_cloud(&cloud).record_bytes(), 17 + 6 * 4);
        // Compact must be at least 2× smaller at every degree.
        for d in 0..=3 {
            let aos = StorageFormat::AosF32.record_bytes(d) as f64;
            let compact = StorageFormat::Compact.record_bytes(d) as f64;
            assert!(aos / compact >= 2.0, "degree {d}: {aos} / {compact}");
        }
    }

    #[test]
    fn compact_roundtrip_stays_valid_and_close() {
        let cloud = test_cloud(2);
        let compact = CompactCloud::from_cloud(&cloud);
        assert_eq!(compact.format(), StorageFormat::Compact);
        let back = compact.to_cloud();
        assert_eq!(back.len(), cloud.len());
        for (orig, dec) in cloud.gaussians().iter().zip(back.gaussians()) {
            assert!(dec.is_valid(), "decoded splat must stay valid");
            assert!((orig.mean - dec.mean).length() < 0.01 * orig.mean.length().max(1.0));
            assert!((orig.opacity - dec.opacity).abs() <= 0.5 / 255.0 + 1e-6);
            // Unit rotation, close to the original (up to sign).
            assert!((dec.rotation.norm_squared() - 1.0).abs() < 1e-5);
            let dot = (orig.rotation.w * dec.rotation.w
                + orig.rotation.x * dec.rotation.x
                + orig.rotation.y * dec.rotation.y
                + orig.rotation.z * dec.rotation.z)
                .abs();
            assert!(dot > 0.999, "rotation drifted: |dot| = {dot}");
        }
    }

    #[test]
    fn compact_requantization_is_stable() {
        // Quantize → decode → re-quantize must reproduce the f16 planes
        // (RNE narrowing of an exactly-representable value is exact).
        let cloud = test_cloud(1);
        let c1 = CompactCloud::from_cloud(&cloud);
        let c2 = CompactCloud::from_cloud(&c1.to_cloud());
        assert_eq!(c1.mean, c2.mean);
        assert_eq!(c1.scale, c2.scale);
        assert_eq!(c1.opacity, c2.opacity);
        assert_eq!(c1.sh, c2.sh);
    }

    #[test]
    fn pack_quat_roundtrips_within_tolerance() {
        let quats = [
            Quat::IDENTITY,
            Quat::new(-1.0, 0.0, 0.0, 0.0),
            Quat::new(0.5, 0.5, 0.5, 0.5),
            Quat::new(0.1, -0.3, 0.7, 0.2).normalized(),
            Quat::new(-0.6, 0.2, -0.4, 0.1).normalized(),
        ];
        for q in quats {
            let back = unpack_quat(pack_quat(q));
            assert!((back.norm_squared() - 1.0).abs() < 1e-5);
            let dot = (q.w * back.w + q.x * back.x + q.y * back.y + q.z * back.z).abs();
            assert!(dot > 0.9999, "{q:?} → {back:?}, |dot| = {dot}");
        }
        // Degenerate inputs must still produce a unit quaternion.
        for bits in [
            0u32,
            u32::MAX,
            0xFFFF_FC00,
            pack_quat(Quat::new(0.0, 0.0, 0.0, 0.0)),
        ] {
            let q = unpack_quat(bits);
            assert!((q.norm_squared() - 1.0).abs() < 1e-5, "bits {bits:#x}");
        }
    }

    #[test]
    fn quantize_scale_never_produces_zero() {
        assert_eq!(quantize_scale(0.0), 0);
        assert!(quantize_scale(1e-30) > 0);
        assert!(f16_bits_to_f32(quantize_scale(1e-30)) > 0.0);
        assert_eq!(f16_bits_to_f32(quantize_scale(1e9)), 65504.0);
    }

    #[test]
    fn mixed_degree_cloud_homogenizes_to_max() {
        let mut cloud = test_cloud(0);
        let mut hi = cloud.gaussians()[0].clone();
        hi.sh.degree = 3;
        hi.sh.coeffs[1][12] = 0.25;
        cloud.push(hi.clone());
        let compact = CompactCloud::from_cloud(&cloud);
        let backends: [&dyn CloudStorage; 2] = [&cloud, &compact];
        for storage in backends {
            // Every record is charged at the max degree, although the
            // first splat is degree 0.
            let name = storage.format().name();
            assert_eq!(storage.sh_degree(), 3, "{name}");
            assert_eq!(
                storage.record_bytes(),
                storage.format().record_bytes(3),
                "{name}"
            );
            let back = storage.to_cloud();
            // The high-degree coefficient survives.
            let last = &back.gaussians()[cloud.len() - 1];
            assert!((last.sh.coeffs[1][12] - 0.25).abs() < 1e-3, "{name}");
        }
        // The planes store every record at the homogenized degree.
        let back = compact.to_cloud();
        assert!(back.gaussians().iter().all(|g| g.sh.degree == 3));
    }

    #[test]
    fn dyn_storage_via_gaussian_cloud() {
        let cloud = test_cloud(1);
        let dyn_store: &dyn CloudStorage = &cloud;
        assert_eq!(dyn_store.format(), StorageFormat::AosF32);
        assert_eq!(dyn_store.record_bytes(), 44 + 12 * 4);
        let mut n = 0;
        dyn_store.visit(&mut |id, g| {
            assert_eq!(g, &cloud.gaussians()[id as usize]);
            n += 1;
        });
        assert_eq!(n, cloud.len());
        assert_eq!(dyn_store.to_cloud(), cloud);
    }

    #[test]
    fn visit_range_matches_get_on_every_backend() {
        let cloud = test_cloud(2);
        let backends: [Box<dyn CloudStorage>; 2] = [
            Box::new(cloud.clone()),
            Box::new(CompactCloud::from_cloud(&cloud)),
        ];
        for storage in &backends {
            let len = u32::try_from(storage.len()).unwrap();
            let ranges = [
                (0, len),
                (0, 0),
                (1, 3),
                (len - 1, len),
                (2, 2),
                (3, 1),
                (len - 2, len + 100),
                (len + 5, len + 9),
                (0, u32::MAX),
            ];
            for (start, end) in ranges {
                let mut ranged: Vec<(u32, Gaussian)> = Vec::new();
                storage.visit_range(start, end, &mut |id, g| ranged.push((id, g.clone())));
                // Out-of-range ends clamp to the store instead of panicking.
                let expected: Vec<(u32, Gaussian)> = (start..end.min(len))
                    .map(|id| (id, storage.get(id).unwrap()))
                    .collect();
                assert_eq!(
                    ranged,
                    expected,
                    "{} range {start}..{end}",
                    storage.format().name()
                );
            }
        }
    }

    #[test]
    fn format_tags_roundtrip() {
        // The tags are on the wire: renumbering one breaks stored blobs.
        assert_eq!(StorageFormat::AosF32.tag(), 0);
        assert_eq!(StorageFormat::Compact.tag(), 2);
        for f in StorageFormat::ALL {
            assert_eq!(StorageFormat::from_tag(f.tag()), Some(f));
            assert!(!f.name().is_empty());
        }
        for unassigned in [1, 3, 7] {
            assert_eq!(StorageFormat::from_tag(unassigned), None);
        }
    }
}
