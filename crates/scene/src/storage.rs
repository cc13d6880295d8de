//! Splat storage backends behind the [`CloudStorage`] trait.
//!
//! The paper's bottleneck metric is off-chip traffic, and the biggest
//! single stream is the per-frame read of every splat's feature record.
//! This module lets the renderer choose how those records are stored:
//!
//! | Format                        | Resident layout                              | Bytes/splat (deg d) |
//! |-------------------------------|----------------------------------------------|---------------------|
//! | [`StorageFormat::AosF32`]     | f32 geometry records + SH ([`GaussianCloud`]) | 44 + 12·(d+1)²      |
//! | [`StorageFormat::Compact`]    | f16/packed planes ([`CompactCloud`])         | 17 + 6·(d+1)²       |
//!
//! `d` is the cloud's *maximum* SH degree: every backend stores and
//! charges each record at that homogenized degree, whichever splat comes
//! first. The AoS row is what a [`GaussianCloud`] holds in memory (a
//! 44-byte [`SplatGeometry`] plus SH at the max-degree stride), so the
//! ledger charge is the resident record. `Compact` stores means, scales,
//! and SH coefficients as IEEE f16, opacity as `u8`, and rotations as
//! smallest-three packed quaternions (2-bit largest-component index +
//! 3×10-bit components), cutting the record to well under half the f32
//! size at a measured PSNR cost (see `results/fig_formats.json`).
//!
//! The frame path reads the two halves of a record apart: projection
//! visits geometry only ([`CloudStorage::visit_range`]), and SH is read
//! per projected splat by the color pass ([`CloudStorage::color`]), which
//! runs only on frames that draw an image. The pipeline charges
//! [`CloudStorage::record_bytes`] per splat read to the traffic ledger.

use crate::gaussian::SplatGeometry;
use crate::{Camera, Gaussian, GaussianCloud};
use neo_math::f16::{f16_bits_to_f32, f32_to_f16_bits_saturating};
use neo_math::sh::{basis_count, eval_rgb, ShCoefficients, MAX_COEFFS};
use neo_math::{Quat, Vec3};

/// Which backend a renderer (or a `NEOG` v2 blob) stores splats in.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum StorageFormat {
    /// f32 records — the [`GaussianCloud`] the rest of the crate
    /// produces: 44-byte geometry records plus SH at the max-degree
    /// stride. The baseline.
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
            // SplatGeometry 44 (mean 12 + scale 12 + rotation 16 +
            // opacity 4) + SH 12n
            StorageFormat::AosF32 => std::mem::size_of::<SplatGeometry>() + 12 * n,
            // mean 6 + scale 6 + rotation 4 + opacity 1 + SH 6n
            StorageFormat::Compact => 17 + 6 * n,
        }
    }
}

/// A read-only splat store the render pipeline can iterate.
///
/// The frame path reads a record in two halves: geometry through
/// [`visit_range`](CloudStorage::visit_range), color through
/// [`color`](CloudStorage::color). [`get`](CloudStorage::get) and
/// [`to_cloud`](CloudStorage::to_cloud) decode whole [`Gaussian`]s, for
/// IO, tests and the cluster build. The pipeline charges
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
    /// over the stored records. O(1) on every backend.
    fn sh_degree(&self) -> usize;

    /// Bytes charged to the traffic ledger per splat read.
    fn record_bytes(&self) -> usize {
        self.format().record_bytes(self.sh_degree())
    }

    /// Decodes the splat with the given positional ID, if in range.
    fn get(&self, id: u32) -> Option<Gaussian>;

    /// Visits every splat's geometry in ID order: [`visit_range`] over
    /// the whole store.
    ///
    /// [`visit_range`]: CloudStorage::visit_range
    fn visit(&self, f: &mut dyn FnMut(u32, &SplatGeometry)) {
        self.visit_range(0, u32::MAX, f);
    }

    /// Visits the geometry of the splats with IDs in `start..end`
    /// (clamped to the store) in ID order — the projection kernel's
    /// access path, which cluster projection calls per consecutive-ID
    /// run. The reference is only valid for the duration of the callback
    /// (packed backends decode into a scratch value); no SH is read.
    ///
    /// Must yield exactly the geometry of what [`get`] returns for each
    /// ID in the range, bit-identically.
    ///
    /// [`get`]: CloudStorage::get
    fn visit_range(&self, start: u32, end: u32, f: &mut dyn FnMut(u32, &SplatGeometry));

    /// View-dependent color of splat `id` seen from `cam`: its SH
    /// evaluated toward `cam.view_direction(mean)`, bit-identical to
    /// `g.sh.eval(cam.view_direction(g.mean))` on the [`get`] result.
    /// This is the frame path's one SH read, made per projected splat
    /// by the color pass.
    ///
    /// # Panics
    ///
    /// Panics when `id` is out of range.
    ///
    /// [`get`]: CloudStorage::get
    fn color(&self, id: u32, cam: &Camera) -> Vec3;

    /// Decodes the whole store back to an AoS cloud.
    fn to_cloud(&self) -> GaussianCloud {
        (0u32..).map_while(|id| self.get(id)).collect()
    }
}

/// The in-range half-open index window `start..end` of a store of `len`
/// records.
fn clamp_range(len: usize, start: u32, end: u32) -> std::ops::Range<u32> {
    let cap = u32::try_from(len).unwrap_or(u32::MAX);
    let lo = start.min(cap);
    lo..end.min(cap).max(lo)
}

impl CloudStorage for GaussianCloud {
    fn format(&self) -> StorageFormat {
        StorageFormat::AosF32
    }

    fn len(&self) -> usize {
        self.len()
    }

    fn sh_degree(&self) -> usize {
        self.max_sh_degree()
    }

    fn get(&self, id: u32) -> Option<Gaussian> {
        GaussianCloud::get(self, id)
    }

    /// Lends the geometry records in place.
    fn visit_range(&self, start: u32, end: u32, f: &mut dyn FnMut(u32, &SplatGeometry)) {
        let ids = clamp_range(self.len(), start, end);
        let slice = &self.geometry()[neo_math::num::usize_from_u32(ids.start)..]
            [..neo_math::num::usize_from_u32(ids.end - ids.start)];
        for (id, g) in ids.zip(slice) {
            f(id, g);
        }
    }

    fn color(&self, id: u32, cam: &Camera) -> Vec3 {
        let j = neo_math::num::usize_from_u32(id);
        let (sh, degree) = self.sh_at(j);
        let dir = cam.view_direction(self.geometry()[j].mean);
        eval_rgb(degree, sh, self.sh_bases(), dir)
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
/// where a Gaussian's own degree is lower. The cloud already stores SH
/// at its max degree's stride, so this is a transpose.
fn sh_planes(cloud: &GaussianCloud) -> Vec<f32> {
    let n = cloud.sh_bases();
    let len = cloud.len();
    let mut planes = vec![0.0f32; 3 * n * len];
    for j in 0..len {
        for (k, &coeff) in cloud.sh_at(j).0.iter().enumerate() {
            planes[k * len + j] = coeff;
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
        let gs = cloud.geometry();
        let plane16 = |f: &dyn Fn(&SplatGeometry) -> f32| {
            gs.iter()
                .map(|g| f32_to_f16_bits_saturating(f(g)))
                .collect::<Vec<u16>>()
        };
        Self {
            len: gs.len(),
            degree: cloud.max_sh_degree(),
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
            sh: sh_planes(cloud)
                .into_iter()
                .map(f32_to_f16_bits_saturating)
                .collect(),
        }
    }

    fn decode_mean(&self, j: usize) -> Vec3 {
        Vec3::new(
            f16_bits_to_f32(self.mean[0][j]),
            f16_bits_to_f32(self.mean[1][j]),
            f16_bits_to_f32(self.mean[2][j]),
        )
    }

    fn decode_geometry(&self, j: usize) -> SplatGeometry {
        SplatGeometry {
            mean: self.decode_mean(j),
            scale: Vec3::new(
                f16_bits_to_f32(self.scale[0][j]),
                f16_bits_to_f32(self.scale[1][j]),
                f16_bits_to_f32(self.scale[2][j]),
            ),
            rotation: unpack_quat(self.rot[j]),
            opacity: dequantize_opacity(self.opacity[j]),
        }
    }

    /// Splat `j`'s SH, channel-major at the homogenized degree's stride.
    fn decode_sh(&self, j: usize) -> [[f32; MAX_COEFFS]; 3] {
        let n = basis_count(self.degree).min(MAX_COEFFS);
        let mut coeffs = [[0.0f32; MAX_COEFFS]; 3];
        for (c, coeffs_c) in coeffs.iter_mut().enumerate() {
            for (i, coeff) in coeffs_c.iter_mut().enumerate().take(n) {
                *coeff = f16_bits_to_f32(self.sh[(c * n + i) * self.len + j]);
            }
        }
        coeffs
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
        (j < self.len).then(|| {
            Gaussian::from_parts(
                self.decode_geometry(j),
                ShCoefficients {
                    coeffs: self.decode_sh(j),
                    degree: self.degree,
                },
            )
        })
    }

    /// Decodes each record's geometry planes into a scratch value,
    /// leaving the SH planes untouched.
    fn visit_range(&self, start: u32, end: u32, f: &mut dyn FnMut(u32, &SplatGeometry)) {
        for id in clamp_range(self.len, start, end) {
            f(id, &self.decode_geometry(neo_math::num::usize_from_u32(id)));
        }
    }

    fn color(&self, id: u32, cam: &Camera) -> Vec3 {
        let j = neo_math::num::usize_from_u32(id);
        assert!(j < self.len, "splat {id} out of range");
        let dir = cam.view_direction(self.decode_mean(j));
        eval_rgb(
            self.degree,
            self.decode_sh(j).as_flattened(),
            MAX_COEFFS,
            dir,
        )
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
        for ((_, orig), (_, dec)) in cloud.iter().zip(back.iter()) {
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
        let mut hi = cloud.get(0).unwrap();
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
            let last = back.get(back.len() as u32 - 1).unwrap();
            assert!((last.sh.coeffs[1][12] - 0.25).abs() < 1e-3, "{name}");
        }
        // The planes store every record at the homogenized degree.
        let back = compact.to_cloud();
        assert!(back.iter().all(|(_, g)| g.sh.degree == 3));
    }

    #[test]
    fn dyn_storage_via_gaussian_cloud() {
        let cloud = test_cloud(1);
        let dyn_store: &dyn CloudStorage = &cloud;
        assert_eq!(dyn_store.format(), StorageFormat::AosF32);
        assert_eq!(dyn_store.record_bytes(), 44 + 12 * 4);
        let mut n = 0;
        dyn_store.visit(&mut |id, g| {
            assert_eq!(g, &cloud.geometry()[id as usize]);
            n += 1;
        });
        assert_eq!(n, cloud.len());
        assert_eq!(dyn_store.to_cloud(), cloud);
    }

    #[test]
    fn visit_range_lends_the_geometry_get_decodes_on_every_backend() {
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
                let mut ranged: Vec<(u32, SplatGeometry)> = Vec::new();
                storage.visit_range(start, end, &mut |id, g| ranged.push((id, *g)));
                // Out-of-range ends clamp to the store instead of panicking.
                let expected: Vec<(u32, SplatGeometry)> = (start..end.min(len))
                    .map(|id| (id, storage.get(id).unwrap().geometry()))
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
