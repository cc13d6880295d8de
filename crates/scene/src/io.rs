//! Compact binary (de)serialization of Gaussian clouds.
//!
//! Two wire versions share the `NEOG` magic:
//!
//! ```text
//! v1 (AoS f32):
//!   magic   [u8; 4] = "NEOG"
//!   version u32     = 1
//!   count   u32
//!   degree  u8        (SH degree, 0..=3, homogenized to the cloud max)
//!   records count × { mean f32×3, scale f32×3, rot f32×4, opacity f32,
//!                     sh f32×(3·basis_count(degree)) }
//!
//! v2 (planar):
//!   magic   [u8; 4] = "NEOG"
//!   version u32     = 2
//!   format  u8        (2 = compact; see `StorageFormat::tag`)
//!   count   u32
//!   degree  u8
//!   planes  …         (see below)
//! ```
//!
//! v2 `compact` planes (each `count` long): mean x/y/z and scale x/y/z
//! as f16 (u16), rotation as smallest-three packed u32, opacity as u8,
//! then `3·basis_count(degree)` SH planes as f16, channel-major. Compact
//! payloads store quantized bits verbatim, so compact clouds round-trip
//! losslessly. Any other format byte is rejected as
//! `DecodeCloudError::BadFormat`.
//!
//! Decoding sanitizes records: a non-finite mean, a non-finite or
//! non-positive scale, a rotation that is non-finite or near-zero, or a
//! non-finite opacity is rejected; finite off-unit rotations are
//! renormalized and finite out-of-range opacities clamped to `[0, 1]`,
//! so every decoded cloud upholds the `Gaussian::is_valid` invariant the
//! pipeline assumes (compact rotations/opacities are valid by
//! construction; its f16 means and scales are checked like f32 ones).

use crate::storage::{CloudStorage, CompactCloud, StorageFormat};
use crate::{Gaussian, GaussianCloud};
use bytes::{Buf, BufMut};
use neo_math::f16::f16_bits_to_f32;
use neo_math::sh::{basis_count, ShCoefficients, MAX_COEFFS};
use neo_math::{Quat, Vec3};
use std::fmt;

const MAGIC: &[u8; 4] = b"NEOG";
const VERSION_V1: u32 = 1;
const VERSION_V2: u32 = 2;
/// Highest SH degree the one-byte header field (and the renderer) accepts.
const MAX_SH_DEGREE: u8 = 3;
/// Header size of v1 (v2 adds one format byte).
const V1_HEADER: usize = 13;

/// Rotations whose squared norm deviates from 1 by more than this are
/// renormalized on decode; within it the stored bits pass through
/// unchanged (preserving exact round-trips of already-unit quaternions).
const QUAT_NORM_TOL: f32 = 1e-3;
/// Below this squared norm a rotation carries no usable direction and the
/// blob is rejected instead of renormalized.
const QUAT_MIN_NORM_SQ: f32 = 1e-12;

/// Errors produced when encoding a cloud.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeCloudError {
    /// The cloud holds more Gaussians than the u32 count header can
    /// express; encoding would silently wrap the count.
    TooManyGaussians(usize),
    /// The cloud's SH degree does not fit the header's `u8` degree
    /// field / exceeds the supported maximum; encoding would silently
    /// truncate it (the same wraparound bug class as the count header).
    UnsupportedDegree(usize),
}

impl fmt::Display for EncodeCloudError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeCloudError::TooManyGaussians(n) => {
                write!(f, "cloud has {n} Gaussians, more than a u32 count can hold")
            }
            EncodeCloudError::UnsupportedDegree(d) => {
                write!(
                    f,
                    "SH degree {d} does not fit the header (max {MAX_SH_DEGREE})"
                )
            }
        }
    }
}

impl std::error::Error for EncodeCloudError {}

/// Errors produced when decoding a serialized cloud.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeCloudError {
    /// The buffer does not start with the `NEOG` magic.
    BadMagic,
    /// The format version is not supported.
    UnsupportedVersion(u32),
    /// The v2 storage-format tag is unknown.
    BadFormat(u8),
    /// The SH degree field is out of range.
    BadDegree(u8),
    /// The buffer ended before all records were read.
    Truncated,
    /// The buffer continues past the last declared record (carries the
    /// number of unread trailing bytes). A well-formed `NEOG` blob ends
    /// exactly at the last record; trailing garbage usually means a
    /// corrupted length field or a concatenation bug, so it is rejected
    /// rather than silently ignored.
    TrailingBytes(usize),
    /// The record at this index is no splat: its mean is non-finite,
    /// its scale non-finite or non-positive, its rotation has no usable
    /// direction (non-finite components or a near-zero norm), or its
    /// opacity is non-finite.
    InvalidRecord(usize),
}

impl fmt::Display for DecodeCloudError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeCloudError::BadMagic => write!(f, "buffer does not contain a NEOG cloud"),
            DecodeCloudError::UnsupportedVersion(v) => {
                write!(f, "unsupported NEOG version {v}")
            }
            DecodeCloudError::BadFormat(t) => write!(f, "unknown NEOG v2 format tag {t}"),
            DecodeCloudError::BadDegree(d) => write!(f, "invalid SH degree {d}"),
            DecodeCloudError::Truncated => write!(f, "unexpected end of buffer"),
            DecodeCloudError::TrailingBytes(n) => {
                write!(f, "{n} trailing byte(s) after the last record")
            }
            DecodeCloudError::InvalidRecord(i) => write!(
                f,
                "record {i} has a non-finite mean or opacity, a non-positive scale \
                 or a degenerate rotation"
            ),
        }
    }
}

impl std::error::Error for DecodeCloudError {}

/// A decoded `NEOG` blob, still in its stored backend.
///
/// [`decode_storage`] returns this so packed payloads are usable without
/// an intermediate f32 expansion; [`StoredCloud::into_cloud`] converts to
/// AoS when a plain [`GaussianCloud`] is wanted.
#[derive(Debug, Clone, PartialEq)]
pub enum StoredCloud {
    /// v1 payload (interleaved f32).
    Aos(GaussianCloud),
    /// v2 quantized payload, boxed: its planes dwarf the AoS variant.
    Compact(Box<CompactCloud>),
}

impl StoredCloud {
    /// The backend this blob was stored in.
    pub fn format(&self) -> StorageFormat {
        self.as_storage().format()
    }

    /// Borrows the payload as the pipeline-facing storage trait.
    pub fn as_storage(&self) -> &dyn CloudStorage {
        match self {
            StoredCloud::Aos(c) => c,
            StoredCloud::Compact(c) => c.as_ref(),
        }
    }

    /// Decodes to an AoS cloud (cheap move for v1 payloads).
    pub fn into_cloud(self) -> GaussianCloud {
        match self {
            StoredCloud::Aos(c) => c,
            StoredCloud::Compact(c) => c.to_cloud(),
        }
    }
}

/// Writes the common header, failing when `count` does not fit the u32
/// count field (a wrapped count would decode "successfully" as the wrong
/// cloud). `format` is `None` for v1, which has no format byte.
fn write_header(
    out: &mut Vec<u8>,
    version: u32,
    format: Option<StorageFormat>,
    count: usize,
    degree: usize,
) -> Result<(), EncodeCloudError> {
    let count32 = u32::try_from(count).map_err(|_| EncodeCloudError::TooManyGaussians(count))?;
    let degree8 = u8::try_from(degree).map_err(|_| EncodeCloudError::UnsupportedDegree(degree))?;
    if degree8 > MAX_SH_DEGREE {
        return Err(EncodeCloudError::UnsupportedDegree(degree));
    }
    out.put_slice(MAGIC);
    out.put_u32_le(version);
    if let Some(f) = format {
        out.put_u8(f.tag());
    }
    out.put_u32_le(count32);
    out.put_u8(degree8);
    Ok(())
}

/// Serializes a cloud to `NEOG` v1 bytes.
///
/// Every Gaussian is written at the *maximum* SH degree present in the
/// cloud, zero-padding lower-degree records, so no coefficient is ever
/// truncated and encode→decode round-trips losslessly. (Decoded Gaussians
/// of a mixed-degree cloud carry the homogenized degree; the padded
/// coefficients are zero, which does not change evaluated colors.)
///
/// ```
/// use neo_scene::{io, GaussianCloud, Gaussian};
/// use neo_math::Vec3;
///
/// let mut cloud = GaussianCloud::new();
/// cloud.push(Gaussian::isotropic(Vec3::ZERO, 0.1, 0.9, Vec3::ONE));
/// let bytes = io::encode_cloud(&cloud);
/// let back = io::decode_cloud(&bytes)?;
/// assert_eq!(back.len(), 1);
/// # Ok::<(), io::DecodeCloudError>(())
/// ```
///
/// # Panics
///
/// Panics when the cloud holds ≥ 2³² Gaussians (the count header is a
/// `u32`); use [`try_encode_cloud`] to handle that case fallibly.
#[expect(
    clippy::expect_used,
    reason = "documented `# Panics` contract of the legacy infallible API; try_encode_cloud is the fallible path"
)]
pub fn encode_cloud(cloud: &GaussianCloud) -> Vec<u8> {
    try_encode_cloud(cloud).expect("cloud exceeds the u32 count header")
}

/// Fallible form of [`encode_cloud`].
///
/// # Errors
///
/// Returns [`EncodeCloudError::TooManyGaussians`] when the count does not
/// fit the u32 header field.
pub fn try_encode_cloud(cloud: &GaussianCloud) -> Result<Vec<u8>, EncodeCloudError> {
    let degree = cloud.max_sh_degree();
    let n_coeffs = basis_count(degree);
    let record = (3 + 3 + 4 + 1 + 3 * n_coeffs) * 4;
    let mut out = Vec::with_capacity(V1_HEADER + cloud.len() * record);
    write_header(&mut out, VERSION_V1, None, cloud.len(), degree)?;

    for (_, g) in cloud.iter() {
        for v in [
            g.mean.x, g.mean.y, g.mean.z, g.scale.x, g.scale.y, g.scale.z,
        ] {
            out.put_f32_le(v);
        }
        for v in [g.rotation.w, g.rotation.x, g.rotation.y, g.rotation.z] {
            out.put_f32_le(v);
        }
        out.put_f32_le(g.opacity);
        for c in 0..3 {
            for i in 0..n_coeffs {
                out.put_f32_le(g.sh.coeffs[c].get(i).copied().unwrap_or(0.0));
            }
        }
    }
    Ok(out)
}

/// Serializes a cloud in the chosen storage format: v1 for
/// [`StorageFormat::AosF32`], v2 planes for [`StorageFormat::Compact`].
/// Quantization happens here (via [`CompactCloud::from_cloud`]).
///
/// # Errors
///
/// Returns [`EncodeCloudError::TooManyGaussians`] when the count does not
/// fit the u32 header field.
pub fn try_encode_cloud_as(
    cloud: &GaussianCloud,
    format: StorageFormat,
) -> Result<Vec<u8>, EncodeCloudError> {
    match format {
        StorageFormat::AosF32 => try_encode_cloud(cloud),
        StorageFormat::Compact => encode_storage(&StoredCloud::Compact(Box::new(
            CompactCloud::from_cloud(cloud),
        ))),
    }
}

/// Serializes an already-materialized storage backend without
/// re-quantizing: compact payloads are written bit-for-bit from the
/// stored planes.
///
/// # Errors
///
/// Returns [`EncodeCloudError::TooManyGaussians`] when the count does not
/// fit the u32 header field.
pub fn encode_storage(stored: &StoredCloud) -> Result<Vec<u8>, EncodeCloudError> {
    match stored {
        StoredCloud::Aos(cloud) => try_encode_cloud(cloud),
        StoredCloud::Compact(c) => {
            let mut out = Vec::with_capacity(
                V1_HEADER + 1 + c.len * StorageFormat::Compact.record_bytes(c.degree),
            );
            write_header(
                &mut out,
                VERSION_V2,
                Some(StorageFormat::Compact),
                c.len,
                c.degree,
            )?;
            for plane in c.mean.iter().chain(&c.scale) {
                for &v in plane {
                    out.put_u16_le(v);
                }
            }
            for &v in &c.rot {
                out.put_u32_le(v);
            }
            out.put_slice(&c.opacity);
            for &v in &c.sh {
                out.put_u16_le(v);
            }
            Ok(out)
        }
    }
}

/// Rejects a record whose mean is non-finite or whose scale is
/// non-finite or non-positive; no repair could make it a splat.
fn check_geometry(index: usize, mean: Vec3, scale: Vec3) -> Result<(), DecodeCloudError> {
    if mean.is_finite() && scale.is_finite() && scale.min_element() > 0.0 {
        Ok(())
    } else {
        Err(DecodeCloudError::InvalidRecord(index))
    }
}

/// Validates one decoded f32 record and repairs its rotation and
/// opacity.
fn sanitize_record(
    index: usize,
    mean: Vec3,
    scale: Vec3,
    rotation: Quat,
    opacity: f32,
) -> Result<(Quat, f32), DecodeCloudError> {
    check_geometry(index, mean, scale)?;
    let n2 = rotation.norm_squared();
    if !n2.is_finite() || n2 < QUAT_MIN_NORM_SQ || !opacity.is_finite() {
        return Err(DecodeCloudError::InvalidRecord(index));
    }
    let rotation = if (n2 - 1.0).abs() > QUAT_NORM_TOL {
        rotation.normalized()
    } else {
        rotation
    };
    Ok((rotation, opacity.clamp(0.0, 1.0)))
}

/// Deserializes a cloud previously produced by any of the encoders,
/// expanding packed payloads to AoS f32. Use [`decode_storage`] to keep
/// the stored backend.
///
/// # Errors
///
/// Returns a [`DecodeCloudError`] when the header is malformed, the
/// buffer length does not match the declared record count (including
/// counts whose byte size overflows `usize`), bytes remain after the
/// last record, or a record fails sanitization
/// ([`DecodeCloudError::InvalidRecord`]).
pub fn decode_cloud(buf: &[u8]) -> Result<GaussianCloud, DecodeCloudError> {
    decode_storage(buf).map(StoredCloud::into_cloud)
}

/// Deserializes a `NEOG` blob into its stored backend without format
/// conversion.
///
/// # Errors
///
/// Same conditions as [`decode_cloud`].
pub fn decode_storage(mut buf: &[u8]) -> Result<StoredCloud, DecodeCloudError> {
    if buf.remaining() < V1_HEADER {
        return Err(DecodeCloudError::Truncated);
    }
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(DecodeCloudError::BadMagic);
    }
    let version = buf.get_u32_le();
    match version {
        VERSION_V1 => decode_v1(buf),
        VERSION_V2 => decode_v2(buf),
        other => Err(DecodeCloudError::UnsupportedVersion(other)),
    }
}

/// Reads the `count`/`degree` trailer of a header and bounds-checks the
/// payload size `count * record_bytes` against the remaining buffer.
fn read_counts(
    buf: &mut &[u8],
    record_bytes_for: impl Fn(usize) -> usize,
) -> Result<(usize, usize), DecodeCloudError> {
    if buf.remaining() < 5 {
        return Err(DecodeCloudError::Truncated);
    }
    let count = neo_math::num::usize_from_u32(buf.get_u32_le());
    let degree = buf.get_u8();
    if degree > MAX_SH_DEGREE {
        return Err(DecodeCloudError::BadDegree(degree));
    }
    let degree = usize::from(degree);
    // `count * record` can wrap on 32-bit `usize` (count comes straight
    // from the wire), which would make a truncated buffer look big
    // enough; a wrapped size also certainly exceeds any real buffer.
    let needed = count
        .checked_mul(record_bytes_for(degree))
        .ok_or(DecodeCloudError::Truncated)?;
    if buf.remaining() < needed {
        return Err(DecodeCloudError::Truncated);
    }
    if buf.remaining() > needed {
        return Err(DecodeCloudError::TrailingBytes(buf.remaining() - needed));
    }
    Ok((count, degree))
}

fn decode_v1(mut buf: &[u8]) -> Result<StoredCloud, DecodeCloudError> {
    let (count, degree) = read_counts(&mut buf, |d| StorageFormat::AosF32.record_bytes(d))?;
    let n_coeffs = basis_count(degree);

    let mut cloud = GaussianCloud::new();
    for index in 0..count {
        let mean = Vec3::new(buf.get_f32_le(), buf.get_f32_le(), buf.get_f32_le());
        let scale = Vec3::new(buf.get_f32_le(), buf.get_f32_le(), buf.get_f32_le());
        let rotation = Quat::new(
            buf.get_f32_le(),
            buf.get_f32_le(),
            buf.get_f32_le(),
            buf.get_f32_le(),
        );
        let opacity = buf.get_f32_le();
        let (rotation, opacity) = sanitize_record(index, mean, scale, rotation, opacity)?;
        let mut coeffs = [[0.0f32; MAX_COEFFS]; 3];
        for coeffs_c in coeffs.iter_mut() {
            for coeff in coeffs_c.iter_mut().take(n_coeffs) {
                *coeff = buf.get_f32_le();
            }
        }
        cloud.push(Gaussian {
            mean,
            scale,
            rotation,
            opacity,
            sh: ShCoefficients { coeffs, degree },
        });
    }
    Ok(StoredCloud::Aos(cloud))
}

fn read_u16_plane(buf: &mut &[u8], count: usize) -> Vec<u16> {
    (0..count).map(|_| buf.get_u16_le()).collect()
}

fn decode_v2(mut buf: &[u8]) -> Result<StoredCloud, DecodeCloudError> {
    if buf.remaining() < 1 {
        return Err(DecodeCloudError::Truncated);
    }
    let tag = buf.get_u8();
    let format = StorageFormat::from_tag(tag).ok_or(DecodeCloudError::BadFormat(tag))?;
    match format {
        // v2 never carries AoS payloads; that's what v1 is.
        StorageFormat::AosF32 => Err(DecodeCloudError::BadFormat(tag)),
        StorageFormat::Compact => {
            let (count, degree) =
                read_counts(&mut buf, |d| StorageFormat::Compact.record_bytes(d))?;
            let n = basis_count(degree);
            let mut p = || read_u16_plane(&mut buf, count);
            let mean = [p(), p(), p()];
            let scale = [p(), p(), p()];
            let rot: Vec<u32> = (0..count).map(|_| buf.get_u32_le()).collect();
            let mut opacity = vec![0u8; count];
            buf.copy_to_slice(&mut opacity);
            let sh = read_u16_plane(&mut buf, count * 3 * n);
            // Any u32 unpacks to a unit quaternion and a u8 opacity is
            // always in range, so only the f16 geometry needs a check.
            for index in 0..count {
                let at = |plane: &[Vec<u16>; 3]| {
                    Vec3::new(
                        f16_bits_to_f32(plane[0][index]),
                        f16_bits_to_f32(plane[1][index]),
                        f16_bits_to_f32(plane[2][index]),
                    )
                };
                check_geometry(index, at(&mean), at(&scale))?;
            }
            Ok(StoredCloud::Compact(Box::new(CompactCloud {
                len: count,
                degree,
                mean,
                scale,
                rot,
                opacity,
                sh,
            })))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::SynthParams;

    fn synth_cloud(n: usize, degree: usize) -> GaussianCloud {
        SynthParams {
            gaussian_count: n,
            sh_degree: degree,
            ..Default::default()
        }
        .build()
    }

    #[test]
    fn roundtrip_preserves_cloud() {
        let cloud = synth_cloud(200, 1);
        let bytes = encode_cloud(&cloud);
        let back = decode_cloud(&bytes).unwrap();
        assert_eq!(cloud, back);
    }

    #[test]
    fn roundtrip_empty_cloud() {
        let cloud = GaussianCloud::new();
        let back = decode_cloud(&encode_cloud(&cloud)).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn roundtrip_all_formats() {
        for degree in 0..=3 {
            let cloud = synth_cloud(40, degree);
            for format in StorageFormat::ALL {
                let bytes = try_encode_cloud_as(&cloud, format).unwrap();
                let stored = decode_storage(&bytes).unwrap();
                assert_eq!(stored.format(), format, "degree {degree}");
                assert_eq!(stored.as_storage().len(), cloud.len());
                assert_eq!(stored.as_storage().sh_degree(), degree);
                match format {
                    StorageFormat::AosF32 => assert_eq!(stored.clone().into_cloud(), cloud),
                    StorageFormat::Compact => {
                        // Lossy vs the f32 source, but lossless as stored.
                        let direct = CompactCloud::from_cloud(&cloud);
                        assert_eq!(stored, StoredCloud::Compact(Box::new(direct)));
                    }
                }
            }
        }
    }

    #[test]
    fn encode_storage_preserves_compact_bits() {
        let cloud = synth_cloud(25, 2);
        let compact = CompactCloud::from_cloud(&cloud);
        let bytes = encode_storage(&StoredCloud::Compact(Box::new(compact.clone()))).unwrap();
        match decode_storage(&bytes).unwrap() {
            StoredCloud::Compact(back) => assert_eq!(*back, compact),
            other => panic!("wrong backend {other:?}"),
        }
    }

    #[test]
    fn mixed_degree_cloud_roundtrips_at_max_degree() {
        // Regression: encoding used to homogenize to the *first* record's
        // degree, silently truncating higher-degree coefficients.
        let mut cloud = synth_cloud(3, 0);
        let mut hi = cloud.gaussians()[0].clone();
        hi.sh.degree = 2;
        hi.sh.coeffs[0][5] = 0.625; // exactly representable, survives f16 too
        hi.sh.coeffs[2][8] = -0.125;
        cloud.push(hi);
        let back = decode_cloud(&encode_cloud(&cloud)).unwrap();
        assert_eq!(back.len(), cloud.len());
        let last = &back.gaussians()[3];
        assert_eq!(last.sh.degree, 2);
        assert_eq!(last.sh.coeffs[0][5], 0.625);
        assert_eq!(last.sh.coeffs[2][8], -0.125);
        // Low-degree records are zero-padded, never truncated.
        assert!(back.gaussians()[0].sh.coeffs[0][5] == 0.0);
        // The padded records compare equal on every stored coefficient.
        for (orig, dec) in cloud.gaussians().iter().zip(back.gaussians()) {
            assert_eq!(orig.sh.coeffs, dec.sh.coeffs);
        }
    }

    #[test]
    fn header_writer_rejects_count_overflow() {
        let mut out = Vec::new();
        let too_many = u32::MAX as usize + 1;
        assert_eq!(
            write_header(&mut out, VERSION_V1, None, too_many, 0),
            Err(EncodeCloudError::TooManyGaussians(too_many))
        );
        // Nothing is written when the count check fails.
        assert!(out.is_empty());
        let mut ok = Vec::new();
        write_header(&mut ok, VERSION_V1, None, 7, 2).unwrap();
        assert_eq!(ok.len(), V1_HEADER);
        assert_eq!(&ok[..4], MAGIC);
        assert_eq!(u32::from_le_bytes(ok[8..12].try_into().unwrap()), 7);
        assert_eq!(ok[12], 2); // degree byte is last
    }

    #[test]
    fn decode_renormalizes_off_unit_quaternions() {
        let mut cloud = GaussianCloud::new();
        cloud.push(Gaussian {
            rotation: Quat::new(2.0, 0.0, 0.0, 0.0), // norm 2: off-unit
            ..Default::default()
        });
        let bytes = encode_cloud(&cloud);
        let back = decode_cloud(&bytes).unwrap();
        let q = back.gaussians()[0].rotation;
        assert!((q.norm_squared() - 1.0).abs() < 1e-5);
        assert!((q.w - 1.0).abs() < 1e-5);
    }

    #[test]
    fn decode_rejects_degenerate_rotation() {
        for bad in [
            Quat::new(0.0, 0.0, 0.0, 0.0),
            Quat::new(f32::NAN, 0.0, 0.0, 1.0),
            Quat::new(f32::INFINITY, 0.0, 0.0, 0.0),
        ] {
            let mut cloud = GaussianCloud::new();
            cloud.push(Gaussian {
                rotation: bad,
                ..Default::default()
            });
            assert_eq!(
                decode_cloud(&encode_cloud(&cloud)),
                Err(DecodeCloudError::InvalidRecord(0)),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn decode_clamps_or_rejects_bad_opacity() {
        let mut cloud = GaussianCloud::new();
        cloud.push(Gaussian {
            opacity: 1.75, // finite but out of range: clamped
            ..Default::default()
        });
        let back = decode_cloud(&encode_cloud(&cloud)).unwrap();
        assert_eq!(back.gaussians()[0].opacity, 1.0);
        assert!(back.gaussians()[0].is_valid());

        let mut cloud = GaussianCloud::new();
        cloud.push(Gaussian {
            opacity: f32::NAN,
            ..Default::default()
        });
        assert_eq!(
            decode_cloud(&encode_cloud(&cloud)),
            Err(DecodeCloudError::InvalidRecord(0))
        );
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = encode_cloud(&GaussianCloud::new());
        bytes[0] = b'X';
        assert_eq!(decode_cloud(&bytes), Err(DecodeCloudError::BadMagic));
    }

    #[test]
    fn truncated_buffer_rejected() {
        let cloud = synth_cloud(10, 1);
        for format in StorageFormat::ALL {
            let bytes = try_encode_cloud_as(&cloud, format).unwrap();
            let cut = &bytes[..bytes.len() - 5];
            assert_eq!(decode_cloud(cut), Err(DecodeCloudError::Truncated));
            assert_eq!(decode_cloud(&bytes[..4]), Err(DecodeCloudError::Truncated));
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let cloud = synth_cloud(3, 1);
        for format in StorageFormat::ALL {
            let mut bytes = try_encode_cloud_as(&cloud, format).unwrap();
            bytes.extend_from_slice(&[0xAB, 0xCD, 0xEF]);
            assert_eq!(
                decode_cloud(&bytes),
                Err(DecodeCloudError::TrailingBytes(3)),
                "{}",
                format.name()
            );
        }
    }

    #[test]
    fn huge_count_rejected_without_wraparound() {
        // A header declaring u32::MAX records must fail cleanly as
        // truncated — on 32-bit targets the unchecked `count * record`
        // multiply used to wrap and accept the short buffer.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&VERSION_V1.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.push(0); // degree
        bytes.extend_from_slice(&[0u8; 64]); // far fewer than declared
        assert_eq!(decode_cloud(&bytes), Err(DecodeCloudError::Truncated));
    }

    #[test]
    fn bad_version_and_format_rejected() {
        let mut bytes = encode_cloud(&GaussianCloud::new());
        bytes[4] = 9;
        assert!(matches!(
            decode_cloud(&bytes),
            Err(DecodeCloudError::UnsupportedVersion(9))
        ));

        let cloud = synth_cloud(2, 0);
        let mut v2 = try_encode_cloud_as(&cloud, StorageFormat::Compact).unwrap();
        // 0 is the AoS tag, which is v1-only; 1 is unassigned.
        for tag in [7, 0, 1] {
            v2[8] = tag; // format tag
            assert_eq!(decode_cloud(&v2), Err(DecodeCloudError::BadFormat(tag)));
        }
    }

    #[test]
    fn error_display_is_informative() {
        assert!(DecodeCloudError::UnsupportedVersion(3)
            .to_string()
            .contains('3'));
        assert!(DecodeCloudError::InvalidRecord(5).to_string().contains('5'));
        assert!(EncodeCloudError::TooManyGaussians(4_294_967_296)
            .to_string()
            .contains("4294967296"));
    }
}
