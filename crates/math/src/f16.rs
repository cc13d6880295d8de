//! Software IEEE 754 binary16 ("half") conversions.
//!
//! The compact splat-storage backends in `neo-scene` store means, scales,
//! and SH coefficients as f16 to halve feature-record DRAM traffic. The
//! toolchain has no stable `f16` primitive and the build is offline (no
//! `half` crate), so the conversions are implemented here on raw `u16`
//! bit patterns: round-to-nearest-even narrowing, exact widening,
//! subnormals included.

/// Bit pattern of positive infinity.
pub const F16_INFINITY: u16 = 0x7C00;
/// Bit pattern of the largest finite half (65504.0).
pub const F16_MAX: u16 = 0x7BFF;
/// Largest finite half value, as f32.
pub const F16_MAX_F32: f32 = 65504.0;

/// Narrows an `f32` to the nearest f16 bit pattern (round-to-nearest-even).
///
/// Overflow produces a signed infinity and NaNs collapse to a quiet NaN;
/// use [`f32_to_f16_bits_saturating`] when the result must stay finite.
///
/// ```
/// use neo_math::f16::{f16_bits_to_f32, f32_to_f16_bits};
/// assert_eq!(f16_bits_to_f32(f32_to_f16_bits(1.5)), 1.5);
/// assert_eq!(f32_to_f16_bits(0.0), 0);
/// ```
pub fn f32_to_f16_bits(value: f32) -> u16 {
    let bits = value.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    #[expect(
        clippy::cast_possible_wrap,
        reason = "the & 0xFF mask pins the exponent to 8 bits; i32 holds it with room for the bias arithmetic below"
    )]
    let exp = ((bits >> 23) & 0xFF) as i32;
    let man = bits & 0x007F_FFFF;

    if exp == 0xFF {
        // Infinity stays infinity; every NaN collapses to a quiet NaN.
        return sign | if man == 0 { F16_INFINITY } else { 0x7E00 };
    }

    let half_exp = exp - 127 + 15;
    if half_exp >= 0x1F {
        return sign | F16_INFINITY;
    }
    if half_exp <= 0 {
        // Underflow into the f16 subnormal range (or to zero). Values
        // below half the smallest subnormal round to zero.
        if half_exp < -10 {
            return sign;
        }
        let man = man | 0x0080_0000; // restore the implicit leading 1
        #[expect(
            clippy::cast_sign_loss,
            reason = "half_exp is in -10..=0 here, so 14 - half_exp is 14..=24: positive and in u32 range"
        )]
        let shift = (14 - half_exp) as u32; // 14..=24
        #[expect(
            clippy::cast_possible_truncation,
            reason = "man has 24 significant bits and shift >= 14, so the result fits in 10 bits"
        )]
        let half_man = (man >> shift) as u16;
        let round_bit = 1u32 << (shift - 1);
        // Round to nearest, ties to even: bump when the round bit is set
        // and either a lower (sticky) bit or the result's LSB is set.
        if man & round_bit != 0 && man & (3 * round_bit - 1) != 0 {
            return (sign | half_man) + 1;
        }
        return sign | half_man;
    }

    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "half_exp is in 1..=30 here (5 exponent bits) and man >> 13 leaves 10 mantissa bits; both fit u16"
    )]
    let out = sign | ((half_exp as u16) << 10) | (man >> 13) as u16;
    let round_bit = 0x0000_1000u32;
    if man & round_bit != 0 && man & (3 * round_bit - 1) != 0 {
        // The +1 may carry into the exponent; that carry is exactly the
        // correct rounding (up to the next power of two, or to infinity).
        out + 1
    } else {
        out
    }
}

/// Like [`f32_to_f16_bits`], but finite inputs that overflow the half
/// range saturate to ±[`F16_MAX`] instead of becoming infinite. NaN still
/// maps to NaN. This is the conversion quantized storage uses: a stored
/// record must decode back to a finite value whenever the input was
/// finite.
pub fn f32_to_f16_bits_saturating(value: f32) -> u16 {
    let bits = f32_to_f16_bits(value);
    if bits & 0x7FFF == F16_INFINITY && value.is_finite() {
        (bits & 0x8000) | F16_MAX
    } else {
        bits
    }
}

/// Widens an f16 bit pattern to the `f32` it represents, exactly.
///
/// ```
/// use neo_math::f16::f16_bits_to_f32;
/// assert_eq!(f16_bits_to_f32(0x3C00), 1.0);
/// assert_eq!(f16_bits_to_f32(0x0001), 2.0f32.powi(-24)); // smallest subnormal
/// ```
pub fn f16_bits_to_f32(bits: u16) -> f32 {
    let sign = u32::from(bits & 0x8000) << 16;
    let exp = u32::from((bits >> 10) & 0x1F);
    let man = u32::from(bits & 0x03FF);

    if exp == 0x1F {
        return f32::from_bits(sign | 0x7F80_0000 | (man << 13));
    }
    if exp == 0 {
        if man == 0 {
            return f32::from_bits(sign); // ±0
        }
        // Subnormal half: renormalize. The top set bit of `man` (position
        // p = 31 - lz) becomes the implicit 1 at f32 exponent p - 24.
        let lz = man.leading_zeros();
        let exp = 134 - lz;
        let man = (man << (lz - 8)) & 0x007F_FFFF;
        return f32::from_bits(sign | (exp << 23) | man);
    }
    f32::from_bits(sign | ((exp + 112) << 23) | (man << 13))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widen_narrow_roundtrips_every_half() {
        // Every non-NaN f16 value is exactly representable in f32, so
        // widening then narrowing must reproduce the bit pattern.
        for bits in 0..=u16::MAX {
            let wide = f16_bits_to_f32(bits);
            if wide.is_nan() {
                assert!(
                    f32_to_f16_bits(wide) & 0x7C00 == 0x7C00,
                    "NaN stays NaN for {bits:#06x}"
                );
                continue;
            }
            assert_eq!(f32_to_f16_bits(wide), bits, "bits {bits:#06x}");
            assert_eq!(f32_to_f16_bits_saturating(wide), bits);
        }
    }

    #[test]
    fn known_values() {
        assert_eq!(f32_to_f16_bits(1.0), 0x3C00);
        assert_eq!(f32_to_f16_bits(-2.0), 0xC000);
        assert_eq!(f32_to_f16_bits(65504.0), F16_MAX);
        assert_eq!(f16_bits_to_f32(F16_MAX), F16_MAX_F32);
        assert_eq!(f32_to_f16_bits(f32::INFINITY), F16_INFINITY);
        assert_eq!(f32_to_f16_bits(f32::NEG_INFINITY), 0xFC00);
        assert!(f16_bits_to_f32(0x7E00).is_nan());
    }

    #[test]
    fn round_to_nearest_even() {
        // 1.0 + 2^-11 is exactly halfway between 1.0 and the next half;
        // ties go to the even mantissa (1.0).
        assert_eq!(f32_to_f16_bits(1.0 + 2f32.powi(-11)), 0x3C00);
        // The next representable f32 above the tie rounds up.
        let above_tie = f32::from_bits((1.0f32 + 2f32.powi(-11)).to_bits() + 1);
        assert_eq!(f32_to_f16_bits(above_tie), 0x3C01);
        // Halfway between 0x3C01 and 0x3C02 rounds to even (0x3C02).
        assert_eq!(f32_to_f16_bits(1.0 + 3.0 * 2f32.powi(-11)), 0x3C02);
    }

    #[test]
    fn overflow_and_saturation() {
        assert_eq!(f32_to_f16_bits(1e6), F16_INFINITY);
        assert_eq!(f32_to_f16_bits(-1e6), 0xFC00);
        assert_eq!(f32_to_f16_bits_saturating(1e6), F16_MAX);
        assert_eq!(f32_to_f16_bits_saturating(-1e6), 0x8000 | F16_MAX);
        assert_eq!(f32_to_f16_bits_saturating(f32::INFINITY), F16_INFINITY);
        assert!(f16_bits_to_f32(f32_to_f16_bits_saturating(f32::NAN)).is_nan());
        // 65520 is the first value that rounds past F16_MAX.
        assert_eq!(f32_to_f16_bits(65520.0), F16_INFINITY);
        assert_eq!(f32_to_f16_bits(65519.99), F16_MAX);
    }

    #[test]
    fn subnormal_underflow() {
        let smallest = 2f32.powi(-24);
        assert_eq!(f32_to_f16_bits(smallest), 0x0001);
        assert_eq!(f32_to_f16_bits(smallest * 0.49), 0x0000);
        assert_eq!(f32_to_f16_bits(-smallest), 0x8001);
        // f32 subnormals are far below half the smallest f16 subnormal.
        assert_eq!(f32_to_f16_bits(f32::MIN_POSITIVE / 2.0), 0);
        assert_eq!(f16_bits_to_f32(0x03FF), 1023.0 * 2f32.powi(-24));
    }
}
