//! Lossless integer conversions with the width invariant pinned at
//! compile time.
//!
//! The standard library deliberately offers no `From<u32> for usize`
//! (or `From<usize> for u64`): both are platform-width dependent in
//! principle. In practice this project supports exactly the platforms
//! where they are lossless — `usize` is 32 or 64 bits on every target
//! the workspace builds for — and the functions here turn that from a
//! per-call-site assumption into a single compile-time check. Use these
//! instead of bare `as` casts (clippy `cast_possible_truncation`): a
//! bare cast that silently truncates shipped two real bugs (the NEOG
//! count-header wraparound and the `count × record` decode overflow);
//! these helpers cannot truncate on any platform the crate compiles on.

// Compile-time width pins: building for a 16-bit `usize` (conversion
// below would truncate) or a >64-bit `usize` (u64 conversion would
// truncate) must fail loudly, not wrap silently.
const _: () = assert!(
    usize::BITS >= u32::BITS,
    "usize narrower than u32 is unsupported"
);
const _: () = assert!(
    usize::BITS <= u64::BITS,
    "usize wider than u64 is unsupported"
);

/// Convert a `u32` to `usize`, lossless by the compile-time pin above.
///
/// ```
/// assert_eq!(neo_math::num::usize_from_u32(u32::MAX), 4_294_967_295_usize);
/// ```
#[inline]
#[must_use]
pub const fn usize_from_u32(x: u32) -> usize {
    x as usize
}

/// Convert a `usize` to `u64`, lossless by the compile-time pin above.
///
/// ```
/// assert_eq!(neo_math::num::u64_from_usize(usize::MAX), usize::MAX as u64);
/// ```
#[inline]
#[must_use]
pub const fn u64_from_usize(x: usize) -> u64 {
    x as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_at_the_extremes() {
        assert_eq!(usize_from_u32(0), 0);
        assert_eq!(usize_from_u32(u32::MAX) as u64, u64::from(u32::MAX));
        assert_eq!(u64_from_usize(0), 0);
        assert_eq!(u64_from_usize(1 << 20), 1 << 20);
    }
}
