//! RGB framebuffer with `f32` channels.

use neo_math::num::usize_from_u32;
use neo_math::Vec3;

/// An RGB image with `f32` channels in `[0, 1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Image {
    width: u32,
    height: u32,
    data: Vec<Vec3>,
}

impl Image {
    /// Creates an image filled with `background`.
    ///
    /// # Panics
    ///
    /// Panics when either dimension is zero.
    pub fn new(width: u32, height: u32, background: Vec3) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be positive");
        Self {
            width,
            height,
            data: vec![background; usize_from_u32(width) * usize_from_u32(height)],
        }
    }

    /// Image width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    #[inline]
    pub fn get(&self, x: u32, y: u32) -> Vec3 {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.data[usize_from_u32(y * self.width + x)]
    }

    /// Sets pixel `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    #[inline]
    pub fn set(&mut self, x: u32, y: u32, c: Vec3) {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.data[usize_from_u32(y * self.width + x)] = c;
    }

    /// Raw pixel slice, row-major.
    pub fn pixels(&self) -> &[Vec3] {
        &self.data
    }

    /// Mutable raw pixel slice, row-major.
    pub fn pixels_mut(&mut self) -> &mut [Vec3] {
        &mut self.data
    }

    /// Copies a `w`×`h` row-major pixel block into the rectangle whose
    /// top-left corner is `(x0, y0)`.
    ///
    /// This is the merge primitive of the parallel renderer: tiles own
    /// disjoint rectangles, so replaying per-tile blocks in any grouping
    /// produces the same image.
    ///
    /// ```
    /// use neo_math::Vec3;
    /// use neo_pipeline::Image;
    ///
    /// let mut img = Image::new(4, 3, Vec3::ZERO);
    /// img.blit_region(1, 1, 2, 2, &[Vec3::ONE; 4]);
    /// assert_eq!(img.get(2, 2), Vec3::ONE);
    /// assert_eq!(img.get(0, 0), Vec3::ZERO);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics when the rectangle exceeds the image bounds or `block` is
    /// not exactly `w * h` pixels.
    pub fn blit_region(&mut self, x0: u32, y0: u32, w: u32, h: u32, block: &[Vec3]) {
        // Widened arithmetic: u32 sums would wrap in release builds and
        // let an out-of-bounds rect slip past the check.
        assert!(
            u64::from(x0) + u64::from(w) <= u64::from(self.width)
                && u64::from(y0) + u64::from(h) <= u64::from(self.height),
            "blit rect {w}x{h}+{x0}+{y0} exceeds {}x{} image",
            self.width,
            self.height
        );
        let (w, h) = (usize_from_u32(w), usize_from_u32(h));
        assert_eq!(block.len(), w * h, "block size mismatch");
        for row in 0..h {
            let dst = (usize_from_u32(y0) + row) * usize_from_u32(self.width) + usize_from_u32(x0);
            let src = row * w;
            self.data[dst..dst + w].copy_from_slice(&block[src..src + w]);
        }
    }

    /// Converts to 8-bit RGB, clamping to `[0, 1]`.
    pub fn to_rgb8(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.data.len() * 3);
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "f32->u8 after clamp to [0,1], scale by 255, round: in 0..=255 by construction; floats have no try_from"
        )]
        let quantize = |v: f32| (v.clamp(0.0, 1.0) * 255.0).round() as u8;
        for p in &self.data {
            out.push(quantize(p.x));
            out.push(quantize(p.y));
            out.push(quantize(p.z));
        }
        out
    }

    /// Writes a binary PPM (P6) representation, handy for eyeballing
    /// example output.
    pub fn to_ppm(&self) -> Vec<u8> {
        let mut out = format!("P6\n{} {}\n255\n", self.width, self.height).into_bytes();
        out.extend(self.to_rgb8());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_fills_background() {
        let img = Image::new(4, 2, Vec3::new(0.5, 0.0, 1.0));
        assert_eq!(img.get(3, 1), Vec3::new(0.5, 0.0, 1.0));
        assert_eq!(img.pixels().len(), 8);
    }

    #[test]
    fn set_get_roundtrip() {
        let mut img = Image::new(3, 3, Vec3::ZERO);
        img.set(1, 2, Vec3::ONE);
        assert_eq!(img.get(1, 2), Vec3::ONE);
        assert_eq!(img.get(2, 1), Vec3::ZERO);
    }

    #[test]
    fn rgb8_clamps() {
        let mut img = Image::new(1, 1, Vec3::new(2.0, -1.0, 0.5));
        let bytes = img.to_rgb8();
        assert_eq!(bytes, vec![255, 0, 128]);
        img.set(0, 0, Vec3::ZERO);
        assert_eq!(img.to_rgb8(), vec![0, 0, 0]);
    }

    #[test]
    fn ppm_has_header() {
        let img = Image::new(2, 2, Vec3::ZERO);
        let ppm = img.to_ppm();
        assert!(ppm.starts_with(b"P6\n2 2\n255\n"));
        assert_eq!(ppm.len(), 11 + 12);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_get_panics() {
        let img = Image::new(2, 2, Vec3::ZERO);
        let _ = img.get(2, 0);
    }

    #[test]
    fn blit_region_roundtrip() {
        let mut img = Image::new(5, 4, Vec3::ZERO);
        img.blit_region(3, 2, 2, 2, &[Vec3::ONE; 4]);
        assert_eq!(img.get(3, 2), Vec3::ONE);
        assert_eq!(img.get(4, 3), Vec3::ONE);
        assert_eq!(img.get(2, 2), Vec3::ZERO);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn blit_region_rejects_wrapping_rects() {
        // x0 + w wraps u32; the widened bounds check must still reject it.
        let mut img = Image::new(4, 4, Vec3::ZERO);
        img.blit_region(u32::MAX - 1, 1, 2, 1, &[Vec3::ONE; 2]);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn blit_region_rejects_oversized_rects() {
        let mut img = Image::new(4, 4, Vec3::ZERO);
        img.blit_region(3, 0, 2, 1, &[Vec3::ONE; 2]);
    }
}
