//! Offline stand-in for the `bytes` crate: the [`Buf`] / [`BufMut`]
//! methods the workspace's binary codecs use, implemented for `&[u8]`
//! and `Vec<u8>`.
//!
//! Matches the upstream contract that getters **panic** when the buffer
//! has insufficient remaining bytes — callers bounds-check with
//! [`Buf::remaining`] first.

/// Read cursor over a byte buffer.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;

    /// Copies `dst.len()` bytes out and advances.
    fn copy_to_slice(&mut self, dst: &mut [u8]);

    /// Reads one byte.
    fn get_u8(&mut self) -> u8 {
        let mut b = [0u8; 1];
        self.copy_to_slice(&mut b);
        b[0]
    }

    /// Reads a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_le_bytes(b)
    }

    /// Reads a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_le_bytes(b)
    }

    /// Reads a little-endian `f32`.
    fn get_f32_le(&mut self) -> f32 {
        f32::from_bits(self.get_u32_le())
    }

    /// Reads a little-endian `f64`.
    fn get_f64_le(&mut self) -> f64 {
        f64::from_bits(self.get_u64_le())
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.len() >= dst.len(), "buffer underflow");
        let (head, tail) = self.split_at(dst.len());
        dst.copy_from_slice(head);
        *self = tail;
    }
}

/// Write cursor appending to a byte buffer.
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `f32`.
    fn put_f32_le(&mut self, v: f32) {
        self.put_u32_le(v.to_bits());
    }

    /// Appends a little-endian `f64`.
    fn put_f64_le(&mut self, v: f64) {
        self.put_u64_le(v.to_bits());
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_widths() {
        let mut out: Vec<u8> = Vec::new();
        out.put_u8(7);
        out.put_u32_le(0xDEADBEEF);
        out.put_u64_le(42);
        out.put_f32_le(1.5);
        out.put_f64_le(-2.25);
        out.put_slice(b"xy");

        let mut buf: &[u8] = &out;
        assert_eq!(buf.remaining(), 1 + 4 + 8 + 4 + 8 + 2);
        assert_eq!(buf.get_u8(), 7);
        assert_eq!(buf.get_u32_le(), 0xDEADBEEF);
        assert_eq!(buf.get_u64_le(), 42);
        assert_eq!(buf.get_f32_le(), 1.5);
        assert_eq!(buf.get_f64_le(), -2.25);
        let mut rest = [0u8; 2];
        buf.copy_to_slice(&mut rest);
        assert_eq!(&rest, b"xy");
        assert_eq!(buf.remaining(), 0);
    }

    #[test]
    #[should_panic(expected = "buffer underflow")]
    fn underflow_panics() {
        let mut buf: &[u8] = &[1, 2];
        let _ = buf.get_u32_le();
    }
}
