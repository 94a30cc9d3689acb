//! A small, hand-rolled binary format for durable metadata.
//!
//! Catalog entries, snapshot manifests, block headers and superblocks are
//! serialized with this codec instead of an external serialization crate:
//! the durability path stays fully inspectable and the on-disk format is
//! explicit in one place.
//!
//! Layout conventions: little-endian fixed-width integers, varint-free
//! (metadata volume is tiny next to data blocks), length-prefixed byte
//! strings, and an explicit `u32` magic+version at the head of every
//! top-level artifact (callers' responsibility).

use crate::error::{Result, RsError};

/// Binary writer accumulating into a `Vec<u8>`.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_capacity(cap: usize) -> Self {
        Writer { buf: Vec::with_capacity(cap) }
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_i128(&mut self, v: i128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Length-prefixed (`u32`) byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Raw bytes with no length prefix (caller knows the length).
    pub fn put_raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }
}

/// Binary reader over a byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(RsError::Codec(format!(
                "unexpected end of buffer: need {n} bytes, have {}",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub fn get_bool(&mut self) -> Result<bool> {
        Ok(self.get_u8()? != 0)
    }

    pub fn get_u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    pub fn get_u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn get_u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn get_i32(&mut self) -> Result<i32> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn get_i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn get_i128(&mut self) -> Result<i128> {
        Ok(i128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }

    pub fn get_f64(&mut self) -> Result<f64> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A `u32` count of items of at least `min_bytes` each, a Codec error
    /// unless that many fit in what is left: it never sizes an allocation.
    pub fn get_count(&mut self, min_bytes: usize) -> Result<usize> {
        let (n, left) = (self.get_u32()? as usize, self.remaining());
        if n.saturating_mul(min_bytes) > left {
            return Err(RsError::Codec(format!("{n} items of {min_bytes}+ bytes in {left}")));
        }
        Ok(n)
    }

    pub fn get_bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.get_u32()? as usize;
        self.take(len)
    }

    pub fn get_str(&mut self) -> Result<String> {
        let b = self.get_bytes()?;
        String::from_utf8(b.to_vec())
            .map_err(|_| RsError::Codec("invalid UTF-8 in string field".into()))
    }

    pub fn get_raw(&mut self, n: usize) -> Result<&'a [u8]> {
        self.take(n)
    }
}

/// CRC-32 (IEEE, reflected) — block integrity checksum.
///
/// Slice-by-16: table `t[k]` is the bytewise table `t[0]` advanced `k`
/// zero bytes, so sixteen lookups fold 16 bytes; safe Rust on every platform.
pub fn crc32(data: &[u8]) -> u32 {
    use std::sync::OnceLock;
    static TABLES: OnceLock<[[u32; 256]; 16]> = OnceLock::new();
    let t = TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 16];
        for i in 0..256 * 16 {
            let (k, b) = (i / 256, i % 256);
            t[k][b] = if k == 0 {
                (0..8).fold(b as u32, |c, _| if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 })
            } else {
                (t[k - 1][b] >> 8) ^ t[0][(t[k - 1][b] & 0xFF) as usize]
            };
        }
        t
    });
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(16);
    for c in &mut chunks {
        let lead = (crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]])).to_le_bytes();
        let byte = |j: usize| if j < 4 { lead[j] } else { c[j] };
        crc = (0..16).fold(0, |x, j| x ^ t[15 - j][byte(j) as usize]);
    }
    !chunks.remainder().iter().fold(crc, |c, &v| t[0][((c ^ v as u32) & 0xFF) as usize] ^ (c >> 8))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_bool(true);
        w.put_u16(300);
        w.put_u32(70_000);
        w.put_u64(1 << 40);
        w.put_i32(-5);
        w.put_i64(-(1 << 40));
        w.put_i128(-(1 << 100));
        w.put_f64(3.25);
        w.put_str("hello");
        w.put_bytes(&[1, 2, 3]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_u16().unwrap(), 300);
        assert_eq!(r.get_u32().unwrap(), 70_000);
        assert_eq!(r.get_u64().unwrap(), 1 << 40);
        assert_eq!(r.get_i32().unwrap(), -5);
        assert_eq!(r.get_i64().unwrap(), -(1 << 40));
        assert_eq!(r.get_i128().unwrap(), -(1 << 100));
        assert_eq!(r.get_f64().unwrap(), 3.25);
        assert_eq!(r.get_str().unwrap(), "hello");
        assert_eq!(r.get_bytes().unwrap(), &[1, 2, 3]);
        assert!(r.is_exhausted());
    }

    #[test]
    fn truncated_buffer_errors() {
        let mut w = Writer::new();
        w.put_u64(1);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes[..5]);
        assert!(r.get_u64().is_err());
    }

    #[test]
    fn a_corrupt_count_is_a_codec_error() {
        let mut w = Writer::new();
        w.put_u32(3);
        w.put_raw(&[0; 6]);
        let bytes = w.into_bytes();
        assert_eq!(Reader::new(&bytes).get_count(2).unwrap(), 3, "3 items of 2 bytes fit in 6");
        let err = Reader::new(&bytes).get_count(3).unwrap_err();
        assert!(matches!(err, RsError::Codec(_)), "{err}");
        let huge = u32::MAX.to_le_bytes();
        assert!(matches!(Reader::new(&huge).get_count(1), Err(RsError::Codec(_))));
        assert!(matches!(Reader::new(&huge).get_count(usize::MAX), Err(RsError::Codec(_))));
    }

    #[test]
    fn crc32_known_vector() {
        // Standard test vector: CRC-32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The definition, one bit at a time: the reference the table-driven
    /// `crc32` must equal.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { 0xEDB8_8320 ^ (crc >> 1) } else { crc >> 1 };
            }
        }
        !crc
    }

    /// Every length 0..=1,024 at every start offset 0..16 of one random
    /// buffer (each tail length, each alignment of the 16-byte steps), and
    /// one 1 MiB buffer, hash as the bitwise definition does.
    #[test]
    fn crc32_slice_by_16_equals_the_bitwise_definition() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 24) as u8
        };
        let buf: Vec<u8> = (0..1 << 20).map(|_| next()).collect();
        for start in 0..16 {
            for len in 0..=1_024 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bitwise(s), "start {start}, len {len}");
            }
        }
        assert_eq!(crc32(&buf), crc32_bitwise(&buf), "1 MiB");
    }
}
