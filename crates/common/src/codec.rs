//! Fixed-layout byte codecs.
//!
//! The engine controls its own on-disk bytes; these helpers read/write
//! little-endian integers at explicit offsets (page fields) or through a
//! cursor (log records), plus memcomparable key encodings so integer keys
//! sort correctly as byte strings, and a small table-driven CRC32 for log
//! record validation.

use crate::error::{Error, Result};

// ---------------------------------------------------------------------
// Positioned accessors (page fields at fixed offsets)
// ---------------------------------------------------------------------

#[inline]
pub fn get_u16(buf: &[u8], off: usize) -> u16 {
    u16::from_le_bytes([buf[off], buf[off + 1]])
}

#[inline]
pub fn put_u16(buf: &mut [u8], off: usize, v: u16) {
    buf[off..off + 2].copy_from_slice(&v.to_le_bytes());
}

#[inline]
pub fn get_u32(buf: &[u8], off: usize) -> u32 {
    u32::from_le_bytes([buf[off], buf[off + 1], buf[off + 2], buf[off + 3]])
}

#[inline]
pub fn put_u32(buf: &mut [u8], off: usize, v: u32) {
    buf[off..off + 4].copy_from_slice(&v.to_le_bytes());
}

#[inline]
pub fn get_u64(buf: &[u8], off: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&buf[off..off + 8]);
    u64::from_le_bytes(b)
}

#[inline]
pub fn put_u64(buf: &mut [u8], off: usize, v: u64) {
    buf[off..off + 8].copy_from_slice(&v.to_le_bytes());
}

// ---------------------------------------------------------------------
// Cursor-style reader/writer (log record payloads)
// ---------------------------------------------------------------------

/// Sequential writer appending to a `Vec<u8>`.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

/// Keep appending to bytes already written (`finish` hands them back).
impl From<Vec<u8>> for Writer {
    fn from(buf: Vec<u8>) -> Self {
        Writer { buf }
    }
}

impl Writer {
    pub fn new() -> Self {
        Writer { buf: Vec::new() }
    }

    pub fn with_capacity(n: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(n),
        }
    }

    #[inline]
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }
    #[inline]
    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }
    #[inline]
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }
    #[inline]
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }
    /// Length-prefixed byte string (u32 length).
    #[inline]
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
        self
    }
    /// Raw bytes with no length prefix.
    #[inline]
    pub fn raw(&mut self, v: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(v);
        self
    }

    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Sequential reader over a byte slice. Every accessor is bounds-checked
/// and returns [`Error::Corruption`] on truncation, so malformed log
/// records cannot panic the recovery pass.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    // The accessors are `#[inline]`: a row crossing the wire goes through
    // a dozen of them, and a call into this crate per integer was most of
    // what encoding and decoding it cost.
    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        match self.buf.get(self.pos..).and_then(|rest| rest.get(..n)) {
            Some(s) => {
                self.pos += n;
                Ok(s)
            }
            None => Err(self.truncated(n)),
        }
    }

    #[cold]
    fn truncated(&self, n: usize) -> Error {
        Error::Corruption(format!(
            "truncated payload: need {n} bytes at offset {} of {}",
            self.pos,
            self.buf.len()
        ))
    }

    #[inline]
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }
    #[inline]
    pub fn u16(&mut self) -> Result<u16> {
        let s = self.take(2)?;
        Ok(u16::from_le_bytes([s[0], s[1]]))
    }
    #[inline]
    pub fn u32(&mut self) -> Result<u32> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }
    #[inline]
    pub fn u64(&mut self) -> Result<u64> {
        let s = self.take(8)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        Ok(u64::from_le_bytes(b))
    }
    /// Length-prefixed byte string written by [`Writer::bytes`].
    #[inline]
    pub fn bytes(&mut self) -> Result<&'a [u8]> {
        let n = self.u32()? as usize;
        self.take(n)
    }
    /// Raw bytes with an out-of-band length.
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8]> {
        self.take(n)
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Asserts the whole payload was consumed — catches format drift.
    pub fn expect_end(&self) -> Result<()> {
        if self.remaining() != 0 {
            return Err(Error::Corruption(format!(
                "{} unconsumed payload bytes",
                self.remaining()
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Memcomparable key encodings
// ---------------------------------------------------------------------

/// Encode an `i64` so that unsigned byte-string comparison matches signed
/// integer comparison (flip the sign bit, big-endian).
pub fn key_from_i64(v: i64) -> [u8; 8] {
    ((v as u64) ^ (1 << 63)).to_be_bytes()
}

/// Inverse of [`key_from_i64`].
pub fn i64_from_key(k: &[u8]) -> Result<i64> {
    if k.len() != 8 {
        return Err(Error::Corruption(format!("i64 key of {} bytes", k.len())));
    }
    let mut b = [0u8; 8];
    b.copy_from_slice(k);
    Ok((u64::from_be_bytes(b) ^ (1 << 63)) as i64)
}

/// Encode a `u64` as a memcomparable key (plain big-endian).
pub fn key_from_u64(v: u64) -> [u8; 8] {
    v.to_be_bytes()
}

/// Inverse of [`key_from_u64`].
pub fn u64_from_key(k: &[u8]) -> Result<u64> {
    if k.len() != 8 {
        return Err(Error::Corruption(format!("u64 key of {} bytes", k.len())));
    }
    let mut b = [0u8; 8];
    b.copy_from_slice(k);
    Ok(u64::from_be_bytes(b))
}

// ---------------------------------------------------------------------
// CRC32 (IEEE) — slicing-by-16, validates pages, WAL records and the
// master record
// ---------------------------------------------------------------------

/// `CRC_TABLES[0]` is the classic byte-at-a-time table of the reflected
/// IEEE polynomial; `CRC_TABLES[k][b]` is the CRC of byte `b` followed by
/// `k` zero bytes, so sixteen lookups fold sixteen input bytes at once.
static CRC_TABLES: [[u32; 256]; 16] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// CRC32 (IEEE 802.3 polynomial) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut blocks = data.chunks_exact(16);
    for b in &mut blocks {
        // Fold the running CRC into the block's first four bytes; each
        // byte then looks up the table for its distance to the block end.
        let mut x: [u8; 16] = b.try_into().expect("chunks_exact(16)");
        for (xi, ci) in x.iter_mut().zip(c.to_le_bytes()) {
            *xi ^= ci;
        }
        c = x
            .iter()
            .enumerate()
            .fold(0, |acc, (i, &byte)| acc ^ t[15 - i][byte as usize]);
    }
    for &b in blocks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positioned_roundtrip() {
        let mut buf = [0u8; 32];
        put_u16(&mut buf, 1, 0xBEEF);
        put_u32(&mut buf, 4, 0xDEAD_BEEF);
        put_u64(&mut buf, 10, u64::MAX - 3);
        assert_eq!(get_u16(&buf, 1), 0xBEEF);
        assert_eq!(get_u32(&buf, 4), 0xDEAD_BEEF);
        assert_eq!(get_u64(&buf, 10), u64::MAX - 3);
    }

    #[test]
    fn cursor_roundtrip() {
        let mut w = Writer::new();
        w.u8(7)
            .u16(300)
            .u32(70_000)
            .u64(1 << 40)
            .bytes(b"hello")
            .raw(b"xy");
        let v = w.finish();
        let mut r = Reader::new(&v);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 300);
        assert_eq!(r.u32().unwrap(), 70_000);
        assert_eq!(r.u64().unwrap(), 1 << 40);
        assert_eq!(r.bytes().unwrap(), b"hello");
        assert_eq!(r.raw(2).unwrap(), b"xy");
        r.expect_end().unwrap();
    }

    #[test]
    fn reader_rejects_truncation() {
        let v = vec![1u8, 2];
        let mut r = Reader::new(&v);
        assert!(r.u32().is_err());
    }

    #[test]
    fn reader_rejects_trailing_garbage() {
        let v = vec![1u8, 2, 3];
        let mut r = Reader::new(&v);
        r.u8().unwrap();
        assert!(r.expect_end().is_err());
    }

    #[test]
    fn i64_keys_sort_like_integers() {
        let vals = [i64::MIN, -5, -1, 0, 1, 5, i64::MAX];
        let keys: Vec<_> = vals.iter().map(|&v| key_from_i64(v)).collect();
        for w in keys.windows(2) {
            assert!(w[0] < w[1]);
        }
        for &v in &vals {
            assert_eq!(i64_from_key(&key_from_i64(v)).unwrap(), v);
        }
    }

    #[test]
    fn u64_keys_sort_like_integers() {
        assert!(key_from_u64(1) < key_from_u64(2));
        assert!(key_from_u64(255) < key_from_u64(256));
        assert_eq!(u64_from_key(&key_from_u64(42)).unwrap(), 42);
    }

    #[test]
    fn key_decode_rejects_bad_length() {
        assert!(i64_from_key(b"short").is_err());
        assert!(u64_from_key(b"toolongtoolong").is_err());
    }

    #[test]
    fn crc32_known_vector() {
        // Standard test vector: CRC32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The byte-at-a-time CRC the kernel replaced, with its own runtime
    /// table: the reference every stored checksum was written with.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut table = [0u32; 256];
        for (i, e) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *e = c;
        }
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    /// Deterministic non-repeating bytes (xorshift), so no block of the
    /// input is a copy of another.
    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    #[test]
    fn crc32_kernel_matches_bytewise_at_every_length_and_offset() {
        let buf = noise(1024 + 16);
        for offset in 0..16 {
            for len in 0..=1024 {
                let data = &buf[offset..offset + len];
                assert_eq!(
                    crc32(data),
                    crc32_bytewise(data),
                    "offset {offset}, length {len}"
                );
            }
        }
        for len in [8192, 8192 + 7] {
            let page = noise(len);
            assert_eq!(crc32(&page), crc32_bytewise(&page), "length {len}");
            let zero = vec![0u8; len];
            assert_eq!(crc32(&zero), crc32_bytewise(&zero), "zeroed, length {len}");
        }
    }

    #[test]
    fn crc32_detects_flip() {
        let a = crc32(b"hello world");
        let b = crc32(b"hello worle");
        assert_ne!(a, b);
    }
}
