//! Fixed-layout byte codecs.
//!
//! The engine controls its own on-disk bytes; these helpers read/write
//! little-endian integers at explicit offsets (page fields) or through a
//! cursor (log records), plus memcomparable key encodings so integer keys
//! sort correctly as byte strings, and the CRC32 that validates pages and
//! log records.

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
// CRC32 (IEEE) — a carry-less-multiply fold where the CPU has one,
// slicing-by-16 elsewhere; validates pages, WAL records and the master
// record
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
    crc32_clmul(data).unwrap_or_else(|| crc32_tables(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF)
}

/// [`crc32`] by the carry-less-multiply fold, the tail of fewer than 16
/// bytes on the tables; `None` where the CPU lacks the instructions or
/// `data` is shorter than the fold takes.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
fn crc32_clmul(data: &[u8]) -> Option<u32> {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= clmul::MIN_LEN && clmul::available() {
        let (blocks, tail) = data.split_at(data.len() & !15);
        // SAFETY: `available` saw the CPU's PCLMULQDQ and SSE4.1.
        let c = unsafe { clmul::fold(0xFFFF_FFFF, blocks) };
        return Some(crc32_tables(c, tail) ^ 0xFFFF_FFFF);
    }
    None
}

/// Advance the running (pre-inverted) CRC `c` over `data` by
/// slicing-by-16, the tail of fewer than 16 bytes a byte at a time.
fn crc32_tables(mut c: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
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
    c
}

/// The carry-less-multiply fold of Intel's "Fast CRC Computation for
/// Generic Polynomials Using PCLMULQDQ Instruction" (Gopal et al.,
/// 2009), with the paper's constants for the reflected IEEE polynomial,
/// as zlib and Chromium's `crc32_simd` use them: four 128-bit
/// accumulators each fold 64 bytes ahead per step, then fold into one,
/// take the remaining 16-byte blocks, fold to 64 bits and Barrett-reduce
/// to 32.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::*;

    /// The shortest input the fold takes: its four accumulators start
    /// from 64 bytes.
    pub const MIN_LEN: usize = 64;

    /// x^(4·128+32) mod P and x^(4·128-32) mod P, bit-reflected: fold
    /// one accumulator 64 bytes ahead.
    const K1K2: [u64; 2] = [0x01_5444_2bd4, 0x01_c6e4_1596];
    /// x^(128+32) mod P and x^(128-32) mod P: fold 16 bytes ahead.
    const K3K4: [u64; 2] = [0x01_7519_97d0, 0x00_ccaa_009e];
    /// x^64 mod P: fold 128 bits to 64.
    const K5: u64 = 0x01_63cd_6124;
    /// P' = floor(x^64 / P) and P itself, for the Barrett reduction.
    const POLY: [u64; 2] = [0x01_db71_0641, 0x01_f701_1641];

    /// Whether this CPU has the instructions [`fold`] uses.
    pub fn available() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// `k[0]` in the low 64 bits, `k[1]` in the high.
    ///
    /// # Safety
    ///
    /// None beyond SSE2, which every x86-64 CPU has.
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn pair(k: [u64; 2]) -> __m128i {
        _mm_set_epi64x(k[1] as i64, k[0] as i64)
    }

    /// The first 16 bytes of `block`, which must have that many.
    ///
    /// # Safety
    ///
    /// None beyond SSE2: the length is checked.
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn load(block: &[u8]) -> __m128i {
        assert!(block.len() >= 16);
        _mm_loadu_si128(block.as_ptr().cast())
    }

    /// `x` folded 16·n bytes ahead by `k` (`k` = that distance's pair of
    /// constants), added to `next`.
    ///
    /// # Safety
    ///
    /// The CPU must have PCLMULQDQ.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    unsafe fn fold_into(x: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(x, k, 0x00);
        let hi = _mm_clmulepi64_si128(x, k, 0x11);
        _mm_xor_si128(_mm_xor_si128(hi, lo), next)
    }

    /// Advance the running (pre-inverted) CRC `c` over `data`.
    ///
    /// # Safety
    ///
    /// The CPU must have PCLMULQDQ and SSE4.1 ([`available`]). `data`
    /// must be at least [`MIN_LEN`] bytes and a multiple of 16 long, which
    /// is asserted.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub unsafe fn fold(c: u32, data: &[u8]) -> u32 {
        assert!(data.len() >= MIN_LEN && data.len() & 15 == 0);
        let mut x = [
            load(&data[0..]),
            load(&data[16..]),
            load(&data[32..]),
            load(&data[48..]),
        ];
        x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(c as i32));
        let mut blocks = data[64..].chunks_exact(64);
        let k = pair(K1K2);
        for b in &mut blocks {
            for (i, xi) in x.iter_mut().enumerate() {
                *xi = fold_into(*xi, k, load(&b[16 * i..]));
            }
        }
        let k = pair(K3K4);
        let mut acc = fold_into(x[0], k, x[1]);
        acc = fold_into(acc, k, x[2]);
        acc = fold_into(acc, k, x[3]);
        for b in blocks.remainder().chunks_exact(16) {
            acc = fold_into(acc, k, load(b));
        }

        // 128 bits to 64: the low half times K4, added to the high half.
        let low32 = _mm_setr_epi32(!0, 0, !0, 0);
        let mut r = _mm_xor_si128(_mm_srli_si128(acc, 8), _mm_clmulepi64_si128(acc, k, 0x10));
        // 64 to 32 + 64 fold by K5.
        let hi = _mm_srli_si128(r, 4);
        r = _mm_and_si128(r, low32);
        r = _mm_xor_si128(
            _mm_clmulepi64_si128(r, _mm_set_epi64x(0, K5 as i64), 0x00),
            hi,
        );

        // Barrett reduction to 32 bits.
        let p = pair(POLY);
        let mut t = _mm_and_si128(r, low32);
        t = _mm_clmulepi64_si128(t, p, 0x10);
        t = _mm_and_si128(t, low32);
        t = _mm_clmulepi64_si128(t, p, 0x00);
        _mm_extract_epi32(_mm_xor_si128(r, t), 1) as u32
    }
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
        let mut inputs: Vec<Vec<u8>> = Vec::new();
        let buf = noise(1024 + 16);
        for offset in 0..16 {
            for len in 0..=1024 {
                inputs.push(buf[offset..offset + len].to_vec());
            }
        }
        let page = noise(8192 + 16);
        for offset in 0..16 {
            inputs.push(page[offset..offset + 8192].to_vec());
        }
        for len in [63, 64, 65, 8192, 8192 + 7] {
            inputs.push(noise(len));
            inputs.push(vec![0u8; len]);
            inputs.push(vec![0xFFu8; len]);
        }
        let mut folded = 0;
        for data in &inputs {
            let want = crc32_bytewise(data);
            let len = data.len();
            assert_eq!(crc32(data), want, "crc32, length {len}");
            let tables = crc32_tables(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF;
            assert_eq!(tables, want, "tables, length {len}");
            if let Some(kernel) = crc32_clmul(data) {
                assert_eq!(kernel, want, "kernel, length {len}");
                folded += 1;
            }
        }
        if folded == 0 {
            eprintln!("crc32 kernel half skipped: this CPU has no PCLMULQDQ and SSE4.1");
        }
    }

    #[test]
    fn crc32_detects_flip() {
        let a = crc32(b"hello world");
        let b = crc32(b"hello worle");
        assert_ne!(a, b);
    }
}
