//! The byte primitives every wire format in the workspace is written and
//! read with: `put_*` appenders, and a bounds-checked [`Reader`] that
//! answers a read past the end of its bytes with [`Short`], never a
//! panic — wire bytes are untrusted. Each format maps `Short` onto its
//! own error type.
//!
//! Fixed-width integers are little-endian. A varint is unsigned LEB128:
//! seven bits a byte, low group first, the top bit set on every byte but
//! the last. Each value has exactly one accepted spelling, the shortest:
//! a last byte of zero after the first (a padded spelling) and anything
//! past 64 bits are [`VarintError::NonCanonical`], so a decoded value
//! re-encodes to the bytes it came from.

/// A read ran past the end of the bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Short;

/// Why a varint did not read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarintError {
    /// The bytes ended inside it.
    Short,
    /// Not the value's shortest spelling, or more than 64 bits.
    NonCanonical,
}

/// The most bytes a `u64` varint takes: ⌈64 / 7⌉.
pub const MAX_VARINT_BYTES: usize = 10;

/// A cursor reading fields off the front of a byte slice. A read that
/// would run past the end fails with [`Short`] (a varint with
/// [`VarintError::Short`]) and consumes nothing.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

// Inlined across crates: pindex decodes a node at every traversal hop.
impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, at: 0 }
    }

    /// Bytes read so far.
    pub fn at(&self) -> usize {
        self.at
    }

    /// The bytes not read yet.
    #[inline]
    pub fn rest(&self) -> &'a [u8] {
        &self.buf[self.at..]
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], Short> {
        let s = self.rest().get(..n).ok_or(Short)?;
        self.at += n;
        Ok(s)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], Short> {
        Ok(self.take(N)?.try_into().expect("take(N) yields N bytes"))
    }

    /// The next byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, Short> {
        Ok(self.take(1)?[0])
    }

    /// The next little-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, Short> {
        self.array().map(u16::from_le_bytes)
    }

    /// The next little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, Short> {
        self.array().map(u32::from_le_bytes)
    }

    /// The next little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, Short> {
        self.array().map(u64::from_le_bytes)
    }

    /// The next varint, in its one canonical spelling. A failed read
    /// consumes nothing.
    #[inline]
    pub fn varint(&mut self) -> Result<u64, VarintError> {
        let rest = self.rest();
        if let Some(&b) = rest.first().filter(|&&b| b < 0x80) {
            self.at += 1;
            return Ok(u64::from(b));
        }
        let mut v = 0u64;
        for (i, &b) in rest.iter().take(MAX_VARINT_BYTES).enumerate() {
            // The tenth byte holds bit 63 alone and ends the varint.
            if i == MAX_VARINT_BYTES - 1 && b > 1 {
                return Err(VarintError::NonCanonical);
            }
            v |= u64::from(b & 0x7F) << (7 * i);
            if b & 0x80 == 0 {
                if b == 0 && i > 0 {
                    return Err(VarintError::NonCanonical);
                }
                self.at += i + 1;
                return Ok(v);
            }
        }
        // Ten bytes always end above, so the bytes ran out first.
        Err(VarintError::Short)
    }
}

/// Appends `v` little-endian.
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends `v` little-endian.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends `v` little-endian.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends `v` as a varint: 1 byte below 2^7, 2 below 2^14, … 10 at most.
#[inline]
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// The bytes [`put_varint`] appends for `v`, computed without encoding.
#[inline]
pub const fn varint_len(v: u64) -> usize {
    // Bits past the top one, in groups of seven; 0 still takes a byte.
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_what_was_put_and_refuses_to_run_past_the_end() {
        let mut out = Vec::new();
        put_u16(&mut out, 0xBEEF);
        put_u32(&mut out, 0xDEAD_BEEF);
        put_u64(&mut out, u64::MAX - 1);
        out.push(7);
        let mut r = Reader::new(&out);
        assert_eq!(r.u16(), Ok(0xBEEF));
        assert_eq!(r.u32(), Ok(0xDEAD_BEEF));
        assert_eq!(r.u64(), Ok(u64::MAX - 1));
        assert_eq!((r.at(), r.rest()), (14, &[7u8][..]));
        // A short read consumes nothing.
        assert_eq!(r.u16(), Err(Short));
        assert_eq!(r.take(usize::MAX), Err(Short));
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.u8(), Err(Short));
        assert!(r.rest().is_empty());
    }

    fn varint(v: u64) -> Vec<u8> {
        let mut out = Vec::new();
        put_varint(&mut out, v);
        out
    }

    /// 0, `u64::MAX`, and each side of every 7-bit boundary.
    fn edge_values() -> Vec<u64> {
        let mut vs = vec![0, 1, u64::MAX - 1, u64::MAX];
        for k in 1..=9 {
            vs.extend([(1u64 << (7 * k)) - 1, 1 << (7 * k), (1 << (7 * k)) + 1]);
        }
        vs
    }

    #[test]
    fn varints_round_trip_in_the_fewest_bytes() {
        assert_eq!(varint(0), [0x00]);
        assert_eq!(varint(127), [0x7F]);
        assert_eq!(varint(128), [0x80, 0x01]);
        assert_eq!(varint(300), [0xAC, 0x02]);
        let mut max = vec![0xFF; 9];
        max.push(0x01);
        assert_eq!(varint(u64::MAX), max);
        for v in edge_values() {
            let bytes = varint(v);
            let bits = 64 - v.leading_zeros() as usize;
            assert_eq!(bytes.len(), bits.div_ceil(7).max(1), "{v:#x}");
            assert_eq!(varint_len(v), bytes.len(), "{v:#x}");
            let mut tail = bytes.clone();
            tail.push(0xAA);
            let mut r = Reader::new(&tail);
            assert_eq!(r.varint(), Ok(v), "{v:#x}");
            assert_eq!(r.rest(), [0xAA], "{v:#x} read exactly its bytes");
        }
    }

    #[test]
    fn a_second_spelling_or_a_65th_bit_is_refused_and_consumes_nothing() {
        let refused: [&[u8]; 6] = [
            // 0 padded to two bytes, and 1 padded to three.
            &[0x80, 0x00],
            &[0x81, 0x80, 0x00],
            // u64::MAX spelled in 11 bytes, and 0 in 11.
            &[
                0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x81, 0x00,
            ],
            &[
                0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00,
            ],
            // A tenth byte above 1 carries bits 64 and up.
            &[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02],
            &[0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x7F],
        ];
        for bytes in refused {
            let mut r = Reader::new(bytes);
            assert_eq!(r.varint(), Err(VarintError::NonCanonical), "{bytes:x?}");
            assert_eq!(r.at(), 0, "{bytes:x?}");
        }
    }

    #[test]
    fn every_strict_prefix_of_a_varint_is_short() {
        for v in edge_values() {
            let bytes = varint(v);
            for len in 0..bytes.len() {
                let mut r = Reader::new(&bytes[..len]);
                assert_eq!(r.varint(), Err(VarintError::Short), "{v:#x} cut at {len}");
                assert_eq!(r.at(), 0);
            }
        }
    }
}
