//! The little-endian byte primitives every wire format in the workspace
//! is written and read with: `put_*` appenders, and a bounds-checked
//! [`Reader`] that answers a read past the end of its bytes with
//! [`Short`], never a panic — wire bytes are untrusted. Each format maps
//! `Short` onto its own error type.

/// A read ran past the end of the bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Short;

/// A cursor reading little-endian fields off the front of a byte slice.
/// A read that would run past the end fails with [`Short`] and consumes
/// nothing.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

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
    pub fn rest(&self) -> &'a [u8] {
        &self.buf[self.at..]
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], Short> {
        let s = self.rest().get(..n).ok_or(Short)?;
        self.at += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], Short> {
        Ok(self.take(N)?.try_into().expect("take(N) yields N bytes"))
    }

    /// The next byte.
    pub fn u8(&mut self) -> Result<u8, Short> {
        Ok(self.take(1)?[0])
    }

    /// The next little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, Short> {
        self.array().map(u16::from_le_bytes)
    }

    /// The next little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, Short> {
        self.array().map(u32::from_le_bytes)
    }

    /// The next little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, Short> {
        self.array().map(u64::from_le_bytes)
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
}
