//! The one non-cryptographic hash every on-disk record, wire frame and
//! content digest in the workspace is built on: the FNV-1a mixing step
//! (`h = (h ^ x) * P`) absorbing **eight bytes at a time**.
//!
//! The 64-bit functions fold little-endian 8-byte words into the state
//! and finish a trailing fragment shorter than a word byte by byte.
//! Inputs shorter than eight bytes therefore hash exactly as published
//! FNV-1a does; longer inputs do not — the hash is an internal format,
//! and a page-sized digest costs an eighth of the multiplies. The
//! 32-bit function is byte-wise FNV-1a throughout, and so is
//! [`fnv1a_bytewise`], the hash of short keys whose value is a
//! *placement* (object name → store shard): where an object lives must
//! not depend on how fast pages are digested.
//!
//! It lives in the substrate crate because every other crate already
//! depends on it; `msnap_store` re-exports the 64-bit functions, which
//! is where the record and stream code imports them from.

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf29ce484222325;

/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x100000001b3;

/// Extends a 64-bit hash with more bytes (for checksumming a payload
/// spread over several buffers).
///
/// Whole 8-byte little-endian words are absorbed first, then the
/// remaining bytes one at a time, so a payload hashed in pieces equals
/// the payload hashed whole only when **every piece but the last is a
/// multiple of eight bytes long**.
pub fn fnv1a_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let w = u64::from_le_bytes(w.try_into().expect("chunks_exact(8) yields 8 bytes"));
        hash = (hash ^ w).wrapping_mul(FNV_PRIME);
    }
    absorb_bytes(hash, words.remainder())
}

fn absorb_bytes(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash = (hash ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Published FNV-1a 64-bit, one byte at a time whatever the length —
/// for short keys hashed to a placement (see the module docs).
pub fn fnv1a_bytewise(bytes: &[u8]) -> u64 {
    absorb_bytes(FNV_OFFSET, bytes)
}

/// The 64-bit hash of `bytes`, from the FNV-1a offset basis.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

/// FNV-1a 32-bit over `bytes`.
pub fn fnv1a32(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811C_9DC5;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_test_vectors() {
        assert_eq!(fnv1a(b""), FNV_OFFSET);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
        assert_eq!(fnv1a_bytewise(b"foobar"), fnv1a(b"foobar"));
        assert_eq!(fnv1a_bytewise(b"chongo was here!\n"), 0x46810940eff5f915);
        assert_ne!(fnv1a(b"chongo was here!\n"), 0x46810940eff5f915);
        assert_eq!(fnv1a32(b""), 0x811C_9DC5);
        assert_eq!(fnv1a32(b"a"), 0xe40c292c);
        assert_eq!(fnv1a32(b"foobar"), 0xbf9cf968);
    }

    #[test]
    fn extends_incrementally() {
        // Every piece but the last a whole number of words.
        assert_eq!(
            fnv1a_extend(fnv1a(b"hello wo"), b"rld"),
            fnv1a(b"hello world")
        );
        assert_eq!(
            fnv1a_extend(fnv1a(b"sixteen byte pre"), b"fix, then a tail"),
            fnv1a(b"sixteen byte prefix, then a tail")
        );
    }

    #[test]
    fn a_tail_shorter_than_a_word_is_absorbed_bytewise() {
        let word = u64::from_le_bytes(*b"hello wo");
        let mut h = (FNV_OFFSET ^ word).wrapping_mul(FNV_PRIME);
        for &b in b"rld" {
            h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        assert_eq!(fnv1a(b"hello world"), h);
    }
}
