//! The one non-cryptographic hash every on-disk record, wire frame and
//! content digest in the workspace is built on: the FNV-1a mixing step
//! (`h = (h ^ x) * P`), absorbing little-endian **8-byte words in four
//! interleaved lanes**.
//!
//! [`fnv1a_extend`] runs each 32-byte block of its input through four
//! lanes, one word per lane. Every lane starts at the running hash, and
//! the lanes are folded back into it with the same step. The four
//! multiply chains are independent, so the CPU overlaps them, and a
//! 4 KiB page digests about three times faster than through one chain of
//! 512 dependent multiplies. Whatever is left after the last block is
//! absorbed serially: whole words, then single bytes. Inputs shorter than
//! 32 bytes never reach the lanes, and inputs shorter than eight bytes
//! hash exactly as published FNV-1a does. Longer inputs do not, because
//! the hash is an internal format (DESIGN.md §6l). The 32-bit function
//! is byte-wise FNV-1a throughout, and so is [`fnv1a_bytewise`], the hash
//! of short keys whose value is a *placement* (object name → store
//! shard): where an object lives must not depend on how fast pages are
//! digested.
//!
//! It lives in the substrate crate because every other crate already
//! depends on it; `msnap_store` re-exports the 64-bit functions, which
//! is where the record and stream code imports them from. The module
//! also holds the one splitmix64 mixer ([`splitmix64`]), which seeds and
//! scatters the simulation's deterministic choices.

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf29ce484222325;

/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x100000001b3;

/// Bytes the four lanes absorb per round: one 8-byte word each.
const BLOCK: usize = 32;

/// One FNV-1a step: mix `x` into `hash`.
#[inline(always)]
fn step(hash: u64, x: u64) -> u64 {
    (hash ^ x).wrapping_mul(FNV_PRIME)
}

fn word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("an 8-byte word"))
}

/// Extends a 64-bit hash with more bytes (for checksumming a payload
/// spread over several buffers).
///
/// The input's whole 32-byte blocks go through four lanes, each seeded
/// with `hash` and absorbing one word of every block; the lanes are then
/// folded into `hash` in order. The remaining whole words follow one at
/// a time, then the remaining bytes. A payload hashed in pieces therefore
/// equals the payload hashed whole only while **the whole payload is
/// shorter than 32 bytes** and every piece but the last is a whole number
/// of words: a reader must hash the same pieces as the writer did.
pub fn fnv1a_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    let mut blocks = bytes.chunks_exact(BLOCK);
    if bytes.len() >= BLOCK {
        let mut lanes = [hash; 4];
        for block in &mut blocks {
            for (lane, w) in lanes.iter_mut().zip(block.chunks_exact(8)) {
                *lane = step(*lane, word(w));
            }
        }
        hash = lanes.into_iter().fold(hash, step);
    }
    let mut words = blocks.remainder().chunks_exact(8);
    for w in &mut words {
        hash = step(hash, word(w));
    }
    absorb_bytes(hash, words.remainder())
}

fn absorb_bytes(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| step(h, u64::from(b)))
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

/// The splitmix64 output mix: scatters a 64-bit state so that adjacent
/// inputs give unrelated outputs. Callers step their own state (the
/// reference generator adds the golden gamma `0x9E37_79B9_7F4A_7C15`
/// before each mix).
pub fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
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
    fn splitmix64_matches_the_reference_generator() {
        // The first three outputs of the reference generator (state +=
        // gamma, then the mix) seeded with 0 and with 1234567.
        const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;
        let outputs = |seed: u64| {
            let steps = (1..=3u64).map(|i| seed.wrapping_add(GAMMA.wrapping_mul(i)));
            steps.map(splitmix64).collect::<Vec<_>>()
        };
        assert_eq!(
            outputs(0),
            [
                0xE220_A839_7B1D_CDAF,
                0x6E78_9E6A_A1B9_65F4,
                0x06C4_5D18_8009_454F
            ]
        );
        assert_eq!(
            outputs(1_234_567),
            [
                0x599E_D017_FB08_FC85,
                0x2C73_F084_5854_0FA5,
                0x883E_BCE5_A3F2_7C77
            ]
        );
        assert_eq!(splitmix64(0), 0);
    }

    /// `len` bytes of a fixed pattern that differs from word to word and
    /// from block to block.
    fn patterned(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 7 + i / 251) as u8).collect()
    }

    #[test]
    fn extends_incrementally() {
        // Pieces compose while the whole input is shorter than a block and
        // every piece but the last is a whole number of words ...
        assert_eq!(
            fnv1a_extend(fnv1a(b"hello wo"), b"rld"),
            fnv1a(b"hello world")
        );
        let short = b"thirty-one bytes, in two pieces";
        assert_eq!(short.len(), BLOCK - 1);
        for cut in (0..=short.len()).step_by(8) {
            assert_eq!(
                fnv1a_extend(fnv1a(&short[..cut]), &short[cut..]),
                fnv1a(short)
            );
        }
        // ... and stop composing once it reaches one, so a reader hashes
        // the pieces its writer hashed: a data extent's `payload_sum` is
        // folded page by page on both sides, never hashed whole.
        let whole = b"sixteen byte prefix, then a tail";
        assert_eq!(whole.len(), BLOCK);
        assert_ne!(
            fnv1a_extend(fnv1a(&whole[..16]), &whole[16..]),
            fnv1a(whole)
        );
        let extent = patterned(2 * 4096);
        let by_page = extent.chunks(4096).fold(FNV_OFFSET, fnv1a_extend);
        assert_eq!(
            by_page,
            fnv1a_extend(fnv1a(&extent[..4096]), &extent[4096..])
        );
        assert_ne!(by_page, fnv1a(&extent));
    }

    /// The lane schedule written out by index, one step at a time.
    fn scalar_reference(bytes: &[u8]) -> u64 {
        let step = |h: u64, x: u64| (h ^ x).wrapping_mul(FNV_PRIME);
        let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        let blocks = bytes.len() / 32;
        let mut h = FNV_OFFSET;
        if blocks > 0 {
            let mut lanes = [h; 4];
            for b in 0..blocks {
                for (i, lane) in lanes.iter_mut().enumerate() {
                    *lane = step(*lane, word(32 * b + 8 * i));
                }
            }
            for lane in lanes {
                h = step(h, lane);
            }
        }
        let mut at = 32 * blocks;
        while at + 8 <= bytes.len() {
            h = step(h, word(at));
            at += 8;
        }
        for &b in &bytes[at..] {
            h = step(h, u64::from(b));
        }
        h
    }

    #[test]
    fn lanes_match_the_scalar_reference() {
        let pinned = [
            (31, 0xac0a_4461_475b_5844),
            (32, 0x502b_a22f_6101_6541),
            (33, 0x3b8a_3781_d55f_b093),
            (64, 0x48c5_27fd_10e7_3cd1),
            (4096, 0x9e9a_0528_578c_48ad),
        ];
        for (len, want) in pinned {
            let input = patterned(len);
            assert_eq!(scalar_reference(&input), want, "reference, {len} bytes");
            assert_eq!(fnv1a(&input), want, "fnv1a, {len} bytes");
        }
        for len in 0..200 {
            let input = patterned(len);
            assert_eq!(fnv1a(&input), scalar_reference(&input), "{len} bytes");
        }
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
