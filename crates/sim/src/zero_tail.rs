//! Buffers held without their zero tail.
//!
//! A disk block or a memory page is mostly zeroes past its last written
//! byte (a ring slot, a record block, a skip-list node page), so the
//! simulation keeps only the *held* prefix up to the last non-zero byte
//! and reads every byte past it as zero. [`trim`] finds that prefix and
//! [`read_at`] / [`padded`] put the zeroes back. The device's block map
//! (`msnap-disk`) and the VM's page frames (`msnap-vm`) both keep their
//! contents this way, through these functions only.

/// `data` without its trailing zero bytes.
///
/// The scan reads a word at a time: the last non-zero 8-byte word, then
/// its zero high bytes (a byte-wise scan of the device's mostly zero
/// blocks made `kv-mixgraph`'s set-up a third slower). A length that is
/// not a multiple of eight scans its last partial word byte by byte
/// first.
pub fn trim(data: &[u8]) -> &[u8] {
    let (words, rest) = data.as_chunks::<8>();
    let end = match rest.iter().rposition(|&b| b != 0) {
        Some(i) => 8 * words.len() + i + 1,
        None => words
            .iter()
            .rposition(|w| u64::from_le_bytes(*w) != 0)
            .map_or(0, |i| {
                8 * i + 8 - u64::from_le_bytes(words[i]).leading_zeros() as usize / 8
            }),
    };
    &data[..end]
}

/// Fills `out` with bytes `offset..offset + out.len()` of the buffer
/// whose held prefix is `held`: what `held` has there, then zeroes.
///
/// Every VM read comes through here, most of them a few bytes inside
/// the held prefix, so that case is one copy and the function inlines
/// into its callers.
#[inline]
pub fn read_at(held: &[u8], offset: usize, out: &mut [u8]) {
    if let Some(bytes) = held.get(offset..offset + out.len()) {
        out.copy_from_slice(bytes);
        return;
    }
    let have = held.get(offset..).unwrap_or_default();
    let (head, tail) = out.split_at_mut(have.len());
    head.copy_from_slice(have);
    tail.fill(0);
}

/// The first `len` bytes of the buffer whose held prefix is `held`, as an
/// owned image with its zero tail put back.
pub fn padded(held: &[u8], len: usize) -> Vec<u8> {
    let mut image = Vec::with_capacity(len);
    image.extend_from_slice(&held[..held.len().min(len)]);
    image.resize(len, 0);
    image
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time definition [`trim`] must agree with.
    fn trim_bytewise(data: &[u8]) -> &[u8] {
        let end = data.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1);
        &data[..end]
    }

    #[test]
    fn trim_agrees_with_a_bytewise_scan_at_every_length_and_last_byte() {
        for len in 0..40 {
            for last in 0..len {
                for byte in [1u8, 0x80, 0xff] {
                    let mut data = vec![0u8; len];
                    data[0] = 7;
                    data[last] = byte;
                    assert_eq!(trim(&data), trim_bytewise(&data), "len {len} last {last}");
                }
            }
            assert!(trim(&vec![0u8; len]).is_empty());
        }
    }

    #[test]
    fn read_at_and_padded_put_the_zero_tail_back() {
        let held = [1u8, 2, 3];
        let mut out = [9u8; 4];
        read_at(&held, 1, &mut out);
        assert_eq!(out, [2, 3, 0, 0]);
        read_at(&held, 5, &mut out);
        assert_eq!(out, [0; 4]);
        read_at(&held, 0, &mut out[..2]);
        assert_eq!(out[..2], [1, 2]);
        assert_eq!(padded(&held, 5), [1, 2, 3, 0, 0]);
        assert_eq!(padded(&held, 2), [1, 2]);
        assert_eq!(padded(&[], 3), [0, 0, 0]);
    }
}
