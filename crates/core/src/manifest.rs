//! The region manifest: name → (fixed address, length) of every region,
//! persisted in the object store so regions reopen at the same address
//! after a crash.
//!
//! One binary record, written with `msnap_sim::wire`'s `put_*` and read
//! with its [`Reader`]: a `u32` region count, then per region a `u16`
//! name length, the UTF-8 name, the `u64` address and the `u64` length
//! in pages. The record is framed by its `u64` byte length and spread
//! over as many whole pages as it needs. A body that does not decode
//! exactly — short, with bytes left over, a name that is not UTF-8, or a
//! frame longer than the object — is [`MsnapError::CorruptManifest`].

use msnap_sim::wire::{put_u16, put_u32, put_u64, Reader};
use msnap_store::StoreError;
use msnap_vm::PAGE_SIZE;

use crate::MsnapError;

/// One region's persistent metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ManifestEntry {
    pub name: String,
    pub addr: u64,
    pub pages: u64,
}

/// Encodes the manifest of `entries`, framed and zero-padded to whole
/// pages.
pub(crate) fn encode(entries: &[ManifestEntry]) -> Vec<u8> {
    let mut body = Vec::new();
    put_u32(&mut body, entries.len() as u32);
    for e in entries {
        // The store refuses names longer than its directory's NAME_LEN
        // before a region reaches the manifest.
        put_u16(&mut body, e.name.len() as u16);
        body.extend_from_slice(e.name.as_bytes());
        put_u64(&mut body, e.addr);
        put_u64(&mut body, e.pages);
    }
    let mut framed = Vec::with_capacity(8 + body.len());
    put_u64(&mut framed, body.len() as u64);
    framed.extend_from_slice(&body);
    framed.resize(framed.len().next_multiple_of(PAGE_SIZE), 0);
    framed
}

/// Decodes the manifest of a `len_pages`-page object from a page reader
/// (`read(page_index, &mut buf)`).
///
/// # Errors
///
/// The reader's error for the first page it cannot deliver, or
/// [`MsnapError::CorruptManifest`] for a record that does not decode.
pub(crate) fn decode(
    len_pages: u64,
    mut read: impl FnMut(u64, &mut [u8; PAGE_SIZE]) -> Result<(), StoreError>,
) -> Result<Vec<ManifestEntry>, MsnapError> {
    let mut page = [0u8; PAGE_SIZE];
    read(0, &mut page)?;
    let end = Reader::new(&page)
        .u64()
        .ok()
        .and_then(|len| len.checked_add(8))
        .filter(|&end| end <= len_pages.saturating_mul(PAGE_SIZE as u64))
        .ok_or(MsnapError::CorruptManifest)? as usize;
    let mut framed = page.to_vec();
    for index in 1..end.div_ceil(PAGE_SIZE) as u64 {
        read(index, &mut page)?;
        framed.extend_from_slice(&page);
    }
    decode_body(&framed[8..end]).ok_or(MsnapError::CorruptManifest)
}

/// The entries of an unframed record body, if it decodes exactly.
fn decode_body(body: &[u8]) -> Option<Vec<ManifestEntry>> {
    let mut r = Reader::new(body);
    let count = r.u32().ok()?;
    let entries = (0..count)
        .map(|_| {
            let name_len = r.u16().ok()?;
            let name = std::str::from_utf8(r.take(name_len.into()).ok()?).ok()?;
            Some(ManifestEntry {
                name: name.to_string(),
                addr: r.u64().ok()?,
                pages: r.u64().ok()?,
            })
        })
        .collect::<Option<Vec<_>>>()?;
    r.rest().is_empty().then_some(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode_bytes(bytes: &[u8]) -> Result<Vec<ManifestEntry>, MsnapError> {
        assert_eq!(bytes.len() % PAGE_SIZE, 0);
        decode((bytes.len() / PAGE_SIZE) as u64, |i, out| {
            out.copy_from_slice(&bytes[i as usize * PAGE_SIZE..][..PAGE_SIZE]);
            Ok(())
        })
    }

    fn round_trip(entries: &[ManifestEntry]) -> Vec<ManifestEntry> {
        decode_bytes(&encode(entries)).unwrap()
    }

    fn entry(name: &str, addr: u64, pages: u64) -> ManifestEntry {
        ManifestEntry {
            name: name.into(),
            addr,
            pages,
        }
    }

    #[test]
    fn empty_manifest_round_trips() {
        assert_eq!(encode(&[]).len(), PAGE_SIZE);
        assert_eq!(round_trip(&[]), []);
    }

    #[test]
    fn entries_round_trip() {
        let entries = [
            entry("sqlite.db", 0x7800_0000_0000, 1024),
            entry("pg/base/16384", 0x7800_4000_0000, 64),
        ];
        assert_eq!(round_trip(&entries), entries);
    }

    #[test]
    fn large_manifest_spans_pages() {
        let entries: Vec<ManifestEntry> = (0..200)
            .map(|i| {
                let name = format!("region-with-a-rather-long-name-{i:05}");
                entry(&name, 0x7800_0000_0000 + i * 0x100_0000, i + 1)
            })
            .collect();
        assert!(encode(&entries).len() > PAGE_SIZE);
        assert_eq!(round_trip(&entries), entries);
    }

    #[test]
    fn records_that_do_not_decode_exactly_are_corrupt() {
        let framed = |body: &[u8]| {
            let mut page = vec![0u8; PAGE_SIZE];
            page[..8].copy_from_slice(&(body.len() as u64).to_le_bytes());
            page[8..8 + body.len()].copy_from_slice(body);
            page
        };
        let good = encode(&[entry("t", 0x7800_0000_0000, 4)]);
        let body = &good[8..8 + 4 + 2 + 1 + 16];
        let with_len = |len: u64| [&len.to_le_bytes()[..], &good[8..]].concat();
        for (what, page) in [
            ("short", framed(&body[..body.len() - 1])),
            ("trailing bytes", framed(&[body, &[0]].concat())),
            (
                "non-UTF-8 name",
                framed(&[&[1, 0, 0, 0, 1, 0, 0xFF][..], &[0; 16]].concat()),
            ),
            ("a frame past the object", with_len(PAGE_SIZE as u64)),
            ("a length that overflows", with_len(u64::MAX)),
        ] {
            assert_eq!(
                decode_bytes(&page),
                Err(MsnapError::CorruptManifest),
                "{what}"
            );
        }
        assert_eq!(decode_bytes(&framed(body)).unwrap().len(), 1);
    }
}
