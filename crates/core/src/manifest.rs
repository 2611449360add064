//! The region manifest: name → (fixed address, length) mapping persisted
//! in the object store so regions re-open at the same address after a
//! crash.

use msnap_vm::PAGE_SIZE;

/// One region's persistent metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ManifestEntry {
    pub name: String,
    pub addr: u64,
    pub pages: u64,
}

/// The manifest: serialized as a length-prefixed text table, one region
/// per line (`name addr pages`), padded to whole pages. A sharded store
/// additionally records its shard map as a `@shards N` directive line —
/// two tokens, so pre-shard decoders skip it silently, and a manifest
/// without the directive decodes as `shard_count = 1`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Manifest {
    pub entries: Vec<ManifestEntry>,
    /// Shard count of the store that wrote this manifest (the shard map
    /// is `msnap_store::shard_of_name`, so the count is the whole map).
    pub shard_count: usize,
}

impl Default for Manifest {
    fn default() -> Self {
        Manifest {
            entries: Vec::new(),
            shard_count: 1,
        }
    }
}

impl Manifest {
    pub fn encode_pages(&self) -> Vec<[u8; PAGE_SIZE]> {
        let mut body = String::new();
        if self.shard_count > 1 {
            body.push_str(&format!("@shards {}\n", self.shard_count));
        }
        for e in &self.entries {
            body.push_str(&format!("{} {:#x} {}\n", e.name, e.addr, e.pages));
        }
        let bytes = body.as_bytes();
        let mut framed = Vec::with_capacity(8 + bytes.len());
        framed.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
        framed.extend_from_slice(bytes);

        let mut pages = Vec::new();
        for chunk in framed.chunks(PAGE_SIZE) {
            let mut page = [0u8; PAGE_SIZE];
            page[..chunk.len()].copy_from_slice(chunk);
            pages.push(page);
        }
        if pages.is_empty() {
            pages.push([0u8; PAGE_SIZE]);
        }
        pages
    }

    /// Decodes from a page reader (`read(page_index, &mut buf)`).
    ///
    /// # Errors
    ///
    /// The reader's error for the first page it cannot deliver.
    pub fn decode<E>(
        mut read: impl FnMut(u64, &mut [u8; PAGE_SIZE]) -> Result<(), E>,
    ) -> Result<Manifest, E> {
        let mut first = [0u8; PAGE_SIZE];
        read(0, &mut first)?;
        let len = u64::from_le_bytes(first[..8].try_into().unwrap()) as usize;
        let mut framed = Vec::with_capacity(len);
        framed.extend_from_slice(&first[8..PAGE_SIZE.min(8 + len)]);
        let mut page = 1u64;
        while framed.len() < len {
            let mut buf = [0u8; PAGE_SIZE];
            read(page, &mut buf)?;
            let take = (len - framed.len()).min(PAGE_SIZE);
            framed.extend_from_slice(&buf[..take]);
            page += 1;
        }
        let body = String::from_utf8_lossy(&framed);
        let mut entries = Vec::new();
        let mut shard_count = 1;
        for line in body.lines() {
            let mut parts = line.split_whitespace();
            if let Some("@shards") = parts.next() {
                shard_count = parts
                    .next()
                    .and_then(|n| n.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or(1);
                continue;
            }
            let mut parts = line.split_whitespace();
            let (Some(name), Some(addr), Some(pages)) = (parts.next(), parts.next(), parts.next())
            else {
                continue;
            };
            let addr = u64::from_str_radix(addr.trim_start_matches("0x"), 16).unwrap_or(0);
            let pages = pages.parse().unwrap_or(0);
            entries.push(ManifestEntry {
                name: name.to_string(),
                addr,
                pages,
            });
        }
        Ok(Manifest {
            entries,
            shard_count,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(m: &Manifest) -> Manifest {
        let pages = m.encode_pages();
        Manifest::decode(|i, out| {
            *out = *pages.get(i as usize).unwrap_or(&[0u8; PAGE_SIZE]);
            Ok::<(), std::convert::Infallible>(())
        })
        .unwrap()
    }

    #[test]
    fn empty_manifest_round_trips() {
        let m = Manifest::default();
        assert_eq!(round_trip(&m), m);
    }

    #[test]
    fn entries_round_trip() {
        let m = Manifest {
            entries: vec![
                ManifestEntry {
                    name: "sqlite.db".into(),
                    addr: 0x7800_0000_0000,
                    pages: 1024,
                },
                ManifestEntry {
                    name: "pg/base/16384".into(),
                    addr: 0x7800_4000_0000,
                    pages: 64,
                },
            ],
            shard_count: 1,
        };
        assert_eq!(round_trip(&m), m);
    }

    #[test]
    fn shard_directive_round_trips_and_old_decoders_skip_it() {
        let m = Manifest {
            entries: vec![ManifestEntry {
                name: "t".into(),
                addr: 0x7800_0000_0000,
                pages: 4,
            }],
            shard_count: 8,
        };
        let decoded = round_trip(&m);
        assert_eq!(decoded, m);
        // The directive is a two-token line, which the entry parser
        // (what a pre-shard decoder runs) cannot mistake for a region.
        assert_eq!(decoded.entries.len(), 1);
        // A garbled count degrades to single-shard, never panics.
        let mut garbled = m.clone();
        garbled.shard_count = 1;
        assert_eq!(garbled.encode_pages().len(), 1);
    }

    #[test]
    fn large_manifest_spans_pages() {
        let entries: Vec<ManifestEntry> = (0..200)
            .map(|i| ManifestEntry {
                name: format!("region-with-a-rather-long-name-{i:05}"),
                addr: 0x7800_0000_0000 + i * 0x100_0000,
                pages: i + 1,
            })
            .collect();
        let m = Manifest {
            entries,
            shard_count: 1,
        };
        assert!(m.encode_pages().len() > 1);
        assert_eq!(round_trip(&m), m);
    }
}
