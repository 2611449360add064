//! The region carve: one MemSnap region laid out for the skiplist.
//!
//! ```text
//! page 0                  carve header (bytes 0..32, checked) +
//!                         structure meta area (bytes 64..)
//! pages 1 ..= writers     per-writer detectable-descriptor log pages
//! pages 1+writers ..      slot arena (nodes)
//! ```
//!
//! The carve is an ordinary region, reached through `msnap_open`,
//! `read`, `write` and `msnap_persist` only: μCheckpoints of descriptor
//! logs and arena pages ride the normal per-thread commit and
//! group-commit lanes, and the geometry is re-derived from the durable
//! header on reopen.

use memsnap::{MemSnap, MsnapError, PersistFlags, RegionHandle, RegionSel};
use msnap_sim::hash::fnv1a32;
use msnap_sim::wire::{put_u32, put_u64, Reader};
use msnap_sim::Vt;
use msnap_vm::{AsId, PAGE_SIZE};

/// Magic of a carve header ("PIXC").
const MAGIC: u32 = 0x5049_5843;
/// Header format version.
const VERSION: u32 = 1;
/// The header's kind word: a skiplist. It is checked like the version;
/// a carve of any other kind (2 was the retired hash table) is refused.
const KIND: u32 = 1;
/// Encoded header length; page 0 is reserved up to [`META_OFF`].
const HDR_LEN: usize = 32;
/// Byte offset of the structure-owned meta area within the header page.
const META_OFF: u64 = 64;

/// The [`HDR_LEN`]-byte carve header: magic, version, kind, writers,
/// arena pages, a reserved zero word, then the checksum of everything
/// before it.
fn encode_header(writers: u32, arena_pages: u64) -> Vec<u8> {
    let mut hdr = Vec::with_capacity(HDR_LEN);
    put_u32(&mut hdr, MAGIC);
    put_u32(&mut hdr, VERSION);
    put_u32(&mut hdr, KIND);
    put_u32(&mut hdr, writers);
    put_u64(&mut hdr, arena_pages);
    put_u32(&mut hdr, 0);
    let sum = fnv1a32(&hdr);
    put_u32(&mut hdr, sum);
    hdr
}

/// Decodes and validates a carve header: `(writers, arena_pages)`.
fn decode_header(hdr: &[u8]) -> Option<(u32, u64)> {
    let mut r = Reader::new(hdr);
    let (magic, version, kind) = (r.u32().ok()?, r.u32().ok()?, r.u32().ok()?);
    let (writers, arena_pages) = (r.u32().ok()?, r.u64().ok()?);
    r.u32().ok()?; // reserved
    let sealed = r.at();
    let sum = r.u32().ok()?;
    let valid = (magic, version, kind) == (MAGIC, VERSION, KIND);
    (valid && sum == fnv1a32(&hdr[..sealed])).then_some((writers, arena_pages))
}

/// One region carved into the skiplist's fixed layout (module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Carve {
    /// The backing region.
    pub region: RegionHandle,
    /// Writer slots carved out (one descriptor-log page each).
    pub(crate) writers: u32,
    /// Arena length in pages.
    pub(crate) arena_pages: u64,
}

impl Carve {
    /// Creates or reopens the carve `name`.
    ///
    /// On a fresh create the header is persisted synchronously before
    /// the call returns, so every later μCheckpoint of the carve finds
    /// the geometry already durable. On reopen (`0` geometry accepted,
    /// as `msnap_open` accepts length 0) the header is validated and the
    /// carve re-derived from it.
    ///
    /// # Errors
    ///
    /// [`MsnapError::BadDescriptor`] for zero `writers`/`arena_pages` on
    /// a fresh create, or for reopening a region that carries no valid
    /// skiplist carve header; [`MsnapError::LengthMismatch`] for
    /// non-zero geometry that contradicts the durable header; or a
    /// wrapped error from the open or the header persist.
    pub(crate) fn open(
        ms: &mut MemSnap,
        vt: &mut Vt,
        space: AsId,
        name: &str,
        mut arena_pages: u64,
        mut writers: u32,
    ) -> Result<Carve, MsnapError> {
        let region = if ms.region(name).is_some() {
            let region = ms.msnap_open(vt, space, name, 0)?;
            let mut hdr = [0u8; HDR_LEN];
            ms.read(vt, space, region.addr, &mut hdr)?;
            let (h_writers, h_arena) = decode_header(&hdr).ok_or(MsnapError::BadDescriptor)?;
            if (writers != 0 && writers != h_writers)
                || (arena_pages != 0 && arena_pages != h_arena)
            {
                return Err(MsnapError::LengthMismatch);
            }
            (writers, arena_pages) = (h_writers, h_arena);
            region
        } else {
            if writers == 0 || arena_pages == 0 {
                return Err(MsnapError::BadDescriptor);
            }
            let total = 1 + writers as u64 + arena_pages;
            let region = ms.msnap_open(vt, space, name, total)?;
            let (thread, hdr) = (vt.id(), encode_header(writers, arena_pages));
            ms.write(vt, space, thread, region.addr, &hdr)?;
            let sel = RegionSel::Region(region.md);
            ms.msnap_persist(vt, thread, sel, PersistFlags::sync())?;
            region
        };
        Ok(Carve {
            region,
            writers,
            arena_pages,
        })
    }

    /// Address of the structure meta area (header page, bytes 64..).
    pub(crate) fn meta_addr(&self) -> u64 {
        self.region.addr + META_OFF
    }

    /// Address of one writer's private descriptor-log page.
    ///
    /// # Panics
    ///
    /// Panics if `writer >= self.writers`.
    pub(crate) fn log_addr(&self, writer: u32) -> u64 {
        assert!(writer < self.writers, "writer {writer} of {}", self.writers);
        self.region.addr + (1 + writer as u64) * PAGE_SIZE as u64
    }

    /// Base address of the slot arena.
    pub(crate) fn arena_addr(&self) -> u64 {
        self.region.addr + (1 + self.writers as u64) * PAGE_SIZE as u64
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use msnap_disk::{Disk, DiskConfig};

    /// The 32-byte carve header, field by field and independent of the
    /// codec: magic "PIXC", version 1, kind, writers, arena pages, a zero
    /// word, then the FNV-1a of everything before it.
    pub(crate) fn fixed_header(kind: u32, writers: u32, arena_pages: u64) -> Vec<u8> {
        let mut want = Vec::new();
        for word in [0x5049_5843, 1, kind, writers] {
            want.extend_from_slice(&u32::to_le_bytes(word));
        }
        want.extend_from_slice(&arena_pages.to_le_bytes());
        want.extend_from_slice(&[0; 4]);
        want.extend_from_slice(&msnap_sim::hash::fnv1a32(&want).to_le_bytes());
        want
    }

    fn fresh() -> (MemSnap, Vt, AsId) {
        let mut ms = MemSnap::format(Disk::new(DiskConfig::paper()));
        let vt = Vt::new(0);
        let space = ms.vm_mut().create_space();
        (ms, vt, space)
    }

    #[test]
    fn carve_layout_and_reopen() {
        let (mut ms, mut vt, space) = fresh();
        let carve = Carve::open(&mut ms, &mut vt, space, "idx", 32, 4).unwrap();
        assert_eq!(carve.region.pages, 1 + 4 + 32);
        assert_eq!(carve.meta_addr(), carve.region.addr + 64);
        assert_eq!(carve.log_addr(0), carve.region.addr + PAGE_SIZE as u64);
        assert_eq!(carve.arena_addr(), carve.region.addr + 5 * PAGE_SIZE as u64);

        // The header is durable before any index write: crash immediately
        // and the reopen still re-derives the carve.
        let disk = ms.crash(vt.now());
        let mut vt2 = Vt::new(1);
        let mut ms2 = MemSnap::restore(&mut vt2, disk).unwrap();
        let space2 = ms2.vm_mut().create_space();
        let reopened = Carve::open(&mut ms2, &mut vt2, space2, "idx", 0, 0).unwrap();
        assert_eq!(reopened.writers, 4);
        assert_eq!(reopened.arena_pages, 32);
        assert_eq!(reopened.region.addr, carve.region.addr, "fixed address");
    }

    #[test]
    fn carve_rejects_mismatches() {
        let (mut ms, mut vt, space) = fresh();
        Carve::open(&mut ms, &mut vt, space, "idx", 32, 4).unwrap();
        ms.msnap_open(&mut vt, space, "plain", 8).unwrap();
        for (name, arena, writers, want) in [
            // Contradicting geometry.
            ("idx", 64, 4, MsnapError::LengthMismatch),
            ("idx", 32, 2, MsnapError::LengthMismatch),
            // Degenerate fresh geometry.
            ("idx2", 0, 4, MsnapError::BadDescriptor),
            // A plain region is not a carve.
            ("plain", 0, 0, MsnapError::BadDescriptor),
        ] {
            let got = Carve::open(&mut ms, &mut vt, space, name, arena, writers);
            assert_eq!(got.err(), Some(want), "{name} {arena} {writers}");
        }
    }

    #[test]
    fn carve_header_checksum_rejects_corruption() {
        let mut hdr = encode_header(8, 128);
        assert_eq!(decode_header(&hdr), Some((8, 128)));
        hdr[17] ^= 1;
        assert_eq!(decode_header(&hdr), None);
    }

    #[test]
    fn carve_header_bytes_are_fixed() {
        // Carves written by any build of this codec must keep opening.
        assert_eq!(fixed_header(KIND, 8, 128).len(), HDR_LEN);
        assert_eq!(encode_header(8, 128), fixed_header(KIND, 8, 128));
        assert_eq!(decode_header(&fixed_header(2, 8, 128)), None);
    }
}
