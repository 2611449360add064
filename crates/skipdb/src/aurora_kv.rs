//! The Aurora variant: the persistent skip list over region checkpoints.
//!
//! "The Aurora system stores all MemTable data in a single mapping and
//! issues a checkpoint after each write" (§7.2). The MemTable is the same
//! list as [`MemSnapKv`](crate::MemSnapKv)'s, node pages and all; only
//! the persistence mechanism differs: every commit stops the world,
//! shadows the whole mapping, flushes, and collapses — and checkpoints of
//! the region serialize.

use memsnap::MsnapError;
use msnap_aurora::{Aurora, AuroraRegionId};
use msnap_disk::Disk;
use msnap_sim::{Meters, Nanos, Vt};

use crate::kv::{Kv, KvError, KvStats};
use crate::plist::PersistentSkipList;

/// The Aurora-checkpointed skip-list store. See the module docs.
#[derive(Debug)]
pub struct AuroraKv {
    aurora: Aurora,
    list: PersistentSkipList<AuroraRegionId>,
    /// Application threads Aurora must stop per checkpoint (12 in the
    /// paper's MixGraph runs).
    threads_running: u32,
    stats: KvStats,
}

impl AuroraKv {
    /// Creates a fresh store whose MemTable region holds
    /// `capacity_pages` nodes.
    pub fn format(disk: Disk, capacity_pages: u64, threads_running: u32, vt: &mut Vt) -> Self {
        let mut aurora = Aurora::format(disk);
        let region = aurora
            .create_region(vt, "memtable", capacity_pages)
            .expect("fresh store accepts the memtable region");
        let list = PersistentSkipList::format(&mut aurora, region, capacity_pages, vt);
        AuroraKv {
            aurora,
            list,
            threads_running,
            stats: KvStats::default(),
        }
    }

    /// Restores after a crash, rebuilding the volatile index by walking
    /// the persistent list.
    ///
    /// # Errors
    ///
    /// The store's error if `disk` holds no Aurora store, or
    /// `BadDescriptor` if the format's MemTable region is not durable.
    pub fn restore(disk: Disk, threads_running: u32, vt: &mut Vt) -> Result<Self, MsnapError> {
        let mut aurora = Aurora::restore(vt, disk).map_err(MsnapError::from)?;
        let region = aurora.region("memtable").ok_or(MsnapError::BadDescriptor)?;
        let capacity_pages = aurora.region_pages(region);
        let list = PersistentSkipList::restore(&mut aurora, region, capacity_pages, vt);
        Ok(AuroraKv {
            aurora,
            list,
            threads_running,
            stats: KvStats::default(),
        })
    }

    /// Simulates a power failure; pass the device to
    /// [`AuroraKv::restore`].
    pub fn crash(self, at: Nanos) -> Disk {
        self.aurora.crash(at)
    }

    /// The underlying Aurora instance (checkpoint reports).
    pub fn aurora(&self) -> &Aurora {
        &self.aurora
    }

    fn checkpoint(&mut self, vt: &mut Vt) {
        self.aurora
            .checkpoint_region_combined(vt, self.list.region, self.threads_running);
        self.stats.commits += 1;
    }
}

impl Kv for AuroraKv {
    fn put(&mut self, vt: &mut Vt, key: u64, value: &[u8]) -> Result<(), KvError> {
        self.list.insert_volatile(&mut self.aurora, vt, key, value);
        self.checkpoint(vt);
        Ok(())
    }

    fn multi_put(&mut self, vt: &mut Vt, pairs: &[(u64, Vec<u8>)]) -> Result<(), KvError> {
        for (key, value) in pairs {
            self.list.insert_volatile(&mut self.aurora, vt, *key, value);
        }
        self.checkpoint(vt);
        Ok(())
    }

    fn get(&mut self, vt: &mut Vt, key: u64) -> Option<Vec<u8>> {
        self.list.get(&mut self.aurora, vt, key)
    }

    fn seek(&mut self, vt: &mut Vt, key: u64, limit: usize) -> Vec<(u64, Vec<u8>)> {
        self.list.seek(&mut self.aurora, vt, key, limit)
    }

    fn len(&self) -> usize {
        self.list.index.len()
    }

    fn stats(&self) -> KvStats {
        self.stats
    }

    fn meters(&self) -> Meters {
        self.aurora.meters().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsnap::PAGE_SIZE;
    use msnap_disk::{crash_at_every_io, DiskConfig};

    fn fresh() -> (AuroraKv, Vt) {
        let mut vt = Vt::new(0);
        let kv = AuroraKv::format(Disk::new(DiskConfig::paper()), 4096, 12, &mut vt);
        (kv, vt)
    }

    #[test]
    fn put_get_round_trip() {
        let (mut kv, mut vt) = fresh();
        kv.put(&mut vt, 5, b"five").unwrap();
        kv.put(&mut vt, 3, b"three").unwrap();
        assert_eq!(kv.get(&mut vt, 5), Some(b"five".to_vec()));
        assert_eq!(kv.get(&mut vt, 3), Some(b"three".to_vec()));
        assert_eq!(kv.len(), 2);
    }

    /// A restored region keeps the pages it was created with, not only
    /// those written: a new key after the restore takes a fresh node.
    #[test]
    fn crash_restore_round_trips() {
        let (mut kv, mut vt) = fresh();
        for k in 0..50u64 {
            kv.put(&mut vt, k, &k.to_le_bytes()).unwrap();
        }
        let disk = kv.crash(vt.now());
        let mut vt2 = Vt::new(1);
        let mut kv2 = AuroraKv::restore(disk, 12, &mut vt2).unwrap();
        assert_eq!(kv2.len(), 50);
        kv2.put(&mut vt2, 1_000, b"after").unwrap();
        let region = kv2.aurora.region("memtable").unwrap();
        assert_eq!(kv2.aurora.region_pages(region), 4096);
        assert_eq!(kv2.get(&mut vt2, 1_000), Some(b"after".to_vec()));
        for k in 0..50u64 {
            assert_eq!(kv2.get(&mut vt2, k), Some(k.to_le_bytes().to_vec()));
        }
    }

    #[test]
    fn aurora_put_is_much_slower_than_memsnap_put() {
        // The §7.2 comparison: region checkpointing's fixed costs dwarf
        // the 2-page dirty set.
        let (mut kv, mut vt) = fresh();
        kv.put(&mut vt, 1, b"warm").unwrap();
        let t0 = vt.now();
        kv.put(&mut vt, 2, b"x").unwrap();
        let aurora_lat = (vt.now() - t0).as_us_f64();

        let mut vt2 = Vt::new(0);
        let mut ms = crate::MemSnapKv::format(Disk::new(DiskConfig::paper()), 4096, &mut vt2);
        ms.put(&mut vt2, 1, b"warm").unwrap();
        let t0 = vt2.now();
        ms.put(&mut vt2, 2, b"x").unwrap();
        let ms_lat = (vt2.now() - t0).as_us_f64();

        let ratio = aurora_lat / ms_lat;
        assert!(
            ratio > 2.0,
            "aurora {aurora_lat:.0} us vs memsnap {ms_lat:.0} us ({ratio:.1}x)"
        );
    }

    /// One list under both mechanisms: the same puts leave the same
    /// node pages, byte for byte, in an Aurora region and a MemSnap one —
    /// an update to a shorter value keeps the stale tail in both, one to
    /// a longer value overwrites it in both.
    #[test]
    fn node_pages_match_the_memsnap_variant_byte_for_byte() {
        use memsnap::MemSnap;
        use msnap_aurora::Aurora;
        const PAGES: u64 = 16;
        let puts: [(u64, &[u8]); 6] = [
            (5, b"five"),
            (3, b"three-three"),
            (9, b"nine"),
            (3, b"3"),
            (9, b"nine, now a good deal longer than before"),
            (1, b"one"),
        ];
        let (mut vt, mut vt2) = (Vt::new(0), Vt::new(0));
        let mut aurora = AuroraKv::format(Disk::new(DiskConfig::paper()), PAGES, 1, &mut vt);
        let mut memsnap = crate::MemSnapKv::format(Disk::new(DiskConfig::paper()), PAGES, &mut vt2);
        for (key, value) in puts {
            aurora.put(&mut vt, key, value).unwrap();
            memsnap.put(&mut vt2, key, value).unwrap();
        }
        let (disk, disk2) = (aurora.crash(vt.now()), memsnap.crash(vt2.now()));
        let mut aurora = Aurora::restore(&mut vt, disk).unwrap();
        let region = aurora.region("memtable").unwrap();
        let mut ms = MemSnap::restore(&mut vt2, disk2).unwrap();
        let space = ms.vm_mut().create_space();
        let mapped = ms.msnap_open(&mut vt2, space, "memtable", 0).unwrap();
        // The head and four nodes, then the region's untouched pages.
        let pages = aurora.region_pages(region);
        assert_eq!(pages, PAGES, "the region restores at its created size");
        for page in 0..pages {
            let (mut a, mut m) = ([0u8; PAGE_SIZE], [0u8; PAGE_SIZE]);
            let offset = page * PAGE_SIZE as u64;
            aurora.read(&mut vt, region, offset, &mut a);
            ms.read(&mut vt2, space, mapped.addr + offset, &mut m)
                .unwrap();
            assert!(a == m, "node page {page} differs between the two variants");
        }
    }

    /// The crash sweep (ROADMAP item 25): power-fail a format and eight
    /// puts — seven keys on their own node pages, then an update — at
    /// every IO boundary. A crash before the format (its MemTable region)
    /// is durable restores as a typed error; any other holds the state of
    /// a prefix of the puts that covers every put acknowledged by the
    /// crash, and takes a new key.
    #[test]
    fn a_crash_at_every_io_recovers_a_prefix_of_the_puts() {
        let puts: [(u64, &[u8]); 8] = [
            (50, b"fifty"),
            (10, b"ten"),
            (90, b"ninety"),
            (30, b"thirty"),
            (70, b"seventy"),
            (20, b"twenty"),
            (80, b"eighty"),
            (10, b"ten, now a longer value"),
        ];
        let run = |acks: &mut Vec<Nanos>| {
            let mut vt = Vt::new(0);
            let mut kv = AuroraKv::format(Disk::new(DiskConfig::paper()), 64, 12, &mut vt);
            for (key, value) in puts {
                kv.put(&mut vt, key, value).unwrap();
                acks.push(vt.now());
            }
            kv.aurora.into_disk()
        };
        let mut acks = Vec::new();
        run(&mut acks);
        let state = |n: usize| -> Vec<(u64, Vec<u8>)> {
            let map: std::collections::BTreeMap<u64, &[u8]> = puts[..n].iter().copied().collect();
            map.into_iter().map(|(k, v)| (k, v.to_vec())).collect()
        };
        let points = crash_at_every_io(
            || run(&mut Vec::new()),
            |disk, at| {
                let acked = acks.iter().filter(|&&t| t <= at).count();
                let mut vt = Vt::new(1);
                let mut kv = match AuroraKv::restore(disk, 12, &mut vt) {
                    Ok(kv) => kv,
                    Err(e) => {
                        assert_eq!(
                            acked, 0,
                            "restore at {at:?} failed ({e}) after {acked} acks"
                        );
                        // A failed restore reads as one, not as a write.
                        assert!(!e.to_string().contains("write"), "restore error: {e}");
                        return;
                    }
                };
                let got = kv.seek(&mut vt, 0, usize::MAX);
                let n = (0..=puts.len()).find(|&n| state(n) == got);
                let n = n.unwrap_or_else(|| panic!("crash at {at:?} recovered {got:?}"));
                assert!(
                    n >= acked,
                    "crash at {at:?}: {n} puts recovered, {acked} acked"
                );
                kv.put(&mut vt, 1_000, b"after").unwrap();
                assert_eq!(kv.get(&mut vt, 1_000), Some(b"after".to_vec()));
            },
        );
        assert!(points > 2 * puts.len(), "{points} crash points");
    }

    #[test]
    fn checkpoints_report_breakdown() {
        let (mut kv, mut vt) = fresh();
        kv.put(&mut vt, 1, b"v").unwrap();
        assert_eq!(kv.stats().commits, 1);
        assert_eq!(kv.meters().get("checkpoint").unwrap().count(), 1);
    }
}
