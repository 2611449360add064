//! The verified read path: one function under single-page, bulk, live
//! and snapshot reads, overlay first, every block checked against its
//! digest.

use super::*;

/// Which tree a verified read resolves pages through.
#[derive(Clone, Copy)]
enum ReadFrom {
    /// Index into `objects`: the object's current epoch.
    Live(usize),
    /// Index into `snapshots`: the pinned epoch.
    Snapshot(usize),
}

impl StoreShard {
    /// [`crate::ObjectStore::read_page_at`] on this shard.
    pub fn read_page_at(
        &mut self,
        vt: &mut Vt,
        disk: &mut Disk,
        name: &str,
        page: u64,
        out: &mut [u8],
    ) -> Result<(), StoreError> {
        let from = self.pinned(name)?;
        self.read_verified(vt, disk, from, page, out, true)
    }

    /// The read source naming the retained snapshot `name`.
    fn pinned(&self, name: &str) -> Result<ReadFrom, StoreError> {
        let idx = self.snap_by_name.get(name);
        idx.map(|&i| ReadFrom::Snapshot(i))
            .ok_or(StoreError::SnapshotNotFound)
    }

    /// [`crate::ObjectStore::read_pages_at`] on this shard.
    pub fn read_pages_at(
        &mut self,
        vt: &mut Vt,
        disk: &mut Disk,
        name: &str,
        first_page: u64,
        n: u64,
        sink: &mut dyn FnMut(u64, &[u8]),
    ) -> Result<(), StoreError> {
        let from = self.pinned(name)?;
        self.read_bulk(vt, disk, from, first_page, n, sink)
    }

    /// [`crate::ObjectStore::read_page`] on this shard.
    pub fn read_page(
        &mut self,
        vt: &mut Vt,
        disk: &mut Disk,
        object: ObjectId,
        page: u64,
        out: &mut [u8],
    ) -> Result<(), StoreError> {
        let from = self.live(object)?;
        self.read_verified(vt, disk, from, page, out, true)
    }

    /// The read source naming `object`'s current epoch.
    fn live(&self, object: ObjectId) -> Result<ReadFrom, StoreError> {
        let idx = object.0 as usize;
        if idx < self.objects.len() {
            Ok(ReadFrom::Live(idx))
        } else {
            Err(StoreError::NotFound)
        }
    }

    /// [`crate::ObjectStore::read_pages`] on this shard.
    pub fn read_pages(
        &mut self,
        vt: &mut Vt,
        disk: &mut Disk,
        object: ObjectId,
        first_page: u64,
        n: u64,
        sink: &mut dyn FnMut(u64, &[u8]),
    ) -> Result<(), StoreError> {
        let from = self.live(object)?;
        self.read_bulk(vt, disk, from, first_page, n, sink)
    }

    /// The bulk read behind [`StoreShard::read_pages`] and
    /// [`StoreShard::read_pages_at`]: one un-admitted verified read of
    /// `n` pages of `from`, delivered to `sink` up to the first page
    /// that does not verify.
    fn read_bulk(
        &mut self,
        vt: &mut Vt,
        disk: &mut Disk,
        from: ReadFrom,
        first_page: u64,
        n: u64,
        sink: &mut dyn FnMut(u64, &[u8]),
    ) -> Result<(), StoreError> {
        let mut buf = vec![0u8; n as usize * BLOCK_SIZE];
        let res = self.read_verified(vt, disk, from, first_page, &mut buf, false);
        let good = match res {
            Ok(()) => n,
            Err(StoreError::CorruptData { page, .. }) => page - first_page,
            Err(_) => 0,
        };
        for (page, data) in (first_page..first_page + good).zip(buf.chunks(BLOCK_SIZE)) {
            sink(page, data);
        }
        res
    }

    /// The store's one verified read: fills `out` (a whole number of
    /// blocks) with the pages starting at `first_page` of the tree `from`
    /// names. A live page the overlay holds is served from it — its
    /// newest content exists nowhere else — without touching the tree.
    /// Resolves every other entry (hydrating nodes through the cache),
    /// serves cache hits, issues the misses as one vectored device read,
    /// then checks every block against the digest its entry carries, in
    /// page order. `admit` inserts the blocks read from the device into
    /// the cache (the single-page readers' policy).
    ///
    /// On a mismatch the block is quarantined, its slot in `out` is
    /// zeroed and `CorruptData` names the page; slots before it hold
    /// verified bytes, slots after it are unspecified.
    fn read_verified(
        &mut self,
        vt: &mut Vt,
        disk: &mut Disk,
        from: ReadFrom,
        first_page: u64,
        out: &mut [u8],
        admit: bool,
    ) -> Result<(), StoreError> {
        assert_eq!(out.len() % BLOCK_SIZE, 0, "reads are whole pages");
        let (tree, overlay, epoch) = match from {
            ReadFrom::Live(i) => {
                let state = &mut self.objects[i];
                (&mut state.tree, Some(&state.overlay), state.epoch)
            }
            ReadFrom::Snapshot(i) => {
                let snap = &mut self.snapshots[i];
                (&mut snap.tree, None, snap.entry.epoch)
            }
        };
        let overlaid = |page: u64| overlay.and_then(|o| o.get(&page));
        let cache = &mut self.cache;
        let stats = &mut self.stats;
        let n = (out.len() / BLOCK_SIZE) as u64;
        let pages: Vec<u64> = (first_page..first_page + n)
            .filter(|&page| overlaid(page).is_none())
            .collect();
        tree.hydrate_paths(&pages, &mut node_reader(vt, disk, cache, stats))?;
        let entries: Vec<Option<(u64, u32)>> = (first_page..first_page + n)
            .map(|page| match overlaid(page) {
                Some(_) => None,
                None => tree.get_entry(page),
            })
            .collect();

        let mut mapped: Vec<(u64, &mut [u8])> = Vec::new();
        let slots = entries.iter().zip(out.chunks_mut(BLOCK_SIZE));
        for (page, (entry, slot)) in (first_page..).zip(slots) {
            match (entry, overlaid(page)) {
                (Some((block, _)), _) => mapped.push((*block, slot)),
                (None, Some((_, image))) => slot.copy_from_slice(image),
                (None, None) => slot.fill(0),
            }
        }
        read_cached(vt, disk, cache, stats, &mut mapped, admit)?;

        let mapped = entries.iter().zip(out.chunks_mut(BLOCK_SIZE));
        for (page, (entry, slot)) in (first_page..).zip(mapped) {
            let Some((block, digest)) = *entry else {
                continue;
            };
            if layout::digest32(slot) != digest {
                // Never serve rotted bytes: quarantine and surface.
                self.quarantine(block);
                slot.fill(0);
                return Err(StoreError::CorruptData { page, block, epoch });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::type_complexity)]
mod tests {
    use super::*;
    use crate::store::tests::{open_shard, page_of, setup};
    use crate::ObjectStore;
    use msnap_disk::DiskConfig;

    /// A shard holding one object with `pages` committed (page `p` filled
    /// with a byte derived from `p`), `per_commit` pages a commit; reopened
    /// cold if `reopen`. Returns the data block of every page too.
    fn build_object(
        pages: &[u64],
        per_commit: usize,
        reopen: bool,
    ) -> (Disk, StoreShard, Vt, ObjectId, Vec<u64>) {
        let (mut disk, mut shard, mut vt) = setup();
        let obj = shard.create(&mut vt, &mut disk, "o").unwrap();
        for chunk in pages.chunks(per_commit) {
            let data: Vec<(u64, Vec<u8>)> = chunk
                .iter()
                .map(|&p| (p, page_of((p % 251) as u8 + 1)))
                .collect();
            let refs: Vec<(u64, &[u8])> = data.iter().map(|(p, d)| (*p, &d[..])).collect();
            let token = shard.persist(&mut vt, &mut disk, obj, &refs).unwrap();
            ObjectStore::wait(&mut vt, token);
        }
        disk.settle();
        let blocks = pages
            .iter()
            .map(|&p| shard.objects[0].tree.get(p).expect("page was committed"))
            .collect();
        if reopen {
            vt = Vt::new(1);
            shard = open_shard(&mut vt, &mut disk).unwrap();
        }
        (disk, shard, vt, obj, blocks)
    }

    /// What a reader saw: every page delivered, then how it ended.
    type ReadOutcome = (Vec<(u64, Vec<u8>)>, Result<(), StoreError>);

    fn read_serially(
        shard: &mut StoreShard,
        vt: &mut Vt,
        disk: &mut Disk,
        obj: ObjectId,
        first: u64,
        n: u64,
    ) -> ReadOutcome {
        let mut got = Vec::new();
        let mut buf = page_of(0);
        for page in first..first + n {
            if let Err(e) = shard.read_page(vt, disk, obj, page, &mut buf) {
                return (got, Err(e));
            }
            got.push((page, buf.clone()));
        }
        (got, Ok(()))
    }

    fn read_in_bulk(
        shard: &mut StoreShard,
        vt: &mut Vt,
        disk: &mut Disk,
        obj: ObjectId,
        first: u64,
        n: u64,
    ) -> ReadOutcome {
        let mut got = Vec::new();
        let res = shard.read_pages(vt, disk, obj, first, n, &mut |page, data| {
            got.push((page, data.to_vec()))
        });
        (got, res)
    }

    #[test]
    fn single_page_miss_keeps_its_qd1_price_and_a_chunk_is_one_vectored_read() {
        let pages: Vec<u64> = (0..BULK_READ_PAGES).collect();
        let (mut disk, mut shard, mut vt, obj, blocks) = build_object(&pages, 64, false);
        let qd1 = disk.config().segment_latency(BLOCK_SIZE);

        let t0 = vt.now();
        let mut buf = page_of(0);
        shard
            .read_page(&mut vt, &mut disk, obj, 7, &mut buf)
            .unwrap();
        assert_eq!(vt.now() - t0, qd1, "a one-page miss is one QD1 read");
        assert_eq!(buf, page_of(8));
        shard.drop_cache();

        // The same chunk read straight off an idle twin device.
        let mut twin = Disk::new(DiskConfig::paper());
        let direct = {
            let mut vt = Vt::new(9);
            readv_blocks(&mut vt, &mut twin, blocks.iter().copied()).unwrap();
            vt.now()
        };
        let reads = disk.stats().reads();
        let submissions = disk.stats().read_submissions();
        let t0 = vt.now();
        let (got, res) = read_in_bulk(&mut shard, &mut vt, &mut disk, obj, 0, BULK_READ_PAGES);
        res.unwrap();
        assert_eq!(vt.now() - t0, direct - Nanos::ZERO);
        assert!(
            vt.now() - t0 < qd1 * BULK_READ_PAGES / 8,
            "deep queue beats QD1 8x"
        );
        assert_eq!(
            disk.stats().reads() - reads,
            BULK_READ_PAGES,
            "one block a page"
        );
        assert_eq!(disk.stats().read_submissions() - submissions, 1);
        assert_eq!(got.len() as u64, BULK_READ_PAGES);
        for (page, data) in got {
            assert_eq!(data, page_of((page % 251) as u8 + 1), "page {page}");
        }
    }

    #[test]
    fn bulk_reads_serve_cache_hits_but_admit_no_data_pages() {
        let pages: Vec<u64> = (0..32).collect();
        let (mut disk, mut shard, mut vt, obj, _) = build_object(&pages, 32, true);
        let mut buf = page_of(0);
        for page in [3, 4] {
            shard
                .read_page(&mut vt, &mut disk, obj, page, &mut buf)
                .unwrap();
        }
        let cached = shard.cached_blocks();
        let before = shard.stats();
        let (got, res) = read_in_bulk(&mut shard, &mut vt, &mut disk, obj, 0, 40);
        res.unwrap();
        let after = shard.stats();
        assert_eq!(after.cache_hits - before.cache_hits, 2, "pages 3 and 4");
        assert_eq!(after.cache_misses - before.cache_misses, 30);
        assert_eq!(after.cache_evictions, before.cache_evictions);
        assert_eq!(shard.cached_blocks(), cached, "no data page was admitted");
        assert_eq!(got.len(), 40, "holes arrive too");
        assert!(got[32..].iter().all(|(_, d)| d.iter().all(|&b| b == 0)));
    }

    #[test]
    fn bulk_read_of_a_missing_object_is_not_found() {
        let (mut disk, mut shard, mut vt) = setup();
        let res = shard.read_pages(&mut vt, &mut disk, ObjectId(3), 0, 4, &mut |_, _| {
            panic!("nothing to deliver")
        });
        assert_eq!(res, Err(StoreError::NotFound));
    }

    #[test]
    fn failed_bulk_read_delivers_nothing_and_is_retryable() {
        let pages: Vec<u64> = (0..16).collect();
        let (mut disk, mut shard, mut vt, obj, _) = build_object(&pages, 16, false);
        shard.drop_cache();
        // The sixth block of the vectored read fails, transiently.
        disk.set_read_fault_plan(msnap_disk::ReadFaultPlan::new().at(disk.read_seq() + 5, true));
        let (got, res) = read_in_bulk(&mut shard, &mut vt, &mut disk, obj, 0, 16);
        assert!(matches!(res, Err(StoreError::Io(e)) if e.is_transient()));
        assert!(got.is_empty());
        assert_eq!(shard.quarantined_blocks(), 0);
        let (got, res) = read_in_bulk(&mut shard, &mut vt, &mut disk, obj, 0, 16);
        res.unwrap();
        assert_eq!(got.len(), 16);
    }

    mod equivalence {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// `read_pages` ≡ a loop of `read_page`: same bytes in the
            /// same order, same first error, same quarantine set — for
            /// sparse and dense objects, resident and cold trees, warm,
            /// cold and tiny caches, and seeded rot under the data.
            #[test]
            fn bulk_read_equals_a_loop_of_single_page_reads(
                pages in prop::collection::btree_set(0u64..1_100, 1..48),
                per_commit in 1usize..20,
                reopen in any::<bool>(),
                cache_sel in 0usize..3,
                warm in prop::collection::vec(0u64..1_100, 0..24),
                rot in (any::<u64>(), 0usize..6),
                range in (0u64..1_100, 1u64..160),
            ) {
                let pages: Vec<u64> = pages.into_iter().collect();
                let cache_blocks = [0, 3, DEFAULT_CACHE_BLOCKS][cache_sel];
                let (first, n) = range;
                let run = |read: fn(&mut StoreShard, &mut Vt, &mut Disk, ObjectId, u64, u64) -> ReadOutcome| {
                    let (mut disk, mut shard, mut vt, obj, blocks) =
                        build_object(&pages, per_commit, reopen);
                    shard.cache = BlockCache::new(cache_blocks);
                    disk.seeded_rot(rot.0, &blocks, rot.1);
                    let mut buf = page_of(0);
                    for &page in &warm {
                        let _ = shard.read_page(&mut vt, &mut disk, obj, page, &mut buf);
                    }
                    let t0 = vt.now();
                    let outcome = read(&mut shard, &mut vt, &mut disk, obj, first, n);
                    (outcome, shard.quarantined, vt.now() - t0, disk.read_seq())
                };
                let (serial, serial_quarantine, serial_time, serial_reads) = run(read_serially);
                let (bulk, bulk_quarantine, bulk_time, bulk_reads) = run(read_in_bulk);
                prop_assert_eq!(&bulk.1, &serial.1, "first error");
                prop_assert_eq!(&bulk.0, &serial.0, "delivered pages");
                prop_assert_eq!(bulk_quarantine, serial_quarantine);
                // (A serial loop that stops at an early error has read
                // less than the bulk read that finds the same error.)
                if serial.1.is_ok() {
                    prop_assert!(bulk_time <= serial_time, "{bulk_time} > {serial_time}");
                    // Nothing evicted: the two read exactly the same blocks.
                    if cache_blocks != 3 {
                        prop_assert_eq!(bulk_reads, serial_reads);
                    }
                }
            }
        }
    }
}
