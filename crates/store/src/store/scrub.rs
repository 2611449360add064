//! The online scrubber and repair: verify committed media against its
//! digests, heal from a clean in-memory node, a retained snapshot or a
//! peer, and report what cannot be healed locally.

use super::*;

/// Cumulative statistics for the online scrubber
/// ([`ObjectStore::scrub`]). Pages are counted when their read is
/// verified, one slice after it was submitted, so `pages_verified` and
/// `passes` lag `io_spent` by one slice.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ScrubStats {
    /// Leaf pages whose data block was read back and verified against
    /// the digest the radix entry carries. A page whose block a commit
    /// freed or rewrote between its read and its verification is not
    /// counted.
    pub pages_verified: u64,
    /// Committed radix-node media images read back and verified.
    pub nodes_verified: u64,
    /// Digest mismatches found (data blocks and node media).
    pub corruptions_found: u64,
    /// Corruptions healed: pages re-materialized from a retained
    /// snapshot (or a peer via [`ObjectStore::repair_page`]) and
    /// resident nodes rewritten from their clean in-memory copies.
    pub repairs: u64,
    /// Corruptions with no clean local source: quarantined and reported
    /// through [`ObjectStore::unrepaired_pages`], awaiting a peer copy.
    pub unrepaired: u64,
    /// Device block reads the scrub spent — its IO budget consumption.
    pub io_spent: u64,
    /// Full passes over the radix forest completed: counted once the
    /// pass's last read is verified.
    pub passes: u64,
}

/// A corrupt page the scrubber quarantined but could not heal locally
/// (no retained snapshot holds an independent clean copy). Replication
/// drains these into `PageRepairRequest` messages; a peer's clean copy
/// lands through [`ObjectStore::repair_page`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnrepairedPage {
    /// Object owning the page.
    pub object: ObjectId,
    /// The corrupt page.
    pub page: u64,
    /// The quarantined block that failed verification.
    pub block: u64,
    /// The digest a clean copy must match, byte for byte.
    pub digest: u32,
    /// Object epoch at detection.
    pub epoch: Epoch,
}

/// A slice's data-block read, submitted and not yet verified: the pages
/// it covers as `(page, block, digest)`, the digests of the images the
/// device returned for them, in the same order, and the instant the read
/// lands. The next slice, or the pass wrap, verifies it (DESIGN.md §6g).
pub(super) struct ReadAhead {
    object: ObjectId,
    entries: Vec<(u64, u64, u32)>,
    sums: Vec<u32>,
    lands: Nanos,
}

impl StoreShard {
    /// One slice of [`crate::ObjectStore::scrub`] over this shard's forest,
    /// resuming at its cursor. Returns the statistics delta of the call.
    pub fn scrub(
        &mut self,
        vt: &mut Vt,
        disk: &mut Disk,
        budget: u64,
    ) -> Result<ScrubStats, StoreError> {
        let before = self.scrub_stats;
        let mut budget = budget;
        while budget > 0 {
            let (obj_idx, start_page) = self.scrub_cursor;
            if obj_idx >= self.objects.len() {
                // Pass complete once its last read is verified: wrap the
                // cursor and forget per-pass memos.
                if let Some(ahead) = self.scrub_ahead.take() {
                    self.verify_read(vt, disk, ahead)?;
                }
                self.scrub_stats.passes += 1;
                self.scrub_verified.clear();
                self.scrub_cursor = (0, 0);
                break;
            }
            let object = self.objects[obj_idx].entry.id;

            // Phase 1 (on entering an object): verify the media of its
            // resident committed nodes, dirty nodes' bases included, a
            // budget's worth per read.
            if start_page == 0 {
                loop {
                    let state = &self.objects[obj_idx];
                    let mut worklist: Vec<(u64, u32)> = state
                        .tree
                        .committed_nodes()
                        .into_iter()
                        .filter(|(b, _)| !self.scrub_verified.contains(b))
                        .collect();
                    if worklist.is_empty() {
                        break;
                    }
                    if budget == 0 {
                        // Out of budget mid-node-phase: resume here
                        // next call (`scrub_verified` holds progress).
                        return Ok(self.scrub_delta(before));
                    }
                    worklist.truncate(budget.min(BULK_READ_PAGES) as usize);
                    let images = readv_blocks(vt, disk, worklist.iter().map(|(b, _)| *b))?;
                    budget -= worklist.len() as u64;
                    self.scrub_stats.io_spent += worklist.len() as u64;
                    vt.charge(
                        Category::FileSystem,
                        costs::DIGEST_PAGE * worklist.len() as u64,
                    );
                    let mut corrupt = None;
                    for ((block, digest), image) in
                        worklist.into_iter().zip(images.chunks(BLOCK_SIZE))
                    {
                        if layout::digest32(image) == digest {
                            self.scrub_stats.nodes_verified += 1;
                            self.scrub_verified.insert(block);
                        } else if corrupt.is_none() {
                            corrupt = Some(block);
                        }
                    }
                    let Some(block) = corrupt else { continue };
                    // Rotted node media with a clean in-memory copy:
                    // quarantine the block and rewrite the path through a
                    // crash-atomic full-root flush, then rescan.
                    self.scrub_stats.corruptions_found += 1;
                    self.cache.invalidate(block);
                    self.quarantined.insert(block);
                    let resident = self.objects[obj_idx].tree.dirty_committed_node(block);
                    debug_assert!(resident, "committed_nodes listed a resident node");
                    self.flush_full_root(vt, disk, object)?;
                    self.scrub_stats.repairs += 1;
                }
            }

            // Phase 2: enumerate leaf entries from the cursor and submit
            // their data blocks as one vectored read without waiting for
            // it; then verify the previous slice's read, which has had a
            // slice's time to land. Hydration reads go straight to the
            // device, synchronously (and verify node digests on the way
            // down).
            let limit = budget.min(BULK_READ_PAGES) as usize;
            let mut hydration_io = 0u64;
            let entries = {
                let state = &mut self.objects[obj_idx];
                state.tree.entries_from(start_page, limit, &mut |b, out| {
                    hydration_io += 1;
                    disk.try_read_block(vt, b, out)
                })
            };
            self.scrub_stats.io_spent += hydration_io;
            budget = budget.saturating_sub(hydration_io);
            let mut entries = match entries {
                Ok(e) => e,
                Err(TreeError::Io(e)) => return Err(e.into()),
                Err(TreeError::CorruptNode { block }) => {
                    // An *unloaded* subtree's media rotted: there is no
                    // in-memory copy to heal from and the mapping under it
                    // is unreadable. Quarantine, count it as unrepaired
                    // metadata, and move to the next object.
                    self.scrub_stats.corruptions_found += 1;
                    self.scrub_stats.unrepaired += 1;
                    self.cache.invalidate(block);
                    self.quarantined.insert(block);
                    self.scrub_cursor = (obj_idx + 1, 0);
                    continue;
                }
            };
            // Hydration may have eaten into the budget: the entries past
            // it wait for the next call, which resumes at the first one.
            let full_chunk = entries.len() == limit;
            let take = entries.len().min(budget as usize);
            let resume_at = entries.get(take).map(|(page, _, _)| *page);
            entries.truncate(take);
            let (images, lands) = submit_readv(vt.now(), disk, entries.iter().map(|(_, b, _)| *b))?;
            budget -= take as u64;
            self.scrub_stats.io_spent += take as u64;
            self.scrub_cursor = match resume_at {
                Some(page) => (obj_idx, page),
                None if full_chunk => (obj_idx, entries.last().map_or(start_page, |e| e.0 + 1)),
                None => (obj_idx + 1, 0),
            };
            if entries.is_empty() {
                continue;
            }
            // The images are hashed as they are copied out; the caller
            // pays for each digest when it is checked.
            let sums = images.chunks(BLOCK_SIZE).map(layout::digest32).collect();
            let ahead = ReadAhead {
                object,
                entries,
                sums,
                lands,
            };
            if let Some(previous) = self.scrub_ahead.replace(ahead) {
                self.verify_read(vt, disk, previous)?;
            }
        }
        Ok(self.scrub_delta(before))
    }

    /// Verifies a read-ahead, waiting for it to land first. On an error
    /// the cursor goes back to the page that failed and the newer
    /// read-ahead is dropped, so the next call re-reads what this one
    /// left unverified.
    fn verify_read(
        &mut self,
        vt: &mut Vt,
        disk: &mut Disk,
        ahead: ReadAhead,
    ) -> Result<(), StoreError> {
        wait_io(vt, ahead.lands);
        for (entry, sum) in ahead.entries.into_iter().zip(ahead.sums) {
            if let Err(e) = self.verify_page(vt, disk, ahead.object, entry, sum) {
                self.scrub_cursor = (ahead.object.0 as usize, entry.0);
                self.scrub_ahead = None;
                return Err(e);
            }
        }
        Ok(())
    }

    /// Checks one read-ahead page, whose image digested to `sum`, and
    /// quarantines and repairs it if it rotted — while the tree still
    /// maps the page to the block and digest it was read for. Otherwise
    /// a commit freed or rewrote the block after the read was submitted:
    /// the image is stale, not rot, and the page's new block waits for
    /// the next pass.
    fn verify_page(
        &mut self,
        vt: &mut Vt,
        disk: &mut Disk,
        object: ObjectId,
        (page, block, digest): (u64, u64, u32),
        sum: u32,
    ) -> Result<(), StoreError> {
        let obj_idx = object.0 as usize;
        if self.objects[obj_idx].tree.resident_entry(page) != Some((block, digest)) {
            return Ok(());
        }
        vt.charge(Category::FileSystem, costs::DIGEST_PAGE);
        if sum == digest {
            self.scrub_stats.pages_verified += 1;
            return Ok(());
        }
        // Rotted page data: quarantine, then repair — newest retained
        // snapshot with an independent clean copy first, else hand the
        // page to replication.
        self.scrub_stats.corruptions_found += 1;
        self.cache.invalidate(block);
        self.quarantined.insert(block);
        if self.objects[obj_idx].overlay.contains_key(&page) {
            // The rotted block is only the base of a page whose newest
            // content the overlay holds: writing the overlay out heals it.
            self.flush_full_root(vt, disk, object)?;
            self.scrub_stats.repairs += 1;
            return Ok(());
        }
        match self.snapshot_clean_copy(vt, disk, object, page, digest, block)? {
            Some(data) => {
                self.repair_commit(vt, disk, object, page, &data)?;
                self.scrub_stats.repairs += 1;
            }
            None => {
                self.scrub_stats.unrepaired += 1;
                let epoch = self.objects[obj_idx].epoch;
                self.unrepaired.push(UnrepairedPage {
                    object,
                    page,
                    block,
                    digest,
                    epoch,
                });
            }
        }
        Ok(())
    }

    /// Cumulative scrub statistics of this shard (`passes` counts its own
    /// passes).
    pub fn scrub_stats(&self) -> ScrubStats {
        self.scrub_stats
    }

    /// This shard's corrupt pages with no clean local source.
    pub fn unrepaired_pages(&self) -> Vec<UnrepairedPage> {
        self.unrepaired.clone()
    }

    /// Blocks quarantined after failing digest verification. They are
    /// never recycled and never served again.
    pub fn quarantined_blocks(&self) -> usize {
        self.quarantined.len()
    }

    /// The component-wise difference of the cumulative stats since
    /// `before` — what one `scrub` call reports.
    fn scrub_delta(&self, before: ScrubStats) -> ScrubStats {
        let now = self.scrub_stats;
        ScrubStats {
            pages_verified: now.pages_verified - before.pages_verified,
            nodes_verified: now.nodes_verified - before.nodes_verified,
            corruptions_found: now.corruptions_found - before.corruptions_found,
            repairs: now.repairs - before.repairs,
            unrepaired: now.unrepaired - before.unrepaired,
            io_spent: now.io_spent - before.io_spent,
            passes: now.passes - before.passes,
        }
    }

    /// Searches retained snapshots, newest first, for an *independent*
    /// clean copy of `page` matching `digest`: a leaf entry whose block
    /// differs from the corrupt one (COW sharing means "same block" is
    /// the same rotted media, not redundancy) and whose bytes verify.
    fn snapshot_clean_copy(
        &mut self,
        vt: &mut Vt,
        disk: &mut Disk,
        object: ObjectId,
        page: u64,
        digest: u32,
        bad_block: u64,
    ) -> Result<Option<Vec<u8>>, StoreError> {
        let mut buf = [0u8; BLOCK_SIZE];
        for i in (0..self.snapshots.len()).rev() {
            if self.snapshots[i].entry.object != object {
                continue;
            }
            let entry = {
                let snap = &mut self.snapshots[i];
                match snap
                    .tree
                    .get_entry_or_load(page, &mut |b, out| disk.try_read_block(vt, b, out))
                {
                    Ok(e) => e,
                    Err(TreeError::Io(e)) => return Err(e.into()),
                    // This snapshot's own metadata rotted; try an older one.
                    Err(TreeError::CorruptNode { .. }) => continue,
                }
            };
            let Some((block, _)) = entry else { continue };
            if block == bad_block || self.quarantined.contains(&block) {
                continue;
            }
            self.scrub_stats.io_spent += 1;
            disk.try_read_block(vt, block, &mut buf)?;
            if layout::digest32(&buf) == digest {
                return Ok(Some(buf.to_vec()));
            }
        }
        Ok(None)
    }

    /// Commits one clean page image at the object's *current* epoch
    /// through the ordinary crash-atomic full-root path: the corrupt
    /// block is superseded (and stays quarantined), the root record is
    /// the single commit point, and its `flush_seq` makes recovery
    /// prefer the repaired root over the pre-repair one at the same
    /// epoch. `data` is a clean copy of the page's *tree block*; if the
    /// overlay holds newer content for the page, that is what the root
    /// writes out instead.
    fn repair_commit(
        &mut self,
        vt: &mut Vt,
        disk: &mut Disk,
        object: ObjectId,
        page: u64,
        data: &[u8],
    ) -> Result<CommitToken, StoreError> {
        self.hydrate_object_paths(vt, disk, object, std::iter::once(page))?;
        let state = &self.objects[object.0 as usize];
        let pages: &[(u64, &[u8])] = if state.overlay.contains_key(&page) {
            &[]
        } else {
            &[(page, data)]
        };
        let initiate = Root::Chain(costs::initiate(1));
        let token = self.full_commit(vt, disk, object, pages, state.epoch, initiate)?;
        self.stats.commits += 1;
        self.stats.pages_written += pages.len() as u64;
        Ok(token)
    }

    /// [`crate::ObjectStore::repair_page`] on this shard.
    pub fn repair_page(
        &mut self,
        vt: &mut Vt,
        disk: &mut Disk,
        object: ObjectId,
        page: u64,
        data: &[u8],
    ) -> Result<CommitToken, StoreError> {
        assert_eq!(data.len(), BLOCK_SIZE, "repair data must be one page");
        let state = self
            .objects
            .get_mut(object.0 as usize)
            .ok_or(StoreError::NotFound)?;
        let cache = &mut self.cache;
        let stats = &mut self.stats;
        let entry = state.tree.get_entry_or_load(page, &mut |b, buf| {
            read_block_cached(vt, disk, cache, stats, b, buf, true)
        })?;
        let Some((block, digest)) = entry else {
            return Err(StoreError::NotFound);
        };
        if layout::digest32(data) != digest {
            return Err(StoreError::RepairMismatch);
        }
        // Check the current media so repairing an already-clean page
        // stays an ordinary (harmless) rewrite without quarantining.
        let mut buf = [0u8; BLOCK_SIZE];
        disk.try_read_block(vt, block, &mut buf)?;
        let was_corrupt = layout::digest32(&buf) != digest;
        if was_corrupt {
            self.cache.invalidate(block);
            self.quarantined.insert(block);
        }
        let token = self.repair_commit(vt, disk, object, page, data)?;
        if was_corrupt {
            self.scrub_stats.repairs += 1;
        }
        Ok(token)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::tests::{open_shard, page_of, setup};
    use crate::ObjectStore;

    /// One object of `pages` pages, page `p` filled with `p`'s low byte,
    /// committed and settled.
    fn one_object(pages: u64) -> (Disk, StoreShard, Vt, ObjectId) {
        let (mut disk, mut shard, mut vt) = setup();
        let obj = shard.create(&mut vt, &mut disk, "o").unwrap();
        let images: Vec<Vec<u8>> = (0..pages).map(|p| page_of(p as u8)).collect();
        let iov: Vec<(u64, &[u8])> = (0..pages).zip(images.iter().map(|i| &i[..])).collect();
        let token = shard.persist(&mut vt, &mut disk, obj, &iov).unwrap();
        ObjectStore::wait(&mut vt, token);
        disk.settle();
        (disk, shard, vt, obj)
    }

    /// The block the object's tree maps `page` to.
    fn block_of(shard: &StoreShard, obj: ObjectId, page: u64) -> u64 {
        shard.objects[obj.0 as usize].tree.get(page).unwrap()
    }

    /// The pages the pending read-ahead covers.
    fn read_ahead_pages(shard: &StoreShard) -> Vec<u64> {
        let ahead = shard.scrub_ahead.as_ref().expect("a read is in flight");
        ahead.entries.iter().map(|(page, _, _)| *page).collect()
    }

    /// Commits a fresh page at a time until one lands on `block`: the
    /// page that now owns it.
    fn reuse(
        shard: &mut StoreShard,
        vt: &mut Vt,
        disk: &mut Disk,
        obj: ObjectId,
        block: u64,
    ) -> u64 {
        (1_000..1_064)
            .find(|&page| {
                let token = shard
                    .persist(vt, disk, obj, &[(page, &page_of(0xEE))])
                    .unwrap();
                ObjectStore::wait(vt, token);
                block_of(shard, obj, page) == block
            })
            .expect("the freed block is reallocated")
    }

    /// Scrubs until this shard's pass wraps; the pass's statistics.
    fn finish_pass(shard: &mut StoreShard, vt: &mut Vt, disk: &mut Disk) -> ScrubStats {
        let before = shard.scrub_stats();
        while shard.scrub_stats().passes == before.passes {
            shard.scrub(vt, disk, 64).unwrap();
        }
        shard.scrub_delta(before)
    }

    #[test]
    fn a_block_rewritten_under_a_read_ahead_is_neither_reported_nor_counted() {
        // Page 5's block rots, and a slice reads it. Before the next
        // slice verifies that read, a commit over page 5 frees the block
        // and a later commit reuses it. The rotted image is stale, not
        // rot: scrub must not report it, quarantine a block another page
        // owns now, or count the page as verified.
        let (mut disk, mut shard, mut vt, obj) = one_object(128);
        let old = block_of(&shard, obj, 5);
        disk.corrupt_bit(old, 40, 3);
        shard.scrub(&mut vt, &mut disk, 64).unwrap();
        let ahead = read_ahead_pages(&shard);
        assert!(ahead.contains(&5));

        let token = shard
            .persist(&mut vt, &mut disk, obj, &[(5, &page_of(0xA5))])
            .unwrap();
        ObjectStore::wait(&mut vt, token);
        // The old block is free once a root writes page 5's leaf.
        shard.flush_full_root(&mut vt, &mut disk, obj).unwrap();
        vt.wait_until(shard.last_commit(obj));
        let owner = reuse(&mut shard, &mut vt, &mut disk, obj, old);

        let slice = shard.scrub(&mut vt, &mut disk, 64).unwrap();
        assert_eq!(slice.pages_verified, ahead.len() as u64 - 1);
        assert_eq!(slice.corruptions_found, 0);
        assert!(shard.quarantined.is_empty());
        assert_eq!(
            finish_pass(&mut shard, &mut vt, &mut disk).corruptions_found,
            0
        );
        let pages = 128 + (owner - 1_000 + 1);
        let verified = shard.scrub_stats().pages_verified;
        assert_eq!(verified, pages - 1, "every page but page 5, once");

        // Rot on page 5's new block is found on the next pass.
        let new = block_of(&shard, obj, 5);
        disk.corrupt_bit(new, 7, 1);
        let pass = finish_pass(&mut shard, &mut vt, &mut disk);
        assert_eq!(pass.corruptions_found, 1);
        let reported = shard.unrepaired_pages();
        assert_eq!(
            (reported.len(), reported[0].page, reported[0].block),
            (1, 5, new)
        );
    }

    #[test]
    fn a_page_dropped_under_a_read_ahead_is_neither_reported_nor_counted() {
        // The store deletes pages by rebasing an object onto a snapshot
        // taken before they were written, as a replica discards divergent
        // history. Pages 5.. go under a pending read, page 5's rotted
        // block among them, and a later commit reuses that block.
        let (mut disk, mut shard, mut vt) = setup();
        let obj = shard.create(&mut vt, &mut disk, "o").unwrap();
        let images: Vec<Vec<u8>> = (0..128).map(|p| page_of(p as u8)).collect();
        let iov: Vec<(u64, &[u8])> = (0..128).zip(images.iter().map(|i| &i[..])).collect();
        let token = shard.persist(&mut vt, &mut disk, obj, &iov[..5]).unwrap();
        ObjectStore::wait(&mut vt, token);
        shard.snapshot_create(&mut vt, &mut disk, obj, "s").unwrap();
        let token = shard.persist(&mut vt, &mut disk, obj, &iov[5..]).unwrap();
        ObjectStore::wait(&mut vt, token);
        disk.settle();
        let old = block_of(&shard, obj, 5);
        disk.corrupt_bit(old, 40, 3);
        shard.scrub(&mut vt, &mut disk, 64).unwrap();
        let ahead = read_ahead_pages(&shard);
        assert!(ahead.contains(&5));

        let epoch = shard.epoch(obj) + 1;
        let token = shard
            .apply_image(&mut vt, &mut disk, obj, Some("s"), &[], epoch)
            .unwrap();
        ObjectStore::wait(&mut vt, token);
        vt.wait_until(shard.last_commit(obj));
        let owner = reuse(&mut shard, &mut vt, &mut disk, obj, old);

        // Of the pages read ahead, only the five the snapshot kept count.
        let pass = finish_pass(&mut shard, &mut vt, &mut disk);
        assert_eq!(pass.corruptions_found, 0);
        assert!(shard.quarantined.is_empty());
        assert_eq!(pass.pages_verified, 5 + (owner - 1_000 + 1));

        // Rot on the block's new owner is found on the next pass, and
        // reported against that page.
        disk.corrupt_bit(old, 7, 1);
        let pass = finish_pass(&mut shard, &mut vt, &mut disk);
        assert_eq!(pass.corruptions_found, 1);
        let reported = shard.unrepaired_pages();
        assert_eq!(
            (reported.len(), reported[0].page, reported[0].block),
            (1, owner, old)
        );
    }

    #[test]
    fn a_power_failure_with_a_read_in_flight_restores_a_clean_store() {
        // A snapshot holds a clean copy of page 5 and its live block
        // rots; a slice reads the rotted block, then a commit gives
        // page 5 new bytes. Verifying the stale image as rot would
        // "repair" page 5 back to the snapshot's bytes and lose that
        // write. The power fails while the next slice's read is in
        // flight; the restored store reads every write back and a full
        // pass finds nothing.
        let (mut disk, mut shard, mut vt, obj) = one_object(128);
        shard.snapshot_create(&mut vt, &mut disk, obj, "s").unwrap();
        let token = shard
            .persist(&mut vt, &mut disk, obj, &[(5, &page_of(5))])
            .unwrap();
        ObjectStore::wait(&mut vt, token);
        // Under a root, so that recovery does not replay the rotted block.
        shard.flush_full_root(&mut vt, &mut disk, obj).unwrap();
        vt.wait_until(shard.last_commit(obj));
        disk.settle();
        disk.corrupt_bit(block_of(&shard, obj, 5), 40, 3);
        shard.scrub(&mut vt, &mut disk, 64).unwrap();
        assert!(read_ahead_pages(&shard).contains(&5));
        let token = shard
            .persist(&mut vt, &mut disk, obj, &[(5, &page_of(0xA5))])
            .unwrap();
        ObjectStore::wait(&mut vt, token);

        let slice = shard.scrub(&mut vt, &mut disk, 64).unwrap();
        assert_eq!(slice.corruptions_found, 0);
        let (_, digest) = shard.objects[0].tree.get_entry(5).unwrap();
        assert_eq!(digest, layout::digest32(&page_of(0xA5)), "no stale repair");
        assert!(shard.scrub_ahead.as_ref().unwrap().lands > vt.now());
        disk.crash(vt.now());

        let mut vt = Vt::new(1);
        let mut shard = open_shard(&mut vt, &mut disk).unwrap();
        let mut buf = page_of(0);
        for page in 0..128 {
            let want = if page == 5 { 0xA5 } else { page as u8 };
            shard
                .read_page(&mut vt, &mut disk, obj, page, &mut buf)
                .unwrap();
            assert_eq!(buf, page_of(want), "page {page}");
        }
        let pass = finish_pass(&mut shard, &mut vt, &mut disk);
        assert_eq!((pass.pages_verified, pass.corruptions_found), (128, 0));
    }
}
