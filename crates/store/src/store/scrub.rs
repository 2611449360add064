//! The online scrubber and repair: verify committed media against its
//! digests, heal from a clean in-memory node, a retained snapshot or a
//! peer, and report what cannot be healed locally.

use super::*;

/// Cumulative statistics for the online scrubber
/// ([`ObjectStore::scrub`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ScrubStats {
    /// Leaf pages whose data block was read back and verified against
    /// the digest the radix entry carries.
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
    /// Full passes over the radix forest completed.
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
                // Pass complete: wrap the cursor and forget per-pass memos.
                self.scrub_stats.passes += 1;
                self.scrub_verified.clear();
                self.scrub_cursor = (0, 0);
                break;
            }
            let object = self.objects[obj_idx].entry.id;

            // Phase 1 (on entering an object): verify the media of its
            // resident committed nodes, a budget's worth per read.
            if start_page == 0 {
                loop {
                    let mut worklist: Vec<(u64, u32)> = self.objects[obj_idx]
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

            // Phase 2: enumerate leaf entries from the cursor, read their
            // data blocks in one vectored submission, and verify each
            // against its digest. Hydration reads go straight to the
            // device too (and verify node digests on the way down).
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
            let images = readv_blocks(vt, disk, entries.iter().map(|(_, b, _)| *b))?;
            budget -= take as u64;
            self.scrub_stats.io_spent += take as u64;
            let mut next_page = start_page;
            for ((page, block, digest), image) in entries.into_iter().zip(images.chunks(BLOCK_SIZE))
            {
                next_page = page + 1;
                if layout::digest32(image) == digest {
                    self.scrub_stats.pages_verified += 1;
                    continue;
                }
                // Rotted page data: quarantine, then repair — newest
                // retained snapshot with an independent clean copy first,
                // else hand the page to replication.
                self.scrub_stats.corruptions_found += 1;
                self.cache.invalidate(block);
                self.quarantined.insert(block);
                if self.objects[obj_idx].overlay.contains_key(&page) {
                    // The rotted block is only the base of a page whose
                    // newest content the overlay holds: writing the
                    // overlay out heals it.
                    self.flush_full_root(vt, disk, object)?;
                    self.scrub_stats.repairs += 1;
                    continue;
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
            }
            self.scrub_cursor = match resume_at {
                Some(page) => (obj_idx, page),
                None if full_chunk => (obj_idx, next_page),
                None => (obj_idx + 1, 0),
            };
        }
        Ok(self.scrub_delta(before))
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
