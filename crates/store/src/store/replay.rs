//! Recovery: open a shard's slab, then for each object adopt its newest
//! full root and replay the record suffix above it through
//! `apply_record`, the commit path's own apply.

use super::*;

/// The newest valid full root in an object's two root slots, with the
/// tag a record extending it carries. `flush_seq` breaks ties when both
/// slots hold the *same* epoch: a repair commit rewrites the root at the
/// current epoch, and recovery must adopt the repaired (higher-sequence)
/// one.
fn newest_root(vt: &mut Vt, root_slots: &[u8], object: ObjectId) -> Option<(RootRecord, u32)> {
    let mut newest: Option<(RootRecord, u32)> = None;
    for block in root_slots.chunks(BLOCK_SIZE) {
        vt.charge(Category::FileSystem, costs::ROOT_PARSE);
        if let Some(rec) = RootRecord::from_block(block, object) {
            if newest.is_none_or(|(b, _)| {
                rec.epoch > b.epoch || (rec.epoch == b.epoch && rec.flush_seq > b.flush_seq)
            }) {
                newest = Some((rec, layout::tip_tag(block)));
            }
        }
    }
    newest
}

/// A candidate record, with the tag a record extending it carries.
type Tagged = (DeltaRecord, u32);

/// The candidate records of `object` above epoch `above`, in order of
/// their first epoch: the valid records of its delta ring, then its
/// `groups` from the batch ring (a batched commit is a delta whose record
/// happens to be shared with other objects). Candidates of one first
/// epoch keep that order.
fn record_suffix(
    vt: &mut Vt,
    delta_slots: &[u8],
    groups: Vec<Tagged>,
    object: ObjectId,
    above: Epoch,
) -> Vec<Tagged> {
    let mut records = Vec::new();
    for block in delta_slots.chunks(BLOCK_SIZE) {
        vt.charge(Category::FileSystem, costs::ROOT_PARSE);
        let tip = layout::tip_tag(block);
        records.extend(DeltaRecord::from_block(block, object).map(|r| (r, tip)));
    }
    records.extend(groups);
    records.retain(|(r, _)| r.epoch > above);
    records.sort_by_key(|(r, _)| r.first_epoch());
    records
}

/// The base blocks [`StoreShard::prefetch_bases`] read for one object's
/// chain: sorted block numbers, their images back to back.
struct Prefetch {
    blocks: Vec<u64>,
    images: Vec<u8>,
}

impl Prefetch {
    fn get(&self, block: u64) -> Option<&[u8]> {
        let at = self.blocks.binary_search(&block).ok()? * BLOCK_SIZE;
        Some(&self.images[at..at + BLOCK_SIZE])
    }
}

/// What replay does with one candidate record.
enum Candidate {
    /// It extends the chain: land it with these patched pages, one per
    /// inline pair.
    Verified(Vec<Box<[u8]>>),
    /// It does not extend the chain (it overlaps it, carries another
    /// history's tag, or does not verify); a later candidate may.
    Rejected,
    /// The chain ends before it.
    ChainEnds,
}

impl StoreShard {
    /// Opens one shard from its metadata slab at `layout` on a (possibly
    /// crashed) device: adopt each object's newest valid full root, replay
    /// consecutive delta records on top, and rebuild the allocator past
    /// every reachable block.
    ///
    /// Recovery IO is **O(dirty set), not O(object size)**: trees are
    /// adopted as unloaded wrappers around their committed root blocks
    /// (hydrated on first touch), and the allocator frontier comes from
    /// the root records' persisted `high_water` — the bump frontier is
    /// monotone, so the newest durable root of each object covers every
    /// block any earlier commit allocated — raised past each replayed
    /// delta's data blocks. Blocks of *unreplayed* (torn) deltas are
    /// unreferenced garbage and safe to reuse. Retained snapshots are
    /// adopted unloaded too; their pin sets materialize on demand before
    /// the store frees its first block (`ensure_pins`).
    ///
    /// The recovered allocator is range-bounded at its own frontier: it
    /// hands out nothing until the wrapper re-grants the tail of the
    /// frontier's extent from the broker state it recovers across all
    /// shards.
    ///
    /// A line-grain record replays by patching its lines, in epoch order,
    /// over the page's overlay image, else its tree block, else zeroes,
    /// and is accepted only if every patched page matches its pair digest
    /// — otherwise it is a torn candidate exactly as a `payload_sum`
    /// mismatch is (a rotted base block under it truncates the chain
    /// there; the stale bytes are never served).
    ///
    /// Every read is fallible, and the fixed ranges — the slab, each
    /// object's root and delta slots, each replayed delta record's data
    /// extent — are one vectored read apiece, and the base blocks of an
    /// object's whole chain of line-grain pairs are fetched together
    /// before the replay (a base a page-grain pair moved mid-chain is
    /// read when its record replays).
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFormatted`] if the slab magic is missing;
    /// [`StoreError::CorruptMeta`] naming a directory block that holds an
    /// entry that does not decode or breaks the dense id sequence;
    /// [`StoreError::Io`] if a device read fails (nothing is built; the
    /// device is untouched and the open can simply be retried).
    pub(crate) fn open_at(
        vt: &mut Vt,
        disk: &mut Disk,
        layout: ShardLayout,
    ) -> Result<Self, StoreError> {
        // The slab — magic block, directory, batch ring, snapshot catalog
        // — is one contiguous range: one vectored read.
        let slab = readv_blocks(vt, disk, layout.base..layout.base + SHARD_SLAB_BLOCKS)?;
        let slab_blocks = |start: u64, count: u64| {
            let at = (start - layout.base) as usize * BLOCK_SIZE;
            slab[at..at + count as usize * BLOCK_SIZE].chunks(BLOCK_SIZE)
        };
        if !layout::is_slab_head(&slab[..BLOCK_SIZE]) {
            return Err(StoreError::NotFormatted);
        }
        let mut shard = StoreShard::new(layout);

        // Scan the batch ring once: rebuild the next sequence number and
        // the slot occupancy, and bucket each record's groups by object so
        // the per-object replay below can fold them into its delta chain.
        let mut batch_groups: HashMap<u32, Vec<Tagged>> = HashMap::new();
        for (slot, block) in slab_blocks(layout.batch_ring_start(), BATCH_SLOTS).enumerate() {
            vt.charge(Category::FileSystem, costs::ROOT_PARSE);
            if let Some(rec) = BatchRecord::from_block(block) {
                shard.batch_seq = shard.batch_seq.max(rec.seq + 1);
                shard.batch_ring[slot] = rec.groups.iter().map(|g| (g.object, g.epoch)).collect();
                let tip = layout::tip_tag(block);
                for g in rec.groups {
                    batch_groups.entry(g.object.0).or_default().push((g, tip));
                }
            }
        }

        // Directory ids are dense: an entry that does not decode, or is
        // not the next id, is a rotted directory block.
        let mut high_water = layout.data_floor;
        let dir = (layout.dir_start()..).zip(slab_blocks(layout.dir_start(), DIR_BLOCKS));
        for (block, image) in dir {
            for bytes in image.chunks(DIR_ENTRY_LEN) {
                let entry = match DirEntry::decode(bytes) {
                    Ok(None) => continue,
                    Ok(Some(entry)) if entry.id.0 as usize == shard.objects.len() => entry,
                    _ => return Err(StoreError::CorruptMeta { block }),
                };
                let groups = batch_groups.remove(&entry.id.0).unwrap_or_default();
                high_water = high_water.max(shard.replay_object(vt, disk, entry, groups)?);
            }
        }

        // Snapshot catalog: adopt the valid slot with the highest seq (a
        // torn catalog write leaves the previous catalog intact). Trees
        // are adopted unloaded — pin sets materialize on demand (see
        // `ensure_pins`) before anything is freed. Pinned blocks need no
        // frontier adjustment here: every snapshot block was allocated at
        // or before its object's root flush, so the newest durable roots'
        // monotone `high_water` already covers them.
        let mut catalog: Option<SnapCatalog> = None;
        for block in slab_blocks(layout.snap_catalog_start(), SNAP_CATALOG_SLOTS) {
            vt.charge(Category::FileSystem, costs::ROOT_PARSE);
            if let Some(cat) = SnapCatalog::from_block(block) {
                if catalog.as_ref().is_none_or(|c| cat.seq > c.seq) {
                    catalog = Some(cat);
                }
            }
        }
        let catalog = catalog.unwrap_or_default();
        if !catalog.entries.is_empty() || catalog.seq != 0 {
            shard.snap_seq = catalog.seq + 1;
        }
        for entry in catalog.entries {
            if entry.object.0 as usize >= shard.objects.len() {
                continue; // catalog can never outrun the directory
            }
            high_water = high_water.max(entry.tree_root + 1);
            let tree = RadixTree::from_committed_digest(
                entry.tree_root,
                entry.root_digest,
                entry.len_pages,
            );
            shard
                .snap_by_name
                .insert(entry.name.clone(), shard.snapshots.len());
            shard.snapshots.push(SnapState {
                entry,
                tree,
                blocks: Vec::new(),
                pinned: false,
            });
        }
        shard.pins_ready = shard.snapshots.is_empty();
        shard.alloc = BlockAllocator::bounded(high_water, high_water);
        Ok(shard)
    }

    /// Recovers one object: adopt its newest valid full root, then replay
    /// the consecutive suffix of its records above it — its own delta
    /// ring plus its `groups` from the batch ring — through
    /// [`StoreShard::apply_record`], the rule the commit path lands them
    /// with. Returns the allocator frontier the recovered state reaches.
    fn replay_object(
        &mut self,
        vt: &mut Vt,
        disk: &mut Disk,
        entry: DirEntry,
        groups: Vec<Tagged>,
    ) -> Result<u64, StoreError> {
        // The object's metadata — two root slots, then the delta ring —
        // is one contiguous range: one vectored read.
        let meta_end = entry.meta_base + OBJECT_META_BLOCKS;
        let meta = readv_blocks(vt, disk, entry.meta_base..meta_end)?;
        let (root_slots, delta_slots) = meta.split_at(2 * BLOCK_SIZE);
        let root = newest_root(vt, root_slots, entry.id);
        let records = record_suffix(
            vt,
            delta_slots,
            groups,
            entry.id,
            root.map_or(0, |(r, _)| r.epoch),
        );
        // The newest durable root's `high_water` is the allocator frontier
        // as of that commit; the frontier is monotone, so it covers every
        // data and node block any earlier commit of any object allocated.
        // No tree walk needed.
        let mut high_water = root.map_or(meta_end, |(r, _)| {
            meta_end.max(r.high_water).max(r.tree_root + 1)
        });
        let object = entry.id;
        self.adopt_object(entry, root);
        let bases = self.prefetch_bases(vt, disk, object, records.iter().map(|(r, _)| r))?;
        for (record, tip) in &records {
            match self.check_record(vt, disk, record, &bases)? {
                Candidate::Verified(patched) => {
                    // The superseded blocks of a replayed record are
                    // garbage below the recovered frontier.
                    self.apply_record(record, &mut patched.into_iter());
                    self.objects[object.0 as usize].tip = *tip;
                    high_water = record.data_blocks().fold(high_water, |h, b| h.max(b + 1));
                }
                Candidate::Rejected => {}
                Candidate::ChainEnds => break,
            }
        }
        Ok(high_water)
    }

    /// Appends the object `entry` names to the directory, at the epoch and
    /// tip of its full root `root` (an empty tree at epoch 0 without one).
    fn adopt_object(&mut self, entry: DirEntry, root: Option<(RootRecord, u32)>) {
        self.by_name.insert(entry.name.clone(), entry.id);
        let mut state = ObjectState::new(entry);
        if let Some((r, tip)) = root {
            state.tree = RadixTree::from_committed_digest(r.tree_root, r.root_digest, r.len_pages);
            state.epoch = r.epoch;
            state.full_count = r.flush_seq;
            state.tip = tip;
        }
        self.objects.push(state);
    }

    /// Reads the bases of an object's whole chain once: hydrates the path
    /// of every page any candidate record names, then fetches the blocks
    /// its line-grain pairs would patch — as the root maps them — in
    /// vectored reads of up to [`BULK_READ_PAGES`], instead of one short
    /// read per record. A rotted node is left for the replay to meet at
    /// the record it truncates.
    fn prefetch_bases<'a>(
        &mut self,
        vt: &mut Vt,
        disk: &mut Disk,
        object: ObjectId,
        records: impl Iterator<Item = &'a DeltaRecord>,
    ) -> Result<Prefetch, StoreError> {
        let tree = &mut self.objects[object.0 as usize].tree;
        let mut blocks: Vec<u64> = Vec::new();
        for (page, word) in records.flat_map(|d| &d.pairs) {
            match tree.hydrate_path(*page, &mut |b, out| disk.try_readv(vt, &mut [(b, out)])) {
                Ok(()) if layout::unpack_entry(*word).0 == INLINE_BLOCK => {
                    blocks.extend(tree.get(*page));
                }
                Ok(()) | Err(TreeError::CorruptNode { .. }) => {}
                Err(TreeError::Io(e)) => return Err(e.into()),
            }
        }
        blocks.sort_unstable();
        blocks.dedup();
        let mut images = Vec::with_capacity(blocks.len() * BLOCK_SIZE);
        for chunk in blocks.chunks(BULK_READ_PAGES as usize) {
            images.extend(readv_blocks(vt, disk, chunk.iter().copied())?);
        }
        Ok(Prefetch { blocks, images })
    }

    /// Decides whether `record` extends its object's recovered chain.
    ///
    /// Its data extent is re-read and checked against the record's
    /// `payload_sum`: a record can be durable while its data was torn or
    /// bit-flipped (the device "lied"), and the checksum is what keeps
    /// such a commit — and everything after it — out of the recovered
    /// prefix. A *stale* record — a truncated future whose slot was not
    /// yet reused, a duplicate in the batch ring, or a single record in a
    /// slot a folded record skipped — can start at the live chain's next
    /// epoch or below it, so a candidate that fails is only
    /// [`Candidate::Rejected`] and the next one is tried; one that starts
    /// at or below the tip overlaps the chain and is rejected outright,
    /// and every one must carry the tip's tag (DESIGN.md §6m).
    /// Line-grain pairs patch their lines over the overlay's image, else
    /// the tree block (from `bases`, or read here if a page-grain pair
    /// moved it), else zeroes, and each patched page must match its pair
    /// digest. Nothing is applied here.
    fn check_record(
        &mut self,
        vt: &mut Vt,
        disk: &mut Disk,
        record: &DeltaRecord,
        bases: &Prefetch,
    ) -> Result<Candidate, StoreError> {
        let state = &mut self.objects[record.object.0 as usize];
        if record.first_epoch() <= state.epoch {
            return Ok(Candidate::Rejected); // stale: it overlaps the chain
        }
        if record.first_epoch() != state.epoch + 1 {
            return Ok(Candidate::ChainEnds); // past the chain tip
        }
        if record.tag != state.tip {
            return Ok(Candidate::Rejected); // it extends another history
        }
        let Some(inline_lines) = record.inline_lines() else {
            return Ok(Candidate::Rejected); // an inline pair without its lines
        };
        let extent = readv_blocks(vt, disk, record.data_blocks())?;
        let sum = extent
            .chunks(BLOCK_SIZE)
            .fold(layout::FNV_OFFSET, layout::fnv1a_extend);
        if sum != record.payload_sum {
            return Ok(Candidate::Rejected); // torn
        }
        // Replay hydrates only the touched paths. Hydration verifies node
        // digests, so a rotted node under the root truncates the chain
        // here (crash-atomically, before any of this record's pairs
        // apply) instead of panicking — scrub surfaces the rot afterwards.
        for (page, _) in &record.pairs {
            match state
                .tree
                .hydrate_path(*page, &mut |b, out| disk.try_readv(vt, &mut [(b, out)]))
            {
                Ok(()) => {}
                Err(TreeError::Io(e)) => return Err(e.into()),
                Err(TreeError::CorruptNode { .. }) => return Ok(Candidate::ChainEnds),
            }
        }
        let inline: Vec<(u64, u32)> = record
            .pairs
            .iter()
            .map(|(page, word)| (*page, layout::unpack_entry(*word)))
            .filter(|(_, (block, _))| *block == INLINE_BLOCK)
            .map(|(page, (_, digest))| (page, digest))
            .collect();
        let base_blocks: Vec<Option<u64>> = inline
            .iter()
            .map(|(page, _)| {
                state
                    .tree
                    .get(*page)
                    .filter(|_| !state.overlay.contains_key(page))
            })
            .collect();
        let moved = base_blocks
            .iter()
            .flatten()
            .filter(|b| bases.get(**b).is_none());
        let moved_images = readv_blocks(vt, disk, moved.copied())?;
        let mut moved_images = moved_images.chunks(BLOCK_SIZE);
        let mut patched = Vec::with_capacity(inline.len());
        for (((page, digest), (mask, bytes)), base) in
            inline.iter().zip(inline_lines).zip(base_blocks)
        {
            let mut image: Box<[u8]> = match (state.overlay.get(page), base) {
                (Some((_, image)), _) => image.clone(),
                (None, Some(block)) => bases
                    .get(block)
                    .or_else(|| moved_images.next())
                    .expect("one image per base")
                    .into(),
                (None, None) => vec![0u8; BLOCK_SIZE].into(),
            };
            lines::scatter(&mut image, &lines::line_runs(mask), bytes)
                .expect("inline_lines sized the bytes to the mask");
            if layout::digest32(&image) != *digest {
                return Ok(Candidate::Rejected); // torn, stale, or over a rotted base
            }
            patched.push(image);
        }
        Ok(Candidate::Verified(patched))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::tests::{open_shard, page_of, setup};
    use crate::ObjectStore;
    use msnap_disk::DiskConfig;

    #[test]
    fn reopen_restores_committed_data_after_deltas() {
        let (mut disk, mut store, mut vt) = setup();
        let obj = store.create(&mut vt, &mut disk, "db").unwrap();
        // Several delta commits, no full root yet.
        for i in 0..5u64 {
            let p = page_of(10 + i as u8);
            let t = store.persist(&mut vt, &mut disk, obj, &[(i, &p)]).unwrap();
            ObjectStore::wait(&mut vt, t);
        }
        disk.settle();

        let mut vt2 = Vt::new(1);
        let mut store2 = open_shard(&mut vt2, &mut disk).unwrap();
        let obj2 = store2.lookup("db").unwrap();
        assert_eq!(store2.epoch(obj2), 5, "delta replay recovers all epochs");
        let mut out = page_of(0);
        for i in 0..5u64 {
            store2
                .read_page(&mut vt2, &mut disk, obj2, i, &mut out)
                .unwrap();
            assert_eq!(out, page_of(10 + i as u8), "page {i}");
        }
    }

    #[test]
    fn reopen_restores_across_full_roots_and_deltas() {
        let (mut disk, mut store, mut vt) = setup();
        let obj = store.create(&mut vt, &mut disk, "db").unwrap();
        let total = DELTA_SLOTS + 10;
        for i in 0..total {
            let p = page_of((i % 250) as u8 + 1);
            let t = store.persist(&mut vt, &mut disk, obj, &[(i, &p)]).unwrap();
            ObjectStore::wait(&mut vt, t);
        }
        disk.settle();

        let mut vt2 = Vt::new(1);
        let mut store2 = open_shard(&mut vt2, &mut disk).unwrap();
        let obj2 = store2.lookup("db").unwrap();
        assert_eq!(store2.epoch(obj2), total);
        let mut out = page_of(0);
        for i in 0..total {
            store2
                .read_page(&mut vt2, &mut disk, obj2, i, &mut out)
                .unwrap();
            assert_eq!(out, page_of((i % 250) as u8 + 1), "page {i}");
        }
    }

    #[test]
    fn crash_mid_checkpoint_recovers_previous_epoch() {
        let (mut disk, mut store, mut vt) = setup();
        let obj = store.create(&mut vt, &mut disk, "db").unwrap();
        let p1 = page_of(1);
        let t1 = store.persist(&mut vt, &mut disk, obj, &[(0, &p1)]).unwrap();
        ObjectStore::wait(&mut vt, t1);

        // Second checkpoint; crash before its commit record completes.
        let p2 = page_of(2);
        let t2 = store.persist(&mut vt, &mut disk, obj, &[(0, &p2)]).unwrap();
        disk.crash(t2.completes - Nanos::from_ns(1));

        let mut vt2 = Vt::new(1);
        let mut store2 = open_shard(&mut vt2, &mut disk).unwrap();
        let obj2 = store2.lookup("db").unwrap();
        assert_eq!(store2.epoch(obj2), 1, "recovery adopts the previous epoch");
        let mut out = page_of(0);
        store2
            .read_page(&mut vt2, &mut disk, obj2, 0, &mut out)
            .unwrap();
        assert_eq!(out, p1);
    }

    #[test]
    fn crash_after_checkpoint_keeps_it() {
        let (mut disk, mut store, mut vt) = setup();
        let obj = store.create(&mut vt, &mut disk, "db").unwrap();
        let p2 = page_of(2);
        let t = store.persist(&mut vt, &mut disk, obj, &[(0, &p2)]).unwrap();
        disk.crash(t.completes);

        let mut vt2 = Vt::new(1);
        let mut store2 = open_shard(&mut vt2, &mut disk).unwrap();
        let obj2 = store2.lookup("db").unwrap();
        assert_eq!(store2.epoch(obj2), 1);
        let mut out = page_of(0);
        store2
            .read_page(&mut vt2, &mut disk, obj2, 0, &mut out)
            .unwrap();
        assert_eq!(out, p2);
    }

    #[test]
    fn torn_data_extent_truncates_the_recovered_prefix() {
        use msnap_disk::{Fault, FaultPlan};
        let (mut disk, mut store, mut vt) = setup();
        let obj = store.create(&mut vt, &mut disk, "db").unwrap();
        let p1 = page_of(1);
        let t1 = store.persist(&mut vt, &mut disk, obj, &[(0, &p1)]).unwrap();
        ObjectStore::wait(&mut vt, t1);

        // Commit 2's two-block data extent tears after its first block,
        // but the record write (the next submission) lands intact — the
        // device acknowledged a lie.
        let pa = page_of(2);
        let pb = page_of(3);
        disk.set_fault_plan(FaultPlan::new().at(disk.io_seq(), Fault::Torn { prefix_blocks: 1 }));
        let t2 = store
            .persist(&mut vt, &mut disk, obj, &[(0, &pa), (1, &pb)])
            .unwrap();
        let t3 = store
            .persist(&mut vt, &mut disk, obj, &[(1, &page_of(4))])
            .unwrap();
        ObjectStore::wait(&mut vt, t2);
        disk.crash(t3.completes);

        // Replay must stop *before* commit 2 (payload mismatch), which
        // also keeps the durable commit 3 out: the recovered state is
        // exactly the epoch-1 prefix, never a torn hybrid.
        let mut vt2 = Vt::new(1);
        let mut store2 = open_shard(&mut vt2, &mut disk).unwrap();
        let obj2 = store2.lookup("db").unwrap();
        assert_eq!(store2.epoch(obj2), 1, "torn commit and successors rejected");
        let mut out = page_of(0);
        store2
            .read_page(&mut vt2, &mut disk, obj2, 0, &mut out)
            .unwrap();
        assert_eq!(out, p1);
    }

    #[test]
    fn bit_flipped_data_block_truncates_the_recovered_prefix() {
        use msnap_disk::{Fault, FaultPlan};
        let (mut disk, mut store, mut vt) = setup();
        let obj = store.create(&mut vt, &mut disk, "db").unwrap();
        let p1 = page_of(1);
        let t1 = store.persist(&mut vt, &mut disk, obj, &[(0, &p1)]).unwrap();
        ObjectStore::wait(&mut vt, t1);

        // Silent media corruption: one bit of commit 2's data flips as it
        // is written. No crash mid-commit — the corruption is only
        // discoverable by checksum.
        disk.set_fault_plan(FaultPlan::new().at(
            disk.io_seq(),
            Fault::BitFlip {
                entry: 0,
                byte: 100,
                bit: 3,
            },
        ));
        let t2 = store
            .persist(&mut vt, &mut disk, obj, &[(0, &page_of(2))])
            .unwrap();
        disk.crash(t2.completes);

        let mut vt2 = Vt::new(1);
        let mut store2 = open_shard(&mut vt2, &mut disk).unwrap();
        let obj2 = store2.lookup("db").unwrap();
        assert_eq!(store2.epoch(obj2), 1, "flipped commit rejected");
        let mut out = page_of(0);
        store2
            .read_page(&mut vt2, &mut disk, obj2, 0, &mut out)
            .unwrap();
        assert_eq!(out, p1);
    }

    #[test]
    fn delta_superseded_blocks_stay_quarantined_until_the_full_root() {
        let (mut disk, mut store, mut vt) = setup();
        let obj = store.create(&mut vt, &mut disk, "db").unwrap();
        // Overwrite the same page across the whole delta window, then
        // crash and corrupt nothing: every intermediate delta record must
        // still verify, i.e. its superseded data block was not recycled.
        let mut last = Nanos::ZERO;
        for i in 1..DELTA_SLOTS as u8 {
            let p = page_of(i);
            let t = store.persist(&mut vt, &mut disk, obj, &[(0, &p)]).unwrap();
            ObjectStore::wait(&mut vt, t);
            last = t.completes;
        }
        disk.crash(last);
        let mut vt2 = Vt::new(1);
        let mut store2 = open_shard(&mut vt2, &mut disk).unwrap();
        let obj2 = store2.lookup("db").unwrap();
        assert_eq!(store2.epoch(obj2), DELTA_SLOTS - 1);
        let mut out = page_of(0);
        store2
            .read_page(&mut vt2, &mut disk, obj2, 0, &mut out)
            .unwrap();
        assert_eq!(out, page_of((DELTA_SLOTS - 1) as u8));
    }

    #[test]
    fn open_unformatted_disk_fails() {
        let mut disk = Disk::new(DiskConfig::fast());
        let mut vt = Vt::new(0);
        assert_eq!(
            open_shard(&mut vt, &mut disk).unwrap_err(),
            StoreError::NotFormatted
        );
    }

    #[test]
    fn recovery_allocator_does_not_clobber_live_blocks() {
        let (mut disk, mut store, mut vt) = setup();
        let obj = store.create(&mut vt, &mut disk, "db").unwrap();
        let pages: Vec<Vec<u8>> = (0..60).map(|i| page_of(i as u8)).collect();
        for (i, p) in pages.iter().enumerate() {
            let t = store
                .persist(&mut vt, &mut disk, obj, &[(i as u64, p)])
                .unwrap();
            ObjectStore::wait(&mut vt, t);
        }
        disk.settle();

        // Reopen and write more; old pages must stay intact.
        let mut vt2 = Vt::new(1);
        let mut store2 = open_shard(&mut vt2, &mut disk).unwrap();
        let obj2 = store2.lookup("db").unwrap();
        let extra = page_of(0xFF);
        for i in 60..120u64 {
            let t = store2
                .persist(&mut vt2, &mut disk, obj2, &[(i, &extra)])
                .unwrap();
            ObjectStore::wait(&mut vt2, t);
        }
        let mut out = page_of(0);
        for (i, p) in pages.iter().enumerate() {
            store2
                .read_page(&mut vt2, &mut disk, obj2, i as u64, &mut out)
                .unwrap();
            assert_eq!(&out, p, "page {i} corrupted after recovery + writes");
        }
    }
}
