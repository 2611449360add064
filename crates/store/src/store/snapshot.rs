//! Retained snapshots: the crash-atomic catalog, block pins, and the
//! structural diff between two pinned trees.

use super::*;

impl StoreShard {
    /// Materializes the pin sets of snapshots adopted unloaded by
    /// `open_at`: hydrates each snapshot tree (through the
    /// block cache) and registers its reachable blocks in `snap_pins`.
    ///
    /// Called before any path that can free a block (recycling, snapshot
    /// deletion) — pins are consulted only at free time, so deferring
    /// them is what makes `open` O(1) IO even with retained snapshots.
    /// Until the first free, the allocator hands out only blocks past the
    /// recovered frontier, which no snapshot can reach. Materialization
    /// is per-snapshot atomic: a failed read leaves the remaining
    /// snapshots unpinned and the call retryable.
    pub(super) fn ensure_pins(&mut self, vt: &mut Vt, disk: &mut Disk) -> Result<(), StoreError> {
        for i in 0..self.snapshots.len() {
            if self.snapshots[i].pinned {
                continue;
            }
            let read = &mut node_reader(vt, disk, &mut self.cache, &mut self.stats);
            let blocks = self.snapshots[i].tree.disk_blocks(read)?;
            for &b in &blocks {
                *self.snap_pins.entry(b).or_insert(0) += 1;
            }
            let snap = &mut self.snapshots[i];
            snap.blocks = blocks;
            snap.pinned = true;
        }
        Ok(())
    }

    /// [`crate::ObjectStore::snapshot_create`] on this shard.
    pub fn snapshot_create(
        &mut self,
        vt: &mut Vt,
        disk: &mut Disk,
        object: ObjectId,
        name: &str,
    ) -> Result<Epoch, StoreError> {
        if name.len() > NAME_LEN {
            return Err(StoreError::NameTooLong);
        }
        if self.snap_by_name.contains_key(name) {
            return Err(StoreError::SnapshotExists);
        }
        if self.snapshots.len() >= MAX_SNAPSHOTS {
            return Err(StoreError::TooManySnapshots);
        }
        if self.objects.get(object.0 as usize).is_none() {
            return Err(StoreError::NotFound);
        }
        self.flush_full_root(vt, disk, object)?;
        // Listing the pins hydrates the live tree before the O(1) clone,
        // so the snapshot shares every node with the live tree.
        let blocks = {
            let read = &mut node_reader(vt, disk, &mut self.cache, &mut self.stats);
            self.objects[object.0 as usize].tree.disk_blocks(read)?
        };
        let state = &self.objects[object.0 as usize];
        let entry = SnapEntry {
            name: name.to_string(),
            object,
            epoch: state.epoch,
            tree_root: state.tree.committed_root(),
            len_pages: state.tree.len_pages(),
            root_digest: state.tree.committed_root_digest(),
        };
        let tree = state.tree.clone();
        let root_durable = state.chain_completes;
        for &b in &blocks {
            *self.snap_pins.entry(b).or_insert(0) += 1;
        }
        let epoch = entry.epoch;
        self.snap_by_name
            .insert(name.to_string(), self.snapshots.len());
        self.snapshots.push(SnapState {
            entry,
            tree,
            blocks,
            pinned: true,
        });
        if let Err(e) = self.write_catalog(vt, disk, root_durable) {
            let snap = self.snapshots.pop().expect("entry was just pushed");
            self.snap_by_name.remove(name);
            self.unpin(&snap.blocks);
            return Err(e);
        }
        Ok(epoch)
    }

    /// [`crate::ObjectStore::snapshot_delete`] on this shard.
    pub fn snapshot_delete(
        &mut self,
        vt: &mut Vt,
        disk: &mut Disk,
        name: &str,
    ) -> Result<(), StoreError> {
        let idx = *self
            .snap_by_name
            .get(name)
            .ok_or(StoreError::SnapshotNotFound)?;
        let snap = self.snapshots.remove(idx);
        self.rebuild_snap_index();
        if let Err(e) = self.write_catalog(vt, disk, vt.now()) {
            self.snapshots.insert(idx, snap);
            self.rebuild_snap_index();
            return Err(e);
        }
        // A snapshot adopted unloaded and deleted before its pins ever
        // materialized has nothing registered to release.
        self.unpin(&snap.blocks);
        Ok(())
    }

    /// Rebuilds the name → index map after `snapshots` reorders (removal
    /// shifts every later index).
    fn rebuild_snap_index(&mut self) {
        self.snap_by_name = self
            .snapshots
            .iter()
            .enumerate()
            .map(|(i, s)| (s.entry.name.clone(), i))
            .collect();
    }

    /// The retained snapshots, in catalog order.
    pub fn snapshots(&self) -> Vec<SnapEntry> {
        self.snapshots.iter().map(|s| s.entry.clone()).collect()
    }

    /// Looks up a retained snapshot by name.
    pub fn snapshot_lookup(&self, name: &str) -> Option<&SnapEntry> {
        self.snap_by_name
            .get(name)
            .map(|&i| &self.snapshots[i].entry)
    }

    /// [`crate::ObjectStore::snapshot_diff`] on this shard.
    pub fn snapshot_diff(
        &mut self,
        vt: &mut Vt,
        disk: &mut Disk,
        base: Option<&str>,
        target: &str,
    ) -> Result<Vec<u64>, StoreError> {
        let ti = *self
            .snap_by_name
            .get(target)
            .ok_or(StoreError::SnapshotNotFound)?;
        let bi = match base {
            None => None,
            Some(n) => {
                let bi = *self
                    .snap_by_name
                    .get(n)
                    .ok_or(StoreError::SnapshotNotFound)?;
                if self.snapshots[bi].entry.object != self.snapshots[ti].entry.object {
                    return Err(StoreError::SnapshotMismatch);
                }
                Some(bi)
            }
        };
        // Split the snapshot vector so base and target can hydrate
        // independently during the walk.
        let (base_tree, target_tree) = match bi {
            None => (None, &mut self.snapshots[ti].tree),
            Some(bi) if bi == ti => return Ok(Vec::new()),
            Some(bi) => {
                let (lo, hi) = (bi.min(ti), bi.max(ti));
                let (left, right) = self.snapshots.split_at_mut(hi);
                let (a, b) = (&mut left[lo].tree, &mut right[0].tree);
                if bi < ti {
                    (Some(a), b)
                } else {
                    (Some(b), a)
                }
            }
        };
        let read = &mut node_reader(vt, disk, &mut self.cache, &mut self.stats);
        let pairs = RadixTree::diff_pages_with(base_tree, target_tree, read)?;
        Ok(pairs.into_iter().map(|(page, _)| page).collect())
    }

    /// Blocks currently pinned by retained snapshots.
    pub fn pinned_blocks(&self) -> usize {
        self.snap_pins.len()
    }

    /// Pinned blocks whose recycle gate has passed: they are withheld
    /// from the allocator until their last pin drops.
    pub fn withheld_blocks(&self) -> usize {
        self.withheld.len()
    }

    /// Rewrites the snapshot catalog from the in-memory snapshot list
    /// into the next alternating slot, submitted no earlier than `at`
    /// (callers pass the pinned root's durability instant so the catalog
    /// never lands before the tree it references). Synchronous; bumps the
    /// catalog sequence only on success.
    fn write_catalog(&mut self, vt: &mut Vt, disk: &mut Disk, at: Nanos) -> Result<(), StoreError> {
        let cat = SnapCatalog {
            seq: self.snap_seq,
            entries: self.snapshots.iter().map(|s| s.entry.clone()).collect(),
        };
        let slot = self.layout.snap_slot(cat.seq);
        let token = writev_retry(
            disk,
            at.max(vt.now()),
            &[(slot, &cat.to_block())],
            &mut self.cache,
        )?;
        Disk::wait(vt, token);
        self.snap_seq += 1;
        Ok(())
    }

    /// Releases one pin on each block; blocks whose last pin drops and
    /// that were withheld return to the allocator.
    fn unpin(&mut self, blocks: &[u64]) {
        for &b in blocks {
            match self.snap_pins.get_mut(&b) {
                Some(count) if *count > 1 => *count -= 1,
                _ => {
                    self.snap_pins.remove(&b);
                    if self.withheld.remove(&b) && !self.quarantined.contains(&b) {
                        self.alloc.free(b);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::radix::tests::unshared;
    use crate::store::tests::{open_shard, page_of, setup};
    use crate::ObjectStore;
    use msnap_disk::{Fault, FaultPlan, ReadFaultPlan};

    /// A node-flushing root, durable, and the recycling behind it.
    fn flush_nodes(store: &mut StoreShard, vt: &mut Vt, disk: &mut Disk, obj: ObjectId) {
        store.flush_full_root(vt, disk, obj).unwrap();
        vt.wait_until(store.last_commit(obj));
        store.recycle_pending(vt.now());
    }

    #[test]
    fn snapshot_pinned_blocks_survive_full_root_flushes() {
        // Extends the quarantine regression above to retained epochs:
        // once a snapshot pins an epoch, full-root flushes — which
        // release the delta window's quarantine — must *withhold* the
        // pinned blocks instead of recycling them.
        let (mut disk, mut store, mut vt) = setup();
        let obj = store.create(&mut vt, &mut disk, "db").unwrap();
        let originals: Vec<Vec<u8>> = (0..4).map(|i| page_of(0xA0 + i as u8)).collect();
        for (i, p) in originals.iter().enumerate() {
            let t = store
                .persist(&mut vt, &mut disk, obj, &[(i as u64, p)])
                .unwrap();
            ObjectStore::wait(&mut vt, t);
        }
        let snap_epoch = store
            .snapshot_create(&mut vt, &mut disk, obj, "keep")
            .unwrap();
        assert_eq!(snap_epoch, 4);

        // Churn page 0 across more than two full delta windows: at least
        // two full roots pass, every pre-snapshot block is superseded and
        // its recycle gate expires.
        for i in 0..(2 * DELTA_SLOTS + 4) {
            let p = page_of(i as u8);
            let t = store.persist(&mut vt, &mut disk, obj, &[(0, &p)]).unwrap();
            ObjectStore::wait(&mut vt, t);
        }
        // Those roots journal page 0 over the snapshot's tree; a block
        // that tree's leaf names passes its gate once a root writes it.
        flush_nodes(&mut store, &mut vt, &mut disk, obj);
        assert!(
            store.withheld_blocks() > 0,
            "expired-but-pinned blocks must be withheld, not freed"
        );
        let mut out = page_of(0);
        for (i, p) in originals.iter().enumerate() {
            store
                .read_page_at(&mut vt, &mut disk, "keep", i as u64, &mut out)
                .unwrap();
            assert_eq!(&out, p, "snapshot page {i} changed under churn");
        }

        // The pins survive recovery: reopen and read the epoch again.
        disk.settle();
        let mut vt2 = Vt::new(1);
        let mut store2 = open_shard(&mut vt2, &mut disk).unwrap();
        assert_eq!(store2.snapshot_lookup("keep").unwrap().epoch, snap_epoch);
        for (i, p) in originals.iter().enumerate() {
            store2
                .read_page_at(&mut vt2, &mut disk, "keep", i as u64, &mut out)
                .unwrap();
            assert_eq!(&out, p, "snapshot page {i} lost across recovery");
        }
    }

    #[test]
    fn pins_adopted_at_open_hold_after_a_delete_before_any_commit() {
        let (mut disk, mut store, mut vt) = setup();
        let obj = store.create(&mut vt, &mut disk, "db").unwrap();
        let mut pages: Vec<Vec<u8>> = (0..4).map(|i| page_of(0xB0 + i as u8)).collect();
        for (i, p) in pages.iter().enumerate() {
            let t = store
                .persist(&mut vt, &mut disk, obj, &[(i as u64, p)])
                .unwrap();
            ObjectStore::wait(&mut vt, t);
        }
        store.snapshot_create(&mut vt, &mut disk, obj, "a").unwrap();
        pages[1] = page_of(0xC1);
        let t = store
            .persist(&mut vt, &mut disk, obj, &[(1, &pages[1])])
            .unwrap();
        ObjectStore::wait(&mut vt, t);
        store.snapshot_create(&mut vt, &mut disk, obj, "b").unwrap();
        disk.settle();

        // Both snapshots come back unpinned; one goes before any commit
        // has materialized the pins.
        let mut vt = Vt::new(1);
        let mut store = open_shard(&mut vt, &mut disk).unwrap();
        store.snapshot_delete(&mut vt, &mut disk, "a").unwrap();
        // Churn page 0 across two delta windows, then write every node:
        // every block only the survivor still names passes its gate.
        for i in 0..(2 * DELTA_SLOTS + 4) {
            let p = page_of(i as u8);
            let t = store.persist(&mut vt, &mut disk, obj, &[(0, &p)]).unwrap();
            ObjectStore::wait(&mut vt, t);
        }
        flush_nodes(&mut store, &mut vt, &mut disk, obj);

        let mut out = page_of(0);
        for (i, p) in pages.iter().enumerate() {
            store
                .read_page_at(&mut vt, &mut disk, "b", i as u64, &mut out)
                .unwrap();
            assert_eq!(&out, p, "snapshot page {i} changed under churn");
        }
        let entry = store.snapshot_lookup("b").unwrap();
        let mut tree =
            RadixTree::from_committed_digest(entry.tree_root, entry.root_digest, entry.len_pages);
        let blocks = tree
            .disk_blocks(&mut node_reader(
                &mut vt,
                &mut disk,
                &mut store.cache,
                &mut store.stats,
            ))
            .unwrap();
        assert_eq!(store.pinned_blocks(), blocks.len());
    }

    #[test]
    fn snapshot_delete_releases_withheld_blocks() {
        let (mut disk, mut store, mut vt) = setup();
        let obj = store.create(&mut vt, &mut disk, "db").unwrap();
        let p = page_of(1);
        let t = store.persist(&mut vt, &mut disk, obj, &[(0, &p)]).unwrap();
        ObjectStore::wait(&mut vt, t);
        store
            .snapshot_create(&mut vt, &mut disk, obj, "old")
            .unwrap();
        for i in 0..(DELTA_SLOTS + 2) {
            let q = page_of(i as u8);
            let t = store.persist(&mut vt, &mut disk, obj, &[(0, &q)]).unwrap();
            ObjectStore::wait(&mut vt, t);
        }
        flush_nodes(&mut store, &mut vt, &mut disk, obj);
        assert!(store.withheld_blocks() > 0);
        let free_before = store.alloc.free_blocks();
        store.snapshot_delete(&mut vt, &mut disk, "old").unwrap();
        assert_eq!(store.withheld_blocks(), 0);
        assert_eq!(store.pinned_blocks(), 0);
        assert!(store.alloc.free_blocks() > free_before);
        assert_eq!(
            store
                .read_page_at(&mut vt, &mut disk, "old", 0, &mut page_of(0))
                .unwrap_err(),
            StoreError::SnapshotNotFound
        );
    }

    #[test]
    fn snapshot_catalog_write_is_crash_atomic() {
        let (mut disk, mut store, mut vt) = setup();
        let obj = store.create(&mut vt, &mut disk, "db").unwrap();
        let p = page_of(1);
        let t = store.persist(&mut vt, &mut disk, obj, &[(0, &p)]).unwrap();
        ObjectStore::wait(&mut vt, t);
        store
            .snapshot_create(&mut vt, &mut disk, obj, "s1")
            .unwrap();
        let q = page_of(2);
        let t = store.persist(&mut vt, &mut disk, obj, &[(0, &q)]).unwrap();
        ObjectStore::wait(&mut vt, t);
        store
            .snapshot_create(&mut vt, &mut disk, obj, "s2")
            .unwrap();
        disk.settle();

        // Tear the newest catalog slot (seq 1 → slot 1): mount must fall
        // back to the seq-0 catalog, i.e. exactly the first snapshot.
        disk.corrupt_bit(store.layout.snap_slot(1), 30, 2);
        let mut vt2 = Vt::new(1);
        let store2 = open_shard(&mut vt2, &mut disk).unwrap();
        let names: Vec<String> = store2.snapshots().iter().map(|s| s.name.clone()).collect();
        assert_eq!(names, vec!["s1".to_string()]);
    }

    #[test]
    fn snapshot_name_and_capacity_limits() {
        let (mut disk, mut store, mut vt) = setup();
        let obj = store.create(&mut vt, &mut disk, "db").unwrap();
        let p = page_of(1);
        let t = store.persist(&mut vt, &mut disk, obj, &[(0, &p)]).unwrap();
        ObjectStore::wait(&mut vt, t);
        assert_eq!(
            store
                .snapshot_create(&mut vt, &mut disk, obj, &"x".repeat(NAME_LEN + 1))
                .unwrap_err(),
            StoreError::NameTooLong
        );
        store.snapshot_create(&mut vt, &mut disk, obj, "a").unwrap();
        assert_eq!(
            store
                .snapshot_create(&mut vt, &mut disk, obj, "a")
                .unwrap_err(),
            StoreError::SnapshotExists
        );
        for i in 1..MAX_SNAPSHOTS {
            store
                .snapshot_create(&mut vt, &mut disk, obj, &format!("a{i}"))
                .unwrap();
        }
        assert_eq!(
            store
                .snapshot_create(&mut vt, &mut disk, obj, "overflow")
                .unwrap_err(),
            StoreError::TooManySnapshots
        );
    }

    #[test]
    fn snapshot_diff_rejects_cross_object_pairs() {
        let (mut disk, mut store, mut vt) = setup();
        let a = store.create(&mut vt, &mut disk, "a").unwrap();
        let b = store.create(&mut vt, &mut disk, "b").unwrap();
        let p = page_of(1);
        for obj in [a, b] {
            let t = store.persist(&mut vt, &mut disk, obj, &[(0, &p)]).unwrap();
            ObjectStore::wait(&mut vt, t);
        }
        store.snapshot_create(&mut vt, &mut disk, a, "sa").unwrap();
        store.snapshot_create(&mut vt, &mut disk, b, "sb").unwrap();
        assert_eq!(
            store
                .snapshot_diff(&mut vt, &mut disk, Some("sa"), "sb")
                .unwrap_err(),
            StoreError::SnapshotMismatch
        );
        assert_eq!(
            store
                .snapshot_diff(&mut vt, &mut disk, Some("sa"), "nope")
                .unwrap_err(),
            StoreError::SnapshotNotFound
        );
    }

    /// An object over five leaves (pages 0, 513, 1 024 and 1 536 under
    /// one L1 node, 300 000 under another), snapshot "a", page 0
    /// rewritten, snapshot "b".
    fn two_snapshots() -> (Disk, StoreShard, Vt, ObjectId) {
        let (mut disk, mut store, mut vt) = setup();
        let obj = store.create(&mut vt, &mut disk, "db").unwrap();
        for (i, page) in [0u64, 513, 1024, 1536, 300_000].into_iter().enumerate() {
            let p = page_of(0x10 + i as u8);
            let t = store
                .persist(&mut vt, &mut disk, obj, &[(page, &p)])
                .unwrap();
            ObjectStore::wait(&mut vt, t);
        }
        store.snapshot_create(&mut vt, &mut disk, obj, "a").unwrap();
        let p = page_of(0xEE);
        let t = store.persist(&mut vt, &mut disk, obj, &[(0, &p)]).unwrap();
        ObjectStore::wait(&mut vt, t);
        store.snapshot_create(&mut vt, &mut disk, obj, "b").unwrap();
        (disk, store, vt, obj)
    }

    /// The tree of snapshot `name`.
    fn snap_tree<'a>(store: &'a StoreShard, name: &str) -> &'a RadixTree {
        &store.snapshots[store.snap_by_name[name]].tree
    }

    #[test]
    fn snapshot_create_keeps_the_nodes_an_older_snapshot_shares() {
        let (_, store, _, obj) = two_snapshots();
        let live = &store.objects[obj.0 as usize].tree;
        // Page 0's path was written; the other four leaves and the L1
        // node above page 300 000 stay one copy.
        assert_eq!(unshared(snap_tree(&store, "a"), live), vec![]);
        assert_eq!(unshared(snap_tree(&store, "b"), live), vec![]);
    }

    #[test]
    fn snapshot_diff_keeps_the_nodes_the_live_tree_shares() {
        let (mut disk, mut store, mut vt, obj) = two_snapshots();
        let diff = store.snapshot_diff(&mut vt, &mut disk, Some("a"), "b");
        assert_eq!(diff, Ok(vec![0]));
        let live = &store.objects[obj.0 as usize].tree;
        assert_eq!(unshared(snap_tree(&store, "b"), live), vec![]);
        assert_eq!(
            unshared(snap_tree(&store, "a"), snap_tree(&store, "b")),
            vec![]
        );
    }

    #[test]
    fn a_rebase_keeps_the_nodes_the_snapshots_share() {
        let (mut disk, mut store, mut vt, obj) = two_snapshots();
        let epoch = store.objects[obj.0 as usize].epoch;
        let p = page_of(0x77);
        // A rebase that fails puts the divergent tree back whole.
        disk.set_fault_plan(FaultPlan::new().at(disk.io_seq(), Fault::Drop { transient: false }));
        let failed = store.apply_image(&mut vt, &mut disk, obj, Some("a"), &[(513, &p)], epoch + 1);
        assert!(failed.is_err());
        disk.clear_fault_plan();
        let live = &store.objects[obj.0 as usize].tree;
        assert_eq!(unshared(snap_tree(&store, "b"), live), vec![]);
        // One that lands shares every node but page 513's path with "a".
        let t = store
            .apply_image(&mut vt, &mut disk, obj, Some("a"), &[(513, &p)], epoch + 1)
            .unwrap();
        ObjectStore::wait(&mut vt, t);
        let live = &store.objects[obj.0 as usize].tree;
        assert_eq!(unshared(snap_tree(&store, "a"), live), vec![]);
        assert_eq!(
            unshared(snap_tree(&store, "a"), snap_tree(&store, "b")),
            vec![]
        );
    }

    #[test]
    fn a_reopened_store_diffs_and_pins_with_the_same_reads() {
        // `(block reads, read submissions, hydrations)` of a diff, then of
        // the pins, on a reopened store, a node a read: the divergent
        // pairs target first, then the rest of "a" depth-first; "b"'s
        // other nodes are cache hits. The figures and the block order are
        // pinned: reading nodes in place must change no device read.
        let reopened = || {
            let (mut disk, _, _, _) = two_snapshots();
            disk.settle();
            let mut vt = Vt::new(1);
            let store = open_shard(&mut vt, &mut disk).unwrap();
            (disk, store, vt)
        };
        let counts = |disk: &Disk, store: &StoreShard| {
            let io = disk.stats();
            (io.reads(), io.read_submissions(), store.stats.hydrations)
        };
        let (mut disk, mut store, mut vt) = reopened();
        let at_open = counts(&disk, &store);
        let diff = store.snapshot_diff(&mut vt, &mut disk, Some("a"), "b");
        assert_eq!(diff, Ok(vec![0]));
        let after_diff = counts(&disk, &store);
        store.ensure_pins(&mut vt, &mut disk).unwrap();
        let after_pins = counts(&disk, &store);
        let delta = |a: (u64, u64, u64), b: (u64, u64, u64)| (b.0 - a.0, b.1 - a.1, b.2 - a.2);
        assert_eq!(delta(at_open, after_diff), (6, 6, 6));
        assert_eq!(delta(after_diff, after_pins), (5, 5, 5));
        // The blocks in read order: failing the k-th read names it.
        let mut blocks = Vec::new();
        loop {
            let (mut disk, mut store, mut vt) = reopened();
            let k = disk.read_seq() + blocks.len() as u64;
            disk.set_read_fault_plan(ReadFaultPlan::new().at(k, false));
            let run = store
                .snapshot_diff(&mut vt, &mut disk, Some("a"), "b")
                .and_then(|_| store.ensure_pins(&mut vt, &mut disk));
            match run {
                Ok(()) => break,
                Err(StoreError::Io(IoError::Failed { block, .. })) => blocks.push(block),
                Err(e) => panic!("{e}"),
            }
        }
        // Block numbers past the end of the object's metadata range.
        let (_, store, _) = reopened();
        let meta_end = store.objects[0].entry.meta_base + OBJECT_META_BLOCKS;
        let past: Vec<u64> = blocks.iter().map(|b| b - meta_end).collect();
        assert_eq!(past, [16, 12, 15, 9, 14, 5, 6, 7, 8, 11, 10]);
    }
}
