//! The one image door on the replica side: a full root at a target
//! epoch, over the live tree or a retained base snapshot.

use super::*;

impl StoreShard {
    /// The one image door, [`crate::ObjectStore::apply_image`], on this
    /// shard: a full root at `target_epoch` holding `pages` over the live
    /// tree, or over the retained snapshot `base` when one is named.
    pub fn apply_image(
        &mut self,
        vt: &mut Vt,
        disk: &mut Disk,
        object: ObjectId,
        base: Option<&str>,
        pages: &[(u64, &[u8])],
        target_epoch: Epoch,
    ) -> Result<CommitToken, StoreError> {
        // `ensure_pins` both registers a base snapshot's pin set
        // (consulted for the quarantine filter below) and hydrates every
        // snapshot tree, so a cloned base is fully resident.
        self.ensure_pins(vt, disk)?;
        self.recycle_pending(vt.now());
        let base = match base {
            None => None,
            Some(name) => {
                let idx = *self
                    .snap_by_name
                    .get(name)
                    .ok_or(StoreError::SnapshotNotFound)?;
                let snap = &self.snapshots[idx];
                if snap.entry.object != object {
                    return Err(StoreError::SnapshotMismatch);
                }
                let blocks: HashSet<u64> = snap.blocks.iter().copied().collect();
                Some((snap.tree.clone(), blocks))
            }
        };
        let state = self
            .objects
            .get(object.0 as usize)
            .ok_or(StoreError::NotFound)?;
        if target_epoch <= state.epoch {
            return Err(StoreError::StaleEpoch);
        }
        let divergent = match base {
            None => {
                self.hydrate_object_paths(vt, disk, object, pages.iter().map(|(p, _)| *p))?;
                None
            }
            Some((base_tree, base_blocks)) => {
                // Hydrate the live (about-to-be-divergent) tree up front:
                // the post-commit quarantine walk must not fail once the
                // rebase root is durable. Its overlay is divergent history
                // too and must not be written out over the base.
                let state = &mut self.objects[object.0 as usize];
                let cache = &mut self.cache;
                let stats = &mut self.stats;
                state.tree.hydrate_all(&mut |b, out| {
                    read_block_cached(vt, disk, cache, stats, b, out, true)
                })?;
                let tree = std::mem::replace(&mut state.tree, base_tree);
                Some((tree, std::mem::take(&mut state.overlay), base_blocks))
            }
        };
        let initiate = costs::initiate(pages.len());
        let token = self.full_commit(vt, disk, object, pages, target_epoch, Root::Chain(initiate));
        if let Some((tree, overlay, base_blocks)) = divergent {
            let state = &mut self.objects[object.0 as usize];
            if token.is_err() {
                // full_commit restored the (cloned) base tree; put the
                // divergent history back so the object is untouched.
                state.tree = tree;
                state.overlay = overlay;
            } else {
                // Quarantine the blocks only the abandoned history
                // reached. Blocks shared with the base snapshot went
                // through the ordinary superseded path inside full_commit
                // (and stay withheld while pinned); blocks still reachable
                // from the rebased tree are live.
                let live: HashSet<u64> = state.tree.disk_blocks().into_iter().collect();
                let dead: Vec<u64> = tree
                    .disk_blocks()
                    .into_iter()
                    .filter(|b| !live.contains(b) && !base_blocks.contains(b))
                    .collect();
                self.pending_free
                    .push(Reverse((state.chain_completes, dead)));
            }
        }
        let token = token?;
        self.stats.commits += 1;
        self.stats.pages_written += pages.len() as u64;
        Ok(token)
    }
}

#[cfg(test)]
#[allow(clippy::type_complexity)]
mod tests {
    use super::*;
    use crate::store::tests::{format_shard, open_shard, page_of, setup};
    use crate::ObjectStore;
    use msnap_disk::DiskConfig;

    #[test]
    fn snapshot_diff_and_apply_image_replicate_byte_for_byte() {
        let (mut disk, mut store, mut vt) = setup();
        let obj = store.create(&mut vt, &mut disk, "db").unwrap();
        let base_pages: Vec<Vec<u8>> = (0..6).map(|i| page_of(0x10 + i as u8)).collect();
        for (i, p) in base_pages.iter().enumerate() {
            let t = store
                .persist(&mut vt, &mut disk, obj, &[(i as u64, p)])
                .unwrap();
            ObjectStore::wait(&mut vt, t);
        }
        let epoch_a = store.snapshot_create(&mut vt, &mut disk, obj, "a").unwrap();
        // Change pages 2 and 4, add page 6.
        for i in [2u64, 4, 6] {
            let p = page_of(0x80 + i as u8);
            let t = store.persist(&mut vt, &mut disk, obj, &[(i, &p)]).unwrap();
            ObjectStore::wait(&mut vt, t);
        }
        let epoch_b = store.snapshot_create(&mut vt, &mut disk, obj, "b").unwrap();

        assert_eq!(
            store
                .snapshot_diff(&mut vt, &mut disk, Some("a"), "b")
                .unwrap(),
            vec![2, 4, 6],
            "diff must report exactly the changed pages"
        );
        let full = store.snapshot_diff(&mut vt, &mut disk, None, "a").unwrap();
        assert_eq!(full, vec![0, 1, 2, 3, 4, 5]);

        // Replica: full-sync to "a", then the incremental delta to "b".
        let mut rdisk = Disk::new(DiskConfig::paper());
        let mut replica = format_shard(&mut rdisk);
        let robj = replica.create(&mut vt, &mut rdisk, "db").unwrap();
        let mut buf = page_of(0);
        let ship = |store: &mut StoreShard,
                    disk: &mut Disk,
                    replica: &mut StoreShard,
                    rdisk: &mut Disk,
                    vt: &mut Vt,
                    snap: &str,
                    pages: &[u64],
                    epoch| {
            let mut images = Vec::new();
            let mut out = page_of(0);
            for &pg in pages {
                store.read_page_at(vt, disk, snap, pg, &mut out).unwrap();
                images.push((pg, out.clone()));
            }
            let iov: Vec<(u64, &[u8])> = images.iter().map(|(p, d)| (*p, &d[..])).collect();
            let t = replica
                .apply_image(vt, rdisk, robj, None, &iov, epoch)
                .unwrap();
            ObjectStore::wait(vt, t);
        };
        ship(
            &mut store,
            &mut disk,
            &mut replica,
            &mut rdisk,
            &mut vt,
            "a",
            &full,
            epoch_a,
        );
        assert_eq!(replica.epoch(robj), epoch_a);
        ship(
            &mut store,
            &mut disk,
            &mut replica,
            &mut rdisk,
            &mut vt,
            "b",
            &[2, 4, 6],
            epoch_b,
        );
        assert_eq!(replica.epoch(robj), epoch_b);
        for pg in 0..7u64 {
            let mut want = page_of(0);
            store
                .read_page_at(&mut vt, &mut disk, "b", pg, &mut want)
                .unwrap();
            replica
                .read_page(&mut vt, &mut rdisk, robj, pg, &mut buf)
                .unwrap();
            assert_eq!(buf, want, "replica page {pg} diverges");
        }

        // A stale or equal target epoch is refused.
        assert_eq!(
            replica
                .apply_image(&mut vt, &mut rdisk, robj, None, &[], epoch_b)
                .unwrap_err(),
            StoreError::StaleEpoch
        );
    }

    #[test]
    fn an_image_of_no_pages_fences_forward_without_changing_content() {
        let (mut disk, mut store, mut vt) = setup();
        let obj = store.create(&mut vt, &mut disk, "db").unwrap();
        let p = page_of(0x33);
        let t = store.persist(&mut vt, &mut disk, obj, &[(0, &p)]).unwrap();
        ObjectStore::wait(&mut vt, t);
        assert_eq!(store.epoch(obj), 1);

        let t = store
            .apply_image(&mut vt, &mut disk, obj, None, &[], 100)
            .unwrap();
        ObjectStore::wait(&mut vt, t);
        assert_eq!(store.epoch(obj), 100);
        let mut out = page_of(0);
        store
            .read_page(&mut vt, &mut disk, obj, 0, &mut out)
            .unwrap();
        assert_eq!(out, p, "a fence never changes content");
        // The fence survives reopen.
        disk.settle();
        let mut vt2 = Vt::new(1);
        let mut store2 = open_shard(&mut vt2, &mut disk).unwrap();
        assert_eq!(store2.epoch(obj), 100);
        store2
            .read_page(&mut vt2, &mut disk, obj, 0, &mut out)
            .unwrap();
        assert_eq!(out, p);
        // A fence at or behind the live epoch is refused.
        assert_eq!(
            store
                .apply_image(&mut vt, &mut disk, obj, None, &[], 100)
                .unwrap_err(),
            StoreError::StaleEpoch
        );
    }

    #[test]
    fn an_image_over_a_base_abandons_divergent_history() {
        let (mut disk, mut store, mut vt) = setup();
        let obj = store.create(&mut vt, &mut disk, "db").unwrap();
        for i in 0..4u64 {
            let p = page_of(0x10 + i as u8);
            let t = store.persist(&mut vt, &mut disk, obj, &[(i, &p)]).unwrap();
            ObjectStore::wait(&mut vt, t);
        }
        store
            .snapshot_create(&mut vt, &mut disk, obj, "acked")
            .unwrap();
        let base_epoch = store.epoch(obj);

        // Divergent history: commits the new primary never saw.
        for i in 0..8u64 {
            let p = page_of(0xD0 + i as u8);
            let t = store
                .persist(&mut vt, &mut disk, obj, &[(i % 4, &p)])
                .unwrap();
            ObjectStore::wait(&mut vt, t);
        }
        assert!(store.epoch(obj) > base_epoch);

        // The rebase delta: the new primary changed pages 1 and 3 since
        // the common base, and its fence puts the target far ahead.
        let p1 = page_of(0xA1);
        let p3 = page_of(0xA3);
        let target = store.epoch(obj) + 50;
        let t = store
            .apply_image(
                &mut vt,
                &mut disk,
                obj,
                Some("acked"),
                &[(1, &p1), (3, &p3)],
                target,
            )
            .unwrap();
        ObjectStore::wait(&mut vt, t);
        assert_eq!(store.epoch(obj), target);

        // Content = base image with the delta applied; the divergent
        // writes (0xD0..) are gone everywhere.
        let mut out = page_of(0);
        let want: Vec<Vec<u8>> = vec![page_of(0x10), p1.clone(), page_of(0x12), p3.clone()];
        for (pg, w) in want.iter().enumerate() {
            store
                .read_page(&mut vt, &mut disk, obj, pg as u64, &mut out)
                .unwrap();
            assert_eq!(&out, w, "page {pg} after rebase");
        }
        // And the rebase is durable: reopen sees the same image.
        disk.settle();
        let mut vt2 = Vt::new(1);
        let mut store2 = open_shard(&mut vt2, &mut disk).unwrap();
        assert_eq!(store2.epoch(obj), target);
        for (pg, w) in want.iter().enumerate() {
            store2
                .read_page(&mut vt2, &mut disk, obj, pg as u64, &mut out)
                .unwrap();
            assert_eq!(&out, w, "page {pg} after rebase + reopen");
        }

        // The base snapshot still reads its pinned image afterwards.
        store
            .read_page_at(&mut vt, &mut disk, "acked", 1, &mut out)
            .unwrap();
        assert_eq!(out, page_of(0x11));

        // Error cases leave the divergent history untouched.
        let (mut disk3, mut store3, mut vt3) = setup();
        let other = store3.create(&mut vt3, &mut disk3, "other").unwrap();
        assert_eq!(
            store3
                .apply_image(&mut vt3, &mut disk3, other, Some("nope"), &[], 10)
                .unwrap_err(),
            StoreError::SnapshotNotFound
        );
        assert_eq!(
            store
                .apply_image(&mut vt, &mut disk, obj, Some("acked"), &[], target)
                .unwrap_err(),
            StoreError::StaleEpoch
        );
    }

    #[test]
    fn an_image_over_a_base_recycles_only_abandoned_blocks() {
        let (mut disk, mut store, mut vt) = setup();
        let obj = store.create(&mut vt, &mut disk, "db").unwrap();
        for i in 0..4u64 {
            let p = page_of(1 + i as u8);
            let t = store.persist(&mut vt, &mut disk, obj, &[(i, &p)]).unwrap();
            ObjectStore::wait(&mut vt, t);
        }
        store
            .snapshot_create(&mut vt, &mut disk, obj, "base")
            .unwrap();
        for round in 0..20u64 {
            let p = page_of(0x40 + round as u8);
            let t = store
                .persist(&mut vt, &mut disk, obj, &[(round % 4, &p)])
                .unwrap();
            ObjectStore::wait(&mut vt, t);
        }
        let p0 = page_of(0xEE);
        let target = store.epoch(obj) + 1;
        let t = store
            .apply_image(&mut vt, &mut disk, obj, Some("base"), &[(0, &p0)], target)
            .unwrap();
        ObjectStore::wait(&mut vt, t);

        // Long after the rebase, heavy traffic must be able to reuse the
        // abandoned blocks without ever corrupting the live image or the
        // pinned base snapshot.
        for round in 0..64u64 {
            let p = page_of(round as u8);
            let t = store
                .persist(&mut vt, &mut disk, obj, &[(round % 4, &p)])
                .unwrap();
            ObjectStore::wait(&mut vt, t);
        }
        let mut out = page_of(0);
        for pg in 0..4u64 {
            store
                .read_page_at(&mut vt, &mut disk, "base", pg, &mut out)
                .unwrap();
            assert_eq!(out, page_of(1 + pg as u8), "pinned base page {pg}");
        }
        disk.settle();
        let mut vt2 = Vt::new(1);
        let mut store2 = open_shard(&mut vt2, &mut disk).unwrap();
        for pg in 0..4u64 {
            let want = {
                let mut w = page_of(0);
                store
                    .read_page(&mut vt, &mut disk, obj, pg, &mut w)
                    .unwrap();
                w
            };
            store2
                .read_page(&mut vt2, &mut disk, obj, pg, &mut out)
                .unwrap();
            assert_eq!(out, want, "reopened page {pg}");
        }
    }

    #[test]
    fn the_image_door_checks_base_then_object_then_epoch() {
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
        let (missing, stale, ahead) = (ObjectId(9), store.epoch(a), store.epoch(a) + 1);
        use StoreError::*;
        // (base, object, target epoch) → the first error in door order:
        // the base, then the object, then the epoch.
        let table: [(Option<&str>, ObjectId, Epoch, StoreError); 9] = [
            (Some("nope"), missing, stale, SnapshotNotFound),
            (Some("nope"), a, stale, SnapshotNotFound),
            (Some("nope"), a, ahead, SnapshotNotFound),
            (Some("sb"), missing, stale, SnapshotMismatch),
            (Some("sb"), a, stale, SnapshotMismatch),
            (Some("sa"), missing, ahead, SnapshotMismatch),
            (None, missing, stale, NotFound),
            (None, a, stale, StaleEpoch),
            (Some("sa"), a, stale, StaleEpoch),
        ];
        let before = (store.stats(), disk.io_seq(), store.epoch(a));
        for (base, obj, epoch, want) in table {
            let got = store.apply_image(&mut vt, &mut disk, obj, base, &[(0, &p)], epoch);
            assert_eq!(got, Err(want), "{base:?} {obj:?} {epoch}");
        }
        assert_eq!(
            (store.stats(), disk.io_seq(), store.epoch(a)),
            before,
            "a refused image writes nothing"
        );
        for base in [None, Some("sa")] {
            let t = store
                .apply_image(&mut vt, &mut disk, a, base, &[(0, &p)], store.epoch(a) + 1)
                .unwrap();
            ObjectStore::wait(&mut vt, t);
        }
        assert_eq!(store.epoch(a), ahead + 1);
    }
}
