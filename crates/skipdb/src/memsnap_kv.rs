//! The MemSnap-RocksDB integration: a persistent skip list (§7.2).
//!
//! The MemTable skip list *is* the durable store: nodes live page-aligned
//! in a MemSnap region, each `Put` persists exactly the new node and its
//! level-0 predecessor with one `msnap_persist`, and the skip-pointer
//! index is volatile ("we can recreate this index after a crash by
//! traversing the restored linked list"). The WAL, SSTables, LSM tree and
//! compaction are all gone.

use memsnap::{MemSnap, PersistFlags, RegionSel};
use msnap_disk::Disk;
use msnap_sim::{Meters, Nanos, Vt};
use msnap_vm::AsId;

use crate::kv::{Kv, KvStats};
use crate::node::{decode_head, decode_node, PAGE};
use crate::plist::PersistentSkipList;

/// The persistent-skip-list store. See the module docs.
#[derive(Debug)]
pub struct MemSnapKv {
    ms: MemSnap,
    space: AsId,
    list: PersistentSkipList,
    stats: KvStats,
}

impl MemSnapKv {
    /// Creates a fresh store with room for `capacity_pages` nodes.
    pub fn format(disk: Disk, capacity_pages: u64, vt: &mut Vt) -> Self {
        Self::format_sharded(disk, capacity_pages, 1, vt)
    }

    /// Creates a fresh store over `shards` commit shards (see
    /// `MemSnap::format_sharded`) — the knob for deployments persisting
    /// several regions concurrently.
    pub fn format_sharded(disk: Disk, capacity_pages: u64, shards: usize, vt: &mut Vt) -> Self {
        let mut ms = MemSnap::format_sharded(disk, shards);
        let space = ms.vm_mut().create_space();
        let region = ms
            .msnap_open(vt, space, "memtable", capacity_pages)
            .expect("fresh store accepts the memtable region");
        let list = PersistentSkipList::format(&mut ms, space, region, vt);
        MemSnapKv {
            ms,
            space,
            list,
            stats: KvStats::default(),
        }
    }

    /// Restores after a crash: remap the region, then "traverse the
    /// linked list nodes to recompute skip pointers".
    ///
    /// # Panics
    ///
    /// Panics if `disk` holds no MemSnap store.
    pub fn restore(disk: Disk, vt: &mut Vt) -> Self {
        let mut ms = MemSnap::restore(vt, disk).expect("device holds a MemSnap store");
        let space = ms.vm_mut().create_space();
        let region = ms
            .msnap_open(vt, space, "memtable", 0)
            .expect("memtable region exists");
        let list = PersistentSkipList::restore(&mut ms, space, region, vt);
        MemSnapKv {
            ms,
            space,
            list,
            stats: KvStats::default(),
        }
    }

    /// Simulates a power failure; pass the device to
    /// [`MemSnapKv::restore`].
    pub fn crash(self, at: Nanos) -> Disk {
        self.ms.crash(at)
    }

    /// The underlying MemSnap instance (fault statistics, breakdowns).
    pub fn memsnap(&self) -> &MemSnap {
        &self.ms
    }

    /// Mutable access to the MemSnap instance (coalescing window,
    /// pipeline depth configuration).
    pub fn memsnap_mut(&mut self) -> &mut MemSnap {
        &mut self.ms
    }

    /// Node pages allocated so far (diagnostics).
    pub fn pages_used(&self) -> u64 {
        self.list.pages_used()
    }

    /// Installs a deterministic fault plan on the underlying device
    /// (robustness testing).
    pub fn set_fault_plan(&mut self, plan: msnap_disk::FaultPlan) {
        self.ms.set_fault_plan(plan);
    }

    /// Acknowledges and clears the store's sticky persist error,
    /// returning it. Until this is called, every write keeps reporting
    /// the failure (fsync-gate semantics).
    pub fn ack_error(&mut self) -> Option<memsnap::MsnapError> {
        self.ms
            .msnap_ack_error(RegionSel::Region(self.list.region.md))
    }

    /// Runs one IO-budgeted slice of the store's online integrity
    /// scrub — the KV host's background maintenance hook. Digest
    /// verification covers the MemTable's committed pages and index
    /// nodes; rot is healed from retained snapshots where a clean copy
    /// exists, else quarantined and reported via the store (see
    /// [`memsnap::MemSnap::msnap_scrub`]).
    ///
    /// # Errors
    ///
    /// A wrapped store IO error; detected corruption is counted in the
    /// returned [`memsnap::ScrubStats`], not raised.
    pub fn scrub(
        &mut self,
        vt: &mut Vt,
        budget: u64,
    ) -> Result<memsnap::ScrubStats, crate::KvError> {
        Ok(self.ms.msnap_scrub(vt, budget)?)
    }

    /// Pins the MemTable's current durable state as the named retained
    /// snapshot (every `Put`/`MultiPut` commits before returning, so the
    /// durable state is the latest acknowledged one). Readers scan it
    /// with [`MemSnapKv::snapshot_scan`] while writes keep flowing.
    ///
    /// # Errors
    ///
    /// A wrapped store error (duplicate name, catalog full, IO).
    pub fn snapshot(&mut self, vt: &mut Vt, name: &str) -> Result<memsnap::Epoch, crate::KvError> {
        Ok(self.ms.msnap_snapshot(vt, self.list.region.md, name)?)
    }

    /// Deletes a retained snapshot, releasing its pinned blocks.
    ///
    /// # Errors
    ///
    /// A wrapped store error if the snapshot does not exist.
    pub fn snapshot_delete(&mut self, vt: &mut Vt, name: &str) -> Result<(), crate::KvError> {
        Ok(self.ms.msnap_snapshot_delete(vt, name)?)
    }

    /// Ordered point-in-time scan of a retained snapshot: maps the
    /// snapshot image read-only at a fresh address and walks its
    /// persistent linked list — the node pages carry page-relative links,
    /// so the pinned image is self-contained. Puts committed after the
    /// snapshot are invisible, no matter how many have landed since.
    ///
    /// # Errors
    ///
    /// A wrapped [`memsnap::MsnapError::BadDescriptor`] for an unknown
    /// snapshot name.
    pub fn snapshot_scan(
        &mut self,
        vt: &mut Vt,
        name: &str,
    ) -> Result<Vec<(u64, Vec<u8>)>, crate::KvError> {
        let view = self.ms.msnap_open_at(vt, self.space, name)?;
        let mut out = Vec::new();
        let mut buf = [0u8; PAGE];
        self.ms.read(vt, self.space, view.addr, &mut buf)?;
        let mut next = decode_head(&buf).unwrap_or(0);
        while next != 0 {
            self.ms
                .read(vt, self.space, view.addr + next * PAGE as u64, &mut buf)?;
            let node = decode_node(&buf).expect("snapshot list points at valid nodes");
            out.push((node.key, node.value));
            next = node.next;
        }
        Ok(out)
    }

    fn persist(&mut self, vt: &mut Vt) -> Result<(), crate::KvError> {
        let thread = vt.id();
        self.ms.msnap_persist(
            vt,
            thread,
            RegionSel::Region(self.list.region.md),
            PersistFlags::sync(),
        )?;
        self.stats.commits += 1;
        Ok(())
    }

    /// Applies `pairs` to the MemTable and enqueues the calling thread's
    /// dirty nodes into a cross-thread group commit; redeem the ticket
    /// with [`MemSnapKv::persist_poll`]. The enqueue copies the node
    /// pages eagerly, so the thread may start its next batch immediately
    /// — concurrent threads' writes land in their own dirty sets and
    /// coalesce into the same window.
    ///
    /// # Errors
    ///
    /// As for [`Kv::multi_put`].
    pub fn multi_put_enqueue(
        &mut self,
        vt: &mut Vt,
        pairs: &[(u64, Vec<u8>)],
    ) -> Result<memsnap::CommitTicket, crate::KvError> {
        for (key, value) in pairs {
            self.list
                .insert_volatile(&mut self.ms, self.space, vt, *key, value);
        }
        let thread = vt.id();
        let ticket =
            self.ms
                .msnap_persist_grouped(vt, thread, RegionSel::Region(self.list.region.md))?;
        Ok(ticket)
    }

    /// Polls a group-commit ticket from [`MemSnapKv::multi_put_enqueue`]:
    /// `Ok(true)` once the batch is durable, `Ok(false)` while its
    /// coalescing window is still open.
    ///
    /// # Errors
    ///
    /// The batch's error if the combined μCheckpoint failed — every batch
    /// participant is aborted and the store's error is sticky until
    /// [`MemSnapKv::ack_error`].
    pub fn persist_poll(
        &mut self,
        vt: &mut Vt,
        ticket: memsnap::CommitTicket,
    ) -> Result<bool, crate::KvError> {
        match self.ms.msnap_group_poll(vt, ticket)? {
            Some(_epoch) => {
                self.stats.commits += 1;
                Ok(true)
            }
            None => Ok(false),
        }
    }
}

impl Kv for MemSnapKv {
    fn put(&mut self, vt: &mut Vt, key: u64, value: &[u8]) -> Result<(), crate::KvError> {
        self.list
            .insert_volatile(&mut self.ms, self.space, vt, key, value);
        self.persist(vt)
    }

    fn multi_put(&mut self, vt: &mut Vt, pairs: &[(u64, Vec<u8>)]) -> Result<(), crate::KvError> {
        // WriteCommitted: all MemTable writes happen at commit, then one
        // μCheckpoint persists the whole batch atomically.
        for (key, value) in pairs {
            self.list
                .insert_volatile(&mut self.ms, self.space, vt, *key, value);
        }
        self.persist(vt)
    }

    fn get(&mut self, vt: &mut Vt, key: u64) -> Option<Vec<u8>> {
        self.list.get(&mut self.ms, self.space, vt, key)
    }

    fn seek(&mut self, vt: &mut Vt, key: u64, limit: usize) -> Vec<(u64, Vec<u8>)> {
        self.list.seek(&mut self.ms, self.space, vt, key, limit)
    }

    fn len(&self) -> usize {
        self.list.index.len()
    }

    fn stats(&self) -> KvStats {
        self.stats
    }

    fn meters(&self) -> Meters {
        self.ms.meters().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msnap_disk::DiskConfig;

    fn fresh() -> (MemSnapKv, Vt) {
        let mut vt = Vt::new(0);
        let kv = MemSnapKv::format(Disk::new(DiskConfig::paper()), 8192, &mut vt);
        (kv, vt)
    }

    #[test]
    fn dropped_write_aborts_the_put_without_panicking() {
        use msnap_disk::{Fault, FaultPlan};
        let (mut kv, mut vt) = fresh();
        kv.put(&mut vt, 1, b"durable").unwrap();
        kv.set_fault_plan(FaultPlan::new().at(
            kv.memsnap().disk().io_seq(),
            Fault::Drop { transient: false },
        ));
        let err = kv.put(&mut vt, 2, b"lost").unwrap_err();
        // Fsync-gate: the error is sticky until acknowledged, then the
        // retry persists the aborted write (it stayed in the MemTable).
        assert_eq!(kv.put(&mut vt, 3, b"also blocked").unwrap_err(), err);
        assert!(kv.ack_error().is_some());
        kv.put(&mut vt, 4, b"after ack").unwrap();
        assert_eq!(kv.get(&mut vt, 2).as_deref(), Some(&b"lost"[..]));
    }

    #[test]
    fn put_get_round_trip() {
        let (mut kv, mut vt) = fresh();
        kv.put(&mut vt, 5, b"five").unwrap();
        kv.put(&mut vt, 3, b"three").unwrap();
        kv.put(&mut vt, 9, b"nine").unwrap();
        assert_eq!(kv.get(&mut vt, 3), Some(b"three".to_vec()));
        assert_eq!(kv.get(&mut vt, 5), Some(b"five".to_vec()));
        assert_eq!(kv.get(&mut vt, 9), Some(b"nine".to_vec()));
        assert_eq!(kv.get(&mut vt, 4), None);
        assert_eq!(kv.len(), 3);
    }

    #[test]
    fn overwrite_updates_in_place() {
        let (mut kv, mut vt) = fresh();
        kv.put(&mut vt, 5, b"old").unwrap();
        let pages_before = kv.pages_used();
        kv.put(&mut vt, 5, b"new").unwrap();
        assert_eq!(kv.pages_used(), pages_before, "rewrite allocates no node");
        assert_eq!(kv.get(&mut vt, 5), Some(b"new".to_vec()));
        assert_eq!(kv.len(), 1);
    }

    #[test]
    fn put_persists_exactly_new_node_and_pred() {
        let (mut kv, mut vt) = fresh();
        kv.put(&mut vt, 10, b"a").unwrap(); // pred = head
        assert_eq!(kv.memsnap().last_persist_breakdown().pages, 2);
        kv.put(&mut vt, 20, b"b").unwrap(); // pred = node 10
        assert_eq!(kv.memsnap().last_persist_breakdown().pages, 2);
    }

    #[test]
    fn seek_returns_ordered_range() {
        let (mut kv, mut vt) = fresh();
        for k in [50u64, 10, 30, 20, 40] {
            kv.put(&mut vt, k, &k.to_le_bytes()).unwrap();
        }
        let got = kv.seek(&mut vt, 15, 3);
        let keys: Vec<u64> = got.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![20, 30, 40]);
    }

    #[test]
    fn crash_restore_rebuilds_skip_pointers() {
        let (mut kv, mut vt) = fresh();
        for k in 0..200u64 {
            kv.put(&mut vt, (k * 7919) % 200, &k.to_le_bytes()).unwrap();
        }
        let crash_at = vt.now();
        let disk = kv.crash(crash_at);

        let mut vt2 = Vt::new(1);
        let mut kv2 = MemSnapKv::restore(disk, &mut vt2);
        assert_eq!(kv2.len(), 200);
        let all = kv2.seek(&mut vt2, 0, 500);
        assert_eq!(all.len(), 200);
        let keys: Vec<u64> = all.iter().map(|(k, _)| *k).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "restored order");
    }

    #[test]
    fn unpersisted_tail_is_lost_but_prefix_consistent() {
        let (mut kv, mut vt) = fresh();
        kv.put(&mut vt, 1, b"one").unwrap();
        let after_first = vt.now();
        kv.put(&mut vt, 2, b"two").unwrap();
        let disk = kv.crash(after_first);

        let mut vt2 = Vt::new(1);
        let mut kv2 = MemSnapKv::restore(disk, &mut vt2);
        assert_eq!(kv2.get(&mut vt2, 1), Some(b"one".to_vec()));
        assert_eq!(kv2.get(&mut vt2, 2), None, "second put was not durable");
        assert_eq!(kv2.len(), 1);
    }

    #[test]
    fn multi_put_is_one_checkpoint() {
        let (mut kv, mut vt) = fresh();
        let pairs: Vec<(u64, Vec<u8>)> = (0..10u64).map(|k| (k, vec![k as u8; 8])).collect();
        kv.multi_put(&mut vt, &pairs).unwrap();
        assert_eq!(kv.stats().commits, 1);
        assert_eq!(
            kv.memsnap().meters().get("msnap_persist").unwrap().count(),
            1,
        );
    }

    #[test]
    fn multi_put_is_atomic_across_crash() {
        let (mut kv, mut vt) = fresh();
        kv.put(&mut vt, 100, b"base").unwrap();
        let before_batch = vt.now();
        let pairs: Vec<(u64, Vec<u8>)> = (0..20u64).map(|k| (k, vec![1u8; 4])).collect();
        kv.multi_put(&mut vt, &pairs).unwrap();
        // Crash mid-batch-persist: the batch must be all-or-nothing.
        let disk = kv.crash(before_batch + Nanos::from_us(20));

        let mut vt2 = Vt::new(1);
        let mut kv2 = MemSnapKv::restore(disk, &mut vt2);
        let batch_present = (0..20u64)
            .filter(|k| kv2.get(&mut vt2, *k).is_some())
            .count();
        assert!(
            batch_present == 0 || batch_present == 20,
            "torn batch: {batch_present}/20 keys"
        );
    }

    #[test]
    fn background_scrub_is_clean_and_keeps_snapshot_scans_stable() {
        let (mut kv, mut vt) = fresh();
        for k in 0..32u64 {
            kv.put(&mut vt, k, format!("v{k}").as_bytes()).unwrap();
        }
        kv.snapshot(&mut vt, "pin").unwrap();
        for k in 0..16u64 {
            kv.put(&mut vt, k, b"rewritten").unwrap();
        }
        // Scrub a full pass in small slices between (conceptually)
        // foreground puts — a clean store reports zero corruption.
        let mut guard = 0;
        while kv.memsnap().store().scrub_stats().passes == 0 {
            kv.scrub(&mut vt, 16).unwrap();
            guard += 1;
            assert!(guard < 100_000, "scrub never completed a pass");
        }
        let stats = kv.memsnap().store().scrub_stats();
        assert_eq!(stats.corruptions_found, 0, "{stats:?}");
        assert!(stats.pages_verified > 0);
        // The pinned view is untouched by the scrub's verification.
        let pinned = kv.snapshot_scan(&mut vt, "pin").unwrap();
        assert_eq!(pinned.len(), 32);
        assert_eq!(pinned[7].1, b"v7".to_vec());
        assert_eq!(kv.get(&mut vt, 7), Some(b"rewritten".to_vec()));
    }
}
