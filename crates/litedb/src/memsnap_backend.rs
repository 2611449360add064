//! The MemSnap backend: the paper's SQLite plugin (§7.1).
//!
//! The database lives in a single MemSnap region; page writes modify the
//! region in place (dirty-tracked by the VM), and a commit is one
//! `msnap_persist` of the calling thread's dirty set. The WAL is gone;
//! "to the upper layers … the MemSnap plugin semantically is identical to
//! a checkpoint occurring after every transaction."

use memsnap::{MemSnap, PersistFlags, RegionHandle, RegionSel};
use msnap_disk::Disk;
use msnap_sim::{Meters, Nanos, Vt, VthreadId};
use msnap_vm::AsId;

use crate::backend::{Backend, BackendStats, CommitError};
use crate::PAGE_SIZE;

/// Default region capacity: 2^16 pages (256 MiB).
pub const DEFAULT_CAPACITY_PAGES: u64 = 1 << 16;

/// The MemSnap plugin backend. See the module docs.
#[derive(Debug)]
pub struct MemSnapBackend {
    ms: MemSnap,
    space: AsId,
    region: RegionHandle,
    stats: BackendStats,
    /// Epoch of the most recent asynchronous commit (for `sync`).
    pending_epoch: Option<memsnap::Epoch>,
}

impl MemSnapBackend {
    /// Creates a fresh database region named `name` on `disk`.
    pub fn format(disk: Disk, name: &str, vt: &mut Vt) -> Self {
        Self::format_with_capacity(disk, name, DEFAULT_CAPACITY_PAGES, vt)
    }

    /// Creates a fresh database region with an explicit page capacity.
    pub fn format_with_capacity(disk: Disk, name: &str, pages: u64, vt: &mut Vt) -> Self {
        Self::format_sharded(disk, name, pages, 1, vt)
    }

    /// Creates a fresh database region on a store partitioned into
    /// `shards` commit shards (see `MemSnap::format_sharded`) — the knob
    /// for multi-database deployments where concurrent commits should
    /// not serialize on one allocator and coalescer.
    pub fn format_sharded(disk: Disk, name: &str, pages: u64, shards: usize, vt: &mut Vt) -> Self {
        let mut ms = MemSnap::format_sharded(disk, shards);
        let space = ms.vm_mut().create_space();
        let region = ms
            .msnap_open(vt, space, name, pages)
            .expect("fresh store accepts the database region");
        MemSnapBackend {
            ms,
            space,
            region,
            stats: BackendStats::default(),
            pending_epoch: None,
        }
    }

    /// Restores the database after a crash: reopens the store, remaps the
    /// region at its fixed address, and pages the durable image in.
    ///
    /// # Panics
    ///
    /// Panics if `disk` holds no region named `name`. Use
    /// [`MemSnapBackend::try_restore`] when the device may predate the
    /// database (e.g. a crash sweep that can land mid-format).
    pub fn restore(disk: Disk, name: &str, vt: &mut Vt) -> Self {
        Self::try_restore(disk, name, vt).expect("device holds the database region")
    }

    /// Fallible [`MemSnapBackend::restore`]: reports an unformatted
    /// device or a missing region as an error instead of panicking.
    ///
    /// # Errors
    ///
    /// [`memsnap::MsnapError`] when the device holds no MemSnap store or
    /// the store holds no region named `name`.
    pub fn try_restore(disk: Disk, name: &str, vt: &mut Vt) -> Result<Self, memsnap::MsnapError> {
        let mut ms = MemSnap::restore(vt, disk)?;
        let space = ms.vm_mut().create_space();
        let region = ms.msnap_open(vt, space, name, 0)?;
        Ok(MemSnapBackend {
            ms,
            space,
            region,
            stats: BackendStats::default(),
            pending_epoch: None,
        })
    }

    /// Simulates a power failure at `at`; returns the device for
    /// [`MemSnapBackend::restore`].
    pub fn crash(self, at: Nanos) -> Disk {
        self.ms.crash(at)
    }

    /// Returns the device un-crashed and un-settled, for
    /// [`msnap_disk::crash_at_every_io`] sweeps.
    pub fn into_disk(self) -> Disk {
        self.ms.into_disk()
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

    /// Installs a deterministic fault plan on the underlying device
    /// (robustness testing).
    pub fn set_fault_plan(&mut self, plan: msnap_disk::FaultPlan) {
        self.ms.set_fault_plan(plan);
    }

    /// Acknowledges and clears the database region's sticky persist
    /// error, returning it. Until this is called, every commit and sync
    /// keeps reporting the failure (fsync-gate semantics).
    pub fn ack_error(&mut self) -> Option<memsnap::MsnapError> {
        self.ms.msnap_ack_error(RegionSel::Region(self.region.md))
    }

    /// Runs one IO-budgeted slice of the store's online integrity scrub
    /// — the database host's maintenance hook (call from an idle or
    /// vacuum loop). Latent media rot under committed pages is detected
    /// by digest, healed from retained snapshots where a clean copy
    /// exists, and otherwise quarantined and reported through
    /// [`memsnap::MemSnap::store`]'s `unrepaired_pages`.
    ///
    /// # Errors
    ///
    /// A wrapped store IO error; detected corruption is counted in the
    /// returned [`memsnap::ScrubStats`], not raised.
    pub fn scrub(&mut self, vt: &mut Vt, budget: u64) -> Result<memsnap::ScrubStats, CommitError> {
        Ok(self.ms.msnap_scrub(vt, budget)?)
    }
}

impl Backend for MemSnapBackend {
    fn read_page(&mut self, vt: &mut Vt, page: u64, out: &mut [u8; PAGE_SIZE]) {
        // Plain memory access: no syscall, no buffer cache.
        self.ms
            .read(
                vt,
                self.space,
                self.region.addr + page * PAGE_SIZE as u64,
                out,
            )
            .expect("region reads are infallible");
    }

    fn write_page(&mut self, vt: &mut Vt, thread: VthreadId, page: u64, data: &[u8; PAGE_SIZE]) {
        self.ms
            .write(
                vt,
                self.space,
                thread,
                self.region.addr + page * PAGE_SIZE as u64,
                data,
            )
            .expect("region writes are infallible");
        self.stats.pages_persisted += 1;
    }

    fn commit(&mut self, vt: &mut Vt, thread: VthreadId) -> Result<(), CommitError> {
        self.ms.msnap_persist(
            vt,
            thread,
            RegionSel::Region(self.region.md),
            PersistFlags::sync(),
        )?;
        self.stats.commits += 1;
        Ok(())
    }

    fn commit_async(&mut self, vt: &mut Vt, thread: VthreadId) -> Result<(), CommitError> {
        let epoch = self.ms.msnap_persist(
            vt,
            thread,
            RegionSel::Region(self.region.md),
            PersistFlags::async_(),
        )?;
        self.pending_epoch = Some(epoch);
        self.stats.commits += 1;
        Ok(())
    }

    fn sync(&mut self, vt: &mut Vt) -> Result<(), CommitError> {
        if let Some(epoch) = self.pending_epoch.take() {
            self.ms
                .msnap_wait(vt, RegionSel::Region(self.region.md), epoch)?;
        }
        Ok(())
    }

    fn commit_enqueue(
        &mut self,
        vt: &mut Vt,
        thread: VthreadId,
    ) -> Result<Option<memsnap::CommitTicket>, CommitError> {
        let ticket =
            self.ms
                .msnap_persist_grouped(vt, thread, RegionSel::Region(self.region.md))?;
        Ok(Some(ticket))
    }

    fn commit_poll(
        &mut self,
        vt: &mut Vt,
        ticket: memsnap::CommitTicket,
    ) -> Result<bool, CommitError> {
        match self.ms.msnap_group_poll(vt, ticket)? {
            Some(_epoch) => {
                self.stats.commits += 1;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    fn capacity_pages(&self) -> u64 {
        self.region.pages
    }

    fn stats(&self) -> BackendStats {
        self.stats
    }

    fn meters(&self) -> Meters {
        self.ms.meters().clone()
    }

    fn reset_metrics(&mut self) {
        self.stats = BackendStats::default();
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msnap_disk::DiskConfig;

    fn page_of(b: u8) -> [u8; PAGE_SIZE] {
        [b; PAGE_SIZE]
    }

    fn setup() -> (MemSnapBackend, Vt) {
        let mut vt = Vt::new(0);
        let b = MemSnapBackend::format_with_capacity(
            Disk::new(DiskConfig::paper()),
            "test.db",
            1024,
            &mut vt,
        );
        (b, vt)
    }

    #[test]
    fn write_commit_read_round_trip() {
        let (mut b, mut vt) = setup();
        let t = vt.id();
        b.write_page(&mut vt, t, 5, &page_of(0xBB));
        b.commit(&mut vt, t).unwrap();
        let mut out = page_of(0);
        b.read_page(&mut vt, 5, &mut out);
        assert_eq!(out, page_of(0xBB));
    }

    #[test]
    fn committed_pages_survive_crash_uncommitted_lost() {
        let (mut b, mut vt) = setup();
        let t = vt.id();
        b.write_page(&mut vt, t, 3, &page_of(1));
        b.commit(&mut vt, t).unwrap();
        b.write_page(&mut vt, t, 4, &page_of(2)); // uncommitted
        let disk = b.crash(vt.now());

        let mut vt2 = Vt::new(1);
        let mut b2 = MemSnapBackend::restore(disk, "test.db", &mut vt2);
        let mut out = page_of(9);
        b2.read_page(&mut vt2, 3, &mut out);
        assert_eq!(out, page_of(1));
        b2.read_page(&mut vt2, 4, &mut out);
        assert_eq!(out, page_of(0), "uncommitted page lost");
    }

    #[test]
    fn commit_uses_a_single_persist_call() {
        let (mut b, mut vt) = setup();
        let t = vt.id();
        for p in 0..10u64 {
            b.write_page(&mut vt, t, p, &page_of(p as u8));
        }
        b.commit(&mut vt, t).unwrap();
        let meters = b.meters();
        assert_eq!(meters.get("msnap_persist").unwrap().count(), 1);
        assert!(meters.get("fsync").is_none(), "no fsync anywhere");
        assert!(meters.get("write").is_none(), "no write syscalls");
    }

    #[test]
    fn rewriting_a_page_in_txn_is_one_dirty_page() {
        let (mut b, mut vt) = setup();
        let t = vt.id();
        b.write_page(&mut vt, t, 7, &page_of(1));
        b.write_page(&mut vt, t, 7, &page_of(2));
        b.commit(&mut vt, t).unwrap();
        // Unlike the WAL baseline, the second write is free: one page in
        // the μCheckpoint.
        assert_eq!(b.memsnap().last_persist_breakdown().pages, 1);
    }

    #[test]
    fn maintenance_scrub_detects_rot_under_committed_pages() {
        let (mut b, mut vt) = setup();
        let t = vt.id();
        b.write_page(&mut vt, t, 0, &page_of(0xAA));
        b.commit(&mut vt, t).unwrap();

        // A clean database scrubs clean.
        let mut guard = 0;
        while b.memsnap().store().scrub_stats().passes == 0 {
            b.scrub(&mut vt, 8).unwrap();
            guard += 1;
            assert!(guard < 10_000, "scrub never completed a pass");
        }
        assert_eq!(b.memsnap().store().scrub_stats().corruptions_found, 0);

        // Rot the committed page's media copy behind the cache's back;
        // the next scrub pass catches it by digest and, with no clean
        // local source, quarantines and reports it for peer repair.
        {
            let (_, disk) = b.memsnap_mut().replication_parts();
            let want = page_of(0xAA);
            let mut live = None;
            for blk in 0..16384 {
                if disk.peek(blk).is_some_and(|img| img == want) {
                    live = Some(blk);
                }
            }
            disk.corrupt_bit(live.expect("committed page on media"), 17, 3);
        }
        let mut guard = 0;
        while b.memsnap().store().scrub_stats().passes < 2 {
            b.scrub(&mut vt, 8).unwrap();
            guard += 1;
            assert!(guard < 10_000, "scrub never completed a pass");
        }
        let stats = b.memsnap().store().scrub_stats();
        assert!(stats.corruptions_found >= 1, "{stats:?}");
        assert!(b.memsnap().store().quarantined_blocks() >= 1);
        assert!(
            !b.memsnap().store().unrepaired_pages().is_empty(),
            "no retained snapshot: the rot is reported, not hidden"
        );
    }
}
