//! The four storage stacks of Figure 6.

use std::collections::{BTreeMap, BTreeSet};

use memsnap::{MemSnap, PersistFlags, RegionHandle, RegionSel};
use msnap_disk::Disk;
use msnap_fs::{Fd, FileSystem, FsKind, WriteAheadLog};
use msnap_sim::{Category, Nanos, Vt, VthreadId};
use msnap_vm::AsId;

/// PostgreSQL's block size: 8 KiB (two MemSnap tracking pages — "a 4 KiB
/// dirty page within standard PostgreSQL can result in 16 KiB of
/// writes").
pub const PG_BLOCK: usize = 8192;

/// Which storage stack a [`BlockStore`] models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StoreVariant {
    /// Buffer cache + WAL (full-page writes) + checkpointer on FFS.
    Baseline,
    /// Memory-mapped table files ("ffs-mmap").
    FfsMmap,
    /// Memory-mapped and modified in place ("ffs-mmap-bufdirect").
    FfsMmapBufdirect,
    /// MemSnap regions, no WAL, no checkpointer.
    MemSnap,
}

/// Device-level IO summary for one run (the lower panels of Figure 6).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IoReport {
    /// Bytes written to the device.
    pub bytes_written: u64,
    /// Average write throughput in MiB/s over the run.
    pub write_mib_s: f64,
    /// Average IOs per second over the run.
    pub iops: f64,
}

mod costs {
    use msnap_sim::Nanos;

    /// Buffer-manager lookup + pin + lock for one block access.
    pub const BUFMGR_ACCESS: Nanos = Nanos::from_ns(1_100);
    /// Copying a modified image back into the buffer.
    pub const BUFMGR_WRITE: Nanos = Nanos::from_ns(600);
    /// Direct load/store through a mapping.
    pub const MMAP_ACCESS: Nanos = Nanos::from_ns(250);
    /// Soft page fault on first store to an mmap'd page per checkpoint
    /// interval (includes the TLB shootdown of the write-protect flip).
    pub const MMAP_WRITE_FAULT: Nanos = Nanos::from_ns(1_500);
    /// Building one WAL record.
    pub const WAL_RECORD: Nanos = Nanos::from_ns(700);
    /// Size of a non-full-page WAL record.
    pub const WAL_DELTA_BYTES: usize = 200;
    /// Per-block msync overhead at checkpoint for the mmap variants.
    pub const MSYNC_PER_BLOCK: Nanos = Nanos::from_us(2);
    /// Per-block msync overhead on every *commit* for bufdirect (no
    /// buffer staging to absorb it).
    pub const MSYNC_COMMIT_PER_BLOCK: Nanos = Nanos::from_us(8);
    /// Fixed msync cost per checkpoint: scanning the mapping's page
    /// tables for dirty PTEs (the Figure 1 baseline, at a multi-GiB
    /// mapping scale) — the cost the "mmap in your DBMS" literature
    /// attributes to mapped persistence.
    pub const MSYNC_TABLE_SCAN: Nanos = Nanos::from_us(250);
}

struct FileState {
    disk: Disk,
    fs: FileSystem,
    wal: WriteAheadLog,
    /// Group commit: completion instants of the in-flight and (at most
    /// one) pending WAL flush. Commits arriving while a flush is in
    /// flight board the next one.
    flush_queue: std::collections::VecDeque<Nanos>,
    table_fds: Vec<Fd>,
    /// Authoritative block images (buffer cache / mapped memory).
    blocks: BTreeMap<(u32, u64), Box<[u8]>>,
    /// Per-connection transaction dirty sets.
    txn_dirty: Vec<BTreeSet<(u32, u64)>>,
    /// Blocks dirtied since the last checkpoint (full-page-write and
    /// checkpoint bookkeeping).
    since_ckpt: BTreeSet<(u32, u64)>,
    /// mmap variants: pages already write-faulted this interval.
    faulted: BTreeSet<(u32, u64)>,
    ckpt_wal_bytes: u64,
    checkpoints: u64,
    /// A checkpoint in progress suppresses new requests until this
    /// instant (PostgreSQL skips a request while one is running).
    ckpt_busy_until: Nanos,
    /// Time-based trigger (PostgreSQL's checkpoint_timeout, scaled).
    ckpt_interval: Nanos,
    last_ckpt: Nanos,
}

struct MsState {
    ms: MemSnap,
    /// One address space per connection (PostgreSQL is multi-process).
    spaces: Vec<AsId>,
    regions: Vec<RegionHandle>,
}

/// A block-granular storage engine backend in one of four
/// [`StoreVariant`]s. See the crate docs.
pub struct BlockStore {
    variant: StoreVariant,
    file: Option<FileState>,
    ms: Option<MsState>,
    commits: u64,
}

impl std::fmt::Debug for BlockStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockStore")
            .field("variant", &self.variant)
            .field("commits", &self.commits)
            .finish()
    }
}

impl BlockStore {
    /// Creates a store for `ntables` tables and `nconns` connections.
    /// `table_blocks` caps each table's size (region capacity for the
    /// MemSnap variant).
    pub fn new(
        variant: StoreVariant,
        disk: Disk,
        ntables: u32,
        nconns: usize,
        table_blocks: u64,
        vt: &mut Vt,
    ) -> Self {
        match variant {
            StoreVariant::MemSnap => {
                let mut ms = MemSnap::format(disk);
                let spaces: Vec<AsId> = (0..nconns).map(|_| ms.vm_mut().create_space()).collect();
                let mut regions = Vec::new();
                for t in 0..ntables {
                    let name = format!("pg/base/table-{t}");
                    let pages = table_blocks * (PG_BLOCK / 4096) as u64;
                    let mut handle = None;
                    for &space in &spaces {
                        handle = Some(
                            ms.msnap_open(vt, space, &name, pages)
                                .expect("fresh store accepts table regions"),
                        );
                    }
                    regions.push(handle.expect("at least one connection"));
                }
                BlockStore {
                    variant,
                    file: None,
                    ms: Some(MsState {
                        ms,
                        spaces,
                        regions,
                    }),
                    commits: 0,
                }
            }
            _ => {
                let mut fs = FileSystem::new(FsKind::Ffs);
                let wal = WriteAheadLog::create(vt, &mut fs, "pg_wal");
                let table_fds = (0..ntables)
                    .map(|t| fs.create(vt, &format!("base/table-{t}")))
                    .collect();
                BlockStore {
                    variant,
                    file: Some(FileState {
                        disk,
                        fs,
                        wal,
                        flush_queue: std::collections::VecDeque::new(),
                        table_fds,
                        blocks: BTreeMap::new(),
                        txn_dirty: (0..nconns).map(|_| BTreeSet::new()).collect(),
                        since_ckpt: BTreeSet::new(),
                        faulted: BTreeSet::new(),
                        ckpt_wal_bytes: 16 << 20,
                        checkpoints: 0,
                        ckpt_busy_until: Nanos::ZERO,
                        ckpt_interval: Nanos::from_ms(40),
                        last_ckpt: Nanos::ZERO,
                    }),
                    ms: None,
                    commits: 0,
                }
            }
        }
    }

    /// The modeled variant.
    pub fn variant(&self) -> StoreVariant {
        self.variant
    }

    /// Overrides the checkpoint trigger (file variants).
    pub fn set_ckpt_wal_bytes(&mut self, bytes: u64) {
        if let Some(f) = &mut self.file {
            f.ckpt_wal_bytes = bytes;
        }
    }

    /// Overrides the time-based checkpoint trigger (file variants) —
    /// PostgreSQL's checkpoint_timeout, scaled to the run length.
    pub fn set_ckpt_interval(&mut self, interval: Nanos) {
        if let Some(f) = &mut self.file {
            f.ckpt_interval = interval;
        }
    }

    /// Checkpoints performed (file variants).
    pub fn checkpoints(&self) -> u64 {
        self.file.as_ref().map_or(0, |f| f.checkpoints)
    }

    /// Commits performed.
    pub fn commits(&self) -> u64 {
        self.commits
    }

    /// Resets device IO statistics (benchmark warm-up boundary).
    pub fn reset_io_stats(&mut self) {
        match self.variant {
            StoreVariant::MemSnap => self
                .ms
                .as_mut()
                .expect("memsnap state")
                .ms
                .reset_disk_stats(),
            _ => self.file.as_mut().expect("file state").disk.reset_stats(),
        }
    }

    /// Reads a block.
    pub fn read(&mut self, vt: &mut Vt, _conn: usize, table: u32, block: u64, out: &mut [u8]) {
        assert_eq!(out.len(), PG_BLOCK);
        match self.variant {
            StoreVariant::MemSnap => {
                let ms = self.ms.as_mut().expect("memsnap state");
                let region = &ms.regions[table as usize];
                ms.ms
                    .read(
                        vt,
                        ms.spaces[_conn],
                        region.addr + block * PG_BLOCK as u64,
                        out,
                    )
                    .expect("region reads are infallible");
            }
            StoreVariant::Baseline => {
                let f = self.file.as_mut().expect("file state");
                vt.charge(Category::BufferCache, costs::BUFMGR_ACCESS);
                match f.blocks.get(&(table, block)) {
                    Some(data) => out.copy_from_slice(data),
                    None => out.fill(0),
                }
            }
            StoreVariant::FfsMmap => {
                // Mapped *files*: the buffer manager still fronts every
                // access; only the backing storage changed.
                let f = self.file.as_mut().expect("file state");
                vt.charge(Category::BufferCache, costs::BUFMGR_ACCESS);
                match f.blocks.get(&(table, block)) {
                    Some(data) => out.copy_from_slice(data),
                    None => out.fill(0),
                }
            }
            StoreVariant::FfsMmapBufdirect => {
                // Direct access to mapped data: no buffer manager.
                let f = self.file.as_mut().expect("file state");
                vt.charge(Category::TxMemory, costs::MMAP_ACCESS);
                match f.blocks.get(&(table, block)) {
                    Some(data) => out.copy_from_slice(data),
                    None => out.fill(0),
                }
            }
        }
    }

    /// Writes a block on behalf of a transaction; buffered until
    /// [`BlockStore::commit`].
    pub fn write(
        &mut self,
        vt: &mut Vt,
        conn: usize,
        thread: VthreadId,
        table: u32,
        block: u64,
        data: &[u8],
    ) {
        assert_eq!(data.len(), PG_BLOCK);
        match self.variant {
            StoreVariant::MemSnap => {
                // The engine hands us a whole 8 KiB block image, but the
                // stores that actually modified memory touched far less;
                // MemSnap's 4 KiB tracking granularity means only the
                // changed page(s) join the μCheckpoint ("a 4 KiB dirty
                // page within standard PostgreSQL can result in 16 KiB of
                // writes" — here it results in 4 KiB).
                let ms = self.ms.as_mut().expect("memsnap state");
                let region = &ms.regions[table as usize];
                let base = region.addr + block * PG_BLOCK as u64;
                let mut current = vec![0u8; PG_BLOCK];
                ms.ms
                    .read(vt, ms.spaces[conn], base, &mut current)
                    .expect("region reads are infallible");
                for (i, chunk) in data.chunks(4096).enumerate() {
                    if chunk != &current[i * 4096..i * 4096 + chunk.len()] {
                        ms.ms
                            .write(vt, ms.spaces[conn], thread, base + (i * 4096) as u64, chunk)
                            .expect("region writes are infallible");
                    }
                }
            }
            StoreVariant::Baseline => {
                let f = self.file.as_mut().expect("file state");
                vt.charge(
                    Category::BufferCache,
                    costs::BUFMGR_ACCESS + costs::BUFMGR_WRITE,
                );
                f.blocks
                    .insert((table, block), data.to_vec().into_boxed_slice());
                f.txn_dirty[conn].insert((table, block));
            }
            StoreVariant::FfsMmap | StoreVariant::FfsMmapBufdirect => {
                let f = self.file.as_mut().expect("file state");
                if self.variant == StoreVariant::FfsMmap {
                    vt.charge(
                        Category::BufferCache,
                        costs::BUFMGR_ACCESS + costs::BUFMGR_WRITE,
                    );
                } else {
                    vt.charge(Category::TxMemory, costs::MMAP_ACCESS);
                }
                if f.faulted.insert((table, block)) {
                    vt.charge(Category::PageFault, costs::MMAP_WRITE_FAULT);
                }
                f.blocks
                    .insert((table, block), data.to_vec().into_boxed_slice());
                f.txn_dirty[conn].insert((table, block));
            }
        }
    }

    /// Durably commits the transaction's writes.
    pub fn commit(&mut self, vt: &mut Vt, conn: usize, thread: VthreadId) {
        self.commits += 1;
        match self.variant {
            StoreVariant::MemSnap => {
                let ms = self.ms.as_mut().expect("memsnap state");
                // One μCheckpoint covering the dirty pages of every table
                // region ("an IO for every table object modified during
                // every transaction").
                ms.ms
                    .msnap_persist(vt, thread, RegionSel::All, PersistFlags::sync())
                    .expect("regions exist");
            }
            _ => {
                let bufdirect = self.variant == StoreVariant::FfsMmapBufdirect;
                let f = self.file.as_mut().expect("file state");
                let dirty = std::mem::take(&mut f.txn_dirty[conn]);
                if dirty.is_empty() {
                    return;
                }
                if bufdirect {
                    // Directly modified mapped pages must be msynced at
                    // commit: without buffer staging there is nothing to
                    // defer the flush to, so every commit pays the
                    // mapping scan plus per-page work.
                    vt.charge(
                        Category::Memsnap,
                        costs::MSYNC_TABLE_SCAN
                            + costs::MSYNC_COMMIT_PER_BLOCK * dirty.len() as u64,
                    );
                }
                for &(table, block) in &dirty {
                    vt.charge(Category::Log, costs::WAL_RECORD);
                    // full_page_writes: the first modification of a block
                    // after a checkpoint logs the whole image; bufdirect
                    // logs a full image every time (no buffer staging).
                    let full = f.since_ckpt.insert((table, block)) || bufdirect;
                    let payload_len = if full {
                        PG_BLOCK
                    } else {
                        costs::WAL_DELTA_BYTES
                    };
                    let mut record = Vec::with_capacity(16 + payload_len);
                    record.extend_from_slice(&(table as u64).to_le_bytes());
                    record.extend_from_slice(&block.to_le_bytes());
                    record.extend_from_slice(&f.blocks[&(table, block)][..payload_len]);
                    vt.charge(Category::Locking, Nanos::from_ns(400)); // WALInsertLock
                    f.wal.append(vt, &mut f.disk, &mut f.fs, &record);
                }

                // Group commit: one fsync per flush window serves every
                // commit that boarded it, as PostgreSQL's WAL writer does.
                let now = vt.now();
                while f.flush_queue.front().is_some_and(|&e| e <= now) {
                    f.flush_queue.pop_front();
                }
                match f.flush_queue.len() {
                    0 => {
                        // Lead a flush immediately.
                        let end = f.fs.fsync(vt, &mut f.disk, f.wal.fd());
                        f.flush_queue.push_back(end);
                    }
                    1 => {
                        // Lead the next flush: it departs when the
                        // in-flight one completes.
                        let depart = f.flush_queue[0];
                        vt.wait_until(depart);
                        let end = f.fs.fsync(vt, &mut f.disk, f.wal.fd());
                        f.flush_queue.push_back(end);
                    }
                    _ => {
                        // Board the pending flush.
                        let end = *f.flush_queue.back().expect("non-empty");
                        let wait = end.saturating_sub(vt.now());
                        if wait > Nanos::ZERO {
                            vt.charge(Category::IoWait, wait);
                        }
                    }
                }
                let due =
                    f.wal.len() >= f.ckpt_wal_bytes || vt.now() >= f.last_ckpt + f.ckpt_interval;
                if due && !f.since_ckpt.is_empty() && vt.now() >= f.ckpt_busy_until {
                    let at = vt.now();
                    let latest = Self::checkpoint(f, at, self.variant, vt);
                    f.ckpt_busy_until = latest;
                    f.last_ckpt = at;
                    if self.variant != StoreVariant::Baseline {
                        // msync-based checkpoints stall the writer: the
                        // kernel write-protects and flushes mapped pages
                        // inline -- the mmap pathology. (PostgreSQL's own
                        // checkpointer runs in the background.)
                        let wait = latest.saturating_sub(vt.now());
                        if wait > Nanos::ZERO {
                            vt.charge(Category::IoWait, wait);
                        }
                    }
                }
            }
        }
    }

    /// Flushes dirty buffers into the table files and truncates the WAL.
    ///
    /// Runs on scratch clocks pinned to `at` (the checkpointer is its own
    /// process); `conn_vt` is charged the msync penalties for the mmap
    /// variants, whose flushes stall the triggering writer. Returns the
    /// instant the last table flush completes.
    fn checkpoint(f: &mut FileState, at: Nanos, variant: StoreVariant, conn_vt: &mut Vt) -> Nanos {
        // PostgreSQL sorts checkpoint writes so the file system can
        // coalesce them into sequential runs: the set iterates in order.
        let dirty = std::mem::take(&mut f.since_ckpt);
        let msync = variant != StoreVariant::Baseline;
        if msync {
            conn_vt.charge(Category::Memsnap, costs::MSYNC_TABLE_SCAN);
            conn_vt.charge(
                Category::Memsnap,
                costs::MSYNC_PER_BLOCK * dirty.len() as u64,
            );
        }
        let mut touched = BTreeSet::new();
        let mut writer = Vt::new(u32::MAX - 7);
        writer.wait_until(at);
        for (table, block) in dirty {
            let fd = f.table_fds[table as usize];
            let data = f.blocks[&(table, block)].clone();
            f.fs.write(&mut writer, &mut f.disk, fd, block * PG_BLOCK as u64, &data);
            touched.insert(table);
        }
        // Each file's flush is issued at the same instant on its own
        // scratch clock (the checkpointer overlaps them).
        let issue_at = writer.now();
        let mut latest = issue_at;
        for table in touched {
            let mut flusher = Vt::new(u32::MAX - 8);
            flusher.wait_until(issue_at);
            let end =
                f.fs.fsync(&mut flusher, &mut f.disk, f.table_fds[table as usize]);
            latest = latest.max(end);
        }
        let mut resetter = Vt::new(u32::MAX - 9);
        resetter.wait_until(issue_at);
        f.wal.reset(&mut resetter, &mut f.fs);
        if msync {
            // Mapped pages are write-protected again after msync; the
            // next store per page faults.
            f.faulted.clear();
        }
        f.checkpoints += 1;
        latest
    }

    /// Device IO summary over `elapsed` of virtual time.
    pub fn io_report(&self, elapsed: Nanos) -> IoReport {
        let stats = match self.variant {
            StoreVariant::MemSnap => self.ms.as_ref().expect("memsnap state").ms.disk().stats(),
            _ => self.file.as_ref().expect("file state").disk.stats(),
        };
        IoReport {
            bytes_written: stats.bytes_written(),
            write_mib_s: stats.write_mib_per_sec(elapsed),
            iops: stats.iops(elapsed),
        }
    }

    /// Runs one IO-budgeted slice of the store's online integrity scrub
    /// (MemSnap variant only) — the autovacuum-style maintenance hook.
    /// See [`memsnap::MemSnap::msnap_scrub`].
    ///
    /// # Errors
    ///
    /// A wrapped store IO error; detected corruption is counted in the
    /// returned [`memsnap::ScrubStats`], not raised.
    ///
    /// # Panics
    ///
    /// Panics on file variants, which have no digest-verified store.
    pub fn scrub(
        &mut self,
        vt: &mut Vt,
        budget: u64,
    ) -> Result<memsnap::ScrubStats, memsnap::MsnapError> {
        match self.variant {
            StoreVariant::MemSnap => self
                .ms
                .as_mut()
                .expect("memsnap state")
                .ms
                .msnap_scrub(vt, budget),
            _ => panic!("integrity scrub is implemented for the MemSnap variant"),
        }
    }

    /// Simulates a power failure (MemSnap variant only) and returns the
    /// device.
    ///
    /// # Panics
    ///
    /// Panics on file variants (their recovery path is WAL replay, which
    /// the evaluation does not exercise; see DESIGN.md).
    pub fn crash(self, at: Nanos) -> Disk {
        match self.variant {
            StoreVariant::MemSnap => self.ms.expect("memsnap state").ms.crash(at),
            _ => panic!("crash/restore is implemented for the MemSnap variant"),
        }
    }

    /// Restores a MemSnap-variant store after a crash.
    ///
    /// # Panics
    ///
    /// Panics if the device holds no MemSnap store with the expected
    /// table regions.
    pub fn restore(disk: Disk, ntables: u32, nconns: usize, vt: &mut Vt) -> Self {
        let mut ms = MemSnap::restore(vt, disk).expect("device holds a MemSnap store");
        let spaces: Vec<AsId> = (0..nconns).map(|_| ms.vm_mut().create_space()).collect();
        let mut regions = Vec::new();
        for t in 0..ntables {
            let name = format!("pg/base/table-{t}");
            let mut handle = None;
            for &space in &spaces {
                handle = Some(
                    ms.msnap_open(vt, space, &name, 0)
                        .expect("table region exists"),
                );
            }
            regions.push(handle.expect("at least one connection"));
        }
        BlockStore {
            variant: StoreVariant::MemSnap,
            file: None,
            ms: Some(MsState {
                ms,
                spaces,
                regions,
            }),
            commits: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msnap_disk::DiskConfig;

    fn block_of(b: u8) -> Vec<u8> {
        vec![b; PG_BLOCK]
    }

    fn fresh(variant: StoreVariant) -> (BlockStore, Vt) {
        let mut vt = Vt::new(0);
        let store = BlockStore::new(variant, Disk::new(DiskConfig::paper()), 2, 2, 256, &mut vt);
        (store, vt)
    }

    #[test]
    fn all_variants_round_trip_blocks() {
        for variant in [
            StoreVariant::Baseline,
            StoreVariant::FfsMmap,
            StoreVariant::FfsMmapBufdirect,
            StoreVariant::MemSnap,
        ] {
            let (mut store, mut vt) = fresh(variant);
            let t = vt.id();
            store.write(&mut vt, 0, t, 1, 3, &block_of(0xCD));
            store.commit(&mut vt, 0, t);
            let mut out = block_of(0);
            store.read(&mut vt, 1, 1, 3, &mut out);
            assert_eq!(out, block_of(0xCD), "{variant:?}");
        }
    }

    #[test]
    fn memsnap_commit_latency_beats_wal_commit() {
        let mut lat = Vec::new();
        for variant in [StoreVariant::MemSnap, StoreVariant::Baseline] {
            let (mut store, mut vt) = fresh(variant);
            let t = vt.id();
            store.write(&mut vt, 0, t, 0, 0, &block_of(1));
            store.commit(&mut vt, 0, t);
            let t0 = vt.now();
            store.write(&mut vt, 0, t, 0, 1, &block_of(2));
            store.commit(&mut vt, 0, t);
            lat.push(vt.now() - t0);
        }
        assert!(lat[0] < lat[1], "memsnap {} vs baseline {}", lat[0], lat[1]);
    }

    #[test]
    fn baseline_checkpoint_fires_and_truncates_wal() {
        let (mut store, mut vt) = fresh(StoreVariant::Baseline);
        store.set_ckpt_wal_bytes(64 * 1024);
        let t = vt.id();
        for b in 0..16u64 {
            store.write(&mut vt, 0, t, 0, b, &block_of(b as u8));
            store.commit(&mut vt, 0, t);
        }
        assert!(store.checkpoints() >= 1);
    }

    #[test]
    fn bufdirect_writes_more_wal_than_baseline() {
        // Rewriting the same block across txns: baseline logs one full
        // page then deltas; bufdirect logs full pages every time.
        let mut bytes = Vec::new();
        for variant in [StoreVariant::Baseline, StoreVariant::FfsMmapBufdirect] {
            let (mut store, mut vt) = fresh(variant);
            let t = vt.id();
            for i in 0..10u8 {
                store.write(&mut vt, 0, t, 0, 0, &block_of(i));
                store.commit(&mut vt, 0, t);
            }
            bytes.push(store.io_report(vt.now()).bytes_written);
        }
        assert!(
            bytes[1] > bytes[0] * 2,
            "bufdirect {} vs baseline {}",
            bytes[1],
            bytes[0]
        );
    }

    #[test]
    fn memsnap_crash_restore_recovers_committed_blocks() {
        let (mut store, mut vt) = fresh(StoreVariant::MemSnap);
        let t = vt.id();
        store.write(&mut vt, 0, t, 0, 5, &block_of(7));
        store.commit(&mut vt, 0, t);
        store.write(&mut vt, 0, t, 0, 6, &block_of(8)); // uncommitted
        let disk = store.crash(vt.now());

        let mut vt2 = Vt::new(1);
        let mut restored = BlockStore::restore(disk, 2, 2, &mut vt2);
        let mut out = block_of(0);
        restored.read(&mut vt2, 0, 0, 5, &mut out);
        assert_eq!(out, block_of(7));
        restored.read(&mut vt2, 0, 0, 6, &mut out);
        assert_eq!(out, block_of(0), "uncommitted block lost");
    }

    /// Eight-block transactions on four connections over six tables,
    /// through several checkpoints: where the clock ends and what the
    /// device saw.
    fn small_workload(variant: StoreVariant) -> (Nanos, u64, u64, u64) {
        let mut vt = Vt::new(0);
        let disk = Disk::new(DiskConfig::paper());
        let mut store = BlockStore::new(variant, disk, 6, 4, 256, &mut vt);
        store.set_ckpt_wal_bytes(64 * 1024);
        let t = vt.id();
        for txn in 0..96u64 {
            let conn = (txn % 4) as usize;
            for i in 0..8u64 {
                let (table, block) = ((txn + i) as u32 % 6, (txn * 7 + i * 13) % 96);
                store.write(&mut vt, conn, t, table, block, &block_of(txn as u8));
            }
            store.commit(&mut vt, conn, t);
        }
        let io = store.io_report(vt.now());
        let checkpoints = store.checkpoints();
        (vt.now(), io.bytes_written, checkpoints, io.iops.to_bits())
    }

    /// The file variants iterate their dirty sets in one order, so one
    /// workload repeats exactly within a process.
    #[test]
    fn file_variants_repeat_exactly() {
        for variant in [
            StoreVariant::Baseline,
            StoreVariant::FfsMmap,
            StoreVariant::FfsMmapBufdirect,
        ] {
            let first = small_workload(variant);
            assert!(first.2 >= 2, "{variant:?} checkpoints: {first:?}");
            for _ in 0..4 {
                assert_eq!(small_workload(variant), first, "{variant:?}");
            }
        }
    }

    #[test]
    fn mmap_first_write_faults_once_per_interval() {
        let (mut store, mut vt) = fresh(StoreVariant::FfsMmap);
        let t = vt.id();
        let faults = |vt: &Vt| vt.costs().get(Category::PageFault);
        store.write(&mut vt, 0, t, 0, 0, &block_of(1));
        let after_first = faults(&vt);
        assert!(after_first > Nanos::ZERO);
        store.write(&mut vt, 0, t, 0, 0, &block_of(2));
        assert_eq!(faults(&vt), after_first, "second write must not fault");
    }
}
