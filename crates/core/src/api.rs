//! The MemSnap single level store.

use std::collections::{BTreeMap, HashMap, VecDeque};

use msnap_disk::Disk;
use msnap_sim::hash::fnv1a32;
use msnap_sim::{Category, Meters, Nanos, Vt, VthreadId};
use msnap_store::{ObjectId as StoreObjId, ObjectStore, ScrubStats, VectorCut, BULK_READ_PAGES};
use msnap_vm::{AsId, DirtyPage, MemObjectId, ResetStrategy, TrackMode, Vm, PAGE_SIZE};

use crate::manifest::{Manifest, ManifestEntry};
use crate::types::{
    CommitTicket, IndexCarve, Md, MsnapError, PersistBreakdown, PersistFlags, RegionHandle,
    RegionSel, SnapshotView,
};
use crate::Epoch;

/// Base of the region address range: "the high end of the address space"
/// (§3), so region addresses never collide with ordinary mappings.
const REGION_VA_BASE: u64 = 0x7800_0000_0000;
/// Guard gap between consecutive regions, in pages.
const REGION_GUARD_PAGES: u64 = 16;
/// Name of the internal region-table object in the store.
const MANIFEST_NAME: &str = "__msnap_manifest";

/// Syscall entry/exit cost of a MemSnap call.
const SYSCALL_COST: Nanos = Nanos::from_ns(500);

/// Cost of copying one dirty page into the coalescing buffer at
/// group-commit enqueue time (an eager COW of the checkpoint image).
const GATHER_PER_PAGE: Nanos = Nanos::from_ns(150);

/// Default group-commit coalescing window (see
/// [`MemSnap::set_coalesce_window`]).
const DEFAULT_COALESCE_WINDOW: Nanos = Nanos::from_us(8);

/// Depth of the `MS_ASYNC` writeback pipeline: how many asynchronous
/// μCheckpoints may be in flight before admission blocks on the oldest.
const PIPELINE_DEPTH: usize = 8;

/// Coalescing lane for `RegionSel::All` group participants, whose dirty
/// sets may span every shard.
const ALL_LANE: u64 = u64::MAX;

/// How many per-commit sub-page extent records each object retains
/// (see [`MemSnap::subpage_extents`]); matches the replication engine's
/// deepest delta lag before it drops the base anyway.
const SUBPAGE_KEEP: usize = 64;

/// Dirty-line record of one μCheckpoint commit: which 64-byte lines of
/// which pages changed between `prev` and the epoch the record is keyed
/// under. The `prev` link lets a reader prove that a run of records
/// contiguously covers an epoch interval — any out-of-band commit
/// (apply_image, fence, restore) breaks the chain and the query reports
/// "unknown" instead of an unsound extent set.
#[derive(Debug)]
struct SubpageRecord {
    prev: Epoch,
    /// Page → dirty-line bitmap (bit `i` covers bytes `i*64..(i+1)*64`).
    pages: BTreeMap<u64, u64>,
}

/// Magic of an index-carve header ("PIXC").
const CARVE_MAGIC: u32 = 0x5049_5843;
/// Carve header format version.
const CARVE_VERSION: u32 = 1;
/// Encoded carve header length (the rest of page 0 up to
/// [`IndexCarve::META_OFF`] is reserved, and beyond it structure-owned).
const CARVE_HDR_LEN: usize = 32;

fn encode_carve_header(kind: u32, writers: u32, arena_pages: u64) -> [u8; CARVE_HDR_LEN] {
    let mut hdr = [0u8; CARVE_HDR_LEN];
    hdr[0..4].copy_from_slice(&CARVE_MAGIC.to_le_bytes());
    hdr[4..8].copy_from_slice(&CARVE_VERSION.to_le_bytes());
    hdr[8..12].copy_from_slice(&kind.to_le_bytes());
    hdr[12..16].copy_from_slice(&writers.to_le_bytes());
    hdr[16..24].copy_from_slice(&arena_pages.to_le_bytes());
    let cs = fnv1a32(&hdr[0..28]);
    hdr[28..32].copy_from_slice(&cs.to_le_bytes());
    hdr
}

/// Decodes and validates a carve header, returning
/// `(kind, writers, arena_pages)`.
fn decode_carve_header(hdr: &[u8; CARVE_HDR_LEN]) -> Option<(u32, u32, u64)> {
    let word = |at: usize| u32::from_le_bytes(hdr[at..at + 4].try_into().unwrap());
    if word(0) != CARVE_MAGIC || word(4) != CARVE_VERSION {
        return None;
    }
    if word(28) != fnv1a32(&hdr[0..28]) {
        return None;
    }
    let arena_pages = u64::from_le_bytes(hdr[16..24].try_into().unwrap());
    Some((word(8), word(12), arena_pages))
}

#[derive(Debug)]
struct Region {
    name: String,
    vm_obj: MemObjectId,
    store_obj: StoreObjId,
    addr: u64,
    pages: u64,
    mapped: Vec<AsId>,
    populated: bool,
}

/// One taken dirty page on its way into a μCheckpoint: its region index,
/// its dirty-list entry (kept so a failed commit can put it back —
/// fsync-gate retry semantics) and its image. `None` persists the page
/// **in place** from the VM page: the checkpoint-in-progress mark is the
/// COW. `Some` is the grouped door's eager copy, fixed at enqueue — later
/// writes to the page land in the writer's own dirty set and cannot
/// bleed into this μCheckpoint.
type TakenPage = (u32, DirtyPage, Option<Vec<u8>>);

/// One caller's contribution to a μCheckpoint.
#[derive(Debug)]
struct Participant {
    thread: VthreadId,
    sel: RegionSel,
    flags: PersistFlags,
    pages: Vec<TakenPage>,
    /// Enqueue instant, for end-to-end latency metering.
    start: Nanos,
}

/// What one [`MemSnap::commit_batch`] made durable.
struct Committed {
    /// Durability instant of the whole batch.
    completes: Nanos,
    /// How many regions it advanced by one epoch.
    regions: usize,
}

/// A group commit accepting participants until its window closes.
#[derive(Debug)]
struct OpenBatch {
    id: u64,
    /// The instant the coalescing window closes; the first poll at or
    /// after this instant flushes the batch.
    submit_at: Nanos,
    participants: Vec<Participant>,
}

/// A flushed group commit awaiting its participants' polls.
#[derive(Debug)]
struct FinishedBatch {
    /// Batch-wide outcome: a faulted batch fails *every* participant.
    error: Option<MsnapError>,
    /// Durability instant of the combined commit record.
    completes: Nanos,
    /// Per-participant `(flags, epoch, enqueue instant)`, removed as each
    /// participant polls; the batch is pruned when the map drains.
    results: HashMap<u32, (PersistFlags, Epoch, Nanos)>,
}

/// The MemSnap single level store: regions, μCheckpoints, crash/restore.
///
/// See the crate docs for the API mapping; construction is via
/// [`MemSnap::format`] (fresh device) or [`MemSnap::restore`] (after a
/// crash).
pub struct MemSnap {
    vm: Vm,
    disk: Disk,
    store: ObjectStore,
    manifest_obj: StoreObjId,
    regions: Vec<Region>,
    by_name: HashMap<String, Md>,
    next_va: u64,
    /// Durability instants: per-selector epoch → completion time.
    completions: HashMap<RegionSel, BTreeMap<Epoch, Nanos>>,
    /// Sticky per-region persist failures (fsync-gate semantics): once a
    /// μCheckpoint fails, the region's error is reported by every
    /// subsequent `msnap_persist`/`msnap_wait` until the application
    /// acknowledges it with [`MemSnap::msnap_ack_error`]. Never silently
    /// cleared.
    sticky: BTreeMap<u32, MsnapError>,
    all_epoch: Epoch,
    meters: Meters,
    last_breakdown: PersistBreakdown,
    /// Group-commit coalescing window ([`MemSnap::set_coalesce_window`]).
    coalesce_window: Nanos,
    /// The batches currently accepting participants, one per coalescing
    /// lane. Single-region participants coalesce per *shard* of their
    /// region's store object (commits to different shards share no store
    /// state, so their windows must not serialize behind one leader);
    /// `RegionSel::All` participants use their own lane ([`ALL_LANE`]).
    open_batches: HashMap<u64, OpenBatch>,
    /// Flushed batches whose participants have not all polled yet.
    finished: HashMap<u64, FinishedBatch>,
    /// Next batch id.
    batch_seq: u64,
    /// Completion instants of in-flight `MS_ASYNC` μCheckpoints, oldest
    /// first. Bounded by [`PIPELINE_DEPTH`]; admission past the bound
    /// blocks on the oldest entry (writeback backpressure).
    pipeline: VecDeque<Nanos>,
    /// Per-object sub-page extent chains, newest [`SUBPAGE_KEEP`] commits
    /// each (see [`MemSnap::subpage_extents`]).
    subpage: HashMap<StoreObjId, BTreeMap<Epoch, SubpageRecord>>,
}

impl std::fmt::Debug for MemSnap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemSnap")
            .field("regions", &self.regions.len())
            .finish()
    }
}

impl MemSnap {
    /// Formats `disk` with an empty single-shard store and returns a
    /// fresh MemSnap.
    pub fn format(disk: Disk) -> Self {
        Self::format_sharded(disk, 1)
    }

    /// Formats `disk` with an empty store partitioned into `shard_count`
    /// shards and returns a fresh MemSnap. With more than one shard,
    /// commits against regions on different shards share no store state
    /// on the hot path; [`MemSnap::msnap_cut`] names consistency points
    /// across however many shards there are.
    pub fn format_sharded(mut disk: Disk, shard_count: usize) -> Self {
        let mut store = ObjectStore::format_sharded(&mut disk, shard_count);
        let mut vt = Vt::new(u32::MAX); // boot-time setup thread
        let manifest_obj = store
            .create(&mut vt, &mut disk, MANIFEST_NAME)
            .expect("fresh store accepts the manifest object");
        let mut ms = Self::with_store(disk, store, manifest_obj);
        ms.persist_manifest(&mut vt)
            .expect("formatting a faulty device is unsupported");
        ms
    }

    /// A MemSnap over an open store, with no regions registered yet.
    fn with_store(disk: Disk, store: ObjectStore, manifest_obj: StoreObjId) -> Self {
        MemSnap {
            vm: Vm::new(),
            disk,
            store,
            manifest_obj,
            regions: Vec::new(),
            by_name: HashMap::new(),
            next_va: REGION_VA_BASE,
            completions: HashMap::new(),
            sticky: BTreeMap::new(),
            all_epoch: 0,
            meters: Meters::new(),
            last_breakdown: PersistBreakdown::default(),
            coalesce_window: DEFAULT_COALESCE_WINDOW,
            open_batches: HashMap::new(),
            finished: HashMap::new(),
            batch_seq: 0,
            pipeline: VecDeque::new(),
            subpage: HashMap::new(),
        }
    }

    /// Reopens MemSnap from a crashed or cleanly shut-down device.
    ///
    /// Regions are registered from the durable manifest; each region's
    /// data is paged back in on its first `msnap_open`.
    ///
    /// # Errors
    ///
    /// [`MsnapError::Store`] if the device holds no formatted store or a
    /// device read fails during recovery (`StoreError::Io` — nothing is
    /// built), [`MsnapError::BadDescriptor`] if the manifest names an object the
    /// catalog does not hold (a corrupt image — or a promoted replica
    /// device; see [`MemSnap::restore_promoted`]).
    pub fn restore(vt: &mut Vt, disk: Disk) -> Result<Self, MsnapError> {
        Self::restore_inner(vt, disk, false)
    }

    /// Reopens MemSnap from a device produced by replica promotion
    /// (e.g. [`msnap-repl`]'s `Promotion::disk`).
    ///
    /// Replication ships each object independently, so a replica can
    /// have applied a manifest version that lists a freshly created
    /// region whose data object never completed its first ship before
    /// the primary died. Such a region holds no replicated committed
    /// state — no write to it can have been acknowledged under
    /// replicated-ack gating — so this constructor drops it instead of
    /// failing, and the next manifest persist retires the stale entry
    /// durably. On a primary's own device this situation is corruption,
    /// which is why [`MemSnap::restore`] refuses it.
    ///
    /// # Errors
    ///
    /// [`MsnapError::Store`] if the device holds no formatted store or a
    /// device read fails during recovery.
    ///
    /// [`msnap-repl`]: ../msnap_repl/index.html
    pub fn restore_promoted(vt: &mut Vt, disk: Disk) -> Result<Self, MsnapError> {
        Self::restore_inner(vt, disk, true)
    }

    fn restore_inner(
        vt: &mut Vt,
        mut disk: Disk,
        drop_unshipped: bool,
    ) -> Result<Self, MsnapError> {
        let mut store = ObjectStore::open(vt, &mut disk)?;
        let manifest_obj = store
            .lookup(MANIFEST_NAME)
            .ok_or(MsnapError::BadDescriptor)?;
        let manifest = Manifest::decode(|page, out| {
            store.read_page(vt, &mut disk, manifest_obj, page, &mut out[..])
        })?;

        let mut ms = Self::with_store(disk, store, manifest_obj);
        for entry in manifest.entries {
            let store_obj = match ms.store.lookup(&entry.name) {
                Some(obj) => obj,
                None if drop_unshipped => continue,
                None => return Err(MsnapError::BadDescriptor),
            };
            let vm_obj = ms.vm.create_object(entry.pages);
            let md = Md(ms.regions.len() as u32);
            ms.by_name.insert(entry.name.clone(), md);
            ms.next_va = ms
                .next_va
                .max(entry.addr + (entry.pages + REGION_GUARD_PAGES) * PAGE_SIZE as u64);
            ms.regions.push(Region {
                name: entry.name,
                vm_obj,
                store_obj,
                addr: entry.addr,
                pages: entry.pages,
                mapped: Vec::new(),
                populated: false,
            });
        }
        Ok(ms)
    }

    /// Simulates a power failure at `at`: consumes the running instance
    /// and returns the device holding exactly the durable image. Pass it
    /// to [`MemSnap::restore`] to "reboot".
    pub fn crash(self, at: Nanos) -> Disk {
        let mut disk = self.disk;
        disk.crash(at);
        disk
    }

    /// Consumes the instance and returns the device as-is, with its undo
    /// journal intact — neither crashed nor settled. This is the shape
    /// [`msnap_disk::crash_at_every_io`] needs: the sweep driver decides
    /// the crash instant itself.
    pub fn into_disk(self) -> Disk {
        self.disk
    }

    /// Gracefully shuts down, declaring all submitted IO durable.
    pub fn shutdown(self) -> Disk {
        let mut disk = self.disk;
        disk.settle();
        disk
    }

    /// Promises that this instance will not be crashed at an instant
    /// before `at` and lets the device drop the rollback state only such
    /// a crash could need (see [`Disk::settle_until`]). For long-running
    /// owners whose only crash point is their own advancing clock: every
    /// caller's clock is at or past `at`, so nothing durable by `at` can
    /// be waited for any more and the completion instants recorded for
    /// [`MemSnap::msnap_wait`] are trimmed to the same horizon (each
    /// selector keeps its newest, which is how `msnap_wait` tells an
    /// already-durable epoch from one never issued).
    pub fn settle_until(&mut self, at: Nanos) {
        self.disk.settle_until(at);
        for epochs in self.completions.values_mut() {
            let newest = epochs.keys().next_back().copied();
            epochs.retain(|epoch, completes| *completes > at || Some(*epoch) == newest);
        }
    }

    /// The VM subsystem (create address spaces, inspect fault statistics).
    pub fn vm_mut(&mut self) -> &mut Vm {
        &mut self.vm
    }

    /// The VM subsystem, read-only.
    pub fn vm(&self) -> &Vm {
        &self.vm
    }

    /// The underlying device (IO statistics).
    pub fn disk(&self) -> &Disk {
        &self.disk
    }

    /// Resets device IO statistics (benchmark warm-up boundary).
    pub fn reset_disk_stats(&mut self) {
        self.disk.reset_stats();
    }

    /// Installs a deterministic fault plan on the underlying device
    /// (robustness testing; see [`msnap_disk::FaultPlan`]).
    pub fn set_fault_plan(&mut self, plan: msnap_disk::FaultPlan) {
        self.disk.set_fault_plan(plan);
    }

    /// Removes the active fault plan, returning the injector with its log
    /// of applied faults.
    pub fn clear_fault_plan(&mut self) -> Option<msnap_disk::FaultInjector> {
        self.disk.clear_fault_plan()
    }

    /// The object store (epochs, commit statistics).
    pub fn store(&self) -> &ObjectStore {
        &self.store
    }

    /// Per-call latency meters (`"msnap_persist"`, …).
    pub fn meters(&self) -> &Meters {
        &self.meters
    }

    /// Cost breakdown of the most recent `msnap_persist` (Table 5).
    pub fn last_persist_breakdown(&self) -> PersistBreakdown {
        self.last_breakdown
    }

    /// Creates or opens the region `name` of `pages` pages and maps it
    /// into `space` at its fixed address (`pages == 0` opens an existing
    /// region at its recorded size).
    ///
    /// The first open after a restore pages the durable image back in.
    ///
    /// # Errors
    ///
    /// [`MsnapError::LengthMismatch`] if the region exists with a
    /// different size, [`MsnapError::BadDescriptor`] for `pages == 0` on a
    /// region that does not exist, or a wrapped store/VM error — on the
    /// first open after a restore that includes the store's
    /// `CorruptData` / `Io` for a page that does not page in; the region
    /// then stays unpopulated and a later open retries.
    pub fn msnap_open(
        &mut self,
        vt: &mut Vt,
        space: AsId,
        name: &str,
        pages: u64,
    ) -> Result<RegionHandle, MsnapError> {
        vt.charge(Category::Syscall, SYSCALL_COST);
        if let Some(&md) = self.by_name.get(name) {
            let region = &self.regions[md.0 as usize];
            if pages != 0 && pages != region.pages {
                return Err(MsnapError::LengthMismatch);
            }
            if !self.regions[md.0 as usize].populated {
                self.populate(vt, md)?;
            }
            let region = &mut self.regions[md.0 as usize];
            if !region.mapped.contains(&space) {
                self.vm
                    .map(space, region.vm_obj, region.addr, TrackMode::Tracked)?;
                self.regions[md.0 as usize].mapped.push(space);
            }
            let region = &self.regions[md.0 as usize];
            return Ok(RegionHandle {
                md,
                addr: region.addr,
                pages: region.pages,
            });
        }

        if pages == 0 {
            return Err(MsnapError::BadDescriptor);
        }
        let addr = self.next_va;
        self.next_va += (pages + REGION_GUARD_PAGES) * PAGE_SIZE as u64;
        let vm_obj = self.vm.create_object(pages);
        let store_obj = self.store.create(vt, &mut self.disk, name)?;
        self.vm.map(space, vm_obj, addr, TrackMode::Tracked)?;
        let md = Md(self.regions.len() as u32);
        self.regions.push(Region {
            name: name.to_string(),
            vm_obj,
            store_obj,
            addr,
            pages,
            mapped: vec![space],
            populated: true,
        });
        self.by_name.insert(name.to_string(), md);
        self.persist_manifest(vt)?;
        Ok(RegionHandle { md, addr, pages })
    }

    /// Pages a region's durable image into memory (restore path), a
    /// [`BULK_READ_PAGES`]-page verified bulk read at a time.
    ///
    /// # Errors
    ///
    /// The store's read error for the first page that does not verify
    /// or cannot be read; the region stays unpopulated, so a later open
    /// (after repair) pages it in again from the start.
    fn populate(&mut self, vt: &mut Vt, md: Md) -> Result<(), MsnapError> {
        let region = &self.regions[md.0 as usize];
        let store_obj = region.store_obj;
        let vm_obj = region.vm_obj;
        let len = self.store.len_pages(store_obj).min(region.pages);
        let vm = &mut self.vm;
        let mut first = 0;
        while first < len {
            let n = BULK_READ_PAGES.min(len - first);
            self.store.read_pages(
                vt,
                &mut self.disk,
                store_obj,
                first,
                n,
                &mut |page, data| vm.populate_page(vm_obj, page, data),
            )?;
            first += n;
        }
        self.regions[md.0 as usize].populated = true;
        Ok(())
    }

    /// Looks up a region descriptor by name.
    pub fn region(&self, name: &str) -> Option<Md> {
        self.by_name.get(name).copied()
    }

    /// The fixed address of a region.
    pub fn region_addr(&self, md: Md) -> u64 {
        self.regions[md.0 as usize].addr
    }

    /// All region names in descriptor order (the restore path's "list of
    /// all MemSnap regions in an application").
    pub fn region_names(&self) -> Vec<String> {
        self.regions.iter().map(|r| r.name.clone()).collect()
    }

    /// Creates or reopens a region carved for a concurrent persistent
    /// index: a durable carve header on page 0, one private
    /// detectable-descriptor log page per writer, and a slot arena of
    /// `arena_pages` (see [`IndexCarve`] for the layout).
    ///
    /// On a fresh create the header — magic, structure `kind`, writer
    /// count, arena geometry — is persisted synchronously before the call
    /// returns, so every later μCheckpoint of the carve finds the
    /// geometry already durable. On reopen (`arena_pages == 0` accepted,
    /// as for [`MemSnap::msnap_open`]) the header is validated and the
    /// carve re-derived from it; passing non-zero geometry that differs
    /// from the durable header is a [`MsnapError::LengthMismatch`].
    ///
    /// # Errors
    ///
    /// [`MsnapError::BadDescriptor`] for zero `writers`/`arena_pages` on
    /// a fresh create, for reopening a region that carries no valid carve
    /// header, or for a `kind` mismatch; [`MsnapError::LengthMismatch`]
    /// for geometry that contradicts the durable header; or a wrapped
    /// store/VM error from the open or the header persist.
    pub fn msnap_open_index(
        &mut self,
        vt: &mut Vt,
        space: AsId,
        name: &str,
        arena_pages: u64,
        writers: u32,
        kind: u32,
    ) -> Result<IndexCarve, MsnapError> {
        if self.by_name.contains_key(name) {
            let region = self.msnap_open(vt, space, name, 0)?;
            let mut hdr = [0u8; CARVE_HDR_LEN];
            self.read(vt, space, region.addr, &mut hdr)?;
            let Some((h_kind, h_writers, h_arena)) = decode_carve_header(&hdr) else {
                return Err(MsnapError::BadDescriptor);
            };
            if h_kind != kind {
                return Err(MsnapError::BadDescriptor);
            }
            if (writers != 0 && writers != h_writers)
                || (arena_pages != 0 && arena_pages != h_arena)
            {
                return Err(MsnapError::LengthMismatch);
            }
            return Ok(IndexCarve {
                region,
                writers: h_writers,
                arena_pages: h_arena,
                kind,
            });
        }
        if writers == 0 || arena_pages == 0 {
            return Err(MsnapError::BadDescriptor);
        }
        let total = 1 + writers as u64 + arena_pages;
        let region = self.msnap_open(vt, space, name, total)?;
        let thread = vt.id();
        let hdr = encode_carve_header(kind, writers, arena_pages);
        self.write(vt, space, thread, region.addr, &hdr)?;
        self.msnap_persist(
            vt,
            thread,
            RegionSel::Region(region.md),
            PersistFlags::sync(),
        )?;
        Ok(IndexCarve {
            region,
            writers,
            arena_pages,
            kind,
        })
    }

    /// Writes through the VM with dirty tracking (convenience wrapper over
    /// [`Vm::write`]).
    ///
    /// # Errors
    ///
    /// Currently infallible (unmapped addresses panic, as a segfault
    /// would); the `Result` reserves room for access control.
    pub fn write(
        &mut self,
        vt: &mut Vt,
        space: AsId,
        thread: VthreadId,
        va: u64,
        data: &[u8],
    ) -> Result<(), MsnapError> {
        self.vm.write(vt, space, thread, va, data);
        Ok(())
    }

    /// Reads through the VM. See [`MemSnap::write`].
    ///
    /// # Errors
    ///
    /// Currently infallible; see [`MemSnap::write`].
    pub fn read(
        &mut self,
        vt: &mut Vt,
        space: AsId,
        va: u64,
        out: &mut [u8],
    ) -> Result<(), MsnapError> {
        self.vm.read(vt, space, va, out);
        Ok(())
    }

    /// Persists a μCheckpoint: the dirty pages of the calling `thread`
    /// (or of all threads with [`PersistFlags::global`]) restricted to
    /// `sel`, atomically, into the object store. Returns the epoch to pass
    /// to [`MemSnap::msnap_wait`].
    ///
    /// With `flags.sync` the call blocks until durable; with `MS_ASYNC` it
    /// returns after initiating the IO, and concurrent writes to in-flight
    /// pages take the COW path instead of blocking.
    ///
    /// # Errors
    ///
    /// [`MsnapError::BadDescriptor`] for an unknown region.
    /// [`MsnapError::Store`] when the μCheckpoint IO fails or the device
    /// is out of space; the error is then *sticky* for the affected
    /// region (reported by every later persist/wait until acknowledged
    /// via [`MemSnap::msnap_ack_error`]) and the failed pages remain
    /// dirty, so an acknowledged retry persists them.
    pub fn msnap_persist(
        &mut self,
        vt: &mut Vt,
        thread: VthreadId,
        sel: RegionSel,
        flags: PersistFlags,
    ) -> Result<Epoch, MsnapError> {
        let start = vt.now();
        vt.charge(Category::Memsnap, SYSCALL_COST);
        if let Some(e) = self.sticky_error(sel) {
            return Err(e);
        }

        // MS_ASYNC admission: at most `PIPELINE_DEPTH` μCheckpoints may be
        // in flight; a full pipeline blocks here for the oldest one.
        let admit_wait = if flags.sync {
            Nanos::ZERO
        } else {
            self.pipeline_admit(vt)
        };

        // One batch of one in-place participant per region, in region
        // order: one scatter/gather μCheckpoint IO per object modified.
        let mut taken = self.take(thread, sel, flags)?;
        taken.sort_by_key(|t| t.0);
        let mut parts: Vec<Participant> = Vec::new();
        for t in taken {
            match parts.last_mut() {
                Some(p) if p.pages[0].0 == t.0 => p.pages.push(t),
                _ => parts.push(Participant {
                    thread,
                    sel,
                    flags,
                    pages: vec![t],
                    start,
                }),
            }
        }
        let t_init = vt.now();
        let mut completes = vt.now();
        let mut committed: Vec<DirtyPage> = Vec::new();
        let mut failure: Option<MsnapError> = None;
        for p in &mut parts {
            if failure.is_some() {
                // A prior region already failed: leave the rest dirty and
                // untouched rather than checkpointing half the selector.
                let entries = p.pages.drain(..).map(|t| t.1).collect();
                self.vm.untake_dirty(thread, entries);
                continue;
            }
            match self.commit_batch(vt, std::slice::from_mut(p)) {
                Ok(done) => {
                    completes = completes.max(done.completes);
                    committed.extend(p.pages.iter().map(|t| t.1));
                }
                Err(e) => failure = Some(e),
            }
        }
        let initiating = vt.now() - t_init;

        // Freeze (checkpoint-in-progress) and re-arm tracking.
        self.vm.freeze(&committed, completes);
        let resetting = if committed.is_empty() {
            Nanos::ZERO
        } else {
            self.vm
                .reset_protection(vt, &committed, ResetStrategy::TraceBuffer)
        };
        let pages = committed.len() as u64;

        if let Some(e) = failure {
            // Regions persisted before the failure stay committed (their
            // completions are recorded); the selector's epoch does not
            // advance and the caller sees the error now — and again on
            // every persist/wait until acknowledged.
            self.last_breakdown = PersistBreakdown {
                resetting_tracking: resetting,
                initiating_writes: initiating,
                waiting_on_io: admit_wait,
                pages,
            };
            self.meters.record("msnap_persist", vt.now() - start);
            return Err(e);
        }

        let all_epoch = self.stamp_all(completes);
        let epoch = match sel {
            RegionSel::All => all_epoch,
            // The epoch just committed, or — nothing dirty — the current.
            RegionSel::Region(md) => self.store.epoch(self.regions[md.0 as usize].store_obj),
        };

        // Synchronous callers block until durable; async callers join the
        // writeback pipeline instead.
        let mut waiting = admit_wait;
        if flags.sync && completes > vt.now() {
            waiting = completes - vt.now();
            vt.charge(Category::IoWait, waiting);
        } else if !flags.sync && pages > 0 {
            self.pipeline.push_back(completes);
        }

        self.last_breakdown = PersistBreakdown {
            resetting_tracking: resetting,
            initiating_writes: initiating,
            waiting_on_io: waiting,
            pages,
        };
        self.meters.record("msnap_persist", vt.now() - start);
        Ok(epoch)
    }

    /// Takes the dirty set a μCheckpoint of `sel` covers — the calling
    /// thread's, or every thread's with `MS_GLOBAL` — tagging each entry
    /// with its region; every page is in place until a door copies it.
    fn take(
        &mut self,
        thread: VthreadId,
        sel: RegionSel,
        flags: PersistFlags,
    ) -> Result<Vec<TakenPage>, MsnapError> {
        let filter = match sel {
            RegionSel::All => None,
            RegionSel::Region(md) => Some(
                self.regions
                    .get(md.0 as usize)
                    .ok_or(MsnapError::BadDescriptor)?
                    .vm_obj,
            ),
        };
        let mut threads = Vec::new();
        if flags.global {
            threads = self.vm.threads_with_dirty();
        }
        if !threads.contains(&thread) {
            threads.push(thread);
        }
        let mut taken = Vec::new();
        for t in threads {
            for e in self.vm.take_dirty(t, filter) {
                let region = match sel {
                    RegionSel::Region(md) => md.0 as usize,
                    RegionSel::All => self
                        .regions
                        .iter()
                        .position(|r| r.vm_obj == e.object)
                        .expect("dirty pages in tracked mappings belong to regions"),
                };
                taken.push((region as u32, e, None));
            }
        }
        Ok(taken)
    }

    /// The one place region data reaches the store — durability first,
    /// memory second. Merges the participants' page images per region in
    /// page order (a later participant's image of a page wins: it was
    /// taken later and contains the earlier writes too, so the lines
    /// changed since the previous commit are the union), commits them
    /// with one [`ObjectStore::persist_batch`], and only then touches
    /// memory state. On success: each region's dirty-line record and
    /// completion instant. On failure the store aborted and the durable
    /// image still holds the previous epochs: every involved region arms
    /// its fsync gate and every participant's pages go back to its dirty
    /// set for a post-ack retry. All-or-nothing per call; the call
    /// charges nothing itself — admission, freeze/reset and waiting are
    /// the doors' policy.
    fn commit_batch(
        &mut self,
        vt: &mut Vt,
        parts: &mut [Participant],
    ) -> Result<Committed, MsnapError> {
        // Stable sort: a page's images stay in arrival order.
        let mut taken: Vec<&TakenPage> = parts.iter().flat_map(|p| &p.pages).collect();
        taken.sort_by_key(|t| (t.0, t.1.obj_page));
        // `(region, page, dirty lines)` and, in step, the store's iovec.
        let mut keys: Vec<(u32, u64, u64)> = Vec::with_capacity(taken.len());
        let mut iov: Vec<(u64, &[u8])> = Vec::with_capacity(taken.len());
        for (region, e, copy) in taken {
            let bytes = match copy {
                Some(copy) => &copy[..],
                None => self.vm.page_bytes(e),
            };
            match keys.last_mut() {
                Some(k) if (k.0, k.1) == (*region, e.obj_page) => {
                    k.2 |= e.lines;
                    iov.last_mut().expect("in step with keys").1 = bytes;
                }
                _ => {
                    keys.push((*region, e.obj_page, e.lines));
                    iov.push((e.obj_page, bytes));
                }
            }
        }
        // One store group per region: its run of `keys`, with the object
        // and its previous epoch, beside the same run of the iovec.
        let mut runs = Vec::new();
        let mut groups = Vec::new();
        let mut rest = &iov[..];
        for run in keys.chunk_by(|a, b| a.0 == b.0) {
            let obj = self.regions[run[0].0 as usize].store_obj;
            let (pages, tail) = rest.split_at(run.len());
            runs.push((obj, self.store.epoch(obj), run));
            groups.push((obj, pages));
            rest = tail;
        }
        match self.store.persist_batch(vt, &mut self.disk, &groups) {
            Ok(tokens) => {
                let mut completes = Nanos::ZERO;
                for (&(obj, prev, run), token) in runs.iter().zip(&tokens) {
                    let lines = run.iter().map(|k| (k.1, k.2));
                    self.record_subpage(obj, prev, token.epoch, lines);
                    self.completions
                        .entry(RegionSel::Region(Md(run[0].0)))
                        .or_default()
                        .insert(token.epoch, token.completes);
                    completes = completes.max(token.completes);
                }
                Ok(Committed {
                    completes,
                    regions: runs.len(),
                })
            }
            Err(e) => {
                let err = MsnapError::from(e);
                for (.., run) in &runs {
                    self.sticky.insert(run[0].0, err.clone());
                }
                for p in parts {
                    let entries = p.pages.drain(..).map(|t| t.1).collect();
                    self.vm.untake_dirty(p.thread, entries);
                }
                Err(err)
            }
        }
    }

    /// Records `completes` as the durability instant of the next epoch
    /// of the all-regions selector, which it returns.
    fn stamp_all(&mut self, completes: Nanos) -> Epoch {
        self.all_epoch += 1;
        self.completions
            .entry(RegionSel::All)
            .or_default()
            .insert(self.all_epoch, completes);
        self.all_epoch
    }

    /// Sets the group-commit coalescing window: `msnap_persist_grouped`
    /// calls arriving within `window` of the batch opener merge into one
    /// μCheckpoint IO. `Nanos::ZERO` disables coalescing across time (only
    /// same-instant callers merge).
    pub fn set_coalesce_window(&mut self, window: Nanos) {
        self.coalesce_window = window;
    }

    /// Joins (or opens) a group commit with the calling thread's dirty
    /// pages of `sel`, returning a [`CommitTicket`] to redeem with
    /// [`MemSnap::msnap_group_poll`].
    ///
    /// The enqueue itself is cheap: the dirty set is taken, the page
    /// images are copied into the coalescing buffer (an eager COW, so the
    /// caller may keep writing immediately), and tracking is re-armed.
    /// The combined μCheckpoint IO — one scatter/gather extent plus one
    /// commit record for *all* participants — is initiated when the
    /// batch's window closes, by the first poller to reach that instant.
    ///
    /// # Errors
    ///
    /// [`MsnapError::BadDescriptor`] for an unknown region, or the
    /// region's sticky error (see [`MemSnap::msnap_persist`]).
    pub fn msnap_persist_grouped(
        &mut self,
        vt: &mut Vt,
        thread: VthreadId,
        sel: RegionSel,
        flags: PersistFlags,
    ) -> Result<CommitTicket, MsnapError> {
        vt.charge(Category::Memsnap, SYSCALL_COST);
        if let Some(e) = self.sticky_error(sel) {
            return Err(e);
        }
        let lane = self.lane_of(sel)?;
        // A late arrival cannot join a window that has already closed:
        // flush the lane's stale batch first (this enqueuer pays for it).
        if matches!(self.open_batches.get(&lane), Some(b) if vt.now() >= b.submit_at) {
            self.flush_open_batch(vt, lane);
        }

        // Eagerly copy the page images: the μCheckpoint content is fixed
        // here, so the caller's next write needs no COW machinery.
        let mut pages = self.take(thread, sel, flags)?;
        if !pages.is_empty() {
            let entries: Vec<DirtyPage> = pages.iter().map(|t| t.1).collect();
            for t in &mut pages {
                t.2 = Some(self.vm.page_bytes(&t.1).to_vec());
            }
            vt.charge(Category::Memsnap, GATHER_PER_PAGE * entries.len() as u64);
            self.vm.freeze(&entries, vt.now());
            self.vm
                .reset_protection(vt, &entries, ResetStrategy::TraceBuffer);
        }

        let participant = Participant {
            thread,
            sel,
            flags,
            pages,
            start: vt.now(),
        };
        let ticket = match self.open_batches.get_mut(&lane) {
            Some(b) => {
                b.participants.push(participant);
                CommitTicket {
                    batch: b.id,
                    participant: (b.participants.len() - 1) as u32,
                }
            }
            None => {
                let id = self.batch_seq;
                self.batch_seq += 1;
                self.open_batches.insert(
                    lane,
                    OpenBatch {
                        id,
                        submit_at: vt.now() + self.coalesce_window,
                        participants: vec![participant],
                    },
                );
                CommitTicket {
                    batch: id,
                    participant: 0,
                }
            }
        };
        Ok(ticket)
    }

    /// The coalescing lane a selector's commits serialize on: the shard
    /// of the region's store object, or [`ALL_LANE`] for `All`.
    fn lane_of(&self, sel: RegionSel) -> Result<u64, MsnapError> {
        match sel {
            RegionSel::All => Ok(ALL_LANE),
            RegionSel::Region(md) => {
                let region = self
                    .regions
                    .get(md.0 as usize)
                    .ok_or(MsnapError::BadDescriptor)?;
                Ok(self.store.shard_of_id(region.store_obj) as u64)
            }
        }
    }

    /// Polls a group commit joined via [`MemSnap::msnap_persist_grouped`].
    ///
    /// Returns `Ok(None)` while the batch's coalescing window is still
    /// open (the caller's clock is advanced to the window close, so the
    /// next poll makes progress). Once flushed, returns the participant's
    /// epoch; `MS_SYNC` participants block until the batch is durable
    /// first. Each ticket is redeemable exactly once.
    ///
    /// # Errors
    ///
    /// The batch's error, for *every* participant, if the combined
    /// μCheckpoint IO failed — each involved region's error is sticky and
    /// each participant's pages went back to its dirty set for a post-ack
    /// retry. [`MsnapError::BadDescriptor`] for an unknown or already
    /// redeemed ticket.
    pub fn msnap_group_poll(
        &mut self,
        vt: &mut Vt,
        ticket: CommitTicket,
    ) -> Result<Option<Epoch>, MsnapError> {
        vt.charge(Category::Memsnap, SYSCALL_COST);
        let open = self
            .open_batches
            .iter()
            .find(|(_, b)| b.id == ticket.batch)
            .map(|(&lane, b)| (lane, b.submit_at, b.participants.len()));
        if let Some((lane, submit_at, participants)) = open {
            // Solo fast path: a lone participant polling its own batch
            // skips the group machinery — waiting out the window buys
            // nothing (there is nobody to merge with) and coalescing at
            // one thread only adds latency.
            if participants > 1 && vt.now() < submit_at {
                vt.wait_until(submit_at);
                return Ok(None);
            }
            self.flush_open_batch(vt, lane);
        }
        let fin = self
            .finished
            .get_mut(&ticket.batch)
            .ok_or(MsnapError::BadDescriptor)?;
        let (flags, epoch, start) = fin
            .results
            .remove(&ticket.participant)
            .ok_or(MsnapError::BadDescriptor)?;
        let error = fin.error.clone();
        let completes = fin.completes;
        if fin.results.is_empty() {
            self.finished.remove(&ticket.batch);
        }
        if let Some(e) = error {
            self.meters
                .record("msnap_persist_grouped", vt.now() - start);
            return Err(e);
        }
        if flags.sync && completes > vt.now() {
            vt.charge(Category::IoWait, completes - vt.now());
        }
        self.meters
            .record("msnap_persist_grouped", vt.now() - start);
        Ok(Some(epoch))
    }

    /// Force-flushes the open group commit, if any, without waiting for
    /// its window to close (shutdown paths, tests). Participants still
    /// collect their results via [`MemSnap::msnap_group_poll`].
    pub fn msnap_group_flush(&mut self, vt: &mut Vt) {
        vt.charge(Category::Memsnap, SYSCALL_COST);
        let mut lanes: Vec<u64> = self.open_batches.keys().copied().collect();
        lanes.sort_unstable();
        for lane in lanes {
            self.flush_open_batch(vt, lane);
        }
    }

    /// Stamps and durably persists a manifest-wide
    /// epoch-vector cut — the two-phase fuzzy cut. **Drain:** every open
    /// group-commit batch is flushed, so no in-flight ticket straddles
    /// the cut. **Stamp:** the store records `[e_0..e_{N-1}]` per-shard
    /// epochs, submitted no earlier than every commit's durability
    /// instant. **Release:** subsequent enqueues open fresh batches. The
    /// returned cut is what snapshots, delta streams, and replication
    /// name and promote.
    ///
    /// # Errors
    ///
    /// [`MsnapError::Store`] if the cut record cannot be written.
    pub fn msnap_cut(&mut self, vt: &mut Vt) -> Result<VectorCut, MsnapError> {
        // The drain is the call's one syscall charge.
        self.msnap_group_flush(vt);
        Ok(self.store.cut(vt, &mut self.disk)?)
    }

    /// The newest stamped epoch-vector cut, if any.
    pub fn last_cut(&self) -> Option<&VectorCut> {
        self.store.last_cut()
    }

    /// Drains completed pipeline entries and, if the pipeline is still
    /// full, blocks on the oldest in-flight μCheckpoint. Returns the time
    /// spent blocked.
    fn pipeline_admit(&mut self, vt: &mut Vt) -> Nanos {
        let mut waited = Nanos::ZERO;
        let now = vt.now();
        while matches!(self.pipeline.front(), Some(&c) if c <= now) {
            self.pipeline.pop_front();
        }
        if self.pipeline.len() >= PIPELINE_DEPTH {
            if let Some(oldest) = self.pipeline.pop_front() {
                if oldest > vt.now() {
                    waited = oldest - vt.now();
                    vt.charge(Category::IoWait, waited);
                }
            }
            let now = vt.now();
            while matches!(self.pipeline.front(), Some(&c) if c <= now) {
                self.pipeline.pop_front();
            }
        }
        waited
    }

    /// Flushes the open batch: one combined μCheckpoint IO for every
    /// participant, then a [`FinishedBatch`] for their polls. The caller
    /// (the first poller past the window, or a late enqueuer) pays the
    /// initiation cost — group commit's "leader pays" rule.
    fn flush_open_batch(&mut self, vt: &mut Vt, lane: u64) {
        let mut batch = self
            .open_batches
            .remove(&lane)
            .expect("caller checked the lane's open batch");
        let mut error: Option<MsnapError> = None;
        let mut completes = vt.now();
        if batch.participants.iter().any(|p| !p.pages.is_empty()) {
            let any_async = batch.participants.iter().any(|p| !p.flags.sync);
            if any_async {
                self.pipeline_admit(vt);
            }
            match self.commit_batch(vt, &mut batch.participants) {
                Ok(done) => {
                    completes = done.completes;
                    self.stamp_all(completes);
                    if any_async {
                        self.pipeline.push_back(completes);
                    }
                    // Several transactions coalesced into one region's
                    // commit: the store saw a single group, so account
                    // the merge here (multi-object batches are accounted
                    // by the store itself).
                    if done.regions == 1 && batch.participants.len() > 1 {
                        self.disk.note_merged(batch.participants.len() as u64);
                    }
                }
                // All-or-nothing: every poll reports the failure.
                Err(e) => error = Some(e),
            }
        }

        let mut results = HashMap::new();
        for (i, p) in batch.participants.iter().enumerate() {
            let epoch = match p.sel {
                RegionSel::Region(md) => self.store.epoch(self.regions[md.0 as usize].store_obj),
                RegionSel::All => self.all_epoch,
            };
            results.insert(i as u32, (p.flags, epoch, p.start));
        }
        self.finished.insert(
            batch.id,
            FinishedBatch {
                error,
                completes,
                results,
            },
        );
    }

    /// Blocks until `epoch` of `sel` is durable (the paper's
    /// `msnap_wait`).
    ///
    /// # Errors
    ///
    /// [`MsnapError::BadDescriptor`] if `epoch` was never issued for
    /// `sel`; the sticky error of a failed μCheckpoint (see
    /// [`MemSnap::msnap_persist`]) until it is acknowledged — waiting on
    /// an epoch that predates the failure still reports the failure, the
    /// moral equivalent of fsync-gate: durability cannot be assumed past
    /// an unacknowledged error.
    pub fn msnap_wait(
        &mut self,
        vt: &mut Vt,
        sel: RegionSel,
        epoch: Epoch,
    ) -> Result<(), MsnapError> {
        vt.charge(Category::Memsnap, SYSCALL_COST);
        if let Some(e) = self.sticky_error(sel) {
            return Err(e);
        }
        let map = self.completions.get(&sel);
        let completes = match map.and_then(|m| m.get(&epoch)) {
            Some(&t) => t,
            None => {
                // Epochs below the smallest recorded entry were already
                // durable; anything else is a caller bug.
                let latest = map.and_then(|m| m.keys().next_back().copied()).unwrap_or(0);
                if epoch > latest {
                    return Err(MsnapError::BadDescriptor);
                }
                return Ok(());
            }
        };
        if completes > vt.now() {
            let wait = completes - vt.now();
            vt.charge(Category::IoWait, wait);
        }
        Ok(())
    }

    /// The sticky error covering `sel`, if any. `RegionSel::All` reports
    /// the failure of any region (a whole-application persist cannot be
    /// durable while one region's μCheckpoint is known-failed).
    fn sticky_error(&self, sel: RegionSel) -> Option<MsnapError> {
        match sel {
            RegionSel::Region(md) => self.sticky.get(&md.0).cloned(),
            RegionSel::All => self.sticky.values().next().cloned(),
        }
    }

    /// Acknowledges and clears the sticky error(s) covering `sel`,
    /// returning the first one, or `None` if the selector is healthy.
    ///
    /// This is the only way a persist failure is ever cleared. After
    /// acknowledging, the pages of the failed μCheckpoint are still in the
    /// calling thread's dirty set, so the next `msnap_persist` retries
    /// them.
    pub fn msnap_ack_error(&mut self, sel: RegionSel) -> Option<MsnapError> {
        match sel {
            RegionSel::Region(md) => self.sticky.remove(&md.0),
            RegionSel::All => {
                let first = self.sticky.values().next().cloned();
                self.sticky.clear();
                first
            }
        }
    }

    /// Pins the region's current *durable* state as a named, retained
    /// snapshot — an O(1) COW of the committed radix root, crash-atomic
    /// via the dual-slot snapshot catalog. Returns the retained epoch.
    ///
    /// The snapshot captures what `msnap_persist` has made durable, not
    /// the in-memory image: dirty pages not yet persisted are excluded
    /// (persist first for an exact memory snapshot). The retained image
    /// stays byte-for-byte readable via [`MemSnap::msnap_open_at`] no
    /// matter how many μCheckpoints or full-root flushes follow, until
    /// the snapshot is deleted through the store.
    ///
    /// # Errors
    ///
    /// [`MsnapError::BadDescriptor`] for an unknown region, the region's
    /// sticky error (see [`MemSnap::msnap_persist`]), or a wrapped
    /// [`msnap_store::StoreError`] (duplicate name, catalog full, IO).
    pub fn msnap_snapshot(&mut self, vt: &mut Vt, md: Md, name: &str) -> Result<Epoch, MsnapError> {
        vt.charge(Category::Memsnap, SYSCALL_COST);
        if let Some(e) = self.sticky_error(RegionSel::Region(md)) {
            return Err(e);
        }
        let store_obj = self
            .regions
            .get(md.0 as usize)
            .ok_or(MsnapError::BadDescriptor)?
            .store_obj;
        let epoch = self
            .store
            .snapshot_create(vt, &mut self.disk, store_obj, name)?;
        Ok(epoch)
    }

    /// Deletes a retained snapshot, releasing its pinned blocks for
    /// reclamation.
    ///
    /// # Errors
    ///
    /// A wrapped [`msnap_store::StoreError::SnapshotNotFound`], or an IO
    /// error from the catalog write.
    pub fn msnap_snapshot_delete(&mut self, vt: &mut Vt, name: &str) -> Result<(), MsnapError> {
        vt.charge(Category::Memsnap, SYSCALL_COST);
        self.store.snapshot_delete(vt, &mut self.disk, name)?;
        Ok(())
    }

    /// Runs one IO-budgeted slice of the online integrity scrub over
    /// every store object (including the manifest), returning what this
    /// slice alone verified and repaired.
    ///
    /// The scrub walks the committed trees verifying node and page
    /// media against their Merkle-chained digests and self-heals corrupt
    /// pages from the newest retained snapshot holding a clean copy.
    /// Pages with no clean local source are quarantined and reported
    /// through [`ObjectStore::unrepaired_pages`] (reachable via
    /// [`MemSnap::store`]) for peer repair by the replication layer.
    ///
    /// `budget` caps the pages examined this call; the cursor persists
    /// in memory, so calling this from an idle loop scrubs the whole
    /// store incrementally. Cumulative totals (including completed
    /// `passes`) are at [`ObjectStore::scrub_stats`].
    ///
    /// # Errors
    ///
    /// A wrapped [`msnap_store::StoreError`] on IO failure — detected
    /// corruption is *not* an error; it is counted, quarantined, and
    /// repaired or reported.
    pub fn msnap_scrub(&mut self, vt: &mut Vt, budget: u64) -> Result<ScrubStats, MsnapError> {
        vt.charge(Category::Memsnap, SYSCALL_COST);
        let stats = self.store.scrub(vt, &mut self.disk, budget)?;
        Ok(stats)
    }

    /// Split borrow of the object store and the device, for the snapshot
    /// shipping layer (`msnap-snap`): building a delta stream reads
    /// retained pages from the store while charging the IO to this
    /// device.
    ///
    /// Pure *inspection* — which epochs are committed, what the catalog
    /// retains — never needs this escape hatch: use
    /// [`MemSnap::region_epoch`], [`MemSnap::object_epoch`],
    /// [`MemSnap::retained_snapshots`], or [`MemSnap::store`] instead.
    /// The `&mut` split borrow is only for paths that actually move
    /// bytes (building or applying streams).
    pub fn replication_parts(&mut self) -> (&mut ObjectStore, &mut Disk) {
        (&mut self.store, &mut self.disk)
    }

    /// The committed epoch of a region's backing store object —
    /// read-only; the replication daemon's pacing loop polls this to
    /// detect new μCheckpoints without borrowing the device.
    pub fn region_epoch(&self, md: Md) -> Option<Epoch> {
        let region = self.regions.get(md.0 as usize)?;
        Some(self.store.epoch(region.store_obj))
    }

    /// The committed epoch of any store object by directory name — the
    /// regions, and bookkeeping objects such as the manifest (see
    /// [`MemSnap::manifest_object_name`]), which replication must ship
    /// too for a replica to be promotable.
    pub fn object_epoch(&self, name: &str) -> Option<Epoch> {
        self.store.lookup(name).map(|id| self.store.epoch(id))
    }

    /// Appends one commit's dirty-line record to an object's extent
    /// chain, pruning to the newest [`SUBPAGE_KEEP`] records.
    fn record_subpage(
        &mut self,
        obj: StoreObjId,
        prev: Epoch,
        epoch: Epoch,
        pages: impl IntoIterator<Item = (u64, u64)>,
    ) {
        let chain = self.subpage.entry(obj).or_default();
        let rec = chain.entry(epoch).or_insert(SubpageRecord {
            prev,
            pages: BTreeMap::new(),
        });
        for (page, lines) in pages {
            *rec.pages.entry(page).or_insert(0) |= lines;
        }
        while chain.len() > SUBPAGE_KEEP {
            let oldest = *chain.keys().next().expect("chain is non-empty");
            chain.remove(&oldest);
        }
    }

    /// The 64-byte lines of `object` that changed between commits `base`
    /// and `target` (exclusive/inclusive), as page → line-bitmap, or
    /// `None` when the interval cannot be *proven* covered by recorded
    /// μCheckpoint commits — records pruned, an out-of-band commit
    /// (apply_image, fence, repair, restore) in between, or an unknown
    /// object. The keys are exactly the pages those commits persisted
    /// and each bitmap is a conservative superset of the page's truly
    /// changed bytes (a zero bitmap means the lines are unknown: treat
    /// it as the whole page). Two consumers rely on that:
    ///
    /// - replication uses it as a *ship hint*: shipping only these lines
    ///   plus the pages the structural diff names never misses a change,
    ///   and `None` falls back to whole-page shipping;
    /// - the serving layer uses it as the *source* of watch
    ///   invalidations — the commit already knows its dirty set, so
    ///   nothing is snapshotted or diffed — and widens to the whole
    ///   object on `None`.
    pub fn subpage_extents(
        &self,
        object: &str,
        base: Epoch,
        target: Epoch,
    ) -> Option<BTreeMap<u64, u64>> {
        if target <= base {
            return None;
        }
        let id = self.store.lookup(object)?;
        let chain = self.subpage.get(&id)?;
        let mut union: BTreeMap<u64, u64> = BTreeMap::new();
        let mut cur = target;
        while cur > base {
            let rec = chain.get(&cur)?;
            if rec.prev < base {
                // The chain steps over `base`: `base` was not a commit
                // this chain knows, so coverage is unprovable.
                return None;
            }
            for (&page, &lines) in &rec.pages {
                *union.entry(page).or_insert(0) |= lines;
            }
            cur = rec.prev;
        }
        Some(union)
    }

    /// The store-directory name of a region (what a delta-stream header
    /// carries), read-only.
    pub fn region_object_name(&self, md: Md) -> Option<&str> {
        self.regions.get(md.0 as usize).map(|r| r.name.as_str())
    }

    /// The store-directory name of the region manifest object. The
    /// manifest is an ordinary store object holding the region table;
    /// shipping it alongside the regions is what lets
    /// [`MemSnap::restore`] bring a replica's disk up as a full
    /// instance after a promotion.
    pub fn manifest_object_name(&self) -> &'static str {
        MANIFEST_NAME
    }

    /// The retained-snapshot catalog, read-only (name, object, pinned
    /// epoch, length of every retained snapshot).
    pub fn retained_snapshots(&self) -> Vec<msnap_store::SnapEntry> {
        self.store.snapshots()
    }

    /// Pins the current epoch of **any** store object (by directory
    /// name) as a named retained snapshot, returning the pinned epoch.
    /// [`MemSnap::msnap_snapshot`] covers regions; this variant also
    /// reaches bookkeeping objects — above all the manifest — which a
    /// replication daemon snapshots and ships so a promoted replica can
    /// recover the region table.
    ///
    /// # Errors
    ///
    /// [`MsnapError::BadDescriptor`] for an unknown object, or a
    /// wrapped [`msnap_store::StoreError`] (duplicate name, catalog
    /// full, IO).
    pub fn msnap_snapshot_object(
        &mut self,
        vt: &mut Vt,
        object: &str,
        name: &str,
    ) -> Result<Epoch, MsnapError> {
        vt.charge(Category::Memsnap, SYSCALL_COST);
        let id = self.store.lookup(object).ok_or(MsnapError::BadDescriptor)?;
        let epoch = self.store.snapshot_create(vt, &mut self.disk, id, name)?;
        Ok(epoch)
    }

    /// Jumps an object's committed epoch forward without changing its
    /// content (a data-less full commit) — the **promotion fence** of the
    /// replication layer: a replica promoted to primary fences each
    /// object past anything the failed primary might have committed, so
    /// its own epochs can never collide with unacknowledged divergent
    /// history. Waits for durability before returning.
    ///
    /// # Errors
    ///
    /// [`MsnapError::BadDescriptor`] for an unknown object, or a wrapped
    /// [`msnap_store::StoreError::StaleEpoch`] when `epoch` does not move
    /// forward.
    pub fn msnap_fence(
        &mut self,
        vt: &mut Vt,
        object: &str,
        epoch: Epoch,
    ) -> Result<Epoch, MsnapError> {
        vt.charge(Category::Memsnap, SYSCALL_COST);
        let id = self.store.lookup(object).ok_or(MsnapError::BadDescriptor)?;
        let token = self.store.fence_epoch(vt, &mut self.disk, id, epoch)?;
        ObjectStore::wait(vt, token);
        Ok(token.epoch)
    }

    /// Maps the named retained snapshot read-only at a fresh fixed
    /// address: a point-in-time view of the region as of the snapshot's
    /// epoch, independent of everything persisted since.
    ///
    /// The mapping is untracked — writes to it are volatile scratch and
    /// can never reach the store; the live region is unaffected either
    /// way. Each call creates a fresh mapping.
    ///
    /// # Errors
    ///
    /// [`MsnapError::BadDescriptor`] if the snapshot does not exist or
    /// its object is not a region; [`MsnapError::Store`] (`Io`,
    /// `CorruptData`) if a snapshot page cannot be read or does not
    /// verify — nothing is mapped, and a later call retries from scratch.
    pub fn msnap_open_at(
        &mut self,
        vt: &mut Vt,
        space: AsId,
        snapshot: &str,
    ) -> Result<SnapshotView, MsnapError> {
        vt.charge(Category::Syscall, SYSCALL_COST);
        let entry = self
            .store
            .snapshot_lookup(snapshot)
            .ok_or(MsnapError::BadDescriptor)?
            .clone();
        let region_idx = self
            .regions
            .iter()
            .position(|r| r.store_obj == entry.object)
            .ok_or(MsnapError::BadDescriptor)?;
        let pages = self.regions[region_idx].pages;
        // Read the whole image before anything is created or mapped: a
        // failed read leaves the address space exactly as it was.
        let mut image = vec![0u8; entry.len_pages.min(pages) as usize * PAGE_SIZE];
        for (page, buf) in image.chunks_mut(PAGE_SIZE).enumerate() {
            self.store
                .read_page_at(vt, &mut self.disk, snapshot, page as u64, buf)?;
        }
        let addr = self.next_va;
        self.next_va += (pages + REGION_GUARD_PAGES) * PAGE_SIZE as u64;
        let vm_obj = self.vm.create_object(pages);
        for (page, buf) in image.chunks(PAGE_SIZE).enumerate() {
            self.vm.populate_page(vm_obj, page as u64, buf);
        }
        self.vm.map(space, vm_obj, addr, TrackMode::Untracked)?;
        Ok(SnapshotView {
            addr,
            pages,
            epoch: entry.epoch,
        })
    }

    /// Rolls the live region back to the named retained snapshot: every
    /// page whose current in-memory content differs from the snapshot
    /// image is rewritten through the dirty-tracked VM path, then the
    /// restored image is persisted as one ordinary synchronous
    /// μCheckpoint (all threads' dirty pages of the region included).
    /// Returns the new epoch — time moves forward, content moves back.
    ///
    /// Crash-atomic by construction: the rollback is a normal commit, so
    /// a crash leaves the region at either the pre-rollback epoch or the
    /// fully restored one. The region must be open in `space`.
    ///
    /// # Errors
    ///
    /// [`MsnapError::BadDescriptor`] if the snapshot does not exist or
    /// its object is not a region, the region's sticky error, or a
    /// wrapped store error from the persisting μCheckpoint or from a
    /// snapshot page that cannot be read or does not verify (`Io`,
    /// `CorruptData`). A call that fails on such a read has persisted
    /// nothing: memory is left partially rewritten (the pages before the
    /// failing one hold the snapshot's content, dirty) and the call is
    /// safely re-runnable — the retry rewrites only what still differs.
    pub fn msnap_rollback(
        &mut self,
        vt: &mut Vt,
        space: AsId,
        thread: VthreadId,
        snapshot: &str,
    ) -> Result<Epoch, MsnapError> {
        vt.charge(Category::Memsnap, SYSCALL_COST);
        let entry = self
            .store
            .snapshot_lookup(snapshot)
            .ok_or(MsnapError::BadDescriptor)?
            .clone();
        let region_idx = self
            .regions
            .iter()
            .position(|r| r.store_obj == entry.object)
            .ok_or(MsnapError::BadDescriptor)?;
        let md = Md(region_idx as u32);
        if let Some(e) = self.sticky_error(RegionSel::Region(md)) {
            return Err(e);
        }
        if !self.regions[region_idx].populated {
            self.populate(vt, md)?;
        }
        let region = &self.regions[region_idx];
        let (addr, pages, vm_obj) = (region.addr, region.pages, region.vm_obj);
        if !region.mapped.contains(&space) {
            self.vm.map(space, vm_obj, addr, TrackMode::Tracked)?;
            self.regions[region_idx].mapped.push(space);
        }
        let mut want = vec![0u8; PAGE_SIZE];
        let mut have = vec![0u8; PAGE_SIZE];
        for page in 0..pages {
            if page < entry.len_pages {
                self.store
                    .read_page_at(vt, &mut self.disk, snapshot, page, &mut want)?;
            } else {
                want.fill(0);
            }
            let va = addr + page * PAGE_SIZE as u64;
            self.vm.read(vt, space, va, &mut have);
            if have != want {
                self.vm.write(vt, space, thread, va, &want);
            }
        }
        self.msnap_persist(
            vt,
            thread,
            RegionSel::Region(md),
            PersistFlags::sync().with_global(),
        )
    }

    /// Persists the region table through the store (synchronously).
    ///
    /// # Errors
    ///
    /// [`MsnapError::Store`] when the manifest μCheckpoint fails; the
    /// in-memory region table is unchanged on disk (previous epoch).
    fn persist_manifest(&mut self, vt: &mut Vt) -> Result<(), MsnapError> {
        let manifest = Manifest {
            entries: self
                .regions
                .iter()
                .map(|r| ManifestEntry {
                    name: r.name.clone(),
                    addr: r.addr,
                    pages: r.pages,
                })
                .collect(),
            shard_count: self.store.shard_count(),
        };
        let pages = manifest.encode_pages();
        let iov: Vec<(u64, &[u8])> = pages
            .iter()
            .enumerate()
            .map(|(i, p)| (i as u64, &p[..]))
            .collect();
        let token = self
            .store
            .persist(vt, &mut self.disk, self.manifest_obj, &iov)?;
        ObjectStore::wait(vt, token);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msnap_disk::{DiskConfig, Fault, FaultPlan};
    use msnap_store::StoreError;

    fn fresh() -> (MemSnap, Vt, AsId) {
        let mut ms = MemSnap::format(Disk::new(DiskConfig::paper()));
        let vt = Vt::new(0);
        let space = ms.vm_mut().create_space();
        (ms, vt, space)
    }

    #[test]
    fn index_carve_layout_and_reopen() {
        let (mut ms, mut vt, space) = fresh();
        let carve = ms
            .msnap_open_index(&mut vt, space, "idx", 32, 4, 7)
            .unwrap();
        assert_eq!(carve.region.pages, 1 + 4 + 32);
        assert_eq!(carve.log_addr(0), carve.region.addr + PAGE_SIZE as u64);
        assert_eq!(carve.arena_addr(), carve.region.addr + 5 * PAGE_SIZE as u64);

        // The header is durable before any index write: crash immediately
        // and the reopen still re-derives the carve.
        let disk = ms.crash(vt.now());
        let mut vt2 = Vt::new(1);
        let mut ms2 = MemSnap::restore(&mut vt2, disk).unwrap();
        let space2 = ms2.vm_mut().create_space();
        let reopened = ms2
            .msnap_open_index(&mut vt2, space2, "idx", 0, 0, 7)
            .unwrap();
        assert_eq!(reopened.writers, 4);
        assert_eq!(reopened.arena_pages, 32);
        assert_eq!(reopened.region.addr, carve.region.addr, "fixed address");
    }

    #[test]
    fn index_carve_rejects_mismatches() {
        let (mut ms, mut vt, space) = fresh();
        ms.msnap_open_index(&mut vt, space, "idx", 32, 4, 7)
            .unwrap();
        // Wrong structure kind.
        assert_eq!(
            ms.msnap_open_index(&mut vt, space, "idx", 0, 0, 8),
            Err(MsnapError::BadDescriptor)
        );
        // Contradicting geometry.
        assert_eq!(
            ms.msnap_open_index(&mut vt, space, "idx", 64, 4, 7),
            Err(MsnapError::LengthMismatch)
        );
        assert_eq!(
            ms.msnap_open_index(&mut vt, space, "idx", 32, 2, 7),
            Err(MsnapError::LengthMismatch)
        );
        // Degenerate fresh geometry.
        assert_eq!(
            ms.msnap_open_index(&mut vt, space, "idx2", 0, 4, 7),
            Err(MsnapError::BadDescriptor)
        );
        // A plain region is not a carve.
        ms.msnap_open(&mut vt, space, "plain", 8).unwrap();
        assert_eq!(
            ms.msnap_open_index(&mut vt, space, "plain", 0, 0, 7),
            Err(MsnapError::BadDescriptor)
        );
    }

    #[test]
    fn carve_header_checksum_rejects_corruption() {
        let mut hdr = encode_carve_header(3, 8, 128);
        assert_eq!(decode_carve_header(&hdr), Some((3, 8, 128)));
        hdr[17] ^= 1;
        assert_eq!(decode_carve_header(&hdr), None);
    }

    #[test]
    fn open_persist_wait_round_trip() {
        let (mut ms, mut vt, space) = fresh();
        let t = vt.id();
        let r = ms.msnap_open(&mut vt, space, "data", 16).unwrap();
        ms.write(&mut vt, space, t, r.addr, &[42; 100]).unwrap();
        let epoch = ms
            .msnap_persist(&mut vt, t, RegionSel::Region(r.md), PersistFlags::sync())
            .unwrap();
        assert_eq!(epoch, 1);
        ms.msnap_wait(&mut vt, RegionSel::Region(r.md), epoch)
            .unwrap();
        let mut out = [0u8; 100];
        ms.read(&mut vt, space, r.addr, &mut out).unwrap();
        assert_eq!(out, [42; 100]);
    }

    #[test]
    fn subpage_extents_union_commits_and_break_on_out_of_band_epochs() {
        let (mut ms, mut vt, space) = fresh();
        let t = vt.id();
        let r = ms.msnap_open(&mut vt, space, "data", 16).unwrap();
        let obj = ms.region_object_name(r.md).unwrap().to_string();
        let base = ms.region_epoch(r.md).unwrap();

        // First commit: lines 0 and 3 of page 0, line 7 of page 2.
        ms.write(&mut vt, space, t, r.addr, &[1; 64]).unwrap();
        ms.write(&mut vt, space, t, r.addr + 3 * 64, &[2; 64])
            .unwrap();
        ms.write(
            &mut vt,
            space,
            t,
            r.addr + 2 * PAGE_SIZE as u64 + 7 * 64,
            &[3; 64],
        )
        .unwrap();
        let e1 = ms
            .msnap_persist(&mut vt, t, RegionSel::Region(r.md), PersistFlags::sync())
            .unwrap();
        // Second commit: line 9 of page 0.
        ms.write(&mut vt, space, t, r.addr + 9 * 64, &[4; 64])
            .unwrap();
        let e2 = ms
            .msnap_persist(&mut vt, t, RegionSel::Region(r.md), PersistFlags::sync())
            .unwrap();

        let one = ms.subpage_extents(&obj, base, e1).unwrap();
        assert_eq!(one.get(&0), Some(&(1u64 | 1 << 3)));
        assert_eq!(one.get(&2), Some(&(1u64 << 7)));
        assert_eq!(one.len(), 2);
        let both = ms.subpage_extents(&obj, base, e2).unwrap();
        assert_eq!(both.get(&0), Some(&(1u64 | 1 << 3 | 1 << 9)));
        assert_eq!(both.get(&2), Some(&(1u64 << 7)));

        // An out-of-band epoch jump (a fence) breaks the chain: intervals
        // spanning it are unprovable, intervals after it are covered.
        ms.msnap_fence(&mut vt, &obj, e2 + 10).unwrap();
        ms.write(&mut vt, space, t, r.addr, &[5; 64]).unwrap();
        let e3 = ms
            .msnap_persist(&mut vt, t, RegionSel::Region(r.md), PersistFlags::sync())
            .unwrap();
        assert_eq!(ms.subpage_extents(&obj, base, e3), None);
        assert_eq!(
            ms.subpage_extents(&obj, e2 + 10, e3),
            Some([(0u64, 1u64)].into_iter().collect())
        );
    }

    #[test]
    fn async_persist_returns_before_durability() {
        let (mut ms, mut vt, space) = fresh();
        let t = vt.id();
        let r = ms.msnap_open(&mut vt, space, "data", 16).unwrap();
        ms.write(&mut vt, space, t, r.addr, &[1; PAGE_SIZE])
            .unwrap();
        let before = vt.now();
        let epoch = ms
            .msnap_persist(&mut vt, t, RegionSel::Region(r.md), PersistFlags::async_())
            .unwrap();
        let async_lat = vt.now() - before;
        ms.msnap_wait(&mut vt, RegionSel::Region(r.md), epoch)
            .unwrap();
        let sync_lat = vt.now() - before;
        assert!(
            async_lat < sync_lat,
            "async returns before the IO: {async_lat} < {sync_lat}"
        );
        // Async latency is dominated by tracking reset: ~6 us (Table 6).
        assert!(async_lat < Nanos::from_us(15), "async latency {async_lat}");
    }

    #[test]
    fn persist_is_per_thread() {
        let (mut ms, mut vt, space) = fresh();
        let r = ms.msnap_open(&mut vt, space, "data", 16).unwrap();
        let t0 = VthreadId(0);
        let t1 = VthreadId(1);
        ms.write(&mut vt, space, t0, r.addr, &[1]).unwrap();
        ms.write(&mut vt, space, t1, r.addr + PAGE_SIZE as u64, &[2])
            .unwrap();
        ms.msnap_persist(&mut vt, t0, RegionSel::Region(r.md), PersistFlags::sync())
            .unwrap();
        // Thread 1's page is still dirty and untracked by the persist.
        assert_eq!(ms.vm().dirty_count(t1), 1);
        assert_eq!(ms.last_persist_breakdown().pages, 1);
    }

    #[test]
    fn global_flag_persists_all_threads() {
        let (mut ms, mut vt, space) = fresh();
        let r = ms.msnap_open(&mut vt, space, "data", 16).unwrap();
        let t0 = VthreadId(0);
        let t1 = VthreadId(1);
        ms.write(&mut vt, space, t0, r.addr, &[1]).unwrap();
        ms.write(&mut vt, space, t1, r.addr + PAGE_SIZE as u64, &[2])
            .unwrap();
        ms.msnap_persist(
            &mut vt,
            t0,
            RegionSel::All,
            PersistFlags::sync().with_global(),
        )
        .unwrap();
        assert_eq!(ms.vm().dirty_count(t1), 0);
        assert_eq!(ms.last_persist_breakdown().pages, 2);
    }

    #[test]
    fn region_filter_keeps_other_regions_dirty() {
        let (mut ms, mut vt, space) = fresh();
        let t = vt.id();
        let a = ms.msnap_open(&mut vt, space, "a", 16).unwrap();
        let b = ms.msnap_open(&mut vt, space, "b", 16).unwrap();
        ms.write(&mut vt, space, t, a.addr, &[1]).unwrap();
        ms.write(&mut vt, space, t, b.addr, &[2]).unwrap();
        ms.msnap_persist(&mut vt, t, RegionSel::Region(a.md), PersistFlags::sync())
            .unwrap();
        assert_eq!(ms.vm().dirty_count(t), 1, "region b stays dirty");
    }

    #[test]
    fn crash_restore_recovers_persisted_data_at_same_address() {
        let (mut ms, mut vt, space) = fresh();
        let t = vt.id();
        let r = ms.msnap_open(&mut vt, space, "data", 16).unwrap();
        ms.write(&mut vt, space, t, r.addr + 8192, b"durable")
            .unwrap();
        ms.msnap_persist(&mut vt, t, RegionSel::Region(r.md), PersistFlags::sync())
            .unwrap();
        // Unpersisted modification: must be lost.
        ms.write(&mut vt, space, t, r.addr, b"volatile").unwrap();
        let crash_at = vt.now();
        let disk = ms.crash(crash_at);

        let mut vt2 = Vt::new(1);
        let mut ms2 = MemSnap::restore(&mut vt2, disk).unwrap();
        let space2 = ms2.vm_mut().create_space();
        let r2 = ms2.msnap_open(&mut vt2, space2, "data", 0).unwrap();
        assert_eq!(r2.addr, r.addr, "regions map at the same address");
        assert_eq!(r2.pages, 16);
        let mut out = [0u8; 7];
        ms2.read(&mut vt2, space2, r2.addr + 8192, &mut out)
            .unwrap();
        assert_eq!(&out, b"durable");
        let mut lost = [0u8; 8];
        ms2.read(&mut vt2, space2, r2.addr, &mut lost).unwrap();
        assert_eq!(lost, [0; 8], "unpersisted write did not survive");
    }

    #[test]
    fn persist_breakdown_matches_table5() {
        // Table 5: a 64 KiB (16-page) msnap_persist costs ~51.4 us total:
        // ~5.1 us resetting tracking, ~6.5 us initiating, ~39.7 us on IO.
        let (mut ms, mut vt, space) = fresh();
        let t = vt.id();
        let r = ms.msnap_open(&mut vt, space, "data", 64).unwrap();
        for p in 0..16u64 {
            ms.write(
                &mut vt,
                space,
                t,
                r.addr + p * PAGE_SIZE as u64,
                &[7; PAGE_SIZE],
            )
            .unwrap();
        }
        ms.msnap_persist(&mut vt, t, RegionSel::Region(r.md), PersistFlags::sync())
            .unwrap();
        let b = ms.last_persist_breakdown();
        assert_eq!(b.pages, 16);
        let reset = b.resetting_tracking.as_us_f64();
        let init = b.initiating_writes.as_us_f64();
        let total = b.total().as_us_f64();
        assert!((reset - 5.1).abs() < 2.5, "reset {reset:.1} us vs 5.1 us");
        assert!((init - 6.5).abs() < 3.0, "initiate {init:.1} us vs 6.5 us");
        assert!(
            total > 30.0 && total < 90.0,
            "total {total:.1} us vs paper 51.4 us"
        );
    }

    #[test]
    fn wait_on_unissued_epoch_errors() {
        let (mut ms, mut vt, space) = fresh();
        let r = ms.msnap_open(&mut vt, space, "data", 16).unwrap();
        assert_eq!(
            ms.msnap_wait(&mut vt, RegionSel::Region(r.md), 99),
            Err(MsnapError::BadDescriptor)
        );
    }

    #[test]
    fn open_length_mismatch_rejected() {
        let (mut ms, mut vt, space) = fresh();
        ms.msnap_open(&mut vt, space, "data", 16).unwrap();
        assert_eq!(
            ms.msnap_open(&mut vt, space, "data", 32).unwrap_err(),
            MsnapError::LengthMismatch
        );
        assert_eq!(
            ms.msnap_open(&mut vt, space, "missing", 0).unwrap_err(),
            MsnapError::BadDescriptor
        );
    }

    #[test]
    fn reopen_same_space_is_idempotent() {
        let (mut ms, mut vt, space) = fresh();
        let r1 = ms.msnap_open(&mut vt, space, "data", 16).unwrap();
        let r2 = ms.msnap_open(&mut vt, space, "data", 16).unwrap();
        assert_eq!(r1, r2);
    }

    #[test]
    fn two_spaces_share_a_region() {
        let (mut ms, mut vt, space1) = fresh();
        let space2 = ms.vm_mut().create_space();
        let t = vt.id();
        let r = ms.msnap_open(&mut vt, space1, "shared", 16).unwrap();
        let r2 = ms.msnap_open(&mut vt, space2, "shared", 16).unwrap();
        assert_eq!(r.addr, r2.addr);
        ms.write(&mut vt, space1, t, r.addr, &[5]).unwrap();
        let mut out = [0u8; 1];
        ms.read(&mut vt, space2, r.addr, &mut out).unwrap();
        assert_eq!(out[0], 5);
    }

    #[test]
    fn concurrent_write_during_async_persist_cows() {
        let (mut ms, mut vt, space) = fresh();
        let t = vt.id();
        let r = ms.msnap_open(&mut vt, space, "data", 16).unwrap();
        ms.write(&mut vt, space, t, r.addr, &[1; PAGE_SIZE])
            .unwrap();
        let epoch = ms
            .msnap_persist(&mut vt, t, RegionSel::Region(r.md), PersistFlags::async_())
            .unwrap();
        // Write the same page while the IO is in flight.
        ms.write(&mut vt, space, t, r.addr + 4, &[9]).unwrap();
        assert_eq!(ms.vm().stats().cow_faults, 1, "in-flight page must COW");
        ms.msnap_wait(&mut vt, RegionSel::Region(r.md), epoch)
            .unwrap();
        // The durable image holds the *first* version; memory the second.
        let disk = ms.crash(vt.now());
        let mut vt2 = Vt::new(1);
        let mut ms2 = MemSnap::restore(&mut vt2, disk).unwrap();
        let space2 = ms2.vm_mut().create_space();
        let r2 = ms2.msnap_open(&mut vt2, space2, "data", 0).unwrap();
        let mut out = [0u8; 8];
        ms2.read(&mut vt2, space2, r2.addr, &mut out).unwrap();
        assert_eq!(out, [1; 8], "μCheckpoint is an atomic pre-write snapshot");
    }

    #[test]
    fn empty_persist_is_cheap_and_valid() {
        let (mut ms, mut vt, space) = fresh();
        let t = vt.id();
        let r = ms.msnap_open(&mut vt, space, "data", 16).unwrap();
        let epoch = ms
            .msnap_persist(&mut vt, t, RegionSel::Region(r.md), PersistFlags::sync())
            .unwrap();
        assert_eq!(epoch, 0, "no dirty data: current epoch");
        assert_eq!(ms.last_persist_breakdown().pages, 0);
    }

    #[test]
    fn failed_persist_is_sticky_until_acknowledged() {
        let (mut ms, mut vt, space) = fresh();
        let t = vt.id();
        let r = ms.msnap_open(&mut vt, space, "data", 16).unwrap();
        ms.write(&mut vt, space, t, r.addr, &[1; 64]).unwrap();
        // Hard-drop the next submission: the data extent of the persist.
        let plan = FaultPlan::new().at(ms.disk().io_seq(), Fault::Drop { transient: false });
        ms.set_fault_plan(plan);
        let err = ms
            .msnap_persist(&mut vt, t, RegionSel::Region(r.md), PersistFlags::sync())
            .unwrap_err();
        assert!(matches!(err, MsnapError::Store(_)), "got {err:?}");
        ms.clear_fault_plan();

        // Fsync gate: the error is reported again on every persist and
        // wait — even for epochs issued before the failure — and is not
        // cleared by the report.
        for _ in 0..2 {
            let again = ms
                .msnap_persist(&mut vt, t, RegionSel::Region(r.md), PersistFlags::sync())
                .unwrap_err();
            assert_eq!(again, err, "sticky error must not be silently cleared");
        }
        assert_eq!(
            ms.msnap_wait(&mut vt, RegionSel::Region(r.md), 0)
                .unwrap_err(),
            err
        );
        // The all-regions selector is poisoned too.
        assert_eq!(
            ms.msnap_persist(&mut vt, t, RegionSel::All, PersistFlags::sync())
                .unwrap_err(),
            err
        );

        // Acknowledge: the error is handed over exactly once, the failed
        // pages are still dirty, and the retry commits them.
        assert_eq!(ms.msnap_ack_error(RegionSel::Region(r.md)), Some(err));
        assert_eq!(ms.msnap_ack_error(RegionSel::Region(r.md)), None);
        assert_eq!(ms.vm().dirty_count(t), 1, "failed pages stay dirty");
        let epoch = ms
            .msnap_persist(&mut vt, t, RegionSel::Region(r.md), PersistFlags::sync())
            .unwrap();
        assert_eq!(epoch, 1);
        ms.msnap_wait(&mut vt, RegionSel::Region(r.md), epoch)
            .unwrap();
    }

    #[test]
    fn out_of_space_surfaces_as_sticky_store_error() {
        let cfg = DiskConfig::paper().with_capacity_blocks(160);
        let mut ms = MemSnap::format(Disk::new(cfg));
        let mut vt = Vt::new(0);
        let space = ms.vm_mut().create_space();
        let t = vt.id();
        // Distinct pages every round: recycling cannot help, the block map
        // must grow until the 160-block device fills up.
        let r = ms.msnap_open(&mut vt, space, "data", 256).unwrap();
        let mut hit = None;
        for i in 0..256u64 {
            ms.write(
                &mut vt,
                space,
                t,
                r.addr + i * PAGE_SIZE as u64,
                &[i as u8; 8],
            )
            .unwrap();
            match ms.msnap_persist(&mut vt, t, RegionSel::Region(r.md), PersistFlags::sync()) {
                Ok(_) => {}
                Err(e) => {
                    hit = Some(e);
                    break;
                }
            }
        }
        let err = hit.expect("a 160-block device must fill up");
        assert_eq!(err, MsnapError::Store(StoreError::OutOfSpace));
        // Sticky until acknowledged, then the region is still readable:
        // the abort left the previous epoch intact.
        assert_eq!(
            ms.msnap_wait(&mut vt, RegionSel::Region(r.md), 1)
                .unwrap_err(),
            err
        );
        assert_eq!(ms.msnap_ack_error(RegionSel::Region(r.md)), Some(err));
        let mut out = [0u8; 8];
        ms.read(&mut vt, space, r.addr, &mut out).unwrap();
    }

    #[test]
    fn transient_faults_are_invisible_to_the_api() {
        let (mut ms, mut vt, space) = fresh();
        let t = vt.id();
        let r = ms.msnap_open(&mut vt, space, "data", 16).unwrap();
        ms.write(&mut vt, space, t, r.addr, &[7; 32]).unwrap();
        let plan = FaultPlan::new().at(ms.disk().io_seq(), Fault::Drop { transient: true });
        ms.set_fault_plan(plan);
        let epoch = ms
            .msnap_persist(&mut vt, t, RegionSel::Region(r.md), PersistFlags::sync())
            .unwrap();
        assert_eq!(epoch, 1, "bounded retry hides transient faults");
        let inj = ms.clear_fault_plan().unwrap();
        assert_eq!(inj.injected().len(), 1);
        assert!(ms.msnap_ack_error(RegionSel::All).is_none());
    }

    #[test]
    fn grouped_persists_coalesce_into_one_batch() {
        let (mut ms, mut vt0, space) = fresh();
        ms.set_coalesce_window(Nanos::from_us(100));
        let mut vts = [Vt::new(1), Vt::new(2), Vt::new(3)];
        let mut regions = Vec::new();
        for (i, vt) in vts.iter_mut().enumerate() {
            let r = ms
                .msnap_open(&mut vt0, space, &format!("r{i}"), 16)
                .unwrap();
            let t = vt.id();
            ms.write(vt, space, t, r.addr, &[i as u8 + 1; 64]).unwrap();
            regions.push(r);
        }
        let before = ms.disk().stats().writes();
        let tickets: Vec<_> = vts
            .iter_mut()
            .zip(&regions)
            .map(|(vt, r)| {
                let t = vt.id();
                ms.msnap_persist_grouped(vt, t, RegionSel::Region(r.md), PersistFlags::sync())
                    .unwrap()
            })
            .collect();
        // The enqueue is cheap — no IO was initiated yet.
        assert_eq!(ms.disk().stats().writes(), before);
        // First polls ride out the window; repolls flush and complete.
        for (vt, ticket) in vts.iter_mut().zip(&tickets) {
            let mut epoch = ms.msnap_group_poll(vt, *ticket).unwrap();
            while epoch.is_none() {
                epoch = ms.msnap_group_poll(vt, *ticket).unwrap();
            }
            assert_eq!(epoch, Some(1), "each region advances to epoch 1");
        }
        // Three regions, two IOs: one merged extent + one commit record.
        assert_eq!(ms.disk().stats().writes() - before, 2);
        assert_eq!(ms.disk().stats().merged_submissions(), 1);
        assert_eq!(ms.disk().stats().merged_parts(), 3);
        assert_eq!(ms.store().stats().batch_commits, 1);
        // A redeemed ticket is gone.
        assert_eq!(
            ms.msnap_group_poll(&mut vts[0], tickets[0]).unwrap_err(),
            MsnapError::BadDescriptor
        );
    }

    #[test]
    fn grouped_commit_survives_crash() {
        let (mut ms, mut vt, space) = fresh();
        ms.set_coalesce_window(Nanos::from_us(10));
        let t = vt.id();
        let a = ms.msnap_open(&mut vt, space, "a", 16).unwrap();
        let b = ms.msnap_open(&mut vt, space, "b", 16).unwrap();
        ms.write(&mut vt, space, t, a.addr, b"alpha").unwrap();
        ms.write(&mut vt, space, t, b.addr, b"bravo").unwrap();
        let ta = ms
            .msnap_persist_grouped(&mut vt, t, RegionSel::Region(a.md), PersistFlags::sync())
            .unwrap();
        let tb = ms
            .msnap_persist_grouped(&mut vt, t, RegionSel::Region(b.md), PersistFlags::sync())
            .unwrap();
        for ticket in [ta, tb] {
            let mut epoch = ms.msnap_group_poll(&mut vt, ticket).unwrap();
            while epoch.is_none() {
                epoch = ms.msnap_group_poll(&mut vt, ticket).unwrap();
            }
        }
        let disk = ms.crash(vt.now());
        let mut vt2 = Vt::new(9);
        let mut ms2 = MemSnap::restore(&mut vt2, disk).unwrap();
        let space2 = ms2.vm_mut().create_space();
        let a2 = ms2.msnap_open(&mut vt2, space2, "a", 0).unwrap();
        let b2 = ms2.msnap_open(&mut vt2, space2, "b", 0).unwrap();
        let mut out = [0u8; 5];
        ms2.read(&mut vt2, space2, a2.addr, &mut out).unwrap();
        assert_eq!(&out, b"alpha");
        ms2.read(&mut vt2, space2, b2.addr, &mut out).unwrap();
        assert_eq!(&out, b"bravo");
    }

    #[test]
    fn faulted_batch_sticky_fails_every_participant() {
        let (mut ms, mut vt, space) = fresh();
        ms.set_coalesce_window(Nanos::from_us(10));
        let a = ms.msnap_open(&mut vt, space, "a", 16).unwrap();
        let b = ms.msnap_open(&mut vt, space, "b", 16).unwrap();
        let t0 = VthreadId(0);
        let t1 = VthreadId(1);
        ms.write(&mut vt, space, t0, a.addr, &[1; 32]).unwrap();
        ms.write(&mut vt, space, t1, b.addr, &[2; 32]).unwrap();
        // Hard-drop the batch's data extent.
        let plan = FaultPlan::new().at(ms.disk().io_seq(), Fault::Drop { transient: false });
        ms.set_fault_plan(plan);
        let ta = ms
            .msnap_persist_grouped(&mut vt, t0, RegionSel::Region(a.md), PersistFlags::sync())
            .unwrap();
        let tb = ms
            .msnap_persist_grouped(&mut vt, t1, RegionSel::Region(b.md), PersistFlags::sync())
            .unwrap();
        ms.msnap_group_flush(&mut vt);
        ms.clear_fault_plan();
        // Every participant of the faulted batch fails, not just the one
        // whose pages happened to hit the bad block.
        let ea = ms.msnap_group_poll(&mut vt, ta).unwrap_err();
        let eb = ms.msnap_group_poll(&mut vt, tb).unwrap_err();
        assert!(matches!(ea, MsnapError::Store(_)));
        assert_eq!(ea, eb);
        // Both regions' fsync gates are armed...
        assert_eq!(
            ms.msnap_persist(&mut vt, t0, RegionSel::Region(a.md), PersistFlags::sync())
                .unwrap_err(),
            ea
        );
        assert_eq!(
            ms.msnap_persist(&mut vt, t1, RegionSel::Region(b.md), PersistFlags::sync())
                .unwrap_err(),
            ea
        );
        // ...and each thread's pages went back to its dirty set, so the
        // acknowledged retry persists them.
        assert_eq!(ms.vm().dirty_count(t0), 1);
        assert_eq!(ms.vm().dirty_count(t1), 1);
        ms.msnap_ack_error(RegionSel::Region(a.md));
        ms.msnap_ack_error(RegionSel::Region(b.md));
        let epoch = ms
            .msnap_persist(&mut vt, t0, RegionSel::Region(a.md), PersistFlags::sync())
            .unwrap();
        assert_eq!(epoch, 1);
    }

    #[test]
    fn single_participant_group_takes_the_plain_path() {
        let (mut ms, mut vt, space) = fresh();
        ms.set_coalesce_window(Nanos::from_us(5));
        let t = vt.id();
        let r = ms.msnap_open(&mut vt, space, "data", 16).unwrap();
        ms.write(&mut vt, space, t, r.addr, &[3; 16]).unwrap();
        let ticket = ms
            .msnap_persist_grouped(&mut vt, t, RegionSel::Region(r.md), PersistFlags::sync())
            .unwrap();
        let mut epoch = ms.msnap_group_poll(&mut vt, ticket).unwrap();
        while epoch.is_none() {
            epoch = ms.msnap_group_poll(&mut vt, ticket).unwrap();
        }
        assert_eq!(epoch, Some(1));
        // A lone participant is a plain delta commit, not a batch record.
        assert_eq!(ms.store().stats().batch_commits, 0);
        assert_eq!(
            ms.store().stats().delta_commits,
            3,
            "format + open manifests, then the commit itself"
        );
    }

    #[test]
    fn solo_poll_flushes_without_waiting_out_the_window() {
        let (mut ms, mut vt, space) = fresh();
        let t = vt.id();
        let r = ms.msnap_open(&mut vt, space, "data", 16).unwrap();
        ms.write(&mut vt, space, t, r.addr, &[5; 16]).unwrap();
        // A huge window makes the discrimination unambiguous: the old
        // behavior would park the poll until `submit_at`, so finishing
        // well before `before + window` proves the window was skipped.
        ms.set_coalesce_window(Nanos::from_us(50_000));
        let before = vt.now();
        let ticket = ms
            .msnap_persist_grouped(&mut vt, t, RegionSel::Region(r.md), PersistFlags::async_())
            .unwrap();
        // The fast path flushes on the *first* poll: no `None` round, no
        // window wait for a participant with nobody to merge with.
        let epoch = ms.msnap_group_poll(&mut vt, ticket).unwrap();
        assert_eq!(epoch, Some(1));
        assert!(
            vt.now() - before < Nanos::from_us(50_000),
            "solo poll must not wait out the coalescing window"
        );
    }

    #[test]
    fn sharded_format_cut_restore_round_trip() {
        // A cut is durable on every store; one shard is just `N = 1`.
        for shards in [1, 4] {
            cut_restore_round_trip(shards);
        }
    }

    fn cut_restore_round_trip(shards: usize) {
        let mut ms = MemSnap::format_sharded(Disk::new(DiskConfig::paper()), shards);
        let mut vt = Vt::new(0);
        let space = ms.vm_mut().create_space();
        let t = vt.id();
        assert_eq!(ms.store().shard_count(), shards);
        let a = ms.msnap_open(&mut vt, space, "alpha", 8).unwrap();
        let b = ms.msnap_open(&mut vt, space, "beta", 8).unwrap();
        ms.write(&mut vt, space, t, a.addr, &[1; 64]).unwrap();
        ms.write(&mut vt, space, t, b.addr, &[2; 64]).unwrap();
        ms.msnap_persist(&mut vt, t, RegionSel::Region(a.md), PersistFlags::sync())
            .unwrap();
        ms.msnap_persist(&mut vt, t, RegionSel::Region(b.md), PersistFlags::sync())
            .unwrap();
        let cut = ms.msnap_cut(&mut vt).unwrap();
        assert!(cut.complete_under(&ms.store().epoch_vector()));
        assert!(cut.epochs.iter().sum::<u64>() >= 2, "cut counts commits");

        let disk = ms.crash(vt.now());
        let mut ms = MemSnap::restore(&mut vt, disk).unwrap();
        assert_eq!(ms.store().shard_count(), shards);
        let recovered = ms.last_cut().cloned().expect("cut survives the crash");
        assert_eq!(recovered, cut);
        assert!(recovered.complete_under(&ms.store().epoch_vector()));
        // Region data is intact behind the cut (restore builds a fresh Vm,
        // so the space must be recreated).
        let space = ms.vm_mut().create_space();
        let a = ms.msnap_open(&mut vt, space, "alpha", 8).unwrap();
        let mut buf = [0u8; 64];
        ms.read(&mut vt, space, a.addr, &mut buf).unwrap();
        assert_eq!(buf, [1; 64]);
    }

    #[test]
    fn grouped_commits_coalesce_per_shard_lane() {
        let mut ms = MemSnap::format_sharded(Disk::new(DiskConfig::paper()), 4);
        let mut vt = Vt::new(0);
        let space = ms.vm_mut().create_space();
        let t = vt.id();
        ms.set_coalesce_window(Nanos::from_us(8));
        // Find two region names on the same shard and one on a different
        // shard (the map is a stable hash of the name, so probe names).
        let names: Vec<String> = (0..32).map(|i| format!("region-{i}")).collect();
        let s0 = ms.store().shard_of(&names[0]);
        let same = names[1..]
            .iter()
            .find(|n| ms.store().shard_of(n) == s0)
            .expect("32 names must collide on 4 shards")
            .clone();
        let other = names[1..]
            .iter()
            .find(|n| ms.store().shard_of(n) != s0)
            .expect("32 names must spread over 4 shards")
            .clone();
        let ra = ms.msnap_open(&mut vt, space, &names[0], 4).unwrap();
        let rb = ms.msnap_open(&mut vt, space, &same, 4).unwrap();
        let rc = ms.msnap_open(&mut vt, space, &other, 4).unwrap();
        for r in [&ra, &rb, &rc] {
            ms.write(&mut vt, space, t, r.addr, &[9; 16]).unwrap();
        }
        let ta = ms
            .msnap_persist_grouped(&mut vt, t, RegionSel::Region(ra.md), PersistFlags::sync())
            .unwrap();
        let tb = ms
            .msnap_persist_grouped(&mut vt, t, RegionSel::Region(rb.md), PersistFlags::sync())
            .unwrap();
        let tc = ms
            .msnap_persist_grouped(&mut vt, t, RegionSel::Region(rc.md), PersistFlags::sync())
            .unwrap();
        // Same-shard regions share a batch (and hence a ticket's batch
        // id); the other shard's lane opened its own batch.
        assert_eq!(ta.batch, tb.batch, "same shard, same coalescing lane");
        assert_ne!(ta.batch, tc.batch, "different shard, different lane");
        for ticket in [ta, tb, tc] {
            let mut epoch = ms.msnap_group_poll(&mut vt, ticket).unwrap();
            while epoch.is_none() {
                epoch = ms.msnap_group_poll(&mut vt, ticket).unwrap();
            }
            assert_eq!(epoch, Some(1));
        }
        // The same-shard pair coalesced into one batched submission.
        assert_eq!(ms.store().stats().batch_commits, 1);
        assert_eq!(ms.store().stats().batched_objects, 2);
    }

    #[test]
    fn empty_grouped_persist_reports_current_epoch() {
        let (mut ms, mut vt, space) = fresh();
        let t = vt.id();
        let r = ms.msnap_open(&mut vt, space, "data", 16).unwrap();
        let ticket = ms
            .msnap_persist_grouped(&mut vt, t, RegionSel::Region(r.md), PersistFlags::sync())
            .unwrap();
        ms.msnap_group_flush(&mut vt);
        assert_eq!(ms.msnap_group_poll(&mut vt, ticket).unwrap(), Some(0));
    }

    #[test]
    fn async_pipeline_applies_backpressure_at_depth() {
        let (mut ms, mut vt, space) = fresh();
        let r = ms.msnap_open(&mut vt, space, "data", 64).unwrap();
        // One committer cannot fill the pipeline (its own initiation
        // outlasts the IO it queued), so PIPELINE_DEPTH + 1 committers
        // each bring their own clock to the same instant. The first
        // PIPELINE_DEPTH admissions are free; the last finds the pipeline
        // full and blocks on the oldest in-flight μCheckpoint.
        let commit_at = |ms: &mut MemSnap, at: Nanos, who: u32| {
            let mut vt = Vt::new(100 + who);
            vt.wait_until(at);
            let t = vt.id();
            let va = r.addr + who as u64 * PAGE_SIZE as u64;
            ms.write(&mut vt, space, t, va, &[who as u8 + 1; PAGE_SIZE])
                .unwrap();
            ms.msnap_persist(&mut vt, t, RegionSel::Region(r.md), PersistFlags::async_())
                .unwrap();
            ms.last_persist_breakdown().waiting_on_io
        };
        let t0 = vt.now();
        for who in 0..PIPELINE_DEPTH as u32 {
            assert_eq!(commit_at(&mut ms, t0, who), Nanos::ZERO, "free: {who}");
        }
        let blocked = commit_at(&mut ms, t0, PIPELINE_DEPTH as u32);
        assert!(blocked > Nanos::ZERO, "admission past the depth blocks");
        // Once the device catches up, admissions are free again.
        let later = t0 + Nanos::from_secs(1);
        assert_eq!(commit_at(&mut ms, later, 0), Nanos::ZERO);
    }

    #[test]
    fn all_selector_commits_a_prefix_when_a_region_fails() {
        let (mut ms, mut vt, space) = fresh();
        let t = vt.id();
        let [a, b, c] = ["a", "b", "c"].map(|n| ms.msnap_open(&mut vt, space, n, 16).unwrap());
        for (i, r) in [a, b, c].iter().enumerate() {
            ms.write(&mut vt, space, t, r.addr, &[i as u8 + 1; 64])
                .unwrap();
        }
        // One IO pair (extent, record) per region modified: hard-drop the
        // second region's extent.
        let plan = FaultPlan::new().at(ms.disk().io_seq() + 2, Fault::Drop { transient: false });
        ms.set_fault_plan(plan);
        let err = ms
            .msnap_persist(&mut vt, t, RegionSel::All, PersistFlags::sync())
            .unwrap_err();
        ms.clear_fault_plan();
        assert!(matches!(err, MsnapError::Store(_)), "got {err:?}");

        // The first region stays committed, its completion recorded...
        assert_eq!(ms.region_epoch(a.md), Some(1));
        assert_eq!(ms.last_persist_breakdown().pages, 1);
        ms.msnap_wait(&mut vt, RegionSel::Region(a.md), 1).unwrap();
        // ...the second is sticky with its page back in the dirty set,
        // and the third was never touched: dirty, healthy.
        assert_eq!(ms.region_epoch(b.md), Some(0));
        assert_eq!(ms.region_epoch(c.md), Some(0));
        assert_eq!(ms.vm().dirty_count(t), 2);
        assert_eq!(
            ms.msnap_wait(&mut vt, RegionSel::Region(b.md), 0),
            Err(err.clone())
        );
        assert_eq!(ms.msnap_ack_error(RegionSel::Region(c.md)), None);

        // Acknowledged, one persist commits both.
        assert_eq!(ms.msnap_ack_error(RegionSel::All), Some(err));
        ms.msnap_persist(&mut vt, t, RegionSel::All, PersistFlags::sync())
            .unwrap();
        assert_eq!(ms.last_persist_breakdown().pages, 2);
        for r in [a, b, c] {
            assert_eq!(ms.region_epoch(r.md), Some(1));
        }
        assert_eq!(ms.vm().dirty_count(t), 0);
    }

    #[test]
    fn every_door_commits_exactly_once_across_grant_retries() {
        // Every commit below writes pages never written before, so a
        // shard's block range only grows, and each 256-block extent it
        // consumes is granted by `with_grants` re-running a commit that
        // aborted with `OutOfSpace`. One door per run, so every such
        // re-run lands in that door. Whatever the door and however the
        // façade split the commit, the re-run must not repeat a unit
        // that already committed (one epoch per region per commit, one
        // store commit per region commit), and the aborted attempt must
        // charge nothing (identical commits cost the same store CPU).
        const ROUNDS: u64 = 30;
        const SMALL: u64 = 40;
        const LARGE: u64 = 130; // two of these overflow one batch record
        for door in 0..6 {
            let mut ms = MemSnap::format_sharded(Disk::new(DiskConfig::paper()), 2);
            let mut vt = Vt::new(0);
            let space = ms.vm_mut().create_space();
            let t = vt.id();
            // `a` and `b` share a shard, `c` lives on the other one.
            let names: Vec<String> = (0..16).map(|i| format!("region-{i}")).collect();
            let home = ms.store().shard_of(&names[0]);
            let same = names[1..]
                .iter()
                .find(|n| ms.store().shard_of(n) == home)
                .expect("16 names collide on 2 shards");
            let other = names[1..]
                .iter()
                .find(|n| ms.store().shard_of(n) != home)
                .expect("16 names spread over 2 shards");
            let [a, b, c] = [&names[0], same, other]
                .map(|n| ms.msnap_open(&mut vt, space, n, ROUNDS * LARGE).unwrap());
            let (sel_a, sel_b) = (RegionSel::Region(a.md), RegionSel::Region(b.md));
            let sync = PersistFlags::sync();

            let poll = |ms: &mut MemSnap, vt: &mut Vt, ticket: CommitTicket| loop {
                if ms.msnap_group_poll(vt, ticket).unwrap().is_some() {
                    break;
                }
            };
            let mut charges = std::collections::BTreeSet::new();
            let before = ms.disk().blocks_in_use();
            for round in 0..ROUNDS {
                // Dirties the region's next `n` fresh pages.
                let dirty = |ms: &mut MemSnap, vt: &mut Vt, r: &RegionHandle, n: u64| {
                    for page in round * n..(round + 1) * n {
                        let va = r.addr + page * PAGE_SIZE as u64;
                        ms.write(vt, space, t, va, &page.to_le_bytes()).unwrap();
                    }
                };
                let epochs = [a, b, c].map(|r| ms.region_epoch(r.md).unwrap());
                let (stats, cpu) = (ms.store().stats(), vt.costs().get(Category::FileSystem));
                let regions: &[RegionHandle] = match door {
                    0 => {
                        dirty(&mut ms, &mut vt, &a, SMALL);
                        ms.msnap_persist(&mut vt, t, sel_a, sync).unwrap();
                        &[a]
                    }
                    1 => {
                        dirty(&mut ms, &mut vt, &a, SMALL);
                        let e = ms
                            .msnap_persist(&mut vt, t, sel_a, PersistFlags::async_())
                            .unwrap();
                        ms.msnap_wait(&mut vt, sel_a, e).unwrap();
                        &[a]
                    }
                    2 => {
                        dirty(&mut ms, &mut vt, &a, SMALL);
                        let ticket = ms.msnap_persist_grouped(&mut vt, t, sel_a, sync).unwrap();
                        poll(&mut ms, &mut vt, ticket);
                        &[a]
                    }
                    // One participant across shards: split by shard.
                    3 => {
                        dirty(&mut ms, &mut vt, &a, SMALL);
                        dirty(&mut ms, &mut vt, &c, SMALL);
                        let ticket = ms
                            .msnap_persist_grouped(&mut vt, t, RegionSel::All, sync)
                            .unwrap();
                        poll(&mut ms, &mut vt, ticket);
                        &[a, c]
                    }
                    // Two regions of one shard: one shared batch record
                    // (4), or — too large for it — group by group (5).
                    _ => {
                        let n = if door == 4 { SMALL } else { LARGE };
                        dirty(&mut ms, &mut vt, &a, n);
                        dirty(&mut ms, &mut vt, &b, n);
                        let ta = ms.msnap_persist_grouped(&mut vt, t, sel_a, sync).unwrap();
                        let tb = ms.msnap_persist_grouped(&mut vt, t, sel_b, sync).unwrap();
                        ms.msnap_group_flush(&mut vt);
                        poll(&mut ms, &mut vt, ta);
                        poll(&mut ms, &mut vt, tb);
                        &[a, b]
                    }
                };
                for (r, was) in [a, b, c].iter().zip(epochs) {
                    let advanced = u64::from(regions.contains(r));
                    assert_eq!(
                        ms.region_epoch(r.md),
                        Some(was + advanced),
                        "door {door} round {round}: {r:?}"
                    );
                }
                let now = ms.store().stats();
                let committed = regions.len() as u64;
                assert_eq!(
                    now.commits - stats.commits,
                    committed,
                    "door {door} round {round}"
                );
                assert_eq!(
                    now.batch_commits - stats.batch_commits,
                    u64::from(door == 4)
                );
                // Compare the delta-only commits; the periodic full root
                // does different work.
                if now.delta_commits - stats.delta_commits == committed
                    && now.nodes_written == stats.nodes_written
                {
                    charges.insert(vt.costs().get(Category::FileSystem) - cpu);
                }
            }
            let consumed = (ms.disk().blocks_in_use() - before) as u64;
            assert!(
                consumed >= 4 * 256,
                "door {door} must cross extent boundaries"
            );
            assert_eq!(charges.len(), 1, "door {door}: initiation {charges:?}");
        }
    }

    #[test]
    fn settle_until_trims_completion_instants() {
        let (mut ms, mut vt, space) = fresh();
        let t = vt.id();
        let r = ms.msnap_open(&mut vt, space, "data", 4).unwrap();
        let sel = RegionSel::Region(r.md);
        for i in 0..10_000u64 {
            ms.write(&mut vt, space, t, r.addr, &i.to_le_bytes())
                .unwrap();
            ms.msnap_persist(&mut vt, t, sel, PersistFlags::sync())
                .unwrap();
            if i % 100 == 99 {
                // Everything is durable by now: only the newest survive.
                ms.settle_until(vt.now());
                assert!(ms.completions.values().all(|epochs| epochs.len() == 1));
            }
            assert!(ms.completions.values().all(|epochs| epochs.len() <= 100));
        }
        assert_eq!(ms.completions.len(), 2, "the region and `All`");

        // A trimmed epoch is durable: the wait returns without waiting.
        // A never-issued one is still a caller bug.
        let waited = vt.costs().get(Category::IoWait);
        for sel in [sel, RegionSel::All] {
            ms.msnap_wait(&mut vt, sel, 1).unwrap();
            ms.msnap_wait(&mut vt, sel, 9_999).unwrap();
            assert_eq!(
                ms.msnap_wait(&mut vt, sel, 10_001),
                Err(MsnapError::BadDescriptor)
            );
        }
        assert_eq!(vt.costs().get(Category::IoWait), waited);

        // An epoch still in flight at the horizon keeps its instant.
        ms.write(&mut vt, space, t, r.addr, &[7; 8]).unwrap();
        let epoch = ms
            .msnap_persist(&mut vt, t, sel, PersistFlags::async_())
            .unwrap();
        ms.settle_until(vt.now());
        ms.msnap_wait(&mut vt, sel, epoch).unwrap();
        assert!(vt.costs().get(Category::IoWait) > waited);
    }

    #[test]
    fn late_enqueuer_flushes_the_stale_batch_first() {
        let (mut ms, mut vt, space) = fresh();
        ms.set_coalesce_window(Nanos::from_us(4));
        let t = vt.id();
        let r = ms.msnap_open(&mut vt, space, "data", 16).unwrap();
        ms.write(&mut vt, space, t, r.addr, &[1; 8]).unwrap();
        let t1 = ms
            .msnap_persist_grouped(&mut vt, t, RegionSel::Region(r.md), PersistFlags::sync())
            .unwrap();
        // Long after the window closed, a new enqueue arrives: it must not
        // join the expired batch.
        vt.wait_until(vt.now() + Nanos::from_us(50));
        ms.write(&mut vt, space, t, r.addr + 4096, &[2; 8]).unwrap();
        let t2 = ms
            .msnap_persist_grouped(&mut vt, t, RegionSel::Region(r.md), PersistFlags::sync())
            .unwrap();
        assert_ne!(t1.batch, t2.batch, "expired window starts a new batch");
        assert_eq!(ms.msnap_group_poll(&mut vt, t1).unwrap(), Some(1));
        ms.msnap_group_flush(&mut vt);
        assert_eq!(ms.msnap_group_poll(&mut vt, t2).unwrap(), Some(2));
    }

    #[test]
    fn snapshot_survives_full_root_flushes_and_reads_via_open_at() {
        let (mut ms, mut vt, space) = fresh();
        let t = vt.id();
        let r = ms.msnap_open(&mut vt, space, "data", 8).unwrap();
        for p in 0..8u64 {
            ms.write(
                &mut vt,
                space,
                t,
                r.addr + p * PAGE_SIZE as u64,
                &[0x40 + p as u8; PAGE_SIZE],
            )
            .unwrap();
        }
        ms.msnap_persist(&mut vt, t, RegionSel::Region(r.md), PersistFlags::sync())
            .unwrap();
        let snap_epoch = ms.msnap_snapshot(&mut vt, r.md, "before-churn").unwrap();

        // Churn page 0 through enough μCheckpoints for at least two
        // full-root flushes (one every DELTA_SLOTS=32 delta commits).
        let deltas_before = ms.store().stats().delta_commits;
        let commits_before = ms.store().stats().commits;
        for i in 0..68u64 {
            ms.write(&mut vt, space, t, r.addr, &[i as u8; PAGE_SIZE])
                .unwrap();
            let e = ms
                .msnap_persist(&mut vt, t, RegionSel::Region(r.md), PersistFlags::sync())
                .unwrap();
            ms.msnap_wait(&mut vt, RegionSel::Region(r.md), e).unwrap();
        }
        let fulls = (ms.store().stats().commits - commits_before)
            - (ms.store().stats().delta_commits - deltas_before);
        assert!(fulls >= 2, "churn crossed {fulls} full-root flushes");

        // The retained image is intact, byte for byte, at a fresh address.
        let view = ms.msnap_open_at(&mut vt, space, "before-churn").unwrap();
        assert_eq!(view.epoch, snap_epoch);
        assert_ne!(view.addr, r.addr, "the view maps beside the live region");
        let mut out = [0u8; PAGE_SIZE];
        for p in 0..8u64 {
            ms.read(&mut vt, space, view.addr + p * PAGE_SIZE as u64, &mut out)
                .unwrap();
            assert_eq!(out, [0x40 + p as u8; PAGE_SIZE], "snapshot page {p}");
        }
        // The live region still shows the churned content.
        ms.read(&mut vt, space, r.addr, &mut out).unwrap();
        assert_eq!(out, [67; PAGE_SIZE]);
    }

    #[test]
    fn rollback_restores_snapshot_content_and_survives_crash() {
        let (mut ms, mut vt, space) = fresh();
        let t = vt.id();
        let r = ms.msnap_open(&mut vt, space, "data", 4).unwrap();
        ms.write(&mut vt, space, t, r.addr, b"genesis").unwrap();
        ms.msnap_persist(&mut vt, t, RegionSel::Region(r.md), PersistFlags::sync())
            .unwrap();
        let snap_epoch = ms.msnap_snapshot(&mut vt, r.md, "good").unwrap();
        // Diverge, persist the divergence, and leave an unpersisted write
        // dirty — rollback must overwrite both.
        ms.write(&mut vt, space, t, r.addr, b"corrupt").unwrap();
        ms.msnap_persist(&mut vt, t, RegionSel::Region(r.md), PersistFlags::sync())
            .unwrap();
        ms.write(&mut vt, space, t, r.addr + PAGE_SIZE as u64, b"junk")
            .unwrap();

        let epoch = ms.msnap_rollback(&mut vt, space, t, "good").unwrap();
        assert!(epoch > snap_epoch, "time moves forward, content back");
        let mut out = [0u8; 7];
        ms.read(&mut vt, space, r.addr, &mut out).unwrap();
        assert_eq!(&out, b"genesis");

        // The rollback is durable: crash and restore still shows it.
        let disk = ms.crash(vt.now());
        let mut vt2 = Vt::new(1);
        let mut ms2 = MemSnap::restore(&mut vt2, disk).unwrap();
        let space2 = ms2.vm_mut().create_space();
        let r2 = ms2.msnap_open(&mut vt2, space2, "data", 0).unwrap();
        ms2.read(&mut vt2, space2, r2.addr, &mut out).unwrap();
        assert_eq!(&out, b"genesis");
        let mut junk = [0u8; 4];
        ms2.read(&mut vt2, space2, r2.addr + PAGE_SIZE as u64, &mut junk)
            .unwrap();
        assert_eq!(junk, [0; 4], "unpersisted junk did not survive");
        // The snapshot catalog also survived: the view still opens.
        let view = ms2.msnap_open_at(&mut vt2, space2, "good").unwrap();
        ms2.read(&mut vt2, space2, view.addr, &mut out).unwrap();
        assert_eq!(&out, b"genesis");
    }

    #[test]
    fn snapshot_calls_reject_unknown_names_and_regions() {
        let (mut ms, mut vt, space) = fresh();
        let t = vt.id();
        assert_eq!(
            ms.msnap_snapshot(&mut vt, Md(9), "x").unwrap_err(),
            MsnapError::BadDescriptor
        );
        assert_eq!(
            ms.msnap_open_at(&mut vt, space, "missing").unwrap_err(),
            MsnapError::BadDescriptor
        );
        assert_eq!(
            ms.msnap_rollback(&mut vt, space, t, "missing").unwrap_err(),
            MsnapError::BadDescriptor
        );
        // A duplicate snapshot name surfaces the store's error.
        let r = ms.msnap_open(&mut vt, space, "data", 4).unwrap();
        ms.msnap_snapshot(&mut vt, r.md, "s").unwrap();
        assert_eq!(
            ms.msnap_snapshot(&mut vt, r.md, "s").unwrap_err(),
            MsnapError::Store(StoreError::SnapshotExists)
        );
    }

    #[test]
    fn writes_to_a_snapshot_view_never_reach_the_store() {
        let (mut ms, mut vt, space) = fresh();
        let t = vt.id();
        let r = ms.msnap_open(&mut vt, space, "data", 4).unwrap();
        ms.write(&mut vt, space, t, r.addr, b"keep").unwrap();
        ms.msnap_persist(&mut vt, t, RegionSel::Region(r.md), PersistFlags::sync())
            .unwrap();
        ms.msnap_snapshot(&mut vt, r.md, "s").unwrap();
        let view = ms.msnap_open_at(&mut vt, space, "s").unwrap();
        // Scribble on the view: untracked, so nothing becomes dirty and a
        // global persist ships nothing.
        ms.write(&mut vt, space, t, view.addr, b"scribble").unwrap();
        ms.msnap_persist(
            &mut vt,
            t,
            RegionSel::All,
            PersistFlags::sync().with_global(),
        )
        .unwrap();
        assert_eq!(ms.last_persist_breakdown().pages, 0);
        // A second view of the same snapshot still shows the pinned image.
        let view2 = ms.msnap_open_at(&mut vt, space, "s").unwrap();
        let mut out = [0u8; 4];
        ms.read(&mut vt, space, view2.addr, &mut out).unwrap();
        assert_eq!(&out, b"keep");
    }

    #[test]
    fn meters_record_persist_latency() {
        let (mut ms, mut vt, space) = fresh();
        let t = vt.id();
        let r = ms.msnap_open(&mut vt, space, "data", 16).unwrap();
        ms.write(&mut vt, space, t, r.addr, &[1]).unwrap();
        ms.msnap_persist(&mut vt, t, RegionSel::Region(r.md), PersistFlags::sync())
            .unwrap();
        assert_eq!(ms.meters().get("msnap_persist").unwrap().count(), 1);
    }

    #[test]
    fn inspection_api_reads_epochs_and_catalog_without_mut() {
        let (mut ms, mut vt, space) = fresh();
        let t = vt.id();
        let r = ms.msnap_open(&mut vt, space, "data", 4).unwrap();
        assert_eq!(ms.region_epoch(r.md), Some(0));
        assert_eq!(ms.region_object_name(r.md), Some("data"));
        assert_eq!(ms.region_epoch(Md(9)), None);
        assert_eq!(ms.region_object_name(Md(9)), None);

        ms.write(&mut vt, space, t, r.addr, b"v1").unwrap();
        let epoch = ms
            .msnap_persist(&mut vt, t, RegionSel::Region(r.md), PersistFlags::sync())
            .unwrap();
        assert_eq!(ms.region_epoch(r.md), Some(epoch));
        assert_eq!(ms.object_epoch("data"), Some(epoch));
        assert_eq!(ms.object_epoch("nope"), None);
        // The manifest is an ordinary object, visible by name: opening
        // the region committed a manifest update.
        let manifest = ms.manifest_object_name().to_string();
        assert!(ms.object_epoch(&manifest).unwrap() > 0);

        // Snapshot the region and the manifest; both land in the
        // read-only catalog view.
        let pinned = ms.msnap_snapshot(&mut vt, r.md, "r1").unwrap();
        ms.msnap_snapshot_object(&mut vt, &manifest, "m1").unwrap();
        let snaps = ms.retained_snapshots();
        assert_eq!(snaps.len(), 2);
        let r1 = snaps.iter().find(|s| s.name == "r1").unwrap();
        assert_eq!(r1.epoch, pinned);
        assert!(snaps.iter().any(|s| s.name == "m1"));
        assert_eq!(
            ms.msnap_snapshot_object(&mut vt, "nope", "x").unwrap_err(),
            MsnapError::BadDescriptor
        );
    }

    #[test]
    fn snapshot_view_survives_rollback_past_its_epoch() {
        let (mut ms, mut vt, space) = fresh();
        let t = vt.id();
        let r = ms.msnap_open(&mut vt, space, "data", 4).unwrap();

        // Epoch 1: a distinctive full-region image, pinned as "mid".
        let mut image = vec![0u8; 4 * PAGE_SIZE];
        for (i, b) in image.iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        ms.write(&mut vt, space, t, r.addr, &image).unwrap();
        ms.msnap_persist(&mut vt, t, RegionSel::Region(r.md), PersistFlags::sync())
            .unwrap();
        ms.msnap_snapshot(&mut vt, r.md, "early").unwrap();
        ms.write(&mut vt, space, t, r.addr, b"midway-state")
            .unwrap();
        ms.msnap_persist(&mut vt, t, RegionSel::Region(r.md), PersistFlags::sync())
            .unwrap();
        let mid_epoch = ms.msnap_snapshot(&mut vt, r.md, "mid").unwrap();

        // More traffic past "mid", then open a view of it...
        ms.write(&mut vt, space, t, r.addr, b"later-state").unwrap();
        ms.msnap_persist(&mut vt, t, RegionSel::Region(r.md), PersistFlags::sync())
            .unwrap();
        let view = ms.msnap_open_at(&mut vt, space, "mid").unwrap();
        assert_eq!(view.epoch, mid_epoch);
        let mut expect = image.clone();
        expect[..12].copy_from_slice(b"midway-state");
        let mut before = vec![0u8; 4 * PAGE_SIZE];
        ms.read(&mut vt, space, view.addr, &mut before).unwrap();
        assert_eq!(before, expect);

        // ...and roll the live region back PAST the view's epoch, to
        // "early". The rollback commits a new epoch above everything.
        let rolled = ms.msnap_rollback(&mut vt, space, t, "early").unwrap();
        assert!(rolled > mid_epoch);
        let mut live = vec![0u8; 4 * PAGE_SIZE];
        ms.read(&mut vt, space, r.addr, &mut live).unwrap();
        assert_eq!(live, image, "live region equals the early image");

        // The open view still serves the pinned mid image byte-for-byte:
        // the mapping was populated from pinned blocks the rollback
        // cannot recycle.
        let mut after = vec![0u8; 4 * PAGE_SIZE];
        ms.read(&mut vt, space, view.addr, &mut after).unwrap();
        assert_eq!(after, expect, "view is byte-for-byte stable");

        // A fresh view of "mid" opened after the rollback agrees too.
        let view2 = ms.msnap_open_at(&mut vt, space, "mid").unwrap();
        let mut fresh_view = vec![0u8; 4 * PAGE_SIZE];
        ms.read(&mut vt, space, view2.addr, &mut fresh_view)
            .unwrap();
        assert_eq!(fresh_view, expect);
    }

    #[test]
    fn msnap_scrub_walks_the_whole_store_incrementally() {
        let (mut ms, mut vt, space) = fresh();
        let t = vt.id();
        let r = ms.msnap_open(&mut vt, space, "data", 16).unwrap();
        for fill in 1..=4u8 {
            ms.write(&mut vt, space, t, r.addr, &[fill; PAGE_SIZE])
                .unwrap();
            ms.msnap_persist(&mut vt, t, RegionSel::Region(r.md), PersistFlags::sync())
                .unwrap();
        }
        // Tiny per-call budgets still complete a full pass: the cursor
        // resumes across calls and covers region and manifest objects.
        let mut total = ScrubStats::default();
        let mut guard = 0;
        while ms.store().scrub_stats().passes == 0 {
            let slice = ms.msnap_scrub(&mut vt, 2).unwrap();
            total.pages_verified += slice.pages_verified;
            guard += 1;
            assert!(guard < 10_000, "scrub never completed a pass");
        }
        assert!(total.pages_verified > 0);
        let cum = ms.store().scrub_stats();
        assert_eq!(cum.corruptions_found, 0, "clean store: {cum:?}");
        assert_eq!(ms.store().quarantined_blocks(), 0);
        assert!(ms.store().unrepaired_pages().is_empty());
    }
}
