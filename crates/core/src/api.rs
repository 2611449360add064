//! The MemSnap single level store.

use std::collections::{BTreeMap, HashMap, VecDeque};

use msnap_disk::Disk;
use msnap_sim::{Category, Meters, Nanos, Vt, VthreadId};
use msnap_store::{ObjectId as StoreObjId, ObjectStore, ScrubStats, VectorCut, BULK_READ_PAGES};
use msnap_vm::{AsId, MemObjectId, TrackMode, Vm, PAGE_SIZE};

use crate::commit::{FinishedBatch, OpenBatch, DEFAULT_COALESCE_WINDOW};
use crate::manifest::{self, ManifestEntry};
use crate::types::{
    Md, MsnapError, PersistBreakdown, PersistFlags, RegionHandle, RegionSel, RestoreError,
    SnapshotView,
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
pub(crate) const SYSCALL_COST: Nanos = Nanos::from_ns(500);

/// How many per-commit sub-page extent records each object retains
/// (see [`MemSnap::subpage_extents`]). `msnap-repl` takes its deepest
/// delta lag from this value: a ship that spans more commits than are
/// recorded could only fall back to a rebase.
pub const SUBPAGE_KEEP: usize = 64;

/// Dirty-line record of one μCheckpoint commit: which 64-byte lines of
/// which pages changed between `prev` and the epoch the record is keyed
/// under. The `prev` link lets a reader prove that a run of records
/// contiguously covers an epoch interval — any out-of-band commit
/// (apply_image, fence, restore) breaks the chain and the query reports
/// "unknown" instead of an unsound extent set.
#[derive(Debug)]
pub(crate) struct SubpageRecord {
    prev: Epoch,
    /// Page → dirty-line bitmap (bit `i` covers bytes `i*64..(i+1)*64`).
    pages: BTreeMap<u64, u64>,
}

/// `(first page, page count)` of each [`BULK_READ_PAGES`]-page bulk read
/// that covers pages `0 .. len`.
fn bulk_chunks(len: u64) -> impl Iterator<Item = (u64, u64)> {
    (0..len)
        .step_by(BULK_READ_PAGES as usize)
        .map(move |first| (first, BULK_READ_PAGES.min(len - first)))
}

/// What a restore reads off the device: the open store, its manifest
/// object, and the manifest's regions each with its store object.
type Recovered = (ObjectStore, StoreObjId, Vec<(ManifestEntry, StoreObjId)>);

#[derive(Debug)]
pub(crate) struct Region {
    name: String,
    pub(crate) vm_obj: MemObjectId,
    pub(crate) store_obj: StoreObjId,
    addr: u64,
    pages: u64,
    mapped: Vec<AsId>,
    populated: bool,
}

/// The MemSnap single level store: regions, μCheckpoints, crash/restore.
///
/// See the crate docs for the API mapping; construction is via
/// [`MemSnap::format`] (fresh device) or [`MemSnap::restore`] (after a
/// crash).
pub struct MemSnap {
    pub(crate) vm: Vm,
    pub(crate) disk: Disk,
    pub(crate) store: ObjectStore,
    manifest_obj: StoreObjId,
    pub(crate) regions: Vec<Region>,
    by_name: HashMap<String, Md>,
    next_va: u64,
    /// Durability instants: per-selector epoch → completion time.
    pub(crate) completions: HashMap<RegionSel, BTreeMap<Epoch, Nanos>>,
    /// Sticky per-region persist failures (fsync-gate semantics): once a
    /// μCheckpoint fails, the region's error is reported by every
    /// subsequent `msnap_persist`/`msnap_wait` until the application
    /// acknowledges it with [`MemSnap::msnap_ack_error`]. Never silently
    /// cleared.
    pub(crate) sticky: BTreeMap<u32, MsnapError>,
    pub(crate) all_epoch: Epoch,
    pub(crate) meters: Meters,
    pub(crate) last_breakdown: PersistBreakdown,
    /// Group-commit coalescing window ([`MemSnap::set_coalesce_window`]).
    pub(crate) coalesce_window: Nanos,
    /// The batches currently accepting participants, one per coalescing
    /// lane. Single-region participants coalesce per *shard* of their
    /// region's store object (commits to different shards share no store
    /// state, so their windows must not serialize behind one leader);
    /// `RegionSel::All` participants use their own lane ([`ALL_LANE`]).
    pub(crate) open_batches: HashMap<u64, OpenBatch>,
    /// Flushed batches whose participants have not all polled yet.
    pub(crate) finished: HashMap<u64, FinishedBatch>,
    /// Next batch id.
    pub(crate) batch_seq: u64,
    /// Completion instants of in-flight `MS_ASYNC` μCheckpoints, oldest
    /// first. Bounded by [`PIPELINE_DEPTH`]; admission past the bound
    /// blocks on the oldest entry (writeback backpressure).
    pub(crate) pipeline: VecDeque<Nanos>,
    /// Per-object sub-page extent chains, newest [`SUBPAGE_KEEP`] commits
    /// each (see [`MemSnap::subpage_extents`]).
    pub(crate) subpage: HashMap<StoreObjId, BTreeMap<Epoch, SubpageRecord>>,
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
    /// A [`RestoreError`] carrying the device back with
    /// [`MsnapError::Store`] if it holds no formatted store or a device
    /// read fails during recovery (`StoreError::Io` — nothing is built;
    /// take `disk` out of the error and restore again),
    /// [`MsnapError::CorruptManifest`] if the region manifest does not
    /// decode, [`MsnapError::BadDescriptor`] if it names an object the
    /// catalog does not hold (a corrupt image — or a promoted replica
    /// device; see [`MemSnap::restore_promoted`]).
    #[allow(clippy::result_large_err)] // the error is the device, handed back by value
    pub fn restore(vt: &mut Vt, disk: Disk) -> Result<Self, RestoreError> {
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
    /// A [`RestoreError`] carrying the device back with
    /// [`MsnapError::Store`] if it holds no formatted store or a device
    /// read fails during recovery.
    ///
    /// [`msnap-repl`]: ../msnap_repl/index.html
    #[allow(clippy::result_large_err)] // the error is the device, handed back by value
    pub fn restore_promoted(vt: &mut Vt, disk: Disk) -> Result<Self, RestoreError> {
        Self::restore_inner(vt, disk, true)
    }

    #[allow(clippy::result_large_err)] // the error is the device, handed back by value
    fn restore_inner(
        vt: &mut Vt,
        mut disk: Disk,
        drop_unshipped: bool,
    ) -> Result<Self, RestoreError> {
        // Recovery only reads: whatever fails, the device goes back whole.
        let (store, manifest_obj, regions) = match Self::recover(vt, &mut disk, drop_unshipped) {
            Ok(parts) => parts,
            Err(error) => return Err(RestoreError { error, disk }),
        };

        let mut ms = Self::with_store(disk, store, manifest_obj);
        for (entry, store_obj) in regions {
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

    /// The fallible half of a restore; it only reads the device.
    fn recover(
        vt: &mut Vt,
        disk: &mut Disk,
        drop_unshipped: bool,
    ) -> Result<Recovered, MsnapError> {
        let mut store = ObjectStore::open(vt, disk)?;
        let manifest_obj = store
            .lookup(MANIFEST_NAME)
            .ok_or(MsnapError::BadDescriptor)?;
        let entries = manifest::decode(store.len_pages(manifest_obj), |page, out| {
            store.read_page(vt, disk, manifest_obj, page, &mut out[..])
        })?;
        let mut regions = Vec::with_capacity(entries.len());
        for entry in entries {
            match store.lookup(&entry.name) {
                Some(obj) => regions.push((entry, obj)),
                None if drop_unshipped => {}
                None => return Err(MsnapError::BadDescriptor),
            }
        }
        Ok((store, manifest_obj, regions))
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
            if pages != 0 && pages != self.regions[md.0 as usize].pages {
                return Err(MsnapError::LengthMismatch);
            }
            return self.attach(vt, space, md);
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

    /// Pages region `md` in if a restore left it unpopulated, then maps it
    /// (tracked) into `space` unless it is mapped there already.
    fn attach(&mut self, vt: &mut Vt, space: AsId, md: Md) -> Result<RegionHandle, MsnapError> {
        if !self.regions[md.0 as usize].populated {
            self.populate(vt, md)?;
        }
        let region = &mut self.regions[md.0 as usize];
        if !region.mapped.contains(&space) {
            self.vm
                .map(space, region.vm_obj, region.addr, TrackMode::Tracked)?;
            region.mapped.push(space);
        }
        Ok(RegionHandle {
            md,
            addr: region.addr,
            pages: region.pages,
        })
    }

    /// A retained snapshot by name, with the region whose object it pins.
    fn snapshot_region(&self, snapshot: &str) -> Result<(msnap_store::SnapEntry, Md), MsnapError> {
        let entry = self
            .store
            .snapshot_lookup(snapshot)
            .ok_or(MsnapError::BadDescriptor)?;
        let region = self
            .regions
            .iter()
            .position(|r| r.store_obj == entry.object);
        Ok((entry, Md(region.ok_or(MsnapError::BadDescriptor)? as u32)))
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
        for (first, n) in bulk_chunks(len) {
            self.store.read_pages(
                vt,
                &mut self.disk,
                store_obj,
                first,
                n,
                &mut |page, data| vm.populate_page(vm_obj, page, data),
            )?;
        }
        self.regions[md.0 as usize].populated = true;
        Ok(())
    }

    /// The region behind a descriptor.
    pub(crate) fn region_of(&self, md: Md) -> Result<&Region, MsnapError> {
        self.regions
            .get(md.0 as usize)
            .ok_or(MsnapError::BadDescriptor)
    }

    /// Looks up a region descriptor by name.
    pub fn region(&self, name: &str) -> Option<Md> {
        self.by_name.get(name).copied()
    }

    /// All region names in descriptor order (the restore path's "list of
    /// all MemSnap regions in an application").
    pub fn region_names(&self) -> Vec<String> {
        self.regions.iter().map(|r| r.name.clone()).collect()
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
        let store_obj = self.region_of(md)?.store_obj;
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
    /// store incrementally. A slice submits its data read and returns
    /// without waiting for it: what it reports verified is the previous
    /// slice's read (waited for only if it has not landed), plus each
    /// digest it checked at 212 ns. Cumulative totals (including
    /// completed `passes`) are at [`ObjectStore::scrub_stats`].
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
    /// [`MemSnap::region_epoch`], [`MemSnap::object_epoch`], or
    /// [`MemSnap::store`] (its `snapshots()` is the catalog) instead.
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
    /// regions, and bookkeeping objects such as the region manifest
    /// (`__msnap_manifest`), which replication must ship too for a
    /// replica to be promotable.
    pub fn object_epoch(&self, name: &str) -> Option<Epoch> {
        self.store.lookup(name).map(|id| self.store.epoch(id))
    }

    /// Appends one commit's dirty-line record to an object's extent
    /// chain in `subpage` (a [`MemSnap`]'s own, borrowed alone so the
    /// commit's page images may still borrow its VM), pruning to the
    /// newest [`SUBPAGE_KEEP`] records.
    pub(crate) fn record_subpage(
        subpage: &mut HashMap<StoreObjId, BTreeMap<Epoch, SubpageRecord>>,
        obj: StoreObjId,
        prev: Epoch,
        epoch: Epoch,
        pages: impl IntoIterator<Item = (u64, u64)>,
    ) {
        let chain = subpage.entry(obj).or_default();
        let rec = chain.entry(epoch).or_insert(SubpageRecord {
            prev,
            pages: BTreeMap::new(),
        });
        for (page, lines) in pages {
            *rec.pages.entry(page).or_insert(0) |= lines;
        }
        while chain.len() > SUBPAGE_KEEP {
            chain.pop_first();
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
        let token = self
            .store
            .apply_image(vt, &mut self.disk, id, None, &[], epoch)?;
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
        let (entry, md) = self.snapshot_region(snapshot)?;
        let pages = self.regions[md.0 as usize].pages;
        // Read the whole image before anything is created or mapped: a
        // failed read leaves the address space exactly as it was.
        let len = entry.len_pages.min(pages);
        let mut image = Vec::with_capacity(len as usize * PAGE_SIZE);
        for (first, n) in bulk_chunks(len) {
            self.store
                .read_pages_at(vt, &mut self.disk, snapshot, first, n, &mut |_, data| {
                    image.extend_from_slice(data)
                })?;
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
        let (_, md) = self.snapshot_region(snapshot)?;
        if let Some(e) = self.sticky_error(RegionSel::Region(md)) {
            return Err(e);
        }
        let RegionHandle { addr, pages, .. } = self.attach(vt, space, md)?;
        let mut want = Vec::new();
        let mut have = vec![0u8; PAGE_SIZE];
        for (first, n) in bulk_chunks(pages) {
            // Pages past the snapshot's end read as zeroes, at no IO.
            want.clear();
            let read =
                self.store
                    .read_pages_at(vt, &mut self.disk, snapshot, first, n, &mut |_, data| {
                        want.extend_from_slice(data)
                    });
            // What a failing chunk delivered before its bad page is still
            // rolled back, as a page-at-a-time loop would have left it.
            for (page, want) in (first..).zip(want.chunks(PAGE_SIZE)) {
                let va = addr + page * PAGE_SIZE as u64;
                self.vm.read(vt, space, va, &mut have);
                if have != want {
                    self.vm.write(vt, space, thread, va, want);
                }
            }
            read?;
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
        let entries: Vec<ManifestEntry> = self
            .regions
            .iter()
            .map(|r| ManifestEntry {
                name: r.name.clone(),
                addr: r.addr,
                pages: r.pages,
            })
            .collect();
        let bytes = manifest::encode(&entries);
        let iov: Vec<(u64, &[u8])> = (0..).zip(bytes.chunks(PAGE_SIZE)).collect();
        let token = self
            .store
            .persist(vt, &mut self.disk, self.manifest_obj, &iov)?;
        ObjectStore::wait(vt, token);
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use msnap_disk::DiskConfig;
    use msnap_store::StoreError;

    pub(crate) fn fresh() -> (MemSnap, Vt, AsId) {
        let mut ms = MemSnap::format(Disk::new(DiskConfig::paper()));
        let vt = Vt::new(0);
        let space = ms.vm_mut().create_space();
        (ms, vt, space)
    }

    #[test]
    fn garbled_manifest_fails_restore_with_a_typed_error() {
        let (mut ms, mut vt, space) = fresh();
        ms.msnap_open(&mut vt, space, "data", 4).unwrap();
        // A framed body of eight bytes that is no manifest record.
        let mut page = [0u8; PAGE_SIZE];
        page[..8].copy_from_slice(&8u64.to_le_bytes());
        page[8..16].copy_from_slice(b"garbled!");
        let (store, disk) = ms.replication_parts();
        let obj = store.lookup(MANIFEST_NAME).unwrap();
        let token = store
            .persist(&mut vt, disk, obj, &[(0, &page[..])])
            .unwrap();
        ObjectStore::wait(&mut vt, token);

        let disk = ms.crash(vt.now());
        let err = MemSnap::restore(&mut vt, disk).err().map(|e| e.error);
        assert_eq!(err, Some(MsnapError::CorruptManifest));
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
        // full-root flushes: a compaction root every COMPACT_AFTER = 20
        // epochs, written beside a commit that stays a delta record (so
        // `commits − delta_commits` does not see it), or an inline root
        // at most every DELTA_SLOTS = 256.
        let before = ms.store().stats();
        for i in 0..68u64 {
            ms.write(&mut vt, space, t, r.addr, &[i as u8; PAGE_SIZE])
                .unwrap();
            let e = ms
                .msnap_persist(&mut vt, t, RegionSel::Region(r.md), PersistFlags::sync())
                .unwrap();
            ms.msnap_wait(&mut vt, RegionSel::Region(r.md), e).unwrap();
        }
        let after = ms.store().stats();
        let inline =
            (after.commits - before.commits) - (after.delta_commits - before.delta_commits);
        let fulls = inline + (after.compaction_roots - before.compaction_roots);
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
    fn a_snapshot_view_pages_in_one_bulk_read_per_chunk() {
        const PAGES: u64 = 1024;
        let image: Vec<u8> = (0..PAGES as usize * PAGE_SIZE)
            .map(|i| (i / PAGE_SIZE * 7 + i % 64) as u8)
            .collect();
        // A region persisted as `image`, pinned as "s", then overwritten;
        // the cache is dropped so every snapshot page comes off the device.
        let build = || {
            let (mut ms, mut vt, space) = fresh();
            let t = vt.id();
            let r = ms.msnap_open(&mut vt, space, "data", PAGES).unwrap();
            for content in [&image, &vec![0x11; image.len()]] {
                ms.write(&mut vt, space, t, r.addr, content).unwrap();
                ms.msnap_persist(&mut vt, t, RegionSel::Region(r.md), PersistFlags::sync())
                    .unwrap();
                if ms.store().snapshots().is_empty() {
                    ms.msnap_snapshot(&mut vt, r.md, "s").unwrap();
                }
            }
            ms.store.drop_cache();
            (ms, vt, space)
        };

        let (mut ms, mut vt, space) = build();
        let (t0, subs) = (vt.now(), ms.disk().stats().read_submissions());
        let view = ms.msnap_open_at(&mut vt, space, "s").unwrap();
        let took = vt.now() - t0;
        assert_eq!(ms.disk().stats().read_submissions() - subs, 4);
        assert!(took <= Nanos::from_us(1_200), "{took:?}");
        let mut got = vec![0u8; image.len()];
        ms.read(&mut vt, space, view.addr, &mut got).unwrap();
        assert!(got == image, "the view holds the snapshot's bytes");

        // Rot under a page in the middle of the second chunk: the typed
        // error names it, and no address was reserved or mapped.
        let (mut ms, mut vt, space) = build();
        let at = ms.disk.read_seq() + 300;
        ms.disk
            .set_read_fault_plan(msnap_disk::ReadFaultPlan::new().rot_at(at, 77, 3));
        let next_va = ms.next_va;
        let err = ms.msnap_open_at(&mut vt, space, "s").unwrap_err();
        assert!(
            matches!(
                err,
                MsnapError::Store(StoreError::CorruptData { page: 300, .. })
            ),
            "{err:?}"
        );
        assert_eq!(ms.next_va, next_va);
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
        assert!(ms.object_epoch(MANIFEST_NAME).unwrap() > 0);

        // Snapshot the region and the manifest; both land in the
        // read-only catalog view.
        let pinned = ms.msnap_snapshot(&mut vt, r.md, "r1").unwrap();
        ms.msnap_snapshot_object(&mut vt, MANIFEST_NAME, "m1")
            .unwrap();
        let snaps = ms.store().snapshots();
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
