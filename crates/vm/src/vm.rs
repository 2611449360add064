//! The VM subsystem: objects, address spaces, faults, dirty tracking.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use msnap_sim::{Category, Nanos, Vt, VthreadId};

use crate::pagetable::{PageTable, PteLoc};
use crate::PAGE_SIZE;

/// Hardware-priced cost constants (see DESIGN.md §2 for calibration).
pub mod costs {
    use msnap_sim::Nanos;

    /// Trap + handler + trace-buffer append for a minor write fault.
    /// "The minor write fault has a lower cost than a regular COW fault
    /// because no page copy is necessary" (§3).
    pub const MINOR_FAULT: Nanos = Nanos::from_ns(800);
    /// COW fault on a checkpoint-in-progress page: trap + page copy +
    /// reverse-map update.
    pub const COW_FAULT: Nanos = Nanos::from_ns(2_200);
    /// First-touch zero-fill fault.
    pub const ZERO_FILL: Nanos = Nanos::from_ns(1_000);
    /// Direct PTE write through the trace buffer.
    pub const PTE_DIRECT: Nanos = Nanos::from_ns(60);
    /// Visiting one page-table node during a walk.
    pub const PT_NODE_VISIT: Nanos = Nanos::from_ns(30);
    /// Scanning one PTE during a full-table scan.
    pub const PTE_SCAN: Nanos = Nanos::from_ns(2);
    /// Fixed cost of a TLB shootdown IPI round.
    pub const TLB_SHOOTDOWN_BASE: Nanos = Nanos::from_ns(4_500);
    /// Per-page TLB invalidation.
    pub const TLB_INVLPG: Nanos = Nanos::from_ns(40);
    /// Memory copy cost per byte (~20 GB/s).
    pub const MEMCPY_PER_KIB: Nanos = Nanos::from_ns(50);

    /// Cost of copying `len` bytes.
    pub fn memcpy(len: usize) -> Nanos {
        Nanos::from_ns((len as u64 * MEMCPY_PER_KIB.as_ns()) / 1024)
    }
}

/// Granularity of sub-page dirty tracking: one x86 cache line.
/// `PAGE_SIZE / LINE_SIZE == 64`, so a page's line set fits one `u64`.
pub const LINE_SIZE: usize = 64;

/// Bitmask covering lines `first..=last` (inclusive, both < 64).
fn line_span(first: u32, last: u32) -> u64 {
    debug_assert!(first <= last && (last as usize) < PAGE_SIZE / LINE_SIZE);
    let span = last - first + 1;
    if span >= 64 {
        u64::MAX
    } else {
        ((1u64 << span) - 1) << first
    }
}

/// Identifier of an address space (a simulated process).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AsId(pub u32);

/// Identifier of a memory object (the pageable backing of a mapping).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MemObjectId(pub u32);

/// Whether a mapping participates in MemSnap dirty tracking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrackMode {
    /// MemSnap region: pages start read-only; writes fault and are tracked
    /// per thread.
    Tracked,
    /// Ordinary mapping: writable, untracked.
    Untracked,
}

/// The protection-reset strategies compared in the paper's Figure 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResetStrategy {
    /// Scan the mapping's entire page table for dirty PTEs (the baseline:
    /// "traverses the page tables of a 1 GiB memory mapping").
    FullTableScan,
    /// Walk the table from the root once per dirty page.
    PerPageWalk,
    /// MemSnap: rewrite the PTEs recorded in the per-thread trace buffer
    /// directly, no traversal.
    TraceBuffer,
}

/// One entry of a thread's dirty list / trace buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirtyPage {
    /// Object the page belongs to.
    pub object: MemObjectId,
    /// Page index within the object.
    pub obj_page: u64,
    /// Physical page currently backing it.
    pub phys: u32,
    /// Address space the faulting access went through.
    pub space: AsId,
    /// Virtual page number of the access (for the per-page-walk strategy).
    pub vpn: u64,
    /// Stable PTE location (the trace-buffer record).
    pub pte: PteLoc,
    /// Dirty 64-byte cache lines of the page, one bit per line (bit `i`
    /// covers bytes `i*64..(i+1)*64`). Accumulated from the physical
    /// page's line log when the entry is drained by [`Vm::take_dirty`];
    /// zero until then. Survives `untake_dirty`/re-take cycles by union,
    /// so a retried μCheckpoint still knows every line touched since the
    /// last successful one.
    pub lines: u64,
}

/// Fault and maintenance counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct VmStats {
    /// Minor write faults (dirty-set tracking).
    pub minor_faults: u64,
    /// COW faults on checkpoint-in-progress pages.
    pub cow_faults: u64,
    /// First-touch zero-fill faults.
    pub zero_fill_faults: u64,
    /// TLB shootdown rounds issued.
    pub shootdowns: u64,
    /// PTEs returned to read-only by protection resets.
    pub pte_resets: u64,
}

/// Errors from mapping management.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum VmError {
    /// The requested virtual address is not page-aligned.
    UnalignedVa,
    /// The requested range overlaps an existing mapping.
    Overlap,
    /// Unknown object or space.
    BadId,
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            VmError::UnalignedVa => "virtual address is not page-aligned",
            VmError::Overlap => "mapping overlaps an existing mapping",
            VmError::BadId => "unknown object or address space",
        };
        f.write_str(msg)
    }
}

impl Error for VmError {}

#[derive(Debug)]
struct PhysPage {
    data: Box<[u8]>,
    /// The page is part of an in-flight μCheckpoint until this instant
    /// (the paper's "checkpoint in progress" flag, time-resolved).
    cip_until: Nanos,
    owner: (MemObjectId, u64),
    /// Reverse map: every PTE mapping this page, across address spaces.
    rmap: Vec<(AsId, PteLoc)>,
    /// Thread that holds this page in its dirty set, for optional
    /// isolation checking (paper property ③).
    dirty_owner: Option<VthreadId>,
    /// Write log at 64-byte cache-line granularity: bit `i` set means
    /// line `i` was written through a tracked mapping since the log was
    /// last harvested by [`Vm::take_dirty`]. `PAGE_SIZE / 64 == 64`
    /// lines, so one word covers the page exactly.
    dirty_lines: u64,
}

#[derive(Debug)]
struct MemObject {
    pages: Vec<Option<u32>>,
}

#[derive(Debug, Clone, Copy)]
struct Mapping {
    va_start: u64,
    pages: u64,
    object: MemObjectId,
    tracked: bool,
}

struct Space {
    table: PageTable,
    mappings: Vec<Mapping>, // sorted by va_start
}

/// The simulated VM subsystem. See the crate docs for the model.
pub struct Vm {
    phys: Vec<PhysPage>,
    free_phys: Vec<u32>,
    objects: Vec<MemObject>,
    spaces: Vec<Space>,
    /// Per-thread dirty sets. Ordered so that MS_GLOBAL persists and
    /// seeded fault-plan replays iterate threads deterministically.
    threads: BTreeMap<VthreadId, Vec<DirtyPage>>,
    stats: VmStats,
    /// Isolation checking: a write to a page already dirtied by a
    /// *different* thread (and not yet flushed) panics. Off on every
    /// program path; the unit test
    /// `strict_isolation_catches_cross_thread_dirty` turns it on to check
    /// the paper's property ③.
    strict_isolation: bool,
}

impl fmt::Debug for Vm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Vm")
            .field("phys_pages", &self.phys.len())
            .field("objects", &self.objects.len())
            .field("spaces", &self.spaces.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl Vm {
    /// Creates an empty VM.
    pub fn new() -> Self {
        Vm {
            phys: Vec::new(),
            free_phys: Vec::new(),
            objects: Vec::new(),
            spaces: Vec::new(),
            threads: BTreeMap::new(),
            stats: VmStats::default(),
            strict_isolation: false,
        }
    }

    /// Fault and maintenance counters.
    pub fn stats(&self) -> VmStats {
        self.stats
    }

    /// Creates a new address space.
    pub fn create_space(&mut self) -> AsId {
        self.spaces.push(Space {
            table: PageTable::new(),
            mappings: Vec::new(),
        });
        AsId(self.spaces.len() as u32 - 1)
    }

    /// Creates a memory object of `pages` zero pages.
    pub fn create_object(&mut self, pages: u64) -> MemObjectId {
        self.objects.push(MemObject {
            pages: vec![None; pages as usize],
        });
        MemObjectId(self.objects.len() as u32 - 1)
    }

    /// Maps `object` at `va` in `space`.
    ///
    /// # Errors
    ///
    /// [`VmError::UnalignedVa`] or [`VmError::Overlap`].
    pub fn map(
        &mut self,
        space: AsId,
        object: MemObjectId,
        va: u64,
        mode: TrackMode,
    ) -> Result<(), VmError> {
        if !va.is_multiple_of(PAGE_SIZE as u64) {
            return Err(VmError::UnalignedVa);
        }
        if space.0 as usize >= self.spaces.len() || object.0 as usize >= self.objects.len() {
            return Err(VmError::BadId);
        }
        let pages = self.objects[object.0 as usize].pages.len() as u64;
        let end = va + pages * PAGE_SIZE as u64;
        let sp = &mut self.spaces[space.0 as usize];
        for m in &sp.mappings {
            let m_end = m.va_start + m.pages * PAGE_SIZE as u64;
            if va < m_end && m.va_start < end {
                return Err(VmError::Overlap);
            }
        }
        sp.mappings.push(Mapping {
            va_start: va,
            pages,
            object,
            tracked: mode == TrackMode::Tracked,
        });
        sp.mappings.sort_by_key(|m| m.va_start);
        Ok(())
    }

    fn resolve(&self, space: AsId, va: u64) -> Option<Mapping> {
        let sp = &self.spaces[space.0 as usize];
        let idx = sp
            .mappings
            .partition_point(|m| m.va_start + m.pages * PAGE_SIZE as u64 <= va);
        let m = sp.mappings.get(idx)?;
        (m.va_start <= va).then_some(*m)
    }

    fn alloc_phys(&mut self, owner: (MemObjectId, u64)) -> u32 {
        if let Some(id) = self.free_phys.pop() {
            let p = &mut self.phys[id as usize];
            p.data.fill(0);
            p.cip_until = Nanos::ZERO;
            p.owner = owner;
            p.rmap.clear();
            p.dirty_owner = None;
            p.dirty_lines = 0;
            id
        } else {
            self.phys.push(PhysPage {
                data: vec![0u8; PAGE_SIZE].into_boxed_slice(),
                cip_until: Nanos::ZERO,
                owner,
                rmap: Vec::new(),
                dirty_owner: None,
                dirty_lines: 0,
            });
            (self.phys.len() - 1) as u32
        }
    }

    /// Ensures a physical page and PTE exist for (`space`, `va`); returns
    /// (phys, pte-loc, vpn). Charges zero-fill fault cost on first touch.
    fn ensure_present(
        &mut self,
        vt: &mut Vt,
        space: AsId,
        m: Mapping,
        va: u64,
    ) -> (u32, PteLoc, u64) {
        let vpn = va / PAGE_SIZE as u64;
        let obj_page = (va - m.va_start) / PAGE_SIZE as u64;

        let phys = match self.objects[m.object.0 as usize].pages[obj_page as usize] {
            Some(p) => p,
            None => {
                let p = self.alloc_phys((m.object, obj_page));
                self.objects[m.object.0 as usize].pages[obj_page as usize] = Some(p);
                p
            }
        };

        let sp = &mut self.spaces[space.0 as usize];
        let (loc, visited) = sp.table.walk_alloc(vpn);
        let pte = sp.table.pte_mut(loc);
        if pte.phys.is_none() {
            pte.phys = Some(phys);
            // Tracked mappings install pages read-only so the first write
            // takes the tracking fault; untracked mappings are writable.
            pte.writable = !m.tracked;
            vt.charge(
                Category::PageFault,
                costs::ZERO_FILL + costs::PT_NODE_VISIT * visited as u64,
            );
            self.stats.zero_fill_faults += 1;
            self.phys[phys as usize].rmap.push((space, loc));
        } else if pte.phys != Some(phys) {
            // The object page was COW-replaced through another space;
            // repoint (rmap updates normally keep these in sync).
            pte.phys = Some(phys);
        }
        (phys, loc, vpn)
    }

    /// Writes `data` at (`space`, `va`) on behalf of `thread`, faulting as
    /// needed: zero-fill on first touch, a minor tracking fault on first
    /// write to a clean tracked page, a COW fault on a write to a
    /// checkpoint-in-progress page.
    ///
    /// The copy itself is charged to [`Category::TxMemory`].
    ///
    /// # Panics
    ///
    /// Panics if the range is unmapped (the simulation's SIGSEGV), or — in
    /// strict-isolation mode — if the write dirties a page another thread
    /// dirtied and has not yet flushed (paper property ③).
    pub fn write(&mut self, vt: &mut Vt, space: AsId, thread: VthreadId, va: u64, data: &[u8]) {
        let mut va = va;
        let mut data = data;
        while !data.is_empty() {
            let m = self
                .resolve(space, va)
                .unwrap_or_else(|| panic!("segfault: write to unmapped va {va:#x}"));
            let page_off = (va % PAGE_SIZE as u64) as usize;
            let chunk = data.len().min(PAGE_SIZE - page_off);

            let (mut phys, loc, vpn) = self.ensure_present(vt, space, m, va);
            let obj_page = (va - m.va_start) / PAGE_SIZE as u64;

            let pte = self.spaces[space.0 as usize].table.pte(loc);
            if m.tracked && !pte.writable {
                if self.phys[phys as usize].cip_until > vt.now() {
                    // Unified COW: duplicate the busy page, repoint every
                    // mapping, and track the new copy. The frozen original
                    // keeps servicing the in-flight IO (our disk model
                    // captured its bytes at submission, so it is returned
                    // to the free list immediately).
                    phys = self.cow_replace(vt, phys, (m.object, obj_page));
                    self.stats.cow_faults += 1;
                    vt.charge(Category::PageFault, costs::COW_FAULT);
                } else {
                    vt.charge(Category::PageFault, costs::MINOR_FAULT);
                }
                self.stats.minor_faults += 1;
                let page = &mut self.phys[phys as usize];
                if self.strict_isolation {
                    if let Some(owner) = page.dirty_owner {
                        assert_eq!(
                            owner, thread,
                            "isolation violation: page {obj_page} of {:?} dirtied by \
                             {owner} is being written by {thread} before flush",
                            m.object
                        );
                    }
                }
                page.dirty_owner = Some(thread);
                self.spaces[space.0 as usize].table.pte_mut(loc).writable = true;
                self.threads.entry(thread).or_default().push(DirtyPage {
                    object: m.object,
                    obj_page,
                    phys,
                    space,
                    vpn,
                    pte: loc,
                    lines: 0,
                });
            } else if m.tracked && self.strict_isolation {
                // Writable already: verify the writer is the tracking owner.
                if let Some(owner) = self.phys[phys as usize].dirty_owner {
                    assert_eq!(
                        owner, thread,
                        "isolation violation: page {obj_page} of {:?} dirtied by {owner} \
                         is being written by {thread} before flush",
                        m.object
                    );
                }
            }

            let page = &mut self.phys[phys as usize];
            page.data[page_off..page_off + chunk].copy_from_slice(&data[..chunk]);
            if m.tracked {
                // Log the touched 64-byte lines; sub-page delta shipping
                // reads this as a conservative superset of changed bytes.
                let first = (page_off / LINE_SIZE) as u32;
                let last = ((page_off + chunk - 1) / LINE_SIZE) as u32;
                page.dirty_lines |= line_span(first, last);
            }
            vt.charge(Category::TxMemory, costs::memcpy(chunk));

            va += chunk as u64;
            data = &data[chunk..];
        }
    }

    /// COW-duplicates `old_phys`, repointing every PTE in its reverse map.
    /// Returns the new physical page.
    fn cow_replace(&mut self, _vt: &mut Vt, old_phys: u32, owner: (MemObjectId, u64)) -> u32 {
        let new_phys = self.alloc_phys(owner);
        let (old_data, rmap, old_lines) = {
            let old = &mut self.phys[old_phys as usize];
            (
                old.data.clone(),
                std::mem::take(&mut old.rmap),
                std::mem::take(&mut old.dirty_lines),
            )
        };
        for &(as_id, loc) in &rmap {
            let pte = self.spaces[as_id.0 as usize].table.pte_mut(loc);
            pte.phys = Some(new_phys);
            pte.writable = false; // the fault path re-enables for the writer
        }
        {
            let new = &mut self.phys[new_phys as usize];
            new.data = old_data;
            new.rmap = rmap;
            // Any unharvested line log moves with the content it describes.
            new.dirty_lines = old_lines;
        }
        self.objects[owner.0 .0 as usize].pages[owner.1 as usize] = Some(new_phys);
        // The frozen original's bytes were captured by the IO at
        // submission; recycle it.
        self.free_phys.push(old_phys);
        new_phys
    }

    /// Reads `out.len()` bytes at (`space`, `va`). Untouched pages read as
    /// zeroes without allocating.
    ///
    /// # Panics
    ///
    /// Panics if the range is unmapped.
    pub fn read(&mut self, vt: &mut Vt, space: AsId, va: u64, out: &mut [u8]) {
        let mut va = va;
        let mut out = &mut out[..];
        while !out.is_empty() {
            let m = self
                .resolve(space, va)
                .unwrap_or_else(|| panic!("segfault: read from unmapped va {va:#x}"));
            let page_off = (va % PAGE_SIZE as u64) as usize;
            let chunk = out.len().min(PAGE_SIZE - page_off);
            let obj_page = (va - m.va_start) / PAGE_SIZE as u64;
            match self.objects[m.object.0 as usize].pages[obj_page as usize] {
                Some(phys) => out[..chunk]
                    .copy_from_slice(&self.phys[phys as usize].data[page_off..page_off + chunk]),
                None => out[..chunk].fill(0),
            }
            vt.charge(Category::TxMemory, costs::memcpy(chunk));
            va += chunk as u64;
            out = &mut out[chunk..];
        }
    }

    /// Installs `data` into an object page directly, bypassing dirty
    /// tracking — used to page persisted data back in after a restore
    /// (the data is clean by definition).
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range or `data` exceeds a page.
    pub fn populate_page(&mut self, object: MemObjectId, page: u64, data: &[u8]) {
        assert!(data.len() <= PAGE_SIZE, "populate_page data exceeds a page");
        let phys = match self.objects[object.0 as usize].pages[page as usize] {
            Some(p) => p,
            None => {
                let p = self.alloc_phys((object, page));
                self.objects[object.0 as usize].pages[page as usize] = Some(p);
                p
            }
        };
        self.phys[phys as usize].data[..data.len()].copy_from_slice(data);
    }

    /// Number of pages currently in `thread`'s dirty set.
    pub fn dirty_count(&self, thread: VthreadId) -> usize {
        self.threads.get(&thread).map_or(0, |v| v.len())
    }

    /// Threads that currently have non-empty dirty sets.
    pub fn threads_with_dirty(&self) -> Vec<VthreadId> {
        let mut ids: Vec<VthreadId> = self
            .threads
            .iter()
            .filter(|(_, v)| !v.is_empty())
            .map(|(t, _)| *t)
            .collect();
        ids.sort();
        ids
    }

    /// Drains `thread`'s dirty set, optionally restricted to one object
    /// (μCheckpoints persist per-region unless the whole set is
    /// requested). Entries for other objects remain tracked.
    pub fn take_dirty(&mut self, thread: VthreadId, object: Option<MemObjectId>) -> Vec<DirtyPage> {
        let Some(entries) = self.threads.get_mut(&thread) else {
            return Vec::new();
        };
        let mut taken = match object {
            None => std::mem::take(entries),
            Some(obj) => {
                let (taken, kept): (Vec<_>, Vec<_>) =
                    entries.drain(..).partition(|e| e.object == obj);
                *entries = kept;
                taken
            }
        };
        // Harvest the per-phys-page line logs into the drained entries.
        // Union rather than assign: an entry returned by `untake_dirty`
        // already carries lines from the failed attempt.
        for e in &mut taken {
            e.lines |= std::mem::take(&mut self.phys[e.phys as usize].dirty_lines);
        }
        taken
    }

    /// Returns entries drained by [`Vm::take_dirty`] to `thread`'s dirty
    /// set. A failed μCheckpoint must not silently drop the pages it was
    /// persisting: they stay dirty so a retry (after the error is
    /// acknowledged) includes them again.
    pub fn untake_dirty(&mut self, thread: VthreadId, entries: Vec<DirtyPage>) {
        self.threads.entry(thread).or_default().extend(entries);
    }

    /// A page's current bytes (for assembling μCheckpoint IO).
    pub fn page_bytes(&self, entry: &DirtyPage) -> &[u8] {
        &self.phys[entry.phys as usize].data
    }

    /// Marks the pages of a μCheckpoint busy until `until` (sets the
    /// checkpoint-in-progress mark). Writes to these pages before `until`
    /// take the COW path instead of blocking.
    pub fn freeze(&mut self, entries: &[DirtyPage], until: Nanos) {
        for e in entries {
            let p = &mut self.phys[e.phys as usize];
            p.cip_until = p.cip_until.max(until);
            p.dirty_owner = None;
        }
    }

    /// Reapplies read protection to the μCheckpoint's pages using
    /// `strategy`, then issues a TLB shootdown. Returns the virtual time
    /// the reset cost (the paper's "Resetting Tracking" row in Table 5 and
    /// the async latency column of Table 6).
    pub fn reset_protection(
        &mut self,
        vt: &mut Vt,
        entries: &[DirtyPage],
        strategy: ResetStrategy,
    ) -> Nanos {
        let start = vt.now();
        match strategy {
            ResetStrategy::TraceBuffer => {
                // Direct PTE writes through the recorded locations, plus
                // reverse-map copies for other address spaces.
                for e in entries {
                    let rmap = self.phys[e.phys as usize].rmap.clone();
                    for (as_id, loc) in rmap {
                        self.spaces[as_id.0 as usize].table.pte_mut(loc).writable = false;
                        vt.charge(Category::Memsnap, costs::PTE_DIRECT);
                        self.stats.pte_resets += 1;
                    }
                }
            }
            ResetStrategy::PerPageWalk => {
                for e in entries {
                    let sp = &mut self.spaces[e.space.0 as usize];
                    let (loc, visited) = sp.table.walk(e.vpn);
                    vt.charge(
                        Category::Memsnap,
                        costs::PT_NODE_VISIT * visited as u64 + costs::PTE_DIRECT,
                    );
                    if let Some(loc) = loc {
                        sp.table.pte_mut(loc).writable = false;
                        self.stats.pte_resets += 1;
                    }
                    // Other spaces via rmap, still walked per page.
                    let rmap = self.phys[e.phys as usize].rmap.clone();
                    for (as_id, loc) in rmap {
                        if as_id != e.space {
                            let sp = &mut self.spaces[as_id.0 as usize];
                            sp.table.pte_mut(loc).writable = false;
                            vt.charge(
                                Category::Memsnap,
                                costs::PT_NODE_VISIT * 4 + costs::PTE_DIRECT,
                            );
                            self.stats.pte_resets += 1;
                        }
                    }
                }
            }
            ResetStrategy::FullTableScan => {
                // Scan every PTE of every address space that maps a dirty
                // page, clearing write permission on the dirty ones.
                let mut spaces: Vec<AsId> = entries.iter().map(|e| e.space).collect();
                spaces.sort();
                spaces.dedup();
                let dirty_phys: std::collections::HashSet<u32> =
                    entries.iter().map(|e| e.phys).collect();
                let mut resets = 0u64;
                for as_id in spaces {
                    let sp = &mut self.spaces[as_id.0 as usize];
                    let (nodes, scanned) = sp.table.scan_leaves(|pte| {
                        if let Some(p) = pte.phys {
                            if dirty_phys.contains(&p) && pte.writable {
                                pte.writable = false;
                                resets += 1;
                            }
                        }
                    });
                    vt.charge(
                        Category::Memsnap,
                        costs::PT_NODE_VISIT * nodes as u64 + costs::PTE_SCAN * scanned as u64,
                    );
                }
                self.stats.pte_resets += resets;
            }
        }

        // TLB shootdown for the reset pages.
        vt.charge(
            Category::Memsnap,
            costs::TLB_SHOOTDOWN_BASE + costs::TLB_INVLPG * entries.len() as u64,
        );
        self.stats.shootdowns += 1;

        vt.now() - start
    }
}

impl Default for Vm {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const VA: u64 = 0x7000_0000_0000;

    fn setup(pages: u64) -> (Vm, Vt, AsId, MemObjectId) {
        let mut vm = Vm::new();
        let space = vm.create_space();
        let obj = vm.create_object(pages);
        vm.map(space, obj, VA, TrackMode::Tracked).unwrap();
        (vm, Vt::new(0), space, obj)
    }

    #[test]
    fn first_write_faults_once_per_page() {
        let (mut vm, mut vt, space, _) = setup(8);
        let t = vt.id();
        vm.write(&mut vt, space, t, VA, &[1; 10]);
        vm.write(&mut vt, space, t, VA + 100, &[2; 10]);
        vm.write(&mut vt, space, t, VA + PAGE_SIZE as u64, &[3; 10]);
        assert_eq!(vm.stats().minor_faults, 2);
        assert_eq!(vm.dirty_count(t), 2);
    }

    #[test]
    fn write_then_read_round_trips() {
        let (mut vm, mut vt, space, _) = setup(4);
        let t = vt.id();
        let data = [0xAB; 100];
        vm.write(&mut vt, space, t, VA + 4000, &data); // spans two pages
        let mut out = [0u8; 100];
        vm.read(&mut vt, space, VA + 4000, &mut out);
        assert_eq!(out, data);
    }

    #[test]
    fn untouched_pages_read_zero() {
        let (mut vm, mut vt, space, _) = setup(4);
        let mut out = [7u8; 32];
        vm.read(&mut vt, space, VA + 2 * PAGE_SIZE as u64, &mut out);
        assert!(out.iter().all(|&b| b == 0));
        assert_eq!(vm.stats().zero_fill_faults, 0, "reads must not allocate");
    }

    #[test]
    fn dirty_sets_are_per_thread() {
        let (mut vm, mut vt, space, _) = setup(8);
        let t0 = VthreadId(0);
        let t1 = VthreadId(1);
        vm.write(&mut vt, space, t0, VA, &[1]);
        vm.write(&mut vt, space, t1, VA + PAGE_SIZE as u64, &[2]);
        assert_eq!(vm.dirty_count(t0), 1);
        assert_eq!(vm.dirty_count(t1), 1);
        let d0 = vm.take_dirty(t0, None);
        assert_eq!(d0.len(), 1);
        assert_eq!(d0[0].obj_page, 0);
        assert_eq!(vm.dirty_count(t0), 0);
        assert_eq!(vm.dirty_count(t1), 1, "other thread's set is untouched");
    }

    #[test]
    fn take_dirty_filters_by_object() {
        let mut vm = Vm::new();
        let space = vm.create_space();
        let a = vm.create_object(4);
        let b = vm.create_object(4);
        vm.map(space, a, VA, TrackMode::Tracked).unwrap();
        vm.map(space, b, VA + 0x100000, TrackMode::Tracked).unwrap();
        let mut vt = Vt::new(0);
        let t = vt.id();
        vm.write(&mut vt, space, t, VA, &[1]);
        vm.write(&mut vt, space, t, VA + 0x100000, &[2]);
        let only_a = vm.take_dirty(t, Some(a));
        assert_eq!(only_a.len(), 1);
        assert_eq!(only_a[0].object, a);
        assert_eq!(vm.dirty_count(t), 1, "object b's page stays tracked");
    }

    #[test]
    fn dirty_lines_track_touched_cache_lines() {
        let (mut vm, mut vt, space, _) = setup(4);
        let t = vt.id();
        // Three scattered 64-byte stores: lines 0, 5, and 63.
        vm.write(&mut vt, space, t, VA, &[1; 64]);
        vm.write(&mut vt, space, t, VA + 5 * 64, &[2; 64]);
        vm.write(&mut vt, space, t, VA + 63 * 64, &[3; 64]);
        // An unaligned store spanning lines 10..=11.
        vm.write(&mut vt, space, t, VA + 10 * 64 + 32, &[4; 64]);
        let dirty = vm.take_dirty(t, None);
        assert_eq!(dirty.len(), 1);
        let want = 1u64 | (1 << 5) | (1 << 63) | (1 << 10) | (1 << 11);
        assert_eq!(dirty[0].lines, want);

        // A page-filling write reports every line.
        vm.write(&mut vt, space, t, VA + PAGE_SIZE as u64, &[5; PAGE_SIZE]);
        let dirty = vm.take_dirty(t, None);
        assert_eq!(dirty.len(), 1);
        assert_eq!(dirty[0].lines, u64::MAX);
        assert!(
            dirty[0].lines.count_ones() > 32,
            "heavy churn exceeds cutoff"
        );
    }

    #[test]
    fn untaken_lines_survive_untake_and_union_on_retake() {
        let (mut vm, mut vt, space, _) = setup(4);
        let t = vt.id();
        vm.write(&mut vt, space, t, VA, &[1; 64]);
        let dirty = vm.take_dirty(t, None);
        assert_eq!(dirty[0].lines, 1);
        // Failed μCheckpoint: the entries go back, then a new line is
        // written before the retry. The retake must report both lines.
        vm.untake_dirty(t, dirty);
        vm.write(&mut vt, space, t, VA + 7 * 64, &[2; 64]);
        let dirty = vm.take_dirty(t, None);
        let lines = dirty.iter().fold(0u64, |acc, e| acc | e.lines);
        assert_eq!(lines, 1 | (1 << 7));
    }

    #[test]
    fn untracked_mappings_do_not_fault_writes() {
        let mut vm = Vm::new();
        let space = vm.create_space();
        let obj = vm.create_object(4);
        vm.map(space, obj, VA, TrackMode::Untracked).unwrap();
        let mut vt = Vt::new(0);
        let t = vt.id();
        vm.write(&mut vt, space, t, VA, &[1; 64]);
        assert_eq!(vm.stats().minor_faults, 0);
        assert_eq!(vm.dirty_count(vt.id()), 0);
    }

    #[test]
    fn reset_protection_rearms_tracking() {
        let (mut vm, mut vt, space, _) = setup(4);
        let t = vt.id();
        vm.write(&mut vt, space, t, VA, &[1]);
        let dirty = vm.take_dirty(t, None);
        vm.reset_protection(&mut vt, &dirty, ResetStrategy::TraceBuffer);
        // Next write faults again and lands in a fresh dirty set.
        let faults_before = vm.stats().minor_faults;
        vm.write(&mut vt, space, t, VA, &[2]);
        assert_eq!(vm.stats().minor_faults, faults_before + 1);
        assert_eq!(vm.dirty_count(t), 1);
    }

    #[test]
    fn cip_write_takes_cow_path() {
        let (mut vm, mut vt, space, _) = setup(4);
        let t = vt.id();
        vm.write(&mut vt, space, t, VA, &[1; PAGE_SIZE]);
        let dirty = vm.take_dirty(t, None);
        let old_phys = dirty[0].phys;
        vm.reset_protection(&mut vt, &dirty, ResetStrategy::TraceBuffer);
        vm.freeze(&dirty, vt.now() + Nanos::from_us(50));

        // Write while the checkpoint is in flight: COW, not block.
        vm.write(&mut vt, space, t, VA + 8, &[9]);
        assert_eq!(vm.stats().cow_faults, 1);
        let new_dirty = vm.take_dirty(t, None);
        assert_ne!(new_dirty[0].phys, old_phys, "page was duplicated");
        // The new page carries the old contents plus the new write.
        let mut out = [0u8; 9];
        vm.read(&mut vt, space, VA, &mut out);
        assert_eq!(out, [1, 1, 1, 1, 1, 1, 1, 1, 9]);
    }

    #[test]
    fn write_after_cip_expires_is_minor_fault() {
        let (mut vm, mut vt, space, _) = setup(4);
        let t = vt.id();
        vm.write(&mut vt, space, t, VA, &[1]);
        let dirty = vm.take_dirty(t, None);
        vm.reset_protection(&mut vt, &dirty, ResetStrategy::TraceBuffer);
        vm.freeze(&dirty, vt.now()); // already expired
        vt.advance(Nanos::from_us(1));
        vm.write(&mut vt, space, t, VA, &[2]);
        assert_eq!(vm.stats().cow_faults, 0);
    }

    #[test]
    fn strict_isolation_catches_cross_thread_dirty() {
        let (mut vm, mut vt, space, _) = setup(4);
        vm.strict_isolation = true;
        vm.write(&mut vt, space, VthreadId(0), VA, &[1]);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            vm.write(&mut vt, space, VthreadId(1), VA, &[2]);
        }));
        assert!(result.is_err(), "property (3) violation must be caught");
    }

    #[test]
    fn multiprocess_reset_reaches_all_spaces() {
        // Two address spaces mapping the same object (PostgreSQL's shared
        // buffer cache); resetting protection must re-arm both.
        let mut vm = Vm::new();
        let s1 = vm.create_space();
        let s2 = vm.create_space();
        let obj = vm.create_object(4);
        vm.map(s1, obj, VA, TrackMode::Tracked).unwrap();
        vm.map(s2, obj, VA, TrackMode::Tracked).unwrap();
        let mut vt = Vt::new(0);
        let t = vt.id();
        // Touch through both spaces so both have PTEs.
        vm.write(&mut vt, s1, t, VA, &[1]);
        let d1 = vm.take_dirty(t, None);
        vm.reset_protection(&mut vt, &d1, ResetStrategy::TraceBuffer);
        let mut out = [0u8; 1];
        vm.read(&mut vt, s2, VA, &mut out);
        assert_eq!(out[0], 1, "both spaces see the same object page");
        // A write through space 2 must fault (its PTE was never writable).
        vm.write(&mut vt, s2, t, VA, &[2]);
        assert!(vm.stats().minor_faults >= 2);
        let mut out1 = [0u8; 1];
        vm.read(&mut vt, s1, VA, &mut out1);
        assert_eq!(out1[0], 2, "write through s2 is visible through s1");
    }

    #[test]
    fn figure1_strategy_cost_ordering() {
        // 1 GiB mapping, small dirty set: trace buffer << per-page walk
        // << full-table scan — the shape of Figure 1.
        let pages = 262_144; // 1 GiB
        let (mut vm, _, space, obj) = setup(pages);
        // Pre-fault the whole mapping so the page table is fully built
        // (the scan baseline pays for the resident set, as in the paper).
        let mut warm = Vt::new(9);
        let twarm = warm.id();
        for p in 0..pages {
            vm.write(&mut warm, space, twarm, VA + p * PAGE_SIZE as u64, &[1]);
        }
        let warm_dirty = vm.take_dirty(twarm, None);
        // Re-arm tracking so each strategy run takes a real fault.
        vm.reset_protection(&mut warm, &warm_dirty, ResetStrategy::TraceBuffer);

        let mut costs_us = Vec::new();
        for strategy in [
            ResetStrategy::TraceBuffer,
            ResetStrategy::PerPageWalk,
            ResetStrategy::FullTableScan,
        ] {
            let mut vt = Vt::new(1);
            let t = vt.id();
            // Dirty one page.
            vm.write(&mut vt, space, t, VA, &[1]);
            let dirty = vm.take_dirty(t, None);
            let cost = vm.reset_protection(&mut vt, &dirty, strategy);
            costs_us.push(cost.as_us_f64());
            let _ = obj;
        }
        assert!(costs_us[0] < costs_us[1], "trace < per-page: {costs_us:?}");
        assert!(costs_us[1] < costs_us[2], "per-page < scan: {costs_us:?}");
        assert!(
            costs_us[2] > 100.0,
            "full scan of 1 GiB table must be expensive: {costs_us:?}"
        );
    }

    #[test]
    fn reset_cost_matches_table5() {
        // Table 5: resetting tracking for 16 pages costs ~5.1 us.
        let (mut vm, mut vt, space, _) = setup(64);
        let t = vt.id();
        for p in 0..16u64 {
            vm.write(&mut vt, space, t, VA + p * PAGE_SIZE as u64, &[1]);
        }
        let dirty = vm.take_dirty(t, None);
        let cost = vm
            .reset_protection(&mut vt, &dirty, ResetStrategy::TraceBuffer)
            .as_us_f64();
        assert!(
            (cost - 5.1).abs() < 2.0,
            "reset cost {cost:.1} us vs paper 5.1 us"
        );
    }

    #[test]
    fn mapping_overlap_rejected() {
        let mut vm = Vm::new();
        let s = vm.create_space();
        let a = vm.create_object(4);
        let b = vm.create_object(4);
        vm.map(s, a, VA, TrackMode::Tracked).unwrap();
        assert_eq!(
            vm.map(s, b, VA + PAGE_SIZE as u64, TrackMode::Tracked),
            Err(VmError::Overlap)
        );
        assert_eq!(
            vm.map(s, b, VA + 1, TrackMode::Tracked),
            Err(VmError::UnalignedVa)
        );
    }

    #[test]
    #[should_panic(expected = "segfault")]
    fn unmapped_write_segfaults() {
        let mut vm = Vm::new();
        let s = vm.create_space();
        let mut vt = Vt::new(0);
        let t = vt.id();
        vm.write(&mut vt, s, t, 0x1000, &[1]);
    }
}
