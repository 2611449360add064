//! The object store proper.
//!
//! Commit protocol: a μCheckpoint writes its data blocks (one extent,
//! sequential wherever the allocator has a run) and then commits with a
//! single metadata block — either a **delta record** (the commit's page →
//! block pairs; the common case) or, for very large commits, a **full
//! root** that first flushes the in-memory COW tree's dirty nodes. Every
//! [`COMPACT_AFTER`] epochs an in-place commit first writes a
//! **compaction root** — a data-less full root that no acknowledgement
//! waits for — and lands as its usual record; a commit still
//! [`DELTA_SLOTS`] − 1 epochs above its object's newest root is an inline
//! full root. Recovery adopts the newest valid full root and replays
//! consecutive delta records on top. Deferring node IO this way keeps the
//! per-commit cost at "data + one block", which is what the paper's
//! Table 5 measures (39.7 μs of IO for a 64 KiB μCheckpoint).
//!
//! A commit whose caller names the 64-byte lines it changed, and whose
//! lines fit the record block, is **line-grain**: the delta record carries
//! the lines themselves and is the commit's only write. The patched pages
//! live in a per-object in-memory **overlay** until the next full root
//! writes them out as data blocks (DESIGN.md §6m has the invariants). A
//! line commit whose object's previous line record is still queued on
//! the device folds into it and issues no write (rule R3).
//!
//! Each path is a further `impl StoreShard` in a child module, tests
//! beside it: [`commit`], [`overlay`] (with the one record-apply),
//! [`replay`], [`snapshot`], [`read`], [`scrub`] and [`replica`] (the
//! image door). This module holds the state and helpers they share.

mod commit;
mod overlay;
mod read;
mod replay;
mod replica;
mod scrub;
mod snapshot;

pub use commit::CommitPage;
use commit::Root;
pub use overlay::OVERLAY_PAGE_BUDGET;
pub use scrub::{ScrubStats, UnrepairedPage};

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashMap, HashSet};
use std::error::Error;
use std::fmt;

use msnap_disk::{Disk, IoError, WriteToken, BLOCK_SIZE};
use msnap_sim::{Category, Nanos, Vt};

use crate::layout::{
    self, BatchRecord, DeltaRecord, DirEntry, Epoch, ObjectId, RootRecord, ShardLayout,
    SnapCatalog, SnapEntry, BATCH_SLOTS, COMPACT_AFTER, DELTA_SLOTS, DIR_BLOCKS, DIR_ENTRY_LEN,
    ENTRIES_PER_BLOCK, INLINE_BLOCK, JOURNAL_CAP, MAX_DELTA_PAIRS, MAX_OBJECTS, MAX_SNAPSHOTS,
    NAME_LEN, OBJECT_META_BLOCKS, SHARD_SLAB_BLOCKS, SNAP_CATALOG_SLOTS,
};
use crate::radix::{TreeError, FANOUT};
#[cfg(doc)]
use crate::ObjectStore;
use crate::{lines, BlockAllocator, BlockCache, RadixTree};

/// Errors returned by the object store.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StoreError {
    /// No object with the given name or id.
    NotFound,
    /// An object with this name already exists.
    Exists,
    /// The directory is full.
    TooManyObjects,
    /// The object name exceeds the directory's name field.
    NameTooLong,
    /// The on-disk image is not a formatted store.
    NotFormatted,
    /// The device (or the allocator's capacity ceiling) is out of blocks.
    OutOfSpace,
    /// A device write failed and retries (if the fault was transient) did
    /// not help. The commit was aborted cleanly: no epoch advanced, no
    /// blocks leaked.
    Io(IoError),
    /// No retained snapshot with the given name.
    SnapshotNotFound,
    /// A retained snapshot with this name already exists.
    SnapshotExists,
    /// The snapshot catalog is full ([`MAX_SNAPSHOTS`] entries).
    TooManySnapshots,
    /// A diff was requested between snapshots of different objects.
    SnapshotMismatch,
    /// [`ObjectStore::apply_image`] with a target epoch at or behind the
    /// object's current epoch: the image would move the replica backward.
    StaleEpoch,
    /// A page's at-rest digest did not match the bytes the device
    /// returned: silent corruption (bit rot) detected — and **not**
    /// served. The block is quarantined; heal it from a retained
    /// snapshot or a replica (see [`ObjectStore::scrub`] and
    /// [`ObjectStore::repair_page`]).
    CorruptData {
        /// Page index whose data failed verification.
        page: u64,
        /// The corrupt device block (now quarantined).
        block: u64,
        /// The epoch the read was served at.
        epoch: Epoch,
    },
    /// Metadata media rotted: a radix-node block failed its digest check
    /// during demand hydration, or `open` met a directory entry that does
    /// not decode or breaks the dense id sequence.
    CorruptMeta {
        /// The corrupt node or directory block.
        block: u64,
    },
    /// [`ObjectStore::repair_page`] was handed bytes that do not match
    /// the page's expected digest: the proposed clean copy is itself
    /// corrupt (or stale) and was rejected.
    RepairMismatch,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::NotFound => f.write_str("object not found"),
            StoreError::Exists => f.write_str("object already exists"),
            StoreError::TooManyObjects => f.write_str("object directory is full"),
            StoreError::NameTooLong => f.write_str("object name too long"),
            StoreError::NotFormatted => f.write_str("device does not contain a formatted store"),
            StoreError::OutOfSpace => f.write_str("store is out of blocks"),
            StoreError::Io(e) => write!(f, "device write failed: {e}"),
            StoreError::SnapshotNotFound => f.write_str("snapshot not found"),
            StoreError::SnapshotExists => f.write_str("snapshot already exists"),
            StoreError::TooManySnapshots => f.write_str("snapshot catalog is full"),
            StoreError::SnapshotMismatch => f.write_str("snapshots belong to different objects"),
            StoreError::StaleEpoch => f.write_str("image target epoch is not ahead of the object"),
            StoreError::CorruptData { page, block, epoch } => write!(
                f,
                "page {page} (block {block}, epoch {epoch}) failed digest verification"
            ),
            StoreError::CorruptMeta { block } => {
                write!(f, "metadata block {block} failed verification")
            }
            StoreError::RepairMismatch => {
                f.write_str("repair data does not match the page's expected digest")
            }
        }
    }
}

impl Error for StoreError {}

impl From<IoError> for StoreError {
    fn from(e: IoError) -> Self {
        match e {
            IoError::NoSpace { .. } => StoreError::OutOfSpace,
            other => StoreError::Io(other),
        }
    }
}

impl From<TreeError> for StoreError {
    fn from(e: TreeError) -> Self {
        match e {
            TreeError::Io(e) => e.into(),
            TreeError::CorruptNode { block } => StoreError::CorruptMeta { block },
        }
    }
}

/// Bounded retry budget for transient device faults: a submission is
/// retried at most this many times in total before the commit aborts.
pub const MAX_IO_ATTEMPTS: u32 = 3;

/// Submits `iov`, retrying transient failures up to [`MAX_IO_ATTEMPTS`]
/// total attempts. Each retry is a fresh submission (a new fault-plan
/// index), which is what makes transient faults survivable.
pub(crate) fn retry_transient(
    disk: &mut Disk,
    at: Nanos,
    iov: &[(u64, &[u8])],
) -> Result<WriteToken, IoError> {
    let mut attempts = 1;
    loop {
        match disk.writev_at(at, iov) {
            Err(e) if e.is_transient() && attempts < MAX_IO_ATTEMPTS => attempts += 1,
            other => return other,
        }
    }
}

/// [`retry_transient`], then every written block is dropped from `cache`:
/// the cache is invalidated by writes, never populated by them, so the
/// first read of a freshly written block always observes the device (and
/// any fault that corrupted it).
fn writev_retry(
    disk: &mut Disk,
    at: Nanos,
    iov: &[(u64, &[u8])],
    cache: &mut BlockCache,
) -> Result<WriteToken, IoError> {
    let token = retry_transient(disk, at, iov)?;
    for (block, _) in iov {
        cache.invalidate(*block);
    }
    Ok(token)
}

/// Default block-cache capacity, in 4 KiB blocks (1 MiB of cached state).
pub const DEFAULT_CACHE_BLOCKS: usize = 256;

/// Reads `block` into `out` through the store's block cache, charging
/// device IO only on a miss. `node` marks radix-node demand loads so
/// [`StoreStats::hydrations`] counts exactly the tree reads that reached
/// the device.
///
/// A free function (not a method) so callers can borrow the cache and
/// stats disjointly from an object's tree while a hydration closure is
/// live.
fn read_block_cached(
    vt: &mut Vt,
    disk: &mut Disk,
    cache: &mut BlockCache,
    stats: &mut StoreStats,
    block: u64,
    out: &mut [u8],
    node: bool,
) -> Result<(), IoError> {
    if cache.get(block, out) {
        stats.cache_hits += 1;
        return Ok(());
    }
    disk.try_read_block(vt, block, out)?;
    stats.cache_misses += 1;
    if node {
        stats.hydrations += 1;
    }
    if cache.insert(block, out) {
        stats.cache_evictions += 1;
    }
    Ok(())
}

/// Reads `blocks` straight from the device (no cache) as one vectored
/// submission and returns their images back to back, in iteration order.
pub(crate) fn readv_blocks(
    vt: &mut Vt,
    disk: &mut Disk,
    blocks: impl IntoIterator<Item = u64>,
) -> Result<Vec<u8>, IoError> {
    let (buf, lands) = submit_readv(vt.now(), disk, blocks)?;
    wait_io(vt, lands);
    Ok(buf)
}

/// Submits `blocks` at `now` as one vectored read without waiting for
/// it: their images back to back, in iteration order, and the instant
/// the read lands.
pub(crate) fn submit_readv(
    now: Nanos,
    disk: &mut Disk,
    blocks: impl IntoIterator<Item = u64>,
) -> Result<(Vec<u8>, Nanos), IoError> {
    let blocks: Vec<u64> = blocks.into_iter().collect();
    let mut buf = vec![0u8; blocks.len() * BLOCK_SIZE];
    let mut iov: Vec<(u64, &mut [u8])> =
        blocks.into_iter().zip(buf.chunks_mut(BLOCK_SIZE)).collect();
    let lands = disk.try_readv_at(now, &mut iov)?;
    Ok((buf, lands))
}

/// Blocks `vt` until `at`, charging the wait as [`Category::IoWait`].
pub(crate) fn wait_io(vt: &mut Vt, at: Nanos) {
    let wait = at.saturating_sub(vt.now());
    if wait > Nanos::ZERO {
        vt.charge(Category::IoWait, wait);
    }
}

/// Pages per bulk-read submission (1 MiB of buffer): the chunk
/// [`ObjectStore::scrub`] verifies at a time, and the chunk region page-in
/// hands to [`ObjectStore::read_pages`]. Deep enough that the per-IO setup
/// cost vanishes (256 pages stream in ≈ 0.25 ms on the paper's device,
/// ≈ 1 µs a page against 17 µs at queue depth one), small enough that the
/// buffer does not show in the resident set.
pub const BULK_READ_PAGES: u64 = 256;

/// Result of a committed μCheckpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitToken {
    /// The object's epoch after this μCheckpoint.
    pub epoch: Epoch,
    /// Instant the μCheckpoint is durable: its commit record *and every
    /// earlier commit of the object* are on the device (a commit that
    /// overtakes its predecessor on the device is acknowledged only when
    /// the predecessor lands — recovery replays a prefix).
    pub completes: Nanos,
    /// Payload + metadata bytes written to the device.
    pub bytes_written: u64,
}

/// Aggregate store statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Committed μCheckpoints.
    pub commits: u64,
    /// Commits that used the delta-record fast path.
    pub delta_commits: u64,
    /// Data blocks written across all commits (a line-grain commit
    /// writes none; the full root that flushes its pages counts them).
    pub pages_written: u64,
    /// Radix-tree node blocks written (full commits only).
    pub nodes_written: u64,
    /// Batched (group-commit) submissions: each covers several objects'
    /// μCheckpoints with one data extent and one commit record.
    pub batch_commits: u64,
    /// Per-object μCheckpoints committed through batched submissions.
    pub batched_objects: u64,
    /// Reads served from the block cache without touching the device.
    pub cache_hits: u64,
    /// Cached reads that missed and went to the device.
    pub cache_misses: u64,
    /// Cache slots reclaimed by the CLOCK sweep to admit a new block.
    pub cache_evictions: u64,
    /// Radix-node demand loads that reached the device: the IO cost of
    /// hydrating unloaded subtrees (a cache hit on a node block is a
    /// `cache_hits` increment, not a hydration).
    pub hydrations: u64,
    /// Delta commits that were one record write carrying the dirty lines
    /// (no data block).
    pub line_commits: u64,
    /// Line bytes those records carried inline.
    pub line_bytes: u64,
    /// Overlay pages written out as data blocks by full roots.
    pub overlay_pages_flushed: u64,
    /// Line commits that issued no write: each folded into its object's
    /// newest line record while that record was still queued on the
    /// device, and is durable with it (also counted in `line_commits`).
    pub absorbed_commits: u64,
    /// Compaction roots written: data-less full roots an in-place commit
    /// wrote off its commit path ([`COMPACT_AFTER`]). Not commits: they
    /// count in neither `commits` nor `delta_commits`.
    pub compaction_roots: u64,
    /// Records whose submission rule R1′ held past their data: no root
    /// covering the ring slot they reuse was durable yet.
    pub root_gated_records: u64,
}

/// CPU cost constants for store operations.
///
/// Calibrated against the paper's Table 5: "Initiating Writes" for a
/// 64 KiB (16-page) μCheckpoint costs 6.5 μs.
pub(crate) mod costs {
    use msnap_sim::Nanos;

    /// Fixed cost of assembling and submitting a μCheckpoint IO.
    pub const INITIATE_BASE: Nanos = Nanos::from_ns(4_000);
    /// Per-page cost: allocation, tree update, iovec entry.
    pub const INITIATE_PER_PAGE: Nanos = Nanos::from_ns(160);
    /// Per-tree-node serialization cost (full commits).
    pub const NODE_SERIALIZE: Nanos = Nanos::from_ns(250);
    /// Cost of a root/delta-slot parse during recovery.
    pub const ROOT_PARSE: Nanos = Nanos::from_ns(400);
    /// Cost of digesting one 4 KiB image on scrub's verify path:
    /// `BENCH_host.json`'s page digest, 4 KiB at 19.36 GB/s.
    pub const DIGEST_PAGE: Nanos = Nanos::from_ns(212);

    /// Cost of initiating a μCheckpoint of `pages` pages. Charged only
    /// once the commit's blocks are allocated: an attempt that aborts
    /// with `OutOfSpace` (which the broker wrapper re-runs after a
    /// grant) costs no virtual time.
    pub fn initiate(pages: usize) -> Nanos {
        INITIATE_BASE + INITIATE_PER_PAGE * pages as u64
    }
}

/// The radix-tree leaf that maps `page`.
fn leaf_of(page: u64) -> u64 {
    page / FANOUT as u64
}

struct ObjectState {
    entry: DirEntry,
    /// The object's page index, always current in memory; dirty nodes are
    /// flushed on full commits only.
    tree: RadixTree,
    epoch: Epoch,
    last_commit: Nanos,
    /// Epochs above the newest full root, a compaction root included.
    deltas_since_full: u64,
    /// Alternates the full-root slot (consecutive full roots never share
    /// a slot).
    full_count: u64,
    /// Blocks superseded since the newest root that only the records
    /// above it named (and that root's journal): recyclable once the
    /// *next* root is durable, because recovery replays those records on
    /// top of the newest root until then.
    root_freed_pending: Vec<u64>,
    /// Data blocks superseded since the newest root that a leaf of its
    /// tree still names, by leaf index: recyclable only once a root that
    /// writes that leaf is durable. Until then every root recovery may
    /// adopt names that leaf's image, whatever its journal overrides.
    node_freed_pending: BTreeMap<u64, Vec<u64>>,
    /// Every mapping the in-memory tree holds beyond the tree the newest
    /// root names, page → packed entry: what a compaction root carries
    /// in its block in place of the leaves (DESIGN.md §6m). Emptied by
    /// every root that writes every dirty node.
    journal: BTreeMap<u64, u64>,
    /// Monotone durability frontier: max completion instant over all of
    /// this object's commits. Gates data-block recycling so that recovery
    /// to *any* reachable epoch finds its blocks intact.
    chain_completes: Nanos,
    /// The previous and the newest full root — what the two root slots
    /// hold — as `(epoch, durability instant)`. R1′: the record of epoch
    /// `x` reuses the ring slot of `x − DELTA_SLOTS`, which recovery
    /// needs until a root at or above that epoch is durable, so it is not
    /// *submitted* before [`ObjectState::covered_at`] that epoch.
    roots: [(Epoch, Nanos); 2],
    /// Pages whose newest content lives only in line-grain records: page
    /// → (digest, whole patched image). Read before the tree, dropped
    /// per page by a later page-grain commit of it, written out and
    /// emptied by every full root — so trees handed to snapshots, rebase
    /// and GC are always self-contained. Every key's tree path is
    /// hydrated (the commit or replay that inserted it did that).
    overlay: BTreeMap<u64, (u32, Box<[u8]>)>,
    /// The tag the object's next record carries: `tag_of` the checksum
    /// of the root or record block that committed `epoch`. A compaction
    /// root leaves it as it is (and stores it in its `tip` word).
    tip: u32,
    /// The object's newest record, while it is a line record the next
    /// line commit may fold into (R3): its ring slot and what it holds.
    /// Any other commit, a full root above all, ends the chain.
    queued: Option<(u64, DeltaRecord)>,
}

impl ObjectState {
    /// A new object at epoch 0 with an empty tree and nothing in flight.
    fn new(entry: DirEntry) -> Self {
        ObjectState {
            entry,
            tree: RadixTree::new(),
            epoch: 0,
            last_commit: Nanos::ZERO,
            deltas_since_full: 0,
            full_count: 0,
            root_freed_pending: Vec::new(),
            node_freed_pending: BTreeMap::new(),
            journal: BTreeMap::new(),
            chain_completes: Nanos::ZERO,
            roots: [(0, Nanos::ZERO); 2],
            overlay: BTreeMap::new(),
            tip: layout::tag_of(0),
            queued: None,
        }
    }

    /// Queues the block a remap of `page` superseded for its gate: the
    /// next root if only records or a journal named it (the journal holds
    /// `page`), else the next root that writes `page`'s leaf, because the
    /// newest root's tree names it there.
    fn supersede(&mut self, page: u64, old: Option<u64>) {
        if self.journal.contains_key(&page) {
            self.root_freed_pending.extend(old);
        } else if let Some(old) = old {
            let leaf = self.node_freed_pending.entry(leaf_of(page));
            leaf.or_default().push(old);
        }
    }

    /// When a root at or above `epoch` is durable: the earlier of the two
    /// roots that covers it (the newest if neither does).
    fn covered_at(&self, epoch: Epoch) -> Nanos {
        let [previous, newest] = self.roots;
        let covering = [previous, newest].into_iter().find(|(e, _)| *e >= epoch);
        covering.unwrap_or(newest).1
    }
}

/// A retained snapshot held in memory: its catalog entry, the pinned
/// epoch's (fully committed) tree for point-in-time reads and diffs, and
/// the exact block set the snapshot pins.
///
/// After recovery (`open_at`) the tree is *unloaded* (an O(1) wrapper
/// around the catalog's root block) and `pinned` is false: `blocks` is
/// empty and no pins are registered. Pins materialize on demand — see
/// [`StoreShard::ensure_pins`] — before the store frees its first
/// block, which is the only moment pins are consulted.
struct SnapState {
    entry: SnapEntry,
    tree: RadixTree,
    blocks: Vec<u64>,
    /// Whether `blocks` is populated and counted in `snap_pins`.
    pinned: bool,
}

/// One shard of the copy-on-write object store: a complete store in its
/// own right (allocator, radix forest, batch ring, snapshot catalog)
/// whose metadata slab lives at a [`ShardLayout`]-determined base. The
/// [`crate::ObjectStore`] wrapper owns `N ≥ 1` of these plus the extent
/// broker that partitions the data area between them. See the crate and
/// module docs.
pub(crate) struct StoreShard {
    layout: ShardLayout,
    alloc: BlockAllocator,
    objects: Vec<ObjectState>,
    by_name: HashMap<String, ObjectId>,
    /// Blocks superseded by a commit, recyclable once the entry's instant
    /// has passed: a min-heap on the gating instant, popped until `now`.
    pending_free: BinaryHeap<Reverse<(Nanos, Vec<u64>)>>,
    /// Retained snapshots, in catalog order.
    snapshots: Vec<SnapState>,
    /// Snapshot name → index into `snapshots`, so per-page snapshot reads
    /// do not linear-scan the catalog.
    snap_by_name: HashMap<String, usize>,
    /// False while some snapshot adopted by `open` has not yet had its
    /// pin set enumerated. No block may be freed until this is true.
    pins_ready: bool,
    /// Next snapshot-catalog sequence number.
    snap_seq: u64,
    /// Pin refcount per disk block reachable from a retained snapshot.
    /// Pinned blocks are withheld from recycling instead of freed.
    snap_pins: HashMap<u64, u32>,
    /// Pinned blocks whose recycle gate has already passed: they return
    /// to the allocator the moment their last pin drops.
    withheld: HashSet<u64>,
    /// What each batch-ring slot currently holds: the `(object, epoch)`
    /// of every group in the record occupying it. A slot entry is *live*
    /// while its epoch is newer than the object's latest full root, and a
    /// live entry forces a full-root flush before the slot is reused; the
    /// batch record that reuses it waits until a root covering each entry
    /// is durable (R1′).
    batch_ring: Vec<Vec<(ObjectId, Epoch)>>,
    /// Next store-wide batch sequence number.
    batch_seq: u64,
    stats: StoreStats,
    /// Ablation knob: disable the delta-record fast path (every commit
    /// flushes tree nodes and writes a full root).
    delta_commits: bool,
    /// Unified CLOCK block cache serving page reads, snapshot reads, and
    /// radix-node hydration. Invalidated on write; discarded across
    /// `open` (recovery never trusts pre-crash cached state).
    cache: BlockCache,
    /// Blocks whose media failed digest verification: withheld from the
    /// allocator forever — never recycled, never served again.
    quarantined: HashSet<u64>,
    /// Resumable scrub cursor: the next `(object index, page)` to
    /// verify. `(objects.len(), _)` marks a pass boundary.
    scrub_cursor: (usize, u64),
    /// Node blocks already media-verified in the current scrub pass.
    /// Committed COW nodes are shared across objects and snapshots, so
    /// each block is read once per pass. Cleared when the pass wraps.
    scrub_verified: HashSet<u64>,
    /// The scrub's one submitted, not yet verified data read: the next
    /// slice verifies it (DESIGN.md §6g).
    scrub_ahead: Option<scrub::ReadAhead>,
    /// Cumulative scrub statistics.
    scrub_stats: ScrubStats,
    /// Corrupt pages with no clean local source, waiting for a peer
    /// copy via [`StoreShard::repair_page`].
    unrepaired: Vec<UnrepairedPage>,
}

impl fmt::Debug for StoreShard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StoreShard")
            .field("objects", &self.objects.len())
            .field("high_water", &self.alloc.high_water())
            .finish()
    }
}

impl StoreShard {
    /// An empty shard at `layout` — no objects, snapshots or ring records,
    /// a cold cache — whose allocator hands out nothing until a grant
    /// arrives: the one constructor `format_at` and `open_at` build on.
    fn new(layout: ShardLayout) -> Self {
        StoreShard {
            layout,
            alloc: BlockAllocator::bounded(layout.data_floor, layout.data_floor),
            objects: Vec::new(),
            by_name: HashMap::new(),
            pending_free: BinaryHeap::new(),
            snapshots: Vec::new(),
            snap_by_name: HashMap::new(),
            pins_ready: true,
            snap_seq: 0,
            snap_pins: HashMap::new(),
            withheld: HashSet::new(),
            batch_ring: vec![Vec::new(); BATCH_SLOTS as usize],
            batch_seq: 0,
            stats: StoreStats::default(),
            delta_commits: true,
            cache: BlockCache::new(DEFAULT_CACHE_BLOCKS),
            quarantined: HashSet::new(),
            scrub_cursor: (0, 0),
            scrub_verified: HashSet::new(),
            scrub_ahead: None,
            scrub_stats: ScrubStats::default(),
            unrepaired: Vec::new(),
        }
    }

    /// Formats one shard's metadata slab at `layout` and returns the
    /// shard with an empty allocator: every block it hands out comes from
    /// a broker grant ([`StoreShard::grant_range`]). The caller settles
    /// the device once all shards are formatted.
    ///
    /// Formatting happens before any workload runs; injecting faults into
    /// it is unsupported, so a device error here is a setup bug and
    /// panics.
    pub(crate) fn format_at(disk: &mut Disk, layout: ShardLayout) -> Self {
        disk.write_block_at(Nanos::ZERO, layout.slab_head(), &layout::slab_head_image())
            .expect("formatting a faulty device is unsupported");
        let zero = [0u8; BLOCK_SIZE];
        let dir = layout.dir_start();
        let ring = layout.batch_ring_start();
        let cat = layout.snap_catalog_start();
        for b in (dir..dir + DIR_BLOCKS)
            .chain(ring..ring + BATCH_SLOTS)
            .chain(cat..cat + SNAP_CATALOG_SLOTS)
        {
            disk.write_block_at(Nanos::ZERO, b, &zero)
                .expect("formatting a faulty device is unsupported");
        }
        StoreShard::new(layout)
    }

    /// [`crate::ObjectStore::create`] on this shard.
    pub fn create(
        &mut self,
        vt: &mut Vt,
        disk: &mut Disk,
        name: &str,
    ) -> Result<ObjectId, StoreError> {
        if name.len() > NAME_LEN {
            return Err(StoreError::NameTooLong);
        }
        if self.by_name.contains_key(name) {
            return Err(StoreError::Exists);
        }
        if self.objects.len() >= MAX_OBJECTS {
            return Err(StoreError::TooManyObjects);
        }
        let id = ObjectId(self.objects.len() as u32);
        let meta_base = self
            .alloc
            .alloc_contiguous(OBJECT_META_BLOCKS)
            .ok_or(StoreError::OutOfSpace)?;
        let entry = DirEntry {
            name: name.to_string(),
            id,
            meta_base,
        };
        self.objects.push(ObjectState::new(entry.clone()));
        self.by_name.insert(name.to_string(), id);
        if let Err(e) = self.write_dir_entry(vt, disk, &entry) {
            // Clean abort: the object never existed.
            self.by_name.remove(name);
            self.objects.pop();
            for b in meta_base..meta_base + OBJECT_META_BLOCKS {
                self.alloc.free(b);
            }
            return Err(e);
        }
        Ok(id)
    }

    /// Looks up an object by name.
    pub fn lookup(&self, name: &str) -> Option<ObjectId> {
        self.by_name.get(name).copied()
    }

    /// Names of all objects, in id order.
    pub fn object_names(&self) -> Vec<String> {
        self.objects.iter().map(|o| o.entry.name.clone()).collect()
    }

    /// The object's current epoch.
    pub fn epoch(&self, id: ObjectId) -> Epoch {
        self.objects[id.0 as usize].epoch
    }

    /// The object's length in pages.
    pub fn len_pages(&self, id: ObjectId) -> u64 {
        self.objects[id.0 as usize].len_pages()
    }

    /// The durability instant of the object's latest μCheckpoint.
    pub fn last_commit(&self, id: ObjectId) -> Nanos {
        self.objects[id.0 as usize].last_commit
    }

    /// Store-wide statistics.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Grants the block range `[start, end)` to this shard's allocator.
    pub(crate) fn grant_range(&mut self, start: u64, end: u64) {
        self.alloc.add_range(start, end);
    }

    /// The shard's bump frontier (next never-allocated block).
    pub(crate) fn high_water(&self) -> u64 {
        self.alloc.high_water()
    }

    /// Sum of all object epochs: the shard's logical clock. Every commit
    /// advances exactly one object's epoch by one, so this sum is a
    /// monotone counter that recovery reconstructs for free from the
    /// recovered roots — the per-shard component of a vector cut.
    pub(crate) fn epoch_sum(&self) -> u64 {
        self.objects.iter().map(|o| o.epoch).sum()
    }

    /// Max durability frontier over all objects: the instant by which
    /// every commit this shard has ever initiated is on the device.
    pub(crate) fn max_chain_completes(&self) -> Nanos {
        self.objects
            .iter()
            .map(|o| o.chain_completes)
            .max()
            .unwrap_or(Nanos::ZERO)
    }

    /// The name of a (shard-local) object id, if it exists.
    pub(crate) fn object_name(&self, id: ObjectId) -> Option<&str> {
        self.objects
            .get(id.0 as usize)
            .map(|o| o.entry.name.as_str())
    }

    /// Drops every cached block without resizing. Tests that corrupt the
    /// device behind the store's back call this so the next read observes
    /// the raw device, as direct IO would.
    pub fn drop_cache(&mut self) {
        self.cache.clear();
    }

    /// Blocks currently resident in the cache.
    pub fn cached_blocks(&self) -> usize {
        self.cache.len()
    }

    /// Ablation knob: when `false`, every μCheckpoint flushes the COW
    /// tree and writes a full root (no delta-record fast path).
    pub fn set_delta_commits(&mut self, enabled: bool) {
        self.delta_commits = enabled;
    }

    fn write_dir_entry(
        &mut self,
        vt: &mut Vt,
        disk: &mut Disk,
        entry: &DirEntry,
    ) -> Result<(), StoreError> {
        let slot = entry.id.0 as usize;
        let dir_block = self.layout.dir_start() + (slot / ENTRIES_PER_BLOCK) as u64;
        let mut buf = [0u8; BLOCK_SIZE];
        disk.try_read_block(vt, dir_block, &mut buf)?;
        let off = (slot % ENTRIES_PER_BLOCK) * DIR_ENTRY_LEN;
        entry.encode(&mut buf[off..off + DIR_ENTRY_LEN]);
        let token = writev_retry(disk, vt.now(), &[(dir_block, &buf[..])], &mut self.cache)?;
        Disk::wait(vt, token);
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::type_complexity)]
mod tests {
    use super::*;
    use crate::ObjectStore;
    use msnap_disk::DiskConfig;

    impl StoreShard {
        /// The one-group, mask-less case of `persist_batch`.
        pub(super) fn persist(
            &mut self,
            vt: &mut Vt,
            disk: &mut Disk,
            object: ObjectId,
            pages: &[(u64, &[u8])],
        ) -> Result<CommitToken, StoreError> {
            Ok(self.persist_batch(vt, disk, &[(object, pages)])?[0])
        }
    }

    pub(super) fn page_of(byte: u8) -> Vec<u8> {
        vec![byte; BLOCK_SIZE]
    }

    /// The one-shard slice of `ObjectStore::format_sharded(disk, 1)`, with
    /// the whole data area granted up front so these tests can drive a
    /// bare shard without a broker.
    pub(super) fn format_shard(disk: &mut Disk) -> StoreShard {
        let mut shard = StoreShard::format_at(disk, ShardLayout::sharded(0, 1));
        disk.settle();
        grant_rest(&mut shard, disk);
        shard
    }

    /// Recovers the shard [`format_shard`] made, again owning every block
    /// past its frontier.
    pub(super) fn open_shard(vt: &mut Vt, disk: &mut Disk) -> Result<StoreShard, StoreError> {
        let mut shard = StoreShard::open_at(vt, disk, ShardLayout::sharded(0, 1))?;
        grant_rest(&mut shard, disk);
        Ok(shard)
    }

    fn grant_rest(shard: &mut StoreShard, disk: &Disk) {
        let end = disk.config().capacity_blocks.unwrap_or(u64::MAX);
        if shard.high_water() < end {
            shard.grant_range(shard.high_water(), end);
        }
    }

    pub(super) fn setup() -> (Disk, StoreShard, Vt) {
        let mut disk = Disk::new(DiskConfig::paper());
        let store = format_shard(&mut disk);
        (disk, store, Vt::new(0))
    }

    mod line_grain;

    #[test]
    fn create_lookup_and_duplicate() {
        let (mut disk, mut store, mut vt) = setup();
        let id = store.create(&mut vt, &mut disk, "a").unwrap();
        assert_eq!(store.lookup("a"), Some(id));
        assert_eq!(store.lookup("b"), None);
        assert_eq!(
            store.create(&mut vt, &mut disk, "a"),
            Err(StoreError::Exists)
        );
    }

    #[test]
    fn create_failure_rolls_back_directory_state() {
        use msnap_disk::{Fault, FaultPlan};
        let (mut disk, mut store, mut vt) = setup();
        let free_before = store.alloc.free_blocks();
        disk.set_fault_plan(FaultPlan::new().at(disk.io_seq(), Fault::Drop { transient: false }));
        let err = store.create(&mut vt, &mut disk, "doomed").unwrap_err();
        assert!(matches!(err, StoreError::Io(_)));
        assert_eq!(store.lookup("doomed"), None);
        assert_eq!(store.object_names().len(), 0);
        // The meta blocks went back to the free list (no leak).
        assert_eq!(
            store.alloc.free_blocks(),
            free_before + OBJECT_META_BLOCKS as usize
        );
        // Creating the same name now succeeds.
        disk.clear_fault_plan();
        store.create(&mut vt, &mut disk, "doomed").unwrap();
    }

    // ---- the verified read path ---------------------------------------
}
