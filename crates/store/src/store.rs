//! The object store proper.
//!
//! Commit protocol: a μCheckpoint writes its data blocks (one extent,
//! sequential wherever the allocator has a run) and then commits with a
//! single metadata block — either a **delta record** (the commit's page →
//! block pairs; the common case) or, every [`DELTA_SLOTS`]-th commit or
//! for very large commits, a **full root** that first flushes the
//! in-memory COW tree's dirty nodes. Recovery adopts the newest valid
//! full root and replays consecutive delta records on top. Deferring node
//! IO this way keeps the per-commit cost at "data + one block", which is
//! what the paper's Table 5 measures (39.7 μs of IO for a 64 KiB
//! μCheckpoint).
//!
//! A commit whose caller names the 64-byte lines it changed, and whose
//! lines fit the record block, is **line-grain**: the delta record carries
//! the lines themselves and is the commit's only write. The patched pages
//! live in a per-object in-memory **overlay** until the next full root
//! writes them out as data blocks (DESIGN.md §6m has the invariants).

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, HashSet};
use std::error::Error;
use std::fmt;

use msnap_disk::{Disk, IoError, WriteToken, BLOCK_SIZE};
use msnap_sim::{Category, Nanos, Vt};

use crate::layout::{
    self, BatchRecord, DeltaRecord, DirEntry, Epoch, ObjectId, RootRecord, ShardLayout,
    SnapCatalog, SnapEntry, BATCH_SLOTS, DELTA_SLOTS, DIR_BLOCKS, DIR_ENTRY_LEN, ENTRIES_PER_BLOCK,
    INLINE_BLOCK, MAX_DELTA_PAIRS, MAX_OBJECTS, MAX_SNAPSHOTS, NAME_LEN, OBJECT_META_BLOCKS,
    SHARD_SLAB_BLOCKS, SLAB_MAGIC, SNAP_CATALOG_SLOTS,
};
use crate::radix::TreeError;
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
    /// [`StoreShard::apply_image`] with a target epoch at or behind the
    /// object's current epoch: the image would move the replica backward.
    StaleEpoch,
    /// A page's at-rest digest did not match the bytes the device
    /// returned: silent corruption (bit rot) detected — and **not**
    /// served. The block is quarantined; heal it from a retained
    /// snapshot or a replica (see [`StoreShard::scrub`] and
    /// [`StoreShard::repair_page`]).
    CorruptData {
        /// Page index whose data failed verification.
        page: u64,
        /// The corrupt device block (now quarantined).
        block: u64,
        /// The epoch the read was served at.
        epoch: Epoch,
    },
    /// A radix-node block failed its digest check during demand
    /// hydration: the tree's own media rotted.
    CorruptMeta {
        /// The corrupt node block.
        block: u64,
    },
    /// [`StoreShard::repair_page`] was handed bytes that do not match
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
                write!(f, "tree node block {block} failed digest verification")
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

/// Block numbers handed out by the full-commit closure after the
/// allocator is exhausted: far beyond any real device, never written —
/// the commit aborts before any IO is issued. Kept below 2^32 so the
/// aborted commit's node serialization can still pack scratch entries
/// into digest-carrying radix words.
const SCRATCH_BLOCK_BASE: u64 = 0xF000_0000;

/// Submits `iov`, retrying transient failures up to [`MAX_IO_ATTEMPTS`]
/// total attempts. Each retry is a fresh submission (a new fault-plan
/// index), which is what makes transient faults survivable.
///
/// On success every written block is dropped from `cache`: the cache is
/// invalidated by writes, never populated by them, so the first read of a
/// freshly written block always observes the device (and any fault that
/// corrupted it).
fn writev_retry(
    disk: &mut Disk,
    at: Nanos,
    iov: &[(u64, &[u8])],
    cache: &mut BlockCache,
) -> Result<WriteToken, IoError> {
    let mut attempts = 1;
    loop {
        match disk.writev_at(at, iov) {
            Err(e) if e.is_transient() && attempts < MAX_IO_ATTEMPTS => attempts += 1,
            other => {
                if other.is_ok() {
                    for (block, _) in iov {
                        cache.invalidate(*block);
                    }
                }
                return other;
            }
        }
    }
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
    let blocks: Vec<u64> = blocks.into_iter().collect();
    let mut buf = vec![0u8; blocks.len() * BLOCK_SIZE];
    let mut iov: Vec<(u64, &mut [u8])> =
        blocks.into_iter().zip(buf.chunks_mut(BLOCK_SIZE)).collect();
    disk.try_readv(vt, &mut iov)?;
    Ok(buf)
}

/// Pages per bulk-read submission (1 MiB of buffer): the chunk
/// [`StoreShard::scrub`] verifies at a time, and the chunk region page-in
/// hands to [`StoreShard::read_pages`]. Deep enough that the per-IO setup
/// cost vanishes (256 pages stream in ≈ 0.25 ms on the paper's device,
/// ≈ 1 µs a page against 17 µs at queue depth one), small enough that the
/// buffer does not show in the resident set.
pub const BULK_READ_PAGES: u64 = 256;

/// Which tree a verified read resolves pages through.
#[derive(Clone, Copy)]
enum ReadFrom {
    /// Index into `objects`: the object's current epoch.
    Live(usize),
    /// Index into `snapshots`: the pinned epoch.
    Snapshot(usize),
}

/// Pages one object's overlay may hold before a line-sparse commit takes
/// the full-root path instead (which writes the overlay out and empties
/// it): bounds the memory of an object whose window of line commits keeps
/// touching new pages.
pub const OVERLAY_PAGE_BUDGET: usize = 256;

/// One page of a μCheckpoint as [`StoreShard::persist_batch`] takes it:
/// its index, its whole [`BLOCK_SIZE`] image and — when the committer
/// tracked them — which 64-byte lines changed since the page's previous
/// commit.
pub trait CommitPage {
    /// Page index within the object.
    fn page(&self) -> u64;
    /// The page's whole image.
    fn image(&self) -> &[u8];
    /// Dirty-line mask: bit `i` set means bytes `64·i .. 64·(i+1)` may
    /// differ from the page's previous committed content, and **every
    /// other line is promised unchanged**. Zero means unknown: the page
    /// commits whole.
    fn lines(&self) -> u64;
}

/// A whole page, changed lines unknown.
impl CommitPage for (u64, &[u8]) {
    fn page(&self) -> u64 {
        self.0
    }
    fn image(&self) -> &[u8] {
        self.1
    }
    fn lines(&self) -> u64 {
        0
    }
}

/// A page with its dirty-line mask.
impl CommitPage for (u64, &[u8], u64) {
    fn page(&self) -> u64 {
        self.0
    }
    fn image(&self) -> &[u8] {
        self.1
    }
    fn lines(&self) -> u64 {
        self.2
    }
}

/// Whether `pages` can commit as one line-grain record: every page names
/// its changed lines, pages are distinct (strictly increasing, so replay
/// patches each once) and pairs plus lines fit the record block.
fn line_sparse<P: CommitPage>(pages: &[P]) -> bool {
    !pages.is_empty()
        && pages.iter().all(|p| p.lines() != 0)
        && pages.windows(2).all(|w| w[0].page() < w[1].page())
        && DeltaRecord::inline_len(pages.iter().map(|p| p.lines())) <= BLOCK_SIZE
}

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
}

/// Cumulative statistics for the online scrubber
/// ([`StoreShard::scrub`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ScrubStats {
    /// Leaf pages whose data block was read back and verified against
    /// the digest the radix entry carries.
    pub pages_verified: u64,
    /// Committed radix-node media images read back and verified.
    pub nodes_verified: u64,
    /// Digest mismatches found (data blocks and node media).
    pub corruptions_found: u64,
    /// Corruptions healed: pages re-materialized from a retained
    /// snapshot (or a peer via [`StoreShard::repair_page`]) and
    /// resident nodes rewritten from their clean in-memory copies.
    pub repairs: u64,
    /// Corruptions with no clean local source: quarantined and reported
    /// through [`StoreShard::unrepaired_pages`], awaiting a peer copy.
    pub unrepaired: u64,
    /// Device block reads the scrub spent — its IO budget consumption.
    pub io_spent: u64,
    /// Full passes over the radix forest completed.
    pub passes: u64,
}

/// A corrupt page the scrubber quarantined but could not heal locally
/// (no retained snapshot holds an independent clean copy). Replication
/// drains these into `PageRepairRequest` messages; a peer's clean copy
/// lands through [`StoreShard::repair_page`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnrepairedPage {
    /// Object owning the page.
    pub object: ObjectId,
    /// The corrupt page.
    pub page: u64,
    /// The quarantined block that failed verification.
    pub block: u64,
    /// The digest a clean copy must match, byte for byte.
    pub digest: u32,
    /// Object epoch at detection.
    pub epoch: Epoch,
}

/// CPU cost constants for store operations.
///
/// Calibrated against the paper's Table 5: "Initiating Writes" for a
/// 64 KiB (16-page) μCheckpoint costs 6.5 μs.
mod costs {
    use msnap_sim::Nanos;

    /// Fixed cost of assembling and submitting a μCheckpoint IO.
    pub const INITIATE_BASE: Nanos = Nanos::from_ns(4_000);
    /// Per-page cost: allocation, tree update, iovec entry.
    pub const INITIATE_PER_PAGE: Nanos = Nanos::from_ns(160);
    /// Per-tree-node serialization cost (full commits).
    pub const NODE_SERIALIZE: Nanos = Nanos::from_ns(250);
    /// Cost of a root/delta-slot parse during recovery.
    pub const ROOT_PARSE: Nanos = Nanos::from_ns(400);

    /// Cost of initiating a μCheckpoint of `pages` pages. Charged only
    /// once the commit's blocks are allocated: an attempt that aborts
    /// with `OutOfSpace` (which the broker wrapper re-runs after a
    /// grant) costs no virtual time.
    pub fn initiate(pages: usize) -> Nanos {
        INITIATE_BASE + INITIATE_PER_PAGE * pages as u64
    }
}

struct ObjectState {
    entry: DirEntry,
    /// The object's page index, always current in memory; dirty nodes are
    /// flushed on full commits only.
    tree: RadixTree,
    epoch: Epoch,
    last_commit: Nanos,
    deltas_since_full: u64,
    /// Alternates the full-root slot (consecutive full roots never share
    /// a slot).
    full_count: u64,
    /// Node blocks superseded since the last full commit: recyclable only
    /// after the *next* full root is durable (recovery replays deltas on
    /// top of the previous full root's nodes until then).
    node_freed_pending: Vec<u64>,
    /// Monotone durability frontier: max completion instant over all of
    /// this object's commits. Gates data-block recycling so that recovery
    /// to *any* reachable epoch finds its blocks intact.
    chain_completes: Nanos,
    /// Durability instant of the newest full root. No delta or batch
    /// record is *submitted* before it: epoch `e + 1` reuses the ring
    /// slot of `e − 31`, which recovery still needs until root `e` lands.
    root_durable: Nanos,
    /// Pages whose newest content lives only in line-grain records: page
    /// → (digest, whole patched image). Read before the tree, dropped
    /// per page by a later page-grain commit of it, written out and
    /// emptied by every full root — so trees handed to snapshots, rebase
    /// and GC are always self-contained. Every key's tree path is
    /// hydrated (the commit or replay that inserted it did that).
    overlay: BTreeMap<u64, (u32, Box<[u8]>)>,
}

impl ObjectState {
    /// Object length in pages, overlay included (a line commit past the
    /// tree's end grows the object before any full root maps the page).
    fn len_pages(&self) -> u64 {
        let overlay_end = self.overlay.keys().next_back().map_or(0, |p| p + 1);
        self.tree.len_pages().max(overlay_end)
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
pub struct StoreShard {
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
    /// live entry forces a full-root flush before the slot is reused.
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
    /// Formats one shard's metadata slab at `layout` and returns the
    /// shard with an empty allocator: every block it hands out comes from
    /// a broker grant ([`StoreShard::grant_range`]). The caller settles
    /// the device once all shards are formatted.
    ///
    /// Formatting happens before any workload runs; injecting faults into
    /// it is unsupported, so a device error here is a setup bug and
    /// panics.
    pub(crate) fn format_at(disk: &mut Disk, layout: ShardLayout) -> Self {
        let mut head = [0u8; BLOCK_SIZE];
        head[0..8].copy_from_slice(&SLAB_MAGIC.to_le_bytes());
        disk.write_block_at(Nanos::ZERO, layout.slab_head(), &head)
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
            scrub_stats: ScrubStats::default(),
            unrepaired: Vec::new(),
        }
    }

    /// Opens one shard from its metadata slab at `layout` on a (possibly
    /// crashed) device: adopt each object's newest valid full root, replay
    /// consecutive delta records on top, and rebuild the allocator past
    /// every reachable block.
    ///
    /// Recovery IO is **O(dirty set), not O(object size)**: trees are
    /// adopted as unloaded wrappers around their committed root blocks
    /// (hydrated on first touch), and the allocator frontier comes from
    /// the root records' persisted `high_water` — the bump frontier is
    /// monotone, so the newest durable root of each object covers every
    /// block any earlier commit allocated — raised past each replayed
    /// delta's data blocks. Blocks of *unreplayed* (torn) deltas are
    /// unreferenced garbage and safe to reuse. Retained snapshots are
    /// adopted unloaded too; their pin sets materialize on demand before
    /// the store frees its first block (`ensure_pins`).
    ///
    /// The recovered allocator is range-bounded at its own frontier: it
    /// hands out nothing until the wrapper re-grants the tail of the
    /// frontier's extent from the broker state it recovers across all
    /// shards.
    ///
    /// A line-grain record replays by patching its lines, in epoch order,
    /// over the page's overlay image, else its tree block, else zeroes,
    /// and is accepted only if every patched page matches its pair digest
    /// — otherwise it is a torn candidate exactly as a `payload_sum`
    /// mismatch is (a rotted base block under it truncates the chain
    /// there; the stale bytes are never served).
    ///
    /// Every read is fallible, and the fixed ranges — the slab, each
    /// object's root and delta slots, each replayed delta record's data
    /// extent — are one vectored read apiece, and the base blocks of an
    /// object's whole chain of line-grain pairs are fetched together
    /// before the replay (a base a page-grain pair moved mid-chain is
    /// read when its record replays).
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFormatted`] if the slab magic is missing;
    /// [`StoreError::Io`] if a device read fails (nothing is built; the
    /// device is untouched and the open can simply be retried).
    pub(crate) fn open_at(
        vt: &mut Vt,
        disk: &mut Disk,
        layout: ShardLayout,
    ) -> Result<Self, StoreError> {
        // The slab — magic block, directory, batch ring, snapshot catalog
        // — is one contiguous range: one vectored read.
        let slab = readv_blocks(vt, disk, layout.base..layout.base + SHARD_SLAB_BLOCKS)?;
        let slab_blocks = |start: u64, count: u64| {
            let at = (start - layout.base) as usize * BLOCK_SIZE;
            slab[at..at + count as usize * BLOCK_SIZE].chunks(BLOCK_SIZE)
        };
        let head = &slab[..BLOCK_SIZE];
        if u64::from_le_bytes(head[0..8].try_into().unwrap()) != SLAB_MAGIC {
            return Err(StoreError::NotFormatted);
        }

        let entries: Vec<DirEntry> = slab_blocks(layout.dir_start(), DIR_BLOCKS)
            .flat_map(|block| block.chunks(DIR_ENTRY_LEN))
            .filter_map(DirEntry::decode)
            .collect();

        // Scan the batch ring once: rebuild the next sequence number and
        // the slot occupancy, and bucket each record's groups by object so
        // the per-object replay below can fold them into its delta chain.
        let mut batch_seq = 0u64;
        let mut batch_ring: Vec<Vec<(ObjectId, Epoch)>> = vec![Vec::new(); BATCH_SLOTS as usize];
        let mut batch_groups: HashMap<u32, Vec<DeltaRecord>> = HashMap::new();
        for (slot, block) in slab_blocks(layout.batch_ring_start(), BATCH_SLOTS).enumerate() {
            vt.charge(Category::FileSystem, costs::ROOT_PARSE);
            if let Some(rec) = BatchRecord::from_block(block) {
                batch_seq = batch_seq.max(rec.seq + 1);
                batch_ring[slot] = rec.groups.iter().map(|g| (g.object, g.epoch)).collect();
                for g in rec.groups {
                    batch_groups.entry(g.object.0).or_default().push(g);
                }
            }
        }

        let mut high_water = layout.data_floor;
        let mut objects: Vec<Option<ObjectState>> = Vec::new();
        let mut by_name = HashMap::new();
        for entry in entries {
            high_water = high_water.max(entry.meta_base + OBJECT_META_BLOCKS);

            // The object's metadata — two root slots, then the delta ring
            // — is one contiguous range: one vectored read.
            let meta = readv_blocks(
                vt,
                disk,
                entry.meta_base..entry.meta_base + OBJECT_META_BLOCKS,
            )?;
            let (root_slots, delta_slots) = meta.split_at(2 * BLOCK_SIZE);

            // Newest valid full root.
            let mut base: Option<RootRecord> = None;
            for block in root_slots.chunks(BLOCK_SIZE) {
                vt.charge(Category::FileSystem, costs::ROOT_PARSE);
                if let Some(rec) = RootRecord::from_block(block, entry.id) {
                    // `flush_seq` breaks ties when both slots hold the
                    // *same* epoch: a repair commit rewrites the root at
                    // the current epoch, and recovery must adopt the
                    // repaired (higher-sequence) one.
                    if base.is_none_or(|b| {
                        rec.epoch > b.epoch || (rec.epoch == b.epoch && rec.flush_seq > b.flush_seq)
                    }) {
                        base = Some(rec);
                    }
                }
            }
            let base_epoch = base.map_or(0, |b| b.epoch);
            let mut tree = match base {
                Some(rec) => {
                    RadixTree::from_committed_digest(rec.tree_root, rec.root_digest, rec.len_pages)
                }
                None => RadixTree::new(),
            };

            // Collect valid delta records newer than the base, plus this
            // object's groups from the batch ring (a batched commit is a
            // delta whose record happens to be shared with other objects).
            let mut deltas = Vec::new();
            for block in delta_slots.chunks(BLOCK_SIZE) {
                vt.charge(Category::FileSystem, costs::ROOT_PARSE);
                if let Some(rec) = DeltaRecord::from_block(block, entry.id) {
                    if rec.epoch > base_epoch {
                        deltas.push(rec);
                    }
                }
            }
            for g in batch_groups.remove(&entry.id.0).unwrap_or_default() {
                if g.epoch > base_epoch {
                    deltas.push(g);
                }
            }
            deltas.sort_by_key(|d| d.epoch);
            // Read the chain's bases once: hydrate the path of every page
            // any candidate names, then fetch the blocks its line-grain
            // pairs would patch — as the base root maps them — in vectored
            // reads of up to `BULK_READ_PAGES`, instead of one short read
            // per record. A rotted node is left for the replay loop to
            // meet at the record it truncates.
            let mut fetched: Vec<u64> = Vec::new();
            for (page, word) in deltas.iter().flat_map(|d| &d.pairs) {
                match tree.hydrate_path(*page, &mut |b, out| disk.try_readv(vt, &mut [(b, out)])) {
                    Ok(()) if layout::unpack_entry(*word).0 == INLINE_BLOCK => {
                        fetched.extend(tree.get(*page));
                    }
                    Ok(()) | Err(TreeError::CorruptNode { .. }) => {}
                    Err(TreeError::Io(e)) => return Err(e.into()),
                }
            }
            fetched.sort_unstable();
            fetched.dedup();
            let mut fetched_images = Vec::with_capacity(fetched.len() * BLOCK_SIZE);
            for chunk in fetched.chunks(BULK_READ_PAGES as usize) {
                fetched_images.extend(readv_blocks(vt, disk, chunk.iter().copied())?);
            }
            let prefetched = |block: u64| {
                let at = fetched.binary_search(&block).ok()? * BLOCK_SIZE;
                Some(&fetched_images[at..at + BLOCK_SIZE])
            };
            // Replay the consecutive prefix. Each record's data extent is
            // re-read and checked against the record's `payload_sum`
            // before the commit is applied: a record can be durable while
            // its data was torn or bit-flipped (the device "lied"), and
            // the checksum is what keeps such a commit — and everything
            // after it — out of the recovered prefix. With the batch ring
            // a *stale* record (a truncated-future epoch whose slot was
            // not yet reused) can share an epoch with the live chain, so
            // every candidate at the next epoch is tried and the first
            // one whose payload verifies extends the prefix.
            let mut epoch = base_epoch;
            let mut overlay: BTreeMap<u64, (u32, Box<[u8]>)> = BTreeMap::new();
            let mut i = 0;
            while i < deltas.len() {
                if deltas[i].epoch != epoch + 1 {
                    // Past the chain tip (or a duplicate of an epoch that
                    // already verified): skip candidates until the chain
                    // either extends or provably ends.
                    if deltas[i].epoch <= epoch {
                        i += 1;
                        continue;
                    }
                    break;
                }
                let delta = &deltas[i];
                i += 1;
                let Some(inline_lines) = delta.inline_lines() else {
                    continue; // an inline pair without its lines (a batch group never has one)
                };
                let extent = readv_blocks(
                    vt,
                    disk,
                    delta
                        .pairs
                        .iter()
                        .map(|(_, word)| layout::unpack_entry(*word).0)
                        .filter(|b| *b != INLINE_BLOCK),
                )?;
                let mut sum = layout::FNV_OFFSET;
                let mut digests = Vec::with_capacity(delta.pairs.len());
                for block in extent.chunks(BLOCK_SIZE) {
                    sum = layout::fnv1a_extend(sum, block);
                    digests.push(layout::digest32(block));
                }
                if sum != delta.payload_sum {
                    // A torn candidate: another record of the same epoch
                    // (if any) may still verify, so only this candidate is
                    // rejected, not the whole tail.
                    continue;
                }
                // Replay hydrates only the touched paths. Hydration now
                // verifies node digests, so a rotted node under the base
                // root truncates the chain here (crash-atomically, before
                // any of this delta's pairs apply) instead of panicking —
                // scrub surfaces the rot afterwards.
                let mut meta_ok = true;
                for (page, _) in &delta.pairs {
                    match tree
                        .hydrate_path(*page, &mut |b, out| disk.try_readv(vt, &mut [(b, out)]))
                    {
                        Ok(()) => {}
                        Err(TreeError::Io(e)) => return Err(e.into()),
                        Err(TreeError::CorruptNode { .. }) => {
                            meta_ok = false;
                            break;
                        }
                    }
                }
                if !meta_ok {
                    break;
                }
                // Line-grain pairs: take each base block from the prefetch
                // (pages the overlay already holds need none; a page a
                // page-grain pair moved since is read here, in one
                // vectored read), then patch and check each against its
                // pair digest. Nothing is applied until every page of the
                // record verifies.
                let inline: Vec<(u64, u32)> = delta
                    .pairs
                    .iter()
                    .map(|(page, word)| (*page, layout::unpack_entry(*word)))
                    .filter(|(_, (block, _))| *block == INLINE_BLOCK)
                    .map(|(page, (_, digest))| (page, digest))
                    .collect();
                let bases: Vec<Option<u64>> = inline
                    .iter()
                    .map(|(page, _)| tree.get(*page).filter(|_| !overlay.contains_key(page)))
                    .collect();
                let moved = bases.iter().flatten().filter(|b| prefetched(**b).is_none());
                let moved_images = readv_blocks(vt, disk, moved.copied())?;
                let mut moved_images = moved_images.chunks(BLOCK_SIZE);
                let mut patched = Vec::with_capacity(inline.len());
                for (((page, digest), (mask, bytes)), base) in
                    inline.iter().zip(inline_lines).zip(bases)
                {
                    let mut image: Box<[u8]> = match (overlay.get(page), base) {
                        (Some((_, image)), _) => image.clone(),
                        (None, Some(block)) => prefetched(block)
                            .or_else(|| moved_images.next())
                            .expect("one image per base")
                            .into(),
                        (None, None) => vec![0u8; BLOCK_SIZE].into(),
                    };
                    lines::scatter(&mut image, &lines::line_runs(mask), bytes)
                        .expect("inline_lines sized the bytes to the mask");
                    if layout::digest32(&image) == *digest {
                        patched.push((*digest, image));
                    }
                }
                if patched.len() != inline.len() {
                    continue; // torn, stale, or over a rotted base
                }
                let (mut digests, mut patched) = (digests.into_iter(), patched.into_iter());
                for (page, word) in &delta.pairs {
                    let (block, _) = layout::unpack_entry(*word);
                    if block == INLINE_BLOCK {
                        overlay.insert(*page, patched.next().expect("one per inline pair"));
                        continue;
                    }
                    // The payload checksum above just verified the data,
                    // so the freshly computed digest is authoritative.
                    let digest = digests.next().expect("one per data block");
                    tree.set_entry(*page, block, digest);
                    overlay.remove(page);
                    high_water = high_water.max(block + 1);
                }
                epoch = delta.epoch;
            }
            let _ = tree.take_freed();

            // The newest durable root's `high_water` is the allocator
            // frontier as of that commit; the frontier is monotone, so it
            // covers every data and node block any earlier commit of any
            // object allocated. No tree walk needed.
            if let Some(rec) = base {
                high_water = high_water.max(rec.high_water).max(rec.tree_root + 1);
            }

            let idx = entry.id.0 as usize;
            if objects.len() <= idx {
                objects.resize_with(idx + 1, || None);
            }
            by_name.insert(entry.name.clone(), entry.id);
            objects[idx] = Some(ObjectState {
                entry,
                tree,
                epoch,
                last_commit: Nanos::ZERO,
                deltas_since_full: epoch - base_epoch,
                full_count: base.map_or(0, |b| b.flush_seq),
                node_freed_pending: Vec::new(),
                chain_completes: Nanos::ZERO,
                root_durable: Nanos::ZERO,
                overlay,
            });
        }

        let objects: Vec<ObjectState> = objects
            .into_iter()
            .map(|o| o.expect("directory ids are dense"))
            .collect();

        // Snapshot catalog: adopt the valid slot with the highest seq (a
        // torn catalog write leaves the previous catalog intact). Trees
        // are adopted unloaded — pin sets materialize on demand (see
        // `ensure_pins`) before anything is freed. Pinned blocks need no
        // frontier adjustment here: every snapshot block was allocated at
        // or before its object's root flush, so the newest durable roots'
        // monotone `high_water` already covers them.
        let mut catalog: Option<SnapCatalog> = None;
        for block in slab_blocks(layout.snap_catalog_start(), SNAP_CATALOG_SLOTS) {
            vt.charge(Category::FileSystem, costs::ROOT_PARSE);
            if let Some(cat) = SnapCatalog::from_block(block) {
                if catalog.as_ref().is_none_or(|c| cat.seq > c.seq) {
                    catalog = Some(cat);
                }
            }
        }
        let catalog = catalog.unwrap_or_default();
        let snap_seq = if catalog.entries.is_empty() && catalog.seq == 0 {
            0
        } else {
            catalog.seq + 1
        };
        let mut snapshots = Vec::with_capacity(catalog.entries.len());
        let mut snap_by_name = HashMap::new();
        for entry in catalog.entries {
            if entry.object.0 as usize >= objects.len() {
                continue; // catalog can never outrun the directory
            }
            high_water = high_water.max(entry.tree_root + 1);
            let tree = RadixTree::from_committed_digest(
                entry.tree_root,
                entry.root_digest,
                entry.len_pages,
            );
            snap_by_name.insert(entry.name.clone(), snapshots.len());
            snapshots.push(SnapState {
                entry,
                tree,
                blocks: Vec::new(),
                pinned: false,
            });
        }
        let pins_ready = snapshots.is_empty();

        Ok(StoreShard {
            layout,
            alloc: BlockAllocator::bounded(high_water, high_water),
            objects,
            by_name,
            pending_free: BinaryHeap::new(),
            snapshots,
            snap_by_name,
            pins_ready,
            snap_seq,
            snap_pins: HashMap::new(),
            withheld: HashSet::new(),
            batch_ring,
            batch_seq,
            stats: StoreStats::default(),
            delta_commits: true,
            cache: BlockCache::new(DEFAULT_CACHE_BLOCKS),
            quarantined: HashSet::new(),
            scrub_cursor: (0, 0),
            scrub_verified: HashSet::new(),
            scrub_stats: ScrubStats::default(),
            unrepaired: Vec::new(),
        })
    }

    /// Creates a new empty object named `name`.
    ///
    /// The directory update is synchronous: once `create` returns, the
    /// object exists after a crash.
    ///
    /// # Errors
    ///
    /// [`StoreError::Exists`], [`StoreError::NameTooLong`],
    /// [`StoreError::TooManyObjects`], [`StoreError::OutOfSpace`], or —
    /// if the directory block's read fails, or its write fails after
    /// retries — [`StoreError::Io`]. On error the store is unchanged and
    /// no blocks are leaked.
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
        self.objects.push(ObjectState {
            entry: entry.clone(),
            tree: RadixTree::new(),
            epoch: 0,
            last_commit: Nanos::ZERO,
            deltas_since_full: 0,
            full_count: 0,
            node_freed_pending: Vec::new(),
            chain_completes: Nanos::ZERO,
            root_durable: Nanos::ZERO,
            overlay: BTreeMap::new(),
        });
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

    /// Resizes the block cache to `blocks` 4 KiB slots, dropping current
    /// contents. Zero disables caching (every read goes to the device).
    pub fn set_cache_capacity(&mut self, blocks: usize) {
        self.cache = BlockCache::new(blocks);
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

    /// Commits a μCheckpoint: durably persists `pages` (page-index, page
    /// image) into `object` as one atomic epoch — the one-group case of
    /// [`StoreShard::persist_batch`].
    ///
    /// The call charges the *CPU* cost of initiating the writes and
    /// returns without blocking; the returned token carries the
    /// completion instant. Synchronous callers follow with
    /// [`StoreShard::wait`].
    ///
    /// # Errors
    ///
    /// See [`StoreShard::persist_batch`].
    ///
    /// # Panics
    ///
    /// Panics if any page image is not exactly [`BLOCK_SIZE`] bytes.
    pub fn persist(
        &mut self,
        vt: &mut Vt,
        disk: &mut Disk,
        object: ObjectId,
        pages: &[(u64, &[u8])],
    ) -> Result<CommitToken, StoreError> {
        Ok(self.persist_batch(vt, disk, &[(object, pages)])?[0])
    }

    /// Shared full-commit core: COW-sets `pages` into the tree at
    /// `epoch`, flushes every dirty node, writes data + nodes as one
    /// extent followed by a full root record, and updates all commit
    /// state. `epoch` may equal the object's current epoch (a data-less
    /// root flush) or jump ahead of it (replica image application); the
    /// root record is the single commit point either way. `initiate` is
    /// the caller's initiation cost, charged once every allocation has
    /// succeeded (see `costs::initiate`).
    ///
    /// Every full root is self-contained: the overlay's pages are written
    /// out as data blocks beside `pages` (which win where both name a
    /// page) and the overlay is emptied, so no tree a snapshot, rebase, GC
    /// or a reused ring slot ever sees depends on a line record.
    ///
    /// On error the tree, overlay and allocator are restored; nothing
    /// leaks.
    fn full_commit(
        &mut self,
        vt: &mut Vt,
        disk: &mut Disk,
        object: ObjectId,
        pages: &[(u64, &[u8])],
        epoch: Epoch,
        initiate: Nanos,
    ) -> Result<CommitToken, StoreError> {
        let alloc_snapshot = self.alloc.clone();
        let state = &mut self.objects[object.0 as usize];
        // The tree must be mutated *before* the IO (node images are
        // serialized from it), so abort restores a pre-commit clone. Full
        // commits are the rare path (every DELTA_SLOTS-th commit,
        // oversized commits, snapshot/image flushes), which keeps the
        // clone cost amortized.
        let tree_snapshot = state.tree.clone();

        // The overlay pages this root writes out: all but those `pages`
        // supersedes.
        let mut flushed: Vec<(u64, u32, &[u8])> = Vec::new();
        if !state.overlay.is_empty() {
            let own: HashSet<u64> = pages.iter().map(|(page, _)| *page).collect();
            let kept = state.overlay.iter().filter(|(page, _)| !own.contains(page));
            flushed.extend(kept.map(|(page, (digest, image))| (*page, *digest, &image[..])));
        }
        let Some(data_blocks) = self
            .alloc
            .alloc_extent((pages.len() + flushed.len()) as u64)
        else {
            return Err(StoreError::OutOfSpace);
        };
        let mut iov: Vec<(u64, &[u8])> = Vec::with_capacity(data_blocks.len() + 8);
        let mut data_freed = Vec::new();
        let own = pages
            .iter()
            .map(|(page, data)| (*page, layout::digest32(data), *data));
        for ((page, digest, data), block) in own.chain(flushed.iter().copied()).zip(data_blocks) {
            iov.push((block, data));
            if let Some(old) = state.tree.set_entry(page, block, digest) {
                data_freed.push(old);
            }
        }
        // The commit closure cannot fail, so allocator exhaustion is
        // flagged and handed out of never-written scratch blocks, then
        // the whole commit aborts.
        let mut exhausted = false;
        let mut scratch = SCRATCH_BLOCK_BASE;
        let mut node_writes = Vec::new();
        let tree_root = state.tree.commit(
            &mut || match self.alloc.alloc() {
                Some(b) => b,
                None => {
                    exhausted = true;
                    scratch += 1;
                    scratch
                }
            },
            &mut node_writes,
        );
        if exhausted {
            state.tree = tree_snapshot;
            self.alloc = alloc_snapshot;
            return Err(StoreError::OutOfSpace);
        }
        vt.charge(Category::FileSystem, initiate);
        vt.charge(
            Category::FileSystem,
            costs::INITIATE_PER_PAGE * flushed.len() as u64
                + costs::NODE_SERIALIZE * node_writes.len() as u64,
        );
        for (block, image) in &node_writes {
            iov.push((*block, image));
        }
        let record = RootRecord {
            object,
            epoch,
            tree_root,
            len_pages: state.tree.len_pages(),
            // The bump frontier *after* this commit's allocations: at
            // recovery the newest durable root's frontier covers every
            // block any earlier commit allocated, which is what lets
            // `open` skip the O(object) tree walk.
            high_water: self.alloc.high_water(),
            root_digest: state.tree.committed_root_digest(),
            flush_seq: state.full_count + 1,
        };
        let slot = state.entry.root_slot(state.full_count + 1);
        let cache = &mut self.cache;
        let token = (|| {
            let record_at = if iov.is_empty() {
                vt.now()
            } else {
                writev_retry(disk, vt.now(), &iov, cache)?.completes()
            };
            writev_retry(disk, record_at, &[(slot, &record.to_block())], cache)
        })();
        let token = match token {
            Ok(t) => t,
            Err(e) => {
                state.tree = tree_snapshot;
                self.alloc = alloc_snapshot;
                return Err(e.into());
            }
        };
        let data_written = (pages.len() + flushed.len()) as u64;
        self.stats.overlay_pages_flushed += flushed.len() as u64;
        self.stats.pages_written += flushed.len() as u64;
        state.overlay.clear();
        state.full_count += 1;
        // Everything superseded up to and including this full root is
        // recyclable once it is durable.
        data_freed.append(&mut state.node_freed_pending);
        data_freed.extend(state.tree.take_freed());
        state.deltas_since_full = 0;
        state.epoch = epoch;
        state.root_durable = token.completes();
        state.chain_completes = state.chain_completes.max(token.completes());
        state.last_commit = state.chain_completes;
        self.pending_free
            .push(Reverse((state.chain_completes, data_freed)));
        self.stats.nodes_written += node_writes.len() as u64;

        Ok(CommitToken {
            epoch,
            completes: state.chain_completes,
            bytes_written: (data_written + node_writes.len() as u64 + 1) * BLOCK_SIZE as u64,
        })
    }

    /// The one atomic shard commit: durably persists every group's pages
    /// into its object, each as one epoch, all of them or none.
    ///
    /// A **single group** commits as a data extent plus a [`DeltaRecord`]
    /// in the object's own ring — or, when it is oversized or the
    /// object's delta window is full, as a full root that first flushes
    /// the COW tree's dirty nodes. When every page of the group names its
    /// changed lines ([`CommitPage::lines`]) and they fit the record
    /// block, the record carries the lines and is the commit's **only
    /// write**: no data block is allocated, and the patched pages wait in
    /// the object's overlay for the next full root (forced early if the
    /// overlay would outgrow [`OVERLAY_PAGE_BUDGET`]). A zero mask, a
    /// line too many or more than [`MAX_DELTA_PAIRS`] pages each fall back
    /// to whole pages. **Several groups** (the group-commit
    /// path) commit as one contiguous data extent covering every group's
    /// pages followed by one [`BatchRecord`] carrying each object's
    /// `(page, block)` pairs and per-object payload checksum:
    /// `INITIATE_BASE` and the commit-record IO are paid once for the
    /// whole batch instead of once per object. Each group still commits
    /// its own epoch and gets its own [`CommitToken`] (all sharing the
    /// batch's completion instant), and recovery truncation stays
    /// per-object: a torn extent segment only truncates the chains of
    /// the objects whose payload it corrupts.
    ///
    /// Two ordering rules hold for every record written here. No delta
    /// or batch record is submitted before its objects' newest full roots
    /// are durable (its ring slot may be the one recovery still needs
    /// until then), and a commit's [`CommitToken::completes`] is never
    /// earlier than its predecessor's, so an acknowledged commit always
    /// has a durable prefix under it.
    ///
    /// Nothing is split here. A commit that spans shards or outgrows one
    /// record is split by [`crate::ObjectStore::persist_batch`], the only
    /// splitter, into calls of this function.
    ///
    /// # Errors
    ///
    /// [`StoreError::OutOfSpace`] when the extent (or the tree-node
    /// blocks of a full commit) cannot be allocated, and
    /// [`StoreError::Io`] when a device write fails after
    /// [`MAX_IO_ATTEMPTS`] bounded retries of transient faults. Either
    /// way the commit aborts *cleanly*: every object stays at its
    /// previous epoch, the in-memory trees are unchanged, and every block
    /// the attempt allocated is returned to the allocator — a failed
    /// commit leaks nothing and the caller may simply retry.
    ///
    /// # Panics
    ///
    /// Panics unless `groups` is one group, or several non-empty groups
    /// of distinct objects whose pairs fit one [`BatchRecord`] block; or
    /// if a page image is not exactly [`BLOCK_SIZE`] bytes.
    pub fn persist_batch<P: CommitPage>(
        &mut self,
        vt: &mut Vt,
        disk: &mut Disk,
        groups: &[(ObjectId, &[P])],
    ) -> Result<Vec<CommitToken>, StoreError> {
        // Recycle blocks whose gating instant has passed. This is
        // commit-independent maintenance: it stays applied even if this
        // commit aborts. Pins must be materialized before anything is
        // freed.
        self.ensure_pins(vt, disk)?;
        self.recycle_pending(vt.now());
        let shared = groups.len() != 1;
        if shared {
            assert!(
                groups.len() > 1 && BatchRecord::fits(groups.iter().map(|(_, p)| p.len())),
                "one group, or several that fit one batch record"
            );
            let mut seen: Vec<u32> = groups.iter().map(|(o, _)| o.0).collect();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), groups.len(), "one group per object");
            assert!(
                groups.iter().all(|(_, p)| !p.is_empty()),
                "batched groups carry at least one page"
            );
        }

        // Demand-load every tree path this commit will touch *before* any
        // allocation or mutation: a failed node read aborts with every
        // object untouched.
        for (object, pages) in groups {
            self.hydrate_object_paths(vt, disk, *object, pages.iter().map(|p| p.page()))?;
        }

        let total_pages: usize = groups.iter().map(|(_, p)| p.len()).sum();
        let ring_slot = self.batch_seq % BATCH_SLOTS;
        if shared {
            // Maintenance before the batch proper, charged to the
            // submitter and kept even if the batch later aborts (like
            // block recycling): any object whose chain would outgrow its
            // delta window, and any object still live in the ring slot
            // this batch is about to overwrite, first flushes a full root.
            for (object, _) in groups {
                let state = &self.objects[object.0 as usize];
                if state.deltas_since_full + 1 >= DELTA_SLOTS {
                    self.flush_full_root(vt, disk, *object)?;
                }
            }
            for (object, epoch) in self.batch_ring[ring_slot as usize].clone() {
                let state = &self.objects[object.0 as usize];
                if epoch > state.epoch - state.deltas_since_full {
                    self.flush_full_root(vt, disk, object)?;
                }
            }
        }
        let inline = !shared && self.delta_commits && line_sparse(groups[0].1);
        if !shared {
            let (object, pages) = groups[0];
            let state = &self.objects[object.0 as usize];
            if !self.delta_commits
                || pages.len() > MAX_DELTA_PAIRS
                || state.deltas_since_full + 1 >= DELTA_SLOTS
                || (inline && state.overlay.len() + pages.len() > OVERLAY_PAGE_BUDGET)
            {
                // Slow path: flush dirty COW nodes and write a full root.
                let (epoch, initiate) = (state.epoch + 1, costs::initiate(total_pages));
                let pages: Vec<(u64, &[u8])> =
                    pages.iter().map(|p| (p.page(), p.image())).collect();
                let token = self.full_commit(vt, disk, object, &pages, epoch, initiate)?;
                self.stats.commits += 1;
                self.stats.pages_written += total_pages as u64;
                return Ok(vec![token]);
            }
        }

        // Fast path: data extent + one commit record — or, line-grain,
        // the record alone. The in-memory trees and overlays are not
        // touched until the writes succeed, so aborting only needs the
        // allocator snapshot — cheap to clone (a bump pointer plus the
        // free set), and restoring it un-does every allocation of an
        // aborted commit in one move; a line-grain commit allocates
        // nothing and takes none. Dirty tree nodes stay in memory; their
        // superseded on-disk versions wait for the next full root.
        let data_pages = if inline { 0 } else { total_pages };
        let alloc_snapshot = (data_pages > 0).then(|| self.alloc.clone());
        let Some(blocks) = self.alloc.alloc_extent(data_pages as u64) else {
            return Err(StoreError::OutOfSpace);
        };
        // One initiation charge for the whole commit: this is the
        // amortization that group commit buys.
        vt.charge(Category::FileSystem, costs::initiate(total_pages));
        let mut iov: Vec<(u64, &[u8])> = Vec::with_capacity(data_pages);
        let mut staged = Vec::with_capacity(groups.len());
        // The line-grain group's whole patched pages, in pair order.
        let mut patched: Vec<Box<[u8]>> = Vec::new();
        let mut blocks = blocks.into_iter();
        let mut root_gate = Nanos::ZERO;
        for (object, pages) in groups {
            let state = &self.objects[object.0 as usize];
            root_gate = root_gate.max(state.root_durable);
            let len_pages = pages
                .iter()
                .map(|p| p.page() + 1)
                .fold(state.len_pages(), u64::max);
            let mut pairs = Vec::with_capacity(pages.len());
            let mut payload_sum = layout::FNV_OFFSET;
            let mut body = Vec::new();
            for p in *pages {
                // Pair words carry the page digest in their high half, so
                // the existing record checksum covers it.
                if inline {
                    // The patched page is the overlay's image with the
                    // lines applied; a page the overlay does not hold yet
                    // enters it whole, on the caller's promise that its
                    // other lines are the committed ones.
                    let runs = lines::line_runs(p.lines());
                    body.extend_from_slice(&p.lines().to_le_bytes());
                    let at = body.len();
                    lines::gather(p.image(), &runs, &mut body);
                    let image: Box<[u8]> = match state.overlay.get(&p.page()) {
                        Some((_, prev)) => {
                            let mut image = prev.clone();
                            lines::scatter(&mut image, &runs, &body[at..])
                                .expect("gather wrote exactly the runs");
                            image
                        }
                        None => p.image().into(),
                    };
                    let word = layout::pack_entry(INLINE_BLOCK, layout::digest32(&image));
                    pairs.push((p.page(), word));
                    patched.push(image);
                    continue;
                }
                let block = blocks.next().expect("one block per data page");
                let word = layout::pack_entry(block, layout::digest32(p.image()));
                pairs.push((p.page(), word));
                iov.push((block, p.image()));
                payload_sum = layout::fnv1a_extend(payload_sum, p.image());
            }
            staged.push(DeltaRecord {
                object: *object,
                epoch: state.epoch + 1,
                len_pages,
                payload_sum,
                pairs,
                body,
            });
        }
        // The commit record: the object's own delta slot, or a shared
        // batch-ring slot.
        let (record_block, record) = if shared {
            let record = BatchRecord {
                seq: self.batch_seq,
                groups: staged,
            };
            let image = record.to_block();
            staged = record.groups;
            (self.layout.batch_ring_start() + ring_slot, image)
        } else {
            let delta = &staged[0];
            let entry = &self.objects[delta.object.0 as usize].entry;
            (entry.delta_slot(delta.epoch), delta.to_block())
        };
        let cache = &mut self.cache;
        let token = (|| {
            let data_done = if inline {
                vt.now()
            } else {
                writev_retry(disk, vt.now(), &iov, cache)?.completes()
            };
            let record_at = data_done.max(root_gate);
            writev_retry(disk, record_at, &[(record_block, &record)], cache)
        })();
        let token = match token {
            Ok(t) => t,
            Err(e) => {
                if let Some(snapshot) = alloc_snapshot {
                    self.alloc = snapshot;
                }
                return Err(e.into());
            }
        };

        // Durable: apply every group to its in-memory tree. Superseded
        // data blocks are still referenced by older records in the rings
        // (recovery re-reads them to verify `payload_sum`), so like
        // superseded nodes they are quarantined until the next full root
        // supersedes the whole window — never recycled early.
        let mut tokens = Vec::with_capacity(staged.len());
        let mut patched = patched.into_iter();
        for g in &staged {
            let state = &mut self.objects[g.object.0 as usize];
            for (page, word) in &g.pairs {
                let (block, digest) = layout::unpack_entry(*word);
                if inline {
                    let image = patched.next().expect("one image per inline pair");
                    state.overlay.insert(*page, (digest, image));
                    continue;
                }
                // A whole page supersedes whatever the records held.
                state.overlay.remove(page);
                if let Some(old) = state.tree.set_entry(*page, block, digest) {
                    state.node_freed_pending.push(old);
                }
            }
            state.node_freed_pending.extend(state.tree.take_freed());
            state.deltas_since_full += 1;
            state.epoch = g.epoch;
            state.chain_completes = state.chain_completes.max(token.completes());
            state.last_commit = state.chain_completes;
            let data_blocks = if inline { 0 } else { g.pairs.len() as u64 };
            tokens.push(CommitToken {
                epoch: g.epoch,
                // The record block is shared; attribute it to the first
                // participant so batch bytes sum correctly.
                bytes_written: (data_blocks + u64::from(tokens.is_empty())) * BLOCK_SIZE as u64,
                completes: state.chain_completes,
            });
        }
        if shared {
            disk.note_merged(staged.len() as u64);
            self.batch_ring[ring_slot as usize] =
                staged.iter().map(|g| (g.object, g.epoch)).collect();
            self.batch_seq += 1;
            self.stats.batch_commits += 1;
            self.stats.batched_objects += staged.len() as u64;
        }
        if inline {
            self.stats.line_commits += 1;
            self.stats.line_bytes += (staged[0].body.len() - 8 * staged[0].pairs.len()) as u64;
        }
        self.stats.commits += staged.len() as u64;
        self.stats.delta_commits += staged.len() as u64;
        self.stats.pages_written += data_pages as u64;
        Ok(tokens)
    }

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
    fn ensure_pins(&mut self, vt: &mut Vt, disk: &mut Disk) -> Result<(), StoreError> {
        if self.pins_ready {
            return Ok(());
        }
        for i in 0..self.snapshots.len() {
            if self.snapshots[i].pinned {
                continue;
            }
            let blocks = {
                let snap = &mut self.snapshots[i];
                let cache = &mut self.cache;
                let stats = &mut self.stats;
                snap.tree.reachable_blocks_with(&mut |b, out| {
                    read_block_cached(vt, disk, cache, stats, b, out, true)
                })?
            };
            for &b in &blocks {
                *self.snap_pins.entry(b).or_insert(0) += 1;
            }
            let snap = &mut self.snapshots[i];
            snap.blocks = blocks;
            snap.pinned = true;
        }
        self.pins_ready = true;
        Ok(())
    }

    /// Demand-loads the tree paths `pages` will touch, before any commit
    /// mutation: a failed node read surfaces here, with the tree, cache,
    /// and allocator all unchanged.
    fn hydrate_object_paths(
        &mut self,
        vt: &mut Vt,
        disk: &mut Disk,
        object: ObjectId,
        pages: impl Iterator<Item = u64>,
    ) -> Result<(), StoreError> {
        let state = &mut self.objects[object.0 as usize];
        let cache = &mut self.cache;
        let stats = &mut self.stats;
        for page in pages {
            state.tree.hydrate_path(page, &mut |b, out| {
                read_block_cached(vt, disk, cache, stats, b, out, true)
            })?;
        }
        Ok(())
    }

    /// Pops every `pending_free` entry whose gating instant has passed.
    /// Blocks pinned by a retained snapshot are **withheld** rather than
    /// freed — they return to the allocator only when their last pin
    /// drops — so pinned epochs survive the full-root flushes that would
    /// otherwise recycle their superseded blocks.
    fn recycle_pending(&mut self, now: Nanos) {
        while let Some(Reverse((gate, _))) = self.pending_free.peek() {
            if *gate > now {
                break;
            }
            let Reverse((_, blocks)) = self.pending_free.pop().expect("peeked entry exists");
            for b in blocks {
                if self.quarantined.contains(&b) {
                    // Rotted media: never recycled, never served again.
                } else if self.snap_pins.contains_key(&b) {
                    self.withheld.insert(b);
                } else {
                    self.alloc.free(b);
                }
            }
        }
    }

    /// Flushes `object`'s COW tree and writes a full root at its
    /// *current* epoch (no data, no epoch advance). This supersedes every
    /// delta and batch record of the object, freeing its delta window and
    /// releasing its claim on batch-ring slots.
    ///
    /// On error the tree and allocator are restored; nothing leaks.
    fn flush_full_root(
        &mut self,
        vt: &mut Vt,
        disk: &mut Disk,
        object: ObjectId,
    ) -> Result<(), StoreError> {
        let epoch = self.objects[object.0 as usize].epoch;
        self.full_commit(vt, disk, object, &[], epoch, Nanos::ZERO)?;
        Ok(())
    }

    /// Pins `object`'s current epoch as the named, persisted snapshot and
    /// returns the pinned epoch.
    ///
    /// The call first flushes a full root (so the pinned tree is wholly
    /// durable — the flush writes only *dirty* nodes, so snapshot cost is
    /// O(dirty set), not O(object size)), pins every block the tree
    /// reaches, and appends the snapshot to the catalog with a
    /// crash-atomic dual-slot write ordered after the root is durable: a
    /// crash mid-call leaves either no snapshot or a complete one. The
    /// snapshot shares all blocks with the live tree (COW); subsequent
    /// commits diverge from it without copying.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`], [`StoreError::NameTooLong`],
    /// [`StoreError::SnapshotExists`], [`StoreError::TooManySnapshots`],
    /// [`StoreError::OutOfSpace`], or [`StoreError::Io`]. On error the
    /// store is unchanged (a durable root flush may remain — harmless
    /// maintenance).
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
        // Hydrate the live tree before cloning so the pin enumeration
        // below is infallible and the snapshot shares every resident
        // node with the live tree (the clone itself is O(1)).
        {
            let state = &mut self.objects[object.0 as usize];
            let cache = &mut self.cache;
            let stats = &mut self.stats;
            state.tree.hydrate_all(&mut |b, out| {
                read_block_cached(vt, disk, cache, stats, b, out, true)
            })?;
        }
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
        let blocks = tree.reachable_blocks();
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

    /// Drops the named snapshot: rewrites the catalog without it
    /// (crash-atomically) and releases its pins. Withheld blocks whose
    /// last pin drops return to the allocator immediately.
    ///
    /// # Errors
    ///
    /// [`StoreError::SnapshotNotFound`], or [`StoreError::Io`] if the
    /// catalog write fails (the snapshot is then still retained).
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

    /// Reads one page of the named snapshot — the object's image as of
    /// the pinned epoch, regardless of anything committed since. Pages
    /// unwritten at that epoch read as zeroes.
    ///
    /// The snapshot is looked up by name in O(1), its tree hydrates on
    /// demand (only the touched path), and both node and data reads go
    /// through the block cache.
    ///
    /// # Errors
    ///
    /// [`StoreError::SnapshotNotFound`], or [`StoreError::Io`] if a
    /// demand-load read fails (the tree is left unpoisoned; retry after
    /// the fault clears).
    pub fn read_page_at(
        &mut self,
        vt: &mut Vt,
        disk: &mut Disk,
        name: &str,
        page: u64,
        out: &mut [u8],
    ) -> Result<(), StoreError> {
        let from = self.pinned(name)?;
        self.read_verified(vt, disk, from, page, out, true)
    }

    /// The read source naming the retained snapshot `name`.
    fn pinned(&self, name: &str) -> Result<ReadFrom, StoreError> {
        let idx = self.snap_by_name.get(name);
        idx.map(|&i| ReadFrom::Snapshot(i))
            .ok_or(StoreError::SnapshotNotFound)
    }

    /// [`StoreShard::read_pages`] of the named snapshot: pages
    /// `first_page .. first_page + n` as of the pinned epoch, one
    /// vectored, digest-verified device read for those not cached, none
    /// admitted to the cache.
    ///
    /// # Errors
    ///
    /// [`StoreError::SnapshotNotFound`]; otherwise as
    /// [`StoreShard::read_pages`], `sink` contract included.
    pub fn read_pages_at(
        &mut self,
        vt: &mut Vt,
        disk: &mut Disk,
        name: &str,
        first_page: u64,
        n: u64,
        sink: &mut dyn FnMut(u64, &[u8]),
    ) -> Result<(), StoreError> {
        let from = self.pinned(name)?;
        self.read_bulk(vt, disk, from, first_page, n, sink)
    }

    /// Pages that differ between two retained snapshots of the same
    /// object (in page order): the incremental delta a replica at
    /// `base`'s epoch needs to reach `target`'s. Shared COW subtrees are
    /// skipped without descent — and, for trees adopted unloaded by
    /// `open`, **without hydration**: equal committed block numbers on
    /// both sides imply identical subtrees (the COW invariant), so only
    /// divergent regions are demand-loaded. The walk is proportional to
    /// the changed region, not the object size. `base = None` diffs
    /// against the empty image (the full-sync fallback).
    ///
    /// # Errors
    ///
    /// [`StoreError::SnapshotNotFound`],
    /// [`StoreError::SnapshotMismatch`] if the snapshots belong to
    /// different objects, or [`StoreError::Io`] if a demand-load read of
    /// a divergent subtree fails (the trees stay unpoisoned; retry).
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
        let cache = &mut self.cache;
        let stats = &mut self.stats;
        let pairs = RadixTree::diff_pages_with(base_tree, target_tree, &mut |b, out| {
            read_block_cached(vt, disk, cache, stats, b, out, true)
        })?;
        Ok(pairs.into_iter().map(|(page, _)| page).collect())
    }

    /// Replica-side commit: applies `pages` as one crash-atomic full
    /// image landing exactly at `target_epoch` (which must be ahead of
    /// the object's current epoch — full roots, unlike delta records,
    /// may jump epochs). The root-record write is the single commit
    /// point, so a crash anywhere during the apply recovers the replica
    /// at exactly its previous epoch or exactly `target_epoch`, never
    /// between.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`], [`StoreError::StaleEpoch`],
    /// [`StoreError::OutOfSpace`], or [`StoreError::Io`]. On error the
    /// replica stays at its previous epoch and nothing leaks.
    pub fn apply_image(
        &mut self,
        vt: &mut Vt,
        disk: &mut Disk,
        object: ObjectId,
        pages: &[(u64, &[u8])],
        target_epoch: Epoch,
    ) -> Result<CommitToken, StoreError> {
        self.ensure_pins(vt, disk)?;
        self.recycle_pending(vt.now());
        let state = self
            .objects
            .get(object.0 as usize)
            .ok_or(StoreError::NotFound)?;
        if target_epoch <= state.epoch {
            return Err(StoreError::StaleEpoch);
        }
        self.hydrate_object_paths(vt, disk, object, pages.iter().map(|(p, _)| *p))?;
        let initiate = costs::initiate(pages.len());
        let token = self.full_commit(vt, disk, object, pages, target_epoch, initiate)?;
        self.stats.commits += 1;
        self.stats.pages_written += pages.len() as u64;
        Ok(token)
    }

    /// Advances `object` to `epoch` without changing its content: a
    /// data-less full root at the new epoch. Replication uses this as a
    /// **promotion fence**: a replica promoted to primary first jumps
    /// its epoch past anything the failed primary could have durably
    /// committed, so every epoch the new primary hands out is strictly
    /// newer than the abandoned history and [`StoreShard::apply_image`]'s
    /// forward-only rule keeps holding on every node.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`], [`StoreError::StaleEpoch`] if `epoch`
    /// is not ahead of the object, [`StoreError::OutOfSpace`], or
    /// [`StoreError::Io`]. On error the object is unchanged.
    pub fn fence_epoch(
        &mut self,
        vt: &mut Vt,
        disk: &mut Disk,
        object: ObjectId,
        epoch: Epoch,
    ) -> Result<CommitToken, StoreError> {
        self.ensure_pins(vt, disk)?;
        self.recycle_pending(vt.now());
        let state = self
            .objects
            .get(object.0 as usize)
            .ok_or(StoreError::NotFound)?;
        if epoch <= state.epoch {
            return Err(StoreError::StaleEpoch);
        }
        let token = self.full_commit(vt, disk, object, &[], epoch, costs::initiate(0))?;
        self.stats.commits += 1;
        Ok(token)
    }

    /// Rebase commit: applies `pages` **on top of the retained snapshot
    /// `base`** (not the live tree) as one crash-atomic full image at
    /// `target_epoch`, abandoning everything the object committed since
    /// the snapshot.
    ///
    /// This is how a failed primary rejoins as a replica: its live tree
    /// holds epochs the new primary never acknowledged (a divergent
    /// history), but both sides retain the last shipped-and-acked
    /// snapshot, so the new primary ships a delta diffed against that
    /// common base and the old primary lands it here. The root-record
    /// write is the single commit point — a crash mid-rebase recovers
    /// the object at exactly its divergent epoch or exactly
    /// `target_epoch`, never a blend. Blocks only the abandoned history
    /// reached are quarantined and recycled once the rebase root is
    /// durable (snapshot pins still withhold what retained epochs
    /// reach).
    ///
    /// # Errors
    ///
    /// [`StoreError::SnapshotNotFound`] / [`StoreError::SnapshotMismatch`]
    /// for a bad base, [`StoreError::NotFound`],
    /// [`StoreError::StaleEpoch`] if `target_epoch` is not ahead of the
    /// live epoch, [`StoreError::OutOfSpace`], or [`StoreError::Io`].
    /// On error the object keeps its divergent history unchanged.
    pub fn apply_image_at_base(
        &mut self,
        vt: &mut Vt,
        disk: &mut Disk,
        object: ObjectId,
        base: &str,
        pages: &[(u64, &[u8])],
        target_epoch: Epoch,
    ) -> Result<CommitToken, StoreError> {
        // `ensure_pins` both registers the base snapshot's pin set
        // (consulted for the quarantine filter below) and hydrates every
        // snapshot tree, so the cloned base is fully resident.
        self.ensure_pins(vt, disk)?;
        self.recycle_pending(vt.now());
        let idx = *self
            .snap_by_name
            .get(base)
            .ok_or(StoreError::SnapshotNotFound)?;
        let snap = &self.snapshots[idx];
        if snap.entry.object != object {
            return Err(StoreError::SnapshotMismatch);
        }
        let base_tree = snap.tree.clone();
        let base_blocks: HashSet<u64> = snap.blocks.iter().copied().collect();
        let state = self
            .objects
            .get_mut(object.0 as usize)
            .ok_or(StoreError::NotFound)?;
        if target_epoch <= state.epoch {
            return Err(StoreError::StaleEpoch);
        }
        // Hydrate the live (about-to-be-divergent) tree up front: the
        // post-commit quarantine walk must not fail once the rebase root
        // is durable.
        {
            let state = &mut self.objects[object.0 as usize];
            let cache = &mut self.cache;
            let stats = &mut self.stats;
            state.tree.hydrate_all(&mut |b, out| {
                read_block_cached(vt, disk, cache, stats, b, out, true)
            })?;
        }
        let state = &mut self.objects[object.0 as usize];
        let divergent = std::mem::replace(&mut state.tree, base_tree);
        // The overlay is part of the divergent history: it must not be
        // written out over the base.
        let divergent_overlay = std::mem::take(&mut state.overlay);
        let initiate = costs::initiate(pages.len());
        let token = match self.full_commit(vt, disk, object, pages, target_epoch, initiate) {
            Ok(t) => t,
            Err(e) => {
                // full_commit restored the (cloned) base tree; put the
                // divergent history back so the object is untouched.
                let state = &mut self.objects[object.0 as usize];
                state.tree = divergent;
                state.overlay = divergent_overlay;
                return Err(e);
            }
        };
        // Quarantine the blocks only the abandoned history reached.
        // Blocks shared with the base snapshot went through the ordinary
        // superseded path inside full_commit (and stay withheld while
        // pinned); blocks still reachable from the rebased tree are live.
        let state = &mut self.objects[object.0 as usize];
        let live: HashSet<u64> = state.tree.reachable_blocks().into_iter().collect();
        let dead: Vec<u64> = divergent
            .disk_blocks()
            .into_iter()
            .filter(|b| !live.contains(b) && !base_blocks.contains(b))
            .collect();
        let gate = state.chain_completes;
        self.pending_free.push(Reverse((gate, dead)));
        self.stats.commits += 1;
        self.stats.pages_written += pages.len() as u64;
        Ok(token)
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

    /// Blocks `vt` until `token`'s μCheckpoint is durable.
    pub fn wait(vt: &mut Vt, token: CommitToken) {
        let wait = token.completes.saturating_sub(vt.now());
        if wait > Nanos::ZERO {
            vt.charge(Category::IoWait, wait);
        }
    }

    /// Reads one page of `object` into `out`. Pages never written read as
    /// zeroes (regions are zero-initialized).
    ///
    /// The tree hydrates on demand (only the touched path) and both node
    /// and data reads go through the block cache. This is the one-page
    /// case of the store's single verified read path (see
    /// [`StoreShard::read_pages`]).
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] if `object` does not exist,
    /// [`StoreError::CorruptData`] if the bytes the device returned do not
    /// match the page's digest (the block is quarantined and `out` is
    /// zeroed — rotted bytes are never served), or [`StoreError::Io`] if
    /// a read fails (the tree is left unpoisoned; retry after the fault
    /// clears).
    pub fn read_page(
        &mut self,
        vt: &mut Vt,
        disk: &mut Disk,
        object: ObjectId,
        page: u64,
        out: &mut [u8],
    ) -> Result<(), StoreError> {
        let from = self.live(object)?;
        self.read_verified(vt, disk, from, page, out, true)
    }

    /// The read source naming `object`'s current epoch.
    fn live(&self, object: ObjectId) -> Result<ReadFrom, StoreError> {
        let idx = object.0 as usize;
        if idx < self.objects.len() {
            Ok(ReadFrom::Live(idx))
        } else {
            Err(StoreError::NotFound)
        }
    }

    /// Reads pages `first_page .. first_page + n` of `object` in bulk and
    /// hands each to `sink(page, bytes)` in page order; pages never
    /// written arrive as zeroes.
    ///
    /// Entries resolve as for [`StoreShard::read_page`] (hydrating nodes
    /// through the cache), cached pages are served from the cache, and
    /// every miss goes to the device in **one vectored read** — which is
    /// what makes a bulk read cost about a microsecond a page where a
    /// loop of single-page reads pays the full per-IO latency each time.
    /// Every page is verified against its digest exactly as a
    /// single-page read verifies it. Unlike `read_page`, data pages read
    /// this way are **not** admitted to the block cache: a bulk reader
    /// (region page-in) touches each page once, and admitting them would
    /// only evict the node blocks the next commits need.
    ///
    /// # Errors
    ///
    /// As [`StoreShard::read_page`]. On [`StoreError::CorruptData`] —
    /// reported for the first mismatch in page order, and only that
    /// block is quarantined — `sink` has received every page before the
    /// corrupt one, exactly as a loop of single-page reads would have
    /// delivered them. On [`StoreError::Io`] `sink` has received nothing.
    pub fn read_pages(
        &mut self,
        vt: &mut Vt,
        disk: &mut Disk,
        object: ObjectId,
        first_page: u64,
        n: u64,
        sink: &mut dyn FnMut(u64, &[u8]),
    ) -> Result<(), StoreError> {
        let from = self.live(object)?;
        self.read_bulk(vt, disk, from, first_page, n, sink)
    }

    /// The bulk read behind [`StoreShard::read_pages`] and
    /// [`StoreShard::read_pages_at`]: one un-admitted verified read of
    /// `n` pages of `from`, delivered to `sink` up to the first page
    /// that does not verify.
    fn read_bulk(
        &mut self,
        vt: &mut Vt,
        disk: &mut Disk,
        from: ReadFrom,
        first_page: u64,
        n: u64,
        sink: &mut dyn FnMut(u64, &[u8]),
    ) -> Result<(), StoreError> {
        let mut buf = vec![0u8; n as usize * BLOCK_SIZE];
        let res = self.read_verified(vt, disk, from, first_page, &mut buf, false);
        let good = match res {
            Ok(()) => n,
            Err(StoreError::CorruptData { page, .. }) => page - first_page,
            Err(_) => 0,
        };
        for (page, data) in (first_page..first_page + good).zip(buf.chunks(BLOCK_SIZE)) {
            sink(page, data);
        }
        res
    }

    /// The store's one verified read: fills `out` (a whole number of
    /// blocks) with the pages starting at `first_page` of the tree `from`
    /// names. A live page the overlay holds is served from it — its
    /// newest content exists nowhere else — without touching the tree.
    /// Resolves every other entry (hydrating nodes through the cache),
    /// serves cache hits, issues the misses as one vectored device read,
    /// then checks every block against the digest its entry carries, in
    /// page order. `admit` inserts the blocks read from the device into
    /// the cache (the single-page readers' policy).
    ///
    /// On a mismatch the block is quarantined, its slot in `out` is
    /// zeroed and `CorruptData` names the page; slots before it hold
    /// verified bytes, slots after it are unspecified.
    fn read_verified(
        &mut self,
        vt: &mut Vt,
        disk: &mut Disk,
        from: ReadFrom,
        first_page: u64,
        out: &mut [u8],
        admit: bool,
    ) -> Result<(), StoreError> {
        assert_eq!(out.len() % BLOCK_SIZE, 0, "reads are whole pages");
        let (tree, overlay, epoch) = match from {
            ReadFrom::Live(i) => {
                let state = &mut self.objects[i];
                (&mut state.tree, Some(&state.overlay), state.epoch)
            }
            ReadFrom::Snapshot(i) => {
                let snap = &mut self.snapshots[i];
                (&mut snap.tree, None, snap.entry.epoch)
            }
        };
        let overlaid = |page: u64| overlay.and_then(|o| o.get(&page));
        let cache = &mut self.cache;
        let stats = &mut self.stats;
        let n = (out.len() / BLOCK_SIZE) as u64;
        let mut entries = Vec::with_capacity(n as usize);
        for page in first_page..first_page + n {
            entries.push(match overlaid(page) {
                Some(_) => None,
                None => tree.get_entry_or_load(page, &mut |b, buf| {
                    read_block_cached(vt, disk, cache, stats, b, buf, true)
                })?,
            });
        }

        let mut misses: Vec<(u64, &mut [u8])> = Vec::new();
        let slots = entries.iter().zip(out.chunks_mut(BLOCK_SIZE));
        for (page, (entry, slot)) in (first_page..).zip(slots) {
            match entry {
                None => match overlaid(page) {
                    Some((_, image)) => slot.copy_from_slice(image),
                    None => slot.fill(0),
                },
                Some((block, _)) if cache.get(*block, slot) => stats.cache_hits += 1,
                Some((block, _)) => misses.push((*block, slot)),
            }
        }
        disk.try_readv(vt, &mut misses)?;
        stats.cache_misses += misses.len() as u64;
        if admit {
            for (block, data) in &misses {
                if cache.insert(*block, data) {
                    stats.cache_evictions += 1;
                }
            }
        }

        let mapped = entries.iter().zip(out.chunks_mut(BLOCK_SIZE));
        for (page, (entry, slot)) in (first_page..).zip(mapped) {
            let Some((block, digest)) = *entry else {
                continue;
            };
            if layout::digest32(slot) != digest {
                // Never serve rotted bytes: quarantine and surface.
                cache.invalidate(block);
                self.quarantined.insert(block);
                slot.fill(0);
                return Err(StoreError::CorruptData { page, block, epoch });
            }
        }
        Ok(())
    }

    /// Runs one increment of the online scrubber: reads committed media —
    /// resident radix-node images and leaf data blocks — back straight
    /// from the device (bypassing the CLOCK cache, so a cached clean copy
    /// cannot mask rotted media) and verifies every block against the
    /// digest its parent carries. `budget` caps the device blocks this
    /// call may read (hydrating an unloaded subtree mid-walk can
    /// overshoot by the nodes on one path). Node images and leaf blocks
    /// are read `min(budget, pending, BULK_READ_PAGES)` at a time, as one
    /// vectored submission each, then verified in order — the same
    /// blocks, statistics and repair order as reading them one by one,
    /// at a fraction of the device time.
    ///
    /// The cursor is resumable: scrub walks the radix forest object by
    /// object, page by page, and picks up exactly where the budget ran
    /// out. Node blocks shared by several trees (COW) are verified once
    /// per pass; unloaded subtrees are digest-verified by hydration
    /// itself, whenever they first load. When a pass completes the cursor
    /// wraps and [`ScrubStats::passes`] increments.
    ///
    /// On a digest mismatch the block is quarantined (never recycled,
    /// never served) and scrub repairs in preference order: a corrupt
    /// *resident* node is rewritten from its clean in-memory copy via a
    /// crash-atomic full-root flush; a corrupt leaf page is
    /// re-materialized from the newest retained snapshot still holding an
    /// independent clean copy. Pages with no clean local source are
    /// reported through [`StoreShard::unrepaired_pages`] for a peer to
    /// heal via [`StoreShard::repair_page`]. Repaired pages always land
    /// through the normal crash-atomic commit path — never in place.
    ///
    /// Returns the statistics delta for this call; cumulative totals are
    /// at [`StoreShard::scrub_stats`].
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] / [`StoreError::OutOfSpace`] if a device read
    /// fails or a repair commit cannot complete. Detected corruption is
    /// *not* an error from scrub — it is counted, quarantined, and
    /// repaired or reported.
    pub fn scrub(
        &mut self,
        vt: &mut Vt,
        disk: &mut Disk,
        budget: u64,
    ) -> Result<ScrubStats, StoreError> {
        let before = self.scrub_stats;
        let mut budget = budget;
        while budget > 0 {
            let (obj_idx, start_page) = self.scrub_cursor;
            if obj_idx >= self.objects.len() {
                // Pass complete: wrap the cursor and forget per-pass memos.
                self.scrub_stats.passes += 1;
                self.scrub_verified.clear();
                self.scrub_cursor = (0, 0);
                break;
            }
            let object = self.objects[obj_idx].entry.id;

            // Phase 1 (on entering an object): verify the media of its
            // resident committed nodes, a budget's worth per read.
            if start_page == 0 {
                loop {
                    let mut worklist: Vec<(u64, u32)> = self.objects[obj_idx]
                        .tree
                        .committed_nodes()
                        .into_iter()
                        .filter(|(b, _)| !self.scrub_verified.contains(b))
                        .collect();
                    if worklist.is_empty() {
                        break;
                    }
                    if budget == 0 {
                        // Out of budget mid-node-phase: resume here
                        // next call (`scrub_verified` holds progress).
                        return Ok(self.scrub_delta(before));
                    }
                    worklist.truncate(budget.min(BULK_READ_PAGES) as usize);
                    let images = readv_blocks(vt, disk, worklist.iter().map(|(b, _)| *b))?;
                    budget -= worklist.len() as u64;
                    self.scrub_stats.io_spent += worklist.len() as u64;
                    let mut corrupt = None;
                    for ((block, digest), image) in
                        worklist.into_iter().zip(images.chunks(BLOCK_SIZE))
                    {
                        if layout::digest32(image) == digest {
                            self.scrub_stats.nodes_verified += 1;
                            self.scrub_verified.insert(block);
                        } else if corrupt.is_none() {
                            corrupt = Some(block);
                        }
                    }
                    let Some(block) = corrupt else { continue };
                    // Rotted node media with a clean in-memory copy:
                    // quarantine the block and rewrite the path through a
                    // crash-atomic full-root flush, then rescan.
                    self.scrub_stats.corruptions_found += 1;
                    self.cache.invalidate(block);
                    self.quarantined.insert(block);
                    let resident = self.objects[obj_idx].tree.dirty_committed_node(block);
                    debug_assert!(resident, "committed_nodes listed a resident node");
                    self.flush_full_root(vt, disk, object)?;
                    self.scrub_stats.repairs += 1;
                }
            }

            // Phase 2: enumerate leaf entries from the cursor, read their
            // data blocks in one vectored submission, and verify each
            // against its digest. Hydration reads go straight to the
            // device too (and verify node digests on the way down).
            let limit = budget.min(BULK_READ_PAGES) as usize;
            let mut hydration_io = 0u64;
            let entries = {
                let state = &mut self.objects[obj_idx];
                state.tree.entries_from(start_page, limit, &mut |b, out| {
                    hydration_io += 1;
                    disk.try_read_block(vt, b, out)
                })
            };
            self.scrub_stats.io_spent += hydration_io;
            budget = budget.saturating_sub(hydration_io);
            let mut entries = match entries {
                Ok(e) => e,
                Err(TreeError::Io(e)) => return Err(e.into()),
                Err(TreeError::CorruptNode { block }) => {
                    // An *unloaded* subtree's media rotted: there is no
                    // in-memory copy to heal from and the mapping under it
                    // is unreadable. Quarantine, count it as unrepaired
                    // metadata, and move to the next object.
                    self.scrub_stats.corruptions_found += 1;
                    self.scrub_stats.unrepaired += 1;
                    self.cache.invalidate(block);
                    self.quarantined.insert(block);
                    self.scrub_cursor = (obj_idx + 1, 0);
                    continue;
                }
            };
            // Hydration may have eaten into the budget: the entries past
            // it wait for the next call, which resumes at the first one.
            let full_chunk = entries.len() == limit;
            let take = entries.len().min(budget as usize);
            let resume_at = entries.get(take).map(|(page, _, _)| *page);
            entries.truncate(take);
            let images = readv_blocks(vt, disk, entries.iter().map(|(_, b, _)| *b))?;
            budget -= take as u64;
            self.scrub_stats.io_spent += take as u64;
            let mut next_page = start_page;
            for ((page, block, digest), image) in entries.into_iter().zip(images.chunks(BLOCK_SIZE))
            {
                next_page = page + 1;
                if layout::digest32(image) == digest {
                    self.scrub_stats.pages_verified += 1;
                    continue;
                }
                // Rotted page data: quarantine, then repair — newest
                // retained snapshot with an independent clean copy first,
                // else hand the page to replication.
                self.scrub_stats.corruptions_found += 1;
                self.cache.invalidate(block);
                self.quarantined.insert(block);
                if self.objects[obj_idx].overlay.contains_key(&page) {
                    // The rotted block is only the base of a page whose
                    // newest content the overlay holds: writing the
                    // overlay out heals it.
                    self.flush_full_root(vt, disk, object)?;
                    self.scrub_stats.repairs += 1;
                    continue;
                }
                match self.snapshot_clean_copy(vt, disk, object, page, digest, block)? {
                    Some(data) => {
                        self.repair_commit(vt, disk, object, page, &data)?;
                        self.scrub_stats.repairs += 1;
                    }
                    None => {
                        self.scrub_stats.unrepaired += 1;
                        let epoch = self.objects[obj_idx].epoch;
                        self.unrepaired.push(UnrepairedPage {
                            object,
                            page,
                            block,
                            digest,
                            epoch,
                        });
                    }
                }
            }
            self.scrub_cursor = match resume_at {
                Some(page) => (obj_idx, page),
                None if full_chunk => (obj_idx, next_page),
                None => (obj_idx + 1, 0),
            };
        }
        Ok(self.scrub_delta(before))
    }

    /// Cumulative scrub statistics across every [`StoreShard::scrub`]
    /// call (and peer repairs landed via [`StoreShard::repair_page`]).
    pub fn scrub_stats(&self) -> ScrubStats {
        self.scrub_stats
    }

    /// Corrupt pages quarantined with no clean local source: replication
    /// turns these into `RepairRequest` messages, and a verified peer
    /// copy heals them through [`StoreShard::repair_page`].
    pub fn unrepaired_pages(&self) -> Vec<UnrepairedPage> {
        self.unrepaired.clone()
    }

    /// Blocks quarantined after failing digest verification. They are
    /// never recycled and never served again.
    pub fn quarantined_blocks(&self) -> usize {
        self.quarantined.len()
    }

    /// The component-wise difference of the cumulative stats since
    /// `before` — what one `scrub` call reports.
    fn scrub_delta(&self, before: ScrubStats) -> ScrubStats {
        let now = self.scrub_stats;
        ScrubStats {
            pages_verified: now.pages_verified - before.pages_verified,
            nodes_verified: now.nodes_verified - before.nodes_verified,
            corruptions_found: now.corruptions_found - before.corruptions_found,
            repairs: now.repairs - before.repairs,
            unrepaired: now.unrepaired - before.unrepaired,
            io_spent: now.io_spent - before.io_spent,
            passes: now.passes - before.passes,
        }
    }

    /// Searches retained snapshots, newest first, for an *independent*
    /// clean copy of `page` matching `digest`: a leaf entry whose block
    /// differs from the corrupt one (COW sharing means "same block" is
    /// the same rotted media, not redundancy) and whose bytes verify.
    fn snapshot_clean_copy(
        &mut self,
        vt: &mut Vt,
        disk: &mut Disk,
        object: ObjectId,
        page: u64,
        digest: u32,
        bad_block: u64,
    ) -> Result<Option<Vec<u8>>, StoreError> {
        let mut buf = [0u8; BLOCK_SIZE];
        for i in (0..self.snapshots.len()).rev() {
            if self.snapshots[i].entry.object != object {
                continue;
            }
            let entry = {
                let snap = &mut self.snapshots[i];
                match snap
                    .tree
                    .get_entry_or_load(page, &mut |b, out| disk.try_read_block(vt, b, out))
                {
                    Ok(e) => e,
                    Err(TreeError::Io(e)) => return Err(e.into()),
                    // This snapshot's own metadata rotted; try an older one.
                    Err(TreeError::CorruptNode { .. }) => continue,
                }
            };
            let Some((block, _)) = entry else { continue };
            if block == bad_block || self.quarantined.contains(&block) {
                continue;
            }
            self.scrub_stats.io_spent += 1;
            disk.try_read_block(vt, block, &mut buf)?;
            if layout::digest32(&buf) == digest {
                return Ok(Some(buf.to_vec()));
            }
        }
        Ok(None)
    }

    /// Commits one clean page image at the object's *current* epoch
    /// through the ordinary crash-atomic full-root path: the corrupt
    /// block is superseded (and stays quarantined), the root record is
    /// the single commit point, and its `flush_seq` makes recovery
    /// prefer the repaired root over the pre-repair one at the same
    /// epoch. `data` is a clean copy of the page's *tree block*; if the
    /// overlay holds newer content for the page, that is what the root
    /// writes out instead.
    fn repair_commit(
        &mut self,
        vt: &mut Vt,
        disk: &mut Disk,
        object: ObjectId,
        page: u64,
        data: &[u8],
    ) -> Result<CommitToken, StoreError> {
        self.hydrate_object_paths(vt, disk, object, std::iter::once(page))?;
        let state = &self.objects[object.0 as usize];
        let pages: &[(u64, &[u8])] = if state.overlay.contains_key(&page) {
            &[]
        } else {
            &[(page, data)]
        };
        let token = self.full_commit(vt, disk, object, pages, state.epoch, costs::initiate(1))?;
        self.stats.commits += 1;
        self.stats.pages_written += pages.len() as u64;
        Ok(token)
    }

    /// Heals `page` with a clean copy fetched from elsewhere — typically
    /// a replication peer answering a `PageRepairRequest`: verifies
    /// `data` against the page's expected digest, quarantines the rotted
    /// block, and commits the clean bytes at the object's current epoch
    /// through the ordinary crash-atomic commit path, never in place.
    ///
    /// Also the idempotent landing point for pages the scrubber reported
    /// through [`StoreShard::unrepaired_pages`].
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] for a missing object or an absent page,
    /// [`StoreError::RepairMismatch`] when `data` does not hash to the
    /// expected digest (a corrupt or stale peer copy is rejected, not
    /// committed), plus the usual commit errors. On error the object is
    /// unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly [`BLOCK_SIZE`] bytes.
    pub fn repair_page(
        &mut self,
        vt: &mut Vt,
        disk: &mut Disk,
        object: ObjectId,
        page: u64,
        data: &[u8],
    ) -> Result<CommitToken, StoreError> {
        assert_eq!(data.len(), BLOCK_SIZE, "repair data must be one page");
        let state = self
            .objects
            .get_mut(object.0 as usize)
            .ok_or(StoreError::NotFound)?;
        let cache = &mut self.cache;
        let stats = &mut self.stats;
        let entry = state.tree.get_entry_or_load(page, &mut |b, buf| {
            read_block_cached(vt, disk, cache, stats, b, buf, true)
        })?;
        let Some((block, digest)) = entry else {
            return Err(StoreError::NotFound);
        };
        if layout::digest32(data) != digest {
            return Err(StoreError::RepairMismatch);
        }
        // Check the current media so repairing an already-clean page
        // stays an ordinary (harmless) rewrite without quarantining.
        let mut buf = [0u8; BLOCK_SIZE];
        disk.try_read_block(vt, block, &mut buf)?;
        let was_corrupt = layout::digest32(&buf) != digest;
        if was_corrupt {
            self.cache.invalidate(block);
            self.quarantined.insert(block);
        }
        let token = self.repair_commit(vt, disk, object, page, data)?;
        self.unrepaired
            .retain(|u| !(u.object == object && u.page == page));
        if was_corrupt {
            self.scrub_stats.repairs += 1;
        }
        Ok(token)
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
    use msnap_disk::DiskConfig;

    fn page_of(byte: u8) -> Vec<u8> {
        vec![byte; BLOCK_SIZE]
    }

    /// The one-shard slice of `ObjectStore::format_sharded(disk, 1)`, with
    /// the whole data area granted up front so these tests can drive a
    /// bare shard without a broker.
    fn format_shard(disk: &mut Disk) -> StoreShard {
        let mut shard = StoreShard::format_at(disk, ShardLayout::sharded(0, 1));
        disk.settle();
        grant_rest(&mut shard, disk);
        shard
    }

    /// Recovers the shard [`format_shard`] made, again owning every block
    /// past its frontier.
    fn open_shard(vt: &mut Vt, disk: &mut Disk) -> Result<StoreShard, StoreError> {
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

    fn setup() -> (Disk, StoreShard, Vt) {
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
    fn persist_then_read_round_trips() {
        let (mut disk, mut store, mut vt) = setup();
        let obj = store.create(&mut vt, &mut disk, "db").unwrap();
        let p0 = page_of(1);
        let p9 = page_of(2);
        let token = store
            .persist(&mut vt, &mut disk, obj, &[(0, &p0), (9, &p9)])
            .unwrap();
        StoreShard::wait(&mut vt, token);
        assert_eq!(token.epoch, 1);

        let mut out = page_of(0);
        store
            .read_page(&mut vt, &mut disk, obj, 0, &mut out)
            .unwrap();
        assert_eq!(out, p0);
        store
            .read_page(&mut vt, &mut disk, obj, 9, &mut out)
            .unwrap();
        assert_eq!(out, p9);
        store
            .read_page(&mut vt, &mut disk, obj, 5, &mut out)
            .unwrap();
        assert!(out.iter().all(|&b| b == 0), "unwritten pages read zero");
    }

    #[test]
    fn epochs_are_monotonic_per_object() {
        let (mut disk, mut store, mut vt) = setup();
        let a = store.create(&mut vt, &mut disk, "a").unwrap();
        let b = store.create(&mut vt, &mut disk, "b").unwrap();
        let p = page_of(1);
        for i in 1..=3 {
            let t = store.persist(&mut vt, &mut disk, a, &[(0, &p)]).unwrap();
            StoreShard::wait(&mut vt, t);
            assert_eq!(t.epoch, i);
        }
        let t = store.persist(&mut vt, &mut disk, b, &[(0, &p)]).unwrap();
        assert_eq!(t.epoch, 1, "objects have independent epochs");
    }

    #[test]
    fn small_commits_use_the_delta_path() {
        let (mut disk, mut store, mut vt) = setup();
        let obj = store.create(&mut vt, &mut disk, "db").unwrap();
        let p = page_of(1);
        let before = disk.stats().writes();
        let token = store.persist(&mut vt, &mut disk, obj, &[(0, &p)]).unwrap();
        StoreShard::wait(&mut vt, token);
        // Exactly two IOs: the data extent and the delta record — no tree
        // node writes.
        assert_eq!(disk.stats().writes() - before, 2);
        assert_eq!(store.stats().delta_commits, 1);
        assert_eq!(store.stats().nodes_written, 0);
    }

    #[test]
    fn full_root_every_delta_slots_commits() {
        let (mut disk, mut store, mut vt) = setup();
        let obj = store.create(&mut vt, &mut disk, "db").unwrap();
        let p = page_of(3);
        for i in 0..DELTA_SLOTS + 2 {
            let t = store.persist(&mut vt, &mut disk, obj, &[(i, &p)]).unwrap();
            StoreShard::wait(&mut vt, t);
        }
        assert!(store.stats().nodes_written > 0, "a full commit happened");
        assert!(store.stats().delta_commits >= DELTA_SLOTS - 1);
    }

    #[test]
    fn reopen_restores_committed_data_after_deltas() {
        let (mut disk, mut store, mut vt) = setup();
        let obj = store.create(&mut vt, &mut disk, "db").unwrap();
        // Several delta commits, no full root yet.
        for i in 0..5u64 {
            let p = page_of(10 + i as u8);
            let t = store.persist(&mut vt, &mut disk, obj, &[(i, &p)]).unwrap();
            StoreShard::wait(&mut vt, t);
        }
        disk.settle();

        let mut vt2 = Vt::new(1);
        let mut store2 = open_shard(&mut vt2, &mut disk).unwrap();
        let obj2 = store2.lookup("db").unwrap();
        assert_eq!(store2.epoch(obj2), 5, "delta replay recovers all epochs");
        let mut out = page_of(0);
        for i in 0..5u64 {
            store2
                .read_page(&mut vt2, &mut disk, obj2, i, &mut out)
                .unwrap();
            assert_eq!(out, page_of(10 + i as u8), "page {i}");
        }
    }

    #[test]
    fn reopen_restores_across_full_roots_and_deltas() {
        let (mut disk, mut store, mut vt) = setup();
        let obj = store.create(&mut vt, &mut disk, "db").unwrap();
        let total = DELTA_SLOTS + 10;
        for i in 0..total {
            let p = page_of((i % 250) as u8 + 1);
            let t = store.persist(&mut vt, &mut disk, obj, &[(i, &p)]).unwrap();
            StoreShard::wait(&mut vt, t);
        }
        disk.settle();

        let mut vt2 = Vt::new(1);
        let mut store2 = open_shard(&mut vt2, &mut disk).unwrap();
        let obj2 = store2.lookup("db").unwrap();
        assert_eq!(store2.epoch(obj2), total);
        let mut out = page_of(0);
        for i in 0..total {
            store2
                .read_page(&mut vt2, &mut disk, obj2, i, &mut out)
                .unwrap();
            assert_eq!(out, page_of((i % 250) as u8 + 1), "page {i}");
        }
    }

    #[test]
    fn crash_mid_checkpoint_recovers_previous_epoch() {
        let (mut disk, mut store, mut vt) = setup();
        let obj = store.create(&mut vt, &mut disk, "db").unwrap();
        let p1 = page_of(1);
        let t1 = store.persist(&mut vt, &mut disk, obj, &[(0, &p1)]).unwrap();
        StoreShard::wait(&mut vt, t1);

        // Second checkpoint; crash before its commit record completes.
        let p2 = page_of(2);
        let t2 = store.persist(&mut vt, &mut disk, obj, &[(0, &p2)]).unwrap();
        disk.crash(t2.completes - Nanos::from_ns(1));

        let mut vt2 = Vt::new(1);
        let mut store2 = open_shard(&mut vt2, &mut disk).unwrap();
        let obj2 = store2.lookup("db").unwrap();
        assert_eq!(store2.epoch(obj2), 1, "recovery adopts the previous epoch");
        let mut out = page_of(0);
        store2
            .read_page(&mut vt2, &mut disk, obj2, 0, &mut out)
            .unwrap();
        assert_eq!(out, p1);
    }

    #[test]
    fn crash_after_checkpoint_keeps_it() {
        let (mut disk, mut store, mut vt) = setup();
        let obj = store.create(&mut vt, &mut disk, "db").unwrap();
        let p2 = page_of(2);
        let t = store.persist(&mut vt, &mut disk, obj, &[(0, &p2)]).unwrap();
        disk.crash(t.completes);

        let mut vt2 = Vt::new(1);
        let mut store2 = open_shard(&mut vt2, &mut disk).unwrap();
        let obj2 = store2.lookup("db").unwrap();
        assert_eq!(store2.epoch(obj2), 1);
        let mut out = page_of(0);
        store2
            .read_page(&mut vt2, &mut disk, obj2, 0, &mut out)
            .unwrap();
        assert_eq!(out, p2);
    }

    #[test]
    fn torn_data_extent_truncates_the_recovered_prefix() {
        use msnap_disk::{Fault, FaultPlan};
        let (mut disk, mut store, mut vt) = setup();
        let obj = store.create(&mut vt, &mut disk, "db").unwrap();
        let p1 = page_of(1);
        let t1 = store.persist(&mut vt, &mut disk, obj, &[(0, &p1)]).unwrap();
        StoreShard::wait(&mut vt, t1);

        // Commit 2's two-block data extent tears after its first block,
        // but the record write (the next submission) lands intact — the
        // device acknowledged a lie.
        let pa = page_of(2);
        let pb = page_of(3);
        disk.set_fault_plan(FaultPlan::new().at(disk.io_seq(), Fault::Torn { prefix_blocks: 1 }));
        let t2 = store
            .persist(&mut vt, &mut disk, obj, &[(0, &pa), (1, &pb)])
            .unwrap();
        let t3 = store
            .persist(&mut vt, &mut disk, obj, &[(1, &page_of(4))])
            .unwrap();
        StoreShard::wait(&mut vt, t2);
        disk.crash(t3.completes);

        // Replay must stop *before* commit 2 (payload mismatch), which
        // also keeps the durable commit 3 out: the recovered state is
        // exactly the epoch-1 prefix, never a torn hybrid.
        let mut vt2 = Vt::new(1);
        let mut store2 = open_shard(&mut vt2, &mut disk).unwrap();
        let obj2 = store2.lookup("db").unwrap();
        assert_eq!(store2.epoch(obj2), 1, "torn commit and successors rejected");
        let mut out = page_of(0);
        store2
            .read_page(&mut vt2, &mut disk, obj2, 0, &mut out)
            .unwrap();
        assert_eq!(out, p1);
    }

    #[test]
    fn bit_flipped_data_block_truncates_the_recovered_prefix() {
        use msnap_disk::{Fault, FaultPlan};
        let (mut disk, mut store, mut vt) = setup();
        let obj = store.create(&mut vt, &mut disk, "db").unwrap();
        let p1 = page_of(1);
        let t1 = store.persist(&mut vt, &mut disk, obj, &[(0, &p1)]).unwrap();
        StoreShard::wait(&mut vt, t1);

        // Silent media corruption: one bit of commit 2's data flips as it
        // is written. No crash mid-commit — the corruption is only
        // discoverable by checksum.
        disk.set_fault_plan(FaultPlan::new().at(
            disk.io_seq(),
            Fault::BitFlip {
                entry: 0,
                byte: 100,
                bit: 3,
            },
        ));
        let t2 = store
            .persist(&mut vt, &mut disk, obj, &[(0, &page_of(2))])
            .unwrap();
        disk.crash(t2.completes);

        let mut vt2 = Vt::new(1);
        let mut store2 = open_shard(&mut vt2, &mut disk).unwrap();
        let obj2 = store2.lookup("db").unwrap();
        assert_eq!(store2.epoch(obj2), 1, "flipped commit rejected");
        let mut out = page_of(0);
        store2
            .read_page(&mut vt2, &mut disk, obj2, 0, &mut out)
            .unwrap();
        assert_eq!(out, p1);
    }

    #[test]
    fn delta_superseded_blocks_stay_quarantined_until_the_full_root() {
        let (mut disk, mut store, mut vt) = setup();
        let obj = store.create(&mut vt, &mut disk, "db").unwrap();
        // Overwrite the same page across the whole delta window, then
        // crash and corrupt nothing: every intermediate delta record must
        // still verify, i.e. its superseded data block was not recycled.
        let mut last = Nanos::ZERO;
        for i in 1..DELTA_SLOTS as u8 {
            let p = page_of(i);
            let t = store.persist(&mut vt, &mut disk, obj, &[(0, &p)]).unwrap();
            StoreShard::wait(&mut vt, t);
            last = t.completes;
        }
        disk.crash(last);
        let mut vt2 = Vt::new(1);
        let mut store2 = open_shard(&mut vt2, &mut disk).unwrap();
        let obj2 = store2.lookup("db").unwrap();
        assert_eq!(store2.epoch(obj2), DELTA_SLOTS - 1);
        let mut out = page_of(0);
        store2
            .read_page(&mut vt2, &mut disk, obj2, 0, &mut out)
            .unwrap();
        assert_eq!(out, page_of((DELTA_SLOTS - 1) as u8));
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
            StoreShard::wait(&mut vt, t);
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
            StoreShard::wait(&mut vt, t);
        }
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
    fn snapshot_delete_releases_withheld_blocks() {
        let (mut disk, mut store, mut vt) = setup();
        let obj = store.create(&mut vt, &mut disk, "db").unwrap();
        let p = page_of(1);
        let t = store.persist(&mut vt, &mut disk, obj, &[(0, &p)]).unwrap();
        StoreShard::wait(&mut vt, t);
        store
            .snapshot_create(&mut vt, &mut disk, obj, "old")
            .unwrap();
        for i in 0..(DELTA_SLOTS + 2) {
            let q = page_of(i as u8);
            let t = store.persist(&mut vt, &mut disk, obj, &[(0, &q)]).unwrap();
            StoreShard::wait(&mut vt, t);
        }
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
        StoreShard::wait(&mut vt, t);
        store
            .snapshot_create(&mut vt, &mut disk, obj, "s1")
            .unwrap();
        let q = page_of(2);
        let t = store.persist(&mut vt, &mut disk, obj, &[(0, &q)]).unwrap();
        StoreShard::wait(&mut vt, t);
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
        StoreShard::wait(&mut vt, t);
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
    fn snapshot_diff_and_apply_image_replicate_byte_for_byte() {
        let (mut disk, mut store, mut vt) = setup();
        let obj = store.create(&mut vt, &mut disk, "db").unwrap();
        let base_pages: Vec<Vec<u8>> = (0..6).map(|i| page_of(0x10 + i as u8)).collect();
        for (i, p) in base_pages.iter().enumerate() {
            let t = store
                .persist(&mut vt, &mut disk, obj, &[(i as u64, p)])
                .unwrap();
            StoreShard::wait(&mut vt, t);
        }
        let epoch_a = store.snapshot_create(&mut vt, &mut disk, obj, "a").unwrap();
        // Change pages 2 and 4, add page 6.
        for i in [2u64, 4, 6] {
            let p = page_of(0x80 + i as u8);
            let t = store.persist(&mut vt, &mut disk, obj, &[(i, &p)]).unwrap();
            StoreShard::wait(&mut vt, t);
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
            let t = replica.apply_image(vt, rdisk, robj, &iov, epoch).unwrap();
            StoreShard::wait(vt, t);
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
                .apply_image(&mut vt, &mut rdisk, robj, &[], epoch_b)
                .unwrap_err(),
            StoreError::StaleEpoch
        );
    }

    #[test]
    fn fence_epoch_jumps_forward_without_changing_content() {
        let (mut disk, mut store, mut vt) = setup();
        let obj = store.create(&mut vt, &mut disk, "db").unwrap();
        let p = page_of(0x33);
        let t = store.persist(&mut vt, &mut disk, obj, &[(0, &p)]).unwrap();
        StoreShard::wait(&mut vt, t);
        assert_eq!(store.epoch(obj), 1);

        let t = store.fence_epoch(&mut vt, &mut disk, obj, 100).unwrap();
        StoreShard::wait(&mut vt, t);
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
            store.fence_epoch(&mut vt, &mut disk, obj, 100).unwrap_err(),
            StoreError::StaleEpoch
        );
    }

    #[test]
    fn apply_image_at_base_abandons_divergent_history() {
        let (mut disk, mut store, mut vt) = setup();
        let obj = store.create(&mut vt, &mut disk, "db").unwrap();
        for i in 0..4u64 {
            let p = page_of(0x10 + i as u8);
            let t = store.persist(&mut vt, &mut disk, obj, &[(i, &p)]).unwrap();
            StoreShard::wait(&mut vt, t);
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
            StoreShard::wait(&mut vt, t);
        }
        assert!(store.epoch(obj) > base_epoch);

        // The rebase delta: the new primary changed pages 1 and 3 since
        // the common base, and its fence puts the target far ahead.
        let p1 = page_of(0xA1);
        let p3 = page_of(0xA3);
        let target = store.epoch(obj) + 50;
        let t = store
            .apply_image_at_base(
                &mut vt,
                &mut disk,
                obj,
                "acked",
                &[(1, &p1), (3, &p3)],
                target,
            )
            .unwrap();
        StoreShard::wait(&mut vt, t);
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
                .apply_image_at_base(&mut vt3, &mut disk3, other, "nope", &[], 10)
                .unwrap_err(),
            StoreError::SnapshotNotFound
        );
        assert_eq!(
            store
                .apply_image_at_base(&mut vt, &mut disk, obj, "acked", &[], target)
                .unwrap_err(),
            StoreError::StaleEpoch
        );
    }

    #[test]
    fn apply_image_at_base_recycles_only_abandoned_blocks() {
        let (mut disk, mut store, mut vt) = setup();
        let obj = store.create(&mut vt, &mut disk, "db").unwrap();
        for i in 0..4u64 {
            let p = page_of(1 + i as u8);
            let t = store.persist(&mut vt, &mut disk, obj, &[(i, &p)]).unwrap();
            StoreShard::wait(&mut vt, t);
        }
        store
            .snapshot_create(&mut vt, &mut disk, obj, "base")
            .unwrap();
        for round in 0..20u64 {
            let p = page_of(0x40 + round as u8);
            let t = store
                .persist(&mut vt, &mut disk, obj, &[(round % 4, &p)])
                .unwrap();
            StoreShard::wait(&mut vt, t);
        }
        let p0 = page_of(0xEE);
        let target = store.epoch(obj) + 1;
        let t = store
            .apply_image_at_base(&mut vt, &mut disk, obj, "base", &[(0, &p0)], target)
            .unwrap();
        StoreShard::wait(&mut vt, t);

        // Long after the rebase, heavy traffic must be able to reuse the
        // abandoned blocks without ever corrupting the live image or the
        // pinned base snapshot.
        for round in 0..64u64 {
            let p = page_of(round as u8);
            let t = store
                .persist(&mut vt, &mut disk, obj, &[(round % 4, &p)])
                .unwrap();
            StoreShard::wait(&mut vt, t);
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
    fn snapshot_diff_rejects_cross_object_pairs() {
        let (mut disk, mut store, mut vt) = setup();
        let a = store.create(&mut vt, &mut disk, "a").unwrap();
        let b = store.create(&mut vt, &mut disk, "b").unwrap();
        let p = page_of(1);
        for obj in [a, b] {
            let t = store.persist(&mut vt, &mut disk, obj, &[(0, &p)]).unwrap();
            StoreShard::wait(&mut vt, t);
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

    #[test]
    fn data_extent_is_sequential() {
        let (mut disk, mut store, mut vt) = setup();
        let obj = store.create(&mut vt, &mut disk, "db").unwrap();
        // Random page indices...
        let p = page_of(7);
        let pages: Vec<(u64, &[u8])> = [907u64, 13, 500_000, 42]
            .iter()
            .map(|&i| (i, &p[..]))
            .collect();
        let before = disk.stats().writes();
        let token = store.persist(&mut vt, &mut disk, obj, &pages).unwrap();
        StoreShard::wait(&mut vt, token);
        // ...become exactly two IOs: one vectored data write and the
        // delta record.
        assert_eq!(disk.stats().writes() - before, 2);
    }

    #[test]
    fn open_unformatted_disk_fails() {
        let mut disk = Disk::new(DiskConfig::fast());
        let mut vt = Vt::new(0);
        assert_eq!(
            open_shard(&mut vt, &mut disk).unwrap_err(),
            StoreError::NotFormatted
        );
    }

    #[test]
    fn recovery_allocator_does_not_clobber_live_blocks() {
        let (mut disk, mut store, mut vt) = setup();
        let obj = store.create(&mut vt, &mut disk, "db").unwrap();
        let pages: Vec<Vec<u8>> = (0..60).map(|i| page_of(i as u8)).collect();
        for (i, p) in pages.iter().enumerate() {
            let t = store
                .persist(&mut vt, &mut disk, obj, &[(i as u64, p)])
                .unwrap();
            StoreShard::wait(&mut vt, t);
        }
        disk.settle();

        // Reopen and write more; old pages must stay intact.
        let mut vt2 = Vt::new(1);
        let mut store2 = open_shard(&mut vt2, &mut disk).unwrap();
        let obj2 = store2.lookup("db").unwrap();
        let extra = page_of(0xFF);
        for i in 60..120u64 {
            let t = store2
                .persist(&mut vt2, &mut disk, obj2, &[(i, &extra)])
                .unwrap();
            StoreShard::wait(&mut vt2, t);
        }
        let mut out = page_of(0);
        for (i, p) in pages.iter().enumerate() {
            store2
                .read_page(&mut vt2, &mut disk, obj2, i as u64, &mut out)
                .unwrap();
            assert_eq!(&out, p, "page {i} corrupted after recovery + writes");
        }
    }

    #[test]
    fn overwrites_recycle_blocks_only_after_durability() {
        let (mut disk, mut store, mut vt) = setup();
        let obj = store.create(&mut vt, &mut disk, "db").unwrap();
        let p = page_of(1);
        let t1 = store.persist(&mut vt, &mut disk, obj, &[(0, &p)]).unwrap();
        StoreShard::wait(&mut vt, t1);
        let _t2 = store.persist(&mut vt, &mut disk, obj, &[(0, &p)]).unwrap();
        assert_eq!(store.alloc.free_blocks(), 0, "not yet durable");
    }

    #[test]
    fn initiate_cost_matches_table5() {
        // Table 5: initiating writes for 16 dirty pages costs 6.5 us.
        let (mut disk, mut store, mut vt) = setup();
        let obj = store.create(&mut vt, &mut disk, "db").unwrap();
        let p = page_of(1);
        let pages: Vec<(u64, &[u8])> = (0..16u64).map(|i| (i, &p[..])).collect();
        let before = vt.costs().get(Category::FileSystem);
        store.persist(&mut vt, &mut disk, obj, &pages).unwrap();
        let cpu = (vt.costs().get(Category::FileSystem) - before).as_us_f64();
        assert!(
            (cpu - 6.5).abs() < 2.0,
            "initiate CPU {cpu:.1} us vs paper 6.5 us"
        );
    }

    #[test]
    fn persist_io_wait_matches_table5() {
        // Table 5: waiting on IO for a 64 KiB μCheckpoint is ~39.7 us.
        // With the delta path: a 64 KiB extent (two striped segments) +
        // one commit record.
        let (mut disk, mut store, mut vt) = setup();
        let obj = store.create(&mut vt, &mut disk, "db").unwrap();
        let p = page_of(1);
        let pages: Vec<(u64, &[u8])> = (0..16u64).map(|i| (i, &p[..])).collect();
        let start = vt.now();
        let token = store.persist(&mut vt, &mut disk, obj, &pages).unwrap();
        let io_wait = (token.completes - start).as_us_f64();
        assert!(
            (io_wait - 39.7).abs() / 39.7 < 0.45,
            "IO wait {io_wait:.1} us vs paper 39.7 us"
        );
    }
    #[test]
    fn persist_out_of_space_aborts_cleanly() {
        let floor = ShardLayout::sharded(0, 1).data_floor;
        let mut disk = Disk::new(DiskConfig::fast().with_capacity_blocks(floor + 40));
        let mut store = format_shard(&mut disk);
        let mut vt = Vt::new(0);
        let obj = store.create(&mut vt, &mut disk, "db").unwrap();
        let p = page_of(1);
        // Fill the device with commits until one fails.
        let mut committed = 0u64;
        let err = loop {
            match store.persist(&mut vt, &mut disk, obj, &[(committed, &p)]) {
                Ok(t) => {
                    StoreShard::wait(&mut vt, t);
                    committed += 1;
                }
                Err(e) => break e,
            }
            assert!(committed < 1000, "capacity ceiling never hit");
        };
        assert_eq!(err, StoreError::OutOfSpace);
        // The abort is clean: epoch unchanged, data readable, and another
        // failed attempt does not consume blocks (no leak => stable error).
        assert_eq!(store.epoch(obj), committed);
        let high_water = store.alloc.high_water();
        let free = store.alloc.free_blocks();
        assert_eq!(
            store
                .persist(&mut vt, &mut disk, obj, &[(committed, &p)])
                .unwrap_err(),
            StoreError::OutOfSpace
        );
        assert_eq!(
            store.alloc.high_water(),
            high_water,
            "failed persist leaked frontier"
        );
        assert_eq!(
            store.alloc.free_blocks(),
            free,
            "failed persist leaked free list"
        );
        let mut out = page_of(0);
        for i in 0..committed {
            store
                .read_page(&mut vt, &mut disk, obj, i, &mut out)
                .unwrap();
            assert_eq!(out, p, "page {i} damaged by aborted commit");
        }
    }

    #[test]
    fn transient_faults_are_retried_and_hidden() {
        use msnap_disk::{Fault, FaultPlan};
        let (mut disk, mut store, mut vt) = setup();
        let obj = store.create(&mut vt, &mut disk, "db").unwrap();
        // Every first attempt of the next two submissions fails
        // transiently; the bounded retry must absorb both.
        let next = disk.io_seq();
        disk.set_fault_plan(
            FaultPlan::new()
                .at(next, Fault::Drop { transient: true })
                .at(next + 2, Fault::Drop { transient: true }),
        );
        let p = page_of(9);
        let t = store.persist(&mut vt, &mut disk, obj, &[(0, &p)]).unwrap();
        StoreShard::wait(&mut vt, t);
        assert_eq!(t.epoch, 1);
        let mut out = page_of(0);
        store
            .read_page(&mut vt, &mut disk, obj, 0, &mut out)
            .unwrap();
        assert_eq!(out, p);
        assert_eq!(disk.fault_injector().unwrap().injected().len(), 2);
    }

    #[test]
    fn hard_fault_aborts_persist_without_epoch_advance() {
        use msnap_disk::{Fault, FaultPlan};
        let (mut disk, mut store, mut vt) = setup();
        let obj = store.create(&mut vt, &mut disk, "db").unwrap();
        let p = page_of(1);
        let t = store.persist(&mut vt, &mut disk, obj, &[(0, &p)]).unwrap();
        StoreShard::wait(&mut vt, t);

        // Hard-fail the data extent of the next commit.
        disk.set_fault_plan(FaultPlan::new().at(disk.io_seq(), Fault::Drop { transient: false }));
        let p2 = page_of(2);
        let err = store
            .persist(&mut vt, &mut disk, obj, &[(0, &p2)])
            .unwrap_err();
        assert!(matches!(err, StoreError::Io(_)), "got {err:?}");
        assert_eq!(
            store.epoch(obj),
            1,
            "aborted commit must not advance the epoch"
        );
        let mut out = page_of(0);
        store
            .read_page(&mut vt, &mut disk, obj, 0, &mut out)
            .unwrap();
        assert_eq!(out, p, "old contents must survive the abort");

        // The store keeps working afterwards.
        disk.clear_fault_plan();
        let t2 = store.persist(&mut vt, &mut disk, obj, &[(0, &p2)]).unwrap();
        StoreShard::wait(&mut vt, t2);
        assert_eq!(t2.epoch, 2);
        store
            .read_page(&mut vt, &mut disk, obj, 0, &mut out)
            .unwrap();
        assert_eq!(out, p2);
    }

    #[test]
    fn hard_fault_on_commit_record_aborts_full_commit() {
        use msnap_disk::{Fault, FaultPlan};
        let (mut disk, mut store, mut vt) = setup();
        store.set_delta_commits(false); // force the full-root path
        let obj = store.create(&mut vt, &mut disk, "db").unwrap();
        let p = page_of(1);
        let t = store.persist(&mut vt, &mut disk, obj, &[(0, &p)]).unwrap();
        StoreShard::wait(&mut vt, t);

        // Fail the *second* write of the commit (the root record), so the
        // tree was already mutated and committed in memory — the abort
        // must restore it.
        disk.set_fault_plan(
            FaultPlan::new().at(disk.io_seq() + 1, Fault::Drop { transient: false }),
        );
        let p2 = page_of(2);
        let err = store
            .persist(&mut vt, &mut disk, obj, &[(1, &p2)])
            .unwrap_err();
        assert!(matches!(err, StoreError::Io(_)));
        assert_eq!(store.epoch(obj), 1);
        assert_eq!(store.len_pages(obj), 1, "aborted page must not appear");

        // Subsequent commits and recovery still work.
        disk.clear_fault_plan();
        let t2 = store.persist(&mut vt, &mut disk, obj, &[(1, &p2)]).unwrap();
        StoreShard::wait(&mut vt, t2);
        disk.settle();
        let mut vt2 = Vt::new(1);
        let mut store2 = open_shard(&mut vt2, &mut disk).unwrap();
        let obj2 = store2.lookup("db").unwrap();
        assert_eq!(store2.epoch(obj2), 2);
        let mut out = page_of(0);
        store2
            .read_page(&mut vt2, &mut disk, obj2, 0, &mut out)
            .unwrap();
        assert_eq!(out, p);
        store2
            .read_page(&mut vt2, &mut disk, obj2, 1, &mut out)
            .unwrap();
        assert_eq!(out, p2);
    }

    #[test]
    fn batch_persist_is_two_ios_for_many_objects() {
        let (mut disk, mut store, mut vt) = setup();
        let a = store.create(&mut vt, &mut disk, "a").unwrap();
        let b = store.create(&mut vt, &mut disk, "b").unwrap();
        let c = store.create(&mut vt, &mut disk, "c").unwrap();
        let p1 = page_of(1);
        let p2 = page_of(2);
        let p3 = page_of(3);
        let before = disk.stats().writes();
        let ga = [(0, &p1[..]), (5, &p2[..])];
        let gb = [(9, &p2[..])];
        let gc = [(0, &p3[..])];
        let groups: Vec<(ObjectId, &[(u64, &[u8])])> =
            vec![(a, &ga[..]), (b, &gb[..]), (c, &gc[..])];
        let tokens = store.persist_batch(&mut vt, &mut disk, &groups).unwrap();
        // One data extent + one shared batch record for all three objects.
        assert_eq!(disk.stats().writes() - before, 2);
        assert_eq!(tokens.len(), 3);
        assert!(tokens.iter().all(|t| t.epoch == 1));
        assert!(tokens.windows(2).all(|w| w[0].completes == w[1].completes));
        assert_eq!(disk.stats().merged_submissions(), 1);
        assert_eq!(disk.stats().merged_parts(), 3);
        assert_eq!(store.stats().batch_commits, 1);
        assert_eq!(store.stats().batched_objects, 3);
        assert_eq!(store.stats().commits, 3);

        let mut out = page_of(0);
        for (obj, page, want) in [(a, 0, &p1), (a, 5, &p2), (b, 9, &p2), (c, 0, &p3)] {
            store
                .read_page(&mut vt, &mut disk, obj, page, &mut out)
                .unwrap();
            assert_eq!(&out, want);
        }
    }

    #[test]
    fn batch_initiation_is_charged_once() {
        // 8 objects × 2 pages batched must charge far less initiation CPU
        // than 8 separate persists (INITIATE_BASE is paid once).
        let (mut disk, mut store, mut vt) = setup();
        let ids: Vec<ObjectId> = (0..8)
            .map(|i| store.create(&mut vt, &mut disk, &format!("o{i}")).unwrap())
            .collect();
        let p = page_of(7);
        let pages: Vec<(u64, &[u8])> = vec![(0, &p[..]), (1, &p[..])];
        let groups: Vec<(ObjectId, &[(u64, &[u8])])> =
            ids.iter().map(|id| (*id, &pages[..])).collect();
        let before = vt.costs().get(Category::FileSystem);
        store.persist_batch(&mut vt, &mut disk, &groups).unwrap();
        let batched = vt.costs().get(Category::FileSystem) - before;
        let expect = costs::INITIATE_BASE + costs::INITIATE_PER_PAGE * 16;
        assert_eq!(batched, expect, "one initiation for the whole batch");
    }

    #[test]
    fn single_group_batches_take_the_plain_path() {
        let (mut disk, mut store, mut vt) = setup();
        let a = store.create(&mut vt, &mut disk, "a").unwrap();
        let p = page_of(1);
        let ga = [(0, &p[..])];
        let groups: Vec<(ObjectId, &[(u64, &[u8])])> = vec![(a, &ga[..])];
        let tokens = store.persist_batch(&mut vt, &mut disk, &groups).unwrap();
        assert_eq!(tokens.len(), 1);
        assert_eq!(store.stats().batch_commits, 0, "no batch record written");
        assert_eq!(store.stats().delta_commits, 1);
    }

    #[test]
    #[should_panic(expected = "one group, or several that fit one batch record")]
    fn shard_never_splits_a_batch_that_outgrows_one_record() {
        // Splitting is the façade's job (`ObjectStore::persist_batch`,
        // tested there); the shard has no serial fallback to hide in.
        let (mut disk, mut store, mut vt) = setup();
        let a = store.create(&mut vt, &mut disk, "a").unwrap();
        let b = store.create(&mut vt, &mut disk, "b").unwrap();
        let p = page_of(1);
        let pages: Vec<(u64, &[u8])> = (0..150).map(|i| (i, &p[..])).collect();
        let _ = store.persist_batch(&mut vt, &mut disk, &[(a, &pages), (b, &pages)]);
    }

    #[test]
    fn batch_recovery_restores_every_group() {
        let (mut disk, mut store, mut vt) = setup();
        let a = store.create(&mut vt, &mut disk, "a").unwrap();
        let b = store.create(&mut vt, &mut disk, "b").unwrap();
        let mut last = Nanos::ZERO;
        for round in 0..5u8 {
            let pa = page_of(10 + round);
            let pb = page_of(20 + round);
            let ga = [(round as u64, &pa[..])];
            let gb = [(round as u64, &pb[..])];
            let groups: Vec<(ObjectId, &[(u64, &[u8])])> = vec![(a, &ga[..]), (b, &gb[..])];
            let tokens = store.persist_batch(&mut vt, &mut disk, &groups).unwrap();
            last = tokens[0].completes;
            vt.wait_until(last);
        }
        disk.crash(last);

        let mut vt2 = Vt::new(1);
        let mut store2 = open_shard(&mut vt2, &mut disk).unwrap();
        let a2 = store2.lookup("a").unwrap();
        let b2 = store2.lookup("b").unwrap();
        assert_eq!(store2.epoch(a2), 5);
        assert_eq!(store2.epoch(b2), 5);
        let mut out = page_of(0);
        for round in 0..5u8 {
            store2
                .read_page(&mut vt2, &mut disk, a2, round as u64, &mut out)
                .unwrap();
            assert_eq!(out, page_of(10 + round));
            store2
                .read_page(&mut vt2, &mut disk, b2, round as u64, &mut out)
                .unwrap();
            assert_eq!(out, page_of(20 + round));
        }
    }

    #[test]
    fn torn_batch_extent_truncates_only_affected_objects() {
        use msnap_disk::{Fault, FaultPlan};
        let (mut disk, mut store, mut vt) = setup();
        let a = store.create(&mut vt, &mut disk, "a").unwrap();
        let b = store.create(&mut vt, &mut disk, "b").unwrap();
        // A durable baseline for both objects.
        let p = page_of(1);
        let ga = [(0, &p[..])];
        let gb = [(0, &p[..])];
        let groups: Vec<(ObjectId, &[(u64, &[u8])])> = vec![(a, &ga[..]), (b, &gb[..])];
        let t = store.persist_batch(&mut vt, &mut disk, &groups).unwrap();
        vt.wait_until(t[0].completes);

        // Next batch: a's page is the extent's first block, b's pages
        // follow. Tear the extent after one block — only b's payload is
        // lost, and only b's chain must truncate.
        let pa = page_of(2);
        let pb = page_of(3);
        disk.set_fault_plan(FaultPlan::new().at(disk.io_seq(), Fault::Torn { prefix_blocks: 1 }));
        let ga = [(0, &pa[..])];
        let gb = [(0, &pb[..])];
        let groups: Vec<(ObjectId, &[(u64, &[u8])])> = vec![(a, &ga[..]), (b, &gb[..])];
        let t = store.persist_batch(&mut vt, &mut disk, &groups).unwrap();
        disk.crash(t[1].completes);

        let mut vt2 = Vt::new(1);
        let mut store2 = open_shard(&mut vt2, &mut disk).unwrap();
        let a2 = store2.lookup("a").unwrap();
        let b2 = store2.lookup("b").unwrap();
        assert_eq!(store2.epoch(a2), 2, "a's share of the batch verified");
        assert_eq!(store2.epoch(b2), 1, "b's torn share truncated");
        let mut out = page_of(0);
        store2
            .read_page(&mut vt2, &mut disk, a2, 0, &mut out)
            .unwrap();
        assert_eq!(out, pa);
        store2
            .read_page(&mut vt2, &mut disk, b2, 0, &mut out)
            .unwrap();
        assert_eq!(out, p, "b rolls back to the baseline");
    }

    #[test]
    fn failed_batch_aborts_every_group_cleanly() {
        use msnap_disk::{Fault, FaultPlan};
        let (mut disk, mut store, mut vt) = setup();
        let a = store.create(&mut vt, &mut disk, "a").unwrap();
        let b = store.create(&mut vt, &mut disk, "b").unwrap();
        let p = page_of(1);
        let ga = [(0, &p[..])];
        let gb = [(0, &p[..])];
        let groups: Vec<(ObjectId, &[(u64, &[u8])])> = vec![(a, &ga[..]), (b, &gb[..])];
        let t = store.persist_batch(&mut vt, &mut disk, &groups).unwrap();
        vt.wait_until(t[0].completes);

        // Hard-fail the shared commit record: neither object may advance.
        disk.set_fault_plan(
            FaultPlan::new().at(disk.io_seq() + 1, Fault::Drop { transient: false }),
        );
        let p2 = page_of(2);
        let ga = [(0, &p2[..])];
        let gb = [(0, &p2[..])];
        let groups: Vec<(ObjectId, &[(u64, &[u8])])> = vec![(a, &ga[..]), (b, &gb[..])];
        let free = store.alloc.free_blocks();
        let high_water = store.alloc.high_water();
        let err = store
            .persist_batch(&mut vt, &mut disk, &groups)
            .unwrap_err();
        assert!(matches!(err, StoreError::Io(_)));
        assert_eq!(store.epoch(a), 1);
        assert_eq!(store.epoch(b), 1);
        assert_eq!(store.alloc.free_blocks(), free, "no leaked free list");
        assert_eq!(store.alloc.high_water(), high_water, "no leaked frontier");

        // The store keeps working afterwards.
        disk.clear_fault_plan();
        let t2 = store.persist_batch(&mut vt, &mut disk, &groups).unwrap();
        assert_eq!(t2[0].epoch, 2);
        assert_eq!(t2[1].epoch, 2);
    }

    #[test]
    fn batch_ring_reuse_flushes_live_objects_first() {
        let (mut disk, mut store, mut vt) = setup();
        let a = store.create(&mut vt, &mut disk, "a").unwrap();
        let b = store.create(&mut vt, &mut disk, "b").unwrap();
        let c = store.create(&mut vt, &mut disk, "c").unwrap();
        // Batch 0 includes `a`; then b+c batch until the ring wraps and
        // slot 0 is reused. `a` never commits again, so its batch-0 group
        // stays live until the reuse forces its full root.
        let pa = page_of(9);
        let ga = [(0, &pa[..])];
        let gb = [(0, &pa[..])];
        let gc = [(0, &pa[..])];
        let groups: Vec<(ObjectId, &[(u64, &[u8])])> =
            vec![(a, &ga[..]), (b, &gb[..]), (c, &gc[..])];
        let t = store.persist_batch(&mut vt, &mut disk, &groups).unwrap();
        vt.wait_until(t[0].completes);
        let mut last = Nanos::ZERO;
        for round in 0..BATCH_SLOTS {
            let pb = page_of((round % 200) as u8);
            let gb = [(1 + round, &pb[..])];
            let gc = [(1 + round, &pb[..])];
            let groups: Vec<(ObjectId, &[(u64, &[u8])])> = vec![(b, &gb[..]), (c, &gc[..])];
            let t = store.persist_batch(&mut vt, &mut disk, &groups).unwrap();
            last = t[0].completes;
            vt.wait_until(last);
        }
        assert!(
            store.stats().nodes_written > 0,
            "ring reuse must have flushed a full root"
        );
        // After the wrap `a`'s batch-0 record is gone; its state must
        // survive via its full root.
        disk.crash(last);
        let mut vt2 = Vt::new(1);
        let mut store2 = open_shard(&mut vt2, &mut disk).unwrap();
        let a2 = store2.lookup("a").unwrap();
        assert_eq!(store2.epoch(a2), 1, "a's epoch survives ring reuse");
        let mut out = page_of(0);
        store2
            .read_page(&mut vt2, &mut disk, a2, 0, &mut out)
            .unwrap();
        assert_eq!(out, pa);
    }

    #[test]
    fn batch_equals_serial_persists_after_recovery() {
        // The same commits applied batched and serially must recover to
        // identical epochs and contents.
        let run = |batched: bool| {
            let (mut disk, mut store, mut vt) = setup();
            let a = store.create(&mut vt, &mut disk, "a").unwrap();
            let b = store.create(&mut vt, &mut disk, "b").unwrap();
            let mut last = Nanos::ZERO;
            for round in 0..6u8 {
                let pa = page_of(round + 1);
                let pb = page_of(round + 101);
                let ga: [(u64, &[u8]); 2] = [(0, &pa[..]), (round as u64, &pa[..])];
                let gb: [(u64, &[u8]); 1] = [(2 * round as u64, &pb[..])];
                if batched {
                    let t = store
                        .persist_batch(&mut vt, &mut disk, &[(a, &ga[..]), (b, &gb[..])])
                        .unwrap();
                    last = t[1].completes;
                } else {
                    let t1 = store.persist(&mut vt, &mut disk, a, &ga).unwrap();
                    let t2 = store.persist(&mut vt, &mut disk, b, &gb).unwrap();
                    last = t1.completes.max(t2.completes);
                }
                vt.wait_until(last);
            }
            disk.crash(last);
            let mut vt2 = Vt::new(1);
            let mut store2 = open_shard(&mut vt2, &mut disk).unwrap();
            let a2 = store2.lookup("a").unwrap();
            let b2 = store2.lookup("b").unwrap();
            let mut image = Vec::new();
            for obj in [a2, b2] {
                image.push(store2.epoch(obj).to_le_bytes().to_vec());
                for page in 0..12u64 {
                    let mut out = page_of(0);
                    store2
                        .read_page(&mut vt2, &mut disk, obj, page, &mut out)
                        .unwrap();
                    image.push(out);
                }
            }
            image
        };
        assert_eq!(run(true), run(false));
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

    /// A shard holding one object with `pages` committed (page `p` filled
    /// with a byte derived from `p`), `per_commit` pages a commit; reopened
    /// cold if `reopen`. Returns the data block of every page too.
    fn build_object(
        pages: &[u64],
        per_commit: usize,
        reopen: bool,
    ) -> (Disk, StoreShard, Vt, ObjectId, Vec<u64>) {
        let (mut disk, mut shard, mut vt) = setup();
        let obj = shard.create(&mut vt, &mut disk, "o").unwrap();
        for chunk in pages.chunks(per_commit) {
            let data: Vec<(u64, Vec<u8>)> = chunk
                .iter()
                .map(|&p| (p, page_of((p % 251) as u8 + 1)))
                .collect();
            let refs: Vec<(u64, &[u8])> = data.iter().map(|(p, d)| (*p, &d[..])).collect();
            let token = shard.persist(&mut vt, &mut disk, obj, &refs).unwrap();
            StoreShard::wait(&mut vt, token);
        }
        disk.settle();
        let blocks = pages
            .iter()
            .map(|&p| shard.objects[0].tree.get(p).expect("page was committed"))
            .collect();
        if reopen {
            vt = Vt::new(1);
            shard = open_shard(&mut vt, &mut disk).unwrap();
        }
        (disk, shard, vt, obj, blocks)
    }

    /// What a reader saw: every page delivered, then how it ended.
    type ReadOutcome = (Vec<(u64, Vec<u8>)>, Result<(), StoreError>);

    fn read_serially(
        shard: &mut StoreShard,
        vt: &mut Vt,
        disk: &mut Disk,
        obj: ObjectId,
        first: u64,
        n: u64,
    ) -> ReadOutcome {
        let mut got = Vec::new();
        let mut buf = page_of(0);
        for page in first..first + n {
            if let Err(e) = shard.read_page(vt, disk, obj, page, &mut buf) {
                return (got, Err(e));
            }
            got.push((page, buf.clone()));
        }
        (got, Ok(()))
    }

    fn read_in_bulk(
        shard: &mut StoreShard,
        vt: &mut Vt,
        disk: &mut Disk,
        obj: ObjectId,
        first: u64,
        n: u64,
    ) -> ReadOutcome {
        let mut got = Vec::new();
        let res = shard.read_pages(vt, disk, obj, first, n, &mut |page, data| {
            got.push((page, data.to_vec()))
        });
        (got, res)
    }

    #[test]
    fn single_page_miss_keeps_its_qd1_price_and_a_chunk_is_one_vectored_read() {
        let pages: Vec<u64> = (0..BULK_READ_PAGES).collect();
        let (mut disk, mut shard, mut vt, obj, blocks) = build_object(&pages, 64, false);
        let qd1 = disk.config().segment_latency(BLOCK_SIZE);

        let t0 = vt.now();
        let mut buf = page_of(0);
        shard
            .read_page(&mut vt, &mut disk, obj, 7, &mut buf)
            .unwrap();
        assert_eq!(vt.now() - t0, qd1, "a one-page miss is one QD1 read");
        assert_eq!(buf, page_of(8));
        shard.drop_cache();

        // The same chunk read straight off an idle twin device.
        let mut twin = Disk::new(DiskConfig::paper());
        let direct = {
            let mut vt = Vt::new(9);
            readv_blocks(&mut vt, &mut twin, blocks.iter().copied()).unwrap();
            vt.now()
        };
        let reads = disk.stats().reads();
        let submissions = disk.stats().read_submissions();
        let t0 = vt.now();
        let (got, res) = read_in_bulk(&mut shard, &mut vt, &mut disk, obj, 0, BULK_READ_PAGES);
        res.unwrap();
        assert_eq!(vt.now() - t0, direct - Nanos::ZERO);
        assert!(
            vt.now() - t0 < qd1 * BULK_READ_PAGES / 8,
            "deep queue beats QD1 8x"
        );
        assert_eq!(
            disk.stats().reads() - reads,
            BULK_READ_PAGES,
            "one block a page"
        );
        assert_eq!(disk.stats().read_submissions() - submissions, 1);
        assert_eq!(got.len() as u64, BULK_READ_PAGES);
        for (page, data) in got {
            assert_eq!(data, page_of((page % 251) as u8 + 1), "page {page}");
        }
    }

    #[test]
    fn bulk_reads_serve_cache_hits_but_admit_no_data_pages() {
        let pages: Vec<u64> = (0..32).collect();
        let (mut disk, mut shard, mut vt, obj, _) = build_object(&pages, 32, true);
        let mut buf = page_of(0);
        for page in [3, 4] {
            shard
                .read_page(&mut vt, &mut disk, obj, page, &mut buf)
                .unwrap();
        }
        let cached = shard.cached_blocks();
        let before = shard.stats();
        let (got, res) = read_in_bulk(&mut shard, &mut vt, &mut disk, obj, 0, 40);
        res.unwrap();
        let after = shard.stats();
        assert_eq!(after.cache_hits - before.cache_hits, 2, "pages 3 and 4");
        assert_eq!(after.cache_misses - before.cache_misses, 30);
        assert_eq!(after.cache_evictions, before.cache_evictions);
        assert_eq!(shard.cached_blocks(), cached, "no data page was admitted");
        assert_eq!(got.len(), 40, "holes arrive too");
        assert!(got[32..].iter().all(|(_, d)| d.iter().all(|&b| b == 0)));
    }

    #[test]
    fn bulk_read_of_a_missing_object_is_not_found() {
        let (mut disk, mut shard, mut vt) = setup();
        let res = shard.read_pages(&mut vt, &mut disk, ObjectId(3), 0, 4, &mut |_, _| {
            panic!("nothing to deliver")
        });
        assert_eq!(res, Err(StoreError::NotFound));
    }

    #[test]
    fn failed_bulk_read_delivers_nothing_and_is_retryable() {
        let pages: Vec<u64> = (0..16).collect();
        let (mut disk, mut shard, mut vt, obj, _) = build_object(&pages, 16, false);
        shard.drop_cache();
        // The sixth block of the vectored read fails, transiently.
        disk.set_read_fault_plan(msnap_disk::ReadFaultPlan::new().at(disk.read_seq() + 5, true));
        let (got, res) = read_in_bulk(&mut shard, &mut vt, &mut disk, obj, 0, 16);
        assert!(matches!(res, Err(StoreError::Io(e)) if e.is_transient()));
        assert!(got.is_empty());
        assert_eq!(shard.quarantined_blocks(), 0);
        let (got, res) = read_in_bulk(&mut shard, &mut vt, &mut disk, obj, 0, 16);
        res.unwrap();
        assert_eq!(got.len(), 16);
    }

    mod equivalence {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// `read_pages` ≡ a loop of `read_page`: same bytes in the
            /// same order, same first error, same quarantine set — for
            /// sparse and dense objects, resident and cold trees, warm,
            /// cold and tiny caches, and seeded rot under the data.
            #[test]
            fn bulk_read_equals_a_loop_of_single_page_reads(
                pages in prop::collection::btree_set(0u64..1_100, 1..48),
                per_commit in 1usize..20,
                reopen in any::<bool>(),
                cache_sel in 0usize..3,
                warm in prop::collection::vec(0u64..1_100, 0..24),
                rot in (any::<u64>(), 0usize..6),
                range in (0u64..1_100, 1u64..160),
            ) {
                let pages: Vec<u64> = pages.into_iter().collect();
                let cache_blocks = [0, 3, DEFAULT_CACHE_BLOCKS][cache_sel];
                let (first, n) = range;
                let run = |read: fn(&mut StoreShard, &mut Vt, &mut Disk, ObjectId, u64, u64) -> ReadOutcome| {
                    let (mut disk, mut shard, mut vt, obj, blocks) =
                        build_object(&pages, per_commit, reopen);
                    shard.set_cache_capacity(cache_blocks);
                    disk.seeded_rot(rot.0, &blocks, rot.1);
                    let mut buf = page_of(0);
                    for &page in &warm {
                        let _ = shard.read_page(&mut vt, &mut disk, obj, page, &mut buf);
                    }
                    let t0 = vt.now();
                    let outcome = read(&mut shard, &mut vt, &mut disk, obj, first, n);
                    (outcome, shard.quarantined, vt.now() - t0, disk.read_seq())
                };
                let (serial, serial_quarantine, serial_time, serial_reads) = run(read_serially);
                let (bulk, bulk_quarantine, bulk_time, bulk_reads) = run(read_in_bulk);
                prop_assert_eq!(&bulk.1, &serial.1, "first error");
                prop_assert_eq!(&bulk.0, &serial.0, "delivered pages");
                prop_assert_eq!(bulk_quarantine, serial_quarantine);
                // (A serial loop that stops at an early error has read
                // less than the bulk read that finds the same error.)
                if serial.1.is_ok() {
                    prop_assert!(bulk_time <= serial_time, "{bulk_time} > {serial_time}");
                    // Nothing evicted: the two read exactly the same blocks.
                    if cache_blocks != 3 {
                        prop_assert_eq!(bulk_reads, serial_reads);
                    }
                }
            }
        }
    }
}
