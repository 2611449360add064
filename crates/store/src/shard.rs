//! The store façade: `N ≥ 1` [`StoreShard`]s behind one [`ObjectStore`].
//!
//! A single [`StoreShard`] serializes every mutator on one allocator
//! frontier and one batch ring. This module partitions the device into
//! `N` shards — each a complete store (own allocator, radix forest,
//! batch ring, snapshot catalog) — so commits against different shards
//! share *no* state on the hot path. Three pieces make that safe:
//!
//! - **Shard map.** Objects map to shards by a stable hash of their
//!   name ([`shard_of_name`]); a global [`ObjectId`] encodes `(shard << 24) | local`
//!   so every existing id-based API keeps working unchanged.
//! - **Extent broker.** A top-level [`ExtentBroker`] hands each shard
//!   disjoint block extents on demand; shard allocators are range-
//!   bounded and never collide. Operations that hit the range end
//!   abort cleanly with `OutOfSpace` (the per-shard commit protocol
//!   already guarantees clean aborts), the wrapper grants another
//!   extent, and retries — grants survive aborts, so the retry makes
//!   progress and terminates when the device is truly full.
//! - **Epoch-vector cuts.** Cross-shard consistency is named by a
//!   [`VectorCut`] `[e_0..e_{N-1}]` of per-shard epoch sums, taken with
//!   a two-phase fuzzy cut (callers drain in-flight group-commit
//!   tickets, [`ObjectStore::cut`] stamps and persists, callers
//!   release). The cut record is submitted no earlier than every member
//!   commit's durability instant, so *a durable cut implies every
//!   commit it names is durable* — recovery and replica promotion can
//!   always land on a complete cut, never a mixed-epoch manifest.
//!
//! There is one device layout: a single-shard store
//! ([`ObjectStore::format`]) is the `N = 1` instance of it, with the same
//! superblock, cut slots, broker-fed allocator and durable cuts.

use msnap_disk::{Disk, BLOCK_SIZE};
use msnap_sim::hash::fnv1a_bytewise;
use msnap_sim::{Category, Nanos, Vt};

use crate::layout::{
    BatchRecord, CutRecord, Epoch, ObjectId, ShardLayout, SnapEntry, Superblock, CUT_SLOTS,
    CUT_SLOT_START, MAX_SHARDS, SHARD_ID_SHIFT,
};
use crate::store::{
    readv_blocks, retry_transient, CommitPage, CommitToken, ScrubStats, StoreError, StoreShard,
    StoreStats, UnrepairedPage,
};
#[cfg(doc)]
use crate::{DeltaRecord, MAX_DELTA_PAIRS, MAX_IO_ATTEMPTS, OVERLAY_PAGE_BUDGET};

/// Blocks per broker extent (1 MiB). Large enough that a shard's commit
/// extents stay device-sequential, small enough that idle shards do not
/// strand device space.
pub const DEFAULT_EXTENT_BLOCKS: u64 = 256;

/// Mask extracting the shard-local part of a global [`ObjectId`].
const LOCAL_MASK: u32 = (1 << SHARD_ID_SHIFT) - 1;

/// Hands out disjoint, monotonically increasing block extents to shard
/// allocators. The broker is the *only* cross-shard allocation state,
/// touched once per extent (every [`DEFAULT_EXTENT_BLOCKS`] blocks),
/// never per commit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtentBroker {
    /// First block of the next extent to grant.
    next: u64,
    /// Granularity of a single-extent grant.
    extent_blocks: u64,
    /// First invalid block (device capacity), if bounded.
    capacity: Option<u64>,
}

impl ExtentBroker {
    fn new(first_block: u64, extent_blocks: u64, capacity: Option<u64>) -> Self {
        ExtentBroker {
            next: first_block,
            extent_blocks,
            capacity,
        }
    }

    /// Grants `[start, end)` covering `extents` extent-sized chunks
    /// (the final grant at capacity may be partial). Returns `None`
    /// when the device is exhausted.
    pub fn grant(&mut self, extents: u64) -> Option<(u64, u64)> {
        let want = extents.max(1).saturating_mul(self.extent_blocks);
        let end = self.next.saturating_add(want);
        let end = match self.capacity {
            Some(c) => end.min(c),
            None => end,
        };
        if end <= self.next {
            return None;
        }
        let range = (self.next, end);
        self.next = end;
        Some(range)
    }

    /// First block the broker has not yet granted.
    pub fn next_block(&self) -> u64 {
        self.next
    }
}

/// A named cross-shard consistency point: per-shard epoch sums
/// `[e_0..e_{N-1}]` stamped atomically after draining in-flight
/// commits. Snapshots, delta streams, and replication promote only
/// complete cuts, so no reader ever observes object A at epoch `N`
/// and object B at `N−1` across shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VectorCut {
    /// Monotone cut sequence number.
    pub seq: u64,
    /// Per-shard epoch sums at the stamp instant, indexed by shard.
    pub epochs: Vec<u64>,
}

impl VectorCut {
    /// Whether this cut is *complete* under the given per-shard epoch
    /// sums: every component has been reached. A replica promotes only
    /// at announced cuts that are complete under its own recovered
    /// epochs.
    pub fn complete_under(&self, epochs: &[u64]) -> bool {
        self.epochs.len() == epochs.len() && self.epochs.iter().zip(epochs).all(|(c, e)| c <= e)
    }
}

/// The copy-on-write object store: the crate's one public store type.
/// Owns `N ≥ 1` shards, the [`ExtentBroker`] partitioning the data area
/// between them, and the epoch-vector cut state.
pub struct ObjectStore {
    shards: Vec<StoreShard>,
    broker: ExtentBroker,
    /// Next cut sequence number.
    cut_seq: u64,
    /// Newest durable cut.
    last_cut: Option<VectorCut>,
}

/// The shard of a `shards`-wide store an object name maps to: published
/// byte-wise FNV-1a of the name modulo the width. A format constant —
/// independent of the (word-wise) content digest — so a peer can
/// evaluate another store's shard map from names alone.
pub fn shard_of_name(name: &str, shards: usize) -> usize {
    (fnv1a_bytewise(name.as_bytes()) % shards as u64) as usize
}

impl ObjectStore {
    /// Formats `disk` as a single-shard store and returns it:
    /// [`ObjectStore::format_sharded`] with `shard_count = 1`.
    pub fn format(disk: &mut Disk) -> Self {
        Self::format_sharded(disk, 1)
    }

    /// Formats `disk` as a store with `shard_count` shards and returns
    /// it. Writes the superblock, the initial (all-zeros) cut record,
    /// and each shard's metadata slab.
    ///
    /// # Panics
    ///
    /// If `shard_count` is 0 or exceeds [`MAX_SHARDS`], or the device
    /// fails during formatting (injecting faults into `format` is
    /// unsupported).
    pub fn format_sharded(disk: &mut Disk, shard_count: usize) -> Self {
        assert!(
            (1..=MAX_SHARDS).contains(&shard_count),
            "shard_count must be in 1..={MAX_SHARDS}"
        );
        let sb = Superblock {
            shard_count: shard_count as u64,
            extent_blocks: DEFAULT_EXTENT_BLOCKS,
        };
        disk.write_block_at(Nanos::ZERO, 0, &sb.to_block())
            .expect("formatting a faulty device is unsupported");
        // Cut slot 1 holds the genesis cut (seq 0, all epochs 0); slot 2
        // is zeroed so recovery never mistakes stale bytes for a cut.
        let genesis = CutRecord {
            seq: 0,
            epochs: vec![0; shard_count],
        };
        disk.write_block_at(Nanos::ZERO, CutRecord::slot(0), &genesis.to_block())
            .expect("formatting a faulty device is unsupported");
        let zero = [0u8; BLOCK_SIZE];
        for slot in CUT_SLOT_START..CUT_SLOT_START + CUT_SLOTS {
            if slot != CutRecord::slot(0) {
                disk.write_block_at(Nanos::ZERO, slot, &zero)
                    .expect("formatting a faulty device is unsupported");
            }
        }
        let mut shards = Vec::with_capacity(shard_count);
        let mut data_floor = 0;
        for s in 0..shard_count {
            let layout = ShardLayout::sharded(s, shard_count);
            data_floor = layout.data_floor;
            shards.push(StoreShard::format_at(disk, layout));
        }
        disk.settle();
        let broker = ExtentBroker::new(
            data_floor,
            DEFAULT_EXTENT_BLOCKS,
            disk.config().capacity_blocks,
        );
        ObjectStore {
            shards,
            broker,
            cut_seq: 1,
            last_cut: Some(VectorCut {
                seq: 0,
                epochs: vec![0; shard_count],
            }),
        }
    }

    /// Opens the store from a (possibly crashed) device: opens every
    /// shard and adopts the newest durable complete [`VectorCut`].
    ///
    /// Every read is fallible and the fixed metadata ranges are read
    /// vectored (see [`ObjectStore::read_pages`] for why that matters); a
    /// failed read abandons the open with nothing built, and a retry on
    /// the same device starts from scratch.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFormatted`] if block 0 is not a valid superblock;
    /// [`StoreError::Io`] if a device read fails.
    pub fn open(vt: &mut Vt, disk: &mut Disk) -> Result<Self, StoreError> {
        // The superblock and the cut slots behind it: one vectored read.
        let head = readv_blocks(vt, disk, 0..CUT_SLOT_START + CUT_SLOTS)?;
        let (sb, cut_slots) = head.split_at(CUT_SLOT_START as usize * BLOCK_SIZE);
        let sup = Superblock::from_block(sb).ok_or(StoreError::NotFormatted)?;
        let n = sup.shard_count as usize;
        let extent = sup.extent_blocks;
        let mut shards = Vec::with_capacity(n);
        for s in 0..n {
            shards.push(StoreShard::open_at(vt, disk, ShardLayout::sharded(s, n))?);
        }
        // Re-grant each shard the unused tail of the extent its frontier
        // stopped in (extent boundaries are `extent`-aligned relative to
        // the data floor, so tails of distinct shards never overlap),
        // and restart the broker past the furthest extent any shard
        // reached. Extents granted but never allocated from before the
        // crash are forgotten — their blocks are unreferenced garbage
        // and will simply be granted again.
        let data_floor = ShardLayout::sharded(0, n).data_floor;
        let capacity = disk.config().capacity_blocks;
        let mut broker_next = data_floor;
        for shard in &mut shards {
            let hw = shard.high_water();
            if hw <= data_floor {
                continue;
            }
            let mut extent_end = data_floor + (hw - data_floor).div_ceil(extent) * extent;
            if let Some(c) = capacity {
                extent_end = extent_end.min(c);
            }
            if extent_end > hw {
                shard.grant_range(hw, extent_end);
            }
            broker_next = broker_next.max(extent_end);
        }
        let broker = ExtentBroker::new(broker_next, extent, capacity);
        // Adopt the newest valid cut that is complete under the
        // recovered epochs. A cut torn mid-write fails its checksum; a
        // durable cut is always complete (it was submitted after every
        // member commit's durability instant), so the component-wise
        // check is a corruption guard, not an expected path.
        let sums: Vec<u64> = shards.iter().map(|s| s.epoch_sum()).collect();
        let mut best: Option<VectorCut> = None;
        for slot in cut_slots.chunks(BLOCK_SIZE) {
            if let Some(rec) = CutRecord::from_block(slot) {
                let cut = VectorCut {
                    seq: rec.seq,
                    epochs: rec.epochs,
                };
                if cut.complete_under(&sums) && best.as_ref().is_none_or(|b| cut.seq > b.seq) {
                    best = Some(cut);
                }
            }
        }
        let cut_seq = best.as_ref().map_or(0, |b| b.seq + 1);
        Ok(ObjectStore {
            shards,
            broker,
            cut_seq,
            last_cut: best,
        })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard an object name maps to.
    pub fn shard_of(&self, name: &str) -> usize {
        shard_of_name(name, self.shards.len())
    }

    /// The shard a global object id lives on.
    pub fn shard_of_id(&self, id: ObjectId) -> usize {
        self.split(id).0
    }

    fn split(&self, id: ObjectId) -> (usize, ObjectId) {
        (
            (id.0 >> SHARD_ID_SHIFT) as usize,
            ObjectId(id.0 & LOCAL_MASK),
        )
    }

    fn join(shard: usize, local: ObjectId) -> ObjectId {
        ObjectId(((shard as u32) << SHARD_ID_SHIFT) | local.0)
    }

    /// Runs `op` against shard `shard`, growing its block range through
    /// the broker whenever the operation runs out of space. `op` must be
    /// one atomic shard operation — one that aborts cleanly on
    /// `OutOfSpace` (no epoch advanced, no blocks leaked), because it is
    /// re-run whole. The grant itself survives the abort, so
    /// each retry strictly enlarges the usable range; the grant size
    /// doubles per retry so any single contiguous extent demand is met,
    /// and a `None` grant means the device is truly full.
    fn with_grants<T>(
        &mut self,
        shard: usize,
        mut op: impl FnMut(&mut StoreShard) -> Result<T, StoreError>,
    ) -> Result<T, StoreError> {
        let mut extents = 1u64;
        loop {
            match op(&mut self.shards[shard]) {
                Err(StoreError::OutOfSpace) => {
                    let Some((start, end)) = self.broker.grant(extents) else {
                        return Err(StoreError::OutOfSpace);
                    };
                    self.shards[shard].grant_range(start, end);
                    extents = extents.saturating_mul(2);
                }
                other => return other,
            }
        }
    }

    /// Creates an empty object named `name`, hashed to its home shard.
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
        let shard = self.shard_of(name);
        let local = self.with_grants(shard, |s| s.create(vt, disk, name))?;
        Ok(Self::join(shard, local))
    }

    /// Looks up an object by name.
    pub fn lookup(&self, name: &str) -> Option<ObjectId> {
        let shard = self.shard_of(name);
        self.shards[shard]
            .lookup(name)
            .map(|local| Self::join(shard, local))
    }

    /// Names of all objects, shard-major in id order.
    pub fn object_names(&self) -> Vec<String> {
        self.shards.iter().flat_map(|s| s.object_names()).collect()
    }

    /// The name of an object id, if it exists.
    pub fn object_name(&self, id: ObjectId) -> Option<String> {
        let (shard, local) = self.split(id);
        self.shards
            .get(shard)?
            .object_name(local)
            .map(str::to_string)
    }

    /// The object's current epoch.
    pub fn epoch(&self, id: ObjectId) -> Epoch {
        let (shard, local) = self.split(id);
        self.shards[shard].epoch(local)
    }

    /// The object's length in pages.
    pub fn len_pages(&self, id: ObjectId) -> u64 {
        let (shard, local) = self.split(id);
        self.shards[shard].len_pages(local)
    }

    /// The durability instant of the object's latest μCheckpoint.
    pub fn last_commit(&self, id: ObjectId) -> Nanos {
        let (shard, local) = self.split(id);
        self.shards[shard].last_commit(local)
    }

    /// Store-wide statistics, summed across shards.
    pub fn stats(&self) -> StoreStats {
        self.shards
            .iter()
            .map(|s| s.stats())
            .fold(StoreStats::default(), add_stats)
    }

    /// Per-shard statistics, indexed by shard — the attribution surface
    /// for benches and replication link metrics.
    pub fn shard_stats(&self) -> Vec<StoreStats> {
        self.shards.iter().map(|s| s.stats()).collect()
    }

    /// Per-shard epoch sums right now — the vector a cut would stamp.
    pub fn epoch_vector(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.epoch_sum()).collect()
    }

    /// The newest stamped cut, if any.
    pub fn last_cut(&self) -> Option<&VectorCut> {
        self.last_cut.as_ref()
    }

    /// Stamps and durably persists an epoch-vector cut.
    ///
    /// This is the *stamp* phase of the fuzzy cut: callers first drain
    /// in-flight group-commit tickets (flush open batches), then stamp,
    /// then release new commits. The cut record is submitted no earlier
    /// than every shard's durability frontier, so a durable cut record
    /// implies every commit it counts is durable — the invariant the
    /// crash sweep and replica promotion rely on.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the cut record cannot be written.
    pub fn cut(&mut self, vt: &mut Vt, disk: &mut Disk) -> Result<VectorCut, StoreError> {
        let cut = VectorCut {
            seq: self.cut_seq,
            epochs: self.epoch_vector(),
        };
        let rec = CutRecord {
            seq: cut.seq,
            epochs: cut.epochs.clone(),
        };
        let at = self
            .shards
            .iter()
            .map(|s| s.max_chain_completes())
            .max()
            .unwrap_or(Nanos::ZERO)
            .max(vt.now());
        let iov = [(CutRecord::slot(rec.seq), &rec.to_block()[..])];
        let token = retry_transient(disk, at, &iov).map_err(StoreError::Io)?;
        Disk::wait(vt, token);
        self.cut_seq += 1;
        self.last_cut = Some(cut.clone());
        Ok(cut)
    }

    /// Drops every cached block in every shard without resizing. Tests
    /// that corrupt the device behind the store's back call this so the
    /// next read observes the raw device, as direct IO would.
    pub fn drop_cache(&mut self) {
        for s in &mut self.shards {
            s.drop_cache();
        }
    }

    /// Blocks currently resident across all shard caches.
    pub fn cached_blocks(&self) -> usize {
        self.shards.iter().map(|s| s.cached_blocks()).sum()
    }

    /// Ablation knob: when `false`, every μCheckpoint flushes the COW
    /// tree and writes a full root (no delta-record fast path).
    pub fn set_delta_commits(&mut self, enabled: bool) {
        for s in &mut self.shards {
            s.set_delta_commits(enabled);
        }
    }

    /// Commits a μCheckpoint of whole pages: durably persists `pages`
    /// (page index, page image) into `object` as one atomic epoch — the
    /// one-group, mask-less case of [`ObjectStore::persist_batch`].
    ///
    /// The call charges the *CPU* cost of initiating the writes and
    /// returns without blocking; the returned token carries the
    /// completion instant. Synchronous callers follow with
    /// [`ObjectStore::wait`].
    ///
    /// # Errors
    ///
    /// As [`ObjectStore::persist_batch`].
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

    /// Commits several objects' μCheckpoints, each group as one epoch of
    /// its object; each page is a [`CommitPage`] — a `(page, image)` pair,
    /// or `(page, image, lines)` when the committer tracked the changed
    /// lines.
    ///
    /// This is the only place a commit is ever split: by home shard,
    /// then — when a shard's share is several groups too large for one
    /// [`BatchRecord`] — group by group. Each unit is one atomic shard
    /// commit, all of its groups or none, and its own grant-retry unit:
    /// `with_grants` only ever re-runs an attempt that aborted whole, so
    /// no group can commit twice. Tokens return in input order.
    /// Atomicity is per unit: an error from one unit does not roll back
    /// an earlier unit's already-durable commit.
    ///
    /// A unit of **one group** commits as a data extent plus a
    /// [`DeltaRecord`] in the object's own ring — or, when it is oversized
    /// or the object's delta window is full, as a full root that first
    /// flushes the COW tree's dirty nodes. When every page of the group
    /// names its changed lines ([`CommitPage::lines`]) and they fit the
    /// record block, the record carries the lines and is the commit's
    /// **only write**: no data block is allocated, and the patched pages
    /// wait in the object's overlay for the next full root (forced early
    /// if the overlay would outgrow [`OVERLAY_PAGE_BUDGET`]). A zero mask,
    /// a line too many or more than [`MAX_DELTA_PAIRS`] pages each fall
    /// back to whole pages. A unit of **several groups** (the group-commit
    /// path) commits as one contiguous data extent covering every group's
    /// pages followed by one [`BatchRecord`] carrying each object's
    /// `(page, block)` pairs and per-object payload checksum:
    /// `INITIATE_BASE` and the commit-record IO are paid once for the
    /// whole batch instead of once per object. Each group still commits
    /// its own epoch and gets its own [`CommitToken`] (all sharing the
    /// batch's completion instant), and recovery truncation stays
    /// per-object: a torn extent segment only truncates the chains of
    /// the objects whose payload it corrupts.
    ///
    /// Two ordering rules hold for every record written. No delta or
    /// batch record is submitted before its objects' newest full roots
    /// are durable (its ring slot may be the one recovery still needs
    /// until then), and a commit's [`CommitToken::completes`] is never
    /// earlier than its predecessor's, so an acknowledged commit always
    /// has a durable prefix under it.
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
    /// Panics if a page image is not exactly [`BLOCK_SIZE`] bytes, or if
    /// groups that share one batch record name the same object or carry
    /// no pages.
    pub fn persist_batch<P: CommitPage>(
        &mut self,
        vt: &mut Vt,
        disk: &mut Disk,
        groups: &[(ObjectId, &[P])],
    ) -> Result<Vec<CommitToken>, StoreError> {
        // (shard, input index), shard-major and in input order within.
        let mut order: Vec<(usize, usize)> = (0..groups.len())
            .map(|i| (self.split(groups[i].0).0, i))
            .collect();
        order.sort_unstable();
        let mut out: Vec<(usize, CommitToken)> = Vec::with_capacity(groups.len());
        let mut local: Vec<(ObjectId, &[P])> = Vec::new();
        for share in order.chunk_by(|a, b| a.0 == b.0) {
            let shard = share[0].0;
            local.clear();
            local.extend(
                share
                    .iter()
                    .map(|&(_, i)| (self.split(groups[i].0).1, groups[i].1)),
            );
            // The whole share as one unit if it fits one record.
            let per_unit = if BatchRecord::fits(local.iter().map(|(_, p)| p.len())) {
                local.len()
            } else {
                1
            };
            for (unit, indices) in local.chunks(per_unit).zip(share.chunks(per_unit)) {
                let tokens = self.with_grants(shard, |s| s.persist_batch(vt, disk, unit))?;
                out.extend(indices.iter().map(|&(_, i)| i).zip(tokens));
            }
        }
        out.sort_unstable_by_key(|&(i, _)| i);
        Ok(out.into_iter().map(|(_, token)| token).collect())
    }

    /// Pins `object`'s current epoch as the named, persisted snapshot and
    /// returns the pinned epoch. Snapshot names are unique store-wide
    /// (across shards).
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
        let (shard, local) = self.split(object);
        if self.snap_shard(name).is_some_and(|s| s != shard) {
            return Err(StoreError::SnapshotExists);
        }
        self.with_grants(shard, |s| s.snapshot_create(vt, disk, local, name))
    }

    /// The shard holding the named snapshot, if any.
    fn snap_shard(&self, name: &str) -> Option<usize> {
        self.shards
            .iter()
            .position(|s| s.snapshot_lookup(name).is_some())
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
        let shard = self.snap_shard(name).ok_or(StoreError::SnapshotNotFound)?;
        self.with_grants(shard, |s| s.snapshot_delete(vt, disk, name))
    }

    /// All retained snapshots, shard-major in catalog order, with
    /// object ids translated to their global form.
    pub fn snapshots(&self) -> Vec<SnapEntry> {
        self.shards
            .iter()
            .enumerate()
            .flat_map(|(shard, s)| {
                s.snapshots().into_iter().map(move |mut e| {
                    e.object = Self::join(shard, e.object);
                    e
                })
            })
            .collect()
    }

    /// Looks up a retained snapshot by name. The returned entry's
    /// object id is global.
    pub fn snapshot_lookup(&self, name: &str) -> Option<SnapEntry> {
        self.shards.iter().enumerate().find_map(|(shard, s)| {
            s.snapshot_lookup(name).map(|e| {
                let mut e = e.clone();
                e.object = Self::join(shard, e.object);
                e
            })
        })
    }

    /// Reads one page of the named snapshot — the object's image as of
    /// the pinned epoch, regardless of anything committed since. Pages
    /// unwritten at that epoch read as zeroes.
    ///
    /// The snapshot is looked up by name, its tree hydrates on
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
        let shard = self.snap_shard(name).ok_or(StoreError::SnapshotNotFound)?;
        self.shards[shard].read_page_at(vt, disk, name, page, out)
    }

    /// [`ObjectStore::read_pages`] of the named snapshot: pages
    /// `first_page .. first_page + n` as of the pinned epoch, one
    /// vectored, digest-verified device read for those not cached, none
    /// admitted to the cache.
    ///
    /// # Errors
    ///
    /// [`StoreError::SnapshotNotFound`]; otherwise as
    /// [`ObjectStore::read_pages`], `sink` contract included.
    pub fn read_pages_at(
        &mut self,
        vt: &mut Vt,
        disk: &mut Disk,
        name: &str,
        first_page: u64,
        n: u64,
        sink: &mut dyn FnMut(u64, &[u8]),
    ) -> Result<(), StoreError> {
        let shard = self.snap_shard(name).ok_or(StoreError::SnapshotNotFound)?;
        self.shards[shard].read_pages_at(vt, disk, name, first_page, n, sink)
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
    /// different objects (or live on different shards), or [`StoreError::Io`] if a demand-load read of
    /// a divergent subtree fails (the trees stay unpoisoned; retry).
    pub fn snapshot_diff(
        &mut self,
        vt: &mut Vt,
        disk: &mut Disk,
        base: Option<&str>,
        target: &str,
    ) -> Result<Vec<u64>, StoreError> {
        let shard = self
            .snap_shard(target)
            .ok_or(StoreError::SnapshotNotFound)?;
        if let Some(b) = base {
            match self.snap_shard(b) {
                Some(s) if s == shard => {}
                Some(_) => return Err(StoreError::SnapshotMismatch),
                None => return Err(StoreError::SnapshotNotFound),
            }
        }
        self.shards[shard].snapshot_diff(vt, disk, base, target)
    }

    /// The store's one image door: commits `pages` as one crash-atomic
    /// full image of `object` landing exactly at `target_epoch`, which
    /// must be ahead of the object's live epoch (full roots, unlike delta
    /// records, may jump epochs). The root-record write is the single
    /// commit point, so a crash anywhere during the apply recovers the
    /// object at exactly its previous epoch or exactly `target_epoch`,
    /// never between. Replication lands every ship here.
    ///
    /// With `base = None` the image applies over the live tree. Empty
    /// `pages` is then the **promotion fence**: a replica promoted to
    /// primary first jumps each object's epoch past anything the failed
    /// primary could have durably committed, without changing content, so
    /// every epoch the new primary hands out is strictly newer than the
    /// abandoned history and the forward-only rule keeps holding on every
    /// node.
    ///
    /// With `base = Some(snapshot)` the image is a **rebase**: `pages`
    /// apply on top of that retained snapshot of the object, not the live
    /// tree, abandoning everything the object committed since. This is
    /// how a failed primary rejoins as a replica: its live tree holds
    /// epochs the new primary never acknowledged (a divergent history),
    /// but both sides retain the last shipped-and-acked snapshot, so the
    /// new primary ships a delta diffed against that common base and the
    /// old primary lands it here. A crash mid-rebase recovers the object
    /// at exactly its divergent epoch or exactly `target_epoch`, never a
    /// blend. Blocks only the abandoned history reached are quarantined
    /// and recycled once the rebase root is durable (snapshot pins still
    /// withhold what retained epochs reach).
    ///
    /// # Errors
    ///
    /// In this order: [`StoreError::SnapshotNotFound`] /
    /// [`StoreError::SnapshotMismatch`] for a bad `base`,
    /// [`StoreError::NotFound`], [`StoreError::StaleEpoch`] if
    /// `target_epoch` is not ahead of the live epoch; then
    /// [`StoreError::OutOfSpace`] or [`StoreError::Io`]. On error the
    /// object is unchanged, divergent history included, and nothing
    /// leaks.
    pub fn apply_image(
        &mut self,
        vt: &mut Vt,
        disk: &mut Disk,
        object: ObjectId,
        base: Option<&str>,
        pages: &[(u64, &[u8])],
        target_epoch: Epoch,
    ) -> Result<CommitToken, StoreError> {
        let (shard, local) = self.split(object);
        self.with_grants(shard, |s| {
            s.apply_image(vt, disk, local, base, pages, target_epoch)
        })
    }

    /// Disk blocks pinned by retained snapshots, across shards.
    pub fn pinned_blocks(&self) -> usize {
        self.shards.iter().map(|s| s.pinned_blocks()).sum()
    }

    /// Pinned blocks whose recycle gate has passed, across shards: they
    /// are withheld from the allocator until their last pin drops.
    pub fn withheld_blocks(&self) -> usize {
        self.shards.iter().map(|s| s.withheld_blocks()).sum()
    }

    /// Blocks the calling thread's virtual clock until `token`'s
    /// μCheckpoint is durable.
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
    /// [`ObjectStore::read_pages`]).
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
        let (shard, local) = self.split(object);
        self.shards[shard].read_page(vt, disk, local, page, out)
    }

    /// Reads pages `first_page .. first_page + n` of `object` in bulk and
    /// hands each to `sink(page, bytes)` in page order; pages never
    /// written arrive as zeroes.
    ///
    /// Entries resolve as for [`ObjectStore::read_page`] (hydrating nodes
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
    /// As [`ObjectStore::read_page`]. On [`StoreError::CorruptData`] —
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
        let (shard, local) = self.split(object);
        self.shards[shard].read_pages(vt, disk, local, first_page, n, sink)
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
    /// The cursor is resumable: scrub walks each shard's radix forest
    /// object by object, page by page, and picks up exactly where the
    /// budget ran out. It walks the shards in turn: the whole remaining
    /// budget goes to the lowest-indexed shard still on the store-wide
    /// pass, and moves on only when that shard's pass wraps — so a slice
    /// is the one vectored submission a single shard makes of it, not
    /// one per shard. Node blocks shared by several trees (COW) are
    /// verified once per pass; unloaded subtrees are digest-verified by
    /// hydration
    /// itself, whenever they first load. The call that completes the
    /// store-wide pass returns without starting the next;
    /// [`ScrubStats::passes`] counts full passes over *every* shard's
    /// forest.
    ///
    /// On a digest mismatch the block is quarantined (never recycled,
    /// never served) and scrub repairs in preference order: a corrupt
    /// *resident* node is rewritten from its clean in-memory copy via a
    /// crash-atomic full-root flush; a corrupt leaf page is
    /// re-materialized from the newest retained snapshot still holding an
    /// independent clean copy. Pages with no clean local source are
    /// reported through [`ObjectStore::unrepaired_pages`] for a peer to
    /// heal via [`ObjectStore::repair_page`]. Repaired pages always land
    /// through the normal crash-atomic commit path — never in place.
    ///
    /// Returns the summed statistics delta for this call; cumulative
    /// totals are at [`ObjectStore::scrub_stats`].
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
        let pass = self.scrub_passes();
        let behind = |s: &StoreShard| s.scrub_stats().passes == pass;
        let mut total = ScrubStats::default();
        let mut remaining = budget;
        while remaining > 0 {
            let Some(shard) = self.shards.iter().position(behind) else {
                break;
            };
            let delta = self.with_grants(shard, |s| s.scrub(vt, disk, remaining))?;
            total = add_scrub(total, delta);
            if delta.passes == 0 {
                break; // out of budget short of the shard's pass boundary
            }
            remaining = remaining.saturating_sub(delta.io_spent);
        }
        total.passes = self.scrub_passes() - pass;
        Ok(total)
    }

    /// Store-wide scrub passes completed: the minimum over shards (a
    /// store-wide pass requires every shard to finish one).
    fn scrub_passes(&self) -> u64 {
        let passes = self.shards.iter().map(|s| s.scrub_stats().passes);
        passes.min().unwrap_or(0)
    }

    /// Cumulative scrub statistics across every [`ObjectStore::scrub`]
    /// call (and peer repairs landed via [`ObjectStore::repair_page`]),
    /// summed across shards; `passes` is the store-wide count.
    pub fn scrub_stats(&self) -> ScrubStats {
        let mut total = self
            .shards
            .iter()
            .map(|s| s.scrub_stats())
            .fold(ScrubStats::default(), add_scrub);
        total.passes = self.scrub_passes();
        total
    }

    /// Corrupt pages quarantined with no clean local source, across
    /// shards, with object ids translated to their global form:
    /// replication turns these into `RepairRequest` messages, and a
    /// verified peer copy heals them through [`ObjectStore::repair_page`].
    /// Any commit that lands a reported page supersedes its rotted block
    /// and drops the report with it.
    pub fn unrepaired_pages(&self) -> Vec<UnrepairedPage> {
        self.shards
            .iter()
            .enumerate()
            .flat_map(|(shard, s)| {
                s.unrepaired_pages().into_iter().map(move |mut u| {
                    u.object = Self::join(shard, u.object);
                    u
                })
            })
            .collect()
    }

    /// Blocks quarantined after failing digest verification, across
    /// shards. They are never recycled and never served again.
    pub fn quarantined_blocks(&self) -> usize {
        self.shards.iter().map(|s| s.quarantined_blocks()).sum()
    }

    /// Heals `page` with a clean copy fetched from elsewhere — typically
    /// a replication peer answering a `PageRepairRequest`: verifies
    /// `data` against the page's expected digest, quarantines the rotted
    /// block, and commits the clean bytes at the object's current epoch
    /// through the ordinary crash-atomic commit path, never in place.
    ///
    /// Also the idempotent landing point for pages the scrubber reported
    /// through [`ObjectStore::unrepaired_pages`].
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
        let (shard, local) = self.split(object);
        self.with_grants(shard, |s| s.repair_page(vt, disk, local, page, data))
    }
}

/// Component-wise sum of two [`StoreStats`].
fn add_stats(a: StoreStats, b: StoreStats) -> StoreStats {
    StoreStats {
        commits: a.commits + b.commits,
        delta_commits: a.delta_commits + b.delta_commits,
        pages_written: a.pages_written + b.pages_written,
        nodes_written: a.nodes_written + b.nodes_written,
        batch_commits: a.batch_commits + b.batch_commits,
        batched_objects: a.batched_objects + b.batched_objects,
        cache_hits: a.cache_hits + b.cache_hits,
        cache_misses: a.cache_misses + b.cache_misses,
        cache_evictions: a.cache_evictions + b.cache_evictions,
        hydrations: a.hydrations + b.hydrations,
        line_commits: a.line_commits + b.line_commits,
        line_bytes: a.line_bytes + b.line_bytes,
        overlay_pages_flushed: a.overlay_pages_flushed + b.overlay_pages_flushed,
        absorbed_commits: a.absorbed_commits + b.absorbed_commits,
    }
}

/// Component-wise sum of two [`ScrubStats`] (callers fix up `passes`).
fn add_scrub(a: ScrubStats, b: ScrubStats) -> ScrubStats {
    ScrubStats {
        pages_verified: a.pages_verified + b.pages_verified,
        nodes_verified: a.nodes_verified + b.nodes_verified,
        corruptions_found: a.corruptions_found + b.corruptions_found,
        repairs: a.repairs + b.repairs,
        unrepaired: a.unrepaired + b.unrepaired,
        io_spent: a.io_spent + b.io_spent,
        passes: a.passes + b.passes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msnap_disk::DiskConfig;

    fn page_of(byte: u8) -> Vec<u8> {
        vec![byte; BLOCK_SIZE]
    }

    #[test]
    fn legacy_block0_superblock_is_not_formatted() {
        // A slab head at block 0, where the retired single-shard layout
        // put it: no shard count behind it, so not a superblock.
        let mut disk = Disk::new(DiskConfig::paper());
        let legacy = crate::layout::slab_head_image();
        let mut vt = Vt::new(0);
        disk.write_block(&mut vt, 0, &legacy).unwrap();
        disk.settle();
        assert_eq!(
            ObjectStore::open(&mut vt, &mut disk).err(),
            Some(StoreError::NotFormatted)
        );
    }

    #[test]
    fn commit_straddling_an_extent_boundary_costs_the_same() {
        // Identical delta commits; some of them exhaust the shard's
        // granted range and are re-run by `with_grants` after a broker
        // grant. The aborted attempt must charge nothing.
        let mut disk = Disk::new(DiskConfig::paper());
        let mut store = ObjectStore::format(&mut disk);
        let mut vt = Vt::new(0);
        let obj = store.create(&mut vt, &mut disk, "o").unwrap();
        let pages = [page_of(1), page_of(2), page_of(3)];
        let mut costs = std::collections::BTreeSet::new();
        let mut straddles = 0;
        for round in 0..400u64 {
            let iov: Vec<(u64, &[u8])> = pages
                .iter()
                .enumerate()
                .map(|(i, p)| (round * 3 + i as u64, &p[..]))
                .collect();
            let (t0, s0, b0) = (vt.now(), store.stats(), store.broker.next_block());
            let tok = store.persist(&mut vt, &mut disk, obj, &iov).unwrap();
            let (dt, s1) = (vt.now() - t0, store.stats());
            ObjectStore::wait(&mut vt, tok);
            if s1.delta_commits == s0.delta_commits {
                continue; // the periodic full root does different work
            }
            straddles += u32::from(store.broker.next_block() != b0);
            costs.insert((
                dt,
                s1.commits - s0.commits,
                s1.pages_written - s0.pages_written,
                s1.nodes_written - s0.nodes_written,
            ));
        }
        assert!(straddles >= 3, "the run must cross extent boundaries");
        assert_eq!(
            costs.len(),
            1,
            "every delta commit costs the same: {costs:?}"
        );
    }

    #[test]
    fn oversize_batch_commits_each_group_exactly_once() {
        // Two 150-page groups do not fit one batch record, so they commit
        // serially; the second regularly runs off the end of the shard's
        // granted range. The grant retry must re-run that group alone —
        // never the already-committed first one.
        let mut disk = Disk::new(DiskConfig::paper());
        let mut store = ObjectStore::format(&mut disk);
        let mut vt = Vt::new(0);
        let a = store.create(&mut vt, &mut disk, "a").unwrap();
        let b = store.create(&mut vt, &mut disk, "b").unwrap();
        let page = page_of(7);
        let pages: Vec<(u64, &[u8])> = (0..150).map(|i| (i, &page[..])).collect();
        let mut grants = 0;
        for round in 1..=8u64 {
            let (b0, commits) = (store.broker.next_block(), store.stats().commits);
            let tokens = store
                .persist_batch(&mut vt, &mut disk, &[(a, &pages), (b, &pages)])
                .unwrap();
            grants += u32::from(store.broker.next_block() != b0);
            assert_eq!(
                tokens.iter().map(|t| t.epoch).collect::<Vec<_>>(),
                [round, round]
            );
            assert_eq!((store.epoch(a), store.epoch(b)), (round, round));
            assert_eq!(store.stats().commits - commits, 2);
            ObjectStore::wait(&mut vt, tokens[1]);
        }
        assert!(grants >= 4, "the run must cross extent boundaries");
    }

    #[test]
    fn sharded_store_spreads_objects_and_survives_reopen() {
        let mut disk = Disk::new(DiskConfig::paper());
        let mut store = ObjectStore::format_sharded(&mut disk, 4);
        let mut vt = Vt::new(0);
        assert_eq!(store.shard_count(), 4);
        let mut ids = Vec::new();
        for i in 0..16 {
            let name = format!("obj-{i}");
            let id = store.create(&mut vt, &mut disk, &name).unwrap();
            assert_eq!(store.lookup(&name), Some(id));
            let page = page_of(i as u8);
            let tok = store
                .persist(&mut vt, &mut disk, id, &[(0, &page)])
                .unwrap();
            ObjectStore::wait(&mut vt, tok);
            ids.push((name, id));
        }
        let used: std::collections::HashSet<usize> =
            ids.iter().map(|(n, _)| store.shard_of(n)).collect();
        assert!(used.len() > 1, "16 objects must spread across shards");
        disk.crash(vt.now());
        let mut reopened = ObjectStore::open(&mut vt, &mut disk).unwrap();
        assert_eq!(reopened.shard_count(), 4);
        for (i, (name, id)) in ids.iter().enumerate() {
            assert_eq!(reopened.lookup(name), Some(*id), "{name} survives");
            let mut out = [0u8; BLOCK_SIZE];
            reopened
                .read_page(&mut vt, &mut disk, *id, 0, &mut out)
                .unwrap();
            assert_eq!(out[0], i as u8);
        }
    }

    /// A `shards`-shard store on the paper's device with one object of
    /// `pages` pages on every shard, settled.
    fn one_object_per_shard(shards: usize, pages: u64) -> (Disk, ObjectStore, Vt) {
        let mut disk = Disk::new(DiskConfig::paper());
        let mut store = ObjectStore::format_sharded(&mut disk, shards);
        let mut vt = Vt::new(0);
        let page = page_of(0x5c);
        let iov: Vec<(u64, &[u8])> = (0..pages).map(|p| (p, &page[..])).collect();
        for shard in 0..shards {
            let name = (0..)
                .map(|i| format!("o{i}"))
                .find(|n| shard_of_name(n, shards) == shard)
                .unwrap();
            let id = store.create(&mut vt, &mut disk, &name).unwrap();
            let token = store.persist(&mut vt, &mut disk, id, &iov).unwrap();
            ObjectStore::wait(&mut vt, token);
        }
        disk.settle();
        (disk, store, vt)
    }

    #[test]
    fn a_scrub_slice_is_one_device_submission_however_many_shards() {
        for shards in [4, 8] {
            let (mut disk, mut store, mut vt) = one_object_per_shard(shards, 300);
            // The first slice also verifies the object's resident nodes.
            store.scrub(&mut vt, &mut disk, 64).unwrap();
            let (t0, subs, blocks) = (
                vt.now(),
                disk.stats().read_submissions(),
                disk.stats().reads(),
            );
            let slice = store.scrub(&mut vt, &mut disk, 64).unwrap();
            assert_eq!((slice.pages_verified, slice.io_spent), (64, 64));
            assert_eq!(disk.stats().read_submissions() - subs, 1, "{shards} shards");
            assert_eq!(disk.stats().reads() - blocks, 64);
            let took = vt.now() - t0;
            assert!(took <= Nanos::from_us(80), "{shards} shards: {took:?}");
        }
    }

    #[test]
    fn the_scrub_cursor_walks_the_shards_in_turn_once_per_pass() {
        for shards in [4usize, 8] {
            const PAGES: u64 = 100;
            let (mut disk, mut store, mut vt) = one_object_per_shard(shards, PAGES);
            let spent = |s: &ObjectStore| -> Vec<u64> {
                s.shards.iter().map(|x| x.scrub_stats().io_spent).collect()
            };
            let (mut verified, mut calls, mut flowed) = (0, 0, false);
            loop {
                let before = spent(&store);
                let slice = store.scrub(&mut vt, &mut disk, 64).unwrap();
                verified += slice.pages_verified;
                calls += 1;
                let after = spent(&store);
                let moved: Vec<usize> = (0..shards).filter(|&i| after[i] != before[i]).collect();
                // Only ever the shard the cursor is on — and, when its pass
                // wraps with budget left, the one after it.
                assert!(
                    moved.len() <= 2 && moved.windows(2).all(|w| w[1] == w[0] + 1),
                    "{moved:?}"
                );
                flowed |= moved.len() == 2;
                assert!(slice.io_spent <= 64 && slice.passes <= 1);
                if slice.passes == 1 {
                    break;
                }
                assert!(calls < 1000, "the cursor must make progress");
            }
            assert!(
                flowed,
                "a shard's leftover budget flows into the next shard"
            );
            // Every page once: the completing call did not start pass two.
            assert_eq!(verified, shards as u64 * PAGES);
            assert_eq!(store.scrub_stats().passes, 1);
            for shard in &store.shards {
                let stats = shard.scrub_stats();
                assert_eq!((stats.pages_verified, stats.passes), (PAGES, 1));
            }
            // The next call opens pass two on the first shard; one call with
            // room for everything is exactly one more pass.
            let next = store.scrub(&mut vt, &mut disk, 64).unwrap();
            assert!(next.pages_verified > 0 && next.passes == 0);
            assert_eq!(
                store.shards[0].scrub_stats().pages_verified,
                PAGES + next.pages_verified
            );
            let rest = store.scrub(&mut vt, &mut disk, 1 << 20).unwrap();
            assert_eq!(rest.passes, 1);
            assert_eq!(
                next.pages_verified + rest.pages_verified,
                shards as u64 * PAGES
            );
            assert_eq!(store.scrub_stats().passes, 2);
        }
    }

    #[test]
    fn a_one_shard_scrub_is_the_shards_own_call_for_call() {
        // The façade over one shard adds nothing: the same slices, the same
        // statistics, submissions and virtual time as driving the shard.
        let (mut disk_a, mut facade, mut vt_a) = one_object_per_shard(1, 700);
        let (mut disk_b, mut direct, mut vt_b) = one_object_per_shard(1, 700);
        for budget in [64, 64, 7, 1024, 64, 1 << 20, 64] {
            let a = facade.scrub(&mut vt_a, &mut disk_a, budget).unwrap();
            let b = direct.shards[0]
                .scrub(&mut vt_b, &mut disk_b, budget)
                .unwrap();
            assert_eq!(a, b, "budget {budget}");
            assert_eq!(vt_a.now(), vt_b.now(), "budget {budget}");
            assert_eq!(
                disk_a.stats().read_submissions(),
                disk_b.stats().read_submissions()
            );
        }
        assert_eq!(facade.scrub_stats(), direct.shards[0].scrub_stats());
        assert_eq!(facade.scrub_stats().passes, 2);
    }

    #[test]
    fn broker_grants_are_disjoint_and_exhaust_at_capacity() {
        let mut b = ExtentBroker::new(100, 10, Some(125));
        assert_eq!(b.grant(1), Some((100, 110)));
        assert_eq!(b.grant(1), Some((110, 120)));
        assert_eq!(b.grant(1), Some((120, 125)), "partial final grant");
        assert_eq!(b.grant(1), None, "device exhausted");
        let mut unbounded = ExtentBroker::new(0, 8, None);
        assert_eq!(unbounded.grant(4), Some((0, 32)), "multi-extent grant");
    }

    #[test]
    fn cuts_are_durable_and_recovered() {
        let mut disk = Disk::new(DiskConfig::paper());
        let mut store = ObjectStore::format_sharded(&mut disk, 2);
        let mut vt = Vt::new(0);
        let a = store.create(&mut vt, &mut disk, "a").unwrap();
        let page = page_of(1);
        let tok = store.persist(&mut vt, &mut disk, a, &[(0, &page)]).unwrap();
        ObjectStore::wait(&mut vt, tok);
        let cut = store.cut(&mut vt, &mut disk).unwrap();
        assert_eq!(cut.seq, 1, "genesis cut is seq 0");
        assert_eq!(cut.epochs.iter().sum::<u64>(), 1);
        disk.crash(vt.now());
        let reopened = ObjectStore::open(&mut vt, &mut disk).unwrap();
        let recovered = reopened.last_cut().expect("cut survives crash");
        assert_eq!(recovered, &cut);
        assert!(recovered.complete_under(&reopened.epoch_vector()));
    }

    #[test]
    fn with_grants_retries_until_space_or_exhaustion() {
        // A tiny device: 2 shards, extents of DEFAULT_EXTENT_BLOCKS will
        // be clamped by capacity; writing until OutOfSpace must not
        // wedge or leak epochs.
        let mut cfg = DiskConfig::paper();
        let floor = ShardLayout::sharded(0, 2).data_floor;
        cfg.capacity_blocks = Some(floor + 96);
        let mut disk = Disk::new(cfg);
        let mut store = ObjectStore::format_sharded(&mut disk, 2);
        let mut vt = Vt::new(0);
        let obj = store.create(&mut vt, &mut disk, "fill").unwrap();
        let page = page_of(9);
        let mut committed = 0u64;
        loop {
            match store.persist(&mut vt, &mut disk, obj, &[(committed, &page)]) {
                Ok(tok) => {
                    ObjectStore::wait(&mut vt, tok);
                    committed += 1;
                }
                Err(StoreError::OutOfSpace) => break,
                Err(e) => panic!("unexpected error: {e:?}"),
            }
            assert!(committed < 10_000, "device never fills");
        }
        assert!(committed > 0, "some commits must land before exhaustion");
        assert_eq!(
            store.epoch(obj),
            committed,
            "aborts must not advance epochs"
        );
    }
}
