//! On-disk layout: superblock, cut slots, shard slabs, directory entries,
//! root, delta, batch and snapshot-catalog records.
//!
//! There is one generation of every record (DESIGN.md §6l): block 0 is
//! the store superblock, the two cut slots follow, then one metadata
//! slab per shard, then the data area the extent broker hands out.

use msnap_disk::BLOCK_SIZE;

use crate::lines::LINE_SIZE;
pub use msnap_sim::hash::{fnv1a, fnv1a_extend, FNV_OFFSET};

/// A μCheckpoint epoch: each object's monotonically increasing commit
/// counter (the paper's `epoch_t`).
pub type Epoch = u64;

/// Identifier of an object within the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(pub u32);

impl std::fmt::Display for ObjectId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "obj{}", self.0)
    }
}

/// Magic number of a full root record block.
pub(crate) const ROOT_MAGIC: u64 = 0x4d534e_41505232; // "MSN APR2"
/// Magic number of a delta record block.
pub(crate) const DELTA_MAGIC: u64 = 0x4d534e_41504454; // "MSN APDT"
/// Magic number of a batch (group-commit) record block.
pub(crate) const BATCH_MAGIC: u64 = 0x4d534e_41504254; // "MSN APBT"
/// Magic number opening each shard's metadata slab.
pub(crate) const SLAB_MAGIC: u64 = 0x4d534e41_50535550; // "MSNA PSUP"
/// Magic number of the store superblock at block 0. The superblock
/// carries the shard count and extent-broker granularity; the cut slots
/// and the per-shard metadata slabs follow it.
pub(crate) const SUPER_MAGIC: u64 = 0x4d534e41_50535533; // "MSNA PSU3"
/// Magic number of an epoch-vector cut record block.
pub(crate) const CUT_MAGIC: u64 = 0x4d534e_41504354; // "MSN APCT"
/// Magic number of a snapshot-catalog block.
pub(crate) const SNAP_MAGIC: u64 = 0x4d534e_41505350; // "MSN APSP"

// Slab-relative offsets: a shard's metadata slab is its magic block,
// the object directory, the batch ring and the snapshot catalog.

/// Block holding the slab magic.
pub(crate) const SLAB_HEAD: u64 = 0;
/// First block of the object directory.
pub(crate) const DIR_START: u64 = 1;
/// Number of directory blocks.
pub(crate) const DIR_BLOCKS: u64 = 8;
/// First block of the store-wide batch-record ring (group commit).
pub(crate) const BATCH_RING_START: u64 = DIR_START + DIR_BLOCKS;
/// Batch-record slots shared by all objects. A slot is reused only after
/// every object it mentions has flushed a newer full root, so a live
/// batch commit is never overwritten.
pub const BATCH_SLOTS: u64 = 32;
/// First block of the snapshot catalog: two alternating slots written
/// with a sequence number, so a torn catalog write leaves the previous
/// catalog intact (same dual-slot discipline as the per-object roots).
pub(crate) const SNAP_CATALOG_START: u64 = BATCH_RING_START + BATCH_SLOTS;
/// Snapshot-catalog slots.
pub(crate) const SNAP_CATALOG_SLOTS: u64 = 2;
/// Blocks in one shard's metadata slab.
pub(crate) const SHARD_SLAB_BLOCKS: u64 = SNAP_CATALOG_START + SNAP_CATALOG_SLOTS;
/// First of the two alternating epoch-vector cut slots (right after the
/// superblock at block 0).
pub(crate) const CUT_SLOT_START: u64 = 1;
/// Number of alternating cut slots.
pub(crate) const CUT_SLOTS: u64 = 2;
/// First shard slab (the superblock and the cut slots precede it).
pub(crate) const SHARD_SLAB_START: u64 = CUT_SLOT_START + CUT_SLOTS;
/// Maximum shards in a store: global object ids pack the shard index
/// into the id's high byte, so 256 is the format ceiling.
pub const MAX_SHARDS: usize = 256;
/// Bit position of the shard index within a global object id.
pub(crate) const SHARD_ID_SHIFT: u32 = 24;

/// Where one shard's metadata lives on the device, plus the first block
/// the store may hand to data: shard `s` owns the slab at
/// `SHARD_SLAB_START + s * SHARD_SLAB_BLOCKS`, and data allocation is
/// floored past every slab.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardLayout {
    /// First block of this shard's metadata slab.
    pub base: u64,
    /// First block eligible for data allocation (shared by all shards of
    /// a store: the end of the last slab).
    pub data_floor: u64,
}

impl ShardLayout {
    /// The layout of shard `index` in a store of `shard_count` shards.
    pub fn sharded(index: usize, shard_count: usize) -> ShardLayout {
        assert!(index < shard_count && shard_count <= MAX_SHARDS);
        ShardLayout {
            base: SHARD_SLAB_START + index as u64 * SHARD_SLAB_BLOCKS,
            data_floor: SHARD_SLAB_START + shard_count as u64 * SHARD_SLAB_BLOCKS,
        }
    }

    /// The block holding this shard's slab magic.
    pub(crate) fn slab_head(&self) -> u64 {
        self.base + SLAB_HEAD
    }

    /// First directory block.
    pub(crate) fn dir_start(&self) -> u64 {
        self.base + DIR_START
    }

    /// First batch-ring block.
    pub(crate) fn batch_ring_start(&self) -> u64 {
        self.base + BATCH_RING_START
    }

    /// First snapshot-catalog block.
    pub(crate) fn snap_catalog_start(&self) -> u64 {
        self.base + SNAP_CATALOG_START
    }

    /// The snapshot-catalog slot a catalog sequence number writes to.
    pub(crate) fn snap_slot(&self, seq: u64) -> u64 {
        self.base + SnapCatalog::slot(seq)
    }
}

/// The store superblock: shard count and extent-broker granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Superblock {
    /// Number of shards the device was formatted with.
    pub shard_count: u64,
    /// Blocks per extent-broker grant.
    pub extent_blocks: u64,
}

impl Superblock {
    /// Serializes into a block image.
    pub fn to_block(&self) -> [u8; BLOCK_SIZE] {
        let mut block = [0u8; BLOCK_SIZE];
        let mut w = |off: usize, v: u64| block[off..off + 8].copy_from_slice(&v.to_le_bytes());
        w(0, SUPER_MAGIC);
        w(8, self.shard_count);
        w(16, self.extent_blocks);
        let checksum = fnv1a(&block[0..24]);
        block[24..32].copy_from_slice(&checksum.to_le_bytes());
        block
    }

    /// Parses and validates the superblock; `None` if the block is not
    /// one (an unformatted device) or is corrupt.
    pub fn from_block(block: &[u8]) -> Option<Superblock> {
        let r = |off: usize| u64::from_le_bytes(block[off..off + 8].try_into().unwrap());
        if r(0) != SUPER_MAGIC || fnv1a(&block[0..24]) != r(24) {
            return None;
        }
        let shard_count = r(8);
        if shard_count == 0 || shard_count > MAX_SHARDS as u64 || r(16) == 0 {
            return None;
        }
        Some(Superblock {
            shard_count,
            extent_blocks: r(16),
        })
    }
}

/// A durable epoch-vector cut: the coordinator's stamp of every shard's
/// epoch sum, taken by the drain→stamp→release fuzzy-cut protocol and
/// written to the alternating cut slot `seq % CUT_SLOTS` *after* every
/// member commit is durable. Recovery adopts the valid slot with the
/// highest `seq`; a torn cut write falls back to the previous cut, so
/// the named cut is always one whose every component really committed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CutRecord {
    /// Monotone cut sequence number (picks the slot).
    pub seq: u64,
    /// Per-shard epoch sums, indexed by shard.
    pub epochs: Vec<Epoch>,
}

impl CutRecord {
    /// The cut slot this sequence number writes to.
    pub(crate) fn slot(seq: u64) -> u64 {
        CUT_SLOT_START + seq % CUT_SLOTS
    }

    /// Serializes into a block image.
    ///
    /// # Panics
    ///
    /// Panics if there are more than [`MAX_SHARDS`] components.
    pub fn to_block(&self) -> [u8; BLOCK_SIZE] {
        assert!(self.epochs.len() <= MAX_SHARDS, "cut record overflow");
        let mut block = [0u8; BLOCK_SIZE];
        let mut w = |off: usize, v: u64| block[off..off + 8].copy_from_slice(&v.to_le_bytes());
        w(0, CUT_MAGIC);
        w(8, self.seq);
        w(16, self.epochs.len() as u64);
        for (i, e) in self.epochs.iter().enumerate() {
            w(32 + i * 8, *e);
        }
        let end = 32 + self.epochs.len() * 8;
        let checksum = fnv1a(&block[0..24]) ^ fnv1a(&block[32..end]);
        block[24..32].copy_from_slice(&checksum.to_le_bytes());
        block
    }

    /// Parses and validates a cut-slot block; `None` if the slot is
    /// empty or torn.
    pub fn from_block(block: &[u8]) -> Option<CutRecord> {
        let r = |off: usize| u64::from_le_bytes(block[off..off + 8].try_into().unwrap());
        if r(0) != CUT_MAGIC {
            return None;
        }
        let count = r(16) as usize;
        if count > MAX_SHARDS {
            return None;
        }
        let end = 32 + count * 8;
        if fnv1a(&block[0..24]) ^ fnv1a(&block[32..end]) != r(24) {
            return None;
        }
        Some(CutRecord {
            seq: r(8),
            epochs: (0..count).map(|i| r(32 + i * 8)).collect(),
        })
    }
}

/// Delta-record slots per object. Every `DELTA_SLOTS`-th commit flushes
/// the COW tree nodes and writes a full root, so a delta slot is never
/// reused before a newer full root covers it.
pub const DELTA_SLOTS: u64 = 32;
/// Blocks reserved per object at creation: two alternating full-root
/// slots followed by the delta ring.
pub(crate) const OBJECT_META_BLOCKS: u64 = 2 + DELTA_SLOTS;

/// Maximum (page, block) pairs in one delta record.
pub const MAX_DELTA_PAIRS: usize = (BLOCK_SIZE - 64) / 16;

/// Maximum object-name length in the directory, bytes.
pub(crate) const NAME_LEN: usize = 88;
/// Size of one directory entry, bytes.
pub(crate) const DIR_ENTRY_LEN: usize = 128;
/// Directory entries per block.
pub(crate) const ENTRIES_PER_BLOCK: usize = BLOCK_SIZE / DIR_ENTRY_LEN;
/// Maximum number of objects in a store.
pub(crate) const MAX_OBJECTS: usize = ENTRIES_PER_BLOCK * DIR_BLOCKS as usize;

/// Digest value meaning "no digest recorded": the root digest of an
/// empty tree, and the image digest of a dirty (not yet committed)
/// in-memory node. Every committed entry the store reads carries a real
/// digest, so a zero digest half on media fails verification like any
/// other mismatch.
pub const DIGEST_NONE: u32 = 0;

/// 32-bit content digest used for at-rest integrity: FNV-1a 64 folded to
/// 32 bits. The fold keeps both halves' entropy; the result is remapped
/// away from [`DIGEST_NONE`] so a real digest can never be mistaken for
/// "unknown".
pub fn digest32(bytes: &[u8]) -> u32 {
    let h = fnv1a(bytes);
    let folded = (h ^ (h >> 32)) as u32;
    if folded == DIGEST_NONE {
        1
    } else {
        folded
    }
}

/// Packs a block number and its content digest into one radix-entry
/// word: block in the low 32 bits, digest in the high 32.
pub fn pack_entry(block: u64, digest: u32) -> u64 {
    debug_assert!(
        block <= u32::MAX as u64,
        "block numbers must fit 32 bits to carry a digest"
    );
    (block & 0xFFFF_FFFF) | ((digest as u64) << 32)
}

/// Splits a packed radix-entry word into (block, digest).
pub fn unpack_entry(word: u64) -> (u64, u32) {
    (word & 0xFFFF_FFFF, (word >> 32) as u32)
}

/// The [`DeltaRecord::tag`] of a record that extends the tip committed
/// by a block with this checksum: folded to 32 bits and kept off 0, the
/// untagged mark. An object with no root or record yet has checksum 0.
pub(crate) fn tag_of(checksum: u64) -> u32 {
    ((checksum ^ (checksum >> 32)) as u32).max(1)
}

/// [`tag_of`] the checksum word of a root, delta or batch record block:
/// the tag of a record that extends the tip this block commits. Any
/// other block reads as checksum 0.
pub(crate) fn tip_tag(block: &[u8]) -> u32 {
    let r = |off: usize| u64::from_le_bytes(block[off..off + 8].try_into().unwrap());
    tag_of(match r(0) {
        ROOT_MAGIC => r(64),
        DELTA_MAGIC => r(40),
        BATCH_MAGIC => r(24),
        _ => 0,
    })
}

/// A committed full root: written to one of the object's two alternating
/// root slots whenever the in-memory COW tree is flushed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RootRecord {
    /// The object this root belongs to.
    pub object: ObjectId,
    /// Epoch of the μCheckpoint that wrote this root.
    pub epoch: Epoch,
    /// Disk block of the radix-tree root node, or 0 for an empty object.
    pub tree_root: u64,
    /// Object length in pages (highest written page + 1).
    pub len_pages: u64,
    /// The allocator's bump frontier (first never-allocated block) at the
    /// instant this root committed. Recovery restarts allocation past the
    /// maximum surviving frontier instead of walking every tree — the
    /// O(1)-open invariant (nothing below `high_water` is ever handed out
    /// fresh, so lazily loaded subtrees cannot be overwritten).
    pub high_water: u64,
    /// Digest of the committed root node's block image ([`digest32`]), or
    /// [`DIGEST_NONE`] for an empty tree. This is the
    /// top of the Merkle chain: the root record checksums the root digest,
    /// each node image checksums its children's digests, and leaf entries
    /// carry the page-data digests.
    pub root_digest: u32,
    /// Monotone per-object full-root sequence number (the object's
    /// `full_count` at write time). Breaks ties between the two root slots
    /// when both hold the *same* epoch — a repair commit rewrites the root
    /// at the current epoch, and recovery must adopt the repaired one.
    pub flush_seq: u64,
}

impl RootRecord {
    /// Serializes the record into a zero-padded block image.
    pub fn to_block(&self) -> [u8; BLOCK_SIZE] {
        let mut block = [0u8; BLOCK_SIZE];
        let mut w = |off: usize, v: u64| block[off..off + 8].copy_from_slice(&v.to_le_bytes());
        w(0, ROOT_MAGIC);
        w(8, self.object.0 as u64);
        w(16, self.epoch);
        w(24, self.tree_root);
        w(32, self.len_pages);
        w(40, self.high_water);
        w(48, self.root_digest as u64);
        w(56, self.flush_seq);
        let checksum = fnv1a(&block[0..64]);
        block[64..72].copy_from_slice(&checksum.to_le_bytes());
        block
    }

    /// Parses and validates a root-slot block; `None` if the slot is
    /// empty, torn, or belongs to a different object.
    pub fn from_block(block: &[u8], expect: ObjectId) -> Option<RootRecord> {
        let r = |off: usize| u64::from_le_bytes(block[off..off + 8].try_into().unwrap());
        if r(0) != ROOT_MAGIC || fnv1a(&block[0..64]) != r(64) || r(8) != expect.0 as u64 {
            return None;
        }
        Some(RootRecord {
            object: expect,
            epoch: r(16),
            tree_root: r(24),
            len_pages: r(32),
            high_water: r(40),
            root_digest: r(48) as u32,
            flush_seq: r(56),
        })
    }
}

/// The block number an **inline** pair carries in place of a data block:
/// the page's changed lines ride in the record's body and no data block
/// exists. Beyond any real device, never allocated, never written.
pub const INLINE_BLOCK: u64 = 0xFFFF_FFFF;

/// A delta root: commits a small μCheckpoint by recording its
/// (page → data block) mappings without rewriting tree nodes. Recovery
/// replays consecutive deltas on top of the latest full root.
///
/// A pair whose block is [`INLINE_BLOCK`] is **line-grain**: the record's
/// `body` carries the page's dirty-line mask and those lines' bytes, and
/// the pair's digest is that of the *patched* page (the previous content
/// with the lines applied). A record of only such pairs is a whole
/// μCheckpoint in one block write; a record with an empty body is the
/// page-grain case.
///
/// A line-grain record may cover several consecutive μCheckpoints: a
/// commit that arrives while its object's record is still queued on the
/// device folds into it (DESIGN.md §6m, R3). It covers epochs
/// `epoch - span ..= epoch` and stays in the ring slot of its first.
///
/// Also one object's share of a [`BatchRecord`] (always page-grain and
/// one epoch there): the checksum covers *its* payload blocks only, so
/// recovery truncation stays per-object even though the commit record is
/// shared.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaRecord {
    /// The object.
    pub object: ObjectId,
    /// Epoch of the newest μCheckpoint this record covers.
    pub epoch: Epoch,
    /// How many epochs below `epoch` the record also covers (0 for one
    /// commit; below [`DELTA_SLOTS`] and at most `epoch`).
    pub span: u64,
    /// The tip the record extends: the checksum of the root or record
    /// block that committed epoch `epoch - span - 1`, folded to 32 bits
    /// and kept off 0 — or 0, an untagged record (a batch group, or one
    /// an older build wrote). Replay accepts a tagged record only on top
    /// of that tip.
    pub tag: u32,
    /// Object length in pages after this commit.
    pub len_pages: u64,
    /// FNV-1a over the commit's data-block images, in pair order (inline
    /// pairs have none). Recovery re-reads the referenced blocks and stops
    /// the replay prefix at the first mismatch, so a torn or silently
    /// corrupted data extent cannot surface as committed state.
    pub payload_sum: u64,
    /// The commit's page → packed-entry mappings. The second word is a
    /// [`pack_entry`] word (block in the low half, page-content digest in
    /// the high half), so the record checksum covers the digests.
    pub pairs: Vec<(u64, u64)>,
    /// For each inline pair, in pair order: its dirty-line mask (8 bytes,
    /// little-endian) followed by the bytes of those lines in line order
    /// ([`crate::lines::gather`] of [`crate::lines::line_runs`]). Covered
    /// by the record checksum.
    pub body: Vec<u8>,
}

impl DeltaRecord {
    /// The oldest epoch the record covers.
    pub(crate) fn first_epoch(&self) -> Epoch {
        self.epoch - self.span
    }

    /// Encoded size of a record whose pairs are all inline, given each
    /// page's dirty-line mask.
    pub fn inline_len(masks: impl Iterator<Item = u64>) -> usize {
        64 + masks
            .map(|m| 16 + 8 + LINE_SIZE * m.count_ones() as usize)
            .sum::<usize>()
    }

    /// The `(mask, line bytes)` of each inline pair, in pair order; `None`
    /// unless `body` holds exactly that.
    pub fn inline_lines(&self) -> Option<Vec<(u64, &[u8])>> {
        let mut rest = &self.body[..];
        let mut out = Vec::new();
        for (_, word) in &self.pairs {
            if unpack_entry(*word).0 != INLINE_BLOCK {
                continue;
            }
            let (mask, tail) = rest.split_first_chunk::<8>()?;
            let mask = u64::from_le_bytes(*mask);
            let len = LINE_SIZE * mask.count_ones() as usize;
            out.push((mask, tail.get(..len)?));
            rest = &tail[len..];
        }
        rest.is_empty().then_some(out)
    }

    /// The data blocks of the page-grain pairs, in pair order: the
    /// commit's data extent.
    pub(crate) fn data_blocks(&self) -> impl Iterator<Item = u64> + '_ {
        let blocks = self.pairs.iter().map(|(_, word)| unpack_entry(*word).0);
        blocks.filter(|block| *block != INLINE_BLOCK)
    }

    /// Serializes into a block image.
    ///
    /// # Panics
    ///
    /// Panics if there are more than [`MAX_DELTA_PAIRS`] pairs, the pairs
    /// and body outgrow the block, or `span` is out of range.
    pub fn to_block(&self) -> [u8; BLOCK_SIZE] {
        assert!(self.pairs.len() <= MAX_DELTA_PAIRS, "delta record overflow");
        assert!(
            self.span < DELTA_SLOTS && self.span <= self.epoch,
            "delta record span"
        );
        let body_at = 64 + self.pairs.len() * 16;
        let end = body_at + self.body.len();
        assert!(end <= BLOCK_SIZE, "delta record body overflow");
        let mut block = [0u8; BLOCK_SIZE];
        let mut w = |off: usize, v: u64| block[off..off + 8].copy_from_slice(&v.to_le_bytes());
        w(0, DELTA_MAGIC);
        w(8, self.object.0 as u64);
        w(16, self.epoch);
        w(24, self.len_pages);
        w(32, self.pairs.len() as u64 | self.span << 32);
        w(48, self.payload_sum);
        w(56, self.body.len() as u64 | u64::from(self.tag) << 32);
        for (i, (page, data_block)) in self.pairs.iter().enumerate() {
            w(64 + i * 16, *page);
            w(64 + i * 16 + 8, *data_block);
        }
        block[body_at..end].copy_from_slice(&self.body);
        let checksum = fnv1a(&block[0..40]) ^ fnv1a(&block[48..end]);
        block[40..48].copy_from_slice(&checksum.to_le_bytes());
        block
    }

    /// Parses and validates a delta-slot block.
    pub fn from_block(block: &[u8], expect: ObjectId) -> Option<DeltaRecord> {
        let r = |off: usize| u64::from_le_bytes(block[off..off + 8].try_into().unwrap());
        if r(0) != DELTA_MAGIC || r(8) != expect.0 as u64 {
            return None;
        }
        let (count, span) = (r(32) & 0xFFFF_FFFF, r(32) >> 32);
        let (body_len, tag) = (r(56) & 0xFFFF_FFFF, (r(56) >> 32) as u32);
        if count > MAX_DELTA_PAIRS as u64 || span >= DELTA_SLOTS || span > r(16) {
            return None;
        }
        let body_at = 64 + count as usize * 16;
        let end = body_at + body_len as usize;
        if end > BLOCK_SIZE || fnv1a(&block[0..40]) ^ fnv1a(&block[48..end]) != r(40) {
            return None;
        }
        let pairs = (0..count as usize)
            .map(|i| (r(64 + i * 16), r(64 + i * 16 + 8)))
            .collect();
        let rec = DeltaRecord {
            object: expect,
            epoch: r(16),
            span,
            tag,
            len_pages: r(24),
            payload_sum: r(48),
            pairs,
            body: block[body_at..end].to_vec(),
        };
        rec.inline_lines()?;
        Some(rec)
    }
}

/// Fixed bytes at the head of a batch record block.
const BATCH_HEADER: usize = 32;
/// Fixed bytes per group before its pairs.
const GROUP_HEADER: usize = 40;

/// A batch record: one commit block covering several objects' deltas at
/// once (the group-commit path). Written to the shared
/// [`BATCH_SLOTS`]-entry ring; recovery folds each group into the owning
/// object's delta chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchRecord {
    /// Monotone store-wide batch sequence number (picks the ring slot).
    pub seq: u64,
    /// Per-object commit groups.
    pub groups: Vec<DeltaRecord>,
}

impl BatchRecord {
    /// Encoded size of a record with the given per-group pair counts.
    pub fn encoded_len(pair_counts: impl Iterator<Item = usize>) -> usize {
        BATCH_HEADER + pair_counts.map(|n| GROUP_HEADER + n * 16).sum::<usize>()
    }

    /// Whether a record with these per-group pair counts fits one block.
    pub fn fits(pair_counts: impl Iterator<Item = usize>) -> bool {
        Self::encoded_len(pair_counts) <= BLOCK_SIZE
    }

    /// Serializes into a block image.
    ///
    /// # Panics
    ///
    /// Panics if the record does not fit one block (callers check with
    /// [`BatchRecord::fits`] first).
    pub fn to_block(&self) -> [u8; BLOCK_SIZE] {
        let end = Self::encoded_len(self.groups.iter().map(|g| g.pairs.len()));
        assert!(end <= BLOCK_SIZE, "batch record overflow");
        let mut block = [0u8; BLOCK_SIZE];
        let mut w = |off: usize, v: u64| block[off..off + 8].copy_from_slice(&v.to_le_bytes());
        w(0, BATCH_MAGIC);
        w(8, self.seq);
        w(16, self.groups.len() as u64);
        let mut off = BATCH_HEADER;
        for g in &self.groups {
            w(off, g.object.0 as u64);
            w(off + 8, g.epoch);
            w(off + 16, g.len_pages);
            w(off + 24, g.payload_sum);
            w(off + 32, g.pairs.len() as u64);
            off += GROUP_HEADER;
            for (page, data_block) in &g.pairs {
                w(off, *page);
                w(off + 8, *data_block);
                off += 16;
            }
        }
        let checksum = fnv1a(&block[0..24]) ^ fnv1a(&block[BATCH_HEADER..end]);
        block[24..32].copy_from_slice(&checksum.to_le_bytes());
        block
    }

    /// Parses and validates a batch-slot block; `None` if the slot is
    /// empty or torn.
    pub fn from_block(block: &[u8]) -> Option<BatchRecord> {
        let r = |off: usize| u64::from_le_bytes(block[off..off + 8].try_into().unwrap());
        if r(0) != BATCH_MAGIC {
            return None;
        }
        let group_count = r(16) as usize;
        // A record holds at least one pair-less group header per group.
        if BATCH_HEADER + group_count * GROUP_HEADER > BLOCK_SIZE {
            return None;
        }
        let mut groups = Vec::with_capacity(group_count);
        let mut off = BATCH_HEADER;
        for _ in 0..group_count {
            if off + GROUP_HEADER > BLOCK_SIZE {
                return None;
            }
            let count = r(off + 32) as usize;
            let pairs_end = off + GROUP_HEADER + count * 16;
            if pairs_end > BLOCK_SIZE {
                return None;
            }
            let pairs = (0..count)
                .map(|i| {
                    (
                        r(off + GROUP_HEADER + i * 16),
                        r(off + GROUP_HEADER + i * 16 + 8),
                    )
                })
                .collect();
            groups.push(DeltaRecord {
                object: ObjectId(r(off) as u32),
                epoch: r(off + 8),
                span: 0,
                tag: 0,
                len_pages: r(off + 16),
                payload_sum: r(off + 24),
                pairs,
                body: Vec::new(),
            });
            off = pairs_end;
        }
        if fnv1a(&block[0..24]) ^ fnv1a(&block[BATCH_HEADER..off]) != r(24) {
            return None;
        }
        Some(BatchRecord { seq: r(8), groups })
    }
}

/// Fixed bytes at the head of a snapshot-catalog block.
const SNAP_HEADER: usize = 32;
/// Encoded size of one snapshot-catalog entry.
const SNAP_ENTRY_LEN: usize = 128;
/// Maximum retained snapshots in a store (one catalog block's worth).
pub const MAX_SNAPSHOTS: usize = (BLOCK_SIZE - SNAP_HEADER) / SNAP_ENTRY_LEN;

/// One retained snapshot: a named pin of an object's committed epoch.
/// The `tree_root` / `len_pages` pair is everything needed to reopen the
/// epoch's radix tree read-only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapEntry {
    /// Snapshot name, unique within the store.
    pub name: String,
    /// The object the snapshot belongs to.
    pub object: ObjectId,
    /// The pinned epoch.
    pub epoch: Epoch,
    /// Disk block of the pinned radix-tree root, or 0 for an empty object.
    pub tree_root: u64,
    /// Object length in pages at the pinned epoch.
    pub len_pages: u64,
    /// Digest of the pinned root node's block image, or [`DIGEST_NONE`]
    /// for an empty object. Covered by the catalog checksum.
    pub root_digest: u32,
}

/// The snapshot catalog: the full set of retained snapshots, rewritten
/// whole on every snapshot create/delete into the catalog slot
/// `seq % SNAP_CATALOG_SLOTS`. Mount adopts the valid slot with the
/// highest `seq`, so a torn catalog write falls back to the previous
/// catalog — snapshot create/delete is crash-atomic.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SnapCatalog {
    /// Monotone catalog sequence number (picks the slot).
    pub seq: u64,
    /// The retained snapshots.
    pub entries: Vec<SnapEntry>,
}

impl SnapCatalog {
    /// The catalog slot this sequence number writes to.
    pub(crate) fn slot(seq: u64) -> u64 {
        SNAP_CATALOG_START + seq % SNAP_CATALOG_SLOTS
    }

    /// Serializes into a block image.
    ///
    /// # Panics
    ///
    /// Panics if there are more than [`MAX_SNAPSHOTS`] entries or a name
    /// exceeds `NAME_LEN` bytes (callers enforce both before mutating
    /// the catalog).
    pub fn to_block(&self) -> [u8; BLOCK_SIZE] {
        assert!(
            self.entries.len() <= MAX_SNAPSHOTS,
            "snapshot catalog overflow"
        );
        let mut block = [0u8; BLOCK_SIZE];
        let w = |block: &mut [u8; BLOCK_SIZE], off: usize, v: u64| {
            block[off..off + 8].copy_from_slice(&v.to_le_bytes())
        };
        w(&mut block, 0, SNAP_MAGIC);
        w(&mut block, 8, self.seq);
        w(&mut block, 16, self.entries.len() as u64);
        let mut off = SNAP_HEADER;
        for e in &self.entries {
            assert!(e.name.len() <= NAME_LEN, "snapshot name too long");
            w(&mut block, off, e.object.0 as u64);
            w(&mut block, off + 8, e.epoch);
            w(&mut block, off + 16, e.tree_root);
            w(&mut block, off + 24, e.len_pages);
            block[off + 32] = e.name.len() as u8;
            block[off + 33..off + 33 + e.name.len()].copy_from_slice(e.name.as_bytes());
            block[off + 121..off + 125].copy_from_slice(&e.root_digest.to_le_bytes());
            off += SNAP_ENTRY_LEN;
        }
        let checksum = fnv1a(&block[0..24]) ^ fnv1a(&block[SNAP_HEADER..off]);
        block[24..32].copy_from_slice(&checksum.to_le_bytes());
        block
    }

    /// Parses and validates a catalog-slot block; `None` if the slot is
    /// empty or torn.
    pub fn from_block(block: &[u8]) -> Option<SnapCatalog> {
        let r = |off: usize| u64::from_le_bytes(block[off..off + 8].try_into().unwrap());
        if r(0) != SNAP_MAGIC {
            return None;
        }
        let count = r(16) as usize;
        if count > MAX_SNAPSHOTS {
            return None;
        }
        let end = SNAP_HEADER + count * SNAP_ENTRY_LEN;
        if fnv1a(&block[0..24]) ^ fnv1a(&block[SNAP_HEADER..end]) != r(24) {
            return None;
        }
        let mut entries = Vec::with_capacity(count);
        for i in 0..count {
            let off = SNAP_HEADER + i * SNAP_ENTRY_LEN;
            let name_len = block[off + 32] as usize;
            if name_len > NAME_LEN {
                return None;
            }
            let name = String::from_utf8(block[off + 33..off + 33 + name_len].to_vec()).ok()?;
            entries.push(SnapEntry {
                name,
                object: ObjectId(r(off) as u32),
                epoch: r(off + 8),
                tree_root: r(off + 16),
                len_pages: r(off + 24),
                root_digest: u32::from_le_bytes(block[off + 121..off + 125].try_into().unwrap()),
            });
        }
        Some(SnapCatalog { seq: r(8), entries })
    }
}

/// An in-memory directory entry. `meta_base` is the first of the
/// object's [`OBJECT_META_BLOCKS`] reserved blocks: two root slots, then
/// the delta ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct DirEntry {
    pub name: String,
    pub id: ObjectId,
    pub meta_base: u64,
}

impl DirEntry {
    pub fn root_slot(&self, epoch: Epoch) -> u64 {
        self.meta_base + epoch % 2
    }

    pub fn delta_slot(&self, epoch: Epoch) -> u64 {
        self.meta_base + 2 + (epoch % DELTA_SLOTS)
    }

    pub fn encode(&self, out: &mut [u8]) {
        assert!(self.name.len() <= NAME_LEN, "object name too long");
        out[..DIR_ENTRY_LEN].fill(0);
        out[0] = 1; // present
        out[1..9].copy_from_slice(&(self.id.0 as u64).to_le_bytes());
        out[9..17].copy_from_slice(&self.meta_base.to_le_bytes());
        out[25] = self.name.len() as u8;
        out[26..26 + self.name.len()].copy_from_slice(self.name.as_bytes());
    }

    pub fn decode(data: &[u8]) -> Option<DirEntry> {
        if data[0] != 1 {
            return None;
        }
        let id = u64::from_le_bytes(data[1..9].try_into().unwrap()) as u32;
        let meta_base = u64::from_le_bytes(data[9..17].try_into().unwrap());
        let name_len = data[25] as usize;
        let name = String::from_utf8(data[26..26 + name_len].to_vec()).ok()?;
        Some(DirEntry {
            name,
            id: ObjectId(id),
            meta_base,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_record_round_trips() {
        let rec = RootRecord {
            object: ObjectId(7),
            epoch: 42,
            tree_root: 1234,
            len_pages: 99,
            high_water: 5000,
            root_digest: 0xDEAD_1234,
            flush_seq: 17,
        };
        let block = rec.to_block();
        assert_eq!(RootRecord::from_block(&block, ObjectId(7)), Some(rec));
    }

    #[test]
    fn torn_root_record_rejected() {
        let rec = RootRecord {
            object: ObjectId(1),
            epoch: 5,
            tree_root: 10,
            len_pages: 1,
            high_water: 11,
            root_digest: 7,
            flush_seq: 1,
        };
        let mut block = rec.to_block();
        block[20] ^= 0xFF;
        assert_eq!(RootRecord::from_block(&block, ObjectId(1)), None);
        // The tail fields are covered by the checksum too.
        let mut block = rec.to_block();
        block[50] ^= 1; // root_digest
        assert_eq!(RootRecord::from_block(&block, ObjectId(1)), None);
        let mut block = rec.to_block();
        block[57] ^= 1; // flush_seq
        assert_eq!(RootRecord::from_block(&block, ObjectId(1)), None);
    }

    #[test]
    fn root_record_object_mismatch_rejected() {
        let rec = RootRecord {
            object: ObjectId(1),
            epoch: 5,
            tree_root: 10,
            len_pages: 1,
            high_water: 11,
            root_digest: 0,
            flush_seq: 0,
        };
        let block = rec.to_block();
        assert_eq!(RootRecord::from_block(&block, ObjectId(2)), None);
    }

    /// Hand-encodes a v1 (pre-digest) root record: the retired format,
    /// self-consistent under its own magic and checksum rule.
    fn v1_root_block(object: ObjectId, epoch: u64, tree_root: u64) -> [u8; BLOCK_SIZE] {
        let mut block = [0u8; BLOCK_SIZE];
        let mut w = |off: usize, v: u64| block[off..off + 8].copy_from_slice(&v.to_le_bytes());
        w(0, 0x4d534e_41505253); // "MSN APRS"
        w(8, object.0 as u64);
        w(16, epoch);
        w(24, tree_root);
        w(32, 8); // len_pages
        w(40, tree_root + 1); // high_water
        let checksum = fnv1a(&block[0..48]);
        block[48..56].copy_from_slice(&checksum.to_le_bytes());
        block
    }

    #[test]
    fn v1_root_record_is_not_a_root_record() {
        let block = v1_root_block(ObjectId(3), 9, 500);
        assert_eq!(RootRecord::from_block(&block, ObjectId(3)), None);
    }

    #[test]
    fn digest32_folds_and_avoids_the_none_sentinel() {
        let d = digest32(b"hello world");
        let h = fnv1a(b"hello world");
        assert_eq!(d, (h ^ (h >> 32)) as u32);
        assert_ne!(digest32(b""), DIGEST_NONE);
        assert_ne!(digest32(b"a"), digest32(b"b"));
    }

    #[test]
    fn entry_words_pack_and_unpack() {
        let word = pack_entry(0xABCD, 0x1234_5678);
        assert_eq!(unpack_entry(word), (0xABCD, 0x1234_5678));
        // A bare block number (no high bits) unpacks with DIGEST_NONE.
        assert_eq!(unpack_entry(77), (77, DIGEST_NONE));
        assert_eq!(pack_entry(77, DIGEST_NONE), 77);
    }

    #[test]
    fn delta_record_round_trips() {
        let rec = DeltaRecord {
            object: ObjectId(3),
            epoch: 17,
            span: 0,
            tag: 0,
            len_pages: 1000,
            payload_sum: 0xDEAD_BEEF,
            pairs: vec![(5, 100), (907, 101), (13, 102)],
            body: Vec::new(),
        };
        let block = rec.to_block();
        assert_eq!(DeltaRecord::from_block(&block, ObjectId(3)), Some(rec));
    }

    /// A line-grain record of two pages: lines {0, 2} of page 5 and line
    /// 63 of page 9.
    fn inline_record() -> DeltaRecord {
        let mut body = Vec::new();
        body.extend_from_slice(&0b101u64.to_le_bytes());
        body.extend_from_slice(&[0xA0; 64]);
        body.extend_from_slice(&[0xA2; 64]);
        body.extend_from_slice(&(1u64 << 63).to_le_bytes());
        body.extend_from_slice(&[0xB7; 64]);
        DeltaRecord {
            object: ObjectId(3),
            epoch: 18,
            span: 0,
            tag: 0,
            len_pages: 10,
            payload_sum: FNV_OFFSET,
            pairs: vec![
                (5, pack_entry(INLINE_BLOCK, 0x1111)),
                (9, pack_entry(INLINE_BLOCK, 0x2222)),
            ],
            body,
        }
    }

    #[test]
    fn line_grain_record_round_trips_under_the_one_checksum() {
        let rec = inline_record();
        assert_eq!(
            DeltaRecord::inline_len([0b101, 1 << 63].into_iter()),
            64 + 2 * 16 + rec.body.len()
        );
        let block = rec.to_block();
        let back = DeltaRecord::from_block(&block, ObjectId(3)).unwrap();
        assert_eq!(back, rec);
        let lines = back.inline_lines().unwrap();
        assert_eq!(lines.len(), 2);
        assert_eq!((lines[0].0, lines[0].1.len()), (0b101, 128));
        assert_eq!((lines[1].0, lines[1].1), (1 << 63, &[0xB7; 64][..]));
        // A flipped line byte, a flipped mask bit and a lying body length
        // are all torn records.
        for (byte, bit) in [(64 + 32 + 8 + 70, 1), (64 + 32, 2), (56, 1)] {
            let mut torn = block;
            torn[byte] ^= bit;
            assert_eq!(
                DeltaRecord::from_block(&torn, ObjectId(3)),
                None,
                "byte {byte}"
            );
        }
    }

    #[test]
    fn a_body_that_does_not_match_its_inline_pairs_is_no_record() {
        // Checksummed correctly, but the body is a line short of its mask.
        let mut rec = inline_record();
        rec.body.truncate(rec.body.len() - 64);
        assert!(rec.inline_lines().is_none());
        assert_eq!(DeltaRecord::from_block(&rec.to_block(), ObjectId(3)), None);
        // And a page-grain pair owns no body bytes.
        let mut rec = inline_record();
        rec.pairs[1].1 = pack_entry(77, 0x2222);
        assert_eq!(DeltaRecord::from_block(&rec.to_block(), ObjectId(3)), None);
    }

    /// `rec` encoded with `span` written into its header as is — past
    /// what `to_block` accepts — and the checksum recomputed.
    fn with_raw_span(rec: &DeltaRecord, span: u64) -> [u8; BLOCK_SIZE] {
        let mut block = rec.to_block();
        block[36..40].copy_from_slice(&(span as u32).to_le_bytes());
        let end = 64 + rec.pairs.len() * 16 + rec.body.len();
        let checksum = fnv1a(&block[0..40]) ^ fnv1a(&block[48..end]);
        block[40..48].copy_from_slice(&checksum.to_le_bytes());
        block
    }

    #[test]
    fn a_folded_record_round_trips_its_span_and_tag_under_the_checksum() {
        let mut rec = inline_record();
        rec.span = 3;
        rec.tag = 0xABCD_0123;
        assert_eq!(rec.first_epoch(), 15);
        let block = rec.to_block();
        assert_eq!(
            DeltaRecord::from_block(&block, ObjectId(3)),
            Some(rec.clone())
        );
        assert_eq!(with_raw_span(&rec, 3), block);
        // The span and the tag share their words with the pair count and
        // the body length, under the one checksum.
        for byte in [36, 60] {
            let mut torn = block;
            torn[byte] ^= 1;
            assert_eq!(
                DeltaRecord::from_block(&torn, ObjectId(3)),
                None,
                "byte {byte}"
            );
        }
        let checksum = u64::from_le_bytes(block[40..48].try_into().unwrap());
        assert_eq!(tip_tag(&block), tag_of(checksum));
    }

    #[test]
    fn a_span_past_the_ring_or_below_epoch_zero_is_no_record() {
        let mut rec = inline_record();
        for (epoch, span, valid) in [
            (40, DELTA_SLOTS - 1, true),
            (40, DELTA_SLOTS, false),
            (40, u32::MAX as u64, false),
            (5, 5, true),
            (5, 6, false),
        ] {
            rec.epoch = epoch;
            let parsed = DeltaRecord::from_block(&with_raw_span(&rec, span), ObjectId(3));
            assert_eq!(
                parsed.map(|r| r.span),
                valid.then_some(span),
                "{epoch} {span}"
            );
        }
    }

    #[test]
    fn a_tag_folds_its_checksum_and_is_never_the_untagged_mark() {
        assert_eq!(tag_of(0x1234_5678_0000_00FF), 0x1234_5687);
        assert_eq!(tag_of(0), 1, "an object with no record yet");
        assert_eq!(tag_of(0xDEAD_BEEF_DEAD_BEEF), 1);
        assert_eq!(tip_tag(&[0u8; BLOCK_SIZE]), tag_of(0));
    }

    #[test]
    fn page_grain_record_is_the_body_less_case_of_the_one_format() {
        let rec = DeltaRecord {
            object: ObjectId(3),
            epoch: 17,
            span: 0,
            tag: 0,
            len_pages: 8,
            payload_sum: 7,
            pairs: vec![(1, 50)],
            body: Vec::new(),
        };
        let block = rec.to_block();
        // A one-epoch untagged record's span and tag halves stay zero — the
        // bytes older builds write — and nothing follows the pairs.
        let mut zero = block[36..40]
            .iter()
            .chain(&block[56..64])
            .chain(&block[80..]);
        assert!(zero.all(|&b| b == 0));
        assert_eq!(rec.inline_lines(), Some(Vec::new()));
    }

    #[test]
    fn torn_delta_rejected() {
        let rec = DeltaRecord {
            object: ObjectId(3),
            epoch: 17,
            span: 0,
            tag: 0,
            len_pages: 8,
            payload_sum: 7,
            pairs: vec![(1, 50)],
            body: Vec::new(),
        };
        let mut block = rec.to_block();
        block[70] ^= 1; // corrupt a pair
        assert_eq!(DeltaRecord::from_block(&block, ObjectId(3)), None);
    }

    #[test]
    fn delta_capacity_is_enforced() {
        let rec = DeltaRecord {
            object: ObjectId(0),
            epoch: 1,
            span: 0,
            tag: 0,
            len_pages: 1,
            payload_sum: 0,
            pairs: vec![(0, 1); MAX_DELTA_PAIRS],
            body: Vec::new(),
        };
        let block = rec.to_block();
        assert!(DeltaRecord::from_block(&block, ObjectId(0)).is_some());
    }

    #[test]
    fn empty_block_is_no_record() {
        let block = [0u8; BLOCK_SIZE];
        assert_eq!(RootRecord::from_block(&block, ObjectId(0)), None);
        assert_eq!(DeltaRecord::from_block(&block, ObjectId(0)), None);
        assert_eq!(BatchRecord::from_block(&block), None);
    }

    fn sample_batch() -> BatchRecord {
        BatchRecord {
            seq: 99,
            groups: vec![
                DeltaRecord {
                    object: ObjectId(1),
                    epoch: 7,
                    span: 0,
                    tag: 0,
                    len_pages: 12,
                    payload_sum: 0xAB,
                    pairs: vec![(0, 100), (11, 101)],
                    body: Vec::new(),
                },
                DeltaRecord {
                    object: ObjectId(4),
                    epoch: 31,
                    span: 0,
                    tag: 0,
                    len_pages: 2,
                    payload_sum: 0xCD,
                    pairs: vec![(1, 102)],
                    body: Vec::new(),
                },
            ],
        }
    }

    #[test]
    fn batch_record_round_trips() {
        let rec = sample_batch();
        let block = rec.to_block();
        assert_eq!(BatchRecord::from_block(&block), Some(rec));
    }

    #[test]
    fn torn_batch_record_rejected() {
        let mut block = sample_batch().to_block();
        block[40] ^= 1; // corrupt a group header
        assert_eq!(BatchRecord::from_block(&block), None);
        let mut block = sample_batch().to_block();
        block[25] ^= 0x80; // corrupt the checksum itself
        assert_eq!(BatchRecord::from_block(&block), None);
    }

    #[test]
    fn batch_payload_sum_participates_in_the_checksum() {
        let mut block = sample_batch().to_block();
        block[32 + 24] ^= 1; // first group's payload_sum field
        assert_eq!(BatchRecord::from_block(&block), None);
    }

    #[test]
    fn batch_capacity_check_matches_encoding() {
        // The largest record `fits` accepts must actually encode.
        let mut pairs = Vec::new();
        let mut n = 0usize;
        while BatchRecord::fits([n + 1].into_iter()) {
            n += 1;
            pairs.push((n as u64, 1000 + n as u64));
        }
        let rec = BatchRecord {
            seq: 1,
            groups: vec![DeltaRecord {
                object: ObjectId(0),
                epoch: 1,
                span: 0,
                tag: 0,
                len_pages: n as u64,
                payload_sum: 0,
                pairs,
                body: Vec::new(),
            }],
        };
        let block = rec.to_block();
        assert_eq!(BatchRecord::from_block(&block), Some(rec));
        assert!(!BatchRecord::fits([n + 1].into_iter()));
    }

    fn sample_catalog() -> SnapCatalog {
        SnapCatalog {
            seq: 5,
            entries: vec![
                SnapEntry {
                    name: "nightly".into(),
                    object: ObjectId(2),
                    epoch: 17,
                    tree_root: 900,
                    len_pages: 64,
                    root_digest: 0xAA55_1234,
                },
                SnapEntry {
                    name: "before-migration".into(),
                    object: ObjectId(2),
                    epoch: 40,
                    tree_root: 1800,
                    len_pages: 128,
                    root_digest: DIGEST_NONE,
                },
            ],
        }
    }

    #[test]
    fn snap_catalog_round_trips() {
        let cat = sample_catalog();
        let block = cat.to_block();
        assert_eq!(SnapCatalog::from_block(&block), Some(cat));
    }

    #[test]
    fn empty_snap_catalog_round_trips() {
        let cat = SnapCatalog::default();
        let block = cat.to_block();
        assert_eq!(SnapCatalog::from_block(&block), Some(cat));
    }

    #[test]
    fn torn_snap_catalog_rejected() {
        let mut block = sample_catalog().to_block();
        block[SNAP_HEADER + 16] ^= 1; // first entry's tree_root
        assert_eq!(SnapCatalog::from_block(&block), None);
        let mut block = sample_catalog().to_block();
        block[25] ^= 0x40; // the checksum itself
        assert_eq!(SnapCatalog::from_block(&block), None);
        assert_eq!(SnapCatalog::from_block(&[0u8; BLOCK_SIZE]), None);
    }

    #[test]
    fn snap_catalog_slots_alternate() {
        assert_eq!(SnapCatalog::slot(0), SNAP_CATALOG_START);
        assert_eq!(SnapCatalog::slot(1), SNAP_CATALOG_START + 1);
        assert_eq!(SnapCatalog::slot(2), SNAP_CATALOG_START);
    }

    #[test]
    fn snap_catalog_capacity_matches_encoding() {
        let entries = (0..MAX_SNAPSHOTS)
            .map(|i| SnapEntry {
                name: format!("snap-{i}"),
                object: ObjectId(i as u32),
                epoch: i as u64,
                tree_root: 100 + i as u64,
                len_pages: 1,
                root_digest: digest32(&[i as u8]),
            })
            .collect();
        let cat = SnapCatalog { seq: 1, entries };
        let block = cat.to_block();
        assert_eq!(SnapCatalog::from_block(&block), Some(cat));
    }

    #[test]
    fn dir_entry_round_trips() {
        let e = DirEntry {
            name: "postgres/base/16384".to_string(),
            id: ObjectId(3),
            meta_base: 100,
        };
        let mut buf = [0u8; DIR_ENTRY_LEN];
        e.encode(&mut buf);
        assert_eq!(DirEntry::decode(&buf), Some(e));
    }

    #[test]
    fn slot_mapping_alternates_and_wraps() {
        let e = DirEntry {
            name: "x".into(),
            id: ObjectId(0),
            meta_base: 50,
        };
        assert_eq!(e.root_slot(4), 50);
        assert_eq!(e.root_slot(5), 51);
        assert_eq!(e.delta_slot(1), 53);
        assert_eq!(e.delta_slot(1 + DELTA_SLOTS), 53);
        assert_ne!(e.delta_slot(1), e.delta_slot(2));
    }

    #[test]
    fn absent_dir_entry_decodes_none() {
        let buf = [0u8; DIR_ENTRY_LEN];
        assert_eq!(DirEntry::decode(&buf), None);
    }

    #[test]
    fn payload_sum_participates_in_the_record_checksum() {
        let rec = DeltaRecord {
            object: ObjectId(2),
            epoch: 9,
            span: 0,
            tag: 0,
            len_pages: 4,
            payload_sum: 0x1234,
            pairs: vec![(0, 80)],
            body: Vec::new(),
        };
        let mut block = rec.to_block();
        block[48] ^= 1; // corrupt the payload checksum itself
        assert_eq!(DeltaRecord::from_block(&block, ObjectId(2)), None);
    }

    #[test]
    fn fnv_extends_incrementally() {
        // Every piece but the last a whole number of 8-byte words.
        let whole = fnv1a(b"hello world");
        let parts = fnv1a_extend(fnv1a(b"hello wo"), b"rld");
        assert_eq!(whole, parts);
    }

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }

    #[test]
    fn superblock_round_trips_and_rejects_garbage() {
        let sb = Superblock {
            shard_count: 4,
            extent_blocks: 1024,
        };
        let block = sb.to_block();
        assert_eq!(Superblock::from_block(&block), Some(sb));
        let mut torn = sb.to_block();
        torn[9] ^= 1;
        assert_eq!(Superblock::from_block(&torn), None);
        // A slab head is not the store superblock.
        let mut slab = [0u8; BLOCK_SIZE];
        slab[0..8].copy_from_slice(&SLAB_MAGIC.to_le_bytes());
        assert_eq!(Superblock::from_block(&slab), None);
        // Degenerate shard counts are rejected even if checksummed.
        let zero = Superblock {
            shard_count: 0,
            extent_blocks: 8,
        };
        assert_eq!(Superblock::from_block(&zero.to_block()), None);
    }

    #[test]
    fn cut_record_round_trips_and_rejects_torn() {
        let cut = CutRecord {
            seq: 7,
            epochs: vec![12, 0, 99, 3],
        };
        let block = cut.to_block();
        assert_eq!(CutRecord::from_block(&block), Some(cut));
        let mut torn = CutRecord {
            seq: 7,
            epochs: vec![12, 0, 99, 3],
        }
        .to_block();
        torn[40] ^= 1; // second component
        assert_eq!(CutRecord::from_block(&torn), None);
        assert_eq!(CutRecord::from_block(&[0u8; BLOCK_SIZE]), None);
        // Slots alternate.
        assert_eq!(CutRecord::slot(0), CUT_SLOT_START);
        assert_eq!(CutRecord::slot(1), CUT_SLOT_START + 1);
        assert_eq!(CutRecord::slot(2), CUT_SLOT_START);
    }

    #[test]
    fn shard_layouts_tile_without_overlap() {
        let single = ShardLayout::sharded(0, 1);
        assert_eq!(single.slab_head(), SHARD_SLAB_START + SLAB_HEAD);
        assert_eq!(single.dir_start(), SHARD_SLAB_START + DIR_START);
        assert_eq!(
            single.batch_ring_start(),
            SHARD_SLAB_START + BATCH_RING_START
        );
        assert_eq!(
            single.snap_slot(1),
            SHARD_SLAB_START + SNAP_CATALOG_START + 1
        );
        assert_eq!(single.data_floor, SHARD_SLAB_START + SHARD_SLAB_BLOCKS);

        let n = 4;
        let mut prev_end = SHARD_SLAB_START;
        for s in 0..n {
            let l = ShardLayout::sharded(s, n);
            assert_eq!(l.base, prev_end, "slabs tile densely");
            let slab_end = l.base + SHARD_SLAB_BLOCKS;
            assert!(l.snap_slot(1) < slab_end, "metadata stays in the slab");
            assert_eq!(
                l.data_floor,
                SHARD_SLAB_START + n as u64 * SHARD_SLAB_BLOCKS
            );
            prev_end = slab_end;
        }
        assert_eq!(ShardLayout::sharded(0, n).data_floor, prev_end);
    }
}
