//! On-disk layout: superblock, cut slots, shard slabs, directory entries,
//! root, delta, batch and snapshot-catalog records.
//!
//! There is one generation of every record (DESIGN.md §6l): block 0 is
//! the store superblock, the two cut slots follow, then one metadata
//! slab per shard, then the data area the extent broker hands out.
//!
//! Every metadata block but a directory block is **sealed** one way: its
//! magic at byte 0, its checksum at byte 8, its fields from byte 16 on,
//! written by [`seal`] and verified by [`unseal`]. Every decoder reads
//! through a bounds-checked [`Reader`], so no device byte can steer a
//! read out of its block.

use msnap_disk::BLOCK_SIZE;
use msnap_sim::wire::{put_u32, put_u64, Reader, Short};

use crate::lines::LINE_SIZE;
pub use msnap_sim::hash::{fnv1a, fnv1a_extend, FNV_OFFSET};

/// Bytes read off the device that are not the record they claim to be:
/// too short, or a field out of its range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Invalid;

impl From<Short> for Invalid {
    fn from(_: Short) -> Self {
        Invalid
    }
}

/// `Err(Invalid)` unless `ok`.
fn ensure(ok: bool) -> Result<(), Invalid> {
    ok.then_some(()).ok_or(Invalid)
}

/// The next word as a count of at most `max`.
fn count(r: &mut Reader, max: usize) -> Result<usize, Invalid> {
    let n = r.u64()?;
    ensure(n <= max as u64)?;
    Ok(n as usize)
}

/// The next word, which must fit 32 bits (an object id or a digest).
fn word32(r: &mut Reader) -> Result<u32, Invalid> {
    u32::try_from(r.u64()?).map_err(|_| Invalid)
}

/// The next name field: a length byte (at most [`NAME_LEN`]), then
/// `NAME_LEN` bytes that start with the name in UTF-8.
fn read_name(r: &mut Reader) -> Result<String, Invalid> {
    let len = usize::from(r.u8()?);
    ensure(len <= NAME_LEN)?;
    let name = String::from_utf8(r.take(len)?.to_vec()).map_err(|_| Invalid)?;
    r.take(NAME_LEN - len)?;
    Ok(name)
}

/// Appends `words` little-endian.
fn put_words(out: &mut Vec<u8>, words: &[u64]) {
    words.iter().for_each(|w| put_u64(out, *w));
}

/// Bytes of the seal a sealed block opens with: its magic, then its
/// checksum.
const SEAL_LEN: usize = 16;

/// The checksum of a sealed block whose record ends at `end`: FNV-1a over
/// every byte the record occupies but the checksum itself — the magic,
/// then bytes 16 to `end`.
fn checksum(block: &[u8], end: usize) -> u64 {
    fnv1a_extend(fnv1a(&block[..8]), &block[SEAL_LEN..end])
}

/// Seals one record into a zero-padded block image: `magic` at byte 0,
/// the fields `put` appends from byte 16 on, and their [`checksum`] at
/// byte 8. The one writer of every sealed block.
///
/// # Panics
///
/// Panics if the record outgrows the block.
fn seal(magic: u64, put: impl FnOnce(&mut Vec<u8>)) -> [u8; BLOCK_SIZE] {
    let mut bytes = [magic.to_le_bytes(), [0; 8]].concat();
    put(&mut bytes);
    assert!(bytes.len() <= BLOCK_SIZE, "record overflows its block");
    let mut block = [0u8; BLOCK_SIZE];
    block[..bytes.len()].copy_from_slice(&bytes);
    block[8..SEAL_LEN].copy_from_slice(&checksum(&bytes, bytes.len()).to_le_bytes());
    block
}

/// Opens one sealed record: `None` unless `block` starts with `magic`,
/// `read` decodes the fields after the seal, and the checksum at byte 8
/// matches over exactly the bytes `read` consumed. The one reader of
/// every sealed block.
fn unseal<T>(
    block: &[u8],
    magic: u64,
    read: impl FnOnce(&mut Reader) -> Result<T, Invalid>,
) -> Option<T> {
    let mut r = Reader::new(block);
    if r.u64().ok()? != magic {
        return None;
    }
    let sum = r.u64().ok()?;
    let record = read(&mut r).ok()?;
    (checksum(block, r.at()) == sum).then_some(record)
}

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
const ROOT_MAGIC: u64 = 0x4d534e_41505232; // "MSN APR2"
/// Magic number of a delta record block.
const DELTA_MAGIC: u64 = 0x4d534e_41504454; // "MSN APDT"
/// Magic number of a batch (group-commit) record block.
const BATCH_MAGIC: u64 = 0x4d534e_41504254; // "MSN APBT"
/// Magic number of the head block of each shard's metadata slab.
const SLAB_MAGIC: u64 = 0x4d534e41_50535550; // "MSNA PSUP"
/// Magic number of the store superblock at block 0. The superblock
/// carries the shard count and extent-broker granularity; the cut slots
/// and the per-shard metadata slabs follow it.
const SUPER_MAGIC: u64 = 0x4d534e41_50535533; // "MSNA PSU3"
/// Magic number of an epoch-vector cut record block.
const CUT_MAGIC: u64 = 0x4d534e_41504354; // "MSN APCT"
/// Magic number of a snapshot-catalog block.
const SNAP_MAGIC: u64 = 0x4d534e_41505350; // "MSN APSP"

/// The head block of a shard's metadata slab: a sealed record with no
/// fields, which marks the slab formatted.
pub(crate) fn slab_head_image() -> [u8; BLOCK_SIZE] {
    seal(SLAB_MAGIC, |_| {})
}

/// Whether `block` is a [`slab_head_image`].
pub(crate) fn is_slab_head(block: &[u8]) -> bool {
    unseal(block, SLAB_MAGIC, |_| Ok(())).is_some()
}

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
        seal(SUPER_MAGIC, |out| {
            put_words(out, &[self.shard_count, self.extent_blocks])
        })
    }

    /// Parses and validates the superblock; `None` if the block is not
    /// one (an unformatted device) or is corrupt.
    pub fn from_block(block: &[u8]) -> Option<Superblock> {
        unseal(block, SUPER_MAGIC, |r| {
            let sb = Superblock {
                shard_count: r.u64()?,
                extent_blocks: r.u64()?,
            };
            ensure((1..=MAX_SHARDS as u64).contains(&sb.shard_count) && sb.extent_blocks != 0)?;
            Ok(sb)
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
        seal(CUT_MAGIC, |out| {
            put_words(out, &[self.seq, self.epochs.len() as u64]);
            put_words(out, &self.epochs);
        })
    }

    /// Parses and validates a cut-slot block; `None` if the slot is
    /// empty or torn.
    pub fn from_block(block: &[u8]) -> Option<CutRecord> {
        unseal(block, CUT_MAGIC, |r| {
            let seq = r.u64()?;
            let n = count(r, MAX_SHARDS)?;
            let epochs = (0..n).map(|_| r.u64()).collect::<Result<_, _>>()?;
            Ok(CutRecord { seq, epochs })
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

/// Bytes of a delta record's six field words: what follows the seal in a
/// delta slot, and what heads each group of a batch record.
const DELTA_FIELDS: usize = 48;
/// Bytes before a delta record's pairs.
const DELTA_HEADER: usize = SEAL_LEN + DELTA_FIELDS;
/// Maximum (page, block) pairs in one delta record.
pub const MAX_DELTA_PAIRS: usize = (BLOCK_SIZE - DELTA_HEADER) / 16;

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
/// by a block with this checksum: folded to 32 bits and kept off 0, so a
/// zeroed tag field never names a tip. An object with no root or record
/// yet has checksum 0.
pub(crate) fn tag_of(checksum: u64) -> u32 {
    ((checksum ^ (checksum >> 32)) as u32).max(1)
}

/// [`tag_of`] the checksum at byte 8 of a sealed root, delta or batch
/// record block: the tag of a record that extends the tip this block
/// commits.
pub(crate) fn tip_tag(block: &[u8]) -> u32 {
    let mut r = Reader::new(block);
    tag_of(r.take(8).and_then(|_| r.u64()).unwrap_or(0))
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
        let (object, digest) = (u64::from(self.object.0), u64::from(self.root_digest));
        seal(ROOT_MAGIC, |out| {
            put_words(out, &[object, self.epoch, self.tree_root, self.len_pages]);
            put_words(out, &[self.high_water, digest, self.flush_seq]);
        })
    }

    /// Parses and validates a root-slot block; `None` if the slot is
    /// empty, torn, or belongs to a different object.
    pub fn from_block(block: &[u8], expect: ObjectId) -> Option<RootRecord> {
        let root = unseal(block, ROOT_MAGIC, |r| {
            Ok(RootRecord {
                object: ObjectId(word32(r)?),
                epoch: r.u64()?,
                tree_root: r.u64()?,
                len_pages: r.u64()?,
                high_water: r.u64()?,
                root_digest: word32(r)?,
                flush_seq: r.u64()?,
            })
        });
        root.filter(|root| root.object == expect)
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
/// Each group of a [`BatchRecord`] is one of these too, in the same bytes
/// as in a delta slot: its `payload_sum` covers *its* data blocks only,
/// so recovery truncation stays per-object even though the commit record
/// is shared.
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
    /// and kept off 0. Replay accepts the record only on top of that tip.
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
        DELTA_HEADER
            + masks
                .map(|m| 16 + 8 + LINE_SIZE * m.count_ones() as usize)
                .sum::<usize>()
    }

    /// The `(mask, line bytes)` of each inline pair, in pair order; `None`
    /// unless `body` holds exactly that.
    pub fn inline_lines(&self) -> Option<Vec<(u64, &[u8])>> {
        let mut r = Reader::new(&self.body);
        let mut out = Vec::new();
        for (_, word) in &self.pairs {
            if unpack_entry(*word).0 == INLINE_BLOCK {
                let mask = r.u64().ok()?;
                out.push((mask, r.take(LINE_SIZE * mask.count_ones() as usize).ok()?));
            }
        }
        r.rest().is_empty().then_some(out)
    }

    /// The data blocks of the page-grain pairs, in pair order: the
    /// commit's data extent.
    pub(crate) fn data_blocks(&self) -> impl Iterator<Item = u64> + '_ {
        let blocks = self.pairs.iter().map(|(_, word)| unpack_entry(*word).0);
        blocks.filter(|block| *block != INLINE_BLOCK)
    }

    /// Appends the record after its seal: the six field words (object,
    /// epoch, `len_pages`, pair count | `span` << 32, `payload_sum`, body
    /// length | `tag` << 32), the pairs, then the body. A delta slot and a
    /// batch group hold the same bytes.
    ///
    /// # Panics
    ///
    /// Panics if there are more than [`MAX_DELTA_PAIRS`] pairs or `span`
    /// is out of range.
    fn put(&self, out: &mut Vec<u8>) {
        assert!(self.pairs.len() <= MAX_DELTA_PAIRS, "delta record overflow");
        assert!(
            self.span < DELTA_SLOTS && self.span <= self.epoch,
            "delta record span"
        );
        let count = self.pairs.len() as u64 | self.span << 32;
        let body = self.body.len() as u64 | u64::from(self.tag) << 32;
        put_words(out, &[u64::from(self.object.0), self.epoch, self.len_pages]);
        put_words(out, &[count, self.payload_sum, body]);
        for (page, word) in &self.pairs {
            put_words(out, &[*page, *word]);
        }
        out.extend_from_slice(&self.body);
    }

    /// Reads what [`DeltaRecord::put`] appends; `Invalid` for a count or
    /// span out of range, or a body that is not what the inline pairs
    /// call for.
    fn read(r: &mut Reader) -> Result<DeltaRecord, Invalid> {
        let object = ObjectId(word32(r)?);
        let (epoch, len_pages) = (r.u64()?, r.u64()?);
        let (count, span) = (r.u32()? as usize, u64::from(r.u32()?));
        let payload_sum = r.u64()?;
        let (body_len, tag) = (r.u32()? as usize, r.u32()?);
        ensure(count <= MAX_DELTA_PAIRS && span < DELTA_SLOTS && span <= epoch)?;
        let pairs = (0..count)
            .map(|_| Ok((r.u64()?, r.u64()?)))
            .collect::<Result<_, Short>>()?;
        let record = DeltaRecord {
            object,
            epoch,
            span,
            tag,
            len_pages,
            payload_sum,
            pairs,
            body: r.take(body_len)?.to_vec(),
        };
        ensure(record.inline_lines().is_some())?;
        Ok(record)
    }

    /// Serializes into a block image.
    ///
    /// # Panics
    ///
    /// Panics if there are more than [`MAX_DELTA_PAIRS`] pairs, the pairs
    /// and body outgrow the block, or `span` is out of range.
    pub fn to_block(&self) -> [u8; BLOCK_SIZE] {
        seal(DELTA_MAGIC, |out| self.put(out))
    }

    /// Parses and validates a delta-slot block.
    pub fn from_block(block: &[u8], expect: ObjectId) -> Option<DeltaRecord> {
        unseal(block, DELTA_MAGIC, DeltaRecord::read).filter(|d| d.object == expect)
    }
}

/// Bytes before a batch record's first group: seal, sequence, group count.
const BATCH_HEADER: usize = SEAL_LEN + 16;

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
    /// Whether a record of body-less groups with these pair counts fits
    /// one block.
    pub fn fits(pair_counts: impl Iterator<Item = usize>) -> bool {
        BATCH_HEADER + pair_counts.map(|n| DELTA_FIELDS + n * 16).sum::<usize>() <= BLOCK_SIZE
    }

    /// Serializes into a block image.
    ///
    /// # Panics
    ///
    /// Panics if the record does not fit one block (callers check with
    /// [`BatchRecord::fits`] first), or a group would not encode as a
    /// delta record.
    pub fn to_block(&self) -> [u8; BLOCK_SIZE] {
        seal(BATCH_MAGIC, |out| {
            put_words(out, &[self.seq, self.groups.len() as u64]);
            self.groups.iter().for_each(|g| g.put(out));
        })
    }

    /// Parses and validates a batch-slot block; `None` if the slot is
    /// empty or torn.
    pub fn from_block(block: &[u8]) -> Option<BatchRecord> {
        unseal(block, BATCH_MAGIC, |r| {
            let seq = r.u64()?;
            let n = count(r, (BLOCK_SIZE - BATCH_HEADER) / DELTA_FIELDS)?;
            let groups = (0..n)
                .map(|_| DeltaRecord::read(r))
                .collect::<Result<_, _>>()?;
            Ok(BatchRecord { seq, groups })
        })
    }
}

/// Bytes before the first catalog entry: seal, sequence, entry count.
const SNAP_HEADER: usize = SEAL_LEN + 16;
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
        seal(SNAP_MAGIC, |out| {
            put_words(out, &[self.seq, self.entries.len() as u64]);
            for e in &self.entries {
                assert!(e.name.len() <= NAME_LEN, "snapshot name too long");
                let start = out.len();
                put_words(
                    out,
                    &[u64::from(e.object.0), e.epoch, e.tree_root, e.len_pages],
                );
                // The name in a `NAME_LEN` field, then the digest.
                out.push(e.name.len() as u8);
                out.extend_from_slice(e.name.as_bytes());
                out.resize(start + 33 + NAME_LEN, 0);
                put_u32(out, e.root_digest);
                out.resize(start + SNAP_ENTRY_LEN, 0);
            }
        })
    }

    /// Parses and validates a catalog-slot block; `None` if the slot is
    /// empty or torn.
    pub fn from_block(block: &[u8]) -> Option<SnapCatalog> {
        unseal(block, SNAP_MAGIC, |r| {
            let seq = r.u64()?;
            let n = count(r, MAX_SNAPSHOTS)?;
            let entry = |r: &mut Reader| -> Result<_, Invalid> {
                let e = SnapEntry {
                    object: ObjectId(word32(r)?),
                    epoch: r.u64()?,
                    tree_root: r.u64()?,
                    len_pages: r.u64()?,
                    name: read_name(r)?,
                    root_digest: r.u32()?,
                };
                r.take(SNAP_ENTRY_LEN - (33 + NAME_LEN + 4))?;
                Ok(e)
            };
            let entries = (0..n).map(|_| entry(r)).collect::<Result<_, _>>()?;
            Ok(SnapCatalog { seq, entries })
        })
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

    /// `Ok(None)` for an absent entry; `Invalid` for a present one whose
    /// name is longer than `NAME_LEN` or not UTF-8, or whose id or
    /// `meta_base` does not fit 32 bits.
    pub fn decode(data: &[u8]) -> Result<Option<DirEntry>, Invalid> {
        let mut r = Reader::new(data);
        if r.u8()? != 1 {
            return Ok(None);
        }
        let id = ObjectId(word32(&mut r)?);
        let meta_base = u64::from(word32(&mut r)?);
        r.take(8)?;
        let name = read_name(&mut r)?;
        Ok(Some(DirEntry {
            name,
            id,
            meta_base,
        }))
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
        block[28] ^= 0xFF; // epoch
        assert_eq!(RootRecord::from_block(&block, ObjectId(1)), None);
        // The tail fields are covered by the checksum too.
        let mut block = rec.to_block();
        block[58] ^= 1; // root_digest
        assert_eq!(RootRecord::from_block(&block, ObjectId(1)), None);
        let mut block = rec.to_block();
        block[65] ^= 1; // flush_seq
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
        block[44..48].copy_from_slice(&(span as u32).to_le_bytes());
        reseal(&mut block, 64 + rec.pairs.len() * 16 + rec.body.len());
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
        for byte in [44, 60] {
            let mut torn = block;
            torn[byte] ^= 1;
            assert_eq!(
                DeltaRecord::from_block(&torn, ObjectId(3)),
                None,
                "byte {byte}"
            );
        }
        let checksum = u64::from_le_bytes(block[8..16].try_into().unwrap());
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
        // A one-epoch record's span half and a body-less one's body length
        // stay zero, and nothing follows the pairs.
        let mut zero = block[44..48]
            .iter()
            .chain(&block[56..60])
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

    /// Two page-grain groups and a folded line-grain one: a batch group is
    /// a delta record, tag, span and body included.
    fn sample_batch() -> BatchRecord {
        let mut lines = inline_record();
        lines.span = 2;
        lines.tag = 0x0BAD_CAFE;
        BatchRecord {
            seq: 99,
            groups: vec![
                DeltaRecord {
                    object: ObjectId(1),
                    epoch: 7,
                    span: 0,
                    tag: 0x1111_2222,
                    len_pages: 12,
                    payload_sum: 0xAB,
                    pairs: vec![(0, 100), (11, 101)],
                    body: Vec::new(),
                },
                DeltaRecord {
                    object: ObjectId(4),
                    epoch: 31,
                    span: 0,
                    tag: 0x3333_4444,
                    len_pages: 2,
                    payload_sum: 0xCD,
                    pairs: vec![(1, 102)],
                    body: Vec::new(),
                },
                lines,
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
        block[9] ^= 0x80; // corrupt the checksum itself
        assert_eq!(BatchRecord::from_block(&block), None);
    }

    #[test]
    fn batch_payload_sum_participates_in_the_checksum() {
        let mut block = sample_batch().to_block();
        block[32 + 32] ^= 1; // first group's payload_sum field
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
        block[9] ^= 0x40; // the checksum itself
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
        assert_eq!(DirEntry::decode(&buf), Ok(Some(e)));
    }

    #[test]
    fn a_present_entry_that_does_not_decode_is_invalid_not_a_panic() {
        let e = DirEntry {
            name: "n".repeat(NAME_LEN),
            id: ObjectId(3),
            meta_base: 100,
        };
        let mut whole = [0u8; DIR_ENTRY_LEN];
        e.encode(&mut whole);
        assert_eq!(DirEntry::decode(&whole), Ok(Some(e)));
        // The name length past the name field, up to what overran the
        // entry; a name byte that is not UTF-8; an id or a `meta_base`
        // past 32 bits.
        let mut rotted: Vec<(usize, u8)> = (NAME_LEN + 1..=255).map(|n| (25, n as u8)).collect();
        rotted.extend([(26, 0xFF), (5, 1), (16, 0x80)]);
        for (byte, value) in rotted {
            let mut buf = whole;
            buf[byte] = value;
            assert_eq!(
                DirEntry::decode(&buf),
                Err(Invalid),
                "byte {byte} = {value}"
            );
        }
        // A short entry is invalid too, not a panic.
        assert_eq!(DirEntry::decode(&whole[..20]), Err(Invalid));
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
        assert_eq!(DirEntry::decode(&buf), Ok(None));
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
        torn[17] ^= 1;
        assert_eq!(Superblock::from_block(&torn), None);
        // A slab head is not the store superblock.
        assert_eq!(Superblock::from_block(&slab_head_image()), None);
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

    // ---- every sealed record ------------------------------------------

    /// Recomputes the checksum of a sealed block whose record ends at
    /// `end`, so a test can plant any field value behind a valid seal.
    fn reseal(block: &mut [u8; BLOCK_SIZE], end: usize) {
        let sum = checksum(block, end);
        block[8..16].copy_from_slice(&sum.to_le_bytes());
    }

    /// Writes `v` little-endian at `off`.
    fn put(block: &mut [u8; BLOCK_SIZE], off: usize, v: u64) {
        block[off..off + 8].copy_from_slice(&v.to_le_bytes());
    }

    fn sample_root() -> RootRecord {
        RootRecord {
            object: ObjectId(7),
            epoch: 42,
            tree_root: 1234,
            len_pages: 99,
            high_water: 5000,
            root_digest: 0xDEAD_1234,
            flush_seq: 17,
        }
    }

    fn sample_cut() -> CutRecord {
        CutRecord {
            seq: 7,
            epochs: vec![12, 0, 99, 3],
        }
    }

    fn sample_superblock() -> Superblock {
        Superblock {
            shard_count: 4,
            extent_blocks: 1024,
        }
    }

    /// A page-grain record, a line-grain one and a folded one.
    fn sample_deltas() -> [DeltaRecord; 3] {
        let mut folded = inline_record();
        folded.span = 3;
        folded.tag = 0xABCD_0123;
        [
            DeltaRecord {
                object: ObjectId(3),
                epoch: 17,
                span: 0,
                tag: 0x1357_9BDF,
                len_pages: 1000,
                payload_sum: 0xDEAD_BEEF,
                pairs: vec![(5, 100), (907, 101), (13, 102)],
                body: Vec::new(),
            },
            inline_record(),
            folded,
        ]
    }

    /// One encoded record: what it is, its block, the bytes it occupies,
    /// and whether a block decodes as a record of its kind.
    struct Sample {
        name: &'static str,
        block: [u8; BLOCK_SIZE],
        len: usize,
        decodes: Decodes,
    }

    type Decodes = Box<dyn Fn(&[u8]) -> bool>;

    /// Every sealed record the store writes, one of each shape.
    fn samples() -> Vec<Sample> {
        let delta_len = |d: &DeltaRecord| 64 + 16 * d.pairs.len() + d.body.len();
        let batch = sample_batch();
        let mut out = vec![
            Sample {
                name: "superblock",
                block: sample_superblock().to_block(),
                len: 32,
                decodes: Box::new(|b| Superblock::from_block(b).is_some()),
            },
            Sample {
                name: "cut",
                block: sample_cut().to_block(),
                len: 32 + 8 * sample_cut().epochs.len(),
                decodes: Box::new(|b| CutRecord::from_block(b).is_some()),
            },
            Sample {
                name: "root",
                block: sample_root().to_block(),
                len: 72,
                decodes: Box::new(|b| RootRecord::from_block(b, ObjectId(7)).is_some()),
            },
            Sample {
                name: "batch",
                block: batch.to_block(),
                // Each group is a delta record's bytes after its seal.
                len: 32
                    + batch
                        .groups
                        .iter()
                        .map(|g| delta_len(g) - 16)
                        .sum::<usize>(),
                decodes: Box::new(|b| BatchRecord::from_block(b).is_some()),
            },
            Sample {
                name: "catalog",
                block: sample_catalog().to_block(),
                len: SNAP_HEADER + SNAP_ENTRY_LEN * sample_catalog().entries.len(),
                decodes: Box::new(|b| SnapCatalog::from_block(b).is_some()),
            },
            Sample {
                name: "slab head",
                block: slab_head_image(),
                len: 16,
                decodes: Box::new(is_slab_head),
            },
        ];
        for (name, d) in ["page-grain delta", "line-grain delta", "folded delta"]
            .into_iter()
            .zip(sample_deltas())
        {
            out.push(Sample {
                name,
                block: d.to_block(),
                len: delta_len(&d),
                decodes: Box::new(move |b| DeltaRecord::from_block(b, d.object).is_some()),
            });
        }
        out
    }

    #[test]
    fn every_sealed_record_round_trips() {
        let sb = sample_superblock();
        assert_eq!(Superblock::from_block(&sb.to_block()), Some(sb));
        let cut = sample_cut();
        assert_eq!(CutRecord::from_block(&cut.to_block()), Some(cut));
        let root = sample_root();
        assert_eq!(
            RootRecord::from_block(&root.to_block(), root.object),
            Some(root)
        );
        for d in sample_deltas() {
            assert_eq!(DeltaRecord::from_block(&d.to_block(), d.object), Some(d));
        }
        let batch = sample_batch();
        assert_eq!(BatchRecord::from_block(&batch.to_block()), Some(batch));
        let cat = sample_catalog();
        assert_eq!(SnapCatalog::from_block(&cat.to_block()), Some(cat));
        for s in samples() {
            assert!((s.decodes)(&s.block), "{}", s.name);
            assert!(s.block[s.len..].iter().all(|&b| b == 0), "{}", s.name);
        }
    }

    #[test]
    fn every_single_bit_flip_inside_a_record_is_no_record() {
        for s in samples() {
            for byte in 0..s.len {
                for bit in 0..8 {
                    let mut torn = s.block;
                    torn[byte] ^= 1 << bit;
                    assert!(!(s.decodes)(&torn), "{}: byte {byte} bit {bit}", s.name);
                }
            }
        }
    }

    #[test]
    fn a_superblock_out_of_range_is_no_superblock() {
        for (at, v) in [
            (16, 0),
            (16, MAX_SHARDS as u64 + 1),
            (16, u64::MAX),
            (24, 0),
        ] {
            let mut block = sample_superblock().to_block();
            put(&mut block, at, v);
            reseal(&mut block, 32);
            assert_eq!(Superblock::from_block(&block), None, "word {at} = {v}");
        }
        // The largest store there is still is one.
        let mut block = sample_superblock().to_block();
        put(&mut block, 16, MAX_SHARDS as u64);
        reseal(&mut block, 32);
        assert!(Superblock::from_block(&block).is_some());
    }

    #[test]
    fn a_cut_with_more_components_than_shards_is_no_cut() {
        let mut block = sample_cut().to_block();
        put(&mut block, 24, MAX_SHARDS as u64 + 1);
        reseal(&mut block, 32 + 8 * (MAX_SHARDS + 1));
        assert_eq!(CutRecord::from_block(&block), None);
        put(&mut block, 24, u64::MAX);
        assert_eq!(CutRecord::from_block(&block), None);
        put(&mut block, 24, MAX_SHARDS as u64);
        reseal(&mut block, 32 + 8 * MAX_SHARDS);
        assert_eq!(
            CutRecord::from_block(&block).unwrap().epochs.len(),
            MAX_SHARDS
        );
    }

    #[test]
    fn a_delta_whose_counts_outrun_the_block_is_no_record() {
        let d = &sample_deltas()[1];
        // (word, low half) → value: the pair count and the body length.
        for (at, v) in [
            (40, MAX_DELTA_PAIRS as u64 + 1),
            (40, u32::MAX as u64),
            (56, (BLOCK_SIZE - 64 - 16 * d.pairs.len()) as u64 + 1),
            (56, u32::MAX as u64),
        ] {
            let mut block = d.to_block();
            let word = u64::from_le_bytes(block[at..at + 8].try_into().unwrap());
            put(&mut block, at, word & !0xFFFF_FFFF | v);
            reseal(&mut block, BLOCK_SIZE);
            assert_eq!(DeltaRecord::from_block(&block, d.object), None, "{at}: {v}");
        }
    }

    #[test]
    fn a_batch_whose_groups_outrun_the_block_is_no_record() {
        // More groups than the block holds, and a group with more pairs
        // than the block holds.
        let batch = sample_batch();
        let len = 32
            + batch
                .groups
                .iter()
                .map(|g| 48 + 16 * g.pairs.len() + g.body.len())
                .sum::<usize>();
        for (at, v) in [
            (24, (BLOCK_SIZE as u64 - 32) / 48 + 1),
            (24, u64::MAX),
            (32 + 24, 253),
            (32 + 24, u64::MAX),
        ] {
            let mut block = batch.to_block();
            put(&mut block, at, v);
            reseal(&mut block, len);
            assert_eq!(BatchRecord::from_block(&block), None, "{at}: {v}");
        }
    }

    #[test]
    fn a_catalog_out_of_range_is_no_catalog() {
        let cat = sample_catalog();
        let len = SNAP_HEADER + SNAP_ENTRY_LEN * cat.entries.len();
        let mut block = cat.to_block();
        put(&mut block, 24, MAX_SNAPSHOTS as u64 + 1);
        reseal(&mut block, BLOCK_SIZE);
        assert_eq!(SnapCatalog::from_block(&block), None);
        // A name longer than the entry's name field.
        for name_len in [NAME_LEN as u8 + 1, u8::MAX] {
            let mut block = cat.to_block();
            block[SNAP_HEADER + 32] = name_len;
            reseal(&mut block, len);
            assert_eq!(SnapCatalog::from_block(&block), None, "{name_len}");
        }
    }

    #[test]
    fn random_bytes_behind_a_valid_magic_never_panic() {
        // A xorshift stream: the same bytes every run.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let entry = {
            let mut buf = [0u8; DIR_ENTRY_LEN];
            let name = "n".repeat(20);
            let (id, meta_base) = (ObjectId(3), 100);
            DirEntry {
                name,
                id,
                meta_base,
            }
            .encode(&mut buf);
            buf
        };
        for s in samples() {
            for round in 0..3000 {
                // Everything after the magic random; or the record with a
                // few bytes, or a few words set to small numbers, planted in
                // and just past it, resealed.
                let mut block = s.block;
                let reach = s.len + 16;
                match round % 3 {
                    0 => block[8..].iter_mut().for_each(|b| *b = next() as u8),
                    1 => (0..1 + round % 5)
                        .for_each(|_| block[8 + next() as usize % (reach - 8)] = next() as u8),
                    _ => (0..1 + round % 3).for_each(|_| {
                        let at = 8 * (2 + next() as usize % (reach / 8 - 2));
                        put(&mut block, at, next() % 600);
                    }),
                }
                if round % 3 != 0 {
                    reseal(&mut block, s.len);
                }
                let _ = (s.decodes)(&block);
                let mut buf = entry;
                buf.iter_mut()
                    .for_each(|b| *b ^= (next() % 4 == 0) as u8 * next() as u8);
                let _ = DirEntry::decode(&buf);
            }
        }
    }
}
