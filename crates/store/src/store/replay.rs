//! Recovery: open a shard's slab, then for each object adopt its newest
//! full root and replay the record suffix above it through
//! `apply_record`, the commit path's own apply.

use super::*;

/// The newest valid full root in an object's two root slots, with the
/// tag a record extending it carries (its `tip` word, or its own block's
/// tag when that is 0). `flush_seq` breaks ties when both
/// slots hold the *same* epoch: a repair commit rewrites the root at the
/// current epoch, and recovery must adopt the repaired (higher-sequence)
/// one.
fn newest_root(vt: &mut Vt, root_slots: &[u8], object: ObjectId) -> Option<(RootRecord, u32)> {
    let mut newest: Option<(RootRecord, u32)> = None;
    for block in root_slots.chunks(BLOCK_SIZE) {
        vt.charge(Category::FileSystem, costs::ROOT_PARSE);
        if let Some(rec) = RootRecord::from_block(block, object) {
            if newest.as_ref().is_none_or(|(b, _)| {
                rec.epoch > b.epoch || (rec.epoch == b.epoch && rec.flush_seq > b.flush_seq)
            }) {
                let tip = rec.tip_of(block);
                newest = Some((rec, tip));
            }
        }
    }
    newest
}

/// A candidate record, with the tag a record extending it carries.
type Tagged = (DeltaRecord, u32);

/// Ring slots open reads in one submission while it walks an object's
/// chain.
const RING_CHUNK: u64 = 32;

/// The candidate records of `entry`'s object above its root at epoch
/// `above`, whose block's tag is `tip`, in order of their first epoch:
/// the valid records of its delta ring.
///
/// A record lives in the ring slot of its first epoch, and no first
/// epoch above the root is past `above + DELTA_SLOTS` (R1′, DESIGN.md
/// §6m): that record reuses the slot of the root's own epoch. So the
/// ring is read in epoch order from `above + 1`, [`RING_CHUNK`] slots a
/// read, until no chain of candidates reaches a tip whose next slot is
/// unread ([`reach`]): a record past the read slots could never land.
fn record_suffix(
    vt: &mut Vt,
    disk: &mut Disk,
    entry: &DirEntry,
    (above, tip): (Epoch, u32),
) -> Result<Vec<Tagged>, IoError> {
    let last = above + DELTA_SLOTS;
    let mut records: Vec<Tagged> = Vec::new();
    let mut read = above;
    while read < last && reach((above, tip), &records) >= read {
        let upto = (read + RING_CHUNK).min(last);
        let slots = readv_blocks(vt, disk, (read + 1..=upto).map(|e| entry.delta_slot(e)))?;
        for block in slots.chunks(BLOCK_SIZE) {
            vt.charge(Category::FileSystem, costs::ROOT_PARSE);
            let tip = layout::tip_tag(block);
            records.extend(DeltaRecord::from_block(block, entry.id).map(|r| (r, tip)));
        }
        read = upto;
    }
    records.retain(|(r, _)| r.epoch > above);
    records.sort_by_key(|(r, _)| r.first_epoch());
    Ok(records)
}

/// The highest tip a chain of `candidates` reaches from the root's tip
/// `root`, each link a candidate [`link`] links to a tip already reached.
/// Data and digests are not checked, so replay lands no record past it.
fn reach(root: (Epoch, u32), candidates: &[Tagged]) -> Epoch {
    let mut sorted: Vec<&Tagged> = candidates.iter().collect();
    sorted.sort_by_key(|(r, _)| r.first_epoch());
    let mut tips = vec![root];
    for (r, own) in sorted {
        if tips.iter().any(|&tip| link(r, tip).is_none()) {
            tips.push((r.epoch, *own));
        }
    }
    tips.into_iter().fold(root.0, |h, (e, _)| h.max(e))
}

/// Why replay does not land a candidate record (DESIGN.md §6m, "What a
/// bad record does"), in the order [`verdict`] finds them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Reason {
    /// It starts at or below the tip: it overlaps the chain.
    Stale,
    /// It starts past the tip's next epoch.
    PastTip,
    /// Its tag is not the tip's: it extends another history.
    OtherHistory,
    /// Its data extent misses its `payload_sum`: torn or bit-flipped.
    TornPayload,
    /// A node on one of its pairs' paths is corrupt.
    CorruptNode,
    /// A page it patches misses its pair digest: a rotted or wrong base.
    DigestMiss,
}

/// What IO gathers of a candidate when [`verdict`] asks: its extent's
/// checksum, whether its paths hydrate, whether its pages match digests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fact {
    Payload,
    Paths,
    Digests,
}

/// Each [`Fact`] of a candidate, once IO gathered it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Gathered {
    sum: Option<u64>,
    paths: Option<bool>,
    digests: Option<bool>,
}

/// What becomes of a candidate: it extends the chain, IO gathers a fact
/// first, or it is rejected for a reason, and the chain ends there or not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Extends,
    Need(Fact),
    Rejected(Reason, bool),
}

/// The chain half of [`verdict`], and [`reach`]'s one test: why `record`
/// does not extend the tip `(epoch, tip)`, or `None` if it starts right
/// above it and carries its tag.
fn link(record: &DeltaRecord, (epoch, tip): (Epoch, u32)) -> Option<Reason> {
    let first = record.first_epoch();
    let chain = [
        (first <= epoch, Reason::Stale),
        (first != epoch + 1, Reason::PastTip),
        (record.tag != tip, Reason::OtherHistory),
    ];
    chain.into_iter().find(|c| c.0).map(|c| c.1)
}

/// DESIGN.md §6m's replay rule: what becomes of `record`, with the facts
/// `g` gathered so far, on the chain's tip. The chain facts decide first,
/// so a record they reject costs no read; then its payload, the nodes on
/// its pairs' paths and its pair digests, each asked for once the one
/// before holds. Only a stale record leaves the chain open: no other
/// starts at the tip's next epoch (each first epoch has its own slot).
fn verdict(record: &DeltaRecord, g: Gathered, tip: (Epoch, u32)) -> Verdict {
    if let Some(reason) = link(record, tip) {
        return Verdict::Rejected(reason, reason != Reason::Stale);
    }
    let paid = g.sum.map(|sum| sum == record.payload_sum);
    let data = [
        (Fact::Payload, paid, Reason::TornPayload),
        (Fact::Paths, g.paths, Reason::CorruptNode),
        (Fact::Digests, g.digests, Reason::DigestMiss),
    ];
    match data.into_iter().find(|(_, holds, _)| *holds != Some(true)) {
        Some((fact, None, _)) => Verdict::Need(fact),
        Some((_, _, reason)) => Verdict::Rejected(reason, true),
        None => Verdict::Extends,
    }
}

/// The base blocks [`StoreShard::prefetch_bases`] read for one object's
/// chain: sorted block numbers, their images back to back.
struct Prefetch {
    blocks: Vec<u64>,
    images: Vec<u8>,
}

impl Prefetch {
    fn get(&self, block: u64) -> Option<&[u8]> {
        let at = self.blocks.binary_search(&block).ok()? * BLOCK_SIZE;
        Some(&self.images[at..at + BLOCK_SIZE])
    }
}

impl StoreShard {
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
    /// Each candidate record lands or not as [`verdict`] decides.
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
    /// [`StoreError::CorruptMeta`] naming a directory block that holds an
    /// entry that does not decode or breaks the dense id sequence;
    /// [`StoreError::Io`] if a device read fails (nothing is built; the
    /// device is untouched and the open can simply be retried).
    pub(crate) fn open_at(
        vt: &mut Vt,
        disk: &mut Disk,
        layout: ShardLayout,
    ) -> Result<Self, StoreError> {
        // The slab — magic block, directory, snapshot catalog — is one
        // contiguous range: one vectored read.
        let slab = readv_blocks(vt, disk, layout.base..layout.base + SHARD_SLAB_BLOCKS)?;
        let slab_blocks = |start: u64, count: u64| {
            let at = (start - layout.base) as usize * BLOCK_SIZE;
            slab[at..at + count as usize * BLOCK_SIZE].chunks(BLOCK_SIZE)
        };
        if !layout::is_slab_head(&slab[..BLOCK_SIZE]) {
            return Err(StoreError::NotFormatted);
        }
        let mut shard = StoreShard::new(layout);

        // Directory ids are dense: an entry that does not decode, or is
        // not the next id, is a rotted directory block.
        let mut high_water = layout.data_floor;
        let dir = (layout.dir_start()..).zip(slab_blocks(layout.dir_start(), DIR_BLOCKS));
        for (block, image) in dir {
            for bytes in image.chunks(DIR_ENTRY_LEN) {
                let entry = match DirEntry::decode(bytes) {
                    Ok(None) => continue,
                    Ok(Some(entry)) if entry.id.0 as usize == shard.objects.len() => entry,
                    _ => return Err(StoreError::CorruptMeta { block }),
                };
                high_water = high_water.max(shard.replay_object(vt, disk, entry)?);
            }
        }

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
        if !catalog.entries.is_empty() || catalog.seq != 0 {
            shard.snap_seq = catalog.seq + 1;
        }
        for entry in catalog.entries {
            if entry.object.0 as usize >= shard.objects.len() {
                continue; // catalog can never outrun the directory
            }
            high_water = high_water.max(entry.tree_root + 1);
            let tree = RadixTree::from_committed_digest(
                entry.tree_root,
                entry.root_digest,
                entry.len_pages,
            );
            shard
                .snap_by_name
                .insert(entry.name.clone(), shard.snapshots.len());
            shard.snapshots.push(SnapState {
                entry,
                tree,
                blocks: Vec::new(),
                pinned: false,
            });
        }
        shard.alloc = BlockAllocator::bounded(high_water, high_water);
        Ok(shard)
    }

    /// Recovers one object: adopt its newest valid full root, then replay
    /// the consecutive suffix of its records above it in its delta ring
    /// through [`StoreShard::apply_record`], the rule the commit path lands
    /// them with, each as [`verdict`] decides. Returns the allocator
    /// frontier the recovered state reaches.
    fn replay_object(
        &mut self,
        vt: &mut Vt,
        disk: &mut Disk,
        entry: DirEntry,
    ) -> Result<u64, StoreError> {
        // The two root slots, then the delta ring above the newest root
        // as far as its chain can reach.
        let meta_end = entry.meta_base + OBJECT_META_BLOCKS;
        let root_slots = readv_blocks(vt, disk, entry.meta_base..entry.meta_base + 2)?;
        let root = newest_root(vt, &root_slots, entry.id);
        let base = root
            .as_ref()
            .map_or((0, layout::tag_of(0)), |(r, tip)| (r.epoch, *tip));
        let records = record_suffix(vt, disk, &entry, base)?;
        // The newest durable root's `high_water` is the allocator frontier
        // as of that commit; the frontier is monotone, so it covers every
        // data and node block any earlier commit of any object allocated
        // (its journal's blocks included). No tree walk needed.
        let mut high_water = root.as_ref().map_or(meta_end, |(r, _)| {
            meta_end.max(r.high_water).max(r.tree_root + 1)
        });
        let object = entry.id;
        self.adopt_object(vt, disk, entry, root)?;
        let bases = self.prefetch_bases(vt, disk, object, records.iter().map(|(r, _)| r))?;
        for (record, own) in &records {
            let state = &mut self.objects[object.0 as usize];
            let tip = (state.epoch, state.tip);
            let (mut gathered, mut patched) = (Gathered::default(), None);
            let (reason, ends) = loop {
                match verdict(record, gathered, tip) {
                    // A durable record's data may be torn or bit-flipped.
                    Verdict::Need(Fact::Payload) => {
                        let extent = readv_blocks(vt, disk, record.data_blocks())?;
                        let sum = extent
                            .chunks(BLOCK_SIZE)
                            .fold(layout::FNV_OFFSET, layout::fnv1a_extend);
                        gathered.sum = Some(sum);
                    }
                    // Hydration verifies node digests: a rotted node ends it.
                    Verdict::Need(Fact::Paths) => {
                        let mut paths = true;
                        for (page, _) in &record.pairs {
                            paths = paths && hydrate_paths(vt, disk, &mut state.tree, &[*page])?;
                        }
                        gathered.paths = Some(paths);
                    }
                    Verdict::Need(Fact::Digests) => {
                        patched = patch(vt, disk, state, record, &bases)?;
                        gathered.digests = Some(patched.is_some());
                    }
                    Verdict::Extends => break (None, false),
                    Verdict::Rejected(reason, ends) => break (Some(reason), ends),
                }
            };
            self.verdicts.push((object, record.first_epoch(), reason));
            if reason.is_none() {
                // The blocks a replayed record supersedes wait for their
                // gates, as they did when it committed.
                self.apply_record(record, &mut patched.into_iter().flatten());
                self.objects[object.0 as usize].tip = *own;
                high_water = record.data_blocks().fold(high_water, |h, b| h.max(b + 1));
            } else if ends {
                break;
            }
        }
        Ok(high_water)
    }

    /// Appends the object `entry` names to the directory, at the epoch and
    /// tip of its full root `root` (an empty tree at epoch 0 without one),
    /// with the root's journal applied over the tree it names: the
    /// entries' paths are hydrated, a level per vectored read, and each
    /// entry set, so the object's next compaction root journals on from
    /// it, and each block an entry overrides waits for the root that
    /// writes its leaf. A journal page
    /// whose path crosses a rotted node stays under that node, where every
    /// read of it fails `CorruptMeta`, as any page under a rotted unloaded
    /// node does.
    fn adopt_object(
        &mut self,
        vt: &mut Vt,
        disk: &mut Disk,
        entry: DirEntry,
        root: Option<(RootRecord, u32)>,
    ) -> Result<(), StoreError> {
        let mut state = ObjectState::new(entry);
        if let Some((r, tip)) = root {
            state.tree = RadixTree::from_committed_digest(r.tree_root, r.root_digest, r.len_pages);
            state.epoch = r.epoch;
            state.full_count = r.flush_seq;
            state.tip = tip;
            state.roots = [(r.epoch, Nanos::ZERO); 2];
            let pages: Vec<u64> = r.journal.iter().map(|(page, _)| *page).collect();
            hydrate_paths(vt, disk, &mut state.tree, &pages)?;
            for (page, word) in r.journal {
                if hydrate_paths(vt, disk, &mut state.tree, &[page])? {
                    let (block, digest) = layout::unpack_entry(word);
                    let old = state.tree.set_entry(page, block, digest);
                    state.supersede(page, old);
                    state.journal.insert(page, word);
                }
            }
        }
        self.by_name
            .insert(state.entry.name.clone(), state.entry.id);
        self.objects.push(state);
        Ok(())
    }

    /// Reads the bases of an object's whole chain once: hydrates the path
    /// of every page any candidate record names, a level per vectored
    /// read, then fetches the blocks
    /// its line-grain pairs would patch — as the root maps them — in
    /// vectored reads of up to [`BULK_READ_PAGES`], instead of one short
    /// read per record. A rotted node is left for the replay to meet at
    /// the record it truncates.
    fn prefetch_bases<'a>(
        &mut self,
        vt: &mut Vt,
        disk: &mut Disk,
        object: ObjectId,
        records: impl Iterator<Item = &'a DeltaRecord>,
    ) -> Result<Prefetch, StoreError> {
        let tree = &mut self.objects[object.0 as usize].tree;
        let pairs: Vec<&(u64, u64)> = records.flat_map(|d| &d.pairs).collect();
        let pages: Vec<u64> = pairs.iter().map(|(page, _)| *page).collect();
        hydrate_paths(vt, disk, tree, &pages)?;
        let mut blocks: Vec<u64> = Vec::new();
        for (page, word) in pairs {
            if hydrate_paths(vt, disk, tree, &[*page])?
                && layout::unpack_entry(*word).0 == INLINE_BLOCK
            {
                blocks.extend(tree.get(*page));
            }
        }
        blocks.sort_unstable();
        blocks.dedup();
        let mut images = Vec::with_capacity(blocks.len() * BLOCK_SIZE);
        for chunk in blocks.chunks(BULK_READ_PAGES as usize) {
            images.extend(readv_blocks(vt, disk, chunk.iter().copied())?);
        }
        Ok(Prefetch { blocks, images })
    }
}

/// The pages `record`'s inline pairs patch: each pair's lines over the
/// overlay's image, else the tree block (from `bases`, or read here if a
/// page-grain pair moved it), else zeroes; `None` if one misses its digest.
fn patch(
    vt: &mut Vt,
    disk: &mut Disk,
    state: &ObjectState,
    record: &DeltaRecord,
    bases: &Prefetch,
) -> Result<Option<Vec<Box<[u8]>>>, IoError> {
    let inline: Vec<(u64, u32)> = record
        .pairs
        .iter()
        .map(|(page, word)| (*page, layout::unpack_entry(*word)))
        .filter(|(_, (block, _))| *block == INLINE_BLOCK)
        .map(|(page, (_, digest))| (page, digest))
        .collect();
    let moved = inline
        .iter()
        .filter(|(page, _)| !state.overlay.contains_key(page))
        .filter_map(|(page, _)| state.tree.get(*page))
        .filter(|b| bases.get(*b).is_none());
    let moved_images = readv_blocks(vt, disk, moved)?;
    let mut moved_images = moved_images.chunks(BLOCK_SIZE);
    let mut patched = Vec::with_capacity(inline.len());
    // `from_block` refuses a record whose body is not its pairs' lines.
    let lines = record.inline_lines().unwrap_or_default();
    for ((page, digest), (mask, bytes)) in inline.iter().zip(lines) {
        let mut image: Box<[u8]> = match (state.overlay.get(page), state.tree.get(*page)) {
            (Some((_, image)), _) => image.clone(),
            (None, Some(block)) => bases
                .get(block)
                .or_else(|| moved_images.next())
                .expect("one image per base")
                .into(),
            (None, None) => vec![0u8; BLOCK_SIZE].into(),
        };
        lines::scatter(&mut image, &lines::line_runs(mask), bytes)
            .expect("inline_lines sized the bytes to the mask");
        if layout::digest32(&image) != *digest {
            return Ok(None);
        }
        patched.push(image);
    }
    Ok(Some(patched))
}

/// [`RadixTree::hydrate_paths`] of `tree` from the device, in vectored
/// reads of up to [`BULK_READ_PAGES`] nodes: whether every path is
/// resident, `false` if one crosses a rotted node. Replay hydrates a batch
/// of pages, then each page alone, which reads only a rotted node again.
fn hydrate_paths(
    vt: &mut Vt,
    disk: &mut Disk,
    tree: &mut RadixTree,
    pages: &[u64],
) -> Result<bool, IoError> {
    let read = &mut |iov: &mut [(u64, &mut [u8])]| {
        iov.chunks_mut(BULK_READ_PAGES as usize)
            .try_for_each(|chunk| disk.try_readv(vt, chunk))
    };
    match tree.hydrate_paths(pages, read) {
        Ok(()) => Ok(true),
        Err(TreeError::CorruptNode { .. }) => Ok(false),
        Err(TreeError::Io(e)) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::tests::{open_shard, page_of, setup, verdicts};
    use crate::ObjectStore;
    use msnap_disk::DiskConfig;

    /// A candidate as the enumeration sees it: first epoch, span, tag,
    /// the tag a record extending it carries, and whether its payload,
    /// its pairs' paths and its pair digests hold.
    #[derive(Debug, Clone, Copy)]
    struct Cand {
        first: Epoch,
        span: u64,
        tag: u32,
        own: u32,
        holds: [bool; 3],
    }

    /// The checksum every enumerated record's extent must match.
    const PAID: u64 = 0x5eed;

    /// DESIGN.md §6m, read independently of [`verdict`]: the first of the
    /// six reasons that applies to `c` on the tip `(epoch, tag)`.
    fn expected(c: &Cand, (epoch, tag): (Epoch, u32)) -> Option<Reason> {
        let reasons = [
            (c.first <= epoch, Reason::Stale),
            (c.first > epoch + 1, Reason::PastTip),
            (c.tag != tag, Reason::OtherHistory),
            (!c.holds[0], Reason::TornPayload),
            (!c.holds[1], Reason::CorruptNode),
            (!c.holds[2], Reason::DigestMiss),
        ];
        reasons
            .iter()
            .find(|(applies, _)| *applies)
            .map(|(_, r)| *r)
    }

    /// One candidate's decision: its reason (`None`: landed), whether the
    /// chain ended there, the tip it was decided on and the facts it asked
    /// for.
    type Decided = (Option<Reason>, bool, (Epoch, u32), Vec<Fact>);

    /// `replay_object`'s walk with the model's facts for IO: each
    /// candidate's decision, then the recovered tip.
    fn walk(root: (Epoch, u32), cands: &[Cand]) -> (Vec<Decided>, (Epoch, u32)) {
        let mut tip = root;
        let mut decided = Vec::new();
        for c in cands {
            let record = record_of(c);
            let (mut g, mut asked) = (Gathered::default(), Vec::new());
            let (reason, ends) = loop {
                match verdict(&record, g, tip) {
                    Verdict::Need(fact) if asked.contains(&fact) => {
                        panic!("{fact:?} asked for twice")
                    }
                    Verdict::Need(fact) => {
                        asked.push(fact);
                        match fact {
                            Fact::Payload => g.sum = Some(if c.holds[0] { PAID } else { !PAID }),
                            Fact::Paths => g.paths = Some(c.holds[1]),
                            Fact::Digests => g.digests = Some(c.holds[2]),
                        }
                    }
                    Verdict::Extends => break (None, false),
                    Verdict::Rejected(reason, ends) => break (Some(reason), ends),
                }
            };
            decided.push((reason, ends, tip, asked));
            if reason.is_none() {
                tip = (record.epoch, c.own);
            } else if ends {
                break;
            }
        }
        (decided, tip)
    }

    fn record_of(c: &Cand) -> DeltaRecord {
        DeltaRecord {
            object: ObjectId(0),
            epoch: c.first + c.span,
            span: c.span,
            tag: c.tag,
            len_pages: 1,
            payload_sum: PAID,
            pairs: Vec::new(),
            body: Vec::new(),
        }
    }

    /// Drives `verdict` and `reach` alone, with no device, over every
    /// small state: a root tip at epoch 0 or 3 with tag 0 or 7, and 1–3
    /// candidates with distinct first epochs (one ring slot each) from
    /// just below the tip to three above it, each of span 0 or 1, tagged
    /// with the root's tag, the tag of the first or second candidate, or
    /// another history's, and each combination of payload, paths and
    /// digests holding (three candidates: all, or all but the payload).
    /// Checks each candidate's reason and whether the chain ends against
    /// [`expected`], that the chain facts alone decide a record they
    /// reject and the data facts are asked for in order up to the first
    /// that fails, the recovered epoch against the chain of candidates
    /// that hold throughout, and `reach` against every chain the tags
    /// link, whatever its data.
    #[test]
    fn the_verdict_keeps_every_recovery_rule_in_every_small_state() {
        let all_data: Vec<[bool; 3]> = (0..8)
            .map(|b| [b & 1 == 0, b & 2 == 0, b & 4 == 0])
            .collect();
        let mut states = 0u64;
        for (epoch, tag) in [(0u64, 0u32), (0, 7), (3, 0), (3, 7)] {
            let root = (epoch, tag);
            let firsts: Vec<Epoch> = (epoch.saturating_sub(1)..=epoch + 3).collect();
            for n in 1..=3usize {
                let data = if n < 3 { &all_data[..] } else { &all_data[..2] };
                let mut variants = Vec::new();
                for span in 0..=1 {
                    for tag in [tag, 101, 102, 99] {
                        for &holds in data {
                            variants.push((span, tag, holds));
                        }
                    }
                }
                let chosen: Vec<Vec<Epoch>> = (0u32..1 << firsts.len())
                    .filter(|mask| mask.count_ones() as usize == n)
                    .map(|mask| {
                        let picked = firsts
                            .iter()
                            .enumerate()
                            .filter(|(i, _)| mask >> i & 1 == 1);
                        picked.map(|(_, first)| *first).collect()
                    })
                    .collect();
                for picked in &chosen {
                    for combo in 0..variants.len().pow(n as u32) {
                        let mut c = combo;
                        let cands: Vec<Cand> = picked
                            .iter()
                            .enumerate()
                            .map(|(i, &first)| {
                                let (span, tag, holds) = variants[c % variants.len()];
                                c /= variants.len();
                                let own = 101 + i as u32;
                                Cand {
                                    first,
                                    span,
                                    tag,
                                    own,
                                    holds,
                                }
                            })
                            .collect();
                        check_state(root, &cands);
                        states += 1;
                    }
                }
            }
        }
        assert_eq!(states, 246_912);
    }

    fn check_state(root: (Epoch, u32), cands: &[Cand]) {
        let state = || format!("root tip {root:?}, candidates {cands:#?}");
        let (decided, tip) = walk(root, cands);
        for (c, (reason, ends, on, asked)) in cands.iter().zip(&decided) {
            let want = expected(c, *on);
            assert_eq!(
                *reason,
                want,
                "candidate {c:?} on tip {on:?}\nin {}",
                state()
            );
            assert_eq!(
                *ends,
                want.is_some_and(|r| r != Reason::Stale),
                "whether the chain ends at {c:?} on tip {on:?}\nin {}",
                state()
            );
            let chain_decides = c.first != on.0 + 1 || c.tag != on.1;
            let failed = c.holds.iter().position(|h| !h).map_or(3, |i| i + 1);
            let want_asked = if chain_decides {
                &[][..]
            } else {
                &[Fact::Payload, Fact::Paths, Fact::Digests][..failed]
            };
            assert_eq!(
                asked,
                want_asked,
                "facts asked of {c:?} on tip {on:?}\nin {}",
                state()
            );
        }
        // The chain of candidates that hold throughout, link by link.
        let mut want = root;
        while let Some(c) = cands
            .iter()
            .find(|c| c.first == want.0 + 1 && c.tag == want.1 && c.holds == [true; 3])
        {
            want = (c.first + c.span, c.own);
        }
        assert_eq!(tip, want, "the recovered tip\nin {}", state());
        // Every chain the tags link, whatever its data.
        let mut tips = vec![root];
        while let Some(c) = cands.iter().find(|c| {
            let linked = tips.iter().any(|t| c.first == t.0 + 1 && c.tag == t.1);
            linked && !tips.contains(&(c.first + c.span, c.own))
        }) {
            tips.push((c.first + c.span, c.own));
        }
        let tagged: Vec<Tagged> = cands.iter().map(|c| (record_of(c), c.own)).collect();
        let furthest = tips.iter().map(|t| t.0).max().unwrap();
        assert_eq!(reach(root, &tagged), furthest, "reach\nin {}", state());
    }

    #[test]
    fn reopen_restores_committed_data_after_deltas() {
        let (mut disk, mut store, mut vt) = setup();
        let obj = store.create(&mut vt, &mut disk, "db").unwrap();
        // Several delta commits, no full root yet.
        for i in 0..5u64 {
            let p = page_of(10 + i as u8);
            let t = store.persist(&mut vt, &mut disk, obj, &[(i, &p)]).unwrap();
            ObjectStore::wait(&mut vt, t);
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
            ObjectStore::wait(&mut vt, t);
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
        ObjectStore::wait(&mut vt, t1);

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
        ObjectStore::wait(&mut vt, t1);

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
        ObjectStore::wait(&mut vt, t2);
        disk.crash(t3.completes);

        // Replay must stop *before* commit 2 (payload mismatch), which
        // also keeps the durable commit 3 out: the recovered state is
        // exactly the epoch-1 prefix, never a torn hybrid.
        let mut vt2 = Vt::new(1);
        let mut store2 = open_shard(&mut vt2, &mut disk).unwrap();
        let obj2 = store2.lookup("db").unwrap();
        assert_eq!(store2.epoch(obj2), 1, "torn commit and successors rejected");
        assert_eq!(
            verdicts(&store2),
            [(1, None), (2, Some(Reason::TornPayload))]
        );
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
        ObjectStore::wait(&mut vt, t1);

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
        let byte = |i: u64| (i % 255) as u8 + 1;
        for i in 1..DELTA_SLOTS {
            let p = page_of(byte(i));
            let t = store.persist(&mut vt, &mut disk, obj, &[(0, &p)]).unwrap();
            ObjectStore::wait(&mut vt, t);
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
        assert_eq!(out, page_of(byte(DELTA_SLOTS - 1)));
    }

    /// `n` one-line commits, each to a fresh page, on a four-channel
    /// pool, the compaction root at `COMPACT_AFTER` held on the device
    /// far past the last of them: until it lands the chain above epoch 0
    /// is `n` records long. Returns the device, crashed right after the
    /// last commit, and each page's image.
    fn chain_above_a_held_root(n: u64) -> (Disk, Vec<Vec<u8>>) {
        use msnap_disk::{Fault, FaultPlan};
        let mut disk = Disk::new(DiskConfig {
            channels: 4,
            ..DiskConfig::paper()
        });
        let mut store = crate::store::tests::format_shard(&mut disk);
        let mut vt = Vt::new(0);
        let obj = store.create(&mut vt, &mut disk, "db").unwrap();
        let mut images = Vec::new();
        let mut last = Nanos::ZERO;
        for i in 0..n {
            if i + 1 == COMPACT_AFTER {
                // The record, then the root as one idle write.
                let slow = Fault::LatencySpike {
                    extra: Nanos::from_ms(50),
                };
                disk.set_fault_plan(FaultPlan::new().at(disk.io_seq() + 1, slow));
            }
            let mut image = page_of(0);
            image[..64].fill((i % 255) as u8 + 1);
            let page = [(i, &image[..], 1u64)];
            let t = store
                .persist_batch(&mut vt, &mut disk, &[(obj, &page[..])])
                .unwrap()[0];
            ObjectStore::wait(&mut vt, t);
            last = t.completes;
            images.push(image);
        }
        assert_eq!(store.stats().line_commits, n, "every commit one record");
        let held = store.objects[0].roots[1].1 > last;
        assert!(n < COMPACT_AFTER || held, "the root is held");
        disk.crash(last);
        (disk, images)
    }

    #[test]
    fn a_chain_through_every_ring_slot_above_its_root_recovers_whole() {
        // Epochs 1 ..= DELTA_SLOTS fill the ring: the last reuses the slot
        // of the root's own epoch, 0, and still extends the chain.
        let (mut disk, images) = chain_above_a_held_root(DELTA_SLOTS);
        let mut vt = Vt::new(1);
        let mut store = open_shard(&mut vt, &mut disk).unwrap();
        let obj = store.lookup("db").unwrap();
        assert_eq!(store.objects[0].roots[1].0, 0, "no root landed");
        assert_eq!(store.epoch(obj), DELTA_SLOTS);
        let mut out = page_of(0);
        for (page, image) in images.iter().enumerate() {
            store
                .read_page(&mut vt, &mut disk, obj, page as u64, &mut out)
                .unwrap();
            assert_eq!(&out, image, "page {page}");
        }
    }

    #[test]
    fn open_reads_the_ring_only_as_far_as_the_chain_reaches() {
        let ring_reads = |n: u64| {
            let (mut disk, _) = chain_above_a_held_root(n);
            let before = disk.stats().clone();
            let mut vt = Vt::new(1);
            let store = open_shard(&mut vt, &mut disk).unwrap();
            assert_eq!(store.epoch(store.lookup("db").unwrap()), n);
            let after = disk.stats();
            (
                after.reads() - before.reads(),
                after.read_submissions() - before.read_submissions(),
            )
        };
        let (short, long) = (ring_reads(3), ring_reads(100));
        // The slab and the two root slots, then 32 ring slots a read: one
        // read reaches epoch 3, and four reach epoch 100.
        assert_eq!(long.0 - short.0, 3 * RING_CHUNK);
        assert_eq!(long.1 - short.1, 3);
        assert!(short.0 < DELTA_SLOTS, "{short:?}: not the whole ring");
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
            ObjectStore::wait(&mut vt, t);
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
            ObjectStore::wait(&mut vt2, t);
        }
        let mut out = page_of(0);
        for (i, p) in pages.iter().enumerate() {
            store2
                .read_page(&mut vt2, &mut disk, obj2, i as u64, &mut out)
                .unwrap();
            assert_eq!(&out, p, "page {i} corrupted after recovery + writes");
        }
    }
}
