//! The commit path: one atomic shard commit stages a μCheckpoint's pages
//! and lands them with a delta record, a batch record, a line-grain
//! record alone, or a full root that flushes the COW tree.

use super::*;

/// Block numbers handed out by the full-commit closure after the
/// allocator is exhausted: far beyond any real device, never written —
/// the commit aborts before any IO is issued. Kept below 2^32 so the
/// aborted commit's node serialization can still pack scratch entries
/// into digest-carrying radix words.
const SCRATCH_BLOCK_BASE: u64 = 0xF000_0000;

/// One page of a μCheckpoint as [`ObjectStore::persist_batch`] takes it:
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

/// The line record `queued` with the next line commit of its object,
/// `next`, folded in: the union of their pages, in page order, each under
/// the union of its masks with those lines gathered from `image(page)` —
/// the page's patched image after `next` — and the newer pair's digest
/// word, so no page is re-hashed. It keeps `queued`'s first epoch and
/// tag. `None` if it outgrows the record block.
fn fold<'a>(
    queued: &DeltaRecord,
    next: &DeltaRecord,
    image: impl Fn(u64) -> &'a [u8],
) -> Option<DeltaRecord> {
    let mut pages: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for record in [queued, next] {
        let lines = record.inline_lines().expect("a line record's body");
        for ((page, word), (mask, _)) in record.pairs.iter().zip(lines) {
            let entry = pages.entry(*page).or_default();
            *entry = (entry.0 | mask, *word);
        }
    }
    if DeltaRecord::inline_len(pages.values().map(|(mask, _)| *mask)) > BLOCK_SIZE {
        return None;
    }
    let mut body = Vec::new();
    for (page, (mask, _)) in &pages {
        body.extend_from_slice(&mask.to_le_bytes());
        lines::gather(image(*page), &lines::line_runs(*mask), &mut body);
    }
    Some(DeltaRecord {
        object: next.object,
        epoch: next.epoch,
        span: next.epoch - queued.first_epoch(),
        tag: queued.tag,
        len_pages: next.len_pages,
        payload_sum: layout::FNV_OFFSET,
        pairs: pages
            .into_iter()
            .map(|(page, (_, word))| (page, word))
            .collect(),
        body,
    })
}

/// What a full root is to its object's chain of commits.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(super) enum Root {
    /// A root in the chain: its block becomes the tip the next record
    /// extends, and the object's acknowledgements wait for it. Carries the
    /// caller's initiation cost, charged once every allocation has
    /// succeeded (see `costs::initiate`).
    Chain(Nanos),
    /// A compaction root (DESIGN.md §6m): data-less, at the current
    /// epoch, written off the commit path. It keeps the tip — its `tip`
    /// word names it — and no acknowledgement waits for it.
    Compaction,
}

/// The leaves a compaction root whose journal would be `journal` writes:
/// none while it fits [`JOURNAL_CAP`], else those holding the most of its
/// entries, most first (the lower leaf on a tie), until the rest fits.
fn leaves_to_flush(journal: &BTreeMap<u64, u64>) -> BTreeSet<u64> {
    let mut per_leaf: BTreeMap<u64, usize> = BTreeMap::new();
    for page in journal.keys() {
        *per_leaf.entry(leaf_of(*page)).or_default() += 1;
    }
    let mut by_size: Vec<(u64, usize)> = per_leaf.into_iter().collect();
    by_size.sort_by_key(|(leaf, entries)| (Reverse(*entries), *leaf));
    let mut left = journal.len();
    let mut leaves = BTreeSet::new();
    for (leaf, entries) in by_size {
        if left <= JOURNAL_CAP {
            break;
        }
        leaves.insert(leaf);
        left -= entries;
    }
    leaves
}

impl StoreShard {
    /// Shared full-commit core, the store's one root writer: COW-sets
    /// `pages` into the tree at `epoch`, flushes the dirty nodes `kind`
    /// calls for, writes data + nodes as one extent followed by a full
    /// root record, and updates all commit state. `epoch` may equal the object's current
    /// epoch (a data-less root flush) or jump ahead of it (replica image
    /// application); the root record is the single commit point either
    /// way.
    ///
    /// Every full root is self-contained: the overlay's pages are written
    /// out as data blocks beside `pages` (which win where both name a
    /// page) and the overlay is emptied, so no tree a snapshot, rebase, GC
    /// or a reused ring slot ever sees depends on a line record. A
    /// compaction root writes no node while the mappings its tree holds
    /// beyond the newest root's fit [`JOURNAL_CAP`]: its record names
    /// that root's tree and journals them. Past the cap it writes the
    /// leaves holding the most of them, with the interior nodes above
    /// those, and journals the rest (DESIGN.md §6m). Every other root
    /// writes every dirty node and an empty journal. The root record is
    /// submitted only once every commit it covers and the newest root are
    /// durable: its tree maps the data blocks of records still in flight,
    /// and it overwrites the slot of the root before that one.
    ///
    /// On error the tree, overlay and allocator are restored; nothing
    /// leaks.
    pub(super) fn full_commit(
        &mut self,
        vt: &mut Vt,
        disk: &mut Disk,
        object: ObjectId,
        pages: &[(u64, &[u8])],
        epoch: Epoch,
        kind: Root,
    ) -> Result<CommitToken, StoreError> {
        let initiate = match kind {
            Root::Chain(initiate) => initiate,
            Root::Compaction => Nanos::ZERO,
        };
        let alloc_snapshot = self.alloc.clone();
        let state = &mut self.objects[object.0 as usize];
        // The tree must be mutated *before* the IO (node images are
        // serialized from it), so abort restores a pre-commit clone. Full
        // commits are the rare path (a compaction root every
        // COMPACT_AFTER epochs, oversized commits, snapshot flushes and
        // every replica ship landing through `apply_image`), which keeps
        // the clone cost amortized.
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
        // The blocks this root's remaps supersede, queued for their gates
        // once it is durable.
        let mut superseded = Vec::new();
        let journaled = kind == Root::Compaction;
        let mut journal = BTreeMap::new();
        if journaled {
            journal.clone_from(&state.journal);
        }
        let own = pages
            .iter()
            .map(|(page, data)| (*page, layout::digest32(data), *data));
        for ((page, digest, data), block) in own.chain(flushed.iter().copied()).zip(data_blocks) {
            iov.push((block, data));
            superseded.push((page, state.tree.set_entry(page, block, digest)));
            if journaled {
                journal.insert(page, layout::pack_entry(block, digest));
            }
        }
        // A compaction root writes the leaves its journal cannot hold; any
        // other root writes every dirty node.
        let leaves = if journaled {
            leaves_to_flush(&journal)
        } else {
            BTreeSet::new()
        };
        journal.retain(|page, _| !leaves.contains(&leaf_of(*page)));
        let mut node_writes = Vec::new();
        // The commit closure cannot fail, so allocator exhaustion is
        // flagged and handed out of never-written scratch blocks, then
        // the whole commit aborts.
        let mut exhausted = false;
        let mut scratch = SCRATCH_BLOCK_BASE;
        let (tree_root, root_digest) = state.tree.commit_leaves(
            &|leaf| !journaled || leaves.contains(&leaf),
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
            root_digest,
            flush_seq: state.full_count + 1,
            tip: if kind == Root::Compaction {
                state.tip
            } else {
                0
            },
            journal: journal.iter().map(|(page, word)| (*page, *word)).collect(),
        };
        let slot = state.entry.root_slot(state.full_count + 1);
        let root_block = record.to_block();
        let covered = state.chain_completes.max(state.roots[1].1);
        let cache = &mut self.cache;
        let token = (|| {
            let data_done = if iov.is_empty() {
                vt.now()
            } else {
                writev_retry(disk, vt.now(), &iov, cache)?.completes()
            };
            writev_retry(disk, data_done.max(covered), &[(slot, &root_block)], cache)
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
        // Every page this root wrote supersedes the rotted block a scrub
        // report may name: nothing is left for a peer to heal.
        let landed =
            |page| pages.iter().any(|(p, _)| *p == page) || state.overlay.contains_key(&page);
        self.unrepaired
            .retain(|u| u.object != object || !landed(u.page));
        state.overlay.clear();
        state.queued = None;
        state.full_count += 1;
        // Recyclable once this root is durable: what only the records
        // below it and the root before it named, the node images it wrote
        // over, and the data blocks the leaves it wrote named. A leaf it
        // left out still names its blocks: they wait for the root that
        // writes that leaf.
        for (page, old) in superseded {
            state.supersede(page, old);
        }
        let mut data_freed = std::mem::take(&mut state.root_freed_pending);
        data_freed.extend(state.tree.take_freed());
        if journaled {
            for leaf in &leaves {
                data_freed.extend(state.node_freed_pending.remove(leaf).unwrap_or_default());
            }
        } else {
            data_freed.extend(
                std::mem::take(&mut state.node_freed_pending)
                    .into_values()
                    .flatten(),
            );
        }
        state.journal = journal;
        state.deltas_since_full = 0;
        state.epoch = epoch;
        // The root landed after everything it covers: it is the chain's
        // durability frontier, though a compaction root does not move it.
        let landed = token.completes();
        state.roots = [state.roots[1], (epoch, landed)];
        if kind != Root::Compaction {
            state.tip = layout::tip_tag(&root_block);
            state.chain_completes = landed;
            state.last_commit = landed;
        }
        if !data_freed.is_empty() {
            self.pending_free.push(Reverse((landed, data_freed)));
        }
        self.stats.nodes_written += node_writes.len() as u64;

        Ok(CommitToken {
            epoch,
            completes: landed,
            bytes_written: (data_written + node_writes.len() as u64 + 1) * BLOCK_SIZE as u64,
        })
    }

    /// Writes `object`'s compaction root (DESIGN.md §6m) and counts it.
    /// Maintenance, like block recycling: a failure changes nothing, and
    /// the commit that asked for it lands as its usual record either way.
    fn compact(&mut self, vt: &mut Vt, disk: &mut Disk, object: ObjectId) {
        let epoch = self.objects[object.0 as usize].epoch;
        if self
            .full_commit(vt, disk, object, &[], epoch, Root::Compaction)
            .is_ok()
        {
            self.stats.compaction_roots += 1;
        }
    }

    /// One atomic unit of [`crate::ObjectStore::persist_batch`], the only
    /// splitter: every group's pages land in its object, each as one
    /// epoch, all of them or none.
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
                let token =
                    self.full_commit(vt, disk, object, &pages, epoch, Root::Chain(initiate))?;
                self.stats.commits += 1;
                self.stats.pages_written += total_pages as u64;
                return Ok(vec![token]);
            }
            if state.deltas_since_full >= COMPACT_AFTER && state.roots[1].1 <= vt.now() {
                self.compact(vt, disk, object);
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
        // R1′: the record waits for a durable root over every slot it
        // reuses: each group's delta-ring slot (the record of epoch x
        // reuses the slot of x − DELTA_SLOTS) and, for a batch record,
        // every group its batch-ring slot held.
        let mut root_gate = Nanos::ZERO;
        if shared {
            for (object, epoch) in &self.batch_ring[ring_slot as usize] {
                root_gate = root_gate.max(self.objects[object.0 as usize].covered_at(*epoch));
            }
        }
        for (object, pages) in groups {
            let state = &self.objects[object.0 as usize];
            root_gate =
                root_gate.max(state.covered_at((state.epoch + 1).saturating_sub(DELTA_SLOTS)));
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
                span: 0,
                tag: state.tip,
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
        // R3: a line record rides its object's queued one if it can.
        let absorbed = if inline {
            self.absorb(disk, vt.now(), &staged[0], &patched)
        } else {
            None
        };
        let cache = &mut self.cache;
        let mut held = false;
        let token = match absorbed {
            Some(token) => Ok(token),
            None => (|| {
                let data_done = if inline {
                    vt.now()
                } else {
                    writev_retry(disk, vt.now(), &iov, cache)?.completes()
                };
                let record_at = data_done.max(root_gate);
                held = record_at > data_done;
                writev_retry(disk, record_at, &[(record_block, &record)], cache)
            })(),
        };
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
            self.apply_record(g, &mut patched);
            let state = &mut self.objects[g.object.0 as usize];
            state.chain_completes = state.chain_completes.max(token.completes());
            state.last_commit = state.chain_completes;
            let data_blocks = if inline { 0 } else { g.pairs.len() as u64 };
            // The record block is shared; attribute it to the first
            // participant so batch bytes sum correctly. An absorbed
            // commit wrote none.
            let record_blocks = u64::from(tokens.is_empty() && absorbed.is_none());
            tokens.push(CommitToken {
                epoch: g.epoch,
                bytes_written: (data_blocks + record_blocks) * BLOCK_SIZE as u64,
                completes: state.chain_completes,
            });
            if absorbed.is_none() {
                state.tip = layout::tip_tag(&record);
                state.queued = inline.then(|| (record_block, g.clone()));
            }
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
            self.stats.absorbed_commits += u64::from(absorbed.is_some());
        }
        self.stats.root_gated_records += u64::from(held);
        self.stats.commits += staged.len() as u64;
        self.stats.delta_commits += staged.len() as u64;
        self.stats.pages_written += data_pages as u64;
        Ok(tokens)
    }

    /// R3 (DESIGN.md §6m): lands the line record `next`, whose pages'
    /// patched images are `patched`, by folding it into its object's
    /// queued line record — if the device has not started writing that
    /// record's slot by `now` and the fold fits the block. The folded
    /// record replaces the queued one in place, so the returned token is
    /// the queued write's and no IO is issued. `None` changes nothing.
    fn absorb(
        &mut self,
        disk: &mut Disk,
        now: Nanos,
        next: &DeltaRecord,
        patched: &[Box<[u8]>],
    ) -> Option<WriteToken> {
        let state = &mut self.objects[next.object.0 as usize];
        let (slot, queued) = state.queued.as_ref()?;
        let image = |page| match next.pairs.binary_search_by_key(&page, |(p, _)| *p) {
            Ok(i) => &patched[i][..],
            Err(_) => &state.overlay[&page].1[..],
        };
        let folded = fold(queued, next, image)?;
        let block = folded.to_block();
        let slot = *slot;
        let token = disk.amend_at(now, slot, &block)?;
        self.cache.invalidate(slot);
        state.tip = layout::tip_tag(&block);
        state.queued = Some((slot, folded));
        Some(token)
    }

    /// Demand-loads the tree paths `pages` will touch, before any commit
    /// mutation: a failed node read surfaces here, with the tree, cache,
    /// and allocator all unchanged.
    pub(super) fn hydrate_object_paths(
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
    pub(super) fn recycle_pending(&mut self, now: Nanos) {
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
    pub(super) fn flush_full_root(
        &mut self,
        vt: &mut Vt,
        disk: &mut Disk,
        object: ObjectId,
    ) -> Result<(), StoreError> {
        let epoch = self.objects[object.0 as usize].epoch;
        self.full_commit(vt, disk, object, &[], epoch, Root::Chain(Nanos::ZERO))?;
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::type_complexity)]
mod tests {
    use super::*;
    use crate::store::tests::{format_shard, open_shard, page_of, setup};
    use crate::ObjectStore;
    use msnap_disk::DiskConfig;

    #[test]
    fn persist_then_read_round_trips() {
        let (mut disk, mut store, mut vt) = setup();
        let obj = store.create(&mut vt, &mut disk, "db").unwrap();
        let p0 = page_of(1);
        let p9 = page_of(2);
        let token = store
            .persist(&mut vt, &mut disk, obj, &[(0, &p0), (9, &p9)])
            .unwrap();
        ObjectStore::wait(&mut vt, token);
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
            ObjectStore::wait(&mut vt, t);
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
        ObjectStore::wait(&mut vt, token);
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
            ObjectStore::wait(&mut vt, t);
        }
        // The root at epoch 20 is a compaction root whose 20 remapped
        // pages fit its journal: a full root, but no node write.
        assert!(store.stats().compaction_roots > 0, "a full root happened");
        assert_eq!(store.stats().nodes_written, 0);
        assert!(store.stats().delta_commits >= DELTA_SLOTS - 1);
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
        ObjectStore::wait(&mut vt, token);
        // ...become exactly two IOs: one vectored data write and the
        // delta record.
        assert_eq!(disk.stats().writes() - before, 2);
    }

    #[test]
    fn overwrites_recycle_blocks_only_after_durability() {
        let (mut disk, mut store, mut vt) = setup();
        let obj = store.create(&mut vt, &mut disk, "db").unwrap();
        let p = page_of(1);
        let t1 = store.persist(&mut vt, &mut disk, obj, &[(0, &p)]).unwrap();
        ObjectStore::wait(&mut vt, t1);
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
                    ObjectStore::wait(&mut vt, t);
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
        ObjectStore::wait(&mut vt, t);
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
        ObjectStore::wait(&mut vt, t);

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
        ObjectStore::wait(&mut vt, t2);
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
        ObjectStore::wait(&mut vt, t);

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
        ObjectStore::wait(&mut vt, t2);
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
}
