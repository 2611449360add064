//! The commit path: one atomic shard commit stages a μCheckpoint's pages
//! and lands them with a delta record per object, a line-grain record
//! alone, or a full root that flushes the COW tree.

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

/// The epoch above its newest root at which an object's commit places
/// that root behind its own record if it is still waiting: halfway
/// through the slack the previous root leaves it (R1′, DESIGN.md §6m),
/// 118 epochs.
pub(super) const PLACE_ROOT_AT: u64 = (DELTA_SLOTS - COMPACT_AFTER) / 2;

/// Where a landing step put its writes: in the foreground (the record's
/// token, and whether the gate held it past the extent), or in the idle
/// class (the handle its durability keys on).
enum Landed {
    Now(WriteToken, bool),
    Idle(IdleIo),
}

/// The one landing step of a commit: the data extent, if there is one,
/// then its one-block `records` as one vectored write at the later of the
/// extent's completion and `gate`. In the foreground both are submitted
/// at once; `idle` (a compaction root) submits them as one idle-class
/// write, whose record the device starts after the extent and not before
/// `gate`.
fn land(
    disk: &mut Disk,
    now: Nanos,
    extent: Option<&[(u64, &[u8])]>,
    records: &[(u64, &[u8])],
    gate: Nanos,
    cache: &mut BlockCache,
    idle: bool,
) -> Result<Landed, IoError> {
    if idle {
        let mut iov = extent.unwrap_or_default().to_vec();
        iov.extend_from_slice(records);
        let io = retry_transient(|| disk.submit_idle_writev(now, &iov, gate))?;
        for (block, _) in &iov {
            cache.invalidate(*block);
        }
        return Ok(Landed::Idle(io));
    }
    let data_done = match extent {
        Some(iov) => writev_retry(disk, now, iov, cache)?.completes(),
        None => now,
    };
    let at = data_done.max(gate);
    let token = writev_retry(disk, at, records, cache)?;
    Ok(Landed::Now(token, at > data_done))
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
        // Its record overwrites the slot of the root before the newest.
        let newest = self.root_lands(disk, object, Nanos::MAX);
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
        let covered = state.chain_completes.max(newest.expect("forced"));
        let extent = (!iov.is_empty()).then_some(&iov[..]);
        let record = [(slot, &root_block[..])];
        let (now, idle) = (vt.now(), kind == Root::Compaction);
        let written = match land(disk, now, extent, &record, covered, &mut self.cache, idle) {
            Ok(written) => written,
            Err(e) => {
                state.tree = tree_snapshot;
                self.alloc = alloc_snapshot;
                return Err(e.into());
            }
        };
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
        state.epoch = epoch;
        // The root lands after everything it covers: it is the chain's
        // durability frontier, though a compaction root does not move it.
        // An idle one's instant is unknown until the device places it.
        let landed = match written {
            Landed::Now(token, _) => token.completes(),
            Landed::Idle(io) => {
                state.landing = Some((io, std::mem::take(&mut data_freed)));
                Nanos::MAX
            }
        };
        state.roots = [state.roots[1], (epoch, landed)];
        if kind != Root::Compaction {
            state.tip = layout::tip_tag(&root_block);
            state.chain_completes = landed;
        }
        if !data_freed.is_empty() {
            self.pending_free.push(Reverse((landed, data_freed)));
        }
        self.stats.nodes_written += node_writes.len() as u64;

        Ok(CommitToken {
            epoch,
            completes: landed,
        })
    }

    /// Writes `object`'s compaction root (DESIGN.md §6m) and counts it.
    /// Maintenance, like block recycling: a failure changes nothing, and
    /// the commit that asked for it has submitted its record already.
    fn compact(&mut self, vt: &mut Vt, disk: &mut Disk, object: ObjectId) {
        let epoch = self.objects[object.0 as usize].epoch;
        if self
            .full_commit(vt, disk, object, &[], epoch, Root::Compaction)
            .is_ok()
        {
            self.stats.compaction_roots += 1;
        }
    }

    /// One unit of [`crate::ObjectStore::persist_batch`], the only
    /// splitter: every group's pages land in its object, each as one
    /// epoch; an error lands none of them. Several groups share one data
    /// extent, and each group's record goes into its own object's ring,
    /// all in one vectored write; a crash leaves each object a prefix of
    /// its own chain, not the unit all or nothing.
    ///
    /// # Panics
    ///
    /// Panics unless `groups` is one group, or several non-empty groups
    /// of distinct objects that each fit one delta record
    /// ([`MAX_DELTA_PAIRS`] pages); or if a page image is not exactly
    /// [`BLOCK_SIZE`] bytes.
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
                groups.len() > 1 && groups.iter().all(|(_, p)| p.len() <= MAX_DELTA_PAIRS),
                "one group, or several that each fit one delta record"
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
        if shared {
            // Maintenance before the batch proper, charged to the
            // submitter and kept even if the batch later aborts (like
            // block recycling): any object whose chain would outgrow its
            // delta window first flushes a full root.
            for (object, _) in groups {
                if self.objects[object.0 as usize].window() + 1 >= DELTA_SLOTS {
                    self.flush_full_root(vt, disk, *object)?;
                }
            }
        }
        let inline = !shared && self.delta_commits && line_sparse(groups[0].1);
        if !shared {
            let (object, pages) = groups[0];
            let state = &self.objects[object.0 as usize];
            if !self.delta_commits
                || pages.len() > MAX_DELTA_PAIRS
                || state.window() + 1 >= DELTA_SLOTS
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
        // R1′: the records wait for a durable root over every slot they
        // reuse (the record of epoch x reuses the slot of x − DELTA_SLOTS).
        let mut root_gate = Nanos::ZERO;
        for (object, pages) in groups {
            let reused = (self.objects[object.0 as usize].epoch + 1).saturating_sub(DELTA_SLOTS);
            root_gate = root_gate.max(self.covered_at(disk, *object, reused));
            let state = &self.objects[object.0 as usize];
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
        // Each record goes into its own object's delta slot; a lone
        // group's record and its write vector stay on the stack.
        let slot = |d: &DeltaRecord| self.objects[d.object.0 as usize].entry.delta_slot(d.epoch);
        let (lone, many): ([_; 1], Vec<_>);
        let images: &[(u64, [u8; BLOCK_SIZE])] = if shared {
            many = staged.iter().map(|d| (slot(d), d.to_block())).collect();
            &many
        } else {
            lone = [(slot(&staged[0]), staged[0].to_block())];
            &lone
        };
        let (lone, many): ([_; 1], Vec<_>);
        let records: &[(u64, &[u8])] = if shared {
            many = images.iter().map(|(b, i)| (*b, &i[..])).collect();
            &many
        } else {
            lone = [(images[0].0, &images[0].1[..])];
            &lone
        };
        // R3: a line record rides its object's queued one if it can.
        let now = vt.now();
        let absorbed = if inline {
            self.absorb(disk, now, &staged[0], &patched)
        } else {
            None
        };
        let landed = match absorbed {
            Some(token) => Ok(Landed::Now(token, false)),
            None => {
                let (extent, cache) = ((!inline).then_some(&iov[..]), &mut self.cache);
                land(disk, now, extent, records, root_gate, cache, false)
            }
        };
        let (token, held) = match landed {
            Ok(Landed::Now(token, held)) => (token, held),
            Ok(Landed::Idle(_)) => unreachable!("a record lands in the foreground"),
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
        for (g, (_, image)) in staged.iter().zip(images) {
            self.apply_record(g, &mut patched);
            let state = &mut self.objects[g.object.0 as usize];
            state.chain_completes = state.chain_completes.max(token.completes());
            tokens.push(CommitToken {
                epoch: g.epoch,
                completes: state.chain_completes,
            });
            if absorbed.is_none() {
                state.tip = layout::tip_tag(image);
                state.queued = inline.then(|| g.clone());
            }
        }
        if shared {
            disk.note_merged(staged.len() as u64);
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
        // Each object asks whether its newest root has landed, and the
        // commit PLACE_ROOT_AT epochs above it places it behind its own
        // record. The commit whose record fills its object's window
        // writes the compaction root behind that record, once the newest
        // root is durable: the record never queues behind the root.
        for g in &staged {
            let due = self.objects[g.object.0 as usize].window() >= PLACE_ROOT_AT;
            self.root_lands(disk, g.object, if due { Nanos::MAX } else { now });
            let state = &self.objects[g.object.0 as usize];
            if state.window() >= COMPACT_AFTER && state.roots[1].1 <= now {
                self.compact(vt, disk, g.object);
            }
        }
        Ok(tokens)
    }

    /// When `object`'s newest root is durable, or `None` while the device
    /// would not have placed it by `by` ([`Disk::idle_lands`]). Once
    /// known, the instant replaces the handle and the blocks the root
    /// frees queue for it.
    fn root_lands(&mut self, disk: &mut Disk, object: ObjectId, by: Nanos) -> Option<Nanos> {
        let state = &mut self.objects[object.0 as usize];
        if let Some((io, _)) = &state.landing {
            let landed = disk.idle_lands(io, by)?;
            let (_, freed) = state.landing.take().expect("checked above");
            state.roots[1].1 = landed;
            if !freed.is_empty() {
                self.pending_free.push(Reverse((landed, freed)));
            }
        }
        Some(state.roots[1].1)
    }

    /// When a root of `object` at or above `epoch` is durable: the earlier
    /// of the two that covers it, placing the newest if it is needed.
    fn covered_at(&mut self, disk: &mut Disk, object: ObjectId, epoch: Epoch) -> Nanos {
        let previous = self.objects[object.0 as usize].roots[0];
        if previous.0 >= epoch {
            return previous.1;
        }
        self.root_lands(disk, object, Nanos::MAX).expect("forced")
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
        let queued = state.queued.as_ref()?;
        let image = |page| match next.pairs.binary_search_by_key(&page, |(p, _)| *p) {
            Ok(i) => &patched[i][..],
            Err(_) => &state.overlay[&page].1[..],
        };
        let folded = fold(queued, next, image)?;
        let block = folded.to_block();
        let slot = state.entry.delta_slot(folded.first_epoch());
        let token = disk.amend_at(now, slot, &block)?;
        self.cache.invalidate(slot);
        state.tip = layout::tip_tag(&block);
        state.queued = Some(folded);
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
        let pages: Vec<u64> = pages.collect();
        let state = &mut self.objects[object.0 as usize];
        let read = &mut node_reader(vt, disk, &mut self.cache, &mut self.stats);
        state.tree.hydrate_paths(&pages, read)?;
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
    /// delta record of the object, freeing its delta window.
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
    use msnap_disk::{crash_at_every_io, DiskConfig};

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
    fn a_commit_onto_a_reopened_tree_hydrates_a_level_per_read() {
        let (mut disk, mut store, mut vt) = setup();
        let obj = store.create(&mut vt, &mut disk, "db").unwrap();
        let (old, new) = (page_of(1), page_of(2));
        let leaves = [0u64, 512, 1024, 1536];
        let pages: Vec<(u64, &[u8])> = leaves.iter().map(|&p| (p, &old[..])).collect();
        let token = store.persist(&mut vt, &mut disk, obj, &pages).unwrap();
        ObjectStore::wait(&mut vt, token);
        store.flush_full_root(&mut vt, &mut disk, obj).unwrap();
        disk.settle();

        let mut vt = Vt::new(1);
        let mut store = open_shard(&mut vt, &mut disk).unwrap();
        let obj = store.lookup("db").unwrap();
        let submissions = disk.stats().read_submissions();
        let hydrations = store.stats().hydrations;
        let pages: Vec<(u64, &[u8])> = leaves.iter().map(|&p| (p + 1, &new[..])).collect();
        store.persist(&mut vt, &mut disk, obj, &pages).unwrap();
        // The root, the L1 node and the four leaves, a level per read.
        assert_eq!(disk.stats().read_submissions() - submissions, 3);
        assert_eq!(store.stats().hydrations - hydrations, 6);
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
        let capacity = floor + OBJECT_META_BLOCKS + 6;
        let mut disk = Disk::new(DiskConfig::fast().with_capacity_blocks(capacity));
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
    fn batch_persist_is_two_ios_with_each_record_in_its_own_slot() {
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
        // One data extent + one vectored write of the three records.
        assert_eq!(disk.stats().writes() - before, 2);
        assert_eq!(tokens.len(), 3);
        assert!(tokens.iter().all(|t| t.epoch == 1));
        assert!(tokens.windows(2).all(|w| w[0].completes == w[1].completes));
        assert_eq!(disk.stats().merged_submissions(), 1);
        assert_eq!(disk.stats().merged_parts(), 3);
        assert_eq!(store.stats().batch_commits, 1);
        assert_eq!(store.stats().batched_objects, 3);
        assert_eq!(store.stats().commits, 3);
        // Each record is its own object's epoch-1 record, in that object's
        // own slot, and its block is the tip the object's next record
        // extends.
        for (obj, group) in [(a, &ga[..]), (b, &gb[..]), (c, &gc[..])] {
            let state = &store.objects[obj.0 as usize];
            let block = disk.peek(state.entry.delta_slot(1)).unwrap();
            let record = DeltaRecord::from_block(&block, obj).expect("its own record");
            assert_eq!(record.epoch, 1);
            let pages: Vec<u64> = record.pairs.iter().map(|(page, _)| *page).collect();
            assert_eq!(
                pages,
                group.iter().map(|(page, _)| *page).collect::<Vec<_>>()
            );
            assert_eq!(state.tip, layout::tip_tag(&block));
        }

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
        assert_eq!(store.stats().batch_commits, 0, "no batched submission");
        assert_eq!(store.stats().delta_commits, 1);
    }

    #[test]
    #[should_panic(expected = "one group, or several that each fit one delta record")]
    fn shard_never_splits_a_batch_that_outgrows_one_record() {
        // Splitting is the façade's job (`ObjectStore::persist_batch`,
        // tested there); the shard has no serial fallback to hide in.
        let (mut disk, mut store, mut vt) = setup();
        let a = store.create(&mut vt, &mut disk, "a").unwrap();
        let b = store.create(&mut vt, &mut disk, "b").unwrap();
        let p = page_of(1);
        let pages: Vec<(u64, &[u8])> = (0..=MAX_DELTA_PAIRS as u64).map(|i| (i, &p[..])).collect();
        let _ = store.persist_batch(&mut vt, &mut disk, &[(a, &pages[..1]), (b, &pages)]);
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

        // Hard-fail the write of both records: neither object may advance.
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
    fn an_object_committed_only_in_batches_compacts_and_recovers_whole() {
        // `a` and `b` commit only through two-object units, for more
        // epochs than their rings hold. Each group follows its object's
        // compaction rule, so roots keep both windows short: no chain
        // full root is ever needed.
        let (mut disk, mut store, mut vt) = setup();
        let a = store.create(&mut vt, &mut disk, "a").unwrap();
        let b = store.create(&mut vt, &mut disk, "b").unwrap();
        let rounds = DELTA_SLOTS + 40;
        let mut last = Nanos::ZERO;
        for round in 0..rounds {
            let p = page_of(round as u8);
            let ga = [(round % 8, &p[..])];
            let gb = [(100 + round % 8, &p[..])];
            let groups: Vec<(ObjectId, &[(u64, &[u8])])> = vec![(a, &ga[..]), (b, &gb[..])];
            let t = store.persist_batch(&mut vt, &mut disk, &groups).unwrap();
            last = t[0].completes;
            vt.wait_until(last);
            for obj in [a, b] {
                assert!(store.objects[obj.0 as usize].window() <= COMPACT_AFTER);
            }
        }
        let stats = store.stats();
        assert_eq!(stats.batch_commits, rounds);
        assert!(
            stats.compaction_roots >= 2 * (rounds / COMPACT_AFTER - 1),
            "{stats:?}"
        );
        assert_eq!(stats.nodes_written, 0, "no chain full root: {stats:?}");

        disk.crash(last);
        let mut vt2 = Vt::new(1);
        let mut store2 = open_shard(&mut vt2, &mut disk).unwrap();
        let mut out = page_of(0);
        for (name, base) in [("a", 0), ("b", 100)] {
            let obj = store2.lookup(name).unwrap();
            assert_eq!(store2.epoch(obj), rounds, "{name}");
            for round in rounds - 8..rounds {
                store2
                    .read_page(&mut vt2, &mut disk, obj, base + round % 8, &mut out)
                    .unwrap();
                assert_eq!(out, page_of(round as u8), "{name}: round {round}");
            }
        }
    }

    /// Units of the objects "a", "b" and "c" (two rounds in three all
    /// three, the third "a" and "c"), one page each, `rounds` times, the
    /// clock moving 25 µs a round without waiting for the device: object
    /// epoch `e` writes page `(e − 1) % 4` full of byte `e`. Returns the
    /// device, each object's commit durability instants in epoch order,
    /// and the compaction roots written.
    fn drive_units(rounds: u64) -> (Disk, Vec<Vec<Nanos>>, u64) {
        let (mut disk, mut store, mut vt) = setup();
        let ids: Vec<ObjectId> = ["a", "b", "c"]
            .iter()
            .map(|name| store.create(&mut vt, &mut disk, name).unwrap())
            .collect();
        let mut acked = vec![Vec::new(); ids.len()];
        for round in 0..rounds {
            let members: &[usize] = if round % 3 == 2 { &[0, 2] } else { &[0, 1, 2] };
            let images: Vec<(u64, Vec<u8>)> = members
                .iter()
                .map(|&i| {
                    let epoch = store.epoch(ids[i]) + 1;
                    ((epoch - 1) % 4, page_of(epoch as u8))
                })
                .collect();
            let pages: Vec<[(u64, &[u8]); 1]> = images
                .iter()
                .map(|(page, image)| [(*page, &image[..])])
                .collect();
            let groups: Vec<(ObjectId, &[(u64, &[u8])])> = members
                .iter()
                .zip(&pages)
                .map(|(&i, group)| (ids[i], &group[..]))
                .collect();
            let tokens = store.persist_batch(&mut vt, &mut disk, &groups).unwrap();
            for (&i, token) in members.iter().zip(tokens) {
                acked[i].push(token.completes);
            }
            vt.advance(Nanos::from_us(25));
        }
        (disk, acked, store.stats().compaction_roots)
    }

    #[test]
    fn every_io_boundary_of_batches_across_a_compaction_root_recovers_an_acked_prefix() {
        let rounds = COMPACT_AFTER + 10;
        let (_, acked, roots) = drive_units(rounds);
        assert!(roots >= 2, "{roots} compaction roots");
        let points = crash_at_every_io(
            || drive_units(rounds).0,
            |mut disk, at| {
                let mut vt = Vt::new(3);
                let mut shard = open_shard(&mut vt, &mut disk).unwrap();
                for (name, acked) in ["a", "b", "c"].iter().zip(&acked) {
                    let durable = acked.iter().filter(|done| **done <= at).count() as u64;
                    let Some(obj) = shard.lookup(name) else {
                        assert_eq!(durable, 0, "crash at {at:?} lost {name}");
                        continue;
                    };
                    let epoch = shard.epoch(obj);
                    assert!(
                        (durable..=acked.len() as u64).contains(&epoch),
                        "{name} at {at:?}: epoch {epoch}, {durable} acked"
                    );
                    for page in 0..4 {
                        let last = (1..=epoch).rev().find(|e| (e - 1) % 4 == page);
                        let mut out = page_of(0);
                        shard
                            .read_page(&mut vt, &mut disk, obj, page, &mut out)
                            .unwrap();
                        let want = page_of(last.map_or(0, |e| e as u8));
                        assert_eq!(out, want, "{name} at {at:?}: page {page}, epoch {epoch}");
                    }
                }
            },
        );
        assert!(points > rounds as usize, "{points} crash points");
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
