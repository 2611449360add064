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
    let pairs = pages.into_iter().map(|(page, (_, word))| (page, word));
    Some(DeltaRecord {
        object: next.object,
        epoch: next.epoch,
        span: next.epoch - queued.first_epoch(),
        tag: queued.tag,
        len_pages: next.len_pages,
        payload_sum: layout::FNV_OFFSET,
        pairs: pairs.collect(),
        body,
    })
}

/// What a full root is to its object's chain of commits.
#[derive(Clone, Copy)]
pub(super) enum Root {
    /// A root in the chain: its block becomes the tip the next record
    /// extends, and acknowledgements wait for it. Carries the caller's
    /// initiation cost, charged once every allocation has succeeded.
    Chain(Nanos),
    /// A compaction root (DESIGN.md §6m): data-less, at the current
    /// epoch, off the commit path. It keeps the tip (its `tip` word names
    /// it), and no acknowledgement waits for it.
    Compaction,
}

/// The epoch above its newest root at which an object's commit places
/// that root behind its own record if it is still waiting: halfway
/// through the slack the previous root leaves it (R1′, DESIGN.md §6m),
/// 118 epochs.
pub(super) const PLACE_ROOT_AT: u64 = (DELTA_SLOTS - COMPACT_AFTER) / 2;

/// What [`plan`] reads of one object: its epoch, its previous and newest
/// roots' epochs, whether its newest record is a line record a line
/// commit may fold into (R3), its overlay's size and the commit's pages.
#[derive(Clone, Copy, Debug)]
struct View {
    epoch: Epoch,
    roots: [Epoch; 2],
    queued: bool,
    overlay: usize,
    pages: usize,
}

/// How a commit lands: a chain root that carries the data, a delta record
/// per object behind one data extent, or one record that carries lines.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Path {
    Root,
    Delta,
    Lines,
}

/// What a commit does for one object: `flush` a data-less chain root
/// first; hold the record until the root `gate` indexes in the `roots`
/// after that is durable (R1′); try to `fold` it into the queued one
/// (R3); after the landing, `place` the newest root, and `compact` then.
#[derive(Clone, Copy, Debug)]
struct Step {
    flush: bool,
    gate: usize,
    fold: bool,
    place: bool,
    compact: bool,
}

/// The commit rules of DESIGN.md §6m, decided with no IO from each
/// group's view (one group is a lone commit, several a shared batch),
/// whether a lone group is `line_sparse`, and `delta_commits`: the path
/// and one step per group.
/// - a lone commit is a chain root if records are off, it outgrows one,
///   its record would reuse its own newest root's slot, or its lines
///   would outgrow the overlay budget; else one line record if
///   line-sparse, else a delta record. A shared batch is delta records,
///   and an object it would fill so flushes a root first;
/// - R1′: the record of epoch `x` waits for the previous root if that
///   covers the slot of `x − DELTA_SLOTS` it reuses, else the newest;
/// - R3: a line record tries to fold into its object's queued one;
/// - the commit [`PLACE_ROOT_AT`] epochs above the newest root places
///   it; one [`COMPACT_AFTER`] above it compacts once it is durable.
fn plan(views: &[View], line_sparse: bool, delta_commits: bool) -> (Path, Vec<Step>) {
    let (shared, lone) = (views.len() != 1, views[0]);
    let full = |v: &View| v.epoch + 1 - v.roots[1] >= DELTA_SLOTS;
    let lines = !shared && delta_commits && line_sparse;
    let root = !shared
        && (!delta_commits
            || lone.pages > MAX_DELTA_PAIRS
            || full(&lone)
            || (lines && lone.overlay + lone.pages > OVERLAY_PAGE_BUDGET));
    let path = match (root, lines) {
        (true, _) => Path::Root,
        (_, true) => Path::Lines,
        _ => Path::Delta,
    };
    let steps = views.iter().map(|v| {
        let flush = shared && full(v);
        let roots = if flush {
            [v.roots[1], v.epoch]
        } else {
            v.roots
        };
        let (epoch, window) = (v.epoch + 1, v.epoch + 1 - roots[1]);
        Step {
            flush,
            gate: usize::from(roots[0] < epoch.saturating_sub(DELTA_SLOTS)),
            fold: path == Path::Lines && v.queued,
            place: window >= PLACE_ROOT_AT,
            compact: window >= COMPACT_AFTER,
        }
    });
    (path, steps.collect())
}

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
    /// `pages` into the tree at `epoch` (the object's current one for a
    /// data-less flush, or ahead of it for a replica image), flushes the
    /// dirty nodes `kind` calls for, writes data + nodes as one extent
    /// followed by a full root record, the single commit point, and
    /// updates all commit state.
    ///
    /// Every full root is self-contained (DESIGN.md §6m, I2): it writes
    /// the overlay out beside `pages`, which win where both name a page,
    /// and empties it. A compaction root journals the mappings beyond the
    /// newest root's tree, writing only the leaves [`JOURNAL_CAP`] cannot
    /// hold; every other root writes every dirty node and an empty
    /// journal. The root record waits until every commit it covers and
    /// the newest root are durable. On error the tree, overlay and
    /// allocator are restored; nothing leaks.
    pub(super) fn full_commit(
        &mut self,
        vt: &mut Vt,
        disk: &mut Disk,
        object: ObjectId,
        pages: &[(u64, &[u8])],
        epoch: Epoch,
        kind: Root,
    ) -> Result<CommitToken, StoreError> {
        let (initiate, journaled) = match kind {
            Root::Chain(initiate) => (initiate, false),
            Root::Compaction => (Nanos::ZERO, true),
        };
        // Its record overwrites the slot of the root before the newest.
        let newest = self.root_lands(disk, object, Nanos::MAX);
        let alloc_snapshot = self.alloc.clone();
        let state = &mut self.objects[object.0 as usize];
        // The tree must be mutated *before* the IO (node images are
        // serialized from it), so abort restores a pre-commit clone; full
        // commits are the rare path, which keeps the clone cost amortized.
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
        let leaves = leaves_to_flush(&journal);
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
            tip: if journaled { state.tip } else { 0 },
            journal: journal.iter().map(|(page, word)| (*page, *word)).collect(),
        };
        let slot = state.entry.root_slot(state.full_count + 1);
        let root_block = record.to_block();
        let covered = state.chain_completes.max(newest.expect("forced"));
        let extent = (!iov.is_empty()).then_some(&iov[..]);
        let record = [(slot, &root_block[..])];
        let (now, cache) = (vt.now(), &mut self.cache);
        let written = match land(disk, now, extent, &record, covered, cache, journaled) {
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
        state.node_freed_pending.retain(|leaf, freed| {
            let written = !journaled || leaves.contains(leaf);
            if written {
                data_freed.append(freed);
            }
            !written
        });
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
        if !journaled {
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

    /// One unit of [`crate::ObjectStore::persist_batch`], the only
    /// splitter: every group's pages land in its object, each as one
    /// epoch; an error lands none of them. Several groups share one data
    /// extent, and each group's record goes into its own object's ring,
    /// all in one vectored write; a crash leaves each object a prefix of
    /// its own chain, not the unit all or nothing. [`plan`] decides; this
    /// carries the plan out and nothing else.
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
        // Recycle blocks whose gate has passed, kept even if this commit
        // aborts. Pins must be materialized before anything is freed.
        self.ensure_pins(vt, disk)?;
        self.recycle_pending(vt.now());
        let shared = groups.len() != 1;
        if shared {
            let fits = |p: &[P]| (1..=MAX_DELTA_PAIRS).contains(&p.len());
            assert!(
                groups.len() > 1 && groups.iter().all(|(_, p)| fits(p)),
                "one group, or several that each fit one delta record and carry a page"
            );
            let mut seen: Vec<u32> = groups.iter().map(|(o, _)| o.0).collect();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), groups.len(), "one group per object");
        }

        // Demand-load every tree path this commit will touch *before* any
        // allocation or mutation: a failed node read aborts with every
        // object untouched.
        let mut views = Vec::with_capacity(groups.len());
        for (object, pages) in groups {
            self.hydrate_object_paths(vt, disk, *object, pages.iter().map(|p| p.page()))?;
            let state = &self.objects[object.0 as usize];
            views.push(View {
                epoch: state.epoch,
                roots: state.roots.map(|(epoch, _)| epoch),
                queued: state.queued.is_some(),
                overlay: state.overlay.len(),
                pages: pages.len(),
            });
        }
        let (path, steps) = plan(&views, line_sparse(groups[0].1), self.delta_commits);

        // Maintenance before the batch proper, charged to the submitter
        // and kept even if the batch later aborts (like block recycling).
        for ((object, _), step) in groups.iter().zip(&steps) {
            if step.flush {
                self.flush_full_root(vt, disk, *object)?;
            }
        }
        let total_pages: usize = groups.iter().map(|(_, p)| p.len()).sum();
        if path == Path::Root {
            // Slow path: flush dirty COW nodes and write a full root.
            let (object, pages) = groups[0];
            let epoch = self.objects[object.0 as usize].epoch + 1;
            let pages: Vec<(u64, &[u8])> = pages.iter().map(|p| (p.page(), p.image())).collect();
            let kind = Root::Chain(costs::initiate(total_pages));
            let token = self.full_commit(vt, disk, object, &pages, epoch, kind)?;
            self.stats.commits += 1;
            self.stats.pages_written += total_pages as u64;
            return Ok(vec![token]);
        }

        // Fast path: data extent + one commit record, or the line record
        // alone. Trees and overlays are not touched until the writes
        // succeed, so aborting only restores the allocator snapshot (a
        // line commit allocates nothing and takes none). Dirty tree nodes
        // stay in memory until the next full root.
        let inline = path == Path::Lines;
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
        // R1′: the records wait for the latest root the steps name.
        let mut root_gate = Nanos::ZERO;
        for ((object, pages), step) in groups.iter().zip(&steps) {
            let at = match step.gate {
                0 => self.objects[object.0 as usize].roots[0].1,
                _ => self.root_lands(disk, *object, Nanos::MAX).expect("forced"),
            };
            root_gate = root_gate.max(at);
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
        let slot = |d: &DeltaRecord| self.objects[d.object.0 as usize].entry.delta_slot(d.epoch);
        let images: Vec<_> = staged.iter().map(|d| (slot(d), d.to_block())).collect();
        let records: Vec<_> = images.iter().map(|(b, i)| (*b, &i[..])).collect();
        let now = vt.now();
        let absorbed = steps[0]
            .fold
            .then(|| self.absorb(disk, now, &staged[0], &patched))
            .flatten();
        let (extent, cache) = ((!inline).then_some(&iov[..]), &mut self.cache);
        let (token, held) = match absorbed {
            Some(token) => (token, false),
            None => match land(disk, now, extent, &records, root_gate, cache, false) {
                Ok(Landed::Now(token, held)) => (token, held),
                Ok(Landed::Idle(_)) => unreachable!("a record lands in the foreground"),
                Err(e) => {
                    if let Some(snapshot) = alloc_snapshot {
                        self.alloc = snapshot;
                    }
                    return Err(e.into());
                }
            },
        };

        // Durable: apply every group to its in-memory tree. Superseded
        // data blocks stay quarantined until the next full root: older
        // records still name them (replay re-reads them for `payload_sum`).
        let mut tokens = Vec::with_capacity(staged.len());
        let mut patched = patched.into_iter();
        for (g, (_, image)) in staged.iter().zip(&images) {
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
        // Each object asks whether its newest root has landed, placing it
        // if its step says so, then writes the compaction root its step
        // calls for: maintenance, so a failure changes nothing.
        for (g, step) in staged.iter().zip(&steps) {
            let by = if step.place { Nanos::MAX } else { now };
            let landed = self.root_lands(disk, g.object, by);
            if step.compact && landed.is_some_and(|at| at <= now) {
                let epoch = self.objects[g.object.0 as usize].epoch;
                let root = self.full_commit(vt, disk, g.object, &[], epoch, Root::Compaction);
                self.stats.compaction_roots += u64::from(root.is_ok());
            }
        }
        Ok(tokens)
    }

    /// When `object`'s newest root is durable, or `None` while the device
    /// would not have placed it by `by` ([`Disk::idle_lands`]). Once
    /// known, the instant replaces the handle and the blocks the root
    /// frees queue for it.
    pub(super) fn root_lands(
        &mut self,
        disk: &mut Disk,
        object: ObjectId,
        by: Nanos,
    ) -> Option<Nanos> {
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

    /// Pages a commit of [`drive_dry_ring`] writes: 20 of them overflow
    /// a compaction root's journal, so every root needs node blocks.
    const DRY_PAGES: u64 = 13;

    /// One object on a shard granted exactly each commit's data extent:
    /// every compaction root fails for space, swallowed, and the object
    /// climbs to `DELTA_SLOTS − 1` epochs above its only root (epoch 0).
    /// Then one commit on the same exact grant; then, with space granted,
    /// that commit again and `extra` more. Before each commit the ring
    /// slot it writes must hold no record a durable root does not cover.
    /// Returns the device, the commit tokens in order, and the error of
    /// the commit the chain root would not fit.
    fn drive_dry_ring(extra: u64) -> (Disk, Vec<CommitToken>, StoreError) {
        let mut disk = Disk::new(DiskConfig::paper());
        let mut store = StoreShard::format_at(&mut disk, ShardLayout::sharded(0, 1));
        disk.settle();
        let mut vt = Vt::new(0);
        // Grants follow each other, as the extent broker's do: a grant
        // the refused commit left unused stays granted.
        let mut end = store.high_water();
        let mut grant = |store: &mut StoreShard, n: u64| {
            store.grant_range(end, end + n);
            end += n;
        };
        grant(&mut store, OBJECT_META_BLOCKS);
        let obj = store.create(&mut vt, &mut disk, "db").unwrap();
        let mut tokens = Vec::new();
        let commit = |store: &mut StoreShard, disk: &mut Disk, vt: &mut Vt, epoch: u64| {
            // R1′ as the device sees it: the slot holds no record, or one
            // at or below the newest durable root.
            let state = &store.objects[obj.0 as usize];
            let slot = state.entry.delta_slot(epoch);
            let (root, landed) = state.roots[1];
            let held = disk.peek(slot);
            if let Some(old) = held.and_then(|b| DeltaRecord::from_block(&b, obj)) {
                assert!(
                    old.epoch <= root && landed <= vt.now(),
                    "epoch {epoch} overwrites the record of {} over a root at {root}",
                    old.epoch
                );
            }
            let page = page_of(epoch as u8);
            let pages: Vec<(u64, &[u8])> = (0..DRY_PAGES)
                .map(|i| (epoch * DRY_PAGES + i, &page[..]))
                .collect();
            let token = store.persist(vt, disk, obj, &pages);
            if let Ok(token) = token {
                ObjectStore::wait(vt, token);
            }
            token
        };
        for epoch in 1..DELTA_SLOTS {
            grant(&mut store, DRY_PAGES);
            tokens.push(commit(&mut store, &mut disk, &mut vt, epoch).unwrap());
        }
        let state = &store.objects[obj.0 as usize];
        assert_eq!(state.window(), DELTA_SLOTS - 1);
        assert_eq!(
            store.stats().compaction_roots,
            0,
            "every root failed for space"
        );
        // The next commit must be a chain root: on the data extent's
        // grant alone its nodes do not fit, and nothing is written.
        grant(&mut store, DRY_PAGES);
        let (io_seq, commits) = (disk.io_seq(), store.stats().commits);
        let err = commit(&mut store, &mut disk, &mut vt, DELTA_SLOTS).unwrap_err();
        assert_eq!(disk.io_seq(), io_seq, "a refused commit writes nothing");
        assert_eq!(store.stats().commits, commits);
        assert_eq!(store.epoch(obj), DELTA_SLOTS - 1);
        grant(&mut store, 1 << 12);
        let deltas = store.stats().delta_commits;
        tokens.push(commit(&mut store, &mut disk, &mut vt, DELTA_SLOTS).unwrap());
        let state = &store.objects[obj.0 as usize];
        assert_eq!(
            state.roots[1].0, DELTA_SLOTS,
            "a chain root at the window's end"
        );
        assert_eq!(store.stats().delta_commits, deltas);
        // Records resume over the first lap's slots, each now covered.
        for epoch in DELTA_SLOTS + 1..=DELTA_SLOTS + extra {
            tokens.push(commit(&mut store, &mut disk, &mut vt, epoch).unwrap());
        }
        (disk, tokens, err)
    }

    /// The ring's window fails closed: an object whose compaction roots
    /// all fail for space reaches the end of its 256-slot ring's window,
    /// where the next commit is a chain root or `OutOfSpace`, never a
    /// record over a slot no durable root covers; a crash at every IO
    /// boundary of the last commits recovers an acknowledged prefix.
    #[test]
    fn ring_window_without_roots_ends_in_a_chain_root_or_out_of_space() {
        let extra = 3;
        let (_, tokens, err) = drive_dry_ring(extra);
        assert_eq!(err, StoreError::OutOfSpace);
        assert_eq!(tokens.len() as u64, DELTA_SLOTS + extra);
        // The sweep covers the commits from the last few records of the
        // full window on.
        let from = tokens[tokens.len() - extra as usize - 4].completes;
        // No compaction root lands, so nothing waits in the idle class.
        let reference = drive_dry_ring(extra).0;
        let mut points = BTreeSet::new();
        for &done in reference.write_completions().iter().filter(|&&d| d >= from) {
            points.insert(done - Nanos::from_ns(1));
            points.insert(done);
        }
        assert!(points.len() >= 10, "{} crash points", points.len());
        for at in points {
            let mut disk = drive_dry_ring(extra).0;
            disk.crash(at);
            let mut vt = Vt::new(3);
            let mut shard = open_shard(&mut vt, &mut disk).unwrap();
            let obj = shard.lookup("db").unwrap();
            let durable = tokens.iter().filter(|t| t.completes <= at).count() as u64;
            let epoch = shard.epoch(obj);
            assert!(
                (durable..=tokens.len() as u64).contains(&epoch),
                "crash at {at:?}: epoch {epoch}, {durable} acked"
            );
            // The newest commits' pages, and the first page of the rest.
            let mut out = page_of(0);
            for e in (1..=epoch).rev() {
                let pages = if e + 8 > epoch { DRY_PAGES } else { 1 };
                for page in e * DRY_PAGES..e * DRY_PAGES + pages {
                    shard
                        .read_page(&mut vt, &mut disk, obj, page, &mut out)
                        .unwrap();
                    assert_eq!(out, page_of(e as u8), "crash at {at:?}: page {page}");
                }
            }
        }
    }

    /// The shared side of the ring's window: two objects committed only
    /// through shared batches, on a shard granted exactly each batch's
    /// data extent, so every compaction root fails for space and both
    /// windows climb to `DELTA_SLOTS − 1`. A batch onto those full windows
    /// flushes each object's chain root before its records, or fails for
    /// space: no record ever sits `DELTA_SLOTS` epochs above its object's
    /// newest root, and every group recovers.
    #[test]
    fn a_shared_batch_onto_full_windows_flushes_chain_roots_first() {
        let mut disk = Disk::new(DiskConfig::paper());
        let mut store = StoreShard::format_at(&mut disk, ShardLayout::sharded(0, 1));
        disk.settle();
        let mut vt = Vt::new(0);
        let mut end = store.high_water();
        let mut grant = |store: &mut StoreShard, n: u64| {
            store.grant_range(end, end + n);
            end += n;
        };
        grant(&mut store, 2 * OBJECT_META_BLOCKS);
        let a = store.create(&mut vt, &mut disk, "a").unwrap();
        let b = store.create(&mut vt, &mut disk, "b").unwrap();
        let batch = |store: &mut StoreShard, disk: &mut Disk, vt: &mut Vt, epoch: u64| {
            let page = page_of(epoch as u8);
            let pages: Vec<(u64, &[u8])> = (0..DRY_PAGES)
                .map(|i| (epoch * DRY_PAGES + i, &page[..]))
                .collect();
            let groups: Vec<(ObjectId, &[(u64, &[u8])])> = vec![(a, &pages[..]), (b, &pages[..])];
            let tokens = store.persist_batch(vt, disk, &groups);
            for token in tokens.iter().flatten() {
                ObjectStore::wait(vt, *token);
            }
            for obj in [a, b] {
                let window = store.objects[obj.0 as usize].window();
                assert!(window < DELTA_SLOTS, "epoch {epoch}: window {window}");
            }
            tokens.map(|_| ())
        };
        for epoch in 1..DELTA_SLOTS {
            grant(&mut store, 2 * DRY_PAGES);
            batch(&mut store, &mut disk, &mut vt, epoch).unwrap();
        }
        for obj in [a, b] {
            assert_eq!(store.objects[obj.0 as usize].window(), DELTA_SLOTS - 1);
        }
        assert_eq!(
            store.stats().compaction_roots,
            0,
            "every root failed for space"
        );
        // On the data extent's grant alone the chain roots do not fit.
        grant(&mut store, 2 * DRY_PAGES);
        let err = batch(&mut store, &mut disk, &mut vt, DELTA_SLOTS).unwrap_err();
        assert_eq!(err, StoreError::OutOfSpace);
        grant(&mut store, 1 << 12);
        let last = DELTA_SLOTS + 3;
        for epoch in DELTA_SLOTS..=last {
            batch(&mut store, &mut disk, &mut vt, epoch).unwrap();
        }
        for obj in [a, b] {
            let roots = store.objects[obj.0 as usize].roots;
            assert_eq!(
                roots[1].0,
                DELTA_SLOTS - 1,
                "a chain root at the window's end"
            );
        }

        disk.crash(vt.now());
        let mut vt2 = Vt::new(1);
        let mut shard = open_shard(&mut vt2, &mut disk).unwrap();
        let mut out = page_of(0);
        for name in ["a", "b"] {
            let obj = shard.lookup(name).unwrap();
            assert_eq!(shard.epoch(obj), last, "{name}");
            for epoch in [1, DELTA_SLOTS - 1, DELTA_SLOTS, last] {
                let page = epoch * DRY_PAGES + DRY_PAGES - 1;
                shard
                    .read_page(&mut vt2, &mut disk, obj, page, &mut out)
                    .unwrap();
                assert_eq!(out, page_of(epoch as u8), "{name}: epoch {epoch}");
            }
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

    /// The newest root as the executor meets it: landed by the commit's
    /// instant, placed but still in flight, or an idle-class write the
    /// device has not placed yet.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Newest {
        Landed,
        InFlight,
        Unplaced,
    }

    /// §6m's rules as properties of one plan. `newest` and `started` are
    /// the device's side, which the plan does not read: each object's
    /// newest root, and whether the device has started the lone group's
    /// queued record.
    fn check_plan(views: &[View], newest: &[Newest], sparse: bool, records: bool, started: bool) {
        let (path, steps) = plan(views, sparse, records);
        let case = || {
            format!("{views:?} {newest:?} sparse {sparse} records {records}: {path:?} {steps:?}")
        };
        let (shared, lone) = (views.len() > 1, views[0]);
        assert_eq!(steps.len(), views.len(), "{}", case());
        // The path: a lone commit is a chain root exactly when a record
        // cannot carry it; a shared batch is always records.
        let laps = |v: &View| v.epoch - v.roots[1] == DELTA_SLOTS - 1;
        let overflows = sparse && lone.overlay + lone.pages > OVERLAY_PAGE_BUDGET;
        let root = !records || lone.pages > MAX_DELTA_PAIRS || laps(&lone) || overflows;
        let want = match (shared, root, records && sparse) {
            (true, ..) => Path::Delta,
            (false, true, _) => Path::Root,
            (false, false, true) => Path::Lines,
            (false, false, false) => Path::Delta,
        };
        assert_eq!(path, want, "{}", case());
        if path == Path::Root {
            return;
        }
        for ((v, step), newest) in views.iter().zip(&steps).zip(newest) {
            // Only a shared batch flushes, and only an object whose record
            // would otherwise lap its newest root.
            assert_eq!(step.flush, shared && laps(v), "{}", case());
            let roots = if step.flush {
                [v.roots[1], v.epoch]
            } else {
                v.roots
            };
            let epoch = v.epoch + 1;
            let window = epoch - roots[1];
            assert!(
                (1..DELTA_SLOTS).contains(&window),
                "{}: window {window}",
                case()
            );
            // R3: a line record tries to fold exactly when its object has
            // a queued line record. It rides that record if the device has
            // not started it, and is written as its own record otherwise.
            assert_eq!(step.fold, path == Path::Lines && v.queued, "{}: R3", case());
            let written = !step.fold || started;
            // R1′: a written record waits for a root at or above the epoch
            // whose ring slot it reuses, and for the newest only if the
            // previous does not cover it.
            let reused = epoch.saturating_sub(DELTA_SLOTS);
            assert!(!written || roots[step.gate] >= reused, "{}: R1′", case());
            assert_eq!(step.gate == 1, roots[0] < reused, "{}: R1′", case());
            // Placement: a root still waiting on the device is placed by
            // the commit PLACE_ROOT_AT epochs above it at the latest, and
            // never earlier unless the record's gate needs it.
            // (The gate is met before the fold is tried.)
            let forced = step.flush || step.gate == 1 || step.place;
            let waiting = *newest == Newest::Unplaced && !forced;
            assert!(!waiting || window < PLACE_ROOT_AT, "{}: placement", case());
            assert!(
                !step.place || window >= PLACE_ROOT_AT,
                "{}: placement",
                case()
            );
            // Compaction: the commit COMPACT_AFTER or more epochs above a
            // durable newest root writes one behind its record; below
            // that, or behind a root not yet durable, none.
            let durable = *newest == Newest::Landed && !step.flush;
            let compacts = step.compact && durable;
            assert_eq!(
                compacts,
                window >= COMPACT_AFTER && durable,
                "{}: compaction",
                case()
            );
        }
    }

    /// Enumerates the plan over every state at small scope: a lone commit
    /// of either of 2 objects and a shared batch of both; each object's
    /// window around `COMPACT_AFTER`, `PLACE_ROOT_AT` and `DELTA_SLOTS`,
    /// its previous root on either side of the slot its record reuses, a
    /// line record queued or not, its newest root landed, in flight or
    /// unplaced; a lone group's lines fitting the overlay budget or not,
    /// its page count around `MAX_DELTA_PAIRS`, and the device having
    /// started the queued record or not. A shared batch reads no overlay
    /// and carries no lines, so its objects vary the rest.
    #[test]
    fn the_plan_keeps_every_commit_rule_in_every_small_state() {
        let windows = [
            0,
            1,
            COMPACT_AFTER - 2,
            COMPACT_AFTER - 1,
            COMPACT_AFTER,
            COMPACT_AFTER + 1,
            PLACE_ROOT_AT - 2,
            PLACE_ROOT_AT - 1,
            PLACE_ROOT_AT,
            PLACE_ROOT_AT + 1,
            DELTA_SLOTS - 2,
            DELTA_SLOTS - 1,
        ];
        // How far the previous root sits below the newest: the record
        // reuses the slot of newest + window + 1 − DELTA_SLOTS.
        let gaps = [
            0,
            1,
            COMPACT_AFTER,
            DELTA_SLOTS - PLACE_ROOT_AT - 2,
            DELTA_SLOTS - PLACE_ROOT_AT - 1,
            DELTA_SLOTS - COMPACT_AFTER,
            DELTA_SLOTS - 1,
        ];
        let mut epochs = Vec::new();
        for &window in &windows {
            // A young object, whose record reuses no slot, and an old one.
            epochs.push((window, [0, 0]));
            for &gap in &gaps {
                let newest = 2 * DELTA_SLOTS;
                epochs.push((newest + window, [newest - gap, newest]));
            }
        }
        let newests = [Newest::Landed, Newest::InFlight, Newest::Unplaced];
        let mut objects = Vec::new();
        for &(epoch, roots) in &epochs {
            for newest in newests {
                for queued in [false, true] {
                    let view = View {
                        epoch,
                        roots,
                        queued,
                        overlay: 0,
                        pages: 1,
                    };
                    objects.push((view, newest));
                }
            }
        }
        let mut states = 0u64;
        for &(view, newest) in &objects {
            for pages in [1, MAX_DELTA_PAIRS, MAX_DELTA_PAIRS + 1] {
                for overflow in [0, 1] {
                    let overlay = OVERLAY_PAGE_BUDGET - pages + overflow;
                    let view = View {
                        overlay,
                        pages,
                        ..view
                    };
                    for (sparse, records, device) in
                        (0..8).map(|i| (i & 1 != 0, i & 2 != 0, i & 4 != 0))
                    {
                        check_plan(&[view], &[newest], sparse, records, device);
                        states += 1;
                    }
                }
            }
        }
        for &(a, a_newest) in &objects {
            for &(b, b_newest) in &objects {
                check_plan(&[a, b], &[a_newest, b_newest], false, true, false);
                states += 1;
            }
        }
        assert_eq!(states, 27_648 + 331_776);
    }
}
