//! The COW radix tree indexing an object's pages.
//!
//! The paper chooses COW radix trees over COW B-trees because the workload
//! is block-based random writes and radix trees "do not suffer from the
//! extent fragmentation problems that B-Trees have if snapshotted
//! frequently" (§3). One tree node fills one 4 KiB block: 512 little-endian
//! `u64` child pointers; `0` means empty. Three fixed levels cover
//! 512³ ≈ 134 M pages (512 GiB) per object.
//!
//! Nodes are reference-counted (`Arc<Node>`) and mutated through
//! [`Arc::make_mut`] path copying, so `RadixTree::clone` is O(1) structural
//! sharing: a clone shares every node with the original until one side
//! dirties a path, at which point only that root-to-leaf path is copied.
//! This is what makes abort snapshots and retained-snapshot views
//! proportional to the *subsequently dirtied* set instead of the object.
//!
//! A committed subtree need not be resident: [`Child::Unloaded`] records
//! the node's disk block and the digest of its image without reading it,
//! and every hydration, the root's included, verifies the image it reads
//! against that digest. The tree has one surface, lazy and fallible:
//!
//! - open: [`RadixTree::new`], or [`RadixTree::from_committed_digest`]
//!   (O(1), nothing read);
//! - read: [`RadixTree::get_entry_or_load`], [`RadixTree::entries_from`]
//!   (page order), or [`RadixTree::hydrate_path`] then [`RadixTree::get`];
//! - write: [`RadixTree::hydrate_path`], [`RadixTree::set_entry`], then
//!   [`RadixTree::commit`];
//! - compare: [`RadixTree::diff_pages_with`], which skips shared subtrees
//!   by block number *without* hydrating either side;
//! - blocks: [`RadixTree::hydrate_all`], then [`RadixTree::disk_blocks`].

use std::sync::Arc;

use crate::layout::{digest32, pack_entry, unpack_entry, DIGEST_NONE};
use msnap_disk::{IoError, BLOCK_SIZE};
use msnap_sim::wire::Reader;

/// Children per node: one 4 KiB block of u64 entry words.
pub const FANOUT: usize = BLOCK_SIZE / 8;
/// Fixed tree height.
pub const LEVELS: usize = 3;
/// Highest addressable page index + 1.
pub const MAX_PAGES: u64 = (FANOUT as u64).pow(LEVELS as u32);

const SHIFT: [u32; LEVELS] = [18, 9, 0];

/// Fallible single-block read used for demand hydration. The store wires
/// this to the device (charging simulated IO) and its block cache.
pub type BlockRead<'a> = &'a mut dyn FnMut(u64, &mut [u8; BLOCK_SIZE]) -> Result<(), IoError>;

/// Error from a tree operation that hydrates nodes on demand.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TreeError {
    /// The device read failed.
    Io(IoError),
    /// A node image read back with contents whose digest does not match
    /// the digest its parent recorded at commit time: the metadata block
    /// rotted at rest. The slot is left unloaded (retryable if the fault
    /// was transient in the device, permanent rot needs repair).
    CorruptNode {
        /// The node's disk block.
        block: u64,
    },
}

impl From<IoError> for TreeError {
    fn from(e: IoError) -> Self {
        TreeError::Io(e)
    }
}

impl std::fmt::Display for TreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TreeError::Io(e) => write!(f, "tree hydration IO error: {e}"),
            TreeError::CorruptNode { block } => {
                write!(f, "radix node at block {block} failed digest verification")
            }
        }
    }
}

impl std::error::Error for TreeError {}

#[derive(Debug, Clone)]
enum Child {
    Empty,
    /// At the last level: a data block number plus the digest32 of the
    /// page contents.
    Data {
        block: u64,
        digest: u32,
    },
    /// At interior levels: a resident child node, possibly shared with
    /// other trees (clones, snapshots, abort snapshots).
    Node(Arc<Node>),
    /// A committed child node that has not been read from disk yet. The
    /// block number is enough to commit, diff, and serialize around it;
    /// only descending *into* the subtree forces a read, which is when
    /// `digest` (the parent's recorded digest of the child's image) is
    /// verified.
    Unloaded {
        block: u64,
        digest: u32,
    },
}

impl Child {
    /// The committed block this child refers to, or `None` if the child is
    /// empty or dirty. Two children with equal `Some` refs index identical
    /// subtrees (the COW invariant: committed blocks are never rewritten).
    fn committed_ref(&self) -> Option<u64> {
        match self {
            Child::Empty => None,
            Child::Data { block, .. } => Some(*block),
            Child::Node(n) => n.disk_block,
            Child::Unloaded { block, .. } => Some(*block),
        }
    }
}

#[derive(Debug, Clone)]
struct Node {
    children: Vec<Child>,
    /// The block holding this node's committed image, or `None` if the
    /// node has been modified since the last commit (dirty).
    disk_block: Option<u64>,
    /// digest32 of the committed image (valid while `disk_block` is
    /// `Some`); [`DIGEST_NONE`] while the node is dirty.
    disk_digest: u32,
}

impl Node {
    fn new() -> Node {
        Node {
            children: vec![Child::Empty; FANOUT],
            disk_block: None,
            disk_digest: DIGEST_NONE,
        }
    }

    /// Parses a node image read from `block`. Children at interior levels
    /// come back [`Child::Unloaded`]; nothing below is read. `disk_digest`
    /// is the digest of `buf` itself (the caller has already verified it
    /// against the parent's expectation).
    fn parse(block: u64, buf: &[u8; BLOCK_SIZE], level: usize) -> Node {
        let mut node = Node::new();
        node.disk_block = Some(block);
        node.disk_digest = digest32(buf);
        let mut r = Reader::new(buf);
        for child in &mut node.children {
            // A zero word is an empty slot; FANOUT words fill the block.
            let Ok(word @ 1..) = r.u64() else {
                continue;
            };
            let (b, digest) = unpack_entry(word);
            *child = if level == LEVELS - 1 {
                Child::Data { block: b, digest }
            } else {
                Child::Unloaded { block: b, digest }
            };
        }
        node
    }

    fn serialize(&self) -> [u8; BLOCK_SIZE] {
        let mut block = [0u8; BLOCK_SIZE];
        for (i, child) in self.children.iter().enumerate() {
            let v = match child {
                Child::Empty => 0,
                Child::Data { block, digest } => pack_entry(*block, *digest),
                Child::Unloaded { block, digest } => pack_entry(*block, *digest),
                Child::Node(n) => pack_entry(
                    n.disk_block
                        .expect("serialize called before children were assigned blocks"),
                    n.disk_digest,
                ),
            };
            block[i * 8..i * 8 + 8].copy_from_slice(&v.to_le_bytes());
        }
        block
    }
}

/// Replaces an [`Child::Unloaded`] slot with its resident node (reading it
/// via `read`) and returns a mutable reference to the node. Every image
/// read back, the root's included, is verified against the digest its
/// parent or record carries; a mismatch is [`TreeError::CorruptNode`].
/// On any error the slot is left `Unloaded` — nothing is poisoned and a
/// retry starts from the same state.
fn hydrate_slot<'a>(
    slot: &'a mut Child,
    level: usize,
    read: BlockRead,
) -> Result<&'a mut Node, TreeError> {
    if let Child::Unloaded { block, digest } = *slot {
        let mut buf = [0u8; BLOCK_SIZE];
        read(block, &mut buf)?;
        if digest32(&buf) != digest {
            return Err(TreeError::CorruptNode { block });
        }
        *slot = Child::Node(Arc::new(Node::parse(block, &buf, level)));
    }
    match slot {
        Child::Node(n) => Ok(Arc::make_mut(n)),
        _ => unreachable!("hydrate_slot called on a non-node child"),
    }
}

/// An object's page index: in-memory COW radix tree with dirty tracking.
///
/// [`RadixTree::set_entry`] marks the touched root-to-leaf path dirty;
/// [`RadixTree::commit`] assigns fresh blocks to every dirty node
/// (children before parents) and emits their serialized images, returning
/// the new root block. Blocks superseded by the commit are reported for
/// recycling — committed nodes are never mutated in place, which is the
/// COW invariant the crash-consistency argument rests on.
///
/// Cloning is O(1): nodes are `Arc`-shared and copied lazily, path by
/// path, as either side mutates. A clone taken of a dirty tree keeps its
/// own view of the dirty nodes — `commit` copies shared dirty nodes before
/// assigning them blocks — which is what the store's abort snapshots rely
/// on.
#[derive(Debug, Clone)]
pub struct RadixTree {
    root: Child,
    /// Disk blocks of committed nodes/pages superseded since last commit.
    freed: Vec<u64>,
    len_pages: u64,
}

impl Default for RadixTree {
    fn default() -> Self {
        RadixTree {
            root: Child::Empty,
            freed: Vec::new(),
            len_pages: 0,
        }
    }
}

impl RadixTree {
    /// Creates an empty tree.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wraps a committed root block and the record's digest of its image
    /// without reading anything: O(1). Nodes hydrate on first touch, the
    /// root's verified against `root_digest` — closing the Merkle chain at
    /// the top. `root_block == 0` yields an empty tree.
    pub fn from_committed_digest(root_block: u64, root_digest: u32, len_pages: u64) -> Self {
        RadixTree {
            root: if root_block == 0 {
                Child::Empty
            } else {
                Child::Unloaded {
                    block: root_block,
                    digest: root_digest,
                }
            },
            freed: Vec::new(),
            len_pages,
        }
    }

    /// Reads every unloaded node so the whole tree is resident.
    pub fn hydrate_all(&mut self, read: BlockRead) -> Result<(), TreeError> {
        fn rec(slot: &mut Child, level: usize, read: BlockRead) -> Result<(), TreeError> {
            match slot {
                Child::Empty | Child::Data { .. } => Ok(()),
                _ => {
                    let node = hydrate_slot(slot, level, read)?;
                    if level == LEVELS - 1 {
                        return Ok(());
                    }
                    for child in &mut node.children {
                        rec(child, level + 1, read)?;
                    }
                    Ok(())
                }
            }
        }
        rec(&mut self.root, 0, read)
    }

    /// Hydrates the root-to-leaf path for `page` without dirtying it.
    /// After this returns `Ok`, [`RadixTree::get`] and
    /// [`RadixTree::set_entry`] on `page` cannot cross an unloaded node,
    /// so a write hydrates before it mutates. On error nothing has been
    /// mutated except already-completed hydrations (which are semantically
    /// neutral), so retrying is safe.
    pub fn hydrate_path(&mut self, page: u64, read: BlockRead) -> Result<(), TreeError> {
        assert!(page < MAX_PAGES, "page index out of range");
        let mut slot = &mut self.root;
        for (level, &shift) in SHIFT.iter().enumerate() {
            match slot {
                Child::Empty | Child::Data { .. } => return Ok(()),
                _ => {}
            }
            let node = hydrate_slot(slot, level, read)?;
            if level == LEVELS - 1 {
                return Ok(());
            }
            let idx = ((page >> shift) as usize) & (FANOUT - 1);
            slot = &mut node.children[idx];
        }
        Ok(())
    }

    /// The `(data block, content digest)` entry for `page`, hydrating the
    /// path on demand.
    pub fn get_entry_or_load(
        &mut self,
        page: u64,
        read: BlockRead,
    ) -> Result<Option<(u64, u32)>, TreeError> {
        self.hydrate_path(page, read)?;
        Ok(self.get_entry(page))
    }

    /// The data block holding `page`, if the page has been written.
    ///
    /// # Panics
    ///
    /// Panics if the lookup crosses an unloaded subtree — hydrate the
    /// path first ([`RadixTree::hydrate_path`]).
    pub fn get(&self, page: u64) -> Option<u64> {
        self.get_entry(page).map(|(b, _)| b)
    }

    /// The `(data block, content digest)` entry for `page`, if written.
    ///
    /// # Panics
    ///
    /// Panics if the lookup crosses an unloaded subtree — use
    /// [`RadixTree::get_entry_or_load`] on lazily opened trees.
    pub fn get_entry(&self, page: u64) -> Option<(u64, u32)> {
        assert!(page < MAX_PAGES, "page index out of range");
        let mut child = &self.root;
        for (level, &shift) in SHIFT.iter().enumerate() {
            let node = match child {
                Child::Empty => return None,
                Child::Unloaded { .. } => {
                    panic!("get crossed an unloaded subtree; use get_entry_or_load")
                }
                Child::Node(n) => n,
                Child::Data { .. } => unreachable!("Data children only exist at the last level"),
            };
            let idx = ((page >> shift) as usize) & (FANOUT - 1);
            child = &node.children[idx];
            if level == LEVELS - 1 {
                return match child {
                    Child::Data { block, digest } => Some((*block, *digest)),
                    Child::Empty => None,
                    _ => panic!("interior child at leaf level"),
                };
            }
        }
        unreachable!()
    }

    /// Points `page` at `data_block` (recording `digest` as the digest32
    /// of its contents), COW-dirtying the path. Returns the replaced data
    /// block, if any (the caller recycles it after commit). Shared nodes
    /// along the path are copied (`Arc::make_mut`), so clones of this tree
    /// are unaffected.
    ///
    /// # Panics
    ///
    /// Panics if `page >= MAX_PAGES`, `data_block == 0`, or the path
    /// crosses an unloaded subtree ([`RadixTree::hydrate_path`] first).
    pub fn set_entry(&mut self, page: u64, data_block: u64, digest: u32) -> Option<u64> {
        assert!(page < MAX_PAGES, "page index out of range");
        assert!(data_block != 0, "block 0 is reserved");
        self.len_pages = self.len_pages.max(page + 1);
        if matches!(self.root, Child::Empty) {
            self.root = Child::Node(Arc::new(Node::new()));
        }
        let mut slot = &mut self.root;
        for (level, &shift) in SHIFT.iter().enumerate() {
            let node = match slot {
                Child::Node(n) => Arc::make_mut(n),
                Child::Unloaded { .. } => {
                    panic!("set_entry crossed an unloaded subtree; hydrate_path first")
                }
                _ => unreachable!("interior slots always hold nodes here"),
            };
            // Dirty the node; recycle its committed image.
            if let Some(b) = node.disk_block.take() {
                self.freed.push(b);
            }
            let idx = ((page >> shift) as usize) & (FANOUT - 1);
            if level == LEVELS - 1 {
                let old = match node.children[idx] {
                    Child::Data { block, .. } => Some(block),
                    Child::Empty => None,
                    _ => unreachable!("interior child at leaf level"),
                };
                node.children[idx] = Child::Data {
                    block: data_block,
                    digest,
                };
                return old;
            }
            if matches!(node.children[idx], Child::Empty) {
                node.children[idx] = Child::Node(Arc::new(Node::new()));
            }
            slot = &mut node.children[idx];
        }
        unreachable!()
    }

    /// Assigns blocks (via `alloc`) to all dirty nodes and emits their
    /// images, children before parents. Returns the new root block
    /// (`0` for an empty tree).
    ///
    /// After `commit` returns, the in-memory tree matches the emitted
    /// on-disk image and nothing is dirty. Dirty nodes still shared with a
    /// clone (an abort snapshot taken of the dirty tree) are copied before
    /// being assigned blocks, so the clone stays dirty and restorable.
    pub fn commit(
        &mut self,
        alloc: &mut dyn FnMut() -> u64,
        writes: &mut Vec<(u64, Box<[u8]>)>,
    ) -> u64 {
        fn commit_slot(
            slot: &mut Child,
            alloc: &mut dyn FnMut() -> u64,
            writes: &mut Vec<(u64, Box<[u8]>)>,
        ) -> u64 {
            match slot {
                Child::Empty => 0,
                Child::Data { block, .. } => *block,
                Child::Unloaded { block, .. } => *block, // clean on disk, never read
                Child::Node(arc) => {
                    if let Some(b) = arc.disk_block {
                        return b; // clean subtree
                    }
                    let node = Arc::make_mut(arc);
                    for child in &mut node.children {
                        if let Child::Node(_) = child {
                            commit_slot(child, alloc, writes);
                        }
                    }
                    // Children first: their fresh (block, digest) pairs
                    // must be final before this node's image — the Merkle
                    // chain is built bottom-up.
                    let block = alloc();
                    node.disk_block = Some(block);
                    let image = node.serialize();
                    node.disk_digest = digest32(&image);
                    writes.push((block, Box::new(image)));
                    block
                }
            }
        }

        commit_slot(&mut self.root, alloc, writes)
    }

    /// Drains the list of blocks superseded since the last drain.
    pub fn take_freed(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.freed)
    }

    /// Number of dirty (uncommitted) nodes. Unloaded subtrees are clean
    /// by construction.
    pub fn dirty_nodes(&self) -> usize {
        fn count(child: &Child) -> usize {
            match child {
                Child::Node(n) => {
                    let own = usize::from(n.disk_block.is_none());
                    own + n.children.iter().map(count).sum::<usize>()
                }
                _ => 0,
            }
        }
        count(&self.root)
    }

    /// Number of unloaded (non-resident) subtree roots — a hydration-state
    /// probe for tests and benches.
    pub fn unloaded_nodes(&self) -> usize {
        fn count(child: &Child) -> usize {
            match child {
                Child::Unloaded { .. } => 1,
                Child::Node(n) => n.children.iter().map(count).sum(),
                _ => 0,
            }
        }
        count(&self.root)
    }

    /// Object length in pages (highest written page + 1).
    pub fn len_pages(&self) -> u64 {
        self.len_pages
    }

    /// Disk block of the committed root node (`0` for an empty tree).
    /// Works on unloaded trees — the root block is known without a read.
    ///
    /// # Panics
    ///
    /// Panics if the root is dirty — callers commit first.
    pub fn committed_root(&self) -> u64 {
        match &self.root {
            Child::Empty => 0,
            Child::Unloaded { block, .. } => *block,
            Child::Node(n) => n.disk_block.expect("committed_root called on a dirty tree"),
            Child::Data { .. } => unreachable!("the root is never a data block"),
        }
    }

    /// digest32 of the committed root node's image ([`DIGEST_NONE`] for an
    /// empty tree). Pairs with [`RadixTree::committed_root`] to
    /// fill a root record.
    ///
    /// # Panics
    ///
    /// Panics if the root is dirty — callers commit first.
    pub fn committed_root_digest(&self) -> u32 {
        match &self.root {
            Child::Empty => DIGEST_NONE,
            Child::Unloaded { digest, .. } => *digest,
            Child::Node(n) => {
                n.disk_block.expect("committed_root_digest on a dirty tree");
                n.disk_digest
            }
            Child::Data { .. } => unreachable!("the root is never a data block"),
        }
    }

    /// Every disk block the tree references, parents before children:
    /// each committed node's block and every data block. Of a committed
    /// tree this is the block set a retained snapshot pins; of an
    /// abandoned (possibly mid-delta-window) history, the footprint the
    /// rebase path quarantines for recycling. A dirty node has no block
    /// of its own yet, but the blocks below it are real and listed.
    ///
    /// # Panics
    ///
    /// Panics on an unloaded subtree — [`RadixTree::hydrate_all`] first.
    pub fn disk_blocks(&self) -> Vec<u64> {
        fn walk(child: &Child, out: &mut Vec<u64>) {
            match child {
                Child::Empty => {}
                Child::Data { block, .. } => out.push(*block),
                Child::Unloaded { .. } => {
                    panic!("disk_blocks on a partially loaded tree; hydrate_all first")
                }
                Child::Node(n) => {
                    if let Some(b) = n.disk_block {
                        out.push(b);
                    }
                    for c in &n.children {
                        walk(c, out);
                    }
                }
            }
        }
        let mut out = Vec::new();
        walk(&self.root, &mut out);
        out
    }

    /// Pages whose mapping differs between `base` and `target`, as
    /// `(page, target data block)` pairs in page order; with no `base`,
    /// every page of `target`. Subtrees whose committed block numbers
    /// match on both sides are skipped without descent — zero hydration
    /// reads for shared state. The COW invariant makes equal block numbers
    /// imply equal content, *provided* neither tree's blocks can have been
    /// recycled in between (true for retained snapshots, whose blocks are
    /// pinned). Only *divergent* subtrees are hydrated, on both sides. A
    /// dirty node compares unequal to everything, which is conservative
    /// but never wrong. Pages present only in `base` are not reported
    /// (the store never deletes pages).
    pub fn diff_pages_with(
        base: Option<&mut RadixTree>,
        target: &mut RadixTree,
        read: BlockRead,
    ) -> Result<Vec<(u64, u64)>, TreeError> {
        fn walk(
            a: Option<&mut Child>,
            b: &mut Child,
            prefix: u64,
            level: usize,
            read: BlockRead,
            out: &mut Vec<(u64, u64)>,
        ) -> Result<(), TreeError> {
            if let Some(ac) = &a {
                if ac.committed_ref().is_some() && ac.committed_ref() == b.committed_ref() {
                    return Ok(()); // shared committed subtree: no hydration
                }
            }
            if matches!(b, Child::Empty) {
                return Ok(());
            }
            let bn = hydrate_slot(b, level, read)?;
            let mut an = match a {
                Some(slot @ (Child::Node(_) | Child::Unloaded { .. })) => {
                    Some(hydrate_slot(slot, level, read)?)
                }
                _ => None,
            };
            for i in 0..FANOUT {
                let idx = prefix | ((i as u64) << SHIFT[level]);
                let child = &mut bn.children[i];
                let ac = an.as_deref_mut().map(|n| &mut n.children[i]);
                if level == LEVELS - 1 {
                    if let Child::Data { block: db, .. } = child {
                        if !matches!(&ac, Some(Child::Data { block: ab, .. }) if ab == db) {
                            out.push((idx, *db));
                        }
                    }
                } else if !matches!(child, Child::Empty) {
                    walk(ac, child, idx, level + 1, read, out)?;
                }
            }
            Ok(())
        }
        let mut out = Vec::new();
        walk(
            base.map(|t| &mut t.root),
            &mut target.root,
            0,
            0,
            read,
            &mut out,
        )?;
        Ok(out)
    }

    /// Up to `limit` leaf entries with page index `>= start`, as
    /// `(page, data block, digest)` triples in page order, hydrating only
    /// the subtrees the range forces it to descend into. This is the
    /// scrub cursor's enumeration primitive: a scrub pass resumes at
    /// `start` and subtrees entirely below the cursor are skipped without
    /// IO. `entries_from(0, usize::MAX, read)` lists every entry.
    pub fn entries_from(
        &mut self,
        start: u64,
        limit: usize,
        read: BlockRead,
    ) -> Result<Vec<(u64, u64, u32)>, TreeError> {
        fn walk(
            slot: &mut Child,
            prefix: u64,
            level: usize,
            start: u64,
            limit: usize,
            read: BlockRead,
            out: &mut Vec<(u64, u64, u32)>,
        ) -> Result<(), TreeError> {
            if out.len() >= limit {
                return Ok(());
            }
            match slot {
                Child::Empty => Ok(()),
                Child::Data { block, digest } => {
                    if prefix >= start {
                        out.push((prefix, *block, *digest));
                    }
                    Ok(())
                }
                _ => {
                    // Pages under a node at `level` span FANOUT^(LEVELS-level).
                    let span = (FANOUT as u64).pow((LEVELS - level) as u32);
                    if prefix + span <= start {
                        return Ok(()); // entirely behind the cursor
                    }
                    let node = hydrate_slot(slot, level, read)?;
                    let shift = SHIFT[level];
                    for i in 0..FANOUT {
                        if out.len() >= limit {
                            break;
                        }
                        let idx = prefix | ((i as u64) << shift);
                        walk(
                            &mut node.children[i],
                            idx,
                            level + 1,
                            start,
                            limit,
                            read,
                            out,
                        )?;
                    }
                    Ok(())
                }
            }
        }
        let mut out = Vec::new();
        walk(&mut self.root, 0, 0, start, limit, read, &mut out)?;
        Ok(out)
    }

    /// Every *resident* committed node's `(disk block, image digest)`,
    /// parents before children. Dirty nodes (no committed image) and
    /// unloaded subtrees (verified at hydration time instead) are skipped.
    /// This is the scrub's node-media worklist.
    pub fn committed_nodes(&self) -> Vec<(u64, u32)> {
        fn walk(child: &Child, out: &mut Vec<(u64, u32)>) {
            if let Child::Node(n) = child {
                if let Some(b) = n.disk_block {
                    out.push((b, n.disk_digest));
                }
                for c in &n.children {
                    walk(c, out);
                }
            }
        }
        let mut out = Vec::new();
        walk(&self.root, &mut out);
        out
    }

    /// Heals a resident committed node whose *media* copy rotted: marks
    /// the node and every ancestor dirty so the next full commit rewrites
    /// the path to fresh blocks from the good in-memory copies. Ancestor
    /// blocks are reported as superseded (recyclable); the rotted block
    /// itself is **not** — the caller quarantines it. Returns `false` if
    /// no resident node holds `block`.
    pub fn dirty_committed_node(&mut self, block: u64) -> bool {
        fn contains(node: &Node, target: u64) -> bool {
            if node.disk_block == Some(target) {
                return true;
            }
            node.children
                .iter()
                .any(|c| matches!(c, Child::Node(n) if contains(n, target)))
        }
        fn dirty_path(slot: &mut Child, target: u64, freed: &mut Vec<u64>) -> bool {
            let Child::Node(arc) = slot else {
                return false;
            };
            if !contains(arc, target) {
                return false;
            }
            let node = Arc::make_mut(arc);
            if node.disk_block == Some(target) {
                node.disk_block = None; // rotted: quarantined by the caller
                node.disk_digest = DIGEST_NONE;
                return true;
            }
            for child in &mut node.children {
                if dirty_path(child, target, freed) {
                    break;
                }
            }
            if let Some(b) = node.disk_block.take() {
                freed.push(b); // healthy ancestor image, superseded
            }
            node.disk_digest = DIGEST_NONE;
            true
        }
        let mut freed = Vec::new();
        let found = dirty_path(&mut self.root, block, &mut freed);
        self.freed.extend(freed);
        found
    }

    /// A structurally independent copy sharing no nodes with `self` — the
    /// pre-Arc `clone` semantics, kept as a bench ablation so the cost of
    /// deep copying can be measured against O(1) structural sharing.
    pub fn deep_clone(&self) -> Self {
        fn deep(child: &Child) -> Child {
            match child {
                Child::Node(n) => Child::Node(Arc::new(Node {
                    children: n.children.iter().map(deep).collect(),
                    disk_block: n.disk_block,
                    disk_digest: n.disk_digest,
                })),
                other => other.clone(),
            }
        }
        RadixTree {
            root: deep(&self.root),
            freed: self.freed.clone(),
            len_pages: self.len_pages,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// The hydration read of a tree built in memory, which needs none.
    fn no_read(b: u64, _: &mut [u8; BLOCK_SIZE]) -> Result<(), IoError> {
        panic!("a resident tree read block {b}")
    }

    /// Every `(page, data block)` of `t`, in page order.
    fn page_blocks(t: &mut RadixTree, read: BlockRead) -> Vec<(u64, u64)> {
        let entries = t.entries_from(0, usize::MAX, read).unwrap();
        entries.into_iter().map(|(p, b, _)| (p, b)).collect()
    }

    /// [`RadixTree::diff_pages_with`] of two resident trees.
    fn diff(base: &mut RadixTree, target: &mut RadixTree) -> Vec<(u64, u64)> {
        RadixTree::diff_pages_with(Some(base), target, &mut no_read).unwrap()
    }

    #[test]
    fn get_on_empty_tree() {
        let t = RadixTree::new();
        assert_eq!(t.get(0), None);
        assert_eq!(t.get(MAX_PAGES - 1), None);
    }

    #[test]
    fn set_and_get() {
        let mut t = RadixTree::new();
        assert_eq!(t.set_entry(5, 100, 1), None);
        assert_eq!(t.set_entry(5, 200, 2), Some(100));
        assert_eq!(t.get(5), Some(200));
        assert_eq!(t.get_entry(5), Some((200, 2)));
        assert_eq!(t.get(6), None);
        assert_eq!(t.len_pages(), 6);
    }

    #[test]
    fn sparse_indices_do_not_collide() {
        let mut t = RadixTree::new();
        // Same low bits, different levels.
        t.set_entry(1, 10, 1);
        t.set_entry(1 + FANOUT as u64, 11, 1);
        t.set_entry(1 + (FANOUT * FANOUT) as u64, 12, 1);
        assert_eq!(t.get(1), Some(10));
        assert_eq!(t.get(1 + FANOUT as u64), Some(11));
        assert_eq!(t.get(1 + (FANOUT * FANOUT) as u64), Some(12));
    }

    #[test]
    fn commit_then_reload_round_trips() {
        let mut t = RadixTree::new();
        for p in [0u64, 7, 511, 512, 513, 300_000] {
            t.set_entry(p, 1000 + p, p as u32);
        }
        let mut next = 10u64;
        let mut writes = Vec::new();
        let root = t.commit(
            &mut || {
                next += 1;
                next
            },
            &mut writes,
        );
        assert_ne!(root, 0);
        assert_eq!(t.dirty_nodes(), 0);

        let blocks: HashMap<u64, Box<[u8]>> = writes.into_iter().collect();
        let mut loaded =
            RadixTree::from_committed_digest(root, t.committed_root_digest(), t.len_pages());
        loaded
            .hydrate_all(&mut |b, out| {
                out.copy_from_slice(&blocks[&b]);
                Ok(())
            })
            .unwrap();
        assert_eq!(loaded.unloaded_nodes(), 0);
        assert_eq!(loaded.len_pages(), t.len_pages());
        assert_eq!(
            loaded.entries_from(0, usize::MAX, &mut no_read),
            t.entries_from(0, usize::MAX, &mut no_read)
        );
    }

    #[test]
    fn commit_is_incremental() {
        let mut t = RadixTree::new();
        t.set_entry(0, 100, 1);
        t.set_entry(513, 101, 1); // different L1 subtree than page 0
        let mut next = 10u64;
        let mut alloc = move || {
            next += 1;
            next
        };
        let mut writes = Vec::new();
        t.commit(&mut alloc, &mut writes);
        let first_commit_nodes = writes.len();
        assert!(first_commit_nodes >= 3); // root + 2 subtree paths

        // Touch one page: only its path (3 nodes) should be rewritten.
        t.set_entry(0, 200, 2);
        let mut writes = Vec::new();
        t.commit(&mut alloc, &mut writes);
        assert_eq!(writes.len(), LEVELS);
    }

    #[test]
    fn cow_never_reuses_committed_blocks() {
        let mut t = RadixTree::new();
        t.set_entry(0, 100, 1);
        let mut next = 10u64;
        let mut alloc = move || {
            next += 1;
            next
        };
        let mut w1 = Vec::new();
        let root1 = t.commit(&mut alloc, &mut w1);
        t.set_entry(0, 200, 2);
        let mut w2 = Vec::new();
        let root2 = t.commit(&mut alloc, &mut w2);
        assert_ne!(root1, root2);
        let b1: Vec<u64> = w1.iter().map(|(b, _)| *b).collect();
        let b2: Vec<u64> = w2.iter().map(|(b, _)| *b).collect();
        assert!(b1.iter().all(|b| !b2.contains(b)), "COW must not overwrite");
        // The superseded path is reported for recycling.
        let freed = t.take_freed();
        assert_eq!(freed.len(), LEVELS);
        assert!(freed.iter().all(|b| b1.contains(b)));
    }

    #[test]
    fn dirty_nodes_counts_paths() {
        let mut t = RadixTree::new();
        t.set_entry(0, 100, 1);
        assert_eq!(t.dirty_nodes(), LEVELS);
    }

    /// A committed resident tree mapping each page to its block, with the
    /// block number standing in for the content digest.
    fn committed(pages: &[(u64, u64)], next: &mut u64) -> RadixTree {
        committed_on_disk(pages, next).0
    }

    /// Commits `pages` and returns the committed resident tree, a *lazy*
    /// tree over the same root, and the emitted block images.
    fn committed_on_disk(
        pages: &[(u64, u64)],
        next: &mut u64,
    ) -> (RadixTree, RadixTree, HashMap<u64, Box<[u8]>>) {
        let mut t = RadixTree::new();
        for (p, b) in pages {
            t.set_entry(*p, *b, *b as u32);
        }
        let mut writes = Vec::new();
        let root = t.commit(
            &mut || {
                *next += 1;
                *next
            },
            &mut writes,
        );
        let lazy = RadixTree::from_committed_digest(root, t.committed_root_digest(), t.len_pages());
        (t, lazy, writes.into_iter().collect())
    }

    #[test]
    fn disk_blocks_lists_nodes_and_data_and_tolerates_dirty_nodes() {
        let mut next = 1_000u64;
        let mut t = committed(&[(0, 100), (513, 101)], &mut next);
        let blocks = t.disk_blocks();
        assert_eq!(blocks[0], t.committed_root(), "parents before children");
        assert!(blocks.contains(&100) && blocks.contains(&101));
        // root + shared L1 node + two leaf nodes + 2 data blocks
        assert_eq!(blocks.len(), 4 + 2);
        assert!(RadixTree::new().disk_blocks().is_empty());
        assert_eq!(RadixTree::new().committed_root(), 0);
        // Dirtying page 0's path leaves page 513's leaf and both data blocks.
        t.set_entry(0, 200, 200);
        let mut dirty = t.disk_blocks();
        dirty.sort_unstable();
        assert_eq!(dirty.len(), 3);
        assert_eq!(&dirty[..2], &[101, 200]);
    }

    #[test]
    fn diff_skips_shared_subtrees_and_finds_changes() {
        let mut next = 1_000u64;
        let mut base = committed(&[(0, 100), (513, 101), (300_000, 102)], &mut next);
        // Target: shares base's committed subtrees for untouched pages.
        let mut target = base.clone();
        target.set_entry(513, 200, 200); // overwrite
        target.set_entry(7, 201, 201); // new page in page 0's subtree
        let mut writes = Vec::new();
        target.commit(
            &mut || {
                next += 1;
                next
            },
            &mut writes,
        );
        assert_eq!(diff(&mut base, &mut target), vec![(7, 201), (513, 200)]);
        assert_eq!(diff(&mut target.clone(), &mut target), vec![]);
        // Diff against an empty base, or none, is the full image.
        let full = page_blocks(&mut base, &mut no_read);
        assert_eq!(diff(&mut RadixTree::new(), &mut base), full);
        assert_eq!(
            RadixTree::diff_pages_with(None, &mut base, &mut no_read).unwrap(),
            full
        );
    }

    #[test]
    fn diff_treats_dirty_nodes_conservatively() {
        let mut next = 1_000u64;
        let mut base = committed(&[(0, 100)], &mut next);
        let mut target = base.clone();
        target.set_entry(0, 100, 100); // same mapping, but the path is now dirty
        assert_eq!(diff(&mut base, &mut target), vec![]);
        target.set_entry(1, 300, 300);
        assert_eq!(diff(&mut base, &mut target), vec![(1, 300)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn page_out_of_range_panics() {
        let mut t = RadixTree::new();
        t.set_entry(MAX_PAGES, 1, 1);
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn block_zero_rejected() {
        let mut t = RadixTree::new();
        t.set_entry(0, 0, 1);
    }

    // ---- Arc sharing & lazy hydration ------------------------------------

    #[test]
    fn clone_shares_structure_until_mutated() {
        let mut next = 1_000u64;
        let mut a = committed(&[(0, 100), (513, 101)], &mut next);
        let b = a.clone();
        // Mutating `a` must not leak into `b`.
        a.set_entry(0, 200, 200);
        assert_eq!(a.get(0), Some(200));
        assert_eq!(b.get(0), Some(100));
        assert_eq!(b.dirty_nodes(), 0, "clone must stay clean");
        // Untouched subtree still shared: diff sees only the change.
        assert_eq!(b.get(513), Some(101));
    }

    #[test]
    fn abort_snapshot_of_dirty_tree_survives_commit() {
        // The store clones a *dirty* tree as its abort snapshot, commits
        // the original, and restores the clone on failure. The clone must
        // keep its dirty nodes (and freed list) across the commit.
        let mut next = 1_000u64;
        let mut t = committed(&[(0, 100)], &mut next);
        t.set_entry(0, 200, 200);
        let snapshot = t.clone();
        let mut writes = Vec::new();
        t.commit(
            &mut || {
                next += 1;
                next
            },
            &mut writes,
        );
        assert_eq!(t.dirty_nodes(), 0);
        assert_eq!(snapshot.dirty_nodes(), LEVELS, "snapshot must stay dirty");
        assert_eq!(snapshot.get(0), Some(200));
    }

    #[test]
    fn lazy_tree_hydrates_only_the_touched_path() {
        let mut next = 1_000u64;
        let (_, mut lazy, blocks) =
            committed_on_disk(&[(0, 100), (513, 101), (300_000, 102)], &mut next);
        assert_eq!(lazy.unloaded_nodes(), 1, "only the root slot pre-hydration");
        let mut reads = Vec::new();
        let got = lazy
            .get_entry_or_load(0, &mut |b, out| {
                reads.push(b);
                out.copy_from_slice(&blocks[&b]);
                Ok(())
            })
            .unwrap();
        assert_eq!(got, Some((100, 100)));
        assert_eq!(reads.len(), LEVELS, "one read per level on the path");
        assert!(lazy.unloaded_nodes() > 0, "other subtrees stay unloaded");
        // A second read of the same page costs nothing.
        let got = lazy
            .get_entry_or_load(0, &mut |_b, _out| panic!("path already resident"))
            .unwrap();
        assert_eq!(got, Some((100, 100)));
    }

    #[test]
    fn lazy_set_entry_hydrates_then_dirties() {
        let mut next = 1_000u64;
        let (_, mut lazy, blocks) = committed_on_disk(&[(0, 100), (513, 101)], &mut next);
        lazy.hydrate_path(0, &mut |b, out| {
            out.copy_from_slice(&blocks[&b]);
            Ok(())
        })
        .unwrap();
        assert_eq!(lazy.set_entry(0, 999, 999), Some(100));
        assert_eq!(lazy.dirty_nodes(), LEVELS);
        assert_eq!(lazy.take_freed().len(), LEVELS, "superseded path recycled");
    }

    #[test]
    fn failed_hydration_leaves_tree_retryable() {
        let mut next = 1_000u64;
        let (_, mut lazy, blocks) = committed_on_disk(&[(0, 100)], &mut next);
        let err = lazy.get_entry_or_load(0, &mut |b, _out| {
            Err(IoError::Failed {
                block: b,
                transient: true,
            })
        });
        assert!(err.is_err());
        assert_eq!(lazy.dirty_nodes(), 0, "failure must not dirty anything");
        // Retry with a working device succeeds from the same state.
        let got = lazy
            .get_entry_or_load(0, &mut |b, out| {
                out.copy_from_slice(&blocks[&b]);
                Ok(())
            })
            .unwrap();
        assert_eq!(got, Some((100, 100)));
    }

    #[test]
    fn commit_preserves_unloaded_subtrees_without_reading() {
        let mut next = 1_000u64;
        let (_, mut lazy, blocks) = committed_on_disk(&[(0, 100), (513, 101)], &mut next);
        let old_root = lazy.committed_root();
        let mut read = |b: u64, out: &mut [u8; BLOCK_SIZE]| {
            out.copy_from_slice(&blocks[&b]);
            Ok(())
        };
        // Dirty one path; the sibling subtree stays unloaded.
        lazy.hydrate_path(0, &mut read).unwrap();
        lazy.set_entry(0, 999, 999);
        let mut writes = Vec::new();
        let new_root = lazy.commit(
            &mut || {
                next += 1;
                next
            },
            &mut writes,
        );
        assert_ne!(new_root, old_root);
        assert_eq!(writes.len(), LEVELS, "only the dirtied path is rewritten");
        assert!(lazy.unloaded_nodes() > 0, "sibling subtree never hydrated");
        // The recommitted tree still resolves the untouched page.
        let got = lazy.get_entry_or_load(513, &mut read).unwrap();
        assert_eq!(got, Some((101, 101)));
    }

    #[test]
    fn diff_pages_with_skips_shared_subtrees_without_hydration() {
        let mut next = 1_000u64;
        let mut t = RadixTree::new();
        for (p, b) in [(0u64, 100u64), (513, 101), (300_000, 102)] {
            t.set_entry(p, b, b as u32);
        }
        let mut blocks: HashMap<u64, Box<[u8]>> = HashMap::new();
        let mut writes = Vec::new();
        let root1 = t.commit(
            &mut || {
                next += 1;
                next
            },
            &mut writes,
        );
        let digest1 = t.committed_root_digest();
        blocks.extend(writes);
        // Advance the tree by one page and commit again.
        t.set_entry(513, 200, 200);
        let mut writes = Vec::new();
        let root2 = t.commit(
            &mut || {
                next += 1;
                next
            },
            &mut writes,
        );
        let digest2 = t.committed_root_digest();
        blocks.extend(writes);

        let mut base = RadixTree::from_committed_digest(root1, digest1, t.len_pages());
        let mut target = RadixTree::from_committed_digest(root2, digest2, t.len_pages());
        let mut reads = Vec::new();
        let diff = RadixTree::diff_pages_with(Some(&mut base), &mut target, &mut |b, out| {
            reads.push(b);
            out.copy_from_slice(&blocks[&b]);
            Ok(())
        })
        .unwrap();
        assert_eq!(diff, vec![(513, 200)]);
        // Both roots differ (hydrated on both sides) and the divergent L1
        // path differs; the page-0 and page-300000 subtrees are shared and
        // must not be read. 2 roots + 2 L1 + 2 leaf nodes = 6 reads max.
        assert!(
            reads.len() <= 2 * LEVELS,
            "shared subtrees must not hydrate (read {} blocks)",
            reads.len()
        );
        // Equal lazy trees diff with zero reads: the root refs match.
        let mut x = RadixTree::from_committed_digest(root2, digest2, t.len_pages());
        let mut y = RadixTree::from_committed_digest(root2, digest2, t.len_pages());
        let diff = RadixTree::diff_pages_with(Some(&mut x), &mut y, &mut |_b, _out| {
            panic!("identical trees must not hydrate")
        })
        .unwrap();
        assert!(diff.is_empty());
    }

    #[test]
    fn commit_round_trips_entry_digests() {
        let mut t = RadixTree::new();
        t.set_entry(0, 100, 0xAAAA);
        t.set_entry(513, 101, 0xBBBB);
        let mut next = 1_000u64;
        let mut writes = Vec::new();
        let root = t.commit(
            &mut || {
                next += 1;
                next
            },
            &mut writes,
        );
        let root_digest = t.committed_root_digest();
        assert_ne!(root_digest, DIGEST_NONE);
        let blocks: HashMap<u64, Box<[u8]>> = writes.into_iter().collect();
        let mut lazy = RadixTree::from_committed_digest(root, root_digest, t.len_pages());
        let mut read = |b: u64, out: &mut [u8; BLOCK_SIZE]| {
            out.copy_from_slice(&blocks[&b]);
            Ok(())
        };
        assert_eq!(
            lazy.get_entry_or_load(0, &mut read).unwrap(),
            Some((100, 0xAAAA))
        );
        assert_eq!(
            lazy.get_entry_or_load(513, &mut read).unwrap(),
            Some((101, 0xBBBB))
        );
        assert_eq!(lazy.committed_root_digest(), root_digest);
    }

    #[test]
    fn hydration_detects_a_rotted_node_image() {
        let mut t = RadixTree::new();
        t.set_entry(0, 100, 0x1234);
        let mut next = 1_000u64;
        let mut writes = Vec::new();
        let root = t.commit(
            &mut || {
                next += 1;
                next
            },
            &mut writes,
        );
        let mut blocks: HashMap<u64, Box<[u8]>> = writes.into_iter().collect();
        // Rot one bit in a non-root node (the root's child at level 1).
        let l1 = match &t.root {
            Child::Node(n) => match &n.children[0] {
                Child::Node(c) => c.disk_block.unwrap(),
                _ => unreachable!(),
            },
            _ => unreachable!(),
        };
        blocks.get_mut(&l1).unwrap()[3] ^= 0x40;

        let mut lazy =
            RadixTree::from_committed_digest(root, t.committed_root_digest(), t.len_pages());
        let err = lazy
            .get_entry_or_load(0, &mut |b, out| {
                out.copy_from_slice(&blocks[&b]);
                Ok(())
            })
            .unwrap_err();
        assert_eq!(err, TreeError::CorruptNode { block: l1 });
        // The slot stays unloaded: fixing the media makes the read succeed.
        blocks.get_mut(&l1).unwrap()[3] ^= 0x40;
        let got = lazy
            .get_entry_or_load(0, &mut |b, out| {
                out.copy_from_slice(&blocks[&b]);
                Ok(())
            })
            .unwrap();
        assert_eq!(got, Some((100, 0x1234)));
    }

    #[test]
    fn a_root_opened_without_its_digest_fails_verification() {
        // No hydration is exempt, the root's included: a root opened with
        // DIGEST_NONE matches no image, because no image digests to it.
        let mut t = RadixTree::new();
        t.set_entry(0, 100, 0x1234);
        let mut next = 1_000u64;
        let mut writes = Vec::new();
        let root = t.commit(
            &mut || {
                next += 1;
                next
            },
            &mut writes,
        );
        let blocks: HashMap<u64, Box<[u8]>> = writes.into_iter().collect();
        let mut lazy = RadixTree::from_committed_digest(root, DIGEST_NONE, t.len_pages());
        let got = lazy.get_entry_or_load(0, &mut |b, out| {
            out.copy_from_slice(&blocks[&b]);
            Ok(())
        });
        assert_eq!(got, Err(TreeError::CorruptNode { block: root }));
        assert_eq!(lazy.unloaded_nodes(), 1, "the root stays unloaded");
    }

    #[test]
    fn entries_from_resumes_at_the_cursor_without_extra_hydration() {
        let mut next = 1_000u64;
        let (_, mut lazy, blocks) =
            committed_on_disk(&[(0, 100), (513, 101), (300_000, 102)], &mut next);
        let mut reads = Vec::new();
        let got = lazy
            .entries_from(1, 10, &mut |b, out| {
                reads.push(b);
                out.copy_from_slice(&blocks[&b]);
                Ok(())
            })
            .unwrap();
        assert_eq!(
            got.iter().map(|(p, b, _)| (*p, *b)).collect::<Vec<_>>(),
            vec![(513, 101), (300_000, 102)],
            "page 0 is behind the cursor"
        );
        // Limit cuts the enumeration short.
        let got = lazy
            .entries_from(0, 1, &mut |_b, _out| panic!("tree is resident now"))
            .unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, 0);
    }

    #[test]
    fn dirty_committed_node_heals_a_path() {
        let mut next = 1_000u64;
        let mut t = committed(&[(0, 100), (513, 101)], &mut next);
        let nodes = t.committed_nodes();
        assert_eq!(nodes.len(), 4, "root + shared L1 node + two leaf nodes");
        // Pick a leaf-level node (last in parents-before-children order).
        let (victim, _) = *nodes.last().unwrap();
        assert!(t.dirty_committed_node(victim));
        assert!(t.dirty_nodes() >= 2, "victim and its ancestors are dirty");
        let freed = t.take_freed();
        assert!(
            !freed.contains(&victim),
            "the rotted block is not recycled (quarantine, not reuse)"
        );
        // Recommit rewrites the path; the tree still resolves both pages.
        let mut writes = Vec::new();
        t.commit(
            &mut || {
                next += 1;
                next
            },
            &mut writes,
        );
        assert!(!writes.is_empty());
        assert!(writes.iter().all(|(b, _)| *b != victim));
        assert_eq!(t.get(0), Some(100));
        assert_eq!(t.get(513), Some(101));
        assert!(!t.dirty_committed_node(9999), "unknown block is a no-op");
    }

    #[test]
    fn deep_clone_matches_clone_semantics() {
        let mut next = 1_000u64;
        let mut a = committed(&[(0, 100), (513, 101)], &mut next);
        let mut b = a.clone();
        let mut c = a.deep_clone();
        a.set_entry(0, 1, 1);
        b.set_entry(0, 2, 2);
        c.set_entry(0, 3, 3);
        assert_eq!(a.get(0), Some(1));
        assert_eq!(b.get(0), Some(2));
        assert_eq!(c.get(0), Some(3));
        assert_eq!(b.get(513), Some(101));
        assert_eq!(c.get(513), Some(101));
    }
}
