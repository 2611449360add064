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
//! against that digest. Every hydration reads through one vectored
//! [`BlocksRead`]. The tree has one surface, lazy and fallible:
//!
//! - open: [`RadixTree::new`], or [`RadixTree::from_committed_digest`]
//!   (O(1), nothing read);
//! - read: [`RadixTree::get_entry_or_load`], [`RadixTree::entries_from`]
//!   (page order), or [`RadixTree::hydrate_paths`] (many pages' paths, a
//!   level per read) then [`RadixTree::get`];
//! - write: [`RadixTree::hydrate_paths`], [`RadixTree::set_entry`], then
//!   [`RadixTree::commit`] (or [`RadixTree::commit_leaves`], which writes
//!   some dirty leaves and leaves the rest at their last image);
//! - compare: [`RadixTree::diff_pages_with`], which skips shared subtrees
//!   by block number *without* hydrating either side;
//! - blocks: [`RadixTree::disk_blocks`], which fills the nodes it meets
//!   unloaded, a node a read.
//!
//! Every walk reads resident nodes by shared reference and fills an
//! unloaded one through the one fill step, which copies only the
//! ancestors of the slot it fills: a node a walk only reads stays shared
//! with every clone that holds it.

use std::collections::HashMap;
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

/// Fallible vectored read of whole blocks, `(block, buffer)` pairs, the
/// shape of [`msnap_disk::Disk::try_readv`]: the one reader every
/// hydration reads nodes with, a walk's single node as a one-entry read.
/// The store wires it to the device and its block cache.
pub type BlocksRead<'a> = &'a mut dyn FnMut(&mut [(u64, &mut [u8])]) -> Result<(), IoError>;

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
    /// While the node is dirty: the image the last commit left for it, as
    /// `(block, digest)`, or `None` if no commit wrote a node here. A
    /// parent written by [`RadixTree::commit_leaves`] over a dirty child
    /// it leaves out refers to this, and the commit that writes the node
    /// supersedes it.
    base: Option<(u64, u32)>,
}

impl Node {
    fn new() -> Node {
        Node {
            children: vec![Child::Empty; FANOUT],
            disk_block: None,
            disk_digest: DIGEST_NONE,
            base: None,
        }
    }

    /// Marks the node modified: its committed image, if it is clean,
    /// becomes its base.
    fn dirty(&mut self) {
        if let Some(block) = self.disk_block.take() {
            self.base = Some((block, self.disk_digest));
            self.disk_digest = DIGEST_NONE;
        }
    }

    /// The image a committed parent refers to: the node's own if it is
    /// clean, else its base.
    fn on_disk(&self) -> Option<(u64, u32)> {
        self.disk_block.map(|b| (b, self.disk_digest)).or(self.base)
    }

    /// Parses a node image read from `block` once it matches `digest`,
    /// the digest its parent or record carries: every image read back,
    /// the root's included, is verified, and a mismatch is
    /// [`TreeError::CorruptNode`]. Children at interior levels come back
    /// [`Child::Unloaded`]; nothing below is read.
    fn parse(
        block: u64,
        digest: u32,
        buf: &[u8; BLOCK_SIZE],
        level: usize,
    ) -> Result<Node, TreeError> {
        if digest32(buf) != digest {
            return Err(TreeError::CorruptNode { block });
        }
        let mut node = Node::new();
        node.disk_block = Some(block);
        node.disk_digest = digest;
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
        Ok(node)
    }

    fn serialize(&self) -> [u8; BLOCK_SIZE] {
        let mut block = [0u8; BLOCK_SIZE];
        for (i, child) in self.children.iter().enumerate() {
            let v = match child {
                Child::Empty => 0,
                Child::Data { block, digest } => pack_entry(*block, *digest),
                Child::Unloaded { block, digest } => pack_entry(*block, *digest),
                Child::Node(n) => n.on_disk().map_or(0, |(b, d)| pack_entry(b, d)),
            };
            block[i * 8..i * 8 + 8].copy_from_slice(&v.to_le_bytes());
        }
        block
    }
}

/// Visits `slot`, whose first page and level are `at`, and the resident
/// subtree under it in pre-order, which is `(first page, level)` order,
/// leaving out each subtree whose pages all lie before page `from`. Stops
/// at the first slot `visit` returns `true` for and returns its place.
fn preorder(
    slot: &Child,
    at: (u64, usize),
    from: u64,
    visit: &mut dyn FnMut(&Child, (u64, usize)) -> bool,
) -> Option<(u64, usize)> {
    if visit(slot, at) {
        return Some(at);
    }
    let Child::Node(node) = slot else {
        return None;
    };
    let (prefix, level) = at;
    let shift = SHIFT[level];
    (first_child(prefix, level, from)..FANOUT).find_map(|i| {
        let page = prefix | ((i as u64) << shift);
        preorder(&node.children[i], (page, level + 1), from, visit)
    })
}

/// The first child of the node at `(prefix, level)` whose pages reach
/// page `from`: a walk resuming at `from` starts there, without scanning
/// the slots behind it.
fn first_child(prefix: u64, level: usize, from: u64) -> usize {
    usize::try_from(from.saturating_sub(prefix) >> SHIFT[level]).unwrap_or(FANOUT)
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

    /// Hydrates the root-to-leaf paths of `pages` without dirtying them,
    /// a level at a time through the tree's one fill step: the unloaded
    /// nodes the paths cross at one level are read in one `read`.
    /// Afterwards [`RadixTree::get`] and [`RadixTree::set_entry`] on those
    /// pages cannot cross an unloaded node. A node whose image fails its digest
    /// stays unloaded; every path not under one is still hydrated, and
    /// then the first rotted node (shallowest level, lowest block) is
    /// [`TreeError::CorruptNode`]. On any error the hydrations done stay
    /// (they are semantically neutral) and a retry is safe.
    pub fn hydrate_paths(&mut self, pages: &[u64], read: BlocksRead) -> Result<(), TreeError> {
        let mut rotted = None;
        for level in 0..LEVELS {
            match self.fill(pages, level, read) {
                Err(e @ TreeError::CorruptNode { .. }) => {
                    rotted.get_or_insert(e);
                }
                filled => filled?,
            }
        }
        rotted.map_or(Ok(()), Err)
    }

    /// The tree's one fill step: reads the unloaded slots that `pages`
    /// reach at `level` in one `read`, verifies each image against the
    /// digest its parent recorded, and installs it. Only the ancestors of
    /// a slot it fills are copied (`Arc::make_mut`), so every node it
    /// passes stays shared with clones. A node whose image fails its
    /// digest stays unloaded: the others are installed, and then the
    /// rotted one with the lowest block is [`TreeError::CorruptNode`].
    fn fill(&mut self, pages: &[u64], level: usize, read: BlocksRead) -> Result<(), TreeError> {
        let mut wanted: Vec<(u64, u32)> = pages
            .iter()
            .filter_map(|&page| match self.slot_at(page, level) {
                Some(Child::Unloaded { block, digest }) => Some((*block, *digest)),
                _ => None,
            })
            .collect();
        wanted.sort_unstable();
        wanted.dedup();
        if wanted.is_empty() {
            return Ok(());
        }
        let mut images = vec![[0u8; BLOCK_SIZE]; wanted.len()];
        let mut iov: Vec<(u64, &mut [u8])> = wanted
            .iter()
            .zip(images.iter_mut())
            .map(|((block, _), image)| (*block, &mut image[..]))
            .collect();
        read(&mut iov)?;
        let mut rotted = None;
        let mut nodes = HashMap::new();
        for (&(block, digest), image) in wanted.iter().zip(&images) {
            match Node::parse(block, digest, image, level) {
                Ok(node) => {
                    nodes.insert(block, Arc::new(node));
                }
                Err(e) => {
                    rotted.get_or_insert(e);
                }
            }
        }
        for &page in pages {
            let Some(Child::Unloaded { block, .. }) = self.slot_at(page, level) else {
                continue;
            };
            let Some(node) = nodes.get(block) else {
                continue; // its image is rotted
            };
            let node = Child::Node(Arc::clone(node));
            *self
                .slot_at_mut(page, level)
                .expect("its parent is resident") = node;
        }
        rotted.map_or(Ok(()), Err)
    }

    /// The slot `level` steps below the root on `page`'s path, if every
    /// node above it is resident.
    fn slot_at(&self, page: u64, level: usize) -> Option<&Child> {
        assert!(page < MAX_PAGES, "page index out of range");
        let mut slot = &self.root;
        for &shift in &SHIFT[..level] {
            let Child::Node(node) = slot else {
                return None;
            };
            slot = &node.children[((page >> shift) as usize) & (FANOUT - 1)];
        }
        Some(slot)
    }

    /// [`RadixTree::slot_at`], mutably.
    fn slot_at_mut(&mut self, page: u64, level: usize) -> Option<&mut Child> {
        let mut slot = &mut self.root;
        for &shift in &SHIFT[..level] {
            let Child::Node(node) = slot else {
                return None;
            };
            slot = &mut Arc::make_mut(node).children[((page >> shift) as usize) & (FANOUT - 1)];
        }
        Some(slot)
    }

    /// The `(data block, content digest)` entry for `page`, hydrating the
    /// path on demand.
    pub fn get_entry_or_load(
        &mut self,
        page: u64,
        read: BlocksRead,
    ) -> Result<Option<(u64, u32)>, TreeError> {
        self.hydrate_paths(&[page], read)?;
        Ok(self.get_entry(page))
    }

    /// The data block holding `page`, if the page has been written.
    ///
    /// # Panics
    ///
    /// Panics if the lookup crosses an unloaded subtree — hydrate the
    /// path first ([`RadixTree::hydrate_paths`]).
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

    /// The `(data block, content digest)` entry for `page` if its path is
    /// resident: `None` if the page is unwritten or the path crosses an
    /// unloaded node.
    pub fn resident_entry(&self, page: u64) -> Option<(u64, u32)> {
        match self.slot_at(page, LEVELS)? {
            Child::Data { block, digest } => Some((*block, *digest)),
            _ => None,
        }
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
    /// crosses an unloaded subtree ([`RadixTree::hydrate_paths`] first).
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
                    panic!("set_entry crossed an unloaded subtree; hydrate_paths first")
                }
                _ => unreachable!("interior slots always hold nodes here"),
            };
            node.dirty();
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
        self.commit_leaves(&|_| true, alloc, writes).0
    }

    /// [`RadixTree::commit`] of the dirty leaves `flush` selects, by leaf
    /// index (`page / FANOUT`), and of the interior nodes above them. The
    /// images emitted form a tree in which every dirty leaf left out is
    /// still its base: those leaves stay dirty, and so does every
    /// interior node above one, whose new image becomes its base. Returns
    /// that tree's root block and digest (`(0, DIGEST_NONE)` when it is
    /// empty). The images a commit writes over — the bases of the nodes it
    /// writes — are reported by [`RadixTree::take_freed`].
    pub fn commit_leaves(
        &mut self,
        flush: &dyn Fn(u64) -> bool,
        alloc: &mut dyn FnMut() -> u64,
        writes: &mut Vec<(u64, Box<[u8]>)>,
    ) -> (u64, u32) {
        /// Commits what `flush` selects under `slot`, whose first page is
        /// `prefix`; returns whether the slot's on-disk image changed.
        fn commit_slot(
            slot: &mut Child,
            (level, prefix): (usize, u64),
            flush: &dyn Fn(u64) -> bool,
            alloc: &mut dyn FnMut() -> u64,
            writes: &mut Vec<(u64, Box<[u8]>)>,
            freed: &mut Vec<u64>,
        ) -> bool {
            let Child::Node(arc) = slot else {
                return false; // empty, a data block, or clean on disk
            };
            if arc.disk_block.is_some() || (level == LEVELS - 1 && !flush(prefix / FANOUT as u64)) {
                return false; // clean, or a leaf left out
            }
            let node = Arc::make_mut(arc);
            let (mut changed, mut dirty_left) = (false, false);
            if level < LEVELS - 1 {
                for (i, child) in node.children.iter_mut().enumerate() {
                    let at = (level + 1, prefix | ((i as u64) << SHIFT[level]));
                    // Children first: their fresh (block, digest) pairs
                    // must be final before this node's image — the Merkle
                    // chain is built bottom-up.
                    changed |= commit_slot(child, at, flush, alloc, writes, freed);
                    dirty_left |= matches!(child, Child::Node(n) if n.disk_block.is_none());
                }
                if dirty_left && !changed {
                    return false; // its base still holds every child's image
                }
            }
            let block = alloc();
            let image = node.serialize();
            let digest = digest32(&image);
            writes.push((block, Box::new(image)));
            freed.extend(node.base.take().map(|(b, _)| b));
            if dirty_left {
                node.base = Some((block, digest));
            } else {
                node.disk_block = Some(block);
                node.disk_digest = digest;
            }
            true
        }

        commit_slot(
            &mut self.root,
            (0, 0),
            flush,
            alloc,
            writes,
            &mut self.freed,
        );
        match &self.root {
            Child::Node(n) => n.on_disk().unwrap_or((0, DIGEST_NONE)),
            Child::Unloaded { block, digest } => (*block, *digest),
            Child::Empty => (0, DIGEST_NONE),
            Child::Data { .. } => unreachable!("the root is never a data block"),
        }
    }

    /// Drains the list of committed node images superseded by the commits
    /// since the last drain.
    pub fn take_freed(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.freed)
    }

    /// Number of unloaded (non-resident) subtree roots — a hydration-state
    /// probe for tests and benches.
    pub fn unloaded_nodes(&self) -> usize {
        let mut n = 0;
        preorder(&self.root, (0, 0), 0, &mut |slot, _| {
            n += usize::from(matches!(slot, Child::Unloaded { .. }));
            false
        });
        n
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
    /// rebase path quarantines for recycling. A dirty node lists its base,
    /// the image the last commit left for it, if there is one. The walk
    /// reads resident nodes in place and fills each unloaded node it meets
    /// through the one fill step, a node a read, in pre-order.
    pub fn disk_blocks(&mut self, read: BlocksRead) -> Result<Vec<u64>, TreeError> {
        let mut out = Vec::new();
        let mut from = (0, 0);
        while let Some(at) = preorder(&self.root, (0, 0), from.0, &mut |slot, at| {
            match slot {
                _ if at < from => {} // an ancestor of the last node filled
                Child::Data { block, .. } => out.push(*block),
                Child::Node(n) => out.extend(n.on_disk().map(|(b, _)| b)),
                Child::Unloaded { .. } => return true,
                Child::Empty => {}
            }
            false
        }) {
            self.fill(&[at.0], at.1, read)?;
            from = at;
        }
        Ok(out)
    }

    /// Pages whose mapping differs between `base` and `target`, as
    /// `(page, target data block)` pairs in page order; with no `base`,
    /// every page of `target`. Subtrees whose committed block numbers
    /// match on both sides are skipped without descent — zero hydration
    /// reads for shared state. The COW invariant makes equal block numbers
    /// imply equal content, *provided* neither tree's blocks can have been
    /// recycled in between (true for retained snapshots, whose blocks are
    /// pinned). Only *divergent* subtrees are hydrated: at each divergent
    /// pair the target's node, then the base's, each through the one fill
    /// step; nodes the walk only reads stay shared with clones. A dirty
    /// node compares unequal to everything, which is conservative but
    /// never wrong. Pages present only in `base` are not reported (the
    /// store never deletes pages).
    pub fn diff_pages_with(
        mut base: Option<&mut RadixTree>,
        target: &mut RadixTree,
        read: BlocksRead,
    ) -> Result<Vec<(u64, u64)>, TreeError> {
        /// Appends the differing pages of `b`'s subtree from page `from`
        /// on, or stops at the first divergent pair with an unloaded side
        /// and returns its place and whether that side is the base.
        fn walk(
            a: Option<&Child>,
            b: &Child,
            (prefix, level): (u64, usize),
            from: u64,
            out: &mut Vec<(u64, u64)>,
        ) -> Option<(u64, usize, bool)> {
            if a.and_then(Child::committed_ref)
                .is_some_and(|r| Some(r) == b.committed_ref())
            {
                return None; // shared committed subtree: no hydration
            }
            let bn = match b {
                Child::Node(n) => n,
                Child::Unloaded { .. } => return Some((prefix, level, false)),
                _ => return None,
            };
            let an = match a {
                Some(Child::Node(n)) => Some(n),
                Some(Child::Unloaded { .. }) => return Some((prefix, level, true)),
                _ => None,
            };
            let shift = SHIFT[level];
            (first_child(prefix, level, from)..FANOUT).find_map(|i| {
                let page = prefix | ((i as u64) << shift);
                let ac = an.map(|n| &n.children[i]);
                match &bn.children[i] {
                    Child::Data { block, .. } => {
                        if !matches!(ac, Some(Child::Data { block: ab, .. }) if ab == block) {
                            out.push((page, *block));
                        }
                        None
                    }
                    child => walk(ac, child, (page, level + 1), from, out),
                }
            })
        }
        let mut out = Vec::new();
        let mut from = 0;
        while let Some((page, level, in_base)) = walk(
            base.as_deref().map(|t| &t.root),
            &target.root,
            (0, 0),
            from,
            &mut out,
        ) {
            let tree = match base.as_deref_mut() {
                Some(b) if in_base => b,
                _ => &mut *target,
            };
            tree.fill(&[page], level, read)?;
            from = page;
        }
        Ok(out)
    }

    /// Up to `limit` leaf entries with page index `>= start`, as
    /// `(page, data block, digest)` triples in page order, hydrating only
    /// the subtrees the range forces it to descend into. This is the
    /// scrub cursor's enumeration primitive: a scrub pass resumes at
    /// `start` and subtrees entirely below the cursor are skipped without
    /// IO. `entries_from(0, usize::MAX, read)` lists every entry. The
    /// walk reads resident nodes in place and fills each unloaded node it
    /// meets through the one fill step, a node a read, so only the path
    /// to a slot it fills is copied: nodes it only reads stay shared with
    /// clones.
    pub fn entries_from(
        &mut self,
        start: u64,
        limit: usize,
        read: BlocksRead,
    ) -> Result<Vec<(u64, u64, u32)>, TreeError> {
        let mut out = Vec::new();
        let mut from = start;
        while let Some((page, level)) =
            preorder(&self.root, (0, 0), from, &mut |slot, (page, _)| {
                match slot {
                    _ if out.len() >= limit => return true,
                    Child::Data { block, digest } => out.push((page, *block, *digest)),
                    Child::Unloaded { .. } => return true,
                    _ => {}
                }
                false
            })
        {
            if out.len() >= limit {
                break;
            }
            // The node's pages may begin behind the cursor.
            from = from.max(page);
            self.fill(&[from], level, read)?;
        }
        Ok(out)
    }

    /// Every *resident* committed node image as `(disk block, image
    /// digest)`, parents before children: each clean node's own and each
    /// dirty node's base, which the newest root's tree still names and
    /// recovery reads. Unloaded subtrees (verified at hydration time
    /// instead) are skipped. This is the scrub's node-media worklist.
    pub fn committed_nodes(&self) -> Vec<(u64, u32)> {
        let mut out = Vec::new();
        preorder(&self.root, (0, 0), 0, &mut |slot, _| {
            if let Child::Node(n) = slot {
                out.extend(n.on_disk());
            }
            false
        });
        out
    }

    /// Heals a resident node whose committed image's *media* copy rotted
    /// (its own, or its base if it is dirty): marks the node and every
    /// ancestor dirty so the next full commit rewrites the path to fresh
    /// blocks from the good in-memory copies. That commit reports every
    /// image on the path as superseded, the rotted one included: the
    /// caller quarantines it, so it is never recycled. Returns `false` if
    /// no resident node's committed image is `block`.
    pub fn dirty_committed_node(&mut self, block: u64) -> bool {
        fn contains(node: &Node, target: u64) -> bool {
            if node.on_disk().is_some_and(|(b, _)| b == target) {
                return true;
            }
            node.children
                .iter()
                .any(|c| matches!(c, Child::Node(n) if contains(n, target)))
        }
        fn dirty_path(slot: &mut Child, target: u64) -> bool {
            let Child::Node(arc) = slot else {
                return false;
            };
            if !contains(arc, target) {
                return false;
            }
            let node = Arc::make_mut(arc);
            if node.on_disk().is_none_or(|(b, _)| b != target) {
                for child in &mut node.children {
                    if dirty_path(child, target) {
                        break;
                    }
                }
            }
            node.dirty();
            true
        }
        dirty_path(&mut self.root, block)
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
                    base: n.base,
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
pub(crate) mod tests {
    use super::*;
    use std::collections::HashMap;

    /// The hydration read of a tree built in memory, which needs none.
    fn no_read(iov: &mut [(u64, &mut [u8])]) -> Result<(), IoError> {
        panic!("a resident tree read block {}", iov[0].0)
    }

    /// Serves a hydration read from the committed images `blocks`.
    fn serve(
        blocks: &HashMap<u64, Box<[u8]>>,
        iov: &mut [(u64, &mut [u8])],
    ) -> Result<(), IoError> {
        for (b, out) in iov.iter_mut() {
            out.copy_from_slice(&blocks[b]);
        }
        Ok(())
    }

    /// Every `(page, data block)` of `t`, in page order.
    fn page_blocks(t: &mut RadixTree, read: BlocksRead) -> Vec<(u64, u64)> {
        let entries = t.entries_from(0, usize::MAX, read).unwrap();
        entries.into_iter().map(|(p, b, _)| (p, b)).collect()
    }

    /// Number of dirty (uncommitted) nodes of `t`. Unloaded subtrees are
    /// clean by construction.
    fn dirty_nodes(t: &RadixTree) -> usize {
        fn count(child: &Child) -> usize {
            match child {
                Child::Node(n) => {
                    let own = usize::from(n.disk_block.is_none());
                    own + n.children.iter().map(count).sum::<usize>()
                }
                _ => 0,
            }
        }
        count(&t.root)
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
        assert_eq!(dirty_nodes(&t), 0);

        let blocks: HashMap<u64, Box<[u8]>> = writes.into_iter().collect();
        let mut loaded =
            RadixTree::from_committed_digest(root, t.committed_root_digest(), t.len_pages());
        let listed = loaded.disk_blocks(&mut |iov| serve(&blocks, iov)).unwrap();
        assert_eq!(listed, t.disk_blocks(&mut no_read).unwrap());
        assert_eq!(loaded.unloaded_nodes(), 0);
        assert_eq!(loaded.len_pages(), t.len_pages());
        assert_eq!(
            loaded.entries_from(0, usize::MAX, &mut no_read),
            t.entries_from(0, usize::MAX, &mut no_read)
        );
    }

    #[test]
    fn hydrate_paths_reads_a_level_per_read_and_stops_under_a_rotted_node() {
        let mut t = RadixTree::new();
        let pages: Vec<u64> = (0..40).map(|i| i * 700 + (i % 3) * 300_000).collect();
        for &p in &pages {
            t.set_entry(p, 1_000_000 + p, p as u32);
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
        let mut blocks: HashMap<u64, Box<[u8]>> = writes.into_iter().collect();
        let nodes = blocks.len();
        // Rot the leaf mapping the last page.
        let Some(Child::Node(leaf)) = t.slot_at(*pages.last().unwrap(), LEVELS - 1) else {
            panic!("a committed tree is resident");
        };
        let rotted = leaf.disk_block.unwrap();
        blocks.get_mut(&rotted).unwrap()[0] ^= 1;
        let mut loaded =
            RadixTree::from_committed_digest(root, t.committed_root_digest(), t.len_pages());
        let mut reads = Vec::new();
        let err = loaded.hydrate_paths(&pages, &mut |iov| {
            reads.push(iov.len());
            serve(&blocks, iov)
        });
        assert_eq!(err, Err(TreeError::CorruptNode { block: rotted }));
        assert_eq!(reads.len(), LEVELS, "one read per level");
        assert_eq!(reads.iter().sum::<usize>(), nodes, "each node once");
        assert_eq!(loaded.unloaded_nodes(), 1, "the rotted leaf");
        let (last, rest) = pages.split_last().unwrap();
        for &p in rest {
            loaded.hydrate_paths(&[p], &mut no_read).unwrap();
            assert_eq!(loaded.get_entry(p), t.get_entry(p));
        }
        let err = loaded.hydrate_paths(&[*last], &mut |iov| serve(&blocks, iov));
        assert_eq!(err, Err(TreeError::CorruptNode { block: rotted }));
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
        assert_eq!(dirty_nodes(&t), LEVELS);
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
        let blocks = t.disk_blocks(&mut no_read).unwrap();
        assert_eq!(blocks[0], t.committed_root(), "parents before children");
        assert!(blocks.contains(&100) && blocks.contains(&101));
        // root + shared L1 node + two leaf nodes + 2 data blocks
        assert_eq!(blocks.len(), 4 + 2);
        assert_eq!(RadixTree::new().disk_blocks(&mut no_read), Ok(vec![]));
        assert_eq!(RadixTree::new().committed_root(), 0);
        // Dirtying page 0's path keeps its three images as the path's
        // bases, page 513's leaf and both data blocks.
        let root = t.committed_root();
        t.set_entry(0, 200, 200);
        let mut dirty = t.disk_blocks(&mut no_read).unwrap();
        dirty.sort_unstable();
        assert_eq!(dirty.len(), 6);
        assert_eq!(&dirty[..2], &[101, 200]);
        assert!(dirty.contains(&root));
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
        assert_eq!(dirty_nodes(&b), 0, "clone must stay clean");
        // Untouched subtree still shared: diff sees only the change.
        assert_eq!(b.get(513), Some(101));
    }

    /// The committed blocks of `a`'s nodes that `b` holds resident at the
    /// same place with the same committed block without sharing them
    /// (`Arc::ptr_eq`), parents first. `a` must be clean: a read dirties
    /// nothing. `b` may have written nodes; those are not listed.
    pub(crate) fn unshared(a: &RadixTree, b: &RadixTree) -> Vec<u64> {
        fn walk(a: &Child, b: &Child, out: &mut Vec<u64>) {
            if let (Child::Node(x), Child::Node(y)) = (a, b) {
                let xb = x.disk_block.expect("a read dirties nothing");
                if y.disk_block == Some(xb) && !Arc::ptr_eq(x, y) {
                    out.push(xb);
                }
                for (ca, cb) in x.children.iter().zip(&y.children) {
                    walk(ca, cb, out);
                }
            }
        }
        let mut out = Vec::new();
        walk(&a.root, &b.root, &mut out);
        out
    }

    #[test]
    fn reads_keep_the_nodes_a_clone_shares() {
        // Pages 0, 513 and 1024 sit in three leaves under one L1 node;
        // page 300 000 under another.
        let mut next = 1_000u64;
        let (_, mut lazy, blocks) = committed_on_disk(
            &[(0, 100), (513, 101), (1024, 102), (300_000, 103)],
            &mut next,
        );
        let resident = [0, 513, 300_000];
        lazy.hydrate_paths(&resident, &mut |iov| serve(&blocks, iov))
            .unwrap();
        let clone = lazy.clone();
        assert_eq!(
            lazy.get_entry_or_load(513, &mut no_read),
            Ok(Some((101, 101)))
        );
        lazy.hydrate_paths(&resident, &mut no_read).unwrap();
        assert_eq!(
            unshared(&lazy, &clone),
            vec![],
            "resident reads copy nothing"
        );
        // Filling page 1024's leaf copies the path above it, nothing else.
        lazy.hydrate_paths(&[0, 1024, 300_000], &mut |iov| serve(&blocks, iov))
            .unwrap();
        let Some(Child::Node(l1)) = lazy.slot_at(1024, 1) else {
            panic!("the path is resident");
        };
        let path = vec![lazy.committed_root(), l1.disk_block.unwrap()];
        assert_eq!(unshared(&lazy, &clone), path);
        assert_eq!(lazy.get(1024), Some(102));
    }

    #[test]
    fn a_walk_keeps_the_nodes_a_clone_shares() {
        // As above; the walk reads resident nodes in place and fills
        // page 1024's leaf, the one node not resident.
        let mut next = 1_000u64;
        let (_, mut lazy, blocks) = committed_on_disk(
            &[(0, 100), (513, 101), (1024, 102), (300_000, 103)],
            &mut next,
        );
        lazy.hydrate_paths(&[0, 513, 300_000], &mut |iov| serve(&blocks, iov))
            .unwrap();
        let clone = lazy.clone();
        let two = lazy.entries_from(0, 2, &mut no_read).unwrap();
        assert_eq!(two.iter().map(|e| e.0).collect::<Vec<_>>(), [0, 513]);
        let tail = lazy.entries_from(2_000, 10, &mut no_read).unwrap();
        assert_eq!(tail, [(300_000, 103, 103)]);
        assert_eq!(
            unshared(&lazy, &clone),
            vec![],
            "resident walks copy nothing"
        );
        let mut reads = 0;
        let all = lazy
            .entries_from(0, usize::MAX, &mut |iov| {
                reads += iov.len();
                serve(&blocks, iov)
            })
            .unwrap();
        assert_eq!(all.len(), 4);
        assert_eq!(reads, 1, "the one unloaded leaf");
        let Some(Child::Node(l1)) = lazy.slot_at(1024, 1) else {
            panic!("the path is resident");
        };
        let path = vec![lazy.committed_root(), l1.disk_block.unwrap()];
        assert_eq!(unshared(&lazy, &clone), path);
    }

    #[test]
    fn listing_and_diffing_keep_the_nodes_a_clone_shares() {
        // As above: listing the blocks fills page 1024's leaf, the one
        // node not resident, and copies only the path above it.
        let mut next = 1_000u64;
        let (_, mut lazy, blocks) = committed_on_disk(
            &[(0, 100), (513, 101), (1024, 102), (300_000, 103)],
            &mut next,
        );
        lazy.hydrate_paths(&[0, 513, 300_000], &mut |iov| serve(&blocks, iov))
            .unwrap();
        let clone = lazy.clone();
        let mut reads = Vec::new();
        let listed = lazy
            .disk_blocks(&mut |iov| {
                reads.extend(iov.iter().map(|(b, _)| *b));
                serve(&blocks, iov)
            })
            .unwrap();
        assert_eq!(
            listed.len(),
            7 + 4,
            "root, two L1 nodes, four leaves, four pages"
        );
        let Some(Child::Node(l1)) = lazy.slot_at(1024, 1) else {
            panic!("the path is resident");
        };
        let Some(Child::Unloaded { block: leaf, .. }) = clone.slot_at(1024, 2) else {
            panic!("the clone still lacks the leaf");
        };
        assert_eq!(reads, [*leaf]);
        let path = vec![lazy.committed_root(), l1.disk_block.unwrap()];
        assert_eq!(unshared(&lazy, &clone), path);
        // On a resident clone, listing and diffing read nodes in place.
        let mut base = lazy.clone();
        assert_eq!(base.disk_blocks(&mut no_read), Ok(listed));
        let mut target = lazy.clone();
        target.set_entry(513, 200, 200);
        target.commit(
            &mut || {
                next += 1;
                next
            },
            &mut Vec::new(),
        );
        let before = target.clone();
        assert_eq!(diff(&mut base, &mut target), [(513, 200)]);
        assert_eq!(unshared(&base, &lazy), vec![], "the base copies nothing");
        assert_eq!(unshared(&target, &before), vec![], "nor does the target");
        assert_eq!(unshared(&target, &lazy), vec![], "nor the pages it kept");
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
        assert_eq!(dirty_nodes(&t), 0);
        assert_eq!(dirty_nodes(&snapshot), LEVELS, "snapshot must stay dirty");
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
            .get_entry_or_load(0, &mut |iov| {
                reads.push(iov[0].0);
                serve(&blocks, iov)
            })
            .unwrap();
        assert_eq!(got, Some((100, 100)));
        assert_eq!(reads.len(), LEVELS, "one read per level on the path");
        assert!(lazy.unloaded_nodes() > 0, "other subtrees stay unloaded");
        // A second read of the same page costs nothing.
        let got = lazy
            .get_entry_or_load(0, &mut |_| panic!("path already resident"))
            .unwrap();
        assert_eq!(got, Some((100, 100)));
    }

    #[test]
    fn lazy_set_entry_hydrates_then_dirties() {
        let mut next = 1_000u64;
        let (_, mut lazy, blocks) = committed_on_disk(&[(0, 100), (513, 101)], &mut next);
        lazy.hydrate_paths(&[0], &mut |iov| serve(&blocks, iov))
            .unwrap();
        assert_eq!(lazy.set_entry(0, 999, 999), Some(100));
        assert_eq!(dirty_nodes(&lazy), LEVELS);
        assert!(
            lazy.take_freed().is_empty(),
            "the images stay until written over"
        );
        lazy.commit(&mut || 2_000, &mut Vec::new());
        assert_eq!(lazy.take_freed().len(), LEVELS, "superseded path recycled");
    }

    #[test]
    fn failed_hydration_leaves_tree_retryable() {
        let mut next = 1_000u64;
        let (_, mut lazy, blocks) = committed_on_disk(&[(0, 100)], &mut next);
        let err = lazy.get_entry_or_load(0, &mut |iov| {
            Err(IoError::Failed {
                block: iov[0].0,
                transient: true,
            })
        });
        assert!(err.is_err());
        assert_eq!(dirty_nodes(&lazy), 0, "failure must not dirty anything");
        // Retry with a working device succeeds from the same state.
        let got = lazy
            .get_entry_or_load(0, &mut |iov| serve(&blocks, iov))
            .unwrap();
        assert_eq!(got, Some((100, 100)));
    }

    #[test]
    fn commit_preserves_unloaded_subtrees_without_reading() {
        let mut next = 1_000u64;
        let (_, mut lazy, blocks) = committed_on_disk(&[(0, 100), (513, 101)], &mut next);
        let old_root = lazy.committed_root();
        let mut read = |iov: &mut [(u64, &mut [u8])]| serve(&blocks, iov);
        // Dirty one path; the sibling subtree stays unloaded.
        lazy.hydrate_paths(&[0], &mut read).unwrap();
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
        let diff = RadixTree::diff_pages_with(Some(&mut base), &mut target, &mut |iov| {
            reads.push(iov[0].0);
            serve(&blocks, iov)
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
        let diff = RadixTree::diff_pages_with(Some(&mut x), &mut y, &mut |_| {
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
        let mut read = |iov: &mut [(u64, &mut [u8])]| serve(&blocks, iov);
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
            .get_entry_or_load(0, &mut |iov| serve(&blocks, iov))
            .unwrap_err();
        assert_eq!(err, TreeError::CorruptNode { block: l1 });
        // The slot stays unloaded: fixing the media makes the read succeed.
        blocks.get_mut(&l1).unwrap()[3] ^= 0x40;
        let got = lazy
            .get_entry_or_load(0, &mut |iov| serve(&blocks, iov))
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
        let got = lazy.get_entry_or_load(0, &mut |iov| serve(&blocks, iov));
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
            .entries_from(1, 10, &mut |iov| {
                reads.push(iov[0].0);
                serve(&blocks, iov)
            })
            .unwrap();
        assert_eq!(
            got.iter().map(|(p, b, _)| (*p, *b)).collect::<Vec<_>>(),
            vec![(513, 101), (300_000, 102)],
            "page 0 is behind the cursor"
        );
        // Limit cuts the enumeration short.
        let got = lazy
            .entries_from(0, 1, &mut |_| panic!("tree is resident now"))
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
        assert!(dirty_nodes(&t) >= 2, "victim and its ancestors are dirty");
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
