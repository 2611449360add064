//! Page-oriented B+tree, the storage structure behind every LiteDB table
//! ("the database models each table as a B-tree", §7.1).
//!
//! Nodes are whole 4 KiB pages (paper property ②: data-structure nodes
//! are page-aligned). All page IO goes through the [`Backend`] trait, so
//! the same tree runs over the WAL baseline and the MemSnap region.
//!
//! Every page carries an FNV-1a checksum in header bytes 4..8, and a
//! database is verified whole when it opens ([`BTreeForest::check`]):
//! recovery names the first page that fails, never panics on it. The
//! operations after that decode pages through [`msnap_sim::wire::Reader`]
//! and verify each page they read; a descent is bounded. Should bytes
//! change under an open database, a lookup or scan returns less, and an
//! insert or delete panics naming the page: a write never seals a page
//! it could not read.

use std::collections::BTreeSet;

use msnap_sim::hash::{fnv1a, fnv1a_extend, splitmix64};
use msnap_sim::wire::{Reader, Short};
use msnap_sim::{Category, Nanos, Vt, VthreadId};

use crate::backend::Backend;
use crate::PAGE_SIZE;

const META_MAGIC: u32 = 0x4C697442; // "LitB"
/// Table-root slots in the meta page.
pub const MAX_TABLES: usize = 32;
/// Maximum value length storable in a leaf entry.
pub const MAX_VALUE: usize = 1024;

const TYPE_LEAF: u8 = 1;
const TYPE_INTERIOR: u8 = 2;

const LEAF_HDR: usize = 16; // type, nkeys, checksum, next_leaf
const INT_HDR: usize = 16; // type, nkeys, checksum, child0
const LEAF_ENTRY_FIXED: usize = 10; // key + vlen
const INT_ENTRY: usize = 16; // key + child
/// Where every page (the meta page too) keeps its checksum.
const SUM_AT: usize = 4;

/// CPU cost of examining one B-tree page (search within node).
const NODE_VISIT: Nanos = Nanos::from_ns(150);
/// Levels a descent follows before it gives up: far above any tree the
/// allocator's page count allows, so only a cycle of damaged pointers
/// reaches it.
const MAX_DEPTH: usize = 64;

type Page = [u8; PAGE_SIZE];
/// A leaf's `(key, value)` entries, in key order.
type Entries = Vec<(u64, Vec<u8>)>;

/// A page of the database failed its checksum or does not decode as the
/// page its parent names: recovery refuses the database.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorruptPage {
    /// The page number.
    pub page: u64,
}

impl std::fmt::Display for CorruptPage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "database page {} is corrupt", self.page)
    }
}

impl std::error::Error for CorruptPage {}

fn write_u16(p: &mut [u8], off: usize, v: u16) {
    p[off..off + 2].copy_from_slice(&v.to_le_bytes());
}
fn write_u64(p: &mut [u8], off: usize, v: u64) {
    p[off..off + 8].copy_from_slice(&v.to_le_bytes());
}

/// The page's checksum: FNV-1a over everything but the checksum itself,
/// mixed so that its low half depends on every bit.
fn page_sum(p: &Page) -> u32 {
    splitmix64(fnv1a_extend(fnv1a(&p[..SUM_AT]), &p[SUM_AT + 4..])) as u32
}

/// Seals `p` with its checksum and writes it as page `page_no`.
fn write_page(
    vt: &mut Vt,
    backend: &mut dyn Backend,
    thread: VthreadId,
    page_no: u64,
    p: &mut Page,
) {
    let sum = page_sum(p);
    p[SUM_AT..SUM_AT + 4].copy_from_slice(&sum.to_le_bytes());
    backend.write_page(vt, thread, page_no, p);
}

/// Reads page `page_no` into `out`, refusing it if its checksum fails.
fn read_checked(
    vt: &mut Vt,
    backend: &mut dyn Backend,
    page_no: u64,
    out: &mut Page,
) -> Result<(), CorruptPage> {
    backend.read_page(vt, page_no, out);
    match Reader::new(&out[SUM_AT..]).u32() {
        Ok(sum) if sum == page_sum(out) => Ok(()),
        _ => Err(CorruptPage { page: page_no }),
    }
}

// ---- Leaf page accessors ------------------------------------------------

fn leaf_init(p: &mut Page) {
    p.fill(0);
    p[0] = TYPE_LEAF;
}

/// The entry count of a node page (its header bytes 2..4).
fn nkeys(p: &Page) -> usize {
    Reader::new(&p[2..]).u16().map_or(0, usize::from)
}

fn leaf_next(p: &Page) -> u64 {
    Reader::new(&p[8..]).u64().unwrap_or(0)
}

fn leaf_set_next(p: &mut Page, next: u64) {
    write_u64(p, 8, next);
}

/// Decodes all leaf entries; `Short` if they run past the page.
fn leaf_entries(p: &Page) -> Result<Entries, Short> {
    let mut r = Reader::new(&p[LEAF_HDR..]);
    (0..nkeys(p))
        .map(|_| {
            let key = r.u64()?;
            let vlen = usize::from(r.u16()?);
            Ok((key, r.take(vlen)?.to_vec()))
        })
        .collect()
}

/// Re-encodes leaf entries; returns `false` if they do not fit.
fn leaf_write_entries(p: &mut Page, next: u64, entries: &[(u64, Vec<u8>)]) -> bool {
    let used: usize = LEAF_HDR
        + entries
            .iter()
            .map(|(_, v)| LEAF_ENTRY_FIXED + v.len())
            .sum::<usize>();
    if used > PAGE_SIZE {
        return false;
    }
    leaf_init(p);
    leaf_set_next(p, next);
    write_u16(p, 2, entries.len() as u16);
    let mut off = LEAF_HDR;
    for (key, value) in entries {
        write_u64(p, off, *key);
        write_u16(p, off + 8, value.len() as u16);
        p[off + 10..off + 10 + value.len()].copy_from_slice(value);
        off += LEAF_ENTRY_FIXED + value.len();
    }
    true
}

// ---- Interior page accessors --------------------------------------------

fn interior_write(p: &mut Page, child0: u64, entries: &[(u64, u64)]) -> bool {
    if INT_HDR + entries.len() * INT_ENTRY > PAGE_SIZE {
        return false;
    }
    p.fill(0);
    p[0] = TYPE_INTERIOR;
    write_u16(p, 2, entries.len() as u16);
    write_u64(p, 8, child0);
    for (i, (key, child)) in entries.iter().enumerate() {
        write_u64(p, INT_HDR + i * INT_ENTRY, *key);
        write_u64(p, INT_HDR + i * INT_ENTRY + 8, *child);
    }
    true
}

/// Decodes an interior node: `child0`, then `(key, child)` entries from
/// [`INT_HDR`] on; `Short` if they run past the page.
fn interior_read(p: &Page) -> Result<(u64, Vec<(u64, u64)>), Short> {
    let mut r = Reader::new(&p[8..]);
    let child0 = r.u64()?;
    let entries = (0..nkeys(p))
        .map(|_| Ok((r.u64()?, r.u64()?)))
        .collect::<Result<_, Short>>()?;
    Ok((child0, entries))
}

/// Whether `keys` strictly increase from `lo` on and stay below `hi`.
fn ordered(mut keys: impl Iterator<Item = u64>, lo: u64, hi: Option<u64>) -> bool {
    let mut next = lo;
    keys.all(|k| {
        let fits = k >= next && hi.is_none_or(|h| k < h);
        next = k.saturating_add(1);
        fits
    })
}

/// Child to descend into for `key`.
fn interior_child_for(child0: u64, entries: &[(u64, u64)], key: u64) -> u64 {
    // entries[i].0 is the smallest key in entries[i].1's subtree.
    let idx = entries.partition_point(|&(k, _)| k <= key);
    if idx == 0 {
        child0
    } else {
        entries[idx - 1].1
    }
}

// ---- Meta page -----------------------------------------------------------

fn meta_read(p: &Page) -> (u64, [u64; MAX_TABLES]) {
    // The page count at 8, then the roots: 34 words, well inside a page.
    let mut r = Reader::new(&p[8..]);
    let mut word = || r.u64().unwrap_or(0);
    let npages = word();
    (npages, std::array::from_fn(|_| word()))
}

fn meta_write(p: &mut Page, npages: u64, roots: &[u64; MAX_TABLES]) {
    p.fill(0);
    p[0..4].copy_from_slice(&META_MAGIC.to_le_bytes());
    write_u64(p, 8, npages);
    for (i, r) in roots.iter().enumerate() {
        write_u64(p, 16 + i * 8, *r);
    }
}

// ---- The tree ------------------------------------------------------------

/// A forest of B+trees sharing one backend: the meta page (page 0) maps
/// table slots to tree roots and tracks page allocation.
pub(crate) struct BTreeForest;

impl BTreeForest {
    /// Formats the meta page (fresh database).
    pub fn init(vt: &mut Vt, backend: &mut dyn Backend, thread: VthreadId) {
        let mut meta = [0u8; PAGE_SIZE];
        meta_write(&mut meta, 1, &[0u64; MAX_TABLES]);
        write_page(vt, backend, thread, 0, &mut meta);
    }

    /// Whether page 0 was never written: a backend to format. Any other
    /// image is a database, whatever its magic says, and goes through
    /// [`BTreeForest::check`].
    pub fn is_blank(vt: &mut Vt, backend: &mut dyn Backend) -> bool {
        let mut meta = [0u8; PAGE_SIZE];
        backend.read_page(vt, 0, &mut meta);
        meta.iter().all(|&b| b == 0)
    }

    /// Reads the meta page for a write.
    ///
    /// # Panics
    ///
    /// Panics if it fails its checksum.
    fn meta_for_write(vt: &mut Vt, backend: &mut dyn Backend) -> Page {
        let mut meta = [0u8; PAGE_SIZE];
        read_checked(vt, backend, 0, &mut meta).unwrap_or_else(|e| panic!("{e}"));
        meta
    }

    /// Verifies the whole forest before the database is trusted: the
    /// meta page and every page reachable from a tree root pass their
    /// checksums and decode, lie below the allocation frontier, are
    /// reached once, and hold their keys in order inside the range their
    /// parent gives them; each tree's leaves chain in key order.
    ///
    /// # Errors
    ///
    /// [`CorruptPage`] naming the first page (in depth-first key order)
    /// that breaks a rule.
    pub fn check(vt: &mut Vt, backend: &mut dyn Backend) -> Result<(), CorruptPage> {
        let mut page = [0u8; PAGE_SIZE];
        read_checked(vt, backend, 0, &mut page)?;
        let (npages, roots) = meta_read(&page);
        let meta_ok = Reader::new(&page).u32() == Ok(META_MAGIC)
            && (1..=backend.capacity_pages()).contains(&npages);
        if !meta_ok {
            return Err(CorruptPage { page: 0 });
        }
        let mut seen = BTreeSet::from([0]);
        for root in roots.into_iter().filter(|&r| r != 0) {
            // (page, keys from, keys below): children go on last-first, so
            // leaves come off the stack in key order.
            let mut stack = vec![(root, 0, None)];
            let mut leaves: Vec<(u64, u64)> = Vec::new();
            while let Some((page_no, lo, hi)) = stack.pop() {
                let bad = CorruptPage { page: page_no };
                if page_no >= npages || !seen.insert(page_no) {
                    return Err(bad);
                }
                read_checked(vt, backend, page_no, &mut page)?;
                match page[0] {
                    TYPE_LEAF => {
                        let entries = leaf_entries(&page).map_err(|_| bad)?;
                        if !ordered(entries.iter().map(|(k, _)| *k), lo, hi) {
                            return Err(bad);
                        }
                        leaves.push((page_no, leaf_next(&page)));
                    }
                    TYPE_INTERIOR => {
                        let (child0, entries) = interior_read(&page).map_err(|_| bad)?;
                        if !ordered(entries.iter().map(|(k, _)| *k), lo, hi) {
                            return Err(bad);
                        }
                        // Child i holds the keys from separator i − 1 (the
                        // node's own bound for child0) below separator i.
                        for i in (0..=entries.len()).rev() {
                            let (from, child) = match i {
                                0 => (lo, child0),
                                _ => entries[i - 1],
                            };
                            stack.push((child, from, entries.get(i).map(|e| e.0).or(hi)));
                        }
                    }
                    _ => return Err(bad),
                }
            }
            for (i, &(leaf, next)) in leaves.iter().enumerate() {
                if next != leaves.get(i + 1).map_or(0, |l| l.0) {
                    return Err(CorruptPage { page: leaf });
                }
            }
        }
        Ok(())
    }

    fn alloc_page(
        vt: &mut Vt,
        backend: &mut dyn Backend,
        thread: VthreadId,
        meta: &mut Page,
    ) -> u64 {
        let (npages, roots) = meta_read(meta);
        assert!(
            npages < backend.capacity_pages(),
            "database full: {npages} pages"
        );
        meta_write(meta, npages + 1, &roots);
        write_page(vt, backend, thread, 0, meta);
        npages
    }

    /// Creates an empty tree in `slot`; returns its root page.
    ///
    /// # Panics
    ///
    /// Panics if the slot is already in use or out of range.
    pub fn create_tree(
        vt: &mut Vt,
        backend: &mut dyn Backend,
        thread: VthreadId,
        slot: usize,
    ) -> u64 {
        let mut meta = Self::meta_for_write(vt, backend);
        let (_, roots) = meta_read(&meta);
        assert!(slot < MAX_TABLES, "table slot out of range");
        assert_eq!(roots[slot], 0, "table slot already in use");
        let root = Self::alloc_page(vt, backend, thread, &mut meta);
        let mut leaf = [0u8; PAGE_SIZE];
        leaf_init(&mut leaf);
        write_page(vt, backend, thread, root, &mut leaf);
        let (npages, mut roots) = meta_read(&meta);
        roots[slot] = root;
        meta_write(&mut meta, npages, &roots);
        write_page(vt, backend, thread, 0, &mut meta);
        root
    }

    /// The root page of `slot`'s tree, or 0 if absent.
    pub fn tree_root(vt: &mut Vt, backend: &mut dyn Backend, slot: usize) -> u64 {
        let mut meta = [0u8; PAGE_SIZE];
        backend.read_page(vt, 0, &mut meta);
        meta_read(&meta).1[slot]
    }

    /// Walks from `slot`'s root to the leaf for `key`, reading and
    /// verifying each node into `page`: the interior pages passed, root
    /// first, and the leaf's page number. `Ok(None)` for an absent tree.
    ///
    /// # Errors
    ///
    /// [`CorruptPage`] for a page (the meta page too) that fails its
    /// checksum, is no node, or is an interior node that does not decode,
    /// and for the page at which a path passes [`MAX_DEPTH`] levels.
    fn descend(
        vt: &mut Vt,
        backend: &mut dyn Backend,
        slot: usize,
        key: u64,
        page: &mut Page,
    ) -> Result<Option<(Vec<u64>, u64)>, CorruptPage> {
        read_checked(vt, backend, 0, page)?;
        let mut page_no = meta_read(page).1[slot];
        let mut path = Vec::new();
        while page_no != 0 {
            let bad = CorruptPage { page: page_no };
            if path.len() == MAX_DEPTH {
                return Err(bad);
            }
            read_checked(vt, backend, page_no, page)?;
            vt.charge(Category::OtherUserspace, NODE_VISIT);
            match page[0] {
                TYPE_LEAF => return Ok(Some((path, page_no))),
                TYPE_INTERIOR => {
                    path.push(page_no);
                    let (child0, entries) = interior_read(page).map_err(|_| bad)?;
                    page_no = interior_child_for(child0, &entries, key);
                }
                _ => return Err(bad),
            }
        }
        Ok(None)
    }

    /// [`BTreeForest::descend`] for a write, to the leaf's decoded
    /// entries: `None` for an absent tree.
    ///
    /// # Panics
    ///
    /// Panics naming the page that the descent refuses, or a leaf that
    /// does not decode.
    fn descend_for_write(
        vt: &mut Vt,
        backend: &mut dyn Backend,
        slot: usize,
        key: u64,
        page: &mut Page,
    ) -> Option<(Vec<u64>, u64, Entries)> {
        let (path, page_no) =
            Self::descend(vt, backend, slot, key, page).unwrap_or_else(|e| panic!("{e}"))?;
        let entries =
            leaf_entries(page).unwrap_or_else(|_| panic!("{}", CorruptPage { page: page_no }));
        Some((path, page_no, entries))
    }

    /// Point lookup.
    pub fn get(vt: &mut Vt, backend: &mut dyn Backend, slot: usize, key: u64) -> Option<Vec<u8>> {
        let mut page = [0u8; PAGE_SIZE];
        Self::descend(vt, backend, slot, key, &mut page).ok()??;
        let entries = leaf_entries(&page).ok()?;
        entries.into_iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// Range scan: up to `limit` entries with keys ≥ `key`, in order.
    pub fn scan_from(
        vt: &mut Vt,
        backend: &mut dyn Backend,
        slot: usize,
        key: u64,
        limit: usize,
    ) -> Vec<(u64, Vec<u8>)> {
        let mut page = [0u8; PAGE_SIZE];
        if !matches!(
            Self::descend(vt, backend, slot, key, &mut page),
            Ok(Some(_))
        ) {
            return Vec::new();
        }
        // Walk leaves via next pointers, to the first that fails.
        let mut out = Vec::new();
        loop {
            for (k, v) in leaf_entries(&page).unwrap_or_default() {
                if k >= key {
                    out.push((k, v));
                    if out.len() == limit {
                        return out;
                    }
                }
            }
            let next = leaf_next(&page);
            if next == 0 || read_checked(vt, backend, next, &mut page).is_err() {
                return out;
            }
            vt.charge(Category::OtherUserspace, NODE_VISIT);
        }
    }

    /// Inserts or replaces `key`.
    ///
    /// # Panics
    ///
    /// Panics if the value exceeds [`MAX_VALUE`], the tree is absent, or
    /// a page the insert reads fails its checksum or does not decode.
    pub fn insert(
        vt: &mut Vt,
        backend: &mut dyn Backend,
        thread: VthreadId,
        slot: usize,
        key: u64,
        value: &[u8],
    ) {
        assert!(value.len() <= MAX_VALUE, "value exceeds MAX_VALUE");
        let mut page = [0u8; PAGE_SIZE];
        let Some((mut path, page_no, mut entries)) =
            Self::descend_for_write(vt, backend, slot, key, &mut page)
        else {
            panic!("table does not exist");
        };

        // Insert into the leaf.
        match entries.binary_search_by_key(&key, |(k, _)| *k) {
            Ok(i) => entries[i].1 = value.to_vec(),
            Err(i) => entries.insert(i, (key, value.to_vec())),
        }
        let next = leaf_next(&page);
        if leaf_write_entries(&mut page, next, &entries) {
            write_page(vt, backend, thread, page_no, &mut page);
            return;
        }

        // Leaf split.
        let mut meta = Self::meta_for_write(vt, backend);
        let new_leaf_no = Self::alloc_page(vt, backend, thread, &mut meta);
        let mid = entries.len() / 2;
        let right_entries = entries.split_off(mid);
        let sep_key = right_entries[0].0;
        let mut right = [0u8; PAGE_SIZE];
        assert!(leaf_write_entries(&mut right, next, &right_entries));
        assert!(leaf_write_entries(&mut page, new_leaf_no, &entries));
        write_page(vt, backend, thread, page_no, &mut page);
        write_page(vt, backend, thread, new_leaf_no, &mut right);

        // Propagate the separator up the path.
        let mut sep = (sep_key, new_leaf_no);
        let mut child_below = page_no;
        loop {
            match path.pop() {
                Some(parent_no) => {
                    let mut parent = [0u8; PAGE_SIZE];
                    let decoded = read_checked(vt, backend, parent_no, &mut parent)
                        .ok()
                        .and_then(|()| interior_read(&parent).ok());
                    let (child0, mut ents) =
                        decoded.unwrap_or_else(|| panic!("{}", CorruptPage { page: parent_no }));
                    let pos = ents.partition_point(|&(k, _)| k <= sep.0);
                    ents.insert(pos, sep);
                    if interior_write(&mut parent, child0, &ents) {
                        write_page(vt, backend, thread, parent_no, &mut parent);
                        return;
                    }
                    // Interior split.
                    let new_int_no = Self::alloc_page(vt, backend, thread, &mut meta);
                    let mid = ents.len() / 2;
                    let mut right_ents = ents.split_off(mid);
                    let (up_key, right_child0) = right_ents.remove(0);
                    let mut right_page = [0u8; PAGE_SIZE];
                    assert!(interior_write(&mut right_page, right_child0, &right_ents));
                    assert!(interior_write(&mut parent, child0, &ents));
                    write_page(vt, backend, thread, parent_no, &mut parent);
                    write_page(vt, backend, thread, new_int_no, &mut right_page);
                    sep = (up_key, new_int_no);
                    child_below = parent_no;
                }
                None => {
                    // Root split: allocate a new root.
                    let new_root_no = Self::alloc_page(vt, backend, thread, &mut meta);
                    let mut new_root = [0u8; PAGE_SIZE];
                    assert!(interior_write(&mut new_root, child_below, &[sep]));
                    write_page(vt, backend, thread, new_root_no, &mut new_root);
                    let (npages, mut roots) = meta_read(&meta);
                    roots[slot] = new_root_no;
                    meta_write(&mut meta, npages, &roots);
                    write_page(vt, backend, thread, 0, &mut meta);
                    return;
                }
            }
        }
    }

    /// Removes `key`; returns whether it was present. (Leaves may
    /// underflow; merging is not implemented, as in many embedded
    /// engines.)
    ///
    /// # Panics
    ///
    /// Panics if a page the delete reads fails its checksum or does not
    /// decode.
    pub fn delete(
        vt: &mut Vt,
        backend: &mut dyn Backend,
        thread: VthreadId,
        slot: usize,
        key: u64,
    ) -> bool {
        let mut page = [0u8; PAGE_SIZE];
        let Some((_, page_no, mut entries)) =
            Self::descend_for_write(vt, backend, slot, key, &mut page)
        else {
            return false;
        };
        match entries.binary_search_by_key(&key, |(k, _)| *k) {
            Ok(i) => {
                entries.remove(i);
                let next = leaf_next(&page);
                assert!(leaf_write_entries(&mut page, next, &entries));
                write_page(vt, backend, thread, page_no, &mut page);
                true
            }
            Err(_) => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BackendStats;
    use msnap_sim::Meters;
    use std::collections::HashMap;

    /// Trivial in-memory backend for exercising the tree alone.
    struct MemBackend {
        pages: HashMap<u64, Page>,
    }

    impl MemBackend {
        fn new() -> Self {
            MemBackend {
                pages: HashMap::new(),
            }
        }
    }

    impl Backend for MemBackend {
        fn read_page(&mut self, _vt: &mut Vt, page: u64, out: &mut Page) {
            match self.pages.get(&page) {
                Some(p) => out.copy_from_slice(p),
                None => out.fill(0),
            }
        }
        fn write_page(&mut self, _vt: &mut Vt, _thread: VthreadId, page: u64, data: &Page) {
            self.pages.insert(page, *data);
        }
        fn commit(
            &mut self,
            _vt: &mut Vt,
            _thread: VthreadId,
        ) -> Result<(), crate::backend::CommitError> {
            Ok(())
        }
        fn capacity_pages(&self) -> u64 {
            1 << 20
        }
        fn stats(&self) -> BackendStats {
            BackendStats::default()
        }
        fn meters(&self) -> Meters {
            Meters::new()
        }
        fn reset_metrics(&mut self) {}
        fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
            self
        }
    }

    fn setup() -> (MemBackend, Vt) {
        let mut b = MemBackend::new();
        let mut vt = Vt::new(0);
        let t = vt.id();
        BTreeForest::init(&mut vt, &mut b, t);
        BTreeForest::create_tree(&mut vt, &mut b, t, 0);
        (b, vt)
    }

    #[test]
    fn insert_get_single() {
        let (mut b, mut vt) = setup();
        let t = vt.id();
        BTreeForest::insert(&mut vt, &mut b, t, 0, 42, b"hello");
        assert_eq!(
            BTreeForest::get(&mut vt, &mut b, 0, 42),
            Some(b"hello".to_vec())
        );
        assert_eq!(BTreeForest::get(&mut vt, &mut b, 0, 43), None);
    }

    #[test]
    fn update_replaces() {
        let (mut b, mut vt) = setup();
        let t = vt.id();
        BTreeForest::insert(&mut vt, &mut b, t, 0, 1, b"old");
        BTreeForest::insert(&mut vt, &mut b, t, 0, 1, b"newer-value");
        assert_eq!(
            BTreeForest::get(&mut vt, &mut b, 0, 1),
            Some(b"newer-value".to_vec())
        );
    }

    #[test]
    fn many_inserts_split_and_stay_sorted() {
        let (mut b, mut vt) = setup();
        let t = vt.id();
        let n = 5000u64;
        // Insert in a scrambled order.
        for i in 0..n {
            let key = (i * 7919) % n;
            BTreeForest::insert(&mut vt, &mut b, t, 0, key, &key.to_le_bytes());
        }
        for key in 0..n {
            assert_eq!(
                BTreeForest::get(&mut vt, &mut b, 0, key),
                Some(key.to_le_bytes().to_vec()),
                "key {key}"
            );
        }
        // Full scan returns everything in order.
        let all = BTreeForest::scan_from(&mut vt, &mut b, 0, 0, n as usize + 10);
        assert_eq!(all.len(), n as usize);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn large_values_split_correctly() {
        let (mut b, mut vt) = setup();
        let t = vt.id();
        for i in 0..200u64 {
            BTreeForest::insert(&mut vt, &mut b, t, 0, i, &vec![i as u8; 800]);
        }
        for i in 0..200u64 {
            assert_eq!(
                BTreeForest::get(&mut vt, &mut b, 0, i),
                Some(vec![i as u8; 800])
            );
        }
    }

    #[test]
    fn scan_from_mid_key() {
        let (mut b, mut vt) = setup();
        let t = vt.id();
        for i in 0..1000u64 {
            BTreeForest::insert(&mut vt, &mut b, t, 0, i * 2, b"v");
        }
        let scan = BTreeForest::scan_from(&mut vt, &mut b, 0, 501, 5);
        let keys: Vec<u64> = scan.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![502, 504, 506, 508, 510]);
    }

    #[test]
    fn delete_removes_and_reports() {
        let (mut b, mut vt) = setup();
        let t = vt.id();
        for i in 0..500u64 {
            BTreeForest::insert(&mut vt, &mut b, t, 0, i, b"v");
        }
        assert!(BTreeForest::delete(&mut vt, &mut b, t, 0, 250));
        assert!(!BTreeForest::delete(&mut vt, &mut b, t, 0, 250));
        assert_eq!(BTreeForest::get(&mut vt, &mut b, 0, 250), None);
        assert_eq!(
            BTreeForest::get(&mut vt, &mut b, 0, 251),
            Some(b"v".to_vec())
        );
    }

    #[test]
    fn multiple_tables_are_independent() {
        let (mut b, mut vt) = setup();
        let t = vt.id();
        BTreeForest::create_tree(&mut vt, &mut b, t, 1);
        BTreeForest::insert(&mut vt, &mut b, t, 0, 7, b"t0");
        BTreeForest::insert(&mut vt, &mut b, t, 1, 7, b"t1");
        assert_eq!(
            BTreeForest::get(&mut vt, &mut b, 0, 7),
            Some(b"t0".to_vec())
        );
        assert_eq!(
            BTreeForest::get(&mut vt, &mut b, 1, 7),
            Some(b"t1".to_vec())
        );
        assert!(BTreeForest::delete(&mut vt, &mut b, t, 0, 7));
        assert_eq!(
            BTreeForest::get(&mut vt, &mut b, 1, 7),
            Some(b"t1".to_vec())
        );
    }

    /// A leaf that changes under an open forest: a lookup returns less,
    /// and an insert or a delete refuses to write over it.
    #[test]
    fn writes_refuse_a_leaf_that_fails_its_checksum() {
        for delete in [false, true] {
            let (mut b, mut vt) = setup();
            let t = vt.id();
            BTreeForest::insert(&mut vt, &mut b, t, 0, 7, b"v");
            b.pages.get_mut(&1).unwrap()[LEAF_HDR] ^= 1;
            assert_eq!(BTreeForest::get(&mut vt, &mut b, 0, 7), None);
            assert!(BTreeForest::scan_from(&mut vt, &mut b, 0, 0, 10).is_empty());
            let damaged = b.pages[&1];
            let write = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if delete {
                    BTreeForest::delete(&mut vt, &mut b, t, 0, 7);
                } else {
                    BTreeForest::insert(&mut vt, &mut b, t, 0, 8, b"w");
                }
            }));
            let msg = write.expect_err("a write over a damaged leaf");
            assert_eq!(
                msg.downcast_ref::<String>().map(String::as_str),
                Some("database page 1 is corrupt"),
                "delete {delete}"
            );
            assert_eq!(b.pages[&1], damaged, "nothing sealed over it");
        }
    }

    #[test]
    #[should_panic(expected = "MAX_VALUE")]
    fn oversized_value_rejected() {
        let (mut b, mut vt) = setup();
        let t = vt.id();
        BTreeForest::insert(&mut vt, &mut b, t, 0, 1, &vec![0u8; MAX_VALUE + 1]);
    }
}
