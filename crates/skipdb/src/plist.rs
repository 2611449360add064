//! The page-per-node skip list of §7.2, the one MemTable of
//! [`MemSnapKv`](crate::MemSnapKv),
//! [`RotatingMemSnapKv`](crate::RotatingMemSnapKv) and
//! [`AuroraKv`](crate::AuroraKv). Persistence is the only thing that
//! varies: the list reads and writes its node pages through
//! [`NodePages`], over a MemSnap region ([`Mapping`]) or an Aurora region.

use memsnap::MemSnap;
use msnap_aurora::{Aurora, AuroraRegionId};
use msnap_sim::{Category, Nanos, Vt};
use msnap_vm::AsId;

use crate::node::{
    decode_head, decode_next, decode_node, encode_head, encode_node, NodeView, NODE_HEADER, PAGE,
};
use crate::skiplist::{Insert, SkipIndex};

/// Cost of one per-node spinlock acquire/release pair — the paper's
/// replacement for the lock-free CAS, "in the order of a few dozen
/// cycles".
const NODE_LOCK: Nanos = Nanos::from_ns(25);

/// The list's one seam to persistence: a region of node pages, read and
/// written at (page, offset) in `on`, the system that holds it.
pub(crate) trait NodePages: Copy {
    /// The system that holds the region (MemSnap or Aurora).
    type On;
    /// Reads `out.len()` bytes at `offset` of node page `page`.
    fn read(self, on: &mut Self::On, vt: &mut Vt, page: u64, offset: u64, out: &mut [u8]);
    /// Writes `data` at `offset` of node page `page`.
    fn write(self, on: &mut Self::On, vt: &mut Vt, page: u64, offset: u64, data: &[u8]);
}

/// A MemSnap region (or a retained snapshot's view of one): the address
/// space it is mapped in, and its address there.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Mapping(pub AsId, pub u64);

impl NodePages for Mapping {
    type On = MemSnap;

    fn read(self, ms: &mut MemSnap, vt: &mut Vt, page: u64, offset: u64, out: &mut [u8]) {
        ms.read(vt, self.0, self.1 + page * PAGE as u64 + offset, out)
            .expect("region reads are infallible");
    }

    fn write(self, ms: &mut MemSnap, vt: &mut Vt, page: u64, offset: u64, data: &[u8]) {
        let thread = vt.id();
        let va = self.1 + page * PAGE as u64 + offset;
        ms.write(vt, self.0, thread, va, data)
            .expect("region writes are infallible");
    }
}

impl NodePages for AuroraRegionId {
    type On = Aurora;

    fn read(self, aurora: &mut Aurora, vt: &mut Vt, page: u64, offset: u64, out: &mut [u8]) {
        aurora.read(vt, self, page * PAGE as u64 + offset, out);
    }

    fn write(self, aurora: &mut Aurora, vt: &mut Vt, page: u64, offset: u64, data: &[u8]) {
        aurora.write(vt, self, page * PAGE as u64 + offset, data);
    }
}

/// A page-aligned persistent skip list in one region, with a volatile
/// skip-pointer index.
#[derive(Debug)]
pub(crate) struct PersistentSkipList<R> {
    /// Where the node pages live.
    pub region: R,
    /// Volatile index: key → region page of its node.
    pub index: SkipIndex<u64>,
    /// Pages in the region, the head sentinel's included.
    pub capacity: u64,
    next_page: u64,
}

impl<R: NodePages> PersistentSkipList<R> {
    /// Wraps a fresh region of `capacity` pages: installs the head
    /// sentinel.
    pub fn format(on: &mut R::On, region: R, capacity: u64, vt: &mut Vt) -> Self {
        region.write(on, vt, 0, 0, &encode_head(0));
        PersistentSkipList {
            region,
            index: SkipIndex::new(0),
            capacity,
            next_page: 1,
        }
    }

    /// Rebuilds from a restored region by walking the persistent linked
    /// list and recomputing skip pointers.
    pub fn restore(on: &mut R::On, region: R, capacity: u64, vt: &mut Vt) -> Self {
        let mut index = SkipIndex::new(0);
        let mut max_page = 0;
        Self::walk(on, region, capacity, vt, |vt, page, node| {
            index.insert(vt, node.key, page);
            max_page = max_page.max(page);
        });
        PersistentSkipList {
            region,
            index,
            capacity,
            next_page: max_page + 1,
        }
    }

    /// Walks the persistent linked list of `region` (`capacity` pages)
    /// from the head, in key order, handing `visit` each node and its
    /// page. A link that leads past the region, to a page that is not a
    /// node, or to a key not above the last ends the list: damage the
    /// store's digest cannot see ends the walk, as a torn record ends a
    /// log's replay, and can neither panic nor loop it.
    pub fn walk(
        on: &mut R::On,
        region: R,
        capacity: u64,
        vt: &mut Vt,
        mut visit: impl FnMut(&mut Vt, u64, NodeView),
    ) {
        let mut buf = [0u8; PAGE];
        region.read(on, vt, 0, 0, &mut buf);
        let (mut next, mut last) = (decode_head(&buf).unwrap_or(0), None);
        while next != 0 && next < capacity {
            region.read(on, vt, next, 0, &mut buf);
            let ascends = |node: &NodeView| last.is_none_or(|key| node.key > key);
            let Some(node) = decode_node(&buf).filter(ascends) else {
                break;
            };
            last = Some(node.key);
            let page = std::mem::replace(&mut next, node.next);
            visit(vt, page, node);
        }
    }

    /// Node pages in use (including the head sentinel).
    pub fn pages_used(&self) -> u64 {
        self.next_page
    }

    /// Inserts or rewrites a key without persisting; the caller issues
    /// the checkpoint.
    ///
    /// # Panics
    ///
    /// Panics if the region is full.
    pub fn insert_volatile(&mut self, on: &mut R::On, vt: &mut Vt, key: u64, value: &[u8]) {
        match self.index.insert(vt, key, 0) {
            Insert::Replaced(page) => {
                // Same key: rewrite the node's value in place.
                self.index.insert(vt, key, page); // restore payload
                vt.charge(Category::Locking, NODE_LOCK);
                // Only the header is needed (for `next`), and only the
                // header and the value are stored: `decode_node` bounds
                // the value by its length, so a stale tail is unreadable.
                let mut hdr = [0u8; NODE_HEADER];
                self.region.read(on, vt, page, 0, &mut hdr);
                let next = decode_next(&hdr).expect("index points at valid nodes");
                let image = encode_node(key, value, next);
                let node = &image[..NODE_HEADER + value.len()];
                self.region.write(on, vt, page, 0, node);
            }
            Insert::New {
                pred_payload,
                succ_payload,
            } => {
                let page = self.next_page;
                assert!(
                    page < self.capacity,
                    "memtable region full ({} pages)",
                    self.capacity
                );
                self.next_page += 1;
                // Set the real payload, then lock pred + new node
                // (per-node spinlocks, property ③).
                self.index.insert(vt, key, page);
                vt.charge(Category::Locking, NODE_LOCK * 2);
                // New node first (points at the successor), then splice
                // the predecessor — crash-safe publication order.
                let image = encode_node(key, value, succ_payload.unwrap_or(0));
                let node = &image[..NODE_HEADER + value.len()];
                self.region.write(on, vt, page, 0, node);
                let pred = pred_payload.unwrap_or(0);
                self.region.write(on, vt, pred, 16, &page.to_le_bytes());
            }
        }
    }

    /// Reads a key's value through the index.
    pub fn get(&self, on: &mut R::On, vt: &mut Vt, key: u64) -> Option<Vec<u8>> {
        let page = *self.index.find(vt, key)?;
        let mut buf = [0u8; PAGE];
        self.region.read(on, vt, page, 0, &mut buf);
        decode_node(&buf).map(|n| n.value)
    }

    /// Ordered scan of up to `limit` entries with keys ≥ `key`.
    pub fn seek(&self, on: &mut R::On, vt: &mut Vt, key: u64, limit: usize) -> Vec<(u64, Vec<u8>)> {
        let pages: Vec<(u64, u64)> = self
            .index
            .iter_from(vt, key)
            .take(limit)
            .map(|(k, p)| (k, *p))
            .collect();
        pages
            .into_iter()
            .map(|(k, page)| {
                let mut buf = [0u8; PAGE];
                self.region.read(on, vt, page, 0, &mut buf);
                let node = decode_node(&buf).expect("index points at valid nodes");
                (k, node.value)
            })
            .collect()
    }
}
