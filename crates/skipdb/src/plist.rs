//! A persistent skip list living in one MemSnap region: the shared
//! machinery of [`MemSnapKv`](crate::MemSnapKv) (single MemTable) and
//! [`RotatingMemSnapKv`](crate::RotatingMemSnapKv) (tiered MemTables).

use memsnap::{MemSnap, RegionHandle};
use msnap_sim::{Category, Nanos, Vt};
use msnap_vm::AsId;

use crate::node::{
    decode_head, decode_next, decode_node, encode_head, encode_node, NODE_HEADER, PAGE,
};
use crate::skiplist::{Insert, SkipIndex};

/// Cost of one per-node spinlock acquire/release pair — the paper's
/// replacement for the lock-free CAS, "in the order of a few dozen
/// cycles".
const NODE_LOCK: Nanos = Nanos::from_ns(25);

/// A page-aligned persistent skip list in a MemSnap region, with a
/// volatile skip-pointer index.
#[derive(Debug)]
pub(crate) struct PersistentSkipList {
    pub region: RegionHandle,
    /// Volatile index: key → region page of its node.
    pub index: SkipIndex<u64>,
    next_page: u64,
}

impl PersistentSkipList {
    /// Wraps a freshly opened region: installs the head sentinel.
    pub fn format(ms: &mut MemSnap, space: AsId, region: RegionHandle, vt: &mut Vt) -> Self {
        let list = PersistentSkipList {
            region,
            index: SkipIndex::new(0),
            next_page: 1,
        };
        let head = encode_head(0);
        let thread = vt.id();
        ms.write(vt, space, thread, region.addr, &head)
            .expect("region writes are infallible");
        list
    }

    /// Rebuilds from a restored region by walking the persistent linked
    /// list and recomputing skip pointers.
    pub fn restore(ms: &mut MemSnap, space: AsId, region: RegionHandle, vt: &mut Vt) -> Self {
        let mut list = PersistentSkipList {
            region,
            index: SkipIndex::new(0),
            next_page: 1,
        };
        let mut buf = [0u8; PAGE];
        ms.read(vt, space, region.addr, &mut buf)
            .expect("region reads are infallible");
        let mut next = decode_head(&buf).unwrap_or(0);
        let mut max_page = 0;
        while next != 0 {
            ms.read(vt, space, region.addr + next * PAGE as u64, &mut buf)
                .expect("region reads are infallible");
            let node = decode_node(&buf).expect("linked list points at valid nodes");
            list.index.insert(vt, node.key, next);
            max_page = max_page.max(next);
            next = node.next;
        }
        list.next_page = max_page + 1;
        list
    }

    /// Node pages in use (including the head sentinel).
    pub fn pages_used(&self) -> u64 {
        self.next_page
    }

    /// Inserts or rewrites a key without persisting; the caller issues
    /// the μCheckpoint.
    ///
    /// # Panics
    ///
    /// Panics if the region is full.
    pub fn insert_volatile(
        &mut self,
        ms: &mut MemSnap,
        space: AsId,
        vt: &mut Vt,
        key: u64,
        value: &[u8],
    ) {
        let thread = vt.id();
        match self.index.insert(vt, key, 0) {
            Insert::Replaced(page) => {
                // Same key: rewrite the node's value in place.
                self.index.insert(vt, key, page); // restore payload
                vt.charge(Category::Locking, NODE_LOCK);
                // Only the header is needed (for `next`), and only the
                // header and the value are stored: `decode_node` bounds
                // the value by its length, so a stale tail is unreadable.
                let mut hdr = [0u8; NODE_HEADER];
                ms.read(vt, space, self.region.addr + page * PAGE as u64, &mut hdr)
                    .expect("region reads are infallible");
                let next = decode_next(&hdr).expect("index points at valid nodes");
                let image = encode_node(key, value, next);
                ms.write(
                    vt,
                    space,
                    thread,
                    self.region.addr + page * PAGE as u64,
                    &image[..NODE_HEADER + value.len()],
                )
                .expect("region writes are infallible");
            }
            Insert::New {
                pred_payload,
                succ_payload,
            } => {
                let page = self.next_page;
                assert!(
                    page < self.region.pages,
                    "memtable region full ({} pages)",
                    self.region.pages
                );
                self.next_page += 1;
                self.index.insert(vt, key, page); // set real payload
                                                  // Lock pred + new node (per-node spinlocks, property ③).
                vt.charge(Category::Locking, NODE_LOCK * 2);
                // New node first (points at the successor), then splice
                // the predecessor — crash-safe publication order.
                let image = encode_node(key, value, succ_payload.unwrap_or(0));
                ms.write(
                    vt,
                    space,
                    thread,
                    self.region.addr + page * PAGE as u64,
                    &image[..NODE_HEADER + value.len()],
                )
                .expect("region writes are infallible");
                let pred = pred_payload.unwrap_or(0);
                ms.write(
                    vt,
                    space,
                    thread,
                    self.region.addr + pred * PAGE as u64 + 16,
                    &page.to_le_bytes(),
                )
                .expect("region writes are infallible");
            }
        }
    }

    /// Reads a key's value through the index.
    pub fn get(&self, ms: &mut MemSnap, space: AsId, vt: &mut Vt, key: u64) -> Option<Vec<u8>> {
        let page = *self.index.find(vt, key)?;
        let mut buf = [0u8; PAGE];
        ms.read(vt, space, self.region.addr + page * PAGE as u64, &mut buf)
            .expect("region reads are infallible");
        decode_node(&buf).map(|n| n.value)
    }

    /// Ordered scan of up to `limit` entries with keys ≥ `key`.
    pub fn seek(
        &self,
        ms: &mut MemSnap,
        space: AsId,
        vt: &mut Vt,
        key: u64,
        limit: usize,
    ) -> Vec<(u64, Vec<u8>)> {
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
                ms.read(vt, space, self.region.addr + page * PAGE as u64, &mut buf)
                    .expect("region reads are infallible");
                (
                    k,
                    decode_node(&buf)
                        .expect("index points at valid nodes")
                        .value,
                )
            })
            .collect()
    }
}
