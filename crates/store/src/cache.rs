//! A unified CLOCK (second-chance) block cache for store reads.
//!
//! The paper's store "does direct IO" for *writes* — commits reach the
//! device before they are acknowledged — but repeated *reads* of hot
//! blocks (radix nodes on the demand-load path, data pages under skewed
//! workloads) need not hit the device every time. This module provides a
//! small fixed-capacity cache shared by `read_page`, `read_page_at`, and
//! node hydration. Bulk readers (`read_pages`: region page-in) are served
//! from it but admit no data pages to it — they touch each page once, and
//! would only turn the hand over on the node blocks commits need.
//!
//! Policy is CLOCK / second-chance: each slot carries a referenced bit,
//! set on hit; the eviction hand sweeps the slots, clearing referenced
//! bits, and reclaims the first slot whose bit is already clear. CLOCK is
//! deterministic (no timestamps, no randomness), which keeps the
//! simulation's replay guarantees intact.
//!
//! Consistency: the cache is **invalidated on write, never populated by
//! writes**. A freshly written block must be re-read from the device at
//! least once before it can be served from memory — so injected faults
//! that corrupt device contents (bit flips, torn writes) are still
//! observed by the first read, exactly as with direct IO. The cache is
//! also discarded across `ObjectStore::open`, so recovery never trusts
//! pre-crash cached state.

use msnap_disk::BLOCK_SIZE;
use std::collections::HashMap;

/// Sentinel block number marking a slot invalidated in place.
///
/// Slots are addressed by index from the map, so invalidation cannot
/// remove them from the `slots` vector without shifting every other
/// index; tombstoned slots are instead reused eagerly on insert.
const TOMBSTONE: u64 = u64::MAX;

/// One cache slot: a block number, its 4 KiB payload, and the CLOCK
/// referenced bit.
struct Slot {
    block: u64,
    referenced: bool,
    data: Box<[u8]>,
}

/// A fixed-capacity CLOCK block cache.
///
/// Capacity is measured in blocks (4 KiB each). A capacity of zero
/// disables caching entirely: `get` always misses and `insert` is a
/// no-op, which degrades to the previous direct-IO behaviour.
pub struct BlockCache {
    capacity: usize,
    /// block number -> index into `slots`.
    map: HashMap<u64, usize>,
    slots: Vec<Slot>,
    /// CLOCK hand: index of the next slot the eviction sweep inspects.
    hand: usize,
}

impl BlockCache {
    /// Creates an empty cache holding at most `capacity` blocks.
    pub fn new(capacity: usize) -> Self {
        BlockCache {
            capacity,
            map: HashMap::new(),
            slots: Vec::new(),
            hand: 0,
        }
    }

    /// The maximum number of blocks this cache can hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The number of blocks currently resident.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no blocks are resident.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Copies the cached contents of `block` into `out` and sets the
    /// slot's referenced bit. Returns `false` on a miss.
    ///
    /// `out` must be exactly [`BLOCK_SIZE`] bytes.
    pub fn get(&mut self, block: u64, out: &mut [u8]) -> bool {
        assert_eq!(out.len(), BLOCK_SIZE, "cache reads are whole blocks");
        match self.map.get(&block) {
            Some(&idx) => {
                let slot = &mut self.slots[idx];
                slot.referenced = true;
                out.copy_from_slice(&slot.data);
                true
            }
            None => false,
        }
    }

    /// Inserts (or refreshes) `block` with `data`, evicting via CLOCK if
    /// the cache is full. Returns `true` when a resident block was
    /// evicted to make room.
    ///
    /// `data` must be exactly [`BLOCK_SIZE`] bytes.
    pub fn insert(&mut self, block: u64, data: &[u8]) -> bool {
        assert_eq!(data.len(), BLOCK_SIZE, "cache stores whole blocks");
        if self.capacity == 0 {
            return false;
        }
        if let Some(&idx) = self.map.get(&block) {
            let slot = &mut self.slots[idx];
            slot.referenced = true;
            slot.data.copy_from_slice(data);
            return false;
        }
        // Reuse a tombstoned slot if one exists.
        if let Some(idx) = self.slots.iter().position(|s| s.block == TOMBSTONE) {
            let slot = &mut self.slots[idx];
            slot.block = block;
            slot.referenced = true;
            slot.data.copy_from_slice(data);
            self.map.insert(block, idx);
            return false;
        }
        if self.slots.len() < self.capacity {
            let idx = self.slots.len();
            self.slots.push(Slot {
                block,
                referenced: true,
                data: data.to_vec().into_boxed_slice(),
            });
            self.map.insert(block, idx);
            return false;
        }
        // CLOCK sweep: clear referenced bits until a victim is found.
        loop {
            let idx = self.hand;
            self.hand = (self.hand + 1) % self.slots.len();
            let slot = &mut self.slots[idx];
            if slot.referenced {
                slot.referenced = false;
                continue;
            }
            self.map.remove(&slot.block);
            slot.block = block;
            slot.referenced = true;
            slot.data.copy_from_slice(data);
            self.map.insert(block, idx);
            return true;
        }
    }

    /// Drops `block` from the cache if resident. Called on every write so
    /// stale pre-write contents can never be served.
    pub fn invalidate(&mut self, block: u64) {
        if let Some(idx) = self.map.remove(&block) {
            let slot = &mut self.slots[idx];
            slot.block = TOMBSTONE;
            slot.referenced = false;
        }
    }

    /// Drops every resident block (used across recovery and by corruption
    /// tests that mutate the device behind the store's back).
    pub fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.hand = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blk(byte: u8) -> Vec<u8> {
        vec![byte; BLOCK_SIZE]
    }

    #[test]
    fn hit_returns_inserted_contents() {
        let mut c = BlockCache::new(4);
        assert!(!c.insert(7, &blk(0xAB)));
        let mut out = blk(0);
        assert!(c.get(7, &mut out));
        assert_eq!(out, blk(0xAB));
        assert!(!c.get(8, &mut out));
    }

    #[test]
    fn clock_evicts_unreferenced_first() {
        let mut c = BlockCache::new(2);
        c.insert(1, &blk(1));
        c.insert(2, &blk(2));
        // Touch block 1 so it has a second chance; block 2 does not.
        let mut out = blk(0);
        // Fresh inserts start referenced; sweep clears both, then evicts
        // the first unreferenced slot. Re-reference block 1 explicitly.
        assert!(c.get(1, &mut out));
        assert!(c.insert(3, &blk(3)));
        assert_eq!(c.len(), 2);
        // Block 3 must be resident; exactly one of {1, 2} survived.
        assert!(c.get(3, &mut out));
        let survivors = [1u64, 2].iter().filter(|&&b| c.get(b, &mut out)).count();
        assert_eq!(survivors, 1);
    }

    #[test]
    fn invalidate_prevents_stale_hits_and_slot_is_reused() {
        let mut c = BlockCache::new(2);
        c.insert(1, &blk(1));
        c.insert(2, &blk(2));
        c.invalidate(1);
        let mut out = blk(0);
        assert!(!c.get(1, &mut out));
        assert_eq!(c.len(), 1);
        // The tombstoned slot is reused without evicting block 2.
        assert!(!c.insert(3, &blk(3)));
        assert!(c.get(2, &mut out));
        assert!(c.get(3, &mut out));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = BlockCache::new(0);
        assert!(!c.insert(1, &blk(1)));
        let mut out = blk(0);
        assert!(!c.get(1, &mut out));
        assert!(c.is_empty());
    }

    #[test]
    fn reinsert_refreshes_contents_in_place() {
        let mut c = BlockCache::new(2);
        c.insert(1, &blk(1));
        assert!(!c.insert(1, &blk(9)));
        let mut out = blk(0);
        assert!(c.get(1, &mut out));
        assert_eq!(out, blk(9));
        assert_eq!(c.len(), 1);
    }
}
