//! Block allocation.

use std::collections::{BTreeSet, VecDeque};

/// A bump block allocator with a free list, working out of the block
/// ranges the extent broker grants it.
///
/// Sequential allocation is a load-bearing design point: the store turns a
/// *random* set of dirty object pages into *sequential* device writes
/// (paper §6: "MemSnap's … COW object store … translates random object
/// updates into sequential writes on disk"). Blocks replaced by a committed
/// μCheckpoint are recycled through the free list; contiguous extents
/// prefer a run of recycled blocks before growing the bump frontier, so
/// long-running workloads reach a steady-state footprint instead of
/// growing the block map forever.
///
/// After a crash the free list is not recovered; the allocator restarts
/// bumping past the highest block reachable from any durable root (the
/// same minimal-GC stance as the paper's "minimum viable" store).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockAllocator {
    next: u64,
    free: BTreeSet<u64>,
    /// End of the current bump range (the broker never grants past the
    /// device capacity, so this is the only ceiling).
    limit: u64,
    /// Granted-but-unentered `[start, end)` ranges, consumed in grant
    /// order once the current range is exhausted.
    pending: VecDeque<(u64, u64)>,
}

impl BlockAllocator {
    /// Creates a range-bounded allocator: the bump frontier starts at
    /// `first_block` and stops at `limit` until [`BlockAllocator::add_range`]
    /// grants more. `bounded(f, f)` is an empty allocator — every
    /// allocation fails until the first grant — which is how a fresh
    /// shard starts before the extent broker hands it anything.
    pub fn bounded(first_block: u64, limit: u64) -> Self {
        BlockAllocator {
            next: first_block,
            free: BTreeSet::new(),
            limit,
            pending: VecDeque::new(),
        }
    }

    /// Grants the range `[start, end)` to the allocator. Ranges
    /// must arrive in increasing block order (the broker hands out a
    /// monotone sequence of extents); the current range is extended in
    /// place when `start` abuts it, otherwise the range queues behind it.
    pub fn add_range(&mut self, start: u64, end: u64) {
        debug_assert!(start < end, "empty grant");
        debug_assert!(start >= self.limit, "grants must be monotone");
        if self.pending.is_empty() && start == self.limit {
            self.limit = end;
        } else {
            self.pending.push_back((start, end));
        }
    }

    /// Abandons the current bump range, spilling its unallocated blocks
    /// into the free set (they stay usable for single-block
    /// allocations), and enters the next granted range. Returns `false`
    /// when no range is pending.
    fn enter_next_range(&mut self) -> bool {
        let Some((start, end)) = self.pending.pop_front() else {
            return false;
        };
        // The spill is safe to treat as "allocated then freed": `next`
        // jumps past these blocks, so the `free() < next` invariant
        // holds the moment the switch completes.
        for b in self.next..self.limit {
            self.free.insert(b);
        }
        self.next = start;
        self.limit = end;
        true
    }

    /// Allocates one block, preferring recycled blocks. Returns `None`
    /// when the device is full.
    #[must_use = "allocation fails when the device is full"]
    pub fn alloc(&mut self) -> Option<u64> {
        if let Some(&block) = self.free.iter().next() {
            self.free.remove(&block);
            return Some(block);
        }
        loop {
            if self.next < self.limit {
                let block = self.next;
                self.next += 1;
                return Some(block);
            }
            if !self.enter_next_range() {
                return None;
            }
        }
    }

    /// Allocates `n` *contiguous* blocks and returns the first, or `None`
    /// when no run of `n` blocks is available: a run from the free list
    /// if there is one, otherwise the bump frontier grows. For callers
    /// that address the blocks by offset (an object's metadata slots).
    #[must_use = "allocation fails when the device is full"]
    pub fn alloc_contiguous(&mut self, n: u64) -> Option<u64> {
        if n == 0 {
            return Some(self.next);
        }
        self.take_free_run(n).or_else(|| self.bump(n))
    }

    /// Allocates the `n` blocks of one commit's data extent and returns
    /// them in write order, or `None` (nothing allocated) when the device
    /// is full.
    ///
    /// A run of recycled blocks is preferred, so a commit stays one
    /// sequential extent wherever the free list allows it. When there is
    /// no such run the extent **scatters**: recycled blocks lowest first,
    /// topped up from the bump frontier — a vectored write names its
    /// blocks one by one and the device prices it by their count, not
    /// their adjacency. Without the scatter a commit wider than any
    /// recycled run would bump the frontier every time, recycled singles
    /// would never be reused by data, and the free set (walked here,
    /// cloned by every abort snapshot) would grow without bound.
    #[must_use = "allocation fails when the device is full"]
    pub fn alloc_extent(&mut self, n: u64) -> Option<Vec<u64>> {
        if let Some(first) = self.take_free_run(n) {
            return Some((first..first + n).collect());
        }
        let mut blocks: Vec<u64> = self.free.iter().copied().take(n as usize).collect();
        let fresh = n - blocks.len() as u64;
        let first = self.bump(fresh)?;
        for b in &blocks {
            self.free.remove(b);
        }
        blocks.extend(first..first + fresh);
        Some(blocks)
    }

    /// Takes `n ≥ 1` consecutive blocks out of the free set, lowest run
    /// first.
    fn take_free_run(&mut self, n: u64) -> Option<u64> {
        let mut run_start = 0;
        let mut run_len = 0u64;
        let mut prev = None;
        for &b in &self.free {
            match prev {
                Some(p) if b == p + 1 => run_len += 1,
                _ => {
                    run_start = b;
                    run_len = 1;
                }
            }
            prev = Some(b);
            if run_len == n {
                for blk in run_start..run_start + n {
                    self.free.remove(&blk);
                }
                return Some(run_start);
            }
        }
        None
    }

    /// Takes `n` fresh contiguous blocks from the bump frontier,
    /// switching granted ranges (spilling each abandoned tail into the
    /// free set) until one fits.
    fn bump(&mut self, n: u64) -> Option<u64> {
        loop {
            if self.next + n <= self.limit {
                let first = self.next;
                self.next += n;
                return Some(first);
            }
            if !self.enter_next_range() {
                return None;
            }
        }
    }

    /// Returns a block to the free list.
    pub fn free(&mut self, block: u64) {
        debug_assert!(
            block < self.next,
            "freeing a block that was never allocated"
        );
        self.free.insert(block);
    }

    /// The next fresh (never-allocated) block.
    pub fn high_water(&self) -> u64 {
        self.next
    }

    /// Number of blocks currently on the free list.
    pub fn free_blocks(&self) -> usize {
        self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_is_sequential() {
        let mut a = BlockAllocator::bounded(10, u64::MAX);
        assert_eq!(a.alloc(), Some(10));
        assert_eq!(a.alloc(), Some(11));
        assert_eq!(a.high_water(), 12);
    }

    #[test]
    fn free_list_recycles() {
        let mut a = BlockAllocator::bounded(0, u64::MAX);
        let b = a.alloc().unwrap();
        a.free(b);
        assert_eq!(a.free_blocks(), 1);
        assert_eq!(a.alloc(), Some(b));
        assert_eq!(a.free_blocks(), 0);
    }

    #[test]
    fn contiguous_prefers_recycled_runs() {
        let mut a = BlockAllocator::bounded(0, u64::MAX);
        let first = a.alloc_contiguous(8).unwrap();
        assert_eq!(first, 0);
        // Free a 4-run in the middle plus a stray block.
        for b in 2..6 {
            a.free(b);
        }
        a.free(7);
        let reused = a.alloc_contiguous(4).unwrap();
        assert_eq!(reused, 2, "must reuse the freed run, not bump");
        assert_eq!(a.high_water(), 8, "frontier must not grow");
        // No 3-run left (only block 7): next request bumps.
        let fresh = a.alloc_contiguous(3).unwrap();
        assert_eq!(fresh, 8);
    }

    #[test]
    fn extent_takes_a_run_else_scatters_recycled_blocks_then_bumps() {
        let mut a = BlockAllocator::bounded(0, 20);
        assert_eq!(a.alloc_extent(10), Some((0..10).collect()));
        for b in [1, 4, 5, 8] {
            a.free(b);
        }
        // A recycled run that fits is one sequential extent.
        assert_eq!(a.alloc_extent(2), Some(vec![4, 5]));
        // No run of three: recycled singles first, the frontier for the rest.
        assert_eq!(a.alloc_extent(3), Some(vec![1, 8, 10]));
        assert_eq!((a.free_blocks(), a.high_water()), (0, 11));
        // A demand the device cannot meet allocates nothing.
        a.free(3);
        let before = a.clone();
        assert_eq!(a.alloc_extent(11), None);
        assert_eq!(a, before);
        assert_eq!(
            a.alloc_extent(10),
            Some(vec![3, 11, 12, 13, 14, 15, 16, 17, 18, 19])
        );
        assert_eq!(a.alloc_extent(0), Some(Vec::new()));
    }

    #[test]
    fn extents_wider_than_any_recycled_run_keep_the_free_set_bounded() {
        // Each round frees scattered singles and then asks for an extent
        // no recycled run can hold — the shape of a full root that writes
        // out a window of line-grain commits.
        let mut a = BlockAllocator::bounded(0, u64::MAX);
        let mut live: Vec<u64> = a.alloc_extent(400).unwrap();
        for round in 0..200 {
            for i in 0..40 {
                a.free(live.swap_remove((round * 7 + i * 3) % live.len()));
            }
            live.extend(a.alloc_extent(40).unwrap());
            assert!(a.free_blocks() < 40, "round {round}: {}", a.free_blocks());
        }
        assert_eq!(a.high_water(), 400, "every extent was recycled blocks");
    }

    #[test]
    fn capacity_ceiling_is_enforced() {
        let mut a = BlockAllocator::bounded(0, 4);
        assert_eq!(a.alloc_contiguous(3), Some(0));
        assert_eq!(a.alloc_contiguous(2), None, "only one block left");
        assert_eq!(a.alloc(), Some(3));
        assert_eq!(a.alloc(), None, "device full");
        // Freeing makes room again.
        a.free(1);
        assert_eq!(a.alloc(), Some(1));
    }

    #[test]
    fn allocator_stops_at_the_range_end() {
        let mut a = BlockAllocator::bounded(100, 104);
        assert_eq!(a.alloc_contiguous(3), Some(100));
        assert_eq!(a.alloc_contiguous(2), None, "range exhausted");
        assert_eq!(a.alloc(), Some(103));
        assert_eq!(a.alloc(), None);
        // An empty bounded allocator hands out nothing at all.
        let mut empty = BlockAllocator::bounded(50, 50);
        assert_eq!(empty.alloc(), None);
        assert_eq!(empty.alloc_contiguous(1), None);
    }

    #[test]
    fn add_range_extends_or_queues_grants() {
        let mut a = BlockAllocator::bounded(100, 104);
        // Abutting grant extends the live range in place.
        a.add_range(104, 108);
        assert_eq!(a.alloc_contiguous(6), Some(100));
        // Disjoint grant queues; the switch spills the tail into the
        // free set so no granted block is lost.
        a.add_range(200, 208);
        assert_eq!(a.alloc_contiguous(4), Some(200), "switched ranges");
        assert_eq!(a.free_blocks(), 2, "blocks 106..108 spilled, not lost");
        assert_eq!(a.alloc(), Some(106));
        assert_eq!(a.alloc(), Some(107));
        assert_eq!(a.alloc(), Some(204));
        assert_eq!(a.alloc_contiguous(4), None, "both grants exhausted");
        assert_eq!(a.high_water(), 205);
    }

    #[test]
    fn steady_state_footprint_is_bounded() {
        // Allocate/free extents in a loop: the frontier must stop growing
        // once recycling kicks in.
        let mut a = BlockAllocator::bounded(0, u64::MAX);
        let mut last_high_water = 0;
        for round in 0..100 {
            let first = a.alloc_contiguous(16).unwrap();
            for b in first..first + 16 {
                a.free(b);
            }
            if round > 0 {
                assert_eq!(a.high_water(), last_high_water, "round {round} grew");
            }
            last_high_water = a.high_water();
        }
        assert_eq!(last_high_water, 16);
    }
}
