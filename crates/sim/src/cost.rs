//! CPU-time attribution.
//!
//! The paper's Tables 1 and 8 break application execution time down into
//! userspace and kernel categories. Every simulated component charges its
//! virtual CPU time to a [`Category`] through [`CostTracker`], and the bench
//! harnesses print the same rows as the paper.

use std::collections::BTreeMap;
use std::fmt;

use crate::Nanos;

/// A CPU-time attribution category.
///
/// The variants mirror the rows of the paper's CPU breakdown tables:
/// Table 1 (baseline RocksDB, userspace + kernel) and Table 8 (SQLite,
/// baseline vs MemSnap).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum Category {
    // -- Userspace (Table 1 rows) --
    /// In-memory transaction work: updating the primary data structure.
    TxMemory,
    /// Building and appending write-ahead-log records.
    Log,
    /// Preparing the on-disk representation of a transaction (SSTables,
    /// checkpoint images).
    TxDisk,
    /// Assembling IO vectors / write batches before entering the kernel.
    IoGeneration,
    /// Serializing records to their on-disk byte format.
    Serialization,
    /// Userspace work not otherwise attributed (query parsing, hashing,
    /// comparisons, …).
    OtherUserspace,

    // -- Kernel (Table 1 rows) --
    /// Buffer-cache lookups and page insertions.
    BufferCache,
    /// File-system-specific code (block allocation, journaling, COW tree
    /// updates).
    FileSystem,
    /// Virtual-file-system dispatch.
    Vfs,
    /// Kernel lock acquisition.
    Locking,
    /// File range locks taken around write/fsync.
    Rangelock,
    /// Syscall entry/exit overhead.
    Syscall,

    // -- MemSnap rows (Table 8) --
    /// `msnap_persist` CPU cost excluding the flush itself.
    Memsnap,
    /// Issuing and completing μCheckpoint IO.
    MemsnapFlush,
    /// Minor write faults taken for dirty-set tracking, and CIP COW faults.
    PageFault,

    // -- Generic --
    /// Time spent blocked on disk IO completion.
    IoWait,
    /// Anything else; labeled.
    Other(&'static str),
}

impl Category {
    /// Whether this category counts as kernel time in the paper's tables.
    pub fn is_kernel(self) -> bool {
        matches!(
            self,
            Category::BufferCache
                | Category::FileSystem
                | Category::Vfs
                | Category::Locking
                | Category::Rangelock
                | Category::Syscall
                | Category::Memsnap
                | Category::MemsnapFlush
                | Category::PageFault
        )
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Category::TxMemory => "Tx Memory",
            Category::Log => "Log",
            Category::TxDisk => "Tx Disk",
            Category::IoGeneration => "IO Generation",
            Category::Serialization => "Serialization",
            Category::OtherUserspace => "Other Userspace",
            Category::BufferCache => "Buffer Cache",
            Category::FileSystem => "File System",
            Category::Vfs => "VFS",
            Category::Locking => "Locking",
            Category::Rangelock => "Rangelock",
            Category::Syscall => "Syscall",
            Category::Memsnap => "memsnap",
            Category::MemsnapFlush => "memsnap flush",
            Category::PageFault => "page faults",
            Category::IoWait => "IO wait",
            Category::Other(s) => s,
        };
        f.write_str(name)
    }
}

/// Accumulates virtual CPU time per [`Category`].
///
/// Each [`Vt`](crate::Vt) owns one tracker; merge per-thread trackers with
/// [`CostTracker::merge`] to get a whole-workload breakdown.
///
/// # Example
///
/// ```
/// use msnap_sim::{Category, CostTracker, Nanos};
///
/// let mut costs = CostTracker::new();
/// costs.add(Category::Log, Nanos::from_us(8));
/// costs.add(Category::Syscall, Nanos::from_us(2));
/// assert_eq!(costs.total(), Nanos::from_us(10));
/// assert_eq!(costs.kernel_total(), Nanos::from_us(2));
/// ```
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CostTracker {
    by_category: BTreeMap<Category, Nanos>,
}

impl CostTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `dur` to `category`.
    pub fn add(&mut self, category: Category, dur: Nanos) {
        *self.by_category.entry(category).or_insert(Nanos::ZERO) += dur;
    }

    /// Time attributed to `category` so far.
    pub fn get(&self, category: Category) -> Nanos {
        self.by_category
            .get(&category)
            .copied()
            .unwrap_or(Nanos::ZERO)
    }

    /// Sum over all categories.
    pub fn total(&self) -> Nanos {
        self.by_category.values().copied().sum()
    }

    /// Sum over kernel categories (see [`Category::is_kernel`]).
    pub fn kernel_total(&self) -> Nanos {
        self.by_category
            .iter()
            .filter(|(c, _)| c.is_kernel())
            .map(|(_, d)| *d)
            .sum()
    }

    /// Sum over userspace categories.
    pub fn userspace_total(&self) -> Nanos {
        self.total() - self.kernel_total()
    }

    /// Folds another tracker into this one.
    pub fn merge(&mut self, other: &CostTracker) {
        for (category, dur) in &other.by_category {
            self.add(*category, *dur);
        }
    }

    /// Iterates over `(category, time)` pairs in category order.
    pub fn iter(&self) -> impl Iterator<Item = (Category, Nanos)> + '_ {
        self.by_category.iter().map(|(c, d)| (*c, *d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl CostTracker {
        /// Fraction of total time in `category`, in `[0, 1]`; zero if
        /// empty.
        fn fraction(&self, category: Category) -> f64 {
            let total = self.total().as_ns();
            if total == 0 {
                0.0
            } else {
                self.get(category).as_ns() as f64 / total as f64
            }
        }
    }

    #[test]
    fn add_and_get() {
        let mut t = CostTracker::new();
        t.add(Category::TxMemory, Nanos::from_us(3));
        t.add(Category::TxMemory, Nanos::from_us(2));
        assert_eq!(t.get(Category::TxMemory), Nanos::from_us(5));
        assert_eq!(t.get(Category::Log), Nanos::ZERO);
    }

    #[test]
    fn kernel_userspace_split() {
        let mut t = CostTracker::new();
        t.add(Category::TxMemory, Nanos::from_us(6));
        t.add(Category::Vfs, Nanos::from_us(3));
        t.add(Category::PageFault, Nanos::from_us(1));
        assert_eq!(t.kernel_total(), Nanos::from_us(4));
        assert_eq!(t.userspace_total(), Nanos::from_us(6));
        assert_eq!(t.total(), Nanos::from_us(10));
    }

    #[test]
    fn merge_accumulates() {
        let mut a = CostTracker::new();
        a.add(Category::Log, Nanos::from_us(1));
        let mut b = CostTracker::new();
        b.add(Category::Log, Nanos::from_us(2));
        b.add(Category::Syscall, Nanos::from_us(4));
        a.merge(&b);
        assert_eq!(a.get(Category::Log), Nanos::from_us(3));
        assert_eq!(a.get(Category::Syscall), Nanos::from_us(4));
    }

    #[test]
    fn fraction_of_total() {
        let mut t = CostTracker::new();
        assert_eq!(t.fraction(Category::Log), 0.0);
        t.add(Category::Log, Nanos::from_us(1));
        t.add(Category::Syscall, Nanos::from_us(3));
        assert!((t.fraction(Category::Log) - 0.25).abs() < 1e-9);
    }

    #[test]
    fn custom_category_display() {
        assert_eq!(Category::Other("compaction").to_string(), "compaction");
        assert_eq!(Category::MemsnapFlush.to_string(), "memsnap flush");
    }
}
