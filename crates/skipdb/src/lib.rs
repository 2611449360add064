//! SkipDB: the RocksDB case study (§7.2).
//!
//! A RocksDB-shaped key-value store whose MemTable is a skip list, with
//! the paper's three persistence architectures. The two single-level
//! ones share one page-per-node list and differ only in how its pages
//! persist:
//!
//! - [`BaselineKv`]: unmodified-RocksDB architecture. `Put` appends the
//!   record to a WAL and fsyncs, then inserts into a volatile skip list;
//!   when the MemTable exceeds its budget it is serialized into an
//!   SSTable file, and SSTables are merged by compaction — the sequential-
//!   but-amplified IO path of Table 1.
//! - [`MemSnapKv`]: the paper's integration. The skip list itself lives in
//!   a MemSnap region with **page-aligned nodes** (property ②) and
//!   **per-node locks** instead of CAS (property ③); a commit persists
//!   exactly the new node and its predecessor with one `msnap_persist`.
//!   Skip pointers are volatile and rebuilt by walking the restored
//!   linked list after a crash. No WAL, no SSTables, no compaction.
//! - [`AuroraKv`]: the same list, node pages and all, in an Aurora
//!   region — every write triggers a stop-the-world shadow checkpoint,
//!   reproducing the overheads of Tables 9/10.
//!
//! All three implement [`Kv`], so the MixGraph driver (in
//! `msnap-bench`) measures them identically.
//!
//! # Example
//!
//! ```
//! use msnap_disk::{Disk, DiskConfig};
//! use msnap_sim::Vt;
//! use msnap_skipdb::{Kv, MemSnapKv};
//!
//! let mut vt = Vt::new(0);
//! let mut kv = MemSnapKv::format(Disk::new(DiskConfig::paper()), 4096, &mut vt);
//! kv.put(&mut vt, 42, b"value");
//! assert_eq!(kv.get(&mut vt, 42), Some(b"value".to_vec()));
//! ```

#![warn(missing_docs)]

mod aurora_kv;
mod baseline;
mod kv;
mod memsnap_kv;
mod node;
mod pindex_kv;
mod plist;
mod rotating;
mod skiplist;

pub use aurora_kv::AuroraKv;
pub use baseline::BaselineKv;
pub use kv::{Kv, KvError, KvStats};
pub use memsnap_kv::MemSnapKv;
pub use pindex_kv::PIndexKv;
pub use rotating::RotatingMemSnapKv;
pub use skiplist::{Insert, SkipIndex};
