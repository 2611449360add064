//! LiteDB: the SQLite case study (§7.1).
//!
//! A SQLite-shaped embedded storage engine: tables are page-oriented
//! B-trees (4 KiB pages, page-aligned nodes), a single writer holds the
//! database write lock for the duration of a write transaction, and all
//! persistence flows through a pluggable backend — the equivalent of
//! SQLite's VFS layer, which is exactly where the paper's 347-SLOC plugin
//! attaches:
//!
//! - [`FileBackend`]: the baseline. WAL mode on a simulated file system —
//!   every page write appends a WAL frame, commits `fsync` the WAL, and
//!   when the WAL exceeds 4 MiB its frames are checkpointed into the DB
//!   file with random writes plus two more fsyncs. This is the
//!   write-amplification machine Table 7 measures.
//! - [`MemSnapBackend`]: the plugin. The database lives in one MemSnap
//!   region, pages are modified in place, and a commit is a single
//!   `msnap_persist` of the transaction's dirty set. No WAL, no
//!   checkpoint, no read/write syscalls.
//!
//! The engine satisfies the paper's three crash-consistency properties:
//! all data lives in the region (①), B-tree nodes are page-aligned and
//! the page size matches the tracking granularity (②), and the single
//! writer lock prevents concurrent transactions from dirtying the same
//! page (③).
//!
//! # Example
//!
//! ```
//! use msnap_disk::{Disk, DiskConfig};
//! use msnap_litedb::{LiteDb, MemSnapBackend};
//! use msnap_sim::Vt;
//!
//! let mut vt = Vt::new(0);
//! let backend = MemSnapBackend::format(Disk::new(DiskConfig::paper()), "bank.db", &mut vt);
//! let mut db = LiteDb::open(Box::new(backend), &mut vt).unwrap();
//! let accounts = db.create_table(&mut vt, "accounts");
//!
//! let thread = vt.id();
//! db.begin(&mut vt, thread);
//! db.put(&mut vt, thread, accounts, 1001, b"balance=250");
//! db.commit(&mut vt, thread); // one msnap_persist, durable
//! assert_eq!(db.get(&mut vt, accounts, 1001), Some(b"balance=250".to_vec()));
//! ```

#![warn(missing_docs)]

mod backend;
mod btree;
mod engine;
mod file_backend;
mod memsnap_backend;

pub use backend::{Backend, BackendStats, CommitError};
pub use btree::CorruptPage;
pub use engine::{LiteDb, TableId};
pub use file_backend::FileBackend;
pub use memsnap_backend::MemSnapBackend;

/// Database page size: 4 KiB, matching MemSnap's tracking granularity
/// (the paper configures SQLite the same way to satisfy property ②).
pub const PAGE_SIZE: usize = 4096;
