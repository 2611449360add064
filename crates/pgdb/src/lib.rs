//! PgDB: the PostgreSQL case study (§7.3, Figure 6).
//!
//! A PostgreSQL-shaped multi-connection MVCC engine: heap tables of
//! **8 KiB blocks** (PostgreSQL's default block size) holding slotted,
//! append-only tuple versions — updates append a new version and mark the
//! old one dead, which is the MVCC behaviour that lets MemSnap flush
//! pages containing uncommitted appends safely (properties ② and ③ "are
//! satisfied due to MVCC semantics").
//!
//! All block IO flows through a [`BlockStore`], with the four storage
//! stacks Figure 6 compares:
//!
//! - [`StoreVariant::Baseline`]: buffer cache + WAL with full-page writes
//!   on FFS; a checkpointer flushes dirty buffers when the WAL fills.
//! - [`StoreVariant::FfsMmap`]: table data memory-mapped; reads are plain
//!   loads but writes fault and checkpoints must msync scattered pages —
//!   the classic "are you sure you want to use mmap in your DBMS"
//!   penalty.
//! - [`StoreVariant::FfsMmapBufdirect`]: additionally modifies mapped
//!   data in place, logging a full page image per modification — more
//!   write amplification, fewer batching opportunities.
//! - [`StoreVariant::MemSnap`]: table blocks live in MemSnap regions
//!   (one per table, mapped into every connection's address space);
//!   `full_page_writes` is off, the WAL is gone, and a commit is one
//!   `msnap_persist` covering the transaction's dirty pages across all
//!   regions.
//!
//! The TPC-C driver (in `msnap-bench`) reports transactions/s, disk
//! MiB/s and IO/s for each variant — the three panels of Figure 6.

#![warn(missing_docs)]

mod engine;
mod store;

pub use engine::{PgDb, PgTable};
pub use store::{BlockStore, IoReport, StoreVariant, PG_BLOCK};
