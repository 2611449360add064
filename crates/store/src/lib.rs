//! The MemSnap copy-on-write object store.
//!
//! MemSnap persists μCheckpoints into a purpose-built COW object store
//! (paper §3, "Persisting MemSnap Regions"). This crate implements that
//! store over the simulated block device; [`ObjectStore`] is its one
//! public store type.
//!
//! - Objects are named, page-addressed and independent: each keeps its own
//!   **monotonic epoch**, one per μCheckpoint, and hashes to one of `N`
//!   shards, each a complete store fed disjoint extents by a broker.
//! - Each object's pages are indexed by a **COW radix tree** (fanout 512,
//!   one node per 4 KiB block, each entry carrying its child's digest).
//! - A μCheckpoint writes its pages as one bump-allocated extent
//!   (sequential on disk even for random page updates) and commits with
//!   **one record block**, a delta record in the object's own ring. A
//!   group commit of several objects shares one extent and writes each
//!   object's record into that object's ring, all in one vectored
//!   submission. If the caller names the 64-byte lines it changed and they fit, the record
//!   carries the lines and is the only write; the patched pages wait in
//!   the object's in-memory **overlay**, which reads consult first. A
//!   line commit that arrives while its object's previous line record is
//!   still queued on the device **folds** into that record and writes
//!   nothing; every record carries the tag of the tip it extends.
//! - A **full root** writes dirty nodes and overlay pages, then a root
//!   record into one of two alternating slots. Every 20th epoch an
//!   in-place commit first writes one as a **compaction root** that no
//!   acknowledgement waits for, and a record waits only for the root
//!   that covers the ring slot it reuses; an oversized commit, or one 255
//!   epochs above its object's newest root, is itself a full root.
//!   Recovery adopts the newest valid root and
//!   replays the records above it through the apply the commit path uses,
//!   so "region data is consistent after a crash" (paper §4).
//! - Reads verify every block against its digest and go through a CLOCK
//!   [`BlockCache`] that writes invalidate; a scrubber re-verifies media.
//!   Replication lands ships, fences and rebases through one image door,
//!   [`ObjectStore::apply_image`].
//!
//! `shard.rs` is the façade; `store.rs` holds one shard's state, and
//! `store/{commit,overlay,replay,snapshot,read,scrub,replica}.rs` each add
//! one path to it.
//!
//! # Example
//!
//! ```
//! use msnap_disk::{Disk, DiskConfig, BLOCK_SIZE};
//! use msnap_sim::Vt;
//! use msnap_store::ObjectStore;
//!
//! let mut disk = Disk::new(DiskConfig::fast());
//! let mut store = ObjectStore::format(&mut disk);
//! let mut vt = Vt::new(0);
//!
//! let obj = store.create(&mut vt, &mut disk, "table.db")?;
//! let page = [9u8; BLOCK_SIZE];
//! let commit = store.persist(&mut vt, &mut disk, obj, &[(0, &page)])?;
//! assert_eq!(commit.epoch, 1);
//!
//! let mut out = [0u8; BLOCK_SIZE];
//! store.read_page(&mut vt, &mut disk, obj, 0, &mut out)?;
//! assert_eq!(out, page);
//! # Ok::<(), msnap_store::StoreError>(())
//! ```

#![warn(missing_docs)]

mod alloc;
mod cache;
mod layout;
pub mod lines;
mod radix;
mod shard;
mod store;

pub use alloc::BlockAllocator;
pub use cache::BlockCache;
pub use layout::{
    digest32, fnv1a, fnv1a_extend, pack_entry, unpack_entry, DeltaRecord, Epoch, ObjectId,
    RootRecord, ShardLayout, SnapCatalog, SnapEntry, Superblock, VectorCut, COMPACT_AFTER,
    DELTA_SLOTS, DIGEST_NONE, FNV_OFFSET, INLINE_BLOCK, JOURNAL_CAP, MAX_DELTA_PAIRS, MAX_SHARDS,
    MAX_SNAPSHOTS,
};
pub use radix::{RadixTree, TreeError};
pub use shard::{shard_of_name, ExtentBroker, ObjectStore, DEFAULT_EXTENT_BLOCKS};
pub use store::{
    CommitPage, CommitToken, ScrubStats, StoreError, StoreStats, UnrepairedPage, BULK_READ_PAGES,
    DEFAULT_CACHE_BLOCKS, MAX_IO_ATTEMPTS, OVERLAY_PAGE_BUDGET,
};
