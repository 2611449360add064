//! The MemSnap copy-on-write object store.
//!
//! MemSnap persists μCheckpoints into a purpose-built COW object store
//! (paper §3, "Persisting MemSnap Regions"). This crate implements that
//! store over the simulated block device:
//!
//! - Objects are named, page-addressed, and independent: each keeps its own
//!   **monotonic epoch** that increments per μCheckpoint, so checkpoints of
//!   different objects commit concurrently with no global serialization.
//! - Each object's pages are indexed by a **COW radix tree** (fanout 512,
//!   one node per 4 KiB block). A μCheckpoint writes new data blocks (bump-
//!   allocated, hence *sequential on disk even for random page updates*),
//!   then COW-rewrites the tree path bottom-up, then commits by writing a
//!   checksummed **root record** into one of two alternating root slots.
//! - Crash recovery reads both root slots of every object and adopts the
//!   valid record with the highest epoch; an interrupted μCheckpoint leaves
//!   the previous root untouched, so "region data is consistent after a
//!   crash" (paper §4).
//! - The store performs **direct IO**: no buffer cache; reads and writes go
//!   straight to the device, as in the paper ("the store … does direct IO").
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
    digest32, fnv1a, fnv1a_extend, pack_entry, unpack_entry, BatchRecord, DeltaRecord, Epoch,
    ObjectId, RootRecord, ShardLayout, SnapCatalog, SnapEntry, Superblock, BATCH_SLOTS,
    DELTA_SLOTS, DIGEST_NONE, FNV_OFFSET, INLINE_BLOCK, MAX_DELTA_PAIRS, MAX_SHARDS, MAX_SNAPSHOTS,
};
pub use radix::{RadixTree, TreeError};
pub use shard::{shard_of_name, ExtentBroker, ObjectStore, VectorCut, DEFAULT_EXTENT_BLOCKS};
pub use store::{
    CommitPage, CommitToken, ScrubStats, StoreError, StoreShard, StoreStats, UnrepairedPage,
    BULK_READ_PAGES, DEFAULT_CACHE_BLOCKS, MAX_IO_ATTEMPTS, OVERLAY_PAGE_BUDGET,
};
