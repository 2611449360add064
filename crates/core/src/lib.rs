//! MemSnap μCheckpoints: a data single level store.
//!
//! This crate is the paper's primary contribution — the MemSnap API of
//! Table 4 — implemented over the simulated VM subsystem ([`msnap_vm`])
//! and the COW object store ([`msnap_store`]):
//!
//! | Paper call | Here |
//! |---|---|
//! | `int msnap_open(name, &addr, len, flags)` | [`MemSnap::msnap_open`] |
//! | `epoch_t msnap_persist(md, flags)` | [`MemSnap::msnap_persist`] |
//! | `int msnap_wait(md, epoch)` | [`MemSnap::msnap_wait`] |
//! | `epoch_t msnap_snapshot(md, name)` | [`MemSnap::msnap_snapshot`] |
//! | `int msnap_open_at(name, &addr)` | [`MemSnap::msnap_open_at`] |
//! | `epoch_t msnap_rollback(name)` | [`MemSnap::msnap_rollback`] |
//!
//! Semantics reproduced from §3–§4:
//!
//! - **Regions** are named, page-granular memory areas mapped at a unique
//!   fixed virtual address (pointers into a region stay valid across
//!   crash + restore).
//! - **`msnap_persist`** builds a μCheckpoint from the *calling thread's*
//!   dirty set (or all threads' with [`PersistFlags::global`]), for one
//!   region or all regions. It initiates one scatter/gather IO into the
//!   object store, marks the pages checkpoint-in-progress (concurrent
//!   writers COW instead of blocking), re-arms write tracking via the
//!   trace buffer, and either waits (`MS_SYNC`) or returns immediately
//!   (`MS_ASYNC`).
//! - **`msnap_wait`** blocks until a previously returned epoch is durable.
//! - **One commit pipeline.** Every door — `msnap_persist` in place,
//!   [`MemSnap::msnap_persist_grouped`] through a coalescing window, the
//!   `MS_ASYNC` pipeline — takes its dirty set through one gather and
//!   reaches the store through one private `commit_batch` (durability
//!   first, memory second); the doors differ only in what they charge
//!   and when they freeze and re-arm the pages (DESIGN.md §6c).
//! - **Crash + restore**: [`MemSnap::crash`] simulates a power failure at a
//!   chosen instant; [`MemSnap::restore`] reopens the store, and
//!   `msnap_open` of an existing region remaps it at its original address
//!   and pages the durable image back in.
//!
//! # Example
//!
//! ```
//! use memsnap::{MemSnap, PersistFlags, RegionSel};
//! use msnap_disk::{Disk, DiskConfig};
//! use msnap_sim::Vt;
//!
//! let mut ms = MemSnap::format(Disk::new(DiskConfig::paper()));
//! let mut vt = Vt::new(0);
//! let space = ms.vm_mut().create_space();
//!
//! // Open a 16-page region and modify it in place.
//! let region = ms.msnap_open(&mut vt, space, "mydata", 16)?;
//! let thread = vt.id();
//! ms.write(&mut vt, space, thread, region.addr + 100, b"fearless")?;
//!
//! // One call persists the transaction; no WAL anywhere.
//! let epoch = ms.msnap_persist(&mut vt, thread,
//!                              RegionSel::Region(region.md), PersistFlags::sync())?;
//! ms.msnap_wait(&mut vt, RegionSel::Region(region.md), epoch)?;
//! # Ok::<(), memsnap::MsnapError>(())
//! ```

#![warn(missing_docs)]

mod api;
mod commit;
mod manifest;
mod types;

pub use api::MemSnap;
pub use types::{
    CommitTicket, IndexCarve, Md, MsnapError, PersistBreakdown, PersistFlags, RegionHandle,
    RegionSel, RestoreError, SnapshotView,
};

/// Region page size (4 KiB), re-exported from the VM.
pub use msnap_vm::PAGE_SIZE;

/// μCheckpoint epoch type (the paper's `epoch_t`).
pub use msnap_store::Epoch;

/// Per-slice integrity scrub report (see [`MemSnap::msnap_scrub`]),
/// re-exported from the store.
pub use msnap_store::ScrubStats;

/// Re-exported so callers can name and compare epoch-vector cuts
/// ([`MemSnap::msnap_cut`]).
pub use msnap_store::VectorCut;
