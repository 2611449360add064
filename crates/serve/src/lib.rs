//! msnap-serve: a multi-tenant network service over the replicated
//! MemSnap store.
//!
//! This crate closes the loop between the storage stack and its
//! clients: a deterministic actor-style front-end ([`ServeNode`])
//! multiplexes thousands of simulated connections ([`SimSwitch`]
//! datagram ports) onto one sharded, replicated MemSnap instance, and
//! feeds **watch streams** straight from μCheckpoint dirty sets — the
//! paper's single-level-store thesis applied to cache invalidation:
//! a commit already knows which 64-byte lines of which pages it
//! persisted, so "what changed in this epoch" is a record the commit
//! leaves behind, and subscribers are pushed exact key-range
//! invalidations with no polling, no diffing and no store scans.
//!
//! - [`wire`]: the length-prefixed, checksummed datagram protocol
//!   (`Hello`/`Put`/`Get`/`Scan`/`Subscribe`/`Unsubscribe`/
//!   `StatsReq` requests; cut-aligned `Notify` bundles back).
//! - [`server`]: the [`ServeNode`] actor round — control, write
//!   (group-committed μCheckpoints per tenant stripe), notify
//!   (dirty-line-record fan-out, released at epoch-vector cut
//!   boundaries), read (bounded-staleness replica routing) — plus
//!   crash/promotion re-homing. The actors live in `server/control.rs`,
//!   `server/write.rs` (write, notify, cut) and `server/read.rs`.
//!
//! The seeded fleet of oracle clients that drives a node (Zipfian
//! tenant×key skew, mid-run failover, exactly-once watch checks) is
//! test and bench code: it lives in `msnap-bench`.
//!
//! [`SimSwitch`]: msnap_sim::SimSwitch

#![warn(missing_docs)]

pub mod server;
pub mod wire;

pub use server::{ServeConfig, ServeError, ServeNode};
pub use wire::{ErrCode, NotifyEvent, Request, Response, WireError, WireStats};
