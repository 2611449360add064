//! Simulated NVMe block storage for the MemSnap reproduction.
//!
//! The paper evaluates on **two Intel Optane 900P PCIe SSDs striped in
//! 64 KiB blocks**. This crate substitutes that hardware with a
//! deterministic model (see DESIGN.md §2):
//!
//! - Data is held in memory at 4 KiB block granularity, so crash-recovery
//!   tests operate on real bytes.
//! - Latency follows a calibrated linear model (`~15 μs` setup + stream
//!   bandwidth), reproducing the paper's direct-IO column of Table 6
//!   (17 μs @ 4 KiB … 44 μs @ 64 KiB, one outstanding IO).
//! - Large or vectored IOs — writes ([`Disk::writev_at`]) and reads
//!   ([`Disk::try_readv_at`]) alike — are split at the stripe size across
//!   the two device channels, so queue depth > 1 overlaps — the effect
//!   that makes MemSnap's scatter/gather writes beat QD1 direct IO at
//!   large sizes, and a bulk read cost far less than a loop of one-block
//!   reads.
//! - Writes become durable at their *completion instant*; [`Disk::crash`]
//!   rolls back every write that had not completed, which is the failure
//!   model the paper's COW object store defends against.
//!
//! # Example
//!
//! ```
//! use msnap_disk::{Disk, DiskConfig, BLOCK_SIZE};
//! use msnap_sim::Vt;
//!
//! let mut disk = Disk::new(DiskConfig::paper());
//! let mut vt = Vt::new(0);
//! let data = [7u8; BLOCK_SIZE];
//! // Synchronous: waits for the IO. Writes are fallible — the device can
//! // run out of space or have a fault plan installed (see `FaultPlan`).
//! disk.write_block(&mut vt, 42, &data).expect("no faults installed");
//! let mut out = [0u8; BLOCK_SIZE];
//! // Reads are fallible too (see `ReadFaultPlan`).
//! disk.try_read_block(&mut vt, 42, &mut out).expect("no faults installed");
//! assert_eq!(out, data);
//! ```

#![warn(missing_docs)]

mod device;
mod fault;
mod model;
mod stats;

pub use device::{crash_at_every_io, Disk, WriteToken};
pub use fault::{
    Fault, FaultInjector, FaultPlan, FaultProfile, InjectedFault, IoError, ReadFault, ReadFaultPlan,
};
pub use model::DiskConfig;
pub use stats::IoStats;

/// The device's atomic write unit and the unit of all IO, in bytes.
///
/// The paper's MemSnap flushes at 4 KiB page granularity; we use the same
/// unit as the disk block size.
pub const BLOCK_SIZE: usize = 4096;
