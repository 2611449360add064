//! Virtual-time substrate for the MemSnap reproduction.
//!
//! The MemSnap paper ([Tsalapatis et al., ASPLOS 2024]) evaluates a kernel
//! mechanism on specific NVMe hardware. This reproduction replaces wall-clock
//! measurement with a *deterministic discrete-event simulation*: every
//! modeled step (page fault, PTE write, TLB shootdown, disk IO, syscall
//! entry, …) charges a calibrated number of nanoseconds to a per-virtual-
//! thread clock. Benchmarks then report virtual latencies and virtual
//! throughput, which reproduces the *shape* of the paper's results on any
//! machine.
//!
//! The crate provides:
//!
//! - [`Nanos`]: a virtual-time instant/duration newtype.
//! - [`Vt`]: a virtual thread — a clock plus a per-thread cost tracker.
//! - [`ChannelPool`]: the availability-time model for shared hardware
//!   (a device's channels; work lands on the earliest-free one).
//! - [`SimLink`] / [`NetConfig`]: a deterministic seeded lossy network
//!   link (latency, bandwidth, drops, reordering, partitions) for
//!   replication experiments.
//! - [`SimSwitch`]: an N-port hub of seeded links with fair round-robin
//!   polling, for multi-client fan-in (network services).
//! - [`SimLock`]: a virtual-time mutex usable from conservatively scheduled
//!   virtual threads.
//! - [`Scheduler`] and [`Process`]: a conservative (min-clock-first)
//!   discrete-event scheduler for multi-threaded workloads, or with
//!   [`Scheduler::seeded`] a seeded pseudo-random interleaving for
//!   reproducible concurrency proofs (linearizability, recovery).
//! - [`LatencyStats`] / [`Meters`]: log-linear histograms for latency
//!   percentiles and named call-site statistics.
//! - [`CostTracker`] / [`Category`]: CPU-time attribution used to reproduce
//!   the paper's CPU-breakdown tables (Tables 1 and 8).
//! - [`hash`]: the workspace's one FNV-1a (64- and 32-bit) and one
//!   splitmix64 mixer.
//! - [`wire`]: the little-endian `put_*` appenders and bounds-checked
//!   [`wire::Reader`] every wire format is written and read with.
//! - [`zero_tail`]: the one trailing-zero scan and pad-on-read, for the
//!   device's blocks and the VM's page frames.
//!
//! # Example
//!
//! ```
//! use msnap_sim::{Nanos, Vt, Category};
//!
//! let mut vt = Vt::new(0);
//! vt.charge(Category::Syscall, Nanos::from_us(2));
//! assert_eq!(vt.now(), Nanos::from_us(2));
//! assert_eq!(vt.costs().total(), Nanos::from_us(2));
//! ```
//!
//! [Tsalapatis et al., ASPLOS 2024]: https://doi.org/10.1145/3620666.3651334

#![warn(missing_docs)]

mod cost;
pub mod hash;
mod lock;
mod net;
mod resource;
mod sched;
mod stats;
mod time;
mod vthread;
pub mod wire;
pub mod zero_tail;

pub use cost::{Category, CostTracker};
pub use lock::SimLock;
pub use net::{LinkStats, NetConfig, SimLink, SimSwitch};
pub use resource::ChannelPool;
pub use sched::{Process, Scheduler, StepOutcome};
pub use stats::{LatencyStats, Meters};
pub use time::Nanos;
pub use vthread::{Vt, VthreadId};
