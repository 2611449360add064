//! A detectably-recoverable lock-free persistent index over a MemSnap
//! region.
//!
//! SkipDB's writer path serializes every mutator behind `&mut self`; the
//! group-commit and shard lanes underneath are therefore bounded by writer
//! serialization, not by the device. This crate removes the global writer
//! lock: many mutator threads operate on one shared persistent structure
//! with per-thread *detectable descriptors* instead of a lock, the idiom
//! of per-thread persistent logs in "Persistent Memory Transactions"
//! (Marathe et al.) and fine-grain in-line logging (Cohen et al.).
//!
//! The structure is [`PSkipList`], a lock-free skiplist laid out directly
//! in one MemSnap region. The crate owns that region's layout ([`Carve`]:
//! a checked header, per-writer log pages, a node arena) and reaches the
//! region through `msnap_open`, `read`, `write` and `msnap_persist`
//! only, so every write it makes rides an ordinary μCheckpoint. Keys and
//! payloads live in fixed 128-byte arena slots allocated from
//! writer-private pages; levels are CAS-linked. Nodes are permanent once
//! linked — updates and removes write in place (remove = tombstone flag),
//! so tower pointers never dangle.
//!
//! # Detectable operations
//!
//! Every mutation writes a descriptor — op id, kind, target slot, the
//! superseded op id, and the *inline value* — to the writer's private log
//! page **before** its linearizing CAS/write. A μCheckpoint of the region
//! therefore always captures a mutually consistent (descriptor, node)
//! pair for each writer: recovery can decide, for every in-flight
//! operation, whether its linearizing step landed, and replay or complete
//! it exactly once ([`RecoveryReport`]). Payloads are capped at
//! [`MAX_VALUE`] bytes so the descriptor alone suffices to replay an
//! operation whose structural writes landed on a page another thread
//! owned (the cross-thread dirty-set tear that per-thread μCheckpoints
//! make possible).
//!
//! Operations are steppable state machines ([`PutOp`]): each
//! [`PutOp::step`] performs one atomic action (log write, node write,
//! linearizing CAS), so [`msnap_sim::Scheduler::seeded`] can drive
//! seed-reproducible thread schedules between the atomic steps for
//! linearizability and recovery proofs.
//!
//! # Example
//!
//! ```
//! use memsnap::MemSnap;
//! use msnap_disk::{Disk, DiskConfig};
//! use msnap_pindex::PSkipList;
//! use msnap_sim::Vt;
//!
//! let mut ms = MemSnap::format(Disk::new(DiskConfig::paper()));
//! let mut vt = Vt::new(0);
//! let space = ms.vm_mut().create_space();
//! let mut sk = PSkipList::create(&mut ms, space, &mut vt, "index", 64, 4).unwrap();
//! sk.put(&mut ms, &mut vt, 0, 42, b"answer");
//! assert_eq!(sk.get(&mut ms, &mut vt, 42), Some(b"answer".to_vec()));
//! ```

#![warn(missing_docs)]

mod carve;
mod desc;
mod recover;
mod skiplist;

pub use carve::Carve;
pub use desc::{OpDesc, OpKind, LOG_ENTRIES};
pub use recover::RecoveryReport;
pub use skiplist::{OpOutcome, PSkipList, PutOp, MAX_LEVELS};

/// Sentinel "no slot" value.
pub const NIL: u32 = u32::MAX;

/// Maximum payload length: small enough that the value rides inline in
/// the 64-byte descriptor, which is what makes every operation replayable
/// from the writer's log alone.
pub const MAX_VALUE: usize = 24;

/// Encodes an operation id: writer in the high half, per-writer sequence
/// number (starting at 1) in the low half. `0` means "none".
pub fn op_id(writer: u32, seq: u32) -> u64 {
    (u64::from(writer) << 32) | u64::from(seq)
}

/// Splits an op id into `(writer, seq)`.
pub fn op_parts(op: u64) -> (u32, u32) {
    ((op >> 32) as u32, op as u32)
}

/// Splitmix64 scramble, for deterministic per-key tower levels.
pub(crate) fn scramble(x: u64) -> u64 {
    msnap_sim::hash::splitmix64(x.wrapping_add(0x9E37_79B9_7F4A_7C15))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_id_round_trips() {
        assert_eq!(op_parts(op_id(7, 12)), (7, 12));
        assert_eq!(op_id(0, 0), 0);
    }

    #[test]
    fn scramble_spreads_adjacent_keys() {
        let a = scramble(1);
        let b = scramble(2);
        assert_ne!(a & 0xFFFF, b & 0xFFFF);
    }
}
