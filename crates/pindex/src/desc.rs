//! Detectable operation descriptors: the per-writer persistent log.
//!
//! Each writer owns one private log page of the carve
//! ([`Carve::log_addr`]) holding a ring of
//! [`LOG_ENTRIES`] fixed 64-byte entries. An operation writes its entry —
//! including the full inline value — *before* its linearizing CAS, and a
//! later operation with the same ring position overwrites it. Because the
//! log page and the writer's node pages are private to the writer's dirty
//! set, every μCheckpoint captures a mutually consistent (descriptor,
//! node) pair, which is what makes the operation *detectable*: recovery
//! reads the ring and can replay or complete any in-flight operation
//! exactly once.
//!
//! The ring bounds how much history survives a crash: a writer must not
//! run more than [`LOG_ENTRIES`] operations between μCheckpoints of its
//! dirty set, or an un-replayable operation could be overwritten. The
//! drivers in `msnap-skipdb` enforce this per batch.

use memsnap::MemSnap;
use msnap_sim::hash::fnv1a32;
use msnap_sim::wire::Reader;
use msnap_sim::Vt;
use msnap_vm::AsId;

use crate::carve::Carve;
use crate::{op_id, MAX_VALUE};

/// Entries per writer log ring (one 4 KiB page of 64-byte entries).
pub const LOG_ENTRIES: usize = 64;

/// Encoded descriptor size.
pub(crate) const DESC_SIZE: usize = 64;

const DESC_MAGIC: u32 = 0x5058_4F50; // "PXOP"

/// What an operation does to its key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Link a fresh node (key was absent).
    Insert,
    /// Overwrite the value of an existing node in place.
    Update,
    /// Tombstone an existing node in place.
    Remove,
}

impl OpKind {
    fn encode(self) -> u8 {
        match self {
            OpKind::Insert => 1,
            OpKind::Update => 2,
            OpKind::Remove => 3,
        }
    }

    fn decode(b: u8) -> Option<Self> {
        match b {
            1 => Some(OpKind::Insert),
            2 => Some(OpKind::Update),
            3 => Some(OpKind::Remove),
            _ => None,
        }
    }
}

/// One detectable descriptor: everything recovery needs to decide whether
/// the operation's linearizing step landed, and to replay it if not.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpDesc {
    /// Owning writer (implied by the log page; not encoded).
    pub writer: u32,
    /// Per-writer sequence number, starting at 1.
    pub seq: u32,
    /// Operation kind.
    pub kind: OpKind,
    /// Target arena slot: the fresh node for inserts, the existing node
    /// for updates/removes.
    pub node_slot: u32,
    /// The key operated on.
    pub key: u64,
    /// Op id this operation supersedes (the target's op id observed at
    /// start), or 0 — recovery's happens-after edge between same-key
    /// operations.
    pub prev_op: u64,
    /// Inline payload (≤ [`MAX_VALUE`]; empty for removes).
    pub value: Vec<u8>,
}

impl OpDesc {
    /// The operation's id.
    pub fn op_id(&self) -> u64 {
        op_id(self.writer, self.seq)
    }

    /// The ring position this descriptor occupies.
    pub fn ring_pos(&self) -> usize {
        (self.seq as usize - 1) % LOG_ENTRIES
    }

    /// Encodes to the fixed 64-byte wire form.
    ///
    /// # Panics
    ///
    /// Panics if the value exceeds [`MAX_VALUE`] or `seq` is 0.
    pub fn encode(&self) -> [u8; DESC_SIZE] {
        assert!(self.value.len() <= MAX_VALUE, "value too large");
        assert!(self.seq != 0, "seq starts at 1");
        let mut b = [0u8; DESC_SIZE];
        b[0..4].copy_from_slice(&DESC_MAGIC.to_le_bytes());
        b[4..8].copy_from_slice(&self.seq.to_le_bytes());
        b[8] = self.kind.encode();
        b[10..12].copy_from_slice(&(self.value.len() as u16).to_le_bytes());
        b[12..16].copy_from_slice(&self.node_slot.to_le_bytes());
        b[16..24].copy_from_slice(&self.key.to_le_bytes());
        b[24..32].copy_from_slice(&self.prev_op.to_le_bytes());
        b[40..40 + self.value.len()].copy_from_slice(&self.value);
        let cs = desc_checksum(&b);
        b[32..36].copy_from_slice(&cs.to_le_bytes());
        b
    }

    /// Decodes and validates one ring entry; `None` for empty or torn
    /// entries.
    pub fn decode(writer: u32, b: &[u8]) -> Option<OpDesc> {
        let b = b.get(..DESC_SIZE)?;
        let mut r = Reader::new(b);
        let (magic, seq, kind) = (r.u32().ok()?, r.u32().ok()?, r.u8().ok()?);
        r.u8().ok()?; // pad
        let vlen = usize::from(r.u16().ok()?);
        let (node_slot, key, prev_op) = (r.u32().ok()?, r.u64().ok()?, r.u64().ok()?);
        let sum = r.u32().ok()?;
        r.u32().ok()?; // pad
        if magic != DESC_MAGIC || sum != desc_checksum(b) || vlen > MAX_VALUE || seq == 0 {
            return None;
        }
        Some(OpDesc {
            writer,
            seq,
            kind: OpKind::decode(kind)?,
            node_slot,
            key,
            prev_op,
            value: r.take(vlen).ok()?.to_vec(),
        })
    }

    /// Writes this descriptor into its writer's log ring. One atomic
    /// step; must precede the operation's linearizing CAS.
    pub(crate) fn publish(&self, ms: &mut MemSnap, space: AsId, vt: &mut Vt, carve: &Carve) {
        let addr = carve.log_addr(self.writer) + (self.ring_pos() * DESC_SIZE) as u64;
        let thread = vt.id();
        ms.write(vt, space, thread, addr, &self.encode())
            .expect("log page is mapped");
    }
}

fn desc_checksum(b: &[u8]) -> u32 {
    let mut payload = Vec::with_capacity(DESC_SIZE);
    payload.extend_from_slice(&b[0..32]);
    payload.extend_from_slice(&b[36..DESC_SIZE]);
    fnv1a32(&payload)
}

/// Reads every valid entry of one writer's ring, in seq order.
pub(crate) fn scan_ring(
    ms: &mut MemSnap,
    space: AsId,
    vt: &mut Vt,
    carve: &Carve,
    writer: u32,
) -> Vec<OpDesc> {
    let mut page = vec![0u8; LOG_ENTRIES * DESC_SIZE];
    ms.read(vt, space, carve.log_addr(writer), &mut page)
        .expect("log page is mapped");
    let mut out: Vec<OpDesc> = (0..LOG_ENTRIES)
        .filter_map(|i| OpDesc::decode(writer, &page[i * DESC_SIZE..(i + 1) * DESC_SIZE]))
        .collect();
    out.sort_by_key(|d| d.seq);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NIL;

    fn sample() -> OpDesc {
        OpDesc {
            writer: 3,
            seq: 9,
            kind: OpKind::Update,
            node_slot: 77,
            key: 0xDEAD_BEEF,
            prev_op: op_id(1, 4),
            value: b"hello".to_vec(),
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let d = sample();
        let got = OpDesc::decode(3, &d.encode()).unwrap();
        assert_eq!(got, d);
        assert_eq!(got.op_id(), op_id(3, 9));
        assert_eq!(got.ring_pos(), 8);
    }

    #[test]
    fn torn_entries_are_rejected() {
        let mut b = sample().encode();
        b[20] ^= 0xFF; // key byte
        assert_eq!(OpDesc::decode(3, &b), None);
        assert_eq!(OpDesc::decode(0, &[0u8; DESC_SIZE]), None);
    }

    #[test]
    fn every_bit_flip_is_refused() {
        let good = sample().encode();
        for bit in 0..DESC_SIZE * 8 {
            let mut b = good;
            b[bit / 8] ^= 1 << (bit % 8);
            assert_eq!(OpDesc::decode(3, &b), None, "bit {bit}");
        }
        assert_eq!(OpDesc::decode(3, &good[..DESC_SIZE - 1]), None);
    }

    #[test]
    fn value_bytes_are_checksummed() {
        let mut b = sample().encode();
        b[41] ^= 1; // inline value byte
        assert_eq!(OpDesc::decode(3, &b), None);
    }

    #[test]
    fn remove_descriptor_has_empty_value() {
        let d = OpDesc {
            writer: 0,
            seq: 1,
            kind: OpKind::Remove,
            node_slot: NIL,
            key: 5,
            prev_op: op_id(2, 2),
            value: Vec::new(),
        };
        let got = OpDesc::decode(0, &d.encode()).unwrap();
        assert_eq!(got.kind, OpKind::Remove);
        assert!(got.value.is_empty());
    }
}
