//! Crash recovery for the skiplist: detect, replay, and rebuild.
//!
//! Per-thread μCheckpoints make a specific tear possible: a linearizing
//! CAS lands on a page owned by *another* writer's dirty set, so the
//! pointer can be durable while the node it names is not (or vice versa).
//! Recovery therefore never trusts the pointer graph alone. It:
//!
//! 1. scans the whole granted arena for checksum-valid nodes (severed
//!    level-0 chains cannot hide durable data),
//! 2. scans every writer's descriptor ring ([`crate::OpDesc`]),
//! 3. for each key, gathers *candidates* — durable node states and
//!    descriptors — and picks the **winner**: a candidate nobody
//!    supersedes (descriptors record the op id they observed and
//!    overwrote in `prev_op`, giving a happens-after DAG), ties broken
//!    by `(seq, writer)`. Because puts are upserts, applying only the
//!    winner is equivalent to some sequential order of the candidates,
//!    so the choice is linearizable.
//! 4. rebuilds the entire structure deterministically — every winner
//!    materialized (from its node if durable, else from its descriptor's
//!    inline value), towers re-derived from the key hash, every next
//!    pointer rewritten, the chunk counter re-synced — and persists the
//!    result in one μCheckpoint.
//!
//! An operation is *replayed* when its durable node state did not already
//! reflect it; exactly-once holds because replay is keyed on op ids: a
//! winner already applied is left untouched.

use std::collections::{BTreeMap, BTreeSet};

use memsnap::{MemSnap, MsnapError, PersistFlags, RegionSel};
use msnap_sim::Vt;
use msnap_vm::AsId;

use crate::desc::{scan_ring, OpDesc, OpKind};
use crate::skiplist::{
    decode_node, level_for, NodeImg, PSkipList, HEAD_SLOT, KIND_SKIPLIST, MAX_LEVELS, SLOT,
    SLOTS_PER_PAGE,
};
use crate::{op_id, op_parts, NIL};

/// What recovery found and did. Returned by [`PSkipList::recover`].
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Live (non-tombstone) keys after recovery.
    pub live: usize,
    /// Every operation id whose effect is accounted for in the recovered
    /// structure — present as the current state, or durably superseded by
    /// a later same-key operation. An acked operation missing from this
    /// set was lost (the sweep tests assert none ever is).
    pub landed: BTreeSet<u64>,
    /// Winners whose linearizing step had not landed durably and were
    /// applied (completed) by recovery.
    pub replayed: usize,
    /// Valid but superseded or unlinked node slots left unreferenced by
    /// the rebuilt structure.
    pub discarded: usize,
    /// Next pointers whose durable value disagreed with the rebuilt
    /// deterministic topology (severed or stale links repaired).
    pub repaired_links: usize,
}

impl RecoveryReport {
    /// Whether operation `(writer, seq)` is accounted for.
    pub fn op_landed(&self, writer: u32, seq: u32) -> bool {
        self.landed.contains(&op_id(writer, seq))
    }
}

/// One possible final state of a key, sourced from a durable node or a
/// descriptor.
#[derive(Debug, Clone)]
struct Candidate {
    op: u64,
    prev_op: u64,
    tomb: bool,
    value: Vec<u8>,
    /// Slot of the durable node carrying this state, if the source is a
    /// node (`NIL` for descriptor-only candidates).
    node_slot: u32,
    /// Slot reserved for an insert that may need materializing.
    desc_slot: u32,
}

impl PSkipList {
    /// Reopens `name` after a crash, repairing and completing every
    /// in-flight operation exactly once, and persists the recovered
    /// structure before returning.
    ///
    /// # Errors
    ///
    /// Carve open/validation or persist errors.
    pub fn recover(
        ms: &mut MemSnap,
        space: AsId,
        vt: &mut Vt,
        name: &str,
    ) -> Result<(Self, RecoveryReport), MsnapError> {
        let carve = ms.msnap_open_index(vt, space, name, 0, 0, KIND_SKIPLIST)?;
        let mut sk = PSkipList::attach(carve, space, carve.writers);
        let mut report = RecoveryReport::default();

        // -- 1. arena scan: every checksum-valid node, chain or no chain.
        let durable_chunks = sk.chunks_granted(ms, vt).unwrap_or(1).max(1);
        let scan_chunks = (durable_chunks as u64).min(sk.carve.arena_pages) as u32;
        let mut nodes: BTreeMap<u32, NodeImg> = BTreeMap::new();
        let mut buf = vec![0u8; SLOT];
        for slot in 0..scan_chunks * SLOTS_PER_PAGE {
            ms.read(vt, space, sk.slot_addr(slot), &mut buf)?;
            if let Some(img) = decode_node(&buf) {
                if !img.is_head && slot != HEAD_SLOT {
                    nodes.insert(slot, img);
                }
            }
        }

        // -- 2. descriptor rings.
        let mut descs: Vec<OpDesc> = Vec::new();
        let mut next_seq = vec![1u32; carve.writers as usize];
        for w in 0..carve.writers {
            for d in scan_ring(ms, space, vt, &carve, w) {
                next_seq[w as usize] = next_seq[w as usize].max(d.seq + 1);
                descs.push(d);
            }
        }

        // -- 3. per-key winner among node states and descriptors.
        let mut by_key: BTreeMap<u64, Vec<Candidate>> = BTreeMap::new();
        for (&slot, img) in &nodes {
            by_key.entry(img.key).or_default().push(Candidate {
                op: img.op_id,
                prev_op: img.prev_op,
                tomb: img.tomb,
                value: img.value.clone(),
                node_slot: slot,
                desc_slot: NIL,
            });
        }
        for d in &descs {
            by_key.entry(d.key).or_default().push(Candidate {
                op: d.op_id(),
                prev_op: d.prev_op,
                tomb: d.kind == OpKind::Remove,
                value: d.value.clone(),
                node_slot: NIL,
                desc_slot: if d.kind == OpKind::Insert {
                    d.node_slot
                } else {
                    NIL
                },
            });
        }

        // Resync the chunk counter with everything the scan saw: a grant
        // can be durable while the grantee's node is not, and vice versa
        // (the meta page is shared).
        let mut max_chunk = durable_chunks - 1;
        for &slot in nodes.keys() {
            max_chunk = max_chunk.max(slot / SLOTS_PER_PAGE);
        }
        for d in &descs {
            if d.node_slot != NIL {
                max_chunk = max_chunk.max(d.node_slot / SLOTS_PER_PAGE);
            }
        }
        let mut chunks = max_chunk + 1;

        // Final key -> (slot, state) map the rebuild writes out.
        let mut finals: BTreeMap<u64, (u32, NodeImg)> = BTreeMap::new();
        let mut used_slots: BTreeSet<u32> = BTreeSet::new();
        used_slots.insert(HEAD_SLOT);

        let arena_pages = sk.carve.arena_pages;
        let mut fresh_cursor: Option<(u32, u32)> = None; // (chunk, used)
        let mut alloc_fresh = move |chunks: &mut u32| -> u32 {
            let (chunk, used) = match fresh_cursor {
                Some((c, u)) if u < SLOTS_PER_PAGE => (c, u),
                _ => {
                    let c = *chunks;
                    assert!(u64::from(c) < arena_pages, "arena full during recovery");
                    *chunks += 1;
                    (c, 0)
                }
            };
            fresh_cursor = Some((chunk, used + 1));
            chunk * SLOTS_PER_PAGE + used
        };

        for (&key, cands) in &by_key {
            // Everything seen for this key is accounted for: candidates
            // and every ancestor their supersession chains name.
            for c in cands {
                report.landed.insert(c.op);
                if c.prev_op != 0 {
                    report.landed.insert(c.prev_op);
                }
            }
            let superseded: BTreeSet<u64> = cands
                .iter()
                .map(|c| c.prev_op)
                .filter(|&p| p != 0)
                .collect();
            let winner = cands
                .iter()
                .filter(|c| !superseded.contains(&c.op))
                .max_by_key(|c| {
                    let (w, s) = op_parts(c.op);
                    (s, w)
                })
                // A cycle-free DAG over a non-empty set always has a
                // maximal element; keep the newest op as a fallback.
                .unwrap_or_else(|| {
                    cands
                        .iter()
                        .max_by_key(|c| {
                            let (w, s) = op_parts(c.op);
                            (s, w)
                        })
                        .unwrap()
                });

            // Pick the canonical slot: a durable node already carrying the
            // winner, else any durable node for the key, else the slot the
            // insert descriptor reserved, else a fresh one.
            let carrier = cands
                .iter()
                .filter(|c| c.node_slot != NIL && c.op == winner.op)
                .map(|c| c.node_slot)
                .min();
            let any_node = cands
                .iter()
                .filter(|c| c.node_slot != NIL)
                .map(|c| c.node_slot)
                .min();
            if winner.tomb && any_node.is_none() {
                // Remove of a key that never became durable: a no-op, but
                // the operation itself is accounted for.
                continue;
            }
            let reserved = cands
                .iter()
                .filter(|c| c.op == winner.op && c.desc_slot != NIL)
                .map(|c| c.desc_slot)
                .min();
            let slot = carrier
                .or(any_node)
                .or_else(|| reserved.filter(|s| !used_slots.contains(s)))
                .unwrap_or_else(|| alloc_fresh(&mut chunks));
            let already = nodes
                .get(&slot)
                .map(|n| n.op_id == winner.op && n.tomb == winner.tomb && n.value == winner.value)
                .unwrap_or(false);
            if !already {
                report.replayed += 1;
            }
            used_slots.insert(slot);
            finals.insert(
                key,
                (
                    slot,
                    NodeImg {
                        is_head: false,
                        level: level_for(key),
                        tomb: winner.tomb,
                        key,
                        op_id: winner.op,
                        prev_op: winner.prev_op,
                        next: [NIL; MAX_LEVELS],
                        value: winner.value.clone(),
                    },
                ),
            );
        }
        report.discarded = nodes.keys().filter(|s| !used_slots.contains(s)).count();

        // -- 4. deterministic rebuild: BTreeMap iteration is key-ordered,
        // so one pass tracking each level's previous node yields every
        // tower link (`prev_at[l]` = index in `images` of the last node
        // tall enough for level `l`, or the head).
        let mut images: Vec<(u32, NodeImg)> = finals.values().cloned().collect();
        let mut head = NodeImg::head();
        let mut prev_at: [Option<usize>; MAX_LEVELS] = [None; MAX_LEVELS];
        for i in 0..images.len() {
            let (slot, level) = (images[i].0, images[i].1.level as usize);
            for (l, prev) in prev_at.iter_mut().enumerate().take(level) {
                match *prev {
                    Some(p) => images[p].1.next[l] = slot,
                    None => head.next[l] = slot,
                }
                *prev = Some(i);
            }
        }

        // Count repairs against durable state, then write everything.
        for (slot, img) in &images {
            match nodes.get(slot) {
                Some(old) => {
                    for l in 0..MAX_LEVELS {
                        if old.next[l] != img.next[l] {
                            report.repaired_links += 1;
                        }
                    }
                }
                None => report.repaired_links += img.level as usize,
            }
            sk.write_node(ms, vt, *slot, img);
        }
        let old_head = {
            let mut b = vec![0u8; SLOT];
            ms.read(vt, space, sk.slot_addr(HEAD_SLOT), &mut b)?;
            decode_node(&b)
        };
        match &old_head {
            Some(h) => {
                for l in 0..MAX_LEVELS {
                    if h.next[l] != head.next[l] {
                        report.repaired_links += 1;
                    }
                }
            }
            None => report.repaired_links += MAX_LEVELS,
        }
        sk.write_node(ms, vt, HEAD_SLOT, &head);
        sk.write_chunks_granted(ms, vt, chunks);

        report.live = images.iter().filter(|(_, n)| !n.tomb).count();
        sk.set_live(report.live);
        for (w, seq) in next_seq.iter().enumerate() {
            // Never reuse an op id visible anywhere in the recovered
            // state, descriptors or supersession chains included.
            let mut floor = *seq;
            for &op in &report.landed {
                let (ow, os) = op_parts(op);
                if ow == w as u32 {
                    floor = floor.max(os + 1);
                }
            }
            sk.set_next_seq(w as u32, floor);
        }

        let thread = vt.id();
        ms.msnap_persist(
            vt,
            thread,
            RegionSel::Region(sk.carve.region.md),
            PersistFlags::sync(),
        )?;
        Ok((sk, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msnap_disk::{Disk, DiskConfig};

    fn fresh() -> (MemSnap, AsId, PSkipList, Vt) {
        let mut ms = MemSnap::format(Disk::new(DiskConfig::paper()));
        let mut vt = Vt::new(0);
        let space = ms.vm_mut().create_space();
        let sk = PSkipList::create(&mut ms, space, &mut vt, "sk", 64, 4).unwrap();
        (ms, space, sk, vt)
    }

    fn persist(ms: &mut MemSnap, vt: &mut Vt, sk: &PSkipList) {
        let thread = vt.id();
        ms.msnap_persist(
            vt,
            thread,
            RegionSel::Region(sk.carve.region.md),
            PersistFlags::sync(),
        )
        .unwrap();
    }

    fn reopen(ms: MemSnap, vt: &mut Vt) -> (MemSnap, AsId) {
        let disk = ms.shutdown();
        let mut ms = MemSnap::restore(vt, disk).unwrap();
        let space = ms.vm_mut().create_space();
        (ms, space)
    }

    #[test]
    fn clean_shutdown_recovers_identically() {
        let (mut ms, _space, mut sk, mut vt) = fresh();
        for k in 0..40u64 {
            sk.put(&mut ms, &mut vt, (k % 4) as u32, k * 3, &k.to_le_bytes());
        }
        sk.remove(&mut ms, &mut vt, 1, 9);
        persist(&mut ms, &mut vt, &sk);
        let (mut ms, space) = reopen(ms, &mut vt);
        let (sk2, report) = PSkipList::recover(&mut ms, space, &mut vt, "sk").unwrap();
        assert_eq!(sk2.len(), 39);
        assert_eq!(report.live, 39);
        assert_eq!(report.replayed, 0, "nothing was in flight");
        assert_eq!(sk2.get(&mut ms, &mut vt, 9), None);
        for k in 0..40u64 {
            if k * 3 == 9 {
                continue;
            }
            assert_eq!(
                sk2.get(&mut ms, &mut vt, k * 3),
                Some(k.to_le_bytes().to_vec()),
                "key {}",
                k * 3
            );
        }
    }

    #[test]
    fn recovered_handle_keeps_writing() {
        let (mut ms, _space, mut sk, mut vt) = fresh();
        sk.put(&mut ms, &mut vt, 0, 1, b"one");
        persist(&mut ms, &mut vt, &sk);
        let (mut ms, space) = reopen(ms, &mut vt);
        let (mut sk, _) = PSkipList::recover(&mut ms, space, &mut vt, "sk").unwrap();
        sk.put(&mut ms, &mut vt, 1, 2, b"two");
        sk.put(&mut ms, &mut vt, 0, 1, b"ONE");
        assert_eq!(sk.get(&mut ms, &mut vt, 1), Some(b"ONE".to_vec()));
        assert_eq!(sk.get(&mut ms, &mut vt, 2), Some(b"two".to_vec()));
        assert_eq!(sk.len(), 2);
        // Op ids resumed past the durable history: the re-put superseded
        // the original insert rather than colliding with it.
        let op = sk.op_of(&mut ms, &mut vt, 1).unwrap();
        assert_eq!(op_parts(op).0, 0);
        assert!(op_parts(op).1 >= 2);
    }

    #[test]
    fn unpersisted_tail_is_lost_cleanly() {
        let (mut ms, _space, mut sk, mut vt) = fresh();
        sk.put(&mut ms, &mut vt, 0, 10, b"ten");
        persist(&mut ms, &mut vt, &sk);
        // Never persisted: may vanish wholesale, but must not corrupt.
        sk.put(&mut ms, &mut vt, 1, 20, b"twenty");
        let disk = ms.crash(msnap_sim::Nanos::MAX);
        let mut ms = MemSnap::restore(&mut vt, disk).unwrap();
        let space = ms.vm_mut().create_space();
        let (sk, report) = PSkipList::recover(&mut ms, space, &mut vt, "sk").unwrap();
        assert_eq!(sk.get(&mut ms, &mut vt, 10), Some(b"ten".to_vec()));
        assert!(report.op_landed(0, 1));
    }

    #[test]
    fn retired_hash_kind_fails_closed_and_untouched() {
        // Kind tag 2 belonged to the hash table this crate once carried. A
        // device that still holds such a carve is refused by the durable
        // kind check — never reinterpreted as a skiplist, never rebuilt over.
        const RETIRED_KIND: u32 = 2;
        let mut ms = MemSnap::format(Disk::new(DiskConfig::paper()));
        let mut vt = Vt::new(0);
        let space = ms.vm_mut().create_space();
        let carve = ms
            .msnap_open_index(&mut vt, space, "old", 8, 2, RETIRED_KIND)
            .unwrap();
        let thread = vt.id();
        ms.write(&mut vt, space, thread, carve.arena_addr(), &[0xA5; 256])
            .unwrap();
        ms.write(&mut vt, space, thread, carve.log_addr(1), &[0x5A; 64])
            .unwrap();
        ms.msnap_persist(
            &mut vt,
            thread,
            RegionSel::Region(carve.region.md),
            PersistFlags::sync(),
        )
        .unwrap();
        let len = carve.region.pages as usize * msnap_vm::PAGE_SIZE;
        let mut before = vec![0u8; len];
        ms.read(&mut vt, space, carve.region.addr, &mut before)
            .unwrap();

        let disk = ms.crash(vt.now());
        let mut ms = MemSnap::restore(&mut vt, disk).unwrap();
        let space = ms.vm_mut().create_space();
        assert_eq!(
            PSkipList::recover(&mut ms, space, &mut vt, "old").err(),
            Some(MsnapError::BadDescriptor)
        );
        assert_eq!(
            ms.msnap_open_index(&mut vt, space, "old", 0, 0, KIND_SKIPLIST)
                .err(),
            Some(MsnapError::BadDescriptor)
        );

        let region = ms.msnap_open(&mut vt, space, "old", 0).unwrap();
        let mut after = vec![0u8; len];
        ms.read(&mut vt, space, region.addr, &mut after).unwrap();
        assert!(after == before, "a refused carve must not be written");
        assert!(
            ms.vm().threads_with_dirty().is_empty(),
            "nothing left to persist"
        );
    }
}
