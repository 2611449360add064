//! SkipDB over the lock-free persistent index (`msnap-pindex`).
//!
//! [`MemSnapKv`](crate::MemSnapKv) keeps the paper's per-node-lock
//! MemTable, which serializes every mutator behind one writer. This
//! backend swaps in [`msnap_pindex::PSkipList`]: N mutator threads
//! operate on the shared structure concurrently, each publishing
//! detectable descriptors to its private log page, and
//! [`PIndexKv::multi_put_concurrent`] overlaps their CPU work by
//! deterministic min-virtual-clock stepping before coalescing all their
//! μCheckpoints into one group commit. The single-writer [`Kv`] entry
//! points remain, so the MixGraph drivers and benches can compare this
//! backend directly against the locked baseline.

use memsnap::{MemSnap, MsnapError, PersistFlags, RegionSel};
use msnap_disk::Disk;
use msnap_pindex::{OpOutcome, PSkipList, PutOp, RecoveryReport, LOG_ENTRIES};
use msnap_sim::{Meters, Nanos, Vt};

use crate::kv::{Kv, KvError, KvStats};

/// The region name the index is carved from.
const REGION: &str = "pindex";

/// The lock-free-index store. See the module docs.
#[derive(Debug)]
pub struct PIndexKv {
    ms: MemSnap,
    sk: PSkipList,
    stats: KvStats,
}

impl PIndexKv {
    /// Creates a fresh store: `arena_pages` of node arena, log pages for
    /// `writers` concurrent mutators.
    ///
    /// # Panics
    ///
    /// Panics if the carve cannot be created on a fresh device.
    pub fn format(disk: Disk, arena_pages: u64, writers: u32, vt: &mut Vt) -> Self {
        let mut ms = MemSnap::format(disk);
        let space = ms.vm_mut().create_space();
        let sk = PSkipList::create(&mut ms, space, vt, REGION, arena_pages, writers)
            .expect("fresh store accepts the index carve");
        PIndexKv {
            ms,
            sk,
            stats: KvStats::default(),
        }
    }

    /// Restores after a crash, replaying every detectable in-flight
    /// operation exactly once; the report says what recovery found.
    ///
    /// # Panics
    ///
    /// Panics if `disk` holds no MemSnap store or no index carve.
    pub fn restore(disk: Disk, vt: &mut Vt) -> (Self, RecoveryReport) {
        Self::try_restore(disk, vt).expect("device holds a MemSnap store with an index carve")
    }

    /// Fallible [`PIndexKv::restore`]: crash sweeps hit instants before
    /// the store or the carve header is durable, where there is nothing
    /// to recover (and necessarily nothing was acknowledged).
    pub fn try_restore(disk: Disk, vt: &mut Vt) -> Result<(Self, RecoveryReport), KvError> {
        let mut ms = MemSnap::restore(vt, disk).map_err(MsnapError::from)?;
        let space = ms.vm_mut().create_space();
        let (sk, report) = PSkipList::recover(&mut ms, space, vt, REGION)?;
        Ok((
            PIndexKv {
                ms,
                sk,
                stats: KvStats::default(),
            },
            report,
        ))
    }

    /// Simulates a power failure; pass the device to
    /// [`PIndexKv::restore`].
    pub fn crash(self, at: Nanos) -> Disk {
        self.ms.crash(at)
    }

    /// Consumes the store, returning the device with its undo journal
    /// intact (`crash_at_every_io` sweeps).
    pub fn into_disk(self) -> Disk {
        self.ms.into_disk()
    }

    /// The underlying MemSnap instance.
    pub fn memsnap(&self) -> &MemSnap {
        &self.ms
    }

    /// Mutable access to the MemSnap instance.
    pub fn memsnap_mut(&mut self) -> &mut MemSnap {
        &mut self.ms
    }

    /// Writer slots of the index.
    pub fn writers(&self) -> u32 {
        self.sk.writers()
    }

    /// Durably applies one batch per writer thread, concurrently.
    ///
    /// Each writer's operations run as steppable state machines; the next
    /// step always goes to the writer with the smallest virtual clock, so
    /// the interleaving is deterministic and the writers' CPU phases
    /// genuinely overlap (no writer waits for another's whole batch, the
    /// thing the locked baseline cannot avoid). When a writer drains its
    /// batch it enqueues its μCheckpoint into the group-commit lane;
    /// every batch lands in one coalesced commit where the windows
    /// overlap.
    ///
    /// # Errors
    ///
    /// [`KvError`] if a group commit fails; the affected writers' batches
    /// abort as units.
    ///
    /// # Panics
    ///
    /// Panics if `vts` and `batches` disagree in length, exceed the
    /// carve's writer count, or a batch exceeds [`LOG_ENTRIES`] (the
    /// descriptor ring depth bounds undetectable history between
    /// μCheckpoints).
    pub fn multi_put_concurrent(
        &mut self,
        vts: &mut [Vt],
        batches: &[Vec<(u64, Vec<u8>)>],
    ) -> Result<(), KvError> {
        assert_eq!(vts.len(), batches.len(), "one Vt per writer batch");
        assert!(
            batches.len() <= self.sk.writers() as usize,
            "more batches than carved writers"
        );
        for b in batches {
            assert!(
                b.len() <= LOG_ENTRIES,
                "batch exceeds the {LOG_ENTRIES}-entry descriptor ring"
            );
        }
        struct Lane {
            writer: u32,
            op: Option<PutOp>,
            next: usize,
            ticket: Option<memsnap::CommitTicket>,
            done: bool,
        }
        let mut lanes: Vec<Lane> = (0..batches.len())
            .map(|w| Lane {
                writer: w as u32,
                op: None,
                next: 0,
                ticket: None,
                done: batches[w].is_empty(),
            })
            .collect();
        let mut first_err: Option<KvError> = None;
        while lanes.iter().any(|l| !l.done) {
            // Deterministic schedule: smallest clock runs next, writer id
            // breaks ties.
            let i = lanes
                .iter()
                .enumerate()
                .filter(|(_, l)| !l.done)
                .min_by_key(|(idx, l)| (vts[l.writer as usize].now(), *idx))
                .map(|(idx, _)| idx)
                .expect("some lane is unfinished");
            let lane = &mut lanes[i];
            let vt = &mut vts[lane.writer as usize];
            if let Some(ticket) = lane.ticket {
                match self.ms.msnap_group_poll(vt, ticket) {
                    Ok(Some(_epoch)) => {
                        self.stats.commits += 1;
                        lane.done = true;
                    }
                    // The poll moved the clock to the batch close: the
                    // next one flushes.
                    Ok(None) => {}
                    Err(e) => {
                        first_err.get_or_insert(KvError(e));
                        lane.done = true;
                    }
                }
                continue;
            }
            if let Some(op) = lane.op.as_mut() {
                if op.step(&mut self.sk, &mut self.ms, vt) == OpOutcome::Finished {
                    lane.op = None;
                }
                continue;
            }
            if lane.next < batches[i].len() {
                let (key, value) = &batches[i][lane.next];
                lane.next += 1;
                lane.op = Some(self.sk.begin_put(lane.writer, *key, value));
                continue;
            }
            // Batch drained: enqueue this writer's μCheckpoint.
            let thread = vt.id();
            match self.ms.msnap_persist_grouped(
                vt,
                thread,
                RegionSel::Region(self.sk.carve.region.md),
            ) {
                Ok(t) => lane.ticket = Some(t),
                Err(e) => {
                    first_err.get_or_insert(KvError(e));
                    lane.done = true;
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Durably removes a key (tombstone).
    ///
    /// # Errors
    ///
    /// [`KvError`] when the persist fails; the remove aborts.
    pub fn remove(&mut self, vt: &mut Vt, key: u64) -> Result<(), KvError> {
        self.sk.remove(&mut self.ms, vt, 0, key);
        self.persist(vt)
    }

    fn persist(&mut self, vt: &mut Vt) -> Result<(), KvError> {
        let thread = vt.id();
        self.ms.msnap_persist(
            vt,
            thread,
            RegionSel::Region(self.sk.carve.region.md),
            PersistFlags::sync(),
        )?;
        self.stats.commits += 1;
        Ok(())
    }
}

impl Kv for PIndexKv {
    fn put(&mut self, vt: &mut Vt, key: u64, value: &[u8]) -> Result<(), KvError> {
        self.sk.put(&mut self.ms, vt, 0, key, value);
        self.persist(vt)
    }

    fn multi_put(&mut self, vt: &mut Vt, pairs: &[(u64, Vec<u8>)]) -> Result<(), KvError> {
        assert!(
            pairs.len() <= LOG_ENTRIES,
            "batch exceeds the {LOG_ENTRIES}-entry descriptor ring"
        );
        for (key, value) in pairs {
            self.sk.put(&mut self.ms, vt, 0, *key, value);
        }
        self.persist(vt)
    }

    fn get(&mut self, vt: &mut Vt, key: u64) -> Option<Vec<u8>> {
        self.sk.get(&mut self.ms, vt, key)
    }

    fn seek(&mut self, vt: &mut Vt, key: u64, limit: usize) -> Vec<(u64, Vec<u8>)> {
        self.sk.seek(&mut self.ms, vt, key, limit)
    }

    fn len(&self) -> usize {
        self.sk.len()
    }

    fn stats(&self) -> KvStats {
        self.stats
    }

    fn meters(&self) -> Meters {
        self.ms.meters().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msnap_disk::DiskConfig;

    fn fresh(writers: u32) -> (PIndexKv, Vt) {
        let mut vt = Vt::new(0);
        let kv = PIndexKv::format(Disk::new(DiskConfig::paper()), 512, writers, &mut vt);
        (kv, vt)
    }

    #[test]
    fn put_get_seek_round_trip() {
        let (mut kv, mut vt) = fresh(2);
        for k in [50u64, 10, 30, 20, 40] {
            kv.put(&mut vt, k, &k.to_le_bytes()).unwrap();
        }
        assert_eq!(kv.len(), 5);
        assert_eq!(kv.get(&mut vt, 30), Some(30u64.to_le_bytes().to_vec()));
        let keys: Vec<u64> = kv.seek(&mut vt, 15, 3).iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![20, 30, 40]);
        kv.remove(&mut vt, 30).unwrap();
        assert_eq!(kv.get(&mut vt, 30), None);
        assert_eq!(kv.len(), 4);
    }

    #[test]
    fn multi_put_of_a_full_descriptor_ring_commits_and_reads_back() {
        let (mut kv, mut vt) = fresh(1);
        let pairs: Vec<(u64, Vec<u8>)> = (0..LOG_ENTRIES as u64)
            .map(|k| (k, k.to_le_bytes().to_vec()))
            .collect();
        kv.multi_put(&mut vt, &pairs).unwrap();
        assert_eq!(kv.stats().commits, 1);
        assert_eq!(kv.len(), LOG_ENTRIES);
        for (k, v) in &pairs {
            assert_eq!(kv.get(&mut vt, *k).as_ref(), Some(v));
        }
    }

    #[test]
    #[should_panic(expected = "descriptor ring")]
    fn multi_put_past_the_descriptor_ring_fails_closed() {
        let (mut kv, mut vt) = fresh(1);
        let pairs: Vec<(u64, Vec<u8>)> = (0..=LOG_ENTRIES as u64).map(|k| (k, vec![1])).collect();
        let _ = kv.multi_put(&mut vt, &pairs);
    }

    #[test]
    fn concurrent_batches_land_atomically_and_completely() {
        let writers = 4u32;
        let (mut kv, mut vt0) = fresh(writers);
        let mut vts: Vec<Vt> = (0..writers).map(Vt::new).collect();
        let batches: Vec<Vec<(u64, Vec<u8>)>> = (0..writers as u64)
            .map(|w| {
                (0..16u64)
                    .map(|i| (w * 1000 + i, (w * 1000 + i).to_le_bytes().to_vec()))
                    .collect()
            })
            .collect();
        kv.multi_put_concurrent(&mut vts, &batches).unwrap();
        assert_eq!(kv.len(), 64);
        for w in 0..writers as u64 {
            for i in 0..16u64 {
                let k = w * 1000 + i;
                assert_eq!(
                    kv.get(&mut vt0, k),
                    Some(k.to_le_bytes().to_vec()),
                    "key {k}"
                );
            }
        }
        // The concurrent path coalesces: fewer commits than writers'
        // individual persists would need is allowed, more is not.
        assert!(kv.stats().commits as usize <= writers as usize);
    }

    #[test]
    fn a_held_writer_pays_nothing_for_its_held_poll() {
        use msnap_vm::PAGE_SIZE;
        // One writer behind a device kept busy by an async 24-page commit
        // of another region: its first poll is held until a channel frees.
        let busy = || {
            let (mut kv, mut vt0) = fresh(1);
            let t = vt0.id();
            let ms = kv.memsnap_mut();
            let space = ms.vm_mut().create_space();
            let r = ms.msnap_open(&mut vt0, space, "busy", 24).unwrap();
            for p in 0..24u64 {
                let va = r.addr + p * PAGE_SIZE as u64;
                ms.write(&mut vt0, space, t, va, &[1; PAGE_SIZE]).unwrap();
            }
            ms.msnap_persist(&mut vt0, t, RegionSel::Region(r.md), PersistFlags::async_())
                .unwrap();
            let mut vt = Vt::new(1);
            vt.wait_until(vt0.now());
            (kv, vt)
        };
        let pairs: Vec<(u64, Vec<u8>)> = (0..4u64).map(|k| (k, vec![k as u8; 8])).collect();

        // By hand: the puts, the enqueue, then polls until durable.
        let (mut kv, mut vt) = busy();
        for (key, value) in &pairs {
            let mut op = kv.sk.begin_put(0, *key, value);
            while op.step(&mut kv.sk, &mut kv.ms, &mut vt) != OpOutcome::Finished {}
        }
        let (t, sel) = (vt.id(), RegionSel::Region(kv.sk.carve.region.md));
        let ticket = kv.ms.msnap_persist_grouped(&mut vt, t, sel).unwrap();
        assert_eq!(
            kv.ms.msnap_group_poll(&mut vt, ticket).unwrap(),
            None,
            "held"
        );
        assert!(kv.ms.msnap_group_poll(&mut vt, ticket).unwrap().is_some());
        let durable = *kv.ms.disk().write_completions().last().unwrap();
        assert_eq!(
            vt.now(),
            durable,
            "the poll returns at the record's completion"
        );

        // The concurrent driver ends the writer's clock at the same
        // instant: a held poll adds no residue to its latency.
        let (mut kv, mut driven) = busy();
        kv.multi_put_concurrent(std::slice::from_mut(&mut driven), &[pairs])
            .unwrap();
        assert_eq!(driven.now(), durable);
    }

    #[test]
    fn concurrent_writers_overlap_in_virtual_time() {
        let writers = 4u32;
        let (mut kv, _vt0) = fresh(writers);
        let mut vts: Vec<Vt> = (0..writers).map(Vt::new).collect();
        let batches: Vec<Vec<(u64, Vec<u8>)>> = (0..writers as u64)
            .map(|w| (0..32u64).map(|i| (w * 100 + i, vec![1u8; 8])).collect())
            .collect();
        kv.multi_put_concurrent(&mut vts, &batches).unwrap();
        // Concurrency, not turn-taking: the writers' finish times must be
        // close to each other, not stacked end to end.
        let finishes: Vec<Nanos> = vts.iter().map(|vt| vt.now()).collect();
        let min = *finishes.iter().min().unwrap();
        let max = *finishes.iter().max().unwrap();
        assert!(
            (max - min) < (max / 2),
            "writers serialized: spread {:?} of {:?}",
            max - min,
            max
        );
    }

    #[test]
    fn crash_restore_recovers_concurrent_batches() {
        let writers = 4u32;
        let (mut kv, _vt0) = fresh(writers);
        let mut vts: Vec<Vt> = (0..writers).map(Vt::new).collect();
        let batches: Vec<Vec<(u64, Vec<u8>)>> = (0..writers as u64)
            .map(|w| {
                (0..16u64)
                    .map(|i| (w * 100 + i, vec![w as u8; 8]))
                    .collect()
            })
            .collect();
        kv.multi_put_concurrent(&mut vts, &batches).unwrap();
        let disk = kv.crash(Nanos::MAX);
        let mut vt = Vt::new(9);
        let (mut kv, report) = PIndexKv::restore(disk, &mut vt);
        assert_eq!(kv.len(), 64);
        for w in 0..writers as u64 {
            for i in 0..16u64 {
                assert_eq!(kv.get(&mut vt, w * 100 + i), Some(vec![w as u8; 8]));
            }
        }
        // Acked ops all accounted for: 16 ops per writer.
        for w in 0..writers {
            for seq in 1..=16u32 {
                assert!(report.op_landed(w, seq), "writer {w} op {seq}");
            }
        }
    }
}
