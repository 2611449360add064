//! End-to-end proofs for the lock-free persistent index (`msnap-pindex`).
//!
//! Three angles:
//!
//! - **Exhaustive crash sweeps** ([`crash_at_every_io`]): concurrent
//!   writers run a deterministic workload with *independent* per-writer
//!   μCheckpoints (the schedule that makes cross-writer tears possible),
//!   and the device is crashed just before and exactly at every write
//!   completion. After every crash, recovery must show **zero lost acked
//!   operations and zero duplicated keys** — the detectable-descriptor
//!   guarantee.
//! - **Same-key races across a crash**: concurrent writers fight over one
//!   key; whatever the crash point, the recovered value must be one of
//!   the racers' values and its op id must be accounted for.
//! - **Seeded-interleaving linearizability** (proptest): every schedule
//!   [`InterleaveSched`] generates must leave a final state explainable
//!   as *some* sequential permutation of the operations that respects
//!   real-time order — and the same seed must reproduce the same
//!   schedule, state, and proof.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use memsnap::{MemSnap, MsnapError, PersistFlags, RegionSel};
use msnap_disk::{crash_at_every_io, Disk, DiskConfig};
use msnap_pindex::{op_parts, OpOutcome, PSkipList, PutOp};
use msnap_sim::{InterleaveSched, Nanos, StepOutcome, Vt};
use msnap_skipdb::{Kv, PIndexKv};

const WRITERS: u32 = 4;
const OPS_PER_WRITER: u32 = 5;

/// One acknowledged operation of the sweep workload.
#[derive(Debug, Clone)]
struct Acked {
    writer: u32,
    seq: u32,
    key: u64,
    value: Vec<u8>,
    /// Completion instant of the last write of the op's sync persist —
    /// the moment durability was promised.
    durable_at: Nanos,
}

/// `(writer, seq, key, value, acked-at)` tuples of a reference run.
type AckLog = Vec<(u32, u32, u64, Vec<u8>, Nanos)>;

/// Runs the deterministic concurrent workload: each writer inserts
/// unique keys, interleaved by smallest-virtual-clock, and syncs its own
/// μCheckpoint after every op (independent per-writer commits — the
/// pattern that makes one writer's commit capture another's in-progress
/// linearizing CAS).
fn run_sweep_workload() -> (MemSnap, AckLog) {
    let mut boot = Vt::new(99);
    let mut ms = MemSnap::format(Disk::new(DiskConfig::paper()));
    let space = ms.vm_mut().create_space();
    let mut sk = PSkipList::create(&mut ms, space, &mut boot, "sweep", 128, WRITERS).unwrap();
    let mut vts: Vec<Vt> = (0..WRITERS).map(Vt::new).collect();
    let mut done = vec![0u32; WRITERS as usize];
    let mut acks: AckLog = Vec::new();
    while done.iter().any(|&d| d < OPS_PER_WRITER) {
        let w = (0..WRITERS as usize)
            .filter(|&w| done[w] < OPS_PER_WRITER)
            .min_by_key(|&w| (vts[w].now(), w))
            .unwrap();
        let seq_no = done[w] + 1;
        let key = (w as u64 + 1) * 1000 + u64::from(seq_no);
        let value = key.to_le_bytes().to_vec();
        let mut op = sk.begin_put(w as u32, key, &value);
        let vt = &mut vts[w];
        while op.step(&mut sk, &mut ms, vt) == OpOutcome::Progress {}
        let thread = vt.id();
        ms.msnap_persist(
            vt,
            thread,
            RegionSel::Region(sk.carve.region.md),
            PersistFlags::sync(),
        )
        .unwrap();
        let (writer, seq) = op_parts(op.op_id());
        acks.push((writer, seq, key, value, vt.now()));
        done[w] = seq_no;
    }
    (ms, acks)
}

/// Recover and audit one crash point: every op acked by `at` present
/// exactly once with its value, no duplicated keys, no torn nodes.
fn audit_crash_point(disk: Disk, at: Nanos, acked: &[Acked]) {
    let acked_by_now = acked.iter().filter(|a| a.durable_at <= at).count();
    let mut vt = Vt::new(0);
    // A crash can land before the store or carve header is durable; then
    // there is nothing to recover — and nothing may have been acked.
    let recovered = MemSnap::restore(&mut vt, disk)
        .map_err(MsnapError::from)
        .and_then(|mut ms| {
            let space = ms.vm_mut().create_space();
            PSkipList::recover(&mut ms, space, &mut vt, "sweep").map(|(sk, r)| (ms, sk, r))
        });
    let (mut ms, sk, report) = match recovered {
        Ok(t) => t,
        Err(e) => {
            assert_eq!(
                acked_by_now, 0,
                "restore failed ({e}) at {at} despite {acked_by_now} acked ops"
            );
            return;
        }
    };

    // `dump` walks the recovered level-0 chain validating every node's
    // checksum (a torn node panics), and yields keys in order.
    let entries = sk.dump(&mut ms, &mut vt);
    let mut lost = 0usize;
    let mut duplicated = 0usize;
    let mut keys_seen: BTreeMap<u64, usize> = BTreeMap::new();
    for (key, _, _) in &entries {
        *keys_seen.entry(*key).or_insert(0) += 1;
    }
    for (_, count) in keys_seen.iter() {
        if *count > 1 {
            duplicated += count - 1;
        }
    }
    assert!(
        entries.windows(2).all(|w| w[0].0 < w[1].0),
        "recovered chain out of order at {at}"
    );
    for a in acked.iter().filter(|a| a.durable_at <= at) {
        let present = sk.get(&mut ms, &mut vt, a.key) == Some(a.value.clone());
        let landed = report.op_landed(a.writer, a.seq);
        if !present || !landed {
            lost += 1;
        }
    }
    assert_eq!(
        (lost, duplicated),
        (0, 0),
        "crash at {at}: {lost} lost acked ops, {duplicated} duplicated keys \
         ({acked_by_now} acked by then, {} recovered)",
        entries.len(),
    );
}

#[test]
fn skiplist_crash_sweep_loses_nothing_acked() {
    // Learn each ack's true durability instant from a reference run: the
    // last write completion at or before the moment the sync persist
    // returned.
    let (ms, acks) = run_sweep_workload();
    let reference = ms.into_disk();
    let completions = reference.write_completions().to_vec();
    let acked: Vec<Acked> = acks
        .iter()
        .map(|(writer, seq, key, value, by)| Acked {
            writer: *writer,
            seq: *seq,
            key: *key,
            value: value.clone(),
            durable_at: completions
                .iter()
                .copied()
                .filter(|&c| c <= *by)
                .max()
                .expect("every op persists"),
        })
        .collect();
    assert_eq!(acked.len(), (WRITERS * OPS_PER_WRITER) as usize);

    let points = crash_at_every_io(
        || run_sweep_workload().0.into_disk(),
        |disk, at| audit_crash_point(disk, at, &acked),
    );
    assert!(
        points as u32 > WRITERS * OPS_PER_WRITER,
        "sweep must straddle every per-writer commit, got {points} points"
    );
}

#[test]
fn same_key_race_recovers_one_racer_after_any_crash() {
    // All writers update THE SAME key, each syncing independently. At
    // any crash point the recovered value must be exactly one racer's
    // value and its op must be accounted for — never a torn mix, never
    // two nodes for the key.
    const KEY: u64 = 777;
    // Returns the settled store plus the instant the first sync persist
    // returned — restore may only fail at crash points before that ack
    // became durable.
    let run = || {
        let mut boot = Vt::new(99);
        let mut ms = MemSnap::format(Disk::new(DiskConfig::paper()));
        let space = ms.vm_mut().create_space();
        let mut sk = PSkipList::create(&mut ms, space, &mut boot, "race", 64, WRITERS).unwrap();
        let mut vts: Vec<Vt> = (0..WRITERS).map(Vt::new).collect();
        let mut first_ack = Nanos::MAX;
        for round in 0..3u32 {
            for w in 0..WRITERS {
                let vt = &mut vts[w as usize];
                sk.put(&mut ms, vt, w, KEY, &[w as u8, round as u8]);
                let thread = vt.id();
                ms.msnap_persist(
                    vt,
                    thread,
                    RegionSel::Region(sk.carve.region.md),
                    PersistFlags::sync(),
                )
                .unwrap();
                first_ack = first_ack.min(vt.now());
            }
        }
        (ms, first_ack)
    };
    let (ms, first_ack) = run();
    let reference = ms.into_disk();
    let first_durable = reference
        .write_completions()
        .iter()
        .copied()
        .filter(|&c| c <= first_ack)
        .max()
        .expect("the first racer persisted");
    let points = crash_at_every_io(
        || run().0.into_disk(),
        |disk, at| {
            let mut vt = Vt::new(0);
            // Pre-setup crash points leave nothing to recover; once the
            // first racer's commit is durable, recovery must succeed.
            let recovered = MemSnap::restore(&mut vt, disk)
                .map_err(MsnapError::from)
                .and_then(|mut ms| {
                    let space = ms.vm_mut().create_space();
                    PSkipList::recover(&mut ms, space, &mut vt, "race").map(|(sk, r)| (ms, sk, r))
                });
            let (mut ms, sk, report) = match recovered {
                Ok(t) => t,
                Err(e) => {
                    assert!(
                        at < first_durable,
                        "restore failed ({e}) at {at} after the first durable ack"
                    );
                    return;
                }
            };
            let entries = sk.dump(&mut ms, &mut vt);
            assert!(
                entries.iter().filter(|(k, _, _)| *k == KEY).count() <= 1,
                "duplicated key after crash at {at}"
            );
            if let Some(value) = sk.get(&mut ms, &mut vt, KEY) {
                assert_eq!(value.len(), 2, "torn value after crash at {at}");
                let (w, round) = (u32::from(value[0]), u32::from(value[1]));
                assert!(w < WRITERS && round < 3, "fabricated value at {at}");
                let op = sk
                    .op_of(&mut ms, &mut vt, KEY)
                    .expect("node carries its op");
                let (ow, oseq) = op_parts(op);
                assert_eq!(ow, w, "value and op id disagree at {at}");
                assert!(report.op_landed(ow, oseq), "winner not accounted at {at}");
            }
        },
    );
    assert!(points > 10, "race sweep too small: {points} points");
}

#[test]
fn pindex_kv_group_commit_sweep_is_atomic_per_batch() {
    // The SkipDB backend's concurrent path: every writer's batch rides a
    // group commit. Eight writers, three rounds; each round they start 6 µs
    // apart, so they enqueue past each other's coalescing windows while
    // earlier commits still hold the device: their batches are held until
    // it frees a channel and one commit carries several writers' batches.
    // Whatever the crash point, every batch acked by then is present in
    // full, every batch is all-or-nothing, and no key appears twice.
    const WRITERS: u32 = 8;
    const ROUNDS: u64 = 3;
    const BATCH: u64 = 4;
    let key = |round: u64, w: u64, i: u64| round * 10_000 + w * 100 + i;
    let run = || {
        let mut boot = Vt::new(0);
        let mut kv = PIndexKv::format(Disk::new(DiskConfig::paper()), 512, WRITERS, &mut boot);
        let mut vts: Vec<Vt> = (0..WRITERS).map(|w| Vt::new(w + 1)).collect();
        // `(round, writer, ack instant)` per batch.
        let mut acks = Vec::new();
        for round in 0..ROUNDS {
            let start = vts.iter().map(Vt::now).max().unwrap_or(Nanos::ZERO);
            for (w, vt) in (0u64..).zip(&mut vts) {
                vt.wait_until(start + Nanos::from_us(6 * w));
            }
            let batches: Vec<Vec<(u64, Vec<u8>)>> = (0..u64::from(WRITERS))
                .map(|w| {
                    (0..BATCH)
                        .map(|i| (key(round, w, i), key(round, w, i).to_le_bytes().to_vec()))
                        .collect()
                })
                .collect();
            kv.multi_put_concurrent(&mut vts, &batches).unwrap();
            acks.extend((0..u64::from(WRITERS)).map(|w| (round, w, vts[w as usize].now())));
        }
        (kv, acks)
    };
    let (kv, acks) = run();
    let stats = kv.memsnap().disk().stats();
    let (merged, parts) = (stats.merged_submissions(), stats.merged_parts());
    assert!(
        merged > 0 && parts >= 3 * merged,
        "held batches carry several writers: {parts} batches in {merged} commits"
    );
    let reference = kv.into_disk();
    let completions = reference.write_completions().to_vec();
    let durable_by: Vec<(u64, u64, Nanos)> = acks
        .iter()
        .map(|&(round, w, by)| {
            let done = completions.iter().copied().filter(|&c| c <= by).max();
            (round, w, done.expect("every batch wrote"))
        })
        .collect();

    let points = crash_at_every_io(
        || run().0.into_disk(),
        |disk, at| {
            let mut vt = Vt::new(0);
            let Ok((mut kv, _report)) = PIndexKv::try_restore(disk, &mut vt) else {
                assert!(
                    durable_by.iter().all(|&(.., done)| done > at),
                    "restore failed at {at} despite acked batches"
                );
                return;
            };
            let mut lost = 0;
            for &(round, w, done) in &durable_by {
                let present = (0..BATCH)
                    .filter(|&i| {
                        let k = key(round, w, i);
                        kv.get(&mut vt, k) == Some(k.to_le_bytes().to_vec())
                    })
                    .count() as u64;
                assert!(
                    present == 0 || present == BATCH,
                    "crash at {at}: round {round} writer {w} torn, {present}/{BATCH} keys"
                );
                if done <= at && present == 0 {
                    lost += 1;
                }
            }
            let keys: Vec<u64> = kv
                .seek(&mut vt, 0, usize::MAX)
                .iter()
                .map(|e| e.0)
                .collect();
            let duplicated = keys.windows(2).filter(|w| w[0] == w[1]).count();
            assert_eq!(
                (lost, duplicated),
                (0, 0),
                "crash at {at}: lost acked, duplicated"
            );
        },
    );
    assert!(
        points as u64 > ROUNDS,
        "sweep must straddle every round, got {points}"
    );
}

// ---------------------------------------------------------------------------
// Seeded-interleaving linearizability.
// ---------------------------------------------------------------------------

/// One completed operation with its real-time span in scheduler steps.
#[derive(Debug, Clone)]
struct OpRecord {
    op: u64,
    key: u64,
    remove: bool,
    /// Remove of an absent/tombstoned key: observed, wrote nothing.
    noop: bool,
    value: Vec<u8>,
    start: u64,
    end: u64,
}

/// Drives `plans` (one op list per writer: `(remove, key, value)`) under
/// the seeded interleaving scheduler. Returns the op records and the
/// final `(key -> (op, value-or-tomb))` state, plus the schedule trace.
#[allow(clippy::type_complexity)]
fn run_interleaved(
    seed: u64,
    plans: &[Vec<(bool, u64, Vec<u8>)>],
) -> (
    Vec<OpRecord>,
    BTreeMap<u64, (u64, Option<Vec<u8>>)>,
    Vec<u32>,
) {
    let mut boot = Vt::new(99);
    let mut ms = MemSnap::format(Disk::new(DiskConfig::paper()));
    let space = ms.vm_mut().create_space();
    let sk = PSkipList::create(&mut ms, space, &mut boot, "lin", 128, plans.len() as u32)
        .expect("carve fits");
    let shared = Rc::new(RefCell::new((ms, sk)));
    let steps = Rc::new(Cell::new(0u64));
    let records = Rc::new(RefCell::new(Vec::<OpRecord>::new()));

    let mut sched = InterleaveSched::new(seed);
    for (w, plan) in plans.iter().enumerate() {
        let shared = Rc::clone(&shared);
        let steps = Rc::clone(&steps);
        let records = Rc::clone(&records);
        let mut queue: std::vec::IntoIter<(bool, u64, Vec<u8>)> = plan.clone().into_iter();
        let mut cur: Option<(PutOp, bool, u64, Vec<u8>, u64)> = None;
        sched.spawn(move |vt: &mut Vt| {
            let mut guard = shared.borrow_mut();
            let (ms, sk) = &mut *guard;
            if cur.is_none() {
                let Some((remove, key, value)) = queue.next() else {
                    return StepOutcome::Done;
                };
                let op = if remove {
                    sk.begin_remove(w as u32, key)
                } else {
                    sk.begin_put(w as u32, key, &value)
                };
                cur = Some((op, remove, key, value, steps.get()));
            }
            steps.set(steps.get() + 1);
            let (op, remove, key, value, start) = cur.as_mut().unwrap();
            if op.step(sk, ms, vt) == OpOutcome::Finished {
                records.borrow_mut().push(OpRecord {
                    op: op.op_id(),
                    key: *key,
                    remove: *remove,
                    noop: op.was_noop(),
                    value: value.clone(),
                    start: *start,
                    end: steps.get(),
                });
                cur = None;
            }
            StepOutcome::Continue
        });
    }
    let (_vts, trace) = sched.run_traced();

    let mut guard = shared.borrow_mut();
    let (ms, sk) = &mut *guard;
    let mut reader = Vt::new(98);
    let mut finals = BTreeMap::new();
    for (key, op, tomb) in sk.dump(ms, &mut reader) {
        let value = if tomb {
            None
        } else {
            sk.get(ms, &mut reader, key)
        };
        finals.insert(key, (op, value));
    }
    let records = records.borrow().clone();
    (records, finals, trace)
}

/// The linearizability oracle: the final state of every key must be the
/// effect of an operation that no other same-key operation strictly
/// follows in real time (such an op can be linearized last).
fn assert_linearizable(records: &[OpRecord], finals: &BTreeMap<u64, (u64, Option<Vec<u8>>)>) {
    let mut by_key: BTreeMap<u64, Vec<&OpRecord>> = BTreeMap::new();
    for r in records {
        by_key.entry(r.key).or_default().push(r);
    }
    for (key, ops) in &by_key {
        match finals.get(key) {
            Some((win_op, value)) => {
                let winner = ops
                    .iter()
                    .find(|r| r.op == *win_op)
                    .unwrap_or_else(|| panic!("key {key}: final op {win_op:#x} never ran"));
                if winner.remove {
                    assert_eq!(value, &None, "key {key}: tombstone with a value");
                } else {
                    assert_eq!(
                        value.as_ref(),
                        Some(&winner.value),
                        "key {key}: final value is not the winner's"
                    );
                }
                // No-op removes observed the key absent/tombstoned and
                // wrote nothing; they impose no ordering on the winner.
                for other in ops.iter().filter(|r| r.op != *win_op && !r.noop) {
                    assert!(
                        winner.end >= other.start,
                        "key {key}: op {:#x} finished before {:#x} started, \
                         yet the earlier one won",
                        winner.op,
                        other.op,
                    );
                }
            }
            None => {
                // Key absent entirely: only possible when no put ever ran
                // (remove-of-absent no-ops leave nothing behind).
                assert!(
                    ops.iter().all(|r| r.remove),
                    "key {key}: a put completed but left no node"
                );
            }
        }
    }
    // And nothing fabricated: every final op belongs to a real record.
    for (key, (op, _)) in finals {
        assert!(
            records.iter().any(|r| r.op == *op),
            "key {key}: fabricated op {op:#x}"
        );
    }
}

/// Builds per-writer op plans from a seed: contended keys (small domain)
/// with a mix of puts and removes.
fn plans_from_seed(seed: u64, writers: usize, ops: usize) -> Vec<Vec<(bool, u64, Vec<u8>)>> {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    (0..writers)
        .map(|w| {
            (0..ops)
                .map(|i| {
                    let r = next();
                    let key = r % 6; // heavy contention
                    let remove = r & 0x80 == 0x80 && i > 0;
                    let value = vec![w as u8, i as u8, (r >> 8) as u8];
                    (remove, key, value)
                })
                .collect()
        })
        .collect()
}

#[test]
fn interleaved_schedules_are_deterministic_by_seed() {
    let plans = plans_from_seed(3, 3, 8);
    let (r1, f1, t1) = run_interleaved(42, &plans);
    let (r2, f2, t2) = run_interleaved(42, &plans);
    assert_eq!(t1, t2, "same seed, different schedule");
    assert_eq!(f1, f2, "same seed, different final state");
    assert_eq!(r1.len(), r2.len());
    let (_, f3, t3) = run_interleaved(43, &plans);
    assert!(
        t1 != t3 || f1 == f3,
        "different seed should differ (or agree harmlessly)"
    );
}

#[cfg(test)]
mod lin_proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Every seeded interleaving of contended concurrent mutators
        /// linearizes: the final state is explainable as a sequential
        /// permutation respecting real-time order.
        #[test]
        fn every_seeded_interleaving_linearizes(
            seed in 0u64..10_000,
            plan_seed in 0u64..1_000,
            writers in 2usize..5,
        ) {
            let plans = plans_from_seed(plan_seed, writers, 10);
            let (records, finals, _trace) = run_interleaved(seed, &plans);
            // Every non-noop op completed exactly once.
            prop_assert!(records.len() <= writers * 10);
            assert_linearizable(&records, &finals);
        }
    }
}
