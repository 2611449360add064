//! Crash consistency of cross-thread group commits.
//!
//! Two angles: an exhaustive [`crash_at_every_io`] sweep over a
//! multi-thread LiteDB workload committing through the coalescer (every
//! acknowledged transaction must survive, every transaction must be
//! all-or-nothing), and a property test that a store-level batch commit
//! recovers to exactly the image of the equivalent serial persists.

use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;

use msnap_disk::{crash_at_every_io, Disk, DiskConfig, BLOCK_SIZE};
use msnap_litedb::{LiteDb, MemSnapBackend, TableId};
use msnap_sim::{Nanos, Scheduler, StepOutcome, Vt};
use msnap_store::ObjectStore;

const THREADS: u32 = 3;
const TXNS_PER_THREAD: u64 = 6;
const KEYS_PER_TXN: u64 = 3;

/// Key of transaction `txn`'s `k`-th write on thread `t` (disjoint across
/// transactions, so each key is written exactly once).
fn key_of(t: u32, txn: u64, k: u64) -> u64 {
    t as u64 * 1_000 + txn * KEYS_PER_TXN + k
}

fn value_of(key: u64) -> [u8; 8] {
    (key * 31 + 7).to_le_bytes()
}

/// Runs the deterministic multi-thread grouped workload: every thread
/// commits through `commit_enqueue`/`commit_poll`, so concurrent
/// transactions coalesce into shared μCheckpoints. Returns the database
/// and each transaction's `(t, txn, ack_instant)` in acknowledgement
/// order.
fn run_grouped_workload() -> (LiteDb, TableId, Vec<(u32, u64, Nanos)>) {
    let mut vt0 = Vt::new(u32::MAX);
    let mut backend =
        MemSnapBackend::format_with_capacity(Disk::new(DiskConfig::paper()), "m", 4096, &mut vt0);
    backend
        .memsnap_mut()
        .set_coalesce_window(Nanos::from_us(16));
    let mut db = LiteDb::open(Box::new(backend), &mut vt0).unwrap();
    let table = db.create_table(&mut vt0, "kv");
    // Persist the setup thread's dirty pages (the fresh table's root):
    // dirty pages belong to their first writer, so anything the setup
    // thread leaves behind would otherwise never be persisted by the
    // per-thread commits below.
    let setup = vt0.id();
    db.begin(&mut vt0, setup);
    db.commit(&mut vt0, setup)
        .expect("setup runs without fault injection");
    let setup_done = vt0.now();

    let db = Rc::new(RefCell::new(db));
    let acks: Rc<RefCell<Vec<(u32, u64, Nanos)>>> = Rc::new(RefCell::new(Vec::new()));
    let mut sched = Scheduler::new();
    for t in 0..THREADS {
        let db = Rc::clone(&db);
        let acks = Rc::clone(&acks);
        let mut txn = 0u64;
        let mut pending = None;
        sched.spawn(move |vt: &mut Vt| {
            // Transactions start only after the format/open IO is durable,
            // so crash points inside setup never hold workload data.
            vt.wait_until(setup_done);
            let thread = vt.id();
            let mut db = db.borrow_mut();
            if let Some(ticket) = pending {
                match db
                    .commit_poll(vt, ticket)
                    .expect("workload runs without fault injection")
                {
                    true => {
                        acks.borrow_mut().push((t, txn, vt.now()));
                        pending = None;
                        txn += 1;
                    }
                    false => return StepOutcome::Continue,
                }
            }
            if txn >= TXNS_PER_THREAD {
                return StepOutcome::Done;
            }
            db.begin(vt, thread);
            for k in 0..KEYS_PER_TXN {
                let key = key_of(t, txn, k);
                db.put(vt, thread, table, key, &value_of(key));
            }
            let ticket = db
                .commit_enqueue(vt, thread)
                .expect("workload runs without fault injection")
                .expect("memsnap backend issues tickets");
            pending = Some(ticket);
            StepOutcome::Continue
        });
    }
    sched.run_to_completion();
    let db = Rc::try_unwrap(db).expect("all threads done").into_inner();
    let acks = Rc::try_unwrap(acks).expect("all threads done").into_inner();
    (db, table, acks)
}

fn into_disk(db: LiteDb) -> Disk {
    db.into_backend()
        .into_any()
        .downcast::<MemSnapBackend>()
        .expect("memsnap backend")
        .into_disk()
}

#[test]
fn every_io_boundary_recovers_grouped_commits_consistently() {
    // Reference run: learn each acknowledged transaction's durability
    // bound — the completion of the last device write at or before the
    // instant its poll returned (the shared batch's commit record).
    let (db, _, acks) = run_grouped_workload();
    let reference = into_disk(db);
    let completions = reference.write_completions().to_vec();
    let durable_by: Vec<(u32, u64, Nanos)> = acks
        .iter()
        .map(|&(t, txn, by)| {
            let done = completions
                .iter()
                .copied()
                .filter(|&c| c <= by)
                .max()
                .expect("every acknowledged transaction wrote");
            (t, txn, done)
        })
        .collect();
    assert_eq!(durable_by.len() as u64, THREADS as u64 * TXNS_PER_THREAD);

    let points = crash_at_every_io(
        || into_disk(run_grouped_workload().0),
        |disk, at| {
            let mut vt2 = Vt::new(1);
            let restored = match MemSnapBackend::try_restore(disk, "m", &mut vt2) {
                Ok(b) => b,
                Err(e) => {
                    // Crash during setup, before anything was durable.
                    assert!(
                        durable_by.iter().all(|&(_, _, done)| done > at),
                        "restore failed ({e}) at {at} despite acknowledged transactions"
                    );
                    return;
                }
            };
            let mut db2 = LiteDb::open(Box::new(restored), &mut vt2).unwrap();
            let table = db2.create_table(&mut vt2, "kv");

            // Every transaction acknowledged by the crash point survives
            // in full: a shared batch never loses one participant.
            for &(t, txn, done) in &durable_by {
                if done > at {
                    continue;
                }
                for k in 0..KEYS_PER_TXN {
                    let key = key_of(t, txn, k);
                    assert_eq!(
                        db2.get(&mut vt2, table, key),
                        Some(value_of(key).to_vec()),
                        "acked txn {txn} of thread {t} lost key {key} at crash {at}"
                    );
                }
            }
            // And every transaction is all-or-nothing, acknowledged or
            // not: a torn batch must never leave half a MultiPut behind.
            for t in 0..THREADS {
                for txn in 0..TXNS_PER_THREAD {
                    let present = (0..KEYS_PER_TXN)
                        .filter(|&k| {
                            let key = key_of(t, txn, k);
                            db2.get(&mut vt2, table, key) == Some(value_of(key).to_vec())
                        })
                        .count() as u64;
                    assert!(
                        present == 0 || present == KEYS_PER_TXN,
                        "txn {txn} of thread {t} recovered {present}/{KEYS_PER_TXN} \
                         keys at crash {at}"
                    );
                }
            }
        },
    );
    assert!(
        points as u64 > THREADS as u64 * TXNS_PER_THREAD,
        "the sweep must cross every batch boundary, got {points}"
    );
}

// ---- Batch commit ≡ serial persists -----------------------------------

/// One randomized round of writes: `(object, page, fill byte)` triples,
/// last write per (object, page) wins — exactly what both commit paths
/// must agree on.
type Round = Vec<(usize, u64, u8)>;

/// Applies `rounds` to three objects, committing each round either as one
/// `persist_batch` or as per-object serial persists, then crashes and
/// returns the recovered image (epochs + first 12 pages per object).
#[allow(clippy::type_complexity)]
fn store_image(rounds: &[Round], batched: bool) -> Vec<Vec<u8>> {
    let mut disk = Disk::new(DiskConfig::paper());
    let mut store = ObjectStore::format(&mut disk);
    let mut vt = Vt::new(0);
    let names = ["a", "b", "c"];
    let objs: Vec<_> = names
        .iter()
        .map(|n| store.create(&mut vt, &mut disk, n).unwrap())
        .collect();

    let mut last = Nanos::ZERO;
    for round in rounds {
        // Deduplicate within the round: last write per (object, page).
        let mut per_obj: Vec<std::collections::BTreeMap<u64, u8>> = vec![Default::default(); 3];
        for &(obj, page, byte) in round {
            per_obj[obj].insert(page, byte);
        }
        let owned: Vec<(usize, Vec<(u64, Vec<u8>)>)> = per_obj
            .iter()
            .enumerate()
            .filter(|(_, pages)| !pages.is_empty())
            .map(|(i, pages)| {
                let pages = pages
                    .iter()
                    .map(|(&p, &b)| (p, vec![b; BLOCK_SIZE]))
                    .collect();
                (i, pages)
            })
            .collect();
        if owned.is_empty() {
            continue;
        }
        let refs: Vec<Vec<(u64, &[u8])>> = owned
            .iter()
            .map(|(_, pages)| pages.iter().map(|(p, b)| (*p, b.as_slice())).collect())
            .collect();
        if batched {
            let groups: Vec<_> = owned
                .iter()
                .zip(&refs)
                .map(|(&(i, _), r)| (objs[i], r.as_slice()))
                .collect();
            let tokens = store.persist_batch(&mut vt, &mut disk, &groups).unwrap();
            for token in tokens {
                last = last.max(token.completes);
            }
        } else {
            for (&(i, _), r) in owned.iter().zip(&refs) {
                let token = store.persist(&mut vt, &mut disk, objs[i], r).unwrap();
                last = last.max(token.completes);
            }
        }
        vt.wait_until(last);
    }

    disk.crash(last);
    let mut vt2 = Vt::new(1);
    let mut store2 = ObjectStore::open(&mut vt2, &mut disk).unwrap();
    let mut image = Vec::new();
    for name in names {
        let obj = store2.lookup(name).unwrap();
        image.push(store2.epoch(obj).to_le_bytes().to_vec());
        for page in 0..12u64 {
            let mut out = vec![0u8; BLOCK_SIZE];
            store2
                .read_page(&mut vt2, &mut disk, obj, page, &mut out)
                .unwrap();
            image.push(out);
        }
    }
    image
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A batch commit is observationally identical to the serial persists
    /// it coalesces: same recovered epochs, same recovered pages, from
    /// any sequence of rounds.
    #[test]
    fn batched_commit_equals_serial_persists(
        rounds in prop::collection::vec(
            prop::collection::vec((0usize..3, 0u64..12, 1u8..=255), 1..8),
            1..5,
        )
    ) {
        prop_assert_eq!(store_image(&rounds, true), store_image(&rounds, false));
    }
}
