//! Crash-point matrix: power-fail a LiteDB/MemSnap workload at many
//! instants and verify that recovery always yields exactly the prefix of
//! committed transactions (persistence serializability, paper §4).
//!
//! Two granularities: a coarse 12-point matrix over the full 120-txn
//! workload, and an exhaustive [`crash_at_every_io`] sweep that crashes
//! on both sides of *every* write-completion boundary of a shorter run.

use msnap_disk::{crash_at_every_io, Disk, DiskConfig, Fault, FaultPlan};
use msnap_litedb::{LiteDb, MemSnapBackend};
use msnap_sim::{Nanos, Vt};

const KEYS: u64 = 64;
const TXNS: u64 = 120;

/// Runs `txns` deterministic transactions, returning the instant each
/// commit call returned (durability upper bound) and the final clock.
fn run_workload(db: &mut LiteDb, vt: &mut Vt, txns: u64) -> Vec<Nanos> {
    let table = db.create_table(vt, "kv");
    let thread = vt.id();
    let mut commits = Vec::new();
    for i in 0..txns {
        db.begin(vt, thread);
        // Each transaction stamps three keys with its own index.
        for j in 0..3u64 {
            let key = (i * 7 + j * 13) % KEYS;
            db.put(vt, thread, table, key, &i.to_le_bytes());
        }
        db.commit(vt, thread)
            .expect("workload runs without fault injection");
        commits.push(vt.now());
    }
    commits
}

/// Replays the workload's effects up to transaction `upto` on a plain map.
fn expected_state(upto: u64) -> std::collections::HashMap<u64, u64> {
    let mut state = std::collections::HashMap::new();
    for i in 0..upto {
        for j in 0..3u64 {
            state.insert((i * 7 + j * 13) % KEYS, i);
        }
    }
    state
}

/// Restores from `disk` and asserts the database holds exactly the state
/// of the first `committed` transactions.
fn assert_recovers_prefix(disk: Disk, committed: u64, context: &str) {
    let mut vt2 = Vt::new(1);
    let restored = match MemSnapBackend::try_restore(disk, "m", &mut vt2) {
        Ok(b) => b,
        Err(e) => {
            // A crash can land during setup, before the store (or the
            // database region) is durable. Nothing was committed then.
            assert_eq!(
                committed, 0,
                "restore failed ({e}) {context} despite committed transactions"
            );
            return;
        }
    };
    let mut db2 = LiteDb::open(Box::new(restored), &mut vt2).unwrap();
    let table = db2.create_table(&mut vt2, "kv");

    let expected = expected_state(committed);
    for key in 0..KEYS {
        let got = db2
            .get(&mut vt2, table, key)
            .map(|v| u64::from_le_bytes(v[..8].try_into().expect("8-byte values")));
        assert_eq!(
            got,
            expected.get(&key).copied(),
            "key {key} {context} ({committed} committed txns)"
        );
    }
}

fn fresh_db(vt: &mut Vt) -> LiteDb {
    let backend =
        MemSnapBackend::format_with_capacity(Disk::new(DiskConfig::paper()), "m", 4096, vt);
    LiteDb::open(Box::new(backend), vt).unwrap()
}

fn into_disk(db: LiteDb) -> Disk {
    db.into_backend()
        .into_any()
        .downcast::<MemSnapBackend>()
        .expect("memsnap backend")
        .into_disk()
}

#[test]
fn recovery_is_a_committed_prefix_at_every_crash_point() {
    // First, one run to learn the commit timeline.
    let mut vt = Vt::new(0);
    let mut db = fresh_db(&mut vt);
    let commits = run_workload(&mut db, &mut vt, TXNS);
    let end = vt.now();
    drop(db);

    // Crash at 12 points spread over the run (plus exactly-at-commit
    // boundaries), re-running the deterministic workload each time.
    let mut crash_points: Vec<Nanos> = (1..=10)
        .map(|i| Nanos::from_ns(end.as_ns() * i / 10))
        .collect();
    crash_points.push(commits[TXNS as usize / 2]); // exactly at a commit
    crash_points.push(commits[TXNS as usize / 2] + Nanos::from_ns(1));

    for crash_at in crash_points {
        let mut vt = Vt::new(0);
        let mut db = fresh_db(&mut vt);
        let commits = run_workload(&mut db, &mut vt, TXNS);

        let committed = commits.iter().filter(|&&c| c <= crash_at).count() as u64;
        let mut disk = into_disk(db);
        disk.crash(crash_at);
        assert_recovers_prefix(disk, committed, &format!("after crash at {crash_at}"));
    }
}

#[test]
fn every_io_boundary_recovers_to_a_committed_prefix() {
    // Exhaustive sweep: crash just before and exactly at every write
    // completion of the run. 40 transactions cross a full delta window
    // plus a full-root commit, so both commit paths are swept.
    const SWEEP_TXNS: u64 = 40;
    let run_to_db = || {
        let mut vt = Vt::new(0);
        let mut db = fresh_db(&mut vt);
        let commits = run_workload(&mut db, &mut vt, SWEEP_TXNS);
        (db, commits)
    };

    // Learn each transaction's exact durability instant: the completion
    // of the last write segment at or before the moment its synchronous
    // commit returned (the commit-record write).
    let (db, commits) = run_to_db();
    let reference = into_disk(db);
    let completions = reference.write_completions().to_vec();
    let commit_done: Vec<Nanos> = commits
        .iter()
        .map(|&by| {
            completions
                .iter()
                .copied()
                .filter(|&c| c <= by)
                .max()
                .expect("every transaction writes")
        })
        .collect();

    let points = crash_at_every_io(
        || into_disk(run_to_db().0),
        |disk, at| {
            let committed = commit_done.iter().filter(|&&c| c <= at).count() as u64;
            assert_recovers_prefix(disk, committed, &format!("after boundary crash at {at}"));
        },
    );
    assert!(
        points as u64 > 2 * SWEEP_TXNS,
        "the sweep must visit both sides of every commit boundary, got {points}"
    );
}

#[test]
fn dropped_commit_write_surfaces_as_a_sticky_abort() {
    // A deliberately injected dropped write must surface as a
    // transaction abort and stay sticky across the next commit attempt —
    // never a panic, never silently cleared.
    let mut vt = Vt::new(0);
    let mut backend =
        MemSnapBackend::format_with_capacity(Disk::new(DiskConfig::paper()), "m", 4096, &mut vt);
    backend.set_fault_plan(FaultPlan::new().at(
        backend.memsnap().disk().io_seq(),
        Fault::Drop { transient: false },
    ));
    let mut db = LiteDb::open(Box::new(backend), &mut vt).unwrap();
    let table = db.create_table(&mut vt, "kv");
    let thread = vt.id();

    db.begin(&mut vt, thread);
    db.put(&mut vt, thread, table, 1, &7u64.to_le_bytes());
    let err = db
        .commit(&mut vt, thread)
        .expect_err("the injected drop aborts the commit");

    // Fsync-gate: the next commit reports the same failure instead of
    // silently succeeding over lost data.
    db.begin(&mut vt, thread);
    db.put(&mut vt, thread, table, 2, &8u64.to_le_bytes());
    let again = db
        .commit(&mut vt, thread)
        .expect_err("the error is sticky until acknowledged");
    assert_eq!(err, again, "the sticky report is the original device error");

    // Acknowledge, retry: both transactions' pages are still dirty in
    // the region, so the retry persists everything that was aborted.
    let mut backend = db
        .into_backend()
        .into_any()
        .downcast::<MemSnapBackend>()
        .expect("memsnap backend");
    assert!(
        backend.ack_error().is_some(),
        "the abort is reported exactly once"
    );
    let mut db = LiteDb::open(backend, &mut vt).unwrap();
    let table = db.create_table(&mut vt, "kv");
    db.begin(&mut vt, thread);
    db.put(&mut vt, thread, table, 3, &9u64.to_le_bytes());
    db.commit(&mut vt, thread)
        .expect("acknowledged device works again");

    for (key, val) in [(1u64, 7u64), (2, 8), (3, 9)] {
        let got = db
            .get(&mut vt, table, key)
            .map(|v| u64::from_le_bytes(v[..8].try_into().expect("8-byte values")));
        assert_eq!(got, Some(val), "key {key} survives the acknowledged retry");
    }
}

/// Replication invariant: power-failing a delta-stream apply at *every*
/// IO boundary leaves the replica at exactly the base-snapshot image or
/// exactly the target-snapshot image — never an epoch in between, never
/// a mixed page set. The root-record write inside
/// [`msnap_store::ObjectStore::apply_image`] is the single commit point.
#[test]
fn delta_apply_crash_sweep_lands_at_base_or_target_epoch() {
    use msnap_disk::BLOCK_SIZE;
    use msnap_snap::{ApplySession, DeltaStream};
    use msnap_store::ObjectStore;

    // Primary: six pages, snapshot "base", churn three, snapshot "tip".
    const PAGES: u64 = 6;
    let mut pdisk = Disk::new(DiskConfig::paper());
    let mut store = ObjectStore::format(&mut pdisk);
    let mut vt = Vt::new(0);
    let obj = store.create(&mut vt, &mut pdisk, "db").unwrap();
    for p in 0..PAGES {
        let img = vec![0x30 + p as u8; BLOCK_SIZE];
        let t = store
            .persist(&mut vt, &mut pdisk, obj, &[(p, &img[..])])
            .unwrap();
        ObjectStore::wait(&mut vt, t);
    }
    store
        .snapshot_create(&mut vt, &mut pdisk, obj, "base")
        .unwrap();
    for p in [0u64, 2, 5] {
        let img = vec![0xC0 + p as u8; BLOCK_SIZE];
        let t = store
            .persist(&mut vt, &mut pdisk, obj, &[(p, &img[..])])
            .unwrap();
        ObjectStore::wait(&mut vt, t);
    }
    store
        .snapshot_create(&mut vt, &mut pdisk, obj, "tip")
        .unwrap();

    // Reference images of both retained epochs, page by page.
    let base_epoch = store.snapshot_lookup("base").unwrap().epoch;
    let tip_epoch = store.snapshot_lookup("tip").unwrap().epoch;
    let mut images = std::collections::HashMap::new();
    for (name, epoch) in [("base", base_epoch), ("tip", tip_epoch)] {
        let mut pages = Vec::new();
        for p in 0..PAGES {
            let mut img = vec![0u8; BLOCK_SIZE];
            store
                .read_page_at(&mut vt, &mut pdisk, name, p, &mut img)
                .unwrap();
            pages.push(img);
        }
        images.insert(epoch, pages);
    }

    let full = DeltaStream::build(&mut vt, &mut pdisk, &mut store, None, "base", None).unwrap();
    let delta =
        DeltaStream::build(&mut vt, &mut pdisk, &mut store, Some("base"), "tip", None).unwrap();

    let apply = |vt: &mut Vt, disk: &mut Disk, replica: &mut ObjectStore, stream: &DeltaStream| {
        let session = ApplySession::begin(vt, disk, replica, &stream.header).unwrap();
        let frames = stream.frames.iter();
        session
            .finish(vt, disk, replica, frames, &stream.trailer, None)
            .unwrap();
    };

    let run = || {
        let mut vt = Vt::new(7);
        let mut rdisk = Disk::new(DiskConfig::paper());
        let mut replica = ObjectStore::format(&mut rdisk);
        // Land the base image and settle it; the sweep then exercises
        // crashes during the *delta* apply only.
        apply(&mut vt, &mut rdisk, &mut replica, &full);
        rdisk.settle();
        apply(&mut vt, &mut rdisk, &mut replica, &delta);
        rdisk
    };

    let mut reached_target = 0usize;
    let points = crash_at_every_io(run, |mut disk, at| {
        let mut vt = Vt::new(9);
        let mut replica = ObjectStore::open(&mut vt, &mut disk)
            .unwrap_or_else(|e| panic!("replica unreadable after crash at {at}: {e}"));
        let robj = replica.lookup("db").expect("settled base image lost");
        let epoch = replica.epoch(robj);
        assert!(
            epoch == base_epoch || epoch == tip_epoch,
            "crash at {at} left the replica at epoch {epoch}, \
             expected exactly {base_epoch} (base) or {tip_epoch} (target)"
        );
        if epoch == tip_epoch {
            reached_target += 1;
        }
        let want = &images[&epoch];
        let mut got = vec![0u8; BLOCK_SIZE];
        for p in 0..PAGES {
            replica
                .read_page(&mut vt, &mut disk, robj, p, &mut got)
                .unwrap();
            assert_eq!(
                got, want[p as usize],
                "page {p} diverges from the epoch-{epoch} image after crash at {at}"
            );
        }
    });
    assert!(points > 20, "sweep too small to be meaningful: {points}");
    assert!(
        reached_target >= 1,
        "no crash point observed the committed target epoch"
    );
}

/// The same exhaustive crash sweep over a *sub-page* (v2) delta apply:
/// the stream carries sub-page frames — 64-byte line runs diffed
/// against the retained base, compressed where worthwhile — yet a
/// power failure at any IO boundary still leaves the replica at
/// exactly the base image or exactly the target image. Sub-page
/// resolution happens in memory before the single root-switch commit
/// point, so granularity never weakens crash atomicity.
#[test]
fn subpage_delta_apply_crash_sweep_lands_at_base_or_target_epoch() {
    use msnap_disk::BLOCK_SIZE;
    use msnap_snap::{ApplySession, DeltaStream, Frame};
    use msnap_store::ObjectStore;

    // Primary: six pages, snapshot "base", then scattered 64-byte line
    // rewrites on three pages (plus one whole-page rewrite so the
    // stream mixes frame kinds), snapshot "tip".
    const PAGES: u64 = 6;
    let mut pdisk = Disk::new(DiskConfig::paper());
    let mut store = ObjectStore::format(&mut pdisk);
    let mut vt = Vt::new(0);
    let obj = store.create(&mut vt, &mut pdisk, "db").unwrap();
    for p in 0..PAGES {
        let img: Vec<u8> = (0..BLOCK_SIZE)
            .map(|j| (0x30 + p as u8) ^ (j as u8).wrapping_mul(7))
            .collect();
        let t = store
            .persist(&mut vt, &mut pdisk, obj, &[(p, &img[..])])
            .unwrap();
        ObjectStore::wait(&mut vt, t);
    }
    store
        .snapshot_create(&mut vt, &mut pdisk, obj, "base")
        .unwrap();
    let mut images_iov = Vec::new();
    for (p, lines) in [(0u64, [3usize, 40]), (2, [0, 63]), (5, [17, 18])] {
        let mut img = vec![0u8; BLOCK_SIZE];
        store
            .read_page(&mut vt, &mut pdisk, obj, p, &mut img)
            .unwrap();
        for line in lines {
            img[line * 64..(line + 1) * 64].fill(0xC0 + p as u8);
        }
        images_iov.push((p, img));
    }
    images_iov.push((3, vec![0xEE; BLOCK_SIZE]));
    let iov: Vec<(u64, &[u8])> = images_iov.iter().map(|(p, img)| (*p, &img[..])).collect();
    let t = store.persist(&mut vt, &mut pdisk, obj, &iov).unwrap();
    ObjectStore::wait(&mut vt, t);
    store
        .snapshot_create(&mut vt, &mut pdisk, obj, "tip")
        .unwrap();

    let base_epoch = store.snapshot_lookup("base").unwrap().epoch;
    let tip_epoch = store.snapshot_lookup("tip").unwrap().epoch;
    let mut images = std::collections::HashMap::new();
    for (name, epoch) in [("base", base_epoch), ("tip", tip_epoch)] {
        let mut pages = Vec::new();
        for p in 0..PAGES {
            let mut img = vec![0u8; BLOCK_SIZE];
            store
                .read_page_at(&mut vt, &mut pdisk, name, p, &mut img)
                .unwrap();
            pages.push(img);
        }
        images.insert(epoch, pages);
    }

    let full = DeltaStream::build(&mut vt, &mut pdisk, &mut store, None, "base", None).unwrap();
    let delta =
        DeltaStream::build(&mut vt, &mut pdisk, &mut store, Some("base"), "tip", None).unwrap();
    assert!(
        delta
            .frames
            .iter()
            .any(|f| matches!(f, Frame::Sub(s) if !s.covers_whole())),
        "the sweep must actually exercise partial sub-page frames"
    );

    let apply = |vt: &mut Vt, disk: &mut Disk, replica: &mut ObjectStore, stream: &DeltaStream| {
        let session = ApplySession::begin(vt, disk, replica, &stream.header).unwrap();
        let frames = stream.frames.iter();
        session
            .finish(vt, disk, replica, frames, &stream.trailer, None)
            .unwrap();
    };

    let run = || {
        let mut vt = Vt::new(7);
        let mut rdisk = Disk::new(DiskConfig::paper());
        let mut replica = ObjectStore::format(&mut rdisk);
        apply(&mut vt, &mut rdisk, &mut replica, &full);
        rdisk.settle();
        apply(&mut vt, &mut rdisk, &mut replica, &delta);
        rdisk
    };

    let mut reached_target = 0usize;
    let points = crash_at_every_io(run, |mut disk, at| {
        let mut vt = Vt::new(9);
        let mut replica = ObjectStore::open(&mut vt, &mut disk)
            .unwrap_or_else(|e| panic!("replica unreadable after crash at {at}: {e}"));
        let robj = replica.lookup("db").expect("settled base image lost");
        let epoch = replica.epoch(robj);
        assert!(
            epoch == base_epoch || epoch == tip_epoch,
            "crash at {at} left the replica at epoch {epoch}, \
             expected exactly {base_epoch} (base) or {tip_epoch} (target)"
        );
        if epoch == tip_epoch {
            reached_target += 1;
        }
        let want = &images[&epoch];
        let mut got = vec![0u8; BLOCK_SIZE];
        for p in 0..PAGES {
            replica
                .read_page(&mut vt, &mut disk, robj, p, &mut got)
                .unwrap();
            assert_eq!(
                got, want[p as usize],
                "page {p} diverges from the epoch-{epoch} image after crash at {at}"
            );
        }
    });
    assert!(points > 20, "sweep too small to be meaningful: {points}");
    assert!(
        reached_target >= 1,
        "no crash point observed the committed target epoch"
    );
}
