//! Cross-crate integration tests: the paper's headline claims, asserted
//! end to end on scaled workloads.

use std::cell::RefCell;
use std::rc::Rc;

use memsnap::{MemSnap, PersistFlags, RegionSel, PAGE_SIZE};
use msnap_disk::{Disk, DiskConfig};
use msnap_fs::{FileSystem, FsKind};
use msnap_sim::{Nanos, Vt};

/// §1: "MemSnap-based persistence has 4.5x-30x lower latency than
/// file-based random IO and is within 2x of direct disk IO latency."
#[test]
fn headline_latency_claims() {
    // Random 4 KiB persistence.
    let mut ms = MemSnap::format(Disk::new(DiskConfig::paper()));
    let mut vt = Vt::new(0);
    let space = ms.vm_mut().create_space();
    let region = ms.msnap_open(&mut vt, space, "r", 4096).unwrap();
    let thread = vt.id();
    ms.write(
        &mut vt,
        space,
        thread,
        region.addr + 17 * PAGE_SIZE as u64,
        &[1u8; 64],
    )
    .unwrap();
    let t0 = vt.now();
    ms.msnap_persist(
        &mut vt,
        thread,
        RegionSel::Region(region.md),
        PersistFlags::sync(),
    )
    .unwrap();
    let memsnap_us = (vt.now() - t0).as_us_f64();

    // Direct disk IO of the same size.
    let disk_us = DiskConfig::paper().segment_latency(4096).as_us_f64();

    // fsync after a random 4 KiB write.
    let mut disk = Disk::new(DiskConfig::paper());
    let mut fs = FileSystem::new(FsKind::Ffs);
    let mut fvt = Vt::new(0);
    let fd = fs.create(&mut fvt, "f");
    fs.write(&mut fvt, &mut disk, fd, 0, &vec![0u8; 1 << 20]);
    fs.fsync(&mut fvt, &mut disk, fd);
    fs.write(&mut fvt, &mut disk, fd, 17 * 4096, &[1u8; 64]);
    let t0 = fvt.now();
    fs.fsync(&mut fvt, &mut disk, fd);
    let fsync_us = (fvt.now() - t0).as_us_f64();

    assert!(
        memsnap_us <= disk_us * 3.0,
        "memsnap {memsnap_us:.0} us should be within ~2x of disk {disk_us:.0} us"
    );
    assert!(
        fsync_us / memsnap_us >= 3.0,
        "random fsync {fsync_us:.0} us should dwarf memsnap {memsnap_us:.0} us"
    );
}

/// §1: "MemSnap increases the throughput of SQLite by 5x over file APIs"
/// (random dbbench; scaled here, so we assert >2x) and the TATP benefit.
#[test]
fn sqlite_case_study_speedup() {
    use msnap_litedb::drivers::{run_dbbench, DbbenchConfig};
    use msnap_litedb::{FileBackend, LiteDb, MemSnapBackend};
    use msnap_workloads::dbbench::KeyOrder;

    let cfg = DbbenchConfig {
        txn_bytes: 4096,
        total_kvs: 10_000,
        key_space: 8_192,
        order: KeyOrder::Random,
        seed: 3,
    };
    let mut vt = Vt::new(0);
    let be = MemSnapBackend::format_with_capacity(
        Disk::new(DiskConfig::paper()),
        "db",
        1 << 15,
        &mut vt,
    );
    let mut db = LiteDb::new(Box::new(be), &mut vt);
    let ms = run_dbbench(&mut db, &mut vt, &cfg);

    let mut vt = Vt::new(0);
    let be = FileBackend::format(Disk::new(DiskConfig::paper()), FsKind::Ffs, "db", &mut vt);
    let mut db = LiteDb::new(Box::new(be), &mut vt);
    let wal = run_dbbench(&mut db, &mut vt, &cfg);

    let speedup = wal.wall.as_ns() as f64 / ms.wall.as_ns() as f64;
    assert!(speedup > 2.0, "random dbbench speedup only {speedup:.1}x");
}

/// §1: "a 4x throughput improvement for RocksDB compared to Aurora", and
/// memsnap beats the WAL baseline (Table 9 ordering).
#[test]
fn rocksdb_case_study_ordering() {
    use msnap_skipdb::drivers::{fill, run_mixgraph, MixGraphConfig};
    use msnap_skipdb::{AuroraKv, BaselineKv, MemSnapKv};

    let cfg = MixGraphConfig {
        keys: 3_000,
        ops_per_thread: 250,
        threads: 8,
        seed: 5,
    };
    let mut vt = Vt::new(u32::MAX);
    let mut kv = MemSnapKv::format(Disk::new(DiskConfig::paper()), 1 << 14, &mut vt);
    fill(&mut kv, &mut vt, cfg.keys, 256);
    let ms = run_mixgraph(Rc::new(RefCell::new(kv)), &cfg, vt.now());

    let mut vt = Vt::new(u32::MAX);
    let mut kv = BaselineKv::format(Disk::new(DiskConfig::paper()), 4 << 20, &mut vt);
    fill(&mut kv, &mut vt, cfg.keys, 256);
    let wal = run_mixgraph(Rc::new(RefCell::new(kv)), &cfg, vt.now());

    let mut vt = Vt::new(u32::MAX);
    let mut kv = AuroraKv::format(
        Disk::new(DiskConfig::paper()),
        1 << 14,
        cfg.threads,
        &mut vt,
    );
    fill(&mut kv, &mut vt, cfg.keys, 256);
    let aurora = run_mixgraph(Rc::new(RefCell::new(kv)), &cfg, vt.now());

    assert!(
        ms.kops > wal.kops,
        "memsnap {:.1} vs wal {:.1}",
        ms.kops,
        wal.kops
    );
    assert!(
        ms.kops / aurora.kops > 3.0,
        "memsnap {:.1} should be ~4x aurora {:.1}",
        ms.kops,
        aurora.kops
    );
}

/// Figure 6's orderings, asserted end to end.
#[test]
fn postgres_case_study_ordering() {
    use msnap_pgdb::tpcc::{run, setup, TpccConfig};
    use msnap_pgdb::StoreVariant;

    let cfg = TpccConfig {
        warehouses: 1,
        connections: 4,
        duration: Nanos::from_ms(200),
        ckpt_wal_bytes: 1 << 20,
        ckpt_interval: Nanos::from_ms(20),
        seed: 2,
    };
    let mut results = Vec::new();
    for variant in [
        StoreVariant::Baseline,
        StoreVariant::FfsMmap,
        StoreVariant::FfsMmapBufdirect,
        StoreVariant::MemSnap,
    ] {
        let mut vt = Vt::new(u32::MAX);
        let db = setup(variant, cfg.warehouses, cfg.connections, &mut vt);
        let (report, _) = run(db, &cfg, vt.now());
        results.push(report);
    }
    let (baseline, mmap, bufdirect, memsnap) = (&results[0], &results[1], &results[2], &results[3]);
    assert!(
        memsnap.tps >= baseline.tps,
        "memsnap matches or beats the baseline"
    );
    assert!(
        baseline.tps > mmap.tps,
        "mmap persistence penalizes throughput"
    );
    assert!(mmap.tps > bufdirect.tps, "bufdirect is the slowest stack");
    let ms_bytes = memsnap.io.bytes_written as f64 / memsnap.txns as f64;
    let base_bytes = baseline.io.bytes_written as f64 / baseline.txns as f64;
    assert!(
        ms_bytes < base_bytes,
        "memsnap writes fewer bytes per transaction"
    );
}

/// The complete SLS loop: open → mutate → persist → crash → restore →
/// verify, across two regions with independent epochs.
#[test]
fn sls_crash_cycle_two_regions() {
    let mut ms = MemSnap::format(Disk::new(DiskConfig::paper()));
    let mut vt = Vt::new(0);
    let space = ms.vm_mut().create_space();
    let a = ms.msnap_open(&mut vt, space, "a", 8).unwrap();
    let b = ms.msnap_open(&mut vt, space, "b", 8).unwrap();
    let thread = vt.id();

    for round in 0..5u8 {
        ms.write(&mut vt, space, thread, a.addr, &[round; 32])
            .unwrap();
        ms.msnap_persist(
            &mut vt,
            thread,
            RegionSel::Region(a.md),
            PersistFlags::sync(),
        )
        .unwrap();
    }
    ms.write(&mut vt, space, thread, b.addr, b"only-once")
        .unwrap();
    ms.msnap_persist(
        &mut vt,
        thread,
        RegionSel::Region(b.md),
        PersistFlags::sync(),
    )
    .unwrap();

    let disk = ms.crash(vt.now());
    let mut vt2 = Vt::new(1);
    let mut ms2 = MemSnap::restore(&mut vt2, disk).unwrap();
    let space2 = ms2.vm_mut().create_space();
    let a2 = ms2.msnap_open(&mut vt2, space2, "a", 0).unwrap();
    let b2 = ms2.msnap_open(&mut vt2, space2, "b", 0).unwrap();
    let mut buf = [0u8; 32];
    ms2.read(&mut vt2, space2, a2.addr, &mut buf).unwrap();
    assert_eq!(buf, [4u8; 32]);
    let mut buf = [0u8; 9];
    ms2.read(&mut vt2, space2, b2.addr, &mut buf).unwrap();
    assert_eq!(&buf, b"only-once");
}

/// An in-place μCheckpoint issued while its region's previous record is
/// still queued on a busy device rides that record: no write of its own,
/// counted in `StoreStats::absorbed_commits`, and restored after a crash
/// at the record's completion.
#[test]
fn a_commit_behind_its_regions_queued_record_rides_it() {
    let mut ms = MemSnap::format(Disk::new(DiskConfig::paper()));
    let mut vt = Vt::new(0);
    let space = ms.vm_mut().create_space();
    let t = vt.id();
    let busy = ms.msnap_open(&mut vt, space, "busy", 24).unwrap();
    let r = ms.msnap_open(&mut vt, space, "data", 16).unwrap();
    let sel = RegionSel::Region(r.md);
    // 24 whole pages of another region in flight keep both channels of
    // the paper device busy.
    for p in 0..24 {
        let va = busy.addr + p * PAGE_SIZE as u64;
        ms.write(&mut vt, space, t, va, &[7; PAGE_SIZE]).unwrap();
    }
    let busy_sel = RegionSel::Region(busy.md);
    ms.msnap_persist(&mut vt, t, busy_sel, PersistFlags::async_())
        .unwrap();

    let ios = ms.disk().io_seq();
    ms.write(&mut vt, space, t, r.addr, &[1; 8]).unwrap();
    let first = ms.msnap_persist(&mut vt, t, sel, PersistFlags::async_());
    ms.write(&mut vt, space, t, r.addr + 64, &[2; 8]).unwrap();
    let second = ms.msnap_persist(&mut vt, t, sel, PersistFlags::async_());
    let (first, second) = (first.unwrap(), second.unwrap());
    assert_eq!((second, ms.disk().io_seq()), (first + 1, ios + 1));
    let stats = ms.store().stats();
    assert_eq!((stats.line_commits, stats.absorbed_commits), (2, 1));
    ms.msnap_wait(&mut vt, sel, second).unwrap();

    let disk = ms.crash(vt.now());
    let mut vt2 = Vt::new(1);
    let mut ms2 = MemSnap::restore(&mut vt2, disk).unwrap();
    let space2 = ms2.vm_mut().create_space();
    let r2 = ms2.msnap_open(&mut vt2, space2, "data", 0).unwrap();
    let mut buf = [0u8; 72];
    ms2.read(&mut vt2, space2, r2.addr, &mut buf).unwrap();
    assert_eq!((&buf[..8], &buf[64..]), (&[1; 8][..], &[2; 8][..]));
}

/// Replication acceptance: a replica whose device suffers transient IO
/// faults mid-apply still catches up to the primary's newest retained
/// snapshot through delta streams alone — one initial full image, and
/// every later round an incremental delta, even the rounds whose first
/// apply attempt was aborted by injected faults. Retention keeps exactly
/// one shipped base alive on the primary.
#[test]
fn faulted_replica_catches_up_with_deltas_alone() {
    use msnap_disk::{Fault, FaultPlan, BLOCK_SIZE};
    use msnap_snap::{sync_to, SnapError};
    use msnap_store::{ObjectStore, StoreError, MAX_IO_ATTEMPTS};

    const PAGES: u64 = 16;
    const ROUNDS: u64 = 6;

    let mut vt = Vt::new(0);
    let mut pdisk = Disk::new(DiskConfig::paper());
    let mut store = ObjectStore::format(&mut pdisk);
    let obj = store.create(&mut vt, &mut pdisk, "db").unwrap();
    let mut rdisk = Disk::new(DiskConfig::paper());
    let mut replica = ObjectStore::format(&mut rdisk);

    let mut full_syncs = 0u64;
    let mut delta_syncs = 0u64;
    let mut aborted_applies = 0u64;
    let mut shipped_base: Option<String> = None;
    for round in 0..ROUNDS {
        // Churn a sliding window of pages, then retain the epoch.
        for k in 0..4u64 {
            let page = (round * 3 + k) % PAGES;
            let img = vec![(0x11 * (round + 1)) as u8 ^ page as u8; BLOCK_SIZE];
            let t = store
                .persist(&mut vt, &mut pdisk, obj, &[(page, &img[..])])
                .unwrap();
            ObjectStore::wait(&mut vt, t);
        }
        let name = format!("e{round}");
        store
            .snapshot_create(&mut vt, &mut pdisk, obj, &name)
            .unwrap();

        // Every other round, exhaust the store's internal retry budget
        // on the replica device so the sync itself fails and must be
        // re-driven by the replication layer.
        if round % 2 == 1 {
            let mut plan = FaultPlan::new();
            for i in 0..MAX_IO_ATTEMPTS as u64 {
                plan = plan.at(rdisk.io_seq() + i, Fault::Drop { transient: true });
            }
            rdisk.set_fault_plan(plan);
        }

        let epoch_before = replica.lookup("db").map(|o| replica.epoch(o));
        let report = loop {
            match sync_to(
                &mut vt,
                &mut store,
                &mut pdisk,
                &mut replica,
                &mut rdisk,
                &name,
            ) {
                Ok(r) => break r,
                Err(SnapError::Store(StoreError::Io(e))) => {
                    assert!(e.is_transient(), "only transient faults were injected");
                    // The aborted apply must not have moved the replica:
                    // the retry below re-ships the *same* delta.
                    let robj = replica.lookup("db").unwrap();
                    assert_eq!(Some(replica.epoch(robj)), epoch_before);
                    aborted_applies += 1;
                }
                Err(e) => panic!("unexpected sync failure in round {round}: {e}"),
            }
        };
        if report.full_sync {
            full_syncs += 1;
        } else {
            delta_syncs += 1;
        }

        // Retire the previously shipped base; `name` is the next base.
        if let Some(old) = shipped_base.replace(name) {
            store.snapshot_delete(&mut vt, &mut pdisk, &old).unwrap();
        }
    }

    assert_eq!(full_syncs, 1, "only the bootstrap round ships a full image");
    assert_eq!(delta_syncs, ROUNDS - 1, "every later round is incremental");
    assert_eq!(
        aborted_applies,
        ROUNDS / 2,
        "each faulted round aborts exactly one apply before the retry lands"
    );

    // The replica sits at the newest retained epoch, byte-for-byte.
    let last = format!("e{}", ROUNDS - 1);
    let tip = store.snapshot_lookup(&last).unwrap();
    let robj = replica.lookup("db").unwrap();
    assert_eq!(replica.epoch(robj), tip.epoch);
    let mut want = vec![0u8; BLOCK_SIZE];
    let mut got = vec![0u8; BLOCK_SIZE];
    for page in 0..tip.len_pages {
        store
            .read_page_at(&mut vt, &mut pdisk, &last, page, &mut want)
            .unwrap();
        replica
            .read_page(&mut vt, &mut rdisk, robj, page, &mut got)
            .unwrap();
        assert_eq!(got, want, "replica page {page} diverges from {last}");
    }
}
