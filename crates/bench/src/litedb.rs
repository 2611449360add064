//! LiteDB workload drivers: dbbench, TATP, online backup and
//! replication over a [`LiteDb`] instance.
//!
//! These reproduce the paper's §7.1 experiments; the bench harnesses
//! call them once per configuration and print the paper's tables.

use std::ops::Range;

use msnap_disk::{Disk, DiskConfig};
use msnap_litedb::{BackendStats, LiteDb, MemSnapBackend, TableId};
use msnap_sim::{CostTracker, LatencyStats, Meters, Nanos, Vt, VthreadId};
use msnap_workloads::dbbench::{DbBench, KeyOrder, WriteBatch};
use msnap_workloads::tatp::{Tatp, TatpTxn};

use crate::replica::{replicas_match, throttled_tick};

/// dbbench parameters (paper defaults: 2 M kvs over 1 M keys; scale down
/// for CI).
#[derive(Debug, Clone)]
pub struct DbbenchConfig {
    /// Transaction size in bytes (4 KiB – 1 MiB in the paper).
    pub txn_bytes: usize,
    /// Total key/value writes to perform.
    pub total_kvs: u64,
    /// Distinct keys.
    pub key_space: u64,
    /// Sequential or random key order.
    pub order: KeyOrder,
    /// RNG seed.
    pub seed: u64,
}

/// Results of one dbbench run.
#[derive(Debug, Clone)]
pub struct DbbenchReport {
    /// Transactions committed.
    pub txns: u64,
    /// Key/value pairs written.
    pub kvs: u64,
    /// Virtual wall-clock time of the run.
    pub wall: Nanos,
    /// Full transaction latency (begin → durable commit).
    pub txn_latency: LatencyStats,
    /// Backend syscall meters (`write`/`read`/`fsync` or
    /// `msnap_persist`).
    pub meters: Meters,
    /// CPU attribution for the run (Table 8 rows).
    pub costs: CostTracker,
    /// Backend persistence counters.
    pub backend: BackendStats,
}

/// Runs dbbench on `db` with the single writer thread `vt`.
pub fn run_dbbench(db: &mut LiteDb, vt: &mut Vt, cfg: &DbbenchConfig) -> DbbenchReport {
    let table = db.create_table(vt, "kv");
    db.reset_metrics();
    vt.take_costs();
    let start = vt.now();
    let thread = vt.id();

    let mut txn_latency = LatencyStats::new();
    let mut txns = 0;
    let mut kvs = 0;
    let bench = DbBench::new(
        cfg.txn_bytes,
        cfg.total_kvs,
        cfg.key_space,
        cfg.order,
        cfg.seed,
    );
    for batch in bench {
        let t0 = vt.now();
        db.begin(vt, thread);
        for &key in &batch.keys {
            db.put(vt, thread, table, key, &WriteBatch::value_for(key));
        }
        db.commit(vt, thread)
            .expect("benchmark workloads run without fault injection");
        txn_latency.record(vt.now() - t0);
        txns += 1;
        kvs += batch.keys.len() as u64;
    }

    DbbenchReport {
        txns,
        kvs,
        wall: vt.now() - start,
        txn_latency,
        meters: db.meters(),
        costs: vt.take_costs(),
        backend: db.backend_stats(),
    }
}

/// The four TATP tables.
#[derive(Debug, Clone, Copy)]
pub struct TatpTables {
    /// SUBSCRIBER.
    pub subscriber: TableId,
    /// ACCESS_INFO.
    pub access_info: TableId,
    /// SPECIAL_FACILITY.
    pub special_facility: TableId,
    /// CALL_FORWARDING.
    pub call_forwarding: TableId,
}

/// Creates and populates the TATP schema with `subscribers` rows.
pub fn setup_tatp(db: &mut LiteDb, vt: &mut Vt, subscribers: u64) -> TatpTables {
    let tables = TatpTables {
        subscriber: db.create_table(vt, "subscriber"),
        access_info: db.create_table(vt, "access_info"),
        special_facility: db.create_table(vt, "special_facility"),
        call_forwarding: db.create_table(vt, "call_forwarding"),
    };
    let thread = vt.id();
    // Load in chunks so the load itself commits in reasonable units.
    let chunk = 1024;
    let mut sid = 0;
    while sid < subscribers {
        db.begin(vt, thread);
        for s in sid..(sid + chunk).min(subscribers) {
            db.put(vt, thread, tables.subscriber, s, &subscriber_row(s, 0, 0));
            db.put(vt, thread, tables.access_info, s * 4, &small_row(s, 1));
            db.put(vt, thread, tables.access_info, s * 4 + 1, &small_row(s, 2));
            db.put(vt, thread, tables.special_facility, s * 4, &small_row(s, 3));
        }
        db.commit(vt, thread)
            .expect("benchmark workloads run without fault injection");
        sid += chunk;
    }
    tables
}

fn subscriber_row(sid: u64, bit: u8, location: u32) -> Vec<u8> {
    let mut row = vec![0u8; 100];
    row[..8].copy_from_slice(&sid.to_le_bytes());
    row[8] = bit;
    row[9..13].copy_from_slice(&location.to_le_bytes());
    row
}

fn small_row(sid: u64, tag: u8) -> Vec<u8> {
    let mut row = vec![tag; 40];
    row[..8].copy_from_slice(&sid.to_le_bytes());
    row
}

/// Results of one TATP run.
#[derive(Debug, Clone)]
pub struct TatpReport {
    /// Transactions completed.
    pub txns: u64,
    /// Virtual duration of the run.
    pub wall: Nanos,
    /// Transactions per virtual second.
    pub tps: f64,
    /// Per-transaction latency.
    pub latency: LatencyStats,
}

/// Runs the TATP mix for `duration` of virtual time.
pub fn run_tatp(
    db: &mut LiteDb,
    vt: &mut Vt,
    tables: TatpTables,
    subscribers: u64,
    duration: Nanos,
    seed: u64,
) -> TatpReport {
    let thread = vt.id();
    let start = vt.now();
    let deadline = start + duration;
    let mut gen = Tatp::new(subscribers, seed);
    let mut txns = 0;
    let mut latency = LatencyStats::new();

    while vt.now() < deadline {
        let t0 = vt.now();
        match gen.next_txn() {
            TatpTxn::GetSubscriberData { sid } => {
                let _ = db.get(vt, tables.subscriber, sid);
            }
            TatpTxn::GetNewDestination { sid } => {
                let _ = db.get(vt, tables.special_facility, sid * 4);
                let _ = db.scan_from(vt, tables.call_forwarding, sid * 4, 3);
            }
            TatpTxn::GetAccessData { sid } => {
                let _ = db.get(vt, tables.access_info, sid * 4);
            }
            TatpTxn::UpdateSubscriberData { sid, bit } => {
                db.begin(vt, thread);
                db.put(
                    vt,
                    thread,
                    tables.subscriber,
                    sid,
                    &subscriber_row(sid, bit, 0),
                );
                db.put(
                    vt,
                    thread,
                    tables.special_facility,
                    sid * 4,
                    &small_row(sid, bit),
                );
                db.commit(vt, thread)
                    .expect("benchmark workloads run without fault injection");
            }
            TatpTxn::UpdateLocation { sid, location } => {
                db.begin(vt, thread);
                db.put(
                    vt,
                    thread,
                    tables.subscriber,
                    sid,
                    &subscriber_row(sid, 0, location),
                );
                db.commit(vt, thread)
                    .expect("benchmark workloads run without fault injection");
            }
            TatpTxn::InsertCallForwarding { sid, start } => {
                db.begin(vt, thread);
                db.put(
                    vt,
                    thread,
                    tables.call_forwarding,
                    sid * 4 + (start / 8) as u64,
                    &small_row(sid, start),
                );
                db.commit(vt, thread)
                    .expect("benchmark workloads run without fault injection");
            }
            TatpTxn::DeleteCallForwarding { sid, start } => {
                db.begin(vt, thread);
                db.delete(
                    vt,
                    thread,
                    tables.call_forwarding,
                    sid * 4 + (start / 8) as u64,
                );
                db.commit(vt, thread)
                    .expect("benchmark workloads run without fault injection");
            }
        }
        latency.record(vt.now() - t0);
        txns += 1;
    }

    let wall = vt.now() - start;
    TatpReport {
        txns,
        wall,
        tps: txns as f64 / wall.as_secs_f64(),
        latency,
    }
}

/// A fresh MemSnap-backed database named `name`, with one `kv` table.
pub(crate) fn kv_table(vt: &mut Vt, name: &str) -> (LiteDb, TableId) {
    let backend =
        MemSnapBackend::format_with_capacity(Disk::new(DiskConfig::paper()), name, 1 << 14, vt);
    let mut db = LiteDb::new(Box::new(backend), vt);
    let table = db.create_table(vt, "kv");
    (db, table)
}

/// Begins the calling thread's transaction and writes `keys` to `table`
/// with their dbbench values.
pub(crate) fn write_keys(
    db: &mut LiteDb,
    vt: &mut Vt,
    table: TableId,
    keys: Range<u64>,
) -> VthreadId {
    let thread = vt.id();
    db.begin(vt, thread);
    for key in keys {
        db.put(vt, thread, table, key, &WriteBatch::value_for(key));
    }
    thread
}

/// Downcasts a [`LiteDb`]'s backend to the [`memsnap::MemSnap`] it runs on.
pub(crate) fn memsnap_of(db: &mut LiteDb) -> &mut memsnap::MemSnap {
    db.backend_mut()
        .as_any_mut()
        .and_then(|a| a.downcast_mut::<MemSnapBackend>())
        .expect("the driver runs on the MemSnap backend")
        .memsnap_mut()
}

/// Parameters of the online-backup driver ([`run_online_backup`]).
#[derive(Debug, Clone)]
pub struct OnlineBackupConfig {
    /// Write transactions to run.
    pub txns: u64,
    /// Keys written per transaction.
    pub keys_per_txn: u64,
    /// Take a backup every this many transactions.
    pub backup_every: u64,
}

/// Results of one [`run_online_backup`] run.
#[derive(Debug, Clone)]
pub struct OnlineBackupReport {
    /// Transactions committed.
    pub txns: u64,
    /// Backups shipped to the replica.
    pub backups: u64,
    /// Backups that had to ship the full image (no retained base).
    pub full_syncs: u64,
    /// Backups shipped as incremental delta streams.
    pub delta_syncs: u64,
    /// Pages carried by the full sync(s).
    pub full_pages: u64,
    /// Pages carried by all delta syncs combined.
    pub delta_pages: u64,
    /// Pages a non-incremental backup would have shipped across the
    /// delta rounds (the full image at each of those instants) — the
    /// replication cost the delta streams are saving.
    pub full_equivalent_pages: u64,
    /// Total wire bytes shipped.
    pub bytes_shipped: u64,
    /// Whether the replica's final image matches the last snapshot
    /// byte for byte.
    pub consistent: bool,
}

/// The online-backup experiment: a LiteDB instance keeps committing
/// while every `backup_every` transactions its region is pinned as a
/// retained snapshot (O(1), no pause in the write path beyond the
/// snapshot's own full-root flush) and shipped to a cold-standby
/// [`msnap_store::ObjectStore`] over the `msnap-snap` delta-stream
/// layer. The first round ships the full image; each later round ships
/// only the pages changed since the previous backup, whose snapshot is
/// kept as the delta base and deleted once the next round lands.
pub fn run_online_backup(cfg: &OnlineBackupConfig) -> OnlineBackupReport {
    use msnap_store::ObjectStore;

    let mut vt = Vt::new(0);
    let (mut db, table) = kv_table(&mut vt, "backup.db");

    let mut rdisk = Disk::new(DiskConfig::paper());
    let mut replica = ObjectStore::format(&mut rdisk);

    let mut report = OnlineBackupReport {
        txns: 0,
        backups: 0,
        full_syncs: 0,
        delta_syncs: 0,
        full_pages: 0,
        delta_pages: 0,
        full_equivalent_pages: 0,
        bytes_shipped: 0,
        consistent: false,
    };
    let mut last_backup: Option<String> = None;
    for txn in 0..cfg.txns {
        let keys = txn * cfg.keys_per_txn..(txn + 1) * cfg.keys_per_txn;
        let thread = write_keys(&mut db, &mut vt, table, keys);
        db.commit(&mut vt, thread)
            .expect("the backup workload runs without fault injection");
        report.txns += 1;

        if (txn + 1) % cfg.backup_every != 0 && txn + 1 != cfg.txns {
            continue;
        }
        let ms = memsnap_of(&mut db);
        let md = ms.region("backup.db").expect("the region exists");
        let name = format!("bk{txn}");
        ms.msnap_snapshot(&mut vt, md, &name)
            .expect("the backup workload runs without fault injection");
        let (store, pdisk) = ms.replication_parts();
        let sync = crate::replica::sync_to(&mut vt, store, pdisk, &mut replica, &mut rdisk, &name)
            .expect("the backup workload runs without fault injection");
        report.backups += 1;
        report.bytes_shipped += sync.bytes;
        if sync.full_sync {
            report.full_syncs += 1;
            report.full_pages += sync.pages;
        } else {
            report.delta_syncs += 1;
            report.delta_pages += sync.pages;
            report.full_equivalent_pages += {
                let (store, pdisk) = ms.replication_parts();
                store
                    .snapshot_diff(&mut vt, pdisk, None, &name)
                    .expect("the snapshot is retained")
                    .len() as u64
            };
        }
        // The shipped base has served its purpose; keep only the newest
        // snapshot as the next round's delta base.
        if let Some(old) = last_backup.replace(name) {
            ms.msnap_snapshot_delete(&mut vt, &old)
                .expect("the backup workload runs without fault injection");
        }
    }

    // Verify the standby byte for byte against the final snapshot.
    if let Some(name) = &last_backup {
        let (store, pdisk) = memsnap_of(&mut db).replication_parts();
        let entry = store.snapshot_lookup(name).expect("just created").clone();
        let robj = replica.lookup("backup.db").expect("replica was synced");
        let mut want = vec![0u8; 4096];
        let mut got = vec![0u8; 4096];
        report.consistent = (0..entry.len_pages).all(|page| {
            store
                .read_page_at(&mut vt, pdisk, name, page, &mut want)
                .expect("snapshot is retained");
            replica
                .read_page(&mut vt, &mut rdisk, robj, page, &mut got)
                .expect("replica object exists");
            want == got
        }) && replica.epoch(robj) == entry.epoch;
    }
    report
}

/// Parameters of the replication driver ([`run_replicated`]).
#[derive(Debug, Clone)]
pub struct ReplicatedConfig {
    /// Write transactions to run on the primary.
    pub txns: u64,
    /// Keys written per transaction.
    pub keys_per_txn: u64,
    /// Replicas attached to the primary.
    pub replicas: usize,
    /// Network model of each replica link (seeds offset per replica).
    pub net: msnap_sim::NetConfig,
    /// Replication engine tuning.
    pub repl: msnap_repl::ReplConfig,
}

/// Results of one [`run_replicated`] run.
#[derive(Debug, Clone)]
pub struct ReplicatedReport {
    /// Transactions committed on the primary.
    pub txns: u64,
    /// Ingest stalls forced by the lag budget (flow control).
    pub throttle_stalls: u64,
    /// Worst epoch lag observed on any link.
    pub max_lag_epochs: u64,
    /// Wire bytes sent down all links (retransmissions included).
    pub bytes_shipped: u64,
    /// Full-image ships across all links.
    pub full_syncs: u64,
    /// Incremental delta ships across all links.
    pub delta_syncs: u64,
    /// Whether every primary read observed the transaction it had just
    /// committed, without waiting for replication (read-your-writes).
    pub read_your_writes: bool,
    /// Whether every replica's final image matches the primary byte for
    /// byte.
    pub replicas_consistent: bool,
}

/// The replicated-LiteDB experiment: a primary commits write
/// transactions while a [`msnap_repl::ReplEngine`] continuously ships
/// its committed epochs to N replicas over simulated links. The primary
/// serves read-your-writes (reads never wait for replication); replicas
/// serve bounded-staleness reads — the lag budget in
/// [`ReplicatedConfig::repl`] caps how stale, by stalling ingest when a
/// link falls too far behind. The run ends with a settle and a
/// byte-for-byte comparison of every replica against the primary.
pub fn run_replicated(cfg: &ReplicatedConfig) -> ReplicatedReport {
    let mut vt = Vt::new(0);
    let (mut db, table) = kv_table(&mut vt, "replicated.db");

    let mut eng = msnap_repl::ReplEngine::new(cfg.repl);
    let names: Vec<String> = (0..cfg.replicas).map(|i| format!("replica{i}")).collect();
    for (i, name) in names.iter().enumerate() {
        let net = msnap_sim::NetConfig {
            seed: cfg.net.seed.wrapping_add(i as u64),
            ..cfg.net
        };
        eng.add_replica(name, net).expect("replica names are fresh");
    }
    // Bootstrap: replicas must finish their initial full sync before the
    // primary takes writes, else the lag budget cannot bound staleness
    // (an unattached link is exempt from flow control).
    eng.settle(&mut vt, memsnap_of(&mut db), Nanos::from_secs(120))
        .expect("the replication workload runs without fault injection");

    let mut report = ReplicatedReport {
        txns: 0,
        throttle_stalls: 0,
        max_lag_epochs: 0,
        bytes_shipped: 0,
        full_syncs: 0,
        delta_syncs: 0,
        read_your_writes: true,
        replicas_consistent: false,
    };
    for txn in 0..cfg.txns {
        let keys = txn * cfg.keys_per_txn..(txn + 1) * cfg.keys_per_txn;
        let last_key = keys.end - 1;
        let thread = write_keys(&mut db, &mut vt, table, keys);
        db.commit(&mut vt, thread)
            .expect("the replication workload runs without fault injection");
        report.txns += 1;
        // The primary answers from its own committed state immediately —
        // replication lag never delays read-your-writes.
        report.read_your_writes &= db.get(&mut vt, table, last_key).as_deref()
            == Some(&WriteBatch::value_for(last_key)[..]);

        report.throttle_stalls += throttled_tick(&mut vt, &mut eng, memsnap_of(&mut db), |eng| {
            for name in &names {
                let lag = eng.link_metrics(name).expect("link exists").lag_epochs;
                report.max_lag_epochs = report.max_lag_epochs.max(lag);
            }
        });
    }
    let settled = eng
        .settle(&mut vt, memsnap_of(&mut db), Nanos::from_secs(120))
        .expect("the replication workload runs without fault injection");
    for name in &names {
        let (down, _up) = eng.link_net_stats(name).expect("link exists");
        report.bytes_shipped += down.bytes_sent;
        let m = eng.link_metrics(name).expect("link exists");
        report.full_syncs += m.full_syncs;
        report.delta_syncs += m.delta_syncs;
    }

    // Byte-for-byte verification of every replica against the primary's
    // final committed image.
    let matched = replicas_match(
        &mut vt,
        memsnap_of(&mut db),
        &mut eng,
        "replicated.db",
        &names,
    );
    report.replicas_consistent = settled && matched;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use msnap_disk::{Disk, DiskConfig};
    use msnap_fs::FsKind;
    use msnap_litedb::FileBackend;

    fn memsnap_db(vt: &mut Vt) -> LiteDb {
        let backend = MemSnapBackend::format_with_capacity(
            Disk::new(DiskConfig::paper()),
            "bench.db",
            1 << 14,
            vt,
        );
        LiteDb::new(Box::new(backend), vt)
    }

    fn file_db(vt: &mut Vt) -> LiteDb {
        let backend =
            FileBackend::format(Disk::new(DiskConfig::paper()), FsKind::Ffs, "bench.db", vt);
        LiteDb::new(Box::new(backend), vt)
    }

    fn small_cfg(order: KeyOrder) -> DbbenchConfig {
        DbbenchConfig {
            txn_bytes: 4096,
            total_kvs: 2_048,
            key_space: 4_096,
            order,
            seed: 1,
        }
    }

    #[test]
    fn dbbench_runs_and_counts() {
        let mut vt = Vt::new(0);
        let mut db = memsnap_db(&mut vt);
        let report = run_dbbench(&mut db, &mut vt, &small_cfg(KeyOrder::Sequential));
        assert_eq!(report.kvs, 2_048);
        assert_eq!(report.txns, 64); // 2048 / 32 per txn
        assert_eq!(report.txn_latency.count(), 64);
        assert!(report.wall > Nanos::ZERO);
    }

    /// The headline §7.1 result: MemSnap beats the WAL baseline on
    /// dbbench, and the gap is larger for random IO.
    #[test]
    fn memsnap_beats_baseline_on_dbbench() {
        let mut ratios = Vec::new();
        for order in [KeyOrder::Sequential, KeyOrder::Random] {
            let mut vt_ms = Vt::new(0);
            let mut ms = memsnap_db(&mut vt_ms);
            let r_ms = run_dbbench(&mut ms, &mut vt_ms, &small_cfg(order));

            let mut vt_f = Vt::new(0);
            let mut fb = file_db(&mut vt_f);
            let r_f = run_dbbench(&mut fb, &mut vt_f, &small_cfg(order));

            let ratio = r_f.wall.as_ns() as f64 / r_ms.wall.as_ns() as f64;
            assert!(ratio > 1.5, "{order:?}: speedup only {ratio:.2}x");
            ratios.push(ratio);
        }
        assert!(
            ratios[1] > ratios[0],
            "random speedup {:.1}x should exceed sequential {:.1}x",
            ratios[1],
            ratios[0]
        );
    }

    #[test]
    fn dbbench_meters_show_no_file_syscalls_on_memsnap() {
        let mut vt = Vt::new(0);
        let mut db = memsnap_db(&mut vt);
        let report = run_dbbench(&mut db, &mut vt, &small_cfg(KeyOrder::Random));
        assert!(report.meters.get("msnap_persist").is_some());
        assert!(report.meters.get("fsync").is_none());
    }

    #[test]
    fn tatp_mix_runs_on_both_backends() {
        for mk in [memsnap_db as fn(&mut Vt) -> LiteDb, file_db] {
            let mut vt = Vt::new(0);
            let mut db = mk(&mut vt);
            let tables = setup_tatp(&mut db, &mut vt, 500);
            let report = run_tatp(&mut db, &mut vt, tables, 500, Nanos::from_ms(50), 7);
            assert!(report.txns > 50, "only {} txns", report.txns);
            assert!(report.tps > 0.0);
        }
    }

    #[test]
    fn online_backup_ships_one_full_image_then_deltas() {
        let report = run_online_backup(&OnlineBackupConfig {
            txns: 12,
            keys_per_txn: 8,
            backup_every: 4,
        });
        assert_eq!(report.txns, 12);
        assert_eq!(report.backups, 3);
        assert_eq!(report.full_syncs, 1, "only the first round lacks a base");
        assert_eq!(report.delta_syncs, 2);
        assert!(report.consistent, "replica must match the last snapshot");
        assert!(
            report.delta_pages < report.full_equivalent_pages,
            "deltas ({} pages) should ship less than re-sending full images ({} pages)",
            report.delta_pages,
            report.full_equivalent_pages
        );
    }

    #[test]
    fn tatp_throughput_memsnap_beats_baseline() {
        let mut tps = Vec::new();
        for mk in [memsnap_db as fn(&mut Vt) -> LiteDb, file_db] {
            let mut vt = Vt::new(0);
            let mut db = mk(&mut vt);
            let tables = setup_tatp(&mut db, &mut vt, 1_000);
            let report = run_tatp(&mut db, &mut vt, tables, 1_000, Nanos::from_ms(100), 7);
            tps.push(report.tps);
        }
        assert!(
            tps[0] > tps[1],
            "memsnap {:.0} tps should beat baseline {:.0} tps",
            tps[0],
            tps[1]
        );
    }
}
