//! Table 7: number and latency of persistence-related calls made by
//! SQLite under dbbench — `msnap_persist` for the MemSnap build vs
//! `fsync`/`write`/`read` for the WAL baseline.

use msnap_bench::litedb::{run_dbbench, DbbenchConfig, DbbenchReport};
use msnap_bench::{header, table, us};
use msnap_disk::{Disk, DiskConfig};
use msnap_fs::FsKind;
use msnap_litedb::{FileBackend, LiteDb, MemSnapBackend};
use msnap_sim::Vt;
use msnap_workloads::dbbench::KeyOrder;

/// Scaled dbbench: 200 K kv writes over 64 K keys (paper: 2 M over 1 M).
const TOTAL_KVS: u64 = 200_000;
const KEY_SPACE: u64 = 65_536;

fn run(memsnap: bool, txn_bytes: usize, order: KeyOrder) -> DbbenchReport {
    let mut vt = Vt::new(0);
    let mut db = if memsnap {
        let be = MemSnapBackend::format_with_capacity(
            Disk::new(DiskConfig::paper()),
            "bench.db",
            1 << 17,
            &mut vt,
        );
        LiteDb::open(Box::new(be), &mut vt).unwrap()
    } else {
        let be = FileBackend::format(
            Disk::new(DiskConfig::paper()),
            FsKind::Ffs,
            "bench.db",
            &mut vt,
        );
        LiteDb::open(Box::new(be), &mut vt).unwrap()
    };
    run_dbbench(
        &mut db,
        &mut vt,
        &DbbenchConfig {
            txn_bytes,
            total_kvs: TOTAL_KVS,
            key_space: KEY_SPACE,
            order,
            seed: 1,
        },
    )
}

fn meter_cells(report: &DbbenchReport, name: &str) -> (String, String) {
    match report.meters.get(name) {
        Some(stats) => (
            us(stats.mean().as_us_f64()).to_string(),
            format!("{:.1}K", stats.count() as f64 / 1000.0),
        ),
        None => ("-".into(), "0".into()),
    }
}

fn main() {
    header(
        "Table 7: SQLite persistence-call count and latency under dbbench",
        "Scaled to 200K kv writes over 64K keys (paper: 2M over 1M); \
         checkpoint every 4 MiB of WAL. Latency in us, counts in \
         thousands of calls.",
    );
    for order in [KeyOrder::Random, KeyOrder::Sequential] {
        println!("\n-- {order:?} IO --");
        let mut rows = Vec::new();
        for txn_kib in [4usize, 64, 1024] {
            let ms = run(true, txn_kib * 1024, order);
            let fb = run(false, txn_kib * 1024, order);
            let (ms_lat, ms_n) = meter_cells(&ms, "msnap_persist");
            let (fs_lat, fs_n) = meter_cells(&fb, "fsync");
            let (w_lat, w_n) = meter_cells(&fb, "write");
            let (r_lat, r_n) = meter_cells(&fb, "read");
            rows.push(vec![
                format!("{txn_kib} KiB"),
                ms_lat,
                ms_n,
                fs_lat,
                fs_n,
                w_lat,
                w_n,
                r_lat,
                r_n,
            ]);
        }
        table(
            &[
                "txn size", "msnap us", "ops", "fsync us", "ops", "write us", "ops", "read us",
                "ops",
            ],
            &rows,
        );
    }
    println!();
    println!(
        "Shape checks (paper): msnap_persist is less frequent and cheaper \
         than fsync at every size; the baseline adds millions of \
         write/read calls; MemSnap does none."
    );
}
