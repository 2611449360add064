//! Figure 4: SQLite transaction latency (average and 99th percentile)
//! vs transaction size, MemSnap vs the WAL+checkpoint baseline.

use msnap_bench::litedb::{run_dbbench, DbbenchConfig, DbbenchReport};
use msnap_bench::{header, table, us};
use msnap_disk::{Disk, DiskConfig};
use msnap_fs::FsKind;
use msnap_litedb::{FileBackend, LiteDb, MemSnapBackend};
use msnap_sim::Vt;
use msnap_workloads::dbbench::KeyOrder;

const KEY_SPACE: u64 = 65_536;

fn run(memsnap: bool, txn_bytes: usize, order: KeyOrder) -> DbbenchReport {
    let total_kvs = ((txn_bytes / 128) as u64 * 64).max(20_000);
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
            total_kvs,
            key_space: KEY_SPACE,
            order,
            seed: 1,
        },
    )
}

fn main() {
    header(
        "Figure 4: SQLite transaction latency vs size (measured, us)",
        "dbbench over 64K keys; average and p99 per committed \
         transaction.",
    );
    for order in [KeyOrder::Sequential, KeyOrder::Random] {
        println!("\n-- {order:?} IO --");
        let mut rows = Vec::new();
        for txn_kib in [4usize, 16, 64, 256, 1024] {
            let ms = run(true, txn_kib * 1024, order);
            let fb = run(false, txn_kib * 1024, order);
            rows.push(vec![
                format!("{txn_kib} KiB"),
                us(ms.txn_latency.mean().as_us_f64()),
                us(ms.txn_latency.percentile(99.0).as_us_f64()),
                us(fb.txn_latency.mean().as_us_f64()),
                us(fb.txn_latency.percentile(99.0).as_us_f64()),
                format!(
                    "{:.1}x",
                    fb.txn_latency.mean().as_ns() as f64 / ms.txn_latency.mean().as_ns() as f64
                ),
            ]);
        }
        table(
            &[
                "txn size",
                "msnap avg",
                "msnap p99",
                "wal avg",
                "wal p99",
                "avg ratio",
            ],
            &rows,
        );
    }
    println!();
    println!(
        "Shape checks (paper): MemSnap is faster at every size with low \
         variance; the baseline's p99 is dominated by checkpoint stalls; \
         the gap is larger for random transactions."
    );
}
