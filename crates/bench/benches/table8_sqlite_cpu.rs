//! Table 8: SQLite CPU usage and total dbbench execution time, baseline
//! vs MemSnap, random and sequential IO.

use msnap_bench::litedb::{run_dbbench, DbbenchConfig, DbbenchReport};
use msnap_bench::{header, table};
use msnap_disk::{Disk, DiskConfig};
use msnap_fs::FsKind;
use msnap_litedb::{FileBackend, LiteDb, MemSnapBackend};
use msnap_sim::{Category, Nanos, Vt};
use msnap_workloads::dbbench::KeyOrder;

const TOTAL_KVS: u64 = 200_000;
const KEY_SPACE: u64 = 65_536;
const TXN_BYTES: usize = 4096;

fn run(memsnap: bool, order: KeyOrder) -> DbbenchReport {
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
            txn_bytes: TXN_BYTES,
            total_kvs: TOTAL_KVS,
            key_space: KEY_SPACE,
            order,
            seed: 1,
        },
    )
}

fn pct(report: &DbbenchReport, t: Nanos) -> String {
    format!(
        "{:.2}%",
        t.as_ns() as f64 / report.wall.as_ns() as f64 * 100.0
    )
}

fn main() {
    header(
        "Table 8: SQLite dbbench CPU usage and wall-clock (measured)",
        "Percentages of total (virtual) execution time, as in the paper. \
         Scaled workload; paper wall-clock for reference: random 175s vs \
         35.4s, sequential 12.5s vs 7.2s (2M kvs).",
    );
    for order in [KeyOrder::Random, KeyOrder::Sequential] {
        let fb = run(false, order);
        let ms = run(true, order);
        println!("\n-- {order:?} IO --");
        let fsync_time = fb
            .meters
            .get("fsync")
            .map(|s| s.sum())
            .unwrap_or(Nanos::ZERO);
        let write_time = fb
            .meters
            .get("write")
            .map(|s| s.sum())
            .unwrap_or(Nanos::ZERO);
        let read_time = fb
            .meters
            .get("read")
            .map(|s| s.sum())
            .unwrap_or(Nanos::ZERO);
        let msnap_time = ms
            .meters
            .get("msnap_persist")
            .map(|s| s.sum())
            .unwrap_or(Nanos::ZERO);
        let ms_flush = ms.costs.get(Category::IoWait);
        let ms_faults = ms.costs.get(Category::PageFault);
        table(
            &["baseline", "%time", "memsnap", "%time"],
            &[
                vec![
                    "userspace".into(),
                    pct(
                        &fb,
                        fb.costs.userspace_total() - fb.costs.get(Category::IoWait),
                    ),
                    "userspace".into(),
                    pct(
                        &ms,
                        ms.costs.userspace_total() - ms.costs.get(Category::IoWait),
                    ),
                ],
                vec![
                    "fsync".into(),
                    pct(&fb, fsync_time),
                    "memsnap".into(),
                    pct(&ms, msnap_time.saturating_sub(ms_flush)),
                ],
                vec![
                    "write".into(),
                    pct(&fb, write_time),
                    "memsnap flush".into(),
                    pct(&ms, ms_flush),
                ],
                vec![
                    "read".into(),
                    pct(&fb, read_time),
                    "page faults".into(),
                    pct(&ms, ms_faults),
                ],
                vec![
                    "wall clock".into(),
                    format!("{}", fb.wall),
                    "wall clock".into(),
                    format!("{}", ms.wall),
                ],
            ],
        );
        println!(
            "  speedup: {:.1}x (paper: {})",
            fb.wall.as_ns() as f64 / ms.wall.as_ns() as f64,
            if order == KeyOrder::Random {
                "4.9x"
            } else {
                "1.7x"
            }
        );
    }
}
