//! Table 1: CPU breakdown of baseline (WAL + LSM) RocksDB running
//! MixGraph — how much time persistence steals from the in-memory
//! transaction.

use std::cell::RefCell;
use std::rc::Rc;

use msnap_bench::skipdb::{fill, run_mixgraph, MixGraphConfig};
use msnap_bench::{header, table};
use msnap_disk::{Disk, DiskConfig};
use msnap_sim::{Category, Vt};
use msnap_skipdb::BaselineKv;

/// Paper rows: (category, paper %).
const PAPER: &[(Category, f64, bool)] = &[
    (Category::TxMemory, 18.3, false),
    (Category::Log, 8.0, false),
    (Category::TxDisk, 8.5, false),
    (Category::IoGeneration, 4.3, false),
    (Category::Serialization, 1.1, false),
    (Category::OtherUserspace, 16.2, false),
    (Category::BufferCache, 5.1, true),
    (Category::FileSystem, 3.1, true),
    (Category::Vfs, 6.4, true),
    (Category::Locking, 6.1, true),
    (Category::Rangelock, 2.1, true),
    (Category::Syscall, 4.4, true),
];

fn main() {
    header(
        "Table 1: baseline RocksDB CPU breakdown under MixGraph (paper % / measured %)",
        "CPU time only (IO wait excluded), as a fraction of total CPU.",
    );

    let cfg = MixGraphConfig {
        keys: 20_000,
        ops_per_thread: 1_500,
        threads: 12,
        seed: 42,
    };
    let mut vt = Vt::new(u32::MAX);
    let mut kv = BaselineKv::format(Disk::new(DiskConfig::paper()), 128 << 10, &mut vt);
    fill(&mut kv, &mut vt, cfg.keys, 256);
    let report = run_mixgraph(Rc::new(RefCell::new(kv)), &cfg, vt.now());

    let cpu_total = (report.costs.total() - report.costs.get(Category::IoWait)).as_ns() as f64;
    let mut rows = Vec::new();
    for &(cat, paper, kernel) in PAPER {
        let measured = report.costs.get(cat).as_ns() as f64 / cpu_total * 100.0;
        rows.push(vec![
            if kernel { "kernel" } else { "user" }.to_string(),
            cat.to_string(),
            format!("{paper:.1}"),
            format!("{measured:.1}"),
        ]);
    }
    table(&["side", "task", "paper %", "measured %"], &rows);

    let user = (report.costs.userspace_total() - report.costs.get(Category::IoWait)).as_ns() as f64;
    let kernel = report.costs.kernel_total().as_ns() as f64;
    println!();
    println!(
        "userspace/kernel split: measured {:.0}%/{:.0}% (paper 56%/44%); \
         in-memory transaction work is a small fraction of the total — \
         the paper's motivating observation.",
        user / cpu_total * 100.0,
        kernel / cpu_total * 100.0
    );
}
