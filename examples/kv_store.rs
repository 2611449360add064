//! A durable key-value store with no WAL: the RocksDB case study (§7.2)
//! as a runnable demo.
//!
//! Compares the persistent-skip-list MemSnap store against the
//! WAL+SSTable baseline under a Meta MixGraph burst, then kills the power
//! mid-run and verifies recovery.
//!
//! Run with: `cargo run --example kv_store`

use std::cell::RefCell;
use std::rc::Rc;

use msnap_bench::skipdb::{fill, run_mixgraph, torture_memsnap, MixGraphConfig};
use msnap_disk::{Disk, DiskConfig};
use msnap_sim::Vt;
use msnap_skipdb::{BaselineKv, Kv, MemSnapKv};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = MixGraphConfig {
        keys: 5_000,
        ops_per_thread: 500,
        threads: 8,
        seed: 7,
    };

    println!("== MixGraph: 83% Get / 14% Put / 3% Seek, 8 threads ==");
    let mut vt = Vt::new(u32::MAX);
    let mut kv = MemSnapKv::format(Disk::new(DiskConfig::paper()), 1 << 15, &mut vt);
    fill(&mut kv, &mut vt, cfg.keys, 256);
    let ms = run_mixgraph(Rc::new(RefCell::new(kv)), &cfg, vt.now());
    println!(
        "memsnap skiplist: {:.1} Kops, avg {}, p99 {}",
        ms.kops,
        ms.latency.mean(),
        ms.latency.percentile(99.0)
    );

    let mut vt = Vt::new(u32::MAX);
    let mut kv = BaselineKv::format(Disk::new(DiskConfig::paper()), 4 << 20, &mut vt);
    fill(&mut kv, &mut vt, cfg.keys, 256);
    let wal = run_mixgraph(Rc::new(RefCell::new(kv)), &cfg, vt.now());
    println!(
        "WAL + SSTables:   {:.1} Kops, avg {}, p99 {}",
        wal.kops,
        wal.latency.mean(),
        wal.latency.percentile(99.0)
    );

    println!("\n== crash consistency torture test (paper §7.2) ==");
    let outcome = torture_memsnap(500, 8, 25, 10, 0.6, 42);
    println!(
        "acked {} increment-transactions before the crash; recovered sum = {}",
        outcome.acked_txns, outcome.recovered_sum
    );
    assert!(
        outcome.is_consistent(),
        "recovered state must match acknowledged work"
    );
    println!("recovered sum equals acknowledged work: consistent ✓");

    println!("\n== put/get/seek round trip ==");
    let mut vt = Vt::new(0);
    let mut kv = MemSnapKv::format(Disk::new(DiskConfig::paper()), 4096, &mut vt);
    kv.put(&mut vt, 3, b"three")?;
    kv.put(&mut vt, 1, b"one")?;
    kv.put(&mut vt, 2, b"two")?;
    for (k, v) in kv.seek(&mut vt, 0, 10) {
        println!("  {k} => {}", String::from_utf8_lossy(&v));
    }
    Ok(())
}
