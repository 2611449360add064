//! Table 9: RocksDB under MixGraph — throughput and latency for the
//! MemSnap build, the WAL baseline, and Aurora region checkpointing,
//! plus per-call statistics.

use std::cell::RefCell;
use std::rc::Rc;

use msnap_bench::skipdb::{fill, run_mixgraph, MixGraphConfig, MixGraphReport};
use msnap_bench::{header, table, us};
use msnap_disk::{Disk, DiskConfig};
use msnap_sim::Vt;
use msnap_skipdb::{AuroraKv, BaselineKv, Kv, MemSnapKv};

fn cfg() -> MixGraphConfig {
    MixGraphConfig {
        keys: 20_000,
        ops_per_thread: 1_200,
        threads: 12,
        seed: 42,
    }
}

fn bench<K: Kv + 'static>(mut kv: K, boot: &mut Vt) -> (MixGraphReport, msnap_sim::Meters) {
    fill(&mut kv, boot, cfg().keys, 256);
    let kv = Rc::new(RefCell::new(kv));
    let report = run_mixgraph(Rc::clone(&kv), &cfg(), boot.now());
    let meters = kv.borrow().meters();
    (report, meters)
}

fn main() {
    header(
        "Table 9: RocksDB MixGraph comparison (paper / measured)",
        "20K keys (paper 20M), 12 threads, synchronous writes.",
    );

    let mut boot = Vt::new(u32::MAX);
    let (ms, ms_meters) = bench(
        MemSnapKv::format(Disk::new(DiskConfig::paper()), 1 << 16, &mut boot),
        &mut boot,
    );
    let mut boot = Vt::new(u32::MAX);
    let (wal, wal_meters) = bench(
        BaselineKv::format(Disk::new(DiskConfig::paper()), 4 << 20, &mut boot),
        &mut boot,
    );
    let mut boot = Vt::new(u32::MAX);
    let (aur, aur_meters) = bench(
        AuroraKv::format(Disk::new(DiskConfig::paper()), 1 << 16, 12, &mut boot),
        &mut boot,
    );

    let row = |name: &str, paper: (f64, f64, f64), r: &MixGraphReport| {
        vec![
            name.to_string(),
            format!("{:.1} ({:.1})", r.kops, paper.0),
            format!("{} ({})", us(r.latency.mean().as_us_f64()), us(paper.1)),
            format!(
                "{} ({})",
                us(r.latency.percentile(99.0).as_us_f64()),
                us(paper.2)
            ),
        ]
    };
    table(
        &[
            "configuration",
            "Kops (paper)",
            "avg us (paper)",
            "p99 us (paper)",
        ],
        &[
            row("memsnap", (420.7, 138.9, 239.6), &ms),
            row("Baseline+WAL", (388.0, 162.7, 248.4), &wal),
            row("Aurora", (91.8, 751.9, 4_200.0), &aur),
        ],
    );

    println!();
    println!("Per-call statistics:");
    let mut rows = Vec::new();
    for (name, meters, call) in [
        ("memsnap", &ms_meters, "msnap_persist"),
        ("fsync", &wal_meters, "fsync"),
        ("write", &wal_meters, "write"),
        ("checkpoint", &aur_meters, "checkpoint"),
    ] {
        if let Some(stats) = meters.get(call) {
            rows.push(vec![
                name.to_string(),
                us(stats.mean().as_us_f64()),
                format!("{:.1}K", stats.count() as f64 / 1000.0),
            ]);
        }
    }
    table(&["call", "latency us", "count"], &rows);
    println!();
    println!(
        "Shape checks (paper): memsnap > baseline > aurora in throughput; \
         Aurora loses ~75% of throughput to region checkpointing; \
         msnap_persist is cheaper than write+fsync combined."
    );
}
