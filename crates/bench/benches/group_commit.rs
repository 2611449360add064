//! Group-commit ablation: cross-thread commit coalescing and the
//! MS_ASYNC writeback pipeline.
//!
//! Sweeps thread count × coalescing window for the LiteDB and SkipDB
//! multi-thread drivers, printing per-μCheckpoint latency and device
//! submissions next to the uncoalesced baseline, and emits the machine
//! readable `BENCH_persist.json` trajectory point at the workspace root
//! (p50/p99 latency, IOs per commit, queue depth per configuration).

use msnap_bench::group_commit::{run_group_commit, GroupCommitConfig, GroupCommitReport, GroupDb};
use msnap_bench::{header, table, us};
use msnap_sim::Nanos;

const THREADS: [u32; 4] = [1, 2, 4, 8];
const WINDOWS_US: [u64; 3] = [2, 8, 32];
const TXNS_PER_THREAD: u64 = 32;
const KEYS_PER_TXN: u64 = 4;

/// One measured configuration.
struct Point {
    cfg: GroupCommitConfig,
    report: GroupCommitReport,
}

impl Point {
    fn run(db: GroupDb, threads: u32, window_us: u64, coalesced: bool) -> Point {
        let cfg = GroupCommitConfig {
            db,
            threads,
            txns_per_thread: TXNS_PER_THREAD,
            keys_per_txn: KEYS_PER_TXN,
            window: Nanos::from_us(window_us),
            coalesced,
        };
        Point {
            report: run_group_commit(&cfg),
            cfg,
        }
    }

    fn window_us(&self) -> u64 {
        self.cfg.window.as_ns() / 1_000
    }

    fn ios_per_commit(&self) -> f64 {
        self.report.disk_writes as f64 / self.report.txns as f64
    }

    fn json(&self) -> String {
        let (cfg, r) = (&self.cfg, &self.report);
        format!(
            "{{\"db\":\"{}\",\"threads\":{},\"window_us\":{},\"coalesced\":{},\
             \"txns\":{},\"p50_us\":{:.3},\"p99_us\":{:.3},\"mean_us\":{:.3},\
             \"disk_writes\":{},\"ios_per_commit\":{:.3},\
             \"merged_submissions\":{},\"merged_parts\":{},\
             \"avg_queue_depth\":{:.3},\"wall_us\":{:.1}}}",
            cfg.db.name(),
            cfg.threads,
            self.window_us(),
            cfg.coalesced,
            r.txns,
            r.commit_latency.percentile(50.0).as_us_f64(),
            r.commit_latency.percentile(99.0).as_us_f64(),
            r.commit_latency.mean().as_us_f64(),
            r.disk_writes,
            self.ios_per_commit(),
            r.merged_submissions,
            r.merged_parts,
            r.avg_queue_depth,
            r.wall.as_us_f64(),
        )
    }

    fn row(&self) -> Vec<String> {
        let r = &self.report;
        vec![
            if self.cfg.coalesced {
                format!("{} us window", self.window_us())
            } else {
                "uncoalesced".into()
            },
            format!("{}", self.cfg.threads),
            us(r.commit_latency.percentile(50.0).as_us_f64()),
            us(r.commit_latency.percentile(99.0).as_us_f64()),
            format!("{:.2}", self.ios_per_commit()),
            format!("{}/{}", r.merged_parts, r.merged_submissions),
            format!("{:.2}", r.avg_queue_depth),
        ]
    }
}

const COLUMNS: [&str; 7] = [
    "commit path",
    "threads",
    "p50 us",
    "p99 us",
    "IOs/commit",
    "merged txns/subs",
    "queue depth",
];

fn sweep(db: GroupDb) -> Vec<Point> {
    header(
        &format!("Group commit ablation: {}", db.name()),
        &format!(
            "{TXNS_PER_THREAD} txns/thread x {KEYS_PER_TXN} keys/txn; \
             coalescing windows {WINDOWS_US:?} us vs the per-thread sync path."
        ),
    );
    let mut points = Vec::new();
    let mut rows = Vec::new();
    for threads in THREADS {
        let solo = Point::run(db, threads, 0, false);
        rows.push(solo.row());
        points.push(solo);
        for window_us in WINDOWS_US {
            let grouped = Point::run(db, threads, window_us, true);
            rows.push(grouped.row());
            points.push(grouped);
        }
    }
    table(&COLUMNS, &rows);

    // The headline claim at 8 threads, widest window.
    let solo = points
        .iter()
        .find(|p| p.cfg.threads == 8 && !p.cfg.coalesced)
        .unwrap();
    let best = points
        .iter()
        .filter(|p| p.cfg.threads == 8 && p.cfg.coalesced)
        .min_by_key(|p| p.report.disk_writes)
        .unwrap();
    println!();
    println!(
        "8 threads: {:.2}x fewer device submissions ({} -> {}), \
         mean commit latency {} -> {} us",
        solo.report.disk_writes as f64 / best.report.disk_writes as f64,
        solo.report.disk_writes,
        best.report.disk_writes,
        us(solo.report.commit_latency.mean().as_us_f64()),
        us(best.report.commit_latency.mean().as_us_f64()),
    );
    points
}

fn main() {
    let mut points = sweep(GroupDb::LiteDb);
    points.extend(sweep(GroupDb::SkipDb));

    // Machine-readable trajectory point at the workspace root; each entry
    // is one (db, threads, window, coalesced) configuration.
    let json = format!(
        "{{\n  \"bench\": \"group_commit\",\n  \"txns_per_thread\": {TXNS_PER_THREAD},\n  \
         \"keys_per_txn\": {KEYS_PER_TXN},\n  \"points\": [\n    {}\n  ]\n}}\n",
        points
            .iter()
            .map(Point::json)
            .collect::<Vec<_>>()
            .join(",\n    ")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_persist.json");
    std::fs::write(path, &json).expect("workspace root is writable");
    println!();
    println!("wrote {} bench points to BENCH_persist.json", points.len());
}
