//! Writer-scaling for the lock-free persistent index (ISSUE 9 tentpole):
//! N concurrent mutators through [`PIndexKv::multi_put_concurrent`]
//! (deterministic min-clock overlap of the detectable-descriptor state
//! machines, all μCheckpoints coalesced into one group commit) against
//! the serialized SkipDB writer path ([`MemSnapKv`], every batch behind
//! the single writer lock, one sync commit each).
//!
//! Two key distributions per writer count: `uniform` (disjoint per-writer
//! ranges — the embarrassingly-parallel best case) and `zipfian`
//! ([`ContendedWriters`]: a shared Zipf-skewed hot range plus private
//! tails — the contended case where same-key races exercise the CAS
//! retry paths).
//!
//! Its ledger is its table in `BENCH_paper.txt`: both walls to 0.1 µs,
//! and throughput and speedup derived from them.

use msnap_bench::{header, table};
use msnap_disk::{Disk, DiskConfig};
use msnap_sim::{Nanos, Vt};
use msnap_skipdb::{Kv, MemSnapKv, PIndexKv};
use msnap_workloads::dist::ContendedWriters;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const WRITER_COUNTS: [usize; 5] = [1, 2, 4, 8, 16];
const ROUNDS: usize = 4;
const BATCH: usize = 32;
const ARENA_PAGES: u64 = 512;

/// One measured configuration.
struct Point {
    dist: &'static str,
    writers: usize,
    ops: u64,
    concurrent_wall: Nanos,
    serialized_wall: Nanos,
}

impl Point {
    fn kops_per_s(wall: Nanos, ops: u64) -> f64 {
        ops as f64 / wall.as_us_f64() * 1_000.0
    }

    fn concurrent_kops(&self) -> f64 {
        Self::kops_per_s(self.concurrent_wall, self.ops)
    }

    fn serialized_kops(&self) -> f64 {
        Self::kops_per_s(self.serialized_wall, self.ops)
    }

    fn speedup(&self) -> f64 {
        self.concurrent_kops() / self.serialized_kops()
    }
}

/// One group-committed batch of puts.
type Batch = Vec<(u64, Vec<u8>)>;
/// One writer's `ROUNDS` batches.
type WriterPlan = Vec<Batch>;

/// Per-writer batches for one configuration: `ROUNDS` batches of `BATCH`
/// puts each, 8-byte values, keys from the chosen distribution.
fn plan(dist: &'static str, writers: usize) -> Vec<WriterPlan> {
    let contended = ContendedWriters::new(writers, 64, 4096, 0.5);
    (0..writers)
        .map(|w| {
            let mut rng = StdRng::seed_from_u64(0xB13C_0000 + w as u64);
            (0..ROUNDS)
                .map(|_| {
                    (0..BATCH)
                        .map(|_| {
                            let key = match dist {
                                "uniform" => w as u64 * 1_000_000 + rng.gen_range(0..1_000u64),
                                _ => contended.sample(w, &mut rng),
                            };
                            (key, key.to_le_bytes().to_vec())
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// The concurrent path: every round hands one batch per writer to
/// `multi_put_concurrent`, which overlaps their state machines by
/// min-virtual-clock and group-commits the round.
fn run_concurrent(batches: &[WriterPlan]) -> Nanos {
    let writers = batches.len();
    let mut boot = Vt::new(u32::MAX);
    let mut kv = PIndexKv::format(
        Disk::new(DiskConfig::paper()),
        ARENA_PAGES,
        writers as u32,
        &mut boot,
    );
    let t0 = boot.now();
    let mut vts: Vec<Vt> = (0..writers as u32).map(Vt::new).collect();
    for vt in &mut vts {
        vt.wait_until(t0);
    }
    for round in 0..ROUNDS {
        let slice: Vec<Batch> = batches.iter().map(|per| per[round].clone()).collect();
        kv.multi_put_concurrent(&mut vts, &slice)
            .expect("concurrent round commits");
    }
    vts.iter().map(Vt::now).max().unwrap().saturating_sub(t0)
}

/// The serialized baseline: the same batches behind MemSnapKv's single
/// writer, one commit per batch, one shared clock.
fn run_serialized(batches: &[WriterPlan]) -> Nanos {
    let mut vt = Vt::new(u32::MAX);
    let mut kv = MemSnapKv::format(Disk::new(DiskConfig::paper()), 4096, &mut vt);
    let t0 = vt.now();
    for round in 0..ROUNDS {
        for per in batches {
            kv.multi_put(&mut vt, &per[round])
                .expect("serialized batch commits");
        }
    }
    vt.now().saturating_sub(t0)
}

fn run_config(dist: &'static str, writers: usize) -> Point {
    let batches = plan(dist, writers);
    let ops = (writers * ROUNDS * BATCH) as u64;
    Point {
        dist,
        writers,
        ops,
        concurrent_wall: run_concurrent(&batches),
        serialized_wall: run_serialized(&batches),
    }
}

fn main() {
    header(
        "pindex writer scaling: lock-free concurrent puts vs the serialized writer",
        "N writers x 4 rounds x 32 puts; concurrent = detectable-descriptor \
         state machines overlapped by min-virtual-clock + one group commit \
         per round; serialized = MemSnapKv single-writer batches.",
    );

    let mut points: Vec<Point> = Vec::new();
    for &dist in &["uniform", "zipfian"] {
        for &writers in &WRITER_COUNTS {
            points.push(run_config(dist, writers));
        }
    }

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.dist.to_string(),
                format!("{}", p.writers),
                format!("{}", p.ops),
                format!("{:.1}", p.concurrent_wall.as_us_f64()),
                format!("{:.1}", p.serialized_wall.as_us_f64()),
                format!("{:.1}", p.concurrent_kops()),
                format!("{:.1}", p.serialized_kops()),
                format!("{:.2}x", p.speedup()),
            ]
        })
        .collect();
    table(
        &[
            "dist",
            "writers",
            "ops",
            "conc_wall_us",
            "ser_wall_us",
            "conc_kops/s",
            "ser_kops/s",
            "speedup",
        ],
        &rows,
    );

    for p in points.iter().filter(|p| p.writers == 8) {
        if p.speedup() < 2.0 {
            println!();
            println!(
                "WARNING: {} speedup at 8 writers is {:.2}x (< 2x target)",
                p.dist,
                p.speedup()
            );
        }
    }
}
