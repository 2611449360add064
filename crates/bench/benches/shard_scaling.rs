//! Shard-scaling sweep: aggregate commit throughput of the partitioned
//! store (ISSUE 7 tentpole) as the shard count grows, at 8–64 committing
//! threads.
//!
//! Model: each simulated thread owns its virtual clock and a private set
//! of objects chosen so the name hash spreads them evenly over every
//! swept shard count. Commits against the *same* shard serialize (the
//! shard's allocator frontier, radix forest, and commit path are one
//! lock domain); commits against different shards overlap fully, gated
//! only by the shared device's channel pool. The device is an 8-channel
//! stripe so the sweep exposes the software bottleneck, not the device.
//!
//! Its ledger is its table in `BENCH_paper.txt`: `wall_us` to 0.1 µs, and
//! throughput and speedup derived from it.

use msnap_bench::{header, table};
use msnap_disk::{Disk, DiskConfig, BLOCK_SIZE};
use msnap_sim::{Nanos, Vt};
use msnap_store::{shard_of_name, ObjectId, ObjectStore};

const SHARDS: [usize; 4] = [1, 2, 4, 8];
const THREADS: [usize; 4] = [8, 16, 32, 64];
const OPS_PER_THREAD: usize = 16;

/// One measured configuration.
struct Point {
    shards: usize,
    threads: usize,
    commits: u64,
    wall: Nanos,
    /// Commits per shard, from the store's per-shard counters.
    per_shard: Vec<u64>,
}

impl Point {
    fn kcommits_per_s(&self) -> f64 {
        self.commits as f64 / self.wall.as_us_f64() * 1_000.0
    }
}

/// A name for thread `t`'s object whose hash lands in residue class
/// `t` mod 8, so the fnv1a shard map spreads threads evenly at every
/// swept shard count (x ≡ t (mod 8) implies x ≡ t (mod 4), (mod 2)).
fn balanced_name(t: usize) -> String {
    (0..)
        .map(|salt| format!("obj-t{t}-{salt}"))
        .find(|n| shard_of_name(n, 8) == t % 8)
        .unwrap()
}

fn run_config(shards: usize, threads: usize) -> Point {
    let cfg = DiskConfig {
        channels: 8,
        ..DiskConfig::paper()
    };
    let mut disk = Disk::new(cfg);
    let mut store = ObjectStore::format_sharded(&mut disk, shards);

    // Setup: create every object on a boot clock, then start all thread
    // clocks past the last setup IO so benchmark submissions never
    // precede setup state on any shard.
    let mut setup = Vt::new(u32::MAX);
    let objects: Vec<(ObjectId, usize)> = (0..threads)
        .map(|t| {
            let name = balanced_name(t);
            let shard = shard_of_name(&name, shards);
            let id = store.create(&mut setup, &mut disk, &name).unwrap();
            (id, shard)
        })
        .collect();
    let t0 = setup.now();

    // Discrete-event schedule: an op starts when its thread and its home
    // shard are both free; process ops globally in start-time order so
    // every shard sees time-monotone submissions.
    let mut vts: Vec<Vt> = (0..threads as u32).map(Vt::new).collect();
    for vt in &mut vts {
        vt.wait_until(t0);
    }
    let mut thread_free = vec![t0; threads];
    let mut shard_free = vec![t0; shards];
    let mut next_op = vec![0usize; threads];
    let total = threads * OPS_PER_THREAD;
    let baseline = store.shard_stats();
    for _ in 0..total {
        let (t, start, shard, id) = (0..threads)
            .filter(|&t| next_op[t] < OPS_PER_THREAD)
            .map(|t| {
                let (id, shard) = objects[t];
                (t, thread_free[t].max(shard_free[shard]), shard, id)
            })
            .min_by_key(|&(_, start, _, _)| start)
            .unwrap();
        let vt = &mut vts[t];
        vt.wait_until(start);
        let fill = [(1 + (next_op[t] % 250)) as u8; BLOCK_SIZE];
        let page = (next_op[t] % 4) as u64;
        let token = store
            .persist(vt, &mut disk, id, &[(page, &fill[..])])
            .unwrap();
        ObjectStore::wait(vt, token);
        let end = vt.now();
        thread_free[t] = end;
        shard_free[shard] = end;
        next_op[t] += 1;
    }

    let wall = thread_free.iter().max().unwrap().saturating_sub(t0);
    let per_shard = store
        .shard_stats()
        .iter()
        .zip(&baseline)
        .map(|(s, b)| s.commits - b.commits)
        .collect();
    Point {
        shards,
        threads,
        commits: total as u64,
        wall,
        per_shard,
    }
}

fn main() {
    header(
        "Shard scaling: aggregate commit throughput vs shard count",
        "K threads commit to hash-mapped objects; same-shard commits \
         serialize, cross-shard commits overlap (8-channel device).",
    );

    let mut points: Vec<Point> = Vec::new();
    for &threads in &THREADS {
        for &shards in &SHARDS {
            points.push(run_config(shards, threads));
        }
    }

    let speedup = |p: &Point| {
        let base = points
            .iter()
            .find(|q| q.shards == 1 && q.threads == p.threads)
            .unwrap();
        p.kcommits_per_s() / base.kcommits_per_s()
    };

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            let skew = p.per_shard.iter().max().unwrap() - p.per_shard.iter().min().unwrap();
            vec![
                format!("{}", p.threads),
                format!("{}", p.shards),
                format!("{}", p.commits),
                format!("{:.1}", p.wall.as_us_f64()),
                format!("{:.1}", p.kcommits_per_s()),
                format!("{:.2}x", speedup(p)),
                format!("{skew}"),
            ]
        })
        .collect();
    table(
        &[
            "threads",
            "shards",
            "commits",
            "wall_us",
            "kcommit/s",
            "vs 1 shard",
            "skew",
        ],
        &rows,
    );

    let knee = points
        .iter()
        .find(|p| p.threads == 8 && p.shards == 4)
        .map(&speedup)
        .unwrap();
    if knee < 2.0 {
        println!();
        println!("WARNING: 4-shard speedup at 8 threads is {knee:.2}x (< 2x target)");
    }
}
