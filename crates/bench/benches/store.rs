//! O(dirty-set) store metadata: what Arc-shared COW nodes, demand-loaded
//! subtrees, and the unified block cache buy.
//!
//! Five sweeps on the raw object store:
//!
//! - open over a full window of line-grain records per object: replay
//!   fetches every record's base block in one vectored read;
//! - snapshot-create cost vs object size at a fixed 16-page dirty set:
//!   the retained clone is an O(1) Arc share and the root flush is
//!   O(dirty path), so the cost is flat;
//! - block-cache hit rate under uniform vs Zipfian page reads, 10k reads
//!   against a 1024-page object through the default 256-block cache;
//! - checksummed-read overhead: cache hits serve the already-verified
//!   image for free, media misses pay the inline digest verification —
//!   one QD1 read a page through `read_page`, one vectored read a chunk
//!   through `read_pages`;
//! - scrub slice vs shard count: the same 4096 pages as eight objects on
//!   one shard or on eight, where a slice must stay one device
//!   submission.
//!
//! Emits the machine-readable `BENCH_store.json` at the workspace root:
//! virtual time only, bit-for-bit reproducible, diffed by CI. The
//! wall-clock side (Arc vs deep tree clones, the raw page digest) is
//! the `micro_store` criterion bench.

use msnap_bench::{header, table, us};
use msnap_disk::{Disk, DiskConfig, BLOCK_SIZE};
use msnap_sim::Vt;
use msnap_store::{shard_of_name, ObjectStore, BULK_READ_PAGES, DEFAULT_CACHE_BLOCKS, DELTA_SLOTS};

const SIZES: [u64; 4] = [64, 256, 1024, 4096];
const DIRTY_PAGES: u64 = 16;
const READ_OBJECT_PAGES: u64 = 1024;
const READS: u64 = 10_000;

fn page_image(tag: u64, page: u64) -> Vec<u8> {
    let mut img = vec![0u8; BLOCK_SIZE];
    img[0..8].copy_from_slice(&tag.to_le_bytes());
    img[8..16].copy_from_slice(&page.to_le_bytes());
    img
}

/// Persists pages `0..pages` in one μCheckpoint.
fn churn(
    vt: &mut Vt,
    disk: &mut Disk,
    store: &mut ObjectStore,
    obj: msnap_store::ObjectId,
    tag: u64,
    pages: u64,
) {
    let images: Vec<Vec<u8>> = (0..pages).map(|p| page_image(tag, p)).collect();
    let iov: Vec<(u64, &[u8])> = images
        .iter()
        .enumerate()
        .map(|(p, img)| (p as u64, &img[..]))
        .collect();
    let t = store.persist(vt, disk, obj, &iov).unwrap();
    ObjectStore::wait(vt, t);
}

/// A settled device holding one `pages`-page object whose tree is on
/// disk as a full root with no trailing deltas (a reopen replays
/// nothing and adopts every node cold). Returns the build's clock too:
/// measurements must continue on the same timeline, or the reopen's
/// first IO would absorb the build's queued channel time.
fn device_with(pages: u64) -> (Disk, Vt) {
    let mut disk = Disk::new(DiskConfig::paper());
    let mut store = ObjectStore::format(&mut disk);
    let mut vt = Vt::new(0);
    let obj = store.create(&mut vt, &mut disk, "db").unwrap();
    churn(&mut vt, &mut disk, &mut store, obj, 0, pages);
    flush_root(&mut vt, &mut disk, &mut store, obj);
    disk.settle();
    (disk, vt)
}

/// Flushes `obj`'s full root: create-then-delete of a snapshot does it
/// without retaining a pin.
fn flush_root(vt: &mut Vt, disk: &mut Disk, store: &mut ObjectStore, obj: msnap_store::ObjectId) {
    store.snapshot_create(vt, disk, obj, "flush").unwrap();
    store.snapshot_delete(vt, disk, "flush").unwrap();
}

/// [`device_with`] for a `shards`-shard store holding `objects` objects of
/// `pages` pages each, dealt round-robin over the shards, every tree a
/// full root with no trailing deltas. Returns the object names too.
fn sharded_device_with(shards: usize, objects: usize, pages: u64) -> (Disk, Vt, Vec<String>) {
    let mut disk = Disk::new(DiskConfig::paper());
    let mut store = ObjectStore::format_sharded(&mut disk, shards);
    let mut vt = Vt::new(0);
    let mut names = Vec::new();
    let mut candidates = (0..).map(|i| format!("db{i}"));
    for k in 0..objects {
        let name = candidates
            .find(|n| shard_of_name(n, shards) == k % shards)
            .unwrap();
        let obj = store.create(&mut vt, &mut disk, &name).unwrap();
        churn(&mut vt, &mut disk, &mut store, obj, k as u64, pages);
        flush_root(&mut vt, &mut disk, &mut store, obj);
        names.push(name);
    }
    disk.settle();
    (disk, vt, names)
}

struct ReplayPoint {
    objects: usize,
    pages: u64,
    records: u64,
    open_us: f64,
    read_submissions: u64,
    blocks_read: u64,
}

/// Open over a full delta window of line-grain records per object, each
/// record patching one line of a page of its own.
fn sweep_open_replay() -> ReplayPoint {
    header(
        "Open over a window of line-grain records",
        "each object: a full root, then DELTA_SLOTS - 1 one-line records on \
         distinct pages; replay fetches all their base blocks in one \
         vectored read per object.",
    );
    const OBJECTS: usize = 4;
    const PAGES: u64 = 1024;
    let records = DELTA_SLOTS - 1;
    let (mut disk, mut vt, names) = sharded_device_with(1, OBJECTS, PAGES);
    let mut store = ObjectStore::open(&mut vt, &mut disk).unwrap();
    for (k, name) in names.iter().enumerate() {
        let obj = store.lookup(name).unwrap();
        for r in 0..records {
            let page = r * (PAGES / records);
            let mut image = page_image(k as u64, page);
            image[64..128].fill(r as u8 + 1);
            let tokens = store
                .persist_batch(
                    &mut vt,
                    &mut disk,
                    &[(obj, &[(page, &image[..], 2u64)][..])],
                )
                .unwrap();
            ObjectStore::wait(&mut vt, tokens[0]);
        }
    }
    assert_eq!(store.stats().line_commits, OBJECTS as u64 * records);
    disk.settle();
    let (t0, subs, blocks) = (
        vt.now(),
        disk.stats().read_submissions(),
        disk.stats().reads(),
    );
    let reopened = ObjectStore::open(&mut vt, &mut disk).unwrap();
    for name in &names {
        assert_eq!(reopened.epoch(reopened.lookup(name).unwrap()), 1 + records);
    }
    let point = ReplayPoint {
        objects: OBJECTS,
        pages: PAGES,
        records,
        open_us: (vt.now() - t0).as_us_f64(),
        read_submissions: disk.stats().read_submissions() - subs,
        blocks_read: disk.stats().reads() - blocks,
    };
    table(
        &["objects", "pages", "records", "open us", "reads", "blocks"],
        &[vec![
            format!("{}", point.objects),
            format!("{}", point.pages),
            format!("{}", point.records),
            us(point.open_us),
            format!("{}", point.read_submissions),
            format!("{}", point.blocks_read),
        ]],
    );
    point
}

struct SnapPoint {
    pages: u64,
    create_us: f64,
}

/// Snapshot-create cost at a fixed dirty set vs object size.
fn sweep_snapshot() -> Vec<SnapPoint> {
    header(
        "Snapshot create vs object size (fixed 16-page dirty set)",
        "create = full-root flush (O(dirty path)) + catalog write + O(1) \
         Arc clone of the tree.",
    );
    let mut points = Vec::new();
    for pages in SIZES {
        let mut disk = Disk::new(DiskConfig::paper());
        let mut store = ObjectStore::format(&mut disk);
        let mut vt = Vt::new(0);
        let obj = store.create(&mut vt, &mut disk, "db").unwrap();
        churn(&mut vt, &mut disk, &mut store, obj, 0, pages);
        store
            .snapshot_create(&mut vt, &mut disk, obj, "warm")
            .unwrap();
        churn(&mut vt, &mut disk, &mut store, obj, 1, DIRTY_PAGES);
        let t0 = vt.now();
        store
            .snapshot_create(&mut vt, &mut disk, obj, "bench")
            .unwrap();
        points.push(SnapPoint {
            pages,
            create_us: (vt.now() - t0).as_us_f64(),
        });
    }
    table(
        &["pages", "create us"],
        &points
            .iter()
            .map(|p| vec![format!("{}", p.pages), us(p.create_us)])
            .collect::<Vec<_>>(),
    );
    let lo = points.iter().map(|p| p.create_us).fold(f64::MAX, f64::min);
    let hi = points.iter().map(|p| p.create_us).fold(0.0, f64::max);
    assert!(
        hi <= 2.0 * lo,
        "snapshot create must stay flat across sizes: {lo:.1}us .. {hi:.1}us"
    );
    points
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

struct ReadPoint {
    dist: &'static str,
    hits: u64,
    misses: u64,
    hydrations: u64,
    hit_rate: f64,
}

/// Cache hit rate over 10k reads, uniform vs Zipfian(s=1).
fn sweep_reads() -> Vec<ReadPoint> {
    header(
        "Block-cache hit rate, uniform vs Zipfian reads",
        &format!(
            "{READ_OBJECT_PAGES}-page object, {DEFAULT_CACHE_BLOCKS}-block \
             cache, {READS} fixed-seed reads."
        ),
    );
    // Zipfian(s=1) CDF over page ranks.
    let mut cdf = Vec::with_capacity(READ_OBJECT_PAGES as usize);
    let mut acc = 0.0f64;
    for rank in 1..=READ_OBJECT_PAGES {
        acc += 1.0 / rank as f64;
        cdf.push(acc);
    }
    let total = acc;

    let mut points = Vec::new();
    for dist in ["uniform", "zipfian"] {
        let (mut disk, mut vt) = device_with(READ_OBJECT_PAGES);
        let mut store = ObjectStore::open(&mut vt, &mut disk).unwrap();
        let obj = store.lookup("db").unwrap();
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut buf = vec![0u8; BLOCK_SIZE];
        for _ in 0..READS {
            let x = xorshift(&mut rng);
            let page = if dist == "uniform" {
                x % READ_OBJECT_PAGES
            } else {
                let u = (x >> 11) as f64 / (1u64 << 53) as f64 * total;
                let rank = cdf.partition_point(|&c| c < u) as u64;
                // Scatter hot ranks across the page space (7919 is
                // coprime with the page count, so this is a bijection).
                (rank * 7919) % READ_OBJECT_PAGES
            };
            store
                .read_page(&mut vt, &mut disk, obj, page, &mut buf)
                .unwrap();
        }
        let stats = store.stats();
        let hit_rate = stats.cache_hits as f64 / (stats.cache_hits + stats.cache_misses) as f64;
        points.push(ReadPoint {
            dist,
            hits: stats.cache_hits,
            misses: stats.cache_misses,
            hydrations: stats.hydrations,
            hit_rate,
        });
    }
    table(
        &["dist", "hits", "misses", "node loads", "hit rate"],
        &points
            .iter()
            .map(|p| {
                vec![
                    p.dist.to_string(),
                    format!("{}", p.hits),
                    format!("{}", p.misses),
                    format!("{}", p.hydrations),
                    format!("{:.1}%", p.hit_rate * 100.0),
                ]
            })
            .collect::<Vec<_>>(),
    );
    let zipf = points.iter().find(|p| p.dist == "zipfian").unwrap();
    assert!(
        zipf.hit_rate >= 0.5,
        "skewed reads must be cache-friendly: {:.1}%",
        zipf.hit_rate * 100.0
    );
    points
}

struct VerifyPoint {
    mode: &'static str,
    reads: u64,
    avg_read_us: f64,
}

/// Per-read cost with digest verification, cache hit vs media miss.
fn sweep_verify() -> Vec<VerifyPoint> {
    header(
        "Checksummed read: cache hit vs media miss",
        "hits serve the cached, already-verified image (no digest work); \
         misses read media and verify the page digest inline before the \
         bytes are served, a page at a time or a vectored chunk at a time.",
    );
    let mut points = Vec::new();

    // Cache hits: one hot page re-read after warming.
    {
        let (mut disk, mut vt) = device_with(READ_OBJECT_PAGES);
        let mut store = ObjectStore::open(&mut vt, &mut disk).unwrap();
        let obj = store.lookup("db").unwrap();
        let mut buf = vec![0u8; BLOCK_SIZE];
        store
            .read_page(&mut vt, &mut disk, obj, 0, &mut buf)
            .unwrap();
        let t0 = vt.now();
        for _ in 0..READS {
            store
                .read_page(&mut vt, &mut disk, obj, 0, &mut buf)
                .unwrap();
        }
        points.push(VerifyPoint {
            mode: "cache_hit",
            reads: READS,
            avg_read_us: (vt.now() - t0).as_us_f64() / READS as f64,
        });
    }

    // Media misses: sequential sweeps with the cache dropped per round,
    // so every read verifies a page fresh off the device.
    {
        let (mut disk, mut vt) = device_with(READ_OBJECT_PAGES);
        let mut store = ObjectStore::open(&mut vt, &mut disk).unwrap();
        let obj = store.lookup("db").unwrap();
        let mut buf = vec![0u8; BLOCK_SIZE];
        let rounds = READS / READ_OBJECT_PAGES;
        let mut n = 0u64;
        let t0 = vt.now();
        for _ in 0..rounds {
            store.drop_cache();
            for p in 0..READ_OBJECT_PAGES {
                store
                    .read_page(&mut vt, &mut disk, obj, p, &mut buf)
                    .unwrap();
                n += 1;
            }
        }
        points.push(VerifyPoint {
            mode: "media_miss",
            reads: n,
            avg_read_us: (vt.now() - t0).as_us_f64() / n as f64,
        });
    }

    // The same sweeps through the bulk read: one vectored, verified
    // device read per chunk instead of one QD1 read per page.
    {
        let (mut disk, mut vt) = device_with(READ_OBJECT_PAGES);
        let mut store = ObjectStore::open(&mut vt, &mut disk).unwrap();
        let obj = store.lookup("db").unwrap();
        let rounds = READS / READ_OBJECT_PAGES;
        let mut n = 0u64;
        let t0 = vt.now();
        for _ in 0..rounds {
            store.drop_cache();
            for first in (0..READ_OBJECT_PAGES).step_by(BULK_READ_PAGES as usize) {
                let chunk = BULK_READ_PAGES.min(READ_OBJECT_PAGES - first);
                store
                    .read_pages(&mut vt, &mut disk, obj, first, chunk, &mut |_, _| n += 1)
                    .unwrap();
            }
        }
        points.push(VerifyPoint {
            mode: "media_miss_bulk",
            reads: n,
            avg_read_us: (vt.now() - t0).as_us_f64() / n as f64,
        });
    }

    table(
        &["mode", "reads", "avg read us"],
        &points
            .iter()
            .map(|p| {
                vec![
                    p.mode.to_string(),
                    format!("{}", p.reads),
                    us(p.avg_read_us),
                ]
            })
            .collect::<Vec<_>>(),
    );
    points
}

struct ShardedScrubPoint {
    shards: usize,
    budget: u64,
    calls: u64,
    pages_verified: u64,
    pass_us: f64,
    slice_us: f64,
}

/// One full scrub pass over the same 4096 pages as eight 512-page objects,
/// on one shard and on eight: the cursor walks the shards in turn, so a
/// slice costs what it costs on one shard.
fn sweep_scrub_sharded() -> Vec<ShardedScrubPoint> {
    header(
        "Scrub slice vs shard count",
        "full pass over 8 x 512 pages; slice us = pass us / calls, the \
         stall a foreground writer sees behind one budgeted call.",
    );
    let mut points = Vec::new();
    for shards in [1usize, 8] {
        for budget in [64u64, 1024] {
            let (mut disk, mut vt, _) = sharded_device_with(shards, 8, 512);
            let mut store = ObjectStore::open(&mut vt, &mut disk).unwrap();
            let mut calls = 0u64;
            let t0 = vt.now();
            while store.scrub_stats().passes == 0 {
                store.scrub(&mut vt, &mut disk, budget).unwrap();
                calls += 1;
                assert!(calls < 1_000_000, "scrub never completed a pass");
            }
            let pass_us = (vt.now() - t0).as_us_f64();
            let s = store.scrub_stats();
            assert_eq!(s.corruptions_found, 0, "clean device scrubs clean");
            points.push(ShardedScrubPoint {
                shards,
                budget,
                calls,
                pages_verified: s.pages_verified,
                pass_us,
                slice_us: pass_us / calls as f64,
            });
        }
    }
    table(
        &["shards", "budget", "calls", "pages", "pass us", "slice us"],
        &points
            .iter()
            .map(|p| {
                vec![
                    format!("{}", p.shards),
                    format!("{}", p.budget),
                    format!("{}", p.calls),
                    format!("{}", p.pages_verified),
                    us(p.pass_us),
                    us(p.slice_us),
                ]
            })
            .collect::<Vec<_>>(),
    );
    points
}

fn main() {
    let replay = sweep_open_replay();
    let snapshot = sweep_snapshot();
    let reads = sweep_reads();
    let verify = sweep_verify();
    let scrub_sharded = sweep_scrub_sharded();

    let snap_json = snapshot
        .iter()
        .map(|p| format!("{{\"pages\":{},\"create_us\":{:.3}}}", p.pages, p.create_us))
        .collect::<Vec<_>>()
        .join(",\n    ");
    let reads_json = reads
        .iter()
        .map(|p| {
            format!(
                "{{\"dist\":\"{}\",\"reads\":{READS},\"hits\":{},\"misses\":{},\
                 \"hydrations\":{},\"hit_rate\":{:.4}}}",
                p.dist, p.hits, p.misses, p.hydrations, p.hit_rate
            )
        })
        .collect::<Vec<_>>()
        .join(",\n    ");
    let verify_json = verify
        .iter()
        .map(|p| {
            format!(
                "{{\"mode\":\"{}\",\"reads\":{},\"avg_read_us\":{:.3}}}",
                p.mode, p.reads, p.avg_read_us
            )
        })
        .collect::<Vec<_>>()
        .join(",\n    ");
    let replay_json = format!(
        "{{\"objects\":{},\"pages\":{},\"records\":{},\"open_us\":{:.3},\
         \"read_submissions\":{},\"blocks_read\":{}}}",
        replay.objects,
        replay.pages,
        replay.records,
        replay.open_us,
        replay.read_submissions,
        replay.blocks_read
    );
    let scrub_sharded_json = scrub_sharded
        .iter()
        .map(|p| {
            format!(
                "{{\"shards\":{},\"budget\":{},\"calls\":{},\"pages_verified\":{},\
                 \"pass_us\":{:.1},\"slice_us\":{:.1}}}",
                p.shards, p.budget, p.calls, p.pages_verified, p.pass_us, p.slice_us
            )
        })
        .collect::<Vec<_>>()
        .join(",\n    ");
    let json = format!(
        "{{\n  \"bench\": \"store\",\n  \"cache_blocks\": {DEFAULT_CACHE_BLOCKS},\n  \
         \"open_replay\": [\n    {replay_json}\n  ],\n  \
         \"snapshot_create\": [\n    {snap_json}\n  ],\n  \
         \"reads\": [\n    {reads_json}\n  ],\n  \
         \"read_verify\": [\n    {verify_json}\n  ],\n  \
         \"scrub_sharded\": [\n    {scrub_sharded_json}\n  ]\n}}\n"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_store.json");
    std::fs::write(path, &json).expect("workspace root is writable");
    println!();
    println!(
        "wrote 1 replay + {} snapshot + {} read + {} verify + {} sharded-scrub points to BENCH_store.json",
        snapshot.len(),
        reads.len(),
        verify.len(),
        scrub_sharded.len()
    );
}
