//! Snapshot retention and replication: what a retained epoch costs and
//! what incremental shipping saves.
//!
//! Two sweeps on the raw object store, and one end-to-end online-backup
//! run through LiteDB:
//!
//! - snapshot-create cost vs dirty-set size (the create flushes a full
//!   root, so its cost is O(pages dirtied since the last flush), plus a
//!   constant dual-slot catalog write);
//! - delta bytes shipped vs the full image at the same instant, as the
//!   churn between consecutive snapshots grows;
//! - LiteDB online backup: full-image bootstrap, then delta rounds.
//!
//! Emits the machine-readable `BENCH_snapshot.json` at the workspace
//! root.

use msnap_bench::litedb::{run_online_backup, OnlineBackupConfig};
use msnap_bench::replica::sync_to;
use msnap_bench::{header, table, us};
use msnap_disk::{Disk, DiskConfig, BLOCK_SIZE};
use msnap_sim::{Nanos, Vt};
use msnap_snap::{DeltaStream, SubPageFrame};
use msnap_store::ObjectStore;

const OBJECT_PAGES: u64 = 1024;
const DIRTY_SIZES: [u64; 4] = [16, 64, 256, 1024];
const CHURN_SIZES: [u64; 4] = [8, 32, 128, 512];
/// Snapshot creates averaged per dirty-size point: a single create's
/// virtual-time cost is quantized by the disk model's op granularity,
/// so one-shot timing collapsed distinct dirty sizes onto identical
/// readings.
const CREATE_BATCH: u64 = 8;
/// Scattered 64-byte writes per epoch in the small-write sweep.
const SMALL_WRITE_COUNTS: [u64; 3] = [16, 64, 256];

fn page_image(tag: u64, page: u64) -> Vec<u8> {
    let mut img = vec![0u8; BLOCK_SIZE];
    img[0..8].copy_from_slice(&tag.to_le_bytes());
    img[8..16].copy_from_slice(&page.to_le_bytes());
    img
}

/// Wire bytes of `stream`'s pages shipped at page granularity: one
/// stored whole-page frame per diffed page, no sub-page runs, dedup or
/// compression — the baseline the delta formats are measured against.
fn page_granular_bytes(stream: &DeltaStream) -> u64 {
    let whole = |f: &msnap_snap::Frame| SubPageFrame::stored_whole_len(f.seq(), f.page());
    (stream.header.encoded_len()
        + stream.frames.iter().map(whole).sum::<usize>()
        + stream.trailer.encoded_len()) as u64
}

/// Persists `pages` sequential page images in one μCheckpoint.
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

struct CreatePoint {
    dirty_pages: u64,
    create: Nanos,
    reads: u64,
    writes: u64,
    pinned_blocks: usize,
}

/// Snapshot-create cost as a function of the dirty set it must flush.
/// Each point batches [`CREATE_BATCH`] churn+create rounds and reports
/// the mean, so the disk model's op-granularity quantization cannot
/// collapse distinct dirty sizes onto one reading.
fn sweep_create() -> Vec<CreatePoint> {
    header(
        "Snapshot create cost vs dirty-set size",
        &format!(
            "{OBJECT_PAGES}-page object; each point dirties N pages, then \
             retains the epoch. Create = full-root flush + catalog write; \
             mean of {CREATE_BATCH} rounds."
        ),
    );
    let mut points = Vec::new();
    for dirty in DIRTY_SIZES {
        let mut disk = Disk::new(DiskConfig::paper());
        let mut store = ObjectStore::format(&mut disk);
        let mut vt = Vt::new(0);
        let obj = store.create(&mut vt, &mut disk, "db").unwrap();
        churn(&mut vt, &mut disk, &mut store, obj, 0, OBJECT_PAGES);
        store
            .snapshot_create(&mut vt, &mut disk, obj, "warm")
            .unwrap();
        let mut total = Nanos::ZERO;
        let mut reads = 0u64;
        let mut writes = 0u64;
        let mut pinned = 0;
        for i in 0..CREATE_BATCH {
            churn(&mut vt, &mut disk, &mut store, obj, i + 1, dirty);
            // Quiesce: the churn's queued flush writes must neither
            // bill to the create's timer nor overlap (and hide) its
            // own I/O.
            let idle = disk
                .write_completions()
                .iter()
                .copied()
                .fold(vt.now(), Nanos::max);
            vt.wait_until(idle);
            let issued = disk.write_completions().len();
            let (r0, w0) = (disk.stats().reads(), disk.stats().writes());
            let name = format!("bench{i}");
            let t0 = vt.now();
            store
                .snapshot_create(&mut vt, &mut disk, obj, &name)
                .unwrap();
            // The create returns once the catalog write is durable,
            // but the full-root flush rides the channel queues
            // asynchronously — the epoch is only retained when its
            // last write lands, so time to that completion.
            let done = disk.write_completions()[issued..]
                .iter()
                .copied()
                .fold(vt.now(), Nanos::max);
            total += done - t0;
            reads += disk.stats().reads() - r0;
            writes += disk.stats().writes() - w0;
            pinned = store.pinned_blocks();
            // Drop each measured epoch so the batch never outgrows the
            // snapshot catalog (delete cost is outside the timer).
            store.snapshot_delete(&mut vt, &mut disk, &name).unwrap();
        }
        points.push(CreatePoint {
            dirty_pages: dirty,
            create: total / CREATE_BATCH,
            reads: reads / CREATE_BATCH,
            writes: writes / CREATE_BATCH,
            pinned_blocks: pinned,
        });
    }
    table(
        &[
            "dirty pages",
            "mean create us",
            "reads",
            "writes",
            "pinned blocks",
        ],
        &points
            .iter()
            .map(|p| {
                vec![
                    format!("{}", p.dirty_pages),
                    us(p.create.as_us_f64()),
                    format!("{}", p.reads),
                    format!("{}", p.writes),
                    format!("{}", p.pinned_blocks),
                ]
            })
            .collect::<Vec<_>>(),
    );
    points
}

struct DeltaPoint {
    churned_pages: u64,
    delta_pages: u64,
    delta_bytes: u64,
    full_bytes: u64,
    sync: Nanos,
}

/// Delta bytes shipped vs the full image at the same instant.
fn sweep_delta() -> Vec<DeltaPoint> {
    header(
        "Delta shipping vs full image",
        &format!(
            "{OBJECT_PAGES}-page object replicated once in full; each round \
             churns N pages and ships the structural diff."
        ),
    );
    let mut disk = Disk::new(DiskConfig::paper());
    let mut store = ObjectStore::format(&mut disk);
    let mut vt = Vt::new(0);
    let obj = store.create(&mut vt, &mut disk, "db").unwrap();
    churn(&mut vt, &mut disk, &mut store, obj, 0, OBJECT_PAGES);
    store
        .snapshot_create(&mut vt, &mut disk, obj, "s0")
        .unwrap();

    let mut rdisk = Disk::new(DiskConfig::paper());
    let mut replica = ObjectStore::format(&mut rdisk);
    sync_to(
        &mut vt,
        &mut store,
        &mut disk,
        &mut replica,
        &mut rdisk,
        "s0",
    )
    .unwrap();

    let mut points = Vec::new();
    let mut base = "s0".to_string();
    for (round, churned) in CHURN_SIZES.into_iter().enumerate() {
        churn(
            &mut vt,
            &mut disk,
            &mut store,
            obj,
            round as u64 + 1,
            churned,
        );
        let name = format!("s{}", round + 1);
        store
            .snapshot_create(&mut vt, &mut disk, obj, &name)
            .unwrap();
        // What a non-incremental backup would ship at this instant.
        let full_bytes = page_granular_bytes(
            &DeltaStream::build(&mut vt, &mut disk, &mut store, None, &name, None).unwrap(),
        );
        let t0 = vt.now();
        let report = sync_to(
            &mut vt,
            &mut store,
            &mut disk,
            &mut replica,
            &mut rdisk,
            &name,
        )
        .unwrap();
        assert!(!report.full_sync, "base is retained: rounds must be deltas");
        points.push(DeltaPoint {
            churned_pages: churned,
            delta_pages: report.pages,
            delta_bytes: report.bytes,
            full_bytes,
            sync: vt.now() - t0,
        });
        store.snapshot_delete(&mut vt, &mut disk, &base).unwrap();
        base = name;
    }
    table(
        &[
            "churned",
            "delta pages",
            "delta KiB",
            "full KiB",
            "saved",
            "sync us",
        ],
        &points
            .iter()
            .map(|p| {
                vec![
                    format!("{}", p.churned_pages),
                    format!("{}", p.delta_pages),
                    format!("{:.1}", p.delta_bytes as f64 / 1024.0),
                    format!("{:.1}", p.full_bytes as f64 / 1024.0),
                    format!("{:.1}x", p.full_bytes as f64 / p.delta_bytes as f64),
                    us(p.sync.as_us_f64()),
                ]
            })
            .collect::<Vec<_>>(),
    );
    points
}

struct SmallWritePoint {
    writes: u64,
    changed_bytes: u64,
    page_bytes: u64,
    subpage_bytes: u64,
}

/// Shipped delta bytes under a scattered small-write workload: each
/// epoch rewrites N 64-byte lines on N distinct pages, then ships the
/// epoch once with page-granularity (v1) frames and once with sub-page
/// (v2) frames diffed against the retained base.
fn sweep_small_writes() -> Vec<SmallWritePoint> {
    header(
        "Sub-page delta shipping vs page granularity",
        &format!(
            "{OBJECT_PAGES}-page object; each epoch rewrites N scattered \
             64-byte lines, one per page. Page-granularity ships whole \
             4 KiB frames; sub-page ships only the changed line runs."
        ),
    );
    let mut disk = Disk::new(DiskConfig::paper());
    let mut store = ObjectStore::format(&mut disk);
    let mut vt = Vt::new(0);
    let obj = store.create(&mut vt, &mut disk, "db").unwrap();
    churn(&mut vt, &mut disk, &mut store, obj, 0, OBJECT_PAGES);
    store
        .snapshot_create(&mut vt, &mut disk, obj, "w0")
        .unwrap();

    let mut points = Vec::new();
    let mut base = "w0".to_string();
    for (round, writes) in SMALL_WRITE_COUNTS.into_iter().enumerate() {
        // N distinct pages (613 is odd, hence coprime with 1024), one
        // fresh 64-byte line rewritten on each.
        let mut images: Vec<(u64, Vec<u8>)> = Vec::new();
        for k in 0..writes {
            let page = (k * 613 + round as u64 * 89) % OBJECT_PAGES;
            let line = ((k * 11 + round as u64) % 64) as usize;
            let mut buf = vec![0u8; BLOCK_SIZE];
            store
                .read_page(&mut vt, &mut disk, obj, page, &mut buf)
                .unwrap();
            for (off, b) in buf[line * 64..(line + 1) * 64].iter_mut().enumerate() {
                *b = (k as u8) ^ (round as u8).wrapping_mul(31) ^ (off as u8) ^ 0x5A;
            }
            images.push((page, buf));
        }
        let iov: Vec<(u64, &[u8])> = images.iter().map(|(p, img)| (*p, &img[..])).collect();
        let t = store.persist(&mut vt, &mut disk, obj, &iov).unwrap();
        ObjectStore::wait(&mut vt, t);
        let name = format!("w{}", round + 1);
        store
            .snapshot_create(&mut vt, &mut disk, obj, &name)
            .unwrap();

        let stream =
            DeltaStream::build(&mut vt, &mut disk, &mut store, Some(&base), &name, None).unwrap();
        points.push(SmallWritePoint {
            writes,
            changed_bytes: writes * 64,
            page_bytes: page_granular_bytes(&stream),
            subpage_bytes: stream.encoded_len() as u64,
        });
        store.snapshot_delete(&mut vt, &mut disk, &base).unwrap();
        base = name;
    }
    table(
        &[
            "writes",
            "changed KiB",
            "page KiB",
            "sub-page KiB",
            "reduction",
            "B/changed B",
        ],
        &points
            .iter()
            .map(|p| {
                vec![
                    format!("{}", p.writes),
                    format!("{:.1}", p.changed_bytes as f64 / 1024.0),
                    format!("{:.1}", p.page_bytes as f64 / 1024.0),
                    format!("{:.1}", p.subpage_bytes as f64 / 1024.0),
                    format!("{:.1}x", p.page_bytes as f64 / p.subpage_bytes as f64),
                    format!("{:.2}", p.subpage_bytes as f64 / p.changed_bytes as f64),
                ]
            })
            .collect::<Vec<_>>(),
    );
    for p in &points {
        assert!(
            p.subpage_bytes * 10 <= p.page_bytes,
            "sub-page shipping must cut scattered-write delta bytes 10x \
             (writes={}, page={}, subpage={})",
            p.writes,
            p.page_bytes,
            p.subpage_bytes
        );
    }
    points
}

fn main() {
    let create = sweep_create();
    let delta = sweep_delta();
    let small = sweep_small_writes();

    header(
        "LiteDB online backup",
        "12 transactions, backup every 4: one full bootstrap, then deltas.",
    );
    let backup = run_online_backup(&OnlineBackupConfig {
        txns: 12,
        keys_per_txn: 8,
        backup_every: 4,
    });
    assert!(backup.consistent, "replica must match the last snapshot");
    table(
        &[
            "backups",
            "full",
            "delta",
            "delta pages",
            "full-equiv pages",
            "bytes shipped",
        ],
        &[vec![
            format!("{}", backup.backups),
            format!("{}", backup.full_syncs),
            format!("{}", backup.delta_syncs),
            format!("{}", backup.delta_pages),
            format!("{}", backup.full_equivalent_pages),
            format!("{}", backup.bytes_shipped),
        ]],
    );

    let create_json = create
        .iter()
        .map(|p| {
            format!(
                "{{\"dirty_pages\":{},\"create_us\":{:.3},\"reads\":{},\
                 \"writes\":{},\"pinned_blocks\":{}}}",
                p.dirty_pages,
                p.create.as_us_f64(),
                p.reads,
                p.writes,
                p.pinned_blocks
            )
        })
        .collect::<Vec<_>>()
        .join(",\n    ");
    let delta_json = delta
        .iter()
        .map(|p| {
            format!(
                "{{\"churned_pages\":{},\"delta_pages\":{},\"delta_bytes\":{},\
                 \"full_bytes\":{},\"sync_us\":{:.3}}}",
                p.churned_pages,
                p.delta_pages,
                p.delta_bytes,
                p.full_bytes,
                p.sync.as_us_f64()
            )
        })
        .collect::<Vec<_>>()
        .join(",\n    ");
    let small_json = format!(
        "[\n    {}\n  ]",
        small
            .iter()
            .map(|p| {
                format!(
                    "{{\"writes\":{},\"changed_bytes\":{},\"page_bytes\":{},\
                     \"subpage_bytes\":{},\"reduction\":{:.2}}}",
                    p.writes,
                    p.changed_bytes,
                    p.page_bytes,
                    p.subpage_bytes,
                    p.page_bytes as f64 / p.subpage_bytes as f64
                )
            })
            .collect::<Vec<_>>()
            .join(",\n    ")
    );
    let json = format!(
        "{{\n  \"bench\": \"snapshot\",\n  \"object_pages\": {OBJECT_PAGES},\n  \
         \"create\": [\n    {create_json}\n  ],\n  \"delta\": [\n    {delta_json}\n  ],\n  \
         \"online_backup\": {{\"backups\":{},\"full_syncs\":{},\"delta_syncs\":{},\
         \"delta_pages\":{},\"full_equivalent_pages\":{},\"bytes_shipped\":{}}},\n  \
         \"small_writes\": {small_json}\n}}\n",
        backup.backups,
        backup.full_syncs,
        backup.delta_syncs,
        backup.delta_pages,
        backup.full_equivalent_pages,
        backup.bytes_shipped,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_snapshot.json");
    std::fs::write(path, &json).expect("workspace root is writable");
    println!();
    println!(
        "wrote {} create + {} delta + {} small-write points to BENCH_snapshot.json",
        create.len(),
        delta.len(),
        small.len()
    );
}
