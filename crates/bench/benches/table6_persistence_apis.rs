//! Table 6: latency of persistence APIs — direct disk IO, fsync on
//! FFS/ZFS (sequential and random), and `msnap_persist` (sync and async)
//! for write sizes from 4 KiB to 4 MiB.
//!
//! The paper's `msnap_persist` persists whole pages, so its columns
//! dirty whole pages here (as Table 5's do). `msnap sparse` beside them
//! is this repo's line-grain commit — one 64-byte store per page — which
//! the paper has no figure for.

use memsnap::{MemSnap, PersistFlags, RegionSel, PAGE_SIZE};
use msnap_bench::{header, table, us};
use msnap_disk::{Disk, DiskConfig};
use msnap_fs::{FileSystem, FsKind};
use msnap_sim::Vt;

const SIZES_KIB: &[usize] = &[4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096];
/// File/region working set the dirty data is scattered over.
const SPREAD_KIB: usize = 64 * 1024;

/// Paper values: (KiB, disk, ffs_seq, zfs_seq, ffs_rand, zfs_rand,
/// msnap_sync, msnap_async), in μs; 0 = not reported.
#[allow(clippy::type_complexity)]
const PAPER: &[(usize, f64, f64, f64, f64, f64, f64, f64)] = &[
    (4, 17.0, 70.0, 64.0, 156.0, 232.0, 34.0, 6.0),
    (8, 18.0, 79.0, 71.0, 252.0, 371.0, 36.0, 6.0),
    (16, 22.0, 89.0, 80.0, 464.0, 706.0, 41.0, 6.0),
    (32, 31.0, 111.0, 134.0, 828.0, 1_400.0, 48.0, 6.0),
    (64, 44.0, 134.0, 137.0, 1_900.0, 2_900.0, 50.0, 6.0),
    (128, 0.0, 164.0, 204.0, 4_300.0, 7_800.0, 70.0, 9.0),
    (256, 0.0, 218.0, 347.0, 8_800.0, 11_700.0, 112.0, 13.0),
    (512, 0.0, 338.0, 672.0, 12_600.0, 15_600.0, 168.0, 23.0),
    (1024, 0.0, 581.0, 937.0, 17_900.0, 18_200.0, 297.0, 36.0),
    (2048, 0.0, 1_100.0, 1_700.0, 23_500.0, 20_200.0, 552.0, 57.0),
    (
        4096, 0.0, 1_900.0, 3_000.0, 33_700.0, 30_900.0, 1_000.0, 108.0,
    ),
];

fn fsync_us(kind: FsKind, kib: usize, random: bool) -> f64 {
    let mut disk = Disk::new(DiskConfig::paper());
    let mut fs = FileSystem::new(kind);
    let mut vt = Vt::new(0);
    let fd = fs.create(&mut vt, "bench");
    if random {
        // Pre-extend and flush so subsequent writes are in-place.
        fs.write(&mut vt, &mut disk, fd, 0, &vec![0u8; SPREAD_KIB * 1024]);
        fs.fsync(&mut vt, &mut disk, fd);
        let blocks = kib * 1024 / 4096;
        let file_blocks = SPREAD_KIB * 1024 / 4096;
        for i in 0..blocks {
            let block = (i * 7919 + 13) % file_blocks;
            fs.write(&mut vt, &mut disk, fd, (block * 4096) as u64, &[1u8; 8]);
        }
    } else {
        fs.write(&mut vt, &mut disk, fd, 0, &vec![7u8; kib * 1024]);
    }
    let t0 = vt.now();
    fs.fsync(&mut vt, &mut disk, fd);
    (vt.now() - t0).as_us_f64()
}

/// Latency of persisting `kib` KiB worth of pages, each dirtied by one
/// `store_bytes`-long store.
fn memsnap_us(kib: usize, sync: bool, store_bytes: usize) -> f64 {
    let mut ms = MemSnap::format(Disk::new(DiskConfig::paper()));
    let mut vt = Vt::new(0);
    let space = ms.vm_mut().create_space();
    let region_pages = (SPREAD_KIB * 1024 / PAGE_SIZE) as u64;
    let r = ms
        .msnap_open(&mut vt, space, "bench", region_pages)
        .unwrap();
    let thread = vt.id();
    let pages = kib * 1024 / PAGE_SIZE;
    for i in 0..pages {
        let page = (i * 7919 + 13) % region_pages as usize;
        ms.write(
            &mut vt,
            space,
            thread,
            r.addr + (page * PAGE_SIZE) as u64,
            &[1u8; PAGE_SIZE][..store_bytes],
        )
        .unwrap();
    }
    let t0 = vt.now();
    let flags = if sync {
        PersistFlags::sync()
    } else {
        PersistFlags::async_()
    };
    ms.msnap_persist(&mut vt, thread, RegionSel::Region(r.md), flags)
        .unwrap();
    if sync {
        (vt.now() - t0).as_us_f64()
    } else {
        // The paper defines asynchronous latency as "the CPU time spent
        // on reapplying page protections to each dirty page".
        ms.last_persist_breakdown().resetting_tracking.as_us_f64()
    }
}

fn main() {
    header(
        "Table 6: persistence API latency (paper / measured, us)",
        "fsync after sequential or random 4 KiB writes vs msnap_persist \
         (random pattern); direct IO has one outstanding IO.",
    );
    let mut rows = Vec::new();
    for &(kib, p_disk, p_ffs_s, p_zfs_s, p_ffs_r, p_zfs_r, p_sync, p_async) in PAPER {
        assert!(SIZES_KIB.contains(&kib));
        let disk_us = if kib <= 64 {
            DiskConfig::paper().segment_latency(kib * 1024).as_us_f64()
        } else {
            0.0
        };
        let row = vec![
            format!("{kib}"),
            pair(p_disk, disk_us),
            pair(p_ffs_s, fsync_us(FsKind::Ffs, kib, false)),
            pair(p_zfs_s, fsync_us(FsKind::Zfs, kib, false)),
            pair(p_ffs_r, fsync_us(FsKind::Ffs, kib, true)),
            pair(p_zfs_r, fsync_us(FsKind::Zfs, kib, true)),
            pair(p_sync, memsnap_us(kib, true, PAGE_SIZE)),
            pair(0.0, memsnap_us(kib, true, 64)),
            pair(p_async, memsnap_us(kib, false, PAGE_SIZE)),
        ];
        rows.push(row);
    }
    table(
        &[
            "KiB",
            "disk",
            "ffs seq",
            "zfs seq",
            "ffs rand",
            "zfs rand",
            "msnap sync",
            "msnap sparse",
            "msnap async",
        ],
        &rows,
    );
    println!();
    println!(
        "Shape checks: msnap sync beats every fsync column at every size; \
         msnap async is ~flat for small sizes; random fsync is 9x-43x disk."
    );
}

fn pair(paper: f64, measured: f64) -> String {
    if paper == 0.0 && measured == 0.0 {
        "N/A".into()
    } else if paper == 0.0 {
        format!("-/{}", us(measured))
    } else {
        format!("{}/{}", us(paper), us(measured))
    }
}
