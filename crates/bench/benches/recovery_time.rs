//! Recovery-time characterization (the paper's restore path, §4):
//! how long `MemSnap::restore` + region page-in takes as the durable
//! dataset grows, and what a pending delta chain adds.

use memsnap::{MemSnap, PersistFlags, RegionSel, PAGE_SIZE};
use msnap_bench::{header, table, us};
use msnap_disk::{Disk, DiskConfig};
use msnap_sim::{Nanos, Vt};

/// Builds a store with `pages` persisted pages, committing in batches of
/// `batch` (small batches leave longer delta chains for recovery to
/// replay). Returns the device and the instant its last write completed.
fn build(pages: u64, batch: u64) -> (Disk, Nanos) {
    let mut ms = MemSnap::format(Disk::new(DiskConfig::paper()));
    let mut vt = Vt::new(0);
    let space = ms.vm_mut().create_space();
    let region = ms.msnap_open(&mut vt, space, "data", pages).unwrap();
    let thread = vt.id();
    let mut page = 0;
    while page < pages {
        for _ in 0..batch.min(pages - page) {
            ms.write(
                &mut vt,
                space,
                thread,
                region.addr + page * PAGE_SIZE as u64,
                &[page as u8; 64],
            )
            .unwrap();
            page += 1;
        }
        ms.msnap_persist(
            &mut vt,
            thread,
            RegionSel::Region(region.md),
            PersistFlags::sync(),
        )
        .unwrap();
    }
    (ms.shutdown(), vt.now())
}

/// Virtual time of restore + full page-in, on a device that has gone
/// idle: the restoring thread starts at `idle_at`, not at zero, so the
/// open is not charged the wait for the build's writes to drain.
fn restore_us(disk: Disk, idle_at: Nanos) -> (f64, f64) {
    let mut vt = Vt::new(1);
    vt.wait_until(idle_at);
    let t0 = vt.now();
    let mut ms = MemSnap::restore(&mut vt, disk).unwrap();
    let open_store = (vt.now() - t0).as_us_f64();
    let space = ms.vm_mut().create_space();
    let t1 = vt.now();
    ms.msnap_open(&mut vt, space, "data", 0).unwrap();
    let page_in = (vt.now() - t1).as_us_f64();
    (open_store, page_in)
}

fn main() {
    header(
        "Recovery time vs dataset size and commit granularity",
        "restore = reopen the store (roots + delta replay + tree load); \
         page-in = read every durable page back into memory on first \
         msnap_open.",
    );

    let mut rows = Vec::new();
    for (mib, batch) in [(1u64, 64u64), (4, 64), (16, 64), (16, 4), (16, 1)] {
        let pages = mib * 256;
        let (disk, idle_at) = build(pages, batch);
        let (open_store, page_in) = restore_us(disk, idle_at);
        rows.push(vec![
            format!("{mib} MiB"),
            format!("{batch}"),
            us(open_store),
            us(page_in),
            us(open_store + page_in),
        ]);
    }
    table(
        &[
            "dataset",
            "pages/commit",
            "store open us",
            "page-in us",
            "total us",
        ],
        &rows,
    );
    println!();
    println!(
        "Shape checks: page-in is linear in dataset size (one vectored \
         read per 256 pages); the store open is flat in it, and a delta \
         chain of small commits costs one block read per replayed record."
    );
}
