//! A tiny `fsck`-style inspector for MemSnap devices: builds a store,
//! crashes it, then walks the durable image and prints what a recovery
//! would adopt — objects, epochs, sizes, and device usage.
//!
//! Run with: `cargo run --example inspect_store`

use memsnap::{MemSnap, PersistFlags, RegionSel, PAGE_SIZE};
use msnap_disk::{Disk, DiskConfig};
use msnap_sim::Vt;
use msnap_store::ObjectStore;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Build a device with a few regions and some history.
    let mut ms = MemSnap::format(Disk::new(DiskConfig::paper()));
    let mut vt = Vt::new(0);
    let space = ms.vm_mut().create_space();
    let thread = vt.id();
    // orders.db's 40 synchronous commits are its epochs 1 ..= 40.
    const ORDERS_SYNCED: u64 = 40;
    for (name, pages, commits) in [
        ("users.db", 64u64, 12u64),
        ("orders.db", 128, ORDERS_SYNCED),
        ("wal-less!", 8, 3),
    ] {
        let r = ms.msnap_open(&mut vt, space, name, pages)?;
        for c in 0..commits {
            ms.write(
                &mut vt,
                space,
                thread,
                r.addr + (c % pages) * PAGE_SIZE as u64,
                &[c as u8; 100],
            )?;
            ms.msnap_persist(
                &mut vt,
                thread,
                RegionSel::Region(r.md),
                PersistFlags::sync(),
            )?;
        }
    }
    // Pull the plug mid-flight on one more commit.
    let r = ms.msnap_open(&mut vt, space, "orders.db", 0)?;
    ms.write(&mut vt, space, thread, r.addr, b"in flight, never lands")?;
    let crash_at = vt.now();
    ms.msnap_persist(
        &mut vt,
        thread,
        RegionSel::Region(r.md),
        PersistFlags::async_(),
    )?;
    let mut disk = ms.crash(crash_at);

    // Inspect the durable image, exactly as recovery sees it.
    println!("== msnap-inspect: durable image after power failure ==\n");
    let mut ivt = Vt::new(1);
    let store = ObjectStore::open(&mut ivt, &mut disk)?;
    println!(
        "{:<20} {:>8} {:>12} {:>12}",
        "object", "epoch", "pages", "bytes"
    );
    for name in store.object_names() {
        let Some(id) = store.lookup(&name) else {
            continue;
        };
        println!(
            "{:<20} {:>8} {:>12} {:>12}",
            name,
            store.epoch(id),
            store.len_pages(id),
            store.len_pages(id) * PAGE_SIZE as u64,
        );
    }
    println!(
        "\ndevice blocks in use: {} ({} KiB); recovery took {}",
        disk.blocks_in_use(),
        disk.blocks_in_use() * 4,
        ivt.now(),
    );
    // The in-flight commit would be epoch 41: recovery must stop at 40.
    let orders = store
        .lookup("orders.db")
        .ok_or("orders.db did not recover")?;
    let epoch = store.epoch(orders);
    if epoch != ORDERS_SYNCED {
        return Err(format!(
            "orders.db recovered at epoch {epoch}, not at its last synchronous commit, {ORDERS_SYNCED}"
        )
        .into());
    }
    println!("the in-flight commit to orders.db was discarded: it recovered at epoch {epoch}.");
    Ok(())
}
