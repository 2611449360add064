//! Media-corruption robustness: checksummed commit records mean a
//! corrupted root or delta slot degrades recovery to an earlier epoch
//! instead of returning garbage, and per-page digests mean rot that
//! lands *after* commit is detected at read/scrub time, quarantined,
//! and healed from a retained snapshot or a peer — never served.

use memsnap::{MemSnap, MsnapError, PersistFlags, RegionSel};
use msnap_disk::{
    crash_at_every_io, Disk, DiskConfig, Fault, FaultPlan, ReadFaultPlan, BLOCK_SIZE,
};
use msnap_sim::Vt;
use msnap_store::{
    digest32, pack_entry, DeltaRecord, ObjectId, ObjectStore, RootRecord, ShardLayout, StoreError,
    DELTA_SLOTS,
};

fn page_of(b: u8) -> Vec<u8> {
    vec![b; BLOCK_SIZE]
}

/// Commits `n` single-page checkpoints (page = epoch % 8, content = epoch).
fn build(n: u64) -> (Disk, Vt) {
    let mut disk = Disk::new(DiskConfig::paper());
    let mut store = ObjectStore::format(&mut disk);
    let mut vt = Vt::new(0);
    let obj = store.create(&mut vt, &mut disk, "o").unwrap();
    for epoch in 1..=n {
        let p = page_of(epoch as u8);
        let token = store
            .persist(&mut vt, &mut disk, obj, &[(epoch % 8, &p)])
            .unwrap();
        ObjectStore::wait(&mut vt, token);
    }
    disk.settle();
    (disk, vt)
}

/// Finds the block holding object 0's delta record of `epoch` by
/// decoding every block (test-side introspection).
fn find_delta_block(disk: &Disk, epoch: u64) -> Option<u64> {
    (0..4096u64).find(|&block| {
        disk.peek(block)
            .and_then(|data| DeltaRecord::from_block(&data, ObjectId(0)))
            .is_some_and(|d| d.epoch == epoch)
    })
}

#[test]
fn intact_store_recovers_every_epoch() {
    let n = 10;
    let (mut disk, _) = build(n);
    let mut vt = Vt::new(1);
    let store = ObjectStore::open(&mut vt, &mut disk).unwrap();
    let obj = store.lookup("o").unwrap();
    assert_eq!(store.epoch(obj), n);
}

#[test]
fn corrupted_latest_delta_degrades_by_one_epoch() {
    let n = 10; // all within one delta window
    assert!(n < DELTA_SLOTS);
    let (mut disk, _) = build(n);
    let block = find_delta_block(&disk, n).expect("latest delta exists");
    disk.corrupt_bit(block, 70, 3); // corrupt a payload pair

    let mut vt = Vt::new(1);
    let mut store = ObjectStore::open(&mut vt, &mut disk).unwrap();
    let obj = store.lookup("o").unwrap();
    assert_eq!(
        store.epoch(obj),
        n - 1,
        "checksum failure must drop exactly the corrupted tail epoch"
    );
    // The surviving state is consistent: page contents match their
    // epochs under the replayed prefix.
    let mut buf = page_of(0);
    store
        .read_page(&mut vt, &mut disk, obj, (n - 1) % 8, &mut buf)
        .unwrap();
    assert_eq!(buf[0], (n - 1) as u8);
}

#[test]
fn corrupted_middle_delta_truncates_the_chain() {
    let n = 10;
    let (mut disk, _) = build(n);
    let block = find_delta_block(&disk, 6).expect("delta 6 exists");
    disk.corrupt_bit(block, 0, 0); // kill the magic

    let mut vt = Vt::new(1);
    let store = ObjectStore::open(&mut vt, &mut disk).unwrap();
    let obj = store.lookup("o").unwrap();
    assert_eq!(
        store.epoch(obj),
        5,
        "replay must stop at the gap (consecutive-epoch rule)"
    );
}

#[test]
fn corrupted_full_root_falls_back_to_previous_root() {
    // Drive past two full-root commits, then corrupt the newest full
    // root: recovery must fall back to the previous one (the alternating
    // slots exist for exactly this).
    let n = 2 * DELTA_SLOTS + 4;
    let (mut disk, _) = build(n);

    // Find the newest full root by decoding every block as one.
    let (root_epoch, root_block) = (0..4096u64)
        .filter_map(|block| {
            let root = RootRecord::from_block(&disk.peek(block)?, ObjectId(0))?;
            Some((root.epoch, block))
        })
        .max()
        .expect("a full root exists");
    disk.corrupt_bit(root_block, 32, 1); // corrupt the tree-root pointer

    let mut vt = Vt::new(1);
    let store = ObjectStore::open(&mut vt, &mut disk).unwrap();
    let obj = store.lookup("o").unwrap();
    let recovered = store.epoch(obj);
    assert!(
        recovered < root_epoch,
        "recovery {recovered} must fall back below the corrupted root {root_epoch}"
    );
    // Deltas still present for the window after the *previous* root let
    // recovery land close behind.
    assert!(
        recovered >= DELTA_SLOTS,
        "the previous full root (epoch {DELTA_SLOTS}) must survive, got {recovered}"
    );
}

#[test]
fn a_rotted_directory_entry_fails_open_with_a_typed_error() {
    // Directory blocks are rewritten in place, so they carry no checksum:
    // one flipped bit of an entry's name length, name or id must come
    // back from open as the block's corruption — never a panic, and
    // never an object silently dropped.
    let dir_block = ShardLayout::sharded(0, 1).base + 1;
    let rotted = [
        (25, 7), // the name length: past the name field and the entry
        (26, 7), // the name: not UTF-8
        (1, 0),  // the id: not the next one
        (6, 3),  // the id: past 32 bits
    ];
    for (byte, bit) in rotted {
        let (mut disk, _) = build(3);
        disk.corrupt_bit(dir_block, byte, bit);
        let mut vt = Vt::new(1);
        assert_eq!(
            ObjectStore::open(&mut vt, &mut disk).err(),
            Some(StoreError::CorruptMeta { block: dir_block }),
            "byte {byte} bit {bit}"
        );
    }
}

#[test]
fn torn_data_extent_mid_chain_truncates_recovery_there() {
    // Epoch 5's two-page data extent tears after its first block while
    // its record (and four later durable commits) land intact. Recovery
    // verifies each delta's payload checksum before replaying it, so the
    // prefix stops at epoch 4 — never a torn hybrid, and never the
    // later commits that build on the torn one.
    let mut disk = Disk::new(DiskConfig::paper());
    let mut store = ObjectStore::format(&mut disk);
    let mut vt = Vt::new(0);
    let obj = store.create(&mut vt, &mut disk, "o").unwrap();
    let mut last = msnap_sim::Nanos::ZERO;
    for epoch in 1..=9u64 {
        if epoch == 5 {
            disk.set_fault_plan(
                FaultPlan::new().at(disk.io_seq(), Fault::Torn { prefix_blocks: 1 }),
            );
        }
        let pa = page_of(epoch as u8);
        let pb = page_of(epoch as u8 + 100);
        let token = store
            .persist(&mut vt, &mut disk, obj, &[(0, &pa), (1, &pb)])
            .unwrap();
        ObjectStore::wait(&mut vt, token);
        last = token.completes;
    }
    disk.crash(last);

    let mut vt2 = Vt::new(1);
    let mut store2 = ObjectStore::open(&mut vt2, &mut disk).unwrap();
    let obj2 = store2.lookup("o").unwrap();
    assert_eq!(store2.epoch(obj2), 4, "replay stops before the torn commit");
    let mut buf = page_of(0);
    store2
        .read_page(&mut vt2, &mut disk, obj2, 0, &mut buf)
        .unwrap();
    assert_eq!(buf[0], 4);
    store2
        .read_page(&mut vt2, &mut disk, obj2, 1, &mut buf)
        .unwrap();
    assert_eq!(buf[0], 104);
}

#[test]
fn bit_flipped_data_block_mid_chain_truncates_recovery_there() {
    // Same shape, but the device silently flips one data bit as epoch 5
    // is written: no crash signal, no record damage — only the payload
    // checksum can catch it.
    let mut disk = Disk::new(DiskConfig::paper());
    let mut store = ObjectStore::format(&mut disk);
    let mut vt = Vt::new(0);
    let obj = store.create(&mut vt, &mut disk, "o").unwrap();
    let mut last = msnap_sim::Nanos::ZERO;
    for epoch in 1..=9u64 {
        if epoch == 5 {
            disk.set_fault_plan(FaultPlan::new().at(
                disk.io_seq(),
                Fault::BitFlip {
                    entry: 0,
                    byte: 17,
                    bit: 6,
                },
            ));
        }
        let p = page_of(epoch as u8);
        let token = store.persist(&mut vt, &mut disk, obj, &[(0, &p)]).unwrap();
        ObjectStore::wait(&mut vt, token);
        last = token.completes;
    }
    disk.crash(last);

    let mut vt2 = Vt::new(1);
    let mut store2 = ObjectStore::open(&mut vt2, &mut disk).unwrap();
    let obj2 = store2.lookup("o").unwrap();
    assert_eq!(
        store2.epoch(obj2),
        4,
        "replay stops before the flipped commit"
    );
    let mut buf = page_of(0);
    store2
        .read_page(&mut vt2, &mut disk, obj2, 0, &mut buf)
        .unwrap();
    assert_eq!(buf[0], 4);
}

#[test]
fn corruption_in_a_data_block_does_not_break_recovery() {
    // Corruption that lands after the store is open surfaces as a typed
    // CorruptData error at read time — never as wrong bytes — while the
    // recovery structure stays intact and the bad block is quarantined.
    let n = 6;
    let (mut disk, _) = build(n);
    // Corrupt some block in the data region (past the metadata area).
    let mut vt = Vt::new(1);
    let mut store = ObjectStore::open(&mut vt, &mut disk).unwrap();
    let obj = store.lookup("o").unwrap();
    assert_eq!(store.epoch(obj), n);
    // Find page 1's block via a read round trip before corrupting it.
    let mut before = page_of(0);
    store
        .read_page(&mut vt, &mut disk, obj, 1, &mut before)
        .unwrap();
    for block in 0..8192u64 {
        if disk.peek(block).is_some_and(|d| d == before) {
            disk.corrupt_bit(block, 5, 5);
            break;
        }
    }
    // The block cache is invalidated by store writes, not by external
    // mutation of the device; drop it so the next read hits raw IO.
    store.drop_cache();
    let mut after = page_of(0xEE);
    let err = store
        .read_page(&mut vt, &mut disk, obj, 1, &mut after)
        .unwrap_err();
    assert!(
        matches!(err, StoreError::CorruptData { page: 1, .. }),
        "rot surfaces as CorruptData, got {err:?}"
    );
    assert!(
        after.iter().all(|&b| b == 0),
        "corrupt bytes are never handed to the caller"
    );
    assert_eq!(store.quarantined_blocks(), 1, "the bad block is fenced");
    assert_eq!(store.epoch(obj), n, "structure unaffected");
    // Clean pages keep reading fine.
    let mut buf = page_of(0);
    store
        .read_page(&mut vt, &mut disk, obj, 2, &mut buf)
        .unwrap();
    assert_eq!(buf[0], 2);
}

#[test]
fn read_fault_during_node_demand_load_is_retryable() {
    // A seeded device read error during a radix-node demand-load must
    // surface as a StoreError, leave the tree and the block cache
    // unpoisoned, and let the identical read succeed once the fault
    // clears.
    let mut disk = Disk::new(DiskConfig::paper());
    let mut store = ObjectStore::format(&mut disk);
    let mut vt = Vt::new(0);
    let obj = store.create(&mut vt, &mut disk, "o").unwrap();
    let a = page_of(7);
    let b = page_of(9);
    let token = store
        .persist(&mut vt, &mut disk, obj, &[(0, &a), (1000, &b)])
        .unwrap();
    ObjectStore::wait(&mut vt, token);
    // Flush the full tree so a reopen starts from committed node blocks
    // with no deltas to replay: every node is cold.
    store.snapshot_create(&mut vt, &mut disk, obj, "s").unwrap();
    disk.settle();

    let mut vt = Vt::new(1);
    let mut store = ObjectStore::open(&mut vt, &mut disk).unwrap();
    let obj = store.lookup("o").unwrap();
    assert_eq!(store.stats().hydrations, 0, "open does no hydration IO");

    // Fail the very next fallible read — the node demand-load the page
    // read below triggers.
    disk.set_read_fault_plan(ReadFaultPlan::new().at(disk.read_seq(), true));
    let mut buf = page_of(0);
    let err = store
        .read_page(&mut vt, &mut disk, obj, 1000, &mut buf)
        .unwrap_err();
    assert!(
        matches!(err, StoreError::Io(_)),
        "read fault surfaces as an IO error, got {err:?}"
    );
    assert_eq!(
        store.stats().hydrations,
        0,
        "the failed load left nothing half-hydrated"
    );

    // Unpoisoned: the identical read succeeds now that the fault is
    // spent, and the demand-load happens then.
    store
        .read_page(&mut vt, &mut disk, obj, 1000, &mut buf)
        .unwrap();
    assert_eq!(buf[0], 9, "retry returns the committed bytes");
    assert!(
        store.stats().hydrations > 0,
        "retry re-issued the demand-load the fault blocked"
    );
}

#[test]
fn read_fault_on_the_directory_block_aborts_create_cleanly() {
    // `create` read-modify-writes the object's directory block. A device
    // read error there must surface as a StoreError — the object never
    // existed, nothing was written, no block leaked — and the retry
    // must land exactly what an unfaulted create would have.
    let setup = || {
        let mut disk = Disk::new(DiskConfig::paper());
        let mut store = ObjectStore::format(&mut disk);
        let mut vt = Vt::new(0);
        store.create(&mut vt, &mut disk, "first").unwrap();
        (disk, store, vt)
    };
    let (mut twin_disk, mut twin, mut twin_vt) = setup();
    twin.create(&mut twin_vt, &mut twin_disk, "second").unwrap();
    let unfaulted_meta_base = meta_base_of(&twin_disk, 1);

    let (mut disk, mut store, mut vt) = setup();
    let writes = disk.io_seq();
    disk.set_read_fault_plan(ReadFaultPlan::new().at(disk.read_seq(), false));
    let err = store.create(&mut vt, &mut disk, "second").unwrap_err();
    assert!(
        matches!(err, StoreError::Io(_)),
        "directory read fault surfaces as an IO error, got {err:?}"
    );
    assert_eq!(store.lookup("second"), None, "the object never existed");
    assert_eq!(disk.io_seq(), writes, "nothing reached the device");

    // The fault is spent: the retry succeeds, and its metadata blocks
    // are the ones the aborted attempt gave back — the allocator is
    // where it was.
    let second = store.create(&mut vt, &mut disk, "second").unwrap();
    assert_eq!(store.lookup("second"), Some(second));
    assert_eq!(meta_base_of(&disk, 1), unfaulted_meta_base);
    disk.settle();
    let reopened = ObjectStore::open(&mut Vt::new(1), &mut disk).unwrap();
    assert_eq!(reopened.object_names(), ["first", "second"]);
}

#[test]
fn bit_rot_injected_at_read_time_is_detected_and_quarantined() {
    // Latent rot surfacing during a *normal* page read (no scrub
    // involved): the in-flight BitRot fault rots the media just before
    // the device serves it, and the digest check refuses the bytes.
    let n = 6;
    let (mut disk, _) = build(n);
    let mut vt = Vt::new(1);
    let mut store = ObjectStore::open(&mut vt, &mut disk).unwrap();
    let obj = store.lookup("o").unwrap();
    let mut buf = page_of(0);
    store
        .read_page(&mut vt, &mut disk, obj, 1, &mut buf)
        .unwrap();
    assert_eq!(buf[0], 1);
    store.drop_cache();
    // The tree is resident, so the next fallible device read is page 1's
    // data block: rot one bit in flight.
    disk.set_read_fault_plan(ReadFaultPlan::new().rot_at(disk.read_seq(), 100, 4));
    let err = store
        .read_page(&mut vt, &mut disk, obj, 1, &mut buf)
        .unwrap_err();
    assert!(
        matches!(err, StoreError::CorruptData { page: 1, .. }),
        "in-flight rot surfaces as CorruptData, got {err:?}"
    );
    assert!(buf.iter().all(|&b| b == 0), "rotted bytes never surface");
    assert_eq!(store.quarantined_blocks(), 1);
    // The rot landed on the media: the same read keeps refusing.
    store.drop_cache();
    let err = store
        .read_page(&mut vt, &mut disk, obj, 1, &mut buf)
        .unwrap_err();
    assert!(matches!(err, StoreError::CorruptData { page: 1, .. }));
}

/// Everything `ObjectStore::open` recovers, as comparable data: per
/// object its name, epoch, length and every page, then the snapshot
/// names and the newest cut.
fn recovered_state(store: &mut ObjectStore, vt: &mut Vt, disk: &mut Disk) -> Vec<String> {
    let mut state = Vec::new();
    for name in store.object_names() {
        let id = store.lookup(&name).unwrap();
        let (epoch, len) = (store.epoch(id), store.len_pages(id));
        let mut buf = page_of(0);
        let mut sum = 0u64;
        for page in 0..len {
            store.read_page(vt, disk, id, page, &mut buf).unwrap();
            sum = sum.wrapping_mul(31).wrapping_add(digest32(&buf) as u64);
        }
        state.push(format!("{name} epoch {epoch} len {len} pages {sum:x}"));
    }
    for snap in store.snapshots() {
        state.push(format!("snapshot {} epoch {}", snap.name, snap.epoch));
    }
    state.push(format!("cut {:?}", store.last_cut()));
    state
}

#[test]
fn read_failure_at_any_open_time_block_is_typed_and_a_retry_recovers_the_same_state() {
    // Open reads its metadata fallibly: a device read error on any block
    // it touches — superblock, cut slots, slab, root and delta slots,
    // replayed data extents, line-grain base blocks, hydrated nodes — must
    // surface as `StoreError::Io` with nothing half-built, and opening the
    // same device again must recover exactly what a clean open recovers.
    let mut disk = Disk::new(DiskConfig::paper());
    let mut store = ObjectStore::format_sharded(&mut disk, 2);
    let mut vt = Vt::new(0);
    let ids: Vec<_> = ["a", "b", "c"]
        .iter()
        .map(|n| store.create(&mut vt, &mut disk, n).unwrap())
        .collect();
    let p = |b: u8| page_of(b);
    let big: Vec<(u64, Vec<u8>)> = (0..20).map(|i| (i * 40, p(i as u8 + 1))).collect();
    let big_refs: Vec<(u64, &[u8])> = big.iter().map(|(pg, d)| (*pg, &d[..])).collect();
    let token = store
        .persist(&mut vt, &mut disk, ids[0], &big_refs)
        .unwrap();
    ObjectStore::wait(&mut vt, token);
    // A full root under "a" (so replay hydrates committed nodes), a
    // catalog entry, then deltas and a two-object batch on top.
    store
        .snapshot_create(&mut vt, &mut disk, ids[0], "s")
        .unwrap();
    for round in 0..3u8 {
        for (i, id) in ids.iter().enumerate() {
            let data = p(0x40 + round * 3 + i as u8);
            let token = store
                .persist(&mut vt, &mut disk, *id, &[(round as u64 * 40, &data)])
                .unwrap();
            ObjectStore::wait(&mut vt, token);
        }
    }
    let (x, y) = (p(0x71), p(0x72));
    let tokens = store
        .persist_batch(
            &mut vt,
            &mut disk,
            &[(ids[1], &[(5, &x[..])]), (ids[2], &[(6, &y[..])])],
        )
        .unwrap();
    for token in tokens {
        ObjectStore::wait(&mut vt, token);
    }
    // Line-grain records over "a": one patching a block the root maps (its
    // base is in replay's prefetch read), one over a page a delta above
    // moved (read when the record replays).
    for (page, fill) in [(120u64, 4u8), (0, 0x40)] {
        let mut image = p(fill);
        image[640..704].fill(0xEE);
        let tokens = store
            .persist_batch(
                &mut vt,
                &mut disk,
                &[(ids[0], &[(page, &image[..], 1u64 << 10)][..])],
            )
            .unwrap();
        ObjectStore::wait(&mut vt, tokens[0]);
    }
    assert_eq!(store.stats().line_commits, 2);
    store.cut(&mut vt, &mut disk).unwrap();
    disk.crash(vt.now());

    let mut vt = Vt::new(1);
    let seq0 = disk.read_seq();
    let mut clean = ObjectStore::open(&mut vt, &mut disk).unwrap();
    let open_reads = disk.read_seq() - seq0;
    assert!(open_reads > 100, "open read only {open_reads} blocks");
    let want = recovered_state(&mut clean, &mut vt, &mut disk);
    assert!(want.iter().any(|l| l.starts_with("a epoch 6")), "{want:?}");

    for k in 0..open_reads {
        disk.set_read_fault_plan(ReadFaultPlan::new().at(disk.read_seq() + k, true));
        let err = ObjectStore::open(&mut vt, &mut disk)
            .map(|_| ())
            .unwrap_err();
        assert!(
            matches!(&err, StoreError::Io(e) if e.is_transient()),
            "open-time read {k}: expected a transient IO error, got {err:?}"
        );
        let mut retry = ObjectStore::open(&mut vt, &mut disk)
            .unwrap_or_else(|e| panic!("retry after failed read {k}: {e:?}"));
        let got = recovered_state(&mut retry, &mut vt, &mut disk);
        assert_eq!(got, want, "retry after failed open-time read {k}");
    }
}

/// Everything `MemSnap::restore` recovers, as comparable data: per region
/// its name, geometry, epoch and every byte (paged in on the way).
fn restored_state(ms: &mut MemSnap, vt: &mut Vt) -> Vec<String> {
    let space = ms.vm_mut().create_space();
    let mut state = Vec::new();
    for name in ms.region_names() {
        let r = ms.msnap_open(vt, space, &name, 0).unwrap();
        let mut bytes = vec![0u8; r.pages as usize * BLOCK_SIZE];
        ms.read(vt, space, r.addr, &mut bytes).unwrap();
        let epoch = ms.region_epoch(r.md).unwrap();
        let sum = digest32(&bytes);
        state.push(format!(
            "{name} at {:x} pages {} epoch {epoch} bytes {sum:x}",
            r.addr, r.pages
        ));
    }
    state
}

#[test]
fn restore_reports_any_read_failure_as_a_typed_error() {
    // `MemSnap::restore` is open plus the manifest decode; a read error
    // anywhere in it — the prefetch of the line-grain chain's base blocks
    // included — is `MsnapError::Store(Io)`, never a panic, and the error
    // hands the device back: restoring it again recovers exactly what a
    // clean restore does.
    let mut ms = MemSnap::format(Disk::new(DiskConfig::paper()));
    let mut vt = Vt::new(0);
    let thread = vt.id();
    let space = ms.vm_mut().create_space();
    let r = ms.msnap_open(&mut vt, space, "data", 8).unwrap();
    let other = ms.msnap_open(&mut vt, space, "other", 4).unwrap();
    let sync = PersistFlags::sync();
    let whole = vec![0x5a; 3 * BLOCK_SIZE];
    ms.write(&mut vt, space, thread, r.addr, &whole).unwrap();
    ms.msnap_persist(&mut vt, thread, RegionSel::Region(r.md), sync)
        .unwrap();
    for i in 0..4u8 {
        let at = r.addr + (i as u64 % 3) * BLOCK_SIZE as u64 + 64 * i as u64;
        ms.write(&mut vt, space, thread, at, &[i; 8]).unwrap();
        ms.msnap_persist(&mut vt, thread, RegionSel::Region(r.md), sync)
            .unwrap();
    }
    ms.write(&mut vt, space, thread, other.addr + 9, b"other")
        .unwrap();
    ms.msnap_persist(&mut vt, thread, RegionSel::Region(other.md), sync)
        .unwrap();
    assert!(ms.store().stats().line_commits >= 4, "line-grain chain");
    let mut disk = ms.crash(vt.now());

    let mut vt = Vt::new(1);
    let seq0 = disk.read_seq();
    let mut clean = MemSnap::restore(&mut vt, disk).unwrap();
    let restore_reads = clean.disk().read_seq() - seq0;
    let want = restored_state(&mut clean, &mut vt);
    assert!(want[0].contains("epoch 5"), "{want:?}");
    disk = clean.into_disk();

    for k in 0..restore_reads {
        disk.set_read_fault_plan(ReadFaultPlan::new().at(disk.read_seq() + k, true));
        let err = MemSnap::restore(&mut vt, disk).unwrap_err();
        assert!(
            matches!(&err.error, MsnapError::Store(StoreError::Io(e)) if e.is_transient()),
            "restore-time read {k}: got {err:?}"
        );
        let mut retry = MemSnap::restore(&mut vt, err.disk)
            .unwrap_or_else(|e| panic!("retry after failed read {k}: {e:?}"));
        assert_eq!(
            restored_state(&mut retry, &mut vt),
            want,
            "retry after failed restore-time read {k}"
        );
        disk = retry.into_disk();
    }
}

/// The live (newest) media copy of `content`: COW commits bump-allocate,
/// so among identical images the highest block number is current.
fn live_block_of(disk: &Disk, content: &[u8]) -> u64 {
    let mut live = None;
    for block in 0..16384u64 {
        if disk.peek(block).is_some_and(|img| img == content) {
            live = Some(block);
        }
    }
    live.expect("a committed copy exists on media")
}

#[test]
fn scrub_heals_rotted_page_from_a_retained_snapshot() {
    // A page is committed, snapshotted, then committed again with the
    // same bytes — two independent media copies with one digest. Rotting
    // the live copy must be detected by scrub and healed byte-for-byte
    // from the snapshot's copy, through a normal crash-atomic commit.
    let mut disk = Disk::new(DiskConfig::paper());
    let mut store = ObjectStore::format(&mut disk);
    let mut vt = Vt::new(0);
    let obj = store.create(&mut vt, &mut disk, "o").unwrap();
    let p = page_of(0x5A);
    let token = store.persist(&mut vt, &mut disk, obj, &[(0, &p)]).unwrap();
    ObjectStore::wait(&mut vt, token);
    store.snapshot_create(&mut vt, &mut disk, obj, "s").unwrap();
    let token = store.persist(&mut vt, &mut disk, obj, &[(0, &p)]).unwrap();
    ObjectStore::wait(&mut vt, token);
    disk.settle();

    disk.corrupt_bit(live_block_of(&disk, &p), 17, 6);
    store.drop_cache();
    let mut guard = 0;
    while store.scrub_stats().passes == 0 {
        store.scrub(&mut vt, &mut disk, 16).unwrap();
        guard += 1;
        assert!(guard < 1000, "scrub cursor must make progress");
    }
    let stats = store.scrub_stats();
    assert_eq!(stats.corruptions_found, 1, "the rot is detected");
    assert_eq!(stats.repairs, 1, "and healed from the snapshot");
    assert_eq!(stats.unrepaired, 0);
    assert_eq!(store.quarantined_blocks(), 1);
    assert!(store.unrepaired_pages().is_empty());

    // Byte-for-byte, both live and after a reopen.
    let mut buf = page_of(0);
    store
        .read_page(&mut vt, &mut disk, obj, 0, &mut buf)
        .unwrap();
    assert_eq!(buf, p);
    disk.settle();
    let mut vt = Vt::new(1);
    let mut store = ObjectStore::open(&mut vt, &mut disk).unwrap();
    let obj = store.lookup("o").unwrap();
    assert_eq!(store.epoch(obj), 2, "repair never moves the epoch");
    store
        .read_page(&mut vt, &mut disk, obj, 0, &mut buf)
        .unwrap();
    assert_eq!(buf, p, "the healed copy is durable");
}

#[test]
fn unrepairable_rot_is_quarantined_reported_and_healable_by_peer_data() {
    // No snapshot holds a second copy: scrub must quarantine, report the
    // page via unrepaired_pages() (replication's repair-request feed),
    // and keep refusing reads until repair_page lands a verified copy.
    let mut disk = Disk::new(DiskConfig::paper());
    let mut store = ObjectStore::format(&mut disk);
    let mut vt = Vt::new(0);
    let obj = store.create(&mut vt, &mut disk, "o").unwrap();
    let p = page_of(0x7A);
    let token = store.persist(&mut vt, &mut disk, obj, &[(0, &p)]).unwrap();
    ObjectStore::wait(&mut vt, token);
    disk.settle();

    disk.corrupt_bit(live_block_of(&disk, &p), 9, 2);
    store.drop_cache();
    let mut guard = 0;
    while store.scrub_stats().passes == 0 {
        store.scrub(&mut vt, &mut disk, 16).unwrap();
        guard += 1;
        assert!(guard < 1000, "scrub cursor must make progress");
    }
    let stats = store.scrub_stats();
    assert_eq!(stats.corruptions_found, 1);
    assert_eq!(stats.repairs, 0, "no local source to heal from");
    assert_eq!(stats.unrepaired, 1);
    let reported = store.unrepaired_pages();
    assert_eq!(reported.len(), 1);
    assert_eq!(reported[0].page, 0);
    assert_eq!(reported[0].object, obj);

    // Still refused at read time.
    let mut buf = page_of(0);
    let err = store
        .read_page(&mut vt, &mut disk, obj, 0, &mut buf)
        .unwrap_err();
    assert!(matches!(err, StoreError::CorruptData { page: 0, .. }));

    // A peer copy with the wrong content is refused outright...
    let bogus = page_of(0x7B);
    let err = store
        .repair_page(&mut vt, &mut disk, obj, 0, &bogus)
        .unwrap_err();
    assert!(
        matches!(err, StoreError::RepairMismatch),
        "unverified peer data must never land, got {err:?}"
    );

    // ...while the right bytes heal it through a normal commit.
    let token = store.repair_page(&mut vt, &mut disk, obj, 0, &p).unwrap();
    ObjectStore::wait(&mut vt, token);
    store
        .read_page(&mut vt, &mut disk, obj, 0, &mut buf)
        .unwrap();
    assert_eq!(buf, p, "peer repair restores the exact bytes");
    assert!(store.unrepaired_pages().is_empty(), "the report is cleared");
}

#[test]
fn a_commit_that_rewrites_a_reported_page_drops_its_report() {
    // The report names a rotted block. Any later commit of the page — a
    // delta record, a line record, a full root — supersedes that block,
    // so the report must go with it: a report that outlives the block
    // keeps replication asking for a digest no copy may carry any more.
    for door in ["record", "line record", "full root"] {
        let mut disk = Disk::new(DiskConfig::paper());
        let mut store = ObjectStore::format(&mut disk);
        let mut vt = Vt::new(0);
        let obj = store.create(&mut vt, &mut disk, "o").unwrap();
        let p = page_of(0x7A);
        let token = store.persist(&mut vt, &mut disk, obj, &[(0, &p)]).unwrap();
        ObjectStore::wait(&mut vt, token);
        disk.settle();
        disk.corrupt_bit(live_block_of(&disk, &p), 9, 2);
        store.drop_cache();
        store.scrub(&mut vt, &mut disk, 1 << 20).unwrap();
        assert_eq!(store.unrepaired_pages().len(), 1, "{door}");

        // The rewrite keeps every line but the first, as a line record
        // promises.
        let mut new = p.clone();
        new[..64].fill(0x11);
        let token = match door {
            "record" => store.persist(&mut vt, &mut disk, obj, &[(0, &new)]),
            "line record" => {
                let pages = [(0, &new[..], 1u64)];
                store
                    .persist_batch(&mut vt, &mut disk, &[(obj, &pages[..])])
                    .map(|t| t[0])
            }
            _ => {
                let epoch = store.epoch(obj) + 1;
                store.apply_image(&mut vt, &mut disk, obj, None, &[(0, &new)], epoch)
            }
        };
        ObjectStore::wait(&mut vt, token.unwrap());
        assert!(
            store.unrepaired_pages().is_empty(),
            "{door}: report dropped"
        );

        // A later pass reports nothing again: the rotted block is gone
        // from the tree, or — under a line record — healed by writing the
        // overlay out.
        let before = store.scrub_stats();
        store.scrub(&mut vt, &mut disk, 1 << 20).unwrap();
        store.scrub(&mut vt, &mut disk, 1 << 20).unwrap();
        assert_eq!(store.scrub_stats().unrepaired, before.unrepaired, "{door}");
        assert!(store.unrepaired_pages().is_empty(), "{door}");
        let mut buf = page_of(0);
        store
            .read_page(&mut vt, &mut disk, obj, 0, &mut buf)
            .unwrap();
        assert_eq!(buf, new, "{door}");
        assert_eq!(
            store
                .repair_page(&mut vt, &mut disk, obj, 0, &p)
                .unwrap_err(),
            StoreError::RepairMismatch,
            "{door}: the old bytes are stale now"
        );
    }
}

#[test]
fn page_in_of_a_rotted_page_is_a_typed_error_and_retries_after_repair() {
    // The first msnap_open after a restore pages the region back in
    // through the verified read path. Rot under one committed page must
    // surface as the store's typed error — never a panic, never a
    // half-populated region that later opens treat as paged in — and
    // once the page is repaired the same open succeeds.
    const PAGES: u64 = 4;
    let mut ms = MemSnap::format(Disk::new(DiskConfig::paper()));
    let mut vt = Vt::new(0);
    let thread = vt.id();
    let space = ms.vm_mut().create_space();
    let r = ms.msnap_open(&mut vt, space, "data", PAGES).unwrap();
    for p in 0..PAGES {
        let va = r.addr + p * BLOCK_SIZE as u64;
        ms.write(&mut vt, space, thread, va, &page_of(0xA0 + p as u8))
            .unwrap();
    }
    ms.msnap_persist(
        &mut vt,
        thread,
        RegionSel::Region(r.md),
        PersistFlags::sync(),
    )
    .unwrap();
    // Recovery re-verifies the data blocks of the delta chain it
    // replays; push the commit above under a full root so the rot below
    // is first met by the page-in.
    for i in 0..=DELTA_SLOTS {
        ms.write(&mut vt, space, thread, r.addr, &[i as u8; 8])
            .unwrap();
        ms.msnap_persist(
            &mut vt,
            thread,
            RegionSel::Region(r.md),
            PersistFlags::sync(),
        )
        .unwrap();
    }
    let mut disk = ms.crash(vt.now());
    disk.corrupt_bit(live_block_of(&disk, &page_of(0xA2)), 11, 4);

    let mut vt = Vt::new(1);
    let mut ms = MemSnap::restore(&mut vt, disk).unwrap();
    let space = ms.vm_mut().create_space();
    for _ in 0..2 {
        let err = ms.msnap_open(&mut vt, space, "data", 0).unwrap_err();
        assert!(
            matches!(
                err,
                MsnapError::Store(StoreError::CorruptData { page: 2, .. })
            ),
            "page-in must report the rotted page, got {err:?}"
        );
    }

    // A verified peer copy heals the page; the retried open pages the
    // whole region in.
    let id = ms.store().lookup("data").unwrap();
    let (store, disk) = ms.replication_parts();
    let token = store
        .repair_page(&mut vt, disk, id, 2, &page_of(0xA2))
        .unwrap();
    ObjectStore::wait(&mut vt, token);
    let r = ms.msnap_open(&mut vt, space, "data", 0).unwrap();
    let mut buf = page_of(0);
    for p in 1..PAGES {
        ms.read(&mut vt, space, r.addr + p * BLOCK_SIZE as u64, &mut buf)
            .unwrap();
        assert_eq!(buf, page_of(0xA0 + p as u8), "page {p}");
    }
}

#[test]
fn scrub_interleaved_with_writes_reports_no_false_corruption() {
    // An IO-budgeted scrub running between commits must never flag a
    // freshly written page, and its cursor must keep making progress
    // while the tree underneath it changes.
    let mut disk = Disk::new(DiskConfig::paper());
    let mut store = ObjectStore::format(&mut disk);
    let mut vt = Vt::new(0);
    let obj = store.create(&mut vt, &mut disk, "o").unwrap();
    for round in 1..=64u64 {
        let p = page_of(round as u8);
        let token = store
            .persist(&mut vt, &mut disk, obj, &[(round % 16, &p)])
            .unwrap();
        ObjectStore::wait(&mut vt, token);
        store.scrub(&mut vt, &mut disk, 2).unwrap();
    }
    // Finish at least one full pass over the now-quiescent store.
    let mut guard = 0;
    while store.scrub_stats().passes == 0 {
        store.scrub(&mut vt, &mut disk, 64).unwrap();
        guard += 1;
        assert!(guard < 1000, "scrub cursor must make progress");
    }
    let stats = store.scrub_stats();
    assert!(stats.pages_verified > 0, "scrub actually verified data");
    assert_eq!(stats.corruptions_found, 0, "no false positives");
    assert_eq!(store.quarantined_blocks(), 0);
    // And every page still reads back its last-written content.
    for page in 0..16u64 {
        let want = if page == 0 { 64 } else { 48 + page } as u8;
        let mut buf = page_of(0);
        store
            .read_page(&mut vt, &mut disk, obj, page, &mut buf)
            .unwrap();
        assert_eq!(buf[0], want, "page {page}");
    }

    // With shards the cursor reaches the last one last. Rot there, under
    // writes to the first shard and two-block slices, is still found and
    // healed before the store-wide pass completes.
    for shards in [4, 8] {
        let mut disk = Disk::new(DiskConfig::paper());
        let mut store = ObjectStore::format_sharded(&mut disk, shards);
        let mut vt = Vt::new(0);
        let busy = store
            .create(&mut vt, &mut disk, &name_on_shard(&store, 0))
            .unwrap();
        let cold = store
            .create(&mut vt, &mut disk, &name_on_shard(&store, shards - 1))
            .unwrap();
        let pages: Vec<(u64, Vec<u8>)> = (0..8).map(|p| (p, page_of(0xC0 + p as u8))).collect();
        let refs: Vec<(u64, &[u8])> = pages.iter().map(|(p, d)| (*p, &d[..])).collect();
        // Two media copies of every cold page, the snapshot pinning one.
        let token = store.persist(&mut vt, &mut disk, cold, &refs).unwrap();
        ObjectStore::wait(&mut vt, token);
        store
            .snapshot_create(&mut vt, &mut disk, cold, "s")
            .unwrap();
        let token = store.persist(&mut vt, &mut disk, cold, &refs).unwrap();
        ObjectStore::wait(&mut vt, token);
        disk.settle();
        disk.corrupt_bit(live_block_of(&disk, &pages[3].1), 77, 2);
        store.drop_cache();

        let mut round = 0u64;
        while store.scrub_stats().passes == 0 {
            round += 1;
            let p = page_of((round % 64) as u8);
            let token = store
                .persist(&mut vt, &mut disk, busy, &[(round % 16, &p)])
                .unwrap();
            ObjectStore::wait(&mut vt, token);
            store.scrub(&mut vt, &mut disk, 2).unwrap();
            assert!(round < 10_000, "scrub cursor must make progress");
        }
        let stats = store.scrub_stats();
        assert_eq!(
            (stats.corruptions_found, stats.repairs, stats.unrepaired),
            (1, 1, 0),
            "{shards} shards: found and healed within one store-wide pass"
        );
        assert_eq!(store.quarantined_blocks(), 1);
        for (page, want) in &pages {
            let mut buf = page_of(0);
            store
                .read_page(&mut vt, &mut disk, cold, *page, &mut buf)
                .unwrap();
            assert_eq!(&buf, want, "{shards} shards: cold page {page}");
        }
    }
}

/// A name a store of this width places on `shard`.
fn name_on_shard(store: &ObjectStore, shard: usize) -> String {
    (0..)
        .map(|i| format!("o{i}"))
        .find(|n| store.shard_of(n) == shard)
        .unwrap()
}

#[test]
fn crash_at_every_io_during_repair_commit_is_atomic() {
    // A repair lands through the normal crash-atomic commit path. Crash
    // the device at every write boundary of the repair: recovery must
    // find either the pre-repair state (the delta whose payload rotted is
    // truncated, landing on the snapshot's clean copy) or the post-repair
    // state — and in both the page reads back clean. Never a hybrid,
    // never corrupt bytes.
    let p = page_of(9);
    let run = || {
        let mut disk = Disk::new(DiskConfig::paper());
        let mut store = ObjectStore::format(&mut disk);
        let mut vt = Vt::new(0);
        let obj = store.create(&mut vt, &mut disk, "o").unwrap();
        let token = store.persist(&mut vt, &mut disk, obj, &[(0, &p)]).unwrap();
        ObjectStore::wait(&mut vt, token);
        store.snapshot_create(&mut vt, &mut disk, obj, "s").unwrap();
        let token = store.persist(&mut vt, &mut disk, obj, &[(0, &p)]).unwrap();
        ObjectStore::wait(&mut vt, token);
        // The pre-repair state is durable; the sweep probes the repair.
        disk.settle();
        disk.corrupt_bit(live_block_of(&disk, &p), 3, 3);
        store.drop_cache();
        let mut guard = 0;
        while store.scrub_stats().passes == 0 {
            store.scrub(&mut vt, &mut disk, 64).unwrap();
            guard += 1;
            assert!(guard < 1000);
        }
        assert_eq!(store.scrub_stats().repairs, 1, "the sweep needs a repair");
        disk
    };
    let points = crash_at_every_io(run, |mut disk, at| {
        let mut vt = Vt::new(1);
        let mut store = ObjectStore::open(&mut vt, &mut disk).unwrap();
        let obj = store.lookup("o").unwrap();
        let epoch = store.epoch(obj);
        assert!(
            epoch == 1 || epoch == 2,
            "crash at {at:?}: epoch {epoch} is neither pre- nor post-repair"
        );
        let mut buf = page_of(0);
        store
            .read_page(&mut vt, &mut disk, obj, 0, &mut buf)
            .unwrap();
        assert_eq!(buf, p, "crash at {at:?}: recovered page must be clean");
    });
    assert!(points > 0, "the sweep exercised at least one boundary");
}

#[test]
fn seeded_rot_sweep_is_fully_detected_and_healed() {
    // The acceptance sweep: deterministically rot a seeded sample of
    // live data blocks, then scrub. Every injected corruption must be
    // detected; every page (all snapshot-covered here) must heal
    // byte-for-byte; nothing may be served corrupt, live or after a
    // reopen. CI runs this with the same fixed seed.
    // With shards the object sits on the last one, behind empty shards the
    // cursor crosses for free: same reads, same counts.
    for shards in [1, 4, 8] {
        seeded_rot_sweep(shards);
    }
}

fn seeded_rot_sweep(shards: usize) {
    let mut disk = Disk::new(DiskConfig::paper());
    let mut store = ObjectStore::format_sharded(&mut disk, shards);
    let mut vt = Vt::new(0);
    let name = name_on_shard(&store, shards - 1);
    let obj = store.create(&mut vt, &mut disk, &name).unwrap();
    const PAGES: u64 = 8;
    let pages: Vec<(u64, Vec<u8>)> = (0..PAGES).map(|p| (p, page_of(0x40 + p as u8))).collect();
    let refs: Vec<(u64, &[u8])> = pages.iter().map(|(p, d)| (*p, &d[..])).collect();
    let token = store.persist(&mut vt, &mut disk, obj, &refs).unwrap();
    ObjectStore::wait(&mut vt, token);
    store.snapshot_create(&mut vt, &mut disk, obj, "s").unwrap();
    // Rewrite the same contents: a second, independent media copy of
    // every page, with the snapshot pinning the first.
    let token = store.persist(&mut vt, &mut disk, obj, &refs).unwrap();
    ObjectStore::wait(&mut vt, token);
    disk.settle();

    let candidates: Vec<u64> = pages.iter().map(|(_, d)| live_block_of(&disk, d)).collect();
    let rotted = disk.seeded_rot(0xC0FFEE, &candidates, 5);
    assert_eq!(rotted.len(), 5, "the sweep injected all requested rot");

    store.drop_cache();
    let mut guard = 0;
    while store.scrub_stats().passes == 0 {
        store.scrub(&mut vt, &mut disk, 32).unwrap();
        guard += 1;
        assert!(guard < 1000, "scrub cursor must make progress");
    }
    let stats = store.scrub_stats();
    assert_eq!(
        stats.corruptions_found,
        rotted.len() as u64,
        "every injected corruption is detected"
    );
    assert_eq!(
        stats.repairs,
        rotted.len() as u64,
        "every page heals from its snapshot copy"
    );
    assert_eq!(stats.unrepaired, 0);
    assert_eq!(store.quarantined_blocks(), rotted.len());
    // Batched or not, scrub reads the same blocks: the counts the serial
    // read loops reported for this seed, plus the base images of the
    // three-node path the second commit dirtied, which the newest root
    // still names and scrub verifies like any committed node.
    assert_eq!(stats.pages_verified, 3);
    assert_eq!(stats.io_spent, 16);

    for (page, want) in &pages {
        let mut buf = page_of(0);
        store
            .read_page(&mut vt, &mut disk, obj, *page, &mut buf)
            .unwrap();
        assert_eq!(&buf, want, "page {page} healed byte-for-byte");
    }
    // The healed state survives a reopen.
    disk.settle();
    let mut vt = Vt::new(1);
    let mut store = ObjectStore::open(&mut vt, &mut disk).unwrap();
    let obj = store.lookup(&name).unwrap();
    for (page, want) in &pages {
        let mut buf = page_of(0);
        store
            .read_page(&mut vt, &mut disk, obj, *page, &mut buf)
            .unwrap();
        assert_eq!(&buf, want, "page {page} clean after reopen");
    }
}

/// Hand-builds what the retired pre-digest (v1) layout wrote for a
/// one-page object: one data block plus a three-level node path whose
/// entry words are bare block numbers (no digest halves), placed past
/// the object's metadata. Returns `(data, leaf, mid, root)` blocks.
fn write_v1_tree(
    vt: &mut Vt,
    disk: &mut Disk,
    meta_base: u64,
    content: &[u8],
) -> (u64, u64, u64, u64) {
    let base = meta_base + 64;
    let (data_b, leaf_b, mid_b, root_b) = (base, base + 1, base + 2, base + 3);
    let node_pointing_at = |child: u64| {
        let mut node = [0u8; BLOCK_SIZE];
        node[0..8].copy_from_slice(&child.to_le_bytes());
        node
    };
    for (block, img) in [
        (data_b, content),
        (leaf_b, &node_pointing_at(data_b)[..]),
        (mid_b, &node_pointing_at(leaf_b)[..]),
        (root_b, &node_pointing_at(mid_b)[..]),
    ] {
        disk.write_block(vt, block, img).unwrap();
    }
    (data_b, leaf_b, mid_b, root_b)
}

/// The `meta_base` of the store's `slot`-th object, from the on-disk
/// directory of a single-shard store (entries are 128 bytes: present
/// flag at 0, `meta_base` at bytes 9..17).
fn meta_base_of(disk: &Disk, slot: usize) -> u64 {
    let dir_block = ShardLayout::sharded(0, 1).base + 1;
    let dir = disk.peek(dir_block).expect("directory block exists");
    let e = &dir[slot * 128..(slot + 1) * 128];
    assert_eq!(e[0], 1, "directory entry present");
    u64::from_le_bytes(e[9..17].try_into().unwrap())
}

#[test]
fn v1_root_record_in_a_root_slot_is_ignored() {
    // Fail closed: a self-consistent v1 root record (the retired
    // format's own magic and checksum rule) is not a root record.
    // Recovery lands on the other slot, or the object is empty — it
    // never adopts the unverifiable tree and never panics.
    let mut disk = Disk::new(DiskConfig::paper());
    let mut store = ObjectStore::format(&mut disk);
    let mut vt = Vt::new(0);
    store.set_delta_commits(false); // epoch 1 below is a full root
    let live = store.create(&mut vt, &mut disk, "live").unwrap();
    store.create(&mut vt, &mut disk, "bare").unwrap();
    let real = page_of(0x11);
    let token = store
        .persist(&mut vt, &mut disk, live, &[(0, &real)])
        .unwrap();
    ObjectStore::wait(&mut vt, token);
    drop(store);

    const V1_ROOT_MAGIC: u64 = 0x4d534e_41505253;
    let v1_content = page_of(0xCD);
    for (slot, object, epoch) in [(0, 0u64, 8u64), (1, 1, 1)] {
        let meta_base = meta_base_of(&disk, slot);
        let (_, _, _, root_b) = write_v1_tree(&mut vt, &mut disk, meta_base, &v1_content);
        // A v1 root record: checksum over bytes 0..48 stored at 48.
        let mut rec = [0u8; BLOCK_SIZE];
        let w = |buf: &mut [u8; BLOCK_SIZE], off: usize, v: u64| {
            buf[off..off + 8].copy_from_slice(&v.to_le_bytes())
        };
        w(&mut rec, 0, V1_ROOT_MAGIC);
        w(&mut rec, 8, object);
        w(&mut rec, 16, epoch);
        w(&mut rec, 24, root_b);
        w(&mut rec, 32, 1); // len_pages
        w(&mut rec, 40, root_b + 1); // high_water
        let sum = msnap_store::fnv1a(&rec[0..48]);
        rec[48..56].copy_from_slice(&sum.to_le_bytes());
        // "live" holds its real epoch-1 root in slot 1, so the v1 record
        // (claiming a newer epoch) goes in slot 0; "bare" has no root.
        disk.write_block(&mut vt, meta_base + epoch % 2, &rec)
            .unwrap();
    }
    disk.settle();

    let mut vt = Vt::new(1);
    let mut store = ObjectStore::open(&mut vt, &mut disk).unwrap();
    let live = store.lookup("live").unwrap();
    let bare = store.lookup("bare").unwrap();
    assert_eq!(store.epoch(live), 1, "recovery lands on the other slot");
    assert_eq!(store.epoch(bare), 0, "nothing valid: the object is empty");
    let mut buf = page_of(0xFF);
    store
        .read_page(&mut vt, &mut disk, live, 0, &mut buf)
        .unwrap();
    assert_eq!(buf, real);
    store
        .read_page(&mut vt, &mut disk, bare, 0, &mut buf)
        .unwrap();
    assert_eq!(buf, page_of(0), "the v1 tree was never adopted");
}

#[test]
fn zero_digest_leaf_entry_is_corrupt_never_served() {
    // A committed leaf entry cannot opt out of verification: a tree
    // whose root record and interior nodes chain correctly but whose
    // leaf entry word has a zero digest half is corruption like any
    // other mismatch — typed error on read, counted and quarantined by
    // scrub, bytes never served.
    let mut disk = Disk::new(DiskConfig::paper());
    let mut store = ObjectStore::format(&mut disk);
    let mut vt = Vt::new(0);
    let obj = store.create(&mut vt, &mut disk, "o").unwrap();
    drop(store);

    let meta_base = meta_base_of(&disk, 0);
    let content = page_of(0xCD);
    let (data_b, leaf_b, mid_b, root_b) = write_v1_tree(&mut vt, &mut disk, meta_base, &content);
    // Re-chain the interior: mid and root carry real digests of their
    // children; only the leaf's entry for page 0 stays a bare block.
    let image = |block: u64| disk.peek(block).expect("just written").to_vec();
    let mut mid = [0u8; BLOCK_SIZE];
    mid[0..8].copy_from_slice(&pack_entry(leaf_b, digest32(&image(leaf_b))).to_le_bytes());
    let mut root = [0u8; BLOCK_SIZE];
    root[0..8].copy_from_slice(&pack_entry(mid_b, digest32(&mid)).to_le_bytes());
    let rec = RootRecord {
        object: obj,
        epoch: 1,
        tree_root: root_b,
        len_pages: 1,
        high_water: root_b + 1,
        root_digest: digest32(&root),
        flush_seq: 1,
        tip: 0,
        journal: Vec::new(),
    };
    for (block, img) in [
        (mid_b, &mid[..]),
        (root_b, &root[..]),
        (meta_base + 1, &rec.to_block()[..]),
    ] {
        disk.write_block(&mut vt, block, img).unwrap();
    }
    disk.settle();

    let mut vt = Vt::new(1);
    let mut store = ObjectStore::open(&mut vt, &mut disk).unwrap();
    let obj = store.lookup("o").unwrap();
    assert_eq!(store.epoch(obj), 1, "the well-formed root is adopted");
    let mut buf = page_of(0xFF);
    let err = store
        .read_page(&mut vt, &mut disk, obj, 0, &mut buf)
        .unwrap_err();
    assert_eq!(
        err,
        StoreError::CorruptData {
            page: 0,
            block: data_b,
            epoch: 1
        }
    );
    assert_ne!(buf, content, "unverifiable bytes are not served");
    assert_eq!(store.quarantined_blocks(), 1, "the block is quarantined");

    let mut guard = 0;
    while store.scrub_stats().passes == 0 {
        store.scrub(&mut vt, &mut disk, 64).unwrap();
        guard += 1;
        assert!(guard < 1000);
    }
    let stats = store.scrub_stats();
    assert_eq!(stats.corruptions_found, 1, "scrub counts the entry");
    assert_eq!(stats.unrepaired, 1, "no snapshot holds a clean copy");
    assert_eq!(store.unrepaired_pages().len(), 1);
}

#[test]
fn unreadable_snapshot_pages_are_typed_errors_in_open_at_and_rollback() {
    // `msnap_open_at` and `msnap_rollback` read a retained snapshot in
    // bulk chunks; a read that fails or does not verify must come back as
    // the store's typed error — never a panic — leaving `open_at` with
    // nothing mapped and `rollback` with nothing persisted, and the same
    // call must succeed once the device answers again.
    const PAGES: u64 = 5;
    let image: Vec<u8> = (0..PAGES).flat_map(|p| page_of(0xB0 + p as u8)).collect();
    // A region persisted as `image`, pinned as "s", then overwritten; the
    // block cache is dropped so every snapshot read reaches the device.
    let build = || {
        let mut ms = MemSnap::format(Disk::new(DiskConfig::paper()));
        let mut vt = Vt::new(0);
        let thread = vt.id();
        let space = ms.vm_mut().create_space();
        let r = ms.msnap_open(&mut vt, space, "data", PAGES).unwrap();
        let sel = RegionSel::Region(r.md);
        ms.write(&mut vt, space, thread, r.addr, &image).unwrap();
        ms.msnap_persist(&mut vt, thread, sel, PersistFlags::sync())
            .unwrap();
        ms.msnap_snapshot(&mut vt, r.md, "s").unwrap();
        ms.write(&mut vt, space, thread, r.addr, &vec![0x11; image.len()])
            .unwrap();
        ms.msnap_persist(&mut vt, thread, sel, PersistFlags::sync())
            .unwrap();
        ms.replication_parts().0.drop_cache();
        (ms, vt, space, r)
    };
    let fail_read = |ms: &mut MemSnap, k: u64| {
        let disk = ms.replication_parts().1;
        disk.set_read_fault_plan(ReadFaultPlan::new().at(disk.read_seq() + k, true));
    };
    let is_io = |err: &MsnapError| matches!(err, MsnapError::Store(StoreError::Io(_)));
    let mut got = vec![0u8; image.len()];

    // msnap_open_at: fail each of its block reads in turn.
    let (clean_addr, open_reads) = {
        let (mut ms, mut vt, space, _) = build();
        let seq0 = ms.disk().read_seq();
        let view = ms.msnap_open_at(&mut vt, space, "s").unwrap();
        (view.addr, ms.disk().read_seq() - seq0)
    };
    assert!(open_reads >= PAGES);
    for k in 0..open_reads {
        let (mut ms, mut vt, space, _) = build();
        fail_read(&mut ms, k);
        let err = ms.msnap_open_at(&mut vt, space, "s").unwrap_err();
        assert!(is_io(&err), "open_at read {k}: got {err:?}");
        // Nothing was mapped or reserved: the retry lands where a clean
        // first call does, with the snapshot's bytes.
        let view = ms.msnap_open_at(&mut vt, space, "s").unwrap();
        assert_eq!(view.addr, clean_addr, "open_at read {k}");
        ms.read(&mut vt, space, view.addr, &mut got).unwrap();
        assert_eq!(got, image, "open_at read {k}");
    }

    // msnap_rollback: likewise; a failed call persists nothing.
    let rollback_reads = {
        let (mut ms, mut vt, space, _) = build();
        let (seq0, thread) = (ms.disk().read_seq(), vt.id());
        ms.msnap_rollback(&mut vt, space, thread, "s").unwrap();
        ms.disk().read_seq() - seq0
    };
    assert!(rollback_reads >= PAGES);
    for k in 0..rollback_reads {
        let (mut ms, mut vt, space, r) = build();
        let thread = vt.id();
        let epoch = ms.region_epoch(r.md).unwrap();
        fail_read(&mut ms, k);
        let err = ms.msnap_rollback(&mut vt, space, thread, "s").unwrap_err();
        assert!(is_io(&err), "rollback read {k}: got {err:?}");
        assert_eq!(ms.region_epoch(r.md), Some(epoch), "nothing persisted");
        // Re-running the call finishes the job, durably.
        let rolled = ms.msnap_rollback(&mut vt, space, thread, "s").unwrap();
        assert_eq!(rolled, epoch + 1, "rollback read {k}");
        ms.read(&mut vt, space, r.addr, &mut got).unwrap();
        assert_eq!(got, image, "rollback read {k}");
        let disk = ms.crash(vt.now());
        let mut ms = MemSnap::restore(&mut vt, disk).unwrap();
        let space = ms.vm_mut().create_space();
        let r = ms.msnap_open(&mut vt, space, "data", 0).unwrap();
        ms.read(&mut vt, space, r.addr, &mut got).unwrap();
        assert_eq!(got, image, "rollback read {k}, after a crash");
    }

    // One seeded rot under the last block either call reads (a data
    // page): detected by its digest, reported, never served.
    let is_rot = |err: &MsnapError| matches!(err, MsnapError::Store(StoreError::CorruptData { page, .. }) if *page == PAGES - 1);
    let (mut ms, mut vt, space, r) = build();
    let disk = ms.replication_parts().1;
    disk.set_read_fault_plan(ReadFaultPlan::new().rot_at(disk.read_seq() + open_reads - 1, 77, 3));
    let err = ms.msnap_open_at(&mut vt, space, "s").unwrap_err();
    assert!(is_rot(&err), "open_at over rot: got {err:?}");
    let thread = vt.id();
    let epoch = ms.region_epoch(r.md);
    let err = ms.msnap_rollback(&mut vt, space, thread, "s").unwrap_err();
    assert!(is_rot(&err), "rollback over rot: got {err:?}");
    assert_eq!(ms.region_epoch(r.md), epoch, "nothing persisted");
}
