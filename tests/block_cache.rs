//! Fixed-seed block-cache and lazy-hydration behavior: repeated reads
//! hit the cache, reopening an untouched object does zero hydration IO,
//! and `snapshot_diff` over lazily-adopted trees skips shared subtrees
//! without hydrating them (the COW invariant compared by block number).

use msnap_disk::{Disk, DiskConfig, BLOCK_SIZE};
use msnap_sim::Vt;
use msnap_store::ObjectStore;

fn page_of(b: u8) -> Vec<u8> {
    vec![b; BLOCK_SIZE]
}

#[test]
fn repeated_reads_hit_the_cache() {
    let mut disk = Disk::new(DiskConfig::paper());
    let mut store = ObjectStore::format(&mut disk);
    let mut vt = Vt::new(0);
    let obj = store.create(&mut vt, &mut disk, "o").unwrap();
    let pages: Vec<Vec<u8>> = (0..64).map(|i| page_of(i as u8)).collect();
    let batch: Vec<(u64, &[u8])> = pages
        .iter()
        .enumerate()
        .map(|(i, p)| (i as u64, &p[..]))
        .collect();
    let token = store.persist(&mut vt, &mut disk, obj, &batch).unwrap();
    ObjectStore::wait(&mut vt, token);

    // Four passes over the working set: the first pass misses (the
    // persist path invalidates what it writes), the rest hit.
    let mut buf = page_of(0);
    for _ in 0..4 {
        for page in 0..64u64 {
            store
                .read_page(&mut vt, &mut disk, obj, page, &mut buf)
                .unwrap();
            assert_eq!(buf[0], page as u8);
        }
    }
    let stats = store.stats();
    assert!(stats.cache_hits > 0, "repeated reads must hit the cache");
    assert!(
        stats.cache_hits > stats.cache_misses,
        "a re-read working set smaller than the cache is hit-dominated: \
         {} hits vs {} misses",
        stats.cache_hits,
        stats.cache_misses
    );
}

#[test]
fn reopen_of_untouched_object_does_no_hydration_io() {
    let mut disk = Disk::new(DiskConfig::paper());
    let mut store = ObjectStore::format(&mut disk);
    let mut vt = Vt::new(0);
    let obj = store.create(&mut vt, &mut disk, "o").unwrap();
    let pages: Vec<Vec<u8>> = (0..32).map(|i| page_of(i as u8 + 1)).collect();
    let batch: Vec<(u64, &[u8])> = pages
        .iter()
        .enumerate()
        .map(|(i, p)| (i as u64, &p[..]))
        .collect();
    let token = store.persist(&mut vt, &mut disk, obj, &batch).unwrap();
    ObjectStore::wait(&mut vt, token);
    // A retained snapshot flushes the full tree, so the reopen below has
    // no delta replay to do and adopts every node cold.
    store.snapshot_create(&mut vt, &mut disk, obj, "s").unwrap();
    let epoch = store.epoch(obj);
    disk.settle();

    let mut vt2 = Vt::new(1);
    let mut store2 = ObjectStore::open(&mut vt2, &mut disk).unwrap();
    let obj2 = store2.lookup("o").unwrap();
    assert_eq!(store2.epoch(obj2), epoch, "metadata is available eagerly");
    let stats = store2.stats();
    assert_eq!(stats.hydrations, 0, "no node was demand-loaded at open");
    assert_eq!(stats.cache_misses, 0, "no cached read was issued at open");
    assert_eq!(store2.cached_blocks(), 0, "the reopened cache starts cold");

    // First touch hydrates exactly the read path, nothing more.
    let mut buf = page_of(0);
    store2
        .read_page(&mut vt2, &mut disk, obj2, 3, &mut buf)
        .unwrap();
    assert_eq!(buf[0], 4);
    let stats = store2.stats();
    assert!(stats.hydrations > 0, "first touch demand-loads the path");
    assert!(
        stats.hydrations <= 3,
        "one page touches at most one node per level, got {}",
        stats.hydrations
    );
}

#[test]
fn snapshot_diff_over_lazy_trees_skips_shared_subtrees_without_hydration() {
    let mut disk = Disk::new(DiskConfig::paper());
    let mut store = ObjectStore::format(&mut disk);
    let mut vt = Vt::new(0);
    let obj = store.create(&mut vt, &mut disk, "o").unwrap();
    // Two distant leaves: pages 0..16 live in one leaf node, page 1000
    // in another. Only the second leaf diverges between the snapshots.
    let shared: Vec<Vec<u8>> = (0..16).map(|i| page_of(i as u8 + 1)).collect();
    let mut batch: Vec<(u64, &[u8])> = shared
        .iter()
        .enumerate()
        .map(|(i, p)| (i as u64, &p[..]))
        .collect();
    let far = page_of(200);
    batch.push((1000, &far));
    let token = store.persist(&mut vt, &mut disk, obj, &batch).unwrap();
    ObjectStore::wait(&mut vt, token);
    store.snapshot_create(&mut vt, &mut disk, obj, "a").unwrap();
    let far2 = page_of(201);
    let token = store
        .persist(&mut vt, &mut disk, obj, &[(1000, &far2)])
        .unwrap();
    ObjectStore::wait(&mut vt, token);
    store.snapshot_create(&mut vt, &mut disk, obj, "b").unwrap();
    disk.settle();

    // Reopen: both snapshot trees are adopted unloaded.
    let mut vt2 = Vt::new(1);
    let mut store2 = ObjectStore::open(&mut vt2, &mut disk).unwrap();
    assert_eq!(store2.stats().hydrations, 0);

    let diff = store2
        .snapshot_diff(&mut vt2, &mut disk, Some("a"), "b")
        .unwrap();
    assert_eq!(diff, vec![1000], "only the divergent page is reported");

    // The shared leaf (pages 0..16) was skipped by comparing committed
    // block numbers, never hydrated. Each tree is root + mid + 2 leaves
    // = 4 nodes; a full walk would load all 8. The divergent path is at
    // most root + mid + leaf on each side.
    let stats = store2.stats();
    assert!(
        stats.hydrations <= 6,
        "shared subtrees must not hydrate: {} nodes loaded",
        stats.hydrations
    );
    assert!(stats.hydrations > 0, "the divergent path does hydrate");
}

#[test]
fn page_in_does_not_pollute_the_block_cache() {
    // Paging a region 8x the cache back in touches every data page
    // exactly once; admitting them would churn the CLOCK cache through
    // eight full turnovers and evict the node blocks cached on the way.
    // The bulk read admits no data pages: no eviction during page-in,
    // and the first commit afterwards finds its whole tree path resident.
    use memsnap::{MemSnap, PersistFlags, RegionSel};
    use msnap_store::DEFAULT_CACHE_BLOCKS;

    let pages = 8 * DEFAULT_CACHE_BLOCKS as u64;
    let mut ms = MemSnap::format(Disk::new(DiskConfig::paper()));
    let mut vt = Vt::new(0);
    let thread = vt.id();
    let space = ms.vm_mut().create_space();
    let r = ms.msnap_open(&mut vt, space, "big", pages).unwrap();
    let sel = RegionSel::Region(r.md);
    for page in 0..pages {
        let va = r.addr + page * BLOCK_SIZE as u64;
        ms.write(&mut vt, space, thread, va, &[page as u8 | 1; 16])
            .unwrap();
        if (page + 1) % 256 == 0 {
            ms.msnap_persist(&mut vt, thread, sel, PersistFlags::sync())
                .unwrap();
        }
    }
    let disk = ms.crash(vt.now());

    let mut vt = Vt::new(1);
    let mut ms = MemSnap::restore(&mut vt, disk).unwrap();
    let space = ms.vm_mut().create_space();
    let before = ms.store().stats();
    let reads = ms.disk().stats().reads();
    let r = ms.msnap_open(&mut vt, space, "big", 0).unwrap();
    let paged_in = ms.store().stats();
    assert_eq!(
        paged_in.cache_evictions, before.cache_evictions,
        "page-in must not evict"
    );
    assert!(
        ms.store().cached_blocks() <= 8,
        "only the tree's node blocks are cached, found {}",
        ms.store().cached_blocks()
    );
    assert!(
        ms.disk().stats().reads() - reads <= pages + 8,
        "one device block per page plus the tree's nodes"
    );
    let mut buf = [0u8; 16];
    ms.read(&mut vt, space, r.addr + 77 * BLOCK_SIZE as u64, &mut buf)
        .unwrap();
    assert_eq!(buf, [77 | 1; 16]);

    // The next commit to the region hydrates nothing further.
    ms.write(
        &mut vt,
        space,
        thread,
        r.addr + 1_000 * BLOCK_SIZE as u64,
        &[9; 16],
    )
    .unwrap();
    ms.msnap_persist(
        &mut vt,
        thread,
        RegionSel::Region(r.md),
        PersistFlags::sync(),
    )
    .unwrap();
    let committed = ms.store().stats();
    assert_eq!(committed.hydrations, paged_in.hydrations);
    assert_eq!(committed.cache_evictions, paged_in.cache_evictions);
}
