//! Sharded-store integration properties (DESIGN.md §6h): equivalence of
//! sharded `persist_batch` with single-shard serial execution, the
//! crash-sweep vector-cut invariant, and promotion-at-cut-boundary
//! under a 30%-loss link.

use std::collections::BTreeMap;

use proptest::prelude::*;

use memsnap::{MemSnap, PersistFlags, RegionSel, PAGE_SIZE};
use msnap_disk::{crash_at_every_io, Disk, DiskConfig, BLOCK_SIZE};
use msnap_repl::{ReplConfig, ReplEngine};
use msnap_sim::{Nanos, NetConfig, Vt};
use msnap_store::{Epoch, ObjectId, ObjectStore};

const OBJECTS: usize = 5;

fn object_names() -> Vec<String> {
    (0..OBJECTS).map(|k| format!("obj-{k}")).collect()
}

// ---- Sharded batches ≅ single-shard serial execution -------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Fanning a batch out across N shards commits exactly the bytes a
    /// single-shard store commits when the same groups run serially:
    /// identical epochs, lengths, and page images for every object,
    /// for any shard count and any interleaving of batches.
    #[test]
    #[allow(clippy::type_complexity)]
    fn sharded_persist_batch_matches_single_shard_serial(
        shards in 1usize..=8,
        raw_batches in prop::collection::vec(
            prop::collection::vec(
                (0usize..OBJECTS, prop::collection::vec((0u64..12, any::<u8>()), 1..3)),
                1..4,
            ),
            1..6,
        ),
    ) {
        // Fold each raw batch into a map: one group per object (batches
        // never name the same object twice), deterministic order.
        let batches: Vec<BTreeMap<usize, Vec<(u64, u8)>>> = raw_batches
            .iter()
            .map(|groups| groups.iter().cloned().collect())
            .collect();
        let names = object_names();

        let mut vt_a = Vt::new(0);
        let mut disk_a = Disk::new(DiskConfig::fast());
        let mut sharded = ObjectStore::format_sharded(&mut disk_a, shards);
        let ids_a: Vec<ObjectId> = names
            .iter()
            .map(|n| sharded.create(&mut vt_a, &mut disk_a, n).unwrap())
            .collect();

        let mut vt_b = Vt::new(0);
        let mut disk_b = Disk::new(DiskConfig::fast());
        let mut single = ObjectStore::format(&mut disk_b);
        let ids_b: Vec<ObjectId> = names
            .iter()
            .map(|n| single.create(&mut vt_b, &mut disk_b, n).unwrap())
            .collect();

        for batch in &batches {
            // Materialize page images once; both stores see identical groups.
            let mat: Vec<(usize, Vec<(u64, Vec<u8>)>)> = batch
                .iter()
                .map(|(&k, pages)| {
                    let imgs = pages
                        .iter()
                        .map(|&(p, fill)| (p, vec![fill; BLOCK_SIZE]))
                        .collect();
                    (k, imgs)
                })
                .collect();
            let refs: Vec<Vec<(u64, &[u8])>> = mat
                .iter()
                .map(|(_, pages)| pages.iter().map(|(p, img)| (*p, img.as_slice())).collect())
                .collect();

            let groups: Vec<(ObjectId, &[(u64, &[u8])])> = mat
                .iter()
                .zip(&refs)
                .map(|((k, _), r)| (ids_a[*k], r.as_slice()))
                .collect();
            for token in sharded.persist_batch(&mut vt_a, &mut disk_a, &groups).unwrap() {
                ObjectStore::wait(&mut vt_a, token);
            }

            for ((k, _), r) in mat.iter().zip(&refs) {
                let token = single
                    .persist(&mut vt_b, &mut disk_b, ids_b[*k], r.as_slice())
                    .unwrap();
                ObjectStore::wait(&mut vt_b, token);
            }
        }

        for k in 0..OBJECTS {
            prop_assert_eq!(sharded.epoch(ids_a[k]), single.epoch(ids_b[k]));
            prop_assert_eq!(sharded.len_pages(ids_a[k]), single.len_pages(ids_b[k]));
            let mut pa = [0u8; BLOCK_SIZE];
            let mut pb = [0u8; BLOCK_SIZE];
            for page in 0..sharded.len_pages(ids_a[k]) {
                sharded
                    .read_page(&mut vt_a, &mut disk_a, ids_a[k], page, &mut pa)
                    .unwrap();
                single
                    .read_page(&mut vt_b, &mut disk_b, ids_b[k], page, &mut pb)
                    .unwrap();
                prop_assert_eq!(
                    &pa[..],
                    &pb[..],
                    "object {} page {} diverges at {} shards",
                    k,
                    page,
                    shards
                );
            }
        }
    }
}

// ---- Crash sweep: recovery always lands on a complete vector cut -------

/// Power-fail a sharded workload on both sides of every device-write
/// completion. Whatever the crash point, `open` must adopt a durable
/// vector cut that is complete under the recovered per-shard epoch sums —
/// never a cut naming epochs the crash rolled back.
#[test]
fn crash_sweep_always_recovers_a_complete_vector_cut() {
    const SHARDS: usize = 3;
    let boundaries = crash_at_every_io(
        || {
            let mut vt = Vt::new(0);
            let mut disk = Disk::new(DiskConfig::fast());
            let mut store = ObjectStore::format_sharded(&mut disk, SHARDS);
            let ids: Vec<ObjectId> = (0..SHARDS)
                .map(|k| {
                    store
                        .create(&mut vt, &mut disk, &format!("obj-{k}"))
                        .unwrap()
                })
                .collect();
            for round in 0..2u64 {
                for (k, &id) in ids.iter().enumerate() {
                    let fill = [(1 + round * 3 + k as u64) as u8; BLOCK_SIZE];
                    let token = store
                        .persist(&mut vt, &mut disk, id, &[(0, &fill[..])])
                        .unwrap();
                    ObjectStore::wait(&mut vt, token);
                }
                store.cut(&mut vt, &mut disk).unwrap();
            }
            disk
        },
        |mut disk, at| {
            let mut vt = Vt::new(1);
            // `format_sharded` settles the device, so the superblock, the
            // genesis cut, and every slab survive all sweep points: open
            // must always succeed, and a durable cut must always exist.
            let store = ObjectStore::open(&mut vt, &mut disk)
                .unwrap_or_else(|e| panic!("open failed after crash at {at:?}: {e:?}"));
            assert_eq!(store.shard_count(), SHARDS, "crash at {at:?}");
            let cut = store
                .last_cut()
                .unwrap_or_else(|| panic!("no durable cut after crash at {at:?}"));
            assert_eq!(cut.epochs.len(), SHARDS, "crash at {at:?}");
            assert!(
                cut.seq <= 2,
                "crash at {at:?}: impossible cut seq {}",
                cut.seq
            );
            assert!(
                cut.complete_under(&store.epoch_vector()),
                "crash at {at:?}: adopted cut {:?} names epochs beyond the \
                 recovered sums {:?}",
                cut,
                store.epoch_vector()
            );
        },
    );
    assert!(boundaries > 20, "sweep degenerated to {boundaries} points");
}

// ---- Sharded replication under 30% loss --------------------------------

/// Fixed-seed sharded replication over a link dropping 30% of frames:
/// every cut the replica adopts is one the primary actually stamped
/// (same seq, same epoch vector), and promotion names a stamped vector
/// cut — the replica promotes only at vector-cut boundaries.
#[test]
fn seed_sharded_replica_promotes_only_at_vector_cut_boundaries() {
    const SHARDS: usize = 4;
    const PAGES: u64 = 4;
    let mut ms = MemSnap::format_sharded(Disk::new(DiskConfig::paper()), SHARDS);
    let mut vt = Vt::new(0);
    let space = ms.vm_mut().create_space();
    let alpha = ms.msnap_open(&mut vt, space, "alpha", PAGES).unwrap();
    let beta = ms.msnap_open(&mut vt, space, "beta", PAGES).unwrap();

    let mut eng = ReplEngine::new(ReplConfig::default());
    let net = NetConfig {
        drop_rate: 0.30,
        ..NetConfig::lossy(777)
    };
    eng.add_replica("standby", net).unwrap();

    // Golden map: every vector cut the primary stamped, by sequence.
    let mut golden: BTreeMap<u64, Vec<Epoch>> = BTreeMap::new();
    if let Some(c) = ms.last_cut() {
        golden.insert(c.seq, c.epochs.clone());
    }
    for i in 0..8u64 {
        for (r, salt) in [(alpha, 1u64), (beta, 2)] {
            let fill = [(1 + (salt * 40 + i) % 250) as u8; PAGE_SIZE];
            let t = vt.id();
            ms.write(
                &mut vt,
                space,
                t,
                r.addr + (i % PAGES) * PAGE_SIZE as u64,
                &fill,
            )
            .unwrap();
            ms.msnap_persist(&mut vt, t, RegionSel::Region(r.md), PersistFlags::sync())
                .unwrap();
        }
        let cut = ms.msnap_cut(&mut vt).unwrap();
        golden.insert(cut.seq, cut.epochs.clone());
        eng.tick(&mut vt, &mut ms).unwrap();
        eng.pump();
        // Whatever the loss pattern, an adopted cut is always a stamped one.
        if let Some(c) = eng.replica("standby").unwrap().cut() {
            assert_eq!(
                golden.get(&c.seq),
                Some(&c.epochs),
                "after commit {i} the replica adopted a cut the primary never stamped"
            );
        }
    }

    // Drain the link: retransmits push every frame and the newest cut
    // announcement through the 30% loss.
    assert!(eng.settle(&mut vt, &mut ms, Nanos::from_secs(30)).unwrap());
    for _ in 0..50 {
        vt.advance(Nanos::from_ms(5));
        eng.tick(&mut vt, &mut ms).unwrap();
        eng.pump();
    }

    let newest = *golden.keys().next_back().unwrap();
    let adopted = eng
        .replica("standby")
        .unwrap()
        .cut()
        .cloned()
        .expect("a fully caught-up replica has adopted a cut");
    assert_eq!(
        adopted.seq, newest,
        "the converged replica holds the newest cut"
    );
    assert_eq!(golden[&adopted.seq], adopted.epochs);

    let promo = eng.promote("standby").unwrap();
    let cut = promo.cut.clone().expect("promotion names a vector cut");
    assert_eq!(
        golden.get(&cut.seq),
        Some(&cut.epochs),
        "promotion landed between vector-cut boundaries"
    );
    assert!(cut.seq >= adopted.seq);
}
