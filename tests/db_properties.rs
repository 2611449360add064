//! Property-based tests of the database case studies against reference
//! models, including crash points.

use proptest::prelude::*;

use msnap_disk::{Disk, DiskConfig};
use msnap_sim::Vt;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// LiteDB (MemSnap backend) behaves as a map under arbitrary
    /// put/delete transactions, and a post-shutdown restore preserves it
    /// exactly.
    #[test]
    fn litedb_matches_model_and_restores(
        txns in prop::collection::vec(
            prop::collection::vec((0u64..200, prop::option::of(0u8..255)), 1..6),
            1..25,
        ),
    ) {
        use msnap_litedb::{LiteDb, MemSnapBackend};

        let mut vt = Vt::new(0);
        let backend = MemSnapBackend::format_with_capacity(
            Disk::new(DiskConfig::paper()),
            "p.db",
            1 << 13,
            &mut vt,
        );
        let mut db = LiteDb::new(Box::new(backend), &mut vt);
        let table = db.create_table(&mut vt, "kv");
        let thread = vt.id();
        let mut model = std::collections::BTreeMap::new();

        for txn in &txns {
            db.begin(&mut vt, thread);
            for (key, op) in txn {
                match op {
                    Some(v) => {
                        db.put(&mut vt, thread, table, *key, &[*v; 16]);
                        model.insert(*key, *v);
                    }
                    None => {
                        let existed = db.delete(&mut vt, thread, table, *key);
                        prop_assert_eq!(existed, model.remove(key).is_some());
                    }
                }
            }
            db.commit(&mut vt, thread).unwrap();
        }

        for (key, v) in &model {
            prop_assert_eq!(db.get(&mut vt, table, *key), Some(vec![*v; 16]));
        }
        // Ordered scan agrees with the model.
        let scan: Vec<u64> = db.scan_from(&mut vt, table, 0, 500).iter().map(|(k, _)| *k).collect();
        let want: Vec<u64> = model.keys().copied().collect();
        prop_assert_eq!(scan, want);

        // Clean shutdown + restore preserves everything.
        let crash_at = vt.now();
        let backend = db
            .into_backend()
            .into_any()
            .downcast::<MemSnapBackend>()
            .expect("memsnap backend");
        let disk = backend.crash(crash_at);
        let mut vt2 = Vt::new(1);
        let restored = MemSnapBackend::restore(disk, "p.db", &mut vt2);
        let mut db2 = LiteDb::new(Box::new(restored), &mut vt2);
        let table2 = db2.create_table(&mut vt2, "kv");
        for (key, v) in &model {
            prop_assert_eq!(db2.get(&mut vt2, table2, *key), Some(vec![*v; 16]));
        }
    }

    /// The rotating (tiered) KV behaves as a map across arbitrary tier
    /// boundaries, and restores all tiers after a crash.
    #[test]
    fn rotating_kv_matches_model_across_tiers(
        puts in prop::collection::vec((0u64..100, 0u8..255), 1..120),
    ) {
        use msnap_skipdb::{Kv, RotatingMemSnapKv};

        let mut vt = Vt::new(0);
        let mut kv = RotatingMemSnapKv::format(Disk::new(DiskConfig::paper()), 48, 24, &mut vt);
        let mut model = std::collections::BTreeMap::new();
        for (key, v) in &puts {
            kv.put(&mut vt, *key, &[*v; 8]).unwrap();
            model.insert(*key, *v);
        }
        for (key, v) in &model {
            prop_assert_eq!(kv.get(&mut vt, *key), Some(vec![*v; 8]), "key {}", key);
        }
        let scan: Vec<u64> = kv.seek(&mut vt, 0, 200).iter().map(|(k, _)| *k).collect();
        let want: Vec<u64> = model.keys().copied().collect();
        prop_assert_eq!(scan, want);

        let disk = kv.crash(vt.now());
        let mut vt2 = Vt::new(1);
        let mut kv2 = RotatingMemSnapKv::restore(disk, &mut vt2);
        for (key, v) in &model {
            prop_assert_eq!(kv2.get(&mut vt2, *key), Some(vec![*v; 8]), "restored key {}", key);
        }
    }

    /// The pgdb heap engine (MemSnap variant) behaves as a map under
    /// insert/update and survives crash + index rebuild.
    #[test]
    fn pgdb_heap_matches_model(
        ops in prop::collection::vec((0u64..64, 1usize..300), 1..80),
    ) {
        use msnap_pgdb::{BlockStore, PgDb, PgTable, StoreVariant};

        let mut vt = Vt::new(0);
        let store = BlockStore::new(
            StoreVariant::MemSnap,
            Disk::new(DiskConfig::paper()),
            1,
            1,
            512,
            &mut vt,
        );
        let mut db = PgDb::new(store, 1);
        let t = vt.id();
        let table = PgTable(0);
        let mut model: std::collections::HashMap<u64, Vec<u8>> = std::collections::HashMap::new();

        for (key, len) in &ops {
            let row = vec![(key % 251) as u8 + 1; *len];
            if model.contains_key(key) {
                db.update(&mut vt, 0, t, table, *key, &row);
            } else {
                db.insert(&mut vt, 0, t, table, *key, &row);
            }
            model.insert(*key, row);
        }
        db.commit(&mut vt, 0, t);
        for (key, row) in &model {
            let got = db.read(&mut vt, 0, table, *key);
            prop_assert_eq!(got.as_ref(), Some(row));
        }

        // Crash + restore + index rebuild.
        let crash_at = vt.now();
        let disk = db.into_store().crash(crash_at);
        let mut vt2 = Vt::new(1);
        let store = BlockStore::restore(disk, 1, 1, &mut vt2);
        let mut db2 = PgDb::new(store, 1);
        db2.rebuild_index(&mut vt2, 0);
        prop_assert_eq!(db2.rows(), model.len());
        for (key, row) in &model {
            let got = db2.read(&mut vt2, 0, table, *key);
            prop_assert_eq!(got.as_ref(), Some(row));
        }
    }
}

/// A `multi_put` is one tier and one μCheckpoint: whatever the batch size
/// and wherever the rotation threshold falls inside it, every acked key
/// survives a crash taken the instant the call returned.
#[test]
fn rotating_kv_batch_straddling_a_rotation_is_durable() {
    use msnap_skipdb::{Kv, RotatingMemSnapKv};

    const ROTATE: u64 = 8;
    for prefill in 0..ROTATE {
        for batch in 2..ROTATE {
            let mut vt = Vt::new(0);
            let disk = Disk::new(DiskConfig::paper());
            let mut kv = RotatingMemSnapKv::format(disk, 48, ROTATE, &mut vt);
            for key in 0..prefill {
                kv.put(&mut vt, key, &[1; 8]).unwrap();
            }
            let pairs: Vec<(u64, Vec<u8>)> = (0..batch).map(|i| (100 + i, vec![2; 8])).collect();
            kv.multi_put(&mut vt, &pairs).unwrap();
            let rotated = kv.tiers() == 2;
            assert_eq!(
                rotated,
                1 + prefill + batch > ROTATE,
                "one rotation at most"
            );

            let disk = kv.crash(vt.now());
            let mut vt2 = Vt::new(1);
            let mut kv2 = RotatingMemSnapKv::restore(disk, &mut vt2);
            for key in (0..prefill).chain(100..100 + batch) {
                assert!(
                    kv2.get(&mut vt2, key).is_some(),
                    "acked key {key} lost (prefill {prefill}, batch {batch}, rotated {rotated})"
                );
            }
        }
    }
}

/// A device that runs out of blocks is an `Err` from `put`, not a panic
/// behind the `Result`; what was acked before it stays readable.
#[test]
fn rotating_kv_reports_a_full_device_as_an_error() {
    use memsnap::MsnapError;
    use msnap_skipdb::{Kv, KvError, RotatingMemSnapKv};
    use msnap_store::StoreError;

    let mut vt = Vt::new(0);
    let disk = Disk::new(DiskConfig::paper().with_capacity_blocks(400));
    let mut kv = RotatingMemSnapKv::format(disk, 48, 24, &mut vt);
    let mut acked = 0u64;
    let err = loop {
        match kv.put(&mut vt, acked, &[7; 8]) {
            Ok(()) => acked += 1,
            Err(e) => break e,
        }
        assert!(
            acked < 10_000,
            "400 blocks cannot hold this many node pages"
        );
    };
    assert_eq!(err, KvError(MsnapError::Store(StoreError::OutOfSpace)));
    assert!(acked > 0, "the device was sized to accept some puts");
    for key in 0..acked {
        assert_eq!(kv.get(&mut vt, key), Some(vec![7; 8]), "key {key}");
    }
}
