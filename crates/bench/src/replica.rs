//! What the replicated drivers share: the flow-controlled tick, the
//! byte-for-byte replica check, and the one-call snapshot sync the
//! online-backup driver and the `snapshot` bench ship with.

use memsnap::{MemSnap, PAGE_SIZE};
use msnap_disk::Disk;
use msnap_repl::ReplEngine;
use msnap_sim::{Nanos, Vt};
use msnap_snap::{retained_at, ApplySession, DeltaStream, SnapError};
use msnap_store::{Epoch, ObjectStore, StoreError};

/// How long ingest stalls before ticking again while a link is over its
/// lag budget: half the engine's retransmit timeout.
const STALL: Nanos = Nanos::from_ms(10);

/// One engine tick under lag-driven flow control. While a link is over
/// its lag budget, ingest stalls `STALL` (10 ms) and ticks again, bounding
/// replica staleness until acks drain the backlog. `after_first` sees
/// the engine right after the first tick. Returns the stalls.
pub fn throttled_tick(
    vt: &mut Vt,
    eng: &mut ReplEngine,
    ms: &mut MemSnap,
    after_first: impl FnOnce(&ReplEngine),
) -> u64 {
    let mut tick = eng
        .tick(vt, ms)
        .expect("the replication workload runs without fault injection");
    after_first(eng);
    let mut stalls = 0;
    while tick.throttled {
        stalls += 1;
        vt.advance(STALL);
        tick = eng
            .tick(vt, ms)
            .expect("the replication workload runs without fault injection");
    }
    stalls
}

/// Whether every named replica of `eng` holds the primary's final
/// committed image of `region` byte for byte, at its epoch. Pins the
/// object as a snapshot, lists its pages (its diff against nothing),
/// compares each primary page with the replica's, then deletes the pin.
pub(crate) fn replicas_match(
    vt: &mut Vt,
    ms: &mut MemSnap,
    eng: &mut ReplEngine,
    region: &str,
    replicas: &[impl AsRef<str>],
) -> bool {
    const PIN: &str = "final";
    let md = ms.region(region).expect("the region exists");
    let object = ms
        .region_object_name(md)
        .expect("the region exists")
        .to_string();
    let live = ms.object_epoch(&object).expect("the object exists");
    ms.msnap_snapshot_object(vt, &object, PIN)
        .expect("the replication workload runs without fault injection");
    let (store, pdisk) = ms.replication_parts();
    let pages = store
        .snapshot_diff(vt, pdisk, None, PIN)
        .expect("the snapshot is retained");
    let mut matched = true;
    let mut want = vec![0u8; PAGE_SIZE];
    let mut got = vec![0u8; PAGE_SIZE];
    for name in replicas {
        let name = name.as_ref();
        matched &= eng.replica(name).expect("replica exists").epoch(&object) == live;
        for &page in &pages {
            let (store, pdisk) = ms.replication_parts();
            store
                .read_page_at(vt, pdisk, PIN, page, &mut want)
                .expect("the snapshot is retained");
            eng.replica_mut(name)
                .expect("replica exists")
                .read_page(&object, page, &mut got)
                .expect("the replica was synced");
            matched &= want == got;
        }
    }
    ms.msnap_snapshot_delete(vt, PIN)
        .expect("the snapshot is retained");
    matched
}

/// Outcome of one [`sync_to`] catch-up round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncReport {
    /// Epoch the replica landed at.
    pub target_epoch: Epoch,
    /// Pages shipped.
    pub pages: u64,
    /// Wire bytes of the stream.
    pub bytes: u64,
    /// Whether the round fell back to a full image (no usable base).
    pub full_sync: bool,
}

/// Ships the retained snapshot `target` from the primary to the replica:
/// incrementally when the primary still retains a snapshot at exactly
/// the replica's epoch (the delta base), as a full image otherwise —
/// the base-epoch-gone fallback. The built stream lands through
/// [`ApplySession::finish`], which checks every frame's checksum and the
/// trailer's binding on every sync.
///
/// # Errors
///
/// [`SnapError::AlreadyCurrent`] if the replica is at or past the
/// target, or any build/apply error. A failed apply leaves the replica
/// at its previous epoch; the call may simply be retried.
pub fn sync_to(
    vt: &mut Vt,
    primary: &mut ObjectStore,
    primary_disk: &mut Disk,
    replica: &mut ObjectStore,
    replica_disk: &mut Disk,
    target: &str,
) -> Result<SyncReport, SnapError> {
    let entry = primary
        .snapshot_lookup(target)
        .ok_or(StoreError::SnapshotNotFound)?
        .clone();
    let object_name = primary
        .object_name(entry.object)
        .ok_or(StoreError::NotFound)?;
    let replica_epoch = replica
        .lookup(&object_name)
        .map_or(0, |id| replica.epoch(id));
    if replica_epoch >= entry.epoch {
        return Err(SnapError::AlreadyCurrent);
    }
    // A delta needs a retained base at exactly the replica's epoch; when
    // reclamation (snapshot_delete) has dropped it, fall back to full.
    let base = retained_at(primary, entry.object, replica_epoch);
    let stream = DeltaStream::build(vt, primary_disk, primary, base.as_deref(), target, None)?;
    let session = ApplySession::begin(vt, replica_disk, replica, &stream.header)?;
    let frames = stream.frames.iter();
    let token = session.finish(vt, replica_disk, replica, frames, &stream.trailer, None)?;
    ObjectStore::wait(vt, token);
    Ok(SyncReport {
        target_epoch: token.epoch,
        pages: stream.trailer.frames,
        bytes: stream.encoded_len() as u64,
        full_sync: base.is_none(),
    })
}

#[cfg(test)]
mod tests {
    use msnap_disk::DiskConfig;
    use msnap_repl::ReplConfig;
    use msnap_sim::{Nanos, NetConfig};

    use super::*;
    use crate::litedb::{run_replicated, ReplicatedConfig};
    use crate::skipdb::{run_replicated_kv, KvReplConfig};

    /// On calm links both replicated drivers converge byte for byte and
    /// ship deltas, not images, in steady state.
    #[test]
    fn replicated_drivers_converge_shipping_deltas() {
        let lite = run_replicated(&ReplicatedConfig {
            txns: 12,
            keys_per_txn: 4,
            replicas: 2,
            net: NetConfig::calm(11),
            repl: ReplConfig::default(),
        });
        let kv = run_replicated_kv(&KvReplConfig {
            batches_before_crash: 6,
            extra_batches: 4,
            keys_per_batch: 8,
            net: NetConfig::calm(23),
            repl: ReplConfig::default(),
        });
        for (db, converged, delta_syncs) in [
            ("litedb", lite.replicas_consistent, lite.delta_syncs),
            ("skipdb", kv.reattach_converged, kv.reattach_delta_syncs),
        ] {
            assert!(converged, "{db}: replicas must converge to the primary");
            assert!(delta_syncs > 0, "{db}: steady state ships deltas");
        }
        assert_eq!(lite.txns, 12);
        assert!(
            lite.read_your_writes,
            "primary reads never wait on the links"
        );
        assert!(lite.bytes_shipped > 0);
        assert_eq!(kv.visible_batches, 6, "settled batches all survive");
        assert!(
            kv.prefix_consistent,
            "failover must surface an exact committed batch prefix: {kv:?}"
        );
        assert!(kv.failover_latency > Nanos::ZERO);
        assert_eq!(kv.final_len, (6 + 4) * 8);
    }

    /// Over a lossy link both replicated drivers still converge; LiteDB's
    /// tight lag budget trips flow control on the way.
    #[test]
    fn replicated_drivers_converge_over_a_lossy_link() {
        let lite = run_replicated(&ReplicatedConfig {
            txns: 16,
            keys_per_txn: 8,
            replicas: 1,
            net: NetConfig::lossy(5),
            repl: ReplConfig { max_lag_epochs: 2 },
        });
        let kv = run_replicated_kv(&KvReplConfig {
            batches_before_crash: 4,
            extra_batches: 2,
            keys_per_batch: 4,
            net: NetConfig::lossy(31),
            repl: ReplConfig::default(),
        });
        for (db, converged) in [
            ("litedb", lite.replicas_consistent),
            ("skipdb", kv.reattach_converged),
        ] {
            assert!(converged, "{db}: replicas must converge to the primary");
        }
        assert!(
            lite.throttle_stalls > 0,
            "a lossy link must trip flow control"
        );
        assert!(lite.read_your_writes);
        assert!(kv.prefix_consistent, "{kv:?}");
    }

    fn page_of(byte: u8) -> Vec<u8> {
        vec![byte; PAGE_SIZE]
    }

    #[test]
    fn sync_to_uses_delta_when_base_is_retained_and_full_otherwise() {
        // Object "db": five pages under snapshot "a", pages 1 and 3
        // rewritten under snapshot "b".
        let mut disk = Disk::new(DiskConfig::paper());
        let mut store = ObjectStore::format(&mut disk);
        let mut vt = Vt::new(0);
        let obj = store.create(&mut vt, &mut disk, "db").unwrap();
        for (pages, fill, snap) in [(&[0u64, 1, 2, 3, 4][..], 0x10, "a"), (&[1, 3], 0x90, "b")] {
            for &i in pages {
                let p = page_of(fill + i as u8);
                let t = store.persist(&mut vt, &mut disk, obj, &[(i, &p)]).unwrap();
                ObjectStore::wait(&mut vt, t);
            }
            store
                .snapshot_create(&mut vt, &mut disk, obj, snap)
                .unwrap();
        }
        let mut rdisk = Disk::new(DiskConfig::paper());
        let mut replica = ObjectStore::format(&mut rdisk);
        let mut sync = |vt: &mut Vt, store: &mut ObjectStore, disk: &mut Disk, target: &str| {
            sync_to(vt, store, disk, &mut replica, &mut rdisk, target)
        };

        // First round: replica at epoch 0, no base retained → full sync.
        let r1 = sync(&mut vt, &mut store, &mut disk, "a").unwrap();
        assert!(r1.full_sync);
        assert_eq!(r1.pages, 5);

        // Second round: replica sits exactly at snapshot "a" → delta.
        let r2 = sync(&mut vt, &mut store, &mut disk, "b").unwrap();
        assert!(!r2.full_sync);
        assert_eq!(r2.pages, 2, "only the changed pages ship");
        assert!(r2.bytes < r1.bytes);
        assert_eq!(r2.target_epoch, store.snapshot_lookup("b").unwrap().epoch);

        // Already-current replica refuses the round.
        assert_eq!(
            sync(&mut vt, &mut store, &mut disk, "b").unwrap_err(),
            SnapError::AlreadyCurrent
        );

        // Base gone (snapshot deleted on the primary): advance the
        // primary, snapshot again, delete "b" — the replica at "b" must
        // fall back to a full image for "c".
        let p = page_of(0xEE);
        let t = store.persist(&mut vt, &mut disk, obj, &[(0, &p)]).unwrap();
        ObjectStore::wait(&mut vt, t);
        store.snapshot_create(&mut vt, &mut disk, obj, "c").unwrap();
        store.snapshot_delete(&mut vt, &mut disk, "b").unwrap();
        let r3 = sync(&mut vt, &mut store, &mut disk, "c").unwrap();
        assert!(r3.full_sync, "missing base epoch must fall back to full");

        // Replica image equals the target snapshot byte-for-byte.
        let robj = replica.lookup("db").unwrap();
        assert_eq!(replica.epoch(robj), r3.target_epoch);
        let (mut want, mut got) = (page_of(0), page_of(0));
        for page in 0..5u64 {
            store
                .read_page_at(&mut vt, &mut disk, "c", page, &mut want)
                .unwrap();
            replica
                .read_page(&mut vt, &mut rdisk, robj, page, &mut got)
                .unwrap();
            assert_eq!(got, want, "replica page {page} diverges");
        }
    }
}
