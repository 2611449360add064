//! What the replicated drivers share: the flow-controlled tick and the
//! byte-for-byte replica check.

use memsnap::{MemSnap, PAGE_SIZE};
use msnap_repl::ReplEngine;
use msnap_sim::Vt;

/// One engine tick under lag-driven flow control. While a link is over
/// its lag budget, ingest stalls half a retransmit timeout and ticks
/// again, bounding replica staleness until acks drain the backlog.
/// `after_first` sees the engine right after the first tick. Returns the
/// stalls.
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
        vt.advance(eng.config().retransmit_timeout / 2);
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

#[cfg(test)]
mod tests {
    use msnap_repl::ReplConfig;
    use msnap_sim::{Nanos, NetConfig};

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
            repl: ReplConfig {
                max_lag_epochs: 2,
                ..Default::default()
            },
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
}
