//! End-to-end tests of the msnap-serve network front-end: watch-stream
//! exactness under arbitrary fleet shapes, and a lossy-network failover
//! soak where no acknowledged write may be lost.

use proptest::prelude::*;

use msnap_bench::serve::run;
use msnap_bench::serve::{FleetConfig, RunConfig};
use msnap_serve::ServeConfig;
use msnap_sim::{Nanos, NetConfig};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Subscribers receive *exactly* the changed-key ranges of each
    /// committed epoch in their watch window — no duplicates, no
    /// misses — and notify bundles arrive cut-aligned (the chain of
    /// `prev_seq` links never breaks), across arbitrary fleet shapes
    /// and seeds on calm networks.
    #[test]
    fn watch_streams_are_exact_per_epoch(
        seed in 0u64..1 << 32,
        clients in 6usize..16,
        tenants in 2usize..5,
        subscribers in 2usize..6,
        put_ratio in 0.3f64..0.7,
    ) {
        let fleet = FleetConfig {
            clients,
            tenants,
            subscribers: subscribers.min(clients),
            put_ratio,
            seed,
            ..FleetConfig::default()
        };
        let cfg = RunConfig {
            serve: ServeConfig {
                stripes: 2,
                ..ServeConfig::default()
            },
            client_net: NetConfig::calm(seed ^ 0xC1),
            replicas: 1,
            replica_net: NetConfig::calm(seed ^ 0x51),
            rounds: 140,
            drain_rounds: 500,
            ..RunConfig::default()
        };
        let report = run(&fleet, &cfg).unwrap();
        prop_assert!(report.drained, "fleet did not drain");
        prop_assert!(report.puts > 0, "no puts issued");
        prop_assert!(report.server.cuts > 0, "no cuts stamped");
        prop_assert!(report.bundles_processed > 0, "no notify bundles");
        prop_assert_eq!(report.watch_violations, 0, "watch exactness");
        prop_assert_eq!(report.chain_violations, 0, "cut chain order");
    }
}

/// Fixed-seed soak: a lossy, reordering client network (2 ms latency,
/// 15% drop) with a mid-run primary crash and promotion. Every
/// acknowledged write must survive the failover, every session must
/// re-home to the promoted node, and the notify chain must stay
/// monotone through retransmits and duplicate bundles.
#[test]
fn lossy_failover_soak_loses_nothing_and_rehomes_all() {
    let fleet = FleetConfig {
        clients: 10,
        tenants: 3,
        subscribers: 4,
        seed: 0x50_AC,
        request_timeout: Nanos::from_ms(12),
        max_retries: 10,
        ..FleetConfig::default()
    };
    let cfg = RunConfig {
        // Single-shard after promotion: keep tenants × stripes small
        // enough for the snapshot catalog (see ServeConfig docs).
        serve: ServeConfig {
            stripes: 2,
            ..ServeConfig::default()
        },
        client_net: NetConfig::lossy(0x000B_AD11),
        replicas: 2,
        replica_net: NetConfig::calm(0x0DD),
        rounds: 280,
        quantum: Nanos::from_us(100),
        failover_at: Some(140),
        drain_rounds: 1600,
    };
    let report = run(&fleet, &cfg).expect("soak run failed");
    let f = report.failover.as_ref().expect("failover did not happen");
    assert!(f.acked_before > 0, "no acked writes before the crash");
    assert_eq!(f.lost_acked_writes, 0, "acked writes lost: {f:?}");
    assert_eq!(f.rehomed_subscribers, 4, "subscribers re-homed: {f:?}");
    assert_eq!(f.reconnected_sessions, 10, "sessions re-homed: {f:?}");
    assert!(report.drained, "fleet did not drain after failover");
    assert_eq!(report.chain_violations, 0, "notify chain broke");
    assert!(report.post_lat.count() > 0, "no post-failover ops");
    assert!(report.reconnects > 0, "lossy run saw no reconnects");
}
