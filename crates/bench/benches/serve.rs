//! msnap-serve at fleet scale: ≥1000 simulated connections multiplexed
//! onto one replicated, sharded MemSnap node under two-level Zipfian
//! tenant×key skew.
//!
//! Two runs:
//!
//! - **steady**: 1024 connections, no faults — serving throughput,
//!   put/get p50/p99 round-trip latency, replica read share, and the
//!   μCheckpoint-fed notify stream volume;
//! - **failover**: the same fleet with the primary crashed mid-run and
//!   a replica promoted — pre- vs post-failover latency, sessions
//!   re-homed, and the oracle count of lost acknowledged writes (must
//!   be 0 under replicated acks).
//!
//! Emits the machine-readable `BENCH_serve.json` at the workspace root.

use msnap_bench::serve::run;
use msnap_bench::serve::{FleetConfig, RunConfig, RunReport};
use msnap_bench::{header, table, us};
use msnap_serve::ServeConfig;
use msnap_sim::{Nanos, NetConfig};

const CONNECTIONS: usize = 1024;

fn steady_fleet() -> FleetConfig {
    FleetConfig {
        clients: CONNECTIONS,
        tenants: 8,
        subscribers: 64,
        seed: 0xBE7C,
        ..FleetConfig::default()
    }
}

fn steady() -> RunReport {
    let cfg = RunConfig {
        serve: ServeConfig::default(),
        client_net: NetConfig::calm(11),
        replicas: 2,
        replica_net: NetConfig::calm(13),
        rounds: 400,
        quantum: Nanos::from_us(100),
        failover_at: None,
        drain_rounds: 400,
    };
    run(&steady_fleet(), &cfg).expect("steady serve run")
}

fn failover() -> RunReport {
    // Post-promotion the store is single-shard: the failover topology
    // keeps tenants × stripes inside its snapshot catalog budget (see
    // ServeConfig docs), and runs a primary+standby pair so only the
    // rejoining old primary consumes per-object rejoin anchors afterwards.
    let fleet = FleetConfig {
        clients: CONNECTIONS,
        tenants: 3,
        subscribers: 32,
        seed: 0xFA17,
        ..FleetConfig::default()
    };
    let cfg = RunConfig {
        serve: ServeConfig {
            stripes: 2,
            ..ServeConfig::default()
        },
        client_net: NetConfig::calm(17),
        replicas: 1,
        replica_net: NetConfig::calm(19),
        rounds: 400,
        quantum: Nanos::from_us(100),
        failover_at: Some(200),
        drain_rounds: 800,
    };
    run(&fleet, &cfg).expect("failover serve run")
}

fn kops_per_sec(ops: u64, vt: Nanos) -> f64 {
    ops as f64 / (vt.as_ns() as f64 / 1e9) / 1e3
}

fn main() {
    header(
        "msnap-serve: 1024-connection service",
        "watch streams fed by each commit's dirty-line record; puts acked after every replica applies",
    );

    let s = steady();
    let f = failover();
    let ff = f.failover.clone().expect("failover injected");

    table(
        &[
            "run", "ops", "kops/s", "put p50", "put p99", "get p50", "get p99",
        ],
        &[
            vec![
                "steady".into(),
                s.ops.to_string(),
                format!("{:.1}", kops_per_sec(s.ops, s.virtual_time)),
                us(s.put_lat.percentile(50.0).as_us_f64()),
                us(s.put_lat.percentile(99.0).as_us_f64()),
                us(s.get_lat.percentile(50.0).as_us_f64()),
                us(s.get_lat.percentile(99.0).as_us_f64()),
            ],
            vec![
                "failover".into(),
                f.ops.to_string(),
                format!("{:.1}", kops_per_sec(f.ops, f.virtual_time)),
                us(f.put_lat.percentile(50.0).as_us_f64()),
                us(f.put_lat.percentile(99.0).as_us_f64()),
                us(f.get_lat.percentile(50.0).as_us_f64()),
                us(f.get_lat.percentile(99.0).as_us_f64()),
            ],
        ],
    );
    table(
        &["failover era", "p50", "p99", "note"],
        &[
            vec![
                "pre-crash".into(),
                us(f.pre_lat.percentile(50.0).as_us_f64()),
                us(f.pre_lat.percentile(99.0).as_us_f64()),
                String::new(),
            ],
            vec![
                "post-promotion".into(),
                us(f.post_lat.percentile(50.0).as_us_f64()),
                us(f.post_lat.percentile(99.0).as_us_f64()),
                format!(
                    "{} lost acked writes, {}/{} sessions re-homed",
                    ff.lost_acked_writes, ff.reconnected_sessions, CONNECTIONS
                ),
            ],
        ],
    );
    println!(
        "  steady: {} notify bundles ({} events) over {} cuts, replica read share {:.1}%",
        s.server.notify_bundles,
        s.server.notify_events,
        s.server.cuts,
        100.0 * s.replica_reads as f64 / (s.replica_reads + s.primary_reads).max(1) as f64,
    );

    assert_eq!(ff.lost_acked_writes, 0, "acked writes lost in failover");
    assert!(f.drained, "failover fleet failed to drain");
    assert!(s.drained, "steady fleet failed to drain");

    let json = format!(
        "{{\n  \"bench\": \"serve\",\n  \"connections\": {CONNECTIONS},\n  \
         \"steady\": {{\"ops\":{},\"puts\":{},\"gets\":{},\"scans\":{},\
         \"kops_per_sec\":{:.3},\"put_p50_us\":{:.3},\"put_p99_us\":{:.3},\
         \"get_p50_us\":{:.3},\"get_p99_us\":{:.3},\"notify_bundles\":{},\
         \"notify_events\":{},\"cuts\":{},\"replica_reads\":{},\"primary_reads\":{}}},\n  \
         \"failover\": {{\"ops\":{},\"kops_per_sec\":{:.3},\
         \"pre_p50_us\":{:.3},\"pre_p99_us\":{:.3},\
         \"post_p50_us\":{:.3},\"post_p99_us\":{:.3},\
         \"lost_acked_writes\":{},\"acked_before\":{},\
         \"rehomed_subscribers\":{},\"reconnected_sessions\":{},\
         \"reconnects\":{},\"promoted\":\"{}\"}}\n}}\n",
        s.ops,
        s.puts,
        s.gets,
        s.scans,
        kops_per_sec(s.ops, s.virtual_time),
        s.put_lat.percentile(50.0).as_us_f64(),
        s.put_lat.percentile(99.0).as_us_f64(),
        s.get_lat.percentile(50.0).as_us_f64(),
        s.get_lat.percentile(99.0).as_us_f64(),
        s.server.notify_bundles,
        s.server.notify_events,
        s.server.cuts,
        s.replica_reads,
        s.primary_reads,
        f.ops,
        kops_per_sec(f.ops, f.virtual_time),
        f.pre_lat.percentile(50.0).as_us_f64(),
        f.pre_lat.percentile(99.0).as_us_f64(),
        f.post_lat.percentile(50.0).as_us_f64(),
        f.post_lat.percentile(99.0).as_us_f64(),
        ff.lost_acked_writes,
        ff.acked_before,
        ff.rehomed_subscribers,
        ff.reconnected_sessions,
        f.reconnects,
        ff.promoted,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    std::fs::write(path, &json).expect("workspace root is writable");
    println!();
    println!("wrote BENCH_serve.json");
}
