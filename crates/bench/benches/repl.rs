//! Replication costs: what a lossy link does to steady-state lag and
//! shipped bytes, and what a failover costs end to end.
//!
//! Three sweeps:
//!
//! - loss-rate sweep on a raw MemSnap primary: one replica behind a
//!   WAN-style link whose drop rate grows 0% → 30%; reports mean/max
//!   epoch lag sampled after every commit, acknowledgement latency,
//!   wire bytes (retransmissions included) vs goodput, and wall time to
//!   drain;
//! - failover: the KV driver kills a primary with one unacknowledged
//!   batch, promotes the standby, and measures promotion-to-first-read
//!   latency plus the old primary's delta-only re-sync;
//! - replicated LiteDB: read-your-writes ingest under a lag budget.
//!
//! Emits the machine-readable `BENCH_repl.json` at the workspace root.

use memsnap::{MemSnap, PersistFlags, RegionSel, PAGE_SIZE};
use msnap_bench::litedb::{run_replicated, ReplicatedConfig};
use msnap_bench::replica::throttled_tick;
use msnap_bench::skipdb::{run_replicated_kv, KvReplConfig};
use msnap_bench::{header, table, us};
use msnap_disk::{Disk, DiskConfig};
use msnap_repl::{ReplConfig, ReplEngine};
use msnap_sim::{Nanos, NetConfig, Vt};

const COMMITS: u64 = 24;
const REGION_PAGES: u64 = 8;
const LOSS_RATES: [f64; 4] = [0.0, 0.05, 0.15, 0.30];

struct LossPoint {
    loss: f64,
    mean_lag_epochs: f64,
    max_lag_epochs: u64,
    ack_lag: Nanos,
    wire_bytes: u64,
    goodput_bytes: u64,
    retransmit_frames: u64,
    subpage_frames: u64,
    saved_dedup: u64,
    saved_compress: u64,
    wall: Nanos,
}

/// One replica behind a WAN link at the given loss rate: commit
/// `COMMITS` epochs with one engine tick each, then drain. `small`
/// rewrites one 64-byte line per commit (the scattered small-write
/// shape sub-page frames exist for); otherwise each commit rewrites a
/// whole page.
fn loss_point(loss: f64, small: bool) -> LossPoint {
    let mut ms = MemSnap::format(Disk::new(DiskConfig::paper()));
    let mut vt = Vt::new(0);
    let space = ms.vm_mut().create_space();
    let r = ms.msnap_open(&mut vt, space, "data", REGION_PAGES).unwrap();
    let t = vt.id();

    let mut eng = ReplEngine::new(ReplConfig::default());
    eng.add_replica("standby", NetConfig::with_loss(9, loss))
        .unwrap();
    // Bootstrap: first image ships before the steady-state measurement.
    ms.write(&mut vt, space, t, r.addr, &[1; PAGE_SIZE])
        .unwrap();
    ms.msnap_persist(&mut vt, t, RegionSel::Region(r.md), PersistFlags::sync())
        .unwrap();
    eng.settle(&mut vt, &mut ms, Nanos::from_secs(120)).unwrap();

    let start = vt.now();
    let mut lag_sum = 0u64;
    let mut max_lag = 0u64;
    for i in 0..COMMITS {
        let page = i % REGION_PAGES;
        if small {
            let line = (i * 7) % 64;
            ms.write(
                &mut vt,
                space,
                t,
                r.addr + page * PAGE_SIZE as u64 + line * 64,
                &[2 + (i % 250) as u8; 64],
            )
            .unwrap();
        } else {
            ms.write(
                &mut vt,
                space,
                t,
                r.addr + page * PAGE_SIZE as u64,
                &[2 + (i % 250) as u8; PAGE_SIZE],
            )
            .unwrap();
        }
        ms.msnap_persist(&mut vt, t, RegionSel::Region(r.md), PersistFlags::sync())
            .unwrap();
        throttled_tick(&mut vt, &mut eng, &mut ms, |_| {});
        let lag = eng.link_metrics("standby").unwrap().lag_epochs;
        lag_sum += lag;
        max_lag = max_lag.max(lag);
    }
    assert!(eng.settle(&mut vt, &mut ms, Nanos::from_secs(600)).unwrap());

    let (down, _up) = eng.link_net_stats("standby").unwrap();
    let m = eng.link_metrics("standby").unwrap();
    let ack_lag = eng
        .link_meters("standby")
        .unwrap()
        .get("repl_ack_lag")
        .map_or(Nanos::ZERO, |s| s.mean());
    LossPoint {
        loss,
        mean_lag_epochs: lag_sum as f64 / COMMITS as f64,
        max_lag_epochs: max_lag,
        ack_lag,
        wire_bytes: down.bytes_sent,
        goodput_bytes: down.bytes_delivered,
        retransmit_frames: m.retransmit_frames,
        subpage_frames: m.subpage_frames,
        saved_dedup: m.wire_bytes_saved_dedup,
        saved_compress: m.wire_bytes_saved_compress,
        wall: vt.now() - start,
    }
}

fn loss_table(points: &[LossPoint]) {
    table(
        &[
            "loss",
            "mean lag",
            "max lag",
            "ack lag us",
            "wire KiB",
            "goodput KiB",
            "resent frames",
            "sub frames",
            "saved KiB",
            "wall ms",
        ],
        &points
            .iter()
            .map(|p| {
                vec![
                    format!("{:.0}%", p.loss * 100.0),
                    format!("{:.2}", p.mean_lag_epochs),
                    format!("{}", p.max_lag_epochs),
                    us(p.ack_lag.as_us_f64()),
                    format!("{:.1}", p.wire_bytes as f64 / 1024.0),
                    format!("{:.1}", p.goodput_bytes as f64 / 1024.0),
                    format!("{}", p.retransmit_frames),
                    format!("{}", p.subpage_frames),
                    format!("{:.1}", (p.saved_dedup + p.saved_compress) as f64 / 1024.0),
                    format!("{:.1}", p.wall.as_ns() as f64 / 1e6),
                ]
            })
            .collect::<Vec<_>>(),
    );
}

fn loss_json(points: &[LossPoint]) -> String {
    points
        .iter()
        .map(|p| {
            format!(
                "{{\"loss\":{:.2},\"mean_lag_epochs\":{:.3},\"max_lag_epochs\":{},\
                 \"ack_lag_us\":{:.3},\"wire_bytes\":{},\"goodput_bytes\":{},\
                 \"retransmit_frames\":{},\"subpage_frames\":{},\
                 \"saved_dedup\":{},\"saved_compress\":{},\"wall_ms\":{:.3}}}",
                p.loss,
                p.mean_lag_epochs,
                p.max_lag_epochs,
                p.ack_lag.as_us_f64(),
                p.wire_bytes,
                p.goodput_bytes,
                p.retransmit_frames,
                p.subpage_frames,
                p.saved_dedup,
                p.saved_compress,
                p.wall.as_ns() as f64 / 1e6,
            )
        })
        .collect::<Vec<_>>()
        .join(",\n    ")
}

fn main() {
    header(
        "Steady-state replication vs link loss",
        &format!(
            "{COMMITS} commits over an {REGION_PAGES}-page region, one \
             replica behind a 2 ms WAN link; lag sampled after every tick."
        ),
    );
    let points: Vec<LossPoint> = LOSS_RATES
        .into_iter()
        .map(|l| loss_point(l, false))
        .collect();
    loss_table(&points);

    header(
        "Small-write replication vs link loss",
        "Same sweep, but each commit rewrites one 64-byte line: \
         sub-page frames keep wire bytes proportional to bytes changed, \
         a whole ship packs into one datagram, and a Nak names exactly \
         the pieces that are missing, so only those are resent.",
    );
    let small_points: Vec<LossPoint> = LOSS_RATES
        .into_iter()
        .map(|l| loss_point(l, true))
        .collect();
    loss_table(&small_points);

    header(
        "Failover",
        "Primary killed with one unacknowledged batch; standby promoted; \
         old primary re-attaches as a replica of the new one.",
    );
    let failover = run_replicated_kv(&KvReplConfig {
        batches_before_crash: 8,
        extra_batches: 4,
        keys_per_batch: 8,
        net: NetConfig::calm(77),
        repl: ReplConfig::default(),
    });
    assert!(failover.prefix_consistent && failover.reattach_converged);
    table(
        &[
            "visible batches",
            "first read us",
            "reattach fulls",
            "reattach deltas",
        ],
        &[vec![
            format!(
                "{}/{}",
                failover.visible_batches, failover.committed_batches
            ),
            us(failover.failover_latency.as_us_f64()),
            format!("{}", failover.reattach_full_syncs),
            format!("{}", failover.reattach_delta_syncs),
        ]],
    );

    header(
        "Replicated LiteDB",
        "16 transactions against 2 replicas on a 15%-loss link with a \
         2-epoch lag budget: flow control bounds staleness.",
    );
    let litedb = run_replicated(&ReplicatedConfig {
        txns: 16,
        keys_per_txn: 8,
        replicas: 2,
        net: NetConfig::lossy(5),
        repl: ReplConfig {
            max_lag_epochs: 2,
            ..ReplConfig::default()
        },
    });
    assert!(litedb.read_your_writes && litedb.replicas_consistent);
    table(
        &["txns", "stalls", "max lag", "shipped KiB", "full", "delta"],
        &[vec![
            format!("{}", litedb.txns),
            format!("{}", litedb.throttle_stalls),
            format!("{}", litedb.max_lag_epochs),
            format!("{:.1}", litedb.bytes_shipped as f64 / 1024.0),
            format!("{}", litedb.full_syncs),
            format!("{}", litedb.delta_syncs),
        ]],
    );

    let small_section = format!("[\n    {}\n  ]", loss_json(&small_points));
    let loss_json = loss_json(&points);
    let json = format!(
        "{{\n  \"bench\": \"repl\",\n  \"commits\": {COMMITS},\n  \
         \"loss_sweep\": [\n    {loss_json}\n  ],\n  \
         \"failover\": {{\"visible_batches\":{},\"committed_batches\":{},\
         \"first_read_us\":{:.3},\"reattach_full_syncs\":{},\"reattach_delta_syncs\":{}}},\n  \
         \"litedb\": {{\"txns\":{},\"throttle_stalls\":{},\"max_lag_epochs\":{},\
         \"bytes_shipped\":{},\"full_syncs\":{},\"delta_syncs\":{}}}\n}}\n",
        failover.visible_batches,
        failover.committed_batches,
        failover.failover_latency.as_us_f64(),
        failover.reattach_full_syncs,
        failover.reattach_delta_syncs,
        litedb.txns,
        litedb.throttle_stalls,
        litedb.max_lag_epochs,
        litedb.bytes_shipped,
        litedb.full_syncs,
        litedb.delta_syncs,
    );
    let json = msnap_bench::splice_json_section(&json, "loss_sweep_small_writes", &small_section);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_repl.json");
    std::fs::write(path, &json).expect("workspace root is writable");
    println!();
    println!(
        "wrote {} + {} loss points to BENCH_repl.json",
        points.len(),
        small_points.len()
    );
}
