//! A served key-value store: the msnap-serve front-end driven first at
//! the wire level, then at fleet scale with a mid-run failover.
//!
//! Act one speaks the datagram protocol by hand: one writer and one
//! subscriber connect to a replicated [`ServeNode`], the subscriber
//! watches a tenant's key range, and every committed μCheckpoint epoch
//! pushes an exact changed-key invalidation bundle — fed by the
//! commit's own dirty-line record, never by diffing or scanning the
//! store.
//!
//! Act two runs the seeded oracle fleet from [`msnap_serve::harness`]:
//! 64 Zipfian clients, a primary crash mid-run, a replica promoted at a
//! cut boundary, and the oracle's verdict that no acknowledged write
//! was lost and every session re-homed.
//!
//! Run with: `cargo run --example served_kv`

use msnap_serve::harness::run;
use msnap_serve::wire::{decode_responses, encode_request};
use msnap_serve::{FleetConfig, Request, Response, RunConfig, ServeConfig, ServeNode};
use msnap_sim::{Nanos, NetConfig};

/// Advances the node `rounds` quanta, collecting every response each
/// port receives along the way.
fn pump(node: &mut ServeNode, now: &mut Nanos, rounds: u64) -> Vec<(usize, Response)> {
    let mut out = Vec::new();
    for _ in 0..rounds {
        *now += Nanos::from_us(100);
        node.step(*now).expect("node round");
        for port in 0..node.ports() {
            while let Some((_, dg)) = node.client_poll(port, *now) {
                for r in decode_responses(&dg).expect("valid datagram") {
                    out.push((port, r));
                }
            }
        }
    }
    out
}

fn main() {
    println!("== act one: the wire protocol, by hand ==");
    let cfg = ServeConfig {
        stripes: 2,
        ..ServeConfig::default()
    };
    let capacity = cfg.capacity();
    let mut node = ServeNode::format(cfg, 2, NetConfig::calm(42));
    node.add_replica("standby", NetConfig::calm(7))
        .expect("attach standby");
    let mut now = Nanos::ZERO;

    // Both connections say Hello; the writer is port 0, the watcher 1.
    for port in 0..2 {
        let dg = encode_request(&Request::Hello { staleness: 2 });
        node.client_send(port, now, dg);
    }
    let mut sessions = [0u64; 2];
    for (port, resp) in pump(&mut node, &mut now, 40) {
        if let Response::HelloOk { session, .. } = resp {
            sessions[port] = session;
        }
    }
    assert!(sessions[0] != 0 && sessions[1] != 0, "sessions granted");
    println!("two sessions open; tenant capacity is {capacity} keys");

    // The watcher subscribes to the low half of tenant "inventory".
    node.client_send(
        1,
        now,
        encode_request(&Request::Subscribe {
            session: sessions[1],
            req: 1,
            tenant: "inventory".into(),
            lo: 0,
            hi: capacity / 2,
        }),
    );
    pump(&mut node, &mut now, 40);

    // The writer puts three keys: two inside the watch window, one out.
    for (req, key) in [(1u64, 3u64), (2, 9), (3, capacity - 1)] {
        node.client_send(
            0,
            now,
            encode_request(&Request::Put {
                session: sessions[0],
                req,
                tenant: "inventory".into(),
                key,
                value: format!("item-{key}").into_bytes(),
            }),
        );
    }
    let mut acked = 0;
    let mut events = Vec::new();
    let mut seen_cuts = std::collections::BTreeSet::new();
    for (port, resp) in pump(&mut node, &mut now, 400) {
        match resp {
            Response::PutOk { epoch, .. } if port == 0 => {
                acked += 1;
                println!("  put acked in epoch {epoch} (durable + replica-applied)");
            }
            Response::Notify {
                cut_seq,
                events: ev,
                ..
            } if port == 1 => {
                // Bundles are retransmitted until acked (at-least-once
                // on the wire); a client dedups by cut sequence and
                // acks cumulatively.
                node.client_send(
                    1,
                    now,
                    encode_request(&Request::NotifyAck {
                        session: sessions[1],
                        cut_seq,
                    }),
                );
                if seen_cuts.insert(cut_seq) {
                    events.extend(ev);
                }
            }
            _ => {}
        }
    }
    assert_eq!(acked, 3, "all puts acknowledged");
    let invalidated: Vec<(u64, u64)> = events.iter().flat_map(|e| e.ranges.clone()).collect();
    println!("watch events: {events:?}");
    assert!(
        invalidated.iter().any(|&(lo, hi)| lo <= 3 && 3 < hi),
        "key 3 invalidated"
    );
    assert!(
        invalidated.iter().any(|&(lo, hi)| lo <= 9 && 9 < hi),
        "key 9 invalidated"
    );
    assert!(
        invalidated.iter().all(|&(_, hi)| hi <= capacity / 2),
        "nothing outside the watch window leaks in"
    );
    println!(
        "subscriber saw {} invalidation event(s), clipped to its window, \
         pushed at cut boundaries ✓",
        events.len()
    );

    // A read after the invalidation: the value is there, and bounded
    // staleness lets the standby serve it.
    node.client_send(
        1,
        now,
        encode_request(&Request::Get {
            session: sessions[1],
            req: 2,
            tenant: "inventory".into(),
            key: 3,
        }),
    );
    let mut got = None;
    for (port, resp) in pump(&mut node, &mut now, 100) {
        if let Response::GetOk {
            value,
            from_replica,
            ..
        } = resp
        {
            if port == 1 {
                got = Some((value, from_replica));
            }
        }
    }
    let (value, replica) = got.expect("get answered");
    assert_eq!(value.as_deref(), Some(&b"item-3"[..]));
    println!(
        "read of key 3 → {:?} (served by {}) ✓",
        String::from_utf8_lossy(value.as_deref().unwrap_or_default()),
        if replica { "a replica" } else { "the primary" },
    );

    println!("\n== act two: a 64-client fleet with a mid-run failover ==");
    // Post-promotion the store is single-shard: 2 tenants x 2 stripes
    // keeps both rejoining links' rejoin anchors inside its snapshot
    // catalog budget (see the ServeConfig docs).
    let fleet = FleetConfig {
        clients: 64,
        tenants: 2,
        subscribers: 8,
        seed: 0xEA7,
        ..FleetConfig::default()
    };
    let run_cfg = RunConfig {
        serve: ServeConfig {
            stripes: 2,
            ..ServeConfig::default()
        },
        client_net: NetConfig::calm(3),
        replicas: 2,
        replica_net: NetConfig::calm(5),
        rounds: 300,
        quantum: Nanos::from_us(100),
        failover_at: Some(150),
        drain_rounds: 900,
    };
    let report = run(&fleet, &run_cfg).expect("fleet run");
    let f = report.failover.as_ref().expect("failover injected");
    println!(
        "{} ops ({} puts / {} gets / {} scans) over {} of virtual time",
        report.ops, report.puts, report.gets, report.scans, report.virtual_time,
    );
    println!(
        "crash at {}: promoted {}, {} acked puts before it, {} lost",
        f.at, f.promoted, f.acked_before, f.lost_acked_writes,
    );
    println!(
        "{}/{} sessions re-homed, {}/{} watches re-established",
        f.reconnected_sessions, fleet.clients, f.rehomed_subscribers, fleet.subscribers,
    );
    assert_eq!(f.lost_acked_writes, 0, "replicated acks survive failover");
    assert_eq!(f.reconnected_sessions, fleet.clients);
    assert_eq!(f.rehomed_subscribers, fleet.subscribers);
    assert!(report.drained);
    println!("no acknowledged write lost; every client found the new primary ✓");
}
