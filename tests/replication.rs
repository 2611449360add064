//! End-to-end replication tests: three fixed network seeds (calm, lossy,
//! partition-heavy), a failover sweep that kills the primary after every
//! commit point and verifies the promoted-replica invariant — the
//! promoted store is byte-identical to *some* committed primary epoch no
//! newer than the death point, and the old primary re-attaches and
//! converges via deltas alone — and a two-run determinism check of the
//! full per-tick trace.

use std::collections::BTreeMap;

use memsnap::{Epoch, MemSnap, PersistFlags, RegionHandle, RegionSel, PAGE_SIZE};
use msnap_disk::{Disk, DiskConfig};
use msnap_repl::{ReplConfig, ReplEngine, ReplicaState};
use msnap_sim::{Nanos, NetConfig, Vt};
use msnap_vm::AsId;

const PAGES: u64 = 8;

struct Primary {
    ms: MemSnap,
    vt: Vt,
    space: AsId,
    r: RegionHandle,
    object: String,
}

fn primary() -> Primary {
    let mut ms = MemSnap::format(Disk::new(DiskConfig::paper()));
    let mut vt = Vt::new(0);
    let space = ms.vm_mut().create_space();
    let r = ms.msnap_open(&mut vt, space, "data", PAGES).unwrap();
    let object = ms.region_object_name(r.md).unwrap().to_string();
    Primary {
        ms,
        vt,
        space,
        r,
        object,
    }
}

/// Commit `i`: overwrite page `i % PAGES` with incompressible bytes
/// derived from `i`, then synchronously persist. Every commit yields a
/// distinct region image, and every page ships as a datagram of its own
/// (a compressible one would pack into its ship's single datagram and
/// leave the link nothing to reorder).
fn commit(p: &mut Primary, i: u64) -> Epoch {
    let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ (i + 1).wrapping_mul(0xA24B_AED4_963E_E407);
    let noise: Vec<u8> = (0..PAGE_SIZE)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u8
        })
        .collect();
    let page = i % PAGES;
    let t = p.vt.id();
    p.ms.write(
        &mut p.vt,
        p.space,
        t,
        p.r.addr + page * PAGE_SIZE as u64,
        &noise,
    )
    .unwrap();
    p.ms.msnap_persist(
        &mut p.vt,
        t,
        RegionSel::Region(p.r.md),
        PersistFlags::sync(),
    )
    .unwrap()
}

/// The primary's current region image. Synchronous persists keep memory
/// and the durable store identical, so right after a commit this is the
/// committed image of the returned epoch.
fn primary_image(p: &mut Primary) -> Vec<u8> {
    let mut img = vec![0u8; (PAGES as usize) * PAGE_SIZE];
    for page in 0..PAGES as usize {
        p.ms.read(
            &mut p.vt,
            p.space,
            p.r.addr + (page * PAGE_SIZE) as u64,
            &mut img[page * PAGE_SIZE..(page + 1) * PAGE_SIZE],
        )
        .unwrap();
    }
    img
}

/// The replica's durable image of `object`, read from its local store.
fn replica_image(eng: &mut ReplEngine, name: &str, object: &str) -> Vec<u8> {
    let node = eng.replica_mut(name).unwrap();
    let mut img = vec![0u8; (PAGES as usize) * PAGE_SIZE];
    for page in 0..PAGES {
        let at = (page as usize) * PAGE_SIZE;
        node.read_page(object, page, &mut img[at..at + PAGE_SIZE])
            .unwrap();
    }
    img
}

#[test]
fn seed_calm_replica_tracks_every_commit() {
    let mut p = primary();
    let mut eng = ReplEngine::new(ReplConfig::default());
    eng.add_replica("standby", NetConfig::calm(101)).unwrap();
    for i in 0..6 {
        commit(&mut p, i);
        assert!(eng
            .settle(&mut p.vt, &mut p.ms, Nanos::from_secs(5))
            .unwrap());
        let live = p.ms.object_epoch(&p.object).unwrap();
        assert_eq!(eng.replica("standby").unwrap().epoch(&p.object), live);
        assert_eq!(
            replica_image(&mut eng, "standby", &p.object),
            primary_image(&mut p),
            "after commit {i} the replica lags zero epochs and zero bytes"
        );
    }
    let m = *eng.link_metrics("standby").unwrap();
    assert!(m.full_syncs >= 1 && m.delta_syncs >= 4, "{m:?}");
    assert_eq!(m.lag_epochs, 0);
}

#[test]
fn seed_lossy_every_observable_state_is_a_committed_epoch() {
    let mut p = primary();
    let mut eng = ReplEngine::new(ReplConfig::default());
    eng.add_replica("standby", NetConfig::lossy(202)).unwrap();

    // Golden map: every committed epoch's image.
    let mut golden: BTreeMap<Epoch, Vec<u8>> = BTreeMap::new();
    for i in 0..10 {
        let e = commit(&mut p, i);
        golden.insert(e, primary_image(&mut p));
        eng.tick(&mut p.vt, &mut p.ms).unwrap();

        // Bounded staleness, never a torn apply: whatever the replica
        // shows mid-stream is exactly one of the committed images (or
        // the pre-commit store it bootstrapped from).
        let r = eng.replica("standby").unwrap().epoch(&p.object);
        if golden.contains_key(&r) {
            assert_eq!(
                replica_image(&mut eng, "standby", &p.object),
                golden[&r],
                "replica at epoch {r} diverges from the committed image"
            );
        } else {
            assert_eq!(r, 0, "unknown replica epoch {r} was never committed");
        }
    }
    assert!(eng
        .settle(&mut p.vt, &mut p.ms, Nanos::from_secs(120))
        .unwrap());
    assert_eq!(
        eng.replica("standby").unwrap().epoch(&p.object),
        p.ms.object_epoch(&p.object).unwrap()
    );
    assert_eq!(
        replica_image(&mut eng, "standby", &p.object),
        primary_image(&mut p)
    );
    let (down, _up) = eng.link_net_stats("standby").unwrap();
    assert!(
        down.dropped > 0,
        "the lossy seed must actually drop: {down:?}"
    );
    assert!(eng.link_metrics("standby").unwrap().retransmit_frames > 0);
}

#[test]
fn seed_partition_heavy_throttles_then_heals() {
    let mut p = primary();
    let cfg = ReplConfig { max_lag_epochs: 2 };
    let mut eng = ReplEngine::new(cfg);
    eng.add_replica("standby", NetConfig::calm(303)).unwrap();
    commit(&mut p, 0);
    assert!(eng
        .settle(&mut p.vt, &mut p.ms, Nanos::from_secs(5))
        .unwrap());

    // Two partition episodes; commits continue under both.
    let mut throttled_ticks = 0u64;
    let mut i = 1u64;
    for episode in 0..2 {
        eng.set_partitioned("standby", true).unwrap();
        for _ in 0..4 {
            commit(&mut p, i);
            i += 1;
            if eng.tick(&mut p.vt, &mut p.ms).unwrap().throttled {
                throttled_ticks += 1;
            }
        }
        assert!(
            !eng.settle(&mut p.vt, &mut p.ms, Nanos::from_ms(200))
                .unwrap(),
            "episode {episode}: a partitioned link cannot settle"
        );
        eng.set_partitioned("standby", false).unwrap();
        assert!(
            eng.settle(&mut p.vt, &mut p.ms, Nanos::from_secs(120))
                .unwrap(),
            "episode {episode}: healing the partition must drain the lag"
        );
        assert_eq!(
            replica_image(&mut eng, "standby", &p.object),
            primary_image(&mut p)
        );
    }
    assert!(
        throttled_ticks > 0,
        "lag budget 2 must throttle behind a partition"
    );
    assert!(eng.link_metrics("standby").unwrap().throttled_ticks > 0);
    assert_eq!(
        eng.replica("standby").unwrap().state(),
        ReplicaState::Streaming
    );
}

/// The failover sweep. A golden run records the image of every committed
/// epoch; then for every prefix length `k` the same deterministic run is
/// replayed, the primary is killed right after commit `k`'s tick, and:
///
/// 1. in-flight datagrams land (the network outlives the primary);
/// 2. the standby's store must equal *some* committed image at an epoch
///    no newer than the death point — never a torn or invented state;
/// 3. the standby promotes, restores, serves reads of exactly that
///    committed image, and accepts new writes;
/// 4. the old primary's crashed device re-attaches as a replica of the
///    promoted node and converges **via deltas alone** (no full-image
///    resync), its unreplicated suffix fenced away.
#[test]
fn failover_sweep_promotes_a_committed_epoch_at_every_death_point() {
    const COMMITS: u64 = 6;

    let run_prefix = |commits: u64| -> (Primary, ReplEngine, BTreeMap<Epoch, Vec<u8>>) {
        let mut p = primary();
        let mut eng = ReplEngine::new(ReplConfig::default());
        eng.add_replica("standby", NetConfig::calm(404)).unwrap();
        let mut golden = BTreeMap::new();
        // Seed commit: replicas attach to a primary that already holds
        // data, so the bootstrap full image covers every object.
        let e0 = commit(&mut p, 0);
        golden.insert(e0, primary_image(&mut p));
        assert!(eng
            .settle(&mut p.vt, &mut p.ms, Nanos::from_secs(5))
            .unwrap());
        for i in 1..=commits {
            let e = commit(&mut p, i);
            golden.insert(e, primary_image(&mut p));
            eng.tick(&mut p.vt, &mut p.ms).unwrap();
        }
        (p, eng, golden)
    };

    let (_, _, golden) = run_prefix(COMMITS);
    let mut delta_only_reattaches = 0u32;

    for k in 0..=COMMITS {
        let (p, mut eng, prefix) = run_prefix(k);
        let death_epoch = p.ms.object_epoch(&p.object).unwrap();
        assert_eq!(prefix, {
            let mut g = golden.clone();
            g.retain(|&e, _| e <= death_epoch);
            g
        });

        // The primary dies; whatever was already on the wire still lands.
        let old_disk = p.ms.crash(p.vt.now());
        eng.pump();

        let promoted_epoch = eng.replica("standby").unwrap().epoch(&p.object);
        assert!(
            golden.contains_key(&promoted_epoch),
            "death after commit {k}: replica epoch {promoted_epoch} was never committed"
        );
        assert!(
            promoted_epoch <= death_epoch,
            "death after commit {k}: replica is ahead of the primary"
        );
        assert_eq!(
            replica_image(&mut eng, "standby", &p.object),
            golden[&promoted_epoch],
            "death after commit {k}: promoted store is not the epoch-{promoted_epoch} image"
        );

        // Promote and boot a new primary from the fenced device.
        let promo = eng.promote("standby").unwrap();
        let mut vt2 = promo.vt;
        let mut ms2 = MemSnap::restore(&mut vt2, promo.disk).unwrap();
        let space2 = ms2.vm_mut().create_space();
        let r2 = ms2.msnap_open(&mut vt2, space2, "data", 0).unwrap();
        let mut p2 = Primary {
            ms: ms2,
            vt: vt2,
            space: space2,
            r: r2,
            object: p.object.clone(),
        };
        assert_eq!(
            primary_image(&mut p2),
            golden[&promoted_epoch],
            "death after commit {k}: the restored primary serves a different image"
        );
        // The new primary serves writes.
        let new_epoch = commit(&mut p2, 100 + k);
        assert!(
            new_epoch > death_epoch,
            "fenced epochs stay ahead of old history"
        );

        // Re-attach the old primary; its unacknowledged suffix is
        // divergent history that must be fenced away, after which it
        // converges from retained common epochs by delta alone.
        let mut eng2 = ReplEngine::new(ReplConfig::default());
        eng2.attach_replica("old", NetConfig::calm(505), old_disk)
            .unwrap();
        assert!(eng2
            .settle(&mut p2.vt, &mut p2.ms, Nanos::from_secs(120))
            .unwrap());
        assert_eq!(
            replica_image(&mut eng2, "old", &p2.object),
            primary_image(&mut p2),
            "death after commit {k}: the old primary failed to converge"
        );
        let m = *eng2.link_metrics("old").unwrap();
        if m.full_syncs == 0 {
            delta_only_reattaches += 1;
        }
        assert!(m.delta_syncs >= 1, "death after commit {k}: {m:?}");
    }
    assert_eq!(
        delta_only_reattaches,
        COMMITS as u32 + 1,
        "every re-attach diffs from a retained common epoch, never a full image"
    );
}

/// A failover inside a window: on a lossy link the primary keeps several
/// ships of its object in flight, and dies with at least two of them on
/// the wire. The promoted store is a committed epoch's image, at or past
/// every epoch the primary heard acknowledged, and the old primary
/// rejoins by delta.
#[test]
fn failover_inside_a_window_promotes_a_prefix_holding_every_acked_epoch() {
    for seed in [601, 602, 603] {
        let mut p = primary();
        let mut eng = ReplEngine::new(ReplConfig::default());
        eng.add_replica("standby", NetConfig::lossy(seed)).unwrap();
        let mut golden = BTreeMap::new();
        let e0 = commit(&mut p, 0);
        golden.insert(e0, primary_image(&mut p));
        assert!(eng
            .settle(&mut p.vt, &mut p.ms, Nanos::from_secs(30))
            .unwrap());
        // Ships started and acknowledged since the link settled: only the
        // region changes from here, so their difference is its ships in
        // flight.
        let (mut started, acks) = (0, eng.link_metrics("standby").unwrap().acks);
        let mut acked = e0;
        let mut window = 0;
        for i in 1..400 {
            let e = commit(&mut p, i);
            golden.insert(e, primary_image(&mut p));
            let report = eng.tick(&mut p.vt, &mut p.ms).unwrap();
            started += report.ships_started;
            let m = *eng.link_metrics("standby").unwrap();
            acked = acked.max(e - m.lag_epochs);
            window = started - (m.acks - acks);
            if window >= 2 && i > 50 {
                break;
            }
            p.vt.advance(Nanos::from_us(300));
        }
        assert!(window >= 2, "seed {seed}: {window} ships in flight");

        // The primary dies with the window on the wire; the replica is
        // promoted once what was sent has landed (or been lost).
        let death = p.ms.object_epoch(&p.object).unwrap();
        let old_disk = p.ms.crash(p.vt.now());
        let promo = eng.promote("standby").unwrap();
        let mut vt2 = promo.vt;
        let mut ms2 = MemSnap::restore(&mut vt2, promo.disk).unwrap();
        let space2 = ms2.vm_mut().create_space();
        let r2 = ms2.msnap_open(&mut vt2, space2, "data", 0).unwrap();
        let mut p2 = Primary {
            ms: ms2,
            vt: vt2,
            space: space2,
            r: r2,
            object: p.object.clone(),
        };
        let image = primary_image(&mut p2);
        let at = golden.iter().find(|(_, g)| **g == image).map(|(&e, _)| e);
        let at = at.unwrap_or_else(|| panic!("seed {seed}: not a committed image"));
        assert!(
            (acked..=death).contains(&at),
            "seed {seed}: promoted at {at}, acknowledged {acked}, died at {death}"
        );

        // The old primary rejoins the new one by delta alone.
        commit(&mut p2, 1000);
        let mut eng2 = ReplEngine::new(ReplConfig::default());
        eng2.attach_replica("old", NetConfig::calm(seed), old_disk)
            .unwrap();
        assert!(eng2
            .settle(&mut p2.vt, &mut p2.ms, Nanos::from_secs(120))
            .unwrap());
        assert_eq!(
            replica_image(&mut eng2, "old", &p2.object),
            primary_image(&mut p2)
        );
        assert_eq!(eng2.link_metrics("old").unwrap().full_syncs, 0);
    }
}

#[test]
fn identical_seeds_replay_identical_traces() {
    let trace = |seed: u64| -> String {
        let mut p = primary();
        let mut eng = ReplEngine::new(ReplConfig::default());
        eng.add_replica("standby", NetConfig::lossy(seed)).unwrap();
        let mut out = String::new();
        for i in 0..8 {
            commit(&mut p, i);
            let report = eng.tick(&mut p.vt, &mut p.ms).unwrap();
            let (down, up) = eng.link_net_stats("standby").unwrap();
            out.push_str(&format!(
                "tick {i}: {report:?} {:?} {down:?} {up:?} epoch={} now={:?}\n",
                eng.link_metrics("standby").unwrap(),
                eng.replica("standby").unwrap().epoch(&p.object),
                p.vt.now(),
            ));
        }
        assert!(eng
            .settle(&mut p.vt, &mut p.ms, Nanos::from_secs(120))
            .unwrap());
        out.push_str(&format!(
            "final: {:?} {:?}",
            eng.link_metrics("standby").unwrap(),
            eng.link_meters("standby").unwrap().get("repl_ack_lag"),
        ));
        out
    };
    assert_eq!(trace(42), trace(42), "a fixed seed must replay exactly");
    assert_ne!(trace(42), trace(43), "different seeds must diverge");
}
