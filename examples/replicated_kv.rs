//! A replicated key-value store: delta shipping over a lossy link,
//! lag-driven flow control, and a crash-consistent failover.
//!
//! A MemSnap KV primary streams its committed epochs to a standby over a
//! simulated WAN link that drops 15% of datagrams. The primary is then
//! killed with one batch committed locally but unacknowledged behind a
//! partition; the standby promotes, serves reads of exactly a committed
//! batch prefix, and the old primary's crashed device re-attaches as a
//! replica and converges by delta alone.
//!
//! A final act demonstrates self-healing: media rot injected on the
//! standby's device is caught by its background scrub and healed
//! byte-for-byte from the primary's verified copy over the same link.
//!
//! Run with: `cargo run --example replicated_kv`

use memsnap::{MemSnap, PersistFlags, RegionSel, PAGE_SIZE};
use msnap_bench::skipdb::{run_replicated_kv, KvReplConfig};
use msnap_disk::{Disk, DiskConfig};
use msnap_repl::{ReplConfig, ReplEngine};
use msnap_sim::{Nanos, NetConfig, Vt};

fn main() {
    println!("== replicated KV over a 15%-loss WAN link ==");
    let report = run_replicated_kv(&KvReplConfig {
        batches_before_crash: 8,
        extra_batches: 4,
        keys_per_batch: 8,
        net: NetConfig::lossy(13),
        repl: ReplConfig::default(),
    });
    println!(
        "committed {} batches, then one more behind a partition; killed the primary",
        report.committed_batches
    );
    println!(
        "promoted standby sees {}/{} batches (the partitioned one is gone), \
         first read {} after promotion",
        report.visible_batches, report.committed_batches, report.failover_latency
    );
    assert!(
        report.prefix_consistent,
        "failover must surface an exact committed batch prefix"
    );
    println!("promoted store is an exact committed batch prefix ✓");
    println!(
        "old primary re-attached and converged via {} delta ships, {} full images",
        report.reattach_delta_syncs, report.reattach_full_syncs
    );
    assert!(report.reattach_converged);
    println!("old primary matches the new one byte for byte ✓");
    println!("final store: {} keys", report.final_len);

    println!("\n== flow control: a 1-epoch lag budget on the same link ==");
    let tight = run_replicated_kv(&KvReplConfig {
        batches_before_crash: 8,
        extra_batches: 0,
        keys_per_batch: 8,
        net: NetConfig::lossy(13),
        repl: ReplConfig { max_lag_epochs: 1 },
    });
    assert!(tight.prefix_consistent && tight.reattach_converged);
    println!(
        "with max_lag_epochs = 1 the standby never trails more than one \
         commit; everything above still holds ✓"
    );

    // The engine API directly, for orientation: the drivers above wrap
    // exactly this loop.
    println!("\n== the raw loop: engine.tick() after every commit ==");
    let mut eng = ReplEngine::new(ReplConfig::default());
    eng.add_replica("standby", NetConfig::calm(1)).unwrap();
    println!(
        "replica state machine starts at {:?}; tick() ships deltas, settle() \
         drains, promote() consumes the engine and fences the new primary",
        eng.replica("standby").unwrap().state()
    );

    println!("\n== self-healing: rot on the standby, healed from the primary ==");
    let mut ms = MemSnap::format(Disk::new(DiskConfig::paper()));
    let mut vt = Vt::new(0);
    let space = ms.vm_mut().create_space();
    let r = ms.msnap_open(&mut vt, space, "data", 16).unwrap();
    let object = ms.region_object_name(r.md).unwrap().to_string();
    let mut eng = ReplEngine::new(ReplConfig::default());
    eng.add_replica("standby", NetConfig::calm(7)).unwrap();
    let t = vt.id();
    for fill in 1..=3u8 {
        ms.write(&mut vt, space, t, r.addr, &[fill; PAGE_SIZE])
            .unwrap();
        ms.msnap_persist(&mut vt, t, RegionSel::Region(r.md), PersistFlags::sync())
            .unwrap();
        eng.settle(&mut vt, &mut ms, Nanos::from_secs(5)).unwrap();
    }
    // Flip one bit in the standby's media copy of page 0, behind every
    // cache and checksum the write path ever computed.
    {
        let node = eng.replica_mut("standby").unwrap();
        let want = [3u8; PAGE_SIZE];
        let mut live = None;
        for b in 0..16384 {
            if node.disk_mut().peek(b).is_some_and(|img| img == want) {
                live = Some(b);
            }
        }
        node.disk_mut()
            .corrupt_bit(live.expect("committed page on media"), 0, 0);
    }
    // The standby's background scrub catches it by digest; with every
    // commit having rewritten the page, no local snapshot holds a clean
    // copy, so it is quarantined and reported.
    while eng.replica("standby").unwrap().scrub_stats().passes == 0 {
        eng.replica_mut("standby").unwrap().scrub(64).unwrap();
    }
    let unrepaired = eng.replica("standby").unwrap().store().unrepaired_pages();
    println!(
        "standby scrub: {} corrupt page(s), {} unrepairable locally",
        eng.replica("standby")
            .unwrap()
            .scrub_stats()
            .corruptions_found,
        unrepaired.len()
    );
    // The next engine rounds carry a RepairRequest up the link and the
    // primary's digest-verified copy back down.
    let mut rounds = 0;
    while !eng
        .replica("standby")
        .unwrap()
        .store()
        .unrepaired_pages()
        .is_empty()
    {
        eng.tick(&mut vt, &mut ms).unwrap();
        vt.advance(Nanos::from_ms(10));
        rounds += 1;
        assert!(rounds < 1000, "peer repair must converge");
    }
    let mut buf = vec![0u8; PAGE_SIZE];
    eng.replica_mut("standby")
        .unwrap()
        .read_page(&object, 0, &mut buf)
        .unwrap();
    assert_eq!(buf, vec![3u8; PAGE_SIZE]);
    println!(
        "healed byte-for-byte from the primary in {rounds} engine rounds \
         ({} repair messages on the link) ✓",
        eng.link_metrics("standby").unwrap().repair_requests
    );
}
