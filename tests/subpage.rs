//! Sub-page delta shipping, end to end: a property check that sub-page
//! streams land the replica byte-for-byte on the primary's retained
//! target image, a property check that dedup digest collisions are
//! byte-verified and never become stale references, and a fixed-seed
//! 30%-loss replication sweep over the small-write workload that CI
//! runs to prove no acked epoch is ever lost and no applied page ever
//! diverges from its digest.

use std::collections::BTreeMap;

use memsnap::{Epoch, MemSnap, PersistFlags, RegionHandle, RegionSel, PAGE_SIZE};
use msnap_disk::{Disk, DiskConfig, BLOCK_SIZE};
use msnap_repl::{ReplConfig, ReplEngine};
use msnap_sim::{Nanos, NetConfig, Vt};
use msnap_snap::{ApplySession, DedupTable, DeltaStream, Frame};
use msnap_store::ObjectStore;
use msnap_vm::AsId;
use proptest::prelude::*;

const PAGES: u64 = 6;

/// A primary store with `PAGES` seeded pages retained as `"base"`.
fn seeded_store(seed: u8) -> (Vt, Disk, ObjectStore, msnap_store::ObjectId) {
    let mut disk = Disk::new(DiskConfig::paper());
    let mut store = ObjectStore::format(&mut disk);
    let mut vt = Vt::new(0);
    let obj = store.create(&mut vt, &mut disk, "db").unwrap();
    for p in 0..PAGES {
        let img: Vec<u8> = (0..BLOCK_SIZE)
            .map(|j| seed ^ (p as u8).wrapping_mul(37) ^ (j as u8))
            .collect();
        let t = store
            .persist(&mut vt, &mut disk, obj, &[(p, &img[..])])
            .unwrap();
        ObjectStore::wait(&mut vt, t);
    }
    store
        .snapshot_create(&mut vt, &mut disk, obj, "base")
        .unwrap();
    (vt, disk, store, obj)
}

/// Applies one wire-encoded stream to `replica`, without a dedup table.
fn apply(vt: &mut Vt, disk: &mut Disk, replica: &mut ObjectStore, wire: &[u8]) {
    let stream = DeltaStream::decode(wire).unwrap();
    let mut session = ApplySession::begin(vt, disk, replica, &stream.header).unwrap();
    for frame in &stream.frames {
        session.feed(frame.clone()).unwrap();
    }
    session
        .finish(vt, disk, replica, &stream.trailer, None)
        .unwrap();
}

/// A fresh replica synced to the primary's `"base"` snapshot.
fn replica_at_base(vt: &mut Vt, disk: &mut Disk, store: &mut ObjectStore) -> (Disk, ObjectStore) {
    let mut rdisk = Disk::new(DiskConfig::paper());
    let mut replica = ObjectStore::format(&mut rdisk);
    let wire = DeltaStream::build(vt, disk, store, None, "base", None)
        .unwrap()
        .encode();
    apply(vt, &mut rdisk, &mut replica, &wire);
    (rdisk, replica)
}

fn replica_pages(vt: &mut Vt, disk: &mut Disk, replica: &mut ObjectStore) -> Vec<Vec<u8>> {
    let obj = replica.lookup("db").unwrap();
    (0..PAGES)
        .map(|p| {
            let mut buf = vec![0u8; BLOCK_SIZE];
            replica.read_page(vt, disk, obj, p, &mut buf).unwrap();
            buf
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Fidelity: for any edit batch, applying the sub-page stream leaves
    /// the replica byte-for-byte identical to the primary's retained
    /// target snapshot — the ground truth, not another encoder's output.
    #[test]
    fn subpage_apply_matches_fullpage_apply_byte_for_byte(
        seed in 0u8..255,
        edits in prop::collection::vec(
            (0..PAGES, 0u64..64, any::<u8>(), 1usize..64),
            1..24,
        ),
    ) {
        let (mut vt, mut disk, mut store, obj) = seeded_store(seed);
        // Apply the edit batch as one μCheckpoint: read-modify-write
        // the touched pages so untouched lines keep their base bytes.
        let mut images: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        for &(page, line, fill, len) in &edits {
            let buf = images.entry(page).or_insert_with(|| {
                let mut buf = vec![0u8; BLOCK_SIZE];
                store.read_page(&mut vt, &mut disk, obj, page, &mut buf).unwrap();
                buf
            });
            let at = (line as usize) * 64;
            for b in &mut buf[at..at + len] {
                *b = fill;
            }
        }
        let iov: Vec<(u64, &[u8])> = images.iter().map(|(p, img)| (*p, &img[..])).collect();
        let t = store.persist(&mut vt, &mut disk, obj, &iov).unwrap();
        ObjectStore::wait(&mut vt, t);
        store.snapshot_create(&mut vt, &mut disk, obj, "tip").unwrap();

        let wire = DeltaStream::build(
            &mut vt, &mut disk, &mut store, Some("base"), "tip", None,
        )
        .unwrap()
        .encode();

        let (mut rdisk, mut replica) = replica_at_base(&mut vt, &mut disk, &mut store);
        apply(&mut vt, &mut rdisk, &mut replica, &wire);
        let got = replica_pages(&mut vt, &mut rdisk, &mut replica);
        let mut want = vec![0u8; BLOCK_SIZE];
        for p in 0..PAGES {
            store
                .read_page_at(&mut vt, &mut disk, "tip", p, &mut want)
                .unwrap();
            prop_assert_eq!(&got[p as usize], &want, "page {} diverges", p);
        }
    }

    /// Dedup references are emitted only after a byte-level verify of
    /// the digest hit: under a pathologically colliding hasher, a page
    /// whose digest collides with different bytes ships as payload —
    /// never as a stale reference — and the replica still converges to
    /// the primary's exact image.
    #[test]
    fn dedup_collisions_ship_payload_never_stale_references(
        seed in 0u8..255,
        fill_a in any::<u8>(),
        fill_b in any::<u8>(),
    ) {
        // Every page digests to its first byte: rewriting page 1 with
        // fill_a's first byte but fill_b's tail collides whenever
        // fill_a == fill_b would not.
        let collider: fn(&[u8]) -> u64 = |b| u64::from(b.first().copied().unwrap_or(0));
        let (mut vt, mut disk, mut store, obj) = seeded_store(seed);
        let (mut rdisk, mut replica) = replica_at_base(&mut vt, &mut disk, &mut store);

        // First epoch: page 0 gets a uniform fill, shipped and
        // committed into both dedup tables (ack'd transfer).
        let mut sender = DedupTable::with_hasher(64, collider);
        let mut receiver = DedupTable::with_hasher(64, collider);
        let img_a = vec![fill_a; BLOCK_SIZE];
        let t = store.persist(&mut vt, &mut disk, obj, &[(0, &img_a[..])]).unwrap();
        ObjectStore::wait(&mut vt, t);
        store.snapshot_create(&mut vt, &mut disk, obj, "tip").unwrap();
        let s1 = DeltaStream::build(
            &mut vt, &mut disk, &mut store, Some("base"), "tip", Some(&mut sender),
        )
        .unwrap();
        let mut session =
            ApplySession::begin(&mut vt, &mut rdisk, &mut replica, &s1.header).unwrap();
        for frame in &s1.frames {
            session.feed(frame.clone()).unwrap();
        }
        session
            .finish(&mut vt, &mut rdisk, &mut replica, &s1.trailer, Some(&mut receiver))
            .unwrap();
        sender.commit();

        // Second epoch: page 1 gets a page that collides with page 0's
        // digest (same first byte) but differs in the tail.
        let mut img_b = vec![fill_a; BLOCK_SIZE];
        img_b[1] = fill_b;
        img_b[BLOCK_SIZE - 1] = fill_b ^ 0x55;
        let t = store.persist(&mut vt, &mut disk, obj, &[(1, &img_b[..])]).unwrap();
        ObjectStore::wait(&mut vt, t);
        store.snapshot_create(&mut vt, &mut disk, obj, "tip2").unwrap();
        let s2 = DeltaStream::build(
            &mut vt, &mut disk, &mut store, Some("tip"), "tip2", Some(&mut sender),
        )
        .unwrap();
        let identical = img_b == img_a;
        for frame in &s2.frames {
            if let Frame::Ref(_) = frame {
                prop_assert!(
                    identical,
                    "a colliding-but-different page must ship as payload"
                );
            }
        }
        let mut session =
            ApplySession::begin(&mut vt, &mut rdisk, &mut replica, &s2.header).unwrap();
        for frame in &s2.frames {
            session.feed(frame.clone()).unwrap();
        }
        session
            .finish(&mut vt, &mut rdisk, &mut replica, &s2.trailer, Some(&mut receiver))
            .unwrap();
        sender.commit();

        // Whatever form shipped, the replica is byte-identical.
        let got = replica_pages(&mut vt, &mut rdisk, &mut replica);
        let mut want = vec![0u8; BLOCK_SIZE];
        for p in 0..PAGES {
            store
                .read_page(&mut vt, &mut disk, obj, p, &mut want)
                .unwrap();
            prop_assert_eq!(&got[p as usize], &want, "page {} diverges", p);
        }
    }
}

// ---- fixed-seed loss sweep (run by CI) ---------------------------------

const SWEEP_PAGES: u64 = 8;
const SWEEP_COMMITS: u64 = 20;

struct SweepPrimary {
    ms: MemSnap,
    vt: Vt,
    space: AsId,
    r: RegionHandle,
    object: String,
}

fn sweep_primary() -> SweepPrimary {
    let mut ms = MemSnap::format(Disk::new(DiskConfig::paper()));
    let mut vt = Vt::new(0);
    let space = ms.vm_mut().create_space();
    let r = ms.msnap_open(&mut vt, space, "data", SWEEP_PAGES).unwrap();
    let object = ms.region_object_name(r.md).unwrap().to_string();
    SweepPrimary {
        ms,
        vt,
        space,
        r,
        object,
    }
}

/// Commit `i`: rewrite one 64-byte line of page `i % SWEEP_PAGES` — the
/// scattered small-write shape that sub-page frames exist for.
fn sweep_commit(p: &mut SweepPrimary, i: u64) -> Epoch {
    let t = p.vt.id();
    let page = i % SWEEP_PAGES;
    let line = (i * 7) % 64;
    p.ms.write(
        &mut p.vt,
        p.space,
        t,
        p.r.addr + page * PAGE_SIZE as u64 + line * 64,
        &[1 + (i % 250) as u8; 64],
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

fn sweep_primary_image(p: &mut SweepPrimary) -> Vec<u8> {
    let mut img = vec![0u8; (SWEEP_PAGES as usize) * PAGE_SIZE];
    for page in 0..SWEEP_PAGES as usize {
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

fn sweep_replica_image(eng: &mut ReplEngine, object: &str) -> Vec<u8> {
    let node = eng.replica_mut("standby").unwrap();
    let mut img = vec![0u8; (SWEEP_PAGES as usize) * PAGE_SIZE];
    for page in 0..SWEEP_PAGES {
        let at = (page as usize) * PAGE_SIZE;
        node.read_page(object, page, &mut img[at..at + PAGE_SIZE])
            .unwrap();
    }
    img
}

/// The CI gate for sub-page shipping: a fixed-seed 30%-loss link, every
/// commit a scattered 64-byte write. Every state the replica ever shows
/// is a committed epoch's exact image (a digest mismatch inside the
/// apply path would refuse the frame and force a resync, so byte
/// equality here proves every applied page matched its digest), the
/// drained replica converges on the primary's acked tip — no acked
/// epoch is lost — and the stream demonstrably used sub-page frames.
#[test]
fn fixed_seed_subpage_loss_sweep_loses_no_acked_epoch() {
    let mut p = sweep_primary();
    let mut eng = ReplEngine::new(ReplConfig::default());
    eng.add_replica("standby", NetConfig::with_loss(1234, 0.30))
        .unwrap();

    let mut golden: BTreeMap<Epoch, Vec<u8>> = BTreeMap::new();
    for i in 0..SWEEP_COMMITS {
        let e = sweep_commit(&mut p, i);
        golden.insert(e, sweep_primary_image(&mut p));
        eng.tick(&mut p.vt, &mut p.ms).unwrap();
        // A line commit's whole ship is one packed datagram: pace the
        // commits so there are enough ships for 30% loss to bite.
        p.vt.advance(Nanos::from_ms(3));

        let r = eng.replica("standby").unwrap().epoch(&p.object);
        if golden.contains_key(&r) {
            assert_eq!(
                sweep_replica_image(&mut eng, &p.object),
                golden[&r],
                "replica at epoch {r} diverges from the committed image"
            );
        } else {
            assert_eq!(r, 0, "unknown replica epoch {r} was never committed");
        }
    }
    assert!(
        eng.settle(&mut p.vt, &mut p.ms, Nanos::from_secs(600))
            .unwrap(),
        "the lossy link must drain"
    );
    assert_eq!(
        eng.replica("standby").unwrap().epoch(&p.object),
        p.ms.object_epoch(&p.object).unwrap(),
        "an acked epoch was lost"
    );
    assert_eq!(
        sweep_replica_image(&mut eng, &p.object),
        sweep_primary_image(&mut p),
        "drained replica must be byte-identical to the primary"
    );
    let m = *eng.link_metrics("standby").unwrap();
    assert!(
        m.subpage_frames > 0,
        "the small-write workload must ship sub-page frames: {m:?}"
    );
    assert!(m.retransmit_frames > 0, "30% loss must force retransmits");
}
