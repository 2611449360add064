//! What line-grain delta records promise (DESIGN.md §6m): the overlay is
//! read first and never outlives a full root (I1, I2), replay patches in
//! epoch order and trusts only the pair digest (I3), the two ordering
//! rules (R1, R2) hold whatever the device pool looks like, and a commit
//! folds into its object's record only while that record is queued (R3),
//! on top of the tip its tag names.

use super::*;
use crate::store::commit::PLACE_ROOT_AT;
use crate::store::replay::Reason;
use msnap_disk::{crash_at_every_io, Fault, FaultPlan};

/// One write of a workload: page, dirty-line mask, fill byte. The fill
/// lands in the masked lines only; a zero mask rewrites the whole page
/// and hands the store "lines unknown".
type Write = (u64, u64, u8);

/// The page image after `w` is applied to `model`.
fn apply(model: &mut BTreeMap<u64, Vec<u8>>, w: Write) -> Vec<u8> {
    let (page, mask, fill) = w;
    let image = model.entry(page).or_insert_with(|| page_of(0));
    for line in 0..lines::LINES_PER_PAGE {
        if mask == 0 || mask & (1 << line) != 0 {
            image[line * lines::LINE_SIZE..(line + 1) * lines::LINE_SIZE].fill(fill);
        }
    }
    image.clone()
}

/// Commits `w` to `obj` — with its mask, or as a whole page when
/// `line_grain` is off — and returns the token without waiting.
fn commit(
    shard: &mut StoreShard,
    vt: &mut Vt,
    disk: &mut Disk,
    obj: ObjectId,
    model: &mut BTreeMap<u64, Vec<u8>>,
    w: Write,
    line_grain: bool,
) -> CommitToken {
    let image = apply(model, w);
    let mask = if line_grain { w.1 } else { 0 };
    shard
        .persist_batch(vt, disk, &[(obj, &[(w.0, &image[..], mask)][..])])
        .unwrap()[0]
}

/// [`commit`], synchronously.
fn commit_sync(
    shard: &mut StoreShard,
    vt: &mut Vt,
    disk: &mut Disk,
    obj: ObjectId,
    model: &mut BTreeMap<u64, Vec<u8>>,
    w: Write,
) {
    let token = commit(shard, vt, disk, obj, model, w, true);
    ObjectStore::wait(vt, token);
}

/// Every page of `model` as the shard serves it.
fn read_all(
    shard: &mut StoreShard,
    vt: &mut Vt,
    disk: &mut Disk,
    obj: ObjectId,
    model: &BTreeMap<u64, Vec<u8>>,
) -> BTreeMap<u64, Vec<u8>> {
    let mut out = BTreeMap::new();
    for &page in model.keys() {
        let mut buf = page_of(0);
        shard.read_page(vt, disk, obj, page, &mut buf).unwrap();
        out.insert(page, buf);
    }
    out
}

/// Live reads, then a reopen of the settled device, both equal `model`.
fn assert_reads_back(
    shard: &mut StoreShard,
    vt: &mut Vt,
    disk: &mut Disk,
    obj: ObjectId,
    model: &BTreeMap<u64, Vec<u8>>,
) {
    shard.drop_cache();
    assert_eq!(&read_all(shard, vt, disk, obj, model), model, "live");
    disk.settle();
    let mut vt2 = Vt::new(7);
    let mut reopened = open_shard(&mut vt2, disk).unwrap();
    assert_eq!(reopened.epoch(obj), shard.epoch(obj));
    assert_eq!(
        &read_all(&mut reopened, &mut vt2, disk, obj, model),
        model,
        "reopened"
    );
}

fn overlay_pages(shard: &StoreShard, obj: ObjectId) -> usize {
    shard.objects[obj.0 as usize].overlay.len()
}

/// One-line writes over three pages, enough of them to cross a full root.
fn one_line_writes(n: u64) -> Vec<Write> {
    (0..n)
        .map(|i| (i % 3, 1 << (i * 7 % 64), (i % 255) as u8 + 1))
        .collect()
}

#[test]
fn a_line_sparse_commit_is_one_write_and_no_data_block() {
    let (mut disk, mut shard, mut vt) = setup();
    let obj = shard.create(&mut vt, &mut disk, "o").unwrap();
    let mut model = BTreeMap::new();
    commit_sync(&mut shard, &mut vt, &mut disk, obj, &mut model, (0, 0, 9));
    let (ios, used, t0) = (disk.io_seq(), disk.blocks_in_use(), vt.now());
    let before = shard.stats();
    commit_sync(
        &mut shard,
        &mut vt,
        &mut disk,
        obj,
        &mut model,
        (0, 0b101, 7),
    );
    assert_eq!(disk.io_seq() - ios, 1, "the record is the only write");
    assert_eq!(disk.blocks_in_use() - used, 1, "its ring slot");
    let io_wait = vt.now() - t0 - costs::initiate(1);
    assert_eq!(io_wait, disk.config().segment_latency(BLOCK_SIZE));
    let after = shard.stats();
    assert_eq!(after.line_commits - before.line_commits, 1);
    assert_eq!(after.delta_commits - before.delta_commits, 1);
    assert_eq!(after.line_bytes - before.line_bytes, 128);
    assert_eq!(after.pages_written, before.pages_written);
    assert_eq!(overlay_pages(&shard, obj), 1);
    assert_reads_back(&mut shard, &mut vt, &mut disk, obj, &model);
}

/// Drives `writes` as synchronous commits on a fresh device and returns
/// it with, per commit, its durability instant and the model after it.
#[allow(clippy::type_complexity)]
fn drive(writes: &[Write], line_grain: bool) -> (Disk, Vec<(Nanos, BTreeMap<u64, Vec<u8>>)>) {
    let (mut disk, mut shard, mut vt) = setup();
    let obj = shard.create(&mut vt, &mut disk, "o").unwrap();
    let mut model = BTreeMap::new();
    let mut acked = Vec::new();
    for &w in writes {
        let token = commit(
            &mut shard, &mut vt, &mut disk, obj, &mut model, w, line_grain,
        );
        ObjectStore::wait(&mut vt, token);
        acked.push((token.completes, model.clone()));
    }
    (disk, acked)
}

/// Reopens a crashed device: the object's epoch and pages `0..pages`,
/// or `None` before the object exists.
fn recover(mut disk: Disk, pages: u64) -> Option<(Epoch, BTreeMap<u64, Vec<u8>>)> {
    let mut vt = Vt::new(3);
    let mut shard = open_shard(&mut vt, &mut disk).unwrap();
    let obj = shard.lookup("o")?;
    let want: BTreeMap<u64, Vec<u8>> = (0..pages).map(|p| (p, page_of(0))).collect();
    let got = read_all(&mut shard, &mut vt, &mut disk, obj, &want);
    Some((shard.epoch(obj), got))
}

#[test]
fn every_io_boundary_of_a_line_grain_run_recovers_an_acked_prefix() {
    let writes = one_line_writes(44);
    let (_, acked) = drive(&writes, true);
    let (_, page_grain) = drive(&writes, false);
    for ((_, lines), (_, pages)) in acked.iter().zip(&page_grain) {
        assert_eq!(lines, pages, "the two runs commit the same images");
    }
    let points = crash_at_every_io(
        || drive(&writes, true).0,
        |disk, at| {
            let durable = acked.iter().filter(|(done, _)| *done <= at).count();
            let Some((epoch, got)) = recover(disk, 3) else {
                assert_eq!(durable, 0, "crash at {at:?} lost the object");
                return;
            };
            let epoch = epoch as usize;
            // Exactly a prefix, no shorter than what was acknowledged
            // (sync commits: at most one more was in flight).
            assert!(
                (durable..=durable + 1).contains(&epoch),
                "{at:?}: epoch {epoch}"
            );
            let mut want: BTreeMap<u64, Vec<u8>> = (0..3).map(|p| (p, page_of(0))).collect();
            if epoch > 0 {
                want.extend(page_grain[epoch - 1].1.clone());
            }
            assert_eq!(got, want, "crash at {at:?}, epoch {epoch}");
        },
    );
    assert!(points > 2 * 44, "{points} crash points");
}

#[test]
fn a_commit_that_overtakes_its_predecessor_is_acked_with_it() {
    // Four channels, so a commit issued later can finish first.
    let cfg = DiskConfig {
        channels: 4,
        ..DiskConfig::paper()
    };
    let mut disk = Disk::new(cfg);
    let mut shard = format_shard(&mut disk);
    let mut vt_a = Vt::new(0);
    let obj = shard.create(&mut vt_a, &mut disk, "o").unwrap();
    let mut model = BTreeMap::new();
    for w in [(0, 0, 1), (1, 0, 2)] {
        commit_sync(&mut shard, &mut vt_a, &mut disk, obj, &mut model, w);
    }
    let settled = model.clone();
    let e = shard.epoch(obj) + 1;

    // Epoch e: whole page (data, then record), from a thread whose clock
    // runs ahead. Epoch e + 1: one line, one write, from a thread whose
    // clock is behind — its record lands first.
    let mut vt_b = Vt::new(1);
    vt_b.wait_until(vt_a.now());
    vt_a.wait_until(vt_a.now() + Nanos::from_us(40));
    let tok_e = commit(
        &mut shard,
        &mut vt_a,
        &mut disk,
        obj,
        &mut model,
        (0, 0, 3),
        true,
    );
    let tok_e1 = commit(
        &mut shard,
        &mut vt_b,
        &mut disk,
        obj,
        &mut model,
        (1, 1, 4),
        true,
    );
    assert_eq!((tok_e.epoch, tok_e1.epoch), (e, e + 1));
    let landed = disk.write_completions();
    let (rec_e, rec_e1) = (landed[landed.len() - 2], landed[landed.len() - 1]);
    assert!(rec_e1 < rec_e, "e+1's record completes first");
    // R2: e + 1 is not durable before its prefix is.
    assert_eq!(tok_e.completes, rec_e);
    assert_eq!(tok_e1.completes, rec_e);

    // A crash between the two completions recovers e − 1: e + 1 is on
    // the device but is not a prefix, and it had not been acknowledged.
    disk.crash(rec_e1 + Nanos::from_us(1));
    assert!(tok_e1.completes > rec_e1 + Nanos::from_us(1));
    let mut vt = Vt::new(2);
    let mut reopened = open_shard(&mut vt, &mut disk).unwrap();
    assert_eq!(reopened.epoch(obj), e - 1);
    assert_eq!(
        read_all(&mut reopened, &mut vt, &mut disk, obj, &settled),
        settled
    );
}

#[test]
fn a_truncated_future_record_does_not_come_back_after_a_second_crash() {
    // Life 1: e + 1's line record lands, e's record does not; recovery
    // stops at e − 1 (as in the overtaking test above).
    let cfg = DiskConfig {
        channels: 4,
        ..DiskConfig::paper()
    };
    let mut disk = Disk::new(cfg);
    let mut shard = format_shard(&mut disk);
    let mut vt_a = Vt::new(0);
    let obj = shard.create(&mut vt_a, &mut disk, "o").unwrap();
    let mut model = BTreeMap::new();
    for w in [(0, 0, 1), (1, 0, 2)] {
        commit_sync(&mut shard, &mut vt_a, &mut disk, obj, &mut model, w);
    }
    let mut settled = model.clone();
    let e = shard.epoch(obj) + 1;
    let mut vt_b = Vt::new(1);
    vt_b.wait_until(vt_a.now());
    vt_a.wait_until(vt_a.now() + Nanos::from_us(40));
    commit(
        &mut shard,
        &mut vt_a,
        &mut disk,
        obj,
        &mut model,
        (0, 0, 3),
        true,
    );
    commit(
        &mut shard,
        &mut vt_b,
        &mut disk,
        obj,
        &mut model,
        (1, 1, 4),
        true,
    );
    let rec_e1 = *disk.write_completions().last().unwrap();
    disk.crash(rec_e1 + Nanos::from_us(1));
    let mut vt = Vt::new(2);
    vt.wait_until(rec_e1 + Nanos::from_us(1));
    let mut shard = open_shard(&mut vt, &mut disk).unwrap();
    assert_eq!(shard.epoch(obj), e - 1);
    // Slot e still holds nothing, so e + 1 is past the tip.
    let past = (e + 1, Some(Reason::PastTip));
    assert_eq!(verdicts(&shard), [(1, None), (2, None), past]);

    // Life 2: a different epoch e, on page 0 only, so life 1's e + 1 —
    // one line of page 1 — still verifies over its base. It was never
    // acknowledged and extends a history this life does not have.
    commit_sync(
        &mut shard,
        &mut vt,
        &mut disk,
        obj,
        &mut settled,
        (0, 1 << 9, 5),
    );
    assert_eq!(shard.epoch(obj), e);
    disk.crash(vt.now());
    let mut vt = Vt::new(3);
    let mut reopened = open_shard(&mut vt, &mut disk).unwrap();
    assert_eq!(reopened.epoch(obj), e, "life 1's e + 1 must stay dead");
    let other = (e + 1, Some(Reason::OtherHistory));
    assert_eq!(
        verdicts(&reopened),
        [(1, None), (2, None), (e, None), other]
    );
    assert_eq!(
        read_all(&mut reopened, &mut vt, &mut disk, obj, &settled),
        settled
    );
}

#[test]
fn a_truncated_future_batch_group_does_not_come_back_after_a_second_crash() {
    // As above, but life 1 commits e + 1 as a page-grain batch with a
    // second object: its record in the batch overtakes e's record.
    let cfg = DiskConfig {
        channels: 4,
        ..DiskConfig::paper()
    };
    let mut disk = Disk::new(cfg);
    let mut shard = format_shard(&mut disk);
    let mut vt_a = Vt::new(0);
    let obj = shard.create(&mut vt_a, &mut disk, "o").unwrap();
    let other = shard.create(&mut vt_a, &mut disk, "other").unwrap();
    let mut model = BTreeMap::new();
    for w in [(0, 0, 1), (1, 0, 2)] {
        commit_sync(&mut shard, &mut vt_a, &mut disk, obj, &mut model, w);
    }
    let mut settled = model.clone();
    let e = shard.epoch(obj) + 1;
    let mut vt_b = Vt::new(1);
    vt_b.wait_until(vt_a.now());
    vt_a.wait_until(vt_a.now() + Nanos::from_us(40));
    commit(
        &mut shard,
        &mut vt_a,
        &mut disk,
        obj,
        &mut model,
        (0, 0, 3),
        true,
    );
    let (image, page) = (apply(&mut model, (1, 0, 4)), page_of(0x0E));
    let groups: [(ObjectId, &[(u64, &[u8])]); 2] =
        [(obj, &[(1, &image[..])]), (other, &[(0, &page[..])])];
    let tokens = shard.persist_batch(&mut vt_b, &mut disk, &groups).unwrap();
    assert_eq!(tokens[0].epoch, e + 1);
    let landed = disk.write_completions();
    let (rec_e, rec_e1) = (landed[landed.len() - 3], landed[landed.len() - 1]);
    assert!(rec_e1 < rec_e, "the batch's records complete first");
    disk.crash(rec_e1 + Nanos::from_us(1));
    let mut vt = Vt::new(2);
    vt.wait_until(rec_e1 + Nanos::from_us(1));
    let mut shard = open_shard(&mut vt, &mut disk).unwrap();
    assert_eq!(shard.epoch(obj), e - 1);

    // Life 2: a different epoch e, one line of page 0. Life 1's group of
    // e + 1 — page 1 whole, its data extent intact — would verify, but
    // it was never acknowledged and extends a history this life does not
    // have.
    commit_sync(
        &mut shard,
        &mut vt,
        &mut disk,
        obj,
        &mut settled,
        (0, 1 << 9, 5),
    );
    assert_eq!(shard.epoch(obj), e);
    disk.crash(vt.now());
    let mut vt = Vt::new(3);
    let mut reopened = open_shard(&mut vt, &mut disk).unwrap();
    assert_eq!(reopened.epoch(obj), e, "life 1's e + 1 must stay dead");
    assert_eq!(
        read_all(&mut reopened, &mut vt, &mut disk, obj, &settled),
        settled
    );
}

/// Creates a second object and commits 24 whole pages of it without
/// waiting: both channels of the paper device stay busy for a few tens
/// of µs.
fn saturate(shard: &mut StoreShard, vt: &mut Vt, disk: &mut Disk) {
    let busy = shard.create(vt, disk, "busy").unwrap();
    let page = page_of(0xB5);
    let pages: Vec<(u64, &[u8])> = (0..24).map(|p| (p, &page[..])).collect();
    shard
        .persist_batch(vt, disk, &[(busy, &pages[..])])
        .unwrap();
}

#[test]
fn a_commit_before_its_objects_record_starts_rides_it() {
    let (mut disk, mut shard, mut vt) = setup();
    let obj = shard.create(&mut vt, &mut disk, "o").unwrap();
    let mut model = BTreeMap::new();
    commit_sync(&mut shard, &mut vt, &mut disk, obj, &mut model, (0, 0, 1));
    saturate(&mut shard, &mut vt, &mut disk);
    let one_write = disk.config().segment_latency(BLOCK_SIZE);

    let first = commit(
        &mut shard,
        &mut vt,
        &mut disk,
        obj,
        &mut model,
        (0, 1 << 1, 2),
        true,
    );
    let starts = first.completes - one_write;
    assert!(starts > vt.now(), "the record waits for a channel");
    let ios = disk.io_seq();
    let riding = commit(
        &mut shard,
        &mut vt,
        &mut disk,
        obj,
        &mut model,
        (1, 1 << 2, 3),
        true,
    );
    assert!(vt.now() < starts);
    assert_eq!(disk.io_seq(), ios, "no submission of its own");
    assert_eq!(riding.epoch, first.epoch + 1);
    assert_eq!(riding.completes, first.completes, "acked with the record");
    assert_eq!(shard.stats().absorbed_commits, 1);
    let slot = shard.objects[obj.0 as usize].entry.delta_slot(first.epoch);
    let folded = DeltaRecord::from_block(&disk.peek(slot).unwrap(), obj).unwrap();
    assert_eq!(
        (folded.first_epoch(), folded.epoch),
        (first.epoch, riding.epoch)
    );
    assert_eq!(folded.pairs.len(), 2);

    // Once the device has picked the record up, the next commit writes
    // its own.
    vt.wait_until(starts);
    let late = commit(
        &mut shard,
        &mut vt,
        &mut disk,
        obj,
        &mut model,
        (0, 1 << 3, 4),
        true,
    );
    assert_eq!(disk.io_seq(), ios + 1);
    assert!(late.completes > first.completes);
    assert_eq!(shard.stats().absorbed_commits, 1);
    assert_eq!(shard.stats().line_commits, 3);
    ObjectStore::wait(&mut vt, late);
    assert_reads_back(&mut shard, &mut vt, &mut disk, obj, &model);
}

/// `threads` virtual threads on the min-clock rule on a paper device of
/// `channels` channels, together making the one-line `writes` to one
/// object, each thread waiting for its commit before its next, behind a
/// saturating commit of another object. Returns the device, each
/// commit's durability instant and the model after it, in epoch order,
/// and the shard's statistics.
#[allow(clippy::type_complexity)]
fn drive_threads(
    channels: usize,
    threads: u32,
    writes: &[Write],
) -> (Disk, Vec<(Nanos, BTreeMap<u64, Vec<u8>>)>, StoreStats) {
    let mut acked = Vec::new();
    let (disk, stats) = drive_threads_acking(channels, threads, writes, |done, model| {
        acked.push((done, model.clone()))
    });
    (disk, acked, stats)
}

/// The device [`drive_threads`] leaves, without a copy of the model per
/// commit: what a crash sweep re-runs.
fn threads_disk(channels: usize, threads: u32, writes: &[Write]) -> Disk {
    drive_threads_acking(channels, threads, writes, |_, _| {}).0
}

/// [`drive_threads`], handing `ack` each commit's durability instant and
/// the model after it, in epoch order.
fn drive_threads_acking(
    channels: usize,
    threads: u32,
    writes: &[Write],
    mut ack: impl FnMut(Nanos, &BTreeMap<u64, Vec<u8>>),
) -> (Disk, StoreStats) {
    let mut disk = Disk::new(DiskConfig {
        channels,
        ..DiskConfig::paper()
    });
    let mut shard = format_shard(&mut disk);
    let mut vt = Vt::new(0);
    let obj = shard.create(&mut vt, &mut disk, "o").unwrap();
    saturate(&mut shard, &mut vt, &mut disk);
    let mut clocks: Vec<Vt> = (0..threads).map(Vt::new).collect();
    for clock in &mut clocks {
        clock.wait_until(vt.now());
    }
    let mut model = BTreeMap::new();
    for &w in writes {
        let clock = clocks.iter_mut().min_by_key(|c| c.now()).unwrap();
        let token = commit(&mut shard, clock, &mut disk, obj, &mut model, w, true);
        ObjectStore::wait(clock, token);
        ack(token.completes, &model);
    }
    (disk, shard.stats())
}

#[test]
fn every_io_boundary_of_folding_threads_recovers_an_acked_prefix() {
    let writes = one_line_writes(48);
    let (_, acked, stats) = drive_threads(2, 4, &writes);
    let absorbed = stats.absorbed_commits;
    assert!(absorbed >= 8, "{absorbed} commits folded");
    assert!(
        acked.windows(2).all(|w| w[0].0 <= w[1].0),
        "acks in epoch order"
    );
    let none = BTreeMap::new();
    let points = crash_at_every_io(
        || threads_disk(2, 4, &writes),
        |disk, at| check_recovered(recover(disk, 3), at, 3, (0, &none), &acked),
    );
    assert!(points > 48, "{points} crash points");
}

#[test]
fn replay_follows_a_folded_record_past_stale_and_overlapping_ones() {
    let obj = ObjectId(0);
    // A full root at r, then r + 1, then r + 2 ..= r + 4 folded into one
    // record in slot r + 2, then r + 5.
    let (mut disk, mut shard, root, mut models) = chain_over_a_root(&[(0, 1, 9)]);
    let mut model = models.pop().unwrap();
    let mut vt = Vt::new(4);
    vt.wait_until(shard.last_commit(obj));
    saturate(&mut shard, &mut vt, &mut disk);
    for w in [(1, 2, 10), (2, 4, 11), (1, 8, 12)] {
        commit(&mut shard, &mut vt, &mut disk, obj, &mut model, w, true);
    }
    assert_eq!(shard.stats().absorbed_commits, 2);
    vt.wait_until(shard.last_commit(obj));
    commit_sync(&mut shard, &mut vt, &mut disk, obj, &mut model, (0, 16, 13));
    assert_eq!(shard.epoch(obj), root + 5);

    // Stale records from another history in the two slots the fold
    // skipped: a single record of r + 3, and one covering r + 4 ..= r + 5
    // — past the live tip's epoch, but overlapping it.
    let entry = shard.objects[0].entry.clone();
    let stale = |epoch, span| DeltaRecord {
        object: obj,
        epoch,
        span,
        tag: 0,
        len_pages: 3,
        payload_sum: layout::FNV_OFFSET,
        pairs: vec![(0, layout::pack_entry(INLINE_BLOCK, 0x5757))],
        body: [&1u64.to_le_bytes()[..], &[0x57; 64]].concat(),
    };
    for (slot, record) in [
        (root + 3, stale(root + 3, 0)),
        (root + 4, stale(root + 5, 1)),
    ] {
        disk.write_block_at(vt.now(), entry.delta_slot(slot), &record.to_block())
            .unwrap();
    }
    disk.settle();
    let (mut reopened, mut vt, _) = reopen_counting(&mut disk);
    assert_eq!(reopened.epoch(obj), root + 5, "the live tip");
    // Both stale records start at or below the folded record's tip.
    let stale = Some(Reason::Stale);
    assert_eq!(
        verdicts(&reopened),
        [
            (root + 1, None),
            (root + 2, None),
            (root + 3, stale),
            (root + 4, stale),
            (root + 5, None)
        ]
    );
    assert_eq!(
        read_all(&mut reopened, &mut vt, &mut disk, obj, &model),
        model
    );
    // The folded record counts every epoch it covers against the window,
    // so the recovered object takes its next full root when the live one
    // would have.
    let window = |s: &StoreShard| s.objects[0].window();
    assert_eq!(window(&reopened), window(&shard));
    assert_eq!(window(&reopened), 5);
}

/// A four-channel pool, so a record issued behind a root can land first.
fn four_channels() -> DiskConfig {
    DiskConfig {
        channels: 4,
        ..DiskConfig::paper()
    }
}

/// One-line writes spread over `pages` pages.
fn spread_writes(n: u64, pages: u64) -> Vec<Write> {
    (0..n)
        .map(|i| (i % pages, 1 << (i * 7 % 64), (i % 251) as u8 + 1))
        .collect()
}

/// The one record [`a_slow_compaction_root`] holds for its slow root:
/// the root at 40 covers the ring slots of records up to 40 +
/// `DELTA_SLOTS`, and the record after reuses the slot of 41.
const GATED: u64 = 40 + DELTA_SLOTS + 1;

/// `GATED` + 23 synchronous one-line commits on a four-channel pool, with
/// the root record of the third compaction root — at epoch 60, written
/// by commit 60 behind its own record — held `spike` on the device.
/// Returns the device, each commit's durability instant and the model
/// after it, the instant that root lands, and the shard's statistics.
#[allow(clippy::type_complexity)]
fn a_slow_compaction_root(
    spike: Nanos,
) -> (
    Disk,
    Vec<(Nanos, BTreeMap<u64, Vec<u8>>)>,
    Nanos,
    StoreStats,
) {
    let mut disk = Disk::new(four_channels());
    let mut shard = format_shard(&mut disk);
    let mut vt = Vt::new(0);
    let obj = shard.create(&mut vt, &mut disk, "o").unwrap();
    let mut model = BTreeMap::new();
    let mut acked = Vec::new();
    let mut slow = None;
    for (i, w) in one_line_writes(GATED + 23).into_iter().enumerate() {
        if i == 59 {
            assert_eq!(shard.objects[0].window(), COMPACT_AFTER - 1);
            // The commit's record is the next submission, and the
            // compaction root, its extent and root record as one idle
            // write, the one after.
            let slow = Fault::LatencySpike { extra: spike };
            disk.set_fault_plan(FaultPlan::new().at(disk.io_seq() + 1, slow));
        }
        let token = commit(&mut shard, &mut vt, &mut disk, obj, &mut model, w, true);
        ObjectStore::wait(&mut vt, token);
        acked.push((token.completes, model.clone()));
        if i as u64 + 1 == GATED {
            slow = Some(shard.objects[0].roots[1]);
        }
    }
    let (slow, lands) = slow.expect("the run reaches the gated record");
    assert_eq!(slow, 60, "no compaction root while the root at 60 waits");
    let [previous, newest] = shard.objects[0].roots;
    assert_eq!(
        (previous.0, newest.0),
        (GATED + 1, GATED + 21),
        "compaction roots at 20, 40 and 60, then every 20 once 60 landed"
    );
    (disk, acked, lands, shard.stats())
}

#[test]
fn a_line_commit_behind_an_in_flight_full_root_waits_for_it() {
    // R1′: the record of epoch x reuses the ring slot of x − DELTA_SLOTS,
    // so it is submitted once a root at or above that epoch is durable —
    // and waits for nothing else. The compaction root at 60 is held on
    // the device; the root at 40 covers records up to 40 + DELTA_SLOTS,
    // so only record GATED waits.
    let spike = Nanos::from_ms(5);
    let (_, _, lands, _) = a_slow_compaction_root(spike);

    // Every acknowledged commit recovers whether the crash comes just
    // before the root lands — replay starts at root 40, its chain fills
    // every ring slot up to the one of the root's own epoch, and record
    // GATED has not overwritten record 41 — or as it lands: replay starts
    // at root 60, and record 61 extends it through the tip word the root
    // kept.
    for at in [lands - Nanos::from_ns(1), lands] {
        let (mut disk, acked, _, _) = a_slow_compaction_root(spike);
        disk.crash(at);
        let durable = acked.iter().filter(|(done, _)| *done <= at).count();
        let (epoch, got) = recover(disk, 3).unwrap();
        assert!(
            epoch as usize >= durable,
            "crash at {at:?}: {epoch} of {durable} acknowledged commits recovered"
        );
        assert_eq!(got, acked[epoch as usize - 1].1, "crash at {at:?}");
        let before = GATED as usize - 1;
        assert_eq!((durable, epoch), (before, before as u64), "crash at {at:?}");
    }

    let (disk, acked, _, stats) = a_slow_compaction_root(spike);
    let one_write = disk.config().segment_latency(BLOCK_SIZE);
    assert_eq!(stats.compaction_roots, 5);
    assert_eq!(
        (stats.commits, stats.delta_commits),
        (GATED + 23, GATED + 23),
        "no commit was a root"
    );
    let gated = GATED as usize - 1;
    assert!(
        acked[gated - 1].0 < lands - spike / 2,
        "61 ..= GATED - 1 did not wait for the root"
    );
    assert_eq!(
        acked[gated].0,
        lands + one_write,
        "GATED was submitted as it landed"
    );
    assert_eq!(stats.root_gated_records, 1);
}

#[test]
fn a_compaction_root_lands_after_the_records_it_covers() {
    // A compaction root's tree maps the data blocks of the records below
    // it. Commit 20 is a whole page whose data extent the device holds
    // back; commit 21, issued at once, writes the compaction root at 20.
    // That root must not land before the extent: a crash between the two
    // would recover epoch 20 over a page the device never got.
    let mut disk = Disk::new(four_channels());
    let mut shard = format_shard(&mut disk);
    let mut vt = Vt::new(0);
    let obj = shard.create(&mut vt, &mut disk, "o").unwrap();
    let mut model = BTreeMap::new();
    let writes = one_line_writes(21);
    for &w in &writes[..19] {
        commit_sync(&mut shard, &mut vt, &mut disk, obj, &mut model, w);
    }
    let mut settled: BTreeMap<u64, Vec<u8>> = (0..3).map(|p| (p, page_of(0))).collect();
    settled.extend(model.clone());
    let spike = Nanos::from_ms(1);
    let slow = Fault::LatencySpike { extra: spike };
    disk.set_fault_plan(FaultPlan::new().at(disk.io_seq(), slow));
    let start = vt.now();
    let whole = commit(
        &mut shard,
        &mut vt,
        &mut disk,
        obj,
        &mut model,
        (0, 0, 0xD0),
        true,
    );
    commit(
        &mut shard, &mut vt, &mut disk, obj, &mut model, writes[20], true,
    );
    assert_eq!(shard.stats().compaction_roots, 1);
    assert!(whole.completes > start + spike);
    let root_lands = shard.objects[0].roots[1].1;

    disk.crash(start + spike / 2);
    let (epoch, got) = recover(disk, 3).unwrap();
    assert_eq!(
        (epoch, got),
        (19, settled),
        "the chain below the held extent"
    );
    assert!(
        root_lands > whole.completes,
        "the root waited for the chain"
    );
}

/// Checks one recovered object against the commits of one life: the
/// epoch is at least `floor` and every commit durable by `at`, and the
/// pages are the model at that epoch (`models[e - 1]`, or `base` at or
/// below `base_epoch`).
fn check_recovered(
    got: Option<(Epoch, BTreeMap<u64, Vec<u8>>)>,
    at: Nanos,
    pages: u64,
    (base_epoch, base): (Epoch, &BTreeMap<u64, Vec<u8>>),
    acked: &[(Nanos, BTreeMap<u64, Vec<u8>>)],
) {
    let durable = acked.iter().filter(|(done, _)| *done <= at).count() as u64;
    let Some((epoch, got)) = got else {
        assert_eq!(base_epoch + durable, 0, "crash at {at:?} lost the object");
        return;
    };
    assert!(
        epoch >= base_epoch + durable,
        "{at:?}: epoch {epoch} < {base_epoch} + {durable} acked"
    );
    let mut want: BTreeMap<u64, Vec<u8>> = (0..pages).map(|p| (p, page_of(0))).collect();
    if epoch > base_epoch {
        want.extend(acked[(epoch - base_epoch - 1) as usize].1.clone());
    } else {
        assert_eq!(epoch, base_epoch, "{at:?}");
        want.extend(base.clone());
    }
    assert_eq!(got, want, "crash at {at:?}, epoch {epoch}");
}

#[test]
fn every_io_boundary_across_compaction_roots_recovers_an_acked_prefix() {
    // Long enough for five roots on the busiest pool, where each waits
    // for a gap or for its commit PLACE_ROOT_AT epochs up.
    let writes = spread_writes(400, 24);
    for channels in [2, 4] {
        for threads in [1, 4, 8] {
            let (_, acked, stats) = drive_threads(channels, threads, &writes);
            assert!(
                stats.compaction_roots >= 5,
                "{channels}×{threads}: {} compaction roots",
                stats.compaction_roots
            );
            assert_eq!(
                stats.commits, stats.delta_commits,
                "{channels}×{threads}: no inline root"
            );
            let none = BTreeMap::new();
            let points = crash_at_every_io(
                || threads_disk(channels, threads, &writes),
                |disk, at| check_recovered(recover(disk, 24), at, 24, (0, &none), &acked),
            );
            assert!(points > 100, "{channels}×{threads}: {points} crash points");
        }
    }
}

#[test]
fn a_second_life_across_compaction_roots_recovers_an_acked_prefix_at_every_io_boundary() {
    // Life 1: four threads, 50 commits, cut while commits and the
    // compaction root at 40 are in flight. Life 2: 70 synchronous commits
    // on top of what recovered — three more compaction roots — and a
    // crash at every one of its IO boundaries.
    let first = spread_writes(50, 24);
    let second: Vec<Write> = spread_writes(120, 24).split_off(50);
    let (_, acked_first, _) = drive_threads(4, 4, &first);
    let cut = acked_first[44].0 - Nanos::from_ns(1);
    let life_two = |pool: &mut Option<(Epoch, BTreeMap<u64, Vec<u8>>, Nanos)>| {
        let (mut disk, _, _) = drive_threads(4, 4, &first);
        disk.crash(cut);
        let mut vt = Vt::new(5);
        vt.wait_until(cut);
        let mut shard = open_shard(&mut vt, &mut disk).unwrap();
        let obj = shard.lookup("o").unwrap();
        let recovered = shard.epoch(obj);
        let pages: BTreeMap<u64, Vec<u8>> = (0..24).map(|p| (p, page_of(0))).collect();
        let mut model = read_all(&mut shard, &mut vt, &mut disk, obj, &pages);
        let mut acked = Vec::new();
        let start = vt.now();
        let before = shard.stats();
        for &w in &second {
            let token = commit(&mut shard, &mut vt, &mut disk, obj, &mut model, w, true);
            ObjectStore::wait(&mut vt, token);
            acked.push((token.completes, model.clone()));
        }
        assert!(shard.stats().compaction_roots - before.compaction_roots >= 3);
        *pool = Some((recovered, model, start));
        (disk, acked)
    };
    let mut seen = None;
    let (_, acked) = life_two(&mut seen);
    let (recovered, _, start) = seen.clone().unwrap();
    assert!(recovered >= 44, "life 1 recovered {recovered}");
    let base = acked_first[recovered as usize - 1].1.clone();
    let mut points = 0;
    crash_at_every_io(
        || life_two(&mut None).0,
        |disk, at| {
            if at < start {
                return; // a boundary of the first life
            }
            points += 1;
            check_recovered(recover(disk, 24), at, 24, (recovered, &base), &acked);
        },
    );
    assert!(points > 2 * 70, "{points} second-life crash points");
}

#[test]
fn line_whole_page_line_on_one_page_replays_as_it_reads() {
    let (mut disk, mut shard, mut vt) = setup();
    let obj = shard.create(&mut vt, &mut disk, "o").unwrap();
    let mut model = BTreeMap::new();
    let window = [
        (0, 0, 1),         // whole page: the tree block
        (0, 1 << 5, 2),    // line over the tree block
        (0, 0b11 << 5, 3), // line over the overlay
        (0, 0, 4),         // whole page: drops the overlay page
        (0, 1 << 63, 5),   // line over the new tree block
        (9, 1, 6),         // line over a page never written: zeroes
    ];
    for (i, &w) in window.iter().enumerate() {
        commit_sync(&mut shard, &mut vt, &mut disk, obj, &mut model, w);
        let overlaid = [0, 1, 1, 0, 1, 2][i];
        assert_eq!(overlay_pages(&shard, obj), overlaid, "after write {i}");
        assert_reads_back(&mut shard, &mut vt, &mut disk, obj, &model);
    }
    assert_eq!(shard.len_pages(obj), 10, "the overlay grows the object");
    assert_eq!(shard.stats().line_commits, 4);
}

/// Pages 0..3 written whole under a durable full root, then `chain` as
/// synchronous commits on top. Returns the settled device, the shard, the
/// root's epoch and the model after each prefix of the chain.
#[allow(clippy::type_complexity)]
fn chain_over_a_root(chain: &[Write]) -> (Disk, StoreShard, Epoch, Vec<BTreeMap<u64, Vec<u8>>>) {
    let (mut disk, mut shard, mut vt) = setup();
    let obj = shard.create(&mut vt, &mut disk, "o").unwrap();
    let mut model = BTreeMap::new();
    for w in [(0, 0, 1), (1, 0, 2), (2, 0, 3)] {
        commit_sync(&mut shard, &mut vt, &mut disk, obj, &mut model, w);
    }
    shard.flush_full_root(&mut vt, &mut disk, obj).unwrap();
    vt.wait_until(shard.last_commit(obj));
    let root = shard.epoch(obj);
    let mut models = vec![model.clone()];
    for &w in chain {
        commit_sync(&mut shard, &mut vt, &mut disk, obj, &mut model, w);
        models.push(model.clone());
    }
    disk.settle();
    (disk, shard, root, models)
}

/// Reopens `disk`: the shard, its clock and the read submissions open made.
fn reopen_counting(disk: &mut Disk) -> (StoreShard, Vt, u64) {
    let mut vt = Vt::new(7);
    let before = disk.stats().read_submissions();
    let shard = open_shard(&mut vt, disk).unwrap();
    (shard, vt, disk.stats().read_submissions() - before)
}

/// Line records over pages 0..3; `LINES[1]` is the one [`MOVED`] replaces.
const LINES: [Write; 5] = [(0, 1, 9), (1, 2, 10), (1, 4, 11), (2, 8, 12), (0, 16, 13)];
/// [`LINES`] with its second record rewriting page 1 whole: the line record
/// after it patches a block the base root never mapped.
const MOVED: [Write; 5] = [(0, 1, 9), (1, 0, 10), (1, 4, 11), (2, 8, 12), (0, 16, 13)];

#[test]
fn replay_reads_a_chains_bases_once_and_a_moved_base_when_its_record_replays() {
    let obj = ObjectId(0);
    let mut reads = Vec::new();
    let twice: Vec<Write> = LINES.iter().chain(&LINES).copied().collect();
    for chain in [&LINES[..], &twice, &MOVED] {
        let (mut disk, _, root, models) = chain_over_a_root(chain);
        let (mut reopened, mut vt, n) = reopen_counting(&mut disk);
        assert_eq!(reopened.epoch(obj), root + chain.len() as u64);
        let model = models.last().unwrap();
        assert_eq!(
            &read_all(&mut reopened, &mut vt, &mut disk, obj, model),
            model
        );
        reads.push(n);
    }
    // One prefetch however long the chain; the whole-page record costs its
    // data extent and the line record over it the one late base read.
    assert_eq!(reads[1], reads[0], "ten line records read as five do");
    assert_eq!(reads[2], reads[0] + 2, "the extent, and the moved base");
}

#[test]
fn a_torn_record_mid_chain_ends_the_replay_at_the_same_epoch() {
    let obj = ObjectId(0);
    // Rot under the base the fourth record patches: records one to three
    // replay, the fourth does not verify, the fifth is past the tip.
    let (mut disk, shard, root, models) = chain_over_a_root(&LINES);
    disk.corrupt_bit(shard.objects[0].tree.get(2).unwrap(), 3000, 1);
    let (mut reopened, mut vt, _) = reopen_counting(&mut disk);
    assert_eq!(reopened.epoch(obj), root + 3);
    // The fourth misses its pair digest, and the chain ends there.
    let missed = (root + 4, Some(Reason::DigestMiss));
    assert_eq!(&verdicts(&reopened)[3..], [missed]);
    let mut buf = page_of(0);
    for page in 0..2 {
        reopened
            .read_page(&mut vt, &mut disk, obj, page, &mut buf)
            .unwrap();
        assert_eq!(buf, models[3][&page], "page {page}");
    }
    let err = reopened
        .read_page(&mut vt, &mut disk, obj, 2, &mut buf)
        .unwrap_err();
    assert!(
        matches!(err, StoreError::CorruptData { page: 2, .. }),
        "{err:?}"
    );

    // A whole-page record whose data extent is torn: the chain ends before
    // it, and the line record after it — whose prefetched base is the
    // page's old block — is not applied over anything.
    let (mut disk, shard, root, models) = chain_over_a_root(&MOVED);
    disk.corrupt_bit(shard.objects[0].tree.get(1).unwrap(), 17, 0);
    let (mut reopened, mut vt, _) = reopen_counting(&mut disk);
    assert_eq!(reopened.epoch(obj), root + 1);
    let torn = (root + 2, Some(Reason::TornPayload));
    assert_eq!(verdicts(&reopened), [(root + 1, None), torn]);
    assert_eq!(
        read_all(&mut reopened, &mut vt, &mut disk, obj, &models[1]),
        models[1]
    );
}

#[test]
fn a_corrupt_node_on_a_records_path_ends_the_replay_before_it() {
    let obj = ObjectId(0);
    // Rot the root's tree node: the first record's pages hang under it.
    let (mut disk, shard, root, _) = chain_over_a_root(&LINES);
    disk.corrupt_bit(shard.objects[0].tree.committed_root(), 100, 2);
    let (mut reopened, mut vt, _) = reopen_counting(&mut disk);
    assert_eq!(reopened.epoch(obj), root);
    assert_eq!(verdicts(&reopened), [(root + 1, Some(Reason::CorruptNode))]);
    let err = reopened
        .read_page(&mut vt, &mut disk, obj, 0, &mut page_of(0))
        .unwrap_err();
    assert!(matches!(err, StoreError::CorruptMeta { .. }), "{err:?}");
}

#[test]
fn rot_under_an_overlay_page_is_healed_by_scrub_or_truncates_recovery() {
    let (mut disk, mut shard, mut vt) = setup();
    let obj = shard.create(&mut vt, &mut disk, "o").unwrap();
    let mut model = BTreeMap::new();
    for w in [(0, 0, 1), (1, 0, 2)] {
        commit_sync(&mut shard, &mut vt, &mut disk, obj, &mut model, w);
    }
    // A full root under the pages, so their blocks are bases a record
    // patches and not the payload an earlier record checksums.
    shard.flush_full_root(&mut vt, &mut disk, obj).unwrap();
    vt.wait_until(shard.last_commit(obj));
    let before_line = (shard.epoch(obj), model.clone());
    commit_sync(&mut shard, &mut vt, &mut disk, obj, &mut model, (0, 1, 3));
    commit_sync(&mut shard, &mut vt, &mut disk, obj, &mut model, (1, 1, 4));
    // Rot page 0's base block in a line no record rewrote.
    let base = shard.objects[0].tree.get(0).unwrap();
    disk.corrupt_bit(base, 2000, 3);
    shard.drop_cache();
    assert_eq!(read_all(&mut shard, &mut vt, &mut disk, obj, &model), model);

    // A crash now: the line record no longer verifies over its base, so
    // the chain ends before it — and the rotted base is not served.
    {
        let mut crashed = Disk::new(DiskConfig::paper());
        for b in 0..shard.high_water() {
            if let Some(data) = disk.peek(b) {
                crashed.write_block_at(Nanos::ZERO, b, &data).unwrap();
            }
        }
        crashed.settle();
        let mut vt = Vt::new(5);
        let mut reopened = open_shard(&mut vt, &mut crashed).unwrap();
        assert_eq!(reopened.epoch(obj), before_line.0);
        let missed = (before_line.0 + 1, Some(Reason::DigestMiss));
        assert_eq!(verdicts(&reopened), [missed]);
        let mut buf = page_of(0);
        let err = reopened
            .read_page(&mut vt, &mut crashed, obj, 0, &mut buf)
            .unwrap_err();
        assert!(
            matches!(err, StoreError::CorruptData { page: 0, .. }),
            "{err:?}"
        );
        reopened
            .read_page(&mut vt, &mut crashed, obj, 1, &mut buf)
            .unwrap();
        assert_eq!(buf, before_line.1[&1]);
    }

    // Scrub finds it and heals by writing the overlay out.
    let found = shard.scrub(&mut vt, &mut disk, 1 << 20).unwrap();
    assert_eq!(
        (found.corruptions_found, found.repairs, found.unrepaired),
        (1, 1, 0)
    );
    assert_eq!(overlay_pages(&shard, obj), 0);
    assert_ne!(shard.objects[0].tree.get(0), Some(base));
    assert_eq!(shard.quarantined_blocks(), 1);
    assert_reads_back(&mut shard, &mut vt, &mut disk, obj, &model);
}

#[test]
fn a_peer_repair_of_a_base_block_lets_the_newer_overlay_win() {
    let (mut disk, mut shard, mut vt) = setup();
    let obj = shard.create(&mut vt, &mut disk, "o").unwrap();
    let mut model = BTreeMap::new();
    commit_sync(&mut shard, &mut vt, &mut disk, obj, &mut model, (0, 0, 1));
    let base_image = model[&0].clone();
    commit_sync(&mut shard, &mut vt, &mut disk, obj, &mut model, (0, 1, 2));
    let token = shard
        .repair_page(&mut vt, &mut disk, obj, 0, &base_image)
        .unwrap();
    ObjectStore::wait(&mut vt, token);
    assert_eq!(overlay_pages(&shard, obj), 0);
    assert_reads_back(&mut shard, &mut vt, &mut disk, obj, &model);
}

#[test]
fn limits_fail_closed_to_whole_pages_or_a_full_root() {
    let (mut disk, mut shard, mut vt) = setup();
    let obj = shard.create(&mut vt, &mut disk, "o").unwrap();
    let mut model = BTreeMap::new();
    commit_sync(&mut shard, &mut vt, &mut disk, obj, &mut model, (0, 0, 1));

    // 62 lines of one page are the most a record carries; 63 is a page.
    let s0 = shard.stats();
    commit_sync(
        &mut shard,
        &mut vt,
        &mut disk,
        obj,
        &mut model,
        (0, u64::MAX >> 2, 2),
    );
    let s1 = shard.stats();
    assert_eq!(
        (s1.line_commits - s0.line_commits, s1.pages_written),
        (1, s0.pages_written)
    );
    assert_eq!(s1.line_bytes - s0.line_bytes, 62 * 64);
    commit_sync(
        &mut shard,
        &mut vt,
        &mut disk,
        obj,
        &mut model,
        (0, u64::MAX >> 1, 3),
    );
    let s2 = shard.stats();
    assert_eq!(
        (s2.line_commits, s2.pages_written),
        (s1.line_commits, s1.pages_written + 1)
    );
    assert_eq!(
        overlay_pages(&shard, obj),
        0,
        "the whole page superseded it"
    );

    // A zero mask on any page of the commit makes all of it whole pages.
    let images = [apply(&mut model, (1, 1, 4)), apply(&mut model, (2, 0, 4))];
    let pages = [(1, &images[0][..], 1), (2, &images[1][..], 0)];
    let token = shard
        .persist_batch(&mut vt, &mut disk, &[(obj, &pages[..])])
        .unwrap()[0];
    ObjectStore::wait(&mut vt, token);
    let s3 = shard.stats();
    assert_eq!(
        (s3.line_commits, s3.pages_written),
        (s2.line_commits, s2.pages_written + 2)
    );

    // More pages than a record has pairs: a full root, as ever.
    let images: Vec<Vec<u8>> = (0..=MAX_DELTA_PAIRS as u64)
        .map(|p| apply(&mut model, (100 + p, 1, 5)))
        .collect();
    let pages: Vec<(u64, &[u8], u64)> = (100..).zip(&images).map(|(p, i)| (p, &i[..], 1)).collect();
    let token = shard
        .persist_batch(&mut vt, &mut disk, &[(obj, &pages[..])])
        .unwrap()[0];
    ObjectStore::wait(&mut vt, token);
    let s4 = shard.stats();
    assert_eq!(s4.line_commits, s3.line_commits);
    assert_eq!(s4.delta_commits, s3.delta_commits, "a full root");
    assert_eq!(
        s4.pages_written - s3.pages_written,
        MAX_DELTA_PAIRS as u64 + 1
    );

    // The overlay at its budget: the commit that would outgrow it takes
    // the full-root path and writes the overlay out.
    let per_commit = 45u64; // the most one-line pages a record carries
    let fits = OVERLAY_PAGE_BUDGET as u64 / per_commit;
    for round in 0..=fits {
        let first = 1000 + round * per_commit;
        let images: Vec<Vec<u8>> = (0..per_commit)
            .map(|p| apply(&mut model, (first + p, 2, 6)))
            .collect();
        let pages: Vec<(u64, &[u8], u64)> = (first..)
            .zip(&images)
            .map(|(p, i)| (p, &i[..], 2))
            .collect();
        let before = shard.stats();
        let token = shard
            .persist_batch(&mut vt, &mut disk, &[(obj, &pages[..])])
            .unwrap()[0];
        ObjectStore::wait(&mut vt, token);
        let after = shard.stats();
        if round < fits {
            assert_eq!(after.line_commits - before.line_commits, 1, "round {round}");
            assert_eq!(overlay_pages(&shard, obj) as u64, (round + 1) * per_commit);
        } else {
            assert_eq!(after.line_commits, before.line_commits);
            assert_eq!(
                after.overlay_pages_flushed - before.overlay_pages_flushed,
                fits * per_commit
            );
            assert_eq!(
                after.pages_written - before.pages_written,
                (fits + 1) * per_commit
            );
            assert_eq!(overlay_pages(&shard, obj), 0);
        }
    }
    assert_reads_back(&mut shard, &mut vt, &mut disk, obj, &model);
}

#[test]
fn every_full_root_writes_the_overlay_out() {
    // Each door that ends in a full root, entered with a two-page overlay.
    for door in ["snapshot", "apply_image", "fence", "rebase", "rebase fails"] {
        let (mut disk, mut shard, mut vt) = setup();
        let obj = shard.create(&mut vt, &mut disk, "o").unwrap();
        let mut model = BTreeMap::new();
        for w in [(0, 0, 1), (1, 0, 2), (2, 0, 3)] {
            commit_sync(&mut shard, &mut vt, &mut disk, obj, &mut model, w);
        }
        shard
            .snapshot_create(&mut vt, &mut disk, obj, "base")
            .unwrap();
        let base = model.clone();
        for w in [(0, 1, 4), (1, 1 << 9, 5)] {
            commit_sync(&mut shard, &mut vt, &mut disk, obj, &mut model, w);
        }
        assert_eq!(overlay_pages(&shard, obj), 2, "{door}");
        let flushed = shard.stats().overlay_pages_flushed;
        let epoch = shard.epoch(obj);
        let image = page_of(0xAA);
        let mut wrote_out = 2;
        match door {
            "snapshot" => {
                shard.snapshot_create(&mut vt, &mut disk, obj, "s").unwrap();
                let mut buf = page_of(0);
                shard
                    .read_page_at(&mut vt, &mut disk, "s", 1, &mut buf)
                    .unwrap();
                assert_eq!(buf, model[&1], "the snapshot tree is self-contained");
            }
            "apply_image" => {
                // The image's own page wins over the overlay's.
                let t = shard
                    .apply_image(&mut vt, &mut disk, obj, None, &[(1, &image)], epoch + 5)
                    .unwrap();
                ObjectStore::wait(&mut vt, t);
                model.insert(1, image.clone());
                wrote_out = 1;
            }
            "fence" => {
                let t = shard
                    .apply_image(&mut vt, &mut disk, obj, None, &[], epoch + 9)
                    .unwrap();
                ObjectStore::wait(&mut vt, t);
            }
            "rebase" => {
                let t = shard
                    .apply_image(
                        &mut vt,
                        &mut disk,
                        obj,
                        Some("base"),
                        &[(2, &image)],
                        epoch + 5,
                    )
                    .unwrap();
                ObjectStore::wait(&mut vt, t);
                // The divergent overlay went with the divergent history.
                model = base.clone();
                model.insert(2, image.clone());
                wrote_out = 0;
            }
            _ => {
                disk.set_fault_plan(
                    FaultPlan::new().at(disk.io_seq(), Fault::Drop { transient: false }),
                );
                let err = shard
                    .apply_image(
                        &mut vt,
                        &mut disk,
                        obj,
                        Some("base"),
                        &[(2, &image)],
                        epoch + 5,
                    )
                    .unwrap_err();
                disk.clear_fault_plan();
                assert!(matches!(err, StoreError::Io(_)), "{err:?}");
                assert_eq!(shard.epoch(obj), epoch);
                assert_eq!(overlay_pages(&shard, obj), 2, "restored with the history");
                assert_reads_back(&mut shard, &mut vt, &mut disk, obj, &model);
                continue;
            }
        }
        assert_eq!(overlay_pages(&shard, obj), 0, "{door}");
        assert_eq!(
            shard.stats().overlay_pages_flushed - flushed,
            wrote_out,
            "{door}"
        );
        assert_reads_back(&mut shard, &mut vt, &mut disk, obj, &model);
    }
}

// ---- journaled compaction roots -----------------------------------------

/// The root record in `obj`'s slot for its `flush_seq`-th full root.
fn root_in_slot(disk: &Disk, shard: &StoreShard, obj: ObjectId, flush_seq: u64) -> RootRecord {
    let slot = shard.objects[obj.0 as usize].entry.root_slot(flush_seq);
    RootRecord::from_block(&disk.peek(slot).unwrap(), obj).expect("a valid root")
}

/// Whole-page commits of `pages`, one commit per chunk, synchronous.
fn whole_pages(
    shard: &mut StoreShard,
    vt: &mut Vt,
    disk: &mut Disk,
    obj: ObjectId,
    model: &mut BTreeMap<u64, Vec<u8>>,
    chunks: &[&[u64]],
) {
    for chunk in chunks {
        let fill = model.len() as u8 + 1;
        let images: Vec<Vec<u8>> = chunk.iter().map(|p| apply(model, (*p, 0, fill))).collect();
        let pages: Vec<(u64, &[u8])> = chunk
            .iter()
            .copied()
            .zip(images.iter().map(|i| &i[..]))
            .collect();
        let token = shard.persist(vt, disk, obj, &pages).unwrap();
        ObjectStore::wait(vt, token);
    }
}

#[test]
fn a_journal_holds_exactly_its_cap_and_the_next_remap_writes_the_fullest_leaf() {
    let (mut disk, mut shard, mut vt) = setup();
    let obj = shard.create(&mut vt, &mut disk, "o").unwrap();
    let mut model = BTreeMap::new();
    // 20 page-grain commits remap exactly JOURNAL_CAP pages, seven apart.
    let pages: Vec<u64> = (0..JOURNAL_CAP as u64).map(|i| i * 7).collect();
    let chunks: Vec<&[u64]> = pages.chunks(JOURNAL_CAP.div_ceil(20)).collect();
    assert_eq!(chunks.len(), 20);
    whole_pages(&mut shard, &mut vt, &mut disk, obj, &mut model, &chunks);
    // The next commit (page 0 again) first writes the compaction root.
    whole_pages(&mut shard, &mut vt, &mut disk, obj, &mut model, &[&[0]]);
    let stats = shard.stats();
    assert_eq!((stats.compaction_roots, stats.nodes_written), (1, 0));
    let root = root_in_slot(&disk, &shard, obj, 1);
    assert_eq!((root.epoch, root.tree_root), (20, 0));
    assert_eq!(
        root.journal.len(),
        JOURNAL_CAP,
        "a full journal is a journal"
    );
    assert_reads_back(&mut shard, &mut vt, &mut disk, obj, &model);
    let reopened = open_shard(&mut Vt::new(2), &mut disk).unwrap();
    assert_eq!(reopened.objects[0].journal.len(), JOURNAL_CAP);

    // Nineteen more commits, one of them a page no journal entry names:
    // the next compaction root would journal JOURNAL_CAP + 1 pages. It
    // writes the leaf holding the most of them — leaf 0, pages 0, 5 and
    // every seventh page below 512 — with the interior nodes above it,
    // and journals the rest.
    let mut more: Vec<&[u64]> = vec![&[0]; 19];
    more[9] = &[5];
    whole_pages(&mut shard, &mut vt, &mut disk, obj, &mut model, &more);
    whole_pages(&mut shard, &mut vt, &mut disk, obj, &mut model, &[&[0]]);
    let stats = shard.stats();
    assert_eq!(stats.compaction_roots, 2);
    assert_eq!(
        stats.nodes_written, 3,
        "leaf 0, the interior node and the root"
    );
    let root = root_in_slot(&disk, &shard, obj, 2);
    let leaf_0 = 1 + 512_usize.div_ceil(7);
    assert_eq!(root.epoch, 40);
    assert_eq!(root.journal.len(), JOURNAL_CAP + 1 - leaf_0);
    assert!(root.tree_root != 0);
    assert!(root.journal.iter().all(|(page, _)| *page >= 512));
    assert_reads_back(&mut shard, &mut vt, &mut disk, obj, &model);
}

/// A root written over an object no write has touched since a reopen —
/// its tree still one unloaded root block — names that tree: a snapshot
/// or a full root of it loses no page across the next reopen.
#[test]
fn a_root_over_an_untouched_reopened_object_names_its_tree() {
    for snapshot in [false, true] {
        let (mut disk, mut shard, mut vt) = setup();
        let obj = shard.create(&mut vt, &mut disk, "o").unwrap();
        let mut model = BTreeMap::new();
        let chunks: &[&[u64]] = &[&[0, 1], &[600, 2], &[1 << 18]];
        whole_pages(&mut shard, &mut vt, &mut disk, obj, &mut model, chunks);
        shard.flush_full_root(&mut vt, &mut disk, obj).unwrap();
        vt.wait_until(shard.last_commit(obj));
        disk.settle();
        let mut vt = Vt::new(2);
        let mut shard = open_shard(&mut vt, &mut disk).unwrap();
        assert_eq!(shard.objects[0].tree.unloaded_nodes(), 1);
        if snapshot {
            shard.snapshot_create(&mut vt, &mut disk, obj, "s").unwrap();
        } else {
            shard.flush_full_root(&mut vt, &mut disk, obj).unwrap();
        }
        vt.wait_until(shard.last_commit(obj));
        let root = root_in_slot(&disk, &shard, obj, shard.objects[0].full_count);
        assert!(root.tree_root != 0, "snapshot {snapshot}");
        assert_reads_back(&mut shard, &mut vt, &mut disk, obj, &model);
    }
}

/// Pages 0..3 written whole under a durable root that writes every node
/// (epoch 3), 20 line commits over them — the compaction root at epoch 23
/// journals the three pages it writes out, over that root's tree — then,
/// once that root is durable, nine whole-page commits of pages 10..19:
/// epoch 33. Returns the device, the shard, the model and the blocks the
/// first root's leaf maps pages 0..3 to.
fn a_journal_over_a_flushed_tree() -> (Disk, StoreShard, BTreeMap<u64, Vec<u8>>, Vec<u64>) {
    let (mut disk, mut shard, mut vt) = setup();
    let obj = shard.create(&mut vt, &mut disk, "o").unwrap();
    let mut model = BTreeMap::new();
    for w in [(0, 0, 1), (1, 0, 2), (2, 0, 3)] {
        commit_sync(&mut shard, &mut vt, &mut disk, obj, &mut model, w);
    }
    shard.flush_full_root(&mut vt, &mut disk, obj).unwrap();
    vt.wait_until(shard.last_commit(obj));
    let nodes = shard.stats().nodes_written;
    let leaves = (0..3)
        .map(|p| shard.objects[0].tree.get(p).unwrap())
        .collect();
    for w in one_line_writes(21) {
        commit_sync(&mut shard, &mut vt, &mut disk, obj, &mut model, w);
    }
    assert_eq!(shard.stats().compaction_roots, 1);
    assert_eq!(shard.stats().nodes_written, nodes, "a journaled root");
    // `roots[1].1` reads `Nanos::MAX` while the device has yet to place
    // the root: ask the device when the root lands.
    vt.wait_until(shard.root_lands(&mut disk, obj, Nanos::MAX).unwrap());
    let pages: Vec<u64> = (10..19).collect();
    let chunks: Vec<&[u64]> = pages.chunks(1).collect();
    whole_pages(&mut shard, &mut vt, &mut disk, obj, &mut model, &chunks);
    assert_eq!(shard.epoch(obj), 33);
    disk.settle();
    (disk, shard, model, leaves)
}

#[test]
fn an_overridden_block_waits_for_the_root_that_writes_its_leaf() {
    // The journaled root overrides the blocks its tree's leaf names for
    // pages 0..3. Those blocks stay allocated until a root that writes
    // that leaf is durable, so recovery starts from either slot while the
    // newer one holds a journal: recycled when the journaled root landed,
    // the whole-page commits after it would reuse them, and the older
    // root's records would patch their lines over another page's bytes.
    let (disk, shard, model, leaves) = a_journal_over_a_flushed_tree();
    let obj = ObjectId(0);
    let newer = root_in_slot(&disk, &shard, obj, 2);
    let older = root_in_slot(&disk, &shard, obj, 1);
    assert_eq!((newer.epoch, newer.journal.len()), (23, 3));
    assert_eq!((older.epoch, older.journal.len()), (3, 0));
    assert_eq!(
        newer.tree_root, older.tree_root,
        "the journal rides the older root's tree"
    );
    let pending: Vec<u64> = shard.objects[0]
        .node_freed_pending
        .values()
        .flatten()
        .copied()
        .collect();
    assert!(
        leaves.iter().all(|b| pending.contains(b)),
        "{leaves:?} wait for a root that writes leaf 0: {pending:?}"
    );
    for corrupt in [None, Some(newer.flush_seq)] {
        let (mut disk, shard, _, _) = a_journal_over_a_flushed_tree();
        if let Some(flush_seq) = corrupt {
            let block = shard.objects[0].entry.root_slot(flush_seq);
            disk.corrupt_bit(block, 20, 0);
        }
        let mut vt = Vt::new(3);
        let mut reopened = open_shard(&mut vt, &mut disk).unwrap();
        assert_eq!(reopened.epoch(obj), 33, "newer slot corrupted: {corrupt:?}");
        let got = read_all(&mut reopened, &mut vt, &mut disk, obj, &model);
        assert_eq!(got, model, "newer slot corrupted: {corrupt:?}");
    }
}

#[test]
fn any_bit_flip_of_a_journaled_root_recovers_the_same_state() {
    // Each bit of the record (and every 61st byte of the padding after
    // it): the slot is rejected and recovery starts at the older root —
    // whose leaves still name what the journal overrode — or the flip is
    // in padding and the root is adopted as written. Either way the
    // object reopens at epoch 33 holding the model.
    let (mut disk, shard, model, _) = a_journal_over_a_flushed_tree();
    let obj = ObjectId(0);
    let newer = root_in_slot(&disk, &shard, obj, 2);
    let slot = shard.objects[0].entry.root_slot(newer.flush_seq);
    let end = 80 + 16 * newer.journal.len();
    let bytes = (0..end).chain((end..BLOCK_SIZE).step_by(61));
    let mut rejected = 0;
    for byte in bytes {
        for bit in 0..8 {
            disk.corrupt_bit(slot, byte, bit);
            rejected +=
                usize::from(RootRecord::from_block(&disk.peek(slot).unwrap(), obj).is_none());
            let mut vt = Vt::new(3);
            let mut reopened = open_shard(&mut vt, &mut disk).unwrap();
            assert_eq!(reopened.epoch(obj), 33, "byte {byte} bit {bit}");
            let got = read_all(&mut reopened, &mut vt, &mut disk, obj, &model);
            assert_eq!(got, model, "byte {byte} bit {bit}");
            disk.corrupt_bit(slot, byte, bit);
        }
    }
    assert_eq!(rejected, 8 * end, "every bit of the record is sealed");
}

#[test]
fn scrub_heals_a_leaf_image_only_the_roots_still_name() {
    // The journaled root names the first root's tree, and in memory the
    // leaf under pages 0..19 is dirty: its image on disk is a base that
    // only the two roots reach. Rot it: scrub verifies it like any
    // committed node, quarantines it and heals it with a root that writes
    // the leaf, so the object reopens whole.
    let (mut disk, mut shard, model, _) = a_journal_over_a_flushed_tree();
    let obj = ObjectId(0);
    let older = root_in_slot(&disk, &shard, obj, 1);
    assert!(!root_in_slot(&disk, &shard, obj, 2).journal.is_empty());
    let bases = shard.objects[0].tree.committed_nodes();
    assert_eq!(
        bases.len(),
        3,
        "the first root's root, interior node and leaf"
    );
    assert_eq!(bases[0].0, older.tree_root);
    let (leaf, _) = bases[2];
    disk.corrupt_bit(leaf, 100, 1);
    let mut vt = Vt::new(4);
    vt.wait_until(shard.last_commit(obj));
    let found = shard.scrub(&mut vt, &mut disk, 1 << 20).unwrap();
    assert_eq!((found.corruptions_found, found.repairs), (1, 1));
    assert!(shard.quarantined.contains(&leaf));
    vt.wait_until(shard.last_commit(obj));
    disk.settle();
    let mut vt = Vt::new(5);
    let mut reopened = open_shard(&mut vt, &mut disk).unwrap();
    assert_eq!(reopened.epoch(obj), 33);
    assert_eq!(
        read_all(&mut reopened, &mut vt, &mut disk, obj, &model),
        model
    );
}

/// The 300 pages [`drive_wide`] writes, 97 apart: ≈ 60 leaves.
fn wide_pages() -> impl Iterator<Item = u64> {
    (0..300).map(|j| j * 97)
}

/// `commits` commits of eight pages each over [`wide_pages`], issued by
/// `threads` threads on a two-channel pool: one line each, but every
/// fifth commit rewrites its pages whole, so page-grain pairs feed the
/// journal beside the overlay pages the compaction roots write out
/// (≈ 130 a root), and the journal passes its cap at every second root.
/// Returns the device, each commit's durability instant with the digest
/// of every page after it, the statistics, and each compaction root's
/// submission instant and epoch.
#[allow(clippy::type_complexity)]
fn drive_wide(
    threads: u32,
    commits: u64,
) -> (
    Disk,
    Vec<(Nanos, Vec<u32>)>,
    StoreStats,
    Vec<(Nanos, Epoch)>,
) {
    let mut disk = Disk::new(DiskConfig::paper());
    let mut shard = format_shard(&mut disk);
    let mut vt = Vt::new(0);
    let obj = shard.create(&mut vt, &mut disk, "o").unwrap();
    let mut clocks: Vec<Vt> = (0..threads).map(Vt::new).collect();
    let mut model = BTreeMap::new();
    let mut digests = vec![layout::digest32(&page_of(0)); 300];
    let (mut acked, mut roots) = (Vec::new(), Vec::new());
    for i in 0..commits {
        let mut writes: Vec<Write> = (0..8)
            .map(|m| {
                let mask = if i % 5 == 4 { 0 } else { 1 << ((i + m) % 64) };
                ((i * 8 + m) % 300 * 97, mask, (i % 251) as u8 + 1)
            })
            .collect();
        writes.sort_unstable();
        let images: Vec<Vec<u8>> = writes.iter().map(|w| apply(&mut model, *w)).collect();
        let pages: Vec<(u64, &[u8], u64)> = writes
            .iter()
            .zip(&images)
            .map(|(w, image)| (w.0, &image[..], w.1))
            .collect();
        let clock = clocks.iter_mut().min_by_key(|c| c.now()).unwrap();
        let (submitted, before) = (clock.now(), shard.stats().compaction_roots);
        let token = shard
            .persist_batch(clock, &mut disk, &[(obj, &pages[..])])
            .unwrap()[0];
        if shard.stats().compaction_roots > before {
            roots.push((submitted, shard.epoch(obj)));
        }
        ObjectStore::wait(clock, token);
        for (w, image) in writes.iter().zip(&images) {
            digests[(w.0 / 97) as usize] = layout::digest32(image);
        }
        acked.push((token.completes, digests.clone()));
    }
    (disk, acked, shard.stats(), roots)
}

#[test]
fn every_io_boundary_across_a_journal_overflow_recovers_an_acked_prefix() {
    // Four threads keep the device busy, so each root waits for a gap
    // and the next compaction for it: roots come ≈ 70 epochs apart.
    for (threads, commits) in [(1, 90), (4, 240)] {
        let (_, acked, stats, roots) = drive_wide(threads, commits);
        assert!(stats.compaction_roots >= 4, "{threads}: {stats:?}");
        assert_eq!(
            (stats.line_commits, stats.delta_commits),
            (commits * 4 / 5, commits),
            "{threads}: every commit a record, one in five page-grain"
        );
        assert!(stats.nodes_written > 0, "{threads}: a journal overflowed");
        // A compaction root is an idle write of ≈ 130 blocks: sixteen
        // segments and its record, each a boundary the sweep crashes on
        // once the device places it, so the crash finds the newest root
        // submitted by then unplaced, partly placed or in service.
        let (mut in_flight, mut landed) = (0, 0);
        let points = crash_at_every_io(
            || drive_wide(threads, commits).0,
            |mut disk, at| {
                let durable = acked.iter().filter(|(done, _)| *done <= at).count();
                let mut vt = Vt::new(3);
                let mut shard = open_shard(&mut vt, &mut disk).unwrap();
                let Some(obj) = shard.lookup("o") else {
                    assert_eq!(durable, 0, "crash at {at:?} lost the object");
                    return;
                };
                let adopted = shard.objects[obj.0 as usize].roots[1].0;
                if let Some(&(_, root)) = roots.iter().rev().find(|(t, _)| *t <= at) {
                    if adopted < root {
                        in_flight += 1;
                    } else {
                        landed += 1;
                    }
                }
                let epoch = shard.epoch(obj) as usize;
                assert!(epoch >= durable, "{at:?}: epoch {epoch} < {durable} acked");
                let mut got = Vec::new();
                for page in wide_pages() {
                    let mut buf = page_of(0);
                    shard
                        .read_page(&mut vt, &mut disk, obj, page, &mut buf)
                        .unwrap();
                    got.push(layout::digest32(&buf));
                }
                let zero = vec![layout::digest32(&page_of(0)); 300];
                let want = epoch.checked_sub(1).map_or(&zero, |e| &acked[e].1);
                assert_eq!(&got, want, "crash at {at:?}, epoch {epoch}");
            },
        );
        assert!(
            points > commits as usize,
            "{threads}: {points} crash points"
        );
        assert!(
            in_flight >= 16 && landed > 0,
            "{threads}: {in_flight} / {landed}"
        );
    }
}

/// What [`drive_busy`] saw after one commit of "o".
struct BusyCommit {
    token: CommitToken,
    window: u64,
    /// The newest root is an idle write the device has not placed whole.
    landing: bool,
    /// When that root lands, once known.
    root_lands: Nanos,
    /// The epoch of the root before it.
    previous: Epoch,
    submissions: u64,
}

/// `commits` one-line commits of object "o" over 24 pages, each behind a
/// 16-block write of another tenant straight to the device, the clock
/// moving 24 µs a round past the commit. Every submission is made at the clock, and
/// each round brings more work than the two channels clear in it, so
/// every channel is wanted before it frees and no idle segment ever
/// finds a gap (asserted). Checks after every commit of "o" that its
/// window stays under `DELTA_SLOTS` and that a root covering the ring
/// slot its record reused was durable before the record. Returns the
/// device, each commit of "o"'s durability instant with its pages, and
/// what each commit saw.
#[allow(clippy::type_complexity)]
fn drive_busy(commits: u64) -> (Disk, Vec<(Nanos, BTreeMap<u64, Vec<u8>>)>, Vec<BusyCommit>) {
    let mut acked = Vec::new();
    let (disk, seen) = drive_busy_acking(commits, |done, model| acked.push((done, model.clone())));
    (disk, acked, seen)
}

/// The device [`drive_busy`] leaves, without a copy of the model per
/// commit: what a crash sweep re-runs.
fn busy_disk(commits: u64) -> Disk {
    drive_busy_acking(commits, |_, _| {}).0
}

/// [`drive_busy`], handing `ack` each commit's durability instant and
/// the model after it.
fn drive_busy_acking(
    commits: u64,
    mut ack: impl FnMut(Nanos, &BTreeMap<u64, Vec<u8>>),
) -> (Disk, Vec<BusyCommit>) {
    let mut disk = Disk::new(DiskConfig::paper());
    let mut shard = format_shard(&mut disk);
    let mut vt = Vt::new(0);
    let obj = shard.create(&mut vt, &mut disk, "o").unwrap();
    let filler = page_of(0xEE);
    let tenant: Vec<(u64, &[u8])> = (0..16).map(|b| (1 << 40 | b, &filler[..])).collect();
    let (mut model, mut seen) = (BTreeMap::new(), Vec::new());
    for i in 0..commits {
        assert!(
            i == 0 || disk.idle_at() > vt.now(),
            "round {i}: a channel is free"
        );
        disk.writev_at(vt.now(), &tenant).unwrap();
        let ios = disk.io_seq();
        let w = (i % 24, 1 << (i % 64), (i % 251) as u8 + 1);
        let token = commit(&mut shard, &mut vt, &mut disk, obj, &mut model, w, true);
        let state = &shard.objects[obj.0 as usize];
        assert!(state.window() < DELTA_SLOTS, "window {}", state.window());
        // The ring slot the record sits in: a folded commit's is its
        // queued record's.
        let slot = state
            .queued
            .as_ref()
            .map_or(token.epoch, |q| q.first_epoch());
        let reused = slot.saturating_sub(DELTA_SLOTS);
        if reused > 0 {
            let covering = state.roots.into_iter().find(|(e, _)| *e >= reused);
            let (_, lands) = covering.expect("a root covers the slot");
            assert!(lands < token.completes, "record {slot} before its root");
        }
        seen.push(BusyCommit {
            token,
            window: state.window(),
            landing: state.landing.is_some(),
            root_lands: state.roots[1].1,
            previous: state.roots[0].0,
            submissions: disk.io_seq() - ios,
        });
        ack(token.completes, &model);
        vt.advance(Nanos::from_us(24));
    }
    (disk, seen)
}

#[test]
fn on_a_device_kept_busy_roots_land_only_when_forced() {
    // Each root waits PLACE_ROOT_AT epochs, lands, and only then lets
    // the next compaction write one: five roots take ≈ 620 commits.
    let (_, _, seen) = drive_busy(620);
    let roots = seen.iter().filter(|c| c.window == 0).count();
    assert!(roots >= 5, "{roots} compaction roots");
    for c in seen.iter().skip(20) {
        // No root found a gap: each waited until the commit
        // PLACE_ROOT_AT epochs above it, or until a record reused a ring
        // slot the root before it does not cover (R1′), whichever came
        // first.
        let covered = c.token.epoch <= c.previous + DELTA_SLOTS;
        assert_eq!(
            c.landing,
            c.window < PLACE_ROOT_AT && covered,
            "epoch {}",
            c.token.epoch
        );
    }
    // The sweep covers the first root unplaced, forced, in service and
    // durable, and the second unplaced.
    let (_, acked, seen) = drive_busy(160);
    let forced = seen.iter().filter(|c| c.window == PLACE_ROOT_AT).count();
    assert_eq!(forced, 1);
    assert!(seen.last().is_some_and(|c| c.landing));
    let points = crash_at_every_io(
        || busy_disk(160),
        |disk, at| {
            let durable = acked.iter().filter(|(done, _)| *done <= at).count();
            let Some((epoch, got)) = recover(disk, 24) else {
                assert_eq!(durable, 0, "crash at {at:?} lost the object");
                return;
            };
            let epoch = epoch as usize;
            assert!(epoch >= durable, "{at:?}: epoch {epoch} < {durable} acked");
            let mut want: BTreeMap<u64, Vec<u8>> = (0..24).map(|p| (p, page_of(0))).collect();
            if epoch > 0 {
                want.extend(acked[epoch - 1].1.clone());
            }
            assert_eq!(got, want, "crash at {at:?}, epoch {epoch}");
        },
    );
    assert!(points > 2 * 160, "{points} crash points");
}

#[test]
fn an_unplaced_root_is_placed_right_behind_the_record_of_its_forcing_commit() {
    // Roots at 20 and ≈ 156, forced PLACE_ROOT_AT epochs up.
    let (_, _, seen) = drive_busy(300);
    let mut promoted = 0;
    for pair in seen.windows(2).filter(|p| p[1].window == PLACE_ROOT_AT) {
        let [before, sixth] = pair else {
            unreachable!()
        };
        if !before.landing {
            continue; // the object's first window: no compaction root yet
        }
        assert!(!sixth.landing, "epoch {}", sixth.token.epoch);
        assert!(sixth.submissions <= 1, "placing the root submits nothing");
        assert!(
            sixth.root_lands > sixth.token.completes,
            "behind the record"
        );
        promoted += 1;
    }
    assert!(promoted >= 2, "{promoted}");
}

/// Nineteen synchronous line commits of "o" over 19 pages, then the
/// twentieth issued behind a 48-page commit of "b": the compaction root
/// it writes (19 overlay pages in three segments, then its record) is
/// submitted while both channels are busy. Returns the device, the
/// shard, "o"'s acknowledged commits and the root's submission instant.
#[allow(clippy::type_complexity)]
fn a_root_behind_foreground_io() -> (
    Disk,
    StoreShard,
    Vec<(Nanos, BTreeMap<u64, Vec<u8>>)>,
    Nanos,
) {
    let mut disk = Disk::new(DiskConfig::paper());
    let mut shard = format_shard(&mut disk);
    let mut vt = Vt::new(0);
    let obj = shard.create(&mut vt, &mut disk, "o").unwrap();
    let busy = shard.create(&mut vt, &mut disk, "b").unwrap();
    let (mut model, mut acked) = (BTreeMap::new(), Vec::new());
    for i in 0..COMPACT_AFTER {
        if i == COMPACT_AFTER - 1 {
            let filler = page_of(0xEE);
            let filler: Vec<(u64, &[u8])> = (0..48).map(|p| (p, &filler[..])).collect();
            shard.persist(&mut vt, &mut disk, busy, &filler).unwrap();
        }
        let w = (i, 1 << (i % 64), i as u8 + 1);
        let token = commit(&mut shard, &mut vt, &mut disk, obj, &mut model, w, true);
        acked.push((token.completes, model.clone()));
        if i < COMPACT_AFTER - 1 {
            ObjectStore::wait(&mut vt, token);
        }
    }
    (disk, shard, acked, vt.now())
}

#[test]
fn a_crash_recovers_a_prefix_whether_the_root_is_unplaced_partly_placed_or_placed() {
    let (mut disk, mut shard, acked, submitted) = a_root_behind_foreground_io();
    assert_eq!(shard.stats().compaction_roots, 1);
    assert!(
        disk.idle_at() > submitted,
        "no channel could start the root"
    );
    let before = disk.write_completions().len();
    let (io, _) = shard.objects[0].landing.take().expect("the root waits");
    let lands = disk.idle_lands(&io, Nanos::MAX).unwrap();
    let segments = disk.write_completions()[before..].to_vec();
    assert_eq!(segments.len(), 4, "three extent segments and the record");
    assert_eq!(segments.last(), Some(&lands));
    for (at, state, root) in [
        (submitted, "unplaced", 0),
        (segments[0], "partly placed", 0),
        (lands - Nanos::from_ns(1), "placed, in service", 0),
        (lands, "durable", COMPACT_AFTER),
    ] {
        let (mut disk, ..) = a_root_behind_foreground_io();
        disk.crash(at);
        let durable = acked.iter().filter(|(done, _)| *done <= at).count();
        let mut vt = Vt::new(3);
        let mut shard = open_shard(&mut vt, &mut disk).unwrap();
        let obj = shard.lookup("o").unwrap();
        assert_eq!(shard.objects[0].roots[1].0, root, "{state}");
        let epoch = shard.epoch(obj) as usize;
        assert!(epoch >= durable, "{state}: epoch {epoch} < {durable} acked");
        let got = read_all(&mut shard, &mut vt, &mut disk, obj, &acked[epoch - 1].1);
        assert_eq!(got, acked[epoch - 1].1, "{state}");
    }
}

mod equivalence {
    use super::*;
    use proptest::prelude::*;

    /// A write from raw draws: the mask is nothing (page-grain), every
    /// line, arbitrary, one line, or sparse — a third each of the last
    /// two, where line-grain commits live.
    fn write_of((page, kind, a, b, fill): (u64, u8, u64, u64, u8)) -> Write {
        let mask = match kind {
            0 => 0,
            1 => u64::MAX,
            2 => a,
            3 | 4 => 1 << (a % 64),
            _ => a & b,
        };
        (page, mask, fill)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Line-grain ≡ page-grain after recovery: the same writes,
        /// committed with their masks or as whole pages, cut by a crash
        /// after the same acknowledged commit, recover byte for byte the
        /// same object at the same epoch.
        #[test]
        fn line_grain_recovers_what_page_grain_recovers(
            draws in prop::collection::vec(
                (0u64..4, 0u8..7, any::<u64>(), any::<u64>(), 1u8..=255),
                1..80,
            ),
            cut in any::<u64>(),
        ) {
            let writes: Vec<Write> = draws.into_iter().map(write_of).collect();
            let (mut with_lines, acked_lines) = drive(&writes, true);
            let (mut with_pages, acked_pages) = drive(&writes, false);
            let cut = (cut % writes.len() as u64) as usize;
            with_lines.crash(acked_lines[cut].0);
            with_pages.crash(acked_pages[cut].0);
            let got_lines = recover(with_lines, 3).expect("the object exists");
            let got_pages = recover(with_pages, 3).expect("the object exists");
            prop_assert_eq!(got_lines.0, cut as u64 + 1);
            prop_assert_eq!(&got_lines, &got_pages);
            let mut want: BTreeMap<u64, Vec<u8>> = (0..3).map(|p| (p, page_of(0))).collect();
            for (page, image) in &acked_pages[cut].1 {
                if *page < 3 {
                    want.insert(*page, image.clone());
                }
            }
            prop_assert_eq!(got_lines.1, want);
        }
    }
}
