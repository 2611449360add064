//! The commit pipeline: every μCheckpoint from dirty set to durable epoch.
//!
//! **take → `commit_batch` → settle.** [`MemSnap::take`] is the one
//! dirty-set gather, [`MemSnap::commit_batch`] the one call that hands
//! region data to the store (durability first, memory second), and the
//! doors around them — [`MemSnap::msnap_persist`] in place,
//! [`MemSnap::msnap_persist_grouped`] / [`MemSnap::msnap_group_poll`]
//! through a coalescing window — are policy: what each charges, and when
//! it freezes and re-arms tracking (DESIGN.md §6c has the table).
//! [`MemSnap::msnap_wait`] and the fsync gates settle what was issued.

use std::collections::HashMap;

use msnap_sim::{Category, Nanos, Vt, VthreadId};
use msnap_vm::{DirtyPage, ResetStrategy};

use crate::api::{MemSnap, SYSCALL_COST};
use crate::types::{CommitTicket, Md, MsnapError, PersistBreakdown, PersistFlags, RegionSel};
use crate::Epoch;

/// Cost of copying one dirty page into the coalescing buffer at
/// group-commit enqueue time (an eager COW of the checkpoint image).
const GATHER_PER_PAGE: Nanos = Nanos::from_ns(150);

/// Default group-commit coalescing window (see
/// [`MemSnap::set_coalesce_window`]).
pub(crate) const DEFAULT_COALESCE_WINDOW: Nanos = Nanos::from_us(8);

/// Depth of the `MS_ASYNC` writeback pipeline: how many asynchronous
/// μCheckpoints may be in flight before admission blocks on the oldest.
const PIPELINE_DEPTH: usize = 8;

/// Coalescing lane for `RegionSel::All` group participants, whose dirty
/// sets may span every shard.
const ALL_LANE: u64 = u64::MAX;

/// One taken dirty page on its way into a μCheckpoint: its region index,
/// its dirty-list entry (kept so a failed commit can put it back —
/// fsync-gate retry semantics) and its image. `None` persists the page
/// **in place** from the VM page: the checkpoint-in-progress mark is the
/// COW. `Some` is the grouped door's eager copy, fixed at enqueue — later
/// writes to the page land in the writer's own dirty set and cannot
/// bleed into this μCheckpoint.
pub(crate) type TakenPage = (u32, DirtyPage, Option<Vec<u8>>);

/// One caller's contribution to a μCheckpoint.
#[derive(Debug)]
pub(crate) struct Participant {
    thread: VthreadId,
    sel: RegionSel,
    pages: Vec<TakenPage>,
    /// Enqueue instant, for end-to-end latency metering.
    start: Nanos,
}

/// What one [`MemSnap::commit_batch`] made durable.
pub(crate) struct Committed {
    /// Durability instant of the whole batch.
    completes: Nanos,
    /// How many regions it advanced by one epoch.
    regions: usize,
}

/// A group commit accepting participants until its window closes.
#[derive(Debug)]
pub(crate) struct OpenBatch {
    id: u64,
    /// The instant the batch closes — the coalescing window after the
    /// opener, or the instant the device frees a channel if that is
    /// later; the first poll at or after this instant flushes the batch.
    submit_at: Nanos,
    participants: Vec<Participant>,
}

/// A flushed group commit awaiting its participants' polls.
#[derive(Debug)]
pub(crate) struct FinishedBatch {
    /// Batch-wide outcome: a faulted batch fails *every* participant.
    error: Option<MsnapError>,
    /// Durability instant of the combined commit record.
    completes: Nanos,
    /// Per-participant `(epoch, enqueue instant)`, removed as each
    /// participant polls; the batch is pruned when the map drains.
    results: HashMap<u32, (Epoch, Nanos)>,
}

impl MemSnap {
    /// Persists a μCheckpoint: the dirty pages of the calling `thread`
    /// (or of all threads with [`PersistFlags::global`]) restricted to
    /// `sel`, atomically, into the object store. Returns the epoch to pass
    /// to [`MemSnap::msnap_wait`].
    ///
    /// With `flags.sync` the call blocks until durable; with `MS_ASYNC` it
    /// returns after initiating the IO, and concurrent writes to in-flight
    /// pages take the COW path instead of blocking.
    ///
    /// # Errors
    ///
    /// [`MsnapError::BadDescriptor`] for an unknown region.
    /// [`MsnapError::Store`] when the μCheckpoint IO fails or the device
    /// is out of space; the error is then *sticky* for the affected
    /// region (reported by every later persist/wait until acknowledged
    /// via [`MemSnap::msnap_ack_error`]) and the failed pages remain
    /// dirty, so an acknowledged retry persists them.
    pub fn msnap_persist(
        &mut self,
        vt: &mut Vt,
        thread: VthreadId,
        sel: RegionSel,
        flags: PersistFlags,
    ) -> Result<Epoch, MsnapError> {
        let start = vt.now();
        vt.charge(Category::Memsnap, SYSCALL_COST);
        if let Some(e) = self.sticky_error(sel) {
            return Err(e);
        }

        // MS_ASYNC admission: at most `PIPELINE_DEPTH` μCheckpoints may be
        // in flight; a full pipeline blocks here for the oldest one.
        let admit_wait = if flags.sync {
            Nanos::ZERO
        } else {
            self.pipeline_admit(vt)
        };

        // One batch of one in-place participant per region, in region
        // order: one scatter/gather μCheckpoint IO per object modified.
        let mut taken = self.take(thread, sel, flags.global)?;
        taken.sort_by_key(|t| t.0);
        let mut parts: Vec<Participant> = Vec::new();
        for t in taken {
            match parts.last_mut() {
                Some(p) if p.pages[0].0 == t.0 => p.pages.push(t),
                _ => parts.push(Participant {
                    thread,
                    sel,
                    pages: vec![t],
                    start,
                }),
            }
        }
        let t_init = vt.now();
        let mut completes = vt.now();
        let mut committed: Vec<DirtyPage> = Vec::new();
        let mut failure: Option<MsnapError> = None;
        for p in &mut parts {
            if failure.is_some() {
                // A prior region already failed: leave the rest dirty and
                // untouched rather than checkpointing half the selector.
                self.untake(p);
                continue;
            }
            match self.commit_batch(vt, std::slice::from_mut(p)) {
                Ok(done) => {
                    completes = completes.max(done.completes);
                    committed.extend(p.pages.iter().map(|t| t.1));
                }
                Err(e) => failure = Some(e),
            }
        }
        let initiating = vt.now() - t_init;

        // Freeze (checkpoint-in-progress) and re-arm tracking.
        self.vm.freeze(&committed, completes);
        let resetting = if committed.is_empty() {
            Nanos::ZERO
        } else {
            self.vm
                .reset_protection(vt, &committed, ResetStrategy::TraceBuffer)
        };
        let pages = committed.len() as u64;

        let mut waiting = admit_wait;
        let result = match failure {
            // Regions persisted before the failure stay committed (their
            // completions are recorded); the selector's epoch does not
            // advance and the caller sees the error now — and again on
            // every persist/wait until acknowledged.
            Some(e) => Err(e),
            None => {
                self.stamp_all(completes);
                // Synchronous callers block until durable; async callers
                // join the writeback pipeline instead.
                if flags.sync && completes > vt.now() {
                    waiting = completes - vt.now();
                    vt.charge(Category::IoWait, waiting);
                } else if !flags.sync && pages > 0 {
                    self.pipeline.push_back(completes);
                }
                Ok(self.newest_epoch(sel))
            }
        };
        self.last_breakdown = PersistBreakdown {
            resetting_tracking: resetting,
            initiating_writes: initiating,
            waiting_on_io: waiting,
            pages,
        };
        self.meters.record("msnap_persist", vt.now() - start);
        result
    }

    /// Takes the dirty set a μCheckpoint of `sel` covers — the calling
    /// thread's, or every thread's with `MS_GLOBAL` — tagging each entry
    /// with its region; every page is in place until a door copies it.
    fn take(
        &mut self,
        thread: VthreadId,
        sel: RegionSel,
        global: bool,
    ) -> Result<Vec<TakenPage>, MsnapError> {
        let filter = match sel {
            RegionSel::All => None,
            RegionSel::Region(md) => Some(self.region_of(md)?.vm_obj),
        };
        let others = if global {
            self.vm.threads_with_dirty()
        } else {
            Vec::new()
        };
        let caller = (!others.contains(&thread)).then_some(thread);
        let mut taken = Vec::new();
        for t in others.into_iter().chain(caller) {
            for e in self.vm.take_dirty(t, filter) {
                let region = match sel {
                    RegionSel::Region(md) => md.0 as usize,
                    RegionSel::All => self
                        .regions
                        .iter()
                        .position(|r| r.vm_obj == e.object)
                        .expect("dirty pages in tracked mappings belong to regions"),
                };
                taken.push((region as u32, e, None));
            }
        }
        Ok(taken)
    }

    /// The one place region data reaches the store — durability first,
    /// memory second. Merges the participants' page images per region in
    /// page order (a later participant's image of a page wins: it was
    /// taken later and contains the earlier writes too, so the lines
    /// changed since the previous commit are the union), commits them
    /// with one [`ObjectStore::persist_batch`], and only then touches
    /// memory state. On success: each region's dirty-line record and
    /// completion instant. On failure the store aborted and the durable
    /// image still holds the previous epochs: every involved region arms
    /// its fsync gate and every participant's pages go back to its dirty
    /// set for a post-ack retry. All-or-nothing per call (if the store
    /// had to split the commit and a later unit failed, the earlier
    /// units are durable but unrecorded: the retry rewrites the same
    /// bytes, and the gap in the dirty-line chain reads as "unknown").
    /// The call charges nothing itself — admission, freeze/reset and
    /// waiting are the doors' policy.
    fn commit_batch(
        &mut self,
        vt: &mut Vt,
        parts: &mut [Participant],
    ) -> Result<Committed, MsnapError> {
        // Stable sort: a page's images stay in arrival order.
        let mut taken: Vec<&TakenPage> = parts.iter().flat_map(|p| &p.pages).collect();
        taken.sort_by_key(|t| (t.0, t.1.obj_page));
        // `(region, page, dirty lines)` and, in step, the store's iovec
        // of `(page, image, lines the store may commit line-grain)`.
        let mut keys: Vec<(u32, u64, u64)> = Vec::with_capacity(taken.len());
        let mut iov: Vec<(u64, &[u8], u64)> = Vec::with_capacity(taken.len());
        for (region, e, copy) in taken {
            let bytes = match copy {
                Some(copy) => &copy[..],
                None => self.vm.page_bytes(e),
            };
            // The store gets the lines only for an image taken in place
            // with no eager copy outstanding: a grouped door's copy was
            // cut from the page earlier than it commits, so its lines (and
            // those of an in-place image that overtakes it) are not the
            // diff against what the store holds. Zero is "unknown": the
            // page commits whole. ROADMAP item 2(a) removes this restriction
            // (it is blocked on the harness, item 0(a)).
            let known = copy.is_none() && self.open_batches.is_empty();
            let lines = if known { e.lines } else { 0 };
            match keys.last_mut() {
                Some(k) if (k.0, k.1) == (*region, e.obj_page) => {
                    k.2 |= e.lines;
                    let last = iov.last_mut().expect("in step with keys");
                    (last.1, last.2) = (bytes, last.2 | lines);
                }
                _ => {
                    keys.push((*region, e.obj_page, e.lines));
                    iov.push((e.obj_page, bytes, lines));
                }
            }
        }
        // One store group per region: its run of `keys`, with the object
        // and its previous epoch, beside the same run of the iovec.
        let mut runs = Vec::new();
        let mut groups = Vec::new();
        let mut rest = &iov[..];
        for run in keys.chunk_by(|a, b| a.0 == b.0) {
            let obj = self.regions[run[0].0 as usize].store_obj;
            let (pages, tail) = rest.split_at(run.len());
            runs.push((obj, self.store.epoch(obj), run));
            groups.push((obj, pages));
            rest = tail;
        }
        match self.store.persist_batch(vt, &mut self.disk, &groups) {
            Ok(tokens) => {
                let mut completes = Nanos::ZERO;
                for (&(obj, prev, run), token) in runs.iter().zip(&tokens) {
                    let lines = run.iter().map(|k| (k.1, k.2));
                    self.record_subpage(obj, prev, token.epoch, lines);
                    self.completions
                        .entry(RegionSel::Region(Md(run[0].0)))
                        .or_default()
                        .insert(token.epoch, token.completes);
                    completes = completes.max(token.completes);
                }
                Ok(Committed {
                    completes,
                    regions: runs.len(),
                })
            }
            Err(e) => {
                let err = MsnapError::from(e);
                for (.., run) in &runs {
                    self.sticky.insert(run[0].0, err.clone());
                }
                for p in parts {
                    self.untake(p);
                }
                Err(err)
            }
        }
    }

    /// Puts a participant's taken entries back in its thread's dirty set:
    /// a failed μCheckpoint must not drop the pages it was persisting.
    fn untake(&mut self, p: &mut Participant) {
        let entries = p.pages.drain(..).map(|t| t.1).collect();
        self.vm.untake_dirty(p.thread, entries);
    }

    /// Issues the next epoch of the all-regions selector, durable at
    /// `completes`.
    fn stamp_all(&mut self, completes: Nanos) {
        self.all_epoch += 1;
        self.completions
            .entry(RegionSel::All)
            .or_default()
            .insert(self.all_epoch, completes);
    }

    /// The newest epoch of `sel`: what a commit just issued, or — nothing
    /// was dirty — what the selector already stood at.
    fn newest_epoch(&self, sel: RegionSel) -> Epoch {
        match sel {
            RegionSel::All => self.all_epoch,
            RegionSel::Region(md) => self.store.epoch(self.regions[md.0 as usize].store_obj),
        }
    }

    /// Sets the group-commit coalescing window: `msnap_persist_grouped`
    /// calls arriving within `window` of the batch opener merge into one
    /// μCheckpoint IO. `Nanos::ZERO` disables coalescing across time (only
    /// same-instant callers merge).
    pub fn set_coalesce_window(&mut self, window: Nanos) {
        self.coalesce_window = window;
    }

    /// Joins (or opens) a group commit with the calling thread's dirty
    /// pages of `sel`, returning a [`CommitTicket`] to redeem with
    /// [`MemSnap::msnap_group_poll`].
    ///
    /// The door is `MS_SYNC` and per-thread: the poll that redeems the
    /// ticket blocks until the batch is durable (`MS_ASYNC` and
    /// `MS_GLOBAL` are [`MemSnap::msnap_persist`]'s). The enqueue itself
    /// is cheap: the dirty set is taken, the page images are copied into
    /// the coalescing buffer (an eager COW, so the caller may keep
    /// writing immediately), and tracking is re-armed. The combined
    /// μCheckpoint IO — one scatter/gather extent plus one commit record
    /// for *all* participants — is initiated when the batch closes, by
    /// the first poller to reach that instant. A batch closes when its
    /// window does, or — device pacing — when the device frees a channel
    /// if every channel is still busy then: a submission made earlier
    /// would only queue behind the work in flight, so holding the batch
    /// costs it no more than its flusher's CPU after the device frees,
    /// and lets later enqueuers share the IO.
    ///
    /// # Errors
    ///
    /// [`MsnapError::BadDescriptor`] for an unknown region, or the
    /// region's sticky error (see [`MemSnap::msnap_persist`]).
    pub fn msnap_persist_grouped(
        &mut self,
        vt: &mut Vt,
        thread: VthreadId,
        sel: RegionSel,
    ) -> Result<CommitTicket, MsnapError> {
        vt.charge(Category::Memsnap, SYSCALL_COST);
        if let Some(e) = self.sticky_error(sel) {
            return Err(e);
        }
        let lane = self.lane_of(sel)?;
        // A late arrival cannot join a window that has already closed:
        // flush the lane's stale batch first (this enqueuer pays for it).
        if matches!(self.open_batches.get(&lane), Some(b) if vt.now() >= b.submit_at) {
            self.flush_open_batch(vt, lane);
        }

        // Eagerly copy the page images: the μCheckpoint content is fixed
        // here, so the caller's next write needs no COW machinery.
        let mut pages = self.take(thread, sel, false)?;
        if !pages.is_empty() {
            let entries: Vec<DirtyPage> = pages.iter().map(|t| t.1).collect();
            for t in &mut pages {
                t.2 = Some(self.vm.page_bytes(&t.1).to_vec());
            }
            vt.charge(Category::Memsnap, GATHER_PER_PAGE * entries.len() as u64);
            self.vm.freeze(&entries, vt.now());
            self.vm
                .reset_protection(vt, &entries, ResetStrategy::TraceBuffer);
        }

        let participant = Participant {
            thread,
            sel,
            pages,
            start: vt.now(),
        };
        let submit_at = (vt.now() + self.coalesce_window).max(self.disk.idle_at());
        let batch = self.open_batches.entry(lane).or_insert_with(|| {
            let id = self.batch_seq;
            self.batch_seq += 1;
            OpenBatch {
                id,
                submit_at,
                participants: Vec::new(),
            }
        });
        batch.participants.push(participant);
        Ok(CommitTicket {
            batch: batch.id,
            participant: (batch.participants.len() - 1) as u32,
        })
    }

    /// The coalescing lane a selector's commits serialize on: the shard
    /// of the region's store object, or [`ALL_LANE`] for `All`.
    fn lane_of(&self, sel: RegionSel) -> Result<u64, MsnapError> {
        match sel {
            RegionSel::All => Ok(ALL_LANE),
            RegionSel::Region(md) => {
                Ok(self.store.shard_of_id(self.region_of(md)?.store_obj) as u64)
            }
        }
    }

    /// Polls a group commit joined via [`MemSnap::msnap_persist_grouped`].
    ///
    /// Returns `Ok(None)` while the batch is still open (the caller's
    /// clock is advanced to the batch close, so the next poll makes
    /// progress); a lone participant flushes on its first poll when the
    /// device has an idle channel. Once flushed, blocks until the batch
    /// is durable and returns the participant's epoch. Each ticket is
    /// redeemable exactly once.
    ///
    /// # Errors
    ///
    /// The batch's error, for *every* participant, if the combined
    /// μCheckpoint IO failed — each involved region's error is sticky and
    /// each participant's pages went back to its dirty set for a post-ack
    /// retry. [`MsnapError::BadDescriptor`] for an unknown or already
    /// redeemed ticket.
    pub fn msnap_group_poll(
        &mut self,
        vt: &mut Vt,
        ticket: CommitTicket,
    ) -> Result<Option<Epoch>, MsnapError> {
        vt.charge(Category::Memsnap, SYSCALL_COST);
        let open = self
            .open_batches
            .iter()
            .find(|(_, b)| b.id == ticket.batch)
            .map(|(&lane, b)| (lane, b.submit_at, b.participants.len()));
        if let Some((lane, submit_at, participants)) = open {
            // Solo fast path: a lone participant polling its own batch on
            // a device with an idle channel skips the group machinery —
            // waiting out the window buys nothing (there is nobody to
            // merge with) and coalescing at one thread only adds latency.
            // On a saturated device its IO would only queue, so it waits
            // for the batch close like a shared batch does.
            let solo = participants == 1 && vt.now() >= self.disk.idle_at();
            if !solo && vt.now() < submit_at {
                vt.wait_until(submit_at);
                return Ok(None);
            }
            self.flush_open_batch(vt, lane);
        }
        let fin = self
            .finished
            .get_mut(&ticket.batch)
            .ok_or(MsnapError::BadDescriptor)?;
        let (epoch, start) = fin
            .results
            .remove(&ticket.participant)
            .ok_or(MsnapError::BadDescriptor)?;
        let error = fin.error.clone();
        let completes = fin.completes;
        if fin.results.is_empty() {
            self.finished.remove(&ticket.batch);
        }
        if error.is_none() && completes > vt.now() {
            vt.charge(Category::IoWait, completes - vt.now());
        }
        self.meters
            .record("msnap_persist_grouped", vt.now() - start);
        match error {
            Some(e) => Err(e),
            None => Ok(Some(epoch)),
        }
    }

    /// Force-flushes the open group commit, if any, without waiting for
    /// its window to close (shutdown paths, tests). Participants still
    /// collect their results via [`MemSnap::msnap_group_poll`].
    pub fn msnap_group_flush(&mut self, vt: &mut Vt) {
        vt.charge(Category::Memsnap, SYSCALL_COST);
        let mut lanes: Vec<u64> = self.open_batches.keys().copied().collect();
        lanes.sort_unstable();
        for lane in lanes {
            self.flush_open_batch(vt, lane);
        }
    }

    /// Drains completed pipeline entries and, if the pipeline is still
    /// full, blocks on the oldest in-flight μCheckpoint. Returns the time
    /// spent blocked.
    fn pipeline_admit(&mut self, vt: &mut Vt) -> Nanos {
        let now = vt.now();
        while matches!(self.pipeline.front(), Some(&c) if c <= now) {
            self.pipeline.pop_front();
        }
        if self.pipeline.len() < PIPELINE_DEPTH {
            return Nanos::ZERO;
        }
        // The front survived the drain, so it is still in flight.
        let oldest = self.pipeline.pop_front().expect("the depth is not zero");
        vt.charge(Category::IoWait, oldest - now);
        oldest - now
    }

    /// Flushes the open batch: one combined μCheckpoint IO for every
    /// participant, then a [`FinishedBatch`] for their polls. The caller
    /// (the first poller past the window, or a late enqueuer) pays the
    /// initiation cost — group commit's "leader pays" rule.
    fn flush_open_batch(&mut self, vt: &mut Vt, lane: u64) {
        let mut batch = self
            .open_batches
            .remove(&lane)
            .expect("caller checked the lane's open batch");
        let mut error: Option<MsnapError> = None;
        let mut completes = vt.now();
        if batch.participants.iter().any(|p| !p.pages.is_empty()) {
            match self.commit_batch(vt, &mut batch.participants) {
                Ok(done) => {
                    completes = done.completes;
                    self.stamp_all(completes);
                    // Several transactions coalesced into one region's
                    // commit: the store saw a single group, so account
                    // the merge here (multi-object batches are accounted
                    // by the store itself).
                    if done.regions == 1 && batch.participants.len() > 1 {
                        self.disk.note_merged(batch.participants.len() as u64);
                    }
                }
                // All-or-nothing: every poll reports the failure.
                Err(e) => error = Some(e),
            }
        }

        let results = (0..)
            .zip(&batch.participants)
            .map(|(i, p)| (i, (self.newest_epoch(p.sel), p.start)))
            .collect();
        self.finished.insert(
            batch.id,
            FinishedBatch {
                error,
                completes,
                results,
            },
        );
    }

    /// Blocks until `epoch` of `sel` is durable (the paper's
    /// `msnap_wait`).
    ///
    /// # Errors
    ///
    /// [`MsnapError::BadDescriptor`] if `epoch` was never issued for
    /// `sel`; the sticky error of a failed μCheckpoint (see
    /// [`MemSnap::msnap_persist`]) until it is acknowledged — waiting on
    /// an epoch that predates the failure still reports the failure, the
    /// moral equivalent of fsync-gate: durability cannot be assumed past
    /// an unacknowledged error.
    pub fn msnap_wait(
        &mut self,
        vt: &mut Vt,
        sel: RegionSel,
        epoch: Epoch,
    ) -> Result<(), MsnapError> {
        vt.charge(Category::Memsnap, SYSCALL_COST);
        if let Some(e) = self.sticky_error(sel) {
            return Err(e);
        }
        let map = self.completions.get(&sel);
        let completes = match map.and_then(|m| m.get(&epoch)) {
            Some(&t) => t,
            None => {
                // Epochs below the smallest recorded entry were already
                // durable; anything else is a caller bug.
                let latest = map.and_then(|m| m.keys().next_back().copied()).unwrap_or(0);
                if epoch > latest {
                    return Err(MsnapError::BadDescriptor);
                }
                return Ok(());
            }
        };
        if completes > vt.now() {
            let wait = completes - vt.now();
            vt.charge(Category::IoWait, wait);
        }
        Ok(())
    }

    /// The sticky error covering `sel`, if any. `RegionSel::All` reports
    /// the failure of any region (a whole-application persist cannot be
    /// durable while one region's μCheckpoint is known-failed).
    pub(crate) fn sticky_error(&self, sel: RegionSel) -> Option<MsnapError> {
        match sel {
            RegionSel::Region(md) => self.sticky.get(&md.0).cloned(),
            RegionSel::All => self.sticky.values().next().cloned(),
        }
    }

    /// Acknowledges and clears the sticky error(s) covering `sel`,
    /// returning the first one, or `None` if the selector is healthy.
    ///
    /// This is the only way a persist failure is ever cleared. After
    /// acknowledging, the pages of the failed μCheckpoint are still in the
    /// calling thread's dirty set, so the next `msnap_persist` retries
    /// them.
    pub fn msnap_ack_error(&mut self, sel: RegionSel) -> Option<MsnapError> {
        match sel {
            RegionSel::Region(md) => self.sticky.remove(&md.0),
            RegionSel::All => {
                let first = self.sticky.values().next().cloned();
                self.sticky.clear();
                first
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::tests::fresh;
    use crate::types::RegionHandle;
    use msnap_disk::{Disk, DiskConfig, Fault, FaultPlan};
    use msnap_store::StoreError;
    use msnap_vm::PAGE_SIZE;

    #[test]
    fn open_persist_wait_round_trip() {
        let (mut ms, mut vt, space) = fresh();
        let t = vt.id();
        let r = ms.msnap_open(&mut vt, space, "data", 16).unwrap();
        ms.write(&mut vt, space, t, r.addr, &[42; 100]).unwrap();
        let epoch = ms
            .msnap_persist(&mut vt, t, RegionSel::Region(r.md), PersistFlags::sync())
            .unwrap();
        assert_eq!(epoch, 1);
        ms.msnap_wait(&mut vt, RegionSel::Region(r.md), epoch)
            .unwrap();
        let mut out = [0u8; 100];
        ms.read(&mut vt, space, r.addr, &mut out).unwrap();
        assert_eq!(out, [42; 100]);
    }

    #[test]
    fn async_persist_returns_before_durability() {
        let (mut ms, mut vt, space) = fresh();
        let t = vt.id();
        let r = ms.msnap_open(&mut vt, space, "data", 16).unwrap();
        ms.write(&mut vt, space, t, r.addr, &[1; PAGE_SIZE])
            .unwrap();
        let before = vt.now();
        let epoch = ms
            .msnap_persist(&mut vt, t, RegionSel::Region(r.md), PersistFlags::async_())
            .unwrap();
        let async_lat = vt.now() - before;
        ms.msnap_wait(&mut vt, RegionSel::Region(r.md), epoch)
            .unwrap();
        let sync_lat = vt.now() - before;
        assert!(
            async_lat < sync_lat,
            "async returns before the IO: {async_lat} < {sync_lat}"
        );
        // Async latency is dominated by tracking reset: ~6 us (Table 6).
        assert!(async_lat < Nanos::from_us(15), "async latency {async_lat}");
    }

    #[test]
    fn persist_is_per_thread() {
        let (mut ms, mut vt, space) = fresh();
        let r = ms.msnap_open(&mut vt, space, "data", 16).unwrap();
        let t0 = VthreadId(0);
        let t1 = VthreadId(1);
        ms.write(&mut vt, space, t0, r.addr, &[1]).unwrap();
        ms.write(&mut vt, space, t1, r.addr + PAGE_SIZE as u64, &[2])
            .unwrap();
        ms.msnap_persist(&mut vt, t0, RegionSel::Region(r.md), PersistFlags::sync())
            .unwrap();
        // Thread 1's page is still dirty and untracked by the persist.
        assert_eq!(ms.vm().dirty_count(t1), 1);
        assert_eq!(ms.last_persist_breakdown().pages, 1);
    }

    #[test]
    fn global_flag_persists_all_threads() {
        let (mut ms, mut vt, space) = fresh();
        let r = ms.msnap_open(&mut vt, space, "data", 16).unwrap();
        let t0 = VthreadId(0);
        let t1 = VthreadId(1);
        ms.write(&mut vt, space, t0, r.addr, &[1]).unwrap();
        ms.write(&mut vt, space, t1, r.addr + PAGE_SIZE as u64, &[2])
            .unwrap();
        ms.msnap_persist(
            &mut vt,
            t0,
            RegionSel::All,
            PersistFlags::sync().with_global(),
        )
        .unwrap();
        assert_eq!(ms.vm().dirty_count(t1), 0);
        assert_eq!(ms.last_persist_breakdown().pages, 2);
    }

    #[test]
    fn region_filter_keeps_other_regions_dirty() {
        let (mut ms, mut vt, space) = fresh();
        let t = vt.id();
        let a = ms.msnap_open(&mut vt, space, "a", 16).unwrap();
        let b = ms.msnap_open(&mut vt, space, "b", 16).unwrap();
        ms.write(&mut vt, space, t, a.addr, &[1]).unwrap();
        ms.write(&mut vt, space, t, b.addr, &[2]).unwrap();
        ms.msnap_persist(&mut vt, t, RegionSel::Region(a.md), PersistFlags::sync())
            .unwrap();
        assert_eq!(ms.vm().dirty_count(t), 1, "region b stays dirty");
    }

    #[test]
    fn persist_breakdown_matches_table5() {
        // Table 5: a 64 KiB (16-page) msnap_persist costs ~51.4 us total:
        // ~5.1 us resetting tracking, ~6.5 us initiating, ~39.7 us on IO.
        let (mut ms, mut vt, space) = fresh();
        let t = vt.id();
        let r = ms.msnap_open(&mut vt, space, "data", 64).unwrap();
        for p in 0..16u64 {
            ms.write(
                &mut vt,
                space,
                t,
                r.addr + p * PAGE_SIZE as u64,
                &[7; PAGE_SIZE],
            )
            .unwrap();
        }
        ms.msnap_persist(&mut vt, t, RegionSel::Region(r.md), PersistFlags::sync())
            .unwrap();
        let b = ms.last_persist_breakdown();
        assert_eq!(b.pages, 16);
        let reset = b.resetting_tracking.as_us_f64();
        let init = b.initiating_writes.as_us_f64();
        let total = b.total().as_us_f64();
        assert!((reset - 5.1).abs() < 2.5, "reset {reset:.1} us vs 5.1 us");
        assert!((init - 6.5).abs() < 3.0, "initiate {init:.1} us vs 6.5 us");
        assert!(
            total > 30.0 && total < 90.0,
            "total {total:.1} us vs paper 51.4 us"
        );
    }

    #[test]
    fn wait_on_unissued_epoch_errors() {
        let (mut ms, mut vt, space) = fresh();
        let r = ms.msnap_open(&mut vt, space, "data", 16).unwrap();
        assert_eq!(
            ms.msnap_wait(&mut vt, RegionSel::Region(r.md), 99),
            Err(MsnapError::BadDescriptor)
        );
    }

    #[test]
    fn concurrent_write_during_async_persist_cows() {
        let (mut ms, mut vt, space) = fresh();
        let t = vt.id();
        let r = ms.msnap_open(&mut vt, space, "data", 16).unwrap();
        ms.write(&mut vt, space, t, r.addr, &[1; PAGE_SIZE])
            .unwrap();
        let epoch = ms
            .msnap_persist(&mut vt, t, RegionSel::Region(r.md), PersistFlags::async_())
            .unwrap();
        // Write the same page while the IO is in flight.
        ms.write(&mut vt, space, t, r.addr + 4, &[9]).unwrap();
        assert_eq!(ms.vm().stats().cow_faults, 1, "in-flight page must COW");
        ms.msnap_wait(&mut vt, RegionSel::Region(r.md), epoch)
            .unwrap();
        // The durable image holds the *first* version; memory the second.
        let disk = ms.crash(vt.now());
        let mut vt2 = Vt::new(1);
        let mut ms2 = MemSnap::restore(&mut vt2, disk).unwrap();
        let space2 = ms2.vm_mut().create_space();
        let r2 = ms2.msnap_open(&mut vt2, space2, "data", 0).unwrap();
        let mut out = [0u8; 8];
        ms2.read(&mut vt2, space2, r2.addr, &mut out).unwrap();
        assert_eq!(out, [1; 8], "μCheckpoint is an atomic pre-write snapshot");
    }

    #[test]
    fn empty_persist_is_cheap_and_valid() {
        let (mut ms, mut vt, space) = fresh();
        let t = vt.id();
        let r = ms.msnap_open(&mut vt, space, "data", 16).unwrap();
        let epoch = ms
            .msnap_persist(&mut vt, t, RegionSel::Region(r.md), PersistFlags::sync())
            .unwrap();
        assert_eq!(epoch, 0, "no dirty data: current epoch");
        assert_eq!(ms.last_persist_breakdown().pages, 0);
    }

    #[test]
    fn failed_persist_is_sticky_until_acknowledged() {
        let (mut ms, mut vt, space) = fresh();
        let t = vt.id();
        let r = ms.msnap_open(&mut vt, space, "data", 16).unwrap();
        ms.write(&mut vt, space, t, r.addr, &[1; 64]).unwrap();
        // Hard-drop the next submission: the data extent of the persist.
        let plan = FaultPlan::new().at(ms.disk().io_seq(), Fault::Drop { transient: false });
        ms.set_fault_plan(plan);
        let err = ms
            .msnap_persist(&mut vt, t, RegionSel::Region(r.md), PersistFlags::sync())
            .unwrap_err();
        assert!(matches!(err, MsnapError::Store(_)), "got {err:?}");
        ms.clear_fault_plan();

        // Fsync gate: the error is reported again on every persist and
        // wait — even for epochs issued before the failure — and is not
        // cleared by the report.
        for _ in 0..2 {
            let again = ms
                .msnap_persist(&mut vt, t, RegionSel::Region(r.md), PersistFlags::sync())
                .unwrap_err();
            assert_eq!(again, err, "sticky error must not be silently cleared");
        }
        assert_eq!(
            ms.msnap_wait(&mut vt, RegionSel::Region(r.md), 0)
                .unwrap_err(),
            err
        );
        // The all-regions selector is poisoned too.
        assert_eq!(
            ms.msnap_persist(&mut vt, t, RegionSel::All, PersistFlags::sync())
                .unwrap_err(),
            err
        );

        // Acknowledge: the error is handed over exactly once, the failed
        // pages are still dirty, and the retry commits them.
        assert_eq!(ms.msnap_ack_error(RegionSel::Region(r.md)), Some(err));
        assert_eq!(ms.msnap_ack_error(RegionSel::Region(r.md)), None);
        assert_eq!(ms.vm().dirty_count(t), 1, "failed pages stay dirty");
        let epoch = ms
            .msnap_persist(&mut vt, t, RegionSel::Region(r.md), PersistFlags::sync())
            .unwrap();
        assert_eq!(epoch, 1);
        ms.msnap_wait(&mut vt, RegionSel::Region(r.md), epoch)
            .unwrap();
    }

    #[test]
    fn out_of_space_surfaces_as_sticky_store_error() {
        let cfg = DiskConfig::paper().with_capacity_blocks(160);
        let mut ms = MemSnap::format(Disk::new(cfg));
        let mut vt = Vt::new(0);
        let space = ms.vm_mut().create_space();
        let t = vt.id();
        // Distinct pages every round: recycling cannot help, the block map
        // must grow until the 160-block device fills up.
        let r = ms.msnap_open(&mut vt, space, "data", 256).unwrap();
        let mut hit = None;
        for i in 0..256u64 {
            ms.write(
                &mut vt,
                space,
                t,
                r.addr + i * PAGE_SIZE as u64,
                &[i as u8; 8],
            )
            .unwrap();
            match ms.msnap_persist(&mut vt, t, RegionSel::Region(r.md), PersistFlags::sync()) {
                Ok(_) => {}
                Err(e) => {
                    hit = Some(e);
                    break;
                }
            }
        }
        let err = hit.expect("a 160-block device must fill up");
        assert_eq!(err, MsnapError::Store(StoreError::OutOfSpace));
        // Sticky until acknowledged, then the region is still readable:
        // the abort left the previous epoch intact.
        assert_eq!(
            ms.msnap_wait(&mut vt, RegionSel::Region(r.md), 1)
                .unwrap_err(),
            err
        );
        assert_eq!(ms.msnap_ack_error(RegionSel::Region(r.md)), Some(err));
        let mut out = [0u8; 8];
        ms.read(&mut vt, space, r.addr, &mut out).unwrap();
    }

    #[test]
    fn transient_faults_are_invisible_to_the_api() {
        let (mut ms, mut vt, space) = fresh();
        let t = vt.id();
        let r = ms.msnap_open(&mut vt, space, "data", 16).unwrap();
        ms.write(&mut vt, space, t, r.addr, &[7; 32]).unwrap();
        let plan = FaultPlan::new().at(ms.disk().io_seq(), Fault::Drop { transient: true });
        ms.set_fault_plan(plan);
        let epoch = ms
            .msnap_persist(&mut vt, t, RegionSel::Region(r.md), PersistFlags::sync())
            .unwrap();
        assert_eq!(epoch, 1, "bounded retry hides transient faults");
        let inj = ms.clear_fault_plan().unwrap();
        assert_eq!(inj.injected().len(), 1);
        assert!(ms.msnap_ack_error(RegionSel::All).is_none());
    }

    #[test]
    fn grouped_persists_coalesce_into_one_batch() {
        let (mut ms, mut vt0, space) = fresh();
        ms.set_coalesce_window(Nanos::from_us(100));
        let mut vts = [Vt::new(1), Vt::new(2), Vt::new(3)];
        let mut regions = Vec::new();
        for (i, vt) in vts.iter_mut().enumerate() {
            let r = ms
                .msnap_open(&mut vt0, space, &format!("r{i}"), 16)
                .unwrap();
            let t = vt.id();
            ms.write(vt, space, t, r.addr, &[i as u8 + 1; 64]).unwrap();
            regions.push(r);
        }
        let before = ms.disk().stats().writes();
        let tickets: Vec<_> = vts
            .iter_mut()
            .zip(&regions)
            .map(|(vt, r)| {
                let t = vt.id();
                ms.msnap_persist_grouped(vt, t, RegionSel::Region(r.md))
                    .unwrap()
            })
            .collect();
        // The enqueue is cheap — no IO was initiated yet.
        assert_eq!(ms.disk().stats().writes(), before);
        // First polls ride out the window; repolls flush and complete.
        for (vt, ticket) in vts.iter_mut().zip(&tickets) {
            let mut epoch = ms.msnap_group_poll(vt, *ticket).unwrap();
            while epoch.is_none() {
                epoch = ms.msnap_group_poll(vt, *ticket).unwrap();
            }
            assert_eq!(epoch, Some(1), "each region advances to epoch 1");
        }
        // Three regions, two IOs: one merged extent + one commit record.
        assert_eq!(ms.disk().stats().writes() - before, 2);
        assert_eq!(ms.disk().stats().merged_submissions(), 1);
        assert_eq!(ms.disk().stats().merged_parts(), 3);
        assert_eq!(ms.store().stats().batch_commits, 1);
        // A redeemed ticket is gone.
        assert_eq!(
            ms.msnap_group_poll(&mut vts[0], tickets[0]).unwrap_err(),
            MsnapError::BadDescriptor
        );
    }

    #[test]
    fn grouped_commit_survives_crash() {
        let (mut ms, mut vt, space) = fresh();
        ms.set_coalesce_window(Nanos::from_us(10));
        let t = vt.id();
        let a = ms.msnap_open(&mut vt, space, "a", 16).unwrap();
        let b = ms.msnap_open(&mut vt, space, "b", 16).unwrap();
        ms.write(&mut vt, space, t, a.addr, b"alpha").unwrap();
        ms.write(&mut vt, space, t, b.addr, b"bravo").unwrap();
        let ta = ms
            .msnap_persist_grouped(&mut vt, t, RegionSel::Region(a.md))
            .unwrap();
        let tb = ms
            .msnap_persist_grouped(&mut vt, t, RegionSel::Region(b.md))
            .unwrap();
        for ticket in [ta, tb] {
            let mut epoch = ms.msnap_group_poll(&mut vt, ticket).unwrap();
            while epoch.is_none() {
                epoch = ms.msnap_group_poll(&mut vt, ticket).unwrap();
            }
        }
        let disk = ms.crash(vt.now());
        let mut vt2 = Vt::new(9);
        let mut ms2 = MemSnap::restore(&mut vt2, disk).unwrap();
        let space2 = ms2.vm_mut().create_space();
        let a2 = ms2.msnap_open(&mut vt2, space2, "a", 0).unwrap();
        let b2 = ms2.msnap_open(&mut vt2, space2, "b", 0).unwrap();
        let mut out = [0u8; 5];
        ms2.read(&mut vt2, space2, a2.addr, &mut out).unwrap();
        assert_eq!(&out, b"alpha");
        ms2.read(&mut vt2, space2, b2.addr, &mut out).unwrap();
        assert_eq!(&out, b"bravo");
    }

    /// Keeps the device busy: an async 24-page commit of a fresh region
    /// `name` by thread `t`, three 8-block segments on both channels.
    /// Returns the instant a channel frees.
    fn saturate(ms: &mut MemSnap, vt: &mut Vt, space: msnap_vm::AsId, name: &str) -> Nanos {
        let t = vt.id();
        let r = ms.msnap_open(vt, space, name, 24).unwrap();
        for p in 0..24u64 {
            let va = r.addr + p * PAGE_SIZE as u64;
            ms.write(vt, space, t, va, &[p as u8 + 1; PAGE_SIZE])
                .unwrap();
        }
        ms.msnap_persist(vt, t, RegionSel::Region(r.md), PersistFlags::async_())
            .unwrap();
        let idle = ms.disk().idle_at();
        assert!(
            idle > vt.now() + DEFAULT_COALESCE_WINDOW,
            "both channels busy"
        );
        idle
    }

    /// Where the data extent of the newest commit began service: its
    /// completion less the service time of `pages` blocks in one segment.
    fn extent_start(ms: &MemSnap, pages: usize) -> Nanos {
        let segments = ms.disk().write_completions();
        let done = segments[segments.len() - 2];
        done - ms.disk().config().segment_latency(pages * PAGE_SIZE)
    }

    #[test]
    fn a_held_batch_shares_one_commit_behind_a_busy_device() {
        // Writer `i` enqueues page `i` of "data" at 1 + 12·i µs into the
        // busy period of a 24-page commit.
        let setup = || {
            let (mut ms, mut vt0, space) = fresh();
            let r = ms.msnap_open(&mut vt0, space, "data", 16).unwrap();
            let idle = saturate(&mut ms, &mut vt0, space, "big");
            (ms, vt0.now(), space, RegionSel::Region(r.md), r.addr, idle)
        };
        // An immediate flush of the opener alone starts when the device
        // frees a channel.
        let (mut ms, t0, space, sel, addr, idle) = setup();
        let mut vt = Vt::new(1);
        vt.wait_until(t0 + Nanos::from_us(1));
        let t = vt.id();
        ms.write(&mut vt, space, t, addr, &[9; 64]).unwrap();
        ms.msnap_persist_grouped(&mut vt, t, sel).unwrap();
        ms.msnap_group_flush(&mut vt);
        assert_eq!(extent_start(&ms, 1), idle);

        let (mut ms, t0, space, sel, addr, idle) = setup();
        let (ios, merged) = (ms.disk().io_seq(), ms.disk().stats().merged_parts());
        // Three writers enqueue at distinct instants, all inside the busy
        // period and two of them past the opener's coalescing window.
        let mut vts = [Vt::new(1), Vt::new(2), Vt::new(3)];
        let mut tickets = Vec::new();
        for (i, vt) in (0u64..).zip(&mut vts) {
            vt.wait_until(t0 + Nanos::from_us(1 + 12 * i));
            let t = vt.id();
            ms.write(vt, space, t, addr + i * PAGE_SIZE as u64, &[9; 64])
                .unwrap();
            tickets.push(ms.msnap_persist_grouped(vt, t, sel).unwrap());
        }
        assert!(
            vts[2].now() < idle,
            "the last one enqueues before the device frees"
        );
        assert!(
            tickets.iter().all(|t| t.batch == tickets[0].batch),
            "one batch"
        );
        // Every first poll — the opener's, alone or not, included — is held
        // until the device frees a channel.
        for (vt, ticket) in vts.iter_mut().zip(&tickets) {
            assert_eq!(ms.msnap_group_poll(vt, *ticket).unwrap(), None);
            assert_eq!(vt.now(), idle);
        }
        let fs = vts[0].costs().get(Category::FileSystem);
        for (vt, ticket) in vts.iter_mut().zip(&tickets) {
            assert_eq!(ms.msnap_group_poll(vt, *ticket).unwrap(), Some(1));
        }
        // One extent + one record carrying all three.
        assert_eq!(ms.disk().io_seq() - ios, 2);
        assert_eq!(ms.disk().stats().merged_parts() - merged, 3);
        // The extent (three blocks, one segment) starts where the opener's
        // immediate flush did, plus only the flusher's own CPU after the
        // device freed: its poll and the initiation, charged once for all
        // three participants.
        let initiation = vts[0].costs().get(Category::FileSystem) - fs;
        assert_eq!(extent_start(&ms, 3), idle + SYSCALL_COST + initiation);
    }

    #[test]
    fn faulted_batch_sticky_fails_every_participant() {
        // On an idle device the batch is flushed explicitly; on a busy one
        // it is held and flushed by a poll once a channel frees.
        for busy in [false, true] {
            faulted_batch_fails_every_participant(busy);
        }
    }

    fn faulted_batch_fails_every_participant(busy: bool) {
        let (mut ms, mut vt, space) = fresh();
        ms.set_coalesce_window(Nanos::from_us(10));
        let a = ms.msnap_open(&mut vt, space, "a", 16).unwrap();
        let b = ms.msnap_open(&mut vt, space, "b", 16).unwrap();
        if busy {
            saturate(&mut ms, &mut vt, space, "big");
        }
        let t0 = VthreadId(0);
        let t1 = VthreadId(1);
        ms.write(&mut vt, space, t0, a.addr, &[1; 32]).unwrap();
        ms.write(&mut vt, space, t1, b.addr, &[2; 32]).unwrap();
        // Hard-drop the batch's data extent.
        let plan = FaultPlan::new().at(ms.disk().io_seq(), Fault::Drop { transient: false });
        ms.set_fault_plan(plan);
        let ta = ms
            .msnap_persist_grouped(&mut vt, t0, RegionSel::Region(a.md))
            .unwrap();
        let tb = ms
            .msnap_persist_grouped(&mut vt, t1, RegionSel::Region(b.md))
            .unwrap();
        if busy {
            assert_eq!(ms.msnap_group_poll(&mut vt, ta).unwrap(), None, "held");
        } else {
            ms.msnap_group_flush(&mut vt);
        }
        // Every participant of the faulted batch fails, not just the one
        // whose pages happened to hit the bad block.
        let ea = ms.msnap_group_poll(&mut vt, ta).unwrap_err();
        let eb = ms.msnap_group_poll(&mut vt, tb).unwrap_err();
        ms.clear_fault_plan();
        assert!(matches!(ea, MsnapError::Store(_)));
        assert_eq!(ea, eb);
        // Both regions' fsync gates are armed...
        assert_eq!(
            ms.msnap_persist(&mut vt, t0, RegionSel::Region(a.md), PersistFlags::sync())
                .unwrap_err(),
            ea
        );
        assert_eq!(
            ms.msnap_persist(&mut vt, t1, RegionSel::Region(b.md), PersistFlags::sync())
                .unwrap_err(),
            ea
        );
        // ...and each thread's pages went back to its dirty set, so the
        // acknowledged retry persists them.
        assert_eq!(ms.vm().dirty_count(t0), 1);
        assert_eq!(ms.vm().dirty_count(t1), 1);
        ms.msnap_ack_error(RegionSel::Region(a.md));
        ms.msnap_ack_error(RegionSel::Region(b.md));
        let epoch = ms
            .msnap_persist(&mut vt, t0, RegionSel::Region(a.md), PersistFlags::sync())
            .unwrap();
        assert_eq!(epoch, 1);
    }

    #[test]
    fn single_participant_group_takes_the_plain_path() {
        let (mut ms, mut vt, space) = fresh();
        ms.set_coalesce_window(Nanos::from_us(5));
        let t = vt.id();
        let r = ms.msnap_open(&mut vt, space, "data", 16).unwrap();
        ms.write(&mut vt, space, t, r.addr, &[3; 16]).unwrap();
        let ticket = ms
            .msnap_persist_grouped(&mut vt, t, RegionSel::Region(r.md))
            .unwrap();
        let mut epoch = ms.msnap_group_poll(&mut vt, ticket).unwrap();
        while epoch.is_none() {
            epoch = ms.msnap_group_poll(&mut vt, ticket).unwrap();
        }
        assert_eq!(epoch, Some(1));
        // A lone participant is a plain delta commit, not a batch record.
        assert_eq!(ms.store().stats().batch_commits, 0);
        assert_eq!(
            ms.store().stats().delta_commits,
            3,
            "format + open manifests, then the commit itself"
        );
    }

    #[test]
    fn solo_poll_flushes_without_waiting_out_the_window() {
        let (mut ms, mut vt, space) = fresh();
        let t = vt.id();
        let r = ms.msnap_open(&mut vt, space, "data", 16).unwrap();
        ms.write(&mut vt, space, t, r.addr, &[5; 16]).unwrap();
        // A huge window makes the discrimination unambiguous: the old
        // behavior would park the poll until `submit_at`, so finishing
        // well before `before + window` proves the window was skipped.
        ms.set_coalesce_window(Nanos::from_us(50_000));
        let before = vt.now();
        let ticket = ms
            .msnap_persist_grouped(&mut vt, t, RegionSel::Region(r.md))
            .unwrap();
        // The fast path flushes on the *first* poll: no `None` round, no
        // window wait for a participant with nobody to merge with.
        let epoch = ms.msnap_group_poll(&mut vt, ticket).unwrap();
        assert_eq!(epoch, Some(1));
        assert!(
            vt.now() - before < Nanos::from_us(50_000),
            "solo poll must not wait out the coalescing window"
        );
    }

    #[test]
    fn grouped_commits_coalesce_per_shard_lane() {
        let mut ms = MemSnap::format_sharded(Disk::new(DiskConfig::paper()), 4);
        let mut vt = Vt::new(0);
        let space = ms.vm_mut().create_space();
        let t = vt.id();
        ms.set_coalesce_window(Nanos::from_us(8));
        // Find two region names on the same shard and one on a different
        // shard (the map is a stable hash of the name, so probe names).
        let names: Vec<String> = (0..32).map(|i| format!("region-{i}")).collect();
        let s0 = ms.store().shard_of(&names[0]);
        let same = names[1..]
            .iter()
            .find(|n| ms.store().shard_of(n) == s0)
            .expect("32 names must collide on 4 shards")
            .clone();
        let other = names[1..]
            .iter()
            .find(|n| ms.store().shard_of(n) != s0)
            .expect("32 names must spread over 4 shards")
            .clone();
        let ra = ms.msnap_open(&mut vt, space, &names[0], 4).unwrap();
        let rb = ms.msnap_open(&mut vt, space, &same, 4).unwrap();
        let rc = ms.msnap_open(&mut vt, space, &other, 4).unwrap();
        for r in [&ra, &rb, &rc] {
            ms.write(&mut vt, space, t, r.addr, &[9; 16]).unwrap();
        }
        let ta = ms
            .msnap_persist_grouped(&mut vt, t, RegionSel::Region(ra.md))
            .unwrap();
        let tb = ms
            .msnap_persist_grouped(&mut vt, t, RegionSel::Region(rb.md))
            .unwrap();
        let tc = ms
            .msnap_persist_grouped(&mut vt, t, RegionSel::Region(rc.md))
            .unwrap();
        // Same-shard regions share a batch (and hence a ticket's batch
        // id); the other shard's lane opened its own batch.
        assert_eq!(ta.batch, tb.batch, "same shard, same coalescing lane");
        assert_ne!(ta.batch, tc.batch, "different shard, different lane");
        for ticket in [ta, tb, tc] {
            let mut epoch = ms.msnap_group_poll(&mut vt, ticket).unwrap();
            while epoch.is_none() {
                epoch = ms.msnap_group_poll(&mut vt, ticket).unwrap();
            }
            assert_eq!(epoch, Some(1));
        }
        // The same-shard pair coalesced into one batched submission.
        assert_eq!(ms.store().stats().batch_commits, 1);
        assert_eq!(ms.store().stats().batched_objects, 2);
    }

    #[test]
    fn empty_grouped_persist_reports_current_epoch() {
        let (mut ms, mut vt, space) = fresh();
        let t = vt.id();
        let r = ms.msnap_open(&mut vt, space, "data", 16).unwrap();
        let ticket = ms
            .msnap_persist_grouped(&mut vt, t, RegionSel::Region(r.md))
            .unwrap();
        ms.msnap_group_flush(&mut vt);
        assert_eq!(ms.msnap_group_poll(&mut vt, ticket).unwrap(), Some(0));
    }

    #[test]
    fn async_pipeline_applies_backpressure_at_depth() {
        let (mut ms, mut vt, space) = fresh();
        let r = ms.msnap_open(&mut vt, space, "data", 64).unwrap();
        // One committer cannot fill the pipeline (its own initiation
        // outlasts the IO it queued), so PIPELINE_DEPTH + 1 committers
        // each bring their own clock to the same instant. The first
        // PIPELINE_DEPTH admissions are free; the last finds the pipeline
        // full and blocks on the oldest in-flight μCheckpoint.
        let commit_at = |ms: &mut MemSnap, at: Nanos, who: u32| {
            let mut vt = Vt::new(100 + who);
            vt.wait_until(at);
            let t = vt.id();
            let va = r.addr + who as u64 * PAGE_SIZE as u64;
            ms.write(&mut vt, space, t, va, &[who as u8 + 1; PAGE_SIZE])
                .unwrap();
            ms.msnap_persist(&mut vt, t, RegionSel::Region(r.md), PersistFlags::async_())
                .unwrap();
            ms.last_persist_breakdown().waiting_on_io
        };
        let t0 = vt.now();
        for who in 0..PIPELINE_DEPTH as u32 {
            assert_eq!(commit_at(&mut ms, t0, who), Nanos::ZERO, "free: {who}");
        }
        let blocked = commit_at(&mut ms, t0, PIPELINE_DEPTH as u32);
        assert!(blocked > Nanos::ZERO, "admission past the depth blocks");
        // Once the device catches up, admissions are free again.
        let later = t0 + Nanos::from_secs(1);
        assert_eq!(commit_at(&mut ms, later, 0), Nanos::ZERO);
    }

    #[test]
    fn all_selector_commits_a_prefix_when_a_region_fails() {
        // Whole-page writes: one IO pair (extent, record) per region
        // modified. Hard-drop the second region's extent.
        all_selector_commits_a_prefix(PAGE_SIZE, 2);
    }

    #[test]
    fn all_selector_commits_a_prefix_when_a_sparse_region_fails() {
        // One-line writes: one IO (the record carrying the line) per
        // region modified. Hard-drop the second region's.
        all_selector_commits_a_prefix(64, 1);
    }

    /// Writes `bytes` to each of three regions, fails the `fault_io`-th
    /// submission of the `All` persist — which must land in the second
    /// region's commit — and checks that the first region stays
    /// committed, the second is sticky and the third untouched.
    fn all_selector_commits_a_prefix(bytes: usize, fault_io: u64) {
        let (mut ms, mut vt, space) = fresh();
        let t = vt.id();
        let [a, b, c] = ["a", "b", "c"].map(|n| ms.msnap_open(&mut vt, space, n, 16).unwrap());
        for (i, r) in [a, b, c].iter().enumerate() {
            ms.write(&mut vt, space, t, r.addr, &vec![i as u8 + 1; bytes])
                .unwrap();
        }
        let plan = FaultPlan::new().at(
            ms.disk().io_seq() + fault_io,
            Fault::Drop { transient: false },
        );
        ms.set_fault_plan(plan);
        let err = ms
            .msnap_persist(&mut vt, t, RegionSel::All, PersistFlags::sync())
            .unwrap_err();
        ms.clear_fault_plan();
        assert!(matches!(err, MsnapError::Store(_)), "got {err:?}");

        // The first region stays committed, its completion recorded...
        assert_eq!(ms.region_epoch(a.md), Some(1));
        assert_eq!(ms.last_persist_breakdown().pages, 1);
        ms.msnap_wait(&mut vt, RegionSel::Region(a.md), 1).unwrap();
        // ...the second is sticky with its page back in the dirty set,
        // and the third was never touched: dirty, healthy.
        assert_eq!(ms.region_epoch(b.md), Some(0));
        assert_eq!(ms.region_epoch(c.md), Some(0));
        assert_eq!(ms.vm().dirty_count(t), 2);
        assert_eq!(
            ms.msnap_wait(&mut vt, RegionSel::Region(b.md), 0),
            Err(err.clone())
        );
        assert_eq!(ms.msnap_ack_error(RegionSel::Region(c.md)), None);

        // Acknowledged, one persist commits both.
        assert_eq!(ms.msnap_ack_error(RegionSel::All), Some(err));
        ms.msnap_persist(&mut vt, t, RegionSel::All, PersistFlags::sync())
            .unwrap();
        assert_eq!(ms.last_persist_breakdown().pages, 2);
        for r in [a, b, c] {
            assert_eq!(ms.region_epoch(r.md), Some(1));
        }
        assert_eq!(ms.vm().dirty_count(t), 0);
    }

    #[test]
    fn every_door_commits_exactly_once_across_grant_retries() {
        // Whole-page writes: every commit allocates its data extent.
        every_door_commits_exactly_once(0..6, PAGE_SIZE);
    }

    #[test]
    fn the_in_place_doors_commit_sparse_pages_exactly_once_across_grant_retries() {
        // One-line writes through the two doors that hand the store the
        // lines: a commit is its record and allocates nothing, so the
        // grants are consumed by the full roots that write the overlay
        // out — every sixth commit here, when it outgrows its budget.
        every_door_commits_exactly_once(0..2, 8);
    }

    /// Runs `doors`, each on a fresh store, dirtying every page with a
    /// `bytes`-long write.
    fn every_door_commits_exactly_once(doors: std::ops::Range<usize>, bytes: usize) {
        // Every commit below writes pages never written before, so a
        // shard's block range only grows, and each 256-block extent it
        // consumes is granted by `with_grants` re-running a commit that
        // aborted with `OutOfSpace`. One door per run, so every such
        // re-run lands in that door. Whatever the door and however the
        // façade split the commit, the re-run must not repeat a unit
        // that already committed (one epoch per region per commit, one
        // store commit per region commit), and the aborted attempt must
        // charge nothing (identical commits cost the same store CPU).
        const ROUNDS: u64 = 30;
        const SMALL: u64 = 40;
        const LARGE: u64 = 130; // two of these overflow one batch record
        for door in doors {
            let mut ms = MemSnap::format_sharded(Disk::new(DiskConfig::paper()), 2);
            let mut vt = Vt::new(0);
            let space = ms.vm_mut().create_space();
            let t = vt.id();
            // `a` and `b` share a shard, `c` lives on the other one.
            let names: Vec<String> = (0..16).map(|i| format!("region-{i}")).collect();
            let home = ms.store().shard_of(&names[0]);
            let same = names[1..]
                .iter()
                .find(|n| ms.store().shard_of(n) == home)
                .expect("16 names collide on 2 shards");
            let other = names[1..]
                .iter()
                .find(|n| ms.store().shard_of(n) != home)
                .expect("16 names spread over 2 shards");
            let [a, b, c] = [&names[0], same, other]
                .map(|n| ms.msnap_open(&mut vt, space, n, ROUNDS * LARGE).unwrap());
            let (sel_a, sel_b) = (RegionSel::Region(a.md), RegionSel::Region(b.md));
            let sync = PersistFlags::sync();

            let poll = |ms: &mut MemSnap, vt: &mut Vt, ticket: CommitTicket| loop {
                if ms.msnap_group_poll(vt, ticket).unwrap().is_some() {
                    break;
                }
            };
            let mut charges = std::collections::BTreeSet::new();
            let before = ms.disk().blocks_in_use();
            for round in 0..ROUNDS {
                // Dirties the region's next `n` fresh pages.
                let dirty = |ms: &mut MemSnap, vt: &mut Vt, r: &RegionHandle, n: u64| {
                    for page in round * n..(round + 1) * n {
                        let va = r.addr + page * PAGE_SIZE as u64;
                        let mut image = [0u8; PAGE_SIZE];
                        image[..8].copy_from_slice(&page.to_le_bytes());
                        ms.write(vt, space, t, va, &image[..bytes]).unwrap();
                    }
                };
                let epochs = [a, b, c].map(|r| ms.region_epoch(r.md).unwrap());
                let (stats, cpu) = (ms.store().stats(), vt.costs().get(Category::FileSystem));
                let regions: &[RegionHandle] = match door {
                    0 => {
                        dirty(&mut ms, &mut vt, &a, SMALL);
                        ms.msnap_persist(&mut vt, t, sel_a, sync).unwrap();
                        &[a]
                    }
                    1 => {
                        dirty(&mut ms, &mut vt, &a, SMALL);
                        let e = ms
                            .msnap_persist(&mut vt, t, sel_a, PersistFlags::async_())
                            .unwrap();
                        ms.msnap_wait(&mut vt, sel_a, e).unwrap();
                        &[a]
                    }
                    2 => {
                        dirty(&mut ms, &mut vt, &a, SMALL);
                        let ticket = ms.msnap_persist_grouped(&mut vt, t, sel_a).unwrap();
                        poll(&mut ms, &mut vt, ticket);
                        &[a]
                    }
                    // One participant across shards: split by shard.
                    3 => {
                        dirty(&mut ms, &mut vt, &a, SMALL);
                        dirty(&mut ms, &mut vt, &c, SMALL);
                        let ticket = ms
                            .msnap_persist_grouped(&mut vt, t, RegionSel::All)
                            .unwrap();
                        poll(&mut ms, &mut vt, ticket);
                        &[a, c]
                    }
                    // Two regions of one shard: one shared batch record
                    // (4), or — too large for it — group by group (5).
                    _ => {
                        let n = if door == 4 { SMALL } else { LARGE };
                        dirty(&mut ms, &mut vt, &a, n);
                        dirty(&mut ms, &mut vt, &b, n);
                        let ta = ms.msnap_persist_grouped(&mut vt, t, sel_a).unwrap();
                        let tb = ms.msnap_persist_grouped(&mut vt, t, sel_b).unwrap();
                        ms.msnap_group_flush(&mut vt);
                        poll(&mut ms, &mut vt, ta);
                        poll(&mut ms, &mut vt, tb);
                        &[a, b]
                    }
                };
                for (r, was) in [a, b, c].iter().zip(epochs) {
                    let advanced = u64::from(regions.contains(r));
                    assert_eq!(
                        ms.region_epoch(r.md),
                        Some(was + advanced),
                        "door {door} round {round}: {r:?}"
                    );
                }
                let now = ms.store().stats();
                let committed = regions.len() as u64;
                assert_eq!(
                    now.commits - stats.commits,
                    committed,
                    "door {door} round {round}"
                );
                assert_eq!(
                    now.batch_commits - stats.batch_commits,
                    u64::from(door == 4)
                );
                // Compare the delta-only commits; a full root, inline or
                // compaction, does different work.
                if now.delta_commits - stats.delta_commits == committed
                    && now.nodes_written == stats.nodes_written
                {
                    charges.insert(vt.costs().get(Category::FileSystem) - cpu);
                }
            }
            let consumed = (ms.disk().blocks_in_use() - before) as u64;
            assert!(
                consumed >= 4 * 256,
                "door {door} must cross extent boundaries"
            );
            assert_eq!(charges.len(), 1, "door {door}: initiation {charges:?}");
            let line_commits = ms.store().stats().line_commits;
            assert_eq!(line_commits > 0, bytes < PAGE_SIZE, "door {door}");
        }
    }

    #[test]
    fn only_an_in_place_image_with_no_copy_outstanding_commits_line_grain() {
        let (mut ms, mut vt, space) = fresh();
        let t = vt.id();
        let r = ms.msnap_open(&mut vt, space, "data", 16).unwrap();
        let sel = RegionSel::Region(r.md);
        let line_commits = |ms: &MemSnap| ms.store().stats().line_commits;

        // The grouped door: data extent + record, as ever.
        ms.write(&mut vt, space, t, r.addr, &[1; 8]).unwrap();
        let ios = ms.disk().io_seq();
        let ticket = ms.msnap_persist_grouped(&mut vt, t, sel).unwrap();
        assert_eq!(ms.msnap_group_poll(&mut vt, ticket).unwrap(), Some(1));
        assert_eq!((ms.disk().io_seq() - ios, line_commits(&ms)), (2, 0));

        // In place: the record alone.
        ms.write(&mut vt, space, t, r.addr, &[2; 8]).unwrap();
        let ios = ms.disk().io_seq();
        ms.msnap_persist(&mut vt, t, sel, PersistFlags::sync())
            .unwrap();
        assert_eq!((ms.disk().io_seq() - ios, line_commits(&ms)), (1, 1));

        // In place while a grouped copy of the page waits to commit: the
        // image holds lines the store has not seen, so it commits whole.
        ms.set_coalesce_window(Nanos::from_us(500));
        ms.write(&mut vt, space, t, r.addr, &[3; 8]).unwrap();
        let ticket = ms.msnap_persist_grouped(&mut vt, t, sel).unwrap();
        ms.write(&mut vt, space, t, r.addr + 64, &[4; 8]).unwrap();
        let ios = ms.disk().io_seq();
        ms.msnap_persist(&mut vt, t, sel, PersistFlags::sync())
            .unwrap();
        assert_eq!((ms.disk().io_seq() - ios, line_commits(&ms)), (2, 1));
        ms.msnap_group_flush(&mut vt);
        assert_eq!(ms.msnap_group_poll(&mut vt, ticket).unwrap(), Some(4));
    }

    #[test]
    fn settle_until_trims_completion_instants() {
        let (mut ms, mut vt, space) = fresh();
        let t = vt.id();
        let r = ms.msnap_open(&mut vt, space, "data", 4).unwrap();
        let sel = RegionSel::Region(r.md);
        for i in 0..10_000u64 {
            ms.write(&mut vt, space, t, r.addr, &i.to_le_bytes())
                .unwrap();
            ms.msnap_persist(&mut vt, t, sel, PersistFlags::sync())
                .unwrap();
            if i % 100 == 99 {
                // Everything is durable by now: only the newest survive.
                ms.settle_until(vt.now());
                assert!(ms.completions.values().all(|epochs| epochs.len() == 1));
            }
            assert!(ms.completions.values().all(|epochs| epochs.len() <= 100));
        }
        assert_eq!(ms.completions.len(), 2, "the region and `All`");

        // A trimmed epoch is durable: the wait returns without waiting.
        // A never-issued one is still a caller bug.
        let waited = vt.costs().get(Category::IoWait);
        for sel in [sel, RegionSel::All] {
            ms.msnap_wait(&mut vt, sel, 1).unwrap();
            ms.msnap_wait(&mut vt, sel, 9_999).unwrap();
            assert_eq!(
                ms.msnap_wait(&mut vt, sel, 10_001),
                Err(MsnapError::BadDescriptor)
            );
        }
        assert_eq!(vt.costs().get(Category::IoWait), waited);

        // An epoch still in flight at the horizon keeps its instant.
        ms.write(&mut vt, space, t, r.addr, &[7; 8]).unwrap();
        let epoch = ms
            .msnap_persist(&mut vt, t, sel, PersistFlags::async_())
            .unwrap();
        ms.settle_until(vt.now());
        ms.msnap_wait(&mut vt, sel, epoch).unwrap();
        assert!(vt.costs().get(Category::IoWait) > waited);
    }

    #[test]
    fn late_enqueuer_flushes_the_stale_batch_first() {
        let (mut ms, mut vt, space) = fresh();
        ms.set_coalesce_window(Nanos::from_us(4));
        let t = vt.id();
        let r = ms.msnap_open(&mut vt, space, "data", 16).unwrap();
        ms.write(&mut vt, space, t, r.addr, &[1; 8]).unwrap();
        let t1 = ms
            .msnap_persist_grouped(&mut vt, t, RegionSel::Region(r.md))
            .unwrap();
        // Long after the window closed, a new enqueue arrives: it must not
        // join the expired batch.
        vt.wait_until(vt.now() + Nanos::from_us(50));
        ms.write(&mut vt, space, t, r.addr + 4096, &[2; 8]).unwrap();
        let t2 = ms
            .msnap_persist_grouped(&mut vt, t, RegionSel::Region(r.md))
            .unwrap();
        assert_ne!(t1.batch, t2.batch, "expired window starts a new batch");
        assert_eq!(ms.msnap_group_poll(&mut vt, t1).unwrap(), Some(1));
        ms.msnap_group_flush(&mut vt);
        assert_eq!(ms.msnap_group_poll(&mut vt, t2).unwrap(), Some(2));
    }

    #[test]
    fn meters_record_persist_latency() {
        let (mut ms, mut vt, space) = fresh();
        let t = vt.id();
        let r = ms.msnap_open(&mut vt, space, "data", 16).unwrap();
        ms.write(&mut vt, space, t, r.addr, &[1]).unwrap();
        ms.msnap_persist(&mut vt, t, RegionSel::Region(r.md), PersistFlags::sync())
            .unwrap();
        assert_eq!(ms.meters().get("msnap_persist").unwrap().count(), 1);
    }
}
