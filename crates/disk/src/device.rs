//! The simulated block device.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashMap};

use msnap_sim::{Category, ChannelPool, Nanos, Vt};

use crate::{
    DiskConfig, Fault, FaultInjector, FaultPlan, IoError, IoStats, ReadFault, ReadFaultPlan,
    BLOCK_SIZE,
};

/// Handle for an asynchronously submitted write.
///
/// Returned by the `*_at` submission methods; pass to [`Disk::wait`] (or
/// compare [`WriteToken::completes`] yourself) to model completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteToken {
    completes: Nanos,
    bytes: usize,
}

impl WriteToken {
    /// The virtual instant the write becomes durable.
    pub fn completes(&self) -> Nanos {
        self.completes
    }

    /// Number of payload bytes in the write.
    pub fn bytes(&self) -> usize {
        self.bytes
    }
}

/// One rollback record: the pre-image of a block overwritten by a write
/// that completes at `completes`.
#[derive(Debug)]
struct UndoEntry {
    completes: Nanos,
    block: u64,
    prev: Option<Box<[u8]>>,
}

/// A simulated striped NVMe device.
///
/// Contents are real bytes (4 KiB blocks); time is virtual. Writes are
/// applied to the in-memory image immediately on submission and become
/// *durable* at their completion instant; [`Disk::crash`] rolls the image
/// back to exactly the durable prefix. See the crate docs for the latency
/// model.
#[derive(Debug)]
pub struct Disk {
    cfg: DiskConfig,
    blocks: HashMap<u64, Box<[u8]>>,
    undo: Vec<UndoEntry>,
    channels: ChannelPool,
    stats: IoStats,
    injector: Option<FaultInjector>,
    /// 0-based sequence number of the next write submission; the key the
    /// fault plan is indexed by.
    io_seq: u64,
    /// Completion instant of every write segment, in submission order —
    /// the IO boundaries [`crash_at_every_io`] sweeps. Torn tails
    /// (never-durable segments) are excluded, and so are boundaries
    /// [`Disk::settle_until`] promised no crash will land before.
    write_log: Vec<Nanos>,
    /// Completion instants of write submissions still in flight — the
    /// explicit queue-depth model. Popped past entries lazily at each
    /// submission; the remaining occupancy is sampled into [`IoStats`].
    inflight: BinaryHeap<Reverse<Nanos>>,
    /// Unfaulted one-block writes still in flight, by block: `(service
    /// start, completion)`. [`Disk::amend_at`] may replace the payload of
    /// one whose service has not started. An entry goes with the next
    /// write to its block and, like `inflight`, once a submission at or
    /// past its completion is seen.
    queued: HashMap<u64, (Nanos, Nanos)>,
    /// 0-based sequence number of the next block read — the key
    /// [`ReadFaultPlan`] is indexed by. Every read consumes one per
    /// block: no read bypasses the plan.
    read_seq: u64,
    read_faults: ReadFaultPlan,
}

impl Disk {
    /// Creates an empty device with the given configuration.
    pub fn new(cfg: DiskConfig) -> Self {
        let channels = ChannelPool::new(cfg.channels);
        Disk {
            cfg,
            blocks: HashMap::new(),
            undo: Vec::new(),
            channels,
            stats: IoStats::new(),
            injector: None,
            io_seq: 0,
            write_log: Vec::new(),
            inflight: BinaryHeap::new(),
            queued: HashMap::new(),
            read_seq: 0,
            read_faults: ReadFaultPlan::new(),
        }
    }

    /// Installs a fault plan; the device consults it on every write
    /// submission from now on. Replaces any previous plan and clears the
    /// injection audit log.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.injector = Some(FaultInjector::new(plan));
    }

    /// Removes the fault plan, returning the injector (with its audit
    /// log of faults actually applied), if one was installed.
    pub fn clear_fault_plan(&mut self) -> Option<FaultInjector> {
        self.injector.take()
    }

    /// The active fault injector, if any — exposes the audit log.
    pub fn fault_injector(&self) -> Option<&FaultInjector> {
        self.injector.as_ref()
    }

    /// Completion instants of the write segments so far, in submission
    /// order, less those at or before the latest [`Disk::settle_until`]
    /// instant. These are the IO boundaries a crash can land between;
    /// see [`crash_at_every_io`].
    pub fn write_completions(&self) -> &[Nanos] {
        &self.write_log
    }

    /// Number of write submissions so far — the index the fault plan
    /// will assign to the *next* submission.
    pub fn io_seq(&self) -> u64 {
        self.io_seq
    }

    /// The device configuration.
    pub fn config(&self) -> &DiskConfig {
        &self.cfg
    }

    /// Accumulated IO statistics.
    pub fn stats(&self) -> &IoStats {
        &self.stats
    }

    /// The instant a write submitted now would begin service: the
    /// earliest a channel is free. Before it every channel is busy with
    /// work already submitted, so a new submission waits for it anyway.
    pub fn idle_at(&self) -> Nanos {
        self.channels.free_at()
    }

    /// Resets IO statistics (e.g. after workload warm-up).
    pub fn reset_stats(&mut self) {
        self.stats = IoStats::new();
    }

    /// Submits a scatter/gather write of whole blocks at `now`.
    ///
    /// Every entry pairs a block number with exactly [`BLOCK_SIZE`] bytes.
    /// Data is visible to subsequent reads immediately (the caller holds it
    /// in memory anyway) and durable at the returned token's completion
    /// instant. Segments of up to the stripe size are dispatched across the
    /// device channels, so large vectored writes overlap.
    ///
    /// # Errors
    ///
    /// Returns [`IoError::NoSpace`] if any block lies beyond
    /// `DiskConfig::capacity_blocks`, and [`IoError::Failed`] if the
    /// installed fault plan drops this submission. On error nothing is
    /// written.
    ///
    /// # Panics
    ///
    /// Panics if any entry is not exactly [`BLOCK_SIZE`] bytes (a caller
    /// bug, not a device fault).
    pub fn writev_at(&mut self, now: Nanos, iov: &[(u64, &[u8])]) -> Result<WriteToken, IoError> {
        let total: usize = iov.iter().map(|(_, d)| d.len()).sum();
        for (block, data) in iov {
            assert_eq!(
                data.len(),
                BLOCK_SIZE,
                "block {block}: write entries must be BLOCK_SIZE bytes"
            );
        }

        if let Some(cap) = self.cfg.capacity_blocks {
            if let Some((block, _)) = iov.iter().find(|(b, _)| *b >= cap) {
                return Err(IoError::NoSpace {
                    block: *block,
                    capacity_blocks: cap,
                });
            }
        }

        // Consult the fault plan. Every submission consumes a sequence
        // number, including dropped ones, so a retry is a *new* submission
        // the plan may treat differently — that is what makes transient
        // faults recoverable.
        let io = self.io_seq;
        self.io_seq += 1;
        let fault = self.injector.as_mut().and_then(|inj| inj.consult(io));
        let amendable = iov.len() == 1 && fault.is_none();
        // Index of the first iov entry the device silently loses (torn
        // write); `iov.len()` means none.
        let mut torn_from = iov.len();
        let mut flip: Option<(usize, usize, u8)> = None;
        let mut spike = Nanos::ZERO;
        match fault {
            Some(Fault::Drop { transient }) => {
                let block = iov.first().map(|(b, _)| *b).unwrap_or(0);
                return Err(IoError::Failed { block, transient });
            }
            Some(Fault::Torn { prefix_blocks }) => {
                torn_from = prefix_blocks.min(iov.len());
            }
            Some(Fault::BitFlip { entry, byte, bit }) if !iov.is_empty() => {
                flip = Some((entry % iov.len(), byte % BLOCK_SIZE, bit % 8));
            }
            Some(Fault::BitFlip { .. }) => {}
            Some(Fault::LatencySpike { extra }) => spike = extra,
            None => {}
        }
        for (block, _) in iov {
            self.queued.remove(block);
        }

        // Schedule segments across channels (see `segment_cost`).
        let blocks_per_segment = (self.cfg.stripe_bytes / BLOCK_SIZE).max(1);
        let mut completes = now;
        let mut i = 0;
        let mut seg_index = 0;
        while i < iov.len() {
            let seg_blocks = blocks_per_segment.min(iov.len() - i);
            let latency = self.segment_cost(seg_index, seg_blocks) + spike;
            seg_index += 1;
            let done = self.channels.submit(now, latency);
            if amendable {
                self.queued.insert(iov[0].0, (done - latency, done));
            }
            // A fully torn segment never becomes durable; a partially torn
            // one is durable only up to the tear. Lost blocks are applied
            // to the live image (the device acked them and serves them
            // from cache) but their undo records carry `Nanos::MAX`, so
            // any crash rolls them back.
            for (k, (block, data)) in iov[i..i + seg_blocks].iter().enumerate() {
                let lost = i + k >= torn_from;
                let prev = self.blocks.insert(*block, data.to_vec().into_boxed_slice());
                self.undo.push(UndoEntry {
                    completes: if lost { Nanos::MAX } else { done },
                    block: *block,
                    prev,
                });
            }
            if i < torn_from {
                self.write_log.push(done);
            }
            completes = completes.max(done);
            i += seg_blocks;
        }

        if let Some((entry, byte, bit)) = flip {
            let block = iov[entry].0;
            if let Some(data) = self.blocks.get_mut(&block) {
                data[byte] ^= 1 << bit;
            }
        }

        // Queue-depth model: retire submissions that completed by `now`,
        // then sample the occupancy this submission observes (itself
        // included).
        while matches!(self.inflight.peek(), Some(Reverse(done)) if *done <= now) {
            self.inflight.pop();
        }
        self.queued.retain(|_, (_, done)| *done > now);
        self.inflight.push(Reverse(completes));
        self.stats.record_depth(self.inflight.len() as u64);

        self.stats
            .record_write(total, completes.saturating_sub(now));
        Ok(WriteToken {
            completes,
            bytes: total,
        })
    }

    /// Reports that the submission just issued carried `parts` logical
    /// commits merged into one IO (group commit). Pure accounting — see
    /// [`IoStats::merged_submissions`].
    pub fn note_merged(&mut self, parts: u64) {
        self.stats.record_merged(parts);
    }

    /// Submits a single-block write at `now`. See [`Disk::writev_at`].
    pub fn write_block_at(
        &mut self,
        now: Nanos,
        block: u64,
        data: &[u8],
    ) -> Result<WriteToken, IoError> {
        self.writev_at(now, &[(block, data)])
    }

    /// Replaces the payload of the one-block write queued to `block` with
    /// `data`, if the device has not started serving it by `now`: the
    /// host queue forms a request when a channel picks it up, so bytes
    /// handed over before then ride the same IO. Returns that write's
    /// token — its completion instant is unchanged, and no submission is
    /// made or counted. Refuses (`None`, nothing changes) when the
    /// newest write to `block` was vectored, carried a fault, or has
    /// started service.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly [`BLOCK_SIZE`] bytes.
    pub fn amend_at(&mut self, now: Nanos, block: u64, data: &[u8]) -> Option<WriteToken> {
        assert_eq!(
            data.len(),
            BLOCK_SIZE,
            "block {block}: a write is one block"
        );
        let (start, completes) = *self.queued.get(&block)?;
        if start <= now {
            return None;
        }
        self.blocks.insert(block, data.into());
        Some(WriteToken {
            completes,
            bytes: BLOCK_SIZE,
        })
    }

    /// Synchronous scatter/gather write: submits at the thread's current
    /// time and blocks it until completion (charged as IO wait).
    pub fn writev(&mut self, vt: &mut Vt, iov: &[(u64, &[u8])]) -> Result<WriteToken, IoError> {
        let token = self.writev_at(vt.now(), iov)?;
        Self::wait(vt, token);
        Ok(token)
    }

    /// Synchronous single-block write. See [`Disk::writev`].
    pub fn write_block(
        &mut self,
        vt: &mut Vt,
        block: u64,
        data: &[u8],
    ) -> Result<WriteToken, IoError> {
        self.writev(vt, &[(block, data)])
    }

    /// Blocks `vt` until `token` completes, charging the wait as
    /// [`Category::IoWait`].
    pub fn wait(vt: &mut Vt, token: WriteToken) {
        Self::wait_until(vt, token.completes);
    }

    /// Service time of the `seg_index`-th segment (`seg_blocks` blocks) of
    /// one vectored submission, read or write. Within one submission the
    /// device pipelines: only the first segment per channel pays the
    /// fixed setup cost; later segments stream at channel bandwidth. This
    /// is what lets deep-queue scatter/gather IO saturate the striped
    /// pair (paper Table 6: memsnap beats QD1 direct IO at large sizes).
    fn segment_cost(&self, seg_index: usize, seg_blocks: usize) -> Nanos {
        let latency = self.cfg.segment_latency(seg_blocks * BLOCK_SIZE);
        if seg_index < self.cfg.channels {
            latency
        } else {
            latency - self.cfg.setup
        }
    }

    /// Copies `block`'s current contents into `out`; missing
    /// (never-written) blocks read as zeroes.
    fn copy_out(&self, block: u64, out: &mut [u8]) {
        assert_eq!(out.len(), BLOCK_SIZE, "reads are whole blocks");
        match self.blocks.get(&block) {
            Some(data) => out.copy_from_slice(data),
            None => out.fill(0),
        }
    }

    /// Schedules one read submission of `blocks` blocks at `now` by the
    /// same rule as [`Disk::writev_at`]: stripe-sized segments, each on
    /// the earliest-free channel. Returns the instant the last segment
    /// completes and records the submission in [`IoStats`].
    fn schedule_read(&mut self, now: Nanos, blocks: usize) -> Nanos {
        let blocks_per_segment = (self.cfg.stripe_bytes / BLOCK_SIZE).max(1);
        let mut completes = now;
        let mut left = blocks;
        let mut seg_index = 0;
        while left > 0 {
            let seg_blocks = blocks_per_segment.min(left);
            let latency = self.segment_cost(seg_index, seg_blocks);
            seg_index += 1;
            completes = completes.max(self.channels.submit(now, latency));
            left -= seg_blocks;
        }
        self.stats
            .record_read(blocks * BLOCK_SIZE, completes.saturating_sub(now));
        completes
    }

    /// Charges `vt` the wait until `done` as [`Category::IoWait`].
    fn wait_until(vt: &mut Vt, done: Nanos) {
        let wait = done.saturating_sub(vt.now());
        if wait > Nanos::ZERO {
            vt.charge(Category::IoWait, wait);
        }
    }

    /// Installs a read-fault plan; every read from now on consults it,
    /// block by block. Replaces any previous plan. The read sequence
    /// counter is not reset — plans are indexed by the device lifetime
    /// counter (see [`Disk::read_seq`]).
    pub fn set_read_fault_plan(&mut self, plan: ReadFaultPlan) {
        self.read_faults = plan;
    }

    /// Number of blocks read so far — the index the read fault plan will
    /// assign to the *next* block of a [`Disk::try_readv_at`].
    pub fn read_seq(&self) -> u64 {
        self.read_seq
    }

    /// Submits a scatter/gather read of whole blocks at `now` without
    /// blocking a thread and returns the instant the last block arrives.
    ///
    /// Every entry pairs a block number with a [`BLOCK_SIZE`] buffer;
    /// missing (never-written) blocks read as zeroes. The submission is
    /// priced like a [`Disk::writev_at`] of the same size: segments of up
    /// to the stripe size dispatched across the device channels, so a
    /// deep read overlaps where a loop of one-block reads pays the full
    /// per-IO latency each time. Reads queue on the same channels as
    /// writes in flight.
    ///
    /// Each block consumes one read sequence number, in `iov` order, so a
    /// [`ReadFaultPlan`] index means "the n-th block read" whatever the
    /// shape of the submissions that carry it.
    ///
    /// # Errors
    ///
    /// Returns [`IoError::Failed`] naming the first block the installed
    /// [`ReadFaultPlan`] schedules a failure for; blocks after it consume
    /// no sequence numbers. No bytes are transferred and no time is
    /// charged; a retry is a *new* submission (fresh sequence numbers)
    /// the plan may treat differently.
    ///
    /// # Panics
    ///
    /// Panics if any buffer is not exactly [`BLOCK_SIZE`] bytes.
    pub fn try_readv_at(
        &mut self,
        now: Nanos,
        iov: &mut [(u64, &mut [u8])],
    ) -> Result<Nanos, IoError> {
        if iov.is_empty() {
            return Ok(now);
        }
        for (block, _) in iov.iter() {
            let seq = self.read_seq;
            self.read_seq += 1;
            match self.read_faults.fault_for(seq) {
                Some(ReadFault::Fail { transient }) => {
                    return Err(IoError::Failed {
                        block: *block,
                        transient,
                    });
                }
                Some(ReadFault::BitRot { byte, bit }) => {
                    // Rot the media in place, then serve the read normally:
                    // the caller gets corrupted bytes with Ok, and every
                    // later read of this block sees the same rot.
                    self.corrupt_bit(*block, byte, bit);
                }
                None => {}
            }
        }
        for (block, out) in iov.iter_mut() {
            self.copy_out(*block, out);
        }
        Ok(self.schedule_read(now, iov.len()))
    }

    /// Synchronous scatter/gather read: submits at the thread's current
    /// time and blocks it until the last block arrives (charged as IO
    /// wait). See [`Disk::try_readv_at`].
    pub fn try_readv(&mut self, vt: &mut Vt, iov: &mut [(u64, &mut [u8])]) -> Result<(), IoError> {
        let done = self.try_readv_at(vt.now(), iov)?;
        Self::wait_until(vt, done);
        Ok(())
    }

    /// Synchronous single-block read: the one-block case of
    /// [`Disk::try_readv`].
    pub fn try_read_block(
        &mut self,
        vt: &mut Vt,
        block: u64,
        out: &mut [u8],
    ) -> Result<(), IoError> {
        self.try_readv(vt, &mut [(block, out)])
    }

    /// Simulates a power failure at instant `at`: every write that had not
    /// completed by `at` is rolled back, leaving exactly the durable image.
    ///
    /// Writes that completed at or before `at` survive. The undo log is
    /// cleared; the device can keep being used (as a "rebooted" device):
    /// the work it had queued past `at` is gone with the power, so an IO
    /// submitted at `at` finds idle channels.
    pub fn crash(&mut self, at: Nanos) {
        self.channels.clamp_to(at);
        self.inflight.retain(|Reverse(done)| *done <= at);
        self.queued.clear();
        // Roll back in reverse submission order so stacked overwrites of
        // the same block restore correctly.
        for entry in self.undo.drain(..).rev().collect::<Vec<_>>() {
            if entry.completes > at {
                match entry.prev {
                    Some(prev) => {
                        self.blocks.insert(entry.block, prev);
                    }
                    None => {
                        self.blocks.remove(&entry.block);
                    }
                }
            }
        }
    }

    /// Declares all submitted writes durable and drops rollback state.
    ///
    /// Call between workload phases to bound undo-log memory when crash
    /// injection is not needed beyond this point. A crash may still be
    /// requested at any instant (it keeps everything settled here), so
    /// [`Disk::write_completions`] is left whole — a sweep's reference
    /// run may settle its set-up phase.
    pub fn settle(&mut self) {
        self.undo.clear();
    }

    /// Promises that no [`Disk::crash`] will be requested at an instant
    /// before `at`, and drops the rollback state only such a crash could
    /// need: the pre-images of writes durable by `at`, and their entries
    /// in [`Disk::write_completions`] (boundaries no crash may land on
    /// any more). Any later `crash(t)` with `t >= at` leaves exactly the
    /// image it would have left without this call. Torn writes (never
    /// durable) are kept unless `at` is [`Nanos::MAX`].
    ///
    /// A long-running owner whose only crash point is its own clock
    /// calls this as the clock advances to keep both bounded by the
    /// writes in flight instead of by the run's length.
    pub fn settle_until(&mut self, at: Nanos) {
        self.undo.retain(|u| u.completes > at);
        self.write_log.retain(|&done| done > at);
    }

    /// Direct access to a block's current contents (test/diagnostic aid).
    pub fn peek(&self, block: u64) -> Option<&[u8]> {
        self.blocks.get(&block).map(|b| &b[..])
    }

    /// Fault injection: flips one bit of a stored block, bypassing the
    /// timing model and the undo journal — models media corruption for
    /// recovery tests. No-op if the block was never written.
    pub fn corrupt_bit(&mut self, block: u64, byte: usize, bit: u8) {
        if let Some(data) = self.blocks.get_mut(&block) {
            data[byte % BLOCK_SIZE] ^= 1 << (bit % 8);
        }
    }

    /// Fault injection: deterministically rots `count` distinct blocks out
    /// of `candidates`, flipping one pseudorandom bit in each — the bulk
    /// counterpart of [`Disk::corrupt_bit`] for seeded at-rest corruption
    /// sweeps. Returns the blocks that were actually rotted (candidates
    /// never written are skipped). Same seed + same candidates → same rot.
    pub fn seeded_rot(&mut self, seed: u64, candidates: &[u64], count: usize) -> Vec<u64> {
        // splitmix64: tiny, deterministic, and good enough to scatter the
        // picks; no external RNG dependency.
        let mut state = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            msnap_sim::hash::splitmix64(state)
        };
        let mut pool: Vec<u64> = candidates.to_vec();
        let mut rotted = Vec::new();
        while rotted.len() < count && !pool.is_empty() {
            let pick = (next() as usize) % pool.len();
            let block = pool.swap_remove(pick);
            if !self.blocks.contains_key(&block) {
                continue;
            }
            let byte = (next() as usize) % BLOCK_SIZE;
            let bit = (next() % 8) as u8;
            self.corrupt_bit(block, byte, bit);
            rotted.push(block);
        }
        rotted
    }

    /// Number of distinct blocks ever written (and not rolled back).
    pub fn blocks_in_use(&self) -> usize {
        self.blocks.len()
    }
}

/// Sweeps every IO boundary of a deterministic workload as a crash point.
///
/// `run` executes the workload from scratch and returns the device *with
/// its undo journal intact* (do not call [`Disk::settle`]). The driver
/// runs it once to learn the completion instant of every write segment,
/// then re-runs it per boundary, crashing the device just before and
/// exactly at each completion — the two instants on either side of the
/// durability edge — and hands the crashed device to `check` together
/// with the crash instant. `check` asserts whatever recovery invariant
/// the workload promises (typically: recovery yields exactly a committed
/// prefix).
///
/// Returns the number of crash points exercised.
///
/// # Panics
///
/// Panics if `run` is not deterministic enough to reproduce the same
/// number of write submissions (the sweep would silently test the wrong
/// boundaries otherwise).
pub fn crash_at_every_io(
    mut run: impl FnMut() -> Disk,
    mut check: impl FnMut(Disk, Nanos),
) -> usize {
    let reference = run();
    let submissions = reference.io_seq();
    let mut boundaries = BTreeSet::new();
    boundaries.insert(Nanos::ZERO);
    for &done in reference.write_completions() {
        boundaries.insert(done.saturating_sub(Nanos::from_ns(1)));
        boundaries.insert(done);
    }
    let mut points = 0;
    for at in boundaries {
        let mut disk = run();
        assert_eq!(
            disk.io_seq(),
            submissions,
            "workload must be deterministic across sweep re-runs"
        );
        disk.crash(at);
        check(disk, at);
        points += 1;
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block_of(byte: u8) -> Vec<u8> {
        vec![byte; BLOCK_SIZE]
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut disk = Disk::new(DiskConfig::fast());
        let mut vt = Vt::new(0);
        disk.write_block(&mut vt, 5, &block_of(0xAB)).unwrap();
        let mut out = vec![0u8; BLOCK_SIZE];
        disk.try_read_block(&mut vt, 5, &mut out).unwrap();
        assert_eq!(out, block_of(0xAB));
    }

    #[test]
    fn a_crash_forgets_the_work_queued_behind_it() {
        let mut disk = Disk::new(DiskConfig::paper());
        let one_io = disk.config().segment_latency(BLOCK_SIZE);
        // A burst of eight writes at t = 0 on two channels: the last
        // pair completes four IOs in.
        let mut last = Nanos::ZERO;
        for b in 0..8 {
            last = disk
                .write_block_at(Nanos::ZERO, b, &block_of(b as u8 + 1))
                .unwrap()
                .completes();
        }
        assert_eq!(last, one_io * 4);
        // Power fails mid-burst, after the first pair.
        let at = one_io + Nanos::from_us(1);
        disk.crash(at);
        let mut out = vec![0u8; BLOCK_SIZE];
        let done = disk.try_readv_at(at, &mut [(1, &mut out)]).unwrap();
        assert_eq!(
            done,
            at + one_io,
            "the read does not queue behind lost writes"
        );
        assert_eq!(out, block_of(2));
        disk.try_readv_at(at, &mut [(2, &mut out)]).unwrap();
        assert_eq!(out, block_of(0), "the third write never happened");
        // The queue-depth model forgot them too.
        disk.write_block_at(at, 9, &block_of(9)).unwrap();
        assert_eq!(disk.inflight.len(), 1);
    }

    /// A paper device whose two channels are busy until one write's
    /// latency, with a third one-block write to block 7 queued behind
    /// them, and that write's token.
    fn one_write_queued() -> (Disk, WriteToken) {
        let mut disk = Disk::new(DiskConfig::paper());
        for b in 0..2 {
            disk.write_block_at(Nanos::ZERO, b, &block_of(1)).unwrap();
        }
        let queued = disk.write_block_at(Nanos::ZERO, 7, &block_of(2)).unwrap();
        (disk, queued)
    }

    #[test]
    fn amend_replaces_a_queued_write_until_its_service_starts() {
        let (mut disk, queued) = one_write_queued();
        let one_io = disk.config().segment_latency(BLOCK_SIZE);
        assert_eq!(queued.completes(), one_io * 2, "it starts at one_io");
        let (ios, writes) = (disk.io_seq(), disk.stats().writes());
        let amended = disk.amend_at(one_io - Nanos::from_ns(1), 7, &block_of(3));
        assert_eq!(amended, Some(queued), "the same write, the same completion");
        assert_eq!(disk.peek(7).unwrap(), &block_of(3)[..]);
        assert_eq!((disk.io_seq(), disk.stats().writes()), (ios, writes));
        // Once a channel has picked it up, the payload is fixed.
        assert_eq!(disk.amend_at(one_io, 7, &block_of(4)), None);
        assert_eq!(disk.peek(7).unwrap(), &block_of(3)[..]);
        // The amended bytes are durable exactly when the write is.
        disk.crash(queued.completes());
        assert_eq!(disk.peek(7).unwrap(), &block_of(3)[..]);
        let (mut torn, _) = one_write_queued();
        torn.amend_at(Nanos::ZERO, 7, &block_of(3)).unwrap();
        torn.crash(queued.completes() - Nanos::from_ns(1));
        assert!(torn.peek(7).is_none(), "the pre-image");
        assert_eq!(
            torn.amend_at(Nanos::ZERO, 7, &block_of(5)),
            None,
            "a crash forgets"
        );
    }

    #[test]
    fn only_the_newest_unfaulted_one_block_write_is_amendable() {
        let (mut disk, _) = one_write_queued();
        let data = block_of(2);
        // Queued, but vectored; and block 7's one-block write superseded
        // by a vectored one.
        disk.writev_at(Nanos::ZERO, &[(5, &data[..]), (6, &data[..])])
            .unwrap();
        disk.writev_at(Nanos::ZERO, &[(7, &data[..]), (8, &data[..])])
            .unwrap();
        // A one-block write that carried a fault.
        let mut spiked = Disk::new(DiskConfig::paper());
        let spike = Fault::LatencySpike {
            extra: Nanos::from_us(1),
        };
        spiked.set_fault_plan(FaultPlan::new().at(2, spike));
        for b in 0..3 {
            spiked.write_block_at(Nanos::ZERO, b, &data).unwrap();
        }
        let refuses = |disk: &mut Disk, block: u64| {
            assert_eq!(disk.amend_at(Nanos::ZERO, block, &block_of(9)), None);
            assert_eq!(disk.peek(block).unwrap(), &data[..], "block {block}");
        };
        refuses(&mut disk, 5);
        refuses(&mut disk, 7);
        refuses(&mut spiked, 2);
        // A write nobody amended is forgotten once a submission at or
        // past its completion is seen.
        let late = disk.write_block_at(Nanos::ZERO, 9, &data).unwrap();
        assert!(disk.queued.contains_key(&9));
        disk.write_block_at(late.completes(), 10, &data).unwrap();
        assert!(!disk.queued.contains_key(&9));
    }

    #[test]
    fn idle_at_is_the_earliest_channel_completion() {
        let mut disk = Disk::new(DiskConfig::paper());
        assert_eq!(disk.idle_at(), Nanos::ZERO);
        // 24 blocks at t = 0: three 8-block segments on two channels.
        let data = block_of(7);
        let iov: Vec<(u64, &[u8])> = (0..24).map(|b| (b, &data[..])).collect();
        disk.writev_at(Nanos::ZERO, &iov).unwrap();
        let segments = disk.write_completions();
        assert_eq!(segments.len(), 3);
        let earliest = segments.iter().copied().min();
        assert_eq!(Some(disk.idle_at()), earliest, "the first channel to free");
        // A write submitted before it begins service at it.
        let idle = disk.idle_at();
        let one_io = disk.config().segment_latency(BLOCK_SIZE);
        let done = disk
            .write_block_at(Nanos::from_us(1), 99, &block_of(9))
            .unwrap()
            .completes();
        assert_eq!(done, idle + one_io);
        // A crash forgets the queue: the device is idle by the crash.
        let at = Nanos::from_us(20);
        disk.crash(at);
        assert!(disk.idle_at() <= at);
    }

    #[test]
    fn read_fault_plan_hits_only_scheduled_reads() {
        let mut disk = Disk::new(DiskConfig::fast());
        let mut vt = Vt::new(0);
        disk.write_block(&mut vt, 5, &block_of(0xAB)).unwrap();
        disk.set_read_fault_plan(ReadFaultPlan::new().at(1, true));
        let mut out = vec![0u8; BLOCK_SIZE];
        // Read 0: clean. Read 1: scheduled transient failure.
        disk.try_read_block(&mut vt, 5, &mut out).unwrap();
        let err = disk.try_read_block(&mut vt, 5, &mut out).unwrap_err();
        assert!(err.is_transient());
        // The retry is submission 2 — past the plan, so it succeeds.
        out.fill(0);
        disk.try_read_block(&mut vt, 5, &mut out).unwrap();
        assert_eq!(out, block_of(0xAB));
        assert_eq!(disk.read_seq(), 3);
    }

    #[test]
    fn bit_rot_fault_serves_corrupted_data_without_error() {
        let mut disk = Disk::new(DiskConfig::fast());
        let mut vt = Vt::new(0);
        disk.write_block(&mut vt, 5, &block_of(0xAB)).unwrap();
        disk.set_read_fault_plan(ReadFaultPlan::new().rot_at(0, 3, 1));
        let mut out = vec![0u8; BLOCK_SIZE];
        // The rotted read reports success but byte 3 has bit 1 flipped.
        disk.try_read_block(&mut vt, 5, &mut out).unwrap();
        let mut want = block_of(0xAB);
        want[3] ^= 1 << 1;
        assert_eq!(out, want);
        // Rot is on the media, not the wire: later clean reads see it too.
        out.fill(0);
        disk.try_read_block(&mut vt, 5, &mut out).unwrap();
        assert_eq!(out, want);
    }

    /// Reads `blocks` as one vectored submission at `now`; returns the
    /// completion instant and the bytes.
    fn readv(disk: &mut Disk, now: Nanos, blocks: &[u64]) -> Result<(Nanos, Vec<u8>), IoError> {
        let mut buf = vec![0u8; blocks.len() * BLOCK_SIZE];
        let mut iov: Vec<(u64, &mut [u8])> = blocks
            .iter()
            .copied()
            .zip(buf.chunks_mut(BLOCK_SIZE))
            .collect();
        let done = disk.try_readv_at(now, &mut iov)?;
        Ok((done, buf))
    }

    #[test]
    fn one_block_vectored_read_is_a_qd1_read() {
        let mut disk = Disk::new(DiskConfig::paper());
        let (done, _) = readv(&mut disk, Nanos::ZERO, &[3]).unwrap();
        assert_eq!(done, disk.config().segment_latency(BLOCK_SIZE));
        // ... and so is one submitted later, on an idle device.
        let mut out = vec![0u8; BLOCK_SIZE];
        let at = Nanos::from_secs(1);
        let qd1 = disk.config().segment_latency(BLOCK_SIZE);
        assert_eq!(
            disk.try_readv_at(at, &mut [(3, &mut out)]).unwrap(),
            at + qd1
        );
        assert_eq!(disk.stats().reads(), 2);
        assert_eq!(disk.stats().read_submissions(), 2);
    }

    #[test]
    fn vectored_read_is_priced_like_a_vectored_write() {
        let data = block_of(3);
        for blocks in [1usize, 8, 16, 17, 64, 256] {
            let mut writer = Disk::new(DiskConfig::paper());
            let iov: Vec<(u64, &[u8])> = (0..blocks).map(|b| (b as u64, &data[..])).collect();
            let written = writer.writev_at(Nanos::ZERO, &iov).unwrap().completes();
            let mut reader = Disk::new(DiskConfig::paper());
            let addrs: Vec<u64> = (0..blocks as u64).collect();
            let (read, _) = readv(&mut reader, Nanos::ZERO, &addrs).unwrap();
            assert_eq!(read, written, "{blocks} blocks");
            assert_eq!(reader.stats().reads(), blocks as u64);
            assert_eq!(reader.stats().read_submissions(), 1);
            assert_eq!(reader.stats().read_latency().count(), 1);
        }
    }

    #[test]
    fn vectored_read_returns_each_blocks_bytes_in_iov_order() {
        let mut disk = Disk::new(DiskConfig::fast());
        for b in 0..4u64 {
            disk.write_block_at(Nanos::ZERO, b, &block_of(b as u8 + 1))
                .unwrap();
        }
        let (_, buf) = readv(&mut disk, Nanos::ZERO, &[2, 0, 9, 3]).unwrap();
        for (chunk, want) in buf.chunks(BLOCK_SIZE).zip([3u8, 1, 0, 4]) {
            assert_eq!(chunk, &block_of(want)[..]);
        }
    }

    #[test]
    fn reads_queue_behind_writes_in_flight_on_the_same_channels() {
        let mut disk = Disk::new(DiskConfig::paper());
        let data = block_of(1);
        // Occupy both channels with one 32 KiB segment each.
        let iov: Vec<(u64, &[u8])> = (0..16).map(|b| (b as u64, &data[..])).collect();
        let busy_until = disk.writev_at(Nanos::ZERO, &iov).unwrap().completes();
        let (done, _) = readv(&mut disk, Nanos::ZERO, &[0]).unwrap();
        assert_eq!(
            done,
            busy_until + disk.config().segment_latency(BLOCK_SIZE),
            "the read starts when a channel frees up"
        );
    }

    #[test]
    fn read_fault_indices_count_blocks_across_vectored_reads() {
        let mut disk = Disk::new(DiskConfig::fast());
        for b in 0..8u64 {
            disk.write_block_at(Nanos::ZERO, b, &block_of(0xAB))
                .unwrap();
        }
        // Index 5 is the third block of the second submission below.
        disk.set_read_fault_plan(ReadFaultPlan::new().rot_at(5, 3, 1).at(9, true));
        let (_, clean) = readv(&mut disk, Nanos::ZERO, &[0, 1, 2]).unwrap();
        assert!(clean.iter().all(|&b| b == 0xAB));
        let (_, buf) = readv(&mut disk, Nanos::ZERO, &[3, 4, 5, 6]).unwrap();
        assert_eq!(disk.read_seq(), 7);
        let mut rotted = block_of(0xAB);
        rotted[3] ^= 1 << 1;
        for (i, chunk) in buf.chunks(BLOCK_SIZE).enumerate() {
            let want = if i == 2 { &rotted } else { &block_of(0xAB) };
            assert_eq!(chunk, &want[..], "block {}", 3 + i);
        }
        assert_eq!(disk.peek(5).unwrap(), &rotted[..], "rot is on the media");

        // Index 9 is the third block of the next submission: it fails the
        // whole submission, consumes no numbers past itself, and costs no
        // time or statistics.
        let stats = disk.stats().clone();
        let drained = disk.channels.drained_at();
        let err = readv(&mut disk, Nanos::ZERO, &[0, 1, 2, 3]).unwrap_err();
        assert_eq!(
            err,
            IoError::Failed {
                block: 2,
                transient: true
            }
        );
        assert_eq!(disk.read_seq(), 10);
        assert_eq!(disk.stats().reads(), stats.reads());
        assert_eq!(disk.stats().read_submissions(), stats.read_submissions());
        assert_eq!(disk.channels.drained_at(), drained);
        // The retry is a fresh submission past the plan.
        readv(&mut disk, Nanos::ZERO, &[0, 1, 2, 3]).unwrap();
        assert_eq!(disk.read_seq(), 14);
    }

    #[test]
    fn seeded_rot_is_deterministic_and_skips_unwritten_blocks() {
        let mut vt = Vt::new(0);
        let build = || {
            let mut d = Disk::new(DiskConfig::fast());
            let mut v = Vt::new(0);
            for b in 0..8u64 {
                d.write_block(&mut v, b, &block_of(b as u8)).unwrap();
            }
            d
        };
        let mut a = build();
        let mut b = build();
        let candidates: Vec<u64> = (0..12).collect(); // 8..12 never written
        let rot_a = a.seeded_rot(42, &candidates, 3);
        let rot_b = b.seeded_rot(42, &candidates, 3);
        assert_eq!(rot_a, rot_b);
        assert_eq!(rot_a.len(), 3);
        assert!(rot_a.iter().all(|&blk| blk < 8));
        for &blk in &rot_a {
            let mut out = vec![0u8; BLOCK_SIZE];
            a.try_read_block(&mut vt, blk, &mut out).unwrap();
            assert_ne!(out, block_of(blk as u8), "block {blk} not rotted");
            let mut out_b = vec![0u8; BLOCK_SIZE];
            b.try_read_block(&mut vt, blk, &mut out_b).unwrap();
            assert_eq!(out, out_b, "rot differs between identical seeds");
        }
    }

    #[test]
    fn unwritten_blocks_read_zero() {
        let mut disk = Disk::new(DiskConfig::fast());
        let mut out = vec![1u8; BLOCK_SIZE];
        disk.try_readv_at(Nanos::ZERO, &mut [(999, &mut out)])
            .unwrap();
        assert!(out.iter().all(|&b| b == 0));
    }

    #[test]
    fn sync_write_latency_matches_model() {
        let mut disk = Disk::new(DiskConfig::paper());
        let mut vt = Vt::new(0);
        disk.write_block(&mut vt, 0, &block_of(1)).unwrap();
        let us = vt.now().as_us_f64();
        assert!((us - 17.0).abs() < 2.0, "4 KiB QD1 write took {us} us");
    }

    #[test]
    fn vectored_write_overlaps_channels() {
        // 32 blocks = 128 KiB = two 64 KiB segments; with two channels they
        // overlap, so the elapsed time is much less than 2x a segment.
        let mut disk = Disk::new(DiskConfig::paper());
        let data = block_of(3);
        let iov: Vec<(u64, &[u8])> = (0..32).map(|b| (b as u64, &data[..])).collect();
        let token = disk.writev_at(Nanos::ZERO, &iov).unwrap();
        let seg = disk.config().segment_latency(64 * 1024);
        assert!(token.completes() < seg * 2, "segments did not overlap");
        assert!(token.completes() >= seg);
    }

    #[test]
    fn crash_rolls_back_incomplete_writes() {
        let mut disk = Disk::new(DiskConfig::paper());
        let t1 = disk.write_block_at(Nanos::ZERO, 7, &block_of(1)).unwrap();
        // Second write to the same block, submitted after the first
        // completes.
        let t2 = disk
            .write_block_at(t1.completes(), 7, &block_of(2))
            .unwrap();
        assert!(t2.completes() > t1.completes());

        // Crash between the two completions: only the first survives.
        disk.crash(t1.completes());
        assert_eq!(disk.peek(7).unwrap(), &block_of(1)[..]);
    }

    #[test]
    fn crash_before_any_completion_empties_block() {
        let mut disk = Disk::new(DiskConfig::paper());
        disk.write_block_at(Nanos::ZERO, 7, &block_of(9)).unwrap();
        disk.crash(Nanos::ZERO); // nothing completed by t=0
        assert!(disk.peek(7).is_none());
    }

    #[test]
    fn crash_preserves_completed_vectored_segments() {
        let mut disk = Disk::new(DiskConfig::paper());
        let data = block_of(5);
        // 64 blocks = 4 segments over 2 channels: two waves.
        let iov: Vec<(u64, &[u8])> = (0..64).map(|b| (b as u64, &data[..])).collect();
        let token = disk.writev_at(Nanos::ZERO, &iov).unwrap();
        let first_wave = disk.config().segment_latency(64 * 1024) + Nanos::from_ns(100);
        disk.crash(first_wave);
        let survivors = (0..64).filter(|b| disk.peek(*b).is_some()).count();
        assert!(survivors >= 32, "first-wave segments must survive");
        assert!(survivors < 64, "second-wave segments must be rolled back");
        assert!(token.completes() > first_wave);
    }

    #[test]
    fn wait_charges_io_wait() {
        let mut disk = Disk::new(DiskConfig::paper());
        let mut vt = Vt::new(0);
        let token = disk.write_block_at(vt.now(), 1, &block_of(1)).unwrap();
        Disk::wait(&mut vt, token);
        assert_eq!(vt.now(), token.completes());
        assert_eq!(vt.costs().get(Category::IoWait), token.completes());
    }

    #[test]
    fn stats_track_bytes_and_ios() {
        let mut disk = Disk::new(DiskConfig::fast());
        let mut vt = Vt::new(0);
        disk.write_block(&mut vt, 0, &block_of(1)).unwrap();
        disk.write_block(&mut vt, 1, &block_of(2)).unwrap();
        let mut out = vec![0u8; BLOCK_SIZE];
        disk.try_read_block(&mut vt, 0, &mut out).unwrap();
        assert_eq!(disk.stats().writes(), 2);
        assert_eq!(disk.stats().bytes_written(), 2 * BLOCK_SIZE as u64);
        assert_eq!(disk.stats().reads(), 1);
    }

    #[test]
    #[should_panic(expected = "BLOCK_SIZE")]
    fn partial_block_writes_rejected() {
        let mut disk = Disk::new(DiskConfig::fast());
        let _ = disk.write_block_at(Nanos::ZERO, 0, &[1, 2, 3]);
    }

    #[test]
    fn settle_then_crash_keeps_everything() {
        let mut disk = Disk::new(DiskConfig::paper());
        disk.write_block_at(Nanos::ZERO, 3, &block_of(4)).unwrap();
        disk.settle();
        disk.crash(Nanos::ZERO);
        assert_eq!(disk.peek(3).unwrap(), &block_of(4)[..]);
    }

    /// A seeded mix of stacked overwrites, multi-segment writes and one
    /// torn write, submitted at advancing instants.
    fn seeded_write_mix() -> (Disk, Vec<Nanos>) {
        let mut disk = Disk::new(DiskConfig::paper());
        disk.set_fault_plan(FaultPlan::new().at(17, Fault::Torn { prefix_blocks: 1 }));
        let mut state = 42u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut now = Nanos::ZERO;
        for i in 0..64u64 {
            now += Nanos::from_us(next() % 30);
            let blocks: Vec<(u64, Vec<u8>)> = (0..1 + next() % 40)
                .map(|_| (next() % 24, block_of((i + 1) as u8)))
                .collect();
            let iov: Vec<(u64, &[u8])> = blocks.iter().map(|(b, d)| (*b, &d[..])).collect();
            disk.writev_at(now, &iov).unwrap();
        }
        assert!(disk.undo.iter().any(|u| u.completes == Nanos::MAX), "torn");
        let mut instants = disk.write_completions().to_vec();
        instants.extend([Nanos::ZERO, now, Nanos::MAX]);
        instants.sort();
        (disk, instants)
    }

    #[test]
    fn settle_until_never_changes_what_a_later_crash_leaves() {
        let (_, instants) = seeded_write_mix();
        for (i, &at1) in instants.iter().enumerate().step_by(13) {
            for &at2 in instants[i..].iter().step_by(11) {
                let (mut plain, _) = seeded_write_mix();
                let (mut trimmed, _) = seeded_write_mix();
                let (journal, log) = (trimmed.undo.len(), trimmed.write_log.len());
                trimmed.settle_until(at1);
                assert!(at1 == Nanos::ZERO || trimmed.undo.len() < journal);
                // The boundary log is bounded by the writes still in
                // flight at `at1`, and untouched without the call.
                assert!(trimmed.write_log.iter().all(|&done| done > at1));
                assert!(at1 == Nanos::ZERO || trimmed.write_log.len() < log);
                assert_eq!(plain.write_log.len(), log);
                plain.crash(at2);
                trimmed.crash(at2);
                assert_eq!(plain.blocks, trimmed.blocks, "settle {at1}, crash {at2}");
            }
        }
    }

    #[test]
    fn capacity_exhaustion_fails_without_side_effects() {
        let mut disk = Disk::new(DiskConfig::fast().with_capacity_blocks(10));
        disk.write_block_at(Nanos::ZERO, 9, &block_of(1)).unwrap();
        let err = disk
            .write_block_at(Nanos::ZERO, 10, &block_of(2))
            .unwrap_err();
        assert_eq!(
            err,
            IoError::NoSpace {
                block: 10,
                capacity_blocks: 10
            }
        );
        assert!(!err.is_transient());
        assert!(disk.peek(10).is_none());
        assert_eq!(disk.stats().writes(), 1, "failed write must not be counted");
    }

    #[test]
    fn dropped_write_applies_nothing_and_reports_transience() {
        let mut disk = Disk::new(DiskConfig::fast());
        disk.set_fault_plan(
            FaultPlan::new()
                .at(0, Fault::Drop { transient: true })
                .at(1, Fault::Drop { transient: false }),
        );
        let soft = disk
            .write_block_at(Nanos::ZERO, 5, &block_of(1))
            .unwrap_err();
        assert!(soft.is_transient());
        assert!(disk.peek(5).is_none());
        let hard = disk
            .write_block_at(Nanos::ZERO, 5, &block_of(1))
            .unwrap_err();
        assert!(!hard.is_transient());
        // Third submission: past the plan, succeeds.
        disk.write_block_at(Nanos::ZERO, 5, &block_of(1)).unwrap();
        assert_eq!(disk.peek(5).unwrap(), &block_of(1)[..]);
        assert_eq!(disk.fault_injector().unwrap().injected().len(), 2);
    }

    #[test]
    fn torn_write_loses_the_tail_only_at_crash() {
        let mut disk = Disk::new(DiskConfig::fast());
        disk.set_fault_plan(FaultPlan::new().at(0, Fault::Torn { prefix_blocks: 2 }));
        let data = block_of(7);
        let iov: Vec<(u64, &[u8])> = (0..4).map(|b| (b as u64, &data[..])).collect();
        let token = disk.writev_at(Nanos::ZERO, &iov).unwrap();
        // The device lies: before a crash all four blocks read back fine.
        for b in 0..4 {
            assert_eq!(disk.peek(b).unwrap(), &data[..], "pre-crash block {b}");
        }
        // After a crash — even one well past the token — only the prefix
        // survives.
        disk.crash(token.completes() + Nanos::from_secs(1));
        assert!(disk.peek(0).is_some());
        assert!(disk.peek(1).is_some());
        assert!(disk.peek(2).is_none(), "torn tail must be lost");
        assert!(disk.peek(3).is_none(), "torn tail must be lost");
    }

    #[test]
    fn bit_flip_corrupts_exactly_one_bit() {
        let mut disk = Disk::new(DiskConfig::fast());
        disk.set_fault_plan(FaultPlan::new().at(
            0,
            Fault::BitFlip {
                entry: 0,
                byte: 100,
                bit: 3,
            },
        ));
        disk.write_block_at(Nanos::ZERO, 4, &block_of(0)).unwrap();
        let stored = disk.peek(4).unwrap();
        let diff: u32 = stored
            .iter()
            .zip(block_of(0).iter())
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(diff, 1);
        assert_eq!(stored[100], 1 << 3);
    }

    #[test]
    fn latency_spike_delays_completion() {
        let mut disk = Disk::new(DiskConfig::fast());
        let base = disk.write_block_at(Nanos::ZERO, 0, &block_of(1)).unwrap();
        let mut spiky = Disk::new(DiskConfig::fast());
        spiky.set_fault_plan(FaultPlan::new().at(
            0,
            Fault::LatencySpike {
                extra: Nanos::from_us(300),
            },
        ));
        let slow = spiky.write_block_at(Nanos::ZERO, 0, &block_of(1)).unwrap();
        assert_eq!(
            slow.completes(),
            base.completes() + Nanos::from_us(300),
            "spike must add exactly the configured extra latency"
        );
        assert_eq!(spiky.peek(0).unwrap(), &block_of(1)[..], "data still lands");
    }

    #[test]
    fn queue_depth_tracks_overlapping_submissions() {
        let mut disk = Disk::new(DiskConfig::paper());
        let data = block_of(1);
        // Three submissions at the same instant stack up; a fourth far in
        // the future sees an empty queue again.
        for b in 0..3u64 {
            disk.write_block_at(Nanos::ZERO, b, &data).unwrap();
        }
        assert_eq!(disk.stats().max_queue_depth(), 3);
        disk.write_block_at(Nanos::from_secs(1), 9, &data).unwrap();
        let avg = disk.stats().avg_queue_depth();
        assert!((avg - (1.0 + 2.0 + 3.0 + 1.0) / 4.0).abs() < 1e-9, "{avg}");
    }

    #[test]
    fn write_log_records_segment_boundaries() {
        let mut disk = Disk::new(DiskConfig::paper());
        let data = block_of(2);
        // 16 blocks = 64 KiB = two 32 KiB segments.
        let iov: Vec<(u64, &[u8])> = (0..16).map(|b| (b as u64, &data[..])).collect();
        disk.writev_at(Nanos::ZERO, &iov).unwrap();
        assert_eq!(disk.write_completions().len(), 2);
        assert_eq!(disk.io_seq(), 1);
        // Settling forgets exactly the boundaries no crash may land on
        // any more, so the log is bounded by the writes in flight.
        let landed = disk.write_completions().iter().copied().max().unwrap();
        let late = disk.write_block_at(landed, 99, &data).unwrap().completes();
        assert_eq!(disk.write_completions().len(), 3);
        disk.settle_until(landed);
        assert_eq!(disk.write_completions(), [late]);
        disk.settle_until(late);
        assert!(disk.write_completions().is_empty());
    }

    #[test]
    fn crash_at_every_io_visits_both_sides_of_each_boundary() {
        // Workload: three dependent single-block writes.
        let run = || {
            let mut disk = Disk::new(DiskConfig::paper());
            let data = block_of(1);
            let mut now = Nanos::ZERO;
            for b in 0..3u64 {
                now = disk.write_block_at(now, b, &data).unwrap().completes();
            }
            disk
        };
        let mut seen = Vec::new();
        let points = crash_at_every_io(run, |disk, at| {
            let survivors = (0..3u64).filter(|b| disk.peek(*b).is_some()).count();
            seen.push((at, survivors));
        });
        // 3 completions × (just-before + at) + t=0; the first boundary's
        // "just before" may coincide with nothing else, so expect 7 points.
        assert_eq!(points, 7);
        // Survivor count must be monotone in the crash instant and hit
        // every prefix 0..=3.
        let counts: Vec<usize> = seen.iter().map(|(_, s)| *s).collect();
        assert!(counts.windows(2).all(|w| w[0] <= w[1]));
        for want in 0..=3usize {
            assert!(
                counts.contains(&want),
                "missing prefix {want} in {counts:?}"
            );
        }
    }
}
