//! The simulated block device.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashMap, VecDeque};

use msnap_sim::{zero_tail, Category, ChannelPool, Nanos, Vt};

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

/// Handle for an IO submitted in the idle class ([`Disk::submit_idle_readv`],
/// [`Disk::submit_idle_writev`]); pass it to [`Disk::idle_lands`].
#[derive(Debug)]
#[must_use = "an idle IO lands only once it is waited on or pushed by foreground IO"]
pub struct IdleIo {
    id: u64,
}

/// One segment of an idle-class IO that no channel has taken yet.
#[derive(Debug, Clone)]
struct IdleSegment {
    io: u64,
    /// A write segment's undo entries carry this id until it is placed
    /// (0 for a read segment, or one the fault plan tore whole).
    id: u64,
    /// The earliest it may start: its submission, or a write's gate.
    not_before: Nanos,
    /// What the same segment of an eager IO costs.
    cost: Nanos,
    /// That cost leaves out the setup: in an eager IO the segment
    /// streams on after an earlier one on its channel.
    streams: bool,
    /// A write's record: it starts only once the rest has landed.
    record: bool,
}

/// What the fault plan did to one admitted write submission.
struct Faults {
    /// Index of the first iov entry the device silently loses (torn
    /// write); `iov.len()` means none.
    torn_from: usize,
    flip: Option<(usize, usize, u8)>,
    spike: Nanos,
    clean: bool,
}

/// One rollback record: the pre-image of a block overwritten by a write
/// that completes at `completes`, or, while `segment` is not 0, when that
/// idle segment completes once placed. The pre-image is stored as the
/// device stores blocks (see [`stored`]).
#[derive(Debug, Clone)]
struct UndoEntry {
    completes: Nanos,
    segment: u64,
    block: u64,
    prev: Option<Box<[u8]>>,
}

/// What the device keeps of a block image: `data` (a whole block)
/// without its trailing zero bytes ([`zero_tail::trim`]), which reads pad
/// back ([`Disk::copy_out`]). A ring slot or record block is mostly
/// zeroes, so this is what a written block costs the host.
fn stored(data: &[u8]) -> Box<[u8]> {
    zero_tail::trim(data).into()
}

/// A simulated striped NVMe device.
///
/// Contents are real bytes (4 KiB blocks, each held without its trailing
/// zeroes); time is virtual. Writes are
/// applied to the in-memory image immediately on submission and become
/// *durable* at their completion instant; [`Disk::crash`] rolls the image
/// back to exactly the durable prefix. See the crate docs for the latency
/// model.
#[derive(Debug, Clone)]
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
    /// Idle-class segments no channel has taken yet, in submission
    /// order (DESIGN.md §6g). Foreground submissions pass them.
    idle: VecDeque<IdleSegment>,
    /// Every idle IO not yet waited on, by id: when it was submitted, and
    /// when its segments placed so far complete.
    idle_ios: HashMap<u64, (Nanos, Nanos)>,
    /// Completion of each placed idle write segment, by id.
    placed: HashMap<u64, Nanos>,
    /// Next id of an idle IO (its channel tag) or write segment, from 1.
    next_idle: u64,
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
            idle: VecDeque::new(),
            idle_ios: HashMap::new(),
            placed: HashMap::new(),
            next_idle: 1,
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
    /// Idle-class segments no channel has taken yet are not counted.
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
        let faults = self.admit(iov)?;
        let amendable = iov.len() == 1 && faults.clean;

        // Schedule segments across channels (see `segment_cost`), after
        // the idle IO a channel would have started before `now`.
        self.place_idle(|_, start| start < now);
        let mut completes = now;
        let mut i = 0;
        for (seg_index, seg_blocks) in self.segments(iov.len()).enumerate() {
            let latency = self.segment_cost(seg_index, seg_blocks) + faults.spike;
            let done = self.channels.submit(now, latency);
            self.stats.record_busy(latency, false);
            if amendable {
                self.queued.insert(iov[0].0, (done - latency, done));
            }
            self.apply(iov, i..i + seg_blocks, &faults, (done, 0));
            if i < faults.torn_from {
                self.write_log.push(done);
            }
            completes = completes.max(done);
            i += seg_blocks;
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

        let total = iov.len() * BLOCK_SIZE;
        self.stats.record_write(total, false);
        self.stats
            .record_write_latency(completes.saturating_sub(now));
        Ok(WriteToken {
            completes,
            bytes: total,
        })
    }

    /// The checks and the fault plan every write submission passes first
    /// (see [`Disk::writev_at`] for the errors). A dropped submission
    /// consumes a sequence number too, so a retry is a *new* submission.
    fn admit(&mut self, iov: &[(u64, &[u8])]) -> Result<Faults, IoError> {
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
        let io = self.io_seq;
        self.io_seq += 1;
        let fault = self.injector.as_mut().and_then(|inj| inj.consult(io));
        let mut faults = Faults {
            torn_from: iov.len(),
            flip: None,
            spike: Nanos::ZERO,
            clean: fault.is_none(),
        };
        match fault {
            Some(Fault::Drop { transient }) => {
                let block = iov.first().map(|(b, _)| *b).unwrap_or(0);
                return Err(IoError::Failed { block, transient });
            }
            Some(Fault::Torn { prefix_blocks }) => faults.torn_from = prefix_blocks.min(iov.len()),
            Some(Fault::BitFlip { entry, byte, bit }) if !iov.is_empty() => {
                faults.flip = Some((entry % iov.len(), byte % BLOCK_SIZE, bit % 8));
            }
            Some(Fault::BitFlip { .. }) => {}
            Some(Fault::LatencySpike { extra }) => faults.spike = extra,
            None => {}
        }
        for (block, _) in iov {
            self.queued.remove(block);
        }
        Ok(faults)
    }

    /// Applies the entries `range` of `iov` (one segment) to the live
    /// image, with the fault plan's bit flip, each undo entry durable at
    /// `completes` or once idle `segment` is placed. Blocks past a tear
    /// are applied too, but never become durable.
    fn apply(
        &mut self,
        iov: &[(u64, &[u8])],
        range: std::ops::Range<usize>,
        faults: &Faults,
        (completes, segment): (Nanos, u64),
    ) {
        for k in range {
            let (block, data) = iov[k];
            let image = match faults.flip.filter(|flip| flip.0 == k) {
                Some((_, byte, bit)) => {
                    let mut flipped = data.to_vec();
                    flipped[byte] ^= 1 << bit;
                    stored(&flipped)
                }
                None => stored(data),
            };
            let prev = self.blocks.insert(block, image);
            let lost = k >= faults.torn_from;
            self.undo.push(UndoEntry {
                completes: if lost { Nanos::MAX } else { completes },
                segment: if lost { 0 } else { segment },
                block,
                prev,
            });
        }
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
        self.blocks.insert(block, stored(data));
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

    /// Copies `block`'s current contents into `out`, its trailing zeroes
    /// padded back; missing (never-written) blocks read as zeroes.
    fn copy_out(&self, block: u64, out: &mut [u8]) {
        assert_eq!(out.len(), BLOCK_SIZE, "reads are whole blocks");
        let held = self.blocks.get(&block).map_or(&[][..], |b| &b[..]);
        zero_tail::read_at(held, 0, out);
    }

    /// Schedules one read submission of `blocks` blocks at `now` by the
    /// same rule as [`Disk::writev_at`]: stripe-sized segments, each on
    /// the earliest-free channel, after the idle IO a channel would
    /// have started before `now`. Returns the instant the last segment
    /// completes and records the submission in [`IoStats`].
    fn schedule_read(&mut self, now: Nanos, blocks: usize) -> Nanos {
        self.place_idle(|_, start| start < now);
        let mut completes = now;
        for (seg_index, seg_blocks) in self.segments(blocks).enumerate() {
            let latency = self.segment_cost(seg_index, seg_blocks);
            completes = completes.max(self.channels.submit(now, latency));
            self.stats.record_busy(latency, false);
        }
        self.stats.record_read(blocks * BLOCK_SIZE, false);
        let latency = completes.saturating_sub(now);
        self.stats.record_read_latency(latency);
        completes
    }

    /// The block counts of the stripe-sized segments `blocks` blocks
    /// split into, in order.
    fn segments(&self, blocks: usize) -> impl Iterator<Item = usize> {
        let per = (self.cfg.stripe_bytes / BLOCK_SIZE).max(1);
        (0..blocks.div_ceil(per)).map(move |i| per.min(blocks - i * per))
    }

    /// Puts waiting idle-class segments onto channels, oldest first,
    /// while `go(io, start)` holds for the next one, `start` being the
    /// instant a channel would take it. A segment costs what the same
    /// segment of an eager IO costs, plus the setup again unless its
    /// channel just finished the previous segment of the same IO at
    /// `start`. A write segment becomes durable at its completion; the IO
    /// whose last segment is placed has landed, and its latency, waits
    /// for gaps included, is recorded in the idle class's histogram.
    fn place_idle(&mut self, mut go: impl FnMut(u64, Nanos) -> bool) {
        while let Some(seg) = self.idle.front() {
            let lands = self.idle_ios[&seg.io].1;
            let floor = seg
                .not_before
                .max(if seg.record { lands } else { Nanos::ZERO });
            if !go(seg.io, floor.max(self.channels.free_at())) {
                break;
            }
            let seg = self.idle.pop_front().expect("peeked segment exists");
            let mut hold = seg.cost;
            let setup = self.cfg.setup;
            let done = self.channels.submit_tagged(floor, seg.io, |follows| {
                if seg.streams && !follows {
                    hold += setup;
                }
                hold
            });
            self.stats.record_busy(hold, true);
            if seg.id != 0 {
                self.placed.insert(seg.id, done);
                self.write_log.push(done);
            }
            let (submitted, lands) = self.idle_ios.get_mut(&seg.io).expect("waiting");
            *lands = (*lands).max(done);
            if self.idle.front().is_none_or(|next| next.io != seg.io) {
                self.stats
                    .record_idle_latency(lands.saturating_sub(*submitted));
            }
        }
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
        self.transfer(iov)?;
        Ok(self.schedule_read(now, iov.len()))
    }

    /// Submits a scatter/gather read at `now` in the idle class: the
    /// maintenance reads no acknowledgement waits for. The bytes are
    /// copied and the [`ReadFaultPlan`] consulted here, exactly as by
    /// [`Disk::try_readv_at`], and the read is counted in [`IoStats`]; its
    /// stripe-sized segments then wait for the device. A foreground
    /// submission at `t` first puts onto a channel each waiting segment
    /// a channel would have started before `t`, then takes its own
    /// channel: it waits at most for segments already in service, never
    /// for the rest of the read. [`Disk::idle_lands`] places the rest.
    ///
    /// A segment costs what the same segment of an eager read costs,
    /// plus the setup again unless it starts on the channel the previous
    /// segment of the same read just left: alone, an idle read lands
    /// when the eager read would have. [`Disk::crash`] drops the
    /// segments no channel would have started by then.
    ///
    /// # Errors
    ///
    /// As [`Disk::try_readv_at`]: nothing is submitted.
    ///
    /// # Panics
    ///
    /// Panics if any buffer is not exactly [`BLOCK_SIZE`] bytes.
    pub fn submit_idle_readv(
        &mut self,
        now: Nanos,
        iov: &mut [(u64, &mut [u8])],
    ) -> Result<IdleIo, IoError> {
        self.transfer(iov)?;
        if !iov.is_empty() {
            self.stats.record_read(iov.len() * BLOCK_SIZE, true);
        }
        Ok(self.queue_idle(now, iov.len(), None))
    }

    /// Submits a scatter/gather write at `now` in the idle class: the
    /// maintenance writes no acknowledgement waits for. Its last entry
    /// is a record: its segment starts only once every other segment has
    /// landed, and not before `gate`. At submission it does what
    /// [`Disk::writev_at`] does (the checks, one sequence number, every
    /// fault of the plan, the bytes visible at once, the counts in
    /// [`IoStats`]); its segments are then placed as an idle read's are
    /// ([`Disk::submit_idle_readv`]), and each is durable at its
    /// completion once placed, a boundary [`crash_at_every_io`] sweeps.
    /// [`Disk::crash`] places what a channel would have started by then
    /// and rolls back the rest, so on a quiet device an idle write is
    /// durable exactly when the eager extent and record would be.
    ///
    /// # Errors
    ///
    /// As [`Disk::writev_at`]: nothing is written.
    ///
    /// # Panics
    ///
    /// As [`Disk::writev_at`].
    pub fn submit_idle_writev(
        &mut self,
        now: Nanos,
        iov: &[(u64, &[u8])],
        gate: Nanos,
    ) -> Result<IdleIo, IoError> {
        let faults = self.admit(iov)?;
        self.stats.record_write(iov.len() * BLOCK_SIZE, true);
        Ok(self.queue_idle(now, iov.len(), Some((iov, &faults, gate))))
    }

    /// Queues the stripe-sized segments of an idle IO of `blocks` blocks
    /// submitted at `now` and returns its handle. A write keeps its last
    /// block apart as a record behind the rest, and applies each
    /// segment's blocks with undo entries durable once it is placed.
    #[allow(clippy::type_complexity)]
    fn queue_idle(
        &mut self,
        now: Nanos,
        blocks: usize,
        write: Option<(&[(u64, &[u8])], &Faults, Nanos)>,
    ) -> IdleIo {
        let io = self.next_idle;
        self.idle_ios.insert(io, (now, now));
        let body = blocks - usize::from(write.is_some() && blocks > 0);
        let record = (blocks > body).then_some((0, 1));
        let mut i = 0;
        for (seg_index, seg_blocks) in self.segments(body).enumerate().chain(record) {
            self.next_idle += 1;
            let mut seg = IdleSegment {
                io,
                id: 0,
                not_before: now,
                cost: self.segment_cost(seg_index, seg_blocks),
                streams: seg_index >= self.cfg.channels,
                record: i == body,
            };
            if let Some((iov, faults, gate)) = write {
                let torn = i >= faults.torn_from;
                seg.id = if torn { 0 } else { self.next_idle };
                seg.cost += faults.spike;
                if seg.record {
                    seg.not_before = now.max(gate);
                }
                self.apply(iov, i..i + seg_blocks, faults, (Nanos::MAX, seg.id));
            }
            self.idle.push_back(seg);
            i += seg_blocks;
        }
        self.next_idle += 1;
        IdleIo { id: io }
    }

    /// The instant the idle IO `io` lands: places the waiting segments of
    /// `io` and of the idle IO before it that a channel would start before
    /// `by`, then answers unless one of `io`'s still waits. At `by` =
    /// [`Nanos::MAX`] it places the rest: its caller waits for it. Once
    /// answered, `io` is spent.
    ///
    /// # Panics
    ///
    /// Panics if a [`Disk::crash`] dropped the IO, or `io` is spent.
    pub fn idle_lands(&mut self, io: &IdleIo, by: Nanos) -> Option<Nanos> {
        self.place_idle(|id, start| id <= io.id && start < by);
        if self.idle.front().is_some_and(|seg| seg.io <= io.id) {
            return None;
        }
        let (_, lands) = self.idle_ios.remove(&io.id).expect("a crash dropped it");
        Some(lands)
    }

    /// Consults the read fault plan for every block of `iov`, in order,
    /// then copies each block's current contents out. See
    /// [`Disk::try_readv_at`] for the errors.
    fn transfer(&mut self, iov: &mut [(u64, &mut [u8])]) -> Result<(), IoError> {
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
        Ok(())
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
    /// Writes that completed at or before `at` survive, idle segments a
    /// channel would have started before `at` placed first. The undo log
    /// is cleared; the device can keep being used (as a "rebooted"
    /// device): the work it had queued past `at` is gone with the power,
    /// idle IO included, so an IO submitted at `at` finds idle channels.
    pub fn crash(&mut self, at: Nanos) {
        self.place_idle(|_, start| start < at);
        self.channels.clamp_to(at);
        self.idle.clear();
        self.idle_ios.clear();
        self.inflight.retain(|Reverse(done)| *done <= at);
        self.queued.clear();
        // Roll back in reverse submission order so stacked overwrites of
        // the same block restore correctly.
        for entry in self.undo.drain(..).rev().collect::<Vec<_>>() {
            let durable = match entry.segment {
                0 => entry.completes,
                segment => self.placed.get(&segment).copied().unwrap_or(Nanos::MAX),
            };
            if durable > at {
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
        self.placed.clear();
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
        self.placed.clear();
    }

    /// Promises that no [`Disk::crash`] will be requested at an instant
    /// before `at`, and drops the rollback state only such a crash could
    /// need: the pre-images of writes durable by `at`, and their entries
    /// in [`Disk::write_completions`] (boundaries no crash may land on
    /// any more). Any later `crash(t)` with `t >= at` leaves exactly the
    /// image it would have left without this call. Torn writes (never
    /// durable) and idle segments still waiting are kept unless `at` is
    /// [`Nanos::MAX`].
    ///
    /// A long-running owner whose only crash point is its own clock
    /// calls this as the clock advances to keep both bounded by the
    /// writes in flight instead of by the run's length.
    pub fn settle_until(&mut self, at: Nanos) {
        for entry in &mut self.undo {
            if let Some(&done) = self.placed.get(&entry.segment) {
                (entry.completes, entry.segment) = (done, 0);
            }
        }
        self.placed.clear();
        self.undo.retain(|u| u.completes > at);
        self.write_log.retain(|&done| done > at);
    }

    /// A copy of a written block's whole current contents, its trailing
    /// zeroes included; `None` if it was never written (test/diagnostic
    /// aid).
    pub fn peek(&self, block: u64) -> Option<Vec<u8>> {
        let held = self.blocks.get(&block)?;
        Some(zero_tail::padded(held, BLOCK_SIZE))
    }

    /// Fault injection: flips one bit of a stored block, bypassing the
    /// timing model and the undo journal — models media corruption for
    /// recovery tests. No-op if the block was never written.
    pub fn corrupt_bit(&mut self, block: u64, byte: usize, bit: u8) {
        if let Some(mut image) = self.peek(block) {
            image[byte % BLOCK_SIZE] ^= 1 << (bit % 8);
            self.blocks.insert(block, stored(&image));
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
/// then crashes a copy of that device per boundary, just before and
/// exactly at each completion — the two instants on either side of the
/// durability edge — and hands the crashed device to `check` together
/// with the crash instant. A second run checks that the workload repeats,
/// so the copies stand for what a re-run would return. `check` asserts
/// whatever recovery invariant the workload promises (typically: recovery
/// yields exactly a committed prefix).
///
/// Returns the number of crash points exercised.
///
/// # Panics
///
/// Panics if `run` is not deterministic enough to reproduce the same
/// write submissions and completions (the sweep would silently test the
/// wrong boundaries otherwise).
pub fn crash_at_every_io(
    mut run: impl FnMut() -> Disk,
    mut check: impl FnMut(Disk, Nanos),
) -> usize {
    let workload = run();
    let again = run();
    assert_eq!(
        (again.io_seq(), again.write_completions()),
        (workload.io_seq(), workload.write_completions()),
        "workload must be deterministic across sweep re-runs"
    );
    // Crashed as `run` returns it; the boundaries are where a quiet
    // device places the idle IO.
    let mut reference = workload.clone();
    reference.place_idle(|_, _| true);
    let mut boundaries = BTreeSet::new();
    boundaries.insert(Nanos::ZERO);
    for &done in reference.write_completions() {
        boundaries.insert(done.saturating_sub(Nanos::from_ns(1)));
        boundaries.insert(done);
    }
    for &at in &boundaries {
        let mut disk = workload.clone();
        disk.crash(at);
        check(disk, at);
    }
    boundaries.len()
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

    /// Submits `blocks` in the idle class at `now`; the handle and the
    /// bytes.
    fn idle_readv(
        disk: &mut Disk,
        now: Nanos,
        blocks: &[u64],
    ) -> Result<(IdleIo, Vec<u8>), IoError> {
        let mut buf = vec![0u8; blocks.len() * BLOCK_SIZE];
        let mut iov: Vec<(u64, &mut [u8])> = blocks
            .iter()
            .copied()
            .zip(buf.chunks_mut(BLOCK_SIZE))
            .collect();
        let read = disk.submit_idle_readv(now, &mut iov)?;
        Ok((read, buf))
    }

    /// A paper device with `blocks` distinct blocks written at t = 0.
    fn written(blocks: u64) -> Disk {
        let mut disk = Disk::new(DiskConfig::paper());
        for b in 0..blocks {
            disk.write_block_at(Nanos::ZERO, b, &block_of(b as u8 + 1))
                .unwrap();
        }
        disk
    }

    #[test]
    fn an_idle_read_alone_lands_when_the_eager_read_would() {
        for blocks in [1u64, 8, 16, 17, 64, 256] {
            // On an idle device, and queued behind writes in flight.
            for (prior, at) in [(0, Nanos::from_secs(1)), (3, Nanos::from_us(5))] {
                let addrs: Vec<u64> = (0..blocks).collect();
                let mut eager = written(prior);
                let mut idle = written(prior);
                let (lands, bytes) = readv(&mut eager, at, &addrs).unwrap();
                let (read, idle_bytes) = idle_readv(&mut idle, at, &addrs).unwrap();
                assert_eq!(idle.stats().reads(), eager.stats().reads());
                assert_eq!(idle.stats().idle_latency().count(), 0, "not landed yet");
                assert_eq!(
                    idle.idle_lands(&read, Nanos::MAX).unwrap(),
                    lands,
                    "{blocks} blocks"
                );
                assert_eq!(idle_bytes, bytes);
                assert_eq!(idle.channels.drained_at(), eager.channels.drained_at());
                let (i, e) = (idle.stats(), eager.stats());
                assert_eq!(i.read_submissions(), e.read_submissions());
                assert_eq!(i.read_latency().count(), 0, "foreground reads only");
                assert_eq!(i.idle_latency().count(), 1);
                assert_eq!(i.idle_latency().max(), e.read_latency().max());
            }
        }
    }

    #[test]
    fn a_write_waits_for_the_idle_segment_in_service_not_the_whole_read() {
        let cfg = DiskConfig::paper();
        let segment = cfg.segment_latency(cfg.stripe_bytes);
        let one_io = cfg.segment_latency(BLOCK_SIZE);
        let addrs: Vec<u64> = (0..64).collect();
        let at = Nanos::from_us(1);
        // An eager read holds both channels for its four segments each.
        let mut eager = Disk::new(cfg.clone());
        let (eager_lands, _) = readv(&mut eager, Nanos::ZERO, &addrs).unwrap();
        let behind = eager.write_block_at(at, 99, &block_of(9)).unwrap();
        assert_eq!(behind.completes(), eager_lands + one_io);

        let mut disk = Disk::new(cfg.clone());
        let (read, _) = idle_readv(&mut disk, Nanos::ZERO, &addrs).unwrap();
        let write = disk.write_block_at(at, 99, &block_of(9)).unwrap();
        assert_eq!(
            write.completes(),
            segment + one_io,
            "it starts when the first segment in service ends"
        );
        assert_eq!(disk.idle.len(), 6, "the two segments in service only");
        // The read streams on over the other channel and pays the setup
        // again where the write came between.
        let lands = disk.idle_lands(&read, Nanos::MAX).unwrap();
        assert!(lands > eager_lands, "{lands:?} vs {eager_lands:?}");
        assert!(lands <= eager_lands + one_io + cfg.setup);
        assert!(disk.idle.is_empty());
        assert_eq!(disk.stats().idle_latency().max(), lands);
    }

    #[test]
    fn a_crash_drops_the_waiting_idle_segments() {
        let mut disk = written(64);
        let addrs: Vec<u64> = (0..64).collect();
        let (_dropped, _) = idle_readv(&mut disk, Nanos::ZERO, &addrs).unwrap();
        disk.write_block_at(Nanos::from_us(1), 99, &block_of(9))
            .unwrap();
        assert!(!disk.idle.is_empty());
        let at = Nanos::from_us(2);
        disk.crash(at);
        assert!(disk.idle.is_empty() && disk.idle_ios.is_empty());
        let (done, _) = readv(&mut disk, at, &[0]).unwrap();
        let one_io = disk.config().segment_latency(BLOCK_SIZE);
        assert_eq!(done, at + one_io, "nothing of the read is left to wait for");
        assert_eq!(disk.stats().read_latency().count(), 1, "the eager read");
        assert_eq!(
            disk.stats().idle_latency().count(),
            0,
            "the idle read never landed"
        );
    }

    #[test]
    fn idle_and_eager_reads_consume_the_same_read_fault_sequence() {
        let addrs: Vec<u64> = (0..8).collect();
        for plan in [
            ReadFaultPlan::new().at(5, false),
            ReadFaultPlan::new().rot_at(2, 40, 3).at(12, true),
        ] {
            let mut eager = written(8);
            let mut idle = written(8);
            eager.set_read_fault_plan(plan.clone());
            idle.set_read_fault_plan(plan);
            for _ in 0..2 {
                let want = readv(&mut eager, Nanos::ZERO, &addrs);
                let got = idle_readv(&mut idle, Nanos::ZERO, &addrs);
                assert_eq!(idle.read_seq(), eager.read_seq());
                match (want, got) {
                    (Ok((_, want)), Ok((read, got))) => {
                        assert_eq!(got, want);
                        let _ = idle.idle_lands(&read, Nanos::MAX).unwrap();
                    }
                    (Err(want), Err(got)) => assert_eq!(got, want),
                    (want, got) => panic!("{want:?} vs {got:?}"),
                }
                assert_eq!(idle.stats().reads(), eager.stats().reads());
                for b in &addrs {
                    assert_eq!(idle.peek(*b), eager.peek(*b), "block {b}");
                }
            }
        }
    }

    /// `blocks` distinct blocks filled with `fill`, as a write's iov: the
    /// last one a record block.
    fn images(blocks: u64, fill: u8) -> Vec<(u64, Vec<u8>)> {
        (0..blocks).map(|b| (100 + b, block_of(fill))).collect()
    }

    fn iov_of(images: &[(u64, Vec<u8>)]) -> Vec<(u64, &[u8])> {
        images.iter().map(|(b, d)| (*b, &d[..])).collect()
    }

    /// What the store's eager landing step does: the extent, then the
    /// record at the later of its completion and `gate`. Returns the
    /// record's completion.
    fn land_eager(disk: &mut Disk, now: Nanos, iov: &[(u64, &[u8])], gate: Nanos) -> Nanos {
        let (record, extent) = iov.split_last().expect("a record");
        let data_done = match extent.is_empty() {
            true => now,
            false => disk.writev_at(now, extent).unwrap().completes(),
        };
        let at = data_done.max(gate);
        disk.writev_at(at, &[*record]).unwrap().completes()
    }

    #[test]
    fn an_idle_write_alone_lands_when_the_eager_write_would() {
        for blocks in [1u64, 2, 8, 9, 16, 17, 64, 256] {
            // On an idle device, and queued behind writes in flight; with
            // and without a gate past the extent.
            for (prior, at) in [(0, Nanos::from_secs(1)), (3, Nanos::from_us(5))] {
                for gate in [Nanos::ZERO, at + Nanos::from_us(400)] {
                    let data = images(blocks, 7);
                    let iov = iov_of(&data);
                    let mut eager = written(prior);
                    let mut idle = written(prior);
                    let lands = land_eager(&mut eager, at, &iov, gate);
                    let io = idle.submit_idle_writev(at, &iov, gate).unwrap();
                    assert_eq!(idle.io_seq(), prior + 1, "one submission");
                    assert_eq!(idle.stats().bytes_written(), eager.stats().bytes_written());
                    assert_eq!(idle.stats().idle_bytes(), (0, blocks * BLOCK_SIZE as u64));
                    assert_eq!(idle.stats().idle_latency().count(), 0, "not landed");
                    let what = format!("{blocks} blocks, gate {gate:?}, prior {prior}");
                    assert_eq!(idle.idle_lands(&io, Nanos::MAX), Some(lands), "{what}");
                    assert_eq!(idle.channels.drained_at(), eager.channels.drained_at());
                    let ((fg, _), (_, background)) =
                        (eager.stats().channel_busy(), idle.stats().channel_busy());
                    assert_eq!(background + idle.stats().channel_busy().0, fg, "{what}");
                    assert_eq!(idle.stats().write_latency().count(), prior, "{what}");
                    let latency = idle.stats().idle_latency();
                    assert_eq!(latency.count(), 1, "{what}");
                    assert_eq!(latency.max(), lands - at, "{what}");
                    for (block, image) in &iov {
                        assert_eq!(idle.peek(*block).as_deref(), Some(*image));
                    }
                }
            }
        }
    }

    /// A paper device with two one-block writes, the idle write of
    /// `blocks` (its last a record gated at `gate`) at 1 µs, and a
    /// foreground write at 40 µs; or the same with the eager landing step.
    fn idle_or_eager_run(blocks: u64, gate: Nanos, idle: bool) -> Disk {
        let mut disk = written(2);
        let data = images(blocks, 9);
        let iov = iov_of(&data);
        let at = Nanos::from_us(1);
        if idle {
            let _pending = disk.submit_idle_writev(at, &iov, gate).unwrap();
        } else {
            land_eager(&mut disk, at, &iov, gate);
        }
        disk
    }

    #[test]
    fn at_every_crash_instant_an_idle_write_is_as_durable_as_the_eager_one() {
        for (blocks, gate) in [
            (1, Nanos::ZERO),
            (20, Nanos::ZERO),
            (40, Nanos::from_us(900)),
        ] {
            let eager = idle_or_eager_run(blocks, gate, false);
            let mut instants: BTreeSet<Nanos> = BTreeSet::new();
            for &done in eager.write_completions() {
                instants.extend([done - Nanos::from_ns(1), done, done + Nanos::from_ns(1)]);
            }
            instants.extend([Nanos::ZERO, Nanos::MAX]);
            let idle_points = crash_at_every_io(
                || idle_or_eager_run(blocks, gate, true),
                |_, at| {
                    instants.insert(at);
                },
            );
            assert!(idle_points > 2, "{idle_points}");
            for &at in &instants {
                let mut eager = idle_or_eager_run(blocks, gate, false);
                let mut idle = idle_or_eager_run(blocks, gate, true);
                eager.crash(at);
                idle.crash(at);
                assert_eq!(
                    idle.blocks, eager.blocks,
                    "{blocks} blocks, crash at {at:?}"
                );
            }
        }
    }

    #[test]
    fn a_write_waits_for_the_idle_write_segment_in_service_not_the_whole_write() {
        let cfg = DiskConfig::paper();
        let segment = cfg.segment_latency(cfg.stripe_bytes);
        let one_io = cfg.segment_latency(BLOCK_SIZE);
        let data = images(65, 3);
        let mut disk = Disk::new(cfg.clone());
        let io = disk
            .submit_idle_writev(Nanos::ZERO, &iov_of(&data), Nanos::ZERO)
            .unwrap();
        let write = disk
            .write_block_at(Nanos::from_us(1), 99, &block_of(9))
            .unwrap();
        assert_eq!(write.completes(), segment + one_io);
        assert_eq!(
            disk.idle.len(),
            7,
            "two of eight extent segments in service"
        );
        let lands = disk.idle_lands(&io, Nanos::MAX).unwrap();
        assert!(lands > write.completes());
        // Two segments pay the setup, six stream on, and the one after
        // the write pays it again; then the record.
        let (fg, idle) = disk.stats().channel_busy();
        assert_eq!(fg, one_io);
        let streamed = segment - cfg.setup;
        assert_eq!(idle, segment * 2 + streamed * 6 + cfg.setup + one_io);
    }

    #[test]
    fn a_crash_drops_the_unplaced_segments_and_rolls_back_a_placed_one_in_service() {
        let cfg = DiskConfig::paper();
        let segment = cfg.segment_latency(cfg.stripe_bytes);
        let data = images(33, 4);
        let idle = |gate| {
            let mut disk = Disk::new(cfg.clone());
            let _pending = disk
                .submit_idle_writev(Nanos::ZERO, &iov_of(&data), gate)
                .unwrap();
            disk
        };
        let durable = |disk: &Disk| (100..133).filter(|b| disk.peek(*b).is_some()).count();
        // Crashed while the first two segments are in service: they
        // were placed, but complete after the crash.
        let mut disk = idle(Nanos::ZERO);
        disk.crash(segment - Nanos::from_ns(1));
        assert_eq!(durable(&disk), 0);
        assert!(disk.idle.is_empty() && disk.idle_ios.is_empty() && disk.placed.is_empty());
        // Just after they complete: the next two were placed at
        // `segment` and are in service; the record was never placed.
        let mut disk = idle(Nanos::ZERO);
        disk.crash(segment + Nanos::from_ns(1));
        assert_eq!(durable(&disk), 16);
        // Long after: all of it, but a record gated past the crash
        // never started.
        let mut disk = idle(Nanos::from_secs(1));
        disk.crash(Nanos::from_ms(10));
        assert_eq!(durable(&disk), 32, "the extent, not the record");
        assert_eq!(disk.write_completions().len(), 4, "one boundary a segment");
        // The device is quiet after the crash.
        let at = Nanos::from_ms(10);
        let done = disk.write_block_at(at, 7, &block_of(1)).unwrap();
        assert_eq!(done.completes(), at + cfg.segment_latency(BLOCK_SIZE));
    }

    #[test]
    fn idle_and_eager_writes_consume_the_same_fault_sequence() {
        let data = images(20, 5);
        let iov = iov_of(&data);
        let flip = Fault::BitFlip {
            entry: 13,
            byte: 77,
            bit: 2,
        };
        for fault in [
            Fault::Drop { transient: true },
            Fault::Torn { prefix_blocks: 11 },
            Fault::Torn { prefix_blocks: 19 },
            flip.clone(),
        ] {
            let mut eager = written(0);
            let mut idle = written(0);
            for disk in [&mut eager, &mut idle] {
                disk.set_fault_plan(FaultPlan::new().at(1, fault.clone()).at(2, flip.clone()));
            }
            for _ in 0..3 {
                let want = eager.writev_at(Nanos::ZERO, &iov);
                let got = idle.submit_idle_writev(Nanos::ZERO, &iov, Nanos::ZERO);
                assert_eq!(got.as_ref().err(), want.as_ref().err(), "{fault:?}");
                if let Ok(io) = got {
                    idle.idle_lands(&io, Nanos::MAX).unwrap();
                }
                assert_eq!(idle.io_seq(), eager.io_seq());
                assert_eq!(idle.blocks, eager.blocks, "{fault:?}: the live image");
            }
            let injected = |disk: &Disk| disk.fault_injector().unwrap().injected().to_vec();
            assert_eq!(injected(&idle), injected(&eager));
            eager.crash(Nanos::MAX - Nanos::from_ns(1));
            idle.crash(Nanos::MAX - Nanos::from_ns(1));
            assert_eq!(idle.blocks, eager.blocks, "{fault:?}: the durable image");
        }
        // A latency spike lengthens every segment alike.
        let spike = Fault::LatencySpike {
            extra: Nanos::from_us(300),
        };
        let mut eager = written(0);
        let mut idle = written(0);
        eager.set_fault_plan(FaultPlan::new().at(0, spike.clone()));
        idle.set_fault_plan(FaultPlan::new().at(0, spike));
        let done = eager.write_block_at(Nanos::ZERO, 1, &block_of(1)).unwrap();
        let io = idle
            .submit_idle_writev(Nanos::ZERO, &[(1, &block_of(1)[..])], Nanos::ZERO)
            .unwrap();
        assert_eq!(idle.idle_lands(&io, Nanos::MAX), Some(done.completes()));
    }

    #[test]
    fn a_record_segment_is_never_durable_before_its_extent_or_its_gate() {
        // Behind the extent alone (a one-segment extent on an idle
        // device: the record would otherwise finish first), and behind a
        // gate past it.
        let gated = Nanos::from_us(700);
        for (blocks, prior, gate) in [(9, 0, Nanos::ZERO), (40, 5, Nanos::ZERO), (40, 0, gated)] {
            let data = images(blocks, 6);
            let record = data.last().unwrap().0;
            let run = || {
                let mut disk = written(prior);
                let _pending = disk
                    .submit_idle_writev(Nanos::ZERO, &iov_of(&data), gate)
                    .unwrap();
                disk.write_block_at(Nanos::from_us(50), 999, &block_of(1))
                    .unwrap();
                disk
            };
            let (mut with_record, mut points) = (0, 0);
            crash_at_every_io(run, |disk, at| {
                points += 1;
                if disk.peek(record).is_some() {
                    with_record += 1;
                    assert!(at >= gate, "{prior}: the record before its gate, {at:?}");
                    assert!(data.iter().all(|(b, _)| disk.peek(*b).is_some()));
                }
            });
            assert!(
                with_record > 0 && with_record < points,
                "{prior}: {with_record}"
            );
        }
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

    /// A record-like image: a short head with a zero gap in it, then
    /// zeroes to the end of the block.
    fn zero_tailed(head: u8) -> Vec<u8> {
        let mut image = vec![0u8; BLOCK_SIZE];
        image[..37].fill(head);
        image[41] = head;
        image
    }

    fn read_back(disk: &mut Disk, block: u64) -> Vec<u8> {
        let mut out = vec![0xEE; BLOCK_SIZE];
        disk.try_readv_at(Nanos::ZERO, &mut [(block, &mut out)])
            .unwrap();
        out
    }

    #[test]
    fn a_zero_tailed_block_round_trips_through_every_write_and_fault() {
        let (a, b, c) = (zero_tailed(1), zero_tailed(2), zero_tailed(3));
        let zeroes = block_of(0);
        // amend_at over a queued one-block write.
        let (mut disk, queued) = one_write_queued();
        assert_eq!(disk.amend_at(Nanos::ZERO, 7, &c), Some(queued));
        assert_eq!(disk.peek(7), Some(c.clone()));
        // writev_at, with an all-zero block beside it.
        let at = Nanos::from_us(500);
        let first = disk
            .writev_at(at, &[(1, &a[..]), (2, &zeroes[..])])
            .unwrap();
        assert_eq!(disk.peek(1), Some(a.clone()));
        assert_eq!(read_back(&mut disk, 1), a);
        assert_eq!(disk.peek(2), Some(zeroes.clone()), "written, all zero");
        assert_eq!(disk.blocks[&1].len(), 42, "the zero tail is not kept");
        assert!(disk.blocks[&2].is_empty());
        // An idle write, its record included.
        let io = disk
            .submit_idle_writev(at, &[(3, &b[..]), (4, &c[..])], Nanos::ZERO)
            .unwrap();
        let landed = disk.idle_lands(&io, Nanos::MAX).unwrap();
        assert_eq!(
            (disk.peek(3), disk.peek(4)),
            (Some(b.clone()), Some(c.clone()))
        );
        // Crash rollback restores the zero-tailed pre-image.
        let over = disk.write_block_at(landed, 1, &b).unwrap();
        assert_eq!(read_back(&mut disk, 1), b);
        disk.crash(over.completes() - Nanos::from_ns(1));
        assert!(first.completes() < over.completes());
        assert_eq!(disk.peek(1), Some(a.clone()), "the pre-image");
        assert_eq!(read_back(&mut disk, 1), a);
        assert_eq!(disk.peek(7), Some(c.clone()), "durable before the crash");
        // A bit flip inside the trimmed tail is on the media, and a
        // second flip of the same bit restores the block exactly.
        disk.corrupt_bit(1, 4_000, 2);
        let mut rotted = a.clone();
        rotted[4_000] ^= 1 << 2;
        assert_eq!(disk.peek(1), Some(rotted.clone()));
        assert_eq!(read_back(&mut disk, 1), rotted);
        disk.corrupt_bit(1, 4_000, 2);
        assert_eq!(disk.peek(1), Some(a.clone()));
        assert_eq!(disk.blocks[&1].len(), 42);
        // seeded_rot flips exactly one bit wherever it lands, the tail
        // included.
        let mut in_tail = 0;
        for seed in 0..16 {
            let mut rot = Disk::new(DiskConfig::paper());
            rot.write_block_at(Nanos::ZERO, 3, &b).unwrap();
            assert_eq!(rot.seeded_rot(seed, &[3, 9], 1), vec![3], "9 is unwritten");
            let got = read_back(&mut rot, 3);
            let diff: Vec<usize> = (0..BLOCK_SIZE).filter(|&i| got[i] != b[i]).collect();
            assert_eq!(diff.len(), 1, "seed {seed}");
            assert_eq!((got[diff[0]] ^ b[diff[0]]).count_ones(), 1, "seed {seed}");
            assert_eq!(rot.peek(3), Some(got));
            in_tail += usize::from(diff[0] >= 42);
        }
        assert!(in_tail > 0, "no seed rotted a tail byte");
    }

    #[test]
    fn an_idle_writes_wait_never_enters_the_write_latency() {
        let mut disk = Disk::new(DiskConfig::paper());
        let one_io = disk.config().segment_latency(BLOCK_SIZE);
        let data = images(4, 7);
        let io = disk
            .submit_idle_writev(Nanos::ZERO, &iov_of(&data), Nanos::ZERO)
            .unwrap();
        // Foreground writes made at the clock keep both channels busy:
        // the idle write finds no gap for ten IO times.
        for round in 0..10u64 {
            for b in 0..2 {
                disk.write_block_at(one_io * round, b, &block_of(1))
                    .unwrap();
            }
        }
        assert_eq!(disk.idle.len(), 2, "nothing placed yet");
        let lands = disk.idle_lands(&io, Nanos::MAX).unwrap();
        assert!(lands > one_io * 10, "{lands:?}");
        let stats = disk.stats();
        assert_eq!(stats.write_latency().count(), 20);
        assert_eq!(stats.write_latency().max(), one_io, "commit IO only");
        assert_eq!(stats.idle_latency().count(), 1);
        assert_eq!(
            stats.idle_latency().max(),
            lands,
            "the wait is the idle class's"
        );
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
