//! The receiving end of a link: a [`ReplicaNode`] takes each ship's
//! `Begin`, frames and `End` in any order into one reassembly record —
//! the ship's one frame buffer — lands the complete ship as one
//! crash-atomic commit and answers `Ack` — or, once a hole outlives the
//! reorder allowance, the `Nak` naming it. It also answers repair
//! requests, asks for its own rot, and tracks the announced cuts.
//!
//! Once its link has shown loss — a probe `End` arrived, or an `End` of a
//! ship it already holds or has landed (every resend carries the ship's
//! `End`) — the node sends each `Ack` twice, back to back, for the next
//! [`LOSS_MEMORY`] ships: a lost `Ack` stalls its object's one ship in
//! flight for a probe timeout, and the primary ignores an `Ack` for a
//! ship no longer in flight. A link that has shown no loss, or none for
//! that many ships, gets one `Ack` a ship.

use super::*;

/// One replica "machine": its own virtual clock, device, object store,
/// in-progress apply sessions, and lifecycle state.
pub struct ReplicaNode {
    pub(super) name: String,
    pub(super) vt: Vt,
    pub(super) disk: Disk,
    pub(super) store: ObjectStore,
    pub(super) state: ReplicaState,
    /// Ships in progress keyed by ship id: whatever of each has arrived,
    /// in whatever order.
    pub(super) ships: BTreeMap<u64, Reassembly>,
    /// How long past their `End` the ships that landed without a `Nak`
    /// still had pieces arriving, when any did — what tells a hole from
    /// mere reordering.
    pub(super) reorder: Estimator,
    /// Recently finished ships, so a repeated `End` whose `Ack` was lost
    /// re-acknowledges instead of re-applying.
    completed: BTreeMap<u64, (String, Epoch)>,
    /// Retained anchor-epoch snapshot names per object, oldest first.
    applied: BTreeMap<String, Vec<String>>,
    /// Last instant a `RepairRequest` for (object, page) went up the
    /// link, bounding re-request traffic for the node's own rot.
    pub(super) repair_sent: BTreeMap<(String, u64), Nanos>,
    /// Announced cuts not yet complete here, keyed by sequence number.
    announced: BTreeMap<u64, VectorCut>,
    /// The newest announced cut every component of which this replica
    /// has reached — the only states failover may promote it at.
    pub(super) cut: Option<VectorCut>,
    /// Receiver halves of the per-object content-hash dedup tables:
    /// reference frames resolve against them, and every payload page of
    /// an applied stream is inserted, mirroring the sender's
    /// stage-then-commit. Cleared whenever a `Hello` goes up the link.
    dedup: BTreeMap<String, DedupTable>,
    bootstrapped: bool,
    /// How many more ships are acknowledged twice: [`LOSS_MEMORY`] when
    /// the link last showed loss, counting down a ship at a time.
    pub(super) double_acks: u32,
}

/// Ships a node acknowledges twice after its link last showed loss. A
/// lossy link shows loss again long before (on `repl-wan`, every few
/// ships), while one slow `Ack` on a calm link costs it only this many
/// extra datagrams.
pub(super) const LOSS_MEMORY: u32 = 64;

/// Ships the replica remembers as finished; older entries are pruned.
const COMPLETED_KEEP: usize = 64;

/// RFC 6298's smoothed mean and deviation of a stream of durations: a
/// link's acknowledgement lag at the primary (the retransmit timer),
/// how far a ship's pieces trail its `End` at the replica (the reorder
/// allowance).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(super) struct Estimator {
    /// Zero until the first sample (samples are positive).
    pub(super) mean: Nanos,
    dev: Nanos,
}

impl Estimator {
    pub(super) fn sample(&mut self, s: Nanos) {
        if self.mean == Nanos::ZERO {
            (self.mean, self.dev) = (s, s / 2);
        } else {
            let err = self.mean.max(s) - self.mean.min(s);
            self.dev = (self.dev * 3 + err) / 4;
            self.mean = (self.mean * 7 + s) / 8;
        }
    }

    /// `mean + 4·dev`, a value few samples exceed; `None` unsampled.
    pub(super) fn bound(&self) -> Option<Nanos> {
        (self.mean > Nanos::ZERO).then(|| self.mean + self.dev * 4)
    }

    /// RFC 9002's probe timeout over these samples, `mean + max(4·dev,
    /// GRANULARITY)`, at most `ceiling` (and `ceiling` unsampled). Its
    /// `max_ack_delay` term is zero: a replica acknowledges a ship the
    /// moment it lands.
    pub(super) fn probe_timeout(&self, ceiling: Nanos) -> Nanos {
        if self.mean == Nanos::ZERO {
            return ceiling;
        }
        (self.mean + (self.dev * 4).max(GRANULARITY)).min(ceiling)
    }
}

/// The least slack a probe timeout leaves above the mean lag (QUIC's
/// kGranularity): a link whose lag barely varies — a busy LAN replica
/// acks in ≈ 1 ms and rarely in more than 1.5× that — is not probed for
/// a ship that is merely slow.
const GRANULARITY: Nanos = Nanos::from_ms(1);

/// One ship as a replica holds it while its datagrams arrive, in any
/// order and any number of times: the header as an open
/// [`ApplySession`], the ship's one frame buffer, and the trailer. The
/// ship lands once all of it is there — an early piece is data, not an
/// error.
#[derive(Debug, Default)]
pub(super) struct Reassembly {
    /// The open session, with the object it updates and whether the ship
    /// is an anchor ship; `None` until the `Begin` arrives.
    pub(super) session: Option<(String, bool, ApplySession)>,
    /// The ship's frames: slot `seq` holds frame `seq`, `None` where it
    /// has not arrived (or arrived damaged).
    pub(super) frames: Vec<Option<Frame>>,
    /// Length of the filled in-order prefix of `frames`; it grows only
    /// once the session is open.
    prefix: usize,
    /// The trailer, and when its `End` first arrived.
    pub(super) trailer: Option<(StreamTrailer, Nanos)>,
    /// When the ship's holes will have outlived the reorder allowance,
    /// armed by an `End` that did not complete it.
    nak_at: Option<Nanos>,
    /// A `Nak` went up: what arrives now is no sample of reordering.
    naked: bool,
}

/// What a record and one frame slot hold against the budget.
const RECORD_BYTES: usize = std::mem::size_of::<Reassembly>();
pub(super) const SLOT_BYTES: usize = std::mem::size_of::<Option<Frame>>();

impl Reassembly {
    /// Bytes held against the node's budget ([`MAX_LAG_BYTES`]): the
    /// record, and the slots past the in-order prefix with the frames in
    /// them. The prefix is the ship's own, so an in-order ship of any
    /// size lands.
    pub(super) fn held(&self) -> usize {
        let slot = |s: &Option<Frame>| SLOT_BYTES + s.as_ref().map_or(0, Frame::encoded_len);
        RECORD_BYTES + self.frames[self.prefix..].iter().map(slot).sum::<usize>()
    }

    /// The `Nak` naming what the ship still lacks (its first
    /// [`MAX_NAK_SEQS`] holes; the rest are asked for next round).
    fn nak(&self, ship: u64) -> Msg {
        let prefix = self.prefix as u64;
        let held = |seq: u64| {
            let slot = usize::try_from(seq).ok();
            slot.and_then(|i| self.frames.get(i))
                .is_some_and(Option::is_some)
        };
        let frames = self.trailer.map_or(prefix, |(t, _)| t.frames);
        Msg::Nak {
            ship,
            begin: self.session.is_none(),
            missing: (prefix..frames)
                .filter(|&seq| !held(seq))
                .take(MAX_NAK_SEQS)
                .collect(),
        }
    }
}

impl ReplicaNode {
    pub(super) fn format(name: &str, vt_id: u32) -> ReplicaNode {
        let mut disk = Disk::new(DiskConfig::paper());
        let store = ObjectStore::format(&mut disk);
        ReplicaNode::with_store(name, vt_id, disk, store, false)
    }

    pub(super) fn attach(name: &str, vt_id: u32, mut disk: Disk) -> Result<ReplicaNode, ReplError> {
        let mut vt = Vt::new(vt_id);
        let store = ObjectStore::open(&mut vt, &mut disk)?;
        let mut node = ReplicaNode::with_store(name, vt_id, disk, store, true);
        node.vt = vt;
        Ok(node)
    }

    fn with_store(
        name: &str,
        vt_id: u32,
        disk: Disk,
        store: ObjectStore,
        bootstrapped: bool,
    ) -> ReplicaNode {
        ReplicaNode {
            name: name.to_string(),
            vt: Vt::new(vt_id),
            disk,
            store,
            state: ReplicaState::Bootstrapping,
            ships: BTreeMap::new(),
            reorder: Estimator::default(),
            completed: BTreeMap::new(),
            applied: BTreeMap::new(),
            repair_sent: BTreeMap::new(),
            announced: BTreeMap::new(),
            cut: None,
            dedup: BTreeMap::new(),
            bootstrapped,
            double_acks: 0,
        }
    }

    /// The replica's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The replica's lifecycle state.
    pub fn state(&self) -> ReplicaState {
        self.state
    }

    /// The replica's committed epoch for an object (0 when the object
    /// has not reached it yet).
    pub fn epoch(&self, object: &str) -> Epoch {
        self.store
            .lookup(object)
            .map_or(0, |id| self.store.epoch(id))
    }

    /// The replica's virtual clock.
    pub fn now(&self) -> Nanos {
        self.vt.now()
    }

    /// Reads one page of an object from the replica's store — a
    /// bounded-staleness read served locally.
    ///
    /// # Errors
    ///
    /// [`ReplError::Store`] for an unknown object or out-of-range page.
    pub fn read_page(&mut self, object: &str, page: u64, out: &mut [u8]) -> Result<(), ReplError> {
        let id = self.store.lookup(object).ok_or(StoreError::NotFound)?;
        self.store
            .read_page(&mut self.vt, &mut self.disk, id, page, out)?;
        Ok(())
    }

    /// Runs one IO-budgeted scrub increment over the replica's store.
    /// Pages scrub quarantines with no clean local source surface as
    /// `RepairRequest`s up the link on the next engine round.
    ///
    /// # Errors
    ///
    /// [`ReplError::Store`] for device faults mid-scrub.
    pub fn scrub(&mut self, budget: u64) -> Result<ScrubStats, ReplError> {
        Ok(self.store.scrub(&mut self.vt, &mut self.disk, budget)?)
    }

    /// Cumulative scrub statistics of the replica's store.
    pub fn scrub_stats(&self) -> ScrubStats {
        self.store.scrub_stats()
    }

    /// The replica's object store, read-only (quarantine inspection,
    /// `unrepaired_pages`, cache statistics).
    pub fn store(&self) -> &ObjectStore {
        &self.store
    }

    /// Mutable access to the replica's device, for fault injection in
    /// robustness tests and demos (`corrupt_bit`, `seeded_rot`, fault
    /// plans).
    pub fn disk_mut(&mut self) -> &mut Disk {
        &mut self.disk
    }

    /// The newest announced epoch-vector cut this replica has fully
    /// reached (every per-shard epoch component landed), or `None` when
    /// no announced cut is complete here yet.
    pub fn cut(&self) -> Option<&VectorCut> {
        self.cut.as_ref()
    }

    /// Per-shard epoch sums under the primary's shard map
    /// ([`shard_of_name`]), computed from the replica's own committed
    /// epochs — the replica need not be physically sharded itself to
    /// judge a vector cut.
    fn shard_sums(&self, n: usize) -> Vec<Epoch> {
        let mut sums = vec![0; n];
        for name in self.store.object_names() {
            if let Some(id) = self.store.lookup(&name) {
                sums[shard_of_name(&name, n)] += self.store.epoch(id);
            }
        }
        sums
    }

    /// Re-evaluates announced cuts against the replica's current epochs,
    /// adopting the newest complete one and pruning everything at or
    /// below it.
    pub(super) fn refresh_cut(&mut self) {
        // The sums depend only on the vector's width, which every
        // announced cut of one reign shares: compute them once, not
        // once per pending cut.
        let mut sums: Option<Vec<Epoch>> = None;
        let best = self
            .announced
            .iter()
            .rev()
            .find(|(_, c)| {
                let n = c.epochs.len();
                if n == 0 {
                    return false;
                }
                if sums.as_ref().is_none_or(|s| s.len() != n) {
                    sums = Some(self.shard_sums(n));
                }
                c.complete_under(sums.as_deref().expect("set above"))
            })
            .map(|(&seq, c)| (seq, c.clone()));
        if let Some((seq, cut)) = best {
            if self.cut.as_ref().is_none_or(|c| c.seq < seq) {
                self.cut = Some(cut);
            }
            self.announced.retain(|&s, _| s > seq);
        }
    }

    /// The replica's full durable status, as a `Hello` reports it.
    fn status(&self) -> Vec<ObjectStatus> {
        let mut objects = Vec::new();
        for name in self.store.object_names() {
            let Some(id) = self.store.lookup(&name) else {
                continue;
            };
            let mut retained: Vec<Epoch> = self
                .store
                .snapshots()
                .into_iter()
                .filter(|s| s.object == id)
                .map(|s| s.epoch)
                .collect();
            retained.sort_unstable();
            objects.push(ObjectStatus {
                name: name.clone(),
                epoch: self.store.epoch(id),
                retained,
            });
        }
        objects
    }

    pub(super) fn hello(&mut self) -> Msg {
        // A Hello resets the link session; the sender clears its dedup
        // tables when it hears it, so drop the receiver halves too —
        // both sides restart from empty and stay in lockstep. It also
        // abandons every ship in flight, so their records go (should the
        // Hello be lost, the ship's next `End` earns a `Nak` for all).
        self.dedup.clear();
        self.ships.clear();
        Msg::Hello {
            objects: self.status(),
        }
    }

    /// Pins the just-applied anchor epoch as a retained snapshot and
    /// prunes the per-object window to [`KEEP_APPLIED`] — these are the
    /// rebase bases the primary falls back to when a span has no
    /// dirty-line record, and the ones a promoted replica diffs a
    /// rejoining primary from. Best effort: a full catalog only costs
    /// those deltas.
    fn retain_applied(&mut self, object: &str, epoch: Epoch) {
        let Some(id) = self.store.lookup(object) else {
            return;
        };
        let name = format!("rk-{epoch}-{object}");
        if self
            .store
            .snapshot_create(&mut self.vt, &mut self.disk, id, &name)
            .is_err()
        {
            return;
        }
        let window = self.applied.entry(object.to_string()).or_default();
        window.push(name);
        while window.len() > KEEP_APPLIED {
            let old = window.remove(0);
            let _ = self
                .store
                .snapshot_delete(&mut self.vt, &mut self.disk, &old);
        }
    }

    /// Whether the budget has room for `cost` more bytes beside every
    /// record in `ships`.
    fn admit(&self, cost: usize) -> bool {
        let total: usize = self.ships.values().map(Reassembly::held).sum();
        total.saturating_add(cost) <= MAX_LAG_BYTES as usize
    }

    /// Remembers a finished ship and acknowledges it — twice while the
    /// link's last loss is under [`LOSS_MEMORY`] ships ago.
    fn done(&mut self, ship: u64, object: String, epoch: Epoch) -> Vec<Msg> {
        self.completed.insert(ship, (object.clone(), epoch));
        while self.completed.len() > COMPLETED_KEEP {
            self.completed.pop_first();
        }
        let ack = Msg::Ack {
            ship,
            object,
            epoch,
        };
        let twice = self.double_acks > 0;
        self.double_acks = self.double_acks.saturating_sub(1);
        vec![ack; 1 + usize::from(twice)]
    }

    /// Takes one piece of a ship — `Begin`, `Frame` or `End`, in any
    /// order, any number of times — into the ship's reassembly record,
    /// and lands the ship once all of it is there.
    fn reassemble(&mut self, ship: u64, piece: Msg) -> Vec<Msg> {
        if let Some((object, epoch)) = self.completed.get(&ship).cloned() {
            // Landed already. An `End` is the primary probing after a
            // lost `Ack`; any other late or duplicate piece needs none.
            return match piece {
                Msg::End { .. } => {
                    self.double_acks = LOSS_MEMORY;
                    self.done(ship, object, epoch)
                }
                _ => Vec::new(),
            };
        }
        let now = self.vt.now();
        if !self.ships.contains_key(&ship) && !self.admit(RECORD_BYTES) {
            return Vec::new();
        }
        let mut rec = self.ships.remove(&ship).unwrap_or_default();
        match piece {
            Msg::Begin { header, .. } if rec.session.is_none() => {
                let anchor = is_anchor(
                    header.base_epoch,
                    header.target_epoch,
                    self.epoch(&header.object),
                );
                match ApplySession::begin(&mut self.vt, &mut self.disk, &mut self.store, &header) {
                    Ok(session) => {
                        // Losing delta continuity (full-image fallback)
                        // or abandoning divergent history (rebase) is
                        // the degraded path until the apply lands.
                        if self.bootstrapped && (header.base_epoch.is_none() || session.is_rebase())
                        {
                            self.state = ReplicaState::Degraded;
                        }
                        // The primary keeps one ship per (link, object)
                        // in flight: a newer Begin means it abandoned
                        // every older ship of this object (re-planned
                        // after a Hello), whose End will never come.
                        self.ships.retain(|&id, r| {
                            id > ship || r.session.as_ref().is_none_or(|s| s.0 != header.object)
                        });
                        rec.session = Some((header.object, anchor, session));
                    }
                    Err(SnapError::AlreadyCurrent) => {
                        let epoch = self.epoch(&header.object);
                        return self.done(ship, header.object, epoch);
                    }
                    // Base mismatch or store trouble: report full status
                    // so the primary re-plans (full image or rebase).
                    Err(_) => {
                        self.state = ReplicaState::Degraded;
                        return vec![self.hello()];
                    }
                }
            }
            Msg::Frame { frame, .. } => {
                // In a filled slot (the whole prefix is) it is a
                // duplicate; else it waits in its slot if the budget has
                // room for the slots up to it — a wild sequence number
                // buys nothing. The slot right after an open session's
                // prefix joins the prefix at once and is never charged, so
                // a ship's first hole fills however full the budget is.
                if let Ok(slot) = usize::try_from(frame.seq()) {
                    let grow = slot.saturating_add(1).saturating_sub(rec.frames.len());
                    let cost = grow
                        .saturating_mul(SLOT_BYTES)
                        .saturating_add(frame.encoded_len());
                    let vacant = rec.frames.get(slot).is_none_or(Option::is_none);
                    let joins = rec.session.is_some() && slot == rec.prefix;
                    if vacant && (joins || self.admit(rec.held().saturating_add(cost))) {
                        if grow > 0 {
                            rec.frames.resize_with(slot + 1, || None);
                        }
                        rec.frames[slot] = Some(frame);
                    }
                }
            }
            Msg::End { trailer, probe, .. } => {
                // Should this End not complete the ship, its holes earn
                // a Nak: at once for a probe (nothing else is on its
                // way), else when they outlive the reorder allowance —
                // and while none has been observed, at the probe. A
                // repeated End keeps an earlier deadline.
                let wait = if probe {
                    Some(Nanos::ZERO)
                } else {
                    self.reorder.bound()
                };
                rec.nak_at = rec.nak_at.into_iter().chain(wait.map(|w| now + w)).min();
                if probe || rec.trailer.is_some() {
                    self.double_acks = LOSS_MEMORY;
                }
                rec.trailer = Some((trailer, rec.trailer.map_or(now, |(_, at)| at)));
            }
            _ => {} // duplicate Begin: the session is open
        }
        // Holes filled: the prefix takes every frame now in sequence.
        if rec.session.is_some() {
            while rec.frames.get(rec.prefix).is_some_and(Option::is_some) {
                rec.prefix += 1;
            }
        }
        let ((object, anchor, session), (trailer, end_at)) = match (&rec.session, rec.trailer) {
            (Some(open), Some(end)) if rec.prefix as u64 >= end.0.frames => (open, end),
            _ => {
                self.ships.insert(ship, rec);
                return Vec::new();
            }
        };
        let table = self.dedup.entry(object.clone()).or_default();
        match session.finish(
            &mut self.vt,
            &mut self.disk,
            &mut self.store,
            rec.frames[..rec.prefix].iter().flatten(),
            &trailer,
            Some(table),
        ) {
            Ok(token) => {
                ObjectStore::wait(&mut self.vt, token);
                self.bootstrapped = true;
                self.state = ReplicaState::Streaming;
                if *anchor {
                    self.retain_applied(object, token.epoch);
                }
                // The landed epoch may complete an announced cut.
                self.refresh_cut();
                if !rec.naked && now > end_at {
                    self.reorder.sample(now - end_at);
                }
                self.done(ship, object.clone(), token.epoch)
            }
            // Damaged in flight, its checksum says: a hole again, for the
            // next Nak to name; the session stays open.
            Err(SnapError::FrameCorrupt { seq }) => {
                rec.prefix = seq as usize;
                rec.frames[rec.prefix] = None;
                self.ships.insert(ship, rec);
                Vec::new()
            }
            Err(_) => {
                self.state = ReplicaState::Degraded;
                vec![self.hello()]
            }
        }
    }

    /// `Nak`s for the ships whose `End` is in hand and whose holes have
    /// outlived the reorder allowance by `until`.
    pub(super) fn overdue(&mut self, until: Nanos) -> Vec<Msg> {
        let mut naks = Vec::new();
        for (&ship, rec) in &mut self.ships {
            if let Some(at) = rec.nak_at.filter(|&at| at <= until) {
                self.vt.wait_until(at);
                rec.nak_at = None;
                rec.naked = true;
                naks.push(rec.nak(ship));
            }
        }
        naks
    }

    /// Processes one message at the replica, returning the replies to
    /// send up the link.
    pub(super) fn handle(&mut self, msg: Msg) -> Vec<Msg> {
        match msg {
            Msg::Begin { ship, .. } | Msg::Frame { ship, .. } | Msg::End { ship, .. } => {
                self.reassemble(ship, msg)
            }
            // The primary lost a page to rot and asks for our copy.
            Msg::RepairRequest {
                object,
                page,
                page_digest,
            } => answer_repair(
                &mut self.vt,
                &mut self.disk,
                &mut self.store,
                object,
                page,
                page_digest,
            )
            .into_iter()
            .collect(),
            // A clean copy answering our own request.
            Msg::RepairResponse {
                object, page, data, ..
            } => {
                land_repair(
                    &mut self.vt,
                    &mut self.disk,
                    &mut self.store,
                    &object,
                    page,
                    &data,
                );
                Vec::new()
            }
            Msg::CutAnnounce { seq, epochs } => {
                // Idempotent and unordered: stale or duplicate announces
                // (at or below the adopted cut) are dropped by seq.
                if !epochs.is_empty() && self.cut.as_ref().is_none_or(|c| c.seq < seq) {
                    self.announced.insert(seq, VectorCut { seq, epochs });
                    while self.announced.len() > COMPLETED_KEEP {
                        self.announced.pop_first();
                    }
                    self.refresh_cut();
                }
                Vec::new()
            }
            // Hello / Ack / Nak never travel down the link.
            _ => Vec::new(),
        }
    }
}
