//! The receiving end of a link: a [`ReplicaNode`] takes each ship's
//! `Begin`, frames and `End` in any order into one reassembly record —
//! the ship's one frame buffer — lands the complete ship as one
//! crash-atomic commit and answers `Ack` — or, once a hole outlives the
//! reorder allowance, the `Nak` naming it. It also answers repair
//! requests, asks for its own rot, and tracks the announced cuts.
//!
//! What becomes of each ship is decided by one pure rule, [`fate`]: a
//! window ship whose base is ahead of its object is held, so an object's
//! ships land in epoch order, each with its own `Ack`.
//!
//! Once its link has shown loss — a probe `End` arrived, or an `End` of a
//! ship it already holds or has landed (every resend carries the ship's
//! `End`) — the node sends each `Ack` twice, back to back, for the next
//! [`LOSS_MEMORY`] ships: a lost `Ack` of an object's newest ship in
//! flight stalls it for a probe timeout, and the primary ignores an
//! `Ack` for a ship no longer in flight. A link that has shown no loss,
//! or none for that many ships, gets one `Ack` a ship.

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
    /// Recently finished ships, so a probe `End` whose `Ack` was lost
    /// re-acknowledges instead of re-applying.
    completed: BTreeMap<u64, (String, Epoch)>,
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

/// Ships the replica remembers as finished; older entries are pruned.
const COMPLETED_KEEP: usize = 64;

/// One ship as a replica holds it while its datagrams arrive, in any
/// order and any number of times: the header, then an open
/// [`ApplySession`], the ship's one frame buffer, and the trailer. The
/// ship lands once all of it is there and its object stands at its base
/// — an early piece is data, not an error.
#[derive(Debug, Default)]
pub(super) struct Reassembly {
    /// The ship's header; `None` until the `Begin` arrives.
    pub(super) header: Option<StreamHeader>,
    /// The open session and whether the ship is an anchor ship; `None`
    /// until the object stands at the header's base.
    pub(super) session: Option<(bool, ApplySession)>,
    /// The ship's frames: slot `seq` holds frame `seq`, `None` where it
    /// has not arrived (or arrived damaged).
    pub(super) frames: Vec<Option<Frame>>,
    /// Length of the filled in-order prefix of `frames`; it grows only
    /// once the session is open.
    prefix: usize,
    /// The trailer, and when its `End` first arrived.
    pub(super) trailer: Option<(StreamTrailer, Nanos)>,
    /// When the ship's `Nak` is due, as [`fate`] last decided.
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

    /// What [`fate`] decides the ship from.
    fn facts(&self) -> Facts {
        let filled = |n: u64| self.frames.iter().take(n as usize).flatten().count() as u64 == n;
        Facts {
            base: self.header.as_ref().map(|h| h.base_epoch),
            open: self.session.is_some(),
            whole: self.header.is_some() && self.trailer.is_some_and(|(t, _)| filled(t.frames)),
            naked: self.naked,
            due: self.nak_at,
        }
    }

    /// The `Nak` naming what the ship still lacks (its first
    /// [`MAX_NAK_SEQS`] holes; the rest are asked for next round): nothing
    /// for a whole ship held for its base.
    fn nak(&self, ship: u64) -> Msg {
        let prefix = self.prefix as u64;
        let frames = self.trailer.map_or(prefix, |(t, _)| t.frames);
        let missing = (prefix..frames)
            .filter(|&seq| self.frames.get(seq as usize).is_none_or(Option::is_none));
        Msg::Nak {
            ship,
            begin: self.header.is_none(),
            missing: missing.take(MAX_NAK_SEQS).collect(),
        }
    }
}

/// What [`fate`] decides a ship from: the header's base epoch once the
/// `Begin` is in hand, whether the session is open, every piece is in hand
/// and a `Nak` went up, and when one is due.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Facts {
    base: Option<Option<Epoch>>,
    open: bool,
    whole: bool,
    naked: bool,
    due: Option<Nanos>,
}

/// What becomes of a ship: kept while pieces are missing or its base is
/// ahead of its object, its session opened (then decided again), or landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fate {
    Wait,
    Hold,
    Open,
    Land,
}

/// DESIGN.md §6e's receiving rules, with [`never`]: what becomes of a ship
/// whose object stands at `at` as a piece arrives at `now` (an `End` asking
/// for a `Nak` by `asked`), and when its `Nak` is due: the earlier of the
/// armed deadline and the `End`'s. A session opens once the object stands
/// at the base (past it, `begin` rebases or refuses); an open, whole ship
/// lands. A whole held ship says so at once with one empty `Nak`, and
/// again only as an `End` asks.
fn fate(f: Facts, at: Epoch, now: Nanos, asked: Option<Nanos>) -> (Fate, Option<Nanos>) {
    let due = f.due.into_iter().chain(asked).min();
    let held = if f.whole && !f.naked { Some(now) } else { due };
    match f.base {
        Some(base) if !f.open && base.is_some_and(|base| base > at) => (Fate::Hold, held),
        Some(_) if !f.open => (Fate::Open, due),
        _ if f.open && f.whole => (Fate::Land, due),
        _ => (Fate::Wait, due),
    }
}

/// Whether ship `id` of an object can never land once the object stands
/// at `e`: a held ship whose base it passed, or an open session — any once
/// a ship lands (`by` is `None`), an older one once ship `by` opens (a newer
/// session abandons it: re-planned after a `Hello`, its `End` never comes).
fn never(f: Facts, id: u64, e: Epoch, by: Option<u64>) -> bool {
    match f.base {
        Some(_) if f.open => by.is_none_or(|by| id < by),
        base => base.is_some_and(|base| base < Some(e)),
    }
}

impl ReplicaNode {
    pub(super) fn format(name: &str, vt_id: u32) -> ReplicaNode {
        let mut disk = Disk::new(DiskConfig::paper());
        let store = ObjectStore::format(&mut disk);
        ReplicaNode::with_store(name, Vt::new(vt_id), disk, store, false)
    }

    pub(super) fn attach(name: &str, vt_id: u32, mut disk: Disk) -> Result<ReplicaNode, ReplError> {
        let mut vt = Vt::new(vt_id);
        let store = ObjectStore::open(&mut vt, &mut disk)?;
        Ok(ReplicaNode::with_store(name, vt, disk, store, true))
    }

    fn with_store(
        name: &str,
        vt: Vt,
        disk: Disk,
        store: ObjectStore,
        bootstrapped: bool,
    ) -> ReplicaNode {
        ReplicaNode {
            name: name.to_string(),
            vt,
            disk,
            store,
            state: ReplicaState::Bootstrapping,
            ships: BTreeMap::new(),
            reorder: Estimator::default(),
            completed: BTreeMap::new(),
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
        // announced cut of one reign shares: compute them once per
        // width, not once per pending cut.
        let mut sums: BTreeMap<usize, Vec<Epoch>> = BTreeMap::new();
        let best = self
            .announced
            .iter()
            .rev()
            .find(|(_, c)| {
                let n = c.epochs.len();
                n > 0 && c.complete_under(sums.entry(n).or_insert_with(|| self.shard_sums(n)))
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
        let snapshots = self.store.snapshots();
        let status = |name: String| {
            let id = self.store.lookup(&name)?;
            let of = snapshots.iter().filter(|s| s.object == id);
            let mut retained: Vec<Epoch> = of.map(|s| s.epoch).collect();
            retained.sort_unstable();
            let epoch = self.store.epoch(id);
            Some(ObjectStatus {
                name,
                epoch,
                retained,
            })
        };
        self.store
            .object_names()
            .into_iter()
            .filter_map(status)
            .collect()
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

    /// Retains the just-applied anchor epoch as a snapshot, then keeps
    /// the object's newest [`KEEP_APPLIED`] replication snapshots,
    /// whichever life of this store made them, and deletes the rest.
    /// These are the rebase bases the primary falls back to when a span
    /// has no dirty-line record, and the ones a promoted replica diffs a
    /// rejoining primary from. Best effort: a full catalog only costs
    /// those deltas.
    fn retain_applied(&mut self, object: &str, epoch: Epoch) {
        let Some(id) = self.store.lookup(object) else {
            return;
        };
        let (vt, disk, name) = (&mut self.vt, &mut self.disk, snap_name(ANCHOR, id, epoch));
        let _ = self.store.snapshot_create(vt, disk, id, &name);
        let mut window = replication_snapshots(&self.store);
        window.retain(|s| s.object == id);
        window.sort_by_key(|s| std::cmp::Reverse(s.epoch));
        for old in window.iter().skip(KEEP_APPLIED) {
            let _ = self.store.snapshot_delete(vt, disk, &old.name);
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
    /// and lands what that lets land. Of a ship that landed already only a
    /// probe `End`, sent after a lost `Ack`, earns a reply: that `Ack`.
    fn reassemble(&mut self, ship: u64, piece: Msg) -> Vec<Msg> {
        let landed = self.completed.get(&ship).cloned();
        if landed.is_none() && !self.ships.contains_key(&ship) && !self.admit(RECORD_BYTES) {
            return Vec::new();
        }
        // The link shows loss by a probe, or by an `End` of a ship landed
        // or ended already: every resend carries the ship's `End`.
        let ended = landed.is_some() || self.ships.get(&ship).is_some_and(|r| r.trailer.is_some());
        if matches!(piece, Msg::End { probe, .. } if probe || ended) {
            self.double_acks = LOSS_MEMORY;
        }
        if let Some((object, epoch)) = landed {
            return match piece {
                Msg::End { probe: true, .. } => self.done(ship, object, epoch),
                _ => Vec::new(),
            };
        }
        let now = self.vt.now();
        let mut rec = self.ships.remove(&ship).unwrap_or_default();
        let mut asked = None;
        match piece {
            Msg::Begin { header, .. } if rec.header.is_none() => rec.header = Some(header),
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
                // and while none has been observed, at the probe.
                asked = if probe {
                    Some(now)
                } else {
                    self.reorder.bound().map(|w| now + w)
                };
                rec.trailer = Some((trailer, rec.trailer.map_or(now, |(_, at)| at)));
            }
            _ => {} // duplicate Begin
        }
        self.ships.insert(ship, rec);
        self.land(ship, now, asked)
    }

    /// Carries out [`fate`] for `ship` (a piece of it arrived at `now`, its
    /// `End` asking for a `Nak` by `asked`), then for the ship its landing
    /// lets open, and so on. A session that opens or a ship that lands drops
    /// the records of its object that can [`never`] land.
    fn land(&mut self, mut ship: u64, now: Nanos, mut asked: Option<Nanos>) -> Vec<Msg> {
        let (arrived, mut replies) = (ship, Vec::new());
        while let Some(mut rec) = self.ships.remove(&ship) {
            // Holes filled: the prefix takes every frame now in sequence.
            while rec.session.is_some() && rec.frames.get(rec.prefix).is_some_and(Option::is_some) {
                rec.prefix += 1;
            }
            let at = rec.header.as_ref().map_or(0, |h| self.epoch(&h.object));
            let (step, nak_at) = fate(rec.facts(), at, now, asked);
            rec.nak_at = nak_at;
            let keep = matches!(step, Fate::Wait | Fate::Hold);
            let Some(header) = rec.header.clone().filter(|_| !keep) else {
                self.ships.insert(ship, rec);
                break;
            };
            let (vt, disk, store) = (&mut self.vt, &mut self.disk, &mut self.store);
            let landed = match (&rec.session, rec.trailer) {
                (Some((_, session)), Some((trailer, _))) => {
                    let frames = rec.frames[..rec.prefix].iter().flatten();
                    let table = Some(self.dedup.entry(header.object.clone()).or_default());
                    let token = session.finish(vt, disk, store, frames, &trailer, table);
                    token.map(Some)
                }
                _ => ApplySession::begin(vt, disk, store, &header).map(|session| {
                    // Losing delta continuity (full-image fallback) or
                    // abandoning divergent history (rebase) is the
                    // degraded path until the apply lands.
                    if self.bootstrapped && (header.base_epoch.is_none() || session.is_rebase()) {
                        self.state = ReplicaState::Degraded;
                    }
                    let anchor = is_anchor(header.base_epoch, header.target_epoch, at);
                    rec.session = Some((anchor, session));
                    None
                }),
            };
            let token = match landed {
                Ok(token) => token,
                Err(SnapError::AlreadyCurrent) => {
                    replies.extend(self.done(ship, header.object, at));
                    break;
                }
                // Damaged in flight, its checksum says: a hole again, for
                // the next Nak to name; the session stays open.
                Err(SnapError::FrameCorrupt { seq }) => {
                    rec.prefix = seq as usize;
                    rec.frames[rec.prefix] = None;
                    self.ships.insert(ship, rec);
                    break;
                }
                // Base mismatch or store trouble: report full status so
                // the primary re-plans (full image or rebase).
                Err(_) => {
                    self.state = ReplicaState::Degraded;
                    replies.push(self.hello());
                    break;
                }
            };
            let of = |r: &Reassembly| r.header.as_ref().is_some_and(|h| h.object == header.object);
            let (e, by) = token.map_or((at, Some(ship)), |t| (t.epoch, None));
            self.ships
                .retain(|&id, r| !of(r) || !never(r.facts(), id, e, by));
            let Some(token) = token else {
                // Opened: decide again.
                self.ships.insert(ship, rec);
                continue;
            };
            ObjectStore::wait(&mut self.vt, token);
            self.bootstrapped = true;
            self.state = ReplicaState::Streaming;
            if matches!(rec.session, Some((true, _))) {
                self.retain_applied(&header.object, token.epoch);
            }
            // The landed epoch may complete an announced cut.
            self.refresh_cut();
            let end_at = rec.trailer.map_or(now, |(_, at)| at);
            if ship == arrived && !rec.naked && now > end_at {
                self.reorder.sample(now - end_at);
            }
            replies.extend(self.done(ship, header.object.clone(), token.epoch));
            // The ship held for the new epoch is next.
            let opens = |r: &Reassembly| fate(r.facts(), e, now, None).0 == Fate::Open;
            let mut next = self.ships.iter();
            let next = next.find(|(_, r)| of(r) && opens(r));
            let Some((&next, _)) = next else {
                break;
            };
            (ship, asked) = (next, None);
        }
        replies
    }

    /// `Nak`s for the ships whose `End` is in hand and whose holes have
    /// outlived the reorder allowance by `until`.
    pub(super) fn overdue(&mut self, until: Nanos) -> Vec<Msg> {
        let mut naks = Vec::new();
        for (&ship, rec) in &mut self.ships {
            if let Some(at) = rec.nak_at.take_if(|at| *at <= until) {
                self.vt.wait_until(at);
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
            } => {
                let (vt, disk, store) = (&mut self.vt, &mut self.disk, &mut self.store);
                Vec::from_iter(answer_repair(vt, disk, store, object, page, page_digest))
            }
            // A clean copy answering our own request.
            Msg::RepairResponse {
                object, page, data, ..
            } => {
                let (vt, disk, store) = (&mut self.vt, &mut self.disk, &mut self.store);
                land_repair(vt, disk, store, &object, page, &data);
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

#[cfg(test)]
mod tests {
    use super::*;

    /// One record of an enumerated state: its object (0 or 1), the base
    /// and target of its header, and its facts.
    #[derive(Debug, Clone)]
    struct Rec {
        object: usize,
        base: Epoch,
        target: Epoch,
        facts: Facts,
    }

    /// What one arrival did, as [`arrive`] carries the rule out.
    #[derive(Debug, Default)]
    struct Trace {
        /// Each landing: the ship, its object and its target.
        landed: Vec<(u64, usize, Epoch)>,
        /// A session opened past its base, which `begin` refuses: a `Hello`.
        hello: bool,
    }

    /// The instant every enumerated piece arrives.
    const NOW: Nanos = Nanos::from_us(100);

    /// Whether `r` is a record of `object`: its header is in hand.
    fn of(r: &Rec, object: usize) -> bool {
        r.facts.base.is_some() && r.object == object
    }

    /// Checks one decision against DESIGN.md §6e's rules, read straight
    /// from the facts; `Err` names the broken rule.
    fn check_fate(
        r: &Rec,
        at: Epoch,
        asked: Option<Nanos>,
    ) -> Result<(Fate, Option<Nanos>), String> {
        let f = r.facts;
        let got = fate(f, at, NOW, asked);
        let armed = [f.due, asked].into_iter().flatten().min();
        let ahead = f.base.is_some() && !f.open && r.base > at;
        let (step, due) = got;
        let fail = |rule: &str| Err(format!("{rule}: decided {got:?} at epoch {at}"));
        if (step == Fate::Open) != (f.base.is_some() && !f.open && !ahead) {
            return fail("a session opens only once its object stands at its base");
        }
        if (step == Fate::Hold) != ahead {
            return fail("a ship is held exactly while its base is ahead of its object");
        }
        if (step == Fate::Land) != (f.open && f.whole) {
            return fail("an open ship lands exactly once it is whole");
        }
        if ahead && f.whole && !f.naked {
            if due != Some(NOW) {
                return fail("a whole held ship says so at once with an empty Nak");
            }
        } else if due != armed {
            return fail("a Nak is due only as its End asks (a probe at once), one more for a whole held ship on each probe");
        }
        Ok(got)
    }

    /// Carries out the rule for ship `ship` as `land` does, with
    /// `ApplySession::begin` modelled (a ship its object has reached is
    /// current, one past its base a `Hello`), checking each decision and
    /// every drop.
    fn arrive(
        recs: &mut BTreeMap<u64, Rec>,
        epochs: &mut [Epoch; 2],
        mut ship: u64,
        mut asked: Option<Nanos>,
    ) -> Result<Trace, String> {
        let mut trace = Trace::default();
        while let Some(mut r) = recs.remove(&ship) {
            let at = epochs[r.object];
            let (step, due) = check_fate(&r, at, asked)?;
            r.facts.due = due;
            let e = match step {
                Fate::Wait | Fate::Hold => {
                    recs.insert(ship, r);
                    break;
                }
                Fate::Open if at >= r.target => break,
                Fate::Open if r.base != at => {
                    recs.clear();
                    trace.hello = true;
                    break;
                }
                Fate::Open => at,
                Fate::Land => {
                    epochs[r.object] = r.target;
                    trace.landed.push((ship, r.object, r.target));
                    r.target
                }
            };
            let opened = step == Fate::Open;
            let before = recs.clone();
            let by = opened.then_some(ship);
            recs.retain(|&id, o| !of(o, r.object) || !never(o.facts, id, e, by));
            for (id, o) in before.iter().filter(|(_, o)| of(o, r.object)) {
                // An open session can land only at the epoch it opened at
                // and only while no newer one abandoned it; a held ship
                // only once its object reaches its base.
                let lost = if o.facts.open {
                    !opened || *id < ship
                } else {
                    o.base < e
                };
                if lost == recs.contains_key(id) {
                    return Err(format!(
                        "once ship {ship} {} at {e}, exactly the records that can never land are dropped: ship {id} {}",
                        if opened { "opened" } else { "landed" },
                        if lost { "kept" } else { "dropped" },
                    ));
                }
            }
            if opened {
                r.facts.open = true;
                recs.insert(ship, r);
                continue;
            }
            let object = r.object;
            let opens = |o: &Rec| fate(o.facts, e, NOW, None).0 == Fate::Open;
            let Some((&next, _)) = recs.iter().find(|(_, o)| of(o, object) && opens(o)) else {
                break;
            };
            (ship, asked) = (next, None);
        }
        Ok(trace)
    }

    /// The facts of a record whose header is absent or present, session
    /// open or not, whole or not and `naked` or not: 10 variants.
    fn variants() -> Vec<Facts> {
        let mut out = Vec::new();
        for bits in 0..16u32 {
            let header = bits & 1 != 0;
            let (open, whole) = (bits & 2 != 0, bits & 4 != 0);
            if !header && (open || whole) {
                continue;
            }
            out.push(Facts {
                base: header.then_some(None),
                open,
                whole,
                naked: bits & 8 != 0,
                due: None,
            });
        }
        out
    }

    /// Drives `fate` and `never` alone, with no device and no store, over
    /// 1–3 window ships of object 0 with chained bases (ship `i` from
    /// epoch 4 + `i` − 1 to 4 + `i`) and one ship of object 1 (epoch 2 to
    /// 3, its object at 2): each record's header absent or present, its
    /// session open (only at the epoch its object stands at) or not, whole
    /// or not, `naked` or not; object 0 at each epoch from below the
    /// first base to the last target; any ship arriving, as a `Frame`, an
    /// `End` asking for its `Nak` later, or a probe, its deadline armed or
    /// not. Checks every decision (`check_fate`), every drop, that an
    /// object's ships land in epoch order, each once, and that none is left
    /// that could land.
    #[test]
    fn the_arrival_rule_keeps_every_receiving_rule_in_every_small_state() {
        let variants = variants();
        assert_eq!(variants.len(), 10);
        let mut states = 0u64;
        for n in 1..=3u64 {
            let ships: Vec<(u64, usize, Epoch)> =
                (1..=n).map(|i| (i, 0, 3 + i)).chain([(10, 1, 2)]).collect();
            let combos = variants.len().pow(ships.len() as u32);
            for at in 3..=4 + n {
                for combo in 0..combos {
                    let mut recs = BTreeMap::new();
                    let mut c = combo;
                    for &(id, object, base) in &ships {
                        let mut facts = variants[c % variants.len()];
                        c /= variants.len();
                        facts.base = facts.base.map(|_| Some(base));
                        let target = base + 1;
                        recs.insert(
                            id,
                            Rec {
                                object,
                                base,
                                target,
                                facts,
                            },
                        );
                    }
                    let epochs = [at, 2];
                    let consistent = recs
                        .values()
                        .all(|r| !r.facts.open || r.base == epochs[r.object]);
                    if !consistent {
                        continue;
                    }
                    for &(ship, ..) in &ships {
                        for due in [None, Some(NOW + Nanos::from_us(2))] {
                            for asked in [None, Some(NOW), Some(NOW + Nanos::from_us(7))] {
                                let mut recs = recs.clone();
                                if let Some(r) = recs.get_mut(&ship) {
                                    r.facts.due = due;
                                }
                                let start = recs.clone();
                                let mut epochs = epochs;
                                let state = || {
                                    format!("ship {ship} arrives, asking {asked:?}, objects at {:?}, records {start:?}", [at, 2])
                                };
                                let trace = arrive(&mut recs, &mut epochs, ship, asked)
                                    .map_err(|rule| format!("{rule}\nat {}", state()));
                                let trace = trace.unwrap_or_else(|e| panic!("{e}"));
                                let mut reached = [at, 2];
                                for &(id, object, target) in &trace.landed {
                                    assert_eq!(
                                        target,
                                        reached[object] + 1,
                                        "an object's ships land in epoch order, each once: ship {id}\nat {}",
                                        state()
                                    );
                                    reached[object] = target;
                                }
                                // Once an object's ship lands, the one held
                                // for the epoch it reached is next.
                                let object = start[&ship].object;
                                let moved = trace.landed.iter().any(|l| l.1 == object);
                                let waiting = recs.iter().find(|(_, r)| {
                                    of(r, object) && r.facts.whole && r.base == epochs[object]
                                });
                                assert!(
                                    !moved || waiting.is_none(),
                                    "a whole ship waits though its object reached its base: {waiting:?}\nat {}",
                                    state()
                                );
                                states += 1;
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(states, 400_080);
    }

    /// Ship 1, the full image of one page of object "db" at epoch e1, then
    /// window ships 2 and 3, its deltas to e2 and to e3, each a `Begin`,
    /// one `Frame` and an `End`; with the three epochs.
    fn window_ships() -> (Vec<Msg>, [Epoch; 3]) {
        let mut disk = Disk::new(DiskConfig::paper());
        let mut store = ObjectStore::format(&mut disk);
        let mut vt = Vt::new(0);
        let id = store.create(&mut vt, &mut disk, "db").unwrap();
        let mut epochs = [0; 3];
        for (i, fill) in (1..=3u8).enumerate() {
            let page = [fill; BLOCK_SIZE];
            let token = store
                .persist(&mut vt, &mut disk, id, &[(0, &page[..])])
                .unwrap();
            ObjectStore::wait(&mut vt, token);
            store
                .snapshot_create(&mut vt, &mut disk, id, &format!("s{i}"))
                .unwrap();
            epochs[i] = token.epoch;
        }
        let mut msgs = Vec::new();
        for (ship, base, target) in [
            (1, None, "s0"),
            (2, Some("s0"), "s1"),
            (3, Some("s1"), "s2"),
        ] {
            let (vt, disk, store) = (&mut vt, &mut disk, &mut store);
            let stream = DeltaStream::build(vt, disk, store, base, target, None).unwrap();
            assert_eq!(stream.frames.len(), 1);
            let header = stream.header.clone();
            msgs.push(Msg::Begin { ship, header });
            msgs.extend(
                stream
                    .frames
                    .into_iter()
                    .map(|frame| Msg::Frame { ship, frame }),
            );
            let trailer = stream.trailer;
            msgs.push(Msg::End {
                ship,
                probe: false,
                trailer,
            });
        }
        (msgs, epochs)
    }

    /// Every order of `items` (720 for six).
    fn orders(items: &[usize]) -> Vec<Vec<usize>> {
        if items.is_empty() {
            return vec![Vec::new()];
        }
        let mut out = Vec::new();
        for (i, &first) in items.iter().enumerate() {
            let rest = [&items[..i], &items[i + 1..]].concat();
            for mut order in orders(&rest) {
                order.insert(0, first);
                out.push(order);
            }
        }
        out
    }

    /// Window ships 2 and 3 of one object through `ReplicaNode::handle`,
    /// their `Begin`, `Frame` and `End` in every one of the 720 orders,
    /// then a duplicate `End` and a probe: ship 2 lands, then ship 3, each
    /// acknowledged once; ship 3, whole before ship 2 lands, is held and
    /// says so with one empty `Nak`; the duplicate `End` (a spare), a sign
    /// of loss, is answered with nothing, and the probe with the `Ack`
    /// twice; and no record is left.
    #[test]
    fn window_ships_land_in_order_whatever_order_their_pieces_arrive_in() {
        let (msgs, [e1, e2, e3]) = window_ships();
        let ack = |ship, epoch| Msg::Ack {
            ship,
            object: "db".into(),
            epoch,
        };
        let held = Msg::Nak {
            ship: 3,
            begin: false,
            missing: Vec::new(),
        };
        let orders = orders(&[3, 4, 5, 6, 7, 8]);
        assert_eq!(orders.len(), 720);
        for order in orders {
            let mut node = ReplicaNode::format("r1", 1);
            let mut replies = Vec::new();
            for msg in &msgs[..3] {
                replies.extend(node.handle(msg.clone()));
            }
            assert_eq!(replies, [ack(1, e1)]);
            // An allowance no hole here outlives: only a held ship's Nak
            // is due at once.
            node.reorder.sample(Nanos::from_secs(1));
            let mut replies = Vec::new();
            for &i in &order {
                replies.extend(node.handle(msgs[i].clone()));
                replies.extend(node.overdue(node.now()));
            }
            let last = |ship: usize| order.iter().rposition(|&i| (i - 3) / 3 == ship);
            let mut want = Vec::new();
            if last(1) < last(0) {
                want.push(held.clone());
            }
            let acks = [ack(2, e2), ack(3, e3)];
            let got: Vec<&Msg> = replies
                .iter()
                .filter(|m| matches!(m, Msg::Ack { .. }))
                .collect();
            assert_eq!(
                got,
                acks.iter().collect::<Vec<_>>(),
                "{order:?}: {replies:?}"
            );
            let naks: Vec<Msg> = replies
                .into_iter()
                .filter(|m| matches!(m, Msg::Nak { .. }))
                .collect();
            assert_eq!(naks, want, "{order:?}");
            assert!(node.handle(msgs[8].clone()).is_empty(), "{order:?}");
            let Msg::End { ship, trailer, .. } = msgs[8].clone() else {
                unreachable!("the window ships end with ship 3's End")
            };
            let probe = Msg::End {
                ship,
                probe: true,
                trailer,
            };
            assert_eq!(node.handle(probe), [ack(3, e3), ack(3, e3)], "{order:?}");
            assert!(node.ships.is_empty(), "{order:?}: {:?}", node.ships);
            assert_eq!(node.epoch("db"), e3, "{order:?}");
            let mut page = vec![0; BLOCK_SIZE];
            node.read_page("db", 0, &mut page).unwrap();
            assert_eq!(page, [3; BLOCK_SIZE], "{order:?}");
        }
    }
}
