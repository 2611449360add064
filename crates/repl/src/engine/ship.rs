//! The sending end of a link: planning each (link, object) ship — the
//! commits' own record, a rebase from an anchor both ends retain, or the
//! full image — building and sending it, and the snapshots the ships pin
//! and collect.

use super::*;

/// One delta stream in flight on a link.
#[derive(Debug)]
pub(super) struct Ship {
    pub(super) id: u64,
    /// The primary snapshot pinned at the stream's target epoch when
    /// this is an anchor ship (see [`is_anchor`]): the link's next
    /// rejoin anchor once acknowledged. Nothing else of a ship lives on
    /// the device — `stream` serves every retransmit.
    pub(super) anchor: Option<String>,
    pub(super) stream: DeltaStream,
    /// The stream's wire size, counted once at build: every tick sums it.
    pub(super) wire_bytes: u64,
    /// When the stream was built: the zero point of its acknowledgement lag.
    pub(super) created_at: Nanos,
    /// When the ship last went down the link: its build, until a resend.
    pub(super) last_send: Nanos,
    /// The pieces (the `Begin`, frames) the latest `Nak` asked for, unsent.
    pub(super) wanted: Option<(bool, Vec<u64>)>,
    /// The replica reported it whole, held for the ships before it.
    pub(super) held: bool,
    /// A later ship's held report exposed it ([`hear`]), and it is unsent.
    pub(super) exposed: bool,
}

/// Sends pieces of a ship down a link — the `Begin` if asked, always the
/// `End` (under `TAG_PROBE` for the timer's probe), the frames named —
/// encoded in place, in that order, each into the first datagram with room
/// within [`DATAGRAM_BUDGET`] bytes (a larger message travels alone). The
/// first, with the `Begin`, the `End` and the small frames that fit, goes
/// twice with `spare` (a link that has shown loss). Returns the frames sent.
pub(super) fn send_ship(
    down: &mut SimLink,
    now: Nanos,
    ship: &Ship,
    begin: bool,
    seqs: impl IntoIterator<Item = u64>,
    probe: bool,
    spare: bool,
) -> u64 {
    let (id, stream) = (ship.id, &ship.stream);
    let frame = |seq: u64| stream.frames.get(usize::try_from(seq).ok()?);
    let frames: Vec<&Frame> = seqs.into_iter().filter_map(frame).collect();
    let end = if probe { TAG_PROBE } else { TAG_END };
    let msgs = begin
        .then(|| ship_msg(TAG_BEGIN, id, &stream.header.encode()))
        .into_iter()
        .chain([ship_msg(end, id, &stream.trailer.encode())])
        .chain(frames.iter().map(|f| ship_msg(TAG_FRAME, id, &f.encode())));
    let mut grams: Vec<Vec<u8>> = Vec::new();
    for msg in msgs {
        let room = |gram: &&mut Vec<u8>| gram.len() + msg.len() <= DATAGRAM_BUDGET;
        match grams.iter_mut().find(room) {
            Some(gram) => gram.extend_from_slice(&msg),
            None => grams.push(msg),
        }
    }
    let spare = spare.then(|| grams[0].clone());
    for gram in spare.into_iter().chain(grams) {
        down.send(now, gram);
    }
    frames.len() as u64
}

/// DESIGN.md §6e's sender rules, with [`resend`]: what the replica's `Ack`
/// (`nak` is `None`) or `Nak` (`Some(held)`: it named nothing) about the
/// `named` ship `at` of `ships` in flight (`None`: none), heard at `now`, does:
/// the link's lag estimator and loss memory after it, and the ships before
/// `at` it exposes. A `Nak` shows loss. An `Ack` or held report of a ship
/// sent once and not reported held before samples the lag (Karn's rule). A
/// held report exposes each ship before it not held and last sent no later.
pub(super) fn hear(
    mut rtt: Estimator,
    loss: u32,
    named: Option<(&VecDeque<Ship>, usize)>,
    nak: Option<bool>,
    now: Nanos,
) -> (Estimator, u32, Vec<bool>) {
    let loss = if nak.is_some() { LOSS_MEMORY } else { loss };
    let Some((ships, at)) = named else {
        return (rtt, loss, Vec::new());
    };
    let (s, held) = (&ships[at], nak == Some(true));
    let lag = now.saturating_sub(s.created_at);
    if nak != Some(false) && s.last_send == s.created_at && !s.held && lag > Nanos::ZERO {
        rtt.sample(lag);
    }
    let exposes = |o: &Ship| held && !o.held && o.last_send <= s.last_send;
    (rtt, loss, ships.range(..at).map(exposes).collect())
}

/// DESIGN.md §6e's sender rules, with [`hear`]: what a pass at `now` sends
/// of an object's ships in flight — by place, oldest first: the `Begin` or
/// not and frames, whether the `End` is a probe and whether its datagram
/// goes twice — and the link's loss memory after it (`loss` before it). A
/// ship gets the pieces a `Nak` asked for, else a probe when exposed or
/// when it is the timer's (the newest not held, or the oldest) and over
/// `pto` since its last send. A probe carries the longest suffix of the
/// ship that packs into one datagram with its `End`: frames from the back,
/// and the `Begin` if every frame fit (a one-datagram ship goes whole). It
/// shows loss; a send has a spare `End` while the loss memory is above 0.
#[allow(clippy::type_complexity)]
pub(super) fn resend(
    ships: &VecDeque<Ship>,
    now: Nanos,
    pto: Nanos,
    mut loss: u32,
) -> (Vec<(usize, (bool, Vec<u64>, bool, bool))>, u32) {
    let tail = |s: &Ship| {
        let msg = |piece: usize| ship_head_len(s.id) + piece;
        let mut room = DATAGRAM_BUDGET - msg(s.stream.trailer.encoded_len());
        let frames = &s.stream.frames;
        let mut first = frames.len();
        while first > 0 && msg(frames[first - 1].encoded_len()) <= room {
            room -= msg(frames[first - 1].encoded_len());
            first -= 1;
        }
        let begin = first == 0 && msg(s.stream.header.encoded_len()) <= room;
        (begin, (first as u64..frames.len() as u64).collect())
    };
    let mut order = ships.iter().enumerate();
    let timed = order.rposition(|(i, s)| i == 0 || !s.held);
    let mut send = |(i, s): (usize, &Ship)| {
        let overdue = Some(i) == timed && now.saturating_sub(s.last_send) > pto;
        let ((begin, seqs), probe) = match &s.wanted {
            Some(asked) => (asked.clone(), false),
            None if s.exposed || overdue => (tail(s), true),
            None => return None,
        };
        let spare = loss > 0;
        loss = if probe { LOSS_MEMORY } else { loss };
        Some((i, (begin, seqs, probe, spare)))
    };
    let sends = ships.iter().enumerate().filter_map(&mut send).collect();
    (sends, loss)
}

/// Primary-side shipping state for one (link, object) pair.
#[derive(Debug, Default)]
pub(super) struct ObjShip {
    /// The replica's durable epoch for the object, as last reported.
    pub(super) remote: Epoch,
    /// The object's length in pages at `remote`, known once a ship of
    /// ours landed the replica there (a `Hello` reports epochs only).
    pub(super) remote_len: Option<u64>,
    /// Epochs the replica retains as snapshots (rebase candidates).
    pub(super) retained_remote: Vec<Epoch>,
    /// The link's **rejoin anchor**: name and epoch of the pinned
    /// target of the newest acknowledged anchor ship — an epoch both
    /// ends retain, sparse by construction (see [`is_anchor`]).
    pub(super) base: Option<(String, Epoch)>,
    /// The ships in flight, oldest first: each one's base is the target
    /// of the one before it (the first one's, `remote` or a rebase).
    pub(super) inflight: VecDeque<Ship>,
    /// Content provenance of the replica's epoch is unknown (it just
    /// re-attached): never trust a numeric epoch match against the
    /// primary's own history; diff only from an epoch both sides
    /// retain, or ship the full image. Cleared by the first ack.
    pub(super) divergent: bool,
    /// Sender half of the content-hash dedup table for this (link,
    /// object) pair: payload pages are staged at build time and
    /// committed when the ship is acknowledged, mirroring the
    /// receiver's insert-on-apply — both sides hold the same images at
    /// every acknowledged point. Reset on `Hello` (the receiver resets
    /// with it).
    pub(super) dedup: DedupTable,
}

/// One (link, object) ship as [`plan`] decides it.
#[derive(Debug)]
enum Plan {
    /// The commits' own record of `(span.0, live]` — `span` is the
    /// replica's epoch and the object's length there — whose dirty
    /// lines are `extents`, read from the live object.
    Record {
        span: (Epoch, u64),
        extents: BTreeMap<u64, u64>,
    },
    /// A diff from `base` to the pinned live epoch, or the full image
    /// for `None`; with `rejoin`, `base` is the link's anchor from here
    /// on (else the anchor stays).
    Diff {
        base: Option<(String, Epoch)>,
        rejoin: bool,
    },
}

/// Decides one (link, object) ship from the link's facts alone, and
/// whether it is an anchor ship ([`is_anchor`]), or `None` to ship
/// nothing now: the one home of DESIGN.md §6e's rules. A diff pins its
/// target, a record ship only as an anchor.
/// - A replica at `live` once the ships in flight land, or a link
///   carrying [`MAX_LAG_BYTES`], ships nothing (flow control).
/// - A ship starts behind ones in flight only on a link that has shown
///   loss (`window` is then its throttle bound, `max_lag_epochs`), and
///   only a record of at least [`WINDOW_SPAN`] commits, or of whatever
///   waits once the object's lag is over the throttle bound. Else one
///   ship at a time.
/// - A ship's base is the newest in-flight target, else `remote`: the
///   epoch the replica stands at once the ships before it land.
/// - A lag from there deeper than [`DROP_BASE_LAG`] drops the anchor and
///   ships the full image.
/// - A link in good standing ships the commits' own record of
///   `(base, live]` when `record` proves the span.
/// - Else, only with nothing in flight, a diff from the link's anchor,
///   or from a primary snapshot at exactly `remote`. A divergent link
///   (just re-attached: a numeric epoch match proves nothing about its
///   content) diffs from the newest epoch both ends retain below `live`
///   and below `pins_from` (from there up, this engine's pins hold
///   history the peer cannot share), and that becomes its anchor. With
///   no base, the full image.
///
/// `record` reads the dirty-line record from an epoch to `live`;
/// `retained` names the primary's snapshot of the object at an epoch.
fn plan(
    os: &ObjShip,
    live: Epoch,
    pins_from: Option<Epoch>,
    inflight_bytes: u64,
    window: Option<u64>,
    record: impl FnOnce(Epoch) -> Option<BTreeMap<u64, u64>>,
    retained: impl Fn(Epoch) -> Option<String>,
) -> Option<(Plan, bool)> {
    let newest = os.inflight.back().map(|s| &s.stream.header);
    let (from, from_len) = newest.map_or((os.remote, os.remote_len), |h| {
        (h.target_epoch, Some(h.len_pages))
    });
    let idle = os.inflight.is_empty();
    let queued = window.is_some_and(|max_lag| {
        live.saturating_sub(from) >= WINDOW_SPAN || live.saturating_sub(os.remote) > max_lag
    });
    if !(idle || queued) || live <= from || inflight_bytes >= MAX_LAG_BYTES {
        return None;
    }
    let deep_lag = live.saturating_sub(from) > DROP_BASE_LAG;
    let standing = !deep_lag && !os.divergent && from > 0;
    if let Some(len) = from_len.filter(|_| standing) {
        if let Some(extents) = record(from) {
            let anchor = is_anchor(Some(from), live, from);
            let span = (from, len);
            return Some((Plan::Record { span, extents }, anchor));
        }
    }
    if !idle {
        return None;
    }
    let at = |epoch| Some((retained(epoch)?, epoch));
    let below = pins_from.unwrap_or(Epoch::MAX).min(live);
    let base = match (deep_lag, os.divergent) {
        (true, _) => None,
        (false, false) if os.remote == 0 => None,
        (false, false) => os.base.clone().or_else(|| at(os.remote)),
        (false, true) => {
            let shared = os.retained_remote.iter().rev().filter(|&&e| e < below);
            shared.copied().find_map(at)
        }
    };
    let anchor = is_anchor(base.as_ref().map(|(_, epoch)| *epoch), live, os.remote);
    let rejoin = deep_lag || os.divergent;
    Some((Plan::Diff { base, rejoin }, anchor))
}

/// Pins `name`, the snapshot of `object` at its live epoch, unless the
/// catalog holds it: its name is its identity, so links shipping the
/// same epoch share it, and an engine finds what an earlier one left.
/// Called for anchor ships and diffs only; [`ReplEngine::gc_snapshots`]
/// drops the pin once no link holds it as its anchor.
fn pin_live(
    pins_from: &mut BTreeMap<ObjectId, Epoch>,
    vt: &mut Vt,
    ms: &mut MemSnap,
    object: &str,
    id: ObjectId,
    name: &str,
) -> Result<(), ReplError> {
    let live = ms.store().epoch(id);
    if ms.store().snapshot_lookup(name).is_none() {
        ms.msnap_snapshot_object(vt, object, name)?;
    }
    pins_from.entry(id).or_insert(live);
    Ok(())
}

impl ReplEngine {
    /// Starts the ships [`plan`] decides, link by link and object by
    /// object, and carries each out: the link's anchor, the pin, the
    /// stream, its counts, and its first send.
    pub(super) fn ship(
        &mut self,
        vt: &mut Vt,
        ms: &mut MemSnap,
        objects: &[(String, ObjectId)],
        report: &mut TickReport,
    ) -> Result<(), ReplError> {
        for li in 0..self.links.len() {
            if !self.links[li].known {
                continue;
            }
            // Running sum of the link's in-flight wire bytes: ships
            // started below count against the budget of later objects
            // in this same tick.
            let mut bytes: u64 = self.links[li]
                .ships
                .values()
                .flat_map(|os| &os.inflight)
                .map(|s| s.wire_bytes)
                .sum();
            for (object, id) in objects {
                let (object, id) = (object.as_str(), *id);
                let live = ms.store().epoch(id);
                let link = &mut self.links[li];
                let os = link.ships.entry(object.to_string()).or_default();
                let pins_from = self.pins_from.get(&id).copied();
                let window = (link.window_ships > 0).then_some(self.cfg.max_lag_epochs);
                let record = |from| ms.subpage_extents(object, from, live);
                let retained = |epoch| retained_at(ms.store(), id, epoch);
                let Some((plan, anchor)) =
                    plan(os, live, pins_from, bytes, window, record, retained)
                else {
                    continue;
                };
                if let Plan::Diff { base, rejoin: true } = &plan {
                    os.base.clone_from(base);
                }
                let target = snap_name(PIN, id, live);
                if anchor || matches!(plan, Plan::Diff { .. }) {
                    pin_live(&mut self.pins_from, vt, ms, object, id, &target)?;
                }
                let stats_before = ms.store().stats();
                let (store, disk) = ms.replication_parts();
                let dedup = Some(&mut os.dedup);
                let stream = match &plan {
                    Plan::Record { span, extents } => {
                        // Ship only what is durable here: a replica must
                        // never run ahead of the primary's own device.
                        vt.wait_until(store.last_commit(id));
                        DeltaStream::build_live(vt, disk, store, id, *span, extents, dedup)?
                    }
                    Plan::Diff { base, .. } => {
                        let base = base.as_ref().map(|(name, _)| name.as_str());
                        DeltaStream::build(vt, disk, store, base, &target, dedup)?
                    }
                };
                let stats_after = ms.store().stats();
                link.metrics.cache_hits += stats_after.cache_hits - stats_before.cache_hits;
                link.metrics.cache_misses += stats_after.cache_misses - stats_before.cache_misses;
                link.metrics.hydrations += stats_after.hydrations - stats_before.hydrations;
                let full = stream.header.base_epoch.is_none();
                link.metrics.full_syncs += u64::from(full);
                link.metrics.delta_syncs += u64::from(!full);
                link.metrics.recorded_syncs += u64::from(matches!(plan, Plan::Record { .. }));
                let savings = stream.wire_savings();
                link.metrics.subpage_frames += savings.subpage_frames;
                link.metrics.wire_bytes_saved_dedup += savings.dedup_saved;
                link.metrics.wire_bytes_saved_compress += savings.compress_saved;
                let now = vt.now();
                let ship = Ship {
                    id: self.next_ship,
                    anchor: anchor.then_some(target),
                    wire_bytes: stream.encoded_len() as u64,
                    stream,
                    created_at: now,
                    last_send: now,
                    wanted: None,
                    held: false,
                    exposed: false,
                };
                self.next_ship += 1;
                let frames = ship.stream.frames.len() as u64;
                let spare = link.window_ships > 0;
                send_ship(&mut link.down, now, &ship, true, 0..frames, false, spare);
                bytes += ship.wire_bytes;
                os.inflight.push_back(ship);
                link.window_ships = link.window_ships.saturating_sub(1);
                report.ships_started += 1;
            }
        }
        Ok(())
    }

    /// The one GC pass, over the catalog's replication snapshots: each
    /// link's anchor (an anchor survives until a newer anchor ship is
    /// acknowledged) and each in-flight anchor stay; what predates this
    /// engine's own pins of its object stays while some link is unheard
    /// or divergent, since a rejoining peer may rebase from that common
    /// history; the rest go, whichever engine or life made them.
    pub(super) fn gc_snapshots(&mut self, vt: &mut Vt, ms: &mut MemSnap) {
        let mut needed: Vec<&str> = Vec::new();
        for link in &self.links {
            for os in link.ships.values() {
                if let Some((name, _)) = &os.base {
                    needed.push(name);
                }
                needed.extend(os.inflight.iter().filter_map(|s| s.anchor.as_deref()));
            }
        }
        let unsettled = self
            .links
            .iter()
            .any(|l| !l.known || l.ships.values().any(|os| os.divergent));
        for snap in replication_snapshots(ms.store()) {
            let from = self.pins_from.get(&snap.object);
            let inherited = from.is_none_or(|&from| snap.epoch < from);
            let keep = needed.contains(&snap.name.as_str()) || (inherited && unsettled);
            if !keep {
                let _ = ms.msnap_snapshot_delete(vt, &snap.name);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msnap_snap::StreamHeader;
    use std::cell::Cell;

    /// One small state of a (link, object): what [`plan`] decides from.
    #[derive(Debug)]
    struct State {
        remote: Epoch,
        live: Epoch,
        remote_len: Option<u64>,
        divergent: bool,
        proven: bool,
        anchor: Option<(String, Epoch)>,
        primary: Vec<Epoch>,
        replica: Vec<Epoch>,
        pins_from: Option<Epoch>,
        /// Ships in flight: the `i`-th (from 1) targets `remote + i` at a
        /// length of `3 + i` pages.
        inflight: u64,
        /// The throttle bound of a link that has shown loss.
        window: Option<u64>,
        inflight_bytes: u64,
    }

    /// A ship in flight, as far as `plan` looks at one: its target epoch
    /// and the object's length there.
    fn in_flight(target_epoch: Epoch, len_pages: u64) -> Ship {
        let header = StreamHeader {
            object: "o".into(),
            base_epoch: None,
            target_epoch,
            len_pages,
            frame_count: 0,
        };
        let trailer = StreamTrailer {
            frames: 0,
            stream_sum: 0,
        };
        Ship {
            id: 0,
            anchor: None,
            wire_bytes: 0,
            stream: DeltaStream {
                header,
                frames: Vec::new(),
                trailer,
            },
            created_at: Nanos::ZERO,
            last_send: Nanos::ZERO,
            wanted: None,
            held: false,
            exposed: false,
        }
    }

    /// The primary's snapshot name at `epoch` in these states.
    fn pin(epoch: Epoch) -> (String, Epoch) {
        (format!("p{epoch}"), epoch)
    }

    /// Plans `s` and checks DESIGN.md §6e's rules, read straight from the
    /// state, against the plan; `Err` names the broken rule.
    fn check(s: &State) -> Result<(), String> {
        let os = ObjShip {
            remote: s.remote,
            remote_len: s.remote_len,
            retained_remote: s.replica.clone(),
            base: s.anchor.clone(),
            inflight: (1..=s.inflight)
                .map(|i| in_flight(s.remote + i, 3 + i))
                .collect(),
            divergent: s.divergent,
            ..ObjShip::default()
        };
        let (read_record, read_catalog) = (Cell::new(None), Cell::new(false));
        let record = |from| {
            read_record.set(Some(from));
            s.proven.then(BTreeMap::new)
        };
        let retained = |epoch| {
            read_catalog.set(true);
            s.primary.contains(&epoch).then(|| pin(epoch).0)
        };
        let got = plan(
            &os,
            s.live,
            s.pins_from,
            s.inflight_bytes,
            s.window,
            record,
            retained,
        );
        let fail = |rule: &str| Err(format!("{rule}: planned {got:?}"));
        let (remote, live, busy) = (s.remote, s.live, s.inflight > 0);
        // The next ship's base: the newest in-flight target, else the
        // replica's epoch, and the object's length there.
        let (from, from_len) = if busy {
            (remote + s.inflight, Some(3 + s.inflight))
        } else {
            (remote, s.remote_len)
        };
        let queued = s.window.is_some_and(|max_lag| {
            live.saturating_sub(from) >= WINDOW_SPAN || live - remote > max_lag
        });
        let skip = (busy && !queued) || live <= from || s.inflight_bytes >= MAX_LAG_BYTES;
        let deep = live.saturating_sub(from) > DROP_BASE_LAG;
        let standing = from > 0 && from_len.is_some() && !s.divergent && !deep;
        let stride = DROP_BASE_LAG / 2;
        let anchor_from = |base: Option<Epoch>| {
            base.is_none_or(|base| base != from || live / stride > base / stride)
        };
        match &got {
            None if skip => Ok(()),
            None if busy && !(standing && s.proven) => Ok(()),
            None => fail("a link free to ship, under its byte budget and behind shipped nothing"),
            Some(_) if skip => fail(
                "a ship started behind ones in flight on a calm link or short of WINDOW_SPAN under the throttle bound, or at the byte budget, or caught up",
            ),
            Some(_) if read_record.get().is_some_and(|e| !standing || e != from) => {
                fail("the record was read for a link not in good standing, or not from the ship's base")
            }
            Some((Plan::Record { span, .. }, anchor)) => {
                if !(standing && s.proven) {
                    fail("a record ship without good standing and a proven span")
                } else if *span != (from, from_len.unwrap_or(0)) {
                    fail("a record ship's span is not (the newest in-flight target, else remote, and the length there)")
                } else if *anchor != anchor_from(Some(from)) {
                    fail("a record ship pins as an anchor exactly when its span crosses a stride")
                } else {
                    Ok(())
                }
            }
            Some((Plan::Diff { .. }, _)) if busy => fail("a diff shipped with a ship in flight"),
            Some((Plan::Diff { base, rejoin }, anchor)) => {
                let below = s.pins_from.unwrap_or(Epoch::MAX).min(live);
                let shared = s.replica.iter().rev().copied();
                let mut shared = shared.filter(|&e| e < below && s.primary.contains(&e));
                let want = if deep {
                    None
                } else if s.divergent {
                    shared.next().map(pin)
                } else if remote == 0 {
                    None
                } else {
                    let at_remote = s.primary.contains(&remote).then(|| pin(remote));
                    s.anchor.clone().or(at_remote)
                };
                // The link's anchor once the plan is carried out.
                let next_anchor = if *rejoin {
                    base.clone()
                } else {
                    s.anchor.clone()
                };
                let want_anchor = if deep || s.divergent {
                    want.clone()
                } else {
                    s.anchor.clone()
                };
                if standing && s.proven {
                    fail("a link in good standing with a proven span did not ship its record")
                } else if deep && (base.is_some() || next_anchor.is_some() || read_catalog.get()) {
                    fail("deep lag kept its anchor or took a catalog base")
                } else if *base != want && s.divergent {
                    fail("a divergent link's base is not the newest epoch both ends retain below the target and pins_from")
                } else if *base != want {
                    fail("a link in good standing did not rebase from its anchor, else a pin at exactly remote")
                } else if next_anchor != want_anchor {
                    fail("the anchor changed other than by deep lag or a divergent link's base")
                } else if *anchor != anchor_from(base.as_ref().map(|(_, e)| *e)) {
                    fail("a diff is an anchor unless it steps from remote within one stride")
                } else {
                    Ok(())
                }
            }
        }
    }

    /// The members of `epochs` whose bits are set in `mask`.
    fn subset(epochs: &[Epoch], mask: u32) -> Vec<Epoch> {
        let mut out: Vec<Epoch> = (0..epochs.len())
            .filter(|&i| mask >> i & 1 == 1)
            .map(|i| epochs[i])
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Drives `plan` alone, with no device and no store, over every small
    /// state of one (link, object): the replica at 0 or at an epoch, lags
    /// of none, 1, [`WINDOW_SPAN`], past a throttle bound of 8, a stride,
    /// [`DROP_BASE_LAG`] and one more, every subset of four epochs (below,
    /// at and above the replica's) on either end, `pins_from` absent, at
    /// the replica's epoch or above the target, 0, 1 or 2 ships in flight
    /// (as far as the lag allows: a ship never targets past `live`), on a
    /// calm link or on one that has shown loss with a throttle bound of 2
    /// or 8, under or at its byte budget. The pin rule rides on the
    /// variants: a diff always pins its target, a record ship only as an
    /// anchor.
    #[test]
    fn the_ship_plan_keeps_every_ship_rule_in_every_small_state() {
        let lags = [
            0,
            1,
            WINDOW_SPAN,
            9,
            DROP_BASE_LAG / 2,
            DROP_BASE_LAG,
            DROP_BASE_LAG + 1,
        ];
        let mut states = 0u64;
        for remote in [0, 40] {
            for lag in lags {
                let live = remote + lag;
                let epochs = [
                    remote.saturating_sub(2),
                    remote,
                    live.saturating_sub(1),
                    live,
                ];
                for inflight in (0..=2).filter(|&n| n <= lag) {
                    for (primary, replica) in (0..16).flat_map(|p| (0..16).map(move |q| (p, q))) {
                        for pins_from in [None, Some(remote), Some(live + 1)] {
                            for bits in 0..96u32 {
                                let s = State {
                                    remote,
                                    live,
                                    remote_len: (bits & 1 == 1).then_some(3),
                                    divergent: bits & 2 != 0,
                                    proven: bits & 4 != 0,
                                    anchor: (bits & 8 != 0)
                                        .then(|| ("a".into(), remote.saturating_sub(2))),
                                    primary: subset(&epochs, primary),
                                    replica: subset(&epochs, replica),
                                    pins_from,
                                    inflight,
                                    window: [None, Some(2), Some(8)][(bits / 32) as usize],
                                    inflight_bytes: if bits & 16 != 0 {
                                        MAX_LAG_BYTES
                                    } else {
                                        MAX_LAG_BYTES - 1
                                    },
                                };
                                if let Err(rule) = check(&s) {
                                    panic!("{rule}\nat {s:?}");
                                }
                                states += 1;
                            }
                        }
                    }
                }
            }
        }
        // (lag, ships in flight) pairs: 1 + 2 + 3 · 5 per remote.
        assert_eq!(states, 2 * 18 * 256 * 3 * 96);
    }

    /// What the replica says of one ship in a tick, as [`hear`] hears it.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Report {
        Silent,
        /// A `Nak` naming frame 0.
        Pieces,
        /// A `Nak` naming the `Begin` alone.
        Begin,
        /// A `Nak` naming nothing: whole, held for the ships before it.
        Held,
    }

    /// One ship of [`Flight`]: reported held before, resent before, when it
    /// was last sent, and what the replica says of it this tick.
    type Facts = (bool, bool, Nanos, Report);

    /// One small state of an object's ships in flight in one tick: what
    /// [`hear`] and then [`resend`] decide from.
    #[derive(Debug)]
    struct Flight {
        ships: Vec<Facts>,
        loss: u32,
        /// The reports arrive newest ship first, else oldest first.
        newest_first: bool,
    }

    /// The pass's instant and the link's probe timeout in these states.
    const NOW: Nanos = Nanos::from_ms(10);
    const PTO: Nanos = Nanos::from_ms(2);

    /// A frame of `len` payload bytes at `seq`.
    fn frame(seq: u64, len: usize) -> Frame {
        Frame::Sub(msnap_snap::SubPageFrame {
            seq,
            page: seq,
            page_digest: 0,
            runs: vec![(0, len as u16)],
            method: 0,
            raw_len: len as u32,
            payload: vec![7; len],
            checksum: 0,
        })
    }

    /// Ship `i` of a flight — no frames, two small ones, or a whole page
    /// then a small one — and what its probe carries besides its `End`: the
    /// whole ship, or the small frame alone.
    fn resending(i: usize) -> (Ship, (bool, Vec<u64>)) {
        let mut ship = in_flight(1 + i as u64, 4);
        ship.id = 1 + i as u64;
        ship.stream.frames = match i {
            0 => Vec::new(),
            1 => vec![frame(0, 40), frame(1, 40)],
            _ => vec![frame(0, BLOCK_SIZE), frame(1, 40)],
        };
        let tail = match i {
            0 => (true, Vec::new()),
            1 => (true, vec![0, 1]),
            _ => (false, vec![1]),
        };
        (ship, tail)
    }

    /// What `report` is to [`hear`], its `nak`, and the ask it leaves on
    /// the ship.
    fn said(report: Report) -> (Option<bool>, Option<(bool, Vec<u64>)>) {
        match report {
            Report::Silent => (None, None),
            Report::Pieces => (Some(false), Some((false, vec![0]))),
            Report::Begin => (Some(false), Some((true, Vec::new()))),
            Report::Held => (Some(true), None),
        }
    }

    /// Hears `f`'s reports as the engine records them, passes, and checks
    /// DESIGN.md §6e's sender table, read straight from the state, against
    /// the samples, the sends and the loss memory; `Err` names the row.
    fn check_resend(
        f: &Flight,
        start: Estimator,
        ships: &mut VecDeque<Ship>,
        tails: &[(bool, Vec<u64>)],
    ) -> Result<(), String> {
        let n = f.ships.len();
        for (ship, &(held, resent, last, _)) in ships.iter_mut().zip(&f.ships) {
            ship.held = held;
            ship.last_send = last;
            ship.created_at = if resent {
                last - Nanos::from_ms(1)
            } else {
                last
            };
            (ship.exposed, ship.wanted) = (false, None);
        }
        let order: Vec<usize> = match f.newest_first {
            true => (0..n).rev().collect(),
            false => (0..n).collect(),
        };
        let (mut rtt, mut loss) = (start, f.loss);
        for &i in &order {
            let (nak, ask) = said(f.ships[i].3);
            if nak.is_none() {
                continue;
            }
            let exposed;
            (rtt, loss, exposed) = hear(rtt, loss, Some((ships, i)), nak, NOW);
            for (older, exposed) in ships.iter_mut().zip(exposed) {
                older.exposed |= exposed;
            }
            ships[i].held |= nak == Some(true);
            ships[i].wanted = ask.or(ships[i].wanted.take());
        }
        let (sends, after) = resend(ships, NOW, PTO, loss);

        // The table, row by row, in the order the replica's reports came.
        let mut held: Vec<bool> = f.ships.iter().map(|s| s.0).collect();
        let mut exposed = vec![false; n];
        let (mut samples, mut showed_loss) = (start, false);
        for &j in &order {
            let (_, resent, sent, report) = f.ships[j];
            if report == Report::Silent {
                continue;
            }
            // Every Nak shows loss.
            showed_loss = true;
            if report != Report::Held {
                continue;
            }
            // A held report of a ship sent once and not held before is a
            // sample of the link's lag.
            if !resent && !held[j] {
                samples.sample(NOW - sent);
            }
            // It exposes each ship before it the replica has not reported
            // held and that went out no later than it.
            for i in 0..j {
                exposed[i] |= !held[i] && f.ships[i].2 <= sent;
            }
            held[j] = true;
        }
        // The timer watches the newest ship not held, else the oldest.
        let timed = (0..n).rev().find(|&i| !held[i]).unwrap_or(0);
        let mut memory = if showed_loss { LOSS_MEMORY } else { f.loss };
        let mut want = Vec::new();
        for i in 0..n {
            let (_, _, sent, report) = f.ships[i];
            let over = i == timed && NOW - sent > PTO;
            // A Nak's pieces come first; else an exposed ship or the
            // timer's ship over its timeout is probed with its tail.
            let send = match said(report).1 {
                Some(ask) => Some((ask, false)),
                None if exposed[i] || over => Some((tails[i].clone(), true)),
                None => None,
            };
            if let Some(((begin, seqs), probe)) = send {
                // A spare End while the link remembers loss; a probe
                // shows loss itself, for the sends after it.
                want.push((i, (begin, seqs, probe, memory > 0)));
                memory = if probe { LOSS_MEMORY } else { memory };
            }
        }
        if rtt != samples {
            return Err(format!("Karn: sampled {rtt:?}, the table {samples:?}"));
        }
        if sends != want {
            return Err(format!("sends {sends:?}, the table {want:?}"));
        }
        if after != memory {
            return Err(format!("loss memory {after}, the table {memory}"));
        }
        Ok(())
    }

    /// Drives [`hear`] and [`resend`] alone, with no device, over every
    /// small state of an object's ships in flight: 1–3 ships, each held or
    /// not and resent or not, last sent just over, at or just under the
    /// probe timeout before the pass (so in every order), each reported
    /// silent, asked for a frame, asked for its `Begin` or held, the reports
    /// coming oldest or newest first, on a link whose loss memory is 0, 1
    /// or [`LOSS_MEMORY`], with a timer unsampled and one sampled. Then the
    /// `Ack` half of Karn's rule, and a `Nak` for a ship no longer in
    /// flight.
    #[test]
    fn the_resend_rule_keeps_every_sender_rule_in_every_small_state() {
        let mut sampled = Estimator::default();
        sampled.sample(Nanos::from_ms(3));
        let lasts = [
            NOW - PTO - Nanos::from_ns(1),
            NOW - PTO,
            NOW - PTO + Nanos::from_ns(1),
        ];
        let reports = [Report::Silent, Report::Pieces, Report::Begin, Report::Held];
        let facts: Vec<Facts> = (0..48)
            .map(|k| (k & 1 == 1, k & 2 != 0, lasts[k / 4 % 3], reports[k / 12]))
            .collect();
        let tails: Vec<_> = (0..3).map(|i| resending(i).1).collect();
        let fleet = |n| (0..n).map(|i| resending(i).0).collect::<VecDeque<_>>();
        let mut flights: Vec<VecDeque<Ship>> = (1..=3).map(fleet).collect();
        let mut states = 0u64;
        for n in 1..=3u32 {
            for code in 0..48usize.pow(n) {
                let ships: Vec<Facts> = (0..n).map(|i| facts[code / 48usize.pow(i) % 48]).collect();
                for (loss, newest_first) in [0, 1, LOSS_MEMORY]
                    .into_iter()
                    .flat_map(|l| [(l, false), (l, true)])
                {
                    let f = Flight {
                        ships: ships.clone(),
                        loss,
                        newest_first,
                    };
                    for start in [Estimator::default(), sampled] {
                        let flight = &mut flights[n as usize - 1];
                        if let Err(row) = check_resend(&f, start, flight, &tails) {
                            panic!("{row}\nat {f:?} from {start:?}");
                        }
                        states += 1;
                    }
                }
            }
        }
        assert_eq!(states, (48 + 48 * 48 + 48 * 48 * 48) * 6 * 2);

        // An Ack samples the ship it names when that went out once and
        // was not reported held; it shows no loss and exposes nothing.
        for (held, resent, loss) in
            (0..12).map(|k| (k & 1 == 1, k & 2 != 0, [0, 1, LOSS_MEMORY][k / 4]))
        {
            let (mut ship, _) = resending(0);
            ship.held = held;
            ship.created_at = if resent { PTO } else { NOW - PTO };
            ship.last_send = NOW - PTO;
            let ships = VecDeque::from([ship]);
            let mut want = sampled;
            if !held && !resent {
                want.sample(PTO);
            }
            let got = hear(sampled, loss, Some((&ships, 0)), None, NOW);
            assert_eq!(got, (want, loss, Vec::new()), "held {held} resent {resent}");
        }
        // A Nak for a ship no longer in flight still shows loss.
        let got = hear(sampled, 0, None, Some(false), NOW);
        assert_eq!(got, (sampled, LOSS_MEMORY, Vec::new()));
    }
}
