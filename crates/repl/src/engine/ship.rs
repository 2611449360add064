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
    /// Primary instant the stream was built — the zero point of the
    /// ship's acknowledgement-lag measurement.
    pub(super) created_at: Nanos,
    pub(super) last_send: Nanos,
    /// The pieces the latest `Nak` asked for: the `Begin`, and frames by
    /// sequence number.
    pub(super) wanted: Option<(bool, Vec<u64>)>,
    /// Some piece went out twice (a `Nak` or the timer): the ship's
    /// acknowledgement lag is ambiguous and no timer sample (Karn).
    pub(super) resent: bool,
}

impl Ship {
    pub(super) fn wire_bytes(&self) -> u64 {
        self.stream.encoded_len() as u64
    }

    /// What the timer's tail-loss probe carries besides its `End`: the
    /// longest suffix of the ship that packs into one datagram with it —
    /// frames taken from the back, and the `Begin` if every frame fit.
    /// A lost one-datagram ship (or its lost `Ack`) is resent whole.
    pub(super) fn tail(&self) -> (bool, std::ops::Range<u64>) {
        let msg = |piece: usize| SHIP_MSG_HEAD + piece;
        let mut room = DATAGRAM_BUDGET - msg(StreamTrailer::encoded_len());
        let frames = &self.stream.frames;
        let mut first = frames.len();
        while first > 0 && msg(frames[first - 1].encoded_len()) <= room {
            room -= msg(frames[first - 1].encoded_len());
            first -= 1;
        }
        let begin = first == 0 && msg(self.stream.header.encoded_len()) <= room;
        (begin, first as u64..frames.len() as u64)
    }
}

/// Sends pieces of a ship down a link — the `Begin` if asked, the
/// frames named, always the `End` (under `TAG_PROBE` for the timer's
/// probe) — encoded from the stream in place and packed back to back
/// into datagrams of up to [`DATAGRAM_BUDGET`] bytes (a larger message
/// travels alone). Returns the frames sent.
pub(super) fn send_ship(
    down: &mut SimLink,
    now: Nanos,
    ship: &Ship,
    begin: bool,
    seqs: impl IntoIterator<Item = u64>,
    probe: bool,
) -> u64 {
    let (id, stream) = (ship.id, &ship.stream);
    let frame = |seq: u64| stream.frames.get(usize::try_from(seq).ok()?);
    let frames: Vec<&Frame> = seqs.into_iter().filter_map(frame).collect();
    let end = if probe { TAG_PROBE } else { TAG_END };
    let msgs = begin
        .then(|| ship_msg(TAG_BEGIN, id, &stream.header.encode()))
        .into_iter()
        .chain(frames.iter().map(|f| ship_msg(TAG_FRAME, id, &f.encode())))
        .chain([ship_msg(end, id, &stream.trailer.encode())]);
    let mut gram = Vec::new();
    for msg in msgs {
        if !gram.is_empty() && gram.len() + msg.len() > DATAGRAM_BUDGET {
            down.send(now, std::mem::take(&mut gram));
        }
        gram.extend_from_slice(&msg);
    }
    down.send(now, gram);
    frames.len() as u64
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
    pub(super) inflight: Option<Ship>,
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

impl ReplEngine {
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
            let mut inflight_bytes: u64 = self.links[li]
                .ships
                .values()
                .filter_map(|os| os.inflight.as_ref())
                .map(Ship::wire_bytes)
                .sum();
            for (object, id) in objects {
                let (object, id) = (object.as_str(), *id);
                let live = ms.store().epoch(id);
                let link = &mut self.links[li];
                if !link.ships.contains_key(object) {
                    link.ships.insert(object.to_string(), ObjShip::default());
                }
                let os = link.ships.get_mut(object).expect("inserted above");
                if os.inflight.is_some() || live <= os.remote {
                    continue;
                }
                if inflight_bytes >= MAX_LAG_BYTES {
                    continue; // over budget: coalesce until acks free it
                }
                // A link lagging too far loses its anchor; its catch-up
                // ships the full image instead.
                let deep_lag = live.saturating_sub(os.remote) > DROP_BASE_LAG;
                if deep_lag {
                    os.base = None;
                }
                // A link in good standing ships what the commits
                // themselves recorded: the pages and dirty lines of
                // exactly (remote, live], read from the live object.
                // Without a provable record (chain pruned, or a fence /
                // repair / restore commit in the span) the ship rebases
                // from the newest anchor both ends retain, else carries
                // the full image — either way diffed from a pinned target.
                let recorded = match os.remote_len {
                    Some(len) if !deep_lag && !os.divergent && os.remote > 0 => ms
                        .subpage_extents(object, os.remote, live)
                        .map(|extents| ((os.remote, len), extents)),
                    _ => None,
                };
                let base = match recorded {
                    None if !deep_lag => {
                        let pins_from = self.pins_from.get(&id).copied();
                        Self::choose_base(pins_from, ms, id, os, live)
                    }
                    _ => None,
                };
                // A divergent link's base is an epoch both ends retain:
                // its anchor until an anchor ship replaces it.
                if os.divergent {
                    os.base.clone_from(&base);
                }
                let base_epoch = match &recorded {
                    Some((span, _)) => Some(span.0),
                    None => base.as_ref().map(|(_, epoch)| *epoch),
                };
                let anchor = is_anchor(base_epoch, live, os.remote);
                let pin = if anchor || recorded.is_none() {
                    Some(self.pin_live(vt, ms, object, id)?)
                } else {
                    None
                };
                let link = &mut self.links[li];
                let os = link.ships.get_mut(object).expect("inserted above");
                let stats_before = ms.store().stats();
                let (store, disk) = ms.replication_parts();
                let dedup = Some(&mut os.dedup);
                let stream = match &recorded {
                    Some((span, extents)) => {
                        // Ship only what is durable here: a replica must
                        // never run ahead of the primary's own device.
                        vt.wait_until(store.last_commit(id));
                        DeltaStream::build_live(vt, disk, store, id, *span, extents, dedup)?
                    }
                    None => {
                        let base = base.as_ref().map(|(name, _)| name.as_str());
                        let target = pin.as_deref().expect("pinned above: no record");
                        DeltaStream::build(vt, disk, store, base, target, dedup)?
                    }
                };
                let stats_after = ms.store().stats();
                link.metrics.cache_hits += stats_after.cache_hits - stats_before.cache_hits;
                link.metrics.cache_misses += stats_after.cache_misses - stats_before.cache_misses;
                link.metrics.hydrations += stats_after.hydrations - stats_before.hydrations;
                if stream.header.base_epoch.is_none() {
                    link.metrics.full_syncs += 1;
                } else {
                    link.metrics.delta_syncs += 1;
                }
                link.metrics.recorded_syncs += u64::from(recorded.is_some());
                let savings = stream.wire_savings();
                link.metrics.subpage_frames += savings.subpage_frames;
                link.metrics.wire_bytes_saved_dedup += savings.dedup_saved;
                link.metrics.wire_bytes_saved_compress += savings.compress_saved;
                let now = vt.now();
                let ship = Ship {
                    id: self.next_ship,
                    anchor: pin.filter(|_| anchor),
                    stream,
                    created_at: now,
                    last_send: now,
                    wanted: None,
                    resent: false,
                };
                self.next_ship += 1;
                let frames = ship.stream.frames.len() as u64;
                send_ship(&mut link.down, now, &ship, true, 0..frames, false);
                inflight_bytes += ship.wire_bytes();
                os.inflight = Some(ship);
                report.ships_started += 1;
            }
        }
        Ok(())
    }

    /// Finds or pins the snapshot of `object` at its live epoch. Its name
    /// is its identity, so links shipping the same epoch share it, and an
    /// engine finds what an earlier one left. Called for anchor ships and
    /// for ships diffed from a snapshot pair only;
    /// [`ReplEngine::gc_snapshots`] drops the pin once no link holds it as
    /// its anchor.
    fn pin_live(
        &mut self,
        vt: &mut Vt,
        ms: &mut MemSnap,
        object: &str,
        id: ObjectId,
    ) -> Result<String, ReplError> {
        let live = ms.store().epoch(id);
        let name = snap_name(PIN, id, live);
        if ms.store().snapshot_lookup(&name).is_none() {
            ms.msnap_snapshot_object(vt, object, &name)?;
        }
        self.pins_from.entry(id).or_insert(live);
        Ok(name)
    }

    /// Picks the retained base snapshot for a ship that cannot be built
    /// from the commits' record, or `None` for a full image.
    ///
    /// For a link in good standing the base is its rejoin anchor — the
    /// replica retains the same epoch and rebases onto it — or else any
    /// primary snapshot pinned at exactly the replica's epoch. For a
    /// divergent link — one that just (re-)attached — a numeric epoch
    /// match proves nothing about content, so the base must be an epoch
    /// *both* sides retain from common history: the newest
    /// replica-retained epoch the primary also retains below `pins_from`,
    /// where this engine's own pins of the object start.
    fn choose_base(
        pins_from: Option<Epoch>,
        ms: &MemSnap,
        id: ObjectId,
        os: &ObjShip,
        target_epoch: Epoch,
    ) -> Option<(String, Epoch)> {
        if !os.divergent {
            if os.remote == 0 {
                return None;
            }
            let at_remote = || Some((retained_at(ms.store(), id, os.remote)?, os.remote));
            return os.base.clone().or_else(at_remote);
        }
        // Divergent: restrict to epochs predating the engine's own pins
        // (which hold post-promotion history the peer cannot share) and
        // retained on both sides.
        let pins_from = pins_from.unwrap_or(Epoch::MAX);
        os.retained_remote
            .iter()
            .rev()
            .filter(|&&e| e < target_epoch && e < pins_from)
            .find_map(|&e| Some((retained_at(ms.store(), id, e)?, e)))
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
                if let Some(name) = os.inflight.as_ref().and_then(|s| s.anchor.as_ref()) {
                    needed.push(name);
                }
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
