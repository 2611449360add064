//! The sending end of a link: planning each (link, object) ship — the
//! commits' own record, a rebase from an anchor both ends retain, or the
//! full image — building and sending it, and the engine-owned snapshots
//! the ships pin and collect.

use super::*;

/// One delta stream in flight on a link.
#[derive(Debug)]
pub(super) struct Ship {
    pub(super) id: u64,
    /// The primary snapshot pinned at `target_epoch` when this is an
    /// anchor ship (see [`is_anchor`]): the link's next rejoin anchor
    /// once acknowledged. Nothing else of a ship lives on the device —
    /// `stream` serves every retransmit.
    pub(super) anchor: Option<String>,
    pub(super) target_epoch: Epoch,
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
}

/// Sends pieces of a ship down a link — the `Begin` if asked, the
/// frames named, always the `End` (a probe when it is all there is) —
/// encoded from the stream in place and packed back to back into
/// datagrams of up to [`DATAGRAM_BUDGET`] bytes (a larger message travels
/// alone). Returns the frames sent.
pub(super) fn send_ship(
    down: &mut SimLink,
    now: Nanos,
    ship: &Ship,
    begin: bool,
    seqs: impl IntoIterator<Item = u64>,
) -> u64 {
    let (id, stream) = (ship.id, &ship.stream);
    let frame = |seq: u64| stream.frames.get(usize::try_from(seq).ok()?);
    let frames: Vec<&Frame> = seqs.into_iter().filter_map(frame).collect();
    let end = if begin || !frames.is_empty() {
        TAG_END
    } else {
        TAG_PROBE
    };
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

/// A snapshot the engine created on the primary, shared by every link
/// that needs it and garbage-collected when none does.
#[derive(Debug, Clone)]
pub(super) struct OwnedSnap {
    name: String,
    object: String,
    epoch: Epoch,
}

impl ReplEngine {
    pub(super) fn ship(
        &mut self,
        vt: &mut Vt,
        ms: &mut MemSnap,
        objects: &[String],
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
            for object in objects {
                let Some(live) = ms.object_epoch(object) else {
                    continue;
                };
                let link = &mut self.links[li];
                let os = link.ships.entry(object.clone()).or_default();
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
                    None if !deep_lag => Self::choose_base(&self.owned, ms, object, os, live),
                    _ => None,
                };
                let base_epoch = match &recorded {
                    Some((span, _)) => Some(span.0),
                    None => base.as_ref().map(|(_, epoch)| *epoch),
                };
                let anchor = is_anchor(base_epoch, live, os.remote);
                let pin = if anchor || recorded.is_none() {
                    Some(self.pin_live(vt, ms, object)?)
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
                        let id = store.lookup(object).ok_or(StoreError::NotFound)?;
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
                    target_epoch: live,
                    stream,
                    created_at: now,
                    last_send: now,
                    wanted: None,
                    resent: false,
                };
                self.next_ship += 1;
                let frames = ship.stream.frames.len() as u64;
                send_ship(&mut link.down, now, &ship, true, 0..frames);
                inflight_bytes += ship.wire_bytes();
                os.inflight = Some(ship);
                report.ships_started += 1;
            }
        }
        Ok(())
    }

    /// Finds or pins the engine-owned snapshot of `object` at its live
    /// epoch — shared across links shipping the same epoch. Called for
    /// anchor ships and for ships diffed from a snapshot pair only;
    /// [`ReplEngine::gc_snapshots`] drops the pin once no link holds it
    /// as its anchor.
    fn pin_live(
        &mut self,
        vt: &mut Vt,
        ms: &mut MemSnap,
        object: &str,
    ) -> Result<String, ReplError> {
        let live = ms.object_epoch(object).ok_or(StoreError::NotFound)?;
        if let Some(s) = self
            .owned
            .iter()
            .find(|s| s.object == object && s.epoch == live)
        {
            return Ok(s.name.clone());
        }
        let name = format!("rp{}", self.next_snap);
        self.next_snap += 1;
        let epoch = ms.msnap_snapshot_object(vt, object, &name)?;
        self.owned.push(OwnedSnap {
            name: name.clone(),
            object: object.to_string(),
            epoch,
        });
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
    /// replica-retained epoch the primary also has pinned below its own
    /// first post-promotion snapshot.
    fn choose_base(
        owned: &[OwnedSnap],
        ms: &MemSnap,
        object: &str,
        os: &ObjShip,
        target_epoch: Epoch,
    ) -> Option<(String, Epoch)> {
        let id = ms.store().lookup(object)?;
        if !os.divergent {
            if os.remote == 0 {
                return None;
            }
            let at_remote = || Some((retained_at(ms.store(), id, os.remote)?, os.remote));
            return os.base.clone().or_else(at_remote);
        }
        // Divergent: restrict to epochs predating the engine's own
        // snapshots (which pin post-promotion history the peer cannot
        // share) and retained on both sides.
        let first_owned = owned
            .iter()
            .filter(|s| s.object == object)
            .map(|s| s.epoch)
            .min()
            .unwrap_or(Epoch::MAX);
        os.retained_remote
            .iter()
            .rev()
            .filter(|&&e| e < target_epoch && e < first_owned)
            .find_map(|&e| Some((retained_at(ms.store(), id, e)?, e)))
    }

    /// Deletes engine-owned primary snapshots no link needs anymore (an
    /// anchor survives until a newer anchor ship is acknowledged), then
    /// reclaims inherited `rk-*` rebase bases a promoted replica
    /// carried over from its replica life once every peer has caught up.
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
        let mut keep = Vec::new();
        for snap in std::mem::take(&mut self.owned) {
            if needed.iter().any(|n| *n == snap.name) {
                keep.push(snap);
            } else {
                let _ = ms.msnap_snapshot_delete(vt, &snap.name);
            }
        }
        self.owned = keep;
        self.gc_inherited(vt, ms);
    }

    /// Reclaims `rk-*` snapshots — the per-object applied-epoch windows
    /// this store retained while it was a *replica* ([`ReplicaNode`] pins
    /// them so a promoted peer can diff a rejoining primary from common
    /// history). After promotion they sit in the catalog serving exactly
    /// one purpose: delta bases for divergent (just re-attached) links.
    /// Once a link's first post-promotion ship of an object is
    /// acknowledged that object's inherited bases are dead weight, and
    /// the catalog space goes back to live ship targets. Deleting early
    /// only costs the delta-rejoin optimization — a late attacher falls
    /// back to a full image — so links that have not said `Hello` yet
    /// hold the GC off.
    fn gc_inherited(&mut self, vt: &mut Vt, ms: &mut MemSnap) {
        if self.links.iter().any(|l| !l.known) {
            return; // a peer we have not heard from may still need them
        }
        let mut inherited: Vec<SnapEntry> = ms
            .retained_snapshots()
            .into_iter()
            .filter(|s| s.name.starts_with("rk-"))
            .collect();
        if inherited.is_empty() {
            return;
        }
        for link in &self.links {
            for (object, os) in &link.ships {
                let Some(id) = ms.store().lookup(object) else {
                    continue;
                };
                inherited.retain(|s| {
                    s.object != id || !(os.divergent || (os.base.is_none() && os.remote == s.epoch))
                });
            }
        }
        for entry in inherited {
            let _ = ms.msnap_snapshot_delete(vt, &entry.name);
        }
    }
}
