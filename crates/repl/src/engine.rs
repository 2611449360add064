//! The replication engine: primary-side shipping daemon and replica
//! state machines over simulated lossy links.
//!
//! See the [crate docs](crate) for the protocol and failover design.
//!
//! The receiver is `replica` and the sender `ship`; this module holds
//! what both ends share (the anchor rule, the repair exchange), the
//! links, the tick and its timers, and promotion.

mod replica;
mod ship;

pub use replica::ReplicaNode;

use std::collections::{BTreeMap, VecDeque};

use memsnap::{MemSnap, MsnapError};
use msnap_disk::{Disk, DiskConfig, BLOCK_SIZE};
use msnap_sim::{Meters, Nanos, NetConfig, SimLink, Vt};
use msnap_snap::{
    retained_at, ApplySession, DedupTable, DeltaStream, Frame, SnapError, StreamTrailer,
};
use msnap_store::{
    digest32, shard_of_name, Epoch, ObjectStore, ScrubStats, SnapEntry, StoreError, VectorCut,
};

use replica::Estimator;
use ship::{send_ship, ObjShip, OwnedSnap, Ship};

use crate::proto::{
    ship_msg, unpack, Msg, ObjectStatus, MAX_NAK_SEQS, TAG_BEGIN, TAG_END, TAG_FRAME, TAG_PROBE,
};

/// Tuning knobs of one [`ReplEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplConfig {
    /// Epoch lag (primary live epoch − replica durable epoch) beyond
    /// which a link counts as throttled: [`TickReport::throttled`] tells
    /// the ingest path to stall until replicas catch up.
    pub max_lag_epochs: u64,
    /// Virtual time without an answer before the primary probes a ship
    /// with its `End` again: the initial value and the ceiling of the
    /// per-link timer, which otherwise follows the link's measured
    /// acknowledgement lag. Also paces the repair and cut re-sends.
    pub retransmit_timeout: Nanos,
}

impl Default for ReplConfig {
    fn default() -> Self {
        ReplConfig {
            max_lag_epochs: 8,
            retransmit_timeout: Nanos::from_ms(20),
        }
    }
}

/// Unacknowledged wire bytes in flight per link beyond which the link
/// counts as throttled and no new ship starts — and the most a replica
/// buffers of ships it cannot apply yet.
const MAX_LAG_BYTES: u64 = 1 << 20;
/// A down-link datagram carries one or more messages back to back, up to
/// this many bytes (an Ethernet MTU less its headers); a larger message
/// — a whole-page frame — travels alone.
const DATAGRAM_BUDGET: usize = 1400;
/// Epoch lag beyond which a lagging link's catch-up ships the full image
/// instead of a delta. Also spaces the **rejoin anchors**: a ship whose
/// span crosses a multiple of half this lag has its target epoch
/// retained as a snapshot on both ends, so retention stays bounded and a
/// rejoin diffs at most this many epochs.
const DROP_BASE_LAG: u64 = 64;
/// Retained anchor-epoch snapshots a replica keeps per object — the
/// candidate rebase bases a promoted replica can diff a rejoining old
/// primary from.
const KEEP_APPLIED: usize = 2;
/// Epoch gap a promotion fence jumps, so a new primary's epochs stay
/// disjoint from the failed primary's unacknowledged history.
const FENCE_GAP: u64 = 16;

/// Errors raised by the replication engine.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ReplError {
    /// No replica with the given name is attached.
    UnknownReplica,
    /// A replica with the given name is already attached.
    DuplicateReplica,
    /// An error surfaced by the primary's MemSnap instance.
    Msnap(MsnapError),
    /// An error surfaced by an object store (primary or replica side).
    Store(StoreError),
    /// An error surfaced by the delta-stream layer.
    Snap(SnapError),
}

impl std::fmt::Display for ReplError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplError::UnknownReplica => f.write_str("unknown replica"),
            ReplError::DuplicateReplica => f.write_str("replica name already attached"),
            ReplError::Msnap(e) => write!(f, "memsnap: {e}"),
            ReplError::Store(e) => write!(f, "object store: {e}"),
            ReplError::Snap(e) => write!(f, "delta stream: {e}"),
        }
    }
}

impl std::error::Error for ReplError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReplError::Msnap(e) => Some(e),
            ReplError::Store(e) => Some(e),
            ReplError::Snap(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MsnapError> for ReplError {
    fn from(e: MsnapError) -> Self {
        ReplError::Msnap(e)
    }
}
impl From<StoreError> for ReplError {
    fn from(e: StoreError) -> Self {
        ReplError::Store(e)
    }
}
impl From<SnapError> for ReplError {
    fn from(e: SnapError) -> Self {
        ReplError::Snap(e)
    }
}

/// Where a replica stands in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaState {
    /// No stream has landed yet; the replica holds no usable image.
    Bootstrapping,
    /// Applying deltas in step with the primary.
    Streaming,
    /// Continuity was lost (full-image fallback or rebase in progress);
    /// the replica is healing and returns to `Streaming` on the next
    /// successful apply.
    Degraded,
    /// Promoted to primary by [`ReplEngine::promote`].
    Promoted,
}

/// Per-link counters the engine maintains (all deterministic for a
/// fixed seed).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LinkMetrics {
    /// Epoch lag (primary live − replica durable), worst object, as of
    /// the last tick.
    pub lag_epochs: u64,
    /// Unacknowledged wire bytes in flight as of the last tick.
    pub lag_bytes: u64,
    /// Acknowledged ships.
    pub acks: u64,
    /// Payload frames sent more than once (each named by a `Nak`).
    pub retransmit_frames: u64,
    /// Ships that had to carry the full image (no usable delta base).
    pub full_syncs: u64,
    /// Ships that carried an incremental delta.
    pub delta_syncs: u64,
    /// Delta ships built from the commits' own dirty-line record and
    /// the live object — nothing pinned, flushed or diffed.
    pub recorded_syncs: u64,
    /// Datagrams dropped by the receiver as malformed.
    pub malformed: u64,
    /// Ticks this link spent over its lag budget.
    pub throttled_ticks: u64,
    /// Primary-side block-cache hits while assembling this link's delta
    /// streams.
    pub cache_hits: u64,
    /// Primary-side block-cache misses (device reads) while assembling
    /// this link's delta streams.
    pub cache_misses: u64,
    /// Radix nodes demand-loaded from the device while assembling this
    /// link's delta streams (IO the lazy tree deferred until shipping).
    pub hydrations: u64,
    /// Repair requests this link carried (both directions: requests the
    /// primary sent down plus requests the replica sent up).
    pub repair_requests: u64,
    /// Verified peer pages the *primary* landed through the repair path
    /// (replica-side heals surface in its store's `ScrubStats` instead).
    pub repairs_healed: u64,
    /// `CutAnnounce` datagrams sent down this link (re-sent each
    /// retransmit window until superseded, so lossy links still hear).
    pub cut_announces: u64,
    /// Times the replica adopted a newer complete vector cut — the only
    /// states failover may promote it at.
    pub cuts_completed: u64,
    /// Sub-page frames shipped down this link (frames that carried only
    /// the changed 64-byte lines of their page).
    pub subpage_frames: u64,
    /// Wire bytes saved by content-hash dedup references (full-page
    /// frame size minus reference size, per reference shipped).
    pub wire_bytes_saved_dedup: u64,
    /// Wire bytes saved by per-frame payload compression (raw minus
    /// compressed, per compressed frame shipped).
    pub wire_bytes_saved_compress: u64,
}

/// What one [`ReplEngine::tick`] did.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TickReport {
    /// Some link is over its epoch or byte budget: the ingest path
    /// should stall before committing more (lag-driven flow control).
    pub throttled: bool,
    /// Every attached link is fully acknowledged with nothing in
    /// flight.
    pub caught_up: bool,
    /// Acknowledgements processed this tick.
    pub acks: u64,
    /// Ships started this tick.
    pub ships_started: u64,
    /// Promotion fences issued this tick (a divergent peer re-attached
    /// at or past the primary's epoch).
    pub fences: u64,
}

/// The outcome of [`ReplEngine::promote`]: everything needed to bring
/// the chosen replica up as the new primary and to re-attach the
/// survivors to a fresh engine around it.
pub struct Promotion {
    /// Name of the promoted replica.
    pub replica: String,
    /// The promoted replica's device, every object already fenced
    /// `FENCE_GAP` (16) epochs past its durable tip. Boot the
    /// new primary from it (`MemSnap::restore`, `MemSnapKv::restore`,
    /// …).
    pub disk: Disk,
    /// The promoted node's virtual clock, carried forward so failover
    /// latency is measurable end to end.
    pub vt: Vt,
    /// Fenced epoch per object.
    pub epochs: BTreeMap<String, Epoch>,
    /// The surviving replicas' devices, for re-attachment.
    pub survivors: Vec<(String, Disk)>,
    /// The newest announced epoch-vector cut the promoted replica had
    /// fully reached — the manifest-wide consistent state it stands at
    /// (or past; fencing only raises epochs). `None` when no announce
    /// reached the replica, or none it received was complete yet.
    pub cut: Option<VectorCut>,
}

/// Whether a stream is an **anchor ship** — one whose target epoch both
/// ends retain as a snapshot (the primary pins it when building the
/// ship, the replica when applying it), so that a later rebase or a
/// rejoining failed primary has an epoch in common to diff from. Both
/// ends decide from the stream header and the epoch the replica stands
/// at: a full image, a rebase (the base is not the replica's epoch), or
/// a delta whose span `(base, target]` crosses a multiple of half
/// [`DROP_BASE_LAG`].
fn is_anchor(base: Option<Epoch>, target: Epoch, replica_epoch: Epoch) -> bool {
    let stride = DROP_BASE_LAG / 2;
    base.is_none_or(|base| base != replica_epoch || target / stride > base / stride)
}

/// Answers a `RepairRequest` — the same on either end of a link — with
/// this side's verified copy of the page, but only if it is exactly the
/// content the requester expects: a newer, divergent or itself corrupt
/// copy helps nothing, must not land, and stays silent.
fn answer_repair(
    vt: &mut Vt,
    disk: &mut Disk,
    store: &mut ObjectStore,
    object: String,
    page: u64,
    page_digest: u32,
) -> Option<Msg> {
    let id = store.lookup(&object)?;
    let mut data = vec![0u8; BLOCK_SIZE];
    store.read_page(vt, disk, id, page, &mut data).ok()?;
    (digest32(&data) == page_digest).then_some(Msg::RepairResponse {
        object,
        page,
        page_digest,
        data,
    })
}

/// The one repair pacer, the same on either end of a link:
/// `RepairRequest`s for every page of `store` its scrub could not repair
/// locally, each at most once per `timeout` per (object, page) so a slow
/// peer is not flooded. `sent` holds when each last went out and is
/// pruned to the pages still unrepaired, however they healed.
fn repair_requests(
    store: &ObjectStore,
    sent: &mut BTreeMap<(String, u64), Nanos>,
    now: Nanos,
    timeout: Nanos,
) -> Vec<Msg> {
    let mut live = Vec::new();
    let mut out = Vec::new();
    for u in store.unrepaired_pages() {
        let Some(object) = store.object_name(u.object) else {
            continue;
        };
        let key = (object, u.page);
        if sent
            .get(&key)
            .is_none_or(|&at| now.saturating_sub(at) > timeout)
        {
            sent.insert(key.clone(), now);
            out.push(Msg::RepairRequest {
                object: key.0.clone(),
                page: u.page,
                page_digest: u.digest,
            });
        }
        live.push(key);
    }
    sent.retain(|k, _| live.contains(k));
    out
}

/// Lands a `RepairResponse` answering this side's own request, returning
/// whether it healed the page. `repair_page` re-verifies the bytes
/// against the tree's expected digest and commits them through the
/// normal crash-atomic path; a stale, duplicate or forged response is
/// refused there, so it is a no-op.
fn land_repair(
    vt: &mut Vt,
    disk: &mut Disk,
    store: &mut ObjectStore,
    object: &str,
    page: u64,
    data: &[u8],
) -> bool {
    let Some(id) = store.lookup(object) else {
        return false;
    };
    match store.repair_page(vt, disk, id, page, data) {
        Ok(token) => {
            ObjectStore::wait(vt, token);
            true
        }
        Err(_) => false,
    }
}

/// One attached replica: both link directions, the node itself, and the
/// per-object shipping state.
struct Link {
    name: String,
    /// Primary → replica.
    down: SimLink,
    /// Replica → primary.
    up: SimLink,
    node: Option<ReplicaNode>,
    ships: BTreeMap<String, ObjShip>,
    /// A `Hello` has arrived; shipping may start.
    known: bool,
    /// When the replica last announced itself (primary clock) — a lossy
    /// link may eat the Hello, so it is re-sent until heard.
    last_hello: Nanos,
    /// Repair traffic heard up the link, held until the tick step that
    /// has primary-store access (`drain_up` does not).
    pending_repairs: Vec<Msg>,
    /// Last instant a `RepairRequest` for (object, page) went down this
    /// link, bounding re-request traffic for the primary's own rot.
    repair_sent: BTreeMap<(String, u64), Nanos>,
    /// Newest cut announced down this link and when — re-sent each
    /// retransmit window (the announce itself may be lost).
    last_cut_sent: Option<(u64, Nanos)>,
    /// Acknowledgement lag of the ships never sent twice: the link's
    /// round trip, apply included, which times its `End` probes.
    rtt: Estimator,
    meters: Meters,
    metrics: LinkMetrics,
}

/// The replication engine. Owns every replica node and both directions
/// of every link; borrows the primary per [`ReplEngine::tick`].
pub struct ReplEngine {
    cfg: ReplConfig,
    links: Vec<Link>,
    owned: Vec<OwnedSnap>,
    next_ship: u64,
    next_snap: u64,
    next_vtid: u32,
}

impl ReplEngine {
    /// Creates an engine with no replicas attached.
    pub fn new(cfg: ReplConfig) -> ReplEngine {
        ReplEngine {
            cfg,
            links: Vec::new(),
            owned: Vec::new(),
            next_ship: 1,
            next_snap: 0,
            next_vtid: 1000,
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &ReplConfig {
        &self.cfg
    }

    /// Attaches a fresh, empty replica over a link with the given
    /// network model (the reverse direction derives its seed from
    /// `net.seed`). The replica announces itself with a `Hello`; its
    /// first catch-up ships the full image.
    ///
    /// # Errors
    ///
    /// [`ReplError::DuplicateReplica`] if the name is taken.
    pub fn add_replica(&mut self, name: &str, net: NetConfig) -> Result<(), ReplError> {
        let node = ReplicaNode::format(name, self.next_vtid);
        self.attach_node(name, net, node)
    }

    /// Re-attaches a replica from an existing device — a survivor after
    /// a promotion, or a failed old primary rejoining the cluster. Its
    /// `Hello` reports the durable epoch and every retained snapshot,
    /// and the primary diffs it forward from a commonly retained base
    /// (or fences first, if the device's history runs past the
    /// primary's own epoch).
    ///
    /// # Errors
    ///
    /// [`ReplError::DuplicateReplica`] for a taken name,
    /// [`ReplError::Store`] if the device holds no object store.
    pub fn attach_replica(
        &mut self,
        name: &str,
        net: NetConfig,
        disk: Disk,
    ) -> Result<(), ReplError> {
        let node = ReplicaNode::attach(name, self.next_vtid, disk)?;
        self.attach_node(name, net, node)
    }

    fn attach_node(
        &mut self,
        name: &str,
        net: NetConfig,
        mut node: ReplicaNode,
    ) -> Result<(), ReplError> {
        if self.link(name).is_some() {
            return Err(ReplError::DuplicateReplica);
        }
        self.next_vtid += 1;
        let up_cfg = NetConfig {
            seed: net.seed ^ 0x5EED_0F7E,
            ..net
        };
        let mut up = SimLink::new(up_cfg);
        // The replica announces itself; the primary hears the Hello one
        // network latency later and starts shipping.
        let node_now = node.vt.now();
        up.send(node_now, node.hello().encode());
        self.links.push(Link {
            name: name.to_string(),
            down: SimLink::new(net),
            up,
            node: Some(node),
            ships: BTreeMap::new(),
            known: false,
            last_hello: node_now,
            pending_repairs: Vec::new(),
            repair_sent: BTreeMap::new(),
            last_cut_sent: None,
            rtt: Estimator::default(),
            meters: Meters::new(),
            metrics: LinkMetrics::default(),
        });
        Ok(())
    }

    fn link(&self, name: &str) -> Option<&Link> {
        self.links.iter().find(|l| l.name == name)
    }

    fn link_mut(&mut self, name: &str) -> Option<&mut Link> {
        self.links.iter_mut().find(|l| l.name == name)
    }

    /// Partitions or heals both directions of a replica's link.
    ///
    /// # Errors
    ///
    /// [`ReplError::UnknownReplica`].
    pub fn set_partitioned(&mut self, name: &str, partitioned: bool) -> Result<(), ReplError> {
        let link = self.link_mut(name).ok_or(ReplError::UnknownReplica)?;
        link.down.set_partitioned(partitioned);
        link.up.set_partitioned(partitioned);
        Ok(())
    }

    /// Read access to an attached replica node.
    pub fn replica(&self, name: &str) -> Option<&ReplicaNode> {
        self.link(name)?.node.as_ref()
    }

    /// Mutable access to an attached replica node (local reads).
    pub fn replica_mut(&mut self, name: &str) -> Option<&mut ReplicaNode> {
        self.link_mut(name)?.node.as_mut()
    }

    /// The per-link metric counters.
    pub fn link_metrics(&self, name: &str) -> Option<&LinkMetrics> {
        Some(&self.link(name)?.metrics)
    }

    /// The per-link latency meters (`repl_ack_lag`: ship built to
    /// acknowledged, in virtual time).
    pub fn link_meters(&self, name: &str) -> Option<&Meters> {
        Some(&self.link(name)?.meters)
    }

    /// The raw network counters of a link: `(down, up)` direction
    /// stats.
    pub fn link_net_stats(
        &self,
        name: &str,
    ) -> Option<(msnap_sim::LinkStats, msnap_sim::LinkStats)> {
        let link = self.link(name)?;
        Some((*link.down.stats(), *link.up.stats()))
    }

    /// One engine round at the primary's current instant: drain
    /// acknowledgements, fence if a divergent peer re-attached, start
    /// and retransmit ships, garbage-collect retained bases, and pump
    /// every replica's inbound datagrams.
    ///
    /// # Errors
    ///
    /// Primary-side store errors (snapshot creation, fencing, stream
    /// building) — replica-side failures never propagate; they surface
    /// as `Degraded` states and resync traffic instead.
    pub fn tick(&mut self, vt: &mut Vt, ms: &mut MemSnap) -> Result<TickReport, ReplError> {
        let mut report = TickReport::default();
        // Nothing in a tick creates or removes primary objects: list
        // them once for every step that walks them.
        let objects = ms.store().object_names();
        self.drain_up(vt, &mut report);
        self.fence_divergent(vt, ms, &objects, &mut report)?;
        self.repair(vt, ms);
        // GC before shipping: entries freed by the acknowledgements just
        // drained make room in the snapshot catalog for the targets the
        // ship planner is about to pin.
        self.gc_snapshots(vt, ms);
        self.ship(vt, ms, &objects, &mut report)?;
        self.announce_cuts(vt, ms);
        self.retransmit(vt);
        self.pump_until(vt.now());
        self.refresh_lag(ms, &objects, &mut report);
        Ok(report)
    }

    /// Processes every datagram the replicas can deliver, without
    /// touching the primary — usable after the primary has died to let
    /// in-flight datagrams land before a promotion.
    pub fn pump(&mut self) {
        self.pump_until(Nanos::MAX);
    }

    /// Lands everything in flight down the links, as [`ReplEngine::pump`]
    /// does; `now` is how far a replica's reorder allowances may run out
    /// once nothing more is on its way (before that, the next arrival's
    /// instant is).
    fn pump_until(&mut self, now: Nanos) {
        let repair_timeout = self.cfg.retransmit_timeout;
        for link in &mut self.links {
            let Some(node) = link.node.as_mut() else {
                continue;
            };
            let cut_before = node.cut.as_ref().map(|c| c.seq);
            loop {
                let next = link.down.next_delivery();
                for nak in node.overdue(next.unwrap_or(now)) {
                    link.up.send(node.vt.now(), nak.encode());
                }
                let Some((at, payload)) = link.down.poll(Nanos::MAX) else {
                    break;
                };
                node.vt.wait_until(at);
                for msg in unpack(&payload, &mut link.metrics.malformed) {
                    for reply in node.handle(msg) {
                        link.up.send(node.vt.now(), reply.encode());
                    }
                }
            }
            if node.cut.as_ref().map(|c| c.seq) != cut_before {
                link.metrics.cuts_completed += 1;
            }
            // Replica-initiated repair: pages the replica's scrub
            // quarantined without a clean local source are requested
            // from the primary, rate-limited per page.
            let now = node.vt.now();
            for msg in repair_requests(&node.store, &mut node.repair_sent, now, repair_timeout) {
                link.up.send(node.vt.now(), msg.encode());
                link.metrics.repair_requests += 1;
            }
            // A replica device is never crashed at a past instant
            // (promotion hands it over as it stands), so rollback state
            // for writes durable by the replica's own clock is dead
            // weight.
            node.disk.settle_until(node.vt.now());
        }
    }

    fn drain_up(&mut self, vt: &mut Vt, report: &mut TickReport) {
        for link in &mut self.links {
            while let Some((_, payload)) = link.up.poll(vt.now()) {
                for msg in unpack(&payload, &mut link.metrics.malformed) {
                    match msg {
                        Msg::Hello { objects } => {
                            link.known = true;
                            for status in objects {
                                let os = link.ships.entry(status.name).or_default();
                                os.remote = status.epoch;
                                os.remote_len = None;
                                os.retained_remote = status.retained;
                                os.inflight = None;
                                os.base = None;
                                os.divergent = true;
                                os.dedup.clear();
                            }
                        }
                        Msg::Ack {
                            ship,
                            object,
                            epoch,
                        } => {
                            let Some(os) = link.ships.get_mut(&object) else {
                                continue;
                            };
                            if epoch > os.remote {
                                os.remote = epoch;
                                os.remote_len = None;
                            }
                            if os.inflight.as_ref().is_some_and(|s| s.id == ship) {
                                if let Some(ship) = os.inflight.take() {
                                    let lag = vt.now().saturating_sub(ship.created_at);
                                    link.meters.record("repl_ack_lag", lag);
                                    if !ship.resent && lag > Nanos::ZERO {
                                        link.rtt.sample(lag);
                                    }
                                    if ship.target_epoch == os.remote {
                                        os.remote_len = Some(ship.stream.header.len_pages);
                                    }
                                    if let Some(name) = ship.anchor {
                                        os.base = Some((name, ship.target_epoch));
                                    }
                                    os.divergent = false;
                                    // The receiver applied the ship, so it
                                    // inserted the same payload images —
                                    // the staged entries are now shared.
                                    os.dedup.commit();
                                    link.metrics.acks += 1;
                                    report.acks += 1;
                                }
                            }
                        }
                        Msg::Nak {
                            ship,
                            begin,
                            missing,
                        } => {
                            let mut inflight = link
                                .ships
                                .values_mut()
                                .filter_map(|os| os.inflight.as_mut());
                            if let Some(s) = inflight.find(|s| s.id == ship) {
                                s.wanted = Some((begin, missing));
                            }
                        }
                        // Repair traffic needs the primary's store, which this
                        // loop cannot borrow — queue it for the repair step.
                        m @ (Msg::RepairRequest { .. } | Msg::RepairResponse { .. }) => {
                            link.pending_repairs.push(m);
                        }
                        // Begin/Frame/End never travel up the link.
                        _ => {}
                    }
                }
            }
        }
    }

    /// A re-attached peer whose durable epoch runs at or past the
    /// primary's own must be fenced away: jump the primary's epoch past
    /// the peer's tip so the catch-up stream lands strictly forward and
    /// the divergent history is abandoned by a rebase.
    fn fence_divergent(
        &mut self,
        vt: &mut Vt,
        ms: &mut MemSnap,
        objects: &[String],
        report: &mut TickReport,
    ) -> Result<(), ReplError> {
        for object in objects {
            let Some(live) = ms.object_epoch(object) else {
                continue;
            };
            let max_remote = self
                .links
                .iter()
                .filter(|l| l.known)
                .filter_map(|l| l.ships.get(object))
                // Only divergent peers (just re-attached, provenance
                // unknown) force a fence — a healthy caught-up replica
                // legitimately sits at the live epoch.
                .filter(|os| os.divergent)
                .map(|os| os.remote)
                .max()
                .unwrap_or(0);
            if max_remote >= live && max_remote > 0 {
                ms.msnap_fence(vt, object, max_remote + FENCE_GAP)?;
                report.fences += 1;
            }
        }
        Ok(())
    }

    /// Answers queued repair traffic and broadcasts repair requests for
    /// the primary's own unrepairable pages.
    ///
    /// Repair is symmetric. Replicas that scrub their local store send
    /// `RepairRequest`s up the link (delivered here via the queue that
    /// [`ReplEngine::tick`]'s drain step fills); the primary answers from
    /// its own verified copy, but only when the page digest matches the
    /// request — a stale or divergent copy stays silent. Conversely the
    /// primary's scrub may quarantine a page with no clean snapshot
    /// copy: those are broadcast down every attached link (rate-limited
    /// per page by the retransmit timeout) and healed by the first
    /// digest-matching `RepairResponse` through the normal crash-atomic
    /// commit path (`ObjectStore::repair_page`).
    fn repair(&mut self, vt: &mut Vt, ms: &mut MemSnap) {
        let timeout = self.cfg.retransmit_timeout;
        for link in &mut self.links {
            for msg in std::mem::take(&mut link.pending_repairs) {
                let (store, disk) = ms.replication_parts();
                match msg {
                    Msg::RepairRequest {
                        object,
                        page,
                        page_digest,
                    } => {
                        if let Some(reply) =
                            answer_repair(vt, disk, store, object, page, page_digest)
                        {
                            link.metrics.repair_requests += 1;
                            link.down.send(vt.now(), reply.encode());
                        }
                    }
                    Msg::RepairResponse {
                        object, page, data, ..
                    } => {
                        let healed = land_repair(vt, disk, store, &object, page, &data);
                        link.metrics.repairs_healed += u64::from(healed);
                    }
                    _ => {}
                }
            }
        }

        // Ask the replicas for the primary's own quarantined pages.
        let now = vt.now();
        for link in self.links.iter_mut().filter(|l| l.known) {
            for msg in repair_requests(ms.store(), &mut link.repair_sent, now, timeout) {
                link.metrics.repair_requests += 1;
                link.down.send(now, msg.encode());
            }
        }
    }

    /// Announces the primary's newest durable epoch-vector cut down
    /// every known link, re-sending each retransmit window until a newer
    /// cut supersedes it (the datagram may be lost; duplicates are
    /// dropped by the replica by sequence number). Replicas complete a
    /// cut once every component epoch has landed, and failover promotes
    /// only at such cuts.
    fn announce_cuts(&mut self, vt: &mut Vt, ms: &MemSnap) {
        let Some(cut) = ms.last_cut() else {
            return;
        };
        let now = vt.now();
        let timeout = self.cfg.retransmit_timeout;
        for link in &mut self.links {
            if !link.known {
                continue;
            }
            let due = link
                .last_cut_sent
                .is_none_or(|(seq, at)| seq != cut.seq || now.saturating_sub(at) >= timeout);
            if !due {
                continue;
            }
            link.last_cut_sent = Some((cut.seq, now));
            link.metrics.cut_announces += 1;
            link.down.send(
                now,
                Msg::CutAnnounce {
                    seq: cut.seq,
                    epochs: cut.epochs.clone(),
                }
                .encode(),
            );
        }
    }

    fn retransmit(&mut self, vt: &mut Vt) {
        let now = vt.now();
        for link in &mut self.links {
            // A Bootstrapping replica's Hello may itself have been lost:
            // it re-announces until the primary has heard it (duplicate
            // Hellos are idempotent).
            if !link.known && now.saturating_sub(link.last_hello) > self.cfg.retransmit_timeout {
                if let Some(node) = link.node.as_mut() {
                    let node_now = node.vt.now();
                    let hello = node.hello().encode();
                    link.up.send(node_now, hello);
                }
                link.last_hello = now;
            }
            // RFC 6298 over the link's own acknowledgement lag, between
            // twice its mean and the configured ceiling.
            let ceiling = self.cfg.retransmit_timeout;
            let floor = link.rtt.mean * 2;
            let rto = link
                .rtt
                .bound()
                .map_or(ceiling, |b| b.max(floor).min(ceiling));
            for os in link.ships.values_mut() {
                let Some(ship) = os.inflight.as_mut() else {
                    continue;
                };
                // Nak-driven: exactly the pieces the replica named, and
                // the End. Timer: the End alone, a probe the replica
                // answers with an Ack or with the Nak for what it lacks.
                let (begin, missing) = match ship.wanted.take() {
                    Some(wanted) => wanted,
                    None if now.saturating_sub(ship.last_send) > rto => (false, Vec::new()),
                    None => continue,
                };
                link.metrics.retransmit_frames +=
                    send_ship(&mut link.down, now, ship, begin, missing);
                ship.last_send = now;
                ship.resent = true;
            }
        }
    }

    fn refresh_lag(&mut self, ms: &MemSnap, objects: &[String], report: &mut TickReport) {
        let mut caught_up = true;
        for link in &mut self.links {
            if !link.known {
                caught_up = false;
                continue;
            }
            let mut lag_epochs = 0u64;
            let mut lag_bytes = 0u64;
            for object in objects {
                let Some(live) = ms.object_epoch(object) else {
                    continue;
                };
                let (remote, inflight) = link.ships.get(object).map_or((0, 0), |os| {
                    (os.remote, os.inflight.as_ref().map_or(0, Ship::wire_bytes))
                });
                lag_epochs = lag_epochs.max(live.saturating_sub(remote));
                lag_bytes += inflight;
            }
            link.metrics.lag_epochs = lag_epochs;
            link.metrics.lag_bytes = lag_bytes;
            if lag_epochs > self.cfg.max_lag_epochs || lag_bytes > MAX_LAG_BYTES {
                link.metrics.throttled_ticks += 1;
                report.throttled = true;
            }
            if lag_epochs > 0 || lag_bytes > 0 {
                caught_up = false;
            }
        }
        report.caught_up = caught_up && !self.links.is_empty();
    }

    /// Ticks until every link is caught up or `limit` of virtual time
    /// passes, advancing the primary clock between rounds (modelling an
    /// ingest stall / quiescent wait). Returns whether the links caught
    /// up.
    ///
    /// # Errors
    ///
    /// As for [`ReplEngine::tick`].
    pub fn settle(
        &mut self,
        vt: &mut Vt,
        ms: &mut MemSnap,
        limit: Nanos,
    ) -> Result<bool, ReplError> {
        let deadline = vt.now() + limit;
        let step = (self.cfg.retransmit_timeout / 2).max(Nanos::from_ns(1));
        loop {
            let report = self.tick(vt, ms)?;
            if report.caught_up {
                return Ok(true);
            }
            if vt.now() >= deadline {
                return Ok(false);
            }
            vt.advance(step);
        }
    }

    /// Fails over to the named replica: lets its in-flight datagrams
    /// land, fences every object `FENCE_GAP` (16) epochs past
    /// its durable tip (so the new reign's epochs can never collide with
    /// the dead primary's unacknowledged history), and returns its
    /// device ready to boot plus the surviving replicas' devices.
    ///
    /// Incomplete apply sessions are discarded — their staging was
    /// volatile, so the promoted store *is* exactly one of its committed
    /// epochs; a crash-mid-stream never surfaces.
    ///
    /// # Errors
    ///
    /// [`ReplError::UnknownReplica`], or [`ReplError::Store`] if a
    /// fence fails.
    pub fn promote(mut self, name: &str) -> Result<Promotion, ReplError> {
        self.pump(); // let already-sent datagrams land everywhere
        let idx = self
            .links
            .iter()
            .position(|l| l.name == name && l.node.is_some())
            .ok_or(ReplError::UnknownReplica)?;
        let mut link = self.links.remove(idx);
        let Some(mut node) = link.node.take() else {
            return Err(ReplError::UnknownReplica);
        };
        node.ships.clear();
        node.state = ReplicaState::Promoted;
        // Promotion happens at (or past) the newest complete vector cut:
        // re-evaluate now that every in-flight datagram has landed.
        // Fencing below only raises epochs, so the cut stays complete.
        node.refresh_cut();
        let cut = node.cut.clone();
        let mut epochs = BTreeMap::new();
        for object in node.store.object_names() {
            let Some(id) = node.store.lookup(&object) else {
                continue;
            };
            let fenced = node.store.epoch(id) + FENCE_GAP;
            let token =
                node.store
                    .apply_image(&mut node.vt, &mut node.disk, id, None, &[], fenced)?;
            ObjectStore::wait(&mut node.vt, token);
            epochs.insert(object, fenced);
        }
        let survivors = self
            .links
            .into_iter()
            .filter_map(|mut l| l.node.take().map(|n| (l.name, n.disk)))
            .collect();
        Ok(Promotion {
            replica: node.name,
            disk: node.disk,
            vt: node.vt,
            epochs,
            survivors,
            cut,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::replica::{Reassembly, SLOT_BYTES};
    use super::*;
    use memsnap::{PersistFlags, RegionHandle, RegionSel, PAGE_SIZE};
    use msnap_disk::DiskConfig;
    use msnap_vm::AsId;

    fn primary() -> (MemSnap, Vt, AsId, RegionHandle, String) {
        let mut ms = MemSnap::format(Disk::new(DiskConfig::paper()));
        let mut vt = Vt::new(0);
        let space = ms.vm_mut().create_space();
        let r = ms.msnap_open(&mut vt, space, "data", 16).unwrap();
        let object = ms.region_object_name(r.md).unwrap().to_string();
        (ms, vt, space, r, object)
    }

    fn commit(ms: &mut MemSnap, vt: &mut Vt, space: AsId, r: &RegionHandle, fill: u8) -> Epoch {
        let t = vt.id();
        ms.write(vt, space, t, r.addr, &[fill; PAGE_SIZE]).unwrap();
        ms.msnap_persist(vt, t, RegionSel::Region(r.md), PersistFlags::sync())
            .unwrap()
    }

    /// An incompressible page: it ships as a stored whole-page frame, a
    /// datagram of its own.
    fn noise_page(seed: u64) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ seed.wrapping_mul(0xA24B_AED4_963E_E407);
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u8
        };
        (0..PAGE_SIZE).map(|_| next()).collect()
    }

    /// Commits fresh noise over the region's first `pages` pages: the
    /// ship that carries it is `pages` + 2 datagrams.
    fn commit_noise(
        ms: &mut MemSnap,
        vt: &mut Vt,
        space: AsId,
        r: &RegionHandle,
        seed: u64,
        pages: u64,
    ) -> Epoch {
        let t = vt.id();
        for p in 0..pages {
            let addr = r.addr + p * PAGE_SIZE as u64;
            ms.write(vt, space, t, addr, &noise_page(seed * 16 + p))
                .unwrap();
        }
        ms.msnap_persist(vt, t, RegionSel::Region(r.md), PersistFlags::sync())
            .unwrap()
    }

    fn assert_replica_page(eng: &mut ReplEngine, name: &str, object: &str, page: u64, fill: u8) {
        let node = eng.replica_mut(name).unwrap();
        let mut buf = vec![0u8; PAGE_SIZE];
        node.read_page(object, page, &mut buf).unwrap();
        assert_eq!(buf, vec![fill; PAGE_SIZE], "replica {name} page {page}");
    }

    #[test]
    fn calm_link_syncs_replica_byte_for_byte() {
        let (mut ms, mut vt, space, r, object) = primary();
        let mut eng = ReplEngine::new(ReplConfig::default());
        eng.add_replica("r1", NetConfig::calm(7)).unwrap();
        for fill in 1..=3u8 {
            commit(&mut ms, &mut vt, space, &r, fill);
            assert!(eng.settle(&mut vt, &mut ms, Nanos::from_secs(5)).unwrap());
        }
        let live = ms.object_epoch(&object).unwrap();
        assert_eq!(eng.replica("r1").unwrap().state(), ReplicaState::Streaming);
        assert_eq!(eng.replica("r1").unwrap().epoch(&object), live);
        assert_replica_page(&mut eng, "r1", &object, 0, 3);
        let m = *eng.link_metrics("r1").unwrap();
        // Bootstrap ships the full image once; per-commit catch-ups are
        // deltas against the last acknowledged base.
        assert!(m.full_syncs >= 1, "bootstrap full sync: {m:?}");
        assert!(m.delta_syncs >= 1, "steady-state deltas: {m:?}");
        assert!(m.acks >= 2, "{m:?}");
        assert_eq!(m.lag_epochs, 0);
        let meters = eng.link_meters("r1").unwrap();
        assert!(meters.get("repl_ack_lag").is_some());
    }

    #[test]
    fn lossy_link_converges_with_retransmits() {
        let (mut ms, mut vt, space, r, object) = primary();
        let mut eng = ReplEngine::new(ReplConfig::default());
        eng.add_replica("r1", NetConfig::lossy(3)).unwrap();
        // Whole incompressible pages, a ship per commit: a ship is
        // several datagrams, not one packed one, and only a lost frame
        // is a retransmitted frame.
        for seed in 1..=8 {
            commit_noise(&mut ms, &mut vt, space, &r, seed, 4);
            assert!(eng.settle(&mut vt, &mut ms, Nanos::from_secs(30)).unwrap());
        }
        assert_replica_matches_primary(&mut eng, "r1", &mut ms, &mut vt, &object);
        let (down, _up) = eng.link_net_stats("r1").unwrap();
        assert!(down.dropped > 0, "a 15% link drops something: {down:?}");
        let m = eng.link_metrics("r1").unwrap();
        assert!(m.retransmit_frames > 0, "drops force retransmission: {m:?}");
    }

    #[test]
    fn partition_throttles_then_heals() {
        let (mut ms, mut vt, space, r, object) = primary();
        let cfg = ReplConfig {
            max_lag_epochs: 1,
            ..ReplConfig::default()
        };
        let mut eng = ReplEngine::new(cfg);
        eng.add_replica("r1", NetConfig::calm(11)).unwrap();
        commit(&mut ms, &mut vt, space, &r, 1);
        assert!(eng.settle(&mut vt, &mut ms, Nanos::from_secs(5)).unwrap());
        eng.set_partitioned("r1", true).unwrap();
        for fill in 2..=5u8 {
            commit(&mut ms, &mut vt, space, &r, fill);
        }
        let report = eng.tick(&mut vt, &mut ms).unwrap();
        assert!(report.throttled, "lag 4 > budget 1 must throttle");
        assert!(!eng.settle(&mut vt, &mut ms, Nanos::from_ms(200)).unwrap());
        assert!(eng.link_metrics("r1").unwrap().throttled_ticks > 0);
        eng.set_partitioned("r1", false).unwrap();
        assert!(eng.settle(&mut vt, &mut ms, Nanos::from_secs(10)).unwrap());
        assert_eq!(
            eng.replica("r1").unwrap().epoch(&object),
            ms.object_epoch(&object).unwrap()
        );
        assert_replica_page(&mut eng, "r1", &object, 0, 5);
    }

    #[test]
    fn deep_lag_drops_base_and_falls_back_to_full_image() {
        let (mut ms, mut vt, space, r, object) = primary();
        let mut eng = ReplEngine::new(ReplConfig::default());
        eng.add_replica("r1", NetConfig::calm(13)).unwrap();
        commit(&mut ms, &mut vt, space, &r, 1);
        assert!(eng.settle(&mut vt, &mut ms, Nanos::from_secs(5)).unwrap());
        let after_bootstrap = eng.link_metrics("r1").unwrap().full_syncs;
        // Race ahead of the replica by more than DROP_BASE_LAG without
        // letting the engine ship.
        let last = 2 + DROP_BASE_LAG as u8;
        for fill in 2..=last {
            commit(&mut ms, &mut vt, space, &r, fill);
        }
        assert!(eng.settle(&mut vt, &mut ms, Nanos::from_secs(10)).unwrap());
        let m = *eng.link_metrics("r1").unwrap();
        assert!(
            m.full_syncs > after_bootstrap,
            "deep lag must fall back to a full image: {m:?}"
        );
        assert_replica_page(&mut eng, "r1", &object, 0, last);
    }

    #[test]
    fn promote_then_reattach_old_primary_converges_by_delta() {
        let (mut ms, mut vt, space, r, object) = primary();
        let mut eng = ReplEngine::new(ReplConfig::default());
        eng.add_replica("r1", NetConfig::calm(17)).unwrap();
        eng.add_replica("r2", NetConfig::calm(18)).unwrap();
        for fill in 1..=3u8 {
            commit(&mut ms, &mut vt, space, &r, fill);
            assert!(eng.settle(&mut vt, &mut ms, Nanos::from_secs(5)).unwrap());
        }
        // One more commit the replicas never hear about: the primary
        // dies mid-stream.
        commit(&mut ms, &mut vt, space, &r, 4);
        eng.set_partitioned("r1", true).unwrap();
        eng.set_partitioned("r2", true).unwrap();
        let _ = eng.tick(&mut vt, &mut ms).unwrap();
        let promo = eng.promote("r1").unwrap();
        assert_eq!(promo.replica, "r1");
        assert_eq!(promo.survivors.len(), 1);
        assert_eq!(promo.survivors[0].0, "r2");

        // The promoted store boots and serves reads and writes from
        // exactly the last replicated committed state.
        let mut vt2 = promo.vt;
        let mut ms2 = MemSnap::restore(&mut vt2, promo.disk).unwrap();
        let space2 = ms2.vm_mut().create_space();
        let r2 = ms2.msnap_open(&mut vt2, space2, "data", 16).unwrap();
        let mut buf = vec![0u8; PAGE_SIZE];
        ms2.read(&mut vt2, space2, r2.addr, &mut buf).unwrap();
        assert_eq!(
            buf,
            vec![3u8; PAGE_SIZE],
            "unacked epoch 4 must not surface"
        );
        commit(&mut ms2, &mut vt2, space2, &r2, 9);

        // The failed primary rejoins as a replica and converges through
        // a rebase delta alone — no full image.
        let old_disk = ms.crash(vt.now());
        let mut eng2 = ReplEngine::new(ReplConfig::default());
        eng2.attach_replica("old", NetConfig::calm(19), old_disk)
            .unwrap();
        assert!(eng2
            .settle(&mut vt2, &mut ms2, Nanos::from_secs(10))
            .unwrap());
        let m = *eng2.link_metrics("old").unwrap();
        assert_eq!(
            m.full_syncs, 0,
            "rejoin must diff from a common base: {m:?}"
        );
        assert!(m.delta_syncs >= 1, "{m:?}");
        assert_eq!(
            eng2.replica("old").unwrap().epoch(&object),
            ms2.object_epoch(&object).unwrap()
        );
        assert_replica_page(&mut eng2, "old", &object, 0, 9);
    }

    fn engine_pins(ms: &MemSnap) -> usize {
        let pins = ms.retained_snapshots();
        pins.iter().filter(|s| s.name.starts_with("rp")).count()
    }

    fn assert_replica_matches_primary(
        eng: &mut ReplEngine,
        name: &str,
        ms: &mut MemSnap,
        vt: &mut Vt,
        object: &str,
    ) {
        let id = ms.store().lookup(object).unwrap();
        assert_eq!(
            eng.replica(name).unwrap().epoch(object),
            ms.store().epoch(id)
        );
        let (store, disk) = ms.replication_parts();
        let (mut want, mut got) = (vec![0u8; PAGE_SIZE], vec![0u8; PAGE_SIZE]);
        for page in 0..store.len_pages(id) {
            store.read_page(vt, disk, id, page, &mut want).unwrap();
            let node = eng.replica_mut(name).unwrap();
            node.read_page(object, page, &mut got).unwrap();
            assert_eq!(got, want, "replica {name} page {page}");
        }
    }

    /// Steady-state ships read the commits' own record: the catalog sees
    /// one anchor per `DROP_BASE_LAG / 2` epochs, not one pin per commit.
    #[test]
    fn steady_state_pins_anchors_not_commits() {
        let (mut ms, mut vt, space, r, object) = primary();
        let mut eng = ReplEngine::new(ReplConfig::default());
        eng.add_replica("r1", NetConfig::calm(31)).unwrap();
        eng.add_replica("r2", NetConfig::calm(32)).unwrap();
        for i in 0..200u64 {
            commit(&mut ms, &mut vt, space, &r, 1 + (i % 250) as u8);
            assert!(eng.settle(&mut vt, &mut ms, Nanos::from_secs(5)).unwrap());
            // No more than the per-commit scheme held: a base and an
            // in-flight target per (link, object), region and manifest.
            assert!(engine_pins(&ms) <= 2 * 2 * 2, "commit {i}");
        }
        let per_link_object = 200u64.div_ceil(DROP_BASE_LAG / 2) + 1;
        assert!(
            eng.next_snap <= 2 * 2 * per_link_object,
            "{} snapshots pinned for 200 commits",
            eng.next_snap
        );
        for name in ["r1", "r2"] {
            let m = *eng.link_metrics(name).unwrap();
            assert_eq!(m.full_syncs, 2, "bootstrap only: {m:?}");
            assert_eq!(m.recorded_syncs, m.delta_syncs, "{m:?}");
            assert_replica_matches_primary(&mut eng, name, &mut ms, &mut vt, &object);
        }
    }

    /// A ship is the epoch it was built at: commits made while its
    /// datagrams are lost never leak into the replayed frames.
    #[test]
    fn retransmitted_ship_lands_its_own_epoch_not_a_newer_one() {
        let (mut ms, mut vt, space, r, object) = primary();
        let mut eng = ReplEngine::new(ReplConfig::default());
        eng.add_replica("r1", NetConfig::calm(33)).unwrap();
        commit(&mut ms, &mut vt, space, &r, 1);
        assert!(eng.settle(&mut vt, &mut ms, Nanos::from_secs(5)).unwrap());

        let shipped = commit(&mut ms, &mut vt, space, &r, 2);
        eng.set_partitioned("r1", true).unwrap();
        let report = eng.tick(&mut vt, &mut ms).unwrap();
        assert_eq!(report.ships_started, 1, "built, every datagram dropped");
        commit(&mut ms, &mut vt, space, &r, 3);
        commit(&mut ms, &mut vt, space, &r, 4);
        eng.set_partitioned("r1", false).unwrap();
        // The timeout replays the ship (a jittered End may overtake its
        // frame and cost one Nak round more): the replica's first step
        // forward is to the ship's own epoch and bytes.
        let before = eng.link_metrics("r1").unwrap().retransmit_frames;
        vt.advance(eng.config().retransmit_timeout);
        while eng.replica("r1").unwrap().epoch(&object) < shipped {
            vt.advance(Nanos::from_ms(1));
            let report = eng.tick(&mut vt, &mut ms).unwrap();
            assert_eq!(report.ships_started, 0, "replayed, not rebuilt");
        }
        assert_eq!(eng.replica("r1").unwrap().epoch(&object), shipped);
        assert_replica_page(&mut eng, "r1", &object, 0, 2);
        assert!(eng.link_metrics("r1").unwrap().retransmit_frames > before);

        assert!(eng.settle(&mut vt, &mut ms, Nanos::from_secs(5)).unwrap());
        assert_replica_matches_primary(&mut eng, "r1", &mut ms, &mut vt, &object);
    }

    /// A fence leaves a span with no dirty-line record, and a healed
    /// page one whose record no longer tells the whole story: neither
    /// costs a full image — the ship rebases from the anchor both ends
    /// retain (or stays on the record), and recorded ships resume.
    #[test]
    fn unprovable_span_rebases_from_the_anchor_not_a_full_image() {
        let (mut ms, mut vt, space, r, object) = primary();
        let mut eng = ReplEngine::new(ReplConfig::default());
        eng.add_replica("r1", NetConfig::calm(34)).unwrap();
        for fill in 1..=3u8 {
            commit(&mut ms, &mut vt, space, &r, fill);
            assert!(eng.settle(&mut vt, &mut ms, Nanos::from_secs(5)).unwrap());
        }
        let before = *eng.link_metrics("r1").unwrap();

        let live = ms.object_epoch(&object).unwrap();
        ms.msnap_fence(&mut vt, &object, live + 5).unwrap();
        commit(&mut ms, &mut vt, space, &r, 4);
        assert!(eng.settle(&mut vt, &mut ms, Nanos::from_secs(5)).unwrap());
        let m = *eng.link_metrics("r1").unwrap();
        assert_eq!(m.full_syncs, before.full_syncs, "{m:?}");
        assert_eq!(m.recorded_syncs, before.recorded_syncs, "rebased: {m:?}");
        assert!(m.delta_syncs > before.delta_syncs, "{m:?}");
        assert_eq!(eng.replica("r1").unwrap().state(), ReplicaState::Streaming);
        assert_replica_matches_primary(&mut eng, "r1", &mut ms, &mut vt, &object);

        // Rot the live page, scrub it into quarantine, let the replica
        // heal it, then commit on top of the healed page.
        {
            let (store, disk) = ms.replication_parts();
            let block = live_block(disk, &[4u8; PAGE_SIZE]);
            disk.corrupt_bit(block, 200, 2);
            while store.scrub_stats().passes == 0 {
                store.scrub(&mut vt, disk, 64).unwrap();
            }
            assert_eq!(store.unrepaired_pages().len(), 1);
        }
        for _ in 0..64 {
            eng.tick(&mut vt, &mut ms).unwrap();
            vt.advance(Nanos::from_ms(10));
        }
        assert!(ms.store().unrepaired_pages().is_empty(), "peer repair");
        commit(&mut ms, &mut vt, space, &r, 5);
        assert!(eng.settle(&mut vt, &mut ms, Nanos::from_secs(5)).unwrap());
        let after = *eng.link_metrics("r1").unwrap();
        assert_eq!(after.full_syncs, before.full_syncs, "{after:?}");
        assert!(after.recorded_syncs > m.recorded_syncs, "{after:?}");
        assert_replica_matches_primary(&mut eng, "r1", &mut ms, &mut vt, &object);
    }

    /// A link partitioned past the record the commits keep catches up
    /// with one full image, then goes back to recorded deltas.
    #[test]
    fn pruned_record_costs_one_full_image_then_recorded_deltas_resume() {
        let (mut ms, mut vt, space, r, object) = primary();
        let mut eng = ReplEngine::new(ReplConfig::default());
        eng.add_replica("r1", NetConfig::calm(35)).unwrap();
        commit(&mut ms, &mut vt, space, &r, 1);
        assert!(eng.settle(&mut vt, &mut ms, Nanos::from_secs(5)).unwrap());
        let before = *eng.link_metrics("r1").unwrap();

        eng.set_partitioned("r1", true).unwrap();
        for i in 0..70u64 {
            commit(&mut ms, &mut vt, space, &r, 2 + i as u8);
            eng.tick(&mut vt, &mut ms).unwrap();
        }
        eng.set_partitioned("r1", false).unwrap();
        assert!(eng.settle(&mut vt, &mut ms, Nanos::from_secs(10)).unwrap());
        let healed = *eng.link_metrics("r1").unwrap();
        assert_eq!(healed.full_syncs, before.full_syncs + 1, "{healed:?}");
        assert_replica_matches_primary(&mut eng, "r1", &mut ms, &mut vt, &object);

        commit(&mut ms, &mut vt, space, &r, 99);
        assert!(eng.settle(&mut vt, &mut ms, Nanos::from_secs(5)).unwrap());
        let after = *eng.link_metrics("r1").unwrap();
        assert_eq!(after.full_syncs, healed.full_syncs, "{after:?}");
        assert_eq!(after.recorded_syncs, healed.recorded_syncs + 1, "{after:?}");
        assert_replica_matches_primary(&mut eng, "r1", &mut ms, &mut vt, &object);
    }

    #[test]
    fn sharded_primary_announces_cuts_and_replica_completes_them() {
        let mut ms = MemSnap::format_sharded(Disk::new(DiskConfig::paper()), 4);
        let mut vt = Vt::new(0);
        let space = ms.vm_mut().create_space();
        let a = ms.msnap_open(&mut vt, space, "alpha", 4).unwrap();
        let b = ms.msnap_open(&mut vt, space, "beta", 4).unwrap();
        let mut eng = ReplEngine::new(ReplConfig::default());
        eng.add_replica("r1", NetConfig::calm(29)).unwrap();
        let t = vt.id();
        for fill in 1..=2u8 {
            for r in [&a, &b] {
                ms.write(&mut vt, space, t, r.addr, &[fill; PAGE_SIZE])
                    .unwrap();
                ms.msnap_persist(&mut vt, t, RegionSel::Region(r.md), PersistFlags::sync())
                    .unwrap();
            }
            let cut = ms.msnap_cut(&mut vt).unwrap();
            assert_eq!(cut.epochs.len(), 4);
            assert!(eng.settle(&mut vt, &mut ms, Nanos::from_secs(5)).unwrap());
        }
        let adopted = eng
            .replica("r1")
            .unwrap()
            .cut()
            .cloned()
            .expect("replica completes the announced cut");
        assert_eq!(&adopted, ms.last_cut().unwrap());
        let m = *eng.link_metrics("r1").unwrap();
        assert!(m.cut_announces >= 1, "{m:?}");
        assert!(m.cuts_completed >= 1, "{m:?}");
        // Failover hands back the cut the promoted replica stands at.
        let promo = eng.promote("r1").unwrap();
        assert_eq!(promo.cut, Some(adopted));
    }

    /// A `Hello` heard mid-ship makes the primary abandon the ship and
    /// re-plan under a new id; the replica must not keep the abandoned
    /// session (and its staged frames) forever.
    #[test]
    fn newer_begin_drops_the_abandoned_sessions_of_its_object() {
        let mut node = ReplicaNode::format("r1", 1);
        let header = |object: &str| msnap_snap::StreamHeader {
            object: object.to_string(),
            base_epoch: None,
            target_epoch: 5,
            len_pages: 1,
            frame_count: 1,
            cut: None,
        };
        for ship in 1..=5 {
            let header = header("data");
            assert!(node.handle(Msg::Begin { ship, header }).is_empty());
        }
        assert_eq!(
            node.ships.keys().collect::<Vec<_>>(),
            [&5],
            "only the newest ship of the object stays open"
        );
        // Another object's ship is not this object's business, and a
        // stale Begin overtaken by a newer one evicts nothing.
        let other = header("other");
        node.handle(Msg::Begin {
            ship: 6,
            header: other,
        });
        let stale = header("data");
        node.handle(Msg::Begin {
            ship: 4,
            header: stale,
        });
        assert_eq!(node.ships.keys().collect::<Vec<_>>(), [&4, &5, &6]);
    }

    /// A full image of `n` incompressible pages of object "db" as the
    /// messages of ship 1 — `Begin`, `n` frames, `End` — with the epoch
    /// it lands at.
    fn ship_of(n: u64) -> (Vec<Msg>, Epoch) {
        let mut disk = Disk::new(DiskConfig::paper());
        let mut store = ObjectStore::format(&mut disk);
        let mut vt = Vt::new(0);
        let id = store.create(&mut vt, &mut disk, "db").unwrap();
        let pages: Vec<Vec<u8>> = (0..n).map(noise_page).collect();
        let iov: Vec<(u64, &[u8])> = (0..n).zip(pages.iter().map(|p| &p[..])).collect();
        let token = store.persist(&mut vt, &mut disk, id, &iov).unwrap();
        ObjectStore::wait(&mut vt, token);
        store
            .snapshot_create(&mut vt, &mut disk, id, "tip")
            .unwrap();
        let stream = DeltaStream::build(&mut vt, &mut disk, &mut store, None, "tip", None).unwrap();
        assert_eq!(stream.frames.len() as u64, n);
        let ship = 1;
        let header = stream.header.clone();
        let mut msgs = vec![Msg::Begin { ship, header }];
        msgs.extend(
            stream
                .frames
                .into_iter()
                .map(|frame| Msg::Frame { ship, frame }),
        );
        msgs.push(Msg::End {
            ship,
            probe: false,
            trailer: stream.trailer,
        });
        (msgs, stream.header.target_epoch)
    }

    /// Every permutation of `0..n` (Heap's algorithm).
    fn permutations(n: usize) -> Vec<Vec<usize>> {
        fn heap(k: usize, a: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
            if k <= 1 {
                return out.push(a.clone());
            }
            for i in 0..k {
                heap(k - 1, a, out);
                a.swap(if k.is_multiple_of(2) { i } else { 0 }, k - 1);
            }
        }
        let mut out = Vec::new();
        heap(n, &mut (0..n).collect(), &mut out);
        out.sort();
        out.dedup();
        assert_eq!(out.len(), (1..=n).product::<usize>());
        out
    }

    /// Reordering alone is free: a ship's messages delivered to a
    /// replica in any order (inside its reorder allowance) land it with
    /// one `Ack` and not one `Nak` — nothing for the primary to resend.
    /// Every order for 1 and 3 frames; for 8 frames (3.6 M orders) the
    /// `Begin` and the `End` in every pair of positions around the frames
    /// forwards, backwards and interleaved, and 200 seeded shuffles.
    #[test]
    fn any_arrival_order_lands_the_ship_with_one_ack_and_no_nak() {
        for n in [1usize, 3, 8] {
            let (msgs, epoch) = ship_of(n as u64);
            let orders = if n < 8 {
                permutations(n + 2)
            } else {
                let mut orders = Vec::new();
                let forwards: Vec<usize> = (1..=n).collect();
                let backwards: Vec<usize> = forwards.iter().rev().copied().collect();
                let (odd, even): (Vec<usize>, Vec<usize>) =
                    forwards.iter().partition(|&&i| i % 2 == 1);
                for frames in [forwards, backwards, [even, odd].concat()] {
                    for begin_at in 0..=n {
                        for end_at in 0..=n + 1 {
                            let mut order = frames.clone();
                            order.insert(begin_at, 0);
                            order.insert(end_at, n + 1);
                            orders.push(order);
                        }
                    }
                }
                let mut state = 0x5EEDu64;
                for _ in 0..200 {
                    let mut order: Vec<usize> = (0..n + 2).collect();
                    for i in (1..order.len()).rev() {
                        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                        order.swap(i, (state >> 33) as usize % (i + 1));
                    }
                    orders.push(order);
                }
                orders
            };
            for order in orders {
                let mut node = ReplicaNode::format("r1", 1);
                // An allowance is known, so an early End does arm a Nak.
                node.reorder.sample(Nanos::from_us(10));
                let mut replies = Vec::new();
                for &i in &order {
                    replies.extend(node.handle(msgs[i].clone()));
                    // All of it arrives at one instant: no allowance runs out.
                    replies.extend(node.overdue(Nanos::ZERO));
                }
                replies.extend(node.overdue(Nanos::MAX));
                let object = "db".to_string();
                let ack = Msg::Ack {
                    ship: 1,
                    object,
                    epoch,
                };
                assert_eq!(replies, [ack], "{n} frames in order {order:?}");
                assert!(node.ships.is_empty(), "{order:?}");
                let mut got = vec![0u8; PAGE_SIZE];
                for page in 0..n as u64 {
                    node.read_page("db", page, &mut got).unwrap();
                    assert_eq!(got, noise_page(page), "page {page} after {order:?}");
                }
            }
        }
    }

    /// Takes the `victim`-th datagram in flight on a link out of it; the
    /// rest go back in, in order. Returns the lost datagram.
    fn lose(link: &mut SimLink, now: Nanos, victim: usize) -> Vec<u8> {
        let mut grams = Vec::new();
        while let Some((_, gram)) = link.poll(Nanos::MAX) {
            grams.push(gram);
        }
        let lost = grams.remove(victim);
        grams.into_iter().for_each(|gram| link.send(now, gram));
        lost
    }

    /// One lost datagram costs one datagram: with each datagram of a ship
    /// lost in turn — the `Begin`, each frame, the `End`, then the `Ack`
    /// — the link converges having resent that datagram's messages and
    /// `End`s (the closing one, the timer's probes), never the ship.
    #[test]
    fn one_lost_datagram_is_resent_alone() {
        for n in [1u64, 3, 8] {
            for victim in 0..n + 3 {
                let (mut ms, mut vt, space, r, object) = primary();
                let mut eng = ReplEngine::new(ReplConfig::default());
                // No loss, no jitter: what goes missing is what `lose` takes.
                let exact = NetConfig {
                    jitter: Nanos::ZERO,
                    ..NetConfig::calm(7)
                };
                eng.add_replica("r1", exact).unwrap();
                commit(&mut ms, &mut vt, space, &r, 1);
                assert!(eng.settle(&mut vt, &mut ms, Nanos::from_secs(5)).unwrap());

                // One tick by hand, to get between the send and the pump.
                commit_noise(&mut ms, &mut vt, space, &r, 1, n);
                let objects = ms.store().object_names();
                let mut report = TickReport::default();
                eng.drain_up(&mut vt, &mut report);
                eng.ship(&mut vt, &mut ms, &objects, &mut report).unwrap();
                assert_eq!(report.ships_started, 1);
                let lost = if victim < n + 2 {
                    lose(&mut eng.links[0].down, vt.now(), victim as usize)
                } else {
                    Vec::new()
                };
                eng.pump_until(vt.now());
                if victim == n + 2 {
                    let ack = lose(&mut eng.links[0].up, vt.now(), 0);
                    assert!(matches!(Msg::decode(&ack), Ok((Msg::Ack { .. }, _))));
                }
                let resent_from = eng.links[0].down.stats().bytes_sent;
                for _ in 0..200 {
                    vt.advance(Nanos::from_ms(1));
                    if eng.tick(&mut vt, &mut ms).unwrap().caught_up {
                        break;
                    }
                }
                assert_replica_matches_primary(&mut eng, "r1", &mut ms, &mut vt, &object);
                let m = *eng.link_metrics("r1").unwrap();
                let frame_lost = (1..=n).contains(&victim);
                assert_eq!(m.retransmit_frames, u64::from(frame_lost), "{n}/{victim}");
                assert_eq!(m.acks, 3, "bootstrap's two and this one: {n}/{victim}");
                // What went down the link again: the lost datagram's
                // worth, an End probe and the closing End (56 bytes
                // each), a cut re-announce.
                let resent = eng.links[0].down.stats().bytes_sent - resent_from;
                assert!(
                    resent <= lost.len() as u64 + 3 * 56,
                    "{n}/{victim}: resent {resent} bytes for a lost {}",
                    lost.len()
                );
            }
        }
    }

    /// A calm link still jitters, so a ship's datagrams still arrive out
    /// of order — and that alone never earns a retransmission.
    #[test]
    fn reordering_on_a_calm_link_retransmits_nothing() {
        let (mut ms, mut vt, space, r, object) = primary();
        let mut eng = ReplEngine::new(ReplConfig::default());
        eng.add_replica("r1", NetConfig::calm(41)).unwrap();
        for i in 0..200 {
            commit_noise(&mut ms, &mut vt, space, &r, i, 1 + i % 4);
            assert!(eng.settle(&mut vt, &mut ms, Nanos::from_secs(5)).unwrap());
        }
        assert_replica_matches_primary(&mut eng, "r1", &mut ms, &mut vt, &object);
        let m = *eng.link_metrics("r1").unwrap();
        assert_eq!(m.retransmit_frames, 0, "{m:?}");
        assert!(m.acks >= 200, "{m:?}");
        // Not vacuous: Ends did overtake pieces of their ships.
        assert!(eng.replica("r1").unwrap().reorder.mean > Nanos::ZERO);
    }

    /// A datagram damaged behind its first message delivers that message
    /// and counts once as malformed; the link carries on.
    #[test]
    fn malformed_tail_costs_the_rest_of_its_datagram_only() {
        let mut eng = ReplEngine::new(ReplConfig::default());
        eng.add_replica("r1", NetConfig::calm(43)).unwrap();
        let (msgs, _) = ship_of(1);
        let mut gram = msgs[0].encode();
        let cut = gram.len() + 20;
        gram.extend(msgs[1].encode());
        gram.truncate(cut);
        eng.links[0].down.send(Nanos::ZERO, gram);
        eng.links[0].down.send(Nanos::ZERO, msgs[2].encode());
        eng.pump();
        assert_eq!(eng.link_metrics("r1").unwrap().malformed, 1);
        let rec = &eng.replica("r1").unwrap().ships[&1];
        assert!(rec.session.is_some() && rec.trailer.is_some() && rec.ahead.is_empty());
    }

    /// What a replica buffers of ships it cannot apply yet is bounded in
    /// bytes, whatever the header claims and wherever the frames point.
    #[test]
    fn lying_frame_count_and_junk_frames_stay_inside_the_budget() {
        let mut node = ReplicaNode::format("r1", 1);
        let (msgs, _) = ship_of(1);
        let Msg::Begin { mut header, .. } = msgs[0].clone() else {
            unreachable!()
        };
        header.frame_count = 1 << 40;
        assert!(node.handle(Msg::Begin { ship: 1, header }).is_empty());
        let junk = |seq: u64| {
            Frame::Sub(msnap_snap::SubPageFrame {
                seq,
                page: seq,
                page_digest: 0,
                runs: vec![(0, PAGE_SIZE as u16)],
                method: 0,
                raw_len: PAGE_SIZE as u32,
                payload: vec![0xEE; PAGE_SIZE],
                checksum: seq,
            })
        };
        // Far more than the budget, never the frame the session waits
        // for, some at sequence numbers no allocation could reach; and a
        // second ship with no Begin at all.
        let seqs = [u64::MAX, 1 << 39]
            .into_iter()
            .chain(1..=600)
            .chain([1 << 40, 7]);
        for (ship, seq) in seqs.flat_map(|seq| [(1, seq), (2, seq)]) {
            node.handle(Msg::Frame {
                ship,
                frame: junk(seq),
            });
            let held: usize = node.ships.values().map(Reassembly::held).sum();
            assert!(held <= MAX_LAG_BYTES as usize, "{held} bytes at seq {seq}");
            let slots: usize = node.ships.values().map(|r| r.ahead.len()).sum();
            assert!(slots * SLOT_BYTES <= MAX_LAG_BYTES as usize);
        }
        assert!(
            node.ships[&1].ahead.len() > 100,
            "room is used, not refused"
        );
    }

    #[test]
    fn promote_unknown_replica_fails() {
        let eng = ReplEngine::new(ReplConfig::default());
        assert!(matches!(
            eng.promote("ghost"),
            Err(ReplError::UnknownReplica)
        ));
    }

    fn lossy_trace(seed: u64) -> String {
        let (mut ms, mut vt, space, r, object) = primary();
        let mut eng = ReplEngine::new(ReplConfig::default());
        eng.add_replica("r1", NetConfig::lossy(seed)).unwrap();
        for commit in 1..=6 {
            commit_noise(&mut ms, &mut vt, space, &r, commit, 4);
            eng.tick(&mut vt, &mut ms).unwrap();
        }
        eng.settle(&mut vt, &mut ms, Nanos::from_secs(30)).unwrap();
        let (down, up) = eng.link_net_stats("r1").unwrap();
        format!(
            "{:?}|{:?}|{:?}|{:?}|{}|{}",
            eng.link_metrics("r1").unwrap(),
            down,
            up,
            eng.link_meters("r1").unwrap().get("repl_ack_lag"),
            eng.replica("r1").unwrap().epoch(&object),
            vt.now(),
        )
    }

    #[test]
    fn identical_seeds_replay_identical_traces() {
        assert_eq!(lossy_trace(42), lossy_trace(42));
        assert_ne!(lossy_trace(42), lossy_trace(43));
    }

    /// The highest-numbered block whose media image equals `content` —
    /// the live copy under bump allocation (older COW copies of the
    /// same bytes sit at lower block numbers).
    fn live_block(disk: &Disk, content: &[u8]) -> u64 {
        let mut found = None;
        for b in 0..16384 {
            if disk.peek(b).is_some_and(|img| img == content) {
                found = Some(b);
            }
        }
        found.expect("live copy present on media")
    }

    #[test]
    fn replica_rot_heals_from_the_primary() {
        let (mut ms, mut vt, space, r, object) = primary();
        let mut eng = ReplEngine::new(ReplConfig::default());
        eng.add_replica("r1", NetConfig::calm(17)).unwrap();
        // Distinct fills so no retained snapshot holds a same-digest
        // copy — local self-heal is impossible and the rot can only be
        // repaired by the peer.
        for fill in 1..=3u8 {
            commit(&mut ms, &mut vt, space, &r, fill);
            assert!(eng.settle(&mut vt, &mut ms, Nanos::from_secs(5)).unwrap());
        }
        {
            let node = eng.replica_mut("r1").unwrap();
            let block = live_block(&node.disk, &[3u8; PAGE_SIZE]);
            node.disk.corrupt_bit(block, 100, 4);
        }
        // A full scrub pass on the replica detects and quarantines the
        // page but finds no clean local source.
        let mut guard = 0;
        while eng.replica("r1").unwrap().scrub_stats().passes == 0 {
            eng.replica_mut("r1").unwrap().scrub(64).unwrap();
            guard += 1;
            assert!(guard < 10_000, "scrub never completed a pass");
        }
        assert_eq!(
            eng.replica("r1").unwrap().store.unrepaired_pages().len(),
            1,
            "rot must be unrepairable locally"
        );
        // Ticks carry the RepairRequest up and the RepairResponse back.
        let mut healed = false;
        for _ in 0..64 {
            eng.tick(&mut vt, &mut ms).unwrap();
            vt.advance(Nanos::from_ms(10));
            if eng
                .replica("r1")
                .unwrap()
                .store
                .unrepaired_pages()
                .is_empty()
            {
                healed = true;
                break;
            }
        }
        assert!(healed, "peer repair must land");
        assert_replica_page(&mut eng, "r1", &object, 0, 3);
        let m = *eng.link_metrics("r1").unwrap();
        assert!(m.repair_requests >= 1, "{m:?}");
        let stats = eng.replica("r1").unwrap().scrub_stats();
        assert!(stats.corruptions_found >= 1, "{stats:?}");
    }

    #[test]
    fn primary_rot_heals_from_a_replica() {
        let (mut ms, mut vt, space, r, object) = primary();
        let mut eng = ReplEngine::new(ReplConfig::default());
        eng.add_replica("r1", NetConfig::calm(23)).unwrap();
        for fill in 1..=3u8 {
            commit(&mut ms, &mut vt, space, &r, fill);
            assert!(eng.settle(&mut vt, &mut ms, Nanos::from_secs(5)).unwrap());
        }
        {
            let (store, disk) = ms.replication_parts();
            let block = live_block(disk, &[3u8; PAGE_SIZE]);
            disk.corrupt_bit(block, 200, 2);
            let mut guard = 0;
            while store.scrub_stats().passes == 0 {
                store.scrub(&mut vt, disk, 64).unwrap();
                guard += 1;
                assert!(guard < 10_000, "scrub never completed a pass");
            }
            assert_eq!(store.unrepaired_pages().len(), 1);
        }
        let mut healed = false;
        for _ in 0..64 {
            eng.tick(&mut vt, &mut ms).unwrap();
            vt.advance(Nanos::from_ms(10));
            if ms.store().unrepaired_pages().is_empty() {
                healed = true;
                break;
            }
        }
        assert!(healed, "replica copy must heal the primary");
        let id = ms.store().lookup(&object).unwrap();
        let (store, disk) = ms.replication_parts();
        let mut out = vec![0u8; PAGE_SIZE];
        store.read_page(&mut vt, disk, id, 0, &mut out).unwrap();
        assert_eq!(out, vec![3u8; PAGE_SIZE]);
        let m = *eng.link_metrics("r1").unwrap();
        assert!(m.repairs_healed >= 1, "{m:?}");
        assert!(m.repair_requests >= 1, "{m:?}");
    }

    /// A page one link heals is forgotten by every link's pacer — here
    /// by the link that was partitioned while its peer healed it.
    #[test]
    fn a_healed_page_leaves_no_link_pacing_it() {
        let (mut ms, mut vt, space, r, _) = primary();
        let mut eng = ReplEngine::new(ReplConfig::default());
        eng.add_replica("r1", NetConfig::calm(23)).unwrap();
        eng.add_replica("r2", NetConfig::calm(24)).unwrap();
        for fill in 1..=3u8 {
            commit(&mut ms, &mut vt, space, &r, fill);
            assert!(eng.settle(&mut vt, &mut ms, Nanos::from_secs(5)).unwrap());
        }
        eng.set_partitioned("r2", true).unwrap();
        {
            let (store, disk) = ms.replication_parts();
            let block = live_block(disk, &[3u8; PAGE_SIZE]);
            disk.corrupt_bit(block, 200, 2);
            while store.scrub_stats().passes == 0 {
                store.scrub(&mut vt, disk, 64).unwrap();
            }
            assert_eq!(store.unrepaired_pages().len(), 1);
        }
        while !ms.store().unrepaired_pages().is_empty() {
            eng.tick(&mut vt, &mut ms).unwrap();
            vt.advance(Nanos::from_ms(10));
        }
        assert!(eng.link_metrics("r2").unwrap().repair_requests >= 1);
        eng.set_partitioned("r2", false).unwrap();
        eng.tick(&mut vt, &mut ms).unwrap();
        for link in &eng.links {
            assert!(link.repair_sent.is_empty(), "{}", link.name);
        }
    }

    #[test]
    fn a_rotted_page_that_is_rewritten_stops_asking_for_repair() {
        let (mut ms, mut vt, space, r, object) = primary();
        let mut eng = ReplEngine::new(ReplConfig::default());
        eng.add_replica("r1", NetConfig::calm(29)).unwrap();
        for fill in 1..=3u8 {
            commit(&mut ms, &mut vt, space, &r, fill);
            assert!(eng.settle(&mut vt, &mut ms, Nanos::from_secs(5)).unwrap());
        }
        {
            let (store, disk) = ms.replication_parts();
            let block = live_block(disk, &[3u8; PAGE_SIZE]);
            disk.corrupt_bit(block, 200, 2);
            while store.scrub_stats().passes == 0 {
                store.scrub(&mut vt, disk, 64).unwrap();
            }
            assert_eq!(store.unrepaired_pages().len(), 1);
        }
        // The page is rewritten before any peer copy lands, and the
        // commit ships: no copy anywhere carries the reported digest now.
        commit(&mut ms, &mut vt, space, &r, 4);
        assert!(eng.settle(&mut vt, &mut ms, Nanos::from_secs(5)).unwrap());
        let asked = eng.link_metrics("r1").unwrap().repair_requests;
        for _ in 0..8 {
            vt.advance(eng.config().retransmit_timeout);
            eng.tick(&mut vt, &mut ms).unwrap();
        }
        let m = *eng.link_metrics("r1").unwrap();
        assert_eq!(m.repair_requests, asked, "no request per timeout: {m:?}");
        assert!(ms.store().unrepaired_pages().is_empty());
        assert_replica_matches_primary(&mut eng, "r1", &mut ms, &mut vt, &object);
    }
}
