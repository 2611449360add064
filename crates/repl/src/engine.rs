//! The replication engine: primary-side shipping daemon and replica
//! state machines over simulated lossy links.
//!
//! See the [crate docs](crate) for the protocol and failover design.
//!
//! The receiver is `replica` and the sender `ship`; this module holds
//! what both ends share (the anchor rule, the repair exchange, the lag
//! `Estimator`), the links, the tick and its timers, and promotion.

mod replica;
mod ship;

pub use replica::ReplicaNode;

use std::collections::{BTreeMap, VecDeque};

use memsnap::{MemSnap, MsnapError};
use msnap_disk::{Disk, DiskConfig, BLOCK_SIZE};
use msnap_sim::{LinkStats, Meters, Nanos, NetConfig, SimLink, Vt};
use msnap_snap::{
    retained_at, ApplySession, DedupTable, DeltaStream, Frame, SnapError, StreamHeader,
    StreamTrailer,
};
use msnap_store::{
    digest32, shard_of_name, Epoch, ObjectId, ObjectStore, ScrubStats, SnapEntry, StoreError,
    VectorCut,
};

use ship::{hear, resend, send_ship, ObjShip};

use crate::proto::{
    ship_head_len, ship_msg, unpack, Msg, ObjectStatus, MAX_NAK_SEQS, TAG_BEGIN, TAG_END,
    TAG_FRAME, TAG_PROBE,
};

/// Tuning knobs of one [`ReplEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplConfig {
    /// Epoch lag (primary live epoch − replica durable epoch) beyond
    /// which a link counts as throttled: [`TickReport::throttled`] tells
    /// the ingest path to stall until replicas catch up.
    pub max_lag_epochs: u64,
}

impl Default for ReplConfig {
    fn default() -> Self {
        ReplConfig { max_lag_epochs: 8 }
    }
}

/// Unacknowledged wire bytes in flight per link beyond which the link
/// counts as throttled and no new ship starts — and the most a replica
/// buffers of ships it cannot apply yet.
const MAX_LAG_BYTES: u64 = 1 << 20;
/// Virtual time without an answer before the primary sends a ship's
/// tail-loss probe: the initial value and the ceiling of the per-link
/// probe timeout, which otherwise follows the link's measured
/// acknowledgement lag. Also paces the repair, cut and `Hello` re-sends
/// and the engine's settle step.
const RETRANSMIT_TIMEOUT: Nanos = Nanos::from_ms(20);
/// A down-link datagram carries one or more messages back to back, up to
/// this many bytes (an Ethernet MTU less its headers); a larger message
/// — a whole-page frame — travels alone.
const DATAGRAM_BUDGET: usize = 1400;
/// Epoch lag beyond which a lagging link's catch-up ships the full image
/// instead of a delta. Also spaces the **rejoin anchors**: a ship whose
/// span crosses a multiple of half this lag has its target epoch
/// retained as a snapshot on both ends, so retention stays bounded and a
/// rejoin diffs at most this many epochs. It is the depth of the
/// primary's recorded history, so a deeper lag could not ship from the
/// record anyway.
const DROP_BASE_LAG: u64 = memsnap::SUBPAGE_KEEP as u64;
/// Replication snapshots a replica keeps per object — the candidate
/// rebase bases a promoted replica can diff a rejoining old primary
/// from.
const KEEP_APPLIED: usize = 2;
/// Catalog-name prefix of a primary's pins for its anchor ships. It and
/// [`ANCHOR`] are replication's own: a name is the prefix, the object's
/// store id and the epoch ([`snap_name`]), the same for every engine and
/// every life of a store, and short enough for any object.
const PIN: &str = "rp-";
/// Catalog-name prefix of the anchors a replica retains.
const ANCHOR: &str = "rk-";
/// Epoch gap a promotion fence jumps, so a new primary's epochs stay
/// disjoint from the failed primary's unacknowledged history.
const FENCE_GAP: u64 = 16;
/// Ships a link stays lossy for after it last showed loss: the replica
/// acknowledges each twice, the primary keeps a window of them in flight
/// and sends their `End`s twice. Loss shows again long before (every few
/// ships on `repl-wan`); a slow `Ack` on a calm link costs this many.
const LOSS_MEMORY: u32 = 64;
/// Commits a ship behind ones in flight carries at least, unless the lag
/// stopped the committer: its `Begin` and `End` cost two one-line commits.
const WINDOW_SPAN: u64 = 3;

/// RFC 6298's smoothed mean and deviation of a stream of durations: a
/// link's acknowledgement lag at the primary (the retransmit timer),
/// how far a ship's pieces trail its `End` at the replica (the reorder
/// allowance).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Estimator {
    /// Zero until the first sample (samples are positive).
    mean: Nanos,
    dev: Nanos,
}

impl Estimator {
    fn sample(&mut self, s: Nanos) {
        if self.mean == Nanos::ZERO {
            (self.mean, self.dev) = (s, s / 2);
        } else {
            let err = self.mean.max(s) - self.mean.min(s);
            self.dev = (self.dev * 3 + err) / 4;
            self.mean = (self.mean * 7 + s) / 8;
        }
    }

    /// `mean + 4·dev`, a value few samples exceed; `None` unsampled.
    fn bound(&self) -> Option<Nanos> {
        (self.mean > Nanos::ZERO).then(|| self.mean + self.dev * 4)
    }

    /// RFC 9002's probe timeout over these samples, `mean + max(4·dev,
    /// GRANULARITY)`, at most `ceiling` (and `ceiling` unsampled). Its
    /// `max_ack_delay` term is zero: a replica acknowledges a ship the
    /// moment it lands.
    fn probe_timeout(&self, ceiling: Nanos) -> Nanos {
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
    /// Acknowledged ships.
    pub acks: u64,
    /// Payload frames sent more than once (named by a `Nak`, or carried
    /// by a tail-loss probe).
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
/// locally, each at most once per [`RETRANSMIT_TIMEOUT`] per (object,
/// page) so a slow peer is not flooded. `sent` holds when each last went
/// out and is pruned to the pages still unrepaired, however they healed.
fn repair_requests(
    store: &ObjectStore,
    sent: &mut BTreeMap<(String, u64), Nanos>,
    now: Nanos,
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
            .is_none_or(|&at| now.saturating_sub(at) > RETRANSMIT_TIMEOUT)
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

/// The catalog name of the replication snapshot of `object` at `epoch`
/// in the role `prefix` ([`PIN`] or [`ANCHOR`]).
fn snap_name(prefix: &str, object: ObjectId, epoch: Epoch) -> String {
    format!("{prefix}{}-{epoch}", object.0)
}

/// The catalog's replication snapshots, of either role and whichever
/// engine or life of the store made them: the one list of what
/// replication retains.
fn replication_snapshots(store: &ObjectStore) -> Vec<SnapEntry> {
    let mut catalog = store.snapshots();
    catalog.retain(|s| s.name.starts_with(PIN) || s.name.starts_with(ANCHOR));
    catalog
}

/// Every object of `store` by name and id. Ids, not epochs: a fence
/// moves an epoch inside the tick that lists them.
fn resolved_objects(store: &ObjectStore) -> Vec<(String, ObjectId)> {
    let names = store.object_names().into_iter();
    names
        .filter_map(|name| store.lookup(&name).map(|id| (name, id)))
        .collect()
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
    /// round trip, apply included, which times its tail-loss probes.
    rtt: Estimator,
    /// The loss memory ([`LOSS_MEMORY`] when the link last showed loss, less
    /// one a ship started): while above 0 a window of ships may start.
    window_ships: u32,
    meters: Meters,
    metrics: LinkMetrics,
}

/// The replication engine. Owns every replica node and both directions
/// of every link; borrows the primary per [`ReplEngine::tick`].
pub struct ReplEngine {
    cfg: ReplConfig,
    links: Vec<Link>,
    /// Per object, the epoch of this engine's first pin: a divergent
    /// link never rebases from here up, and what the catalog retains
    /// below it is inherited history (an earlier engine's, or this
    /// store's replica life).
    pins_from: BTreeMap<ObjectId, Epoch>,
    next_ship: u64,
    next_vtid: u32,
}

impl ReplEngine {
    /// Creates an engine with no replicas attached.
    pub fn new(cfg: ReplConfig) -> ReplEngine {
        ReplEngine {
            cfg,
            links: Vec::new(),
            pins_from: BTreeMap::new(),
            next_ship: 1,
            next_vtid: 1000,
        }
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
            window_ships: 0,
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

    /// The raw network counters of a link's `(down, up)` directions.
    pub fn link_net_stats(&self, name: &str) -> Option<(LinkStats, LinkStats)> {
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
        let objects = resolved_objects(ms.store());
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

    /// Lands what is in flight down the links while the primary's clock
    /// reads `now`, up to a held datagram a later send could still overtake
    /// ([`SimLink::releasable`]). `now` is also how far reorder allowances
    /// may run out once nothing more may land (before that, the next
    /// arrival's instant is). [`ReplEngine::pump`]'s `Nanos::MAX` lands all.
    fn pump_until(&mut self, now: Nanos) {
        for link in &mut self.links {
            let Some(node) = link.node.as_mut() else {
                continue;
            };
            let cut_before = node.cut.as_ref().map(|c| c.seq);
            loop {
                let next = link.down.releasable(now);
                for nak in node.overdue(next.unwrap_or(now)) {
                    link.up.send(node.vt.now(), nak.encode());
                }
                let Some((at, payload)) = next.and_then(|at| link.down.poll(at)) else {
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
            for msg in repair_requests(&node.store, &mut node.repair_sent, now) {
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
                                let os = ObjShip {
                                    remote: status.epoch,
                                    retained_remote: status.retained,
                                    divergent: true,
                                    ..ObjShip::default()
                                };
                                link.ships.insert(status.name, os);
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
                            // The replica lands an object's ships in order,
                            // so an Ack covers every older one in flight.
                            let at = os.inflight.iter().position(|s| s.id == ship);
                            let named = at.map(|at| (&os.inflight, at));
                            (link.rtt, link.window_ships, _) =
                                hear(link.rtt, link.window_ships, named, None, vt.now());
                            let acked = os.inflight.iter().take_while(|s| s.id <= ship).count();
                            for done in os.inflight.drain(..acked) {
                                let lag = vt.now().saturating_sub(done.created_at);
                                link.meters.record("repl_ack_lag", lag);
                                let header = &done.stream.header;
                                if header.target_epoch == os.remote {
                                    os.remote_len = Some(header.len_pages);
                                }
                                if let Some(name) = done.anchor {
                                    os.base = Some((name, header.target_epoch));
                                }
                                os.divergent = false;
                                // The receiver applied the ship, so it
                                // inserted the same payload images — the
                                // ship's staged entries are now shared.
                                os.dedup.commit();
                                link.metrics.acks += 1;
                                report.acks += 1;
                            }
                        }
                        Msg::Nak {
                            ship,
                            begin,
                            missing,
                        } => {
                            let held = !begin && missing.is_empty();
                            let found = link.ships.values_mut().find_map(|os| {
                                let at = os.inflight.iter().position(|s| s.id == ship)?;
                                Some((&mut os.inflight, at))
                            });
                            let named = found.as_ref().map(|(ships, at)| (&**ships, *at));
                            let exposed;
                            (link.rtt, link.window_ships, exposed) =
                                hear(link.rtt, link.window_ships, named, Some(held), vt.now());
                            let Some((ships, at)) = found else {
                                continue;
                            };
                            for (older, exposed) in ships.iter_mut().zip(exposed) {
                                older.exposed |= exposed;
                            }
                            if held {
                                ships[at].held = true;
                            } else {
                                ships[at].wanted = Some((begin, missing));
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
        objects: &[(String, ObjectId)],
        report: &mut TickReport,
    ) -> Result<(), ReplError> {
        for (object, id) in objects {
            let live = ms.store().epoch(*id);
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

    /// Answers the repair requests `drain_up` queued, from the primary's
    /// verified copies, lands the responses, and asks every heard link for
    /// the primary's own unrepairable pages (the crate docs' *self-healing
    /// repair*: the same exchange on either end).
    fn repair(&mut self, vt: &mut Vt, ms: &mut MemSnap) {
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
            for msg in repair_requests(ms.store(), &mut link.repair_sent, now) {
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
        for link in &mut self.links {
            if !link.known {
                continue;
            }
            let due = link.last_cut_sent.is_none_or(|(seq, at)| {
                seq != cut.seq || now.saturating_sub(at) >= RETRANSMIT_TIMEOUT
            });
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
            if !link.known && now.saturating_sub(link.last_hello) > RETRANSMIT_TIMEOUT {
                if let Some(node) = link.node.as_mut() {
                    link.up.send(node.vt.now(), node.hello().encode());
                }
                link.last_hello = now;
            }
            let pto = link.rtt.probe_timeout(RETRANSMIT_TIMEOUT);
            for os in link.ships.values_mut() {
                let sends;
                (sends, link.window_ships) = resend(&os.inflight, now, pto, link.window_ships);
                for (at, (begin, seqs, probe, spare)) in sends {
                    let ship = &mut os.inflight[at];
                    link.metrics.retransmit_frames +=
                        send_ship(&mut link.down, now, ship, begin, seqs, probe, spare);
                    (ship.last_send, ship.exposed, ship.wanted) = (now, false, None);
                }
            }
        }
    }

    fn refresh_lag(
        &mut self,
        ms: &MemSnap,
        objects: &[(String, ObjectId)],
        report: &mut TickReport,
    ) {
        let mut caught_up = true;
        for link in &mut self.links {
            if !link.known {
                caught_up = false;
                continue;
            }
            let (mut lag_epochs, mut lag_bytes) = (0u64, 0u64);
            for (object, id) in objects {
                let live = ms.store().epoch(*id);
                let (remote, inflight) = link.ships.get(object).map_or((0, 0), |os| {
                    (os.remote, os.inflight.iter().map(|s| s.wire_bytes).sum())
                });
                lag_epochs = lag_epochs.max(live.saturating_sub(remote));
                lag_bytes += inflight;
            }
            link.metrics.lag_epochs = lag_epochs;
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
        let step = RETRANSMIT_TIMEOUT / 2;
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
    use std::collections::BTreeSet;

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
    /// ship that carries it is `pages` + 1 datagrams.
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
        let cfg = ReplConfig { max_lag_epochs: 1 };
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

    /// The names of the primary's pins.
    fn engine_pins(ms: &MemSnap) -> Vec<String> {
        let catalog = ms.store().snapshots().into_iter();
        catalog
            .filter(|s| s.name.starts_with(PIN))
            .map(|s| s.name)
            .collect()
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
        let mut seen = BTreeSet::new();
        for i in 0..200u64 {
            commit(&mut ms, &mut vt, space, &r, 1 + (i % 250) as u8);
            assert!(settle_seeing(&mut eng, &mut vt, &mut ms, &mut seen));
            // No more than the per-commit scheme held: a base and an
            // in-flight target per (link, object), region and manifest.
            assert!(engine_pins(&ms).len() <= 2 * 2 * 2, "commit {i}");
        }
        let per_link_object = 200u64.div_ceil(DROP_BASE_LAG / 2) + 1;
        assert!(
            seen.len() as u64 <= 2 * 2 * per_link_object,
            "{} snapshots pinned for 200 commits",
            seen.len()
        );
        for name in ["r1", "r2"] {
            let m = *eng.link_metrics(name).unwrap();
            assert_eq!(m.full_syncs, 2, "bootstrap only: {m:?}");
            assert_eq!(m.recorded_syncs, m.delta_syncs, "{m:?}");
            assert_replica_matches_primary(&mut eng, name, &mut ms, &mut vt, &object);
        }
    }

    /// [`ReplEngine::settle`], reading the catalog after every tick into
    /// `seen`: a pin lives at least until the next tick's GC, so `seen`
    /// ends holding every pin the engine made.
    fn settle_seeing(
        eng: &mut ReplEngine,
        vt: &mut Vt,
        ms: &mut MemSnap,
        seen: &mut BTreeSet<String>,
    ) -> bool {
        for _ in 0..500 {
            let report = eng.tick(vt, ms).unwrap();
            seen.extend(engine_pins(ms));
            if report.caught_up {
                return true;
            }
            vt.advance(RETRANSMIT_TIMEOUT / 2);
        }
        false
    }

    /// Takes every replica's device out of an engine, as a restart of
    /// the process around it leaves them.
    fn devices(eng: ReplEngine) -> Vec<(String, Disk)> {
        let links = eng.links.into_iter();
        links.map(|l| (l.name, l.node.unwrap().disk)).collect()
    }

    /// Reopens the region "data" of a restored primary.
    fn reopen(vt: &mut Vt, disk: Disk) -> (MemSnap, AsId, RegionHandle) {
        let mut ms = MemSnap::restore(vt, disk).unwrap();
        let space = ms.vm_mut().create_space();
        let r = ms.msnap_open(vt, space, "data", 16).unwrap();
        (ms, space, r)
    }

    /// A primary that loses power comes back with a fresh engine, which
    /// finds the pins the last one left in the catalog: every tick
    /// succeeds, and the re-attached replica rebases from their common
    /// anchor instead of taking a full image.
    #[test]
    fn restored_primary_and_reattached_replica_converge_by_delta() {
        let (mut ms, mut vt, space, r, object) = primary();
        let mut eng = ReplEngine::new(ReplConfig::default());
        eng.add_replica("r1", NetConfig::calm(51)).unwrap();
        for fill in 1..=3u8 {
            commit(&mut ms, &mut vt, space, &r, fill);
            assert!(eng.settle(&mut vt, &mut ms, Nanos::from_secs(5)).unwrap());
        }
        let disk = ms.crash(vt.now());
        let (mut ms, space, r) = reopen(&mut vt, disk);
        let mut eng2 = ReplEngine::new(ReplConfig::default());
        for (name, disk) in devices(eng) {
            eng2.attach_replica(&name, NetConfig::calm(52), disk)
                .unwrap();
        }
        for fill in 4..=6u8 {
            commit(&mut ms, &mut vt, space, &r, fill);
            assert!(eng2.settle(&mut vt, &mut ms, Nanos::from_secs(5)).unwrap());
        }
        let m = *eng2.link_metrics("r1").unwrap();
        assert_eq!(m.full_syncs, 0, "{m:?}");
        assert_replica_matches_primary(&mut eng2, "r1", &mut ms, &mut vt, &object);
    }

    /// Fail-back, P1 → standby → P1: the first primary's store comes
    /// back to the primary role holding the snapshots of both earlier
    /// lives, and its standby, the second reign's primary, converges by
    /// delta.
    #[test]
    fn fail_back_converges_the_third_reigns_standby_by_delta() {
        let (mut ms, mut vt, mut space, mut r, object) = primary();
        let mut eng = ReplEngine::new(ReplConfig::default());
        eng.add_replica("s", NetConfig::calm(61)).unwrap();
        let mut fill = 0u8;
        for reign in 0..3 {
            for _ in 0..3 {
                fill += 1;
                commit(&mut ms, &mut vt, space, &r, fill);
                assert!(eng.settle(&mut vt, &mut ms, Nanos::from_secs(5)).unwrap());
            }
            if reign == 2 {
                break;
            }
            let standby = if reign == 0 { "s" } else { "p1" };
            let promo = eng.promote(standby).unwrap();
            let old = ms.crash(vt.now());
            vt = promo.vt;
            (ms, space, r) = reopen(&mut vt, promo.disk);
            eng = ReplEngine::new(ReplConfig::default());
            let rejoin = if reign == 0 { "p1" } else { "s" };
            eng.attach_replica(rejoin, NetConfig::calm(62 + reign), old)
                .unwrap();
        }
        let m = *eng.link_metrics("s").unwrap();
        assert_eq!(m.full_syncs, 0, "{m:?}");
        assert!(m.delta_syncs >= 1, "{m:?}");
        assert_replica_matches_primary(&mut eng, "s", &mut ms, &mut vt, &object);
    }

    /// The catalog bounds what replication keeps whatever the history:
    /// over twelve engine restarts (every other one a power failure of
    /// the primary) with both replicas re-attached and commits after
    /// each, the primary holds at most an anchor and an in-flight anchor
    /// per (link, object), and each replica [`KEEP_APPLIED`] per object.
    #[test]
    fn restarts_and_reattaches_stay_within_the_catalog_bound() {
        let (mut ms, mut vt, mut space, mut r, _) = primary();
        let mut replicas: Vec<(String, Disk)> = Vec::new();
        for round in 0..12u64 {
            let mut eng = ReplEngine::new(ReplConfig::default());
            if round == 0 {
                eng.add_replica("r1", NetConfig::calm(71)).unwrap();
                eng.add_replica("r2", NetConfig::calm(72)).unwrap();
            }
            for (name, disk) in std::mem::take(&mut replicas) {
                let net = NetConfig::calm(73 + round);
                eng.attach_replica(&name, net, disk).unwrap();
            }
            for i in 0..12u64 {
                commit(&mut ms, &mut vt, space, &r, 1 + (round * 12 + i) as u8);
                assert!(eng.settle(&mut vt, &mut ms, Nanos::from_secs(5)).unwrap());
            }
            let objects = ms.store().object_names().len();
            let held = replication_snapshots(ms.store()).len();
            let bound = 2 * eng.links.len() * objects;
            assert!(held <= bound, "round {round}: primary {held}");
            for link in &eng.links {
                let store = &link.node.as_ref().unwrap().store;
                let held = replication_snapshots(store).len();
                assert!(held <= KEEP_APPLIED * objects, "round {round}: {held}");
                let full = link.metrics.full_syncs;
                assert_eq!(full, if round == 0 { 2 } else { 0 }, "round {round}");
            }
            replicas = devices(eng);
            if round % 2 == 1 {
                let disk = ms.crash(vt.now());
                (ms, space, r) = reopen(&mut vt, disk);
            }
        }
    }

    /// Anchor names fit every object: a replica retains the anchors of
    /// an object whose name fills the whole name field, so the old
    /// primary's rejoin after a promotion diffs from one.
    #[test]
    fn anchors_of_a_full_length_object_name_are_retained() {
        let mut ms = MemSnap::format(Disk::new(DiskConfig::paper()));
        let mut vt = Vt::new(0);
        let space = ms.vm_mut().create_space();
        let object = "n".repeat(88);
        let r = ms.msnap_open(&mut vt, space, &object, 16).unwrap();
        let mut eng = ReplEngine::new(ReplConfig::default());
        eng.add_replica("r1", NetConfig::calm(81)).unwrap();
        for fill in 1..=3u8 {
            commit(&mut ms, &mut vt, space, &r, fill);
            assert!(eng.settle(&mut vt, &mut ms, Nanos::from_secs(5)).unwrap());
        }
        let store = &eng.replica("r1").unwrap().store;
        let id = store.lookup(&object).unwrap();
        let anchors = replication_snapshots(store);
        assert!(anchors.iter().any(|s| s.object == id), "{anchors:?}");

        let promo = eng.promote("r1").unwrap();
        let mut vt2 = promo.vt;
        let mut ms2 = MemSnap::restore(&mut vt2, promo.disk).unwrap();
        let mut eng2 = ReplEngine::new(ReplConfig::default());
        let old = ms.crash(vt.now());
        eng2.attach_replica("old", NetConfig::calm(82), old)
            .unwrap();
        assert!(eng2
            .settle(&mut vt2, &mut ms2, Nanos::from_secs(10))
            .unwrap());
        let m = *eng2.link_metrics("old").unwrap();
        assert_eq!(m.full_syncs, 0, "{m:?}");
        assert_replica_matches_primary(&mut eng2, "old", &mut ms2, &mut vt2, &object);
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
        vt.advance(RETRANSMIT_TIMEOUT);
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
    /// of whole-page frames lost in turn — the first (its `Begin` and
    /// `End`), each frame, then the `Ack` — the link converges having
    /// resent that datagram's messages, the `End` (its datagram twice: the
    /// `Nak` showed loss) and at most one tail-loss probe (a bare `End`:
    /// no whole-page frame fits its datagram), never the ship.
    #[test]
    fn one_lost_datagram_is_resent_alone() {
        for n in [1u64, 3, 8] {
            for victim in 0..n + 2 {
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
                let objects = resolved_objects(ms.store());
                let mut report = TickReport::default();
                eng.drain_up(&mut vt, &mut report);
                eng.ship(&mut vt, &mut ms, &objects, &mut report).unwrap();
                assert_eq!(report.ships_started, 1);
                let ship = &eng.links[0].ships[&object].inflight[0];
                let end = (ship_head_len(ship.id) + ship.stream.trailer.encoded_len()) as u64;
                assert_eq!(end, 20, "tag, ship, kind, count, two words");
                let lost = if victim <= n {
                    lose(&mut eng.links[0].down, vt.now(), victim as usize)
                } else {
                    Vec::new()
                };
                eng.pump_until(vt.now());
                if victim == n + 1 {
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
                // worth and the End, then the spare of the datagram with
                // the End (all of it when it fits one datagram, else the
                // End), an End probe and a cut re-announce (shorter than
                // an End).
                let resent = eng.links[0].down.stats().bytes_sent - resent_from;
                let resend = lost.len() as u64 + end;
                let spare = if resend <= DATAGRAM_BUDGET as u64 {
                    resend
                } else {
                    end
                };
                assert!(
                    resent <= resend + spare + 2 * end,
                    "{n}/{victim}: resent {resent} bytes for a lost {}",
                    lost.len()
                );
            }
        }
    }

    /// A packed one-datagram ship, then its `Ack`, lost in turn on a
    /// jitter-free calm link: the timer fires once, one probe timeout
    /// (the learned lag and a millisecond) after the send, and its
    /// tail-loss probe — the whole ship again, one datagram — lands it
    /// (or is acknowledged anew) with no `Nak` round after it.
    #[test]
    fn lost_packed_ship_or_its_ack_costs_one_probe() {
        for lose_ack in [false, true] {
            let (mut ms, mut vt, space, r, object, mut eng) = learned_link();

            let shipped = commit(&mut ms, &mut vt, space, &r, 2);
            let objects = resolved_objects(ms.store());
            let mut report = TickReport::default();
            let before = *eng.links[0].down.stats();
            eng.drain_up(&mut vt, &mut report);
            eng.ship(&mut vt, &mut ms, &objects, &mut report).unwrap();
            let (sent, sent_at) = (*eng.links[0].down.stats(), vt.now());
            assert_eq!(sent.sent - before.sent, 1, "a packed ship: one datagram");
            let ship = &eng.links[0].ships[&object].inflight[0];
            let end = (ship_head_len(ship.id) + ship.stream.trailer.encoded_len()) as u64;
            let gram = sent.bytes_sent - before.bytes_sent;
            if lose_ack {
                eng.pump_until(vt.now());
                assert_eq!(eng.replica("r1").unwrap().epoch(&object), shipped);
                let ack = lose(&mut eng.links[0].up, vt.now(), 0);
                assert!(matches!(Msg::decode(&ack), Ok((Msg::Ack { .. }, _))));
            } else {
                lose(&mut eng.links[0].down, vt.now(), 0);
            }
            let pto = eng.links[0].rtt.probe_timeout(RETRANSMIT_TIMEOUT);
            assert!(pto < Nanos::from_ms(2), "learned, not the ceiling: {pto:?}");
            let (resends, done) = run_until_caught_up(&mut eng, &mut vt, &mut ms, &object);
            assert_eq!(
                resends, 1,
                "one timer fire, no Nak round: lose_ack {lose_ack}"
            );
            // One probe timeout, one round trip, two tick steps of slack.
            let round = eng.links[0].rtt.mean;
            let took = done - sent_at;
            assert!(took <= pto + round + Nanos::from_us(200), "took {took:?}");
            assert_replica_matches_primary(&mut eng, "r1", &mut ms, &mut vt, &object);
            assert_eq!(
                eng.link_metrics("r1").unwrap().acks,
                3,
                "lose_ack {lose_ack}"
            );
            let after = *eng.links[0].down.stats();
            assert_eq!(
                after.sent - sent.sent,
                1,
                "the probe alone: lose_ack {lose_ack}"
            );
            let resent = after.bytes_sent - sent.bytes_sent;
            assert!(
                resent <= gram + end,
                "lose_ack {lose_ack}: resent {resent} bytes for a lost {gram}"
            );
        }
    }

    /// Ticks in 100 µs steps until caught up, so the timer learns the
    /// link's own lag; returns how often the in-flight ship was resent
    /// (by the timer or a Nak) and when the link caught up.
    fn run_until_caught_up(
        eng: &mut ReplEngine,
        vt: &mut Vt,
        ms: &mut MemSnap,
        object: &str,
    ) -> (usize, Nanos) {
        let last_send = |eng: &ReplEngine| {
            let os = eng.links[0].ships.get(object)?;
            os.inflight.back().map(|s| s.last_send)
        };
        let mut resends = 0;
        for _ in 0..1000 {
            vt.advance(Nanos::from_us(100));
            let was = last_send(eng);
            let report = eng.tick(vt, ms).unwrap();
            resends += usize::from(last_send(eng).is_some_and(|at| Some(at) != was));
            if report.caught_up {
                return (resends, vt.now());
            }
        }
        panic!("not caught up")
    }

    /// A primary and one replica over a jitter-free calm link, caught up
    /// on a first commit in 100 µs ticks: the timer knows the link's lag.
    fn learned_link() -> (MemSnap, Vt, AsId, RegionHandle, String, ReplEngine) {
        let (mut ms, mut vt, space, r, object) = primary();
        let mut eng = ReplEngine::new(ReplConfig::default());
        let exact = NetConfig {
            jitter: Nanos::ZERO,
            ..NetConfig::calm(7)
        };
        eng.add_replica("r1", exact).unwrap();
        commit(&mut ms, &mut vt, space, &r, 1);
        run_until_caught_up(&mut eng, &mut vt, &mut ms, &object);
        (ms, vt, space, r, object, eng)
    }

    /// Commits a page of `fill` and sends its ship, one packed datagram,
    /// by hand; returns when it went.
    fn ship_one(
        eng: &mut ReplEngine,
        vt: &mut Vt,
        ms: &mut MemSnap,
        space: AsId,
        r: &RegionHandle,
        fill: u8,
    ) -> Nanos {
        commit(ms, vt, space, r, fill);
        let objects = resolved_objects(ms.store());
        let mut report = TickReport::default();
        eng.drain_up(vt, &mut report);
        eng.ship(vt, ms, &objects, &mut report).unwrap();
        assert_eq!(report.ships_started, 1);
        vt.now()
    }

    /// Replaces a caught-up link's down direction by a loss-free WAN link
    /// (no jitter) that holds back the first datagram sent on it and not
    /// the second; returns that link's config.
    fn hold_the_next_datagram(eng: &mut ReplEngine) -> NetConfig {
        let wan = |seed| NetConfig {
            jitter: Nanos::ZERO,
            drop_rate: 0.0,
            ..NetConfig::lossy(seed)
        };
        let holds = |seed| {
            let mut link = SimLink::new(wan(seed));
            let mut held_so_far = || {
                link.send(Nanos::ZERO, vec![0]);
                link.stats().reordered
            };
            (held_so_far(), held_so_far()) == (1, 1)
        };
        let cfg = wan((0..).find(|&seed| holds(seed)).expect("some seed"));
        assert_eq!(eng.links[0].down.next_delivery(), None, "nothing in flight");
        eng.links[0].down = SimLink::new(cfg);
        cfg
    }

    /// A datagram the link holds back waits for the primary's clock, not
    /// the replica's. Ship A's one datagram is held on a WAN link; ship B
    /// of another object, sent a millisecond later, lands when it arrives,
    /// not behind A. A is handed over once nothing the primary sends can
    /// overtake it, and each ship is acknowledged once.
    #[test]
    fn a_held_datagram_does_not_delay_the_ships_sent_after_it() {
        let (mut ms, mut vt, space, a, data, mut eng) = learned_link();
        let b = ms.msnap_open(&mut vt, space, "side", 16).unwrap();
        let side = ms.region_object_name(b.md).unwrap().to_string();
        commit(&mut ms, &mut vt, space, &b, 1);
        assert!(eng.settle(&mut vt, &mut ms, Nanos::from_secs(5)).unwrap());
        let wan = hold_the_next_datagram(&mut eng);
        let (before, acks_before) = (
            eng.replica("r1").unwrap().epoch(&data),
            eng.links[0].up.stats().sent,
        );

        ship_one(&mut eng, &mut vt, &mut ms, space, &a, 2);
        let a_at = eng.links[0].down.next_delivery().unwrap();
        eng.pump_until(vt.now());
        assert_eq!(eng.links[0].down.stats().delivered, 0, "A waits in flight");

        vt.advance(Nanos::from_ms(1));
        let b_epoch = commit(&mut ms, &mut vt, space, &b, 2);
        let objects = resolved_objects(ms.store());
        eng.ship(&mut vt, &mut ms, &objects, &mut TickReport::default())
            .unwrap();
        let b_at = eng.links[0].down.next_delivery().unwrap();
        assert!(b_at + Nanos::from_ms(2) < a_at, "B arrives well before A");
        eng.pump_until(vt.now());
        let node = eng.replica("r1").unwrap();
        assert_eq!(node.epoch(&side), b_epoch, "B landed");
        assert_eq!(node.epoch(&data), before, "A still in flight");
        assert!(
            node.now() < b_at + Nanos::from_ms(1),
            "B landed at {:?}, arrived at {b_at:?}",
            node.now()
        );

        // A goes once the primary's clock is a latency short of its arrival.
        vt.wait_until(a_at - wan.latency - Nanos::from_ns(1));
        eng.pump_until(vt.now());
        assert_eq!(eng.replica("r1").unwrap().epoch(&data), before);
        vt.advance(Nanos::from_ns(1));
        eng.pump_until(vt.now());
        let node = eng.replica("r1").unwrap();
        assert_eq!(node.epoch(&data), before + 1, "A landed");
        assert!(node.now() >= a_at);

        assert_eq!(eng.links[0].up.stats().sent - acks_before, 2);
        let up = reorder(&mut eng.links[0].up, vt.now(), &[]);
        let acked: Vec<String> = up
            .iter()
            .flatten()
            .map(|m| match m {
                Msg::Ack { object, .. } => object.clone(),
                m => panic!("only Acks go up: {m:?}"),
            })
            .collect();
        assert_eq!(acked, [side, data], "B, then A, once each");
    }

    /// A held datagram is still in flight when the primary dies: the
    /// promotion's pump hands it over, and the promoted replica stands at
    /// the epoch it carried.
    #[test]
    fn a_promotion_lands_a_held_datagram_first() {
        let (mut ms, mut vt, space, r, object, mut eng) = learned_link();
        hold_the_next_datagram(&mut eng);
        ship_one(&mut eng, &mut vt, &mut ms, space, &r, 2);
        let shipped = ms.store().epoch(ms.store().lookup(&object).unwrap());
        eng.pump_until(vt.now());
        assert!(eng.replica("r1").unwrap().epoch(&object) < shipped);
        let promo = eng.promote("r1").unwrap();
        assert_eq!(promo.epochs[&object], shipped + FENCE_GAP);
    }

    /// Once the replica has seen loss, a lost `Ack` costs nothing: its
    /// twin lands the ship at the primary one round trip after the send.
    /// The timer never fires, and nothing is resent.
    #[test]
    fn doubled_ack_survives_a_lost_first_ack_without_a_probe() {
        let (mut ms, mut vt, space, r, object, mut eng) = learned_link();
        eng.links[0].node.as_mut().unwrap().double_acks = LOSS_MEMORY;
        let acks_before = eng.links[0].up.stats().sent;
        let sent_at = ship_one(&mut eng, &mut vt, &mut ms, space, &r, 2);
        eng.pump_until(vt.now());
        assert_eq!(
            eng.links[0].up.stats().sent - acks_before,
            2,
            "the Ack, twice"
        );
        let ack = lose(&mut eng.links[0].up, vt.now(), 0);
        assert!(matches!(Msg::decode(&ack), Ok((Msg::Ack { .. }, _))));
        let pto = eng.links[0].rtt.probe_timeout(RETRANSMIT_TIMEOUT);
        let (resends, done) = run_until_caught_up(&mut eng, &mut vt, &mut ms, &object);
        assert_eq!(resends, 0, "the timer never fired");
        assert_eq!(eng.link_metrics("r1").unwrap().retransmit_frames, 0);
        let round = eng.links[0].rtt.mean;
        assert!(
            done - sent_at <= round + Nanos::from_us(200),
            "took {:?}",
            done - sent_at
        );
        assert!(
            round + Nanos::from_us(200) < pto,
            "a probe would have been later"
        );
        assert_replica_matches_primary(&mut eng, "r1", &mut ms, &mut vt, &object);
    }

    /// Takes every datagram in flight on a link out of it and sends back
    /// the ones `keep` names, in its order; returns them all as messages.
    fn reorder(link: &mut SimLink, now: Nanos, keep: &[usize]) -> Vec<Vec<Msg>> {
        let mut grams = Vec::new();
        while let Some((_, gram)) = link.poll(Nanos::MAX) {
            grams.push(gram);
        }
        keep.iter().for_each(|&i| link.send(now, grams[i].clone()));
        let mut malformed = 0;
        let msgs = grams.iter().map(|g| unpack(g, &mut malformed).collect());
        msgs.collect()
    }

    /// Ships k and k+1 of a page of noise each, in flight together on a
    /// learned link that has shown loss; each with the epoch it lands.
    fn two_ships_in_flight() -> (MemSnap, Vt, String, ReplEngine, [(u64, Epoch); 2]) {
        let (mut ms, mut vt, space, r, object, mut eng) = learned_link();
        eng.links[0].window_ships = LOSS_MEMORY;
        let mut report = TickReport::default();
        let mut ship = |ms: &mut MemSnap, vt: &mut Vt, eng: &mut ReplEngine| {
            eng.drain_up(vt, &mut report);
            eng.ship(vt, ms, &resolved_objects(ms.store()), &mut report)
                .unwrap();
        };
        let k_epoch = commit_noise(&mut ms, &mut vt, space, &r, 1, 1);
        ship(&mut ms, &mut vt, &mut eng);
        for seed in 2..2 + WINDOW_SPAN {
            commit_noise(&mut ms, &mut vt, space, &r, seed, 1);
        }
        ship(&mut ms, &mut vt, &mut eng);
        assert_eq!(report.ships_started, 2, "k+1 starts behind k");
        let inflight = &eng.links[0].ships[&object].inflight;
        let ships = [
            (inflight[0].id, k_epoch),
            (
                inflight[1].id,
                ms.store().epoch(ms.store().lookup(&object).unwrap()),
            ),
        ];
        (ms, vt, object, eng, ships)
    }

    /// A window on a link that has shown loss: ship k+1 arrives whole
    /// before ship k, whose `Begin` and `End` are lost. The replica holds
    /// k+1 and says so, which exposes k; k's probe earns the `Nak` for its
    /// `Begin`, whose resend lands k and then k+1 — and no `Hello`. Every
    /// `Ack` for k is lost: k+1's retires both at the primary, and no
    /// probe goes out for k.
    #[test]
    fn a_later_ship_whole_first_waits_for_the_one_before_it() {
        let (mut ms, mut vt, object, mut eng, [(k, k_epoch), (k1, live)]) = two_ships_in_flight();
        let before = eng.replica("r1").unwrap().epoch(&object);

        // Datagrams: k's Begin and End, their spare and k's frame, then
        // k+1's. k+1 goes first; both copies of k's Begin and End are lost.
        let grams = reorder(&mut eng.links[0].down, vt.now(), &[3, 4, 5, 2]);
        assert_eq!(grams[0], grams[1], "the spare");
        let ends_k = |m: &Msg| matches!(m, Msg::End { ship, .. } if *ship == k);
        assert!(
            matches!(&grams[0][..], [Msg::Begin { ship, .. }, end] if *ship == k && ends_k(end))
        );
        eng.pump_until(vt.now());
        assert_eq!(
            eng.replica("r1").unwrap().epoch(&object),
            before,
            "k+1 held"
        );
        let up = reorder(&mut eng.links[0].up, vt.now(), &[0]);
        let held = |m: &Msg| match m {
            Msg::Nak {
                ship,
                begin,
                missing,
            } => *ship == k1 && !begin && missing.is_empty(),
            _ => false,
        };
        assert!(
            matches!(&up[..], [m] if matches!(&m[..], [n] if held(n))),
            "{up:?}"
        );

        // The report exposes k: its probe earns the Nak for its Begin,
        // whose resend lands k, then k+1, with no re-plan.
        for _ in 0..100 {
            if eng.replica("r1").unwrap().epoch(&object) == live {
                break;
            }
            vt.advance(Nanos::from_us(100));
            let report = eng.tick(&mut vt, &mut ms).unwrap();
            assert_eq!(report.ships_started, 0, "no Hello, no re-plan");
        }
        let replies = reorder(&mut eng.links[0].up, vt.now(), &[]);
        let flat: Vec<&Msg> = replies.iter().flatten().collect();
        assert!(
            !flat.iter().any(|m| matches!(m, Msg::Hello { .. })),
            "{flat:?}"
        );
        assert_eq!(eng.replica("r1").unwrap().state(), ReplicaState::Streaming);
        let acks: Vec<(u64, Epoch)> = flat
            .iter()
            .filter_map(|m| match m {
                Msg::Ack { ship, epoch, .. } => Some((*ship, *epoch)),
                _ => None,
            })
            .collect();
        let first = |ack| acks.iter().position(|&a| a == ack);
        assert_eq!(first((k, k_epoch)), Some(0), "k lands first: {acks:?}");
        assert!(first((k1, live)).is_some(), "then k+1: {acks:?}");
        assert_eq!(eng.replica("r1").unwrap().epoch(&object), live);

        // Every Ack for k is lost: k+1's retires both, with no probe.
        let sent = eng.links[0].down.stats().sent;
        let acks_before = eng.link_metrics("r1").unwrap().acks;
        for m in flat
            .iter()
            .filter(|m| !matches!(m, Msg::Ack { ship, .. } if *ship == k))
        {
            eng.links[0].up.send(vt.now(), m.encode());
        }
        let (resends, _) = run_until_caught_up(&mut eng, &mut vt, &mut ms, &object);
        assert_eq!(resends, 0);
        assert_eq!(eng.link_metrics("r1").unwrap().acks, acks_before + 2);
        assert_eq!(eng.links[0].down.stats().sent, sent, "no probe for k");
        assert_replica_matches_primary(&mut eng, "r1", &mut ms, &mut vt, &object);
    }

    /// A ship the replica reported held, then landed, with its `Ack`
    /// lost: once the ship before it is retired nothing is left for it
    /// to wait for, so the timer probes it, and the link catches up.
    #[test]
    fn a_held_ship_whose_ack_is_lost_is_probed_once_it_leads() {
        let (mut ms, mut vt, object, mut eng, [(k, _), (k1, _)]) = two_ships_in_flight();
        reorder(&mut eng.links[0].down, vt.now(), &[3, 4, 5, 0, 1, 2]);
        eng.pump_until(vt.now());
        let up = reorder(&mut eng.links[0].up, vt.now(), &[]);
        let mut kept = 0;
        for m in up.iter().flatten() {
            if !matches!(m, Msg::Ack { ship, .. } if *ship == k1) {
                eng.links[0].up.send(vt.now(), m.encode());
                kept += 1;
            }
        }
        // k+1's spare End showed the replica loss: k's Ack goes twice.
        assert_eq!(kept, 3, "k+1's report and k's Ack, twice: {up:?}");
        vt.advance(Nanos::from_ms(1));
        eng.tick(&mut vt, &mut ms).unwrap();
        let inflight = &eng.links[0].ships[&object].inflight;
        let left: Vec<(u64, bool)> = inflight.iter().map(|s| (s.id, s.held)).collect();
        assert_eq!((left, k < k1), (vec![(k1, true)], true), "k+1 alone, held");
        let (resends, _) = run_until_caught_up(&mut eng, &mut vt, &mut ms, &object);
        assert_eq!(resends, 1, "one probe");
        assert_replica_matches_primary(&mut eng, "r1", &mut ms, &mut vt, &object);
    }

    /// The doubling wears off: a node that saw loss two ships ago
    /// acknowledges the next two ships twice and the third once.
    #[test]
    fn doubled_acks_stop_once_the_link_stays_calm() {
        let (mut ms, mut vt, space, r, object, mut eng) = learned_link();
        eng.links[0].node.as_mut().unwrap().double_acks = 2;
        let mut acks = Vec::new();
        for fill in 2..5 {
            let before = eng.links[0].up.stats().sent;
            ship_one(&mut eng, &mut vt, &mut ms, space, &r, fill);
            run_until_caught_up(&mut eng, &mut vt, &mut ms, &object);
            acks.push(eng.links[0].up.stats().sent - before);
        }
        assert_eq!(acks, [2, 2, 1]);
    }

    /// Both `Ack`s of a doubled pair reach the primary, and the ship
    /// counts once: one acknowledgement, one lag sample, one timer
    /// sample.
    #[test]
    fn doubled_ack_counts_once() {
        let (mut ms, mut vt, space, r, object, mut eng) = learned_link();
        eng.links[0].node.as_mut().unwrap().double_acks = LOSS_MEMORY;
        let acks = eng.link_metrics("r1").unwrap().acks;
        let lags = |eng: &ReplEngine| {
            let meters = eng.link_meters("r1").unwrap();
            meters.get("repl_ack_lag").unwrap().count()
        };
        let (lags_before, mut rtt) = (lags(&eng), eng.links[0].rtt);
        let sent_at = ship_one(&mut eng, &mut vt, &mut ms, space, &r, 2);
        let up_before = eng.links[0].up.stats().delivered;
        let (_, done) = run_until_caught_up(&mut eng, &mut vt, &mut ms, &object);
        assert_eq!(
            eng.links[0].up.stats().delivered - up_before,
            2,
            "both Acks arrived"
        );
        assert_eq!(eng.link_metrics("r1").unwrap().acks, acks + 1);
        assert_eq!(lags(&eng), lags_before + 1);
        rtt.sample(done - sent_at);
        assert_eq!(eng.links[0].rtt, rtt, "one timer sample");
    }

    /// A `Nak`'s ask is recorded on its ship when heard and resent by the
    /// next pass that runs: a tick that hears it and then fails before its
    /// pass (as `tick` does when shipping returns an error, after
    /// `drain_up`) loses nothing, and the next tick resends the frame.
    #[test]
    fn a_naks_ask_survives_a_tick_that_fails_before_its_pass() {
        let (mut ms, mut vt, space, r, object, mut eng) = learned_link();
        commit_noise(&mut ms, &mut vt, space, &r, 1, 3);
        let objects = resolved_objects(ms.store());
        eng.drain_up(&mut vt, &mut TickReport::default());
        eng.ship(&mut vt, &mut ms, &objects, &mut TickReport::default())
            .unwrap();
        take_all(&mut eng.links[0].down);
        let (id, sent) = (
            eng.links[0].ships[&object].inflight[0].id,
            eng.links[0].down.stats().sent,
        );
        let nak = Msg::Nak {
            ship: id,
            begin: false,
            missing: vec![1],
        };
        eng.links[0].up.send(vt.now(), nak.encode());
        vt.advance(Nanos::from_ms(1));
        eng.drain_up(&mut vt, &mut TickReport::default());
        assert_eq!(eng.links[0].window_ships, LOSS_MEMORY, "a Nak shows loss");
        let ship = &eng.links[0].ships[&object].inflight[0];
        assert_eq!(ship.wanted, Some((false, vec![1])), "recorded, not sent");
        assert_eq!(eng.links[0].down.stats().sent, sent, "nothing resent yet");

        let before = eng.link_metrics("r1").unwrap().retransmit_frames;
        eng.tick(&mut vt, &mut ms).unwrap();
        assert_eq!(
            eng.link_metrics("r1").unwrap().retransmit_frames,
            before + 1
        );
        let os = &eng.links[0].ships[&object];
        assert!(os.inflight.iter().all(|s| s.wanted.is_none()), "sent once");
    }

    /// Takes every datagram in flight on a link out of it, in order.
    fn take_all(link: &mut SimLink) -> Vec<Vec<u8>> {
        std::iter::from_fn(|| link.poll(Nanos::MAX).map(|(_, gram)| gram)).collect()
    }

    /// Checks one send of a ship on a link that has shown loss: the
    /// datagram carrying the `End` (a probe or not, as `probe` says) goes
    /// twice, back to back and first, and every other datagram once.
    fn assert_end_twice(grams: &[Vec<u8>], probe: bool) {
        let mut malformed = 0;
        let msgs: Vec<Vec<Msg>> = grams
            .iter()
            .map(|g| unpack(g, &mut malformed).collect())
            .collect();
        assert_eq!(malformed, 0);
        let ends = |m: &Vec<Msg>| m.iter().filter(|m| matches!(m, Msg::End { .. })).count();
        let ends: Vec<usize> = msgs.iter().map(ends).collect();
        assert!(grams.len() >= 2 && grams[0] == grams[1], "{msgs:?}");
        assert_eq!(ends[..2], [1, 1], "{msgs:?}");
        assert!(ends[2..].iter().all(|&e| e == 0), "{msgs:?}");
        let end = msgs[0].iter().find(|m| matches!(m, Msg::End { .. }));
        assert!(matches!(end, Some(Msg::End { probe: p, .. }) if *p == probe));
    }

    /// On a link that has shown loss every send of a ship — the first,
    /// a `Nak`'s resend, the timer's probe — puts the datagram carrying
    /// its `End` on the link exactly twice; for a one-datagram ship that
    /// is the whole ship. The link still converges.
    #[test]
    fn a_lossy_link_sends_each_ships_end_datagram_twice() {
        let (mut ms, mut vt, space, r, object, mut eng) = learned_link();
        eng.links[0].window_ships = LOSS_MEMORY;
        // Three whole pages: the Begin and the End share a datagram, which
        // goes twice, and each frame travels alone.
        commit_noise(&mut ms, &mut vt, space, &r, 1, 3);
        let objects = resolved_objects(ms.store());
        let mut report = TickReport::default();
        eng.drain_up(&mut vt, &mut report);
        eng.ship(&mut vt, &mut ms, &objects, &mut report).unwrap();
        let grams = take_all(&mut eng.links[0].down);
        assert_eq!(grams.len(), 5);
        assert_end_twice(&grams, false);
        // A Nak's resend: the Begin and the End twice, then frame 1.
        let ship = &mut eng.links[0].ships.get_mut(&object).unwrap().inflight[0];
        ship.wanted = Some((true, vec![1]));
        eng.retransmit(&mut vt);
        let grams = take_all(&mut eng.links[0].down);
        assert_eq!(grams.len(), 3);
        assert_end_twice(&grams, false);
        // The timer's probe: no whole page fits its datagram, so a bare
        // probe End, twice.
        vt.advance(RETRANSMIT_TIMEOUT + Nanos::from_ms(1));
        eng.retransmit(&mut vt);
        let grams = take_all(&mut eng.links[0].down);
        assert_eq!(grams.len(), 2);
        assert_end_twice(&grams, true);
        run_until_caught_up(&mut eng, &mut vt, &mut ms, &object);
        assert_replica_matches_primary(&mut eng, "r1", &mut ms, &mut vt, &object);

        // A packed ship is one datagram: all of it goes twice.
        let sent = eng.links[0].down.stats().sent;
        eng.links[0].window_ships = LOSS_MEMORY;
        ship_one(&mut eng, &mut vt, &mut ms, space, &r, 2);
        assert_eq!(eng.links[0].down.stats().sent - sent, 2);
        let grams = take_all(&mut eng.links[0].down);
        assert_end_twice(&grams, false);
        let mut malformed = 0;
        let msgs: Vec<Msg> = unpack(&grams[0], &mut malformed).collect();
        assert!(matches!(
            msgs[..],
            [Msg::Begin { .. }, Msg::End { .. }, Msg::Frame { .. }]
        ));
    }

    /// Fed the same datagram twice — a one-datagram ship and its spare —
    /// a replica lands the ship once with one `Ack`. A further `End` of the
    /// landed ship earns nothing, unless it is a probe: that earns the
    /// `Ack` again (twice, as the duplicates showed loss).
    #[test]
    fn a_duplicate_datagram_lands_once_and_only_a_probe_is_answered_again() {
        let (msgs, epoch) = ship_of(1);
        let gram: Vec<u8> = msgs.iter().flat_map(Msg::encode).collect();
        let mut node = ReplicaNode::format("r1", 1);
        let mut malformed = 0;
        let mut deliver = |node: &mut ReplicaNode| -> Vec<Msg> {
            let got: Vec<Msg> = unpack(&gram, &mut malformed).collect();
            got.into_iter().flat_map(|m| node.handle(m)).collect()
        };
        assert_eq!(deliver(&mut node), [ack_of(epoch)]);
        assert!(deliver(&mut node).is_empty(), "the spare lands nothing");
        assert_eq!(node.epoch("db"), epoch);
        assert!(node.ships.is_empty());
        assert!(node.handle(msgs[2].clone()).is_empty());
        let Msg::End { ship, trailer, .. } = msgs[2].clone() else {
            unreachable!("ship_of ends with the End")
        };
        let probe = Msg::End {
            ship,
            probe: true,
            trailer,
        };
        assert_eq!(node.handle(probe), [ack_of(epoch), ack_of(epoch)]);
        assert_eq!(malformed, 0);
    }

    /// A calm link never shows loss: 200 ships of 1–4 pages over a
    /// jittering calm link send one `Ack` each and no spare `End`, and
    /// both directions carry exactly the bytes they carried before
    /// loss-gated redundancy existed, in the compact wire's encoding.
    #[test]
    fn calm_link_sends_one_ack_a_ship() {
        let (mut ms, mut vt, space, r, _) = primary();
        let mut eng = ReplEngine::new(ReplConfig::default());
        eng.add_replica("r1", NetConfig::calm(41)).unwrap();
        for i in 0..200 {
            commit_noise(&mut ms, &mut vt, space, &r, i, 1 + i % 4);
            assert!(eng.settle(&mut vt, &mut ms, Nanos::from_secs(5)).unwrap());
        }
        assert_eq!(eng.replica("r1").unwrap().double_acks, 0);
        let m = *eng.link_metrics("r1").unwrap();
        let (down, up) = eng.link_net_stats("r1").unwrap();
        assert_eq!(m.retransmit_frames, 0);
        assert_eq!(up.sent, 1 + m.acks, "the Hello, then one Ack a ship");
        // Both directions exactly as a link without the loss gate sends
        // them, on this seed and schedule: a ship's pieces and a cut
        // announce down, the Hello and an `Ack` of 8 to 10 bytes a ship up.
        // Down, a ship's Begin and End share its first datagram with the
        // small frames, so a whole page alone adds a datagram.
        assert_eq!((down.sent, down.bytes_sent), (802, 2_072_291));
        assert_eq!((up.sent, up.bytes_sent, m.acks), (202, 1_769, 201));
    }

    /// A lossy link's whole run, pinned the way a calm one is above: 160
    /// commits half a millisecond apart, a page of noise or of one byte in
    /// turn, over a lossy WAN link, then settled. Both directions'
    /// datagrams and bytes, the frames resent, the `Ack`s and the lag
    /// samples are exactly these, and the run took each resend path: a
    /// window of ships in flight, a `Nak` asking for pieces, a whole ship
    /// the replica held behind the one before it, and ships started with
    /// a spare `End` on a link that had shown loss.
    #[test]
    fn lossy_link_traffic_is_pinned() {
        let (mut ms, mut vt, space, r, _) = primary();
        let mut eng = ReplEngine::new(ReplConfig::default());
        eng.add_replica("r1", NetConfig::lossy(42)).unwrap();
        let (mut window, mut asked, mut spared) = (0, 0, 0);
        let mut held = BTreeSet::new();
        for i in 0..160u64 {
            if i % 2 == 0 {
                commit_noise(&mut ms, &mut vt, space, &r, i, 1);
            } else {
                commit(&mut ms, &mut vt, space, &r, i as u8);
            }
            vt.advance(Nanos::from_us(500));
            // Hear the replica first, so the asks this tick resends are
            // in view; the tick then finds nothing more to hear.
            eng.drain_up(&mut vt, &mut TickReport::default());
            let link = &eng.links[0];
            let inflight = link.ships.values().flat_map(|os| &os.inflight);
            window = window.max(inflight.clone().count());
            asked += inflight.filter(|s| s.wanted.is_some()).count();
            let lossy = link.window_ships > 0;
            let report = eng.tick(&mut vt, &mut ms).unwrap();
            spared += if lossy { report.ships_started } else { 0 };
            let node = eng.replica("r1").unwrap();
            for (&id, rec) in &node.ships {
                let ahead = rec.header.as_ref().is_some_and(|h| {
                    h.base_epoch
                        .is_some_and(|base| base > node.epoch(&h.object))
                });
                let whole = rec.trailer.is_some_and(|(t, _)| {
                    let slot = |seq| rec.frames.get(seq as usize).is_some_and(Option::is_some);
                    (0..t.frames).all(slot)
                });
                if ahead && whole {
                    held.insert(id);
                }
            }
        }
        assert!(eng.settle(&mut vt, &mut ms, Nanos::from_secs(30)).unwrap());
        let m = *eng.link_metrics("r1").unwrap();
        let (down, up) = eng.link_net_stats("r1").unwrap();
        let lags = eng.link_meters("r1").unwrap().get("repl_ack_lag");
        assert!(window >= 2, "a window of ships in flight");
        assert!(asked > 0, "a Nak asked for pieces");
        assert!(!held.is_empty(), "the replica held a whole ship");
        assert!(spared > 0, "ships started with a spare End");
        assert_eq!((down.sent, down.bytes_sent), (409, 322_428));
        assert_eq!((up.sent, up.bytes_sent), (461, 3_231));
        assert_eq!((m.retransmit_frames, m.acks), (27, 113));
        assert_eq!(lags.map(|l| l.count()), Some(113));
    }

    /// A second `End` for a ship still missing a piece keeps the `Nak`
    /// deadline the first armed, and a probe `End` still earns the `Nak`
    /// at once.
    #[test]
    fn repeated_end_keeps_the_armed_nak_deadline() {
        let (msgs, epoch) = ship_of(3);
        let mut node = ReplicaNode::format("r1", 1);
        node.reorder.sample(Nanos::from_us(100));
        let bound = node.reorder.bound().unwrap();
        for msg in [&msgs[0], &msgs[1], &msgs[3]] {
            assert!(node.handle(msg.clone()).is_empty());
        }
        let armed = node.vt.now();
        assert!(
            node.handle(msgs[4].clone()).is_empty(),
            "frame 1 is missing"
        );
        node.vt.advance(bound / 2);
        assert!(node.handle(msgs[4].clone()).is_empty());
        assert_eq!(node.double_acks, LOSS_MEMORY, "an End it already holds");
        assert!(
            node.overdue(armed + bound - Nanos::from_ns(1)).is_empty(),
            "not yet"
        );
        let naks = node.overdue(armed + bound);
        assert!(
            matches!(&naks[..], [Msg::Nak { missing, .. }] if missing[..] == [1]),
            "due at the first End's deadline, not postponed: {naks:?}"
        );
        // The Nak is spent; a probe asks again at once.
        let Msg::End { trailer, .. } = msgs[4].clone() else {
            unreachable!("ship_of ends with the End")
        };
        node.vt.advance(bound / 4);
        let probe = Msg::End {
            ship: 1,
            probe: true,
            trailer,
        };
        assert!(node.handle(probe).is_empty());
        let naks = node.overdue(node.vt.now());
        assert!(
            matches!(&naks[..], [Msg::Nak { missing, .. }] if missing[..] == [1]),
            "{naks:?}"
        );
        assert_eq!(node.handle(msgs[2].clone()), [ack_of(epoch), ack_of(epoch)]);
    }

    /// The probe timeout is RFC 9002's: the mean lag plus four deviations
    /// or one millisecond, whichever is more, under the ceiling.
    #[test]
    fn probe_timeout_is_mean_plus_four_deviations_or_a_millisecond() {
        let ceiling = Nanos::from_ms(20);
        let mut steady = Estimator::default();
        assert_eq!(steady.probe_timeout(ceiling), ceiling, "unsampled");
        for _ in 0..64 {
            steady.sample(Nanos::from_us(300));
        }
        assert_eq!(steady.probe_timeout(ceiling), Nanos::from_us(1300));

        let mut spread = Estimator::default();
        for i in 0..64 {
            spread.sample(Nanos::from_ms(if i % 2 == 0 { 2 } else { 6 }));
        }
        let bound = spread.bound().unwrap();
        assert!(bound > spread.mean + Nanos::from_ms(1), "{spread:?}");
        assert_eq!(spread.probe_timeout(ceiling), bound);
        assert_eq!(spread.probe_timeout(Nanos::from_ms(3)), Nanos::from_ms(3));
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
        assert!(rec.session.is_some() && rec.trailer.is_some() && rec.frames.is_empty());
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
            let slots: usize = node.ships.values().map(|r| r.frames.len()).sum();
            assert!(slots * SLOT_BYTES <= MAX_LAG_BYTES as usize);
        }
        assert!(
            node.ships[&1].frames.len() > 100,
            "room is used, not refused"
        );
    }

    /// The `Ack` a replica owes for landing ship 1 of object "db".
    fn ack_of(epoch: Epoch) -> Msg {
        let object = "db".to_string();
        Msg::Ack {
            ship: 1,
            object,
            epoch,
        }
    }

    /// The frames a ship has delivered in order are its own, not the
    /// budget's: a full image past [`MAX_LAG_BYTES`] sent in order lands.
    #[test]
    fn in_order_ship_larger_than_the_budget_lands_with_one_ack() {
        let (msgs, epoch) = ship_of(300);
        let bytes: usize = msgs.iter().map(|m| m.encode().len()).sum();
        assert!(bytes > MAX_LAG_BYTES as usize, "{bytes} bytes");
        let mut node = ReplicaNode::format("r1", 1);
        let replies: Vec<Msg> = msgs.into_iter().flat_map(|m| node.handle(m)).collect();
        assert_eq!(replies, [ack_of(epoch)]);
        let mut got = vec![0u8; PAGE_SIZE];
        node.read_page("db", 299, &mut got).unwrap();
        assert_eq!(got, noise_page(299));
    }

    /// A frame the replica already holds in order changes nothing when it
    /// comes again: no reply, not one byte more held.
    #[test]
    fn duplicate_of_an_in_order_frame_is_ignored() {
        let (msgs, epoch) = ship_of(3);
        let mut node = ReplicaNode::format("r1", 1);
        for msg in &msgs[..3] {
            assert!(node.handle(msg.clone()).is_empty());
        }
        let held = node.ships[&1].held();
        for msg in &msgs[1..3] {
            assert!(node.handle(msg.clone()).is_empty());
            assert_eq!(node.ships[&1].held(), held);
        }
        let replies: Vec<Msg> = msgs[3..]
            .iter()
            .flat_map(|m| node.handle(m.clone()))
            .collect();
        assert_eq!(replies, [ack_of(epoch)]);
    }

    /// A frame damaged in flight is a hole: the next `Nak` names it
    /// first, and the ship lands once the good frame arrives.
    #[test]
    fn torn_frame_is_the_first_hole_the_nak_names() {
        let (msgs, epoch) = ship_of(3);
        let torn = torn(&msgs[2]);
        let mut node = ReplicaNode::format("r1", 1);
        for msg in [&msgs[0], &msgs[1], &torn, &msgs[3], &msgs[4]] {
            assert!(node.handle(msg.clone()).is_empty());
        }
        let Msg::End { trailer, .. } = msgs[4].clone() else {
            unreachable!("ship_of ends with the End")
        };
        let probe = Msg::End {
            ship: 1,
            probe: true,
            trailer,
        };
        assert!(node.handle(probe).is_empty());
        let naks = node.overdue(Nanos::MAX);
        assert!(
            matches!(&naks[..], [Msg::Nak { missing, .. }] if missing[..] == [1]),
            "{naks:?}"
        );
        // The node answered a probe: its link has shown loss, so the
        // Ack goes up twice.
        assert_eq!(node.handle(msgs[2].clone()), [ack_of(epoch), ack_of(epoch)]);
        let mut got = vec![0u8; PAGE_SIZE];
        node.read_page("db", 1, &mut got).unwrap();
        assert_eq!(got, noise_page(1));
    }

    /// `frame` with one payload bit flipped, as a link that tears bytes
    /// would deliver it.
    fn torn(frame: &Msg) -> Msg {
        let mut torn = frame.clone();
        let Msg::Frame {
            frame: Frame::Sub(sf),
            ..
        } = &mut torn
        else {
            unreachable!("ship_of ships payload frames")
        };
        sf.payload[7] ^= 1;
        torn
    }

    /// A torn frame early in an in-order ship larger than the budget
    /// leaves the rest of the ship past the prefix, over the budget; the
    /// good frame still fills the hole and the ship lands.
    #[test]
    fn torn_frame_of_a_ship_larger_than_the_budget_is_refilled() {
        let (mut msgs, epoch) = ship_of(300);
        let good = msgs[2].clone();
        msgs[2] = torn(&good);
        let mut node = ReplicaNode::format("r1", 1);
        for msg in msgs {
            assert!(node.handle(msg).is_empty());
        }
        assert!(node.ships[&1].held() > MAX_LAG_BYTES as usize);
        assert_eq!(node.handle(good), [ack_of(epoch)]);
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
            vt.advance(RETRANSMIT_TIMEOUT);
            eng.tick(&mut vt, &mut ms).unwrap();
        }
        let m = *eng.link_metrics("r1").unwrap();
        assert_eq!(m.repair_requests, asked, "no request per timeout: {m:?}");
        assert!(ms.store().unrepaired_pages().is_empty());
        assert_replica_matches_primary(&mut eng, "r1", &mut ms, &mut vt, &object);
    }
}
