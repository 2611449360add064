//! The serving node: a deterministic actor-style front-end that
//! multiplexes many simulated client connections onto one (optionally
//! replicated) MemSnap instance.
//!
//! One [`ServeNode::step`] call runs one round of four logical actors,
//! in a fixed order so every run is a pure function of the seeds:
//!
//! 1. **control** — drains the client [`SimSwitch`], decodes frames,
//!    answers `Hello`/`Subscribe`/`Unsubscribe`/`StatsReq`/`NotifyAck`
//!    immediately, and queues `Put`s and reads for the later actors;
//! 2. **write** — groups the round's `Put`s per tenant stripe, writes
//!    the slots through the VM, and joins one group commit per touched
//!    stripe ([`MemSnap::msnap_persist_grouped`]), so a round's writes
//!    to a stripe cost one μCheckpoint;
//! 3. **notify** — for each stripe that committed and is watched,
//!    turns the commit's own dirty-line record
//!    ([`MemSnap::subpage_extents`]: page → changed 64-byte lines,
//!    O(changed), no device IO, never a store scan) into key-range
//!    invalidation events buffered per session. An interval the record
//!    chain cannot prove covered (a fence, repair or restore committed
//!    out of band) yields one conservative whole-stripe event instead;
//! 4. **read** — serves `Get`/`Scan`, routing `Get`s to a replica when
//!    one is within the session's staleness budget (primary fallback
//!    otherwise).
//!
//! Buffered invalidation events are **released only at epoch-vector
//! cut boundaries** ([`MemSnap::msnap_cut`]): each session receives one
//! `Notify` bundle per cut carrying *all* of its events up to that cut,
//! across every watched tenant and every store shard. A bundle is thus
//! cut-aligned by construction — a subscriber can never observe shard A
//! at cut N and shard B at N−1. Bundles are chained (`prev_seq`),
//! retransmitted until acknowledged, and deduplicated by the client on
//! `cut_seq`, giving exactly-once delivery per cut over a lossy link.
//!
//! Writes are acknowledged (`PutOk`) only once every attached replica
//! has applied the write's epoch (when replication is configured), so
//! an acknowledged write survives any single-node failover by
//! construction.
//!
//! Each actor is a further `impl ServeNode` in a child module —
//! `control`, `write` (write, notify, cut and the replication round) and
//! `read` — and this module holds the node's state, its constructors,
//! `step` and the key layout.

mod control;
mod read;
mod write;

use std::collections::{BTreeMap, VecDeque};

use memsnap::{Md, MemSnap, MsnapError, RegionSel, PAGE_SIZE};
use msnap_disk::{Disk, DiskConfig};
use msnap_repl::{Promotion, ReplConfig, ReplEngine};
use msnap_sim::{Nanos, NetConfig, SimLink, SimSwitch, Vt, VthreadId};
use msnap_store::lines::{line_runs, LINE_SIZE};
use msnap_vm::AsId;

use crate::wire::{self, ErrCode, NotifyEvent, Request, Response, WireStats, MAX_VALUE_BYTES};

/// Bytes per value slot: a 2-byte header (`present`, `len`) plus up to
/// [`MAX_VALUE_BYTES`] of value.
pub const SLOT_BYTES: u64 = 64;

/// Key slots per 4 KiB page.
pub const SLOTS_PER_PAGE: u64 = PAGE_SIZE as u64 / SLOT_BYTES;

/// Configuration of a [`ServeNode`].
///
/// # Snapshot catalog budget
///
/// Each store shard's snapshot catalog holds ~31 entries, all of them
/// the replication engine's rejoin anchors; watches pin nothing and a
/// steady-state ship pins nothing. An anchor is pinned when a link's
/// ship of an object is a full image, a rebase, or crosses a multiple
/// of 32 epochs (half `msnap-repl`'s `DROP_BASE_LAG`), and replaces the
/// link's previous one — at most one per attached replica × object,
/// shared when the replicas acknowledge the same epoch. On the sharded
/// primary these spread across `shards` catalogs, but a **promoted
/// replica is single-shard** and inherits the anchors it retained as a
/// replica (two per object, `msnap-repl`'s `KEEP_APPLIED`) until its
/// re-attached peers catch up: after failover up to
/// `replicas × (tenants × stripes + 1)` anchors must fit in one catalog.
/// Size failover topologies so that budget holds (e.g. fewer `stripes`
/// or tenants).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Store shards of the primary device (tenant stripes hash across
    /// them; a promoted replica's store is single-shard regardless).
    pub shards: usize,
    /// Stripe objects per tenant. A tenant's keyspace is striped
    /// page-contiguously across this many store objects, so one tenant
    /// spans several shards and its watch streams exercise cross-shard
    /// cut alignment.
    pub stripes: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 8,
            stripes: 4,
        }
    }
}

impl ServeConfig {
    /// Keys per tenant under this configuration.
    pub fn capacity(&self) -> u64 {
        self.stripes * PAGES_PER_STRIPE * SLOTS_PER_PAGE
    }
}

/// Pages per stripe; tenant capacity is
/// `stripes * PAGES_PER_STRIPE *` [`SLOTS_PER_PAGE`] keys.
const PAGES_PER_STRIPE: u64 = 4;
/// An epoch-vector cut is stamped (and notify bundles released) every
/// this many rounds once a commit is waiting for one.
const CUT_EVERY: u32 = 2;
/// An unacknowledged `Notify` bundle is retransmitted after this long.
const NOTIFY_RETRANSMIT: Nanos = Nanos::from_ms(5);

/// Typed serving-layer failures (distinct from per-request [`ErrCode`]s,
/// which travel back to clients).
#[derive(Debug)]
#[non_exhaustive]
pub enum ServeError {
    /// The underlying MemSnap instance failed.
    Msnap(MsnapError),
    /// The replication engine failed.
    Repl(msnap_repl::ReplError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Msnap(e) => write!(f, "memsnap: {e}"),
            ServeError::Repl(e) => write!(f, "replication: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<MsnapError> for ServeError {
    fn from(e: MsnapError) -> Self {
        ServeError::Msnap(e)
    }
}

impl From<msnap_repl::ReplError> for ServeError {
    fn from(e: msnap_repl::ReplError) -> Self {
        ServeError::Repl(e)
    }
}

/// One stripe of a tenant: a MemSnap region plus its notify cursor.
struct Stripe {
    md: Md,
    addr: u64,
    /// Store-directory name (`t/<tenant>/<idx>`).
    obj: String,
    /// Epoch the stripe's watchers have been notified up to: the next
    /// event covers `(notified, committed]`. Set by every `Subscribe`,
    /// so it is only meaningful while the tenant is watched.
    notified: u64,
}

struct Tenant {
    stripes: Vec<Stripe>,
    /// Live watches on this tenant (watch ids into `watches`).
    watchers: Vec<u64>,
}

struct Watch {
    session: u64,
    tenant: String,
    lo: u64,
    hi: u64,
}

/// An unacknowledged notify bundle, kept for retransmission.
struct UnackedBundle {
    resp: Response,
    last_sent: Nanos,
}

struct Session {
    port: usize,
    staleness: u64,
    /// Response cache for duplicate-request suppression, pruned to the
    /// most recent [`REPLY_CACHE`] request ids.
    replies: BTreeMap<u64, Response>,
    /// Requests accepted but not yet answered (puts awaiting
    /// replication): duplicates of these are dropped, not re-executed.
    inflight: Vec<u64>,
    /// Events accumulated since the last cut release.
    pending_events: Vec<NotifyEvent>,
    /// Sequence of the last bundle released to this session (the next
    /// bundle's `prev_seq`).
    last_seq: u64,
    /// Released-but-unacknowledged bundles by cut sequence.
    unacked: BTreeMap<u64, UnackedBundle>,
}

const REPLY_CACHE: usize = 64;

/// Group-commit coalescing window the node runs the MemSnap core with:
/// a round's stripe commits enqueued within it share their lane's batch
/// (the round force-flushes whatever is still open).
const COALESCE_WINDOW: Nanos = Nanos::from_us(16);

/// A `Put` accepted and committed, awaiting replica acknowledgement
/// before its `PutOk` is released.
struct PendingPut {
    session: u64,
    req: u64,
    obj: String,
    epoch: u64,
}

/// A queued client operation, decoded and bound to its session.
enum QueuedOp {
    Put {
        session: u64,
        req: u64,
        tenant: String,
        key: u64,
        value: Vec<u8>,
    },
    Get {
        session: u64,
        req: u64,
        tenant: String,
        key: u64,
    },
    Scan {
        session: u64,
        req: u64,
        tenant: String,
        lo: u64,
        hi: u64,
    },
}

/// The serving node. See the module docs for the actor structure.
pub struct ServeNode {
    cfg: ServeConfig,
    vt: Vt,
    thread: VthreadId,
    ms: MemSnap,
    space: AsId,
    repl: Option<ReplEngine>,
    replica_names: Vec<String>,
    /// Replica round-robin cursor for read routing.
    read_cursor: usize,
    /// Client→server fan-in.
    uplink: SimSwitch,
    /// Server→client links, one per port.
    downlinks: Vec<SimLink>,
    sessions: BTreeMap<u64, Session>,
    next_session: u64,
    tenants: BTreeMap<String, Tenant>,
    watches: BTreeMap<u64, Watch>,
    next_watch: u64,
    /// Write mailbox: puts persist across rounds so a replication
    /// throttle stalls ingest instead of dropping it.
    write_mailbox: VecDeque<QueuedOp>,
    read_queue: Vec<QueuedOp>,
    pending_puts: Vec<PendingPut>,
    /// Per-port response frames accumulated this round.
    outbox: BTreeMap<usize, Vec<u8>>,
    throttled: bool,
    rounds: u64,
    rounds_since_cut: u32,
    commits_since_cut: u64,
    stats: WireStats,
    /// Datagrams rejected by the wire decoder.
    pub malformed: u64,
    /// Reads a replica failed to serve and the primary absorbed.
    pub replica_fallbacks: u64,
    /// Watch events widened to the whole stripe because the commit's
    /// dirty-line chain could not prove the notified interval covered.
    pub conservative_notifies: u64,
}

impl ServeNode {
    /// Formats a fresh sharded primary and opens `client_ports`
    /// connection slots whose per-port link seeds derive from
    /// `client_net.seed`.
    pub fn format(cfg: ServeConfig, client_ports: usize, client_net: NetConfig) -> ServeNode {
        let mut ms = MemSnap::format_sharded(Disk::new(DiskConfig::paper()), cfg.shards);
        ms.set_coalesce_window(COALESCE_WINDOW);
        let mut vt = Vt::new(0);
        let thread = vt.id();
        vt.advance(Nanos::from_ns(1));
        let space = ms.vm_mut().create_space();
        ServeNode::assemble(cfg, ms, vt, thread, space, None, client_ports, client_net)
    }

    /// Attaches a replica to this node's replication engine (created on
    /// first use). Replica link seeds should differ per replica.
    ///
    /// # Errors
    ///
    /// [`msnap_repl::ReplError::DuplicateReplica`] for a reused name.
    pub fn add_replica(&mut self, name: &str, net: NetConfig) -> Result<(), ServeError> {
        let engine = self
            .repl
            .get_or_insert_with(|| ReplEngine::new(ReplConfig::default()));
        engine.add_replica(name, net)?;
        self.replica_names.push(name.to_string());
        Ok(())
    }

    /// Re-attaches a replica from an existing device (a survivor after
    /// promotion, or a crashed old primary rejoining as a replica).
    ///
    /// # Errors
    ///
    /// As for [`ReplEngine::attach_replica`].
    pub fn attach_replica(
        &mut self,
        name: &str,
        net: NetConfig,
        disk: Disk,
    ) -> Result<(), ServeError> {
        let engine = self
            .repl
            .get_or_insert_with(|| ReplEngine::new(ReplConfig::default()));
        engine.attach_replica(name, net, disk)?;
        self.replica_names.push(name.to_string());
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn assemble(
        cfg: ServeConfig,
        ms: MemSnap,
        vt: Vt,
        thread: VthreadId,
        space: AsId,
        repl: Option<ReplEngine>,
        client_ports: usize,
        client_net: NetConfig,
    ) -> ServeNode {
        let uplink = SimSwitch::with_ports(client_net, client_ports);
        // The reverse direction gets its own seed family so up- and
        // down-link loss draws are independent.
        let down_base = NetConfig {
            seed: client_net.seed ^ 0xD00D_F00D,
            ..client_net
        };
        let downlinks = (0..client_ports)
            .map(|i| {
                SimLink::new(NetConfig {
                    seed: down_base
                        .seed
                        .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1)),
                    ..down_base
                })
            })
            .collect();
        ServeNode {
            cfg,
            vt,
            thread,
            ms,
            space,
            repl,
            replica_names: Vec::new(),
            read_cursor: 0,
            uplink,
            downlinks,
            sessions: BTreeMap::new(),
            next_session: 1,
            tenants: BTreeMap::new(),
            watches: BTreeMap::new(),
            next_watch: 1,
            write_mailbox: VecDeque::new(),
            read_queue: Vec::new(),
            pending_puts: Vec::new(),
            outbox: BTreeMap::new(),
            throttled: false,
            rounds: 0,
            rounds_since_cut: 0,
            commits_since_cut: 0,
            stats: WireStats::default(),
            malformed: 0,
            replica_fallbacks: 0,
            conservative_notifies: 0,
        }
    }

    /// Boots a new node from a promotion: restores the promoted
    /// replica's device, re-opens every tenant stripe from the region
    /// manifest, and optionally re-attaches surviving devices (and the
    /// crashed old primary) as replicas of the new reign.
    ///
    /// Sessions and watches do **not** survive — clients are re-homed
    /// by reconnecting (`Hello` + re-`Subscribe`), which is the
    /// client-visible part of failover. The promoted store is
    /// single-shard (replica devices always are), so post-failover cuts
    /// are one-element vectors; correctness is unchanged.
    ///
    /// # Errors
    ///
    /// [`ServeError::Msnap`] if the device does not restore, or
    /// [`ServeError::Repl`] if a re-attachment fails.
    pub fn from_promotion(
        promo: Promotion,
        cfg: ServeConfig,
        client_ports: usize,
        client_net: NetConfig,
        reattach: Vec<(String, NetConfig, Disk)>,
    ) -> Result<ServeNode, ServeError> {
        let mut vt = promo.vt;
        // `restore_promoted`: a freshly created stripe whose object
        // never finished its first ship is dropped (it holds no
        // replicated committed state); we recreate it empty below.
        let mut ms = MemSnap::restore_promoted(&mut vt, promo.disk).map_err(MsnapError::from)?;
        ms.set_coalesce_window(COALESCE_WINDOW);
        let thread = vt.id();
        let space = ms.vm_mut().create_space();
        let names = ms.region_names();
        let mut node =
            ServeNode::assemble(cfg, ms, vt, thread, space, None, client_ports, client_net);
        // Rebuild the tenant table from the shipped manifest: every
        // region named `t/<tenant>/<idx>` is a stripe. A tenant may be
        // partial — a stripe created just before the crash may never
        // have shipped — so collect what survived, then open every
        // tenant's full stripe set in index order, recreating missing
        // stripes empty (no write to them can have been acked).
        let mut shipped: BTreeMap<String, BTreeMap<u64, String>> = BTreeMap::new();
        for name in names {
            let mut parts = name.splitn(3, '/');
            let (Some("t"), Some(tenant), Some(idx)) = (parts.next(), parts.next(), parts.next())
            else {
                continue;
            };
            let Ok(idx) = idx.parse::<u64>() else {
                continue;
            };
            shipped
                .entry(tenant.to_string())
                .or_default()
                .insert(idx, name);
        }
        for (tenant, survived) in shipped {
            node.open_tenant(&tenant, |idx| survived.contains_key(&idx))?;
        }
        for (name, net, disk) in reattach {
            node.attach_replica(&name, net, disk)?;
        }
        Ok(node)
    }

    /// Crashes the node at its current instant: the primary device
    /// reverts to its durable contents, and the replication engine (if
    /// any) is handed back for promotion. Volatile state — sessions,
    /// watches, un-released notify buffers, unacknowledged puts — is
    /// lost, exactly as a real crash loses it.
    pub fn crash(self) -> (Nanos, Option<ReplEngine>, Disk) {
        let at = self.vt.now();
        (at, self.repl, self.ms.crash(at))
    }

    /// The node's current virtual instant.
    pub fn now(&self) -> Nanos {
        self.vt.now()
    }

    /// The newest stamped cut sequence (0 before the first cut).
    pub fn cut_seq(&self) -> u64 {
        self.ms.last_cut().map_or(0, |c| c.seq)
    }

    /// Server counters (also served to clients via `StatsReq`).
    pub fn stats(&self) -> WireStats {
        WireStats {
            sessions: self.sessions.len() as u64,
            watches: self.watches.len() as u64,
            ..self.stats
        }
    }

    /// Number of client ports.
    pub fn ports(&self) -> usize {
        self.downlinks.len()
    }

    /// Submits a client datagram on `port` (the client's uplink).
    pub fn client_send(&mut self, port: usize, now: Nanos, datagram: Vec<u8>) {
        self.uplink.send(port, now, datagram);
    }

    /// Delivers one due server→client datagram on `port`, with its
    /// delivery instant.
    pub fn client_poll(&mut self, port: usize, now: Nanos) -> Option<(Nanos, Vec<u8>)> {
        self.downlinks[port].poll(now)
    }

    /// Reads the current committed value of one key directly from the
    /// primary, bypassing the wire — a harness-side oracle hook (e.g.
    /// "no acked write was lost"), not part of the service surface.
    ///
    /// # Errors
    ///
    /// [`ServeError::Msnap`] on a VM read failure; `Ok(None)` for an
    /// unknown tenant, out-of-range key, or unset slot.
    pub fn peek(&mut self, tenant: &str, key: u64) -> Result<Option<Vec<u8>>, ServeError> {
        if key >= self.cfg.capacity() {
            return Ok(None);
        }
        let Some(t) = self.tenants.get(tenant) else {
            return Ok(None);
        };
        let stripes = self.cfg.stripes;
        let Some(s) = t.stripes.get(key_stripe(stripes, key) as usize) else {
            return Ok(None);
        };
        let va = s.addr + slot_offset(stripes, key);
        let mut buf = [0u8; SLOT_BYTES as usize];
        self.ms.read(&mut self.vt, self.space, va, &mut buf)?;
        Ok(decode_slot(&buf))
    }

    /// The global key range `[lo, hi)` of one stripe-local page.
    fn page_key_range(&self, stripe: u64, page: u64) -> (u64, u64) {
        key_page_range((page * self.cfg.stripes + stripe) * SLOTS_PER_PAGE)
    }

    /// Runs one actor round at (or after) instant `now`.
    ///
    /// # Errors
    ///
    /// Store/replication failures that are server-side bugs or device
    /// faults, never client-induced conditions (those travel back as
    /// [`Response::Err`]).
    pub fn step(&mut self, now: Nanos) -> Result<(), ServeError> {
        if self.vt.now() < now {
            self.vt.wait_until(now);
        }
        self.rounds += 1;
        // The node's only crash point is `crash(self)` at its own clock,
        // so rollback state for writes already durable is dead weight.
        self.ms.settle_until(self.vt.now());
        self.drain_clients();
        let committed = self.write_actor()?;
        self.notify_actor(&committed);
        self.read_actor()?;
        self.maybe_cut(!committed.is_empty())?;
        self.repl_round()?;
        self.retransmit_notifies();
        self.flush_outbox();
        Ok(())
    }
}

/// The stripe a key lives on under `stripes`-way page-contiguous
/// striping — the one key layout, which [`ServeNode`] stores by and
/// oracles check against. Global page `g = key / SLOTS_PER_PAGE` lands
/// on stripe `g % stripes` as its local page `g / stripes`, so one
/// changed page maps back to exactly one contiguous global key range:
/// what turns a dirty-page record into range events.
pub fn key_stripe(stripes: u64, key: u64) -> u64 {
    (key / SLOTS_PER_PAGE) % stripes
}

/// The global key range `[lo, hi)` sharing a page with `key` — the
/// invalidation granule a watcher sees when this key changes.
pub fn key_page_range(key: u64) -> (u64, u64) {
    let g = key / SLOTS_PER_PAGE;
    (g * SLOTS_PER_PAGE, (g + 1) * SLOTS_PER_PAGE)
}

/// Byte offset of `key`'s slot within its stripe object (see
/// [`key_stripe`] for the layout).
fn slot_offset(stripes: u64, key: u64) -> u64 {
    let page = key / SLOTS_PER_PAGE / stripes;
    page * PAGE_SIZE as u64 + key % SLOTS_PER_PAGE * SLOT_BYTES
}

/// Encodes a value into a 64-byte slot image.
fn encode_slot(slot: &mut [u8; SLOT_BYTES as usize], value: &[u8]) {
    slot.fill(0);
    slot[0] = 1;
    slot[1] = value.len() as u8;
    slot[2..2 + value.len()].copy_from_slice(value);
}

/// Decodes a 64-byte slot image (`None` for an unset slot).
fn decode_slot(slot: &[u8]) -> Option<Vec<u8>> {
    if slot.first() != Some(&1) {
        return None;
    }
    let len = (*slot.get(1)? as usize).min(MAX_VALUE_BYTES);
    slot.get(2..2 + len).map(<[u8]>::to_vec)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A wire-level client on one port.
    struct Client {
        port: usize,
        session: u64,
        next_req: u64,
    }

    /// A replica-less node.
    fn node(shards: usize, ports: usize) -> ServeNode {
        let cfg = ServeConfig {
            shards,
            ..ServeConfig::default()
        };
        ServeNode::format(cfg, ports, NetConfig::calm(11))
    }

    /// Steps the node until `port` has heard something.
    fn deliver(node: &mut ServeNode, now: &mut Nanos, port: usize) -> Vec<Response> {
        let mut got = Vec::new();
        for _ in 0..200 {
            *now += Nanos::from_us(100);
            node.step(*now).unwrap();
            while let Some((_, dg)) = node.client_poll(port, *now) {
                got.extend(wire::decode_responses(&dg).unwrap());
            }
            if !got.is_empty() {
                break;
            }
        }
        got
    }

    impl Client {
        fn hello(node: &mut ServeNode, now: &mut Nanos, port: usize) -> Client {
            node.client_send(
                port,
                *now,
                wire::encode_request(&Request::Hello { staleness: 0 }),
            );
            match deliver(node, now, port).first() {
                Some(Response::HelloOk {
                    session, capacity, ..
                }) => {
                    assert_eq!(*capacity, node.cfg.capacity());
                    Client {
                        port,
                        session: *session,
                        next_req: 1,
                    }
                }
                other => panic!("expected HelloOk, got {other:?}"),
            }
        }

        /// Sends one request (built from the session and a fresh request
        /// id) and returns everything the port hears in reply.
        fn call(
            &mut self,
            node: &mut ServeNode,
            now: &mut Nanos,
            build: impl FnOnce(u64, u64) -> Request,
        ) -> Vec<Response> {
            let req = self.next_req;
            self.next_req += 1;
            node.client_send(
                self.port,
                *now,
                wire::encode_request(&build(self.session, req)),
            );
            deliver(node, now, self.port)
        }

        fn subscribe(&mut self, node: &mut ServeNode, now: &mut Nanos, tenant: &str) -> Response {
            let hi = node.cfg.capacity();
            let tenant = tenant.to_string();
            self.call(node, now, |session, req| Request::Subscribe {
                session,
                req,
                tenant,
                lo: 0,
                hi,
            })
            .remove(0)
        }

        /// Puts one key and returns the events of the `Notify` bundle
        /// the put's cut releases to this port (empty if none arrives).
        fn put(
            &mut self,
            node: &mut ServeNode,
            now: &mut Nanos,
            tenant: &str,
            key: u64,
        ) -> Vec<NotifyEvent> {
            let tenant = tenant.to_string();
            let mut heard = self.call(node, now, |session, req| Request::Put {
                session,
                req,
                tenant,
                key,
                value: vec![key as u8],
            });
            // The Notify leaves with the cut, a round after the PutOk:
            // listen once more for the bundle.
            if !heard.iter().any(|r| matches!(r, Response::Notify { .. })) {
                heard.extend(deliver(node, now, self.port));
            }
            assert!(
                heard.iter().any(|r| matches!(r, Response::PutOk { .. })),
                "{heard:?}"
            );
            let mut events = Vec::new();
            for r in heard {
                if let Response::Notify {
                    cut_seq, events: e, ..
                } = r
                {
                    assert!(cut_seq >= 1 && cut_seq <= node.cut_seq(), "cut-aligned");
                    node.client_send(
                        self.port,
                        *now,
                        wire::encode_request(&Request::NotifyAck {
                            session: self.session,
                            cut_seq,
                        }),
                    );
                    events.extend(e);
                }
            }
            events
        }
    }

    /// Drives the node directly over the wire, no harness: a client on
    /// port 0 writes, reads back, subscribes, writes again, and
    /// receives a cut-aligned invalidation for exactly the written key.
    #[test]
    fn put_get_subscribe_notify_over_the_wire() {
        let mut node = node(8, 2);
        let mut now = Nanos::ZERO;
        let mut c = Client::hello(&mut node, &mut now, 0);

        assert!(c.put(&mut node, &mut now, "acme", 130).is_empty());
        let resps = c.call(&mut node, &mut now, |session, req| Request::Get {
            session,
            req,
            tenant: "acme".into(),
            key: 130,
        });
        let Some(Response::GetOk { value, .. }) = resps.first() else {
            panic!("{resps:?}");
        };
        assert_eq!(value.as_deref(), Some(&[130u8][..]));

        let sub = c.subscribe(&mut node, &mut now, "acme");
        assert!(matches!(sub, Response::SubOk { .. }), "{sub:?}");
        // Key 200 is slot 8 of global page 3; the commit's dirty-line
        // record narrows the invalidation to exactly that one key.
        let events = c.put(&mut node, &mut now, "acme", 200);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].ranges, vec![(200, 201)]);
    }

    /// A value over the slot decodes and is answered `ValueTooLarge`;
    /// it is not dropped as a malformed datagram the client would
    /// resend forever.
    #[test]
    fn oversized_put_is_answered_value_too_large() {
        let mut node = node(8, 1);
        let mut now = Nanos::ZERO;
        let mut c = Client::hello(&mut node, &mut now, 0);
        let resps = c.call(&mut node, &mut now, |session, req| Request::Put {
            session,
            req,
            tenant: "acme".into(),
            key: 1,
            value: vec![7; MAX_VALUE_BYTES + 1],
        });
        let code = ErrCode::ValueTooLarge;
        assert_eq!(resps, [Response::Err { req: 1, code }]);
        assert_eq!(node.malformed, 0);
        assert_eq!(node.peek("acme", 1).unwrap(), None);
    }

    /// Watches pin nothing in the snapshot catalog, so a single-shard
    /// node (the post-failover topology) serves more watched stripes
    /// than one 31-entry catalog could ever hold baselines for.
    #[test]
    fn forty_eight_watched_stripes_fit_a_single_shard_node() {
        const TENANTS: usize = 12;
        let mut node = node(1, TENANTS);
        let mut now = Nanos::ZERO;
        let mut clients: Vec<Client> = (0..TENANTS)
            .map(|port| Client::hello(&mut node, &mut now, port))
            .collect();
        for (i, c) in clients.iter_mut().enumerate() {
            let sub = c.subscribe(&mut node, &mut now, &format!("t{i}"));
            let Response::SubOk { from_epochs, .. } = &sub else {
                panic!("tenant {i}: {sub:?}");
            };
            assert_eq!(from_epochs.len() as u64, node.cfg.stripes);
        }
        assert!(node.ms.retained_snapshots().is_empty());
        for (i, c) in clients.iter_mut().enumerate() {
            let key = 37 * i as u64 + 5;
            let events = c.put(&mut node, &mut now, &format!("t{i}"), key);
            assert_eq!(events.len(), 1, "tenant {i}: {events:?}");
            assert_eq!(events[0].ranges, vec![(key, key + 1)]);
            assert_eq!(events[0].stripe, key_stripe(node.cfg.stripes, key));
        }
        assert_eq!(node.conservative_notifies, 0);
    }

    /// An out-of-band commit (here a fence) on a watched stripe breaks
    /// the dirty-line chain: the next event widens to the whole stripe,
    /// exactly once, and the stream is narrow again right after.
    #[test]
    fn unprovable_chain_yields_one_whole_stripe_event() {
        let mut node = node(8, 1);
        let mut now = Nanos::ZERO;
        let mut c = Client::hello(&mut node, &mut now, 0);
        c.subscribe(&mut node, &mut now, "acme");
        let events = c.put(&mut node, &mut now, "acme", 200);
        assert_eq!(events[0].ranges, vec![(200, 201)]);

        // Key 200 lives on stripe 3 (global page 3, local page 0).
        let fenced = events[0].epoch + 5;
        node.ms
            .msnap_fence(&mut node.vt, "t/acme/3", fenced)
            .unwrap();
        let events = c.put(&mut node, &mut now, "acme", 201);
        assert_eq!(events.len(), 1);
        assert!(events[0].epoch > fenced);
        let whole_stripe: Vec<(u64, u64)> = (0..PAGES_PER_STRIPE)
            .map(|p| node.page_key_range(3, p))
            .collect();
        assert_eq!(events[0].ranges, whole_stripe);
        assert!(events[0]
            .ranges
            .iter()
            .any(|&(lo, hi)| lo <= 201 && 201 < hi));
        assert_eq!(node.conservative_notifies, 1);

        let events = c.put(&mut node, &mut now, "acme", 202);
        assert_eq!(events[0].ranges, vec![(202, 203)]);
        assert_eq!(node.conservative_notifies, 1);
    }

    /// Subscribing, being notified and unsubscribing never touch the
    /// snapshot catalog, and an unwatched tenant's commits record no
    /// events.
    #[test]
    fn watches_leave_the_catalog_empty_and_unwatched_commits_silent() {
        let mut node = node(8, 1);
        let mut now = Nanos::ZERO;
        let mut c = Client::hello(&mut node, &mut now, 0);
        let Response::SubOk { watch, .. } = c.subscribe(&mut node, &mut now, "acme") else {
            panic!("subscribe refused");
        };
        for key in [3, 70, 700] {
            assert_eq!(c.put(&mut node, &mut now, "acme", key).len(), 1);
            assert!(node.ms.retained_snapshots().is_empty());
        }
        let resps = c.call(&mut node, &mut now, |session, req| Request::Unsubscribe {
            session,
            req,
            watch,
        });
        assert!(
            matches!(resps.first(), Some(Response::UnsubOk { .. })),
            "{resps:?}"
        );
        assert!(node.ms.retained_snapshots().is_empty());

        let events_before = node.stats().notify_events;
        assert_eq!(events_before, 3);
        assert!(c.put(&mut node, &mut now, "acme", 3).is_empty());
        assert_eq!(node.stats().notify_events, events_before);
        assert_eq!(node.conservative_notifies, 0);
    }

    /// Replication ships what each commit recorded and pins only sparse
    /// anchors: the primary's catalog, and the count of snapshots ever
    /// pinned into it, follow the objects shipped — not the commits.
    #[test]
    fn replicated_puts_pin_the_catalog_per_object_not_per_commit() {
        const TENANTS: usize = 12;
        let mut node = ServeNode::format(ServeConfig::default(), TENANTS, NetConfig::calm(11));
        node.add_replica("r1", NetConfig::calm(21)).unwrap();
        node.add_replica("r2", NetConfig::calm(22)).unwrap();
        let mut now = Nanos::ZERO;
        let mut clients: Vec<Client> = (0..TENANTS)
            .map(|port| Client::hello(&mut node, &mut now, port))
            .collect();
        // Five commits on one stripe of every tenant.
        for _ in 0..5 {
            for (i, c) in clients.iter_mut().enumerate() {
                c.put(&mut node, &mut now, &format!("t{i}"), 5);
            }
        }
        let objects = node.ms.store().object_names().len();
        assert_eq!(objects, TENANTS * node.cfg.stripes as usize + 1);
        let catalog = node.ms.retained_snapshots();
        assert!(catalog.len() <= objects, "{} entries", catalog.len());
        // The engine names its pins `rp<n>` in creation order.
        let pinned = catalog
            .iter()
            .filter_map(|s| s.name.strip_prefix("rp")?.parse::<usize>().ok())
            .max()
            .map_or(0, |n| n + 1);
        assert!(
            pinned <= objects,
            "{pinned} snapshots pinned for {objects} objects and 60 commits"
        );
    }

    #[test]
    fn slot_codec_round_trips() {
        let mut slot = [0u8; SLOT_BYTES as usize];
        assert_eq!(decode_slot(&slot), None);
        encode_slot(&mut slot, &[1, 2, 3]);
        assert_eq!(decode_slot(&slot), Some(vec![1, 2, 3]));
        encode_slot(&mut slot, &[]);
        assert_eq!(decode_slot(&slot), Some(vec![]));
    }
}
